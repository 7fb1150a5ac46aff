//! Streaming trace I/O: produce a trace record-by-record (no
//! whole-trace buffer), then consume it incrementally while feeding a
//! predictor — the pattern for traces that do not fit in memory (the
//! paper's real traces ran to 1.4B instructions).
//!
//! ```text
//! cargo run --release --example streaming_traces
//! ```

use std::io::BufWriter;

use bpred::core::{BranchPredictor, Gshare};
use bpred::sim::report::percent;
use bpred::trace::binfmt::{TraceReader, TraceWriter};
use bpred::workloads::suite;

fn main() -> Result<(), std::io::Error> {
    let mut path = std::env::temp_dir();
    path.push(format!("bpred-streaming-{}.bpt", std::process::id()));

    // Produce: generate in memory here for brevity, but write through
    // the streaming encoder exactly as an out-of-core producer would.
    let model = suite::gs().scaled(200_000);
    let trace = model.trace(11);
    {
        let file = std::fs::File::create(&path)?;
        let mut writer = TraceWriter::new(BufWriter::new(file), trace.len() as u64)?;
        for record in trace.iter() {
            writer.write(record)?;
        }
        writer.finish()?;
    }
    let bytes = std::fs::metadata(&path)?.len();
    println!(
        "wrote {} records ({} bytes, {:.2} bytes/record)",
        trace.len(),
        bytes,
        bytes as f64 / trace.len() as f64
    );

    // Consume: the reader yields records one at a time; predictor
    // state is the only thing held in memory.
    let file = std::fs::File::open(&path)?;
    let reader = TraceReader::new(std::io::BufReader::new(file))?;
    let mut predictor = Gshare::new(10, 2);
    let mut conditionals = 0u64;
    let mut mispredictions = 0u64;
    for record in reader {
        let record = record?;
        if !record.is_conditional() {
            predictor.note_control_transfer(&record);
            continue;
        }
        let predicted = predictor.predict(record.pc, record.target);
        if predicted != record.outcome {
            mispredictions += 1;
        }
        conditionals += 1;
        predictor.update(record.pc, record.target, record.outcome);
    }
    println!(
        "{} over {} streamed branches: {} mispredicted",
        predictor.name(),
        conditionals,
        percent(mispredictions as f64 / conditionals as f64)
    );

    std::fs::remove_file(&path)?;
    // The reader handed back every conditional branch the writer wrote.
    assert_eq!(conditionals, trace.conditional_len() as u64);
    Ok(())
}
