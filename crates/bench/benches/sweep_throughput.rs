//! Criterion throughput bench for the decode-once chunked sweep
//! pipeline: the acceptance-sized sweep (32 gshare configurations,
//! 120k branches of an IBS-calibrated generated workload) through the
//! chunked engine, plus its components (generation, decode, one
//! lane's replay).
//!
//! Throughput is reported in lane-records per second (records ×
//! configurations — the replay work the engine must do): the chunked
//! engine generates the trace once into structure-of-arrays chunks
//! and replays every lane over them.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};

use bpred_core::PredictorConfig;
use bpred_sim::{run_batched_chunked, run_config, scalar_lane, Simulator, DEFAULT_SHARD_SIZE};
use bpred_trace::TraceChunk;
use bpred_workloads::{suite, WorkloadSource};

const CONDITIONALS: usize = 120_000;

fn gshare_sweep_configs() -> Vec<PredictorConfig> {
    (2..10u32)
        .flat_map(|history_bits| {
            (1..=4u32).map(move |col_bits| PredictorConfig::Gshare {
                history_bits,
                col_bits,
            })
        })
        .collect()
}

fn sweep_throughput(c: &mut Criterion) {
    let model = suite::mpeg_play().scaled(CONDITIONALS);
    let source = WorkloadSource::new(model, 2);
    let configs = gshare_sweep_configs();
    assert_eq!(configs.len(), 32);

    let mut group = c.benchmark_group("sweep-throughput-32x120k");
    group.sample_size(10);
    group.throughput(Throughput::Elements((CONDITIONALS * configs.len()) as u64));
    group.bench_function("chunked", |b| {
        b.iter(|| {
            run_batched_chunked(
                &configs,
                &source,
                Simulator::new(),
                DEFAULT_SHARD_SIZE,
                TraceChunk::DEFAULT_LEN,
            )
        });
    });
    group.finish();
}

fn components(c: &mut Criterion) {
    use bpred_sim::{ReplayCore, Simulator};
    use bpred_trace::TraceSource;

    let model = suite::mpeg_play().scaled(CONDITIONALS);
    let source = WorkloadSource::new(model, 2);
    let trace = source.collect_trace();
    let chunks: Vec<TraceChunk> = source.chunks(TraceChunk::DEFAULT_LEN).collect();
    let config = PredictorConfig::Gshare {
        history_bits: 9,
        col_bits: 3,
    };

    let mut group = c.benchmark_group("sweep-components");
    group.sample_size(10);
    group.throughput(Throughput::Elements(CONDITIONALS as u64));
    group.bench_function("gen-stream", |b| {
        b.iter(|| source.stream().map(|r| r.pc).sum::<u64>());
    });
    group.bench_function("gen-chunks", |b| {
        b.iter(|| {
            source
                .chunks(TraceChunk::DEFAULT_LEN)
                .map(|c| c.len())
                .sum::<usize>()
        });
    });
    group.bench_function("lane-feed-boxed", |b| {
        b.iter(|| {
            let mut lane = ReplayCore::new(config.build(), Simulator::new());
            for record in trace.iter() {
                lane.feed(record);
            }
            lane.finish()
        });
    });
    group.bench_function("lane-feed-stream-visited", |b| {
        b.iter(|| run_config(config, &trace, Simulator::new()));
    });
    group.bench_function("lane-feed-chunks", |b| {
        b.iter(|| {
            let mut lane = scalar_lane(&config, Simulator::new());
            for chunk in &chunks {
                lane.feed_chunk(chunk);
            }
            lane.finish()
        });
    });
    group.finish();
}

criterion_group!(benches, sweep_throughput, components);
criterion_main!(benches);
