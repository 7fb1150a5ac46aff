//! Criterion microbenchmarks: single-thread prediction throughput of
//! every scheme on a fixed workload, plus the per-chunk scalar lane vs
//! per-record `Box<dyn>` dispatch comparison. These measure the simulator itself
//! (predictions per second), complementing the accuracy harnesses in
//! `src/bin/`.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};

use bpred_core::PredictorConfig;
use bpred_sim::{run_config, scalar_lane, Simulator};
use bpred_trace::{TraceChunk, TraceSource};
use bpred_workloads::suite;

const BRANCHES: usize = 50_000;

fn predictor_throughput(c: &mut Criterion) {
    let trace = suite::mpeg_play().scaled(BRANCHES).trace(1);
    let mut group = c.benchmark_group("predict+update");
    group.throughput(Throughput::Elements(BRANCHES as u64));

    let configs: Vec<(&str, PredictorConfig)> = vec![
        ("always-taken", PredictorConfig::AlwaysTaken),
        ("btfn", PredictorConfig::Btfn),
        (
            "bimodal-4k",
            PredictorConfig::AddressIndexed { addr_bits: 12 },
        ),
        (
            "gag-4k",
            PredictorConfig::Gas {
                history_bits: 12,
                col_bits: 0,
            },
        ),
        (
            "gas-4k",
            PredictorConfig::Gas {
                history_bits: 8,
                col_bits: 4,
            },
        ),
        (
            "gshare-4k",
            PredictorConfig::Gshare {
                history_bits: 8,
                col_bits: 4,
            },
        ),
        (
            "path-4k",
            PredictorConfig::Path {
                row_bits: 8,
                col_bits: 4,
                bits_per_target: 2,
            },
        ),
        (
            "pas-inf-4k",
            PredictorConfig::PasInfinite {
                history_bits: 8,
                col_bits: 4,
            },
        ),
        (
            "pas-1kx4-4k",
            PredictorConfig::PasFinite {
                history_bits: 8,
                col_bits: 4,
                entries: 1024,
                ways: 4,
            },
        ),
        (
            "tournament-4k",
            PredictorConfig::Tournament {
                addr_bits: 10,
                history_bits: 10,
                chooser_bits: 10,
            },
        ),
    ];

    for (name, config) in configs {
        group.bench_with_input(BenchmarkId::from_parameter(name), &config, |b, cfg| {
            b.iter(|| run_config(*cfg, &trace, Simulator::new()));
        });
    }
    group.finish();
}

/// The scalar tier's per-chunk lane ([`scalar_lane`]: one virtual
/// call per chunk, a monomorphized record loop inside) against the
/// same replay over a `Box<dyn BranchPredictor>`
/// (`PredictorConfig::build`, one virtual call per predict and update)
/// and over the concrete `Gshare` type: identical `ReplayCore`,
/// identical results, differing only in how predict/update dispatch.
fn dispatch_comparison(c: &mut Criterion) {
    let trace = suite::mpeg_play().scaled(BRANCHES).trace(1);
    let chunks: Vec<TraceChunk> = trace.chunks(TraceChunk::DEFAULT_LEN).collect();
    let sweep: Vec<PredictorConfig> = (6..14)
        .map(|history_bits| PredictorConfig::Gshare {
            history_bits,
            col_bits: 2,
        })
        .collect();
    let mut group = c.benchmark_group("dispatch/gshare-sweep");
    group.throughput(Throughput::Elements((BRANCHES * sweep.len()) as u64));
    group.sample_size(30);

    group.bench_function("boxed-dyn", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|cfg| {
                    let mut predictor = cfg.build();
                    Simulator::new().run(&mut predictor, &trace).mispredictions
                })
                .sum::<u64>()
        });
    });
    group.bench_function("direct-static", |b| {
        b.iter(|| {
            (6..14)
                .map(|history_bits| {
                    let mut core = bpred_sim::ReplayCore::new(
                        bpred_core::Gshare::new(history_bits, 2),
                        Simulator::new(),
                    );
                    core.replay(&trace);
                    core.finish().mispredictions
                })
                .sum::<u64>()
        });
    });
    group.bench_function("chunk-lane", |b| {
        b.iter(|| {
            sweep
                .iter()
                .map(|cfg| {
                    let mut lane = scalar_lane(cfg, Simulator::new());
                    for chunk in &chunks {
                        lane.feed_chunk(chunk);
                    }
                    lane.finish().mispredictions
                })
                .sum::<u64>()
        });
    });
    group.finish();
}

criterion_group!(benches, predictor_throughput, dispatch_comparison);
criterion_main!(benches);
