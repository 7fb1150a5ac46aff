//! Golden-value regression tests for the workload suite.
//!
//! Every benchmark model is generated at a fixed scale (50 000
//! conditional branches) and seed (1996), and its summary statistics
//! are pinned exactly: total records, dynamic conditionals, distinct
//! static sites, and the overall taken rate. The models are calibrated
//! against the paper's Tables 1–2, so any drift here means the
//! generator (or the vendored RNG) changed behaviour — which would
//! silently re-baseline every figure in EXPERIMENTS.md.
//!
//! Summary statistics cannot see a generator that emits the same
//! counts in a different order, so the record streams themselves are
//! pinned too: an FNV-1a 64 digest over every record's pc, target,
//! kind, and outcome, for every model at two seeds, the jump-fraction
//! extremes, and a multiprogrammed mix. Each digest is checked through
//! every way a stream leaves the generator — the record iterator,
//! chunk sequences of several lengths, and a buffer-reusing chunk
//! feeder — so a fast path that drifts from the iterator fails here.
//!
//! If a deliberate generator change invalidates these numbers, rerun
//! `cargo test --release golden_regenerate -- --ignored --nocapture`
//! (and `golden_digests_regenerate` likewise) and paste the printed
//! tables.

use bpred::trace::fnv::Fnv64;
use bpred::trace::stats::TraceStats;
use bpred::trace::{BranchRecord, TraceChunk, TraceSource};
use bpred::workloads::{suite, Multiprogrammed, WorkloadSource};

const SCALE: usize = 50_000;
const SEED: u64 = 1996;

/// `(name, total_records, dynamic_conditionals, static_sites, taken_rate)`
/// measured at `SCALE`/`SEED`.
const GOLDEN: &[(&str, usize, u64, usize, f64)] = &[
    ("compress", 53097, 50000, 110, 0.5949),
    ("eqntott", 53082, 50000, 281, 0.7215),
    ("espresso", 52951, 50000, 591, 0.7343),
    ("gcc", 53609, 50000, 3916, 0.6851),
    ("groff", 53912, 50000, 2109, 0.7126),
    ("gs", 54005, 50000, 3757, 0.6632),
    ("mpeg_play", 54162, 50000, 2069, 0.7029),
    ("nroff", 54120, 50000, 1688, 0.6044),
    ("real_gcc", 54099, 50000, 5452, 0.6787),
    ("sc", 53064, 50000, 633, 0.7528),
    ("sdet", 54090, 50000, 1816, 0.6225),
    ("verilog", 54030, 50000, 1899, 0.7029),
    ("video_play", 53978, 50000, 1985, 0.6821),
    ("xlisp", 52993, 50000, 320, 0.7050),
];

fn measure(name: &str) -> TraceStats {
    let model = suite::by_name(name)
        .expect("benchmark exists")
        .scaled(SCALE);
    TraceStats::measure(&model.trace(SEED))
}

#[test]
fn golden_values_cover_every_benchmark() {
    let mut names: Vec<String> = suite::all().iter().map(|m| m.name().to_owned()).collect();
    names.sort();
    let mut golden: Vec<&str> = GOLDEN.iter().map(|g| g.0).collect();
    golden.sort_unstable();
    assert_eq!(names, golden, "GOLDEN table out of sync with suite::all()");
}

#[test]
fn summary_statistics_match_golden_values() {
    for &(name, records, conditionals, statics, taken) in GOLDEN {
        let stats = measure(name);
        assert_eq!(stats.total_records, records, "{name}: total records");
        assert_eq!(
            stats.dynamic_conditionals, conditionals,
            "{name}: conditionals"
        );
        assert_eq!(stats.static_conditionals, statics, "{name}: static sites");
        assert!(
            (stats.taken_rate - taken).abs() < 5e-4,
            "{name}: taken rate {:.4} vs golden {taken:.4}",
            stats.taken_rate
        );
    }
}

#[test]
fn taken_rates_stay_in_the_papers_band() {
    // §2 of the paper (and the broader literature it cites) puts
    // conditional branches at roughly 60–80% taken across SPECint92
    // and IBS-Ultrix; the golden values must not drift outside it.
    for &(name, _, _, _, taken) in GOLDEN {
        assert!(
            (0.55..=0.85).contains(&taken),
            "{name}: golden taken rate {taken:.4} outside the published band"
        );
    }
}

/// Prints the `GOLDEN` table. Run with
/// `cargo test --release golden_regenerate -- --ignored --nocapture`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn golden_regenerate() {
    let mut models = suite::all();
    models.sort_by_key(|m| m.name().to_owned());
    for model in models {
        let name = model.name().to_owned();
        let stats = TraceStats::measure(&model.scaled(SCALE).trace(SEED));
        println!(
            "    (\"{}\", {}, {}, {}, {:.4}),",
            name,
            stats.total_records,
            stats.dynamic_conditionals,
            stats.static_conditionals,
            stats.taken_rate
        );
    }
}

/// Seeds the stream digests are pinned at.
const DIGEST_SEEDS: [u64; 2] = [1996, 7];

/// `(name, digest at each of DIGEST_SEEDS)` of each model's
/// record stream at `SCALE` conditionals.
const GOLDEN_DIGESTS: &[(&str, u64, u64)] = &[
    ("compress", 0x6f00425587349d26, 0xbcfa700288ff3c24),
    ("eqntott", 0x8dba7c155ec3d562, 0xa48d79b0a709b50e),
    ("espresso", 0x0b41e8719c316bc2, 0xda78a067b31678d4),
    ("gcc", 0x7061f4b407c77bb4, 0xfcf50c3d83607914),
    ("groff", 0x9592a63bd1c8aff1, 0x226a3edd0efca890),
    ("gs", 0xf04ec9291e27cc88, 0xe82827f5907ccf6f),
    ("mpeg_play", 0x8c34aac3a458a450, 0x2ac3c54430b52ca1),
    ("nroff", 0x892af6872c74dac0, 0x3506cd0f5dd52611),
    ("real_gcc", 0x63fcaf993e53a9a1, 0xc0aa8f2afb43a8ef),
    ("sc", 0x37d5fb99576b6d4d, 0xc43326314aafd949),
    ("sdet", 0x01c67ce991659f1c, 0xe1212c1fe5174075),
    ("verilog", 0x818f1908bce35735, 0x1875dc31a4ee14ff),
    ("video_play", 0x7dc5da9baad01af2, 0x8c1d169cb9316678),
    ("xlisp", 0x08b18862dc0de1ea, 0xa05924227358be47),
];

/// `(jump fraction, digest)` of espresso at `SCALE`/`SEED` with the
/// non-conditional fraction overridden.
const GOLDEN_JUMP_DIGESTS: &[(f64, u64)] = &[(0.0, 0xd2e652f739ccb210), (0.25, 0xd0aea37baacbc0f6)];

/// Digest of `mix()`'s trace at `SEED` over `SCALE` conditionals.
const GOLDEN_MIX_DIGEST: u64 = 0xd2ad2c6c99db2c8a;

/// Chunk lengths every digest is re-derived through: single records,
/// a length that splits jump pairs and meta words, and the sweep
/// pipeline's default.
const CHUNK_LENS: [usize; 3] = [1, 7, TraceChunk::DEFAULT_LEN];

fn mix() -> Multiprogrammed {
    Multiprogrammed::new(vec![suite::mpeg_play(), suite::sdet()], 5_000)
}

/// FNV-1a 64 over each record's pc, target, kind, and outcome.
fn digest(records: impl IntoIterator<Item = BranchRecord>) -> u64 {
    let mut h = Fnv64::new();
    for r in records {
        h.write(&r.pc.to_le_bytes());
        h.write(&r.target.to_le_bytes());
        h.write(&[r.kind.mnemonic() as u8, r.outcome.as_bit() as u8]);
    }
    h.finish()
}

/// The source's digest, asserted equal through the record stream,
/// every chunk length in `CHUNK_LENS`, and chunk-feeder refills.
fn checked_digest(source: &dyn TraceSource, what: &str) -> u64 {
    let streamed = digest(source.stream());
    for k in CHUNK_LENS {
        let chunked = digest(source.chunks(k).flat_map(|c| c.iter().collect::<Vec<_>>()));
        assert_eq!(
            chunked, streamed,
            "{what}: chunks({k}) differ from the stream"
        );
        let mut feeder = source.chunk_feeder();
        let mut chunk = TraceChunk::with_capacity(k);
        let mut records = Vec::new();
        while feeder.refill(&mut chunk, k) > 0 {
            records.extend(chunk.iter());
        }
        assert_eq!(
            digest(records),
            streamed,
            "{what}: refills of {k} differ from the stream"
        );
    }
    streamed
}

fn model_digest(name: &str, seed: u64) -> u64 {
    let model = suite::by_name(name)
        .expect("benchmark exists")
        .scaled(SCALE);
    checked_digest(&WorkloadSource::new(model, seed), &format!("{name}@{seed}"))
}

fn jump_digest(fraction: f64) -> u64 {
    let model = suite::espresso().scaled(SCALE).with_jump_fraction(fraction);
    checked_digest(
        &WorkloadSource::new(model, SEED),
        &format!("espresso j={fraction}"),
    )
}

fn mix_digest() -> u64 {
    checked_digest(&mix().trace(SEED, SCALE), "mpeg_play+sdet mix")
}

#[test]
fn golden_digests_cover_every_benchmark() {
    let mut names: Vec<String> = suite::all().iter().map(|m| m.name().to_owned()).collect();
    names.sort();
    let golden: Vec<&str> = GOLDEN_DIGESTS.iter().map(|g| g.0).collect();
    assert_eq!(
        names, golden,
        "GOLDEN_DIGESTS out of sync with suite::all()"
    );
}

#[test]
fn record_streams_match_golden_digests() {
    for &(name, first, second) in GOLDEN_DIGESTS {
        for (seed, want) in DIGEST_SEEDS.into_iter().zip([first, second]) {
            assert_eq!(model_digest(name, seed), want, "{name} at seed {seed}");
        }
    }
}

#[test]
fn jump_fraction_extremes_match_golden_digests() {
    for &(fraction, want) in GOLDEN_JUMP_DIGESTS {
        assert_eq!(jump_digest(fraction), want, "espresso j={fraction}");
    }
}

#[test]
fn multiprogrammed_mix_matches_golden_digest() {
    assert_eq!(mix_digest(), GOLDEN_MIX_DIGEST);
}

/// Prints the digest tables. Run with
/// `cargo test --release golden_digests_regenerate -- --ignored --nocapture`.
#[test]
#[ignore = "regeneration helper, not a check"]
fn golden_digests_regenerate() {
    let mut names: Vec<String> = suite::all().iter().map(|m| m.name().to_owned()).collect();
    names.sort();
    for name in names {
        let [a, b] = DIGEST_SEEDS.map(|seed| model_digest(&name, seed));
        println!("    (\"{name}\", 0x{a:016x}, 0x{b:016x}),");
    }
    for fraction in [0.0, 0.25] {
        println!("    ({fraction:?}, 0x{:016x}),", jump_digest(fraction));
    }
    println!("const GOLDEN_MIX_DIGEST: u64 = 0x{:016x};", mix_digest());
}
