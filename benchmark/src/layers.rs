//! Per-layer passes of a traced run, shared by every workload.
//!
//! Each pass re-drives a workload's own inputs through the public
//! calls of one layer and records a span around every call:
//!
//! - [`chunk_pass`] — `bpred-workloads` chunk production alone
//!   (`WorkloadSource::chunks`), no replay.
//! - [`sim_pass`] — `bpred-sim`'s batched sweep taken apart: the
//!   wall time of `run_batched_chunked` beside its parts
//!   (`LaneSet::new`, chunk refills, `replay_chunk`, `finish`) run in
//!   sequence on one thread, with the results required to match.
//! - [`plan_pass`] — replay rate of each lane plan over pre-built
//!   chunks.

use std::collections::BTreeMap;

use bpred_core::PredictorConfig;
use bpred_sim::{
    records_replayed_total, replay_prefetch_groups, replay_scalar_lanes, run_batched_chunked,
    LaneSet, SimResult, Simulator, DEFAULT_SHARD_SIZE, LANE_TIER_LABELS,
};
use bpred_trace::{TraceChunk, TraceSource};
use bpred_workloads::WorkloadSource;

use crate::trace::{total_count, total_secs, Tracer};
use crate::Outcome;

/// One sweep a workload makes: configurations over one source.
#[derive(Debug, Clone)]
pub struct Sweep {
    /// Configurations, in request order.
    pub configs: Vec<PredictorConfig>,
    /// The workload stream.
    pub source: WorkloadSource,
    /// Warmup policy.
    pub simulator: Simulator,
}

/// A configuration of each lane plan, replayed when a workload's own
/// configurations never land on that plan, so every plan's rate is
/// measured over every workload's stream.
pub const PLAN_PROBES: [(&str, &str); 12] = [
    ("direct", "gshare:h=10,c=2"),
    ("pas-perfect", "pas:h=6,c=2"),
    ("pas-finite", "pas:h=6,c=2,e=1024,w=4"),
    ("per-set", "sas:h=6,s=3,c=2"),
    ("agree", "agree:h=8"),
    ("bimode", "bimode:h=8"),
    ("gskew", "gskew:h=8,b=8"),
    ("tournament", "tournament:a=8,h=8,k=8"),
    ("yags", "yags:k=8,b=7,t=6"),
    ("path", "path:r=6,c=2,q=2"),
    ("last-time", "last:a=10"),
    ("static", "btfn"),
];

/// Lanes a plan pass replays at most per plan.
const PLAN_LANES: usize = 32;

/// The plan label `config` dispatches to.
pub fn plan_of(config: &PredictorConfig) -> &'static str {
    let counts = LaneSet::new(std::slice::from_ref(config), Simulator::new()).lane_tier_counts();
    let slot = counts
        .iter()
        .position(|&c| c > 0)
        .unwrap_or(LANE_TIER_LABELS.len() - 1);
    LANE_TIER_LABELS[slot]
}

/// Chunk production alone over every source: `workloads.chunks.busy_s`
/// and `workloads.chunks.records_per_s`.
pub fn chunk_pass(tracer: &Tracer, sources: &[&WorkloadSource], out: &mut Outcome) {
    for source in sources {
        let open = tracer.open("workloads.chunks", None, None);
        let records: usize = source
            .chunks(TraceChunk::DEFAULT_LEN)
            .map(|c| c.len())
            .sum();
        tracer.close(open, &[("records", records as u64)]);
    }
    let spans = tracer.spans();
    let busy = total_secs(&spans, "workloads.chunks");
    let records = total_count(&spans, "workloads.chunks", "records");
    out.layers.insert("workloads.chunks.busy_s".into(), busy);
    out.layers.insert(
        "workloads.chunks.records_per_s".into(),
        rate(records as f64, busy),
    );
}

/// `run_batched_chunked` beside its parts, for every sweep. Fills the
/// `sim.*` metrics and checks that the parts reproduce its results
/// exactly.
pub fn sim_pass(tracer: &Tracer, sweeps: &[Sweep], out: &mut Outcome) {
    let (mut scalar_lanes, mut prefetch_groups) = (0u64, 0u64);
    for (i, sweep) in sweeps.iter().enumerate() {
        let request = Some(i as u64);
        let before = records_replayed_total();
        let open = tracer.open("sim.batch", None, request);
        let driven = run_batched_chunked(
            &sweep.configs,
            &sweep.source,
            sweep.simulator,
            DEFAULT_SHARD_SIZE,
            TraceChunk::DEFAULT_LEN,
        );
        let pairs = records_replayed_total() - before;
        tracer.close(open, &[("pairs", pairs)]);
        scalar_lanes += replay_scalar_lanes();
        prefetch_groups += replay_prefetch_groups();

        let parts = replay_in_parts(tracer, sweep, request);
        out.check(parts == driven, || {
            format!("sim pass: parts disagree with run_batched_chunked on sweep {i}")
        });
    }

    let spans = tracer.spans();
    let wall = total_secs(&spans, "sim.batch");
    let build = total_secs(&spans, "sim.lanes.build");
    let replay = total_secs(&spans, "sim.replay");
    let finish = total_secs(&spans, "sim.finish");
    let refill = total_secs(&spans, "workloads.feeder.refill");
    let unattributed = wall - (refill + build + replay + finish);
    let layers = &mut out.layers;
    layers.insert("sim.batch.wall_s".into(), wall);
    layers.insert("sim.lanes.build_s".into(), build);
    layers.insert("sim.replay.busy_s".into(), replay);
    layers.insert("sim.finish_s".into(), finish);
    layers.insert("workloads.feeder.refill_s".into(), refill);
    layers.insert("sim.batch.unattributed_s".into(), unattributed);
    layers.insert(
        "sim.pairs".into(),
        total_count(&spans, "sim.batch", "pairs") as f64,
    );
    layers.insert("sim.scalar_lanes".into(), scalar_lanes as f64);
    layers.insert("sim.prefetch_groups".into(), prefetch_groups as f64);
    out.note(
        "sim.batch.gap_ratio",
        if wall > 0.0 { unattributed / wall } else { 0.0 },
        "ratio",
    );
}

/// `run_batched_chunked`'s work done by hand on this thread: shards of
/// [`DEFAULT_SHARD_SIZE`] lanes, one chunk refill at a time, each
/// shard advanced through each chunk.
fn replay_in_parts(tracer: &Tracer, sweep: &Sweep, request: Option<u64>) -> Vec<SimResult> {
    let mut shards: Vec<LaneSet> = sweep
        .configs
        .chunks(DEFAULT_SHARD_SIZE)
        .map(|configs| {
            let open = tracer.open("sim.lanes.build", None, request);
            let set = LaneSet::new(configs, sweep.simulator);
            tracer.close(open, &[("lanes", configs.len() as u64)]);
            set
        })
        .collect();
    let mut feeder = sweep.source.chunk_feeder();
    let mut chunk = TraceChunk::with_capacity(TraceChunk::DEFAULT_LEN);
    loop {
        let open = tracer.open("workloads.feeder.refill", None, request);
        let records = feeder.refill(&mut chunk, TraceChunk::DEFAULT_LEN);
        tracer.close(open, &[("records", records as u64)]);
        if records == 0 {
            break;
        }
        for set in &mut shards {
            let open = tracer.open("sim.replay", None, request);
            set.replay_chunk(&chunk);
            tracer.close(open, &[("pairs", (records * set.len()) as u64)]);
        }
    }
    let mut results = Vec::with_capacity(sweep.configs.len());
    for set in shards {
        let open = tracer.open("sim.finish", None, request);
        results.extend(set.finish());
        tracer.close(open, &[]);
    }
    results
}

/// Replay rate of every lane plan over `chunks`: the workload's own
/// configurations of that plan (up to [`PLAN_LANES`]), or the plan's
/// probe when it has none. Fills `sim.replay.<plan>.pairs_per_s`.
pub fn plan_pass(
    tracer: &Tracer,
    configs: &[PredictorConfig],
    chunks: &[TraceChunk],
    out: &mut Outcome,
) {
    let mut by_plan: BTreeMap<&str, Vec<PredictorConfig>> = BTreeMap::new();
    for config in configs {
        let lanes = by_plan.entry(plan_of(config)).or_default();
        if lanes.len() < PLAN_LANES && !lanes.contains(config) {
            lanes.push(*config);
        }
    }
    let records: usize = chunks.iter().map(TraceChunk::len).sum();
    for (label, probe) in PLAN_PROBES {
        let (lanes, source) = match by_plan.get(label) {
            Some(own) => (own.clone(), "workload"),
            None => {
                let config: PredictorConfig = probe.parse().expect("probe configs parse");
                out.check(plan_of(&config) == label, || {
                    format!("plan probe {probe} no longer dispatches to {label}")
                });
                (vec![config], "probe")
            }
        };
        let mut set = LaneSet::new(&lanes, Simulator::new());
        let open = tracer.open(&format!("sim.replay.{label}"), None, None);
        for chunk in chunks {
            set.replay_chunk(chunk);
        }
        let pairs = (records * lanes.len()) as u64;
        let secs = tracer.close(open, &[("pairs", pairs), ("lanes", lanes.len() as u64)]);
        std::hint::black_box(set.finish());
        out.layers.insert(
            format!("sim.replay.{label}.pairs_per_s"),
            rate(pairs as f64, secs),
        );
        out.note(
            &format!("sim.replay.{label}.lanes_from_{source}"),
            lanes.len() as f64,
            "lanes",
        );
    }
}

/// The first `max_records` records of `source` as chunks.
pub fn prefix_chunks<S: TraceSource + ?Sized>(
    sources: &[&S],
    max_records: usize,
) -> Vec<TraceChunk> {
    let mut chunks = Vec::new();
    let mut taken = 0;
    for source in sources {
        for chunk in source.chunks(TraceChunk::DEFAULT_LEN) {
            if taken >= max_records {
                return chunks;
            }
            taken += chunk.len();
            chunks.push(chunk);
        }
    }
    chunks
}

/// `work / secs`, 0 when nothing was timed.
pub fn rate(work: f64, secs: f64) -> f64 {
    if secs > 0.0 {
        work / secs
    } else {
        0.0
    }
}
