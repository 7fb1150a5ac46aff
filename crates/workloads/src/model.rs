//! Workload materialisation and trace generation.
//!
//! [`WorkloadModel::from_spec`] turns a [`BenchmarkSpec`] into a
//! concrete synthetic program — static branches with addresses,
//! targets, execution weights, and behaviours — deterministically from
//! the spec (the program *structure* depends only on the spec, so two
//! traces of the same model with different seeds exercise the same
//! code). [`WorkloadModel::trace`] then replays the program.
//!
//! # Why generation is block-structured
//!
//! Branches are not emitted i.i.d.: real code executes *basic blocks*,
//! so the global history observed just before a branch is produced by
//! a characteristic set of predecessors. That structure is exactly
//! what two-level global predictors exploit ("many global history
//! patterns occur only in concert with specific branches" —
//! McFarling), and i.i.d. interleaving would erase it, making every
//! global scheme look uniformly bad. The generator therefore groups
//! static branches into short blocks, repeats a block while its
//! loop-latch branch stays taken (producing the paper's all-ones
//! tight-loop patterns and realistic first-level-table locality), and
//! chains blocks into preferred successor sequences, re-sampling by
//! execution weight with probability `1 - sequence_coherence`.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bpred_trace::{BranchKind, BranchRecord, ChunkFeeder, Outcome, Trace, TraceChunk, TraceSource};

use crate::behavior::{mix64, BehaviorState, BranchBehavior};
use crate::layout::TextLayout;
use crate::sampling::AliasTable;
use crate::spec::{BehaviorMix, BenchmarkSpec, BiasRange, PaperReference};
use crate::weights::bucket_weights;

/// One static branch of a materialised synthetic program.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticBranch {
    /// Branch instruction address (4-byte aligned).
    pub pc: u64,
    /// Taken-target address.
    pub target: u64,
    /// Relative execution weight (all weights sum to 1).
    pub weight: f64,
    /// Resolution behaviour.
    pub behavior: BranchBehavior,
}

/// A basic block: an ordered run of static branches executed together.
#[derive(Debug, Clone, PartialEq)]
struct BasicBlock {
    /// Indices into the branch array, executed in order.
    members: Vec<usize>,
    /// Whether the final member is a loop latch that repeats the block
    /// while taken.
    latch: bool,
    /// Preferred successor block.
    successor: usize,
}

/// A materialised synthetic benchmark: a fixed program whose traces
/// stand in for one of the paper's trace benchmarks.
///
/// # Examples
///
/// ```
/// use bpred_workloads::suite;
///
/// let model = suite::espresso().scaled(10_000);
/// let trace = model.trace(1);
/// assert_eq!(trace.conditional_len(), 10_000);
/// // Same seed, same trace; different seed, different trace.
/// assert_eq!(model.trace(1), trace);
/// assert_ne!(model.trace(2), trace);
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadModel {
    name: String,
    branches: Vec<StaticBranch>,
    blocks: Vec<BasicBlock>,
    block_sampler: AliasTable,
    jump_targets: Vec<u64>,
    dynamic_branches: usize,
    jump_fraction: f64,
    sequence_coherence: f64,
    paper: PaperReference,
    /// Stable FNV-1a hash of the originating spec's
    /// [canonical string](BenchmarkSpec::canonical_string).
    fingerprint: u64,
}

impl WorkloadModel {
    /// Materialises the program a spec describes. Structure is
    /// deterministic in the spec's name and parameters.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`BenchmarkSpec::validate`].
    pub fn from_spec(spec: &BenchmarkSpec) -> Self {
        spec.validate();
        let mut rng = SmallRng::seed_from_u64(structure_seed(&spec.name));
        let weights = bucket_weights(&spec.coverage);
        let layout = TextLayout::generate(weights.len(), &mut rng);
        let hot_cutoff = spec.coverage.first_50 + spec.coverage.next_40;

        let branches: Vec<StaticBranch> = weights
            .iter()
            .enumerate()
            .map(|(i, &weight)| {
                let hot = i < hot_cutoff;
                let (mix, bias) = if hot {
                    (&spec.hot_mix, &spec.hot_bias)
                } else {
                    (&spec.cold_mix, &spec.cold_bias)
                };
                let behavior = sample_behavior(mix, bias, spec, &mut rng);
                let pc = layout.branch_pcs()[i];
                // Loop latches jump backward; other branches mostly
                // jump forward, with direction only loosely coupled to
                // bias (plenty of real taken-biased branches are
                // forward jumps, which is why BTFN is a weak baseline).
                let backward = behavior.is_loop_shaped()
                    || (behavior.expected_taken_rate() > 0.8 && rng.gen::<f64>() < 0.4)
                    || rng.gen::<f64>() < 0.1;
                let target = layout.target_for(pc, backward, &mut rng);
                StaticBranch {
                    pc,
                    target,
                    weight,
                    behavior,
                }
            })
            .collect();

        let blocks = build_blocks(&branches, &mut rng);
        let block_sampler = AliasTable::new(&block_weights(&branches, &blocks));

        WorkloadModel {
            name: spec.name.clone(),
            block_sampler,
            blocks,
            jump_targets: layout.function_entries().to_vec(),
            branches,
            dynamic_branches: spec.dynamic_branches,
            jump_fraction: spec.jump_fraction,
            sequence_coherence: spec.sequence_coherence,
            paper: spec.paper,
            fingerprint: bpred_trace::fnv::fnv64(spec.canonical_string().as_bytes()),
        }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The materialised static branches, heaviest first.
    pub fn branches(&self) -> &[StaticBranch] {
        &self.branches
    }

    /// Number of static branches.
    pub fn static_branches(&self) -> usize {
        self.branches.len()
    }

    /// Default trace length in conditional branches.
    pub fn dynamic_branches(&self) -> usize {
        self.dynamic_branches
    }

    /// Fraction of records that are non-conditional transfers.
    pub fn jump_fraction(&self) -> f64 {
        self.jump_fraction
    }

    /// Stable fingerprint of the spec this model was materialised
    /// from: the FNV-1a hash of
    /// [`BenchmarkSpec::canonical_string`]. Two models with equal
    /// fingerprints generate bit-identical streams for equal `(seed,
    /// length, jump fraction)`, which is what lets the fingerprint
    /// anchor persistent cache keys. [`scaled`](Self::scaled) and
    /// [`with_jump_fraction`](Self::with_jump_fraction) do *not*
    /// change the fingerprint — their effects are keyed separately
    /// (see [`WorkloadSource::cache_id`]).
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The paper's published numbers for the benchmark this model
    /// stands in for.
    pub fn paper_reference(&self) -> &PaperReference {
        &self.paper
    }

    /// Returns the model with a different default trace length.
    pub fn scaled(mut self, dynamic_branches: usize) -> Self {
        assert!(dynamic_branches > 0, "trace length must be positive");
        self.dynamic_branches = dynamic_branches;
        self
    }

    /// Returns the model with a different non-conditional-transfer
    /// fraction.
    pub fn with_jump_fraction(mut self, jump_fraction: f64) -> Self {
        assert!(
            (0.0..1.0).contains(&jump_fraction),
            "jump fraction {jump_fraction} out of range"
        );
        self.jump_fraction = jump_fraction;
        self
    }

    /// Generates a trace of the default length.
    ///
    /// Traces are deterministic in `(model structure, seed)`.
    pub fn trace(&self, seed: u64) -> Trace {
        self.trace_of_length(seed, self.dynamic_branches)
    }

    /// Generates a trace with exactly `conditionals` conditional
    /// branches (non-conditional transfers are interleaved on top).
    ///
    /// Equivalent to collecting [`stream_of_length`]
    /// (Self::stream_of_length) — the stream *is* the generator.
    pub fn trace_of_length(&self, seed: u64, conditionals: usize) -> Trace {
        let mut trace = Trace::with_capacity(conditionals + conditionals / 8);
        trace.extend(self.stream_of_length(seed, conditionals));
        trace
    }

    /// Opens a lazy record stream of the default trace length; see
    /// [`stream_of_length`](Self::stream_of_length).
    pub fn stream(&self, seed: u64) -> TraceStream<'_> {
        self.stream_of_length(seed, self.dynamic_branches)
    }

    /// Opens a lazy stream yielding exactly the records
    /// [`trace_of_length`](Self::trace_of_length) would produce for the
    /// same `(seed, conditionals)`, without materialising them.
    ///
    /// Sweeps over long traces replay the stream once per worker shard
    /// instead of holding 100k+ records in memory; the stream and the
    /// materialised trace are bit-identical record for record.
    pub fn stream_of_length(&self, seed: u64, conditionals: usize) -> TraceStream<'_> {
        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ structure_seed(&self.name)));
        let block_idx = self.block_sampler.sample(&mut rng);
        TraceStream {
            model: self,
            rng,
            states: vec![BehaviorState::new(); self.branches.len()],
            global_history: 0,
            block_idx,
            pos: 0,
            emitted: 0,
            conditionals,
            pending: None,
        }
    }
}

/// Lazy single-pass trace generator returned by
/// [`WorkloadModel::stream_of_length`].
///
/// Yields the same record sequence the materialising generator
/// produces: the iterator advances the same RNG through the same draws
/// in the same order, so `model.stream_of_length(s, n).collect()` and
/// `model.trace_of_length(s, n)` are bit-identical.
#[derive(Debug, Clone)]
pub struct TraceStream<'a> {
    model: &'a WorkloadModel,
    rng: SmallRng,
    states: Vec<BehaviorState>,
    global_history: u64,
    block_idx: usize,
    /// Position of the next member within the current block.
    pos: usize,
    emitted: usize,
    conditionals: usize,
    /// Jump record generated alongside the previous conditional,
    /// awaiting emission.
    pending: Option<BranchRecord>,
}

impl TraceStream<'_> {
    /// Generates up to `max` records straight into `chunk`'s
    /// structure-of-arrays storage, returning how many were emitted.
    ///
    /// This is the generator's chunk-fill path: the loop is
    /// monomorphized over the concrete stream, so records go from the
    /// sampler into the chunk arrays without a boxed per-record
    /// iterator call. The emitted sequence is exactly what [`next`]
    /// (Iterator::next) would yield — chunking never perturbs the
    /// RNG draw order.
    pub fn fill_chunk(&mut self, chunk: &mut TraceChunk, max: usize) -> usize {
        chunk.fill_from(self, max)
    }
}

impl Iterator for TraceStream<'_> {
    type Item = BranchRecord;

    fn next(&mut self) -> Option<BranchRecord> {
        if let Some(jump) = self.pending.take() {
            return Some(jump);
        }
        if self.emitted >= self.conditionals {
            return None;
        }
        let model = self.model;
        let block = &model.blocks[self.block_idx];
        let last = block.members.len() - 1;
        let branch_idx = block.members[self.pos];

        self.emitted += 1;
        let b = &model.branches[branch_idx];
        let outcome =
            self.states[branch_idx].resolve(b.behavior, self.global_history, &mut self.rng);
        self.global_history = (self.global_history << 1) | outcome.as_bit();
        let record = BranchRecord::conditional(b.pc, b.target, outcome);
        let latch_taken = block.latch && self.pos == last && outcome.is_taken();

        if model.jump_fraction > 0.0 && self.rng.gen::<f64>() < model.jump_fraction {
            let entry = model.jump_targets[self.rng.gen_range(0..model.jump_targets.len())];
            let kind = if self.rng.gen::<f64>() < 0.5 {
                BranchKind::Call
            } else {
                BranchKind::Unconditional
            };
            self.pending = Some(BranchRecord::new(b.pc + 4, entry, kind, Outcome::Taken));
        }

        // Advance: next member, repeat the block while its latch stays
        // taken, or move to the next block. The draws here happen
        // between records, exactly where the materialising loop made
        // them.
        if self.pos < last {
            self.pos += 1;
        } else {
            self.pos = 0;
            if !latch_taken {
                // Follow the preferred successor or re-sample by weight.
                self.block_idx = if self.rng.gen::<f64>() < model.sequence_coherence {
                    model.blocks[self.block_idx].successor
                } else {
                    model.block_sampler.sample(&mut self.rng)
                };
            }
        }
        Some(record)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        // At least the remaining conditionals; jumps are on top.
        (
            self.conditionals - self.emitted + usize::from(self.pending.is_some()),
            None,
        )
    }
}

/// A [`TraceSource`] view of a workload model at a fixed seed and
/// length: each [`stream`](TraceSource::stream) call replays the same
/// deterministic record sequence from the start.
///
/// This is what lets sweep and experiment drivers hand a *generator* to
/// the batched replay engine where an in-memory [`Trace`] was needed
/// before.
///
/// The model is held behind an [`Arc`], so sources over one model —
/// at different seeds or lengths, or cloned across threads — share a
/// single materialisation. The constructors take either an owned
/// [`WorkloadModel`] or an existing `Arc<WorkloadModel>`.
///
/// # Examples
///
/// ```
/// use bpred_trace::TraceSource;
/// use bpred_workloads::{suite, WorkloadSource};
///
/// let source = WorkloadSource::new(suite::espresso().scaled(1_000), 7);
/// assert_eq!(source.collect_trace(), source.model().trace(7));
/// ```
#[derive(Debug, Clone)]
pub struct WorkloadSource {
    model: Arc<WorkloadModel>,
    seed: u64,
    conditionals: usize,
}

impl WorkloadSource {
    /// A source replaying `model` at `seed` for the model's default
    /// trace length.
    pub fn new(model: impl Into<Arc<WorkloadModel>>, seed: u64) -> Self {
        let model = model.into();
        let conditionals = model.dynamic_branches();
        WorkloadSource {
            model,
            seed,
            conditionals,
        }
    }

    /// A source replaying `model` at `seed` with exactly
    /// `conditionals` conditional branches.
    pub fn with_length(
        model: impl Into<Arc<WorkloadModel>>,
        seed: u64,
        conditionals: usize,
    ) -> Self {
        WorkloadSource {
            model: model.into(),
            seed,
            conditionals,
        }
    }

    /// The underlying model.
    pub fn model(&self) -> &WorkloadModel {
        &self.model
    }

    /// The replay seed.
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// Conditional branches per replay.
    pub fn conditionals(&self) -> usize {
        self.conditionals
    }

    /// Stable identity of the exact record stream this source replays,
    /// for keying persistent result caches.
    ///
    /// Combines the model's [spec fingerprint](WorkloadModel::fingerprint)
    /// with every post-materialisation knob that changes the stream:
    /// seed, replay length, and jump fraction. Equal ids guarantee
    /// bit-identical streams; distinct streams get distinct ids (up to
    /// the 64-bit fingerprint). The format is part of the on-disk
    /// cache-key scheme — change it only alongside an engine-version
    /// bump in the consumer.
    ///
    /// # Examples
    ///
    /// ```
    /// use bpred_workloads::{suite, WorkloadSource};
    ///
    /// let a = WorkloadSource::new(suite::espresso().scaled(1_000), 7);
    /// let b = WorkloadSource::new(suite::espresso().scaled(1_000), 7);
    /// assert_eq!(a.cache_id(), b.cache_id());
    /// let c = WorkloadSource::new(suite::espresso().scaled(1_000), 8);
    /// assert_ne!(a.cache_id(), c.cache_id());
    /// ```
    pub fn cache_id(&self) -> String {
        format!(
            "workload:{}@{:016x}/s{}/n{}/j{}",
            self.model.name(),
            self.model.fingerprint(),
            self.seed,
            self.conditionals,
            self.model.jump_fraction(),
        )
    }
}

impl TraceSource for WorkloadSource {
    fn stream(&self) -> Box<dyn Iterator<Item = BranchRecord> + '_> {
        Box::new(self.model.stream_of_length(self.seed, self.conditionals))
    }

    fn chunks(&self, chunk_len: usize) -> Box<dyn Iterator<Item = TraceChunk> + '_> {
        assert!(chunk_len > 0, "chunk length must be positive");
        // One generator pass per chunk sequence; each chunk is filled
        // through the monomorphized `TraceStream::fill_chunk` loop
        // rather than the boxed record stream.
        let mut stream = self.model.stream_of_length(self.seed, self.conditionals);
        Box::new(std::iter::from_fn(move || {
            let mut chunk = TraceChunk::with_capacity(chunk_len);
            stream.fill_chunk(&mut chunk, chunk_len);
            (!chunk.is_empty()).then_some(chunk)
        }))
    }

    fn chunk_feeder(&self) -> Box<dyn ChunkFeeder + '_> {
        // One generator pass, refilling the caller's buffer through the
        // monomorphized `TraceStream::fill_chunk` loop.
        struct GeneratorFeeder<'a>(TraceStream<'a>);
        impl ChunkFeeder for GeneratorFeeder<'_> {
            fn refill(&mut self, chunk: &mut TraceChunk, max: usize) -> usize {
                chunk.clear();
                self.0.fill_chunk(chunk, max)
            }
        }
        Box::new(GeneratorFeeder(
            self.model.stream_of_length(self.seed, self.conditionals),
        ))
    }
}

/// Groups branches (already in descending weight order) into basic
/// blocks of 1–5 members, moving any loop-behaviour branch to the end
/// of its block as the latch, and chains blocks into preferred
/// successor cycles of 3–8 blocks.
fn build_blocks(branches: &[StaticBranch], rng: &mut SmallRng) -> Vec<BasicBlock> {
    let mut blocks: Vec<BasicBlock> = Vec::new();
    let mut i = 0usize;
    while i < branches.len() {
        let size = rng.gen_range(1..=5usize).min(branches.len() - i);
        let mut members: Vec<usize> = (i..i + size).collect();
        // Move the first loop-shaped member (if any) to the end: it
        // becomes the block's loop latch, so the block body repeats
        // like a real loop (the source of the paper's all-ones
        // patterns and of first-level-table locality).
        if let Some(pos) = members
            .iter()
            .position(|&m| branches[m].behavior.is_loop_shaped())
        {
            let latch = members.remove(pos);
            members.push(latch);
        }
        let latch = branches[*members.last().expect("non-empty block")]
            .behavior
            .is_loop_shaped();
        blocks.push(BasicBlock {
            members,
            latch,
            successor: 0,
        });
        i += size;
    }
    // Chain blocks into successor cycles of 3-8 blocks of similar
    // *sampler* weight (mean member weight over latch repeats). Chain
    // mates inherit each other's visit rate through the coherence
    // walk, so grouping by raw branch weight instead would let a
    // high-trip-count loop block ride its neighbours' visit rate and
    // emit trip_count times more instances than its coverage bucket
    // allows, concentrating the measured coverage head well below the
    // Table 2 calibration.
    let mut order: Vec<usize> = (0..blocks.len()).collect();
    let sampler_weight: Vec<f64> = blocks
        .iter()
        .map(|b| block_sampler_weight(branches, b))
        .collect();
    order.sort_by(|&a, &b| {
        sampler_weight[b]
            .partial_cmp(&sampler_weight[a])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    let mut start = 0usize;
    while start < order.len() {
        let len = rng.gen_range(3..=8usize).min(order.len() - start);
        for offset in 0..len {
            blocks[order[start + offset]].successor = order[start + (offset + 1) % len];
        }
        start += len;
    }
    blocks
}

/// Per-block selection weight: mean member weight, divided by the
/// expected executions per visit (the latch trip count for loop
/// blocks) so realised branch frequencies track their targets.
fn block_sampler_weight(branches: &[StaticBranch], block: &BasicBlock) -> f64 {
    let mean: f64 = block
        .members
        .iter()
        .map(|&m| branches[m].weight)
        .sum::<f64>()
        / block.members.len() as f64;
    let repeats = if block.latch {
        match branches[*block.members.last().expect("non-empty")].behavior {
            BranchBehavior::Loop { trip_count } => f64::from(trip_count.max(1)),
            _ => 1.0,
        }
    } else {
        1.0
    };
    mean / repeats
}

/// Per-block selection weights for the whole program; see
/// [`block_sampler_weight`].
fn block_weights(branches: &[StaticBranch], blocks: &[BasicBlock]) -> Vec<f64> {
    blocks
        .iter()
        .map(|block| block_sampler_weight(branches, block))
        .collect()
}

/// Derives the deterministic structure seed from a benchmark name.
fn structure_seed(name: &str) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    for byte in name.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    mix64(h)
}

/// Samples one behaviour according to a mix.
fn sample_behavior(
    mix: &BehaviorMix,
    bias: &BiasRange,
    spec: &BenchmarkSpec,
    rng: &mut SmallRng,
) -> BranchBehavior {
    let tuning = &spec.tuning;
    let t = mix.thresholds();
    let draw: f64 = rng.gen();
    if draw < t[0] {
        BranchBehavior::Biased {
            taken_prob: rng.gen_range(bias.low..=bias.high),
        }
    } else if draw < t[1] {
        BranchBehavior::Biased {
            taken_prob: 1.0 - rng.gen_range(bias.low..=bias.high),
        }
    } else if draw < t[2] {
        BranchBehavior::Loop {
            trip_count: if rng.gen::<f64>() < tuning.loop_long_fraction {
                rng.gen_range(tuning.loop_short_max.max(2)..=tuning.loop_long_max)
            } else {
                rng.gen_range(2..=tuning.loop_short_max)
            },
        }
    } else if draw < t[3] {
        let length = rng.gen_range(tuning.pattern_min_bits..=tuning.pattern_max_bits);
        BranchBehavior::Pattern {
            bits: rng.gen::<u64>() & ((1 << length) - 1),
            length,
        }
    } else {
        // Draw the function from the shared pool (if bounded) so
        // branches testing "the same condition" train counters
        // compatibly; the taken-weight is quantised with the seed so
        // pool-mates share it too.
        let (seed, taken_weight) = if tuning.correlated_pool > 0 {
            let member = rng.gen_range(0..tuning.correlated_pool);
            let seed = mix64(0xC0_44E1 ^ u64::from(member));
            let span = tuning.correlated_taken_high - tuning.correlated_taken_low;
            let weight = tuning.correlated_taken_low
                + span * (member as f64 + 0.5) / f64::from(tuning.correlated_pool);
            (seed, weight)
        } else {
            (
                rng.gen(),
                rng.gen_range(tuning.correlated_taken_low..=tuning.correlated_taken_high),
            )
        };
        BranchBehavior::Correlated {
            seed,
            history_bits: spec.correlation_bits,
            noise: spec.correlation_noise,
            taken_weight,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use bpred_trace::stats::TraceStats;

    #[test]
    fn structure_is_deterministic() {
        let a = WorkloadModel::from_spec(&suite::espresso_spec());
        let b = WorkloadModel::from_spec(&suite::espresso_spec());
        assert_eq!(a.branches(), b.branches());
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn different_names_give_different_structures() {
        let a = suite::espresso();
        let b = suite::mpeg_play();
        assert_ne!(a.branches().first(), b.branches().first());
    }

    #[test]
    fn trace_length_is_exact() {
        let model = suite::espresso().scaled(5_000);
        let t = model.trace(3);
        assert_eq!(t.conditional_len(), 5_000);
        assert!(t.len() >= 5_000);
    }

    #[test]
    fn traces_are_reproducible() {
        let model = suite::sdet().scaled(2_000);
        assert_eq!(model.trace(9), model.trace(9));
        assert_ne!(model.trace(9), model.trace(10));
    }

    #[test]
    fn coverage_calibration_holds_in_generated_traces() {
        // The defining property of the substitution: the synthetic
        // trace's coverage statistics match the spec's targets.
        let spec = suite::espresso_spec();
        let model = WorkloadModel::from_spec(&spec).scaled(300_000);
        let stats = TraceStats::measure(&model.trace(1));
        let n50 = stats.static_for_fraction(0.5);
        let n90 = stats.static_for_fraction(0.9);
        let want50 = spec.coverage.first_50;
        let want90 = spec.coverage.first_50 + spec.coverage.next_40;
        assert!(
            (n50 as f64) < 2.5 * want50 as f64 && n50 >= want50 / 3,
            "50% coverage: got {n50}, want ~{want50}"
        );
        assert!(
            (n90 as f64) < 2.0 * want90 as f64 && n90 >= want90 / 3,
            "90% coverage: got {n90}, want ~{want90}"
        );
    }

    #[test]
    fn jump_fraction_controls_non_conditionals() {
        let model = suite::espresso().scaled(20_000).with_jump_fraction(0.25);
        let t = model.trace(4);
        let jumps = t.len() - t.conditional_len();
        let rate = jumps as f64 / 20_000.0;
        assert!((rate - 0.25).abs() < 0.02, "{rate}");

        let none = suite::espresso().scaled(1_000).with_jump_fraction(0.0);
        let t = none.trace(4);
        assert_eq!(t.len(), t.conditional_len());
    }

    #[test]
    fn branch_addresses_match_materialised_program() {
        let model = suite::verilog().scaled(10_000);
        let valid: std::collections::HashSet<u64> = model.branches().iter().map(|b| b.pc).collect();
        for r in model.trace(5).iter().filter(|r| r.is_conditional()) {
            assert!(valid.contains(&r.pc));
        }
    }

    #[test]
    fn weights_sum_to_one() {
        let model = suite::groff();
        let sum: f64 = model.branches().iter().map(|b| b.weight).sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn taken_rate_is_realistic() {
        // Real integer code is taken roughly 50-80% of the time.
        let t = suite::espresso().scaled(100_000).trace(2);
        let rate = t.taken_rate().unwrap();
        assert!((0.4..0.9).contains(&rate), "taken rate {rate}");
    }

    #[test]
    fn blocks_partition_the_branches() {
        let model = suite::nroff();
        let mut seen = vec![false; model.branches().len()];
        for block in &model.blocks {
            for &m in &block.members {
                assert!(!seen[m], "branch {m} in two blocks");
                seen[m] = true;
            }
            assert!(block.successor < model.blocks.len());
        }
        assert!(seen.iter().all(|&s| s));
    }

    #[test]
    fn latch_blocks_end_with_loops() {
        let model = suite::mpeg_play();
        for block in model.blocks.iter().filter(|b| b.latch) {
            let last = *block.members.last().unwrap();
            assert!(model.branches()[last].behavior.is_loop_shaped());
        }
    }

    #[test]
    fn loops_create_consecutive_runs() {
        // Loop latches repeating their block give the trace temporal
        // locality: the same pc must appear in runs far more often
        // than under i.i.d. sampling over thousands of branches.
        let t = suite::real_gcc().scaled(50_000).trace(3);
        let records: Vec<_> = t.iter().filter(|r| r.is_conditional()).collect();
        let mut near_repeats = 0usize;
        for w in records.windows(12) {
            if w[1..].iter().any(|r| r.pc == w[0].pc) {
                near_repeats += 1;
            }
        }
        let rate = near_repeats as f64 / records.len() as f64;
        assert!(rate > 0.3, "near-repeat rate {rate} too low for real code");
    }

    #[test]
    fn structure_seed_differs_by_name() {
        assert_ne!(structure_seed("espresso"), structure_seed("mpeg_play"));
        assert_eq!(structure_seed("gs"), structure_seed("gs"));
    }

    #[test]
    fn fingerprint_is_spec_identity() {
        assert_eq!(
            suite::espresso().fingerprint(),
            suite::espresso().fingerprint()
        );
        assert_ne!(
            suite::espresso().fingerprint(),
            suite::mpeg_play().fingerprint()
        );
        // Post-materialisation knobs leave the fingerprint alone; the
        // cache id carries them instead.
        let model = suite::espresso();
        let scaled = model.clone().scaled(123);
        assert_eq!(model.fingerprint(), scaled.fingerprint());
        assert_ne!(
            WorkloadSource::new(model, 1).cache_id(),
            WorkloadSource::new(scaled, 1).cache_id()
        );
    }

    #[test]
    fn chunked_generation_is_bit_identical_to_the_stream() {
        let source = WorkloadSource::new(suite::mpeg_play().scaled(3_000), 13);
        let streamed: Vec<_> = source.stream().collect();
        for chunk_len in [1, 7, 1024, streamed.len(), streamed.len() + 9] {
            let chunked: Vec<_> = source
                .chunks(chunk_len)
                .flat_map(|chunk| chunk.iter().collect::<Vec<_>>())
                .collect();
            assert_eq!(chunked, streamed, "chunk_len {chunk_len}");
        }
        // Chunk sequences restart like streams do.
        let again: Vec<_> = source
            .chunks(512)
            .flat_map(|chunk| chunk.iter().collect::<Vec<_>>())
            .collect();
        assert_eq!(again, streamed);
    }

    #[test]
    fn sources_sharing_one_model_match_owned_sources() {
        let shared = Arc::new(suite::espresso().scaled(2_000));
        let a = WorkloadSource::new(Arc::clone(&shared), 5);
        let b = WorkloadSource::with_length(Arc::clone(&shared), 6, 1_500);
        let owned_a = WorkloadSource::new(suite::espresso().scaled(2_000), 5);
        let owned_b = WorkloadSource::with_length(suite::espresso(), 6, 1_500);
        assert!(std::ptr::eq(a.model(), b.model()));
        assert_eq!(a.cache_id(), owned_a.cache_id());
        assert_eq!(b.cache_id(), owned_b.cache_id());
        assert_eq!(a.collect_trace(), owned_a.collect_trace());
        assert_eq!(b.collect_trace(), owned_b.collect_trace());
    }

    #[test]
    fn cache_id_tracks_every_stream_knob() {
        let base = || WorkloadSource::new(suite::sdet().scaled(500), 3);
        assert_eq!(base().cache_id(), base().cache_id());
        let longer = WorkloadSource::with_length(suite::sdet(), 3, 501);
        assert_ne!(base().cache_id(), longer.cache_id());
        let jumpy = WorkloadSource::new(suite::sdet().scaled(500).with_jump_fraction(0.3), 3);
        assert_ne!(base().cache_id(), jumpy.cache_id());
    }
}
