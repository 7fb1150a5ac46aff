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
//!
//! Each block is a run of 1–5 consecutive branches of the
//! heaviest-first order, its loop latch (if any) moved last, so blocks
//! are stored in compressed-sparse-row form over the step table itself
//! (below): the table is kept in execution order, block `b` executes
//! `steps[b.start..b.end]`, and no block owns an allocation or needs a
//! member-index array.
//!
//! # The compiled program
//!
//! Every record of every sweep comes out of this generator, so the
//! model is stored in the form the generation step reads, built once
//! at [`from_spec`](WorkloadModel::from_spec):
//!
//! * a flat *step table*, one `Step` per static branch in execution
//!   order: pc, target, and the behaviour compiled to a `Rule` whose
//!   probabilities are exact 53-bit integer thresholds (see
//!   [`sampling`](crate::sampling));
//! * one 16-byte `Block` per block: its `start..end` run of the step
//!   table, its preferred successor, and whether its last member is a
//!   loop latch;
//! * the block sampler as an [`AliasTable`] of integer thresholds, and
//!   the jump and sequence-coherence probabilities as thresholds.
//!
//! One function, `TraceStream::step`, generates a conditional record
//! (and the jump that may follow it) from those tables; the record
//! iterator, [`TraceStream::fill_chunk`], and
//! [`WorkloadModel::trace_of_length`] all run through it, so every
//! path emits the same records from the same RNG draws in the same
//! order.

use std::sync::Arc;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bpred_trace::{BranchKind, BranchRecord, ChunkFeeder, Outcome, Trace, TraceChunk, TraceSource};

use crate::behavior::{mix64, BranchBehavior, Rule};
use crate::layout::TextLayout;
use crate::sampling::{draw_below, threshold, AliasTable};
use crate::spec::{BehaviorMix, BenchmarkSpec, BiasRange, PaperReference};
use crate::weights::bucket_weights;

/// One static branch of a materialised synthetic program, as
/// [`WorkloadModel::branches`] reports it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StaticBranch {
    /// Branch instruction address (4-byte aligned).
    pub pc: u64,
    /// Taken-target address.
    pub target: u64,
    /// Resolution behaviour, with probabilities as the exact 53-bit
    /// thresholds the generator compares draws against.
    pub behavior: BranchBehavior,
}

/// [`threshold`] of the probability 0.5 that a jump is a call.
const CALL_THRESHOLD: u64 = 1 << 52;

/// One entry of the step table: everything the generation step reads
/// about a static branch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Step {
    pc: u64,
    target: u64,
    rule: Rule,
}

/// A basic block: the run `steps[start..end]` of the step table,
/// executed in order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Block {
    start: u32,
    end: u32,
    /// Preferred successor block.
    successor: u32,
    /// Whether the final member is a loop latch that repeats the block
    /// while taken.
    latch: bool,
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
    /// One step per static branch, in block order (see the module
    /// docs).
    steps: Vec<Step>,
    blocks: Vec<Block>,
    block_sampler: AliasTable,
    jump_targets: Vec<u64>,
    dynamic_branches: usize,
    jump_fraction: f64,
    /// [`threshold`] of `jump_fraction`.
    jump_threshold: u64,
    /// [`threshold`] of the spec's sequence coherence.
    coherence_threshold: u64,
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
        let mut weights = bucket_weights(&spec.coverage);
        let layout = TextLayout::generate(weights.len(), &mut rng);
        let hot_cutoff = spec.coverage.first_50 + spec.coverage.next_40;

        let mut steps = Vec::with_capacity(weights.len());
        for i in 0..weights.len() {
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
            steps.push(Step {
                pc,
                target,
                rule: Rule::compile(behavior),
            });
        }

        let (blocks, sampler_weights) = build_blocks(&mut steps, &mut weights, &mut rng);

        WorkloadModel {
            name: spec.name.clone(),
            block_sampler: AliasTable::new(&sampler_weights),
            blocks,
            jump_targets: layout.function_entries().to_vec(),
            steps,
            dynamic_branches: spec.dynamic_branches,
            jump_fraction: spec.jump_fraction,
            jump_threshold: threshold(spec.jump_fraction),
            coherence_threshold: threshold(spec.sequence_coherence),
            paper: spec.paper,
            fingerprint: bpred_trace::fnv::fnv64(spec.canonical_string().as_bytes()),
        }
    }

    /// The benchmark name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The materialised static branches, read back from the compiled
    /// step table in its order: heaviest first, except that a block's
    /// loop latch follows the rest of its block.
    pub fn branches(&self) -> impl ExactSizeIterator<Item = StaticBranch> + '_ {
        self.steps.iter().map(|step| StaticBranch {
            pc: step.pc,
            target: step.target,
            behavior: step.rule.behavior(),
        })
    }

    /// Number of static branches.
    pub fn static_branches(&self) -> usize {
        self.steps.len()
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
        self.jump_threshold = threshold(jump_fraction);
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
    /// Equivalent to collecting
    /// [`stream_of_length`](Self::stream_of_length) — the stream *is*
    /// the generator, and this runs its one generation step.
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
        let block = self.blocks[self.block_sampler.sample(&mut rng)];
        TraceStream {
            model: self,
            rng,
            phases: vec![0; self.steps.len()],
            global_history: 0,
            block,
            pos: block.start as usize,
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
    /// Loop/pattern position of every static branch.
    phases: Vec<u32>,
    global_history: u64,
    /// The block being executed.
    block: Block,
    /// Index into the step table of the next branch to execute.
    pos: usize,
    emitted: usize,
    conditionals: usize,
    /// Jump record generated alongside the previous conditional,
    /// awaiting emission.
    pending: Option<BranchRecord>,
}

impl TraceStream<'_> {
    /// The generation step: resolves the next conditional branch and
    /// returns it with the jump record that follows it, if any, then
    /// advances to the next member — the next in the block, the
    /// block's first again while its latch stays taken, or the first
    /// of the next block. RNG draws, in order: the behaviour's draw
    /// (if any), the jump draws, the block-transition draws.
    ///
    /// The caller checks `emitted < conditionals` first.
    #[inline(always)]
    fn step(&mut self) -> (BranchRecord, Option<BranchRecord>) {
        let model = self.model;
        let step = model.steps[self.pos];
        let taken = step.rule.resolve(
            &mut self.phases[self.pos],
            self.global_history,
            &mut self.rng,
        );
        self.emitted += 1;
        self.global_history = (self.global_history << 1) | u64::from(taken);
        let record = BranchRecord::conditional(step.pc, step.target, Outcome::from(taken));

        let jump = (model.jump_threshold > 0 && draw_below(&mut self.rng, model.jump_threshold))
            .then(|| {
                let entry = model.jump_targets[self.rng.gen_range(0..model.jump_targets.len())];
                let kind = if draw_below(&mut self.rng, CALL_THRESHOLD) {
                    BranchKind::Call
                } else {
                    BranchKind::Unconditional
                };
                BranchRecord::new(step.pc + 4, entry, kind, Outcome::Taken)
            });

        self.pos += 1;
        if self.pos == self.block.end as usize {
            if !(self.block.latch && taken) {
                // Follow the preferred successor or re-sample by weight.
                let next = if draw_below(&mut self.rng, model.coherence_threshold) {
                    self.block.successor as usize
                } else {
                    model.block_sampler.sample(&mut self.rng)
                };
                self.block = model.blocks[next];
            }
            self.pos = self.block.start as usize;
        }
        (record, jump)
    }

    /// Generates up to `max` records straight into `chunk`'s
    /// structure-of-arrays storage, returning how many were emitted.
    ///
    /// This is the generator's chunk-fill path: each generation step's
    /// records are appended field by field, with no per-record iterator
    /// call. The emitted sequence is exactly what
    /// [`next`](Iterator::next) would yield — a jump that does not fit
    /// waits for the next fill, so chunking never perturbs the RNG draw
    /// order.
    pub fn fill_chunk(&mut self, chunk: &mut TraceChunk, max: usize) -> usize {
        let mut filled = 0;
        if max > 0 {
            if let Some(jump) = self.pending.take() {
                chunk.append(jump.pc, jump.target, jump.kind, jump.outcome);
                filled = 1;
            }
        }
        while filled < max && self.emitted < self.conditionals {
            let (record, jump) = self.step();
            chunk.append(record.pc, record.target, record.kind, record.outcome);
            filled += 1;
            if let Some(jump) = jump {
                if filled < max {
                    chunk.append(jump.pc, jump.target, jump.kind, jump.outcome);
                    filled += 1;
                } else {
                    self.pending = Some(jump);
                }
            }
        }
        filled
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
        let (record, jump) = self.step();
        self.pending = jump;
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
/// blocks of 1–5 consecutive branches, moving any loop-behaviour
/// branch to the end of its block as the latch, and chains blocks into
/// preferred successor cycles of 3–8 blocks.
///
/// The latch moves happen in `steps` and `weights` themselves, which
/// leaves the step table in execution order: block `b` runs
/// `steps[b.start..b.end]`. Returns the blocks and each block's
/// sampler weight (see [`block_sampler_weight`]).
fn build_blocks(
    steps: &mut [Step],
    weights: &mut [f64],
    rng: &mut SmallRng,
) -> (Vec<Block>, Vec<f64>) {
    let n = steps.len();
    assert!(
        u32::try_from(n).is_ok(),
        "static branch count must fit in u32"
    );
    // At most one block per branch; trimmed to size below.
    let mut blocks: Vec<Block> = Vec::with_capacity(n);
    let mut start = 0usize;
    while start < n {
        let end = start + rng.gen_range(1..=5usize).min(n - start);
        // Move the first loop-shaped member (if any) to the end: it
        // becomes the block's loop latch, so the block body repeats
        // like a real loop (the source of the paper's all-ones
        // patterns and of first-level-table locality).
        if let Some(pos) = steps[start..end].iter().position(|s| s.rule.is_loop()) {
            steps[start + pos..end].rotate_left(1);
            weights[start + pos..end].rotate_left(1);
        }
        blocks.push(Block {
            start: start as u32,
            end: end as u32,
            successor: 0,
            latch: steps[end - 1].rule.is_loop(),
        });
        start = end;
    }
    blocks.shrink_to_fit();
    // Chain blocks into successor cycles of 3-8 blocks of similar
    // *sampler* weight (mean member weight over latch repeats). Chain
    // mates inherit each other's visit rate through the coherence
    // walk, so grouping by raw branch weight instead would let a
    // high-trip-count loop block ride its neighbours' visit rate and
    // emit trip_count times more instances than its coverage bucket
    // allows, concentrating the measured coverage head well below the
    // Table 2 calibration.
    let sampler_weights: Vec<f64> = blocks
        .iter()
        .map(|b| block_sampler_weight(steps, weights, b))
        .collect();
    let mut order: Vec<u32> = (0..blocks.len() as u32).collect();
    order.sort_by(|&a, &b| {
        sampler_weights[b as usize]
            .partial_cmp(&sampler_weights[a as usize])
            .expect("finite weights")
            .then(a.cmp(&b))
    });
    let mut start = 0usize;
    while start < order.len() {
        let len = rng.gen_range(3..=8usize).min(order.len() - start);
        for offset in 0..len {
            blocks[order[start + offset] as usize].successor = order[start + (offset + 1) % len];
        }
        start += len;
    }
    (blocks, sampler_weights)
}

/// Per-block selection weight: mean member weight, divided by the
/// expected executions per visit (the latch trip count for loop
/// blocks) so realised branch frequencies track their targets.
fn block_sampler_weight(steps: &[Step], weights: &[f64], block: &Block) -> f64 {
    let (start, end) = (block.start as usize, block.end as usize);
    let mean: f64 = weights[start..end].iter().sum::<f64>() / (end - start) as f64;
    let repeats = match steps[end - 1].rule {
        Rule::Loop { period } if block.latch => f64::from(period),
        _ => 1.0,
    };
    mean / repeats
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
        assert!(a.branches().eq(b.branches()));
        assert_eq!(a.steps, b.steps);
        assert_eq!(a.blocks, b.blocks);
    }

    #[test]
    fn different_names_give_different_structures() {
        let a = suite::espresso();
        let b = suite::mpeg_play();
        assert_ne!(a.branches().next(), b.branches().next());
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
        let valid: std::collections::HashSet<u64> = model.branches().map(|b| b.pc).collect();
        for r in model.trace(5).iter().filter(|r| r.is_conditional()) {
            assert!(valid.contains(&r.pc));
        }
    }

    #[test]
    fn weights_sum_to_one() {
        // The branch weights a model is materialised from.
        let sum: f64 = bucket_weights(&suite::groff_spec().coverage).iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn step_table_entries_stay_compact() {
        // Every record reads one step; a 48-byte entry keeps the
        // largest program's table (15,351 branches) in L2.
        assert!(std::mem::size_of::<Step>() <= 48);
        assert!(std::mem::size_of::<Block>() <= 16);
    }

    #[test]
    fn call_threshold_is_one_half() {
        assert_eq!(CALL_THRESHOLD, threshold(0.5));
    }

    #[test]
    fn read_back_branches_compile_to_the_step_table() {
        let model = suite::real_gcc();
        assert_eq!(model.branches().len(), model.static_branches());
        for (branch, step) in model.branches().zip(&model.steps) {
            assert_eq!((branch.pc, branch.target), (step.pc, step.target));
            assert_eq!(Rule::compile(branch.behavior), step.rule);
        }
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
        let mut seen = vec![false; model.static_branches()];
        let mut next_start = 0;
        for block in &model.blocks {
            // Consecutive, non-empty runs of the step table.
            assert_eq!(block.start, next_start);
            assert!(block.start < block.end);
            next_start = block.end;
            for (m, seen) in seen[block.start as usize..block.end as usize]
                .iter_mut()
                .enumerate()
            {
                assert!(!*seen, "branch {m} of block {block:?} in two blocks");
                *seen = true;
            }
            assert!((block.successor as usize) < model.blocks.len());
        }
        assert_eq!(next_start as usize, model.steps.len());
        assert!(seen.iter().all(|&s| s));
        assert_eq!(model.block_sampler.len(), model.blocks.len());
    }

    #[test]
    fn latch_blocks_end_with_loops() {
        let model = suite::mpeg_play();
        for block in model.blocks.iter().filter(|b| b.latch) {
            assert!(model.steps[block.end as usize - 1].rule.is_loop());
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
