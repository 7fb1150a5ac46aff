//! Control-flow-graph program workloads.
//!
//! The statistical models in [`crate::suites`] are calibrated to the
//! paper's published numbers; this module complements them with a
//! *structural* workload: a randomly generated program of functions,
//! basic blocks, loops, and if/else tests over shared boolean
//! variables, executed block by block. Branch correlation arises here
//! the way it does in real code — two branches test the same variable,
//! or a loop guard implies the tests inside the loop body — rather
//! than being injected as an explicit history function. `tracegen cfg`
//! writes its trace to a file, and it is a structural reference to
//! hold the statistical generator's correlation against.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bpred_trace::{BranchKind, BranchRecord, Outcome, Trace};

use crate::behavior::mix64;
use crate::layout::TEXT_BASE;

/// Identifies a basic block within a [`CfgProgram`].
pub type BlockId = usize;

/// A runtime condition tested by a conditional branch.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Condition {
    /// Taken when boolean variable `v` is true.
    Var(u8),
    /// Taken when boolean variable `v` is false.
    NotVar(u8),
    /// Loop back-edge: taken while the block's iteration counter is
    /// below `limit`, then resets (a `limit + 1`-trip loop latch).
    Loop {
        /// Iterations before the loop exits.
        limit: u8,
    },
    /// Taken with fixed probability (data-dependent noise).
    Chance(f64),
}

/// A side effect executed when control enters a block.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Effect {
    /// Sets variable `var` to a fresh random value, true with
    /// probability `p`.
    SetRandom {
        /// Variable index.
        var: u8,
        /// Probability the new value is true.
        p: f64,
    },
    /// Inverts variable `var`.
    Toggle {
        /// Variable index.
        var: u8,
    },
    /// Copies variable `from` into variable `to` — the source of
    /// inter-branch correlation.
    Copy {
        /// Destination variable.
        to: u8,
        /// Source variable.
        from: u8,
    },
}

/// How a basic block transfers control.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Terminator {
    /// Conditional branch: to `taken` when `cond` holds, else `fall`.
    Cond {
        /// Tested condition.
        cond: Condition,
        /// Block reached when taken.
        taken: BlockId,
        /// Fall-through block.
        fall: BlockId,
    },
    /// Unconditional jump.
    Jump {
        /// Destination block.
        to: BlockId,
    },
    /// Call `callee`, resuming at `resume` on return.
    Call {
        /// First block of the called function.
        callee: BlockId,
        /// Block executed after the call returns.
        resume: BlockId,
    },
    /// Return to the caller.
    Return,
    /// Program exit (the executor restarts from the entry).
    Exit,
}

/// One basic block: an optional variable effect plus a terminator at a
/// fixed instruction address.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Block {
    /// Address of the block's terminating control transfer.
    pub pc: u64,
    /// Effect applied when the block executes.
    pub effect: Option<Effect>,
    /// Control transfer out of the block.
    pub terminator: Terminator,
}

/// Generation parameters for [`CfgProgram::generate`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CfgConfig {
    /// Number of functions.
    pub functions: usize,
    /// Basic blocks per function (uniform in this inclusive range).
    pub min_blocks: usize,
    /// Upper bound of blocks per function.
    pub max_blocks: usize,
    /// Number of shared boolean variables.
    pub variables: u8,
    /// Fraction of conditional branches that are loop latches.
    pub loop_fraction: f64,
    /// Fraction of blocks that call another function.
    pub call_fraction: f64,
}

impl Default for CfgConfig {
    /// A mid-sized program: 40 functions of 6–20 blocks over 16
    /// variables.
    fn default() -> Self {
        CfgConfig {
            functions: 40,
            min_blocks: 6,
            max_blocks: 20,
            variables: 16,
            loop_fraction: 0.3,
            call_fraction: 0.15,
        }
    }
}

/// A generated program: blocks, function entries, and an entry point.
///
/// # Examples
///
/// ```
/// use bpred_workloads::{CfgConfig, CfgProgram};
///
/// let program = CfgProgram::generate(CfgConfig::default(), 7);
/// let trace = program.trace(1, 10_000);
/// assert_eq!(trace.conditional_len(), 10_000);
/// ```
#[derive(Debug, Clone)]
pub struct CfgProgram {
    blocks: Vec<Block>,
    entries: Vec<BlockId>,
    variables: u8,
}

impl CfgProgram {
    /// Generates a random program. Structure is deterministic in
    /// `(config, seed)`.
    ///
    /// # Panics
    ///
    /// Panics if `config` has no functions, no variables, a malformed
    /// block range, or out-of-range fractions.
    pub fn generate(config: CfgConfig, seed: u64) -> Self {
        assert!(config.functions > 0, "program needs at least one function");
        assert!(config.variables > 0, "program needs at least one variable");
        assert!(
            config.min_blocks >= 2 && config.min_blocks <= config.max_blocks,
            "block range must be 2..=max"
        );
        assert!((0.0..=1.0).contains(&config.loop_fraction));
        assert!((0.0..=1.0).contains(&config.call_fraction));

        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0xCF6_F00D));
        let mut blocks: Vec<Block> = Vec::new();
        let mut entries: Vec<BlockId> = Vec::new();
        let mut pc = TEXT_BASE;

        // First pass: lay out functions; calls are patched afterwards so
        // any function may call any other.
        for _ in 0..config.functions {
            let n = rng.gen_range(config.min_blocks..=config.max_blocks);
            let base = blocks.len();
            entries.push(base);
            for i in 0..n {
                let effect =
                    (rng.gen::<f64>() < 0.6).then(|| random_effect(&mut rng, config.variables));
                let last = i == n - 1;
                let terminator = if last {
                    Terminator::Return
                } else if rng.gen::<f64>() < config.call_fraction {
                    Terminator::Call {
                        callee: usize::MAX, // patched below
                        resume: base + i + 1,
                    }
                } else if rng.gen::<f64>() < config.loop_fraction {
                    // Loop latch back to an earlier block of this function.
                    let back = rng.gen_range(base..=base + i);
                    Terminator::Cond {
                        cond: Condition::Loop {
                            limit: rng.gen_range(1..=15),
                        },
                        taken: back,
                        fall: base + i + 1,
                    }
                } else if rng.gen::<f64>() < 0.85 {
                    // Forward if: skip ahead within the function.
                    let skip = rng.gen_range(base + i + 1..base + n);
                    let var = rng.gen_range(0..config.variables);
                    let cond = match rng.gen_range(0..3u8) {
                        0 => Condition::Var(var),
                        1 => Condition::NotVar(var),
                        _ => Condition::Chance(rng.gen_range(0.02..0.98)),
                    };
                    Terminator::Cond {
                        cond,
                        taken: skip,
                        fall: base + i + 1,
                    }
                } else {
                    Terminator::Jump {
                        to: base + rng.gen_range(i + 1..n),
                    }
                };
                blocks.push(Block {
                    pc,
                    effect,
                    terminator,
                });
                pc += 4 * rng.gen_range(3..12u64);
            }
            pc += 4 * rng.gen_range(8..40u64);
        }

        // Patch call targets now that every entry exists.
        let function_count = entries.len();
        for block in &mut blocks {
            if let Terminator::Call { callee, .. } = &mut block.terminator {
                *callee = entries[rng.gen_range(0..function_count)];
            }
        }
        // Liveness: every function must emit at least one conditional
        // per visit, or an unlucky all-jump/all-call program would let
        // the executor spin forever without producing a predictable
        // branch. Functions that came out conditional-free get their
        // entry block rewritten into a data-dependent if.
        for (f, &entry) in entries.iter().enumerate() {
            let end = if f + 1 < function_count {
                entries[f + 1]
            } else {
                blocks.len()
            };
            let has_conditional = blocks[entry..end]
                .iter()
                .any(|b| matches!(b.terminator, Terminator::Cond { .. }));
            if !has_conditional {
                let skip = rng.gen_range(entry + 1..end);
                blocks[entry].terminator = Terminator::Cond {
                    cond: Condition::Chance(rng.gen_range(0.1..0.9)),
                    taken: skip,
                    fall: entry + 1,
                };
            }
        }
        // main() is function 0; its final Return becomes Exit.
        let main_entry = entries[0];
        let main_len = if function_count > 1 {
            entries[1] - main_entry
        } else {
            blocks.len()
        };
        blocks[main_entry + main_len - 1].terminator = Terminator::Exit;

        CfgProgram {
            blocks,
            entries,
            variables: config.variables,
        }
    }

    /// The program's basic blocks.
    pub fn blocks(&self) -> &[Block] {
        &self.blocks
    }

    /// Function entry block ids.
    pub fn entries(&self) -> &[BlockId] {
        &self.entries
    }

    /// Number of static conditional branches in the program.
    pub fn static_conditionals(&self) -> usize {
        self.blocks
            .iter()
            .filter(|b| matches!(b.terminator, Terminator::Cond { .. }))
            .count()
    }

    /// Executes the program until `conditionals` conditional branches
    /// have been emitted, restarting from the entry whenever the
    /// program exits. Deterministic in `(program, seed)`.
    pub fn trace(&self, seed: u64, conditionals: usize) -> Trace {
        const MAX_CALL_DEPTH: usize = 24;
        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0x7ACE_5EED));
        let mut vars = vec![false; usize::from(self.variables)];
        let mut loop_counters = vec![0u8; self.blocks.len()];
        let mut stack: Vec<BlockId> = Vec::new();
        let mut trace = Trace::with_capacity(conditionals * 2);
        let mut current = self.entries[0];
        let mut emitted = 0usize;

        while emitted < conditionals {
            let block = self.blocks[current];
            if let Some(effect) = block.effect {
                apply_effect(effect, &mut vars, &mut rng);
            }
            match block.terminator {
                Terminator::Cond { cond, taken, fall } => {
                    let outcome = self.evaluate(cond, current, &vars, &mut loop_counters, &mut rng);
                    trace.push(BranchRecord::conditional(
                        block.pc,
                        self.blocks[taken].pc,
                        outcome,
                    ));
                    emitted += 1;
                    current = if outcome.is_taken() { taken } else { fall };
                }
                Terminator::Jump { to } => {
                    trace.push(BranchRecord::jump(block.pc, self.blocks[to].pc));
                    current = to;
                }
                Terminator::Call { callee, resume } => {
                    if stack.len() < MAX_CALL_DEPTH {
                        trace.push(BranchRecord::new(
                            block.pc,
                            self.blocks[callee].pc,
                            BranchKind::Call,
                            Outcome::Taken,
                        ));
                        stack.push(resume);
                        current = callee;
                    } else {
                        // Too deep: treat as an inlined no-op call.
                        current = resume;
                    }
                }
                Terminator::Return => match stack.pop() {
                    Some(resume) => {
                        trace.push(BranchRecord::new(
                            block.pc,
                            self.blocks[resume].pc,
                            BranchKind::Return,
                            Outcome::Taken,
                        ));
                        current = resume;
                    }
                    None => current = self.entries[0],
                },
                Terminator::Exit => {
                    stack.clear();
                    current = self.entries[0];
                }
            }
        }
        trace
    }

    fn evaluate(
        &self,
        cond: Condition,
        block: BlockId,
        vars: &[bool],
        loop_counters: &mut [u8],
        rng: &mut SmallRng,
    ) -> Outcome {
        match cond {
            Condition::Var(v) => Outcome::from(vars[usize::from(v)]),
            Condition::NotVar(v) => Outcome::from(!vars[usize::from(v)]),
            Condition::Loop { limit } => {
                let c = &mut loop_counters[block];
                if *c < limit {
                    *c += 1;
                    Outcome::Taken
                } else {
                    *c = 0;
                    Outcome::NotTaken
                }
            }
            Condition::Chance(p) => Outcome::from(rng.gen::<f64>() < p),
        }
    }
}

fn random_effect(rng: &mut SmallRng, variables: u8) -> Effect {
    match rng.gen_range(0..3u8) {
        0 => Effect::SetRandom {
            var: rng.gen_range(0..variables),
            p: rng.gen_range(0.05..0.95),
        },
        1 => Effect::Toggle {
            var: rng.gen_range(0..variables),
        },
        _ => Effect::Copy {
            to: rng.gen_range(0..variables),
            from: rng.gen_range(0..variables),
        },
    }
}

fn apply_effect(effect: Effect, vars: &mut [bool], rng: &mut SmallRng) {
    match effect {
        Effect::SetRandom { var, p } => vars[usize::from(var)] = rng.gen::<f64>() < p,
        Effect::Toggle { var } => vars[usize::from(var)] ^= true,
        Effect::Copy { to, from } => vars[usize::from(to)] = vars[usize::from(from)],
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn program(seed: u64) -> CfgProgram {
        CfgProgram::generate(CfgConfig::default(), seed)
    }

    #[test]
    fn generation_is_deterministic() {
        assert_eq!(program(3).blocks(), program(3).blocks());
        assert_ne!(program(3).blocks(), program(4).blocks());
    }

    #[test]
    fn call_targets_are_patched() {
        let p = program(1);
        for b in p.blocks() {
            if let Terminator::Call { callee, resume } = b.terminator {
                assert!(callee < p.blocks().len());
                assert!(resume < p.blocks().len());
                assert!(p.entries().contains(&callee));
            }
        }
    }

    #[test]
    fn block_targets_are_in_bounds() {
        let p = program(2);
        let n = p.blocks().len();
        for b in p.blocks() {
            match b.terminator {
                Terminator::Cond { taken, fall, .. } => {
                    assert!(taken < n && fall < n);
                }
                Terminator::Jump { to } => assert!(to < n),
                _ => {}
            }
        }
    }

    #[test]
    fn trace_has_requested_conditionals() {
        let p = program(5);
        let t = p.trace(1, 5_000);
        assert_eq!(t.conditional_len(), 5_000);
        // Jumps, calls, and returns are interleaved.
        assert!(t.len() > 5_000);
    }

    #[test]
    fn traces_are_reproducible_and_seed_sensitive() {
        let p = program(6);
        assert_eq!(p.trace(1, 1_000), p.trace(1, 1_000));
        assert_ne!(p.trace(1, 1_000), p.trace(2, 1_000));
    }

    #[test]
    fn loops_produce_periodic_latches() {
        // Find a loop latch in the trace and check it repeats its
        // taken-run length.
        let p = CfgProgram::generate(
            CfgConfig {
                loop_fraction: 0.9,
                call_fraction: 0.0,
                functions: 3,
                ..CfgConfig::default()
            },
            8,
        );
        let t = p.trace(1, 20_000);
        // At least one backward conditional branch must exist.
        assert!(t.iter().any(|r| r.is_conditional() && r.is_backward()));
    }

    #[test]
    fn program_has_conditionals_and_functions() {
        let p = program(9);
        assert!(p.static_conditionals() > 50);
        assert_eq!(p.entries().len(), 40);
    }

    #[test]
    fn every_function_contains_a_conditional() {
        // The liveness guarantee: even tiny degenerate configurations
        // must not produce conditional-free functions (which would
        // let the executor spin forever).
        for seed in 0..200u64 {
            let p = CfgProgram::generate(
                CfgConfig {
                    functions: 2,
                    min_blocks: 2,
                    max_blocks: 3,
                    call_fraction: 0.9,
                    loop_fraction: 0.0,
                    ..CfgConfig::default()
                },
                seed,
            );
            for (f, &entry) in p.entries().iter().enumerate() {
                let end = p.entries().get(f + 1).copied().unwrap_or(p.blocks().len());
                assert!(
                    p.blocks()[entry..end]
                        .iter()
                        .any(|b| matches!(b.terminator, Terminator::Cond { .. })),
                    "seed {seed}, function {f} has no conditional"
                );
            }
            // And tracing such a program terminates.
            let t = p.trace(seed, 500);
            assert_eq!(t.conditional_len(), 500);
        }
    }

    #[test]
    fn restart_after_exit_keeps_running() {
        // A tiny program exits quickly and must restart to fill the trace.
        let p = CfgProgram::generate(
            CfgConfig {
                functions: 1,
                min_blocks: 3,
                max_blocks: 4,
                call_fraction: 0.0,
                ..CfgConfig::default()
            },
            10,
        );
        let t = p.trace(1, 2_000);
        assert_eq!(t.conditional_len(), 2_000);
    }

    #[test]
    #[should_panic(expected = "at least one function")]
    fn zero_functions_panics() {
        let _ = CfgProgram::generate(
            CfgConfig {
                functions: 0,
                ..CfgConfig::default()
            },
            1,
        );
    }

    #[test]
    fn addresses_are_increasing_and_aligned() {
        let p = program(11);
        for w in p.blocks().windows(2) {
            assert!(w[0].pc < w[1].pc);
        }
        assert!(p.blocks().iter().all(|b| b.pc % 4 == 0));
    }
}
