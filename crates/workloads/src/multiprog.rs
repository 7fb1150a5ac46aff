//! Multiprogrammed workloads.
//!
//! The IBS-Ultrix traces the paper uses "include both instructions
//! executed at the user level and at the kernel level, as well as
//! instructions executed by auxiliary processes such as the X server"
//! (§2) — i.e. several instruction streams time-sliced through one
//! predictor. [`Multiprogrammed`] reproduces that: two or more
//! workload models execute in round-robin quanta over a shared
//! predictor, so context switches pollute global history, counter
//! tables, and first-level tables exactly as OS interleaving does.
//! Each context's code is placed in its own 256 MiB address segment
//! (like user/kernel/X-server text), so distinct contexts never share
//! branch addresses — only predictor state.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use bpred_trace::Trace;

use crate::behavior::mix64;
use crate::model::WorkloadModel;

/// A round-robin interleaving of several workload models.
///
/// # Examples
///
/// ```
/// use bpred_workloads::{suite, Multiprogrammed};
///
/// // An application time-sliced with "kernel" activity.
/// let mix = Multiprogrammed::new(vec![suite::mpeg_play(), suite::sdet()], 5_000);
/// let trace = mix.trace(1, 40_000);
/// assert_eq!(trace.conditional_len(), 40_000);
/// ```
#[derive(Debug, Clone)]
pub struct Multiprogrammed {
    contexts: Vec<WorkloadModel>,
    quantum: usize,
}

impl Multiprogrammed {
    /// Creates a mix of `contexts` switched every `quantum`
    /// conditional branches.
    ///
    /// The paper-era context-switch interval was on the order of
    /// thousands of instructions; with ~14% branch density a quantum
    /// of 1,000–10,000 branches spans the realistic range.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two contexts are given or the quantum is
    /// zero.
    pub fn new(contexts: Vec<WorkloadModel>, quantum: usize) -> Self {
        assert!(contexts.len() >= 2, "a mix needs at least two contexts");
        assert!(quantum > 0, "quantum must be positive");
        Multiprogrammed { contexts, quantum }
    }

    /// The constituent models.
    pub fn contexts(&self) -> &[WorkloadModel] {
        &self.contexts
    }

    /// Branches per scheduling quantum.
    pub fn quantum(&self) -> usize {
        self.quantum
    }

    /// The address-segment base of context `i`: contexts are placed
    /// 256 MiB apart.
    pub fn segment_base(i: usize) -> u64 {
        (i as u64) << 28
    }

    /// Generates an interleaved trace with exactly `conditionals`
    /// conditional branches.
    ///
    /// Each context's stream is generated once (deterministically from
    /// `seed`), relocated into its own address segment, and consumed
    /// in quanta with a ±25% jitter, like real scheduler slices.
    pub fn trace(&self, seed: u64, conditionals: usize) -> Trace {
        // Generate each context's private stream, long enough that the
        // round-robin never starves.
        let per_context = conditionals / self.contexts.len() + self.quantum + 1;
        let streams: Vec<Vec<bpred_trace::BranchRecord>> = self
            .contexts
            .iter()
            .enumerate()
            .map(|(i, model)| {
                model
                    .trace_of_length(mix64(seed ^ (i as u64)), per_context)
                    .into_records()
            })
            .collect();

        let mut rng = SmallRng::seed_from_u64(mix64(seed ^ 0x5C4E_D01E));
        let mut cursors = vec![0usize; streams.len()];
        let mut trace = Trace::with_capacity(conditionals + conditionals / 8);
        let mut emitted = 0usize;
        let mut context = 0usize;

        while emitted < conditionals {
            let slice = self.jittered_quantum(&mut rng);
            let cursor = &mut cursors[context];
            let stream = &streams[context];
            let mut in_slice = 0usize;
            let base = Self::segment_base(context);
            while in_slice < slice && emitted < conditionals && *cursor < stream.len() {
                let mut record = stream[*cursor];
                *cursor += 1;
                record.pc += base;
                record.target += base;
                if record.is_conditional() {
                    in_slice += 1;
                    emitted += 1;
                }
                trace.push(record);
            }
            context = (context + 1) % streams.len();
        }
        trace
    }

    fn jittered_quantum(&self, rng: &mut SmallRng) -> usize {
        let low = (self.quantum * 3) / 4;
        let high = (self.quantum * 5) / 4;
        rng.gen_range(low.max(1)..=high.max(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::suite;
    use std::collections::HashSet;

    fn mix(quantum: usize) -> Multiprogrammed {
        Multiprogrammed::new(
            vec![
                suite::mpeg_play().scaled(50_000),
                suite::sdet().scaled(50_000),
            ],
            quantum,
        )
    }

    #[test]
    fn trace_has_requested_length_and_is_deterministic() {
        let m = mix(1_000);
        let t = m.trace(3, 20_000);
        assert_eq!(t.conditional_len(), 20_000);
        assert_eq!(m.trace(3, 20_000), t);
        assert_ne!(m.trace(4, 20_000), t);
    }

    #[test]
    fn both_contexts_appear_in_their_segments() {
        let m = mix(500);
        let t = m.trace(1, 10_000);
        let mpeg_pcs: HashSet<u64> = m.contexts()[0].branches().map(|b| b.pc).collect();
        let sdet_pcs: HashSet<u64> = m.contexts()[1].branches().map(|b| b.pc).collect();
        let mut saw = [false, false];
        for r in t.iter().filter(|r| r.is_conditional()) {
            let segment = (r.pc >> 28) as usize;
            assert!(segment < 2, "{:#x} outside both segments", r.pc);
            let local = r.pc - Multiprogrammed::segment_base(segment);
            if segment == 0 {
                assert!(mpeg_pcs.contains(&local));
            } else {
                assert!(sdet_pcs.contains(&local));
            }
            saw[segment] = true;
        }
        assert!(saw[0] && saw[1]);
    }

    #[test]
    fn contexts_alternate_in_quanta() {
        let m = mix(200);
        let t = m.trace(2, 5_000);
        // Count context switches along the conditional stream.
        let mut switches = 0;
        let mut last: Option<u64> = None;
        for r in t.iter().filter(|r| r.is_conditional()) {
            let segment = r.pc >> 28;
            if last.is_some() && last != Some(segment) {
                switches += 1;
            }
            last = Some(segment);
        }
        // ~5000/200 = 25 quanta expected.
        assert!((15..=40).contains(&switches), "{switches} switches");
    }

    #[test]
    #[should_panic(expected = "at least two contexts")]
    fn single_context_panics() {
        let _ = Multiprogrammed::new(vec![suite::sdet()], 100);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_panics() {
        let _ = mix(0);
    }
}
