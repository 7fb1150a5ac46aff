//! Arbitrary two-bit predictor state machines.
//!
//! The saturating counter is only one of the 2-bit FSMs; Nair's
//! exhaustive search ("Optimal 2-bit branch predictors", 1995 — the
//! same author as the path scheme in Figure 8) showed several
//! alternatives match or beat it on particular workloads. [`FsmSpec`]
//! describes any 4-state machine by its transition and output tables,
//! and [`FsmPredictor`] runs an address-indexed predictor
//! over it, so counter-design ablations can explore the full space.

use std::fmt;

use bpred_trace::Outcome;

use crate::history::low_mask;
use crate::{AliasStats, BranchPredictor};

/// A 4-state predictor FSM: for each state, the predicted direction
/// and the successor states on taken/not-taken outcomes.
///
/// # Examples
///
/// ```
/// use bpred_core::FsmSpec;
/// use bpred_trace::Outcome;
///
/// let counter = FsmSpec::saturating_counter();
/// assert_eq!(counter.predict(3), Outcome::Taken);
/// assert_eq!(counter.next(3, Outcome::NotTaken), 2);
/// counter.validate().expect("the classic counter is well-formed");
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FsmSpec {
    /// `predict[s]` — direction predicted in state `s` (0–3).
    pub predict: [bool; 4],
    /// `on_taken[s]` — successor of state `s` after a taken outcome.
    pub on_taken: [u8; 4],
    /// `on_not_taken[s]` — successor after a not-taken outcome.
    pub on_not_taken: [u8; 4],
}

/// Error returned by [`FsmSpec::validate`] for malformed machines.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InvalidFsmError {
    message: String,
}

impl fmt::Display for InvalidFsmError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid predictor FSM: {}", self.message)
    }
}

impl std::error::Error for InvalidFsmError {}

impl FsmSpec {
    /// The classic two-bit saturating counter (states 0..=3 from
    /// strong-not-taken to strong-taken).
    pub fn saturating_counter() -> Self {
        FsmSpec {
            predict: [false, false, true, true],
            on_taken: [1, 2, 3, 3],
            on_not_taken: [0, 0, 1, 2],
        }
    }

    /// One-bit last-time prediction embedded in the 4-state space
    /// (states 2/3 unused).
    pub fn last_time() -> Self {
        FsmSpec {
            predict: [false, true, false, true],
            on_taken: [1, 1, 1, 1],
            on_not_taken: [0, 0, 0, 0],
        }
    }

    /// A hysteresis variant that returns to the *strong* state on a
    /// confirming outcome but flips prediction immediately after two
    /// consecutive surprises (Nair's "A2" shape).
    pub fn two_mispredict_flip() -> Self {
        FsmSpec {
            predict: [false, false, true, true],
            // From weak states a confirming outcome jumps to strong.
            on_taken: [1, 3, 3, 3],
            on_not_taken: [0, 0, 0, 2],
        }
    }

    /// Checks state indices are in range; returns a descriptive error
    /// otherwise.
    ///
    /// # Errors
    ///
    /// Returns [`InvalidFsmError`] naming the offending entry.
    pub fn validate(&self) -> Result<(), InvalidFsmError> {
        for (name, table) in [
            ("on_taken", &self.on_taken),
            ("on_not_taken", &self.on_not_taken),
        ] {
            for (state, &next) in table.iter().enumerate() {
                if next > 3 {
                    return Err(InvalidFsmError {
                        message: format!("{name}[{state}] = {next} is not a state"),
                    });
                }
            }
        }
        Ok(())
    }

    /// The prediction in `state` (masked to two bits).
    #[inline]
    pub fn predict(&self, state: u8) -> Outcome {
        Outcome::from(self.predict[usize::from(state & 3)])
    }

    /// The successor of `state` under `outcome`.
    #[inline]
    pub fn next(&self, state: u8, outcome: Outcome) -> u8 {
        let s = usize::from(state & 3);
        match outcome {
            Outcome::Taken => self.on_taken[s],
            Outcome::NotTaken => self.on_not_taken[s],
        }
    }
}

/// An address-indexed predictor over an arbitrary [`FsmSpec`] —
/// the drop-in counterpart of
/// [`AddressIndexed`](crate::AddressIndexed) for counter-design
/// ablations. Aliasing is instrumented exactly like the counter
/// tables.
///
/// # Examples
///
/// ```
/// use bpred_core::{BranchPredictor, FsmPredictor, FsmSpec};
/// use bpred_trace::Outcome;
///
/// let mut p = FsmPredictor::new(FsmSpec::last_time(), 6, 1);
/// p.update(0x40, 0x10, Outcome::Taken);
/// assert_eq!(p.predict(0x40, 0x10), Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct FsmPredictor {
    spec: FsmSpec,
    states: Vec<u8>,
    last_pc: Vec<u64>,
    addr_bits: u32,
    stats: AliasStats,
}

impl FsmPredictor {
    /// Creates a table of `2^addr_bits` machines, each starting in
    /// `initial_state`.
    ///
    /// # Panics
    ///
    /// Panics if the spec fails [`FsmSpec::validate`], `addr_bits`
    /// exceeds 30, or `initial_state` is not a state.
    pub fn new(spec: FsmSpec, addr_bits: u32, initial_state: u8) -> Self {
        spec.validate().expect("FSM spec must be well-formed");
        assert!(
            addr_bits <= 30,
            "table of 2^{addr_bits} machines is too large"
        );
        assert!(
            initial_state <= 3,
            "initial state {initial_state} is not a state"
        );
        FsmPredictor {
            spec,
            states: vec![initial_state; 1usize << addr_bits],
            last_pc: vec![u64::MAX; 1usize << addr_bits],
            addr_bits,
            stats: AliasStats::default(),
        }
    }

    /// The machine description.
    pub fn spec(&self) -> FsmSpec {
        self.spec
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) & low_mask(self.addr_bits)) as usize
    }
}

impl BranchPredictor for FsmPredictor {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        let idx = self.index(pc);
        let conflict = self.last_pc[idx] != u64::MAX && self.last_pc[idx] != pc;
        self.stats.record_access(conflict, false);
        self.last_pc[idx] = pc;
        self.spec.predict(self.states[idx])
    }

    fn update(&mut self, pc: u64, _target: u64, outcome: Outcome) {
        let idx = self.index(pc);
        self.states[idx] = self.spec.next(self.states[idx], outcome);
    }

    fn name(&self) -> String {
        format!("fsm(2^{})", self.addr_bits)
    }

    fn state_bits(&self) -> u64 {
        2 * self.states.len() as u64
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        Some(self.stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AddressIndexed;

    fn step<P: BranchPredictor>(p: &mut P, pc: u64, outcome: Outcome) -> Outcome {
        let predicted = p.predict(pc, 0x100);
        p.update(pc, 0x100, outcome);
        predicted
    }

    #[test]
    fn builtin_specs_validate() {
        FsmSpec::saturating_counter().validate().unwrap();
        FsmSpec::last_time().validate().unwrap();
        FsmSpec::two_mispredict_flip().validate().unwrap();
    }

    #[test]
    fn malformed_spec_is_rejected() {
        let mut spec = FsmSpec::saturating_counter();
        spec.on_taken[2] = 7;
        let err = spec.validate().unwrap_err();
        assert!(err.to_string().contains("on_taken[2] = 7"));
    }

    #[test]
    fn counter_spec_reproduces_address_indexed() {
        // FsmPredictor with the saturating-counter spec and weak-taken
        // start must be prediction-identical to AddressIndexed.
        let mut fsm = FsmPredictor::new(FsmSpec::saturating_counter(), 5, 2);
        let mut reference = AddressIndexed::new(5);
        for i in 0..600u64 {
            let pc = 0x400 + 4 * (i % 23);
            let out = Outcome::from((i * 5) % 7 < 4);
            assert_eq!(
                step(&mut fsm, pc, out),
                step(&mut reference, pc, out),
                "step {i}"
            );
        }
    }

    #[test]
    fn last_time_spec_flips_immediately() {
        let mut p = FsmPredictor::new(FsmSpec::last_time(), 3, 0);
        step(&mut p, 0x40, Outcome::Taken);
        assert_eq!(step(&mut p, 0x40, Outcome::NotTaken), Outcome::Taken);
        assert_eq!(step(&mut p, 0x40, Outcome::Taken), Outcome::NotTaken);
    }

    #[test]
    fn two_mispredict_flip_resists_single_surprises() {
        let mut p = FsmPredictor::new(FsmSpec::two_mispredict_flip(), 3, 3);
        // Strong taken; one surprise must not flip the prediction...
        step(&mut p, 0x40, Outcome::NotTaken);
        assert_eq!(step(&mut p, 0x40, Outcome::NotTaken), Outcome::Taken);
        // ...but the second consecutive one must.
        assert_eq!(step(&mut p, 0x40, Outcome::NotTaken), Outcome::NotTaken);
    }

    #[test]
    fn recovery_is_faster_than_the_counter_after_a_flip() {
        // After flipping, the A2-style machine returns to a strong
        // state in one confirming outcome, where the counter needs two.
        let mut flip = FsmPredictor::new(FsmSpec::two_mispredict_flip(), 2, 3);
        let mut counter = FsmPredictor::new(FsmSpec::saturating_counter(), 2, 3);
        let seq = [
            Outcome::NotTaken,
            Outcome::NotTaken, // both flip to not-taken
            Outcome::Taken,    // one surprise back
            Outcome::NotTaken, // flip machine should still say not-taken
        ];
        for (p_out, c_out) in seq.iter().zip(seq.iter()) {
            step(&mut flip, 0x40, *p_out);
            step(&mut counter, 0x40, *c_out);
        }
        assert_eq!(flip.predict(0x40, 0x100), Outcome::NotTaken);
    }

    #[test]
    fn aliasing_is_instrumented() {
        let mut p = FsmPredictor::new(FsmSpec::saturating_counter(), 0, 2);
        step(&mut p, 0x40, Outcome::Taken);
        step(&mut p, 0x44, Outcome::Taken);
        let stats = BranchPredictor::alias_stats(&p).unwrap();
        assert_eq!(stats.accesses, 2);
        assert_eq!(stats.conflicts, 1);
    }

    #[test]
    #[should_panic(expected = "well-formed")]
    fn constructor_rejects_bad_specs() {
        let mut spec = FsmSpec::saturating_counter();
        spec.on_not_taken[0] = 9;
        let _ = FsmPredictor::new(spec, 4, 0);
    }
}
