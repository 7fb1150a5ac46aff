//! Static baseline predictors: always-taken, always-not-taken and
//! backward-taken/forward-not-taken, beside Smith's one-bit
//! last-time predictor.
//!
//! These anchor the bottom of every comparison: a dynamic scheme that
//! cannot beat BTFN is not earning its transistors.

use bpred_trace::Outcome;

use crate::BranchPredictor;

/// Predicts every branch taken.
///
/// # Examples
///
/// ```
/// use bpred_core::{AlwaysTaken, BranchPredictor};
/// use bpred_trace::Outcome;
///
/// let mut p = AlwaysTaken;
/// assert_eq!(p.predict(0x40, 0x20), Outcome::Taken);
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysTaken;

impl BranchPredictor for AlwaysTaken {
    fn predict(&mut self, _pc: u64, _target: u64) -> Outcome {
        Outcome::Taken
    }

    fn update(&mut self, _pc: u64, _target: u64, _outcome: Outcome) {}

    fn name(&self) -> String {
        "always-taken".to_owned()
    }

    fn state_bits(&self) -> u64 {
        0
    }
}

/// Predicts every branch not taken.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AlwaysNotTaken;

impl BranchPredictor for AlwaysNotTaken {
    fn predict(&mut self, _pc: u64, _target: u64) -> Outcome {
        Outcome::NotTaken
    }

    fn update(&mut self, _pc: u64, _target: u64, _outcome: Outcome) {}

    fn name(&self) -> String {
        "always-not-taken".to_owned()
    }

    fn state_bits(&self) -> u64 {
        0
    }
}

/// Backward taken, forward not taken: loop-closing (backward) branches
/// are predicted taken, forward branches not taken.
///
/// # Examples
///
/// ```
/// use bpred_core::{Btfn, BranchPredictor};
/// use bpred_trace::Outcome;
///
/// let mut p = Btfn;
/// assert_eq!(p.predict(0x100, 0x80), Outcome::Taken);   // backward
/// assert_eq!(p.predict(0x100, 0x180), Outcome::NotTaken); // forward
/// ```
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Btfn;

impl BranchPredictor for Btfn {
    fn predict(&mut self, pc: u64, target: u64) -> Outcome {
        Outcome::from(target < pc)
    }

    fn update(&mut self, _pc: u64, _target: u64, _outcome: Outcome) {}

    fn name(&self) -> String {
        "btfn".to_owned()
    }

    fn state_bits(&self) -> u64 {
        0
    }
}

/// Dynamic one-bit "last time" predictor (Smith's simplest scheme): a
/// table of single bits recording each branch's previous outcome.
///
/// # Examples
///
/// ```
/// use bpred_core::{BranchPredictor, LastTime};
/// use bpred_trace::Outcome;
///
/// let mut p = LastTime::new(4);
/// p.update(0x40, 0, Outcome::Taken);
/// assert_eq!(p.predict(0x40, 0), Outcome::Taken);
/// ```
#[derive(Debug, Clone)]
pub struct LastTime {
    bits: Vec<bool>,
    addr_bits: u32,
}

impl LastTime {
    /// Creates a table of `2^addr_bits` one-bit entries, initially
    /// predicting not taken.
    pub fn new(addr_bits: u32) -> Self {
        assert!(addr_bits <= 30, "table of 2^{addr_bits} bits is too large");
        LastTime {
            bits: vec![false; 1usize << addr_bits],
            addr_bits,
        }
    }

    fn index(&self, pc: u64) -> usize {
        ((pc >> 2) as usize) & (self.bits.len() - 1)
    }
}

impl BranchPredictor for LastTime {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        Outcome::from(self.bits[self.index(pc)])
    }

    fn update(&mut self, pc: u64, _target: u64, outcome: Outcome) {
        let idx = self.index(pc);
        self.bits[idx] = outcome.is_taken();
    }

    fn name(&self) -> String {
        format!("last-time(2^{})", self.addr_bits)
    }

    fn state_bits(&self) -> u64 {
        self.bits.len() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_predictors() {
        assert_eq!(AlwaysTaken.predict(0, 0), Outcome::Taken);
        assert_eq!(AlwaysNotTaken.predict(0, 0), Outcome::NotTaken);
        assert_eq!(AlwaysTaken.state_bits(), 0);
    }

    #[test]
    fn btfn_direction() {
        let mut p = Btfn;
        assert_eq!(p.predict(0x100, 0x100), Outcome::NotTaken); // self-target is forward-ish
        assert_eq!(p.predict(0x100, 0xfc), Outcome::Taken);
    }

    #[test]
    fn last_time_flips_immediately() {
        let mut p = LastTime::new(2);
        assert_eq!(p.predict(0x40, 0), Outcome::NotTaken);
        p.update(0x40, 0, Outcome::Taken);
        assert_eq!(p.predict(0x40, 0), Outcome::Taken);
        p.update(0x40, 0, Outcome::NotTaken);
        assert_eq!(p.predict(0x40, 0), Outcome::NotTaken);
    }

    #[test]
    fn last_time_aliases_modulo_table_size() {
        let mut p = LastTime::new(1); // 2 entries
        p.update(0x40, 0, Outcome::Taken); // word 0x10 -> entry 0
        assert_eq!(p.predict(0x48, 0), Outcome::Taken); // word 0x12 -> entry 0 too
    }

    #[test]
    fn names() {
        assert_eq!(AlwaysTaken.name(), "always-taken");
        assert_eq!(Btfn.name(), "btfn");
        assert_eq!(LastTime::new(3).name(), "last-time(2^3)");
    }
}
