//! Packed counter-cell primitives.
//!
//! A *cell* is the scalar second-level table entry, one `u64`: the low
//! two bits hold a saturating-counter state, the high 62 bits the
//! conflict-detection owner tag (the branch address that last touched
//! the counter, the paper's direct-mapped-cache analogy).
//! [`CounterTable`](crate::CounterTable), the scalar oracle every fast
//! path is measured against, steps its cells through the helpers in
//! this module.
//!
//! The fused multilane kernels in `bpred-sim` keep their own 4-byte
//! cells: the same two counter bits under a 30-bit owner tag that maps
//! each 62-bit [`tag`] exactly (see `bpred_sim::multilane`). The two
//! representations are independent on purpose, so the multilane
//! identity tests check the narrow tags against the full ones.
//!
//! # Examples
//!
//! ```
//! use bpred_core::cell;
//! use bpred_trace::Outcome;
//!
//! let fresh = cell::fresh(2); // weak-taken, untouched
//! let (predicted, conflict, next) = cell::step(fresh, cell::tag(0x40), Outcome::Taken);
//! assert_eq!(predicted, Outcome::Taken);
//! assert!(!conflict); // first access is never a conflict
//! assert_eq!(cell::counter_bits(next), 3); // trained to strong taken
//! ```

use bpred_trace::Outcome;

use crate::counter::next_counter_bits;

/// Owner tag for a counter no branch has touched yet. Real branch
/// addresses never have all of their low 62 bits set (that would be an
/// instruction in the last word of the address space).
pub const EMPTY_OWNER: u64 = (1 << 62) - 1;

/// Lanes per fused multilane replay group in `bpred-sim`: larger
/// sweeps split into several groups, each with its own counter arena.
pub const PACKED_LANES: usize = 32;

/// A cell holding `counter_bits` with no owner recorded yet.
#[inline]
pub fn fresh(counter_bits: u8) -> u64 {
    (EMPTY_OWNER << 2) | (counter_bits & 0b11) as u64
}

/// The owner tag of the branch at `pc` (its low 62 address bits).
#[inline]
pub fn tag(pc: u64) -> u64 {
    pc & EMPTY_OWNER
}

/// The two-bit counter state stored in `cell`.
#[inline]
pub fn counter_bits(cell: u64) -> u8 {
    (cell & 0b11) as u8
}

/// The direction `cell`'s counter currently predicts.
#[inline]
pub fn predicted(cell: u64) -> Outcome {
    Outcome::from(cell & 0b11 >= 2)
}

/// Whether an access by the branch tagged `tag` conflicts: the cell
/// was last touched by a *different* branch (untouched cells never
/// conflict).
#[inline]
pub fn conflicts_with(cell: u64, tag: u64) -> bool {
    let owner = cell >> 2;
    (owner != EMPTY_OWNER) & (owner != tag)
}

/// Read-only access by the branch tagged `tag`: the prediction, the
/// conflict flag, and the cell re-tagged to the new owner with its
/// counter unchanged (the unfused
/// [`CounterTable::access`](crate::CounterTable::access) transition).
#[inline]
pub fn touch(cell: u64, tag: u64) -> (Outcome, bool, u64) {
    (
        predicted(cell),
        conflicts_with(cell, tag),
        (tag << 2) | (cell & 0b11),
    )
}

/// Fused access-and-train by the branch tagged `tag`: the prediction
/// *before* training, the conflict flag, and the cell re-tagged with
/// its counter stepped toward `outcome` — the single-cell
/// read-modify-write at the heart of every replay fast path.
#[inline]
pub fn step(cell: u64, tag: u64, outcome: Outcome) -> (Outcome, bool, u64) {
    let conflict = conflicts_with(cell, tag);
    let bits = counter_bits(cell);
    let next = (tag << 2) | next_counter_bits(bits, outcome) as u64;
    (Outcome::from(bits >= 2), conflict, next)
}

/// Trains `cell`'s counter toward `outcome` without touching the owner
/// tag (the standalone
/// [`CounterTable::train`](crate::CounterTable::train) transition).
#[inline]
pub fn retrain(cell: u64, outcome: Outcome) -> u64 {
    (cell & !0b11) | next_counter_bits(counter_bits(cell), outcome) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{CounterState, TwoBitCounter};

    #[test]
    fn fresh_cells_never_conflict_and_keep_their_bits() {
        for bits in 0..4u8 {
            let cell = fresh(bits);
            assert_eq!(counter_bits(cell), bits);
            assert!(!conflicts_with(cell, tag(0x40)));
            assert_eq!(cell >> 2, EMPTY_OWNER);
        }
    }

    #[test]
    fn conflict_requires_a_different_previous_owner() {
        let (_, first, cell) = touch(fresh(2), tag(0x40));
        assert!(!first);
        let (_, same, cell) = touch(cell, tag(0x40));
        assert!(!same);
        let (_, other, _) = touch(cell, tag(0x44));
        assert!(other);
    }

    #[test]
    fn step_matches_the_counter_state_machine() {
        for state in CounterState::ALL {
            for outcome in [Outcome::Taken, Outcome::NotTaken] {
                let cell = fresh(state.bits());
                let (predicted, _, next) = step(cell, tag(0x40), outcome);
                let mut reference = TwoBitCounter::new(state);
                assert_eq!(predicted, reference.predict(), "{state} predict");
                reference.train(outcome);
                assert_eq!(
                    counter_bits(next),
                    reference.state().bits(),
                    "{state} toward {outcome:?}"
                );
                assert_eq!(next >> 2, tag(0x40), "ownership transfers");
            }
        }
    }

    #[test]
    fn retrain_preserves_the_owner() {
        let (_, _, cell) = touch(fresh(2), tag(0x88));
        let trained = retrain(cell, Outcome::NotTaken);
        assert_eq!(trained >> 2, tag(0x88));
        assert_eq!(counter_bits(trained), 1);
    }
}
