use std::fmt;

use bpred_trace::Outcome;

/// The four states of the classic two-bit saturating counter
/// (Smith 1981), ordered from strongly not-taken to strongly taken.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum CounterState {
    /// 00 — predict not taken; a taken outcome moves to weakly not-taken.
    StrongNotTaken,
    /// 01 — predict not taken.
    WeakNotTaken,
    /// 10 — predict taken.
    WeakTaken,
    /// 11 — predict taken; a not-taken outcome moves to weakly taken.
    StrongTaken,
}

impl CounterState {
    /// All states in numeric order.
    pub const ALL: [CounterState; 4] = [
        CounterState::StrongNotTaken,
        CounterState::WeakNotTaken,
        CounterState::WeakTaken,
        CounterState::StrongTaken,
    ];

    /// The state's two-bit encoding (0–3).
    #[inline]
    pub fn bits(self) -> u8 {
        match self {
            CounterState::StrongNotTaken => 0,
            CounterState::WeakNotTaken => 1,
            CounterState::WeakTaken => 2,
            CounterState::StrongTaken => 3,
        }
    }

    /// Decodes a two-bit encoding. Values above 3 return `None`.
    #[inline]
    pub fn from_bits(bits: u8) -> Option<Self> {
        Some(match bits {
            0 => CounterState::StrongNotTaken,
            1 => CounterState::WeakNotTaken,
            2 => CounterState::WeakTaken,
            3 => CounterState::StrongTaken,
            _ => return None,
        })
    }
}

impl fmt::Display for CounterState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            CounterState::StrongNotTaken => "strong-not-taken",
            CounterState::WeakNotTaken => "weak-not-taken",
            CounterState::WeakTaken => "weak-taken",
            CounterState::StrongTaken => "strong-taken",
        };
        f.write_str(s)
    }
}

/// A two-bit saturating counter — the adaptive state machine in the
/// second-level table of every "A" scheme in the Yeh–Patt taxonomy.
///
/// # Examples
///
/// ```
/// use bpred_core::{CounterState, TwoBitCounter};
/// use bpred_trace::Outcome;
///
/// let mut c = TwoBitCounter::new(CounterState::WeakNotTaken);
/// assert_eq!(c.predict(), Outcome::NotTaken);
/// c.train(Outcome::Taken);
/// assert_eq!(c.predict(), Outcome::Taken); // weak taken now
/// c.train(Outcome::Taken);
/// c.train(Outcome::Taken); // saturates at strong taken
/// assert_eq!(c.state(), CounterState::StrongTaken);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TwoBitCounter {
    bits: u8,
}

/// The saturating two-bit transition, branch-free: `bits` moves one
/// step toward the outcome and clamps at the strong states. Shared by
/// [`TwoBitCounter`] and the packed-cell
/// [`CounterTable`](crate::CounterTable) hot path, which stores raw
/// counter bits instead of a state enum.
#[inline]
pub(crate) fn next_counter_bits(bits: u8, outcome: Outcome) -> u8 {
    let step = (outcome.is_taken() as i8) * 2 - 1;
    (bits as i8 + step).clamp(0, 3) as u8
}

impl TwoBitCounter {
    /// Creates a counter in the given initial state.
    #[inline]
    pub fn new(state: CounterState) -> Self {
        TwoBitCounter { bits: state.bits() }
    }

    /// The current state.
    #[inline]
    pub fn state(self) -> CounterState {
        CounterState::from_bits(self.bits).expect("two-bit value")
    }

    /// The direction this counter currently predicts.
    #[inline]
    pub fn predict(self) -> Outcome {
        Outcome::from(self.bits >= 2)
    }

    /// Advances the state machine with an observed outcome, saturating
    /// at the strong states.
    #[inline]
    pub fn train(&mut self, outcome: Outcome) {
        self.bits = next_counter_bits(self.bits, outcome);
    }
}

impl Default for TwoBitCounter {
    /// Weakly taken — the workspace default initial state. Most dynamic
    /// branches are taken (loops), so this trains fastest.
    fn default() -> Self {
        TwoBitCounter::new(CounterState::WeakTaken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_round_trip() {
        for s in CounterState::ALL {
            assert_eq!(CounterState::from_bits(s.bits()), Some(s));
        }
        assert_eq!(CounterState::from_bits(4), None);
    }

    #[test]
    fn prediction_threshold() {
        assert_eq!(
            TwoBitCounter::new(CounterState::StrongNotTaken).predict(),
            Outcome::NotTaken
        );
        assert_eq!(
            TwoBitCounter::new(CounterState::WeakNotTaken).predict(),
            Outcome::NotTaken
        );
        assert_eq!(
            TwoBitCounter::new(CounterState::WeakTaken).predict(),
            Outcome::Taken
        );
        assert_eq!(
            TwoBitCounter::new(CounterState::StrongTaken).predict(),
            Outcome::Taken
        );
    }

    #[test]
    fn saturates_at_both_ends() {
        let mut c = TwoBitCounter::new(CounterState::StrongTaken);
        c.train(Outcome::Taken);
        assert_eq!(c.state(), CounterState::StrongTaken);
        let mut c = TwoBitCounter::new(CounterState::StrongNotTaken);
        c.train(Outcome::NotTaken);
        assert_eq!(c.state(), CounterState::StrongNotTaken);
    }

    #[test]
    fn hysteresis_requires_two_misses_to_flip() {
        let mut c = TwoBitCounter::new(CounterState::StrongTaken);
        c.train(Outcome::NotTaken);
        assert_eq!(c.predict(), Outcome::Taken); // still predicts taken
        c.train(Outcome::NotTaken);
        assert_eq!(c.predict(), Outcome::NotTaken);
    }

    #[test]
    fn transitions_are_adjacent() {
        for s in CounterState::ALL {
            for o in [Outcome::Taken, Outcome::NotTaken] {
                let mut c = TwoBitCounter::new(s);
                c.train(o);
                let diff = (c.state().bits() as i8 - s.bits() as i8).abs();
                assert!(diff <= 1);
            }
        }
    }

    #[test]
    fn default_is_weak_taken() {
        assert_eq!(TwoBitCounter::default().state(), CounterState::WeakTaken);
    }
}
