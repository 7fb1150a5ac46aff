use std::fmt;

use crate::Outcome;

/// Classification of a dynamic branch instance.
///
/// The ISCA 1996 study predicts *conditional* branches only, but real
/// traces interleave unconditional jumps, calls, and returns; keeping the
/// kind in the record lets the simulation engine skip or specially handle
/// them (for example, path-based predictors shift target bits for every
/// control transfer they observe).
///
/// Each kind's discriminant is its three-bit [`code`](Self::code).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
#[repr(u8)]
pub enum BranchKind {
    /// A conditional direct branch (the object of prediction).
    Conditional = 0,
    /// An unconditional direct jump.
    Unconditional = 1,
    /// A direct function call.
    Call = 2,
    /// A function return (indirect).
    Return = 3,
    /// Any other indirect control transfer.
    Indirect = 4,
}

impl BranchKind {
    /// Returns `true` for the kinds whose direction a conditional-branch
    /// predictor is asked to guess.
    ///
    /// ```
    /// # use bpred_trace::BranchKind;
    /// assert!(BranchKind::Conditional.is_conditional());
    /// assert!(!BranchKind::Call.is_conditional());
    /// ```
    #[inline]
    pub fn is_conditional(self) -> bool {
        matches!(self, BranchKind::Conditional)
    }

    /// The kind's three-bit code: its field in a binary trace record's
    /// tag ([`binfmt`](crate::binfmt)) and in a
    /// [`TraceChunk`](crate::TraceChunk)'s metadata words. Trace files
    /// and the cache keys that hash them depend on these values, so
    /// they never change.
    #[inline]
    pub const fn code(self) -> u8 {
        self as u8
    }

    /// The kind whose [`code`](Self::code) is `code`, if any.
    #[inline]
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(usize::from(code)).copied()
    }

    /// Single-character mnemonic used by the text trace format.
    #[inline]
    pub fn mnemonic(self) -> char {
        match self {
            BranchKind::Conditional => 'C',
            BranchKind::Unconditional => 'J',
            BranchKind::Call => 'L',
            BranchKind::Return => 'R',
            BranchKind::Indirect => 'I',
        }
    }

    /// Parses the mnemonic produced by [`BranchKind::mnemonic`].
    #[inline]
    pub fn from_mnemonic(c: char) -> Option<Self> {
        match c {
            'C' => Some(BranchKind::Conditional),
            'J' => Some(BranchKind::Unconditional),
            'L' => Some(BranchKind::Call),
            'R' => Some(BranchKind::Return),
            'I' => Some(BranchKind::Indirect),
            _ => None,
        }
    }

    /// All kinds, in [`code`](Self::code) order. Useful for exhaustive
    /// tests.
    pub const ALL: [BranchKind; 5] = [
        BranchKind::Conditional,
        BranchKind::Unconditional,
        BranchKind::Call,
        BranchKind::Return,
        BranchKind::Indirect,
    ];
}

impl fmt::Display for BranchKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            BranchKind::Conditional => "conditional",
            BranchKind::Unconditional => "unconditional",
            BranchKind::Call => "call",
            BranchKind::Return => "return",
            BranchKind::Indirect => "indirect",
        };
        f.write_str(s)
    }
}

/// One dynamic branch instance in an execution trace.
///
/// Addresses follow MIPS conventions: instructions are 4-byte aligned, so
/// predictors index tables with bits of `pc >> 2`.
///
/// # Examples
///
/// ```
/// use bpred_trace::{BranchRecord, BranchKind, Outcome};
///
/// let r = BranchRecord::conditional(0x0040_01a8, 0x0040_0100, Outcome::Taken);
/// assert_eq!(r.kind, BranchKind::Conditional);
/// assert!(r.is_backward());
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct BranchRecord {
    /// Address of the branch instruction.
    pub pc: u64,
    /// Address the branch transfers control to when taken.
    pub target: u64,
    /// Kind of control transfer.
    pub kind: BranchKind,
    /// Resolved direction. Non-conditional kinds are always `Taken`.
    pub outcome: Outcome,
}

impl BranchRecord {
    /// Creates a record of any kind.
    ///
    /// ```
    /// # use bpred_trace::{BranchRecord, BranchKind, Outcome};
    /// let r = BranchRecord::new(0x1000, 0x2000, BranchKind::Call, Outcome::Taken);
    /// assert_eq!(r.target, 0x2000);
    /// ```
    #[inline]
    pub fn new(pc: u64, target: u64, kind: BranchKind, outcome: Outcome) -> Self {
        BranchRecord {
            pc,
            target,
            kind,
            outcome,
        }
    }

    /// Creates a conditional-branch record.
    #[inline]
    pub fn conditional(pc: u64, target: u64, outcome: Outcome) -> Self {
        Self::new(pc, target, BranchKind::Conditional, outcome)
    }

    /// Creates an unconditional-jump record (always taken).
    #[inline]
    pub fn jump(pc: u64, target: u64) -> Self {
        Self::new(pc, target, BranchKind::Unconditional, Outcome::Taken)
    }

    /// Returns `true` if this is a conditional branch, i.e. a prediction
    /// target for the schemes in this workspace.
    #[inline]
    pub fn is_conditional(&self) -> bool {
        self.kind.is_conditional()
    }

    /// Returns `true` if the branch target precedes the branch itself
    /// (a loop-shaped, backward branch).
    #[inline]
    pub fn is_backward(&self) -> bool {
        self.target < self.pc
    }

    /// The word address (`pc >> 2`) from which table index bits are drawn.
    #[inline]
    pub fn word_pc(&self) -> u64 {
        self.pc >> 2
    }
}

impl Default for BranchRecord {
    /// A not-taken conditional branch at address zero; never empty in
    /// `Debug` output and convenient for buffer initialisation.
    fn default() -> Self {
        BranchRecord::conditional(0, 0, Outcome::NotTaken)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kind_mnemonics_round_trip_and_are_distinct() {
        let mut seen = std::collections::HashSet::new();
        for kind in BranchKind::ALL {
            let c = kind.mnemonic();
            assert!(seen.insert(c), "duplicate mnemonic {c}");
            assert_eq!(BranchKind::from_mnemonic(c), Some(kind));
        }
        assert_eq!(BranchKind::from_mnemonic('?'), None);
    }

    #[test]
    fn codes_are_positions_in_all() {
        for (i, kind) in BranchKind::ALL.into_iter().enumerate() {
            assert_eq!(usize::from(kind.code()), i);
            assert_eq!(BranchKind::from_code(kind.code()), Some(kind));
        }
        for code in 5..=u8::MAX {
            assert_eq!(BranchKind::from_code(code), None);
        }
    }

    #[test]
    fn conditional_constructor_sets_kind() {
        let r = BranchRecord::conditional(8, 4, Outcome::Taken);
        assert!(r.is_conditional());
        assert!(r.is_backward());
    }

    #[test]
    fn jump_is_always_taken() {
        let r = BranchRecord::jump(0x10, 0x20);
        assert_eq!(r.outcome, Outcome::Taken);
        assert!(!r.is_conditional());
        assert!(!r.is_backward());
    }

    #[test]
    fn word_pc_drops_alignment_bits() {
        let r = BranchRecord::conditional(0x0040_01a8, 0, Outcome::Taken);
        assert_eq!(r.word_pc(), 0x0040_01a8 >> 2);
    }

    #[test]
    fn default_is_harmless() {
        let r = BranchRecord::default();
        assert_eq!(r.pc, 0);
        assert!(r.is_conditional());
        assert_eq!(r.outcome, Outcome::NotTaken);
    }

    #[test]
    fn display_names_are_prose() {
        assert_eq!(BranchKind::Return.to_string(), "return");
        assert_eq!(BranchKind::Conditional.to_string(), "conditional");
    }
}
