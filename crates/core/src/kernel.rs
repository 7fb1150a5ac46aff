//! Enum-dispatched predictor kernels.
//!
//! [`PredictorKernel`] is the replay loop's view of a predictor: one
//! enum variant per concrete scheme a [`PredictorConfig`] can build.
//! Wrappers that only exist behind the [`BranchPredictor`] trait
//! (delayed update, speculative history) stay trait objects and never
//! enter a kernel. The hot loop matches on the
//! variant once per call and then runs the scheme's *monomorphized*
//! predict/update — a single predictable branch instead of two virtual
//! calls per record — while everything outside the loop keeps using
//! the trait ([`PredictorKernel`] implements [`BranchPredictor`]
//! itself, so the two worlds compose).
//!
//! [`PredictorConfig::kernel`] is the only constructor that maps a
//! configuration to its scheme; [`PredictorConfig::build`] boxes the
//! same kernel behind the trait.
//!
//! # Examples
//!
//! ```
//! use bpred_core::{BranchPredictor, PredictorConfig};
//! use bpred_trace::Outcome;
//!
//! let config = PredictorConfig::Gshare { history_bits: 8, col_bits: 2 };
//! let mut kernel = config.kernel();
//! let predicted = kernel.predict(0x400, 0x200);
//! kernel.update(0x400, 0x200, Outcome::Taken);
//! assert_eq!(kernel.name(), config.build().name());
//! # let _ = predicted;
//! ```

use bpred_trace::{BranchRecord, Outcome};

use std::fmt;

use crate::{
    AddressIndexed, Agree, AliasStats, AlwaysNotTaken, AlwaysTaken, BhtStats, BiMode,
    BranchPredictor, Btfn, Combining, Gas, Gshare, Gskew, LastTime, Pas, PathBased, PerfectBht,
    PredictorConfig, Sas, SetAssocBht, Yags,
};

/// The tournament pairing [`PredictorConfig::Tournament`] builds:
/// address-indexed bimodal + single-column gshare under a chooser.
pub type TournamentKernel = Combining<AddressIndexed, Gshare>;

/// A predictor with enum dispatch on the hot path.
///
/// One variant per concrete scheme, each holding the scheme's own type
/// so `predict`/`update` monomorphize inside a `match`.
#[non_exhaustive]
pub enum PredictorKernel {
    /// Static always-taken.
    AlwaysTaken(AlwaysTaken),
    /// Static always-not-taken.
    AlwaysNotTaken(AlwaysNotTaken),
    /// Static backward-taken/forward-not-taken.
    Btfn(Btfn),
    /// One-bit last-time table.
    LastTime(LastTime),
    /// Address-indexed two-bit counters.
    AddressIndexed(AddressIndexed),
    /// GAg/GAs global-history scheme.
    Gas(Gas),
    /// gshare.
    Gshare(Gshare),
    /// Nair's path-based scheme.
    Path(PathBased),
    /// PAg/PAs with an unbounded first-level table.
    PasPerfect(Pas<PerfectBht>),
    /// PAg/PAs with a finite set-associative first-level table.
    PasFinite(Pas<SetAssocBht>),
    /// McFarling tournament (bimodal + gshare + chooser).
    Tournament(TournamentKernel),
    /// SAg/SAs per-set scheme.
    Sas(Sas),
    /// Agree predictor.
    Agree(Agree),
    /// Bi-mode predictor.
    BiMode(BiMode),
    /// gskew predictor.
    Gskew(Gskew),
    /// YAGS predictor.
    Yags(Yags),
}

/// Dispatches one method call to the concrete scheme in each variant.
macro_rules! dispatch {
    ($kernel:expr, $p:ident => $body:expr) => {
        match $kernel {
            PredictorKernel::AlwaysTaken($p) => $body,
            PredictorKernel::AlwaysNotTaken($p) => $body,
            PredictorKernel::Btfn($p) => $body,
            PredictorKernel::LastTime($p) => $body,
            PredictorKernel::AddressIndexed($p) => $body,
            PredictorKernel::Gas($p) => $body,
            PredictorKernel::Gshare($p) => $body,
            PredictorKernel::Path($p) => $body,
            PredictorKernel::PasPerfect($p) => $body,
            PredictorKernel::PasFinite($p) => $body,
            PredictorKernel::Tournament($p) => $body,
            PredictorKernel::Sas($p) => $body,
            PredictorKernel::Agree($p) => $body,
            PredictorKernel::BiMode($p) => $body,
            PredictorKernel::Gskew($p) => $body,
            PredictorKernel::Yags($p) => $body,
        }
    };
}

impl PredictorKernel {
    /// Predicts the branch at `pc` (see [`BranchPredictor::predict`]).
    #[inline]
    pub fn predict(&mut self, pc: u64, target: u64) -> Outcome {
        dispatch!(self, p => p.predict(pc, target))
    }

    /// Trains with the resolved outcome (see
    /// [`BranchPredictor::update`]).
    #[inline]
    pub fn update(&mut self, pc: u64, target: u64, outcome: Outcome) {
        dispatch!(self, p => p.update(pc, target, outcome))
    }

    /// Fused predict-and-train (see
    /// [`BranchPredictor::predict_then_update`]) — one variant match
    /// instead of two, and the concrete scheme's own fused path inside.
    #[inline]
    pub fn predict_then_update(&mut self, pc: u64, target: u64, outcome: Outcome) -> Outcome {
        dispatch!(self, p => p.predict_then_update(pc, target, outcome))
    }

    /// Reports a non-conditional control transfer (see
    /// [`BranchPredictor::note_control_transfer`]).
    #[inline]
    pub fn note_control_transfer(&mut self, record: &BranchRecord) {
        dispatch!(self, p => p.note_control_transfer(record))
    }

    /// The scheme's report name (see [`BranchPredictor::name`]).
    pub fn name(&self) -> String {
        dispatch!(self, p => p.name())
    }

    /// Total predictor state in bits (see
    /// [`BranchPredictor::state_bits`]).
    pub fn state_bits(&self) -> u64 {
        dispatch!(self, p => p.state_bits())
    }

    /// Second-level aliasing statistics, when tracked (see
    /// [`BranchPredictor::alias_stats`]).
    pub fn alias_stats(&self) -> Option<AliasStats> {
        dispatch!(self, p => p.alias_stats())
    }

    /// First-level table statistics, when present (see
    /// [`BranchPredictor::bht_stats`]).
    pub fn bht_stats(&self) -> Option<BhtStats> {
        dispatch!(self, p => p.bht_stats())
    }
}

/// Rank-2 visitor over a kernel's concrete scheme.
///
/// [`PredictorKernel::visit`] resolves the enum variant *once* and
/// hands the visitor the owned concrete predictor, so code generic
/// over [`BranchPredictor`] — a whole replay loop, say — monomorphizes
/// per scheme instead of re-dispatching per call. `rewrap` is the
/// variant's own constructor, for handing the predictor back when the
/// visitor is done with it.
pub trait KernelVisitor {
    /// What the visit produces.
    type Output;

    /// Receives the kernel's concrete scheme.
    fn visit<P: BranchPredictor>(
        self,
        predictor: P,
        rewrap: fn(P) -> PredictorKernel,
    ) -> Self::Output;
}

impl PredictorKernel {
    /// Consumes the kernel, resolving its variant once and handing the
    /// concrete scheme to `visitor` — the hoisted dispatch that lets a
    /// replay loop run fully monomorphized (see
    /// `ReplayCore::replay_dispatched` in `bpred-sim`).
    pub fn visit<V: KernelVisitor>(self, visitor: V) -> V::Output {
        match self {
            PredictorKernel::AlwaysTaken(p) => visitor.visit(p, PredictorKernel::AlwaysTaken),
            PredictorKernel::AlwaysNotTaken(p) => visitor.visit(p, PredictorKernel::AlwaysNotTaken),
            PredictorKernel::Btfn(p) => visitor.visit(p, PredictorKernel::Btfn),
            PredictorKernel::LastTime(p) => visitor.visit(p, PredictorKernel::LastTime),
            PredictorKernel::AddressIndexed(p) => visitor.visit(p, PredictorKernel::AddressIndexed),
            PredictorKernel::Gas(p) => visitor.visit(p, PredictorKernel::Gas),
            PredictorKernel::Gshare(p) => visitor.visit(p, PredictorKernel::Gshare),
            PredictorKernel::Path(p) => visitor.visit(p, PredictorKernel::Path),
            PredictorKernel::PasPerfect(p) => visitor.visit(p, PredictorKernel::PasPerfect),
            PredictorKernel::PasFinite(p) => visitor.visit(p, PredictorKernel::PasFinite),
            PredictorKernel::Tournament(p) => visitor.visit(p, PredictorKernel::Tournament),
            PredictorKernel::Sas(p) => visitor.visit(p, PredictorKernel::Sas),
            PredictorKernel::Agree(p) => visitor.visit(p, PredictorKernel::Agree),
            PredictorKernel::BiMode(p) => visitor.visit(p, PredictorKernel::BiMode),
            PredictorKernel::Gskew(p) => visitor.visit(p, PredictorKernel::Gskew),
            PredictorKernel::Yags(p) => visitor.visit(p, PredictorKernel::Yags),
        }
    }
}

impl fmt::Debug for PredictorKernel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "PredictorKernel({})", self.name())
    }
}

/// A kernel is itself a predictor, so observer code and legacy
/// harnesses can treat both uniformly.
impl BranchPredictor for PredictorKernel {
    #[inline]
    fn predict(&mut self, pc: u64, target: u64) -> Outcome {
        PredictorKernel::predict(self, pc, target)
    }

    #[inline]
    fn update(&mut self, pc: u64, target: u64, outcome: Outcome) {
        PredictorKernel::update(self, pc, target, outcome)
    }

    #[inline]
    fn predict_then_update(&mut self, pc: u64, target: u64, outcome: Outcome) -> Outcome {
        PredictorKernel::predict_then_update(self, pc, target, outcome)
    }

    #[inline]
    fn note_control_transfer(&mut self, record: &BranchRecord) {
        PredictorKernel::note_control_transfer(self, record)
    }

    fn name(&self) -> String {
        PredictorKernel::name(self)
    }

    fn state_bits(&self) -> u64 {
        PredictorKernel::state_bits(self)
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        PredictorKernel::alias_stats(self)
    }

    fn bht_stats(&self) -> Option<BhtStats> {
        PredictorKernel::bht_stats(self)
    }
}

impl PredictorConfig {
    /// Builds this configuration as an enum-dispatched kernel: the
    /// one place a configuration is mapped to its concrete scheme.
    pub fn kernel(&self) -> PredictorKernel {
        match *self {
            PredictorConfig::AlwaysTaken => PredictorKernel::AlwaysTaken(AlwaysTaken),
            PredictorConfig::AlwaysNotTaken => PredictorKernel::AlwaysNotTaken(AlwaysNotTaken),
            PredictorConfig::Btfn => PredictorKernel::Btfn(Btfn),
            PredictorConfig::LastTime { addr_bits } => {
                PredictorKernel::LastTime(LastTime::new(addr_bits))
            }
            PredictorConfig::AddressIndexed { addr_bits } => {
                PredictorKernel::AddressIndexed(AddressIndexed::new(addr_bits))
            }
            PredictorConfig::Gas {
                history_bits,
                col_bits,
            } => PredictorKernel::Gas(Gas::new(history_bits, col_bits)),
            PredictorConfig::Gshare {
                history_bits,
                col_bits,
            } => PredictorKernel::Gshare(Gshare::new(history_bits, col_bits)),
            PredictorConfig::Path {
                row_bits,
                col_bits,
                bits_per_target,
            } => PredictorKernel::Path(PathBased::new(row_bits, col_bits, bits_per_target)),
            PredictorConfig::PasInfinite {
                history_bits,
                col_bits,
            } => PredictorKernel::PasPerfect(Pas::perfect(history_bits, col_bits)),
            PredictorConfig::PasFinite {
                history_bits,
                col_bits,
                entries,
                ways,
            } => PredictorKernel::PasFinite(Pas::with_bht(
                history_bits,
                col_bits,
                entries as usize,
                ways as usize,
            )),
            PredictorConfig::Tournament {
                addr_bits,
                history_bits,
                chooser_bits,
            } => PredictorKernel::Tournament(Combining::new(
                AddressIndexed::new(addr_bits),
                Gshare::new(history_bits, 0),
                chooser_bits,
            )),
            PredictorConfig::Sas {
                history_bits,
                set_bits,
                col_bits,
            } => PredictorKernel::Sas(Sas::new(history_bits, set_bits, col_bits)),
            PredictorConfig::Agree {
                history_bits,
                index_bits,
            } => PredictorKernel::Agree(Agree::new(history_bits, index_bits)),
            PredictorConfig::BiMode {
                history_bits,
                direction_bits,
                choice_bits,
            } => PredictorKernel::BiMode(BiMode::new(history_bits, direction_bits, choice_bits)),
            PredictorConfig::Gskew {
                history_bits,
                bank_bits,
            } => PredictorKernel::Gskew(Gskew::new(history_bits, bank_bits)),
            PredictorConfig::Yags {
                choice_bits,
                cache_bits,
                tag_bits,
            } => PredictorKernel::Yags(Yags::new(choice_bits, cache_bits, tag_bits)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use bpred_trace::Outcome;

    #[test]
    fn kernel_is_a_branch_predictor() {
        // The trait impl delegates to the inherent methods, so a kernel
        // can sit behind `&mut dyn BranchPredictor` too.
        let mut kernel = PredictorConfig::AddressIndexed { addr_bits: 3 }.kernel();
        let p: &mut dyn BranchPredictor = &mut kernel;
        let _ = p.predict(0x40, 0x20);
        p.update(0x40, 0x20, Outcome::Taken);
        assert_eq!(p.name(), "address-indexed(2^3)");
    }
}
