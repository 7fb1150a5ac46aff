//! The general two-level predictor model of the paper's Figure 1.
//!
//! A two-level predictor is a *row-selection box* (the first level) in
//! front of a [`CounterTable`] (the second level). The row-selection box
//! chooses a row "as a function of the branch address being predicted
//! and the outcome of previous branches"; the column is chosen by branch
//! address bits. Every concrete scheme in this crate — address-indexed,
//! GAg/GAs, gshare, path-based, PAg/PAs — is an instantiation of
//! [`TwoLevel`] with a different [`RowSelector`], which is also the
//! extension point for user-defined schemes.

use bpred_trace::{BranchRecord, Outcome};

use crate::{AliasStats, BranchPredictor, CounterTable, TableGeometry};

/// The output of a row-selection box for one branch instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RowSelection {
    /// The selected row (masked by the table geometry on use).
    pub row: u64,
    /// Whether the row was selected by an all-taken history pattern —
    /// the tight-loop pattern whose aliasing the paper classifies as
    /// harmless.
    pub all_taken_pattern: bool,
}

impl RowSelection {
    /// A selection of `row` with no pattern information.
    pub fn plain(row: u64) -> Self {
        RowSelection {
            row,
            all_taken_pattern: false,
        }
    }
}

/// The first level of a two-level predictor: maps a branch address (and
/// internally recorded history) to a row of the second-level table.
///
/// Implementations must be deterministic. The engine calls
/// [`select`](RowSelector::select) once per predicted branch, then
/// [`train`](RowSelector::train) with the resolved outcome.
///
/// # Examples
///
/// A selector that gives even- and odd-word branches different rows:
///
/// ```
/// use bpred_core::{RowSelection, RowSelector, TableGeometry, TwoLevel};
/// use bpred_trace::Outcome;
///
/// #[derive(Debug)]
/// struct ParitySelector;
///
/// impl RowSelector for ParitySelector {
///     fn select(&mut self, pc: u64, _geometry: TableGeometry) -> RowSelection {
///         RowSelection::plain((pc >> 2) & 1)
///     }
///     fn train(&mut self, _pc: u64, _target: u64, _outcome: Outcome, _geometry: TableGeometry) {}
///     fn state_bits(&self) -> u64 {
///         0
///     }
///     fn describe(&self, geometry: TableGeometry) -> String {
///         format!("parity({geometry})")
///     }
/// }
///
/// let p = TwoLevel::with_selector(ParitySelector, TableGeometry::new(1, 4));
/// assert_eq!(p.geometry().rows(), 2);
/// ```
pub trait RowSelector {
    /// Selects the row for the branch at `pc` under `geometry`.
    fn select(&mut self, pc: u64, geometry: TableGeometry) -> RowSelection;

    /// Records the resolved outcome of the branch at `pc`.
    fn train(&mut self, pc: u64, target: u64, outcome: Outcome, geometry: TableGeometry);

    /// Observes a non-conditional control transfer (used by path-based
    /// selectors). The default does nothing.
    fn note_control_transfer(&mut self, record: &BranchRecord) {
        let _ = record;
    }

    /// First-level table statistics, for selectors backed by one
    /// (self-history schemes). The default is `None`.
    fn level1_stats(&self) -> Option<crate::BhtStats> {
        None
    }

    /// First-level storage cost in bits.
    fn state_bits(&self) -> u64;

    /// Scheme name for reports, e.g. `"GAs(2^8 x 2^4)"`.
    fn describe(&self, geometry: TableGeometry) -> String;
}

/// A complete two-level predictor: a [`RowSelector`] in front of an
/// instrumented [`CounterTable`].
///
/// Construct concrete schemes through their aliases and inherent
/// constructors ([`AddressIndexed::new`](crate::AddressIndexed::new),
/// [`Gas::new`](crate::Gas::new), [`Gshare::new`](crate::Gshare::new),
/// [`PathBased::new`](crate::PathBased::new),
/// [`Pas::perfect`](crate::Pas), …) or plug in a custom selector with
/// [`TwoLevel::with_selector`].
#[derive(Debug, Clone)]
pub struct TwoLevel<S> {
    selector: S,
    table: CounterTable,
    /// Selection cached between `predict` and the matching `update`, so
    /// self-history selectors do only one first-level lookup per branch.
    pending: Option<(u64, RowSelection)>,
}

impl<S: RowSelector> TwoLevel<S> {
    /// Builds a predictor from a row selector and a table geometry,
    /// with counters in the default initial state.
    pub fn with_selector(selector: S, geometry: TableGeometry) -> Self {
        TwoLevel {
            selector,
            table: CounterTable::new(geometry),
            pending: None,
        }
    }

    /// The second-level table geometry.
    pub fn geometry(&self) -> TableGeometry {
        self.table.geometry()
    }

    /// Aliasing statistics of the second-level table. Also available
    /// through [`BranchPredictor::alias_stats`] on trait objects.
    pub fn table_alias_stats(&self) -> AliasStats {
        self.table.alias_stats()
    }

    /// The row-selection box.
    pub fn selector(&self) -> &S {
        &self.selector
    }

    /// The second-level table.
    pub fn table(&self) -> &CounterTable {
        &self.table
    }

    fn selection_for(&mut self, pc: u64) -> RowSelection {
        match self.pending.take() {
            Some((cached_pc, sel)) if cached_pc == pc => sel,
            // update() without a matching predict() (or for a different
            // branch): fall back to a fresh selection.
            _ => {
                let geometry = self.table.geometry();
                self.selector.select(pc, geometry)
            }
        }
    }
}

impl<S: RowSelector> BranchPredictor for TwoLevel<S> {
    fn predict(&mut self, pc: u64, _target: u64) -> Outcome {
        let geometry = self.table.geometry();
        let sel = self.selector.select(pc, geometry);
        self.pending = Some((pc, sel));
        self.table
            .access(sel.row, pc >> 2, pc, sel.all_taken_pattern)
    }

    fn update(&mut self, pc: u64, target: u64, outcome: Outcome) {
        let sel = self.selection_for(pc);
        self.table.train(sel.row, pc >> 2, outcome);
        let geometry = self.table.geometry();
        self.selector.train(pc, target, outcome, geometry);
    }

    fn predict_then_update(&mut self, pc: u64, target: u64, outcome: Outcome) -> Outcome {
        // Fused fast path: one second-level cell read-modify-write
        // instead of separate access and train walks. Leaves `pending`
        // exactly as the unfused pair would (consumed); in a fused
        // replay loop it is always already empty, so skip the store.
        if self.pending.is_some() {
            self.pending = None;
        }
        let geometry = self.table.geometry();
        let sel = self.selector.select(pc, geometry);
        let predicted =
            self.table
                .access_train(sel.row, pc >> 2, pc, sel.all_taken_pattern, outcome);
        self.selector.train(pc, target, outcome, geometry);
        predicted
    }

    fn note_control_transfer(&mut self, record: &BranchRecord) {
        self.selector.note_control_transfer(record);
    }

    fn name(&self) -> String {
        self.selector.describe(self.table.geometry())
    }

    fn state_bits(&self) -> u64 {
        self.table.state_bits() + self.selector.state_bits()
    }

    fn alias_stats(&self) -> Option<AliasStats> {
        Some(self.table.alias_stats())
    }

    fn bht_stats(&self) -> Option<crate::BhtStats> {
        self.selector.level1_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Always selects row 0 — degenerate but sufficient to test the
    /// TwoLevel plumbing.
    #[derive(Debug, Default)]
    struct ZeroSelector {
        trains: u64,
        transfers: u64,
    }

    impl RowSelector for ZeroSelector {
        fn select(&mut self, _pc: u64, _geometry: TableGeometry) -> RowSelection {
            RowSelection::plain(0)
        }
        fn train(&mut self, _pc: u64, _target: u64, _outcome: Outcome, _g: TableGeometry) {
            self.trains += 1;
        }
        fn note_control_transfer(&mut self, _record: &BranchRecord) {
            self.transfers += 1;
        }
        fn state_bits(&self) -> u64 {
            7
        }
        fn describe(&self, geometry: TableGeometry) -> String {
            format!("zero({geometry})")
        }
    }

    #[test]
    fn predict_then_update_trains_the_same_cell() {
        let mut p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(0, 0));
        let first = p.predict(0x40, 0);
        assert_eq!(first, Outcome::Taken); // weak-taken default
        p.update(0x40, 0, Outcome::NotTaken);
        p.predict(0x40, 0);
        p.update(0x40, 0, Outcome::NotTaken);
        assert_eq!(p.predict(0x40, 0), Outcome::NotTaken);
    }

    #[test]
    fn selector_train_is_called_once_per_update() {
        let mut p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(0, 0));
        for _ in 0..5 {
            let _ = p.predict(0x40, 0);
            p.update(0x40, 0, Outcome::Taken);
        }
        assert_eq!(p.selector().trains, 5);
    }

    #[test]
    fn update_without_predict_still_works() {
        let mut p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(0, 0));
        p.update(0x40, 0, Outcome::NotTaken);
        p.update(0x40, 0, Outcome::NotTaken);
        assert_eq!(p.predict(0x40, 0), Outcome::NotTaken);
    }

    #[test]
    fn control_transfers_reach_the_selector() {
        let mut p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(0, 0));
        p.note_control_transfer(&BranchRecord::jump(0, 4));
        assert_eq!(p.selector().transfers, 1);
    }

    #[test]
    fn state_bits_sums_table_and_selector() {
        let p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(2, 2));
        assert_eq!(p.state_bits(), 2 * 16 + 7);
    }

    #[test]
    fn name_comes_from_the_selector() {
        let p = TwoLevel::with_selector(ZeroSelector::default(), TableGeometry::new(1, 1));
        assert_eq!(p.name(), "zero(2^1 x 2^1)");
    }
}
