use bpred_trace::Outcome;

use crate::cell;
use crate::{AliasStats, CounterState, TableGeometry, TwoBitCounter};

/// The second-level table shared by every "A" scheme: a
/// [`TableGeometry`]-shaped array of [`TwoBitCounter`]s with built-in
/// aliasing instrumentation.
///
/// Every access funnels through [`CounterTable::access`], which performs
/// conflict detection (remembering the last branch address that touched
/// each counter, the paper's direct-mapped-cache analogy) before
/// returning the prediction. Training goes through
/// [`CounterTable::train`].
///
/// # Examples
///
/// ```
/// use bpred_core::{CounterTable, TableGeometry};
/// use bpred_trace::Outcome;
///
/// let mut t = CounterTable::new(TableGeometry::new(0, 2));
/// // Branches at word addresses 0 and 4 share column 0 of 4: a conflict.
/// let _ = t.access(0, 0, 0x00, false);
/// let _ = t.access(0, 0, 0x10, false);
/// assert_eq!(t.alias_stats().conflicts, 1);
/// ```
#[derive(Debug, Clone)]
pub struct CounterTable {
    geometry: TableGeometry,
    /// One [`cell`] word per counter: the low 62 bits of the branch
    /// address that last accessed it (the conflict-detection tag;
    /// [`cell::EMPTY_OWNER`] marks an untouched counter) packed above
    /// the two counter bits. One cache line per access instead of two
    /// parallel arrays — this is the single hottest load/store pair in
    /// the replay loop. Cell transitions live in [`cell`], the one
    /// definition shared with the multilane replay kernels.
    cells: Vec<u64>,
    stats: AliasStats,
}

impl CounterTable {
    /// Creates a table with every counter in the workspace default
    /// initial state (weakly taken).
    pub fn new(geometry: TableGeometry) -> Self {
        Self::with_initial_state(geometry, TwoBitCounter::default().state())
    }

    /// Creates a table with every counter in `initial` state.
    pub fn with_initial_state(geometry: TableGeometry, initial: CounterState) -> Self {
        let n = geometry.counters() as usize;
        CounterTable {
            geometry,
            cells: vec![cell::fresh(initial.bits()); n],
            stats: AliasStats::default(),
        }
    }

    /// The cell index for `(row, col)`. Masking by `len - 1` (sizes are
    /// powers of two) is a no-op — the geometry index is already in
    /// range — but lets the compiler drop the bounds check in the
    /// replay hot loop.
    #[inline]
    fn cell_index(&self, row: u64, col: u64) -> usize {
        self.geometry.index(row, col) & (self.cells.len() - 1)
    }

    /// The table shape.
    #[inline]
    pub fn geometry(&self) -> TableGeometry {
        self.geometry
    }

    /// Accumulated aliasing statistics.
    #[inline]
    pub fn alias_stats(&self) -> AliasStats {
        self.stats
    }

    /// Storage cost of the counters, in bits.
    #[inline]
    pub fn state_bits(&self) -> u64 {
        2 * self.geometry.counters()
    }

    /// Reads the prediction for `(row, col)` on behalf of the branch at
    /// address `pc`, recording aliasing statistics.
    ///
    /// `all_taken_pattern` tells the instrumentation whether the row was
    /// selected by an all-ones history pattern (harmless tight-loop
    /// aliasing). Row and column are masked by the geometry, so callers
    /// may pass raw registers and word addresses.
    #[inline]
    pub fn access(&mut self, row: u64, col: u64, pc: u64, all_taken_pattern: bool) -> Outcome {
        let idx = self.cell_index(row, col);
        let (predicted, conflict, next) = cell::touch(self.cells[idx], cell::tag(pc));
        self.stats.record_access(conflict, all_taken_pattern);
        self.cells[idx] = next;
        predicted
    }

    /// Fused [`access`](CounterTable::access) followed by
    /// [`train`](CounterTable::train) on the same cell: one index
    /// computation and one cell read-modify-write instead of two of
    /// each. Observable behaviour is identical to the unfused pair —
    /// the prediction returned is the counter state *before* training.
    #[inline]
    pub fn access_train(
        &mut self,
        row: u64,
        col: u64,
        pc: u64,
        all_taken_pattern: bool,
        outcome: Outcome,
    ) -> Outcome {
        let idx = self.cell_index(row, col);
        let (predicted, conflict, next) = cell::step(self.cells[idx], cell::tag(pc), outcome);
        self.stats.record_access(conflict, all_taken_pattern);
        self.cells[idx] = next;
        predicted
    }

    /// Reads the prediction without touching instrumentation — for
    /// chooser-style consultations that are not table accesses in the
    /// paper's accounting (e.g. the losing side of a combining
    /// predictor).
    #[inline]
    pub fn peek(&self, row: u64, col: u64) -> Outcome {
        cell::predicted(self.cells[self.cell_index(row, col)])
    }

    /// Trains the counter at `(row, col)` with the resolved outcome.
    #[inline]
    pub fn train(&mut self, row: u64, col: u64, outcome: Outcome) {
        let idx = self.cell_index(row, col);
        self.cells[idx] = cell::retrain(self.cells[idx], outcome);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_table_predicts_initial_state() {
        let t = CounterTable::new(TableGeometry::new(2, 2));
        assert_eq!(t.peek(0, 0), Outcome::Taken); // weak taken default
        let t = CounterTable::with_initial_state(
            TableGeometry::new(2, 2),
            CounterState::StrongNotTaken,
        );
        assert_eq!(t.peek(3, 3), Outcome::NotTaken);
    }

    #[test]
    fn training_moves_only_the_addressed_counter() {
        let mut t = CounterTable::new(TableGeometry::new(1, 1));
        t.train(0, 0, Outcome::NotTaken);
        t.train(0, 0, Outcome::NotTaken);
        assert_eq!(t.peek(0, 0), Outcome::NotTaken);
        assert_eq!(t.peek(0, 1), Outcome::Taken);
        assert_eq!(t.peek(1, 0), Outcome::Taken);
    }

    #[test]
    fn first_access_is_not_a_conflict() {
        let mut t = CounterTable::new(TableGeometry::new(0, 0));
        let _ = t.access(0, 0, 0x40, false);
        assert_eq!(t.alias_stats().conflicts, 0);
        assert_eq!(t.alias_stats().accesses, 1);
    }

    #[test]
    fn repeat_access_by_same_branch_is_not_a_conflict() {
        let mut t = CounterTable::new(TableGeometry::new(0, 0));
        for _ in 0..10 {
            let _ = t.access(0, 0, 0x40, false);
        }
        assert_eq!(t.alias_stats().conflicts, 0);
    }

    #[test]
    fn alternating_branches_conflict_every_access() {
        let mut t = CounterTable::new(TableGeometry::new(0, 0));
        let _ = t.access(0, 0, 0x40, false);
        for _ in 0..9 {
            let _ = t.access(0, 0, 0x44, false);
            let _ = t.access(0, 0, 0x40, false);
        }
        // every access after the first hits a counter last touched by
        // the other branch
        assert_eq!(t.alias_stats().conflicts, 18);
        assert_eq!(t.alias_stats().accesses, 19);
    }

    #[test]
    fn distinct_cells_do_not_conflict() {
        let mut t = CounterTable::new(TableGeometry::new(1, 1));
        let _ = t.access(0, 0, 0x40, false);
        let _ = t.access(0, 1, 0x44, false);
        let _ = t.access(1, 0, 0x48, false);
        let _ = t.access(1, 1, 0x4c, false);
        assert_eq!(t.alias_stats().conflicts, 0);
    }

    #[test]
    fn harmless_flag_is_threaded_through() {
        let mut t = CounterTable::new(TableGeometry::new(0, 0));
        let _ = t.access(0, 0, 0x40, true);
        let _ = t.access(0, 0, 0x44, true);
        let _ = t.access(0, 0, 0x48, false);
        let s = t.alias_stats();
        assert_eq!(s.conflicts, 2);
        assert_eq!(s.harmless_conflicts, 1);
    }

    #[test]
    fn peek_does_not_count_as_access() {
        let mut t = CounterTable::new(TableGeometry::new(0, 1));
        let _ = t.peek(0, 0);
        assert_eq!(t.alias_stats().accesses, 0);
        let _ = t.access(0, 0, 0x40, false);
        assert_eq!(t.alias_stats().accesses, 1);
    }

    #[test]
    fn state_bits_counts_two_per_counter() {
        let t = CounterTable::new(TableGeometry::new(3, 2));
        assert_eq!(t.state_bits(), 2 * 32);
    }

    #[test]
    fn access_and_train_agree_on_indexing() {
        let mut t = CounterTable::new(TableGeometry::new(2, 2));
        // Train (2,1) down to not-taken, then read it back via access
        // with unmasked raw values that alias to the same cell.
        t.train(2, 1, Outcome::NotTaken);
        t.train(2, 1, Outcome::NotTaken);
        let raw_row = 2 | (1 << 60);
        let raw_col = 1 | (1 << 60);
        assert_eq!(t.access(raw_row, raw_col, 0x40, false), Outcome::NotTaken);
    }
}
