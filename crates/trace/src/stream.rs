use std::fmt;
use std::ops::Index;

use crate::{BranchRecord, Outcome};

/// An in-memory branch trace: an ordered sequence of [`BranchRecord`]s.
///
/// `Trace` is the unit of work for the simulation engine: workload
/// generators produce one, the engine replays it against a predictor, and
/// sweeps share a single immutable trace across worker threads.
///
/// # Examples
///
/// ```
/// use bpred_trace::{BranchRecord, Outcome, Trace};
///
/// let mut trace = Trace::new();
/// trace.push(BranchRecord::conditional(0x40, 0x20, Outcome::Taken));
/// trace.push(BranchRecord::conditional(0x44, 0x60, Outcome::NotTaken));
/// assert_eq!(trace.len(), 2);
/// assert_eq!(trace.conditional_len(), 2);
/// assert_eq!(trace[0].pc, 0x40);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Trace {
    records: Vec<BranchRecord>,
}

impl Trace {
    /// Creates an empty trace.
    #[inline]
    pub fn new() -> Self {
        Trace::default()
    }

    /// Creates an empty trace with room for `capacity` records.
    #[inline]
    pub fn with_capacity(capacity: usize) -> Self {
        Trace {
            records: Vec::with_capacity(capacity),
        }
    }

    /// Wraps an existing record vector without copying.
    #[inline]
    pub fn from_records(records: Vec<BranchRecord>) -> Self {
        Trace { records }
    }

    /// Appends a record.
    #[inline]
    pub fn push(&mut self, record: BranchRecord) {
        self.records.push(record);
    }

    /// Number of records (all kinds).
    #[inline]
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns `true` if the trace holds no records.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Number of conditional-branch records.
    pub fn conditional_len(&self) -> usize {
        self.records.iter().filter(|r| r.is_conditional()).count()
    }

    /// Fraction of conditional branches that were taken, or `None` for a
    /// trace without conditional branches.
    pub fn taken_rate(&self) -> Option<f64> {
        let mut cond = 0u64;
        let mut taken = 0u64;
        for r in self.records.iter().filter(|r| r.is_conditional()) {
            cond += 1;
            if r.outcome == Outcome::Taken {
                taken += 1;
            }
        }
        (cond > 0).then(|| taken as f64 / cond as f64)
    }

    /// The records as a slice.
    #[inline]
    pub fn records(&self) -> &[BranchRecord] {
        &self.records
    }

    /// Iterates over records by reference.
    #[inline]
    pub fn iter(&self) -> Iter<'_> {
        Iter {
            inner: self.records.iter(),
        }
    }

    /// Extracts the underlying record vector.
    #[inline]
    pub fn into_records(self) -> Vec<BranchRecord> {
        self.records
    }

    /// A new trace holding only the first `n` records (or all of them if
    /// the trace is shorter).
    pub fn truncated(&self, n: usize) -> Trace {
        Trace {
            records: self.records[..n.min(self.records.len())].to_vec(),
        }
    }

    /// A stable content fingerprint of the record sequence.
    ///
    /// Two traces have the same fingerprint exactly when they hold the
    /// same records in the same order (up to 64-bit hash collisions).
    /// The value is an FNV-1a hash over the canonical binary encoding
    /// ([`binfmt`](crate::binfmt)), written straight into the hasher,
    /// so it is identical across platforms and releases and can key
    /// persistent caches of simulation results for on-disk traces.
    pub fn fingerprint(&self) -> u64 {
        crate::binfmt::write_trace(crate::fnv::Fnv64::new(), self)
            .expect("hashing cannot fail")
            .finish()
    }
}

impl Index<usize> for Trace {
    type Output = BranchRecord;

    #[inline]
    fn index(&self, index: usize) -> &BranchRecord {
        &self.records[index]
    }
}

impl Extend<BranchRecord> for Trace {
    fn extend<T: IntoIterator<Item = BranchRecord>>(&mut self, iter: T) {
        self.records.extend(iter);
    }
}

impl FromIterator<BranchRecord> for Trace {
    fn from_iter<T: IntoIterator<Item = BranchRecord>>(iter: T) -> Self {
        Trace {
            records: iter.into_iter().collect(),
        }
    }
}

impl IntoIterator for Trace {
    type Item = BranchRecord;
    type IntoIter = std::vec::IntoIter<BranchRecord>;

    fn into_iter(self) -> Self::IntoIter {
        self.records.into_iter()
    }
}

impl<'a> IntoIterator for &'a Trace {
    type Item = &'a BranchRecord;
    type IntoIter = Iter<'a>;

    fn into_iter(self) -> Iter<'a> {
        self.iter()
    }
}

impl From<Vec<BranchRecord>> for Trace {
    fn from(records: Vec<BranchRecord>) -> Self {
        Trace::from_records(records)
    }
}

/// Borrowing iterator over a [`Trace`], produced by [`Trace::iter`].
#[derive(Debug, Clone)]
pub struct Iter<'a> {
    inner: std::slice::Iter<'a, BranchRecord>,
}

impl<'a> Iterator for Iter<'a> {
    type Item = &'a BranchRecord;

    #[inline]
    fn next(&mut self) -> Option<&'a BranchRecord> {
        self.inner.next()
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        self.inner.size_hint()
    }
}

impl ExactSizeIterator for Iter<'_> {}

impl fmt::Display for Trace {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "trace of {} records ({} conditional)",
            self.len(),
            self.conditional_len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BranchKind;

    fn sample() -> Trace {
        vec![
            BranchRecord::conditional(0x40, 0x20, Outcome::Taken),
            BranchRecord::jump(0x44, 0x80),
            BranchRecord::conditional(0x80, 0x40, Outcome::NotTaken),
            BranchRecord::conditional(0x84, 0xc0, Outcome::Taken),
        ]
        .into_iter()
        .collect()
    }

    #[test]
    fn collect_and_len() {
        let t = sample();
        assert_eq!(t.len(), 4);
        assert_eq!(t.conditional_len(), 3);
        assert!(!t.is_empty());
    }

    #[test]
    fn taken_rate_counts_only_conditionals() {
        let t = sample();
        let rate = t.taken_rate().unwrap();
        assert!((rate - 2.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn taken_rate_empty_is_none() {
        assert_eq!(Trace::new().taken_rate(), None);
        let only_jumps: Trace = std::iter::once(BranchRecord::jump(0, 4)).collect();
        assert_eq!(only_jumps.taken_rate(), None);
    }

    #[test]
    fn indexing_and_iteration_agree() {
        let t = sample();
        let via_iter: Vec<_> = t.iter().copied().collect();
        for (i, r) in via_iter.iter().enumerate() {
            assert_eq!(&t[i], r);
        }
        assert_eq!(t.iter().len(), t.len());
    }

    #[test]
    fn extend_appends_in_order() {
        let mut t = Trace::new();
        t.extend(sample());
        t.extend(std::iter::once(BranchRecord::new(
            0x100,
            0x104,
            BranchKind::Return,
            Outcome::Taken,
        )));
        assert_eq!(t.len(), 5);
        assert_eq!(t[4].kind, BranchKind::Return);
    }

    #[test]
    fn truncated_keeps_prefix() {
        let t = sample();
        let head = t.truncated(2);
        assert_eq!(head.len(), 2);
        assert_eq!(head[1], t[1]);
        assert_eq!(t.truncated(100).len(), t.len());
        assert!(t.truncated(0).is_empty());
    }

    #[test]
    fn into_records_round_trips() {
        let t = sample();
        let records = t.clone().into_records();
        assert_eq!(Trace::from_records(records), t);
    }

    #[test]
    fn display_summarises() {
        assert_eq!(sample().to_string(), "trace of 4 records (3 conditional)");
    }

    #[test]
    fn fingerprint_tracks_content() {
        let t = sample();
        assert_eq!(t.fingerprint(), t.clone().fingerprint());
        assert_ne!(t.fingerprint(), t.truncated(2).fingerprint());
        let mut reordered = t.clone().into_records();
        reordered.swap(0, 1);
        assert_ne!(
            t.fingerprint(),
            Trace::from_records(reordered).fingerprint()
        );
        assert_eq!(Trace::new().fingerprint(), Trace::new().fingerprint());
    }
}
