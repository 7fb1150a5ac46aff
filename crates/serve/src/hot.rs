//! Sharded in-memory hot tier: decoded results in front of the pack
//! tier so repeat `/sweep` hits never touch the filesystem.
//!
//! Sixteen shards keyed by the digest's top nibble (the same striping
//! as the pack index and the single-flight table), each an
//! independent mutex over a map plus FIFO insertion queue. Capacity
//! is bounded in bytes — the total budget is split evenly across
//! shards and each shard evicts its oldest entries when it overflows,
//! so the tier can never grow past the budget no matter the digest
//! distribution. A budget of zero disables the tier entirely.
//!
//! Sizes are a proxy: the encoded payload length plus a fixed
//! per-entry overhead, which tracks the decoded footprint closely
//! enough for budgeting (a [`SimResult`] is a few scalars and a short
//! label).

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use bpred_sim::SimResult;

use crate::flight::lock_recover;

const SHARDS: usize = 16;

/// Charged per entry on top of the payload size: map/queue slots and
/// the `SimResult` struct itself.
const ENTRY_OVERHEAD: u64 = 64;

#[derive(Debug, Default)]
struct Shard {
    map: HashMap<u128, (SimResult, u64)>,
    /// Insertion order; each digest appears at most once because
    /// re-inserting an existing key does not re-queue it.
    queue: VecDeque<u128>,
    bytes: u64,
}

/// The bounded in-memory result tier.
#[derive(Debug)]
pub struct HotTier {
    shards: [Mutex<Shard>; SHARDS],
    shard_budget: u64,
    /// Live byte total across shards, readable without locking (the
    /// `bpred_store_hot_bytes` gauge).
    bytes: AtomicU64,
}

impl HotTier {
    /// A tier holding at most `budget_bytes` in total; zero disables.
    pub fn new(budget_bytes: u64) -> HotTier {
        HotTier {
            shards: std::array::from_fn(|_| Mutex::new(Shard::default())),
            shard_budget: budget_bytes / SHARDS as u64,
            bytes: AtomicU64::new(0),
        }
    }

    fn shard(&self, digest: u128) -> std::sync::MutexGuard<'_, Shard> {
        let nibble = (digest >> 124) as usize & 0xf;
        lock_recover(&self.shards[nibble])
    }

    /// Whether the tier accepts entries at all.
    pub fn enabled(&self) -> bool {
        self.shard_budget > 0
    }

    /// Looks up a decoded result.
    pub fn get(&self, digest: u128) -> Option<SimResult> {
        if !self.enabled() {
            return None;
        }
        self.shard(digest).map.get(&digest).map(|(r, _)| r.clone())
    }

    /// Inserts (or refreshes) a result whose encoded payload was
    /// `payload_len` bytes, evicting oldest entries in the shard
    /// until it fits its budget slice.
    pub fn put(&self, digest: u128, result: &SimResult, payload_len: usize) {
        if !self.enabled() {
            return;
        }
        let size = payload_len as u64 + ENTRY_OVERHEAD;
        let mut shard = self.shard(digest);
        match shard.map.insert(digest, (result.clone(), size)) {
            Some((_, old_size)) => {
                shard.bytes = shard.bytes - old_size + size;
                self.bytes.fetch_add(size, Ordering::Relaxed);
                self.bytes.fetch_sub(old_size, Ordering::Relaxed);
            }
            None => {
                shard.queue.push_back(digest);
                shard.bytes += size;
                self.bytes.fetch_add(size, Ordering::Relaxed);
            }
        }
        while shard.bytes > self.shard_budget {
            let Some(oldest) = shard.queue.pop_front() else {
                break;
            };
            if let Some((_, evicted)) = shard.map.remove(&oldest) {
                shard.bytes -= evicted;
                self.bytes.fetch_sub(evicted, Ordering::Relaxed);
            }
        }
    }

    /// Drops one entry (a corrupt or superseded cell).
    pub fn forget(&self, digest: u128) {
        if !self.enabled() {
            return;
        }
        let mut shard = self.shard(digest);
        if let Some((_, size)) = shard.map.remove(&digest) {
            shard.bytes -= size;
            self.bytes.fetch_sub(size, Ordering::Relaxed);
            shard.queue.retain(|&d| d != digest);
        }
    }

    /// Current resident bytes (charged, including overhead).
    pub fn bytes(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// Resident entries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }

    /// Returns `true` when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total byte budget across shards.
    pub fn budget(&self) -> u64 {
        self.shard_budget * SHARDS as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn result(tag: u64) -> SimResult {
        SimResult {
            predictor: format!("p{tag}"),
            state_bits: tag,
            conditionals: 100,
            mispredictions: tag,
            alias: None,
            bht: None,
        }
    }

    #[test]
    fn round_trips_and_tracks_bytes() {
        let tier = HotTier::new(1 << 20);
        tier.put(1, &result(1), 100);
        tier.put(2, &result(2), 100);
        assert_eq!(tier.get(1).unwrap().state_bits, 1);
        assert_eq!(tier.len(), 2);
        assert_eq!(tier.bytes(), 2 * (100 + ENTRY_OVERHEAD));
        tier.forget(1);
        assert!(tier.get(1).is_none());
        assert_eq!(tier.bytes(), 100 + ENTRY_OVERHEAD);
    }

    #[test]
    fn zero_budget_disables_the_tier() {
        let tier = HotTier::new(0);
        tier.put(1, &result(1), 100);
        assert!(tier.get(1).is_none());
        assert_eq!(tier.bytes(), 0);
    }

    #[test]
    fn eviction_keeps_every_shard_under_its_slice() {
        // Budget for ~4 entries per shard at this size.
        let size = 200u64;
        let per_entry = size + ENTRY_OVERHEAD;
        let tier = HotTier::new(per_entry * 4 * SHARDS as u64);
        // Hammer one shard (top nibble 0) with many entries.
        for i in 0..64u128 {
            tier.put(i, &result(i as u64), size as usize);
        }
        assert!(
            tier.bytes() <= tier.budget(),
            "{} > {}",
            tier.bytes(),
            tier.budget()
        );
        // Oldest entries in the hammered shard are gone, newest stay.
        assert!(tier.get(0).is_none());
        assert!(tier.get(63).is_some());
    }

    #[test]
    fn refreshing_an_entry_does_not_double_charge() {
        let tier = HotTier::new(1 << 20);
        tier.put(5, &result(1), 100);
        tier.put(5, &result(2), 300);
        assert_eq!(tier.len(), 1);
        assert_eq!(tier.bytes(), 300 + ENTRY_OVERHEAD);
        assert_eq!(tier.get(5).unwrap().state_bits, 2);
    }

    #[test]
    fn oversized_entry_is_admitted_then_evicted() {
        let tier = HotTier::new(SHARDS as u64 * 64);
        tier.put(1, &result(1), 10_000);
        assert!(tier.get(1).is_none(), "cannot ever fit");
        assert_eq!(tier.bytes(), 0);
    }
}
