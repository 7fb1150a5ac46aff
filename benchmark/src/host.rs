//! The host-speed reference pass, and times expressed at reference
//! speed.
//!
//! The benchmark runs on shared hosts whose speed drifts under it: on
//! the 2-vCPU host it was written on, one `all --branches 20000`
//! reproduction took anywhere from 0.85 s to 1.7 s, in states that held
//! from a second to half a minute, with CPU time tracking wall time
//! (the program is not descheduled, it runs slower). A fixed pass of
//! the benchmark's own code, timed right after each measured operation,
//! slows with the host but never with the repository's code, so
//! `measured × REFERENCE_MS / reference` is the operation's time at
//! one fixed host speed. Over two sets of ten 25-second runs per
//! workload on that host, while it ran up to 1.9× slow, the run's
//! median wall time spread (interquartile range over the median)
//! 0.27–0.50 from run to run; scaled by the pass timed after each
//! operation, 0.03–0.09. The scaling is not exact: in runs
//! where the host ran 1.4–1.9× slow, scaled times still read up to 9%
//! high for the narrow sweep and 4% high for a reproduction, and 5% low
//! for served requests.
//!
//! The pass is two gshare-like walks: a xorshift branch stream
//! indexing 2-bit counters by address xor history, the same kind of
//! work as the simulator's, once over a 4 KiB table that stays in the
//! first-level cache and once over a 4 MiB table that spills the
//! private caches, as the paper's larger tiers do. In a half-hour probe
//! the two walks together tracked both a narrow sweep and a
//! reproduction more closely than either walk alone.

use std::time::Instant;

/// The walks of one pass: (table bytes, branches simulated). A fresh
/// table each walk.
const WALKS: [(usize, u64); 2] = [(1 << 12, 1_500_000), (1 << 22, 1_000_000)];
/// Milliseconds a pass takes at reference speed: about its time on the
/// host the benchmark was written on while that host was not slowed.
pub const REFERENCE_MS: f64 = 20.0;

/// Runs one reference pass; returns its wall time in milliseconds.
pub fn reference_pass() -> f64 {
    let start = Instant::now();
    for (bytes, steps) in WALKS {
        std::hint::black_box(walk(bytes, std::hint::black_box(steps)));
    }
    start.elapsed().as_secs_f64() * 1e3
}

/// One walk of `steps` branches over a fresh table of `bytes` 2-bit
/// counters; returns the mispredictions.
fn walk(bytes: usize, steps: u64) -> u64 {
    let mask = bytes - 1;
    let mut table = vec![1u8; bytes];
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut history = 0usize;
    let mut mispredicted = 0u64;
    for _ in 0..steps {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let pc = (x >> 20) as usize & 0xfff;
        let taken = (x & 7) < 5;
        let i = (pc ^ history) & mask;
        let counter = table[i];
        if (counter >= 2) != taken {
            mispredicted += 1;
        }
        table[i] = if taken {
            (counter + 1).min(3)
        } else {
            counter.saturating_sub(1)
        };
        history = ((history << 1) | usize::from(taken)) & mask;
    }
    std::hint::black_box(&table);
    mispredicted
}

/// Host speed relative to reference speed, from one pass: above 1 when
/// the host runs slower than reference. Divide a measured time by it
/// (multiply a rate) to express it at reference speed.
pub fn slowdown(reference_ms: f64) -> f64 {
    reference_ms / REFERENCE_MS
}

/// Times `op`, then runs a reference pass. Returns `op`'s value, its
/// wall time in seconds, and the host's slowdown right after it.
pub fn timed<T>(op: impl FnOnce() -> T) -> (T, f64, f64) {
    let start = Instant::now();
    let value = op();
    let secs = start.elapsed().as_secs_f64();
    (value, secs, slowdown(reference_pass()))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_pass_takes_time_and_scales_times_to_reference_speed() {
        let ms = reference_pass();
        assert!(ms > 0.0 && ms < 10_000.0, "{ms}");
        assert_eq!(slowdown(REFERENCE_MS), 1.0);
        assert_eq!(slowdown(2.0 * REFERENCE_MS), 2.0);
        let (value, secs, factor) = timed(|| 7);
        assert_eq!(value, 7);
        assert!(secs >= 0.0 && factor > 0.0);
    }
}
