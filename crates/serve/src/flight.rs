//! Single-flight deduplication of concurrent identical work.
//!
//! When several requests want the same sweep cell at the same time,
//! only one should simulate it; the rest should wait for that result
//! instead of burning cores on duplicate replays. [`Flight::join`]
//! decides which: the first caller for a key becomes the **leader**
//! (and must eventually [`complete`](LeaderGuard::complete) the
//! value), later callers become **followers** and block on
//! [`Waiter::wait`] until the leader publishes.
//!
//! If a leader drops its guard without completing (panic,
//! early-return), the slot is marked aborted and waiters receive
//! `None` — they fall back to computing on their own, so a crashed
//! leader never deadlocks the service.
//!
//! Poisoning is contained by construction: every lock in this module
//! recovers a poisoned guard with
//! [`into_inner`](std::sync::PoisonError::into_inner) rather than
//! propagating the panic. A computation that panics therefore aborts
//! only its own entry — the group stays usable, and a guard dropped
//! during unwind never double-panics.

use std::collections::HashMap;
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Locks `mutex`, shrugging off poison: flight state transitions are
/// single assignments, so a poisoned guard's data is still coherent.
pub(crate) fn lock_recover<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex.lock().unwrap_or_else(|e| e.into_inner())
}

#[derive(Debug)]
enum Slot<V> {
    Waiting,
    Done(V),
    Aborted,
}

#[derive(Debug)]
struct Shared<V> {
    slots: Mutex<HashMap<String, Arc<Cell<V>>>>,
}

#[derive(Debug)]
struct Cell<V> {
    state: Mutex<Slot<V>>,
    ready: Condvar,
}

/// A single-flight group over string keys.
#[derive(Debug)]
pub struct Flight<V> {
    shared: Arc<Shared<V>>,
}

impl<V: Clone> Default for Flight<V> {
    fn default() -> Self {
        Flight::new()
    }
}

impl<V: Clone> Flight<V> {
    /// An empty group.
    pub fn new() -> Self {
        Flight {
            shared: Arc::new(Shared {
                slots: Mutex::new(HashMap::new()),
            }),
        }
    }

    /// Joins the flight for `key`: the first concurrent caller leads,
    /// the rest follow.
    pub fn join(&self, key: &str) -> Join<V> {
        let mut slots = lock_recover(&self.shared.slots);
        if let Some(cell) = slots.get(key) {
            return Join::Follower(Waiter { cell: cell.clone() });
        }
        let cell = Arc::new(Cell {
            state: Mutex::new(Slot::Waiting),
            ready: Condvar::new(),
        });
        slots.insert(key.to_owned(), cell.clone());
        Join::Leader(LeaderGuard {
            key: key.to_owned(),
            cell,
            shared: self.shared.clone(),
            completed: false,
        })
    }
}

/// Outcome of [`Flight::join`].
#[derive(Debug)]
pub enum Join<V> {
    /// This caller computes the value and must
    /// [`complete`](LeaderGuard::complete) it.
    Leader(LeaderGuard<V>),
    /// Another caller is already computing; [`wait`](Waiter::wait) for
    /// it.
    Follower(Waiter<V>),
}

/// Leadership of one in-flight key. Dropping without
/// [`complete`](Self::complete) aborts the flight and releases
/// waiters empty-handed.
#[derive(Debug)]
pub struct LeaderGuard<V> {
    key: String,
    cell: Arc<Cell<V>>,
    shared: Arc<Shared<V>>,
    completed: bool,
}

impl<V> LeaderGuard<V> {
    /// Publishes the computed value to every waiter and retires the
    /// key from the in-flight set.
    pub fn complete(mut self, value: V) {
        self.finish(Slot::Done(value));
        self.completed = true;
    }

    fn finish(&self, slot: Slot<V>) {
        {
            let mut state = lock_recover(&self.cell.state);
            *state = slot;
        }
        self.cell.ready.notify_all();
        lock_recover(&self.shared.slots).remove(&self.key);
    }
}

impl<V> Drop for LeaderGuard<V> {
    fn drop(&mut self) {
        if !self.completed {
            self.finish(Slot::Aborted);
        }
    }
}

/// A follower's handle on an in-flight computation.
#[derive(Debug)]
pub struct Waiter<V> {
    cell: Arc<Cell<V>>,
}

impl<V: Clone> Waiter<V> {
    /// Blocks until the leader publishes. `None` means the leader
    /// aborted; the caller should compute the value itself.
    pub fn wait(self) -> Option<V> {
        let mut state = lock_recover(&self.cell.state);
        loop {
            match &*state {
                Slot::Waiting => {
                    state = self
                        .cell
                        .ready
                        .wait(state)
                        .unwrap_or_else(|e| e.into_inner());
                }
                Slot::Done(v) => return Some(v.clone()),
                Slot::Aborted => return None,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::thread;
    use std::time::Duration;

    #[test]
    fn sequential_joins_all_lead() {
        let flight: Flight<u32> = Flight::new();
        for i in 0..3 {
            match flight.join("k") {
                Join::Leader(guard) => guard.complete(i),
                Join::Follower(_) => panic!("no concurrent work: must lead"),
            }
        }
    }

    #[test]
    fn followers_receive_the_leaders_value() {
        let flight: Arc<Flight<u64>> = Arc::new(Flight::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let mut handles = Vec::new();
        for _ in 0..8 {
            let flight = flight.clone();
            let computes = computes.clone();
            handles.push(thread::spawn(move || match flight.join("cell") {
                Join::Leader(guard) => {
                    computes.fetch_add(1, Ordering::SeqCst);
                    thread::sleep(Duration::from_millis(20));
                    guard.complete(42);
                    42
                }
                Join::Follower(waiter) => waiter.wait().expect("leader completes"),
            }));
        }
        for h in handles {
            assert_eq!(h.join().expect("no panics"), 42);
        }
        // At least one thread led; every leader that ran concurrently
        // was the sole computer for its span. With an immediate-retire
        // race a later thread may lead a second flight, but the common
        // case (all spawned within the sleep) is exactly one compute.
        assert!(computes.load(Ordering::SeqCst) >= 1);
    }

    #[test]
    fn aborted_leader_releases_waiters() {
        let flight: Arc<Flight<u8>> = Arc::new(Flight::new());
        let Join::Leader(guard) = flight.join("k") else {
            panic!("first join leads");
        };
        let follower = {
            let flight = flight.clone();
            thread::spawn(move || match flight.join("k") {
                Join::Follower(w) => w.wait(),
                Join::Leader(_) => panic!("leader already present"),
            })
        };
        thread::sleep(Duration::from_millis(20));
        drop(guard); // abort
        assert_eq!(follower.join().expect("no panic"), None);
        // The key is free again: the next join leads.
        assert!(matches!(flight.join("k"), Join::Leader(_)));
    }

    #[test]
    fn panicking_leader_poisons_only_its_own_entry() {
        let flight: Arc<Flight<u8>> = Arc::new(Flight::new());

        // A waiter joins behind the doomed leader.
        let Join::Leader(guard) = flight.join("doomed") else {
            panic!("first join leads");
        };
        let waiter = {
            let flight = flight.clone();
            thread::spawn(move || match flight.join("doomed") {
                Join::Follower(w) => w.wait(),
                Join::Leader(_) => panic!("leader already present"),
            })
        };
        thread::sleep(Duration::from_millis(20));

        // The computation panics while the guard is live — and, worse,
        // while holding the cell's state lock, so the mutex really is
        // poisoned when the guard's Drop runs during unwind.
        let panicked = thread::spawn(move || {
            let _held = guard.cell.state.lock().unwrap();
            panic!("compute exploded");
        })
        .join();
        assert!(panicked.is_err(), "the compute thread panicked");

        // The waiter is released empty-handed (retry signal), not hung
        // and not panicking on propagated poison.
        assert_eq!(waiter.join().expect("waiter must not panic"), None);

        // The poisoned entry is gone; the key and the whole group keep
        // working for later callers.
        match flight.join("doomed") {
            Join::Leader(g) => g.complete(7),
            Join::Follower(_) => panic!("aborted key must be free"),
        }
        match flight.join("unrelated") {
            Join::Leader(g) => g.complete(9),
            Join::Follower(_) => panic!("other keys unaffected"),
        }
    }

    #[test]
    fn waiter_survives_poison_raced_during_wait() {
        // Poison the slots map itself (panic while holding it) and
        // check join still works afterwards.
        let flight: Arc<Flight<u8>> = Arc::new(Flight::new());
        let poisoner = {
            let flight = flight.clone();
            thread::spawn(move || {
                let _guard = flight.shared.slots.lock().unwrap();
                panic!("poison the slots map");
            })
        };
        assert!(poisoner.join().is_err());
        match flight.join("after-poison") {
            Join::Leader(g) => g.complete(1),
            Join::Follower(_) => panic!("join must recover from poison"),
        }
    }

    #[test]
    fn distinct_keys_do_not_interfere() {
        let flight: Flight<u8> = Flight::new();
        let Join::Leader(a) = flight.join("a") else {
            panic!("leads");
        };
        let Join::Leader(b) = flight.join("b") else {
            panic!("distinct key must lead");
        };
        a.complete(1);
        b.complete(2);
    }
}
