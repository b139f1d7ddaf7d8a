//! A published snapshot cell: the latest `Arc<T>` behind one lock.
//!
//! A publisher swaps in a whole new value; a reader clones the `Arc` out and
//! keeps its snapshot for as long as it likes, so no reader ever sees a torn
//! or partially built value and a long-lived snapshot never blocks a
//! publish. Both sides hold the lock only for an `Arc` clone or swap. Each
//! publish bumps an epoch counter stored with the value, so returned
//! snapshots are monotone in publish order — the prefix-consistency contract
//! the `TOPK`/`STATS` paths advertise.
//!
//! Lock poisoning cannot occur: no user code runs inside the critical
//! section (the replaced value is dropped after the lock is released), and
//! both paths recover the inner value from a [`std::sync::PoisonError`]
//! anyway rather than panicking.
//!
//! ```
//! use std::sync::Arc;
//! use sitfact_core::snapshot::SnapshotCell;
//!
//! let cell = SnapshotCell::new(Arc::new(vec![1, 2, 3]));
//! assert_eq!(*cell.load(), vec![1, 2, 3]);
//! cell.publish(Arc::new(vec![4, 5]));
//! assert_eq!(*cell.load(), vec![4, 5]);
//! assert_eq!(cell.epoch(), 1);
//! ```

use std::sync::{Arc, RwLock, RwLockReadGuard};

/// A single-value cell whose readers see the most recently published
/// `Arc<T>`.
///
/// The serving layer publishes one snapshot per ingest/window boundary and
/// loads one per `TOPK`/`STATS` request.
#[derive(Debug)]
pub struct SnapshotCell<T> {
    /// The number of publishes so far, and the latest value.
    current: RwLock<(u64, Arc<T>)>,
}

impl<T> SnapshotCell<T> {
    /// Creates a cell whose readers initially observe `initial` (epoch 0).
    pub fn new(initial: Arc<T>) -> Self {
        SnapshotCell {
            current: RwLock::new((0, initial)),
        }
    }

    fn read(&self) -> RwLockReadGuard<'_, (u64, Arc<T>)> {
        self.current
            .read()
            .unwrap_or_else(|poison| poison.into_inner())
    }

    /// Returns the most recently published value.
    pub fn load(&self) -> Arc<T> {
        Arc::clone(&self.read().1)
    }

    /// Publishes `value` so that all subsequent [`SnapshotCell::load`] calls
    /// observe it.
    pub fn publish(&self, value: Arc<T>) {
        let replaced = {
            let mut current = self
                .current
                .write()
                .unwrap_or_else(|poison| poison.into_inner());
            current.0 += 1;
            std::mem::replace(&mut current.1, value)
        };
        drop(replaced);
    }

    /// Number of publishes so far (0 for a freshly-created cell). Exposed so
    /// property tests can assert prefix consistency: a snapshot loaded later
    /// never belongs to an earlier epoch than one loaded before.
    pub fn epoch(&self) -> u64 {
        self.read().0
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "tests race plain threads against the code under test"
)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    #[test]
    fn load_returns_initial_then_published() {
        let cell = SnapshotCell::new(Arc::new(10u32));
        assert_eq!(*cell.load(), 10);
        assert_eq!(cell.epoch(), 0);
        cell.publish(Arc::new(11));
        cell.publish(Arc::new(12));
        assert_eq!(*cell.load(), 12);
        assert_eq!(cell.epoch(), 2);
    }

    #[test]
    fn publishes_keep_the_latest() {
        let cell = SnapshotCell::new(Arc::new(0usize));
        for i in 1..=13 {
            cell.publish(Arc::new(i));
            assert_eq!(*cell.load(), i);
        }
    }

    /// Concurrent readers during a stream of publishes must only ever observe
    /// monotonically non-decreasing values — i.e. every load returns some
    /// published prefix, never a torn value and never an older snapshot after
    /// a newer one on the same reader thread.
    #[test]
    fn concurrent_readers_observe_monotonic_prefixes() {
        let cell = Arc::new(SnapshotCell::new(Arc::new(0u64)));
        let stop = Arc::new(AtomicBool::new(false));
        let progress: Vec<Arc<AtomicUsize>> =
            (0..4).map(|_| Arc::new(AtomicUsize::new(0))).collect();
        let readers: Vec<_> = progress
            .iter()
            .map(|counter| {
                let cell = Arc::clone(&cell);
                let stop = Arc::clone(&stop);
                let counter = Arc::clone(counter);
                std::thread::spawn(move || {
                    let mut last = 0u64;
                    let mut observed = 0usize;
                    while !stop.load(Ordering::Relaxed) {
                        let seen = *cell.load();
                        assert!(seen >= last, "snapshot went backwards: {seen} < {last}");
                        last = seen;
                        observed += 1;
                        counter.store(observed, Ordering::Relaxed);
                    }
                    observed
                })
            })
            .collect();
        for i in 1..=2_000u64 {
            cell.publish(Arc::new(i));
        }
        // On a single-core box the publish loop above can finish before any
        // reader thread was ever scheduled; don't stop the readers until each
        // has loaded at least one snapshot, or the assertion below is a
        // scheduling coin flip rather than a correctness check.
        while progress.iter().any(|c| c.load(Ordering::Relaxed) == 0) {
            std::thread::yield_now();
        }
        stop.store(true, Ordering::Relaxed);
        for reader in readers {
            let observed = reader.join().expect("reader thread");
            assert!(observed > 0, "reader never got a snapshot");
        }
        assert_eq!(*cell.load(), 2_000);
        assert_eq!(cell.epoch(), 2_000);
    }

    /// Publishers racing each other must serialize cleanly: after N total
    /// publishes the cell holds the globally last publish (which is the final
    /// publish of whichever writer held the writer lock last) and the epoch
    /// counted every publish exactly once.
    #[test]
    fn concurrent_publishers_serialize() {
        let cell = Arc::new(SnapshotCell::new(Arc::new((0usize, 0u64))));
        let writers: Vec<_> = (0..4usize)
            .map(|w| {
                let cell = Arc::clone(&cell);
                std::thread::spawn(move || {
                    for i in 1..=500u64 {
                        cell.publish(Arc::new((w, i)));
                    }
                })
            })
            .collect();
        for writer in writers {
            writer.join().expect("writer thread");
        }
        assert_eq!(cell.epoch(), 4 * 500);
        let (w, i) = *cell.load();
        assert!(w < 4 && i == 500, "final value must be some writer's last");
    }
}
