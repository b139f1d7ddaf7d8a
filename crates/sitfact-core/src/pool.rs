//! A small vendored worker thread-pool.
//!
//! The build environment has no crates.io access, so instead of `rayon` or
//! `threadpool` this module implements the minimal plumbing the workspace
//! needs to fan a batched window out across
//! [`ShardedMonitor`](https://docs.rs/sitfact-prominence) shards: a fixed set
//! of worker threads fed through an [`mpsc`](std::sync::mpsc) channel, plus a
//! fan-out/fan-in helper ([`ThreadPool::run_all`]) that preserves submission
//! order and re-raises worker panics on the caller's thread.
//!
//! Two properties are load-bearing for the sharded ingest path and are pinned
//! by the unit tests below:
//!
//! * **Panic propagation.** A task that panics does not kill its worker (the
//!   payload is caught with [`std::panic::catch_unwind`] and carried back over
//!   the result channel); [`ThreadPool::run_all`] resumes the unwind on the
//!   submitting thread with the original payload, so a `should_panic` test or
//!   an outer `catch_unwind` observes exactly the panic the task raised.
//! * **Drop drains.** Dropping the pool closes the job channel and joins every
//!   worker, so all submitted work finishes (or finishes panicking) before
//!   `drop` returns — no task is ever abandoned mid-flight.
//!
//! Ownership transfer instead of scoped borrows: tasks are `'static` and move
//! their state in and out (the sharded monitor moves each shard into its task
//! and receives it back in the result), which keeps the pool free of `unsafe`
//! lifetime laundering — this crate is `#![forbid(unsafe_code)]`.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;

type Job = Box<dyn FnOnce() + Send + 'static>;

/// A fixed-size pool of worker threads consuming jobs from a shared queue.
///
/// ```
/// use sitfact_core::pool::ThreadPool;
///
/// let pool = ThreadPool::new(4);
/// let squares = pool.run_all(
///     (0u64..8)
///         .map(|i| Box::new(move || i * i) as Box<dyn FnOnce() -> u64 + Send>)
///         .collect(),
/// );
/// assert_eq!(squares, vec![0, 1, 4, 9, 16, 25, 36, 49]);
/// ```
#[derive(Debug)]
pub struct ThreadPool {
    workers: Vec<JoinHandle<()>>,
    sender: Option<Sender<Job>>,
    caught_panics: Arc<AtomicUsize>,
}

impl ThreadPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let (sender, receiver) = channel::<Job>();
        let receiver = Arc::new(Mutex::new(receiver));
        let caught_panics = Arc::new(AtomicUsize::new(0));
        let workers = (0..threads)
            .map(|i| {
                let receiver = Arc::clone(&receiver);
                let caught = Arc::clone(&caught_panics);
                std::thread::Builder::new()
                    .name(format!("sitfact-pool-{i}"))
                    .spawn(move || worker_loop(&receiver, &caught))
                    .expect("spawn pool worker") // audit: allow(no-panic): OS thread-spawn failure at pool construction is unrecoverable
            })
            .collect();
        ThreadPool {
            workers,
            sender: Some(sender),
            caught_panics,
        }
    }

    /// Number of task panics the pool has caught so far (each was either
    /// re-raised by [`ThreadPool::run_all`] or swallowed by a fire-and-forget
    /// [`ThreadPool::execute`]).
    pub fn caught_panics(&self) -> usize {
        self.caught_panics.load(Ordering::SeqCst)
    }

    /// Enqueues a fire-and-forget job. If the job panics, the worker survives
    /// and the panic is only recorded in [`ThreadPool::caught_panics`] —
    /// use [`ThreadPool::run_all`] when the caller needs results or panic
    /// propagation.
    pub fn execute<F: FnOnce() + Send + 'static>(&self, job: F) {
        self.sender
            .as_ref()
            .expect("pool sender alive until drop") // audit: allow(no-panic): sender is Some until Drop; a None here is pool misuse, not input
            .send(Box::new(job))
            .expect("pool workers alive until drop"); // audit: allow(no-panic): workers only hang up after the sender drops, so send cannot fail
    }

    /// Runs every task on the pool and returns their results **in submission
    /// order**, blocking until all tasks completed.
    ///
    /// If any task panicked, the unwind is resumed on the calling thread with
    /// the payload of the earliest-submitted panicking task — but only after
    /// every other task of the batch has also finished, so no task of this
    /// batch is still touching its (moved-in) state when the caller regains
    /// control.
    pub fn run_all<T: Send + 'static>(
        &self,
        tasks: Vec<Box<dyn FnOnce() -> T + Send + 'static>>,
    ) -> Vec<T> {
        let n = tasks.len();
        let (result_tx, result_rx): ResultChannel<T> = channel();
        for (index, task) in tasks.into_iter().enumerate() {
            let tx = result_tx.clone();
            let caught = Arc::clone(&self.caught_panics);
            self.execute(move || {
                let outcome = catch_unwind(AssertUnwindSafe(task));
                if outcome.is_err() {
                    caught.fetch_add(1, Ordering::SeqCst);
                }
                // The receiver outlives the batch; ignoring a send error would
                // only be reachable if the caller's receive loop panicked.
                let _ = tx.send((index, outcome));
            });
        }
        drop(result_tx);
        let mut slots: Vec<Option<TaskOutcome<T>>> = (0..n).map(|_| None).collect();
        for _ in 0..n {
            let (index, outcome) = result_rx
                .recv()
                .expect("a pool worker died before returning a result"); // audit: allow(no-panic): worker panics are caught in worker_loop; a dead worker is a pool bug
            slots[index] = Some(outcome);
        }
        let mut results = Vec::with_capacity(n);
        let mut first_panic = None;
        // audit: allow(no-panic): the loop above filled exactly one slot per received result
        for outcome in slots.into_iter().map(|s| s.expect("every slot filled")) {
            match outcome {
                Ok(value) => results.push(value),
                Err(payload) => {
                    if first_panic.is_none() {
                        first_panic = Some(payload);
                    }
                }
            }
        }
        if let Some(payload) = first_panic {
            resume_unwind(payload);
        }
        results
    }
}

type TaskOutcome<T> = Result<T, Box<dyn std::any::Any + Send + 'static>>;
type ResultChannel<T> = (
    Sender<(usize, TaskOutcome<T>)>,
    Receiver<(usize, TaskOutcome<T>)>,
);

fn worker_loop(receiver: &Mutex<Receiver<Job>>, caught: &AtomicUsize) {
    loop {
        // Take the next job while holding the lock, then release it before
        // running so other workers can pick up jobs concurrently.
        let job = match receiver.lock() {
            Ok(guard) => guard.recv(),
            // A sibling worker panicked *while holding the lock* — impossible
            // for the recv() it guards, but be conservative and retire.
            Err(_) => return,
        };
        match job {
            Ok(job) => {
                if catch_unwind(AssertUnwindSafe(job)).is_err() {
                    caught.fetch_add(1, Ordering::SeqCst);
                }
            }
            // Channel closed: the pool is being dropped and the queue is
            // drained — retire.
            Err(_) => return,
        }
    }
}

impl Drop for ThreadPool {
    fn drop(&mut self) {
        // Closing the channel lets each worker drain remaining jobs and then
        // observe the disconnect; joining guarantees "drop drains".
        drop(self.sender.take());
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// A job addressed to one actor worker: runs with exclusive access to that
/// worker's owned state.
type ActorJob<S> = Box<dyn FnOnce(&mut S) + Send + 'static>;

/// A pool of worker threads that each **own** a piece of state outright and
/// consume jobs from a private per-worker mailbox — the actor-style sibling
/// of [`ThreadPool`]'s shared queue.
///
/// Where [`ThreadPool`] hands interchangeable jobs to whichever worker is
/// free, `ActorPool` routes each job to a *specific* worker, which applies it
/// to the state only that worker can touch. No lock ever guards the state:
/// exclusivity comes from ownership (the state moves into the worker thread
/// at construction and never leaves), which keeps the whole arrangement free
/// of `unsafe` and free of lock contention. Jobs sent to the same worker run
/// in submission order (the mailbox is a FIFO channel); jobs sent to
/// different workers run concurrently.
///
/// Callers that need a result back capture the sending half of a channel in
/// the job and block on the receiving half:
///
/// ```
/// use std::sync::mpsc::channel;
/// use sitfact_core::pool::ActorPool;
///
/// // Two workers, each owning a running total.
/// let pool = ActorPool::new(vec![0u64, 100u64]);
/// pool.send(1, |total| *total += 5);
/// let (tx, rx) = channel();
/// pool.send(1, move |total| {
///     let _ = tx.send(*total);
/// });
/// assert_eq!(rx.recv().unwrap(), 105);
/// ```
///
/// **Panic containment.** A job that panics does not kill its worker or the
/// worker's state: the payload is caught with
/// [`catch_unwind`] and recorded in
/// [`ActorPool::caught_panics`], and the worker moves on to its next job. The
/// state may of course be logically mid-mutation at the point of the panic —
/// callers that care (the serving layer does) flag the affected portion as
/// poisoned from inside a subsequent job or via a result channel whose sender
/// was dropped by the unwind.
///
/// **Drop drains.** Dropping the pool closes every mailbox and joins every
/// worker, so all submitted jobs finish before `drop` returns.
#[derive(Debug)]
pub struct ActorPool<S> {
    mailboxes: Vec<Sender<ActorJob<S>>>,
    workers: Vec<JoinHandle<()>>,
    caught_panics: Arc<AtomicUsize>,
}

impl<S: Send + 'static> ActorPool<S> {
    /// Spawns one worker per element of `states`; worker `i` takes ownership
    /// of `states[i]`. An empty vector yields a pool with zero workers, on
    /// which every [`ActorPool::send`] returns `false`.
    pub fn new(states: Vec<S>) -> Self {
        let caught_panics = Arc::new(AtomicUsize::new(0));
        let mut mailboxes = Vec::with_capacity(states.len());
        let mut workers = Vec::with_capacity(states.len());
        for (i, state) in states.into_iter().enumerate() {
            let (sender, receiver) = channel::<ActorJob<S>>();
            let caught = Arc::clone(&caught_panics);
            let handle = std::thread::Builder::new()
                .name(format!("sitfact-actor-{i}"))
                .spawn(move || actor_loop(state, &receiver, &caught))
                .expect("spawn actor worker"); // audit: allow(no-panic): OS thread-spawn failure at pool construction is unrecoverable
            mailboxes.push(sender);
            workers.push(handle);
        }
        ActorPool {
            mailboxes,
            workers,
            caught_panics,
        }
    }

    /// Number of job panics caught so far across all workers.
    pub fn caught_panics(&self) -> usize {
        self.caught_panics.load(Ordering::SeqCst)
    }

    /// Enqueues `job` in worker `worker`'s mailbox. Returns `false` (without
    /// running the job) if the worker index is out of range; returns `true`
    /// once the job is enqueued. Jobs for the same worker run in submission
    /// order.
    pub fn send<F: FnOnce(&mut S) + Send + 'static>(&self, worker: usize, job: F) -> bool {
        match self.mailboxes.get(worker) {
            Some(mailbox) => mailbox.send(Box::new(job)).is_ok(),
            None => false,
        }
    }
}

fn actor_loop<S>(mut state: S, receiver: &Receiver<ActorJob<S>>, caught: &AtomicUsize) {
    // Runs until the mailbox disconnects (pool drop), draining all jobs.
    while let Ok(job) = receiver.recv() {
        if catch_unwind(AssertUnwindSafe(|| job(&mut state))).is_err() {
            caught.fetch_add(1, Ordering::SeqCst);
        }
    }
}

impl<S> Drop for ActorPool<S> {
    fn drop(&mut self) {
        // Closing every mailbox lets each worker drain its queue and retire;
        // joining guarantees "drop drains".
        self.mailboxes.clear();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;
    use std::time::Duration;

    #[test]
    fn run_all_preserves_submission_order() {
        let pool = ThreadPool::new(3);
        // Later tasks sleep less, so completion order is roughly reversed;
        // the results must come back in submission order regardless.
        let tasks: Vec<Box<dyn FnOnce() -> usize + Send>> = (0..9usize)
            .map(|i| {
                Box::new(move || {
                    std::thread::sleep(Duration::from_millis((9 - i) as u64));
                    i * 10
                }) as Box<dyn FnOnce() -> usize + Send>
            })
            .collect();
        assert_eq!(
            pool.run_all(tasks),
            (0..9).map(|i| i * 10).collect::<Vec<_>>()
        );
    }

    #[test]
    fn run_all_handles_empty_and_single() {
        let pool = ThreadPool::new(2);
        let none: Vec<Box<dyn FnOnce() -> u8 + Send>> = Vec::new();
        assert!(pool.run_all(none).is_empty());
        let one: Vec<Box<dyn FnOnce() -> u8 + Send>> = vec![Box::new(|| 7)];
        assert_eq!(pool.run_all(one), vec![7]);
    }

    #[test]
    fn ownership_round_trips_through_tasks() {
        // The pattern the sharded monitor relies on: move state in, get it
        // back out, no borrows across threads.
        type StateTask = Box<dyn FnOnce() -> (Vec<u32>, usize) + Send>;
        let pool = ThreadPool::new(2);
        let states: Vec<Vec<u32>> = vec![vec![1, 2], vec![3], vec![]];
        let tasks: Vec<StateTask> = states
            .into_iter()
            .map(|mut v| {
                Box::new(move || {
                    v.push(99);
                    let len = v.len();
                    (v, len)
                }) as StateTask
            })
            .collect();
        let results = pool.run_all(tasks);
        assert_eq!(results[0], (vec![1, 2, 99], 3));
        assert_eq!(results[1], (vec![3, 99], 2));
        assert_eq!(results[2], (vec![99], 1));
    }

    #[test]
    fn panicking_task_propagates_with_payload() {
        let pool = ThreadPool::new(2);
        let tasks: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![
            Box::new(|| 1),
            Box::new(|| panic!("shard exploded")),
            Box::new(|| 3),
        ];
        let unwound = catch_unwind(AssertUnwindSafe(|| pool.run_all(tasks)));
        let payload = unwound.expect_err("panic must propagate to the caller");
        let message = payload
            .downcast_ref::<&str>()
            .copied()
            .expect("original payload is preserved");
        assert_eq!(message, "shard exploded");
        assert_eq!(pool.caught_panics(), 1);
        // The worker survived the panic: the pool still runs work.
        let again: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![Box::new(|| 42)];
        assert_eq!(pool.run_all(again), vec![42]);
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            // One worker and many slow-ish jobs: most are still queued when
            // drop begins, and drop must wait for all of them.
            let pool = ThreadPool::new(1);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.execute(move || {
                    std::thread::sleep(Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }

    #[test]
    fn fire_and_forget_panic_does_not_kill_the_pool() {
        let pool = ThreadPool::new(1);
        pool.execute(|| panic!("ignored"));
        let flag = Arc::new(AtomicBool::new(false));
        let observer = Arc::clone(&flag);
        pool.execute(move || observer.store(true, Ordering::SeqCst));
        drop(pool); // joins; both jobs ran on the same (surviving) worker
        assert!(flag.load(Ordering::SeqCst));
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = ThreadPool::new(0);
        assert_eq!(pool.workers.len(), 1);
    }

    /// Loom-style deterministic interleaving check, offline edition: real
    /// loom is unavailable (no crates.io), so instead of exploring all
    /// interleavings the test *forces* the adversarial one with a rendezvous
    /// channel — task 0 is made to finish strictly after task 1, which is the
    /// interleaving that would expose index-mixups or lost results in the
    /// fan-in path.
    #[test]
    fn forced_out_of_order_completion_is_reassembled() {
        let pool = ThreadPool::new(2);
        let (unblock_tx, unblock_rx) = channel::<()>();
        let tasks: Vec<Box<dyn FnOnce() -> &'static str + Send>> = vec![
            Box::new(move || {
                // Deterministically last: waits until task 1 completed.
                unblock_rx
                    .recv_timeout(Duration::from_secs(10))
                    .expect("task 1 signals before timeout");
                "first-submitted"
            }),
            Box::new(move || {
                unblock_tx.send(()).expect("task 0 is alive and waiting");
                "second-submitted"
            }),
        ];
        assert_eq!(
            pool.run_all(tasks),
            vec!["first-submitted", "second-submitted"]
        );
    }

    #[test]
    fn actor_jobs_route_to_their_owner_and_run_in_order() {
        let pool = ActorPool::new(vec![Vec::<u32>::new(), Vec::new()]);
        for i in 0..10u32 {
            assert!(pool.send((i % 2) as usize, move |v| v.push(i)));
        }
        // Drain both mailboxes through a response channel: per-worker FIFO
        // means these observer jobs run after all pushes above.
        let (tx0, rx0) = channel();
        let (tx1, rx1) = channel();
        pool.send(0, move |v| {
            let _ = tx0.send(v.clone());
        });
        pool.send(1, move |v| {
            let _ = tx1.send(v.clone());
        });
        assert_eq!(rx0.recv().expect("worker 0 replies"), vec![0, 2, 4, 6, 8]);
        assert_eq!(rx1.recv().expect("worker 1 replies"), vec![1, 3, 5, 7, 9]);
    }

    #[test]
    fn actor_send_out_of_range_is_rejected() {
        let pool = ActorPool::new(vec![0u8]);
        assert!(!pool.send(1, |_| {}));
        let empty: ActorPool<u8> = ActorPool::new(Vec::new());
        assert!(!empty.send(0, |_| {}));
    }

    #[test]
    fn actor_worker_survives_a_panicking_job() {
        let pool = ActorPool::new(vec![7u64]);
        pool.send(0, |_| panic!("actor job exploded"));
        let (tx, rx) = channel();
        pool.send(0, move |state| {
            *state += 1;
            let _ = tx.send(*state);
        });
        assert_eq!(rx.recv().expect("worker survived"), 8);
        assert_eq!(pool.caught_panics(), 1);
    }

    #[test]
    fn actor_drop_drains_pending_jobs() {
        let counter = Arc::new(AtomicUsize::new(0));
        {
            let pool = ActorPool::new(vec![()]);
            for _ in 0..16 {
                let counter = Arc::clone(&counter);
                pool.send(0, move |()| {
                    std::thread::sleep(Duration::from_millis(1));
                    counter.fetch_add(1, Ordering::SeqCst);
                });
            }
        }
        assert_eq!(counter.load(Ordering::SeqCst), 16);
    }
}
