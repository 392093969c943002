//! A shareable, long-lived executor for run grids.
//!
//! Jobs wait in one FIFO `crossbeam` channel that every worker receives
//! from, and a second channel streams completions back to the submitter.
//! Results are slotted by task index, so the output order is the input
//! order regardless of worker count or scheduling — the executor
//! introduces no nondeterminism of its own.
//!
//! Unlike a scoped, per-campaign pool, an [`Executor`] is a **resident**
//! pool: worker threads are spawned once and live until the last handle
//! drops. Handles are cheap clones, so one pool can be shared by many
//! concurrent submitters — the batch CLI runs one campaign over it, while
//! the `eaao-serve` daemon multiplexes every client's campaigns over a
//! single pool for the life of the process. Shutdown **drains**: when the
//! last handle drops, the job queue closes and workers finish every
//! queued and in-flight task before exiting — nothing is aborted.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel;
use parking_lot::{Condvar, Mutex};

/// The unit of pool work: a boxed, self-contained closure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// State shared between handles and worker threads.
struct Shared {
    /// Jobs submitted but not yet finished (queued + in-flight).
    outstanding: Mutex<usize>,
    /// [`Executor::drain`] waits here for `outstanding` to reach zero.
    idle: Condvar,
}

/// One worker thread: run jobs in queue order until the queue is closed
/// and empty.
fn worker_loop(queue: channel::Receiver<Job>, shared: Arc<Shared>) {
    while let Ok(job) = queue.recv() {
        // A panicking job must not take the (shared, resident) pool down
        // with it. `run_with` jobs catch their own panics and re-raise on
        // the submitting thread; this outer catch only contains the
        // unwind.
        #[expect(
            clippy::let_underscore_must_use,
            reason = "run_with re-raised the payload already"
        )]
        let _ = catch_unwind(AssertUnwindSafe(job));
        let mut outstanding = shared.outstanding.lock();
        *outstanding -= 1;
        if *outstanding == 0 {
            shared.idle.notify_all();
        }
    }
}

/// The job queue's sending end and the workers, closed and joined once
/// the last [`Executor`] handle drops.
struct PoolOwner {
    /// `None` only while dropping.
    queue: Option<channel::Sender<Job>>,
    workers: Vec<JoinHandle<()>>,
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        // Closing the queue lets each worker drain what is left, then exit.
        self.queue = None;
        for handle in self.workers.drain(..) {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "panics were reported via the channel; Drop must not re-raise"
            )]
            let _ = handle.join();
        }
    }
}

/// A cloneable handle to a resident pool of worker threads.
///
/// All clones share the same workers; the pool drains and joins when the
/// last clone drops. Concurrent [`Executor::run_with`] calls from
/// different threads interleave their tasks over the shared workers —
/// this is how the service daemon multiplexes many campaigns over one
/// pool.
#[derive(Clone)]
pub struct Executor {
    shared: Arc<Shared>,
    owner: Arc<PoolOwner>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.jobs())
            .field("outstanding", &self.outstanding())
            .finish()
    }
}

impl Executor {
    /// A resident executor with `jobs` worker threads (clamped to at
    /// least 1). Threads are spawned immediately and live until the last
    /// handle drops.
    pub fn new(jobs: usize) -> Self {
        let shared = Arc::new(Shared {
            outstanding: Mutex::new(0),
            idle: Condvar::new(),
        });
        // bound: one job per submitted task; each run_with caller waits for its own, and the daemon caps campaigns in flight
        let (queue_tx, queue_rx) = channel::unbounded::<Job>();
        let workers = (0..jobs.max(1))
            .map(|_| {
                let queue = queue_rx.clone();
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(queue, shared))
            })
            .collect();
        Executor {
            shared,
            owner: Arc::new(PoolOwner {
                queue: Some(queue_tx),
                workers,
            }),
        }
    }

    /// Enqueues one job, counting it outstanding until a worker has run
    /// it.
    fn submit(&self, job: Job) {
        *self.shared.outstanding.lock() += 1;
        let queue = self
            .owner
            .queue
            .as_ref()
            .expect("open while a handle lives");
        #[expect(
            clippy::let_underscore_must_use,
            reason = "workers receive until the queue closes, so the send cannot fail"
        )]
        let _ = queue.send(job);
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.owner.workers.len()
    }

    /// Jobs submitted but not yet finished, across every submitter.
    pub fn outstanding(&self) -> usize {
        *self.shared.outstanding.lock()
    }

    /// Blocks until every job submitted so far (by any handle) has
    /// finished. New submissions arriving while draining extend the wait.
    pub fn drain(&self) {
        let mut outstanding = self.shared.outstanding.lock();
        while *outstanding != 0 {
            self.shared.idle.wait(&mut outstanding);
        }
    }

    /// Submits one fire-and-forget job to the pool. The job runs on some
    /// worker thread; a panic inside it is contained (the pool survives)
    /// and its payload discarded. Use [`Executor::run_with`] when results
    /// or panics matter.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.submit(Box::new(job));
    }

    /// Runs `work` over every task, returning results in task order.
    pub fn run<T, R>(
        &self,
        tasks: Vec<T>,
        work: impl Fn(usize, T) -> R + Send + Sync + 'static,
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        self.run_with(tasks, work, |_, _| {})
    }

    /// Like [`Executor::run`], additionally invoking `on_complete` on the
    /// calling thread as each result lands (in completion order — use it
    /// for streaming sinks and progress, not for ordered output).
    ///
    /// A panic inside `work` is caught on the worker (so the shared pool
    /// survives) and re-raised here, on the calling thread.
    // tidy:allow(panic-reachability) -- `index` enumerates the submitted tasks and `slots` was sized to that same count.
    pub fn run_with<T, R>(
        &self,
        tasks: Vec<T>,
        work: impl Fn(usize, T) -> R + Send + Sync + 'static,
        mut on_complete: impl FnMut(usize, &R),
    ) -> Vec<R>
    where
        T: Send + 'static,
        R: Send + 'static,
    {
        let total = tasks.len();
        if total == 0 {
            return Vec::new();
        }
        let work = Arc::new(work);
        // bound: at most one message per submitted task; the loop below drains exactly `total`
        let (done_tx, done_rx) = channel::unbounded::<(usize, std::thread::Result<R>)>();
        for (index, task) in tasks.into_iter().enumerate() {
            let work = Arc::clone(&work);
            let done_tx = done_tx.clone();
            self.submit(Box::new(move || {
                let result = catch_unwind(AssertUnwindSafe(|| work(index, task)));
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "a closed channel means the submitter re-raised a panic"
                )]
                let _ = done_tx.send((index, result));
            }));
        }
        drop(done_tx);
        let mut slots: Vec<Option<R>> = (0..total).map(|_| None).collect();
        for _ in 0..total {
            let (index, result) = done_rx.recv().expect("a worker completes each task");
            match result {
                Ok(result) => {
                    on_complete(index, &result);
                    slots[index] = Some(result);
                }
                Err(cause) => resume_unwind(cause),
            }
        }
        slots
            .into_iter()
            .map(|slot| slot.expect("every task produced a result"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn results_come_back_in_task_order() {
        for jobs in [1, 2, 8] {
            let tasks: Vec<u64> = (0..200).collect();
            let out = Executor::new(jobs).run(tasks, |_, x| x * 2);
            assert_eq!(out, (0..200).map(|x| x * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn every_task_runs_exactly_once() {
        let counter = Arc::new(AtomicUsize::new(0));
        let seen = Arc::clone(&counter);
        let out = Executor::new(4).run((0..500).collect::<Vec<_>>(), move |_, x: u32| {
            seen.fetch_add(1, Ordering::SeqCst);
            x
        });
        assert_eq!(counter.load(Ordering::SeqCst), 500);
        assert_eq!(out.len(), 500);
    }

    #[test]
    fn completion_callback_sees_every_result_once() {
        let mut seen = Vec::new();
        Executor::new(3).run_with(
            (0..64).collect::<Vec<_>>(),
            |_, x: u32| x,
            |index, &result| {
                assert_eq!(index as u32, result);
                seen.push(index);
            },
        );
        seen.sort_unstable();
        assert_eq!(seen, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn zero_tasks_is_a_no_op() {
        let out: Vec<u32> = Executor::new(4).run(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn jobs_clamp_to_one() {
        assert_eq!(Executor::new(0).jobs(), 1);
    }

    #[test]
    fn one_pool_serves_many_sequential_batches() {
        let executor = Executor::new(4);
        for round in 0..5u64 {
            let out = executor.run((0..100).collect::<Vec<u64>>(), move |_, x| x + round);
            assert_eq!(out, (round..100 + round).collect::<Vec<_>>());
        }
        executor.drain();
        assert_eq!(executor.outstanding(), 0);
    }

    #[test]
    fn concurrent_submitters_multiplex_over_one_pool() {
        let executor = Executor::new(4);
        let mut joins = Vec::new();
        for submitter in 0..4u64 {
            let handle = executor.clone();
            joins.push(std::thread::spawn(move || {
                handle.run((0..200).collect::<Vec<u64>>(), move |_, x| {
                    x * 1_000 + submitter
                })
            }));
        }
        for (submitter, join) in joins.into_iter().enumerate() {
            let out = join.join().expect("submitter thread");
            assert_eq!(out.len(), 200);
            assert!(out
                .iter()
                .enumerate()
                .all(|(i, &v)| v == i as u64 * 1_000 + submitter as u64));
        }
    }

    #[test]
    fn drop_drains_queued_work_instead_of_aborting() {
        let finished = Arc::new(AtomicUsize::new(0));
        {
            let executor = Executor::new(2);
            for _ in 0..50 {
                let seen = Arc::clone(&finished);
                executor.spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(1));
                    seen.fetch_add(1, Ordering::SeqCst);
                });
            }
            // Dropping the only handle with work still queued must drain
            // every job, not abort the queue.
            drop(executor);
        }
        assert_eq!(finished.load(Ordering::SeqCst), 50);
    }

    #[test]
    fn drain_waits_for_spawned_jobs() {
        let executor = Executor::new(3);
        let finished = Arc::new(AtomicUsize::new(0));
        for _ in 0..30 {
            let seen = Arc::clone(&finished);
            executor.spawn(move || {
                std::thread::sleep(std::time::Duration::from_millis(1));
                seen.fetch_add(1, Ordering::SeqCst);
            });
        }
        executor.drain();
        assert_eq!(finished.load(Ordering::SeqCst), 30);
        assert_eq!(executor.outstanding(), 0);
    }

    #[test]
    fn a_panicking_task_reaches_the_caller_and_spares_the_pool() {
        let executor = Executor::new(2);
        let handle = executor.clone();
        let outcome = std::thread::spawn(move || {
            handle.run(vec![1u32, 2, 3], |_, x| {
                assert_ne!(x, 2, "task two explodes");
                x
            })
        })
        .join();
        assert!(outcome.is_err(), "panic propagates to the submitter");
        // The pool survives and keeps executing new work.
        let out = executor.run(vec![7u32], |_, x| x);
        assert_eq!(out, vec![7]);
    }

    #[test]
    fn a_panicking_spawned_job_spares_the_pool() {
        let executor = Executor::new(2);
        executor.spawn(|| panic!("a spawned job explodes"));
        executor.drain();
        assert_eq!(executor.outstanding(), 0);
        let out = executor.run((0..20).collect::<Vec<u32>>(), |_, x| x + 1);
        assert_eq!(out, (1..21).collect::<Vec<_>>());
    }
}
