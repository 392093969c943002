//! A shareable, long-lived work-stealing executor for run grids.
//!
//! Built on the `crossbeam` deque (a shared [`Injector`] feeding
//! per-worker queues with stealing between them) and a `crossbeam`
//! channel for completion streaming. Results are slotted by task index,
//! so the output order is the input order regardless of worker count or
//! scheduling — the executor introduces no nondeterminism of its own.
//!
//! Unlike a scoped, per-campaign pool, an [`Executor`] is a **resident**
//! pool: worker threads are spawned once and live until the last handle
//! drops. Handles are cheap clones, so one pool can be shared by many
//! concurrent submitters — the batch CLI runs one campaign over it, while
//! the `eaao-serve` daemon multiplexes every client's campaigns over a
//! single pool for the life of the process. Shutdown **drains**: when the
//! last handle drops, workers finish every queued and in-flight task
//! before exiting — nothing is aborted.

use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;

use crossbeam::channel;
use crossbeam::deque::{Injector, Stealer, Worker};
use parking_lot::{Condvar, Mutex};

/// The unit of pool work: a boxed, self-contained closure.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Mutable scheduler state guarded by the park lock.
struct Park {
    /// Set once by the last handle's drop; workers exit when they see it
    /// *and* no work is visible anywhere.
    shutdown: bool,
}

/// State shared between handles and worker threads.
struct Shared {
    injector: Injector<Job>,
    stealers: Vec<Stealer<Job>>,
    park: Mutex<Park>,
    /// Workers wait here when every queue is empty.
    work_ready: Condvar,
    /// [`Executor::drain`] waits here for quiescence.
    idle: Condvar,
    /// Jobs submitted but not yet finished (queued + in-flight).
    outstanding: AtomicUsize,
    jobs: usize,
}

impl Shared {
    /// Whether any queue a worker could service holds a task. A worker's
    /// own local queue is always drained before it consults this.
    fn has_visible_work(&self) -> bool {
        !self.injector.is_empty() || self.stealers.iter().any(|s| !s.is_empty())
    }

    /// Enqueues one job and wakes a parked worker.
    fn submit(&self, job: Job) {
        self.outstanding.fetch_add(1, Ordering::AcqRel);
        self.injector.push(job);
        let _guard = self.park.lock();
        self.work_ready.notify_one();
    }

    /// Accounts one finished job, waking [`Executor::drain`] waiters at
    /// quiescence.
    fn finish_one(&self) {
        if self.outstanding.fetch_sub(1, Ordering::AcqRel) == 1 {
            let _guard = self.park.lock();
            self.idle.notify_all();
        }
    }

    /// Flags shutdown and wakes every parked worker so it can re-check.
    fn begin_shutdown(&self) {
        let mut park = self.park.lock();
        park.shutdown = true;
        self.work_ready.notify_all();
    }
}

/// One worker thread: drain local work, steal, park when idle, exit on
/// drained shutdown.
fn worker_loop(me: usize, local: Worker<Job>, shared: Arc<Shared>) {
    loop {
        let job = local
            .pop()
            .or_else(|| shared.injector.steal_batch_and_pop(&local).success())
            .or_else(|| {
                shared
                    .stealers
                    .iter()
                    .enumerate()
                    .filter(|&(victim, _)| victim != me)
                    .find_map(|(_, stealer)| stealer.steal().success())
            });
        match job {
            Some(job) => {
                // A panicking job must not take the (shared, resident)
                // pool down with it. `run_with` jobs catch their own
                // panics and re-raise on the submitting thread; this
                // outer catch only contains the unwind.
                #[expect(
                    clippy::let_underscore_must_use,
                    reason = "run_with re-raised the payload already"
                )]
                let _ = catch_unwind(AssertUnwindSafe(job));
                shared.finish_one();
            }
            None => {
                let mut park = shared.park.lock();
                if shared.has_visible_work() {
                    continue; // raced with a submit; retry without parking
                }
                if park.shutdown {
                    break; // drained: nothing queued anywhere, flag set
                }
                shared.work_ready.wait(&mut park);
            }
        }
    }
}

/// Joins the workers once the last [`Executor`] handle drops.
struct PoolOwner {
    shared: Arc<Shared>,
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl Drop for PoolOwner {
    fn drop(&mut self) {
        self.shared.begin_shutdown();
        for handle in self.workers.lock().drain(..) {
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
    _owner: Arc<PoolOwner>,
}

impl std::fmt::Debug for Executor {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Executor")
            .field("jobs", &self.shared.jobs)
            .field(
                "outstanding",
                &self.shared.outstanding.load(Ordering::Relaxed),
            )
            .finish()
    }
}

impl Executor {
    /// A resident executor with `jobs` worker threads (clamped to at
    /// least 1). Threads are spawned immediately and live until the last
    /// handle drops.
    pub fn new(jobs: usize) -> Self {
        let jobs = jobs.max(1);
        let locals: Vec<Worker<Job>> = (0..jobs).map(|_| Worker::new_fifo()).collect();
        let stealers: Vec<Stealer<Job>> = locals.iter().map(Worker::stealer).collect();
        let shared = Arc::new(Shared {
            injector: Injector::new(),
            stealers,
            park: Mutex::new(Park { shutdown: false }),
            work_ready: Condvar::new(),
            idle: Condvar::new(),
            outstanding: AtomicUsize::new(0),
            jobs,
        });
        let workers = locals
            .into_iter()
            .enumerate()
            .map(|(me, local)| {
                let shared = Arc::clone(&shared);
                std::thread::spawn(move || worker_loop(me, local, shared))
            })
            .collect();
        Executor {
            shared: Arc::clone(&shared),
            _owner: Arc::new(PoolOwner {
                shared,
                workers: Mutex::new(workers),
            }),
        }
    }

    /// Number of worker threads.
    pub fn jobs(&self) -> usize {
        self.shared.jobs
    }

    /// Jobs submitted but not yet finished, across every submitter.
    pub fn outstanding(&self) -> usize {
        self.shared.outstanding.load(Ordering::Acquire)
    }

    /// Blocks until every job submitted so far (by any handle) has
    /// finished. New submissions arriving while draining extend the wait.
    pub fn drain(&self) {
        let mut park = self.shared.park.lock();
        while self.shared.outstanding.load(Ordering::Acquire) != 0 {
            self.shared.idle.wait(&mut park);
        }
    }

    /// Submits one fire-and-forget job to the pool. The job runs on some
    /// worker thread; a panic inside it is contained (the pool survives)
    /// and its payload discarded. Use [`Executor::run_with`] when results
    /// or panics matter.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'static) {
        self.shared.submit(Box::new(job));
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
            self.shared.submit(Box::new(move || {
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
}
