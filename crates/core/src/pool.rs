//! The persistent worker pool behind [`Engine`](crate::Engine).
//!
//! [`EngineBuilder::build`](crate::EngineBuilder::build) spawns a fixed set of
//! long-lived worker threads once, at engine construction. Work enters the
//! pool through a multi-producer multi-consumer channel (the crossbeam shim),
//! so any number of callers — [`Engine::classify_many`](crate::Engine::classify_many)
//! batches, server connection threads — can inject jobs concurrently without
//! spawning a single thread on the request path. This replaces the original
//! design where `classify_many` created a fresh `std::thread::scope` per call,
//! which was unacceptable churn for a long-lived service.
//!
//! Jobs are plain boxed closures; deterministic result reassembly is the
//! submitter's job (each submission carries its own reply channel and slot
//! index — see `Engine::classify_many`). The pool exposes point-in-time
//! counters through [`PoolStats`], and shuts down gracefully on drop: the
//! injector channel is closed, workers drain the remaining queue and exit,
//! and the pool joins every worker thread.

use crossbeam::channel::{self, Receiver, Sender};
use std::fmt;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::thread;

/// A unit of work executed on a pool worker.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Runs the wrapped hook when dropped — including during a panic unwind, so
/// completion notifications fire for jobs that died as well as jobs that
/// delivered (see [`WorkerPool::submit_notify`]).
struct NotifyOnDrop<N: FnOnce()>(Option<N>);

impl<N: FnOnce()> Drop for NotifyOnDrop<N> {
    fn drop(&mut self) {
        if let Some(notify) = self.0.take() {
            notify();
        }
    }
}

/// Point-in-time counters of an engine's worker pool
/// (see [`Engine::pool_stats`](crate::Engine::pool_stats)).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub struct PoolStats {
    /// Number of long-lived worker threads.
    pub workers: usize,
    /// Jobs submitted but not yet picked up by a worker.
    pub queue_depth: usize,
    /// Jobs fully executed since the pool was built.
    pub jobs_completed: u64,
}

impl fmt::Display for PoolStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "pool: {} workers, queue depth {}, {} jobs completed",
            self.workers, self.queue_depth, self.jobs_completed
        )
    }
}

/// A fixed-size pool of long-lived worker threads fed by an MPMC job channel.
pub(crate) struct WorkerPool {
    /// `Some` for the pool's whole life; taken in `drop` to close the channel.
    injector: Option<Sender<Job>>,
    workers: Vec<thread::JoinHandle<()>>,
    queue_depth: Arc<AtomicUsize>,
    jobs_completed: Arc<AtomicU64>,
}

impl WorkerPool {
    /// Spawns `workers` (at least one) worker threads.
    pub(crate) fn new(workers: usize) -> Self {
        let (tx, rx) = channel::unbounded::<Job>();
        let queue_depth = Arc::new(AtomicUsize::new(0));
        let jobs_completed = Arc::new(AtomicU64::new(0));
        let handles = (0..workers.max(1))
            .map(|i| {
                let rx: Receiver<Job> = rx.clone();
                let queue_depth = Arc::clone(&queue_depth);
                let jobs_completed = Arc::clone(&jobs_completed);
                thread::Builder::new()
                    .name(format!("lcl-engine-worker-{i}"))
                    .spawn(move || {
                        while let Ok(job) = rx.recv() {
                            queue_depth.fetch_sub(1, Ordering::Relaxed);
                            // A panicking job must not kill the worker: the
                            // pool would silently shrink for the engine's
                            // whole life. The job's reply channel is dropped
                            // by the unwind, which submitters observe as a
                            // disconnected reply.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(job));
                            jobs_completed.fetch_add(1, Ordering::Relaxed);
                        }
                    })
                    .expect("spawn engine worker thread")
            })
            .collect();
        WorkerPool {
            injector: Some(tx),
            workers: handles,
            queue_depth,
            jobs_completed,
        }
    }

    /// Injects a job into the queue; some worker will pick it up in FIFO
    /// order. Never blocks (the queue is unbounded).
    pub(crate) fn submit(&self, job: impl FnOnce() + Send + 'static) {
        self.queue_depth.fetch_add(1, Ordering::Relaxed);
        let injector = self.injector.as_ref().expect("injector lives until drop");
        if injector.send(Box::new(job)).is_err() {
            // Unreachable while the pool is alive (workers hold receivers
            // until the injector closes), but keep the accounting honest.
            self.queue_depth.fetch_sub(1, Ordering::Relaxed);
        }
    }

    /// Injects `task` and hands back the receiver its result will arrive on
    /// (the primitive behind [`Engine::dispatch`](crate::Engine::dispatch)).
    ///
    /// Submission never blocks, so the caller is free to stash the receiver
    /// and go on while a worker computes. If the task panics on the worker,
    /// the sender is dropped by the unwind and the receiver observes
    /// disconnection instead of a value.
    pub(crate) fn submit_with_reply<T, F>(&self, task: F) -> mpsc::Receiver<T>
    where
        T: Send + 'static,
        F: FnOnce() -> T + Send + 'static,
    {
        let (tx, rx) = mpsc::channel();
        self.submit(move || {
            let _ = tx.send(task());
        });
        rx
    }

    /// Injects a job that delivers its own results (over channels it
    /// captured), with a completion hook and no reply channel: `notify`
    /// runs on the worker after `job` returned or unwound. Everything the
    /// job captured has been dropped by then, so whatever it sent is
    /// observable, and a sender it held reads as disconnected if it
    /// panicked.
    ///
    /// This is what lets a readiness-based consumer (the server's reactor
    /// thread, parked in `epoll_wait`) learn that a job's output is ready
    /// without dedicating a parked thread per connection: the hook signals
    /// an eventfd instead.
    pub(crate) fn submit_notify<F, N>(&self, job: F, notify: N)
    where
        F: FnOnce() + Send + 'static,
        N: FnOnce() + Send + 'static,
    {
        self.submit(move || {
            // Declared before the call: on a panic in `job`, its captures
            // drop inside the unwinding call, then `guard` fires `notify`.
            let guard = NotifyOnDrop(Some(notify));
            job();
            drop(guard);
        });
    }

    /// The number of worker threads.
    pub(crate) fn workers(&self) -> usize {
        self.workers.len()
    }

    /// Current counters.
    pub(crate) fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers.len(),
            queue_depth: self.queue_depth.load(Ordering::Relaxed),
            jobs_completed: self.jobs_completed.load(Ordering::Relaxed),
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        // Closing the injector lets workers drain the queue and observe
        // disconnection; then join them so no worker outlives the engine.
        self.injector = None;
        let this_thread = thread::current().id();
        for handle in self.workers.drain(..) {
            // The pool can be dropped *from one of its own workers*: jobs may
            // capture the last `Arc` holding the engine (the server's
            // pipelined request jobs capture `Arc<Service>`), and whichever
            // thread drops that Arc last runs this destructor. Joining our
            // own thread would park the worker forever; detach it instead —
            // it exits on its own once `recv` observes the closed channel.
            if handle.thread().id() == this_thread {
                continue;
            }
            let _ = handle.join();
        }
    }
}

impl fmt::Debug for WorkerPool {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("WorkerPool")
            .field("workers", &self.workers.len())
            .field("queue_depth", &self.queue_depth.load(Ordering::Relaxed))
            .field(
                "jobs_completed",
                &self.jobs_completed.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc;
    use std::time::Duration;

    #[test]
    fn jobs_run_and_counters_settle() {
        let pool = WorkerPool::new(2);
        assert_eq!(pool.workers(), 2);
        let (tx, rx) = mpsc::channel();
        for i in 0..16u64 {
            let tx = tx.clone();
            pool.submit(move || tx.send(i).expect("collector alive"));
        }
        drop(tx);
        let mut seen: Vec<u64> = rx.into_iter().collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..16).collect::<Vec<_>>());
        // jobs_completed is incremented after the job body runs; give the
        // workers a moment to finish their bookkeeping.
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while pool.stats().jobs_completed < 16 {
            assert!(
                std::time::Instant::now() < deadline,
                "counters never settled"
            );
            std::thread::yield_now();
        }
        assert_eq!(pool.stats().queue_depth, 0);
    }

    #[test]
    fn submit_with_reply_returns_without_blocking_and_delivers() {
        let pool = WorkerPool::new(1);
        // Park the only worker so the submissions below cannot have run yet
        // when submit_with_reply returns: returning at all proves the call
        // does not wait for a worker.
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            let _ = gate_rx.recv();
        });
        let replies: Vec<mpsc::Receiver<u64>> = (0..4u64)
            .map(|i| pool.submit_with_reply(move || i * i))
            .collect();
        gate_tx.send(()).expect("worker parked on the gate");
        let got: Vec<u64> = replies.iter().map(|rx| rx.recv().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 4, 9]);
    }

    #[test]
    fn submit_notify_fires_after_the_jobs_frames_are_observable() {
        let pool = WorkerPool::new(1);
        let (frames_tx, frames_rx) = mpsc::sync_channel::<u32>(2);
        let (notified_tx, notified_rx) = mpsc::channel::<()>();
        pool.submit_notify(
            move || {
                frames_tx.send(1).expect("receiver alive");
                frames_tx.send(2).expect("receiver alive");
            },
            move || {
                let _ = notified_tx.send(());
            },
        );
        notified_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("notify must fire");
        // Both frames are in, and the job's sender is already gone.
        assert_eq!(frames_rx.try_recv(), Ok(1));
        assert_eq!(frames_rx.try_recv(), Ok(2));
        assert_eq!(frames_rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
    }

    #[test]
    fn submit_notify_fires_even_when_the_job_panics() {
        let pool = WorkerPool::new(1);
        let (frames_tx, frames_rx) = mpsc::sync_channel::<u32>(2);
        let (notified_tx, notified_rx) = mpsc::channel::<()>();
        pool.submit_notify(
            move || {
                frames_tx.send(1).expect("receiver alive");
                panic!("job blew up");
            },
            move || {
                let _ = notified_tx.send(());
            },
        );
        notified_rx
            .recv_timeout(Duration::from_secs(5))
            .expect("notify must fire on panic too");
        // The frame sent before the panic is observable, and the unwind
        // dropped the sender before the notification.
        assert_eq!(frames_rx.try_recv(), Ok(1));
        assert_eq!(frames_rx.try_recv(), Err(mpsc::TryRecvError::Disconnected));
        // The worker survived.
        assert_eq!(pool.submit_with_reply(|| 3u32).recv(), Ok(3));
    }

    #[test]
    fn submit_with_reply_panic_drops_the_sender() {
        let pool = WorkerPool::new(1);
        let rx = pool.submit_with_reply(|| -> u32 { panic!("job blew up") });
        assert!(rx.recv().is_err(), "panicked job must disconnect its reply");
        // The worker survived the panic.
        assert_eq!(pool.submit_with_reply(|| 3u32).recv(), Ok(3));
    }

    #[test]
    fn zero_requested_workers_still_yields_one() {
        let pool = WorkerPool::new(0);
        assert_eq!(pool.workers(), 1);
    }

    #[test]
    fn panicking_job_does_not_kill_the_worker() {
        let pool = WorkerPool::new(1);
        pool.submit(|| panic!("job blew up"));
        // The single worker must survive and serve the next job.
        let (tx, rx) = mpsc::channel();
        pool.submit(move || tx.send(7u32).expect("collector alive"));
        assert_eq!(rx.recv(), Ok(7));
    }

    #[test]
    fn drop_from_a_worker_does_not_self_join() {
        // A job may own the last handle to its own pool (via an Arc); the
        // pool destructor then runs on the worker, which must detach rather
        // than join itself. Without the detach this leaks a permanently
        // parked worker thread (and the reply below would still arrive, so
        // the leak is only visible to this ordering guard).
        let pool = Arc::new(WorkerPool::new(1));
        let pool_for_job = Arc::clone(&pool);
        let (tx, rx) = mpsc::channel();
        let (dropped_main_tx, dropped_main_rx) = mpsc::channel::<()>();
        pool.submit(move || {
            // Wait until the main thread has dropped its Arc, so this job's
            // clone is provably the last one.
            dropped_main_rx.recv().expect("main signals its drop");
            drop(pool_for_job); // runs WorkerPool::drop on this worker
            tx.send(42u8).expect("collector alive");
        });
        drop(pool);
        dropped_main_tx.send(()).expect("worker waiting");
        assert_eq!(rx.recv(), Ok(42));
    }

    #[test]
    fn drop_drains_pending_jobs() {
        let pool = WorkerPool::new(1);
        let (tx, rx) = mpsc::channel();
        for _ in 0..8 {
            let tx = tx.clone();
            pool.submit(move || {
                std::thread::sleep(Duration::from_millis(1));
                let _ = tx.send(());
            });
        }
        drop(tx);
        drop(pool); // joins the worker; all queued jobs must have run
        assert_eq!(rx.into_iter().count(), 8);
    }
}
