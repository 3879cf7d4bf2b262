//! # sgs-exec
//!
//! The shared scheduler pool that carries **all** parallelism in
//! streamsum (`DESIGN.md` §8). One persistent [`Pool`] of worker threads
//! replaces thread-per-query fan-out: a parked query costs zero threads
//! until input arrives, and the query is the unit of parallelism — each
//! query's C-SGS extraction is one sequential pass.
//!
//! * [`Pool::spawn`] — fire-and-forget tasks, run in spawn order.
//! * [`global`] — the process-wide default pool, sized to
//!   `std::thread::available_parallelism`, created lazily on first use
//!   and never torn down. A runtime that is not given a dedicated pool
//!   schedules here, which is what makes the scheduler *shared*:
//!   concurrent queries multiplex over one set of OS threads.
//!
//! ## Scheduling model
//!
//! Every task lands in one FIFO injector and workers take the oldest
//! task first. The injector, the count of sleeping workers and the
//! shutdown flag share one mutex; idle workers sleep on a condvar, and a
//! push that finds one asleep wakes it after releasing the lock.
//! No task outranks another: a query has at most one live task and a
//! connection at most one request in flight, so FIFO is already
//! round-robin over ready queries and sessions (`DESIGN.md` §8).
//!
//! Scheduling never affects results: streamsum's parallel consumers are
//! designed so their outputs are independent of task interleaving (the
//! per-query serialization of `sgs-runtime`'s executor) — the pool only
//! decides *where and when* work runs, never what it computes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::{Arc, Condvar, Mutex, OnceLock};

use sgs_obs::{labeled, registry, Counter, Gauge, Histogram, SpanGuard};

/// A unit of pool work.
type Task = Box<dyn FnOnce() + Send + 'static>;

/// Construction-time handles into the process-wide metric registry
/// (`DESIGN.md` §11). Registered by name, so every pool in the process
/// shares one set of instruments — the scheduler metrics are process
/// totals, not per-pool series.
struct PoolMetrics {
    /// Tasks executed, labeled by the worker that ran them.
    tasks: Vec<Arc<Counter>>,
    /// Times a worker went to sleep on the wake condvar.
    parks: Arc<Counter>,
    /// Times a sleeping worker was woken.
    unparks: Arc<Counter>,
    /// Tasks currently queued in the injector.
    injector_depth: Arc<Gauge>,
    /// Task execution latency (nanoseconds).
    task_nanos: Arc<Histogram>,
}

impl PoolMetrics {
    fn new(threads: usize) -> PoolMetrics {
        let r = registry();
        PoolMetrics {
            tasks: (0..threads)
                .map(|w| {
                    r.counter(&labeled(
                        "sgs_exec_tasks_total",
                        &[("worker", &w.to_string())],
                    ))
                })
                .collect(),
            parks: r.counter("sgs_exec_parks_total"),
            unparks: r.counter("sgs_exec_unparks_total"),
            injector_depth: r.gauge("sgs_exec_injector_depth"),
            task_nanos: r.histogram("sgs_exec_task_nanos"),
        }
    }
}

/// Everything the pool's threads share, under `Inner::state`.
struct State {
    /// Queued tasks, oldest first.
    tasks: VecDeque<Task>,
    /// Workers waiting on `Inner::wake`.
    sleepers: usize,
    /// Set when the last user-facing handle drops.
    shutdown: bool,
}

struct Inner {
    /// Number of worker threads.
    threads: usize,
    state: Mutex<State>,
    wake: Condvar,
    /// Scheduler observability handles (`DESIGN.md` §11).
    metrics: PoolMetrics,
}

impl Inner {
    /// Push a task onto the back of the queue and wake one sleeping
    /// worker, if any. A worker counts itself a sleeper and waits under
    /// the same lock hold, so a push that reads no sleeper is seen by
    /// every worker's next look at the queue.
    fn push(&self, task: Task) {
        let mut state = self.state.lock().unwrap();
        state.tasks.push_back(task);
        let wake = state.sleepers > 0;
        drop(state);
        self.metrics.injector_depth.inc();
        if wake {
            self.wake.notify_one();
        }
    }

    /// Execute one claimed task on worker `me` with its observability
    /// bookkeeping: the per-worker task count and the latency histogram.
    fn run_task(&self, me: usize, task: Task) {
        self.metrics.tasks[me].inc();
        let _span = SpanGuard::new(&self.metrics.task_nanos);
        // A detached task must never take its thread down: panics are
        // contained here (task owners that care — the runtime executor —
        // install their own handlers underneath).
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

/// The persistent worker main loop: run tasks until the pool shuts down
/// and no queued work remains.
fn worker_loop(inner: Arc<Inner>, me: usize) {
    let mut state = inner.state.lock().unwrap();
    loop {
        if let Some(task) = state.tasks.pop_front() {
            drop(state);
            inner.metrics.injector_depth.dec();
            inner.run_task(me, task);
            state = inner.state.lock().unwrap();
        } else if state.shutdown {
            return;
        } else {
            state.sleepers += 1;
            inner.metrics.parks.inc();
            state = inner.wake.wait(state).unwrap();
            inner.metrics.unparks.inc();
            state.sleepers -= 1;
        }
    }
}

/// Signals shutdown when the last user-facing [`Pool`] handle drops.
/// Workers (which hold only `Arc<Inner>`) drain what is queued, then
/// exit.
struct ShutdownGuard {
    inner: Arc<Inner>,
}

impl Drop for ShutdownGuard {
    fn drop(&mut self) {
        self.inner.state.lock().unwrap().shutdown = true;
        self.inner.wake.notify_all();
    }
}

/// A handle to a persistent thread pool. Cheap to clone; the pool shuts
/// down (after draining queued tasks) when the last handle drops. See the
/// crate docs for the scheduling model.
#[derive(Clone)]
pub struct Pool {
    inner: Arc<Inner>,
    _shutdown: Arc<ShutdownGuard>,
}

impl std::fmt::Debug for Pool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Pool")
            .field("threads", &self.threads())
            .finish()
    }
}

impl Pool {
    /// Start a pool of `threads` persistent workers (clamped to ≥ 1).
    pub fn new(threads: usize) -> Pool {
        let threads = threads.max(1);
        let inner = Arc::new(Inner {
            threads,
            state: Mutex::new(State {
                tasks: VecDeque::new(),
                sleepers: 0,
                shutdown: false,
            }),
            wake: Condvar::new(),
            metrics: PoolMetrics::new(threads),
        });
        for me in 0..threads {
            let inner = inner.clone();
            std::thread::Builder::new()
                .name(format!("sgs-exec-{me}"))
                .spawn(move || worker_loop(inner, me))
                .expect("failed to spawn pool worker thread");
        }
        Pool {
            _shutdown: Arc::new(ShutdownGuard {
                inner: inner.clone(),
            }),
            inner,
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.inner.threads
    }

    /// Submit a detached task. A panicking task is contained by its
    /// worker (the worker survives; the payload is dropped) — tasks that
    /// need panic visibility must catch their own. Tasks are dispatched
    /// in spawn order.
    pub fn spawn(&self, f: impl FnOnce() + Send + 'static) {
        self.inner.push(Box::new(f));
    }
}

/// The process-wide default pool, sized to the machine's available
/// parallelism. Created on first use; lives for the whole process.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| {
        Pool::new(
            std::thread::available_parallelism()
                .map(std::num::NonZeroUsize::get)
                .unwrap_or(1),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::sync::mpsc;

    #[test]
    fn spawned_tasks_all_run() {
        let pool = Pool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let (c, tx) = (counter.clone(), tx.clone());
            pool.spawn(move || {
                c.fetch_add(1, Ordering::SeqCst);
                tx.send(()).unwrap();
            });
        }
        for _ in 0..100 {
            rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap();
        }
        assert_eq!(counter.load(Ordering::SeqCst), 100);
    }

    #[test]
    fn zero_threads_clamps_to_one() {
        let pool = Pool::new(0);
        assert_eq!(pool.threads(), 1);
    }

    #[test]
    fn spawned_task_panic_leaves_the_worker_alive() {
        // One worker: the task after the panicking one can only run if
        // the panic was contained on that worker's thread.
        let pool = Pool::new(1);
        let (tx, rx) = mpsc::channel();
        pool.spawn(|| panic!("detached task failure"));
        pool.spawn(move || tx.send(7).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(7),
            "the worker died with the panicking task"
        );
    }

    #[test]
    fn spawned_tasks_run_in_spawn_order() {
        // The executor's fairness quantum relies on this: a query that
        // re-queues itself lands behind every task already waiting.
        let pool = Pool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // Occupy the only worker so every spawn below queues up behind
        // the gate and is dispatched in one deterministic burst.
        pool.spawn(move || {
            gate_rx.recv().unwrap();
        });
        for tag in 0..8 {
            let (order, done_tx) = (order.clone(), done_tx.clone());
            pool.spawn(move || {
                order.lock().unwrap().push(tag);
                done_tx.send(()).unwrap();
            });
        }
        gate_tx.send(()).unwrap();
        for _ in 0..8 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
        }
        assert_eq!(*order.lock().unwrap(), (0..8).collect::<Vec<_>>());
    }

    #[test]
    fn global_pool_is_shared_and_sized() {
        let a = global();
        let b = global();
        assert!(Arc::ptr_eq(&a.inner, &b.inner));
        assert!(a.threads() >= 1);
    }

    #[test]
    fn dropping_last_handle_drains_queued_tasks() {
        let (tx, rx) = mpsc::channel();
        {
            let pool = Pool::new(1);
            for i in 0..16 {
                let tx = tx.clone();
                pool.spawn(move || {
                    tx.send(i).unwrap();
                });
            }
            // Pool handle drops here with tasks possibly still queued.
        }
        let mut got: Vec<i32> = (0..16)
            .map(|_| rx.recv_timeout(std::time::Duration::from_secs(10)).unwrap())
            .collect();
        got.sort_unstable();
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
