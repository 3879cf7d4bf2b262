//! # sgs-exec
//!
//! The shared scheduler pool that carries **all** parallelism in
//! streamsum (`DESIGN.md` §8). One persistent [`Pool`] of worker threads
//! replaces thread-per-query fan-out: a parked query costs zero threads
//! until input arrives, and the query is the unit of parallelism — each
//! query's C-SGS extraction is one sequential pass.
//!
//! * [`Pool::spawn`] — fire-and-forget tasks at two [`Priority`] levels.
//!   `Normal` carries query-ingestion tasks; `High` carries short work
//!   someone is waiting on (the server's dispatch pool spawns session
//!   teardown there).
//! * [`Pool::spawn_fair`] — `Normal` tasks under a tenancy key, dispatched
//!   in proportion to per-key weights (`DESIGN.md` §14).
//! * [`global`] — the process-wide default pool, sized to
//!   `std::thread::available_parallelism`, created lazily on first use
//!   and never torn down. A runtime that is not given a dedicated pool
//!   schedules here, which is what makes the scheduler *shared*:
//!   concurrent queries multiplex over one set of OS threads.
//!
//! ## Scheduling model
//!
//! Every task lands in one two-priority injector. A worker takes the
//! oldest `High` task first, and `Normal` work only when no `High` task
//! is queued. Idle workers sleep on a condvar and are woken per push.
//!
//! Scheduling never affects results: streamsum's parallel consumers are
//! designed so their outputs are independent of task interleaving (the
//! per-query serialization of `sgs-runtime`'s executor) — the pool only
//! decides *where and when* work runs, never what it computes.

use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
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
    /// Tasks currently queued in the two-priority injector.
    injector_depth: Arc<Gauge>,
    /// Task execution latency (nanoseconds), by priority.
    task_nanos_high: Arc<Histogram>,
    task_nanos_normal: Arc<Histogram>,
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
            task_nanos_high: r.histogram(&labeled("sgs_exec_task_nanos", &[("priority", "high")])),
            task_nanos_normal: r
                .histogram(&labeled("sgs_exec_task_nanos", &[("priority", "normal")])),
        }
    }

    fn task_nanos(&self, priority: Priority) -> &Histogram {
        match priority {
            Priority::High => &self.task_nanos_high,
            Priority::Normal => &self.task_nanos_normal,
        }
    }
}

/// Scheduling class of a [`Pool::spawn`]ed task.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Priority {
    /// Short work a caller is waiting on. Always dispatched before
    /// `Normal`.
    High,
    /// Query-ingestion tasks: independent units of multiplexed progress.
    Normal,
}

/// The global two-priority task queue. The `Normal` class is a set of
/// weighted fair queues (see [`FairNormal`]); `High` stays strict FIFO.
#[derive(Default)]
struct Injector {
    high: VecDeque<Task>,
    normal: FairNormal,
}

/// Numerator of the stride computation: a queue of weight `w` advances
/// its pass by `STRIDE1 / w` per dispatched task, so dispatch frequency
/// is proportional to weight. Large enough that integer division keeps
/// resolution for any plausible weight.
const STRIDE1: u64 = 1 << 20;

/// One fair queue of the `Normal` injector class: the tasks of one
/// tenancy key, dispatched at a rate proportional to `weight`.
struct FairQueue {
    key: u64,
    weight: u32,
    /// Virtual time at which this queue's next task is due. The queue
    /// with the minimum pass is dispatched next (stride scheduling).
    pass: u64,
    tasks: VecDeque<Task>,
}

/// Stride-scheduled weighted fair queues over tenancy keys — the
/// multi-tenant half of the scheduler (`DESIGN.md` §14). Each key (the
/// server maps one per authenticated owner; plain [`Pool::spawn`] uses
/// key 0 at weight 1) gets its own FIFO; dispatch picks the queue with
/// the minimum virtual `pass` and advances it by `STRIDE1 / weight`, so
/// over any busy interval each key receives pool slots in proportion to
/// its weight. A queue created (or refilled) while others ran starts at
/// the scheduler's current clock — an idle tenant accrues no credit to
/// burst with later. Ties break toward the lowest key, keeping dispatch
/// order deterministic for tests.
#[derive(Default)]
struct FairNormal {
    /// Live queues; keys are few (one per connected owner), so linear
    /// scans beat a map. Empty queues are dropped on pop — weight is
    /// re-supplied with every [`Pool::spawn_fair`] call, so nothing is
    /// lost and the set cannot grow with owner churn.
    queues: Vec<FairQueue>,
    /// Virtual clock: the pass of the most recently dispatched queue.
    clock: u64,
}

impl FairNormal {
    fn push(&mut self, key: u64, weight: u32, task: Task) {
        let weight = weight.max(1);
        match self.queues.iter_mut().find(|q| q.key == key) {
            Some(q) => {
                // Latest spawn wins: a weight change applies from the
                // queue's next dispatch onward.
                q.weight = weight;
                q.tasks.push_back(task);
            }
            None => {
                self.queues.push(FairQueue {
                    key,
                    weight,
                    pass: self.clock,
                    tasks: VecDeque::from([task]),
                });
            }
        }
    }

    fn pop(&mut self) -> Option<Task> {
        let next = self
            .queues
            .iter()
            .enumerate()
            .min_by_key(|(_, q)| (q.pass, q.key))?
            .0;
        let q = &mut self.queues[next];
        let task = q.tasks.pop_front().expect("fair queues are never empty");
        self.clock = q.pass;
        q.pass = q.pass.saturating_add(STRIDE1 / u64::from(q.weight));
        if q.tasks.is_empty() {
            self.queues.swap_remove(next);
        }
        Some(task)
    }
}

/// Idle/shutdown coordination, guarded by `Inner::sleep`.
struct SleepState {
    shutdown: bool,
}

struct Inner {
    injector: Mutex<Injector>,
    /// Number of worker threads.
    threads: usize,
    sleep: Mutex<SleepState>,
    wake: Condvar,
    /// Tasks currently queued. Checked under the `sleep` lock before a
    /// worker waits, which is what makes wakeups race-free: a producer
    /// increments *before* notifying.
    queued: AtomicUsize,
    /// Workers currently waiting on `wake` (registered under the `sleep`
    /// lock). Producers skip the lock-and-notify entirely while this is
    /// zero — the common saturated case — keeping the hot spawn path off
    /// the global mutex.
    sleepers: AtomicUsize,
    /// Scheduler observability handles (`DESIGN.md` §11).
    metrics: PoolMetrics,
}

impl Inner {
    /// Push a task at `priority` and wake one sleeping worker. `fair` is
    /// the `(key, weight)` tenancy tag of `Normal` work (ignored for
    /// `High`); plain spawns use `(0, 1)`.
    fn push(&self, priority: Priority, fair: (u64, u32), task: Task) {
        // Count before enqueueing: were the order reversed, a worker
        // could pop the task and decrement first, wrapping the counter to
        // `usize::MAX` and sending every idle worker into a busy-spin
        // until this increment landed. Counting early only makes workers
        // rescan a touch sooner than the task is visible.
        self.queued.fetch_add(1, Ordering::SeqCst);
        let mut inj = self.injector.lock().unwrap();
        match priority {
            Priority::High => inj.high.push_back(task),
            Priority::Normal => inj.normal.push(fair.0, fair.1, task),
        }
        drop(inj);
        self.metrics.injector_depth.inc();
        // Wake a sleeper if there is one. The order is what makes this
        // race-free without locking on every push: a worker registers in
        // `sleepers` *before* its final `queued` re-check (both SeqCst).
        // If we read `sleepers == 0` here, our `queued` increment is
        // ordered before that worker's re-check, so it will not sleep;
        // if we read a sleeper, we notify under the lock as usual.
        if self.sleepers.load(Ordering::SeqCst) > 0 {
            let _guard = self.sleep.lock().unwrap();
            self.wake.notify_one();
        }
    }

    /// Take one task: the oldest `High` task, else the next `Normal` task
    /// in fair-share order.
    fn find_task(&self) -> Option<(Task, Priority)> {
        let mut inj = self.injector.lock().unwrap();
        let claimed = match inj.high.pop_front() {
            Some(t) => (t, Priority::High),
            None => (inj.normal.pop()?, Priority::Normal),
        };
        drop(inj);
        self.queued.fetch_sub(1, Ordering::SeqCst);
        self.metrics.injector_depth.dec();
        Some(claimed)
    }

    /// Execute one claimed task on worker `me` with its observability
    /// bookkeeping: the per-worker task count and the per-priority
    /// latency histogram.
    fn run_task(&self, me: usize, task: Task, priority: Priority) {
        self.metrics.tasks[me].inc();
        let _span = SpanGuard::new(self.metrics.task_nanos(priority));
        // A detached task must never take its thread down: panics are
        // contained here (task owners that care — the runtime executor —
        // install their own handlers underneath).
        let _ = catch_unwind(AssertUnwindSafe(task));
    }
}

/// The persistent worker main loop: run tasks until the pool shuts down
/// and no queued work remains.
fn worker_loop(inner: Arc<Inner>, me: usize) {
    loop {
        if let Some((task, priority)) = inner.find_task() {
            inner.run_task(me, task, priority);
            continue;
        }
        let mut sleep = inner.sleep.lock().unwrap();
        loop {
            if inner.queued.load(Ordering::SeqCst) > 0 {
                break; // rescan
            }
            if sleep.shutdown {
                return;
            }
            // Register, then re-check `queued` before actually waiting:
            // a producer that missed us in `sleepers` (and so skipped
            // its notify) must have pushed before our registration, and
            // this re-check observes its increment — no lost wakeup.
            inner.sleepers.fetch_add(1, Ordering::SeqCst);
            if inner.queued.load(Ordering::SeqCst) > 0 {
                inner.sleepers.fetch_sub(1, Ordering::SeqCst);
                break; // rescan
            }
            inner.metrics.parks.inc();
            sleep = inner.wake.wait(sleep).unwrap();
            inner.metrics.unparks.inc();
            inner.sleepers.fetch_sub(1, Ordering::SeqCst);
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
        self.inner.sleep.lock().unwrap().shutdown = true;
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
            injector: Mutex::new(Injector::default()),
            threads,
            sleep: Mutex::new(SleepState { shutdown: false }),
            wake: Condvar::new(),
            queued: AtomicUsize::new(0),
            sleepers: AtomicUsize::new(0),
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
    /// need panic visibility must catch their own. `Normal` work spawned
    /// this way shares fair-share key 0 at weight 1; multi-tenant
    /// callers use [`spawn_fair`](Self::spawn_fair).
    pub fn spawn(&self, priority: Priority, f: impl FnOnce() + Send + 'static) {
        self.inner.push(priority, (0, 1), Box::new(f));
    }

    /// Submit a detached `Normal`-priority task under a tenancy `key`
    /// with a fair-share `weight` (clamped to ≥ 1). When several keys
    /// have work queued, the pool dispatches their tasks in proportion
    /// to their weights (stride scheduling over per-key FIFOs) instead
    /// of global FIFO order, so one owner's backlog cannot starve
    /// another's — the scheduler half of the server's tenancy model.
    /// Tasks under one key still dispatch in their spawn order, and the
    /// weight supplied with the latest spawn wins. Key 0 is shared with
    /// plain [`spawn`](Self::spawn).
    pub fn spawn_fair(&self, key: u64, weight: u32, f: impl FnOnce() + Send + 'static) {
        self.inner
            .push(Priority::Normal, (key, weight), Box::new(f));
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
    use std::sync::atomic::AtomicU64;
    use std::sync::mpsc;

    #[test]
    fn spawned_tasks_all_run() {
        let pool = Pool::new(3);
        let counter = Arc::new(AtomicU64::new(0));
        let (tx, rx) = mpsc::channel();
        for _ in 0..100 {
            let (c, tx) = (counter.clone(), tx.clone());
            pool.spawn(Priority::Normal, move || {
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
        pool.spawn(Priority::Normal, || panic!("detached task failure"));
        pool.spawn(Priority::Normal, move || tx.send(7).unwrap());
        assert_eq!(
            rx.recv_timeout(std::time::Duration::from_secs(10)),
            Ok(7),
            "the worker died with the panicking task"
        );
    }

    #[test]
    fn high_priority_dispatches_before_normal() {
        let pool = Pool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // Occupy the only worker…
        pool.spawn(Priority::Normal, move || {
            gate_rx.recv().unwrap();
        });
        // …queue Normal before High while it is blocked…
        for (pri, tag) in [(Priority::Normal, "normal"), (Priority::High, "high")] {
            let (order, done_tx) = (order.clone(), done_tx.clone());
            pool.spawn(pri, move || {
                order.lock().unwrap().push(tag);
                done_tx.send(()).unwrap();
            });
        }
        // …then release the gate: the worker must pick High first.
        gate_tx.send(()).unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        done_rx
            .recv_timeout(std::time::Duration::from_secs(10))
            .unwrap();
        assert_eq!(*order.lock().unwrap(), vec!["high", "normal"]);
    }

    #[test]
    fn fair_spawns_dispatch_in_weight_proportion() {
        let pool = Pool::new(1);
        let order = Arc::new(Mutex::new(Vec::new()));
        let (gate_tx, gate_rx) = mpsc::channel::<()>();
        let (done_tx, done_rx) = mpsc::channel::<()>();
        // Occupy the only worker so every fair spawn below queues up
        // behind the gate and is dispatched in one deterministic burst.
        pool.spawn(Priority::Normal, move || {
            gate_rx.recv().unwrap();
        });
        for (key, weight, tag, n) in [(1u64, 1u32, "a", 4usize), (2, 2, "b", 4)] {
            for _ in 0..n {
                let (order, done_tx) = (order.clone(), done_tx.clone());
                pool.spawn_fair(key, weight, move || {
                    order.lock().unwrap().push(tag);
                    done_tx.send(()).unwrap();
                });
            }
        }
        gate_tx.send(()).unwrap();
        for _ in 0..8 {
            done_rx
                .recv_timeout(std::time::Duration::from_secs(10))
                .unwrap();
        }
        // Stride scheduling at weights 1:2 (ties toward the lower key):
        // key 2 receives two dispatch slots for each of key 1's, instead
        // of the strict spawn-order burst a FIFO would produce.
        assert_eq!(
            *order.lock().unwrap(),
            vec!["a", "b", "b", "a", "b", "b", "a", "a"]
        );
    }

    #[test]
    fn idle_fair_keys_accrue_no_credit() {
        // A key that sat idle while another ran must re-enter at the
        // current virtual clock, not at zero — otherwise it would burst
        // ahead of the key that kept the pool busy.
        let mut fair = FairNormal::default();
        let noop = || Box::new(|| {}) as Task;
        for _ in 0..3 {
            fair.push(7, 1, noop());
        }
        // Two dispatches with the queue still backlogged: the clock
        // follows key 7's growing pass.
        assert!(fair.pop().is_some());
        assert!(fair.pop().is_some());
        let clock = fair.clock;
        assert!(clock > 0);
        fair.push(9, 1, noop()); // late arrival: starts at `clock`
        let late = fair.queues.iter().find(|q| q.key == 9).unwrap();
        assert_eq!(late.pass, clock);
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
                pool.spawn(Priority::Normal, move || {
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
