//! The M:N work-stealing pool.
//!
//! [`run_batch`] drives `n` rank tasks to completion on `workers` OS
//! threads. Each task is a stackful coroutine (x86-64 / AArch64) or, under
//! the fallback [`Backend::Threads`], a plain scoped thread. Tasks block
//! by calling [`park_current`], which freezes the coroutine and returns
//! control to the worker; a matching [`Waker::wake`] marks the task
//! runnable again on the deque of its *home* worker — fixed at spawn, in
//! contiguous blocks of an affinity key — so a rank keeps running where
//! its stack, `Comm` state and mailbox lines already are. A worker with
//! nothing of its own polls briefly, then borrows one task from a
//! sibling (a *loan*: the task's next wake returns it home), then sleeps.
//!
//! # Task state machine
//!
//! ```text
//!            pop            park        wake(PARKED)
//!   QUEUED ------> RUNNING ------> PARKED ----------> QUEUED
//!     ^               |
//!     |  wake(RUNNING)| finish
//!     |               v
//!     +-- NOTIFIED   DONE
//! ```
//!
//! The lost-wakeup race — a send that lands between the moment a task
//! decides to park and the moment the worker publishes `PARKED` — is
//! closed by the `NOTIFIED` state: `wake` on a `RUNNING` task CASes it to
//! `NOTIFIED`, and the worker's `RUNNING → PARKED` CAS then fails, turning
//! the park into an immediate requeue. Wakes on `QUEUED`/`NOTIFIED`/`DONE`
//! tasks are no-ops, so every runnable transition enqueues exactly once.
//!
//! # Determinism
//!
//! The pool adds no entropy: victim selection for stealing is a fixed
//! rotation, queues are plain FIFO deques, and there is no wall-clock or
//! RNG anywhere. Simulation *results* are nonetheless independent of
//! worker count and steal interleaving only because the simulator above
//! this crate orders everything by virtual time — the gate tests in the
//! workspace root prove that property at 1, 2, 3, 8 and 16 workers.
//!
//! The wake/park handshake and the idle protocol use `SeqCst`: both are
//! cross-thread protocols whose proof sketches assume a single total
//! order. The only `Relaxed` sites are the per-worker counters (written
//! by their owner alone, read after the workers are joined) and the
//! queue-length hints, which publish no data and gate no sleep.
//!
//! # The stall rule
//!
//! A batch *stalls* when every unfinished task is parked and no wake is
//! committed: nothing runs, nothing is queued, and nothing ever will be.
//! The contract that makes this decidable here: **a batch's tasks are
//! woken only by tasks of the same batch** (a plain thread holding a
//! [`Waker`] is outside it). `World::run` in `redcr-mpi` is the only
//! caller of [`run_batch`], and its ranks wake each other only from their
//! mailboxes. On a stall the pool sets the sticky `stalled` flag and wakes
//! every task once; [`park_current`] then returns `Err(Stalled)` for the
//! park the stall ended and, at once, for every later park. Above the
//! pool, an aborted world's stranded receivers and a deadlocked
//! program's ranks both leave through this one exit.
//!
//! *Coroutines.* The last worker to go idle decides, in `idle_wait`: it
//! has counted itself in `idlers`, read the idle epoch, found every run
//! queue empty under the queue locks, and then finds, under the idle
//! lock, the epoch unchanged and `idlers` equal to the worker count. A
//! worker counted idle pushes and pops nothing, so at that instant no
//! task is running or held popped. A push that landed after the queue
//! scan came from a task waking another (`wake_coro`) or a worker
//! requeueing to a sibling's deque; either saw `idlers > 0` and bumped
//! the epoch before its worker could go idle, so the unchanged epoch
//! rules it out. A worker that requeued onto its own deque pops that
//! deque dry before it idles, so nothing of its own is left behind. A
//! committed wake is always in flight on a running task (the CAS to
//! `QUEUED` precedes the push within one `wake_coro`), and none is
//! running. So every task not `DONE` is `PARKED`, and `live > 0` makes
//! that a stall.
//!
//! *Threads.* `awake` counts the tasks that are neither finished nor
//! asleep on their permit without a grant. A park that finds no grant
//! marks its permit `Awaited` and leaves the count; a finished task
//! leaves it; a wake that grants an `Awaited` permit brings the sleeper
//! back in *before* the grant is visible, under the task's own permit
//! lock (an atomic, so no pool lock nests inside it). A waker is itself
//! a running task and holds one unit, so the count reaches zero only
//! when nothing runs and no grant is outstanding: the task whose
//! decrement takes it there declares the stall, if any task is still
//! live. The broadcast runs with no lock held.

use std::cell::{Cell, UnsafeCell};
use std::collections::VecDeque;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering, Ordering::SeqCst};
use std::sync::Arc;

use redcr_prof::{CounterKey, ProfScope, Profiler, RankProf, SpanKey, TrackKey};

use crate::stack::{Stack, DEFAULT_STACK_BYTES};
use crate::sync::{assert_unlocked, Condvar, Mutex};

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
use crate::ctx;

// ---------------------------------------------------------------------------
// Configuration

/// How tasks are executed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Stackful coroutines multiplexed onto a work-stealing worker pool.
    Coro,
    /// One scoped OS thread per task (pre-M:N behavior). The fallback on
    /// architectures without a context-switch port, and selectable via
    /// `REDCR_EXEC=threads` to measure the thread-per-rank baseline.
    Threads,
}

impl Backend {
    /// The preferred backend for this architecture.
    pub fn native() -> Backend {
        #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
        {
            Backend::Coro
        }
        #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
        {
            Backend::Threads
        }
    }
}

/// Pool sizing for one [`run_batch`] call.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Worker threads driving the batch (clamped to `[1, n_tasks]`).
    pub workers: usize,
    /// Bytes of coroutine stack per task.
    pub stack_bytes: usize,
    /// Execution backend.
    pub backend: Backend,
}

impl PoolConfig {
    /// Resolves pool sizing: an explicit worker count (from
    /// `ExecutorConfig::workers` / `WorldBuilder::workers`) wins, then the
    /// `REDCR_WORKERS` environment variable, then
    /// `available_parallelism()`. `REDCR_EXEC=threads` selects the
    /// thread-per-task backend; `REDCR_STACK_KB` sizes coroutine stacks.
    pub fn resolve(explicit_workers: Option<usize>, n_tasks: usize) -> PoolConfig {
        let backend = match std::env::var("REDCR_EXEC").ok().as_deref() {
            Some("threads") => Backend::Threads,
            _ => Backend::native(),
        };
        let workers = explicit_workers
            .or_else(|| std::env::var("REDCR_WORKERS").ok().and_then(|s| s.parse().ok()))
            .unwrap_or_else(|| {
                std::thread::available_parallelism().map(std::num::NonZeroUsize::get).unwrap_or(1)
            })
            .clamp(1, n_tasks.max(1));
        let stack_bytes = stack_bytes_from_kb(std::env::var("REDCR_STACK_KB").ok().as_deref());
        PoolConfig { workers, stack_bytes, backend }
    }
}

/// Coroutine stack size for a `REDCR_STACK_KB` value: unset, unparsable or
/// too large all mean the default. The variable is outside input, so the
/// multiply is checked — a wrapped product would be a tiny slab that
/// overflows on first use — and so is the byte size against `isize::MAX`,
/// the most an allocation `Layout` accepts (`Stack::new` has no error
/// path for a layout it cannot build).
fn stack_bytes_from_kb(kb: Option<&str>) -> usize {
    kb.and_then(|s| s.parse::<usize>().ok())
        .and_then(|kb| kb.checked_mul(1024))
        .filter(|&bytes| bytes <= isize::MAX as usize)
        .unwrap_or(DEFAULT_STACK_BYTES)
}

// ---------------------------------------------------------------------------
// Task

const QUEUED: u8 = 0;
const RUNNING: u8 = 1;
const PARKED: u8 = 2;
const NOTIFIED: u8 = 3;
const DONE: u8 = 4;

const YK_PARK: u8 = 0;
const YK_YIELD: u8 = 1;
const YK_DONE: u8 = 2;

type TaskBody = Box<dyn FnOnce() + Send>;

/// A threads-backend task's park permit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Permit {
    /// No wake is pending and the task is not asleep on the permit.
    Absent,
    /// A wake is pending: the next park consumes it and returns at once.
    Granted,
    /// The task sleeps on the permit with no wake committed; it is out of
    /// the pool's `awake` count until a wake grants the permit.
    Awaited,
}

/// Why [`park_current`] returned without a wake: the batch stalled.
/// Every unfinished task was parked and no wake was committed, so nothing
/// could ever have woken this one (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Stalled;

/// One rank task. Fields split into two synchronization regimes: `state`
/// (and the thread-backend permit) are the cross-thread handshake; every
/// other field is touched only by the single worker currently running the
/// task or holding it popped from a run-queue.
pub(crate) struct Task {
    state: AtomicU8,
    /// The worker whose deque every wake and requeue of this task lands
    /// on. Fixed at spawn: a thief runs a stolen task once and never
    /// re-homes it.
    home: usize,
    /// How the task last switched back to its worker (`YK_*`); read by
    /// the worker immediately after regaining control.
    yield_kind: Cell<u8>,
    /// Frozen continuation stack pointer (coro backend).
    sp: Cell<usize>,
    /// Address of the running worker's local resume slot, so a parking
    /// task knows where to switch back to.
    ret_sp: Cell<usize>,
    stack: Option<Stack>,
    body: UnsafeCell<Option<TaskBody>>,
    /// Thread-backend park permit (wake-before-park safe).
    permit: Mutex<Permit>,
    unpark: Condvar,
}

// SAFETY: `yield_kind`, `sp`, `ret_sp`, `stack` and `body` are accessed
// only by the worker that owns the task at that moment; ownership is
// handed off through the `state` machine (SeqCst CAS) and the run-queue
// mutexes, which order those plain accesses across threads. `state`,
// `permit` and `unpark` are inherently thread-safe; `home` never changes.
unsafe impl Sync for Task {}

impl Task {
    fn new(home: usize, stack: Option<Stack>, body: TaskBody) -> Task {
        Task {
            state: AtomicU8::new(QUEUED),
            home,
            yield_kind: Cell::new(YK_PARK),
            sp: Cell::new(0),
            ret_sp: Cell::new(0),
            stack,
            body: UnsafeCell::new(Some(body)),
            permit: Mutex::new(Permit::Absent),
            unpark: Condvar::new(),
        }
    }
}

// ---------------------------------------------------------------------------
// Pool

/// One worker's scheduler counters, on its own cache lines (128 B covers
/// the adjacent-line prefetcher) and written by that worker only. With a
/// profiler they reach it as the worker's shard counters of the same
/// names once the batch ends.
#[repr(align(128))]
#[derive(Default)]
struct WorkerStats {
    remote_wakes: AtomicU64,
    steals: AtomicU64,
    loans: AtomicU64,
    local_hits: AtomicU64,
    worker_parks: AtomicU64,
    stack_high_water: AtomicU64,
}

/// Owner-only increment of a [`WorkerStats`] cell.
fn bump(cell: &AtomicU64) {
    // Relaxed suffices: a statistic with a single writer. Only the owning
    // worker thread stores to its cell, so load+store loses no update and
    // needs neither an RMW nor a fence; totals are read after the workers
    // are joined.
    cell.store(cell.load(Ordering::Relaxed) + 1, Ordering::Relaxed);
}

/// A FIFO run-queue: owner pops the front, thieves pop the back.
#[repr(align(128))]
#[derive(Default)]
struct RunQueue {
    deque: Mutex<VecDeque<usize>>,
    /// `deque.len()`, republished under the lock after every change so
    /// another worker can ask "anything there?" without taking the lock.
    len: AtomicUsize,
}

impl RunQueue {
    fn publish(&self, q: &VecDeque<usize>) {
        // Relaxed suffices: the length is a hint. The deque mutex publishes
        // the data; a stale length costs one more poll, and the pre-sleep
        // recheck in idle_wait takes the locks instead.
        self.len.store(q.len(), Ordering::Relaxed);
    }

    fn push(&self, idx: usize) {
        let mut q = self.deque.lock();
        q.push_back(idx);
        self.publish(&q);
    }

    /// Pops one end; returns the task and the depth left behind.
    fn pop(&self, front: bool) -> Option<(usize, usize)> {
        let mut q = self.deque.lock();
        let idx = if front { q.pop_front() } else { q.pop_back() }?;
        self.publish(&q);
        Some((idx, q.len()))
    }

    fn looks_empty(&self) -> bool {
        // Relaxed suffices: a hint only, see publish.
        self.len.load(Ordering::Relaxed) == 0
    }

    fn is_empty(&self) -> bool {
        self.deque.lock().is_empty()
    }
}

pub(crate) struct PoolShared {
    backend: Backend,
    tasks: Vec<Task>,
    /// Per-worker run-queues, indexed by worker.
    queues: Vec<RunQueue>,
    /// Per-worker counters, indexed by worker.
    stats: Vec<WorkerStats>,
    /// Missed-wake epoch: bumped by every enqueue that observes idlers,
    /// so a worker that re-checks the epoch under the lock before
    /// sleeping can never sleep through a wake.
    idle: Mutex<u64>,
    idle_cv: Condvar,
    idlers: AtomicUsize,
    /// Tasks not yet `DONE`; workers exit when this reaches zero.
    live: AtomicUsize,
    /// Threads backend only: tasks neither finished nor asleep on an
    /// `Awaited` permit (see the stall rule in the module docs).
    awake: AtomicUsize,
    /// Sticky: the batch stalled, and every park fails from now on.
    stalled: AtomicBool,
}

impl PoolShared {
    fn new(backend: Backend, workers: usize, tasks: Vec<Task>) -> PoolShared {
        let live = tasks.len();
        PoolShared {
            backend,
            tasks,
            queues: (0..workers).map(|_| RunQueue::default()).collect(),
            stats: (0..workers).map(|_| WorkerStats::default()).collect(),
            idle: Mutex::new(0),
            idle_cv: Condvar::new(),
            idlers: AtomicUsize::new(0),
            live: AtomicUsize::new(live),
            awake: AtomicUsize::new(live),
            stalled: AtomicBool::new(false),
        }
    }

    /// The calling thread's worker index in *this* pool, if it has one.
    fn my_worker(&self) -> Option<usize> {
        context().filter(|c| std::ptr::eq(c.pool, self)).and_then(|c| c.worker)
    }

    /// Marks task `idx` runnable, or grants its permit.
    fn wake(&self, idx: usize) {
        match self.backend {
            Backend::Threads => {
                let t = &self.tasks[idx];
                let mut permit = t.permit.lock();
                if *permit == Permit::Awaited {
                    // Back in the count before the grant is visible: the
                    // sleeper may run and finish the moment it is.
                    self.awake.fetch_add(1, SeqCst);
                }
                *permit = Permit::Granted;
                drop(permit);
                t.unpark.notify_one();
            }
            Backend::Coro => self.wake_coro(idx),
        }
    }

    /// Declares the batch stalled (see the module docs) and wakes every
    /// task once, so each parked one returns `Err(Stalled)`. Takes the
    /// run-queue, idle and permit locks one at a time: the caller holds
    /// none.
    fn stall(&self) {
        if !self.stalled.swap(true, SeqCst) {
            for idx in 0..self.tasks.len() {
                self.wake(idx);
            }
        }
    }

    /// A finished threads-backend task leaves the `awake` count; the last
    /// one to leave it with tasks still live finds the batch stalled.
    fn finish_thread_task(&self) {
        self.live.fetch_sub(1, SeqCst);
        if self.awake.fetch_sub(1, SeqCst) == 1 && self.live.load(SeqCst) != 0 {
            self.stall();
        }
    }

    /// Marks a coro task runnable. See the state-machine diagram in the
    /// module docs; this is the only producer of `QUEUED` and `NOTIFIED`.
    fn wake_coro(&self, idx: usize) {
        let t = &self.tasks[idx];
        // A bounded CAS retry, not a spin: each iteration re-reads a
        // 4-state machine whose only concurrent writers make forward
        // progress, so it cannot go round more than a handful of times.
        loop {
            match t.state.load(SeqCst) {
                PARKED => {
                    if t.state.compare_exchange(PARKED, QUEUED, SeqCst, SeqCst).is_ok() {
                        self.count_wake(t.home);
                        self.queues[t.home].push(idx);
                        self.wake_one_idler();
                        return;
                    }
                }
                RUNNING => {
                    if t.state.compare_exchange(RUNNING, NOTIFIED, SeqCst, SeqCst).is_ok() {
                        self.count_wake(t.home);
                        return;
                    }
                }
                // QUEUED / NOTIFIED: already runnable. DONE: nothing to do.
                _ => return,
            }
        }
    }

    fn count_wake(&self, home: usize) {
        if let Some(k) = self.my_worker().filter(|&k| k != home) {
            bump(&self.stats[k].remote_wakes);
        }
    }

    /// Called after every push of a woken task: one new task needs at
    /// most one more worker.
    fn wake_one_idler(&self) {
        if self.idlers.load(SeqCst) > 0 {
            *self.idle.lock() += 1;
            self.idle_cv.notify_one();
        }
    }

    /// Whether worker `k` would find a task if it looked now: its own
    /// deque exactly, the deques it could steal from by their length
    /// hints. `yield_now` calls this on every spin of a polling rank, so
    /// it must not take a sibling's lock.
    fn has_work(&self, k: usize) -> bool {
        !self.queues[k].is_empty() || self.queues.iter().any(|q| !q.looks_empty())
    }

    /// Exact, lock-taking emptiness check of every queue: the recheck a
    /// worker makes after announcing itself idle and before it sleeps.
    fn any_queued(&self) -> bool {
        self.queues.iter().any(|q| !q.is_empty())
    }

    /// Wakes every idle worker (batch finished, or a last task completed).
    fn wake_idlers(&self) {
        *self.idle.lock() += 1;
        self.idle_cv.notify_all();
    }

    /// Blocks task `idx` (the caller) until its next wake; `Err` once
    /// the batch has stalled.
    fn park(&self, idx: usize) -> Result<(), Stalled> {
        if self.stalled.load(SeqCst) {
            return Err(Stalled);
        }
        let t = &self.tasks[idx];
        match self.backend {
            Backend::Threads => {
                let mut g = t.permit.lock();
                if *g != Permit::Granted {
                    *g = Permit::Awaited;
                    if self.awake.fetch_sub(1, SeqCst) == 1 {
                        // Nothing else runs and no grant is outstanding.
                        drop(g);
                        self.stall();
                        g = t.permit.lock();
                    }
                    // The threads-backend park: the condvar wait IS the
                    // park. Under REDCR_EXEC=threads each rank owns an OS
                    // thread and blocking it is the intended suspension;
                    // the coro backend takes the context-switch arm.
                    while *g == Permit::Awaited {
                        g = t.unpark.wait(g);
                    }
                }
                *g = Permit::Absent;
            }
            Backend::Coro => switch_to_worker(t, YK_PARK),
        }
        if self.stalled.load(SeqCst) {
            Err(Stalled)
        } else {
            Ok(())
        }
    }
}

/// Freezes the running coroutine and resumes the worker that switched it
/// in, which reads `kind` to decide what becomes of the task.
fn switch_to_worker(t: &Task, kind: u8) {
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    {
        t.yield_kind.set(kind);
        // SAFETY: `ret_sp` points at the live resume slot of the worker
        // that switched us in; freezing into `sp` and resuming the worker
        // is the protocol every worker↔task transfer follows.
        unsafe {
            let to = (t.ret_sp.get() as *const usize).read();
            ctx::redcr_ctx_switch(t.sp.as_ptr(), to);
        }
    }
    #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
    {
        let _ = (t, kind);
        std::process::abort();
    }
}

// ---------------------------------------------------------------------------
// Thread-local context

/// What this thread is doing for a pool. A *borrowed* handle: `pool`
/// carries no reference count, because the batch that installs a context
/// owns an `Arc<PoolShared>` for at least as long as the context stays
/// installed. Dispatching a task therefore touches no shared line.
#[derive(Clone, Copy)]
struct Context {
    pool: *const PoolShared,
    /// Worker index, when this thread is a coro-backend pool worker.
    worker: Option<usize>,
    /// The task executing on this thread right now, if any.
    task: Option<usize>,
}

thread_local! {
    static CONTEXT: Cell<Option<Context>> = const { Cell::new(None) };
}

/// Reads this thread's context. Never inlined: a coroutine can resume on
/// another OS thread after a park, and a caller that inlined two reads
/// around a switch could reuse the first thread's TLS address.
#[inline(never)]
fn context() -> Option<Context> {
    CONTEXT.with(Cell::get)
}

/// Panics if the caller is a coroutine task — a context with both a
/// worker and a task — where `what`, an OS-thread block, would stall the
/// worker and every task queued on it. A threads-backend task (no worker)
/// and an idle worker (no task) own their thread. A no-op in release
/// builds.
pub(crate) fn assert_not_on_coroutine(what: &str) {
    #[cfg(debug_assertions)]
    {
        let on_coroutine = context().is_some_and(|c| c.worker.is_some() && c.task.is_some());
        assert!(
            !on_coroutine,
            "redcr-sched: {what} on a coroutine task blocks its worker thread; \
             park on a `Waker` instead"
        );
    }
    #[cfg(not(debug_assertions))]
    let _ = what;
}

/// Runs `f` on the pool, index and worker of the task executing on this
/// thread; `None` when no pool task is.
fn with_task<R>(f: impl FnOnce(&PoolShared, usize, Option<usize>) -> R) -> Option<R> {
    let c = context()?;
    let idx = c.task?;
    // SAFETY: a context naming a task is installed only while that task
    // executes inside `run_batch`, which holds the pool's `Arc` until
    // every task is done — and `f` runs on that task, within this frame.
    Some(f(unsafe { &*c.pool }, idx, c.worker))
}

/// Handle that marks one task of one batch runnable. Cloneable and
/// `Send + Sync`; waking a finished task or a finished batch is a no-op,
/// so stale wakers parked in mailbox waiter slots are harmless. Only a
/// task of the same batch may wake a parked task: the stall rule (module
/// docs) counts on it.
#[derive(Clone)]
pub struct Waker {
    shared: Arc<PoolShared>,
    idx: usize,
}

impl std::fmt::Debug for Waker {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Waker(task {})", self.idx)
    }
}

impl Waker {
    /// Marks the task runnable. Never blocks, but may take the run-queue
    /// and idle locks (or, under [`Backend::Threads`], the task's permit),
    /// so the caller must hold no lock of its own: in debug builds a wake
    /// under a [`crate::sync::Mutex`] guard panics here, before the task's
    /// state changes, and not on whichever path would have nested.
    pub fn wake(&self) {
        assert_unlocked("Waker::wake");
        self.shared.wake(self.idx);
    }
}

/// Returns an owned waker for the task currently running on this thread,
/// or `None` when called from a plain (non-pool) thread. This is the one
/// operation that touches the pool's reference count (the waker's drop
/// gives it back), so callers on a hot path should ask only once they
/// know they will park.
pub fn current_waker() -> Option<Waker> {
    let c = context()?;
    let idx = c.task?;
    // SAFETY: `pool` came from `Arc::as_ptr` on the batch's `Arc`, which
    // is alive while a task context is installed (see `with_task`), so
    // minting one more strong reference from it is sound.
    let shared = unsafe {
        Arc::increment_strong_count(c.pool);
        Arc::from_raw(c.pool)
    };
    Some(Waker { shared, idx })
}

/// Blocks the current task until [`Waker::wake`] is called on it: freezes
/// the coroutine and runs other tasks (or, under [`Backend::Threads`],
/// sleeps on the task's permit).
///
/// # Errors
///
/// [`Stalled`] when the batch stalled — every unfinished task parked with
/// no wake committed — while this task was parked, and at once for any
/// park after that: nothing is left that could wake it (see the module
/// docs).
///
/// # Panics
///
/// Panics when the calling thread is not running a pool task. Only a task
/// has a waker ([`current_waker`] returns `None` elsewhere), so nothing
/// could end such a park; callers get their waker first and never reach
/// this. In debug builds, also panics when the caller holds a
/// [`crate::sync::Mutex`] guard: a parked holder keeps every other rank
/// that needs the lock off its worker.
pub fn park_current() -> Result<(), Stalled> {
    assert_unlocked("park_current");
    #[expect(
        clippy::expect_used,
        reason = "caller bug, not a runtime condition: a park is preceded by current_waker(), which is None off-pool, so no correct caller gets here — and a silent return would turn its wait loop into a busy spin"
    )]
    let parked =
        with_task(|pool, idx, _| pool.park(idx)).expect("park_current called off a scheduler task");
    parked
}

/// Cooperatively reschedules the current task behind other runnable work.
/// Cheap no-op when nothing else is runnable on this worker; falls back to
/// `std::thread::yield_now()` off-pool or under the threads backend. In
/// debug builds, panics when the caller holds a [`crate::sync::Mutex`]
/// guard, as [`park_current`] does.
pub fn yield_now() {
    assert_unlocked("yield_now");
    let on_worker = with_task(|pool, idx, worker| {
        if pool.has_work(worker?) {
            switch_to_worker(&pool.tasks[idx], YK_YIELD);
        }
        Some(())
    });
    if on_worker.flatten().is_none() {
        #[expect(
            clippy::disallowed_methods,
            reason = "not on a coroutine: off-pool or a threads-backend task, which owns its OS thread"
        )]
        std::thread::yield_now();
    }
}

// ---------------------------------------------------------------------------
// Batch execution

/// Home worker of each task: the tasks, ordered by affinity key (ties in
/// index order), cut into `workers` contiguous near-equal blocks. `keys`
/// is a hint — wrong-length or absent, the task index is the key, which
/// is MPI's default block placement.
fn home_workers(n: usize, workers: usize, keys: Option<&[u32]>) -> Vec<usize> {
    let mut order: Vec<usize> = (0..n).collect();
    if let Some(keys) = keys.filter(|k| k.len() == n) {
        order.sort_by_key(|&i| keys[i]);
    }
    let mut home = vec![0; n];
    for (pos, &i) in order.iter().enumerate() {
        home[i] = pos * workers / n;
    }
    home
}

/// Runs `f(0..n)` to completion as `n` tasks on the configured pool and
/// returns every task's outcome, indexed by task id: `Err` carries the
/// panic payload of a task whose body panicked.
///
/// `keys[i]` is task `i`'s affinity key: tasks with equal or neighbouring
/// keys exchange the most messages and are homed on the same worker (see
/// `home_workers`). Placement never changes what a task computes, only
/// which OS thread runs it; the threads backend ignores it.
///
/// When `profiler` is supplied, each worker records a `worker{k}` shard:
/// idle spans, its scheduler counters and run-queue-depth samples,
/// absorbed into the profiler when the batch ends.
pub fn run_batch<T, F>(
    cfg: &PoolConfig,
    n: usize,
    keys: Option<&[u32]>,
    profiler: Option<&Profiler>,
    f: F,
) -> Vec<std::thread::Result<T>>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let backend = match cfg.backend {
        Backend::Coro => Backend::native(), // downgrades off-arch requests
        Backend::Threads => Backend::Threads,
    };
    let results: Vec<Mutex<Option<std::thread::Result<T>>>> =
        (0..n).map(|_| Mutex::new(None)).collect();

    let workers = cfg.workers.clamp(1, n.max(1));
    let home = home_workers(n, workers, keys);
    let mut tasks = Vec::with_capacity(n);
    for (i, slot) in results.iter().enumerate() {
        let fref = &f;
        let body: Box<dyn FnOnce() + Send + '_> = Box::new(move || {
            let out = catch_unwind(AssertUnwindSafe(|| fref(i)));
            *slot.lock() = Some(out);
        });
        // SAFETY: lifetime erasure only. Every body is consumed (or
        // dropped) before `run_batch` returns — workers are joined and the
        // batch runs to `live == 0` — so no borrow of `f`/`results`
        // escapes this call. Wakers may outlive the call holding the
        // `Arc`, but by then every body slot is `None`.
        let body: TaskBody =
            unsafe { std::mem::transmute::<Box<dyn FnOnce() + Send + '_>, TaskBody>(body) };
        let stack = match backend {
            Backend::Coro => Some(Stack::new(cfg.stack_bytes)),
            Backend::Threads => None,
        };
        tasks.push(Task::new(home[i], stack, body));
    }
    let shared = Arc::new(PoolShared::new(backend, workers, tasks));

    match backend {
        Backend::Coro => run_coro(&shared, profiler),
        Backend::Threads => run_threads(&shared),
    }

    results
        .into_iter()
        .map(|m| match m.into_inner() {
            Some(r) => r,
            // Unreachable: a batch only ends once every body ran.
            None => {
                Err(Box::new("redcr-sched: task produced no result")
                    as Box<dyn std::any::Any + Send>)
            }
        })
        .collect()
}

fn run_threads(shared: &Arc<PoolShared>) {
    std::thread::scope(|s| {
        for idx in 0..shared.tasks.len() {
            s.spawn(move || {
                let me = Context { pool: Arc::as_ptr(shared), worker: None, task: Some(idx) };
                let prev = CONTEXT.with(|c| c.replace(Some(me)));
                // SAFETY: this scoped thread is the only accessor of its
                // own task's body slot.
                let body = unsafe { (*shared.tasks[idx].body.get()).take() };
                if let Some(b) = body {
                    b();
                }
                shared.finish_thread_task();
                CONTEXT.with(|c| c.set(prev));
            });
        }
    });
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn run_coro(shared: &Arc<PoolShared>, profiler: Option<&Profiler>) {
    // Forge each task's initial continuation now that the task vector has
    // its final address, and queue it at home.
    for (idx, t) in shared.tasks.iter().enumerate() {
        if let Some(stack) = &t.stack {
            // SAFETY: freshly allocated, exclusively owned stack.
            let sp = unsafe { ctx::forge_stack(stack.top(), t as *const Task as usize) };
            t.sp.set(sp);
        }
        shared.queues[t.home].push(idx);
    }
    let workers = shared.queues.len();
    if workers > 1 {
        std::thread::scope(|s| {
            for k in 1..workers {
                s.spawn(move || worker_loop(shared, k, profiler));
            }
            // The driver thread is worker 0: with one worker the whole
            // batch runs as a user-space event loop with no thread spawns
            // and no condvar traffic at all.
            worker_loop(shared, 0, profiler);
        });
    } else {
        worker_loop(shared, 0, profiler);
    }
}

#[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
fn run_coro(_shared: &Arc<PoolShared>, _profiler: Option<&Profiler>) {
    // `Backend::native()` never selects Coro off-arch.
    std::process::abort();
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn worker_loop(shared: &Arc<PoolShared>, k: usize, profiler: Option<&Profiler>) {
    // Save and restore the surrounding context so nested batches (a pool
    // task that itself runs `run_batch`) and back-to-back batches both
    // work.
    let me = Context { pool: Arc::as_ptr(shared), worker: Some(k), task: None };
    let prev = CONTEXT.with(|c| c.replace(Some(me)));
    let shard = profiler.map(|p| p.shard(ProfScope::Worker(k as u32)));
    while shared.live.load(SeqCst) != 0 {
        match next_task(shared, k, shard.as_ref()) {
            Some(idx) => {
                CONTEXT.with(|c| c.set(Some(Context { task: Some(idx), ..me })));
                run_task(shared, idx, k);
                CONTEXT.with(|c| c.set(Some(me)));
            }
            None => idle_wait(shared, k, shard.as_ref()),
        }
    }
    // Everything finished: make sure no sibling stays asleep.
    shared.wake_idlers();
    if let (Some(p), Some(s)) = (profiler, shard) {
        let stats = &shared.stats[k];
        for (key, cell) in [
            (CounterKey::LocalHits, &stats.local_hits),
            (CounterKey::Steals, &stats.steals),
            (CounterKey::Loans, &stats.loans),
            (CounterKey::RemoteWakes, &stats.remote_wakes),
            (CounterKey::WorkerParks, &stats.worker_parks),
            (CounterKey::StackHighWater, &stats.stack_high_water),
        ] {
            s.add(key, cell.load(SeqCst));
        }
        p.absorb(s.drain());
    }
    CONTEXT.with(|c| c.set(prev));
}

/// How many times a worker with an empty deque re-reads its length hint
/// before it steals, and failing that sleeps. Under all-to-all voting the
/// next wake for one of its own tasks is microseconds away; stealing at
/// once would drag a sibling's rank, and its working set, across cores,
/// and a worker that sleeps costs its waker a futex call and is then
/// robbed of every task pushed to it until the kernel has woken it. The
/// bound (tens of microseconds) is about one such sleep/wake round trip.
const HOME_POLLS: u32 = 2_000;

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn next_task(shared: &PoolShared, k: usize, shard: Option<&RankProf>) -> Option<usize> {
    let own = &shared.queues[k];
    let mut popped = own.pop(true);
    if popped.is_none() && shared.queues.len() > 1 {
        // A constant-bounded delay before the steal below, not a wait.
        for _ in 0..HOME_POLLS {
            if !own.looks_empty() {
                popped = own.pop(true);
                break;
            }
            std::hint::spin_loop();
        }
    }
    if let Some((idx, depth)) = popped {
        bump(&shared.stats[k].local_hits);
        if let Some(s) = shard {
            s.sample(TrackKey::RunQueueDepth, depth as f64);
        }
        return Some(idx);
    }
    steal(shared, k)
}

/// Takes one task from the back of the first non-empty sibling deque, in
/// fixed rotation from `k`. The task keeps its home: this is a loan.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn steal(shared: &PoolShared, k: usize) -> Option<usize> {
    let w = shared.queues.len();
    let victims = (1..w).map(|d| &shared.queues[(k + d) % w]);
    let (idx, _) = victims.filter(|v| !v.looks_empty()).find_map(|v| v.pop(false))?;
    bump(&shared.stats[k].steals);
    Some(idx)
}

/// Parks the worker on the idle condvar until new work is enqueued or the
/// batch drains. The epoch handshake makes this missed-wake safe: any
/// enqueue that observes `idlers > 0` bumps the epoch under the lock, so
/// an enqueue landing between our queue re-scan and the `wait` flips the
/// epoch and the wait never starts. The re-scan takes the queue locks
/// (the length hints carry no ordering), so it cannot miss a push that
/// read `idlers == 0`. The last worker to go idle finds the batch
/// stalled instead of sleeping (the stall rule in the module docs).
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn idle_wait(shared: &PoolShared, k: usize, shard: Option<&RankProf>) {
    shared.idlers.fetch_add(1, SeqCst);
    let epoch = *shared.idle.lock();
    if !shared.any_queued() && shared.live.load(SeqCst) != 0 {
        let mut g = shared.idle.lock();
        if *g == epoch && shared.idlers.load(SeqCst) == shared.queues.len() {
            drop(g);
            shared.stall();
        } else {
            bump(&shared.stats[k].worker_parks);
            let _idle = shard.map(|s| s.span(SpanKey::WorkerIdle));
            while *g == epoch && shared.live.load(SeqCst) != 0 {
                g = shared.idle_cv.wait(g);
            }
        }
    }
    shared.idlers.fetch_sub(1, SeqCst);
}

#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn run_task(shared: &PoolShared, idx: usize, k: usize) {
    let t = &shared.tasks[idx];
    if t.home != k {
        bump(&shared.stats[k].loans);
    }
    t.state.store(RUNNING, SeqCst);
    let mut resume_slot: usize = 0;
    t.ret_sp.set(&mut resume_slot as *mut usize as usize);
    // SAFETY: `sp` holds either the forged initial frame or the frame the
    // task froze when it last parked/yielded; `resume_slot` lives until
    // the task switches back, which is the only way control returns here.
    unsafe { ctx::redcr_ctx_switch(&mut resume_slot, t.sp.get()) };
    if let Some(stack) = &t.stack {
        stack.check_canary();
    }
    match t.yield_kind.get() {
        YK_DONE => {
            #[cfg(debug_assertions)]
            if let Some(stack) = &t.stack {
                let cell = &shared.stats[k].stack_high_water;
                // Relaxed suffices: owner-written, read after the join (see bump).
                cell.store(
                    cell.load(Ordering::Relaxed).max(stack.high_water() as u64),
                    Ordering::Relaxed,
                );
            }
            t.state.store(DONE, SeqCst);
            if shared.live.fetch_sub(1, SeqCst) == 1 {
                shared.wake_idlers();
            }
        }
        YK_YIELD => {
            // A yield promises to run *behind* other runnable work. With
            // nothing else queued here the yielder would be popped straight
            // back while the rank it polls for (a `test` loop waiting on a
            // message) sits on a sibling's deque: `yield_now` is public API,
            // and a caller that polls must make progress at every width.
            if shared.queues[k].looks_empty() {
                if let Some(other) = steal(shared, k) {
                    shared.queues[k].push(other);
                }
            }
            requeue(shared, idx, k);
        }
        _ => {
            // YK_PARK. A wake that raced us flipped RUNNING → NOTIFIED;
            // honor it by requeueing instead of parking.
            if t.state.compare_exchange(RUNNING, PARKED, SeqCst, SeqCst).is_err() {
                requeue(shared, idx, k);
            }
        }
    }
}

/// Puts a still-runnable task back on its home deque. Worker `k`, doing
/// the requeue, looks for work next and so needs no signal itself; a
/// task it had on loan goes back to a home worker that may be asleep.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
fn requeue(shared: &PoolShared, idx: usize, k: usize) {
    let t = &shared.tasks[idx];
    t.state.store(QUEUED, SeqCst);
    shared.queues[t.home].push(idx);
    if t.home != k {
        shared.wake_one_idler();
    }
}

/// First Rust frame of every coroutine; `redcr_task_start` lands here with
/// the task pointer as its argument. Never returns — a finished task
/// switches back to its worker with `YK_DONE`.
#[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
pub(crate) extern "C" fn redcr_task_entry(task: *const Task) {
    // SAFETY: `task` is the pointer `run_coro` forged into this stack; the
    // `PoolShared` holding it outlives the batch.
    let t = unsafe { &*task };
    // SAFETY: only the worker running the task touches its body slot.
    let body = unsafe { (*t.body.get()).take() };
    if catch_unwind(AssertUnwindSafe(|| {
        if let Some(b) = body {
            b();
        }
    }))
    .is_err()
    {
        // The body wraps user code in its own catch_unwind; a panic
        // reaching this frame would otherwise unwind through the forged
        // trampoline frame, which has no unwind info. Die loudly.
        std::process::abort();
    }
    // Final switch back to the owning worker; never resumed.
    switch_to_worker(t, YK_DONE);
    std::process::abort();
}

#[cfg(test)]
mod tests {
    use super::*;
    use redcr_prof::ProfReport;

    fn cfg(workers: usize, backend: Backend) -> PoolConfig {
        PoolConfig { workers, stack_bytes: 128 * 1024, backend }
    }

    fn unwrap_all<T>(r: Vec<std::thread::Result<T>>) -> Vec<T> {
        r.into_iter().map(|x| x.unwrap()).collect()
    }

    /// Runs a batch with a profiler on: its outcomes and its profile, in
    /// which every worker's counters arrive as its shard's.
    fn profiled<T: Send>(
        c: &PoolConfig,
        n: usize,
        f: impl Fn(usize) -> T + Sync,
    ) -> (Vec<std::thread::Result<T>>, ProfReport) {
        let profiler = Profiler::new();
        let out = run_batch(c, n, None, Some(&profiler), f);
        (out, profiler.report())
    }

    type Slot = Mutex<Option<Waker>>;

    /// Waits for a parked task to publish its waker, `relax`ing in between.
    fn take_waker(slot: &Slot, relax: fn()) -> Waker {
        loop {
            if let Some(w) = slot.lock().take() {
                return w;
            }
            relax();
        }
    }

    #[test]
    fn plain_batch_runs_every_task() {
        for workers in [1, 4] {
            let out = run_batch(&cfg(workers, Backend::Coro), 100, None, None, |i| i * 2);
            assert_eq!(unwrap_all(out), (0..100).map(|i| i * 2).collect::<Vec<_>>());
        }
    }

    #[test]
    fn zero_tasks_is_a_noop() {
        let out = run_batch(&cfg(2, Backend::Coro), 0, None, None, |i| i);
        assert!(out.is_empty());
    }

    fn park_wake_pairs(backend: Backend, workers: usize) {
        // Even task 2k parks until its partner 2k+1 wakes it. The partner
        // spins on the published waker slot, yielding so a single worker
        // can interleave them.
        let n = 16;
        let slots: Vec<Slot> = (0..n).map(|_| Mutex::new(None)).collect();
        let out = run_batch(&cfg(workers, backend), n, None, None, |i| {
            if i % 2 == 0 {
                *slots[i].lock() = Some(current_waker().expect("on a pool task"));
                park_current().expect("woken by its partner");
            } else {
                take_waker(&slots[i - 1], yield_now).wake();
            }
            i
        });
        assert_eq!(unwrap_all(out), (0..n).collect::<Vec<_>>());
    }

    #[test]
    fn park_wake_coro_one_worker() {
        park_wake_pairs(Backend::Coro, 1);
    }

    #[test]
    fn park_wake_coro_many_workers() {
        park_wake_pairs(Backend::Coro, 4);
    }

    #[test]
    fn park_wake_threads_backend() {
        park_wake_pairs(Backend::Threads, 1);
    }

    #[test]
    fn wake_before_park_is_not_lost() {
        // A wake that lands while the task is RUNNING (here: a self-wake,
        // the deterministic stand-in for a send racing the park) must flip
        // the state to NOTIFIED so the subsequent park requeues instead of
        // sleeping forever.
        let out = run_batch(&cfg(1, Backend::Coro), 1, None, None, |_| {
            let w = current_waker().expect("on a pool task");
            w.wake();
            park_current().expect("absorbed by the pending notification");
            42
        });
        assert_eq!(unwrap_all(out), vec![42]);
    }

    #[test]
    fn panicking_task_is_reported_not_fatal() {
        let out = run_batch(&cfg(2, Backend::Coro), 4, None, None, |i| {
            assert!(i != 2, "task two fails");
            i
        });
        assert!(out[2].is_err());
        for (i, r) in out.iter().enumerate() {
            if i != 2 {
                assert!(r.is_ok());
            }
        }
    }

    #[test]
    fn a_panic_beside_a_parked_partner_releases_it_as_stalled() {
        // Task 1 parks until task 0 wakes it, and task 0 panics first. The
        // batch must return the panic, with task 1 released as stalled;
        // its second park, after the stall, is refused without blocking.
        for (backend, workers) in [(Backend::Coro, 1), (Backend::Coro, 2), (Backend::Threads, 2)] {
            let slot: Slot = Mutex::new(None);
            let out = run_batch(&cfg(workers, backend), 2, None, None, |i| {
                if i == 0 {
                    let _partner = take_waker(&slot, yield_now);
                    panic!("task zero fails before it wakes task one");
                }
                *slot.lock() = current_waker();
                (park_current(), park_current())
            });
            assert!(out[0].is_err(), "{backend:?} at {workers}");
            let released = out[1].as_ref().ok();
            assert_eq!(released, Some(&(Err(Stalled), Err(Stalled))), "{backend:?} at {workers}");
        }
    }

    #[test]
    fn oversubscribed_yield_storm_completes_and_steals() {
        let (out, profile) = profiled(&cfg(4, Backend::Coro), 64, |i| {
            let mut acc = i as u64;
            for _ in 0..50 {
                acc = acc.wrapping_mul(6364136223846793005).wrapping_add(1);
                yield_now();
            }
            acc
        });
        assert_eq!(out.len(), 64);
        assert!(out.iter().all(|r| r.is_ok()));
        assert!(profile.total_counter(CounterKey::LocalHits) > 0);
    }

    #[test]
    fn nested_batches_work() {
        let out = run_batch(&cfg(2, Backend::Coro), 3, None, None, |i| {
            let inner = run_batch(&cfg(1, Backend::Coro), 4, None, None, move |j| i * 10 + j);
            unwrap_all(inner).into_iter().sum::<usize>()
        });
        let expect: Vec<usize> = (0..3).map(|i| (0..4).map(|j| i * 10 + j).sum()).collect();
        assert_eq!(unwrap_all(out), expect);
    }

    #[test]
    fn batch_stats_sum_the_worker_cells() {
        // A batch's scheduler counters reach the profiler as its worker
        // shards': each total must be the sum of the worker cells (the
        // stack peak their maximum). Odd tasks 1, 3, 5 wake their even
        // partners from inside the pool; task 6 is woken by a plain
        // thread, which no worker's cell counts; that thread also keeps
        // its waker so the pool's cells can be read once the batch is
        // over. Task 7 stays runnable until that wake has landed, so the
        // batch cannot stall meanwhile.
        let slots: Vec<Slot> = (0..8).map(|_| Mutex::new(None)).collect();
        let woken_outside = AtomicBool::new(false);
        let (profile, outside) = std::thread::scope(|s| {
            let outside = s.spawn(|| {
                let w = take_waker(&slots[6], yield_now);
                w.wake();
                woken_outside.store(true, SeqCst);
                w
            });
            let (_, profile) = profiled(&cfg(2, Backend::Coro), 8, |i| {
                if i % 2 == 0 {
                    *slots[i].lock() = Some(current_waker().expect("on a pool task"));
                    park_current().expect("woken");
                } else if i < 7 {
                    take_waker(&slots[i - 1], yield_now).wake();
                } else {
                    while !woken_outside.load(SeqCst) {
                        yield_now();
                    }
                }
            });
            (profile, outside.join().expect("waker thread"))
        });
        let pool = &outside.shared;
        let sum = |cell: fn(&WorkerStats) -> &AtomicU64| {
            pool.stats.iter().map(|w| cell(w).load(SeqCst)).sum::<u64>()
        };
        let total = |key| profile.total_counter(key);
        assert_eq!(total(CounterKey::RemoteWakes), sum(|w| &w.remote_wakes));
        assert_eq!(total(CounterKey::Steals), sum(|w| &w.steals));
        assert_eq!(total(CounterKey::Loans), sum(|w| &w.loans));
        assert_eq!(total(CounterKey::LocalHits), sum(|w| &w.local_hits));
        assert_eq!(total(CounterKey::WorkerParks), sum(|w| &w.worker_parks));
        let deepest = pool.stats.iter().map(|w| w.stack_high_water.load(SeqCst)).max();
        assert_eq!(Some(total(CounterKey::StackHighWater)), deepest);
    }

    fn my_worker() -> usize {
        context().and_then(|c| c.worker).expect("on a coro worker")
    }

    /// Holds the calling task's worker (no yield) until `flag` is set:
    /// the tests below force their interleavings by keeping a worker busy.
    fn hold_worker_until(flag: &AtomicBool) {
        while !flag.load(SeqCst) {
            std::hint::spin_loop();
        }
    }

    #[test]
    fn remote_wake_runs_the_task_on_its_home_worker() {
        // Task 0 (home: worker 0) parks; task 1 wakes it from worker 1 and
        // then keeps worker 1 busy. The barrier pins both tasks to their
        // home workers before anything is woken.
        let both_running = std::sync::Barrier::new(2);
        let slot: Slot = Mutex::new(None);
        let resumed = AtomicBool::new(false);
        let (out, profile) = profiled(&cfg(2, Backend::Coro), 2, |i| {
            both_running.wait();
            if i == 0 {
                *slot.lock() = current_waker();
                park_current().expect("woken by task one");
                resumed.store(true, SeqCst);
                my_worker()
            } else {
                take_waker(&slot, std::hint::spin_loop).wake();
                hold_worker_until(&resumed);
                my_worker()
            }
        });
        assert_eq!(unwrap_all(out), vec![0, 1]);
        let counts = [CounterKey::RemoteWakes, CounterKey::Steals, CounterKey::Loans]
            .map(|key| profile.total_counter(key));
        assert_eq!(counts, [1, 0, 0]);
    }

    #[test]
    fn stolen_task_runs_once_on_loan_then_returns_home() {
        // Homes: tasks 0 and 1 on worker 0, task 2 on worker 1. Task 0
        // holds worker 0, so idle worker 1 steals task 1. Task 1 parks
        // there; woken, it must run on worker 0 again — without a second
        // steal — while task 2 holds worker 1.
        let slots: Vec<Slot> = (0..3).map(|_| Mutex::new(None)).collect();
        let (loaned_parked, back_home) = (AtomicBool::new(false), AtomicBool::new(false));
        let (out, profile) = profiled(&cfg(2, Backend::Coro), 3, |i| match i {
            0 => {
                hold_worker_until(&loaned_parked);
                take_waker(&slots[1], std::hint::spin_loop).wake();
                vec![my_worker()]
            }
            1 => {
                let first = my_worker();
                take_waker(&slots[2], std::hint::spin_loop).wake();
                *slots[1].lock() = current_waker();
                loaned_parked.store(true, SeqCst);
                park_current().expect("woken by task zero");
                back_home.store(true, SeqCst);
                vec![first, my_worker()]
            }
            _ => {
                *slots[2].lock() = current_waker();
                park_current().expect("woken by task one");
                hold_worker_until(&back_home);
                vec![my_worker()]
            }
        });
        assert_eq!(unwrap_all(out), vec![vec![0], vec![1, 0], vec![1]]);
        let counts = [CounterKey::Steals, CounterKey::Loans].map(|key| profile.total_counter(key));
        assert_eq!(counts, [1, 1]);
    }

    #[test]
    fn block_placement_covers_every_task_once() {
        assert_eq!(home_workers(10, 3, None), vec![0, 0, 0, 0, 1, 1, 1, 2, 2, 2]);
        // 8 virtual ranks at r = 3 in `VirtualMap` layout: primaries first,
        // then two shadows per virtual rank.
        let keys: Vec<u32> = (0..8).chain((0..16).map(|s| s / 2)).collect();
        let home = home_workers(24, 2, Some(&keys));
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(home[i], usize::from(k >= 4), "replica {i} of virtual rank {k}");
        }
        // A key slice of the wrong length is no hint at all.
        assert_eq!(home_workers(24, 2, Some(&keys[..8])), home_workers(24, 2, None));
        for (n, w, keys) in [(10, 3, None), (24, 2, Some(&keys[..])), (7, 7, None), (5, 4, None)] {
            let home = home_workers(n, w, keys);
            let sizes: Vec<usize> =
                (0..w).map(|k| home.iter().filter(|&&h| h == k).count()).collect();
            assert_eq!(sizes.iter().sum::<usize>(), n);
            assert!(sizes.iter().all(|&s| s == n / w || s == n.div_ceil(w)), "{sizes:?}");
        }
    }

    #[test]
    fn cross_worker_ping_loses_no_wakeup() {
        // Tasks 0 and `w - 1` sit on the first and last worker and hand a
        // turn counter back and forth, parking between turns; every other
        // worker has nothing and walks poll → steal → sleep throughout.
        const ROUNDS: usize = 10_000;
        for workers in [2usize, 4] {
            let turn = AtomicUsize::new(0);
            let slots: [Slot; 2] = [Mutex::new(None), Mutex::new(None)];
            let out = run_batch(&cfg(workers, Backend::Coro), workers, None, None, |i| {
                let me = match i {
                    0 => 0,
                    i if i == workers - 1 => 1,
                    _ => return,
                };
                for round in (me..2 * ROUNDS).step_by(2) {
                    while turn.load(SeqCst) != round {
                        *slots[me].lock() = current_waker();
                        if turn.load(SeqCst) != round {
                            park_current().expect("the partner hands the turn back");
                        }
                    }
                    turn.store(round + 1, SeqCst);
                    // Bound first: an `if let` scrutinee's guard would
                    // live through the block, and `wake` takes the
                    // run-queue lock.
                    let partner = slots[1 - me].lock().take();
                    if let Some(w) = partner {
                        w.wake();
                    }
                }
            });
            assert_eq!(turn.load(SeqCst), 2 * ROUNDS, "workers={workers}");
            assert!(out.iter().all(|r| r.is_ok()));
        }
    }

    #[test]
    fn resolve_clamps_workers_to_tasks() {
        let resolved = PoolConfig::resolve(Some(64), 4);
        assert_eq!(resolved.workers, 4);
        let one = PoolConfig::resolve(Some(0), 4);
        assert_eq!(one.workers, 1);
    }

    #[test]
    fn stack_kb_overflow_falls_back_to_the_default() {
        assert_eq!(stack_bytes_from_kb(None), DEFAULT_STACK_BYTES);
        assert_eq!(stack_bytes_from_kb(Some("256")), 256 * 1024);
        assert_eq!(stack_bytes_from_kb(Some("lots")), DEFAULT_STACK_BYTES);
        assert_eq!(stack_bytes_from_kb(Some("-1")), DEFAULT_STACK_BYTES);
        // usize::MAX / 1024 + 1 is the smallest value whose product wraps.
        let wraps = (usize::MAX / 1024 + 1).to_string();
        assert_eq!(stack_bytes_from_kb(Some(&wraps)), DEFAULT_STACK_BYTES);
        assert_eq!(stack_bytes_from_kb(Some(&usize::MAX.to_string())), DEFAULT_STACK_BYTES);
        // The product can fit `usize` and still exceed what a `Layout`
        // accepts: isize::MAX / 1024 KiB is the last size that does not.
        let fits = isize::MAX as usize / 1024;
        assert_eq!(stack_bytes_from_kb(Some(&fits.to_string())), fits * 1024);
        assert_eq!(stack_bytes_from_kb(Some(&(fits + 1).to_string())), DEFAULT_STACK_BYTES);
        assert!(std::alloc::Layout::from_size_align(fits * 1024, 16).is_ok());
        assert!(std::alloc::Layout::from_size_align((fits + 1) * 1024, 16).is_err());
    }

    #[test]
    #[should_panic(expected = "off a scheduler task")]
    fn park_off_pool_fails_loudly() {
        let _ = park_current();
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_park_yield_or_wake_under_a_guard_panics_and_names_the_class() {
        struct Ledger;
        let ledger = Mutex::new(Ledger);
        let self_wake = || current_waker().expect("on a pool task").wake();
        for backend in [Backend::Coro, Backend::Threads] {
            for (op, name) in [
                (
                    (|| {
                        let _ = park_current();
                    }) as fn(),
                    "park_current",
                ),
                (yield_now, "yield_now"),
                (self_wake, "Waker::wake"),
            ] {
                let out = run_batch(&cfg(1, backend), 1, None, None, |_| {
                    let _held = ledger.lock();
                    op();
                });
                let payload = out.into_iter().next().unwrap().expect_err("must panic");
                let text = payload.downcast::<String>().map(|s| *s).unwrap_or_default();
                assert!(text.contains(&format!("{name} while holding a `")), "{text}");
                assert!(text.contains("::Ledger` lock"), "{backend:?}: {text}");
            }
        }
        // The unwind gave the lock back.
        drop(ledger.lock());
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_condvar_wait_on_a_coroutine_panics_but_a_thread_task_may_wait() {
        let (m, cv) = (Mutex::new(()), Condvar::new());
        let done = AtomicBool::new(false);
        for backend in [Backend::Coro, Backend::Threads] {
            done.store(false, SeqCst);
            let out = std::thread::scope(|s| {
                // Notifies until the batch is over, so a wait that does
                // start also ends: without the check the coroutine would
                // fail the assertion below, not hang its only worker.
                s.spawn(|| {
                    while !done.load(SeqCst) {
                        cv.notify_all();
                        yield_now();
                    }
                });
                let out = run_batch(&cfg(1, backend), 1, None, None, |_| drop(cv.wait(m.lock())));
                done.store(true, SeqCst);
                out
            });
            let result = out.into_iter().next().unwrap();
            match backend {
                Backend::Coro => {
                    let payload = result.expect_err("a coroutine's wait must panic");
                    let text = payload.downcast::<String>().map(|s| *s).unwrap_or_default();
                    assert!(text.contains("Condvar::wait on a coroutine task"), "{text}");
                }
                Backend::Threads => assert!(result.is_ok(), "a thread task owns its thread"),
            }
        }
        // The unwind gave the lock back.
        drop(m.lock());
    }

    /// Recurses `depth` frames, each holding a 256-byte buffer that the
    /// optimizer must keep.
    fn descend(depth: u32) -> u64 {
        let buf = std::hint::black_box([depth as u8; 256]);
        if depth == 0 {
            return u64::from(buf[0]);
        }
        descend(depth - 1) + u64::from(buf[255])
    }

    #[cfg(debug_assertions)]
    #[test]
    fn a_deeper_task_reads_a_higher_stack_high_water() {
        let high_water = |backend, depth| {
            profiled(&cfg(1, backend), 1, |_| descend(depth))
                .1
                .total_counter(CounterKey::StackHighWater)
        };
        let depths = [2u32, 16, 64];
        let readings = depths.map(|d| high_water(Backend::Coro, d));
        assert!(readings[0] > 0, "{readings:?}");
        for (pair, d) in readings.windows(2).zip(depths.windows(2)) {
            // Every extra frame holds at least its 256-byte buffer.
            assert!(pair[1] >= pair[0] + u64::from(d[1] - d[0]) * 256, "{readings:?}");
        }
        assert!(readings[2] < DEFAULT_STACK_BYTES as u64, "{readings:?}");
        // Thread stacks are the OS's, and nobody paints them.
        assert_eq!(high_water(Backend::Threads, 64), 0);
    }
}
