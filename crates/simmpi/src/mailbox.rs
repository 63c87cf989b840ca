//! Per-rank mailboxes: unbounded buffered delivery, matched in arrival
//! order.
//!
//! Sends are *eager*: the sender deposits the envelope into the receiver's
//! mailbox and continues (never blocks). The mailbox is one queue of
//! buffered envelopes in arrival order, and a receive or probe uses the
//! first envelope its [`MatchSpec`] matches. By construction that is the
//! oldest matching arrival — MPI's rule — for specific and wildcard
//! (`ANY_SOURCE` and/or `ANY_TAG`) receives alike, and FIFO order within
//! one (source, tag) channel follows from it.
//!
//! The scan is short because the queue is. On the benchmark's runtime
//! workloads a find examines on average about one buffered envelope
//! (0.97 for CG at r = 3 on one worker, 0.95 on two, 0.85 for Jacobi
//! under failures; more than nine finds in ten examine at most one).
//! The 1 024-rank CG averages 17.5, nearly all of it one tail: 6.7 % of
//! its finds examine 64–1 023 envelopes, at the root of `allgather`,
//! whose `gather` receives from ranks 0…n−1 in order while their copies
//! arrive interleaved. Nothing is deep enough often enough to pay for a
//! per-source index beside the queue.
//!
//! A blocking receive has one way to block. The receiver is a
//! `redcr-sched` task (every rank of a world run is, on either execution
//! backend): a missing match registers an *interest* (which source/tag it
//! waits for) together with the task's [`redcr_sched::Waker`] and parks
//! through [`redcr_sched::park_current`]. Under the coroutine backend
//! the worker thread moves on to runnable rank tasks and the matching
//! push marks the task runnable again on its home run-queue — no OS-level
//! spin, park, or context switch happens at all; under
//! `REDCR_EXEC=threads` the same call sleeps on the scheduler's per-task
//! permit. The mailbox itself owns no condition variable. **A blocking
//! wait that finds no match from a thread that is not a scheduler task
//! panics** instead of hanging: nothing could ever wake it.
//!
//! The push side wakes only when the deposited envelope can satisfy the
//! parked interest, and skips notification entirely when no receiver is
//! parked — no thundering herd. A generation counter records every
//! notification actually sent, so tests can assert the
//! no-spurious-wakeup property.
//!
//! # Abort finality
//!
//! World runs attach a `Quiesce` to every mailbox: a blocked wait then
//! resolves to [`Outcome::Aborted`] only once the abort is **final** —
//! every rank has either finished or parked with no committed wake
//! outstanding, so the mailbox state can never change again. This is
//! what makes physical message counts bit-identical run-to-run on both
//! execution backends even when a run ends in an abort; see the
//! `Quiesce` docs for the token protocol.
//!
//! # Lock order
//!
//! The mailbox owns exactly one lock: `Mailbox::inner`
//! (`redcr_sched::sync::Mutex<Inner>`). It is a **leaf lock**: every
//! acquisition in this module either completes within a single statement
//! or is dropped before any other lock in the workspace can be touched —
//! a receiver drops `inner` before it parks, so it never sleeps holding
//! anything.
//!
//! This is verified, not aspirational: `detlint`'s R5 lock-order fold
//! (run by `tests/detlint_clean.rs` and the CI `detlint` job) builds the
//! inter-crate lock graph from every acquisition site in the workspace,
//! each seeing the guards live in its scope. The graph's nine classes —
//! `simmpi::inner` (this file), `checkpoint::images` (`MemoryStorage`),
//! `metrics::{inner, rankless}` (`MetricsRegistry`), `trace::events`
//! ([`Recorder`](redcr_trace::Recorder)), and the `redcr-sched`
//! `deque`, `idle`, `permit` and `slot` locks — carry **zero nested
//! acquisitions**, so it is trivially acyclic. In particular the scheduler wake a push
//! triggers happens strictly *after* `inner` is dropped (the waker is
//! moved out under the lock, invoked outside it), so `inner` never nests
//! with a run-queue lock. Code that needs to hold `inner` together with
//! any other lock must pick an order, document it here, and will then
//! show up as an edge in detlint's graph where a cycle fails the build.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock, Weak};

use redcr_prof::{CounterKey, SpanKey, TrackKey};
use redcr_sched::sync::Mutex;

use crate::message::Envelope;
use crate::obs::Obs;
use crate::rank::{Rank, RankSelector};
use crate::tag::{Namespace, TagSelector, WireTag};

/// What a receive is looking for: its namespace and its source and tag
/// selectors.
#[derive(Clone, Copy)]
pub struct MatchSpec {
    /// Namespace the receive is posted in.
    pub ns: Namespace,
    /// Source selector.
    pub src: RankSelector,
    /// Tag selector.
    pub tag: TagSelector,
}

impl MatchSpec {
    /// Whether an envelope from `src` with wire tag `wire` matches this
    /// spec.
    fn matches(&self, src: Rank, wire: WireTag) -> bool {
        wire.namespace() == self.ns as u64
            && self.tag.matches(wire.value())
            && self.src.matches(src)
    }
}

/// The interest a parked receiver registers so pushes can decide whether
/// to wake it. Deliberately coarser than [`MatchSpec`]: a false-positive
/// wakeup only costs a re-check and re-park, while matching here must be
/// cheap and allocation-free on the push path.
#[derive(Debug, Clone, Copy)]
struct Interest {
    /// Wake only on pushes from this source (`None`: any source).
    src: Option<Rank>,
    /// Wake only on pushes with this exact wire tag (`None`: any tag).
    wire: Option<WireTag>,
    /// Wake on the death of any rank, not only of `src`.
    any_death: bool,
}

impl Interest {
    /// The interest of a wait on `specs`. A set of several registers the
    /// coarsest interest there is — any push, any death — and leaves the
    /// sorting-out to the re-check.
    fn from_specs(specs: &[MatchSpec]) -> Self {
        let [spec] = specs else {
            return Interest { src: None, wire: None, any_death: true };
        };
        let src = match spec.src {
            RankSelector::Rank(r) => Some(r),
            RankSelector::Any => None,
        };
        // A wildcard-source receive keeps the coarse interest: any push.
        let wire = match (spec.src, spec.tag) {
            (RankSelector::Rank(_), TagSelector::Tag(t)) => Some(t.wire(spec.ns)),
            _ => None,
        };
        Interest { src, wire, any_death: false }
    }

    fn wants(&self, src: Rank, wire: WireTag) -> bool {
        self.src.is_none_or(|s| s == src) && self.wire.is_none_or(|w| w == wire)
    }

    /// Whether the death of `rank` can unblock this waiter (only
    /// specific-source receives ever end in `SourceDead`).
    fn wants_death(&self, rank: Rank) -> bool {
        self.any_death || self.src == Some(rank)
    }
}

/// The registered state of a blocked receiver: what it waits for, plus
/// the waker that marks its task runnable. The first notification ends the
/// registration ([`Mailbox::claim_waiter`]), so a waiter still in place
/// has not been woken.
#[derive(Debug)]
struct Waiter {
    interest: Interest,
    waker: redcr_sched::Waker,
}

/// Live-rank accounting that makes a world abort observable only once it
/// is **final**, so the abort edge never cuts a run at a physically-timed
/// point.
///
/// The world-abort flag is raised at a *physical* instant (whichever rank
/// escalates first). If running ranks polled it, each would stop after a
/// host-timing-dependent number of operations and physical message counts
/// would vary run-to-run — the exact `REDCR_EXEC=threads` noise this type
/// exists to remove. Instead:
///
/// * **running ranks never observe the flag** — they stop only through
///   deterministic, virtual-time-driven exits (own death, `DeadPeer` /
///   `SphereDead` escalation, or normal completion);
/// * **parked ranks** return [`Outcome::Aborted`] only once the abort is
///   final, tracked by this counter: `live` counts ranks that can still
///   deposit an envelope — every rank not yet finished and not currently
///   asleep, plus parked ranks whose wake has been committed (whoever
///   ends the registration transfers the token back, under the mailbox
///   lock, *before* issuing the wake). A receiver gives its token up
///   strictly after registering its waiter and strictly before
///   sleeping. The first decrement to zero
///   with the abort flag set therefore proves a frozen system — nobody
///   is executing and no committed wake is outstanding, so no further
///   push can ever occur — and flips the sticky `finality` flag, then
///   wakes every mailbox once so all parked ranks drain out `Aborted`
///   against a bit-deterministic final mailbox state.
///
/// Standalone mailboxes (unit tests) carry no `Quiesce` and keep the
/// immediate abort-on-flag behavior.
///
/// Liveness contract: with the flag raised but not yet final, every
/// still-running rank must either terminate on its own or reach a
/// blocking mailbox wait (true for the simulation closures, whose only
/// unbounded waits are receives); each then retires, and the last one
/// finalizes the abort and releases everyone.
#[derive(Debug)]
pub(crate) struct Quiesce {
    /// Ranks that can still deposit an envelope (see type-level doc).
    live: AtomicUsize,
    /// Sticky: set by the decrement that took `live` to zero while the
    /// world was aborted. From then on the mailboxes are frozen and
    /// blocked waits resolve to [`Outcome::Aborted`].
    finality: AtomicBool,
    /// The world's mailboxes, for the one-shot finality broadcast. Weak:
    /// each `Mailbox` holds an `Arc<Quiesce>`, so a strong pointer here
    /// would leak the cycle.
    mailboxes: OnceLock<Weak<Vec<Mailbox>>>,
}

impl Quiesce {
    /// Accounting for a world of `n` ranks, all initially live.
    pub(crate) fn new(n: usize) -> Self {
        Quiesce {
            live: AtomicUsize::new(n),
            finality: AtomicBool::new(false),
            mailboxes: OnceLock::new(),
        }
    }

    /// Registers the mailboxes to broadcast to when the abort finalizes.
    pub(crate) fn attach(&self, mailboxes: &Arc<Vec<Mailbox>>) {
        let _ = self.mailboxes.set(Arc::downgrade(mailboxes));
    }

    /// Counts one rank live again (token transfer on a committed wake, or
    /// a self-resume after a wake that carried no token).
    fn resume(&self) {
        self.live.fetch_add(1, Ordering::SeqCst);
    }

    /// Gives up one rank's live token: called just before a rank sleeps
    /// and once when it finishes. `aborted` is the world-abort flag at
    /// retire time; the first retire that empties the counter with it set
    /// finalizes the abort and wakes every mailbox exactly once.
    ///
    /// The finality broadcast runs with **no mailbox lock held** (callers
    /// drop `inner` before retiring), preserving the leaf-lock property.
    pub(crate) fn retire(&self, aborted: bool) {
        let prev = self.live.fetch_sub(1, Ordering::SeqCst);
        debug_assert!(prev > 0, "live-rank counter underflow");
        if prev == 1 && aborted && !self.finality.swap(true, Ordering::SeqCst) {
            if let Some(mailboxes) = self.mailboxes.get().and_then(Weak::upgrade) {
                for mb in mailboxes.iter() {
                    mb.wake_all();
                }
            }
        }
    }

    /// Whether the abort has been finalized (no live rank remained).
    fn is_final(&self) -> bool {
        self.finality.load(Ordering::SeqCst)
    }
}

/// Probe metadata: everything a probe reports, without cloning payload
/// bytes out of the mailbox.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PeekInfo {
    /// Sender's world rank.
    pub src: Rank,
    /// Full wire tag of the buffered envelope.
    pub wire_tag: WireTag,
    /// Payload length in bytes.
    pub len: usize,
    /// Sender's virtual clock at deposit, seconds.
    pub send_time: f64,
}

impl PeekInfo {
    fn of(env: &Envelope) -> Self {
        PeekInfo {
            src: env.src,
            wire_tag: env.wire_tag,
            len: env.payload.len(),
            send_time: env.send_time,
        }
    }
}

/// Outcome of a blocking matched receive or probe.
#[derive(Debug)]
pub enum Outcome<T> {
    /// A matching envelope was found (and, for receives, removed).
    Matched(T),
    /// The world aborted while waiting.
    Aborted,
    /// The awaited sender fail-stopped without a matching message buffered:
    /// nothing matching can ever arrive. Carries the dead sender's rank.
    SourceDead(Rank),
}

/// Outcome of a blocking matched receive.
pub type RecvOutcome = Outcome<Envelope>;

/// Outcome of a blocking probe: the index of the spec that matched, and
/// what it matched.
pub type PeekOutcome = Outcome<(usize, PeekInfo)>;

#[derive(Debug, Default)]
struct Inner {
    /// Buffered envelopes, oldest arrival first.
    queue: VecDeque<Envelope>,
    /// The (single) parked receiver, if any. A mailbox is only ever
    /// received from by its own rank's task.
    waiter: Option<Waiter>,
    /// Generation counter: notifications actually sent. Pushes that can't
    /// satisfy the parked interest (or find nobody parked) don't bump it.
    wakeups: u64,
}

impl Inner {
    /// Position of the oldest envelope matching `spec`: the first match
    /// in arrival order.
    fn find(&self, spec: &MatchSpec) -> Option<usize> {
        self.queue.iter().position(|env| spec.matches(env.src, env.wire_tag))
    }

    fn take_match(&mut self, spec: &MatchSpec) -> Option<Envelope> {
        let i = self.find(spec)?;
        self.queue.remove(i)
    }

    fn peek_match(&self, spec: &MatchSpec) -> Option<PeekInfo> {
        let i = self.find(spec)?;
        self.queue.get(i).map(PeekInfo::of)
    }
}

/// A rank's incoming-message buffer.
#[derive(Default)]
pub struct Mailbox {
    inner: Mutex<Inner>,
    /// Live-rank accounting shared by the whole world (None for
    /// standalone mailboxes, which keep immediate abort-on-flag waits).
    quiesce: Option<Arc<Quiesce>>,
}

impl std::fmt::Debug for Mailbox {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Mailbox").finish_non_exhaustive()
    }
}

impl Mailbox {
    /// Creates an empty mailbox.
    pub fn new() -> Self {
        Self::default()
    }

    /// Creates an empty mailbox participating in the world's live-rank
    /// accounting (see [`Quiesce`]).
    pub(crate) fn with_quiesce(quiesce: Arc<Quiesce>) -> Self {
        Mailbox { quiesce: Some(quiesce), ..Self::default() }
    }

    /// Commits a wake of the parked receiver, if there is one and
    /// `unblocks` says the event at hand can end its wait: counts the
    /// notification, transfers the live token back (the wake commits the
    /// rank to resume, so it counts as live again from this instant) and
    /// ends the registration. Returns the waker for the caller to invoke
    /// once `inner` is released — the scheduler wake must not nest inside
    /// the leaf lock. One wake makes the task runnable and it re-checks the
    /// mailbox when it runs, so later pushes find no waiter and skip the
    /// notification altogether; moving the waker rather than cloning it
    /// also keeps the pool's reference count at one increment and one
    /// decrement per park.
    fn claim_waiter(
        &self,
        inner: &mut Inner,
        unblocks: impl FnOnce(&Interest) -> bool,
    ) -> Option<redcr_sched::Waker> {
        let waiter = inner.waiter.take_if(|w| unblocks(&w.interest))?;
        inner.wakeups += 1;
        if let Some(q) = &self.quiesce {
            q.resume();
        }
        Some(waiter.waker)
    }

    /// Gives up this rank's live token just before it sleeps. Must be
    /// called with `inner` released *after* the waiter was registered:
    /// any wake from that point on transfers the token back, and a
    /// finality broadcast triggered here must take the mailbox locks
    /// itself.
    fn retire(&self, is_aborted: &impl Fn() -> bool) {
        if let Some(q) = &self.quiesce {
            q.retire(is_aborted());
        }
    }

    /// Re-acquires liveness after a park. A task whose registration the
    /// notifier already ended was counted live by whoever committed the
    /// wake; a registration still in place means the park ended without a
    /// committed wake (a scheduler notify left over from an earlier wait),
    /// so the rank ends it and re-counts itself.
    fn settle(&self, inner: &mut Inner) {
        if let (Some(q), Some(_)) = (&self.quiesce, inner.waiter.take()) {
            q.resume();
        }
    }

    /// Deposits an envelope, waking the parked receiver only when the
    /// envelope can satisfy its registered interest. `obs` is the
    /// *sender's* handle: with profiling on it times the push, counts the
    /// notify decision, and samples the post-push queue depth. Profiling
    /// reads the host clock only and never touches virtual time, so the
    /// deposited envelope is bit-identical either way.
    pub fn push(&self, env: Envelope, obs: &Obs) {
        let _send = obs.span(SpanKey::MailboxSend);
        let mut inner = self.inner.lock();
        let (src, wire) = (env.src, env.wire_tag);
        inner.queue.push_back(env);
        let depth = inner.queue.len();
        let waker = self.claim_waiter(&mut inner, |interest| interest.wants(src, wire));
        drop(inner);
        obs.count(CounterKey::Sends);
        if let Some(w) = waker {
            w.wake();
            obs.count(CounterKey::Notifies);
            obs.count(CounterKey::TaskWakes);
        }
        obs.sample(TrackKey::QueueDepth, depth as f64);
    }

    /// The one blocking wait loop: a missing match registers interest and
    /// waker, then parks the task (the worker runs other ranks; the
    /// matching push requeues us). `grab` extracts the result once a
    /// match exists; `specs` — everything `grab` may match — only shapes
    /// the parked interest.
    ///
    /// # Panics
    ///
    /// Panics if the wait has to block and the calling thread is not a
    /// `redcr-sched` task (see the module docs).
    fn wait_match<T>(
        &self,
        specs: &[MatchSpec],
        is_aborted: impl Fn() -> bool,
        dead_src: impl Fn() -> Option<Rank>,
        obs: &Obs,
        mut grab: impl FnMut(&mut Inner) -> Option<T>,
    ) -> Outcome<T> {
        let _wait = obs.span(SpanKey::MailboxRecvWait);
        let mut parked = false;
        let mut inner = self.inner.lock();
        loop {
            // detlint::allow(R7, reason = "grab is a caller-supplied matcher over the queue snapshot; the wait_match contract requires it to be a pure predicate (every call site passes a closure that only inspects `inner`), so it cannot park")
            if let Some(v) = grab(&mut inner) {
                inner.waiter = None;
                obs.count(if parked { CounterKey::ParkResolved } else { CounterKey::SpinResolved });
                return Outcome::Matched(v);
            }
            // With live-rank accounting attached (world runs), the abort
            // flag alone never ends a wait: running ranks may still
            // deposit a matching send, and bailing out on the raw flag
            // would cut the run at a physically-timed point. Only a
            // *final* abort (no rank can ever push again — see
            // [`Quiesce`]) resolves to `Aborted`. Standalone mailboxes
            // keep the immediate behavior.
            // detlint::allow(R7, reason = "is_aborted is a caller-supplied flag read (an AtomicBool load at every call site); the wait_match contract requires it side-effect-free, so it cannot park")
            if is_aborted() && self.quiesce.as_deref().is_none_or(Quiesce::is_final) {
                inner.waiter = None;
                return Outcome::Aborted;
            }
            // detlint::allow(R7, reason = "dead_src is a caller-supplied liveness probe (reads shared death records, never parks) per the wait_match contract")
            if let Some(peer) = dead_src() {
                inner.waiter = None;
                return Outcome::SourceDead(peer);
            }
            // The owned waker is minted only here, once the wait is known
            // to park, and moved into the waiter: a receive that matches
            // at once never touches the pool's reference count.
            #[expect(
                clippy::panic,
                reason = "caller bug, not a runtime condition: every rank of a world run is a scheduler task, so only a bare Mailbox driven from a plain thread gets here — and it could never be woken; failing at once beats the hang it would otherwise be"
            )]
            let Some(waker) = redcr_sched::current_waker() else {
                panic!(
                    "blocking mailbox wait from a thread that is not a scheduler task: \
                     nothing matches and nothing could wake it; call recv_match/peek_match \
                     from inside redcr_sched::run_batch (a World run does), or use the try_ variants"
                );
            };
            // Hand the worker to whoever should be sending. The waker
            // registration and the RUNNING → NOTIFIED state machine in
            // redcr-sched close the race between dropping `inner` and
            // the task freezing. The live token is given up strictly
            // after the waiter is registered (wakes from here on transfer
            // it back) and strictly before the task freezes.
            inner.waiter = Some(Waiter { interest: Interest::from_specs(specs), waker });
            parked = true;
            drop(inner);
            self.retire(&is_aborted);
            obs.count_tracked(CounterKey::Parks, TrackKey::Parks);
            {
                let _park = obs.span(SpanKey::MailboxPark);
                redcr_sched::park_current();
            }
            obs.count(CounterKey::Wakes);
            inner = self.inner.lock();
            self.settle(&mut inner);
        }
    }

    /// Removes and returns the oldest envelope matching `spec`, blocking
    /// until one arrives. `is_aborted` is polled on every wake-up; when it
    /// returns true the wait ends with [`Outcome::Aborted`]. `dead_src`
    /// is polled likewise: when it reports the awaited (specific) sender
    /// as dead and nothing matching is buffered, the wait ends with
    /// [`Outcome::SourceDead`] — a dead rank has already deposited
    /// everything it will ever send, so no match can arrive later.
    ///
    /// `obs` is the receiver's handle: with profiling on it times the
    /// whole wait and each park, and classifies the wait as resolved
    /// without parking (`spin_resolved`) or after at least one park.
    /// Profiling never changes what is matched or when.
    ///
    /// # Panics
    ///
    /// Panics if nothing matches yet, the wait is not already over, and
    /// the calling thread is not a `redcr-sched` task: the wait parks
    /// through the scheduler and nothing else (see the module docs).
    pub fn recv_match(
        &self,
        spec: &MatchSpec,
        is_aborted: impl Fn() -> bool,
        dead_src: impl Fn() -> Option<Rank>,
        obs: &Obs,
    ) -> RecvOutcome {
        let out = self.wait_match(std::slice::from_ref(spec), is_aborted, dead_src, obs, |inner| {
            inner.take_match(spec)
        });
        if matches!(out, Outcome::Matched(_)) {
            obs.count(CounterKey::Recvs);
        }
        out
    }

    /// Non-blocking variant of [`recv_match`](Self::recv_match): removes
    /// and returns the oldest match, or `None` if nothing matches now.
    pub fn try_recv_match(&self, spec: &MatchSpec) -> Option<Envelope> {
        self.inner.lock().take_match(spec)
    }

    /// Blocking probe over a set: waits until an envelope matches one of
    /// `specs` and returns that spec's index with the envelope's metadata,
    /// without removing it (and without cloning payload bytes). When
    /// several specs have a match buffered the lowest index wins. Unblocks
    /// like [`recv_match`](Self::recv_match) when the world aborts or
    /// `dead_src` names a sender some spec awaits, and has the same
    /// scheduler-task precondition.
    pub fn peek_any(
        &self,
        specs: &[MatchSpec],
        is_aborted: impl Fn() -> bool,
        dead_src: impl Fn() -> Option<Rank>,
        obs: &Obs,
    ) -> PeekOutcome {
        self.wait_match(specs, is_aborted, dead_src, obs, |inner| {
            specs.iter().enumerate().find_map(|(i, s)| Some((i, inner.peek_match(s)?)))
        })
    }

    /// Non-blocking probe: metadata of the oldest matching envelope, if
    /// any, without cloning it.
    pub fn try_peek_match(&self, spec: &MatchSpec) -> Option<PeekInfo> {
        self.inner.lock().peek_match(spec)
    }

    /// Wakes the parked receiver unconditionally (world abort).
    pub fn wake_all(&self) {
        self.wake_if(|_| true);
    }

    /// Wakes the parked receiver only if the death of `rank` can unblock
    /// it, i.e. it waits on that specific source. Wildcard waiters never
    /// resolve to `SourceDead` and are left parked.
    pub fn wake_for_death(&self, rank: Rank) {
        self.wake_if(|interest| interest.wants_death(rank));
    }

    fn wake_if(&self, unblocks: impl FnOnce(&Interest) -> bool) {
        let waker = self.claim_waiter(&mut self.inner.lock(), unblocks);
        if let Some(w) = waker {
            w.wake();
        }
    }

    /// Notifications sent to this mailbox's receiver so far (generation
    /// counter; used to assert the no-spurious-wakeup property in tests).
    pub fn wakeups(&self) -> u64 {
        self.inner.lock().wakeups
    }

    /// Number of buffered envelopes (diagnostics / quiesce checks).
    pub fn len(&self) -> usize {
        self.inner.lock().queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all buffered envelopes (used between restart attempts).
    pub fn clear(&self) {
        self.inner.lock().queue.clear();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tag::{Namespace, Tag};
    use bytes::Bytes;
    use std::sync::atomic::{AtomicBool, Ordering};

    fn env(src: u32, tag: u64, data: &'static [u8]) -> Envelope {
        Envelope {
            src: Rank::new(src),
            wire_tag: Tag::new(tag).wire(Namespace::User),
            payload: Bytes::from_static(data),
            send_time: 0.0,
        }
    }

    fn spec(src: RankSelector, tag: TagSelector) -> MatchSpec {
        MatchSpec { ns: Namespace::User, src, tag }
    }

    fn from_rank(src: u32) -> MatchSpec {
        spec(RankSelector::Rank(Rank::new(src)), TagSelector::Any)
    }

    fn exact(src: u32, tag: u64) -> MatchSpec {
        spec(RankSelector::Rank(Rank::new(src)), TagSelector::Tag(Tag::new(tag)))
    }

    fn any() -> MatchSpec {
        spec(RankSelector::Any, TagSelector::Any)
    }

    fn push(mb: &Mailbox, e: Envelope) {
        mb.push(e, &Obs::off());
    }

    /// Runs `receiver` and `sender` as the two tasks of one scheduler
    /// batch over a fresh mailbox and flag, once on one worker and once on
    /// two. The sender starts only after the receiver has registered its
    /// interest, so every test below acts on a receiver that is parked (or
    /// committed to park: a wake landing before the task freezes turns the
    /// park into a requeue inside the scheduler).
    fn two_tasks(
        receiver: impl Fn(&Mailbox, &AtomicBool) + Sync,
        sender: impl Fn(&Mailbox, &AtomicBool) + Sync,
    ) {
        for workers in [1, 2] {
            let (mb, flag) = (Mailbox::new(), AtomicBool::new(false));
            let cfg = redcr_sched::PoolConfig {
                workers,
                stack_bytes: 128 * 1024,
                backend: redcr_sched::Backend::native(),
            };
            let batch = redcr_sched::run_batch(&cfg, 2, None, None, |task| {
                if task == 0 {
                    receiver(&mb, &flag);
                } else {
                    while mb.inner.lock().waiter.is_none() {
                        redcr_sched::yield_now();
                    }
                    sender(&mb, &flag);
                }
            });
            for outcome in batch.results {
                if let Err(panic) = outcome {
                    std::panic::resume_unwind(panic);
                }
            }
        }
    }

    #[test]
    fn fifo_within_channel() {
        let mb = Mailbox::new();
        push(&mb, env(0, 1, b"first"));
        push(&mb, env(0, 1, b"second"));
        let got = mb.try_recv_match(&exact(0, 1)).unwrap();
        assert_eq!(&got.payload[..], b"first");
        let got = mb.try_recv_match(&from_rank(0)).unwrap();
        assert_eq!(&got.payload[..], b"second");
        assert!(mb.try_recv_match(&any()).is_none());
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        push(&mb, env(1, 9, b"other"));
        push(&mb, env(0, 1, b"wanted"));
        let got =
            mb.try_recv_match(&spec(RankSelector::Any, TagSelector::Tag(Tag::new(1)))).unwrap();
        assert_eq!(&got.payload[..], b"wanted");
        assert_eq!(mb.len(), 1, "non-matching message stays queued");
    }

    #[test]
    fn user_receives_never_take_collective_or_protocol_traffic() {
        let zero = Rank::new(0);
        let in_ns = |ns| Envelope { wire_tag: Tag::new(5).wire(ns), ..env(0, 0, b"other") };
        let by_tag = spec(RankSelector::Any, TagSelector::Tag(Tag::new(5)));
        let user = [any(), from_rank(0), by_tag, exact(0, 5)];
        let mb = Mailbox::new();
        for ns in [Namespace::Collective, Namespace::Protocol] {
            let wire = Tag::new(5).wire(ns);
            for s in &user {
                assert!(!s.matches(zero, wire), "{ns:?} seen by a user receive");
            }
            assert!(MatchSpec { ns, ..by_tag }.matches(zero, wire));
            push(&mb, in_ns(ns));
        }
        for s in &user {
            assert!(mb.try_peek_match(s).is_none());
            assert!(mb.try_recv_match(s).is_none());
        }
        push(&mb, env(0, 5, b"user"));
        for s in &user {
            assert!(s.matches(zero, Tag::new(5).wire(Namespace::User)));
            assert_eq!(mb.try_peek_match(s).unwrap().len, 4);
        }
        assert_eq!(&mb.try_recv_match(&any()).unwrap().payload[..], b"user");
        assert_eq!(mb.len(), 2, "the other namespaces' envelopes stay queued");
    }

    #[test]
    fn wildcard_takes_globally_oldest_across_channels() {
        let mb = Mailbox::new();
        push(&mb, env(2, 5, b"oldest"));
        push(&mb, env(0, 1, b"newer"));
        push(&mb, env(1, 3, b"newest"));
        let got = mb.try_recv_match(&any()).unwrap();
        assert_eq!(&got.payload[..], b"oldest");
        let got = mb.try_recv_match(&any()).unwrap();
        assert_eq!(&got.payload[..], b"newer");
        let got = mb.try_recv_match(&any()).unwrap();
        assert_eq!(&got.payload[..], b"newest");
    }

    #[test]
    fn specific_pop_preserves_global_order_for_wildcards() {
        let mb = Mailbox::new();
        push(&mb, env(2, 5, b"a"));
        push(&mb, env(1, 1, b"b"));
        push(&mb, env(3, 7, b"c"));
        // Drain the middle channel by exact match first.
        let got = mb.try_recv_match(&exact(1, 1)).unwrap();
        assert_eq!(&got.payload[..], b"b");
        // Wildcards still see a before c.
        assert_eq!(&mb.try_recv_match(&any()).unwrap().payload[..], b"a");
        assert_eq!(&mb.try_recv_match(&any()).unwrap().payload[..], b"c");
    }

    #[test]
    fn peek_does_not_remove_or_clone_payload() {
        let mb = Mailbox::new();
        push(&mb, env(2, 3, b"xy"));
        let info = mb.try_peek_match(&any()).unwrap();
        assert_eq!(info.src, Rank::new(2));
        assert_eq!(info.len, 2);
        assert_eq!(info.wire_tag.value(), 3);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn blocking_recv_wakes_on_push() {
        two_tasks(
            |mb, _| {
                let wanted = spec(RankSelector::Any, TagSelector::Tag(Tag::new(5)));
                match mb.recv_match(&wanted, || false, || None, &Obs::off()) {
                    Outcome::Matched(e) => assert_eq!(&e.payload[..], b"late"),
                    other => panic!("unexpected outcome {other:?}"),
                }
            },
            |mb, _| push(mb, env(0, 5, b"late")),
        );
    }

    #[test]
    fn blocking_recv_wakes_on_abort() {
        two_tasks(
            |mb, aborted| {
                let out =
                    mb.recv_match(&any(), || aborted.load(Ordering::SeqCst), || None, &Obs::off());
                assert!(matches!(out, Outcome::Aborted), "unexpected outcome {out:?}");
            },
            |mb, aborted| {
                aborted.store(true, Ordering::SeqCst);
                mb.wake_all();
            },
        );
    }

    #[test]
    fn blocking_recv_wakes_on_dead_source() {
        two_tasks(
            |mb, dead| {
                let dead_src = || dead.load(Ordering::SeqCst).then_some(Rank::new(7));
                let out = mb.recv_match(&from_rank(7), || false, dead_src, &Obs::off());
                assert!(
                    matches!(out, Outcome::SourceDead(peer) if peer == Rank::new(7)),
                    "unexpected outcome {out:?}"
                );
            },
            |mb, dead| {
                dead.store(true, Ordering::SeqCst);
                mb.wake_for_death(Rank::new(7));
            },
        );
    }

    #[test]
    #[should_panic(expected = "not a scheduler task")]
    fn blocking_recv_off_the_scheduler_fails_loudly() {
        // Nothing buffered, not aborted, source alive: the wait would have
        // to park, and this test thread is no scheduler task.
        let _ = Mailbox::new().recv_match(&any(), || false, || None, &Obs::off());
    }

    #[test]
    fn buffered_message_beats_dead_source() {
        // A message deposited before the sender died must still be
        // delivered; only an *empty* channel from a dead sender errors.
        // Neither wait has to park, so a plain thread may make them.
        let mb = Mailbox::new();
        push(&mb, env(7, 1, b"pre-death"));
        let outcome = mb.recv_match(&from_rank(7), || false, || Some(Rank::new(7)), &Obs::off());
        match outcome {
            Outcome::Matched(e) => assert_eq!(&e.payload[..], b"pre-death"),
            other => panic!("unexpected outcome {other:?}"),
        }
        // Nothing buffered any more: now the dead source surfaces.
        let outcome = mb.recv_match(&from_rank(7), || false, || Some(Rank::new(7)), &Obs::off());
        assert!(matches!(outcome, Outcome::SourceDead(_)));
    }

    #[test]
    fn push_without_parked_receiver_sends_no_wakeup() {
        let mb = Mailbox::new();
        push(&mb, env(0, 1, b"a"));
        push(&mb, env(1, 2, b"b"));
        assert_eq!(mb.wakeups(), 0, "no receiver parked: no notifications");
    }

    #[test]
    fn push_of_non_matching_message_does_not_wake_parked_receiver() {
        two_tasks(
            |mb, _| {
                match mb.recv_match(&exact(3, 5), || false, || None, &Obs::off()) {
                    Outcome::Matched(e) => assert_eq!(&e.payload[..], b"signal"),
                    other => panic!("unexpected outcome {other:?}"),
                }
                assert_eq!(mb.wakeups(), 1, "exactly the matching push notified");
            },
            |mb, _| {
                // The receiver's interest is registered: push traffic it
                // is NOT interested in.
                for _ in 0..4 {
                    push(mb, env(0, 9, b"noise"));
                }
                assert_eq!(mb.wakeups(), 0, "non-matching pushes must not notify");
                push(mb, env(3, 5, b"signal"));
            },
        );
    }

    #[test]
    fn death_of_unrelated_rank_does_not_wake_specific_waiter() {
        let mb = Mailbox::new();
        // No waiter parked at all: wake_for_death is a no-op.
        mb.wake_for_death(Rank::new(4));
        assert_eq!(mb.wakeups(), 0);
    }

    #[test]
    fn clear_empties() {
        let mb = Mailbox::new();
        push(&mb, env(0, 0, b""));
        assert!(!mb.is_empty());
        mb.clear();
        assert!(mb.is_empty());
        assert!(mb.try_recv_match(&any()).is_none());
    }

    /// A deep, mixed mailbox against a reference: a `Vec` of `(arrival
    /// index, src, wire)` searched for the minimum-index match. About
    /// 2 000 seeded operations over 16 sources × 4 tags × the user and
    /// collective namespaces keep hundreds of envelopes buffered, and
    /// every selector shape — specific, `ANY_SOURCE`, `ANY_TAG`, full
    /// wildcard — is taken, peeked and probed as a set.
    #[test]
    fn deep_mixed_mailbox_matches_a_reference() {
        /// SplitMix64 (Steele, Lea & Flood 2014), drawn below `n`.
        struct SplitMix64(u64);
        impl SplitMix64 {
            fn below(&mut self, n: u64) -> u64 {
                self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = self.0;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                (z ^ (z >> 31)) % n
            }

            fn namespace(&mut self) -> Namespace {
                [Namespace::User, Namespace::Collective][self.below(2) as usize]
            }

            fn spec(&mut self) -> MatchSpec {
                MatchSpec {
                    ns: self.namespace(),
                    src: match self.below(4) {
                        0 => RankSelector::Any,
                        _ => RankSelector::Rank(Rank::new(self.below(16) as u32)),
                    },
                    tag: match self.below(4) {
                        0 => TagSelector::Any,
                        _ => TagSelector::Tag(Tag::new(self.below(4))),
                    },
                }
            }
        }
        let mut rng = SplitMix64(2012);
        // The reference's own reading of a selector, independent of
        // `MatchSpec::matches`.
        let wants = |s: &MatchSpec, src: Rank, wire: WireTag| {
            s.src.rank().is_none_or(|r| r == src)
                && match s.tag {
                    TagSelector::Tag(t) => wire == t.wire(s.ns),
                    TagSelector::Any => wire.namespace() == s.ns as u64,
                }
        };
        let oldest = |reference: &[(u64, Rank, WireTag)], s: &MatchSpec| {
            (0..reference.len())
                .filter(|&i| wants(s, reference[i].1, reference[i].2))
                .min_by_key(|&i| reference[i].0)
        };

        let mb = Mailbox::new();
        let mut reference: Vec<(u64, Rank, WireTag)> = Vec::new();
        let (mut arrivals, mut deepest, mut hits) = (0u64, 0, 0);
        for op in 0..2_000 {
            if op == 1_000 {
                mb.clear();
                reference.clear();
            }
            match rng.below(20) {
                0..=9 => {
                    let src = Rank::new(rng.below(16) as u32);
                    let wire_tag = Tag::new(rng.below(4)).wire(rng.namespace());
                    let payload = Bytes::from(arrivals.to_le_bytes().to_vec());
                    push(&mb, Envelope { src, wire_tag, payload, send_time: arrivals as f64 });
                    reference.push((arrivals, src, wire_tag));
                    arrivals += 1;
                }
                10..=14 => {
                    let s = rng.spec();
                    let want = oldest(&reference, &s).map(|i| reference.remove(i));
                    let got = mb.try_recv_match(&s);
                    assert_eq!(want.is_some(), got.is_some(), "op {op}: take");
                    if let (Some((k, src, wire)), Some(env)) = (want, got) {
                        assert_eq!((env.src, env.wire_tag, env.send_time), (src, wire, k as f64));
                        assert_eq!(&env.payload[..], &k.to_le_bytes()[..], "op {op}: take");
                        hits += 1;
                    }
                }
                15..=18 => {
                    let s = rng.spec();
                    let want = oldest(&reference, &s).map(|i| reference[i]);
                    let got =
                        mb.try_peek_match(&s).map(|p| (p.send_time as u64, p.src, p.wire_tag));
                    assert_eq!(got, want, "op {op}: peek");
                }
                _ => {
                    let specs = [rng.spec(), rng.spec(), rng.spec()];
                    let want = specs
                        .iter()
                        .enumerate()
                        .find_map(|(j, s)| Some((j, reference[oldest(&reference, s)?])));
                    let Some(want) = want else { continue };
                    let got = match mb.peek_any(&specs, || false, || None, &Obs::off()) {
                        Outcome::Matched((j, p)) => (j, (p.send_time as u64, p.src, p.wire_tag)),
                        other => panic!("op {op}: peek_any returned {other:?}"),
                    };
                    assert_eq!(got, want, "op {op}: peek_any");
                }
            }
            assert_eq!(mb.len(), reference.len(), "op {op}: len");
            deepest = deepest.max(reference.len());
        }
        assert!(deepest >= 100 && hits >= 200, "too shallow a run: depth {deepest}, {hits} takes");
    }
}
