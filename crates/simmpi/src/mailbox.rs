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
//! parked — no thundering herd. Each notification actually sent counts
//! in the profiler's `notifies`, so tests can assert the
//! no-spurious-wakeup property.
//!
//! # When nothing can arrive any more
//!
//! A parked wait has one exit besides a matching push or its sender's
//! death: the scheduler's stall rule. When every unfinished rank task is
//! parked with no wake committed, the world can never push again, and
//! [`redcr_sched::park_current`] returns `Err(Stalled)` (see the
//! `redcr-sched` module docs). The wait then ends as [`Outcome::Aborted`]
//! if the world-abort flag is set, and as [`Outcome::Deadlock`] if it is
//! not. The flag alone never ends a wait: it is raised at a *physical*
//! instant, and running ranks may still deposit a matching send. An
//! aborted run therefore resolves only once the mailboxes are frozen,
//! which is what makes physical message counts bit-identical run-to-run
//! on both execution backends even when a run ends in an abort. A rank
//! that polls (a `test` loop over `yield_now`) is never parked, so while
//! one polls nothing stalls.
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
//! This is checked, not aspirational: in debug builds `sync::Mutex::lock`
//! panics if its thread already holds any workspace lock, and
//! `park_current`, `yield_now` and `Waker::wake` panic if it holds one,
//! so every test run asserts zero nested acquisitions on the paths it
//! takes. In particular the scheduler wake a push triggers happens
//! strictly *after* `inner` is dropped (the waker is moved out under the
//! lock, invoked outside it), so `inner` never nests with a run-queue
//! lock. Code that needs to hold `inner` together with any other lock
//! would first have to give up the leaf-lock rule in `redcr_sched::sync`.

use std::collections::VecDeque;

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
    /// Every rank is parked or finished, no wake is committed, and the
    /// world did not abort: the program deadlocked.
    Deadlock,
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

    /// Commits a wake of the parked receiver, if there is one and
    /// `unblocks` says the event at hand can end its wait: ends the
    /// registration and returns the waker for the caller to invoke
    /// once `inner` is released — the scheduler wake must not nest inside
    /// the leaf lock. One wake makes the task runnable and it re-checks the
    /// mailbox when it runs, so later pushes find no waiter and skip the
    /// notification altogether; moving the waker rather than cloning it
    /// also keeps the pool's reference count at one increment and one
    /// decrement per park.
    fn claim_waiter(
        inner: &mut Inner,
        unblocks: impl FnOnce(&Interest) -> bool,
    ) -> Option<redcr_sched::Waker> {
        inner.waiter.take_if(|w| unblocks(&w.interest)).map(|w| w.waker)
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
        let waker = Self::claim_waiter(&mut inner, |interest| interest.wants(src, wire));
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
    /// the parked interest. A park the scheduler refuses because the
    /// batch stalled ends the wait as `Aborted` or `Deadlock` (module
    /// docs).
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
            // `grab` runs under the mailbox lock. It is a caller-supplied
            // matcher over the queue; the `wait_match` contract requires a
            // pure predicate (every call site passes a closure that only
            // inspects `inner`), so it neither parks nor locks — which
            // debug builds assert (`redcr_sched::sync`).
            if let Some(v) = grab(&mut inner) {
                inner.waiter = None;
                obs.count(if parked { CounterKey::ParkResolved } else { CounterKey::SpinResolved });
                return Outcome::Matched(v);
            }
            // `dead_src` is a caller-supplied liveness probe: it reads
            // shared death records and, per the contract, never parks.
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
                     from inside redcr_sched::run_batch (a World run does), or peek with try_peek_match first"
                );
            };
            // Hand the worker to whoever should be sending. The waker
            // registration and the RUNNING → NOTIFIED state machine in
            // redcr-sched close the race between dropping `inner` and
            // the task freezing.
            inner.waiter = Some(Waiter { interest: Interest::from_specs(specs), waker });
            parked = true;
            drop(inner);
            obs.count_tracked(CounterKey::Parks, TrackKey::Parks);
            let woken = {
                let _park = obs.span(SpanKey::MailboxPark);
                redcr_sched::park_current()
            };
            obs.count(CounterKey::Wakes);
            inner = self.inner.lock();
            if woken.is_err() {
                // Stalled: no rank can push again. `is_aborted` is a
                // caller-supplied flag read (an `AtomicBool` load at every
                // call site), side-effect-free per the contract.
                inner.waiter = None;
                return if is_aborted() { Outcome::Aborted } else { Outcome::Deadlock };
            }
        }
    }

    /// Removes and returns the oldest envelope matching `spec`, blocking
    /// until one arrives. `dead_src` is polled on every wake-up: when it
    /// reports the awaited (specific) sender as dead and nothing matching
    /// is buffered, the wait ends with [`Outcome::SourceDead`] — a dead
    /// rank has already deposited everything it will ever send, so no
    /// match can arrive later. When the scheduler finds the batch stalled,
    /// the wait ends with [`Outcome::Aborted`] if `is_aborted` returns
    /// true and [`Outcome::Deadlock`] otherwise.
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

    /// Blocking probe over a set: waits until an envelope matches one of
    /// `specs` and returns that spec's index with the envelope's metadata,
    /// without removing it (and without cloning payload bytes). When
    /// several specs have a match buffered the lowest index wins. Unblocks
    /// like [`recv_match`](Self::recv_match) when the batch stalls or
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

    /// Wakes the parked receiver only if the death of `rank` can unblock
    /// it, i.e. it waits on that specific source. Wildcard waiters never
    /// resolve to `SourceDead` and are left parked.
    pub fn wake_for_death(&self, rank: Rank) {
        let waker =
            Self::claim_waiter(&mut self.inner.lock(), |interest| interest.wants_death(rank));
        if let Some(w) = waker {
            w.wake();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::obs::Sinks;
    use crate::tag::{Namespace, Tag};
    use bytes::Bytes;
    use redcr_prof::Profiler;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::sync::Arc;

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

    /// Takes the oldest match without blocking: a receive whose match is
    /// already buffered never parks, so a plain thread may make it.
    fn take(mb: &Mailbox, s: &MatchSpec) -> Option<Envelope> {
        mb.try_peek_match(s)?;
        match mb.recv_match(s, || false, || None, &Obs::off()) {
            Outcome::Matched(env) => Some(env),
            other => panic!("a buffered match was not taken: {other:?}"),
        }
    }

    fn queued(mb: &Mailbox) -> usize {
        mb.inner.lock().queue.len()
    }

    /// Sinks with only the profiler on.
    fn profiling() -> Sinks {
        Sinks { profiler: Some(Arc::new(Profiler::new())), ..Sinks::default() }
    }

    /// The `sends` and `notifies` totals of the handles drained so far
    /// (one reading: a report empties the profiler).
    fn sends_and_notifies(sinks: &Sinks) -> (u64, u64) {
        let report = sinks.profiler.as_ref().map(|p| p.report()).unwrap();
        (report.total_counter(CounterKey::Sends), report.total_counter(CounterKey::Notifies))
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
            let outcomes = redcr_sched::run_batch(&cfg, 2, None, None, |task| {
                if task == 0 {
                    receiver(&mb, &flag);
                } else {
                    while mb.inner.lock().waiter.is_none() {
                        redcr_sched::yield_now();
                    }
                    sender(&mb, &flag);
                }
            });
            for outcome in outcomes {
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
        let got = take(&mb, &exact(0, 1)).unwrap();
        assert_eq!(&got.payload[..], b"first");
        let got = take(&mb, &from_rank(0)).unwrap();
        assert_eq!(&got.payload[..], b"second");
        assert!(take(&mb, &any()).is_none());
    }

    #[test]
    fn matching_skips_non_matching_messages() {
        let mb = Mailbox::new();
        push(&mb, env(1, 9, b"other"));
        push(&mb, env(0, 1, b"wanted"));
        let got = take(&mb, &spec(RankSelector::Any, TagSelector::Tag(Tag::new(1)))).unwrap();
        assert_eq!(&got.payload[..], b"wanted");
        assert_eq!(queued(&mb), 1, "non-matching message stays queued");
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
            assert!(take(&mb, s).is_none());
        }
        push(&mb, env(0, 5, b"user"));
        for s in &user {
            assert!(s.matches(zero, Tag::new(5).wire(Namespace::User)));
            assert_eq!(mb.try_peek_match(s).unwrap().len, 4);
        }
        assert_eq!(&take(&mb, &any()).unwrap().payload[..], b"user");
        assert_eq!(queued(&mb), 2, "the other namespaces' envelopes stay queued");
    }

    #[test]
    fn wildcard_takes_globally_oldest_across_channels() {
        let mb = Mailbox::new();
        push(&mb, env(2, 5, b"oldest"));
        push(&mb, env(0, 1, b"newer"));
        push(&mb, env(1, 3, b"newest"));
        let got = take(&mb, &any()).unwrap();
        assert_eq!(&got.payload[..], b"oldest");
        let got = take(&mb, &any()).unwrap();
        assert_eq!(&got.payload[..], b"newer");
        let got = take(&mb, &any()).unwrap();
        assert_eq!(&got.payload[..], b"newest");
    }

    #[test]
    fn specific_pop_preserves_global_order_for_wildcards() {
        let mb = Mailbox::new();
        push(&mb, env(2, 5, b"a"));
        push(&mb, env(1, 1, b"b"));
        push(&mb, env(3, 7, b"c"));
        // Drain the middle channel by exact match first.
        let got = take(&mb, &exact(1, 1)).unwrap();
        assert_eq!(&got.payload[..], b"b");
        // Wildcards still see a before c.
        assert_eq!(&take(&mb, &any()).unwrap().payload[..], b"a");
        assert_eq!(&take(&mb, &any()).unwrap().payload[..], b"c");
    }

    #[test]
    fn peek_does_not_remove_or_clone_payload() {
        let mb = Mailbox::new();
        push(&mb, env(2, 3, b"xy"));
        let info = mb.try_peek_match(&any()).unwrap();
        assert_eq!(info.src, Rank::new(2));
        assert_eq!(info.len, 2);
        assert_eq!(info.wire_tag.value(), 3);
        assert_eq!(queued(&mb), 1);
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
        // The aborting task only raises the flag and finishes: the stall
        // that leaves the receiver the last task, parked with nothing to
        // wake it, releases it.
        two_tasks(
            |mb, aborted| {
                let out =
                    mb.recv_match(&any(), || aborted.load(Ordering::SeqCst), || None, &Obs::off());
                assert!(matches!(out, Outcome::Aborted), "unexpected outcome {out:?}");
            },
            |_, aborted| aborted.store(true, Ordering::SeqCst),
        );
    }

    #[test]
    fn blocking_recv_with_no_sender_left_is_a_deadlock() {
        two_tasks(
            |mb, _| {
                let out = mb.recv_match(&any(), || false, || None, &Obs::off());
                assert!(matches!(out, Outcome::Deadlock), "unexpected outcome {out:?}");
                assert!(mb.inner.lock().waiter.is_none(), "the stalled wait unregisters");
            },
            |_, _| {},
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
        let (mb, sinks) = (Mailbox::new(), profiling());
        let obs = sinks.rank(0);
        mb.push(env(0, 1, b"a"), &obs);
        mb.push(env(1, 2, b"b"), &obs);
        sinks.drain(&obs);
        assert_eq!(sends_and_notifies(&sinks), (2, 0), "no receiver parked: no notifications");
    }

    #[test]
    fn push_of_non_matching_message_does_not_wake_parked_receiver() {
        let sinks = profiling();
        two_tasks(
            |mb, _| match mb.recv_match(&exact(3, 5), || false, || None, &Obs::off()) {
                Outcome::Matched(e) => assert_eq!(&e.payload[..], b"signal"),
                other => panic!("unexpected outcome {other:?}"),
            },
            |mb, _| {
                // The receiver's interest is registered: push traffic it
                // is NOT interested in.
                let obs = sinks.rank(1);
                for _ in 0..4 {
                    mb.push(env(0, 9, b"noise"), &obs);
                }
                assert!(mb.inner.lock().waiter.is_some(), "non-matching pushes must not notify");
                mb.push(env(3, 5, b"signal"), &obs);
                sinks.drain(&obs);
            },
        );
        // `two_tasks` runs the pair twice: one notification per run.
        assert_eq!(sends_and_notifies(&sinks), (10, 2), "exactly the matching push notified");
    }

    #[test]
    fn death_of_unrelated_rank_does_not_wake_specific_waiter() {
        // No waiter parked at all: wake_for_death is a no-op.
        Mailbox::new().wake_for_death(Rank::new(4));
        two_tasks(
            |mb, _| match mb.recv_match(&from_rank(3), || false, || None, &Obs::off()) {
                Outcome::Matched(e) => assert_eq!(&e.payload[..], b"signal"),
                other => panic!("unexpected outcome {other:?}"),
            },
            |mb, _| {
                mb.wake_for_death(Rank::new(4));
                assert!(mb.inner.lock().waiter.is_some(), "rank 4's death must not notify");
                push(mb, env(3, 5, b"signal"));
            },
        );
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
                mb.inner.lock().queue.clear();
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
                    let got = take(&mb, &s);
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
            assert_eq!(queued(&mb), reference.len(), "op {op}: len");
            deepest = deepest.max(reference.len());
        }
        assert!(deepest >= 100 && hits >= 200, "too shallow a run: depth {deepest}, {hits} takes");
    }
}
