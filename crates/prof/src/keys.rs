//! Static identifiers for the instrumented sites: wall-clock spans,
//! monotonic counters, and counter-track sample streams.

/// One instrumented wall-clock span site.
///
/// Spans are independent instruments, not a call-stack: a key's
/// [`stack`](Self::stack) is the fixed frame path it renders under in the
/// folded-stack export, and [`parent`](Self::parent) declares the one
/// containment relation the export subtracts for self-time (a mailbox park
/// always happens inside a mailbox receive wait).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SpanKey {
    /// One `Mailbox::push` by a sender (lock, enqueue, notify decision).
    MailboxSend,
    /// One blocking mailbox wait, entry to return.
    MailboxRecvWait,
    /// One scheduler park inside a mailbox wait (park to wake).
    MailboxPark,
    /// Serializing application state into a checkpoint image.
    CheckpointEncode,
    /// Checkpoint commit: the post-barrier store of an encoded image.
    CheckpointCommit,
    /// One receive-path vote over the redundant copies of a message.
    Vote,
    /// One executor segment: a full `ReplicatedWorld::run` invocation.
    ExecutorSegment,
    /// One executor heal cycle (respawn + state-transfer bookkeeping).
    ExecutorHeal,
    /// One sweep-engine scenario evaluation on a worker thread.
    SweepScenario,
    /// A scheduler worker asleep on the idle condvar (no runnable tasks).
    WorkerIdle,
}

impl SpanKey {
    /// Number of span keys.
    pub const COUNT: usize = 10;

    /// Every key, in index order.
    pub const ALL: [SpanKey; Self::COUNT] = [
        SpanKey::MailboxSend,
        SpanKey::MailboxRecvWait,
        SpanKey::MailboxPark,
        SpanKey::CheckpointEncode,
        SpanKey::CheckpointCommit,
        SpanKey::Vote,
        SpanKey::ExecutorSegment,
        SpanKey::ExecutorHeal,
        SpanKey::SweepScenario,
        SpanKey::WorkerIdle,
    ];

    /// Dense array index of this key.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable dotted name used in the JSON sidecar.
    pub fn name(self) -> &'static str {
        match self {
            SpanKey::MailboxSend => "mailbox.send",
            SpanKey::MailboxRecvWait => "mailbox.recv_wait",
            SpanKey::MailboxPark => "mailbox.park",
            SpanKey::CheckpointEncode => "checkpoint.encode",
            SpanKey::CheckpointCommit => "checkpoint.commit",
            SpanKey::Vote => "vote",
            SpanKey::ExecutorSegment => "executor.segment",
            SpanKey::ExecutorHeal => "executor.heal",
            SpanKey::SweepScenario => "sweep.scenario",
            SpanKey::WorkerIdle => "worker.idle",
        }
    }

    /// Semicolon-joined frame path (scope prefix excluded) used in the
    /// inferno folded-stack export.
    pub fn stack(self) -> &'static str {
        match self {
            SpanKey::MailboxSend => "mailbox;send",
            SpanKey::MailboxRecvWait => "mailbox;recv_wait",
            SpanKey::MailboxPark => "mailbox;recv_wait;park",
            SpanKey::CheckpointEncode => "checkpoint;encode",
            SpanKey::CheckpointCommit => "checkpoint;commit",
            SpanKey::Vote => "vote",
            SpanKey::ExecutorSegment => "executor;segment",
            SpanKey::ExecutorHeal => "executor;heal",
            SpanKey::SweepScenario => "sweep;scenario",
            SpanKey::WorkerIdle => "worker;idle",
        }
    }

    /// The span this one is always nested inside, if any. The folded
    /// export subtracts a child's total from its parent to render parent
    /// self-time.
    pub fn parent(self) -> Option<SpanKey> {
        match self {
            SpanKey::MailboxPark => Some(SpanKey::MailboxRecvWait),
            _ => None,
        }
    }
}

/// One monotonic profiler counter.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CounterKey {
    /// Scheduler parks entered by mailbox waits.
    Parks,
    /// Returns from a park (wakes left over from an earlier wait included).
    Wakes,
    /// Wakes fired by senders toward a registered waiter.
    Notifies,
    /// Mailbox waits matched without parking (the name dates from the
    /// spin phase the pre-scheduler mailbox had; it is part of the
    /// `redcr-prof/2` schema).
    SpinResolved,
    /// Mailbox waits that had to park at least once before matching.
    ParkResolved,
    /// Physical sends pushed through instrumented mailboxes.
    Sends,
    /// Physical receives completed through instrumented mailboxes.
    Recvs,
    /// Parked rank tasks marked runnable by a matching send (M:N
    /// scheduler wake; counted on the sender's scope).
    TaskWakes,
    /// Rank tasks a scheduler worker stole from another worker's deque.
    Steals,
    /// Rank tasks a scheduler worker popped from its own deque.
    LocalHits,
    /// Times a scheduler worker slept on the idle condvar.
    WorkerParks,
    /// Task wakes issued from a worker other than the task's home worker
    /// (the woken rank's state crosses cores); a subset of the pool's
    /// wakes, counted on the waking worker's scope.
    RemoteWakes,
    /// Dispatches of a rank task on a worker other than its home (a
    /// stolen task runs once on loan, then returns home).
    Loans,
    /// The deepest coroutine stack a worker's tasks used, in bytes
    /// (measured in debug builds only): a peak, merged by maximum.
    StackHighWater,
}

impl CounterKey {
    /// Number of counter keys.
    pub const COUNT: usize = 14;

    /// Every key, in index order.
    pub const ALL: [CounterKey; Self::COUNT] = [
        CounterKey::Parks,
        CounterKey::Wakes,
        CounterKey::Notifies,
        CounterKey::SpinResolved,
        CounterKey::ParkResolved,
        CounterKey::Sends,
        CounterKey::Recvs,
        CounterKey::TaskWakes,
        CounterKey::Steals,
        CounterKey::LocalHits,
        CounterKey::WorkerParks,
        CounterKey::RemoteWakes,
        CounterKey::Loans,
        CounterKey::StackHighWater,
    ];

    /// Dense array index of this key.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable name used in the JSON sidecar and Perfetto tracks.
    pub fn name(self) -> &'static str {
        match self {
            CounterKey::Parks => "parks",
            CounterKey::Wakes => "wakes",
            CounterKey::Notifies => "notifies",
            CounterKey::SpinResolved => "spin_resolved",
            CounterKey::ParkResolved => "park_resolved",
            CounterKey::Sends => "sends",
            CounterKey::Recvs => "recvs",
            CounterKey::TaskWakes => "task_wakes",
            CounterKey::Steals => "steals",
            CounterKey::LocalHits => "local_hits",
            CounterKey::WorkerParks => "worker_parks",
            CounterKey::RemoteWakes => "remote_wakes",
            CounterKey::Loans => "loans",
            CounterKey::StackHighWater => "stack_high_water",
        }
    }

    /// Merges two values of this counter: a count by sum, a peak
    /// (`StackHighWater`) by maximum.
    #[inline]
    pub fn merge(self, a: u64, b: u64) -> u64 {
        match self {
            CounterKey::StackHighWater => a.max(b),
            _ => a + b,
        }
    }
}

/// One timeline sample stream rendered as a Perfetto counter track.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum TrackKey {
    /// Mailbox queue depth observed by the sender after each push.
    QueueDepth,
    /// Cumulative parks on this scope (the track's slope is the park
    /// rate).
    Parks,
    /// Scheduler run-queue depth observed by a worker after each local
    /// pop.
    RunQueueDepth,
}

impl TrackKey {
    /// Number of track keys.
    pub const COUNT: usize = 3;

    /// Every key, in index order.
    pub const ALL: [TrackKey; Self::COUNT] =
        [TrackKey::QueueDepth, TrackKey::Parks, TrackKey::RunQueueDepth];

    /// Dense array index of this key.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable track name used in the JSON sidecar and Perfetto export.
    pub fn name(self) -> &'static str {
        match self {
            TrackKey::QueueDepth => "queue_depth",
            TrackKey::Parks => "parks",
            TrackKey::RunQueueDepth => "run_queue_depth",
        }
    }
}
