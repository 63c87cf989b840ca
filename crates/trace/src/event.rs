//! The event schema: one variant per observable action in the stack.

/// One recorded flight-recorder event.
#[derive(Debug, Clone, PartialEq)]
pub struct Event {
    /// Absolute virtual time of the event, seconds.
    pub time: f64,
    /// Physical rank that emitted the event; `None` for executor-level
    /// events that are not tied to a single rank (attempt brackets,
    /// topology is per-rank but injected by the executor with a rank).
    pub rank: Option<u32>,
    /// What happened.
    pub kind: EventKind,
}

/// The observable actions recorded across the stack.
///
/// Emitters by layer: `Send`/`Recv`/`Death`/`RankFinish` come from the
/// message runtime, `Vote`/`Failover` from the replication layer,
/// `CheckpointBegin`/`CheckpointCommit`/`Restore` from the checkpoint
/// coordinator, and `Topology`/`AttemptStart`/`Injected`/`AttemptEnd` from
/// the resilient executor.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum EventKind {
    /// A physical point-to-point message was injected.
    Send {
        /// Destination physical (world) rank.
        to: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// A physical message was consumed from the transport.
    Recv {
        /// Source physical (world) rank.
        from: u32,
        /// Payload size in bytes.
        bytes: u64,
    },
    /// The emitting rank observed its own fail-stop. The event time is the
    /// sampled death time, recorded exactly once per rank per run.
    Death,
    /// A receive-path vote over the redundant copies of one virtual
    /// message.
    Vote {
        /// Number of copies that participated (live sender replicas).
        copies: u32,
        /// Whether every copy agreed bit-for-bit.
        unanimous: bool,
        /// Whether a majority existed despite a mismatch (SDC corrected).
        corrected: bool,
    },
    /// The emitting replica became the acting leader of a wildcard receive
    /// because every lower-indexed replica of its sphere had died.
    Failover {
        /// The sphere (virtual rank) whose leadership moved.
        sphere: u32,
    },
    /// Coordinated checkpoint `seq` started on this rank (quiesce begins).
    CheckpointBegin {
        /// Checkpoint sequence number.
        seq: u64,
    },
    /// Checkpoint `seq` committed on this rank — recorded **after** the
    /// commit barrier, so a rank that dies mid-checkpoint never emits one.
    CheckpointCommit {
        /// Checkpoint sequence number.
        seq: u64,
        /// Stored image size in bytes.
        bytes: u64,
        /// Virtual-time write cost charged, seconds.
        cost: f64,
    },
    /// State restored from checkpoint `seq` at the start of an attempt.
    Restore {
        /// Checkpoint sequence number restored from.
        seq: u64,
        /// Virtual time at which the restored cut was originally taken.
        cut: f64,
    },
    /// Rank teardown: the rank's cumulative busy/comm split, for deriving
    /// its observed communication fraction `α = comm / (busy + comm)`.
    RankFinish {
        /// Seconds attributed to computation.
        busy: f64,
        /// Seconds attributed to communication.
        comm: f64,
    },
    /// Executor: sphere membership of one physical rank (emitted once per
    /// run, before the first attempt).
    Topology {
        /// The sphere (virtual rank) this physical rank serves.
        sphere: u32,
        /// Replica index within the sphere (0 = primary).
        replica: u32,
    },
    /// Executor: an attempt started (time = absolute attempt start).
    AttemptStart {
        /// Attempt number (0-based, as planned by the injector).
        attempt: u64,
    },
    /// Executor: a fail-stop was scheduled for the event's rank this
    /// attempt. The event time is absolute; `rel` is the schedule's
    /// relative death time — the exact value the executor's masked-death
    /// accounting compares. Only finite (i.e. actually scheduled) deaths
    /// are recorded.
    Injected {
        /// Death time relative to the attempt start, seconds.
        rel: f64,
    },
    /// Executor: the failure detector's suspicion deadline for the event's
    /// (dead) rank elapsed with no heartbeat. The event time is the
    /// modeled suspicion time (last heartbeat before the death plus the
    /// suspicion timeout); the decision itself is taken at the next agreed
    /// step boundary (see [`RespawnBegin`](Self::RespawnBegin)).
    HeartbeatMiss {
        /// The sphere (virtual rank) of the suspected replica.
        sphere: u32,
    },
    /// Executor: a respawn-and-rejoin cycle started for the event's rank.
    /// The event time is the agreed step boundary at which the heal
    /// decision was taken (state transfer from a surviving replica starts
    /// here). A `RespawnBegin` without a matching
    /// [`RespawnCommit`](Self::RespawnCommit) means the donor sphere died
    /// mid-transfer and the attempt failed instead.
    RespawnBegin {
        /// The sphere being healed.
        sphere: u32,
    },
    /// Executor: the respawned replica committed its rejoin (time = the
    /// boundary plus the modeled respawn and transfer costs). Carries the
    /// exact relative values the executor's heal accounting uses, so the
    /// analyzer reproduces the repair totals bit-for-bit.
    RespawnCommit {
        /// The sphere that was healed.
        sphere: u32,
        /// Commit time relative to the attempt start, seconds.
        rel: f64,
        /// Heal latency: seconds from the replica's death to this commit.
        latency: f64,
    },
    /// Executor: the healed sphere votes at full strength again (same time
    /// as the commit; recorded separately so voting-strength transitions
    /// are visible without joining against topology).
    RejoinVote {
        /// The sphere whose voting strength recovered.
        sphere: u32,
        /// Live copies after the rejoin (the sphere's full replica count).
        copies: u32,
    },
    /// Executor: an attempt ended.
    AttemptEnd {
        /// Attempt number (matches the opening `AttemptStart`).
        attempt: u64,
        /// Whether the application completed (vs a sphere death restart).
        completed: bool,
        /// End of the attempt relative to its start, seconds (clamped
        /// non-negative) — the executor's `end_rel`.
        rel_end: f64,
        /// Planned job-failure time relative to the attempt start
        /// (`INFINITY` when the attempt was planned failure-free) — the
        /// executor's `rel_failure`.
        rel_failure: f64,
        /// The sphere whose last replica died, for failed attempts.
        killer: Option<u32>,
    },
}

impl Event {
    /// The JSONL discriminator string of this event's kind.
    pub fn kind_name(&self) -> &'static str {
        match self.kind {
            EventKind::Send { .. } => "send",
            EventKind::Recv { .. } => "recv",
            EventKind::Death => "death",
            EventKind::Vote { .. } => "vote",
            EventKind::Failover { .. } => "failover",
            EventKind::CheckpointBegin { .. } => "ckpt_begin",
            EventKind::CheckpointCommit { .. } => "ckpt_commit",
            EventKind::Restore { .. } => "restore",
            EventKind::RankFinish { .. } => "rank_finish",
            EventKind::Topology { .. } => "topology",
            EventKind::AttemptStart { .. } => "attempt_start",
            EventKind::Injected { .. } => "injected",
            EventKind::HeartbeatMiss { .. } => "heartbeat_miss",
            EventKind::RespawnBegin { .. } => "respawn_begin",
            EventKind::RespawnCommit { .. } => "respawn_commit",
            EventKind::RejoinVote { .. } => "rejoin_vote",
            EventKind::AttemptEnd { .. } => "attempt_end",
        }
    }
}

/// The longest encoding of one event: the tag, a 5-byte rank, the time and
/// `AttemptEnd`'s fields (a 10-byte attempt, two `f64`s and a 5-byte
/// killer), the widest variant.
pub(crate) const MAX_ENCODED: usize = 1 + 5 + 8 + 10 + 8 + 8 + 5;

/// Tag bits above the kind number: a variant's bools (`Vote`'s two,
/// `AttemptEnd`'s one) ride in the tag byte instead of bytes of their own.
const FLAG_A: u8 = 0x20;
const FLAG_B: u8 = 0x40;
const KIND_MASK: u8 = 0x1f;

/// Appends one event's encoding to `chunk`, which has room for
/// [`MAX_ENCODED`] more bytes, so no event straddles two chunks and the
/// chunk is not grown.
///
/// The layout: a tag byte (the kind's number in this `match`, plus its
/// bools as flag bits); the rank as a LEB128 varint of `rank + 1`, 0
/// meaning none; the time as its raw `f64` bits; then the variant's fields
/// in declaration order — integers as varints, `f64`s as raw bits (NaN
/// payloads and signed zeros survive), `Option<u32>` as a varint of
/// `x + 1`. A `Send`, `Recv` or `Vote` between nearby ranks takes 11–13
/// bytes.
#[inline]
pub(crate) fn encode(time: f64, rank: Option<u32>, kind: &EventKind, chunk: &mut Vec<u8>) {
    debug_assert!(chunk.capacity() - chunk.len() >= MAX_ENCODED, "a chunk would grow");
    // Writing a whole slot and cutting it back costs two wide stores; an
    // exact-length copy would be a `memcpy` call per event.
    let start = chunk.len();
    chunk.extend_from_slice(&[0; MAX_ENCODED]);
    let slot = (&mut chunk[start..]).try_into().expect("the slot is MAX_ENCODED bytes");
    let mut e = Encoder { buf: slot, len: 1 };
    e.varint(rank.map_or(0, |r| u64::from(r) + 1));
    e.f64(time);
    let flag = |set: bool, bit: u8| if set { bit } else { 0 };
    let tag = match *kind {
        EventKind::Send { to, bytes } => {
            e.varint(to.into());
            e.varint(bytes);
            0
        }
        EventKind::Recv { from, bytes } => {
            e.varint(from.into());
            e.varint(bytes);
            1
        }
        EventKind::Death => 2,
        EventKind::Vote { copies, unanimous, corrected } => {
            e.varint(copies.into());
            3 | flag(unanimous, FLAG_A) | flag(corrected, FLAG_B)
        }
        EventKind::Failover { sphere } => {
            e.varint(sphere.into());
            4
        }
        EventKind::CheckpointBegin { seq } => {
            e.varint(seq);
            5
        }
        EventKind::CheckpointCommit { seq, bytes, cost } => {
            e.varint(seq);
            e.varint(bytes);
            e.f64(cost);
            6
        }
        EventKind::Restore { seq, cut } => {
            e.varint(seq);
            e.f64(cut);
            7
        }
        EventKind::RankFinish { busy, comm } => {
            e.f64(busy);
            e.f64(comm);
            8
        }
        EventKind::Topology { sphere, replica } => {
            e.varint(sphere.into());
            e.varint(replica.into());
            9
        }
        EventKind::AttemptStart { attempt } => {
            e.varint(attempt);
            10
        }
        EventKind::Injected { rel } => {
            e.f64(rel);
            11
        }
        EventKind::HeartbeatMiss { sphere } => {
            e.varint(sphere.into());
            12
        }
        EventKind::RespawnBegin { sphere } => {
            e.varint(sphere.into());
            13
        }
        EventKind::RespawnCommit { sphere, rel, latency } => {
            e.varint(sphere.into());
            e.f64(rel);
            e.f64(latency);
            14
        }
        EventKind::RejoinVote { sphere, copies } => {
            e.varint(sphere.into());
            e.varint(copies.into());
            15
        }
        EventKind::AttemptEnd { attempt, completed, rel_end, rel_failure, killer } => {
            e.varint(attempt);
            e.f64(rel_end);
            e.f64(rel_failure);
            e.varint(killer.map_or(0, |k| u64::from(k) + 1));
            16 | flag(completed, FLAG_A)
        }
    };
    e.buf[0] = tag;
    let len = e.len;
    chunk.truncate(start + len);
}

struct Encoder<'a> {
    buf: &'a mut [u8; MAX_ENCODED],
    len: usize,
}

impl Encoder<'_> {
    #[inline]
    fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf[self.len] = v as u8 | 0x80;
            self.len += 1;
            v >>= 7;
        }
        self.buf[self.len] = v as u8;
        self.len += 1;
    }

    #[inline]
    fn f64(&mut self, x: f64) {
        self.buf[self.len..self.len + 8].copy_from_slice(&x.to_bits().to_le_bytes());
        self.len += 8;
    }
}

/// Decodes the event at the front of `bytes`, which [`encode`] wrote,
/// and returns it with the number of bytes it took.
pub(crate) fn decode(bytes: &[u8]) -> (Event, usize) {
    let mut r = Reader { bytes, pos: 1 };
    let tag = bytes[0];
    let rank = r.varint().checked_sub(1).map(narrow);
    let time = r.f64();
    let kind = match tag & KIND_MASK {
        0 => EventKind::Send { to: narrow(r.varint()), bytes: r.varint() },
        1 => EventKind::Recv { from: narrow(r.varint()), bytes: r.varint() },
        2 => EventKind::Death,
        3 => EventKind::Vote {
            copies: narrow(r.varint()),
            unanimous: tag & FLAG_A != 0,
            corrected: tag & FLAG_B != 0,
        },
        4 => EventKind::Failover { sphere: narrow(r.varint()) },
        5 => EventKind::CheckpointBegin { seq: r.varint() },
        6 => EventKind::CheckpointCommit { seq: r.varint(), bytes: r.varint(), cost: r.f64() },
        7 => EventKind::Restore { seq: r.varint(), cut: r.f64() },
        8 => EventKind::RankFinish { busy: r.f64(), comm: r.f64() },
        9 => EventKind::Topology { sphere: narrow(r.varint()), replica: narrow(r.varint()) },
        10 => EventKind::AttemptStart { attempt: r.varint() },
        11 => EventKind::Injected { rel: r.f64() },
        12 => EventKind::HeartbeatMiss { sphere: narrow(r.varint()) },
        13 => EventKind::RespawnBegin { sphere: narrow(r.varint()) },
        14 => {
            EventKind::RespawnCommit { sphere: narrow(r.varint()), rel: r.f64(), latency: r.f64() }
        }
        15 => EventKind::RejoinVote { sphere: narrow(r.varint()), copies: narrow(r.varint()) },
        16 => EventKind::AttemptEnd {
            attempt: r.varint(),
            completed: tag & FLAG_A != 0,
            rel_end: r.f64(),
            rel_failure: r.f64(),
            killer: r.varint().checked_sub(1).map(narrow),
        },
        other => unreachable!("event tag {other} was never written"),
    };
    (Event { time, rank, kind }, r.pos)
}

/// A varint field that was written from a `u32`.
fn narrow(v: u64) -> u32 {
    u32::try_from(v).expect("a u32 field decodes to a u32")
}

struct Reader<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Reader<'_> {
    fn varint(&mut self) -> u64 {
        let mut v = 0u64;
        let mut shift = 0;
        loop {
            let b = self.bytes[self.pos];
            self.pos += 1;
            v |= u64::from(b & 0x7f) << shift;
            if b < 0x80 {
                return v;
            }
            shift += 7;
        }
    }

    fn f64(&mut self) -> f64 {
        let raw = self.bytes[self.pos..self.pos + 8].try_into().expect("eight bytes");
        self.pos += 8;
        f64::from_bits(u64::from_le_bytes(raw))
    }
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;

    /// An event's contents with every `f64` as its bits, so that NaN
    /// payloads and signed zeros compare exactly.
    pub(crate) fn bits(e: &Event) -> (Option<u32>, u64, &'static str, Vec<u64>) {
        let f = f64::to_bits;
        let fields = match e.kind {
            EventKind::Send { to, bytes } => vec![to.into(), bytes],
            EventKind::Recv { from, bytes } => vec![from.into(), bytes],
            EventKind::Death => vec![],
            EventKind::Vote { copies, unanimous, corrected } => {
                vec![copies.into(), unanimous.into(), corrected.into()]
            }
            EventKind::Failover { sphere }
            | EventKind::HeartbeatMiss { sphere }
            | EventKind::RespawnBegin { sphere } => vec![sphere.into()],
            EventKind::CheckpointBegin { seq } => vec![seq],
            EventKind::CheckpointCommit { seq, bytes, cost } => vec![seq, bytes, f(cost)],
            EventKind::Restore { seq, cut } => vec![seq, f(cut)],
            EventKind::RankFinish { busy, comm } => vec![f(busy), f(comm)],
            EventKind::Topology { sphere, replica } => vec![sphere.into(), replica.into()],
            EventKind::AttemptStart { attempt } => vec![attempt],
            EventKind::Injected { rel } => vec![f(rel)],
            EventKind::RespawnCommit { sphere, rel, latency } => {
                vec![sphere.into(), f(rel), f(latency)]
            }
            EventKind::RejoinVote { sphere, copies } => vec![sphere.into(), copies.into()],
            EventKind::AttemptEnd { attempt, completed, rel_end, rel_failure, killer } => vec![
                attempt,
                completed.into(),
                f(rel_end),
                f(rel_failure),
                killer.map_or(u64::MAX, u64::from),
            ],
        };
        (e.rank, f(e.time), e.kind_name(), fields)
    }

    /// One event of every kind, its fields set from `u32s`, `u64s`,
    /// `f64s` and `flags` (cycled).
    fn every_kind(u32s: &[u32], u64s: &[u64], f64s: &[f64], flags: &[bool]) -> Vec<EventKind> {
        let (mut i, mut j, mut k, mut l) = (0, 0, 0, 0);
        let mut u = || {
            i += 1;
            u32s[i % u32s.len()]
        };
        let mut w = || {
            j += 1;
            u64s[j % u64s.len()]
        };
        let mut x = || {
            k += 1;
            f64s[k % f64s.len()]
        };
        let mut b = || {
            l += 1;
            flags[l % flags.len()]
        };
        vec![
            EventKind::Send { to: u(), bytes: w() },
            EventKind::Recv { from: u(), bytes: w() },
            EventKind::Death,
            EventKind::Vote { copies: u(), unanimous: b(), corrected: b() },
            EventKind::Failover { sphere: u() },
            EventKind::CheckpointBegin { seq: w() },
            EventKind::CheckpointCommit { seq: w(), bytes: w(), cost: x() },
            EventKind::Restore { seq: w(), cut: x() },
            EventKind::RankFinish { busy: x(), comm: x() },
            EventKind::Topology { sphere: u(), replica: u() },
            EventKind::AttemptStart { attempt: w() },
            EventKind::Injected { rel: x() },
            EventKind::HeartbeatMiss { sphere: u() },
            EventKind::RespawnBegin { sphere: u() },
            EventKind::RespawnCommit { sphere: u(), rel: x(), latency: x() },
            EventKind::RejoinVote { sphere: u(), copies: u() },
            EventKind::AttemptEnd {
                attempt: w(),
                completed: b(),
                rel_end: x(),
                rel_failure: x(),
                killer: if b() { Some(u()) } else { None },
            },
        ]
    }

    /// A pseudo-random event of any kind from `next` (a 64-bit generator),
    /// mixing edge values into its fields; no NaN, so that `==` on it is
    /// reflexive.
    pub(crate) fn any_event(next: &mut impl FnMut() -> u64) -> Event {
        let r = next();
        let u32s = [0, 1, 127, 128, u32::MAX, r as u32, (r >> 40) as u32 & 0xff];
        let u64s = [0, 127, 16_384, u64::MAX, r, r >> 50];
        let f64s =
            [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 1.0 / 3.0, (r >> 11) as f64 * 1e-9];
        let pick = next();
        let rotate = |n: usize| (pick as usize >> 8) % n;
        let kinds = every_kind(
            &[u32s[rotate(7)], u32s[(rotate(7) + 3) % 7]],
            &[u64s[rotate(6)], u64s[(rotate(6) + 1) % 6]],
            &[f64s[rotate(6)], f64s[(rotate(6) + 5) % 6]],
            &[pick & 1 == 1, pick & 2 == 2, pick & 4 == 4],
        );
        let kind = kinds[(pick >> 16) as usize % kinds.len()].clone();
        let rank = match (pick >> 24) % 4 {
            0 => None,
            1 => Some(u32::MAX),
            _ => Some((pick >> 32) as u32 % 64),
        };
        Event { time: f64s[(pick >> 40) as usize % f64s.len()], rank, kind }
    }

    #[test]
    fn every_kind_round_trips_bit_for_bit_at_edge_values() {
        let nan_payload = f64::from_bits(0x7ff8_dead_beef_0001);
        let f64s = [nan_payload, -0.0, f64::INFINITY, f64::NEG_INFINITY, f64::MIN_POSITIVE, -1.5];
        let u32s = [u32::MAX, 0, 128];
        let u64s = [u64::MAX, 0, 1 << 63];
        let mut names = Vec::new();
        for mask in 0..8 {
            let flags = [mask & 1 != 0, mask & 2 != 0, mask & 4 != 0];
            for rotation in 0..f64s.len() {
                let f64s: Vec<f64> = f64s.iter().cycle().skip(rotation).take(6).copied().collect();
                for kind in every_kind(&u32s, &u64s, &f64s, &flags) {
                    for rank in [None, Some(0), Some(u32::MAX)] {
                        for time in [f64s[0], -0.0, f64::NEG_INFINITY] {
                            let event = Event { time, rank, kind: kind.clone() };
                            let mut bytes = Vec::with_capacity(MAX_ENCODED);
                            encode(time, rank, &event.kind, &mut bytes);
                            let (decoded, used) = decode(&bytes);
                            assert_eq!(used, bytes.len(), "{event:?}");
                            assert_eq!(bits(&decoded), bits(&event));
                        }
                    }
                    names.push(kind.clone());
                }
            }
        }
        // Both killers, both values of every flag, and every kind.
        let ends = names.iter().filter_map(|k| match k {
            EventKind::AttemptEnd { completed, killer, .. } => Some((*completed, *killer)),
            _ => None,
        });
        let ends: Vec<_> = ends.collect();
        assert!(
            ends.contains(&(true, None)) && ends.contains(&(false, Some(u32::MAX))),
            "{ends:?}"
        );
        let votes: Vec<_> = names
            .iter()
            .filter_map(|k| match k {
                EventKind::Vote { unanimous, corrected, .. } => Some((*unanimous, *corrected)),
                _ => None,
            })
            .collect();
        for pair in [(false, false), (false, true), (true, false), (true, true)] {
            assert!(votes.contains(&pair), "vote flags {pair:?} untested: {votes:?}");
        }
        let mut kinds: Vec<&str> = names
            .iter()
            .map(|kind| Event { time: 0.0, rank: None, kind: kind.clone() }.kind_name())
            .collect();
        kinds.sort_unstable();
        kinds.dedup();
        assert_eq!(kinds.len(), 17, "a kind is missing from the test");
    }

    /// The widest event of each common kind, between nearby ranks.
    #[test]
    fn the_hot_kinds_take_eleven_to_thirteen_bytes() {
        let size = |rank: u32, kind: EventKind| {
            let mut bytes = Vec::with_capacity(MAX_ENCODED);
            encode(12.5, Some(rank), &kind, &mut bytes);
            bytes.len()
        };
        assert_eq!(size(23, EventKind::Send { to: 7, bytes: 2048 }), 13);
        assert_eq!(size(23, EventKind::Recv { from: 7, bytes: 8 }), 12);
        assert_eq!(size(23, EventKind::Vote { copies: 3, unanimous: true, corrected: false }), 11);
        let widest = EventKind::AttemptEnd {
            attempt: u64::MAX,
            completed: false,
            rel_end: 0.0,
            rel_failure: 0.0,
            killer: Some(u32::MAX),
        };
        assert_eq!(size(u32::MAX, widest), MAX_ENCODED);
    }
}
