//! Virtual-time heartbeat failure detection for replica spheres.
//!
//! The self-healing path (TeaMPI-style detection + FTHP-MPI-style respawn)
//! needs a *deterministic* notion of "this replica is dead" that every
//! surviving rank reaches independently, without extra message traffic on
//! the hot path. This module provides it twice over, and the two views are
//! provably equivalent:
//!
//! * [`DetectorParams`] — the **modeled** detector: replicas emit
//!   heartbeats on a fixed virtual-time grid anchored at the attempt
//!   start; a replica that dies at `d` got its last beat out strictly
//!   before `d`, and is suspected once `timeout` virtual seconds pass with
//!   no further beat. Because the death schedule is sampled up front, the
//!   suspicion time is a *closed form* over `(origin, death)` — a pure
//!   function every rank evaluates identically, which is what keeps the
//!   heal decision collective without any extra communication.
//! * [`FailureDetector`] — the **event-driven** state machine the unit
//!   tests drive beat-by-beat: observe heartbeats, check deadlines, rejoin
//!   respawned replicas, and bump per-sphere liveness epochs. Feeding it
//!   the modeled beat grid reproduces the closed form exactly.
//!
//! Determinism contract: everything here is arithmetic over virtual-time
//! `f64`s that are themselves deterministic (sampled death times, agreed
//! step boundaries). Nothing reads a wall clock, nothing iterates a
//! hash map.

/// When the executor respawns dead replicas.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum HealPolicy {
    /// Never respawn: a degraded sphere stays at `r − 1` until the job
    /// ends (the source paper's model, and the bit-exact legacy path).
    #[default]
    Never,
    /// Respawn as soon as a suspicion deadline passes an agreed step
    /// boundary.
    OnDegrade,
    /// Respawn only at checkpoint boundaries (the heal replaces the due
    /// checkpoint; the relaunched segment checkpoints at its first
    /// boundary instead).
    AtCheckpoint,
}

/// Heartbeat-grid parameters of the failure detector.
///
/// `timeout` is clamped to at least one `period` at construction: a live
/// replica always gets its next beat out within one period of the last, so
/// with `timeout >= period` a replica can only be suspected **after** its
/// actual death — the detector produces no false suspicions by
/// construction (see `no_false_suspicion_for_live_replicas` in the
/// redundancy test suite).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DetectorParams {
    period: f64,
    timeout: f64,
}

impl DetectorParams {
    /// Builds detector parameters, sanitizing out-of-domain inputs rather
    /// than failing: a non-finite or non-positive `period` falls back to
    /// 1.0 virtual second, and `timeout` is clamped to at least one
    /// period (`NaN` clamps too). An infinite `timeout` is legal and
    /// means "never suspect".
    pub fn new(period: f64, timeout: f64) -> Self {
        let period = if period.is_finite() && period > 0.0 { period } else { 1.0 };
        let timeout = if timeout >= period { timeout } else { period };
        DetectorParams { period, timeout }
    }

    /// The heartbeat period, virtual seconds.
    pub fn period(&self) -> f64 {
        self.period
    }

    /// The suspicion timeout, virtual seconds (≥ the period).
    pub fn timeout(&self) -> f64 {
        self.timeout
    }

    /// The last heartbeat a replica dying at absolute time `death` got out,
    /// on the beat grid `origin + k·period`. A replica does **not** emit
    /// the beat that coincides with its own death (the fail-stop wins), so
    /// this is the largest grid point strictly before `death`; a replica
    /// dying at or before `origin` never beat at all and its join at
    /// `origin` counts as its last sign of life. `INFINITY` (never dies)
    /// maps to `INFINITY` (always beating).
    pub fn last_heartbeat(&self, origin: f64, death: f64) -> f64 {
        if !death.is_finite() {
            return f64::INFINITY;
        }
        let k = ((death - origin) / self.period).ceil() - 1.0;
        if k <= 0.0 {
            origin
        } else {
            origin + k * self.period
        }
    }

    /// The closed-form suspicion time for a replica dying at `death`:
    /// [`last_heartbeat`](Self::last_heartbeat) plus the timeout. Never
    /// earlier than `death` itself (see the type-level invariant), and
    /// `INFINITY` when the replica never dies or the timeout is infinite.
    pub fn suspicion_time(&self, origin: f64, death: f64) -> f64 {
        let last = self.last_heartbeat(origin, death);
        if last.is_finite() {
            last + self.timeout
        } else {
            f64::INFINITY
        }
    }
}

/// The event-driven failure-detector state machine: per-replica heartbeat
/// freshness, per-replica suspicion flags, and per-sphere liveness epochs.
///
/// The epoch of a sphere counts its membership changes: it starts at 0 and
/// is bumped once for every suspicion and once for every rejoin, so a
/// sphere that loses and regains a replica ends two epochs later. Votes
/// taken in different epochs involve different live-copy sets, which is
/// what "per-sphere liveness epochs" buys the healing layer: a vote result
/// is only comparable within one epoch.
#[derive(Debug, Clone)]
pub struct FailureDetector {
    params: DetectorParams,
    /// Sphere index of each physical rank (dense, rank-indexed).
    sphere_of: Vec<usize>,
    /// Last sign of life per physical rank (join time or latest beat).
    last_seen: Vec<f64>,
    /// Whether the rank is currently suspected.
    suspected: Vec<bool>,
    /// Liveness epoch per sphere.
    epochs: Vec<u64>,
}

impl FailureDetector {
    /// A detector over `spheres` (physical-rank membership per sphere, as
    /// the executor's topology lists them) with every rank joining — and
    /// thus last seen — at `origin`.
    pub fn new(params: DetectorParams, spheres: &[Vec<u32>], origin: f64) -> Self {
        let n_ranks =
            spheres.iter().flat_map(|m| m.iter()).map(|&r| r as usize + 1).fold(0usize, usize::max);
        let mut sphere_of = vec![0usize; n_ranks];
        for (s, members) in spheres.iter().enumerate() {
            for &r in members {
                if let Some(slot) = sphere_of.get_mut(r as usize) {
                    *slot = s;
                }
            }
        }
        FailureDetector {
            params,
            sphere_of,
            last_seen: vec![origin; n_ranks],
            suspected: vec![false; n_ranks],
            epochs: vec![0u64; spheres.len()],
        }
    }

    /// The detector parameters.
    pub fn params(&self) -> DetectorParams {
        self.params
    }

    /// Records a heartbeat from `rank` at virtual time `t`. Beats never
    /// move freshness backwards, and a suspected rank's stale beats are
    /// ignored — only an explicit [`rejoin`](Self::rejoin) revives it.
    pub fn observe_heartbeat(&mut self, rank: u32, t: f64) {
        let r = rank as usize;
        if self.suspected.get(r).copied().unwrap_or(true) {
            return;
        }
        if let Some(last) = self.last_seen.get_mut(r) {
            if t > *last {
                *last = t;
            }
        }
    }

    /// Evaluates every deadline at virtual time `now` and returns the
    /// ranks that just became suspected, in rank order. A rank is
    /// suspected once `now >= last_seen + timeout`; a beat arriving
    /// **exactly at** the deadline and observed before the check therefore
    /// keeps the rank alive (freshness moves to the deadline itself).
    /// Each new suspicion bumps its sphere's liveness epoch.
    pub fn check(&mut self, now: f64) -> Vec<u32> {
        let mut newly = Vec::new();
        for r in 0..self.last_seen.len() {
            if self.suspected[r] || now < self.last_seen[r] + self.params.timeout {
                continue;
            }
            self.suspected[r] = true;
            if let Some(e) = self.epochs.get_mut(self.sphere_of[r]) {
                *e += 1;
            }
            newly.push(r as u32);
        }
        newly
    }

    /// Re-admits a respawned replica at virtual time `t`: clears its
    /// suspicion, resets its freshness to `t`, and bumps its sphere's
    /// liveness epoch (the live-copy set changed again).
    pub fn rejoin(&mut self, rank: u32, t: f64) {
        let r = rank as usize;
        let was_suspected = self.suspected.get(r).copied().unwrap_or(false);
        if !was_suspected {
            return;
        }
        self.suspected[r] = false;
        self.last_seen[r] = t;
        if let Some(e) = self.epochs.get_mut(self.sphere_of[r]) {
            *e += 1;
        }
    }

    /// Whether `rank` is currently suspected.
    pub fn is_suspected(&self, rank: u32) -> bool {
        self.suspected.get(rank as usize).copied().unwrap_or(false)
    }

    /// The current liveness epoch of `sphere` (0 = never degraded).
    pub fn epoch(&self, sphere: usize) -> u64 {
        self.epochs.get(sphere).copied().unwrap_or(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn params_clamp_timeout_to_period() {
        let p = DetectorParams::new(2.0, 0.5);
        assert_eq!(p.period(), 2.0);
        assert_eq!(p.timeout(), 2.0, "timeout clamps up to one period");
        let p = DetectorParams::new(-1.0, f64::NAN);
        assert_eq!(p.period(), 1.0);
        assert_eq!(p.timeout(), 1.0);
        let p = DetectorParams::new(1.0, f64::INFINITY);
        assert_eq!(p.timeout(), f64::INFINITY, "infinite timeout = never suspect");
    }

    #[test]
    fn last_heartbeat_is_strictly_before_death() {
        let p = DetectorParams::new(1.0, 2.0);
        // Mid-period death: last beat at the grid point below.
        assert_eq!(p.last_heartbeat(0.0, 2.5), 2.0);
        // Death exactly on a beat: that beat never got out.
        assert_eq!(p.last_heartbeat(0.0, 3.0), 2.0);
        // Death before the first beat: the join is the last sign of life.
        assert_eq!(p.last_heartbeat(0.0, 0.25), 0.0);
        // Non-zero origin shifts the grid.
        assert_eq!(p.last_heartbeat(10.0, 12.5), 12.0);
        // Immortal replica.
        assert_eq!(p.last_heartbeat(0.0, f64::INFINITY), f64::INFINITY);
    }

    #[test]
    fn suspicion_never_precedes_death() {
        let p = DetectorParams::new(0.5, 0.75);
        for i in 0..1000 {
            let death = 0.013 * f64::from(i);
            let s = p.suspicion_time(0.0, death);
            assert!(s >= death, "suspicion {s} before death {death}");
        }
        assert_eq!(p.suspicion_time(0.0, f64::INFINITY), f64::INFINITY);
    }
}
