//! Shared attempt accounting: the one implementation of the arithmetic
//! behind `masked_failures`, `degraded_sphere_seconds`,
//! `recovered_voting_seconds`, `respawns` and `heal_latency_seconds`.
//!
//! The resilient executor and the trace [`analyzer`](crate::analyzer) must
//! agree on these totals **bit for bit** (the cross-check suite asserts
//! exact equality), so both keep one [`HealLedger`] per attempt: they feed
//! it every respawn commit as it happens
//! ([`HealLedger::commit`] — the executor from its heal transition, the
//! analyzer from `RespawnCommit` events) and close it at the attempt end
//! ([`HealLedger::close`]) into the attempt's [`AttemptAccount`]. Closing
//! runs the pure functions below over the same inputs in the same order:
//!
//! * `deaths` — every scheduled fail-stop of the attempt, including the
//!   re-sampled deaths of respawned incarnations, as `(physical rank,
//!   time relative to the attempt start)` in **emission order** (the order
//!   `Injected` events appear in the trace: the initial schedule in rank
//!   order, then each heal cycle's fresh samples in suspect order).
//! * `commits` — one `(sphere, relative commit time)` entry per healed
//!   sphere per heal cycle, in emission order with same-cycle duplicates
//!   collapsed (a cycle healing two replicas of one sphere commits that
//!   sphere once). Empty when nothing healed. The ledger is the only place
//!   that collapses them.
//!
//! A sphere's degraded interval opens at its first member death from full
//! strength, provided that death falls strictly before the attempt end,
//! and closes either at a heal commit (back to `r` live copies) or at the
//! sphere's own death; the residual tail is clipped to the attempt end.
//! With zero commits this is the span from a sphere's first member death
//! to its last — the totals the determinism gate pins; the unit tests keep
//! that closed form as a reference oracle.

/// One attempt's heal bookkeeping, fed one respawn commit at a time.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct HealLedger {
    respawns: u64,
    heal_latency_seconds: f64,
    commits: Vec<(u32, f64)>,
}

/// What one closed attempt adds to the run totals.
#[derive(Debug, Clone, PartialEq)]
pub struct AttemptAccount {
    /// Process deaths masked by redundancy ([`masked`]).
    pub masked: u64,
    /// The degraded intervals ([`degraded_spans`]).
    pub degraded_spans: Vec<f64>,
    /// Their sum.
    pub degraded_seconds: f64,
    /// Post-commit full-strength time ([`recovered_seconds`]).
    pub recovered_seconds: f64,
    /// Replicas respawned: one per [`HealLedger::commit`].
    pub respawns: u64,
    /// Death-to-rejoin latency, summed in commit order.
    pub heal_latency_seconds: f64,
    /// `(sphere, relative commit time)` per healed sphere per heal cycle.
    pub heal_commits: Vec<(u32, f64)>,
}

impl HealLedger {
    /// One respawned replica of `sphere` rejoined at `rel_commit` (relative
    /// to the attempt start), `latency` seconds after it died.
    pub fn commit(&mut self, sphere: u32, rel_commit: f64, latency: f64) {
        self.respawns += 1;
        self.heal_latency_seconds += latency;
        // One commit per healed sphere per cycle: a cycle that respawns
        // two replicas of one sphere commits it once.
        if !self.commits.contains(&(sphere, rel_commit)) {
            self.commits.push((sphere, rel_commit));
        }
    }

    /// Closes the attempt: `rel_end`, `rel_failure` and `killer` are the
    /// values its `AttemptEnd` event carries.
    pub fn close(
        self,
        spheres: &[Vec<u32>],
        deaths: &[(u32, f64)],
        completed: bool,
        rel_end: f64,
        rel_failure: f64,
        killer: Option<u32>,
    ) -> AttemptAccount {
        let degraded_spans = degraded_spans(spheres, deaths, &self.commits, rel_end);
        AttemptAccount {
            masked: masked(spheres, deaths, completed, rel_end, rel_failure, killer),
            // Summed per attempt with a left fold: the one order the
            // floating-point total is formed in.
            degraded_seconds: degraded_spans.iter().fold(0.0f64, |acc, &s| acc + s),
            degraded_spans,
            recovered_seconds: recovered_seconds(spheres, deaths, &self.commits, rel_end),
            respawns: self.respawns,
            heal_latency_seconds: self.heal_latency_seconds,
            heal_commits: self.commits,
        }
    }
}

/// Per-sphere degraded intervals, in sphere order then chronological
/// order, each clipped to `rel_end` (the attempt end relative to its
/// start). [`HealLedger::close`] sums them; the executor also feeds each
/// span to the degraded-interval histogram.
pub fn degraded_spans(
    spheres: &[Vec<u32>],
    deaths: &[(u32, f64)],
    commits: &[(u32, f64)],
    rel_end: f64,
) -> Vec<f64> {
    let mut spans = Vec::new();
    for (v, members) in spheres.iter().enumerate() {
        let full = members.len();
        if full == 0 {
            continue;
        }
        // Merge this sphere's member deaths and heal commits into one
        // chronological sweep; at equal times the death sorts first (a
        // commit can only answer a death that already happened).
        let mut events: Vec<(f64, bool)> = deaths
            .iter()
            .filter(|(r, _)| members.contains(r))
            .map(|&(_, t)| (t, false))
            .chain(commits.iter().filter(|&&(s, _)| s as usize == v).map(|&(_, t)| (t, true)))
            .collect();
        events.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));

        let mut live = full;
        let mut open: Option<f64> = None;
        for (t, is_commit) in events {
            // Nothing at or past the attempt end opens or closes anything
            // the clipped tail below does not already account for.
            if t >= rel_end {
                break;
            }
            if is_commit {
                if let Some(o) = open.take() {
                    spans.push(t - o);
                }
                live = full;
            } else {
                if live == full {
                    open = Some(t);
                }
                live = live.saturating_sub(1);
                if live == 0 {
                    // Sphere death: the degraded interval ends with it.
                    if let Some(o) = open.take() {
                        spans.push(t - o);
                    }
                    break;
                }
            }
        }
        // Still degraded when the attempt ended: clip the tail.
        if let Some(o) = open {
            spans.push(rel_end - o);
        }
    }
    spans
}

/// Recovered voting-seconds: for each heal commit, the span the healed
/// sphere subsequently ran at full voting strength — from the commit to
/// the sphere's next member death (a fresh incarnation sample after the
/// commit) or the attempt end, whichever comes first. Summed in commit
/// emission order.
pub fn recovered_seconds(
    spheres: &[Vec<u32>],
    deaths: &[(u32, f64)],
    commits: &[(u32, f64)],
    rel_end: f64,
) -> f64 {
    let mut total = 0.0f64;
    for &(s, c) in commits {
        let Some(members) = spheres.get(s as usize) else {
            continue;
        };
        let next = deaths
            .iter()
            .filter(|(r, t)| members.contains(r) && *t > c)
            .map(|&(_, t)| t)
            .fold(f64::INFINITY, f64::min);
        let upto = next.min(rel_end);
        if upto > c {
            total += upto - c;
        }
    }
    total
}

/// Process deaths masked by redundancy in one attempt. On a completed
/// attempt every scheduled death up to the attempt end was masked; on a
/// failed one, every death up to the job failure except the members of
/// the `killer` sphere (none when the failure time is not finite).
pub fn masked(
    spheres: &[Vec<u32>],
    deaths: &[(u32, f64)],
    completed: bool,
    rel_end: f64,
    rel_failure: f64,
    killer: Option<u32>,
) -> u64 {
    let dead_by = |t: f64| deaths.iter().filter(|&&(_, d)| d <= t).count();
    if completed {
        dead_by(rel_end) as u64
    } else if rel_failure.is_finite() {
        let fatal = killer.and_then(|k| spheres.get(k as usize)).map_or(0, Vec::len);
        dead_by(rel_failure).saturating_sub(fatal) as u64
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// 2 spheres × 2 replicas: sphere 0 = {0, 2}, sphere 1 = {1, 3}.
    fn spheres() -> Vec<Vec<u32>> {
        vec![vec![0, 2], vec![1, 3]]
    }

    /// The degraded total of an attempt with these commits, as a closed
    /// ledger reports it.
    fn degraded_seconds(
        spheres: &[Vec<u32>],
        deaths: &[(u32, f64)],
        commits: &[(u32, f64)],
        rel_end: f64,
    ) -> f64 {
        let ledger = HealLedger { commits: commits.to_vec(), ..HealLedger::default() };
        ledger.close(spheres, deaths, true, rel_end, f64::INFINITY, None).degraded_seconds
    }

    #[test]
    fn ledger_commits_a_sphere_once_per_cycle() {
        // At 3x, one cycle respawns two replicas of sphere 0 at the same
        // commit instant; a later cycle respawns one of them again.
        let spheres = || vec![vec![0, 2, 4], vec![1, 3, 5]];
        let mut ledger = HealLedger::default();
        ledger.commit(0, 5.0, 3.0);
        ledger.commit(0, 5.0, 1.5);
        ledger.commit(0, 8.0, 0.5);
        let deaths = [(0, 2.0), (2, 3.5), (0, 7.5)];
        let account = ledger.close(&spheres(), &deaths, true, 10.0, f64::INFINITY, None);
        assert_eq!(account.heal_commits, vec![(0, 5.0), (0, 8.0)]);
        assert_eq!(account.respawns, 3);
        assert_eq!(account.heal_latency_seconds, (3.0 + 1.5) + 0.5);
        // Degraded 2→5 and 7.5→8; recovered 5→7.5 and 8→10.
        assert_eq!(account.degraded_spans, vec![3.0, 0.5]);
        assert_eq!(account.degraded_seconds, 3.5);
        assert_eq!(account.recovered_seconds, 2.5 + 2.0);
        assert_eq!(account.masked, 3);
    }

    #[test]
    fn commit_closes_degraded_interval() {
        // Rank 0 dies at 2, its sphere heals at 5, attempt ends at 10.
        let deaths = [(0, 2.0)];
        let commits = [(0, 5.0)];
        let spans = degraded_spans(&spheres(), &deaths, &commits, 10.0);
        assert_eq!(spans, vec![3.0]);
        assert_eq!(degraded_seconds(&spheres(), &deaths, &commits, 10.0), 3.0);
    }

    #[test]
    fn unhealed_interval_runs_to_attempt_end() {
        let deaths = [(0, 2.0), (1, 4.0)];
        let commits = [(0, 5.0)];
        // Sphere 0: 2→5 healed. Sphere 1: 4→end (never healed).
        let spans = degraded_spans(&spheres(), &deaths, &commits, 10.0);
        assert_eq!(spans, vec![3.0, 6.0]);
    }

    #[test]
    fn redeath_after_heal_reopens_interval() {
        // Rank 0 dies at 2, heals at 5, its incarnation dies again at 7.
        let deaths = [(0, 2.0), (0, 7.0)];
        let commits = [(0, 5.0)];
        let spans = degraded_spans(&spheres(), &deaths, &commits, 10.0);
        assert_eq!(spans, vec![3.0, 3.0]);
        // Recovered: commit 5 → next death 7.
        assert_eq!(recovered_seconds(&spheres(), &deaths, &commits, 10.0), 2.0);
    }

    #[test]
    fn sphere_death_closes_interval_without_tail() {
        // Both members of sphere 0 die: the interval is death-to-death,
        // no residual to rel_end.
        let deaths = [(0, 2.0), (2, 6.0)];
        let spans = degraded_spans(&spheres(), &deaths, &[], 10.0);
        assert_eq!(spans, vec![4.0]);
    }

    #[test]
    fn events_past_attempt_end_ignored() {
        let deaths = [(0, 12.0)];
        assert!(degraded_spans(&spheres(), &deaths, &[], 10.0).is_empty());
        // A commit past the end leaves the interval clipped at rel_end.
        let deaths = [(0, 2.0)];
        let commits = [(0, 11.0)];
        assert_eq!(degraded_spans(&spheres(), &deaths, &commits, 10.0), vec![8.0]);
    }

    #[test]
    fn recovered_clips_to_attempt_end() {
        let deaths = [(0, 2.0)];
        let commits = [(0, 5.0)];
        assert_eq!(recovered_seconds(&spheres(), &deaths, &commits, 10.0), 5.0);
        // Unknown sphere entries are skipped, not panicked on.
        assert_eq!(recovered_seconds(&spheres(), &deaths, &[(9, 5.0)], 10.0), 0.0);
    }

    #[test]
    fn death_at_the_attempt_end_opens_no_interval() {
        // The first death of sphere 0 lands exactly on the attempt end:
        // no interval, not a zero-length one — with or without a commit.
        let deaths = [(0, 10.0)];
        assert!(degraded_spans(&spheres(), &deaths, &[], 10.0).is_empty());
        assert!(degraded_spans(&spheres(), &deaths, &[(0, 10.0)], 10.0).is_empty());
        // A *later* member death on the end still closes at the end.
        let deaths = [(0, 4.0), (2, 10.0)];
        assert_eq!(degraded_spans(&spheres(), &deaths, &[], 10.0), vec![6.0]);
    }

    #[test]
    fn masked_counts_deaths_up_to_the_end_or_the_failure() {
        let deaths = [(1, 2.0), (0, 3.0), (2, 4.0), (3, 9.0)];
        // Completed at 4.0: three deaths happened, all masked.
        assert_eq!(masked(&spheres(), &deaths, true, 4.0, f64::INFINITY, None), 3);
        // Failed at 4.0 by sphere 0 (ranks 0 and 2): only rank 1's counts.
        assert_eq!(masked(&spheres(), &deaths, false, 4.5, 4.0, Some(0)), 1);
        // A failed attempt without a finite failure time masks nothing.
        assert_eq!(masked(&spheres(), &deaths, false, 4.5, f64::INFINITY, None), 0);
    }

    /// The closed form the executor and the analyzer each carried before
    /// the sweep became the only implementation: per sphere, first member
    /// death to last (a member that never dies holds the last at
    /// infinity), clipped to the attempt, opened only strictly before the
    /// attempt end.
    fn first_to_last_death(spheres: &[Vec<u32>], deaths: &[(u32, f64)], rel_end: f64) -> Vec<f64> {
        let mut spans = Vec::new();
        for members in spheres {
            let times = members.iter().map(|&m| {
                deaths.iter().find(|&&(rank, _)| rank == m).map_or(f64::INFINITY, |&(_, t)| t)
            });
            let first = times.clone().fold(f64::INFINITY, f64::min);
            if first.is_finite() && first < rel_end {
                let last = times.fold(f64::NEG_INFINITY, f64::max);
                spans.push(last.min(rel_end) - first);
            }
        }
        spans
    }

    #[test]
    fn sweep_without_commits_is_the_first_to_last_death_formula() {
        // SplitMix64: a fixed stream, no dependency.
        let mut state = 2012u64;
        let mut next = move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        };
        let (mut on_the_end, mut before_any_death, mut with_survivor) = (0, 0, 0);
        for _ in 0..4_000 {
            // 1–5 spheres of 1–3 members each (degree-1 spheres included).
            let mut spheres: Vec<Vec<u32>> = Vec::new();
            let mut rank = 0u32;
            for _ in 0..1 + next() % 5 {
                let size = 1 + next() % 3;
                spheres.push((rank..rank + size as u32).collect());
                rank += size as u32;
            }
            // One death per rank at most; a third never die. Half the
            // times sit on a coarse grid so ties across ranks are common.
            let mut deaths: Vec<(u32, f64)> = Vec::new();
            for r in 0..rank {
                match next() % 6 {
                    0 | 1 => with_survivor += 1,
                    2 | 3 => deaths.push((r, (next() % 8) as f64 * 1.25)),
                    _ => deaths.push((r, (next() >> 11) as f64 / (1u64 << 53) as f64 * 10.0)),
                }
            }
            let rel_end = match (next() % 4, deaths.first()) {
                // Exactly on some death.
                (0, Some(_)) => deaths[(next() % deaths.len() as u64) as usize].1,
                // At or before the earliest death.
                (1, _) => deaths.iter().map(|d| d.1).fold(10.0, f64::min) * 0.5,
                _ => (next() >> 11) as f64 / (1u64 << 53) as f64 * 12.0,
            };
            on_the_end += deaths.iter().filter(|d| d.1 == rel_end).count();
            before_any_death += deaths.iter().all(|d| d.1 >= rel_end) as usize;

            let want = first_to_last_death(&spheres, &deaths, rel_end);
            let got = degraded_spans(&spheres, &deaths, &[], rel_end);
            let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
            assert_eq!(bits(&got), bits(&want), "{spheres:?} {deaths:?} end {rel_end}");
            let want_sum = want.iter().fold(0.0f64, |acc, &s| acc + s);
            let got_sum = degraded_seconds(&spheres, &deaths, &[], rel_end);
            assert_eq!(got_sum.to_bits(), want_sum.to_bits());
            assert_eq!(recovered_seconds(&spheres, &deaths, &[], rel_end).to_bits(), 0);
        }
        // The generator really reaches the edge cases it claims to.
        assert!(on_the_end > 100 && before_any_death > 100 && with_survivor > 100);
    }
}
