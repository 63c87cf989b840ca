//! Failure-detector state machine: suspicion deadlines and the
//! closed-form heartbeat schedule the self-healing executor relies on.

use redcr_red::{DetectorParams, FailureDetector, HealPolicy};

#[test]
fn heartbeat_exactly_at_deadline_keeps_replica_alive() {
    // timeout = 2·period: a beat landing exactly on the suspicion deadline
    // refreshes the replica before check() runs at that instant only if it
    // is observed first — the detector is driven in (observe, check) order
    // per virtual tick, so an on-time beat always wins.
    let params = DetectorParams::new(1.0, 2.0);
    let mut d = FailureDetector::new(params, 6, 0.0);
    for k in 1..=10u32 {
        let t = f64::from(k);
        for r in 0..6 {
            d.observe_heartbeat(r, t);
        }
        assert!(d.check(t + 2.0 - 1e-9).is_empty(), "tick {k}: false suspicion");
    }
    // The deadline itself is inclusive: with no further beats, a check at
    // last_seen + timeout suspects.
    let suspects = d.check(12.0);
    assert_eq!(suspects.len(), 6, "all replicas pass their deadline together");
}

#[test]
fn double_kill_inside_one_period_suspects_each_replica_once() {
    let params = DetectorParams::new(1.0, 1.0);
    let mut d = FailureDetector::new(params, 6, 0.0);
    // Replicas 0 and 1 both go silent before the first beat: one check
    // sweeps both into suspicion, in rank order.
    for r in [2, 3, 4, 5] {
        d.observe_heartbeat(r, 1.0);
    }
    assert_eq!(d.check(1.0), vec![0, 1]);
    // A second check at the same instant is idempotent: no re-suspicion,
    // and a late beat does not revive a suspected replica.
    assert!(d.check(1.0).is_empty());
    d.observe_heartbeat(0, 1.5);
    assert!(d.check(1.5).is_empty());
    assert_eq!(d.check(2.0), vec![2, 3, 4, 5]);
}

#[test]
fn slow_but_alive_replica_is_never_falsely_suspected() {
    // The executor clamps timeout >= period, so a replica that beats every
    // period — even right at the boundary — can never be suspected while
    // alive. Drive one replica at exactly period cadence and everyone else
    // twice as fast; nobody must be suspected.
    let params = DetectorParams::new(2.0, 2.0);
    let mut d = FailureDetector::new(params, 6, 0.0);
    let mut t = 0.0;
    for _ in 0..50 {
        t += 1.0;
        for r in 1..6 {
            d.observe_heartbeat(r, t);
        }
        if (t as u64).is_multiple_of(2) {
            // The slow replica only beats on even ticks: gap = period.
            d.observe_heartbeat(0, t);
        }
        assert!(d.check(t).is_empty(), "t={t}: live replica suspected");
    }
}

#[test]
fn closed_form_schedule_matches_stepped_detector() {
    // The executor never steps a detector: it computes each replica's
    // suspicion time in closed form from its death time. Cross-check that
    // shortcut against an explicitly stepped detector for a grid of death
    // times and parameter choices.
    for (period, timeout) in [(1.0, 1.0), (0.5, 1.25), (2.0, 3.0)] {
        let params = DetectorParams::new(period, timeout);
        for death_steps in 1..40u32 {
            let death = f64::from(death_steps) * 0.37;
            let predicted = params.suspicion_time(0.0, death);
            // Step a fresh single-replica detector on the heartbeat grid:
            // the replica beats at every multiple of `period` strictly
            // before `death`, and the detector first suspects it at the
            // first check instant >= its deadline.
            let mut d = FailureDetector::new(params, 1, 0.0);
            let mut k = 1u32;
            while f64::from(k) * period < death {
                d.observe_heartbeat(0, f64::from(k) * period);
                k += 1;
            }
            // Scan on a fine grid; the first suspicious instant must agree
            // with the closed form to within the grid resolution.
            let mut stepped = f64::INFINITY;
            let mut t = 0.0;
            while t < death + 4.0 * (period + timeout) {
                if !d.check(t).is_empty() {
                    stepped = t;
                    break;
                }
                t += 0.01;
            }
            assert!(
                (stepped - predicted).abs() < 0.011,
                "period={period} timeout={timeout} death={death}: \
                 stepped {stepped} vs closed-form {predicted}"
            );
        }
    }
}

#[test]
fn params_sanitize_degenerate_inputs() {
    // Non-positive or non-finite periods fall back to 1 s; timeouts clamp
    // up to the period (the no-false-suspicion guarantee).
    for bad in [0.0, -3.0, f64::NAN] {
        let p = DetectorParams::new(bad, 0.1);
        assert_eq!(p.period(), 1.0);
        assert!(p.timeout() >= p.period());
    }
    let p = DetectorParams::new(2.0, 0.5);
    assert_eq!(p.timeout(), 2.0);
    // An infinite timeout is allowed: suspicion never fires.
    let p = DetectorParams::new(1.0, f64::INFINITY);
    assert_eq!(p.suspicion_time(0.0, 5.0), f64::INFINITY);
    // HealPolicy's default is the legacy no-heal path.
    assert_eq!(HealPolicy::default(), HealPolicy::Never);
}
