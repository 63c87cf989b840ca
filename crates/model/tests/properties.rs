//! Property-based tests for the analytic model's invariants.

use proptest::prelude::*;
use redcr_model::checkpointing::{daly_interval, lost_work, restart_rework, young_interval};
use redcr_model::combined::CombinedConfig;
use redcr_model::partition::RedundancyPartition;
use redcr_model::redundancy::{redundant_time, SystemModel};
use redcr_model::reliability::{node_reliability, sphere_reliability, Approximation};

proptest! {
    /// Eq. 5: the two partition sets always cover N exactly.
    #[test]
    fn partition_sets_cover_n(n in 1u64..100_000, r in 1.0f64..3.0) {
        let p = RedundancyPartition::new(n, r).unwrap();
        prop_assert_eq!(p.n_floor_set() + p.n_ceil_set(), n);
    }

    /// Eq. 8: N·r ≤ N_total < N·r + 1 (floor rounding adds at most one).
    #[test]
    fn partition_total_tracks_nr(n in 1u64..100_000, r in 1.0f64..3.0) {
        let p = RedundancyPartition::new(n, r).unwrap();
        let total = p.total_physical() as f64;
        let nr = n as f64 * r;
        prop_assert!(total >= nr - 1e-6);
        prop_assert!(total < nr + 1.0 + 1e-6);
    }

    /// Per-rank replica counts only take the two partition values and sum to
    /// the partition total.
    #[test]
    fn partition_assignment_consistent(n in 1u64..2_000, r in 1.0f64..3.0) {
        let p = RedundancyPartition::new(n, r).unwrap();
        let mut sum = 0;
        let mut ceil_count = 0;
        for v in 0..n {
            let c = p.replicas_of(v);
            prop_assert!(c == p.floor_replicas() || c == p.ceil_replicas());
            if c == p.ceil_replicas() {
                ceil_count += 1;
            }
            sum += c;
        }
        prop_assert_eq!(sum, p.total_physical());
        if p.floor_replicas() != p.ceil_replicas() {
            prop_assert_eq!(ceil_count, p.n_ceil_set());
        }
    }

    /// Reliabilities are probabilities.
    #[test]
    fn reliability_in_unit_interval(
        t in 0.0f64..1e6,
        theta in 1e-3f64..1e9,
        k in 1u64..8,
    ) {
        for approx in [Approximation::Linear, Approximation::Exact] {
            let r = node_reliability(t, theta, approx).unwrap();
            prop_assert!((0.0..=1.0).contains(&r));
            let s = sphere_reliability(t, theta, k, approx).unwrap();
            prop_assert!((0.0..=1.0).contains(&s));
            prop_assert!(s >= r - 1e-12, "sphere at least as reliable as one node");
        }
    }

    /// Eq. 1: t_Red is monotone in r and bounded by [t, r·t].
    #[test]
    fn redundant_time_monotone(
        t in 1e-3f64..1e5,
        alpha in 0.0f64..1.0,
        r in 1.0f64..3.0,
    ) {
        let tr = redundant_time(t, alpha, r).unwrap();
        prop_assert!(tr >= t - 1e-9);
        prop_assert!(tr <= r * t + 1e-9);
        let tr2 = redundant_time(t, alpha, (r + 0.5).min(3.0)).unwrap();
        prop_assert!(tr2 >= tr - 1e-9);
    }

    /// System reliability improves (weakly) with redundancy degree.
    #[test]
    fn system_reliability_monotone_in_r(
        n in 1u64..10_000,
        theta in 10.0f64..1e7,
        t in 0.1f64..100.0,
    ) {
        prop_assume!(t < theta);
        let mut last = -1.0f64;
        for r in [1.0, 1.5, 2.0, 2.5, 3.0] {
            let m = SystemModel::new(n, r, theta).unwrap();
            let rel = m.system_reliability(t).unwrap();
            prop_assert!(rel >= last - 1e-12, "r={} rel={} last={}", r, rel, last);
            last = rel;
        }
    }

    /// Eq. 12: expected lost work never exceeds the segment length.
    #[test]
    fn lost_work_bounds(
        delta in 1e-6f64..1e4,
        c in 0.0f64..1e3,
        theta in 1e-3f64..1e12,
    ) {
        let t_lw = lost_work(delta, c, theta).unwrap();
        prop_assert!(t_lw >= 0.0);
        prop_assert!(t_lw <= delta + 1e-9);
    }

    /// Eq. 13: expected restart+rework never exceeds the nominal R + t_lw.
    #[test]
    fn restart_rework_bounds(
        restart in 0.0f64..1e3,
        t_lw in 0.0f64..1e3,
        theta in 1e-3f64..1e9,
    ) {
        let t_rr = restart_rework(restart, t_lw, theta).unwrap();
        prop_assert!(t_rr >= 0.0);
        prop_assert!(t_rr <= restart + t_lw + 1e-9);
    }

    /// Eq. 15: Daly's interval is positive and grows with both c and Θ.
    #[test]
    fn daly_positive_and_monotone(c in 1e-6f64..10.0, theta in 1e-2f64..1e8) {
        let d = daly_interval(c, theta).unwrap();
        prop_assert!(d > 0.0);
        let d_bigger_theta = daly_interval(c, theta * 4.0).unwrap();
        prop_assert!(d_bigger_theta >= d - 1e-9);
    }

    /// Daly's higher-order interval is never longer than Young's first-order
    /// one (the correction terms subtract c and shrink the interval).
    #[test]
    fn daly_at_most_young_plus_slack(c in 1e-6f64..1.0, theta in 1.0f64..1e8) {
        prop_assume!(c < theta / 10.0);
        let d = daly_interval(c, theta).unwrap();
        let y = young_interval(c, theta).unwrap();
        // d = y(1 + small corrections) - c; corrections are <= ~0.12 for c << theta
        prop_assert!(d <= y * 1.2);
    }

    /// The combined model: total time is at least the redundant time, and
    /// efficiency is in (0, 1].
    #[test]
    fn combined_total_at_least_t_red(
        n in 1u64..50_000,
        r in 1.0f64..3.0,
        theta_hours in 100.0f64..1e7,
        alpha in 0.0f64..0.9,
    ) {
        let cfg = CombinedConfig::builder()
            .virtual_processes(n)
            .degree(r)
            .base_time_hours(10.0)
            .node_mtbf_hours(theta_hours)
            .comm_fraction(alpha)
            .checkpoint_cost_hours(0.05)
            .restart_cost_hours(0.1)
            .build()
            .unwrap();
        if let Ok(o) = cfg.evaluate() {
            prop_assert!(o.total_time >= o.redundant_time - 1e-6);
            let eff = o.config.base_time / o.total_time;
            prop_assert!(eff > 0.0 && eff <= 1.0 + 1e-9);
            prop_assert!(o.expected_failures >= 0.0);
        }
    }
}
