//! A 1-D Jacobi sweep (Laplace relaxation) with halo exchange — a
//! neighbour-communication workload with a lower communication fraction
//! than CG.

use redcr_mpi::collectives::ReduceOp;
use redcr_mpi::{Communicator, MpiError, Rank, Result, Tag};

use crate::compute::ComputeModel;

/// Halo-exchange tags.
const HALO_LEFT: u64 = 100;
const HALO_RIGHT: u64 = 101;

/// Points a sweep relaxes per chunk, each with its own running maximum of
/// the update size. Lanes with no dependency between them let the compiler
/// vectorise the max; a max is order-independent, so the lanes agree bit
/// for bit with one serial fold. A chunk's window of `LANES + 2` old values
/// stays in registers at 16 lanes (SSE2); at 32 it spills.
const LANES: usize = 16;

/// Configuration of a Jacobi run.
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiConfig {
    /// Grid points per rank (interior).
    pub points_per_rank: usize,
    /// Boundary values at the global left/right ends.
    pub left_boundary: f64,
    /// Right end boundary value.
    pub right_boundary: f64,
    /// Computation cost model.
    pub compute: ComputeModel,
}

impl JacobiConfig {
    /// A small functional-test configuration.
    pub fn small(points_per_rank: usize) -> Self {
        JacobiConfig {
            points_per_rank,
            left_boundary: 0.0,
            right_boundary: 1.0,
            compute: ComputeModel::zero(),
        }
    }

    /// Checks that every rank owns at least one point.
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::App`] if `points_per_rank` is 0.
    pub fn validate(&self) -> Result<()> {
        if self.points_per_rank == 0 {
            return Err(no_points());
        }
        Ok(())
    }
}

/// Checkpointable Jacobi state (one rank's grid slice).
#[derive(Debug, Clone, PartialEq)]
pub struct JacobiState {
    /// Completed sweeps.
    pub iteration: u64,
    /// The rank's interior points.
    pub u: Vec<f64>,
}
redcr_ckpt::codec_struct!(JacobiState { iteration, u });

/// The Jacobi solver.
#[derive(Debug, Clone)]
pub struct JacobiSolver {
    config: JacobiConfig,
}

impl JacobiSolver {
    /// Creates a solver.
    pub fn new(config: JacobiConfig) -> Self {
        JacobiSolver { config }
    }

    /// The configuration.
    pub fn config(&self) -> &JacobiConfig {
        &self.config
    }

    /// Initial state: all zeros.
    pub fn init_state(&self) -> JacobiState {
        JacobiState { iteration: 0, u: vec![0.0; self.config.points_per_rank] }
    }

    /// One sweep: exchange halos with neighbours, relax every interior
    /// point, and return the global max update (via allreduce).
    ///
    /// # Errors
    ///
    /// Returns [`MpiError::App`] if the rank has no points, and propagates
    /// runtime errors (abort).
    pub fn step<C: Communicator>(&self, comm: &C, state: &mut JacobiState) -> Result<f64> {
        let me = comm.rank().index();
        let n = comm.size();
        let m = state.u.len();
        let (Some(&first), Some(&last)) = (state.u.first(), state.u.last()) else {
            return Err(no_points());
        };

        // Exchange halo values (eager sends never deadlock).
        if me > 0 {
            comm.send_f64s(Rank::new((me - 1) as u32), Tag::new(HALO_LEFT), &[first])?;
        }
        if me + 1 < n {
            comm.send_f64s(Rank::new((me + 1) as u32), Tag::new(HALO_RIGHT), &[last])?;
        }
        let left = if me > 0 {
            comm.recv_f64s(Rank::new((me - 1) as u32).into(), Tag::new(HALO_RIGHT).into())?.0[0]
        } else {
            self.config.left_boundary
        };
        let right = if me + 1 < n {
            comm.recv_f64s(Rank::new((me + 1) as u32).into(), Tag::new(HALO_LEFT).into())?.0[0]
        } else {
            self.config.right_boundary
        };

        let max_delta = relax(&mut state.u, left, right);
        comm.compute(self.config.compute.cost(3 * m as u64))?;
        state.iteration += 1;

        let global = comm.allreduce_f64(&[max_delta], ReduceOp::Max)?;
        Ok(global[0])
    }

    /// Runs `iterations` sweeps.
    ///
    /// # Errors
    ///
    /// Propagates runtime errors (abort).
    pub fn run<C: Communicator>(
        &self,
        comm: &C,
        state: &mut JacobiState,
        iterations: u64,
    ) -> Result<f64> {
        let mut delta = f64::INFINITY;
        for _ in 0..iterations {
            delta = self.step(comm, state)?;
        }
        Ok(delta)
    }
}

/// The error for a rank that owns no grid points: a sweep has nothing to
/// relax and no end value to send its neighbours.
fn no_points() -> MpiError {
    MpiError::App { what: "a Jacobi rank needs at least one point (points_per_rank = 0)".into() }
}

/// One Jacobi sweep over `u` in place, with `left` and `right` the values
/// beyond its ends: every point becomes the mean of its old neighbours.
/// Returns the largest `|new − old|`, ignoring NaN as [`f64::max`] does.
///
/// Each chunk of [`LANES`] points reads its old values, framed by its two
/// old neighbours, into a register window before writing any of them: the
/// point after the chunk is not yet written, and the old value of the point
/// before it is carried in `before`, as it is through the last, partial
/// chunk. So every point is computed from old values only: exactly what a
/// second grid would give, bit for bit.
fn relax(u: &mut [f64], left: f64, right: f64) -> f64 {
    let m = u.len();
    let mut lanes = [0.0f64; LANES];
    let mut before = left;
    let full = m - m % LANES;
    for start in (0..full).step_by(LANES) {
        let mut window = [before; LANES + 2];
        window[1..=LANES].copy_from_slice(&u[start..start + LANES]);
        window[LANES + 1] = u.get(start + LANES).copied().unwrap_or(right);
        before = window[LANES];
        let chunk = &mut u[start..start + LANES];
        for lane in 0..LANES {
            let v = 0.5 * (window[lane] + window[lane + 2]);
            let d = (v - window[lane + 1]).abs();
            lanes[lane] = if d > lanes[lane] { d } else { lanes[lane] };
            chunk[lane] = v;
        }
    }
    for (lane, i) in (full..m).enumerate() {
        let old = u[i];
        let v = 0.5 * (before + u.get(i + 1).copied().unwrap_or(right));
        let d = (v - old).abs();
        lanes[lane] = if d > lanes[lane] { d } else { lanes[lane] };
        u[i] = v;
        before = old;
    }
    lanes.into_iter().fold(0.0, |acc, d| if d > acc { d } else { acc })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use redcr_mpi::{CostModel, World};

    /// The two-buffer sweep [`relax`] replaced, kept as its oracle: a fresh
    /// grid, one point at a time, the boundary decided per point, and a
    /// serial `f64::max` fold.
    fn relax_two_buffers(u: &mut Vec<f64>, left: f64, right: f64) -> f64 {
        let m = u.len();
        let mut next = Vec::with_capacity(m);
        let mut max_delta = 0.0f64;
        for i in 0..m {
            let l = if i == 0 { left } else { u[i - 1] };
            let r = if i + 1 == m { right } else { u[i + 1] };
            let v = 0.5 * (l + r);
            max_delta = max_delta.max((v - u[i]).abs());
            next.push(v);
        }
        *u = next;
        max_delta
    }

    /// Every value's bits, except that a NaN is any NaN: Rust leaves the
    /// sign and payload of a NaN result unspecified (an `a + b` of two NaNs
    /// may return either's), so no codegen of either sweep pins them.
    fn bits(u: &[f64]) -> Vec<u64> {
        u.iter().map(|v| if v.is_nan() { f64::NAN.to_bits() } else { v.to_bits() }).collect()
    }

    /// Lengths at and around every lane edge, around 8 and 1 024 points,
    /// and one long length.
    const EDGE_LENGTHS: [usize; 13] =
        [1, 2, 7, 8, 9, LANES - 1, LANES, LANES + 1, 2 * LANES + 1, 1023, 1024, 1025, 3077];

    /// A value drawn from `bits`: `special` draws in 256 are special (±0,
    /// NaN, ±∞, extremes, a subnormal of either sign), the rest ordinary
    /// magnitudes.
    fn value(bits: u64, special: u64) -> f64 {
        const SPECIAL: [f64; 10] = [
            0.0,
            -0.0,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MAX,
            f64::MIN,
            1.0,
            -1.0,
        ];
        if bits % 256 >= special {
            return ((bits >> 11) as f64 / (1u64 << 53) as f64 - 0.5) * 1e3;
        }
        if bits & 256 == 0 {
            SPECIAL[(bits >> 9) as usize % SPECIAL.len()]
        } else {
            f64::from_bits((bits >> 12) | (bits & 512) << 54)
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        #[test]
        fn in_place_sweep_is_the_two_buffer_sweep_bit_for_bit(
            pick in 0usize..17,
            random_len in 1usize..5001,
            seed in any::<u64>(),
            density in 0usize..3,
        ) {
            let m = EDGE_LENGTHS.get(pick).copied().unwrap_or(random_len);
            // None, a few, or many: NaN spreads a point a sweep, so dense
            // specials soon leave little else to compare.
            let special = [0, 2, 32][density];
            let mut rng = seed;
            let mut draw = || {
                // SplitMix64.
                rng = rng.wrapping_add(0x9e37_79b9_7f4a_7c15);
                let mut z = rng;
                z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
                z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
                value(z ^ (z >> 31), special)
            };
            let (left, right) = (draw(), draw());
            let mut fast: Vec<f64> = (0..m).map(|_| draw()).collect();
            let mut oracle = fast.clone();
            for sweep in 0..20 {
                let got = relax(&mut fast, left, right);
                let want = relax_two_buffers(&mut oracle, left, right);
                prop_assert_eq!(got.to_bits(), want.to_bits(), "max_delta, sweep {} of {}", sweep, m);
                prop_assert_eq!(bits(&fast), bits(&oracle), "state, sweep {} of {}", sweep, m);
            }
        }
    }

    #[test]
    fn a_rank_with_no_points_is_a_typed_error() {
        let solver = JacobiSolver::new(JacobiConfig::small(0));
        let report = World::builder(2)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state();
                let err = solver.step(comm, &mut state).unwrap_err();
                assert!(matches!(err, MpiError::App { .. }), "{err}");
                Ok(state.iteration)
            })
            .unwrap();
        assert_eq!(report.into_results().unwrap(), vec![0, 0], "nothing was relaxed");
    }

    #[test]
    fn converges_to_linear_profile() {
        // Laplace in 1-D with boundaries 0 and 1 converges to a straight
        // line.
        let solver = JacobiSolver::new(JacobiConfig::small(8));
        let report = World::builder(4)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state();
                let delta = solver.run(comm, &mut state, 3000)?;
                assert!(delta < 1e-8, "not converged: {delta}");
                Ok(state.u)
            })
            .unwrap();
        let blocks = report.into_results().unwrap();
        let all: Vec<f64> = blocks.into_iter().flatten().collect();
        let total = all.len();
        for (i, v) in all.iter().enumerate() {
            let expect = (i + 1) as f64 / (total + 1) as f64;
            assert!((v - expect).abs() < 1e-4, "point {i}: {v} vs {expect}");
        }
    }

    #[test]
    fn deltas_monotumble_toward_zero() {
        let solver = JacobiSolver::new(JacobiConfig::small(16));
        World::builder(2)
            .cost_model(CostModel::zero())
            .run(|comm| {
                let mut state = solver.init_state();
                let d1 = solver.run(comm, &mut state, 10)?;
                let d2 = solver.run(comm, &mut state, 100)?;
                assert!(d2 < d1);
                Ok(())
            })
            .unwrap()
            .into_results()
            .unwrap();
    }

    #[test]
    fn state_serializable() {
        let solver = JacobiSolver::new(JacobiConfig::small(4));
        let state = solver.init_state();
        let bytes = redcr_ckpt::to_bytes(&state).unwrap();
        let back: JacobiState = redcr_ckpt::from_bytes(&bytes).unwrap();
        assert_eq!(back, state);
    }
}
