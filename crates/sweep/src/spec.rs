//! Canonical scenario specification: the cache key of the capacity planner.
//!
//! A [`ScenarioSpec`] pins down *everything* that determines a sweep
//! point's result — backend, scale, redundancy degree, checkpoint policy,
//! failure rate, workload shape, and Monte-Carlo seed count. Two specs
//! that encode to the same canonical bytes are the same scenario: the
//! dedup front-end collapses them and the result cache serves one answer
//! for both.
//!
//! The canonical encoding is versioned, fixed-width, and byte-exact
//! (floats are encoded as their IEEE-754 bit patterns, big-endian), so the
//! 64-bit FNV-1a hash over it is stable across runs, platforms, and
//! process layouts. Nothing wall-clock or environment-dependent may ever
//! leak into it.

use redcr_json::Writer;
use redcr_model::combined::CombinedConfig;
use redcr_model::Result as ModelResult;

/// Version byte prefixed to the canonical encoding. Bump it whenever the
/// meaning of a scenario changes (new field, changed simulator semantics)
/// so every stale cache entry misses instead of serving wrong answers.
pub const SPEC_ENCODING_VERSION: u8 = 3;

/// Which evaluation engine answers the scenario.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Backend {
    /// Closed-form combined model (Eqs. 1, 9–15): one evaluation,
    /// `seeds` is ignored.
    Model,
    /// Discrete-event cluster simulator: `seeds` Monte-Carlo runs with
    /// deterministic seed assignment `0..seeds`.
    Simulator,
}

impl Backend {
    fn tag(self) -> u8 {
        match self {
            Backend::Model => 0,
            Backend::Simulator => 1,
        }
    }

    /// Canonical lowercase name (used in JSON).
    pub fn name(self) -> &'static str {
        match self {
            Backend::Model => "model",
            Backend::Simulator => "simulator",
        }
    }
}

/// Checkpoint-interval policy of a scenario. The model and the simulator
/// both use Daly's interval (Eq. 15), the paper's choice; the one variant
/// keeps its place in the canonical encoding and the rendered JSON, so
/// committed cache keys stay valid.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SpecPolicy {
    /// Daly's higher-order interval.
    Daly,
}

impl SpecPolicy {
    /// The policy's tag and parameter in the canonical encoding.
    fn tag(self) -> (u8, f64) {
        match self {
            SpecPolicy::Daly => (0, 0.0),
        }
    }

    /// Canonical string form (used in JSON).
    pub fn render(self) -> &'static str {
        match self {
            SpecPolicy::Daly => "daly",
        }
    }
}

/// Workload shape: the application-side inputs of the combined model.
/// All durations in hours.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Workload {
    /// Failure-free base execution time without redundancy.
    pub base_time_hours: f64,
    /// Communication/computation ratio `α ∈ [0, 1]`.
    pub alpha: f64,
    /// Coordinated checkpoint cost `c`.
    pub checkpoint_cost_hours: f64,
    /// Restart overhead `R`.
    pub restart_cost_hours: f64,
}

/// One point of a capacity-planning sweep.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioSpec {
    /// Evaluation engine.
    pub backend: Backend,
    /// `N`: virtual (application-visible) process count.
    pub n_virtual: u64,
    /// `r`: redundancy degree.
    pub degree: f64,
    /// Checkpoint-interval policy.
    pub policy: SpecPolicy,
    /// `θ`: per-node MTBF, hours.
    pub node_mtbf_hours: f64,
    /// Application workload shape.
    pub workload: Workload,
    /// Monte-Carlo runs for the simulator backend (ignored by the model).
    pub seeds: u32,
}

/// 64-bit FNV-1a over `bytes` (offset basis / prime per the reference
/// parameters).
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

impl ScenarioSpec {
    /// The versioned, fixed-width canonical encoding. Field order and
    /// widths are frozen per [`SPEC_ENCODING_VERSION`]; floats contribute
    /// their exact IEEE-754 bit patterns, so `-0.0` and `0.0` are
    /// *different* scenarios (they are different inputs to the model).
    pub fn canonical_bytes(&self) -> Vec<u8> {
        self.canonical_bytes_with_degree_bits(self.degree.to_bits())
    }

    fn canonical_bytes_with_degree_bits(&self, degree_bits: u64) -> Vec<u8> {
        let (ptag, pval) = self.policy.tag();
        let mut out = Vec::with_capacity(64);
        out.push(SPEC_ENCODING_VERSION);
        out.push(self.backend.tag());
        out.extend_from_slice(&self.n_virtual.to_be_bytes());
        out.extend_from_slice(&degree_bits.to_be_bytes());
        out.push(ptag);
        out.extend_from_slice(&pval.to_bits().to_be_bytes());
        out.extend_from_slice(&self.node_mtbf_hours.to_bits().to_be_bytes());
        out.extend_from_slice(&self.workload.base_time_hours.to_bits().to_be_bytes());
        out.extend_from_slice(&self.workload.alpha.to_bits().to_be_bytes());
        out.extend_from_slice(&self.workload.checkpoint_cost_hours.to_bits().to_be_bytes());
        out.extend_from_slice(&self.workload.restart_cost_hours.to_bits().to_be_bytes());
        // The model backend evaluates a closed form: its answer does not
        // depend on the Monte-Carlo budget, so `seeds` is canonicalized to
        // 0 there — submitting the same model point with different seed
        // counts must dedup/cache-hit to one entry.
        let seeds = match self.backend {
            Backend::Model => 0,
            Backend::Simulator => self.seeds,
        };
        out.extend_from_slice(&seeds.to_be_bytes());
        out
    }

    /// The scenario's FNV-1a hash over [`ScenarioSpec::canonical_bytes`].
    pub fn hash(&self) -> u64 {
        fnv1a(&self.canonical_bytes())
    }

    /// The *group* hash: the scenario hash with the redundancy degree
    /// replaced by a sentinel. Scenarios sharing a group ask the same
    /// question (same backend, scale, policy, MTBF, workload, seeds) with
    /// different settings of the tuning knob `r` — the population a Pareto
    /// frontier meaningfully compares.
    pub fn group_hash(&self) -> u64 {
        // NaN bits are unreachable as a real degree (validation rejects
        // NaN), so they cannot collide with any scenario's own encoding.
        fnv1a(&self.canonical_bytes_with_degree_bits(f64::NAN.to_bits()))
    }

    /// The hash as the fixed-width hex key used in the JSONL cache.
    pub fn hash_hex(&self) -> String {
        format!("{:016x}", self.hash())
    }

    /// Builds the combined-model configuration this scenario evaluates.
    ///
    /// # Errors
    ///
    /// Propagates model domain errors (invalid degree, α, costs, …).
    pub fn to_config(&self) -> ModelResult<CombinedConfig> {
        CombinedConfig::builder()
            .virtual_processes(self.n_virtual)
            .degree(self.degree)
            .base_time_hours(self.workload.base_time_hours)
            .node_mtbf_hours(self.node_mtbf_hours)
            .comm_fraction(self.workload.alpha)
            .checkpoint_cost_hours(self.workload.checkpoint_cost_hours)
            .restart_cost_hours(self.workload.restart_cost_hours)
            .build()
    }

    /// Canonical JSON object for this spec: fixed key order, shortest
    /// round-trip float formatting — byte-stable across runs.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(256);
        self.write_json(&mut Writer::compact(&mut out));
        out
    }

    /// Writes [`render_json`](Self::render_json)'s object as `w`'s next
    /// value.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_object()
            .field("backend", self.backend.name())
            .field("n_virtual", self.n_virtual)
            .field("degree", self.degree)
            .field("policy", self.policy.render())
            .field("mtbf_hours", self.node_mtbf_hours)
            .field("base_time_hours", self.workload.base_time_hours)
            .field("alpha", self.workload.alpha)
            .field("checkpoint_cost_hours", self.workload.checkpoint_cost_hours)
            .field("restart_cost_hours", self.workload.restart_cost_hours)
            .field("seeds", self.seeds)
            .end_object();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base_spec() -> ScenarioSpec {
        ScenarioSpec {
            backend: Backend::Simulator,
            n_virtual: 128,
            degree: 2.0,
            policy: SpecPolicy::Daly,
            node_mtbf_hours: 12.0,
            workload: Workload {
                base_time_hours: 46.0 / 60.0,
                alpha: 0.2,
                checkpoint_cost_hours: 120.0 / 3600.0,
                restart_cost_hours: 500.0 / 3600.0,
            },
            seeds: 32,
        }
    }

    #[test]
    fn hash_is_stable_across_calls() {
        let s = base_spec();
        assert_eq!(s.hash(), s.hash());
        assert_eq!(s.hash_hex().len(), 16);
    }

    #[test]
    fn fnv_reference_vector() {
        // Known FNV-1a 64 test vector: "a" -> 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
    }

    #[test]
    fn every_field_changes_the_hash() {
        let s = base_spec();
        let h = s.hash();
        let variants = [
            ScenarioSpec { backend: Backend::Model, ..s },
            ScenarioSpec { n_virtual: 129, ..s },
            ScenarioSpec { degree: 2.5, ..s },
            ScenarioSpec { node_mtbf_hours: 13.0, ..s },
            ScenarioSpec { workload: Workload { base_time_hours: 1.0, ..s.workload }, ..s },
            ScenarioSpec { workload: Workload { alpha: 0.3, ..s.workload }, ..s },
            ScenarioSpec { workload: Workload { checkpoint_cost_hours: 0.5, ..s.workload }, ..s },
            ScenarioSpec { workload: Workload { restart_cost_hours: 0.5, ..s.workload }, ..s },
            ScenarioSpec { seeds: 33, ..s },
        ];
        for v in variants {
            assert_ne!(v.hash(), h, "variant must hash differently: {v:?}");
        }
    }

    #[test]
    fn group_hash_ignores_degree_only() {
        let s = base_spec();
        let other_degree = ScenarioSpec { degree: 3.0, ..s };
        assert_eq!(s.group_hash(), other_degree.group_hash(), "degree is the knob");
        let other_mtbf = ScenarioSpec { node_mtbf_hours: 24.0, ..s };
        assert_ne!(s.group_hash(), other_mtbf.group_hash(), "environment splits groups");
        let other_backend = ScenarioSpec { backend: Backend::Model, ..s };
        assert_ne!(s.group_hash(), other_backend.group_hash());
    }

    #[test]
    fn model_backend_ignores_seed_count() {
        let a = ScenarioSpec { backend: Backend::Model, seeds: 1, ..base_spec() };
        let b = ScenarioSpec { backend: Backend::Model, seeds: 99, ..base_spec() };
        assert_eq!(a.hash(), b.hash(), "closed-form answer is seed-free");
    }

    #[test]
    fn policy_round_trips() {
        for backend in [Backend::Model, Backend::Simulator] {
            let json =
                redcr_json::parse(&ScenarioSpec { backend, ..base_spec() }.render_json()).unwrap();
            assert_eq!(json.req::<&str>("policy"), Ok(SpecPolicy::Daly.render()));
            assert_eq!(json.req::<&str>("backend"), Ok(backend.name()));
        }
    }

    #[test]
    fn to_config_matches_fields() {
        let cfg = base_spec().to_config().unwrap();
        assert_eq!(cfg.n_virtual, 128);
        assert_eq!(cfg.degree, 2.0);
        assert_eq!(cfg.node_mtbf, 12.0);
        assert_eq!(cfg.alpha, 0.2);
    }

    /// The bytes the first line of the committed Figures 9–14 cache
    /// holds for this spec.
    #[test]
    fn render_json_matches_the_golden_bytes() {
        let s = ScenarioSpec {
            backend: Backend::Model,
            degree: 1.0,
            node_mtbf_hours: 6.0,
            ..base_spec()
        };
        assert_eq!(
            s.render_json(),
            "{\"backend\":\"model\",\"n_virtual\":128,\"degree\":1,\
             \"policy\":\"daly\",\"mtbf_hours\":6,\
             \"base_time_hours\":0.7666666666666667,\"alpha\":0.2,\
             \"checkpoint_cost_hours\":0.03333333333333333,\
             \"restart_cost_hours\":0.1388888888888889,\"seeds\":32}"
        );
    }
}
