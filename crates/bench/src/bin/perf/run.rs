//! One measured run of one workload: what `BENCHMARK.json`'s command does.
//!
//! With tracing off it reports the end-to-end metrics; with tracing on it
//! reports every per-layer metric, from the program's own counters on a few
//! traced repetitions and from the probes. End-to-end numbers never come from
//! a traced repetition.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::time::Instant;

use crate::decl::{decl, Metric};
use crate::probes;
use crate::stats::{self, json_str, Quartiles, Spans};
use crate::workloads::{self, Fingerprint, Workload};

/// Fewest set-ups per run; `setup_s` is their median. The short ones (70 ms
/// on `cg_r3_obs_w1`) are the noisy ones, so set-up goes on, up to three times
/// as often, until it has taken `SETUP_SECONDS`.
const MIN_SETUPS: usize = 5;
const SETUP_SECONDS: f64 = 1.5;
/// Untimed repetitions before the timed ones: on two workers the first
/// repetition after the pool starts takes either 0.8 s or 1.2 s.
const WARMUPS: usize = 2;
/// Fewest timed repetitions, however long one takes.
const MIN_REPS: usize = 5;
/// Most untraced and most traced repetitions of a traced run; fewer, but one,
/// once they have taken `TRACED_SECONDS`. At one worker the program's counts
/// repeat exactly, so one traced repetition of a long workload is enough.
const TRACED_REPS: usize = 3;
const TRACED_SECONDS: f64 = 3.0;

#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub quick: bool,
    /// Whether a traced run also runs the probes. They do not depend on the
    /// workload, so the whole-command form runs them once, on their own.
    pub probes: bool,
    /// When `main` was entered.
    pub started: Instant,
}

/// One reported metric: the value on the result line, and the sample it is
/// the summary of.
#[derive(Debug)]
pub struct Row {
    pub metric: &'static Metric,
    pub value: f64,
    pub sample: Quartiles,
}

#[derive(Debug)]
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    pub rows: Vec<Row>,
    pub fingerprint: Option<Fingerprint>,
    /// Process start to the end of the first set-up, which is the cold one:
    /// what a user who runs the workload once waits before it starts.
    pub cold_setup_s: Option<f64>,
}

impl Outcome {
    /// JSON has no number that is not finite, and a reader must not take a
    /// stand-in for a measurement: such a value is one failed operation.
    fn new(ops: Ops, mut rows: Vec<Row>, cold_setup_s: Option<f64>) -> Outcome {
        let mut failed = ops.failed;
        for r in rows.iter_mut().filter(|r| !r.value.is_finite()) {
            eprintln!("perf: {} is {}, not a measurement", r.metric.name, r.value);
            r.value = 0.0;
            failed += 1;
        }
        Outcome {
            attempted: ops.attempted.max(failed),
            failed,
            rows,
            fingerprint: ops.fingerprint,
            cold_setup_s,
        }
    }

    /// The last line of a run's standard output.
    pub fn result_line(&self) -> String {
        let mut metrics = String::new();
        for (i, r) in self.rows.iter().enumerate() {
            let _ = write!(
                metrics,
                "{}{}: {{\"value\": {}, \"unit\": {}}}",
                if i == 0 { "" } else { ", " },
                json_str(&r.metric.name),
                r.value,
                json_str(&r.metric.unit),
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.failed == 0,
            self.attempted,
            self.failed,
        )
    }

    /// Every metric by name with unit, direction, bound, median, quartiles
    /// and sample size.
    pub fn table(&self) -> String {
        let mut out = format!(
            "  {:<38} {:>6} {:>6} {:>5} {:>14} {:>14} {:>14} {:>3}\n",
            "metric", "unit", "better", "bound", "value", "q1", "q3", "n"
        );
        for r in &self.rows {
            let bound = r.metric.bound.map_or("-".to_string(), |b| format!("{b:.2}"));
            let _ = writeln!(
                out,
                "  {:<38} {:>6} {:>6} {:>5} {:>14.6} {:>14.6} {:>14.6} {:>3}",
                r.metric.name,
                r.metric.unit,
                r.metric.better,
                bound,
                r.value,
                r.sample.q1,
                r.sample.q3,
                r.sample.n,
            );
        }
        out
    }
}

/// Counts repetitions, times them and holds them to one fingerprint.
#[derive(Default)]
struct Ops {
    attempted: u64,
    failed: u64,
    fingerprint: Option<Fingerprint>,
}

impl Ops {
    /// Runs one repetition and returns its wall seconds. It fails on an
    /// error, a panic, a failed check, or a fingerprint that differs from
    /// the first repetition's.
    fn rep<T>(
        &mut self,
        spans: &mut Spans,
        name: &str,
        f: impl FnOnce() -> Result<(Fingerprint, T), String>,
    ) -> (f64, Option<T>) {
        self.attempted += 1;
        let (result, wall) = spans.time("core", name, |_| catch_unwind(AssertUnwindSafe(f)));
        let result = result.unwrap_or_else(|_| Err("panicked".into())).and_then(|(fp, out)| {
            match self.fingerprint.get_or_insert_with(|| fp.clone()) {
                first if *first == fp => Ok(out),
                first => Err(format!("fingerprint changed: {first} then {fp}")),
            }
        });
        match result {
            Ok(out) => (wall, Some(out)),
            Err(e) => {
                self.failed += 1;
                eprintln!("perf: {name} repetition {} failed: {e}", self.attempted);
                (wall, None)
            }
        }
    }
}

fn row(metric: &'static Metric, values: &[f64]) -> Row {
    let sample = Quartiles::of(values);
    Row { metric, value: sample.median, sample }
}

struct SetUp {
    workload: Box<dyn Workload>,
    /// Wall seconds of every set-up, the cold first one included.
    walls: Vec<f64>,
    cold_s: f64,
}

fn set_up(spans: &mut Spans, o: &RunOpts, at_least: usize, seconds: f64) -> Result<SetUp, String> {
    let mut built = None;
    let mut cold_s = 0.0;
    let mut walls: Vec<f64> = Vec::new();
    while walls.len() < at_least
        || (walls.len() < 3 * at_least && walls.iter().sum::<f64>() < seconds)
    {
        // Drop the previous one first: two live copies would count twice in
        // the peak memory.
        drop(built.take());
        let (w, wall) =
            spans.time("proc", "setup", |_| workloads::build(&o.workload, o.seed, o.quick));
        built = Some(w?);
        if walls.is_empty() {
            cold_s = o.started.elapsed().as_secs_f64();
        }
        walls.push(wall);
    }
    Ok(SetUp { workload: built.ok_or("no set-up ran")?, walls, cold_s })
}

fn write_spans(spans: &Spans, out_dir: &Path, name: &str) -> Result<(), String> {
    let file = out_dir.join(format!("spans.{name}.jsonl"));
    std::fs::create_dir_all(out_dir)
        .and_then(|()| std::fs::write(&file, spans.to_jsonl()))
        .map_err(|e| format!("{}: {e}", file.display()))
}

/// Runs the workload as `o` says. `Err` means the harness could not measure.
pub fn measure(o: &RunOpts, out_dir: &Path) -> Result<Outcome, String> {
    let mut spans = Spans::new(&o.workload);
    let outcome = if o.trace { traced(&mut spans, o, out_dir) } else { untraced(&mut spans, o) };
    write_spans(&spans, out_dir, &format!("{}.trace{}", o.workload, u8::from(o.trace)))?;
    outcome
}

/// The probes alone: the per-layer metrics that depend on no workload. One
/// operation is one probe; a probe that fails panics, and the run with it.
pub fn measure_probes(seed: u64, quick: bool, out_dir: &Path) -> Result<Outcome, String> {
    let mut spans = Spans::new("probes");
    let probed = probes::run_all(&mut spans, seed, quick, out_dir);
    write_spans(&spans, out_dir, "probes")?;
    let rows: Vec<Row> = decl()
        .per_layer
        .iter()
        .filter_map(|metric| {
            let (_, sample) = probed.iter().find(|(n, _)| *n == metric.name)?;
            Some(Row { metric, value: sample.median, sample: *sample })
        })
        .collect();
    let ops = Ops { attempted: rows.len() as u64, ..Ops::default() };
    Ok(Outcome::new(ops, rows, None))
}

fn untraced(spans: &mut Spans, o: &RunOpts) -> Result<Outcome, String> {
    let SetUp { workload, walls: setups, cold_s } = if o.quick {
        set_up(spans, o, 1, 0.0)?
    } else {
        set_up(spans, o, MIN_SETUPS, SETUP_SECONDS)?
    };
    let mut ops = Ops::default();
    let plain = || workload.rep().map(|fp| (fp, ()));
    for _ in 0..WARMUPS {
        ops.rep(spans, "warmup", plain);
    }
    let mut walls = Vec::new();
    let mut cpus = Vec::new();
    let started = Instant::now();
    let cpu_start = stats::cpu_s();
    let mut cpu_before = cpu_start;
    while walls.len() < MIN_REPS || started.elapsed().as_secs_f64() < o.seconds {
        walls.push(ops.rep(spans, "rep", plain).0);
        let cpu_now = stats::cpu_s();
        cpus.push(cpu_now - cpu_before);
        cpu_before = cpu_now;
    }
    let rows = decl()
        .end_to_end
        .iter()
        .map(|metric| match metric.name.as_str() {
            "setup_s" => Ok(row(metric, &setups)),
            "wall_s" => Ok(row(metric, &walls)),
            // CPU time comes in 10 ms ticks: the total over all repetitions
            // resolves it far better than the median of per-repetition
            // differences would.
            "cpu_s" => Ok(Row {
                metric,
                value: (cpu_before - cpu_start) / walls.len() as f64,
                sample: Quartiles::of(&cpus),
            }),
            other => Err(format!("end-to-end metric {other} has no source")),
        })
        .collect::<Result<Vec<_>, _>>()?;
    Ok(Outcome::new(ops, rows, Some(cold_s)))
}

/// Up to `TRACED_REPS` repetitions, each returning its wall seconds.
fn a_few(mut rep: impl FnMut() -> f64) -> Vec<f64> {
    let mut walls: Vec<f64> = Vec::new();
    while walls.len() < TRACED_REPS
        && (walls.is_empty() || walls.iter().sum::<f64>() < TRACED_SECONDS)
    {
        walls.push(rep());
    }
    walls
}

fn traced(spans: &mut Spans, o: &RunOpts, out_dir: &Path) -> Result<Outcome, String> {
    let SetUp { workload, cold_s, .. } = set_up(spans, o, 1, 0.0)?;
    let mut ops = Ops::default();
    let mut samples: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    let mut put = |name: &'static str, v: f64| samples.entry(name).or_default().push(v);
    let plain = || workload.rep().map(|fp| (fp, ()));

    put("proc.cold_setup_s", cold_s);
    let warmup: f64 = (0..WARMUPS).map(|_| ops.rep(spans, "warmup", plain).0).sum();
    put("proc.warmup_s", warmup);
    let switches = stats::invol_ctx_switches();
    let walls = a_few(|| ops.rep(spans, "rep", plain).0);
    put("proc.invol_ctx_switches", stats::invol_ctx_switches() - switches);
    // Before the traced repetitions and the probes, which allocate more than
    // the workload a user runs.
    put("proc.peak_rss_mb", stats::peak_rss_mb());
    let wall = Quartiles::of(&walls).median;
    let messages = ops.fingerprint.as_ref().map_or(0, |fp| fp.get("physical_messages"));
    put("core.ns_per_phys_msg", if messages == 0 { 0.0 } else { wall * 1e9 / messages as f64 });

    a_few(|| {
        let (traced_wall, counters) = ops.rep(spans, "traced_rep", || workload.traced_rep());
        put("proc.traced_wall_s", traced_wall);
        put("proc.traced_overhead_ratio", traced_wall / wall);
        for (name, v) in counters.unwrap_or_default() {
            put(name, v);
        }
        traced_wall
    });
    drop(workload);

    let probed = if o.probes { probes::run_all(spans, o.seed, o.quick, out_dir) } else { vec![] };
    let mut rows = Vec::new();
    for metric in &decl().per_layer {
        let name = metric.name.as_str();
        rows.push(match (samples.get(name), probed.iter().find(|(n, _)| *n == name)) {
            (Some(values), None) => row(metric, values),
            (None, Some((_, sample))) => Row { metric, value: sample.median, sample: *sample },
            (None, None) if !o.probes => continue,
            (None, None) if ops.failed > 0 => row(metric, &[0.0]),
            _ => return Err(format!("metric {name} has no single source")),
        });
    }
    Ok(Outcome::new(ops, rows, Some(cold_s)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::Json;

    fn field<'a>(j: &'a Json, key: &str) -> &'a str {
        j.get(key).and_then(Json::as_str).unwrap_or_else(|| panic!("{key} in {j:?}"))
    }

    fn well_formed(name: &str) -> bool {
        let ok = |c: char| c.is_ascii_alphanumeric() || "_.-".contains(c);
        (1..=64).contains(&name.len())
            && name.chars().all(ok)
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
    }

    fn quick(workload: &str, trace: bool) -> Outcome {
        let o = RunOpts {
            workload: workload.into(),
            seed: 7,
            seconds: 0.0,
            trace,
            quick: true,
            probes: true,
            started: Instant::now(),
        };
        // `<target>/<profile>/deps/<test binary>`: write where Cargo writes.
        let exe = std::env::current_exe().expect("the test binary has a path");
        let dir = exe.ancestors().nth(3).expect("a target directory").join("perf-test");
        measure(&o, &dir).expect("a quick run measures")
    }

    #[test]
    fn declared_names_are_well_formed_and_used_once() {
        let d = decl();
        let mut seen = std::collections::BTreeSet::new();
        for m in d.end_to_end.iter().chain(&d.per_layer) {
            assert!(well_formed(&m.name) && seen.insert(&m.name), "{}", m.name);
            assert!((1..=16).contains(&m.unit.len()), "{}", m.unit);
            assert!(["lower", "higher"].contains(&m.better.as_str()), "{}", m.name);
        }
        assert!(d.end_to_end.iter().all(|m| m.bound.is_some_and(|b| b > 0.0 && b <= 0.25)));
        assert!(d.per_layer.iter().all(|m| m.bound.is_none()));
        assert!(d.workloads.iter().all(|(w, _)| well_formed(w) && seen.insert(w)));
        let setup = d.end_to_end.iter().find(|m| m.name == "setup_s").expect("setup_s");
        assert_eq!((setup.unit.as_str(), setup.better.as_str()), ("s", "lower"));
    }

    #[test]
    fn quick_runs_emit_every_declared_metric_once() {
        let d = decl();
        for (workload, _) in &d.workloads {
            for (trace, declared) in [(false, &d.end_to_end), (true, &d.per_layer)] {
                // The probes are the same for every workload and slow in a
                // debug build: one runtime workload and the sweep cover both
                // kinds of traced repetition.
                if trace && !["jacobi_ckpt_faulty_w1", "sweep_mc_t2"].contains(&workload.as_str()) {
                    continue;
                }
                let outcome = quick(workload, trace);
                assert_eq!(outcome.failed, 0, "{workload} trace {trace}");
                assert!(outcome.attempted >= 1);
                let line = Json::parse(&outcome.result_line()).expect("the result line is JSON");
                let Json::Obj(fields) = &line else { panic!("not an object") };
                let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
                assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
                assert_eq!(line.get("correct"), Some(&Json::Bool(true)));
                let Some(Json::Obj(metrics)) = line.get("metrics") else { panic!("no metrics") };
                let emitted: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
                let expected: Vec<&str> = declared.iter().map(|m| m.name.as_str()).collect();
                assert_eq!(emitted, expected, "{workload} trace {trace}");
                for ((_, v), m) in metrics.iter().zip(declared) {
                    assert_eq!(field(v, "unit"), m.unit);
                    assert!(v.get("value").and_then(Json::as_f64).is_some_and(f64::is_finite));
                }
                if !trace {
                    assert!(outcome.rows.iter().all(|r| r.value > 0.0), "{workload}: a zero");
                }
            }
        }
    }

    #[test]
    fn a_wrong_reference_fails_every_repetition() {
        for workload in ["cg_r3_w1", "sweep_mc_t2"] {
            let mut built = workloads::build(workload, 7, true).expect("builds");
            let mut ops = Ops::default();
            let mut spans = Spans::new(workload);
            ops.rep(&mut spans, "rep", || built.rep().map(|fp| (fp, ())));
            assert_eq!((ops.attempted, ops.failed), (1, 0));
            built.corrupt_reference();
            ops.rep(&mut spans, "rep", || built.rep().map(|fp| (fp, ())));
            ops.rep(&mut spans, "traced_rep", || built.traced_rep());
            assert_eq!((ops.attempted, ops.failed), (3, 2), "{workload}");
        }
    }

    #[test]
    fn a_panic_or_a_changed_fingerprint_is_a_failed_operation() {
        let mut ops = Ops::default();
        let mut spans = Spans::new("none");
        let fp = |v| Ok((Fingerprint(vec![("attempts", v)]), ()));
        ops.rep(&mut spans, "rep", || fp(1));
        ops.rep(&mut spans, "rep", || fp(1));
        assert_eq!(ops.failed, 0);
        ops.rep(&mut spans, "rep", || fp(2));
        ops.rep::<()>(&mut spans, "rep", || panic!("a rank panicked"));
        assert_eq!((ops.attempted, ops.failed), (4, 2));
    }

    #[test]
    fn a_value_that_is_not_finite_is_a_failed_operation() {
        let metric = &decl().per_layer[0];
        let ops = Ops { attempted: 3, ..Ops::default() };
        let outcome = Outcome::new(ops, vec![row(metric, &[f64::NAN])], None);
        assert_eq!((outcome.attempted, outcome.failed), (3, 1));
        let line = Json::parse(&outcome.result_line()).expect("still JSON");
        assert_eq!(line.get("correct"), Some(&Json::Bool(false)));
    }
}
