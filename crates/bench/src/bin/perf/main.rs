//! `perf`: the repository's one benchmark.
//!
//! Six end-to-end workloads, three end-to-end metrics, per-layer probes and a
//! traced run; see `README.md` beside this file. It measures every layer from
//! outside, by timing calls into public functions, and imports nothing from
//! `redcr_bench`.
//!
//! ```text
//! perf --workload <name> --seed <n> --seconds <s> --trace <0|1>   one measured run
//! perf [--only <name>] [--seed <n>] [--seconds <s>] [--quick]     every workload, each in
//!      [--selfcheck]                                              its own child process,
//!                                                                 then the probes, once
//! perf --probes-only | --list
//! ```

// `crates/bench` is the workspace's wall-clock domain (clippy.toml,
// detlint.toml): reading the host clock is the point here.
#![allow(clippy::disallowed_types, clippy::disallowed_methods)]

mod decl;
mod probes;
mod run;
mod stats;
mod workloads;

use std::io::Read as _;
use std::path::PathBuf;
use std::process::{Command, ExitCode, Stdio};
use std::time::{Duration, Instant};

use decl::decl;
use run::{Outcome, RunOpts};
use stats::Json;

const DEFAULT_SEED: u64 = 2012;
/// A run that has not ended by then is stuck; the driver allows 180 s.
const RUN_DEADLINE: Duration = Duration::from_secs(170);
/// Longest `--seconds`, which is also the longest `run_seconds` the driver
/// accepts: the longest workload then still ends well before `RUN_DEADLINE`.
const MAX_SECONDS: f64 = 60.0;

#[derive(Debug, Default)]
struct Cli {
    workload: Option<String>,
    only: Option<String>,
    seed: Option<u64>,
    seconds: Option<f64>,
    trace: bool,
    quick: bool,
    selfcheck: bool,
    probes_only: bool,
    /// Set by the whole-command form on its children, which would otherwise
    /// each run the same probes.
    skip_probes: bool,
    list: bool,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli::default();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or(format!("{arg} needs a value"));
        match arg.as_str() {
            "--workload" => cli.workload = Some(known_workload(value()?)?),
            "--only" => cli.only = Some(known_workload(value()?)?),
            "--seed" => cli.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(0.0..=MAX_SECONDS).contains(&s) {
                    return Err(format!("--seconds {s} is not within 0 to {MAX_SECONDS}"));
                }
                cli.seconds = Some(s);
            }
            "--trace" => {
                cli.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other:?}")),
                }
            }
            "--quick" => cli.quick = true,
            "--selfcheck" => cli.selfcheck = true,
            "--probes-only" => cli.probes_only = true,
            "--skip-probes" => cli.skip_probes = true,
            "--list" => cli.list = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    Ok(cli)
}

fn known_workload(name: &str) -> Result<String, String> {
    let names: Vec<&str> = decl().workloads.iter().map(|(w, _)| w.as_str()).collect();
    if names.contains(&name) {
        Ok(name.to_string())
    } else {
        Err(format!("unknown workload {name:?}; one of {}", names.join(", ")))
    }
}

/// Where the benchmark writes: `perf/` in the target directory the binary
/// was built into (`<target>/<profile>/perf`), whichever manifest built it.
fn out_dir() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let target = exe.ancestors().nth(2).ok_or("the binary is not in a target directory")?;
    Ok(target.join("perf"))
}

fn main() -> ExitCode {
    let started = Instant::now();
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = parse_cli(&args).and_then(|cli| {
        let seed = cli.seed.unwrap_or(DEFAULT_SEED);
        // A quick run measures nothing worth waiting for.
        let seconds = cli.seconds.unwrap_or(if cli.quick { 0.0 } else { decl().run_seconds });
        if cli.list {
            list();
            Ok(())
        } else if cli.probes_only {
            watchdog();
            let outcome = run::measure_probes(seed, cli.quick, &out_dir()?)?;
            report(&format!("probes seed {seed}"), &outcome);
            Ok(())
        } else if let Some(workload) = cli.workload {
            watchdog();
            let o = RunOpts {
                workload,
                seed,
                seconds,
                trace: cli.trace,
                quick: cli.quick,
                probes: !cli.skip_probes,
                started,
            };
            let outcome = run::measure(&o, &out_dir()?)?;
            let what = if o.trace {
                "per-layer metrics, traced run"
            } else {
                "end-to-end metrics, tracing off"
            };
            report(&format!("workload {} seed {seed} ({what})", o.workload), &outcome);
            Ok(())
        } else {
            every_workload(&cli, seed, seconds)
        }
    });
    match outcome {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perf: {e}");
            ExitCode::FAILURE
        }
    }
}

fn list() {
    let d = decl();
    println!("workloads:");
    for (name, why) in &d.workloads {
        println!("  {name:<24} {why}");
    }
    println!("end-to-end metrics (unit, better, regression bound):");
    for m in &d.end_to_end {
        println!("  {:<38} {:>6} {:>6} {:.2}", m.name, m.unit, m.better, m.bound.unwrap_or(0.0));
    }
    println!("per-layer metrics (unit, better):");
    for m in &d.per_layer {
        println!("  {:<38} {:>6} {:>6}", m.name, m.unit, m.better);
    }
}

/// A scheduler hang must end the run, not the pipeline that waits for it.
fn watchdog() {
    std::thread::spawn(|| {
        std::thread::sleep(RUN_DEADLINE);
        eprintln!("perf: no result after {} s, giving up", RUN_DEADLINE.as_secs());
        std::process::exit(3);
    });
}

/// Prints one measured run. The result line is the last line of standard
/// output.
fn report(title: &str, outcome: &Outcome) {
    println!("{title}");
    if let Some(fp) = &outcome.fingerprint {
        println!("  fingerprint: {fp}");
    }
    if let Some(cold) = outcome.cold_setup_s {
        println!("  process start to the end of the first set-up: {cold:.4} s");
    }
    print!("{}", outcome.table());
    println!("  ops_attempted={} ops_failed={}", outcome.attempted, outcome.failed);
    println!("{}", outcome.result_line());
}

/// What the parent keeps of one child run.
struct ChildResult {
    attempted: u64,
    failed: u64,
    /// `(metric name, value)` from the result line.
    values: Vec<(String, f64)>,
}

/// Runs this binary with `args` in a child process, passes its report
/// through, and reads its result line. A child that hangs, panics or prints no
/// result is one failed operation, not a failed harness.
fn child_run(what: &str, args: &[&str], seconds: f64) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let mut child = Command::new(exe)
        .args(args)
        .stdout(Stdio::piped())
        .spawn()
        .map_err(|e| format!("spawn: {e}"))?;
    let mut stdout = child.stdout.take().ok_or("child has no stdout")?;
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        stdout.read_to_string(&mut text).map(|_| text)
    });
    // Three times what a healthy run takes: set-ups, warm-ups and at least
    // five repetitions of the longest workload come to 40 s, and the timed
    // repetitions go on until `seconds` have passed.
    let timeout = Duration::from_secs_f64((3.0 * (seconds + 40.0)).min(180.0));
    let started = Instant::now();
    let status = loop {
        match child.try_wait().map_err(|e| format!("wait: {e}"))? {
            Some(status) => break Some(status),
            None if started.elapsed() > timeout => {
                let _ = child.kill();
                let _ = child.wait();
                break None;
            }
            None => std::thread::sleep(Duration::from_millis(20)),
        }
    };
    let text = reader.join().map_err(|_| "reader panicked")?.map_err(|e| format!("read: {e}"))?;
    let (report, line) = match text.trim_end().rsplit_once('\n') {
        Some((report, line)) => (report, line),
        None => ("", text.trim_end()),
    };
    if !report.is_empty() {
        println!("{report}");
    }
    let parsed = status.filter(|s| s.success()).and_then(|_| Json::parse(line)).and_then(|j| {
        let count = |k| j.get(k).and_then(Json::as_f64).map(|v| v as u64);
        let Json::Obj(metrics) = j.get("metrics")? else { return None };
        let values = metrics
            .iter()
            .map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
            .collect::<Option<Vec<_>>>()?;
        Some(ChildResult { attempted: count("attempted")?, failed: count("failed")?, values })
    });
    Ok(parsed.unwrap_or_else(|| {
        println!(
            "  {what}: no result ({})",
            status.map_or("timed out".to_string(), |s| s.to_string())
        );
        ChildResult { attempted: 1, failed: 1, values: Vec::new() }
    }))
}

fn first_line(text: std::io::Result<String>) -> String {
    text.ok().and_then(|t| t.lines().next().map(str::to_string)).unwrap_or("unknown".into())
}

fn command_line(program: &str, args: &[&str]) -> String {
    first_line(
        Command::new(program)
            .args(args)
            .stderr(Stdio::null())
            .output()
            .and_then(|o| String::from_utf8(o.stdout).map_err(std::io::Error::other)),
    )
}

fn host_block(seed: u64) {
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|t| {
            let line = t.lines().find(|l| l.starts_with("model name"))?;
            Some(line.split_once(':')?.1.trim().to_string())
        })
        .unwrap_or("unknown".into());
    println!("host:");
    println!("  nproc   {nproc}");
    println!("  cpu     {cpu}");
    println!("  kernel  {}", first_line(std::fs::read_to_string("/proc/sys/kernel/osrelease")));
    println!("  rustc   {}", command_line("rustc", &["--version"]));
    println!("  commit  {}", command_line("git", &["rev-parse", "--short", "HEAD"]));
    println!("  seed    {seed}");
    if nproc < 2 {
        println!("  warning: fewer than 2 processors; the *_w2 and *_t2 workloads measure");
        println!("           time slicing, not parallel execution");
    }
}

/// Every workload (or `--only` one), each in its own child process, so that
/// set-up time and peak memory are per workload; then the probes, which no
/// workload changes, once.
fn every_workload(cli: &Cli, seed: u64, seconds: f64) -> Result<(), String> {
    host_block(seed);
    let d = decl();
    let names: Vec<&str> = d
        .workloads
        .iter()
        .map(|(w, _)| w.as_str())
        .filter(|w| cli.only.as_deref().is_none_or(|only| only == *w))
        .collect();
    let (seed_arg, seconds_arg) = (seed.to_string(), seconds.to_string());
    let run = |workload: &str, trace: &str| {
        let mut args = vec!["--workload", workload, "--seed", &seed_arg];
        args.extend(["--seconds", &seconds_arg, "--trace", trace, "--skip-probes"]);
        args.extend(cli.quick.then_some("--quick"));
        child_run(workload, &args, seconds)
    };

    let mut first = Vec::new();
    for w in &names {
        first.push((*w, run(w, "0")?));
        if !cli.selfcheck {
            run(w, "1")?;
        }
    }
    if !cli.selfcheck && cli.only.is_none() {
        let mut args = vec!["--probes-only", "--seed", &seed_arg];
        args.extend(cli.quick.then_some("--quick"));
        child_run("probes", &args, 0.0)?;
    }
    println!("summary (end-to-end, tracing off):");
    for (w, r) in &first {
        let values: Vec<String> = r.values.iter().map(|(k, v)| format!("{k}={v:.4}")).collect();
        println!(
            "  {w:<24} ops_attempted={} ops_failed={} {}",
            r.attempted,
            r.failed,
            values.join(" ")
        );
    }
    if cli.selfcheck {
        // The same code twice, the second time in the opposite order: the two
        // medians of every metric must agree within the metric's own bound.
        let mut second = Vec::new();
        for w in names.iter().rev() {
            second.push((*w, run(w, "0")?));
        }
        println!("selfcheck (first run, second run, difference as a share of the first, bound):");
        for (w, a) in &first {
            let b = &second.iter().find(|(name, _)| name == w).ok_or("second run is missing")?.1;
            for m in &d.end_to_end {
                let get =
                    |r: &ChildResult| r.values.iter().find(|(k, _)| *k == m.name).map(|(_, v)| *v);
                let bound = m.bound.unwrap_or(0.0);
                match (get(a), get(b)) {
                    (Some(x), Some(y)) => {
                        let diff = (y - x) / x;
                        let verdict = if diff.abs() <= bound { "agree" } else { "DISAGREE" };
                        println!(
                            "  {w:<24} {:<8} {x:>10.4} {y:>10.4} {diff:>+8.3} {bound:.2} {verdict}",
                            m.name
                        );
                    }
                    _ => println!("  {w:<24} {:<8} no result", m.name),
                }
            }
        }
    }
    Ok(())
}
