//! The one JSON codec under hostile and extreme input, through every
//! reader built on it: `redcr_json::parse`, `Trace::from_jsonl`, the
//! sweep-cache loader and the Perfetto validator return `Ok` or a typed
//! `Err` — they never panic, and a depth bomb is an error, not a stack
//! overflow that aborts the process. The committed `results/` files are
//! the compatibility half: everything there parses, and the committed
//! sweep cache loads line for line.

#![expect(
    clippy::disallowed_methods,
    reason = "the tests read the committed results/ files and write their own scratch caches"
)]

use std::path::{Path, PathBuf};

use proptest::prelude::*;

use redcr::sweep::cache::{parse_line, render_line, ResultCache, ScenarioResult};
use redcr::sweep::{Backend, ScenarioSpec, SpecPolicy, Workload};
use redcr::trace::{perfetto, Event, EventKind, Trace, TraceError};
use redcr_json::{parse, Error, Value, Writer, MAX_DEPTH};

/// Runs `text` through all four readers. Returning at all is the
/// property; what each returned is the caller's to inspect.
fn read_everywhere(
    tag: &str,
    text: &str,
) -> (Result<Value, Error>, Result<Trace, TraceError>, usize) {
    let _ = perfetto::validate(text);
    let dir = std::env::temp_dir().join(format!("redcr_json_codec_{tag}_{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("cache.jsonl");
    std::fs::write(&path, text).unwrap();
    let cache = ResultCache::open(&path).expect("a readable file opens, whatever is in it");
    let _ = std::fs::remove_dir_all(&dir);
    (parse(text), Trace::from_jsonl(text), cache.len())
}

fn trace_line() -> String {
    let kind = EventKind::AttemptEnd {
        attempt: 3,
        completed: false,
        rel_end: 1.5,
        rel_failure: f64::INFINITY,
        killer: Some(7),
    };
    Trace::from_events(vec![Event { time: 0.1, rank: None, kind }]).to_jsonl()
}

/// The spec of the first line of the committed Figures 9–14 cache.
fn committed_spec() -> ScenarioSpec {
    ScenarioSpec {
        backend: Backend::Model,
        n_virtual: 128,
        degree: 1.0,
        policy: SpecPolicy::Daly,
        node_mtbf_hours: 6.0,
        workload: Workload {
            base_time_hours: 46.0 / 60.0,
            alpha: 0.2,
            checkpoint_cost_hours: 120.0 / 3600.0,
            restart_cost_hours: 500.0 / 3600.0,
        },
        seeds: 32,
    }
}

fn cache_line() -> String {
    let spec = committed_spec();
    let result = ScenarioResult {
        total_time_hours: None,
        node_hours: Some(260_500.0),
        completion_rate: 1.0,
        mean_failures: 0.0625,
        mean_masked_failures: 1.5,
        mean_checkpoints: 12.0,
        mean_attempts: 12.75,
    };
    render_line(&spec, &result)
}

/// Fragments that steer random text into the grammar's corners.
#[rustfmt::skip]
const SOUP: [&str; 32] = [
    "{", "}", "[", "]", ":", ",", "\"", "\\", "\\u", "d83d", "de00", "00", "1", "0", "-", ".",
    "e", "E+", "null", "true", "false", " ", "\n", "\t", "\"t\"", "\"rank\"", "\"ev\"",
    "\"send\"", "\"hash\"", "\"result\"", "9999999999999999999999", "é",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(any::<u8>(), 0..96)) {
        let _ = read_everywhere("bytes", &String::from_utf8_lossy(&bytes));
    }

    #[test]
    fn grammar_soup_never_panics(picks in prop::collection::vec(0usize..SOUP.len(), 0..48)) {
        let text: String = picks.iter().map(|&i| SOUP[i]).collect();
        let _ = read_everywhere("soup", &text);
    }

    /// One byte of a valid line overwritten, dropped or doubled: the
    /// nearest hostile inputs to what the writers write.
    #[test]
    fn mutated_lines_never_panic(
        cache in any::<bool>(),
        at in any::<prop::sample::Index>(),
        byte in any::<u8>(),
        op in 0u8..3,
    ) {
        let mut bytes = if cache { cache_line() } else { trace_line() }.into_bytes();
        let at = at.index(bytes.len());
        match op {
            0 => bytes[at] = byte,
            1 => drop(bytes.remove(at)),
            _ => bytes.insert(at, byte),
        }
        let text = String::from_utf8_lossy(&bytes).into_owned();
        let (_, trace, served) = read_everywhere("mutated", &text);
        // Whatever survives is a whole line of the right shape.
        if let Ok(trace) = trace {
            prop_assert!(trace.len() <= 1);
        }
        prop_assert!(served <= 1);
    }

    /// `parse(write(s)) == s` for any string: controls, quotes,
    /// backslashes, non-ASCII and astral-plane characters.
    #[test]
    fn strings_round_trip(
        wide in prop::collection::vec(0u32..0x11_0000, 0..24),
        low in prop::collection::vec(0u32..0x80, 0..24),
    ) {
        // Interleave the two so escapes sit next to multi-byte characters.
        let s: String = wide
            .iter()
            .zip(low.iter().chain(std::iter::repeat(&0x22)))
            .flat_map(|(&w, &l)| [w, l])
            .filter_map(char::from_u32)
            .collect();
        for document in [false, true] {
            let mut out = String::new();
            if document {
                let mut w = Writer::document(&mut out, "unit/1");
                w.field(&s, &s);
                w.end_document();
            } else {
                Writer::compact(&mut out).begin_object().field(&s, &s).end_object();
            }
            let v = parse(&out).map_err(|e| TestCaseError::fail(format!("{e}: {out}")))?;
            prop_assert_eq!(v.req::<&str>(&s), Ok(s.as_str()));
        }
    }
}

#[test]
fn a_depth_bomb_is_the_depth_limit_error_in_every_reader() {
    for bomb in ["[".repeat(200_000), "{\"a\":".repeat(200_000), "[{\"ph\":".repeat(100_000)] {
        let (parsed, trace, served) = read_everywhere("bomb", &bomb);
        assert!(matches!(parsed, Err(Error::TooDeep { .. })), "{parsed:?}");
        let deep = format!("nesting deeper than {MAX_DEPTH}");
        assert!(perfetto::validate(&bomb).unwrap_err().contains(&deep));
        match trace {
            Err(TraceError::Parse { line: 1, what }) => assert!(what.contains(&deep), "{what}"),
            other => panic!("{other:?}"),
        }
        assert_eq!(served, 0);
    }
}

fn results_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("results")
}

#[test]
fn every_committed_results_json_parses() {
    let mut seen = 0;
    for entry in std::fs::read_dir(results_dir()).unwrap() {
        let path = entry.unwrap().path();
        let name = path.file_name().unwrap().to_str().unwrap().to_owned();
        // The merged Perfetto trace is tens of MB, host-specific and not
        // committed (.gitignore); a local copy is none of this test's
        // business.
        if !name.ends_with(".json") || name.ends_with(".perfetto.json") {
            continue;
        }
        let doc = parse(&std::fs::read_to_string(&path).unwrap())
            .unwrap_or_else(|e| panic!("{name}: {e}"));
        let schema = doc.req::<&str>("schema").unwrap_or_else(|e| panic!("{name}: {e}"));
        let version = schema.strip_prefix("redcr-").and_then(|s| s.rsplit_once('/'));
        assert!(version.is_some_and(|(_, v)| v.parse::<u32>().is_ok()), "{name}: {schema}");
        seen += 1;
    }
    assert!(seen >= 5, "validation ×3, profile, sweep grid — found {seen}");
}

/// The whole-line loader reads every line the substring scanner wrote,
/// and re-rendering what it read reproduces the bytes on disk.
#[test]
fn the_committed_sweep_cache_loads_line_for_line() {
    let path = results_dir().join("sweep_cache_fig9_14.jsonl");
    let text = std::fs::read_to_string(&path).unwrap();
    let cache = ResultCache::open(&path).unwrap();
    assert_eq!(cache.malformed_lines(), 0);
    let first = text.lines().next().unwrap();
    assert!(first.starts_with(&format!("{{\"hash\":\"{}\",", committed_spec().hash_hex())));
    let mut hashes = Vec::new();
    for line in text.lines() {
        let (hash, result) = parse_line(line).unwrap_or_else(|e| panic!("{e}: {line}"));
        let tail = format!("\"result\":{}}}", result.render_json());
        assert!(line.ends_with(&tail), "{line}\n  re-rendered: {tail}");
        assert_eq!(cache.get(hash), Some(&result));
        hashes.push(hash);
    }
    hashes.sort_unstable();
    hashes.dedup();
    assert!(hashes.len() > 200, "the Figures 9–14 grid: {} scenarios", hashes.len());
    assert_eq!(cache.len(), hashes.len());
}
