//! Persistent JSONL result cache keyed by scenario hash.
//!
//! One line per scenario: `{"hash":"<16 hex>","spec":{…},"result":{…}}`.
//! Warm lookups serve results without touching a backend; cold misses are
//! appended after the batch completes, in deterministic submission order.
//! The `spec` object is stored for auditability (a cache line is
//! self-describing); lookups go through the hash alone.
//!
//! The file format is append-only and tolerant: the loader parses each
//! line whole, and a line that is not one complete object with a 16-hex
//! `hash` and a well-formed `result` — a torn write, say — is counted and
//! skipped, never served. A later line for the same hash wins (re-appends
//! after a version bump of the encoding simply shadow).

use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};

use redcr_json::{Error, Value, Writer};

use crate::spec::ScenarioSpec;

/// The outcome of one scenario, as cached and as returned by the engine.
///
/// Count means are **fractional** (expected values), never rounded: a rare
/// event with true mean 0.2 must report 0.2, not 0.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ScenarioResult {
    /// Expected wallclock, hours; `None` when the scenario diverges
    /// (model Eq. 14 blow-up, or no simulated run completed).
    pub total_time_hours: Option<f64>,
    /// Expected resource usage `N_physical × T_total`, node-hours;
    /// `None` when divergent.
    pub node_hours: Option<f64>,
    /// Fraction of runs that completed (model: 1.0 or 0.0).
    pub completion_rate: f64,
    /// Mean unmasked failures per run.
    pub mean_failures: f64,
    /// Mean masked (redundancy-absorbed) process deaths per run.
    pub mean_masked_failures: f64,
    /// Mean checkpoints committed per run.
    pub mean_checkpoints: f64,
    /// Mean attempts per run (1 = failure-free).
    pub mean_attempts: f64,
}

impl ScenarioResult {
    /// Canonical JSON object: fixed key order, shortest round-trip float
    /// formatting, `null` for divergent wallclock/resources.
    pub fn render_json(&self) -> String {
        let mut out = String::with_capacity(192);
        self.write_json(&mut Writer::compact(&mut out));
        out
    }

    /// Writes [`render_json`](Self::render_json)'s object as `w`'s next
    /// value.
    pub fn write_json(&self, w: &mut Writer<'_>) {
        w.begin_object()
            .field("total_time_hours", self.total_time_hours)
            .field("node_hours", self.node_hours)
            .field("completion_rate", self.completion_rate)
            .field("mean_failures", self.mean_failures)
            .field("mean_masked_failures", self.mean_masked_failures)
            .field("mean_checkpoints", self.mean_checkpoints)
            .field("mean_attempts", self.mean_attempts)
            .end_object();
    }

    /// Reads back what [`write_json`](Self::write_json) wrote.
    fn from_json(v: &Value) -> Result<Self, Error> {
        Ok(ScenarioResult {
            total_time_hours: v.req("total_time_hours")?,
            node_hours: v.req("node_hours")?,
            completion_rate: v.req("completion_rate")?,
            mean_failures: v.req("mean_failures")?,
            mean_masked_failures: v.req("mean_masked_failures")?,
            mean_checkpoints: v.req("mean_checkpoints")?,
            mean_attempts: v.req("mean_attempts")?,
        })
    }
}

/// Renders one full cache line (no trailing newline).
pub fn render_line(spec: &ScenarioSpec, result: &ScenarioResult) -> String {
    let mut out = String::with_capacity(512);
    let mut w = Writer::compact(&mut out);
    w.begin_object().field("hash", spec.hash_hex()).key("spec");
    spec.write_json(&mut w);
    w.key("result");
    result.write_json(&mut w);
    w.end_object();
    out
}

/// Parses a whole cache line and reads its `"hash"` and `"result"`
/// members.
///
/// # Errors
///
/// The line is not one complete JSON object, its `hash` is not 16 hex
/// digits, or its `result` lacks a member or has one of the wrong type.
pub fn parse_line(line: &str) -> Result<(u64, ScenarioResult), Error> {
    let v = redcr_json::parse(line)?;
    let hash = Some(v.req::<&str>("hash")?)
        .filter(|h| h.len() == 16 && h.bytes().all(|b| b.is_ascii_hexdigit()))
        .and_then(|h| u64::from_str_radix(h, 16).ok())
        .ok_or(Error::Mismatch { key: "hash".into(), expected: "16 hex digits" })?;
    Ok((hash, ScenarioResult::from_json(v.req("result")?)?))
}

/// The persistent scenario-result store.
#[derive(Debug)]
pub struct ResultCache {
    path: Option<PathBuf>,
    entries: BTreeMap<u64, ScenarioResult>,
    malformed: usize,
}

impl ResultCache {
    /// An ephemeral cache that never touches disk (tests, one-shot runs).
    pub fn in_memory() -> Self {
        Self { path: None, entries: BTreeMap::new(), malformed: 0 }
    }

    /// Opens (or lazily creates) the JSONL cache at `path`, loading every
    /// parsable line. A missing file is an empty cache, not an error.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors other than "not found".
    #[expect(
        clippy::disallowed_methods,
        reason = "the cache file is read and appended by the sweep driver thread, between batches; no rank runs on it"
    )]
    pub fn open(path: impl AsRef<Path>) -> io::Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut entries = BTreeMap::new();
        let mut malformed = 0usize;
        match std::fs::read_to_string(&path) {
            Ok(text) => {
                for line in text.lines() {
                    if line.trim().is_empty() {
                        continue;
                    }
                    match parse_line(line) {
                        Ok((hash, result)) => {
                            entries.insert(hash, result);
                        }
                        Err(_) => malformed += 1,
                    }
                }
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => {}
            Err(e) => return Err(e),
        }
        Ok(Self { path: Some(path), entries, malformed })
    }

    /// Number of cached scenarios.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Lines that failed to parse when the cache was opened.
    pub fn malformed_lines(&self) -> usize {
        self.malformed
    }

    /// Looks up a scenario hash.
    pub fn get(&self, hash: u64) -> Option<&ScenarioResult> {
        self.entries.get(&hash)
    }

    /// Inserts `batch` and appends the new lines to the backing file in
    /// the given (deterministic) order. A file that does not end in a
    /// newline — a torn last line — gets one first, so the torn fragment
    /// stays one malformed line instead of swallowing the first new one.
    ///
    /// # Errors
    ///
    /// Propagates I/O errors; the in-memory view is updated regardless, so
    /// a failed append degrades to a warm-for-this-process cache.
    #[expect(
        clippy::disallowed_methods,
        reason = "the cache file is read and appended by the sweep driver thread, between batches; no rank runs on it"
    )]
    pub fn append_batch(&mut self, batch: &[(ScenarioSpec, ScenarioResult)]) -> io::Result<()> {
        let mut text = String::new();
        for (spec, result) in batch {
            text.push_str(&render_line(spec, result));
            text.push('\n');
            self.entries.insert(spec.hash(), *result);
        }
        if let Some(path) = &self.path {
            if let Some(dir) = path.parent() {
                if !dir.as_os_str().is_empty() {
                    std::fs::create_dir_all(dir)?;
                }
            }
            use std::io::{Read as _, Seek as _, Write as _};
            let mut file =
                std::fs::OpenOptions::new().create(true).read(true).append(true).open(path)?;
            if !text.is_empty() && file.metadata()?.len() > 0 {
                let mut last = [0u8];
                file.seek(io::SeekFrom::End(-1))?;
                file.read_exact(&mut last)?;
                if last != *b"\n" {
                    text.insert(0, '\n');
                }
            }
            file.write_all(text.as_bytes())?;
        }
        Ok(())
    }
}

#[cfg(test)]
#[expect(
    clippy::disallowed_methods,
    reason = "the tests write, read and remove their own cache files"
)]
mod tests {
    use super::*;
    use crate::spec::{Backend, SpecPolicy, Workload};

    fn spec() -> ScenarioSpec {
        ScenarioSpec {
            backend: Backend::Model,
            n_virtual: 1000,
            degree: 2.0,
            policy: SpecPolicy::Daly,
            node_mtbf_hours: 43_800.0,
            workload: Workload {
                base_time_hours: 128.0,
                alpha: 0.24,
                checkpoint_cost_hours: 1.0 / 6.0,
                restart_cost_hours: 0.5,
            },
            seeds: 0,
        }
    }

    fn result() -> ScenarioResult {
        ScenarioResult {
            total_time_hours: Some(130.25),
            node_hours: Some(260_500.0),
            completion_rate: 1.0,
            mean_failures: 0.0625,
            mean_masked_failures: 1.5,
            mean_checkpoints: 12.0,
            mean_attempts: 1.0625,
        }
    }

    #[test]
    fn line_round_trips() {
        let line = render_line(&spec(), &result());
        let (hash, parsed) = parse_line(&line).expect("parses");
        assert_eq!(hash, spec().hash());
        assert_eq!(parsed, result());
    }

    #[test]
    fn divergent_round_trips_as_null() {
        let r = ScenarioResult {
            total_time_hours: None,
            node_hours: None,
            completion_rate: 0.0,
            mean_failures: 0.0,
            mean_masked_failures: 0.0,
            mean_checkpoints: 0.0,
            mean_attempts: 0.0,
        };
        let line = render_line(&spec(), &r);
        assert!(line.contains("\"total_time_hours\":null"));
        let (_, parsed) = parse_line(&line).expect("parses");
        assert_eq!(parsed, r);
    }

    #[test]
    fn rendering_is_byte_stable_through_a_parse_cycle() {
        // Warm runs re-render parsed results; Display → parse → Display
        // must be the identity for the output to stay byte-identical.
        let line = render_line(&spec(), &result());
        let (_, parsed) = parse_line(&line).expect("parses");
        assert_eq!(render_line(&spec(), &parsed), line);
    }

    #[test]
    fn persistent_cache_round_trips() {
        let dir =
            std::env::temp_dir().join(format!("redcr_sweep_cache_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let path = dir.join("cache.jsonl");

        let mut cache = ResultCache::open(&path).expect("open missing file");
        assert!(cache.is_empty());
        cache.append_batch(&[(spec(), result())]).expect("append");

        let reopened = ResultCache::open(&path).expect("reopen");
        assert_eq!(reopened.len(), 1);
        assert_eq!(reopened.malformed_lines(), 0);
        assert_eq!(reopened.get(spec().hash()), Some(&result()));
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Writes `text` as a cache file and opens it.
    fn open_text(tag: &str, text: &str) -> ResultCache {
        let dir =
            std::env::temp_dir().join(format!("redcr_sweep_cache_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        std::fs::write(&path, text).unwrap();
        let cache = ResultCache::open(&path).expect("open");
        let _ = std::fs::remove_dir_all(&dir);
        cache
    }

    /// A crash that tears the last line leaves no newline after it. The
    /// next append must start a line of its own, or its first result is
    /// glued onto the fragment and lost with it.
    #[test]
    fn an_append_after_a_torn_line_is_served() {
        let dir =
            std::env::temp_dir().join(format!("redcr_sweep_cache_append_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("cache.jsonl");
        let line = render_line(&spec(), &result());
        std::fs::write(&path, &line[..line.len() / 2]).unwrap();

        let mut cache = ResultCache::open(&path).expect("open");
        assert_eq!((cache.len(), cache.malformed_lines()), (0, 1));
        cache.append_batch(&[(spec(), result())]).expect("append");

        let reopened = ResultCache::open(&path).expect("reopen");
        assert_eq!(reopened.get(spec().hash()), Some(&result()));
        assert_eq!(reopened.malformed_lines(), 1);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn malformed_lines_are_skipped_not_served() {
        let good = render_line(&spec(), &result());
        let cache = open_text("malformed", &format!("not json\n{good}\n{{\"hash\":\"zz\"}}\n"));
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.malformed_lines(), 2);
    }

    /// A write torn anywhere leaves a proper prefix of a line. The old
    /// substring scanner served one cut 2–5 bytes short of the end with
    /// `mean_attempts` 12.7, 12, 12 and 1.
    #[test]
    fn every_proper_prefix_of_a_line_is_rejected() {
        let line = render_line(&spec(), &ScenarioResult { mean_attempts: 12.75, ..result() });
        assert!(line.ends_with("\"mean_attempts\":12.75}}"));
        let torn: String = (1..line.len()).map(|cut| format!("{}\n", &line[..cut])).collect();
        let cache = open_text("torn", &torn);
        assert_eq!(cache.len(), 0, "a torn line was served");
        assert_eq!(cache.malformed_lines(), line.len() - 1);
    }

    /// `hash` and `result` are the line's own top-level members: text
    /// inside a string value, or a member nested elsewhere, is not them.
    #[test]
    fn members_are_found_by_structure_not_by_substring() {
        let real = render_line(&spec(), &result());
        let decoy = "\"hash\":\"0000000000000000\",\"result\":{\"mean_attempts\":9}";
        let mut noted = String::new();
        Writer::compact(&mut noted).begin_object().field("note", decoy).end_object();
        // {"note":"…decoy…","hash":"<real>",…}
        let line = format!("{},{}", &noted[..noted.len() - 1], &real[1..]);
        assert_eq!(parse_line(&line), Ok((spec().hash(), result())));
        // The decoy as a nested member, and nothing at the top level.
        assert!(parse_line(&format!("{{\"spec\":{{{decoy}}}}}")).is_err());
        for bad_hash in ["+00000000000000f", "0000000000000000f", "000000000000000g"] {
            let line = real.replacen(&spec().hash_hex(), bad_hash, 1);
            assert!(parse_line(&line).is_err(), "{bad_hash}");
        }
    }

    /// The first line of the committed Figures 9–14 cache: its spec hashes
    /// to the key stored there and renders into that line, byte for byte.
    #[test]
    fn rendering_matches_the_golden_bytes() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../results/sweep_cache_fig9_14.jsonl");
        let text = std::fs::read_to_string(path).unwrap();
        let line = text.lines().next().unwrap();
        let spec = ScenarioSpec {
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
        };
        let key = line.strip_prefix("{\"hash\":\"").unwrap().get(..16).unwrap();
        assert_eq!(spec.hash_hex(), key);
        let (_, committed) = parse_line(line).unwrap();
        assert_eq!(render_line(&spec, &committed), line);
        let result = ScenarioResult {
            total_time_hours: Some(130.25),
            node_hours: Some(1.0e21),
            completion_rate: 0.96875,
            mean_failures: 0.0625,
            mean_masked_failures: 1.0 / 3.0,
            mean_checkpoints: 12.0,
            mean_attempts: 12.75,
        };
        let golden_result = "{\"total_time_hours\":130.25,\"node_hours\":1000000000000000000000,\
             \"completion_rate\":0.96875,\"mean_failures\":0.0625,\
             \"mean_masked_failures\":0.3333333333333333,\"mean_checkpoints\":12,\
             \"mean_attempts\":12.75}";
        assert_eq!(result.render_json(), golden_result);
        assert_eq!(
            render_line(&spec, &result),
            format!(
                "{{\"hash\":\"{key}\",\"spec\":{},\"result\":{golden_result}}}",
                spec.render_json()
            )
        );
        let divergent = ScenarioResult {
            total_time_hours: None,
            node_hours: Some(f64::INFINITY),
            completion_rate: 0.0,
            mean_failures: 1e-7,
            ..result
        };
        assert_eq!(
            divergent.render_json(),
            "{\"total_time_hours\":null,\"node_hours\":null,\"completion_rate\":0,\
             \"mean_failures\":0.0000001,\"mean_masked_failures\":0.3333333333333333,\
             \"mean_checkpoints\":12,\"mean_attempts\":12.75}"
        );
    }

    #[test]
    fn in_memory_cache_never_persists() {
        let mut cache = ResultCache::in_memory();
        cache.append_batch(&[(spec(), result())]).expect("append");
        assert_eq!(cache.get(spec().hash()), Some(&result()));
    }
}
