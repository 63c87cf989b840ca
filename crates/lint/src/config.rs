//! `detlint.toml` configuration: the domain → crate mapping and scan
//! exclusions, parsed with a minimal hand-rolled TOML-subset reader (the
//! linter is dependency-free by design).
//!
//! Supported syntax: `[section]` headers, `key = "string"`,
//! `key = ["a", "b"]`, and `key = <integer>` — with `#` comments. That is
//! the whole subset the config needs; anything else is a parse error.

use std::collections::BTreeMap;
use std::path::Path;

/// Whether detlint's rules apply to a file, derived from its crate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Domain {
    /// Library code: parsed into the lock graph (R5) and the call graph
    /// (R7–R9). Every crate not named in `detlint.toml` is checked.
    Checked,
    /// A crate that measures the host or is the linter itself (`bench`,
    /// `prof`, `lint`): not parsed, so no rule sees it.
    Exempt,
    /// Test / example / fixture code: exempt (the determinism contract
    /// binds the library, not the harness poking it).
    Test,
}

impl Domain {
    /// Parses the domain name used in `detlint.toml`.
    pub fn parse(s: &str) -> Option<Domain> {
        match s {
            "checked" => Some(Domain::Checked),
            "exempt" => Some(Domain::Exempt),
            "test" => Some(Domain::Test),
            _ => None,
        }
    }

    /// Name as written in config / reports.
    pub fn name(self) -> &'static str {
        match self {
            Domain::Checked => "checked",
            Domain::Exempt => "exempt",
            Domain::Test => "test",
        }
    }
}

/// Parsed `detlint.toml`.
#[derive(Debug, Clone)]
pub struct Config {
    /// Crate directory name (or `root` for the top-level `src/`) → domain.
    pub crate_domains: BTreeMap<String, Domain>,
    /// Directory names excluded from the scan entirely.
    pub exclude: Vec<String>,
    /// R9 budget in KiB: the per-coroutine-root static stack bound the
    /// workspace certifies. Tied to the runtime default `REDCR_STACK_KB`.
    pub stack_budget_kb: u64,
}

impl Default for Config {
    fn default() -> Self {
        Config {
            crate_domains: BTreeMap::new(),
            exclude: vec!["vendor".into(), "target".into(), ".git".into()],
            stack_budget_kb: 128,
        }
    }
}

impl Config {
    /// Parses config text.
    ///
    /// # Errors
    ///
    /// Returns a message naming the offending line for anything outside
    /// the supported TOML subset or an unknown domain name.
    pub fn parse(text: &str) -> Result<Config, String> {
        let mut cfg = Config::default();
        let mut section = String::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = strip_comment(raw).trim();
            if line.is_empty() {
                continue;
            }
            if let Some(rest) = line.strip_prefix('[') {
                let name = rest
                    .strip_suffix(']')
                    .ok_or_else(|| format!("line {}: unterminated section header", lineno + 1))?;
                section = name.trim().to_string();
                continue;
            }
            let (key, value) = line
                .split_once('=')
                .ok_or_else(|| format!("line {}: expected `key = value`", lineno + 1))?;
            let key = key.trim();
            let value = value.trim();
            match section.as_str() {
                "domains" => {
                    let dom = parse_string(value)
                        .ok_or_else(|| format!("line {}: expected a quoted domain", lineno + 1))?;
                    let dom = Domain::parse(&dom)
                        .ok_or_else(|| format!("line {}: unknown domain `{dom}`", lineno + 1))?;
                    cfg.crate_domains.insert(key.to_string(), dom);
                }
                "scan" if key == "exclude" => {
                    cfg.exclude = parse_string_array(value).ok_or_else(|| {
                        format!("line {}: expected an array of strings", lineno + 1)
                    })?;
                }
                "stack_budget" if key == "budget_kb" => {
                    cfg.stack_budget_kb = value.parse::<u64>().map_err(|_| {
                        format!("line {}: expected an integer KiB budget", lineno + 1)
                    })?;
                }
                other => {
                    return Err(format!("line {}: unknown section/key `{other}.{key}`", lineno + 1))
                }
            }
        }
        Ok(cfg)
    }

    /// Loads and parses `path`.
    ///
    /// # Errors
    ///
    /// I/O and parse errors as a message.
    pub fn load(path: &Path) -> Result<Config, String> {
        let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
        Self::parse(&text)
    }

    /// Maps a workspace-relative path to its domain.
    ///
    /// Any path containing a `tests`, `benches`, `examples`, or `fixtures`
    /// component is test-domain regardless of crate; `crates/<name>/src`
    /// resolves through the config; the top-level `src/` is the `root`
    /// entry. Unlisted crates are checked — the conservative choice.
    pub fn domain_for(&self, rel: &Path) -> Domain {
        let comps: Vec<&str> = rel.iter().filter_map(|c| c.to_str()).collect();
        if comps.iter().any(|c| matches!(*c, "tests" | "benches" | "examples" | "fixtures")) {
            return Domain::Test;
        }
        let crate_key = match comps.as_slice() {
            ["crates", name, ..] => *name,
            ["src", ..] => "root",
            _ => return Domain::Test,
        };
        self.crate_domains.get(crate_key).copied().unwrap_or(Domain::Checked)
    }
}

fn strip_comment(line: &str) -> &str {
    // Good enough for this config: `#` never appears inside our strings.
    match line.find('#') {
        Some(i) => &line[..i],
        None => line,
    }
}

fn parse_string(value: &str) -> Option<String> {
    let v = value.trim();
    let v = v.strip_prefix('"')?.strip_suffix('"')?;
    Some(v.to_string())
}

fn parse_string_array(value: &str) -> Option<Vec<String>> {
    let v = value.trim().strip_prefix('[')?.strip_suffix(']')?;
    let mut out = Vec::new();
    for item in v.split(',') {
        let item = item.trim();
        if item.is_empty() {
            continue;
        }
        out.push(parse_string(item)?);
    }
    Some(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    const SAMPLE: &str = r#"
# comment
[domains]
simmpi = "checked"
bench = "exempt"
root = "test"

[scan]
exclude = ["vendor", "target"]

[stack_budget]
budget_kb = 96
"#;

    #[test]
    fn parses_sample() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.crate_domains["simmpi"], Domain::Checked);
        assert_eq!(cfg.crate_domains["bench"], Domain::Exempt);
        assert_eq!(cfg.exclude, vec!["vendor", "target"]);
        assert_eq!(cfg.stack_budget_kb, 96);
    }

    #[test]
    fn stack_budget_defaults_and_rejects_non_integer() {
        assert_eq!(Config::parse("").unwrap().stack_budget_kb, 128);
        assert!(Config::parse("[stack_budget]\nbudget_kb = \"lots\"\n").is_err());
    }

    #[test]
    fn domain_resolution() {
        let cfg = Config::parse(SAMPLE).unwrap();
        assert_eq!(cfg.domain_for(&PathBuf::from("crates/simmpi/src/comm.rs")), Domain::Checked);
        assert_eq!(cfg.domain_for(&PathBuf::from("crates/simmpi/tests/runtime.rs")), Domain::Test);
        assert_eq!(cfg.domain_for(&PathBuf::from("crates/bench/src/runtime.rs")), Domain::Exempt);
        // Unlisted crates are checked; `root` names the top-level src/.
        assert_eq!(cfg.domain_for(&PathBuf::from("crates/newcrate/src/lib.rs")), Domain::Checked);
        assert_eq!(cfg.domain_for(&PathBuf::from("src/lib.rs")), Domain::Test);
        assert_eq!(cfg.domain_for(&PathBuf::from("tests/full_stack.rs")), Domain::Test);
    }

    #[test]
    fn rejects_unknown_domain() {
        assert!(Config::parse("[domains]\nx = \"warp\"\n").is_err());
        // `hot`, `virtual`, `wallclock` and `tooling` are not domains.
        assert!(Config::parse("[domains]\nx = \"hot\"\n").is_err());
        assert!(Config::parse("[mystery]\nx = 1\n").is_err());
    }
}
