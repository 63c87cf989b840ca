//! Tier-1 guard for the clippy configuration that carries the
//! determinism contract.
//!
//! The contract's static rules are clippy's: the wall clock, hash
//! iteration order, unseeded entropy and panics on rank paths (R1–R4), and
//! OS-blocking calls, which on a coroutine stall every rank queued on the
//! worker thread (R8). A tier-1 run never invokes clippy, so
//! [`clippy_owns_the_token_rules`] reads the configuration that carries
//! them and fails if an entry is lost, and the two
//! `disallowed_*_is_waived_only_…` tests fail if a waiver appears in a file
//! where none was reviewed. That clippy really rejects a violation is
//! CI's job: its `lint` job seeds a few and requires each to fail.

#![expect(clippy::disallowed_methods, reason = "reads clippy.toml and walks the source tree")]

fn repo_root() -> std::path::PathBuf {
    // CARGO_MANIFEST_DIR of a workspace-root integration test is the
    // workspace root itself.
    std::path::PathBuf::from(env!("CARGO_MANIFEST_DIR"))
}

/// The non-comment lines of `text` (comments start with `marker`).
fn code_lines(text: &str, marker: &str) -> String {
    text.lines().filter(|l| !l.trim_start().starts_with(marker)).collect::<Vec<_>>().join("\n")
}

/// The text of the `key = [ … ]` array in `clippy.toml`.
fn toml_array<'a>(toml: &'a str, key: &str) -> &'a str {
    let start =
        toml.find(&format!("{key} = [")).unwrap_or_else(|| panic!("no {key} in clippy.toml"));
    let body = &toml[start..];
    &body[..body.find("\n]").unwrap_or_else(|| panic!("{key} array is not closed"))]
}

/// R8: calls that block the OS thread, which on a coroutine stalls every
/// rank queued on the same worker.
const BLOCKING_CALLS: [&str; 35] = [
    "std::thread::sleep",
    "std::thread::park",
    "std::thread::park_timeout",
    "std::thread::yield_now",
    "std::sync::Condvar::wait",
    "std::sync::Condvar::wait_while",
    "std::sync::Condvar::wait_timeout",
    "std::sync::Condvar::wait_timeout_while",
    "std::fs::canonicalize",
    "std::fs::copy",
    "std::fs::create_dir",
    "std::fs::create_dir_all",
    "std::fs::exists",
    "std::fs::hard_link",
    "std::fs::metadata",
    "std::fs::read",
    "std::fs::read_dir",
    "std::fs::read_link",
    "std::fs::read_to_string",
    "std::fs::remove_dir",
    "std::fs::remove_dir_all",
    "std::fs::remove_file",
    "std::fs::rename",
    "std::fs::set_permissions",
    "std::fs::soft_link",
    "std::fs::symlink_metadata",
    "std::fs::write",
    "std::fs::File::create",
    "std::fs::File::open",
    "std::fs::OpenOptions::open",
    "std::net::TcpStream::connect",
    "std::net::TcpListener::bind",
    "std::net::UdpSocket::bind",
    "std::io::stdin",
    "std::process::Command::new",
];

/// The std lock calls: every lock goes through `redcr_sched::sync`, whose
/// debug-build checks see only its own locks.
const STD_LOCKS: [&str; 4] = [
    "std::sync::Mutex::lock",
    "std::sync::Mutex::try_lock",
    "std::sync::RwLock::read",
    "std::sync::RwLock::write",
];

#[test]
fn clippy_owns_the_token_rules() {
    // clippy.toml carries R1–R3 as types: the wall clock, hash iteration
    // order and unseeded entropy.
    let toml = std::fs::read_to_string(repo_root().join("clippy.toml")).expect("clippy.toml");
    let toml = code_lines(&toml, "#");
    let types = toml_array(&toml, "disallowed-types");
    for ty in [
        "std::time::Instant",
        "std::time::SystemTime",
        "std::collections::HashMap",
        "std::collections::HashSet",
        "std::collections::hash_map::RandomState",
    ] {
        assert!(types.contains(&format!("path = \"{ty}\"")), "{ty} not in disallowed-types");
    }
    // R1 and R8, and the std locks that would bypass `redcr_sched::sync`'s
    // lock-discipline checks.
    let methods = toml_array(&toml, "disallowed-methods");
    for method in ["std::time::Instant::now", "std::time::SystemTime::now"]
        .into_iter()
        .chain(BLOCKING_CALLS)
        .chain(STD_LOCKS)
    {
        assert!(
            methods.contains(&format!("path = \"{method}\"")),
            "{method} not in disallowed-methods"
        );
    }
    for key in ["allow-unwrap-in-tests", "allow-expect-in-tests", "allow-panic-in-tests"] {
        assert!(
            toml.lines().any(|l| l.split_whitespace().collect::<String>() == format!("{key}=true")),
            "{key} = true missing from clippy.toml"
        );
    }
    // R4: the hot crates deny panics outside tests.
    for krate in ["simmpi", "sched", "redundancy"] {
        let lib = std::fs::read_to_string(repo_root().join(format!("crates/{krate}/src/lib.rs")))
            .expect("hot crate root");
        let lib = code_lines(&lib, "//");
        let start = lib.find("#![deny(").unwrap_or_else(|| panic!("no #![deny] in {krate}"));
        let end = start + lib[start..].find(")]").expect("closed #![deny]");
        let denied: Vec<&str> = lib[start + "#![deny(".len()..end]
            .split(',')
            .map(str::trim)
            .filter(|l| !l.is_empty())
            .collect();
        for lint in ["unwrap_used", "expect_used", "panic", "unreachable", "todo", "unimplemented"]
        {
            let lint = format!("clippy::{lint}");
            assert!(denied.contains(&lint.as_str()), "{krate} does not deny {lint}: {denied:?}");
        }
    }
}

/// Every `.rs` file under `dir`, skipping build output and hidden
/// directories.
fn rust_files(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    for entry in std::fs::read_dir(dir).expect("readable source directory") {
        let path = entry.expect("directory entry").path();
        let name = path.file_name().and_then(|n| n.to_str()).unwrap_or_default();
        if path.is_dir() {
            if name != "target" && !name.starts_with('.') {
                rust_files(&path, out);
            }
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
}

/// The repository-relative paths of the source files whose code (not
/// comments) names `lint`.
fn files_naming(lint: &str) -> Vec<String> {
    let root = repo_root();
    let mut files = Vec::new();
    for dir in ["crates", "src", "tests", "examples"] {
        rust_files(&root.join(dir), &mut files);
    }
    let mut naming: Vec<String> = files
        .iter()
        .filter(|path| {
            let text = std::fs::read_to_string(path).expect("readable source file");
            code_lines(&text, "//").contains(lint)
        })
        .map(|path| path.strip_prefix(&root).expect("under the root").display().to_string())
        .collect();
    naming.sort();
    naming
}

#[test]
fn disallowed_types_is_waived_only_by_the_wall_clock_crates() {
    // R2 has no exception in simulation code: only the two crates whose
    // job is to read the host clock (R1) may allow the lint, and they do
    // it at their crate root. The lint's name is assembled so that this
    // file does not name it.
    let lint = ["clippy", "disallowed_types"].join("::");
    assert_eq!(
        files_naming(&lint),
        ["crates/bench/src/bin/perf/main.rs", "crates/prof/src/lib.rs"]
    );
}

#[test]
fn disallowed_methods_is_waived_only_where_blocking_is_reviewed() {
    // Besides the two wall-clock crates, a blocking call is waived only
    // where no coroutine runs it (drivers, examples, tests) or where the
    // block is the point: `DiskStorage`'s checkpoint I/O, and the
    // scheduler's own lock wrapper and off-pool yield. A new file on this
    // list is a new place a rank could stall its worker thread; review it
    // before adding it here.
    let lint = ["clippy", "disallowed_methods"].join("::");
    assert_eq!(
        files_naming(&lint),
        [
            "crates/bench/src/bin/perf/main.rs",
            "crates/bench/src/output.rs",
            "crates/bench/tests/sweep_e2e.rs",
            "crates/checkpoint/src/storage.rs",
            "crates/prof/src/lib.rs",
            "crates/sched/src/pool.rs",
            "crates/sched/src/sync.rs",
            "crates/sweep/src/cache.rs",
            "crates/sweep/src/engine.rs",
            "examples/flight_recorder.rs",
            "examples/perfetto_export.rs",
            "tests/clippy_config.rs",
            "tests/full_stack.rs",
            "tests/json_codec.rs",
        ]
    );
}
