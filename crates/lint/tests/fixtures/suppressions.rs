// Suppression fixture: one well-formed trailing allow, one well-formed
// preceding-line allow, one malformed allow (no reason — suppresses
// nothing), and one stale allow on a clean line. All findings are R8.

fn suppressed_trailing() {
    let _ = std::fs::write("a", b"x"); // detlint::allow(R8, reason = "fixture: invariant documented elsewhere")
}

fn suppressed_preceding() {
    // detlint::allow(R8, reason = "fixture: covers the next line")
    let _ = std::fs::write("b", b"x");
}

fn malformed_allow() {
    let _ = std::fs::write("c", b"x"); // detlint::allow(R8)
}

fn stale_allow(v: u64) -> u64 {
    // detlint::allow(R8, reason = "fixture: nothing fires here, so this is stale")
    v + 1
}

// The coroutine root that makes the three writes reachable.
pub fn spawn(pool: &Pool) {
    pool.run_batch(|| {
        suppressed_trailing();
        suppressed_preceding();
        malformed_allow();
        stale_allow(1);
    });
}
