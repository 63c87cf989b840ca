// Tricky-lexing fixture: every R8 pattern below (a `run_batch` root that
// reaches `std::fs` or `std::thread::sleep`) lives inside string literals,
// raw strings, byte strings, char context, or (nested) comments — none may
// fire. The single REAL violation at the bottom proves the lexer
// resynchronized correctly after all of it.

/* Outer comment.
   /* Nested: pool.run_batch(|| { std::fs::write("a", b"b"); }); */
   Still the outer comment: pool.run_batch(|| std::thread::sleep(d));
*/

pub fn decoys() -> usize {
    let plain = "pool.run_batch(|| { std::fs::remove_file(\"x\"); })";
    let escaped = "say \"run_batch(|| std::fs::read(p))\" escaped \\";
    let raw = r#"raw: pool.run_batch(|| { std::thread::sleep(d); }); "x""#;
    let hashed = r##"r# inside: run_batch(|| std::net::TcpStream::connect(a)) "# still raw"##;
    let bytes = b"byte string: run_batch(|| { std::fs::write(p, b) })";
    let byte_char = b'"';
    let quote_char = '"';
    let lifetime: &'static str = "lifetime tick is not a char literal";
    // Line comment decoy: pool.run_batch(|| { std::fs::write(p, b); });
    let run_batch_like = plain.len(); // identifier merely *containing* names
    plain.len()
        + escaped.len()
        + raw.len()
        + hashed.len()
        + bytes.len()
        + usize::from(byte_char == quote_char as u8)
        + lifetime.len()
        + run_batch_like
}

pub fn real_violation(pool: &Pool) {
    pool.run_batch(|| {
        let _ = std::fs::write("x", b"y");
    });
}
