//! Sample statistics, `/proc` readers and the benchmark's own span log.

use std::fmt::Write as _;
use std::time::Instant;

/// Median and quartiles of a sample, by the same rule as Python's
/// `statistics.quantiles(values, n=4)` (exclusive method), which is what the
/// driver applies to the values this benchmark reports.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quartiles {
    pub q1: f64,
    pub median: f64,
    pub q3: f64,
    pub n: usize,
}

impl Quartiles {
    pub fn of(values: &[f64]) -> Quartiles {
        assert!(!values.is_empty(), "quartiles of an empty sample");
        let mut v = values.to_vec();
        v.sort_by(f64::total_cmp);
        let n = v.len();
        if n == 1 {
            return Quartiles { q1: v[0], median: v[0], q3: v[0], n };
        }
        let at = |k: usize| {
            // Position k·(n+1)/4 on a 1-based axis, clamped to the sample.
            let pos = (k * (n + 1)) as f64 / 4.0;
            let j = (pos.floor() as usize).clamp(1, n - 1);
            let frac = pos - j as f64;
            v[j - 1] + (v[j] - v[j - 1]) * frac
        };
        Quartiles { q1: at(1), median: at(2), q3: at(3), n }
    }
}

/// Process CPU seconds (user + system, all threads) from the text of
/// `/proc/self/stat`. The command name may contain spaces and parentheses,
/// so fields are counted from the last `)`.
pub fn parse_stat_cpu_s(stat: &str, ticks_per_s: f64) -> Option<f64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let mut fields = rest.split_ascii_whitespace();
    // After the command: state is field 3, utime 14, stime 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / ticks_per_s)
}

/// A `Name:   <number> [kB]` line of `/proc/self/status`.
pub fn parse_status_field(status: &str, name: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(name)?.strip_prefix(':')?;
        rest.split_ascii_whitespace().next()?.parse().ok()
    })
}

/// `USER_HZ`: fixed at 100 on every Linux ABI this runs on; `sysconf` is not
/// reachable without a foreign call.
const TICKS_PER_S: f64 = 100.0;

/// CPU seconds this process has used so far; 0 where `/proc` is missing.
pub fn cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat_cpu_s(&s, TICKS_PER_S))
        .unwrap_or(0.0)
}

fn status_field(name: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| parse_status_field(&s, name))
        .unwrap_or(0) as f64
}

pub fn peak_rss_mb() -> f64 {
    status_field("VmHWM") / 1024.0
}

pub fn invol_ctx_switches() -> f64 {
    status_field("nonvoluntary_ctxt_switches")
}

/// A JSON string literal.
pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// A parsed JSON value: enough to read `BENCHMARK.json` and a child's result
/// line.
#[derive(Debug, Clone, PartialEq)]
pub enum Json {
    Null,
    Bool(bool),
    Num(f64),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    pub fn parse(text: &str) -> Option<Json> {
        let mut p = Parser { s: text.as_bytes(), i: 0 };
        let v = p.value()?;
        p.ws();
        (p.i == p.s.len()).then_some(v)
    }

    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Obj(fields) => fields.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Num(n) => Some(*n),
            _ => None,
        }
    }

    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::Str(s) => Some(s),
            _ => None,
        }
    }

    pub fn as_arr(&self) -> Option<&[Json]> {
        match self {
            Json::Arr(a) => Some(a),
            _ => None,
        }
    }
}

struct Parser<'a> {
    s: &'a [u8],
    i: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.i).is_some_and(u8::is_ascii_whitespace) {
            self.i += 1;
        }
    }

    fn eat(&mut self, lit: &str) -> Option<()> {
        self.s[self.i..].starts_with(lit.as_bytes()).then(|| self.i += lit.len())
    }

    fn value(&mut self) -> Option<Json> {
        self.ws();
        match *self.s.get(self.i)? {
            b'n' => self.eat("null").map(|()| Json::Null),
            b't' => self.eat("true").map(|()| Json::Bool(true)),
            b'f' => self.eat("false").map(|()| Json::Bool(false)),
            b'"' => self.string().map(Json::Str),
            b'[' => {
                self.i += 1;
                let mut items = Vec::new();
                loop {
                    self.ws();
                    if self.eat("]").is_some() {
                        return Some(Json::Arr(items));
                    }
                    if !items.is_empty() {
                        self.eat(",")?;
                    }
                    items.push(self.value()?);
                }
            }
            b'{' => {
                self.i += 1;
                let mut fields = Vec::new();
                loop {
                    self.ws();
                    if self.eat("}").is_some() {
                        return Some(Json::Obj(fields));
                    }
                    if !fields.is_empty() {
                        self.eat(",")?;
                        self.ws();
                    }
                    let key = self.string()?;
                    self.ws();
                    self.eat(":")?;
                    fields.push((key, self.value()?));
                }
            }
            _ => {
                let start = self.i;
                while self.s.get(self.i).is_some_and(|c| b"+-.eE0123456789".contains(c)) {
                    self.i += 1;
                }
                std::str::from_utf8(&self.s[start..self.i]).ok()?.parse().ok().map(Json::Num)
            }
        }
    }

    fn string(&mut self) -> Option<String> {
        self.eat("\"")?;
        let mut out = Vec::new();
        loop {
            let c = *self.s.get(self.i)?;
            self.i += 1;
            match c {
                b'"' => return String::from_utf8(out).ok(),
                b'\\' => {
                    let e = *self.s.get(self.i)?;
                    self.i += 1;
                    let ch = match e {
                        b'n' => '\n',
                        b'r' => '\r',
                        b't' => '\t',
                        b'b' => '\u{8}',
                        b'f' => '\u{c}',
                        b'u' => {
                            let hex = std::str::from_utf8(self.s.get(self.i..self.i + 4)?).ok()?;
                            self.i += 4;
                            char::from_u32(u32::from_str_radix(hex, 16).ok()?)?
                        }
                        other => other as char,
                    };
                    out.extend_from_slice(ch.encode_utf8(&mut [0; 4]).as_bytes());
                }
                c => out.push(c),
            }
        }
    }
}

/// One span of the benchmark's own trace: a rep, a probe or a set-up step.
#[derive(Debug, Clone)]
pub struct Span {
    pub id: usize,
    pub parent: Option<usize>,
    pub layer: &'static str,
    pub name: String,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// The benchmark's spans, kept in memory and written out once at exit.
#[derive(Debug)]
pub struct Spans {
    workload: String,
    origin: Instant,
    open: Vec<usize>,
    done: Vec<Span>,
}

impl Spans {
    pub fn new(workload: &str) -> Spans {
        Spans {
            workload: workload.to_string(),
            origin: Instant::now(),
            open: Vec::new(),
            done: Vec::new(),
        }
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Runs `f` inside a span and returns its result with the span's
    /// duration in seconds. Spans opened by `f` become children.
    pub fn time<T>(
        &mut self,
        layer: &'static str,
        name: &str,
        f: impl FnOnce(&mut Spans) -> T,
    ) -> (T, f64) {
        let id = self.done.len();
        let start_ns = self.now_ns();
        self.done.push(Span {
            id,
            parent: self.open.last().copied(),
            layer,
            name: name.to_string(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(id);
        let out = f(self);
        self.open.pop();
        let end_ns = self.now_ns();
        self.done[id].end_ns = end_ns;
        (out, (end_ns - start_ns) as f64 * 1e-9)
    }

    /// A span's duration minus the part its direct children cover.
    pub fn self_ns(&self, id: usize) -> u64 {
        let s = &self.done[id];
        let children: u64 =
            self.done.iter().filter(|c| c.parent == Some(id)).map(|c| c.end_ns - c.start_ns).sum();
        (s.end_ns - s.start_ns).saturating_sub(children)
    }

    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        for s in &self.done {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {parent}, \"workload\": {}, \"layer\": {}, \
                 \"name\": {}, \"start_ns\": {}, \"end_ns\": {}, \"self_ns\": {}}}",
                s.id,
                json_str(&self.workload),
                json_str(s.layer),
                json_str(&s.name),
                s.start_ns,
                s.end_ns,
                self.self_ns(s.id),
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        let q = Quartiles::of(&v);
        assert_eq!((q.q1, q.median, q.q3, q.n), (2.75, 5.5, 8.25, 10));
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        let q = Quartiles::of(&[3.0, 1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.0, 2.0, 3.0));
        // statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
        let q = Quartiles::of(&[16.0, 1.0, 8.0, 2.0, 4.0]);
        assert_eq!((q.q1, q.median, q.q3), (1.5, 4.0, 12.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        let q = Quartiles::of(&[1.0, 2.0]);
        assert_eq!((q.q1, q.median, q.q3), (0.75, 1.5, 2.25));
        assert_eq!(Quartiles::of(&[7.0]).median, 7.0);
    }

    #[test]
    fn stat_cpu_survives_a_hostile_command_name() {
        let stat = "4242 (perf) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 \
                    250 50 0 0 20 0 3 0 1000 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_s(stat, 100.0), Some(3.0));
        assert_eq!(parse_stat_cpu_s("no paren", 100.0), None);
        assert_eq!(parse_stat_cpu_s("1 (x) S 1 2", 100.0), None);
    }

    #[test]
    fn status_fields_parse() {
        let status = "Name:\tperf\nVmPeak:\t  999 kB\nVmHWM:\t   81234 kB\n\
                      voluntary_ctxt_switches:\t12\nnonvoluntary_ctxt_switches:\t7\n";
        assert_eq!(parse_status_field(status, "VmHWM"), Some(81234));
        assert_eq!(parse_status_field(status, "nonvoluntary_ctxt_switches"), Some(7));
        assert_eq!(parse_status_field(status, "VmRSS"), None);
    }

    #[test]
    fn json_strings_escape_and_round_trip() {
        let raw = "a\"b\\c\nd\te\u{1}é";
        let lit = json_str(raw);
        assert_eq!(lit, "\"a\\\"b\\\\c\\nd\\te\\u0001é\"");
        assert_eq!(Json::parse(&lit), Some(Json::Str(raw.to_string())));
    }

    #[test]
    fn json_parses_the_result_line_shape() {
        let line = r#"{"correct": true, "attempted": 12, "failed": 0,
            "metrics": {"wall_s": {"value": 1.25e-1, "unit": "s"}}, "x": [1, null, false]}"#;
        let j = Json::parse(line).expect("parses");
        assert_eq!(j.get("correct"), Some(&Json::Bool(true)));
        assert_eq!(j.get("attempted").and_then(Json::as_f64), Some(12.0));
        let wall = j.get("metrics").and_then(|m| m.get("wall_s")).expect("wall_s");
        assert_eq!(wall.get("value").and_then(Json::as_f64), Some(0.125));
        assert_eq!(wall.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(j.get("x").and_then(Json::as_arr).map(<[Json]>::len), Some(3));
        assert_eq!(Json::parse("{\"a\": 1} trailing"), None);
        assert_eq!(Json::parse("{\"a\" 1}"), None);
    }

    #[test]
    fn span_self_time_excludes_children() {
        let mut spans = Spans::new("w");
        spans.time("proc", "outer", |s| {
            s.time("core", "inner", |_| std::thread::sleep(std::time::Duration::from_millis(2)));
        });
        assert_eq!(spans.done[1].parent, Some(0));
        let outer = spans.done[0].end_ns - spans.done[0].start_ns;
        let inner = spans.done[1].end_ns - spans.done[1].start_ns;
        assert_eq!(spans.self_ns(0), outer - inner);
        assert_eq!(spans.self_ns(1), inner);
        let first = spans.to_jsonl().lines().next().map(Json::parse);
        assert!(matches!(first, Some(Some(Json::Obj(_)))));
    }
}
