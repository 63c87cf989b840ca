//! What the benchmark declares: workloads, metrics, bounds, run length.
//!
//! `BENCHMARK.json` at the root of the repository is the one place they are
//! written down. It is compiled in, so the binary cannot disagree with it and
//! does not depend on where it is started from.

use std::sync::OnceLock;

use crate::stats::Json;

const BENCHMARK_JSON: &str = include_str!("../../../../../BENCHMARK.json");

#[derive(Debug)]
pub struct Metric {
    pub name: String,
    pub unit: String,
    /// `"lower"` or `"higher"`.
    pub better: String,
    /// The share by which a later change may worsen it; end-to-end only.
    pub bound: Option<f64>,
}

#[derive(Debug)]
pub struct Decl {
    pub run_seconds: f64,
    /// `(name, why)` in running order.
    pub workloads: Vec<(String, String)>,
    pub end_to_end: Vec<Metric>,
    pub per_layer: Vec<Metric>,
}

pub fn decl() -> &'static Decl {
    static DECL: OnceLock<Decl> = OnceLock::new();
    DECL.get_or_init(|| parse(BENCHMARK_JSON).expect("BENCHMARK.json has the declared shape"))
}

fn parse(text: &str) -> Option<Decl> {
    let doc = Json::parse(text)?;
    let text_of = |j: &Json, key| Some(j.get(key)?.as_str()?.to_string());
    let metrics = |key| {
        let list = doc.get(key)?.as_arr()?.iter();
        list.map(|m| {
            Some(Metric {
                name: text_of(m, "name")?,
                unit: text_of(m, "unit")?,
                better: text_of(m, "better")?,
                bound: m.get("bound").and_then(Json::as_f64),
            })
        })
        .collect::<Option<Vec<_>>>()
    };
    Some(Decl {
        run_seconds: doc.get("run_seconds")?.as_f64()?,
        workloads: doc
            .get("workloads")?
            .as_arr()?
            .iter()
            .map(|w| Some((text_of(w, "name")?, text_of(w, "why")?)))
            .collect::<Option<_>>()?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}
