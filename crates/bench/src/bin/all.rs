//! Regenerates the paper's tables and figures into `results/`.
//!
//! ```text
//! cargo run --release -p redcr-bench --bin all                    # everything
//! cargo run --release -p redcr-bench --bin all -- table4 fig12    # only these
//! ```
//!
//! Positional arguments name artifacts from [`ARTIFACTS`]; an unknown name
//! exits non-zero listing the valid ones. Table 5 (the measured overhead
//! curve) and the Table 4 Monte-Carlo are computed at most once per
//! invocation, and only when a selected artifact needs them.

use std::cell::OnceCell;
use std::fmt::Write as _;

use redcr_bench::table4::Table4;
use redcr_bench::table5::Table5;
use redcr_bench::{calib, fig11, fig12, fig13_14, fig2, fig4_6, paper, table1, table2_3};
use redcr_bench::{table4, table5, validation, window};

/// The two expensive inputs several artifacts share.
#[derive(Default)]
struct Shared {
    t5: OnceCell<Table5>,
    t4: OnceCell<Table4>,
}

impl Shared {
    fn t5(&self) -> &Table5 {
        self.t5.get_or_init(|| {
            eprintln!("  measuring the failure-free overhead curve (Table 5)");
            table5::generate()
        })
    }

    fn t4(&self) -> &Table4 {
        self.t4.get_or_init(|| {
            let t5 = self.t5();
            eprintln!("  Monte-Carlo fault injection ({} seeds/cell, Table 4)", calib::T4_SEEDS);
            table4::generate(t5, calib::T4_SEEDS)
        })
    }
}

fn write(name: &str, content: &str) {
    let path = redcr_bench::output::write_result(name, content);
    eprintln!("  wrote {}", path.display());
}

/// Writes one artifact's files.
type Make = fn(&Shared);

/// Every artifact by name, in the order a full run produces them.
const ARTIFACTS: &[(&str, Make)] = &[
    ("table1", |_| write("table1.txt", &table1::render())),
    ("table2", |_| {
        let rows = table2_3::generate_table2(calib::T4_SEEDS);
        write("table2.txt", &table2_3::render_table2(&rows));
    }),
    ("table3", |_| {
        let rows = table2_3::generate_table3(calib::T4_SEEDS);
        write("table3.txt", &table2_3::render_table3(&rows));
    }),
    ("table5", |s| write("table5.txt", &table5::render(s.t5()))),
    ("table4", |s| write("table4.txt", &table4::render(s.t4()))),
    ("fig2", |_| {
        let curves = fig2::generate(10_000, 128.0);
        write("fig2.txt", &fig2::render(&curves));
        let mut csv = String::from("label,degree,reliability\n");
        for c in &curves {
            for (d, r) in &c.samples {
                let _ = writeln!(csv, "{},{d},{r}", c.label.trim());
            }
        }
        write("fig2.csv", &csv);
    }),
    ("fig4_6", |_| {
        let mut out = String::new();
        for figure in [4u32, 5, 6] {
            out.push_str(&fig4_6::render(&fig4_6::generate(figure)));
            out.push('\n');
        }
        write("fig4_6.txt", &out);
    }),
    // Figure 8 is the line-graph rendering of Table 4: CSV series.
    ("fig8", |s| {
        let mut csv = String::from("mtbf_hours,degree,minutes\n");
        for (mtbf, cells) in &s.t4().rows {
            for c in cells {
                let minutes = c.minutes.map(|m| format!("{m:.2}")).unwrap_or_default();
                let _ = writeln!(csv, "{mtbf},{},{minutes}", c.degree);
            }
        }
        write("fig8.csv", &csv);
    }),
    // Figure 9 is its surface rendering: a gnuplot grid, one blank line
    // between MTBF rows.
    ("fig9", |s| {
        let mut out = String::from("# degree mtbf_hours minutes\n");
        for (mtbf, cells) in &s.t4().rows {
            for c in cells {
                if let Some(m) = c.minutes {
                    let _ = writeln!(out, "{} {mtbf} {m:.2}", c.degree);
                }
            }
            out.push('\n');
        }
        write("fig9.dat", &out);
    }),
    // Figure 10 is the plot of Table 5.
    ("fig10", |s| {
        let t5 = s.t5();
        let mut csv = String::from("degree,observed_minutes,expected_minutes\n");
        for (i, d) in paper::DEGREES.iter().enumerate() {
            let _ =
                writeln!(csv, "{d},{:.2},{:.2}", t5.observed_minutes[i], t5.expected_minutes[i]);
        }
        write("fig10.csv", &csv);
    }),
    ("fig11", |_| write("fig11.txt", &fig11::render(&fig11::generate()))),
    ("fig12", |s| {
        let fig = fig12::generate_from(s.t4(), &paper::constants::MTBF_HOURS);
        write("fig12.txt", &fig12::render(&fig));
    }),
    ("fig13", |_| {
        let data = fig13_14::generate(30_000, 20);
        write("fig13.txt", &fig13_14::render(&data, 13, &fig13_14::find_landmarks()));
    }),
    ("fig14", |_| {
        let data = fig13_14::generate(200_000, 24);
        write("fig14.txt", &fig13_14::render(&data, 14, &fig13_14::find_landmarks()));
    }),
    // The partial-redundancy window study (Section 6 observation (3)).
    ("window", |_| {
        let by_mtbf = window::render(&window::sweep_mtbf(2.0, 48.0, 47));
        let by_n = window::render(&window::sweep_processes(100, 2_000_000, 60));
        write("window.txt", &format!("{by_mtbf}\n{by_n}"));
    }),
    // Measured-vs-model validation (`--bin validation` also gates on it).
    ("validation", |_| {
        let runs = validation::generate();
        write("validation.txt", &validation::render(&runs));
        for path in validation::write_sidecars(&runs) {
            eprintln!("  wrote {}", path.display());
        }
    }),
];

fn main() {
    let wanted: Vec<String> = std::env::args().skip(1).collect();
    let known = |name: &String| ARTIFACTS.iter().any(|(a, _)| a == name);
    if let Some(bad) = wanted.iter().find(|w| !known(w)) {
        let names: Vec<&str> = ARTIFACTS.iter().map(|(a, _)| *a).collect();
        eprintln!("unknown artifact {bad:?}; valid names: {}", names.join(" "));
        std::process::exit(2);
    }
    let selected: Vec<_> = ARTIFACTS
        .iter()
        .filter(|(a, _)| wanted.is_empty() || wanted.iter().any(|w| w == a))
        .collect();
    let shared = Shared::default();
    for (i, (name, make)) in selected.iter().enumerate() {
        eprintln!("[{}/{}] {name}", i + 1, selected.len());
        make(&shared);
    }
    eprintln!("done; see {}", redcr_bench::output::results_dir().display());
}
