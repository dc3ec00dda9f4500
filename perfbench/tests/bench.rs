//! Toy-size runs of every workload, untraced and traced: zero failed
//! operations, and every metric `BENCHMARK.json` names.

use obfs_perfbench::inputs::{Size, Workload};
use obfs_perfbench::{run, Config};

/// The metric names in one section of `BENCHMARK.json` (the section
/// runs from `"<section>"` to the next `]`).
fn names(section: &str) -> Vec<String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let start = text.find(&format!("\"{section}\"")).expect("section present");
    let body = &text[start..];
    let body = &body[..body.find(']').expect("section closes")];
    body.split("\"name\": \"")
        .skip(1)
        .map(|s| s[..s.find('"').expect("name closes")].to_string())
        .collect()
}

fn toy(workload: Workload, trace: bool) -> obfs_perfbench::Report {
    run(&Config { workload, seed: 7, seconds: 1.0, trace, size: Size::Toy })
}

#[test]
fn every_workload_is_named_in_benchmark_json() {
    let listed = names("workloads");
    assert_eq!(listed, Workload::ALL.map(|w| w.name().to_string()));
}

#[test]
fn toy_runs_pass_and_carry_every_metric() {
    for w in Workload::ALL {
        for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
            let r = toy(w, trace);
            assert!(r.correct, "{} trace={trace}: a reference or an operation failed", w.name());
            assert!(r.tally.attempted > 0);
            assert_eq!(r.tally.failed, 0, "{} trace={trace}", w.name());
            let got: Vec<&str> = r.metrics.iter().map(|m| m.name.as_str()).collect();
            assert_eq!(got, names(section), "{} trace={trace}", w.name());
            for m in &r.metrics {
                assert!(m.value.is_finite(), "{} {} = {}", w.name(), m.name, m.value);
            }
            let json = r.json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        }
    }
}
