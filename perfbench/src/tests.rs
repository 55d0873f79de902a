//! The benchmark's own tests, at tiny input sizes.

use std::collections::BTreeSet;
use std::path::PathBuf;

use crate::bench::{Cfg, END_TO_END, PER_LAYER};
use crate::{run_workload, WORKLOADS};

/// A fresh scratch directory under the package's target-ignored
/// `.perfbench` work area.
pub fn scratch(name: &str) -> PathBuf {
    let dir = PathBuf::from(crate::WORK_DIR).join(format!("test-{name}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

fn tiny(name: &str, seed: u64) -> Cfg {
    Cfg { dir: scratch(name), seed, seconds: 0.5, tiny: true }
}

fn valid_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.bytes().all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

/// Runs `workload` tiny, both modes, and returns the metric names.
fn names_of(workload: &str, seed: u64) -> BTreeSet<String> {
    let mut names = BTreeSet::new();
    for trace in [false, true] {
        let cfg = tiny(&format!("{workload}-{seed}-{trace}"), seed);
        let outcome =
            run_workload(workload, &cfg, trace).unwrap_or_else(|e| panic!("{workload}: {e}"));
        let _ = std::fs::remove_dir_all(&cfg.dir);
        assert!(outcome.errors.is_empty(), "{workload} seed {seed}: {:?}", outcome.errors);
        assert_eq!(outcome.failed, 0, "{workload} seed {seed}");
        assert!(outcome.attempted >= 1);
        for (name, value, unit) in &outcome.metrics {
            assert!(value.is_finite(), "{workload} {name} = {value}");
            assert!(!unit.is_empty(), "{name} has a unit");
            names.insert(format!("{trace}:{name}"));
        }
    }
    names
}

#[test]
fn every_workload_runs_and_a_held_out_seed_gives_the_same_metrics() {
    for workload in WORKLOADS {
        let first = names_of(workload, 1);
        let held_out = names_of(workload, 987_654_321);
        assert_eq!(first, held_out, "{workload}: metric names depend on the seed");
        assert_eq!(first.len(), END_TO_END.len() + PER_LAYER.len());
    }
}

#[test]
fn metric_names_are_valid_and_match_benchmark_json() {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .expect("BENCHMARK.json at the repository root");
    let doc = sim_server::json::Value::parse(&text).expect("BENCHMARK.json parses");
    let Some(sim_server::json::Value::Array(workloads)) = doc.get("workloads") else {
        panic!("workloads list")
    };
    for w in workloads {
        let name = w.get("name").and_then(|v| v.as_str()).unwrap_or_default();
        assert!(WORKLOADS.contains(&name), "BENCHMARK.json names unknown workload {name:?}");
    }
    for (key, catalogue) in [("end_to_end", &END_TO_END[..]), ("per_layer", &PER_LAYER[..])] {
        let Some(sim_server::json::Value::Array(listed)) = doc.get(key) else {
            panic!("{key} list")
        };
        let listed: Vec<(String, String)> = listed
            .iter()
            .map(|m| {
                let field =
                    |f: &str| m.get(f).and_then(|v| v.as_str()).unwrap_or_default().to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let ours: Vec<(String, String)> =
            catalogue.iter().map(|(n, u)| (n.to_string(), u.to_string())).collect();
        assert_eq!(listed, ours, "{key} in BENCHMARK.json matches the catalogue");
        for (name, unit) in catalogue {
            assert!(valid_name(name), "{name}");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name} unit {unit}");
        }
    }
}

#[test]
fn result_line_has_exactly_the_four_keys() {
    let outcome = crate::bench::Outcome {
        attempted: 3,
        failed: 1,
        metrics: vec![("setup_s", 0.5, "s")],
        spans: Vec::new(),
        errors: Vec::new(),
    };
    let line = crate::result_json(&outcome);
    let doc = sim_server::json::Value::parse(&line).unwrap();
    assert_eq!(doc.get("correct").and_then(|v| v.as_bool()), Some(false));
    assert_eq!(doc.get("attempted").and_then(|v| v.as_u64()), Some(3));
    assert!(doc.get("metrics").and_then(|m| m.get("setup_s")).is_some());
}
