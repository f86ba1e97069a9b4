//! A tiny configuration of every workload emits every metric that
//! `BENCHMARK.json` names, with its unit, and passes its checks.

use perfbench::report::Outcome;
use perfbench::{run, traced, Config, WORKLOADS};

/// `(name, unit)` of every metric listed in one section of
/// `BENCHMARK.json`, in order.
fn declared(section: &str) -> Vec<(String, String)> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
    let start = json
        .find(&format!("\"{section}\""))
        .unwrap_or_else(|| panic!("section {section}"));
    let body = &json[start..];
    let body = &body[..body.find(']').expect("section is a list")];
    let field = |entry: &str, key: &str| {
        let at = entry.find(&format!("\"{key}\": \"")).expect(key) + key.len() + 5;
        entry[at..at + entry[at..].find('"').expect("closing quote")].to_string()
    };
    body.split('{')
        .skip(1)
        .map(|entry| (field(entry, "name"), field(entry, "unit")))
        .collect()
}

fn emitted(out: &Outcome) -> Vec<(String, String)> {
    out.metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit.to_string()))
        .collect()
}

fn assert_sound(what: &str, out: &Outcome) {
    for c in &out.checks {
        assert!(c.ok, "{what}: check {} failed: {}", c.name, c.detail);
    }
    assert!(out.attempted > 0, "{what}: nothing attempted");
    assert!(
        out.metrics.iter().all(|m| m.value.is_finite()),
        "{what}: {:?}",
        out.metrics
    );
    let json = out.json();
    assert!(
        json.starts_with("{\"correct\": true, \"attempted\": "),
        "{json}"
    );
    assert!(!json.contains('\n'), "one line");
}

#[test]
fn every_workload_emits_the_end_to_end_metrics() {
    let declared = declared("end_to_end");
    for workload in WORKLOADS {
        let out = run(workload, &Config::tiny(7)).expect("known workload");
        assert_sound(workload, &out);
        assert_eq!(emitted(&out), declared, "{workload}");
        for m in &out.metrics {
            assert!(m.value > 0.0, "{workload}: {} is {}", m.name, m.value);
        }
    }
}

#[test]
fn traced_run_emits_every_per_layer_metric() {
    let out = traced(&Config::tiny(7));
    assert_sound("traced", &out);
    assert_eq!(emitted(&out), declared("per_layer"));
}

#[test]
fn failover_counts_repeat_for_a_seed() {
    let a = run("failover", &Config::tiny(7)).expect("known workload");
    let b = run("failover", &Config::tiny(7)).expect("known workload");
    assert_eq!((a.attempted, a.failed), (b.attempted, b.failed));
}

#[test]
fn unknown_workload_is_refused() {
    assert!(run("nope", &Config::tiny(7)).is_none());
}
