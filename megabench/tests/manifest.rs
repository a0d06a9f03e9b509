//! `BENCHMARK.json` at the repository root declares what this command
//! prints: every metric with its unit, and every workload with its
//! rationale.

use megabench::layers;
use megabench::report::E2E;
use megabench::workload::Workload;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root")
}

#[test]
fn every_metric_is_declared_with_its_unit() {
    let json = manifest();
    let layer_names = layers::names();
    let all = E2E
        .iter()
        .map(|&(n, u)| (n.to_owned(), u))
        .chain(layer_names);
    for (name, unit) in all {
        let entry = format!("\"name\": \"{name}\",\n      \"unit\": \"{unit}\"");
        assert!(json.contains(&entry), "{name} ({unit}) not declared");
    }
}

#[test]
fn every_workload_is_declared_with_its_rationale() {
    let json = manifest();
    for w in Workload::ALL {
        let entry = format!(
            "\"name\": \"{}\",\n      \"why\": \"{}\"",
            w.name(),
            w.why()
        );
        assert!(json.contains(&entry), "{} not declared", w.name());
    }
}
