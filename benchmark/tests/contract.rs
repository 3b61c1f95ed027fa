//! `BENCHMARK.json` and the metric tables the binary prints stay in step.

use domino_benchmark::report::{END_TO_END, PER_LAYER};
use domino_benchmark::WORKLOADS;

fn manifest() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    std::fs::read_to_string(path).expect("read BENCHMARK.json")
}

/// The objects of the JSON array under `key`, as raw text.
fn entries(json: &str, key: &str) -> Vec<String> {
    let start = json
        .find(&format!("\"{key}\": ["))
        .unwrap_or_else(|| panic!("no {key}"));
    let body = &json[start..];
    let end = body.find(']').expect("array closes");
    body[..end]
        .split('{')
        .skip(1)
        .map(|o| o[..o.find('}').expect("object closes")].to_string())
        .collect()
}

fn field(object: &str, name: &str) -> String {
    let key = format!("\"{name}\": \"");
    let start = object
        .find(&key)
        .unwrap_or_else(|| panic!("no {name} in {object}"))
        + key.len();
    object[start..start + object[start..].find('"').expect("string closes")].to_string()
}

#[test]
fn manifest_names_exactly_the_metrics_the_binary_prints() {
    let json = manifest();
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let listed: Vec<(String, String)> = entries(&json, key)
            .iter()
            .map(|o| (field(o, "name"), field(o, "unit")))
            .collect();
        let printed: Vec<(String, String)> = table
            .iter()
            .map(|(n, u)| (n.to_string(), u.to_string()))
            .collect();
        assert_eq!(listed, printed, "{key}");
    }
}

#[test]
fn manifest_names_the_workloads_and_bounds_every_end_to_end_metric() {
    let json = manifest();
    let names: Vec<String> = entries(&json, "workloads")
        .iter()
        .map(|o| field(o, "name"))
        .collect();
    assert_eq!(names, WORKLOADS);
    for o in entries(&json, "end_to_end") {
        let key = "\"bound\": ";
        let start = o.find(key).unwrap_or_else(|| panic!("no bound in {o}")) + key.len();
        let bound: f64 = o[start..]
            .trim()
            .trim_end_matches(|c: char| !c.is_ascii_digit())
            .parse()
            .unwrap_or_else(|e| panic!("bound in {o}: {e}"));
        assert!(bound > 0.0 && bound <= 0.25, "bound {bound} in {o}");
        let better = field(&o, "better");
        assert!(better == "lower" || better == "higher", "{o}");
    }
}
