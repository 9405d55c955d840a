//! `BENCHMARK.json` at the repository root names exactly the workloads
//! and metrics this binary prints, in the same order and units.

use themis_benchmark::{END_TO_END, PER_LAYER, WORKLOADS};

/// Every string value of `key` in `json`, in order.
fn values<'a>(json: &'a str, key: &str) -> Vec<&'a str> {
    let pat = format!("\"{key}\": \"");
    json.split(&pat)
        .skip(1)
        .map(|rest| &rest[..rest.find('"').expect("closing quote")])
        .collect()
}

#[test]
fn benchmark_json_matches_the_binary() {
    let json = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json at the repository root");
    let mut want: Vec<&str> = WORKLOADS.to_vec();
    want.extend(END_TO_END.iter().map(|m| m.0));
    want.extend(PER_LAYER.iter().map(|m| m.0));
    assert_eq!(values(&json, "name"), want);
    let units: Vec<&str> = END_TO_END
        .iter()
        .chain(PER_LAYER.iter())
        .map(|m| m.1)
        .collect();
    assert_eq!(values(&json, "unit"), units);
}
