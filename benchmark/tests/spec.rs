//! `BENCHMARK.json` is written by hand: it validates against the
//! benchmark contract's limits, and the `MOVES` table covers it.

use siren_benchmark::json::{self, Value};
use siren_benchmark::run::Workload;
use siren_benchmark::spec::{Spec, MOVES};
use std::collections::BTreeSet;

fn benchmark_json() -> (String, Value) {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
    let value = json::parse(&text).expect("BENCHMARK.json parses");
    (text, value)
}

fn name_ok(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.as_bytes()[0].is_ascii_alphanumeric()
        && name
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_.-".contains(&b))
}

fn unit_ok(unit: &str) -> bool {
    !unit.is_empty()
        && unit.len() <= 16
        && unit
            .bytes()
            .all(|b| b.is_ascii_alphanumeric() || b"_/%.-".contains(&b))
}

fn keys(value: &Value) -> Vec<&str> {
    value
        .as_object()
        .expect("an object")
        .iter()
        .map(|(k, _)| k.as_str())
        .collect()
}

fn str_field<'a>(value: &'a Value, key: &str) -> &'a str {
    value
        .get(key)
        .and_then(Value::as_str)
        .unwrap_or_else(|| panic!("string field {key}"))
}

#[test]
fn top_level_has_exactly_the_contract_keys() {
    let (text, doc) = benchmark_json();
    assert!(text.len() <= 64 * 1024);
    assert_eq!(
        keys(&doc),
        [
            "command",
            "paths",
            "run_seconds",
            "workloads",
            "end_to_end",
            "per_layer"
        ]
    );
    let seconds = doc.get("run_seconds").and_then(Value::as_f64).unwrap();
    assert!(seconds.fract() == 0.0 && (1.0..=60.0).contains(&seconds));
    let command = doc.get("command").and_then(Value::as_array).unwrap();
    assert!((1..=32).contains(&command.len()));
    for arg in command {
        let arg = arg.as_str().unwrap();
        assert!(arg.len() <= 200 && !arg.starts_with('/') && !arg.contains(".."));
    }
    let paths = doc.get("paths").and_then(Value::as_array).unwrap();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].as_str(), Some("benchmark"));
}

#[test]
fn workloads_are_the_four_named_ones() {
    let (_, doc) = benchmark_json();
    let workloads = doc.get("workloads").and_then(Value::as_array).unwrap();
    assert!((2..=8).contains(&workloads.len()));
    let names: Vec<&str> = workloads
        .iter()
        .map(|w| {
            assert_eq!(keys(w), ["name", "why"]);
            let why = str_field(w, "why");
            assert!(
                why.len() <= 200 && !why.contains('\n'),
                "why is one short line"
            );
            str_field(w, "name")
        })
        .collect();
    assert_eq!(
        names,
        Workload::ALL.map(Workload::name),
        "names are fixed: later issues cite them"
    );
    assert!(names.iter().all(|n| name_ok(n)));
}

#[test]
fn end_to_end_metrics_have_unit_direction_and_bound() {
    let (_, doc) = benchmark_json();
    let metrics = doc.get("end_to_end").and_then(Value::as_array).unwrap();
    assert!((1..=16).contains(&metrics.len()));
    assert_eq!(metrics.len(), 14);
    let mut seen = BTreeSet::new();
    for m in metrics {
        assert_eq!(keys(m), ["name", "unit", "better", "bound"]);
        let name = str_field(m, "name");
        assert!(name_ok(name), "{name}");
        assert!(seen.insert(name), "{name} is used once");
        assert!(unit_ok(str_field(m, "unit")), "{name}");
        assert!(
            ["higher", "lower"].contains(&str_field(m, "better")),
            "{name}"
        );
        let bound = m.get("bound").and_then(Value::as_f64).unwrap();
        assert!(bound > 0.0 && bound <= 0.25, "{name}: bound {bound}");
    }
    let setup = metrics
        .iter()
        .find(|m| str_field(m, "name") == "setup_s")
        .expect("setup_s is required");
    assert_eq!(str_field(setup, "unit"), "s");
    assert_eq!(str_field(setup, "better"), "lower");
    let largest = metrics
        .iter()
        .filter_map(|m| m.get("bound").and_then(Value::as_f64))
        .fold(0.0, f64::max);
    assert_eq!(setup.get("bound").and_then(Value::as_f64), Some(largest));
}

#[test]
fn per_layer_metrics_name_what_they_move_and_where() {
    let (_, doc) = benchmark_json();
    let metrics = doc.get("per_layer").and_then(Value::as_array).unwrap();
    assert!((1..=128).contains(&metrics.len()));
    let end_to_end: BTreeSet<&str> = doc
        .get("end_to_end")
        .and_then(Value::as_array)
        .unwrap()
        .iter()
        .map(|m| str_field(m, "name"))
        .collect();
    let mut seen = end_to_end.clone();
    for m in metrics {
        assert_eq!(keys(m), ["name", "unit", "better"]);
        let name = str_field(m, "name");
        assert!(name_ok(name), "{name}");
        assert!(seen.insert(name), "{name} is used once");
        assert!(unit_ok(str_field(m, "unit")), "{name}");
        assert!(
            ["higher", "lower"].contains(&str_field(m, "better")),
            "{name}"
        );
    }
    // MOVES lists the same per-layer metrics in the same order, each
    // with an end-to-end metric that exists.
    let listed: Vec<&str> = metrics.iter().map(|m| str_field(m, "name")).collect();
    let moved: Vec<&str> = MOVES.iter().map(|(layer, _, _)| *layer).collect();
    assert_eq!(listed, moved);
    for (layer, moves, on) in MOVES {
        assert!(
            end_to_end.contains(moves),
            "{layer} moves {moves}, which is not an end-to-end metric"
        );
        assert!(Workload::ALL.contains(&on));
    }
}

#[test]
fn the_program_reads_the_same_file() {
    let (_, doc) = benchmark_json();
    let spec = Spec::load().expect("the compiled-in BENCHMARK.json loads");
    let names = |key: &str| -> Vec<String> {
        doc.get(key)
            .and_then(Value::as_array)
            .unwrap()
            .iter()
            .map(|m| str_field(m, "name").to_owned())
            .collect()
    };
    let loaded = |metrics: &[siren_benchmark::spec::Metric]| -> Vec<String> {
        metrics.iter().map(|m| m.name.clone()).collect()
    };
    assert_eq!(loaded(&spec.end_to_end), names("end_to_end"));
    assert_eq!(loaded(&spec.per_layer), names("per_layer"));
    assert_eq!(
        Some(f64::from(spec.run_seconds)),
        doc.get("run_seconds").and_then(Value::as_f64)
    );
}
