//! Smoke test: every workload at 1/10 size with its oracle on, traced
//! and untraced, so that an API break fails `cargo test` of this package
//! at compile time and a wrong answer fails it at run time. (Not smaller:
//! a rank's share of a text layer must stay larger than the layer's
//! longest record, about 40 KB, also at 64 ranks.)

use crate::metrics::{END_TO_END, PER_LAYER};
use crate::report::{iqr_share, Json};
use crate::workloads::{build, Scale, NAMES};
use crate::{layers, probes};

#[test]
fn every_workload_answers_correctly_at_small_size() {
    for name in NAMES {
        let w = build(name, 7, 10).expect("known workload");
        for (scale, traced) in [(Scale::R16, false), (Scale::R64, false), (Scale::R16, true)] {
            let pass = w.pass(scale, traced);
            assert_eq!(
                pass.verdict.failed, 0,
                "{name} {scale:?} traced={traced}: {:?}",
                pass.verdict.first_offender
            );
            assert!(pass.verdict.attempted > 0, "{name}: nothing was checked");
            assert!(pass.virtual_s > 0.0 && pass.host_s > 0.0 && pass.allocs > 0);
            assert!(!pass.latencies_ms.is_empty());
            assert_eq!(traced, pass.spans.iter().any(|rank| !rank.is_empty()));
        }
    }
}

#[test]
fn a_traced_run_measures_every_per_layer_metric() {
    let w = build("update_rebalance", 7, 50).expect("known workload");
    let untraced = w.pass(Scale::R16, false);
    let traced = w.pass(Scale::R16, true);
    let (text, left, right) = w.sample();
    let mut values = probes::msim();
    values.extend(probes::geom(&text, left, right));
    let overhead = layers::main_calls_host_s(&traced) / untraced.host_s - 1.0;
    let values = layers::per_layer(&*w, overhead, &traced, values);
    for m in PER_LAYER {
        let hits = values.iter().filter(|(n, _)| *n == m.name).count();
        assert_eq!(hits, 1, "{} measured {hits} times", m.name);
    }
    assert_eq!(values.len(), PER_LAYER.len());
    assert!(values.iter().all(|(_, v)| v.is_finite()));
}

#[test]
fn benchmark_json_lists_the_registry() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("JSON");
    for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
        let Some(Json::Arr(listed)) = spec.get(key) else {
            panic!("{key} missing");
        };
        assert_eq!(listed.len(), table.len(), "{key}");
        for (entry, m) in listed.iter().zip(table) {
            assert_eq!(entry.get("name").and_then(Json::as_str), Some(m.name));
            assert_eq!(entry.get("unit").and_then(Json::as_str), Some(m.unit));
            assert_eq!(
                entry.get("better").and_then(Json::as_str),
                Some(m.better.as_str())
            );
            assert_eq!(
                entry.get("bound").and_then(Json::as_f64),
                m.bound,
                "{}",
                m.name
            );
        }
    }
    let Some(Json::Arr(listed)) = spec.get("workloads") else {
        panic!("workloads missing");
    };
    let names: Vec<_> = listed
        .iter()
        .filter_map(|w| w.get("name").and_then(Json::as_str))
        .collect();
    assert_eq!(names, NAMES);
}

#[test]
fn quartile_spread_matches_python_statistics() {
    // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
    let v: Vec<f64> = (1..=10).map(f64::from).collect();
    assert!((iqr_share(&v) - (8.25 - 2.75) / 5.5).abs() < 1e-12);
}
