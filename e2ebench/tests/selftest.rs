//! The benchmark's self-test at tiny scale: every declared metric is
//! emitted with its unit on every workload, and corrupted stored data makes
//! the run fail instead of producing numbers.

use e2ebench::trace::Tracer;
use e2ebench::{deploy, gate_metrics, layer_metrics, named_metrics, run};
use e2ebench::{Corruption, Metric, Params, Scale, Workload};
use std::time::Duration;

fn tiny(corrupt: Corruption) -> Params {
    Params {
        seed: 11,
        measure: Duration::from_millis(300),
        scale: Scale::Tiny,
        corrupt,
    }
}

/// `(name, unit)` of every metric `BENCHMARK.json` declares in `section`.
fn declared(section: &str) -> Vec<(String, String)> {
    let text = std::fs::read_to_string("../BENCHMARK.json")
        .expect("BENCHMARK.json at the repository root");
    let start = text
        .find(&format!("\"{section}\""))
        .expect("section present");
    let end = ["\"end_to_end\"", "\"per_layer\"", "\"workloads\""]
        .iter()
        .filter_map(|k| text[start + 1..].find(k).map(|i| i + start + 1))
        .min()
        .unwrap_or(text.len());
    let body = &text[start..end];
    let field = |from: usize, key: &str| -> Option<(String, usize)> {
        let tag = format!("\"{key}\": \"");
        let at = body[from..].find(&tag)? + from + tag.len();
        let len = body[at..].find('"')?;
        Some((body[at..at + len].to_string(), at + len))
    };
    let mut out = Vec::new();
    let mut pos = 0;
    while let Some((name, after)) = field(pos, "name") {
        let (unit, after) = field(after, "unit").expect("every metric has a unit");
        out.push((name, unit));
        pos = after;
    }
    out
}

fn names(metrics: &[Metric]) -> Vec<(String, String)> {
    metrics
        .iter()
        .map(|m| (m.name.to_string(), m.unit.to_string()))
        .collect()
}

#[test]
fn every_metric_is_emitted_with_its_unit_on_every_workload() {
    let end_to_end = declared("end_to_end");
    let per_layer = declared("per_layer");
    assert!(end_to_end.iter().any(|(n, u)| n == "setup_s" && u == "s"));
    for w in Workload::ALL {
        let p = tiny(Corruption::None);
        let plain = run(w, &p, None).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        assert_eq!(plain.failed, 0, "{}", w.name());

        let gate = gate_metrics(&plain);
        assert_eq!(names(&gate), end_to_end, "{}", w.name());
        for m in &gate {
            assert!(m.value.is_finite() && m.value > 0.0, "{}: {m:?}", w.name());
        }

        let named = named_metrics(w, &plain);
        assert_eq!(named.len(), 16);
        let applies = named.iter().filter(|(_, _, v)| v.is_some()).count();
        // Five workload-independent metrics plus setup_s, and the
        // workload's own three or four.
        assert!(applies >= 9, "{}: {applies} metrics apply", w.name());
        for (name, unit, value) in &named {
            assert!(!unit.is_empty(), "{name} has a unit");
            assert!(value.is_none_or(f64::is_finite), "{}: {name}", w.name());
        }

        let tracer = Tracer::new(deploy::topology().num_nodes());
        let traced = run(w, &p, Some(&tracer)).unwrap_or_else(|e| panic!("{}: {e}", w.name()));
        let layers = layer_metrics(&traced, &tracer, &plain);
        assert_eq!(names(&layers), per_layer, "{}", w.name());
        assert!(layers.iter().all(|m| m.value.is_finite()), "{}", w.name());
        let exchanges = layers.iter().find(|m| m.name == "wire.exchanges").unwrap();
        assert!(
            exchanges.value > 0.0,
            "{}: the wire recorder saw traffic",
            w.name()
        );
    }
}

#[test]
fn a_corrupted_read_fails_the_run() {
    let err = run(Workload::ReadCold, &tiny(Corruption::Read), None)
        .expect_err("reads of overwritten bytes must fail the check");
    assert!(err.contains("differ from what was written"), "{err}");
}

#[test]
fn a_corrupted_job_output_fails_the_run() {
    let err = run(Workload::MrMix, &tiny(Corruption::JobOutput), None)
        .expect_err("a rewritten job output must fail the check");
    assert!(err.contains("differs from the in-memory oracle"), "{err}");
}
