//! Every committed `BENCH_*.json` baseline at the repo root must parse
//! and conform to the shared row schema.
//!
//! The emitting binaries self-validate what they *write*; this test
//! validates what is *checked in*, so a hand-edited or truncated baseline
//! fails `cargo test` instead of silently gating future PRs against
//! garbage.

use std::collections::BTreeMap;
use tbs_bench::experiments::scaling::SCALING_ROW_KEYS;
use tbs_bench::experiments::serving::SERVING_ROW_KEYS;
use tbs_bench::experiments::throughput::THROUGHPUT_ROW_KEYS;
use tbs_bench::experiments::wire::{GATE_MIN_QPS_PER_CONN, WIRE_ROW_KEYS};
use tbs_bench::json::{parse, validate_bench_doc, Json};
use tbs_bench::output::workspace_root;

/// The schema registry: `bench` tag → required per-row keys beyond the
/// shared core. A committed document whose tag is not listed here fails
/// the test — add the new bench's keys when adding a new artifact.
fn schemas() -> BTreeMap<&'static str, &'static [&'static str]> {
    BTreeMap::from([
        ("throughput", THROUGHPUT_ROW_KEYS),
        ("scaling", SCALING_ROW_KEYS),
        ("serving", SERVING_ROW_KEYS),
    ])
}

#[test]
fn every_committed_bench_artifact_passes_the_shared_validator() {
    let root = workspace_root();
    let schemas = schemas();
    let mut checked = Vec::new();
    for entry in std::fs::read_dir(&root).expect("read workspace root") {
        let path = entry.expect("dir entry").path();
        let Some(name) = path.file_name().and_then(|n| n.to_str()) else {
            continue;
        };
        if !(name.starts_with("BENCH_") && name.ends_with(".json")) {
            continue;
        }
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
        let doc = parse(&text).unwrap_or_else(|e| panic!("{name}: invalid JSON: {e}"));
        let tag = match doc.get("bench") {
            Some(Json::Str(tag)) => tag.clone(),
            other => panic!("{name}: missing/invalid bench tag: {other:?}"),
        };
        let extra_keys = schemas
            .get(tag.as_str())
            .unwrap_or_else(|| panic!("{name}: bench tag {tag:?} has no registered schema"));
        validate_bench_doc(&doc, &tag, extra_keys)
            .unwrap_or_else(|e| panic!("{name}: schema violation: {e}"));
        checked.push(name.to_string());
    }
    checked.sort();
    // The three baselines this repo currently commits; growing the list
    // is fine, silently checking nothing is not.
    assert!(
        checked.len() >= 3,
        "expected at least the 3 committed BENCH artifacts, found {checked:?}"
    );
    for expected in [
        "BENCH_scaling.json",
        "BENCH_serving.json",
        "BENCH_throughput.json",
    ] {
        assert!(
            checked.iter().any(|c| c == expected),
            "missing committed artifact {expected} (found {checked:?})"
        );
    }
}

#[test]
fn committed_scaling_baseline_passes_the_cliff_gate() {
    // The 8-shard-cliff fix is part of the committed artifact: saturated
    // R-TBS aggregate at K=8 must clear twice the pre-fix 267.7M items/s
    // row, K=16 must not regress below K=8, and — since the flattened-tail
    // PR — K=32 must not regress below K=16. The bench recorded the
    // verdict; re-check the numbers so a hand-edited pass flag fails.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_scaling.json"))
        .expect("committed BENCH_scaling.json");
    let doc = parse(&text).expect("valid JSON");
    let gate = doc
        .get("summary")
        .and_then(|s| s.get("gate"))
        .expect("scaling summary gate");
    assert_eq!(gate.get("pass"), Some(&Json::Bool(true)), "gate: {gate}");
    let num = |key: &str| match gate.get(key) {
        Some(Json::Num(v)) => *v,
        other => panic!("gate {key} missing: {other:?}"),
    };
    let k8 = num("k8_items_per_sec_aggregate");
    let k16 = num("k16_items_per_sec_aggregate");
    let k32 = num("k32_items_per_sec_aggregate");
    let floor = num("k8_floor_items_per_sec");
    assert!(floor >= 535.4e6, "floor weakened to {floor}");
    assert!(k8 >= floor, "K=8 aggregate {k8} below floor {floor}");
    assert!(k16 >= k8, "K=16 aggregate {k16} regressed below K=8 {k8}");
    assert!(
        k32 >= k16,
        "K=32 aggregate {k32} regressed below K=16 {k16}"
    );
}

#[test]
fn committed_throughput_baseline_passes_its_gates() {
    // The throughput artifact carries its gate verdicts: the facade
    // keeping at least 90% of the raw fast path (a one-sided floor;
    // faster is fine), and automatic checkpointing
    // keeping ≥50% of the facade's throughput in the same run. Re-check
    // the recorded ratios so a hand-edited pass flag fails.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_throughput.json"))
        .expect("committed BENCH_throughput.json");
    let doc = parse(&text).expect("valid JSON");
    let gates = doc
        .get("summary")
        .and_then(|s| s.get("gates"))
        .expect("throughput summary gates");
    let ratio = |name: &str| {
        let gate = gates
            .get(name)
            .unwrap_or_else(|| panic!("missing gate {name}: {gates}"));
        assert_eq!(gate.get("pass"), Some(&Json::Bool(true)), "{name}: {gate}");
        match gate.get("ratio") {
            Some(Json::Num(v)) => *v,
            other => panic!("{name} ratio missing: {other:?}"),
        }
    };
    assert!(ratio("facade_overhead") >= 0.9);
    assert!(ratio("checkpoint_overhead") >= 0.5);
}

#[test]
fn committed_serving_baseline_passes_its_own_gate() {
    // The acceptance gate is part of the committed artifact: R-TBS
    // saturated ingest under 4 concurrent readers within 10% of the
    // committed 265.1M items/s single-thread baseline, and the bench
    // recorded the pass verdict.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_serving.json"))
        .expect("committed BENCH_serving.json");
    let doc = parse(&text).expect("valid JSON");
    let gate = doc
        .get("summary")
        .and_then(|s| s.get("gate"))
        .expect("serving summary gate");
    assert_eq!(gate.get("pass"), Some(&Json::Bool(true)), "gate: {gate}");
    match gate.get("ratio") {
        Some(Json::Num(ratio)) => assert!(*ratio >= 0.9, "gate ratio {ratio} < 0.9"),
        other => panic!("gate ratio missing: {other:?}"),
    }
}

#[test]
fn committed_wire_subdocument_passes_validator_and_both_gates() {
    // PR 9 nested the framed-TCP serving tier's results inside
    // `BENCH_serving.json` under `wire`. The sub-document must conform to
    // its own `serving_wire` row schema, and the recorded gate numbers —
    // single-connection loopback GET_SAMPLE QPS and mixed wire-load
    // ingest vs the committed baseline — must actually clear their
    // thresholds, so a hand-edited pass flag fails.
    let text = std::fs::read_to_string(workspace_root().join("BENCH_serving.json"))
        .expect("committed BENCH_serving.json");
    let doc = parse(&text).expect("valid JSON");
    let wire = doc.get("wire").expect("wire sub-document");
    validate_bench_doc(wire, "serving_wire", WIRE_ROW_KEYS)
        .unwrap_or_else(|e| panic!("wire sub-document schema violation: {e}"));
    let summary = wire.get("summary").expect("wire summary");

    let qps_gate = summary.get("get_sample_gate").expect("get_sample_gate");
    assert_eq!(
        qps_gate.get("pass"),
        Some(&Json::Bool(true)),
        "gate: {qps_gate}"
    );
    match qps_gate.get("qps_per_conn") {
        Some(Json::Num(qps)) => assert!(
            *qps >= GATE_MIN_QPS_PER_CONN,
            "single-connection QPS {qps} below {GATE_MIN_QPS_PER_CONN}"
        ),
        other => panic!("qps_per_conn missing: {other:?}"),
    }

    let mixed_gate = summary.get("mixed_gate").expect("mixed_gate");
    assert_eq!(
        mixed_gate.get("pass"),
        Some(&Json::Bool(true)),
        "gate: {mixed_gate}"
    );
    match mixed_gate.get("ratio") {
        Some(Json::Num(ratio)) => assert!(*ratio >= 0.9, "mixed wire ratio {ratio} < 0.9"),
        other => panic!("mixed gate ratio missing: {other:?}"),
    }
}
