//! Validates the Chrome-trace JSON emitted for the Fig-14 scenario —
//! the same artifact `report --trace-out` writes. The contract: the JSON
//! round-trips through the parser, every device exposes at least three
//! streams (compute / communication / stall lanes), compute, collective,
//! and stall categories are all present and distinct, and each device's
//! stall lane tiles its idle window to the seconds `otherData.attribution`
//! reports. The serialized trace and its `.attribution.json` are also
//! pinned across commits by goldens under `tests/golden/`, as are those of
//! a multi-hTask run whose ops name several buckets and several hTasks of
//! one bucket.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::OnceLock;

use mux_bench::harness::{
    a40_cluster, attribution_json, build_workload, fig14_trace_scenario, Combo,
};
use mux_model::config::ModelConfig;
use mux_obs::fingerprint::fnv1a_64;
use mux_obs_analysis::{critical_path, timeline_chrome_trace, StallClass};
use mux_parallel::plan::HybridParallelism;
use muxtune_core::planner::{plan_and_run, PlannerConfig};
use serde_json::Value;

/// The Fig-14 run as `report --trace-out` writes it.
struct Fig14 {
    trace: Value,
    num_devices: usize,
    makespan: f64,
    /// The `.attribution.json` body written beside the trace.
    attribution: String,
    /// FNV-1a-64 of the serialized trace, which is too large to commit.
    fingerprint: u64,
}

/// The scenario is a full planner run; compute it once for all tests.
fn trace() -> &'static Fig14 {
    static TRACE: OnceLock<Fig14> = OnceLock::new();
    TRACE.get_or_init(|| {
        let (report, ops, num_devices) = fig14_trace_scenario();
        let trace = timeline_chrome_trace(&ops, num_devices);
        let body = serde_json::to_string_pretty(&trace).expect("serializes");
        let attribution = attribution_json(&ops, num_devices);
        Fig14 {
            fingerprint: fnv1a_64(body.as_bytes()),
            attribution: serde_json::to_string_pretty(&attribution).expect("serializes"),
            trace,
            num_devices,
            makespan: report.metrics.makespan,
        }
    })
}

/// Compares `body` with `tests/golden/<name>`, or rewrites the golden
/// under `MUX_BLESS=1`.
fn assert_golden(name: &str, body: &str) {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../../tests/golden")
        .join(name);
    if std::env::var_os("MUX_BLESS").is_some() {
        std::fs::write(&path, body).expect("write golden");
        return;
    }
    let want = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing golden {} ({e})", path.display()));
    assert_eq!(
        body, want,
        "{name} drifted from its golden (MUX_BLESS=1 to accept)"
    );
}

/// A change that moves any Fig-14 op fails here, not only a run-twice
/// diff. Regenerate after an intentional schedule or cost-model change
/// with `MUX_BLESS=1 cargo test -p mux-bench --test trace_format`.
#[test]
fn fig14_trace_and_attribution_match_goldens() {
    let fig = trace();
    assert_golden("fig14.attribution.json", &fig.attribution);
    assert_golden(
        "fig14.trace.fnv1a64",
        &format!("{:016x}\n", fig.fingerprint),
    );
}

/// Pins hTask identity beyond `b0h0`: 8 LoRA tasks with Non-uniform
/// corpora on an 8-layer backbone over a 4-stage pipeline, two
/// micro-batches per hTask, orchestrated, plan into seven buckets, one of
/// them holding two hTasks. Its trace fingerprint and `.attribution.json`
/// move when an op's bucket or hTask does, not only when the schedule
/// does.
#[test]
fn multi_htask_trace_and_attribution_match_goldens() {
    let cluster = a40_cluster(4);
    let backbone = ModelConfig::llama2_7b().with_layers(8);
    let (reg, corpora) = build_workload(&backbone, Combo::NonUniform, 8, 4, 42);
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 2);
    assert!(cfg.options.orchestrate);
    let report = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("plans");
    let (_, ops) = report.plan.run_traced(&reg, &cluster).expect("runs");
    let buckets = &report.plan.grouping.buckets;
    assert!(buckets.len() >= 2, "{buckets:?}");
    assert!(buckets.iter().any(|b| b.len() >= 2), "{buckets:?}");
    // The critical path the attribution golden summarizes names more than
    // one bucket, and more than one hTask of a bucket.
    let (on_path, _) = critical_path(&ops).htask_seconds();
    assert!(on_path.keys().any(|h| h.bucket > 0), "{on_path:?}");
    assert!(on_path.keys().any(|h| h.htask > 0), "{on_path:?}");
    let trace = timeline_chrome_trace(&ops, cluster.num_gpus());
    let body = serde_json::to_string_pretty(&trace).expect("serializes");
    let attribution = attribution_json(&ops, cluster.num_gpus());
    assert_golden(
        "multi_htask.attribution.json",
        &serde_json::to_string_pretty(&attribution).expect("serializes"),
    );
    assert_golden(
        "multi_htask.trace.fnv1a64",
        &format!("{:016x}\n", fnv1a_64(body.as_bytes())),
    );
}

#[test]
fn fig14_trace_is_valid_chrome_trace_json() {
    let value = &trace().trace;
    // Serialize and parse back: what the viewer loads is what we checked.
    let text = serde_json::to_string_pretty(value).expect("serializes");
    let parsed: Value = serde_json::from_str(&text).expect("round-trips through the parser");
    assert_eq!(&parsed, value, "serialization must round-trip losslessly");

    let events = parsed["traceEvents"].as_array().expect("traceEvents array");
    assert!(!events.is_empty(), "trace has events");
    for e in events {
        let ph = e["ph"].as_str().expect("ph is a string");
        match ph {
            "X" => {
                assert!(e["ts"].as_f64().expect("ts") >= 0.0);
                assert!(e["dur"].as_f64().expect("dur") >= 0.0);
                assert!(e["pid"].as_u64().is_some(), "pid present");
                assert!(e["tid"].as_u64().is_some(), "tid present");
                assert!(e["name"].as_str().is_some(), "name present");
                assert!(e["cat"].as_str().is_some(), "cat present");
            }
            "M" => {
                let name = e["name"].as_str().expect("metadata name");
                assert!(
                    name == "process_name" || name == "thread_name",
                    "unexpected metadata record {name}"
                );
            }
            other => panic!("unexpected phase {other}"),
        }
    }
}

#[test]
fn fig14_trace_has_three_streams_and_distinct_categories_per_device() {
    let Fig14 {
        trace: value,
        num_devices,
        makespan,
        ..
    } = trace();
    let events = value["traceEvents"].as_array().expect("traceEvents array");

    let mut streams: BTreeMap<u64, BTreeSet<u64>> = BTreeMap::new();
    let mut cats: BTreeSet<String> = BTreeSet::new();
    let mut end_max = 0.0f64;
    for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        let pid = e["pid"].as_u64().expect("pid");
        streams
            .entry(pid)
            .or_default()
            .insert(e["tid"].as_u64().expect("tid"));
        cats.insert(e["cat"].as_str().expect("cat").to_string());
        end_max = end_max.max(e["ts"].as_f64().expect("ts") + e["dur"].as_f64().expect("dur"));
    }

    // Every device appears, each with >= 3 streams.
    assert_eq!(streams.len(), *num_devices, "one pid per device");
    for (pid, tids) in &streams {
        assert!(
            tids.len() >= 3,
            "device {pid} exposes only streams {tids:?}, need >= 3"
        );
    }

    // The categories the paper's timeline distinguishes are all present.
    for required in ["compute", "collective", "stall"] {
        assert!(
            cats.contains(required),
            "missing category {required} (have {cats:?})"
        );
    }
    // tp=2 x pp=2 also exercises inter-stage point-to-point transfers.
    assert!(
        cats.contains("p2p"),
        "tp2xpp2 scenario should carry p2p events"
    );

    // Event times are microseconds; the last event must land on the
    // reported makespan (seconds), within rounding.
    assert!(
        (end_max / 1e6 - makespan).abs() < 1e-3,
        "trace ends at {end_max} us but makespan is {makespan} s"
    );
}

#[test]
fn fig14_trace_names_every_device_and_stream() {
    let Fig14 {
        trace: value,
        num_devices,
        ..
    } = trace();
    let events = value["traceEvents"].as_array().expect("traceEvents array");
    let process_names: BTreeSet<u64> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("process_name"))
        .map(|e| e["pid"].as_u64().expect("pid"))
        .collect();
    assert_eq!(
        process_names.len(),
        *num_devices,
        "every device has a process_name record"
    );

    // Every (pid, tid) that carries events also carries a thread_name.
    let named: BTreeSet<(u64, u64)> = events
        .iter()
        .filter(|e| e["ph"].as_str() == Some("M") && e["name"].as_str() == Some("thread_name"))
        .map(|e| {
            (
                e["pid"].as_u64().expect("pid"),
                e["tid"].as_u64().expect("tid"),
            )
        })
        .collect();
    for e in events.iter().filter(|e| e["ph"].as_str() == Some("X")) {
        let key = (
            e["pid"].as_u64().expect("pid"),
            e["tid"].as_u64().expect("tid"),
        );
        assert!(
            named.contains(&key),
            "stream {key:?} carries events but has no thread_name"
        );
    }
}

#[test]
fn fig14_stall_lane_tiles_each_device_window() {
    let Fig14 {
        trace: value,
        num_devices,
        ..
    } = trace();
    let events = value["traceEvents"].as_array().expect("traceEvents array");
    let rows = value["otherData"]["attribution"]
        .as_array()
        .expect("otherData.attribution");
    assert_eq!(rows.len(), *num_devices, "one attribution row per device");
    for (d, row) in rows.iter().enumerate() {
        assert_eq!(row["device"].as_u64(), Some(d as u64));
        // Per-lane sums in seconds, and how many ns-rounded events each has.
        let lane = |tid: u64| {
            let durs: Vec<f64> = events
                .iter()
                .filter(|e| e["ph"].as_str() == Some("X"))
                .filter(|e| e["pid"].as_u64() == Some(d as u64) && e["tid"].as_u64() == Some(tid))
                .map(|e| e["dur"].as_f64().expect("dur") / 1e6)
                .collect();
            (durs.iter().sum::<f64>(), durs.len())
        };
        let (busy, busy_count) = lane(0);
        let (stall, stall_count) = lane(2);
        let row_stall: f64 = StallClass::ALL
            .iter()
            .map(|c| {
                row[format!("{}_seconds", c.name()).as_str()]
                    .as_f64()
                    .expect("class seconds")
            })
            .sum();
        assert!(
            (stall - row_stall).abs() <= 1e-9 * stall_count.max(1) as f64,
            "GPU {d}: stall lane sums to {stall}s but the attribution row says {row_stall}s"
        );
        let window = row["window_seconds"].as_f64().expect("window");
        assert!(
            (busy + stall - window).abs() <= 1e-9 * (busy_count + stall_count) as f64,
            "GPU {d}: busy {busy}s + stalls {stall}s != window {window}s"
        );
    }
}
