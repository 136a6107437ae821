//! Golden-trace regression test: a fixed small plan is simulated, exported
//! as a Chrome trace, and compared against a checked-in golden artifact —
//! both the exact operator ordering per device/stream and the makespan.
//! Any engine/scheduler change that reorders operators or shifts timing
//! shows up as a readable diff here.
//!
//! Regenerate the golden after an *intentional* change with:
//! `MUX_BLESS=1 cargo test --test golden_trace`

use std::collections::BTreeMap;
use std::fs;
use std::path::PathBuf;

use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
use mux_gpu_sim::timeline::Cluster;
use mux_model::config::ModelConfig;
use mux_obs_analysis::timeline_chrome_trace;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::PeftTask;
use muxtune_core::planner::{plan_and_run, PlannerConfig};
use serde_json::Value;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/small_plan.trace.json")
}

/// The pinned scenario: 2 LoRA tasks on a 4-layer LLaMA backbone over
/// 2 tensor-parallel A40s — small enough to eyeball, rich enough to carry
/// compute, collectives, and stalls. Everything is deterministic: padded
/// shapes (no corpus sampling) and an analytic simulator.
fn scenario() -> (Value, f64) {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(4));
    reg.register_task(PeftTask::lora(1, 16, 2, 64)).expect("t1");
    reg.register_task(PeftTask::lora(2, 16, 4, 128))
        .expect("t2");
    let cluster = Cluster::single_node(GpuSpec::a40(), 2, LinkSpec::nvlink_a40());
    let cfg = PlannerConfig::muxtune(
        HybridParallelism {
            tp: 2,
            pp: 1,
            dp: 1,
        },
        2,
    );
    let report = plan_and_run(&reg, &cluster, &BTreeMap::new(), &cfg).expect("plan runs");
    let (_, ops) = report
        .plan
        .run_traced(&reg, &cluster)
        .expect("its plan runs");
    (timeline_chrome_trace(&ops, 2), report.metrics.makespan)
}

/// Projects the trace to the regression surface: the ordered list of
/// complete events as (pid, tid, ts, dur, cat, name) rows.
fn event_rows(trace: &Value) -> Vec<String> {
    trace["traceEvents"]
        .as_array()
        .expect("traceEvents")
        .iter()
        .filter(|e| e["ph"].as_str() == Some("X"))
        .map(|e| {
            format!(
                "pid={} tid={} ts={} dur={} cat={} name={}",
                e["pid"], e["tid"], e["ts"], e["dur"], e["cat"], e["name"]
            )
        })
        .collect()
}

#[test]
fn small_plan_trace_matches_golden() {
    let (trace, makespan) = scenario();
    let path = golden_path();
    let body = serde_json::to_string_pretty(&serde_json::json!({
        "makespan_seconds": makespan,
        "trace": trace,
    }))
    .expect("serialize");

    if std::env::var_os("MUX_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, body).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with MUX_BLESS=1 to create it",
            path.display()
        )
    }))
    .expect("golden parses");

    // Makespan pin.
    let golden_makespan = golden["makespan_seconds"].as_f64().expect("makespan");
    assert!(
        (makespan - golden_makespan).abs() <= 1e-9 * golden_makespan.max(1.0),
        "makespan drifted: golden {golden_makespan} vs current {makespan} \
         (MUX_BLESS=1 to accept an intentional change)"
    );

    // Op-ordering pin: every complete event, in emission order.
    let golden_rows = event_rows(&golden["trace"]);
    let rows = event_rows(&trace);
    if rows != golden_rows {
        let first_diff = rows
            .iter()
            .zip(&golden_rows)
            .position(|(a, b)| a != b)
            .unwrap_or_else(|| rows.len().min(golden_rows.len()));
        panic!(
            "trace drifted from golden at event {first_diff}:\n  golden:  {}\n  current: {}\n\
             ({} golden events vs {} current; MUX_BLESS=1 to accept an intentional change)",
            golden_rows
                .get(first_diff)
                .map(String::as_str)
                .unwrap_or("<end>"),
            rows.get(first_diff).map(String::as_str).unwrap_or("<end>"),
            golden_rows.len(),
            rows.len(),
        );
    }

    // The per-device stall attribution travels with the trace; pin it too.
    assert_eq!(
        trace["otherData"]["attribution"], golden["trace"]["otherData"]["attribution"],
        "stall attribution drifted (MUX_BLESS=1 to accept an intentional change)"
    );
}
