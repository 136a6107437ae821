//! Golden regression tests for `FineTuneService::service_report()` and
//! `snapshot_prom()`:
//!
//! - the *schema* golden pins the report's key set (every object key path,
//!   with array elements collapsed to `[]`), so silently dropping or
//!   renaming a field the dashboards depend on fails;
//! - the *value* goldens pin the full report JSON and the full Prometheus
//!   body byte for byte, with only wall-clock values masked (phase
//!   `total_seconds`, the `planner.planning_seconds` gauge, and their prom
//!   series), so a refactor of either renderer cannot move a number;
//! - the `observability` section is the `mux-obs` registry as the process
//!   collected it, so these scenarios run with collection on from the
//!   first submit, and a traced plan's op durations reach the printed
//!   histogram quantiles within the sketch's 1 %.
//!
//! Regenerate the goldens after an *intentional* change with:
//! `MUX_BLESS=1 cargo test --test service_report_schema`

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;
use std::sync::{Mutex, MutexGuard};

use muxtune::data::corpus::DatasetKind;
use muxtune::gpu_sim::timeline::OpKind;
use muxtune::prelude::*;
use serde_json::Value;

/// Every test in this file clears the process-global `mux-obs` registry
/// and turns collection on, so they run one at a time: a concurrent
/// scenario would leak its spans and counters into the other's snapshot.
static OBS_LOCK: Mutex<()> = Mutex::new(());

/// Takes [`OBS_LOCK`] and clears the registry. Collection is turned on by
/// the caller's `enabled_scope()`, declared after the guard so it ends
/// first.
fn serial() -> MutexGuard<'static, ()> {
    let guard = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    muxtune::obs::reset();
    guard
}

fn golden_path() -> PathBuf {
    golden("service_report.schema.json")
}

fn golden(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Placeholder for values measured in wall-clock time.
const WALL: &str = "<wall-clock>";

/// A small deterministic service: two same-backbone LoRA jobs (one with a
/// hopeless SLO, so the alerts section is populated) sharing a 4-GPU
/// instance on a truncated backbone, with online monitoring enabled and a
/// few ticks run so `slo_burn` has fired. Serving is enabled with a
/// handful of completed requests so the report's `serving` section is
/// pinned in its populated (per-tenant quantile) shape, not just the
/// disabled stub.
fn scenario() -> FineTuneService {
    let mut cfg = ServiceConfig::a40_pool(4);
    cfg.backbone_layers = Some(8);
    let mut svc = FineTuneService::new(cfg);
    svc.enable_monitoring(MonitorConfig::default());
    svc.enable_serving(ServingConfig::new(
        ServingPolicy::Hybrid,
        PhaseModel::for_model(GpuSpec::a40(), &ModelConfig::llama2_7b().with_layers(8)),
    ));
    svc.submit_requests(vec![
        RequestSpec {
            id: 0,
            tenant: "tenant-a".into(),
            arrival: 0.0,
            prompt_tokens: 128,
            output_tokens: 8,
        },
        RequestSpec {
            id: 1,
            tenant: "tenant-b".into(),
            arrival: 0.05,
            prompt_tokens: 256,
            output_tokens: 4,
        },
    ]);
    svc.submit(
        JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, 4, 10_000_000).with_slo(0.5),
    );
    svc.submit(JobSpec::lora(
        "LLaMA2-7B",
        DatasetKind::OpenBookQa,
        16,
        4,
        100_000,
    ));
    for _ in 0..12 {
        svc.tick(0.05);
    }
    assert!(
        !svc.alerts().is_empty(),
        "schema scenario must exercise the alerts section"
    );
    svc
}

fn report(svc: &FineTuneService) -> Value {
    let rep = svc.service_report();
    assert!(
        rep.get("serving")
            .and_then(|s| s.get("per_tenant"))
            .and_then(Value::as_array)
            .is_some_and(|t| !t.is_empty()),
        "schema scenario must exercise the populated serving section"
    );
    rep
}

/// Collects every key path in `v`. Array elements collapse to `[]` and
/// contribute the union of their members' paths, so per-run cardinality
/// (job counts, device counts, segment counts) never shows up in the
/// schema.
fn key_paths(v: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        Value::Array(items) => {
            let path = format!("{prefix}.[]");
            out.insert(path.clone());
            for item in items {
                key_paths(item, &path, out);
            }
        }
        _ => {}
    }
}

#[test]
fn service_report_schema_matches_golden() {
    let _serial = serial();
    let _on = muxtune::obs::enabled_scope();
    let rep = report(&scenario());
    let mut paths = BTreeSet::new();
    key_paths(&rep, "", &mut paths);
    let current: Vec<Value> = paths.iter().map(|p| Value::from(p.as_str())).collect();
    let body = serde_json::to_string_pretty(&Value::Array(current.clone())).expect("serialize");

    let path = golden_path();
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
    let golden_paths: BTreeSet<String> = golden
        .as_array()
        .expect("golden is an array of key paths")
        .iter()
        .map(|p| p.as_str().expect("path is a string").to_string())
        .collect();

    let missing: Vec<&String> = golden_paths.difference(&paths).collect();
    let added: Vec<&String> = paths.difference(&golden_paths).collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "service_report schema drifted (MUX_BLESS=1 to accept an intentional change)\n\
         missing keys: {missing:?}\nnew keys: {added:?}"
    );
}

/// The report with its wall-clock values replaced by [`WALL`].
fn mask_report(mut rep: Value) -> Value {
    let Value::Object(root) = &mut rep else {
        panic!("report is an object")
    };
    let Some(Value::Object(obs)) = root.get_mut("observability") else {
        panic!("report has an observability section")
    };
    if let Some(Value::Object(phases)) = obs.get_mut("phases") {
        for phase in phases.values_mut() {
            if let Value::Object(p) = phase {
                p.insert("total_seconds".into(), WALL.into());
            }
        }
    }
    if let Some(Value::Object(gauges)) = obs.get_mut("gauges") {
        if let Some(v) = gauges.get_mut("planner.planning_seconds") {
            *v = WALL.into();
        }
    }
    rep
}

/// The exposition with the values of its wall-clock series replaced by
/// [`WALL`].
fn mask_prom(text: &str) -> String {
    let mut out = String::with_capacity(text.len());
    for line in text.lines() {
        let wall = line.starts_with("muxtune_phase_seconds_total{")
            || line.starts_with("muxtune_planner_planning_seconds ");
        match line.rsplit_once(' ') {
            Some((series, _)) if wall => {
                out.push_str(series);
                out.push(' ');
                out.push_str(WALL);
            }
            _ => out.push_str(line),
        }
        out.push('\n');
    }
    out
}

/// Compares `body` with golden `name` byte for byte (or rewrites it under
/// `MUX_BLESS`), naming the first differing line.
fn assert_golden(name: &str, body: &str) {
    let path = golden(name);
    if std::env::var_os("MUX_BLESS").is_some() {
        fs::write(&path, body).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with MUX_BLESS=1 to create it",
            path.display()
        )
    });
    if want != body {
        let same = want
            .lines()
            .zip(body.lines())
            .take_while(|(w, g)| w == g)
            .count();
        panic!(
            "{name} drifted at line {} (MUX_BLESS=1 to accept an intentional change)\n\
             golden:  {:?}\ncurrent: {:?}",
            same + 1,
            want.lines().nth(same),
            body.lines().nth(same)
        );
    }
}

#[test]
fn service_report_and_prom_values_match_golden() {
    let _serial = serial();
    let _on = muxtune::obs::enabled_scope();
    let svc = scenario();
    let rep = mask_report(report(&svc));
    let json = serde_json::to_string_pretty(&rep).expect("serialize") + "\n";
    assert_golden("service_report.values.json", &json);
    assert_golden(
        "service_report.values.prom",
        &mask_prom(&svc.snapshot_prom()),
    );
}

/// With collection on, the report and prom show the planner and engine
/// phases, counters, gauges and op-duration histograms that the service's
/// replans and traced runs recorded.
#[test]
fn report_shows_the_registry_as_collected() {
    let _serial = serial();
    let _on = muxtune::obs::enabled_scope();
    let mut cfg = ServiceConfig::a40_pool(4);
    cfg.backbone_layers = Some(8);
    let mut svc = FineTuneService::new(cfg);
    for _ in 0..2 {
        svc.submit(JobSpec::lora(
            "LLaMA2-7B",
            DatasetKind::OpenBookQa,
            16,
            4,
            100_000,
        ));
    }
    let rep = svc.service_report();
    let obs = &rep["observability"];
    let phases = obs["phases"].as_object().expect("phases");
    assert!(phases.contains_key("planner.fusion"), "phases: {phases:?}");
    assert!(phases.contains_key("engine.simulate"), "phases: {phases:?}");
    assert!(obs["counters"]["planner.candidates"].as_u64().unwrap() >= 1);
    assert!(obs["gauges"]["run.mean_utilization"].as_f64().unwrap() > 0.0);
    let h = &obs["histograms"]["engine.compute_op_seconds"];
    assert!(h["count"].as_u64().unwrap() > 0);
    assert!(h["p99"].as_f64().unwrap() >= h["p50"].as_f64().unwrap());
    let text = svc.snapshot_prom();
    assert!(text.contains("muxtune_phase_seconds_total{phase=\"planner.total\"}"));
}

/// A traced plan feeds its winner's compute-op durations to the
/// `engine.compute_op_seconds` histogram, and the p50/p95/p99 the report
/// prints from it are within the sketch's 1 % of the exact ceil-rank
/// quantiles.
#[test]
fn traced_op_duration_quantiles_are_within_one_percent_of_exact() {
    let _serial = serial();
    let _on = muxtune::obs::enabled_scope();
    let model = ModelConfig::llama2_7b().with_layers(8);
    let mut reg = TaskRegistry::new(model);
    for id in 1..=2 {
        reg.register_task(PeftTask::lora(id, 16, 4, 256))
            .expect("register");
    }
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let cfg = PlannerConfig::muxtune(
        HybridParallelism {
            tp: 2,
            pp: 2,
            dp: 1,
        },
        4,
    );
    let report = plan_and_run(&reg, &cluster, &BTreeMap::new(), &cfg).expect("plan runs");
    let (_, ops) = report
        .plan
        .run_traced(&reg, &cluster)
        .expect("its plan runs");
    let mut durs: Vec<f64> = ops
        .iter()
        .filter(|op| matches!(op.kind, OpKind::Compute))
        .map(|op| op.end - op.start)
        .filter(|&d| d > 0.0)
        .collect();
    durs.sort_by(f64::total_cmp);
    let snap = muxtune::obs::snapshot();
    let h = &snap.histograms["engine.compute_op_seconds"];
    assert_eq!(h.count(), durs.len() as u64);
    for q in [0.5, 0.95, 0.99] {
        let rank = (q * durs.len() as f64).ceil().max(1.0) as usize;
        let exact = durs[rank - 1];
        let printed = h.quantile(q);
        assert!(
            (printed - exact).abs() <= 0.01 * exact,
            "q{q}: histogram prints {printed}, exact {exact}"
        );
    }
}
