//! Shared helpers for the figure/table regeneration benches.
//!
//! Every bench prints the paper's rows/series next to our measured values
//! and appends a JSON record under `target/experiments/` so EXPERIMENTS.md
//! can be regenerated from artifacts.

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::LazyLock;
use std::time::Instant;

use mux_data::corpus::{Corpus, DatasetKind};
use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
use mux_gpu_sim::timeline::{Cluster, OpRecord};
use mux_model::config::ModelConfig;
use mux_obs_analysis::{
    critical_path, device_attribution, timeline_chrome_trace, DeviceAttribution, PerfMeasurement,
};
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};
use muxtune_core::cost::CostModel;
use muxtune_core::fusion::{
    fuse_dp_seed, fuse_tasks, FusionPolicy, IncrementalPlanner, RangeBuild,
};
use muxtune_core::grouping::group_htasks;
use muxtune_core::planner::{plan_and_run, MuxTuneReport, PlannerConfig};

/// A single-node A40 testbed (Testbed-A style).
pub fn a40_cluster(gpus: usize) -> Cluster {
    Cluster::single_node(GpuSpec::a40(), gpus, LinkSpec::nvlink_a40())
}

/// A multi-node A40 testbed (Testbed-B style: 2 GPUs per node, IB).
pub fn a40_multinode(nodes: usize) -> Cluster {
    Cluster::multi_node(
        GpuSpec::a40(),
        nodes,
        2,
        LinkSpec::nvlink_a40(),
        LinkSpec::ib100(),
    )
}

/// A single-node H100 testbed (Testbed-C style).
pub fn h100_cluster(gpus: usize) -> Cluster {
    Cluster::single_node(GpuSpec::h100(), gpus, LinkSpec::nvlink_h100())
}

/// The §5.1 dataset combinations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Combo {
    /// Same dataset for every co-located task.
    Uniform(DatasetKind),
    /// Different datasets across tasks.
    NonUniform,
}

impl Combo {
    /// Dataset of the `i`-th task.
    pub fn dataset(&self, i: usize) -> DatasetKind {
        match self {
            Combo::Uniform(k) => *k,
            Combo::NonUniform => match i % 3 {
                0 => DatasetKind::Sst2,
                1 => DatasetKind::OpenBookQa,
                _ => DatasetKind::Rte,
            },
        }
    }

    /// Label for output.
    pub fn label(&self) -> String {
        match self {
            Combo::Uniform(k) => format!("Uniform({})", k.name()),
            Combo::NonUniform => "Non-uniform".into(),
        }
    }
}

/// Builds a registry of `n_tasks` LoRA tasks plus their corpora. Each
/// task's global batch holds `micro_batch * micro_batches` sequences, so
/// the corpus size *is* the per-task global batch size.
pub fn build_workload(
    backbone: &ModelConfig,
    combo: Combo,
    n_tasks: usize,
    micro_batch: usize,
    seed: u64,
) -> (TaskRegistry, BTreeMap<TaskId, Vec<usize>>) {
    build_workload_c(backbone, combo, n_tasks, micro_batch, 4, seed)
}

/// [`build_workload`] with an explicit unified micro-batch count `C`.
pub fn build_workload_c(
    backbone: &ModelConfig,
    combo: Combo,
    n_tasks: usize,
    micro_batch: usize,
    micro_batches: usize,
    seed: u64,
) -> (TaskRegistry, BTreeMap<TaskId, Vec<usize>>) {
    let mut reg = TaskRegistry::new(backbone.clone());
    let mut corpora = BTreeMap::new();
    for i in 0..n_tasks {
        let ds = combo.dataset(i);
        let id = i as TaskId + 1;
        reg.register_task(PeftTask::lora(id, 16, micro_batch, ds.max_len()))
            .expect("fresh ids");
        corpora.insert(
            id,
            Corpus::generate(ds, micro_batch * micro_batches, seed.wrapping_add(i as u64)).lengths,
        );
    }
    (reg, corpora)
}

/// Table 2's two random workloads (WL-A and WL-B), verbatim from the paper.
pub fn table2_workload(wl: char) -> Vec<(DatasetKind, usize)> {
    use DatasetKind::{OpenBookQa as Qa, Rte, Sst2};
    let batch = [4usize, 2, 4, 4, 8, 2, 4, 4];
    let sets = match wl {
        'A' => [Sst2, Qa, Qa, Sst2, Sst2, Sst2, Qa, Qa],
        'B' => [Rte, Sst2, Rte, Sst2, Sst2, Rte, Rte, Rte],
        _ => panic!("workload must be A or B"),
    };
    sets.into_iter().zip(batch).collect()
}

/// Prints a bench banner.
pub fn banner(id: &str, what: &str) {
    println!("\n=== {id}: {what} ===");
}

/// Prints one paper-vs-measured comparison row.
pub fn row(label: &str, paper: &str, measured: &str) {
    println!("{label:<46} paper: {paper:<20} measured: {measured}");
}

/// Appends a JSON record to `target/experiments/<id>.json`.
pub fn save_json(id: &str, value: &serde_json::Value) {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    if fs::create_dir_all(&dir).is_ok() {
        let path = dir.join(format!("{id}.json"));
        if let Ok(s) = serde_json::to_string_pretty(value) {
            let _ = fs::write(path, s);
        }
    }
}

/// Formats a speedup ratio.
pub fn x(v: f64) -> String {
    format!("{v:.2}x")
}

/// Env var naming the directory the fig benches dump Chrome traces into.
/// Unset (the default) disables trace dumping entirely.
pub const TRACE_DIR_ENV: &str = "MUX_TRACE_DIR";

/// Serializes `ops` as chrome://tracing JSON to `<dir>/<id>.trace.json`.
pub fn write_trace_file(
    dir: &Path,
    id: &str,
    ops: &[OpRecord],
    num_devices: usize,
) -> Option<PathBuf> {
    fs::create_dir_all(dir).ok()?;
    let path = dir.join(format!("{id}.trace.json"));
    let body = serde_json::to_string_pretty(&timeline_chrome_trace(ops, num_devices)).ok()?;
    fs::write(&path, body).ok()?;
    Some(path)
}

/// Builds the stall-attribution + critical-path JSON for a finished run:
/// per-device 5-class breakdown (with the conservation window) and the
/// critical-path summary.
pub fn attribution_json(ops: &[OpRecord], num_devices: usize) -> serde_json::Value {
    let devices = device_attribution(ops, num_devices)
        .iter()
        .map(DeviceAttribution::to_json)
        .collect();
    let mut root = serde_json::Map::new();
    root.insert("devices".into(), serde_json::Value::Array(devices));
    root.insert("critical_path".into(), critical_path(ops).to_json(32));
    serde_json::Value::Object(root)
}

/// Headline numbers of a finished run for the perf-regression gate:
/// makespan, mean achieved utilization, and the attributed stall share
/// (stall seconds over total device-windows).
pub fn measure_run(
    report: &MuxTuneReport,
    ops: &[OpRecord],
    num_devices: usize,
) -> PerfMeasurement {
    let attribution = device_attribution(ops, num_devices);
    let total_window: f64 = attribution.iter().map(|d| d.window).sum();
    let total_stall: f64 = attribution.iter().map(|d| d.stall_seconds()).sum();
    PerfMeasurement {
        makespan_seconds: report.metrics.makespan,
        mean_utilization: report.metrics.mean_utilization,
        stall_share: total_stall / total_window.max(1e-12),
    }
}

/// Profiling hook for the fig benches: when [`TRACE_DIR_ENV`] is set,
/// re-runs the given scenario with tracing on and dumps the winning
/// configuration's timeline as `<dir>/<id>.trace.json`, plus the
/// stall-attribution/critical-path summary as `<dir>/<id>.attribution.json`.
/// No-op (and no extra simulation work) when the variable is unset, so
/// benches call it unconditionally on their headline scenario.
pub fn dump_trace(
    id: &str,
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Option<PathBuf> {
    let dir = PathBuf::from(std::env::var_os(TRACE_DIR_ENV)?);
    let report = plan_and_run(registry, cluster, corpora, cfg).ok()?;
    let (_, ops) = report.plan.run_traced(registry, cluster).ok()?;
    let path = write_trace_file(&dir, id, &ops, cluster.num_gpus())?;
    println!("  [trace] wrote {}", path.display());
    let attr_path = dir.join(format!("{id}.attribution.json"));
    if let Ok(body) = serde_json::to_string_pretty(&attribution_json(&ops, cluster.num_gpus())) {
        if fs::write(&attr_path, body).is_ok() {
            println!("  [trace] wrote {}", attr_path.display());
        }
    }
    Some(path)
}

/// The Fig-14 Testbed-A reference scenario used by `report --trace-out`
/// and the trace-format tests: 4 LoRA tasks on LLaMA2-7B over 4 A40s,
/// uniform OpenBookQA, tp2 x pp2 — two-device stages so the trace carries
/// tensor-parallel collectives as well as inter-stage pipeline traffic.
pub fn fig14_trace_scenario() -> (MuxTuneReport, Vec<OpRecord>, usize) {
    fig14_traced(ModelConfig::llama2_7b())
}

/// A truncated Fig-14 scenario for CI: the same task mix and tp2 x pp2
/// layout as [`fig14_trace_scenario`] on an 8-layer backbone, so it plans
/// and simulates in well under a second while still exercising pipeline
/// bubbles, tensor-parallel collectives, and inter-stage traffic. The CI
/// perf-regression gate (`report --check-baseline`) pins this scenario's
/// headline numbers.
pub fn fig14_small_trace_scenario() -> (MuxTuneReport, Vec<OpRecord>, usize) {
    fig14_traced(ModelConfig::llama2_7b().with_layers(8))
}

/// The Fig-14 task mix and layout on `backbone`, planned and traced.
fn fig14_traced(backbone: ModelConfig) -> (MuxTuneReport, Vec<OpRecord>, usize) {
    let cluster = a40_cluster(4);
    let (reg, corpora) =
        build_workload(&backbone, Combo::Uniform(DatasetKind::OpenBookQa), 4, 4, 42);
    let plan = HybridParallelism {
        tp: 2,
        pp: 2,
        dp: 1,
    };
    let cfg = PlannerConfig::muxtune(plan, 4);
    let report = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("fig14 scenario plans");
    let (_, ops) = report
        .plan
        .run_traced(&reg, &cluster)
        .expect("its plan runs");
    (report, ops, cluster.num_gpus())
}

/// The task count the `planner-scale` CI gate measures at.
pub const PLANNER_SCALE_M: usize = 1024;

/// Registry of `m` varied-shape LoRA tasks on an 8-layer backbone for the
/// `planner-scale` scenario. No corpora are attached: fusion runs on the
/// padded range-prober path, which is exactly the hot path the scale gate
/// times. The rank-1024 adapters carry enough optimizer state that only
/// narrow task ranges fit in one hTask — the memory-tight multi-tenant
/// regime the DP's feasibility pruning is built for.
pub fn planner_scale_registry(m: usize) -> TaskRegistry {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
    for i in 0..m {
        let seq = [64usize, 128, 256][i % 3];
        reg.register_task(PeftTask::lora(i as TaskId + 1, 1024, 1 + i % 4, seq))
            .expect("fresh ids");
    }
    reg
}

/// The planner-scale device: one spec every planner-scale cost model borrows.
static PLANNER_SCALE_GPU: LazyLock<GpuSpec> = LazyLock::new(GpuSpec::a40);

fn planner_scale_cost_model(reg: &TaskRegistry) -> CostModel<'_> {
    CostModel::new(reg, &PLANNER_SCALE_GPU, HybridParallelism::pipeline(4))
}

/// One timed planner hot-path pass at `m` tasks: cold-planner DP fusion
/// (Eq. 6) over the padded prober, then Eq. 7 grouping of the fused hTasks.
/// Returns wall-clock seconds.
pub fn planner_scale_seconds(m: usize) -> f64 {
    let reg = planner_scale_registry(m);
    let cm = planner_scale_cost_model(&reg);
    let tasks: Vec<&PeftTask> = reg.tasks().collect();
    let build = RangeBuild::Padded { micro_batches: 4 };
    let start = Instant::now();
    let plan = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build)
        .expect("padded scale workload is feasible");
    let grouping = group_htasks(&cm, &plan.htasks);
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box((plan.htasks.len(), grouping.estimated));
    secs
}

/// The same `m`-task workload through the retained seed O(M³) DP
/// ([`fuse_dp_seed`], no grouping), for the `planner-scale` speedup
/// comparison. Slow by design — keep `m` modest unless you mean it.
pub fn planner_scale_seed_seconds(m: usize) -> f64 {
    let reg = planner_scale_registry(m);
    let cm = planner_scale_cost_model(&reg);
    let tasks: Vec<&PeftTask> = reg.tasks().collect();
    let build = RangeBuild::Padded { micro_batches: 4 };
    let start = Instant::now();
    let plan = fuse_dp_seed(&cm, &tasks, &build).expect("padded scale workload is feasible");
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(plan.htasks.len());
    secs
}

/// The `planner-scale` CI measurement: best-of-3 planning wall time at
/// [`PLANNER_SCALE_M`] tasks reported as the makespan. Utilization and
/// stall share are pinned at their ideal values so only the wall-time axis
/// gates.
pub fn planner_scale_measurement() -> PerfMeasurement {
    let secs = (0..3)
        .map(|_| planner_scale_seconds(PLANNER_SCALE_M))
        .fold(f64::INFINITY, f64::min);
    PerfMeasurement {
        makespan_seconds: secs,
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// Task count of the `churn-replay` CI gate (the mid-size point of the
/// incremental-replanning tentpole).
pub const CHURN_M: usize = 4096;

/// Membership deltas the `churn-replay` gate applies against the warm
/// planner (1000 arrivals/cancellations, replanning after each).
pub const CHURN_DELTAS: usize = 1000;

/// Task count of the `planner-incremental` CI gate (the large point:
/// warm fill plus a burst of deltas at 16384 tasks).
pub const PLANNER_INCREMENTAL_M: usize = 16384;

/// Deltas the `planner-incremental` gate applies after the warm fill.
pub const PLANNER_INCREMENTAL_DELTAS: usize = 32;

/// xorshift64* step — the deterministic churn schedule (no external RNG).
fn churn_rng(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// A fresh planner-scale-shaped task for churn id `id`.
fn churn_task(id: TaskId) -> PeftTask {
    let i = id as usize;
    PeftTask::lora(id, 1024, 1 + i % 4, [64usize, 128, 256][i % 3])
}

/// Warm-fills an [`IncrementalPlanner`] with the planner-scale workload
/// at `m` tasks and plans once (the fill is *not* timed), then applies
/// `deltas` pseudo-random arrivals/cancellations — replanning after
/// every single delta — and returns the total replan wall time. This is
/// the steady-state multi-tenant regime the tentpole targets: each delta
/// invalidates only the ranges crossing its sorted position, so the
/// per-delta cost is bounded by the row width, not by M.
pub fn churn_replay_seconds(m: usize, deltas: usize) -> f64 {
    let mut reg = planner_scale_registry(m);
    let build = RangeBuild::Padded { micro_batches: 4 };
    let mut inc = IncrementalPlanner::new();
    let mut live: Vec<TaskId> = Vec::with_capacity(m + deltas);
    let seed: Vec<PeftTask> = reg.tasks().cloned().collect();
    for t in seed {
        live.push(t.id);
        inc.insert(t, 0);
    }
    inc.plan(&planner_scale_cost_model(&reg), &build)
        .expect("planner-scale churn is feasible");
    let mut next_id = m as TaskId + 1;
    let mut state = 0x9E37_79B9_7F4A_7C15u64;
    let start = Instant::now();
    for _ in 0..deltas {
        let r = churn_rng(&mut state);
        // ~50/50 arrivals vs cancellations, never draining below half.
        if r & 1 == 0 || live.len() <= m / 2 {
            let task = churn_task(next_id);
            reg.register_task(task.clone()).expect("fresh id");
            inc.insert(task, 0);
            live.push(next_id);
            next_id += 1;
        } else {
            let victim = live.swap_remove((r >> 1) as usize % live.len());
            reg.deregister_task(victim).expect("victim registered");
            assert!(inc.remove(victim), "victim is live");
        }
        // The cost model borrows the registry, so it is rebuilt after each
        // delta and its stage-table build is timed with the replan (the
        // service's estimator builds those tables once per context).
        let cm = planner_scale_cost_model(&reg);
        let plan = inc.plan(&cm, &build).expect("churn stays feasible");
        std::hint::black_box(plan.htasks.len());
    }
    start.elapsed().as_secs_f64()
}

/// One from-scratch (cold-planner) DP fusion over the live churn membership
/// at `m` tasks — what every delta would cost without the warm planner
/// (the [`fuse_tasks`] call behind `ReplanMode::Estimate`). Multiply by
/// the delta count for the from-scratch churn total.
pub fn churn_scratch_fusion_seconds(m: usize) -> f64 {
    let reg = planner_scale_registry(m);
    let cm = planner_scale_cost_model(&reg);
    let tasks: Vec<&PeftTask> = reg.tasks().collect();
    let build = RangeBuild::Padded { micro_batches: 4 };
    let start = Instant::now();
    let plan =
        fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("scale workload is feasible");
    let secs = start.elapsed().as_secs_f64();
    std::hint::black_box(plan.htasks.len());
    secs
}

/// The `churn-replay` CI measurement: total wall time of
/// [`CHURN_DELTAS`] warm-planner replans at [`CHURN_M`] tasks, reported
/// as the makespan. A single run — the warm fill already dominates
/// best-of-N — with utilization/stall pinned so only wall time gates.
pub fn churn_replay_measurement() -> PerfMeasurement {
    PerfMeasurement {
        makespan_seconds: churn_replay_seconds(CHURN_M, CHURN_DELTAS),
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// The `planner-incremental` CI measurement: cold fill plus
/// [`PLANNER_INCREMENTAL_DELTAS`] warm deltas at
/// [`PLANNER_INCREMENTAL_M`] tasks — the scale point where the trimmed
/// per-range rows (feasible-prefix storage) keep the tables far below
/// the dense O(M²) footprint. Utilization/stall pinned; wall time gates.
pub fn planner_incremental_measurement() -> PerfMeasurement {
    let start = Instant::now();
    let secs = churn_replay_seconds(PLANNER_INCREMENTAL_M, PLANNER_INCREMENTAL_DELTAS);
    std::hint::black_box(secs);
    PerfMeasurement {
        makespan_seconds: start.elapsed().as_secs_f64(),
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// Ticks the service-telemetry scenario runs for (`report --journal-out`
/// / `--watch` defaults).
pub const SERVICE_TELEMETRY_TICKS: usize = 60;

/// Simulated seconds per tick of the service-telemetry scenario.
pub const SERVICE_TELEMETRY_DT: f64 = 0.05;

/// Tick at which [`service_telemetry_step`] injects the co-tenant storm.
pub const SERVICE_TELEMETRY_STORM_TICK: u64 = 20;

/// The streaming-telemetry reference scenario: an 8-GPU A40 pool
/// (8-layer backbones for speed) with monitoring on, seeded with a
/// steady co-tenant pair, one best-effort long job, and one job whose
/// SLO is hopeless — so a full run always exercises the `slo_burn` rule,
/// and the mid-run storm injected by [`service_telemetry_step`] exercises
/// `throughput_drop` on the victim.
pub fn service_telemetry_scenario() -> mux_api::FineTuneService {
    let mut cfg = mux_api::ServiceConfig::a40_pool(8);
    cfg.backbone_layers = Some(8);
    let mut svc = mux_api::FineTuneService::new(cfg);
    svc.enable_monitoring(mux_api::MonitorConfig::default());
    let spec =
        |tokens: u64| mux_api::JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, 4, tokens);
    svc.submit(spec(40_000_000));
    svc.submit(spec(40_000_000));
    svc.submit(spec(40_000_000).with_slo(0.5)); // hopeless: burns from tick 1
    svc
}

/// Advances the telemetry scenario by one tick, injecting a co-tenant
/// storm (a burst of arrivals on the shared backbone) at
/// [`SERVICE_TELEMETRY_STORM_TICK`] so the established jobs' throughput
/// collapses mid-run.
pub fn service_telemetry_step(svc: &mut mux_api::FineTuneService) {
    if svc.current_tick() == SERVICE_TELEMETRY_STORM_TICK {
        for _ in 0..5 {
            svc.submit(mux_api::JobSpec::lora(
                "LLaMA2-7B",
                DatasetKind::OpenBookQa,
                16,
                4,
                40_000_000,
            ));
        }
    }
    svc.tick(SERVICE_TELEMETRY_DT);
}

/// The `telemetry-overhead` CI measurement: best-of-3 wall time of 2M
/// **disabled-path** `record_histogram` calls (the metric-write path
/// instrumented code pays when collection is off), reported as the
/// makespan. Utilization and stall share are pinned so only the
/// wall-time axis gates.
pub fn telemetry_overhead_measurement() -> PerfMeasurement {
    const OPS: usize = 2_000_000;
    mux_obs::set_enabled(false);
    let secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..OPS {
                mux_obs::record_histogram("bench.telemetry.off", i as f64);
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    PerfMeasurement {
        makespan_seconds: secs,
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// Jobs in the `trace-replay` CI gate scenario (10⁴ — the scale the
/// workload tentpole promises; the criterion bench also covers 10⁵).
pub const TRACE_REPLAY_JOBS: usize = 10_000;

/// Seed of the `trace-replay` gate trace (matches the golden trace).
pub const TRACE_REPLAY_SEED: u64 = 42;

/// The `trace-replay` CI measurement: wall time of one full 10⁴-job FCFS
/// trace replay (generation excluded), reported as the makespan. A single
/// run — the scenario takes tens of seconds, so best-of-N would dominate
/// the gate, and its 3× relative tolerance absorbs host noise anyway.
/// Utilization and stall share are pinned at their ideal values so only
/// the wall-time axis gates.
pub fn trace_replay_measurement() -> PerfMeasurement {
    let cfg = mux_workload::TraceConfig::standard(TRACE_REPLAY_JOBS);
    let trace = mux_workload::generate(TRACE_REPLAY_SEED, &cfg);
    let opts = mux_workload::ReplayOptions::default();
    let start = Instant::now();
    let report = mux_workload::replay_trace_by_name(&trace, "fcfs", &opts)
        .expect("golden-seed trace replays");
    std::hint::black_box(report.journal_fingerprint);
    PerfMeasurement {
        makespan_seconds: start.elapsed().as_secs_f64(),
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// Requests in the `serve-mix` gate scenario (the CLI's release leg runs
/// 10⁴; the gate uses a smaller mix so the perf job stays fast).
pub const SERVE_MIX_REQUESTS: usize = 2_000;

/// The `serve-mix` CI measurement: wall time of one mixed
/// training+serving run at the golden seed (generation included — it is
/// a negligible slice of the run). A single run under the 3× wall-time
/// tolerance, like `trace-replay`. The scenario's `serving_requests` /
/// `serving_prefill_batches` / `serving_decode_tokens` work counters are
/// deterministic, so the baseline additionally carries exact work
/// budgets — any drift in what the serving runtime does per request
/// fails the gate until re-blessed.
pub fn serve_mix_measurement() -> PerfMeasurement {
    let cfg = mux_workload::ServeMixConfig::standard(SERVE_MIX_REQUESTS);
    let start = Instant::now();
    let report = mux_workload::run_serve_mix(&cfg).expect("golden-seed serve mix drains");
    std::hint::black_box(report.fingerprint);
    PerfMeasurement {
        makespan_seconds: start.elapsed().as_secs_f64(),
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// The `sketch-overhead` CI measurement: best-of-3 wall time of 2M
/// quantile-sketch inserts plus a 64-way shard merge — the hot path the
/// registry histograms and the replay report run instead of exact-sample
/// quantiles. Gated at wall-time tolerance so an accidentally
/// super-constant insert (e.g. a rebucketing loop) fails CI. Utilization
/// and stall share are pinned so only the wall-time axis gates.
pub fn sketch_overhead_measurement() -> PerfMeasurement {
    const OPS: usize = 2_000_000;
    const SHARDS: usize = 64;
    let secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            let mut shards: Vec<mux_obs::QuantileSketch> = (0..SHARDS)
                .map(|_| mux_obs::QuantileSketch::default())
                .collect();
            // xorshift64 log-uniform stream: deterministic, spans ~6
            // decades so every insert exercises the log-bucket math.
            let mut state = 0x9e37_79b9_7f4a_7c15u64;
            for i in 0..OPS {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                shards[i % SHARDS].insert(10f64.powf(u * 6.0 - 3.0));
            }
            let mut merged = mux_obs::QuantileSketch::default();
            for s in &shards {
                merged.merge(s).expect("shards share one alpha");
            }
            std::hint::black_box(merged.quantile(0.99));
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    PerfMeasurement {
        makespan_seconds: secs,
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// The `profile-overhead` CI measurement: best-of-3 wall time of 2M
/// **disabled-path** profiler touches — a `span` attempt plus a [`work`]
/// counter add per iteration, both of which must reduce to a single
/// relaxed atomic load while profiling is off. Gated at wall-time
/// tolerance so an accidental allocation or lock on the disabled path
/// fails CI. Utilization and stall share are pinned so only the
/// wall-time axis gates.
///
/// [`work`]: mux_obs::profile::work
pub fn profile_overhead_measurement() -> PerfMeasurement {
    const OPS: usize = 2_000_000;
    mux_obs::set_enabled(false);
    mux_obs::profile::set_profiling(false);
    let secs = (0..3)
        .map(|_| {
            let start = Instant::now();
            for i in 0..OPS {
                let s = mux_obs::span("bench.profile.off");
                debug_assert!(s.is_none());
                std::hint::black_box(&s);
                mux_obs::profile::work("bench.profile.noop", i as u64 & 1);
            }
            start.elapsed().as_secs_f64()
        })
        .fold(f64::INFINITY, f64::min);
    PerfMeasurement {
        makespan_seconds: secs,
        mean_utilization: 1.0,
        stall_share: 0.0,
    }
}

/// Directory to drop self-profile artifacts into; when set, benches (and
/// `report --profile-out`) emit the call-tree profile of their headline
/// scenario. Mirrors [`TRACE_DIR_ENV`].
pub const PROFILE_DIR_ENV: &str = "MUX_PROFILE_DIR";

/// Writes the three profile artifacts for the current
/// [`mux_obs::profile::snapshot_profile`] next to `base`:
/// `<base>` (full JSON), `<base>` with the extension swapped to
/// `work.json` (the bitwise-deterministic work profile), `collapsed`
/// (flamegraph.pl collapsed stacks), and `chrome.json` (Chrome/Perfetto
/// trace). Returns the paths written.
pub fn write_profile_artifacts(base: &std::path::Path) -> std::io::Result<Vec<PathBuf>> {
    if let Some(dir) = base.parent() {
        if !dir.as_os_str().is_empty() {
            fs::create_dir_all(dir)?;
        }
    }
    let snap = mux_obs::profile::snapshot_profile();
    let mut written = Vec::new();
    fs::write(base, mux_obs::profile::profile_json(&snap))?;
    written.push(base.to_path_buf());
    let work = base.with_extension("work.json");
    fs::write(&work, mux_obs::profile::work_profile_json(&snap))?;
    written.push(work);
    let collapsed = base.with_extension("collapsed");
    fs::write(&collapsed, mux_obs::profile::collapsed_stacks(&snap))?;
    written.push(collapsed);
    let chrome = base.with_extension("chrome.json");
    let rows = mux_obs_analysis::parse_profile(&mux_obs::profile::profile_json(&snap))
        .expect("freshly rendered profile parses");
    fs::write(&chrome, mux_obs_analysis::profile_chrome_trace(&rows))?;
    written.push(chrome);
    Ok(written)
}

/// Profile-emission hook for the benches, mirroring [`dump_trace`]: when
/// [`PROFILE_DIR_ENV`] is set, returns a guard that profiles everything
/// until drop and then writes `<dir>/<id>.profile.json` (+ `.work.json`,
/// `.collapsed`, `.chrome.json`). No-op (and `None`) when unset.
pub fn dump_profile(id: &str) -> Option<ProfileDump> {
    let dir = PathBuf::from(std::env::var_os(PROFILE_DIR_ENV)?);
    mux_obs::profile::reset_profile();
    mux_obs::profile::set_profiling(true);
    Some(ProfileDump {
        id: id.to_string(),
        dir,
    })
}

/// Guard returned by [`dump_profile`]; writes the artifacts on drop.
#[must_use = "profiling stops and artifacts are written when the guard drops"]
pub struct ProfileDump {
    id: String,
    dir: PathBuf,
}

impl Drop for ProfileDump {
    fn drop(&mut self) {
        mux_obs::profile::set_profiling(false);
        let base = self.dir.join(format!("{}.profile.json", self.id));
        match write_profile_artifacts(&base) {
            Ok(paths) => {
                for p in paths {
                    println!("  [profile] wrote {}", p.display());
                }
            }
            Err(e) => eprintln!("  [profile] failed to write {}: {e}", base.display()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let a = table2_workload('A');
        assert_eq!(a.len(), 8);
        assert_eq!(a[0], (DatasetKind::Sst2, 4));
        assert_eq!(a[4], (DatasetKind::Sst2, 8));
        let b = table2_workload('B');
        assert_eq!(b[0], (DatasetKind::Rte, 4));
        assert_eq!(b[7], (DatasetKind::Rte, 4));
    }

    #[test]
    fn workload_builder_counts() {
        let (reg, corp) = build_workload(&ModelConfig::gpt3_2_7b(), Combo::NonUniform, 6, 4, 1);
        assert_eq!(reg.len(), 6);
        assert_eq!(corp.len(), 6);
    }

    #[test]
    fn planner_scale_scenario_plans_at_small_m() {
        let fast = planner_scale_seconds(16);
        let seed = planner_scale_seed_seconds(16);
        assert!(fast.is_finite() && fast >= 0.0);
        assert!(seed.is_finite() && seed >= 0.0);
    }
}
