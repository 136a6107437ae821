//! The end-to-end execution planner: data alignment → task fusion (DP) →
//! hTask grouping → structured template → engine run. This is the
//! "Execution Planner" box of the paper's Fig 6, with every component
//! individually toggleable for the §5.3 ablations. Every planning path
//! returns its decision as a [`Plan`]; [`Plan::run_traced`] runs it again.

use std::collections::{BTreeMap, HashMap};
use std::sync::RwLock;
use std::time::Instant;

use mux_data::align::{
    align_task, unit_len, AlignError, AlignStrategy, AlignedBatch, TaskAlignment, TaskData,
};
use mux_gpu_sim::spec::GpuSpec;
use mux_gpu_sim::timeline::{Cluster, OomError, OpKind, OpRecord};
use mux_model::config::ModelConfig;
use mux_obs::fingerprint::Fnv1a;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, PeftType, TaskId};

use crate::cost::{CostModel, StageTables};
use crate::engine::{EngineOptions, MuxEngine, RunMetrics};
use crate::error::PlanError;
use crate::fusion::{
    fuse_tasks, FusionPlan, FusionPolicy, IncrementalPlanner, IncrementalStats, RangeBuild,
};
use crate::grouping::{group_htasks, Grouping};
use crate::htask::HTask;

/// Planner configuration.
#[derive(Debug, Clone)]
pub struct PlannerConfig {
    /// Parallelism plan.
    pub plan: HybridParallelism,
    /// Unified micro-batch count `C` per hTask (§3.3).
    pub micro_batches: usize,
    /// Data alignment strategy (§3.5; `ZeroPadGlobalMax` = "-CA" ablation).
    pub align: AlignStrategy,
    /// Task fusion policy (`AllTemporal` ≈ "-TF" ablation).
    pub fusion: FusionPolicy,
    /// Engine toggles (orchestration, overlap, fusion kernels).
    pub options: EngineOptions,
}

impl PlannerConfig {
    /// Full MuxTune defaults for a given plan.
    pub fn muxtune(plan: HybridParallelism, micro_batches: usize) -> Self {
        Self {
            plan,
            micro_batches,
            align: AlignStrategy::ChunkBased { min_chunk: 64 },
            fusion: FusionPolicy::Dp,
            options: EngineOptions::default(),
        }
    }
}

/// An execution plan: everything needed to run it again.
#[derive(Debug, Clone)]
pub struct Plan {
    /// The fusion decision.
    pub fusion: FusionPlan,
    /// The Eq. 7 grouping of `fusion`'s hTasks into buckets.
    pub grouping: Grouping,
    /// The parallelism the plan runs under.
    pub parallelism: HybridParallelism,
    /// The configured engine toggles, `overlap_comm` set to the chosen
    /// launch mode. A zero `max_in_flight` is resolved when the plan runs.
    pub options: EngineOptions,
}

impl Plan {
    /// What running the plan builds: its engine options, with template
    /// rule 3 applied, and its units, each one engine's buckets of hTasks.
    fn engine_units(&self, cm: &CostModel<'_>) -> (EngineOptions, Vec<Vec<Vec<HTask>>>) {
        let buckets: Vec<Vec<HTask>> = self
            .grouping
            .buckets
            .iter()
            .map(|b| b.iter().map(|&i| self.fusion.htasks[i].clone()).collect())
            .collect();
        // Template rule 3: derive the in-flight cap from the memory model —
        // temporally interleaved buckets share the budget, so the cap counts
        // resident pipeline *cells*, not per-hTask copies — and never below
        // the pipeline depth.
        let mut options = self.options;
        if options.max_in_flight == 0 {
            options.max_in_flight = cm.max_in_flight(&buckets).max(self.parallelism.pp);
        }
        // Disabling orchestration (-OO) removes *both* tiers of §3.4: no
        // Algorithm-1 interleaving inside a bucket (engine flag) and no
        // inter-stage interleaving across buckets — each bucket runs as its
        // own pipeline, back to back.
        let units = if options.orchestrate {
            vec![buckets]
        } else {
            buckets.into_iter().map(|b| vec![b]).collect()
        };
        (options, units)
    }

    /// Runs the plan on `cluster` with tracing on, returning its metrics
    /// (bit for bit those [`plan_and_run`] measured, if it chose the plan)
    /// and operator trace. With orchestration off the per-bucket traces
    /// are concatenated on a shifted time axis, each op keeping the bucket
    /// it ran in. Compute and collective op durations feed the
    /// `engine.compute_op_seconds` / `engine.collective_seconds`
    /// histograms.
    ///
    /// # Errors
    /// The OOM that aborted a unit, possible for a plan only estimated.
    pub fn run_traced(
        &self,
        registry: &TaskRegistry,
        cluster: &Cluster,
    ) -> Result<(RunMetrics, Vec<OpRecord>), OomError> {
        let cm = CostModel::new(registry, &cluster.gpus[0], self.parallelism);
        let (options, units) = self.engine_units(&cm);
        let mut parts: Vec<RunMetrics> = Vec::with_capacity(units.len());
        let mut records: Vec<OpRecord> = Vec::new();
        let mut buckets_before = 0;
        for unit in &units {
            let eng = MuxEngine::new(registry, cluster, self.parallelism, unit, options);
            let (m, t) = eng.run_traced()?;
            let t_off = parts.iter().map(|p| p.makespan).sum();
            append_shifted(&mut records, t, t_off, buckets_before);
            buckets_before += unit.len();
            parts.push(m);
        }
        for op in records.iter().filter(|op| op.end > op.start) {
            let dur = op.end - op.start;
            match op.kind {
                OpKind::Compute => mux_obs::record_histogram("engine.compute_op_seconds", dur),
                OpKind::Collective => mux_obs::record_histogram("engine.collective_seconds", dur),
                _ => {}
            }
        }
        Ok((merge_bucket_runs(&parts), records))
    }
}

/// The plan [`plan_and_run`] chose plus its measured outcome.
#[derive(Debug, Clone)]
pub struct MuxTuneReport {
    /// The winning plan.
    pub plan: Plan,
    /// Simulated run metrics.
    pub metrics: RunMetrics,
    /// Wall-clock planning overhead in seconds (the paper bounds it at
    /// ~10 s; ours is milliseconds because profiling is analytic).
    pub planning_seconds: f64,
}

/// Cost-model-only planning fast path: runs the Eq. 6 fusion DP and the
/// Eq. 7 grouping exactly like [`plan_and_run`], but derives effective
/// throughput from the grouped pipeline's Appendix-A latency estimate
/// instead of validating candidates on the simulator — no engine runs,
/// no launch-variant sweep. Feasibility (memory, degenerate workloads)
/// is still proven by the fusion DP, so the error surface matches
/// [`plan_and_run`]. Two orders of magnitude cheaper per call; the
/// high-job-count trace replayer (`mux-workload`) runs the service in
/// this mode to reach 10⁴–10⁵ job replays.
///
/// Returns estimated effective tokens per second and the DP's plan. The
/// estimate assumes overlapped communication, so the plan keeps the
/// config's launch mode.
pub fn plan_estimate(
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Result<(f64, Plan), PlanError> {
    let _total_span = mux_obs::span("planner.estimate");
    let cm = CostModel::new(registry, &cluster.gpus[0], cfg.plan);
    let tasks: Vec<&PeftTask> = registry.tasks().collect();
    if tasks.is_empty() {
        return Err(PlanError::NoTasks);
    }
    let packs = PackMemo::default();
    let fusion = with_range_build(corpora, cfg, &packs, |build| {
        fuse_tasks(&cm, &tasks, cfg.fusion, build)
    })?;
    Ok(estimate(&cm, fusion, cfg))
}

/// Each task's alignment at every row length a candidate range has asked
/// for. Fusion builds O(M²) overlapping ranges but they align to few
/// distinct units, and one task's alignment at a unit depends on no other
/// member ([`align_task`]), so a range build packs only the `(task, unit)`
/// pairs no earlier range has. Shared by the parallel row fan-out of
/// [`IncrementalPlanner::plan`], hence the lock; a racing miss computes the
/// same value twice.
#[derive(Default)]
struct PackMemo {
    packs: RwLock<HashMap<(TaskId, usize), TaskAlignment>>,
    /// The fingerprint each task's packings were computed under.
    fps: HashMap<TaskId, u64>,
}

impl PackMemo {
    /// `task`'s alignment of corpus `lens` at row length `unit`.
    fn align(
        &self,
        task: &PeftTask,
        lens: &[usize],
        strategy: AlignStrategy,
        unit: usize,
    ) -> Result<TaskAlignment, AlignError> {
        let key = (task.id, unit);
        if let Some(a) = self.packs.read().expect("pack memo lock").get(&key) {
            return Ok(a.clone());
        }
        let data = TaskData {
            task: task.id,
            seq_lens: lens.to_vec(),
            cap: task.seq_len,
        };
        let a = align_task(&data, strategy, unit)?;
        self.packs
            .write()
            .expect("pack memo lock")
            .insert(key, a.clone());
        Ok(a)
    }

    /// Keeps only the packings of tasks still in `items` under the same
    /// fingerprint ([`task_fingerprint`]).
    fn sync(&mut self, items: &[(PeftTask, u64)]) {
        let want: HashMap<TaskId, u64> = items.iter().map(|(t, fp)| (t.id, *fp)).collect();
        let fps = &self.fps;
        self.packs
            .get_mut()
            .expect("pack memo lock")
            .retain(|(id, _), _| want.get(id).is_some_and(|fp| fps.get(id) == Some(fp)));
        self.fps = want;
    }
}

/// Runs `f` with the range builder every planning path fuses with: each
/// candidate range is packed from its members' corpora through data
/// alignment when all of them have one, and padded otherwise. Without
/// corpora every range is the canonical padded build, which lets the
/// fusion DP prove memory feasibility in O(1) per range.
///
/// Corpus-backed ranges equal [`HTask::fuse`] field for field: both take
/// the range's unit length from the member caps and align each member at
/// it; here each member's alignment comes from `packs`.
fn with_range_build<R>(
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
    packs: &PackMemo,
    f: impl FnOnce(&RangeBuild<'_>) -> R,
) -> R {
    let (mbs, strategy) = (cfg.micro_batches, cfg.align);
    if corpora.is_empty() {
        return f(&RangeBuild::Padded { micro_batches: mbs });
    }
    let custom = |members: &[&PeftTask]| -> Result<HTask, PlanError> {
        if !members.iter().all(|t| corpora.contains_key(&t.id)) {
            return Ok(HTask::from_padded(members, mbs));
        }
        let caps: Vec<usize> = members.iter().map(|t| t.seq_len).collect();
        let unit_len = unit_len(strategy, &caps)?;
        let tasks = members
            .iter()
            .map(|t| packs.align(t, &corpora[&t.id], strategy, unit_len))
            .collect::<Result<_, _>>()?;
        let aligned = AlignedBatch {
            strategy,
            unit_len,
            tasks,
        };
        Ok(HTask::from_aligned(members, &aligned, mbs))
    };
    f(&RangeBuild::Custom(&custom))
}

/// The Appendix-A throughput estimate of a fusion plan: Eq. 7 grouping,
/// then effective content per round over the grouped pipeline's estimated
/// round latency, beside the plan it prices. Shared by [`plan_estimate`]
/// and [`IncrementalEstimator`] so the two paths are arithmetic-identical
/// by construction.
fn estimate(cm: &CostModel<'_>, fusion: FusionPlan, cfg: &PlannerConfig) -> (f64, Plan) {
    let grouping = group_htasks(cm, &fusion.htasks);
    // Effective content per round: every hTask runs its micro-batches
    // once per round, each carrying `total_tokens` of which
    // `effective_fraction` is real (non-padding) content.
    let effective_per_round: f64 = fusion
        .htasks
        .iter()
        .map(|h| h.total_tokens() as f64 * h.micro_batches as f64 * h.effective_fraction)
        .sum();
    let throughput = effective_per_round / grouping.estimated.max(1e-9);
    let plan = Plan {
        fusion,
        grouping,
        parallelism: cfg.plan,
        options: cfg.options,
    };
    (throughput, plan)
}

/// Content fingerprint of one task for the incremental planner's
/// membership diff: every `PeftTask` field the estimate reads (PEFT type
/// and its parameter, micro-batch, sequence cap) plus the task's corpus. A
/// changed fingerprint re-inserts the task, invalidating exactly the ranges
/// that contain it, and drops its memoized packings. An absent corpus
/// hashes apart from an empty one, so attaching or dropping a corpus is
/// also a content change.
fn task_fingerprint(task: &PeftTask, lens: Option<&Vec<usize>>) -> u64 {
    let (tag, param) = match task.peft {
        PeftType::LoRA { rank } => (0u8, rank as u64),
        PeftType::AdapterTuning { bottleneck } => (1, bottleneck as u64),
        PeftType::DiffPruning { sparsity } => (2, sparsity.to_bits()),
        PeftType::PrefixTuning { prefix_len } => (3, prefix_len as u64),
    };
    let mut h = Fnv1a::new();
    h.update(&[tag]);
    for v in [param, task.micro_batch as u64, task.seq_len as u64] {
        h.update(&v.to_le_bytes());
    }
    h.update(&[u8::from(lens.is_some())]);
    for &l in lens.into_iter().flatten() {
        h.update(&(l as u64).to_le_bytes());
    }
    h.finish()
}

/// Everything the estimate depends on *besides* membership and corpora: a
/// change (degraded plan after device loss, shrunk cluster, different
/// alignment or micro-batch count) invalidates every persisted range value,
/// so the estimator starts a fresh planner.
struct EstimateContext {
    align: AlignStrategy,
    micro_batches: usize,
    num_gpus: usize,
    gpu: Option<GpuSpec>,
    backbone: ModelConfig,
    /// The backbone's stage tables under the context's parallelism plan,
    /// built when the context is set and priced with by every estimate in
    /// it.
    tables: StageTables,
}

/// [`plan_estimate`] with persisted planner state: where [`plan_estimate`]
/// runs a cold [`IncrementalPlanner`] per call, this keeps one warm, so a
/// replan costs only the work the delta invalidated (and a replan with
/// *no* delta — e.g. a fault clear with unchanged membership — costs zero
/// range builds). Throughput results are bitwise-identical to
/// [`plan_estimate`] on the same membership: reused range values are the
/// same floats, and the recomputed DP suffix runs the same recurrence in
/// the same order.
///
/// Each estimate adds the ranges it built to the `planner.candidates`
/// counter, so a no-op replan leaves it flat.
///
/// One estimator serves one planning context (instance). A context change
/// — degraded parallelism plan, shrunk cluster, new alignment — is
/// detected by comparison with the context the planner was built under and
/// starts a fresh planner; a fusion policy other than [`FusionPolicy::Dp`]
/// falls back to [`plan_estimate`]. The cost model's stage tables read only
/// the backbone and the parallelism plan, so they are built once per
/// context, not once per estimate.
///
/// Each task's alignments persist across replans too, dropped when the
/// task leaves or its fingerprint (shape or corpus) changes.
#[derive(Default)]
pub struct IncrementalEstimator {
    planner: IncrementalPlanner,
    packs: PackMemo,
    ctx: Option<EstimateContext>,
    /// The most recent successful estimate, while the membership holds.
    cached: Option<(f64, Plan)>,
}

impl IncrementalEstimator {
    /// A fresh estimator with no persisted state.
    pub fn new() -> Self {
        Self::default()
    }

    /// The underlying planner's lifetime work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.planner.stats()
    }

    /// Estimated effective tokens per second for the current membership
    /// and the plan it prices — see [`plan_estimate`] for semantics and the
    /// error surface.
    pub fn estimate(
        &mut self,
        registry: &TaskRegistry,
        cluster: &Cluster,
        corpora: &BTreeMap<TaskId, Vec<usize>>,
        cfg: &PlannerConfig,
    ) -> Result<(f64, Plan), PlanError> {
        let _total_span = mux_obs::span("planner.estimate_incremental");
        if cfg.fusion != FusionPolicy::Dp {
            return plan_estimate(registry, cluster, corpora, cfg);
        }
        let items: Vec<(PeftTask, u64)> = registry
            .tasks()
            .map(|t| (t.clone(), task_fingerprint(t, corpora.get(&t.id))))
            .collect();
        if items.is_empty() {
            return Err(PlanError::NoTasks);
        }
        // Compared field by field; cloned only when it changed.
        let holds = self.ctx.as_ref().is_some_and(|c| {
            (c.tables.plan(), c.align, c.micro_batches, c.num_gpus)
                == (cfg.plan, cfg.align, cfg.micro_batches, cluster.num_gpus())
                && c.gpu.as_ref() == cluster.gpus.first()
                && c.backbone == *registry.backbone()
        });
        if !holds {
            self.planner = IncrementalPlanner::new();
            self.packs = PackMemo::default();
            self.ctx = Some(EstimateContext {
                align: cfg.align,
                micro_batches: cfg.micro_batches,
                num_gpus: cluster.num_gpus(),
                gpu: cluster.gpus.first().cloned(),
                backbone: registry.backbone().clone(),
                tables: StageTables::new(registry.backbone(), cfg.plan),
            });
            self.cached = None;
        }
        self.packs.sync(&items);
        if self.planner.sync(&items) == 0 {
            // No-op replan: unchanged membership, unchanged context. Serve
            // the cached estimate without touching the tables at all; only
            // the engine options, which the estimate never reads, come
            // from this call.
            if let Some((throughput, plan)) = &self.cached {
                self.planner.note_noop();
                let mut plan = plan.clone();
                plan.options = cfg.options;
                return Ok((*throughput, plan));
            }
        } else {
            self.cached = None;
        }
        let tables = &self.ctx.as_ref().expect("the context was set above").tables;
        let cm = CostModel::with_tables(registry, &cluster.gpus[0], tables);
        let before = self.planner.stats().ranges_built;
        let fusion = with_range_build(corpora, cfg, &self.packs, |build| {
            self.planner.plan(&cm, build)
        });
        let built = self.planner.stats().ranges_built - before;
        if built > 0 {
            mux_obs::incr_counter("planner.candidates", built);
        }
        let estimated = estimate(&cm, fusion?, cfg);
        self.cached = Some(estimated.clone());
        Ok(estimated)
    }
}

/// Shrinks a parallelism plan to fit on `devices` surviving GPUs after a
/// permanent device loss — the replan entry point the recovery path uses.
///
/// The original plan is kept verbatim when it still fits; otherwise the
/// plan degrades to a pure pipeline over the survivors (the smallest-memory
/// shape, maximising the chance the re-fused workload still fits) with no
/// more stages than the backbone's `layers`; survivors past that stay idle.
/// Returns `None` only when no device survives, in which case the caller
/// must shed.
pub fn degraded_plan(
    plan: HybridParallelism,
    devices: usize,
    layers: usize,
) -> Option<HybridParallelism> {
    if devices == 0 {
        return None;
    }
    if plan.num_gpus() <= devices {
        Some(plan)
    } else {
        Some(HybridParallelism::pipeline(devices.min(layers)))
    }
}

/// Appends one unit's `records` to `out`, shifting times by `t_off`,
/// dependency indices by `out`'s current length and cell buckets by
/// `b_off`: each unit's trace indexes its own op list and numbers its own
/// buckets from 0.
fn append_shifted(out: &mut Vec<OpRecord>, records: Vec<OpRecord>, t_off: f64, b_off: usize) {
    let base = out.len();
    let b_off = u32::try_from(b_off).expect("bucket index fits in u32");
    out.extend(records.into_iter().map(|mut r| {
        r.start += t_off;
        r.end += t_off;
        for d in r.deps.iter_mut() {
            *d += base;
        }
        if let Some(cell) = r.label.cell_mut() {
            cell.bucket += b_off;
        }
        r
    }));
}

/// Merges the metrics of units run back to back (one per bucket with
/// orchestration off): makespans, tokens and energy add, peak memory is the
/// per-device max, and the time averages — utilization and MFU — weight
/// each unit by its makespan, `Σ xᵢ·Tᵢ / Σ Tᵢ`. A single unit's metrics
/// (an orchestrated run) pass through.
fn merge_bucket_runs(parts: &[RunMetrics]) -> RunMetrics {
    let (first, rest) = parts.split_first().expect("at least one bucket exists");
    let mut acc = first.clone();
    if rest.is_empty() {
        return acc;
    }
    for m in rest {
        acc.makespan += m.makespan;
        acc.total_tokens += m.total_tokens;
        acc.effective_tokens += m.effective_tokens;
        for (p, q) in acc.peak_mem.iter_mut().zip(&m.peak_mem) {
            *p = (*p).max(*q);
        }
        acc.energy_joules += m.energy_joules;
    }
    acc.throughput = acc.total_tokens as f64 / acc.makespan;
    acc.effective_throughput = acc.effective_tokens as f64 / acc.makespan;
    let time_avg = |x: fn(&RunMetrics) -> f64| {
        parts.iter().map(|m| x(m) * m.makespan).sum::<f64>() / acc.makespan
    };
    acc.mean_utilization = time_avg(|m| m.mean_utilization);
    acc.mfu = time_avg(|m| m.mfu);
    acc.tokens_per_joule = if acc.energy_joules > 0.0 {
        acc.effective_tokens as f64 / acc.energy_joules
    } else {
        0.0
    };
    acc
}

/// Plans and runs all registered tasks of `registry` on `cluster`.
///
/// `corpora` supplies per-task raw sequence lengths for alignment-aware
/// fusion; tasks without a corpus fall back to padded-shape planning.
///
/// # Errors
/// Returns a typed [`PlanError`] — infeasible fusion, oversize sequence,
/// degenerate cost, engine OOM — instead of panicking, so multi-tenant
/// callers can reject the offending job while co-tenants keep running.
pub fn plan_and_run(
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Result<MuxTuneReport, PlanError> {
    let _total_span = mux_obs::span("planner.total");
    let t0 = Instant::now();
    let cm = CostModel::new(registry, &cluster.gpus[0], cfg.plan);
    let tasks: Vec<&PeftTask> = registry.tasks().collect();
    if tasks.is_empty() {
        return Err(PlanError::NoTasks);
    }

    // Candidate fusion plans. The Eq. 6 DP minimizes the *cost model's*
    // objective; like the paper's planner (which validates against offline
    // profiles), we validate the shortlist on the simulator and keep the
    // fastest — the DP result plus the two multiplexing extremes.
    let policies: Vec<FusionPolicy> = match cfg.fusion {
        FusionPolicy::Dp => vec![
            FusionPolicy::Dp,
            FusionPolicy::AllSpatial,
            FusionPolicy::AllTemporal,
        ],
        p => vec![p],
    };
    let mut best: Option<(Plan, RunMetrics)> = None;
    // Fusion-level errors (infeasible, oversize, degenerate) carry the
    // actionable reason; engine OOMs are the fallback diagnosis when every
    // policy that fused still failed to run.
    let mut plan_err: Option<PlanError> = None;
    let mut run_err: Option<OomError> = None;
    let packs = PackMemo::default();
    // Each distinct hTask list run so far, with the last OOM its runs hit.
    let mut tried: Vec<(Vec<HTask>, Option<OomError>)> = Vec::with_capacity(policies.len());
    for policy in policies {
        let fusion = {
            let _s = mux_obs::span("planner.fusion");
            let fused = with_range_build(corpora, cfg, &packs, |build| {
                fuse_tasks(&cm, &tasks, policy, build)
            });
            match fused {
                Ok(f) => f,
                Err(e) => {
                    plan_err.get_or_insert(e);
                    continue;
                }
            }
        };
        // Grouping and runs are functions of the hTask list, and a tie
        // keeps the earlier plan, so a fusion equal to an earlier one can
        // only repeat its outcome: the OOM its runs last hit, if any.
        if let Some((_, oom)) = tried.iter().find(|(h, _)| *h == fusion.htasks) {
            run_err = oom.clone().or(run_err);
            continue;
        }
        let grouping = {
            let _s = mux_obs::span("planner.grouping");
            group_htasks(&cm, &fusion.htasks)
        };
        let mut plan = Plan {
            fusion,
            grouping,
            parallelism: cfg.plan,
            options: cfg.options,
        };
        let (options, units) = plan.engine_units(&cm);
        // Overlapping communication pays a CTA/bandwidth toll (§3.4.3); it
        // only wins when the launch order has independent work to hide it
        // under. Evaluate both launch modes and keep the faster. The build
        // reads neither launch-mode knob, so the first launch builds each
        // unit's engine and the second reruns it. A run reads the launch
        // mode only to issue collectives, which a stage without tensor
        // parallelism never does, so at tp = 1 the blocking rerun would
        // return the same bits and lose the tie.
        let launches: &[bool] = match (options.overlap_comm, cfg.plan.tp > 1) {
            (true, true) => &[true, false],
            (true, false) => &[true],
            (false, _) => &[false],
        };
        let mut last_oom = None;
        let mut engines: Vec<MuxEngine<'_>> = Vec::with_capacity(units.len());
        for &overlap in launches {
            mux_obs::incr_counter("planner.candidates", 1);
            let _cand_span = mux_obs::span("planner.candidate_run");
            let outcome = units.iter().enumerate().map(|(i, unit)| {
                if i == engines.len() {
                    let eng = MuxEngine::new(registry, cluster, cfg.plan, unit, options);
                    engines.push(eng);
                }
                engines[i].set_overlap_comm(overlap);
                engines[i].run()
            });
            match outcome.collect::<Result<Vec<_>, _>>() {
                Ok(parts) => {
                    let metrics = merge_bucket_runs(&parts);
                    let score = metrics.effective_throughput;
                    if best
                        .as_ref()
                        .is_none_or(|(_, b)| score > b.effective_throughput)
                    {
                        plan.options.overlap_comm = overlap;
                        best = Some((plan.clone(), metrics));
                    }
                }
                Err(e) => last_oom = Some(e),
            }
        }
        run_err = last_oom.clone().or(run_err);
        tried.push((plan.fusion.htasks, last_oom));
    }
    let Some((plan, metrics)) = best else {
        return Err(plan_err
            .or(run_err.map(PlanError::Oom))
            .expect("at least one candidate was attempted"));
    };
    let report = MuxTuneReport {
        plan,
        metrics,
        planning_seconds: t0.elapsed().as_secs_f64(),
    };
    mux_obs::set_gauge("run.makespan_seconds", report.metrics.makespan);
    mux_obs::set_gauge("run.mean_utilization", report.metrics.mean_utilization);
    mux_obs::set_gauge(
        "run.effective_throughput",
        report.metrics.effective_throughput,
    );
    mux_obs::set_gauge("planner.planning_seconds", report.planning_seconds);
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fusion::fuse_dp_seed;
    use mux_data::corpus::{Corpus, DatasetKind};
    use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
    use mux_model::config::ModelConfig;

    fn registry(n: usize, seq: usize) -> TaskRegistry {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
        for i in 0..n {
            r.register_task(PeftTask::lora(i as TaskId + 1, 16, 4, seq))
                .expect("register");
        }
        r
    }

    fn corpora(r: &TaskRegistry, kind: DatasetKind) -> BTreeMap<TaskId, Vec<usize>> {
        r.tasks()
            .map(|t| (t.id, Corpus::generate(kind, 64, t.id as u64).lengths))
            .collect()
    }

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    #[test]
    fn end_to_end_plan_runs_and_reports() {
        let r = registry(4, 128);
        let c = cluster(4);
        let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
        let rep = plan_and_run(&r, &c, &corpora(&r, DatasetKind::OpenBookQa), &cfg)
            .expect("run succeeds");
        assert!(rep.metrics.makespan > 0.0);
        assert!(rep.metrics.throughput > 0.0);
        assert!(rep.metrics.effective_throughput <= rep.metrics.throughput);
        assert!(rep.metrics.mean_utilization > 0.0 && rep.metrics.mean_utilization <= 1.0);
        assert!(
            rep.metrics.mfu > 0.0 && rep.metrics.mfu < 1.0,
            "mfu {}",
            rep.metrics.mfu
        );
        assert!(rep.planning_seconds < 10.0, "planning overhead bound (§4)");
    }

    #[test]
    fn multiplexing_beats_sequential_single_task_runs() {
        // 4 small tasks co-scheduled must out-throughput running the same
        // 4 tasks one after another (the headline claim, in miniature).
        let r = registry(4, 64);
        let c = cluster(4);
        let muxed = plan_and_run(
            &r,
            &c,
            &BTreeMap::new(),
            &PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4),
        )
        .expect("muxed run");
        // Sequential: each task alone, summed makespans.
        let mut seq_time = 0.0;
        let mut seq_tokens = 0u64;
        for t in r.tasks() {
            let mut solo = TaskRegistry::new(r.backbone().clone());
            solo.register_task(t.clone()).expect("register");
            let rep = plan_and_run(
                &solo,
                &c,
                &BTreeMap::new(),
                &PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4),
            )
            .expect("solo run");
            seq_time += rep.metrics.makespan;
            seq_tokens += rep.metrics.total_tokens;
        }
        let seq_tp = seq_tokens as f64 / seq_time;
        assert!(
            muxed.metrics.throughput > seq_tp * 1.1,
            "muxed {} vs sequential {}",
            muxed.metrics.throughput,
            seq_tp
        );
    }

    #[test]
    fn disabling_orchestration_costs_throughput() {
        let r = registry(4, 128);
        let c = cluster(4);
        let base = PlannerConfig::muxtune(
            HybridParallelism {
                tp: 4,
                pp: 1,
                dp: 1,
            },
            4,
        );
        let full = plan_and_run(&r, &c, &BTreeMap::new(), &base).expect("full");
        let mut no_oo = base.clone();
        no_oo.options.overlap_comm = false;
        no_oo.options.orchestrate = false;
        let ablated = plan_and_run(&r, &c, &BTreeMap::new(), &no_oo).expect("ablated");
        assert!(
            full.metrics.throughput >= ablated.metrics.throughput,
            "orchestration must not hurt: {} vs {}",
            full.metrics.throughput,
            ablated.metrics.throughput
        );
    }

    #[test]
    fn running_the_chosen_plan_traced_reproduces_its_metrics() {
        let r = registry(4, 128);
        let c = cluster(4);
        let mut no_oo = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
        no_oo.options.orchestrate = false;
        no_oo.fusion = FusionPolicy::AllTemporal;
        for cfg in [
            PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4),
            no_oo,
        ] {
            let rep = plan_and_run(&r, &c, &corpora(&r, DatasetKind::Rte), &cfg).expect("plans");
            // Several buckets, so the -OO run concatenates several units.
            assert!(rep.plan.grouping.buckets.len() > 1);
            let (m, ops) = rep.plan.run_traced(&r, &c).expect("the chosen plan fits");
            assert_eq!(m.makespan.to_bits(), rep.metrics.makespan.to_bits());
            assert_eq!(
                m.effective_throughput.to_bits(),
                rep.metrics.effective_throughput.to_bits()
            );
            assert_eq!(m.mfu.to_bits(), rep.metrics.mfu.to_bits());
            assert_eq!(m.peak_mem, rep.metrics.peak_mem);
            let end = ops.iter().map(|op| op.end).fold(0.0, f64::max);
            assert!(
                (end - m.makespan).abs() <= 1e-9 * m.makespan,
                "{end} vs {}",
                m.makespan
            );
        }
    }

    #[test]
    fn chunked_alignment_raises_effective_throughput_on_mixed_lengths() {
        // Two SST2-ish tasks + two RTE-ish tasks: ZeroPad wastes compute.
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
        r.register_task(PeftTask::lora(1, 16, 4, 64)).expect("t1");
        r.register_task(PeftTask::lora(2, 16, 4, 64)).expect("t2");
        r.register_task(PeftTask::lora(3, 16, 4, 256)).expect("t3");
        r.register_task(PeftTask::lora(4, 16, 4, 256)).expect("t4");
        let mut corp = BTreeMap::new();
        for t in r.tasks() {
            let kind = if t.seq_len == 64 {
                DatasetKind::Sst2
            } else {
                DatasetKind::Rte
            };
            corp.insert(t.id, Corpus::generate(kind, 64, t.id as u64).lengths);
        }
        let c = cluster(4);
        let mut cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
        cfg.fusion = FusionPolicy::AllSpatial; // force inter-task alignment
        let chunked = plan_and_run(&r, &c, &corp, &cfg).expect("chunked");
        cfg.align = AlignStrategy::ZeroPadGlobalMax;
        let zeropad = plan_and_run(&r, &c, &corp, &cfg).expect("zeropad");
        assert!(
            chunked.metrics.effective_throughput > zeropad.metrics.effective_throughput,
            "chunked {} vs zeropad {}",
            chunked.metrics.effective_throughput,
            zeropad.metrics.effective_throughput
        );
    }

    #[test]
    fn oom_is_reported_not_panicked() {
        // Absurdly fat tasks on a small pipeline with forced AllSpatial:
        // the engine's ledger must surface OOM.
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        for i in 0..12 {
            r.register_task(PeftTask::lora(i + 1, 16, 64, 256))
                .expect("register");
        }
        let c = cluster(2);
        let mut cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(2), 8);
        cfg.fusion = FusionPolicy::AllSpatial;
        cfg.options.max_in_flight = 8;
        let res = plan_and_run(&r, &c, &BTreeMap::new(), &cfg);
        assert!(res.is_err(), "expected OOM");
    }

    #[test]
    fn reshaped_task_with_the_same_corpus_is_not_served_a_stale_plan() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for id in 1..=3 {
            r.register_task(PeftTask::lora(id, 16, 4, 128))
                .expect("register");
        }
        let corp = corpora(&r, DatasetKind::OpenBookQa);
        let (c, cfg) = (
            cluster(4),
            PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4),
        );
        let mut inc = IncrementalEstimator::new();
        let (before, _) = inc.estimate(&r, &c, &corp, &cfg).expect("estimate");
        let (scratch, _) = plan_estimate(&r, &c, &corp, &cfg).expect("scratch");
        assert_eq!(before.to_bits(), scratch.to_bits());
        // A no-op estimate is served from the cache with this call's options.
        let mut blocking = cfg.clone();
        blocking.options.overlap_comm = false;
        let (again, plan) = inc.estimate(&r, &c, &corp, &blocking).expect("estimate");
        assert_eq!(again.to_bits(), before.to_bits());
        assert!(!plan.options.overlap_comm && inc.stats().noop_plans == 1);
        // Same id, same corpus, new shape: a content change, not a no-op.
        r.deregister_task(2).expect("registered");
        r.register_task(PeftTask::lora(2, 64, 8, 128))
            .expect("register");
        let (after, _) = inc.estimate(&r, &c, &corp, &cfg).expect("estimate");
        let (scratch, _) = plan_estimate(&r, &c, &corp, &cfg).expect("scratch");
        assert_eq!(after.to_bits(), scratch.to_bits(), "{after} vs {scratch}");
        assert_ne!(after.to_bits(), before.to_bits());
    }

    #[test]
    fn estimator_drops_the_packings_of_departed_and_reshaped_tasks() {
        // Enough tasks that cold fills fan their rows out across threads,
        // all of them packing through one shared memo.
        let mut r = registry(crate::fusion::PAR_ROWS_MIN + 1, 128);
        let corp = corpora(&r, DatasetKind::OpenBookQa);
        let (c, cfg) = (
            cluster(4),
            PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4),
        );
        let mut inc = IncrementalEstimator::new();
        let mut check = |r: &TaskRegistry| {
            let (got, plan) = inc.estimate(r, &c, &corp, &cfg).expect("estimate");
            let (scratch, _) = plan_estimate(r, &c, &corp, &cfg).expect("scratch");
            assert_eq!(got.to_bits(), scratch.to_bits(), "{got} vs {scratch}");
            // The seed DP shares no code with the planner.
            let cm = CostModel::new(r, &c.gpus[0], cfg.plan);
            let tasks: Vec<&PeftTask> = r.tasks().collect();
            let seed = with_range_build(&corp, &cfg, &PackMemo::default(), |build| {
                fuse_dp_seed(&cm, &tasks, build)
            })
            .expect("seed");
            let fused = plan.fusion.predicted;
            assert_eq!(fused.to_bits(), seed.predicted.to_bits());
            let packs = inc.packs.packs.read().expect("pack memo lock");
            let packed = |id| packs.keys().filter(|(t, _)| *t == id).count();
            (packed(1), packed(3))
        };
        let (one, three) = check(&r);
        assert!(one > 0 && three > 0);
        r.deregister_task(3).expect("registered");
        let (one, three) = check(&r);
        assert!(one > 0, "unchanged tasks keep their packings");
        assert_eq!(three, 0, "a departed task's packings are dropped");
        // Same id and corpus, larger cap: its packing at a shared unit
        // changes, so a kept entry would skew the estimate.
        r.deregister_task(5).expect("registered");
        r.register_task(PeftTask::lora(5, 16, 4, 256))
            .expect("register");
        check(&r);
    }

    /// Field-for-field equality of two plans, floats by bit pattern.
    fn assert_same_plan(a: &Plan, b: &Plan) {
        assert_eq!(a.fusion.htasks.len(), b.fusion.htasks.len());
        for (x, y) in a.fusion.htasks.iter().zip(&b.fusion.htasks) {
            assert_same_htask(x, y);
        }
        assert_eq!(a.fusion.predicted.to_bits(), b.fusion.predicted.to_bits());
        assert_eq!(a.grouping.buckets, b.grouping.buckets);
        assert_eq!(
            a.grouping.estimated.to_bits(),
            b.grouping.estimated.to_bits()
        );
        assert_eq!(a.parallelism, b.parallelism);
        assert_eq!(format!("{:?}", a.options), format!("{:?}", b.options));
    }

    #[test]
    fn estimator_builds_stage_tables_once_per_context() {
        const ROOT: &str = "test.estimator_contexts";
        let c = cluster(4);
        let pp4 = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
        let pp2 = PlannerConfig::muxtune(HybridParallelism::pipeline(2), 4);
        let mut gpt = TaskRegistry::new(ModelConfig::gpt3_2_7b().with_layers(8));
        for i in 1..=3 {
            gpt.register_task(PeftTask::lora(i, 8, 2, 64 << (i % 3)))
                .expect("register");
        }
        // Profiling is process-wide; counting only the builds under this
        // test's own root span keeps other tests' cost models out.
        let _profiling = mux_obs::profile::profiling_scope();
        {
            let _root = mux_obs::span(ROOT);
            let mut inc = IncrementalEstimator::new();
            let mut check = |r: &TaskRegistry, cfg: &PlannerConfig| {
                let corp = corpora(r, DatasetKind::OpenBookQa);
                let (got, plan) = inc.estimate(r, &c, &corp, cfg).expect("estimate");
                let (cold, cold_plan) = plan_estimate(r, &c, &corp, cfg).expect("cold");
                assert_eq!(got.to_bits(), cold.to_bits(), "{got} vs {cold}");
                assert_same_plan(&plan, &cold_plan);
            };
            // pp4 → pp2 on one backbone, then another backbone; each
            // context sees an arrival, a departure and a no-op replan.
            for (mut r, cfg) in [
                (registry(3, 128), &pp4),
                (registry(3, 128), &pp2),
                (gpt, &pp4),
            ] {
                check(&r, cfg);
                r.register_task(PeftTask::lora(9, 32, 2, 256))
                    .expect("register");
                check(&r, cfg);
                r.deregister_task(1).expect("registered");
                check(&r, cfg);
                check(&r, cfg);
            }
        }
        let mut builds = 0;
        let snap = mux_obs::profile::snapshot_profile();
        mux_obs::profile::for_each_path(&snap, |path, node| {
            if path == [ROOT, "planner.estimate_incremental"] {
                builds += node.work.get("stage_tables_built").copied().unwrap_or(0);
            }
        });
        assert_eq!(builds, 3, "one table build per context, not per estimate");
    }

    fn run_metrics(makespan: f64, util: f64, mfu: f64, tokens: u64) -> RunMetrics {
        RunMetrics {
            makespan,
            total_tokens: tokens,
            effective_tokens: tokens / 2,
            throughput: tokens as f64 / makespan,
            effective_throughput: (tokens / 2) as f64 / makespan,
            mean_utilization: util,
            peak_mem: vec![tokens, 3 * tokens],
            mfu,
            energy_joules: 10.0 * makespan,
            tokens_per_joule: (tokens / 2) as f64 / (10.0 * makespan),
        }
    }

    #[test]
    fn bucket_merge_weights_time_averages_by_makespan() {
        let parts = [
            run_metrics(1.0, 0.9, 0.5, 1000),
            run_metrics(2.0, 0.3, 0.2, 4000),
            run_metrics(5.0, 0.6, 0.4, 2000),
        ];
        let m = merge_bucket_runs(&parts);
        // Σ xᵢ·Tᵢ / Σ Tᵢ; a pairwise (acc + x) / 2 fold gives 0.6 and 0.325.
        assert!((m.mean_utilization - (0.9 + 0.6 + 3.0) / 8.0).abs() < 1e-12);
        assert!((m.mfu - (0.5 + 0.4 + 2.0) / 8.0).abs() < 1e-12);
        assert_eq!(m.makespan, 8.0);
        assert_eq!((m.total_tokens, m.effective_tokens), (7000, 3500));
        assert_eq!(m.throughput, 7000.0 / 8.0);
        assert_eq!(m.effective_throughput, 3500.0 / 8.0);
        assert_eq!(m.peak_mem, vec![4000, 12000]);
        assert_eq!(m.energy_joules, 80.0);
        assert_eq!(m.tokens_per_joule, 3500.0 / 80.0);
        // A single bucket passes through untouched.
        let one = merge_bucket_runs(&parts[1..2]);
        assert_eq!(one.mean_utilization, 0.3);
        assert_eq!(one.tokens_per_joule, parts[1].tokens_per_joule);
    }

    /// Field-for-field equality, floats by bit pattern.
    fn assert_same_htask(a: &HTask, b: &HTask) {
        assert_eq!(a.tasks, b.tasks);
        assert_eq!(a.tokens_per_task, b.tokens_per_task, "{:?}", a.tasks);
        assert_eq!(a.unit_len, b.unit_len);
        assert_eq!(a.micro_batches, b.micro_batches);
        assert_eq!(
            a.effective_fraction.to_bits(),
            b.effective_fraction.to_bits()
        );
        assert_eq!(a.attn_context, b.attn_context);
        assert_eq!(a.attn_splits.to_bits(), b.attn_splits.to_bits());
    }

    #[test]
    fn memoized_range_builds_equal_htask_fuse() {
        // One membership with caps 64, 96, 128 and 256 (96 is not a power
        // of two, so the chunk rule's floor matters); corpora hold lengths
        // up to each cap.
        let caps = [64, 96, 128, 256, 128, 64, 256, 96];
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        let mut corp = BTreeMap::new();
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for (i, &cap) in caps.iter().enumerate() {
            let id = i as TaskId + 1;
            r.register_task(PeftTask::lora(id, 16, 1 + i % 4, cap))
                .expect("register");
            let lens: Vec<usize> = (0..24).map(|_| 1 + (next() as usize) % cap).collect();
            corp.insert(id, lens);
        }
        let all: Vec<&PeftTask> = r.tasks().collect();
        for align in [
            AlignStrategy::ZeroPadGlobalMax,
            AlignStrategy::PackOnly,
            AlignStrategy::ChunkBased { min_chunk: 64 },
            AlignStrategy::ChunkBased { min_chunk: 16 },
            AlignStrategy::ChunkExact { chunk: 48 },
        ] {
            let mut cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(2), 4);
            cfg.align = align;
            let packs = PackMemo::default();
            let mut units = std::collections::BTreeSet::new();
            for _ in 0..60 {
                let mask = next() as usize % (1 << all.len());
                let members: Vec<&PeftTask> = (0..all.len())
                    .filter(|i| mask >> i & 1 == 1)
                    .map(|i| all[i])
                    .collect();
                if members.is_empty() {
                    continue;
                }
                let lens: Vec<Vec<usize>> = members.iter().map(|t| corp[&t.id].clone()).collect();
                let want = HTask::fuse(&members, &lens, cfg.micro_batches, align).expect("fuse");
                let got = with_range_build(&corp, &cfg, &packs, |build| match build {
                    RangeBuild::Custom(f) => f(&members),
                    RangeBuild::Padded { .. } => unreachable!("corpus-backed"),
                })
                .expect("memoized build");
                assert_same_htask(&got, &want);
                units.insert(want.unit_len);
            }
            // Each (task, unit) was packed at most once across all builds.
            let packed = packs.packs.read().expect("lock").len();
            assert!(packed <= all.len() * units.len(), "{align:?}: {packed}");
        }
        // A zero chunk fails the same way on both paths.
        let mut cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(2), 4);
        cfg.align = AlignStrategy::ChunkExact { chunk: 0 };
        let lens: Vec<Vec<usize>> = all.iter().map(|t| corp[&t.id].clone()).collect();
        let want = HTask::fuse(&all, &lens, 4, cfg.align).expect_err("zero chunk");
        let got = with_range_build(&corp, &cfg, &PackMemo::default(), |build| match build {
            RangeBuild::Custom(f) => f(&all),
            RangeBuild::Padded { .. } => unreachable!("corpus-backed"),
        })
        .expect_err("zero chunk");
        assert_eq!(got, want);
    }

    #[test]
    fn degraded_plan_shrinks_to_survivors() {
        // A fitting plan is preserved verbatim.
        let p = HybridParallelism::pipeline(2);
        assert_eq!(degraded_plan(p, 4, 8), Some(p));
        assert_eq!(degraded_plan(p, 2, 8), Some(p));
        // An oversized plan collapses to a pipeline over the survivors.
        let big = HybridParallelism::pipeline(4);
        assert_eq!(
            degraded_plan(big, 3, 8),
            Some(HybridParallelism::pipeline(3))
        );
        assert_eq!(degraded_plan(big, 1, 8), Some(HybridParallelism::single()));
        // ...with no more stages than the backbone has layers.
        let wide = HybridParallelism {
            tp: 2,
            pp: 2,
            dp: 1,
        };
        assert_eq!(
            degraded_plan(wide, 3, 2),
            Some(HybridParallelism::pipeline(2))
        );
        assert_eq!(degraded_plan(wide, 4, 2), Some(wide));
        // No survivors: the caller must shed.
        assert_eq!(degraded_plan(big, 0, 8), None);
    }

    #[test]
    fn degraded_plan_still_runs_on_the_shrunk_cluster() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for i in 0..2 {
            r.register_task(PeftTask::lora(i + 1, 8, 4, 128))
                .expect("register");
        }
        // Lost one of 4 GPUs: replan onto 3 and run end-to-end.
        let plan = degraded_plan(HybridParallelism::pipeline(4), 3, 8).expect("survivors");
        let c = cluster(3);
        let rep = plan_and_run(&r, &c, &BTreeMap::new(), &PlannerConfig::muxtune(plan, 4))
            .expect("degraded run succeeds");
        assert!(rep.metrics.effective_throughput > 0.0);
    }
}
