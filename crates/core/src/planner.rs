//! The end-to-end execution planner: data alignment → task fusion (DP) →
//! hTask grouping → structured template → engine run. This is the
//! "Execution Planner" box of the paper's Fig 6, with every component
//! individually toggleable for the §5.3 ablations.

use std::collections::BTreeMap;
use std::time::Instant;

use mux_data::align::AlignStrategy;
use mux_gpu_sim::timeline::{Cluster, OomError, OpRecord};
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};

use crate::cost::CostModel;
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

/// Everything the planner decided plus the measured outcome.
#[derive(Debug, Clone)]
pub struct MuxTuneReport {
    /// The fusion decision.
    pub fusion: FusionPlan,
    /// The grouping decision.
    pub grouping: Grouping,
    /// Simulated run metrics.
    pub metrics: RunMetrics,
    /// Wall-clock planning overhead in seconds (the paper bounds it at
    /// ~10 s; ours is milliseconds because profiling is analytic).
    pub planning_seconds: f64,
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
    plan_and_run_inner(registry, cluster, corpora, cfg, false).map(|(r, _)| r)
}

/// [`plan_and_run`], additionally returning the winning configuration's
/// full operator trace (export it with `mux_gpu_sim::chrome_trace`).
///
/// When the winner disabled orchestration (per-bucket back-to-back runs),
/// the per-bucket traces are concatenated on a shifted time axis so the
/// combined trace spans the summed makespan.
pub fn plan_and_run_traced(
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Result<(MuxTuneReport, Vec<OpRecord>), PlanError> {
    plan_and_run_inner(registry, cluster, corpora, cfg, true)
        .map(|(r, t)| (r, t.expect("trace requested")))
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
/// Returns estimated effective tokens per second.
pub fn plan_estimate(
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Result<f64, PlanError> {
    let _total_span = mux_obs::span("planner.estimate");
    let cm = CostModel::new(registry, cluster.gpus[0].clone(), cfg.plan);
    let tasks: Vec<&PeftTask> = registry.tasks().collect();
    if tasks.is_empty() {
        return Err(PlanError::NoTasks);
    }
    let fusion = with_range_build(corpora, cfg, |build| {
        fuse_tasks(&cm, &tasks, cfg.fusion, build)
    })?;
    Ok(estimate_throughput(&cm, &fusion))
}

/// Runs `f` with the range builder every planning path fuses with: each
/// candidate range is packed from its members' corpora through data
/// alignment when all of them have one, and padded otherwise. Without
/// corpora every range is the canonical padded build, which lets the
/// fusion DP prove memory feasibility in O(1) per range.
fn with_range_build<R>(
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
    f: impl FnOnce(&RangeBuild<'_>) -> R,
) -> R {
    let (mbs, align) = (cfg.micro_batches, cfg.align);
    if corpora.is_empty() {
        return f(&RangeBuild::Padded { micro_batches: mbs });
    }
    let custom = |members: &[&PeftTask]| -> Result<HTask, PlanError> {
        if members.iter().all(|t| corpora.contains_key(&t.id)) {
            let lens: Vec<Vec<usize>> = members.iter().map(|t| corpora[&t.id].clone()).collect();
            HTask::fuse(members, &lens, mbs, align)
        } else {
            Ok(HTask::from_padded(members, mbs))
        }
    };
    f(&RangeBuild::Custom(&custom))
}

/// The Appendix-A throughput estimate of a fusion plan: Eq. 7 grouping,
/// then effective content per round over the grouped pipeline's estimated
/// round latency. Shared by [`plan_estimate`] and [`IncrementalEstimator`]
/// so the two paths are arithmetic-identical by construction.
fn estimate_throughput(cm: &CostModel<'_>, fusion: &FusionPlan) -> f64 {
    let grouping = group_htasks(cm, &fusion.htasks);
    // Effective content per round: every hTask runs its micro-batches
    // once per round, each carrying `total_tokens` of which
    // `effective_fraction` is real (non-padding) content.
    let effective_per_round: f64 = fusion
        .htasks
        .iter()
        .map(|h| h.total_tokens() as f64 * h.micro_batches as f64 * h.effective_fraction)
        .sum();
    effective_per_round / grouping.estimated.max(1e-9)
}

/// Content fingerprint of one task's corpus for the incremental planner's
/// membership diff: a changed corpus re-inserts the task, invalidating
/// exactly the ranges that contain it. Absent corpora hash to a sentinel
/// distinct from any empty-corpus hash, so attaching or dropping a corpus
/// is also a content change.
fn corpus_fingerprint(lens: Option<&Vec<usize>>) -> u64 {
    match lens {
        None => u64::MAX,
        Some(lens) => {
            let mut bytes = Vec::with_capacity(lens.len() * 8);
            for &l in lens {
                bytes.extend_from_slice(&(l as u64).to_le_bytes());
            }
            mux_obs::fingerprint::fnv1a_64(&bytes)
        }
    }
}

/// Fingerprint of everything the estimate depends on *besides* membership
/// and corpora: a change (degraded plan after device loss, shrunk cluster,
/// different alignment or micro-batch count) invalidates every persisted
/// range value, so the estimator starts a fresh planner.
fn context_fingerprint(registry: &TaskRegistry, cluster: &Cluster, cfg: &PlannerConfig) -> u64 {
    let ctx = format!(
        "{:?}|{:?}|{}|{:?}|{}|{:?}",
        cfg.plan,
        cfg.align,
        cfg.micro_batches,
        cluster.gpus.first(),
        cluster.num_gpus(),
        registry.backbone()
    );
    mux_obs::fingerprint::fnv1a_64(ctx.as_bytes())
}

/// [`plan_estimate`] with persisted planner state: the Eq. 6 value tables
/// and DP arrays survive membership changes inside an
/// [`IncrementalPlanner`], so a replan costs only the work the delta
/// invalidated (and a replan with *no* delta — e.g. a fault clear with
/// unchanged membership — costs zero range builds). Throughput results are
/// bitwise-identical to calling [`plan_estimate`] from scratch on the same
/// membership: reused range values are the same floats, and the recomputed
/// DP suffix runs the same recurrence in the same order.
///
/// One estimator serves one planning context (instance). A context change
/// — degraded parallelism plan, shrunk cluster, new alignment — is
/// detected by fingerprint and starts a fresh planner; a fusion policy
/// other than [`FusionPolicy::Dp`] falls back to [`plan_estimate`].
#[derive(Default)]
pub struct IncrementalEstimator {
    planner: IncrementalPlanner,
    ctx: Option<u64>,
    cached_throughput: Option<f64>,
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

    /// The fusion plan of the most recent successful estimate, if the
    /// membership has not changed since.
    pub fn fusion_plan(&self) -> Option<&FusionPlan> {
        self.planner.cached_plan()
    }

    /// Estimated effective tokens per second for the current membership —
    /// see [`plan_estimate`] for semantics and the error surface.
    pub fn estimate(
        &mut self,
        registry: &TaskRegistry,
        cluster: &Cluster,
        corpora: &BTreeMap<TaskId, Vec<usize>>,
        cfg: &PlannerConfig,
    ) -> Result<f64, PlanError> {
        let _total_span = mux_obs::span("planner.estimate_incremental");
        if cfg.fusion != FusionPolicy::Dp {
            return plan_estimate(registry, cluster, corpora, cfg);
        }
        let ctx = context_fingerprint(registry, cluster, cfg);
        if self.ctx != Some(ctx) {
            self.planner = IncrementalPlanner::new();
            self.ctx = Some(ctx);
            self.cached_throughput = None;
        }
        let items: Vec<(PeftTask, u64)> = registry
            .tasks()
            .map(|t| (t.clone(), corpus_fingerprint(corpora.get(&t.id))))
            .collect();
        if items.is_empty() {
            return Err(PlanError::NoTasks);
        }
        if self.planner.sync(&items) == 0 {
            // No-op replan: unchanged membership, unchanged context. Serve
            // the cached throughput without touching the tables at all.
            if let Some(tp) = self.cached_throughput {
                self.planner.note_noop();
                return Ok(tp);
            }
        } else {
            self.cached_throughput = None;
        }
        let cm = CostModel::new(registry, cluster.gpus[0].clone(), cfg.plan);
        let fusion = with_range_build(corpora, cfg, |build| self.planner.plan(&cm, build))?;
        let tp = estimate_throughput(&cm, &fusion);
        self.cached_throughput = Some(tp);
        Ok(tp)
    }
}

/// Shrinks a parallelism plan to fit on `devices` surviving GPUs after a
/// permanent device loss — the replan entry point the recovery path uses.
///
/// The original plan is kept verbatim when it still fits; otherwise the
/// plan degrades to a pure pipeline over the survivors (the smallest-memory
/// shape, maximising the chance the re-fused workload still fits). Returns
/// `None` only when no device survives, in which case the caller must shed.
pub fn degraded_plan(plan: HybridParallelism, devices: usize) -> Option<HybridParallelism> {
    if devices == 0 {
        return None;
    }
    if plan.num_gpus() <= devices {
        Some(plan)
    } else {
        Some(HybridParallelism::pipeline(devices))
    }
}

/// Appends `records` to `out`, shifting times by `t_off` and dependency
/// indices by `out`'s current length (per-bucket traces index their own
/// op lists).
fn append_shifted(out: &mut Vec<OpRecord>, records: Vec<OpRecord>, t_off: f64) {
    let base = out.len();
    out.extend(records.into_iter().map(|mut r| {
        r.start += t_off;
        r.end += t_off;
        for d in &mut r.deps {
            *d += base;
        }
        r
    }));
}

fn plan_and_run_inner(
    registry: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
    trace: bool,
) -> Result<(MuxTuneReport, Option<Vec<OpRecord>>), PlanError> {
    let _total_span = mux_obs::span("planner.total");
    let t0 = Instant::now();
    let cm = CostModel::new(registry, cluster.gpus[0].clone(), cfg.plan);
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
    let mut best: Option<(MuxTuneReport, f64, Option<Vec<OpRecord>>)> = None;
    // Fusion-level errors (infeasible, oversize, degenerate) carry the
    // actionable reason; engine OOMs are the fallback diagnosis when every
    // policy that fused still failed to run.
    let mut plan_err: Option<PlanError> = None;
    let mut run_err: Option<OomError> = None;
    for policy in policies {
        let fusion = {
            let _s = mux_obs::span("planner.fusion");
            match with_range_build(corpora, cfg, |build| fuse_tasks(&cm, &tasks, policy, build)) {
                Ok(f) => f,
                Err(e) => {
                    plan_err.get_or_insert(e);
                    continue;
                }
            }
        };
        let grouping = {
            let _s = mux_obs::span("planner.grouping");
            group_htasks(&cm, &fusion.htasks)
        };
        let buckets: Vec<Vec<HTask>> = grouping
            .buckets
            .iter()
            .map(|b| b.iter().map(|&i| fusion.htasks[i].clone()).collect())
            .collect();

        // Template rule 3: derive the in-flight cap from the memory model —
        // temporally interleaved buckets share the budget, so the cap counts
        // resident pipeline *cells*, not per-hTask copies.
        let mut options = cfg.options;
        if options.max_in_flight == 0 {
            options.max_in_flight = cm
                .max_in_flight(&buckets)
                .max(cfg.plan.pp.min(2 * cfg.plan.pp + 4));
        }

        // Overlapping communication pays a CTA/bandwidth toll (§3.4.3); it
        // only wins when the launch order has independent work to hide it
        // under. Evaluate both launch modes and keep the faster.
        let mut variants = vec![options];
        if options.overlap_comm {
            let mut seq_opts = options;
            seq_opts.overlap_comm = false;
            variants.push(seq_opts);
        }
        for opts in variants {
            mux_obs::incr_counter("planner.candidates", 1);
            let _cand_span = mux_obs::span("planner.candidate_run");
            // Disabling orchestration (-OO) removes *both* tiers of §3.4:
            // no Algorithm-1 interleaving inside a bucket (engine flag) and
            // no inter-stage interleaving across buckets — each bucket runs
            // as its own pipeline, back to back.
            let run_result = if opts.orchestrate {
                let eng = MuxEngine::new(registry, cluster, cfg.plan, buckets.clone(), opts);
                if trace {
                    eng.run_traced().map(|(m, t)| (m, Some(t)))
                } else {
                    eng.run().map(|m| (m, None))
                }
            } else {
                let mut combined: Option<RunMetrics> = None;
                let mut records: Vec<OpRecord> = Vec::new();
                let mut failed = None;
                for bucket in &buckets {
                    let eng =
                        MuxEngine::new(registry, cluster, cfg.plan, vec![bucket.clone()], opts);
                    let bucket_result = if trace {
                        eng.run_traced().map(|(m, t)| (m, Some(t)))
                    } else {
                        eng.run().map(|m| (m, None))
                    };
                    match bucket_result {
                        Ok((m, t)) => {
                            if let Some(t) = t {
                                let t_off = combined.as_ref().map(|c| c.makespan).unwrap_or(0.0);
                                append_shifted(&mut records, t, t_off);
                            }
                            combined = Some(match combined {
                                None => m,
                                Some(mut acc) => {
                                    acc.makespan += m.makespan;
                                    acc.total_tokens += m.total_tokens;
                                    acc.effective_tokens += m.effective_tokens;
                                    acc.throughput = acc.total_tokens as f64 / acc.makespan;
                                    acc.effective_throughput =
                                        acc.effective_tokens as f64 / acc.makespan;
                                    acc.mean_utilization =
                                        (acc.mean_utilization + m.mean_utilization) / 2.0;
                                    for (p, q) in acc.peak_mem.iter_mut().zip(&m.peak_mem) {
                                        *p = (*p).max(*q);
                                    }
                                    acc.mfu = (acc.mfu + m.mfu) / 2.0;
                                    acc.energy_joules += m.energy_joules;
                                    acc.tokens_per_joule = if acc.energy_joules > 0.0 {
                                        acc.effective_tokens as f64 / acc.energy_joules
                                    } else {
                                        0.0
                                    };
                                    acc
                                }
                            });
                        }
                        Err(e) => {
                            failed = Some(e);
                            break;
                        }
                    }
                }
                match (combined, failed) {
                    (Some(m), None) => Ok((m, trace.then_some(records))),
                    (_, Some(e)) => Err(e),
                    (None, None) => unreachable!("at least one bucket exists"),
                }
            };
            match run_result {
                Ok((m, t)) => {
                    let score = m.effective_throughput;
                    if best.as_ref().map(|(_, b, _)| score > *b).unwrap_or(true) {
                        best = Some((
                            MuxTuneReport {
                                fusion: fusion.clone(),
                                grouping: grouping.clone(),
                                metrics: m,
                                planning_seconds: 0.0,
                            },
                            score,
                            t,
                        ));
                    }
                }
                Err(e) => run_err = Some(e),
            }
        }
    }
    let (mut report, _, trace_out) = match best {
        Some(b) => b,
        None => {
            return Err(plan_err
                .or(run_err.map(PlanError::Oom))
                .expect("at least one candidate was attempted"))
        }
    };
    report.planning_seconds = t0.elapsed().as_secs_f64();
    mux_obs::set_gauge("run.makespan_seconds", report.metrics.makespan);
    mux_obs::set_gauge("run.mean_utilization", report.metrics.mean_utilization);
    mux_obs::set_gauge(
        "run.effective_throughput",
        report.metrics.effective_throughput,
    );
    mux_obs::set_gauge("planner.planning_seconds", report.planning_seconds);
    Ok((report, trace_out))
}

#[cfg(test)]
mod tests {
    use super::*;
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
    fn degraded_plan_shrinks_to_survivors() {
        // A fitting plan is preserved verbatim.
        let p = HybridParallelism::pipeline(2);
        assert_eq!(degraded_plan(p, 4), Some(p));
        assert_eq!(degraded_plan(p, 2), Some(p));
        // An oversized plan collapses to a pipeline over the survivors.
        let big = HybridParallelism::pipeline(4);
        assert_eq!(degraded_plan(big, 3), Some(HybridParallelism::pipeline(3)));
        assert_eq!(degraded_plan(big, 1), Some(HybridParallelism::single()));
        // No survivors: the caller must shed.
        assert_eq!(degraded_plan(big, 0), None);
    }

    #[test]
    fn degraded_plan_still_runs_on_the_shrunk_cluster() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for i in 0..2 {
            r.register_task(PeftTask::lora(i + 1, 8, 4, 128))
                .expect("register");
        }
        // Lost one of 4 GPUs: replan onto 3 and run end-to-end.
        let plan = degraded_plan(HybridParallelism::pipeline(4), 3).expect("survivors");
        let c = cluster(3);
        let rep = plan_and_run(&r, &c, &BTreeMap::new(), &PlannerConfig::muxtune(plan, 4))
            .expect("degraded run succeeds");
        assert!(rep.metrics.effective_throughput > 0.0);
    }
}
