//! The pipeline cost model (§3.3, Eqs. 3–5).
//!
//! Drives both the DP task fusion (Eq. 6) and hTask grouping (Eq. 7): per-
//! stage hTask latency (Eq. 3, with communication assumed overlapped per
//! §3.4.2), end-to-end pipeline latency (Eq. 4), and per-stage memory
//! (Eq. 5, the OOM feasibility check).

use std::borrow::Cow;

use mux_gpu_sim::spec::GpuSpec;
use mux_model::config::ModelConfig;
use mux_model::layer::build_stage_graph;
use mux_model::memory::{activation_bytes, task_state_bytes};
use mux_model::ops::{OpCostSpec, OpKind, Pass};
use mux_parallel::plan::{stage_layers, HybridParallelism};
use mux_parallel::tp::work_for;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::TaskId;

use crate::htask::HTask;

/// One stage's operators as indices into the interned op lists.
#[derive(Debug, Clone)]
struct StageOps {
    /// Every non-comm backbone op of the stage, in graph order, as an
    /// index into [`StageTables::ops`].
    compute: Vec<usize>,
    /// Every BaseOp (adapter attach point) of the stage, in graph order, as
    /// an index into [`StageTables::base_ops`].
    base_ops: Vec<usize>,
    /// Layer range.
    layers: (usize, usize),
}

/// The index of `item` in `list`, appending it first if absent.
fn intern<T: PartialEq>(list: &mut Vec<T>, item: T) -> usize {
    list.iter().position(|x| *x == item).unwrap_or_else(|| {
        list.push(item);
        list.len() - 1
    })
}

/// Every stage's operators of one backbone under one parallelism plan,
/// interned. The tables read nothing but the backbone configuration and the
/// plan, so one build serves every hTask and every membership priced under
/// them: [`CostModel::new`] builds its own, and the incremental estimator
/// builds one per planning context and prices every estimate in that
/// context with it.
#[derive(Debug, Clone)]
pub(crate) struct StageTables {
    /// The parallelism plan the stages were cut and sharded under (dp is
    /// unused by the cost model; latency is per replica).
    plan: HybridParallelism,
    /// Distinct `(kind, cost)` non-comm backbone ops over all stages (TP-
    /// sharded costs). Stages repeat the same per-layer op list, so an
    /// hTask prices each distinct op once, not once per layer and stage.
    ops: Vec<(OpKind, OpCostSpec)>,
    /// Distinct `(kind, k, n)` BaseOps over all stages.
    base_ops: Vec<(OpKind, usize, usize)>,
    stages: Vec<StageOps>,
}

impl StageTables {
    /// Builds `cfg`'s stage graphs under `plan` and interns their operators,
    /// counting the build as `stage_tables_built` work on the caller's span.
    pub(crate) fn new(cfg: &ModelConfig, plan: HybridParallelism) -> Self {
        mux_obs::profile::work("stage_tables_built", 1);
        let (mut ops, mut base_ops) = (Vec::new(), Vec::new());
        let stages = stage_layers(cfg.num_layers, plan.pp)
            .into_iter()
            .map(|(a, b)| {
                let g = build_stage_graph(cfg, a, b, plan.tp);
                let mut stage = StageOps {
                    compute: Vec::new(),
                    base_ops: Vec::new(),
                    layers: (a, b),
                };
                for t in g.nodes().iter().map(|n| &n.template) {
                    if !t.kind.is_comm() {
                        stage
                            .compute
                            .push(intern(&mut ops, (t.kind, t.cost.clone())));
                    }
                    if let (true, OpCostSpec::Gemm { k, n, .. }) = (t.kind.is_base_op(), &t.cost) {
                        stage.base_ops.push(intern(&mut base_ops, (t.kind, *k, *n)));
                    }
                }
                stage
            })
            .collect();
        Self {
            plan,
            ops,
            base_ops,
            stages,
        }
    }

    /// The parallelism plan the tables were built under.
    pub(crate) fn plan(&self) -> HybridParallelism {
        self.plan
    }
}

/// The Eq. 3–5 cost model for one instance.
pub struct CostModel<'a> {
    registry: &'a TaskRegistry,
    gpu: &'a GpuSpec,
    /// Built by [`CostModel::new`], or borrowed from a planning context.
    tables: Cow<'a, StageTables>,
}

impl<'a> CostModel<'a> {
    /// Builds the model with stage tables of its own.
    pub fn new(registry: &'a TaskRegistry, gpu: &'a GpuSpec, plan: HybridParallelism) -> Self {
        let tables = StageTables::new(registry.backbone(), plan);
        Self {
            registry,
            gpu,
            tables: Cow::Owned(tables),
        }
    }

    /// The model over `tables`, which must have been built from
    /// `registry`'s backbone.
    pub(crate) fn with_tables(
        registry: &'a TaskRegistry,
        gpu: &'a GpuSpec,
        tables: &'a StageTables,
    ) -> Self {
        Self {
            registry,
            gpu,
            tables: Cow::Borrowed(tables),
        }
    }

    /// The backbone configuration.
    pub fn backbone(&self) -> &ModelConfig {
        self.registry.backbone()
    }

    /// Number of pipeline stages `S`.
    pub fn num_stages(&self) -> usize {
        self.tables.stages.len()
    }

    /// Eq. 3: latency of one micro-batch of `h` through each stage.
    ///
    /// Backbone (`BaseOp`) latency uses the *combined* token count; fused
    /// adapter latency is `max(Σ u_a·t_a(n_k), max_k t_a(n_k))`.
    /// Communication is excluded (assumed overlapped, §3.4.2).
    ///
    /// Each distinct backbone op and each distinct BaseOp's fused-adapter
    /// term is priced once; a stage then sums its own ops' prices in graph
    /// order, so every stage adds the same floats in the same order as a
    /// per-stage walk over its operator graph.
    pub fn stage_latencies(&self, h: &HTask, pass: Pass) -> Vec<f64> {
        let op_time: Vec<f64> = self
            .tables
            .ops
            .iter()
            .map(|(kind, cost)| htask_op_time(self.gpu, *kind, cost, h, None, pass).0)
            .collect();
        let cfg = self.registry.backbone();
        let members = member_tasks(self.registry, h);
        let adapter_time: Vec<f64> = self
            .tables
            .base_ops
            .iter()
            .map(|&(kind, k, n)| {
                let mut weighted = 0.0;
                let mut max_single: f64 = 0.0;
                for (idx, task) in members.iter().enumerate() {
                    let mut t_a = 0.0;
                    let mut util: f64 = 0.0;
                    for (op, _, cost) in task.adapter_costs(cfg, kind, k, n) {
                        let (t, u, _) = htask_op_time(self.gpu, op, &cost, h, Some(idx), pass);
                        t_a += t;
                        util = util.max(u);
                    }
                    weighted += util * t_a;
                    max_single = max_single.max(t_a);
                }
                weighted.max(max_single)
            })
            .collect();
        self.tables
            .stages
            .iter()
            .map(|stage| {
                let mut lat: f64 = stage.compute.iter().map(|&i| op_time[i]).sum();
                // Adapters, per attach point.
                for &j in &stage.base_ops {
                    lat += adapter_time[j];
                }
                lat
            })
            .collect()
    }

    /// Eq. 3 for stage `s` alone — see [`stage_latencies`](Self::stage_latencies).
    pub fn stage_latency(&self, s: usize, h: &HTask, pass: Pass) -> f64 {
        self.stage_latencies(h, pass)[s]
    }

    /// Eq. 4: end-to-end pipeline latency of running `h` alone: warm-up and
    /// drain sums plus `C` steady-state rounds of the bottleneck stage,
    /// with forward ≈ backward (hence the factors of 2).
    pub fn pipeline_latency(&self, h: &HTask) -> f64 {
        let s_count = self.num_stages();
        let per_stage = self.stage_latencies(h, Pass::Forward);
        let warm_drain: f64 = per_stage[..s_count - 1].iter().sum();
        let bottleneck = per_stage.iter().cloned().fold(0.0, f64::max);
        2.0 * warm_drain + 2.0 * h.micro_batches as f64 * bottleneck
    }

    /// Eq. 5: peak memory of stage `s` when `htasks` co-locate, with up to
    /// `in_flight` micro-batch activations resident (1F1B holds ≤ S).
    pub fn stage_memory(&self, s: usize, htasks: &[HTask], in_flight: usize) -> u64 {
        let cfg = self.registry.backbone();
        let stage = &self.tables.stages[s];
        let layers = stage.layers.1 - stage.layers.0;
        let tp = self.tables.plan.tp as u64;
        // Backbone shard: parameters are split across S stages and TP ranks.
        let m_b = cfg.param_bytes() / (self.num_stages() as u64 * tp);
        // Per-task persistent state (adapter grads + optimizer moments),
        // sharded the same way.
        let m_g: u64 = htasks
            .iter()
            .flat_map(|h| h.tasks.iter())
            .map(|&tid| {
                let t = self.registry.task(tid).expect("registered");
                task_state_bytes(t.adapter_params(cfg)) / (self.num_stages() as u64 * tp)
            })
            .sum();
        // Activations: every co-located hTask holds `in_flight` micro-batch
        // copies of this stage's layers (per TP rank the hidden dim is
        // replicated for attention inputs; we charge the full width, which
        // is conservative).
        let m_a: u64 = htasks
            .iter()
            .map(|h| activation_bytes(cfg, layers, h.total_tokens()) * in_flight as u64)
            .sum();
        m_b + m_g + m_a
    }

    /// Whether co-locating `htasks` fits device memory on every stage with
    /// `in_flight` resident micro-batches.
    pub fn fits_memory(&self, htasks: &[HTask], in_flight: usize) -> bool {
        (0..self.num_stages())
            .all(|s| self.stage_memory(s, htasks, in_flight) <= self.gpu.mem_capacity)
    }

    /// The GPU spec the model evaluates against.
    pub fn gpu(&self) -> &GpuSpec {
        self.gpu
    }

    /// Builds an exact O(1)-per-query memory-feasibility prober for
    /// contiguous ranges of `sorted` built with [`HTask::from_padded`].
    ///
    /// Eq. 5 memory for a padded range decomposes into integer prefix sums:
    /// per-task state quotients, micro-batch counts (total tokens are
    /// `Σ micro_batch × max seq_len`), and a range-max over sequence caps —
    /// so `fits(a, b)` reproduces `fits_memory` bit-for-bit without
    /// materializing the hTask. This is what lets the fusion DP probe all
    /// O(M²) ranges while paying the per-member latency cost only on the
    /// feasible ones.
    pub fn padded_prober(&self, sorted: &[&mux_peft::types::PeftTask]) -> PaddedRangeProber<'a> {
        let cfg = self.registry.backbone();
        let shards = self.num_stages() as u64 * self.tables.plan.tp as u64;
        let mut state_prefix = Vec::with_capacity(sorted.len() + 1);
        let mut mb_prefix = Vec::with_capacity(sorted.len() + 1);
        state_prefix.push(0u64);
        mb_prefix.push(0u64);
        for t in sorted {
            // Same per-task quotient `stage_memory` sums, so the prefix
            // difference is exactly its m_g term.
            let q = task_state_bytes(t.adapter_params(cfg)) / shards;
            state_prefix.push(state_prefix.last().unwrap() + q);
            mb_prefix.push(mb_prefix.last().unwrap() + t.micro_batch as u64);
        }
        PaddedRangeProber {
            cfg,
            state_prefix,
            mb_prefix,
            seq_max: RangeMax::new(&sorted.iter().map(|t| t.seq_len).collect::<Vec<_>>()),
            stage_layer_counts: self
                .tables
                .stages
                .iter()
                .map(|s| s.layers.1 - s.layers.0)
                .collect(),
            m_b: cfg.param_bytes() / shards,
            in_flight: self.num_stages(),
            capacity: self.gpu.mem_capacity,
        }
    }

    /// The largest in-flight micro-batch count the memory budget allows for
    /// a *bucketed* plan (template rule 3).
    ///
    /// Unlike [`CostModel::stage_memory`] — which conservatively charges
    /// every hTask `in_flight` copies, correct for spatial co-residency —
    /// temporally interleaved buckets share the in-flight budget: at any
    /// instant at most `in_flight` pipeline cells are resident, each the
    /// size of one bucket's combined activations. Result is clamped to
    /// `[2, 2·S + 4]`.
    pub fn max_in_flight(&self, buckets: &[Vec<HTask>]) -> usize {
        let cfg = self.registry.backbone();
        let all: Vec<HTask> = buckets.iter().flatten().cloned().collect();
        let cap = self.gpu.mem_capacity;
        let upper = 2 * self.num_stages() + 4;
        let mut k = 2;
        'grow: while k < upper {
            for s in 0..self.num_stages() {
                let static_bytes = self.stage_memory(s, &all, 0);
                let layers = self.tables.stages[s].layers.1 - self.tables.stages[s].layers.0;
                let max_cell: u64 = buckets
                    .iter()
                    .map(|b| {
                        b.iter()
                            .map(|h| activation_bytes(cfg, layers, h.total_tokens()))
                            .sum::<u64>()
                    })
                    .max()
                    .unwrap_or(0);
                if static_bytes + (k as u64 + 1) * max_cell > cap {
                    break 'grow;
                }
            }
            k += 1;
        }
        k
    }
}

/// Sparse table answering `max(values[a..b])` in O(1) after O(n log n)
/// preprocessing.
#[derive(Debug, Clone)]
struct RangeMax {
    /// `rows[k][i] = max(values[i .. i + 2^k])`.
    rows: Vec<Vec<usize>>,
}

impl RangeMax {
    fn new(values: &[usize]) -> Self {
        let n = values.len();
        let mut rows = vec![values.to_vec()];
        let mut width = 1;
        while width * 2 <= n {
            let prev = rows.last().expect("seeded");
            let next: Vec<usize> = (0..=n - width * 2)
                .map(|i| prev[i].max(prev[i + width]))
                .collect();
            rows.push(next);
            width *= 2;
        }
        Self { rows }
    }

    /// Max over the non-empty half-open range `[a, b)`.
    fn query(&self, a: usize, b: usize) -> usize {
        debug_assert!(a < b && b <= self.rows[0].len());
        let k = (usize::BITS - 1 - (b - a).leading_zeros()) as usize;
        let w = 1 << k;
        self.rows[k][a].max(self.rows[k][b - w])
    }
}

/// Exact memory-feasibility prober for contiguous `from_padded` ranges.
///
/// Built by [`CostModel::padded_prober`]; see there for the decomposition
/// argument. Valid *only* for ranges of the same sorted task slice it was
/// built from, built via [`HTask::from_padded`] (corpus-backed alignment
/// changes token totals and breaks the prefix-sum identity).
pub struct PaddedRangeProber<'a> {
    cfg: &'a ModelConfig,
    state_prefix: Vec<u64>,
    mb_prefix: Vec<u64>,
    seq_max: RangeMax,
    stage_layer_counts: Vec<usize>,
    m_b: u64,
    in_flight: usize,
    capacity: u64,
}

impl PaddedRangeProber<'_> {
    /// Whether `HTask::from_padded(&sorted[a..b], _)` would pass
    /// [`CostModel::fits_memory`] with `num_stages` in-flight micro-batches.
    pub fn fits(&self, a: usize, b: usize) -> bool {
        let unit_len = self.seq_max.query(a, b);
        let tokens = ((self.mb_prefix[b] - self.mb_prefix[a]) as usize) * unit_len;
        let m_g = self.state_prefix[b] - self.state_prefix[a];
        self.stage_layer_counts.iter().all(|&layers| {
            let m_a = activation_bytes(self.cfg, layers, tokens) * self.in_flight as u64;
            self.m_b + m_g + m_a <= self.capacity
        })
    }
}

/// Latency, achieved utilization and FLOPs of one backbone/adapter op of an
/// hTask on `gpu`.
///
/// Attention ops are special (§3.5): after chunk-based alignment each query
/// row attends over `h.attn_context` tokens (its chunk plus cached KV), and
/// packs spanning multiple chunks issue `h.attn_splits` sequentially
/// dependent, smaller attention kernels — so the kernel-size efficiency is
/// evaluated per split while the total work multiplies back.
pub fn htask_op_time(
    gpu: &GpuSpec,
    kind: OpKind,
    cost: &OpCostSpec,
    h: &HTask,
    member: Option<usize>,
    pass: Pass,
) -> (f64, f64, f64) {
    let is_attn = matches!(
        kind,
        OpKind::AttnScore | OpKind::AttnSoftmax | OpKind::AttnContext
    );
    let tokens = match member {
        Some(i) => h.tokens_per_task[i],
        None => h.total_tokens(),
    };
    if is_attn {
        let splits = h.attn_splits.max(1.0);
        let per_kernel_tokens = ((tokens as f64 / splits).ceil() as usize).max(1);
        let ctx = h.attn_context.max(1);
        let rows = per_kernel_tokens.div_ceil(ctx).max(1);
        let shape = mux_model::ops::TokenShape::new(rows, ctx);
        let w = work_for(cost, kind, shape, pass);
        (
            gpu.compute_time(w, 1.0) * splits,
            gpu.op_utilization(w),
            w.flops * splits,
        )
    } else {
        let rows = tokens.div_ceil(h.unit_len.max(1)).max(1);
        let shape = mux_model::ops::TokenShape::new(rows, h.unit_len.max(1));
        let w = work_for(cost, kind, shape, pass);
        (gpu.compute_time(w, 1.0), gpu.op_utilization(w), w.flops)
    }
}

/// Convenience: the member tasks of an hTask, resolved from the registry.
pub fn member_tasks<'r>(
    registry: &'r TaskRegistry,
    h: &HTask,
) -> Vec<&'r mux_peft::types::PeftTask> {
    h.tasks
        .iter()
        .map(|&id: &TaskId| registry.task(id).expect("registered"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_peft::types::PeftTask;

    fn setup(n_tasks: usize, plan: HybridParallelism) -> (TaskRegistry, HybridParallelism) {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
        for i in 0..n_tasks {
            r.register_task(PeftTask::lora(i as TaskId + 1, 16, 4, 128))
                .expect("register");
        }
        (r, plan)
    }

    fn htask_of(r: &TaskRegistry, ids: &[TaskId], mbs: usize) -> HTask {
        let members: Vec<&PeftTask> = ids.iter().map(|&i| r.task(i).expect("task")).collect();
        HTask::from_padded(&members, mbs)
    }

    #[test]
    fn stage_latency_grows_sublinearly_with_fusion() {
        // Spatial batching improves utilization: 2 tasks fused cost less
        // than 2x one task (Fig 9's motivation).
        let (r, plan) = setup(2, HybridParallelism::pipeline(4));
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, plan);
        let one = htask_of(&r, &[1], 4);
        let two = htask_of(&r, &[1, 2], 4);
        let l1 = cm.stage_latency(0, &one, Pass::Forward);
        let l2 = cm.stage_latency(0, &two, Pass::Forward);
        assert!(l2 < 2.0 * l1, "fused {l2} vs 2x single {l1}");
        assert!(l2 > l1, "more tokens must cost more");
    }

    #[test]
    fn pipeline_latency_scales_with_micro_batches() {
        let (r, plan) = setup(1, HybridParallelism::pipeline(4));
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, plan);
        let h4 = htask_of(&r, &[1], 4);
        let h8 = htask_of(&r, &[1], 8);
        let l4 = cm.pipeline_latency(&h4);
        let l8 = cm.pipeline_latency(&h8);
        assert!(l8 > l4 * 1.5 && l8 < l4 * 2.0, "C-scaling: {l4} -> {l8}");
    }

    #[test]
    fn memory_splits_backbone_across_stages() {
        let (r, _) = setup(1, HybridParallelism::pipeline(4));
        let gpu = GpuSpec::a40();
        let cm4 = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let cm2 = CostModel::new(&r, &gpu, HybridParallelism::pipeline(2));
        let h = htask_of(&r, &[1], 4);
        let m4 = cm4.stage_memory(0, std::slice::from_ref(&h), 4);
        let m2 = cm2.stage_memory(0, &[h], 2);
        assert!(m4 < m2, "more stages shard the backbone further");
    }

    #[test]
    fn memory_feasibility_rejects_huge_fusions() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        for i in 0..64 {
            r.register_task(PeftTask::lora(i + 1, 16, 32, 256))
                .expect("register");
        }
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let small = htask_of(&r, &[1], 4);
        assert!(cm.fits_memory(std::slice::from_ref(&small), 4));
        let ids: Vec<TaskId> = (1..=64).collect();
        let huge = htask_of(&r, &ids, 4);
        assert!(
            !cm.fits_memory(std::slice::from_ref(&huge), 4),
            "64 fat tasks cannot fit 48 GB"
        );
    }

    #[test]
    fn padded_prober_matches_fits_memory_on_every_range() {
        // Mixed shapes spanning the feasible/infeasible boundary.
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        let shapes = [
            (1, 64),
            (2, 128),
            (8, 256),
            (4, 64),
            (16, 256),
            (2, 64),
            (32, 256),
            (1, 128),
        ];
        for (i, &(mb, seq)) in shapes.iter().enumerate() {
            r.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq))
                .expect("register");
        }
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(2));
        let sorted: Vec<&PeftTask> = r.tasks().collect();
        let prober = cm.padded_prober(&sorted);
        let s = cm.num_stages();
        for a in 0..sorted.len() {
            for b in a + 1..=sorted.len() {
                let h = HTask::from_padded(&sorted[a..b], 4);
                assert_eq!(
                    prober.fits(a, b),
                    cm.fits_memory(std::slice::from_ref(&h), s),
                    "range [{a}, {b})"
                );
            }
        }
    }

    #[test]
    fn adapter_latency_respects_max_bound() {
        // One giant-rank adapter among tiny ones must dominate the fused
        // estimate (the Eq. 3 max-term avoiding the bottleneck effect).
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        r.register_task(PeftTask::lora(1, 4, 4, 128))
            .expect("register");
        r.register_task(PeftTask::lora(2, 512, 4, 128))
            .expect("register");
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::single());
        let small_only = htask_of(&r, &[1], 4);
        let fused = htask_of(&r, &[1, 2], 4);
        let l_small = cm.stage_latency(0, &small_only, Pass::Forward);
        let l_fused = cm.stage_latency(0, &fused, Pass::Forward);
        assert!(
            l_fused > l_small,
            "the rank-512 adapter must show up in the fused latency"
        );
    }
}
