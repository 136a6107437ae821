//! The PEFT engine: executes a planned multi-task run on the simulator.
//!
//! Precomputes, per bucket and distinct stage depth, the Algorithm-1 launch
//! order over the member hTasks' segmented subgraphs — with horizontal
//! adapter fusion applied — and then drives the structured pipeline
//! template through `mux_parallel::simulate_pipeline`, with collectives
//! overlapped on the communication stream (or launched blocking, for
//! baseline/ablation modes) and activation memory tracked against device
//! capacity.

use std::sync::Arc;

use mux_gpu_sim::label::{CellPos, OpLabel};
use mux_gpu_sim::metrics::device_metrics;
use mux_gpu_sim::spec::{CommCtaPolicy, GpuSpec};
use mux_gpu_sim::timeline::{Cluster, CollectiveKind, OomError, OpHandle, OpRecord, Timeline};
use mux_model::memory::activation_bytes;
use mux_model::mfu::{train_flops_per_token, TrainMode};
use mux_model::ops::Pass;
use mux_parallel::plan::{stage_layers, HybridParallelism};
use mux_parallel::pp::{simulate_pipeline, Phase, PipelineExec};
use mux_peft::registry::TaskRegistry;

use crate::adapter_fusion::{fused_latency, fusible_across_htasks, AdapterSite};
use crate::htask::HTask;
use crate::schedule::schedule_subgraphs;
use crate::subgraph::segment;
use crate::template::{build_template, BucketOrder, PipelineTemplate};

/// Engine behaviour toggles (the Fig 16 ablation knobs).
#[derive(Debug, Clone, Copy)]
pub struct EngineOptions {
    /// Overlap collectives on the comm stream (operator orchestration
    /// "OO"); false = blocking sequential launch.
    pub overlap_comm: bool,
    /// Interleave subgraphs across hTasks per Algorithm 1; false = run
    /// each hTask's DAG back-to-back.
    pub orchestrate: bool,
    /// Horizontally fuse adapter branches (§3.4.3).
    pub fuse_adapters: bool,
    /// Without SHARP, give comm kernels a generous CTA budget (high
    /// bandwidth, high contention) instead of a small one.
    pub generous_ctas: bool,
    /// Memory cap on in-flight micro-batches per stage (template rule 3).
    pub max_in_flight: usize,
    /// Bucket stream order (Appendix A ablation).
    pub bucket_order: BucketOrder,
}

impl Default for EngineOptions {
    fn default() -> Self {
        Self {
            overlap_comm: true,
            orchestrate: true,
            fuse_adapters: true,
            generous_ctas: false,
            max_in_flight: 0, // 0 = derive S from the plan
            bucket_order: BucketOrder::Descending,
        }
    }
}

/// Aggregate results of one simulated training round-trip.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// End-to-end latency of the pipeline run, seconds.
    pub makespan: f64,
    /// Tokens processed, padding included.
    pub total_tokens: u64,
    /// Semantic tokens processed.
    pub effective_tokens: u64,
    /// Processed tokens per second.
    pub throughput: f64,
    /// Effective (semantic) tokens per second — Fig 20's `-E` metric.
    pub effective_throughput: f64,
    /// Mean achieved GPU utilization across devices.
    pub mean_utilization: f64,
    /// Peak memory per device, bytes.
    pub peak_mem: Vec<u64>,
    /// Model FLOPs utilization over all devices.
    pub mfu: f64,
    /// Total energy drawn across devices, joules (§6 extension).
    pub energy_joules: f64,
    /// Effective tokens per joule — the energy-efficiency headline.
    pub tokens_per_joule: f64,
}

/// One precomputed launch item of a launch cell.
#[derive(Debug, Clone)]
struct Item {
    /// Item indices this one waits on (within the cell).
    deps: Vec<usize>,
    /// Forward (duration, utilization, flops).
    fwd: (f64, f64, f64),
    /// Backward (duration, utilization, flops).
    bwd: (f64, f64, f64),
    /// Trailing collective payload bytes (0 = none).
    comm_payload: f64,
    /// The `(hTask, subgraph)` members the item runs, in launch order.
    members: Arc<[(usize, usize)]>,
}

/// A fully planned, executable multi-task run.
pub struct MuxEngine<'a> {
    cluster: &'a Cluster,
    plan: HybridParallelism,
    template: PipelineTemplate,
    /// `cells[bucket][cell]` — the launch items of each distinct stage
    /// depth.
    cells: Vec<Vec<Vec<Item>>>,
    /// Each pipeline stage's cell index into `cells[bucket]`.
    stage_cell: Vec<usize>,
    /// Per-bucket activation bytes per stage per in-flight micro-batch.
    act_bytes: Vec<Vec<u64>>,
    /// Per-bucket per-micro-batch p2p payload bytes.
    p2p_bytes: Vec<f64>,
    /// Token accounting per pipeline round of each bucket.
    tokens_per_round: Vec<(u64, u64)>,
    options: EngineOptions,
    train_flops_per_eff_token: f64,
}

impl<'a> MuxEngine<'a> {
    /// Plans an engine run: `buckets` contain the fused hTasks grouped by
    /// Eq. 7 (outer order = descending load).
    pub fn new(
        registry: &TaskRegistry,
        cluster: &'a Cluster,
        plan: HybridParallelism,
        buckets: &[Vec<HTask>],
        options: EngineOptions,
    ) -> Self {
        assert_eq!(
            plan.num_gpus(),
            cluster.num_gpus(),
            "plan does not match cluster size"
        );
        let _build_span = mux_obs::span("engine.build");
        let cfg = registry.backbone();
        let ranges = stage_layers(cfg.num_layers, plan.pp);
        let gpu = &cluster.gpus[0];

        // A stage's layer indices reach its graph only through op names,
        // which no cell build reads, so stages of equal depth share one
        // cell: each distinct depth is built once per bucket, over the
        // first stage that has it.
        let mut cell_ranges: Vec<(usize, usize)> = Vec::new();
        let stage_cell: Vec<usize> = ranges
            .iter()
            .map(|&(a, b)| {
                cell_ranges
                    .iter()
                    .position(|&(sa, sb)| sb - sa == b - a)
                    .unwrap_or_else(|| {
                        cell_ranges.push((a, b));
                        cell_ranges.len() - 1
                    })
            })
            .collect();

        let mut cells = Vec::with_capacity(buckets.len());
        let mut act_bytes = Vec::with_capacity(buckets.len());
        let mut p2p = Vec::with_capacity(buckets.len());
        let mut tokens = Vec::with_capacity(buckets.len());
        for bucket in buckets {
            cells.push(
                cell_ranges
                    .iter()
                    .map(|&layers| build_cell(registry, gpu, plan.tp, layers, bucket, &options))
                    .collect(),
            );

            // Memory + token accounting.
            let stage_act: Vec<u64> = ranges
                .iter()
                .map(|&(a, b)| {
                    bucket
                        .iter()
                        .map(|h| activation_bytes(cfg, b - a, h.total_tokens()))
                        .sum()
                })
                .collect();
            act_bytes.push(stage_act);
            let tok_per_mb: u64 = bucket.iter().map(|h| h.total_tokens() as u64).sum();
            p2p.push(tok_per_mb as f64 * cfg.hidden as f64 * cfg.dtype_bytes as f64);
            let eff: u64 = bucket
                .iter()
                .map(|h| (h.total_tokens() as f64 * h.effective_fraction) as u64)
                .sum();
            tokens.push((tok_per_mb, eff));
        }

        let rounds: Vec<usize> = buckets
            .iter()
            .map(|b| b.iter().map(|h| h.micro_batches).max().unwrap_or(1))
            .collect();
        let max_in_flight = if options.max_in_flight == 0 {
            plan.pp
        } else {
            options.max_in_flight
        };
        let template = build_template(plan.pp, &rounds, max_in_flight, options.bucket_order);
        // Mean unit length for model-FLOPs accounting.
        let unit = buckets
            .iter()
            .flatten()
            .map(|h| h.unit_len)
            .max()
            .unwrap_or(128);
        Self {
            cluster,
            plan,
            template,
            cells,
            stage_cell,
            act_bytes,
            p2p_bytes: p2p,
            tokens_per_round: tokens,
            options,
            train_flops_per_eff_token: train_flops_per_token(cfg, unit, TrainMode::Peft),
        }
    }

    /// The generated template (inspectable for tests/ablation).
    pub fn template(&self) -> &PipelineTemplate {
        &self.template
    }

    /// Selects the launch mode of later runs: collectives overlapped on the
    /// communication stream, or launched blocking. The build reads neither
    /// `overlap_comm` nor `generous_ctas`, so one engine serves both modes,
    /// bit-identical to an engine built with the other setting.
    pub fn set_overlap_comm(&mut self, overlap: bool) {
        self.options.overlap_comm = overlap;
    }

    /// Runs the engine; returns metrics or the OOM that aborted it.
    pub fn run(&self) -> Result<RunMetrics, OomError> {
        self.run_inner(false).map(|(m, _)| m)
    }

    /// Runs and also returns the full operator trace (Fig 18 style).
    pub fn run_traced(&self) -> Result<(RunMetrics, Vec<OpRecord>), OomError> {
        self.run_inner(true)
            .map(|(m, t)| (m, t.expect("trace requested")))
    }

    fn run_inner(&self, trace: bool) -> Result<(RunMetrics, Option<Vec<OpRecord>>), OomError> {
        let _sim_span = mux_obs::span("engine.simulate");
        let mut tl = if trace {
            Timeline::new(self.cluster)
        } else {
            Timeline::untraced(self.cluster)
        };
        // Static memory (backbone shard + task state) is vetted by the
        // Eq. 5 cost model at planning time; the ledger enforces the
        // dynamic activation part during execution.
        let mut exec = EngineExec {
            eng: self,
            oom: None,
            comm_policy: if self.options.overlap_comm {
                CommCtaPolicy::for_link(&self.cluster.intra_link, self.options.generous_ctas)
            } else {
                CommCtaPolicy::sequential()
            },
            stage_devices: (0..self.plan.pp)
                .map(|s| self.plan.stage_devices(0, s))
                .collect(),
            handles: Vec::new(),
            item_spans: Vec::new(),
            item_deps: Vec::new(),
        };
        let makespan = simulate_pipeline(&mut tl, &self.template.program, &mut exec, self.plan.pp);
        if let Some(oom) = exec.oom {
            return Err(oom);
        }
        let mut total = 0u64;
        let mut eff = 0u64;
        for (b, &(t, e)) in self.tokens_per_round.iter().enumerate() {
            let rounds = self.template.mb_bucket.iter().filter(|&&x| x == b).count() as u64;
            total += t * rounds;
            eff += e * rounds;
        }
        let peak: Vec<u64> = (0..self.cluster.num_gpus())
            .map(|d| tl.peak_mem(d))
            .collect();
        let peak_flops: f64 = self.cluster.gpus.iter().map(|g| g.peak_flops).sum();
        let dm = device_metrics(&tl, makespan);
        let energy: f64 = dm
            .iter()
            .map(|d| {
                self.cluster.gpus[d.device].energy_joules(
                    makespan,
                    d.busy_fraction.min(1.0),
                    d.avg_utilization.min(1.0),
                )
            })
            .sum();
        let metrics = RunMetrics {
            makespan,
            total_tokens: total,
            effective_tokens: eff,
            throughput: total as f64 / makespan,
            effective_throughput: eff as f64 / makespan,
            mean_utilization: dm.iter().map(|d| d.avg_utilization).sum::<f64>() / dm.len() as f64,
            peak_mem: peak,
            mfu: self.train_flops_per_eff_token * eff as f64 / (makespan * peak_flops),
            energy_joules: energy,
            tokens_per_joule: if energy > 0.0 {
                eff as f64 / energy
            } else {
                0.0
            },
        };
        Ok((metrics, trace.then(|| tl.into_ops())))
    }
}

/// Builds the launch cell of `bucket` over decoder layers `a..b`: each
/// member hTask's stage graph is segmented and priced, the subgraphs are
/// ordered by Algorithm 1 (or run back to back without orchestration), and
/// adjacent ready adapter branches are horizontally fused.
fn build_cell(
    registry: &TaskRegistry,
    gpu: &GpuSpec,
    tp: usize,
    (a, b): (usize, usize),
    bucket: &[HTask],
    options: &EngineOptions,
) -> Vec<Item> {
    // Build + segment each member hTask's stage graph.
    let graphs: Vec<_> = bucket
        .iter()
        .map(|h| registry.build_multitask_stage_graph(a, b, tp, &h.tasks))
        .collect();
    let dags: Vec<_> = {
        let _s = mux_obs::span("engine.segment");
        graphs.iter().map(segment).collect()
    };
    // Per-subgraph costs.
    let sg_cost = |gi: usize, sg: &crate::subgraph::Subgraph, pass: Pass| {
        let h = &bucket[gi];
        let mut dur = 0.0;
        let mut util: f64 = 0.0;
        let mut flops = 0.0;
        for &n in &sg.nodes {
            let node = graphs[gi].node(n);
            if node.template.kind.is_comm() {
                continue;
            }
            let member = if node.tag == 0 {
                None
            } else {
                Some(
                    h.tasks
                        .iter()
                        .position(|&t| t == node.tag)
                        .expect("adapter tag is a member"),
                )
            };
            let (t, u, f) = crate::cost::htask_op_time(
                gpu,
                node.template.kind,
                &node.template.cost,
                h,
                member,
                pass,
            );
            dur += t;
            util = util.max(u);
            flops += f;
        }
        (dur, util, flops)
    };
    let comm_payload = |gi: usize, sg: &crate::subgraph::Subgraph| -> f64 {
        sg.nodes
            .iter()
            .map(|&n| {
                let node = graphs[gi].node(n);
                if node.template.kind.is_comm() {
                    node.template.cost.comm_bytes(bucket[gi].shape())
                } else {
                    0.0
                }
            })
            .sum()
    };
    // Launch order.
    let order = if options.orchestrate {
        let _s = mux_obs::span("engine.schedule");
        schedule_subgraphs(&dags, &|gi, sg| sg_cost(gi, sg, Pass::Forward).0)
    } else {
        dags.iter()
            .enumerate()
            .flat_map(|(gi, d)| {
                d.iter().map(move |sg| crate::schedule::LaunchItem {
                    dag: gi,
                    subgraph: sg.id,
                })
            })
            .collect()
    };
    // Convert to items, applying case-2 adapter fusion over
    // adjacent ready adapter branches.
    let mut cell_items: Vec<Item> = Vec::new();
    let mut item_of = vec![vec![usize::MAX; 0]; dags.len()];
    for (gi, d) in dags.iter().enumerate() {
        item_of[gi] = vec![usize::MAX; d.len()];
    }
    let mut i = 0;
    while i < order.len() {
        let li = order[i];
        let sg = &dags[li.dag][li.subgraph];
        // Horizontal adapter fusion (§3.4.3). Case 1: adapter
        // branches of *different member tasks within one hTask*
        // at the same attach point (same priority) fuse into a
        // grouped kernel. Case 2: adapters of single-task
        // hTasks in the same bucket fuse across DAGs. Case 3
        // (across buckets) never shares a cell by construction.
        let mut group = vec![li];
        if options.fuse_adapters && sg.is_adapter {
            let site = |l: &crate::schedule::LaunchItem| AdapterSite {
                bucket: 0,
                htask: l.dag,
                single_task_htask: bucket[l.dag].tasks.len() == 1,
                priority: dags[l.dag][l.subgraph].priority,
                feeds_pending_collective: false,
            };
            while i + group.len() < order.len() {
                let nxt = order[i + group.len()];
                let nsg = &dags[nxt.dag][nxt.subgraph];
                let case1 = nxt.dag == li.dag
                    && nsg.is_adapter
                    && nsg.task != sg.task
                    && nsg.priority == sg.priority;
                let case2 = nxt.dag != li.dag
                    && nsg.is_adapter
                    && fusible_across_htasks(site(&li), site(&nxt));
                if case1 || case2 {
                    group.push(nxt);
                } else {
                    break;
                }
            }
        }
        let idx = cell_items.len();
        let mut deps = Vec::new();
        let mut payload = 0.0;
        let mut fwd_branches = Vec::new();
        let mut bwd_branches = Vec::new();
        let mut flops = (0.0, 0.0);
        for l in &group {
            let s = &dags[l.dag][l.subgraph];
            for &dsg in &s.deps {
                let di = item_of[l.dag][dsg];
                debug_assert_ne!(di, usize::MAX, "dep not yet issued");
                if !deps.contains(&di) {
                    deps.push(di);
                }
            }
            let f = sg_cost(l.dag, s, Pass::Forward);
            let bw = sg_cost(l.dag, s, Pass::BackwardInputOnly);
            fwd_branches.push((f.0, f.1));
            bwd_branches.push((bw.0, bw.1));
            flops.0 += f.2;
            flops.1 += bw.2;
            payload += comm_payload(l.dag, s);
            item_of[l.dag][l.subgraph] = idx;
        }
        let (fd, fu) = if group.len() > 1 {
            let d = fused_latency(&fwd_branches);
            (
                d,
                fwd_branches.iter().map(|(t, u)| t * u).sum::<f64>() / d.max(1e-12),
            )
        } else {
            fwd_branches[0]
        };
        let (bd, bu) = if group.len() > 1 {
            let d = fused_latency(&bwd_branches);
            (
                d,
                bwd_branches.iter().map(|(t, u)| t * u).sum::<f64>() / d.max(1e-12),
            )
        } else {
            bwd_branches[0]
        };
        cell_items.push(Item {
            deps,
            fwd: (fd, fu.min(1.0), flops.0),
            bwd: (bd, bu.min(1.0), flops.1),
            comm_payload: payload,
            members: group.iter().map(|l| (l.dag, l.subgraph)).collect(),
        });
        i += group.len();
    }
    cell_items
}

/// One run's executor. Every cell reuses its handle and dependency
/// buffers instead of allocating per item.
struct EngineExec<'e, 'c> {
    eng: &'e MuxEngine<'c>,
    oom: Option<OomError>,
    comm_policy: CommCtaPolicy,
    stage_devices: Vec<Vec<usize>>,
    /// Every handle the current cell issued, item by item: one per rank
    /// for a traced run's compute group, one per group otherwise.
    handles: Vec<OpHandle>,
    /// The `(start, end)` range of `handles` each item of the current cell
    /// issued.
    item_spans: Vec<(usize, usize)>,
    /// The dependency list of the item being issued.
    item_deps: Vec<OpHandle>,
}

impl PipelineExec for EngineExec<'_, '_> {
    fn stage_devices(&self, stage: usize) -> Vec<usize> {
        self.stage_devices[stage].clone()
    }

    fn exec(
        &mut self,
        tl: &mut Timeline<'_>,
        stage: usize,
        mb: usize,
        phase: Phase,
        deps: &[OpHandle],
    ) -> OpHandle {
        let Self {
            eng,
            oom,
            comm_policy,
            stage_devices,
            handles,
            item_spans,
            item_deps,
        } = self;
        let bucket = eng.template.mb_bucket[mb];
        let devices = &stage_devices[stage];
        // Activation memory: allocate on forward, release on backward.
        if oom.is_none() {
            let bytes = eng.act_bytes[bucket][stage];
            match phase {
                Phase::Forward => {
                    for &d in devices {
                        if let Err(e) = tl.alloc(d, bytes / devices.len() as u64) {
                            *oom = Some(e);
                        }
                    }
                }
                Phase::Backward => {
                    for &d in devices {
                        tl.free(d, bytes / devices.len() as u64);
                    }
                }
                Phase::Weight => {}
            }
        }
        let at = CellPos::new(bucket, stage, mb, phase);
        handles.clear();
        item_spans.clear();
        for item in &eng.cells[bucket][eng.stage_cell[stage]] {
            let (dur, util, flops) = match phase {
                Phase::Forward => item.fwd,
                Phase::Backward | Phase::Weight => item.bwd,
            };
            item_deps.clear();
            item_deps.extend_from_slice(deps);
            for &d in &item.deps {
                let (lo, hi) = item_spans[d];
                item_deps.extend_from_slice(&handles[lo..hi]);
            }
            let first = handles.len();
            // A stage's ranks stay in lockstep: every compute op and
            // collective of the stage goes to all of them with the same
            // deps, and p2p copies touch no lane. So one pricing serves
            // every rank.
            tl.compute_group(
                devices,
                dur,
                util,
                flops,
                item_deps,
                (at, &item.members),
                handles,
            );
            if item.comm_payload > 0.0 && devices.len() > 1 {
                let c = tl.collective(
                    devices,
                    CollectiveKind::AllReduce,
                    item.comm_payload,
                    &handles[first..],
                    *comm_policy,
                    !eng.options.overlap_comm,
                    OpLabel::AllReduce(at),
                );
                handles.push(c);
            }
            item_spans.push((first, handles.len()));
        }
        tl.join(handles, OpLabel::Join(at))
    }

    fn p2p_bytes(&self, mb: usize) -> f64 {
        self.eng.p2p_bytes[self.eng.template.mb_bucket[mb]]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
    use mux_model::config::ModelConfig;
    use mux_peft::types::{PeftTask, PeftType};

    fn setup(n: usize) -> (TaskRegistry, Cluster) {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for i in 0..n as u32 {
            reg.register_task(PeftTask::lora(i + 1, 16, 4, 128))
                .expect("register");
        }
        (
            reg,
            Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40()),
        )
    }

    fn single_buckets(reg: &TaskRegistry, mbs: usize) -> Vec<Vec<HTask>> {
        reg.tasks()
            .map(|t| vec![HTask::from_padded(&[t], mbs)])
            .collect()
    }

    #[test]
    fn engine_runs_and_accounts_tokens_exactly() {
        let (reg, cluster) = setup(2);
        let buckets = single_buckets(&reg, 4);
        let eng = MuxEngine::new(
            &reg,
            &cluster,
            HybridParallelism::pipeline(4),
            &buckets,
            EngineOptions::default(),
        );
        let m = eng.run().expect("fits");
        // 2 tasks x 4 rounds x (4 seqs x 128 tokens) each.
        assert_eq!(m.total_tokens, 2 * 4 * 4 * 128);
        assert_eq!(
            m.effective_tokens, m.total_tokens,
            "uniform caps, padded planning"
        );
        assert!(m.energy_joules > 0.0);
    }

    #[test]
    fn traced_run_reports_every_cell() {
        let (reg, cluster) = setup(2);
        let buckets = single_buckets(&reg, 2);
        let eng = MuxEngine::new(
            &reg,
            &cluster,
            HybridParallelism::pipeline(4),
            &buckets,
            EngineOptions::default(),
        );
        let (m, trace) = eng.run_traced().expect("fits");
        assert!(m.makespan > 0.0);
        // 2 buckets x 2 rounds x 4 stages x 2 passes cells, each with >= 1 op.
        assert!(trace.len() >= 2 * 2 * 4 * 2);
    }

    #[test]
    fn adapter_fusion_reduces_cell_items() {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        reg.register_task(PeftTask::lora(1, 16, 4, 128))
            .expect("t1");
        reg.register_task(PeftTask::lora(2, 16, 4, 128))
            .expect("t2");
        let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
        let h = HTask::from_padded(&reg.tasks().collect::<Vec<_>>(), 2);
        let mk = |fuse: bool| {
            let opts = EngineOptions {
                fuse_adapters: fuse,
                ..EngineOptions::default()
            };
            MuxEngine::new(
                &reg,
                &cluster,
                HybridParallelism::pipeline(4),
                &[vec![h.clone()]],
                opts,
            )
        };
        let fused = mk(true);
        let unfused = mk(false);
        let items = |e: &MuxEngine<'_>| {
            e.stage_cell
                .iter()
                .map(|&c| e.cells[0][c].len())
                .sum::<usize>()
        };
        assert!(
            items(&fused) < items(&unfused),
            "fusion must merge adapter branches"
        );
        // And fusing must not be slower.
        let tf = fused.run().expect("fits").makespan;
        let tu = unfused.run().expect("fits").makespan;
        assert!(tf <= tu * 1.001, "fused {tf} vs unfused {tu}");
    }

    /// Field-for-field equality of two cells, floats by bit pattern.
    fn same_cell(a: &[Item], b: &[Item]) -> bool {
        let bits = |(d, u, f): (f64, f64, f64)| [d.to_bits(), u.to_bits(), f.to_bits()];
        a.len() == b.len()
            && a.iter().zip(b).all(|(x, y)| {
                x.deps == y.deps
                    && bits(x.fwd) == bits(y.fwd)
                    && bits(x.bwd) == bits(y.bwd)
                    && x.comm_payload.to_bits() == y.comm_payload.to_bits()
                    && x.members == y.members
            })
    }

    #[test]
    fn each_stage_runs_the_cell_of_its_own_layer_range() {
        for (layers, pp) in [(7, 3), (5, 4)] {
            let ranges = stage_layers(layers, pp);
            for tp in [1, 2] {
                for adapter_tuning in [false, true] {
                    for fuse_adapters in [false, true] {
                        let mut reg =
                            TaskRegistry::new(ModelConfig::llama2_7b().with_layers(layers));
                        for id in 1..=4u32 {
                            let mut t = PeftTask::lora(id, 8 << (id % 2), 2, 64 << (id % 3));
                            if adapter_tuning {
                                t.peft = PeftType::AdapterTuning {
                                    bottleneck: 32 * id as usize,
                                };
                            }
                            reg.register_task(t).expect("register");
                        }
                        let tasks: Vec<&PeftTask> = reg.tasks().collect();
                        // A two-task hTask beside two single-task ones, so
                        // both in-cell fusion cases apply.
                        let bucket = vec![
                            HTask::from_padded(&tasks[..2], 2),
                            HTask::from_padded(&tasks[2..3], 2),
                            HTask::from_padded(&tasks[3..], 2),
                        ];
                        let cluster =
                            Cluster::single_node(GpuSpec::a40(), tp * pp, LinkSpec::nvlink_a40());
                        let plan = HybridParallelism { tp, pp, dp: 1 };
                        let options = EngineOptions {
                            fuse_adapters,
                            ..EngineOptions::default()
                        };
                        let eng = MuxEngine::new(
                            &reg,
                            &cluster,
                            plan,
                            std::slice::from_ref(&bucket),
                            options,
                        );
                        let case = format!(
                            "{layers} layers pp{pp} tp{tp} adapter {adapter_tuning} fuse {fuse_adapters}"
                        );
                        // Depths (3, 2, 2) and (2, 1, 1, 1): two cells each.
                        assert_eq!(eng.cells[0].len(), 2, "{case}");
                        assert!(!same_cell(&eng.cells[0][0], &eng.cells[0][1]), "{case}");
                        for (s, &range) in ranges.iter().enumerate() {
                            let own =
                                build_cell(&reg, &cluster.gpus[0], tp, range, &bucket, &options);
                            let shared = &eng.cells[0][eng.stage_cell[s]];
                            assert!(same_cell(shared, &own), "{case}: stage {s}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn template_matches_bucket_rounds() {
        let (reg, cluster) = setup(3);
        let buckets = single_buckets(&reg, 5);
        let eng = MuxEngine::new(
            &reg,
            &cluster,
            HybridParallelism::pipeline(4),
            &buckets,
            EngineOptions::default(),
        );
        assert_eq!(eng.template().mb_bucket.len(), 3 * 5);
    }

    #[test]
    fn eq5_memory_model_tracks_engine_peak_scaling() {
        // §5.3: the Eq. 5 model "precisely matches the scaling of the
        // measured memory footprint" — double the tokens, and both the
        // model's activation term and the engine's measured peak-activation
        // delta double.
        let (reg, cluster) = setup(1);
        let gpu = GpuSpec::a40();
        let cm = crate::cost::CostModel::new(&reg, &gpu, HybridParallelism::pipeline(4));
        let peak_act = |mb: usize| -> (u64, u64) {
            let t = reg.tasks().next().expect("task").clone();
            let mut r2 = TaskRegistry::new(reg.backbone().clone());
            r2.register_task(PeftTask {
                micro_batch: mb,
                ..t
            })
            .expect("register");
            let h = HTask::from_padded(&r2.tasks().collect::<Vec<_>>(), 2);
            let model = cm.stage_memory(0, std::slice::from_ref(&h), 2);
            let opts = EngineOptions {
                max_in_flight: 2,
                ..EngineOptions::default()
            };
            let eng = MuxEngine::new(
                &r2,
                &cluster,
                HybridParallelism::pipeline(4),
                &[vec![h]],
                opts,
            );
            let m = eng.run().expect("fits");
            (model, m.peak_mem.iter().copied().max().unwrap_or(0))
        };
        let (m1, e1) = peak_act(4);
        let (m2, e2) = peak_act(8);
        // The token-dependent part doubles in both.
        let dm = m2 as f64 - m1 as f64;
        let de = e2 as f64 - e1 as f64;
        assert!(dm > 0.0 && de > 0.0);
        let ratio = dm / de;
        assert!(
            ratio > 0.5 && ratio < 2.0,
            "model/engine activation delta ratio {ratio}"
        );
    }

    #[test]
    fn oom_reports_the_offending_device() {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b());
        reg.register_task(PeftTask::lora(1, 16, 256, 256))
            .expect("fat task");
        let cluster = Cluster::single_node(GpuSpec::a40(), 2, LinkSpec::nvlink_a40());
        let h = HTask::from_padded(&reg.tasks().collect::<Vec<_>>(), 8);
        let opts = EngineOptions {
            max_in_flight: 8,
            ..EngineOptions::default()
        };
        let eng = MuxEngine::new(
            &reg,
            &cluster,
            HybridParallelism::pipeline(2),
            &[vec![h]],
            opts,
        );
        let err = eng.run().expect_err("must OOM");
        assert!(err.device < 2);
        assert!(err.requested > 0);
    }
}
