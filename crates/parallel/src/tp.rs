//! Tensor-parallel stage execution on the simulator.
//!
//! Executes an operator DAG (whose costs are already per-GPU-sharded and
//! whose all-reduces were placed by the graph builder) across a TP group.
//! Two launch modes:
//!
//! * **Sequential**: every operator — including collectives — launches on
//!   one stream in topological order; communication blocks compute. This is
//!   the single-stream baseline behaviour (NeMo in Fig 18a).
//! * **Scheduled**: the caller supplies an explicit launch order (e.g. from
//!   MuxTune's subgraph scheduler) and comm ops go to the comm stream,
//!   overlapping other tasks' compute.

use mux_gpu_sim::spec::{CommCtaPolicy, Work};
use mux_gpu_sim::timeline::{CollectiveKind, OpHandle, Timeline};
use mux_model::graph::OpGraph;
use mux_model::ops::{OpCostSpec, OpKind, Pass, TokenShape};

/// Resolves the token shape an op sees, by owner tag (backbone tag 0 sees
/// the fused batch; task tags see their own slice).
pub trait ShapeResolver {
    /// Token shape for ops owned by `tag`.
    fn shape_for(&self, tag: u32) -> TokenShape;
}

/// Uniform shape for single-task execution.
#[derive(Debug, Clone, Copy)]
pub struct UniformShape(pub TokenShape);

impl ShapeResolver for UniformShape {
    fn shape_for(&self, _tag: u32) -> TokenShape {
        self.0
    }
}

/// Converts one op node into simulator [`Work`].
pub fn work_for(cost: &OpCostSpec, kind: OpKind, shape: TokenShape, pass: Pass) -> Work {
    let flops = cost.flops(shape, pass);
    let bytes = cost.bytes(shape, pass);
    match kind {
        OpKind::QkvProj
        | OpKind::OutProj
        | OpKind::MlpUp
        | OpKind::MlpDown
        | OpKind::AttnScore
        | OpKind::AttnContext
        | OpKind::LmHead
        | OpKind::AdapterGemm => Work::tensor(flops, bytes),
        _ => Work::vector(flops, bytes),
    }
}

/// Executes `graph` on the TP `devices` in topological order with blocking
/// communication. Returns the handle of the final op (join of sinks).
///
/// Each compute node runs on every device of the group (its cost is the
/// per-GPU shard); collectives involve the whole group.
pub fn execute_stage_sequential(
    tl: &mut Timeline<'_>,
    graph: &OpGraph,
    shapes: &dyn ShapeResolver,
    pass: Pass,
    devices: &[usize],
    entry_deps: &[OpHandle],
) -> OpHandle {
    execute_stage_ordered(
        tl,
        graph,
        &(0..graph.len()).collect::<Vec<_>>(),
        shapes,
        pass,
        devices,
        entry_deps,
        true,
        CommCtaPolicy::sequential(),
    )
}

/// Executes `graph` in an explicit `order` (a permutation of node ids that
/// respects dependencies). With `blocking_comm = false`, collectives run on
/// the comm stream under `policy`, overlapping subsequent compute.
#[allow(clippy::too_many_arguments)]
pub fn execute_stage_ordered(
    tl: &mut Timeline<'_>,
    graph: &OpGraph,
    order: &[usize],
    shapes: &dyn ShapeResolver,
    pass: Pass,
    devices: &[usize],
    entry_deps: &[OpHandle],
    blocking_comm: bool,
    policy: CommCtaPolicy,
) -> OpHandle {
    assert_eq!(order.len(), graph.len(), "order must cover the whole graph");
    let mut done: Vec<Option<Vec<OpHandle>>> = vec![None; graph.len()];
    let mut issued = vec![false; graph.len()];
    for &nid in order {
        let node = graph.node(nid);
        assert!(!issued[nid], "node {nid} issued twice");
        for &d in &node.deps {
            assert!(issued[d], "order violates dependency {d} -> {nid}");
        }
        issued[nid] = true;
        let mut deps: Vec<OpHandle> = entry_deps.to_vec();
        for &d in &node.deps {
            deps.extend(done[d].as_ref().expect("dep issued").iter().copied());
        }
        let shape = shapes.shape_for(node.tag);
        let handles = if node.template.kind.is_comm() {
            let payload = node.template.cost.comm_bytes(shape);
            let kind = match node.template.kind {
                OpKind::AllGather => CollectiveKind::AllGather,
                _ => CollectiveKind::AllReduce,
            };
            vec![tl.collective(
                devices,
                kind,
                payload,
                &deps,
                policy,
                blocking_comm,
                node.template.name.as_str(),
            )]
        } else {
            let work = work_for(&node.template.cost, node.template.kind, shape, pass);
            devices
                .iter()
                .map(|&dev| tl.compute(dev, work, &deps, node.template.name.as_str()))
                .collect()
        };
        done[nid] = Some(handles);
    }
    // Join all sinks (nodes nobody depends on).
    let succ = graph.successors();
    let sinks: Vec<OpHandle> = (0..graph.len())
        .filter(|&i| succ[i].is_empty())
        .flat_map(|i| done[i].clone().expect("issued"))
        .collect();
    tl.join(&sinks, "stage-done")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
    use mux_gpu_sim::timeline::Cluster;
    use mux_model::config::ModelConfig;
    use mux_model::layer::build_stage_graph;

    fn sim_stage(tp: usize, blocking: bool) -> f64 {
        let cfg = ModelConfig::llama2_7b();
        let cluster = Cluster::single_node(GpuSpec::a40(), tp.max(1), LinkSpec::nvlink_a40());
        let mut tl = Timeline::new(&cluster);
        let g = build_stage_graph(&cfg, 0, 2, tp);
        let shapes = UniformShape(TokenShape::new(8, 128));
        let devices: Vec<usize> = (0..tp).collect();
        let order: Vec<usize> = (0..g.len()).collect();
        let policy = CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), false);
        execute_stage_ordered(
            &mut tl,
            &g,
            &order,
            &shapes,
            Pass::Forward,
            &devices,
            &[],
            blocking,
            policy,
        );
        tl.finish_time()
    }

    #[test]
    fn tp_speeds_up_a_stage_but_sublinearly() {
        let t1 = sim_stage(1, true);
        let t4 = sim_stage(4, true);
        assert!(t4 < t1, "TP should reduce stage latency: {t1} vs {t4}");
        assert!(t4 > t1 / 4.0, "comm + ramp losses make TP sublinear");
    }

    #[test]
    fn overlapped_comm_is_not_slower_than_blocking() {
        let blocking = sim_stage(4, true);
        let overlapped = sim_stage(4, false);
        // A single chain has little to overlap with, but the comm stream
        // must never make things worse than serial launch by much more
        // than the contention penalty.
        assert!(overlapped <= blocking * 1.1, "{overlapped} vs {blocking}");
    }

    #[test]
    fn backward_peft_costs_about_forward() {
        let cfg = ModelConfig::llama2_7b();
        let cluster = Cluster::single_node(GpuSpec::a40(), 1, LinkSpec::nvlink_a40());
        let g = build_stage_graph(&cfg, 0, 1, 1);
        let shapes = UniformShape(TokenShape::new(8, 128));

        let mut t_f = Timeline::new(&cluster);
        execute_stage_sequential(&mut t_f, &g, &shapes, Pass::Forward, &[0], &[]);
        let mut t_b = Timeline::new(&cluster);
        execute_stage_sequential(&mut t_b, &g, &shapes, Pass::BackwardInputOnly, &[0], &[]);
        let mut t_full = Timeline::new(&cluster);
        execute_stage_sequential(&mut t_full, &g, &shapes, Pass::BackwardFull, &[0], &[]);

        let (f, b, full) = (t_f.finish_time(), t_b.finish_time(), t_full.finish_time());
        // §3.3: "forward and backward passes of the same stage share
        // similar latency in PEFT".
        assert!((b / f) < 1.35 && (b / f) > 0.95, "peft bwd/fwd = {}", b / f);
        assert!(
            full > b * 1.3,
            "full bwd must be much slower: {full} vs {b}"
        );
    }

    #[test]
    #[should_panic(expected = "violates dependency")]
    fn bad_order_is_rejected() {
        let cfg = ModelConfig::tiny(1, 64, 4, 100);
        let cluster = Cluster::single_node(GpuSpec::a40(), 1, LinkSpec::nvlink_a40());
        let mut tl = Timeline::new(&cluster);
        let g = build_stage_graph(&cfg, 0, 1, 1);
        let mut order: Vec<usize> = (0..g.len()).collect();
        order.swap(0, 5);
        let shapes = UniformShape(TokenShape::new(1, 16));
        execute_stage_ordered(
            &mut tl,
            &g,
            &order,
            &shapes,
            Pass::Forward,
            &[0],
            &[],
            true,
            CommCtaPolicy::sequential(),
        );
    }
}
