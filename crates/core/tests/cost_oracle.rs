//! Differential oracle for the interned cost model.
//!
//! `CostModel::stage_latencies` prices each distinct backbone op and each
//! distinct BaseOp's fused-adapter term once per hTask, then sums every
//! stage over its own ops. The oracle below is the direct Eq. 3 walk: one
//! pass per stage over that stage's operator graph, pricing every op and
//! every *named* adapter op of every member on the spot. The two must agree
//! bit for bit — same floats, added in the same order — across all four
//! PEFT types, layer counts that split unevenly over the pipeline, tensor
//! parallelism, and padded as well as chunk-aligned hTasks.

use mux_data::align::AlignStrategy;
use mux_data::corpus::{Corpus, DatasetKind};
use mux_gpu_sim::spec::GpuSpec;
use mux_model::config::ModelConfig;
use mux_model::layer::build_stage_graph;
use mux_model::ops::{OpCostSpec, Pass};
use mux_parallel::plan::{stage_layers, HybridParallelism};
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, PeftType};
use muxtune_core::cost::{htask_op_time, CostModel};
use muxtune_core::htask::HTask;

/// Eq. 3 for stage `s`, walked directly over the stage's operator graph.
fn oracle_stage_latency(
    registry: &TaskRegistry,
    gpu: &GpuSpec,
    plan: HybridParallelism,
    s: usize,
    h: &HTask,
    pass: Pass,
) -> f64 {
    let cfg = registry.backbone();
    let (a, b) = stage_layers(cfg.num_layers, plan.pp)[s];
    let g = build_stage_graph(cfg, a, b, plan.tp);
    let mut lat: f64 = g
        .nodes()
        .iter()
        .filter(|n| !n.template.kind.is_comm())
        .map(|n| htask_op_time(gpu, n.template.kind, &n.template.cost, h, None, pass).0)
        .sum();
    for node in g.nodes().iter().filter(|n| n.template.kind.is_base_op()) {
        let OpCostSpec::Gemm { k, n, .. } = node.template.cost else {
            continue;
        };
        let mut weighted = 0.0;
        let mut max_single: f64 = 0.0;
        for (idx, &tid) in h.tasks.iter().enumerate() {
            let task = registry.task(tid).expect("registered");
            let mut t_a = 0.0;
            let mut util: f64 = 0.0;
            for op in task.adapter_ops(cfg, node.template.kind, k, n) {
                let (t, u, _) = htask_op_time(gpu, op.kind, &op.cost, h, Some(idx), pass);
                t_a += t;
                util = util.max(u);
            }
            weighted += util * t_a;
            max_single = max_single.max(t_a);
        }
        lat += weighted.max(max_single);
    }
    lat
}

/// One task of each PEFT type, each with the corpus its cap belongs to.
fn members() -> Vec<(PeftTask, DatasetKind)> {
    let task = |id, peft, micro_batch, kind: DatasetKind| {
        let t = PeftTask {
            id,
            peft,
            micro_batch,
            seq_len: kind.max_len(),
            lr: 1e-3,
        };
        (t, kind)
    };
    vec![
        task(1, PeftType::LoRA { rank: 16 }, 4, DatasetKind::OpenBookQa),
        task(
            2,
            PeftType::AdapterTuning { bottleneck: 64 },
            2,
            DatasetKind::Rte,
        ),
        task(
            3,
            PeftType::DiffPruning { sparsity: 0.005 },
            8,
            DatasetKind::Sst2,
        ),
        task(
            4,
            PeftType::PrefixTuning { prefix_len: 32 },
            4,
            DatasetKind::OpenBookQa,
        ),
    ]
}

/// Padded and chunk-aligned hTasks over single members, pairs and the
/// whole membership.
fn htasks(registry: &TaskRegistry, kinds: &[DatasetKind]) -> Vec<HTask> {
    let all: Vec<&PeftTask> = registry.tasks().collect();
    let subsets: Vec<Vec<usize>> = vec![
        vec![0],
        vec![1],
        vec![2],
        vec![3],
        vec![0, 1],
        vec![2, 3],
        vec![1, 3],
        vec![0, 1, 2, 3],
    ];
    let mut out = Vec::new();
    for subset in &subsets {
        let tasks: Vec<&PeftTask> = subset.iter().map(|&i| all[i]).collect();
        out.push(HTask::from_padded(&tasks, 4));
        let corpora: Vec<Vec<usize>> = subset
            .iter()
            .map(|&i| Corpus::generate(kinds[i], 24, 100 + i as u64).lengths)
            .collect();
        for strategy in [
            AlignStrategy::ChunkBased { min_chunk: 64 },
            AlignStrategy::ChunkExact { chunk: 32 },
        ] {
            out.push(HTask::fuse(&tasks, &corpora, 4, strategy).expect("corpora align"));
        }
    }
    out
}

#[test]
fn interned_stage_latencies_match_the_per_stage_walk_bitwise() {
    let gpu = GpuSpec::a40();
    let mut checked = 0;
    for (layers, pps) in [(7, &[1, 2, 3, 4][..]), (8, &[4][..])] {
        let mut registry = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(layers));
        let (tasks, kinds): (Vec<PeftTask>, Vec<DatasetKind>) = members().into_iter().unzip();
        for t in tasks {
            registry.register_task(t).expect("register");
        }
        let hts = htasks(&registry, &kinds);
        for &pp in pps {
            for tp in [1, 2] {
                let plan = HybridParallelism { tp, pp, dp: 1 };
                let cm = CostModel::new(&registry, &gpu, plan);
                for h in &hts {
                    for pass in [Pass::Forward, Pass::BackwardInputOnly] {
                        let got = cm.stage_latencies(h, pass);
                        assert_eq!(got.len(), pp);
                        for (s, lat) in got.iter().enumerate() {
                            let want = oracle_stage_latency(&registry, &gpu, plan, s, h, pass);
                            assert_eq!(
                                lat.to_bits(),
                                want.to_bits(),
                                "{layers} layers, pp {pp}, tp {tp}, stage {s}, {pass:?}, \
                                 members {:?}: {lat} vs {want}",
                                h.tasks
                            );
                            assert_eq!(cm.stage_latency(s, h, pass).to_bits(), want.to_bits());
                            checked += 1;
                        }
                    }
                    // Eq. 4 over the oracle's forward stage latencies.
                    let per_stage: Vec<f64> = (0..pp)
                        .map(|s| oracle_stage_latency(&registry, &gpu, plan, s, h, Pass::Forward))
                        .collect();
                    let warm_drain: f64 = per_stage[..pp - 1].iter().sum();
                    let bottleneck = per_stage.iter().cloned().fold(0.0, f64::max);
                    let want = 2.0 * warm_drain + 2.0 * h.micro_batches as f64 * bottleneck;
                    assert_eq!(cm.pipeline_latency(h).to_bits(), want.to_bits());
                }
            }
        }
    }
    assert!(checked > 1000, "only {checked} stage latencies compared");
}
