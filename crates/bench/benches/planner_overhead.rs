//! Criterion micro-benchmarks of the planner's own costs (§3.3/§4: the
//! paper bounds scheduling overhead at ~10 s for a fine-tuning task of
//! hours; ours is analytic, so the budget is milliseconds).
//!
//! Covers the DP fusion (O(M²(S+M))), Eq. 7 grouping, Algorithm-1 subgraph
//! scheduling, segmentation, FFD packing and the tensor substrate matmul.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use std::hint::black_box;

use mux_gpu_sim::spec::GpuSpec;
use mux_model::config::ModelConfig;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};
use mux_tensor::tensor::{matmul, Tensor};
use muxtune_core::cost::CostModel;
use muxtune_core::fusion::{fuse_tasks, FusionPolicy, RangeBuild};
use muxtune_core::grouping::group_htasks;
use muxtune_core::htask::HTask;
use muxtune_core::schedule::schedule_subgraphs;
use muxtune_core::subgraph::segment;

fn registry(m: usize) -> TaskRegistry {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    for i in 0..m {
        let seq = [64usize, 128, 256][i % 3];
        reg.register_task(PeftTask::lora(i as TaskId + 1, 16, 2 + (i % 4) * 2, seq))
            .expect("ids");
    }
    reg
}

fn bench_fusion(c: &mut Criterion) {
    let mut g = c.benchmark_group("dp_fusion");
    for m in [8usize, 16, 32] {
        let reg = registry(m);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&reg, &gpu, HybridParallelism::pipeline(4));
        g.bench_function(format!("M={m}"), |b| {
            b.iter(|| {
                let tasks: Vec<&PeftTask> = reg.tasks().collect();
                black_box(fuse_tasks(
                    &cm,
                    &tasks,
                    FusionPolicy::Dp,
                    &RangeBuild::Padded { micro_batches: 4 },
                ))
            })
        });
    }
    g.finish();
}

fn bench_grouping(c: &mut Criterion) {
    let reg = registry(16);
    let gpu = GpuSpec::a40();
    let cm = CostModel::new(&reg, &gpu, HybridParallelism::pipeline(4));
    let htasks: Vec<HTask> = reg.tasks().map(|t| HTask::from_padded(&[t], 4)).collect();
    c.bench_function("grouping_16_htasks", |b| {
        b.iter(|| black_box(group_htasks(&cm, &htasks)))
    });
}

fn bench_subgraphs(c: &mut Criterion) {
    let reg = registry(4);
    let ids: Vec<TaskId> = vec![1, 2, 3, 4];
    let graph = reg.build_multitask_stage_graph(0, 4, 4, &ids);
    c.bench_function("segment_4task_4layer_stage", |b| {
        b.iter(|| black_box(segment(&graph)))
    });
    let dags: Vec<_> = (0..4)
        .map(|i| {
            let g = reg.build_multitask_stage_graph(0, 4, 4, &[ids[i]]);
            segment(&g)
        })
        .collect();
    c.bench_function("algorithm1_schedule_4_dags", |b| {
        b.iter(|| black_box(schedule_subgraphs(&dags, &|_, sg| sg.nodes.len() as f64)))
    });
}

fn bench_packing(c: &mut Criterion) {
    let lens: Vec<usize> = (0..512).map(|i| (i * 37) % 250 + 4).collect();
    c.bench_function("ffd_pack_512_seqs", |b| {
        b.iter_batched(
            || lens.clone(),
            |l| black_box(mux_data::packing::pack_ffd(&l, 256)),
            BatchSize::SmallInput,
        )
    });
}

fn bench_tensor(c: &mut Criterion) {
    let a = Tensor::full(vec![64, 64], 0.5);
    let bm = Tensor::full(vec![64, 64], 0.25);
    c.bench_function("tensor_matmul_64x64", |b| {
        b.iter(|| black_box(matmul(&a, &bm)))
    });
}

fn bench_obs_overhead(c: &mut Criterion) {
    // The planner/engine hot paths carry mux-obs spans permanently; the
    // observability contract is < 2% overhead while collection is off (the
    // default). Compare the full planner with spans disabled vs enabled,
    // plus the raw cost of a disabled `span()` call (one relaxed atomic
    // load) to show where the budget goes.
    use mux_gpu_sim::spec::LinkSpec;
    use mux_gpu_sim::timeline::Cluster;
    use muxtune_core::planner::{plan_and_run, PlannerConfig};

    let reg = registry(8);
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let corpora = std::collections::BTreeMap::new();
    let mut g = c.benchmark_group("obs_overhead");
    mux_obs::set_enabled(false);
    g.bench_function("plan_spans_disabled", |b| {
        b.iter(|| black_box(plan_and_run(&reg, &cluster, &corpora, &cfg)))
    });
    g.bench_function("plan_spans_enabled", |b| {
        let _on = mux_obs::enabled_scope();
        b.iter(|| black_box(plan_and_run(&reg, &cluster, &corpora, &cfg)))
    });
    g.bench_function("span_disabled_x1000", |b| {
        b.iter(|| {
            for _ in 0..1000 {
                black_box(mux_obs::span("bench.noop"));
            }
        })
    });
    g.finish();
}

criterion_group!(
    benches,
    bench_fusion,
    bench_grouping,
    bench_subgraphs,
    bench_packing,
    bench_tensor,
    bench_obs_overhead
);
criterion_main!(benches);
