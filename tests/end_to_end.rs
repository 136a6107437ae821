//! Cross-crate integration tests: the full plan-and-run path, the baseline
//! harness, determinism, and headline orderings.

use std::collections::BTreeMap;

use muxtune::prelude::*;

fn workload(n: usize) -> (TaskRegistry, BTreeMap<TaskId, Vec<usize>>) {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    let mut corpora = BTreeMap::new();
    for i in 0..n as u32 {
        let ds = match i % 3 {
            0 => DatasetKind::Sst2,
            1 => DatasetKind::OpenBookQa,
            _ => DatasetKind::Rte,
        };
        reg.register_task(PeftTask::lora(i + 1, 16, 4, ds.max_len()))
            .expect("register");
        corpora.insert(i + 1, Corpus::generate(ds, 16, i as u64).lengths);
    }
    (reg, corpora)
}

fn a40(n: usize) -> Cluster {
    Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
}

#[test]
fn full_pipeline_is_deterministic() {
    let (reg, corpora) = workload(4);
    let cluster = a40(4);
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let a = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("run a");
    let b = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("run b");
    assert_eq!(
        a.metrics.makespan, b.metrics.makespan,
        "simulation must be bit-reproducible"
    );
    assert_eq!(a.metrics.total_tokens, b.metrics.total_tokens);
    assert_eq!(a.plan.fusion.htasks.len(), b.plan.fusion.htasks.len());
}

#[test]
fn muxtune_dominates_every_baseline_on_the_canonical_workload() {
    let (reg, corpora) = workload(6);
    let cluster = a40(4);
    let mux = run_system(SystemKind::MuxTune, &reg, &cluster, &corpora, 4).expect("mux");
    for sys in [SystemKind::HfPeft, SystemKind::Nemo, SystemKind::SlPeft] {
        let rep = run_system(sys, &reg, &cluster, &corpora, 4).expect("baseline");
        assert!(
            mux.metrics.effective_throughput >= rep.metrics.effective_throughput,
            "MuxTune {} must be >= {} {}",
            mux.metrics.effective_throughput,
            rep.system.name(),
            rep.metrics.effective_throughput
        );
    }
}

#[test]
fn effective_throughput_never_exceeds_total() {
    let (reg, corpora) = workload(5);
    let cluster = a40(4);
    for sys in SystemKind::ALL {
        let rep = run_system(sys, &reg, &cluster, &corpora, 4).expect("run");
        assert!(
            rep.metrics.effective_tokens <= rep.metrics.total_tokens,
            "{}",
            sys.name()
        );
        assert!(rep.metrics.effective_throughput <= rep.metrics.throughput + 1e-9);
    }
}

#[test]
fn peak_memory_respects_device_capacity() {
    let (reg, corpora) = workload(4);
    let cluster = a40(4);
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let rep = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("run");
    for (d, &peak) in rep.metrics.peak_mem.iter().enumerate() {
        assert!(
            peak <= cluster.gpus[d].mem_capacity,
            "device {d} over capacity"
        );
    }
}

#[test]
fn grid_search_picks_a_valid_plan() {
    let (reg, corpora) = workload(4);
    let cluster = a40(4);
    let rep = run_system(SystemKind::MuxTune, &reg, &cluster, &corpora, 4).expect("run");
    assert_eq!(rep.plan.num_gpus(), 4, "plan must use the whole cluster");
    assert!(rep.plan.tp <= 4 && rep.plan.pp <= 16);
}

#[test]
fn dynamic_arrival_changes_plans_without_rebuilding_backbone() {
    let (mut reg, mut corpora) = workload(2);
    let cluster = a40(4);
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let before = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("before");
    let backbone_before = reg.backbone().clone();
    // A new tenant arrives.
    reg.register_task(PeftTask::lora(99, 16, 4, 128))
        .expect("arrival");
    corpora.insert(
        99,
        Corpus::generate(DatasetKind::OpenBookQa, 16, 99).lengths,
    );
    let after = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("after");
    assert_eq!(
        reg.backbone(),
        &backbone_before,
        "backbone untouched by arrival"
    );
    assert!(after.metrics.total_tokens > before.metrics.total_tokens);
    // Departure restores the old token volume.
    reg.deregister_task(99).expect("departure");
    corpora.remove(&99);
    let restored = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("restored");
    assert_eq!(restored.metrics.total_tokens, before.metrics.total_tokens);
}

#[test]
fn h100_widens_the_gap_over_single_task_baselines() {
    let (reg, corpora) = workload(4);
    let a40c = a40(4);
    let h100c = Cluster::single_node(GpuSpec::h100(), 4, LinkSpec::nvlink_h100());
    let ratio = |cluster: &Cluster| {
        let mux = run_system(SystemKind::MuxTune, &reg, cluster, &corpora, 4).expect("mux");
        let nemo = run_system(SystemKind::Nemo, &reg, cluster, &corpora, 4).expect("nemo");
        mux.metrics.effective_throughput / nemo.metrics.effective_throughput
    };
    let r_a40 = ratio(&a40c);
    let r_h100 = ratio(&h100c);
    assert!(
        r_h100 > r_a40,
        "faster hardware must amplify MuxTune's edge (§5.2): A40 {r_a40:.2} vs H100 {r_h100:.2}"
    );
}

#[test]
fn planning_overhead_is_bounded() {
    let (reg, corpora) = workload(8);
    let cluster = a40(4);
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let rep = plan_and_run(&reg, &cluster, &corpora, &cfg).expect("run");
    assert!(
        rep.planning_seconds < 10.0,
        "planning must stay under the paper's 10 s budget: {}",
        rep.planning_seconds
    );
}
