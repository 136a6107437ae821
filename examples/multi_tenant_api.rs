//! Multi-tenant fine-tuning API simulation: tasks of different tenants —
//! different PEFT types, batch sizes and datasets — arrive and depart on
//! the fly; the instance re-plans around each event without ever touching
//! the shared backbone (the paper's Fig 1 / Fig 6 workflow).
//!
//! Run with: `cargo run --release --example multi_tenant_api`

use std::collections::BTreeMap;

use muxtune::peft::types::PeftType;
use muxtune::prelude::*;

fn plan(registry: &TaskRegistry, cluster: &Cluster, corpora: &BTreeMap<TaskId, Vec<usize>>) {
    if registry.is_empty() {
        println!("  (instance idle)");
        return;
    }
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    match plan_and_run(registry, cluster, corpora, &cfg) {
        Ok(r) => println!(
            "  replanned in {:.1} ms: {} tasks -> {} hTask(s), {:.0} effective tokens/s, peak mem {:.1} GB",
            r.planning_seconds * 1e3,
            registry.len(),
            r.plan.fusion.htasks.len(),
            r.metrics.effective_throughput,
            *r.metrics.peak_mem.iter().max().unwrap_or(&0) as f64 / 1e9,
        ),
        Err(e) => println!("  rejected by admission control: {e}"),
    }
}

fn main() {
    let backbone = ModelConfig::llama2_7b().with_layers(16);
    let mut registry = TaskRegistry::new(backbone);
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let mut corpora: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();

    // Tenant A submits a LoRA sentiment task (SST2-like, short sequences).
    println!("event: tenant A registers task 1 (LoRA r=16, SST2)");
    registry
        .register_task(PeftTask::lora(1, 16, 4, 64))
        .expect("register");
    corpora.insert(1, Corpus::generate(DatasetKind::Sst2, 16, 1).lengths);
    plan(&registry, &cluster, &corpora);

    // Tenant B submits an Adapter-Tuning QA task.
    println!("event: tenant B registers task 2 (Adapter-Tuning b=64, QA)");
    registry
        .register_task(PeftTask {
            id: 2,
            peft: PeftType::AdapterTuning { bottleneck: 64 },
            micro_batch: 4,
            seq_len: 128,
            lr: 1e-3,
        })
        .expect("register");
    corpora.insert(2, Corpus::generate(DatasetKind::OpenBookQa, 16, 2).lengths);
    plan(&registry, &cluster, &corpora);

    // Tenant C submits a Diff-Pruning RTE task.
    println!("event: tenant C registers task 3 (Diff-Pruning 0.5%, RTE)");
    registry
        .register_task(PeftTask {
            id: 3,
            peft: PeftType::DiffPruning { sparsity: 0.005 },
            micro_batch: 2,
            seq_len: 256,
            lr: 1e-3,
        })
        .expect("register");
    corpora.insert(3, Corpus::generate(DatasetKind::Rte, 8, 3).lengths);
    plan(&registry, &cluster, &corpora);

    // Duplicate ids are rejected at the API boundary.
    println!("event: tenant D tries to reuse task id 2");
    match registry.register_task(PeftTask::lora(2, 8, 2, 64)) {
        Err(e) => println!("  rejected: {e}"),
        Ok(_) => unreachable!("duplicate must be rejected"),
    }

    // Tenant A's task completes; the instance re-plans around the rest.
    println!("event: task 1 completes and deregisters");
    registry.deregister_task(1).expect("deregister");
    corpora.remove(&1);
    plan(&registry, &cluster, &corpora);

    // A burst of LoRA tasks arrives; backbone memory is shared, so the
    // instance absorbs them all.
    println!("event: burst of 5 more LoRA tasks (ids 10..14)");
    for id in 10..15 {
        registry
            .register_task(PeftTask::lora(id, 16, 2, 64))
            .expect("register");
        corpora.insert(
            id,
            Corpus::generate(DatasetKind::Sst2, 8, id as u64).lengths,
        );
    }
    plan(&registry, &cluster, &corpora);
    println!(
        "instance generation counter: {} (each arrival/departure bumps it; the backbone was never rebuilt)",
        registry.generation()
    );
}
