//! Quickstart: co-schedule four LoRA fine-tuning tasks on one shared
//! LLaMA2-7B backbone across a 4-GPU pipeline, and compare against running
//! them one-by-one (the single-task-framework deployment model).
//!
//! Run with: `cargo run --release --example quickstart`

use std::collections::BTreeMap;

use muxtune::prelude::*;

fn main() {
    // 1. An in-flight instance: one frozen backbone, shared by all tasks.
    //    (Truncated to 16 layers so the example runs in a second or two;
    //    drop `.with_layers(16)` for the full model.)
    let backbone = ModelConfig::llama2_7b().with_layers(16);
    let mut registry = TaskRegistry::new(backbone);

    // 2. Tasks arrive on the fly via the register API — no model rebuild.
    //    Each task picks its own PEFT config, batch size and dataset cap.
    for (id, (rank, micro_batch, seq)) in [
        (16usize, 4usize, 64usize),
        (16, 4, 64),
        (32, 2, 128),
        (8, 8, 128),
    ]
    .iter()
    .enumerate()
    {
        registry
            .register_task(PeftTask::lora(id as TaskId + 1, *rank, *micro_batch, *seq))
            .expect("fresh task id");
    }

    // 3. The hardware: 4 A40s with NVLink, as one pipeline.
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let corpora: BTreeMap<TaskId, Vec<usize>> = registry
        .tasks()
        .map(|t| {
            let kind = if t.seq_len <= 64 {
                DatasetKind::Sst2
            } else {
                DatasetKind::OpenBookQa
            };
            (t.id, Corpus::generate(kind, 64, t.id as u64).lengths)
        })
        .collect();

    // 4. Plan and run: DP task fusion -> hTask grouping -> structured
    //    pipeline template -> Algorithm-1 operator orchestration.
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let report = plan_and_run(&registry, &cluster, &corpora, &cfg).expect("runs within memory");

    println!("MuxTune plan:");
    println!(
        "  {} tasks fused into {} hTask(s)",
        registry.len(),
        report.plan.fusion.htasks.len()
    );
    for (i, h) in report.plan.fusion.htasks.iter().enumerate() {
        println!(
            "    hTask {i}: tasks {:?}, {} tokens/micro-batch, unit len {}",
            h.tasks,
            h.total_tokens(),
            h.unit_len
        );
    }
    println!(
        "  {} temporal bucket(s): {:?}",
        report.plan.grouping.buckets.len(),
        report.plan.grouping.buckets
    );
    println!(
        "  planning overhead: {:.1} ms",
        report.planning_seconds * 1e3
    );
    println!("Simulated run:");
    println!(
        "  makespan               {:.1} ms",
        report.metrics.makespan * 1e3
    );
    println!(
        "  throughput             {:.0} tokens/s",
        report.metrics.throughput
    );
    println!(
        "  effective throughput   {:.0} tokens/s",
        report.metrics.effective_throughput
    );
    println!(
        "  mean GPU utilization   {:.1}%",
        report.metrics.mean_utilization * 100.0
    );
    println!("  MFU                    {:.3}", report.metrics.mfu);

    // 5. Baseline: the same four tasks, each on its own instance, run
    //    back-to-back (what HF-PEFT/NeMo deployments do).
    let mut seq_time = 0.0;
    let mut seq_tokens = 0u64;
    for t in registry.tasks() {
        let mut solo = TaskRegistry::new(registry.backbone().clone());
        solo.register_task(t.clone()).expect("solo");
        let r = plan_and_run(&solo, &cluster, &corpora, &cfg).expect("solo run");
        seq_time += r.metrics.makespan;
        seq_tokens += r.metrics.total_tokens;
    }
    let seq_tp = seq_tokens as f64 / seq_time;
    println!("Single-task sequential baseline: {seq_tp:.0} tokens/s");
    println!(
        "MuxTune speedup: {:.2}x",
        report.metrics.throughput / seq_tp
    );
}
