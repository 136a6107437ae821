//! Appendix A / Figure 22: optimality of the structured pipeline template.
//!
//! The template sorts hTask buckets descending by stage latency, keeps each
//! bucket's micro-batches consecutive, and launches eagerly within memory.
//! The Fig 22(e) counter-example — hiding the longest bucket mid-stream —
//! shrinks warm-up/drain but breaks the "last stage keeps busy" theorem
//! and ends up slower.

use mux_bench::harness::{a40_cluster, banner, row, save_json, x};
use mux_model::config::ModelConfig;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};
use muxtune_core::engine::{EngineOptions, MuxEngine};
use muxtune_core::htask::HTask;
use muxtune_core::template::BucketOrder;

fn main() {
    banner(
        "Fig 22",
        "structured-template bucket orderings (Appendix A)",
    );
    // Heterogeneous buckets: micro-batch sizes 16 / 8 / 4 / 2 create the
    // descending load profile the template exploits.
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    for (i, mb) in [16usize, 8, 4, 2].iter().enumerate() {
        reg.register_task(PeftTask::lora(i as TaskId + 1, 16, *mb, 128))
            .expect("ids");
    }
    let cluster = a40_cluster(4);
    // One single-task hTask per bucket, 4 micro-batches each, already
    // sorted descending by load (registration order).
    let buckets: Vec<Vec<HTask>> = reg
        .tasks()
        .map(|t| vec![HTask::from_padded(&[t], 4)])
        .collect();

    let mut results = Vec::new();
    let mut times = std::collections::BTreeMap::new();
    for order in [
        BucketOrder::Descending,
        BucketOrder::Ascending,
        BucketOrder::MiddlePeak,
    ] {
        let options = EngineOptions {
            bucket_order: order,
            ..EngineOptions::default()
        };
        let engine = MuxEngine::new(
            &reg,
            &cluster,
            HybridParallelism::pipeline(4),
            &buckets,
            options,
        );
        let m = engine.run().expect("fits");
        println!(
            "  {order:?}: makespan {:.1} ms, throughput {:.0} t/s (stream {:?})",
            m.makespan * 1e3,
            m.throughput,
            engine.template().bucket_stream
        );
        times.insert(format!("{order:?}"), m.makespan);
        results.push(serde_json::json!({
            "order": format!("{order:?}"), "makespan_ms": m.makespan * 1e3,
            "throughput": m.throughput,
        }));
    }
    let desc = times["Descending"];
    row(
        "  descending is never worse than ascending",
        "rule 1 of the template",
        &x(times["Ascending"] / desc),
    );
    row(
        "  middle-peak (Fig 22e) is worse",
        "disrupts Theorem 2",
        &x(times["MiddlePeak"] / desc),
    );
    save_json("fig22_template", &serde_json::json!({ "rows": results }));
}
