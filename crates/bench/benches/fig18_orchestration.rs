//! Figure 18: GPU and NVLink utilization of one decoder layer under 4-GPU
//! tensor parallelism.
//!
//! Paper: (a) NeMo, 1 task, sequential launch — 82.5% utilization,
//! 43.2 ms; (b) 4 tasks interleaved without overlap — 84.7%, 172.5 ms
//! (linear growth); (c) MuxTune with full overlap — 97.8% (1.19x) and
//! 156.2 ms for the 4 tasks.
//!
//! Also ablates the §3.4.3 CTA policy: small-CTA vs generous-CTA vs SHARP.

use mux_bench::harness::{
    a40_cluster, banner, h100_cluster, row, save_json, write_trace_file, x, TRACE_DIR_ENV,
};
use mux_gpu_sim::metrics::device_metrics;
use mux_gpu_sim::timeline::Cluster;
use mux_model::config::ModelConfig;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};
use muxtune_core::engine::{EngineOptions, MuxEngine};
use muxtune_core::htask::HTask;
use muxtune_core::template::BucketOrder;

fn registry(n: usize) -> TaskRegistry {
    // One decoder layer, as in the paper's profile.
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(1));
    for i in 0..n {
        reg.register_task(PeftTask::lora(i as TaskId + 1, 16, 8, 128))
            .expect("ids");
    }
    reg
}

/// Runs `n` single-task hTasks in one bucket for one round on 4-GPU TP and
/// returns (latency_ms, mean utilization).
fn run(
    cluster: &Cluster,
    n: usize,
    orchestrate: bool,
    overlap: bool,
    generous: bool,
) -> (f64, f64) {
    let reg = registry(n);
    let htasks: Vec<HTask> = reg.tasks().map(|t| HTask::from_padded(&[t], 1)).collect();
    let options = EngineOptions {
        overlap_comm: overlap,
        orchestrate,
        fuse_adapters: orchestrate,
        generous_ctas: generous,
        max_in_flight: 2,
        bucket_order: BucketOrder::Descending,
    };
    let engine = MuxEngine::new(
        &reg,
        cluster,
        HybridParallelism::tensor(4),
        &[htasks],
        options,
    );
    let (m, _trace) = engine.run_traced().expect("fits");
    (m.makespan * 1e3, m.mean_utilization)
}

fn main() {
    banner(
        "Fig 18",
        "one-layer utilization under 4-GPU TP (fwd+bwd round)",
    );
    let a40 = a40_cluster(4);
    let (t1, u1) = run(&a40, 1, false, false, false);
    let (t4_seq, u4_seq) = run(&a40, 4, false, false, false);
    let (t4_mux, u4_mux) = run(&a40, 4, true, true, false);
    println!(
        "  (a) NeMo-style, 1 task     : {t1:.2} ms, utilization {:.1}%",
        u1 * 100.0
    );
    println!(
        "  (b) 4 tasks, no overlap    : {t4_seq:.2} ms, utilization {:.1}%",
        u4_seq * 100.0
    );
    println!(
        "  (c) MuxTune, 4 tasks       : {t4_mux:.2} ms, utilization {:.1}%",
        u4_mux * 100.0
    );
    row(
        "  (a) single-task utilization",
        "82.5% (43.2 ms)",
        &format!("{:.1}% ({t1:.1} ms)", u1 * 100.0),
    );
    row(
        "  (b) interleaved-no-overlap grows ~linearly",
        "172.5 ms (~4x), util ~84.7%",
        &format!(
            "{t4_seq:.1} ms ({:.2}x of 4x), util {:.1}%",
            t4_seq / (4.0 * t1),
            u4_seq * 100.0
        ),
    );
    row(
        "  (c) MuxTune overlap beats (b)",
        "156.2 ms, 97.8% (1.19x util)",
        &format!(
            "{t4_mux:.1} ms, {:.1}% ({} util)",
            u4_mux * 100.0,
            x(u4_mux / u4_seq)
        ),
    );

    // CTA-policy ablation (§3.4.3): generous CTAs vs small budget on A40,
    // and SHARP on H100 NVSwitch.
    let (t_gen, _) = run(&a40, 4, true, true, true);
    let h100 = h100_cluster(4);
    let (t_sharp_rel, u_sharp) = run(&h100, 4, true, true, false);
    let (t_h100_seq, _) = run(&h100, 4, false, false, false);
    println!(
        "\n  CTA tradeoff (A40, no SHARP): small-CTA {t4_mux:.1} ms vs generous-CTA {t_gen:.1} ms"
    );
    row(
        "  SHARP overlap wins on NVSwitch",
        "full overlap with 8 CTAs",
        &format!(
            "H100: overlap {t_sharp_rel:.2} ms vs sequential {t_h100_seq:.2} ms, util {:.1}%",
            u_sharp * 100.0
        ),
    );

    // Per-device sanity trace for the JSON artifact.
    let reg = registry(4);
    let htasks: Vec<HTask> = reg.tasks().map(|t| HTask::from_padded(&[t], 1)).collect();
    let engine = MuxEngine::new(
        &reg,
        &a40,
        HybridParallelism::tensor(4),
        &[htasks],
        EngineOptions {
            max_in_flight: 2,
            ..EngineOptions::default()
        },
    );
    let (m, trace) = engine.run_traced().expect("fits");
    // Profiling hook (MUX_TRACE_DIR): the one-layer orchestration timeline.
    if let Some(dir) = std::env::var_os(TRACE_DIR_ENV) {
        if let Some(p) =
            write_trace_file(std::path::Path::new(&dir), "fig18_orchestration", &trace, 4)
        {
            println!("  [trace] wrote {}", p.display());
        }
    }
    let dm = {
        // Recover device metrics from the trace via a scratch timeline is
        // unnecessary — utilization is already aggregated in `m`.
        let _ = device_metrics;
        m.mean_utilization
    };
    save_json(
        "fig18_orchestration",
        &serde_json::json!({
            "nemo_1task": { "ms": t1, "util": u1 },
            "interleave_4task": { "ms": t4_seq, "util": u4_seq },
            "muxtune_4task": { "ms": t4_mux, "util": u4_mux },
            "generous_cta_ms": t_gen,
            "h100_sharp": { "ms": t_sharp_rel, "util": u_sharp },
            "trace_ops": trace.len(),
            "mean_util": dm,
        }),
    );
}
