//! Figure 21(b): cluster-level performance under production-grade
//! workloads — a Philly-like trace replayed on a simulated 128-GPU cluster
//! with a first-come-first-served scheduler and a LLaMA7B backbone.
//!
//! Paper: Uniform — MuxTune 1.61x / 1.51x / 1.36x over HF-PEFT / NeMo /
//! SL-PEFT cluster throughput; Non-uniform — 1.58x over SL-PEFT (chunk
//! alignment matters most with variable-length mixes).

use mux_baselines::runner::SystemKind;
use mux_bench::harness::{a40_cluster, banner, row, save_json, x};
use mux_cluster::calibrate::{calibrate, reference_throughput, Mix};
use mux_cluster::sim::{replay, ClusterShape};
use mux_cluster::trace::generate;
use mux_data::corpus::DatasetKind;
use mux_model::config::ModelConfig;

fn main() {
    banner(
        "Fig 21b",
        "cluster throughput on a Philly-like trace (128 GPUs, FCFS)",
    );
    let backbone = ModelConfig::llama2_7b();
    let instance = a40_cluster(4);
    let shape = ClusterShape {
        total_gpus: 128,
        gpus_per_instance: 4,
    };
    let reference = reference_throughput(&backbone, &instance, 4);
    println!("  reference rate (NeMo, 1 QA task, 4 GPUs): {reference:.0} tokens/s");

    let mut out = serde_json::Map::new();
    for (mix, label, n_tasks) in [
        (Mix::Uniform(DatasetKind::OpenBookQa), "Uniform", 1500usize),
        (Mix::NonUniform, "Non-uniform", 1500),
    ] {
        println!("--- {label} ---");
        let trace = generate(
            n_tasks,
            99,
            match mix {
                Mix::Uniform(k) => Some(k),
                Mix::NonUniform => None,
            },
        );
        let mut tput = std::collections::BTreeMap::new();
        for sys in SystemKind::ALL {
            let profile = calibrate(sys, &backbone, &instance, mix, 6, 4, reference);
            let rep =
                replay(&trace, shape, &profile, None, None, &[]).expect("valid shape and profile");
            println!(
                "  {:<8} cluster throughput {:.2} (rel), mean JCT {:.0} min, queue {:.0} min, profile {:?}",
                sys.name(),
                rep.throughput,
                rep.mean_jct_min,
                rep.mean_queue_min,
                profile.rate.iter().map(|r| (r * 100.0).round() / 100.0).collect::<Vec<_>>()
            );
            tput.insert(sys.name(), rep.throughput);
            out.insert(
                format!("{label}_{}", sys.name()),
                serde_json::json!({
                    "throughput": rep.throughput, "jct_min": rep.mean_jct_min,
                    "queue_min": rep.mean_queue_min, "profile": profile.rate,
                }),
            );
        }
        let mux = tput["MuxTune"];
        match label {
            "Uniform" => {
                row("  MuxTune vs HF-PEFT", "1.61x", &x(mux / tput["HF-PEFT"]));
                row("  MuxTune vs NeMo", "1.51x", &x(mux / tput["NeMo"]));
                row("  MuxTune vs SL-PEFT", "1.36x", &x(mux / tput["SL-PEFT"]));
            }
            _ => {
                row(
                    "  MuxTune vs SL-PEFT (non-uniform)",
                    "1.58x",
                    &x(mux / tput["SL-PEFT"]),
                );
                row(
                    "  MuxTune vs NeMo (non-uniform)",
                    "(cf. uniform 1.51x)",
                    &x(mux / tput["NeMo"]),
                );
            }
        }
    }
    save_json("fig21_cluster", &serde_json::Value::Object(out));
}
