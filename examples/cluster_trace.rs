//! Cluster-scale demo: replay a Philly-like fine-tuning trace on a
//! simulated 128-GPU cluster under FCFS, comparing MuxTune's multiplexing
//! against single-task scheduling (§5.4, Fig 21b — scaled down so the
//! example finishes in seconds).
//!
//! Run with: `cargo run --release --example cluster_trace`

use muxtune::cluster::calibrate::{calibrate, reference_throughput, Mix};
use muxtune::cluster::sim::{replay, ClusterShape};
use muxtune::cluster::trace::{generate, stats};
use muxtune::prelude::*;

fn main() {
    // 1. A synthetic trace matching the published Philly moments.
    let trace = generate(600, 2026, None);
    let (mean, std, rate) = stats(&trace);
    println!("trace: 600 tasks, duration {mean:.0}±{std:.0} min, arrivals {rate:.2}/min");
    println!("       (paper: 372.6±612.9 min at 2.59 tasks/min)");

    // 2. Calibrate per-instance throughput profiles with the real engine
    //    (LLaMA7B on 4-A40 instances; truncated backbone for demo speed).
    let backbone = ModelConfig::llama2_7b().with_layers(16);
    let instance = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let reference = reference_throughput(&backbone, &instance, 4);
    println!("reference rate (NeMo, 1 task alone): {reference:.0} tokens/s");

    let shape = ClusterShape {
        total_gpus: 128,
        gpus_per_instance: 4,
    };
    println!(
        "cluster: {} instances of {} GPUs",
        shape.instances(),
        shape.gpus_per_instance
    );

    for sys in [SystemKind::MuxTune, SystemKind::Nemo] {
        let profile = calibrate(sys, &backbone, &instance, Mix::NonUniform, 4, 4, reference);
        let rep =
            replay(&trace, shape, &profile, None, None, &[]).expect("valid shape and profile");
        println!(
            "{:<8}: cluster throughput {:.1} (rel. units), mean JCT {:.0} min, mean queueing {:.0} min",
            sys.name(),
            rep.throughput,
            rep.mean_jct_min,
            rep.mean_queue_min
        );
        println!(
            "          instance profile (aggregate rate at 1..{} co-located tasks): {:?}",
            profile.max_colocated,
            profile
                .rate
                .iter()
                .map(|r| (r * 100.0).round() / 100.0)
                .collect::<Vec<_>>()
        );
    }
    println!("\nMuxTune co-locates tasks per instance, so the queue drains faster and");
    println!("cluster throughput rises — the Fig 21(b) effect.");
}
