//! Integration tests for the service front end (Fig 1) and the §6
//! extensions: mixed PEFT types through the full planner, energy
//! accounting, priority scheduling, and validation at the API boundary.

use std::collections::BTreeMap;

use muxtune::cluster::policies::{assign_priorities, Priority};
use muxtune::cluster::sim::{replay, ClusterShape, ThroughputProfile};
use muxtune::cluster::trace::generate;
use muxtune::peft::types::PeftType;
use muxtune::peft::validation::validate_task;
use muxtune::prelude::*;

#[test]
fn all_four_peft_types_plan_and_run_together() {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    reg.register_task(PeftTask::lora(1, 16, 4, 128))
        .expect("lora");
    reg.register_task(PeftTask {
        id: 2,
        peft: PeftType::AdapterTuning { bottleneck: 64 },
        micro_batch: 4,
        seq_len: 128,
        lr: 1e-3,
    })
    .expect("adapter");
    reg.register_task(PeftTask {
        id: 3,
        peft: PeftType::DiffPruning { sparsity: 0.005 },
        micro_batch: 4,
        seq_len: 64,
        lr: 1e-3,
    })
    .expect("diff");
    reg.register_task(PeftTask {
        id: 4,
        peft: PeftType::PrefixTuning { prefix_len: 16 },
        micro_batch: 4,
        seq_len: 128,
        lr: 1e-3,
    })
    .expect("prefix");
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let rep = plan_and_run(&reg, &cluster, &BTreeMap::new(), &cfg).expect("mixed run");
    assert!(rep.metrics.throughput > 0.0);
    let all: usize = rep.plan.fusion.htasks.iter().map(|h| h.tasks.len()).sum();
    assert_eq!(all, 4, "every PEFT type scheduled");
}

#[test]
fn service_runs_a_mixed_tenant_day() {
    let mut cfg = ServiceConfig::a40_pool(8);
    cfg.backbone_layers = Some(8);
    let mut svc = FineTuneService::new(cfg);
    let jobs: Vec<_> = vec![
        svc.submit(JobSpec::lora("LLaMA2-7B", DatasetKind::Sst2, 16, 4, 40_000)),
        svc.submit(JobSpec::lora("LLaMA2-7B", DatasetKind::Rte, 32, 2, 60_000)),
        svc.submit(JobSpec::lora(
            "GPT3-2.7B",
            DatasetKind::OpenBookQa,
            8,
            4,
            40_000,
        )),
        svc.submit(JobSpec::lora(
            "LLaMA2-7B",
            DatasetKind::OpenBookQa,
            16,
            4,
            40_000,
        )),
    ];
    // LLaMA jobs share one instance; the GPT job gets its own.
    assert_eq!(svc.instance_count(), 2);
    svc.run_to_completion();
    for id in jobs {
        assert_eq!(svc.job(id).unwrap().state, JobState::Completed);
    }
}

#[test]
fn energy_efficiency_favors_muxtune() {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    for i in 1..=4 {
        reg.register_task(PeftTask::lora(i, 16, 4, 128)).expect("t");
    }
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let mux = run_system(SystemKind::MuxTune, &reg, &cluster, &BTreeMap::new(), 4).expect("mux");
    let nemo = run_system(SystemKind::Nemo, &reg, &cluster, &BTreeMap::new(), 4).expect("nemo");
    assert!(mux.metrics.energy_joules > 0.0);
    assert!(
        mux.metrics.tokens_per_joule > nemo.metrics.tokens_per_joule,
        "stall reduction must save energy: {} vs {}",
        mux.metrics.tokens_per_joule,
        nemo.metrics.tokens_per_joule
    );
}

#[test]
fn priority_policy_protects_the_high_class() {
    let trace = generate(300, 31, None);
    let prios = assign_priorities(&trace, 0.2).expect("fraction in range");
    let shape = ClusterShape {
        total_gpus: 64,
        gpus_per_instance: 4,
    };
    let profile = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).expect("non-empty");
    let rep = replay(&trace, shape, &profile, Some(&prios), None, &[]).expect("valid inputs");
    // High-priority service time == solo duration (dedicated instances).
    let solo: f64 = {
        let hi: Vec<f64> = trace
            .iter()
            .zip(&prios)
            .filter(|(_, &p)| p == Priority::High)
            .map(|(t, _)| t.duration_min)
            .collect();
        hi.iter().sum::<f64>() / hi.len() as f64
    };
    let svc_time = rep.high.mean_jct_min - rep.high.mean_queue_min;
    assert!(
        (svc_time - solo).abs() / solo < 0.01,
        "{svc_time} vs {solo}"
    );
    // Jain fairness over per-task slowdowns is a proper index: bounded by
    // 1, and non-degenerate on a 300-task mixed-priority replay.
    assert!(
        rep.jain_slowdown > 0.0 && rep.jain_slowdown <= 1.0 + 1e-9,
        "jain_slowdown out of range: {}",
        rep.jain_slowdown
    );
}

#[test]
fn validation_guards_every_peft_family() {
    let backbone = ModelConfig::llama2_7b();
    let bad = [
        PeftTask {
            id: 1,
            peft: PeftType::LoRA { rank: 0 },
            micro_batch: 1,
            seq_len: 64,
            lr: 1e-3,
        },
        PeftTask {
            id: 2,
            peft: PeftType::AdapterTuning {
                bottleneck: 100_000,
            },
            micro_batch: 1,
            seq_len: 64,
            lr: 1e-3,
        },
        PeftTask {
            id: 3,
            peft: PeftType::DiffPruning { sparsity: 2.0 },
            micro_batch: 1,
            seq_len: 64,
            lr: 1e-3,
        },
        PeftTask {
            id: 4,
            peft: PeftType::PrefixTuning { prefix_len: 0 },
            micro_batch: 1,
            seq_len: 64,
            lr: 1e-3,
        },
    ];
    for t in bad {
        assert!(validate_task(&t, &backbone).is_err(), "{:?}", t.peft);
        // And the registry enforces it.
        let mut reg = TaskRegistry::new(backbone.clone());
        assert!(reg.register_task(t).is_err());
        assert!(reg.is_empty());
    }
}
