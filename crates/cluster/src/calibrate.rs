//! Profile calibration: measure per-instance aggregate throughput for
//! 1..=k co-located tasks with the real engine, producing the
//! [`ThroughputProfile`] the cluster replay
//! consumes.

use std::collections::BTreeMap;

use mux_data::corpus::{Corpus, DatasetKind};
use mux_gpu_sim::timeline::Cluster;
use mux_model::config::ModelConfig;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};

use mux_baselines::runner::{run_system, SystemKind};

use crate::sim::ThroughputProfile;

/// The dataset mix instances see.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mix {
    /// Every co-located task uses the same dataset (§5.1 "Uniform").
    Uniform(DatasetKind),
    /// Tasks cycle through SST2 / QA / RTE ("Non-uniform").
    NonUniform,
}

impl Mix {
    fn dataset_for(&self, i: usize) -> DatasetKind {
        match self {
            Mix::Uniform(k) => *k,
            Mix::NonUniform => match i % 3 {
                0 => DatasetKind::Sst2,
                1 => DatasetKind::OpenBookQa,
                _ => DatasetKind::Rte,
            },
        }
    }
}

/// Builds a `k`-task workload registry plus corpora for the mix.
pub fn workload(
    backbone: &ModelConfig,
    mix: Mix,
    k: usize,
    micro_batch: usize,
    seed: u64,
) -> (TaskRegistry, BTreeMap<TaskId, Vec<usize>>) {
    let mut r = TaskRegistry::new(backbone.clone());
    let mut corpora = BTreeMap::new();
    for i in 0..k {
        let ds = mix.dataset_for(i);
        let id = i as TaskId + 1;
        r.register_task(PeftTask::lora(id, 16, micro_batch, ds.max_len()))
            .expect("fresh ids");
        corpora.insert(id, Corpus::generate(ds, 64, seed + i as u64).lengths);
    }
    (r, corpora)
}

/// The reference rate: NeMo running one QA task alone (tokens/s). Cluster
/// profiles are expressed relative to this.
pub fn reference_throughput(
    backbone: &ModelConfig,
    cluster: &Cluster,
    micro_batches: usize,
) -> f64 {
    let (r, corpora) = workload(backbone, Mix::Uniform(DatasetKind::OpenBookQa), 1, 4, 1);
    run_system(SystemKind::Nemo, &r, cluster, &corpora, micro_batches)
        .expect("reference run")
        .metrics
        .effective_throughput
}

/// Calibrates `system`'s instance profile for 1..=`max_tasks` co-located
/// tasks, normalized by `reference_tps`. When even one task OOMs the
/// profile is `single_task(0.0)`, which every replay rejects as
/// [`ClusterError::InvalidRate`](crate::ClusterError::InvalidRate).
pub fn calibrate(
    system: SystemKind,
    backbone: &ModelConfig,
    cluster: &Cluster,
    mix: Mix,
    max_tasks: usize,
    micro_batches: usize,
    reference_tps: f64,
) -> ThroughputProfile {
    assert!(reference_tps > 0.0);
    let mut rates = Vec::with_capacity(max_tasks);
    for k in 1..=max_tasks {
        let (r, corpora) = workload(backbone, mix, k, 4, 100 + k as u64);
        match run_system(system, &r, cluster, &corpora, micro_batches) {
            Ok(rep) => rates.push(rep.metrics.effective_throughput / reference_tps),
            Err(_) => break, // OOM: capacity reached
        }
    }
    if rates.is_empty() {
        ThroughputProfile::single_task(0.0)
    } else if matches!(system, SystemKind::HfPeft | SystemKind::Nemo) {
        // Replicating systems serialize tasks: cluster capacity is 1 task
        // per instance; aggregate rate is the 1-task rate.
        ThroughputProfile::single_task(rates[0])
    } else {
        ThroughputProfile::from_rates(rates).expect("rates checked non-empty above")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::{GpuSpec, LinkSpec};

    fn small_cluster() -> Cluster {
        Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40())
    }

    #[test]
    fn muxtune_profile_grows_with_colocation() {
        let backbone = ModelConfig::llama2_7b().with_layers(16);
        let c = small_cluster();
        let reference = reference_throughput(&backbone, &c, 4);
        assert!(reference > 0.0);
        let p = calibrate(
            SystemKind::MuxTune,
            &backbone,
            &c,
            Mix::Uniform(DatasetKind::OpenBookQa),
            3,
            4,
            reference,
        );
        assert!(p.max_colocated >= 2);
        assert!(
            p.aggregate(p.max_colocated) > p.aggregate(1),
            "multiplexing must raise aggregate rate: {:?}",
            p.rate
        );
    }

    #[test]
    fn nemo_profile_is_single_task() {
        let backbone = ModelConfig::llama2_7b().with_layers(16);
        let c = small_cluster();
        let reference = reference_throughput(&backbone, &c, 4);
        let p = calibrate(
            SystemKind::Nemo,
            &backbone,
            &c,
            Mix::Uniform(DatasetKind::OpenBookQa),
            3,
            4,
            reference,
        );
        assert_eq!(p.max_colocated, 1);
        assert!(
            (p.aggregate(1) - 1.0).abs() < 0.35,
            "NeMo ≈ reference: {}",
            p.aggregate(1)
        );
    }
}
