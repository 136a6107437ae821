//! # MuxTune
//!
//! A Rust reproduction of *MuxTune: Efficient Multi-Task LLM Fine-Tuning in
//! Multi-Tenant Datacenters via Spatial-Temporal Backbone Multiplexing*
//! (NSDI 2026).
//!
//! MuxTune co-schedules many parameter-efficient fine-tuning (PEFT) tasks
//! that share one frozen LLM backbone, multiplexing the backbone
//! *spatially* (batching tasks inside hybrid tasks) and *temporally*
//! (interleaving hybrid tasks to hide pipeline and communication stalls).
//!
//! This umbrella crate re-exports the full workspace:
//!
//! * [`tensor`] — f32 CPU tensors + autograd (real-training substrate);
//! * [`model`] — transformer graphs, FLOPs/bytes/memory accounting;
//! * [`peft`] — PEFT modularization, LoRA / Adapter-Tuning / Diff-Pruning,
//!   dynamic task registry, isolation proofs by execution;
//! * [`gpu_sim`] — the discrete-event GPU/interconnect simulator;
//! * [`parallel`] — TP/PP/DP strategies and pipeline schedules;
//! * [`data`] — corpora, packing, chunk-based alignment;
//! * [`core`] — hTask fusion, cost model, orchestration, the engine;
//! * [`baselines`] — HF-PEFT, NeMo, SL-PEFT strategies;
//! * [`cluster`] — trace generation and cluster-level replay;
//! * [`api`] — the fine-tuning service front end (job lifecycle, dispatch,
//!   online monitoring, fault injection/recovery, replayable event journal);
//! * [`chaos`] — seeded fault plans and the deterministic-simulation-test
//!   harness (same seed ⇒ bitwise-identical journal);
//! * [`workload`] — seeded multi-tenant trace generation (diurnal Poisson
//!   arrivals, bounded-Pareto sizes, SLOs, churn) and policy-driven
//!   end-to-end trace replay with fairness/SLO reporting;
//! * [`obs`] — the observability registry (phases, counters, gauges,
//!   histograms, Prometheus exposition);
//! * [`obs_analysis`] — critical-path extraction, 5-class stall
//!   attribution, the Chrome-trace exporters, and perf-regression
//!   baselines.
//!
//! ## Quickstart
//!
//! ```
//! use muxtune::prelude::*;
//! use std::collections::BTreeMap;
//!
//! // An instance: LLaMA2-7B backbone (truncated for the doctest) on 4 A40s.
//! let mut registry = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
//! for id in 1..=4 {
//!     registry.register_task(PeftTask::lora(id, 16, 4, 128)).unwrap();
//! }
//! let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
//! let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
//! let report = plan_and_run(&registry, &cluster, &BTreeMap::new(), &cfg).unwrap();
//! assert!(report.metrics.throughput > 0.0);
//! ```

pub use mux_api as api;
pub use mux_baselines as baselines;
pub use mux_chaos as chaos;
pub use mux_cluster as cluster;
pub use mux_data as data;
pub use mux_gpu_sim as gpu_sim;
pub use mux_model as model;
pub use mux_obs as obs;
pub use mux_obs_analysis as obs_analysis;
pub use mux_parallel as parallel;
pub use mux_peft as peft;
pub use mux_tensor as tensor;
pub use mux_workload as workload;
pub use muxtune_core as core;

/// The most common imports for driving MuxTune end to end.
pub mod prelude {
    pub use mux_api::{
        DispatchPolicy, FineTuneService, JobSpec, JobState, Journal, MonitorConfig, ReplanMode,
        RequestSpec, ServiceConfig, ServiceFault, ServingConfig, ServingPolicy, TelemetrySummary,
    };
    pub use mux_baselines::runner::{run_system, SystemKind};
    pub use mux_chaos::{run_chaos, DstConfig, DstRun, FaultPlan};
    pub use mux_data::align::AlignStrategy;
    pub use mux_data::corpus::{Corpus, DatasetKind};
    pub use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
    pub use mux_gpu_sim::timeline::Cluster;
    pub use mux_gpu_sim::PhaseModel;
    pub use mux_model::config::ModelConfig;
    pub use mux_parallel::plan::HybridParallelism;
    pub use mux_peft::registry::TaskRegistry;
    pub use mux_peft::types::{PeftTask, PeftType, TaskId};
    pub use muxtune_core::planner::{plan_and_run, MuxTuneReport, PlannerConfig};
    pub use muxtune_core::{EngineOptions, FusionPolicy, HTask, RunMetrics};
}
