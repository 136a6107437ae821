//! # muxtune-core
//!
//! The paper's primary contribution: hierarchical spatial-temporal backbone
//! multiplexing for multi-task PEFT fine-tuning.
//!
//! * [`htask`] — the hybrid-task abstraction unifying spatial batching and
//!   temporal interleaving (§3.3);
//! * [`cost`] — the Eq. 3–5 latency/memory cost model;
//! * [`fusion`] — Eq. 6 dynamic-programming task fusion (plus ablation
//!   policies);
//! * [`grouping`] — Eq. 7 workload-balanced hTask bucketing;
//! * [`template`] — the structured multi-task 1F1B pipeline template
//!   (§3.4.1, Appendix A);
//! * [`subgraph`] / [`schedule`] — dependency-aware segmentation and the
//!   Algorithm-1 priority scheduler (§3.4.2);
//! * [`adapter_fusion`] — horizontal adapter fusion rules (§3.4.3);
//! * [`engine`] — execution of the planned run on the simulator;
//! * [`planner`] — the end-to-end pipeline with ablation toggles.

pub mod adapter_fusion;
pub mod cost;
pub mod engine;
pub mod error;
pub mod fusion;
pub mod grouping;
pub mod htask;
pub mod planner;
pub mod schedule;
pub mod subgraph;
pub mod template;

pub use cost::CostModel;
pub use engine::{EngineOptions, MuxEngine, RunMetrics};
pub use error::PlanError;
pub use fusion::{
    fuse_tasks, FusionPlan, FusionPolicy, IncrementalPlanner, IncrementalStats, RangeBuild,
};
pub use grouping::{group_htasks, Grouping};
pub use htask::HTask;
pub use planner::{
    degraded_plan, plan_and_run, plan_estimate, IncrementalEstimator, MuxTuneReport, Plan,
    PlannerConfig,
};
pub use template::BucketOrder;
