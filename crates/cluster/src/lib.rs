//! # mux-cluster
//!
//! Cluster-level evaluation (§5.4, §6): Philly-like trace generation
//! matching the published workload moments, engine-calibrated instance
//! throughput profiles, and one fluid 128-GPU cluster replay whose FCFS,
//! priority, SLO-admission and outage variants are its inputs.

pub mod calibrate;
pub mod policies;
pub mod sim;
pub mod trace;

pub use calibrate::{calibrate, reference_throughput, workload, Mix};
pub use policies::{assign_priorities, Priority};
pub use sim::{
    replay, ClassReport, ClusterError, ClusterReport, ClusterShape, InstanceOutage,
    ThroughputProfile,
};
pub use trace::{generate, TraceTask};
