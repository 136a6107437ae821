//! # mux-gpu-sim
//!
//! A deterministic discrete-event simulator for multi-GPU machines: roofline
//! operator latencies with saturating efficiency ramps, two execution lanes
//! per device (compute + communication streams), ring collectives, CTA
//! contention between overlapped kernels, NVLink-SHARP offload, per-device
//! memory ledgers with OOM, and utilization/MFU metrics.
//!
//! This crate is the hardware substitution for the paper's A40/H100
//! testbeds (see DESIGN.md): every scheduling phenomenon MuxTune exploits —
//! stalls, bubbles, saturation, diminishing batching returns, memory
//! ceilings — is a function of exactly the quantities modeled here.

pub mod label;
pub mod metrics;
pub mod render;
pub mod serving;
pub mod spec;
pub mod timeline;

pub use label::{CellPos, HTaskRef, OpLabel, Phase};
pub use metrics::{
    device_metrics, fault_impact, utilization_trace, DeviceMetrics, FaultImpact, UtilizationTrace,
};
pub use render::{render_summary, render_timeline};
pub use serving::PhaseModel;
pub use spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work, WorkClass};
pub use timeline::{
    Cluster, CollectiveKind, Devices, FaultWindow, FaultWindows, LaneKind, OomError, OpHandle,
    OpKind, OpRecord, Timeline,
};
