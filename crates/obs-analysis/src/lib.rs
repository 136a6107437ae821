//! # mux-obs-analysis
//!
//! Turns the raw telemetry of a finished run — the [`OpRecord`] list a
//! traced engine run produces — into *explanations*:
//!
//! - [`critical_path()`]: the chain of operators (and the idle gaps
//!   between them) that determines the makespan, with per-category
//!   (compute / collective / p2p / stall) and per-hTask time breakdowns.
//! - [`attribute_stalls`] / [`device_attribution`]: the one stall model.
//!   Every idle interval on every device's compute lane is assigned to one
//!   of five causes (pipeline bubble, communication wait, dependency wait,
//!   alignment imbalance, fault recovery) and to the hTask(s) responsible,
//!   under the conservation invariant `busy + attributed stalls == window`
//!   per device.
//! - [`timeline_chrome_trace`]: a run's Chrome/Perfetto trace, one process
//!   per device with compute, comm and stall lanes; the stall lane draws the
//!   attributed intervals. It shares one private trace-event writer with
//!   [`lifecycle_chrome_trace`] and [`profile_chrome_trace`].
//! - [`PerfBaseline`]: a checked-in makespan/utilization/stall-share
//!   baseline with tolerances, for a CI perf-regression gate.
//! - [`journal`]: the service event journal's line format — the typed
//!   [`EventKind`](journal::EventKind), its JSONL codec, and the one
//!   reader ([`journal::parse_jsonl`]) that the service's replay and this
//!   crate's lifecycle analysis both parse with.
//! - [`analyze_journal`]: per-job causal span trees folded from a
//!   service event journal's typed events, each JCT decomposed into
//!   queue-wait / run / fault-recovery / replan-stall /
//!   serving-preemption shares under its own conservation invariant, plus
//!   the journaled scheduler decision provenance that [`explain_job`]
//!   renders as a replayable plain-text account.
//!
//! Everything here is pure post-processing: no simulator state is needed
//! beyond the op records, so the analyzers run on live engine output, on
//! re-loaded traces, and inside property tests alike.
//!
//! [`OpRecord`]: mux_gpu_sim::timeline::OpRecord

pub mod attribution;
pub mod baseline;
pub mod critical_path;
pub mod fairness;
pub mod journal;
pub mod lifecycle;
pub mod online;
pub mod profile;
mod trace;

pub use attribution::{
    attribute_stalls, attribute_stalls_with_faults, device_attribution,
    device_attribution_with_faults, AttributedStall, DeviceAttribution, FaultSpan, StallClass,
};
pub use baseline::{
    check_baseline, check_baseline_with_work, check_work_budgets, PerfBaseline, PerfMeasurement,
    WorkCounts,
};
pub use critical_path::{critical_path, CategorySeconds, CpKind, CpSegment, CriticalPath};
pub use fairness::{dominant_share, jain_index, slo_attainment};
pub use lifecycle::{
    analyze_journal, explain_job, lifecycle_chrome_trace, DecisionRecord, JctDecomposition,
    JobLifecycle, LifecycleAnalysis, Span, Terminal,
};
pub use mux_gpu_sim::label::HTaskRef;
pub use online::{
    Alert, AlertEvent, BurnRateConfig, BurnRateEvaluator, DetectorConfig, EwmaMadDetector,
    Hysteresis, MonitorConfig, OnlineMonitor, Severity,
};
pub use profile::{
    parse_profile, profile_chrome_trace, profile_diff, render_profile_diff, ProfileDiffRow,
    ProfileRow, WorkDelta,
};
pub use trace::timeline_chrome_trace;
