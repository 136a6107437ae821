//! The fine-tuning service: the paper's Fig 1 workflow end to end.
//!
//! Tenants submit [`JobSpec`]s; the cluster scheduler dispatches each job
//! to an in-flight instance *with the same backbone* or creates a new
//! instance when none fits (§3.1). Each membership change re-invokes the
//! MuxTune planner for the instance, so per-job progress rates always
//! reflect the current co-location — arrival and departure events never
//! rebuild the backbone (the registry's dynamic attachment).

use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use std::sync::OnceLock;

use mux_data::corpus::Corpus;
use mux_gpu_sim::spec::{GpuSpec, LinkSpec};
use mux_gpu_sim::timeline::Cluster;
use mux_gpu_sim::timeline::{OpKind, OpRecord};
use mux_model::config::ModelConfig;
use mux_obs_analysis::online::{self, Alert, AlertEvent, MonitorConfig, OnlineMonitor};
use mux_obs_analysis::{
    critical_path, device_attribution, jain_index, slo_attainment, DeviceAttribution, HTaskRef,
    StallClass,
};
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::TaskId;
use muxtune_core::engine::RunMetrics;
use muxtune_core::planner::{
    degraded_plan, plan_and_run, plan_estimate, IncrementalEstimator, Plan, PlannerConfig,
};
use serde_json::{json, Map, Value};

use crate::job::{Job, JobId, JobSpec, JobState};
use crate::journal::{DecisionCandidate, EventKind, Journal, ReplayState};
use crate::policy::OrdF64;
use crate::serving::{self, RequestSpec, ServingConfig, ServingRuntime};

/// Dispatch policies: *where* a job runs (§3.1 mentions budget-based
/// Kubernetes scheduling; §6 sketches multiplexing-aware variants). Which
/// pending job goes next is a [`SchedulingPolicy`](crate::policy::SchedulingPolicy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DispatchPolicy {
    /// Prefer the least-loaded in-flight instance with the same backbone;
    /// create a new instance only when none has capacity (multiplexing-
    /// aware — the §6 recommendation).
    SameBackboneFirst,
    /// One instance per job while GPUs remain (the single-task-framework
    /// deployment model).
    DedicatedInstances,
}

/// Exponential-backoff schedule for transient comm-fault retries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Backoff before the first retry, seconds.
    pub base_backoff: f64,
    /// Hard cap on any single backoff, seconds.
    pub max_backoff: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            base_backoff: 0.05,
            max_backoff: 0.8,
        }
    }
}

impl RetryPolicy {
    /// Backoff before 1-based retry `attempt`:
    /// `min(base · 2^(attempt−1), cap)`.
    pub fn backoff(&self, attempt: u32) -> f64 {
        (self.base_backoff * 2f64.powi(attempt.saturating_sub(1).min(62) as i32))
            .min(self.max_backoff)
    }
}

/// Service configuration.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Total GPUs in the pool.
    pub gpus_total: usize,
    /// GPUs per instance.
    pub gpus_per_instance: usize,
    /// GPU model.
    pub gpu: GpuSpec,
    /// Intra-instance link.
    pub link: LinkSpec,
    /// Per-instance parallelism.
    pub plan: HybridParallelism,
    /// Unified micro-batch count.
    pub micro_batches: usize,
    /// Memory-independent cap on co-located tasks per instance.
    pub max_tasks_per_instance: usize,
    /// Dispatch policy.
    pub dispatch: DispatchPolicy,
    /// Optional layer truncation of every backbone (tests/demo speed).
    pub backbone_layers: Option<usize>,
    /// Backoff schedule for transient comm-fault retries.
    pub retry: RetryPolicy,
    /// How membership changes are re-priced (see [`ReplanMode`]).
    pub replan_mode: ReplanMode,
}

/// How the service prices progress rates on a replan. Every mode keeps
/// the [`Plan`] it priced, and reports trace exactly that plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplanMode {
    /// Full fidelity: plan candidates are validated on the GPU simulator
    /// ([`plan_and_run`]) — several engine runs per membership change —
    /// and the fastest is kept.
    #[default]
    Simulate,
    /// Cost-model fast path: throughput comes from the fusion DP plus the
    /// Appendix-A grouped-latency estimate ([`plan_estimate`]), no engine
    /// runs. ~100× cheaper per replan with the same feasibility/error
    /// surface; rates are estimates, not simulator measurements, and the
    /// kept plan is the DP's in the configured launch mode. Each replan
    /// runs the planner cold, so this is the reference that
    /// [`ReplanMode::Incremental`] is diffed against.
    Estimate,
    /// Incremental fast path: each instance keeps a warm
    /// [`IncrementalEstimator`] that persists the fusion DP's per-range
    /// latency/feasibility rows across replans. A membership delta
    /// rebuilds only the ranges whose underlying sorted-task slice
    /// changed and recomputes the invalidated DP suffix; a replan with
    /// unchanged membership (e.g. a fault clearing) is a pure cache hit
    /// that builds zero ranges. Produces bitwise-identical rates to
    /// [`ReplanMode::Estimate`] (pinned by differential tests). The
    /// 10⁴–10⁵-job trace replayer runs in this mode.
    Incremental,
}

impl ServiceConfig {
    /// A 4-GPU-per-instance A40 pool.
    pub fn a40_pool(gpus_total: usize) -> Self {
        Self {
            gpus_total,
            gpus_per_instance: 4,
            gpu: GpuSpec::a40(),
            link: LinkSpec::nvlink_a40(),
            plan: HybridParallelism::pipeline(4),
            micro_batches: 4,
            max_tasks_per_instance: 8,
            dispatch: DispatchPolicy::SameBackboneFirst,
            backbone_layers: None,
            retry: RetryPolicy::default(),
            replan_mode: ReplanMode::default(),
        }
    }
}

/// A fault an operator (or the chaos harness) injects into the service.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ServiceFault {
    /// One device computes `factor`× slower (straggler): the hosting
    /// instance's pipeline runs at the straggler's pace until cleared.
    DeviceSlowdown {
        /// Affected instance.
        instance: usize,
        /// Straggling device within the instance.
        device: usize,
        /// Slowdown factor, > 1.
        factor: f64,
    },
    /// The instance's interconnect degrades by `factor` until cleared.
    LinkDegrade {
        /// Affected instance.
        instance: usize,
        /// Bandwidth degradation factor, > 1.
        factor: f64,
    },
    /// The instance's comm stack fails transiently: progress freezes and
    /// the service retries with exponential backoff; the `failures`-th
    /// retry succeeds and the instance resumes.
    TransientComm {
        /// Affected instance.
        instance: usize,
        /// Retry attempts needed before the comm layer recovers (≥ 1).
        failures: u32,
    },
    /// A device is lost permanently: affected jobs checkpoint/restart and
    /// the instance re-plans onto its surviving devices (or sheds).
    DeviceLoss {
        /// Affected instance.
        instance: usize,
        /// Lost device within the instance.
        device: usize,
    },
}

/// Typed rejection of an invalid fault injection.
#[derive(Debug, Clone, PartialEq)]
pub enum FaultError {
    /// Instance index out of range.
    NoSuchInstance(usize),
    /// Device index out of range for the instance shape.
    NoSuchDevice {
        /// Targeted instance.
        instance: usize,
        /// Out-of-range device.
        device: usize,
    },
    /// Slowdown/degradation factors must be finite and > 1.
    BadFactor(f64),
    /// Transient faults need at least one failing attempt.
    ZeroFailures,
    /// The device was already lost (loss is permanent).
    DeviceAlreadyLost {
        /// Targeted instance.
        instance: usize,
        /// Already-lost device.
        device: usize,
    },
}

impl std::fmt::Display for FaultError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FaultError::NoSuchInstance(i) => write!(f, "no such instance {i}"),
            FaultError::NoSuchDevice { instance, device } => {
                write!(f, "instance {instance} has no device {device}")
            }
            FaultError::BadFactor(x) => {
                write!(f, "fault factor must be finite and > 1, got {x}")
            }
            FaultError::ZeroFailures => write!(f, "transient fault needs failures >= 1"),
            FaultError::DeviceAlreadyLost { instance, device } => {
                write!(f, "device {device} on instance {instance} is already lost")
            }
        }
    }
}

impl std::error::Error for FaultError {}

/// Running totals of injected faults and recovery actions, for the
/// report's `faults` section and chaos-harness assertions.
#[derive(Debug, Clone, Default)]
pub struct FaultStats {
    /// Injections by fault-kind name (`device_slowdown`, `link_degrade`,
    /// `comm_transient`, `device_loss`).
    pub injected: BTreeMap<String, u64>,
    /// Recovery actions by name (`retry`, `restart`, `replan`, `shed`).
    pub recoveries: BTreeMap<String, u64>,
}

/// Live transient-comm outage state on one instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct OutageState {
    /// Retries attempted so far.
    attempt: u32,
    /// Retries needed before the comm layer recovers.
    failures: u32,
    /// Injection token; retry events with a stale token are discarded.
    token: u64,
}

struct Instance {
    backbone_name: String,
    registry: TaskRegistry,
    corpora: BTreeMap<TaskId, Vec<usize>>,
    /// Which job each registered task belongs to.
    job_of_task: BTreeMap<TaskId, JobId>,
    /// Per-task effective token rates (tokens/sec): the planner's raw
    /// rates scaled by the live fault state (0 during an outage).
    rates: BTreeMap<TaskId, f64>,
    /// The planner's fault-free rates under the current plan; `rates` is
    /// always derivable from these plus the fault state.
    raw_rates: BTreeMap<TaskId, f64>,
    /// Live per-device compute slowdown factors (stragglers).
    slow_factors: BTreeMap<usize, f64>,
    /// Live interconnect degradation factor (1 = healthy).
    link_factor: f64,
    /// Permanently lost devices.
    lost_devices: BTreeSet<usize>,
    /// In-flight transient comm outage, if any.
    outage: Option<OutageState>,
    /// Whether the serving policy holds the backbone right now: training
    /// rates gate to 0 exactly like an outage (temporal multiplexing).
    serving_preempted: bool,
    /// Monotonic outage-injection counter (staleness check for retries).
    outage_token: u64,
    /// Degraded plan after device loss (None = the service-wide plan).
    plan_override: Option<HybridParallelism>,
    /// Shrunk cluster after device loss (None = the service-wide shape).
    cluster_override: Option<Cluster>,
    next_task_id: TaskId,
    /// Simulated time the current `rates` took effect. Progress accrues
    /// lazily: a running job's live total is its banked
    /// `progressed_tokens` plus `rate × (now − planned_at)`; the bank is
    /// materialized whenever membership (and therefore rates) changes.
    planned_at: f64,
    /// Monotonic replan counter; completion events recorded under an
    /// older epoch are stale and are discarded lazily off the heap.
    epoch: u64,
    /// Warm incremental planner state ([`ReplanMode::Incremental`] only;
    /// `None` until the first incremental replan). Persists the fusion
    /// DP's range tables across membership changes.
    planner: Option<IncrementalEstimator>,
    /// The plan the last successful replan priced (`None` while empty).
    plan: Option<Plan>,
    /// One traced run of `plan`, filled by the first reader (report, prom,
    /// monitor) and dropped with the plan by `replan`. `reprice` keeps it:
    /// fault and preemption state never enter the traced run.
    traced: OnceLock<Option<TracedInstance>>,
}

/// A timed service event, keyed on the heap by its due time. Events
/// fire by time, then class (a retry before a completion: it restores
/// rates the completion may depend on), then instance and id. Both
/// kinds go stale lazily and are discarded when they reach the heap's
/// top: a completion once its instance re-prices (a new epoch), a retry
/// once its outage clears or is replaced (a new token), so an epoch bump
/// during an outage never orphans the retry.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Timed {
    /// Instance `instance` attempts the next retry of outage `token`.
    Retry { instance: usize, token: u64 },
    /// Under the rates of `epoch`, the job behind `task` on `instance`
    /// completes.
    Completion {
        instance: usize,
        task: TaskId,
        epoch: u64,
    },
}

/// What the readers print of one traced run of a non-empty instance (see
/// [`FineTuneService::traced_instance`]); the op list itself is dropped.
struct TracedInstance {
    metrics: RunMetrics,
    /// Per-device compute-lane busy fraction and mean utilization, one row
    /// per device of the instance's own cluster (the shrunk one after a
    /// device loss).
    devices: Vec<Value>,
    attribution: Vec<DeviceAttribution>,
    stalls: StallTotals,
    critical_path: Value,
}

/// An instance's stall totals summed over its devices: the attribution
/// window, the stalled seconds, and each [`StallClass`]'s seconds in
/// [`StallClass::ALL`] order. The report's instance `stall_share`, the
/// `muxtune_instance_stall_*` families and the monitor's stall-share
/// signal all read these.
struct StallTotals {
    window: f64,
    stall: f64,
    class_seconds: [f64; StallClass::COUNT],
}

impl StallTotals {
    fn of(attribution: &[DeviceAttribution]) -> Self {
        Self {
            window: attribution.iter().map(|d| d.window).sum(),
            stall: attribution
                .iter()
                .map(DeviceAttribution::stall_seconds)
                .sum(),
            class_seconds: StallClass::ALL
                .map(|class| attribution.iter().map(|d| d.class_seconds(class)).sum()),
        }
    }

    /// Stalled share of the window.
    fn share(&self) -> f64 {
        self.stall / self.window.max(1e-12)
    }

    /// Each class's share of the window.
    fn class_shares(&self) -> [f64; StallClass::COUNT] {
        self.class_seconds.map(|secs| secs / self.window.max(1e-12))
    }
}

impl TracedInstance {
    /// Keeps what the readers print of `ops`, a traced run on
    /// `num_devices` devices.
    fn new(metrics: RunMetrics, ops: &[OpRecord], num_devices: usize) -> Self {
        let mut busy = vec![0.0f64; num_devices];
        let mut util_weighted = vec![0.0f64; num_devices];
        for op in ops {
            if op.kind == OpKind::Compute && op.end > op.start {
                let (d, dur) = (op.devices[0], op.end - op.start);
                busy[d] += dur;
                util_weighted[d] += op.utilization * dur;
            }
        }
        let span = metrics.makespan.max(1e-12);
        let devices = (0..num_devices)
            .map(|d| {
                json!({
                    "device": d,
                    "busy_fraction": busy[d] / span,
                    "avg_utilization": util_weighted[d] / busy[d].max(1e-12),
                })
            })
            .collect();
        let attribution = device_attribution(ops, num_devices);
        Self {
            metrics,
            devices,
            stalls: StallTotals::of(&attribution),
            attribution,
            critical_path: critical_path(ops).to_json(16),
        }
    }

    /// Inserts the report's plan outcome for this instance into `m`:
    /// makespan and utilization, per-device compute-lane occupancy, the
    /// 5-class attribution rows with their conservation-checked window,
    /// the stall share, and the critical path.
    fn insert_json(&self, m: &mut Map) {
        let metrics = &self.metrics;
        let attribution = self
            .attribution
            .iter()
            .map(DeviceAttribution::to_json)
            .collect();
        for (key, value) in [
            ("makespan_seconds", metrics.makespan.into()),
            ("effective_throughput", metrics.effective_throughput.into()),
            ("mean_utilization", metrics.mean_utilization.into()),
            ("devices", Value::Array(self.devices.clone())),
            ("attribution", Value::Array(attribution)),
            ("stall_share", self.stalls.share().into()),
            ("critical_path", self.critical_path.clone()),
        ] {
            m.insert(key.into(), value);
        }
    }
}

/// Resolves an hTask of the instance's traced plan to the jobs behind it:
/// `href` indexes `grouping.buckets[bucket][htask]`, which names a fused
/// hTask whose member tasks map to jobs via the instance's task-to-job
/// table.
fn jobs_of_htask(inst: &Instance, href: &HTaskRef) -> Vec<JobId> {
    let htask = inst.plan.as_ref().and_then(|plan| {
        let &h = plan.grouping.buckets.get(href.bucket)?.get(href.htask)?;
        plan.fusion.htasks.get(h)
    });
    let Some(htask) = htask else {
        return Vec::new();
    };
    let mut jobs: Vec<JobId> = htask
        .tasks
        .iter()
        .filter_map(|t| inst.job_of_task.get(t).copied())
        .collect();
    jobs.sort_unstable();
    jobs.dedup();
    jobs
}

/// Live streaming-monitoring state (see
/// [`FineTuneService::enable_monitoring`]).
struct MonitorRuntime {
    monitor: OnlineMonitor,
    /// Last observed per-job progress, for burn-rate deltas.
    last_progress: BTreeMap<JobId, f64>,
}

/// One `--watch` line: the service's live state at a tick.
#[derive(Debug, Clone)]
pub struct TelemetrySummary {
    /// Service tick.
    pub tick: u64,
    /// Simulated time, seconds.
    pub now: f64,
    /// Jobs currently running.
    pub running: usize,
    /// Jobs queued for dispatch.
    pub queued: usize,
    /// Jobs completed so far.
    pub completed: usize,
    /// Jobs rejected so far.
    pub rejected: usize,
    /// Aggregate throughput over running jobs, tokens/second.
    pub throughput_tokens_per_second: f64,
    /// Mean stall-class shares over live instances, in
    /// [`StallClass::ALL`] order.
    pub stall_class_shares: [f64; StallClass::COUNT],
    /// Active `(rule, job)` alerts.
    pub active_alerts: Vec<(String, u64)>,
}

/// The multi-tenant fine-tuning service.
pub struct FineTuneService {
    cfg: ServiceConfig,
    cluster: Cluster,
    instances: Vec<Instance>,
    /// Instance indices hosting each backbone — bounds the dispatch scan
    /// to same-backbone candidates instead of the whole pool.
    by_backbone: BTreeMap<String, Vec<usize>>,
    jobs: BTreeMap<JobId, Job>,
    queue: VecDeque<JobId>,
    /// Min-heap of timed events by due time (see [`Timed`]):
    /// `advance_to` jumps straight from event to event instead of
    /// re-scanning every running task per tick.
    events: BinaryHeap<Reverse<(OrdF64, Timed)>>,
    /// Running fault/recovery totals.
    fault_stats: FaultStats,
    next_job: u64,
    now: f64,
    /// Monotonic observation tick, advanced by [`Self::tick`].
    tick: u64,
    /// Append-only event journal (always recording; see
    /// [`crate::journal`]).
    journal: Journal,
    /// Streaming alert engine, when monitoring is enabled.
    monitor: Option<MonitorRuntime>,
    /// Inference serving runtime, when serving is enabled (see
    /// [`crate::serving`]).
    serving: Option<ServingRuntime>,
}

/// Per-tenant aggregates behind the report's `tenants` section.
#[derive(Debug, Clone, Default)]
struct TenantStats {
    queued: usize,
    running: usize,
    completed: usize,
    rejected: usize,
    progressed_tokens: f64,
    throughput: f64,
    slo_met: usize,
    slo_violated: usize,
}

/// One job's live facts, as both report renderers print them.
struct JobRow<'a> {
    job: &'a Job,
    progress: f64,
    rate: f64,
    eta: Option<f64>,
    stall_share: f64,
    slo_violated: Option<bool>,
}

/// One view of the service (see [`FineTuneService::report_view`]),
/// rendered as the JSON report or as the Prometheus body.
struct ReportView<'a> {
    jobs: Vec<JobRow<'a>>,
    /// Each instance's traced run, `None` for empty or unplaceable ones.
    instances: Vec<Option<&'a TracedInstance>>,
    tenants: BTreeMap<&'a str, TenantStats>,
    jain_throughput: f64,
    jain_work: f64,
    headroom_fraction: f64,
    /// `(rule, severity, active, fired_total)` for every rule in
    /// [`online::rules`].
    rules: Vec<(String, online::Severity, usize, u64)>,
    /// The `mux-obs` registry as the process collected it.
    obs: mux_obs::Snapshot,
}

impl FineTuneService {
    /// Creates an empty service over a GPU pool.
    pub fn new(cfg: ServiceConfig) -> Self {
        let cluster =
            Cluster::single_node(cfg.gpu.clone(), cfg.gpus_per_instance, cfg.link.clone());
        Self {
            cfg,
            cluster,
            instances: Vec::new(),
            by_backbone: BTreeMap::new(),
            jobs: BTreeMap::new(),
            queue: VecDeque::new(),
            events: BinaryHeap::new(),
            fault_stats: FaultStats::default(),
            next_job: 1,
            now: 0.0,
            tick: 0,
            journal: Journal::new(),
            monitor: None,
            serving: None,
        }
    }

    /// Current simulated time, seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// The service configuration (read-only).
    pub fn config(&self) -> &ServiceConfig {
        &self.cfg
    }

    /// The job table (inspection).
    pub fn job(&self, id: JobId) -> Option<&Job> {
        self.jobs.get(&id)
    }

    /// Number of in-flight instances.
    pub fn instance_count(&self) -> usize {
        self.instances.len()
    }

    /// Tasks co-located on instance `i`.
    pub fn instance_load(&self, i: usize) -> usize {
        self.instances[i].registry.len()
    }

    /// Whether a `backbone` job submitted now could be placed (or at
    /// least queued with a live host to wait for) instead of being
    /// permanently starved: either a same-backbone instance exists, or
    /// the pool can still spin one up. Admission layers consult this
    /// before submitting; a `false` submit is rejected with
    /// `"no capacity"` (the pool never shrinks).
    pub fn can_host(&self, backbone: &str) -> bool {
        self.by_backbone
            .get(backbone)
            .map(|v| !v.is_empty())
            .unwrap_or(false)
            || self.capacity_left() > 0
    }

    /// Cluster-wide co-location slot capacity: every possible instance
    /// times the per-instance task cap.
    pub fn slot_capacity(&self) -> usize {
        (self.cfg.gpus_total / self.cfg.gpus_per_instance) * self.cfg.max_tasks_per_instance
    }

    /// Co-location slots still free: headroom on live instances plus
    /// every slot on instances not yet spun up.
    pub fn slots_free(&self) -> usize {
        let live: usize = self
            .instances
            .iter()
            .map(|inst| {
                self.cfg
                    .max_tasks_per_instance
                    .saturating_sub(inst.registry.len())
            })
            .sum();
        live + self.capacity_left() * self.cfg.max_tasks_per_instance
    }

    fn backbone_config(&self, name: &str) -> Option<ModelConfig> {
        let mut cfg = ModelConfig::table1().into_iter().find(|c| c.name == name)?;
        if let Some(l) = self.cfg.backbone_layers {
            cfg = cfg.with_layers(l.min(cfg.num_layers));
        }
        Some(cfg)
    }

    /// Admission checks on untrusted tenant input. Anything that would
    /// later make planning or progress accounting degenerate is refused
    /// here, with a reason, instead of panicking deep in the planner.
    fn validate(spec: &JobSpec) -> Result<(), String> {
        if spec.micro_batch == 0 {
            return Err("micro_batch must be at least 1".into());
        }
        if spec.total_tokens == 0 {
            return Err("total_tokens must be at least 1".into());
        }
        if let Some(lens) = &spec.sequence_lengths {
            if !lens.iter().any(|&l| l > 0) {
                return Err("sequence_lengths holds no non-empty sequences".into());
            }
        }
        if !spec.lr.is_finite() {
            return Err("learning rate must be finite".into());
        }
        if spec
            .slo_seconds
            .is_some_and(|slo| !(slo.is_finite() && slo > 0.0))
        {
            return Err("SLO must be a finite number of seconds above 0".into());
        }
        Ok(())
    }

    /// Refuses a backbone with fewer layers than the configured plan has
    /// pipeline stages: no split gives every stage a layer. A backbone
    /// with a live instance passed this check when its first job came; an
    /// unknown one passes here and is rejected at dispatch.
    fn fits_pipeline(&self, backbone: &str) -> Result<(), String> {
        if self.by_backbone.contains_key(backbone) {
            return Ok(());
        }
        let pp = self.cfg.plan.pp;
        match self.backbone_config(backbone) {
            Some(cfg) if cfg.num_layers < pp => Err(format!(
                "backbone {backbone:?} has {} layers, fewer than the plan's {pp} pipeline stages",
                cfg.num_layers
            )),
            _ => Ok(()),
        }
    }

    /// Submits a job; returns its handle. Invalid specs are rejected
    /// immediately (see [`Job::reject_reason`]); otherwise dispatch is
    /// attempted at once and the job queues FCFS when no instance fits.
    pub fn submit(&mut self, spec: JobSpec) -> JobId {
        let id = JobId(self.next_job);
        self.next_job += 1;
        let verdict = Self::validate(&spec).and_then(|()| self.fits_pipeline(&spec.backbone));
        self.journal.push(
            self.tick,
            self.now,
            EventKind::Submit {
                job: id.0,
                tenant: spec.tenant.clone(),
                backbone: spec.backbone.clone(),
                total_tokens: spec.total_tokens,
                slo_seconds: spec.slo_seconds,
            },
        );
        let job = Job::new(id, spec, self.now);
        self.jobs.insert(id, job);
        if let Err(reason) = verdict {
            self.reject(id, reason);
            return id;
        }
        self.queue.push_back(id);
        self.dispatch_queued();
        id
    }

    fn capacity_left(&self) -> usize {
        self.cfg.gpus_total / self.cfg.gpus_per_instance - self.instances.len()
    }

    fn reject(&mut self, id: JobId, reason: String) {
        self.journal.push(
            self.tick,
            self.now,
            EventKind::Reject {
                job: id.0,
                reason: reason.clone(),
            },
        );
        if let Some(job) = self.jobs.get_mut(&id) {
            job.state = JobState::Rejected;
            job.reject_reason = Some(reason);
        }
    }

    /// The tenant's corpus for one dispatched job: either synthesized from
    /// the declared dataset or the tenant's own lengths, truncated to the
    /// dataset cap at ingestion (see [`JobSpec::sequence_lengths`]).
    fn ingest_corpus(&self, spec: &JobSpec, id: JobId) -> Vec<usize> {
        match &spec.sequence_lengths {
            Some(custom) => {
                let cap = spec.dataset.max_len();
                custom
                    .iter()
                    .map(|&l| l.min(cap))
                    .filter(|&l| l > 0)
                    .collect()
            }
            // The tenant's global batch: micro_batch x C sequences.
            None => {
                let n = spec.micro_batch * self.cfg.micro_batches;
                Corpus::generate(spec.dataset, n, id.0 ^ 0xa5a5).lengths
            }
        }
    }

    /// The live instance a `backbone` job joins under the configured
    /// [`DispatchPolicy`], if any: the least-loaded same-backbone instance
    /// with a free slot, or (dedicated) an empty one, since a completed job
    /// releases its slot and instances are never shared.
    fn dispatch_target(&self, backbone: &str) -> Option<usize> {
        let same_backbone = self.by_backbone.get(backbone).map(Vec::as_slice);
        let mut candidates = same_backbone.unwrap_or(&[]).iter().copied();
        let load = |i: usize| self.instances[i].registry.len();
        match self.cfg.dispatch {
            DispatchPolicy::SameBackboneFirst => candidates
                .filter(|&i| load(i) < self.cfg.max_tasks_per_instance)
                .min_by_key(|&i| load(i)),
            DispatchPolicy::DedicatedInstances => candidates.find(|&i| load(i) == 0),
        }
    }

    /// Whether a `backbone` job submitted now dispatches at once, joining
    /// a live instance or spinning up a new one, instead of queueing inside
    /// the service. Admission layers that keep their own pending queue
    /// (the workload replayer) consult this to submit only what places.
    pub fn dispatches_now(&self, backbone: &str) -> bool {
        self.dispatch_target(backbone).is_some() || self.capacity_left() > 0
    }

    fn dispatch_queued(&mut self) {
        for _ in 0..self.queue.len() {
            let Some(id) = self.queue.pop_front() else {
                break;
            };
            let spec = self.jobs[&id].spec.clone();
            let target = match self.dispatch_target(&spec.backbone) {
                Some(i) => Some(i),
                None if self.capacity_left() > 0 => {
                    match self.backbone_config(&spec.backbone) {
                        Some(cfg) => {
                            self.instances.push(Instance {
                                backbone_name: spec.backbone.clone(),
                                registry: TaskRegistry::new(cfg),
                                corpora: BTreeMap::new(),
                                job_of_task: BTreeMap::new(),
                                rates: BTreeMap::new(),
                                raw_rates: BTreeMap::new(),
                                slow_factors: BTreeMap::new(),
                                link_factor: 1.0,
                                lost_devices: BTreeSet::new(),
                                outage: None,
                                serving_preempted: self
                                    .serving
                                    .as_ref()
                                    .is_some_and(ServingRuntime::preempted),
                                outage_token: 0,
                                plan_override: None,
                                cluster_override: None,
                                next_task_id: 1,
                                planned_at: self.now,
                                epoch: 0,
                                planner: None,
                                plan: None,
                                traced: OnceLock::new(),
                            });
                            let i = self.instances.len() - 1;
                            self.by_backbone
                                .entry(spec.backbone.clone())
                                .or_default()
                                .push(i);
                            Some(i)
                        }
                        None => {
                            // Unknown backbone: reject at the API boundary.
                            self.reject(id, format!("unknown backbone {:?}", spec.backbone));
                            continue;
                        }
                    }
                }
                None if !self.can_host(&spec.backbone) => {
                    // No same-backbone instance exists and the pool is
                    // full. Instances are never torn down, so capacity
                    // can only shrink: the job is permanently starved.
                    // Reject it now instead of queueing it forever.
                    self.reject(
                        id,
                        format!(
                            "no capacity: pool exhausted and no {:?} instance to join",
                            spec.backbone
                        ),
                    );
                    continue;
                }
                None => None,
            };
            match target {
                Some(i) => {
                    let lens = self.ingest_corpus(&spec, id);
                    let inst = &mut self.instances[i];
                    let tid = inst.next_task_id;
                    inst.next_task_id += 1;
                    if let Err(e) = inst.registry.register_task(spec.to_task(tid)) {
                        self.reject(id, format!("task validation failed: {e}"));
                        continue;
                    }
                    inst.corpora.insert(tid, lens);
                    inst.job_of_task.insert(tid, id);
                    if let Some(job) = self.jobs.get_mut(&id) {
                        job.state = JobState::Running { instance: i };
                        job.started_at = self.now;
                    }
                    self.journal.push(
                        self.tick,
                        self.now,
                        EventKind::Dispatch {
                            job: id.0,
                            instance: i,
                        },
                    );
                    self.materialize(i);
                    self.replan(i);
                }
                None => self.queue.push_back(id),
            }
        }
    }

    /// Banks every running job's lazily-accrued progress on instance `i`
    /// up to `self.now`. Must run before anything changes the instance's
    /// rates (membership change, replan).
    fn materialize(&mut self, i: usize) {
        let inst = &mut self.instances[i];
        let dt = self.now - inst.planned_at;
        if dt > 0.0 {
            for (&tid, &rate) in &inst.rates {
                if let Some(job) = self.jobs.get_mut(&inst.job_of_task[&tid]) {
                    job.progressed_tokens += rate * dt;
                }
            }
        }
        inst.planned_at = self.now;
    }

    /// Evicts task `tid` from instance `i`, rejecting its job with
    /// `reason`. Co-located jobs stay registered and keep running. With
    /// `recovery` set the eviction is graceful degradation after a fault
    /// and additionally records a [`EventKind::RecoverShed`] marker.
    fn shed(&mut self, i: usize, tid: TaskId, reason: String, recovery: bool) {
        let inst = &mut self.instances[i];
        let _ = inst.registry.deregister_task(tid);
        inst.corpora.remove(&tid);
        inst.rates.remove(&tid);
        inst.raw_rates.remove(&tid);
        let evicted = inst.job_of_task.remove(&tid);
        if let Some(jid) = evicted {
            if recovery {
                self.journal.push(
                    self.tick,
                    self.now,
                    EventKind::RecoverShed {
                        job: jid.0,
                        instance: i,
                        reason: reason.clone(),
                    },
                );
                *self
                    .fault_stats
                    .recoveries
                    .entry("shed".into())
                    .or_insert(0) += 1;
            }
            self.journal.push(
                self.tick,
                self.now,
                EventKind::Shed {
                    job: jid.0,
                    instance: i,
                    reason: reason.clone(),
                },
            );
            self.reject(jid, reason);
        }
    }

    /// Records instance `i`'s earliest pending completion on the event
    /// heap (under the instance's current epoch).
    fn push_completion(&mut self, i: usize) {
        let inst = &self.instances[i];
        let mut best: Option<(f64, TaskId)> = None;
        for (&tid, &rate) in &inst.rates {
            // Zero-rate tasks (instance in outage) never complete on their
            // own; the retry that clears the outage re-prices them.
            if rate <= 0.0 {
                continue;
            }
            let job = &self.jobs[&inst.job_of_task[&tid]];
            let left = ((job.spec.total_tokens as f64 - job.progressed_tokens) / rate).max(0.0);
            if best.map(|(b, _)| left < b).unwrap_or(true) {
                best = Some((left, tid));
            }
        }
        if let Some((left, task)) = best {
            let epoch = inst.epoch;
            self.schedule(
                self.now + left,
                Timed::Completion {
                    instance: i,
                    task,
                    epoch,
                },
            );
        }
    }

    /// Schedules `event` at absolute time `at`. An event at +∞ or NaN
    /// could never fire, so it is not scheduled.
    fn schedule(&mut self, at: f64, event: Timed) {
        if at < f64::INFINITY {
            self.events.push(Reverse((OrdF64(at), event)));
        }
    }

    /// Re-plans instance `i` with the current membership and refreshes
    /// per-task progress rates. Progress must already be materialized.
    ///
    /// A membership the planner cannot place ([`PlanError`]) sheds the
    /// newest task — the arrival that broke feasibility — rejecting its
    /// job with the planner's reason, and retries with the remaining
    /// co-tenants; likewise any task whose computed rate is non-positive
    /// or non-finite (it could never complete). The loop is bounded by
    /// the instance's task count.
    fn replan(&mut self, i: usize) {
        let _span = mux_obs::span("service.replan");
        loop {
            let inst = &mut self.instances[i];
            inst.rates.clear();
            inst.raw_rates.clear();
            inst.plan = None;
            inst.traced.take();
            // The epoch advances only when a replan *concludes* (success
            // or empty instance), not per shed-retry iteration: k sheds
            // must cost one epoch, not k+1, so replayed journals agree
            // on epoch numbering regardless of how many retries ran.
            if inst.registry.is_empty() {
                inst.epoch += 1;
                inst.planned_at = self.now;
                let epoch = inst.epoch;
                self.journal.push(
                    self.tick,
                    self.now,
                    EventKind::Replan {
                        instance: i,
                        epoch,
                        tasks: 0,
                    },
                );
                return;
            }
            let parallelism = inst.plan_override.unwrap_or(self.cfg.plan);
            let cfg = PlannerConfig::muxtune(parallelism, self.cfg.micro_batches);
            let cluster = inst.cluster_override.as_ref().unwrap_or(&self.cluster);
            let result = match self.cfg.replan_mode {
                ReplanMode::Simulate => plan_and_run(&inst.registry, cluster, &inst.corpora, &cfg)
                    .map(|report| (report.metrics.effective_throughput, report.plan)),
                ReplanMode::Estimate => plan_estimate(&inst.registry, cluster, &inst.corpora, &cfg),
                ReplanMode::Incremental => inst
                    .planner
                    .get_or_insert_with(IncrementalEstimator::new)
                    .estimate(&inst.registry, cluster, &inst.corpora, &cfg),
            };
            let degrading = !inst.lost_devices.is_empty();
            match result {
                Ok((effective_throughput, plan)) => {
                    let raw: BTreeMap<TaskId, f64> = inst
                        .corpora
                        .iter()
                        .map(|(&t, lens)| (t, lens.iter().map(|&l| l as f64).sum()))
                        .collect();
                    inst.raw_rates = Self::split_throughput(effective_throughput, &raw);
                    // Degeneracy is judged on the planner's raw rates:
                    // fault-scaled rates are legitimately 0 during outages.
                    if let Some((&bad, &rate)) = inst
                        .raw_rates
                        .iter()
                        .find(|(_, &rate)| !(rate.is_finite() && rate > 0.0))
                    {
                        self.shed(
                            i,
                            bad,
                            format!("degenerate progress rate {rate}"),
                            degrading,
                        );
                        continue;
                    }
                    let mult = Self::degrade_multiplier(inst);
                    inst.rates = inst
                        .raw_rates
                        .iter()
                        .map(|(&t, &r)| (t, r * mult))
                        .collect();
                    inst.plan = Some(plan);
                    inst.epoch += 1;
                    inst.planned_at = self.now;
                    let (epoch, tasks) = (inst.epoch, inst.registry.len());
                    self.push_completion(i);
                    self.journal.push(
                        self.tick,
                        self.now,
                        EventKind::Replan {
                            instance: i,
                            epoch,
                            tasks,
                        },
                    );
                    return;
                }
                Err(e) => {
                    // Graceful degradation: shed the lowest-priority tenant
                    // (newest on ties — the arrival that broke feasibility)
                    // so co-tenants keep running.
                    let victim = *inst
                        .job_of_task
                        .iter()
                        .min_by_key(|(&tid, jid)| (self.jobs[jid].spec.priority, Reverse(tid)))
                        .map(|(t, _)| t)
                        .expect("non-empty");
                    // Journal the victim selection before the shed: every
                    // co-tenant was a candidate, scored by priority
                    // (lower loses first, newest task on ties).
                    let mut candidates: Vec<(TaskId, DecisionCandidate)> = inst
                        .job_of_task
                        .iter()
                        .map(|(&tid, jid)| {
                            let j = &self.jobs[jid];
                            (
                                tid,
                                DecisionCandidate {
                                    id: jid.0,
                                    tenant: j.spec.tenant.clone(),
                                    score: f64::from(j.spec.priority),
                                    priority: j.spec.priority,
                                    arrival: j.submitted_at,
                                },
                            )
                        })
                        .collect();
                    candidates.sort_by(|(ta, a), (tb, b)| {
                        (a.priority, Reverse(*ta)).cmp(&(b.priority, Reverse(*tb)))
                    });
                    let considered = candidates.len();
                    let chosen = inst.job_of_task[&victim].0;
                    candidates.truncate(crate::journal::DECISION_CANDIDATE_CAP);
                    let candidates: Vec<DecisionCandidate> =
                        candidates.into_iter().map(|(_, c)| c).collect();
                    self.journal.push(
                        self.tick,
                        self.now,
                        EventKind::Decision {
                            policy: "service".to_string(),
                            action: "shed".to_string(),
                            score_kind: "priority".to_string(),
                            chosen,
                            job: Some(chosen),
                            instance: Some(i),
                            considered,
                            candidates,
                        },
                    );
                    self.shed(i, victim, e.to_string(), degrading);
                }
            }
        }
    }

    /// Splits `effective_throughput` across tasks in proportion to their
    /// raw content per round. The divisor is the exact content total —
    /// clamping it upward (e.g. `total.max(1.0)`) would silently deflate
    /// every rate whenever the membership's combined content is below
    /// the clamp, leaking throughput that then never reaches any job. A
    /// zero-content membership yields all-zero rates (never NaN); the
    /// caller sheds those as degenerate.
    fn split_throughput(
        effective_throughput: f64,
        raw: &BTreeMap<TaskId, f64>,
    ) -> BTreeMap<TaskId, f64> {
        let total: f64 = raw.values().sum();
        raw.iter()
            .map(|(&t, &r)| {
                let share = if total > 0.0 { r / total } else { 0.0 };
                (t, effective_throughput * share)
            })
            .collect()
    }

    /// The factor `raw_rates` shrink by under the instance's live fault
    /// state: 0 during an outage, else the reciprocal of the worst
    /// straggler slowdown times the link degradation.
    fn degrade_multiplier(inst: &Instance) -> f64 {
        if inst.outage.is_some() || inst.serving_preempted {
            return 0.0;
        }
        let slow = inst.slow_factors.values().fold(1.0f64, |a, &b| a.max(b));
        1.0 / (slow * inst.link_factor).max(1.0)
    }

    /// Recomputes instance `i`'s effective rates from its raw planner
    /// rates and the current fault state, invalidating stale completion
    /// events. Progress must already be materialized.
    fn reprice(&mut self, i: usize) {
        let inst = &mut self.instances[i];
        let mult = Self::degrade_multiplier(inst);
        inst.rates = inst
            .raw_rates
            .iter()
            .map(|(&t, &r)| (t, r * mult))
            .collect();
        inst.epoch += 1;
        inst.planned_at = self.now;
        self.push_completion(i);
    }

    /// Forces a full replan of instance `i` with the current membership
    /// (progress is materialized first, so no accrued tokens are lost).
    /// An operator escape hatch — and the observable no-op case for
    /// [`ReplanMode::Incremental`]: forcing a replan with unchanged
    /// membership must rebuild zero fusion ranges.
    ///
    /// Out-of-range `i` is a no-op returning `false`.
    pub fn force_replan(&mut self, i: usize) -> bool {
        if i >= self.instances.len() {
            return false;
        }
        self.materialize(i);
        self.replan(i);
        true
    }

    /// Cumulative incremental-planner statistics for instance `i`
    /// (`ranges_built`, `ranges_reused`, `noop_plans`, …). All-default
    /// when the instance never replanned in
    /// [`ReplanMode::Incremental`] or `i` is out of range.
    pub fn planner_stats(&self, i: usize) -> muxtune_core::fusion::IncrementalStats {
        self.instances
            .get(i)
            .and_then(|inst| inst.planner.as_ref())
            .map(|p| p.stats())
            .unwrap_or_default()
    }

    /// The earliest live heap event, discarding stale ones off the top.
    fn peek_live(&mut self) -> Option<(f64, Timed)> {
        while let Some(&Reverse((OrdF64(at), event))) = self.events.peek() {
            let live = match event {
                Timed::Retry { instance, token } => self.instances[instance]
                    .outage
                    .is_some_and(|o| o.token == token),
                Timed::Completion {
                    instance, epoch, ..
                } => self.instances[instance].epoch == epoch,
            };
            if live {
                return Some((at, event));
            }
            self.events.pop();
        }
        None
    }

    /// When the next event fires, absolute seconds: the earliest live
    /// heap event or serving event, never before `now` (a serving event
    /// already due fires at `now`). `None` when nothing is scheduled.
    /// External drivers (the workload trace replayer) step with
    /// [`Self::advance_to`] on it instead of polling in fixed steps.
    pub fn next_event_at(&mut self) -> Option<f64> {
        let timed = self.peek_live().map(|(at, _)| at);
        let serving = self
            .serving
            .as_ref()
            .and_then(ServingRuntime::next_event_at);
        [timed, serving]
            .into_iter()
            .flatten()
            .reduce(f64::min)
            .map(|at| at.max(self.now))
    }

    /// Fires the live retry of instance `i`'s outage: journals the
    /// attempt, and either clears the fault (the comm layer recovered) or
    /// schedules the next retry after exponential backoff.
    fn handle_retry(&mut self, i: usize) {
        let outage = self.instances[i]
            .outage
            .as_mut()
            .expect("a live retry has an outage");
        outage.attempt += 1;
        let (attempt, failures, token) = (outage.attempt, outage.failures, outage.token);
        let backoff = self.cfg.retry.backoff(attempt);
        self.journal.push(
            self.tick,
            self.now,
            EventKind::RecoverRetry {
                instance: i,
                attempt: u64::from(attempt),
                backoff_seconds: backoff,
            },
        );
        *self
            .fault_stats
            .recoveries
            .entry("retry".into())
            .or_insert(0) += 1;
        if attempt >= failures {
            self.instances[i].outage = None;
            self.journal.push(
                self.tick,
                self.now,
                EventKind::FaultCleared {
                    kind: "comm_transient".into(),
                    instance: i,
                },
            );
            self.materialize(i);
            self.reprice(i);
        } else {
            let next = self.cfg.retry.backoff(attempt + 1);
            self.schedule(self.now + next, Timed::Retry { instance: i, token });
        }
    }

    /// Completes the job behind `forced` on instance `i` (its completion
    /// event just fired) plus any co-located job whose banked progress
    /// reached its target.
    fn retire_completed(&mut self, i: usize, forced: TaskId) {
        let inst = &self.instances[i];
        let done: Vec<(TaskId, JobId)> = inst
            .job_of_task
            .iter()
            .filter(|&(&t, jid)| {
                t == forced || {
                    let j = &self.jobs[jid];
                    j.progressed_tokens + 1e-6 >= j.spec.total_tokens as f64
                }
            })
            .map(|(&t, &jid)| (t, jid))
            .collect();
        for (t, jid) in done {
            let inst = &mut self.instances[i];
            inst.job_of_task.remove(&t);
            let _ = inst.registry.deregister_task(t);
            inst.corpora.remove(&t);
            inst.rates.remove(&t);
            if let Some(job) = self.jobs.get_mut(&jid) {
                job.progressed_tokens = job.spec.total_tokens as f64;
                job.state = JobState::Completed;
                job.finished_at = self.now;
            }
            self.journal
                .push(self.tick, self.now, EventKind::Complete { job: jid.0 });
        }
    }

    /// Advances simulated time to absolute `t`, firing every live event
    /// due at or before `t` in time order: comm retries and training
    /// completions off the event heap, interleaved with the serving
    /// runtime's arrivals, prefill and decode ends and queue timeouts
    /// (training first on equal times). Between events progress accrues
    /// lazily, with no scan of the running set. An event due exactly at
    /// `now` fires and the clock stays. A non-finite `t`, or one before
    /// `now`, is a no-op.
    pub fn advance_to(&mut self, t: f64) {
        if !(t.is_finite() && t >= self.now) {
            return;
        }
        let _span = mux_obs::span("service.advance");
        loop {
            let timed = self.peek_live().filter(|&(at, _)| at <= t);
            let serving = self
                .serving
                .as_ref()
                .and_then(ServingRuntime::next_event_at)
                .filter(|&at| at <= t);
            match (timed, serving) {
                (Some((at, event)), serving) if serving.is_none_or(|s| at <= s) => {
                    self.events.pop();
                    self.now = at.max(self.now);
                    match event {
                        Timed::Retry { instance, .. } => self.handle_retry(instance),
                        Timed::Completion { instance, task, .. } => {
                            self.materialize(instance);
                            self.retire_completed(instance, task);
                            self.replan(instance);
                            self.dispatch_queued();
                        }
                    }
                }
                (timed, Some(_)) => {
                    // Serving events before the next training event
                    // (training first on equal times) share one headroom.
                    let before = timed.map_or(f64::INFINITY, |(at, _)| at);
                    self.fire_serving(|s| s <= t && s < before);
                }
                _ => break,
            }
        }
        self.now = t;
    }

    /// Advances simulated time by `dt` seconds: `advance_to(now + dt)`.
    pub fn advance(&mut self, dt: f64) {
        self.advance_to(self.now + dt);
    }

    /// Turns on streaming monitoring: per-job throughput-drop and
    /// stall-spike anomaly detectors plus the SLO burn-rate rule (see
    /// [`mux_obs_analysis::online`]). Observations are taken by
    /// [`Self::tick`]; fired/cleared alerts land in the journal and in
    /// [`Self::alerts`] / `service_report()` / `snapshot_prom()`.
    pub fn enable_monitoring(&mut self, cfg: MonitorConfig) {
        self.monitor = Some(MonitorRuntime {
            monitor: OnlineMonitor::new(cfg),
            last_progress: BTreeMap::new(),
        });
    }

    /// The current observation tick (count of [`Self::tick`] calls).
    pub fn current_tick(&self) -> u64 {
        self.tick
    }

    /// The event journal recorded so far.
    pub fn journal(&self) -> &Journal {
        &self.journal
    }

    /// Appends the [`EventKind::Final`] record embedding the live state,
    /// sealing the journal for [`Journal::verify`] / `report --replay`.
    pub fn seal_journal(&mut self) {
        let state = self.state_fingerprint();
        self.journal.push(
            self.tick,
            self.now,
            EventKind::Final {
                jobs: state.jobs,
                alerts: state.alerts,
            },
        );
    }

    /// Journals an [`EventKind::Decision`] provenance event at the
    /// current `(tick, now)`. External dispatchers (the trace replayer)
    /// use this to record *why* their policy picked a job, in the same
    /// journal the resulting `Dispatch` lands in — so `--explain-job`
    /// can reconstruct the reasoning offline. `candidates` should arrive
    /// winner-first and already capped (see
    /// [`crate::journal::DECISION_CANDIDATE_CAP`]);
    /// `considered` is the full pre-cap count.
    #[allow(clippy::too_many_arguments)]
    pub fn record_decision(
        &mut self,
        policy: &str,
        action: &str,
        score_kind: &str,
        chosen: u64,
        job: Option<u64>,
        instance: Option<usize>,
        considered: usize,
        candidates: Vec<DecisionCandidate>,
    ) {
        self.journal.push(
            self.tick,
            self.now,
            EventKind::Decision {
                policy: policy.to_string(),
                action: action.to_string(),
                score_kind: score_kind.to_string(),
                chosen,
                job,
                instance,
                considered,
                candidates,
            },
        );
    }

    /// Currently-firing alerts (empty when monitoring is off).
    pub fn alerts(&self) -> Vec<&Alert> {
        self.monitor
            .as_ref()
            .map(|rt| rt.monitor.active().collect())
            .unwrap_or_default()
    }

    /// The live state in journal-replay terms: per-job lifecycle strings
    /// plus the active `(rule, job)` alert set. The **replay invariant**:
    /// replaying the journal up to the current tick reproduces exactly
    /// this (see `tests/telemetry_props.rs`).
    pub fn state_fingerprint(&self) -> ReplayState {
        let mut jobs = BTreeMap::new();
        for j in self.jobs.values() {
            let state = match j.state {
                JobState::Queued => "queued".to_string(),
                JobState::Running { instance } => format!("running@{instance}"),
                JobState::Completed => "completed".to_string(),
                JobState::Rejected => "rejected".to_string(),
            };
            jobs.insert(j.id.0, state);
        }
        let alerts = self
            .monitor
            .as_ref()
            .map(|rt| {
                rt.monitor
                    .active()
                    .map(|a| (a.rule.clone(), a.job))
                    .collect()
            })
            .unwrap_or_default();
        ReplayState {
            tick: self.tick,
            jobs,
            alerts,
        }
    }

    /// Advances one observation tick: bumps the tick counter, advances
    /// simulated time by `dt` (every event due fires, serving events
    /// included), takes the per-tick sharing decision, then samples every
    /// running job through the monitor's detectors.
    pub fn tick(&mut self, dt: f64) {
        let _span = mux_obs::span("service.tick");
        self.tick += 1;
        self.advance(dt);
        self.share_backbone();
        self.sample_and_detect(dt);
    }

    /// Enables inference serving on the shared backbone. Requests are fed
    /// with [`Self::submit_requests`] and fire inside [`Self::advance_to`]
    /// at their own times; the sharing policy decides once per
    /// [`Self::tick`]. Replaces any previous serving runtime.
    pub fn enable_serving(&mut self, cfg: ServingConfig) {
        self.serving = Some(ServingRuntime::new(cfg));
    }

    /// Queues future inference request arrivals (any order; the runtime
    /// sorts by arrival time). No-op when serving is disabled.
    pub fn submit_requests(&mut self, requests: Vec<RequestSpec>) {
        if let Some(s) = self.serving.as_mut() {
            s.submit(requests);
        }
    }

    /// The serving runtime, when enabled (inspection).
    pub fn serving(&self) -> Option<&ServingRuntime> {
        self.serving.as_ref()
    }

    /// Whether every submitted request has reached a terminal state
    /// (vacuously true when serving is disabled).
    pub fn serving_idle(&self) -> bool {
        self.serving.as_ref().map(|s| s.idle()).unwrap_or(true)
    }

    /// Fires the serving events whose times pass `due`, priced with the
    /// Eq. 7 slot headroom (free co-location slots over all slots) live
    /// now; no training event fires among them to change it.
    fn fire_serving(&mut self, due: impl Fn(f64) -> bool) {
        let cap = self.slot_capacity();
        let headroom = if cap == 0 {
            1.0
        } else {
            self.slots_free() as f64 / cap as f64
        };
        if let Some(srv) = self.serving.as_mut() {
            srv.set_headroom(headroom);
            srv.fire_while(due, self.tick, &mut self.journal);
        }
    }

    /// The per-tick sharing decision: the policy says whether serving
    /// holds the backbone for the next tick (temporal preemption) or
    /// co-batches in the Eq. 7 slot headroom (spatial). A flip re-prices
    /// every instance and journals a preempt or resume marker for each.
    ///
    /// With serving enabled but no requests in the system this is
    /// observably a no-op — no journal events, no rate changes — so an
    /// empty-stream run is bitwise identical to a serving-disabled run
    /// (the differential gate in `tests/serving_props.rs`).
    fn share_backbone(&mut self) {
        let Some(srv) = self.serving.as_mut() else {
            return;
        };
        let want = srv.wants_backbone(self.now);
        if want == srv.preempted() {
            return;
        }
        srv.set_preempted(want);
        for i in 0..self.instances.len() {
            self.materialize(i);
            self.instances[i].serving_preempted = want;
            self.reprice(i);
            let kind = if want {
                EventKind::ServingPreempt { instance: i }
            } else {
                EventKind::ServingResume { instance: i }
            };
            self.journal.push(self.tick, self.now, kind);
        }
    }

    /// Samples throughput, stall shares, and SLO burn for every running
    /// job, feeding the detectors and journaling every alert transition.
    fn sample_and_detect(&mut self, dt: f64) {
        // Taking the runtime out avoids borrowing `self` twice: the
        // sampling below reads service state while mutating the monitor.
        let Some(mut rt) = self.monitor.take() else {
            return;
        };
        let tick = self.tick;
        let running: Vec<(JobId, usize)> = self
            .jobs
            .values()
            .filter_map(|j| match j.state {
                JobState::Running { instance } => Some((j.id, instance)),
                _ => None,
            })
            .collect();
        let mut events: Vec<AlertEvent> = Vec::new();
        for &(jid, inst_idx) in &running {
            let rate = self.job_rate(jid);
            events.extend(rt.monitor.observe_throughput(jid.0, rate, tick));
            let shares = self.stall_class_shares(inst_idx);
            for (class, share) in StallClass::ALL.into_iter().zip(shares) {
                events.extend(rt.monitor.observe_stall_share(jid.0, class, share, tick));
            }
            let j = &self.jobs[&jid];
            let progress = self.job_progress(j);
            if let Some(slo) = j.spec.slo_seconds {
                let last = rt.last_progress.get(&jid).copied().unwrap_or(0.0);
                let delta = (progress - last).max(0.0);
                let budget_fraction = dt / slo.max(1e-12);
                let progress_fraction = delta / (j.spec.total_tokens.max(1) as f64);
                events.extend(rt.monitor.observe_slo_burn(
                    jid.0,
                    budget_fraction,
                    progress_fraction,
                    tick,
                ));
            }
            rt.last_progress.insert(jid, progress);
        }

        // Jobs that completed or were shed stop being tracked; their
        // still-active alerts clear.
        let running_ids: BTreeSet<u64> = running.iter().map(|&(j, _)| j.0).collect();
        for job in rt.monitor.tracked_jobs() {
            if !running_ids.contains(&job) {
                events.extend(rt.monitor.forget_job(job));
            }
        }
        rt.last_progress.retain(|j, _| running_ids.contains(&j.0));

        for ev in events {
            match ev {
                AlertEvent::Fired(a) => self.journal.push(
                    tick,
                    self.now,
                    EventKind::AlertFired {
                        rule: a.rule,
                        severity: a.severity.name().to_string(),
                        job: a.job,
                        window: a.window,
                        value: a.value,
                        threshold: a.threshold,
                    },
                ),
                AlertEvent::Cleared(a) => self.journal.push(
                    tick,
                    self.now,
                    EventKind::AlertCleared {
                        rule: a.rule,
                        job: a.job,
                    },
                ),
            }
        }
        self.monitor = Some(rt);
    }

    /// The live per-tick summary a `--watch` loop prints: job counts,
    /// aggregate throughput, mean stall-class shares, active alerts.
    pub fn telemetry_summary(&self) -> TelemetrySummary {
        let mut running = 0;
        let mut queued = 0;
        let mut completed = 0;
        let mut rejected = 0;
        let mut throughput = 0.0;
        for j in self.jobs.values() {
            match j.state {
                JobState::Running { .. } => {
                    running += 1;
                    throughput += self.job_rate(j.id);
                }
                JobState::Queued => queued += 1,
                JobState::Completed => completed += 1,
                JobState::Rejected => rejected += 1,
            }
        }
        let live: Vec<[f64; StallClass::COUNT]> = (0..self.instances.len())
            .filter(|&i| !self.instances[i].registry.is_empty())
            .map(|i| self.stall_class_shares(i))
            .collect();
        let stall_class_shares = std::array::from_fn(|ci| {
            live.iter().map(|s| s[ci]).sum::<f64>() / live.len().max(1) as f64
        });
        TelemetrySummary {
            tick: self.tick,
            now: self.now,
            running,
            queued,
            completed,
            rejected,
            throughput_tokens_per_second: throughput,
            stall_class_shares,
            active_alerts: self
                .monitor
                .as_ref()
                .map(|rt| {
                    rt.monitor
                        .active()
                        .map(|a| (a.rule.clone(), a.job))
                        .collect()
                })
                .unwrap_or_default(),
        }
    }

    /// Instance `i`'s traced run: the plan its last replan priced, run
    /// once with tracing on its own cluster (the shrunk one after a device
    /// loss) and kept until the next replan. Only the first call per plan
    /// simulates.
    ///
    /// `None` when the instance is empty, or when its plan, priced by the
    /// cost model alone, runs out of memory in the engine.
    fn traced_instance(&self, i: usize) -> Option<&TracedInstance> {
        let inst = &self.instances[i];
        let run = || {
            let plan = inst.plan.as_ref()?;
            let cluster = inst.cluster_override.as_ref().unwrap_or(&self.cluster);
            let (metrics, ops) = plan.run_traced(&inst.registry, cluster).ok()?;
            Some(TracedInstance::new(metrics, &ops, cluster.gpus.len()))
        };
        inst.traced.get_or_init(run).as_ref()
    }

    /// Instance `i`'s stall-class shares of its traced run, in
    /// [`StallClass::ALL`] order (zeros when it has none).
    fn stall_class_shares(&self, i: usize) -> [f64; StallClass::COUNT] {
        self.traced_instance(i)
            .map_or([0.0; StallClass::COUNT], |t| t.stalls.class_shares())
    }

    /// Current aggregate progress rate of a job, tokens/second (0 when
    /// not running).
    fn job_rate(&self, id: JobId) -> f64 {
        self.instances
            .iter()
            .map(|inst| {
                inst.job_of_task
                    .iter()
                    .filter(|&(_, &jid)| jid == id)
                    .map(|(t, _)| inst.rates.get(t).copied().unwrap_or(0.0))
                    .sum::<f64>()
            })
            .sum()
    }

    /// Live progress of a job, tokens: the banked total plus whatever has
    /// accrued lazily since its instance's last replan.
    fn job_progress(&self, j: &Job) -> f64 {
        match j.state {
            JobState::Running { instance } => {
                let inst = &self.instances[instance];
                let accrued = self.job_rate(j.id) * (self.now - inst.planned_at).max(0.0);
                (j.progressed_tokens + accrued).min(j.spec.total_tokens as f64)
            }
            _ => j.progressed_tokens,
        }
    }

    /// Estimated seconds until job `id` completes at its current rate.
    /// `None` for jobs that are not accruing progress.
    fn job_eta(&self, id: JobId) -> Option<f64> {
        let j = &self.jobs[&id];
        if !matches!(j.state, JobState::Running { .. }) {
            return None;
        }
        let rate = self.job_rate(id);
        (rate > 0.0).then(|| ((j.spec.total_tokens as f64 - self.job_progress(j)) / rate).max(0.0))
    }

    /// The one view [`Self::service_report`] and [`Self::snapshot_prom`]
    /// render: every instance's traced run, the `mux-obs` registry as the
    /// process collected it, and the per-job, per-tenant, capacity and
    /// per-rule facts derived from them.
    fn report_view(&self) -> ReportView<'_> {
        let instances: Vec<Option<&TracedInstance>> = (0..self.instances.len())
            .map(|i| self.traced_instance(i))
            .collect();
        let obs = mux_obs::snapshot();

        // Attributed stall seconds per job (shared blame on an hTask splits
        // evenly among its member jobs), normalized by the hosting
        // instance's total device-window: a share in [0, 1].
        let mut stall_share: BTreeMap<JobId, f64> = BTreeMap::new();
        for (inst, t) in self.instances.iter().zip(&instances) {
            let Some(t) = t else { continue };
            let mut by_job: BTreeMap<JobId, f64> = BTreeMap::new();
            for (href, &secs) in t.attribution.iter().flat_map(|d| &d.by_htask) {
                let jobs = jobs_of_htask(inst, href);
                let share = secs / jobs.len() as f64;
                for j in jobs {
                    *by_job.entry(j).or_insert(0.0) += share;
                }
            }
            if t.stalls.window > 0.0 {
                for (j, secs) in by_job {
                    *stall_share.entry(j).or_insert(0.0) += secs / t.stalls.window;
                }
            }
        }

        let jobs: Vec<JobRow> = self
            .jobs
            .values()
            .map(|job| {
                let eta = self.job_eta(job.id);
                JobRow {
                    job,
                    progress: self.job_progress(job),
                    rate: self.job_rate(job.id),
                    eta,
                    stall_share: stall_share.get(&job.id).copied().unwrap_or(0.0),
                    slo_violated: job.slo_violated(self.now, eta),
                }
            })
            .collect();
        // SLO verdicts are realized for completed jobs and predicted for
        // in-flight ones.
        let mut tenants: BTreeMap<&str, TenantStats> = BTreeMap::new();
        for r in &jobs {
            let s = tenants.entry(r.job.spec.tenant.as_str()).or_default();
            match r.job.state {
                JobState::Queued => s.queued += 1,
                JobState::Running { .. } => s.running += 1,
                JobState::Completed => s.completed += 1,
                JobState::Rejected => s.rejected += 1,
            }
            s.progressed_tokens += r.progress;
            s.throughput += r.rate;
            match r.slo_violated {
                Some(true) => s.slo_violated += 1,
                Some(false) => s.slo_met += 1,
                None => {}
            }
        }
        let rules = online::rules()
            .into_iter()
            .map(|(rule, severity)| {
                let (active, fired) = self.monitor.as_ref().map_or((0, 0), |rt| {
                    (
                        rt.monitor.active().filter(|a| a.rule == rule).count(),
                        rt.monitor.fired_total().get(&rule).copied().unwrap_or(0),
                    )
                });
                (rule, severity, active, fired)
            })
            .collect();
        ReportView {
            jain_throughput: jain_index(tenants.values().map(|s| s.throughput)),
            jain_work: jain_index(tenants.values().map(|s| s.progressed_tokens)),
            headroom_fraction: self.slots_free() as f64 / (self.slot_capacity() as f64).max(1.0),
            jobs,
            instances,
            tenants,
            rules,
            obs,
        }
    }

    /// Builds the service's observability report as JSON: the job table
    /// with **per-job throughput, stall share, ETA, and SLO verdicts**;
    /// per-instance plan outcomes with per-device utilization, the 5-class
    /// **stall attribution** (pipeline bubble / comm wait / dependency
    /// wait / alignment imbalance / fault recovery, from the instance's
    /// traced run of its current membership; the one stall model every
    /// breakdown reads), and the **critical path** through the instance's
    /// timeline; the tenant, capacity, alert, fault and serving sections;
    /// and the `mux-obs` registry — phase wall times, counters, gauges,
    /// and histograms — as the process collected it (empty unless
    /// collection is on).
    pub fn service_report(&self) -> Value {
        let view = self.report_view();
        let jobs: Vec<Value> = view
            .jobs
            .iter()
            .map(|r| {
                let j = r.job;
                let state = match j.state {
                    JobState::Queued => "queued".to_string(),
                    JobState::Running { instance } => format!("running@{instance}"),
                    JobState::Completed => "completed".to_string(),
                    JobState::Rejected => "rejected".to_string(),
                };
                json!({
                    "id": j.id.0,
                    "tenant": j.spec.tenant,
                    "backbone": j.spec.backbone,
                    "state": state,
                    "reject_reason": j.reject_reason,
                    "total_tokens": j.spec.total_tokens,
                    "progressed_tokens": r.progress,
                    "jct_seconds": j.jct(),
                    "throughput_tokens_per_second": r.rate,
                    "eta_seconds": r.eta,
                    "stall_share": r.stall_share,
                    "slo_seconds": j.spec.slo_seconds,
                    "slo_violated": r.slo_violated,
                })
            })
            .collect();
        let instances: Vec<Value> = self
            .instances
            .iter()
            .zip(&view.instances)
            .enumerate()
            .map(|(i, (inst, traced))| {
                let mut m = Map::new();
                m.insert("instance".into(), i.into());
                m.insert("backbone".into(), inst.backbone_name.as_str().into());
                m.insert("tasks".into(), inst.registry.len().into());
                if let Some(t) = traced {
                    t.insert_json(&mut m);
                }
                Value::Object(m)
            })
            .collect();
        let per_tenant: Vec<Value> = view
            .tenants
            .iter()
            .map(|(&tenant, s)| {
                json!({
                    "tenant": tenant,
                    "queued": s.queued,
                    "running": s.running,
                    "completed": s.completed,
                    "rejected": s.rejected,
                    "progressed_tokens": s.progressed_tokens,
                    "throughput_tokens_per_second": s.throughput,
                    "slo_met": s.slo_met,
                    "slo_violated": s.slo_violated,
                    "slo_attainment": slo_attainment(s.slo_met, s.slo_violated),
                })
            })
            .collect();

        // Every rule in `online::rules`, fault kind and recovery action is
        // always present (0 when it never happened), so dashboards and
        // goldens can pin on the key set whether or not monitoring is on.
        let active = || self.monitor.iter().flat_map(|rt| rt.monitor.active());
        let active_alerts: Vec<Value> = active()
            .map(|a| {
                json!({
                    "rule": a.rule,
                    "severity": a.severity.name(),
                    "job": a.job,
                    "window": a.window,
                    "value": a.value,
                    "threshold": a.threshold,
                    "tick": a.tick,
                })
            })
            .collect();
        let by_severity: Map = [online::Severity::Warning, online::Severity::Critical]
            .into_iter()
            .map(|sev| {
                let n = active().filter(|a| a.severity == sev).count();
                (sev.name().to_string(), n.into())
            })
            .collect();
        let fired: Map = view
            .rules
            .iter()
            .map(|(rule, _, _, fired)| (rule.clone(), (*fired).into()))
            .collect();
        let totals = |counts: &BTreeMap<String, u64>, keys: [&str; 4]| -> Map {
            keys.into_iter()
                .map(|k| (k.to_string(), counts.get(k).copied().unwrap_or(0).into()))
                .collect()
        };
        let fault_instances: Vec<Value> = self
            .instances
            .iter()
            .enumerate()
            .map(|(i, inst)| {
                let lost: Vec<usize> = inst.lost_devices.iter().copied().collect();
                json!({
                    "instance": i,
                    "lost_devices": lost,
                    "slow_factor": inst.slow_factors.values().fold(1.0f64, |a, &b| a.max(b)),
                    "link_factor": inst.link_factor,
                    "in_outage": inst.outage.is_some(),
                })
            })
            .collect();

        let obs = &view.obs;
        let phases: Map = obs
            .phases
            .iter()
            .map(|(name, stat)| {
                let phase = json!({ "count": stat.count, "total_seconds": stat.total_seconds });
                (name.clone(), phase)
            })
            .collect();
        let counters: Map = obs
            .counters
            .iter()
            .map(|(name, &v)| (name.clone(), v.into()))
            .collect();
        let gauges: Map = obs
            .gauges
            .iter()
            .map(|(name, &v)| (name.clone(), v.into()))
            .collect();
        let histograms: Map = obs
            .histograms
            .iter()
            .map(|(name, h)| {
                let hist = json!({
                    "count": h.count(),
                    "sum": h.sum(),
                    "min": h.min(),
                    "max": h.max(),
                    "p50": h.quantile(0.50),
                    "p95": h.quantile(0.95),
                    "p99": h.quantile(0.99),
                });
                (name.clone(), hist)
            })
            .collect();

        json!({
            "now_seconds": self.now,
            "tick": self.tick,
            "jobs": jobs,
            "instances": instances,
            "tenants": {
                "per_tenant": per_tenant,
                "fairness": {
                    "jain_throughput": view.jain_throughput,
                    "jain_work": view.jain_work,
                },
            },
            "capacity": {
                "gpus_total": self.cfg.gpus_total,
                "gpus_per_instance": self.cfg.gpus_per_instance,
                "instances_max": self.cfg.gpus_total / self.cfg.gpus_per_instance,
                "instances_live": self.instances.len(),
                "instance_headroom": self.capacity_left(),
                "max_tasks_per_instance": self.cfg.max_tasks_per_instance,
                "task_slots_total": self.slot_capacity(),
                "task_slots_free": self.slots_free(),
                "headroom_fraction": view.headroom_fraction,
            },
            "alerts": {
                "active": active_alerts,
                "active_by_severity": by_severity,
                "fired_total": fired,
            },
            "faults": {
                "injected_total": totals(
                    &self.fault_stats.injected,
                    ["device_slowdown", "link_degrade", "comm_transient", "device_loss"],
                ),
                "recoveries_total": totals(
                    &self.fault_stats.recoveries,
                    ["retry", "restart", "replan", "shed"],
                ),
                "instances": fault_instances,
            },
            "serving": serving::report_json(self.serving.as_ref(), self.now),
            "observability": {
                "phases": phases,
                "counters": counters,
                "gauges": gauges,
                "histograms": histograms,
            },
        })
    }

    /// Renders the service's current state in Prometheus text-exposition
    /// format: per-job progress/throughput/ETA/stall-share/SLO gauges,
    /// per-instance makespan, utilization and per-class stall seconds,
    /// per-tenant fairness/SLO/JCT families, pool headroom and alert
    /// tallies, the serving families when serving is enabled, then the
    /// `mux-obs` registry (phases, counters, gauges, histograms) as the
    /// process collected it.
    pub fn snapshot_prom(&self) -> String {
        let view = self.report_view();
        let mut out = String::new();
        out.push_str("# TYPE muxtune_service_now_seconds gauge\n");
        out.push_str(&format!("muxtune_service_now_seconds {}\n", self.now));

        out.push_str("# TYPE muxtune_job_progress_tokens gauge\n");
        out.push_str("# TYPE muxtune_job_throughput_tokens_per_second gauge\n");
        out.push_str("# TYPE muxtune_job_eta_seconds gauge\n");
        out.push_str("# TYPE muxtune_job_stall_share gauge\n");
        out.push_str("# TYPE muxtune_job_slo_violated gauge\n");
        for r in &view.jobs {
            let id = r.job.id.0;
            let backbone = mux_obs::prom_escape_label(&r.job.spec.backbone);
            out.push_str(&format!(
                "muxtune_job_progress_tokens{{job=\"{id}\",backbone=\"{backbone}\"}} {}\n",
                r.progress
            ));
            out.push_str(&format!(
                "muxtune_job_throughput_tokens_per_second{{job=\"{id}\",backbone=\"{backbone}\"}} {}\n",
                r.rate
            ));
            if let Some(eta) = r.eta {
                out.push_str(&format!("muxtune_job_eta_seconds{{job=\"{id}\"}} {eta}\n"));
            }
            out.push_str(&format!(
                "muxtune_job_stall_share{{job=\"{id}\"}} {}\n",
                r.stall_share
            ));
            if let Some(v) = r.slo_violated {
                out.push_str(&format!(
                    "muxtune_job_slo_violated{{job=\"{id}\"}} {}\n",
                    v as u8
                ));
            }
        }

        out.push_str("# TYPE muxtune_instance_makespan_seconds gauge\n");
        out.push_str("# TYPE muxtune_instance_mean_utilization gauge\n");
        out.push_str("# TYPE muxtune_instance_stall_share gauge\n");
        out.push_str("# TYPE muxtune_instance_stall_seconds gauge\n");
        for (i, t) in view.instances.iter().enumerate() {
            let Some(t) = t else { continue };
            out.push_str(&format!(
                "muxtune_instance_makespan_seconds{{instance=\"{i}\"}} {}\n",
                t.metrics.makespan
            ));
            out.push_str(&format!(
                "muxtune_instance_mean_utilization{{instance=\"{i}\"}} {}\n",
                t.metrics.mean_utilization
            ));
            out.push_str(&format!(
                "muxtune_instance_stall_share{{instance=\"{i}\"}} {}\n",
                t.stalls.share()
            ));
            for (class, secs) in StallClass::ALL.iter().zip(t.stalls.class_seconds) {
                out.push_str(&format!(
                    "muxtune_instance_stall_seconds{{instance=\"{i}\",class=\"{}\"}} {secs}\n",
                    class.name()
                ));
            }
        }

        out.push_str("# TYPE muxtune_tenant_jobs gauge\n");
        out.push_str("# TYPE muxtune_tenant_throughput_tokens_per_second gauge\n");
        out.push_str("# TYPE muxtune_tenant_progressed_tokens gauge\n");
        out.push_str("# TYPE muxtune_tenant_slo_attainment gauge\n");
        for (tenant, s) in &view.tenants {
            let label = mux_obs::prom_escape_label(tenant);
            for (state, n) in [
                ("queued", s.queued),
                ("running", s.running),
                ("completed", s.completed),
                ("rejected", s.rejected),
            ] {
                out.push_str(&format!(
                    "muxtune_tenant_jobs{{tenant=\"{label}\",state=\"{state}\"}} {n}\n"
                ));
            }
            out.push_str(&format!(
                "muxtune_tenant_throughput_tokens_per_second{{tenant=\"{label}\"}} {}\n",
                s.throughput
            ));
            out.push_str(&format!(
                "muxtune_tenant_progressed_tokens{{tenant=\"{label}\"}} {}\n",
                s.progressed_tokens
            ));
            out.push_str(&format!(
                "muxtune_tenant_slo_attainment{{tenant=\"{label}\"}} {}\n",
                slo_attainment(s.slo_met, s.slo_violated)
            ));
        }
        // Per-tenant completion-time quantiles from mergeable sketches
        // (bounded memory at any job count; answers within the sketch's
        // relative-error bound). JCT is submit→finish, queue wait is
        // submit→dispatch; only completed jobs contribute.
        let mut jct_sketches: BTreeMap<&str, mux_obs::QuantileSketch> = BTreeMap::new();
        let mut wait_sketches: BTreeMap<&str, mux_obs::QuantileSketch> = BTreeMap::new();
        for j in self.jobs.values() {
            if j.state != JobState::Completed {
                continue;
            }
            jct_sketches
                .entry(j.spec.tenant.as_str())
                .or_default()
                .insert(j.finished_at - j.submitted_at);
            if j.started_at.is_finite() {
                wait_sketches
                    .entry(j.spec.tenant.as_str())
                    .or_default()
                    .insert(j.started_at - j.submitted_at);
            }
        }
        out.push_str("# TYPE muxtune_tenant_jct_seconds gauge\n");
        out.push_str("# TYPE muxtune_tenant_queue_wait_seconds gauge\n");
        for (family, sketches) in [
            ("muxtune_tenant_jct_seconds", &jct_sketches),
            ("muxtune_tenant_queue_wait_seconds", &wait_sketches),
        ] {
            for (tenant, sketch) in sketches {
                let label = mux_obs::prom_escape_label(tenant);
                for (q, name) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "{family}{{tenant=\"{label}\",quantile=\"{name}\"}} {}\n",
                        sketch.quantile(q)
                    ));
                }
            }
        }
        out.push_str("# TYPE muxtune_fairness_jain gauge\n");
        out.push_str(&format!(
            "muxtune_fairness_jain{{dimension=\"throughput\"}} {}\n",
            view.jain_throughput
        ));
        out.push_str(&format!(
            "muxtune_fairness_jain{{dimension=\"work\"}} {}\n",
            view.jain_work
        ));
        out.push_str("# TYPE muxtune_capacity_instances gauge\n");
        out.push_str(&format!(
            "muxtune_capacity_instances{{state=\"live\"}} {}\n",
            self.instances.len()
        ));
        out.push_str(&format!(
            "muxtune_capacity_instances{{state=\"headroom\"}} {}\n",
            self.capacity_left()
        ));
        out.push_str("# TYPE muxtune_capacity_headroom_fraction gauge\n");
        out.push_str(&format!(
            "muxtune_capacity_headroom_fraction {}\n",
            view.headroom_fraction
        ));

        // Alert families are always rendered (zeros while quiet or with
        // monitoring off), so dashboards can pin queries on them.
        out.push_str("# TYPE muxtune_alerts_active gauge\n");
        out.push_str("# TYPE muxtune_alerts_fired_total counter\n");
        for (rule, severity, active, fired) in &view.rules {
            let label = mux_obs::prom_escape_label(rule);
            out.push_str(&format!(
                "muxtune_alerts_active{{rule=\"{label}\",severity=\"{}\"}} {active}\n",
                severity.name()
            ));
            out.push_str(&format!(
                "muxtune_alerts_fired_total{{rule=\"{label}\"}} {fired}\n"
            ));
        }

        // Serving families render whenever serving is enabled (zeros
        // before the first request concludes).
        if let Some(s) = &self.serving {
            s.render_prom(&mut out, self.now);
        }

        out.push_str(&mux_obs::render_prom(&view.obs));
        out
    }

    /// Running fault/recovery totals (chaos-harness assertions, reports).
    pub fn fault_stats(&self) -> &FaultStats {
        &self.fault_stats
    }

    fn check_instance(&self, i: usize) -> Result<(), FaultError> {
        if i < self.instances.len() {
            Ok(())
        } else {
            Err(FaultError::NoSuchInstance(i))
        }
    }

    fn check_device(&self, instance: usize, device: usize) -> Result<(), FaultError> {
        if device < self.cfg.gpus_per_instance {
            Ok(())
        } else {
            Err(FaultError::NoSuchDevice { instance, device })
        }
    }

    fn journal_fault(
        &mut self,
        kind: &str,
        instance: usize,
        device: Option<usize>,
        magnitude: f64,
    ) {
        self.journal.push(
            self.tick,
            self.now,
            EventKind::FaultInjected {
                kind: kind.to_string(),
                instance,
                device,
                magnitude,
            },
        );
        *self
            .fault_stats
            .injected
            .entry(kind.to_string())
            .or_insert(0) += 1;
    }

    /// Injects a fault, triggering the matching typed recovery path:
    ///
    /// - [`ServiceFault::DeviceSlowdown`] / [`ServiceFault::LinkDegrade`]:
    ///   the instance's effective rates shrink by the factor until
    ///   [`Self::clear_fault`].
    /// - [`ServiceFault::TransientComm`]: progress freezes; the service
    ///   retries with exponential backoff ([`RetryPolicy`]), journaling a
    ///   [`EventKind::RecoverRetry`] per attempt, and resumes when the
    ///   comm layer recovers.
    /// - [`ServiceFault::DeviceLoss`]: progress is checkpointed
    ///   ([`EventKind::RecoverRestart`] per hosted job) and the instance
    ///   re-plans onto its surviving devices via the degraded-plan path
    ///   ([`EventKind::RecoverReplan`]); with no survivors — or when the
    ///   degraded plan is infeasible — the lowest-priority tenants shed
    ///   ([`EventKind::RecoverShed`]) so co-tenants keep running.
    ///
    /// Invalid injections return a typed [`FaultError`] and leave the
    /// service (and its journal) untouched.
    pub fn inject_fault(&mut self, fault: ServiceFault) -> Result<(), FaultError> {
        match fault {
            ServiceFault::DeviceSlowdown {
                instance,
                device,
                factor,
            } => {
                self.check_instance(instance)?;
                self.check_device(instance, device)?;
                if !(factor.is_finite() && factor > 1.0) {
                    return Err(FaultError::BadFactor(factor));
                }
                self.journal_fault("device_slowdown", instance, Some(device), factor);
                self.materialize(instance);
                self.instances[instance].slow_factors.insert(device, factor);
                self.reprice(instance);
            }
            ServiceFault::LinkDegrade { instance, factor } => {
                self.check_instance(instance)?;
                if !(factor.is_finite() && factor > 1.0) {
                    return Err(FaultError::BadFactor(factor));
                }
                self.journal_fault("link_degrade", instance, None, factor);
                self.materialize(instance);
                let inst = &mut self.instances[instance];
                inst.link_factor = inst.link_factor.max(factor);
                self.reprice(instance);
            }
            ServiceFault::TransientComm { instance, failures } => {
                self.check_instance(instance)?;
                if failures == 0 {
                    return Err(FaultError::ZeroFailures);
                }
                self.journal_fault("comm_transient", instance, None, f64::from(failures));
                self.materialize(instance);
                let inst = &mut self.instances[instance];
                inst.outage_token += 1;
                let token = inst.outage_token;
                inst.outage = Some(OutageState {
                    attempt: 0,
                    failures,
                    token,
                });
                self.reprice(instance); // rates drop to 0 until resume
                let backoff = self.cfg.retry.backoff(1);
                self.schedule(self.now + backoff, Timed::Retry { instance, token });
            }
            ServiceFault::DeviceLoss { instance, device } => {
                self.check_instance(instance)?;
                self.check_device(instance, device)?;
                if self.instances[instance].lost_devices.contains(&device) {
                    return Err(FaultError::DeviceAlreadyLost { instance, device });
                }
                self.journal_fault("device_loss", instance, Some(device), 0.0);
                // Checkpoint: bank every hosted job's progress at its last
                // completed step before the topology changes.
                self.materialize(instance);
                self.instances[instance].lost_devices.insert(device);
                let survivors =
                    self.cfg.gpus_per_instance - self.instances[instance].lost_devices.len();
                let hosted: Vec<JobId> = self.instances[instance]
                    .job_of_task
                    .values()
                    .copied()
                    .collect();
                for jid in &hosted {
                    let banked = self.jobs[jid].progressed_tokens;
                    self.journal.push(
                        self.tick,
                        self.now,
                        EventKind::RecoverRestart {
                            job: jid.0,
                            instance,
                            checkpoint_tokens: banked,
                        },
                    );
                    *self
                        .fault_stats
                        .recoveries
                        .entry("restart".into())
                        .or_insert(0) += 1;
                }
                let layers = self.instances[instance].registry.backbone().num_layers;
                match degraded_plan(self.cfg.plan, survivors, layers) {
                    Some(plan) => {
                        let inst = &mut self.instances[instance];
                        inst.plan_override = Some(plan);
                        inst.cluster_override = Some(Cluster::single_node(
                            self.cfg.gpu.clone(),
                            plan.num_gpus(),
                            self.cfg.link.clone(),
                        ));
                        self.replan(instance);
                        let epoch = self.instances[instance].epoch;
                        self.journal.push(
                            self.tick,
                            self.now,
                            EventKind::RecoverReplan {
                                instance,
                                devices_left: survivors,
                                epoch,
                            },
                        );
                        *self
                            .fault_stats
                            .recoveries
                            .entry("replan".into())
                            .or_insert(0) += 1;
                    }
                    None => {
                        let tasks: Vec<TaskId> = self.instances[instance]
                            .job_of_task
                            .keys()
                            .copied()
                            .collect();
                        for t in tasks {
                            self.shed(instance, t, "no surviving devices on instance".into(), true);
                        }
                        self.replan(instance);
                    }
                }
                self.dispatch_queued();
            }
        }
        Ok(())
    }

    /// Clears live slowdown / link-degradation faults on `instance`,
    /// restoring its fault-free rates. Transient comm faults clear
    /// themselves via the retry path; device loss is permanent.
    pub fn clear_fault(&mut self, instance: usize) -> Result<(), FaultError> {
        self.check_instance(instance)?;
        self.materialize(instance);
        let inst = &mut self.instances[instance];
        let had_slow = !inst.slow_factors.is_empty();
        let had_link = inst.link_factor > 1.0;
        inst.slow_factors.clear();
        inst.link_factor = 1.0;
        if had_slow {
            self.journal.push(
                self.tick,
                self.now,
                EventKind::FaultCleared {
                    kind: "device_slowdown".into(),
                    instance,
                },
            );
        }
        if had_link {
            self.journal.push(
                self.tick,
                self.now,
                EventKind::FaultCleared {
                    kind: "link_degrade".into(),
                    instance,
                },
            );
        }
        if had_slow || had_link {
            self.reprice(instance);
        }
        Ok(())
    }

    /// Tenant job churn: cancels a queued or running job, rejecting it
    /// with `reason`; co-tenants re-plan and keep running. Returns whether
    /// anything was cancelled (completed/rejected/unknown jobs are no-ops).
    pub fn cancel(&mut self, id: JobId, reason: &str) -> bool {
        match self.jobs.get(&id).map(|j| j.state) {
            Some(JobState::Queued) => {
                self.queue.retain(|&q| q != id);
                self.reject(id, format!("cancelled: {reason}"));
                true
            }
            Some(JobState::Running { instance }) => {
                let tid = self.instances[instance]
                    .job_of_task
                    .iter()
                    .find(|&(_, &jid)| jid == id)
                    .map(|(&t, _)| t);
                match tid {
                    Some(tid) => {
                        self.materialize(instance);
                        self.shed(instance, tid, format!("cancelled: {reason}"), false);
                        self.replan(instance);
                        self.dispatch_queued();
                        true
                    }
                    None => false,
                }
            }
            _ => false,
        }
    }

    /// Runs until every job is completed or rejected, or no pending
    /// event remains (replan sheds zero-rate jobs, so a live running set
    /// always has one). Returns the final time.
    pub fn run_to_completion(&mut self) -> f64 {
        while self
            .jobs
            .values()
            .any(|j| matches!(j.state, JobState::Queued | JobState::Running { .. }))
        {
            let Some(at) = self.next_event_at() else {
                // Nothing is running: retry dispatch once for any queued
                // stragglers, then stop rather than spin forever.
                self.dispatch_queued();
                if self.next_event_at().is_none() {
                    break;
                }
                continue;
            };
            self.advance_to(at);
        }
        self.now
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_data::corpus::DatasetKind;

    fn service(gpus: usize) -> FineTuneService {
        let mut cfg = ServiceConfig::a40_pool(gpus);
        cfg.backbone_layers = Some(8); // keep the planner fast in tests
        FineTuneService::new(cfg)
    }

    fn spec(tokens: u64) -> JobSpec {
        JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, 4, tokens)
    }

    #[test]
    fn same_backbone_jobs_share_one_instance() {
        let mut svc = service(16);
        let a = svc.submit(spec(100_000));
        let b = svc.submit(spec(100_000));
        assert_eq!(
            svc.instance_count(),
            1,
            "second job joins the in-flight instance"
        );
        assert_eq!(svc.instance_load(0), 2);
        assert!(matches!(
            svc.job(a).unwrap().state,
            JobState::Running { instance: 0 }
        ));
        assert!(matches!(
            svc.job(b).unwrap().state,
            JobState::Running { instance: 0 }
        ));
    }

    #[test]
    fn different_backbones_get_separate_instances() {
        let mut svc = service(16);
        svc.submit(spec(100_000));
        svc.submit(JobSpec::lora("GPT3-2.7B", DatasetKind::Sst2, 8, 4, 100_000));
        assert_eq!(
            svc.instance_count(),
            2,
            "backbone homogeneity is required for sharing"
        );
    }

    #[test]
    fn unknown_backbone_is_rejected() {
        let mut svc = service(8);
        let id = svc.submit(JobSpec::lora("GPT-5", DatasetKind::Sst2, 8, 4, 1000));
        assert_eq!(svc.job(id).unwrap().state, JobState::Rejected);
    }

    #[test]
    fn jobs_complete_and_unblock_the_queue() {
        let mut svc = service(4); // one instance only
        let mut cfg_ids = Vec::new();
        // Fill the instance to capacity, then one more queues.
        for _ in 0..8 {
            cfg_ids.push(svc.submit(spec(50_000)));
        }
        let overflow = svc.submit(spec(50_000));
        assert_eq!(svc.job(overflow).unwrap().state, JobState::Queued);
        let end = svc.run_to_completion();
        assert!(end > 0.0);
        for id in cfg_ids.into_iter().chain([overflow]) {
            let j = svc.job(id).unwrap();
            assert_eq!(j.state, JobState::Completed, "job {id:?}");
            assert!(j.jct().unwrap() > 0.0);
        }
    }

    #[test]
    fn smaller_jobs_finish_first_under_colocation() {
        let mut svc = service(4);
        let small = svc.submit(spec(20_000));
        let large = svc.submit(spec(200_000));
        svc.run_to_completion();
        let (s, l) = (svc.job(small).unwrap(), svc.job(large).unwrap());
        assert!(
            s.finished_at < l.finished_at,
            "{} vs {}",
            s.finished_at,
            l.finished_at
        );
    }

    #[test]
    fn dedicated_policy_never_shares() {
        let mut cfg = ServiceConfig::a40_pool(16);
        cfg.backbone_layers = Some(8);
        cfg.dispatch = DispatchPolicy::DedicatedInstances;
        let mut svc = FineTuneService::new(cfg);
        svc.submit(spec(10_000));
        svc.submit(spec(10_000));
        assert_eq!(svc.instance_count(), 2);
        assert_eq!(svc.instance_load(0), 1);
    }

    #[test]
    fn service_report_surfaces_devices_and_stalls() {
        let mut svc = service(4);
        svc.submit(spec(100_000));
        svc.submit(spec(100_000));
        let rep = svc.service_report();
        let inst = &rep["instances"][0];
        assert_eq!(inst["tasks"].as_u64(), Some(2));
        let devices = inst["devices"].as_array().expect("per-device metrics");
        assert_eq!(devices.len(), 4);
        for d in devices {
            let busy = d["busy_fraction"].as_f64().expect("busy fraction");
            assert!(busy > 0.0 && busy <= 1.0, "busy {busy}");
        }
        let stalls = inst["attribution"].as_array().expect("stall attribution");
        assert_eq!(stalls.len(), 4);
    }

    #[test]
    fn service_report_attributes_stalls_and_tracks_slos() {
        let mut svc = service(4);
        let relaxed = svc.submit(spec(100_000).with_slo(1e9));
        let tight = svc.submit(spec(100_000).with_slo(1e-3));
        let rep = svc.service_report();
        let inst = &rep["instances"][0];

        // 5-class attribution conserves busy + stalls == window per device.
        let attribution = inst["attribution"].as_array().expect("attribution");
        assert_eq!(attribution.len(), 4);
        for d in attribution {
            let window = d["window_seconds"].as_f64().unwrap();
            let accounted = d["busy_seconds"].as_f64().unwrap()
                + d["pipeline_bubble_seconds"].as_f64().unwrap()
                + d["comm_wait_seconds"].as_f64().unwrap()
                + d["dependency_wait_seconds"].as_f64().unwrap()
                + d["alignment_imbalance_seconds"].as_f64().unwrap()
                + d["fault_recovery_seconds"].as_f64().unwrap();
            assert!(
                (accounted - window).abs() <= 1e-9 * window.max(1.0),
                "device {}: accounted {accounted} vs window {window}",
                d["device"]
            );
        }

        // Critical path spans exactly the instance makespan.
        let cp = &inst["critical_path"];
        let makespan = inst["makespan_seconds"].as_f64().unwrap();
        let cp_len = cp["length_seconds"].as_f64().unwrap();
        assert!(
            (cp_len - makespan).abs() <= 1e-9 * makespan.max(1.0),
            "critical path {cp_len} vs makespan {makespan}"
        );
        assert!(!cp["segments"].as_array().unwrap().is_empty());

        // Instance stall share is a sane fraction.
        let share = inst["stall_share"].as_f64().unwrap();
        assert!((0.0..=1.0).contains(&share), "stall share {share}");

        // Per-job accounting: both jobs progress, only the tight SLO is
        // (predicted to be) violated.
        for j in rep["jobs"].as_array().unwrap() {
            assert!(j["throughput_tokens_per_second"].as_f64().unwrap() > 0.0);
            assert!(j["eta_seconds"].as_f64().unwrap() > 0.0);
            let share = j["stall_share"].as_f64().unwrap();
            assert!((0.0..=1.0).contains(&share));
            let id = j["id"].as_u64().unwrap();
            let violated = j["slo_violated"].as_bool().unwrap();
            assert_eq!(violated, id == tight.0, "job {id}");
        }
        assert_ne!(relaxed, tight);
    }

    #[test]
    fn snapshot_prom_is_well_formed_exposition() {
        let mut svc = service(4);
        svc.submit(spec(100_000).with_slo(3600.0));
        svc.submit(spec(100_000));
        let text = svc.snapshot_prom();
        assert!(text.contains("muxtune_job_progress_tokens{job=\"1\",backbone=\"LLaMA2-7B\"}"));
        assert!(text.contains(
            "muxtune_job_throughput_tokens_per_second{job=\"2\",backbone=\"LLaMA2-7B\"}"
        ));
        assert!(text.contains("muxtune_job_slo_violated{job=\"1\"}"));
        // Alert families render (zeros) even with monitoring off.
        assert!(text.contains("muxtune_alerts_active{rule=\"slo_burn\",severity=\"critical\"} 0"));
        assert!(text.contains("muxtune_alerts_fired_total{rule=\"throughput_drop\"} 0"));
        // Job 2 has no SLO, so no verdict series for it.
        assert!(!text.contains("muxtune_job_slo_violated{job=\"2\"}"));
        assert!(text.contains("muxtune_instance_makespan_seconds{instance=\"0\"}"));
        for class in [
            "pipeline_bubble",
            "comm_wait",
            "dependency_wait",
            "alignment_imbalance",
            "fault_recovery",
        ] {
            assert!(
                text.contains(&format!(
                    "muxtune_instance_stall_seconds{{instance=\"0\",class=\"{class}\"}}"
                )),
                "missing class {class}"
            );
        }
        // Every non-comment line is `name[{labels}] value`.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty(), "{line:?}");
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line:?}");
        }
    }

    #[test]
    fn tenant_quantile_families_survive_hostile_tenant_names() {
        // The new per-tenant JCT/queue-wait families interpolate tenant
        // names into label values; hostile names (quotes, newlines,
        // backslashes, UTF-8, leading digits) must escape into valid
        // single-line exposition, extending the PR-4 hostile-input tests.
        let hostile = [
            "team\"quote",
            "line\nbreak",
            "back\\slash",
            "团队-λ",
            "7digits",
        ];
        let mut svc = service(8);
        for tenant in hostile {
            svc.submit(spec(10_000).with_tenant(tenant));
        }
        svc.run_to_completion();
        let text = svc.snapshot_prom();
        for tenant in hostile {
            let label = mux_obs::prom_escape_label(tenant);
            for q in ["0.5", "0.95", "0.99"] {
                assert!(
                    text.contains(&format!(
                        "muxtune_tenant_jct_seconds{{tenant=\"{label}\",quantile=\"{q}\"}}"
                    )),
                    "missing jct quantile {q} for {tenant:?}"
                );
                assert!(
                    text.contains(&format!(
                        "muxtune_tenant_queue_wait_seconds{{tenant=\"{label}\",quantile=\"{q}\"}}"
                    )),
                    "missing queue-wait quantile {q} for {tenant:?}"
                );
            }
        }
        // Escaping kept the exposition line-oriented and parseable:
        // every non-comment line is `name{labels} value` with a numeric
        // value, and no label value leaked a raw quote or newline.
        for line in text
            .lines()
            .filter(|l| !l.starts_with('#') && !l.is_empty())
        {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty(), "{line:?}");
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line:?}");
        }
        assert!(
            !text.contains("tenant=\"line\nbreak\""),
            "raw newline tenant must always render escaped"
        );
        assert!(
            text.contains("tenant=\"line\\nbreak\""),
            "escaped newline form must be what renders"
        );
    }

    #[test]
    fn invalid_specs_are_rejected_at_submit_with_reasons() {
        let mut svc = service(8);
        let zero_mb = svc.submit(JobSpec::lora("LLaMA2-7B", DatasetKind::Sst2, 16, 0, 1000));
        let zero_tok = svc.submit(JobSpec::lora("LLaMA2-7B", DatasetKind::Sst2, 16, 4, 0));
        let empty_corpus = svc.submit(spec(1000).with_sequence_lengths(vec![0, 0, 0]));
        for id in [zero_mb, zero_tok, empty_corpus] {
            let j = svc.job(id).unwrap();
            assert_eq!(j.state, JobState::Rejected, "job {id:?}");
            assert!(j.reject_reason.is_some(), "job {id:?} carries a reason");
        }
        assert_eq!(svc.instance_count(), 0, "nothing was dispatched");
        svc.advance(1.0); // no panic on an empty service
    }

    /// Regression: a NaN, infinite, zero or negative SLO used to be
    /// admitted; its `submit` line read `"slo_seconds":null` (a NaN or
    /// infinity has no JSON form), the look of a best-effort job, while
    /// `slo_burn` fired for it within a few ticks.
    #[test]
    fn non_finite_and_non_positive_slos_are_rejected_at_submit() {
        for slo in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 0.0, -5.0] {
            let mut svc = service(4);
            svc.enable_monitoring(MonitorConfig::default());
            let id = svc.submit(spec(1_000_000).with_slo(slo));
            let j = svc.job(id).unwrap();
            assert_eq!(j.state, JobState::Rejected, "slo {slo}");
            assert_eq!(
                j.reject_reason.as_deref(),
                Some("SLO must be a finite number of seconds above 0"),
                "slo {slo}"
            );
            let kinds: Vec<&str> = svc
                .journal()
                .events()
                .iter()
                .map(|e| e.kind.name())
                .collect();
            assert_eq!(kinds, ["submit", "reject"], "slo {slo}");
            svc.advance(1.0);
            assert!(
                svc.alerts().is_empty(),
                "slo {slo}: no alert for a rejected job"
            );
            assert_eq!(svc.instance_count(), 0, "slo {slo}: nothing was dispatched");
        }
    }

    #[test]
    fn oversize_sequences_are_truncated_to_the_dataset_cap() {
        let mut svc = service(4);
        // OpenBookQA caps at 256; these rows would be unpackable untruncated.
        let id = svc.submit(spec(20_000).with_sequence_lengths(vec![10_000, 300, 64, 0, 128]));
        assert!(matches!(
            svc.job(id).unwrap().state,
            JobState::Running { .. }
        ));
        svc.run_to_completion();
        assert_eq!(svc.job(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn infeasible_job_is_shed_with_a_reason_while_cotenants_complete() {
        let mut svc = service(4);
        let a = svc.submit(spec(50_000));
        let b = svc.submit(spec(50_000));
        // A single task whose corpus is so large no fusion fits it in A40
        // memory (its per-micro-batch activations alone overflow the
        // card): the planner errors, and the service must shed exactly
        // this job.
        let hog = svc.submit(
            JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, 4, 50_000)
                .with_sequence_lengths(vec![256; 2000]),
        );
        let j = svc.job(hog).unwrap();
        assert_eq!(j.state, JobState::Rejected, "infeasible job is rejected");
        let reason = j.reject_reason.as_deref().expect("carries the plan error");
        assert!(
            reason.contains("infeasible") || reason.contains("memory") || reason.contains("oom"),
            "reason names the cause: {reason:?}"
        );
        let rep = svc.service_report();
        let rejected = rep["jobs"]
            .as_array()
            .unwrap()
            .iter()
            .find(|v| v["id"].as_u64() == Some(hog.0))
            .unwrap();
        assert!(rejected["reject_reason"].as_str().is_some());
        // Co-tenants were unaffected and run to completion.
        svc.run_to_completion();
        for id in [a, b] {
            assert_eq!(svc.job(id).unwrap().state, JobState::Completed);
        }
    }

    /// Regression (rate-split bug): the divisor used to be
    /// `total.max(1.0)`, so a membership whose combined content summed
    /// below one token had every rate silently deflated — the shares no
    /// longer summed to the instance throughput.
    #[test]
    fn split_throughput_conserves_rate_for_sub_token_totals() {
        let raw: BTreeMap<TaskId, f64> = [(1, 0.3), (2, 0.2)].into_iter().collect();
        let rates = FineTuneService::split_throughput(1000.0, &raw);
        let sum: f64 = rates.values().sum();
        assert!(
            (sum - 1000.0).abs() < 1e-9,
            "shares must sum to the effective throughput, got {sum}"
        );
        assert!((rates[&1] - 600.0).abs() < 1e-9, "rate {}", rates[&1]);
        assert!((rates[&2] - 400.0).abs() < 1e-9, "rate {}", rates[&2]);
    }

    /// A zero-content membership yields all-zero rates, never NaN; the
    /// replan loop then sheds those tasks as degenerate.
    #[test]
    fn split_throughput_zero_total_yields_zeros_not_nan() {
        let raw: BTreeMap<TaskId, f64> = [(1, 0.0), (2, 0.0)].into_iter().collect();
        let rates = FineTuneService::split_throughput(1000.0, &raw);
        for (&t, &r) in &rates {
            assert_eq!(r, 0.0, "task {t} rate must be exactly zero, got {r}");
        }
    }

    /// Regression (epoch bug): the shed-retry loop used to bump
    /// `inst.epoch` at the top of every iteration, so a replan that shed
    /// k tasks burned k+1 epochs. The epoch must advance exactly once
    /// per *concluded* replan, shed retries included.
    #[test]
    fn epoch_advances_exactly_once_per_successful_replan() {
        let mut svc = service(4);
        svc.submit(spec(50_000));
        assert_eq!(svc.instances[0].epoch, 1, "first replan");
        svc.submit(spec(50_000));
        assert_eq!(svc.instances[0].epoch, 2, "second replan");
        // An infeasible arrival forces one shed inside the replan loop;
        // the retry that then succeeds must still cost a single epoch.
        svc.submit(
            JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, 4, 50_000)
                .with_sequence_lengths(vec![256; 2000]),
        );
        assert_eq!(
            svc.instances[0].epoch, 3,
            "a replan that sheds k tasks must burn one epoch, not k+1"
        );
    }

    /// Tentpole no-op pin: forcing a replan with unchanged membership
    /// under [`ReplanMode::Incremental`] is a pure cache hit — zero
    /// fusion ranges are built and the DP is not re-run.
    #[test]
    fn incremental_noop_replan_builds_zero_ranges() {
        let mut cfg = ServiceConfig::a40_pool(4);
        cfg.backbone_layers = Some(8);
        cfg.replan_mode = ReplanMode::Incremental;
        let mut svc = FineTuneService::new(cfg);
        svc.submit(spec(50_000));
        svc.submit(spec(50_000));
        let warm = svc.planner_stats(0);
        assert!(warm.ranges_built > 0, "warm-up built the tables");
        assert!(svc.force_replan(0), "instance 0 exists");
        let after = svc.planner_stats(0);
        assert_eq!(
            after.ranges_built, warm.ranges_built,
            "no-op replan must build zero ranges"
        );
        assert_eq!(after.noop_plans, warm.noop_plans + 1);
        // The cached rates are still live and the jobs still complete.
        svc.run_to_completion();
    }

    /// Incremental and estimate modes price identically: same journal,
    /// same rates, same completion times.
    #[test]
    fn incremental_mode_matches_estimate_mode_end_to_end() {
        let run = |mode: ReplanMode| {
            let mut cfg = ServiceConfig::a40_pool(4);
            cfg.backbone_layers = Some(8);
            cfg.replan_mode = mode;
            let mut svc = FineTuneService::new(cfg);
            let a = svc.submit(spec(20_000));
            let b = svc.submit(spec(60_000));
            svc.run_to_completion();
            svc.seal_journal();
            (
                svc.journal().events().len(),
                svc.job(a).unwrap().finished_at,
                svc.job(b).unwrap().finished_at,
            )
        };
        let est = run(ReplanMode::Estimate);
        let inc = run(ReplanMode::Incremental);
        assert_eq!(est, inc, "estimate vs incremental diverged");
    }

    /// Under both cost-model modes a read traces the plan the replan
    /// priced (the DP's, in the configured launch mode), not the plan a
    /// Simulate-mode selection would pick.
    #[test]
    fn a_read_runs_the_plan_the_estimate_priced() {
        for mode in [ReplanMode::Incremental, ReplanMode::Estimate] {
            let mut cfg = ServiceConfig::a40_pool(4);
            cfg.backbone_layers = Some(8);
            cfg.replan_mode = mode;
            let mut svc = FineTuneService::new(cfg);
            svc.submit(spec(1 << 40));
            svc.submit(spec(1 << 40));
            let report = svc.service_report();
            let (inst, cluster) = (&svc.instances[0], &svc.cluster);
            let cfg = PlannerConfig::muxtune(svc.cfg.plan, svc.cfg.micro_batches);
            let (_, priced) = plan_estimate(&inst.registry, cluster, &inst.corpora, &cfg)
                .expect("the membership places");
            let traced = inst.plan.as_ref().expect("the replan kept its plan");
            let partition = |p: &Plan| -> Vec<Vec<TaskId>> {
                p.fusion.htasks.iter().map(|h| h.tasks.clone()).collect()
            };
            assert_eq!(partition(traced), partition(&priced), "{mode:?}");
            assert_eq!(traced.grouping.buckets, priced.grouping.buckets, "{mode:?}");
            let (once, _) = priced
                .run_traced(&inst.registry, cluster)
                .expect("the DP plan fits");
            assert_eq!(
                report["instances"][0]["effective_throughput"].as_f64(),
                Some(once.effective_throughput),
                "{mode:?}"
            );
        }
    }

    #[test]
    fn journal_records_lifecycle_and_seals_verifiably() {
        let mut svc = service(4);
        let ok = svc.submit(spec(20_000));
        let bad = svc.submit(JobSpec::lora("LLaMA2-7B", DatasetKind::Sst2, 16, 0, 1000));
        svc.run_to_completion();
        svc.seal_journal();
        let kinds: Vec<&str> = svc
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(kinds.contains(&"submit"));
        assert!(kinds.contains(&"dispatch"));
        assert!(kinds.contains(&"replan"));
        assert!(kinds.contains(&"reject"));
        assert!(kinds.contains(&"complete"));
        assert_eq!(kinds.last(), Some(&"final"));
        // Replay reproduces the live state, and the sealed journal
        // verifies after a JSONL round trip.
        let replayed = svc.journal().verify().expect("sealed journal verifies");
        let live = svc.state_fingerprint();
        assert_eq!(replayed.jobs, live.jobs);
        assert_eq!(replayed.jobs[&ok.0], "completed");
        assert_eq!(replayed.jobs[&bad.0], "rejected");
        let text = svc.journal().to_jsonl();
        let back = crate::journal::Journal::from_jsonl(&text).expect("parse");
        assert!(back.verify().is_ok());
    }

    #[test]
    fn monitoring_fires_slo_burn_on_a_hopeless_slo_and_stays_quiet_otherwise() {
        let mut svc = service(4);
        svc.enable_monitoring(MonitorConfig::default());
        // A job that cannot possibly finish within its SLO burns budget
        // from the first tick; a best-effort co-tenant never alerts.
        let doomed = svc.submit(spec(10_000_000).with_slo(0.5));
        let easy = svc.submit(spec(10_000_000));
        let dt = 0.05;
        let mut fired_tick = None;
        for _ in 0..12 {
            svc.tick(dt);
            if svc.alerts().iter().any(|a| a.rule == "slo_burn") {
                fired_tick = Some(svc.current_tick());
                break;
            }
        }
        let fired_tick = fired_tick.expect("slo_burn fires on a hopeless SLO");
        // Within 2 fast windows of the first possible evaluation.
        assert!(fired_tick <= 10, "fired at tick {fired_tick}");
        let alert = svc
            .alerts()
            .into_iter()
            .find(|a| a.rule == "slo_burn")
            .unwrap()
            .clone();
        assert_eq!(alert.job, doomed.0);
        assert_ne!(alert.job, easy.0);
        // The alert surfaces in the report and the exposition.
        let rep = svc.service_report();
        assert!(rep["alerts"]["fired_total"]["slo_burn"].as_u64().unwrap() >= 1);
        assert!(
            rep["alerts"]["active_by_severity"]["critical"]
                .as_u64()
                .unwrap()
                >= 1
        );
        let active = rep["alerts"]["active"].as_array().unwrap();
        assert!(active.iter().any(|a| {
            a["rule"].as_str() == Some("slo_burn") && a["job"].as_u64() == Some(doomed.0)
        }));
        let prom = svc.snapshot_prom();
        assert!(prom.contains("muxtune_alerts_active{rule=\"slo_burn\",severity=\"critical\"} 1"));
        // The journal carries the fire event.
        assert!(svc
            .journal()
            .events()
            .iter()
            .any(|e| e.kind.name() == "alert_fired"));
    }

    #[test]
    fn monitoring_stays_quiet_on_steady_state() {
        let mut svc = service(4);
        svc.enable_monitoring(MonitorConfig::default());
        svc.submit(spec(10_000_000));
        svc.submit(spec(10_000_000));
        for _ in 0..30 {
            svc.tick(0.05);
        }
        assert!(svc.alerts().is_empty(), "steady state must not alert");
        let rep = svc.service_report();
        for (rule, _) in online::rules() {
            assert_eq!(
                rep["alerts"]["fired_total"][rule.as_str()].as_u64(),
                Some(0),
                "rule {rule} fired on steady state"
            );
        }
    }

    #[test]
    fn monitoring_fires_throughput_drop_on_cotenant_storm() {
        let mut svc = service(4);
        svc.enable_monitoring(MonitorConfig::default());
        let victim = svc.submit(spec(50_000_000));
        // Let the detector baseline on the solo rate.
        for _ in 0..10 {
            svc.tick(0.05);
        }
        // Storm: a burst of co-tenants joins the instance, so the replan
        // splits effective throughput and the victim's rate collapses.
        for _ in 0..6 {
            svc.submit(spec(50_000_000));
        }
        let mut fired_tick = None;
        for _ in 0..10 {
            svc.tick(0.05);
            if svc
                .alerts()
                .iter()
                .any(|a| a.rule == "throughput_drop" && a.job == victim.0)
            {
                fired_tick = Some(svc.current_tick());
                break;
            }
        }
        let fired_tick = fired_tick.expect("throughput_drop fires on the victim");
        assert!(fired_tick <= 12, "fired at tick {fired_tick}");
    }

    #[test]
    fn device_slowdown_stretches_jct_and_clear_restores() {
        let baseline = {
            let mut svc = service(4);
            let id = svc.submit(spec(50_000));
            svc.run_to_completion();
            svc.job(id).unwrap().jct().unwrap()
        };
        // Straggler at 2x from t=0: the whole pipeline runs at its pace.
        let mut svc = service(4);
        let id = svc.submit(spec(50_000));
        svc.inject_fault(ServiceFault::DeviceSlowdown {
            instance: 0,
            device: 1,
            factor: 2.0,
        })
        .expect("valid fault");
        svc.run_to_completion();
        let slowed = svc.job(id).unwrap().jct().unwrap();
        assert!(
            (slowed - 2.0 * baseline).abs() < 1e-6 * baseline,
            "straggler doubles JCT: {slowed} vs {baseline}"
        );
        // Injecting and clearing before any time passes leaves JCT intact.
        let mut svc = service(4);
        let id = svc.submit(spec(50_000));
        svc.inject_fault(ServiceFault::DeviceSlowdown {
            instance: 0,
            device: 0,
            factor: 8.0,
        })
        .expect("valid fault");
        svc.clear_fault(0).expect("clear");
        svc.run_to_completion();
        let cleared = svc.job(id).unwrap().jct().unwrap();
        assert!(
            (cleared - baseline).abs() < 1e-9 * baseline.max(1.0),
            "cleared fault restores the fault-free JCT: {cleared} vs {baseline}"
        );
        let kinds: Vec<&str> = svc
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert!(kinds.contains(&"fault_injected"));
        assert!(kinds.contains(&"fault_cleared"));
    }

    #[test]
    fn transient_comm_fault_retries_with_backoff_and_recovers() {
        let baseline = {
            let mut svc = service(4);
            let id = svc.submit(spec(50_000));
            svc.run_to_completion();
            svc.job(id).unwrap().jct().unwrap()
        };
        let mut svc = service(4);
        let retry = svc.cfg.retry;
        let id = svc.submit(spec(50_000));
        svc.inject_fault(ServiceFault::TransientComm {
            instance: 0,
            failures: 3,
        })
        .expect("valid fault");
        svc.run_to_completion();
        let j = svc.job(id).unwrap();
        assert_eq!(j.state, JobState::Completed, "job survives the outage");
        // The outage lasts exactly the backoff schedule: 1st + 2nd + 3rd.
        let outage: f64 = (1..=3).map(|k| retry.backoff(k)).sum();
        let jct = j.jct().unwrap();
        assert!(
            (jct - (baseline + outage)).abs() < 1e-6,
            "JCT is baseline plus the backoff schedule: {jct} vs {} + {outage}",
            baseline
        );
        // Journal: one retry per attempt, each within the cap, then clear.
        let mut attempts = Vec::new();
        for ev in svc.journal().events() {
            if let EventKind::RecoverRetry {
                attempt,
                backoff_seconds,
                ..
            } = &ev.kind
            {
                assert!(
                    *backoff_seconds <= retry.max_backoff + 1e-12,
                    "backoff never exceeds its cap"
                );
                attempts.push(*attempt);
            }
        }
        assert_eq!(attempts, vec![1, 2, 3]);
        assert!(svc.journal().events().iter().any(
            |e| matches!(&e.kind, EventKind::FaultCleared { kind, .. } if kind == "comm_transient")
        ));
        assert_eq!(svc.fault_stats().recoveries.get("retry"), Some(&3));
    }

    #[test]
    fn an_event_due_exactly_now_fires_and_the_clock_stays() {
        let mut cfg = ServiceConfig::a40_pool(4);
        cfg.backbone_layers = Some(8);
        cfg.retry = RetryPolicy {
            base_backoff: 0.0,
            max_backoff: 0.0,
        };
        let mut svc = FineTuneService::new(cfg);
        svc.submit(spec(50_000));
        svc.advance(0.5);
        svc.inject_fault(ServiceFault::TransientComm {
            instance: 0,
            failures: 1,
        })
        .expect("valid fault");
        // The zero backoff schedules the retry at `now` itself.
        assert_eq!(svc.next_event_at(), Some(0.5));
        svc.advance_to(0.5);
        assert_eq!(svc.now(), 0.5);
        let kinds: Vec<&str> = svc
            .journal()
            .events()
            .iter()
            .map(|e| e.kind.name())
            .collect();
        assert_eq!(kinds[kinds.len() - 2..], ["recover_retry", "fault_cleared"]);
        assert!(svc.journal().events().iter().all(|e| e.now <= 0.5));
        assert!(svc.next_event_at().is_some_and(|at| at > 0.5));
    }

    #[test]
    fn non_finite_or_past_targets_leave_the_clock_alone() {
        let mut svc = service(4);
        let id = svc.submit(spec(50_000));
        svc.advance(1.0);
        let events = svc.journal().events().len();
        svc.advance(f64::INFINITY);
        svc.advance(f64::NAN);
        svc.advance(-1.0);
        svc.advance_to(f64::INFINITY);
        svc.advance_to(f64::NEG_INFINITY);
        svc.advance_to(f64::NAN);
        svc.advance_to(0.5);
        assert_eq!(svc.now(), 1.0);
        assert_eq!(svc.journal().events().len(), events, "nothing fired");
        svc.run_to_completion();
        assert!(svc.now().is_finite());
        assert_eq!(svc.job(id).unwrap().state, JobState::Completed);
    }

    #[test]
    fn retry_backoff_doubles_up_to_the_cap() {
        let p = RetryPolicy {
            base_backoff: 0.1,
            max_backoff: 0.5,
        };
        assert_eq!(p.backoff(1), 0.1);
        assert_eq!(p.backoff(2), 0.2);
        assert_eq!(p.backoff(3), 0.4);
        assert_eq!(p.backoff(4), 0.5, "capped");
        assert_eq!(p.backoff(40), 0.5, "stays capped");
    }

    #[test]
    fn device_loss_replans_affected_jobs_and_leaves_cotenants_untouched() {
        // Two instances via two backbones: the fault hits instance 0 only.
        let run = |fault: bool| {
            let mut svc = service(8);
            let a = svc.submit(spec(60_000));
            let b = svc.submit(spec(60_000));
            let c = svc.submit(JobSpec::lora("GPT3-2.7B", DatasetKind::Sst2, 8, 4, 60_000));
            svc.advance(5.0);
            if fault {
                svc.inject_fault(ServiceFault::DeviceLoss {
                    instance: 0,
                    device: 3,
                })
                .expect("valid fault");
            }
            svc.run_to_completion();
            (svc, a, b, c)
        };
        let (healthy, _, _, c0) = run(false);
        let (faulty, a, b, c) = run(true);
        // Affected jobs recover: checkpoint/restart, degraded replan, and
        // completion on the 3 surviving GPUs.
        for id in [a, b] {
            assert_eq!(faulty.job(id).unwrap().state, JobState::Completed);
        }
        let restarts: Vec<f64> = faulty
            .journal()
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RecoverRestart {
                    checkpoint_tokens, ..
                } => Some(*checkpoint_tokens),
                _ => None,
            })
            .collect();
        assert_eq!(restarts.len(), 2, "both hosted jobs checkpoint");
        for t in &restarts {
            assert!(*t > 0.0, "checkpoint preserves pre-fault progress");
        }
        assert!(faulty.journal().events().iter().any(|e| matches!(
            &e.kind,
            EventKind::RecoverReplan {
                instance: 0,
                devices_left: 3,
                ..
            }
        )));
        // The degraded instance is slower: affected JCTs grow.
        assert!(
            faulty.job(a).unwrap().jct().unwrap() > healthy.job(a).unwrap().jct().unwrap(),
            "3-GPU degraded plan is slower than the healthy 4-GPU plan"
        );
        // The unaffected co-tenant's completion time is bit-identical.
        assert_eq!(
            faulty.job(c).unwrap().finished_at,
            healthy.job(c0).unwrap().finished_at,
            "co-tenant on the untouched instance is unaffected"
        );
        assert_eq!(faulty.fault_stats().injected.get("device_loss"), Some(&1));
        assert_eq!(faulty.fault_stats().recoveries.get("replan"), Some(&1));
    }

    #[test]
    fn permanently_starved_backbone_is_rejected_not_queued_forever() {
        // One instance slot, taken by a LLaMA pool. Instances are never
        // torn down, so a GPT3 job can never be hosted: reject it at
        // dispatch instead of starving it in the queue.
        let mut svc = service(4);
        let keep = svc.submit(spec(50_000));
        let starved = svc.submit(JobSpec::lora("GPT3-2.7B", DatasetKind::Sst2, 8, 4, 50_000));
        let j = svc.job(starved).unwrap();
        assert_eq!(j.state, JobState::Rejected);
        assert!(j.reject_reason.as_deref().unwrap().contains("no capacity"));
        svc.run_to_completion();
        assert_eq!(svc.job(keep).unwrap().state, JobState::Completed);
    }

    #[test]
    fn cancelled_job_is_rejected_and_cotenants_keep_running() {
        let mut svc = service(4);
        let keep = svc.submit(spec(50_000));
        let churn = svc.submit(spec(50_000));
        svc.advance(2.0);
        assert!(svc.cancel(churn, "tenant gave up"));
        let j = svc.job(churn).unwrap();
        assert_eq!(j.state, JobState::Rejected);
        assert!(j.reject_reason.as_deref().unwrap().contains("cancelled"));
        // Cancelling again (or cancelling a completed job) is a no-op.
        assert!(!svc.cancel(churn, "again"));
        svc.run_to_completion();
        assert_eq!(svc.job(keep).unwrap().state, JobState::Completed);
        assert!(!svc.cancel(keep, "too late"));
        assert!(svc
            .journal()
            .events()
            .iter()
            .any(|e| matches!(&e.kind, EventKind::Shed { job, .. } if *job == churn.0)));
    }

    #[test]
    fn invalid_fault_injections_are_typed_errors_and_leave_no_trace() {
        let mut svc = service(4);
        svc.submit(spec(50_000));
        let before = svc.journal().len();
        assert_eq!(
            svc.inject_fault(ServiceFault::DeviceSlowdown {
                instance: 9,
                device: 0,
                factor: 2.0
            }),
            Err(FaultError::NoSuchInstance(9))
        );
        assert_eq!(
            svc.inject_fault(ServiceFault::DeviceLoss {
                instance: 0,
                device: 64
            }),
            Err(FaultError::NoSuchDevice {
                instance: 0,
                device: 64
            })
        );
        assert_eq!(
            svc.inject_fault(ServiceFault::LinkDegrade {
                instance: 0,
                factor: 0.5
            }),
            Err(FaultError::BadFactor(0.5))
        );
        assert_eq!(
            svc.inject_fault(ServiceFault::TransientComm {
                instance: 0,
                failures: 0
            }),
            Err(FaultError::ZeroFailures)
        );
        assert_eq!(
            svc.journal().len(),
            before,
            "failed injections journal nothing"
        );
        // Losing the same device twice is refused (loss is permanent).
        svc.inject_fault(ServiceFault::DeviceLoss {
            instance: 0,
            device: 2,
        })
        .expect("first loss");
        assert_eq!(
            svc.inject_fault(ServiceFault::DeviceLoss {
                instance: 0,
                device: 2
            }),
            Err(FaultError::DeviceAlreadyLost {
                instance: 0,
                device: 2
            })
        );
    }

    #[test]
    fn report_faults_section_has_stable_keys_and_live_counts() {
        let mut svc = service(4);
        svc.submit(spec(50_000));
        let quiet = svc.service_report();
        for kind in [
            "device_slowdown",
            "link_degrade",
            "comm_transient",
            "device_loss",
        ] {
            assert_eq!(quiet["faults"]["injected_total"][kind].as_u64(), Some(0));
        }
        for action in ["retry", "restart", "replan", "shed"] {
            assert_eq!(
                quiet["faults"]["recoveries_total"][action].as_u64(),
                Some(0)
            );
        }
        svc.inject_fault(ServiceFault::LinkDegrade {
            instance: 0,
            factor: 3.0,
        })
        .expect("valid fault");
        svc.inject_fault(ServiceFault::DeviceLoss {
            instance: 0,
            device: 0,
        })
        .expect("valid fault");
        let rep = svc.service_report();
        assert_eq!(
            rep["faults"]["injected_total"]["link_degrade"].as_u64(),
            Some(1)
        );
        assert_eq!(
            rep["faults"]["injected_total"]["device_loss"].as_u64(),
            Some(1)
        );
        assert_eq!(
            rep["faults"]["recoveries_total"]["restart"].as_u64(),
            Some(1)
        );
        assert_eq!(
            rep["faults"]["recoveries_total"]["replan"].as_u64(),
            Some(1)
        );
        let inst = &rep["faults"]["instances"][0];
        assert_eq!(inst["link_factor"].as_f64(), Some(3.0));
        assert_eq!(inst["lost_devices"][0].as_u64(), Some(0));
        assert_eq!(inst["in_outage"].as_bool(), Some(false));
        // The instance re-planned onto its 3 surviving devices: every
        // per-device array has 3 rows, with no phantom for the lost one.
        let row = &rep["instances"][0];
        for key in ["devices", "attribution"] {
            assert_eq!(row[key].as_array().map(Vec::len), Some(3), "{key}");
        }
    }

    #[test]
    fn a_device_loss_never_plans_more_stages_than_the_backbone_has_layers() {
        // tp2×pp2 over a 2-layer backbone: losing one of 4 GPUs leaves 3
        // survivors, but 2 layers split into at most 2 stages.
        let mut cfg = ServiceConfig::a40_pool(4);
        cfg.backbone_layers = Some(2);
        cfg.plan = HybridParallelism {
            tp: 2,
            pp: 2,
            dp: 1,
        };
        let mut svc = FineTuneService::new(cfg);
        let job = svc.submit(spec(100_000));
        svc.inject_fault(ServiceFault::DeviceLoss {
            instance: 0,
            device: 3,
        })
        .expect("valid fault");
        assert_eq!(
            svc.instances[0].plan_override,
            Some(HybridParallelism::pipeline(2))
        );
        assert!(matches!(
            svc.job(job).unwrap().state,
            JobState::Running { instance: 0 }
        ));
        assert!(svc.journal().events().iter().any(|e| matches!(
            e.kind,
            EventKind::RecoverReplan {
                instance: 0,
                devices_left: 3,
                ..
            }
        )));
    }

    #[test]
    fn a_backbone_shallower_than_the_pipeline_is_rejected_at_admission() {
        // pp4 over a 2-layer backbone: no split gives every stage a layer.
        for mode in [
            ReplanMode::Simulate,
            ReplanMode::Estimate,
            ReplanMode::Incremental,
        ] {
            let mut cfg = ServiceConfig::a40_pool(16);
            cfg.backbone_layers = Some(2);
            cfg.replan_mode = mode;
            let mut svc = FineTuneService::new(cfg);
            let id = svc.submit(spec(100_000));
            let job = svc.job(id).unwrap();
            assert_eq!(job.state, JobState::Rejected, "{mode:?}");
            let reason = job.reject_reason.as_deref().expect("carries a reason");
            assert!(
                reason.contains("2 layers") && reason.contains("4 pipeline stages"),
                "{mode:?}: {reason:?}"
            );
            assert_eq!(svc.instance_count(), 0, "{mode:?}");
            svc.run_to_completion();
            svc.seal_journal();
            let replayed = svc.journal().verify().expect("sealed journal verifies");
            assert_eq!(replayed.jobs[&id.0], "rejected", "{mode:?}");
        }
    }

    #[test]
    fn multiplexing_beats_dedicated_on_makespan_per_gpu() {
        // 4 jobs on a 4-GPU pool: sharing co-locates all; dedicated can
        // only run one at a time (queueing), so sharing finishes sooner.
        let run = |dispatch: DispatchPolicy| {
            let mut cfg = ServiceConfig::a40_pool(4);
            cfg.backbone_layers = Some(8);
            cfg.dispatch = dispatch;
            let mut svc = FineTuneService::new(cfg);
            for _ in 0..4 {
                svc.submit(spec(50_000));
            }
            svc.run_to_completion()
        };
        let shared = run(DispatchPolicy::SameBackboneFirst);
        let dedicated = run(DispatchPolicy::DedicatedInstances);
        assert!(
            shared < dedicated,
            "shared {shared} vs dedicated {dedicated}"
        );
    }
}
