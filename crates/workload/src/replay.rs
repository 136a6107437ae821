//! Policy-driven trace replay: feed a generated [`Trace`] through
//! [`FineTuneService`] end to end, holding arrivals in an external
//! pending queue and letting a [`SchedulingPolicy`] choose what the
//! service sees next.
//!
//! The replayer is event-driven: it sorts trace arrivals, cancellations
//! and scheduled chaos faults into one time-ordered input list once, and
//! interleaves it with the service's own completion/retry events (via
//! `next_event_at` and `advance_to`), so a 10⁴-job replay never polls in
//! fixed steps. A job is submitted only when it would
//! dispatch immediately (a same-backbone slot or pool headroom exists) —
//! *that* is what gives the policy authority over ordering — with one
//! exception: a job whose backbone can never be hosted again is submitted
//! anyway so the service records its permanent rejection in the journal
//! (conservation: every trace job ends in exactly one terminal bucket).

use std::collections::{BTreeMap, BTreeSet};

use mux_api::{
    DecisionCandidate, EventKind, FineTuneService, JobId, JobSpec, JobState, Journal, PendingJob,
    ReplanMode, SchedulingPolicy, ServiceConfig, TenantUsage, DECISION_CANDIDATE_CAP,
};
use mux_chaos::{apply_action, ChaosAction, FaultPlan};
use mux_obs::QuantileSketch;
use mux_obs_analysis::{jain_index, slo_attainment};
use serde_json::{Map, Value};

use crate::trace::{dataset_by_name, Trace, TraceJob};

/// Admission control applied before a job reaches the service.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// Everything is admitted; SLOs are best-effort.
    BestEffort,
    /// Certainly-hopeless jobs — those that could not meet their SLO even
    /// running alone at the configured peak rate — are refused up front.
    /// Everything else is admitted, so attainment over *admitted* jobs
    /// can only improve on best-effort.
    SloFeasible,
}

/// Replay configuration.
#[derive(Debug, Clone)]
pub struct ReplayOptions {
    /// GPUs in the service pool.
    pub gpus_total: usize,
    /// Layer truncation for cheap planning (mirrors the chaos harness).
    pub backbone_layers: Option<usize>,
    /// Admission mode.
    pub admission: Admission,
    /// Optimistic single-job peak throughput, tokens/second, backing the
    /// [`Admission::SloFeasible`] hopelessness test. Set high: only jobs
    /// hopeless even under this optimism are refused.
    pub peak_tokens_per_second: f64,
    /// Re-pricing mode for the service. Defaults to the cost-model fast
    /// path on a warm per-instance planner ([`ReplanMode::Incremental`]),
    /// which rebuilds only the fusion ranges a membership change
    /// invalidated — the simulator-validated mode is ~100× slower per
    /// change, prohibitive at 10⁴–10⁵ jobs. [`ReplanMode::Estimate`] runs
    /// the same planner cold on every replan; it prices bit for bit the
    /// same and is kept as the reference the incremental replay is
    /// diffed against.
    pub replan_mode: ReplanMode,
    /// Per-tenant fair-share weights (absent tenants weigh 1.0).
    pub tenant_weights: BTreeMap<String, f64>,
    /// Optional chaos plan injected mid-trace.
    pub fault_plan: Option<FaultPlan>,
    /// Seconds per fault-plan tick (maps `at_tick` onto trace time).
    pub fault_dt: f64,
}

impl Default for ReplayOptions {
    fn default() -> Self {
        Self {
            gpus_total: 16,
            backbone_layers: Some(8),
            admission: Admission::BestEffort,
            peak_tokens_per_second: 500_000.0,
            replan_mode: ReplanMode::Incremental,
            tenant_weights: BTreeMap::new(),
            fault_plan: None,
            fault_dt: 0.25,
        }
    }
}

/// How one trace job ended. Every job lands in exactly **one** bucket.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Outcome {
    /// All requested tokens processed.
    Completed,
    /// Refused — at admission, validation, or pool exhaustion.
    Rejected,
    /// Evicted by the service to restore feasibility.
    Shed,
    /// Cancelled by its tenant (trace churn or chaos churn).
    Cancelled,
}

/// Per-tenant replay aggregates.
#[derive(Debug, Clone, Default)]
pub struct TenantOutcome {
    /// Jobs that processed every requested token.
    pub completed: usize,
    /// Jobs refused (admission, validation, pool exhaustion).
    pub rejected: usize,
    /// Jobs evicted by the service.
    pub shed: usize,
    /// Jobs cancelled by their tenant.
    pub cancelled: usize,
    /// Subset of `rejected` refused by admission control (never reached
    /// the service).
    pub admission_rejected: usize,
    /// Tokens of completed jobs.
    pub completed_tokens: f64,
    /// Sum of completed-job JCTs (mean = `jct_sum / completed`).
    pub jct_sum: f64,
    /// Sum of completed-job queue waits (trace arrival → service
    /// dispatch), for the queue-wait share of total JCT.
    pub queue_wait_sum: f64,
    /// Mergeable quantile sketch over completed-job JCTs (bounded memory
    /// at any job count; see [`QuantileSketch`]).
    pub jct: QuantileSketch,
    /// Mergeable quantile sketch over completed-job queue waits.
    pub queue_wait: QuantileSketch,
    /// Completed jobs whose realized JCT met their SLO.
    pub slo_met: usize,
    /// Completed jobs that blew their SLO.
    pub slo_violated: usize,
}

impl TenantOutcome {
    /// Realized SLO attainment over this tenant's completed SLO jobs.
    pub fn slo_attainment(&self) -> f64 {
        slo_attainment(self.slo_met, self.slo_violated)
    }

    /// Fraction of this tenant's total completed-job time spent queued
    /// (0 when nothing completed).
    pub fn queue_wait_share(&self) -> f64 {
        if self.jct_sum > 0.0 {
            self.queue_wait_sum / self.jct_sum
        } else {
            0.0
        }
    }
}

/// `{p50, p95, p99}` JSON view of a sketch (`Null` when empty).
fn quantiles_json(sketch: &QuantileSketch) -> Value {
    if sketch.is_empty() {
        return Value::Null;
    }
    let mut m = Map::new();
    m.insert("p50".into(), sketch.quantile(0.50).into());
    m.insert("p95".into(), sketch.quantile(0.95).into());
    m.insert("p99".into(), sketch.quantile(0.99).into());
    Value::Object(m)
}

/// The replay's result: terminal buckets, per-tenant fairness, SLO
/// attainment, and the sealed service journal's fingerprint.
#[derive(Debug, Clone)]
pub struct ReplayReport {
    /// Policy that drove the replay.
    pub policy: String,
    /// Seed of the replayed trace.
    pub trace_seed: u64,
    /// Jobs in the trace.
    pub trace_jobs: usize,
    /// Trace jobs that completed (chaos-churn extras excluded).
    pub completed: usize,
    /// Trace jobs refused (includes admission refusals).
    pub rejected: usize,
    /// Trace jobs evicted by the service.
    pub shed: usize,
    /// Trace jobs cancelled by their tenant.
    pub cancelled: usize,
    /// Subset of `rejected` refused before reaching the service.
    pub admission_rejected: usize,
    /// Extra jobs injected by the chaos plan's churn actions.
    pub chaos_jobs: usize,
    /// Chaos actions that landed.
    pub applied_faults: usize,
    /// Per-tenant aggregates.
    pub per_tenant: BTreeMap<String, TenantOutcome>,
    /// Jain index over per-tenant completed tokens.
    pub jain_work: f64,
    /// Jain index over per-tenant completed-job counts.
    pub jain_jobs: f64,
    /// Realized SLO attainment over all completed SLO-carrying jobs.
    pub slo_attainment: f64,
    /// Cluster-wide JCT sketch: the exact bucket-wise merge of every
    /// tenant's [`TenantOutcome::jct`] sketch.
    pub jct: QuantileSketch,
    /// Cluster-wide queue-wait sketch (same merge).
    pub queue_wait: QuantileSketch,
    /// Simulated seconds until the last job terminated.
    pub makespan_seconds: f64,
    /// Fingerprint of the sealed service journal (determinism oracle).
    pub journal_fingerprint: u64,
    /// The sealed journal, JSONL.
    pub journal_jsonl: String,
}

impl ReplayReport {
    /// `completed + rejected + shed + cancelled` — equals `trace_jobs`
    /// when conservation holds (the property tests pin this).
    pub fn terminal_total(&self) -> usize {
        self.completed + self.rejected + self.shed + self.cancelled
    }

    /// JSON view for the CLI (`report --replay-trace`); the journal
    /// itself is elided (only its fingerprint is embedded).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("policy".into(), self.policy.as_str().into());
        m.insert("trace_seed".into(), self.trace_seed.into());
        m.insert("trace_jobs".into(), (self.trace_jobs as u64).into());
        m.insert("completed".into(), (self.completed as u64).into());
        m.insert("rejected".into(), (self.rejected as u64).into());
        m.insert("shed".into(), (self.shed as u64).into());
        m.insert("cancelled".into(), (self.cancelled as u64).into());
        m.insert(
            "admission_rejected".into(),
            (self.admission_rejected as u64).into(),
        );
        m.insert("chaos_jobs".into(), (self.chaos_jobs as u64).into());
        m.insert("applied_faults".into(), (self.applied_faults as u64).into());
        let mut tenants = Map::new();
        for (name, t) in &self.per_tenant {
            let mut tm = Map::new();
            tm.insert("completed".into(), (t.completed as u64).into());
            tm.insert("rejected".into(), (t.rejected as u64).into());
            tm.insert("shed".into(), (t.shed as u64).into());
            tm.insert("cancelled".into(), (t.cancelled as u64).into());
            tm.insert(
                "admission_rejected".into(),
                (t.admission_rejected as u64).into(),
            );
            tm.insert("completed_tokens".into(), t.completed_tokens.into());
            tm.insert(
                "mean_jct_seconds".into(),
                if t.completed > 0 {
                    Value::from(t.jct_sum / t.completed as f64)
                } else {
                    Value::Null
                },
            );
            tm.insert("jct_seconds".into(), quantiles_json(&t.jct));
            tm.insert("queue_wait_seconds".into(), quantiles_json(&t.queue_wait));
            tm.insert("queue_wait_share".into(), t.queue_wait_share().into());
            tm.insert("slo_met".into(), (t.slo_met as u64).into());
            tm.insert("slo_violated".into(), (t.slo_violated as u64).into());
            tm.insert("slo_attainment".into(), t.slo_attainment().into());
            tenants.insert(name.clone(), Value::Object(tm));
        }
        m.insert("per_tenant".into(), Value::Object(tenants));
        m.insert("jct_seconds".into(), quantiles_json(&self.jct));
        m.insert(
            "queue_wait_seconds".into(),
            quantiles_json(&self.queue_wait),
        );
        m.insert("jain_work".into(), self.jain_work.into());
        m.insert("jain_jobs".into(), self.jain_jobs.into());
        m.insert("slo_attainment".into(), self.slo_attainment.into());
        m.insert("makespan_seconds".into(), self.makespan_seconds.into());
        m.insert(
            "journal_fingerprint".into(),
            format!("{:016x}", self.journal_fingerprint).into(),
        );
        Value::Object(m)
    }
}

/// Replays `trace` under `policy`. Returns `Err` only on malformed traces
/// (unknown dataset, lost jobs); operational failures (rejections, sheds)
/// are data, not errors.
pub fn replay_trace(
    trace: &Trace,
    policy: &dyn SchedulingPolicy,
    opts: &ReplayOptions,
) -> Result<ReplayReport, String> {
    trace.check_well_formed()?;
    let mut r = Replayer::new(trace, policy, opts)?;
    r.run()?;
    r.into_report()
}

/// Convenience: replay under a built-in policy by name.
pub fn replay_trace_by_name(
    trace: &Trace,
    policy: &str,
    opts: &ReplayOptions,
) -> Result<ReplayReport, String> {
    let p = mux_api::policy_by_name(policy).ok_or_else(|| {
        format!(
            "unknown policy {policy:?} (expected one of {:?})",
            mux_api::POLICY_NAMES
        )
    })?;
    replay_trace(trace, p.as_ref(), opts)
}

/// One timed replay input (see [`Replayer::inputs`]).
enum Input<'a> {
    /// A trace job arrives in the policy's pending queue.
    Arrive(&'a TraceJob),
    /// The tenant cancels the trace job with this id.
    Cancel(u64),
    /// A chaos fault-plan action lands.
    Fault(&'a ChaosAction),
}

/// The candidate snapshot captured at one policy pick (see
/// [`Replayer::dispatch_provenance`]).
struct DispatchProvenance {
    considered: usize,
    candidates: Vec<DecisionCandidate>,
}

struct Replayer<'a> {
    trace: &'a Trace,
    policy: &'a dyn SchedulingPolicy,
    opts: &'a ReplayOptions,
    svc: FineTuneService,
    /// Pre-built service specs, indexed by trace id.
    specs: Vec<JobSpec>,
    pending: Vec<PendingJob>,
    usage: TenantUsage,
    /// In-flight (submitted, non-terminal) jobs and their tenants.
    live: Vec<(JobId, String)>,
    /// Service handle → trace id (chaos churn jobs never enter).
    trace_of: BTreeMap<JobId, u64>,
    /// Trace id → service handle, once submitted.
    id_of_trace: BTreeMap<u64, JobId>,
    /// Churn ledger shared with [`apply_action`]: every submitted handle,
    /// trace and chaos alike, in submission order.
    submitted: Vec<JobId>,
    admission_rejected: BTreeSet<u64>,
    cancelled_pre_dispatch: BTreeSet<u64>,
    applied_faults: usize,
}

impl<'a> Replayer<'a> {
    fn new(
        trace: &'a Trace,
        policy: &'a dyn SchedulingPolicy,
        opts: &'a ReplayOptions,
    ) -> Result<Self, String> {
        let mut svc_cfg = ServiceConfig::a40_pool(opts.gpus_total);
        svc_cfg.backbone_layers = opts.backbone_layers;
        svc_cfg.replan_mode = opts.replan_mode;
        let svc = FineTuneService::new(svc_cfg);
        let specs = trace
            .jobs
            .iter()
            .map(|job| {
                let dataset = dataset_by_name(&job.dataset)
                    .ok_or_else(|| format!("job {}: unknown dataset {:?}", job.id, job.dataset))?;
                let mut spec = JobSpec::lora(&job.backbone, dataset, 16, 4, job.total_tokens)
                    .with_priority(job.priority)
                    .with_tenant(&job.tenant);
                if let Some(slo) = job.slo_seconds {
                    spec = spec.with_slo(slo);
                }
                Ok(spec)
            })
            .collect::<Result<Vec<_>, String>>()?;
        let usage = TenantUsage {
            total_slots: svc.slot_capacity(),
            weights: opts.tenant_weights.clone(),
            ..TenantUsage::default()
        };
        Ok(Self {
            trace,
            policy,
            opts,
            svc,
            specs,
            pending: Vec::new(),
            usage,
            live: Vec::new(),
            trace_of: BTreeMap::new(),
            id_of_trace: BTreeMap::new(),
            submitted: Vec::new(),
            admission_rejected: BTreeSet::new(),
            cancelled_pre_dispatch: BTreeSet::new(),
            applied_faults: 0,
        })
    }

    /// Drives the whole replay: arrivals, cancels, faults, drain, seal.
    fn run(&mut self) -> Result<(), String> {
        // A lazy owned span name: per-policy phases can't be `&'static str`,
        // and the closure never runs while collection is off.
        let _span = mux_obs::span_with(|| format!("replay.run.{}", self.policy.name()));
        let inputs = self.inputs();
        let mut next = 0usize;
        loop {
            let due = inputs.get(next).map(|&(t, _)| t);
            if let Some(at) = self
                .svc
                .next_event_at()
                .filter(|&at| due.is_none_or(|t| at <= t))
            {
                // A service event comes first: fire it, then refill freed
                // slots under the policy's ordering instead of idling
                // until the next input.
                self.svc.advance_to(at);
            } else if let Some(t) = due {
                self.svc.advance_to(t);
                while let Some((_, input)) =
                    inputs.get(next).filter(|(at, _)| at.total_cmp(&t).is_eq())
                {
                    match input {
                        Input::Arrive(job) => self.pending.push(PendingJob {
                            trace_id: job.id,
                            tenant: job.tenant.clone(),
                            backbone: job.backbone.clone(),
                            arrival: job.arrival_seconds,
                            priority: job.priority,
                            total_tokens: job.total_tokens,
                            slo_seconds: job.slo_seconds,
                        }),
                        &Input::Cancel(trace_id) => {
                            if let Some(pos) =
                                self.pending.iter().position(|p| p.trace_id == trace_id)
                            {
                                self.pending.remove(pos);
                                self.cancelled_pre_dispatch.insert(trace_id);
                            } else if let Some(&jid) = self.id_of_trace.get(&trace_id) {
                                self.svc.cancel(jid, "trace churn");
                            }
                        }
                        Input::Fault(action) => {
                            self.applied_faults +=
                                apply_action(&mut self.svc, &mut self.submitted, action) as usize;
                        }
                    }
                    next += 1;
                }
                mux_obs::profile::work("replay_timeline_steps", 1);
            } else if let Some(i) = self.policy.pick(&self.pending, &self.usage) {
                // Nothing scheduled yet jobs wait: submit the policy's
                // head unconditionally so the service records a terminal
                // verdict instead of the replay spinning.
                let prov = self.dispatch_provenance();
                let pj = self.pending.remove(i);
                self.submit(&pj, prov)?;
            } else {
                break;
            }
            self.reap_terminal();
            self.submit_ready()?;
        }
        self.svc.run_to_completion();
        self.reap_terminal();
        self.svc.seal_journal();
        Ok(())
    }

    /// The trace's arrivals, cancels and chaos faults as one list in
    /// firing order: by time, then arrival < cancel < fault, then each
    /// stream's own order. An input timed before its stream's previous
    /// one fires with that one, as a merge of the three streams would.
    fn inputs(&self) -> Vec<(f64, Input<'a>)> {
        let (trace, opts) = (self.trace, self.opts);
        let mut cancels: Vec<(f64, u64)> = trace
            .jobs
            .iter()
            .filter_map(|j| j.cancel_at.map(|c| (c, j.id)))
            .collect();
        cancels.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.cmp(&b.1)));
        let streams: [Vec<(f64, Input<'a>)>; 3] = [
            trace
                .jobs
                .iter()
                .map(|j| (j.arrival_seconds, Input::Arrive(j)))
                .collect(),
            cancels
                .into_iter()
                .map(|(t, id)| (t, Input::Cancel(id)))
                .collect(),
            opts.fault_plan
                .iter()
                .flat_map(|p| &p.events)
                .map(|ev| (ev.at_tick as f64 * opts.fault_dt, Input::Fault(&ev.action)))
                .collect(),
        ];
        let mut inputs = Vec::new();
        for stream in streams {
            let mut last = f64::NEG_INFINITY;
            inputs.extend(stream.into_iter().map(|(t, input)| {
                last = last.max(t);
                (last, input)
            }));
        }
        // Stable, so equal times keep the streams' concatenation order.
        inputs.sort_by(|a, b| a.0.total_cmp(&b.0));
        inputs
    }

    /// Moves every policy-picked job that can dispatch right now (or can
    /// never be hosted) from `pending` into the service. Head-of-line
    /// blocking: when the picked job must wait for capacity, nothing
    /// behind it jumps the queue — ordering stays with the policy.
    fn submit_ready(&mut self) -> Result<(), String> {
        loop {
            if self.pending.is_empty() {
                return Ok(());
            }
            let Some(i) = self.policy.pick(&self.pending, &self.usage) else {
                return Ok(());
            };
            let pj = &self.pending[i];
            if self.opts.admission == Admission::SloFeasible {
                if let Some(slo) = pj.slo_seconds {
                    if slo < pj.total_tokens as f64 / self.opts.peak_tokens_per_second {
                        let pj = self.pending.remove(i);
                        self.admission_rejected.insert(pj.trace_id);
                        continue;
                    }
                }
            }
            if self.svc.dispatches_now(&pj.backbone) || !self.svc.can_host(&pj.backbone) {
                let prov = self.dispatch_provenance();
                let pj = self.pending.remove(i);
                self.submit(&pj, prov)?;
            } else {
                return Ok(());
            }
        }
    }

    /// Snapshot of the scoring the policy just performed over `pending`:
    /// every candidate's score, sorted winner-first by the policy's own
    /// total order and capped for the journal. Recorded next to the
    /// resulting `Dispatch` so `--explain-job` can show who the job beat
    /// (and, on losing appearances, who beat it).
    fn dispatch_provenance(&self) -> DispatchProvenance {
        let mut candidates: Vec<DecisionCandidate> = self
            .pending
            .iter()
            .map(|p| DecisionCandidate {
                id: p.trace_id,
                tenant: p.tenant.clone(),
                score: self.policy.score(p, &self.usage),
                priority: p.priority,
                arrival: p.arrival,
            })
            .collect();
        candidates.sort_by(|a, b| {
            a.score
                .total_cmp(&b.score)
                .then_with(|| a.arrival.total_cmp(&b.arrival))
                .then_with(|| a.id.cmp(&b.id))
        });
        let considered = candidates.len();
        candidates.truncate(DECISION_CANDIDATE_CAP);
        DispatchProvenance {
            considered,
            candidates,
        }
    }

    fn submit(&mut self, pj: &PendingJob, prov: DispatchProvenance) -> Result<(), String> {
        let spec = self
            .specs
            .get(pj.trace_id as usize)
            .ok_or_else(|| format!("trace id {} out of range", pj.trace_id))?
            .clone();
        let jid = self.svc.submit(spec);
        self.svc.record_decision(
            self.policy.name(),
            "dispatch",
            self.policy.score_kind(),
            pj.trace_id,
            Some(jid.0),
            None,
            prov.considered,
            prov.candidates,
        );
        self.trace_of.insert(jid, pj.trace_id);
        self.id_of_trace.insert(pj.trace_id, jid);
        self.submitted.push(jid);
        *self
            .usage
            .running_slots
            .entry(pj.tenant.clone())
            .or_insert(0) += 1;
        *self
            .usage
            .dispatched_tokens
            .entry(pj.tenant.clone())
            .or_insert(0) += pj.total_tokens;
        self.usage.total_tokens += pj.total_tokens;
        self.live.push((jid, pj.tenant.clone()));
        self.reap_terminal(); // instant rejects free their slot at once
        Ok(())
    }

    /// Decrements the slot ledger for jobs that reached a terminal state.
    fn reap_terminal(&mut self) {
        let svc = &self.svc;
        let usage = &mut self.usage;
        self.live.retain(|(jid, tenant)| {
            let terminal = matches!(
                svc.job(*jid).map(|j| j.state),
                Some(JobState::Completed) | Some(JobState::Rejected) | None
            );
            if terminal {
                if let Some(n) = usage.running_slots.get_mut(tenant) {
                    *n = n.saturating_sub(1);
                }
            }
            !terminal
        });
    }

    /// Classifies every trace job and assembles the report.
    fn into_report(self) -> Result<ReplayReport, String> {
        let mut shed_jobs: BTreeSet<u64> = BTreeSet::new();
        for ev in self.svc.journal().events() {
            if let EventKind::Shed { job, .. } = &ev.kind {
                shed_jobs.insert(*job);
            }
        }
        let mut per_tenant: BTreeMap<String, TenantOutcome> = BTreeMap::new();
        for name in &self.trace.tenants {
            per_tenant.entry(name.clone()).or_default();
        }
        let mut totals = [0usize; 4]; // completed, rejected, shed, cancelled
        let (mut slo_met, mut slo_violated) = (0usize, 0usize);
        for job in &self.trace.jobs {
            let tenant = per_tenant.entry(job.tenant.clone()).or_default();
            let outcome = if self.admission_rejected.contains(&job.id) {
                tenant.admission_rejected += 1;
                Outcome::Rejected
            } else if self.cancelled_pre_dispatch.contains(&job.id) {
                Outcome::Cancelled
            } else {
                let jid = self
                    .id_of_trace
                    .get(&job.id)
                    .ok_or_else(|| format!("trace job {} was never submitted", job.id))?;
                let svc_job = self
                    .svc
                    .job(*jid)
                    .ok_or_else(|| format!("job {} lost by the service", jid.0))?;
                match svc_job.state {
                    JobState::Completed => {
                        tenant.completed_tokens += job.total_tokens as f64;
                        // Tenant-facing JCT runs from *trace arrival*, not
                        // service submit: time spent queued behind the
                        // policy's head-of-line block counts against the
                        // SLO (the service clock and trace share a
                        // timebase, so the subtraction is well-defined).
                        let jct = (svc_job.finished_at - job.arrival_seconds).max(0.0);
                        tenant.jct_sum += jct;
                        tenant.jct.insert(jct);
                        if svc_job.started_at.is_finite() {
                            let wait = (svc_job.started_at - job.arrival_seconds).max(0.0);
                            tenant.queue_wait_sum += wait;
                            tenant.queue_wait.insert(wait);
                        }
                        if let Some(slo) = job.slo_seconds {
                            if jct <= slo {
                                tenant.slo_met += 1;
                                slo_met += 1;
                            } else {
                                tenant.slo_violated += 1;
                                slo_violated += 1;
                            }
                        }
                        Outcome::Completed
                    }
                    JobState::Rejected => {
                        let reason = svc_job.reject_reason.as_deref().unwrap_or("");
                        if reason.starts_with("cancelled:") {
                            Outcome::Cancelled
                        } else if shed_jobs.contains(&jid.0) {
                            Outcome::Shed
                        } else {
                            Outcome::Rejected
                        }
                    }
                    s => return Err(format!("trace job {} non-terminal: {s:?}", job.id)),
                }
            };
            match outcome {
                Outcome::Completed => {
                    tenant.completed += 1;
                    totals[0] += 1;
                }
                Outcome::Rejected => {
                    tenant.rejected += 1;
                    totals[1] += 1;
                }
                Outcome::Shed => {
                    tenant.shed += 1;
                    totals[2] += 1;
                }
                Outcome::Cancelled => {
                    tenant.cancelled += 1;
                    totals[3] += 1;
                }
            }
        }
        // Cluster-wide quantiles are the exact merge of the per-tenant
        // sketches — the mergeability the sketch exists for.
        let mut jct = QuantileSketch::default();
        let mut queue_wait = QuantileSketch::default();
        for t in per_tenant.values() {
            jct.merge(&t.jct).expect("tenant sketches share one alpha");
            queue_wait
                .merge(&t.queue_wait)
                .expect("tenant sketches share one alpha");
        }
        let journal_jsonl = self.svc.journal().to_jsonl();
        Ok(ReplayReport {
            policy: self.policy.name().to_string(),
            trace_seed: self.trace.seed,
            trace_jobs: self.trace.jobs.len(),
            completed: totals[0],
            rejected: totals[1],
            shed: totals[2],
            cancelled: totals[3],
            admission_rejected: self.admission_rejected.len(),
            chaos_jobs: self.submitted.len() - self.trace_of.len(),
            applied_faults: self.applied_faults,
            jain_work: jain_index(per_tenant.values().map(|t| t.completed_tokens)),
            jain_jobs: jain_index(per_tenant.values().map(|t| t.completed as f64)),
            slo_attainment: slo_attainment(slo_met, slo_violated),
            jct,
            queue_wait,
            per_tenant,
            makespan_seconds: self.svc.now(),
            journal_fingerprint: Journal::fingerprint_of(&journal_jsonl),
            journal_jsonl,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen::{generate, TraceConfig};
    use mux_api::Fcfs;

    #[test]
    fn small_replay_conserves_jobs_and_is_deterministic() {
        let trace = generate(11, &TraceConfig::standard(60));
        let opts = ReplayOptions::default();
        let a = replay_trace(&trace, &Fcfs, &opts).expect("replay");
        assert_eq!(a.terminal_total(), trace.jobs.len(), "conservation");
        assert!(a.completed > 0, "something must complete");
        let b = replay_trace(&trace, &Fcfs, &opts).expect("replay again");
        assert_eq!(a.journal_fingerprint, b.journal_fingerprint);
        assert_eq!(a.journal_jsonl, b.journal_jsonl);
    }

    #[test]
    fn replayed_journal_verifies() {
        let trace = generate(3, &TraceConfig::standard(40));
        let report = replay_trace(&trace, &Fcfs, &ReplayOptions::default()).expect("replay");
        let (fp, _) = mux_chaos::verify_journal(&report.journal_jsonl).expect("verify");
        assert_eq!(fp, report.journal_fingerprint);
    }
}
