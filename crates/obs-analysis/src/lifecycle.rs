//! Per-job causal lifecycle reconstruction from the event journal.
//!
//! [`analyze_journal`] reads a journal's JSONL (any journal — live,
//! merged, golden, chaos) with the shared line reader
//! ([`crate::journal::parse_jsonl`]), folds the typed
//! [`EventKind`]s in journal order, and rebuilds, for every job, the
//! **span tree**
//! of its lifetime: queued → running segments → fault/replan/serving
//! interruptions → terminal. Each job's JCT decomposes into five shares —
//!
//! ```text
//! queue_wait + run + fault_recovery + replan_stall + serving_preemption == jct
//! ```
//!
//! — a **conservation invariant** in the spirit of the device attribution
//! layer's `busy + stalls == window`: the shares are computed by genuine
//! interval-union/complement algebra over the journal's fault windows, so
//! the invariant holding (within float tolerance) certifies the algebra,
//! not a tautology.
//!
//! Alongside the spans, every [`EventKind::Decision`] event is collected as a
//! [`DecisionRecord`]: which candidates a scheduling policy (or the
//! service's shed path) weighed and how they scored. [`explain_job`]
//! joins both into a human-readable account — "dispatched after jobs X,
//! Y because …", "shed because lowest priority among …" — from the
//! journal alone, so the explanation is exactly as replayable and
//! fingerprint-covered as the journal itself.
//!
//! [`lifecycle_chrome_trace`] exports the span trees as a Chrome/Perfetto
//! trace with one **process lane per tenant** and one thread per job,
//! loadable in `chrome://tracing` or <https://ui.perfetto.dev> next to
//! the device timelines of [`timeline_chrome_trace`](crate::timeline_chrome_trace).
//!
//! The journal's line format lives in [`crate::journal`], below the
//! service crate that writes it, so this analysis and the service's
//! replay fold over one enum read by one codec: a line the service could
//! not replay fails the analysis too, instead of defaulting a field.

use std::collections::BTreeMap;

use serde_json::Map;

use crate::journal::{parse_jsonl, DecisionCandidate, EventKind};
use crate::trace::TraceWriter;

/// How a job's journal lifetime ended.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Terminal {
    /// All requested tokens were processed.
    Completed,
    /// Refused or evicted, with the journaled reason.
    Rejected(String),
    /// The journal ends before the job does (unsealed or truncated log);
    /// spans are clamped to the last journaled time.
    Truncated,
}

impl Terminal {
    fn name(&self) -> &'static str {
        match self {
            Terminal::Completed => "completed",
            Terminal::Rejected(_) => "rejected",
            Terminal::Truncated => "truncated",
        }
    }
}

/// One node of a job's span tree.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Span class: `queued`, `running`, `fault_recovery`, `replan_stall`,
    /// `serving_preemption`, or a zero-width marker (`retry`, `restart`,
    /// `shed`).
    pub kind: String,
    /// Start, simulated seconds.
    pub start: f64,
    /// End, simulated seconds (== `start` for markers).
    pub end: f64,
    /// Free-form detail (fault kind, retry attempt, shed reason …).
    pub detail: String,
    /// Interruptions nested inside this span (only `running` has any).
    pub children: Vec<Span>,
}

impl Span {
    fn leaf(kind: &str, start: f64, end: f64, detail: String) -> Self {
        Self {
            kind: kind.to_string(),
            start,
            end,
            detail,
            children: Vec::new(),
        }
    }

    /// The span's duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// A job's JCT split into its five causal shares.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct JctDecomposition {
    /// Submit → end, seconds.
    pub jct: f64,
    /// Submit → dispatch (the whole lifetime if never dispatched).
    pub queue_wait: f64,
    /// Time actually progressing on an instance.
    pub run: f64,
    /// Time inside transient-outage windows on the hosting instance
    /// (rates are zero while the outage lasts).
    pub fault_recovery: f64,
    /// Time between a device loss and the recovery replan on the hosting
    /// instance (zero-width in the discrete-event service, which replans
    /// at the loss instant; kept for engines where replanning takes time).
    pub replan_stall: f64,
    /// Time the hosting instance spent temporally preempted by the
    /// serving runtime (inference requests borrow the backbone; training
    /// rates are zero while the window lasts).
    pub serving_preemption: f64,
}

impl JctDecomposition {
    /// `|queue + run + recovery + replan + serving − jct|` — zero (within
    /// float tolerance) when the interval algebra is correct.
    pub fn conservation_error(&self) -> f64 {
        (self.queue_wait
            + self.run
            + self.fault_recovery
            + self.replan_stall
            + self.serving_preemption
            - self.jct)
            .abs()
    }
}

/// One reconstructed job lifecycle.
#[derive(Debug, Clone, PartialEq)]
pub struct JobLifecycle {
    /// Journal job handle.
    pub job: u64,
    /// Submitting tenant.
    pub tenant: String,
    /// Requested backbone.
    pub backbone: String,
    /// Arrival time, seconds: the journaled submit, pulled back to the
    /// dispatch decision's recorded arrival when the scheduler admitted
    /// the job lazily (trace replays).
    pub submitted_at: f64,
    /// Dispatch time, if the job ever ran.
    pub dispatched_at: Option<f64>,
    /// Hosting instance, if dispatched.
    pub instance: Option<usize>,
    /// How (and whether) the lifetime ended.
    pub terminal: Terminal,
    /// End of the lifetime (terminal event time, or last journal time
    /// when [`Terminal::Truncated`]).
    pub ended_at: f64,
    /// The span tree, in time order.
    pub spans: Vec<Span>,
    /// The JCT decomposition, conserving by construction of the interval
    /// algebra (asserted by tests, not assumed).
    pub decomposition: JctDecomposition,
}

/// One journaled scheduling decision, with its candidate set.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionRecord {
    /// Journal tick.
    pub tick: u64,
    /// Simulated time, seconds.
    pub now: f64,
    /// Deciding policy (`fcfs` / `priority` / … or `service`).
    pub policy: String,
    /// `dispatch` or `shed`.
    pub action: String,
    /// What the scores mean (`arrival_seconds`, `dominant_share`, …).
    pub score_kind: String,
    /// Winning candidate id (in the candidates' id space).
    pub chosen: u64,
    /// Service job handle of the winner, when recorded.
    pub job: Option<u64>,
    /// Instance involved, if any.
    pub instance: Option<usize>,
    /// Total candidates weighed (≥ `candidates.len()`).
    pub considered: usize,
    /// The journaled top candidates, winner first.
    pub candidates: Vec<DecisionCandidate>,
}

/// Everything [`analyze_journal`] reconstructs.
#[derive(Debug, Clone, Default)]
pub struct LifecycleAnalysis {
    /// Job handle → lifecycle, in handle order.
    pub jobs: BTreeMap<u64, JobLifecycle>,
    /// Every journaled decision, in journal order.
    pub decisions: Vec<DecisionRecord>,
    /// Last journaled simulated time.
    pub end_time: f64,
}

// ------------------------------------------------------------------
// Interval algebra. Half-open-agnostic: intervals are (start, end)
// pairs with start <= end; zero-width intervals contribute nothing.
// ------------------------------------------------------------------

/// Sorts and merges overlapping/adjacent intervals into a disjoint union.
fn union(mut iv: Vec<(f64, f64)>) -> Vec<(f64, f64)> {
    iv.retain(|(s, e)| e > s);
    iv.sort_by(|a, b| a.0.total_cmp(&b.0).then_with(|| a.1.total_cmp(&b.1)));
    let mut out: Vec<(f64, f64)> = Vec::new();
    for (s, e) in iv {
        match out.last_mut() {
            Some((_, oe)) if s <= *oe => *oe = oe.max(e),
            _ => out.push((s, e)),
        }
    }
    out
}

/// Clips a disjoint union to `[lo, hi]`.
fn clip(iv: &[(f64, f64)], lo: f64, hi: f64) -> Vec<(f64, f64)> {
    iv.iter()
        .filter_map(|&(s, e)| {
            let (s, e) = (s.max(lo), e.min(hi));
            (e > s).then_some((s, e))
        })
        .collect()
}

/// `base` minus a disjoint union: the complement segments, in order.
fn subtract(base: (f64, f64), cuts: &[(f64, f64)]) -> Vec<(f64, f64)> {
    let mut out = Vec::new();
    let mut cursor = base.0;
    for &(s, e) in clip(cuts, base.0, base.1).iter() {
        if s > cursor {
            out.push((cursor, s));
        }
        cursor = cursor.max(e);
    }
    if base.1 > cursor {
        out.push((cursor, base.1));
    }
    out
}

/// Total length of a disjoint union. (`+ 0.0` because `Sum<f64>`'s empty
/// identity is `-0.0`, which would print as "-0.000".)
fn total(iv: &[(f64, f64)]) -> f64 {
    iv.iter().map(|(s, e)| e - s).sum::<f64>() + 0.0
}

/// Parses a journal's JSONL with the shared line reader
/// ([`parse_jsonl`]) and folds its typed events, in journal order, into
/// every job's span tree, decomposition, and the decision log. A line the
/// reader rejects (invalid JSON, a missing or mistyped field, a sequence
/// gap) fails the whole analysis with the reader's message; unknown event
/// kinds parse as [`EventKind::Opaque`] and have no lifecycle effect, so
/// the analyzer keeps working across schema additions.
pub fn analyze_journal(jsonl: &str) -> Result<LifecycleAnalysis, String> {
    struct JobAcc {
        tenant: String,
        backbone: String,
        submitted_at: f64,
        dispatched_at: Option<f64>,
        instance: Option<usize>,
        terminal: Option<(f64, Terminal)>,
        markers: Vec<Span>,
    }
    let events = parse_jsonl(jsonl)?;
    let mut jobs: BTreeMap<u64, JobAcc> = BTreeMap::new();
    let mut decisions: Vec<DecisionRecord> = Vec::new();
    // Trace replays admit jobs lazily (head-of-line blocking holds them in
    // the scheduler's pending queue), so the journal's submit time can be
    // the dispatch time. The dispatch decision's winning candidate carries
    // the true arrival — remember it per handle and backfill below.
    let mut arrival_hints: BTreeMap<u64, f64> = BTreeMap::new();
    // Per-instance interruption windows: open transient outages resolve
    // at the matching clear; open device losses resolve at the recovery
    // replan. Unclosed windows clamp to the journal's end.
    let mut outages: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let mut open_outage: BTreeMap<usize, f64> = BTreeMap::new();
    let mut replans: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let mut open_replan: BTreeMap<usize, f64> = BTreeMap::new();
    // Serving-preemption windows: the serving runtime borrows the
    // backbone (`serving_preempt`) and returns it (`serving_resume`).
    let mut servings: BTreeMap<usize, Vec<(f64, f64)>> = BTreeMap::new();
    let mut open_serving: BTreeMap<usize, f64> = BTreeMap::new();
    let mut end_time: f64 = 0.0;

    for ev in &events {
        let now = ev.now;
        end_time = end_time.max(now);
        match &ev.kind {
            EventKind::Submit {
                job,
                tenant,
                backbone,
                ..
            } => {
                jobs.insert(
                    *job,
                    JobAcc {
                        tenant: tenant.clone(),
                        backbone: backbone.clone(),
                        submitted_at: now,
                        dispatched_at: None,
                        instance: None,
                        terminal: None,
                        markers: Vec::new(),
                    },
                );
            }
            EventKind::Dispatch { job, instance } => {
                if let Some(acc) = jobs.get_mut(job) {
                    acc.dispatched_at.get_or_insert(now);
                    acc.instance = Some(*instance);
                }
            }
            EventKind::Complete { job } => {
                if let Some(acc) = jobs.get_mut(job) {
                    acc.terminal.get_or_insert((now, Terminal::Completed));
                }
            }
            EventKind::Reject { job, reason } => {
                if let Some(acc) = jobs.get_mut(job) {
                    acc.terminal
                        .get_or_insert_with(|| (now, Terminal::Rejected(reason.clone())));
                }
            }
            EventKind::Shed { job, reason, .. } | EventKind::RecoverShed { job, reason, .. } => {
                if let Some(acc) = jobs.get_mut(job) {
                    acc.markers
                        .push(Span::leaf(ev.kind.name(), now, now, reason.clone()));
                }
            }
            EventKind::RecoverRetry {
                instance,
                attempt,
                backoff_seconds,
            } => {
                // Instance-scoped: attach to every job running there.
                for acc in jobs.values_mut() {
                    if acc.instance == Some(*instance) && acc.terminal.is_none() {
                        acc.markers.push(Span::leaf(
                            "retry",
                            now,
                            now,
                            format!("attempt {attempt}, backoff {backoff_seconds:.3}s"),
                        ));
                    }
                }
            }
            EventKind::RecoverRestart {
                job,
                checkpoint_tokens,
                ..
            } => {
                if let Some(acc) = jobs.get_mut(job) {
                    acc.markers.push(Span::leaf(
                        "restart",
                        now,
                        now,
                        format!("checkpoint at {checkpoint_tokens:.0} tokens"),
                    ));
                }
            }
            EventKind::FaultInjected { kind, instance, .. } => match kind.as_str() {
                "comm_transient" => {
                    open_outage.entry(*instance).or_insert(now);
                }
                "device_loss" => {
                    open_replan.entry(*instance).or_insert(now);
                }
                // Slowdowns and link degradation stretch progress but never
                // zero it; they shift run time, not a separate share.
                _ => {}
            },
            EventKind::FaultCleared { kind, instance } => {
                if kind == "comm_transient" {
                    if let Some(start) = open_outage.remove(instance) {
                        outages.entry(*instance).or_default().push((start, now));
                    }
                }
            }
            EventKind::RecoverReplan { instance, .. } => {
                if let Some(start) = open_replan.remove(instance) {
                    replans.entry(*instance).or_default().push((start, now));
                }
            }
            EventKind::ServingPreempt { instance } => {
                open_serving.entry(*instance).or_insert(now);
            }
            EventKind::ServingResume { instance } => {
                if let Some(start) = open_serving.remove(instance) {
                    servings.entry(*instance).or_default().push((start, now));
                }
            }
            EventKind::Decision {
                policy,
                action,
                score_kind,
                chosen,
                job,
                instance,
                considered,
                candidates,
            } => {
                if action == "dispatch" {
                    if let (Some(handle), Some(winner)) =
                        (job, candidates.iter().find(|c| c.id == *chosen))
                    {
                        arrival_hints.entry(*handle).or_insert(winner.arrival);
                    }
                }
                decisions.push(DecisionRecord {
                    tick: ev.tick,
                    now,
                    policy: policy.clone(),
                    action: action.clone(),
                    score_kind: score_kind.clone(),
                    chosen: *chosen,
                    job: *job,
                    instance: *instance,
                    considered: *considered,
                    candidates: candidates.clone(),
                });
            }
            // Replans, alerts, requests, the final record, and unknown
            // future kinds: no job-lifecycle effect.
            EventKind::Replan { .. }
            | EventKind::AlertFired { .. }
            | EventKind::AlertCleared { .. }
            | EventKind::RequestArrive { .. }
            | EventKind::RequestPrefill { .. }
            | EventKind::RequestComplete { .. }
            | EventKind::RequestReject { .. }
            | EventKind::RequestTimeout { .. }
            | EventKind::Opaque { .. }
            | EventKind::Final { .. } => {}
        }
    }

    // Unclosed interruption windows run to the journal's end.
    for (instance, start) in open_outage {
        outages.entry(instance).or_default().push((start, end_time));
    }
    for (instance, start) in open_replan {
        replans.entry(instance).or_default().push((start, end_time));
    }
    for (instance, start) in open_serving {
        servings
            .entry(instance)
            .or_default()
            .push((start, end_time));
    }
    let outages: BTreeMap<usize, Vec<(f64, f64)>> =
        outages.into_iter().map(|(i, iv)| (i, union(iv))).collect();
    let replans: BTreeMap<usize, Vec<(f64, f64)>> =
        replans.into_iter().map(|(i, iv)| (i, union(iv))).collect();
    let servings: BTreeMap<usize, Vec<(f64, f64)>> =
        servings.into_iter().map(|(i, iv)| (i, union(iv))).collect();

    let mut out_jobs = BTreeMap::new();
    for (job, mut acc) in jobs {
        if let Some(&arrival) = arrival_hints.get(&job) {
            if arrival.is_finite() {
                acc.submitted_at = acc.submitted_at.min(arrival);
            }
        }
        let (ended_at, terminal) = acc
            .terminal
            .clone()
            .unwrap_or((end_time, Terminal::Truncated));
        let jct = (ended_at - acc.submitted_at).max(0.0);
        let run_start = acc.dispatched_at.unwrap_or(ended_at).min(ended_at);
        let queue_wait = run_start - acc.submitted_at;

        // Overlap precedence keeps the shares disjoint (and conservation
        // provable): fault-recovery windows win, serving-preemption next,
        // replan-stall takes whatever remains.
        let empty = Vec::new();
        let inst_outages = acc.instance.and_then(|i| outages.get(&i)).unwrap_or(&empty);
        let inst_replans = acc.instance.and_then(|i| replans.get(&i)).unwrap_or(&empty);
        let inst_servings = acc
            .instance
            .and_then(|i| servings.get(&i))
            .unwrap_or(&empty);
        let recovery_iv = clip(inst_outages, run_start, ended_at);
        let serving_iv: Vec<(f64, f64)> = clip(inst_servings, run_start, ended_at)
            .iter()
            .flat_map(|&w| subtract(w, &recovery_iv))
            .collect();
        let mut higher = recovery_iv.clone();
        higher.extend(serving_iv.iter().copied());
        let higher = union(higher);
        let replan_iv: Vec<(f64, f64)> = clip(inst_replans, run_start, ended_at)
            .iter()
            .flat_map(|&w| subtract(w, &higher))
            .collect();
        let mut cuts = higher;
        cuts.extend(replan_iv.iter().copied());
        let cuts = union(cuts);
        let run_iv = subtract((run_start, ended_at), &cuts);

        let decomposition = JctDecomposition {
            jct,
            queue_wait,
            run: total(&run_iv),
            fault_recovery: total(&recovery_iv),
            replan_stall: total(&replan_iv),
            serving_preemption: total(&serving_iv),
        };

        // Assemble the span tree: queued, then a running span whose
        // children are the interruptions + point markers.
        let mut spans = Vec::new();
        if queue_wait > 0.0 || acc.dispatched_at.is_none() {
            spans.push(Span::leaf(
                "queued",
                acc.submitted_at,
                run_start,
                String::new(),
            ));
        }
        if let Some(d) = acc.dispatched_at {
            let mut children: Vec<Span> = recovery_iv
                .iter()
                .map(|&(s, e)| Span::leaf("fault_recovery", s, e, "transient outage".into()))
                .chain(
                    replan_iv
                        .iter()
                        .map(|&(s, e)| Span::leaf("replan_stall", s, e, "device loss".into())),
                )
                .chain(serving_iv.iter().map(|&(s, e)| {
                    Span::leaf("serving_preemption", s, e, "inference preemption".into())
                }))
                .collect();
            children.extend(acc.markers.iter().cloned());
            children.sort_by(|a, b| {
                a.start
                    .total_cmp(&b.start)
                    .then_with(|| a.end.total_cmp(&b.end))
            });
            spans.push(Span {
                kind: "running".to_string(),
                start: d.min(ended_at),
                end: ended_at,
                detail: acc
                    .instance
                    .map(|i| format!("instance {i}"))
                    .unwrap_or_default(),
                children,
            });
        }
        spans.push(Span::leaf(
            terminal.name(),
            ended_at,
            ended_at,
            match &terminal {
                Terminal::Rejected(reason) => reason.clone(),
                _ => String::new(),
            },
        ));

        out_jobs.insert(
            job,
            JobLifecycle {
                job,
                tenant: acc.tenant,
                backbone: acc.backbone,
                submitted_at: acc.submitted_at,
                dispatched_at: acc.dispatched_at,
                instance: acc.instance,
                terminal,
                ended_at,
                spans,
                decomposition,
            },
        );
    }

    Ok(LifecycleAnalysis {
        jobs: out_jobs,
        decisions,
        end_time,
    })
}

// ------------------------------------------------------------------
// Chrome/Perfetto export.
// ------------------------------------------------------------------

const MICROS: f64 = 1_000_000.0;

/// Exports the span trees as a Chrome trace (JSON object format): one
/// **process per tenant** (named lane in the UI), one thread per job,
/// duration (`X`) events for spans and instant (`i`) events for markers.
/// Deterministic: lanes and events follow `BTreeMap` order.
pub fn lifecycle_chrome_trace(analysis: &LifecycleAnalysis) -> String {
    let mut tenants: BTreeMap<&str, u64> = BTreeMap::new();
    for j in analysis.jobs.values() {
        let next = tenants.len() as u64 + 1;
        tenants.entry(j.tenant.as_str()).or_insert(next);
    }
    let mut w = TraceWriter::new();
    for (tenant, pid) in &tenants {
        w.process_name(*pid, &format!("tenant {tenant}"));
    }
    for j in analysis.jobs.values() {
        // Lane `job + 1`, wrapping: a bijection on u64, so even job
        // u64::MAX gets a lane of its own.
        let lane = (tenants[j.tenant.as_str()], j.job.wrapping_add(1));
        w.thread_name(lane, &format!("job {}", j.job));
        let spans = j
            .spans
            .iter()
            .flat_map(|s| std::iter::once(s).chain(&s.children));
        for span in spans {
            let mut args = Map::new();
            if !span.detail.is_empty() {
                args.insert("detail".into(), span.detail.as_str().into());
            }
            args.insert("job".into(), j.job.into());
            args.insert("tenant".into(), j.tenant.as_str().into());
            let (name, ts) = (span.kind.as_str(), span.start * MICROS);
            if span.end <= span.start {
                w.instant(lane, name, "lifecycle", ts, args);
            } else {
                let dur = (span.end - span.start) * MICROS;
                w.complete(lane, name, "lifecycle", ts, dur, args);
            }
        }
    }
    serde_json::to_string_pretty(&w.finish(None)).expect("serialize")
}

// ------------------------------------------------------------------
// --explain-job rendering.
// ------------------------------------------------------------------

/// Resolves a user-supplied id to a journal job handle. Replay-trace
/// dispatch decisions score **trace ids** but record the resulting
/// service handle in `job`; so when any dispatch decision chose `id`,
/// the bridge wins, otherwise `id` is taken as a journal handle.
pub fn resolve_job_id(analysis: &LifecycleAnalysis, id: u64) -> Option<u64> {
    analysis
        .decisions
        .iter()
        .find(|d| d.action == "dispatch" && d.chosen == id && d.job.is_some())
        .and_then(|d| d.job)
        .or_else(|| analysis.jobs.contains_key(&id).then_some(id))
}

fn pct(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        100.0 * part / whole
    } else {
        0.0
    }
}

/// Renders a deterministic plain-text account of one job's lifetime:
/// the timeline, the JCT decomposition, and the decision provenance
/// (what it beat to dispatch, who beat it while it waited, why it was
/// shed). `id` may be a trace id or a journal handle (see
/// [`resolve_job_id`]). Pure function of the analysis — run-twice
/// bitwise identical, which CI pins with a literal `diff`.
pub fn explain_job(analysis: &LifecycleAnalysis, id: u64) -> Result<String, String> {
    let handle = resolve_job_id(analysis, id)
        .ok_or_else(|| format!("job {id} does not appear in the journal"))?;
    let j = analysis
        .jobs
        .get(&handle)
        .ok_or_else(|| format!("job handle {handle} has no lifecycle"))?;
    let mut out = String::new();
    out.push_str(&format!(
        "job {} (tenant {:?}, backbone {:?})\n",
        j.job, j.tenant, j.backbone
    ));
    if handle != id {
        out.push_str(&format!("  trace id {id} -> journal handle {handle}\n"));
    }

    out.push_str("timeline:\n");
    out.push_str(&format!("  {:>10.3}s  submitted\n", j.submitted_at));
    for span in &j.spans {
        match span.kind.as_str() {
            "queued" => out.push_str(&format!(
                "  {:>10.3}s  queued for {:.3}s\n",
                span.start,
                span.seconds()
            )),
            "running" => {
                out.push_str(&format!(
                    "  {:>10.3}s  dispatched ({})\n",
                    span.start, span.detail
                ));
                for c in &span.children {
                    let detail = if c.detail.is_empty() {
                        String::new()
                    } else {
                        format!(": {}", c.detail)
                    };
                    if c.end > c.start {
                        out.push_str(&format!(
                            "  {:>10.3}s  ├─ {} for {:.3}s{detail}\n",
                            c.start,
                            c.kind,
                            c.seconds()
                        ));
                    } else {
                        out.push_str(&format!("  {:>10.3}s  ├─ {}{detail}\n", c.start, c.kind));
                    }
                }
            }
            _ => {
                let detail = if span.detail.is_empty() {
                    String::new()
                } else {
                    format!(" ({})", span.detail)
                };
                out.push_str(&format!("  {:>10.3}s  {}{detail}\n", span.start, span.kind));
            }
        }
    }

    let d = &j.decomposition;
    out.push_str(&format!(
        "jct {:.3}s = queue {:.3}s ({:.1}%) + run {:.3}s ({:.1}%) + fault-recovery {:.3}s ({:.1}%) + replan-stall {:.3}s ({:.1}%) + serving-preemption {:.3}s ({:.1}%)\n",
        d.jct,
        d.queue_wait,
        pct(d.queue_wait, d.jct),
        d.run,
        pct(d.run, d.jct),
        d.fault_recovery,
        pct(d.fault_recovery, d.jct),
        d.replan_stall,
        pct(d.replan_stall, d.jct),
        d.serving_preemption,
        pct(d.serving_preemption, d.jct),
    ));

    // Provenance: the winning dispatch, lost picks while queued, sheds.
    let job_in_candidates = |dec: &DecisionRecord, target_trace: u64, target_handle: u64| {
        dec.candidates.iter().any(|c| {
            if dec.action == "dispatch" && dec.policy != "service" {
                c.id == target_trace
            } else {
                c.id == target_handle
            }
        })
    };
    let trace_id = id; // resolve_job_id preferred the trace interpretation
    let mut lines: Vec<String> = Vec::new();
    let mut losses = 0usize;
    for dec in &analysis.decisions {
        let won = dec.job == Some(handle) || (dec.action != "dispatch" && dec.chosen == handle);
        if won {
            match dec.action.as_str() {
                "dispatch" => {
                    let runners: Vec<String> = dec
                        .candidates
                        .iter()
                        .filter(|c| c.id != dec.chosen)
                        .take(3)
                        .map(|c| format!("job {} ({} {:.3})", c.id, dec.score_kind, c.score))
                        .collect();
                    let own = dec
                        .candidates
                        .iter()
                        .find(|c| c.id == dec.chosen)
                        .map(|c| format!("{} {:.3}", dec.score_kind, c.score))
                        .unwrap_or_else(|| dec.score_kind.clone());
                    if runners.is_empty() {
                        lines.push(format!(
                            "  {:.3}s: dispatched by {} ({own}); only candidate\n",
                            dec.now, dec.policy
                        ));
                    } else {
                        lines.push(format!(
                            "  {:.3}s: dispatched by {} ({own}) over {} candidate(s); beat {}\n",
                            dec.now,
                            dec.policy,
                            dec.considered.saturating_sub(1),
                            runners.join(", ")
                        ));
                    }
                }
                "shed" => {
                    let peers: Vec<String> = dec
                        .candidates
                        .iter()
                        .filter(|c| c.id != dec.chosen)
                        .take(3)
                        .map(|c| format!("job {} (priority {})", c.id, c.priority))
                        .collect();
                    let own_prio = dec
                        .candidates
                        .iter()
                        .find(|c| c.id == dec.chosen)
                        .map(|c| c.priority);
                    lines.push(format!(
                        "  {:.3}s: shed by {} — lowest {} (priority {}) among {} co-tenant(s): {}\n",
                        dec.now,
                        dec.policy,
                        dec.score_kind,
                        own_prio.map(|p| p.to_string()).unwrap_or_default(),
                        dec.considered,
                        if peers.is_empty() {
                            "no peers".to_string()
                        } else {
                            peers.join(", ")
                        }
                    ));
                }
                _ => {}
            }
        } else if dec.action == "dispatch" && job_in_candidates(dec, trace_id, handle) && losses < 5
        {
            let winner = dec.candidates.first();
            let ours = dec.candidates.iter().find(|c| {
                if dec.policy == "service" {
                    c.id == handle
                } else {
                    c.id == trace_id
                }
            });
            lines.push(format!(
                "  {:.3}s: waited behind job {} — {} winner {} vs ours {}\n",
                dec.now,
                dec.chosen,
                dec.score_kind,
                winner
                    .map(|c| format!("{:.3}", c.score))
                    .unwrap_or_default(),
                ours.map(|c| format!("{:.3}", c.score)).unwrap_or_default(),
            ));
            losses += 1;
        }
    }
    if !lines.is_empty() {
        out.push_str("provenance:\n");
        for l in lines {
            out.push_str(&l);
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(seq: u64, tick: u64, now: f64, event: &str, extra: &str) -> String {
        let comma = if extra.is_empty() { "" } else { "," };
        format!(
            "{{\"seq\":{seq},\"tick\":{tick},\"now\":{now},\"event\":\"{event}\"{comma}{extra}}}"
        )
    }

    fn tiny_journal() -> String {
        [
            line(0, 0, 0.0, "submit", "\"job\":0,\"tenant\":\"acme\",\"backbone\":\"B\",\"total_tokens\":100,\"slo_seconds\":null"),
            line(1, 0, 0.0, "decision", "\"policy\":\"fcfs\",\"action\":\"dispatch\",\"score_kind\":\"arrival_seconds\",\"chosen\":0,\"job\":0,\"instance\":null,\"considered\":2,\"candidates\":[{\"id\":0,\"tenant\":\"acme\",\"score\":0.0,\"priority\":1,\"arrival\":0.0},{\"id\":1,\"tenant\":\"beta\",\"score\":1.0,\"priority\":1,\"arrival\":1.0}]"),
            line(2, 0, 2.0, "dispatch", "\"job\":0,\"instance\":0"),
            line(3, 0, 4.0, "fault_injected", "\"kind\":\"comm_transient\",\"instance\":0,\"device\":null,\"magnitude\":3.0"),
            line(4, 0, 7.0, "fault_cleared", "\"kind\":\"comm_transient\",\"instance\":0"),
            line(5, 0, 12.0, "complete", "\"job\":0"),
            line(6, 0, 12.0, "submit", "\"job\":1,\"tenant\":\"beta\",\"backbone\":\"B\",\"total_tokens\":100,\"slo_seconds\":null"),
            line(7, 0, 12.0, "reject", "\"job\":1,\"reason\":\"pool exhausted\""),
        ]
        .join("\n")
    }

    #[test]
    fn decomposition_conserves_and_attributes_the_outage() {
        let a = analyze_journal(&tiny_journal()).expect("parse");
        let j = &a.jobs[&0];
        let d = &j.decomposition;
        assert!((d.jct - 12.0).abs() < 1e-12);
        assert!((d.queue_wait - 2.0).abs() < 1e-12);
        assert!((d.fault_recovery - 3.0).abs() < 1e-12, "outage 4..7");
        assert!((d.run - 7.0).abs() < 1e-12, "2..4 and 7..12");
        assert_eq!(d.replan_stall, 0.0);
        assert!(d.conservation_error() < 1e-9);
        assert_eq!(j.terminal, Terminal::Completed);

        // The never-dispatched job is pure queue wait.
        let r = &a.jobs[&1];
        assert_eq!(r.decomposition.queue_wait, 0.0);
        assert_eq!(r.terminal, Terminal::Rejected("pool exhausted".into()));
        assert!(r.decomposition.conservation_error() < 1e-9);
    }

    #[test]
    fn a_line_the_journal_reader_rejects_fails_the_analysis() {
        // A dispatch without its instance used to default to no host, so
        // job 0's 4..7 outage was counted as run time instead of
        // fault recovery. Now the analysis fails with the reader's error.
        let damaged = tiny_journal().replacen("\"job\":0,\"instance\":0", "\"job\":0", 1);
        let err = analyze_journal(&damaged).expect_err("dispatch lacks its instance");
        assert_eq!(err, "line 3: missing/invalid field \"instance\"");
        assert_eq!(Err(err), parse_jsonl(&damaged));
    }

    #[test]
    fn explain_saturates_a_zero_considered_count() {
        // `considered` is journal input: a zero count with candidates
        // present must render, not underflow.
        let text = tiny_journal().replacen("\"considered\":2", "\"considered\":0", 1);
        let a = analyze_journal(&text).expect("parse");
        let out = explain_job(&a, 0).expect("explain");
        assert!(out.contains("over 0 candidate(s); beat job 1"), "{out}");
    }

    #[test]
    fn decisions_are_collected_and_explain_renders_provenance() {
        let a = analyze_journal(&tiny_journal()).expect("parse");
        assert_eq!(a.decisions.len(), 1);
        assert_eq!(a.decisions[0].candidates.len(), 2);
        let text = explain_job(&a, 0).expect("explain");
        assert!(text.contains("dispatched by fcfs"), "{text}");
        assert!(text.contains("beat job 1"), "{text}");
        assert!(text.contains("fault_recovery"), "{text}");
        // Deterministic: same input, same bytes.
        assert_eq!(text, explain_job(&a, 0).unwrap());
    }

    #[test]
    fn serving_preemption_windows_decompose_and_yield_to_recovery() {
        // Preempt 3..6, outage 5..8 (overlap 5..6 goes to recovery),
        // second preempt 10.. left open (clamps to end 12).
        let jsonl = [
            line(0, 0, 0.0, "submit", "\"job\":0,\"tenant\":\"a\",\"backbone\":\"B\",\"total_tokens\":1,\"slo_seconds\":null"),
            line(1, 0, 1.0, "dispatch", "\"job\":0,\"instance\":0"),
            line(2, 0, 3.0, "serving_preempt", "\"instance\":0"),
            line(3, 0, 5.0, "fault_injected", "\"kind\":\"comm_transient\",\"instance\":0,\"device\":null,\"magnitude\":0.0"),
            line(4, 0, 6.0, "serving_resume", "\"instance\":0"),
            line(5, 0, 8.0, "fault_cleared", "\"kind\":\"comm_transient\",\"instance\":0"),
            line(6, 0, 10.0, "serving_preempt", "\"instance\":0"),
            line(7, 0, 12.0, "replan", "\"instance\":0,\"epoch\":2,\"tasks\":1"),
        ]
        .join("\n");
        let a = analyze_journal(&jsonl).expect("parse");
        let j = &a.jobs[&0];
        let d = &j.decomposition;
        assert!((d.jct - 12.0).abs() < 1e-12);
        assert!((d.fault_recovery - 3.0).abs() < 1e-12, "5..8");
        assert!(
            (d.serving_preemption - 4.0).abs() < 1e-12,
            "3..5 (recovery takes 5..6) plus unclosed 10..12"
        );
        assert!((d.run - 4.0).abs() < 1e-12, "1..3 and 8..10");
        assert!(d.conservation_error() < 1e-9);
        assert!(
            j.spans
                .iter()
                .any(|s| s.children.iter().any(|c| c.kind == "serving_preemption")),
            "span tree carries the serving leaf"
        );
        let text = explain_job(&a, 0).expect("explain");
        assert!(text.contains("serving-preemption 4.000s"), "{text}");
    }

    #[test]
    fn unclosed_outage_clamps_to_journal_end() {
        let jsonl = [
            line(0, 0, 0.0, "submit", "\"job\":0,\"tenant\":\"a\",\"backbone\":\"B\",\"total_tokens\":1,\"slo_seconds\":null"),
            line(1, 0, 1.0, "dispatch", "\"job\":0,\"instance\":0"),
            line(2, 0, 3.0, "fault_injected", "\"kind\":\"comm_transient\",\"instance\":0,\"device\":null,\"magnitude\":0.0"),
            line(3, 0, 5.0, "replan", "\"instance\":0,\"epoch\":2,\"tasks\":1"),
        ]
        .join("\n");
        let a = analyze_journal(&jsonl).expect("parse");
        let j = &a.jobs[&0];
        assert_eq!(j.terminal, Terminal::Truncated);
        let d = &j.decomposition;
        assert!((d.jct - 5.0).abs() < 1e-12);
        assert!((d.fault_recovery - 2.0).abs() < 1e-12, "3..end(5)");
        assert!(d.conservation_error() < 1e-9);
    }

    #[test]
    fn interval_algebra_handles_overlap_and_subtraction() {
        let u = union(vec![(3.0, 5.0), (1.0, 2.0), (4.0, 8.0), (9.0, 9.0)]);
        assert_eq!(u, vec![(1.0, 2.0), (3.0, 8.0)]);
        assert_eq!(clip(&u, 1.5, 4.0), vec![(1.5, 2.0), (3.0, 4.0)]);
        assert_eq!(
            subtract((0.0, 10.0), &u),
            vec![(0.0, 1.0), (2.0, 3.0), (8.0, 10.0)]
        );
        assert!((total(&u) - 6.0).abs() < 1e-12);
    }
}
