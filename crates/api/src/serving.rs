//! Inference serving on the training backbone (ROADMAP item 1).
//!
//! A [`ServingRuntime`] multiplexes a stream of token-level inference
//! requests onto the same frozen backbone the service's training hTasks
//! share. Requests move through a queue → one serialized prefill batch
//! server → per-request decode, costed by the
//! [`PhaseModel`] roofline: prefill is
//! compute-bound and co-batched (up to `prefill_batch_cap` prompts pay one
//! weight read), decode is memory-bound and token-stepped.
//!
//! The [`ServingPolicy`] decides **per tick** how serving and training
//! share the device (MuxServe-style spatial-temporal multiplexing):
//!
//! - [`Temporal`](ServingPolicy::Temporal): serving preempts training
//!   micro-batches whenever request work is live — training rates drop to
//!   0 (the same mechanism as a comm outage) and serving runs at full
//!   device speed.
//! - [`Spatial`](ServingPolicy::Spatial): serving co-batches into the
//!   spare co-location slots the Eq. 7 grouping left free — training is
//!   never preempted, and serving latency inflates by the reciprocal of
//!   the free-slot share (scarce headroom ⇒ slow serving).
//! - [`Hybrid`](ServingPolicy::Hybrid): spatial while the queue is
//!   healthy, temporal once the oldest queued request has burned half its
//!   TTFT SLO.
//!
//! Every request transition is journaled (`request_arrive`,
//! `request_prefill`, `request_complete`, `request_reject`,
//! `request_timeout`) at its **exact** simulated time with the same
//! contiguous-seq framing as training events, so the journal fingerprint
//! remains the determinism oracle; per-request TTFT and per-token latency
//! feed mergeable [`QuantileSketch`]es for the p50/p95/p99 + SLO
//! attainment surfaces in `service_report()` and the prom exposition.

use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

use mux_gpu_sim::PhaseModel;
use mux_obs::QuantileSketch;
use serde_json::{json, Value};

use crate::journal::{EventKind, Journal};

/// How serving shares the backbone with training, decided per tick.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServingPolicy {
    /// Never preempt: co-batch into spare Eq. 7 slots, derated by the
    /// free-slot share.
    Spatial,
    /// Preempt training whenever request work is live.
    Temporal,
    /// Spatial until the oldest queued request burns half its TTFT SLO,
    /// then temporal until the queue drains.
    Hybrid,
}

impl ServingPolicy {
    /// Stable lowercase name (report/prom surface).
    pub fn name(&self) -> &'static str {
        match self {
            ServingPolicy::Spatial => "spatial",
            ServingPolicy::Temporal => "temporal",
            ServingPolicy::Hybrid => "hybrid",
        }
    }

    /// Parses a policy name (the `report --serving-policy` flag).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "spatial" => Some(ServingPolicy::Spatial),
            "temporal" => Some(ServingPolicy::Temporal),
            "hybrid" => Some(ServingPolicy::Hybrid),
            _ => None,
        }
    }
}

/// Serving subsystem configuration.
#[derive(Debug, Clone)]
pub struct ServingConfig {
    /// Spatial/temporal sharing policy.
    pub policy: ServingPolicy,
    /// Roofline phase model for the (device, backbone) pair.
    pub phase: PhaseModel,
    /// Max prompts co-batched into one prefill.
    pub prefill_batch_cap: usize,
    /// Time-to-first-token SLO, seconds.
    pub ttft_slo_seconds: f64,
    /// Per-decoded-token latency SLO, seconds.
    pub per_token_slo_seconds: f64,
    /// Queued requests older than this are dropped (`request_timeout`).
    pub queue_timeout_seconds: f64,
    /// Admission cap: arrivals beyond this queue depth are rejected.
    pub max_queue: usize,
    /// Floor on the spatial device share, so scarce training headroom
    /// derates serving by at most `1 / min_spatial_share`.
    pub min_spatial_share: f64,
}

impl ServingConfig {
    /// A serving config with paper-flavoured defaults for `phase`.
    pub fn new(policy: ServingPolicy, phase: PhaseModel) -> Self {
        Self {
            policy,
            phase,
            prefill_batch_cap: 8,
            ttft_slo_seconds: 1.0,
            per_token_slo_seconds: 0.1,
            queue_timeout_seconds: 30.0,
            max_queue: 4096,
            min_spatial_share: 0.25,
        }
    }
}

/// One inference request: the serving analogue of a `JobSpec`.
#[derive(Debug, Clone, PartialEq)]
pub struct RequestSpec {
    /// Request handle (its own id space, disjoint from job handles).
    pub id: u64,
    /// Requesting tenant.
    pub tenant: String,
    /// Arrival time, simulated seconds.
    pub arrival: f64,
    /// Prompt tokens to prefill.
    pub prompt_tokens: u64,
    /// Output tokens to decode (≥ 1).
    pub output_tokens: u64,
}

/// The in-flight co-batched prefill (one serialized batch server).
#[derive(Debug, Clone)]
struct PrefillBatch {
    members: Vec<RequestSpec>,
    ends: f64,
}

/// A serving event class. On equal times the earlier variant fires
/// first: an arrival joins the queue before a freed batch server picks
/// its members, and a batch end frees the server before the front
/// request's timeout, so the request joins the next batch instead of
/// expiring.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum Class {
    Arrival,
    PrefillEnd,
    DecodeEnd,
    Timeout,
}

/// A scheduled "request finishes decoding" event.
#[derive(Debug, Clone, PartialEq)]
struct DecodeEvent {
    at: f64,
    spec: RequestSpec,
    prefill_end: f64,
}

impl Eq for DecodeEvent {}

impl PartialOrd for DecodeEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for DecodeEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.at
            .total_cmp(&other.at)
            .then_with(|| self.spec.id.cmp(&other.spec.id))
    }
}

/// Running serving totals (report/prom surface).
#[derive(Debug, Clone, Default)]
pub struct ServingStats {
    /// Requests admitted or rejected at the door.
    pub arrived: u64,
    /// Requests that decoded every output token.
    pub completed: u64,
    /// Requests rejected at admission (queue full).
    pub rejected: u64,
    /// Requests dropped after waiting out the queue timeout.
    pub timed_out: u64,
    /// Prompt tokens prefilled.
    pub prompt_tokens: u64,
    /// Output tokens decoded.
    pub decode_tokens: u64,
    /// Completions meeting both the TTFT and per-token SLOs.
    pub slo_attained: u64,
    /// Completions violating either SLO.
    pub slo_violated: u64,
    /// Preempt transitions (training handed the backbone to serving).
    pub preemptions: u64,
}

/// Per-tenant latency sketches + attainment.
#[derive(Debug, Clone, Default)]
struct TenantServing {
    ttft: QuantileSketch,
    per_token: QuantileSketch,
    completed: u64,
    slo_attained: u64,
}

/// The serving subsystem state machine, fired event by event by
/// [`FineTuneService::advance_to`](crate::service::FineTuneService::advance_to).
#[derive(Debug, Clone)]
pub struct ServingRuntime {
    cfg: ServingConfig,
    /// Submitted requests not yet arrived, ordered by `(arrival, id)`.
    pending: VecDeque<RequestSpec>,
    /// Admitted requests awaiting a prefill slot (FIFO).
    queue: VecDeque<RequestSpec>,
    /// The in-flight prefill batch, if the batch server is busy.
    batch: Option<PrefillBatch>,
    /// Scheduled decode completions.
    decoding: BinaryHeap<Reverse<DecodeEvent>>,
    /// Per-tenant latency sketches (BTreeMap: deterministic order).
    tenants: BTreeMap<String, TenantServing>,
    /// Running totals.
    stats: ServingStats,
    /// Whether training is currently preempted for serving.
    preempted: bool,
    /// The Eq. 7 free-slot share latched before the last burst of
    /// events.
    headroom: f64,
}

impl ServingRuntime {
    /// An idle runtime.
    pub fn new(cfg: ServingConfig) -> Self {
        assert!(cfg.prefill_batch_cap >= 1, "batch cap must be >= 1");
        assert!(
            cfg.min_spatial_share > 0.0 && cfg.min_spatial_share <= 1.0,
            "min_spatial_share must be in (0, 1]"
        );
        Self {
            cfg,
            pending: VecDeque::new(),
            queue: VecDeque::new(),
            batch: None,
            decoding: BinaryHeap::new(),
            tenants: BTreeMap::new(),
            stats: ServingStats::default(),
            preempted: false,
            headroom: 1.0,
        }
    }

    /// The configuration (read-only).
    pub fn config(&self) -> &ServingConfig {
        &self.cfg
    }

    /// Running totals (read-only).
    pub fn stats(&self) -> &ServingStats {
        &self.stats
    }

    /// Whether training is currently preempted for serving.
    pub fn preempted(&self) -> bool {
        self.preempted
    }

    /// Queues future request arrivals. Order of calls does not matter:
    /// the pending set is kept sorted by `(arrival, id)`.
    pub fn submit(&mut self, requests: Vec<RequestSpec>) {
        self.pending.extend(requests);
        self.pending.make_contiguous().sort_by(|a, b| {
            a.arrival
                .total_cmp(&b.arrival)
                .then_with(|| a.id.cmp(&b.id))
        });
    }

    /// Whether every submitted request has reached a terminal state.
    pub fn idle(&self) -> bool {
        self.pending.is_empty()
            && self.queue.is_empty()
            && self.batch.is_none()
            && self.decoding.is_empty()
    }

    /// Requests admitted but not yet terminal.
    pub fn in_flight(&self) -> usize {
        self.queue.len()
            + self.batch.as_ref().map(|b| b.members.len()).unwrap_or(0)
            + self.decoding.len()
    }

    /// Latches the Eq. 7 grouping headroom (free co-location slots /
    /// total slots) that spatial serving derates by. The service latches
    /// the live headroom before it fires each burst of events.
    pub fn set_headroom(&mut self, headroom: f64) {
        self.headroom = headroom.clamp(0.0, 1.0);
    }

    /// The serving latency multiplier: 1 while preempted or temporal (the
    /// full device), else the reciprocal headroom, floored at
    /// `min_spatial_share`.
    fn scale(&self) -> f64 {
        if self.preempted || self.cfg.policy == ServingPolicy::Temporal {
            1.0
        } else {
            1.0 / self.headroom.clamp(self.cfg.min_spatial_share, 1.0)
        }
    }

    /// Whether the policy wants training preempted right now.
    pub fn wants_backbone(&self, now: f64) -> bool {
        let live = !self.queue.is_empty() || self.batch.is_some() || !self.decoding.is_empty();
        match self.cfg.policy {
            ServingPolicy::Spatial => false,
            ServingPolicy::Temporal => live,
            ServingPolicy::Hybrid => {
                if self.preempted {
                    // Hold the backbone until the burst fully drains.
                    live
                } else {
                    self.queue
                        .front()
                        .map(|q| now - q.arrival > 0.5 * self.cfg.ttft_slo_seconds)
                        .unwrap_or(false)
                }
            }
        }
    }

    /// Records a preempt/resume transition (the service flips the
    /// per-instance rate gates and journals the markers).
    pub fn set_preempted(&mut self, preempted: bool) {
        if preempted && !self.preempted {
            self.stats.preemptions += 1;
        }
        self.preempted = preempted;
    }

    /// The earliest event and its time. Ties break by [`Class`] order so
    /// firing is deterministic; an event at +∞ or NaN never fires.
    fn next(&self) -> Option<(f64, Class)> {
        let timeout = self.cfg.queue_timeout_seconds;
        [
            self.pending.front().map(|r| (r.arrival, Class::Arrival)),
            self.batch.as_ref().map(|b| (b.ends, Class::PrefillEnd)),
            self.decoding.peek().map(|d| (d.0.at, Class::DecodeEnd)),
            // Timeouts bite while the queue waits behind a batch.
            self.queue
                .front()
                .map(|q| (q.arrival + timeout, Class::Timeout)),
        ]
        .into_iter()
        .flatten()
        .filter(|&(t, _)| t < f64::INFINITY)
        .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)))
    }

    /// When the earliest event is due, absolute seconds (`None` when
    /// nothing is scheduled).
    pub(crate) fn next_event_at(&self) -> Option<f64> {
        self.next().map(|(t, _)| t)
    }

    /// Fires, in order, every event whose time passes `due`, journaling
    /// each at its exact simulated time. `tick` is the service tick
    /// stamped on the journal lines (replay orders by `(now, tick)`, so
    /// sub-tick event times replay correctly).
    pub(crate) fn fire_while(
        &mut self,
        due: impl Fn(f64) -> bool,
        tick: u64,
        journal: &mut Journal,
    ) {
        let _span = mux_obs::span("serving.step");
        while let Some((t, class)) = self.next().filter(|&(t, _)| due(t)) {
            match class {
                Class::Arrival => self.admit(t, tick, journal),
                Class::PrefillEnd => self.finish_prefill(tick, journal),
                Class::DecodeEnd => self.finish_decode(tick, journal),
                Class::Timeout => self.expire_front(t, tick, journal),
            }
            // A freed batch server (or fresh admissions) may allow a new
            // batch to start at exactly `t`.
            self.maybe_start_batch(t);
        }
    }

    /// Admits (or rejects) the front pending arrival at its arrival time.
    fn admit(&mut self, now: f64, tick: u64, journal: &mut Journal) {
        let spec = self.pending.pop_front().expect("pending non-empty");
        debug_assert_eq!(spec.arrival, now);
        self.stats.arrived += 1;
        mux_obs::profile::work("serving_requests", 1);
        journal.push(
            tick,
            spec.arrival,
            EventKind::RequestArrive {
                request: spec.id,
                tenant: spec.tenant.clone(),
                prompt_tokens: spec.prompt_tokens,
                output_tokens: spec.output_tokens,
            },
        );
        if self.queue.len() >= self.cfg.max_queue {
            self.stats.rejected += 1;
            journal.push(
                tick,
                spec.arrival,
                EventKind::RequestReject {
                    request: spec.id,
                    reason: format!("queue full ({} waiting)", self.queue.len()),
                },
            );
            return;
        }
        self.queue.push_back(spec);
    }

    /// Starts a prefill batch at time `t` if the server is free and
    /// requests are waiting.
    fn maybe_start_batch(&mut self, t: f64) {
        if self.batch.is_some() || self.queue.is_empty() {
            return;
        }
        let n = self.queue.len().min(self.cfg.prefill_batch_cap);
        let members: Vec<RequestSpec> = self.queue.drain(..n).collect();
        let prompts: Vec<u64> = members.iter().map(|m| m.prompt_tokens).collect();
        let dur = self.cfg.phase.prefill_batch_time(&prompts) * self.scale();
        self.batch = Some(PrefillBatch {
            members,
            ends: t + dur,
        });
        mux_obs::profile::work("serving_prefill_batches", 1);
    }

    /// Completes the in-flight batch: journals per-member TTFT and
    /// schedules each member's decode completion.
    fn finish_prefill(&mut self, tick: u64, journal: &mut Journal) {
        let batch = self.batch.take().expect("batch in flight");
        let step = self.cfg.phase.decode_step_time() * self.scale();
        for spec in batch.members {
            let ttft = batch.ends - spec.arrival;
            self.stats.prompt_tokens += spec.prompt_tokens;
            journal.push(
                tick,
                batch.ends,
                EventKind::RequestPrefill {
                    request: spec.id,
                    ttft_seconds: ttft,
                },
            );
            self.tenants
                .entry(spec.tenant.clone())
                .or_default()
                .ttft
                .insert(ttft);
            let at = batch.ends + spec.output_tokens as f64 * step;
            self.decoding.push(Reverse(DecodeEvent {
                at,
                spec,
                prefill_end: batch.ends,
            }));
        }
    }

    /// Completes the earliest scheduled decode: journals the terminal
    /// `request_complete` and folds latency into the tenant sketches.
    fn finish_decode(&mut self, tick: u64, journal: &mut Journal) {
        let Reverse(ev) = self.decoding.pop().expect("decode scheduled");
        let latency = ev.at - ev.spec.arrival;
        let per_token = (ev.at - ev.prefill_end) / ev.spec.output_tokens.max(1) as f64;
        let ttft = ev.prefill_end - ev.spec.arrival;
        self.stats.completed += 1;
        self.stats.decode_tokens += ev.spec.output_tokens;
        mux_obs::profile::work("serving_decode_tokens", ev.spec.output_tokens);
        let attained =
            ttft <= self.cfg.ttft_slo_seconds && per_token <= self.cfg.per_token_slo_seconds;
        if attained {
            self.stats.slo_attained += 1;
        } else {
            self.stats.slo_violated += 1;
        }
        let tenant = self.tenants.entry(ev.spec.tenant.clone()).or_default();
        tenant.per_token.insert(per_token);
        tenant.completed += 1;
        if attained {
            tenant.slo_attained += 1;
        }
        journal.push(
            tick,
            ev.at,
            EventKind::RequestComplete {
                request: ev.spec.id,
                decode_tokens: ev.spec.output_tokens,
                latency_seconds: latency,
            },
        );
    }

    /// Drops the front queued request at its timeout instant.
    fn expire_front(&mut self, t: f64, tick: u64, journal: &mut Journal) {
        let q = self.queue.pop_front().expect("queue non-empty");
        self.stats.timed_out += 1;
        journal.push(
            tick,
            t,
            EventKind::RequestTimeout {
                request: q.id,
                waited_seconds: t - q.arrival,
            },
        );
    }

    /// Appends the `muxtune_request_*` / `muxtune_serving_*` prom
    /// families to `out` (families always render; gauges read 0 when no
    /// request concluded yet).
    pub fn render_prom(&self, out: &mut String, now: f64) {
        out.push_str("# TYPE muxtune_requests_total counter\n");
        for (state, v) in [
            ("arrived", self.stats.arrived),
            ("completed", self.stats.completed),
            ("rejected", self.stats.rejected),
            ("timed_out", self.stats.timed_out),
        ] {
            out.push_str(&format!(
                "muxtune_requests_total{{state=\"{state}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE muxtune_request_tokens_total counter\n");
        for (kind, v) in [
            ("prompt", self.stats.prompt_tokens),
            ("decode", self.stats.decode_tokens),
        ] {
            out.push_str(&format!(
                "muxtune_request_tokens_total{{kind=\"{kind}\"}} {v}\n"
            ));
        }
        out.push_str("# TYPE muxtune_request_ttft_seconds gauge\n");
        out.push_str("# TYPE muxtune_request_per_token_seconds gauge\n");
        for (name, t) in &self.tenants {
            let esc = mux_obs::prom_escape_label(name);
            for (family, sketch) in [
                ("muxtune_request_ttft_seconds", &t.ttft),
                ("muxtune_request_per_token_seconds", &t.per_token),
            ] {
                for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
                    out.push_str(&format!(
                        "{family}{{tenant=\"{esc}\",quantile=\"{label}\"}} {}\n",
                        sketch.quantile(q)
                    ));
                }
            }
        }
        out.push_str("# TYPE muxtune_request_goodput_under_slo gauge\n");
        out.push_str(&format!(
            "muxtune_request_goodput_under_slo {}\n",
            goodput(&self.stats, now)
        ));
        out.push_str("# TYPE muxtune_serving_preemptions_total counter\n");
        out.push_str(&format!(
            "muxtune_serving_preemptions_total {}\n",
            self.stats.preemptions
        ));
    }
}

/// The always-present `serving` section of `service_report()`. The key
/// set is stable: with serving disabled (`None`) every count is 0, the
/// policy is `none` and the SLOs read 0, so report consumers never branch
/// on presence.
pub fn report_json(runtime: Option<&ServingRuntime>, now: f64) -> Value {
    let idle = ServingStats::default();
    let stats = runtime.map_or(&idle, |r| &r.stats);
    let concluded = stats.slo_attained + stats.slo_violated;
    let per_tenant: Vec<Value> = runtime
        .into_iter()
        .flat_map(|r| &r.tenants)
        .map(|(name, t)| {
            let quantiles = |sketch: &QuantileSketch| {
                json!({
                    "p50": sketch.quantile(0.5),
                    "p95": sketch.quantile(0.95),
                    "p99": sketch.quantile(0.99),
                })
            };
            json!({
                "tenant": name,
                "completed": t.completed,
                "slo_attainment": ratio_or_one(t.slo_attained, t.completed),
                "ttft": quantiles(&t.ttft),
                "per_token": quantiles(&t.per_token),
            })
        })
        .collect();
    json!({
        "enabled": runtime.is_some(),
        "policy": runtime.map_or("none", |r| r.cfg.policy.name()),
        "preempted": runtime.is_some_and(|r| r.preempted),
        "preemptions": stats.preemptions,
        "headroom": runtime.map_or(1.0, |r| r.headroom),
        "latency_scale": runtime.map_or(1.0, ServingRuntime::scale),
        "requests": {
            "arrived": stats.arrived,
            "completed": stats.completed,
            "rejected": stats.rejected,
            "timed_out": stats.timed_out,
            "pending": runtime.map_or(0, |r| r.pending.len()),
            "in_flight": runtime.map_or(0, ServingRuntime::in_flight),
        },
        "tokens": { "prompt": stats.prompt_tokens, "decode": stats.decode_tokens },
        "slo": {
            "attained": stats.slo_attained,
            "violated": stats.slo_violated,
            "attainment": ratio_or_one(stats.slo_attained, concluded),
            "ttft_seconds": runtime.map_or(0.0, |r| r.cfg.ttft_slo_seconds),
            "per_token_seconds": runtime.map_or(0.0, |r| r.cfg.per_token_slo_seconds),
        },
        "goodput_requests_per_second": goodput(stats, now),
        "per_tenant": per_tenant,
    })
}

/// `part / whole`, or 1 when nothing concluded yet.
fn ratio_or_one(part: u64, whole: u64) -> f64 {
    if whole == 0 {
        1.0
    } else {
        part as f64 / whole as f64
    }
}

/// SLO-attaining completions per simulated second (0 before time moves).
fn goodput(stats: &ServingStats, now: f64) -> f64 {
    if now > 0.0 {
        stats.slo_attained as f64 / now
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::GpuSpec;
    use mux_model::ModelConfig;

    fn phase() -> PhaseModel {
        PhaseModel::for_model(GpuSpec::a40(), &ModelConfig::tiny(4, 256, 8, 1024))
    }

    /// Fires every event due at or before `until`.
    fn run_until(rt: &mut ServingRuntime, until: f64, tick: u64, journal: &mut Journal) {
        rt.fire_while(|t| t <= until, tick, journal);
    }

    fn req(id: u64, arrival: f64, prompt: u64, output: u64) -> RequestSpec {
        RequestSpec {
            id,
            tenant: "acme".into(),
            arrival,
            prompt_tokens: prompt,
            output_tokens: output,
        }
    }

    #[test]
    fn single_request_flows_arrive_prefill_complete() {
        let mut rt = ServingRuntime::new(ServingConfig::new(ServingPolicy::Spatial, phase()));
        rt.submit(vec![req(1, 0.5, 128, 16)]);
        let mut journal = Journal::new();
        run_until(&mut rt, 100.0, 1, &mut journal);
        assert!(rt.idle());
        assert_eq!(rt.stats().completed, 1);
        assert_eq!(rt.stats().decode_tokens, 16);
        let kinds: Vec<&str> = journal.events().iter().map(|e| e.kind.name()).collect();
        assert_eq!(
            kinds,
            ["request_arrive", "request_prefill", "request_complete"]
        );
        // TTFT is exactly the prefill time (no queue wait at idle).
        let expect_ttft = rt.config().phase.prefill_time(128);
        match &journal.events()[1].kind {
            EventKind::RequestPrefill { ttft_seconds, .. } => {
                assert!((ttft_seconds - expect_ttft).abs() < 1e-12)
            }
            other => panic!("expected prefill, got {other:?}"),
        }
    }

    #[test]
    fn concurrent_arrivals_cobatch_and_keep_exact_ttfts() {
        let mut rt = ServingRuntime::new(ServingConfig::new(ServingPolicy::Spatial, phase()));
        rt.submit(vec![
            req(1, 0.0, 64, 4),
            req(2, 0.0, 64, 4),
            req(3, 0.0, 64, 4),
        ]);
        let mut journal = Journal::new();
        run_until(&mut rt, 100.0, 1, &mut journal);
        assert!(rt.idle());
        // First arrival starts a singleton batch immediately; 2 and 3
        // co-batch once the server frees up.
        let prefills: Vec<f64> = journal
            .events()
            .iter()
            .filter_map(|e| match &e.kind {
                EventKind::RequestPrefill { ttft_seconds, .. } => Some(*ttft_seconds),
                _ => None,
            })
            .collect();
        assert_eq!(prefills.len(), 3);
        let solo = rt.config().phase.prefill_time(64);
        assert!((prefills[0] - solo).abs() < 1e-12);
        let batched = rt.config().phase.prefill_batch_time(&[64, 64]);
        assert!((prefills[1] - (solo + batched)).abs() < 1e-12);
        assert_eq!(prefills[1], prefills[2]);
    }

    #[test]
    fn queue_overflow_rejects_and_stuck_queue_times_out() {
        let mut cfg = ServingConfig::new(ServingPolicy::Spatial, phase());
        cfg.max_queue = 1;
        cfg.queue_timeout_seconds = 1e-5;
        // A derated device (scale pinned high) so the queue backs up
        // behind request 1's long prefill.
        let mut rt = ServingRuntime::new(cfg);
        rt.set_headroom(0.0); // scale = 1 / min_spatial_share = 4x
        rt.submit(vec![
            req(1, 0.0, 4096, 1),
            req(2, 1e-5, 64, 1),
            req(3, 2e-5, 64, 1),
        ]);
        let mut journal = Journal::new();
        run_until(&mut rt, 1e-4, 1, &mut journal);
        // 1 is prefilling; 3 bounced off the queue cap (2 still queued at
        // its arrival instant — ties admit before expiring); 2 then waited
        // out its timeout behind the in-flight batch.
        assert_eq!(rt.stats().rejected, 1);
        assert_eq!(rt.stats().timed_out, 1);
        run_until(&mut rt, 100.0, 2, &mut journal);
        assert!(rt.idle());
        assert_eq!(rt.stats().completed, 1);
        // Conservation: every request reached exactly one terminal state.
        assert_eq!(rt.stats().arrived, 3);
        assert_eq!(
            rt.stats().completed + rt.stats().rejected + rt.stats().timed_out,
            3
        );
    }

    #[test]
    fn temporal_policy_wants_backbone_only_while_work_is_live() {
        let mut rt = ServingRuntime::new(ServingConfig::new(ServingPolicy::Temporal, phase()));
        assert!(!rt.wants_backbone(0.0));
        rt.submit(vec![req(1, 0.0, 64, 4)]);
        assert!(
            !rt.wants_backbone(0.0),
            "pending-but-not-arrived is not live"
        );
        let mut journal = Journal::new();
        run_until(&mut rt, 1e-6, 1, &mut journal);
        assert!(
            rt.wants_backbone(1e-6),
            "in-flight prefill holds the backbone"
        );
        run_until(&mut rt, 100.0, 2, &mut journal);
        assert!(!rt.wants_backbone(100.0), "drained stream releases it");
    }

    #[test]
    fn hybrid_policy_escalates_on_ttft_pressure() {
        let mut cfg = ServingConfig::new(ServingPolicy::Hybrid, phase());
        cfg.ttft_slo_seconds = 1.0;
        cfg.prefill_batch_cap = 1;
        let mut rt = ServingRuntime::new(cfg);
        rt.submit(vec![req(1, 0.0, 4096, 1), req(2, 1e-5, 64, 1)]);
        let mut journal = Journal::new();
        run_until(&mut rt, 1e-4, 1, &mut journal);
        // Request 2 queued behind a long prefill but not yet past half
        // its TTFT SLO: stay spatial.
        assert!(!rt.wants_backbone(0.1));
        // Past the half-SLO mark: escalate.
        assert!(rt.wants_backbone(0.6));
    }

    #[test]
    fn spatial_scale_derates_by_free_slot_share() {
        let mut rt = ServingRuntime::new(ServingConfig::new(ServingPolicy::Spatial, phase()));
        rt.set_headroom(0.5);
        assert!((rt.scale() - 2.0).abs() < 1e-12);
        rt.set_headroom(0.1); // clamped at min_spatial_share = 0.25
        assert!((rt.scale() - 4.0).abs() < 1e-12);
        // Preemption grants the full device regardless of headroom.
        rt.set_preempted(true);
        assert!((rt.scale() - 1.0).abs() < 1e-12);
        assert_eq!(rt.stats().preemptions, 1);
    }

    /// Every object key path in `v`.
    fn key_paths(v: &Value, prefix: &str, out: &mut Vec<String>) {
        if let Value::Object(map) = v {
            for (k, child) in map {
                let path = format!("{prefix}.{k}");
                out.push(path.clone());
                key_paths(child, &path, out);
            }
        }
    }

    #[test]
    fn disabled_section_has_the_enabled_sections_keys() {
        let paths = |section: &Value| {
            let mut out = Vec::new();
            key_paths(section, "serving", &mut out);
            out
        };
        let fresh = ServingRuntime::new(ServingConfig::new(ServingPolicy::Hybrid, phase()));
        let disabled = report_json(None, 0.0);
        assert_eq!(paths(&disabled), paths(&report_json(Some(&fresh), 0.0)));
        assert_eq!(disabled["enabled"].as_bool(), Some(false));
        assert_eq!(disabled["policy"].as_str(), Some("none"));
        assert_eq!(disabled["slo"]["ttft_seconds"].as_f64(), Some(0.0));
    }

    #[test]
    fn run_twice_is_bitwise_identical() {
        let run = || {
            let mut rt = ServingRuntime::new(ServingConfig::new(ServingPolicy::Hybrid, phase()));
            rt.submit(
                (0..50)
                    .map(|i| req(i, i as f64 * 0.01, 64 + i, 1 + i % 7))
                    .collect(),
            );
            let mut journal = Journal::new();
            let mut t = 0.0;
            while !rt.idle() {
                t += 0.05;
                run_until(&mut rt, t, (t / 0.05) as u64, &mut journal);
            }
            journal.seal();
            journal.to_jsonl()
        };
        assert_eq!(run(), run());
    }
}
