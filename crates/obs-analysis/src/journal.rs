//! The event journal's line format: one typed [`JournalEvent`] per JSONL
//! line, its codec, and the one reader every consumer parses it with.
//!
//! Each [`JournalEvent`] carries a monotonically increasing sequence
//! number, the service tick and simulated time it happened at, and a
//! typed [`EventKind`]. The service's `mux_api::Journal` writes these
//! lines and re-exports every name defined here; its replay and verify,
//! [`analyze_journal`](crate::lifecycle::analyze_journal), and the
//! workload crate's request census all fold over the same enum read by
//! [`parse_jsonl`]. The key set per event kind is pinned by the
//! `journal_line.schema.json` golden.

use std::collections::{BTreeMap, BTreeSet};

use serde_json::{Map, Value};

/// What happened. One variant per service state transition.
#[derive(Debug, Clone, PartialEq)]
pub enum EventKind {
    /// A tenant submitted a job.
    Submit {
        /// Job handle.
        job: u64,
        /// Submitting tenant (`"default"` when the spec names none).
        tenant: String,
        /// Requested backbone.
        backbone: String,
        /// Total training tokens requested.
        total_tokens: u64,
        /// Completion SLO, seconds (absent for best-effort jobs).
        slo_seconds: Option<f64>,
    },
    /// A job was rejected (admission, planning, or shedding outcome).
    Reject {
        /// Job handle.
        job: u64,
        /// Why.
        reason: String,
    },
    /// A job was placed on an instance and started running.
    Dispatch {
        /// Job handle.
        job: u64,
        /// Hosting instance.
        instance: usize,
    },
    /// An instance re-planned (membership change).
    Replan {
        /// Instance index.
        instance: usize,
        /// The instance's new plan epoch.
        epoch: u64,
        /// Tasks co-located after the replan.
        tasks: usize,
    },
    /// A job was evicted from an instance to restore feasibility.
    Shed {
        /// Job handle.
        job: u64,
        /// Instance it was evicted from.
        instance: usize,
        /// Why.
        reason: String,
    },
    /// A job finished all requested tokens.
    Complete {
        /// Job handle.
        job: u64,
    },
    /// A monitoring rule started firing.
    AlertFired {
        /// Rule name (e.g. `slo_burn`).
        rule: String,
        /// Severity name (`warning` / `critical`).
        severity: String,
        /// Job concerned.
        job: u64,
        /// Evaluation window, ticks.
        window: usize,
        /// Breaching value.
        value: f64,
        /// Threshold breached.
        threshold: f64,
    },
    /// A monitoring rule stopped firing.
    AlertCleared {
        /// Rule name.
        rule: String,
        /// Job concerned.
        job: u64,
    },
    /// A fault was injected into the service (chaos layer or operator).
    FaultInjected {
        /// Fault kind (`device_slowdown`, `link_degrade`, `comm_transient`,
        /// `device_loss`).
        kind: String,
        /// Affected instance.
        instance: usize,
        /// Affected device within the instance (absent for link faults).
        device: Option<usize>,
        /// Slowdown / degradation factor, or outage duration in seconds
        /// for transient faults (0 for permanent loss).
        magnitude: f64,
    },
    /// A previously injected fault stopped applying.
    FaultCleared {
        /// Fault kind.
        kind: String,
        /// Affected instance.
        instance: usize,
    },
    /// The service retried a transient comm fault with backoff.
    RecoverRetry {
        /// Affected instance.
        instance: usize,
        /// 1-based retry attempt.
        attempt: u64,
        /// Backoff applied before the retry, seconds.
        backoff_seconds: f64,
    },
    /// A job was checkpoint/restarted at its last completed step.
    RecoverRestart {
        /// Job handle.
        job: u64,
        /// Hosting instance.
        instance: usize,
        /// Tokens banked at the checkpoint (progress is preserved).
        checkpoint_tokens: f64,
    },
    /// An instance re-planned onto its surviving devices after a loss.
    RecoverReplan {
        /// Affected instance.
        instance: usize,
        /// Devices still alive on the instance.
        devices_left: usize,
        /// The instance's new plan epoch.
        epoch: u64,
    },
    /// Graceful degradation: a job was shed so co-tenants keep running.
    RecoverShed {
        /// Job handle.
        job: u64,
        /// Instance it was shed from.
        instance: usize,
        /// Why replan could not keep it.
        reason: String,
    },
    /// A scheduling decision's provenance: the candidate set a policy (or
    /// the service's shed path) weighed and the per-candidate scores, so
    /// `report --explain-job` can answer *why* a job was dispatched ahead
    /// of — or shed instead of — its peers from the journal alone.
    Decision {
        /// Deciding policy name (`fcfs` / `priority` / `wfs` / `drf`), or
        /// `"service"` for the replan shed-victim path.
        policy: String,
        /// What was decided: `"dispatch"` or `"shed"`.
        action: String,
        /// What the candidate scores mean (`arrival_seconds`,
        /// `neg_priority`, `normalized_tokens`, `dominant_share`,
        /// `priority`). Lower always wins.
        score_kind: String,
        /// Id of the winning candidate, in the same id space as
        /// `candidates` (trace ids for replayer dispatch, service job
        /// handles for service sheds).
        chosen: u64,
        /// Service job handle of the chosen candidate, when known —
        /// bridges trace-id decisions to journal `job` fields.
        job: Option<u64>,
        /// Instance involved (shed victim's host), if any.
        instance: Option<usize>,
        /// Total candidates weighed (may exceed `candidates.len()`:
        /// only the best few are journaled).
        considered: usize,
        /// The best candidates by `(score, arrival, id)`, winner first.
        candidates: Vec<DecisionCandidate>,
    },
    /// An inference request entered the serving queue.
    RequestArrive {
        /// Request handle (serving id space, disjoint from job handles).
        request: u64,
        /// Requesting tenant.
        tenant: String,
        /// Prompt tokens to prefill.
        prompt_tokens: u64,
        /// Output tokens to decode.
        output_tokens: u64,
    },
    /// A request's prefill batch finished (first token emitted).
    RequestPrefill {
        /// Request handle.
        request: u64,
        /// Time-to-first-token: prefill end minus arrival, seconds.
        ttft_seconds: f64,
    },
    /// A request finished decoding all its output tokens.
    RequestComplete {
        /// Request handle.
        request: u64,
        /// Output tokens decoded (conservation: equals the arrival's
        /// `output_tokens`).
        decode_tokens: u64,
        /// End-to-end latency: completion minus arrival, seconds.
        latency_seconds: f64,
    },
    /// A request was rejected at admission (queue full).
    RequestReject {
        /// Request handle.
        request: u64,
        /// Why.
        reason: String,
    },
    /// A request waited past the queue timeout and was dropped.
    RequestTimeout {
        /// Request handle.
        request: u64,
        /// How long it waited before timing out, seconds.
        waited_seconds: f64,
    },
    /// The serving policy preempted training on an instance (temporal
    /// multiplexing: serving takes the backbone, training rates drop to 0).
    ServingPreempt {
        /// Preempted instance.
        instance: usize,
    },
    /// The serving policy handed the backbone back to training.
    ServingResume {
        /// Resumed instance.
        instance: usize,
    },
    /// An event kind this build does not know. Carried verbatim (name plus
    /// raw payload) and replayed as a no-op, so journals written by newer
    /// builds still verify here instead of failing to parse.
    Opaque {
        /// The JSONL `event` field.
        name: String,
        /// Every payload field except the `seq`/`tick`/`now`/`event`
        /// envelope, re-emitted as-is.
        payload: Map,
    },
    /// The writer's own final state, which `mux_api::Journal::verify`
    /// checks the replay against.
    Final {
        /// Job handle → lifecycle state string (`queued`, `running@<i>`,
        /// `completed`, `rejected`).
        jobs: BTreeMap<u64, String>,
        /// Active `(rule, job)` alert pairs.
        alerts: BTreeSet<(String, u64)>,
    },
}

/// How many candidates an [`EventKind::Decision`] journals (winner plus
/// the best runners-up). A saturated 10⁴-job queue weighs thousands of
/// candidates per dispatch; journaling them all would dwarf every other
/// event combined, so decisions carry the top few (by the policy's own
/// order) and record the full count in `considered`.
pub const DECISION_CANDIDATE_CAP: usize = 8;

/// One weighed candidate inside an [`EventKind::Decision`] event.
#[derive(Debug, Clone, PartialEq)]
pub struct DecisionCandidate {
    /// Candidate id (trace id or service job handle — the decision's
    /// `chosen` field shares the space).
    pub id: u64,
    /// Candidate's tenant.
    pub tenant: String,
    /// The policy's score for this candidate (lower wins).
    pub score: f64,
    /// Candidate's priority (higher = more important).
    pub priority: u8,
    /// Candidate's arrival time, seconds (the deterministic tiebreak).
    pub arrival: f64,
}

impl DecisionCandidate {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("id".into(), self.id.into());
        m.insert("tenant".into(), self.tenant.as_str().into());
        m.insert("score".into(), self.score.into());
        m.insert("priority".into(), u64::from(self.priority).into());
        m.insert("arrival".into(), self.arrival.into());
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let get = |k: &str| v.get(k).ok_or_else(|| format!("candidate missing {k:?}"));
        Ok(Self {
            id: get("id")?.as_u64().ok_or("candidate id not u64")?,
            tenant: get("tenant")?
                .as_str()
                .ok_or("candidate tenant not a string")?
                .to_string(),
            score: get("score")?.as_f64().ok_or("candidate score not f64")?,
            priority: get("priority")?
                .as_u64()
                .and_then(|p| u8::try_from(p).ok())
                .ok_or("candidate priority not u8")?,
            arrival: get("arrival")?
                .as_f64()
                .ok_or("candidate arrival not f64")?,
        })
    }
}

impl EventKind {
    /// Stable event-type name (the JSONL `event` field).
    pub fn name(&self) -> &str {
        match self {
            EventKind::Submit { .. } => "submit",
            EventKind::Reject { .. } => "reject",
            EventKind::Dispatch { .. } => "dispatch",
            EventKind::Replan { .. } => "replan",
            EventKind::Shed { .. } => "shed",
            EventKind::Complete { .. } => "complete",
            EventKind::AlertFired { .. } => "alert_fired",
            EventKind::AlertCleared { .. } => "alert_cleared",
            EventKind::FaultInjected { .. } => "fault_injected",
            EventKind::FaultCleared { .. } => "fault_cleared",
            EventKind::RecoverRetry { .. } => "recover_retry",
            EventKind::RecoverRestart { .. } => "recover_restart",
            EventKind::RecoverReplan { .. } => "recover_replan",
            EventKind::RecoverShed { .. } => "recover_shed",
            EventKind::Decision { .. } => "decision",
            EventKind::RequestArrive { .. } => "request_arrive",
            EventKind::RequestPrefill { .. } => "request_prefill",
            EventKind::RequestComplete { .. } => "request_complete",
            EventKind::RequestReject { .. } => "request_reject",
            EventKind::RequestTimeout { .. } => "request_timeout",
            EventKind::ServingPreempt { .. } => "serving_preempt",
            EventKind::ServingResume { .. } => "serving_resume",
            EventKind::Opaque { name, .. } => name,
            EventKind::Final { .. } => "final",
        }
    }
}

/// One journal line: sequence number, tick, simulated time, and the event.
#[derive(Debug, Clone, PartialEq)]
pub struct JournalEvent {
    /// Monotonic per-journal sequence number, starting at 0.
    pub seq: u64,
    /// Service tick the event happened at.
    pub tick: u64,
    /// Simulated time, seconds.
    pub now: f64,
    /// The event.
    pub kind: EventKind,
}

impl JournalEvent {
    /// Serializes the event as one JSON object (one JSONL line).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("seq".into(), self.seq.into());
        m.insert("tick".into(), self.tick.into());
        m.insert("now".into(), self.now.into());
        m.insert("event".into(), self.kind.name().into());
        match &self.kind {
            EventKind::Submit {
                job,
                tenant,
                backbone,
                total_tokens,
                slo_seconds,
            } => {
                m.insert("job".into(), (*job).into());
                m.insert("tenant".into(), tenant.as_str().into());
                m.insert("backbone".into(), backbone.as_str().into());
                m.insert("total_tokens".into(), (*total_tokens).into());
                m.insert(
                    "slo_seconds".into(),
                    slo_seconds.map(Value::from).unwrap_or(Value::Null),
                );
            }
            EventKind::Reject { job, reason } => {
                m.insert("job".into(), (*job).into());
                m.insert("reason".into(), reason.as_str().into());
            }
            EventKind::Dispatch { job, instance } => {
                m.insert("job".into(), (*job).into());
                m.insert("instance".into(), (*instance).into());
            }
            EventKind::Replan {
                instance,
                epoch,
                tasks,
            } => {
                m.insert("instance".into(), (*instance).into());
                m.insert("epoch".into(), (*epoch).into());
                m.insert("tasks".into(), (*tasks).into());
            }
            EventKind::Shed {
                job,
                instance,
                reason,
            } => {
                m.insert("job".into(), (*job).into());
                m.insert("instance".into(), (*instance).into());
                m.insert("reason".into(), reason.as_str().into());
            }
            EventKind::Complete { job } => {
                m.insert("job".into(), (*job).into());
            }
            EventKind::AlertFired {
                rule,
                severity,
                job,
                window,
                value,
                threshold,
            } => {
                m.insert("rule".into(), rule.as_str().into());
                m.insert("severity".into(), severity.as_str().into());
                m.insert("job".into(), (*job).into());
                m.insert("window".into(), (*window).into());
                m.insert("value".into(), (*value).into());
                m.insert("threshold".into(), (*threshold).into());
            }
            EventKind::AlertCleared { rule, job } => {
                m.insert("rule".into(), rule.as_str().into());
                m.insert("job".into(), (*job).into());
            }
            EventKind::FaultInjected {
                kind,
                instance,
                device,
                magnitude,
            } => {
                m.insert("kind".into(), kind.as_str().into());
                m.insert("instance".into(), (*instance).into());
                m.insert(
                    "device".into(),
                    device.map(|d| Value::from(d as u64)).unwrap_or(Value::Null),
                );
                m.insert("magnitude".into(), (*magnitude).into());
            }
            EventKind::FaultCleared { kind, instance } => {
                m.insert("kind".into(), kind.as_str().into());
                m.insert("instance".into(), (*instance).into());
            }
            EventKind::RecoverRetry {
                instance,
                attempt,
                backoff_seconds,
            } => {
                m.insert("instance".into(), (*instance).into());
                m.insert("attempt".into(), (*attempt).into());
                m.insert("backoff_seconds".into(), (*backoff_seconds).into());
            }
            EventKind::RecoverRestart {
                job,
                instance,
                checkpoint_tokens,
            } => {
                m.insert("job".into(), (*job).into());
                m.insert("instance".into(), (*instance).into());
                m.insert("checkpoint_tokens".into(), (*checkpoint_tokens).into());
            }
            EventKind::RecoverReplan {
                instance,
                devices_left,
                epoch,
            } => {
                m.insert("instance".into(), (*instance).into());
                m.insert("devices_left".into(), (*devices_left).into());
                m.insert("epoch".into(), (*epoch).into());
            }
            EventKind::RecoverShed {
                job,
                instance,
                reason,
            } => {
                m.insert("job".into(), (*job).into());
                m.insert("instance".into(), (*instance).into());
                m.insert("reason".into(), reason.as_str().into());
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
                m.insert("policy".into(), policy.as_str().into());
                m.insert("action".into(), action.as_str().into());
                m.insert("score_kind".into(), score_kind.as_str().into());
                m.insert("chosen".into(), (*chosen).into());
                m.insert("job".into(), job.map(Value::from).unwrap_or(Value::Null));
                m.insert(
                    "instance".into(),
                    instance
                        .map(|i| Value::from(i as u64))
                        .unwrap_or(Value::Null),
                );
                m.insert("considered".into(), (*considered).into());
                m.insert(
                    "candidates".into(),
                    Value::Array(candidates.iter().map(DecisionCandidate::to_json).collect()),
                );
            }
            EventKind::RequestArrive {
                request,
                tenant,
                prompt_tokens,
                output_tokens,
            } => {
                m.insert("request".into(), (*request).into());
                m.insert("tenant".into(), tenant.as_str().into());
                m.insert("prompt_tokens".into(), (*prompt_tokens).into());
                m.insert("output_tokens".into(), (*output_tokens).into());
            }
            EventKind::RequestPrefill {
                request,
                ttft_seconds,
            } => {
                m.insert("request".into(), (*request).into());
                m.insert("ttft_seconds".into(), (*ttft_seconds).into());
            }
            EventKind::RequestComplete {
                request,
                decode_tokens,
                latency_seconds,
            } => {
                m.insert("request".into(), (*request).into());
                m.insert("decode_tokens".into(), (*decode_tokens).into());
                m.insert("latency_seconds".into(), (*latency_seconds).into());
            }
            EventKind::RequestReject { request, reason } => {
                m.insert("request".into(), (*request).into());
                m.insert("reason".into(), reason.as_str().into());
            }
            EventKind::RequestTimeout {
                request,
                waited_seconds,
            } => {
                m.insert("request".into(), (*request).into());
                m.insert("waited_seconds".into(), (*waited_seconds).into());
            }
            EventKind::ServingPreempt { instance } => {
                m.insert("instance".into(), (*instance).into());
            }
            EventKind::ServingResume { instance } => {
                m.insert("instance".into(), (*instance).into());
            }
            EventKind::Opaque { payload, .. } => {
                for (k, v) in payload {
                    m.insert(k.clone(), v.clone());
                }
            }
            EventKind::Final { jobs, alerts } => {
                let mut jm = Map::new();
                for (job, state) in jobs {
                    jm.insert(job.to_string(), state.as_str().into());
                }
                m.insert("jobs".into(), Value::Object(jm));
                let am: Vec<Value> = alerts
                    .iter()
                    .map(|(rule, job)| {
                        let mut e = Map::new();
                        e.insert("rule".into(), rule.as_str().into());
                        e.insert("job".into(), (*job).into());
                        Value::Object(e)
                    })
                    .collect();
                m.insert("alerts".into(), Value::Array(am));
            }
        }
        Value::Object(m)
    }

    /// Parses one JSONL line back into an event.
    pub fn from_json(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("journal line is not an object")?;
        let get_u64 = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        let get_f64 = |k: &str| -> Result<f64, String> {
            obj.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        let get_str = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        let seq = get_u64("seq")?;
        let tick = get_u64("tick")?;
        let now = get_f64("now")?;
        let event = get_str("event")?;
        let kind = match event.as_str() {
            "submit" => EventKind::Submit {
                job: get_u64("job")?,
                // Journals written before tenants existed have no field;
                // they replay into the default tenant.
                tenant: obj
                    .get("tenant")
                    .and_then(Value::as_str)
                    .unwrap_or("default")
                    .to_string(),
                backbone: get_str("backbone")?,
                total_tokens: get_u64("total_tokens")?,
                slo_seconds: obj.get("slo_seconds").and_then(Value::as_f64),
            },
            "reject" => EventKind::Reject {
                job: get_u64("job")?,
                reason: get_str("reason")?,
            },
            "dispatch" => EventKind::Dispatch {
                job: get_u64("job")?,
                instance: get_u64("instance")? as usize,
            },
            "replan" => EventKind::Replan {
                instance: get_u64("instance")? as usize,
                epoch: get_u64("epoch")?,
                tasks: get_u64("tasks")? as usize,
            },
            "shed" => EventKind::Shed {
                job: get_u64("job")?,
                instance: get_u64("instance")? as usize,
                reason: get_str("reason")?,
            },
            "complete" => EventKind::Complete {
                job: get_u64("job")?,
            },
            "alert_fired" => EventKind::AlertFired {
                rule: get_str("rule")?,
                severity: get_str("severity")?,
                job: get_u64("job")?,
                window: get_u64("window")? as usize,
                value: get_f64("value")?,
                threshold: get_f64("threshold")?,
            },
            "alert_cleared" => EventKind::AlertCleared {
                rule: get_str("rule")?,
                job: get_u64("job")?,
            },
            "fault_injected" => EventKind::FaultInjected {
                kind: get_str("kind")?,
                instance: get_u64("instance")? as usize,
                device: obj
                    .get("device")
                    .and_then(Value::as_u64)
                    .map(|d| d as usize),
                magnitude: get_f64("magnitude")?,
            },
            "fault_cleared" => EventKind::FaultCleared {
                kind: get_str("kind")?,
                instance: get_u64("instance")? as usize,
            },
            "recover_retry" => EventKind::RecoverRetry {
                instance: get_u64("instance")? as usize,
                attempt: get_u64("attempt")?,
                backoff_seconds: get_f64("backoff_seconds")?,
            },
            "recover_restart" => EventKind::RecoverRestart {
                job: get_u64("job")?,
                instance: get_u64("instance")? as usize,
                checkpoint_tokens: get_f64("checkpoint_tokens")?,
            },
            "recover_replan" => EventKind::RecoverReplan {
                instance: get_u64("instance")? as usize,
                devices_left: get_u64("devices_left")? as usize,
                epoch: get_u64("epoch")?,
            },
            "recover_shed" => EventKind::RecoverShed {
                job: get_u64("job")?,
                instance: get_u64("instance")? as usize,
                reason: get_str("reason")?,
            },
            "decision" => EventKind::Decision {
                policy: get_str("policy")?,
                action: get_str("action")?,
                score_kind: get_str("score_kind")?,
                chosen: get_u64("chosen")?,
                job: obj.get("job").and_then(Value::as_u64),
                instance: obj
                    .get("instance")
                    .and_then(Value::as_u64)
                    .map(|i| i as usize),
                considered: get_u64("considered")? as usize,
                candidates: obj
                    .get("candidates")
                    .and_then(Value::as_array)
                    .ok_or("decision missing candidates array")?
                    .iter()
                    .map(DecisionCandidate::from_json)
                    .collect::<Result<Vec<_>, _>>()?,
            },
            "final" => {
                let jobs_obj = obj
                    .get("jobs")
                    .and_then(Value::as_object)
                    .ok_or("final record missing jobs map")?;
                let mut jobs = BTreeMap::new();
                for (k, v) in jobs_obj {
                    let job: u64 = k.parse().map_err(|_| format!("bad job id {k:?}"))?;
                    let state = v.as_str().ok_or("job state is not a string")?;
                    jobs.insert(job, state.to_string());
                }
                let alerts_arr = obj
                    .get("alerts")
                    .and_then(Value::as_array)
                    .ok_or("final record missing alerts array")?;
                let mut alerts = BTreeSet::new();
                for a in alerts_arr {
                    let rule = a
                        .get("rule")
                        .and_then(Value::as_str)
                        .ok_or("alert missing rule")?;
                    let job = a
                        .get("job")
                        .and_then(Value::as_u64)
                        .ok_or("alert missing job")?;
                    alerts.insert((rule.to_string(), job));
                }
                EventKind::Final { jobs, alerts }
            }
            "request_arrive" => EventKind::RequestArrive {
                request: get_u64("request")?,
                tenant: get_str("tenant")?,
                prompt_tokens: get_u64("prompt_tokens")?,
                output_tokens: get_u64("output_tokens")?,
            },
            "request_prefill" => EventKind::RequestPrefill {
                request: get_u64("request")?,
                ttft_seconds: get_f64("ttft_seconds")?,
            },
            "request_complete" => EventKind::RequestComplete {
                request: get_u64("request")?,
                decode_tokens: get_u64("decode_tokens")?,
                latency_seconds: get_f64("latency_seconds")?,
            },
            "request_reject" => EventKind::RequestReject {
                request: get_u64("request")?,
                reason: get_str("reason")?,
            },
            "request_timeout" => EventKind::RequestTimeout {
                request: get_u64("request")?,
                waited_seconds: get_f64("waited_seconds")?,
            },
            "serving_preempt" => EventKind::ServingPreempt {
                instance: get_u64("instance")? as usize,
            },
            "serving_resume" => EventKind::ServingResume {
                instance: get_u64("instance")? as usize,
            },
            // Unknown kinds (journals written by newer builds) are carried
            // verbatim and replay as no-ops, so older readers still verify
            // the job/alert state they do understand.
            other => EventKind::Opaque {
                name: other.to_string(),
                payload: obj
                    .iter()
                    .filter(|(k, _)| !matches!(k.as_str(), "seq" | "tick" | "now" | "event"))
                    .map(|(k, v)| (k.clone(), v.clone()))
                    .collect(),
            },
        };
        Ok(JournalEvent {
            seq,
            tick,
            now,
            kind,
        })
    }
}

/// Parses a JSONL journal into its events, validating that sequence
/// numbers are the contiguous run 0..n (any splice or dropped line breaks
/// this). Blank lines are skipped; every error names its 1-based line.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut events: Vec<JournalEvent> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            serde_json::from_str(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let ev = JournalEvent::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
        if ev.seq != events.len() as u64 {
            return Err(format!(
                "line {}: sequence gap: expected seq {}, found {}",
                i + 1,
                events.len(),
                ev.seq
            ));
        }
        events.push(ev);
    }
    Ok(events)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_jsonl_rejects_garbage_and_gaps_naming_the_line() {
        let err = parse_jsonl("not json\n").unwrap_err();
        assert!(err.starts_with("line 1: invalid JSON"), "{err}");
        assert_eq!(
            parse_jsonl("{\"seq\":0}\n").unwrap_err(),
            "line 1: missing/invalid field \"tick\""
        );
        let complete = |seq: u64| {
            format!("{{\"seq\":{seq},\"tick\":0,\"now\":0.0,\"event\":\"complete\",\"job\":1}}\n")
        };
        assert_eq!(
            parse_jsonl(&complete(1)).unwrap_err(),
            "line 1: sequence gap: expected seq 0, found 1"
        );
        let spliced = format!("{}\n{}{}", complete(0), complete(1), complete(1));
        assert_eq!(
            parse_jsonl(&spliced).unwrap_err(),
            "line 4: sequence gap: expected seq 2, found 1",
            "blank lines are skipped but still counted"
        );
        assert!(parse_jsonl("\n\n").unwrap().is_empty());
    }
}
