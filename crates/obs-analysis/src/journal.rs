//! The event journal's line format: one typed [`JournalEvent`] per JSONL
//! line, the one writer that encodes it ([`JournalEvent::write_jsonl`]),
//! and the one reader every consumer parses it with ([`parse_jsonl`]).
//!
//! Each [`JournalEvent`] carries a monotonically increasing sequence
//! number, the service tick and simulated time it happened at, and a
//! typed [`EventKind`]. The service's `mux_api::Journal` writes these
//! lines and re-exports every name defined here; its replay and verify,
//! [`analyze_journal`](crate::lifecycle::analyze_journal), and the
//! workload crate's request census all fold over the same enum read by
//! [`parse_jsonl`]. The key set per event kind is pinned by the
//! `journal_line.schema.json` golden.

use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write;

use serde_json::{escape_into, float_into, Lexer, Map, Number, Token, Value};

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
    /// Appends the event's JSONL line to `out`: one JSON object, without
    /// the trailing newline, written straight from the typed event.
    ///
    /// This is the line format's one encoder:
    /// - keys come out in byte order, the `event`/`now`/`seq`/`tick`
    ///   envelope merged in among the payload's keys;
    /// - integers print as `{v}`, and floats as `serde_json`'s
    ///   [`Number`] prints them (`{v:.1}` when integral below 1e15, `{v}`
    ///   otherwise, `null` when not finite);
    /// - strings are escaped by `serde_json`'s [`escape_into`];
    /// - [`EventKind::Final`]'s job ids sort as decimal strings (`"10"` <
    ///   `"2"`);
    /// - [`EventKind::Opaque`] payload values go through `serde_json`'s
    ///   writer, and a payload key equal to an envelope key replaces that
    ///   envelope member.
    pub fn write_jsonl(&self, out: &mut String) {
        let mut w = ObjectWriter::new(out, Some(self));
        match &self.kind {
            EventKind::Submit {
                job,
                tenant,
                backbone,
                total_tokens,
                slo_seconds,
            } => {
                w.str("backbone", backbone);
                w.u64("job", *job);
                w.opt_f64("slo_seconds", *slo_seconds);
                w.str("tenant", tenant);
                w.u64("total_tokens", *total_tokens);
            }
            EventKind::Reject { job, reason } => {
                w.u64("job", *job);
                w.str("reason", reason);
            }
            EventKind::Dispatch { job, instance } => {
                w.u64("instance", *instance as u64);
                w.u64("job", *job);
            }
            EventKind::Replan {
                instance,
                epoch,
                tasks,
            } => {
                w.u64("epoch", *epoch);
                w.u64("instance", *instance as u64);
                w.u64("tasks", *tasks as u64);
            }
            EventKind::Shed {
                job,
                instance,
                reason,
            }
            | EventKind::RecoverShed {
                job,
                instance,
                reason,
            } => {
                w.u64("instance", *instance as u64);
                w.u64("job", *job);
                w.str("reason", reason);
            }
            EventKind::Complete { job } => w.u64("job", *job),
            EventKind::AlertFired {
                rule,
                severity,
                job,
                window,
                value,
                threshold,
            } => {
                w.u64("job", *job);
                w.str("rule", rule);
                w.str("severity", severity);
                w.f64("threshold", *threshold);
                w.f64("value", *value);
                w.u64("window", *window as u64);
            }
            EventKind::AlertCleared { rule, job } => {
                w.u64("job", *job);
                w.str("rule", rule);
            }
            EventKind::FaultInjected {
                kind,
                instance,
                device,
                magnitude,
            } => {
                w.opt_u64("device", device.map(|d| d as u64));
                w.u64("instance", *instance as u64);
                w.str("kind", kind);
                w.f64("magnitude", *magnitude);
            }
            EventKind::FaultCleared { kind, instance } => {
                w.u64("instance", *instance as u64);
                w.str("kind", kind);
            }
            EventKind::RecoverRetry {
                instance,
                attempt,
                backoff_seconds,
            } => {
                w.u64("attempt", *attempt);
                w.f64("backoff_seconds", *backoff_seconds);
                w.u64("instance", *instance as u64);
            }
            EventKind::RecoverRestart {
                job,
                instance,
                checkpoint_tokens,
            } => {
                w.f64("checkpoint_tokens", *checkpoint_tokens);
                w.u64("instance", *instance as u64);
                w.u64("job", *job);
            }
            EventKind::RecoverReplan {
                instance,
                devices_left,
                epoch,
            } => {
                w.u64("devices_left", *devices_left as u64);
                w.u64("epoch", *epoch);
                w.u64("instance", *instance as u64);
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
                w.str("action", action);
                write_array(w.key("candidates"), candidates, |out, c| {
                    let mut o = ObjectWriter::new(out, None);
                    o.f64("arrival", c.arrival);
                    o.u64("id", c.id);
                    o.u64("priority", u64::from(c.priority));
                    o.f64("score", c.score);
                    o.str("tenant", &c.tenant);
                    o.finish();
                });
                w.u64("chosen", *chosen);
                w.u64("considered", *considered as u64);
                w.opt_u64("instance", instance.map(|i| i as u64));
                w.opt_u64("job", *job);
                w.str("policy", policy);
                w.str("score_kind", score_kind);
            }
            EventKind::RequestArrive {
                request,
                tenant,
                prompt_tokens,
                output_tokens,
            } => {
                w.u64("output_tokens", *output_tokens);
                w.u64("prompt_tokens", *prompt_tokens);
                w.u64("request", *request);
                w.str("tenant", tenant);
            }
            EventKind::RequestPrefill {
                request,
                ttft_seconds,
            } => {
                w.u64("request", *request);
                w.f64("ttft_seconds", *ttft_seconds);
            }
            EventKind::RequestComplete {
                request,
                decode_tokens,
                latency_seconds,
            } => {
                w.u64("decode_tokens", *decode_tokens);
                w.f64("latency_seconds", *latency_seconds);
                w.u64("request", *request);
            }
            EventKind::RequestReject { request, reason } => {
                w.str("reason", reason);
                w.u64("request", *request);
            }
            EventKind::RequestTimeout {
                request,
                waited_seconds,
            } => {
                w.u64("request", *request);
                w.f64("waited_seconds", *waited_seconds);
            }
            EventKind::ServingPreempt { instance } | EventKind::ServingResume { instance } => {
                w.u64("instance", *instance as u64);
            }
            EventKind::Opaque { payload, .. } => {
                for (k, v) in payload {
                    let out = w.key(k);
                    write!(out, "{v}").expect("writing to a String cannot fail");
                }
            }
            EventKind::Final { jobs, alerts } => {
                write_array(w.key("alerts"), alerts, |out, (rule, job)| {
                    let mut o = ObjectWriter::new(out, None);
                    o.u64("job", *job);
                    o.str("rule", rule);
                    o.finish();
                });
                let mut by_name: Vec<(&u64, &String)> = jobs.iter().collect();
                by_name.sort_by(|a, b| decimal_order(*a.0, *b.0));
                let out = w.key("jobs");
                out.push('{');
                for (i, (job, state)) in by_name.into_iter().enumerate() {
                    if i > 0 {
                        out.push(',');
                    }
                    out.push('"');
                    write_u64(out, *job);
                    out.push_str("\":");
                    escape_into(state, out);
                }
                out.push('}');
            }
        }
        w.finish();
    }
}

/// Parses a JSONL journal into its events, validating that sequence
/// numbers are the contiguous run 0..n (any splice or dropped line breaks
/// this). Blank lines are skipped; every error names its 1-based line.
///
/// Each line is read in one pass straight into its [`JournalEvent`], on
/// `serde_json`'s own [`Lexer`]: the member values are held as tokens
/// borrowed from the line and checked once it ends, in a fixed field
/// order, with a key's last member winning. Arrays and objects nest at
/// most 128 deep; a deeper line is an `invalid JSON` error.
pub fn parse_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut events: Vec<JournalEvent> = Vec::new();
    // One member buffer for every line.
    let mut members = Members::default();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let ev = read_line(line, &mut members).map_err(|e| format!("line {}: {e}", i + 1))?;
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

/// A member value as a typed field reads it, borrowed from the line.
enum Tok<'a> {
    Num(Number),
    Str(Cow<'a, str>),
    /// A `candidates` array, decoded in place: every candidate, or the
    /// first one's error.
    Candidates(Result<Vec<DecisionCandidate>, String>),
    /// `null`, a boolean, or an array or object no typed field reads.
    Other,
}

impl<'a> Tok<'a> {
    /// Reads the rest of the member value `first` began.
    fn read(lx: &mut Lexer<'a>, first: Token<'a>) -> Result<Self, serde_json::Error> {
        Ok(match first {
            Token::Number(n) => Tok::Num(n),
            Token::String(s) => Tok::Str(s),
            first => {
                lx.value_from(first)?;
                Tok::Other
            }
        })
    }

    fn as_u64(&self) -> Option<u64> {
        match self {
            Tok::Num(n) => n.as_u64(),
            _ => None,
        }
    }

    fn as_f64(&self) -> Option<f64> {
        match self {
            Tok::Num(n) => Some(n.as_f64()),
            _ => None,
        }
    }

    fn as_str(&self) -> Option<&str> {
        match self {
            Tok::Str(s) => Some(s),
            _ => None,
        }
    }
}

/// One object's members in text order. A key's last member wins, as a
/// `Map` insert let it.
#[derive(Default)]
struct Members<'a>(Vec<(Cow<'a, str>, Tok<'a>)>);

impl<'a> Members<'a> {
    /// Reads the members of the object `lx` just opened. With
    /// `candidates`, a `candidates` array is decoded in place.
    fn read(&mut self, lx: &mut Lexer<'a>, candidates: bool) -> Result<(), serde_json::Error> {
        self.0.clear();
        while !lx.close(b'}') {
            let key = lx.key()?;
            let tok = match lx.token()? {
                Token::Array if candidates && key == "candidates" => {
                    Tok::Candidates(read_candidates(lx)?)
                }
                first => Tok::read(lx, first)?,
            };
            self.0.push((key, tok));
            lx.item_end(b'}')?;
        }
        Ok(())
    }

    fn get(&self, key: &str) -> Option<&Tok<'a>> {
        self.0.iter().rev().find(|(k, _)| k == key).map(|(_, t)| t)
    }

    fn u64(&self, key: &str) -> Result<u64, String> {
        self.get(key)
            .and_then(Tok::as_u64)
            .ok_or_else(|| format!("missing/invalid field {key:?}"))
    }

    fn f64(&self, key: &str) -> Result<f64, String> {
        self.get(key)
            .and_then(Tok::as_f64)
            .ok_or_else(|| format!("missing/invalid field {key:?}"))
    }

    fn str(&self, key: &str) -> Result<&str, String> {
        self.get(key)
            .and_then(Tok::as_str)
            .ok_or_else(|| format!("missing/invalid field {key:?}"))
    }

    fn string(&self, key: &str) -> Result<String, String> {
        self.str(key).map(str::to_string)
    }

    /// One candidate from its object's members, checked in field order.
    fn candidate(&self) -> Result<DecisionCandidate, String> {
        let get = |k: &str| {
            self.get(k)
                .ok_or_else(|| format!("candidate missing {k:?}"))
        };
        Ok(DecisionCandidate {
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

    /// Moves out the last `candidates` member's decode.
    fn take_candidates(&mut self) -> Result<Vec<DecisionCandidate>, String> {
        let last = self.0.iter_mut().rev().find(|(k, _)| k == "candidates");
        match last.map(|(_, t)| std::mem::replace(t, Tok::Other)) {
            Some(Tok::Candidates(decoded)) => decoded,
            _ => Err("decision missing candidates array".into()),
        }
    }
}

/// Reads one line straight into its event. The lexer's tokens are held
/// per member in `m` until the line ends, then checked field by field in
/// a fixed order, so a line's first error does not depend on the order of
/// its members, and a key's last member wins. Only `final` and unknown
/// kinds, whose payloads are maps and arbitrary values, read the line
/// again as a `Value` tree.
fn read_line<'a>(line: &'a str, m: &mut Members<'a>) -> Result<JournalEvent, String> {
    let is_object = lex_line(line, m).map_err(|e| format!("invalid JSON: {e}"))?;
    if !is_object {
        return Err("journal line is not an object".into());
    }
    let seq = m.u64("seq")?;
    let tick = m.u64("tick")?;
    let now = m.f64("now")?;
    let kind = match m.str("event")? {
        "submit" => EventKind::Submit {
            job: m.u64("job")?,
            // Journals written before tenants existed have no field;
            // they replay into the default tenant.
            tenant: m
                .get("tenant")
                .and_then(Tok::as_str)
                .unwrap_or("default")
                .to_string(),
            backbone: m.string("backbone")?,
            total_tokens: m.u64("total_tokens")?,
            slo_seconds: m.get("slo_seconds").and_then(Tok::as_f64),
        },
        "reject" => EventKind::Reject {
            job: m.u64("job")?,
            reason: m.string("reason")?,
        },
        "dispatch" => EventKind::Dispatch {
            job: m.u64("job")?,
            instance: m.u64("instance")? as usize,
        },
        "replan" => EventKind::Replan {
            instance: m.u64("instance")? as usize,
            epoch: m.u64("epoch")?,
            tasks: m.u64("tasks")? as usize,
        },
        "shed" => EventKind::Shed {
            job: m.u64("job")?,
            instance: m.u64("instance")? as usize,
            reason: m.string("reason")?,
        },
        "complete" => EventKind::Complete { job: m.u64("job")? },
        "alert_fired" => EventKind::AlertFired {
            rule: m.string("rule")?,
            severity: m.string("severity")?,
            job: m.u64("job")?,
            window: m.u64("window")? as usize,
            value: m.f64("value")?,
            threshold: m.f64("threshold")?,
        },
        "alert_cleared" => EventKind::AlertCleared {
            rule: m.string("rule")?,
            job: m.u64("job")?,
        },
        "fault_injected" => EventKind::FaultInjected {
            kind: m.string("kind")?,
            instance: m.u64("instance")? as usize,
            device: m.get("device").and_then(Tok::as_u64).map(|d| d as usize),
            magnitude: m.f64("magnitude")?,
        },
        "fault_cleared" => EventKind::FaultCleared {
            kind: m.string("kind")?,
            instance: m.u64("instance")? as usize,
        },
        "recover_retry" => EventKind::RecoverRetry {
            instance: m.u64("instance")? as usize,
            attempt: m.u64("attempt")?,
            backoff_seconds: m.f64("backoff_seconds")?,
        },
        "recover_restart" => EventKind::RecoverRestart {
            job: m.u64("job")?,
            instance: m.u64("instance")? as usize,
            checkpoint_tokens: m.f64("checkpoint_tokens")?,
        },
        "recover_replan" => EventKind::RecoverReplan {
            instance: m.u64("instance")? as usize,
            devices_left: m.u64("devices_left")? as usize,
            epoch: m.u64("epoch")?,
        },
        "recover_shed" => EventKind::RecoverShed {
            job: m.u64("job")?,
            instance: m.u64("instance")? as usize,
            reason: m.string("reason")?,
        },
        "decision" => EventKind::Decision {
            policy: m.string("policy")?,
            action: m.string("action")?,
            score_kind: m.string("score_kind")?,
            chosen: m.u64("chosen")?,
            job: m.get("job").and_then(Tok::as_u64),
            instance: m.get("instance").and_then(Tok::as_u64).map(|i| i as usize),
            considered: m.u64("considered")? as usize,
            candidates: m.take_candidates()?,
        },
        "final" => final_record(&tree(line)?)?,
        "request_arrive" => EventKind::RequestArrive {
            request: m.u64("request")?,
            tenant: m.string("tenant")?,
            prompt_tokens: m.u64("prompt_tokens")?,
            output_tokens: m.u64("output_tokens")?,
        },
        "request_prefill" => EventKind::RequestPrefill {
            request: m.u64("request")?,
            ttft_seconds: m.f64("ttft_seconds")?,
        },
        "request_complete" => EventKind::RequestComplete {
            request: m.u64("request")?,
            decode_tokens: m.u64("decode_tokens")?,
            latency_seconds: m.f64("latency_seconds")?,
        },
        "request_reject" => EventKind::RequestReject {
            request: m.u64("request")?,
            reason: m.string("reason")?,
        },
        "request_timeout" => EventKind::RequestTimeout {
            request: m.u64("request")?,
            waited_seconds: m.f64("waited_seconds")?,
        },
        "serving_preempt" => EventKind::ServingPreempt {
            instance: m.u64("instance")? as usize,
        },
        "serving_resume" => EventKind::ServingResume {
            instance: m.u64("instance")? as usize,
        },
        // Unknown kinds (journals written by newer builds) are carried
        // verbatim and replay as no-ops, so older readers still verify
        // the job/alert state they do understand.
        other => EventKind::Opaque {
            name: other.to_string(),
            payload: tree(line)?
                .into_iter()
                .filter(|(k, _)| !ENVELOPE.contains(&k.as_str()))
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

/// Lexes the whole line, holding an object's members in `m`; `Ok(false)`
/// when the line is JSON but no object.
fn lex_line<'a>(line: &'a str, m: &mut Members<'a>) -> Result<bool, serde_json::Error> {
    let mut lx = Lexer::new(line);
    let is_object = match lx.token()? {
        Token::Object => {
            m.read(&mut lx, true)?;
            true
        }
        first => {
            lx.value_from(first)?;
            false
        }
    };
    lx.end()?;
    Ok(is_object)
}

/// Decodes the `candidates` array `lx` just opened: every candidate, or
/// the first one's error.
fn read_candidates(
    lx: &mut Lexer<'_>,
) -> Result<Result<Vec<DecisionCandidate>, String>, serde_json::Error> {
    let mut decoded = Ok(Vec::new());
    let mut fields = Members::default();
    while !lx.close(b']') {
        let candidate = match lx.token()? {
            Token::Object => {
                fields.read(lx, false)?;
                fields.candidate()
            }
            // Not an object: it has no `id`.
            first => {
                lx.value_from(first)?;
                Err("candidate missing \"id\"".to_string())
            }
        };
        if let Ok(list) = &mut decoded {
            match candidate {
                Ok(c) => list.push(c),
                Err(e) => decoded = Err(e),
            }
        }
        lx.item_end(b']')?;
    }
    Ok(decoded)
}

/// The line as a `Value` tree's top-level map.
fn tree(line: &str) -> Result<Map, String> {
    match serde_json::from_str(line).map_err(|e| format!("invalid JSON: {e}"))? {
        Value::Object(map) => Ok(map),
        _ => Err("journal line is not an object".into()),
    }
}

/// The `final` record's job map and alert set.
fn final_record(obj: &Map) -> Result<EventKind, String> {
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
    Ok(EventKind::Final { jobs, alerts })
}

/// The members every line carries besides its payload, in key order.
const ENVELOPE: [&str; 4] = ["event", "now", "seq", "tick"];

/// Writes one JSON object's members in key order. The caller hands over
/// the members in key order; a line's writer also holds its event and
/// writes each envelope member as soon as its key comes due.
struct ObjectWriter<'a> {
    out: &'a mut String,
    /// The event whose envelope this object carries (a line), if any.
    envelope: Option<&'a JournalEvent>,
    /// Envelope members written or replaced by a payload member so far.
    envelope_done: usize,
    /// Whether the next member needs a leading comma.
    comma: bool,
    /// The last key written (keys must strictly increase).
    last: &'a str,
}

impl<'a> ObjectWriter<'a> {
    fn new(out: &'a mut String, envelope: Option<&'a JournalEvent>) -> Self {
        out.push('{');
        Self {
            out,
            envelope,
            envelope_done: 0,
            comma: false,
            last: "",
        }
    }

    /// Starts the member `key` and returns the buffer its value goes to,
    /// after writing every envelope member whose key sorts before `key`.
    /// A `key` equal to an envelope key replaces that envelope member.
    fn key(&mut self, key: &'a str) -> &mut String {
        if let Some(ev) = self.envelope {
            while let Some(&env) = ENVELOPE.get(self.envelope_done) {
                match env.cmp(key) {
                    Ordering::Less => self.envelope_member(ev),
                    Ordering::Equal => {
                        self.envelope_done += 1;
                        break;
                    }
                    Ordering::Greater => break,
                }
            }
        }
        self.begin(key);
        self.out
    }

    fn begin(&mut self, key: &'a str) {
        debug_assert!(
            !self.comma || self.last < key,
            "key {key:?} written after {:?}",
            self.last
        );
        self.last = key;
        if self.comma {
            self.out.push(',');
        }
        self.comma = true;
        escape_into(key, self.out);
        self.out.push(':');
    }

    fn envelope_member(&mut self, ev: &JournalEvent) {
        let key = ENVELOPE[self.envelope_done];
        self.envelope_done += 1;
        self.begin(key);
        match key {
            "event" => escape_into(ev.kind.name(), self.out),
            "now" => write_f64(self.out, ev.now),
            "seq" => write_u64(self.out, ev.seq),
            _ => write_u64(self.out, ev.tick),
        }
    }

    fn u64(&mut self, key: &'a str, v: u64) {
        write_u64(self.key(key), v);
    }

    fn f64(&mut self, key: &'a str, v: f64) {
        write_f64(self.key(key), v);
    }

    fn str(&mut self, key: &'a str, v: &str) {
        escape_into(v, self.key(key));
    }

    fn opt_u64(&mut self, key: &'a str, v: Option<u64>) {
        match v {
            Some(v) => self.u64(key, v),
            None => self.key(key).push_str("null"),
        }
    }

    fn opt_f64(&mut self, key: &'a str, v: Option<f64>) {
        match v {
            Some(v) => self.f64(key, v),
            None => self.key(key).push_str("null"),
        }
    }

    /// Writes the envelope members still due and closes the object.
    fn finish(mut self) {
        if let Some(ev) = self.envelope {
            while self.envelope_done < ENVELOPE.len() {
                self.envelope_member(ev);
            }
        }
        self.out.push('}');
    }
}

/// Writes `items` as a JSON array, each element with `write`.
fn write_array<T>(
    out: &mut String,
    items: impl IntoIterator<Item = T>,
    mut write: impl FnMut(&mut String, T),
) {
    out.push('[');
    for (i, item) in items.into_iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write(out, item);
    }
    out.push(']');
}

/// Writes `v` in decimal, as `{v}` prints it.
fn write_u64(out: &mut String, mut v: u64) {
    let mut digits = [0u8; 20];
    let mut start = digits.len();
    loop {
        start -= 1;
        digits[start] = b'0' + (v % 10) as u8;
        v /= 10;
        if v == 0 {
            break;
        }
    }
    out.push_str(std::str::from_utf8(&digits[start..]).expect("decimal digits are ASCII"));
}

/// Writes `v` exactly as `serde_json` prints a float.
fn write_f64(out: &mut String, v: f64) {
    float_into(v, out).expect("writing to a String cannot fail");
}

/// Orders `a` and `b` as their decimal strings compare (`"10"` < `"2"`):
/// the order of [`EventKind::Final`]'s string-keyed `jobs` object.
fn decimal_order(a: u64, b: u64) -> Ordering {
    let digits = |v: u64| v.checked_ilog10().map_or(1, |d| d + 1);
    let (da, db) = (digits(a), digits(b));
    // Compare the longer number's leading digits with the shorter number;
    // on a tie the shorter string (a prefix of the other) sorts first.
    match da.cmp(&db) {
        Ordering::Equal => a.cmp(&b),
        Ordering::Less => a.cmp(&(b / 10u64.pow(db - da))).then(Ordering::Less),
        Ordering::Greater => (a / 10u64.pow(da - db)).cmp(&b).then(Ordering::Greater),
    }
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
        assert_eq!(
            parse_jsonl("[1]\n").unwrap_err(),
            "line 1: journal line is not an object"
        );
    }

    #[test]
    fn an_escaped_astral_tenant_reads_as_the_raw_line_does() {
        let event = JournalEvent {
            seq: 0,
            tick: 3,
            now: 1.25,
            kind: EventKind::Submit {
                job: 7,
                tenant: "team-\u{1d11e}\u{1f600}".into(),
                backbone: "LLaMA2-7B".into(),
                total_tokens: 4096,
                slo_seconds: None,
            },
        };
        let mut raw = String::new();
        event.write_jsonl(&mut raw);
        // Python's `json.dumps` writes each astral char as a surrogate
        // pair of `\u` escapes.
        let escaped = raw
            .replace("\u{1d11e}", "\\ud834\\udd1e")
            .replace("\u{1f600}", "\\uD83D\\uDE00");
        assert_ne!(escaped, raw);
        assert_eq!(parse_jsonl(&escaped).unwrap(), parse_jsonl(&raw).unwrap());
        assert_eq!(parse_jsonl(&raw).unwrap(), vec![event]);
    }

    #[test]
    fn a_deeply_nested_line_is_an_error_not_a_stack_overflow() {
        let depth = 50_000;
        let line = format!(
            "{{\"seq\":0,\"tick\":0,\"now\":0.0,\"event\":\"x\",\"p\":{}{}}}",
            "[".repeat(depth),
            "]".repeat(depth)
        );
        let err = parse_jsonl(&line).unwrap_err();
        assert!(err.starts_with("line 1: invalid JSON"), "{err}");
        assert!(err.contains("recursion limit exceeded"), "{err}");
    }

    /// Splitmix64 draws: random values for the number-format pins.
    fn random_u64s(n: usize) -> impl Iterator<Item = u64> {
        let mut x: u64 = 0x6a09_e667_f3bc_c908;
        (0..n).map(move |_| {
            x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        })
    }

    #[test]
    fn write_u64_prints_as_display_does() {
        let mut values = vec![0, 9, 10, 99, 100, u64::MAX];
        for k in 1..20 {
            let p = 10u64.pow(k);
            values.extend([p - 1, p, p + 1]);
        }
        // Random values at every magnitude, not only near 2^64.
        values.extend(random_u64s(5_000).map(|v| v >> (v % 64)));
        for v in values {
            let mut s = String::from("x");
            write_u64(&mut s, v);
            assert_eq!(s, format!("x{v}"));
        }
    }

    #[test]
    fn write_f64_prints_as_the_shims_number_does() {
        let edges = [
            0.0,
            -0.0,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            -f64::from_bits(1),
            999_999_999_999_999.0,
            999_999_999_999_999.5,
            1e15,
            1e15 + 2.0,
            -999_999_999_999_999.0,
            -1e15,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        for v in edges
            .into_iter()
            .chain(random_u64s(5_000).map(f64::from_bits))
        {
            let mut s = String::from("x");
            write_f64(&mut s, v);
            assert_eq!(s, format!("x{}", Number::Float(v)), "{:#x}", v.to_bits());
        }
    }
}
