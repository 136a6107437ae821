//! Oracles for the journal line codec.
//!
//! `JournalEvent::write_jsonl` writes each line straight from the typed
//! event. It must emit exactly the bytes of the format's original encoder,
//! which built every event into a `serde_json::Value` tree (a sorted
//! `Map` per object) and printed it with `serde_json::to_string`. That
//! encoder is kept below, verbatim, as the oracle; the writer is held to
//! it byte for byte on every event kind and on the edge values of every
//! field type. `Journal::fingerprint()` is pinned as the FNV-1a of
//! `Journal::to_jsonl()`.
//!
//! `parse_jsonl` reads each line in one pass straight into its event. It
//! must return exactly what the format's original decoder returned, which
//! parsed every line into a `Value` tree and looked each field up in it:
//! the same events with every float equal bit for bit, or the same error
//! text. That decoder is kept below, verbatim, as the reader's oracle. The
//! reader is held to it on every case, on two sealed journals, on every
//! pair of broken fields, and on random one-edit mutations of written
//! lines.

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::sync::OnceLock;

use muxtune::api::{DecisionCandidate, EventKind, Journal, JournalEvent, DECISION_CANDIDATE_CAP};
use muxtune::obs::fnv1a_64;
use muxtune::obs_analysis::journal::parse_jsonl;
use muxtune::workload::{
    replay_trace_by_name, run_serve_mix, ReplayOptions, ServeMixConfig, Trace,
};
use proptest::prelude::*;
use serde_json::{escape_into, Map, Number, Value};

fn oracle_candidate(c: &DecisionCandidate) -> Value {
    let mut m = Map::new();
    m.insert("id".into(), c.id.into());
    m.insert("tenant".into(), c.tenant.as_str().into());
    m.insert("score".into(), c.score.into());
    m.insert("priority".into(), u64::from(c.priority).into());
    m.insert("arrival".into(), c.arrival.into());
    Value::Object(m)
}

/// The line format's original encoder, kept verbatim as the byte oracle:
/// the event as a `Value` tree (a sorted `Map` per object).
fn oracle(ev: &JournalEvent) -> Value {
    let mut m = Map::new();
    m.insert("seq".into(), ev.seq.into());
    m.insert("tick".into(), ev.tick.into());
    m.insert("now".into(), ev.now.into());
    m.insert("event".into(), ev.kind.name().into());
    match &ev.kind {
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
                Value::Array(candidates.iter().map(oracle_candidate).collect()),
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

/// Strings with every escape the writer knows, control characters, and
/// multi-byte scalars, alone and mixed.
const STRINGS: [&str; 12] = [
    "",
    "plain",
    "quote\"d",
    "back\\slash",
    "line\nbreak",
    "cr\rreturn",
    "tab\there",
    "\u{1}start",
    "end\u{1f}",
    "é",
    "𝄞 clef",
    "é\"𝄞\\\n\r\t\u{1}\u{1f}é",
];

/// Zero of both signs, integral and fractional values on both sides of
/// the 1e15 cut-over, tiny and huge magnitudes, and the non-finite values.
const FLOATS: [f64; 13] = [
    0.0,
    -0.0,
    2.0,
    0.1,
    1e-7,
    999_999_999_999_999.0,
    1e15,
    1e300,
    -2.5,
    f64::NAN,
    f64::INFINITY,
    f64::NEG_INFINITY,
    123.456,
];

/// Integers on both sides of the `i64`/`u64` boundary.
const INTS: [u64; 5] = [0, 1, i64::MAX as u64, i64::MAX as u64 + 1, u64::MAX];

fn candidates(n: usize, i: usize) -> Vec<DecisionCandidate> {
    (0..n)
        .map(|k| DecisionCandidate {
            id: INTS[(i + k) % INTS.len()],
            tenant: STRINGS[(i + k) % STRINGS.len()].into(),
            score: FLOATS[(i + k) % FLOATS.len()],
            priority: INTS[(i + k + 1) % INTS.len()] as u8,
            arrival: FLOATS[(i + k + 1) % FLOATS.len()],
        })
        .collect()
}

/// Every event kind, with field `k` of each type taking value `i + k` of
/// its pool and every `Option` field `None` on odd `i`.
fn every_kind(i: usize) -> Vec<EventKind> {
    let s = |k: usize| STRINGS[(i + k) % STRINGS.len()].to_string();
    let f = |k: usize| FLOATS[(i + k) % FLOATS.len()];
    let u = |k: usize| INTS[(i + k) % INTS.len()];
    let some = i.is_multiple_of(2);
    let mut payload = Map::new();
    payload.insert(s(0), Value::from(u(1)));
    payload.insert(s(1), Value::from(f(2)));
    vec![
        EventKind::Submit {
            job: u(0),
            tenant: s(0),
            backbone: s(1),
            total_tokens: u(1),
            slo_seconds: some.then(|| f(0)),
        },
        EventKind::Reject {
            job: u(0),
            reason: s(0),
        },
        EventKind::Dispatch {
            job: u(0),
            instance: u(1) as usize,
        },
        EventKind::Replan {
            instance: u(0) as usize,
            epoch: u(1),
            tasks: u(2) as usize,
        },
        EventKind::Shed {
            job: u(0),
            instance: u(1) as usize,
            reason: s(0),
        },
        EventKind::Complete { job: u(0) },
        EventKind::AlertFired {
            rule: s(0),
            severity: s(1),
            job: u(0),
            window: u(1) as usize,
            value: f(0),
            threshold: f(1),
        },
        EventKind::AlertCleared {
            rule: s(0),
            job: u(0),
        },
        EventKind::FaultInjected {
            kind: s(0),
            instance: u(0) as usize,
            device: some.then(|| u(1) as usize),
            magnitude: f(0),
        },
        EventKind::FaultCleared {
            kind: s(0),
            instance: u(0) as usize,
        },
        EventKind::RecoverRetry {
            instance: u(0) as usize,
            attempt: u(1),
            backoff_seconds: f(0),
        },
        EventKind::RecoverRestart {
            job: u(0),
            instance: u(1) as usize,
            checkpoint_tokens: f(0),
        },
        EventKind::RecoverReplan {
            instance: u(0) as usize,
            devices_left: u(1) as usize,
            epoch: u(2),
        },
        EventKind::RecoverShed {
            job: u(0),
            instance: u(1) as usize,
            reason: s(0),
        },
        EventKind::Decision {
            policy: s(0),
            action: s(1),
            score_kind: s(2),
            chosen: u(0),
            job: some.then(|| u(1)),
            instance: some.then(|| u(2) as usize),
            considered: u(3) as usize,
            candidates: candidates(if some { DECISION_CANDIDATE_CAP } else { 0 }, i),
        },
        EventKind::RequestArrive {
            request: u(0),
            tenant: s(0),
            prompt_tokens: u(1),
            output_tokens: u(2),
        },
        EventKind::RequestPrefill {
            request: u(0),
            ttft_seconds: f(0),
        },
        EventKind::RequestComplete {
            request: u(0),
            decode_tokens: u(1),
            latency_seconds: f(0),
        },
        EventKind::RequestReject {
            request: u(0),
            reason: s(0),
        },
        EventKind::RequestTimeout {
            request: u(0),
            waited_seconds: f(0),
        },
        EventKind::ServingPreempt {
            instance: u(0) as usize,
        },
        EventKind::ServingResume {
            instance: u(0) as usize,
        },
        EventKind::Opaque {
            name: s(2),
            payload,
        },
        EventKind::Final {
            jobs: (0..3).map(|k| (u(k), s(k))).collect(),
            alerts: [(s(0), u(0)), (s(1), u(1))].into_iter().collect(),
        },
    ]
}

/// The hand-picked cases: `Final` ids whose decimal and numeric orders
/// differ, and `Opaque` payloads around and on the envelope keys.
fn edge_kinds() -> Vec<EventKind> {
    let final_of = |ids: &[u64]| EventKind::Final {
        jobs: ids.iter().map(|&id| (id, format!("state-{id}"))).collect(),
        alerts: BTreeSet::from([("slo_burn".into(), 10), ("stall".into(), 2)]),
    };
    let mut nested = Map::new();
    nested.insert("inner".into(), Value::from(vec![1.5, 2.0]));
    nested.insert("flag".into(), Value::Bool(true));
    let mut payload = Map::new();
    payload.insert("a".into(), Value::Object(nested));
    payload.insert("nova".into(), Value::from(vec![Value::Null, "é\n".into()]));
    payload.insert("now".into(), Value::from("the payload's now"));
    payload.insert("quote\"key".into(), Value::from(u64::MAX));
    payload.insert("zz".into(), Value::from(-7i64));
    let mut envelope_only = Map::new();
    envelope_only.insert("event".into(), Value::from("renamed"));
    envelope_only.insert("seq".into(), Value::Null);
    envelope_only.insert("tick".into(), Value::from(0.5));
    vec![
        final_of(&[2, 10, 100]),
        final_of(&[1, 2, 3, 9, 10, 11, 20, 99, 100, 101, 1000, u64::MAX]),
        final_of(&[]),
        EventKind::Final {
            jobs: BTreeMap::new(),
            alerts: BTreeSet::new(),
        },
        EventKind::Opaque {
            name: "frobnicate".into(),
            payload,
        },
        EventKind::Opaque {
            name: "envelope".into(),
            payload: envelope_only,
        },
        EventKind::Opaque {
            name: "empty".into(),
            payload: Map::new(),
        },
    ]
}

/// Every case as a journal event, the envelope cycling through the pools.
fn cases() -> Vec<JournalEvent> {
    let rounds = STRINGS.len().max(FLOATS.len()).max(INTS.len());
    (0..rounds)
        .flat_map(every_kind)
        .chain(edge_kinds())
        .enumerate()
        .map(|(i, kind)| JournalEvent {
            seq: INTS[i % INTS.len()],
            tick: INTS[(i + 2) % INTS.len()],
            now: FLOATS[i % FLOATS.len()],
            kind,
        })
        .collect()
}

fn oracle_line(ev: &JournalEvent) -> String {
    serde_json::to_string(&oracle(ev)).expect("serialize")
}

#[test]
fn writer_matches_the_value_tree_encoder_byte_for_byte() {
    let mut buf = String::new();
    for ev in cases() {
        let mut line = String::new();
        ev.write_jsonl(&mut line);
        assert_eq!(line, oracle_line(&ev), "{ev:?}");
        // The writer appends to what the buffer already holds.
        let before = buf.len();
        buf.push('\n');
        ev.write_jsonl(&mut buf);
        assert_eq!(buf[before + 1..], line);
    }
}

#[test]
fn fingerprint_is_the_fnv_of_the_written_text() {
    let empty = Journal::new();
    assert_eq!(empty.to_jsonl(), "");
    assert_eq!(empty.fingerprint(), fnv1a_64(b""));

    let mut journal = Journal::new();
    for ev in cases() {
        journal.push(ev.tick, ev.now, ev.kind);
    }
    let text = journal.to_jsonl();
    let oracle_text: String = journal
        .events()
        .iter()
        .map(|ev| oracle_line(ev) + "\n")
        .collect();
    assert_eq!(text, oracle_text);
    assert_eq!(journal.fingerprint(), fnv1a_64(text.as_bytes()));
    assert_eq!(Journal::fingerprint_of(&text), journal.fingerprint());

    let mut cfg = ServeMixConfig::standard(60);
    cfg.training_jobs = 3;
    let report = run_serve_mix(&cfg).expect("serve mix drains");
    let sealed = Journal::from_jsonl(&report.journal).expect("sealed journal parses");
    sealed.verify().expect("sealed journal verifies");
    assert_eq!(sealed.to_jsonl(), report.journal, "the text round-trips");
    assert_eq!(sealed.fingerprint(), fnv1a_64(report.journal.as_bytes()));
    assert_eq!(report.fingerprint, sealed.fingerprint());
}

// ---------------------------------------------------------------------------
// The reader

/// The line format's original decoder, kept verbatim as the reader's
/// oracle. This was `DecisionCandidate::from_json`.
fn decode_candidate(v: &Value) -> Result<DecisionCandidate, String> {
    let get = |k: &str| v.get(k).ok_or_else(|| format!("candidate missing {k:?}"));
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

/// The original `JournalEvent::from_json`: one event from its line's
/// `Value` tree.
fn decode_event(v: &Value) -> Result<JournalEvent, String> {
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
                .map(decode_candidate)
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

/// The original `parse_jsonl`: every line through `serde_json::from_str`
/// and `decode_event`.
fn decode_jsonl(text: &str) -> Result<Vec<JournalEvent>, String> {
    let mut events: Vec<JournalEvent> = Vec::new();
    for (i, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let v =
            serde_json::from_str(line).map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
        let ev = decode_event(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
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

/// Every float a `Value` holds, as bits, in document order.
fn value_float_bits(v: &Value, out: &mut Vec<u64>) {
    match v {
        Value::Number(Number::Float(f)) => out.push(f.to_bits()),
        Value::Array(items) => items.iter().for_each(|i| value_float_bits(i, out)),
        Value::Object(map) => map.values().for_each(|i| value_float_bits(i, out)),
        _ => {}
    }
}

/// Every float an event holds, as bits, in field order.
fn float_bits(ev: &JournalEvent) -> Vec<u64> {
    let mut out = vec![ev.now.to_bits()];
    match &ev.kind {
        EventKind::Submit { slo_seconds, .. } => out.extend(slo_seconds.map(f64::to_bits)),
        EventKind::AlertFired {
            value, threshold, ..
        } => out.extend([value.to_bits(), threshold.to_bits()]),
        EventKind::FaultInjected { magnitude: v, .. }
        | EventKind::RecoverRetry {
            backoff_seconds: v, ..
        }
        | EventKind::RecoverRestart {
            checkpoint_tokens: v,
            ..
        }
        | EventKind::RequestPrefill {
            ttft_seconds: v, ..
        }
        | EventKind::RequestComplete {
            latency_seconds: v, ..
        }
        | EventKind::RequestTimeout {
            waited_seconds: v, ..
        } => out.push(v.to_bits()),
        EventKind::Decision { candidates, .. } => {
            for c in candidates {
                out.extend([c.score.to_bits(), c.arrival.to_bits()]);
            }
        }
        EventKind::Opaque { payload, .. } => {
            payload.values().for_each(|v| value_float_bits(v, &mut out));
        }
        _ => {}
    }
    out
}

type Parsed = Result<Vec<JournalEvent>, String>;

/// Whether the reader returned what the oracle did: equal events with
/// every float equal bit for bit (`-0.0` is not `0.0`), or the same error.
fn same(reader: &Parsed, oracle: &Parsed) -> bool {
    match (reader, oracle) {
        (Ok(r), Ok(o)) => r == o && r.iter().map(float_bits).eq(o.iter().map(float_bits)),
        (Err(r), Err(o)) => r == o,
        _ => false,
    }
}

/// Reads `text` with both and panics, naming `what`, unless they agree.
fn assert_same(what: &str, text: &str) {
    let (reader, oracle) = (parse_jsonl(text), decode_jsonl(text));
    assert!(
        same(&reader, &oracle),
        "{what}: {text:?}\n  reader: {reader:?}\n  oracle: {oracle:?}"
    );
}

/// `ev`'s line with `seq` 0, so a one-line journal reads the whole event.
fn line_at_seq0(ev: &JournalEvent) -> String {
    let mut line = String::new();
    JournalEvent {
        seq: 0,
        ..ev.clone()
    }
    .write_jsonl(&mut line);
    line
}

/// Two sealed journals: a small `serve-mix` run, and the Incremental
/// FCFS replay of the seed-42 golden workload trace, as `trace-replay`
/// audits it.
fn sealed_journals() -> &'static [(&'static str, String)] {
    static JOURNALS: OnceLock<Vec<(&'static str, String)>> = OnceLock::new();
    JOURNALS.get_or_init(|| {
        let mut cfg = ServeMixConfig::standard(60);
        cfg.training_jobs = 3;
        let serve = run_serve_mix(&cfg).expect("serve mix drains").journal;
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/tests/golden/workload_trace_seed42.jsonl"
        );
        let trace = Trace::from_jsonl(&fs::read_to_string(path).expect("golden trace"))
            .expect("golden trace parses");
        let replay = replay_trace_by_name(&trace, "fcfs", &ReplayOptions::default())
            .expect("replay")
            .journal_jsonl;
        vec![("serve-mix", serve), ("trace-replay", replay)]
    })
}

#[test]
fn reader_matches_the_value_tree_decoder_on_every_case() {
    for ev in cases() {
        assert_same("case", &line_at_seq0(&ev));
    }
    // And as one journal, with contiguous sequence numbers.
    let mut journal = Journal::new();
    for ev in cases() {
        journal.push(ev.tick, ev.now, ev.kind);
    }
    assert_same("every case", &journal.to_jsonl());
}

#[test]
fn reader_matches_the_value_tree_decoder_on_sealed_journals() {
    for (name, text) in sealed_journals() {
        assert_same(name, text);
        let events = decode_jsonl(text).expect("a sealed journal parses");
        assert!(events.len() > 100, "{name}: {} events", events.len());
        assert!(
            matches!(
                events.last().map(|e| &e.kind),
                Some(EventKind::Final { .. })
            ),
            "{name} is sealed"
        );
    }
    let replay = &sealed_journals()[1].1;
    assert!(
        replay.contains("\"event\":\"decision\""),
        "the replay journals decisions"
    );
}

/// Every pair of a line's fields broken at once (each duplicated, last,
/// with `true`, which no typed field reads): the reader names the field
/// the oracle names, so it checks fields in the oracle's order.
#[test]
fn two_broken_fields_name_the_field_the_oracle_names() {
    for ev in cases() {
        let line = line_at_seq0(&ev);
        let Ok(Value::Object(map)) = serde_json::from_str(&line) else {
            panic!("a written line is an object: {line}");
        };
        let keys: Vec<&String> = map.keys().collect();
        for (i, k1) in keys.iter().enumerate() {
            for k2 in &keys[i + 1..] {
                let mut broken = line[..line.len() - 1].to_string();
                for k in [k1, k2] {
                    broken.push(',');
                    escape_into(k, &mut broken);
                    broken.push_str(":true");
                }
                broken.push('}');
                assert_same("two broken fields", &broken);
            }
        }
    }
}

/// The lines the mutations start from: every case and every line of both
/// sealed journals, each at `seq` 0.
fn corpus() -> &'static [String] {
    static CORPUS: OnceLock<Vec<String>> = OnceLock::new();
    CORPUS.get_or_init(|| {
        let journals = sealed_journals()
            .iter()
            .flat_map(|(_, text)| decode_jsonl(text).expect("a sealed journal parses"));
        cases()
            .into_iter()
            .chain(journals)
            .map(|ev| line_at_seq0(&ev))
            .collect()
    })
}

/// Byte spans of a written line's tokens.
#[derive(Default)]
struct Spans {
    /// String literals, quotes included.
    strings: Vec<(usize, usize)>,
    /// Numbers.
    numbers: Vec<(usize, usize)>,
    /// `{`, `}`, `[`, `]`, `:` and `,` outside strings.
    structural: Vec<usize>,
}

fn spans(line: &str) -> Spans {
    let b = line.as_bytes();
    let mut s = Spans::default();
    let mut i = 0;
    while i < b.len() {
        match b[i] {
            b'"' => {
                let start = i;
                i += 1;
                while b[i] != b'"' {
                    i += if b[i] == b'\\' { 2 } else { 1 };
                }
                i += 1;
                s.strings.push((start, i));
            }
            b'-' | b'0'..=b'9' => {
                let start = i;
                while i < b.len() && matches!(b[i], b'-' | b'+' | b'.' | b'e' | b'E' | b'0'..=b'9')
                {
                    i += 1;
                }
                s.numbers.push((start, i));
            }
            b'{' | b'}' | b'[' | b']' | b':' | b',' => {
                s.structural.push(i);
                i += 1;
            }
            _ => i += 1,
        }
    }
    s
}

/// Bytes a one-byte edit inserts or writes: JSON's own, digits, and the
/// letters of its literals and escapes.
const EDIT_BYTES: &[u8] = b"{}[]:,\"\\ \t0123456789.eE+-nultrfasxu/";

/// Values a duplicated member takes: every JSON type, numbers that some
/// field types read and others do not, and strings that name event kinds.
const DUPLICATE_VALUES: [&str; 14] = [
    "null",
    "true",
    "0",
    "-1",
    "1.5",
    "1e0",
    "18446744073709551615",
    "256",
    "\"x\"",
    "\"submit\"",
    "\"final\"",
    "[]",
    "{}",
    "[{\"id\":1}]",
];

/// The char boundary at or below `at`.
fn boundary(line: &str, at: usize) -> usize {
    (0..=at.min(line.len()))
        .rev()
        .find(|&i| line.is_char_boundary(i))
        .expect("0 is a boundary")
}

/// `s` as a JSON string with the chars `mask` picks written as `\uXXXX`
/// escapes (a surrogate pair above U+FFFF).
fn unicode_escaped(s: &str, mask: u64) -> String {
    let mut out = String::from("\"");
    for (i, c) in s.chars().enumerate() {
        if mask >> (i % 64) & 1 == 1 {
            for unit in c.encode_utf16(&mut [0; 2]) {
                out.push_str(&format!("\\u{unit:04x}"));
            }
        } else {
            let mut one = String::new();
            escape_into(c.encode_utf8(&mut [0; 4]), &mut one);
            out.push_str(&one[1..one.len() - 1]);
        }
    }
    out.push('"');
    out
}

/// Applies edit `kind` to `line`, placed and filled by the random draws
/// `a` and `b`.
fn mutate(line: &str, kind: u8, a: u64, b: u64) -> String {
    let sp = spans(line);
    let pick = |n: usize| (a % n as u64) as usize;
    let mut out = line.to_string();
    match kind {
        // Delete, insert or replace one byte (a whole char, so the text
        // stays UTF-8).
        0..=2 => {
            let at = boundary(line, pick(line.len() + 1));
            let end = line[at..].chars().next().map_or(at, |c| at + c.len_utf8());
            let byte = EDIT_BYTES[(b % EDIT_BYTES.len() as u64) as usize] as char;
            match kind {
                0 => out.replace_range(at..end, ""),
                1 => out.insert(at, byte),
                _ => out.replace_range(at..end, byte.encode_utf8(&mut [0; 4])),
            }
        }
        // A member duplicated with a different value, before the original
        // (which still wins) or after it (which now wins).
        3 => {
            let Ok(Value::Object(map)) = serde_json::from_str(line) else {
                panic!("a written line is an object: {line}");
            };
            let key = map.keys().nth(pick(map.len())).expect("a line has members");
            let mut member = String::new();
            escape_into(key, &mut member);
            member.push(':');
            member.push_str(DUPLICATE_VALUES[(b % DUPLICATE_VALUES.len() as u64) as usize]);
            if b >> 32 & 1 == 0 {
                out.insert_str(1, &(member + ","));
            } else {
                out.insert_str(out.len() - 1, &(String::from(",") + &member));
            }
        }
        // Whitespace between tokens.
        4 => {
            let at = sp.structural[pick(sp.structural.len())] + (b & 1) as usize;
            let ws = [" ", "\t", "\r", "\n", "  \t "][(b >> 1) as usize % 5];
            out.insert_str(at, ws);
        }
        // A key or string spelled with `\uXXXX` escapes.
        5 => {
            let (start, end) = sp.strings[pick(sp.strings.len())];
            let Ok(Value::String(text)) = serde_json::from_str(&line[start..end]) else {
                panic!("a string literal reads as a string: {}", &line[start..end]);
            };
            out.replace_range(start..end, &unicode_escaped(&text, b));
        }
        // A trailing comma before a `}` or `]`.
        6 => {
            let closes: Vec<usize> = sp
                .structural
                .iter()
                .copied()
                .filter(|&i| matches!(line.as_bytes()[i], b'}' | b']'))
                .collect();
            out.insert(closes[pick(closes.len())], ',');
        }
        // A number spelled another way.
        _ => {
            let Some(&(start, end)) = sp.numbers.get(pick(sp.numbers.len().max(1))) else {
                return out;
            };
            let text = &line[start..end];
            let spelled = match b % 7 {
                0 => "1.0".to_string(),
                1 => "1e0".to_string(),
                2 => "+1".to_string(),
                3 => "-0".to_string(),
                4 => format!("{text}.0"),
                5 => format!("{text}e0"),
                _ => format!("+{text}"),
            };
            out.replace_range(start..end, &spelled);
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    /// One edit to a written line: the reader returns what the oracle
    /// does, error text included.
    #[test]
    fn one_edit_mutations_read_as_the_oracle_reads_them(
        line in any::<usize>(),
        kind in 0u8..8,
        a in any::<u64>(),
        b in any::<u64>(),
    ) {
        let corpus = corpus();
        let mutated = mutate(&corpus[line % corpus.len()], kind, a, b);
        let (reader, oracle) = (parse_jsonl(&mutated), decode_jsonl(&mutated));
        prop_assert!(
            same(&reader, &oracle),
            "{mutated:?}\n  reader: {reader:?}\n  oracle: {oracle:?}"
        );
    }
}
