//! Byte oracle for the journal line writer.
//!
//! `JournalEvent::write_jsonl` writes each line straight from the typed
//! event. It must emit exactly the bytes of the format's original encoder,
//! which built every event into a `serde_json::Value` tree (a sorted
//! `Map` per object) and printed it with `serde_json::to_string`. That
//! encoder is kept below, verbatim, as the oracle; the writer is held to
//! it byte for byte on every event kind and on the edge values of every
//! field type. `Journal::fingerprint()` is pinned as the FNV-1a of
//! `Journal::to_jsonl()`.

use std::collections::{BTreeMap, BTreeSet};

use muxtune::api::{DecisionCandidate, EventKind, Journal, JournalEvent, DECISION_CANDIDATE_CAP};
use muxtune::obs::fnv1a_64;
use muxtune::workload::{run_serve_mix, ServeMixConfig};
use serde_json::{Map, Value};

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
