//! Golden-schema regression test for the event journal's JSONL line
//! format: pins the key set of every event kind (one hand-built journal
//! containing each variant), so replay tooling written against the format
//! breaks loudly here rather than silently in the field.
//!
//! Regenerate the golden after an *intentional* format change with:
//! `MUX_BLESS=1 cargo test --test journal_schema`

use std::collections::{BTreeMap, BTreeSet};
use std::fs;
use std::path::PathBuf;

use muxtune::api::{DecisionCandidate, EventKind, Journal};
use serde_json::Value;

fn golden_path() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/journal_line.schema.json")
}

/// A hand-built journal exercising every [`EventKind`] variant once.
fn exhaustive_journal() -> Journal {
    let mut j = Journal::new();
    j.push(
        0,
        0.0,
        EventKind::Submit {
            job: 1,
            tenant: "tenant-a".into(),
            backbone: "LLaMA2-7B".into(),
            total_tokens: 10_000,
            slo_seconds: Some(60.0),
        },
    );
    j.push(
        0,
        0.0,
        EventKind::Reject {
            job: 2,
            reason: "unknown backbone".into(),
        },
    );
    j.push(
        0,
        0.0,
        EventKind::Decision {
            policy: "fcfs".into(),
            action: "dispatch".into(),
            score_kind: "arrival_seconds".into(),
            chosen: 1,
            job: Some(1),
            instance: None,
            considered: 2,
            candidates: vec![
                DecisionCandidate {
                    id: 1,
                    tenant: "tenant-a".into(),
                    score: 0.0,
                    priority: 1,
                    arrival: 0.0,
                },
                DecisionCandidate {
                    id: 4,
                    tenant: "tenant-b".into(),
                    score: 0.25,
                    priority: 3,
                    arrival: 0.25,
                },
            ],
        },
    );
    j.push(
        0,
        0.0,
        EventKind::Dispatch {
            job: 1,
            instance: 0,
        },
    );
    j.push(
        0,
        0.0,
        EventKind::Replan {
            instance: 0,
            epoch: 1,
            tasks: 1,
        },
    );
    j.push(
        1,
        0.5,
        EventKind::Shed {
            job: 3,
            instance: 0,
            reason: "memory infeasible".into(),
        },
    );
    // The service always pairs a Shed with the Reject that moves the job.
    j.push(
        1,
        0.5,
        EventKind::Reject {
            job: 3,
            reason: "shed: memory infeasible".into(),
        },
    );
    j.push(
        2,
        1.0,
        EventKind::AlertFired {
            rule: "slo_burn".into(),
            severity: "critical".into(),
            job: 1,
            window: 5,
            value: 2.5,
            threshold: 1.0,
        },
    );
    j.push(
        3,
        1.5,
        EventKind::AlertCleared {
            rule: "slo_burn".into(),
            job: 1,
        },
    );
    j.push(
        3,
        1.5,
        EventKind::FaultInjected {
            kind: "device_loss".into(),
            instance: 0,
            device: Some(2),
            magnitude: 1.0,
        },
    );
    j.push(
        3,
        1.5,
        EventKind::RecoverRetry {
            instance: 0,
            attempt: 1,
            backoff_seconds: 0.05,
        },
    );
    j.push(
        3,
        1.5,
        EventKind::RecoverRestart {
            job: 1,
            instance: 0,
            checkpoint_tokens: 512.0,
        },
    );
    j.push(
        3,
        1.5,
        EventKind::RecoverReplan {
            instance: 0,
            devices_left: 3,
            epoch: 2,
        },
    );
    j.push(
        3,
        1.6,
        EventKind::RecoverShed {
            job: 3,
            instance: 0,
            reason: "no feasible degraded plan".into(),
        },
    );
    j.push(
        3,
        1.7,
        EventKind::FaultCleared {
            kind: "comm_transient".into(),
            instance: 0,
        },
    );
    j.push(
        3,
        1.7,
        EventKind::RequestArrive {
            request: 0,
            tenant: "tenant-a".into(),
            prompt_tokens: 128,
            output_tokens: 16,
        },
    );
    j.push(
        3,
        1.7,
        EventKind::RequestPrefill {
            request: 0,
            ttft_seconds: 0.031,
        },
    );
    j.push(
        3,
        1.8,
        EventKind::RequestComplete {
            request: 0,
            decode_tokens: 16,
            latency_seconds: 0.35,
        },
    );
    j.push(
        3,
        1.8,
        EventKind::RequestReject {
            request: 1,
            reason: "queue full".into(),
        },
    );
    j.push(
        3,
        1.9,
        EventKind::RequestTimeout {
            request: 2,
            waited_seconds: 30.0,
        },
    );
    j.push(3, 1.9, EventKind::ServingPreempt { instance: 0 });
    j.push(4, 2.0, EventKind::ServingResume { instance: 0 });
    let mut payload = serde_json::Map::new();
    payload.insert("detail".to_string(), Value::from("future extension"));
    j.push(
        4,
        2.0,
        EventKind::Opaque {
            name: "frobnicate".into(),
            payload,
        },
    );
    j.push(4, 2.0, EventKind::Complete { job: 1 });
    let mut jobs = BTreeMap::new();
    jobs.insert(1, "completed".to_string());
    jobs.insert(2, "rejected".to_string());
    jobs.insert(3, "rejected".to_string());
    j.push(
        4,
        2.0,
        EventKind::Final {
            jobs,
            alerts: BTreeSet::new(),
        },
    );
    j
}

/// Key paths of one JSON value, array elements collapsed to `[]`.
fn key_paths(v: &Value, prefix: &str, out: &mut BTreeSet<String>) {
    match v {
        Value::Object(map) => {
            for (k, child) in map {
                let path = if prefix.is_empty() {
                    k.clone()
                } else {
                    format!("{prefix}.{k}")
                };
                out.insert(path.clone());
                key_paths(child, &path, out);
            }
        }
        Value::Array(items) => {
            let path = format!("{prefix}.[]");
            out.insert(path.clone());
            for item in items {
                key_paths(item, &path, out);
            }
        }
        _ => {}
    }
}

#[test]
fn journal_line_schema_matches_golden() {
    let journal = exhaustive_journal();
    let text = journal.to_jsonl();

    // Per-kind key paths of the written lines, parsed back, so the golden
    // pins what the writer emits: `<kind>: <path>` lines, kinds sorted.
    let mut paths = BTreeSet::new();
    for line in text.lines() {
        let v: Value = serde_json::from_str(line).expect("written line parses");
        let kind = v["event"].as_str().expect("line names its event");
        let mut these = BTreeSet::new();
        key_paths(&v, "", &mut these);
        for p in these {
            paths.insert(format!("{kind}: {p}"));
        }
    }
    let current: Vec<Value> = paths.iter().map(|p| Value::from(p.as_str())).collect();
    let body = serde_json::to_string_pretty(&Value::Array(current)).expect("serialize");

    let path = golden_path();
    if std::env::var_os("MUX_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, body).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }

    let golden: Value = serde_json::from_str(&fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with MUX_BLESS=1 to create it",
            path.display()
        )
    }))
    .expect("golden parses");
    let golden_paths: BTreeSet<String> = golden
        .as_array()
        .expect("golden is an array of key paths")
        .iter()
        .map(|p| p.as_str().expect("path is a string").to_string())
        .collect();

    let missing: Vec<&String> = golden_paths.difference(&paths).collect();
    let added: Vec<&String> = paths.difference(&golden_paths).collect();
    assert!(
        missing.is_empty() && added.is_empty(),
        "journal line schema drifted (MUX_BLESS=1 to accept an intentional change)\n\
         missing keys: {missing:?}\nnew keys: {added:?}"
    );

    // The hand-built journal is itself a valid sealed journal: it must
    // round-trip through JSONL and verify against its final record.
    let parsed = Journal::from_jsonl(&text).expect("roundtrip");
    parsed.verify().expect("hand-built journal verifies");
}
