//! Lifecycle tracing and decision provenance over the golden seed-42
//! workload trace:
//!
//! * **Conservation** — for every job the replayed journal yields, the
//!   JCT decomposition's shares sum back to the JCT within 1e-9
//!   (`queue_wait + run + fault_recovery + replan_stall +
//!   serving_preemption == jct`), the invariant the
//!   interval-union/complement algebra must maintain.
//! * **One schema** — the lifecycle fold and `Journal::replay` read the
//!   same typed events, so every job's terminal agrees with the replayed
//!   job state, and a journal written through the typed `EventKind`
//!   analyzes into per-tenant Chrome-trace lanes — even one naming the
//!   largest job id.
//! * **Determinism** — `explain_job` and the tenant-lane Chrome trace are
//!   pure functions of the journal: two independent replays of the same
//!   trace produce bitwise-identical output (CI re-runs the binary twice
//!   and diffs).
//! * **Provenance** — every dispatch decision journals its candidate set
//!   (capped), the winner really is the argmin of the journaled scores,
//!   and the explanation names the policy and the runner-up.
//! * **Sketch error bound** — the mergeable quantile sketch stays within
//!   its documented relative error against exact ceil-rank quantiles on
//!   randomized streams, shard-merged in random order (property test).

use muxtune::api::{EventKind, Journal, DECISION_CANDIDATE_CAP};
use muxtune::obs::QuantileSketch;
use muxtune::obs_analysis::lifecycle::{
    analyze_journal, explain_job, lifecycle_chrome_trace, Terminal,
};
use muxtune::workload::{generate, replay_trace_by_name, ReplayOptions, TraceConfig};
use proptest::prelude::*;
use serde_json::Value;

fn golden_replay_journal(policy: &str) -> String {
    let trace = generate(42, &TraceConfig::standard(300));
    let report =
        replay_trace_by_name(&trace, policy, &ReplayOptions::default()).expect("golden replay");
    report.journal_jsonl
}

#[test]
fn golden_replay_decomposition_conserves_within_1e9() {
    for policy in ["fcfs", "drf"] {
        let analysis = analyze_journal(&golden_replay_journal(policy)).expect("analyze");
        assert!(
            analysis.jobs.len() >= 250,
            "{policy}: expected most of the 300 trace jobs in the journal, got {}",
            analysis.jobs.len()
        );
        for j in analysis.jobs.values() {
            let d = &j.decomposition;
            assert!(
                d.conservation_error() < 1e-9,
                "{policy}: job {} decomposition leaks {:.3e}s \
                 (jct {} = queue {} + run {} + recovery {} + replan {} + serving {})",
                j.job,
                d.conservation_error(),
                d.jct,
                d.queue_wait,
                d.run,
                d.fault_recovery,
                d.replan_stall,
                d.serving_preemption
            );
            assert!(d.queue_wait >= 0.0 && d.run >= 0.0);
            assert!(d.fault_recovery >= 0.0 && d.replan_stall >= 0.0);
        }
    }
}

#[test]
fn lifecycle_terminals_agree_with_journal_replay() {
    for policy in ["fcfs", "drf"] {
        let jsonl = golden_replay_journal(policy);
        let analysis = analyze_journal(&jsonl).expect("analyze");
        let replayed = Journal::from_jsonl(&jsonl).expect("parse").replay();
        let analyzed: Vec<&u64> = analysis.jobs.keys().collect();
        let replayed_jobs: Vec<&u64> = replayed.jobs.keys().collect();
        assert_eq!(
            analyzed, replayed_jobs,
            "{policy}: both folds see the same jobs"
        );
        for (job, state) in &replayed.jobs {
            let terminal = &analysis.jobs[job].terminal;
            let agrees = match terminal {
                Terminal::Completed => state == "completed",
                Terminal::Rejected(_) => state == "rejected",
                Terminal::Truncated => state == "queued" || state.starts_with("running@"),
            };
            assert!(
                agrees,
                "{policy}: job {job} analyzed as {terminal:?} but replays to {state}"
            );
        }
    }
}

#[test]
fn typed_journal_analyzes_into_per_tenant_chrome_lanes() {
    // Written through the typed writer, so the analyzer reads exactly the
    // lines the service emits: acme's job 0 runs through a 4..7 comm
    // outage; beta's job 1 is rejected at submit.
    let mut journal = Journal::new();
    let submit = |job: u64, tenant: &str| EventKind::Submit {
        job,
        tenant: tenant.into(),
        backbone: "B".into(),
        total_tokens: 100,
        slo_seconds: None,
    };
    journal.push(0, 0.0, submit(0, "acme"));
    journal.push(
        0,
        2.0,
        EventKind::Dispatch {
            job: 0,
            instance: 0,
        },
    );
    journal.push(
        0,
        4.0,
        EventKind::FaultInjected {
            kind: "comm_transient".into(),
            instance: 0,
            device: None,
            magnitude: 3.0,
        },
    );
    journal.push(
        0,
        7.0,
        EventKind::FaultCleared {
            kind: "comm_transient".into(),
            instance: 0,
        },
    );
    journal.push(0, 12.0, EventKind::Complete { job: 0 });
    journal.push(0, 12.0, submit(1, "beta"));
    journal.push(
        0,
        12.0,
        EventKind::Reject {
            job: 1,
            reason: "pool exhausted".into(),
        },
    );
    let analysis = analyze_journal(&journal.to_jsonl()).expect("analyze");
    let d = &analysis.jobs[&0].decomposition;
    assert!((d.fault_recovery - 3.0).abs() < 1e-12 && (d.run - 7.0).abs() < 1e-12);

    let text = lifecycle_chrome_trace(&analysis);
    let v: Value = serde_json::from_str(&text).expect("valid JSON");
    let events = v["traceEvents"].as_array().expect("events");
    let lanes: Vec<&str> = events
        .iter()
        .filter(|e| e["name"].as_str() == Some("process_name"))
        .map(|e| e["args"]["name"].as_str().unwrap())
        .collect();
    assert_eq!(lanes, vec!["tenant acme", "tenant beta"]);
    let has = |kind: &str| {
        events
            .iter()
            .any(|e| e["ph"].as_str() == Some("X") && e["name"].as_str() == Some(kind))
    };
    assert!(has("running"));
    assert!(has("fault_recovery"));
    // Deterministic: byte-for-byte.
    assert_eq!(text, lifecycle_chrome_trace(&analysis));
}

/// The largest job id the journal accepts still exports: its lane id
/// (`job + 1`, wrapping) neither overflows nor collides.
#[test]
fn largest_job_id_exports_its_own_lane() {
    let job = u64::MAX;
    let mut journal = Journal::new();
    journal.push(
        0,
        0.0,
        EventKind::Submit {
            job,
            tenant: "acme".into(),
            backbone: "B".into(),
            total_tokens: 100,
            slo_seconds: None,
        },
    );
    journal.push(0, 1.0, EventKind::Dispatch { job, instance: 0 });
    journal.push(0, 3.0, EventKind::Complete { job });
    let analysis = analyze_journal(&journal.to_jsonl()).expect("analyze");
    let v: Value = serde_json::from_str(&lifecycle_chrome_trace(&analysis)).expect("valid JSON");
    let lanes: Vec<&str> = v["traceEvents"]
        .as_array()
        .expect("events")
        .iter()
        .filter(|e| e["name"].as_str() == Some("thread_name"))
        .map(|e| e["args"]["name"].as_str().expect("lane name"))
        .collect();
    assert_eq!(lanes, vec!["job 18446744073709551615"]);
}

#[test]
fn dispatch_decisions_record_argmin_winners_under_the_cap() {
    let analysis = analyze_journal(&golden_replay_journal("fcfs")).expect("analyze");
    let dispatches: Vec<_> = analysis
        .decisions
        .iter()
        .filter(|d| d.action == "dispatch")
        .collect();
    assert!(!dispatches.is_empty(), "replay journaled no dispatches");
    for d in &dispatches {
        assert!(d.candidates.len() <= DECISION_CANDIDATE_CAP);
        assert!(d.considered >= d.candidates.len());
        let winner = d.candidates.first().expect("non-empty candidate set");
        assert_eq!(winner.id, d.chosen, "winner leads the candidate list");
        for c in &d.candidates {
            assert!(
                winner.score <= c.score,
                "decision at {}: chosen score {} beaten by candidate {} ({})",
                d.now,
                winner.score,
                c.id,
                c.score
            );
        }
    }
}

#[test]
fn explain_and_chrome_trace_are_bitwise_deterministic_across_replays() {
    let a = analyze_journal(&golden_replay_journal("fcfs")).expect("analyze");
    let b = analyze_journal(&golden_replay_journal("fcfs")).expect("analyze");
    // Every job explains identically across two independent replays.
    let probe: Vec<u64> = a.jobs.keys().copied().step_by(37).collect();
    for id in probe {
        assert_eq!(
            explain_job(&a, id).expect("explain a"),
            explain_job(&b, id).expect("explain b"),
            "explain drifted between replays for job {id}"
        );
    }
    assert_eq!(lifecycle_chrome_trace(&a), lifecycle_chrome_trace(&b));
}

#[test]
fn explanation_names_policy_and_runner_up() {
    let analysis = analyze_journal(&golden_replay_journal("fcfs")).expect("analyze");
    // Find a contested dispatch (more than one candidate) and explain its
    // winner via the trace id it was chosen under.
    let contested = analysis
        .decisions
        .iter()
        .find(|d| d.action == "dispatch" && d.candidates.len() > 1)
        .expect("a 300-job replay has contested dispatches");
    let text = explain_job(&analysis, contested.chosen).expect("explain");
    assert!(text.contains("dispatched by fcfs"), "{text}");
    assert!(text.contains("beat job"), "{text}");
    assert!(text.contains("jct "), "{text}");
}

// ---------------------------------------------------------------------------
// Sketch relative-error bound (property)
// ---------------------------------------------------------------------------

/// Exact ceil-rank quantile: the value at ascending rank
/// `max(1, ceil(q·n))`, the reference the sketch approximates.
fn exact_quantile(values: &mut [f64], q: f64) -> f64 {
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
    values[rank.min(values.len()) - 1]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// p50/p95/p99 from a sharded, randomly-merged sketch stay within the
    /// documented relative error of the exact ceil-rank quantiles.
    #[test]
    fn sharded_sketch_quantiles_stay_within_alpha(
        vals in prop::collection::vec(1e-3f64..1e4, 64..512),
        shards in 1usize..8,
    ) {
        let mut parts: Vec<QuantileSketch> =
            (0..shards).map(|_| QuantileSketch::default()).collect();
        for (i, v) in vals.iter().enumerate() {
            parts[i % shards].insert(*v);
        }
        let mut merged = QuantileSketch::default();
        for p in &parts {
            merged.merge(p).expect("same alpha");
        }
        prop_assert_eq!(merged.count(), vals.len() as u64);
        let alpha = merged.relative_error();
        let mut sorted = vals.clone();
        for q in [0.5, 0.95, 0.99] {
            let exact = exact_quantile(&mut sorted, q);
            let approx = merged.quantile(q);
            prop_assert!(
                (approx - exact).abs() <= alpha * exact + 1e-12,
                "q{}: sketch {} vs exact {} (alpha {})",
                q, approx, exact, alpha
            );
        }
    }
}
