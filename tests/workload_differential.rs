//! Cross-policy differential test: one trace replayed under all four
//! scheduling policies, checking the invariants that must hold
//! *regardless* of policy choice, plus a golden seed-42 trace pinning
//! the generator's on-disk JSONL format bit-for-bit.
//!
//! Policy-independent invariants:
//! * conservation — every trace job is exactly one of
//!   completed/rejected/shed/cancelled;
//! * no fairness index exceeds 1 (Jain's index is bounded by 1);
//! * the sealed journal verifies and its fingerprint matches the report;
//! * SLO-feasible admission control never *lowers* SLO attainment
//!   relative to best-effort admission under the same policy (it turns
//!   guaranteed violators into up-front rejections).
//!
//! A second golden pins what the default (Incremental) replay of that
//! trace journals under each policy, by journal fingerprint.
//!
//! Regenerate the goldens after an *intentional* generator or replay
//! change with: `MUX_BLESS=1 cargo test --test workload_differential`

use std::fmt::Write as _;
use std::fs;
use std::path::PathBuf;

use muxtune::api::{ReplanMode, POLICY_NAMES};
use muxtune::chaos::verify_journal;
use muxtune::workload::{
    generate, replay_trace_by_name, Admission, ReplayOptions, Trace, TraceConfig,
};

fn golden_path(name: &str) -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name)
}

/// Compares `body` with golden `name`, or rewrites the golden under
/// `MUX_BLESS`. Returns the golden's text.
fn assert_golden(name: &str, body: &str) -> String {
    let path = golden_path(name);
    if std::env::var_os("MUX_BLESS").is_some() {
        fs::create_dir_all(path.parent().expect("parent")).expect("mkdir");
        fs::write(&path, body).expect("write golden");
        eprintln!("blessed {}", path.display());
        return body.to_string();
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with MUX_BLESS=1 to create it",
            path.display()
        )
    });
    assert_eq!(
        golden, body,
        "{name} drifted (MUX_BLESS=1 to accept an intentional change)"
    );
    golden
}

/// The seed-42 standard trace is pinned bit-for-bit: any change to the
/// generator's arithmetic, iteration order, or JSONL encoding shows up
/// as a diff here before it silently invalidates archived traces.
#[test]
fn golden_workload_trace_is_stable() {
    let trace = generate(42, &TraceConfig::standard(300));
    let golden = assert_golden("workload_trace_seed42.jsonl", &trace.to_jsonl());

    // The golden must itself round-trip through the loader.
    let parsed = Trace::from_jsonl(&golden).expect("golden parses");
    assert_eq!(parsed.fingerprint(), trace.fingerprint());
    assert_eq!(parsed.jobs.len(), 300);
}

/// The default replay of the golden trace, pinned per policy by journal
/// fingerprint: a planner, pricing or service change that moves any replay
/// decision or journaled float shows up here. (CI's Incremental-vs-Estimate
/// diff checks that the two replan modes agree on one commit; this checks
/// that the default does not drift across commits.)
#[test]
fn golden_trace_incremental_replays_are_stable() {
    let body = fs::read_to_string(golden_path("workload_trace_seed42.jsonl")).expect("trace");
    let trace = Trace::from_jsonl(&body).expect("golden trace parses");
    let opts = ReplayOptions::default();
    assert_eq!(opts.replan_mode, ReplanMode::Incremental);
    let mut lines = String::new();
    for policy in POLICY_NAMES {
        let r = replay_trace_by_name(&trace, policy, &opts).expect("replay");
        writeln!(lines, "{policy} {:016x}", r.journal_fingerprint).expect("String write");
    }
    assert_golden("workload_replay_seed42.fnv1a64", &lines);
}

fn differential(jobs: usize) {
    let trace = generate(17, &TraceConfig::standard(jobs));
    let best_effort = ReplayOptions::default();
    let admission = ReplayOptions {
        admission: Admission::SloFeasible,
        ..ReplayOptions::default()
    };
    for policy in POLICY_NAMES {
        let be = replay_trace_by_name(&trace, policy, &best_effort).expect("best-effort replay");
        let ac = replay_trace_by_name(&trace, policy, &admission).expect("admission replay");
        for (label, r) in [("best-effort", &be), ("admission", &ac)] {
            // Conservation: terminal states partition the trace.
            assert_eq!(
                r.terminal_total(),
                trace.jobs.len(),
                "{policy}/{label}: jobs unaccounted for"
            );
            // Jain's index is bounded by 1 for any allocation.
            assert!(
                r.jain_work <= 1.0 + 1e-9 && r.jain_jobs <= 1.0 + 1e-9,
                "{policy}/{label}: fairness index above 1"
            );
            assert!(
                r.jain_work > 0.0 && r.jain_jobs > 0.0,
                "{policy}/{label}: degenerate fairness"
            );
            // The journal the replay emitted is internally consistent.
            let (fp, _) = verify_journal(&r.journal_jsonl).expect("journal verifies");
            assert_eq!(
                fp, r.journal_fingerprint,
                "{policy}/{label}: fingerprint drift"
            );
            assert!(r.makespan_seconds > 0.0, "{policy}/{label}: empty makespan");
        }
        // Admission control turns guaranteed SLO violators into up-front
        // rejections, so attainment over the *admitted* population can
        // only improve (tiny epsilon for boundary jobs whose fate the
        // changed load flips).
        assert!(
            ac.slo_attainment >= be.slo_attainment - 0.02,
            "{policy}: admission control lowered SLO attainment ({:.4} < {:.4})",
            ac.slo_attainment,
            be.slo_attainment
        );
        assert!(
            ac.admission_rejected >= be.admission_rejected,
            "{policy}: best-effort admission rejected more than SLO-feasible"
        );
        // With the standard profile, SLOs scale with job size, so the
        // burst-rate feasibility check is scale-free at the default peak
        // and never fires. Constrain the peak below the latency tenant's
        // implied floor and the gate must actually reject jobs, and must
        // not *materially* hurt attainment. Strict improvement is not a
        // theorem: under `priority` at deep saturation the gate rejects
        // exactly the tenant whose jobs priority scheduling was rescuing
        // past the queue, trading their (met) SLOs away — the small
        // fixture below pins the material lift where it is robust.
        let cp =
            replay_trace_by_name(&trace, policy, &constrained_peak()).expect("constrained replay");
        assert_eq!(
            cp.terminal_total(),
            trace.jobs.len(),
            "{policy}/constrained: jobs lost"
        );
        assert!(
            cp.admission_rejected > 0,
            "{policy}: constrained peak never tripped the feasibility gate"
        );
        assert!(
            cp.slo_attainment >= be.slo_attainment - 0.02,
            "{policy}: admission control under a constrained peak materially lowered \
             attainment ({:.4} vs {:.4})",
            cp.slo_attainment,
            be.slo_attainment
        );
    }
}

fn constrained_peak() -> ReplayOptions {
    ReplayOptions {
        admission: Admission::SloFeasible,
        peak_tokens_per_second: 10_000.0,
        ..ReplayOptions::default()
    }
}

#[test]
fn policies_agree_on_invariants_small() {
    differential(150);
}

/// The admission gate's headline effect, pinned where it is robust: on
/// the moderately-loaded fixture, shedding burst-rate-infeasible jobs
/// up front lifts FCFS attainment for the admitted population by a wide
/// margin (measured 0.113 → 0.553), not just within epsilon.
#[test]
fn constrained_admission_materially_lifts_fcfs_attainment() {
    let trace = generate(17, &TraceConfig::standard(150));
    let be = replay_trace_by_name(&trace, "fcfs", &ReplayOptions::default()).expect("replay");
    let cp = replay_trace_by_name(&trace, "fcfs", &constrained_peak()).expect("replay");
    assert!(
        cp.slo_attainment > be.slo_attainment + 0.1,
        "expected a material lift: {:.4} vs {:.4}",
        cp.slo_attainment,
        be.slo_attainment
    );
}

/// The tentpole-scale differential: one 10⁴-job trace under all four
/// policies × both admission modes. Run via
/// `cargo test --release -- --include-ignored` (the CI workload job does).
#[test]
#[ignore = "8 replays of a 10^4-job trace; release-mode CI runs it"]
fn policies_agree_on_invariants_ten_thousand() {
    differential(10_000);
}
