//! Differential pin for [`ReplanMode::Incremental`]: a warm per-instance
//! incremental planner must be observationally indistinguishable from
//! from-scratch estimation. Random op streams — submits (including
//! memory-infeasible arrivals that force sheds), cancellations, fault
//! injections and clears, device losses (which shrink an instance's plan
//! and cluster, so the estimator must start over), time advances, and
//! forced replans — are replayed
//! under `Incremental` and `Estimate`; the sealed journals must agree
//! byte for byte (fingerprint) and every job must land in the same
//! terminal state at the same time.
//!
//! All tests in this file serialize on [`OBS_LOCK`]: the obs registry is
//! process-global, and the no-op test below asserts an exact-zero delta
//! on `planner.candidates`.

use muxtune::api::JobId;
use muxtune::prelude::*;
use proptest::prelude::*;
use std::sync::Mutex;

static OBS_LOCK: Mutex<()> = Mutex::new(());

const BIG: usize = 2000; // corpus rows that overflow A40 memory → shed

/// One service op. `pick` indexes into whatever the op targets (live
/// jobs, instances), reduced modulo the live count at apply time.
#[derive(Debug, Clone)]
enum Op {
    Submit { mb: usize, tokens: u64, huge: bool },
    Cancel { pick: usize },
    Advance { dt: f64 },
    Slowdown { pick: usize, factor: f64 },
    Outage { pick: usize, failures: u32 },
    ClearFault { pick: usize },
    LoseDevice { pick: usize, device: usize },
    ForceReplan { pick: usize },
}

fn submit_strategy() -> impl Strategy<Value = Op> {
    (
        prop::sample::select(vec![1usize, 2, 4]),
        prop::sample::select(vec![10_000u64, 40_000, 80_000]),
        // Mostly feasible; the occasional memory hog forces a shed.
        prop::sample::select(vec![false, false, false, false, false, true]),
    )
        .prop_map(|(mb, tokens, huge)| Op::Submit { mb, tokens, huge })
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Submissions repeated to weight the mix toward growth.
        submit_strategy(),
        submit_strategy(),
        submit_strategy(),
        (0..8usize).prop_map(|pick| Op::Cancel { pick }),
        prop::sample::select(vec![0.0f64, 0.25, 2.0]).prop_map(|dt| Op::Advance { dt }),
        (0..4usize, prop::sample::select(vec![1.5f64, 3.0]))
            .prop_map(|(pick, factor)| Op::Slowdown { pick, factor }),
        (0..4usize, 1..3u32).prop_map(|(pick, failures)| Op::Outage { pick, failures }),
        (0..4usize).prop_map(|pick| Op::ClearFault { pick }),
        (0..4usize, 0..4usize).prop_map(|(pick, device)| Op::LoseDevice { pick, device }),
        (0..4usize).prop_map(|pick| Op::ForceReplan { pick }),
    ]
}

fn spec(mb: usize, tokens: u64, huge: bool) -> JobSpec {
    let s = JobSpec::lora("LLaMA2-7B", DatasetKind::OpenBookQa, 16, mb, tokens);
    if huge {
        s.with_sequence_lengths(vec![256; BIG])
    } else {
        s
    }
}

/// Replays `ops` under `mode` and returns the sealed journal fingerprint
/// plus every job's terminal record.
fn run(mode: ReplanMode, ops: &[Op]) -> (u64, Vec<(JobId, String, u64)>) {
    let mut cfg = ServiceConfig::a40_pool(8);
    cfg.backbone_layers = Some(8);
    cfg.replan_mode = mode;
    let mut svc = FineTuneService::new(cfg);
    let mut ids: Vec<JobId> = Vec::new();
    for op in ops {
        match *op {
            Op::Submit { mb, tokens, huge } => ids.push(svc.submit(spec(mb, tokens, huge))),
            Op::Cancel { pick } => {
                let live: Vec<JobId> = ids
                    .iter()
                    .copied()
                    .filter(|&id| {
                        matches!(
                            svc.job(id).map(|j| &j.state),
                            Some(JobState::Running { .. })
                        )
                    })
                    .collect();
                if !live.is_empty() {
                    svc.cancel(live[pick % live.len()], "operator cancel");
                }
            }
            Op::Advance { dt } => svc.advance(dt),
            Op::Slowdown { pick, factor } => {
                let _ = svc.inject_fault(ServiceFault::DeviceSlowdown {
                    instance: pick,
                    device: 0,
                    factor,
                });
            }
            Op::Outage { pick, failures } => {
                let _ = svc.inject_fault(ServiceFault::TransientComm {
                    instance: pick,
                    failures,
                });
            }
            Op::ClearFault { pick } => {
                let _ = svc.clear_fault(pick);
            }
            Op::LoseDevice { pick, device } => {
                let _ = svc.inject_fault(ServiceFault::DeviceLoss {
                    instance: pick,
                    device,
                });
            }
            Op::ForceReplan { pick } => {
                svc.force_replan(pick);
            }
        }
    }
    svc.run_to_completion();
    svc.seal_journal();
    let outcomes = ids
        .into_iter()
        .map(|id| {
            let j = svc.job(id).expect("job recorded");
            // Bitwise time comparison (a never-finished job carries NaN,
            // which must compare equal to itself across the two runs).
            (id, format!("{:?}", j.state), j.finished_at.to_bits())
        })
        .collect();
    (svc.journal().fingerprint(), outcomes)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Tentpole pin: `Incremental` and `Estimate` replanning are
    /// bitwise-indistinguishable across random service histories —
    /// identical journal fingerprints (which hash every event byte,
    /// timestamps and epochs included) and identical job outcomes.
    #[test]
    fn incremental_replans_are_indistinguishable_from_scratch(
        ops in prop::collection::vec(op_strategy(), 1..20),
    ) {
        let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let (fp_est, out_est) = run(ReplanMode::Estimate, &ops);
        let (fp_inc, out_inc) = run(ReplanMode::Incremental, &ops);
        prop_assert_eq!(out_est, out_inc, "job outcomes diverged");
        prop_assert_eq!(
            fp_est,
            fp_inc,
            "journal fingerprints diverged under ops {:?}",
            ops
        );
    }
}

/// The no-op case, pinned on the observable counter: a forced replan
/// with unchanged membership must not build a single fusion range —
/// `planner.candidates` (incremented once per range the planner
/// evaluates) stays exactly flat.
#[test]
fn noop_replan_builds_zero_fusion_ranges() {
    let _g = OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner());
    let _on = muxtune::obs::enabled_scope();
    let candidates = || {
        muxtune::obs::snapshot()
            .counters
            .get("planner.candidates")
            .copied()
            .unwrap_or(0)
    };

    let mut cfg = ServiceConfig::a40_pool(4);
    cfg.backbone_layers = Some(8);
    cfg.replan_mode = ReplanMode::Incremental;
    let mut svc = FineTuneService::new(cfg);
    svc.submit(spec(4, 50_000, false));
    svc.submit(spec(4, 50_000, false));
    let warm = candidates();
    assert!(warm > 0, "warm-up replans must have built ranges");

    // Unchanged membership: a fault clearing (reprice) and an explicit
    // forced replan are both zero-build paths.
    assert!(svc.force_replan(0));
    assert_eq!(
        candidates(),
        warm,
        "no-op replan must evaluate zero fusion ranges"
    );

    // A membership change resumes incremental work — but only the
    // ranges crossing the insertion point, never a full rebuild.
    let before_stats = svc.planner_stats(0);
    svc.submit(spec(2, 20_000, false));
    let after = candidates();
    assert!(after > warm, "a real delta must build the new ranges");
    let stats = svc.planner_stats(0);
    assert!(
        stats.ranges_reused > before_stats.ranges_reused,
        "the delta replan must reuse surviving ranges"
    );
    svc.run_to_completion();
}
