//! Property tests of the streaming-telemetry stack:
//!
//! - **Detector calibration**: EWMA+MAD z-score detectors never fire on a
//!   constant stream and always fire (within the hysteresis bound) on a
//!   large step change; the SLO burn-rate evaluator stays quiet while a
//!   job is on budget and fires when progress stops.
//! - **Replay invariant**: replaying the service's event journal up to any
//!   tick reproduces the live job-state and active-alert fingerprint the
//!   service reported at that tick, and a sealed journal survives a JSONL
//!   round trip while tampering is detected.

use muxtune::api::{Journal, MonitorConfig};
use muxtune::obs_analysis::online::{
    BurnRateConfig, BurnRateEvaluator, DetectorConfig, EwmaMadDetector, OnlineMonitor,
};
use muxtune::prelude::*;
use proptest::prelude::*;

use muxtune::data::corpus::DatasetKind;
use muxtune::obs_analysis::StallClass;

// ---------------------------------------------------------------------------
// Detector calibration
// ---------------------------------------------------------------------------

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// A constant stream has zero deviation: the z-score stays at
    /// floating-point noise (the EWMA mean converges to the constant up to
    /// rounding) and the monitor never raises a throughput or stall alert.
    #[test]
    fn detectors_never_fire_on_constant_streams(
        value in -1e6f64..1e6,
        n in 4u64..60,
    ) {
        let mut det = EwmaMadDetector::new(DetectorConfig::default());
        for i in 0..n {
            let z = det.observe(value);
            prop_assert!(z.abs() < 1e-9, "constant stream scored z={} at i={}", z, i);
        }

        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        for t in 1..=n {
            prop_assert!(mon.observe_throughput(7, value.abs(), t).is_none());
            prop_assert!(mon
                .observe_stall_share(7, StallClass::PipelineBubble, value.abs().min(1.0), t)
                .is_none());
        }
        prop_assert_eq!(mon.active().count(), 0);
    }

    /// A large step always fires: a collapse to under half the baseline
    /// throughput clears the z threshold on the first post-step tick.
    #[test]
    fn throughput_drop_always_fires_on_a_step_change(
        baseline in 10.0f64..1e5,
        frac in 0.0f64..0.45,
        warm in 5u64..30,
    ) {
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        for t in 1..=warm {
            prop_assert!(mon.observe_throughput(1, baseline, t).is_none());
        }
        let ev = mon.observe_throughput(1, baseline * frac, warm + 1);
        prop_assert!(ev.is_some(), "step {} -> {} did not fire", baseline, baseline * frac);
        prop_assert_eq!(mon.active().count(), 1);
    }

    /// Same for a stall-share spike: a jump from a small steady share to a
    /// dominant one fires `stall_spike:<class>` immediately.
    #[test]
    fn stall_spike_always_fires_on_a_step_change(
        base in 0.0f64..0.2,
        spike in 0.6f64..1.0,
        warm in 5u64..30,
    ) {
        let mut mon = OnlineMonitor::new(MonitorConfig::default());
        for t in 1..=warm {
            prop_assert!(mon
                .observe_stall_share(1, StallClass::CommWait, base, t)
                .is_none());
        }
        let ev = mon.observe_stall_share(1, StallClass::CommWait, spike, warm + 1);
        prop_assert!(ev.is_some(), "step {} -> {} did not fire", base, spike);
    }

    /// Burn rate: on-budget progress (progress outpacing budget) never
    /// breaches; zero progress breaches as soon as the fast window fills.
    #[test]
    fn burn_rate_separates_on_budget_from_hopeless(
        budget in 1e-4f64..1e-2,
        headroom in 1.2f64..4.0,
        n in 10usize..60,
    ) {
        let cfg = BurnRateConfig::default();
        let mut healthy = BurnRateEvaluator::new(cfg);
        let mut hopeless = BurnRateEvaluator::new(cfg);
        for i in 0..n {
            let h = healthy.observe(budget, budget * headroom);
            prop_assert!(!h.breached, "on-budget job breached at tick {}", i);
            let obs = hopeless.observe(budget, 0.0);
            if i + 1 >= healthy.fast_window() {
                prop_assert!(obs.breached, "hopeless job quiet at tick {}", i);
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Journal replay invariant
// ---------------------------------------------------------------------------

/// Tenant submissions mixing valid jobs, unknown backbones (rejected at
/// submit), and hopeless SLOs (guaranteed burn alerts).
fn replay_spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        prop::sample::select(vec!["LLaMA2-7B", "NoSuchModel"]),
        prop::sample::select(vec![0u64, 20_000, 200_000]),
        prop::sample::select(vec![1usize, 4]),
        prop::sample::select(vec![None, Some(0.5f64)]),
    )
        .prop_map(|(backbone, tokens, mb, slo)| {
            let mut s = JobSpec::lora(backbone, DatasetKind::Sst2, 16, mb, tokens);
            if let Some(slo) = slo {
                s = s.with_slo(slo);
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Replaying the journal up to tick `t` reproduces the exact job-state
    /// map and active-alert set the live service had at tick `t`, for every
    /// prefix; the sealed journal round-trips through JSONL and verifies.
    #[test]
    fn journal_replay_matches_live_state_at_every_prefix(
        specs in prop::collection::vec(replay_spec_strategy(), 1..6),
        ticks in 3u64..15,
        dt in prop::sample::select(vec![0.05f64, 0.5]),
    ) {
        let mut cfg = ServiceConfig::a40_pool(8);
        cfg.backbone_layers = Some(8);
        let mut svc = FineTuneService::new(cfg);
        svc.enable_monitoring(MonitorConfig::default());
        for spec in specs {
            svc.submit(spec);
        }
        let mut fingerprints = Vec::new();
        for _ in 0..ticks {
            svc.tick(dt);
            fingerprints.push((svc.current_tick(), svc.state_fingerprint()));
        }
        svc.seal_journal();

        // The sealed journal survives a JSONL round trip and verifies.
        let text = svc.journal().to_jsonl();
        let journal = Journal::from_jsonl(&text).expect("parse own journal");
        let replayed = journal.verify().expect("sealed journal verifies");
        let last = svc.state_fingerprint();
        prop_assert_eq!(&replayed.jobs, &last.jobs);
        prop_assert_eq!(&replayed.alerts, &last.alerts);

        // Every prefix reproduces the live fingerprint at that tick.
        for (t, fp) in &fingerprints {
            let state = journal.replay_prefix(*t);
            prop_assert_eq!(&state.jobs, &fp.jobs, "job states diverge at tick {}", t);
            prop_assert_eq!(&state.alerts, &fp.alerts, "alerts diverge at tick {}", t);
        }

        // Tampering is detected: dropping an interior event breaks the
        // sequence check; rewriting a job in the final record breaks verify.
        if journal.len() > 2 {
            let truncated: Vec<&str> = text.lines().enumerate()
                .filter(|(i, _)| *i != 1)
                .map(|(_, l)| l)
                .collect();
            prop_assert!(Journal::from_jsonl(&truncated.join("\n")).is_err());
        }
    }
}
