//! Property and unit coverage for the §6 scheduling policies in
//! `mux-cluster`: SLO-guarding admission control and priority-based
//! co-location.
//!
//! The headline property: **admission control is a guarantee, not a
//! heuristic** — with `slo_factor = Some(f)`, every task that the replay
//! places finishes within `f ×` its solo duration, for any trace, any
//! cluster shape, and any concave throughput profile. (A placement is
//! admitted only if every co-resident's projection survives, and rates
//! only improve as co-residents leave, so projections are conservative.)

use muxtune::cluster::{
    assign_priorities, generate, replay, ClusterError, ClusterShape, Priority, ThroughputProfile,
};
use proptest::prelude::*;

fn shape(total: usize, per: usize) -> ClusterShape {
    ClusterShape {
        total_gpus: total,
        gpus_per_instance: per,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The SLO guarantee: under admission control every task — in both
    /// priority classes — attains its SLO. Attainment is exactly 1.0, not
    /// "high": the admission predicate is conservative by construction.
    #[test]
    fn admission_control_guarantees_every_placed_task_its_slo(
        n in prop::sample::select(vec![50usize, 200, 500]),
        seed in 0u64..1000,
        slo_factor in prop::sample::select(vec![1.5f64, 2.0, 3.0]),
        high_fraction in prop::sample::select(vec![0.0f64, 0.1, 0.3]),
        rates in prop::sample::select(vec![
            vec![1.0, 1.5, 1.8, 2.0],
            vec![1.0, 1.9],
            vec![1.0, 1.2, 1.3, 1.35, 1.38],
        ]),
    ) {
        let trace = generate(n, seed, None);
        let prios = assign_priorities(&trace, high_fraction).expect("valid fraction");
        let profile = ThroughputProfile::from_rates(rates).expect("concave profile");
        let rep = replay(&trace, shape(64, 4), &profile, Some(&prios), Some(slo_factor), &[])
            .expect("replay succeeds");
        if rep.high.count > 0 {
            prop_assert!(
                (rep.high.slo_attainment - 1.0).abs() < 1e-12,
                "high-priority attainment {} < 1 (seed {}, f {})",
                rep.high.slo_attainment, seed, slo_factor
            );
        }
        if rep.low.count > 0 {
            prop_assert!(
                (rep.low.slo_attainment - 1.0).abs() < 1e-12,
                "low-priority attainment {} < 1 (seed {}, f {})",
                rep.low.slo_attainment, seed, slo_factor
            );
        }
        prop_assert!(rep.makespan_min > 0.0 && rep.throughput > 0.0);
    }

    /// On a *saturated* cluster (4 instances, hundreds of tasks), where
    /// throughput is capacity-bound rather than arrival-bound,
    /// co-location beats one-task-per-instance FCFS: each instance's
    /// aggregate rate under multiplexing strictly exceeds the solo rate.
    /// (Under light load the comparison is arrival-bound and co-location
    /// can lose a little to tail dilution — that regime is not claimed.)
    #[test]
    fn colocation_throughput_dominates_fcfs_when_saturated(
        seed in 0u64..1000,
        slo in prop::sample::select(vec![None, Some(2.0f64), Some(3.0)]),
    ) {
        let trace = generate(300, seed, None);
        let prios = assign_priorities(&trace, 0.1).expect("valid fraction");
        let profile = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).expect("profile");
        let mux = replay(&trace, shape(16, 4), &profile, Some(&prios), slo, &[])
            .expect("replay succeeds");
        let single = replay(&trace, shape(16, 4), &ThroughputProfile::single_task(1.0), None, None, &[])
            .expect("fcfs succeeds");
        prop_assert!(
            mux.throughput > single.throughput,
            "multiplexed throughput {} under single-task {}",
            mux.throughput, single.throughput
        );
    }
}

/// High-priority tasks run dedicated: their service time equals their solo
/// duration even when the cluster is saturated with low-priority work.
#[test]
fn high_priority_service_time_is_solo_duration_under_load() {
    let trace = generate(600, 21, None);
    let prios = assign_priorities(&trace, 0.25).expect("valid fraction");
    let profile = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).expect("profile");
    let rep = replay(&trace, shape(32, 4), &profile, Some(&prios), None, &[]).expect("replay");
    let solo_mean: f64 = trace
        .iter()
        .zip(&prios)
        .filter(|(_, &p)| p == Priority::High)
        .map(|(t, _)| t.duration_min)
        .sum::<f64>()
        / rep.high.count as f64;
    let high_service = rep.high.mean_jct_min - rep.high.mean_queue_min;
    assert!(
        (high_service - solo_mean).abs() / solo_mean < 1e-9,
        "dedicated service {high_service} must equal solo mean {solo_mean}"
    );
}

/// The two ends of the priority dial degenerate to the expected policies:
/// all-low behaves like pure co-location, all-high like pure dedication.
#[test]
fn priority_fraction_extremes_are_consistent() {
    let trace = generate(200, 33, None);
    let all_low = assign_priorities(&trace, 0.0).expect("valid");
    assert!(all_low.iter().all(|&p| p == Priority::Low));
    let all_high = assign_priorities(&trace, 1.0).expect("valid");
    assert!(all_high.iter().all(|&p| p == Priority::High));

    let profile = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).expect("profile");
    let low_rep =
        replay(&trace, shape(64, 4), &profile, Some(&all_low), None, &[]).expect("replay low");
    let high_rep =
        replay(&trace, shape(64, 4), &profile, Some(&all_high), None, &[]).expect("replay high");
    // Dedication sacrifices throughput for latency; co-location the reverse.
    assert!(low_rep.throughput >= high_rep.throughput);
    assert_eq!(low_rep.high.count, 0);
    assert_eq!(high_rep.low.count, 0);
}

/// Tenant-facing knobs fail with typed errors, never panics.
#[test]
fn invalid_policy_inputs_are_typed_errors() {
    let trace = generate(10, 1, None);
    assert!(matches!(
        assign_priorities(&trace, -0.1),
        Err(ClusterError::HighFractionOutOfRange(_))
    ));
    assert!(matches!(
        assign_priorities(&trace, f64::NAN),
        Err(ClusterError::HighFractionOutOfRange(_))
    ));
    let profile = ThroughputProfile::from_rates(vec![1.0, 1.5]).expect("profile");
    let short = vec![Priority::Low; 3];
    assert!(matches!(
        replay(&trace, shape(8, 4), &profile, Some(&short), None, &[]),
        Err(ClusterError::PriorityLengthMismatch { .. })
    ));
    assert!(matches!(
        replay(
            &trace,
            shape(2, 4),
            &profile,
            Some(&vec![Priority::Low; trace.len()]),
            None,
            &[]
        ),
        Err(ClusterError::ZeroInstances { .. })
    ));
}
