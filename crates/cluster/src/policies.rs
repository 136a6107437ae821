//! Priority classes for the §6 ("Discussion and Future Work") scheduling
//! policies, which [`replay`](crate::sim::replay) takes as inputs:
//!
//! * **Priority-based**: high-priority tasks get dedicated instances
//!   (task-level latency guarantee); low-priority tasks co-locate to boost
//!   instance-level throughput — exactly the §6 sketch.
//! * **Admission control** (`slo_factor`): a task is only co-located if the
//!   resulting rate-sharing keeps every co-resident's projected completion
//!   within its SLO; otherwise it waits for a less-loaded slot.

use crate::sim::ClusterError;
use crate::trace::TraceTask;

/// Task priority classes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Priority {
    /// Latency-sensitive: gets dedicated resources.
    High,
    /// Throughput-oriented: co-locatable.
    Low,
}

/// Assigns priorities deterministically: every `1/high_fraction`-th task is
/// high-priority. A `high_fraction` outside `[0, 1]` (or NaN) is a typed
/// error, not a panic — it arrives from tenant-facing configuration.
pub fn assign_priorities(
    trace: &[TraceTask],
    high_fraction: f64,
) -> Result<Vec<Priority>, ClusterError> {
    if !(0.0..=1.0).contains(&high_fraction) {
        return Err(ClusterError::HighFractionOutOfRange(high_fraction));
    }
    let period = if high_fraction <= 0.0 {
        usize::MAX
    } else {
        (1.0 / high_fraction).round() as usize
    };
    Ok(trace
        .iter()
        .map(|t| {
            if period != usize::MAX && (t.id as usize).is_multiple_of(period) {
                Priority::High
            } else {
                Priority::Low
            }
        })
        .collect())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::{replay, ClusterShape, ThroughputProfile};
    use crate::trace::generate;

    fn shape() -> ClusterShape {
        ClusterShape {
            total_gpus: 64,
            gpus_per_instance: 4,
        }
    }

    fn mux_profile() -> ThroughputProfile {
        ThroughputProfile::from_rates(vec![1.0, 1.5, 1.8, 2.0]).unwrap()
    }

    #[test]
    fn priorities_are_deterministic_and_proportional() {
        let trace = generate(1000, 5, None);
        let p = assign_priorities(&trace, 0.2).unwrap();
        let high = p.iter().filter(|&&x| x == Priority::High).count();
        assert!((high as f64 / 1000.0 - 0.2).abs() < 0.02);
    }

    #[test]
    fn high_priority_tasks_run_undiluted() {
        let trace = generate(400, 7, None);
        let prios = assign_priorities(&trace, 0.15).unwrap();
        let rep = replay(&trace, shape(), &mux_profile(), Some(&prios), None, &[]).unwrap();
        // Dedicated execution: high-priority mean service time equals the
        // solo duration, so JCT_high - queue_high == mean solo duration.
        let high_service = rep.high.mean_jct_min - rep.high.mean_queue_min;
        let solo_mean: f64 = trace
            .iter()
            .zip(&prios)
            .filter(|(_, &p)| p == Priority::High)
            .map(|(t, _)| t.duration_min)
            .sum::<f64>()
            / rep.high.count as f64;
        assert!(
            (high_service - solo_mean).abs() / solo_mean < 0.01,
            "high-priority service {high_service} vs solo {solo_mean}"
        );
    }

    #[test]
    fn low_priority_service_is_diluted_but_cluster_throughput_holds() {
        let trace = generate(400, 9, None);
        let prios = assign_priorities(&trace, 0.1).unwrap();
        let rep = replay(&trace, shape(), &mux_profile(), Some(&prios), None, &[]).unwrap();
        let low_service = rep.low.mean_jct_min - rep.low.mean_queue_min;
        let solo_mean: f64 = trace
            .iter()
            .zip(&prios)
            .filter(|(_, &p)| p == Priority::Low)
            .map(|(t, _)| t.duration_min)
            .sum::<f64>()
            / rep.low.count as f64;
        assert!(low_service > solo_mean, "co-location dilutes per-task rate");
        // But aggregate throughput beats single-task FCFS.
        let single = replay(
            &trace,
            shape(),
            &ThroughputProfile::single_task(1.0),
            None,
            None,
            &[],
        )
        .unwrap();
        assert!(rep.throughput > single.throughput);
    }

    #[test]
    fn admission_control_raises_slo_attainment() {
        let trace = generate(500, 11, None);
        let prios = vec![Priority::Low; trace.len()];
        // SLO: finish within 2.2x solo duration. Without admission control,
        // 4-way co-location runs each task at rate 0.5 -> 2x slowdown plus
        // fluctuation; with it, placements that would break the SLO wait.
        let with = replay(
            &trace,
            shape(),
            &mux_profile(),
            Some(&prios),
            Some(1.8),
            &[],
        )
        .unwrap();
        assert!(
            with.low.slo_attainment > 0.95,
            "admission control must protect SLOs: {}",
            with.low.slo_attainment
        );
    }

    #[test]
    fn no_slo_means_nan_attainment() {
        let trace = generate(50, 13, None);
        let prios = vec![Priority::Low; trace.len()];
        let rep = replay(&trace, shape(), &mux_profile(), Some(&prios), None, &[]).unwrap();
        assert!(rep.low.slo_attainment.is_nan());
        assert_eq!(rep.low.count, 50);
    }
}
