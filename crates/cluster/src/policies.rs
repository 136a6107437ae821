//! Multiplexing-aware scheduling policies beyond FCFS (§6 "Discussion and
//! Future Work"): priority-based co-location and SLO-guarding admission
//! control.
//!
//! * **Priority-based**: high-priority tasks get dedicated instances
//!   (task-level latency guarantee); low-priority tasks co-locate to boost
//!   instance-level throughput — exactly the §6 sketch.
//! * **Admission control**: a task is only co-located if the resulting
//!   rate-sharing keeps every co-resident's projected completion within
//!   its SLO; otherwise it waits for a less-loaded slot.

use std::collections::VecDeque;

use mux_obs_analysis::fairness::jain_index;

use crate::sim::{ClusterError, ClusterShape, ThroughputProfile};
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

/// Per-class outcome of a policy replay.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Tasks in the class.
    pub count: usize,
    /// Mean job completion time, minutes.
    pub mean_jct_min: f64,
    /// Mean queueing delay, minutes.
    pub mean_queue_min: f64,
    /// Fraction of tasks finishing within their SLO (if SLOs were set).
    pub slo_attainment: f64,
}

/// Result of a policy replay.
#[derive(Debug, Clone)]
pub struct PolicyReport {
    /// Makespan, minutes.
    pub makespan_min: f64,
    /// Cluster throughput in reference-rate units.
    pub throughput: f64,
    /// High-priority class outcome.
    pub high: ClassReport,
    /// Low-priority class outcome.
    pub low: ClassReport,
    /// Jain fairness of per-task slowdowns (JCT ÷ ideal duration) across
    /// the whole trace: 1 = every task sees the same slowdown.
    pub jain_slowdown: f64,
}

#[derive(Debug, Clone)]
struct Active {
    idx: usize,
    remaining: f64,
}

struct State {
    instances: Vec<Vec<Active>>,
    queue: VecDeque<usize>,
    now: f64,
    start: Vec<f64>,
    finish: Vec<f64>,
}

fn task_rate(k: usize, profile: &ThroughputProfile) -> f64 {
    profile.aggregate(k) / k as f64
}

/// Replays `trace` with priority-aware placement and optional SLO-guarding
/// admission control.
///
/// * High-priority tasks only take *empty* instances (dedicated).
/// * Low-priority tasks co-locate up to the profile's capacity; with
///   `slo_factor = Some(f)`, a placement is admitted only if every
///   co-resident (including the newcomer) is still projected to finish
///   within `f x` its solo duration, assuming the current co-location
///   level persists.
pub fn replay_priority(
    trace: &[TraceTask],
    priorities: &[Priority],
    shape: ClusterShape,
    profile: &ThroughputProfile,
    slo_factor: Option<f64>,
) -> Result<PolicyReport, ClusterError> {
    if trace.len() != priorities.len() {
        return Err(ClusterError::PriorityLengthMismatch {
            trace: trace.len(),
            priorities: priorities.len(),
        });
    }
    let n_inst = shape.instances();
    if n_inst == 0 {
        return Err(ClusterError::ZeroInstances {
            total_gpus: shape.total_gpus,
            gpus_per_instance: shape.gpus_per_instance,
        });
    }
    profile.validate()?;
    let mut st = State {
        instances: vec![Vec::new(); n_inst],
        queue: VecDeque::new(),
        now: 0.0,
        start: vec![f64::NAN; trace.len()],
        finish: vec![f64::NAN; trace.len()],
    };
    let mut next_arrival = 0usize;
    let mut completed = 0usize;

    // An instance hosting a high-priority task is marked dedicated.
    let mut dedicated = vec![false; n_inst];

    let admits = |inst: &[Active], newcomer: &TraceTask, now: f64, start: &[f64]| -> bool {
        let Some(f) = slo_factor else { return true };
        let k = inst.len() + 1;
        let rate = task_rate(k, profile);
        // Newcomer's projection.
        if newcomer.duration_min / rate > f * newcomer.duration_min {
            return false;
        }
        // Co-residents' projections: elapsed so far + remaining at the new
        // (slower) per-task rate must stay within each task's SLO.
        inst.iter().all(|a| {
            let t = &trace[a.idx];
            let elapsed = now - start[a.idx];
            elapsed + a.remaining / rate <= f * t.duration_min
        })
    };

    while completed < trace.len() {
        // Next event.
        let mut next_completion: Option<f64> = None;
        for inst in &st.instances {
            if inst.is_empty() {
                continue;
            }
            let rate = task_rate(inst.len(), profile);
            let soonest = inst
                .iter()
                .map(|a| a.remaining / rate)
                .fold(f64::INFINITY, f64::min);
            let t = st.now + soonest;
            if next_completion.map(|bt| t < bt).unwrap_or(true) {
                next_completion = Some(t);
            }
        }
        let arrival_t = trace.get(next_arrival).map(|t| t.arrival_min);
        let advance_to = match (next_completion, arrival_t) {
            (Some(ct), Some(at)) => ct.min(at),
            (Some(ct), None) => ct,
            (None, Some(at)) => at,
            (None, None) => break,
        };
        let dt = advance_to - st.now;
        for inst in st.instances.iter_mut() {
            if inst.is_empty() {
                continue;
            }
            let rate = task_rate(inst.len(), profile);
            for a in inst.iter_mut() {
                a.remaining -= rate * dt;
            }
        }
        st.now = advance_to;
        for (ii, inst) in st.instances.iter_mut().enumerate() {
            inst.retain(|a| {
                if a.remaining <= 1e-9 {
                    st.finish[a.idx] = st.now;
                    completed += 1;
                    false
                } else {
                    true
                }
            });
            if inst.is_empty() {
                dedicated[ii] = false;
            }
        }
        while next_arrival < trace.len() && trace[next_arrival].arrival_min <= st.now + 1e-12 {
            st.queue.push_back(next_arrival);
            next_arrival += 1;
        }
        // Placement: FCFS over the queue, but skip entries that cannot be
        // placed yet rather than head-of-line-blocking the other class.
        let mut qi = 0;
        while qi < st.queue.len() {
            let idx = st.queue[qi];
            let task = &trace[idx];
            let placed = match priorities[idx] {
                Priority::High => {
                    // Dedicated instance: must be empty.
                    if let Some(ii) = st.instances.iter().position(|i| i.is_empty()) {
                        dedicated[ii] = true;
                        st.start[idx] = st.now;
                        st.instances[ii].push(Active {
                            idx,
                            remaining: task.duration_min,
                        });
                        true
                    } else {
                        false
                    }
                }
                Priority::Low => {
                    let slot = st
                        .instances
                        .iter()
                        .enumerate()
                        .filter(|(ii, inst)| {
                            !dedicated[*ii]
                                && inst.len() < profile.max_colocated
                                && admits(inst, task, st.now, &st.start)
                        })
                        .min_by_key(|(_, inst)| inst.len())
                        .map(|(ii, _)| ii);
                    match slot {
                        Some(ii) => {
                            st.start[idx] = st.now;
                            st.instances[ii].push(Active {
                                idx,
                                remaining: task.duration_min,
                            });
                            true
                        }
                        None => false,
                    }
                }
            };
            if placed {
                st.queue.remove(qi);
            } else {
                qi += 1;
            }
        }
    }

    let class_report = |class: Priority| -> ClassReport {
        let idxs: Vec<usize> = (0..trace.len())
            .filter(|&i| priorities[i] == class)
            .collect();
        let n = idxs.len().max(1) as f64;
        let jct: f64 = idxs
            .iter()
            .map(|&i| st.finish[i] - trace[i].arrival_min)
            .sum::<f64>()
            / n;
        let queue: f64 = idxs
            .iter()
            .map(|&i| st.start[i] - trace[i].arrival_min)
            .sum::<f64>()
            / n;
        let slo = match slo_factor {
            Some(f) => {
                idxs.iter()
                    .filter(|&&i| st.finish[i] - st.start[i] <= f * trace[i].duration_min + 1e-6)
                    .count() as f64
                    / n
            }
            None => f64::NAN,
        };
        ClassReport {
            count: idxs.len(),
            mean_jct_min: jct,
            mean_queue_min: queue,
            slo_attainment: slo,
        }
    };

    let total_work: f64 = trace.iter().map(|t| t.duration_min).sum();
    let jain_slowdown = jain_index(
        (0..trace.len())
            .map(|i| (st.finish[i] - trace[i].arrival_min) / trace[i].duration_min.max(1e-9)),
    );
    Ok(PolicyReport {
        makespan_min: st.now,
        throughput: total_work / st.now,
        high: class_report(Priority::High),
        low: class_report(Priority::Low),
        jain_slowdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sim::replay_fcfs;
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
        let rep = replay_priority(&trace, &prios, shape(), &mux_profile(), None).unwrap();
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
        let rep = replay_priority(&trace, &prios, shape(), &mux_profile(), None).unwrap();
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
        let single = replay_fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert!(rep.throughput > single.throughput);
    }

    #[test]
    fn admission_control_raises_slo_attainment() {
        let trace = generate(500, 11, None);
        let prios = vec![Priority::Low; trace.len()];
        // SLO: finish within 2.2x solo duration. Without admission control,
        // 4-way co-location runs each task at rate 0.5 -> 2x slowdown plus
        // fluctuation; with it, placements that would break the SLO wait.
        let with = replay_priority(&trace, &prios, shape(), &mux_profile(), Some(1.8)).unwrap();
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
        let rep = replay_priority(&trace, &prios, shape(), &mux_profile(), None).unwrap();
        assert!(rep.low.slo_attainment.is_nan());
        assert_eq!(rep.low.count, 50);
    }
}
