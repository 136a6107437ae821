//! Cluster-level scheduling simulation (§5.4, Fig 21b).
//!
//! Replays a trace on a fixed pool of GPUs carved into identical instances,
//! with a first-come-first-served scheduler. Per-instance execution speed
//! comes from a [`ThroughputProfile`] — aggregate instance throughput as a
//! function of co-located task count — calibrated from instance-level
//! engine runs, so cluster results inherit the fidelity of the
//! discrete-event engine without re-simulating every operator per trace
//! event.

use std::collections::VecDeque;

use crate::trace::TraceTask;

/// Typed errors for cluster replay and policy entry points — tenant-supplied
/// shapes and profiles must never panic the replayer (the same
/// panic-free-planning contract the planner's `PlanError` established).
#[derive(Debug, Clone, PartialEq)]
pub enum ClusterError {
    /// A throughput profile was built with no rates at all.
    EmptyProfile,
    /// A profile rate is not finite and positive: a 0 or NaN rate never
    /// completes a task, and a negative one runs time backwards.
    InvalidRate {
        /// Co-located task count the rate belongs to (`rate[tasks - 1]`).
        tasks: usize,
        /// The offending rate.
        rate: f64,
    },
    /// The profile lets an instance hold zero tasks, so nothing can run.
    ZeroColocation,
    /// The cluster shape carves out zero instances
    /// (`total_gpus < gpus_per_instance`).
    ZeroInstances {
        /// Total GPUs in the offending shape.
        total_gpus: usize,
        /// GPUs per instance in the offending shape.
        gpus_per_instance: usize,
    },
    /// `priorities` does not line up 1:1 with the trace.
    PriorityLengthMismatch {
        /// Trace length.
        trace: usize,
        /// Priority vector length.
        priorities: usize,
    },
    /// `high_fraction` fell outside `[0, 1]`.
    HighFractionOutOfRange(f64),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::EmptyProfile => {
                write!(f, "throughput profile needs at least the 1-task rate")
            }
            ClusterError::InvalidRate { tasks, rate } => write!(
                f,
                "throughput profile rate {rate} at {tasks} task(s) is not finite and positive"
            ),
            ClusterError::ZeroColocation => {
                write!(f, "throughput profile allows zero co-located tasks")
            }
            ClusterError::ZeroInstances {
                total_gpus,
                gpus_per_instance,
            } => write!(
                f,
                "cluster shape yields zero instances ({total_gpus} GPUs at {gpus_per_instance}/instance)"
            ),
            ClusterError::PriorityLengthMismatch { trace, priorities } => write!(
                f,
                "priority vector length {priorities} does not match trace length {trace}"
            ),
            ClusterError::HighFractionOutOfRange(x) => {
                write!(f, "high_fraction {x} outside [0, 1]")
            }
        }
    }
}

impl std::error::Error for ClusterError {}

/// Aggregate instance throughput (relative to one reference task running
/// alone = 1.0) as a function of the number of co-located tasks.
#[derive(Debug, Clone)]
pub struct ThroughputProfile {
    /// `rate[k-1]` = aggregate rate with `k` co-located tasks.
    pub rate: Vec<f64>,
    /// Maximum tasks an instance may co-locate (memory bound; 1 for
    /// replicating systems).
    pub max_colocated: usize,
}

impl ThroughputProfile {
    /// A single-task system (HF-PEFT / NeMo): one task per instance at the
    /// given relative rate.
    pub fn single_task(rate: f64) -> Self {
        Self {
            rate: vec![rate],
            max_colocated: 1,
        }
    }

    /// Builds a profile from measured aggregate rates for 1..=max tasks.
    pub fn from_rates(rate: Vec<f64>) -> Result<Self, ClusterError> {
        let profile = Self {
            max_colocated: rate.len(),
            rate,
        };
        profile.validate()?;
        Ok(profile)
    }

    /// Checks the profile can drive a replay: at least one rate, every
    /// rate finite and positive, and room for at least one task. The
    /// fields are public, so every replay checks what it is handed.
    pub(crate) fn validate(&self) -> Result<(), ClusterError> {
        if self.rate.is_empty() {
            return Err(ClusterError::EmptyProfile);
        }
        if let Some((i, &rate)) = self
            .rate
            .iter()
            .enumerate()
            .find(|(_, r)| !(r.is_finite() && **r > 0.0))
        {
            return Err(ClusterError::InvalidRate { tasks: i + 1, rate });
        }
        if self.max_colocated == 0 {
            return Err(ClusterError::ZeroColocation);
        }
        Ok(())
    }

    /// Aggregate rate with `k` tasks, clamped to the calibrated range on
    /// both ends (`k = 0` reads the 1-task rate; an empty hand-built
    /// profile reads as rate 0 instead of panicking).
    pub fn aggregate(&self, k: usize) -> f64 {
        match self.rate.len() {
            0 => 0.0,
            n => self.rate[k.saturating_sub(1).min(n - 1)],
        }
    }
}

/// One instance-wide outage window for fault-aware replay: the instance
/// freezes (no progress, no placements) over `[start_min, end_min)` and
/// resumes its paused co-residents afterwards.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct InstanceOutage {
    /// Instance index.
    pub instance: usize,
    /// Outage start, minutes.
    pub start_min: f64,
    /// Outage end, minutes.
    pub end_min: f64,
}

impl InstanceOutage {
    /// Whether the instance is down at `now`.
    fn covers(&self, now: f64) -> bool {
        self.start_min <= now && now < self.end_min
    }
}

/// Cluster geometry.
#[derive(Debug, Clone, Copy)]
pub struct ClusterShape {
    /// Total GPUs (the paper uses 128).
    pub total_gpus: usize,
    /// GPUs per instance (4 for LLaMA7B, Table 1).
    pub gpus_per_instance: usize,
}

impl ClusterShape {
    /// Number of instances.
    pub fn instances(&self) -> usize {
        self.total_gpus / self.gpus_per_instance
    }
}

/// Per-instance usage accounting over one replay: how much of the
/// makespan each instance spent hosting work, and how densely.
#[derive(Debug, Clone, PartialEq)]
pub struct InstanceUsage {
    /// Instance index.
    pub instance: usize,
    /// Minutes with at least one active task.
    pub busy_min: f64,
    /// Task-minutes of occupancy (`∫ active-task-count dt`), so
    /// `occupancy_task_min / busy_min` is the mean co-location depth
    /// while busy.
    pub occupancy_task_min: f64,
    /// Tasks that finished on this instance.
    pub completed: usize,
}

impl InstanceUsage {
    /// Fraction of `makespan` this instance was hosting work.
    pub fn busy_fraction(&self, makespan_min: f64) -> f64 {
        self.busy_min / makespan_min.max(1e-12)
    }
}

/// Results of one trace replay.
#[derive(Debug, Clone)]
pub struct ClusterReport {
    /// Time the last task completed, minutes.
    pub makespan_min: f64,
    /// Aggregate work completed per minute (work = task-minutes-alone) —
    /// the "cluster throughput" of Fig 21b, in reference-rate units.
    pub throughput: f64,
    /// Mean job completion time (arrival → finish), minutes.
    pub mean_jct_min: f64,
    /// Mean queueing delay (arrival → start), minutes.
    pub mean_queue_min: f64,
    /// Tasks completed.
    pub completed: usize,
    /// Per-instance busy time / occupancy / completion accounting.
    pub instances: Vec<InstanceUsage>,
}

impl ClusterReport {
    /// Mean busy fraction across instances (idle-instance attribution:
    /// `1 - mean_busy_fraction` of the pool-makespan product was spent
    /// with no work placed).
    pub fn mean_busy_fraction(&self) -> f64 {
        if self.instances.is_empty() {
            return 0.0;
        }
        self.instances
            .iter()
            .map(|u| u.busy_fraction(self.makespan_min))
            .sum::<f64>()
            / self.instances.len() as f64
    }
}

#[derive(Debug, Clone)]
struct Active {
    idx: usize,
    remaining: f64,
}

/// Replays `trace` under FCFS with the given per-instance profile.
pub fn replay_fcfs(
    trace: &[TraceTask],
    shape: ClusterShape,
    profile: &ThroughputProfile,
) -> Result<ClusterReport, ClusterError> {
    replay_fcfs_faulty(trace, shape, profile, &[])
}

/// Fault-aware FCFS replay: instances freeze inside their [`InstanceOutage`]
/// windows — in-flight tasks pause (their work is preserved, checkpoint
/// semantics) and no new work is placed — then resume when the outage
/// lifts. With an empty outage list this is exactly [`replay_fcfs`].
pub fn replay_fcfs_faulty(
    trace: &[TraceTask],
    shape: ClusterShape,
    profile: &ThroughputProfile,
    outages: &[InstanceOutage],
) -> Result<ClusterReport, ClusterError> {
    let n_inst = shape.instances();
    if n_inst == 0 {
        return Err(ClusterError::ZeroInstances {
            total_gpus: shape.total_gpus,
            gpus_per_instance: shape.gpus_per_instance,
        });
    }
    profile.validate()?;
    let down =
        |ii: usize, now: f64| -> bool { outages.iter().any(|o| o.instance == ii && o.covers(now)) };
    // The next outage boundary (start or end) strictly after `now`: rates
    // are piecewise-constant only between boundaries, so the event loop
    // must not integrate across one.
    let next_boundary = |now: f64| -> Option<f64> {
        outages
            .iter()
            .flat_map(|o| [o.start_min, o.end_min])
            .filter(|&t| t > now + 1e-12)
            .fold(None, |best: Option<f64>, t| {
                Some(best.map_or(t, |b| b.min(t)))
            })
    };
    let mut instances: Vec<Vec<Active>> = vec![Vec::new(); n_inst];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut finish = vec![f64::NAN; trace.len()];
    let mut start = vec![f64::NAN; trace.len()];
    let mut completed = 0usize;
    let mut usage: Vec<InstanceUsage> = (0..n_inst)
        .map(|instance| InstanceUsage {
            instance,
            busy_min: 0.0,
            occupancy_task_min: 0.0,
            completed: 0,
        })
        .collect();

    let task_rate = |k: usize, profile: &ThroughputProfile| profile.aggregate(k) / k as f64;

    while completed < trace.len() {
        // Next event: earliest completion across *up* instances, the next
        // arrival, or the next outage boundary (down instances make no
        // progress, so they produce no completions until they resume).
        let mut next_completion: Option<(f64, usize)> = None; // (time, instance)
        for (ii, inst) in instances.iter().enumerate() {
            if inst.is_empty() || down(ii, now) {
                continue;
            }
            let rate = task_rate(inst.len(), profile);
            let soonest = inst
                .iter()
                .map(|a| a.remaining / rate)
                .fold(f64::INFINITY, f64::min);
            let t = now + soonest;
            if next_completion.map(|(bt, _)| t < bt).unwrap_or(true) {
                next_completion = Some((t, ii));
            }
        }
        let arrival_t = trace.get(next_arrival).map(|t| t.arrival_min);
        let boundary_t = next_boundary(now);
        let advance_to = [next_completion.map(|(ct, _)| ct), arrival_t, boundary_t]
            .into_iter()
            .flatten()
            .fold(None, |best: Option<f64>, t| {
                Some(best.map_or(t, |b| b.min(t)))
            });
        let Some(advance_to) = advance_to else { break };
        // Advance progress on every up instance.
        let dt = advance_to - now;
        for (ii, inst) in instances.iter_mut().enumerate() {
            if inst.is_empty() || down(ii, now) {
                continue;
            }
            usage[ii].busy_min += dt;
            usage[ii].occupancy_task_min += inst.len() as f64 * dt;
            let rate = task_rate(inst.len(), profile);
            for a in inst.iter_mut() {
                a.remaining -= rate * dt;
            }
        }
        now = advance_to;
        // Completions (tolerate float dust).
        for (ii, inst) in instances.iter_mut().enumerate() {
            inst.retain(|a| {
                if a.remaining <= 1e-9 {
                    finish[a.idx] = now;
                    completed += 1;
                    usage[ii].completed += 1;
                    false
                } else {
                    true
                }
            });
        }
        // Arrivals at this instant.
        while next_arrival < trace.len() && trace[next_arrival].arrival_min <= now + 1e-12 {
            queue.push_back(next_arrival);
            next_arrival += 1;
        }
        // FCFS placement: head of queue goes to the least-loaded *up*
        // instance with spare co-location capacity; stop at the first that
        // cannot be placed (strict FCFS, as in the paper).
        while let Some(&idx) = queue.front() {
            let slot = instances
                .iter()
                .enumerate()
                .filter(|(ii, inst)| inst.len() < profile.max_colocated && !down(*ii, now))
                .min_by_key(|(_, inst)| inst.len())
                .map(|(ii, _)| ii);
            match slot {
                Some(ii) => {
                    queue.pop_front();
                    start[idx] = now;
                    instances[ii].push(Active {
                        idx,
                        remaining: trace[idx].duration_min,
                    });
                }
                None => break,
            }
        }
    }

    let total_work: f64 = trace.iter().map(|t| t.duration_min).sum();
    let n = trace.len() as f64;
    Ok(ClusterReport {
        makespan_min: now,
        throughput: total_work / now,
        mean_jct_min: trace
            .iter()
            .enumerate()
            .map(|(i, t)| finish[i] - t.arrival_min)
            .sum::<f64>()
            / n,
        mean_queue_min: trace
            .iter()
            .enumerate()
            .map(|(i, t)| start[i] - t.arrival_min)
            .sum::<f64>()
            / n,
        completed,
        instances: usage,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::generate;

    fn shape() -> ClusterShape {
        ClusterShape {
            total_gpus: 128,
            gpus_per_instance: 4,
        }
    }

    #[test]
    fn all_tasks_complete() {
        let trace = generate(500, 11, None);
        let rep = replay_fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert_eq!(rep.completed, 500);
        assert!(rep.makespan_min >= trace.last().expect("non-empty").arrival_min);
    }

    #[test]
    fn higher_aggregate_rate_raises_cluster_throughput() {
        let trace = generate(800, 13, None);
        let slow = replay_fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        // A multiplexing system: 4 co-located tasks run at 2.2x aggregate.
        let mux = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.9, 2.2]).unwrap();
        let fast = replay_fcfs(&trace, shape(), &mux).unwrap();
        assert!(
            fast.throughput > slow.throughput,
            "{} vs {}",
            fast.throughput,
            slow.throughput
        );
        assert!(fast.mean_jct_min <= slow.mean_jct_min);
    }

    #[test]
    fn colocation_capacity_is_respected() {
        // With capacity 1 and one instance, tasks serialize.
        let trace = generate(4, 17, None);
        let one = ClusterShape {
            total_gpus: 4,
            gpus_per_instance: 4,
        };
        let rep = replay_fcfs(&trace, one, &ThroughputProfile::single_task(1.0)).unwrap();
        let serial: f64 = trace.iter().map(|t| t.duration_min).sum();
        assert!(
            rep.makespan_min >= serial * 0.999,
            "{} vs serial {}",
            rep.makespan_min,
            serial
        );
    }

    #[test]
    fn empty_cluster_idles_until_arrivals() {
        let mut trace = generate(2, 19, None);
        trace[0].arrival_min = 100.0;
        trace[1].arrival_min = 100.0;
        let rep = replay_fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert!(rep.makespan_min > 100.0);
        assert!(rep.mean_queue_min < 1e-9, "no queueing with a huge cluster");
    }

    #[test]
    fn instance_usage_conserves_work_and_completions() {
        let trace = generate(200, 29, None);
        let rep = replay_fcfs(
            &trace,
            shape(),
            &ThroughputProfile::from_rates(vec![1.0, 1.6, 2.0, 2.3]).unwrap(),
        )
        .unwrap();
        assert_eq!(rep.instances.len(), shape().instances());
        // Completions across instances sum to the trace.
        let total: usize = rep.instances.iter().map(|u| u.completed).sum();
        assert_eq!(total, trace.len());
        for u in &rep.instances {
            assert!(
                u.busy_min <= rep.makespan_min + 1e-9,
                "instance {}",
                u.instance
            );
            // Occupancy is at least busy time (>=1 task while busy) and at
            // most busy * co-location capacity.
            assert!(u.occupancy_task_min >= u.busy_min - 1e-9);
            assert!(u.occupancy_task_min <= u.busy_min * 4.0 + 1e-9);
            let f = u.busy_fraction(rep.makespan_min);
            assert!((0.0..=1.0 + 1e-9).contains(&f));
        }
        let mean = rep.mean_busy_fraction();
        assert!(mean > 0.0 && mean <= 1.0 + 1e-9, "mean busy {mean}");
    }

    #[test]
    fn serialized_instance_is_busy_for_the_whole_work() {
        // Capacity 1, one instance, simultaneous arrivals: the instance is
        // busy for exactly the serial duration sum.
        let mut trace = generate(4, 17, None);
        for t in &mut trace {
            t.arrival_min = 0.0;
        }
        let one = ClusterShape {
            total_gpus: 4,
            gpus_per_instance: 4,
        };
        let rep = replay_fcfs(&trace, one, &ThroughputProfile::single_task(1.0)).unwrap();
        let serial: f64 = trace.iter().map(|t| t.duration_min).sum();
        let u = &rep.instances[0];
        assert!(
            (u.busy_min - serial).abs() <= 1e-6 * serial,
            "busy {} vs serial {serial}",
            u.busy_min
        );
        // One task at a time: occupancy equals busy time.
        assert!((u.occupancy_task_min - u.busy_min).abs() <= 1e-6 * serial);
        assert_eq!(u.completed, 4);
    }

    #[test]
    fn sharing_reduces_queueing_under_load() {
        // Tiny cluster, many tasks: co-location capacity 4 slashes queues.
        let trace = generate(100, 23, None);
        let tiny = ClusterShape {
            total_gpus: 8,
            gpus_per_instance: 4,
        };
        let single = replay_fcfs(&trace, tiny, &ThroughputProfile::single_task(1.0)).unwrap();
        let shared = replay_fcfs(
            &trace,
            tiny,
            &ThroughputProfile::from_rates(vec![1.0, 1.6, 2.0, 2.3]).unwrap(),
        )
        .unwrap();
        assert!(shared.mean_queue_min < single.mean_queue_min);
    }

    #[test]
    fn bad_inputs_are_typed_errors_not_panics() {
        assert_eq!(
            ThroughputProfile::from_rates(vec![]).unwrap_err(),
            ClusterError::EmptyProfile
        );
        assert_eq!(
            ThroughputProfile::from_rates(vec![1.0, 0.0]).unwrap_err(),
            ClusterError::InvalidRate {
                tasks: 2,
                rate: 0.0
            }
        );
        let trace = generate(4, 3, None);
        let bad = ClusterShape {
            total_gpus: 2,
            gpus_per_instance: 4,
        };
        assert!(matches!(
            replay_fcfs(&trace, bad, &ThroughputProfile::single_task(1.0)),
            Err(ClusterError::ZeroInstances { .. })
        ));
        // Profiles that would stall the replay forever (0, NaN, no rate)
        // or return nonsense (negative rate, no room for a task) are typed
        // errors at both replay entry points, however they were built.
        // (Errors compare by text: a NaN rate never equals itself.)
        let hand = |rate: Vec<f64>, max_colocated| ThroughputProfile {
            rate,
            max_colocated,
        };
        let rate = |rate| ClusterError::InvalidRate { tasks: 1, rate };
        let prios = vec![crate::policies::Priority::Low; trace.len()];
        for (profile, want) in [
            (ThroughputProfile::single_task(0.0), rate(0.0)),
            (hand(vec![0.0], 1), rate(0.0)),
            (hand(vec![f64::NAN], 1), rate(f64::NAN)),
            (ThroughputProfile::single_task(-1.0), rate(-1.0)),
            (hand(vec![], 1), ClusterError::EmptyProfile),
            (hand(vec![1.0], 0), ClusterError::ZeroColocation),
        ] {
            let fcfs = replay_fcfs(&trace, shape(), &profile).map(|_| ());
            let prio = crate::policies::replay_priority(&trace, &prios, shape(), &profile, None);
            for got in [fcfs, prio.map(|_| ())] {
                assert_eq!(got.unwrap_err().to_string(), want.to_string());
            }
        }
        // Degenerate aggregate queries clamp instead of panicking.
        let p = ThroughputProfile::single_task(1.0);
        assert_eq!(p.aggregate(0), 1.0);
        assert_eq!(p.aggregate(100), 1.0);
    }

    #[test]
    fn zero_length_outage_matches_fault_free_replay() {
        let trace = generate(200, 31, None);
        let base = replay_fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        let noop = [InstanceOutage {
            instance: 0,
            start_min: 5.0,
            end_min: 5.0,
        }];
        let faulty =
            replay_fcfs_faulty(&trace, shape(), &ThroughputProfile::single_task(1.0), &noop)
                .unwrap();
        assert_eq!(faulty.completed, base.completed);
        assert!((faulty.makespan_min - base.makespan_min).abs() < 1e-9);
        assert!((faulty.mean_jct_min - base.mean_jct_min).abs() < 1e-9);
    }

    #[test]
    fn outage_pauses_work_and_everything_still_completes() {
        // One instance, serialized work: an outage in the middle delays the
        // makespan by at least its length, but every task still finishes.
        let mut trace = generate(4, 17, None);
        for t in &mut trace {
            t.arrival_min = 0.0;
        }
        let one = ClusterShape {
            total_gpus: 4,
            gpus_per_instance: 4,
        };
        let profile = ThroughputProfile::single_task(1.0);
        let base = replay_fcfs(&trace, one, &profile).unwrap();
        let outage = [InstanceOutage {
            instance: 0,
            start_min: 1.0,
            end_min: 11.0,
        }];
        let faulty = replay_fcfs_faulty(&trace, one, &profile, &outage).unwrap();
        assert_eq!(faulty.completed, trace.len(), "no task lost to the outage");
        assert!(
            faulty.makespan_min >= base.makespan_min + 10.0 - 1e-6,
            "outage of 10 min delays the makespan: {} vs {}",
            faulty.makespan_min,
            base.makespan_min
        );
        // Paused time is not busy time.
        assert!(faulty.instances[0].busy_min <= base.instances[0].busy_min + 1e-6);
    }

    #[test]
    fn outage_on_one_instance_leaves_others_unaffected() {
        // Two instances, two simultaneous tasks: each lands on its own
        // instance; knocking instance 1 out delays only its own task.
        let mut trace = generate(2, 23, None);
        for t in &mut trace {
            t.arrival_min = 0.0;
        }
        let two = ClusterShape {
            total_gpus: 8,
            gpus_per_instance: 4,
        };
        let profile = ThroughputProfile::single_task(1.0);
        let outage = [InstanceOutage {
            instance: 1,
            start_min: 0.5,
            end_min: 2.5,
        }];
        let base = replay_fcfs(&trace, two, &profile).unwrap();
        let faulty = replay_fcfs_faulty(&trace, two, &profile, &outage).unwrap();
        assert_eq!(faulty.completed, 2);
        assert_eq!(
            faulty.instances[0].completed, base.instances[0].completed,
            "co-tenant instance unaffected"
        );
        assert!(
            (faulty.instances[0].busy_min - base.instances[0].busy_min).abs() < 1e-9,
            "co-tenant busy time unchanged"
        );
    }
}
