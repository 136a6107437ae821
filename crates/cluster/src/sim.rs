//! Cluster-level scheduling simulation (§5.4 Fig 21b, §6).
//!
//! [`replay`] replays a trace on a fixed pool of GPUs carved into
//! identical instances, with one fluid event loop. Per-instance execution
//! speed comes from a [`ThroughputProfile`] — aggregate instance
//! throughput as a function of co-located task count — calibrated from
//! instance-level engine runs, so cluster results inherit the fidelity of
//! the discrete-event engine without re-simulating every operator per
//! trace event.
//!
//! The §6 policies are inputs of the same loop: `High` tasks take
//! dedicated instances, an SLO factor guards every co-location, and
//! outage windows freeze instances. First-come-first-served (the paper's
//! Fig 21b scheduler) is the case with every task `Low`, no SLO and no
//! outage: whether a task can be placed then depends only on instance
//! state, so the queue scan places exactly what strict head-of-line
//! blocking would.

use std::collections::VecDeque;

use mux_obs_analysis::fairness::jain_index;

use crate::policies::Priority;
use crate::trace::TraceTask;

/// Typed errors for the cluster replay and its policy inputs —
/// tenant-supplied traces, shapes and profiles must never panic or hang
/// the replayer (the same panic-free-planning contract the planner's
/// `PlanError` established).
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
    /// (`total_gpus < gpus_per_instance`, or `gpus_per_instance` is 0).
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
    /// A task's arrival is negative or not finite (a NaN arrival is never
    /// reached, so the replay would wait for it forever).
    InvalidArrival {
        /// The task.
        id: u32,
        /// Its arrival, minutes.
        arrival_min: f64,
    },
    /// A task arrives before the task ahead of it: the replay admits
    /// arrivals in trace order.
    UnsortedArrival {
        /// The task.
        id: u32,
        /// Its arrival, minutes.
        arrival_min: f64,
        /// The arrival of the task ahead of it, minutes.
        previous_min: f64,
    },
    /// A task's duration is not finite and positive (an infinite one never
    /// completes).
    InvalidDuration {
        /// The task.
        id: u32,
        /// Its duration, minutes.
        duration_min: f64,
    },
    /// An outage window has a bound that is not finite (a window that
    /// never lifts strands its instance's tasks), starts after it ends, or
    /// names an instance the shape does not have.
    InvalidOutage {
        /// The window.
        outage: InstanceOutage,
        /// Instances the shape carves out.
        instances: usize,
    },
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
            ClusterError::InvalidArrival { id, arrival_min } => write!(
                f,
                "task {id} arrival {arrival_min} min is not finite and non-negative"
            ),
            ClusterError::UnsortedArrival {
                id,
                arrival_min,
                previous_min,
            } => write!(
                f,
                "task {id} arrives at {arrival_min} min, before the task ahead of it ({previous_min} min)"
            ),
            ClusterError::InvalidDuration { id, duration_min } => write!(
                f,
                "task {id} duration {duration_min} min is not finite and positive"
            ),
            ClusterError::InvalidOutage { outage, instances } => write!(
                f,
                "outage [{}, {}) min on instance {} needs finite bounds, start <= end \
                 and one of the shape's {instances} instance(s)",
                outage.start_min, outage.end_min, outage.instance
            ),
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
    /// fields are public, so [`replay`] checks what it is handed.
    fn validate(&self) -> Result<(), ClusterError> {
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
    /// Number of instances (0 when `gpus_per_instance` is 0).
    pub fn instances(&self) -> usize {
        self.total_gpus
            .checked_div(self.gpus_per_instance)
            .unwrap_or(0)
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

/// Outcome of one priority class.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Tasks in the class.
    pub count: usize,
    /// Mean job completion time, minutes (0 for an empty class).
    pub mean_jct_min: f64,
    /// Mean queueing delay, minutes (0 for an empty class).
    pub mean_queue_min: f64,
    /// Fraction of tasks finishing within their SLO; NaN when the replay
    /// set no SLO.
    pub slo_attainment: f64,
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
    /// High-priority class outcome (empty under FCFS).
    pub high: ClassReport,
    /// Low-priority class outcome (every task under FCFS).
    pub low: ClassReport,
    /// Jain fairness of per-task slowdowns (JCT ÷ solo duration) across
    /// the whole trace: 1 = every task sees the same slowdown.
    pub jain_slowdown: f64,
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

/// Checks what the event loop relies on: arrivals finite, non-negative and
/// in order, durations finite and positive.
fn validate_trace(trace: &[TraceTask]) -> Result<(), ClusterError> {
    let mut previous_min = 0.0;
    for t in trace {
        let (id, arrival_min, duration_min) = (t.id, t.arrival_min, t.duration_min);
        if !(arrival_min.is_finite() && arrival_min >= 0.0) {
            return Err(ClusterError::InvalidArrival { id, arrival_min });
        }
        if arrival_min < previous_min {
            return Err(ClusterError::UnsortedArrival {
                id,
                arrival_min,
                previous_min,
            });
        }
        if !(duration_min.is_finite() && duration_min > 0.0) {
            return Err(ClusterError::InvalidDuration { id, duration_min });
        }
        previous_min = arrival_min;
    }
    Ok(())
}

/// Checks each outage window the event loop steps through: finite bounds
/// (the loop would otherwise step to `now = ∞`, where `dt = ∞ − ∞` is
/// NaN), a start no later than its end, and an instance of the shape. A
/// zero-length window is valid and changes nothing.
fn validate_outages(outages: &[InstanceOutage], instances: usize) -> Result<(), ClusterError> {
    let valid = |o: &InstanceOutage| {
        o.start_min.is_finite()
            && o.end_min.is_finite()
            && o.start_min <= o.end_min
            && o.instance < instances
    };
    match outages.iter().find(|o| !valid(o)) {
        Some(&outage) => Err(ClusterError::InvalidOutage { outage, instances }),
        None => Ok(()),
    }
}

/// Replays `trace` on `shape` with one fluid event loop.
///
/// * `priorities` (1:1 with the trace; `None` = every task `Low`): a
///   `High` task takes an *empty* instance and holds it dedicated until it
///   finishes; a `Low` task joins the least-loaded undedicated instance
///   with room under the profile's co-location capacity.
/// * `slo_factor = Some(f)`: a `Low` placement is admitted only if every
///   co-resident (the newcomer included) is still projected to finish
///   within `f ×` its solo duration, assuming the new co-location level
///   persists.
/// * `outages`: an instance freezes inside each of its windows — in-flight
///   tasks pause with their work preserved (checkpoint semantics) and
///   nothing is placed on it — and resumes when the window lifts. Every
///   window must have finite bounds, start no later than it ends and name
///   an instance of `shape` ([`ClusterError::InvalidOutage`] otherwise).
///
/// Queued tasks are scanned in arrival order and a task that fits nowhere
/// waits without blocking the ones behind it. With every task `Low` and
/// no SLO this is strict FCFS, the Fig 21b scheduler.
pub fn replay(
    trace: &[TraceTask],
    shape: ClusterShape,
    profile: &ThroughputProfile,
    priorities: Option<&[Priority]>,
    slo_factor: Option<f64>,
    outages: &[InstanceOutage],
) -> Result<ClusterReport, ClusterError> {
    if let Some(p) = priorities.filter(|p| p.len() != trace.len()) {
        return Err(ClusterError::PriorityLengthMismatch {
            trace: trace.len(),
            priorities: p.len(),
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
    validate_trace(trace)?;
    validate_outages(outages, n_inst)?;
    let priority = |idx: usize| priorities.map_or(Priority::Low, |p| p[idx]);
    let task_rate = |k: usize| profile.aggregate(k) / k as f64;
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
            .reduce(f64::min)
    };
    // An up, undedicated instance with room: the only kind a task of
    // either class can take.
    let open = |inst: &[Active], dedicated: bool, ii: usize, now: f64| {
        !dedicated && inst.len() < profile.max_colocated && !down(ii, now)
    };
    let admits = |inst: &[Active], newcomer: &TraceTask, now: f64, start: &[f64]| -> bool {
        let Some(f) = slo_factor else { return true };
        let rate = task_rate(inst.len() + 1);
        // Newcomer's projection.
        if newcomer.duration_min / rate > f * newcomer.duration_min {
            return false;
        }
        // Co-residents' projections: elapsed so far + remaining at the new
        // (slower) per-task rate must stay within each task's SLO.
        inst.iter().all(|a| {
            let elapsed = now - start[a.idx];
            elapsed + a.remaining / rate <= f * trace[a.idx].duration_min
        })
    };

    let mut instances: Vec<Vec<Active>> = vec![Vec::new(); n_inst];
    // An instance hosting a high-priority task is dedicated to it.
    let mut dedicated = vec![false; n_inst];
    let mut queue: VecDeque<usize> = VecDeque::new();
    let mut next_arrival = 0usize;
    let mut now = 0.0f64;
    let mut start = vec![f64::NAN; trace.len()];
    let mut finish = vec![f64::NAN; trace.len()];
    let mut completed = 0usize;
    let mut usage: Vec<InstanceUsage> = (0..n_inst)
        .map(|instance| InstanceUsage {
            instance,
            busy_min: 0.0,
            occupancy_task_min: 0.0,
            completed: 0,
        })
        .collect();

    while completed < trace.len() {
        // Next event: earliest completion across *up* instances, the next
        // arrival, or the next outage boundary (down instances make no
        // progress, so they produce no completions until they resume).
        let mut next_completion: Option<f64> = None;
        for (ii, inst) in instances.iter().enumerate() {
            if inst.is_empty() || down(ii, now) {
                continue;
            }
            let rate = task_rate(inst.len());
            let soonest = inst
                .iter()
                .map(|a| a.remaining / rate)
                .fold(f64::INFINITY, f64::min);
            let t = now + soonest;
            if next_completion.is_none_or(|bt| t < bt) {
                next_completion = Some(t);
            }
        }
        let arrival_t = trace.get(next_arrival).map(|t| t.arrival_min);
        let events = [next_completion, arrival_t, next_boundary(now)];
        let Some(advance_to) = events.into_iter().flatten().reduce(f64::min) else {
            break;
        };
        // Advance progress on every up instance.
        let dt = advance_to - now;
        for (ii, inst) in instances.iter_mut().enumerate() {
            if inst.is_empty() || down(ii, now) {
                continue;
            }
            usage[ii].busy_min += dt;
            usage[ii].occupancy_task_min += inst.len() as f64 * dt;
            let rate = task_rate(inst.len());
            for a in inst.iter_mut() {
                a.remaining -= rate * dt;
            }
        }
        now = advance_to;
        // Completions (tolerate float dust).
        for (ii, inst) in instances.iter_mut().enumerate() {
            inst.retain(|a| {
                let done = a.remaining <= 1e-9;
                if done {
                    finish[a.idx] = now;
                    completed += 1;
                    usage[ii].completed += 1;
                }
                !done
            });
            if inst.is_empty() {
                dedicated[ii] = false;
            }
        }
        // Arrivals at this instant.
        while next_arrival < trace.len() && trace[next_arrival].arrival_min <= now + 1e-12 {
            queue.push_back(next_arrival);
            next_arrival += 1;
        }
        // Placement, in arrival order. Once no instance is open no task
        // fits, so the scan stops instead of walking a saturated queue.
        let mut qi = 0;
        while qi < queue.len() && (0..n_inst).any(|ii| open(&instances[ii], dedicated[ii], ii, now))
        {
            let idx = queue[qi];
            let task = &trace[idx];
            let high = priority(idx) == Priority::High;
            let slot = if high {
                (0..n_inst).find(|&ii| instances[ii].is_empty() && !down(ii, now))
            } else {
                (0..n_inst)
                    .filter(|&ii| {
                        open(&instances[ii], dedicated[ii], ii, now)
                            && admits(&instances[ii], task, now, &start)
                    })
                    .min_by_key(|&ii| instances[ii].len())
            };
            let Some(ii) = slot else {
                qi += 1;
                continue;
            };
            queue.remove(qi);
            dedicated[ii] = high;
            start[idx] = now;
            instances[ii].push(Active {
                idx,
                remaining: task.duration_min,
            });
        }
    }

    let class = |member: &dyn Fn(usize) -> bool| -> ClassReport {
        let idxs: Vec<usize> = (0..trace.len()).filter(|&i| member(i)).collect();
        let n = idxs.len().max(1) as f64;
        // An empty class reads 0.0; the sum of no `f64`s is −0.0.
        let mean = |from: &[f64]| -> f64 {
            if idxs.is_empty() {
                return 0.0;
            }
            idxs.iter()
                .map(|&i| from[i] - trace[i].arrival_min)
                .sum::<f64>()
                / n
        };
        let slo_attainment = slo_factor.map_or(f64::NAN, |f| {
            idxs.iter()
                .filter(|&&i| finish[i] - start[i] <= f * trace[i].duration_min + 1e-6)
                .count() as f64
                / n
        });
        ClassReport {
            count: idxs.len(),
            mean_jct_min: mean(&finish),
            mean_queue_min: mean(&start),
            slo_attainment,
        }
    };
    let all = class(&|_| true);
    let total_work: f64 = trace.iter().map(|t| t.duration_min).sum();
    Ok(ClusterReport {
        makespan_min: now,
        throughput: if now > 0.0 { total_work / now } else { 0.0 },
        mean_jct_min: all.mean_jct_min,
        mean_queue_min: all.mean_queue_min,
        completed,
        instances: usage,
        high: class(&|i| priority(i) == Priority::High),
        low: class(&|i| priority(i) == Priority::Low),
        jain_slowdown: jain_index(
            (0..trace.len()).map(|i| (finish[i] - trace[i].arrival_min) / trace[i].duration_min),
        ),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::trace::generate;

    /// Strict FCFS: every task `Low`, no SLO, no outage.
    fn fcfs(
        trace: &[TraceTask],
        shape: ClusterShape,
        profile: &ThroughputProfile,
    ) -> Result<ClusterReport, ClusterError> {
        replay(trace, shape, profile, None, None, &[])
    }

    fn shape() -> ClusterShape {
        ClusterShape {
            total_gpus: 128,
            gpus_per_instance: 4,
        }
    }

    #[test]
    fn all_tasks_complete() {
        let trace = generate(500, 11, None);
        let rep = fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert_eq!(rep.completed, 500);
        assert!(rep.makespan_min >= trace.last().expect("non-empty").arrival_min);
    }

    #[test]
    fn higher_aggregate_rate_raises_cluster_throughput() {
        let trace = generate(800, 13, None);
        let slow = fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        // A multiplexing system: 4 co-located tasks run at 2.2x aggregate.
        let mux = ThroughputProfile::from_rates(vec![1.0, 1.5, 1.9, 2.2]).unwrap();
        let fast = fcfs(&trace, shape(), &mux).unwrap();
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
        let rep = fcfs(&trace, one, &ThroughputProfile::single_task(1.0)).unwrap();
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
        let rep = fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert!(rep.makespan_min > 100.0);
        assert!(rep.mean_queue_min < 1e-9, "no queueing with a huge cluster");
    }

    #[test]
    fn instance_usage_conserves_work_and_completions() {
        let trace = generate(200, 29, None);
        let rep = fcfs(
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
        let rep = fcfs(&trace, one, &ThroughputProfile::single_task(1.0)).unwrap();
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
        let single = fcfs(&trace, tiny, &ThroughputProfile::single_task(1.0)).unwrap();
        let shared = fcfs(
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
            fcfs(&trace, bad, &ThroughputProfile::single_task(1.0)),
            Err(ClusterError::ZeroInstances { .. })
        ));
        let zero_width = ClusterShape {
            total_gpus: 4,
            gpus_per_instance: 0,
        };
        assert!(matches!(
            fcfs(&trace, zero_width, &ThroughputProfile::single_task(1.0)),
            Err(ClusterError::ZeroInstances { .. })
        ));
        // Profiles that would stall the replay forever (0, NaN, no rate)
        // or return nonsense (negative rate, no room for a task) are typed
        // errors with and without priorities, however they were built.
        // (Errors compare by text: a NaN rate never equals itself.)
        let hand = |rate: Vec<f64>, max_colocated| ThroughputProfile {
            rate,
            max_colocated,
        };
        let rate = |rate| ClusterError::InvalidRate { tasks: 1, rate };
        let prios = vec![Priority::Low; trace.len()];
        for (profile, want) in [
            (ThroughputProfile::single_task(0.0), rate(0.0)),
            (hand(vec![0.0], 1), rate(0.0)),
            (hand(vec![f64::NAN], 1), rate(f64::NAN)),
            (ThroughputProfile::single_task(-1.0), rate(-1.0)),
            (hand(vec![], 1), ClusterError::EmptyProfile),
            (hand(vec![1.0], 0), ClusterError::ZeroColocation),
        ] {
            let fcfs = fcfs(&trace, shape(), &profile).map(|_| ());
            let prio = replay(&trace, shape(), &profile, Some(&prios), None, &[]);
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
        let base = fcfs(&trace, shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        let noop = [InstanceOutage {
            instance: 0,
            start_min: 5.0,
            end_min: 5.0,
        }];
        let faulty = replay(
            &trace,
            shape(),
            &ThroughputProfile::single_task(1.0),
            None,
            None,
            &noop,
        )
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
        let base = fcfs(&trace, one, &profile).unwrap();
        let outage = [InstanceOutage {
            instance: 0,
            start_min: 1.0,
            end_min: 11.0,
        }];
        let faulty = replay(&trace, one, &profile, None, None, &outage).unwrap();
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
        let base = fcfs(&trace, two, &profile).unwrap();
        let faulty = replay(&trace, two, &profile, None, None, &outage).unwrap();
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
    #[test]
    fn bad_trace_values_are_typed_errors_not_hangs() {
        // A NaN arrival is never reached and an infinite duration never
        // completes, so either would spin the event loop forever; an
        // out-of-order arrival would be admitted late. Each is a typed
        // error naming the task. (Errors compare by text: NaN.)
        let base = generate(4, 5, None);
        let profile = ThroughputProfile::single_task(1.0);
        let arrival = |id, arrival_min| ClusterError::InvalidArrival { id, arrival_min };
        let duration = |id, duration_min| ClusterError::InvalidDuration { id, duration_min };
        let unsorted = ClusterError::UnsortedArrival {
            id: 2,
            arrival_min: 0.0,
            previous_min: base[1].arrival_min,
        };
        type Edit = fn(&mut TraceTask);
        let cases: [(usize, Edit, ClusterError); 7] = [
            (1, |t| t.arrival_min = f64::NAN, arrival(1, f64::NAN)),
            (
                1,
                |t| t.arrival_min = f64::INFINITY,
                arrival(1, f64::INFINITY),
            ),
            (0, |t| t.arrival_min = -1.0, arrival(0, -1.0)),
            (2, |t| t.arrival_min = 0.0, unsorted),
            (
                3,
                |t| t.duration_min = f64::INFINITY,
                duration(3, f64::INFINITY),
            ),
            (3, |t| t.duration_min = f64::NAN, duration(3, f64::NAN)),
            (0, |t| t.duration_min = 0.0, duration(0, 0.0)),
        ];
        for (at, edit, want) in cases {
            let mut trace = base.clone();
            edit(&mut trace[at]);
            let got = fcfs(&trace, shape(), &profile).unwrap_err();
            assert_eq!(got.to_string(), want.to_string());
        }
    }

    #[test]
    fn bad_outages_are_typed_errors_not_hangs() {
        // A window that never lifts would strand the task on its instance,
        // and the loop would spin at `now = ∞` on `dt = ∞ − ∞ = NaN`. NaN
        // bounds, reversed windows and unknown instances are as malformed.
        let trace = generate(1, 5, None);
        let one = ClusterShape {
            total_gpus: 4,
            gpus_per_instance: 4,
        };
        let profile = ThroughputProfile::single_task(1.0);
        let at = trace[0].arrival_min;
        let window = |instance, start_min, end_min| InstanceOutage {
            instance,
            start_min,
            end_min,
        };
        for outage in [
            window(0, at + 0.5, f64::INFINITY),
            window(0, f64::NEG_INFINITY, at + 0.5),
            window(0, f64::NAN, at + 0.5),
            window(0, at, f64::NAN),
            window(0, at + 2.0, at + 1.0),
            window(1, at, at + 1.0),
        ] {
            let got = replay(&trace, one, &profile, None, None, &[outage]).unwrap_err();
            let want = ClusterError::InvalidOutage {
                outage,
                instances: 1,
            };
            assert_eq!(got.to_string(), want.to_string());
        }
        let zero_length = [window(0, at + 0.5, at + 0.5)];
        let rep = replay(&trace, one, &profile, None, None, &zero_length).unwrap();
        assert_eq!(rep.completed, 1);
    }

    #[test]
    fn empty_trace_reads_zero_not_nan() {
        let rep = fcfs(&[], shape(), &ThroughputProfile::single_task(1.0)).unwrap();
        assert_eq!(rep.completed, 0);
        // Positive zero: the sum of no `f64`s is −0.0, which `{}` prints
        // as `-0`.
        for x in [
            rep.makespan_min,
            rep.throughput,
            rep.mean_jct_min,
            rep.mean_queue_min,
            rep.high.mean_jct_min,
            rep.low.mean_queue_min,
        ] {
            assert_eq!(x.to_bits(), 0.0f64.to_bits(), "{x:?}");
        }
        assert_eq!(rep.low.count + rep.high.count, 0);
        assert_eq!(rep.mean_busy_fraction(), 0.0);
    }
}
