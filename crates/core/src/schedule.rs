//! Priority-based multi-DAG subgraph scheduling — the paper's Algorithm 1.
//!
//! Given the segmented subgraph DAGs of the hTasks interleaved within one
//! bucket, produce a single launch order: repeatedly take, among the
//! zero-in-degree subgraphs of all DAGs, those with the highest priority
//! (smallest topological depth) and launch the one with the longest
//! cumulative latency — maximizing what in-flight communication can hide
//! under.
//!
//! Selection runs on a [`BinaryHeap`] keyed by a precomputed
//! `(priority, latency, dag, id)` tuple: each subgraph's latency is
//! evaluated exactly once when it becomes ready, instead of twice per
//! comparison inside an O(ready²) scan. Non-finite latencies (a degenerate
//! cost model) order *after* every finite one via [`f64::total_cmp`] — the
//! schedule degrades instead of crashing — and are surfaced on the
//! `schedule.nonfinite_latency` warning counter in `mux-obs`.

use std::cmp::Ordering;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

use crate::subgraph::Subgraph;

/// One launch-schedule entry: `(dag index, subgraph id)`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LaunchItem {
    /// Which hTask's DAG.
    pub dag: usize,
    /// Which subgraph within that DAG.
    pub subgraph: usize,
}

/// Precomputed selection key. The `Ord` instance realizes Algorithm 1's
/// line-8 rule as a *minimum*: priority ascending, then latency descending
/// (finite before non-finite), then `(dag, id)` for determinism.
#[derive(Debug, Clone, Copy)]
struct ReadyKey {
    priority: usize,
    latency: f64,
    dag: usize,
    subgraph: usize,
}

impl ReadyKey {
    fn cmp_key(&self, other: &Self) -> Ordering {
        self.priority
            .cmp(&other.priority)
            // Finite latencies outrank non-finite ones: a degenerate cost
            // model demotes its subgraphs instead of crashing the planner.
            .then_with(|| other.latency.is_finite().cmp(&self.latency.is_finite()))
            // Descending latency, matching the seed's partial_cmp on finite
            // values; total_cmp keeps NaN payloads deterministic.
            .then_with(|| other.latency.total_cmp(&self.latency))
            .then_with(|| self.dag.cmp(&other.dag))
            .then_with(|| self.subgraph.cmp(&other.subgraph))
    }
}

impl PartialEq for ReadyKey {
    fn eq(&self, other: &Self) -> bool {
        self.cmp_key(other) == Ordering::Equal
    }
}

impl Eq for ReadyKey {}

impl PartialOrd for ReadyKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for ReadyKey {
    fn cmp(&self, other: &Self) -> Ordering {
        self.cmp_key(other)
    }
}

/// Algorithm 1: multi-DAG Kahn with (priority, latency)-ordered selection.
///
/// `latency(dag, sg)` supplies each subgraph's cumulative operator latency;
/// it is invoked exactly once per subgraph, when the subgraph becomes ready.
pub fn schedule_subgraphs(
    dags: &[Vec<Subgraph>],
    latency: &dyn Fn(usize, &Subgraph) -> f64,
) -> Vec<LaunchItem> {
    let _span = mux_obs::span("schedule.subgraphs");
    if mux_obs::profile::profiling() {
        // Every subgraph is pushed onto and popped off the ready heap
        // exactly once (the assert below pins this), so the heap-op count
        // is closed-form and the hot loop stays counter-free.
        let total: u64 = dags.iter().map(|d| d.len() as u64).sum();
        mux_obs::profile::work("heap_ops", 2 * total);
        mux_obs::profile::work("subgraphs_scheduled", total);
    }
    let mut indeg: Vec<Vec<usize>> = dags
        .iter()
        .map(|d| d.iter().map(|s| s.deps.len()).collect())
        .collect();
    let mut succ: Vec<Vec<Vec<usize>>> = dags
        .iter()
        .map(|d| {
            let mut s = vec![Vec::new(); d.len()];
            for sg in d {
                for &dep in &sg.deps {
                    s[dep].push(sg.id);
                }
            }
            s
        })
        .collect();
    let mut nonfinite = 0u64;
    let mut push_ready = |heap: &mut BinaryHeap<Reverse<ReadyKey>>, dag: usize, sg: &Subgraph| {
        let lat = latency(dag, sg);
        if !lat.is_finite() {
            nonfinite += 1;
        }
        heap.push(Reverse(ReadyKey {
            priority: sg.priority,
            latency: lat,
            dag,
            subgraph: sg.id,
        }));
    };
    let mut ready: BinaryHeap<Reverse<ReadyKey>> = BinaryHeap::new();
    for (di, d) in dags.iter().enumerate() {
        for sg in d {
            if sg.deps.is_empty() {
                push_ready(&mut ready, di, sg);
            }
        }
    }
    let total: usize = dags.iter().map(|d| d.len()).sum();
    let mut out = Vec::with_capacity(total);
    while let Some(Reverse(key)) = ready.pop() {
        let item = LaunchItem {
            dag: key.dag,
            subgraph: key.subgraph,
        };
        out.push(item);
        for &nxt in &succ[item.dag][item.subgraph] {
            indeg[item.dag][nxt] -= 1;
            if indeg[item.dag][nxt] == 0 {
                push_ready(&mut ready, item.dag, &dags[item.dag][nxt]);
            }
        }
        succ[item.dag][item.subgraph].clear();
    }
    if nonfinite > 0 {
        mux_obs::incr_counter("schedule.nonfinite_latency", nonfinite);
    }
    assert_eq!(out.len(), total, "cycle detected in subgraph DAGs");
    out
}

/// Whether `order` respects every DAG's dependencies (test/diagnostic).
pub fn is_valid_order(dags: &[Vec<Subgraph>], order: &[LaunchItem]) -> bool {
    let mut pos: Vec<Vec<Option<usize>>> = dags.iter().map(|d| vec![None; d.len()]).collect();
    for (i, item) in order.iter().enumerate() {
        pos[item.dag][item.subgraph] = Some(i);
    }
    for (di, d) in dags.iter().enumerate() {
        for sg in d {
            let Some(me) = pos[di][sg.id] else {
                return false;
            };
            for &dep in &sg.deps {
                match pos[di][dep] {
                    Some(p) if p < me => {}
                    _ => return false,
                }
            }
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sg(id: usize, prio: usize, deps: Vec<usize>, comm: bool) -> Subgraph {
        Subgraph {
            id,
            nodes: vec![id],
            priority: prio,
            deps,
            is_adapter: false,
            task: 0,
            has_comm: comm,
        }
    }

    #[test]
    fn single_dag_schedules_in_topological_order() {
        let dag = vec![
            sg(0, 0, vec![], true),
            sg(1, 1, vec![0], true),
            sg(2, 2, vec![1], false),
        ];
        let order = schedule_subgraphs(std::slice::from_ref(&dag), &|_, _| 1.0);
        assert!(is_valid_order(&[dag], &order));
        assert_eq!(order.len(), 3);
        assert_eq!(order[0].subgraph, 0);
    }

    #[test]
    fn interleaves_dags_by_priority() {
        // Two identical chains: the schedule must alternate (both roots at
        // priority 0 are ready; after launching one, the other root still
        // outranks the first DAG's depth-1 subgraph).
        let mk = || vec![sg(0, 0, vec![], true), sg(1, 1, vec![0], true)];
        let order = schedule_subgraphs(&[mk(), mk()], &|_, _| 1.0);
        assert_eq!(
            order.iter().map(|i| i.dag).collect::<Vec<_>>(),
            vec![0, 1, 0, 1],
            "equal-priority subgraphs from different DAGs interleave"
        );
    }

    #[test]
    fn longest_latency_launches_first_within_a_priority() {
        let mk = || vec![sg(0, 0, vec![], true)];
        let order = schedule_subgraphs(&[mk(), mk(), mk()], &|dag, _| dag as f64);
        assert_eq!(
            order.iter().map(|i| i.dag).collect::<Vec<_>>(),
            vec![2, 1, 0]
        );
    }

    #[test]
    fn respects_dependencies_under_any_latency() {
        let dag_a = vec![
            sg(0, 0, vec![], true),
            sg(1, 1, vec![0], false),
            sg(2, 1, vec![0], false),
        ];
        let dag_b = vec![sg(0, 0, vec![], false)];
        let order =
            schedule_subgraphs(&[dag_a.clone(), dag_b.clone()], &|_, s| 100.0 - s.id as f64);
        assert!(is_valid_order(&[dag_a, dag_b], &order));
    }

    #[test]
    fn deterministic_output() {
        let mk = || {
            vec![
                sg(0, 0, vec![], true),
                sg(1, 1, vec![0], true),
                sg(2, 2, vec![1], false),
            ]
        };
        let a = schedule_subgraphs(&[mk(), mk()], &|_, _| 1.0);
        let b = schedule_subgraphs(&[mk(), mk()], &|_, _| 1.0);
        assert_eq!(a, b);
    }

    #[test]
    fn nonfinite_latency_degrades_and_counts_instead_of_panicking() {
        let _guard = mux_obs::enabled_scope();
        mux_obs::reset();
        // DAG 1's root costs NaN: it must still be scheduled (last among
        // its priority class), dependencies intact, with a warning counted.
        let dag_a = vec![sg(0, 0, vec![], true), sg(1, 1, vec![0], true)];
        let dag_b = vec![sg(0, 0, vec![], true), sg(1, 1, vec![0], true)];
        let order = schedule_subgraphs(&[dag_a.clone(), dag_b.clone()], &|dag, s| {
            if dag == 1 && s.id == 0 {
                f64::NAN
            } else {
                1.0
            }
        });
        assert!(is_valid_order(&[dag_a, dag_b], &order));
        assert_eq!(
            order[0],
            LaunchItem {
                dag: 0,
                subgraph: 0
            },
            "finite-latency root outranks the NaN one"
        );
        let snap = mux_obs::snapshot();
        assert_eq!(snap.counters.get("schedule.nonfinite_latency"), Some(&1));
    }
}
