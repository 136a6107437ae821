//! Property test: the heap-based Algorithm 1 scheduler produces exactly
//! the launch order of the seed O(ready²) scan it replaced, on random
//! multi-DAG inputs with finite positive latencies (the seed's domain).

use muxtune_core::schedule::{is_valid_order, schedule_subgraphs, LaunchItem};
use muxtune_core::subgraph::Subgraph;
use proptest::prelude::*;

/// The seed O(ready²) selection loop, kept verbatim as the differential
/// reference for the heap scheduler. Panics on non-finite latencies (the
/// seed behaviour).
fn schedule_subgraphs_reference(
    dags: &[Vec<Subgraph>],
    latency: &dyn Fn(usize, &Subgraph) -> f64,
) -> Vec<LaunchItem> {
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
    let mut ready: Vec<LaunchItem> = Vec::new();
    for (di, d) in dags.iter().enumerate() {
        for sg in d {
            if sg.deps.is_empty() {
                ready.push(LaunchItem {
                    dag: di,
                    subgraph: sg.id,
                });
            }
        }
    }
    let total: usize = dags.iter().map(|d| d.len()).sum();
    let mut out = Vec::with_capacity(total);
    while !ready.is_empty() {
        let best = ready
            .iter()
            .enumerate()
            .min_by(|(_, a), (_, b)| {
                let sa = &dags[a.dag][a.subgraph];
                let sb = &dags[b.dag][b.subgraph];
                sa.priority
                    .cmp(&sb.priority)
                    .then(
                        latency(b.dag, sb)
                            .partial_cmp(&latency(a.dag, sa))
                            .expect("finite latency"),
                    )
                    .then(a.dag.cmp(&b.dag))
                    .then(a.subgraph.cmp(&b.subgraph))
            })
            .map(|(i, _)| i)
            .expect("non-empty ready set");
        let item = ready.swap_remove(best);
        out.push(item);
        for &nxt in &succ[item.dag][item.subgraph] {
            indeg[item.dag][nxt] -= 1;
            if indeg[item.dag][nxt] == 0 {
                ready.push(LaunchItem {
                    dag: item.dag,
                    subgraph: nxt,
                });
            }
        }
        succ[item.dag][item.subgraph].clear();
    }
    assert_eq!(out.len(), total, "cycle detected in subgraph DAGs");
    out
}

/// A random forward-edge DAG: `deps[i] ⊆ {0..i}`, priority = topological
/// depth (as the segmenter produces it, which the priority rule assumes).
fn dag_strategy() -> impl Strategy<Value = Vec<Subgraph>> {
    prop::collection::vec(prop::collection::vec(any::<bool>(), 0..6), 1..8).prop_map(|rows| {
        let n = rows.len();
        let mut depth = vec![0usize; n];
        let mut dags = Vec::with_capacity(n);
        for (i, row) in rows.into_iter().enumerate() {
            let deps: Vec<usize> = row
                .into_iter()
                .take(i)
                .enumerate()
                .filter_map(|(j, keep)| keep.then_some(j))
                .collect();
            depth[i] = deps.iter().map(|&d| depth[d] + 1).max().unwrap_or(0);
            dags.push(Subgraph {
                id: i,
                nodes: vec![i],
                priority: depth[i],
                deps,
                is_adapter: i % 2 == 0,
                task: 0,
                has_comm: i % 3 == 0,
            });
        }
        dags
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn heap_scheduler_matches_seed_reference(
        dags in prop::collection::vec(dag_strategy(), 1..5),
        // Finite, positive, occasionally tied latencies.
        lat_seed in prop::collection::vec(prop::sample::select(vec![0.5f64, 1.0, 1.0, 2.5, 7.0, 100.0]), 64..65),
    ) {
        let latency = |dag: usize, sg: &Subgraph| lat_seed[(dag * 31 + sg.id * 7) % lat_seed.len()];
        let fast = schedule_subgraphs(&dags, &latency);
        let slow = schedule_subgraphs_reference(&dags, &latency);
        prop_assert!(is_valid_order(&dags, &fast));
        prop_assert_eq!(fast, slow);
    }
}
