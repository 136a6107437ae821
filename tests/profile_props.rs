//! Properties of the hierarchical self-profiler (`mux_obs::profile`):
//! cross-thread span grafting through the rayon shim, inclusive-time
//! conservation under randomized nesting, and bitwise determinism of the
//! work profile on a real planner workload.
//!
//! The profiler is process-global state (one call-tree arena, one
//! collection flag), so every test serializes on [`PROFILE_LOCK`].

use std::sync::Mutex;

use muxtune::core::grouping::group_htasks;
use muxtune::core::CostModel;
use muxtune::gpu_sim::spec::GpuSpec;
use muxtune::model::config::ModelConfig;
use muxtune::obs::profile;
use muxtune::parallel::plan::HybridParallelism;
use muxtune::peft::registry::TaskRegistry;
use muxtune::peft::types::{PeftTask, TaskId};
use proptest::prelude::*;
use rayon::prelude::*;

/// Serializes tests that flip the global profiling flag / arena.
static PROFILE_LOCK: Mutex<()> = Mutex::new(());

/// Finds the child named `name` under `node`, if any.
fn child<'a>(node: &'a profile::ProfileNode, name: &str) -> Option<&'a profile::ProfileNode> {
    node.children.iter().find(|c| c.name == name)
}

#[test]
fn rayon_worker_spans_graft_under_the_spawning_span() {
    let _guard = PROFILE_LOCK.lock().unwrap();
    profile::reset_profile();
    let items: Vec<u64> = (0..64).collect();
    let doubled: Vec<u64> = {
        let _profiling = profile::profiling_scope();
        let root = muxtune::obs::span("test.par_root");
        assert!(root.is_some(), "profiling scope must enable spans");
        let ctx = profile::current_context();
        let out = items
            .par_iter()
            .map(|&x| {
                // Workers start with an empty span stack; adopting the
                // spawning context grafts their spans under it.
                let _graft = profile::adopt(&ctx);
                let _s = muxtune::obs::span("test.par_work");
                profile::work("par_items", 1);
                x * 2
            })
            .collect();
        drop(root);
        out
    };
    assert_eq!(doubled, (0..64).map(|x| x * 2).collect::<Vec<_>>());

    let snap = profile::snapshot_profile();
    let root = snap
        .roots
        .iter()
        .find(|n| n.name == "test.par_root")
        .expect("root span recorded");
    assert_eq!(root.count, 1);
    let work = child(root, "test.par_work").expect("worker spans grafted under the root path");
    assert_eq!(work.count, 64, "every worker closure lands one span");
    assert_eq!(
        work.work.get("par_items").copied(),
        Some(64),
        "worker counters coalesce on the grafted path"
    );
    // Grafted children keep their own wall clocks, so the only invariant
    // worth pinning is non-negativity (they may legitimately exceed the
    // parent's inclusive time when workers overlap).
    assert!(work.inclusive_seconds >= 0.0 && work.exclusive_seconds >= 0.0);
}

/// Opens `depth` nested spans (`nest.0` … `nest.{depth-1}`) with a dab of
/// counted work at the innermost level.
fn nest(depth: usize, level: usize) {
    if level == depth {
        profile::work("nest_leaves", 1);
        return;
    }
    let _s = muxtune::obs::span_owned(format!("nest.{level}"));
    nest(depth, level + 1);
}

/// Walks a profile subtree asserting per-node time invariants: exclusive
/// time is non-negative and (single-threaded, no grafting) the children's
/// summed inclusive time never exceeds the parent's.
fn assert_conserved(node: &profile::ProfileNode) {
    assert!(
        node.exclusive_seconds >= 0.0,
        "exclusive time clamped at zero: {}",
        node.name
    );
    let child_sum: f64 = node.children.iter().map(|c| c.inclusive_seconds).sum();
    assert!(
        node.inclusive_seconds >= child_sum - 1e-9,
        "span `{}`: inclusive {:.9}s < children sum {:.9}s",
        node.name,
        node.inclusive_seconds,
        child_sum
    );
    for c in &node.children {
        assert_conserved(c);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    #[test]
    fn inclusive_time_dominates_children_under_random_nesting(
        depths in prop::collection::vec(1usize..=5, 1..24)
    ) {
        let _guard = PROFILE_LOCK.lock().unwrap();
        profile::reset_profile();
        {
            let _profiling = profile::profiling_scope();
            for &d in &depths {
                nest(d, 0);
            }
        }
        let snap = profile::snapshot_profile();
        let max_depth = depths.iter().copied().max().unwrap_or(0);
        if max_depth > 0 {
            let root = snap
                .roots
                .iter()
                .find(|n| n.name == "nest.0")
                .expect("top-level span recorded");
            prop_assert_eq!(root.count as usize, depths.len());
            for node in &snap.roots {
                assert_conserved(node);
            }
            // The leaf counter lands once per iteration, spread over the
            // innermost paths; totals must match exactly.
            fn count_leaves(node: &profile::ProfileNode, total: &mut u64) {
                *total += node.work.get("nest_leaves").copied().unwrap_or(0);
                for c in &node.children {
                    count_leaves(c, total);
                }
            }
            let mut leaves = 0u64;
            for node in &snap.roots {
                count_leaves(node, &mut leaves);
            }
            prop_assert_eq!(leaves as usize, depths.len());
        }
    }
}

/// One deterministic planner workload: Eq. 7 grouping over a small mixed
/// registry (exercises `grouping.search` spans plus `heap_ops` /
/// `groupings_tried` counters).
fn grouping_workload() {
    let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
    for (i, &(mb, seq)) in [(2, 64), (4, 128), (8, 64), (2, 256), (1, 128)]
        .iter()
        .enumerate()
    {
        r.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq))
            .expect("register");
    }
    let htasks: Vec<muxtune::core::HTask> = r
        .tasks()
        .map(|t| muxtune::core::HTask::from_padded(&[t], 4))
        .collect();
    let gpu = GpuSpec::a40();
    let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
    let g = group_htasks(&cm, &htasks);
    assert!(!g.buckets.is_empty());
}

#[test]
fn work_profile_of_real_planner_run_is_bitwise_deterministic() {
    let _guard = PROFILE_LOCK.lock().unwrap();
    let run = || {
        profile::reset_profile();
        {
            let _profiling = profile::profiling_scope();
            grouping_workload();
        }
        let snap = profile::snapshot_profile();
        (
            profile::work_profile_json(&snap),
            profile::collapsed_stacks(&snap),
        )
    };
    let (work_a, collapsed_a) = run();
    let (work_b, _) = run();
    assert_eq!(
        work_a, work_b,
        "same seed must yield a byte-identical work profile"
    );
    assert!(
        work_a.contains("grouping.search"),
        "grouping span missing from work profile: {work_a}"
    );
    assert!(
        work_a.contains("heap_ops"),
        "heap_ops counter missing: {work_a}"
    );
    assert!(
        collapsed_a.contains("grouping.search "),
        "collapsed stacks miss the grouping span: {collapsed_a}"
    );
}
