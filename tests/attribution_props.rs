//! Property-based tests of the `mux-obs-analysis` invariants over random
//! schedules driven through the real [`Timeline`]:
//!
//! - **Conservation**: per device, busy compute time plus every attributed
//!   stall interval tiles the whole window exactly —
//!   `busy + Σ stalls == finish_time` (no unexplained idle time, no
//!   double counting) — and the exported trace's stall lane sums to the
//!   same stall seconds.
//! - **Critical-path identity**: the reconstructed critical path tiles
//!   `[0, finish_time]`, so its length equals the makespan exactly.
//! - **hTask identity**: a planned run's ops name exactly its plan's
//!   `(bucket, hTask)` pairs, with orchestration on or off, and stall blame
//!   and the critical path name no other.
//! - **Bubble blame**: in a pipeline-only run, every bubble released by a
//!   p2p transfer names the hTasks of the upstream cell that fed it.

use std::collections::{BTreeMap, BTreeSet};

use proptest::prelude::*;

use muxtune::gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
use muxtune::gpu_sim::timeline::{Cluster, CollectiveKind, OpHandle, OpKind, OpRecord, Timeline};
use muxtune::obs_analysis::{
    attribute_stalls, critical_path, device_attribution, timeline_chrome_trace, HTaskRef,
    StallClass,
};
use muxtune::prelude::{
    plan_and_run, FusionPolicy, HybridParallelism, ModelConfig, PeftTask, PlannerConfig,
    TaskRegistry,
};

/// A randomized operation script covering every op kind the engine emits:
/// compute, (blocking or overlapped) collectives, p2p copies, and joins.
#[derive(Debug, Clone)]
enum ScriptOp {
    /// Compute on device (index mod n), GFLOPs scale, up to two deps.
    Compute(usize, u8, Option<usize>, Option<usize>),
    /// All-reduce over all devices; `bool` = blocking (occupies compute).
    AllReduce(u8, Option<usize>, bool),
    /// P2p copy src -> dst (mod n), one optional dep.
    P2p(usize, u8, Option<usize>),
    /// Zero-duration join of up to two earlier ops.
    Join(Option<usize>, Option<usize>),
}

fn script_strategy(len: usize) -> impl Strategy<Value = Vec<ScriptOp>> {
    prop::collection::vec(
        prop_oneof![
            (
                any::<usize>(),
                any::<u8>(),
                prop::option::of(0usize..64),
                prop::option::of(0usize..64)
            )
                .prop_map(|(d, f, a, b)| ScriptOp::Compute(d, f, a, b)),
            (any::<u8>(), prop::option::of(0usize..64), any::<bool>())
                .prop_map(|(f, d, blk)| ScriptOp::AllReduce(f, d, blk)),
            (any::<usize>(), any::<u8>(), prop::option::of(0usize..64))
                .prop_map(|(s, f, d)| ScriptOp::P2p(s, f, d)),
            (prop::option::of(0usize..64), prop::option::of(0usize..64))
                .prop_map(|(a, b)| ScriptOp::Join(a, b)),
        ],
        1..len,
    )
}

fn run_script(script: &[ScriptOp], devices: usize) -> (Vec<OpRecord>, f64) {
    let cluster = Cluster::single_node(GpuSpec::a40(), devices, LinkSpec::nvlink_a40());
    let mut tl = Timeline::new(&cluster);
    let mut handles: Vec<OpHandle> = Vec::new();
    let group: Vec<usize> = (0..devices).collect();
    for op in script {
        let pick = |i: &Option<usize>, handles: &[OpHandle]| -> Vec<OpHandle> {
            i.and_then(|x| handles.get(x % handles.len().max(1)).copied())
                .into_iter()
                .collect()
        };
        let h = match op {
            ScriptOp::Compute(d, f, a, b) => {
                let mut deps = pick(a, &handles);
                deps.extend(pick(b, &handles));
                tl.compute(
                    d % devices,
                    Work::tensor((*f as f64 + 1.0) * 1e8, 1e5),
                    &deps,
                    "c",
                )
            }
            ScriptOp::AllReduce(f, d, blocking) => {
                let deps = pick(d, &handles);
                tl.collective(
                    &group,
                    CollectiveKind::AllReduce,
                    (*f as f64 + 1.0) * 1e5,
                    &deps,
                    CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), false),
                    *blocking,
                    "ar",
                )
            }
            ScriptOp::P2p(s, f, d) => {
                let src = s % devices;
                let dst = (s + 1) % devices;
                tl.p2p(src, dst, (*f as f64 + 1.0) * 1e5, &pick(d, &handles), "p2p")
            }
            ScriptOp::Join(a, b) => {
                let mut deps = pick(a, &handles);
                deps.extend(pick(b, &handles));
                tl.join(&deps, "join")
            }
        };
        handles.push(h);
    }
    (tl.ops().to_vec(), tl.finish_time())
}

const DEVICES: usize = 3;
const REL_TOL: f64 = 1e-9;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// `busy + Σ attributed stalls == window` on every device, exactly.
    #[test]
    fn attribution_conserves_the_window(script in script_strategy(48)) {
        let (ops, window) = run_script(&script, DEVICES);
        for d in device_attribution(&ops, DEVICES) {
            let accounted = d.accounted_seconds();
            prop_assert!(
                (accounted - window).abs() <= REL_TOL * window.max(1.0),
                "device {}: busy {} + stalls {} = {} vs window {}",
                d.device, d.busy_seconds, d.stall_seconds(), accounted, window
            );
            prop_assert!((d.window - window).abs() <= REL_TOL * window.max(1.0));
            // No negative components.
            prop_assert!(d.busy_seconds >= 0.0);
            prop_assert!(d.bubble_seconds >= 0.0);
            prop_assert!(d.comm_seconds >= 0.0);
            prop_assert!(d.dependency_seconds >= 0.0);
            prop_assert!(d.alignment_seconds >= 0.0);
        }
        // The exported trace's stall lane draws the same intervals: per
        // device, its events sum to the `otherData.attribution` row's stall
        // seconds, within 1 ns per (ns-rounded) event.
        let trace = timeline_chrome_trace(&ops, DEVICES);
        let events = trace["traceEvents"].as_array().expect("traceEvents");
        let rows = trace["otherData"]["attribution"].as_array().expect("rows");
        for (dev, row) in rows.iter().enumerate() {
            let lane: Vec<f64> = events
                .iter()
                .filter(|e| e["cat"].as_str() == Some("stall"))
                .filter(|e| e["pid"].as_u64() == Some(dev as u64))
                .map(|e| e["dur"].as_f64().expect("dur") / 1e6)
                .collect();
            let row_stall: f64 = StallClass::ALL
                .iter()
                .map(|c| row[format!("{}_seconds", c.name()).as_str()].as_f64().expect("class"))
                .sum();
            let lane_stall: f64 = lane.iter().sum();
            prop_assert!(
                (lane_stall - row_stall).abs() <= 1e-9 * lane.len().max(1) as f64,
                "device {}: stall lane {} vs attribution row {}", dev, lane_stall, row_stall
            );
        }
    }

    /// The critical path tiles `[0, finish_time]`: contiguous segments,
    /// total length equal to the makespan.
    #[test]
    fn critical_path_length_is_the_makespan(script in script_strategy(48)) {
        let (ops, makespan) = run_script(&script, DEVICES);
        let cp = critical_path(&ops);
        prop_assert!(
            (cp.length() - makespan).abs() <= REL_TOL * makespan.max(1.0),
            "critical path {} vs makespan {}", cp.length(), makespan
        );
        // Segments are contiguous from 0 to the makespan.
        let mut cursor = 0.0;
        for s in &cp.segments {
            prop_assert!(
                (s.start - cursor).abs() <= REL_TOL * makespan.max(1.0),
                "gap before segment at {} (cursor {cursor})", s.start
            );
            prop_assert!(s.end >= s.start - REL_TOL);
            cursor = s.end;
        }
        prop_assert!((cursor - makespan).abs() <= REL_TOL * makespan.max(1.0));
    }
}

/// Four single-task hTasks over tp2 x pp2, in several buckets. With
/// orchestration off (Fig 16's -OO) each bucket runs as its own engine and
/// the traces are concatenated; every op must still name the bucket it ran
/// in, so the compute ops name each of the plan's `(bucket, hTask)` pairs
/// and nothing else, and so do stall blame and the critical path.
#[test]
fn traced_ops_name_exactly_the_plans_htasks() {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
    for id in 1..=4 {
        reg.register_task(PeftTask::lora(id, 16, 4, 128))
            .expect("register");
    }
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    for orchestrate in [true, false] {
        let plan = HybridParallelism {
            tp: 2,
            pp: 2,
            dp: 1,
        };
        let mut cfg = PlannerConfig::muxtune(plan, 4);
        cfg.fusion = FusionPolicy::AllTemporal;
        cfg.options.orchestrate = orchestrate;
        let report = plan_and_run(&reg, &cluster, &BTreeMap::new(), &cfg).expect("plans");
        let buckets = &report.plan.grouping.buckets;
        assert!(buckets.len() >= 2, "{buckets:?}");
        let want: BTreeSet<HTaskRef> = buckets
            .iter()
            .enumerate()
            .flat_map(|(bucket, b)| (0..b.len()).map(move |htask| HTaskRef { bucket, htask }))
            .collect();
        let (_, ops) = report.plan.run_traced(&reg, &cluster).expect("runs");
        let named: BTreeSet<HTaskRef> = ops
            .iter()
            .filter(|op| op.kind == OpKind::Compute)
            .flat_map(|op| op.label.htasks())
            .collect();
        assert_eq!(named, want, "orchestrate {orchestrate}");
        let blamed: BTreeSet<HTaskRef> = device_attribution(&ops, cluster.num_gpus())
            .into_iter()
            .flat_map(|d| d.by_htask.into_keys())
            .collect();
        assert!(
            !blamed.is_empty() && blamed.is_subset(&want),
            "orchestrate {orchestrate}: blamed {blamed:?}, plan {want:?}"
        );
        let (on_path, _) = critical_path(&ops).htask_seconds();
        assert!(
            !on_path.is_empty() && on_path.keys().all(|h| want.contains(h)),
            "orchestrate {orchestrate}: critical path {on_path:?}, plan {want:?}"
        );
    }
}

/// Whether `ops[i]` was released by a p2p transfer: one of its
/// dependencies, reached through joins, is a transfer that ended as it
/// started.
fn released_by_p2p(ops: &[OpRecord], i: usize) -> bool {
    let mut stack = ops[i].deps.to_vec();
    while let Some(d) = stack.pop() {
        match ops[d].kind {
            OpKind::Join => stack.extend_from_slice(&ops[d].deps),
            OpKind::P2p if ops[d].end == ops[i].start => return true,
            _ => {}
        }
    }
    false
}

/// A pp4 orchestrated run has no collectives, so every stage wait is a
/// bubble. A transfer carries no hTask and depends only on the upstream
/// cell's zero-duration join, so blame must reach through that join: every
/// p2p-released bubble names at least one of the plan's hTasks, and every
/// device that has bubbles has a non-empty `by_htask`.
#[test]
fn p2p_released_bubbles_blame_the_upstream_htasks() {
    let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
    for id in 1..=4 {
        reg.register_task(PeftTask::lora(id, 16, 4, 128))
            .expect("register");
    }
    let cluster = Cluster::single_node(GpuSpec::a40(), 4, LinkSpec::nvlink_a40());
    let cfg = PlannerConfig::muxtune(HybridParallelism::pipeline(4), 4);
    let report = plan_and_run(&reg, &cluster, &BTreeMap::new(), &cfg).expect("plans");
    let (_, ops) = report.plan.run_traced(&reg, &cluster).expect("runs");
    let window = ops.iter().map(|o| o.end).fold(0.0, f64::max);
    let mut p2p_fed = 0;
    for s in attribute_stalls(&ops, cluster.num_gpus(), window) {
        let ender = ops.iter().position(|o| {
            o.kind == OpKind::Compute && o.devices.contains(&s.device) && o.start == s.end
        });
        if s.class == StallClass::PipelineBubble && ender.is_some_and(|i| released_by_p2p(&ops, i))
        {
            p2p_fed += 1;
            assert!(
                !s.htasks.is_empty(),
                "p2p-released bubble on device {} at {}..{} names no hTask",
                s.device,
                s.start,
                s.end
            );
        }
    }
    assert!(p2p_fed > 0, "a pp4 run has p2p-released bubbles");
    for d in device_attribution(&ops, cluster.num_gpus()) {
        if d.bubble_seconds > 0.0 {
            assert!(
                !d.by_htask.is_empty(),
                "device {} blames no hTask",
                d.device
            );
        }
    }
}
