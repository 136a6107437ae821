//! Property tests of tensor-parallel group pricing and the record-free
//! metrics fold: one lockstep submission sequence run three ways — traced
//! with `compute_group`, untraced with `compute_group`, and traced with a
//! `compute_fixed` call per rank — must agree bit for bit on the makespan
//! and on every device metric, and the two traced runs on every record.

use proptest::prelude::*;

use mux_gpu_sim::metrics::device_metrics;
use mux_gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec};
use mux_gpu_sim::timeline::{Cluster, CollectiveKind, LaneKind, OpHandle, OpRecord, Timeline};

/// One submission. Groups are picked modulo the group count; dependencies
/// name earlier steps modulo the steps so far, and a step depends on every
/// handle the named step yielded.
#[derive(Debug, Clone)]
enum Step {
    /// A kernel on a group: duration byte (0 = zero seconds), utilization
    /// byte, and up to two dependencies.
    Compute(usize, u8, u8, Option<usize>, Option<usize>),
    /// A collective over a group: payload byte, launch policy (overlapped,
    /// overlapped with generous CTAs, blocking) and one dependency.
    Collective(usize, u8, usize, Option<usize>),
    /// A p2p copy from one group's last rank to another's first rank.
    P2p(usize, usize, u8, Option<usize>),
    /// A join of up to two earlier steps.
    Join(Option<usize>, Option<usize>),
}

fn step() -> impl Strategy<Value = Step> {
    let dep = || prop::option::of(0usize..64);
    prop_oneof![
        (any::<usize>(), any::<u8>(), any::<u8>(), dep(), dep())
            .prop_map(|(g, d, u, a, b)| Step::Compute(g, d, u, a, b)),
        (any::<usize>(), any::<u8>(), 0usize..3, dep())
            .prop_map(|(g, p, policy, d)| Step::Collective(g, p, policy, d)),
        (any::<usize>(), any::<usize>(), any::<u8>(), dep())
            .prop_map(|(a, b, p, d)| Step::P2p(a, b, p, d)),
        (dep(), dep()).prop_map(|(a, b)| Step::Join(a, b)),
    ]
}

/// How a run issues a group kernel.
#[derive(Clone, Copy, PartialEq)]
enum Issue {
    Group,
    PerRank,
}

/// Runs `steps` over `groups` groups of `tp` consecutive ranks.
fn drive(tl: &mut Timeline<'_>, steps: &[Step], tp: usize, groups: usize, issue: Issue) {
    let ranks = |g: usize| -> Vec<usize> { (g % groups * tp..(g % groups + 1) * tp).collect() };
    let link = LinkSpec::nvlink_a40();
    let policies = [
        (CommCtaPolicy::for_link(&link, false), false),
        (CommCtaPolicy::for_link(&link, true), false),
        (CommCtaPolicy::sequential(), true),
    ];
    let mut units: Vec<Vec<OpHandle>> = Vec::new();
    for (i, step) in steps.iter().enumerate() {
        let mut deps: Vec<OpHandle> = Vec::new();
        let mut pick = |d: &Option<usize>| {
            if let Some(d) = d.filter(|_| !units.is_empty()) {
                deps.extend_from_slice(&units[d % units.len()]);
            }
        };
        let mut out = Vec::new();
        match step {
            Step::Compute(g, dur, util, a, b) => {
                pick(a);
                pick(b);
                let seconds = f64::from(*dur) * 1e-5;
                let utilization = f64::from(*util) / 255.0;
                let flops = f64::from(*dur) * 3e9;
                let label = format!("k{i}");
                match issue {
                    Issue::Group => tl.compute_group(
                        &ranks(*g),
                        seconds,
                        utilization,
                        flops,
                        &deps,
                        label,
                        &mut out,
                    ),
                    Issue::PerRank => {
                        for r in ranks(*g) {
                            out.push(tl.compute_fixed(
                                r,
                                seconds,
                                utilization,
                                flops,
                                &deps,
                                label.as_str(),
                            ));
                        }
                    }
                }
            }
            Step::Collective(g, payload, policy, d) => {
                pick(d);
                let (policy, blocking) = policies[*policy];
                out.push(tl.collective(
                    &ranks(*g),
                    CollectiveKind::AllReduce,
                    f64::from(*payload) * 1e5,
                    &deps,
                    policy,
                    blocking,
                    format!("ar{i}"),
                ));
            }
            Step::P2p(a, b, payload, d) => {
                pick(d);
                let (src, dst) = (ranks(*a)[tp - 1], ranks(*b)[0]);
                out.push(tl.p2p(src, dst, f64::from(*payload) * 1e5, &deps, format!("p{i}")));
            }
            Step::Join(a, b) => {
                pick(a);
                pick(b);
                out.push(tl.join(&deps, format!("j{i}")));
            }
        }
        units.push(out);
    }
}

/// Every `DeviceMetrics` field of every device, as raw bits.
fn metric_bits(tl: &Timeline<'_>, window: f64) -> Vec<[u64; 6]> {
    device_metrics(tl, window)
        .iter()
        .map(|m| {
            [
                m.device as u64,
                m.busy_fraction.to_bits(),
                m.avg_utilization.to_bits(),
                m.flops.to_bits(),
                m.link_busy_fraction.to_bits(),
                m.comm_bytes.to_bits(),
            ]
        })
        .collect()
}

/// The same metrics from a walk over the records in submission order.
fn walked_bits(ops: &[OpRecord], n: usize, window: f64) -> Vec<[u64; 6]> {
    let mut out = vec![[0.0f64; 5]; n];
    if window > 0.0 {
        for op in ops {
            let dur = op.end - op.start;
            for &d in &op.devices {
                let m = &mut out[d];
                match op.lane {
                    LaneKind::Compute => {
                        m[0] += dur / window;
                        m[1] += dur * op.utilization / window;
                        m[2] += op.flops;
                    }
                    LaneKind::Comm => {
                        m[3] += dur / window;
                        m[4] += op.comm_bytes;
                    }
                }
            }
        }
    }
    out.iter()
        .enumerate()
        .map(|(d, m)| {
            let [a, b, c, e, f] = m.map(f64::to_bits);
            [d as u64, a, b, c, e, f]
        })
        .collect()
}

/// Every field of a record, floats as raw bits.
fn record_key(o: &OpRecord) -> impl PartialEq + std::fmt::Debug {
    (
        [
            o.start,
            o.end,
            o.utilization,
            o.flops,
            o.comm_bytes,
            o.compute_penalty,
        ]
        .map(f64::to_bits),
        o.devices.to_vec(),
        o.lane,
        o.kind,
        o.deps.clone(),
        o.label.clone(),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn group_pricing_and_the_usage_fold_match_per_rank_records(
        steps in prop::collection::vec(step(), 1..48),
        tp in prop::sample::select(vec![1usize, 2, 4]),
        groups in 1usize..4,
    ) {
        let cluster = Cluster::single_node(GpuSpec::a40(), tp * groups, LinkSpec::nvlink_a40());
        let mut grouped = Timeline::new(&cluster);
        drive(&mut grouped, &steps, tp, groups, Issue::Group);
        let mut untraced = Timeline::untraced(&cluster);
        drive(&mut untraced, &steps, tp, groups, Issue::Group);
        let mut per_rank = Timeline::new(&cluster);
        drive(&mut per_rank, &steps, tp, groups, Issue::PerRank);

        let finish = grouped.finish_time();
        prop_assert_eq!(untraced.finish_time().to_bits(), finish.to_bits());
        prop_assert_eq!(per_rank.finish_time().to_bits(), finish.to_bits());
        prop_assert!(untraced.ops().is_empty());
        let keys = |tl: &Timeline<'_>| tl.ops().iter().map(record_key).collect::<Vec<_>>();
        prop_assert_eq!(keys(&grouped), keys(&per_rank));
        for window in [finish, 2.0 * finish + 1e-3, 0.0] {
            let walked = walked_bits(grouped.ops(), cluster.num_gpus(), window);
            prop_assert_eq!(&metric_bits(&grouped, window), &walked, "window {}", window);
            prop_assert_eq!(&metric_bits(&untraced, window), &walked, "window {}", window);
            prop_assert_eq!(&metric_bits(&per_rank, window), &walked, "window {}", window);
        }
    }
}
