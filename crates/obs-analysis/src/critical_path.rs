//! Critical-path extraction from a finished timeline.
//!
//! The simulator's start rule — every operator begins at
//! `max(lane_free, deps_ready)` (plus group-member lanes for collectives) —
//! means each operator has a *binding predecessor*: the operator whose
//! completion actually released it. Walking binding predecessors backwards
//! from the makespan-defining operator yields the critical chain; wherever
//! no predecessor ends exactly at an operator's start (the operator was
//! issued late by the pipeline template), the uncovered interval becomes an
//! explicit [`CpKind::Stall`] segment. The segments therefore tile
//! `[0, finish_time]` end to end, so [`CriticalPath::length`] equals the
//! makespan by construction — an identity the property suite pins.

use std::collections::BTreeMap;

use mux_gpu_sim::label::{HTaskRef, OpLabel};
use mux_gpu_sim::timeline::{OpKind, OpRecord};
use serde_json::{json, Value};

const EPS: f64 = 1e-9;

/// What a critical-path segment spent its time on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CpKind {
    /// A compute kernel / fused subgraph.
    Compute,
    /// A group collective.
    Collective,
    /// A point-to-point copy.
    P2p,
    /// An uncovered idle interval: the next operator on the chain was not
    /// released by any predecessor's completion (template-issued late).
    Stall,
}

impl CpKind {
    /// Stable lower-case name (JSON / prom label value).
    pub fn name(&self) -> &'static str {
        match self {
            CpKind::Compute => "compute",
            CpKind::Collective => "collective",
            CpKind::P2p => "p2p",
            CpKind::Stall => "stall",
        }
    }
}

/// One chronological segment of the critical path.
#[derive(Debug, Clone, PartialEq)]
pub struct CpSegment {
    /// Index into the op list (None for synthesized stall segments).
    pub op: Option<usize>,
    /// Segment start, seconds.
    pub start: f64,
    /// Segment end, seconds.
    pub end: f64,
    /// Category.
    pub kind: CpKind,
    /// What the operator was (the text "(idle)" for stalls).
    pub label: OpLabel,
    /// Devices involved.
    pub devices: Vec<usize>,
}

impl CpSegment {
    /// Segment duration, seconds.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-category totals over the critical path.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct CategorySeconds {
    /// Seconds in compute segments.
    pub compute: f64,
    /// Seconds in collective segments.
    pub collective: f64,
    /// Seconds in p2p segments.
    pub p2p: f64,
    /// Seconds in uncovered (stall) segments.
    pub stall: f64,
}

impl CategorySeconds {
    /// Sum over all categories.
    pub fn total(&self) -> f64 {
        self.compute + self.collective + self.p2p + self.stall
    }
}

/// The critical chain of one run, chronological.
#[derive(Debug, Clone, Default)]
pub struct CriticalPath {
    /// Segments from t=0 to the makespan, contiguous.
    pub segments: Vec<CpSegment>,
}

impl CriticalPath {
    /// Total covered time — equals the run's `finish_time()` (tested
    /// invariant; float summation error only).
    pub fn length(&self) -> f64 {
        self.segments.iter().map(CpSegment::seconds).sum()
    }

    /// Time per category.
    pub fn category_seconds(&self) -> CategorySeconds {
        let mut out = CategorySeconds::default();
        for s in &self.segments {
            let d = s.seconds();
            match s.kind {
                CpKind::Compute => out.compute += d,
                CpKind::Collective => out.collective += d,
                CpKind::P2p => out.p2p += d,
                CpKind::Stall => out.stall += d,
            }
        }
        out
    }

    /// Time per hTask, splitting fused segments evenly across members.
    /// Returns `(per_htask, unattributed)`; stalls, collectives, joins and
    /// free-text ops land in `unattributed`.
    pub fn htask_seconds(&self) -> (BTreeMap<HTaskRef, f64>, f64) {
        let mut per: BTreeMap<HTaskRef, f64> = BTreeMap::new();
        let mut unattributed = 0.0;
        for s in &self.segments {
            let refs = s.label.htasks();
            if refs.is_empty() {
                unattributed += s.seconds();
            } else {
                let share = s.seconds() / refs.len() as f64;
                for r in refs {
                    *per.entry(r).or_insert(0.0) += share;
                }
            }
        }
        (per, unattributed)
    }

    /// JSON summary: length, category split, per-hTask split, and the
    /// (possibly truncated) segment chain.
    pub fn to_json(&self, max_segments: usize) -> Value {
        let cat = self.category_seconds();
        let (per_htask, unattributed) = self.htask_seconds();
        let htasks: Vec<Value> = per_htask
            .iter()
            .map(|(r, secs)| json!({ "htask": r.to_string(), "seconds": *secs }))
            .collect();
        let shown = self.segments.len().min(max_segments);
        let segments: Vec<Value> = self.segments[..shown]
            .iter()
            .map(|s| {
                json!({
                    "start": s.start,
                    "end": s.end,
                    "kind": s.kind.name(),
                    "label": s.label.to_string(),
                })
            })
            .collect();
        json!({
            "length_seconds": self.length(),
            "categories": {
                "compute_seconds": cat.compute,
                "collective_seconds": cat.collective,
                "p2p_seconds": cat.p2p,
                "stall_seconds": cat.stall,
            },
            "htasks": htasks,
            "unattributed_seconds": unattributed,
            "segments": segments,
            "segments_total": self.segments.len(),
        })
    }
}

/// Per-device lane orderings reconstructed from the op list. Lane FIFO
/// semantics make both sequences nondecreasing in end time, so "latest op
/// ending at or before t" is a partition-point lookup.
struct Lanes {
    /// Compute-kind op indices per device, submission order.
    compute: Vec<Vec<usize>>,
    /// Collective op indices per participating device, submission order.
    comm: Vec<Vec<usize>>,
}

impl Lanes {
    fn build(ops: &[OpRecord], num_devices: usize) -> Self {
        let mut compute = vec![Vec::new(); num_devices];
        let mut comm = vec![Vec::new(); num_devices];
        for (i, op) in ops.iter().enumerate() {
            match op.kind {
                OpKind::Compute => {
                    for &d in &op.devices {
                        if d < num_devices {
                            compute[d].push(i);
                        }
                    }
                }
                OpKind::Collective => {
                    for &d in &op.devices {
                        if d < num_devices {
                            comm[d].push(i);
                        }
                    }
                }
                OpKind::P2p | OpKind::Join => {}
            }
        }
        Self { compute, comm }
    }

    /// Latest op in `lane` with end <= t + EPS and index < before.
    fn latest_before(lane: &[usize], ops: &[OpRecord], t: f64, before: usize) -> Option<usize> {
        let cut = lane.partition_point(|&i| ops[i].end <= t + EPS);
        lane[..cut].iter().rev().copied().find(|&i| i < before)
    }
}

fn num_devices_of(ops: &[OpRecord]) -> usize {
    ops.iter()
        .flat_map(|o| o.devices.iter().copied())
        .max()
        .map(|d| d + 1)
        .unwrap_or(0)
}

/// The predecessor whose completion released `ops[idx]`: the latest-ending
/// operator among its declared dependencies and its lane predecessors that
/// finished by its start. `None` when the op started unconstrained (t=0 or
/// template-issued into an idle lane).
fn binding_pred(ops: &[OpRecord], lanes: &Lanes, idx: usize) -> Option<usize> {
    let op = &ops[idx];
    let mut best: Option<usize> = None;
    let mut consider = |cand: usize| {
        if ops[cand].end <= op.start + EPS
            && best
                .map(|b| ops[cand].end > ops[b].end || (ops[cand].end == ops[b].end && cand > b))
                .unwrap_or(true)
        {
            best = Some(cand);
        }
    };
    for &d in &op.deps {
        consider(d);
    }
    // Lane predecessors: resource (not data) dependencies. Compute ops are
    // gated by their device's compute lane; collectives by every
    // participant's comm lane — and, when launched blocking, by their
    // compute lanes too, which the conservative candidate set covers (a
    // non-binding candidate can never end later than the binding one).
    match op.kind {
        OpKind::Compute => {
            for &d in &op.devices {
                if let Some(p) = Lanes::latest_before(&lanes.compute[d], ops, op.start, idx) {
                    consider(p);
                }
                if let Some(p) = Lanes::latest_before(&lanes.comm[d], ops, op.start, idx) {
                    consider(p);
                }
            }
        }
        OpKind::Collective => {
            for &d in &op.devices {
                if let Some(p) = Lanes::latest_before(&lanes.comm[d], ops, op.start, idx) {
                    consider(p);
                }
                if let Some(p) = Lanes::latest_before(&lanes.compute[d], ops, op.start, idx) {
                    consider(p);
                }
            }
        }
        OpKind::P2p | OpKind::Join => {}
    }
    best
}

fn stall_segment(start: f64, end: f64) -> CpSegment {
    CpSegment {
        op: None,
        start,
        end,
        kind: CpKind::Stall,
        label: "(idle)".into(),
        devices: Vec::new(),
    }
}

/// Extracts the critical path of a finished run.
///
/// Returns an empty path for an empty op list. Zero-duration operators
/// (joins) participate in the walk but contribute no segment.
pub fn critical_path(ops: &[OpRecord]) -> CriticalPath {
    let Some(sink) =
        (0..ops.len()).max_by(|&a, &b| ops[a].end.total_cmp(&ops[b].end).then(a.cmp(&b)))
    else {
        return CriticalPath::default();
    };
    let lanes = Lanes::build(ops, num_devices_of(ops));
    let mut segments: Vec<CpSegment> = Vec::new();
    let mut cur = sink;
    loop {
        let op = &ops[cur];
        if op.end > op.start {
            segments.push(CpSegment {
                op: Some(cur),
                start: op.start,
                end: op.end,
                kind: match op.kind {
                    OpKind::Compute | OpKind::Join => CpKind::Compute,
                    OpKind::Collective => CpKind::Collective,
                    OpKind::P2p => CpKind::P2p,
                },
                label: op.label.clone(),
                devices: op.devices.to_vec(),
            });
        }
        match binding_pred(ops, &lanes, cur) {
            Some(p) => {
                if op.start - ops[p].end > 0.0 {
                    segments.push(stall_segment(ops[p].end, op.start));
                }
                cur = p; // index strictly decreases: the walk terminates
            }
            None => {
                if op.start > 0.0 {
                    segments.push(stall_segment(0.0, op.start));
                }
                break;
            }
        }
    }
    segments.reverse();
    CriticalPath { segments }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::label::{CellPos, Phase};
    use mux_gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
    use mux_gpu_sim::timeline::{Cluster, CollectiveKind, Timeline};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    #[test]
    fn chain_of_dependent_compute_is_the_whole_path() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(10e9, 1e6), &[], "a");
        let b = t.compute(1, Work::tensor(10e9, 1e6), &[a], "b");
        let _ = b;
        let cp = critical_path(t.ops());
        assert_eq!(cp.segments.len(), 2);
        assert!((cp.length() - t.finish_time()).abs() < 1e-9);
        assert!(cp.segments.iter().all(|s| s.kind == CpKind::Compute));
        assert!(cp.category_seconds().stall.abs() < 1e-12);
    }

    #[test]
    fn lane_serialization_is_a_resource_edge() {
        // Two independent ops on one device: the second's critical chain
        // runs through the first via the lane, not via deps.
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        t.compute(0, Work::tensor(10e9, 1e6), &[], "first");
        t.compute(0, Work::tensor(10e9, 1e6), &[], "second");
        let cp = critical_path(t.ops());
        assert_eq!(cp.segments.len(), 2);
        assert!((cp.length() - t.finish_time()).abs() < 1e-9);
    }

    #[test]
    fn collective_and_p2p_categories_appear() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(10e9, 1e6), &[], "w");
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            200e6,
            &[a],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        let s = t.p2p(0, 1, 200e6, &[ar], "send");
        t.compute(1, Work::tensor(1e9, 1e6), &[s], "next");
        let cp = critical_path(t.ops());
        let cat = cp.category_seconds();
        assert!(cat.compute > 0.0);
        assert!(cat.collective > 0.0);
        assert!(cat.p2p > 0.0);
        assert!((cp.length() - t.finish_time()).abs() < 1e-9);
    }

    #[test]
    fn uncovered_interval_becomes_a_stall_segment() {
        // Device 1 idles until a P2P arrives, but the P2P itself starts at
        // t=0 with no predecessor on device 1: the gap before it is not a
        // stall; instead pin a case where the consumer starts strictly
        // after its only pred via a second, later producer being absent.
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "big");
        t.compute(1, Work::tensor(1e9, 1e6), &[a], "late");
        let cp = critical_path(t.ops());
        // path: big (0..T) then late (T..T') — contiguous, no stall.
        assert!(cp.category_seconds().stall.abs() < 1e-12);
        assert!((cp.length() - t.finish_time()).abs() < 1e-9);
    }

    #[test]
    fn htask_breakdown_reads_engine_items() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        let item = |mb, members: &[(usize, usize)]| {
            OpLabel::Item(CellPos::new(0, 0, mb, Phase::Forward), members.into())
        };
        t.compute_fixed(0, 1.0, 0.5, 1e9, &[], item(0, &[(0, 0)]));
        t.compute_fixed(0, 2.0, 0.5, 1e9, &[], item(1, &[(0, 1), (1, 1)]));
        let cp = critical_path(t.ops());
        let (per, unattributed) = cp.htask_seconds();
        let h0 = per[&HTaskRef {
            bucket: 0,
            htask: 0,
        }];
        let h1 = per[&HTaskRef {
            bucket: 0,
            htask: 1,
        }];
        assert!((h0 - 2.0).abs() < 1e-9, "{h0}");
        assert!((h1 - 1.0).abs() < 1e-9, "{h1}");
        assert!(unattributed.abs() < 1e-12);
    }

    #[test]
    fn empty_run_yields_empty_path() {
        let cp = critical_path(&[]);
        assert!(cp.segments.is_empty());
        assert_eq!(cp.length(), 0.0);
    }

    #[test]
    fn json_summary_has_the_expected_keys() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        t.compute(0, Work::tensor(10e9, 1e6), &[], "a");
        let v = critical_path(t.ops()).to_json(8);
        assert!(v["length_seconds"].as_f64().unwrap() > 0.0);
        assert!(v["categories"]["compute_seconds"].as_f64().unwrap() > 0.0);
        assert_eq!(v["segments_total"].as_u64(), Some(1));
    }
}
