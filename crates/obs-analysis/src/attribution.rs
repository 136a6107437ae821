//! Stall attribution with a conservation guarantee.
//!
//! [`attribute_stalls`] assigns *every* idle instant on every device's
//! compute lane — including the drain tail between a device's last kernel
//! and the run's makespan — to one of five causes and to the hTask(s)
//! responsible. It is the one stall classifier: the timeline trace's stall
//! lane ([`timeline_chrome_trace`](crate::timeline_chrome_trace)), the
//! service report's `attribution` rows, prom and the online monitor all
//! read it. Because the attributed intervals exactly tile the idle time,
//! each device satisfies
//!
//! ```text
//! busy_seconds + Σ attributed stall seconds == window
//! ```
//!
//! (the conservation invariant the property suite pins).
//!
//! ## Taxonomy
//!
//! - [`StallClass::CommWait`]: the idle instant is covered by a collective
//!   occupying this device's communication stream (the device is either
//!   blocked on it or parked under it).
//! - [`StallClass::AlignmentImbalance`]: the gap ends with an operator
//!   blocked on a collective this device participates in, and the idle
//!   instant falls *before* that collective started — the device arrived
//!   early and waited for straggling group members, the §3.5 imbalance
//!   that chunk-based alignment attacks.
//! - [`StallClass::PipelineBubble`]: the gap-ending operator was released
//!   by a P2P stage transfer, or by nothing at all (warm-up/drain slots of
//!   the 1F1B template), or the device had no work left (drain tail).
//! - [`StallClass::DependencyWait`]: the gap-ending operator waited on a
//!   compute operator (launch-order edges, tensor-parallel peers).
//! - [`StallClass::FaultRecovery`]: the idle instant falls inside an
//!   injected-fault window ([`attribute_stalls_with_faults`]) — the device
//!   was waiting out a fault or a recovery action, not a scheduling
//!   artifact. Produced only when fault spans are supplied; fault-free
//!   attribution never emits it.

use std::collections::BTreeMap;

use mux_gpu_sim::label::HTaskRef;
use mux_gpu_sim::timeline::{OpKind, OpRecord};
use serde_json::{Map, Value};

const EPS: f64 = 1e-9;

/// Why a compute lane sat idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum StallClass {
    /// Warm-up/drain bubble or P2P-fed stage wait.
    PipelineBubble,
    /// Blocked on or parked under a collective transfer.
    CommWait,
    /// Blocked on another compute operator.
    DependencyWait,
    /// Waiting for straggling collective participants (load imbalance).
    AlignmentImbalance,
    /// Idle inside an injected-fault window (straggler slowdown, link
    /// degradation, comm outage, device loss) or the recovery it triggered.
    FaultRecovery,
}

impl StallClass {
    /// Stable lower-snake-case name (JSON keys / prom label values).
    pub fn name(&self) -> &'static str {
        match self {
            StallClass::PipelineBubble => "pipeline_bubble",
            StallClass::CommWait => "comm_wait",
            StallClass::DependencyWait => "dependency_wait",
            StallClass::AlignmentImbalance => "alignment_imbalance",
            StallClass::FaultRecovery => "fault_recovery",
        }
    }

    /// All classes, in display order.
    pub const ALL: [StallClass; 5] = [
        StallClass::PipelineBubble,
        StallClass::CommWait,
        StallClass::DependencyWait,
        StallClass::AlignmentImbalance,
        StallClass::FaultRecovery,
    ];

    /// Number of classes (`ALL.len()`, usable in array lengths).
    pub const COUNT: usize = StallClass::ALL.len();
}

/// One attributed idle interval on a device's compute lane.
#[derive(Debug, Clone, PartialEq)]
pub struct AttributedStall {
    /// Device index.
    pub device: usize,
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Cause.
    pub class: StallClass,
    /// hTasks held responsible: those of the engine launch item that
    /// blocked or ended the gap, or of the items feeding a blocking
    /// collective. Empty when no such op carries hTask identity.
    pub htasks: Vec<HTaskRef>,
}

impl AttributedStall {
    /// Interval duration.
    pub fn seconds(&self) -> f64 {
        self.end - self.start
    }
}

/// Per-device attribution totals.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct DeviceAttribution {
    /// Device index.
    pub device: usize,
    /// Attribution window (== the run's makespan), seconds.
    pub window: f64,
    /// Compute-lane busy seconds.
    pub busy_seconds: f64,
    /// Warm-up/drain/P2P bubbles.
    pub bubble_seconds: f64,
    /// Collective transfer waits.
    pub comm_seconds: f64,
    /// Compute dependency waits.
    pub dependency_seconds: f64,
    /// Straggler waits before collectives.
    pub alignment_seconds: f64,
    /// Idle time inside injected-fault windows (zero unless fault spans
    /// were supplied to the attribution).
    pub fault_seconds: f64,
    /// Stall seconds attributed to each responsible hTask (an interval
    /// blaming k hTasks contributes 1/k to each).
    pub by_htask: BTreeMap<HTaskRef, f64>,
}

impl DeviceAttribution {
    /// Total attributed stall time.
    pub fn stall_seconds(&self) -> f64 {
        self.bubble_seconds
            + self.comm_seconds
            + self.dependency_seconds
            + self.alignment_seconds
            + self.fault_seconds
    }

    /// `busy + stalls` — equals `window` (conservation invariant).
    pub fn accounted_seconds(&self) -> f64 {
        self.busy_seconds + self.stall_seconds()
    }

    /// Seconds under `class`.
    pub fn class_seconds(&self, class: StallClass) -> f64 {
        match class {
            StallClass::PipelineBubble => self.bubble_seconds,
            StallClass::CommWait => self.comm_seconds,
            StallClass::DependencyWait => self.dependency_seconds,
            StallClass::AlignmentImbalance => self.alignment_seconds,
            StallClass::FaultRecovery => self.fault_seconds,
        }
    }

    /// The one JSON row for this device: `{device, window_seconds,
    /// busy_seconds, <class>_seconds…}` with one key per [`StallClass`].
    /// The service report's `instances[].attribution`, the
    /// `<id>.attribution.json` artifacts and a timeline trace's
    /// `otherData.attribution` all render these rows.
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("device".into(), self.device.into());
        m.insert("window_seconds".into(), self.window.into());
        m.insert("busy_seconds".into(), self.busy_seconds.into());
        for class in StallClass::ALL {
            m.insert(
                format!("{}_seconds", class.name()),
                self.class_seconds(class).into(),
            );
        }
        Value::Object(m)
    }
}

/// One injected-fault interval on one device, in timeline seconds.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultSpan {
    /// Device the fault afflicted.
    pub device: usize,
    /// Fault start, seconds.
    pub start: f64,
    /// Fault end, seconds.
    pub end: f64,
}

/// The one dependency walk of an attribution pass: from an operator's
/// dependencies through zero-duration joins to the operators that gate it.
/// Its marks are allocated once per pass and reset by bumping the epoch,
/// so no gap allocates an `ops.len()`-sized buffer.
struct DepWalk<'a> {
    ops: &'a [OpRecord],
    mark: Vec<usize>,
    epoch: usize,
    stack: Vec<usize>,
}

impl<'a> DepWalk<'a> {
    fn new(ops: &'a [OpRecord]) -> Self {
        Self {
            ops,
            mark: vec![0; ops.len()],
            epoch: 0,
            stack: Vec::new(),
        }
    }

    /// Calls `visit` once on every non-join operator `ops[idx]` depends
    /// on, directly or through joins.
    fn each(&mut self, idx: usize, mut visit: impl FnMut(usize)) {
        let ops = self.ops;
        self.epoch += 1;
        self.stack.clear();
        self.stack.extend_from_slice(&ops[idx].deps);
        while let Some(i) = self.stack.pop() {
            if self.mark[i] == self.epoch {
                continue;
            }
            self.mark[i] = self.epoch;
            if ops[i].kind == OpKind::Join {
                self.stack.extend_from_slice(&ops[i].deps);
            } else {
                visit(i);
            }
        }
    }

    /// The operator whose completion gates `ops[idx]`'s start — the one
    /// with the latest end time.
    fn blocking_op(&mut self, idx: usize) -> Option<usize> {
        let ops = self.ops;
        let mut best: Option<usize> = None;
        self.each(idx, |i| {
            if best.is_none_or(|b| ops[i].end > ops[b].end) {
                best = Some(i);
            }
        });
        best
    }

    /// Responsible hTasks for a blocking op: its own hTasks, or (for
    /// collectives and p2p transfers, which carry none) the union over the
    /// operators it depends on, so a transfer fed by an upstream cell's
    /// join blames that cell's hTasks.
    fn responsible_htasks(&mut self, idx: usize) -> Vec<HTaskRef> {
        let ops = self.ops;
        let own = ops[idx].label.htasks();
        if !own.is_empty() {
            return own;
        }
        let mut merged: Vec<HTaskRef> = Vec::new();
        self.each(idx, |d| merged.extend(ops[d].label.htasks()));
        merged.sort_unstable();
        merged.dedup();
        merged
    }
}

/// The whole-run attribution window: the latest op end (the makespan).
pub(crate) fn run_window(ops: &[OpRecord]) -> f64 {
    ops.iter().map(|o| o.end).fold(0.0, f64::max)
}

/// A pending piece of a gap, before comm-overlap carving.
struct Piece {
    start: f64,
    end: f64,
    class: StallClass,
    htasks: Vec<HTaskRef>,
}

/// Attributes every idle compute-lane interval in `[0, window]` on every
/// device. Pass `finish_time()` as the window for whole-run conservation;
/// a larger window extends the drain tail, a smaller one truncates it.
pub fn attribute_stalls(ops: &[OpRecord], num_devices: usize, window: f64) -> Vec<AttributedStall> {
    let mut out = Vec::new();
    let mut walk = DepWalk::new(ops);
    for dev in 0..num_devices {
        // Compute-lane occupancy: per-device FIFO, so submission order is
        // time order and intervals never overlap.
        let busy: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.kind == OpKind::Compute && o.devices.contains(&dev) && o.end > o.start
            })
            .map(|(i, _)| i)
            .collect();
        // Collectives occupying this device's comm stream (sorted by start;
        // FIFO means they are mutually disjoint).
        let comm: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.kind == OpKind::Collective && o.devices.contains(&dev) && o.end > o.start
            })
            .map(|(i, _)| i)
            .collect();

        let mut gaps: Vec<(f64, f64, Option<usize>)> = Vec::new(); // (start, end, gap-ender)
        let mut cursor = 0.0f64;
        for &bi in &busy {
            if ops[bi].start > cursor {
                gaps.push((cursor, ops[bi].start, Some(bi)));
            }
            cursor = cursor.max(ops[bi].end);
        }
        if window > cursor {
            gaps.push((cursor, window, None)); // drain tail
        }

        for (g0, g1, ender) in gaps {
            // Base cause + split point from the gap-ending op's blocker.
            let mut pieces: Vec<Piece> = Vec::new();
            match ender {
                None => pieces.push(Piece {
                    start: g0,
                    end: g1,
                    class: StallClass::PipelineBubble,
                    htasks: Vec::new(),
                }),
                Some(bi) => match walk.blocking_op(bi) {
                    // Released by nothing (or by something that finished
                    // before the gap even began): issued late by the
                    // template — a warm-up/drain bubble of the op's own
                    // hTask.
                    None => pieces.push(Piece {
                        start: g0,
                        end: g1,
                        class: StallClass::PipelineBubble,
                        htasks: ops[bi].label.htasks(),
                    }),
                    Some(b) if ops[b].end <= g0 + EPS => pieces.push(Piece {
                        start: g0,
                        end: g1,
                        class: StallClass::PipelineBubble,
                        htasks: ops[bi].label.htasks(),
                    }),
                    Some(b) => {
                        let who = walk.responsible_htasks(b);
                        match ops[b].kind {
                            OpKind::P2p => pieces.push(Piece {
                                start: g0,
                                end: g1,
                                class: StallClass::PipelineBubble,
                                htasks: who,
                            }),
                            OpKind::Compute | OpKind::Join => pieces.push(Piece {
                                start: g0,
                                end: g1,
                                class: StallClass::DependencyWait,
                                htasks: who,
                            }),
                            OpKind::Collective => {
                                // Before the collective started, the device
                                // (if a participant) was waiting for the
                                // group to assemble: alignment imbalance,
                                // blamed on whoever fed the collective.
                                let split = ops[b].start.clamp(g0, g1);
                                let early_class = if ops[b].devices.contains(&dev) {
                                    StallClass::AlignmentImbalance
                                } else {
                                    StallClass::CommWait
                                };
                                if split > g0 {
                                    pieces.push(Piece {
                                        start: g0,
                                        end: split,
                                        class: early_class,
                                        htasks: who.clone(),
                                    });
                                }
                                if g1 > split {
                                    pieces.push(Piece {
                                        start: split,
                                        end: g1,
                                        class: StallClass::CommWait,
                                        htasks: who,
                                    });
                                }
                            }
                        }
                    }
                },
            }

            // Carve comm-stream overlap out of non-comm pieces: an instant
            // spent under a collective on this device is a comm wait no
            // matter what ended the gap.
            for piece in pieces {
                if piece.class == StallClass::CommWait {
                    push_stall(&mut out, dev, piece);
                    continue;
                }
                let mut t = piece.start;
                for &ci in &comm {
                    let (cs, ce) = (ops[ci].start.max(t), ops[ci].end.min(piece.end));
                    if ce <= cs {
                        continue;
                    }
                    if cs > t {
                        push_stall(
                            &mut out,
                            dev,
                            Piece {
                                start: t,
                                end: cs,
                                class: piece.class,
                                htasks: piece.htasks.clone(),
                            },
                        );
                    }
                    let mut who = walk.responsible_htasks(ci);
                    if who.is_empty() {
                        who = piece.htasks.clone();
                    }
                    push_stall(
                        &mut out,
                        dev,
                        Piece {
                            start: cs,
                            end: ce,
                            class: StallClass::CommWait,
                            htasks: who,
                        },
                    );
                    t = ce;
                }
                if piece.end > t {
                    push_stall(
                        &mut out,
                        dev,
                        Piece {
                            start: t,
                            end: piece.end,
                            class: piece.class,
                            htasks: piece.htasks,
                        },
                    );
                }
            }
        }
    }
    out
}

fn push_stall(out: &mut Vec<AttributedStall>, device: usize, piece: Piece) {
    if piece.end > piece.start {
        out.push(AttributedStall {
            device,
            start: piece.start,
            end: piece.end,
            class: piece.class,
            htasks: piece.htasks,
        });
    }
}

/// Merged, sorted, disjoint fault intervals for one device.
fn merged_spans(faults: &[FaultSpan], device: usize) -> Vec<(f64, f64)> {
    let mut spans: Vec<(f64, f64)> = faults
        .iter()
        .filter(|f| f.device == device && f.end > f.start)
        .map(|f| (f.start, f.end))
        .collect();
    spans.sort_by(|a, b| a.0.total_cmp(&b.0));
    let mut merged: Vec<(f64, f64)> = Vec::with_capacity(spans.len());
    for (s, e) in spans {
        match merged.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => merged.push((s, e)),
        }
    }
    merged
}

/// [`attribute_stalls`], then reclassifies every idle instant that falls
/// inside one of `faults`'s windows as [`StallClass::FaultRecovery`]. The
/// fault pass is a pure partition refinement — intervals are only split,
/// never created or dropped — so the per-device conservation invariant
/// `busy + stalls == window` survives any fault plan. hTask blame is kept
/// on the refined pieces.
pub fn attribute_stalls_with_faults(
    ops: &[OpRecord],
    num_devices: usize,
    window: f64,
    faults: &[FaultSpan],
) -> Vec<AttributedStall> {
    let base = attribute_stalls(ops, num_devices, window);
    if faults.is_empty() {
        return base;
    }
    let spans: Vec<Vec<(f64, f64)>> = (0..num_devices).map(|d| merged_spans(faults, d)).collect();
    let mut out = Vec::with_capacity(base.len());
    for ev in base {
        let dev_spans = &spans[ev.device];
        let mut t = ev.start;
        for &(fs, fe) in dev_spans {
            let (cs, ce) = (fs.max(t), fe.min(ev.end));
            if ce <= cs {
                continue;
            }
            if cs > t {
                out.push(AttributedStall {
                    device: ev.device,
                    start: t,
                    end: cs,
                    class: ev.class,
                    htasks: ev.htasks.clone(),
                });
            }
            out.push(AttributedStall {
                device: ev.device,
                start: cs,
                end: ce,
                class: StallClass::FaultRecovery,
                htasks: ev.htasks.clone(),
            });
            t = ce;
        }
        if ev.end > t {
            out.push(AttributedStall {
                device: ev.device,
                start: t,
                end: ev.end,
                class: ev.class,
                htasks: ev.htasks,
            });
        }
    }
    out
}

/// Aggregates [`attribute_stalls`] (over the whole run: `window` = latest
/// op end) into per-device totals plus per-hTask responsibility shares.
pub fn device_attribution(ops: &[OpRecord], num_devices: usize) -> Vec<DeviceAttribution> {
    device_attribution_with_faults(ops, num_devices, &[])
}

/// [`device_attribution`] with injected-fault windows: idle time inside a
/// device's fault spans lands in `fault_seconds` instead of its scheduling
/// class, and conservation still holds.
pub fn device_attribution_with_faults(
    ops: &[OpRecord],
    num_devices: usize,
    faults: &[FaultSpan],
) -> Vec<DeviceAttribution> {
    let window = run_window(ops);
    let mut out: Vec<DeviceAttribution> = (0..num_devices)
        .map(|device| DeviceAttribution {
            device,
            window,
            ..DeviceAttribution::default()
        })
        .collect();
    for op in ops {
        if op.kind == OpKind::Compute && op.end > op.start {
            for &d in &op.devices {
                if d < num_devices {
                    out[d].busy_seconds += op.end - op.start;
                }
            }
        }
    }
    for ev in attribute_stalls_with_faults(ops, num_devices, window, faults) {
        let d = &mut out[ev.device];
        let dur = ev.seconds();
        match ev.class {
            StallClass::PipelineBubble => d.bubble_seconds += dur,
            StallClass::CommWait => d.comm_seconds += dur,
            StallClass::DependencyWait => d.dependency_seconds += dur,
            StallClass::AlignmentImbalance => d.alignment_seconds += dur,
            StallClass::FaultRecovery => d.fault_seconds += dur,
        }
        if !ev.htasks.is_empty() {
            let share = dur / ev.htasks.len() as f64;
            for h in ev.htasks {
                *d.by_htask.entry(h).or_insert(0.0) += share;
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::label::{CellPos, OpLabel, Phase};
    use mux_gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
    use mux_gpu_sim::timeline::{Cluster, CollectiveKind, Timeline};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    /// A launch item of the forward cell of micro-batch `mb` at `stage` in
    /// bucket 0, running `(hTask, subgraph)` members.
    fn item(stage: usize, mb: usize, members: &[(usize, usize)]) -> OpLabel {
        OpLabel::Item(CellPos::new(0, stage, mb, Phase::Forward), members.into())
    }

    fn conservation_holds(ops: &[OpRecord], n: usize) {
        let window = run_window(ops);
        for d in device_attribution(ops, n) {
            assert!(
                (d.accounted_seconds() - window).abs() <= 1e-9 * window.max(1.0),
                "device {}: busy {} + stalls {} != window {window}",
                d.device,
                d.busy_seconds,
                d.stall_seconds(),
            );
        }
    }

    #[test]
    fn dependency_wait_attributed_to_blocking_compute() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute_fixed(0, 2.0, 0.5, 1e9, &[], item(0, 0, &[(1, 0)]));
        t.compute_fixed(1, 1.0, 0.5, 1e9, &[a], item(1, 0, &[(0, 1)]));
        let evs = attribute_stalls(t.ops(), 2, t.finish_time());
        let dep: Vec<_> = evs
            .iter()
            .filter(|e| e.device == 1 && e.class == StallClass::DependencyWait)
            .collect();
        assert_eq!(dep.len(), 1);
        assert_eq!(
            dep[0].htasks,
            vec![HTaskRef {
                bucket: 0,
                htask: 1
            }],
            "blamed on the producer's hTask"
        );
        conservation_holds(t.ops(), 2);
    }

    #[test]
    fn straggler_wait_before_a_collective_is_alignment_imbalance() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        // Device 0 computes long; device 1 finishes fast, then both join an
        // all-reduce. Device 1's pre-collective idle = alignment imbalance.
        let slow = t.compute_fixed(0, 4.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0)]));
        let fast = t.compute_fixed(1, 1.0, 0.5, 1e9, &[], item(0, 0, &[(0, 1)]));
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            100e6,
            &[slow, fast],
            CommCtaPolicy::sequential(),
            false,
            OpLabel::AllReduce(CellPos::new(0, 0, 0, Phase::Forward)),
        );
        t.compute_fixed(1, 1.0, 0.5, 1e9, &[ar], item(0, 1, &[(0, 1)]));
        let evs = attribute_stalls(t.ops(), 2, t.finish_time());
        let align: Vec<_> = evs
            .iter()
            .filter(|e| e.device == 1 && e.class == StallClass::AlignmentImbalance)
            .collect();
        assert_eq!(align.len(), 1, "{evs:?}");
        assert!((align[0].start - 1.0).abs() < 1e-9);
        assert!((align[0].end - 4.0).abs() < 1e-9);
        // The transfer itself is a comm wait.
        assert!(evs
            .iter()
            .any(|e| e.device == 1 && e.class == StallClass::CommWait));
        conservation_holds(t.ops(), 2);
    }

    #[test]
    fn drain_tail_is_a_pipeline_bubble() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        t.compute_fixed(0, 5.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0)]));
        t.compute_fixed(1, 1.0, 0.5, 1e9, &[], item(1, 0, &[(0, 1)]));
        let evs = attribute_stalls(t.ops(), 2, t.finish_time());
        let tail: Vec<_> = evs.iter().filter(|e| e.device == 1).collect();
        assert_eq!(tail.len(), 1);
        assert_eq!(tail[0].class, StallClass::PipelineBubble);
        assert!((tail[0].end - 5.0).abs() < 1e-9);
        conservation_holds(t.ops(), 2);
    }

    #[test]
    fn p2p_fed_gap_is_a_pipeline_bubble() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute_fixed(0, 2.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0)]));
        let s = t.p2p(0, 1, 500e6, &[a], "act-send");
        t.compute_fixed(1, 2.0, 0.5, 1e9, &[s], item(1, 0, &[(0, 0)]));
        let evs = attribute_stalls(t.ops(), 2, t.finish_time());
        assert!(evs
            .iter()
            .filter(|e| e.device == 1 && e.start < 2.5)
            .all(|e| e.class == StallClass::PipelineBubble));
        conservation_holds(t.ops(), 2);
    }

    #[test]
    fn idle_device_is_fully_accounted() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        t.compute(0, Work::tensor(10e9, 1e6), &[], "only-dev0");
        conservation_holds(t.ops(), 2);
        let d1 = &device_attribution(t.ops(), 2)[1];
        assert_eq!(d1.busy_seconds, 0.0);
        assert!((d1.bubble_seconds - d1.window).abs() < 1e-12);
    }

    #[test]
    fn fault_windows_reclassify_idle_time_and_conserve() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute_fixed(0, 4.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0)]));
        t.compute_fixed(1, 1.0, 0.5, 1e9, &[a], item(1, 0, &[(0, 1)]));
        // Device 1 idles over [0, 4]; declare [1, 3] a fault window.
        let faults = [FaultSpan {
            device: 1,
            start: 1.0,
            end: 3.0,
        }];
        let window = t.finish_time();
        let attr = device_attribution_with_faults(t.ops(), 2, &faults);
        let d1 = &attr[1];
        assert!((d1.fault_seconds - 2.0).abs() < 1e-9, "{d1:?}");
        assert!(
            (d1.accounted_seconds() - window).abs() <= 1e-9 * window.max(1.0),
            "conservation holds under faults: {d1:?}"
        );
        // Fault-free path is byte-identical to the plain attribution.
        assert_eq!(
            device_attribution_with_faults(t.ops(), 2, &[]),
            device_attribution(t.ops(), 2)
        );
        assert_eq!(device_attribution(t.ops(), 2)[1].fault_seconds, 0.0);
    }

    #[test]
    fn overlapping_fault_spans_merge_before_carving() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        t.compute_fixed(0, 1.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0)]));
        // Idle tail [1, 5] via an explicit window; two overlapping spans
        // must count once.
        let faults = [
            FaultSpan {
                device: 0,
                start: 1.5,
                end: 3.0,
            },
            FaultSpan {
                device: 0,
                start: 2.0,
                end: 4.0,
            },
        ];
        let evs = attribute_stalls_with_faults(t.ops(), 1, 5.0, &faults);
        let fault_secs: f64 = evs
            .iter()
            .filter(|e| e.class == StallClass::FaultRecovery)
            .map(|e| e.seconds())
            .sum();
        assert!((fault_secs - 2.5).abs() < 1e-9, "{evs:?}");
        let total: f64 = evs.iter().map(|e| e.seconds()).sum();
        assert!((total - 4.0).abs() < 1e-9, "idle time still tiles: {evs:?}");
    }

    #[test]
    fn by_htask_shares_sum_to_attributed_intervals() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute_fixed(0, 3.0, 0.5, 1e9, &[], item(0, 0, &[(0, 0), (1, 0)]));
        t.compute_fixed(1, 1.0, 0.5, 1e9, &[a], item(1, 0, &[(0, 1)]));
        let d1 = &device_attribution(t.ops(), 2)[1];
        let share: f64 = d1.by_htask.values().sum();
        // The 3s dependency wait is blamed half on each fused hTask.
        assert!((share - 3.0).abs() < 1e-9, "{share}");
        assert_eq!(d1.by_htask.len(), 2);
    }
}
