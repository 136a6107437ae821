//! Chrome/Perfetto trace export for a simulated [`Timeline`].
//!
//! Serializes the operator records of a finished run to the Chrome
//! trace-event JSON format (load in `chrome://tracing` or
//! <https://ui.perfetto.dev>). Each simulated device becomes a *process*
//! (`pid`), with three *threads* (streams) per device:
//!
//! | tid | stream  | contents                                   |
//! |-----|---------|--------------------------------------------|
//! | 0   | compute | compute kernels / fused subgraphs          |
//! | 1   | comm    | collectives and P2P copy-engine transfers  |
//! | 2   | stalls  | synthesized idle-gap events, by cause      |
//!
//! Stall events are not recorded by the timeline — they are *derived* here
//! from the gaps on each device's compute lane, attributed to a cause by
//! walking the gap-ending operator's dependency edges (see [`StallCause`]).
//!
//! [`Timeline`]: crate::timeline::Timeline

use crate::timeline::{OpKind, OpRecord};
use serde_json::{json, Map, Value};

/// Why a device's compute lane sat idle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StallCause {
    /// Waiting for work from another pipeline stage (blocked on a P2P
    /// activation/gradient transfer, or simply not scheduled yet —
    /// warm-up/drain bubbles of the 1F1B template).
    PipelineBubble,
    /// Waiting for a collective, or idling under one that occupies the
    /// device's communication stream.
    Comm,
    /// Waiting for a compute dependency (Algorithm-1 launch-order edges,
    /// same-stage peers in a tensor-parallel group).
    Dependency,
}

impl StallCause {
    /// Short name used as the trace event name.
    pub fn name(&self) -> &'static str {
        match self {
            StallCause::PipelineBubble => "bubble",
            StallCause::Comm => "comm",
            StallCause::Dependency => "dependency",
        }
    }
}

/// One synthesized idle interval on a device's compute lane.
#[derive(Debug, Clone, PartialEq)]
pub struct StallEvent {
    /// Device index.
    pub device: usize,
    /// Interval start, seconds.
    pub start: f64,
    /// Interval end, seconds.
    pub end: f64,
    /// Attributed cause.
    pub cause: StallCause,
}

/// Per-device stall totals (the Fig 4-style breakdown).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StallBreakdown {
    /// Device index.
    pub device: usize,
    /// Seconds lost to pipeline bubbles.
    pub bubble_seconds: f64,
    /// Seconds lost waiting on/under communication.
    pub comm_seconds: f64,
    /// Seconds lost to compute dependencies.
    pub dependency_seconds: f64,
}

impl StallBreakdown {
    /// Total stalled seconds.
    pub fn total(&self) -> f64 {
        self.bubble_seconds + self.comm_seconds + self.dependency_seconds
    }
}

const EPS: f64 = 1e-12;

/// The operator (expanding through zero-duration joins) whose completion
/// gates `ops[idx]`'s start — the one with the latest end time. Shared by
/// the stall lane here and the stall attribution in `mux-obs-analysis`.
pub fn blocking_op(ops: &[OpRecord], idx: usize) -> Option<usize> {
    let mut visited = vec![false; ops.len()];
    let mut stack: Vec<usize> = ops[idx].deps.clone();
    let mut best: Option<usize> = None;
    while let Some(i) = stack.pop() {
        if visited[i] {
            continue;
        }
        visited[i] = true;
        if ops[i].kind == OpKind::Join {
            stack.extend_from_slice(&ops[i].deps);
        } else if best.map(|b| ops[i].end > ops[b].end).unwrap_or(true) {
            best = Some(i);
        }
    }
    best
}

fn cause_of(ops: &[OpRecord], gap_start: f64, gap_ender: usize) -> StallCause {
    match blocking_op(ops, gap_ender) {
        // The compute lane's start rule is max(lane free, deps ready), so a
        // gap means the blocker finished exactly at the gap's end. A blocker
        // that ended before the gap even began did not cause it — the op was
        // simply issued late by the pipeline template (warm-up/drain).
        None => StallCause::PipelineBubble,
        Some(b) if ops[b].end <= gap_start + EPS => StallCause::PipelineBubble,
        Some(b) => match ops[b].kind {
            OpKind::Collective => StallCause::Comm,
            // An inter-stage activation/gradient transfer: the classic
            // pipeline bubble.
            OpKind::P2p => StallCause::PipelineBubble,
            OpKind::Compute | OpKind::Join => StallCause::Dependency,
        },
    }
}

/// Derives per-device stall intervals from a finished run's op records.
///
/// For every idle gap on a device's compute lane: sub-intervals overlapped
/// by a collective on that device's comm stream are attributed to
/// [`StallCause::Comm`]; the rest take the cause of the operator that ended
/// the gap (see `cause_of`'s rules in the source).
pub fn stall_events(ops: &[OpRecord], num_devices: usize) -> Vec<StallEvent> {
    let mut out = Vec::new();
    for dev in 0..num_devices {
        // Compute-lane occupancy, in submission (= time) order per device.
        let busy: Vec<usize> = ops
            .iter()
            .enumerate()
            .filter(|(_, o)| {
                o.kind == OpKind::Compute && o.devices.contains(&dev) && o.end > o.start
            })
            .map(|(i, _)| i)
            .collect();
        // Collectives occupying this device's comm stream.
        let comm: Vec<(f64, f64)> = ops
            .iter()
            .filter(|o| o.kind == OpKind::Collective && o.devices.contains(&dev) && o.end > o.start)
            .map(|o| (o.start, o.end))
            .collect();
        let mut cursor = 0.0f64;
        for &bi in &busy {
            let gap_end = ops[bi].start;
            if gap_end > cursor + EPS {
                let fallback = cause_of(ops, cursor, bi);
                // Split the gap by overlap with comm intervals.
                let mut overlaps: Vec<(f64, f64)> = comm
                    .iter()
                    .map(|&(s, e)| (s.max(cursor), e.min(gap_end)))
                    .filter(|&(s, e)| e > s + EPS)
                    .collect();
                overlaps.sort_by(|a, b| a.0.total_cmp(&b.0));
                let mut t = cursor;
                for (s, e) in overlaps {
                    if s > t + EPS {
                        out.push(StallEvent {
                            device: dev,
                            start: t,
                            end: s,
                            cause: fallback,
                        });
                    }
                    let s = s.max(t);
                    if e > s + EPS {
                        out.push(StallEvent {
                            device: dev,
                            start: s,
                            end: e,
                            cause: StallCause::Comm,
                        });
                        t = e;
                    }
                }
                if gap_end > t + EPS {
                    out.push(StallEvent {
                        device: dev,
                        start: t,
                        end: gap_end,
                        cause: fallback,
                    });
                }
            }
            cursor = cursor.max(ops[bi].end);
        }
    }
    out
}

/// Aggregates [`stall_events`] into per-device totals.
pub fn stall_breakdown(ops: &[OpRecord], num_devices: usize) -> Vec<StallBreakdown> {
    let mut out: Vec<StallBreakdown> = (0..num_devices)
        .map(|device| StallBreakdown {
            device,
            ..StallBreakdown::default()
        })
        .collect();
    for ev in stall_events(ops, num_devices) {
        let dur = ev.end - ev.start;
        let b = &mut out[ev.device];
        match ev.cause {
            StallCause::PipelineBubble => b.bubble_seconds += dur,
            StallCause::Comm => b.comm_seconds += dur,
            StallCause::Dependency => b.dependency_seconds += dur,
        }
    }
    out
}

fn secs_to_us(s: f64) -> f64 {
    (s * 1e6 * 1000.0).round() / 1000.0 // keep ns resolution, drop float noise
}

fn complete_event(
    name: &str,
    cat: &str,
    pid: usize,
    tid: usize,
    start: f64,
    end: f64,
    args: Map,
) -> Value {
    let mut ev = Map::new();
    ev.insert("name".into(), name.into());
    ev.insert("cat".into(), cat.into());
    ev.insert("ph".into(), "X".into());
    ev.insert("ts".into(), secs_to_us(start).into());
    ev.insert("dur".into(), secs_to_us(end - start).into());
    ev.insert("pid".into(), pid.into());
    ev.insert("tid".into(), tid.into());
    if !args.is_empty() {
        ev.insert("args".into(), Value::Object(args));
    }
    Value::Object(ev)
}

fn metadata_event(name: &str, pid: usize, tid: Option<usize>, value: Value) -> Value {
    let mut ev = Map::new();
    ev.insert("name".into(), name.into());
    ev.insert("ph".into(), "M".into());
    ev.insert("pid".into(), pid.into());
    if let Some(tid) = tid {
        ev.insert("tid".into(), tid.into());
    }
    let mut args = Map::new();
    args.insert("name".into(), value);
    ev.insert("args".into(), Value::Object(args));
    Value::Object(ev)
}

/// Stream (thread) ids within each device's trace process.
pub const COMPUTE_TID: usize = 0;
/// Comm stream tid.
pub const COMM_TID: usize = 1;
/// Synthesized stall stream tid.
pub const STALL_TID: usize = 2;

/// Serializes a finished run to Chrome trace-event JSON.
///
/// `ops` are the records from [`Timeline::ops`] (or
/// `MuxEngine::run_traced`); `num_devices` the cluster size. Returns the
/// full trace object — write it with `to_string_pretty` and load the file
/// in `chrome://tracing`.
///
/// [`Timeline::ops`]: crate::timeline::Timeline::ops
pub fn chrome_trace(ops: &[OpRecord], num_devices: usize) -> Value {
    let mut events: Vec<Value> = Vec::new();
    for dev in 0..num_devices {
        events.push(metadata_event(
            "process_name",
            dev,
            None,
            format!("GPU {dev}").into(),
        ));
        events.push(metadata_event(
            "thread_name",
            dev,
            Some(COMPUTE_TID),
            "compute".into(),
        ));
        events.push(metadata_event(
            "thread_name",
            dev,
            Some(COMM_TID),
            "comm".into(),
        ));
        events.push(metadata_event(
            "thread_name",
            dev,
            Some(STALL_TID),
            "stalls".into(),
        ));
    }
    for op in ops {
        if op.end <= op.start + EPS {
            continue; // joins and zero-length ops carry no visible span
        }
        match op.kind {
            OpKind::Compute => {
                for &d in &op.devices {
                    let mut args = Map::new();
                    args.insert("utilization".into(), op.utilization.into());
                    args.insert("flops".into(), op.flops.into());
                    events.push(complete_event(
                        &op.label,
                        "compute",
                        d,
                        COMPUTE_TID,
                        op.start,
                        op.end,
                        args,
                    ));
                }
            }
            OpKind::Collective | OpKind::P2p => {
                let cat = if op.kind == OpKind::Collective {
                    "collective"
                } else {
                    "p2p"
                };
                for &d in &op.devices {
                    let mut args = Map::new();
                    args.insert("bytes".into(), op.comm_bytes.into());
                    if op.compute_penalty > 0.0 {
                        args.insert("compute_penalty".into(), op.compute_penalty.into());
                    }
                    events.push(complete_event(
                        &op.label, cat, d, COMM_TID, op.start, op.end, args,
                    ));
                }
            }
            OpKind::Join => {}
        }
    }
    for ev in stall_events(ops, num_devices) {
        let mut args = Map::new();
        args.insert("cause".into(), ev.cause.name().into());
        events.push(complete_event(
            ev.cause.name(),
            "stall",
            ev.device,
            STALL_TID,
            ev.start,
            ev.end,
            args,
        ));
    }
    let breakdown: Vec<Value> = stall_breakdown(ops, num_devices)
        .iter()
        .map(|b| {
            json!({
                "device": b.device,
                "bubble_seconds": b.bubble_seconds,
                "comm_seconds": b.comm_seconds,
                "dependency_seconds": b.dependency_seconds,
            })
        })
        .collect();
    json!({
        "traceEvents": events,
        "displayTimeUnit": "ms",
        "otherData": {
            "producer": "mux-gpu-sim",
            "num_devices": num_devices,
            "stall_breakdown": breakdown,
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
    use crate::timeline::{Cluster, CollectiveKind, Timeline};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
    }

    #[test]
    fn dependency_gap_is_attributed_to_the_blocking_compute_op() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "producer");
        t.compute(1, Work::tensor(1e9, 1e6), &[a], "consumer");
        let ev = stall_events(t.ops(), 2);
        let dev1: Vec<_> = ev.iter().filter(|e| e.device == 1).collect();
        assert_eq!(dev1.len(), 1);
        assert_eq!(dev1[0].cause, StallCause::Dependency);
        assert!((dev1[0].end - t.end_of(a)).abs() < 1e-9);
    }

    #[test]
    fn p2p_gap_is_a_pipeline_bubble() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "stage0");
        let s = t.p2p(0, 1, 500e6, &[a], "act-send");
        t.compute(1, Work::tensor(1e9, 1e6), &[s], "stage1");
        let ev = stall_events(t.ops(), 2);
        let dev1: Vec<_> = ev.iter().filter(|e| e.device == 1).collect();
        assert!(!dev1.is_empty());
        assert!(
            dev1.iter().all(|e| e.cause == StallCause::PipelineBubble),
            "{dev1:?}"
        );
    }

    #[test]
    fn collective_gap_is_a_comm_stall() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            100e6,
            &[],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        t.compute(0, Work::tensor(1e9, 1e6), &[ar], "after-ar");
        let ev = stall_events(t.ops(), 2);
        let dev0: Vec<_> = ev.iter().filter(|e| e.device == 0).collect();
        assert!(!dev0.is_empty());
        assert!(dev0.iter().all(|e| e.cause == StallCause::Comm), "{dev0:?}");
    }

    #[test]
    fn breakdown_sums_match_events() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "a");
        let s = t.p2p(0, 1, 100e6, &[a], "send");
        t.compute(1, Work::tensor(10e9, 1e6), &[s], "b");
        let ev = stall_events(t.ops(), 2);
        let bd = stall_breakdown(t.ops(), 2);
        for (d, dev_bd) in bd.iter().enumerate() {
            let from_events: f64 = ev
                .iter()
                .filter(|e| e.device == d)
                .map(|e| e.end - e.start)
                .sum();
            assert!((dev_bd.total() - from_events).abs() < 1e-9);
        }
    }

    #[test]
    fn trace_json_has_three_streams_per_device_and_all_categories() {
        let c = cluster(2);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(50e9, 1e6), &[], "w");
        let ar = t.collective(
            &[0, 1],
            CollectiveKind::AllReduce,
            50e6,
            &[a],
            CommCtaPolicy::sequential(),
            false,
            "ar",
        );
        t.compute(1, Work::tensor(10e9, 1e6), &[ar], "w2");
        let v = chrome_trace(t.ops(), 2);
        let events = v["traceEvents"].as_array().expect("array");
        // Round-trip through the serializer to prove the JSON is valid.
        let parsed = serde_json::from_str(&serde_json::to_string_pretty(&v).expect("ser"))
            .expect("valid JSON");
        assert_eq!(v, parsed);
        for dev in 0..2u64 {
            let tids: std::collections::BTreeSet<u64> = events
                .iter()
                .filter(|e| e["pid"].as_u64() == Some(dev))
                .filter_map(|e| e["tid"].as_u64())
                .collect();
            assert!(tids.len() >= 3, "device {dev} streams: {tids:?}");
        }
        let cats: std::collections::BTreeSet<&str> =
            events.iter().filter_map(|e| e["cat"].as_str()).collect();
        assert!(
            cats.contains("compute") && cats.contains("collective") && cats.contains("stall"),
            "{cats:?}"
        );
    }

    #[test]
    fn zero_duration_ops_emit_no_events() {
        let c = cluster(1);
        let mut t = Timeline::new(&c);
        let a = t.compute(0, Work::tensor(1e9, 1e6), &[], "a");
        t.join(&[a], "sync");
        let v = chrome_trace(t.ops(), 1);
        let names: Vec<&str> = v["traceEvents"]
            .as_array()
            .expect("array")
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .filter_map(|e| e["name"].as_str())
            .collect();
        assert_eq!(names, vec!["a"]);
    }
}
