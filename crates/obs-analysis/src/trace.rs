//! Chrome/Perfetto trace-event export.
//!
//! Every trace this crate writes — a simulated run's device timeline
//! ([`timeline_chrome_trace`]), a journal's tenant/job lanes
//! ([`lifecycle_chrome_trace`](crate::lifecycle_chrome_trace)) and a
//! self-profile's call tree
//! ([`profile_chrome_trace`](crate::profile_chrome_trace)) — is built by
//! one [`TraceWriter`]: `process_name`/`thread_name` metadata records plus
//! duration (`X`) and instant (`i`) events, wrapped as
//! `{traceEvents, displayTimeUnit, otherData?}`. Load the files in
//! `chrome://tracing` or <https://ui.perfetto.dev>.

use mux_gpu_sim::timeline::{OpKind, OpRecord};
use serde_json::{Map, Value};

use crate::attribution::{attribute_stalls, device_attribution, run_window, DeviceAttribution};

/// The one Chrome trace-event writer. Timestamps and durations are in
/// microseconds, as the format expects; callers convert.
pub(crate) struct TraceWriter {
    events: Vec<Value>,
}

/// A `(pid, tid)` lane: a process row and one of its threads.
pub(crate) type Lane = (u64, u64);

impl TraceWriter {
    pub(crate) fn new() -> Self {
        Self { events: Vec::new() }
    }

    /// Names process `pid` in the viewer.
    pub(crate) fn process_name(&mut self, pid: u64, name: &str) {
        self.metadata("process_name", pid, None, name);
    }

    /// Names thread `tid` of process `pid` in the viewer.
    pub(crate) fn thread_name(&mut self, (pid, tid): Lane, name: &str) {
        self.metadata("thread_name", pid, Some(tid), name);
    }

    fn metadata(&mut self, record: &str, pid: u64, tid: Option<u64>, name: &str) {
        let mut ev = Map::new();
        ev.insert("name".into(), record.into());
        ev.insert("ph".into(), "M".into());
        ev.insert("pid".into(), pid.into());
        if let Some(tid) = tid {
            ev.insert("tid".into(), tid.into());
        }
        let mut args = Map::new();
        args.insert("name".into(), name.into());
        ev.insert("args".into(), Value::Object(args));
        self.events.push(Value::Object(ev));
    }

    /// A duration (`X`) event; empty `args` are omitted.
    pub(crate) fn complete(
        &mut self,
        lane: Lane,
        name: &str,
        cat: &str,
        ts: f64,
        dur: f64,
        args: Map,
    ) {
        let mut ev = event("X", lane, name, cat, ts, args);
        ev.insert("dur".into(), dur.into());
        self.events.push(Value::Object(ev));
    }

    /// A thread-scoped instant (`i`) event; empty `args` are omitted.
    pub(crate) fn instant(&mut self, lane: Lane, name: &str, cat: &str, ts: f64, args: Map) {
        let mut ev = event("i", lane, name, cat, ts, args);
        ev.insert("s".into(), "t".into());
        self.events.push(Value::Object(ev));
    }

    /// The trace object: the events in emission order, displayed in ms,
    /// with `other_data` as `otherData` when given.
    pub(crate) fn finish(self, other_data: Option<Value>) -> Value {
        let mut root = Map::new();
        root.insert("traceEvents".into(), Value::Array(self.events));
        root.insert("displayTimeUnit".into(), "ms".into());
        if let Some(other) = other_data {
            root.insert("otherData".into(), other);
        }
        Value::Object(root)
    }
}

fn event(ph: &str, (pid, tid): Lane, name: &str, cat: &str, ts: f64, args: Map) -> Map {
    let mut ev = Map::new();
    ev.insert("ph".into(), ph.into());
    ev.insert("name".into(), name.into());
    ev.insert("cat".into(), cat.into());
    ev.insert("pid".into(), pid.into());
    ev.insert("tid".into(), tid.into());
    ev.insert("ts".into(), ts.into());
    if !args.is_empty() {
        ev.insert("args".into(), Value::Object(args));
    }
    ev
}

/// Compute-stream tid within each device's trace process.
const COMPUTE_TID: u64 = 0;
/// Comm-stream tid: collectives and P2P copy-engine transfers.
const COMM_TID: u64 = 1;
/// Stall-lane tid: the attributed idle intervals.
const STALL_TID: u64 = 2;

/// Seconds to trace microseconds, kept at ns resolution to drop float noise.
fn secs_to_us(s: f64) -> f64 {
    (s * 1e6 * 1000.0).round() / 1000.0
}

/// Serializes a finished run to Chrome trace-event JSON.
///
/// `ops` are the records from `Timeline::ops` (or `MuxEngine::run_traced`);
/// `num_devices` the cluster size. Each device is a process with three
/// threads:
///
/// | tid | stream  | contents                                   |
/// |-----|---------|--------------------------------------------|
/// | 0   | compute | compute kernels / fused subgraphs          |
/// | 1   | comm    | collectives and P2P copy-engine transfers  |
/// | 2   | stalls  | [`attribute_stalls`] intervals, by class   |
///
/// The stall lane tiles each device's idle time up to the makespan, drain
/// tail included: one `stall` event per attributed interval, named by its
/// [`StallClass`](crate::StallClass) and carrying the blamed hTasks.
/// `otherData.attribution` holds the matching [`device_attribution`] rows
/// ([`DeviceAttribution::to_json`]), so each device's lane sums to its
/// row's stall seconds. Write the result with `to_string_pretty`.
pub fn timeline_chrome_trace(ops: &[OpRecord], num_devices: usize) -> Value {
    let mut w = TraceWriter::new();
    for dev in 0..num_devices as u64 {
        w.process_name(dev, &format!("GPU {dev}"));
        w.thread_name((dev, COMPUTE_TID), "compute");
        w.thread_name((dev, COMM_TID), "comm");
        w.thread_name((dev, STALL_TID), "stalls");
    }
    for op in ops {
        if op.end <= op.start + 1e-12 {
            continue; // joins and zero-length ops carry no visible span
        }
        let mut args = Map::new();
        let (tid, cat) = match op.kind {
            OpKind::Compute => {
                args.insert("utilization".into(), op.utilization.into());
                args.insert("flops".into(), op.flops.into());
                (COMPUTE_TID, "compute")
            }
            OpKind::Collective | OpKind::P2p => {
                args.insert("bytes".into(), op.comm_bytes.into());
                if op.compute_penalty > 0.0 {
                    args.insert("compute_penalty".into(), op.compute_penalty.into());
                }
                let cat = if op.kind == OpKind::Collective {
                    "collective"
                } else {
                    "p2p"
                };
                (COMM_TID, cat)
            }
            OpKind::Join => continue,
        };
        let name = op.label.to_string();
        for &d in &op.devices {
            w.complete(
                (d as u64, tid),
                &name,
                cat,
                secs_to_us(op.start),
                secs_to_us(op.end - op.start),
                args.clone(),
            );
        }
    }
    for stall in attribute_stalls(ops, num_devices, run_window(ops)) {
        let mut args = Map::new();
        if !stall.htasks.is_empty() {
            let htasks = stall.htasks.iter().map(|h| h.to_string().into());
            args.insert("htasks".into(), Value::Array(htasks.collect()));
        }
        w.complete(
            (stall.device as u64, STALL_TID),
            stall.class.name(),
            "stall",
            secs_to_us(stall.start),
            secs_to_us(stall.seconds()),
            args,
        );
    }
    let attribution = device_attribution(ops, num_devices)
        .iter()
        .map(DeviceAttribution::to_json)
        .collect();
    let mut other = Map::new();
    other.insert("producer".into(), "mux-obs-analysis".into());
    other.insert("num_devices".into(), num_devices.into());
    other.insert("attribution".into(), Value::Array(attribution));
    w.finish(Some(Value::Object(other)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
    use mux_gpu_sim::timeline::{Cluster, CollectiveKind, Timeline};

    fn cluster(n: usize) -> Cluster {
        Cluster::single_node(GpuSpec::a40(), n, LinkSpec::nvlink_a40())
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
        let v = timeline_chrome_trace(t.ops(), 2);
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
        let v = timeline_chrome_trace(t.ops(), 1);
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
