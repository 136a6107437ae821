//! Value golden for the cluster replay (`mux-cluster`): every report field
//! of a fixed set of replays, each float written exactly (`{:?}`), so a
//! refactor of the fluid event loop cannot move a single bit.
//!
//! The cases:
//! - both Fig 21b traces (1500 tasks, seed 99, Uniform-OpenBookQA and
//!   Non-uniform) on 128 GPUs under FCFS, with hand-built profiles so no
//!   engine calibration runs;
//! - the `ext_future_work` bench's FCFS, 15%-priority and SLO-1.8 replays
//!   (800 tasks, seed 17);
//! - three outage replays (a zero-length window, a pause on a one-instance
//!   cluster, an outage on one of two instances);
//! - mixed priorities under SLO admission on a small, saturated shape.
//!
//! FCFS cases pin both the per-instance accounting and the per-class rows
//! (every task `Low`), outage cases the accounting, and policy cases the
//! per-class rows and Jain fairness.
//!
//! Regenerate after an *intentional* change with:
//! `MUX_BLESS=1 cargo test --test cluster_replay_golden`

use std::fs;
use std::path::PathBuf;

use muxtune::cluster::{
    assign_priorities, generate, replay, ClusterReport, ClusterShape, InstanceOutage, Priority,
    ThroughputProfile, TraceTask,
};
use muxtune::data::corpus::DatasetKind;
use serde_json::{Map, Value};

fn shape(total_gpus: usize, gpus_per_instance: usize) -> ClusterShape {
    ClusterShape {
        total_gpus,
        gpus_per_instance,
    }
}

fn rates(r: &[f64]) -> ThroughputProfile {
    ThroughputProfile::from_rates(r.to_vec()).expect("valid profile")
}

/// An exact float: `{:?}` round-trips every f64, NaN included.
fn exact(x: f64) -> Value {
    Value::String(format!("{x:?}"))
}

/// Makespan, throughput, means, completions and per-instance usage.
fn accounting(rep: &ClusterReport, out: &mut Map) {
    out.insert("makespan_min".into(), exact(rep.makespan_min));
    out.insert("throughput".into(), exact(rep.throughput));
    out.insert("mean_jct_min".into(), exact(rep.mean_jct_min));
    out.insert("mean_queue_min".into(), exact(rep.mean_queue_min));
    out.insert("completed".into(), Value::from(rep.completed as u64));
    let usage = rep
        .instances
        .iter()
        .map(|u| {
            let mut m = Map::new();
            m.insert("instance".into(), Value::from(u.instance as u64));
            m.insert("busy_min".into(), exact(u.busy_min));
            m.insert("occupancy_task_min".into(), exact(u.occupancy_task_min));
            m.insert("completed".into(), Value::from(u.completed as u64));
            Value::Object(m)
        })
        .collect();
    out.insert("instances".into(), Value::Array(usage));
}

/// Makespan, throughput, the two class rows and Jain fairness.
fn classes(rep: &ClusterReport, out: &mut Map) {
    out.insert("makespan_min".into(), exact(rep.makespan_min));
    out.insert("throughput".into(), exact(rep.throughput));
    for (name, c) in [("high", &rep.high), ("low", &rep.low)] {
        let mut m = Map::new();
        m.insert("count".into(), Value::from(c.count as u64));
        m.insert("mean_jct_min".into(), exact(c.mean_jct_min));
        m.insert("mean_queue_min".into(), exact(c.mean_queue_min));
        m.insert("slo_attainment".into(), exact(c.slo_attainment));
        out.insert(name.into(), Value::Object(m));
    }
    out.insert("jain_slowdown".into(), exact(rep.jain_slowdown));
}

/// An FCFS replay, pinned as accounting plus all-`Low` class rows.
fn fcfs(trace: &[TraceTask], shape: ClusterShape, profile: &ThroughputProfile) -> Value {
    let mut out = Map::new();
    let rep = replay(trace, shape, profile, None, None, &[]).expect("fcfs replay");
    classes(&rep, &mut out);
    accounting(&rep, &mut out);
    Value::Object(out)
}

/// A fault-aware FCFS replay, pinned as accounting.
fn outage(
    trace: &[TraceTask],
    shape: ClusterShape,
    profile: &ThroughputProfile,
    outages: &[InstanceOutage],
) -> Value {
    let mut out = Map::new();
    let rep = replay(trace, shape, profile, None, None, outages).expect("outage replay");
    accounting(&rep, &mut out);
    Value::Object(out)
}

/// A priority/SLO replay, pinned as class rows.
fn policy(
    trace: &[TraceTask],
    priorities: &[Priority],
    shape: ClusterShape,
    profile: &ThroughputProfile,
    slo_factor: Option<f64>,
) -> Value {
    let mut out = Map::new();
    let rep =
        replay(trace, shape, profile, Some(priorities), slo_factor, &[]).expect("policy replay");
    classes(&rep, &mut out);
    Value::Object(out)
}

/// `n` tasks of seed `seed`, all arriving at 0.
fn burst(n: usize, seed: u64) -> Vec<TraceTask> {
    let mut trace = generate(n, seed, None);
    for t in &mut trace {
        t.arrival_min = 0.0;
    }
    trace
}

fn cases() -> Value {
    let mut out = Map::new();
    let fig21 = shape(128, 4);
    let profiles = [
        ("single", ThroughputProfile::single_task(1.0)),
        ("mux4", rates(&[1.0, 1.6, 2.0, 2.3])),
        ("mux6", rates(&[1.0, 1.45, 1.75, 1.95, 2.05, 2.1])),
    ];
    for (mix, uniform) in [
        ("uniform", Some(DatasetKind::OpenBookQa)),
        ("nonuniform", None),
    ] {
        let trace = generate(1500, 99, uniform);
        for (name, profile) in &profiles {
            out.insert(format!("fig21b_{mix}_{name}"), fcfs(&trace, fig21, profile));
        }
    }

    let trace = generate(800, 17, None);
    let ext = rates(&[1.0, 1.5, 1.8, 2.0]);
    out.insert("ext_fcfs".into(), fcfs(&trace, fig21, &ext));
    let prios = assign_priorities(&trace, 0.15).expect("fraction in range");
    out.insert(
        "ext_priority_15".into(),
        policy(&trace, &prios, fig21, &ext, None),
    );
    let all_low = vec![Priority::Low; trace.len()];
    out.insert(
        "ext_slo_1.8".into(),
        policy(&trace, &all_low, fig21, &ext, Some(1.8)),
    );

    let single = ThroughputProfile::single_task(1.0);
    let window = |instance, start_min, end_min| InstanceOutage {
        instance,
        start_min,
        end_min,
    };
    out.insert(
        "outage_zero_length".into(),
        outage(
            &generate(200, 31, None),
            fig21,
            &single,
            &[window(0, 5.0, 5.0)],
        ),
    );
    out.insert(
        "outage_one_instance".into(),
        outage(&burst(4, 17), shape(4, 4), &single, &[window(0, 1.0, 11.0)]),
    );
    out.insert(
        "outage_one_of_two".into(),
        outage(&burst(2, 23), shape(8, 4), &single, &[window(1, 0.5, 2.5)]),
    );

    let trace = generate(300, 41, None);
    let prios = assign_priorities(&trace, 0.1).expect("fraction in range");
    out.insert(
        "slo_2.0_mixed_small".into(),
        policy(&trace, &prios, shape(16, 4), &ext, Some(2.0)),
    );
    Value::Object(out)
}

#[test]
fn cluster_replay_values_match_golden() {
    let body = serde_json::to_string_pretty(&cases()).expect("serialize") + "\n";
    let path =
        PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("tests/golden/cluster_replay.values.json");
    if std::env::var_os("MUX_BLESS").is_some() {
        fs::write(&path, &body).expect("write golden");
        eprintln!("blessed {}", path.display());
        return;
    }
    let want = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "missing golden {} ({e}); run with MUX_BLESS=1 to create it",
            path.display()
        )
    });
    if want != body {
        let same = want
            .lines()
            .zip(body.lines())
            .take_while(|(w, g)| w == g)
            .count();
        panic!(
            "cluster_replay.values.json drifted at line {} (MUX_BLESS=1 to accept an \
             intentional change)\ngolden:  {:?}\ncurrent: {:?}",
            same + 1,
            want.lines().nth(same),
            body.lines().nth(same)
        );
    }
}
