//! Property tests on the multi-tenant service:
//!
//! - it never panics on untrusted job input. Random job streams —
//!   including zero-sized specs, unknown backbones, oversize and
//!   degenerate custom corpora, and memory-infeasible workloads — flow end
//!   to end through `submit`/`advance`/`run_to_completion`; every job must
//!   land in a terminal state, rejected ones with a reason, and co-tenants
//!   must be unaffected;
//! - reading it changes nothing: `service_report()` and `snapshot_prom()`
//!   between any two operations leave the journal, the next report and the
//!   process's `mux-obs` registry as they were, and re-simulate an
//!   instance only after its membership changed.
//!
//! Every test here takes [`OBS_LOCK`]: one of them turns collection on and
//! the others fill traced runs, which record into the registry while it is
//! on.

use std::sync::{Mutex, MutexGuard};

use muxtune::api::{FineTuneService, JobId, ServiceFault};
use muxtune::obs::profile;
use muxtune::prelude::*;
use proptest::prelude::*;
use serde_json::Value;

static OBS_LOCK: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    OBS_LOCK.lock().unwrap_or_else(|e| e.into_inner())
}

/// One randomized tenant submission. The corpus axis deliberately covers
/// pathological shapes: empty, all-zero, oversize rows, and huge rows that
/// make the membership memory-infeasible.
fn spec_strategy() -> impl Strategy<Value = JobSpec> {
    (
        prop::sample::select(vec!["LLaMA2-7B", "GPT3-2.7B", "NoSuchModel"]),
        prop::sample::select(vec![
            DatasetKind::Sst2,
            DatasetKind::Rte,
            DatasetKind::OpenBookQa,
        ]),
        prop::sample::select(vec![0usize, 1, 4, 8]),
        prop::sample::select(vec![0u64, 1, 10_000, 60_000]),
        prop::sample::select(vec![
            None,
            Some(vec![]),
            Some(vec![0, 0]),
            Some(vec![64, 0, 9_999, 128]),
            Some(vec![256; 600]),
        ]),
        prop::sample::select(vec![None, Some(1e-3), Some(1e9)]),
    )
        .prop_map(|(backbone, dataset, mb, tokens, lens, slo)| {
            let mut s = JobSpec::lora(backbone, dataset, 16, mb, tokens);
            if let Some(lens) = lens {
                s = s.with_sequence_lengths(lens);
            }
            if let Some(slo) = slo {
                s = s.with_slo(slo);
            }
            s
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn random_job_streams_never_panic_end_to_end(
        specs in prop::collection::vec(spec_strategy(), 1..7),
        dt in prop::sample::select(vec![0.0f64, 1e-9, 5.0, f64::NAN, -1.0]),
    ) {
        let _serial = serial();
        let mut cfg = ServiceConfig::a40_pool(8);
        cfg.backbone_layers = Some(8);
        let mut svc = FineTuneService::new(cfg);
        let mut ids = Vec::new();
        for spec in specs {
            ids.push(svc.submit(spec));
            svc.advance(dt);
        }
        let _ = svc.service_report();
        svc.run_to_completion();
        for id in ids {
            let job = svc.job(id).expect("job recorded");
            match job.state {
                JobState::Completed => {
                    prop_assert!(job.jct().expect("jct") >= 0.0);
                }
                JobState::Rejected => {
                    prop_assert!(
                        job.reject_reason.is_some(),
                        "rejection carries a reason: {:?}",
                        job.id
                    );
                }
                other => prop_assert!(false, "non-terminal state {other:?} for {:?}", job.id),
            }
        }
        let _ = svc.snapshot_prom();
    }
}

/// One operation on the service. `pick` indexes whatever the operation
/// targets (submitted jobs, instances), reduced modulo their count.
#[derive(Debug, Clone)]
enum Op {
    Submit { backbone: usize, tokens: u64 },
    Advance { dt: f64 },
    Tick { dt: f64 },
    Cancel { pick: usize },
    Fault { pick: usize, kind: usize },
    ClearFault { pick: usize },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        // Submissions twice, to weight the mix toward membership changes.
        (0..2usize, prop::sample::select(vec![20_000u64, 400_000]))
            .prop_map(|(backbone, tokens)| Op::Submit { backbone, tokens }),
        (0..2usize, prop::sample::select(vec![20_000u64, 400_000]))
            .prop_map(|(backbone, tokens)| Op::Submit { backbone, tokens }),
        prop::sample::select(vec![0.05f64, 1.0]).prop_map(|dt| Op::Advance { dt }),
        prop::sample::select(vec![0.05f64, 1.0]).prop_map(|dt| Op::Tick { dt }),
        (0..4usize).prop_map(|pick| Op::Cancel { pick }),
        (0..2usize, 0..4usize).prop_map(|(pick, kind)| Op::Fault { pick, kind }),
        (0..2usize).prop_map(|pick| Op::ClearFault { pick }),
    ]
}

/// A monitored 2-instance service at 8 layers, one instance per backbone.
fn monitored_service() -> FineTuneService {
    let mut cfg = ServiceConfig::a40_pool(8);
    cfg.backbone_layers = Some(8);
    let mut svc = FineTuneService::new(cfg);
    svc.enable_monitoring(MonitorConfig::default());
    svc
}

fn job(backbone: usize, tokens: u64) -> JobSpec {
    let name = ["LLaMA2-7B", "GPT3-2.7B"][backbone];
    JobSpec::lora(name, DatasetKind::OpenBookQa, 16, 4, tokens)
}

/// Applies `ops` to a fresh service; with `read`, renders the report and
/// the Prometheus body after every operation.
fn drive(ops: &[Op], read: bool) -> FineTuneService {
    let mut svc = monitored_service();
    let mut ids: Vec<JobId> = Vec::new();
    for op in ops {
        let instances = svc.instance_count().max(1);
        match *op {
            Op::Submit { backbone, tokens } => ids.push(svc.submit(job(backbone, tokens))),
            Op::Advance { dt } => svc.advance(dt),
            Op::Tick { dt } => svc.tick(dt),
            Op::Cancel { pick } => {
                if !ids.is_empty() {
                    svc.cancel(ids[pick % ids.len()], "operator cancel");
                }
            }
            Op::Fault { pick, kind } => {
                let instance = pick % instances;
                let fault = match kind {
                    0 => ServiceFault::DeviceSlowdown {
                        instance,
                        device: 0,
                        factor: 2.0,
                    },
                    1 => ServiceFault::LinkDegrade {
                        instance,
                        factor: 1.5,
                    },
                    2 => ServiceFault::TransientComm {
                        instance,
                        failures: 2,
                    },
                    _ => ServiceFault::DeviceLoss {
                        instance,
                        device: 3,
                    },
                };
                let _ = svc.inject_fault(fault);
            }
            Op::ClearFault { pick } => {
                let _ = svc.clear_fault(pick % instances);
            }
        }
        if read {
            let _ = svc.service_report();
            let _ = svc.snapshot_prom();
        }
    }
    svc
}

/// The report as JSON text with its wall-clock values masked, as the
/// report goldens mask them.
fn masked_report(svc: &FineTuneService) -> String {
    let mut rep = svc.service_report();
    let Value::Object(root) = &mut rep else {
        panic!("report is an object")
    };
    let Some(Value::Object(obs)) = root.get_mut("observability") else {
        panic!("report has an observability section")
    };
    if let Some(Value::Object(phases)) = obs.get_mut("phases") {
        for phase in phases.values_mut() {
            if let Value::Object(p) = phase {
                p.insert("total_seconds".into(), "<wall-clock>".into());
            }
        }
    }
    if let Some(Value::Object(gauges)) = obs.get_mut("gauges") {
        if let Some(v) = gauges.get_mut("planner.planning_seconds") {
            *v = "<wall-clock>".into();
        }
    }
    serde_json::to_string_pretty(&rep).expect("serialize")
}

const SENTINEL: &str = "test.sentinel_before_first_read";

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Reading is free of side effects: a run that renders the report and
    /// the Prometheus body after every operation journals exactly what a
    /// run that never reads journals, ends on the same report, and leaves
    /// a counter recorded before its first read in the registry.
    #[test]
    fn reading_the_service_changes_nothing(
        ops in prop::collection::vec(op_strategy(), 1..10),
    ) {
        let _serial = serial();
        let plain = drive(&ops, false);
        let read = {
            let _on = muxtune::obs::enabled_scope();
            muxtune::obs::incr_counter(SENTINEL, 1);
            let svc = drive(&ops, true);
            prop_assert!(
                muxtune::obs::snapshot().counters.contains_key(SENTINEL),
                "a read wiped the registry under ops {:?}",
                ops
            );
            svc
        };
        prop_assert_eq!(
            plain.journal().fingerprint(),
            read.journal().fingerprint(),
            "reads changed the journal under ops {:?}",
            ops
        );
        let (plain_report, read_report) = (masked_report(&plain), masked_report(&read));
        let first = plain_report.lines().zip(read_report.lines()).find(|(p, r)| p != r);
        prop_assert!(
            plain_report == read_report,
            "reads changed the final report, first at {:?}, under ops {:?}",
            first,
            ops
        );
    }
}

/// `planner.total` spans the call-tree profiler holds under root span
/// `root`.
/// How many `name` spans ran under the root span `root`.
fn spans_under(root: &str, name: &str) -> u64 {
    let mut count = 0;
    profile::for_each_path(&profile::snapshot_profile(), |path, node| {
        if path[0] == root && node.name == name {
            count += node.count;
        }
    });
    count
}

/// An unchanged plan is never simulated again: the first report + prom
/// pair after a membership change runs each changed instance's plan once,
/// traced, and every later pair, including after a fault that only
/// re-prices the instance, runs nothing. No read plans.
#[test]
fn an_unchanged_plan_is_never_resimulated() {
    let _serial = serial();
    let _profiling = profile::profiling_scope();
    let mut svc = monitored_service();
    svc.submit(job(0, 1 << 40));
    svc.submit(job(1, 1 << 40));
    assert_eq!(svc.instance_count(), 2);
    let scrape = |svc: &FineTuneService, root: &'static str| {
        {
            let _pair = muxtune::obs::span(root);
            let _ = svc.service_report();
            let _ = svc.snapshot_prom();
        }
        assert_eq!(spans_under(root, "planner.total"), 0, "{root} planned");
        spans_under(root, "engine.simulate")
    };
    assert_eq!(
        scrape(&svc, "scrape.first"),
        2,
        "one traced run per instance"
    );
    assert_eq!(scrape(&svc, "scrape.again"), 0, "nothing changed");

    svc.submit(job(0, 1 << 40));
    assert_eq!(
        scrape(&svc, "scrape.after_submit"),
        1,
        "one instance changed"
    );
    assert_eq!(scrape(&svc, "scrape.after_submit_again"), 0);

    svc.inject_fault(ServiceFault::DeviceSlowdown {
        instance: 1,
        device: 0,
        factor: 2.0,
    })
    .expect("valid fault");
    svc.tick(0.05);
    assert_eq!(
        scrape(&svc, "scrape.after_fault"),
        0,
        "a re-price keeps the plan"
    );
}
