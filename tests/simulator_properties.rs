//! Property-based tests of the discrete-event simulator's core invariants:
//! per-lane mutual exclusion, dependency causality, collective
//! synchronization, and memory-ledger accounting — plus the two engine
//! equivalences the planner relies on: an untraced run equals a traced
//! one, and one engine build serves both launch modes.

use proptest::prelude::*;

use muxtune::core::{EngineOptions, HTask, MuxEngine, RunMetrics};
use muxtune::gpu_sim::spec::{CommCtaPolicy, GpuSpec, LinkSpec, Work};
use muxtune::gpu_sim::timeline::{Cluster, CollectiveKind, LaneKind, OomError, OpHandle, Timeline};
use muxtune::model::config::ModelConfig;
use muxtune::parallel::plan::HybridParallelism;
use muxtune::peft::registry::TaskRegistry;
use muxtune::peft::types::PeftTask;

/// A randomized operation script.
#[derive(Debug, Clone)]
enum ScriptOp {
    /// Compute on device (index mod n), with given GFLOPs, depending on up
    /// to two earlier ops.
    Compute(usize, u8, Option<usize>, Option<usize>),
    /// All-reduce over all devices, depending on one earlier op.
    AllReduce(u8, Option<usize>),
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
            (any::<u8>(), prop::option::of(0usize..64))
                .prop_map(|(f, d)| ScriptOp::AllReduce(f, d)),
        ],
        1..len,
    )
}

type OpRecordLite = (f64, f64, Vec<usize>, LaneKind);

fn run_script(script: &[ScriptOp], devices: usize) -> (Vec<OpRecordLite>, f64) {
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
            ScriptOp::AllReduce(f, d) => {
                let deps = pick(d, &handles);
                tl.collective(
                    &group,
                    CollectiveKind::AllReduce,
                    (*f as f64 + 1.0) * 1e5,
                    &deps,
                    CommCtaPolicy::for_link(&LinkSpec::nvlink_a40(), false),
                    false,
                    "ar",
                )
            }
        };
        handles.push(h);
    }
    let records = tl
        .ops()
        .iter()
        .map(|o| (o.start, o.end, o.devices.to_vec(), o.lane))
        .collect();
    (records, tl.finish_time())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn compute_ops_on_one_device_never_overlap(script in script_strategy(40), devs in 1usize..4) {
        let (records, finish) = run_script(&script, devs);
        for d in 0..devs {
            let mut intervals: Vec<(f64, f64)> = records
                .iter()
                .filter(|(_, _, ds, lane)| *lane == LaneKind::Compute && ds.contains(&d))
                .map(|&(s, e, _, _)| (s, e))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-12, "compute overlap on dev {d}: {w:?}");
            }
        }
        prop_assert!(finish >= 0.0);
        prop_assert!(records.iter().all(|(s, e, _, _)| e >= s));
    }

    #[test]
    fn comm_lane_is_also_exclusive(script in script_strategy(40), devs in 2usize..4) {
        let (records, _) = run_script(&script, devs);
        for d in 0..devs {
            let mut intervals: Vec<(f64, f64)> = records
                .iter()
                .filter(|(_, _, ds, lane)| *lane == LaneKind::Comm && ds.contains(&d))
                .map(|&(s, e, _, _)| (s, e))
                .collect();
            intervals.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap());
            for w in intervals.windows(2) {
                prop_assert!(w[1].0 >= w[0].1 - 1e-12, "comm overlap on dev {d}");
            }
        }
    }

    #[test]
    fn makespan_is_monotone_under_appended_work(script in script_strategy(25), devs in 1usize..3) {
        let (_, t1) = run_script(&script, devs);
        let mut longer = script.clone();
        longer.push(ScriptOp::Compute(0, 200, None, None));
        let (_, t2) = run_script(&longer, devs);
        prop_assert!(t2 >= t1, "adding work cannot shrink the makespan");
    }

    #[test]
    fn memory_ledger_peak_is_max_of_in_use(allocs in prop::collection::vec(1u64..1_000_000, 1..30)) {
        let cluster = Cluster::single_node(GpuSpec::a40(), 1, LinkSpec::nvlink_a40());
        let mut tl = Timeline::new(&cluster);
        let mut in_use = 0u64;
        let mut peak = 0u64;
        for (i, &a) in allocs.iter().enumerate() {
            tl.alloc(0, a).expect("small allocs fit");
            in_use += a;
            peak = peak.max(in_use);
            if i % 3 == 2 {
                tl.free(0, a);
                in_use -= a;
            }
        }
        prop_assert_eq!(tl.mem_in_use(0), in_use);
        prop_assert_eq!(tl.peak_mem(0), peak);
    }
}

/// Every field of a run's metrics, floats as raw bits.
fn metric_bits(m: &RunMetrics) -> (Vec<u64>, u64, u64, Vec<u64>) {
    let floats = [
        m.makespan,
        m.throughput,
        m.effective_throughput,
        m.mean_utilization,
        m.mfu,
        m.energy_joules,
        m.tokens_per_joule,
    ];
    (
        floats.iter().map(|x| x.to_bits()).collect(),
        m.total_tokens,
        m.effective_tokens,
        m.peak_mem.clone(),
    )
}

type RunBits = Result<(Vec<u64>, u64, u64, Vec<u64>), OomError>;

fn run_bits(eng: &MuxEngine<'_>) -> RunBits {
    eng.run().map(|m| metric_bits(&m))
}

/// A small multi-task engine: `tasks` LoRA tasks over an 8-layer backbone,
/// either fused into one hTask or one hTask each, in one shared bucket or
/// one bucket per hTask.
#[derive(Debug)]
struct EngineCase {
    tp: usize,
    pp: usize,
    tasks: usize,
    fused: bool,
    one_bucket: bool,
    orchestrate: bool,
}

impl EngineCase {
    fn registry(&self) -> TaskRegistry {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for i in 0..self.tasks as u32 {
            reg.register_task(PeftTask::lora(
                i + 1,
                8 << (i % 2),
                2 + i as usize,
                64 << (i % 3),
            ))
            .expect("register");
        }
        reg
    }

    fn buckets(&self, reg: &TaskRegistry) -> Vec<Vec<HTask>> {
        let tasks: Vec<&PeftTask> = reg.tasks().collect();
        let htasks: Vec<HTask> = if self.fused {
            vec![HTask::from_padded(&tasks, 2)]
        } else {
            tasks.iter().map(|t| HTask::from_padded(&[t], 2)).collect()
        };
        if self.one_bucket {
            vec![htasks]
        } else {
            htasks.into_iter().map(|h| vec![h]).collect()
        }
    }

    fn engine<'c>(&self, reg: &TaskRegistry, cluster: &'c Cluster, overlap: bool) -> MuxEngine<'c> {
        let plan = HybridParallelism {
            tp: self.tp,
            pp: self.pp,
            dp: 1,
        };
        let options = EngineOptions {
            overlap_comm: overlap,
            orchestrate: self.orchestrate,
            ..EngineOptions::default()
        };
        MuxEngine::new(reg, cluster, plan, &self.buckets(reg), options)
    }
}

fn engine_case() -> impl Strategy<Value = EngineCase> {
    (
        prop::sample::select(vec![1usize, 2, 4]),
        prop::sample::select(vec![1usize, 2, 4]),
        1usize..=4,
        any::<bool>(),
        any::<bool>(),
        any::<bool>(),
    )
        .prop_map(
            |(tp, pp, tasks, fused, one_bucket, orchestrate)| EngineCase {
                tp,
                pp,
                tasks,
                fused,
                one_bucket,
                orchestrate,
            },
        )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn untraced_run_is_bit_identical_to_traced(case in engine_case(), overlap in any::<bool>()) {
        let reg = case.registry();
        let cluster = Cluster::single_node(GpuSpec::a40(), case.tp * case.pp, LinkSpec::nvlink_a40());
        let eng = case.engine(&reg, &cluster, overlap);
        let traced: RunBits = eng.run_traced().map(|(m, ops)| {
            assert!(!ops.is_empty() && ops.iter().all(|o| !o.label.to_string().is_empty()));
            metric_bits(&m)
        });
        prop_assert_eq!(run_bits(&eng), traced);
    }

    #[test]
    fn one_build_serves_both_launch_modes(case in engine_case()) {
        let reg = case.registry();
        let cluster = Cluster::single_node(GpuSpec::a40(), case.tp * case.pp, LinkSpec::nvlink_a40());
        let mut reused = case.engine(&reg, &cluster, true);
        let overlapped = run_bits(&reused);
        reused.set_overlap_comm(false);
        let fresh_blocking = case.engine(&reg, &cluster, false);
        prop_assert_eq!(run_bits(&reused), run_bits(&fresh_blocking));
        // Without tensor parallelism no stage issues a collective, the
        // only op the launch mode shapes.
        if case.tp == 1 {
            prop_assert_eq!(run_bits(&reused), overlapped.clone());
        }
        reused.set_overlap_comm(true);
        prop_assert_eq!(run_bits(&reused), overlapped);
    }
}
