//! Exactness oracle for `plan_and_run`'s candidate sweep. The planner
//! skips work whose result it already knows: a fusion plan equal to an
//! earlier candidate's is not grouped or run again, a tp = 1 candidate is
//! not relaunched blocking, and stages of equal depth share one engine
//! cell. The reference below does none of that — it fuses all three
//! policies, groups each, builds a fresh engine per unit and launch mode,
//! and runs both launch modes whenever overlap is on — and keeps the
//! fastest under the same strict-`>` rule. Both must choose the same plan
//! and report the same metrics, bit for bit.

use std::collections::BTreeMap;

use muxtune::core::{
    fuse_tasks, group_htasks, CostModel, FusionPolicy, MuxEngine, PlanError, RangeBuild,
};
use muxtune::prelude::*;
use proptest::prelude::*;

/// A planning input: LoRA tasks with mixed caps on a 6- or 7-layer
/// backbone, so some pipeline splits are uneven.
#[derive(Debug)]
struct Case {
    layers: usize,
    tp: usize,
    pp: usize,
    /// `(rank, micro_batch, seq_len)` per task.
    tasks: Vec<(usize, usize, usize)>,
    orchestrate: bool,
    overlap: bool,
    /// 0: no corpora; 1: every task has one; 2: odd task ids only.
    corpora: u8,
}

impl Case {
    fn registry(&self) -> TaskRegistry {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(self.layers));
        for (i, &(rank, mb, seq)) in self.tasks.iter().enumerate() {
            reg.register_task(PeftTask::lora(i as TaskId + 1, rank, mb, seq))
                .expect("register");
        }
        reg
    }

    fn corpora(&self, reg: &TaskRegistry) -> BTreeMap<TaskId, Vec<usize>> {
        reg.tasks()
            .filter(|t| self.corpora == 1 || (self.corpora == 2 && t.id % 2 == 1))
            .map(|t| {
                let kind = match t.seq_len {
                    64 => DatasetKind::Sst2,
                    128 => DatasetKind::OpenBookQa,
                    _ => DatasetKind::Rte,
                };
                (t.id, Corpus::generate(kind, 48, u64::from(t.id)).lengths)
            })
            .collect()
    }

    fn config(&self) -> PlannerConfig {
        let plan = HybridParallelism {
            tp: self.tp,
            pp: self.pp,
            dp: 1,
        };
        let mut cfg = PlannerConfig::muxtune(plan, 2);
        cfg.options.orchestrate = self.orchestrate;
        cfg.options.overlap_comm = self.overlap;
        cfg
    }
}

fn case() -> impl Strategy<Value = Case> {
    (
        (
            prop::sample::select(vec![6usize, 7]),
            prop::sample::select(vec![1usize, 2]),
            1usize..=4,
        ),
        prop::collection::vec(
            (
                prop::sample::select(vec![8usize, 16]),
                1usize..=3,
                prop::sample::select(vec![64usize, 128, 256]),
            ),
            1..6,
        ),
        (any::<bool>(), any::<bool>()),
        0u8..3,
    )
        .prop_map(
            |((layers, tp, pp), tasks, (orchestrate, overlap), corpora)| Case {
                layers,
                tp,
                pp,
                tasks,
                orchestrate,
                overlap,
                corpora,
            },
        )
}

/// What the reference chose: the fused hTasks, their buckets (indices
/// into the hTasks), the launch mode, and the merged metrics.
type Chosen = (Vec<HTask>, Vec<Vec<usize>>, bool, RunMetrics);

/// Merges back-to-back unit runs (orchestration off): sums, per-device
/// peak maxima and makespan-weighted time averages.
fn merge(parts: &[RunMetrics]) -> RunMetrics {
    let mut acc = parts[0].clone();
    if parts.len() == 1 {
        return acc;
    }
    for m in &parts[1..] {
        acc.makespan += m.makespan;
        acc.total_tokens += m.total_tokens;
        acc.effective_tokens += m.effective_tokens;
        for (p, q) in acc.peak_mem.iter_mut().zip(&m.peak_mem) {
            *p = (*p).max(*q);
        }
        acc.energy_joules += m.energy_joules;
    }
    acc.throughput = acc.total_tokens as f64 / acc.makespan;
    acc.effective_throughput = acc.effective_tokens as f64 / acc.makespan;
    acc.mean_utilization = parts
        .iter()
        .map(|m| m.mean_utilization * m.makespan)
        .sum::<f64>()
        / acc.makespan;
    acc.mfu = parts.iter().map(|m| m.mfu * m.makespan).sum::<f64>() / acc.makespan;
    acc.tokens_per_joule = if acc.energy_joules > 0.0 {
        acc.effective_tokens as f64 / acc.energy_joules
    } else {
        0.0
    };
    acc
}

/// The unabridged sweep: every policy, every launch mode, fresh engines.
fn reference(
    reg: &TaskRegistry,
    cluster: &Cluster,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    cfg: &PlannerConfig,
) -> Result<Chosen, PlanError> {
    let cm = CostModel::new(reg, &cluster.gpus[0], cfg.plan);
    let tasks: Vec<&PeftTask> = reg.tasks().collect();
    let custom = |members: &[&PeftTask]| -> Result<HTask, PlanError> {
        if !members.iter().all(|t| corpora.contains_key(&t.id)) {
            return Ok(HTask::from_padded(members, cfg.micro_batches));
        }
        let lens: Vec<Vec<usize>> = members.iter().map(|t| corpora[&t.id].clone()).collect();
        HTask::fuse(members, &lens, cfg.micro_batches, cfg.align)
    };
    let build = if corpora.is_empty() {
        RangeBuild::Padded {
            micro_batches: cfg.micro_batches,
        }
    } else {
        RangeBuild::Custom(&custom)
    };
    let mut best: Option<Chosen> = None;
    let (mut plan_err, mut run_err) = (None, None);
    for policy in [
        FusionPolicy::Dp,
        FusionPolicy::AllSpatial,
        FusionPolicy::AllTemporal,
    ] {
        let fusion = match fuse_tasks(&cm, &tasks, policy, &build) {
            Ok(f) => f,
            Err(e) => {
                plan_err.get_or_insert(e);
                continue;
            }
        };
        let grouping = group_htasks(&cm, &fusion.htasks);
        let buckets: Vec<Vec<HTask>> = grouping
            .buckets
            .iter()
            .map(|b| b.iter().map(|&i| fusion.htasks[i].clone()).collect())
            .collect();
        let mut options = cfg.options;
        if options.max_in_flight == 0 {
            options.max_in_flight = cm.max_in_flight(&buckets).max(cfg.plan.pp);
        }
        let units: Vec<Vec<Vec<HTask>>> = if options.orchestrate {
            vec![buckets]
        } else {
            buckets.into_iter().map(|b| vec![b]).collect()
        };
        let launches: &[bool] = if options.overlap_comm {
            &[true, false]
        } else {
            &[false]
        };
        for &overlap in launches {
            let opts = EngineOptions {
                overlap_comm: overlap,
                ..options
            };
            let parts: Result<Vec<RunMetrics>, _> = units
                .iter()
                .map(|u| MuxEngine::new(reg, cluster, cfg.plan, u, opts).run())
                .collect();
            match parts {
                Ok(parts) => {
                    let m = merge(&parts);
                    if best
                        .as_ref()
                        .is_none_or(|(.., b)| m.effective_throughput > b.effective_throughput)
                    {
                        let (htasks, buckets) = (fusion.htasks.clone(), grouping.buckets.clone());
                        best = Some((htasks, buckets, overlap, m));
                    }
                }
                Err(e) => run_err = Some(e),
            }
        }
    }
    best.ok_or_else(|| {
        plan_err
            .or(run_err.map(PlanError::Oom))
            .expect("a candidate was attempted")
    })
}

/// Every field of a run's metrics, floats as raw bits.
fn bits(m: &RunMetrics) -> (Vec<u64>, u64, u64, Vec<u64>) {
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn the_candidate_sweep_chooses_what_the_full_sweep_chooses(case in case()) {
        let reg = case.registry();
        let corpora = case.corpora(&reg);
        let cfg = case.config();
        let cluster = Cluster::single_node(GpuSpec::a40(), case.tp * case.pp, LinkSpec::nvlink_a40());
        let got = plan_and_run(&reg, &cluster, &corpora, &cfg);
        let want = reference(&reg, &cluster, &corpora, &cfg);
        match (got, want) {
            (Ok(rep), Ok((htasks, buckets, overlap, metrics))) => {
                prop_assert_eq!(&rep.plan.fusion.htasks, &htasks);
                prop_assert_eq!(&rep.plan.grouping.buckets, &buckets);
                prop_assert_eq!(rep.plan.options.overlap_comm, overlap);
                prop_assert_eq!(bits(&rep.metrics), bits(&metrics));
            }
            (Err(got), Err(want)) => prop_assert_eq!(got, want),
            (got, want) => prop_assert!(
                false,
                "planner {:?} vs reference {:?}",
                got.map(|r| r.metrics.effective_throughput),
                want.map(|(.., m)| m.effective_throughput)
            ),
        }
    }
}
