//! Property tests: the Eq. 6 fusion DP is exact and the planner's
//! recurrence is a pure optimization. For M ≤ 8 tasks the contiguous
//! partitions of the sorted task list can be enumerated outright
//! (2^(M-1) of them); the DP's chosen objective must equal the
//! brute-force optimum under the same cost model and memory filter, the
//! returned plan must itself be feasible and correctly priced, and the
//! O(M²) planner — cold or warm — must reproduce the seed O(M³)
//! implementation's optimum bit for bit. The seed shares no code with
//! `IncrementalPlanner`, so it is the independent reference.

use std::collections::BTreeMap;

use mux_data::align::AlignStrategy;
use mux_data::corpus::{Corpus, DatasetKind};
use mux_gpu_sim::spec::GpuSpec;
use mux_model::config::ModelConfig;
use mux_parallel::plan::HybridParallelism;
use mux_peft::registry::TaskRegistry;
use mux_peft::types::{PeftTask, TaskId};
use muxtune_core::cost::CostModel;
use muxtune_core::error::PlanError;
use muxtune_core::fusion::{
    fuse_dp_seed, fuse_tasks, sort_by_tokens, FusionPolicy, IncrementalPlanner, RangeBuild,
};
use muxtune_core::htask::HTask;
use proptest::prelude::*;

const MBS: usize = 4;

fn registry(shapes: &[(usize, usize)]) -> TaskRegistry {
    let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    for (i, &(mb, seq)) in shapes.iter().enumerate() {
        r.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq))
            .expect("register");
    }
    r
}

/// The hTask `build` makes for `members`.
fn build_range(build: &RangeBuild<'_>, members: &[&PeftTask]) -> HTask {
    match build {
        RangeBuild::Custom(f) => f(members).expect("range builds"),
        RangeBuild::Padded { micro_batches } => HTask::from_padded(members, *micro_batches),
    }
}

/// Objective of one contiguous partition (Eq. 6 unrolled) under `build`:
/// `L(part_1) + Σ_{j≥2} L(part_j)/S`, or `None` if any part violates the
/// memory filter.
fn partition_objective(
    cm: &CostModel<'_>,
    sorted: &[&PeftTask],
    cuts: &[usize],
    build: &RangeBuild<'_>,
) -> Option<f64> {
    let mut total = 0.0;
    for (j, w) in cuts.windows(2).enumerate() {
        let h = build_range(build, &sorted[w[0]..w[1]]);
        if !cm.fits_memory(std::slice::from_ref(&h), cm.num_stages()) {
            return None;
        }
        let lat = cm.pipeline_latency(&h);
        total += if j == 0 {
            lat
        } else {
            lat / cm.num_stages() as f64
        };
    }
    Some(total)
}

/// Exhaustively scores every contiguous partition of `sorted` (bitmask
/// over the M-1 possible cut points) and returns the feasible minimum.
fn brute_force_optimum(cm: &CostModel<'_>, sorted: &[&PeftTask]) -> Option<f64> {
    let padded = RangeBuild::Padded { micro_batches: MBS };
    let m = sorted.len();
    let mut best: Option<f64> = None;
    for mask in 0u32..(1 << (m - 1)) {
        let mut cuts = vec![0];
        for i in 0..m - 1 {
            if mask & (1 << i) != 0 {
                cuts.push(i + 1);
            }
        }
        cuts.push(m);
        if let Some(obj) = partition_objective(cm, sorted, &cuts, &padded) {
            best = Some(best.map_or(obj, |b: f64| b.min(obj)));
        }
    }
    best
}

/// One membership delta: `insert` picks a fresh task of the given shape,
/// `!insert` removes the `pick`-th live task (mod the live count).
type ChurnOp = (bool, usize, usize, usize);

fn churn_strategy() -> impl Strategy<Value = Vec<ChurnOp>> {
    prop::collection::vec(
        (
            any::<bool>(),
            prop::sample::select(vec![1usize, 2, 4, 8]),
            prop::sample::select(vec![64usize, 128, 256]),
            0..64usize,
        ),
        1..12,
    )
}

/// Corpus-backed range builder (chunk-based alignment); ranges with a
/// member lacking a corpus fall back to the padded build.
fn corpus_build(
    corpora: &BTreeMap<TaskId, Vec<usize>>,
) -> impl Fn(&[&PeftTask]) -> Result<HTask, PlanError> + Sync + '_ {
    move |members: &[&PeftTask]| {
        let have_all = members.iter().all(|t| corpora.contains_key(&t.id));
        if have_all {
            let lens: Vec<Vec<usize>> = members.iter().map(|t| corpora[&t.id].clone()).collect();
            HTask::fuse(
                members,
                &lens,
                MBS,
                AlignStrategy::ChunkBased { min_chunk: 64 },
            )
        } else {
            Ok(HTask::from_padded(members, MBS))
        }
    }
}

/// A corpus for task `id` of micro-batch `mb`, cycling through three
/// datasets.
fn corpus(id: TaskId, mb: usize) -> Vec<usize> {
    let kind = [DatasetKind::Sst2, DatasetKind::OpenBookQa, DatasetKind::Rte][(id as usize) % 3];
    Corpus::generate(kind, MBS * mb, id as u64).lengths
}

/// Asserts the warm [`IncrementalPlanner`] and a from-scratch
/// [`fuse_tasks`] run agree bitwise on the current membership — same
/// predicted objective, same hTask cuts, or the same typed error — and
/// that the warm objective equals the seed DP's bit for bit.
fn assert_matches_scratch(
    r: &TaskRegistry,
    corpora: &BTreeMap<TaskId, Vec<usize>>,
    inc: &mut IncrementalPlanner,
) -> Result<(), TestCaseError> {
    let gpu = GpuSpec::a40();
    let cm = CostModel::new(r, &gpu, HybridParallelism::pipeline(4));
    let custom = corpus_build(corpora);
    let build = if corpora.is_empty() {
        RangeBuild::Padded { micro_batches: MBS }
    } else {
        RangeBuild::Custom(&custom)
    };
    let items: Vec<(PeftTask, u64)> = r.tasks().map(|t| (t.clone(), 0)).collect();
    inc.sync(&items);
    let tasks: Vec<&PeftTask> = r.tasks().collect();
    let scratch = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build);
    let warm = if tasks.is_empty() {
        Err(PlanError::NoTasks)
    } else {
        inc.plan(&cm, &build)
    };
    match (&warm, fuse_dp_seed(&cm, &tasks, &build)) {
        (Ok(a), Ok(s)) => prop_assert_eq!(
            a.predicted.to_bits(),
            s.predicted.to_bits(),
            "incremental {} vs seed {}",
            a.predicted,
            s.predicted
        ),
        (Err(a), Err(s)) => prop_assert_eq!(a, &s),
        (a, s) => prop_assert!(false, "divergence: incremental {:?} vs seed {:?}", a, s),
    }
    match (warm, scratch) {
        (Ok(a), Ok(b)) => {
            prop_assert_eq!(
                a.predicted.to_bits(),
                b.predicted.to_bits(),
                "incremental {} vs scratch {}",
                a.predicted,
                b.predicted
            );
            let ca: Vec<Vec<TaskId>> = a.htasks.iter().map(|h| h.tasks.clone()).collect();
            let cb: Vec<Vec<TaskId>> = b.htasks.iter().map(|h| h.tasks.clone()).collect();
            prop_assert_eq!(ca, cb, "hTask cuts diverged");
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (a, b) => prop_assert!(false, "divergence: incremental {:?} vs scratch {:?}", a, b),
    }
    Ok(())
}

fn run_churn(ops: &[ChurnOp], with_corpora: bool) -> Result<(), TestCaseError> {
    let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
    let mut corpora: BTreeMap<TaskId, Vec<usize>> = BTreeMap::new();
    let mut next_id: TaskId = 1;
    let mut inc = IncrementalPlanner::new();
    for &(insert, mb, seq, pick) in ops {
        if insert {
            r.register_task(PeftTask::lora(next_id, 16, mb, seq))
                .expect("fresh id");
            if with_corpora {
                corpora.insert(next_id, corpus(next_id, mb));
            }
            next_id += 1;
        } else if !r.is_empty() {
            let ids: Vec<TaskId> = r.tasks().map(|t| t.id).collect();
            let id = ids[pick % ids.len()];
            r.deregister_task(id).expect("live task");
            corpora.remove(&id);
        }
        assert_matches_scratch(&r, &corpora, &mut inc)?;
    }
    Ok(())
}

fn shape_strategy() -> impl Strategy<Value = Vec<(usize, usize)>> {
    prop::collection::vec(
        (
            prop::sample::select(vec![1usize, 2, 4, 8]),
            prop::sample::select(vec![64usize, 128, 256]),
        ),
        1..9,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn dp_matches_exhaustive_enumeration(shapes in shape_strategy()) {
        let r = registry(&shapes);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let sorted = sort_by_tokens(&tasks);
        let brute = brute_force_optimum(&cm, &sorted);

        let build = RangeBuild::Padded { micro_batches: MBS };
        let plan = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build);

        // With no feasible partition at all the DP must report, not panic.
        let Some(brute) = brute else {
            prop_assert_eq!(
                plan.expect_err("no feasible partition"),
                PlanError::Infeasible { tasks: sorted.len() }
            );
            return Ok(());
        };
        let plan = plan.expect("a feasible partition exists");

        // Exactness: the DP found the enumeration's optimum.
        let rel = (plan.predicted - brute).abs() / brute.max(1e-12);
        prop_assert!(
            rel < 1e-9,
            "DP predicted {} but exhaustive optimum is {}",
            plan.predicted,
            brute
        );

        // The returned plan prices to its own reported objective and is
        // feasible part by part.
        let cuts: Vec<usize> = std::iter::once(0)
            .chain(plan.htasks.iter().scan(0, |acc, h| {
                *acc += h.tasks.len();
                Some(*acc)
            }))
            .collect();
        let repriced = partition_objective(&cm, &sorted, &cuts, &build)
            .expect("chosen plan must satisfy the memory filter");
        prop_assert!(
            (repriced - plan.predicted).abs() / plan.predicted.max(1e-12) < 1e-9,
            "plan reprices to {} but reported {}",
            repriced,
            plan.predicted
        );

        // Partition validity: concatenating the hTasks reproduces the
        // sorted task list exactly once each.
        let flat: Vec<TaskId> = plan.htasks.iter().flat_map(|h| h.tasks.clone()).collect();
        let expect: Vec<TaskId> = sorted.iter().map(|t| t.id).collect();
        prop_assert_eq!(flat, expect);
    }

    /// The planner's recurrence is value-preserving: a cold
    /// `IncrementalPlanner` (via `fuse_tasks`) and the seed O(M³)
    /// clone-cache DP see the exact same candidate sums (left-to-right
    /// association in both), so their optima must be bitwise identical —
    /// as must each returned plan's re-priced objective. Checked on the
    /// padded build and on the corpus-backed build that `Simulate` and
    /// `Estimate` replans fuse with.
    #[test]
    fn value_table_dp_is_bitwise_identical_to_seed(shapes in shape_strategy()) {
        let r = registry(&shapes);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let corpora: BTreeMap<TaskId, Vec<usize>> = r
            .tasks()
            .map(|t| (t.id, corpus(t.id, t.micro_batch)))
            .collect();
        let custom = corpus_build(&corpora);
        let sorted = sort_by_tokens(&tasks);
        for build in [
            RangeBuild::Padded { micro_batches: MBS },
            RangeBuild::Custom(&custom),
        ] {
            let new = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build);
            let seed = fuse_dp_seed(&cm, &tasks, &build);
            match (new, seed) {
                (Ok(n), Ok(s)) => {
                    prop_assert_eq!(
                        n.predicted.to_bits(),
                        s.predicted.to_bits(),
                        "planner {} vs seed {}",
                        n.predicted,
                        s.predicted
                    );
                    // Tie-broken *partitions* may differ; both must price
                    // to the shared optimum.
                    for plan in [&n, &s] {
                        let cuts: Vec<usize> = std::iter::once(0)
                            .chain(plan.htasks.iter().scan(0, |acc, h| {
                                *acc += h.tasks.len();
                                Some(*acc)
                            }))
                            .collect();
                        let repriced = partition_objective(&cm, &sorted, &cuts, &build)
                            .expect("chosen plan must be feasible");
                        prop_assert_eq!(repriced.to_bits(), n.predicted.to_bits());
                    }
                }
                (Err(a), Err(b)) => prop_assert_eq!(a, b),
                (n, s) => prop_assert!(false, "divergence: new {:?} vs seed {:?}", n, s),
            }
        }
    }

    /// Tentpole pin: a warm [`IncrementalPlanner`] fed any random
    /// insert/remove sequence produces bitwise-identical plans (objective
    /// and hTask cuts) to a from-scratch `fuse_tasks` recompute after
    /// every single delta — on the padded prober path.
    #[test]
    fn incremental_padded_matches_scratch_under_churn(ops in churn_strategy()) {
        run_churn(&ops, false)?;
    }

    /// The same pin on the corpus-backed custom-build path (chunk-based
    /// alignment), where rows are dense and feasibility is re-proved per
    /// built range.
    #[test]
    fn incremental_custom_matches_scratch_under_churn(ops in churn_strategy()) {
        run_churn(&ops, true)?;
    }
}
