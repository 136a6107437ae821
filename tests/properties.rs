//! Property-based tests (proptest) on the core data structures and
//! scheduling invariants, spanning crates.

use proptest::prelude::*;

use muxtune::core::cost::CostModel;
use muxtune::core::fusion::{fuse_tasks, FusionPolicy};
use muxtune::core::schedule::{is_valid_order, schedule_subgraphs};
use muxtune::core::subgraph::{segment, validate_segmentation};
use muxtune::core::template::{build_template, BucketOrder};
use muxtune::data::align::{align, AlignStrategy, TaskData};
use muxtune::data::chunk::{chunk_packs, chunk_size_rule};
use muxtune::data::packing::{pack_ffd, packing_density};
use muxtune::gpu_sim::spec::{GpuSpec, Work};
use muxtune::model::config::ModelConfig;
use muxtune::parallel::plan::{stage_layers, HybridParallelism};
use muxtune::parallel::pp::{gpipe, one_f_one_b, zb_h2, Phase};
use muxtune::peft::registry::TaskRegistry;
use muxtune::peft::types::{PeftTask, TaskId};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    // ---- packing ----

    #[test]
    fn packing_is_a_partition(lens in prop::collection::vec(1usize..=256, 1..80)) {
        let packs = pack_ffd(&lens, 256).expect("lens bounded by cap");
        let mut out: Vec<usize> = packs.iter().flat_map(|p| p.seq_lens.clone()).collect();
        let mut inp = lens.clone();
        out.sort_unstable();
        inp.sort_unstable();
        prop_assert_eq!(out, inp);
        for p in &packs {
            prop_assert!(p.used <= 256);
        }
    }

    #[test]
    fn packing_density_is_sane(lens in prop::collection::vec(1usize..=128, 1..60)) {
        let packs = pack_ffd(&lens, 128).expect("lens bounded by cap");
        let d = packing_density(&packs);
        prop_assert!(d > 0.0 && d <= 1.0);
        // FFD never uses more bins than one-sequence-per-bin.
        prop_assert!(packs.len() <= lens.len());
    }

    // ---- chunking ----

    #[test]
    fn chunking_conserves_effective_tokens(
        lens in prop::collection::vec(1usize..=256, 1..40),
        chunk in prop::sample::select(vec![16usize, 32, 64, 128]),
    ) {
        let packs = pack_ffd(&lens, 256).expect("lens bounded by cap");
        let chunks = chunk_packs(&packs, chunk);
        let eff: usize = chunks.iter().map(|c| c.effective).sum();
        prop_assert_eq!(eff, lens.iter().sum::<usize>());
        for c in &chunks {
            prop_assert_eq!(c.len(), chunk);
            prop_assert!(c.effective > 0, "no all-padding chunks");
        }
    }

    #[test]
    fn chunk_rule_divides_or_is_threshold(
        caps in prop::collection::vec(prop::sample::select(vec![64usize, 128, 192, 256]), 1..6),
        threshold in prop::sample::select(vec![32usize, 64, 128]),
    ) {
        let c = chunk_size_rule(&caps, threshold);
        prop_assert!(c >= threshold);
        // Either the rule's divisor survived (divides every cap) or the
        // threshold floor won.
        let divides_all = caps.iter().all(|&cap| cap % c == 0);
        prop_assert!(divides_all || c == threshold);
    }

    // ---- alignment ----

    #[test]
    fn alignment_conserves_raw_tokens(
        n1 in 1usize..24, n2 in 1usize..24, seed in 0u64..50,
    ) {
        use muxtune::data::corpus::{Corpus, DatasetKind};
        let t1 = TaskData {
            task: 1,
            seq_lens: Corpus::generate(DatasetKind::Sst2, n1, seed).lengths,
            cap: 64,
        };
        let t2 = TaskData {
            task: 2,
            seq_lens: Corpus::generate(DatasetKind::Rte, n2, seed + 1).lengths,
            cap: 256,
        };
        let raw: u64 = t1.seq_lens.iter().chain(&t2.seq_lens).map(|&l| l as u64).sum();
        for strategy in [
            AlignStrategy::ZeroPadGlobalMax,
            AlignStrategy::PackOnly,
            AlignStrategy::ChunkBased { min_chunk: 64 },
        ] {
            let a = align(&[t1.clone(), t2.clone()], strategy).expect("non-empty corpora align");
            prop_assert_eq!(a.effective_tokens(), raw);
            prop_assert!(a.effective_fraction() <= 1.0);
            // Processed tokens = rows * unit >= effective content.
            prop_assert!(a.total_tokens() >= a.effective_tokens());
        }
    }

    // ---- pipeline schedules ----

    #[test]
    fn schedules_cover_each_cell_once(
        stages in 2usize..6, mbs in 1usize..12,
    ) {
        for prog in [gpipe(stages, mbs), one_f_one_b(stages, mbs), zb_h2(stages, mbs)] {
            prop_assert_eq!(prog.len(), stages);
            for (s, rank) in prog.iter().enumerate() {
                let fwd: Vec<usize> =
                    rank.iter().filter(|i| i.phase == Phase::Forward).map(|i| i.mb).collect();
                let bwd: Vec<usize> =
                    rank.iter().filter(|i| i.phase == Phase::Backward).map(|i| i.mb).collect();
                prop_assert_eq!(fwd.len(), mbs, "stage {} fwd", s);
                prop_assert_eq!(bwd.len(), mbs, "stage {} bwd", s);
                // Within a rank, B(m) comes after F(m).
                for m in 0..mbs {
                    let fp = rank.iter().position(|i| i.phase == Phase::Forward && i.mb == m);
                    let bp = rank.iter().position(|i| i.phase == Phase::Backward && i.mb == m);
                    prop_assert!(fp < bp);
                }
            }
        }
    }

    #[test]
    fn stage_split_partitions_layers(layers in 1usize..64, pp in 1usize..8) {
        prop_assume!(pp <= layers);
        let ranges = stage_layers(layers, pp);
        prop_assert_eq!(ranges.len(), pp);
        prop_assert_eq!(ranges[0].0, 0);
        prop_assert_eq!(ranges.last().unwrap().1, layers);
        for w in ranges.windows(2) {
            prop_assert_eq!(w[0].1, w[1].0, "contiguous stages");
        }
        // Balanced within one layer.
        let sizes: Vec<usize> = ranges.iter().map(|(a, b)| b - a).collect();
        prop_assert!(sizes.iter().max().unwrap() - sizes.iter().min().unwrap() <= 1);
    }

    // ---- template ----

    #[test]
    fn template_is_a_valid_multi_bucket_1f1b(
        rounds in prop::collection::vec(1usize..6, 1..5),
        stages in 2usize..5,
        in_flight in 2usize..10,
        order in prop::sample::select(vec![
            BucketOrder::Descending, BucketOrder::Ascending, BucketOrder::MiddlePeak,
        ]),
    ) {
        let t = build_template(stages, &rounds, in_flight, order);
        let total: usize = rounds.iter().sum();
        prop_assert_eq!(t.mb_bucket.len(), total);
        // Each stage program runs each mb exactly once per phase and never
        // backwards-before-forwards.
        for rank in &t.program {
            let fwd = rank.iter().filter(|i| i.phase == Phase::Forward).count();
            prop_assert_eq!(fwd, total);
            for m in 0..total {
                let fp = rank.iter().position(|i| i.phase == Phase::Forward && i.mb == m);
                let bp = rank.iter().position(|i| i.phase == Phase::Backward && i.mb == m);
                prop_assert!(fp < bp);
            }
        }
        // Stream covers every bucket exactly once, consecutively.
        let mut seen = Vec::new();
        for &b in &t.mb_bucket {
            if seen.last() != Some(&b) {
                prop_assert!(!seen.contains(&b));
                seen.push(b);
            }
        }
        prop_assert_eq!(seen.len(), rounds.len());
    }

    // ---- subgraphs & Algorithm 1 ----

    #[test]
    fn segmentation_and_schedule_are_valid(
        n_tasks in 1usize..4, tp in prop::sample::select(vec![1usize, 2, 4]), layers in 1usize..3,
    ) {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(2));
        let ids: Vec<TaskId> = (1..=n_tasks as TaskId).collect();
        for &i in &ids {
            reg.register_task(PeftTask::lora(i, 8, 2, 64)).unwrap();
        }
        let dags: Vec<_> = ids
            .iter()
            .map(|&i| {
                let g = reg.build_multitask_stage_graph(0, layers, tp, &[i]);
                let sgs = segment(&g);
                prop_assert!(validate_segmentation(&g, &sgs));
                Ok(sgs)
            })
            .collect::<Result<_, TestCaseError>>()?;
        let order = schedule_subgraphs(&dags, &|_, sg| sg.nodes.len() as f64);
        prop_assert!(is_valid_order(&dags, &order));
        prop_assert_eq!(order.len(), dags.iter().map(|d| d.len()).sum::<usize>());
    }

    // ---- fusion ----

    #[test]
    fn fusion_partitions_tasks(
        shapes in prop::collection::vec((1usize..8, prop::sample::select(vec![64usize, 128, 256])), 1..8),
        policy in prop::sample::select(vec![
            FusionPolicy::Dp, FusionPolicy::Greedy, FusionPolicy::AllSpatial, FusionPolicy::AllTemporal,
        ]),
    ) {
        let mut reg = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(8));
        for (i, &(mb, seq)) in shapes.iter().enumerate() {
            reg.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq)).unwrap();
        }
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&reg, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = reg.tasks().collect();
        let plan = fuse_tasks(
            &cm,
            &tasks,
            policy,
            &muxtune::core::fusion::RangeBuild::Padded { micro_batches: 2 },
        )
        .expect("small padded workloads are feasible");
        let mut all: Vec<TaskId> = plan.htasks.iter().flat_map(|h| h.tasks.clone()).collect();
        all.sort_unstable();
        prop_assert_eq!(all, (1..=shapes.len() as TaskId).collect::<Vec<_>>());
        for h in &plan.htasks {
            prop_assert!(h.total_tokens() > 0);
            prop_assert!(h.effective_fraction > 0.0 && h.effective_fraction <= 1.0);
        }
    }

    // ---- latency model ----

    #[test]
    fn compute_time_is_monotone_in_work(
        f1 in 1e6f64..1e12, scale in 1.01f64..8.0,
    ) {
        let gpu = GpuSpec::a40();
        let t1 = gpu.compute_time(Work::tensor(f1, f1 / 100.0), 1.0);
        let t2 = gpu.compute_time(Work::tensor(f1 * scale, f1 * scale / 100.0), 1.0);
        prop_assert!(t2 > t1, "more work must take longer");
        // Superlinear speedup is impossible; sublinear scaling is the point.
        prop_assert!(t2 < t1 * scale * 1.001, "batching can only help");
    }

    #[test]
    fn utilization_is_monotone_and_bounded(f in 1e3f64..1e14) {
        let gpu = GpuSpec::h100();
        let u = gpu.op_utilization(Work::tensor(f, f / 50.0));
        prop_assert!(u > 0.0 && u < 1.0);
        let u2 = gpu.op_utilization(Work::tensor(f * 2.0, f / 25.0));
        prop_assert!(u2 > u);
    }
}
