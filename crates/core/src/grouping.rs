//! Workload-balanced hTask grouping (§3.4, Eq. 7).
//!
//! hTasks are grouped into `P` buckets; buckets interleave across pipeline
//! clocks while hTasks inside a bucket interleave within a clock. For each
//! candidate `P`, the grouping minimizes inter-bucket variance of
//! first-stage latency (Eq. 7, solved greedily with longest-processing-time
//! assignment); the driver then picks the `P` whose estimated multi-task
//! pipeline latency (Appendix A, Lemmas 1–2) is lowest.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use mux_model::ops::Pass;

use crate::cost::CostModel;
use crate::htask::HTask;

/// A grouping of hTasks into buckets.
#[derive(Debug, Clone)]
pub struct Grouping {
    /// Buckets of hTask indices, sorted descending by bucket latency
    /// (template rule 1).
    pub buckets: Vec<Vec<usize>>,
    /// Estimated end-to-end latency of the grouped pipeline.
    pub estimated: f64,
}

/// First-stage latency `L^(1)` of each hTask (the Eq. 7 balance metric).
pub fn first_stage_latencies(cm: &CostModel<'_>, htasks: &[HTask]) -> Vec<f64> {
    htasks
        .iter()
        .map(|h| cm.stage_latency(0, h, Pass::Forward))
        .collect()
}

/// A min-heap key over a bucket's `(load, index)`: load ascending via
/// [`f64::total_cmp`] (no panics on non-finite loads), index ascending to
/// match the seed's first-minimum tie-break.
#[derive(Debug, Clone, Copy, PartialEq)]
struct BucketLoad {
    load: f64,
    index: usize,
}

impl Eq for BucketLoad {}

impl PartialOrd for BucketLoad {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for BucketLoad {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.load
            .total_cmp(&other.load)
            .then_with(|| self.index.cmp(&other.index))
    }
}

/// Greedy LPT partition of `lat` into `p` buckets minimizing variance:
/// assign items largest-first to the currently lightest bucket. The
/// lightest bucket comes off a min-heap — O(N log P) per call instead of
/// the seed's O(N·P) linear re-scan, which made the `P`-traversal in
/// [`group_htasks`] cubic in the hTask count.
fn lpt_partition(lat: &[f64], p: usize) -> Vec<Vec<usize>> {
    let mut order: Vec<usize> = (0..lat.len()).collect();
    order.sort_by(|&a, &b| lat[b].total_cmp(&lat[a]));
    let mut buckets = vec![Vec::new(); p];
    let mut loads: BinaryHeap<Reverse<BucketLoad>> = (0..p)
        .map(|index| Reverse(BucketLoad { load: 0.0, index }))
        .collect();
    for i in order {
        let Reverse(BucketLoad { load, index }) = loads.pop().expect("p >= 1");
        buckets[index].push(i);
        loads.push(Reverse(BucketLoad {
            load: load + lat[i],
            index,
        }));
    }
    buckets.retain(|b| !b.is_empty());
    buckets
}

/// Inter-bucket variance of summed first-stage latency (the Eq. 7
/// objective).
pub fn bucket_variance(lat: &[f64], buckets: &[Vec<usize>]) -> f64 {
    let loads: Vec<f64> = buckets
        .iter()
        .map(|b| b.iter().map(|&i| lat[i]).sum())
        .collect();
    let mean = loads.iter().sum::<f64>() / loads.len() as f64;
    loads.iter().map(|l| (l - mean) * (l - mean)).sum::<f64>() / loads.len() as f64
}

/// Appendix-A latency estimate of a grouped multi-task 1F1B pipeline:
/// warm-up/drain of the first and last sorted buckets plus every bucket's
/// steady phase (`2 · C_j · t_j`, Lemma 2), where a bucket's stage latency
/// is the sum of its members' (they interleave within a clock).
/// `stage_lat[i][stage]` is the memoized per-hTask forward stage latency —
/// each `(hTask, stage)` pair is costed once per grouping run, not once per
/// candidate `P`.
fn estimate_grouped_latency(
    stage_lat: &[Vec<f64>],
    htasks: &[HTask],
    buckets: &[Vec<usize>],
) -> f64 {
    let s = stage_lat.first().map_or(0, Vec::len);
    let bucket_bottleneck: Vec<f64> = buckets
        .iter()
        .map(|b| {
            (0..s)
                .map(|stage| b.iter().map(|&i| stage_lat[i][stage]).sum::<f64>())
                .fold(0.0, f64::max)
        })
        .collect();
    let bucket_rounds: Vec<usize> = buckets
        .iter()
        .map(|b| {
            b.iter()
                .map(|&i| htasks[i].micro_batches)
                .max()
                .unwrap_or(0)
        })
        .collect();
    let mut order: Vec<usize> = (0..buckets.len()).collect();
    order.sort_by(|&a, &b| bucket_bottleneck[b].total_cmp(&bucket_bottleneck[a]));
    let t_first = bucket_bottleneck[order[0]];
    let t_last = bucket_bottleneck[*order.last().expect("non-empty")];
    let warm_drain = (s as f64 - 1.0) * (t_first + t_last);
    let steady: f64 = (0..buckets.len())
        .map(|j| 2.0 * bucket_rounds[j] as f64 * bucket_bottleneck[j])
        .sum();
    warm_drain + steady
}

/// Finds the best grouping: traverses `P ∈ [1, N]`, balances each with LPT,
/// and keeps the `P` with the lowest estimated pipeline latency. Buckets in
/// the result are sorted descending by latency (template rule 1).
pub fn group_htasks(cm: &CostModel<'_>, htasks: &[HTask]) -> Grouping {
    assert!(!htasks.is_empty(), "no hTasks to group");
    let _span = mux_obs::span("grouping.search");
    if mux_obs::profile::profiling() {
        let n = htasks.len() as u64;
        // Each candidate P does P initial heap pushes plus a pop+push per
        // item in lpt_partition; summed over the P-traversal this is
        // closed-form, so the hot loop below stays counter-free.
        mux_obs::profile::work("heap_ops", n * (n + 1) / 2 + 2 * n * n);
        mux_obs::profile::work("groupings_tried", n);
    }
    let stage_lat: Vec<Vec<f64>> = htasks
        .iter()
        .map(|h| cm.stage_latencies(h, Pass::Forward))
        .collect();
    let lat: Vec<f64> = stage_lat.iter().map(|row| row[0]).collect();
    let mut best: Option<Grouping> = None;
    for p in 1..=htasks.len() {
        let mut buckets = lpt_partition(&lat, p);
        // Sort buckets descending by first-stage load (rule 1).
        buckets.sort_by(|a, b| {
            let la: f64 = a.iter().map(|&i| lat[i]).sum();
            let lb: f64 = b.iter().map(|&i| lat[i]).sum();
            lb.total_cmp(&la)
        });
        let estimated = estimate_grouped_latency(&stage_lat, htasks, &buckets);
        if best
            .as_ref()
            .map(|g| estimated < g.estimated)
            .unwrap_or(true)
        {
            best = Some(Grouping { buckets, estimated });
        }
    }
    best.expect("at least one grouping")
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::GpuSpec;
    use mux_model::config::ModelConfig;
    use mux_parallel::plan::HybridParallelism;
    use mux_peft::registry::TaskRegistry;
    use mux_peft::types::{PeftTask, TaskId};

    fn setup(shapes: &[(usize, usize)]) -> TaskRegistry {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
        for (i, &(mb, seq)) in shapes.iter().enumerate() {
            r.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq))
                .expect("register");
        }
        r
    }

    fn single_htasks(r: &TaskRegistry, mbs: usize) -> Vec<HTask> {
        r.tasks().map(|t| HTask::from_padded(&[t], mbs)).collect()
    }

    #[test]
    fn lpt_balances_equal_items_evenly() {
        let lat = vec![1.0, 1.0, 1.0, 1.0];
        let b = lpt_partition(&lat, 2);
        assert_eq!(b.len(), 2);
        assert_eq!(b[0].len(), 2);
        assert!(bucket_variance(&lat, &b) < 1e-12);
    }

    #[test]
    fn lpt_reduces_variance_vs_naive_split() {
        let lat = vec![8.0, 7.0, 1.0, 1.0, 1.0, 6.0];
        let lpt = lpt_partition(&lat, 2);
        let naive = vec![vec![0, 1, 2], vec![3, 4, 5]];
        assert!(bucket_variance(&lat, &lpt) <= bucket_variance(&lat, &naive));
    }

    #[test]
    fn grouping_covers_all_htasks() {
        let r = setup(&[(2, 64), (4, 64), (8, 128), (2, 256)]);
        let hts = single_htasks(&r, 4);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let g = group_htasks(&cm, &hts);
        let mut all: Vec<usize> = g.buckets.iter().flatten().copied().collect();
        all.sort_unstable();
        assert_eq!(all, vec![0, 1, 2, 3]);
    }

    #[test]
    fn buckets_sorted_descending_by_load() {
        let r = setup(&[(1, 64), (16, 256), (2, 64), (8, 256)]);
        let hts = single_htasks(&r, 4);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let g = group_htasks(&cm, &hts);
        let lat = first_stage_latencies(&cm, &hts);
        let loads: Vec<f64> = g
            .buckets
            .iter()
            .map(|b| b.iter().map(|&i| lat[i]).sum())
            .collect();
        for w in loads.windows(2) {
            assert!(
                w[0] >= w[1] - 1e-12,
                "buckets must be sorted descending: {loads:?}"
            );
        }
    }

    #[test]
    fn single_htask_groups_trivially() {
        let r = setup(&[(4, 128)]);
        let hts = single_htasks(&r, 4);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let g = group_htasks(&cm, &hts);
        assert_eq!(g.buckets, vec![vec![0]]);
        assert!(g.estimated > 0.0);
    }
}
