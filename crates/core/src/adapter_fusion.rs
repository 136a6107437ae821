//! Horizontal adapter fusion (§3.4.3).
//!
//! Small PEFT-native operators cannot be batched across tasks (independent
//! weights), but they can be *horizontally fused* into one grouped kernel
//! whose thread blocks are assigned per task in proportion to FLOPs. Three
//! cases govern fusibility:
//!
//! 1. adapters of spatially batched tasks **within one hTask** fuse;
//! 2. adapters of **single-task hTasks in the same bucket** fuse, provided
//!    the fusion does not force a synchronization ahead of another task's
//!    pending collective (Fig 11: LoRA branches fuse, `Add` ops feeding
//!    all-reduces do not);
//! 3. **no fusion across buckets** (they never share a pipeline clock).

/// Where an adapter subgraph sits, for the fusion decision.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AdapterSite {
    /// Bucket the owning hTask belongs to.
    pub bucket: usize,
    /// hTask index within the bucket.
    pub htask: usize,
    /// Whether the owning hTask contains exactly one task.
    pub single_task_htask: bool,
    /// Subgraph priority (topological depth) — fusible branches must sit at
    /// the same depth to fuse without reordering.
    pub priority: usize,
    /// Whether the branch's aggregate feeds a pending collective whose
    /// other inputs are not yet ready (the Fig 11 `Add`-before-AllReduce
    /// case): fusing would inject a global sync ahead of that collective.
    pub feeds_pending_collective: bool,
}

/// Case-2 fusibility of two adapter branches from *different* hTasks.
pub fn fusible_across_htasks(a: AdapterSite, b: AdapterSite) -> bool {
    // Case 3: never across buckets.
    if a.bucket != b.bucket {
        return false;
    }
    // Same hTask is case 1, handled by spatial batching itself.
    if a.htask == b.htask {
        return false;
    }
    // Case 2 preconditions.
    a.single_task_htask
        && b.single_task_htask
        && a.priority == b.priority
        && !a.feeds_pending_collective
        && !b.feeds_pending_collective
}

/// Grouped-kernel latency of horizontally fused adapter branches, given
/// each branch's standalone `(latency, utilization)` (the Eq. 3 estimate):
/// thread blocks are split in proportion to work, so the fused kernel runs
/// in `max(Σ u_i · t_i, max_i t_i)` — the weighted sum when the GPU has
/// spare capacity, floored by the largest member.
pub fn fused_latency(branches: &[(f64, f64)]) -> f64 {
    if branches.is_empty() {
        return 0.0;
    }
    let weighted: f64 = branches.iter().map(|(t, u)| t * u).sum();
    let largest = branches.iter().map(|(t, _)| *t).fold(0.0, f64::max);
    weighted.max(largest)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn site(bucket: usize, htask: usize) -> AdapterSite {
        AdapterSite {
            bucket,
            htask,
            single_task_htask: true,
            priority: 3,
            feeds_pending_collective: false,
        }
    }

    #[test]
    fn same_bucket_single_task_htasks_fuse() {
        assert!(fusible_across_htasks(site(0, 0), site(0, 1)));
    }

    #[test]
    fn cross_bucket_never_fuses() {
        assert!(!fusible_across_htasks(site(0, 0), site(1, 0)));
    }

    #[test]
    fn multi_task_htasks_do_not_fuse_across() {
        let mut a = site(0, 0);
        a.single_task_htask = false;
        assert!(!fusible_across_htasks(a, site(0, 1)));
    }

    #[test]
    fn pending_collective_blocks_fusion() {
        // Fig 11: the Add ops cannot fuse because that would globally
        // synchronize ahead of each task's AllReduce.
        let mut a = site(0, 0);
        a.feeds_pending_collective = true;
        assert!(!fusible_across_htasks(a, site(0, 1)));
        assert!(!fusible_across_htasks(site(0, 1), a));
    }

    #[test]
    fn priority_mismatch_blocks_fusion() {
        let mut a = site(0, 0);
        a.priority = 7;
        assert!(!fusible_across_htasks(a, site(0, 1)));
    }

    #[test]
    fn fused_latency_beats_serial_for_underutilized_branches() {
        // Two identical branches at 10% utilization: fused ~ max(0.2t, t)
        // = t, i.e. 2x better than serial 2t.
        let branches = [(1.0e-3, 0.1), (1.0e-3, 0.1)];
        let fused = fused_latency(&branches);
        assert!(fused <= 1.0e-3 + 1e-12);
        assert!(fused < 2.0e-3 / 1.8);
    }

    #[test]
    fn fused_latency_respects_saturation() {
        // Highly-utilized branches gain nothing: weighted sum dominates.
        let branches = [(1.0e-3, 0.95), (1.0e-3, 0.95)];
        let fused = fused_latency(&branches);
        assert!(fused > 1.8e-3, "saturated branches serialize: {fused}");
    }

    #[test]
    fn empty_fusion_is_free() {
        assert_eq!(fused_latency(&[]), 0.0);
    }
}
