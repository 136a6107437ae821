//! `churn-replay`: warm incremental replanning vs from-scratch recompute
//! under membership churn.
//!
//! Replays [`CHURN_DELTAS`] arrivals/cancellations (deterministic
//! xorshift schedule) against a warm [`IncrementalPlanner`] at
//! [`CHURN_M`] tasks, replanning after every delta, and compares the
//! per-delta cost against what each delta costs from scratch:
//!
//! * a cold-planner DP fusion, as `ReplanMode::Estimate` runs it
//!   (best-of-3 sample, extrapolated to the delta count), and
//! * the full `ReplanMode::Simulate` path (`plan_and_run`: fusion +
//!   grouping + engine simulation), sampled once — set
//!   `MUX_CHURN_SIM_SKIP=1` to omit it on slow hosts.
//!
//! The tentpole claim this bench pins: the warm planner beats from-
//! scratch `Simulate` recomputation by ≥ 5× per delta at M = 4096. The
//! CI perf gate tracks the incremental leg via `report
//! --check-baseline` (scenarios `churn-replay` and `planner-incremental`).

use std::time::Instant;

use mux_bench::harness::{
    banner, churn_replay_seconds, churn_scratch_fusion_seconds, dump_profile,
    planner_scale_registry, row, save_json, x, CHURN_DELTAS, CHURN_M, PLANNER_INCREMENTAL_DELTAS,
    PLANNER_INCREMENTAL_M,
};
use mux_gpu_sim::spec::GpuSpec;
use mux_gpu_sim::timeline::Cluster;

fn main() {
    banner(
        "churn_replay",
        "warm incremental replans vs from-scratch recompute under churn",
    );
    let _profile = dump_profile("churn_replay");

    let inc_total = churn_replay_seconds(CHURN_M, CHURN_DELTAS);
    let inc_per_delta = inc_total / CHURN_DELTAS as f64;
    row(
        &format!("M={CHURN_M} warm replan x{CHURN_DELTAS}"),
        "bounded by row width, not M",
        &format!("{inc_total:.4}s total, {:.3}ms/delta", inc_per_delta * 1e3),
    );

    let scratch = (0..3)
        .map(|_| churn_scratch_fusion_seconds(CHURN_M))
        .fold(f64::INFINITY, f64::min);
    row(
        &format!("M={CHURN_M} from-scratch fusion (Estimate path)"),
        "full DP per delta",
        &format!(
            "{scratch:.4}s/delta ({}, {:.1}s extrapolated over {CHURN_DELTAS})",
            x(scratch / inc_per_delta.max(1e-12)),
            scratch * CHURN_DELTAS as f64
        ),
    );

    let sim = (std::env::var_os("MUX_CHURN_SIM_SKIP").is_none()).then(|| {
        let reg = planner_scale_registry(CHURN_M);
        let cluster =
            Cluster::single_node(GpuSpec::a40(), 4, mux_gpu_sim::spec::LinkSpec::nvlink_a40());
        let cfg = muxtune_core::planner::PlannerConfig::muxtune(
            mux_parallel::plan::HybridParallelism::pipeline(4),
            4,
        );
        let corpora = std::collections::BTreeMap::new();
        let start = Instant::now();
        let report = muxtune_core::planner::plan_and_run(&reg, &cluster, &corpora, &cfg)
            .expect("scale workload simulates");
        std::hint::black_box(report.metrics.effective_throughput);
        start.elapsed().as_secs_f64()
    });
    match sim {
        Some(sim) => {
            let speedup = sim / inc_per_delta.max(1e-12);
            row(
                &format!("M={CHURN_M} from-scratch Simulate"),
                ">=5x slower than warm replan",
                &format!("{sim:.4}s/delta ({} vs warm)", x(speedup)),
            );
            assert!(
                speedup >= 5.0,
                "tentpole claim violated: Simulate {sim:.4}s vs warm {inc_per_delta:.6}s/delta \
                 is only {speedup:.1}x"
            );
        }
        None => row(
            &format!("M={CHURN_M} from-scratch Simulate"),
            ">=5x slower than warm replan",
            "skipped (MUX_CHURN_SIM_SKIP=1)",
        ),
    }

    let big = churn_replay_seconds(PLANNER_INCREMENTAL_M, PLANNER_INCREMENTAL_DELTAS);
    row(
        &format!("M={PLANNER_INCREMENTAL_M} warm replan x{PLANNER_INCREMENTAL_DELTAS}"),
        "trimmed rows keep tables O(M*W)",
        &format!(
            "{big:.4}s total, {:.3}ms/delta",
            big / PLANNER_INCREMENTAL_DELTAS as f64 * 1e3
        ),
    );

    save_json(
        "churn_replay",
        &serde_json::json!({
            "m": CHURN_M,
            "deltas": CHURN_DELTAS,
            "incremental_total_seconds": inc_total,
            "incremental_per_delta_seconds": inc_per_delta,
            "scratch_fusion_per_delta_seconds": scratch,
            "scratch_fusion_speedup": scratch / inc_per_delta.max(1e-12),
            "simulate_per_delta_seconds": sim,
            "simulate_speedup": sim.map(|s| s / inc_per_delta.max(1e-12)),
            "large_m": PLANNER_INCREMENTAL_M,
            "large_deltas": PLANNER_INCREMENTAL_DELTAS,
            "large_total_seconds": big,
        }),
    );
}
