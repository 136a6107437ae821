//! `planner-scale`: planner hot-path wall time vs task count M.
//!
//! Sweeps M ∈ {16, 64, 256, 1024} through the cold-planner DP fusion
//! (padded prober path) plus Eq. 7 grouping, and compares against the
//! retained seed O(M³) DP. The seed leg runs at M ≤ 256 by default —
//! set `MUX_PLANNER_SCALE_FULL=1` to also time it at M = 1024 (minutes).
//! The M = 1024 cached-DP wall time is the number the CI perf gate pins
//! via `report --check-baseline` (scenario `planner-scale`).

use mux_bench::harness::{
    banner, dump_profile, planner_scale_seconds, planner_scale_seed_seconds, row, save_json, x,
    PLANNER_SCALE_M,
};

fn main() {
    banner(
        "planner_scale",
        "planner wall time vs task count (DP fusion + grouping)",
    );
    let _profile = dump_profile("planner_scale");
    let full_seed = std::env::var_os("MUX_PLANNER_SCALE_FULL").is_some();
    let mut records = Vec::new();
    for &m in &[16usize, 64, 256, PLANNER_SCALE_M] {
        let dp = planner_scale_seconds(m);
        let seed = (m <= 256 || full_seed).then(|| planner_scale_seed_seconds(m));
        let measured = match seed {
            Some(s) => format!("{:.4}s (seed {:.4}s, {})", dp, s, x(s / dp.max(1e-12))),
            None => format!("{dp:.4}s (seed skipped; MUX_PLANNER_SCALE_FULL=1 to run)"),
        };
        row(
            &format!("M={m} planning wall time"),
            "~seconds budget",
            &measured,
        );
        records.push(serde_json::json!({
            "tasks": m,
            "dp_seconds": dp,
            "seed_seconds": seed,
            "speedup": seed.map(|s| s / dp.max(1e-12)),
        }));
    }
    save_json(
        "planner_scale",
        &serde_json::json!({
            "series": records,
            "note": "dp = cold-planner O(M^2) fusion + grouping; seed = retained O(M^3) reference",
        }),
    );
}
