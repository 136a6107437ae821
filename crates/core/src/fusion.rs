//! Task fusion via dynamic programming (§3.3, Eq. 6).
//!
//! Bin-packs `M` tasks (sorted ascending by token count) into `N`
//! contiguous hTasks, minimizing predicted end-to-end pipeline latency
//! under the Eq. 3–5 cost model, with a memory-feasibility filter.
//!
//! ## Complexity
//!
//! The textbook Eq. 6 table `F(m, n)` has O(M²) states and O(M)
//! transitions each — O(M³) probes. Because the objective only ever charges
//! the *first* hTask at full latency and every later one at `L/S`, the
//! minimum over all `N` collapses into one unbounded recurrence
//!
//! ```text
//! G(m) = min( L(0..m) [if it fits],  min_{0<j<m} G(j) + L(j..m)/S )
//! ```
//!
//! with `G(M) = min_N F(M, N)` — every partition contributes the exact same
//! floating-point sum in both formulations (left-to-right association), so
//! the minimum is bit-for-bit identical. [`fuse_dp_seed`] keeps the
//! `F(m, n)` table as the test oracle.
//!
//! [`IncrementalPlanner`] is the one implementation of `G`: O(M²)
//! transitions over per-row `(latency, fits)` range values, with hTasks
//! materialized only at reconstruction. [`fuse_tasks`] plans once on a
//! cold planner (one with no values yet); a warm planner keeps its values
//! across membership changes and rebuilds only the ranges a delta
//! invalidated. Each contiguous range is priced at most once per
//! membership, and with a [`PaddedRangeProber`] feasibility is decided in
//! O(1) *before* paying the per-member latency cost, so infeasible ranges
//! are never built at all.

use mux_model::ops::Pass;
use mux_peft::types::{PeftTask, TaskId};

use crate::cost::{CostModel, PaddedRangeProber};
use crate::error::PlanError;
use crate::htask::HTask;

/// The fusion decision.
#[derive(Debug, Clone)]
pub struct FusionPlan {
    /// The fused hTasks, each holding a contiguous run of the sorted tasks.
    pub htasks: Vec<HTask>,
    /// DP objective value of the chosen plan (Eq. 6's `F*`).
    pub predicted: f64,
}

/// Fusion policies (`Dp` is MuxTune; the rest are ablation baselines).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FusionPolicy {
    /// Eq. 6 dynamic programming (the paper's algorithm).
    Dp,
    /// One hTask containing all tasks (pure spatial multiplexing).
    AllSpatial,
    /// One hTask per task (pure temporal multiplexing).
    AllTemporal,
    /// Greedy: grow the current hTask while the marginal steady-state
    /// latency per token improves; start a new one otherwise.
    Greedy,
}

/// How to build the hTask for a contiguous task run.
///
/// Builders must be `Sync`: the [`IncrementalPlanner`] evaluates
/// freshly-needed range builds in parallel across rows.
pub enum RangeBuild<'b> {
    /// Arbitrary builder (e.g. corpus-backed data alignment).
    Custom(&'b (dyn Fn(&[&PeftTask]) -> Result<HTask, PlanError> + Sync)),
    /// The canonical padded build — `HTask::from_padded(range, micro_batches)`.
    /// Declaring it lets the DP prove memory feasibility in O(1) per range
    /// via [`CostModel::padded_prober`] instead of building every candidate.
    Padded {
        /// Unified micro-batch count `C` for every built hTask.
        micro_batches: usize,
    },
}

impl RangeBuild<'_> {
    fn build(&self, range: &[&PeftTask]) -> Result<HTask, PlanError> {
        match self {
            RangeBuild::Custom(f) => f(range),
            RangeBuild::Padded { micro_batches } => Ok(HTask::from_padded(range, *micro_batches)),
        }
    }
}

/// The Eq. 6 task order: ascending token count (`n_i`), ties by id.
fn sort_key(task: &PeftTask) -> (usize, TaskId) {
    (task.tokens_per_micro_batch(), task.id)
}

/// Sorts tasks ascending by token count (`n_i`), the Eq. 6 precondition.
pub fn sort_by_tokens<'t>(tasks: &[&'t PeftTask]) -> Vec<&'t PeftTask> {
    let mut v = tasks.to_vec();
    v.sort_by_key(|t| sort_key(t));
    v
}

/// Runs task fusion under `policy`.
///
/// `build` constructs the hTask for a contiguous task run (injecting the
/// data-alignment strategy).
///
/// # Errors
/// [`PlanError::NoTasks`] on an empty task set, [`PlanError::Infeasible`]
/// when no memory-feasible fusion exists (even fully temporal),
/// [`PlanError::DegenerateCost`] when the cost model yields non-finite
/// latencies for every feasible fusion, plus anything `build` returns.
pub fn fuse_tasks(
    cm: &CostModel<'_>,
    tasks: &[&PeftTask],
    policy: FusionPolicy,
    build: &RangeBuild<'_>,
) -> Result<FusionPlan, PlanError> {
    if tasks.is_empty() {
        return Err(PlanError::NoTasks);
    }
    let sorted = sort_by_tokens(tasks);
    match policy {
        FusionPolicy::AllSpatial => {
            let h = build.build(&sorted)?;
            let predicted = cm.pipeline_latency(&h);
            Ok(FusionPlan {
                htasks: vec![h],
                predicted,
            })
        }
        FusionPolicy::AllTemporal => {
            let htasks: Vec<HTask> = sorted
                .iter()
                .map(|t| build.build(&[*t]))
                .collect::<Result<_, _>>()?;
            let predicted = htasks.iter().map(|h| cm.pipeline_latency(h)).sum();
            Ok(FusionPlan { htasks, predicted })
        }
        FusionPolicy::Greedy => fuse_greedy(cm, &sorted, build),
        FusionPolicy::Dp => IncrementalPlanner::cold(&sorted).plan(cm, build),
    }
}

fn fuse_greedy(
    cm: &CostModel<'_>,
    sorted: &[&PeftTask],
    build: &RangeBuild<'_>,
) -> Result<FusionPlan, PlanError> {
    let mut htasks = Vec::new();
    let mut start = 0;
    while start < sorted.len() {
        let mut end = start + 1;
        let mut best = build.build(&sorted[start..end])?;
        let mut best_per_token =
            cm.stage_latency(0, &best, Pass::Forward) / best.total_tokens() as f64;
        while end < sorted.len() {
            let cand = build.build(&sorted[start..end + 1])?;
            if !cm.fits_memory(std::slice::from_ref(&cand), cm.num_stages()) {
                break;
            }
            let per_token = cm.stage_latency(0, &cand, Pass::Forward) / cand.total_tokens() as f64;
            if per_token < best_per_token {
                best = cand;
                best_per_token = per_token;
                end += 1;
            } else {
                break;
            }
        }
        htasks.push(best);
        start = end;
    }
    let predicted = htasks.iter().map(|h| cm.pipeline_latency(h)).sum();
    Ok(FusionPlan { htasks, predicted })
}

/// Lifetime counters of an [`IncrementalPlanner`]. Monotone — callers diff
/// snapshots around an operation to count the work it did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct IncrementalStats {
    /// Range candidates evaluated (one per `(a, b)` latency/feasibility
    /// evaluation — the unit of work the incremental planner avoids).
    pub ranges_built: u64,
    /// Stored range entries carried over a recompute instead of rebuilt.
    pub ranges_reused: u64,
    /// Membership deltas (inserts + removes) applied.
    pub deltas_applied: u64,
    /// `plan()` calls answered entirely from the cached plan: zero range
    /// builds, zero DP work (the no-op replan path).
    pub noop_plans: u64,
    /// `plan()` calls that recomputed at least the DP suffix.
    pub replans: u64,
}

/// One row of the persisted range tables: entry `w - 1` holds the
/// `(latency, fits)` value of range `[a, a + w)` for the row's start `a`.
///
/// Padded rows exploit that Eq. 5 memory grows monotonically in `b` (the
/// token total and adapter state of `[a, b)` are non-decreasing), so they
/// store exactly the feasible prefix of widths and stop at the first
/// infeasible one. Custom rows (corpus-backed builds carry no such proof)
/// are dense up to the current membership size.
#[derive(Debug, Clone, Default)]
struct RangeRow {
    lat: Vec<f64>,
    fits: Vec<bool>,
    /// Stored feasible entries whose latency came out non-finite.
    degenerate: usize,
}

impl RangeRow {
    /// Drops entries of width > `width`; returns how many were dropped
    /// (the `ranges_truncated` unit of the work profile).
    fn truncate(&mut self, width: usize) -> usize {
        let dropped = self.lat.len().saturating_sub(width);
        if dropped > 0 {
            for w in width..self.lat.len() {
                if self.fits[w] && !self.lat[w].is_finite() {
                    self.degenerate -= 1;
                }
            }
            self.lat.truncate(width);
            self.fits.truncate(width);
        }
        dropped
    }
}

/// Rows below this many pending extensions run serially. A thread scope
/// costs more than the rows of a small plan: on a 2-vCPU host an 8-task
/// corpus-backed `plan_estimate` took ~185 µs serial and ~250–290 µs
/// fanned out, while a planner-scale fill (thousands of rows) still gains
/// from the threads.
pub(crate) const PAR_ROWS_MIN: usize = 64;

/// The Eq. 6 fusion DP: the sorted task list, per-row range values
/// (`RangeRow`) and the `G` arrays, kept alive across membership changes.
///
/// [`fuse_tasks`] plans once on a cold planner (no rows filled, the whole
/// DP stale). A warm planner — grown with [`insert`](Self::insert),
/// [`remove`](Self::remove) or [`sync`](Self::sync) — replans only what
/// its deltas invalidated:
///
/// * Tasks stay in [`sort_by_tokens`] order, so an insert or remove lands
///   at one sorted position `k` and invalidates **only the ranges
///   crossing `k`** and the DP suffix `g[k+1..]`. Every other stored value
///   is reused verbatim, which is what makes a warm plan bit-for-bit
///   identical to a cold one on the same membership: reused entries are
///   the same floats, and the recomputed suffix runs the same recurrence
///   in the same order.
/// * Once `PAR_ROWS_MIN` rows need range builds, they are evaluated in
///   parallel across rows via the rayon shim (deterministically: results
///   are applied in ascending row order, and each row's candidates are
///   evaluated in ascending `b`, so the first error is the one a serial
///   fill meets).
/// * A `plan()` with no pending deltas returns the cached [`FusionPlan`]
///   without building a single range (the no-op replan path — e.g. a
///   fault clear with unchanged membership).
///
/// The rows themselves are trimmed: padded rows store only the feasible
/// prefix of widths (memory is monotone in range width), so a warm planner
/// at M=16384 holds O(M·W) entries, not the O(M²) a dense table would need.
#[derive(Default)]
pub struct IncrementalPlanner {
    /// Owned tasks, in [`sort_by_tokens`] order.
    tasks: Vec<PeftTask>,
    /// Per-slot content fingerprint (task shape + corpus), caller-defined:
    /// a changed fingerprint re-inserts the task, invalidating its ranges.
    fps: Vec<u64>,
    rows: Vec<RangeRow>,
    /// `g[mm]` = best objective over partitions of the first `mm` tasks.
    g: Vec<f64>,
    /// `choice[mm]` = start of the last hTask (0 ⇒ single hTask `[0, mm)`).
    choice: Vec<usize>,
    /// First prefix length whose `g`/`choice` entry is stale (`None` ⇒ the
    /// DP arrays are valid for the current membership).
    dp_from: Option<usize>,
    /// Upper bound on any row's stored width (stale-high after removals,
    /// which only widens the truncate/DP scan windows — never wrong).
    widest: usize,
    cached: Option<FusionPlan>,
    stats: IncrementalStats,
}

impl IncrementalPlanner {
    /// An empty planner; populate with [`sync`](Self::sync) or
    /// [`insert`](Self::insert).
    pub fn new() -> Self {
        Self::default()
    }

    /// A planner over `sorted` (already in [`sort_by_tokens`] order) with
    /// no values yet: one empty row per task and the DP stale from prefix
    /// 1, so the next [`plan`](Self::plan) fills everything. Unlike
    /// [`insert`](Self::insert) it applies no deltas, so a cold plan
    /// records no invalidation work.
    fn cold(sorted: &[&PeftTask]) -> Self {
        Self {
            tasks: sorted.iter().map(|&t| t.clone()).collect(),
            fps: vec![0; sorted.len()],
            rows: vec![RangeRow::default(); sorted.len()],
            dp_from: Some(1),
            ..Self::default()
        }
    }

    /// Current membership size.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the planner holds no tasks.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Lifetime work counters.
    pub fn stats(&self) -> IncrementalStats {
        self.stats
    }

    /// Records a no-op replan served entirely from a cache *above* the
    /// planner (e.g. [`IncrementalEstimator`]'s throughput cache, which
    /// short-circuits before reaching [`plan`](Self::plan)), so the
    /// stats still account every replan the caller saw.
    ///
    /// [`IncrementalEstimator`]: crate::planner::IncrementalEstimator
    pub fn note_noop(&mut self) {
        self.stats.noop_plans += 1;
    }

    /// Inserts `task` at its sorted position, invalidating only the ranges
    /// that cross it. `fingerprint` is an opaque content hash (e.g. over
    /// the task's corpus); [`sync`](Self::sync) re-inserts a task whose
    /// fingerprint changed.
    pub fn insert(&mut self, task: PeftTask, fingerprint: u64) {
        debug_assert!(
            self.tasks.iter().all(|t| t.id != task.id),
            "duplicate task id {}",
            task.id
        );
        let key = sort_key(&task);
        let k = self.tasks.partition_point(|t| sort_key(t) < key);
        self.tasks.insert(k, task);
        self.fps.insert(k, fingerprint);
        self.rows.insert(k, RangeRow::default());
        self.invalidate_at(k);
    }

    /// Removes the task with `id`; returns whether it was present.
    pub fn remove(&mut self, id: TaskId) -> bool {
        let Some(k) = self.tasks.iter().position(|t| t.id == id) else {
            return false;
        };
        self.tasks.remove(k);
        self.fps.remove(k);
        self.rows.remove(k);
        self.invalidate_at(k);
        true
    }

    /// After an insert/remove at sorted position `k`: rows starting at or
    /// after `k` shifted in place and stay valid; rows starting before `k`
    /// keep exactly their entries with `b <= k` (ranges not crossing the
    /// delta); the DP is stale from prefix `k + 1` on.
    fn invalidate_at(&mut self, k: usize) {
        let _span = mux_obs::span("fusion.invalidate");
        let mut truncated = 0u64;
        for a in k.saturating_sub(self.widest)..k {
            truncated += self.rows[a].truncate(k - a) as u64;
        }
        if truncated > 0 {
            mux_obs::profile::work("ranges_truncated", truncated);
        }
        // Rows at or after the delta position moved in place.
        let shifted = (self.rows.len() - k) as u64;
        if shifted > 0 {
            mux_obs::profile::work("rows_shifted", shifted);
        }
        self.dp_from = Some(self.dp_from.map_or(k + 1, |d| d.min(k + 1)));
        self.cached = None;
        self.stats.deltas_applied += 1;
    }

    /// Diffs the desired membership against the current one and applies
    /// the minimal insert/remove deltas (a changed fingerprint counts as
    /// remove + insert). Returns the number of deltas applied — 0 means
    /// the upcoming [`plan`](Self::plan) is a no-op served from cache.
    pub fn sync(&mut self, items: &[(PeftTask, u64)]) -> usize {
        let want: std::collections::BTreeMap<TaskId, u64> =
            items.iter().map(|(t, fp)| (t.id, *fp)).collect();
        debug_assert_eq!(want.len(), items.len(), "duplicate task ids in sync");
        let stale: Vec<TaskId> = self
            .tasks
            .iter()
            .zip(&self.fps)
            .filter(|(t, fp)| want.get(&t.id) != Some(fp))
            .map(|(t, _)| t.id)
            .collect();
        let mut deltas = stale.len();
        for id in stale {
            self.remove(id);
        }
        let have: std::collections::BTreeSet<TaskId> = self.tasks.iter().map(|t| t.id).collect();
        for (task, fp) in items {
            if !have.contains(&task.id) {
                self.insert(task.clone(), *fp);
                deltas += 1;
            }
        }
        deltas
    }

    /// Runs the Eq. 6 DP over the persisted rows, building only what is
    /// missing (everything on a cold planner, what pending deltas
    /// invalidated on a warm one). A warm plan is bit-for-bit equal to a
    /// cold one — `fuse_tasks(cm, tasks, FusionPolicy::Dp, build)` — on
    /// the same membership.
    ///
    /// With no pending deltas the cached plan is returned without any
    /// range builds. `cm` and `build` must describe the same planning
    /// context across calls — a context change (parallelism plan, GPU,
    /// alignment, micro-batch count) requires a fresh planner.
    ///
    /// # Errors
    /// Exactly [`fuse_tasks`]'s: [`PlanError::NoTasks`] when empty,
    /// [`PlanError::Infeasible`] / [`PlanError::DegenerateCost`] when no
    /// finite-cost partition exists, plus anything `build` returns.
    pub fn plan(
        &mut self,
        cm: &CostModel<'_>,
        build: &RangeBuild<'_>,
    ) -> Result<FusionPlan, PlanError> {
        let m = self.tasks.len();
        if m == 0 {
            return Err(PlanError::NoTasks);
        }
        let _plan_span = mux_obs::span("fusion.plan");
        if self.dp_from.is_none() {
            if let Some(plan) = &self.cached {
                self.stats.noop_plans += 1;
                return Ok(plan.clone());
            }
        }
        self.stats.replans += 1;
        self.stats.ranges_reused += self.rows.iter().map(|r| r.lat.len() as u64).sum::<u64>();
        let refs: Vec<&PeftTask> = self.tasks.iter().collect();
        let prober: Option<PaddedRangeProber<'_>> = match build {
            RangeBuild::Padded { .. } => Some(cm.padded_prober(&refs)),
            RangeBuild::Custom(_) => None,
        };

        // Rows needing extension: padded rows whose next width still fits
        // (O(1) probe — rows that stopped at infeasibility or at the end
        // are skipped for free), custom rows not yet dense.
        let todo: Vec<usize> = (0..m)
            .filter(|&a| {
                let next = a + 1 + self.rows[a].lat.len();
                next <= m && prober.as_ref().is_none_or(|p| p.fits(a, next))
            })
            .collect();
        let stages = cm.num_stages();
        let rows = &self.rows;
        // Worker threads graft their range-build spans under this call's
        // path; on the serial fallback `adopt` is a no-op (frames are
        // already open on this thread) and the span nests naturally.
        let ctx = mux_obs::profile::current_context();
        type RowTables = Result<(Vec<f64>, Vec<bool>), PlanError>;
        let eval_row = |a: usize| -> RowTables {
            let _graft = mux_obs::profile::adopt(&ctx);
            let _row_span = mux_obs::span("fusion.range_build");
            let mut lat = Vec::new();
            let mut fits = Vec::new();
            let mut b = a + 1 + rows[a].lat.len();
            match &prober {
                Some(p) => {
                    // Feasible widths form a prefix: extend until the
                    // prober says no (or the membership ends).
                    while b <= m && p.fits(a, b) {
                        lat.push(cm.pipeline_latency(&build.build(&refs[a..b])?));
                        fits.push(true);
                        b += 1;
                    }
                }
                None => {
                    while b <= m {
                        let h = build.build(&refs[a..b])?;
                        let f = cm.fits_memory(std::slice::from_ref(&h), stages);
                        lat.push(if f {
                            cm.pipeline_latency(&h)
                        } else {
                            f64::INFINITY
                        });
                        fits.push(f);
                        b += 1;
                    }
                }
            }
            mux_obs::profile::work("ranges_built", lat.len() as u64);
            Ok((lat, fits))
        };
        let results: Vec<RowTables> = if todo.len() >= PAR_ROWS_MIN {
            use rayon::prelude::*;
            todo.par_iter().map(|&a| eval_row(a)).collect()
        } else {
            todo.iter().map(|&a| eval_row(a)).collect()
        };
        let mut built = 0u64;
        let mut first_err = None;
        for (&a, res) in todo.iter().zip(results) {
            // Apply in ascending row order; surface the first error in the
            // same (a asc, b asc) order a serial fill would.
            match res {
                Ok((lat, fits)) => {
                    built += lat.len() as u64;
                    let row = &mut self.rows[a];
                    for (l, f) in lat.iter().zip(&fits) {
                        if *f && !l.is_finite() {
                            row.degenerate += 1;
                        }
                    }
                    row.lat.extend(lat);
                    row.fits.extend(fits);
                    self.widest = self.widest.max(row.lat.len());
                }
                Err(e) => {
                    first_err = Some(e);
                    break;
                }
            }
        }
        self.stats.ranges_built += built;
        if let Some(e) = first_err {
            return Err(e);
        }

        // Recompute the invalidated DP suffix only (all of it on a cold
        // planner), in ascending prefix order with a strict-< tie-break.
        // The transition window is bounded by the widest stored row:
        // anything wider is provably infeasible and would be skipped.
        const INF: f64 = f64::INFINITY;
        self.g.resize(m + 1, INF);
        self.choice.resize(m + 1, usize::MAX);
        let start = self.dp_from.unwrap_or(m + 1).max(1);
        let s = stages as f64;
        let wmax = self.widest.max(1);
        let dp_span = mux_obs::span("fusion.dp_suffix");
        if mux_obs::profile::profiling() && start <= m {
            // Transitions examined by the suffix recompute (the loop below
            // is branch-free in its bounds, so the count is closed-form):
            // one whole-range check plus the bounded j-window per prefix.
            let cells: u64 = (start..=m)
                .map(|mm| 1 + (mm - mm.saturating_sub(wmax).max(1)) as u64)
                .sum();
            mux_obs::profile::work("dp_cells", cells);
        }
        for mm in start..=m {
            let mut best = INF;
            let mut ch = usize::MAX;
            let whole = &self.rows[0];
            if mm <= whole.lat.len() && whole.fits[mm - 1] && whole.lat[mm - 1] < best {
                best = whole.lat[mm - 1];
                ch = 0;
            }
            for j in mm.saturating_sub(wmax).max(1)..mm {
                if self.g[j] == INF {
                    continue;
                }
                let w = mm - j;
                let row = &self.rows[j];
                if w > row.lat.len() || !row.fits[w - 1] {
                    continue;
                }
                let cand = self.g[j] + row.lat[w - 1] / s;
                if cand < best {
                    best = cand;
                    ch = j;
                }
            }
            self.g[mm] = best;
            self.choice[mm] = ch;
        }
        drop(dp_span);
        self.dp_from = None;

        let best_val = self.g[m];
        if !best_val.is_finite() {
            let degenerate: usize = self.rows.iter().map(|r| r.degenerate).sum();
            return Err(if degenerate > 0 {
                PlanError::DegenerateCost {
                    detail: format!("{degenerate} feasible range(s) had non-finite latency"),
                }
            } else {
                PlanError::Infeasible { tasks: m }
            });
        }

        let mut cuts = vec![m];
        let mut mm = m;
        while self.choice[mm] != 0 {
            mm = self.choice[mm];
            cuts.push(mm);
        }
        cuts.push(0);
        cuts.reverse();
        let mut htasks = Vec::with_capacity(cuts.len() - 1);
        for w in cuts.windows(2) {
            htasks.push(build.build(&refs[w[0]..w[1]])?);
        }
        let plan = FusionPlan {
            htasks,
            predicted: best_val,
        };
        self.cached = Some(plan.clone());
        Ok(plan)
    }
}

/// The seed O(M³) Eq. 6 implementation, retained verbatim (modulo the
/// panic-to-error conversion) as the differential reference for the DP
/// proptests and the `planner-scale` speedup measurement. Do not use on
/// hot paths.
#[allow(clippy::needless_range_loop)] // explicit DP indices mirror Eq. 6
pub fn fuse_dp_seed(
    cm: &CostModel<'_>,
    tasks: &[&PeftTask],
    build: &RangeBuild<'_>,
) -> Result<FusionPlan, PlanError> {
    if tasks.is_empty() {
        return Err(PlanError::NoTasks);
    }
    let sorted = sort_by_tokens(tasks);
    let m = sorted.len();
    let s = cm.num_stages() as f64;
    // Memoized hTask + latency per contiguous range, cloned on every probe
    // (the seed behaviour the planner's range rows replace).
    let mut range_cache: Vec<Vec<Option<(HTask, f64, bool)>>> = vec![vec![None; m + 1]; m];
    let mut range = |a: usize, b: usize| -> Result<(HTask, f64, bool), PlanError> {
        if range_cache[a][b].is_none() {
            let h = build.build(&sorted[a..b])?;
            let lat = cm.pipeline_latency(&h);
            let fits = cm.fits_memory(std::slice::from_ref(&h), cm.num_stages());
            range_cache[a][b] = Some((h, lat, fits));
        }
        Ok(range_cache[a][b].clone().expect("just filled"))
    };

    const INF: f64 = f64::INFINITY;
    let mut f = vec![vec![INF; m + 1]; m + 1];
    let mut choice = vec![vec![usize::MAX; m + 1]; m + 1];
    for m1 in 1..=m {
        let (_, lat, fits) = range(0, m1)?;
        if fits {
            f[1][m1] = lat;
        }
    }
    for n in 2..=m {
        for mm in n..=m {
            for i in (n - 1)..mm {
                if f[n - 1][i] == INF {
                    continue;
                }
                let (_, lat, fits) = range(i, mm)?;
                if !fits {
                    continue;
                }
                let cand = f[n - 1][i] + lat / s;
                if cand < f[n][mm] {
                    f[n][mm] = cand;
                    choice[n][mm] = i;
                }
            }
        }
    }
    let mut best_n = 1;
    let mut best_val = f[1][m];
    for n in 2..=m {
        if f[n][m] < best_val {
            best_val = f[n][m];
            best_n = n;
        }
    }
    if !best_val.is_finite() {
        return Err(PlanError::Infeasible { tasks: m });
    }
    let mut cuts = Vec::new();
    let (mut n, mut mm) = (best_n, m);
    while n > 1 {
        let i = choice[n][mm];
        cuts.push(i);
        mm = i;
        n -= 1;
    }
    cuts.push(0);
    cuts.reverse();
    cuts.push(m);
    let mut htasks = Vec::with_capacity(best_n);
    for w in cuts.windows(2) {
        htasks.push(range(w[0], w[1])?.0);
    }
    Ok(FusionPlan {
        htasks,
        predicted: best_val,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use mux_gpu_sim::spec::GpuSpec;
    use mux_model::config::ModelConfig;
    use mux_parallel::plan::HybridParallelism;
    use mux_peft::registry::TaskRegistry;
    use mux_peft::types::TaskId;

    fn setup(task_shapes: &[(usize, usize)]) -> TaskRegistry {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b().with_layers(16));
        for (i, &(mb, seq)) in task_shapes.iter().enumerate() {
            r.register_task(PeftTask::lora(i as TaskId + 1, 16, mb, seq))
                .expect("register");
        }
        r
    }

    fn run(r: &TaskRegistry, policy: FusionPolicy, mbs: usize) -> FusionPlan {
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        fuse_tasks(
            &cm,
            &tasks,
            policy,
            &RangeBuild::Padded { micro_batches: mbs },
        )
        .expect("feasible")
    }

    #[test]
    fn every_task_appears_exactly_once() {
        let r = setup(&[(4, 64), (2, 128), (8, 64), (4, 128), (2, 256), (8, 128)]);
        for policy in [
            FusionPolicy::Dp,
            FusionPolicy::Greedy,
            FusionPolicy::AllSpatial,
            FusionPolicy::AllTemporal,
        ] {
            let plan = run(&r, policy, 4);
            let mut all: Vec<TaskId> = plan.htasks.iter().flat_map(|h| h.tasks.clone()).collect();
            all.sort_unstable();
            assert_eq!(all, (1..=6).collect::<Vec<_>>(), "{policy:?}");
        }
    }

    #[test]
    fn dp_is_at_least_as_good_as_extremes() {
        let r = setup(&[(2, 64), (4, 64), (8, 64), (2, 256), (4, 256), (8, 256)]);
        let dp = run(&r, FusionPolicy::Dp, 4);
        let spatial = run(&r, FusionPolicy::AllSpatial, 4);
        let temporal = run(&r, FusionPolicy::AllTemporal, 4);
        // The DP objective mixes full-latency and per-stage terms, so
        // compare on its own scale: DP must not exceed the better extreme
        // expressed in the same objective (AllSpatial with N=1 is F(M,1)).
        assert!(
            dp.predicted <= spatial.predicted * 1.0001,
            "dp {} vs spatial {}",
            dp.predicted,
            spatial.predicted
        );
        let temporal_obj = temporal.predicted; // Σ L(H_i) >= DP's objective form
        assert!(
            dp.predicted <= temporal_obj,
            "dp {} vs temporal {}",
            dp.predicted,
            temporal_obj
        );
    }

    #[test]
    fn small_tasks_fuse_spatially() {
        // Many tiny tasks under-utilize alone: DP should batch them.
        let r = setup(&[(1, 64), (1, 64), (1, 64), (1, 64)]);
        let dp = run(&r, FusionPolicy::Dp, 4);
        assert!(
            dp.htasks.len() < 4,
            "tiny tasks should fuse, got {} hTasks",
            dp.htasks.len()
        );
    }

    #[test]
    fn saturated_tasks_stay_temporal() {
        // Very large tasks saturate the GPU alone: fusing them only adds
        // stage latency, so DP should keep several hTasks.
        let r = setup(&[(64, 256), (64, 256), (64, 256), (64, 256)]);
        let dp = run(&r, FusionPolicy::Dp, 4);
        assert!(dp.htasks.len() > 1, "saturated tasks should not all fuse");
    }

    #[test]
    fn fusion_respects_sorted_contiguity() {
        let r = setup(&[(8, 128), (1, 64), (4, 64), (2, 256)]);
        let dp = run(&r, FusionPolicy::Dp, 4);
        // Token counts within the hTask sequence must be non-decreasing
        // across the concatenated plan (sorted ascending before cutting).
        let tokens: Vec<usize> = dp
            .htasks
            .iter()
            .flat_map(|h| h.tokens_per_task.clone())
            .collect();
        let mut sorted = tokens.clone();
        sorted.sort_unstable();
        assert_eq!(tokens, sorted);
    }

    #[test]
    fn memory_infeasible_fusions_are_split() {
        // Tasks so fat that an all-spatial hTask would OOM: DP must split.
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        for i in 0..8 {
            r.register_task(PeftTask::lora(i + 1, 16, 8, 256))
                .expect("register");
        }
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let all = HTask::from_padded(&tasks, 4);
        assert!(
            !cm.fits_memory(std::slice::from_ref(&all), 4),
            "precondition: all-spatial OOMs"
        );
        let plan = fuse_tasks(
            &cm,
            &tasks,
            FusionPolicy::Dp,
            &RangeBuild::Padded { micro_batches: 4 },
        )
        .expect("splittable");
        assert!(plan.htasks.len() >= 2);
        for h in &plan.htasks {
            assert!(
                cm.fits_memory(std::slice::from_ref(h), 4),
                "each chosen hTask must fit"
            );
        }
    }

    #[test]
    fn infeasible_single_task_is_an_error_not_a_panic() {
        // One task so fat it cannot fit alone: even fully temporal fails,
        // and the DP reports it instead of aborting the process.
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        r.register_task(PeftTask::lora(1, 16, 4096, 256))
            .expect("register");
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let err = fuse_tasks(
            &cm,
            &tasks,
            FusionPolicy::Dp,
            &RangeBuild::Padded { micro_batches: 4 },
        )
        .expect_err("cannot fit");
        assert_eq!(err, PlanError::Infeasible { tasks: 1 });
    }

    #[test]
    fn empty_task_set_is_an_error() {
        let r = setup(&[(1, 64)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let err = fuse_tasks(
            &cm,
            &[],
            FusionPolicy::Dp,
            &RangeBuild::Padded { micro_batches: 4 },
        )
        .expect_err("empty");
        assert_eq!(err, PlanError::NoTasks);
    }

    fn items(r: &TaskRegistry) -> Vec<(PeftTask, u64)> {
        r.tasks().map(|t| (t.clone(), 0)).collect()
    }

    #[test]
    fn incremental_first_plan_matches_scratch_bitwise() {
        let r = setup(&[(4, 64), (2, 128), (8, 64), (4, 128), (2, 256), (8, 128)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let build = RangeBuild::Padded { micro_batches: 4 };
        let scratch = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("feasible");
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        let plan = inc.plan(&cm, &build).expect("feasible");
        assert_eq!(plan.predicted.to_bits(), scratch.predicted.to_bits());
        let cuts: Vec<Vec<TaskId>> = plan.htasks.iter().map(|h| h.tasks.clone()).collect();
        let scratch_cuts: Vec<Vec<TaskId>> =
            scratch.htasks.iter().map(|h| h.tasks.clone()).collect();
        assert_eq!(cuts, scratch_cuts);
    }

    #[test]
    fn warm_planner_noop_replan_builds_zero_ranges() {
        let r = setup(&[(4, 64), (2, 128), (8, 64), (4, 128)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let build = RangeBuild::Padded { micro_batches: 4 };
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        let p1 = inc.plan(&cm, &build).expect("feasible");
        let before = inc.stats();
        assert_eq!(inc.sync(&items(&r)), 0, "unchanged membership is a no-op");
        let p2 = inc.plan(&cm, &build).expect("feasible");
        let after = inc.stats();
        assert_eq!(
            after.ranges_built, before.ranges_built,
            "no-op must build nothing"
        );
        assert_eq!(
            after.replans, before.replans,
            "no-op must not recompute the DP"
        );
        assert_eq!(after.noop_plans, before.noop_plans + 1);
        assert_eq!(p1.predicted.to_bits(), p2.predicted.to_bits());
    }

    #[test]
    fn delta_reuses_ranges_not_crossing_the_position() {
        let mut r = setup(&[(4, 64), (2, 128), (8, 64), (4, 128), (2, 256), (8, 128)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let build = RangeBuild::Padded { micro_batches: 4 };
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        inc.plan(&cm, &build).expect("feasible");
        let cold = inc.stats();
        assert!(cold.ranges_built > 0);

        r.register_task(PeftTask::lora(7, 16, 2, 64))
            .expect("register");
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        assert_eq!(inc.sync(&items(&r)), 1);
        let plan = inc.plan(&cm, &build).expect("feasible");
        let warm = inc.stats();
        let delta_builds = warm.ranges_built - cold.ranges_built;
        assert!(
            delta_builds < cold.ranges_built,
            "a single insert must rebuild fewer ranges ({delta_builds}) than the cold fill ({})",
            cold.ranges_built
        );
        assert!(warm.ranges_reused > 0, "unchanged ranges must be reused");

        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let scratch = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("feasible");
        assert_eq!(plan.predicted.to_bits(), scratch.predicted.to_bits());
    }

    #[test]
    fn incremental_remove_to_empty_then_refill() {
        let r = setup(&[(4, 64), (2, 128)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let build = RangeBuild::Padded { micro_batches: 4 };
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        inc.plan(&cm, &build).expect("feasible");
        assert_eq!(inc.sync(&[]), 2);
        assert!(inc.is_empty());
        assert_eq!(
            inc.plan(&cm, &build).expect_err("empty"),
            PlanError::NoTasks
        );
        inc.sync(&items(&r));
        let plan = inc.plan(&cm, &build).expect("feasible again");
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let scratch = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("feasible");
        assert_eq!(plan.predicted.to_bits(), scratch.predicted.to_bits());
    }

    #[test]
    fn incremental_infeasible_error_matches_scratch() {
        let mut r = TaskRegistry::new(ModelConfig::llama2_7b());
        r.register_task(PeftTask::lora(1, 16, 4096, 256))
            .expect("register");
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let build = RangeBuild::Padded { micro_batches: 4 };
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        let err = inc.plan(&cm, &build).expect_err("cannot fit");
        assert_eq!(err, PlanError::Infeasible { tasks: 1 });
    }

    #[test]
    fn changed_fingerprint_reinserts_the_task() {
        let r = setup(&[(4, 64), (2, 128), (8, 64)]);
        let gpu = GpuSpec::a40();
        let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
        let build = RangeBuild::Padded { micro_batches: 4 };
        let mut inc = IncrementalPlanner::new();
        inc.sync(&items(&r));
        inc.plan(&cm, &build).expect("feasible");
        // Same membership, one task's content fingerprint changed: that is
        // a remove + insert, not a no-op.
        let mut changed = items(&r);
        changed[1].1 = 0xdead_beef;
        assert_eq!(inc.sync(&changed), 2);
        let warm = inc.plan(&cm, &build).expect("feasible");
        let tasks: Vec<&PeftTask> = r.tasks().collect();
        let scratch = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("feasible");
        assert_eq!(warm.predicted.to_bits(), scratch.predicted.to_bits());
    }

    #[test]
    fn value_table_dp_matches_seed_dp() {
        // The G-recurrence must reproduce the seed F(m, n) table's optimum
        // bit-for-bit (same candidate sums, same minimum).
        for shapes in [
            vec![(4, 64), (2, 128), (8, 64), (4, 128), (2, 256), (8, 128)],
            vec![(1, 64), (1, 64), (1, 64), (1, 64)],
            vec![(64, 256), (64, 256), (64, 256), (64, 256)],
            vec![(8, 128), (1, 64), (4, 64), (2, 256)],
        ] {
            let r = setup(&shapes);
            let gpu = GpuSpec::a40();
            let cm = CostModel::new(&r, &gpu, HybridParallelism::pipeline(4));
            let tasks: Vec<&PeftTask> = r.tasks().collect();
            let build = RangeBuild::Padded { micro_batches: 4 };
            let new = fuse_tasks(&cm, &tasks, FusionPolicy::Dp, &build).expect("feasible");
            let seed = fuse_dp_seed(&cm, &tasks, &build).expect("feasible");
            assert_eq!(new.predicted.to_bits(), seed.predicted.to_bits());
        }
    }
}
