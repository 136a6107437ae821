//! # mux-obs
//!
//! Trace-level observability for the MuxTune planner and engine: named
//! phase **spans** and a process-wide **metrics registry** (phase wall
//! times, counters, gauges, and **histograms** — one [`QuantileSketch`]
//! per name, so every printed quantile is within 1 % of exact).
//! [`render_prom`] / [`snapshot_prom`] serialize the registry as
//! Prometheus text exposition for scraping dashboards.
//!
//! The whole layer is gated by one global switch and is **zero-cost when
//! disabled**: [`span`] performs a single relaxed atomic load and returns
//! `None` — no clock read, no allocation, no lock. Instrumented code
//! therefore stays on its fast path unless a caller (the report binary,
//! the bench harness, a test) opts in via [`set_enabled`] or
//! [`enabled_scope`].
//!
//! ```
//! let _outer = mux_obs::enabled_scope();           // turn collection on
//! {
//!     let _s = mux_obs::span("planner.fusion");    // timed while in scope
//! }
//! mux_obs::incr_counter("planner.candidates", 3);
//! mux_obs::set_gauge("run.mean_utilization", 0.71);
//! let snap = mux_obs::snapshot();
//! assert_eq!(snap.phases["planner.fusion"].count, 1);
//! ```

pub mod fingerprint;
pub mod profile;
pub mod sketch;

pub use fingerprint::{fnv1a_64, Fnv1a};
pub use sketch::QuantileSketch;

use std::borrow::Cow;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::Mutex;
use std::time::Instant;

/// Collection switches packed into one word so the [`span`] fast path stays
/// a single relaxed atomic load no matter how many layers are stacked on
/// top: bit 0 gates the flat registry, bit 1 the hierarchical profiler.
static COLLECT: AtomicU8 = AtomicU8::new(0);

const FLAT_BIT: u8 = 1;
pub(crate) const PROFILE_BIT: u8 = 2;

#[inline]
pub(crate) fn collect_flags() -> u8 {
    COLLECT.load(Ordering::Relaxed)
}

pub(crate) fn set_flag(bit: u8, on: bool) -> bool {
    let prev = if on {
        COLLECT.fetch_or(bit, Ordering::Relaxed)
    } else {
        COLLECT.fetch_and(!bit, Ordering::Relaxed)
    };
    prev & bit != 0
}

/// The process-wide registry. A plain `Mutex` is enough: writes happen only
/// while observability is enabled, which is never on the measured fast path.
static REGISTRY: Mutex<Option<Snapshot>> = Mutex::new(None);

/// Aggregate wall time of one named phase.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct PhaseStat {
    /// Number of spans recorded under this name.
    pub count: u64,
    /// Total wall time across those spans, seconds.
    pub total_seconds: f64,
}

/// Turns flat-registry collection on or off globally (the profiler has its
/// own switch, [`profile::set_profiling`]).
pub fn set_enabled(on: bool) {
    set_flag(FLAT_BIT, on);
}

/// Whether flat-registry collection is currently on.
#[inline]
pub fn enabled() -> bool {
    collect_flags() & FLAT_BIT != 0
}

/// Enables collection for the lifetime of the returned guard, restoring
/// the previous state on drop. Scopes may nest.
pub fn enabled_scope() -> EnabledScope {
    let prev = set_flag(FLAT_BIT, true);
    EnabledScope { prev }
}

/// Guard returned by [`enabled_scope`].
#[must_use = "collection stops when the scope guard drops"]
pub struct EnabledScope {
    prev: bool,
}

impl Drop for EnabledScope {
    fn drop(&mut self) {
        set_flag(FLAT_BIT, self.prev);
    }
}

/// A live span; records its elapsed wall time under `name` when dropped —
/// into the flat phase registry, and (when profiling is on) into the
/// hierarchical call tree at the path where it was opened.
#[must_use = "a span measures until it is dropped"]
pub struct SpanGuard {
    name: Cow<'static, str>,
    profiled: bool,
    start: Instant,
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        let elapsed = self.start.elapsed().as_secs_f64();
        if self.profiled {
            profile::close_frame(elapsed);
        }
        record_phase(&self.name, elapsed);
    }
}

fn open_span(name: Cow<'static, str>, flags: u8) -> SpanGuard {
    let profiled = flags & PROFILE_BIT != 0;
    if profiled {
        profile::open_frame(name.clone());
    }
    SpanGuard {
        name,
        profiled,
        start: Instant::now(),
    }
}

/// Opens a span named `name`, or `None` when all collection is disabled.
///
/// Bind the result to keep the span open: `let _s = mux_obs::span("x");`
/// (binding to `_` drops — and closes — it immediately).
///
/// The disabled path is a single relaxed atomic load: no clock read, no
/// allocation, no lock.
#[inline]
pub fn span(name: &'static str) -> Option<SpanGuard> {
    let flags = collect_flags();
    if flags == 0 {
        return None;
    }
    Some(open_span(Cow::Borrowed(name), flags))
}

/// [`span`] for names that aren't `'static` (per-policy, per-tenant phases).
///
/// Owned names still cost nothing when collection is off — the flag check
/// happens before `name` is converted, so pass `&'static str` or a
/// pre-built `String`; to avoid even building the `String` on the disabled
/// path use [`span_with`].
#[inline]
pub fn span_owned(name: impl Into<Cow<'static, str>>) -> Option<SpanGuard> {
    let flags = collect_flags();
    if flags == 0 {
        return None;
    }
    Some(open_span(name.into(), flags))
}

/// [`span`] with a lazily built name: `make_name` runs only when collection
/// is on, so `span_with(|| format!("replay.policy.{p}"))` allocates nothing
/// on the disabled path.
#[inline]
pub fn span_with(make_name: impl FnOnce() -> String) -> Option<SpanGuard> {
    let flags = collect_flags();
    if flags == 0 {
        return None;
    }
    Some(open_span(Cow::Owned(make_name()), flags))
}

fn with_registry<R>(f: impl FnOnce(&mut Snapshot) -> R) -> R {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    f(guard.get_or_insert_with(Snapshot::default))
}

/// Adds `seconds` of wall time to phase `name` (no-op when disabled).
pub fn record_phase(name: &str, seconds: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        let stat = r.phases.entry(name.to_string()).or_default();
        stat.count += 1;
        stat.total_seconds += seconds;
    });
}

/// Increments counter `name` by `by` (no-op when disabled).
pub fn incr_counter(name: &str, by: u64) {
    if !enabled() {
        return;
    }
    with_registry(|r| *r.counters.entry(name.to_string()).or_insert(0) += by);
}

/// Sets gauge `name` to `value` (no-op when disabled).
pub fn set_gauge(name: &str, value: f64) {
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.gauges.insert(name.to_string(), value);
    });
}

/// Records `value` into histogram `name` (no-op when disabled).
///
/// Non-finite observations are dropped before they reach the sketch, and
/// tallied in the `dropped_nonfinite` counter so the lossage stays
/// visible in the registry itself.
pub fn record_histogram(name: &str, value: f64) {
    if !value.is_finite() {
        incr_counter("dropped_nonfinite", 1);
        return;
    }
    if !enabled() {
        return;
    }
    with_registry(|r| {
        r.histograms
            .entry(name.to_string())
            .or_default()
            .insert(value);
    });
}

/// The registry's contents. The live registry is one of these behind a
/// mutex; [`snapshot`] returns a copy of it.
#[derive(Debug, Default, Clone)]
pub struct Snapshot {
    /// Per-phase wall-time aggregates.
    pub phases: BTreeMap<String, PhaseStat>,
    /// Monotonic counters.
    pub counters: BTreeMap<String, u64>,
    /// Last-write-wins gauges.
    pub gauges: BTreeMap<String, f64>,
    /// Observation distributions.
    pub histograms: BTreeMap<String, QuantileSketch>,
}

/// Snapshots the registry (works even while disabled — it reads whatever
/// was collected before).
pub fn snapshot() -> Snapshot {
    let guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    guard.clone().unwrap_or_default()
}

/// Sanitizes a registry name into a Prometheus metric-name fragment:
/// `[a-zA-Z0-9_:]`, everything else becomes `_`.
pub fn prom_sanitize(name: &str) -> String {
    let mut out: String = name
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '_' || c == ':' {
                c
            } else {
                '_'
            }
        })
        .collect();
    if out
        .chars()
        .next()
        .map(|c| c.is_ascii_digit())
        .unwrap_or(true)
    {
        out.insert(0, '_');
    }
    out
}

/// Escapes a string for use inside a Prometheus label value: `\`, `"`,
/// and newlines become backslash escapes per the text-exposition spec.
pub fn prom_escape_label(value: &str) -> String {
    let mut out = String::with_capacity(value.len());
    for c in value.chars() {
        match c {
            '\\' => out.push_str("\\\\"),
            '"' => out.push_str("\\\""),
            '\n' => out.push_str("\\n"),
            _ => out.push(c),
        }
    }
    out
}

fn prom_f64(v: f64) -> String {
    if v == v.trunc() && v.abs() < 1e15 {
        format!("{v:.1}") // prometheus floats: keep a decimal point
    } else {
        format!("{v}")
    }
}

/// Renders a [`Snapshot`] as Prometheus text exposition (version 0.0.4).
///
/// Phases become `muxtune_phase_seconds_total` / `muxtune_phase_count`
/// families labeled by phase name; counters and gauges become
/// `muxtune_<sanitized-name>` metrics; histograms become prom summaries
/// (`{quantile="0.5|0.95|0.99"}` series plus `_sum`/`_count`).
pub fn render_prom(snap: &Snapshot) -> String {
    let mut out = String::new();
    if !snap.phases.is_empty() {
        out.push_str("# HELP muxtune_phase_seconds_total Wall time per instrumented phase.\n");
        out.push_str("# TYPE muxtune_phase_seconds_total counter\n");
        for (name, stat) in &snap.phases {
            out.push_str(&format!(
                "muxtune_phase_seconds_total{{phase=\"{}\"}} {}\n",
                prom_escape_label(name),
                prom_f64(stat.total_seconds)
            ));
        }
        out.push_str("# HELP muxtune_phase_count Spans recorded per instrumented phase.\n");
        out.push_str("# TYPE muxtune_phase_count counter\n");
        for (name, stat) in &snap.phases {
            out.push_str(&format!(
                "muxtune_phase_count{{phase=\"{}\"}} {}\n",
                prom_escape_label(name),
                stat.count
            ));
        }
    }
    for (name, v) in &snap.counters {
        let metric = format!("muxtune_{}_total", prom_sanitize(name));
        out.push_str(&format!("# TYPE {metric} counter\n{metric} {v}\n"));
    }
    for (name, v) in &snap.gauges {
        let metric = format!("muxtune_{}", prom_sanitize(name));
        out.push_str(&format!(
            "# TYPE {metric} gauge\n{metric} {}\n",
            prom_f64(*v)
        ));
    }
    for (name, h) in &snap.histograms {
        let metric = format!("muxtune_{}", prom_sanitize(name));
        out.push_str(&format!("# TYPE {metric} summary\n"));
        for (q, label) in [(0.5, "0.5"), (0.95, "0.95"), (0.99, "0.99")] {
            out.push_str(&format!(
                "{metric}{{quantile=\"{label}\"}} {}\n",
                prom_f64(h.quantile(q))
            ));
        }
        out.push_str(&format!("{metric}_sum {}\n", prom_f64(h.sum())));
        out.push_str(&format!("{metric}_count {}\n", h.count()));
    }
    out
}

/// [`render_prom`] over the live registry.
pub fn snapshot_prom() -> String {
    render_prom(&snapshot())
}

/// Clears all collected data (flat registry only; the profiler tree is
/// cleared by [`profile::reset_profile`]).
pub fn reset() {
    let mut guard = REGISTRY.lock().unwrap_or_else(|e| e.into_inner());
    *guard = None;
}

// The registry, tree, and switches are process-global, so tests that
// observe them (here and in `profile::tests`) run under one shared lock to
// avoid cross-test interference.
#[cfg(test)]
pub(crate) static TEST_LOCK: Mutex<()> = Mutex::new(());

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_span_is_none_and_records_nothing() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        assert!(span("x").is_none());
        record_phase("x", 1.0);
        incr_counter("c", 1);
        set_gauge("g", 1.0);
        let snap = snapshot();
        assert!(snap.phases.is_empty());
        assert!(snap.counters.is_empty());
        assert!(snap.gauges.is_empty());
    }

    #[test]
    fn enabled_span_accumulates_phase_time() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        {
            let _s = span("phase.a");
            std::hint::black_box(0u64);
        }
        {
            let _s = span("phase.a");
        }
        let snap = snapshot();
        let stat = snap.phases["phase.a"];
        assert_eq!(stat.count, 2);
        assert!(stat.total_seconds >= 0.0);
    }

    #[test]
    fn counters_and_gauges_roundtrip() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        incr_counter("c", 2);
        incr_counter("c", 3);
        set_gauge("g", 1.5);
        set_gauge("g", 2.5);
        let snap = snapshot();
        assert_eq!(snap.counters["c"], 5);
        assert_eq!(snap.gauges["g"], 2.5);
    }

    #[test]
    fn histogram_tracks_count_sum_min_max() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        for v in [0.5, 2.0, 8.0, 8.0] {
            record_histogram("lat", v);
        }
        let snap = snapshot();
        let h = &snap.histograms["lat"];
        assert_eq!(h.count(), 4);
        assert!((h.sum() - 18.5).abs() < 1e-12);
        assert_eq!(h.min(), 0.5);
        assert_eq!(h.max(), 8.0);
        assert!((h.mean() - 4.625).abs() < 1e-12);
    }

    #[test]
    fn histogram_quantiles_are_order_of_magnitude_right() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        // 90 fast observations around 1ms, 10 slow around 1s.
        for i in 0..90 {
            record_histogram("q", 1e-3 * (1.0 + (i % 7) as f64 * 0.05));
        }
        for _ in 0..10 {
            record_histogram("q", 1.0);
        }
        let h = snapshot().histograms["q"].clone();
        let p50 = h.quantile(0.5);
        let p99 = h.quantile(0.99);
        assert!(p50 < 5e-3, "p50 {p50}");
        assert!(p99 > 0.5, "p99 {p99}");
        assert!(h.quantile(1.0) <= h.max() + 1e-12);
        assert!(h.quantile(0.0) >= h.min() - 1e-12);
    }

    #[test]
    fn disabled_histogram_records_nothing() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        record_histogram("h", 1.0);
        assert!(snapshot().histograms.is_empty());
    }

    #[test]
    fn prom_exposition_renders_every_family() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        record_phase("planner.total", 0.25);
        incr_counter("planner.candidates", 3);
        set_gauge("run.mean_utilization", 0.75);
        record_histogram("engine.step_seconds", 0.002);
        record_histogram("engine.step_seconds", 0.004);
        let text = snapshot_prom();
        assert!(text.contains("muxtune_phase_seconds_total{phase=\"planner.total\"} 0.25"));
        assert!(text.contains("muxtune_planner_candidates_total 3"));
        assert!(text.contains("muxtune_run_mean_utilization 0.75"));
        assert!(text.contains("# TYPE muxtune_engine_step_seconds summary"));
        assert!(text.contains("muxtune_engine_step_seconds{quantile=\"0.99\"}"));
        assert!(text.contains("muxtune_engine_step_seconds_count 2"));
        // Exposition hygiene: every non-comment line is `name[{labels}] value`.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line:?}");
        }
    }

    #[test]
    fn prom_sanitize_produces_legal_names() {
        assert_eq!(
            prom_sanitize("run.mean-utilization"),
            "run_mean_utilization"
        );
        assert_eq!(prom_sanitize("9lives"), "_9lives");
        assert_eq!(prom_sanitize(""), "_");
        // Colons are legal in prometheus metric names (recording rules).
        assert_eq!(prom_sanitize("job:rate:5m"), "job:rate:5m");
    }

    #[test]
    fn prom_escape_label_handles_hostile_values() {
        assert_eq!(prom_escape_label("plain"), "plain");
        assert_eq!(prom_escape_label("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    }

    #[test]
    fn hostile_phase_names_render_as_valid_exposition() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        record_phase("tenant \"alpha\"\\prod\nstage", 0.5);
        let text = snapshot_prom();
        assert!(
            text.contains("phase=\"tenant \\\"alpha\\\"\\\\prod\\nstage\""),
            "escaped label in {text:?}"
        );
        // No raw newline may survive inside any exposition line's label.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (name, value) = line.rsplit_once(' ').expect("name value");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "numeric value in {line:?}");
        }
    }

    #[test]
    fn nonfinite_histogram_observations_are_dropped_and_counted() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        for v in [f64::INFINITY, f64::NEG_INFINITY, f64::NAN] {
            record_histogram("hostile", v);
        }
        record_histogram("hostile", 2.0);
        let snap = snapshot();
        let h = &snap.histograms["hostile"];
        assert_eq!(h.count(), 1, "only the finite observation lands");
        assert!(h.sum().is_finite() && h.min().is_finite() && h.max().is_finite());
        assert_eq!(snap.counters["dropped_nonfinite"], 3);
        let text = render_prom(&snap);
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            let (_, value) = line.rsplit_once(' ').expect("name value");
            assert!(value.parse::<f64>().unwrap().is_finite(), "line {line:?}");
        }
    }

    #[test]
    fn owned_and_lazy_spans_record_phases() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        let _on = enabled_scope();
        let tenant = String::from("alpha");
        {
            let _s = span_owned(format!("tenant.{tenant}"));
        }
        {
            let _s = span_with(|| format!("tenant.{tenant}"));
        }
        let snap = snapshot();
        assert_eq!(snap.phases["tenant.alpha"].count, 2);
    }

    #[test]
    fn disabled_lazy_span_never_builds_its_name() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        reset();
        set_enabled(false);
        profile::set_profiling(false);
        let mut built = false;
        assert!(span_with(|| {
            built = true;
            String::from("never")
        })
        .is_none());
        assert!(!built, "name closure must not run while disabled");
        assert!(span_owned("static-but-off").is_none());
    }

    #[test]
    fn scope_guard_restores_previous_state() {
        let _t = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        set_enabled(false);
        {
            let _on = enabled_scope();
            assert!(enabled());
            {
                let _inner = enabled_scope();
                assert!(enabled());
            }
            assert!(enabled(), "inner scope must not turn collection off");
        }
        assert!(!enabled());
    }
}
