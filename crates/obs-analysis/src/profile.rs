//! Post-processing for `mux_obs::profile` artifacts: parsing, diffing two
//! profiles into a ranked "blame path" report, and rendering the call tree
//! as a Chrome/Perfetto trace.
//!
//! The profiler emits a flat, pre-order `paths` array (see
//! `mux_obs::profile::profile_json` / `work_profile_json`); both shapes
//! parse into [`ProfileRow`]s here (the work-only shape has zero wall
//! times). [`profile_diff`] joins two profiles on path, ranks by
//! exclusive-time delta and work-count drift, and
//! [`render_profile_diff`] prints the result with the top regression
//! called out as the blame path — the same path string
//! `check_work_budgets` names when the CI gate trips.

use serde_json::{Map, Value};
use std::collections::BTreeMap;

use crate::trace::{Lane, TraceWriter};

/// One call-tree path from a parsed profile artifact.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileRow {
    /// Span names from root to this node.
    pub path: Vec<String>,
    /// Spans closed at this path (`count` or `calls` in the JSON).
    pub count: u64,
    /// Total wall seconds (0 in work-only profiles).
    pub inclusive_seconds: f64,
    /// Inclusive minus same-thread children (0 in work-only profiles).
    pub exclusive_seconds: f64,
    /// Deterministic work counters.
    pub work: BTreeMap<String, u64>,
}

impl ProfileRow {
    /// The path as the `;`-joined string used by budgets and diffs.
    pub fn key(&self) -> String {
        self.path.join(";")
    }
}

/// Parses a `muxtune.profile.v1` or `muxtune.work-profile.v1` artifact.
pub fn parse_profile(text: &str) -> Result<Vec<ProfileRow>, String> {
    let v: Value =
        serde_json::from_str(text).map_err(|e| format!("profile is not valid JSON: {e}"))?;
    let format = v.get("format").and_then(Value::as_str).unwrap_or("");
    if !matches!(format, "muxtune.profile.v1" | "muxtune.work-profile.v1") {
        return Err(format!("unknown profile format {format:?}"));
    }
    let paths = v
        .get("paths")
        .and_then(Value::as_array)
        .ok_or("profile missing `paths` array")?;
    let mut rows = Vec::with_capacity(paths.len());
    for (i, row) in paths.iter().enumerate() {
        let path: Vec<String> = row
            .get("path")
            .and_then(Value::as_array)
            .ok_or_else(|| format!("paths[{i}] missing `path`"))?
            .iter()
            .map(|s| {
                s.as_str()
                    .map(str::to_string)
                    .ok_or_else(|| format!("paths[{i}] has a non-string segment"))
            })
            .collect::<Result<_, _>>()?;
        let count = row
            .get("count")
            .or_else(|| row.get("calls"))
            .and_then(Value::as_u64)
            .ok_or_else(|| format!("paths[{i}] missing `count`/`calls`"))?;
        let seconds = |key: &str| row.get(key).and_then(Value::as_f64).unwrap_or(0.0);
        let mut work = BTreeMap::new();
        if let Some(w) = row.get("work").and_then(Value::as_object) {
            for (k, n) in w {
                work.insert(
                    k.clone(),
                    n.as_u64()
                        .ok_or_else(|| format!("paths[{i}] work `{k}` is not a u64"))?,
                );
            }
        }
        rows.push(ProfileRow {
            path,
            count,
            inclusive_seconds: seconds("inclusive_seconds"),
            exclusive_seconds: seconds("exclusive_seconds"),
            work,
        });
    }
    Ok(rows)
}

/// One work counter's before/after pair in a [`ProfileDiffRow`].
#[derive(Debug, Clone, PartialEq)]
pub struct WorkDelta {
    /// Counter name.
    pub counter: String,
    /// Value in the "before" profile (0 when absent).
    pub before: u64,
    /// Value in the "after" profile (0 when absent).
    pub after: u64,
}

impl WorkDelta {
    /// Signed after-minus-before drift.
    pub fn delta(&self) -> i128 {
        self.after as i128 - self.before as i128
    }
}

/// One path's before/after comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct ProfileDiffRow {
    /// `;`-joined call-tree path.
    pub path: String,
    /// Span counts before/after.
    pub count_before: u64,
    /// See [`ProfileDiffRow::count_before`].
    pub count_after: u64,
    /// Exclusive wall seconds before/after.
    pub exclusive_before: f64,
    /// See [`ProfileDiffRow::exclusive_before`].
    pub exclusive_after: f64,
    /// Inclusive wall seconds before/after.
    pub inclusive_before: f64,
    /// See [`ProfileDiffRow::inclusive_before`].
    pub inclusive_after: f64,
    /// Drifted work counters, largest absolute drift first. Counters equal
    /// on both sides are omitted.
    pub work_deltas: Vec<WorkDelta>,
}

impl ProfileDiffRow {
    /// Signed exclusive-time delta, seconds.
    pub fn exclusive_delta(&self) -> f64 {
        self.exclusive_after - self.exclusive_before
    }

    /// Largest absolute work-counter drift on this path.
    pub fn max_work_drift(&self) -> u128 {
        self.work_deltas
            .iter()
            .map(|w| w.delta().unsigned_abs())
            .max()
            .unwrap_or(0)
    }

    /// Whether anything at all differs on this path.
    pub fn changed(&self) -> bool {
        self.count_before != self.count_after
            || !self.work_deltas.is_empty()
            || (self.exclusive_delta()).abs() > 0.0
    }
}

/// Diffs two parsed profiles, joined on path (union of both sides; a path
/// absent from one side compares against zeros). Rows are ranked worst
/// regression first: by exclusive-time delta descending, then by work
/// drift, then by path for determinism.
pub fn profile_diff(before: &[ProfileRow], after: &[ProfileRow]) -> Vec<ProfileDiffRow> {
    let index = |rows: &[ProfileRow]| -> BTreeMap<String, ProfileRow> {
        rows.iter().map(|r| (r.key(), r.clone())).collect()
    };
    let a = index(before);
    let b = index(after);
    let empty = |key: &str| ProfileRow {
        path: key.split(';').map(str::to_string).collect(),
        count: 0,
        inclusive_seconds: 0.0,
        exclusive_seconds: 0.0,
        work: BTreeMap::new(),
    };
    let mut keys: Vec<&String> = a.keys().chain(b.keys()).collect();
    keys.sort();
    keys.dedup();
    let mut rows = Vec::with_capacity(keys.len());
    for key in keys {
        let x = a.get(key).cloned().unwrap_or_else(|| empty(key));
        let y = b.get(key).cloned().unwrap_or_else(|| empty(key));
        let mut counters: Vec<&String> = x.work.keys().chain(y.work.keys()).collect();
        counters.sort();
        counters.dedup();
        let mut work_deltas: Vec<WorkDelta> = counters
            .into_iter()
            .map(|c| WorkDelta {
                counter: c.clone(),
                before: x.work.get(c).copied().unwrap_or(0),
                after: y.work.get(c).copied().unwrap_or(0),
            })
            .filter(|w| w.delta() != 0)
            .collect();
        work_deltas.sort_by(|p, q| {
            q.delta()
                .unsigned_abs()
                .cmp(&p.delta().unsigned_abs())
                .then_with(|| p.counter.cmp(&q.counter))
        });
        rows.push(ProfileDiffRow {
            path: key.clone(),
            count_before: x.count,
            count_after: y.count,
            exclusive_before: x.exclusive_seconds,
            exclusive_after: y.exclusive_seconds,
            inclusive_before: x.inclusive_seconds,
            inclusive_after: y.inclusive_seconds,
            work_deltas,
        });
    }
    rows.sort_by(|p, q| {
        q.exclusive_delta()
            .total_cmp(&p.exclusive_delta())
            .then_with(|| q.max_work_drift().cmp(&p.max_work_drift()))
            .then_with(|| p.path.cmp(&q.path))
    });
    rows
}

fn fmt_secs(s: f64) -> String {
    format!("{:.6}", s)
}

/// Renders a diff as plain text: a blame line for the worst regression,
/// then up to `top` changed paths with time and work drift.
pub fn render_profile_diff(diff: &[ProfileDiffRow], top: usize) -> String {
    let mut out = String::new();
    let changed: Vec<&ProfileDiffRow> = diff.iter().filter(|r| r.changed()).collect();
    if changed.is_empty() {
        out.push_str("profiles are identical (no path changed)\n");
        return out;
    }
    let blame = changed[0];
    out.push_str(&format!(
        "blame path: `{}` exclusive {} -> {} ({:+.6}s)",
        blame.path,
        fmt_secs(blame.exclusive_before),
        fmt_secs(blame.exclusive_after),
        blame.exclusive_delta(),
    ));
    if let Some(w) = blame.work_deltas.first() {
        out.push_str(&format!(
            ", {} {} -> {} ({:+})",
            w.counter,
            w.before,
            w.after,
            w.delta()
        ));
    }
    out.push('\n');
    out.push_str(&format!("{} path(s) changed\n", changed.len()));
    for row in changed.iter().take(top) {
        out.push_str(&format!(
            "  `{}` calls {} -> {}, exclusive {:+.6}s",
            row.path,
            row.count_before,
            row.count_after,
            row.exclusive_delta(),
        ));
        for w in row.work_deltas.iter().take(4) {
            out.push_str(&format!(", {} {:+}", w.counter, w.delta()));
        }
        out.push('\n');
    }
    if changed.len() > top {
        out.push_str(&format!("  ... {} more\n", changed.len() - top));
    }
    out
}

const MICROS: f64 = 1e6;

/// Renders a parsed profile as a Chrome/Perfetto trace-event JSON string.
///
/// The call tree is aggregated (one node per path, not per call), so
/// timestamps are synthetic: children are laid out left-to-right inside
/// their parent's interval at their inclusive durations, producing the
/// usual flamegraph layout when opened in `chrome://tracing` / Perfetto.
pub fn profile_chrome_trace(rows: &[ProfileRow]) -> String {
    const LANE: Lane = (1, 1);
    let mut w = TraceWriter::new();
    w.process_name(LANE.0, "muxtune self-profile");
    w.thread_name(LANE, "call tree (aggregated)");
    // Rows arrive pre-order; a cursor stack assigns each node the next free
    // offset inside its parent's interval.
    let mut stack: Vec<(Vec<String>, f64)> = vec![(Vec::new(), 0.0)];
    for row in rows {
        if row.path.first().map(String::as_str) == Some("(root)") {
            continue;
        }
        while stack.len() > 1 {
            let (prefix, _) = stack.last().expect("non-empty stack");
            if row.path.len() > prefix.len() && row.path.starts_with(prefix) {
                break;
            }
            stack.pop();
        }
        let ts = stack.last().expect("root cursor").1;
        let dur = row.inclusive_seconds * MICROS;
        stack.last_mut().expect("root cursor").1 += dur;
        let mut args = Map::new();
        args.insert("path".into(), row.key().into());
        args.insert("count".into(), row.count.into());
        args.insert("exclusive_seconds".into(), row.exclusive_seconds.into());
        for (k, n) in &row.work {
            args.insert(format!("work.{k}"), (*n).into());
        }
        let name = row.path.last().map(String::as_str).unwrap_or_default();
        w.complete(LANE, name, "profile", ts, dur, args);
        stack.push((row.path.clone(), ts));
    }
    serde_json::to_string_pretty(&w.finish(None)).expect("serializable trace")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(scale: u64) -> Vec<ProfileRow> {
        vec![
            ProfileRow {
                path: vec!["plan".into()],
                count: 10,
                inclusive_seconds: 1.0,
                exclusive_seconds: 0.2,
                work: BTreeMap::new(),
            },
            ProfileRow {
                path: vec!["plan".into(), "dp".into()],
                count: 10,
                inclusive_seconds: 0.8 * scale as f64,
                exclusive_seconds: 0.8 * scale as f64,
                work: BTreeMap::from([("dp_cells".to_string(), 100 * scale)]),
            },
        ]
    }

    #[test]
    fn parse_accepts_both_profile_shapes() {
        let full = r#"{"format":"muxtune.profile.v1","paths":[
            {"path":["a","b"],"count":3,"inclusive_seconds":0.5,
             "exclusive_seconds":0.25,"work":{"cells":7}}]}"#;
        let rows = parse_profile(full).expect("full shape");
        assert_eq!(rows[0].key(), "a;b");
        assert_eq!(rows[0].count, 3);
        assert_eq!(rows[0].work["cells"], 7);
        let work_only = r#"{"format":"muxtune.work-profile.v1","paths":[
            {"path":["a"],"calls":2,"work":{"cells":7}}]}"#;
        let rows = parse_profile(work_only).expect("work shape");
        assert_eq!(rows[0].count, 2);
        assert_eq!(rows[0].inclusive_seconds, 0.0);
        assert!(parse_profile("{\"format\":\"nope\",\"paths\":[]}").is_err());
        assert!(parse_profile("not json").is_err());
    }

    #[test]
    fn diff_ranks_the_regressed_path_first_and_renders_blame() {
        let diff = profile_diff(&sample(1), &sample(3));
        assert_eq!(diff[0].path, "plan;dp", "worst regression leads");
        assert!(diff[0].exclusive_delta() > 0.0);
        assert_eq!(diff[0].work_deltas[0].delta(), 200);
        let text = render_profile_diff(&diff, 10);
        assert!(text.contains("blame path: `plan;dp`"), "{text}");
        assert!(text.contains("dp_cells"), "{text}");
        let same = render_profile_diff(&profile_diff(&sample(1), &sample(1)), 10);
        assert!(same.contains("identical"), "{same}");
    }

    #[test]
    fn diff_handles_paths_missing_from_one_side() {
        let before = sample(1);
        let mut after = sample(1);
        after.push(ProfileRow {
            path: vec!["new-phase".into()],
            count: 1,
            inclusive_seconds: 0.0,
            exclusive_seconds: 0.0,
            work: BTreeMap::from([("ops".to_string(), 5)]),
        });
        let diff = profile_diff(&before, &after);
        let row = diff
            .iter()
            .find(|r| r.path == "new-phase")
            .expect("present");
        assert_eq!(row.count_before, 0);
        assert_eq!(row.count_after, 1);
        assert_eq!(row.work_deltas[0].delta(), 5);
    }

    #[test]
    fn chrome_trace_nests_children_inside_parents() {
        let text = profile_chrome_trace(&sample(1));
        let v: Value = serde_json::from_str(&text).expect("valid JSON");
        let events = v["traceEvents"].as_array().expect("events");
        let slices: Vec<&Value> = events
            .iter()
            .filter(|e| e["ph"].as_str() == Some("X"))
            .collect();
        assert_eq!(slices.len(), 2);
        let parent = slices
            .iter()
            .find(|e| e["name"].as_str() == Some("plan"))
            .unwrap();
        let child = slices
            .iter()
            .find(|e| e["name"].as_str() == Some("dp"))
            .unwrap();
        let (pts, pdur) = (
            parent["ts"].as_f64().unwrap(),
            parent["dur"].as_f64().unwrap(),
        );
        let (cts, cdur) = (
            child["ts"].as_f64().unwrap(),
            child["dur"].as_f64().unwrap(),
        );
        assert!(cts >= pts && cts + cdur <= pts + pdur + 1e-6, "nested");
        assert_eq!(child["args"]["work.dp_cells"].as_u64(), Some(100));
        // Deterministic output for identical input.
        assert_eq!(text, profile_chrome_trace(&sample(1)));
    }
}
