//! Regenerates a markdown experiment report from the JSON artifacts the
//! figure benches write to `target/experiments/`, and hosts the CI
//! perf-regression gate.
//!
//! Usage: run `cargo bench --workspace` first, then
//! `cargo run -p mux-bench --bin report [output.md] [flags]`. An unknown
//! `--` flag or a second positional argument exits with code 2 before
//! anything runs or is written.
//!
//! Flags:
//! - `--trace-out <path>`: run the Fig-14 Testbed-A scenario with tracing
//!   on and write its timeline as chrome://tracing JSON (open in
//!   `chrome://tracing` or Perfetto) plus an `<path>.attribution.json`
//!   stall-attribution/critical-path summary, with a planner phase/stall
//!   report on stdout.
//! - `--format prom`: instead of markdown, emit the Fig-14-small
//!   scenario's metrics (makespan, utilization, 5-class stall seconds,
//!   planner phases, histograms) in Prometheus text-exposition format.
//! - `--write-baseline <json>`: run every gate scenario (`fig14-small`
//!   end-to-end run, `planner-scale` planning wall time at M=1024,
//!   `telemetry-overhead` disabled-path metric-write wall time) and write
//!   their headline numbers as a perf-baseline array.
//! - `--check-baseline <json>`: re-run each scenario named in the
//!   checked-in baseline (array, or a single legacy object) and compare;
//!   exits non-zero on any regression (the CI gate).
//! - `--journal-out <path>`: run the service-telemetry scenario (storm +
//!   hopeless SLO, monitoring on), seal its event journal, and write it
//!   as JSONL.
//! - `--replay <journal>`: parse a JSONL journal, replay it, and check
//!   the result against the embedded final-state record; exits non-zero
//!   on corruption or state mismatch.
//! - `--watch <ticks>`: run the service-telemetry scenario live, printing
//!   one summary line per tick (throughput, stall shares, active alerts).
//! - `--chaos-seed <u64>`: run the deterministic chaos harness
//!   (`mux-chaos`) under the given seed, print the journal fingerprint
//!   and job outcomes, and re-verify the sealed journal by replay. With
//!   `--journal-out <path>`, the chaos journal is written there instead
//!   of the telemetry-scenario journal. Exits non-zero if the journal
//!   fails re-verification.
//! - `--trace-gen <u64>`: generate a seeded multi-tenant workload trace
//!   (`mux-workload`: diurnal Poisson arrivals, bounded-Pareto sizes,
//!   per-tenant SLOs, cancellation churn) and write it as sealed JSONL to
//!   `--trace-path <path>` (default
//!   `target/experiments/workload_trace_<seed>.jsonl`). `--trace-jobs <n>`
//!   sizes it (default 10000). Same seed ⇒ bitwise-identical file.
//! - `--replay-trace <path>`: load a generated trace and replay it
//!   end-to-end through `FineTuneService` under `--policy
//!   <fcfs|priority|wfs|drf>` — or all four when the flag is absent —
//!   printing terminal-outcome counts, per-tenant Jain fairness indices,
//!   per-tenant JCT / queue-wait quantiles (mergeable sketches), SLO
//!   attainment, capacity makespan, and the sealed journal fingerprint
//!   per policy. Exits non-zero if any trace job is lost or the replayed
//!   journal fails verification.
//! - `--replan-mode <simulate|estimate|incremental>`: how the replayed
//!   service re-prices membership changes (default `incremental`, a warm
//!   per-instance planner). `estimate` runs the same planner cold on
//!   every replan: it is the reference whose journals the default's must
//!   equal bit for bit — the CI workload job diffs the two replays.
//! - `--explain-job <id>`: after a `--replay-trace` run, reconstruct the
//!   job's causal lifecycle from the sealed journal (span tree, JCT
//!   decomposition, scheduler decision provenance) and print it. The id
//!   may be a trace id or a journal handle. Without `--policy` the
//!   replay defaults to `fcfs` so the explanation names one schedule.
//!   Pure function of the journal: run-twice output is bitwise identical.
//! - `--lifecycle-out <path>`: after a `--replay-trace` run, write every
//!   job's span tree as a tenant-lane Chrome/Perfetto trace (one process
//!   per tenant, one thread per job). Defaults the policy like
//!   `--explain-job`.
//! - `--profile-out <path>`: run the churn-replay scenario with the
//!   hierarchical self-profiler on and write the call-tree artifacts:
//!   `<path>` (full profile JSON), `<path>.work.json` (the
//!   bitwise-deterministic work profile — run twice, `diff` byte-for-byte),
//!   `<path>.collapsed` (flamegraph.pl collapsed stacks), and
//!   `<path>.chrome.json` (Chrome/Perfetto trace).
//! - `--profile-diff <before> <after>`: parse two profile artifacts and
//!   print the regression-ranked blame paths (exclusive-time delta, then
//!   work-counter drift).
//! - `--serve-mix <ratio>`: run the mixed training+serving scenario —
//!   inference requests multiplexed onto the same frozen backbone as the
//!   training jobs — at `ratio` requests per training job, and print the
//!   deterministic summary (fingerprint, request conservation, per-tenant
//!   TTFT / per-token p50/p95/p99, SLO attainment). `--serve-requests
//!   <n>` sizes the request stream (default 2000); `--serving-policy
//!   <spatial|temporal|hybrid>` picks the sharing policy (default
//!   hybrid). With `--journal-out <path>`, the sealed mixed journal is
//!   written there. Same seed ⇒ bitwise-identical output — CI diffs two
//!   runs literally.

use std::fs;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

use mux_api::Journal;
use mux_bench::harness::{
    attribution_json, churn_replay_measurement, fig14_small_trace_scenario, fig14_trace_scenario,
    measure_run, planner_incremental_measurement, planner_scale_measurement,
    profile_overhead_measurement, serve_mix_measurement, service_telemetry_scenario,
    service_telemetry_step, sketch_overhead_measurement, telemetry_overhead_measurement,
    trace_replay_measurement, write_profile_artifacts, PLANNER_SCALE_M, SERVICE_TELEMETRY_TICKS,
};
use mux_obs_analysis::{
    analyze_journal, check_baseline_with_work, device_attribution, explain_job,
    lifecycle_chrome_trace, parse_profile, profile_diff, render_profile_diff,
    timeline_chrome_trace, PerfBaseline, PerfMeasurement, StallClass, WorkCounts,
};

/// The experiment ids the bench suite produces, with one-line descriptions,
/// in paper order.
const EXPERIMENTS: &[(&str, &str)] = &[
    ("table1_models", "Table 1 — model configurations"),
    ("fig3_inefficiency", "Fig 3 — PEFT resource inefficiencies"),
    (
        "fig4_stalls",
        "Fig 4 — device stalls under model parallelism",
    ),
    (
        "fig9_tradeoff",
        "Fig 9 — spatial-temporal multiplexing tradeoff",
    ),
    ("fig13_chunk", "Fig 13 — chunk-size tradeoff"),
    ("fig14_end_to_end", "Fig 14 — end-to-end throughput (A40)"),
    ("fig15_h100", "Fig 15 — throughput on H100"),
    ("fig16_ablation", "Fig 16 — component ablation"),
    ("fig17_memory", "Fig 17 — memory footprint vs task count"),
    (
        "fig18_orchestration",
        "Fig 18 — one-layer orchestration utilization",
    ),
    (
        "fig19_orchestration_e2e",
        "Fig 19 — orchestration-only speedups",
    ),
    ("fig20_alignment", "Fig 20 — chunk-based data alignment"),
    (
        "fig21_scalability",
        "Fig 21a — up-only vs up-then-out scaling",
    ),
    ("fig21_cluster", "Fig 21b — 128-GPU cluster replay"),
    ("fig22_template", "Fig 22 / Appendix A — template orderings"),
    (
        "isolation_convergence",
        "§3.2 — isolation & convergence on real training",
    ),
    (
        "ext_future_work",
        "§6 — energy, priority scheduling, SLO admission",
    ),
];

fn summarize(value: &serde_json::Value, depth: usize, out: &mut String) {
    let indent = "  ".repeat(depth);
    match value {
        serde_json::Value::Object(map) => {
            for (k, v) in map {
                match v {
                    serde_json::Value::Object(_) | serde_json::Value::Array(_) => {
                        out.push_str(&format!("{indent}- **{k}**:\n"));
                        summarize(v, depth + 1, out);
                    }
                    _ => out.push_str(&format!("{indent}- {k}: {v}\n")),
                }
            }
        }
        serde_json::Value::Array(items) => {
            let shown = items.len().min(6);
            for item in &items[..shown] {
                match item {
                    serde_json::Value::Object(m) => {
                        let line: Vec<String> = m.iter().map(|(k, v)| format!("{k}={v}")).collect();
                        out.push_str(&format!("{indent}- {}\n", line.join(", ")));
                    }
                    other => out.push_str(&format!("{indent}- {other}\n")),
                }
            }
            if items.len() > shown {
                out.push_str(&format!(
                    "{indent}- … ({} more rows)\n",
                    items.len() - shown
                ));
            }
        }
        other => out.push_str(&format!("{indent}- {other}\n")),
    }
}

/// Creates `path`'s parent directory when it names one, with a readable
/// error instead of a raw panic ("foo.md" has the empty parent, which
/// needs no creation).
fn ensure_parent_dir(path: &Path) -> Result<(), String> {
    match path.parent().filter(|p| !p.as_os_str().is_empty()) {
        Some(parent) => fs::create_dir_all(parent)
            .map_err(|e| format!("cannot create directory {}: {e}", parent.display())),
        None => Ok(()),
    }
}

/// Writes `body` to `path`, creating parent directories, with readable
/// errors.
fn write_file(path: &Path, body: &str) -> Result<(), String> {
    ensure_parent_dir(path)?;
    fs::write(path, body).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn fail(msg: &str) -> ExitCode {
    eprintln!("error: {msg}");
    ExitCode::from(1)
}

/// Runs the Fig-14 scenario traced and writes its Chrome trace to `path`
/// plus the attribution summary next to it.
fn emit_trace(path: &Path) -> Result<(), String> {
    let _on = mux_obs::enabled_scope();
    mux_obs::reset();
    let (report, ops, num_devices) = fig14_trace_scenario();
    let trace = timeline_chrome_trace(&ops, num_devices);
    let body = serde_json::to_string_pretty(&trace).map_err(|e| format!("serialize trace: {e}"))?;
    write_file(path, &body)?;
    println!(
        "wrote {} ({} events, makespan {:.3}s, effective {:.0} tok/s)",
        path.display(),
        trace["traceEvents"].as_array().map(Vec::len).unwrap_or(0),
        report.metrics.makespan,
        report.metrics.effective_throughput,
    );
    let attr_path = path.with_extension("attribution.json");
    let attr = attribution_json(&ops, num_devices);
    write_file(
        &attr_path,
        &serde_json::to_string_pretty(&attr).map_err(|e| format!("serialize attribution: {e}"))?,
    )?;
    println!("wrote {}", attr_path.display());
    for d in device_attribution(&ops, num_devices) {
        let classes: Vec<String> = StallClass::ALL
            .iter()
            .map(|&c| format!("{}={:.4}s", c.name(), d.class_seconds(c)))
            .collect();
        println!("  GPU {}: stalls {}", d.device, classes.join(" "));
    }
    let snap = mux_obs::snapshot();
    for (name, stat) in &snap.phases {
        println!(
            "  phase {name}: {} call(s), {:.4}s",
            stat.count, stat.total_seconds
        );
    }
    Ok(())
}

/// Renders the Fig-14-small scenario's metrics as Prometheus text
/// exposition: run headline gauges, per-device stall classes, and the
/// `mux-obs` registry captured during the run.
fn render_prom() -> String {
    let _on = mux_obs::enabled_scope();
    mux_obs::reset();
    let (report, ops, num_devices) = fig14_small_trace_scenario();
    let m = measure_run(&report, &ops, num_devices);
    let mut out = String::new();
    out.push_str("# TYPE muxtune_run_makespan_seconds gauge\n");
    out.push_str(&format!(
        "muxtune_run_makespan_seconds {}\n",
        m.makespan_seconds
    ));
    out.push_str("# TYPE muxtune_run_mean_utilization gauge\n");
    out.push_str(&format!(
        "muxtune_run_mean_utilization {}\n",
        m.mean_utilization
    ));
    out.push_str("# TYPE muxtune_run_stall_share gauge\n");
    out.push_str(&format!("muxtune_run_stall_share {}\n", m.stall_share));
    out.push_str("# TYPE muxtune_device_stall_seconds gauge\n");
    for d in device_attribution(&ops, num_devices) {
        for class in StallClass::ALL {
            out.push_str(&format!(
                "muxtune_device_stall_seconds{{device=\"{}\",class=\"{}\"}} {}\n",
                d.device,
                class.name(),
                d.class_seconds(class)
            ));
        }
    }
    out.push_str(&mux_obs::snapshot_prom());
    out
}

/// The scenario names the baseline gate knows how to (re)measure.
const GATE_SCENARIOS: &[&str] = &[
    "fig14-small",
    "planner-scale",
    "planner-incremental",
    "churn-replay",
    "telemetry-overhead",
    "sketch-overhead",
    "trace-replay",
    "serve-mix",
    "profile-overhead",
];

/// Gate scenarios measuring host wall time (CI-noise-tolerant gating)
/// rather than simulated makespan.
const WALL_TIME_SCENARIOS: &[&str] = &[
    "planner-scale",
    "planner-incremental",
    "churn-replay",
    "telemetry-overhead",
    "sketch-overhead",
    "trace-replay",
    "serve-mix",
    "profile-overhead",
];

/// Gate scenarios measured with the self-profiler on so their baseline
/// entry carries exact per-path work budgets (`dp_cells`, `ranges_built`,
/// `heap_ops`, …). Same seed ⇒ identical counts, so these gate with
/// equality rather than a wall-time tolerance.
const PROFILED_SCENARIOS: &[&str] = &[
    "fig14-small",
    "planner-incremental",
    "churn-replay",
    "serve-mix",
];

/// Runs one gate scenario and returns its headline numbers.
fn measure_scenario(name: &str) -> Result<PerfMeasurement, String> {
    match name {
        "fig14-small" => {
            let (report, ops, num_devices) = fig14_small_trace_scenario();
            Ok(measure_run(&report, &ops, num_devices))
        }
        "planner-scale" => Ok(planner_scale_measurement()),
        "planner-incremental" => Ok(planner_incremental_measurement()),
        "churn-replay" => Ok(churn_replay_measurement()),
        "telemetry-overhead" => Ok(telemetry_overhead_measurement()),
        "sketch-overhead" => Ok(sketch_overhead_measurement()),
        "trace-replay" => Ok(trace_replay_measurement()),
        "serve-mix" => Ok(serve_mix_measurement()),
        "profile-overhead" => Ok(profile_overhead_measurement()),
        other => Err(format!(
            "unknown baseline scenario `{other}` (expected one of {GATE_SCENARIOS:?})"
        )),
    }
}

/// Runs one gate scenario with the self-profiler on and returns its
/// headline numbers plus the deterministic per-path work counters. The
/// profile arena is reset first so each scenario's counts stand alone;
/// the call tree is left in place for `--profile-out` to export.
fn measure_scenario_profiled(name: &str) -> Result<(PerfMeasurement, WorkCounts), String> {
    mux_obs::profile::reset_profile();
    let m = {
        let _profiling = mux_obs::profile::profiling_scope();
        measure_scenario(name)?
    };
    let work = mux_obs::profile::work_counts(&mux_obs::profile::snapshot_profile());
    Ok((m, work))
}

/// `--profile-out`: runs the churn-replay scenario (the heaviest planner
/// path: cold fill + warm membership deltas) with the self-profiler on
/// and writes the call-tree artifacts next to `path` — the full profile,
/// the bitwise-deterministic `.work.json`, flamegraph.pl `.collapsed`
/// stacks, and a `.chrome.json` Perfetto trace.
fn emit_profile(path: &Path) -> Result<(), String> {
    let (m, work) = measure_scenario_profiled("churn-replay")?;
    println!(
        "profiled `churn-replay`: wall {:.6}s, {} instrumented path(s)",
        m.makespan_seconds,
        work.len()
    );
    let written = write_profile_artifacts(path)
        .map_err(|e| format!("cannot write profile artifacts at {}: {e}", path.display()))?;
    for p in written {
        println!("wrote {}", p.display());
    }
    Ok(())
}

/// `--profile-diff`: parses two profile JSON artifacts (full or
/// work-profile form) and prints the regression-ranked blame paths.
fn emit_profile_diff(before_path: &Path, after_path: &Path) -> Result<(), String> {
    let read = |p: &Path| -> Result<Vec<mux_obs_analysis::ProfileRow>, String> {
        let body =
            fs::read_to_string(p).map_err(|e| format!("cannot read {}: {e}", p.display()))?;
        parse_profile(&body).map_err(|e| format!("{}: {e}", p.display()))
    };
    let before = read(before_path)?;
    let after = read(after_path)?;
    let diff = profile_diff(&before, &after);
    print!("{}", render_profile_diff(&diff, 15));
    Ok(())
}

/// Runs the service-telemetry scenario to its configured horizon, seals
/// the journal, and writes it as JSONL.
fn emit_journal(path: &Path) -> Result<(), String> {
    let mut svc = service_telemetry_scenario();
    for _ in 0..SERVICE_TELEMETRY_TICKS {
        service_telemetry_step(&mut svc);
    }
    svc.seal_journal();
    let journal = svc.journal();
    write_file(path, &journal.to_jsonl())?;
    let alerts = svc.alerts();
    println!(
        "wrote {} ({} events over {} ticks, {} active alert(s))",
        path.display(),
        journal.len(),
        svc.current_tick(),
        alerts.len()
    );
    for a in alerts {
        println!(
            "  active: {} [{}] job {} (value {:.3} vs threshold {:.3})",
            a.rule,
            a.severity.name(),
            a.job,
            a.value,
            a.threshold
        );
    }
    Ok(())
}

/// Parses and replays a JSONL journal, checking the reconstruction
/// against the embedded final-state record.
fn replay_journal(path: &Path) -> Result<(), String> {
    let body =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let journal = Journal::from_jsonl(&body)
        .map_err(|e| format!("{}: corrupt journal: {e}", path.display()))?;
    let state = journal
        .verify()
        .map_err(|e| format!("{}: replay mismatch: {e}", path.display()))?;
    println!(
        "replay OK: {} events, final tick {}, {} job(s), {} active alert(s)",
        journal.len(),
        state.tick,
        state.jobs.len(),
        state.alerts.len()
    );
    for (job, st) in &state.jobs {
        println!("  job {job}: {st}");
    }
    for (rule, job) in &state.alerts {
        println!("  alert: {rule} on job {job}");
    }
    Ok(())
}

/// Runs the service-telemetry scenario live for `ticks` ticks, printing
/// one summary line per tick.
fn watch(ticks: usize) {
    let mut svc = service_telemetry_scenario();
    println!(
        "{:>5} {:>9} {:>4} {:>4} {:>4} {:>4} {:>14}  {:<39} alerts",
        "tick",
        "now",
        "run",
        "que",
        "done",
        "rej",
        "tokens/s",
        "stall shares (bub/comm/dep/align/fault)"
    );
    for _ in 0..ticks {
        service_telemetry_step(&mut svc);
        let s = svc.telemetry_summary();
        let alerts = if s.active_alerts.is_empty() {
            "-".to_string()
        } else {
            s.active_alerts
                .iter()
                .map(|(rule, job)| format!("{rule}@job{job}"))
                .collect::<Vec<_>>()
                .join(" ")
        };
        println!(
            "{:>5} {:>9.3} {:>4} {:>4} {:>4} {:>4} {:>14.0}  {:<39} {alerts}",
            s.tick,
            s.now,
            s.running,
            s.queued,
            s.completed,
            s.rejected,
            s.throughput_tokens_per_second,
            s.stall_class_shares
                .iter()
                .map(|share| format!("{share:.3}"))
                .collect::<Vec<_>>()
                .join("/"),
        );
    }
}

/// Runs the deterministic chaos harness under `seed`, prints the journal
/// fingerprint and job outcomes, re-verifies the sealed journal by
/// replay, and optionally writes the journal as JSONL.
fn run_chaos_seed(seed: u64, journal_out: Option<&Path>) -> Result<(), String> {
    let run = mux_chaos::run_chaos(&mux_chaos::DstConfig::seeded(seed));
    println!(
        "chaos seed {seed}: journal fingerprint {:016x}",
        run.fingerprint
    );
    println!(
        "  {} fault(s) applied, {} job(s) submitted",
        run.applied_faults, run.submitted_jobs
    );
    for (state, n) in &run.outcome_counts {
        println!("  {state}: {n}");
    }
    let (fp, replayed) = mux_chaos::verify_journal(&run.journal_jsonl)?;
    if fp != run.fingerprint || replayed != run.final_state {
        return Err(format!(
            "chaos journal failed re-verification (live {:016x}, replay {fp:016x})",
            run.fingerprint
        ));
    }
    println!(
        "  replay: OK ({} events)",
        run.journal_jsonl.lines().count()
    );
    if let Some(path) = journal_out {
        write_file(path, &run.journal_jsonl)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

/// Generates a seeded workload trace and writes it as sealed JSONL.
fn trace_gen(seed: u64, jobs: usize, path: &Path) -> Result<(), String> {
    let cfg = mux_workload::TraceConfig::standard(jobs);
    let trace = mux_workload::generate(seed, &cfg);
    write_file(path, &trace.to_jsonl())?;
    println!(
        "wrote {} ({} jobs, {} tenant(s), horizon {:.1}s, fingerprint {:016x})",
        path.display(),
        trace.jobs.len(),
        trace.tenants.len(),
        trace.horizon_seconds,
        trace.fingerprint()
    );
    Ok(())
}

/// Formats a sketch's p50/p95/p99 for the replay report (`-` when the
/// sketch saw no samples).
fn quantile_cell(sketch: &mux_obs::QuantileSketch) -> String {
    if sketch.is_empty() {
        "-".to_string()
    } else {
        format!(
            "p50 {:.1}s / p95 {:.1}s / p99 {:.1}s",
            sketch.quantile(0.5),
            sketch.quantile(0.95),
            sketch.quantile(0.99)
        )
    }
}

/// Replays a trace file through the service under one policy — or all
/// built-ins when `policy` is `None` — printing the fairness/SLO report
/// and re-verifying every sealed journal. With `explain` or
/// `lifecycle_out`, the sealed journal is additionally run through the
/// lifecycle analyzer (defaulting the policy to `fcfs` so the
/// explanation describes exactly one schedule).
fn replay_trace_file(
    path: &Path,
    policy: Option<&str>,
    replan_mode: Option<mux_api::ReplanMode>,
    explain: Option<u64>,
    lifecycle_out: Option<&Path>,
) -> Result<(), String> {
    let body =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let trace = mux_workload::Trace::from_jsonl(&body)
        .map_err(|e| format!("{}: corrupt trace: {e}", path.display()))?;
    let wants_lifecycle = explain.is_some() || lifecycle_out.is_some();
    let policies: Vec<&str> = match policy {
        Some(p) => vec![p],
        None if wants_lifecycle => vec!["fcfs"],
        None => mux_api::POLICY_NAMES.to_vec(),
    };
    let mut opts = mux_workload::ReplayOptions::default();
    if let Some(mode) = replan_mode {
        opts.replan_mode = mode;
    }
    for name in policies {
        let report = mux_workload::replay_trace_by_name(&trace, name, &opts)?;
        if report.terminal_total() != report.trace_jobs {
            return Err(format!(
                "policy {name}: {} of {} trace jobs unaccounted for",
                report.trace_jobs - report.terminal_total(),
                report.trace_jobs
            ));
        }
        let (fp, _) = mux_chaos::verify_journal(&report.journal_jsonl)
            .map_err(|e| format!("policy {name}: journal failed verification: {e}"))?;
        if fp != report.journal_fingerprint {
            return Err(format!(
                "policy {name}: journal fingerprint mismatch (live {:016x}, replay {fp:016x})",
                report.journal_fingerprint
            ));
        }
        println!(
            "policy {name}: {} jobs -> {} completed, {} rejected ({} at admission), {} shed, {} cancelled in {:.1}s simulated",
            report.trace_jobs,
            report.completed,
            report.rejected,
            report.admission_rejected,
            report.shed,
            report.cancelled,
            report.makespan_seconds
        );
        println!(
            "  fairness: jain(work) {:.4}, jain(jobs) {:.4}; SLO attainment {:.4}; journal fingerprint {:016x}",
            report.jain_work, report.jain_jobs, report.slo_attainment, report.journal_fingerprint
        );
        println!(
            "  jct {}; queue wait {}",
            quantile_cell(&report.jct),
            quantile_cell(&report.queue_wait)
        );
        for (tenant, t) in &report.per_tenant {
            println!(
                "  tenant {tenant}: {} completed / {} rejected / {} shed / {} cancelled, {:.0} tokens, SLO attainment {:.4}",
                t.completed,
                t.rejected,
                t.shed,
                t.cancelled,
                t.completed_tokens,
                t.slo_attainment()
            );
            println!(
                "    jct {}; queue wait {} (share {:.3})",
                quantile_cell(&t.jct),
                quantile_cell(&t.queue_wait),
                t.queue_wait_share()
            );
        }
        if wants_lifecycle {
            let analysis = analyze_journal(&report.journal_jsonl)
                .map_err(|e| format!("policy {name}: lifecycle analysis failed: {e}"))?;
            if let Some(out) = lifecycle_out {
                write_file(out, &lifecycle_chrome_trace(&analysis))?;
                println!(
                    "wrote {} ({} job lane(s), {} decision(s))",
                    out.display(),
                    analysis.jobs.len(),
                    analysis.decisions.len()
                );
            }
            if let Some(id) = explain {
                print!("{}", explain_job(&analysis, id)?);
            }
        }
    }
    Ok(())
}

/// `--serve-mix`: runs the mixed training+serving scenario and prints
/// its deterministic summary; optionally writes the sealed journal.
fn run_serve_mix_cli(
    ratio: f64,
    requests: usize,
    policy: mux_api::ServingPolicy,
    journal_out: Option<&Path>,
) -> Result<(), String> {
    let mut cfg = mux_workload::ServeMixConfig::standard(requests);
    cfg.training_jobs = ((requests as f64 / ratio).round() as usize).max(1);
    cfg.policy = policy;
    let report = mux_workload::run_serve_mix(&cfg)?;
    print!("{}", report.render_text());
    if let Some(path) = journal_out {
        write_file(path, &report.journal)?;
        println!("wrote {}", path.display());
    }
    Ok(())
}

fn write_baseline(path: &Path) -> Result<(), String> {
    let mut entries = Vec::new();
    for &name in GATE_SCENARIOS {
        let profiled = PROFILED_SCENARIOS.contains(&name);
        let (m, work) = if profiled {
            let (m, work) = measure_scenario_profiled(name)?;
            (m, Some(work))
        } else {
            (measure_scenario(name)?, None)
        };
        let mut base = PerfBaseline::new(name, &m);
        if WALL_TIME_SCENARIOS.contains(&name) {
            // Wall-time scenarios vary with CI host load far more than
            // the simulated-makespan scenarios do; gate only
            // order-of-magnitude blowups (the regressions these exist to
            // catch — an O(M³) planner, a non-zero-cost disabled
            // telemetry path — cost ~100x, not 4x).
            base.makespan_rel_tolerance = 3.0;
        }
        if let Some(work) = work {
            // Work counters are deterministic functions of the seeded
            // scenario, so the budget is exact equality — any drift
            // (either direction) fails the gate until re-blessed.
            base.work_budgets = work;
        }
        println!(
            "  {name}: makespan {:.6}s, utilization {:.4}, stall share {:.4}{}",
            m.makespan_seconds,
            m.mean_utilization,
            m.stall_share,
            if base.work_budgets.is_empty() {
                String::new()
            } else {
                format!(", {} exact work budget path(s)", base.work_budgets.len())
            }
        );
        entries.push(base.to_json());
    }
    let body = serde_json::to_string_pretty(&serde_json::Value::Array(entries))
        .map_err(|e| format!("serialize baseline: {e}"))?;
    write_file(path, &body)?;
    println!(
        "wrote {} ({} scenario(s), planner-scale at M={PLANNER_SCALE_M})",
        path.display(),
        GATE_SCENARIOS.len()
    );
    Ok(())
}

/// The CI gate: re-run each scenario named in the checked-in baseline file
/// (an array, or a single legacy object) and compare. `Ok(true)` = every
/// scenario within tolerance, `Ok(false)` = at least one regression.
fn check_against_baseline(path: &Path) -> Result<bool, String> {
    let body =
        fs::read_to_string(path).map_err(|e| format!("cannot read {}: {e}", path.display()))?;
    let value: serde_json::Value =
        serde_json::from_str(&body).map_err(|e| format!("cannot parse {}: {e}", path.display()))?;
    let entries: Vec<serde_json::Value> = match value {
        serde_json::Value::Array(items) => items,
        single => vec![single],
    };
    if entries.is_empty() {
        return Err(format!("{} holds no baseline entries", path.display()));
    }
    let mut all_ok = true;
    for entry in &entries {
        let base = PerfBaseline::from_json(entry)?;
        // Scenarios carrying exact work budgets are re-measured with the
        // profiler on so the gate can compare per-path counters; the
        // rest run with the cheap disabled span path.
        let (m, work) = if base.work_budgets.is_empty() {
            (measure_scenario(&base.scenario)?, None)
        } else {
            let (m, work) = measure_scenario_profiled(&base.scenario)?;
            (m, Some(work))
        };
        println!(
            "perf gate: scenario `{}` vs {}",
            base.scenario,
            path.display()
        );
        match check_baseline_with_work(&base, &m, work.as_ref()) {
            Ok(lines) => {
                for l in lines {
                    println!("  ok: {l}");
                }
            }
            Err(lines) => {
                for l in lines {
                    eprintln!("  REGRESSION: {l}");
                }
                all_ok = false;
            }
        }
    }
    Ok(all_ok)
}

fn main() -> ExitCode {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../target/experiments");
    let mut out_path: Option<PathBuf> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut prom = false;
    let mut baseline_check: Option<PathBuf> = None;
    let mut baseline_write: Option<PathBuf> = None;
    let mut journal_out: Option<PathBuf> = None;
    let mut replay: Option<PathBuf> = None;
    let mut watch_ticks: Option<usize> = None;
    let mut chaos_seed: Option<u64> = None;
    let mut trace_gen_seed: Option<u64> = None;
    let mut trace_jobs: usize = 10_000;
    let mut trace_path: Option<PathBuf> = None;
    let mut replay_trace: Option<PathBuf> = None;
    let mut policy: Option<String> = None;
    let mut replan_mode: Option<mux_api::ReplanMode> = None;
    let mut explain_job_id: Option<u64> = None;
    let mut lifecycle_out: Option<PathBuf> = None;
    let mut profile_out: Option<PathBuf> = None;
    let mut profile_diff_paths: Option<(PathBuf, PathBuf)> = None;
    let mut serve_mix: Option<f64> = None;
    let mut serve_requests: usize = 2_000;
    let mut serving_policy = mux_api::ServingPolicy::Hybrid;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut take = |flag: &str| -> Option<PathBuf> {
            match args.next() {
                Some(v) => Some(PathBuf::from(v)),
                None => {
                    eprintln!("error: {flag} requires a value");
                    None
                }
            }
        };
        match arg.as_str() {
            "--trace-out" => match take("--trace-out") {
                Some(p) => trace_out = Some(p),
                None => return ExitCode::from(2),
            },
            "--check-baseline" => match take("--check-baseline") {
                Some(p) => baseline_check = Some(p),
                None => return ExitCode::from(2),
            },
            "--write-baseline" => match take("--write-baseline") {
                Some(p) => baseline_write = Some(p),
                None => return ExitCode::from(2),
            },
            "--format" => match take("--format") {
                Some(p) if p.as_os_str() == "md" => prom = false,
                Some(p) if p.as_os_str() == "prom" => prom = true,
                Some(p) => {
                    eprintln!(
                        "error: unknown --format `{}` (expected md or prom)",
                        p.display()
                    );
                    return ExitCode::from(2);
                }
                None => return ExitCode::from(2),
            },
            "--journal-out" => match take("--journal-out") {
                Some(p) => journal_out = Some(p),
                None => return ExitCode::from(2),
            },
            "--replay" => match take("--replay") {
                Some(p) => replay = Some(p),
                None => return ExitCode::from(2),
            },
            "--watch" => match take("--watch") {
                Some(p) => match p.to_string_lossy().parse::<usize>() {
                    Ok(n) => watch_ticks = Some(n),
                    Err(_) => {
                        eprintln!("error: --watch requires a tick count");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--chaos-seed" => match take("--chaos-seed") {
                Some(p) => match p.to_string_lossy().parse::<u64>() {
                    Ok(n) => chaos_seed = Some(n),
                    Err(_) => {
                        eprintln!("error: --chaos-seed requires a u64 seed");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--trace-gen" => match take("--trace-gen") {
                Some(p) => match p.to_string_lossy().parse::<u64>() {
                    Ok(n) => trace_gen_seed = Some(n),
                    Err(_) => {
                        eprintln!("error: --trace-gen requires a u64 seed");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--trace-jobs" => match take("--trace-jobs") {
                Some(p) => match p.to_string_lossy().parse::<usize>() {
                    Ok(n) if n > 0 => trace_jobs = n,
                    _ => {
                        eprintln!("error: --trace-jobs requires a positive job count");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--trace-path" => match take("--trace-path") {
                Some(p) => trace_path = Some(p),
                None => return ExitCode::from(2),
            },
            "--replay-trace" => match take("--replay-trace") {
                Some(p) => replay_trace = Some(p),
                None => return ExitCode::from(2),
            },
            "--explain-job" => match take("--explain-job") {
                Some(p) => match p.to_string_lossy().parse::<u64>() {
                    Ok(n) => explain_job_id = Some(n),
                    Err(_) => {
                        eprintln!("error: --explain-job requires a u64 job id");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--lifecycle-out" => match take("--lifecycle-out") {
                Some(p) => lifecycle_out = Some(p),
                None => return ExitCode::from(2),
            },
            "--profile-out" => match take("--profile-out") {
                Some(p) => profile_out = Some(p),
                None => return ExitCode::from(2),
            },
            "--profile-diff" => match (take("--profile-diff"), take("--profile-diff")) {
                (Some(a), Some(b)) => profile_diff_paths = Some((a, b)),
                _ => {
                    eprintln!("error: --profile-diff requires two profile paths");
                    return ExitCode::from(2);
                }
            },
            "--serve-mix" => match take("--serve-mix") {
                Some(p) => match p.to_string_lossy().parse::<f64>() {
                    Ok(r) if r > 0.0 && r.is_finite() => serve_mix = Some(r),
                    _ => {
                        eprintln!("error: --serve-mix requires a positive requests-per-job ratio");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--serve-requests" => match take("--serve-requests") {
                Some(p) => match p.to_string_lossy().parse::<usize>() {
                    Ok(n) if n > 0 => serve_requests = n,
                    _ => {
                        eprintln!("error: --serve-requests requires a positive request count");
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--serving-policy" => match take("--serving-policy") {
                Some(p) => match mux_api::ServingPolicy::parse(&p.to_string_lossy()) {
                    Some(pol) => serving_policy = pol,
                    None => {
                        eprintln!(
                            "error: unknown --serving-policy `{}` \
                             (expected spatial, temporal, or hybrid)",
                            p.to_string_lossy()
                        );
                        return ExitCode::from(2);
                    }
                },
                None => return ExitCode::from(2),
            },
            "--replan-mode" => match take("--replan-mode") {
                Some(p) => {
                    replan_mode = match p.to_string_lossy().as_ref() {
                        "simulate" => Some(mux_api::ReplanMode::Simulate),
                        "estimate" => Some(mux_api::ReplanMode::Estimate),
                        "incremental" => Some(mux_api::ReplanMode::Incremental),
                        other => {
                            eprintln!(
                                "error: unknown --replan-mode `{other}` \
                                 (expected simulate, estimate, or incremental)"
                            );
                            return ExitCode::from(2);
                        }
                    };
                }
                None => return ExitCode::from(2),
            },
            "--policy" => match take("--policy") {
                Some(p) => {
                    let name = p.to_string_lossy().into_owned();
                    if !mux_api::POLICY_NAMES.contains(&name.as_str()) {
                        eprintln!(
                            "error: unknown --policy `{name}` (expected one of {:?})",
                            mux_api::POLICY_NAMES
                        );
                        return ExitCode::from(2);
                    }
                    policy = Some(name);
                }
                None => return ExitCode::from(2),
            },
            flag if flag.starts_with("--") => {
                eprintln!("error: unknown flag `{flag}`");
                return ExitCode::from(2);
            }
            _ if out_path.is_some() => {
                eprintln!("error: unexpected argument `{arg}` (only one output path is accepted)");
                return ExitCode::from(2);
            }
            _ => out_path = Some(PathBuf::from(arg)),
        }
    }

    if let Some(path) = &trace_out {
        if let Err(e) = emit_trace(path) {
            return fail(&e);
        }
    }
    if let Some(path) = &profile_out {
        if let Err(e) = emit_profile(path) {
            return fail(&e);
        }
    }
    if let Some((a, b)) = &profile_diff_paths {
        if let Err(e) = emit_profile_diff(a, b) {
            return fail(&e);
        }
    }
    if let Some(path) = &baseline_write {
        if let Err(e) = write_baseline(path) {
            return fail(&e);
        }
    }
    if let Some(path) = &baseline_check {
        match check_against_baseline(path) {
            Ok(true) => println!("perf gate: PASS"),
            Ok(false) => {
                eprintln!("perf gate: FAIL");
                return ExitCode::from(1);
            }
            Err(e) => return fail(&e),
        }
    }
    if let Some(seed) = chaos_seed {
        if let Err(e) = run_chaos_seed(seed, journal_out.as_deref()) {
            return fail(&e);
        }
    } else if let Some(ratio) = serve_mix {
        if let Err(e) = run_serve_mix_cli(
            ratio,
            serve_requests,
            serving_policy,
            journal_out.as_deref(),
        ) {
            return fail(&e);
        }
    } else if let Some(path) = &journal_out {
        if let Err(e) = emit_journal(path) {
            return fail(&e);
        }
    }
    if let Some(path) = &replay {
        if let Err(e) = replay_journal(path) {
            return fail(&e);
        }
    }
    if let Some(seed) = trace_gen_seed {
        let path = trace_path
            .clone()
            .unwrap_or_else(|| dir.join(format!("workload_trace_{seed}.jsonl")));
        if let Err(e) = trace_gen(seed, trace_jobs, &path) {
            return fail(&e);
        }
    }
    if let Some(path) = &replay_trace {
        if let Err(e) = replay_trace_file(
            path,
            policy.as_deref(),
            replan_mode,
            explain_job_id,
            lifecycle_out.as_deref(),
        ) {
            return fail(&e);
        }
    } else if explain_job_id.is_some() || lifecycle_out.is_some() {
        return fail("--explain-job / --lifecycle-out require --replay-trace <path>");
    }
    if let Some(ticks) = watch_ticks {
        watch(ticks);
    }
    // Baseline/journal/watch-only invocations skip report generation entirely.
    let side_mode = baseline_check.is_some()
        || baseline_write.is_some()
        || journal_out.is_some()
        || replay.is_some()
        || watch_ticks.is_some()
        || chaos_seed.is_some()
        || trace_gen_seed.is_some()
        || replay_trace.is_some()
        || explain_job_id.is_some()
        || lifecycle_out.is_some()
        || profile_out.is_some()
        || profile_diff_paths.is_some()
        || serve_mix.is_some();
    if side_mode && out_path.is_none() {
        return ExitCode::SUCCESS;
    }

    if prom {
        let text = render_prom();
        match &out_path {
            Some(path) => {
                if let Err(e) = write_file(path, &text) {
                    return fail(&e);
                }
                println!("wrote {}", path.display());
            }
            None => print!("{text}"),
        }
    } else {
        let out_path = out_path.unwrap_or_else(|| dir.join("REPORT.md"));
        let mut report = String::from("# MuxTune reproduction — experiment artifacts\n\n");
        report.push_str("Generated from `target/experiments/*.json` (run `cargo bench --workspace` to refresh).\n\n");
        let mut found = 0;
        for (id, title) in EXPERIMENTS {
            let path = dir.join(format!("{id}.json"));
            report.push_str(&format!("## {title}\n\n"));
            match fs::read_to_string(&path)
                .ok()
                .and_then(|s| serde_json::from_str(&s).ok())
            {
                Some(v) => {
                    found += 1;
                    summarize(&v, 0, &mut report);
                    report.push('\n');
                }
                None => report.push_str("*(artifact missing — bench not run yet)*\n\n"),
            }
        }
        if let Err(e) = write_file(&out_path, &report) {
            return fail(&e);
        }
        println!(
            "wrote {} ({found}/{} experiments present)",
            out_path.display(),
            EXPERIMENTS.len()
        );
    }
    ExitCode::SUCCESS
}
