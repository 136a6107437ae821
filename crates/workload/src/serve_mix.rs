//! The end-to-end serve-mix scenario: training jobs and an inference
//! request stream multiplexed through one `FineTuneService` on the same
//! frozen backbone (ROADMAP item 1, MuxServe/Loquetier-style).
//!
//! The driver ticks the service at a fixed `dt` (the interval of the
//! per-tick sharing decision; request and training events fire at their
//! own times inside each tick), submitting training arrivals from a
//! [`crate::gen`] trace and request arrivals from a [`crate::requests`]
//! stream, and keeps ticking until both sides drain.
//! Everything — job lifecycle, request lifecycle, preempt/resume markers —
//! lands in the one journal, so a single fingerprint pins the whole mixed
//! run: same seed ⇒ bitwise-identical journal.

use std::collections::BTreeMap;

use mux_api::{
    FineTuneService, JobId, JobSpec, JobState, Journal, ServiceConfig, ServingConfig,
    ServingPolicy, ServingStats,
};
use mux_gpu_sim::{GpuSpec, PhaseModel};
use mux_model::config::ModelConfig;
use serde_json::{Map, Value};

use crate::gen::{generate, TraceConfig};
use crate::requests::{generate_requests, RequestConfig};
use crate::trace::dataset_by_name;

/// Serve-mix scenario configuration.
#[derive(Debug, Clone)]
pub struct ServeMixConfig {
    /// Seed for both the training trace and the request stream.
    pub seed: u64,
    /// Inference requests to generate.
    pub requests: usize,
    /// Training jobs to generate.
    pub training_jobs: usize,
    /// Spatial/temporal sharing policy.
    pub policy: ServingPolicy,
    /// GPUs in the pool.
    pub gpus_total: usize,
    /// Truncated backbone depth (`None` = full model; tests use small).
    pub backbone_layers: Option<usize>,
    /// Observation tick, seconds.
    pub tick_dt: f64,
}

impl ServeMixConfig {
    /// The standard mix at a given request count: requests split 10:1
    /// against training jobs, hybrid policy, an 8-GPU pool with the
    /// planner truncated to 8 layers (the service-test shape).
    pub fn standard(requests: usize) -> Self {
        Self {
            seed: 42,
            requests,
            training_jobs: (requests / 10).max(1),
            policy: ServingPolicy::Hybrid,
            gpus_total: 8,
            backbone_layers: Some(8),
            tick_dt: 0.05,
        }
    }
}

/// What one serve-mix run produced.
#[derive(Debug, Clone)]
pub struct ServeMixReport {
    /// FNV-1a fingerprint of the sealed journal (the determinism oracle).
    pub fingerprint: u64,
    /// The sealed journal, JSONL.
    pub journal: String,
    /// Final simulated time, seconds.
    pub now: f64,
    /// Ticks driven.
    pub ticks: u64,
    /// Training jobs completed.
    pub jobs_completed: usize,
    /// Training jobs rejected (admission/shed).
    pub jobs_rejected: usize,
    /// Serving totals at the end of the run.
    pub serving: ServingStats,
    /// The `service_report()` `serving` section at the end of the run
    /// (per-tenant TTFT/per-token p50/p95/p99).
    pub serving_report: Value,
}

impl ServeMixReport {
    /// A deterministic text summary (the CLI run-twice diff surface).
    pub fn render_text(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "serve-mix: fingerprint {:016x} over {} events, {} ticks, t={:.6}s\n",
            self.fingerprint,
            self.journal.lines().count(),
            self.ticks,
            self.now
        ));
        out.push_str(&format!(
            "training: {} completed, {} rejected\n",
            self.jobs_completed, self.jobs_rejected
        ));
        let s = &self.serving;
        out.push_str(&format!(
            "serving: {} arrived = {} completed + {} rejected + {} timed out; \
             {} prompt tokens, {} decode tokens, {} preemptions\n",
            s.arrived,
            s.completed,
            s.rejected,
            s.timed_out,
            s.prompt_tokens,
            s.decode_tokens,
            s.preemptions
        ));
        let concluded = s.slo_attained + s.slo_violated;
        out.push_str(&format!(
            "slo: {}/{} attained ({:.4})\n",
            s.slo_attained,
            concluded,
            if concluded == 0 {
                1.0
            } else {
                s.slo_attained as f64 / concluded as f64
            }
        ));
        if let Some(tenants) = self
            .serving_report
            .get("per_tenant")
            .and_then(Value::as_array)
        {
            for t in tenants {
                let name = t.get("tenant").and_then(Value::as_str).unwrap_or("?");
                let q = |path: &str, key: &str| {
                    t.get(path)
                        .and_then(|v| v.get(key))
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0)
                };
                out.push_str(&format!(
                    "tenant {name}: ttft p50 {:.6} p95 {:.6} p99 {:.6}, \
                     per-token p50 {:.6} p95 {:.6} p99 {:.6}, attainment {:.4}\n",
                    q("ttft", "p50"),
                    q("ttft", "p95"),
                    q("ttft", "p99"),
                    q("per_token", "p50"),
                    q("per_token", "p95"),
                    q("per_token", "p99"),
                    t.get("slo_attainment")
                        .and_then(Value::as_f64)
                        .unwrap_or(1.0)
                ));
            }
        }
        out
    }

    /// The summary as JSON (artifact surface).
    pub fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert(
            "fingerprint".into(),
            format!("{:016x}", self.fingerprint).into(),
        );
        m.insert("now_seconds".into(), self.now.into());
        m.insert("ticks".into(), self.ticks.into());
        m.insert("jobs_completed".into(), self.jobs_completed.into());
        m.insert("jobs_rejected".into(), self.jobs_rejected.into());
        m.insert("serving".into(), self.serving_report.clone());
        Value::Object(m)
    }
}

/// Builds the serve-mix service: an A40 pool hosting the trained
/// backbones, serving enabled with the paper's LLaMA2-7B phase model.
fn build_service(cfg: &ServeMixConfig) -> FineTuneService {
    let mut svc_cfg = ServiceConfig::a40_pool(cfg.gpus_total);
    svc_cfg.backbone_layers = cfg.backbone_layers;
    let mut svc = FineTuneService::new(svc_cfg);
    let model = match cfg.backbone_layers {
        Some(n) => ModelConfig::llama2_7b().with_layers(n),
        None => ModelConfig::llama2_7b(),
    };
    svc.enable_serving(ServingConfig::new(
        cfg.policy,
        PhaseModel::for_model(GpuSpec::a40(), &model),
    ));
    svc
}

/// Runs the mixed scenario to drain and returns the sealed outcome.
///
/// Errors when the run fails to drain within a generous tick budget
/// (a liveness regression, not a data error).
pub fn run_serve_mix(cfg: &ServeMixConfig) -> Result<ServeMixReport, String> {
    let _span = mux_obs::span("serve_mix.run");
    let mut svc = build_service(cfg);
    let requests = generate_requests(cfg.seed, &RequestConfig::standard(cfg.requests));
    let last_request = requests.last().map_or(0.0, |r| r.arrival);
    svc.submit_requests(requests);

    let mut trace_cfg = TraceConfig::standard(cfg.training_jobs);
    // Serve-mix measures steady multiplexing, not churn: disable the
    // trace's cancellation stream (chaos tests cover churn separately).
    trace_cfg.cancel_fraction = 0.0;
    let trace = generate(cfg.seed, &trace_cfg);
    let mut specs: Vec<(f64, JobSpec)> = trace
        .jobs
        .iter()
        .map(|job| {
            let dataset = dataset_by_name(&job.dataset)
                .ok_or_else(|| format!("job {}: unknown dataset {:?}", job.id, job.dataset))?;
            let mut spec = JobSpec::lora(&job.backbone, dataset, 16, 4, job.total_tokens)
                .with_priority(job.priority)
                .with_tenant(&job.tenant);
            if let Some(slo) = job.slo_seconds {
                spec = spec.with_slo(slo);
            }
            Ok((job.arrival_seconds, spec))
        })
        .collect::<Result<Vec<_>, String>>()?;
    // Compress training arrivals to the serving timescale: job traces
    // span minutes, request streams seconds; the mix is interesting when
    // both are live at once.
    let job_horizon = specs.last().map_or(0.0, |(t, _)| *t);
    if last_request > 0.0 && job_horizon > 0.0 {
        let scale = last_request / job_horizon;
        for (t, _) in specs.iter_mut() {
            *t *= scale;
        }
    }

    let mut submitted: Vec<JobId> = Vec::new();
    let mut next_spec = 0usize;
    let mut ticks = 0u64;
    // Budget: the mixed trace must drain well inside 10⁶ ticks at any
    // scale the CLI exposes; blowing this is a stuck-scheduler bug.
    const MAX_TICKS: u64 = 1_000_000;
    loop {
        while next_spec < specs.len() && specs[next_spec].0 <= svc.now() {
            submitted.push(svc.submit(specs[next_spec].1.clone()));
            next_spec += 1;
        }
        let jobs_done = submitted.iter().all(|id| {
            matches!(
                svc.job(*id).map(|j| j.state),
                Some(JobState::Completed) | Some(JobState::Rejected) | None
            )
        });
        if next_spec == specs.len() && jobs_done && svc.serving_idle() {
            break;
        }
        svc.tick(cfg.tick_dt);
        ticks += 1;
        if ticks > MAX_TICKS {
            return Err(format!(
                "serve-mix failed to drain within {MAX_TICKS} ticks \
                 ({} specs pending, serving idle: {})",
                specs.len() - next_spec,
                svc.serving_idle()
            ));
        }
    }
    svc.seal_journal();
    svc.journal()
        .verify()
        .map_err(|e| format!("journal verification failed: {e}"))?;

    let mut jobs_completed = 0usize;
    let mut jobs_rejected = 0usize;
    for id in &submitted {
        match svc.job(*id).map(|j| j.state) {
            Some(JobState::Completed) => jobs_completed += 1,
            Some(JobState::Rejected) => jobs_rejected += 1,
            _ => {}
        }
    }
    let serving = svc.serving().map(|s| s.stats().clone()).unwrap_or_default();
    let serving_report = mux_api::serving::report_json(svc.serving(), svc.now());
    let journal = svc.journal().to_jsonl();
    Ok(ServeMixReport {
        fingerprint: Journal::fingerprint_of(&journal),
        journal,
        now: svc.now(),
        ticks,
        jobs_completed,
        jobs_rejected,
        serving,
        serving_report,
    })
}

/// Per-request terminal-state census from a journal: every
/// `request_arrive` id mapped to its terminal event kind. The
/// conservation property (`tests/serving_props.rs`) asserts exactly one
/// terminal per arrival.
pub fn request_outcomes(journal: &mux_api::Journal) -> BTreeMap<u64, Vec<String>> {
    use mux_api::EventKind;
    let mut outcomes: BTreeMap<u64, Vec<String>> = BTreeMap::new();
    for ev in journal.events() {
        match &ev.kind {
            EventKind::RequestArrive { request, .. } => {
                outcomes.entry(*request).or_default();
            }
            EventKind::RequestComplete { request, .. } => outcomes
                .entry(*request)
                .or_default()
                .push("completed".into()),
            EventKind::RequestReject { request, .. } => outcomes
                .entry(*request)
                .or_default()
                .push("rejected".into()),
            EventKind::RequestTimeout { request, .. } => outcomes
                .entry(*request)
                .or_default()
                .push("timed_out".into()),
            _ => {}
        }
    }
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_mix_drains_and_verifies() {
        let mut cfg = ServeMixConfig::standard(60);
        cfg.training_jobs = 3;
        let report = run_serve_mix(&cfg).expect("drains");
        assert_eq!(report.serving.arrived, 60);
        assert_eq!(
            report.serving.completed + report.serving.rejected + report.serving.timed_out,
            60
        );
        assert_eq!(report.jobs_completed + report.jobs_rejected, 3);
        // The summary renders the per-tenant quantile lines.
        let text = report.render_text();
        assert!(text.contains("tenant tenant-chat"), "got:\n{text}");
    }

    #[test]
    fn same_seed_runs_are_bitwise_identical() {
        let mut cfg = ServeMixConfig::standard(40);
        cfg.training_jobs = 2;
        let a = run_serve_mix(&cfg).expect("run a");
        let b = run_serve_mix(&cfg).expect("run b");
        assert_eq!(a.journal, b.journal);
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.render_text(), b.render_text());
    }
}
