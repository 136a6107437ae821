//! The deterministic-simulation-test (DST) harness.
//!
//! [`run_chaos`] drives a [`FineTuneService`] through a seeded
//! [`FaultPlan`] tick by tick and returns the sealed journal with its
//! [`Journal::fingerprint`]. The harness touches no ambient entropy —
//! same [`DstConfig`] ⇒ bitwise-identical [`DstRun`] — so two
//! independent processes given the same seed must agree byte for byte,
//! and CI can pin a seed matrix by diffing exactly that.

use std::collections::BTreeMap;

use mux_api::{
    FineTuneService, JobId, JobSpec, JobState, Journal, ReplayState, ServiceConfig, ServiceFault,
};
use mux_data::corpus::DatasetKind;
use rand::{rngs::StdRng, Rng, SeedableRng};

use crate::plan::{ChaosAction, FaultPlan, FaultPlanConfig};

/// Backbones the harness rotates through (all registered in `mux-model`).
pub const BACKBONES: [&str; 2] = ["LLaMA2-7B", "GPT3-2.7B"];

/// Datasets the harness rotates through.
pub const DATASETS: [DatasetKind; 3] =
    [DatasetKind::Sst2, DatasetKind::OpenBookQa, DatasetKind::Rte];

/// Everything a chaos run depends on. No hidden inputs: two runs with
/// equal configs are bitwise-identical.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DstConfig {
    /// Seed for both the fault plan and the workload generator.
    pub seed: u64,
    /// Simulation ticks.
    pub ticks: u64,
    /// Seconds per tick.
    pub dt: f64,
    /// GPU pool size handed to [`ServiceConfig::a40_pool`].
    pub gpus_total: usize,
    /// Jobs submitted up front (more arrive via plan churn).
    pub initial_jobs: usize,
    /// Chaos events scheduled across the run.
    pub fault_events: usize,
    /// Cap on permanent device losses.
    pub max_device_losses: usize,
}

impl Default for DstConfig {
    fn default() -> Self {
        Self {
            seed: 0,
            ticks: 200,
            dt: 0.05,
            gpus_total: 8,
            initial_jobs: 3,
            fault_events: 12,
            max_device_losses: 2,
        }
    }
}

impl DstConfig {
    /// A config differing from the default only in `seed`.
    pub fn seeded(seed: u64) -> Self {
        Self {
            seed,
            ..Self::default()
        }
    }
}

/// The output of one chaos run.
#[derive(Debug, Clone, PartialEq)]
pub struct DstRun {
    /// Seed the run was driven by.
    pub seed: u64,
    /// FNV-1a fingerprint of the sealed journal — the determinism pin.
    pub fingerprint: u64,
    /// The sealed journal, serialized as JSONL.
    pub journal_jsonl: String,
    /// Replay-visible terminal state (job lifecycle map + alerts).
    pub final_state: ReplayState,
    /// Fault injections that actually landed (invalid targets — e.g. a
    /// device already lost — are skipped, deterministically).
    pub applied_faults: usize,
    /// Jobs submitted across the run (initial + churn).
    pub submitted_jobs: usize,
    /// Terminal job states → count, e.g. `{"completed": 3, "rejected": 1}`.
    pub outcome_counts: BTreeMap<String, usize>,
}

/// Runs the service under the seeded fault plan and seals the journal.
pub fn run_chaos(cfg: &DstConfig) -> DstRun {
    let plan = FaultPlan::generate(
        cfg.seed,
        &FaultPlanConfig {
            ticks: cfg.ticks,
            events: cfg.fault_events,
            instances: (cfg.gpus_total / 4).max(1),
            devices_per_instance: 4,
            max_device_losses: cfg.max_device_losses,
            backbones: BACKBONES.len(),
            datasets: DATASETS.len(),
        },
    );
    let mut svc_cfg = ServiceConfig::a40_pool(cfg.gpus_total);
    svc_cfg.backbone_layers = Some(8); // keep per-tick planning cheap
    let mut svc = FineTuneService::new(svc_cfg);

    // Seeded initial workload, drawn from a *separate* stream so plan
    // generation and workload generation can't perturb each other.
    let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x9e37_79b9_7f4a_7c15);
    let mut submitted: Vec<JobId> = Vec::new();
    for _ in 0..cfg.initial_jobs {
        submitted.push(svc.submit(gen_spec(&mut rng)));
    }

    let mut applied = 0usize;
    for tick in 0..cfg.ticks {
        for ev in plan.at(tick) {
            applied += apply_action(&mut svc, &mut submitted, &ev.action) as usize;
        }
        svc.advance(cfg.dt);
    }
    // Drain whatever survived the chaos so terminal states are terminal.
    svc.run_to_completion();
    svc.seal_journal();

    let final_state = svc.state_fingerprint();
    let mut outcome_counts: BTreeMap<String, usize> = BTreeMap::new();
    for id in &submitted {
        let state = match svc.job(*id).map(|j| j.state) {
            Some(JobState::Completed) => "completed",
            Some(JobState::Rejected) => "rejected",
            Some(JobState::Queued) => "queued",
            Some(JobState::Running { .. }) => "running",
            None => "lost",
        };
        *outcome_counts.entry(state.to_string()).or_insert(0) += 1;
    }
    let journal_jsonl = svc.journal().to_jsonl();
    DstRun {
        seed: cfg.seed,
        fingerprint: Journal::fingerprint_of(&journal_jsonl),
        journal_jsonl,
        final_state,
        applied_faults: applied,
        submitted_jobs: submitted.len(),
        outcome_counts,
    }
}

/// Re-verifies a serialized chaos journal: parses it, replays it, and
/// returns `(fingerprint, replayed final state)`.
pub fn verify_journal(jsonl: &str) -> Result<(u64, ReplayState), String> {
    let journal = Journal::from_jsonl(jsonl)?;
    let state = journal.verify()?;
    Ok((journal.fingerprint(), state))
}

fn gen_spec(rng: &mut StdRng) -> JobSpec {
    let backbone = BACKBONES[rng.gen_range(0..BACKBONES.len())];
    let dataset = DATASETS[rng.gen_range(0..DATASETS.len())];
    let tokens = 10_000 * rng.gen_range(2..8u64);
    JobSpec::lora(backbone, dataset, 16, 4, tokens).with_priority(rng.gen_range(0..4u32) as u8)
}

/// Applies one chaos action; returns whether it landed. Invalid targets
/// (no live instance, device already lost, job already terminal) are
/// skipped — the *attempt* is still deterministic, so skipping is too.
///
/// Public so external drivers (the workload trace replayer) can inject a
/// [`FaultPlan`]'s actions mid-run with exactly the chaos harness's
/// virtual-index resolution. `submitted` is the churn ledger: SubmitJob
/// appends the new handle, CancelJob picks its victim from it.
pub fn apply_action(
    svc: &mut FineTuneService,
    submitted: &mut Vec<JobId>,
    action: &ChaosAction,
) -> bool {
    let live = svc.instance_count();
    let resolve = |virtual_idx: usize| -> Option<usize> { (live > 0).then(|| virtual_idx % live) };
    match action {
        ChaosAction::DeviceSlowdown {
            instance,
            device,
            factor,
        } => resolve(*instance)
            .map(|i| {
                svc.inject_fault(ServiceFault::DeviceSlowdown {
                    instance: i,
                    device: *device,
                    factor: *factor,
                })
                .is_ok()
            })
            .unwrap_or(false),
        ChaosAction::LinkDegrade { instance, factor } => resolve(*instance)
            .map(|i| {
                svc.inject_fault(ServiceFault::LinkDegrade {
                    instance: i,
                    factor: *factor,
                })
                .is_ok()
            })
            .unwrap_or(false),
        ChaosAction::TransientComm { instance, failures } => resolve(*instance)
            .map(|i| {
                svc.inject_fault(ServiceFault::TransientComm {
                    instance: i,
                    failures: *failures,
                })
                .is_ok()
            })
            .unwrap_or(false),
        ChaosAction::DeviceLoss { instance, device } => resolve(*instance)
            .map(|i| {
                svc.inject_fault(ServiceFault::DeviceLoss {
                    instance: i,
                    device: *device,
                })
                .is_ok()
            })
            .unwrap_or(false),
        ChaosAction::ClearFaults { instance } => resolve(*instance)
            .map(|i| svc.clear_fault(i).is_ok())
            .unwrap_or(false),
        ChaosAction::SubmitJob {
            backbone,
            dataset,
            tokens,
            priority,
        } => {
            let spec = JobSpec::lora(
                BACKBONES[*backbone % BACKBONES.len()],
                DATASETS[*dataset % DATASETS.len()],
                16,
                4,
                *tokens,
            )
            .with_priority(*priority);
            submitted.push(svc.submit(spec));
            true
        }
        ChaosAction::CancelJob { job } => {
            if submitted.is_empty() {
                return false;
            }
            let id = submitted[*job % submitted.len()];
            svc.cancel(id, "chaos churn")
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_twice_is_bitwise_identical() {
        for seed in [0u64, 3, 11] {
            let a = run_chaos(&DstConfig::seeded(seed));
            let b = run_chaos(&DstConfig::seeded(seed));
            assert_eq!(a.fingerprint, b.fingerprint, "seed {seed}");
            assert_eq!(a.journal_jsonl, b.journal_jsonl, "seed {seed}");
            assert_eq!(a, b, "seed {seed}: whole run output matches");
        }
    }

    #[test]
    fn chaos_runs_terminate_every_job() {
        let run = run_chaos(&DstConfig::seeded(5));
        assert!(run.submitted_jobs >= 3);
        for state in run.outcome_counts.keys() {
            assert!(
                state == "completed" || state == "rejected",
                "job stuck in non-terminal state {state}"
            );
        }
    }

    #[test]
    fn sealed_chaos_journal_replays_to_the_live_state() {
        let run = run_chaos(&DstConfig::seeded(9));
        let (fp, replayed) = verify_journal(&run.journal_jsonl).expect("journal verifies");
        assert_eq!(fp, run.fingerprint);
        assert_eq!(replayed, run.final_state);
    }
}
