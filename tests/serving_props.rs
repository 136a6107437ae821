//! Property battery for the unified fine-tuning + serving runtime
//! (ROADMAP item 1): request-state conservation, physical latency lower
//! bounds, token accounting, and the request-level determinism oracle.
//!
//! Every property reads the **sealed journal** rather than runtime
//! state, so what is pinned here is exactly what `Journal::verify` and
//! the CI diff legs see.

use std::collections::BTreeMap;

use muxtune::api::{EventKind, JobId, Journal, JournalEvent};
use muxtune::prelude::*;
use muxtune::workload::{
    generate_requests, request_outcomes, run_serve_mix, RequestConfig, ServeMixConfig,
    ServeMixReport,
};
use proptest::prelude::*;

fn small_mix(seed: u64, requests: usize, training_jobs: usize) -> ServeMixReport {
    let mut cfg = ServeMixConfig::standard(requests);
    cfg.seed = seed;
    cfg.training_jobs = training_jobs;
    run_serve_mix(&cfg).expect("serve mix drains")
}

/// Every generated request lands in **exactly one** of
/// completed / rejected / timed-out — none lost, none double-counted —
/// and the journal's census agrees with the runtime stats.
#[test]
fn request_state_conservation() {
    let report = small_mix(42, 60, 3);
    let journal = Journal::from_jsonl(&report.journal).expect("journal parses");
    let outcomes = request_outcomes(&journal);
    assert_eq!(outcomes.len(), 60, "arrivals journaled");
    let mut completed = 0usize;
    let mut rejected = 0usize;
    let mut timed_out = 0usize;
    for (request, terminals) in &outcomes {
        assert_eq!(
            terminals.len(),
            1,
            "request {request} has {} terminal events: {terminals:?}",
            terminals.len()
        );
        match terminals[0].as_str() {
            "completed" => completed += 1,
            "rejected" => rejected += 1,
            "timed_out" => timed_out += 1,
            other => panic!("request {request}: unknown terminal {other:?}"),
        }
    }
    assert_eq!(completed, report.serving.completed as usize);
    assert_eq!(rejected, report.serving.rejected as usize);
    assert_eq!(timed_out, report.serving.timed_out as usize);
    assert_eq!(completed + rejected + timed_out, 60);
}

/// Journaled TTFT respects physics: it covers the request's queue wait
/// plus at least one solo prefill of its own prompt (a batch containing
/// the request can only be slower than the request alone, and the
/// spatial rate scale only stretches time).
#[test]
fn ttft_is_bounded_below_by_prefill_time() {
    let report = small_mix(42, 60, 3);
    let journal = Journal::from_jsonl(&report.journal).expect("journal parses");
    let phase = PhaseModel::for_model(GpuSpec::a40(), &ModelConfig::llama2_7b().with_layers(8));
    let mut prompts: BTreeMap<u64, u64> = BTreeMap::new();
    let mut checked = 0usize;
    for ev in journal.events() {
        match &ev.kind {
            EventKind::RequestArrive {
                request,
                prompt_tokens,
                ..
            } => {
                prompts.insert(*request, *prompt_tokens);
            }
            EventKind::RequestPrefill {
                request,
                ttft_seconds,
            } => {
                let prompt = prompts[request];
                let floor = phase.prefill_time(prompt);
                assert!(
                    *ttft_seconds >= floor - 1e-12,
                    "request {request}: ttft {ttft_seconds} below solo prefill {floor} \
                     ({prompt} prompt tokens)"
                );
                checked += 1;
            }
            _ => {}
        }
    }
    assert!(checked > 0, "no prefill events to check");
}

/// The journal's decode-token accounting matches the generator: for every
/// completed request, the journaled decode count equals the generated
/// output length, token for token.
#[test]
fn decode_tokens_match_generated_output_lengths() {
    let cfg = ServeMixConfig::standard(60);
    let mut mix = cfg.clone();
    mix.training_jobs = 3;
    let report = run_serve_mix(&mix).expect("serve mix drains");
    let generated = generate_requests(mix.seed, &RequestConfig::standard(mix.requests));
    let journal = Journal::from_jsonl(&report.journal).expect("journal parses");
    let mut journaled_total = 0u64;
    let mut completed = 0usize;
    for ev in journal.events() {
        if let EventKind::RequestComplete {
            request,
            decode_tokens,
            ..
        } = &ev.kind
        {
            let spec = &generated[*request as usize];
            assert_eq!(spec.id, *request, "generator ids are positional");
            assert_eq!(
                *decode_tokens, spec.output_tokens,
                "request {request}: journaled {decode_tokens} decode tokens, \
                 generated {}",
                spec.output_tokens
            );
            journaled_total += decode_tokens;
            completed += 1;
        }
    }
    assert!(completed > 0, "no completions to check");
    assert_eq!(journaled_total, report.serving.decode_tokens);
}

/// The determinism oracle at request level: same seed ⇒ bitwise-identical
/// serving journal, across two runs each of eight seeds. Different seeds
/// must actually differ (the oracle is not vacuous).
#[test]
fn same_seed_serving_journals_are_bitwise_identical_across_eight_seeds() {
    let mut fingerprints = Vec::new();
    for seed in 0..8u64 {
        let a = small_mix(seed, 30, 2);
        let b = small_mix(seed, 30, 2);
        assert_eq!(
            a.journal, b.journal,
            "seed {seed}: serving journal not bitwise-stable"
        );
        assert_eq!(a.fingerprint, b.fingerprint);
        assert_eq!(a.render_text(), b.render_text());
        fingerprints.push(a.fingerprint);
    }
    fingerprints.sort_unstable();
    fingerprints.dedup();
    assert!(
        fingerprints.len() > 1,
        "eight seeds collapsed to one journal — the seed is dead"
    );
}

/// Differential gate: with serving enabled but an **empty** request
/// stream, the service must behave bitwise-identically to a
/// serving-disabled service — same journal fingerprint, same job-outcome
/// tuples. Serving that is not exercised must be unobservable.
#[test]
fn empty_request_stream_is_differentially_invisible() {
    let run = |serving: bool| {
        let mut cfg = ServiceConfig::a40_pool(4);
        cfg.backbone_layers = Some(8);
        let mut svc = FineTuneService::new(cfg);
        if serving {
            svc.enable_serving(ServingConfig::new(
                ServingPolicy::Hybrid,
                PhaseModel::for_model(GpuSpec::a40(), &ModelConfig::llama2_7b().with_layers(8)),
            ));
            svc.submit_requests(Vec::new());
        }
        let ids = [
            svc.submit(JobSpec::lora(
                "LLaMA2-7B",
                muxtune::data::corpus::DatasetKind::Sst2,
                16,
                4,
                200_000,
            )),
            svc.submit(
                JobSpec::lora(
                    "LLaMA2-7B",
                    muxtune::data::corpus::DatasetKind::OpenBookQa,
                    16,
                    4,
                    100_000,
                )
                .with_priority(3),
            ),
        ];
        for _ in 0..200 {
            svc.tick(0.05);
        }
        svc.seal_journal();
        svc.journal().verify().expect("journal verifies");
        let outcomes: Vec<(JobId, Option<JobState>)> = ids
            .iter()
            .map(|id| (*id, svc.job(*id).map(|j| j.state)))
            .collect();
        (
            svc.journal().fingerprint(),
            svc.journal().to_jsonl(),
            outcomes,
        )
    };
    let (fp_on, journal_on, outcomes_on) = run(true);
    let (fp_off, journal_off, outcomes_off) = run(false);
    assert_eq!(
        journal_on, journal_off,
        "an idle serving runtime leaked into the journal"
    );
    assert_eq!(fp_on, fp_off);
    assert_eq!(outcomes_on, outcomes_off);
}

/// How a run's clock is driven to drain.
#[derive(Debug, Clone, Copy)]
enum Drive {
    /// `advance_to` the next event, until none is scheduled.
    Events,
    /// `tick(dt)` until every job and request is terminal.
    Ticks(f64),
}

/// A Spatial-policy service (the one policy with no per-tick decision)
/// on a 4-GPU pool with `requests` seeded requests, slowed to arrive
/// while three LoRA jobs of `tokens`, `tokens / 2` and `tokens / 4`
/// train, driven to drain by `drive`. Returns the unsealed journal's
/// lines with every tick stamp masked to 0.
fn spatial_journal_lines(seed: u64, requests: usize, tokens: u64, drive: Drive) -> Vec<String> {
    let mut cfg = ServiceConfig::a40_pool(4);
    cfg.backbone_layers = Some(8);
    let mut svc = FineTuneService::new(cfg);
    svc.enable_serving(ServingConfig::new(
        ServingPolicy::Spatial,
        PhaseModel::for_model(GpuSpec::a40(), &ModelConfig::llama2_7b().with_layers(8)),
    ));
    let stream = RequestConfig {
        base_rate: 8.0,
        ..RequestConfig::standard(requests)
    };
    svc.submit_requests(generate_requests(seed, &stream));
    let lora = |dataset, tokens| JobSpec::lora("LLaMA2-7B", dataset, 16, 4, tokens);
    let jobs = [
        svc.submit(lora(DatasetKind::Sst2, tokens)),
        svc.submit(lora(DatasetKind::OpenBookQa, tokens / 2)),
        svc.submit(lora(DatasetKind::Rte, tokens / 4)),
    ];
    let drained = |svc: &FineTuneService| {
        svc.serving_idle()
            && jobs.iter().all(|&id| {
                matches!(
                    svc.job(id).map(|j| j.state),
                    Some(JobState::Completed | JobState::Rejected)
                )
            })
    };
    // Bounded, so a loop that stops firing fails instead of hanging.
    for _ in 0..100_000 {
        match drive {
            Drive::Events => match svc.next_event_at() {
                Some(at) => svc.advance_to(at),
                None => break,
            },
            Drive::Ticks(_) if drained(&svc) => break,
            Drive::Ticks(dt) => svc.tick(dt),
        }
    }
    assert!(drained(&svc), "{drive:?} left work undone");
    svc.journal()
        .events()
        .iter()
        .map(|e| {
            let mut line = String::new();
            JournalEvent {
                tick: 0,
                ..e.clone()
            }
            .write_jsonl(&mut line);
            line
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// One event loop: training and serving events fire at their own
    /// times in one `(time, class)` order, so how the clock is driven
    /// cannot move a journal line. Driving by `advance_to` alone, by
    /// `tick(0.05)` and by `tick(0.01)` journals the same events in the
    /// same order, at the same `now`, with the same payloads.
    #[test]
    fn serving_and_training_events_fire_in_one_order_however_the_clock_is_driven(
        seed in 0u64..1_000_000,
        requests in 16usize..48,
        tokens in 10_000u64..60_000,
    ) {
        let by_events = spatial_journal_lines(seed, requests, tokens, Drive::Events);
        prop_assert!(
            by_events.iter().any(|l| l.contains("\"request_prefill\"")),
            "advance_to alone must serve"
        );
        for dt in [0.05, 0.01] {
            let by_ticks = spatial_journal_lines(seed, requests, tokens, Drive::Ticks(dt));
            let first_diff = by_events
                .iter()
                .zip(&by_ticks)
                .position(|(a, b)| a != b)
                .or((by_events.len() != by_ticks.len()).then(|| by_events.len().min(by_ticks.len())));
            prop_assert!(
                first_diff.is_none(),
                "tick({dt}) differs from advance_to at line {}: {:?} vs {:?}",
                first_diff.unwrap_or(0),
                by_events.get(first_diff.unwrap_or(0)),
                by_ticks.get(first_diff.unwrap_or(0))
            );
        }
    }
}
