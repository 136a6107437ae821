//! The replayable event journal: an append-only, JSONL-serializable log
//! of every service state transition.
//!
//! The line format — [`JournalEvent`], [`EventKind`], and the JSONL
//! writer and reader — lives in `mux_obs_analysis::journal` and is
//! re-exported here, so the service's replay and the offline lifecycle
//! analysis read one schema with one codec. This module owns the log
//! itself: appending (with profiler work counters), serialization, and
//! the replay fold.
//! [`Journal::replay`] reconstructs the per-job lifecycle state and the
//! active alert set from the events alone, and the service
//! property-tests that any *prefix* of the journal replays to exactly the
//! live state at that tick (the **replay invariant**).
//!
//! A sealed journal ends with an [`EventKind::Final`] record embedding
//! the writer's own final state; [`Journal::verify`] replays the log and
//! compares against it, so `report --replay` can detect a corrupted or
//! truncated journal with no other inputs.

use std::collections::{BTreeMap, BTreeSet};

use mux_obs::fingerprint::Fnv1a;
pub use mux_obs_analysis::journal::{
    DecisionCandidate, EventKind, JournalEvent, DECISION_CANDIDATE_CAP,
};

/// State reconstructed by replaying a journal (prefix).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ReplayState {
    /// Tick of the last replayed event.
    pub tick: u64,
    /// Job handle → lifecycle state string.
    pub jobs: BTreeMap<u64, String>,
    /// Active `(rule, job)` alert pairs.
    pub alerts: BTreeSet<(String, u64)>,
}

/// The append-only event log.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Journal {
    events: Vec<JournalEvent>,
}

impl Journal {
    /// An empty journal.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends an event, assigning the next sequence number.
    pub fn push(&mut self, tick: u64, now: f64, kind: EventKind) {
        mux_obs::profile::work("journal_events", 1);
        self.events.push(JournalEvent {
            seq: self.events.len() as u64,
            tick,
            now,
            kind,
        });
    }

    /// The recorded events, in order.
    pub fn events(&self) -> &[JournalEvent] {
        &self.events
    }

    /// Number of recorded events.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Whether the journal holds no events.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Serializes the journal as JSONL (one event per line).
    pub fn to_jsonl(&self) -> String {
        let mut out = String::new();
        self.encode(|line| out.push_str(line));
        out
    }

    /// Encodes every event's line, newline included, through one reused
    /// buffer into `sink`: the one encode behind [`Journal::to_jsonl`] and
    /// [`Journal::fingerprint`], profiled as the `journal.to_jsonl` span
    /// with its `journal_bytes` counter.
    fn encode(&self, mut sink: impl FnMut(&str)) {
        let _span = mux_obs::span("journal.to_jsonl");
        let mut line = String::new();
        let mut bytes = 0;
        for ev in &self.events {
            line.clear();
            ev.write_jsonl(&mut line);
            line.push('\n');
            bytes += line.len();
            sink(&line);
        }
        mux_obs::profile::work("journal_bytes", bytes as u64);
    }

    /// Parses a JSONL journal with the shared line reader
    /// (`mux_obs_analysis::journal::parse_jsonl`), validating that
    /// sequence numbers are the contiguous run 0..n (any splice or dropped
    /// line breaks this).
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        mux_obs_analysis::journal::parse_jsonl(text).map(|events| Self { events })
    }

    /// A 64-bit FNV-1a fingerprint of the serialized journal. It equals
    /// `Journal::fingerprint_of(&self.to_jsonl())`, but streams the lines
    /// through one reused buffer instead of building the whole text.
    ///
    /// Two runs are behaviourally identical iff every journal line matches,
    /// so fingerprint equality is the determinism oracle the chaos harness
    /// pins: same seed ⇒ same fingerprint, bit for bit.
    pub fn fingerprint(&self) -> u64 {
        let mut hash = Fnv1a::new();
        self.encode(|line| hash.update(line.as_bytes()));
        hash.finish()
    }

    /// The fingerprint of serialized journal text (64-bit FNV-1a over its
    /// bytes). A caller that needs both a journal's text and its
    /// fingerprint encodes once with [`Journal::to_jsonl`] and hashes the
    /// text with this.
    pub fn fingerprint_of(jsonl: &str) -> u64 {
        mux_obs::fingerprint::fnv1a_64(jsonl.as_bytes())
    }

    /// Replays the whole journal into a [`ReplayState`].
    pub fn replay(&self) -> ReplayState {
        self.replay_prefix(u64::MAX)
    }

    /// Replays only events with `tick <= tick_limit`.
    ///
    /// Events are filtered (not truncated at the first over-limit tick)
    /// and folded in simulated-time order — a stable sort on
    /// `(now, tick)`, the identity on any journal a single service
    /// emitted — so journals whose event order is not globally monotonic,
    /// e.g. the output of [`Journal::merge`] over independently-ticking
    /// sources or a re-assembled multi-tenant trace replay, reach the
    /// same state as a time-sorted copy would. The replayed tick is the
    /// maximum seen, not the last seen.
    pub fn replay_prefix(&self, tick_limit: u64) -> ReplayState {
        let mut ordered: Vec<&JournalEvent> = self.events.iter().collect();
        ordered.sort_by(|a, b| a.now.total_cmp(&b.now).then_with(|| a.tick.cmp(&b.tick)));
        let mut state = ReplayState::default();
        for ev in ordered {
            if ev.tick > tick_limit {
                continue;
            }
            state.tick = state.tick.max(ev.tick);
            match &ev.kind {
                EventKind::Submit { job, .. } => {
                    state.jobs.insert(*job, "queued".to_string());
                }
                EventKind::Reject { job, .. } => {
                    state.jobs.insert(*job, "rejected".to_string());
                }
                EventKind::Dispatch { job, instance } => {
                    state.jobs.insert(*job, format!("running@{instance}"));
                }
                EventKind::Complete { job } => {
                    state.jobs.insert(*job, "completed".to_string());
                }
                EventKind::AlertFired { rule, job, .. } => {
                    state.alerts.insert((rule.clone(), *job));
                }
                EventKind::AlertCleared { rule, job } => {
                    state.alerts.remove(&(rule.clone(), *job));
                }
                // Shed / RecoverShed are informational (the paired Reject
                // moves the job); Decision is pure provenance (the paired
                // Dispatch/Shed moves the job); fault and recovery
                // markers, Replan, and Final do not change replayed job
                // state. Request/serving events live in their own id space
                // (request handles, not job handles), and Opaque events are
                // by construction kinds this build cannot interpret — all
                // replay as explicit no-ops so the job/alert fold only ever
                // sees job-scoped kinds.
                EventKind::Shed { .. }
                | EventKind::Replan { .. }
                | EventKind::FaultInjected { .. }
                | EventKind::FaultCleared { .. }
                | EventKind::RecoverRetry { .. }
                | EventKind::RecoverRestart { .. }
                | EventKind::RecoverReplan { .. }
                | EventKind::RecoverShed { .. }
                | EventKind::Decision { .. }
                | EventKind::RequestArrive { .. }
                | EventKind::RequestPrefill { .. }
                | EventKind::RequestComplete { .. }
                | EventKind::RequestReject { .. }
                | EventKind::RequestTimeout { .. }
                | EventKind::ServingPreempt { .. }
                | EventKind::ServingResume { .. }
                | EventKind::Opaque { .. }
                | EventKind::Final { .. } => {}
            }
        }
        state
    }

    /// The embedded [`EventKind::Final`] record, if the journal is sealed.
    pub fn embedded_final(&self) -> Option<ReplayState> {
        self.events.iter().rev().find_map(|ev| match &ev.kind {
            EventKind::Final { jobs, alerts } => Some(ReplayState {
                tick: ev.tick,
                jobs: jobs.clone(),
                alerts: alerts.clone(),
            }),
            _ => None,
        })
    }

    /// Replays the journal and checks it against the embedded final-state
    /// record. `Err` when the journal is unsealed or the replayed state
    /// disagrees (corruption / truncation).
    pub fn verify(&self) -> Result<ReplayState, String> {
        let expected = self
            .embedded_final()
            .ok_or("journal is not sealed (no final record)")?;
        let replayed = self.replay();
        if replayed.jobs != expected.jobs {
            return Err(format!(
                "replayed job states diverge from the final record:\n  replayed: {:?}\n  recorded: {:?}",
                replayed.jobs, expected.jobs
            ));
        }
        if replayed.alerts != expected.alerts {
            return Err(format!(
                "replayed alert set diverges from the final record:\n  replayed: {:?}\n  recorded: {:?}",
                replayed.alerts, expected.alerts
            ));
        }
        Ok(replayed)
    }

    /// Merges independently-recorded journals into one, ordered by
    /// simulated time (ties by tick, then source order) and re-sequenced
    /// to the contiguous run `0..n` that [`Journal::from_jsonl`] demands.
    ///
    /// Naively concatenating two journals' JSONL is rejected by the seq
    /// validation (both restart at 0) and would interleave ticks
    /// non-monotonically; `merge` is the supported way to combine, e.g.,
    /// per-shard service journals from one multi-tenant trace replay.
    ///
    /// Source `Final` seal records are dropped — they describe one
    /// source's view, not the merged state — so re-seal with
    /// [`Journal::seal`]. Errors when two sources submit the same job id:
    /// job handles must be disjoint for the merged replay to be
    /// meaningful.
    pub fn merge(sources: &[&Journal]) -> Result<Journal, String> {
        let mut owners: BTreeMap<u64, usize> = BTreeMap::new();
        for (si, j) in sources.iter().enumerate() {
            for ev in &j.events {
                if let EventKind::Submit { job, .. } = &ev.kind {
                    if let Some(prev) = owners.insert(*job, si) {
                        return Err(format!(
                            "job {job} submitted by both source {prev} and source {si}: \
                             merged journals need disjoint job-id spaces"
                        ));
                    }
                }
            }
        }
        let mut all: Vec<(usize, &JournalEvent)> = sources
            .iter()
            .enumerate()
            .flat_map(|(si, j)| {
                j.events
                    .iter()
                    .filter(|ev| !matches!(ev.kind, EventKind::Final { .. }))
                    .map(move |ev| (si, ev))
            })
            .collect();
        // Stable sort: equal (now, tick) keys keep source order, and
        // within one source the original recording order — the per-source
        // causal order is preserved because each source's (now, tick) is
        // non-decreasing.
        all.sort_by(|(sa, a), (sb, b)| {
            a.now
                .total_cmp(&b.now)
                .then_with(|| a.tick.cmp(&b.tick))
                .then_with(|| sa.cmp(sb))
        });
        let mut merged = Journal::new();
        for (_, ev) in all {
            merged.push(ev.tick, ev.now, ev.kind.clone());
        }
        Ok(merged)
    }

    /// Seals the journal by appending an [`EventKind::Final`] record
    /// embedding the replayed state, making [`Journal::verify`] pass.
    /// Counterpart of the service's live `seal_journal()` for journals
    /// assembled offline (e.g. [`Journal::merge`] output).
    pub fn seal(&mut self) {
        let state = self.replay();
        let now = self.events.last().map(|ev| ev.now).unwrap_or(0.0);
        self.push(
            state.tick,
            now,
            EventKind::Final {
                jobs: state.jobs,
                alerts: state.alerts,
            },
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::Value;

    fn sample_journal() -> Journal {
        let mut j = Journal::new();
        j.push(
            0,
            0.0,
            EventKind::Submit {
                job: 1,
                tenant: "default".into(),
                backbone: "LLaMA2-7B".into(),
                total_tokens: 1000,
                slo_seconds: Some(60.0),
            },
        );
        j.push(
            0,
            0.0,
            EventKind::Dispatch {
                job: 1,
                instance: 0,
            },
        );
        j.push(
            0,
            0.0,
            EventKind::Replan {
                instance: 0,
                epoch: 1,
                tasks: 1,
            },
        );
        j.push(
            3,
            0.3,
            EventKind::AlertFired {
                rule: "slo_burn".into(),
                severity: "critical".into(),
                job: 1,
                window: 5,
                value: 2.5,
                threshold: 1.0,
            },
        );
        j.push(
            5,
            0.5,
            EventKind::AlertCleared {
                rule: "slo_burn".into(),
                job: 1,
            },
        );
        j.push(9, 0.9, EventKind::Complete { job: 1 });
        j
    }

    fn seal(j: &mut Journal) {
        let state = j.replay();
        j.push(
            state.tick,
            0.9,
            EventKind::Final {
                jobs: state.jobs,
                alerts: state.alerts,
            },
        );
    }

    #[test]
    fn jsonl_roundtrip_preserves_every_event() {
        let mut j = sample_journal();
        seal(&mut j);
        let text = j.to_jsonl();
        let back = Journal::from_jsonl(&text).expect("parse");
        assert_eq!(back, j);
    }

    #[test]
    fn replay_reconstructs_job_lifecycle_and_alerts() {
        let j = sample_journal();
        let mid = j.replay_prefix(3);
        assert_eq!(mid.jobs[&1], "running@0");
        assert!(mid.alerts.contains(&("slo_burn".to_string(), 1)));
        let end = j.replay();
        assert_eq!(end.jobs[&1], "completed");
        assert!(end.alerts.is_empty());
        assert_eq!(end.tick, 9);
    }

    #[test]
    fn verify_accepts_a_sealed_journal_and_rejects_tampering() {
        let mut j = sample_journal();
        seal(&mut j);
        assert!(j.verify().is_ok());

        // Unsealed journal.
        assert!(sample_journal().verify().is_err());

        // Drop the completion line: seqs break on parse.
        let text = j.to_jsonl();
        let without_complete: String = text
            .lines()
            .filter(|l| !l.contains("\"complete\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Journal::from_jsonl(&without_complete).is_err());

        // Tamper with the final record instead: parse succeeds, verify
        // catches the divergence.
        let tampered = text.replace("\"completed\"", "\"queued\"");
        let parsed = Journal::from_jsonl(&tampered).expect("still valid JSONL");
        assert!(parsed.verify().is_err());
    }

    #[test]
    fn fault_and_recovery_events_roundtrip_and_do_not_move_jobs() {
        let mut j = sample_journal();
        j.push(
            4,
            0.4,
            EventKind::FaultInjected {
                kind: "device_loss".into(),
                instance: 0,
                device: Some(2),
                magnitude: 0.0,
            },
        );
        j.push(
            4,
            0.4,
            EventKind::RecoverRestart {
                job: 1,
                instance: 0,
                checkpoint_tokens: 420.0,
            },
        );
        j.push(
            4,
            0.4,
            EventKind::RecoverReplan {
                instance: 0,
                devices_left: 3,
                epoch: 2,
            },
        );
        j.push(
            5,
            0.5,
            EventKind::RecoverRetry {
                instance: 0,
                attempt: 1,
                backoff_seconds: 0.1,
            },
        );
        j.push(
            5,
            0.5,
            EventKind::FaultCleared {
                kind: "comm_transient".into(),
                instance: 0,
            },
        );
        j.push(
            6,
            0.6,
            EventKind::RecoverShed {
                job: 7,
                instance: 0,
                reason: "replan infeasible".into(),
            },
        );
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("roundtrip");
        assert_eq!(back, j);
        // Recovery markers never move job lifecycle state on their own.
        let state = j.replay();
        assert_eq!(state.jobs[&1], "completed");
        assert!(
            !state.jobs.contains_key(&7),
            "shed marker alone moves nothing"
        );
    }

    #[test]
    fn fingerprint_is_stable_and_sensitive() {
        let a = sample_journal();
        let b = sample_journal();
        assert_eq!(a.fingerprint(), b.fingerprint());
        let mut c = sample_journal();
        c.push(10, 1.0, EventKind::Complete { job: 99 });
        assert_ne!(a.fingerprint(), c.fingerprint());
        assert_eq!(Journal::new().fingerprint(), 0xcbf2_9ce4_8422_2325);
    }

    /// A second writer's journal: different job-id space, its own seq run
    /// starting at 0, ticks that interleave with [`sample_journal`]'s.
    fn other_journal() -> Journal {
        let mut j = Journal::new();
        j.push(
            1,
            0.1,
            EventKind::Submit {
                job: 2,
                tenant: "tenant-b".into(),
                backbone: "GPT3-2.7B".into(),
                total_tokens: 500,
                slo_seconds: None,
            },
        );
        j.push(
            2,
            0.2,
            EventKind::Dispatch {
                job: 2,
                instance: 0,
            },
        );
        j.push(7, 0.7, EventKind::Complete { job: 2 });
        j
    }

    #[test]
    fn concatenated_journals_fail_seq_validation_but_merge_verifies() {
        let mut a = sample_journal();
        seal(&mut a);
        let mut b = other_journal();
        let state = b.replay();
        b.push(
            state.tick,
            0.7,
            EventKind::Final {
                jobs: state.jobs,
                alerts: state.alerts,
            },
        );

        // The naive combination — concatenating the two JSONL logs — is
        // rejected: the second journal's seq restarts at 0.
        let concatenated = format!("{}{}", a.to_jsonl(), b.to_jsonl());
        let err = Journal::from_jsonl(&concatenated).unwrap_err();
        assert!(err.contains("sequence gap"), "got: {err}");

        // merge() interleaves by simulated time, re-assigns contiguous
        // seqs, drops the per-source seals, and re-seals to a journal that
        // round-trips and verifies.
        let mut merged = Journal::merge(&[&a, &b]).expect("disjoint job ids");
        assert!(
            merged.embedded_final().is_none(),
            "source seals must not survive the merge"
        );
        merged.seal();
        let text = merged.to_jsonl();
        let back = Journal::from_jsonl(&text).expect("contiguous seqs");
        let state = back.verify().expect("merged journal verifies");
        assert_eq!(state.jobs[&1], "completed");
        assert_eq!(state.jobs[&2], "completed");
        assert_eq!(state.tick, 9, "replayed tick is the max across sources");

        // Events are ordered by simulated time: job 2's submit (t=0.1)
        // lands after job 1's t=0.0 burst and before the t=0.3 alert.
        let order: Vec<&str> = back.events().iter().map(|ev| ev.kind.name()).collect();
        assert_eq!(
            order,
            [
                "submit",
                "dispatch",
                "replan",
                "submit",
                "dispatch",
                "alert_fired",
                "alert_cleared",
                "complete",
                "complete",
                "final"
            ]
        );
    }

    #[test]
    fn merge_rejects_overlapping_job_id_spaces() {
        let a = sample_journal();
        let b = sample_journal();
        let err = Journal::merge(&[&a, &b]).unwrap_err();
        assert!(err.contains("job 1"), "got: {err}");
    }

    #[test]
    fn replay_prefix_is_order_independent_for_merged_journals() {
        // Regression: replay_prefix used to stop at the first event whose
        // tick exceeded the limit and to *assign* (not max) the replayed
        // tick, so merged journals — where per-source ticks interleave
        // non-monotonically — replayed to a truncated state.
        let a = sample_journal();
        let b = other_journal();
        let merged = Journal::merge(&[&a, &b]).expect("disjoint job ids");
        // Ticks in merged order: 0,0,0,1,2,3,5,7,9 — not monotonic per
        // source boundaries but monotonic here; craft a limit that lands
        // between the sources' events.
        let mid = merged.replay_prefix(2);
        assert_eq!(mid.jobs[&1], "running@0");
        assert_eq!(mid.jobs[&2], "running@0");
        assert_eq!(mid.tick, 2);
        // A journal whose ticks are genuinely non-monotonic (source B's
        // tick-7 completion recorded before source A's tick-3 alert in
        // wall order) must still replay every <= limit event.
        let mut weird = Journal::new();
        for ev in merged.events() {
            weird.push(ev.tick, ev.now, ev.kind.clone());
        }
        // Move the last event (tick 9) to the front by rebuilding.
        let mut rotated = Journal::new();
        let evs = weird.events().to_vec();
        let last = evs.last().expect("non-empty");
        rotated.push(last.tick, last.now, last.kind.clone());
        for ev in &evs[..evs.len() - 1] {
            rotated.push(ev.tick, ev.now, ev.kind.clone());
        }
        let full = rotated.replay();
        assert_eq!(full.jobs[&1], "completed");
        assert_eq!(full.tick, 9, "tick is the max, not the last seen");
        let clipped = rotated.replay_prefix(5);
        assert!(
            clipped.alerts.is_empty(),
            "tick-5 alert_cleared replays even though the journal opens at tick 9"
        );
    }

    #[test]
    fn unknown_event_kinds_parse_as_opaque_and_replay_as_no_ops() {
        // Regression: replay used to assume every parsed kind is
        // job-scoped because from_json rejected anything it did not know,
        // so a journal written by a newer build (here: a fictional
        // `frobnicate` event wedged between job 1's lifecycle events)
        // failed wholesale instead of verifying the state it understands.
        let text = concat!(
            "{\"seq\":0,\"tick\":0,\"now\":0.0,\"event\":\"submit\",\"job\":1,",
            "\"tenant\":\"t\",\"backbone\":\"b\",\"total_tokens\":10,",
            "\"slo_seconds\":null}\n",
            "{\"seq\":1,\"tick\":1,\"now\":0.1,\"event\":\"frobnicate\",",
            "\"job\":7,\"widget\":\"x\",\"level\":3}\n",
            "{\"seq\":2,\"tick\":2,\"now\":0.2,\"event\":\"complete\",\"job\":1}\n",
            "{\"seq\":3,\"tick\":2,\"now\":0.2,\"event\":\"final\",",
            "\"jobs\":{\"1\":\"completed\"},\"alerts\":[]}\n",
        );
        let journal = Journal::from_jsonl(text).expect("unknown kinds parse");
        let ev = &journal.events()[1];
        assert_eq!(ev.kind.name(), "frobnicate");
        match &ev.kind {
            EventKind::Opaque { name, payload } => {
                assert_eq!(name, "frobnicate");
                // The envelope fields stay out of the payload; even a
                // job-named field is inert under replay.
                assert!(!payload.contains_key("seq"));
                assert!(!payload.contains_key("event"));
                assert_eq!(payload.get("widget").and_then(Value::as_str), Some("x"));
                assert_eq!(payload.get("level").and_then(Value::as_u64), Some(3));
            }
            other => panic!("expected Opaque, got {other:?}"),
        }
        // The opaque event's `job` field must NOT leak into replay state.
        let state = journal
            .verify()
            .expect("journal with unknown kind verifies");
        assert_eq!(state.jobs.len(), 1);
        assert_eq!(state.jobs[&1], "completed");

        // Opaque events survive a to_jsonl/from_jsonl round trip losslessly
        // at the value level (the payload map re-emits every field).
        let back = Journal::from_jsonl(&journal.to_jsonl()).expect("round trip");
        assert_eq!(back.events(), journal.events());
    }

    #[test]
    fn request_events_round_trip_and_replay_as_no_ops() {
        let mut j = Journal::new();
        j.push(
            0,
            0.0,
            EventKind::Submit {
                job: 1,
                tenant: "t".into(),
                backbone: "b".into(),
                total_tokens: 10,
                slo_seconds: None,
            },
        );
        j.push(
            1,
            0.1,
            EventKind::RequestArrive {
                request: 100,
                tenant: "t".into(),
                prompt_tokens: 128,
                output_tokens: 32,
            },
        );
        j.push(
            1,
            0.2,
            EventKind::RequestPrefill {
                request: 100,
                ttft_seconds: 0.1,
            },
        );
        j.push(2, 0.3, EventKind::ServingPreempt { instance: 0 });
        j.push(
            2,
            0.4,
            EventKind::RequestComplete {
                request: 100,
                decode_tokens: 32,
                latency_seconds: 0.3,
            },
        );
        j.push(2, 0.4, EventKind::ServingResume { instance: 0 });
        j.push(
            3,
            0.5,
            EventKind::RequestReject {
                request: 101,
                reason: "queue full".into(),
            },
        );
        j.push(
            3,
            0.6,
            EventKind::RequestTimeout {
                request: 102,
                waited_seconds: 2.5,
            },
        );
        j.push(4, 0.7, EventKind::Complete { job: 1 });
        j.seal();
        let state = j.verify().expect("request events do not disturb replay");
        // Request handles share no namespace with job handles: request 100
        // never appears as a job, even though its id is a u64 too.
        assert_eq!(state.jobs.len(), 1);
        assert_eq!(state.jobs[&1], "completed");
        let back = Journal::from_jsonl(&j.to_jsonl()).expect("round trip");
        assert_eq!(back.events(), j.events());
    }
}
