//! Pluggable admission/fairness policies for multi-tenant trace replay.
//!
//! The trace replayer (`mux-workload`) keeps arrivals in an external
//! pending queue and, whenever the service has room, asks a
//! [`SchedulingPolicy`] which pending job to submit next. The policy sees
//! the queue plus a [`TenantUsage`] ledger of what each tenant has already
//! received, and returns an index into the queue — nothing else. That
//! narrow contract is what makes the four textbook disciplines (FCFS,
//! strict priority, weighted fair share, DRF) drop-in interchangeable and
//! lets the differential tests replay one trace under all of them.
//!
//! Policies must be **deterministic**: the same queue and ledger must pick
//! the same job, or the same seed would stop reproducing the same journal
//! fingerprint. Every tie therefore breaks on a total order ending in the
//! unique trace id.

use std::collections::BTreeMap;

/// A trace job waiting in the replayer's pending queue.
#[derive(Debug, Clone, PartialEq)]
pub struct PendingJob {
    /// Unique id within the trace (assignment order = arrival order).
    pub trace_id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Backbone the job fine-tunes (capacity checks, not ordering).
    pub backbone: String,
    /// Arrival time, seconds from trace start.
    pub arrival: f64,
    /// Tenant priority (higher = more urgent under strict priority).
    pub priority: u8,
    /// Requested training tokens (the job's "work" dimension).
    pub total_tokens: u64,
    /// Completion SLO, seconds from submission (`None` = best-effort).
    pub slo_seconds: Option<f64>,
}

/// Per-tenant resource ledger the replayer maintains while dispatching.
///
/// Two resource dimensions back the fair-share and DRF math:
/// *slots* (jobs currently admitted and not yet finished — the service's
/// co-location capacity) and *work* (training tokens dispatched so far).
#[derive(Debug, Clone, Default)]
pub struct TenantUsage {
    /// Tenant → jobs currently in flight (admitted, not yet terminal).
    pub running_slots: BTreeMap<String, usize>,
    /// Tenant → total tokens dispatched over the whole replay.
    pub dispatched_tokens: BTreeMap<String, u64>,
    /// Tenant → fair-share weight (defaults to 1.0 when absent).
    pub weights: BTreeMap<String, f64>,
    /// Cluster-wide slot capacity (instances × max tasks per instance).
    pub total_slots: usize,
    /// Total tokens dispatched across all tenants.
    pub total_tokens: u64,
}

impl TenantUsage {
    /// The tenant's fair-share weight (1.0 when unset or non-positive).
    pub fn weight(&self, tenant: &str) -> f64 {
        match self.weights.get(tenant) {
            Some(w) if *w > 0.0 && w.is_finite() => *w,
            _ => 1.0,
        }
    }

    /// Slots the tenant currently occupies.
    pub fn slots(&self, tenant: &str) -> usize {
        self.running_slots.get(tenant).copied().unwrap_or(0)
    }

    /// Tokens the tenant has been dispatched so far.
    pub fn tokens(&self, tenant: &str) -> u64 {
        self.dispatched_tokens.get(tenant).copied().unwrap_or(0)
    }

    /// The tenant's DRF dominant share: max of its slot share and its
    /// work share. Zero-capacity denominators contribute a zero share
    /// (nothing allocated yet means nothing dominated yet).
    pub fn dominant_share(&self, tenant: &str) -> f64 {
        let slot_share = if self.total_slots > 0 {
            self.slots(tenant) as f64 / self.total_slots as f64
        } else {
            0.0
        };
        let work_share = if self.total_tokens > 0 {
            self.tokens(tenant) as f64 / self.total_tokens as f64
        } else {
            0.0
        };
        slot_share.max(work_share)
    }
}

/// How a policy orders the pending queue: *which* pending job goes next.
/// Where it then runs is the service's
/// [`DispatchPolicy`](crate::service::DispatchPolicy).
///
/// A policy is a **scoring function**: [`SchedulingPolicy::score`] maps
/// each pending job to an f64 where **lower wins**, and the provided
/// [`SchedulingPolicy::pick`] takes the argmin over the total order
/// `(score, arrival, trace_id)` — so every policy shares one deterministic
/// tiebreak and, since scores are first-class values, every decision can
/// be journaled as provenance (`report --explain-job` renders "picked
/// over X because score a < b" from the recorded scores alone).
///
/// `pick` returns the index (into `pending`) of the job to submit next,
/// or `None` to leave everything queued (only meaningful for admission
/// variants; the four built-ins always pick when the queue is non-empty).
pub trait SchedulingPolicy {
    /// Stable policy name (CLI `--policy` value, report key).
    fn name(&self) -> &'static str;

    /// What [`SchedulingPolicy::score`] measures (journaled with each
    /// decision so explanations can name the unit): `arrival_seconds`,
    /// `neg_priority`, `normalized_tokens`, `dominant_share`, …
    fn score_kind(&self) -> &'static str;

    /// The job's scheduling score — **lower wins**. Must be deterministic
    /// in `(job, usage)`.
    fn score(&self, job: &PendingJob, usage: &TenantUsage) -> f64;

    /// Chooses the next pending job to submit: the argmin of
    /// `(score, arrival, trace_id)`. Deterministic because the trailing
    /// trace id is unique. Must return a valid index when `Some`.
    fn pick(&self, pending: &[PendingJob], usage: &TenantUsage) -> Option<usize> {
        argmin_by_key(pending, |j| {
            (OrdF64(self.score(j, usage)), OrdF64(j.arrival), j.trace_id)
        })
    }
}

/// First-come-first-served: global arrival order, ties by trace id.
#[derive(Debug, Clone, Copy, Default)]
pub struct Fcfs;

impl SchedulingPolicy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn score_kind(&self) -> &'static str {
        "arrival_seconds"
    }

    fn score(&self, job: &PendingJob, _usage: &TenantUsage) -> f64 {
        job.arrival
    }
}

/// Strict priority: highest priority first, FCFS within a priority class.
#[derive(Debug, Clone, Copy, Default)]
pub struct StrictPriority;

impl SchedulingPolicy for StrictPriority {
    fn name(&self) -> &'static str {
        "priority"
    }

    fn score_kind(&self) -> &'static str {
        "neg_priority"
    }

    /// Negated priority: higher priority ⇒ smaller score ⇒ wins. Exactly
    /// the `Reverse(priority)` ordering the policy used before scores
    /// became first-class (u8 negates losslessly in f64).
    fn score(&self, job: &PendingJob, _usage: &TenantUsage) -> f64 {
        -f64::from(job.priority)
    }
}

/// Weighted fair share over dispatched work: always serve the tenant with
/// the smallest `dispatched_tokens / weight`, FCFS within the tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedFair;

impl SchedulingPolicy for WeightedFair {
    fn name(&self) -> &'static str {
        "wfs"
    }

    fn score_kind(&self) -> &'static str {
        "normalized_tokens"
    }

    fn score(&self, job: &PendingJob, usage: &TenantUsage) -> f64 {
        usage.tokens(&job.tenant) as f64 / usage.weight(&job.tenant)
    }
}

/// Dominant Resource Fairness across (slots, work): serve the tenant with
/// the smallest dominant share, FCFS within the tenant.
#[derive(Debug, Clone, Copy, Default)]
pub struct Drf;

impl SchedulingPolicy for Drf {
    fn name(&self) -> &'static str {
        "drf"
    }

    fn score_kind(&self) -> &'static str {
        "dominant_share"
    }

    fn score(&self, job: &PendingJob, usage: &TenantUsage) -> f64 {
        usage.dominant_share(&job.tenant)
    }
}

/// All built-in policies, in CLI/report order.
pub const POLICY_NAMES: [&str; 4] = ["fcfs", "priority", "wfs", "drf"];

/// Instantiates a built-in policy by its stable name.
pub fn policy_by_name(name: &str) -> Option<Box<dyn SchedulingPolicy>> {
    match name {
        "fcfs" => Some(Box::new(Fcfs)),
        "priority" => Some(Box::new(StrictPriority)),
        "wfs" => Some(Box::new(WeightedFair)),
        "drf" => Some(Box::new(Drf)),
        _ => None,
    }
}

/// Total-ordered f64 wrapper so policy keys and event times can use
/// lexicographic tuples. `total_cmp` puts NaN above every number, which
/// for a min-argmin means corrupt keys lose ties instead of poisoning the
/// ordering.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct OrdF64(pub(crate) f64);

impl Eq for OrdF64 {}

impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

fn argmin_by_key<K: Ord>(pending: &[PendingJob], key: impl Fn(&PendingJob) -> K) -> Option<usize> {
    pending
        .iter()
        .enumerate()
        .min_by_key(|(_, j)| key(j))
        .map(|(i, _)| i)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: u64, tenant: &str, arrival: f64, priority: u8, tokens: u64) -> PendingJob {
        PendingJob {
            trace_id: id,
            tenant: tenant.to_string(),
            backbone: "LLaMA2-7B".to_string(),
            arrival,
            priority,
            total_tokens: tokens,
            slo_seconds: None,
        }
    }

    #[test]
    fn fcfs_picks_earliest_arrival_ties_by_id() {
        let pending = vec![
            job(3, "a", 2.0, 9, 100),
            job(1, "b", 1.0, 0, 100),
            job(2, "c", 1.0, 5, 100),
        ];
        let usage = TenantUsage::default();
        assert_eq!(Fcfs.pick(&pending, &usage), Some(1), "earliest, lowest id");
        assert_eq!(Fcfs.pick(&[], &usage), None);
    }

    #[test]
    fn strict_priority_preempts_arrival_order() {
        let pending = vec![
            job(1, "a", 0.0, 0, 100),
            job(2, "b", 5.0, 7, 100),
            job(3, "c", 1.0, 7, 100),
        ];
        let usage = TenantUsage::default();
        // Highest priority wins; within priority 7 the earlier arrival.
        assert_eq!(StrictPriority.pick(&pending, &usage), Some(2));
    }

    #[test]
    fn weighted_fair_serves_most_underserved_tenant() {
        let pending = vec![job(1, "a", 0.0, 0, 100), job(2, "b", 1.0, 0, 100)];
        let mut usage = TenantUsage::default();
        usage.dispatched_tokens.insert("a".into(), 1000);
        usage.dispatched_tokens.insert("b".into(), 600);
        // Equal weights: b has less dispatched work.
        assert_eq!(WeightedFair.pick(&pending, &usage), Some(1));
        // Give a weight 4: its normalized share 250 drops below b's 600.
        usage.weights.insert("a".into(), 4.0);
        assert_eq!(WeightedFair.pick(&pending, &usage), Some(0));
    }

    #[test]
    fn drf_serves_smallest_dominant_share() {
        let pending = vec![job(1, "a", 0.0, 0, 100), job(2, "b", 1.0, 0, 100)];
        let mut usage = TenantUsage {
            total_slots: 10,
            total_tokens: 1000,
            ..TenantUsage::default()
        };
        // a: slot share 0.5, work share 0.1 -> dominant 0.5.
        // b: slot share 0.1, work share 0.4 -> dominant 0.4.
        usage.running_slots.insert("a".into(), 5);
        usage.dispatched_tokens.insert("a".into(), 100);
        usage.running_slots.insert("b".into(), 1);
        usage.dispatched_tokens.insert("b".into(), 400);
        assert!((usage.dominant_share("a") - 0.5).abs() < 1e-12);
        assert!((usage.dominant_share("b") - 0.4).abs() < 1e-12);
        assert_eq!(Drf.pick(&pending, &usage), Some(1));
        // Unknown tenant: zero share, always served first.
        let pending2 = vec![job(1, "a", 0.0, 0, 100), job(3, "fresh", 9.0, 0, 100)];
        assert_eq!(Drf.pick(&pending2, &usage), Some(1));
    }

    #[test]
    fn default_pick_matches_the_legacy_tuple_keys() {
        // The score-based default `pick` must order exactly like the
        // original per-policy tuple keys did (behavioral pin for journal
        // fingerprint stability across the refactor).
        let pending = vec![
            job(1, "a", 3.0, 2, 500),
            job(2, "b", 1.0, 7, 100),
            job(3, "a", 1.0, 7, 900),
            job(4, "c", 0.5, 0, 50),
        ];
        let mut usage = TenantUsage {
            total_slots: 8,
            total_tokens: 1000,
            ..TenantUsage::default()
        };
        usage.dispatched_tokens.insert("a".into(), 700);
        usage.dispatched_tokens.insert("b".into(), 300);
        usage.running_slots.insert("a".into(), 3);
        usage.weights.insert("b".into(), 2.0);

        let legacy_fcfs = argmin_by_key(&pending, |j| (OrdF64(j.arrival), j.trace_id));
        let legacy_prio = argmin_by_key(&pending, |j| {
            (std::cmp::Reverse(j.priority), OrdF64(j.arrival), j.trace_id)
        });
        let legacy_wfs = argmin_by_key(&pending, |j| {
            let normalized = usage.tokens(&j.tenant) as f64 / usage.weight(&j.tenant);
            (OrdF64(normalized), OrdF64(j.arrival), j.trace_id)
        });
        let legacy_drf = argmin_by_key(&pending, |j| {
            (
                OrdF64(usage.dominant_share(&j.tenant)),
                OrdF64(j.arrival),
                j.trace_id,
            )
        });
        assert_eq!(Fcfs.pick(&pending, &usage), legacy_fcfs);
        assert_eq!(StrictPriority.pick(&pending, &usage), legacy_prio);
        assert_eq!(WeightedFair.pick(&pending, &usage), legacy_wfs);
        assert_eq!(Drf.pick(&pending, &usage), legacy_drf);
    }

    #[test]
    fn policy_registry_covers_every_name() {
        for name in POLICY_NAMES {
            let p = policy_by_name(name).expect("registered");
            assert_eq!(p.name(), name);
        }
        assert!(policy_by_name("lottery").is_none());
    }
}
