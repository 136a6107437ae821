//! The on-disk trace format: JSONL with a header, one record per job,
//! and a final record embedding the count and fingerprint, mirroring the
//! chaos journal's seal-and-`verify` contract.

use std::collections::BTreeSet;

use mux_data::corpus::DatasetKind;
use serde_json::{Map, Value};

/// One job in a generated trace, in arrival order.
#[derive(Debug, Clone, PartialEq)]
pub struct TraceJob {
    /// Contiguous id `0..n`, assigned in arrival order.
    pub id: u64,
    /// Owning tenant.
    pub tenant: String,
    /// Arrival time, seconds from trace start.
    pub arrival_seconds: f64,
    /// Backbone family the job fine-tunes.
    pub backbone: String,
    /// Dataset name (see [`dataset_by_name`]).
    pub dataset: String,
    /// Requested training tokens (bounded-Pareto sized).
    pub total_tokens: u64,
    /// Tenant priority.
    pub priority: u8,
    /// Completion SLO, seconds from submission (`None` = best-effort).
    pub slo_seconds: Option<f64>,
    /// When the tenant cancels the job, seconds from trace start
    /// (`None` = never). Cancellation churn: the job may complete first.
    pub cancel_at: Option<f64>,
}

/// A generated multi-tenant arrival trace.
#[derive(Debug, Clone, PartialEq)]
pub struct Trace {
    /// Seed the generator ran with.
    pub seed: u64,
    /// Horizon actually covered by arrivals, seconds.
    pub horizon_seconds: f64,
    /// Tenants named by the generator config, in profile order.
    pub tenants: Vec<String>,
    /// Jobs, sorted by arrival (ids contiguous `0..n`).
    pub jobs: Vec<TraceJob>,
}

/// Resolves a trace's dataset name back to the service's corpus kind.
pub fn dataset_by_name(name: &str) -> Option<DatasetKind> {
    [DatasetKind::Sst2, DatasetKind::OpenBookQa, DatasetKind::Rte]
        .into_iter()
        .find(|k| k.name() == name)
}

impl TraceJob {
    fn to_json(&self) -> Value {
        let mut m = Map::new();
        m.insert("record".into(), "job".into());
        m.insert("id".into(), self.id.into());
        m.insert("tenant".into(), self.tenant.as_str().into());
        m.insert("arrival_seconds".into(), self.arrival_seconds.into());
        m.insert("backbone".into(), self.backbone.as_str().into());
        m.insert("dataset".into(), self.dataset.as_str().into());
        m.insert("total_tokens".into(), self.total_tokens.into());
        m.insert("priority".into(), self.priority.into());
        m.insert(
            "slo_seconds".into(),
            self.slo_seconds.map(Value::from).unwrap_or(Value::Null),
        );
        m.insert(
            "cancel_at".into(),
            self.cancel_at.map(Value::from).unwrap_or(Value::Null),
        );
        Value::Object(m)
    }

    fn from_json(v: &Value) -> Result<Self, String> {
        let obj = v.as_object().ok_or("job record is not an object")?;
        let get_u64 = |k: &str| -> Result<u64, String> {
            obj.get(k)
                .and_then(Value::as_u64)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        let get_f64 = |k: &str| -> Result<f64, String> {
            obj.get(k)
                .and_then(Value::as_f64)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        let get_str = |k: &str| -> Result<String, String> {
            obj.get(k)
                .and_then(Value::as_str)
                .map(str::to_string)
                .ok_or_else(|| format!("missing/invalid field {k:?}"))
        };
        Ok(TraceJob {
            id: get_u64("id")?,
            tenant: get_str("tenant")?,
            arrival_seconds: get_f64("arrival_seconds")?,
            backbone: get_str("backbone")?,
            dataset: get_str("dataset")?,
            total_tokens: get_u64("total_tokens")?,
            priority: get_u64("priority")? as u8,
            slo_seconds: obj.get("slo_seconds").and_then(Value::as_f64),
            cancel_at: obj.get("cancel_at").and_then(Value::as_f64),
        })
    }
}

impl Trace {
    /// The body lines (header + jobs) the fingerprint covers.
    fn body_jsonl(&self) -> String {
        let mut out = String::new();
        let mut h = Map::new();
        h.insert("record".into(), "header".into());
        h.insert("seed".into(), self.seed.into());
        h.insert("jobs".into(), (self.jobs.len() as u64).into());
        h.insert("horizon_seconds".into(), self.horizon_seconds.into());
        h.insert(
            "tenants".into(),
            Value::Array(
                self.tenants
                    .iter()
                    .map(|t| Value::from(t.as_str()))
                    .collect(),
            ),
        );
        out.push_str(&serde_json::to_string(&Value::Object(h)).expect("serialize"));
        out.push('\n');
        for job in &self.jobs {
            out.push_str(&serde_json::to_string(&job.to_json()).expect("serialize"));
            out.push('\n');
        }
        out
    }

    /// A 64-bit FNV-1a fingerprint of the header + job lines. Same seed ⇒
    /// bitwise-identical body ⇒ same fingerprint (the determinism oracle
    /// the CI run-twice diff pins).
    pub fn fingerprint(&self) -> u64 {
        mux_obs::fingerprint::fnv1a_64(self.body_jsonl().as_bytes())
    }

    /// Serializes the trace as JSONL: header, jobs, and a final record
    /// embedding the job count and fingerprint.
    pub fn to_jsonl(&self) -> String {
        let mut out = self.body_jsonl();
        let mut f = Map::new();
        f.insert("record".into(), "final".into());
        f.insert("jobs".into(), (self.jobs.len() as u64).into());
        f.insert(
            "fingerprint".into(),
            format!("{:016x}", self.fingerprint()).into(),
        );
        out.push_str(&serde_json::to_string(&Value::Object(f)).expect("serialize"));
        out.push('\n');
        out
    }

    /// Parses a serialized trace and verifies its integrity: header
    /// present, ids the contiguous run `0..n` in arrival order, final
    /// record matching the recomputed count and fingerprint. Any edit to
    /// a job line, dropped line, or reordering fails here.
    pub fn from_jsonl(text: &str) -> Result<Self, String> {
        let mut seed = None;
        let mut horizon = 0.0f64;
        let mut tenants = Vec::new();
        let mut declared: Option<(u64, String)> = None;
        let mut jobs: Vec<TraceJob> = Vec::new();
        for (i, line) in text.lines().enumerate() {
            if line.trim().is_empty() {
                continue;
            }
            let v: Value = serde_json::from_str(line)
                .map_err(|e| format!("line {}: invalid JSON: {e}", i + 1))?;
            let record = v
                .get("record")
                .and_then(Value::as_str)
                .ok_or_else(|| format!("line {}: missing record tag", i + 1))?;
            match record {
                "header" => {
                    seed = Some(
                        v.get("seed")
                            .and_then(Value::as_u64)
                            .ok_or_else(|| format!("line {}: header missing seed", i + 1))?,
                    );
                    horizon = v
                        .get("horizon_seconds")
                        .and_then(Value::as_f64)
                        .unwrap_or(0.0);
                    tenants = v
                        .get("tenants")
                        .and_then(Value::as_array)
                        .map(|a| {
                            a.iter()
                                .filter_map(Value::as_str)
                                .map(str::to_string)
                                .collect()
                        })
                        .unwrap_or_default();
                }
                "job" => {
                    let job =
                        TraceJob::from_json(&v).map_err(|e| format!("line {}: {e}", i + 1))?;
                    jobs.push(job);
                }
                "final" => {
                    let n = v
                        .get("jobs")
                        .and_then(Value::as_u64)
                        .ok_or_else(|| format!("line {}: final missing jobs", i + 1))?;
                    let fp = v
                        .get("fingerprint")
                        .and_then(Value::as_str)
                        .ok_or_else(|| format!("line {}: final missing fingerprint", i + 1))?;
                    declared = Some((n, fp.to_string()));
                }
                other => return Err(format!("line {}: unknown record {other:?}", i + 1)),
            }
        }
        let seed = seed.ok_or("trace has no header record")?;
        let trace = Trace {
            seed,
            horizon_seconds: horizon,
            tenants,
            jobs,
        };
        trace.check_well_formed()?;
        if let Some((n, fp)) = declared {
            if n != trace.jobs.len() as u64 {
                return Err(format!(
                    "final record declares {n} jobs, trace holds {}",
                    trace.jobs.len()
                ));
            }
            let actual = format!("{:016x}", trace.fingerprint());
            if fp != actual {
                return Err(format!(
                    "fingerprint mismatch: recorded {fp}, recomputed {actual} \
                     (trace body was modified)"
                ));
            }
        } else {
            return Err("trace is not sealed (no final record)".into());
        }
        Ok(trace)
    }

    /// Structural invariants every trace upholds: contiguous ids in
    /// arrival order, finite non-negative arrivals, known datasets,
    /// finite cancels not before arrival.
    pub fn check_well_formed(&self) -> Result<(), String> {
        let mut last_arrival = 0.0f64;
        let mut seen_tenants: BTreeSet<&str> = BTreeSet::new();
        for (i, job) in self.jobs.iter().enumerate() {
            if job.id != i as u64 {
                return Err(format!(
                    "job at position {i} has id {} (ids must be contiguous in arrival order)",
                    job.id
                ));
            }
            if !job.arrival_seconds.is_finite() || job.arrival_seconds < 0.0 {
                return Err(format!("job {i}: bad arrival {}", job.arrival_seconds));
            }
            if job.arrival_seconds + 1e-12 < last_arrival {
                return Err(format!("job {i}: arrivals must be non-decreasing"));
            }
            last_arrival = job.arrival_seconds;
            if dataset_by_name(&job.dataset).is_none() {
                return Err(format!("job {i}: unknown dataset {:?}", job.dataset));
            }
            if let Some(c) = job.cancel_at {
                if !c.is_finite() {
                    return Err(format!("job {i}: cancel_at {c} is not a finite time"));
                }
                if c < job.arrival_seconds {
                    return Err(format!("job {i}: cancel_at {c} precedes arrival"));
                }
            }
            seen_tenants.insert(&job.tenant);
        }
        for t in seen_tenants {
            if !self.tenants.iter().any(|n| n == t) {
                return Err(format!("job tenant {t:?} missing from header tenant list"));
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_trace() -> Trace {
        Trace {
            seed: 7,
            horizon_seconds: 10.0,
            tenants: vec!["a".into(), "b".into()],
            jobs: vec![
                TraceJob {
                    id: 0,
                    tenant: "a".into(),
                    arrival_seconds: 0.5,
                    backbone: "LLaMA2-7B".into(),
                    dataset: "SST2".into(),
                    total_tokens: 40_000,
                    priority: 1,
                    slo_seconds: Some(30.0),
                    cancel_at: None,
                },
                TraceJob {
                    id: 1,
                    tenant: "b".into(),
                    arrival_seconds: 2.0,
                    backbone: "GPT3-2.7B".into(),
                    dataset: "RTE".into(),
                    total_tokens: 90_000,
                    priority: 0,
                    slo_seconds: None,
                    cancel_at: Some(4.0),
                },
            ],
        }
    }

    #[test]
    fn jsonl_roundtrip_preserves_the_trace() {
        let t = tiny_trace();
        let back = Trace::from_jsonl(&t.to_jsonl()).expect("parse");
        assert_eq!(back, t);
        assert_eq!(back.fingerprint(), t.fingerprint());
    }

    #[test]
    fn verify_rejects_tampering_and_truncation() {
        let t = tiny_trace();
        let text = t.to_jsonl();
        // Flip a token count: fingerprint mismatch.
        let tampered = text.replace("40000", "40001");
        assert!(Trace::from_jsonl(&tampered)
            .unwrap_err()
            .contains("fingerprint"));
        // Drop a job line: count + fingerprint break.
        let dropped: String = text
            .lines()
            .filter(|l| !l.contains("\"RTE\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Trace::from_jsonl(&dropped).is_err());
        // Unsealed.
        let unsealed: String = text
            .lines()
            .filter(|l| !l.contains("\"final\""))
            .map(|l| format!("{l}\n"))
            .collect();
        assert!(Trace::from_jsonl(&unsealed).unwrap_err().contains("sealed"));
    }

    #[test]
    fn well_formedness_catches_bad_ids_and_order() {
        let mut t = tiny_trace();
        t.jobs[1].id = 5;
        assert!(t.check_well_formed().is_err());
        let mut t = tiny_trace();
        t.jobs[1].arrival_seconds = 0.1;
        assert!(t.check_well_formed().is_err());
        let mut t = tiny_trace();
        t.jobs[0].dataset = "IMAGENET".into();
        assert!(t.check_well_formed().is_err());
    }

    #[test]
    fn a_non_finite_cancel_is_refused_at_load_naming_the_job() {
        // `1e999` reads as +∞ and writes back as `null`, the value the
        // line had, so the fingerprint alone cannot see this edit.
        let text = tiny_trace().to_jsonl();
        let edited = text.replacen("\"cancel_at\":null", "\"cancel_at\":1e999", 1);
        assert_ne!(edited, text);
        assert_eq!(
            Trace::from_jsonl(&edited).unwrap_err(),
            "job 0: cancel_at inf is not a finite time"
        );
        let mut t = tiny_trace();
        t.jobs[1].cancel_at = Some(f64::NAN);
        assert_eq!(
            t.check_well_formed().unwrap_err(),
            "job 1: cancel_at NaN is not a finite time"
        );
    }

    #[test]
    fn dataset_names_roundtrip() {
        for k in [DatasetKind::Sst2, DatasetKind::OpenBookQa, DatasetKind::Rte] {
            assert_eq!(dataset_by_name(k.name()), Some(k));
        }
        assert!(dataset_by_name("nope").is_none());
    }
}
