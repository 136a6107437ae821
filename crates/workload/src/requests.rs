//! The seeded inference-request generator: diurnal Poisson arrivals by
//! the same Lewis–Shedler thinning the job-trace generator uses (see
//! [`crate::gen`]), bounded-Pareto prompt/output token lengths, and
//! per-tenant traffic weights. Same `(seed, cfg)` ⇒ a bitwise-identical
//! request stream — the serving half of the determinism oracle.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use mux_api::RequestSpec;

/// One tenant's serving-traffic profile.
#[derive(Debug, Clone)]
pub struct RequestTenant {
    /// Tenant name (shared with the training-job tenant space).
    pub name: String,
    /// Share of request arrivals routed here (relative weight).
    pub rate_weight: f64,
}

/// Request-stream generator configuration.
#[derive(Debug, Clone)]
pub struct RequestConfig {
    /// Requests to generate.
    pub requests: usize,
    /// Mean arrival rate, requests per second (the diurnal baseline).
    pub base_rate: f64,
    /// Diurnal modulation depth in `[0, 1)`.
    pub amplitude: f64,
    /// Diurnal period, seconds.
    pub period_seconds: f64,
    /// Bounded-Pareto shape for both prompt and output lengths.
    pub pareto_alpha: f64,
    /// Shortest prompt, tokens (the Pareto lower bound).
    pub prompt_min: u64,
    /// Longest prompt, tokens (the Pareto upper bound).
    pub prompt_max: u64,
    /// Shortest output, tokens (the Pareto lower bound).
    pub output_min: u64,
    /// Longest output, tokens (the Pareto upper bound).
    pub output_max: u64,
    /// Tenant profiles (arrivals split by `rate_weight`).
    pub tenants: Vec<RequestTenant>,
}

impl RequestConfig {
    /// The standard serving mix: a chat tenant and a summarization tenant
    /// taking 3:1 of the arrivals over one diurnal swing. The tenants
    /// differ only in traffic share: every request, whichever tenant it
    /// goes to, draws its prompt from one bounded-Pareto over 16–4096
    /// tokens and its output from another over 1–512 tokens (shape 1.5
    /// for both), so most outputs are a few tokens long. Rates are scaled
    /// so 10⁴ requests span a few simulated minutes.
    pub fn standard(requests: usize) -> Self {
        Self {
            requests,
            base_rate: 50.0,
            amplitude: 0.6,
            period_seconds: 600.0,
            pareto_alpha: 1.5,
            prompt_min: 16,
            prompt_max: 4096,
            output_min: 1,
            output_max: 512,
            tenants: vec![
                RequestTenant {
                    name: "tenant-chat".into(),
                    rate_weight: 3.0,
                },
                RequestTenant {
                    name: "tenant-summarize".into(),
                    rate_weight: 1.0,
                },
            ],
        }
    }

    /// The diurnal intensity `λ(t)`, requests per second.
    pub fn rate_at(&self, t: f64) -> f64 {
        self.base_rate
            * (1.0 + self.amplitude * (2.0 * std::f64::consts::PI * t / self.period_seconds).sin())
    }
}

/// Bounded-Pareto inverse CDF over `[lo, hi]` with shape `alpha`.
fn bounded_pareto(u: f64, lo: f64, hi: f64, alpha: f64) -> f64 {
    let ratio = (lo / hi).powf(alpha);
    lo / (1.0 - u * (1.0 - ratio)).powf(1.0 / alpha)
}

/// Generates a request stream, sorted by arrival. Same `(seed, cfg)` ⇒
/// bitwise-identical output: one RNG stream, fixed draw order.
pub fn generate_requests(seed: u64, cfg: &RequestConfig) -> Vec<RequestSpec> {
    assert!(!cfg.tenants.is_empty(), "need at least one tenant profile");
    assert!(
        (0.0..1.0).contains(&cfg.amplitude),
        "amplitude must be in [0, 1) so the thinning bound is positive"
    );
    assert!(cfg.prompt_min >= 1 && cfg.prompt_min < cfg.prompt_max);
    assert!(cfg.output_min >= 1 && cfg.output_min < cfg.output_max);
    let mut rng = StdRng::seed_from_u64(seed);
    let lambda_max = cfg.base_rate * (1.0 + cfg.amplitude);
    let weight_total: f64 = cfg.tenants.iter().map(|t| t.rate_weight.max(0.0)).sum();

    let mut out = Vec::with_capacity(cfg.requests);
    let mut t = 0.0f64;
    while out.len() < cfg.requests {
        // Candidate arrival at the peak rate; thinning accept test.
        let u: f64 = rng.gen::<f64>();
        t += -(1.0 - u).ln() / lambda_max;
        if rng.gen::<f64>() >= cfg.rate_at(t) / lambda_max {
            continue;
        }
        // Tenant by rate weight.
        let mut pick = rng.gen::<f64>() * weight_total;
        let mut tenant = &cfg.tenants[0];
        for profile in &cfg.tenants {
            pick -= profile.rate_weight.max(0.0);
            if pick <= 0.0 {
                tenant = profile;
                break;
            }
        }
        let prompt_tokens = bounded_pareto(
            rng.gen::<f64>(),
            cfg.prompt_min as f64,
            cfg.prompt_max as f64,
            cfg.pareto_alpha,
        )
        .round()
        .clamp(cfg.prompt_min as f64, cfg.prompt_max as f64) as u64;
        let output_tokens = bounded_pareto(
            rng.gen::<f64>(),
            cfg.output_min as f64,
            cfg.output_max as f64,
            cfg.pareto_alpha,
        )
        .round()
        .clamp(cfg.output_min as f64, cfg.output_max as f64) as u64;
        out.push(RequestSpec {
            id: out.len() as u64,
            tenant: tenant.name.clone(),
            arrival: t,
            prompt_tokens,
            output_tokens,
        });
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_streams_are_well_formed() {
        let cfg = RequestConfig::standard(2000);
        let reqs = generate_requests(42, &cfg);
        assert_eq!(reqs.len(), 2000);
        let mut last = 0.0;
        for (i, r) in reqs.iter().enumerate() {
            assert_eq!(r.id, i as u64);
            assert!(r.arrival >= last, "arrivals sorted");
            last = r.arrival;
            assert!((cfg.prompt_min..=cfg.prompt_max).contains(&r.prompt_tokens));
            assert!((cfg.output_min..=cfg.output_max).contains(&r.output_tokens));
        }
        for t in &cfg.tenants {
            assert!(
                reqs.iter().any(|r| r.tenant == t.name),
                "tenant {} generated no requests",
                t.name
            );
        }
    }

    #[test]
    fn same_seed_is_identical_different_seed_is_not() {
        let cfg = RequestConfig::standard(500);
        assert_eq!(generate_requests(7, &cfg), generate_requests(7, &cfg));
        assert_ne!(generate_requests(7, &cfg), generate_requests(8, &cfg));
    }
}
