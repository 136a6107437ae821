//! Mergeable quantile sketches with a relative-error guarantee.
//!
//! A [`QuantileSketch`] is a DDSketch-style log-bucketed summary of a
//! stream of non-negative values: each positive value `v` lands in the
//! bucket keyed `ceil(ln v / ln γ)` where `γ = (1+α)/(1-α)`, so every
//! value in a bucket is within a factor `γ` of the bucket bound and the
//! bucket's representative mid-point is within **relative error `α`** of
//! any value it holds. Quantile queries walk the (sorted) buckets to the
//! requested rank and return the representative — the answer `x` for a
//! true ceil-rank quantile `t` satisfies `|x − t| ≤ α·t`, regardless of
//! how many samples the sketch absorbed.
//!
//! It is the one quantile structure: the registry's histograms
//! ([`crate::record_histogram`]), the serving latencies and the
//! per-tenant JCT / queue-wait quantiles are all sketches. Three
//! properties a capped exact-sample buffer cannot offer simultaneously:
//!
//! - **bounded memory**: at most [`QuantileSketch::max_buckets`] buckets
//!   ever exist; overflow collapses the *lowest* keys into one floor
//!   bucket (tail quantiles — p95/p99, the ones dashboards gate on —
//!   keep their guarantee; only quantiles that land inside the collapsed
//!   floor degrade, and [`QuantileSketch::collapsed`] reports it);
//! - **exact merge**: two sketches with the same `α` merge by bucket-wise
//!   addition — `merge(a, b)` summarizes the concatenated stream exactly
//!   as if one sketch had seen every sample, in any grouping or order
//!   (per-tenant sketches roll up to a cluster sketch losslessly);
//! - **no silent truncation**: every sample lands in some bucket; count,
//!   sum, min and max are exact.
//!
//! Zero, negative, and non-finite samples carry no log-bucket: zeros and
//! negatives count into a dedicated zero bucket (durations clamp at 0),
//! non-finite samples are counted in
//! [`QuantileSketch::non_finite_count`] and otherwise ignored.

use std::collections::BTreeMap;

/// Default relative-error bound `α` (1 %).
pub const DEFAULT_RELATIVE_ERROR: f64 = 0.01;

/// Default cap on live buckets. At α = 1 % one bucket spans a factor
/// `γ ≈ 1.0202`, so 2048 buckets cover > 17 decades — collapse only
/// triggers on adversarial streams.
pub const DEFAULT_MAX_BUCKETS: usize = 2048;

/// A mergeable, bounded-memory quantile sketch over non-negative values.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative-error bound `α`.
    alpha: f64,
    /// `ln γ` where `γ = (1+α)/(1-α)` (bucket width in log space).
    ln_gamma: f64,
    /// Live bucket cap; exceeding it collapses the lowest keys.
    max_buckets: usize,
    /// Log-bucket key → sample count.
    buckets: BTreeMap<i32, u64>,
    /// Samples ≤ 0 (durations clamp at zero).
    zero_count: u64,
    /// NaN / ±∞ samples seen (excluded from every statistic).
    non_finite_count: u64,
    /// Whether overflow ever collapsed low buckets.
    collapsed: bool,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        Self::new(DEFAULT_RELATIVE_ERROR)
    }
}

impl QuantileSketch {
    /// A sketch guaranteeing relative error `alpha` (clamped to a sane
    /// open interval) with the default bucket cap.
    pub fn new(alpha: f64) -> Self {
        Self::with_max_buckets(alpha, DEFAULT_MAX_BUCKETS)
    }

    /// A sketch with an explicit live-bucket cap (memory bound).
    pub fn with_max_buckets(alpha: f64, max_buckets: usize) -> Self {
        let alpha = if alpha.is_finite() {
            alpha.clamp(1e-6, 0.5)
        } else {
            DEFAULT_RELATIVE_ERROR
        };
        let gamma = (1.0 + alpha) / (1.0 - alpha);
        Self {
            alpha,
            ln_gamma: gamma.ln(),
            max_buckets: max_buckets.max(8),
            buckets: BTreeMap::new(),
            zero_count: 0,
            non_finite_count: 0,
            collapsed: false,
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// The configured relative-error bound `α`.
    pub fn relative_error(&self) -> f64 {
        self.alpha
    }

    /// The live-bucket cap.
    pub fn max_buckets(&self) -> usize {
        self.max_buckets
    }

    /// Live log-buckets currently held (the memory footprint).
    pub fn bucket_count(&self) -> usize {
        self.buckets.len()
    }

    /// Whether overflow ever collapsed the lowest buckets (quantiles that
    /// land inside the collapsed floor lose the `α` guarantee).
    pub fn collapsed(&self) -> bool {
        self.collapsed
    }

    /// Samples recorded (finite only).
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded samples.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Exact minimum recorded sample (0 when empty).
    pub fn min(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.min
        }
    }

    /// Exact maximum recorded sample (0 when empty).
    pub fn max(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.max
        }
    }

    /// Exact mean (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// NaN / ±∞ samples that were dropped.
    pub fn non_finite_count(&self) -> u64 {
        self.non_finite_count
    }

    /// Whether the sketch holds no samples.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The log-bucket key of a positive value.
    fn key_of(&self, v: f64) -> i32 {
        // ceil(ln v / ln γ); clamp the pathological extremes into i32.
        (v.ln() / self.ln_gamma).ceil().clamp(-2.0e9, 2.0e9) as i32
    }

    /// The representative value of a bucket key: the log-space mid-point
    /// `2γᵏ/(γ+1)`, within `α` of every value the bucket can hold.
    fn value_of(&self, key: i32) -> f64 {
        let gamma_k = (self.ln_gamma * f64::from(key)).exp();
        2.0 * gamma_k / (self.ln_gamma.exp() + 1.0)
    }

    /// Records one sample. Zeros and negatives land in the zero bucket;
    /// non-finite samples are counted and dropped.
    pub fn insert(&mut self, v: f64) {
        if !v.is_finite() {
            self.non_finite_count += 1;
            return;
        }
        self.count += 1;
        self.sum += v;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
        if v <= 0.0 {
            self.zero_count += 1;
            return;
        }
        *self.buckets.entry(self.key_of(v)).or_insert(0) += 1;
        self.enforce_cap();
    }

    /// Collapses the lowest keys into one floor bucket until the cap
    /// holds. Tail quantiles (the large keys) keep their guarantee.
    fn enforce_cap(&mut self) {
        while self.buckets.len() > self.max_buckets {
            let (&lo, &n) = self
                .buckets
                .iter()
                .next()
                .expect("over cap implies non-empty");
            self.buckets.remove(&lo);
            let (_, floor) = self
                .buckets
                .iter_mut()
                .next()
                .expect("cap is at least 8, a second bucket exists");
            *floor += n;
            self.collapsed = true;
        }
    }

    /// Merges `other` into `self` by bucket-wise addition — exactly the
    /// sketch that would have seen both streams. `Err` when the sketches
    /// were built with different `α` (their buckets are incompatible).
    pub fn merge(&mut self, other: &QuantileSketch) -> Result<(), String> {
        if (self.alpha - other.alpha).abs() > 1e-12 {
            return Err(format!(
                "cannot merge sketches with different relative-error bounds \
                 ({} vs {})",
                self.alpha, other.alpha
            ));
        }
        for (&k, &n) in &other.buckets {
            *self.buckets.entry(k).or_insert(0) += n;
        }
        self.zero_count += other.zero_count;
        self.non_finite_count += other.non_finite_count;
        self.collapsed |= other.collapsed;
        self.count += other.count;
        self.sum += other.sum;
        if other.count > 0 {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.enforce_cap();
        Ok(())
    }

    /// The `q`-quantile under the ceil-rank rule: the value at ascending
    /// rank `max(1, ceil(q·n))`. Returns 0 when empty. The answer is within
    /// relative error `α` of the exact ceil-rank sample (exact 0 for
    /// ranks inside the zero bucket; min/max are returned exactly at the
    /// extremes).
    pub fn quantile(&self, q: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = (q.clamp(0.0, 1.0) * self.count as f64)
            .ceil()
            .max(1.0)
            .min(self.count as f64) as u64;
        if rank <= self.zero_count {
            // Exact: every zero-bucket sample is ≤ 0, recorded as 0.
            return self.min.min(0.0);
        }
        let mut seen = self.zero_count;
        for (&k, &n) in &self.buckets {
            seen += n;
            if seen >= rank {
                // Clamp into the exact extremes so p0/p100 stay exact and
                // representatives never leave the observed range.
                return self.value_of(k).clamp(self.min.max(0.0), self.max);
            }
        }
        self.max
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact ceil-rank quantile, the reference the sketch approximates.
    fn exact_quantile(values: &mut [f64], q: f64) -> f64 {
        values.sort_by(f64::total_cmp);
        let rank = (q * values.len() as f64).ceil().max(1.0) as usize;
        values[rank.min(values.len()) - 1]
    }

    /// Deterministic xorshift stream (no ambient entropy in tests).
    fn xorshift_stream(mut state: u64, n: usize) -> Vec<f64> {
        (0..n)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                // Log-uniform over ~6 decades: the shape JCTs take.
                let u = (state >> 11) as f64 / (1u64 << 53) as f64;
                10f64.powf(u * 6.0 - 3.0)
            })
            .collect()
    }

    #[test]
    fn quantiles_are_within_alpha_of_exact() {
        let mut s = QuantileSketch::new(0.01);
        let mut vals = xorshift_stream(42, 10_000);
        for &v in &vals {
            s.insert(v);
        }
        for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 1.0] {
            let exact = exact_quantile(&mut vals, q);
            let approx = s.quantile(q);
            assert!(
                (approx - exact).abs() <= s.relative_error() * exact + 1e-12,
                "q={q}: sketch {approx} vs exact {exact}"
            );
        }
        assert_eq!(s.count(), 10_000);
        assert!(!s.collapsed());
    }

    #[test]
    fn merge_equals_single_sketch_over_the_union() {
        let vals = xorshift_stream(7, 4_000);
        let mut whole = QuantileSketch::new(0.01);
        for &v in &vals {
            whole.insert(v);
        }
        // Shard 4 ways by index, merge in a scrambled order.
        let mut shards = vec![QuantileSketch::new(0.01); 4];
        for (i, &v) in vals.iter().enumerate() {
            shards[i % 4].insert(v);
        }
        let mut merged = QuantileSketch::new(0.01);
        for i in [2usize, 0, 3, 1] {
            merged.merge(&shards[i]).expect("same alpha");
        }
        // Bucket-wise addition is exact: counts, extremes, and every
        // quantile are identical to the single-sketch run. (Only `sum`
        // is float-addition-order sensitive, so it gets a tolerance.)
        assert_eq!(merged.buckets, whole.buckets);
        assert_eq!(merged.count(), whole.count());
        assert_eq!(merged.min(), whole.min());
        assert_eq!(merged.max(), whole.max());
        for q in [0.0, 0.5, 0.95, 0.99, 1.0] {
            assert_eq!(merged.quantile(q), whole.quantile(q), "q={q}");
        }
        assert!((merged.sum() - whole.sum()).abs() <= 1e-9 * whole.sum().abs());
    }

    #[test]
    fn merge_rejects_mismatched_alpha() {
        let mut a = QuantileSketch::new(0.01);
        let b = QuantileSketch::new(0.02);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn zero_and_negative_samples_land_in_the_zero_bucket() {
        let mut s = QuantileSketch::new(0.01);
        for v in [0.0, -3.0, 5.0, 7.0] {
            s.insert(v);
        }
        assert_eq!(s.count(), 4);
        // Rank 1 and 2 sit in the zero bucket: the exact (clamped) floor.
        assert_eq!(s.quantile(0.25), -3.0);
        assert_eq!(s.quantile(0.5), -3.0);
        assert!((s.quantile(1.0) - 7.0).abs() <= 0.01 * 7.0 + 1e-12);
        assert_eq!(s.min(), -3.0);
        assert_eq!(s.max(), 7.0);
    }

    #[test]
    fn non_finite_samples_are_counted_and_dropped() {
        let mut s = QuantileSketch::new(0.01);
        s.insert(f64::NAN);
        s.insert(f64::INFINITY);
        s.insert(1.0);
        assert_eq!(s.count(), 1);
        assert_eq!(s.non_finite_count(), 2);
        assert!((s.quantile(0.5) - 1.0).abs() <= 0.01 + 1e-12);
    }

    #[test]
    fn bucket_cap_bounds_memory_and_flags_collapse() {
        let mut s = QuantileSketch::with_max_buckets(0.01, 8);
        // 3 decades of distinct magnitudes: far more than 8 buckets' span.
        for i in 1..=1000 {
            s.insert(i as f64);
        }
        assert!(s.bucket_count() <= 8);
        assert!(s.collapsed(), "overflow must be signalled, not silent");
        assert_eq!(s.count(), 1000);
        // The tail keeps its guarantee even after low-bucket collapse.
        let p99 = s.quantile(0.99);
        assert!((p99 - 990.0).abs() <= 0.01 * 990.0 + 1e-12, "p99 {p99}");
    }

    #[test]
    fn empty_sketch_reports_zeros() {
        let s = QuantileSketch::default();
        assert!(s.is_empty());
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.min(), 0.0);
        assert_eq!(s.max(), 0.0);
        assert_eq!(s.mean(), 0.0);
    }
}
