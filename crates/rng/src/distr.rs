//! Distribution samplers.
//!
//! Exactly the distributions the SPAA'14 experiments need:
//!
//! * [`Binomial`] — the delayed-revelation oracle asks "how many of the `n`
//!   still-unrevealed arcs out of a frontier vertex carry a label inside the
//!   current window `∆_i`?", which is `Binomial(n, |∆_i|/a)`.
//! * [`Geometric`] — skip-sampling for `G(n,p)` generation and the waiting
//!   time method inside the binomial sampler.
//! * [`Poisson`] — arrival-count models for the F-CASE ("several labels per
//!   edge, drawn per a distribution F") extension.
//! * [`Discrete`]/[`zipf_weights`] — Walker/Vose alias tables for arbitrary
//!   finite label distributions (e.g. Zipf-skewed availability).
//!
//! Every sampler is exact except two documented approximations: binomial
//! falls back to a continuity-corrected normal only when `min(np, n(1−p)) >
//! 1000`, and Poisson only when `λ > 1024`; the experiments in this
//! workspace stay far below both cut-offs, so every published number uses an
//! exact sampler.

use crate::source::RandomSource;

/// Binomial distribution `Bin(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Binomial {
    n: u64,
    p: f64,
}

impl Binomial {
    /// Create `Bin(n, p)`. Requires `p ∈ [0, 1]` (else panics).
    #[must_use]
    pub fn new(n: u64, p: f64) -> Self {
        assert!(
            (0.0..=1.0).contains(&p),
            "binomial p must be in [0,1], got {p}"
        );
        Self { n, p }
    }

    /// Number of trials `n`.
    #[must_use]
    pub const fn n(&self) -> u64 {
        self.n
    }

    /// Success probability `p`.
    #[must_use]
    pub const fn p(&self) -> f64 {
        self.p
    }

    /// Mean `np`.
    #[must_use]
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// Variance `np(1−p)`.
    #[must_use]
    pub fn variance(&self) -> f64 {
        self.mean() * (1.0 - self.p)
    }

    /// Draw one sample.
    pub fn sample(&self, rng: &mut impl RandomSource) -> u64 {
        sample_binomial(self.n, self.p, rng)
    }
}

fn sample_binomial(n: u64, p: f64, rng: &mut impl RandomSource) -> u64 {
    if n == 0 || p <= 0.0 {
        return 0;
    }
    if p >= 1.0 {
        return n;
    }
    // Exploit symmetry so the waiting-time method sees the small tail.
    if p > 0.5 {
        return n - sample_binomial(n, 1.0 - p, rng);
    }
    let np = n as f64 * p;
    if n <= 64 {
        // Direct Bernoulli counting: cheap and exact for tiny n.
        return (0..n).filter(|_| rng.bernoulli(p)).count() as u64;
    }
    if np <= 1000.0 {
        // Second waiting-time (geometric jumps) method, exact, O(np) expected:
        // successive inter-success gaps are Geometric(p).
        let c = (1.0 - p).ln(); // strictly negative here
        let mut successes: u64 = 0;
        let mut position: u64 = 0;
        loop {
            let gap = (rng.unit_f64_open().ln() / c).floor() as u64;
            position = position.saturating_add(gap).saturating_add(1);
            if position > n {
                return successes;
            }
            successes += 1;
        }
    }
    // Normal approximation with continuity correction — only reachable for
    // min(np, n(1-p)) > 1000 where the relative error is far below Monte
    // Carlo noise. Documented in the module docs.
    let mean = np;
    let sd = (np * (1.0 - p)).sqrt();
    loop {
        let x = (mean + sd * standard_normal(rng)).round();
        if x >= 0.0 && x <= n as f64 {
            return x as u64;
        }
    }
}

/// One standard-normal draw (Marsaglia polar method).
pub fn standard_normal(rng: &mut impl RandomSource) -> f64 {
    loop {
        let u = 2.0 * rng.unit_f64() - 1.0;
        let v = 2.0 * rng.unit_f64() - 1.0;
        let s = u * u + v * v;
        if s > 0.0 && s < 1.0 {
            return u * ((-2.0 * s.ln()) / s).sqrt();
        }
    }
}

/// Geometric distribution: number of **failures before the first success**
/// of a Bernoulli(`p`) sequence; support `{0, 1, 2, …}`, mean `(1−p)/p`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Geometric {
    p: f64,
    inv_log_q: f64,
}

impl Geometric {
    /// Create with success probability `p ∈ (0, 1]` (panics otherwise).
    #[must_use]
    pub fn new(p: f64) -> Self {
        assert!(p > 0.0 && p <= 1.0, "geometric p must be in (0,1], got {p}");
        let inv_log_q = if p >= 1.0 { 0.0 } else { 1.0 / (1.0 - p).ln() };
        Self { p, inv_log_q }
    }

    /// Success probability.
    #[must_use]
    pub const fn p(&self) -> f64 {
        self.p
    }

    /// Draw one sample (inversion method, exact).
    #[inline]
    pub fn sample(&self, rng: &mut impl RandomSource) -> u64 {
        if self.p >= 1.0 {
            return 0;
        }
        let draw = rng.unit_f64_open().ln() * self.inv_log_q;
        if draw >= 9.2e18 {
            u64::MAX
        } else {
            draw as u64
        }
    }
}

/// Poisson distribution with rate `λ`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Poisson {
    lambda: f64,
}

impl Poisson {
    /// Create with rate `λ > 0` (panics otherwise).
    #[must_use]
    pub fn new(lambda: f64) -> Self {
        assert!(lambda > 0.0, "poisson lambda must be > 0, got {lambda}");
        Self { lambda }
    }

    /// Draw one sample. Exact (Knuth's product method, chunked so the
    /// running product never underflows) for `λ ≤ 1024`; normal
    /// approximation beyond.
    pub fn sample(&self, rng: &mut impl RandomSource) -> u64 {
        if self.lambda > 1024.0 {
            let x = (self.lambda + self.lambda.sqrt() * standard_normal(rng)).round();
            return if x < 0.0 { 0 } else { x as u64 };
        }
        // Sum of independent Poissons is Poisson: draw in chunks of rate ≤ 16
        // so exp(-chunk) stays comfortably above underflow.
        let mut remaining = self.lambda;
        let mut total: u64 = 0;
        while remaining > 0.0 {
            let chunk = remaining.min(16.0);
            remaining -= chunk;
            let limit = (-chunk).exp();
            let mut product = rng.unit_f64_open();
            while product > limit {
                total += 1;
                product *= rng.unit_f64_open();
            }
        }
        total
    }
}

/// A finite discrete distribution sampled in O(1) via a Walker/Vose alias
/// table. Construction is O(k) for `k` outcomes.
#[derive(Debug, Clone)]
pub struct Discrete {
    prob: Vec<f64>,  // acceptance probability of the "home" outcome per column
    alias: Vec<u32>, // fallback outcome per column
}

impl Discrete {
    /// Build from non-negative weights (not necessarily normalized).
    ///
    /// Returns `None` if `weights` is empty, contains a negative or
    /// non-finite value, or sums to zero.
    #[must_use]
    pub fn new(weights: &[f64]) -> Option<Self> {
        let k = weights.len();
        if k == 0 || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return None;
        }
        let total: f64 = weights.iter().sum();
        if total <= 0.0 {
            return None;
        }
        // Scaled weights: mean 1 per column.
        let scale = k as f64 / total;
        let mut scaled: Vec<f64> = weights.iter().map(|w| w * scale).collect();
        let mut small: Vec<u32> = Vec::with_capacity(k);
        let mut large: Vec<u32> = Vec::with_capacity(k);
        for (i, &s) in scaled.iter().enumerate() {
            if s < 1.0 {
                small.push(i as u32);
            } else {
                large.push(i as u32);
            }
        }
        let mut prob = vec![1.0f64; k];
        let mut alias: Vec<u32> = (0..k as u32).collect();
        while let (Some(s), Some(l)) = (small.pop(), large.pop()) {
            prob[s as usize] = scaled[s as usize];
            alias[s as usize] = l;
            scaled[l as usize] = (scaled[l as usize] + scaled[s as usize]) - 1.0;
            if scaled[l as usize] < 1.0 {
                small.push(l);
            } else {
                large.push(l);
            }
        }
        // Residual columns (floating-point dust) keep prob = 1.
        Some(Self { prob, alias })
    }

    /// Number of outcomes.
    #[must_use]
    pub fn len(&self) -> usize {
        self.prob.len()
    }

    /// True when the table has no outcomes (never constructed — `new`
    /// rejects empty weights — but included for API completeness).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.prob.is_empty()
    }

    /// Draw one outcome index.
    #[inline]
    pub fn sample(&self, rng: &mut impl RandomSource) -> usize {
        let col = rng.index(self.prob.len());
        if rng.unit_f64() < self.prob[col] {
            col
        } else {
            self.alias[col] as usize
        }
    }
}

/// Zipf weights `w_k = 1/k^s` for ranks `1..=n`, for use with [`Discrete`].
///
/// ```
/// use ephemeral_rng::distr::{zipf_weights, Discrete};
/// let zipf = Discrete::new(&zipf_weights(100, 1.1)).unwrap();
/// # let _ = zipf;
/// ```
#[must_use]
pub fn zipf_weights(n: usize, s: f64) -> Vec<f64> {
    (1..=n).map(|k| (k as f64).powf(-s)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Xoshiro256PlusPlus;

    fn rng() -> Xoshiro256PlusPlus {
        Xoshiro256PlusPlus::seed_from_u64(20140623) // SPAA'14 started June 23.
    }

    fn mean_of(samples: &[f64]) -> f64 {
        samples.iter().sum::<f64>() / samples.len() as f64
    }

    #[test]
    fn binomial_edge_cases() {
        let mut r = rng();
        assert_eq!(Binomial::new(0, 0.5).sample(&mut r), 0);
        assert_eq!(Binomial::new(10, 0.0).sample(&mut r), 0);
        assert_eq!(Binomial::new(10, 1.0).sample(&mut r), 10);
    }

    #[test]
    #[should_panic(expected = "binomial p")]
    fn binomial_rejects_bad_p() {
        let _ = Binomial::new(10, 1.5);
    }

    #[test]
    fn binomial_small_n_matches_mean_and_variance() {
        let mut r = rng();
        let d = Binomial::new(40, 0.3);
        let samples: Vec<f64> = (0..20_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - d.mean()).abs() < 0.15, "mean {m} vs {}", d.mean());
        let var = mean_of(
            &samples
                .iter()
                .map(|x| (x - m) * (x - m))
                .collect::<Vec<_>>(),
        );
        assert!(
            (var - d.variance()).abs() < 0.5,
            "var {var} vs {}",
            d.variance()
        );
    }

    #[test]
    fn binomial_waiting_time_regime() {
        // n large, np moderate: exercises the geometric-jump branch.
        let mut r = rng();
        let d = Binomial::new(1_000_000, 30.0 / 1_000_000.0);
        let samples: Vec<f64> = (0..5_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 30.0).abs() < 0.5, "mean {m}");
        assert!(samples.iter().all(|&x| x <= 1_000_000.0));
    }

    #[test]
    fn binomial_symmetry_branch() {
        let mut r = rng();
        let d = Binomial::new(2000, 0.9);
        let samples: Vec<f64> = (0..5_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 1800.0).abs() < 2.0, "mean {m}");
    }

    #[test]
    fn binomial_never_exceeds_n() {
        let mut r = rng();
        for &(n, p) in &[(1u64, 0.99), (64, 0.5), (65, 0.5), (100, 0.01)] {
            let d = Binomial::new(n, p);
            for _ in 0..500 {
                assert!(d.sample(&mut r) <= n);
            }
        }
    }

    #[test]
    fn geometric_mean() {
        let mut r = rng();
        let d = Geometric::new(0.2); // mean failures = 0.8/0.2 = 4
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 4.0).abs() < 0.15, "mean {m}");
    }

    #[test]
    fn geometric_p_one_is_zero() {
        let mut r = rng();
        let d = Geometric::new(1.0);
        for _ in 0..32 {
            assert_eq!(d.sample(&mut r), 0);
        }
    }

    #[test]
    fn poisson_small_lambda() {
        let mut r = rng();
        let d = Poisson::new(3.5);
        let samples: Vec<f64> = (0..40_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 3.5).abs() < 0.1, "mean {m}");
    }

    #[test]
    fn poisson_chunked_lambda() {
        let mut r = rng();
        let d = Poisson::new(200.0); // exercises chunking (12+ chunks)
        let samples: Vec<f64> = (0..4_000).map(|_| d.sample(&mut r) as f64).collect();
        let m = mean_of(&samples);
        assert!((m - 200.0).abs() < 1.5, "mean {m}");
    }

    #[test]
    fn normal_moments() {
        let mut r = rng();
        let samples: Vec<f64> = (0..40_000).map(|_| standard_normal(&mut r)).collect();
        let m = mean_of(&samples);
        assert!(m.abs() < 0.03, "mean {m}");
        let var = mean_of(&samples.iter().map(|x| x * x).collect::<Vec<_>>());
        assert!((var - 1.0).abs() < 0.05, "var {var}");
    }

    #[test]
    fn discrete_rejects_bad_weights() {
        assert!(Discrete::new(&[]).is_none());
        assert!(Discrete::new(&[0.0, 0.0]).is_none());
        assert!(Discrete::new(&[1.0, -1.0]).is_none());
        assert!(Discrete::new(&[f64::NAN]).is_none());
        assert!(Discrete::new(&[f64::INFINITY]).is_none());
    }

    #[test]
    fn discrete_matches_weights() {
        let mut r = rng();
        let d = Discrete::new(&[1.0, 2.0, 7.0]).unwrap();
        let mut counts = [0u32; 3];
        const N: usize = 60_000;
        for _ in 0..N {
            counts[d.sample(&mut r)] += 1;
        }
        let fr: Vec<f64> = counts.iter().map(|&c| f64::from(c) / N as f64).collect();
        assert!((fr[0] - 0.1).abs() < 0.01, "{fr:?}");
        assert!((fr[1] - 0.2).abs() < 0.01, "{fr:?}");
        assert!((fr[2] - 0.7).abs() < 0.01, "{fr:?}");
    }

    #[test]
    fn discrete_single_outcome() {
        let mut r = rng();
        let d = Discrete::new(&[3.0]).unwrap();
        assert_eq!(d.len(), 1);
        assert!(!d.is_empty());
        for _ in 0..16 {
            assert_eq!(d.sample(&mut r), 0);
        }
    }

    #[test]
    fn zipf_weights_are_decreasing() {
        let w = zipf_weights(10, 1.0);
        assert_eq!(w.len(), 10);
        for pair in w.windows(2) {
            assert!(pair[0] > pair[1]);
        }
        assert!((w[0] - 1.0).abs() < 1e-12);
        assert!((w[9] - 0.1).abs() < 1e-12);
    }

    #[test]
    fn zipf_sampling_is_head_heavy() {
        let mut r = rng();
        let d = Discrete::new(&zipf_weights(1000, 1.2)).unwrap();
        let head = (0..20_000).filter(|_| d.sample(&mut r) < 10).count();
        // With s=1.2 the top-10 mass dominates; loose check.
        assert!(head > 10_000, "head draws: {head}");
    }
}
