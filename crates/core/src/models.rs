//! Random label models (paper §2: UNI-CASE and the F-CASE note).

use ephemeral_rng::distr::{Discrete, Geometric};
use ephemeral_rng::RandomSource;
use ephemeral_temporal::{LabelAssignment, Time};

/// A random assignment model: given `m` edges, draw a label set per edge.
pub trait LabelModel {
    /// Lifetime `a` of the networks this model produces.
    fn lifetime(&self) -> Time;

    /// Draw an assignment for `m` edges **into** `out`, reusing its buffers
    /// — the per-trial path of the Monte Carlo estimators (zero-allocation
    /// once `out`'s capacity is warm, for the uniform models). The label
    /// stream drawn from `rng` is identical to [`LabelModel::assign`].
    fn assign_into(&self, m: usize, rng: &mut dyn RandomSource, out: &mut LabelAssignment);

    /// Draw a fresh assignment for `m` edges.
    fn assign(&self, m: usize, rng: &mut dyn RandomSource) -> LabelAssignment {
        let mut out = LabelAssignment::default();
        self.assign_into(m, rng, &mut out);
        out
    }
}

/// UNI-CASE (Definition 4): exactly one label per edge, uniform on
/// `{1, …, a}`. With `a = n` this is the Normalized U-RTN of §3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformSingle {
    /// Lifetime `a`.
    pub lifetime: Time,
}

impl LabelModel for UniformSingle {
    fn lifetime(&self) -> Time {
        self.lifetime
    }

    /// One bulk draw of all `m` labels (edge order), no sort.
    fn assign_into(&self, m: usize, rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let ok = out.refill_edge_major(m, 1, |labels| {
            rng.fill_range_u32(1, self.lifetime, labels);
        });
        assert!(ok, "labels are in 1..=lifetime");
    }
}

/// `r` i.i.d. uniform labels per edge (the §4 model: "adjacent vertices
/// agree on a number r(n) of random available times for the edge joining
/// them").
///
/// Labels are drawn **with replacement** and stored as a set, exactly like
/// the paper's analysis (collisions make the set smaller, which only hurts
/// reachability — every guarantee proved for `r` draws holds verbatim).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UniformMulti {
    /// Lifetime `a`.
    pub lifetime: Time,
    /// Number of label draws per edge.
    pub r: usize,
}

impl LabelModel for UniformMulti {
    fn lifetime(&self) -> Time {
        self.lifetime
    }

    /// One bulk draw of all `m·r` labels, edge-major — the same stream
    /// as `r` draws per edge in edge order — then a per-edge sort and
    /// dedup in place.
    fn assign_into(&self, m: usize, rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let ok = out.refill_edge_major(m, self.r, |labels| {
            rng.fill_range_u32(1, self.lifetime, labels);
        });
        assert!(ok, "labels are in 1..=lifetime");
    }
}

/// F-CASE with a Zipf-skewed label distribution: `r` labels per edge, each
/// equal to `k ∈ {1, …, a}` with probability `∝ 1/k^s`. Models networks
/// whose links are predominantly available *early* (s > 0) — the paper's
/// "prospective study" of non-uniform availability.
#[derive(Debug, Clone)]
pub struct ZipfMulti {
    /// Lifetime `a`.
    pub lifetime: Time,
    /// Number of label draws per edge.
    pub r: usize,
    table: Discrete,
}

impl ZipfMulti {
    /// Create with exponent `s > 0`.
    ///
    /// # Panics
    /// If `lifetime == 0`.
    #[must_use]
    pub fn new(lifetime: Time, r: usize, s: f64) -> Self {
        assert!(lifetime >= 1, "lifetime must be at least 1");
        let weights = ephemeral_rng::distr::zipf_weights(lifetime as usize, s);
        let table = Discrete::new(&weights).expect("zipf weights are valid");
        Self { lifetime, r, table }
    }
}

impl LabelModel for ZipfMulti {
    fn lifetime(&self) -> Time {
        self.lifetime
    }

    fn assign_into(&self, m: usize, mut rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let mut buf = Vec::with_capacity(self.r);
        let ok = out.refill_with(m, &mut buf, |_, b| {
            b.extend((0..self.r).map(|_| self.table.sample(&mut rng) as Time + 1));
        });
        assert!(ok, "labels are in 1..=lifetime");
    }
}

/// F-CASE with geometric inter-availability gaps: each edge becomes
/// available at times `g₁+1, g₁+g₂+2, …` (truncated at the lifetime), where
/// the gaps are i.i.d. `Geometric(p)`. Models memoryless link activation —
/// the discrete analogue of Poisson availability used by edge-Markovian
/// evolving-graph models.
#[derive(Debug, Clone, Copy)]
pub struct GeometricArrivals {
    /// Lifetime `a`.
    pub lifetime: Time,
    /// Per-step activation probability.
    pub p: f64,
}

impl LabelModel for GeometricArrivals {
    fn lifetime(&self) -> Time {
        self.lifetime
    }

    fn assign_into(&self, m: usize, mut rng: &mut dyn RandomSource, out: &mut LabelAssignment) {
        let gap = Geometric::new(self.p);
        let mut buf = Vec::new();
        let ok = out.refill_with(m, &mut buf, |_, b| {
            let mut t: u64 = 0;
            loop {
                t += gap.sample(&mut rng) + 1;
                if t > u64::from(self.lifetime) {
                    break;
                }
                b.push(t as Time);
            }
        });
        assert!(ok, "labels are in 1..=lifetime");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_rng::default_rng;

    #[test]
    fn uniform_single_one_label_each() {
        let mut rng = default_rng(1);
        let model = UniformSingle { lifetime: 16 };
        let a = model.assign(100, &mut rng);
        assert_eq!(a.num_edges(), 100);
        assert_eq!(a.total_labels(), 100);
        assert!(a.max_label().unwrap() <= 16);
        assert!(a.min_label().unwrap() >= 1);
    }

    #[test]
    fn uniform_single_is_roughly_uniform() {
        let mut rng = default_rng(2);
        let model = UniformSingle { lifetime: 4 };
        let a = model.assign(40_000, &mut rng);
        let mut counts = [0u32; 4];
        for (_, l) in a.iter() {
            counts[(l - 1) as usize] += 1;
        }
        for &c in &counts {
            let frac = f64::from(c) / 40_000.0;
            assert!((frac - 0.25).abs() < 0.02, "{counts:?}");
        }
    }

    #[test]
    fn uniform_multi_at_most_r_labels() {
        let mut rng = default_rng(3);
        let model = UniformMulti {
            lifetime: 1000,
            r: 5,
        };
        let a = model.assign(200, &mut rng);
        for e in 0..200u32 {
            let l = a.labels(e);
            assert!(!l.is_empty() && l.len() <= 5, "edge {e}: {l:?}");
            assert!(l.iter().all(|&t| (1..=1000).contains(&t)));
        }
    }

    #[test]
    fn uniform_multi_collisions_shrink_sets() {
        // Tiny lifetime forces collisions: sets must still be valid.
        let mut rng = default_rng(4);
        let model = UniformMulti { lifetime: 2, r: 10 };
        let a = model.assign(50, &mut rng);
        for e in 0..50u32 {
            assert!(a.labels(e).len() <= 2);
        }
    }

    #[test]
    fn zipf_prefers_early_labels() {
        let mut rng = default_rng(5);
        let model = ZipfMulti::new(100, 1, 1.5);
        let a = model.assign(20_000, &mut rng);
        let early = a.iter().filter(|&(_, l)| l <= 10).count();
        assert!(early > 15_000, "early {early}");
        assert_eq!(model.lifetime(), 100);
    }

    #[test]
    fn geometric_arrivals_are_increasing_and_bounded() {
        let mut rng = default_rng(6);
        let model = GeometricArrivals {
            lifetime: 50,
            p: 0.2,
        };
        let a = model.assign(100, &mut rng);
        for e in 0..100u32 {
            let l = a.labels(e);
            assert!(l.windows(2).all(|w| w[0] < w[1]));
            assert!(l.iter().all(|&t| (1..=50).contains(&t)));
        }
        // Expected ~p·a = 10 labels per edge.
        let avg = a.total_labels() as f64 / 100.0;
        assert!((avg - 10.0).abs() < 2.0, "avg {avg}");
    }

    #[test]
    fn models_are_deterministic_under_seed() {
        let model = UniformMulti { lifetime: 64, r: 3 };
        let a = model.assign(64, &mut default_rng(9));
        let b = model.assign(64, &mut default_rng(9));
        assert_eq!(a, b);
    }

    /// The per-label reference the bulk draw must reproduce: `range_u32`
    /// once per label in edge order, then each edge's set sorted and
    /// deduplicated.
    fn per_label_reference(m: usize, r: usize, lifetime: Time, seed: u64) -> LabelAssignment {
        let mut rng = default_rng(seed);
        LabelAssignment::from_fn(m, |_| (0..r).map(|_| rng.range_u32(1, lifetime)).collect())
            .expect("labels are non-zero")
    }

    #[test]
    fn bulk_uniform_draws_equal_the_per_label_reference() {
        let mut scratch = LabelAssignment::default();
        for m in [0usize, 1, 5, 1000] {
            for lifetime in [1, 2, 7, 256] {
                // The single-label model is r = 1's stream.
                let single = UniformSingle { lifetime };
                let mut rng = default_rng(m as u64 ^ u64::from(lifetime));
                single.assign_into(m, &mut rng, &mut scratch);
                let want = per_label_reference(m, 1, lifetime, m as u64 ^ u64::from(lifetime));
                assert_eq!(scratch, want, "single m {m} a {lifetime}");
                for r in [1usize, 2, 3, 4, 8] {
                    let seed = (m * 31 + r) as u64 ^ (u64::from(lifetime) << 20);
                    let multi = UniformMulti { lifetime, r };
                    let mut rng = default_rng(seed);
                    multi.assign_into(m, &mut rng, &mut scratch);
                    let want = per_label_reference(m, r, lifetime, seed);
                    assert_eq!(scratch, want, "multi m {m} r {r} a {lifetime}");
                    // Both paths leave the generator at the same point.
                    let mut after = default_rng(seed);
                    for _ in 0..m * r {
                        after.range_u32(1, lifetime);
                    }
                    assert_eq!(rng.next_u64(), after.next_u64(), "m {m} r {r} a {lifetime}");
                    if lifetime == 1 {
                        // Every draw collides: one label per edge.
                        assert_eq!(scratch.total_labels(), m);
                    }
                }
            }
        }
    }

    #[test]
    fn assign_into_draws_the_same_stream_as_assign() {
        // The scratch path must be indistinguishable from the fresh path —
        // same rng consumption, same labels — for every model, so switching
        // a Monte Carlo loop to scratch reuse never changes its results.
        let models: Vec<Box<dyn LabelModel>> = vec![
            Box::new(UniformSingle { lifetime: 32 }),
            Box::new(UniformMulti { lifetime: 32, r: 4 }),
            Box::new(ZipfMulti::new(32, 3, 1.1)),
            Box::new(GeometricArrivals {
                lifetime: 32,
                p: 0.25,
            }),
        ];
        for (k, model) in models.iter().enumerate() {
            let fresh = model.assign(50, &mut default_rng(100 + k as u64));
            let mut scratch = LabelAssignment::default();
            let mut rng = default_rng(100 + k as u64);
            for trial in 0..3 {
                model.assign_into(50, &mut rng, &mut scratch);
                if trial == 0 {
                    assert_eq!(scratch, fresh, "model {k}");
                }
            }
            // After several refills the scratch is still a valid CSR.
            assert_eq!(scratch.num_edges(), 50);
        }
    }
}
