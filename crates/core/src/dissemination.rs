//! The §3.5 dissemination protocol and its accounting.
//!
//! Protocol: *"∀u: if u has the message, then when an arc out of u becomes
//! available, send the message through that arc."* The informed set of this
//! protocol evolves exactly like the foremost-journey sweep (every node is
//! informed at its temporal distance from the source), so the broadcast
//! time equals the source's temporal eccentricity; what the protocol adds
//! is **message accounting** — every available out-arc of an informed node
//! fires, whether useful or not, which is the `Θ(n²)`-messages behaviour
//! the paper contrasts with the phone-call model's `O(n log log n)`.

use crate::models::UniformSingle;
use crate::scenario::Scratch;
use ephemeral_graph::{Graph, NodeId};
use ephemeral_parallel::adaptive::{
    run_adaptive, AdaptiveAccumulator, AdaptiveConfig, AdaptiveRun, FilteredMeanAccumulator,
};
use ephemeral_parallel::stats::OnlineStats;
use ephemeral_rng::distr::Binomial;
use ephemeral_rng::RandomSource;
use ephemeral_temporal::foremost::foremost;
use ephemeral_temporal::{TemporalNetwork, Time};

/// Result of one protocol run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FloodOutcome {
    /// Time each vertex first held the message
    /// ([`NEVER`](ephemeral_temporal::NEVER) = never informed; the source
    /// holds it from time 0).
    pub informed_time: Vec<Time>,
    /// Number of vertices that ever received the message (incl. source).
    pub informed_count: usize,
    /// Time the last vertex was informed, or `None` if some vertex was
    /// never informed within the lifetime.
    pub broadcast_time: Option<Time>,
    /// Total messages transmitted: one per time-edge whose tail was
    /// informed strictly before the edge's availability time.
    pub messages: u64,
}

/// Run the protocol on a concrete temporal network instance.
///
/// ```
/// use ephemeral_core::{dissemination::flood, urtn};
/// use ephemeral_rng::default_rng;
///
/// let mut rng = default_rng(1);
/// let tn = urtn::sample_normalized_urt_clique(64, true, &mut rng);
/// let out = flood(&tn, 0);
/// assert_eq!(out.informed_count, 64);          // the clique always floods
/// assert!(out.broadcast_time.unwrap() <= 64);  // …within the lifetime
/// ```
///
/// # Panics
/// If `source` is out of range.
#[must_use]
pub fn flood(tn: &TemporalNetwork, source: NodeId) -> FloodOutcome {
    let run = foremost(tn, source, 0);
    let informed_time = run.arrivals().to_vec();
    let informed_count = run.reached_count();
    let n = tn.num_nodes();
    let broadcast_time = if informed_count == n {
        informed_time
            .iter()
            .enumerate()
            .filter(|&(v, _)| v != source as usize)
            .map(|(_, &t)| t)
            .max()
            .or(Some(0))
    } else {
        None
    };

    // Message accounting: every time-edge fires once per direction whose
    // tail is informed before the label.
    let directed = tn.graph().is_directed();
    let mut messages = 0u64;
    for t in 1..=tn.lifetime() {
        for &e in tn.edges_at(t) {
            let (u, v) = tn.graph().endpoints(e);
            if informed_time[u as usize] < t {
                messages += 1;
            }
            if !directed && informed_time[v as usize] < t {
                messages += 1;
            }
        }
    }

    FloodOutcome {
        informed_time,
        informed_count,
        broadcast_time,
        messages,
    }
}

/// Monte Carlo summary of repeated protocol runs over fresh UNI-CASE
/// labellings of one graph.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodEstimate {
    /// Moments of the broadcast times of the trials that covered everyone.
    pub broadcast_times: OnlineStats,
    /// Trials in which some vertex was never informed within the lifetime.
    pub incomplete: usize,
    /// Mean protocol messages per trial (complete or not).
    pub mean_messages: f64,
    /// Total trials.
    pub trials: usize,
}

/// Folds complete broadcast times into the filtered mean, messages into the sum.
#[derive(Default)]
struct FloodFold(FilteredMeanAccumulator, f64);

impl AdaptiveAccumulator for FloodFold {
    type Sample = (Option<Time>, u64);

    fn push(&mut self, (time, messages): (Option<Time>, u64)) {
        self.0.push((time.map_or(0.0, f64::from), time.is_some()));
        self.1 += messages as f64;
    }

    fn trials(&self) -> usize {
        self.0.trials()
    }

    fn half_width(&self) -> f64 {
        self.0.half_width()
    }
}

/// Run [`flood`] from `source` over `trials` fresh UNI-CASE labellings of
/// `graph`, each redrawn into its worker's trial [`Scratch`]. Flooding is
/// single-source, so the per-trial sweep stays scalar at every size
/// (sweep rows attribute it as engine `"scalar"`).
///
/// # Panics
/// If `trials == 0`, `lifetime == 0`, or `source` is out of range.
#[must_use]
pub fn flood_montecarlo(
    graph: &Graph,
    lifetime: Time,
    source: NodeId,
    trials: usize,
    seed: u64,
    threads: usize,
) -> FloodEstimate {
    assert!(trials > 0, "need at least one trial");
    let model = UniformSingle { lifetime };
    let run: AdaptiveRun<FloodFold> = run_adaptive(
        &AdaptiveConfig::fixed(trials),
        seed,
        threads,
        || Scratch::new(graph, lifetime),
        |s, _, rng| {
            s.redraw(&model, rng);
            let out = flood(&s.tn, source);
            (out.broadcast_time, out.messages)
        },
    );
    let FloodFold(times, messages) = run.accumulator;
    FloodEstimate {
        broadcast_times: times.accepted,
        incomplete: times.rejected,
        mean_messages: messages / trials as f64,
        trials,
    }
}

/// Oracle version for a virtual directed U-RT clique of `n` vertices and
/// lifetime `a`, never materialising the `Θ(n²)` arcs.
///
/// Exactness note (DESIGN.md §3): for a vertex informed at time `τ`, the
/// probability that a given still-unrevealed out-arc fires at a later time
/// `t` is `1/(a − (t−1−τ))` conditioned on not having fired in `(τ, t)`;
/// the oracle uses the unconditioned `1/a`, an `O(t/a)` underestimate. The
/// broadcast completes by `O(log n) ≪ a` steps, so the bias is negligible
/// — and the exact [`flood`] covers every size we can materialise.
#[must_use]
pub fn flood_oracle_clique(
    n: u64,
    lifetime: Time,
    rng: &mut impl RandomSource,
) -> FloodOracleOutcome {
    assert!(n >= 1, "clique requires at least one vertex");
    let a = f64::from(lifetime);
    let mut uninformed = n - 1;
    let mut informed_before: u64 = 0; // informed strictly before current t
    let mut informed_at_t: u64 = 1; // the source at τ = 0
    let mut informed_counts = Vec::new(); // cumulative count per time step
    let mut broadcast_time = None;
    let mut expected_messages = 0.0f64;

    for t in 1..=lifetime {
        informed_before += informed_at_t;
        // Each uninformed vertex is hit iff one of the `informed_before`
        // arcs pointing at it carries label exactly t: prob 1/a each,
        // independent across arcs.
        let q = 1.0 - (1.0 - 1.0 / a).powf(informed_before as f64);
        let hits = if uninformed > 0 {
            Binomial::new(uninformed, q).sample(rng)
        } else {
            0
        };
        uninformed -= hits;
        informed_at_t = hits;
        informed_counts.push(n - uninformed);
        // Each informed vertex sends on each out-arc whose label exceeds its
        // informed time; in expectation each of the `informed_before` nodes
        // fires (n−1)/a arcs at time t.
        expected_messages += informed_before as f64 * (n - 1) as f64 / a;
        if uninformed == 0 && broadcast_time.is_none() {
            broadcast_time = Some(t);
            break;
        }
    }

    FloodOracleOutcome {
        n,
        broadcast_time,
        informed_counts,
        expected_messages,
    }
}

/// Outcome of the oracle flood.
#[derive(Debug, Clone, PartialEq)]
pub struct FloodOracleOutcome {
    /// Number of vertices of the virtual clique.
    pub n: u64,
    /// Time everyone was informed, or `None` if the lifetime expired first.
    pub broadcast_time: Option<Time>,
    /// Cumulative informed count after each simulated time step.
    pub informed_counts: Vec<u64>,
    /// Expected number of protocol messages sent up to completion.
    pub expected_messages: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::urtn::sample_normalized_urt_clique;
    use ephemeral_graph::generators;
    use ephemeral_rng::default_rng;
    use ephemeral_temporal::LabelAssignment;

    #[test]
    fn flood_on_deterministic_path() {
        let g = generators::path(4);
        let labels = LabelAssignment::single(vec![1, 2, 3]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 3).unwrap();
        let out = flood(&tn, 0);
        assert_eq!(out.informed_time, vec![0, 1, 2, 3]);
        assert_eq!(out.broadcast_time, Some(3));
        assert_eq!(out.informed_count, 4);
        // Messages: each undirected edge fires towards both endpoints when
        // available and tail informed: 0-1@1 (0 informed): 1 message;
        // 1-2@2 (1 informed at 1 < 2): 1; also 1->0 resend? edge 0-1 only has
        // label 1, 1 informed at 1 not < 1: no. 2-3@3: tail 2 informed at 2 < 3: 1.
        // Edge 1-2@2 also fires from 2? 2 informed at 2, not < 2. Total 3.
        assert_eq!(out.messages, 3);
    }

    #[test]
    fn flood_counts_wasted_messages() {
        // Star with all edges at times {1,2}: centre informs everyone at 1,
        // then at 2 every leaf (informed at 1) sends back: n-1 wasted.
        let n = 6;
        let g = generators::star(n);
        let labels = LabelAssignment::from_vecs(vec![vec![1, 2]; n - 1]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let out = flood(&tn, 0);
        assert_eq!(out.broadcast_time, Some(1));
        // t=1: centre fires n-1 messages. t=2: centre fires n-1 again, and
        // each of the n-1 leaves fires 1 back: total (n-1)·3.
        assert_eq!(out.messages, 3 * (n as u64 - 1));
    }

    #[test]
    fn flood_reports_failure_to_cover() {
        let g = generators::path(3);
        let labels = LabelAssignment::single(vec![2, 1]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 2).unwrap();
        let out = flood(&tn, 0);
        assert_eq!(out.broadcast_time, None);
        assert_eq!(out.informed_count, 2);
    }

    #[test]
    fn clique_flood_is_logarithmic() {
        let n = 512;
        let mut rng = default_rng(11);
        let tn = sample_normalized_urt_clique(n, true, &mut rng);
        let out = flood(&tn, 0);
        assert_eq!(out.informed_count, n, "URT clique floods completely");
        let bt = f64::from(out.broadcast_time.unwrap());
        let bound = 8.0 * (n as f64).ln();
        assert!(bt <= bound, "broadcast {bt} > 8·ln n = {bound}");
        // Message count is Θ(n²)-ish: every arc with label above its
        // tail's informed time fires; at least (n-1) and at most n(n-1).
        assert!(out.messages >= (n as u64 - 1));
        assert!(out.messages <= (n as u64) * (n as u64 - 1));
    }

    #[test]
    fn flood_montecarlo_summarises_and_is_thread_invariant() {
        let g = generators::clique(64, true);
        let a = flood_montecarlo(&g, 64, 0, 12, 9, 1);
        let b = flood_montecarlo(&g, 64, 0, 12, 9, 4);
        assert_eq!(a, b, "thread count must not change the estimate");
        assert_eq!(a.trials, 12);
        assert_eq!(a.incomplete, 0, "the clique always floods");
        let ln_n = 64f64.ln();
        let mean = a.broadcast_times.mean();
        assert!(mean <= 8.0 * ln_n, "{mean}");
        assert!(mean >= 2.0);
        assert!(a.mean_messages >= 63.0);
    }

    #[test]
    fn flood_montecarlo_reports_incomplete_trials() {
        // Single-label paths almost never flood end to end.
        let g = generators::path(12);
        let est = flood_montecarlo(&g, 12, 0, 20, 3, 2);
        assert!(est.incomplete > 10, "{}", est.incomplete);
    }

    #[test]
    fn oracle_matches_exact_scale() {
        // Broadcast time of the oracle at n=512 should be in the same
        // ballpark as the exact simulation.
        let n = 512u64;
        let mut rng = default_rng(12);
        let out = flood_oracle_clique(n, n as Time, &mut rng);
        let bt = f64::from(out.broadcast_time.expect("oracle flood completes"));
        assert!(bt <= 8.0 * (n as f64).ln(), "broadcast {bt}");
        assert!(out.expected_messages > 0.0);
        // Informed counts are monotone.
        assert!(out.informed_counts.windows(2).all(|w| w[0] <= w[1]));
    }

    #[test]
    fn oracle_scales_to_huge_n() {
        let n = 1_000_000u64;
        let mut rng = default_rng(13);
        let out = flood_oracle_clique(n, n as Time, &mut rng);
        let bt = f64::from(out.broadcast_time.expect("completes"));
        // Θ(log n): comfortably under 4·ln n and at least log2 n / 2.
        assert!(bt <= 4.0 * (n as f64).ln(), "bt {bt}");
        assert!(bt >= (n as f64).log2() / 2.0, "bt {bt}");
    }

    #[test]
    fn singleton_clique_floods_instantly() {
        let mut rng = default_rng(14);
        let out = flood_oracle_clique(1, 10, &mut rng);
        assert_eq!(out.broadcast_time, Some(1));
        let g = generators::clique(1, true);
        let labels = LabelAssignment::from_vecs(vec![]).unwrap();
        let tn = TemporalNetwork::new(g, labels, 1).unwrap();
        let exact = flood(&tn, 0);
        assert_eq!(exact.broadcast_time, Some(0));
        assert_eq!(exact.informed_count, 1);
    }
}
