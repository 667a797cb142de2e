//! The push protocol (Demers et al.; Frieze–Grimmett analysis).

use ephemeral_rng::RandomSource;

/// Result of a push broadcast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PushOutcome {
    /// Rounds until everyone was informed (or the round limit).
    pub rounds: u32,
    /// Total rumor transmissions (one per informed node per round).
    pub messages: u64,
    /// Nodes informed at the end.
    pub informed: usize,
    /// Did everyone get the rumor?
    pub complete: bool,
}

/// Synchronous push on the complete graph `K_n`: each round, every informed
/// node sends the rumor to a uniformly random *other* node.
///
/// # Panics
/// If `n == 0` or `source >= n`.
#[must_use]
pub fn push_broadcast(
    n: usize,
    source: usize,
    max_rounds: u32,
    rng: &mut impl RandomSource,
) -> PushOutcome {
    assert!(n > 0 && source < n, "bad source/size");
    let mut informed = vec![false; n];
    informed[source] = true;
    let mut informed_list: Vec<u32> = vec![source as u32];
    let mut messages = 0u64;
    let mut rounds = 0u32;
    while informed_list.len() < n && rounds < max_rounds {
        rounds += 1;
        let mut fresh: Vec<u32> = Vec::new();
        for &u in &informed_list {
            // Uniform over the other n−1 nodes.
            let mut v = rng.bounded_u32(n as u32 - 1);
            if v >= u {
                v += 1;
            }
            messages += 1;
            if !informed[v as usize] {
                informed[v as usize] = true;
                fresh.push(v);
            }
        }
        informed_list.extend(fresh);
    }
    PushOutcome {
        rounds,
        messages,
        informed: informed_list.len(),
        complete: informed_list.len() == n,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ephemeral_rng::default_rng;

    #[test]
    fn push_completes_in_logarithmic_rounds() {
        let mut rng = default_rng(1);
        let n = 1024;
        let out = push_broadcast(n, 0, 10_000, &mut rng);
        assert!(out.complete);
        // Frieze–Grimmett: ≈ log2 n + ln n ≈ 16.9; generous band.
        let fg = (n as f64).log2() + (n as f64).ln();
        assert!(f64::from(out.rounds) < 2.0 * fg, "rounds {}", out.rounds);
        assert!(
            f64::from(out.rounds) > 0.5 * (n as f64).log2(),
            "rounds {}",
            out.rounds
        );
        // Push sends Θ(n log n) messages.
        assert!(out.messages as f64 > 0.5 * (n as f64) * (n as f64).ln() / 2.0);
    }

    #[test]
    fn round_limit_caps_progress() {
        let mut rng = default_rng(2);
        let out = push_broadcast(1 << 12, 0, 3, &mut rng);
        assert!(!out.complete);
        assert_eq!(out.rounds, 3);
        assert!(
            out.informed <= 8,
            "at most doubling per round: {}",
            out.informed
        );
    }

    #[test]
    fn singleton_is_trivially_complete() {
        let mut rng = default_rng(3);
        let out = push_broadcast(1, 0, 10, &mut rng);
        assert!(out.complete);
        assert_eq!(out.rounds, 0);
        assert_eq!(out.messages, 0);
    }

    #[test]
    fn determinism_under_seed() {
        let a = push_broadcast(128, 0, 1000, &mut default_rng(9));
        let b = push_broadcast(128, 0, 1000, &mut default_rng(9));
        assert_eq!(a, b);
    }
}
