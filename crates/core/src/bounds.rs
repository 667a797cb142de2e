//! Closed-form theoretical curves quoted by the paper, used as the
//! comparison columns of the experiment tables.

/// Theorem 4's upper bound shape: `γ·ln n`.
#[must_use]
pub fn gamma_ln(n: usize, gamma: f64) -> f64 {
    gamma * (n.max(2) as f64).ln()
}

/// Theorem 5's lower bound shape for lifetime `a ≫ n`: `(a/n)·ln n`.
#[must_use]
pub fn lifetime_bound(n: usize, a: u64) -> f64 {
    a as f64 / n.max(1) as f64 * (n.max(2) as f64).ln()
}

/// Frieze–Grimmett broadcast time for the random phone-call push model on
/// the complete graph: `log₂ n + ln n` (+o(log n)).
#[must_use]
pub fn frieze_grimmett(n: usize) -> f64 {
    let nf = n.max(2) as f64;
    nf.log2() + nf.ln()
}

/// Karp et al.'s transmission bound for push–pull: `Θ(n·ln ln n)`.
#[must_use]
pub fn karp_transmissions(n: usize) -> f64 {
    let nf = (n.max(3)) as f64;
    nf * nf.ln().ln().max(0.1)
}

/// The push protocol's expected message count on the complete graph when it
/// runs for `rounds` rounds: one transmission per informed node per round —
/// `Θ(n log n)` in total.
#[must_use]
pub fn push_message_scale(n: usize) -> f64 {
    let nf = n.max(2) as f64;
    nf * nf.ln()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn curves_are_monotone_in_n() {
        {
            let f = gamma_ln as fn(usize, f64) -> f64;
            assert!(f(1000, 1.0) > f(100, 1.0));
        }
        assert!(frieze_grimmett(1 << 16) > frieze_grimmett(1 << 8));
        assert!(karp_transmissions(10_000) > karp_transmissions(100));
        assert!(push_message_scale(10_000) > push_message_scale(100));
    }

    #[test]
    fn lifetime_bound_is_linear_in_a() {
        let x = lifetime_bound(128, 128);
        let y = lifetime_bound(128, 256);
        assert!((y / x - 2.0).abs() < 1e-12);
    }

    #[test]
    fn frieze_grimmett_known_value() {
        // log2(1024) + ln(1024) = 10 + 6.931…
        assert!((frieze_grimmett(1024) - (10.0 + 1024f64.ln())).abs() < 1e-9);
    }

    #[test]
    fn degenerate_inputs_are_clamped() {
        assert!(gamma_ln(0, 1.0) > 0.0);
        assert!(karp_transmissions(1) > 0.0);
    }
}
