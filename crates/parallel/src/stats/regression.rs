//! Least-squares line fitting.
//!
//! The workhorse of the scaling experiments: Theorem 4 predicts
//! `TD(n) ≈ γ·log n`, so E02 fits measured diameters against `log₂ n` and
//! reports the slope `γ` with its coefficient of determination.

/// Result of a simple linear regression `y ≈ intercept + slope·x`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinearFit {
    /// Fitted slope.
    pub slope: f64,
    /// Fitted intercept.
    pub intercept: f64,
    /// Coefficient of determination `R²` (1 when the fit is perfect; 0 when
    /// no better than the mean; defined as 1 for a zero-variance response).
    pub r2: f64,
}

/// Ordinary least squares on `(xs[i], ys[i])` pairs.
///
/// # Panics
/// If the slices differ in length, fewer than two points are given, or all
/// `xs` are identical.
#[must_use]
pub fn fit_linear(xs: &[f64], ys: &[f64]) -> LinearFit {
    assert_eq!(xs.len(), ys.len(), "fit_linear: mismatched lengths");
    assert!(xs.len() >= 2, "fit_linear: need at least two points");
    let n = xs.len() as f64;
    let mean_x = xs.iter().sum::<f64>() / n;
    let mean_y = ys.iter().sum::<f64>() / n;
    let mut sxx = 0.0;
    let mut sxy = 0.0;
    let mut syy = 0.0;
    for (&x, &y) in xs.iter().zip(ys) {
        let dx = x - mean_x;
        let dy = y - mean_y;
        sxx += dx * dx;
        sxy += dx * dy;
        syy += dy * dy;
    }
    assert!(sxx > 0.0, "fit_linear: x values are all identical");
    let slope = sxy / sxx;
    let intercept = mean_y - slope * mean_x;
    let r2 = if syy == 0.0 {
        1.0
    } else {
        (sxy * sxy) / (sxx * syy)
    };
    LinearFit {
        slope,
        intercept,
        r2,
    }
}

/// Fit `y ≈ a + b·log₂ n` — returns the fit in `log₂ n` space, i.e.
/// `slope` is the paper's constant `γ` when `y` is a temporal diameter.
///
/// # Panics
/// As [`fit_linear`]; additionally if any `n` is zero.
#[must_use]
pub fn fit_log2(ns: &[usize], ys: &[f64]) -> LinearFit {
    let xs: Vec<f64> = ns
        .iter()
        .map(|&n| {
            assert!(n > 0, "fit_log2: n must be positive");
            (n as f64).log2()
        })
        .collect();
    fit_linear(&xs, ys)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_line_is_recovered() {
        let xs = [1.0, 2.0, 3.0, 4.0];
        let ys: Vec<f64> = xs.iter().map(|x| 2.5 * x - 1.0).collect();
        let fit = fit_linear(&xs, &ys);
        assert!((fit.slope - 2.5).abs() < 1e-12);
        assert!((fit.intercept + 1.0).abs() < 1e-12);
        assert!((fit.r2 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn noisy_line_has_sub_one_r2() {
        let xs: Vec<f64> = (0..50).map(f64::from).collect();
        let ys: Vec<f64> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| 3.0 * x + if i % 2 == 0 { 5.0 } else { -5.0 })
            .collect();
        let fit = fit_linear(&xs, &ys);
        assert!((fit.slope - 3.0).abs() < 0.05);
        assert!(fit.r2 < 1.0 && fit.r2 > 0.9);
    }

    #[test]
    fn constant_response_is_flat_with_perfect_r2() {
        let fit = fit_linear(&[1.0, 2.0, 3.0], &[4.0, 4.0, 4.0]);
        assert_eq!(fit.slope, 0.0);
        assert_eq!(fit.intercept, 4.0);
        assert_eq!(fit.r2, 1.0);
    }

    #[test]
    fn log2_fit_recovers_gamma() {
        // y = 3·log2(n) + 1
        let ns = [64usize, 128, 256, 512, 1024];
        let ys: Vec<f64> = ns.iter().map(|&n| 3.0 * (n as f64).log2() + 1.0).collect();
        let fit = fit_log2(&ns, &ys);
        assert!((fit.slope - 3.0).abs() < 1e-12);
        assert!((fit.intercept - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "mismatched lengths")]
    fn mismatched_lengths_panic() {
        let _ = fit_linear(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "at least two points")]
    fn single_point_panics() {
        let _ = fit_linear(&[1.0], &[1.0]);
    }

    #[test]
    #[should_panic(expected = "identical")]
    fn degenerate_x_panics() {
        let _ = fit_linear(&[2.0, 2.0], &[1.0, 3.0]);
    }
}
