//! Statistics for Monte Carlo experiment reporting.

mod ci;
mod online;
mod regression;
mod summary;

pub use ci::{wilson_half_width, wilson_interval, z_for_confidence};
pub use online::OnlineStats;
pub use regression::{fit_linear, fit_log2, LinearFit};
pub use summary::{quantile_sorted, Summary};
