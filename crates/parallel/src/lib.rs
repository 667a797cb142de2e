//! # ephemeral-parallel
//!
//! The HPC substrate of the workspace: data-parallel execution and the
//! statistics needed to turn Monte Carlo samples into the numbers reported
//! in EXPERIMENTS.md.
//!
//! * [`par_map`] / [`par_for`]: scoped data-parallelism over slices and index
//!   ranges with atomic chunk stealing (the rayon-style "just parallelise
//!   this loop" primitive, built on `std::thread::scope` so there is nothing
//!   to configure and no global state).
//! * [`par_map_with`] / [`par_for_with`]: the same primitives with
//!   per-worker scratch state (`init()` once per worker, `&mut` per item) —
//!   how batch-of-64 sweep buffers and per-trial label draws are reused
//!   across a Monte Carlo loop without reallocating.
//! * [`ThreadPool`]: a persistent worker pool on crossbeam channels for
//!   irregular task sets.
//! * [`adaptive`]: the one Monte Carlo trial runner. Trial `i` always
//!   receives the generator derived from `(seed, i)` and samples fold in
//!   trial order, so results are **bit-identical no matter how many
//!   threads run the experiment** — the property every number in
//!   EXPERIMENTS.md relies on. Batches run until the normal/Wilson
//!   interval half-width hits a target (or a cap), so trials are spent
//!   only where variance demands them; a fixed count is the config whose
//!   stopping rule never fires. The executed trial count itself is
//!   deterministic and thread-invariant.
//! * [`stats`]: Welford online moments, summaries with quantiles, normal &
//!   Wilson confidence intervals, least-squares fits (used to fit
//!   `TD ≈ γ·log n`).
//! * [`faults`]: deterministic fault injection and cooperative
//!   cancellation — a seeded failpoint registry (`faults::site` catalog,
//!   [`FaultSchedule`](faults::FaultSchedule) derived from `SeedSequence`
//!   so injected panics/delays/alloc-pressure reproduce run-to-run), the
//!   structured [`WorkerPanic`] error the `try_` entry
//!   points return, and [`CancelToken`], the
//!   bucket-boundary watchdog behind the sweep grid's `--cell-timeout`.
//! * [`try_par_map`] / [`try_par_map_with`] /
//!   [`adaptive::try_run_adaptive`]: panic-isolated variants — item panics
//!   are caught, the queue drains, poisoned scratch is discarded, and the
//!   smallest failing index surfaces as a deterministic structured error.
//!
//! ```
//! use ephemeral_parallel::adaptive::{adaptive_mean, AdaptiveConfig};
//!
//! // Estimate E[max of 3 dice] with 10_000 deterministic trials.
//! let est = adaptive_mean(&AdaptiveConfig::fixed(10_000), 42, 2, |_, rng| {
//!     use ephemeral_rng::RandomSource;
//!     (0..3).map(|_| rng.bounded_u64(6) + 1).max().unwrap() as f64
//! });
//! assert!((est.stats.mean() - 4.96).abs() < 0.05);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod adaptive;
pub mod faults;
mod montecarlo;
mod pool;
pub mod stats;

pub use faults::{CancelToken, WorkerPanic};
pub use montecarlo::Proportion;
pub use pool::{
    available_threads, par_for, par_for_with, par_map, par_map_with, try_par_map, try_par_map_with,
    PoolClosed, ThreadPool,
};
