//! # ephemeral-rng
//!
//! Self-contained, deterministic pseudo-random number generation for the
//! `ephemeral-networks` workspace.
//!
//! The experiments in this workspace are Monte Carlo reproductions of the
//! probabilistic theorems of Akrida, Gąsieniec, Mertzios and Spirakis,
//! *"Ephemeral Networks with Random Availability of Links: Diameter and
//! Connectivity"* (SPAA 2014). Reproducibility of those experiments — across
//! machines, thread counts and dependency upgrades — is a hard requirement,
//! which is why this crate owns its generators instead of depending on the
//! (API-churning) `rand` ecosystem:
//!
//! * [`SplitMix64`]: the 64-bit state mixer of Steele, Lea and Flood. Used
//!   for seed derivation and as a tiny standalone generator.
//! * [`Xoshiro256PlusPlus`]: Blackman & Vigna's xoshiro256++ 1.0, the
//!   workhorse generator (fast, 256-bit state, passes BigCrush).
//! * [`RandomSource`]: the minimal trait the rest of the workspace programs
//!   against (uniform integers via Lemire's method, floats, Bernoulli).
//! * [`distr`]: the distribution samplers the paper's experiments need —
//!   binomial (for the delayed-revelation oracle's "how many arcs land in
//!   this label window" question), geometric, Poisson and Zipf/discrete
//!   alias tables.
//! * [`sample`]: Fisher–Yates shuffling and Floyd's distinct-k sampling.
//! * [`seeds`]: deterministic per-trial seed derivation so that a Monte Carlo
//!   experiment run on 1 thread and on 64 threads draws identical randomness
//!   for trial *i*.
//!
//! ## Quick example
//!
//! ```
//! use ephemeral_rng::{Xoshiro256PlusPlus, RandomSource};
//!
//! let mut rng = Xoshiro256PlusPlus::seed_from_u64(42);
//! let die = rng.bounded_u64(6) + 1;        // uniform in 1..=6
//! assert!((1..=6).contains(&die));
//! let p = rng.unit_f64();                  // uniform in [0, 1)
//! assert!((0.0..1.0).contains(&p));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod distr;
pub mod sample;
pub mod seeds;
mod source;
mod splitmix;
mod xoshiro;

pub use seeds::SeedSequence;
pub use source::RandomSource;
pub use splitmix::SplitMix64;
pub use xoshiro::Xoshiro256PlusPlus;

/// The default generator used throughout the workspace.
pub type DefaultRng = Xoshiro256PlusPlus;

/// Create the workspace-default generator from a 64-bit seed.
///
/// Convenience for `Xoshiro256PlusPlus::seed_from_u64`.
///
/// ```
/// let mut a = ephemeral_rng::default_rng(7);
/// let mut b = ephemeral_rng::default_rng(7);
/// use ephemeral_rng::RandomSource;
/// assert_eq!(a.next_u64(), b.next_u64());
/// ```
#[must_use]
pub fn default_rng(seed: u64) -> DefaultRng {
    Xoshiro256PlusPlus::seed_from_u64(seed)
}
