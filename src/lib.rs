//! # ephemeral-networks
//!
//! A Rust reproduction of **Akrida, Gąsieniec, Mertzios & Spirakis,
//! "Ephemeral Networks with Random Availability of Links: Diameter and
//! Connectivity" (SPAA 2014)** — temporal networks whose links appear only
//! at random discrete times within a finite lifetime.
//!
//! This facade re-exports the whole workspace:
//!
//! * [`graph`] — CSR (di)graph substrate, generators, classical algorithms.
//! * [`temporal`] — labels, journeys, foremost journeys and their
//!   latest-departure dual, temporal distances and `T_reach`; the
//!   `wide` module answers **all** sources in one pass (saturation
//!   early-exit, empty-bucket skipping, column-block sharding), and the
//!   `sparse` module drives the same closure event-style from sorted
//!   reacher lists for the sparse regime (deterministic source-sharded
//!   parallel folds, arena compaction, byte-budgeted streaming closure —
//!   million-vertex capable) — the all-pairs closure, diameter,
//!   connectivity, `T_reach` and metrics entry points dispatch between
//!   these two through the density-aware, worker-aware
//!   `sparse::EngineChoice`; the `engine` module's 64-lane lane pass
//!   answers point queries and the `T_reach` and connectivity probes;
//!   the `delta`
//!   module maintains a recorded closure **differentially** across
//!   single-label moves (retract-and-replay, bit-identical to cold
//!   sweeps, ~15× per move on sparse `G(4096, p)`); every sweep runs
//!   its inner loops through the `kernels` module — one explicit
//!   layer of unrolled OR/ANDN word kernels and galloping sorted-`u32`
//!   merges over 64-byte-aligned slabs, pinned bit-identical to a
//!   scalar reference.
//! * [`core`] — the paper's contribution: U-RTN models, the Expansion
//!   Process (Algorithm 1), the §3.5 dissemination protocol, temporal
//!   diameter estimation, star-graph machinery, deterministic OPT schemes
//!   and the Price of Randomness; `correlated` runs single-site Gibbs
//!   what-if chains on the differentially maintained closure.
//! * [`serve`] — a long-lived reachability service over resident
//!   `temporal::session::QuerySession`s: a JSON-lines protocol over
//!   stdin/TCP, instances sharded onto workers each owning a
//!   byte-budgeted LRU cache, consecutive point queries per instance
//!   coalesced into 64-lane batches, answers streamed back in arrival
//!   order, and panic/deadline degradation to `"status":"failed"` lines.
//! * [`phonecall`] — the random phone-call model baselines (§1.1).
//! * [`rng`] — deterministic PRNG stack (xoshiro256++ / SplitMix64).
//! * [`parallel`] — data-parallel Monte Carlo engine and statistics, plus
//!   the robustness substrate: `parallel::faults` is a deterministic
//!   failpoint registry (seeded panic/delay/alloc-pressure schedules that
//!   reproduce run-to-run), `try_par_map` / `try_run_adaptive` isolate
//!   worker panics into structured `WorkerPanic` errors without
//!   poisoning pool or scratch state, and `CancelToken` gives sweeps a
//!   cooperative bucket-boundary watchdog. The bench sweep grid builds
//!   on all three: per-cell retry with byte-identical recovery,
//!   `"status":"failed"` quarantine rows, and `--cell-timeout`.
//!
//! ## Quickstart
//!
//! ```
//! use ephemeral_networks::core::urtn;
//! use ephemeral_networks::core::dissemination::flood;
//! use ephemeral_networks::rng::default_rng;
//!
//! // The paper's "hostile clique": every arc of K_64 is unguarded exactly
//! // once, at a uniformly random moment in {1, …, 64}.
//! let mut rng = default_rng(2014);
//! let tn = urtn::sample_normalized_urt_clique(64, true, &mut rng);
//!
//! // Spreading a message greedily reaches everyone in O(log n) time.
//! let out = flood(&tn, 0);
//! assert_eq!(out.informed_count, 64);
//! assert!(f64::from(out.broadcast_time.unwrap()) <= 8.0 * 64f64.ln());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use ephemeral_core as core;
pub use ephemeral_graph as graph;
pub use ephemeral_parallel as parallel;
pub use ephemeral_phonecall as phonecall;
pub use ephemeral_rng as rng;
pub use ephemeral_serve as serve;
pub use ephemeral_temporal as temporal;
