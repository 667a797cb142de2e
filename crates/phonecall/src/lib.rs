//! # ephemeral-phonecall
//!
//! The **random phone-call model** baselines the paper compares against
//! (§1.1): in each synchronous round every node calls a uniformly random
//! neighbour; informed nodes *push* the rumor along their call, and in the
//! push–pull variant uninformed callers also *pull* it from informed
//! callees.
//!
//! Classical results reproduced by experiment E10:
//!
//! * Frieze & Grimmett / Pittel: push broadcast on `K_n` completes in
//!   `log₂ n + ln n + o(log n)` rounds w.h.p.
//! * Karp, Schindelhauer, Shenker & Vöcking: push–pull completes with
//!   `O(n·log log n)` transmissions (vs `Θ(n·log n)` for pure push).
//!
//! The contrast the paper draws: in the phone-call model *the algorithm*
//! chooses a random partner every round, whereas in a random temporal
//! network the randomness is frozen into the input — each link works
//! exactly at its labelled moments, take it or leave it. The temporal
//! clique still disseminates in `Θ(log n)` time (Theorem 4), but its
//! blind flooding protocol costs `Θ(n²)` messages, and no algorithmic
//! cleverness can trade messages for time the way push–pull does.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod push;
mod pushpull;

pub use push::{push_broadcast, PushOutcome};
pub use pushpull::{push_pull_broadcast, PushPullOutcome};
