//! Proof-of-Work consensus.
//!
//! * [`pow`] — a *real* PoW: nonce search over the block-header SHA-256
//!   until the hash shows the required leading zero bits. Used by the
//!   examples and small integration tests, where actually grinding hashes
//!   is cheap and demonstrates the full pipeline.
//! * [`difficulty`] and [`retarget`] — the difficulty target, the block
//!   rate it implies for a given hash rate, and its retargeting rule.
//!
//! The evaluation harness does not grind hashes: it needs thousands of
//! blocks per run, so each simulated miner draws exponential inter-block
//! times (block discovery as a Poisson process, one block per minute in
//! the paper's c5.large calibration) through `cshard_sim::SimRng`.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod difficulty;
pub mod pow;
pub mod retarget;

pub use difficulty::Difficulty;
pub use pow::{mine, verify_pow, MAX_POW_ITERATIONS};
pub use retarget::next_difficulty;
