//! The ContractShard epoch-loop benchmark.
//!
//! Three named workloads ([`workloads::Workload`]) each run as repeated
//! *passes*: a fresh set-up followed by a fixed number of closed-loop
//! epochs ([`pass::run_pass`]). A pass is a pure function of the seed, so
//! every pass of a run must reproduce the same output digest; the
//! benchmark binary times the passes, checks the digests across trace
//! modes, worker counts and (on `stream-1m`) a plain `LongRun` loop, and
//! prints the end-to-end or per-layer metrics.

pub mod metrics;
pub mod pass;
pub mod process;
pub mod procfs;
pub mod trace;
pub mod workloads;

pub use pass::{longrun_pass, run_pass, Counters, Pass, PassConfig};
pub use workloads::{Size, Workload};
