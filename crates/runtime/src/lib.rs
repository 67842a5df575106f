//! The unified event-driven protocol runtime.
//!
//! The paper evaluates three block-production regimes — vanilla Ethereum
//! (Table I), contract-centric sharding (Fig. 3) and ChainSpace-style
//! random sharding (Fig. 4) — as variants of *one* discrete-event
//! process. This crate is that process, factored once:
//!
//! * [`Event`] — the typed event vocabulary every protocol shares
//!   (transaction injection, block discovery, block delivery, epoch
//!   advancement, cross-shard validation rounds);
//! * [`ProtocolDriver`] — the per-shard protocol state machine. A driver
//!   owns one shard's state and reacts to events through
//!   [`ProtocolDriver::on_event`]; it never touches the clock, another
//!   shard's state, or host wall-time;
//! * [`Ctx`] — what a driver may do in response: schedule further events
//!   on its own queue and account cross-shard messaging through
//!   [`cshard_network::CommStats`];
//! * [`PropagationModel`] — how a found block becomes visible to the
//!   shard's other miners: the legacy fixed conflict window
//!   ([`PropagationModel::Window`], bit-identical to the pre-refactor
//!   simulator) or explicit [`Event::BlockDelivered`] events drawn from a
//!   [`cshard_network::LatencyModel`];
//! * [`Runtime`] — the two-phase harness that runs one driver per shard
//!   on the shard-lifecycle scheduler (`cshard_sim::WorkScheduler`) and
//!   assembles the [`RunReport`]. Runs launch through the fluent
//!   [`Runtime::builder`] ([`RunBuilder`]), which threads a
//!   [`SchedulerConfig`] (worker count + turn budget) and an optional
//!   shared [`cshard_network::CommStats`] through both phases. All host
//!   wall-clock reads live here, behind the report layer — drivers are
//!   replayable pure functions of their event streams.
//!
//! The concrete drivers for the paper's protocols live here too:
//! [`ContractShardDriver`] (one shard of the contract-centric scheme or,
//! on the MaxShard, vanilla Ethereum) and [`EthereumDriver`] (the
//! degenerate single-chain instance). Their constructors are the one
//! place a run is validated: [`RuntimeConfig::validate`] plus the
//! per-spec miner check, returned as typed errors before any event is
//! scheduled. [`SettlingShardDriver`] carries
//! the cross-shard accounting on top of a contract shard in one driver:
//! batched settlement of outbound transfers ([`Event::SettlementFlush`])
//! and scheduled hot-account moves ([`MigrationTicket`],
//! [`Event::Migration`]), both deferring through the settlement
//! batcher's one blackout table and heal rule. The ChainSpace driver
//! builds on these from `cshard-baselines`, which layers 2PC validation
//! events on top.

#![warn(missing_docs)]
#![forbid(unsafe_code)]
// Event-loop/driver code must use typed errors, not panics (PH001).
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod contract;
pub mod driver;
pub mod event;
pub mod harness;
pub mod propagation;
pub mod report;
pub mod settle;

pub use contract::{
    shard_stream, simulate, simulate_ethereum, ContractShardDriver, EthereumDriver, RuntimeConfig,
    SelectionDynamicsStats, SelectionStrategy, ShardSpec,
};
pub use cshard_settle::{
    Batch, FlushOutcome, SettleConfig, SettleStats, SettlementBatcher, Submit,
};
pub use cshard_sim::{DrainStats, SchedulerConfig};
pub use driver::{Ctx, ProtocolDriver};
pub use event::Event;
pub use harness::{RunBuilder, RunOutcome, RunSchedStats, Runtime};
pub use propagation::PropagationModel;
pub use report::{throughput_improvement, RunReport, ShardReport};
pub use settle::{MigrationStats, MigrationTicket, SettlingShardDriver};
