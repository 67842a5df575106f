//! The contract-centric shard driver (and its degenerate single-chain
//! instance, vanilla Ethereum).
//!
//! This is the stand-in for the paper's nine-server go-Ethereum testbed.
//! Each shard runs an independent PoW chain; each miner finds blocks as a
//! Poisson process (mean one per minute in the Sec. VI-B1 calibration) and
//! fills them from the shard's unconfirmed queue according to a selection
//! strategy:
//!
//! * [`SelectionStrategy::IdenticalGreedy`] — every miner picks the same
//!   top-fee transactions (Sec. II-B). Progress serializes: a block found
//!   within the propagation/template window of an accepted block confirms
//!   the *same* set and is wasted ("stale"). This reproduces Table I's
//!   plateau and is the Ethereum baseline of every comparison.
//! * [`SelectionStrategy::Equilibrium`] — miners play Algorithm 2 per
//!   epoch: the leader's unified parameters assign each miner a distinct
//!   (at equilibrium) transaction set; disjoint blocks commute, so miners
//!   of one shard confirm in parallel. Epochs advance when the previous
//!   assignment is fully confirmed, matching the per-epoch broadcast of
//!   parameter unification.
//!
//! A miner whose visible queue is empty still mines — for the block reward
//! — producing the **empty blocks** that motivate inter-shard merging; they
//! are counted within the configured measurement window (the paper counts
//! over 212 s in Sec. VI-C1).
//!
//! Propagation is governed by the run's [`PropagationModel`]: the legacy
//! fixed conflict window (bit-identical to the pre-refactor simulator) or
//! explicit [`Event::BlockDelivered`] events drawn from the network's
//! latency model.

use crate::driver::{Ctx, ProtocolDriver};
use crate::event::Event;
use crate::harness::Runtime;
use crate::propagation::PropagationModel;
use crate::report::{RunReport, ShardReport};
use cshard_crypto::Prf;
use cshard_games::dynamics::{BestReplyDynamics, GameDynamics, SelectInput, SelectionWarmCache};
use cshard_games::selection::SelectionConfig;
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_settle::SettleConfig;
use cshard_sim::{SchedulerConfig, SimRng};
use std::time::Duration;

/// How miners of a shard pick transactions.
#[derive(Clone, Debug)]
pub enum SelectionStrategy {
    /// Fee-greedy, identical at every miner (vanilla Ethereum, Sec. II-B).
    IdenticalGreedy,
    /// Best-reply congestion-game equilibrium per epoch (Algorithm 2).
    Equilibrium {
        /// The game's tunables (capacity is taken from the runtime's block
        /// capacity).
        max_rounds: usize,
    },
}

/// One shard's inputs to a run.
#[derive(Clone, Debug)]
pub struct ShardSpec {
    /// The shard id (labels the report).
    pub shard: ShardId,
    /// Fee of each transaction in the shard (local indices).
    pub fees: Vec<u64>,
    /// Miners assigned to this shard.
    pub miners: usize,
    /// Selection behaviour.
    pub strategy: SelectionStrategy,
}

impl ShardSpec {
    /// A single-miner greedy shard — the common sharded-run configuration
    /// (the paper sets one miner per shard, Sec. VI-A).
    pub fn solo_greedy(shard: ShardId, fees: Vec<u64>) -> Self {
        ShardSpec {
            shard,
            fees,
            miners: 1,
            strategy: SelectionStrategy::IdenticalGreedy,
        }
    }
}

/// Global run parameters.
#[derive(Clone, Debug)]
pub struct RuntimeConfig {
    /// Transactions per block (the paper's gas limit admits 10).
    pub block_capacity: usize,
    /// Mean block interval per miner (Sec. VI-B1: 60 s; Sec. VI-B2 unifies
    /// confirmation at 76 tx/s instead).
    pub mean_block_interval: SimTime,
    /// How found blocks propagate to the shard's other miners.
    /// [`PropagationModel::Window`] is the legacy fixed conflict window
    /// (drives Table I's plateau; irrelevant for one-miner shards);
    /// [`PropagationModel::Latency`] materializes delivery as explicit
    /// [`Event::BlockDelivered`] events.
    pub propagation: PropagationModel,
    /// Count empty blocks only up to this time (Sec. VI-C1 counts over a
    /// fixed 212 s window). `None` counts until the run completes.
    pub empty_block_window: Option<SimTime>,
    /// RNG seed; identical seeds reproduce runs bit-for-bit.
    pub seed: u64,
    /// How the per-shard drivers are scheduled: worker count (`threads: 1`
    /// runs shard drivers inline, `0` uses one worker per available core)
    /// and per-turn event budget. Results are bit-identical across all
    /// settings — each shard's randomness is derived from `(seed, shard)`
    /// by a PRF, never from cross-shard draw order or worker interleaving.
    pub scheduler: SchedulerConfig,
    /// Cross-shard settlement batching (`cshard-settle`). Disabled by
    /// default; only drivers that opt into settlement (the settling
    /// wrapper, ChainSpace's batched mode) read it, so the golden paths
    /// are untouched.
    pub settle: SettleConfig,
}

impl RuntimeConfig {
    /// The effective conflict window: the configured window, or the
    /// latency model's worst-case delivery delay.
    pub fn conflict_window(&self) -> SimTime {
        self.propagation.conflict_window()
    }

    /// Checks the run parameters every driver depends on: a positive
    /// block capacity, a positive mean block interval (miners draw
    /// exponential block times from it) and a valid settlement config.
    /// Every driver constructor calls this, so an invalid config is a
    /// typed error before any event is scheduled.
    pub fn validate(&self) -> Result<(), Error> {
        for (field, zero) in [
            ("block_capacity", self.block_capacity == 0),
            (
                "mean_block_interval",
                self.mean_block_interval == SimTime::ZERO,
            ),
        ] {
            if zero {
                return Err(Error::Config {
                    field,
                    reason: "must be positive".into(),
                });
            }
        }
        self.settle.validate()
    }
}

impl Default for RuntimeConfig {
    fn default() -> Self {
        RuntimeConfig {
            block_capacity: 10,
            mean_block_interval: SimTime::from_secs(60),
            // One block interval: after a confirmation, the network needs a
            // full template round before non-duplicate work lands (the
            // serialization the paper describes in Sec. II-B).
            propagation: PropagationModel::Window(SimTime::from_secs(60)),
            empty_block_window: None,
            seed: 0,
            scheduler: SchedulerConfig::sequential(),
            settle: SettleConfig::disabled(),
        }
    }
}

/// Iteration accounting of a shard's selection-game dynamics — how many
/// epochs were played, how many best-reply sweeps they cost, and how the
/// warm cache fared. Sim-clock-free counters (ND001): pure event-path
/// arithmetic, no wall time.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SelectionDynamicsStats {
    /// Selection epochs started over the run.
    pub epochs: u64,
    /// Total best-reply sweeps across all epochs (including the final
    /// certification sweep of each).
    pub rounds: u64,
    /// Epochs seeded from a cached equilibrium (one certification sweep).
    pub warm_hits: u64,
    /// Epochs computed cold and stored for later reuse.
    pub warm_misses: u64,
}

struct ShardState {
    spec: ShardSpec,
    /// Confirmation time + author per local tx (None = unconfirmed).
    confirmed: Vec<Option<(SimTime, usize)>>,
    /// Delivery time per confirmed tx — when the confirming block has
    /// reached the whole shard. Only populated under delivery-scheduling
    /// models ([`PropagationModel::Latency`] /
    /// [`PropagationModel::Partition`]); the window model derives visibility
    /// from the confirmation time alone.
    visible_at: Vec<Option<SimTime>>,
    unconfirmed: usize,
    /// Greedy order (fee desc, index asc) with a monotone scan cursor.
    greedy_order: Vec<usize>,
    cursor: usize,
    /// Equilibrium epoch state.
    epoch_assignments: Vec<Vec<usize>>,
    epoch_unconfirmed: usize,
    epoch_counter: u64,
    /// Report accumulators.
    blocks: usize,
    empty_blocks: usize,
    stale_blocks: usize,
    last_confirmation: Option<SimTime>,
    /// Latest pending delivery horizon (latency propagation only).
    latest_visible: Option<SimTime>,
    /// Per-shard RNG stream for epoch initial choices.
    epoch_rng: SimRng,
    /// The selection game's dynamics, re-initialized per epoch so its
    /// scratch buffers persist across epochs (allocation-free after the
    /// first).
    dynamics: BestReplyDynamics,
    /// Cross-epoch equilibrium memo. `None` (the default) disables warm
    /// starts entirely — the cold path is untouched, which is what keeps
    /// the golden fingerprints byte-identical.
    warm_cache: Option<SelectionWarmCache>,
    /// Total best-reply sweeps across all epochs.
    game_rounds: u64,
}

impl ShardState {
    fn new(spec: ShardSpec, epoch_rng: SimRng) -> Self {
        let mut greedy_order: Vec<usize> = (0..spec.fees.len()).collect();
        greedy_order.sort_by(|&a, &b| spec.fees[b].cmp(&spec.fees[a]).then(a.cmp(&b)));
        let n = spec.fees.len();
        ShardState {
            confirmed: vec![None; n],
            visible_at: vec![None; n],
            unconfirmed: n,
            greedy_order,
            cursor: 0,
            epoch_assignments: Vec::new(),
            epoch_unconfirmed: 0,
            epoch_counter: 0,
            blocks: 0,
            empty_blocks: 0,
            stale_blocks: 0,
            last_confirmation: None,
            latest_visible: None,
            epoch_rng,
            dynamics: BestReplyDynamics::new(),
            warm_cache: None,
            game_rounds: 0,
            spec,
        }
    }

    /// Is `tx` part of what a miner at time `now` would still try to pack?
    /// Unconfirmed, or confirmed so recently (still propagating, by someone
    /// else) that the miner has not seen it yet.
    fn visible_unconfirmed(
        &self,
        tx: usize,
        now: SimTime,
        miner: usize,
        propagation: &PropagationModel,
    ) -> bool {
        match self.confirmed[tx] {
            None => true,
            Some((at, author)) => {
                if author == miner {
                    return false;
                }
                match propagation {
                    PropagationModel::Window(w) => now.saturating_since(at) < *w,
                    PropagationModel::Latency(_) | PropagationModel::Partition(_) => {
                        self.visible_at[tx].is_some_and(|v| now < v)
                    }
                }
            }
        }
    }

    /// Starts a new selection-game epoch over the currently unconfirmed
    /// transactions (Algorithm 2 under unified parameters).
    fn start_epoch(&mut self, capacity: usize, max_rounds: usize) {
        let remaining: Vec<usize> = (0..self.spec.fees.len())
            .filter(|&i| self.confirmed[i].is_none())
            .collect();
        self.epoch_counter += 1;
        if remaining.is_empty() {
            self.epoch_assignments = vec![Vec::new(); self.spec.miners];
            self.epoch_unconfirmed = 0;
            return;
        }
        let sub_fees: Vec<u64> = remaining.iter().map(|&i| self.spec.fees[i]).collect();
        let t = sub_fees.len();
        let cap = capacity.min(t);
        // Unified initial choices: a seeded stride per miner. Always
        // drawn — warm hit or miss — so the epoch stream's position is a
        // pure function of the epoch count and warm starts cannot shift
        // any later draw.
        let initial: Vec<Vec<usize>> = (0..self.spec.miners)
            .map(|m| {
                let offset = self.epoch_rng.below(t as u64) as usize;
                (0..cap).map(|k| (offset + k * 7 + m) % t).collect()
            })
            .collect();
        let sel_config = SelectionConfig {
            capacity: cap,
            max_rounds,
        };
        // Warm path: if this exact game (fees, initial sets, tunables)
        // was solved before, seed the dynamics at the cached equilibrium.
        // A Nash equilibrium of the identical game certifies in a single
        // sweep and reproduces the identical assignment — strictly fewer
        // sweeps, bit-identical outcome.
        let key = self
            .warm_cache
            .as_ref()
            .map(|_| SelectionWarmCache::key(&sub_fees, &initial, &sel_config));
        let mut warmed = false;
        if let (Some(cache), Some(k)) = (&mut self.warm_cache, &key) {
            if let Some(previous) = cache.lookup(k) {
                self.dynamics.init_warm(&sub_fees, previous, &sel_config);
                warmed = true;
            }
        }
        if !warmed {
            self.dynamics.init(SelectInput {
                fees: &sub_fees,
                initial: &initial,
                config: &sel_config,
            });
        }
        self.dynamics.run_to_convergence();
        let outcome = self.dynamics.solution();
        self.game_rounds += outcome.rounds as u64;
        if let (Some(cache), Some(k)) = (&mut self.warm_cache, key) {
            if !warmed {
                cache.store(k, outcome.assignments.clone());
            }
        }
        // Map sub-indices back to local tx indices.
        self.epoch_assignments = outcome
            .assignments
            .iter()
            .map(|set| set.iter().map(|&j| remaining[j]).collect())
            .collect();
        // Union size = number of covered (distinct) remaining txs.
        let mut covered = vec![false; t];
        for set in &outcome.assignments {
            for &j in set {
                covered[j] = true;
            }
        }
        self.epoch_unconfirmed = covered.iter().filter(|&&c| c).count();
    }
}

/// Derives one shard driver's root RNG stream as a pure function of
/// `(master seed, shard id)`, via the keyed PRF. No draw order is
/// involved, so shard drivers can be constructed and run in any order — or
/// concurrently — with bit-identical results, and a shard's stream does
/// not depend on which other shards share the run.
pub fn shard_stream(seed: u64, shard: ShardId) -> SimRng {
    let prf = Prf::new(seed.to_be_bytes());
    SimRng::from_seed_bytes(*prf.eval("shard-task-v1", shard.0.to_be_bytes()).as_bytes())
}

/// One shard of the contract-centric scheme as a [`ProtocolDriver`]: its
/// chain state and its miners' private RNG streams, driven by
/// [`Event::BlockFound`] ticks (plus [`Event::BlockDelivered`] under
/// latency propagation). The driver never reads another shard's state,
/// which is what makes the harness's executor safe.
pub struct ContractShardDriver {
    st: ShardState,
    miner_rngs: Vec<SimRng>,
    /// Delivery-delay stream, used only under latency propagation. Forked
    /// *after* the epoch and miner streams, so window-model trajectories
    /// are unchanged from the pre-refactor simulator.
    prop_rng: SimRng,
    config: RuntimeConfig,
    candidate: Vec<usize>,
}

impl ContractShardDriver {
    /// Builds the driver for one shard spec under `config`.
    ///
    /// # Errors
    /// [`Error::NoMiners`] when the spec assigns no miners, otherwise
    /// whatever [`RuntimeConfig::validate`] rejects.
    pub fn new(spec: &ShardSpec, config: &RuntimeConfig) -> Result<ContractShardDriver, Error> {
        if spec.miners == 0 {
            return Err(Error::NoMiners { shard: spec.shard });
        }
        config.validate()?;
        let mut root = shard_stream(config.seed, spec.shard);
        let epoch_rng = root.fork(0x4550_4F43); // "EPOC"
        let miner_rngs: Vec<SimRng> = (0..spec.miners as u64).map(|m| root.fork(m)).collect();
        let prop_rng = root.fork(0x5052_4F50); // "PROP"
        Ok(ContractShardDriver {
            st: ShardState::new(spec.clone(), epoch_rng),
            miner_rngs,
            prop_rng,
            candidate: Vec::with_capacity(config.block_capacity),
            config: config.clone(),
        })
    }

    /// Builds the driver with a cross-epoch [`SelectionWarmCache`]
    /// carried in from a previous run of the same shard.
    ///
    /// Warm starts never change what the driver computes — every epoch's
    /// initial choices are drawn from the same stream positions, and a
    /// cache hit seeds the dynamics at an equilibrium of the *identical*
    /// game, which certifies in one sweep to the identical assignment.
    /// Only the sweep counts in [`selection_stats`](Self::selection_stats)
    /// shrink. Errors exactly as [`ContractShardDriver::new`].
    pub fn with_warm_cache(
        spec: &ShardSpec,
        config: &RuntimeConfig,
        cache: SelectionWarmCache,
    ) -> Result<ContractShardDriver, Error> {
        let mut driver = ContractShardDriver::new(spec, config)?;
        driver.st.warm_cache = Some(cache);
        Ok(driver)
    }

    /// Takes the warm cache back out after a run (to thread it into the
    /// next epoch's driver). `None` when the driver ran cold.
    pub fn into_warm_cache(self) -> Option<SelectionWarmCache> {
        self.st.warm_cache
    }

    /// Whether local transaction `tx` has been confirmed. Settlement
    /// wrappers poll this after each event to decide when a cross-shard
    /// transfer attached to `tx` becomes eligible for batching.
    pub fn is_confirmed(&self, tx: usize) -> bool {
        self.st.confirmed.get(tx).is_some_and(|c| c.is_some())
    }

    /// Iteration accounting of this shard's selection dynamics.
    pub fn selection_stats(&self) -> SelectionDynamicsStats {
        let (hits, misses) = self
            .st
            .warm_cache
            .as_ref()
            .map_or((0, 0), |c| (c.hits(), c.misses()));
        SelectionDynamicsStats {
            epochs: self.st.epoch_counter,
            rounds: self.st.game_rounds,
            warm_hits: hits,
            warm_misses: misses,
        }
    }

    /// Processes one block-found event: build the miner's candidate block,
    /// classify it (useful / empty / stale), apply confirmations, and (under
    /// latency propagation) emit the delivery event.
    fn on_block_found(&mut self, now: SimTime, miner: usize, ctx: &mut Ctx) {
        let st = &mut self.st;
        st.blocks += 1;

        // Build the miner's candidate block.
        self.candidate.clear();
        let mut contended_stale = false;
        match st.spec.strategy {
            SelectionStrategy::IdenticalGreedy => {
                // Identical selection serializes the network: after any
                // confirmation, every in-flight template of a *contended*
                // chain (more than one miner) references the just-confirmed
                // set, so blocks found while it still propagates are
                // duplicates — "transactions with the highest transaction
                // fees are likely to be confirmed first before the whole
                // network moves on to the next set" (Sec. II-B). A solo
                // miner refreshes its own template instantly and never
                // self-conflicts.
                contended_stale = st.spec.miners > 1
                    && st.unconfirmed > 0
                    && match &self.config.propagation {
                        PropagationModel::Window(w) => st
                            .last_confirmation
                            .is_some_and(|t0| now.saturating_since(t0) < *w),
                        PropagationModel::Latency(_) | PropagationModel::Partition(_) => {
                            st.latest_visible.is_some_and(|v| now < v)
                        }
                    };
                if !contended_stale {
                    // Advance the cursor past confirmed txs — monotone scan.
                    while st.cursor < st.greedy_order.len()
                        && st.confirmed[st.greedy_order[st.cursor]].is_some()
                    {
                        st.cursor += 1;
                    }
                    let mut pos = st.cursor;
                    while pos < st.greedy_order.len()
                        && self.candidate.len() < self.config.block_capacity
                    {
                        let tx = st.greedy_order[pos];
                        if st.confirmed[tx].is_none() {
                            self.candidate.push(tx);
                        }
                        pos += 1;
                    }
                }
            }
            SelectionStrategy::Equilibrium { max_rounds } => {
                if st.epoch_unconfirmed == 0 && st.unconfirmed > 0 {
                    st.start_epoch(self.config.block_capacity, max_rounds);
                }
                if !st.epoch_assignments.is_empty() {
                    for &tx in &st.epoch_assignments[miner] {
                        if self.candidate.len() >= self.config.block_capacity {
                            break;
                        }
                        if st.visible_unconfirmed(tx, now, miner, &self.config.propagation) {
                            self.candidate.push(tx);
                        }
                    }
                }
            }
        }

        // Classify the block and apply confirmations.
        let mut newly = 0;
        for &tx in self.candidate.iter() {
            if st.confirmed[tx].is_none() {
                st.confirmed[tx] = Some((now, miner));
                st.unconfirmed -= 1;
                st.last_confirmation = Some(now);
                newly += 1;
                if matches!(st.spec.strategy, SelectionStrategy::Equilibrium { .. }) {
                    st.epoch_unconfirmed = st.epoch_unconfirmed.saturating_sub(1);
                }
            }
        }
        if contended_stale {
            st.stale_blocks += 1;
        } else if self.candidate.is_empty() {
            let within = self.config.empty_block_window.is_none_or(|cap| now <= cap);
            if within {
                st.empty_blocks += 1;
            }
        } else if newly == 0 {
            st.stale_blocks += 1;
        }

        // Under network-backed propagation (latency or partition), a
        // confirming block's visibility is an explicit delivery event. The
        // RNG draw happens only when a delivery is materialized, so
        // window-model trajectories stay bit-identical to the pre-refactor
        // simulator.
        if newly > 0 && self.config.propagation.schedules_deliveries() {
            let u = self.prop_rng.unit();
            if let Some(delivered) = self.config.propagation.delivery_time(now, u) {
                for &tx in self.candidate.iter() {
                    if st.confirmed[tx] == Some((now, miner)) {
                        st.visible_at[tx] = Some(delivered);
                    }
                }
                st.latest_visible = Some(st.latest_visible.map_or(delivered, |v| v.max(delivered)));
                ctx.schedule(delivered, Event::BlockDelivered { origin: miner });
            }
        }
    }
}

impl ProtocolDriver for ContractShardDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        for (m, rng) in self.miner_rngs.iter_mut().enumerate() {
            let dt = rng.exp_delay(self.config.mean_block_interval);
            ctx.schedule(dt, Event::BlockFound { miner: m });
        }
    }

    fn on_event(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        match ev {
            Event::BlockFound { miner } => {
                self.on_block_found(now, miner, ctx);
                let dt = self.miner_rngs[miner].exp_delay(self.config.mean_block_interval);
                ctx.schedule_in(dt, Event::BlockFound { miner });
                Ok(())
            }
            Event::BlockDelivered { .. } => {
                // Visibility is time-keyed; once the latest delivery has
                // fired, clear the horizon so the stale check short-circuits.
                if self.st.latest_visible.is_some_and(|v| v <= now) {
                    self.st.latest_visible = None;
                }
                Ok(())
            }
            other => Err(Error::UnexpectedEvent {
                driver: "ContractShardDriver",
                event: format!("{other:?}"),
            }),
        }
    }

    fn done(&self) -> bool {
        self.st.unconfirmed == 0
    }

    fn completion(&self) -> Option<SimTime> {
        self.st.last_confirmation
    }

    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        ShardReport {
            shard: self.st.spec.shard,
            txs: self.st.spec.fees.len(),
            confirmed: self.st.spec.fees.len() - self.st.unconfirmed,
            completion: self.st.last_confirmation,
            blocks: self.st.blocks,
            empty_blocks: self.st.empty_blocks,
            stale_blocks: self.st.stale_blocks,
            events_processed: events,
            wall,
        }
    }
}

/// Vanilla Ethereum as a [`ProtocolDriver`]: the degenerate sharding where
/// nothing is separated, so the single chain is the
/// [`ShardId::MAX_SHARD`]. Because RNG streams are keyed by
/// `(seed, shard)`, this is bit-identical to a one-shard run of the full
/// system under the same configuration — there is no separate Ethereum
/// simulation loop anymore.
pub struct EthereumDriver {
    inner: ContractShardDriver,
}

impl EthereumDriver {
    /// All transactions on one chain, `miners` identical greedy miners
    /// (Sec. VI-A's benchmark). Errors exactly as
    /// [`ContractShardDriver::new`].
    pub fn new(
        fees: Vec<u64>,
        miners: usize,
        config: &RuntimeConfig,
    ) -> Result<EthereumDriver, Error> {
        let spec = ShardSpec {
            shard: ShardId::MAX_SHARD,
            fees,
            miners,
            strategy: SelectionStrategy::IdenticalGreedy,
        };
        Ok(EthereumDriver {
            inner: ContractShardDriver::new(&spec, config)?,
        })
    }
}

impl ProtocolDriver for EthereumDriver {
    fn on_start(&mut self, ctx: &mut Ctx) {
        self.inner.on_start(ctx)
    }
    fn on_event(&mut self, now: SimTime, ev: Event, ctx: &mut Ctx) -> Result<(), Error> {
        self.inner.on_event(now, ev, ctx)
    }
    fn done(&self) -> bool {
        self.inner.done()
    }
    fn completion(&self) -> Option<SimTime> {
        self.inner.completion()
    }
    fn report(&self, events: usize, wall: Duration) -> ShardReport {
        self.inner.report(events, wall)
    }
}

/// Runs the simulation to completion (every injected transaction of every
/// shard confirmed) and reports.
///
/// Thin wrapper: builds one [`ContractShardDriver`] per spec and runs
/// them through [`Runtime::builder`]. Shards are independent drivers —
/// each derives its randomness from `(config.seed, shard)` via a PRF and
/// owns its event queue, so the harness may run them on any number of
/// threads ([`RuntimeConfig::scheduler`]) and the report is bit-for-bit
/// identical to a sequential run.
///
/// Errors on an invalid configuration or spec (see
/// [`ContractShardDriver::new`]) or a malformed event stream, instead of
/// panicking.
pub fn simulate(shards: &[ShardSpec], config: &RuntimeConfig) -> Result<RunReport, Error> {
    let drivers = shards
        .iter()
        .map(|spec| ContractShardDriver::new(spec, config))
        .collect::<Result<Vec<_>, _>>()?;
    Runtime::builder()
        .scheduler(config.scheduler)
        .run(drivers)
        .map(|outcome| outcome.report)
}

/// Convenience: the Ethereum baseline — all transactions on one chain,
/// `miners` identical greedy miners (Sec. VI-A's benchmark). Thin wrapper
/// over [`EthereumDriver`] on the shared [`Runtime`]; errors as
/// [`simulate`].
pub fn simulate_ethereum(
    fees: Vec<u64>,
    miners: usize,
    config: &RuntimeConfig,
) -> Result<RunReport, Error> {
    let driver = EthereumDriver::new(fees, miners, config)?;
    Runtime::builder()
        .scheduler(config.scheduler)
        .run(vec![driver])
        .map(|outcome| outcome.report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::report::throughput_improvement;
    use cshard_network::LatencyModel;

    // Shadow the fallible entry points: every config in this module is
    // well-formed, so the tests read as before the `Result` change.
    fn simulate(shards: &[ShardSpec], config: &RuntimeConfig) -> RunReport {
        super::simulate(shards, config).expect("valid test config")
    }

    fn simulate_ethereum(fees: Vec<u64>, miners: usize, config: &RuntimeConfig) -> RunReport {
        super::simulate_ethereum(fees, miners, config).expect("valid test config")
    }

    fn fees(n: usize) -> Vec<u64> {
        (0..n as u64).map(|i| 1 + (i * 17) % 97).collect()
    }

    fn cfg(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn single_miner_confirms_everything() {
        let r = simulate_ethereum(fees(20), 1, &cfg(1));
        assert_eq!(r.total_txs(), 20);
        assert_eq!(r.shards[0].confirmed, 20);
        assert!(r.completion > SimTime::ZERO);
        // 20 txs at capacity 10 → exactly 2 useful blocks; no empty ones
        // (the run stops at the last confirmation).
        assert_eq!(
            r.shards[0].blocks - r.shards[0].stale_blocks - r.shards[0].empty_blocks,
            2
        );
    }

    #[test]
    fn runs_are_deterministic() {
        let a = simulate_ethereum(fees(50), 3, &cfg(7));
        let b = simulate_ethereum(fees(50), 3, &cfg(7));
        assert_eq!(a.completion, b.completion);
        assert_eq!(a.total_blocks(), b.total_blocks());
        let c = simulate_ethereum(fees(50), 3, &cfg(8));
        assert_ne!(a.completion, c.completion);
    }

    #[test]
    fn table1_shape_more_miners_saturate() {
        // Average completion over seeds for 20 txs: 2 miners much slower
        // than 4; 4 → 7 roughly flat (the Table I plateau).
        let avg = |miners: usize| -> f64 {
            (0..200u64)
                .map(|s| {
                    simulate_ethereum(fees(20), miners, &cfg(s))
                        .completion
                        .as_secs_f64()
                })
                .sum::<f64>()
                / 200.0
        };
        let t2 = avg(2);
        let t4 = avg(4);
        let t7 = avg(7);
        assert!(t2 > t7, "t2={t2:.0} t7={t7:.0}: no initial gain");
        let plateau = (t4 - t7).abs() / t4;
        assert!(plateau < 0.20, "t4={t4:.0} t7={t7:.0} not a plateau");
    }

    #[test]
    fn greedy_duplicates_become_stale_blocks() {
        // Many fast miners on one queue: lots of duplicate selections.
        let mut total_stale = 0;
        for s in 0..10 {
            total_stale += simulate_ethereum(fees(30), 8, &cfg(s)).total_stale_blocks();
        }
        assert!(total_stale > 0, "8 racing miners must waste some blocks");
    }

    #[test]
    fn sharding_beats_single_chain() {
        // 9 shards × 22 txs in parallel vs 198 txs on one chain.
        let shard_specs: Vec<ShardSpec> = (0..9)
            .map(|i| ShardSpec::solo_greedy(ShardId::new(i), fees(22)))
            .collect();
        let sharded = simulate(&shard_specs, &cfg(3));
        // The Ethereum benchmark is the one-chain instance: the paper's
        // improvement curve is anchored at 1.0 for a single shard, and
        // Table I shows extra miners do not speed the single chain up.
        let ethereum = simulate_ethereum(fees(198), 1, &cfg(3));
        let imp = throughput_improvement(&ethereum, &sharded);
        assert!(imp > 2.5, "improvement {imp:.2} too small");
        assert_eq!(sharded.total_txs(), 198);
        assert!(sharded.shards.iter().all(|s| s.confirmed == s.txs));
    }

    #[test]
    fn idle_shard_mines_empty_blocks_until_completion() {
        // A 2-tx shard next to a 60-tx shard idles for most of the run.
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), fees(2)),
            ShardSpec::solo_greedy(ShardId::new(1), fees(60)),
        ];
        let mut empties = 0;
        for s in 0..10 {
            empties += simulate(&specs, &cfg(s)).shards[0].empty_blocks;
        }
        assert!(empties > 10, "small shard produced only {empties} empties");
    }

    #[test]
    fn empty_block_window_caps_counting() {
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), fees(2)),
            ShardSpec::solo_greedy(ShardId::new(1), fees(60)),
        ];
        let uncapped = simulate(&specs, &cfg(4));
        let capped = simulate(
            &specs,
            &RuntimeConfig {
                empty_block_window: Some(SimTime::from_secs(120)),
                ..cfg(4)
            },
        );
        assert!(capped.shards[0].empty_blocks <= uncapped.shards[0].empty_blocks);
    }

    #[test]
    fn equilibrium_selection_outperforms_greedy_with_many_miners() {
        // Fig. 3(h): 200 txs, one shard, 9 miners.
        let f = fees(200);
        let greedy = ShardSpec {
            shard: ShardId::new(0),
            fees: f.clone(),
            miners: 9,
            strategy: SelectionStrategy::IdenticalGreedy,
        };
        let eq = ShardSpec {
            shard: ShardId::new(0),
            fees: f,
            miners: 9,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 1000 },
        };
        let mut imp_sum = 0.0;
        for s in 0..6 {
            let g = simulate(std::slice::from_ref(&greedy), &cfg(s));
            let e = simulate(std::slice::from_ref(&eq), &cfg(s));
            assert_eq!(e.shards[0].confirmed, 200);
            imp_sum += throughput_improvement(&g, &e);
        }
        let avg = imp_sum / 6.0;
        assert!(avg > 1.5, "equilibrium improvement only {avg:.2}x");
    }

    #[test]
    fn equilibrium_with_one_miner_equals_greedy_scale() {
        // One miner: both strategies confirm capacity per block; completion
        // should be within noise of each other.
        let f = fees(50);
        let mk = |strategy| ShardSpec {
            shard: ShardId::new(0),
            fees: f.clone(),
            miners: 1,
            strategy,
        };
        let g = simulate(&[mk(SelectionStrategy::IdenticalGreedy)], &cfg(2));
        let e = simulate(
            &[mk(SelectionStrategy::Equilibrium { max_rounds: 100 })],
            &cfg(2),
        );
        assert_eq!(g.shards[0].confirmed, 50);
        assert_eq!(e.shards[0].confirmed, 50);
        let useful_g = g.shards[0].blocks - g.shards[0].empty_blocks - g.shards[0].stale_blocks;
        let useful_e = e.shards[0].blocks - e.shards[0].empty_blocks - e.shards[0].stale_blocks;
        assert_eq!(useful_g, 5);
        assert_eq!(useful_e, 5);
    }

    #[test]
    fn empty_shard_contributes_nothing_but_is_reported() {
        let specs = vec![
            ShardSpec::solo_greedy(ShardId::new(0), vec![]),
            ShardSpec::solo_greedy(ShardId::new(1), fees(5)),
        ];
        let r = simulate(&specs, &cfg(1));
        assert_eq!(r.shards[0].txs, 0);
        assert_eq!(r.shards[0].completion, None);
        assert_eq!(r.total_txs(), 5);
    }

    #[test]
    fn shard_without_miners_rejected() {
        let spec = ShardSpec {
            shard: ShardId::new(0),
            fees: fees(5),
            miners: 0,
            strategy: SelectionStrategy::IdenticalGreedy,
        };
        let err = super::simulate(&[spec], &cfg(0)).unwrap_err();
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::new(0)
            }
        );
    }

    #[test]
    fn ethereum_without_miners_rejected() {
        let err = super::simulate_ethereum(fees(5), 0, &cfg(0)).unwrap_err();
        assert_eq!(
            err,
            Error::NoMiners {
                shard: ShardId::MAX_SHARD
            }
        );
    }

    #[test]
    fn zero_block_capacity_rejected() {
        let bad = RuntimeConfig {
            block_capacity: 0,
            ..cfg(0)
        };
        let err = super::simulate_ethereum(fees(5), 1, &bad).unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "block_capacity",
                ..
            }
        ));
    }

    #[test]
    fn zero_block_interval_rejected() {
        let bad = RuntimeConfig {
            mean_block_interval: SimTime::ZERO,
            ..cfg(0)
        };
        let specs = [ShardSpec::solo_greedy(ShardId::new(0), fees(5))];
        let err = super::simulate(&specs, &bad).unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "mean_block_interval",
                ..
            }
        ));
    }

    #[test]
    fn invalid_settle_config_rejected() {
        let bad = RuntimeConfig {
            settle: SettleConfig::batched(0),
            ..cfg(0)
        };
        let err = super::simulate_ethereum(fees(5), 1, &bad).unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "settle.batch_cap",
                ..
            }
        ));
    }

    // ---- latency propagation (new in the unified runtime) ----

    fn latency_cfg(seed: u64, model: LatencyModel) -> RuntimeConfig {
        RuntimeConfig {
            propagation: PropagationModel::Latency(model),
            seed,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn instant_latency_matches_zero_window_trajectory() {
        // With zero delivery delay nothing ever conflicts, exactly like a
        // zero conflict window; only the explicit delivery events differ.
        let zero_window = RuntimeConfig {
            propagation: PropagationModel::Window(SimTime::ZERO),
            ..cfg(5)
        };
        let w = simulate_ethereum(fees(40), 4, &zero_window);
        let l = simulate_ethereum(fees(40), 4, &latency_cfg(5, LatencyModel::INSTANT));
        assert_eq!(w.completion, l.completion);
        assert_eq!(w.shards[0].confirmed, l.shards[0].confirmed);
        assert_eq!(w.shards[0].blocks, l.shards[0].blocks);
        assert_eq!(w.shards[0].stale_blocks, l.shards[0].stale_blocks);
        // Latency mode materializes a delivery event per confirming block.
        assert!(l.shards[0].events_processed > w.shards[0].events_processed);
    }

    #[test]
    fn wide_area_latency_wastes_contended_blocks() {
        let mut stale = 0;
        for s in 0..10 {
            let r = simulate_ethereum(fees(30), 8, &latency_cfg(s, LatencyModel::wide_area()));
            assert_eq!(r.shards[0].confirmed, 30);
            stale += r.total_stale_blocks();
        }
        assert!(stale > 0, "slow propagation must waste contended blocks");
    }

    #[test]
    fn latency_runs_are_deterministic_and_seed_sensitive() {
        let model = LatencyModel::wide_area();
        let a = simulate_ethereum(fees(50), 3, &latency_cfg(7, model));
        let b = simulate_ethereum(fees(50), 3, &latency_cfg(7, model));
        assert_eq!(a.fingerprint(), b.fingerprint());
        let c = simulate_ethereum(fees(50), 3, &latency_cfg(8, model));
        assert_ne!(a.fingerprint(), c.fingerprint());
    }

    #[test]
    fn equilibrium_confirms_under_latency_propagation() {
        let spec = ShardSpec {
            shard: ShardId::new(0),
            fees: fees(60),
            miners: 5,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 200 },
        };
        let r = simulate(&[spec], &latency_cfg(3, LatencyModel::wide_area()));
        assert_eq!(r.shards[0].confirmed, 60);
    }

    #[test]
    fn warm_cache_is_bit_invisible_and_saves_sweeps() {
        // Replaying the identical run with a warm cache must reproduce
        // the identical report — warm starts may only cut sweep counts.
        let spec = ShardSpec {
            shard: ShardId::new(0),
            fees: fees(60),
            miners: 5,
            strategy: SelectionStrategy::Equilibrium { max_rounds: 200 },
        };
        let config = cfg(3);
        let plain = simulate(std::slice::from_ref(&spec), &config);

        let cold = ContractShardDriver::with_warm_cache(&spec, &config, SelectionWarmCache::new())
            .expect("valid test config");
        let outcome = Runtime::builder()
            .run(vec![cold])
            .expect("valid test config");
        let (cold_run, cold_done) = (outcome.report, outcome.drivers);
        assert_eq!(cold_run.fingerprint(), plain.fingerprint());
        let cold_stats = cold_done[0].selection_stats();
        assert_eq!(cold_stats.warm_hits, 0);
        assert!(cold_stats.epochs > 0);
        let cache = cold_done
            .into_iter()
            .next()
            .and_then(ContractShardDriver::into_warm_cache)
            .expect("cache was installed");
        assert_eq!(cache.len() as u64, cold_stats.warm_misses);

        let warm =
            ContractShardDriver::with_warm_cache(&spec, &config, cache).expect("valid test config");
        let outcome = Runtime::builder()
            .run(vec![warm])
            .expect("valid test config");
        let (warm_run, warm_done) = (outcome.report, outcome.drivers);
        let warm_stats = warm_done[0].selection_stats();
        // Bit-identical trajectory and report…
        assert_eq!(warm_run.fingerprint(), plain.fingerprint());
        assert_eq!(warm_stats.epochs, cold_stats.epochs);
        // …every epoch replays the identical game, so every lookup hits
        // (the cache counters carry over; cold hits were zero)…
        assert_eq!(warm_stats.warm_hits, cold_stats.epochs);
        assert_eq!(warm_stats.warm_misses, cold_stats.warm_misses);
        // …and each warm epoch is one certification sweep: strictly
        // fewer total sweeps than the cold run.
        assert!(
            warm_stats.rounds < cold_stats.rounds,
            "warm {} !< cold {}",
            warm_stats.rounds,
            cold_stats.rounds
        );
        assert_eq!(warm_stats.rounds, warm_stats.epochs);
    }
}
