//! Running the contract-centric simulator under a fault plan.
//!
//! This harness sits *below* the epoch pipeline: it takes the same
//! [`ShardSpec`]s the pipeline's select stage produces and runs them on
//! the same contract-shard drivers its unify stage builds, inside the
//! [`SettlingShardDriver`] that adds settlement and migration (inert
//! with no transfers and no tickets) — there is no second epoch
//! implementation here. One private body assembles every run;
//! [`run_with_faults`] and [`run_with_migration`] are projections of it. Classification, formation, merging and
//! selection all happen upstream in `cshard_core::pipeline::EpochPipeline`
//! (or its leader-fault sibling `EpochManager::run_epoch_with_downs` in
//! [`crate::epochs`]); this module only faults the block-production run.

use crate::driver::FaultyDriver;
use crate::plan::FaultPlan;
use crate::report::FaultReport;
use cshard_network::{LatencyModel, PartitionModel, PartitionWindow};
use cshard_primitives::{Error, ShardId, SimTime};
use cshard_runtime::{
    Batch, MigrationStats, MigrationTicket, PropagationModel, RunOutcome, RunReport, Runtime,
    RuntimeConfig, SettleStats, SettlingShardDriver, ShardSpec,
};
use std::collections::BTreeSet;

/// A faulted run: the ordinary run report plus the fault accounting.
#[derive(Clone, Debug)]
pub struct FaultRun {
    /// The standard run report — same fingerprinted surface as
    /// `cshard_runtime::simulate`.
    pub run: RunReport,
    /// What the injected faults did.
    pub faults: FaultReport,
}

impl FaultRun {
    /// Empty-block rate over the whole run (empty blocks / all blocks),
    /// `0.0` when no block was mined. Crashes and partitions show up
    /// here: idle shards spin empties.
    pub fn empty_block_rate(&self) -> f64 {
        let blocks: usize = self.run.shards.iter().map(|s| s.blocks).sum();
        if blocks == 0 {
            return 0.0;
        }
        let empties: usize = self.run.shards.iter().map(|s| s.empty_blocks).sum();
        empties as f64 / blocks as f64
    }

    /// Fraction of transactions left unconfirmed (nonzero only when the
    /// plan deadline cut the run short).
    pub fn unconfirmed_fraction(&self) -> f64 {
        let txs: usize = self.run.shards.iter().map(|s| s.txs).sum();
        if txs == 0 {
            return 0.0;
        }
        let confirmed: usize = self.run.shards.iter().map(|s| s.confirmed).sum();
        (txs - confirmed) as f64 / txs as f64
    }
}

/// Rewrites a shard's propagation model to impose the plan's partition
/// windows. A latency model keeps its link behaviour as the partition
/// base; the legacy window model (which schedules no delivery events)
/// switches to delivery-based visibility over instantaneous links — the
/// partition itself is then the only delay source. An existing partition
/// model gains the plan's windows on top of its own.
fn partitioned(
    propagation: &PropagationModel,
    windows: Vec<(cshard_primitives::SimTime, cshard_primitives::SimTime)>,
) -> Result<PropagationModel, Error> {
    let to_windows = |ws: Vec<(cshard_primitives::SimTime, cshard_primitives::SimTime)>| {
        ws.into_iter()
            .map(|(from, until)| PartitionWindow { from, until })
            .collect::<Vec<_>>()
    };
    let model = match propagation {
        PropagationModel::Window(_) => {
            PartitionModel::new(LatencyModel::INSTANT, to_windows(windows))?
        }
        PropagationModel::Latency(base) => PartitionModel::new(*base, to_windows(windows))?,
        PropagationModel::Partition(existing) => {
            let mut all: Vec<PartitionWindow> = existing.windows().to_vec();
            all.extend(to_windows(windows));
            PartitionModel::new(existing.base, all)?
        }
    };
    Ok(PropagationModel::Partition(model))
}

/// A faulted run with batched settlement *and* scheduled hot-account
/// migration: the ordinary run report, the fault accounting, the
/// settlement and migration accounting, every crosslink each shard
/// shipped and per-ticket apply times.
#[derive(Clone, Debug)]
pub struct MigratedFaultRun {
    /// The standard run report.
    pub run: RunReport,
    /// What the injected faults did.
    pub faults: FaultReport,
    /// Settlement accounting folded over all shards.
    pub settle: SettleStats,
    /// Per shard (spec order): the batches it flushed, in flush order.
    pub batches: Vec<Vec<Batch>>,
    /// Migration accounting folded over all shards.
    pub migrations: MigrationStats,
    /// Per shard (spec order), per ticket (schedule order): when the
    /// ticket applied — the exactly-once surface the fault tests assert.
    pub applied: Vec<Vec<Option<SimTime>>>,
}

/// `cshard_runtime::simulate` under a [`FaultPlan`]: the harness body
/// with no transfers and no migration tickets, projected onto the run
/// report and the fault accounting.
///
/// Determinism: the result is a pure function of `(shards, config, plan)`
/// — bit-identical at any `config.scheduler`, with runtime randomness keyed
/// by `config.seed` and fault randomness keyed by `plan.seed`. Under
/// `FaultPlan::none(..)` the report fingerprint equals the unwrapped
/// `simulate`'s exactly.
pub fn run_with_faults(
    shards: &[ShardSpec],
    config: &RuntimeConfig,
    plan: &FaultPlan,
) -> Result<FaultRun, Error> {
    let n = shards.len();
    let outcome = run_body(
        shards,
        &vec![Vec::new(); n],
        &vec![Vec::new(); n],
        config,
        plan,
    )?;
    Ok(FaultRun {
        faults: FaultReport {
            shards: outcome.drivers.iter().map(|d| d.stats().clone()).collect(),
        },
        run: outcome.report,
    })
}

/// [`run_with_faults`] with batched cross-shard settlement and a
/// hot-account migration schedule on each shard
/// (`cshard_runtime::SettlingShardDriver`).
///
/// `transfers[i]` lists shard `i`'s outbound transfers as
/// `(local tx index, destination shard)`: each becomes eligible when its
/// transaction confirms and ships inside a crosslink batch.
/// `schedules[i]` lists shard `i`'s [`MigrationTicket`]s. Each apply
/// drains the moving account's open settlement pairs, re-keys its
/// unsubmitted transfers to the new home shard and books the move as one
/// crosslink. Partition windows from the plan black out a pair on
/// *either* endpoint — a flush or an apply falling inside a blackout
/// defers to the heal and happens exactly once there, which
/// [`MigratedFaultRun::batches`] and [`MigratedFaultRun::applied`] let
/// callers assert transfer-for-transfer and ticket-for-ticket. Empty
/// schedules give plain batched settlement under faults.
///
/// Determinism matches [`run_with_faults`]: the result is a pure
/// function of `(shards, transfers, schedules, config, plan)` at any
/// `config.scheduler`.
pub fn run_with_migration(
    shards: &[ShardSpec],
    transfers: &[Vec<(usize, ShardId)>],
    schedules: &[Vec<MigrationTicket>],
    config: &RuntimeConfig,
    plan: &FaultPlan,
) -> Result<MigratedFaultRun, Error> {
    let outcome = run_body(shards, transfers, schedules, config, plan)?;
    let n = outcome.drivers.len();
    let (mut faults, mut batches, mut applied) = (
        Vec::with_capacity(n),
        Vec::with_capacity(n),
        Vec::with_capacity(n),
    );
    let mut migrations = MigrationStats::default();
    for wrapper in outcome.drivers {
        let (stats, driver) = wrapper.into_parts();
        faults.push(stats);
        batches.push(driver.settled_batches().to_vec());
        migrations = migrations.merge(&driver.migration_stats());
        applied.push(driver.applied_at().to_vec());
    }
    Ok(MigratedFaultRun {
        run: outcome.report,
        faults: FaultReport { shards: faults },
        settle: outcome.settle,
        batches,
        migrations,
        applied,
    })
}

/// The one harness body: validates the plan and the per-shard list
/// shapes, builds one [`SettlingShardDriver`] per spec (its constructor
/// validates the config and the spec; partitioned shards get their
/// propagation model rewritten first, and every pair toward a transfer
/// or ticket destination is blacked out while *either* endpoint is
/// partitioned — the source cannot send, the destination cannot
/// receive), wraps each in a [`FaultyDriver`] and runs the standard
/// two-phase harness.
fn run_body(
    shards: &[ShardSpec],
    transfers: &[Vec<(usize, ShardId)>],
    schedules: &[Vec<MigrationTicket>],
    config: &RuntimeConfig,
    plan: &FaultPlan,
) -> Result<RunOutcome<FaultyDriver<SettlingShardDriver>>, Error> {
    plan.validate()?;
    for (field, lists) in [
        ("transfers", transfers.len()),
        ("schedules", schedules.len()),
    ] {
        if lists != shards.len() {
            return Err(Error::Config {
                field,
                reason: format!(
                    "one list per shard: got {lists} for {} shards",
                    shards.len()
                ),
            });
        }
    }
    let mut drivers = Vec::with_capacity(shards.len());
    for ((spec, outbound), schedule) in shards.iter().zip(transfers).zip(schedules) {
        let own = plan.partitions_for(spec.shard);
        let mut shard_config = config.clone();
        if !own.is_empty() {
            shard_config.propagation = partitioned(&config.propagation, own.clone())?;
        }
        let mut driver =
            SettlingShardDriver::new(spec, &shard_config, outbound.clone(), schedule.clone())?;
        let dests: BTreeSet<ShardId> = outbound
            .iter()
            .map(|&(_, d)| d)
            .chain(schedule.iter().map(|t| t.to))
            .collect();
        for dest in dests {
            let mut pair = own.clone();
            pair.extend(plan.partitions_for(dest));
            driver.set_blackouts(dest, pair);
        }
        drivers.push(FaultyDriver::new(driver, spec.shard, plan));
    }
    Runtime::builder().scheduler(config.scheduler).run(drivers)
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_primitives::{ShardId, SimTime};
    use cshard_runtime::{simulate, SelectionStrategy};

    fn specs() -> Vec<ShardSpec> {
        (0..4u32)
            .map(|i| ShardSpec {
                shard: ShardId::new(i),
                fees: (1..=50u64 + i as u64).collect(),
                miners: 1,
                strategy: SelectionStrategy::IdenticalGreedy,
            })
            .collect()
    }

    fn config(seed: u64) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            ..RuntimeConfig::default()
        }
    }

    #[test]
    fn zero_fault_plan_matches_simulate_exactly() {
        let cfg = config(42);
        let plain = simulate(&specs(), &cfg).expect("valid");
        let faulted = run_with_faults(&specs(), &cfg, &FaultPlan::none(0)).expect("valid");
        assert_eq!(faulted.run.fingerprint(), plain.fingerprint());
        assert!(faulted.faults.is_clean());
        assert_eq!(faulted.unconfirmed_fraction(), 0.0);
    }

    #[test]
    fn invalid_plans_and_configs_are_rejected() {
        let bad_plan =
            FaultPlan::none(0).with_drops(ShardId::new(0), 2.0, SimTime::ZERO, SimTime::MAX);
        assert!(run_with_faults(&specs(), &config(1), &bad_plan).is_err());
        let zero_cap = RuntimeConfig {
            block_capacity: 0,
            ..config(1)
        };
        assert!(run_with_faults(&specs(), &zero_cap, &FaultPlan::none(0)).is_err());
    }

    #[test]
    fn zero_block_interval_is_a_typed_error() {
        let zero_interval = RuntimeConfig {
            mean_block_interval: SimTime::ZERO,
            ..config(1)
        };
        let err = run_with_faults(&specs(), &zero_interval, &FaultPlan::none(0)).unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "mean_block_interval",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn partition_stretches_completion_of_the_partitioned_shard() {
        // A multi-miner shard under latency propagation: partitioning it
        // for a long span defers deliveries and delays completion.
        let spec = vec![ShardSpec {
            shard: ShardId::new(0),
            fees: (1..=120u64).collect(),
            miners: 3,
            strategy: SelectionStrategy::IdenticalGreedy,
        }];
        let cfg = RuntimeConfig {
            propagation: cshard_runtime::PropagationModel::Latency(
                cshard_network::LatencyModel::wide_area(),
            ),
            ..config(9)
        };
        let healthy = run_with_faults(&spec, &cfg, &FaultPlan::none(0)).expect("valid");
        let plan = FaultPlan::none(0).with_partition(
            ShardId::new(0),
            SimTime::from_secs(60),
            SimTime::from_secs(4000),
        );
        let parted = run_with_faults(&spec, &cfg, &plan).expect("valid");
        assert!(
            parted.run.completion > healthy.run.completion,
            "partition did not slow the shard: {} vs {}",
            parted.run.completion,
            healthy.run.completion
        );
        // Both still confirm everything (the partition heals).
        assert_eq!(parted.unconfirmed_fraction(), 0.0);
    }

    // ---- batched settlement under faults ----

    use cshard_runtime::SettleConfig;

    /// Two shards; shard 0 sends one transfer per tx to shard 1.
    fn settled_fixture() -> (Vec<ShardSpec>, Vec<Vec<(usize, ShardId)>>) {
        let shards = vec![
            ShardSpec::solo_greedy(ShardId::new(0), (1..=50u64).collect()),
            ShardSpec::solo_greedy(ShardId::new(1), (1..=40u64).collect()),
        ];
        let transfers = vec![
            (0..50).map(|tx| (tx, ShardId::new(1))).collect(),
            Vec::new(),
        ];
        (shards, transfers)
    }

    fn settled_config(seed: u64, cap: usize, threads: usize) -> RuntimeConfig {
        RuntimeConfig {
            settle: SettleConfig::batched(cap),
            scheduler: cshard_runtime::SchedulerConfig::new(threads),
            ..config(seed)
        }
    }

    /// Settlement alone: the harness with empty migration schedules.
    fn run_settled(
        shards: &[ShardSpec],
        transfers: &[Vec<(usize, ShardId)>],
        config: &RuntimeConfig,
        plan: &FaultPlan,
    ) -> Result<MigratedFaultRun, Error> {
        let schedules = vec![Vec::new(); shards.len()];
        run_with_migration(shards, transfers, &schedules, config, plan)
    }

    /// A partition of shard 1 over `[30 s, 400 s)` plus a crash of its
    /// miner over `[60 s, 120 s)`.
    fn partition_and_crash_plan() -> FaultPlan {
        FaultPlan::none(9)
            .with_partition(
                ShardId::new(1),
                SimTime::from_secs(30),
                SimTime::from_secs(400),
            )
            .with_crash(
                ShardId::new(1),
                0,
                SimTime::from_secs(60),
                Some(SimTime::from_secs(120)),
            )
    }

    #[test]
    fn partition_mid_batch_defers_and_settles_exactly_once_on_heal() {
        let (shards, transfers) = settled_fixture();
        let cfg = settled_config(23, 100, 1);
        // Black out the destination across the whole mining span: every
        // flush deadline fires inside the partition and must defer.
        let heal = SimTime::from_secs(20_000);
        let plan = FaultPlan::none(0).with_partition(ShardId::new(1), SimTime::ZERO, heal);
        let out = run_settled(&shards, &transfers, &cfg, &plan).expect("valid");
        assert!(
            out.settle.deferred_flushes >= 1,
            "every deadline fired mid-partition: {:?}",
            out.settle
        );
        // Exactly once: each transfer slot appears in exactly one batch.
        let mut slots: Vec<u64> = out.batches[0]
            .iter()
            .flat_map(|b| b.transfers.iter().copied())
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..50).collect::<Vec<u64>>());
        // And never inside the blackout.
        for b in &out.batches[0] {
            assert!(b.at >= heal, "batch flushed mid-partition at {}", b.at);
        }
        assert!(out.batches[1].is_empty());
        assert_eq!(out.settle.txs_settled, 50);
    }

    #[test]
    fn settled_fault_runs_are_thread_count_invariant() {
        let (shards, transfers) = settled_fixture();
        let plan = partition_and_crash_plan();
        let base =
            run_settled(&shards, &transfers, &settled_config(23, 10, 1), &plan).expect("valid");
        for threads in [4, 0] {
            let other = run_settled(&shards, &transfers, &settled_config(23, 10, threads), &plan)
                .expect("valid");
            assert_eq!(base.run.fingerprint(), other.run.fingerprint());
            assert_eq!(base.faults, other.faults);
            assert_eq!(base.settle, other.settle);
            assert_eq!(base.batches, other.batches);
        }
    }

    #[test]
    fn settlement_harness_rejects_mismatched_transfer_lists() {
        let (shards, _) = settled_fixture();
        let err = run_settled(
            &shards,
            &[Vec::new()],
            &settled_config(1, 10, 1),
            &FaultPlan::none(0),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "transfers",
                ..
            }
        ));
    }

    #[test]
    fn transfer_outside_its_shard_is_a_config_error() {
        let (shards, mut transfers) = settled_fixture();
        // Shard 1 holds 40 txs; tx 40 does not exist.
        transfers[1].push((40, ShardId::new(0)));
        let err = run_settled(
            &shards,
            &transfers,
            &settled_config(1, 10, 1),
            &FaultPlan::none(0),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "transfers",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn run_with_faults_is_run_with_migration_without_transfers_or_tickets() {
        let (shards, _) = settled_fixture();
        let cfg = config(23);
        let plan = partition_and_crash_plan();
        let faulted = run_with_faults(&shards, &cfg, &plan).expect("valid");
        let empty = vec![Vec::new(); shards.len()];
        let migrated = run_with_migration(&shards, &empty, &[Vec::new(), Vec::new()], &cfg, &plan)
            .expect("valid");
        assert!(!faulted.faults.is_clean(), "the plan must bite");
        assert_eq!(faulted.run.fingerprint(), migrated.run.fingerprint());
        assert_eq!(faulted.faults, migrated.faults);
        assert!(migrated.settle.is_empty());
        assert_eq!(migrated.migrations, MigrationStats::default());
    }

    // ---- hot-account migration under faults ----

    /// The settled fixture plus one ticket on shard 0: the account owning
    /// transfer slots 0..10 moves to shard 1 at t = 60 s.
    #[allow(clippy::type_complexity)]
    fn migrated_fixture() -> (
        Vec<ShardSpec>,
        Vec<Vec<(usize, ShardId)>>,
        Vec<Vec<MigrationTicket>>,
    ) {
        let (shards, transfers) = settled_fixture();
        let schedules = vec![
            vec![MigrationTicket {
                account: 7,
                from: ShardId::new(0),
                to: ShardId::new(1),
                at: SimTime::from_secs(60),
                transfers: (0..10).collect(),
            }],
            Vec::new(),
        ];
        (shards, transfers, schedules)
    }

    #[test]
    fn migration_mid_partition_defers_and_applies_exactly_once_on_heal() {
        let (shards, transfers, schedules) = migrated_fixture();
        let cfg = settled_config(23, 100, 1);
        // Black out the destination across the apply time: the migration
        // event fires mid-partition and must defer to the heal.
        let heal = SimTime::from_secs(20_000);
        let plan = FaultPlan::none(0).with_partition(ShardId::new(1), SimTime::ZERO, heal);
        let out = run_with_migration(&shards, &transfers, &schedules, &cfg, &plan).expect("valid");
        assert!(out.migrations.deferred >= 1, "{:?}", out.migrations);
        assert_eq!(out.migrations.scheduled, 1);
        assert_eq!(out.migrations.applied, 1, "exactly once");
        assert_eq!(out.applied[0], vec![Some(heal)], "applies at the heal");
        // The settlement ledger still covers every transfer exactly once,
        // none of it inside the blackout.
        let mut slots: Vec<u64> = out.batches[0]
            .iter()
            .flat_map(|b| b.transfers.iter().copied())
            .collect();
        slots.sort_unstable();
        assert_eq!(slots, (0..50).collect::<Vec<u64>>());
        for b in &out.batches[0] {
            assert!(b.at >= heal, "batch flushed mid-partition at {}", b.at);
        }
    }

    #[test]
    fn migrated_fault_runs_are_thread_count_invariant() {
        let (shards, transfers, schedules) = migrated_fixture();
        let plan = partition_and_crash_plan();
        let base = run_with_migration(
            &shards,
            &transfers,
            &schedules,
            &settled_config(23, 10, 1),
            &plan,
        )
        .expect("valid");
        for threads in [4, 0] {
            let other = run_with_migration(
                &shards,
                &transfers,
                &schedules,
                &settled_config(23, 10, threads),
                &plan,
            )
            .expect("valid");
            assert_eq!(base.run.fingerprint(), other.run.fingerprint());
            assert_eq!(base.faults, other.faults);
            assert_eq!(base.settle, other.settle);
            assert_eq!(base.batches, other.batches);
            assert_eq!(base.migrations, other.migrations);
            assert_eq!(base.applied, other.applied);
        }
    }

    #[test]
    fn migration_harness_rejects_mismatched_schedule_lists() {
        let (shards, transfers) = settled_fixture();
        let err = run_with_migration(
            &shards,
            &transfers,
            &[Vec::new()],
            &settled_config(1, 10, 1),
            &FaultPlan::none(0),
        )
        .unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "schedules",
                ..
            }
        ));
    }

    #[test]
    fn ticket_slot_outside_its_table_is_a_config_error() {
        let (shards, transfers, mut schedules) = migrated_fixture();
        // Shard 0 has 50 transfer slots; slot 50 does not exist.
        schedules[0][0].transfers.push(50);
        let err = run_with_migration(
            &shards,
            &transfers,
            &schedules,
            &settled_config(1, 10, 1),
            &FaultPlan::none(0),
        )
        .unwrap_err();
        assert!(
            matches!(
                err,
                Error::Config {
                    field: "schedules",
                    ..
                }
            ),
            "{err:?}"
        );
    }

    #[test]
    fn faulted_runs_are_reproducible_functions_of_plan_and_seed() {
        let cfg = config(17);
        let plan = FaultPlan::with_deadline(5, SimTime::from_secs(100_000))
            .with_crash(
                ShardId::new(1),
                0,
                SimTime::from_secs(120),
                Some(SimTime::from_secs(600)),
            )
            .with_partition(
                ShardId::new(2),
                SimTime::from_secs(60),
                SimTime::from_secs(300),
            );
        let a = run_with_faults(&specs(), &cfg, &plan).expect("valid");
        let b = run_with_faults(&specs(), &cfg, &plan).expect("valid");
        assert_eq!(a.run.fingerprint(), b.run.fingerprint());
        assert_eq!(a.faults, b.faults);
        assert_eq!(a.faults.total_crashes(), 1);
        assert_eq!(a.faults.total_recoveries(), 1);
    }
}
