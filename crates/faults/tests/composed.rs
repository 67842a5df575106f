//! Property test over the composed cross-shard stack: batched settlement,
//! hot-account migration, partitions and a crash/recover, all through
//! one `run_with_migration` call.
//!
//! Each case draws 2–3 shards, outbound transfers toward other shards,
//! migration tickets that own random transfer slots (one account per
//! ticket, so a slot has at most one owner), partition windows that may
//! overlap across a pair's two endpoints, and one crash/recover of a
//! shard's only miner. Over every case:
//!
//! * every transfer slot settles in exactly one batch, and no timeout or
//!   cap flush lands inside a blackout of either endpoint of its pair;
//! * every ticket applies exactly once, never inside a blackout of its
//!   `(source, to)` pair;
//! * the whole outcome (fingerprint, fault, settlement and migration
//!   accounting, apply times, batches) is bit-identical at 1, 4 and
//!   one-per-core scheduler threads.

use cshard_faults::{run_with_migration, FaultPlan, MigratedFaultRun};
use cshard_primitives::{ShardId, SimTime};
use cshard_runtime::{MigrationTicket, RuntimeConfig, SchedulerConfig, SettleConfig, ShardSpec};
use proptest::collection::vec;
use proptest::prelude::*;

/// One generated run: specs, per-shard transfer tables and schedules,
/// the fault plan and the settlement knobs.
#[derive(Debug)]
struct Scenario {
    shards: Vec<ShardSpec>,
    transfers: Vec<Vec<(usize, ShardId)>>,
    schedules: Vec<Vec<MigrationTicket>>,
    plan: FaultPlan,
    settle: SettleConfig,
}

/// Another shard than `from`, picked by `raw` among the `n - 1` others.
fn other(from: usize, n: usize, raw: u64) -> ShardId {
    ShardId::new(((from + 1 + (raw % (n as u64 - 1)) as usize) % n) as u32)
}

fn secs(v: u64) -> SimTime {
    SimTime::from_secs(v)
}

fn scenarios() -> impl Strategy<Value = Scenario> {
    (
        (2usize..4, (1usize..6, 1u64..120), any::<u64>()),
        vec((6usize..24, vec((any::<u64>(), any::<u64>()), 0..16)), 3..4),
        vec((any::<u64>(), 0u64..150), 0..3),
        vec(
            (0usize..3, 0u64..300, 1u64..250, 1u64..200, 1u64..250),
            3..4,
        ),
        (any::<u64>(), 0u64..300, 1u64..200),
    )
        .prop_map(
            |((n, (cap, timeout), seed), tables, tickets, windows, crash)| {
                let shards: Vec<ShardSpec> = (0..n)
                    .map(|i| {
                        let txs = tables[i].0 as u64;
                        ShardSpec::solo_greedy(ShardId::new(i as u32), (1..=txs).collect())
                    })
                    .collect();
                let mut transfers = Vec::with_capacity(n);
                let mut schedules = Vec::with_capacity(n);
                for (i, spec) in shards.iter().enumerate() {
                    let raw = &tables[i].1;
                    let table: Vec<(usize, ShardId)> = raw
                        .iter()
                        .map(|&(tx, dest)| {
                            ((tx % spec.fees.len() as u64) as usize, other(i, n, dest))
                        })
                        .collect();
                    // Ticket `k` moves account `k`; the second raw word of a
                    // transfer picks its owner (most slots stay unowned).
                    let schedule: Vec<MigrationTicket> = tickets
                        .iter()
                        .enumerate()
                        .map(|(k, &(to, at))| MigrationTicket {
                            account: k as u64,
                            from: spec.shard,
                            to: other(i, n, to ^ i as u64),
                            at: secs(at),
                            transfers: (0..table.len())
                                .filter(|&s| raw[s].1.rotate_left(17) % 4 == k as u64)
                                .collect(),
                        })
                        .collect();
                    transfers.push(table);
                    schedules.push(schedule);
                }
                // Up to two disjoint windows per shard (a shard's own windows
                // may not overlap); the two endpoints of a pair overlap freely.
                let mut plan = FaultPlan::none(seed);
                for (i, &(count, from, len, gap, len2)) in windows.iter().take(n).enumerate() {
                    let shard = ShardId::new(i as u32);
                    if count >= 1 {
                        plan = plan.with_partition(shard, secs(from), secs(from + len));
                    }
                    if count == 2 {
                        let start = from + len + gap;
                        plan = plan.with_partition(shard, secs(start), secs(start + len2));
                    }
                }
                let (shard, at, down) = crash;
                plan = plan.with_crash(
                    ShardId::new((shard % n as u64) as u32),
                    0,
                    secs(at),
                    Some(secs(at + down)),
                );
                Scenario {
                    shards,
                    transfers,
                    schedules,
                    plan,
                    // Timeouts of seconds to minutes keep pairs open across
                    // blocks, so applies regularly find something to drain.
                    settle: SettleConfig {
                        timeout: secs(timeout),
                        ..SettleConfig::batched(cap)
                    },
                }
            },
        )
}

fn run(s: &Scenario, threads: usize) -> MigratedFaultRun {
    let config = RuntimeConfig {
        seed: 5,
        settle: s.settle,
        scheduler: SchedulerConfig::new(threads),
        ..RuntimeConfig::default()
    };
    run_with_migration(&s.shards, &s.transfers, &s.schedules, &config, &s.plan)
        .expect("generated scenarios are well-formed")
}

/// True when `t` falls inside a blackout of the `(a, b)` pair: a
/// partition window of either endpoint.
fn blacked_out(plan: &FaultPlan, a: ShardId, b: ShardId, t: SimTime) -> bool {
    plan.partitions_for(a)
        .into_iter()
        .chain(plan.partitions_for(b))
        .any(|(from, until)| from <= t && t < until)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn composed_runs_settle_and_migrate_exactly_once_outside_blackouts(s in scenarios()) {
        let out = run(&s, 1);
        for (i, spec) in s.shards.iter().enumerate() {
            // Every transfer slot settles in exactly one batch.
            let mut slots: Vec<u64> = out.batches[i]
                .iter()
                .flat_map(|b| b.transfers.iter().copied())
                .collect();
            slots.sort_unstable();
            prop_assert_eq!(slots, (0..s.transfers[i].len() as u64).collect::<Vec<_>>());
            // Every ticket applies exactly once, outside its pair's
            // blackouts.
            prop_assert_eq!(out.applied[i].len(), s.schedules[i].len());
            let mut drains = Vec::new();
            for (ticket, applied) in s.schedules[i].iter().zip(&out.applied[i]) {
                let at = applied.expect("every ticket applies");
                prop_assert!(at >= ticket.at, "applied before its schedule");
                prop_assert!(
                    !blacked_out(&s.plan, spec.shard, ticket.to, at),
                    "ticket {:?} applied inside a blackout at {}", ticket, at
                );
                drains.push(at);
            }
            // No flush inside a blackout of either endpoint. An apply's
            // drain force-flushes the mover's open pairs at the apply
            // instant by design, so only batches shipped at some other
            // instant are timeout or cap flushes.
            for b in out.batches[i].iter().filter(|b| !drains.contains(&b.at)) {
                prop_assert!(
                    !blacked_out(&s.plan, b.source, b.dest, b.at),
                    "batch toward {} flushed inside a blackout at {}", b.dest, b.at
                );
            }
        }
        let scheduled: u64 = s.schedules.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(out.migrations.scheduled, scheduled);
        prop_assert_eq!(out.migrations.applied, scheduled);
        let shipped: u64 = s.transfers.iter().map(|t| t.len() as u64).sum();
        prop_assert_eq!(out.settle.txs_settled, shipped);

        for threads in [4, 0] {
            let other = run(&s, threads);
            prop_assert_eq!(out.run.fingerprint(), other.run.fingerprint());
            prop_assert_eq!(&out.faults, &other.faults);
            prop_assert_eq!(out.settle, other.settle);
            prop_assert_eq!(out.migrations, other.migrations);
            prop_assert_eq!(&out.applied, &other.applied);
            prop_assert_eq!(&out.batches, &other.batches);
        }
    }
}
