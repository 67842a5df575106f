//! The incremental-classification pin: across a 200-seed fuzz grid of
//! churn patterns (repeat-heavy pools, diversifiers, spam floods, direct
//! traffic), the classify stage's plan, read off its persistent packed
//! call graph, must be **bit-identical** to a from-scratch graph that
//! observes the whole history each epoch. This is the contract that lets classification work scale with
//! churn instead of batch size without perturbing a single golden result.

use cshard_core::pipeline::{ClassifyStage, EpochCtx, PipelineStage};
use cshard_core::ShardPlan;
use cshard_crypto::sha256;
use cshard_ledger::{CallGraph, Transaction};
use cshard_network::CommStats;
use cshard_primitives::SimTime;
use cshard_runtime::RuntimeConfig;
use cshard_workload::{SpamFlood, StreamConfig, TxStream};

/// Runs just the classify stage over one batch and returns its plan plus
/// (reclassified, carried).
fn classify_incremental(stage: &mut ClassifyStage, batch: &[Transaction]) -> (ShardPlan, u64, u64) {
    let mut ctx = EpochCtx {
        transactions: batch,
        fees: &[],
        randomness: sha256(0u64.to_be_bytes()),
        runtime: RuntimeConfig::default(),
        plan: None,
        groups: Vec::new(),
        merge: None,
        specs: Vec::new(),
        comm: CommStats::new(),
        run: None,
        migrations: Vec::new(),
    };
    let out = stage.run(&mut ctx).expect("classification is total");
    (
        ctx.plan.expect("classify sets the plan"),
        out.reclassified,
        out.carried,
    )
}

/// The fuzz grid: seed-indexed churn patterns. Small account pools make
/// repeats (clean senders) dominate; high diversify makes churn dominate;
/// spam floods stream never-repeating senders.
fn grid_config(seed: u64) -> StreamConfig {
    let accounts = [8, 40, 200, 5_000][(seed % 4) as usize];
    let contracts = [2, 5, 9][(seed % 3) as usize];
    let diversify = [0.0, 0.1, 0.5][((seed / 4) % 3) as usize];
    let direct_fraction = [0.0, 0.2][((seed / 12) % 2) as usize];
    let spam = if seed.is_multiple_of(5) {
        Some(SpamFlood {
            start: SimTime::ZERO,
            end: SimTime::MAX,
            fraction: 0.3,
        })
    } else {
        None
    };
    StreamConfig {
        accounts,
        contracts,
        diversify,
        direct_fraction,
        spam,
        seed,
        ..StreamConfig::default()
    }
}

#[test]
fn incremental_classification_is_bit_identical_to_full_over_200_seeds() {
    for seed in 0..200u64 {
        let config = grid_config(seed);
        let txs: Vec<Transaction> = TxStream::new(config).take(180).map(|(_, tx)| tx).collect();
        let mut stage = ClassifyStage::new();
        let mut full_graph = CallGraph::new();
        for (e, batch) in txs.chunks(60).enumerate() {
            let (incremental, _, _) = classify_incremental(&mut stage, batch);
            full_graph.observe_all(batch.iter());
            let full = ShardPlan::classify(batch, &full_graph);
            assert_eq!(
                incremental.shard_of, full.shard_of,
                "seed {seed} epoch {e}: shard_of diverged"
            );
            assert_eq!(
                incremental.contract_shards, full.contract_shards,
                "seed {seed} epoch {e}: contract shards diverged"
            );
            assert_eq!(
                incremental.maxshard, full.maxshard,
                "seed {seed} epoch {e}: maxshard diverged"
            );
        }
    }
}

#[test]
fn repeat_heavy_epochs_carry_most_senders() {
    // A tiny pool with no churn knobs: after the first epoch every sender
    // repeats, so reclassification must be the exception, not the rule.
    let txs: Vec<Transaction> = TxStream::new(StreamConfig {
        accounts: 16,
        contracts: 4,
        diversify: 0.0,
        direct_fraction: 0.0,
        seed: 7,
        ..StreamConfig::default()
    })
    .take(240)
    .map(|(_, tx)| tx)
    .collect();
    let mut stage = ClassifyStage::new();
    let mut later_reclassified = 0u64;
    let mut later_carried = 0u64;
    for (e, batch) in txs.chunks(80).enumerate() {
        let (_, reclassified, carried) = classify_incremental(&mut stage, batch);
        if e > 0 {
            later_reclassified += reclassified;
            later_carried += carried;
        }
    }
    // First sight can trickle into later epochs (a cold community member
    // appearing for the first time), but with 16 accounts that is bounded
    // by the pool size; everything else must be carried.
    assert!(
        later_reclassified <= 16,
        "a churn-free pool reclassifies at most one first sight per account: {later_reclassified}"
    );
    assert!(
        later_carried > 4 * later_reclassified.max(1),
        "repeat traffic must dominate: carried={later_carried} reclassified={later_reclassified}"
    );
}

#[test]
fn spam_floods_reclassify_every_fresh_sender() {
    // Pure spam: every arrival is a brand-new throwaway sender, so no
    // sender is ever carried — the opposite corner of the grid.
    let txs: Vec<Transaction> = TxStream::new(StreamConfig {
        spam: Some(SpamFlood {
            start: SimTime::ZERO,
            end: SimTime::MAX,
            fraction: 1.0,
        }),
        seed: 11,
        ..StreamConfig::default()
    })
    .take(120)
    .map(|(_, tx)| tx)
    .collect();
    let mut stage = ClassifyStage::new();
    for batch in txs.chunks(40) {
        let (_, reclassified, carried) = classify_incremental(&mut stage, batch);
        assert_eq!(reclassified, 40, "every spam sender is fresh");
        assert_eq!(carried, 0);
    }
}
