//! Stage 1 — Classify: call-graph classification (Sec. III-A).

use super::{EpochCtx, PipelineStage, StageKind, StageOutput};
use crate::formation::ShardPlan;
use cshard_ledger::CallGraph;
use cshard_place::Migration;
use cshard_primitives::{Address, Error, ShardId};
use std::collections::{BTreeMap, BTreeSet};

/// Classifies each epoch's batch against the call graph it **owns** and
/// keeps across epochs.
///
/// The graph holds one packed state per sender, and
/// [`CallGraph::observe_all`] reports exactly the senders whose state the
/// batch changed: those are *reclassified*, every other batch sender is
/// *carried* (its state, hence its class, is as before). The plan is read
/// straight off the graph ([`ShardPlan::classify_placed`]), so there is
/// no second copy of any sender's class to keep in step.
///
/// A fresh stage starts with an empty graph (single-workload runs); a
/// long-running pipeline accumulates sender history here, so users who
/// diversify migrate to the MaxShard exactly as under the old
/// `EpochManager`-owned history.
/// When placement is enabled, migrations feed back into the stage between
/// epochs ([`ClassifyStage::apply_migrations`]): a pin records a moved
/// sender's new home so its home-contract calls route there from the next
/// epoch on, and the sender counts as reclassified once, the next time it
/// appears — a migration changes where the sender lives, not what it
/// calls, so the graph alone would carry it.
#[derive(Debug, Default)]
pub struct ClassifyStage {
    graph: CallGraph,
    /// Placement pins: migrated senders and the shard they moved to.
    pins: BTreeMap<Address, ShardId>,
    /// Senders moved since they last appeared.
    moved: BTreeSet<Address>,
}

impl ClassifyStage {
    /// A classifier with no history.
    pub fn new() -> Self {
        ClassifyStage::default()
    }

    /// Applies the epoch's migrations: a pin records each moved sender's
    /// new home shard, and the sender reclassifies when it next appears
    /// even with zero call-graph churn.
    pub fn apply_migrations(&mut self, moves: &[Migration]) {
        for m in moves {
            self.moved.insert(m.account);
            self.pins.insert(m.account, m.to);
        }
    }

    /// The currently pinned senders and their home shards.
    pub fn pins(&self) -> &BTreeMap<Address, ShardId> {
        &self.pins
    }
}

impl PipelineStage for ClassifyStage {
    fn kind(&self) -> StageKind {
        StageKind::Classify
    }

    fn run(&mut self, ctx: &mut EpochCtx<'_>) -> Result<StageOutput, Error> {
        let dirty = self.graph.observe_all(ctx.transactions.iter());
        self.moved.retain(|addr| !dirty.contains(addr));
        let batch_senders: BTreeSet<Address> =
            ctx.transactions.iter().map(|tx| tx.sender).collect();
        let mut reclassified = dirty.len() as u64;
        let mut carried = 0u64;
        for addr in batch_senders.difference(&dirty) {
            if self.moved.remove(addr) {
                reclassified += 1;
            } else {
                carried += 1;
            }
        }
        let plan = ShardPlan::classify_placed(ctx.transactions, &self.graph, &self.pins);
        let out = StageOutput {
            items: plan.active_shard_count() as u64,
            reclassified,
            carried,
            ..StageOutput::default()
        };
        ctx.plan = Some(plan);
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_ledger::Transaction;
    use cshard_primitives::{Amount, ContractId};

    fn call(user: u64, contract: u32, nonce: u64) -> Transaction {
        Transaction::call(
            Address::user(user),
            nonce,
            ContractId::new(contract),
            Amount(10),
            Amount(1),
        )
    }

    fn run_stage(stage: &mut ClassifyStage, txs: &[Transaction]) -> (ShardPlan, StageOutput) {
        let mut ctx = EpochCtx {
            transactions: txs,
            fees: &[],
            randomness: cshard_crypto::sha256(0u64.to_be_bytes()),
            runtime: cshard_runtime::RuntimeConfig::default(),
            plan: None,
            groups: Vec::new(),
            merge: None,
            specs: Vec::new(),
            comm: cshard_network::CommStats::new(),
            run: None,
            migrations: Vec::new(),
        };
        let out = stage.run(&mut ctx).expect("classify never fails");
        (ctx.plan.expect("classify sets the plan"), out)
    }

    #[test]
    fn incremental_plan_matches_full_reclassification() {
        // Run the same epoch sequence through the incremental stage and a
        // from-scratch classifier; plans must be bit-identical each epoch.
        let epochs: Vec<Vec<Transaction>> = vec![
            (0..10).map(|u| call(u, (u % 3) as u32, 0)).collect(),
            // Repeat senders (clean) + one diversifier (dirty).
            (0..10)
                .map(|u| {
                    if u == 4 {
                        call(u, 9, 1)
                    } else {
                        call(u, (u % 3) as u32, 1)
                    }
                })
                .collect(),
            // Fresh senders only.
            (100..110).map(|u| call(u, 0, 0)).collect(),
        ];
        let mut stage = ClassifyStage::new();
        let mut full_graph = CallGraph::new();
        for batch in &epochs {
            let (plan, _) = run_stage(&mut stage, batch);
            full_graph.observe_all(batch.iter());
            let full = ShardPlan::classify(batch, &full_graph);
            assert_eq!(plan.shard_of, full.shard_of);
            assert_eq!(plan.contract_shards, full.contract_shards);
            assert_eq!(plan.maxshard, full.maxshard);
        }
    }

    #[test]
    fn repeat_senders_are_carried_not_reclassified() {
        let batch: Vec<Transaction> = (0..8).map(|u| call(u, 0, 0)).collect();
        let mut stage = ClassifyStage::new();
        let (_, first) = run_stage(&mut stage, &batch);
        assert_eq!(first.reclassified, 8, "first sight dirties everyone");
        assert_eq!(first.carried, 0);
        let repeat: Vec<Transaction> = (0..8).map(|u| call(u, 0, 1)).collect();
        let (_, second) = run_stage(&mut stage, &repeat);
        assert_eq!(second.reclassified, 0, "no state change");
        assert_eq!(second.carried, 8);
    }

    #[test]
    fn diversifying_sender_is_reclassified_and_moves_to_maxshard() {
        let mut stage = ClassifyStage::new();
        run_stage(&mut stage, &[call(1, 0, 0)]);
        let (plan, out) = run_stage(&mut stage, &[call(1, 1, 1)]);
        assert_eq!(out.reclassified, 1);
        assert_eq!(out.carried, 0);
        assert_eq!(plan.maxshard, vec![0], "multi-contract sender → MaxShard");
    }

    #[test]
    fn migrated_sender_is_invalidated_and_routed_to_its_pin() {
        use cshard_primitives::ShardId;
        let mut stage = ClassifyStage::new();
        // Sender 1 calls two contracts: MultiContract, lands on MaxShard.
        let (plan0, _) = run_stage(&mut stage, &[call(1, 0, 0), call(1, 1, 1)]);
        assert_eq!(plan0.maxshard, vec![0, 1]);
        // Placement moves sender 1 home to contract 0's shard.
        stage.apply_migrations(&[Migration {
            account: Address::user(1),
            from: ShardId::MAX_SHARD,
            to: ShardId::new(0),
            txs: 2,
        }]);
        // Next epoch repeats the same participation — zero call-graph
        // churn — yet the mover must be reclassified, not carried, and its
        // home-contract call must route to the pinned shard.
        let (plan, out) = run_stage(&mut stage, &[call(1, 0, 2), call(1, 1, 3)]);
        assert_eq!(out.reclassified, 1, "moved sender reclassifies");
        assert_eq!(out.carried, 0);
        assert_eq!(
            plan.shard_of[0],
            ShardId::new(0),
            "home call follows the pin"
        );
        assert_eq!(plan.shard_of[1], ShardId::MAX_SHARD, "foreign call stays");
        // A further epoch with unchanged behaviour is carried again.
        let (_, out2) = run_stage(&mut stage, &[call(1, 0, 4)]);
        assert_eq!(out2.carried, 1);
        assert_eq!(out2.reclassified, 0);
    }

    #[test]
    fn direct_sender_calling_a_further_contract_is_carried_to_maxshard() {
        let mut stage = ClassifyStage::new();
        let pay = Transaction::direct(Address::user(1), 0, Address::user(9), Amount(5), Amount(1));
        let (_, first) = run_stage(&mut stage, &[pay]);
        assert_eq!(first.reclassified, 1, "first sight: Unknown → Direct");
        // Direct is absorbing: a contract call changes no state, so the
        // sender is carried, yet its call still belongs to the MaxShard.
        let (plan, out) = run_stage(&mut stage, &[call(1, 0, 1)]);
        assert_eq!(out.reclassified, 0);
        assert_eq!(out.carried, 1);
        assert_eq!(plan.maxshard, vec![0], "Direct sender → MaxShard");
    }

    #[test]
    fn multi_sender_calling_a_further_contract_is_carried_to_maxshard() {
        let mut stage = ClassifyStage::new();
        let (_, first) = run_stage(&mut stage, &[call(1, 0, 0), call(1, 1, 1)]);
        assert_eq!(first.reclassified, 1, "first sight: Unknown → Multi");
        // Multi is absorbing: a third contract changes no state.
        let (plan, out) = run_stage(&mut stage, &[call(1, 2, 2)]);
        assert_eq!(out.reclassified, 0);
        assert_eq!(out.carried, 1);
        assert_eq!(plan.maxshard, vec![0], "Multi sender → MaxShard");
    }
}
