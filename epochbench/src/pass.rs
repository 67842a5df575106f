//! One pass of a workload: set-up, then a closed loop of epochs driving
//! the library's public calls in `LongRun::run_epoch`'s order —
//! `TxStream` → `EpochManager::elect` → `EpochPipeline::run_epoch_observed`
//! → `simulate_ethereum`, then on `placed-cross`
//! `cshard_faults::run_with_migration` over the MaxShard's contract calls.
//! Each epoch starts when the previous one has finished.

use crate::trace::{in_span, self_time_ns, NoSpans, Span, StageSpans, Tracer};
use crate::workloads::{Size, Workload, APPLY_AT, MINERS};
use cshard_core::longrun::{game_randomness, EpochReport};
use cshard_core::prelude::*;
use cshard_crypto::Sha256;
use cshard_faults::{run_with_migration, FaultPlan, MigratedFaultRun};
use cshard_ledger::{CallGraph, Transaction};
use cshard_primitives::{Address, Hash32};
use std::collections::BTreeMap;
use std::time::Instant;

/// What one pass runs.
#[derive(Clone, Copy, Debug)]
pub struct PassConfig {
    /// The workload.
    pub workload: Workload,
    /// Seed of the transaction stream and of every simulated run.
    pub seed: u64,
    /// Epochs and transactions per epoch.
    pub size: Size,
    /// Scheduler workers for every runtime run.
    pub workers: usize,
    /// Record spans (the per-layer run) or not (the end-to-end run).
    pub traced: bool,
    /// Re-derive every epoch's classification from scratch beside the
    /// pipeline (an independent call graph plus the placement pins) and
    /// report each disagreement. Doubles the classify work, so measured
    /// passes leave it off.
    pub reference_classify: bool,
}

/// Counts a pass accumulates. All of them are simulated outcomes or work
/// counters, so a pass reproduces them exactly for one seed.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counters {
    /// Epochs run.
    pub epochs: u64,
    /// Transactions injected.
    pub tx: u64,
    /// Distinct senders injected.
    pub new_senders: u64,
    /// Transactions left unconfirmed, plus every transaction of an epoch
    /// that returned an error.
    pub failed_tx: u64,
    /// Sum over epochs of the paper's throughput improvement `W_E/W_S`.
    pub improvement_sum: f64,
    /// Blocks mined in the sharded (pipeline) runs.
    pub blocks: u64,
    /// Empty blocks among them.
    pub empty_blocks: u64,
    /// Cross-shard messages booked in the pipeline's `CommStats`.
    pub pipeline_msgs: u64,
    /// Crosslink batches flushed by settlement in the cross-shard runs.
    pub crosslink_batches: u64,
    /// Senders reclassified by the classify stage.
    pub reclassified: u64,
    /// Sender classifications carried forward unchanged.
    pub carried: u64,
    /// Replicator-dynamics iterations in the merge stage.
    pub merge_iterations: u64,
    /// Shards the merge stage merged.
    pub merge_items: u64,
    /// Selection-game sweeps in the unify stage.
    pub unify_iterations: u64,
    /// Scheduler slots admitted in the unify runs.
    pub sched_scheduled: u64,
    /// Scheduler slots skipped as idle in the unify runs.
    pub sched_skipped: u64,
    /// Runtime events processed by the unify runs.
    pub events: u64,
    /// Migrations the placement stage proposed.
    pub place_proposed: u64,
    /// Cross-shard transfers handed to settlement.
    pub transfers: u64,
    /// Transfers settled inside crosslink batches.
    pub settled: u64,
    /// Settlement flushes deferred by a partition blackout.
    pub settle_deferred: u64,
    /// Migration tickets scheduled.
    pub migrate_scheduled: u64,
    /// Migration tickets applied, each booking one handoff crosslink.
    pub migrate_applied: u64,
    /// Migration applies deferred by a partition blackout.
    pub migrate_deferred: u64,
}

impl Counters {
    /// Mean throughput improvement `W_E/W_S` over the epochs.
    pub fn sim_improvement(&self) -> f64 {
        self.improvement_sum / self.epochs.max(1) as f64
    }

    /// Every cross-shard message booked, per injected transaction: the
    /// pipeline's, one per settlement batch and one handoff per applied
    /// migration.
    pub fn comm_msgs_per_tx(&self) -> f64 {
        (self.pipeline_msgs + self.crosslink_batches + self.migrate_applied) as f64
            / self.tx.max(1) as f64
    }

    /// Empty blocks over all blocks of the sharded runs.
    pub fn empty_block_rate(&self) -> f64 {
        self.empty_blocks as f64 / self.blocks.max(1) as f64
    }

    /// Failed transactions over injected ones.
    pub fn failed_fraction(&self) -> f64 {
        self.failed_tx as f64 / self.tx.max(1) as f64
    }

    /// Carried over carried + reclassified senders.
    pub fn carried_ratio(&self) -> f64 {
        self.carried as f64 / (self.carried + self.reclassified).max(1) as f64
    }
}

/// What the traced loop recorded.
#[derive(Clone, Debug)]
pub struct TraceSummary {
    /// Every span of the pass.
    pub spans: Vec<Span>,
    /// Self time per span name over the whole pass.
    pub self_ns: BTreeMap<&'static str, u64>,
    /// Resident-set growth observed inside classify spans.
    pub classify_rss_growth: u64,
}

/// One finished pass.
#[derive(Clone, Debug)]
pub struct Pass {
    /// Host time of each epoch, in order.
    pub epoch_ns: Vec<u64>,
    /// Host time of the whole epoch loop.
    pub loop_ns: u64,
    /// Chained digest of every epoch's outputs: run-report fingerprints
    /// (sharded, baseline and cross-shard runs), shard sizes, proposed
    /// migrations, settlement and migration accounting.
    pub digest: Hash32,
    /// Chained digest of the `EpochReport`s the loop derived — the part a
    /// plain `LongRun` loop also exposes.
    pub report_digest: Hash32,
    /// Simulated outcomes and work counters.
    pub counters: Counters,
    /// The pipeline's own per-stage counters at the end of the pass.
    pub metrics: PipelineMetrics,
    /// Broken output invariants, one line each.
    pub violations: Vec<String>,
    /// Spans and self times, when traced.
    pub trace: Option<TraceSummary>,
}

/// Everything that exists before the first epoch.
pub struct Setup {
    /// The lazy transaction stream.
    pub stream: TxStream,
    /// Miner enrolment and leader election.
    pub manager: EpochManager,
    /// The persistent six-stage pipeline.
    pub pipeline: EpochPipeline,
}

/// Builds a workload's stream, miner enrolment and pipeline.
pub fn setup(workload: Workload, seed: u64) -> Setup {
    Setup {
        stream: workload.stream(seed),
        manager: EpochManager::with_miner_count(MINERS),
        pipeline: EpochPipeline::new(workload.pipeline()),
    }
}

/// Folds one epoch report into a chained digest. The bench loop and the
/// `LongRun` mirror both use it.
pub fn chain_report(prev: Hash32, r: &EpochReport) -> Hash32 {
    let mut h = Sha256::new();
    h.update(prev.0)
        .update(r.epoch.to_be_bytes())
        .update(r.leader.0.to_be_bytes())
        .update((r.shards as u64).to_be_bytes())
        .update(r.maxshard_fraction.to_bits().to_be_bytes())
        .update(r.improvement.to_bits().to_be_bytes())
        .update((r.empty_blocks as u64).to_be_bytes())
        .update(r.comm_rounds.to_be_bytes());
    h.finalize()
}

/// The epoch's one partition window: the destination shard of one of the
/// four hottest contracts is cut off around the migration apply time, so
/// applies and settlement flushes toward it defer to the heal.
fn partition_plan(seed: u64, epoch: u64) -> FaultPlan {
    FaultPlan::none(seed ^ epoch).with_partition(
        ShardId::new((epoch % 4) as u32),
        SimTime::from_millis(500),
        SimTime::from_secs(90),
    )
}

/// The MaxShard's cross-shard traffic of one epoch: every MaxShard-routed
/// contract call is an outbound transfer to the contract's home shard.
struct CrossInput {
    fees: Vec<u64>,
    transfers: Vec<(usize, ShardId)>,
    senders: Vec<Address>,
}

fn cross_input(run: &EpochRun, batch: &[Transaction], fees: &[u64]) -> CrossInput {
    let mut input = CrossInput {
        fees: Vec::with_capacity(run.plan.maxshard.len()),
        transfers: Vec::new(),
        senders: Vec::with_capacity(run.plan.maxshard.len()),
    };
    for &i in &run.plan.maxshard {
        let slot = input.fees.len();
        input.fees.push(fees[i]);
        input.senders.push(batch[i].sender);
        if let Some(c) = batch[i].kind.contract() {
            input
                .transfers
                .push((slot, ShardPlan::shard_for_contract(c)));
        }
    }
    input
}

/// The from-scratch classifier the pipeline's incremental one must match.
#[derive(Default)]
struct ReferenceClassifier {
    graph: CallGraph,
    pins: BTreeMap<Address, ShardId>,
}

impl ReferenceClassifier {
    /// The epoch's shard of every transaction: the full call-graph
    /// classification, with a pinned sender's calls to its new home
    /// contract routed home.
    fn shard_of(&mut self, batch: &[Transaction]) -> Vec<ShardId> {
        self.graph.observe_all(batch.iter());
        let plan = ShardPlan::classify(batch, &self.graph);
        batch
            .iter()
            .zip(plan.shard_of)
            .map(|(tx, shard)| match tx.kind.contract() {
                Some(c) if self.pins.get(&tx.sender) == Some(&ShardPlan::shard_for_contract(c)) => {
                    ShardPlan::shard_for_contract(c)
                }
                _ => shard,
            })
            .collect()
    }

    fn migrate(&mut self, moves: &[Migration]) {
        for m in moves {
            self.pins.insert(m.account, m.to);
        }
    }
}

struct Loop {
    config: PassConfig,
    reference: Option<ReferenceClassifier>,
    base: RuntimeConfig,
    setup: Setup,
    tracer: Option<Tracer>,
    /// Last epoch's proposals, executed as tickets in the next cross run.
    pending: Vec<Migration>,
    /// Account tags of the migration tickets.
    tags: BTreeMap<Address, u64>,
    digest: Hash32,
    report_digest: Hash32,
    counters: Counters,
    violations: Vec<String>,
}

impl Loop {
    /// One epoch. An `Err` names what failed; the caller counts every
    /// transaction of the epoch as failed.
    fn epoch(&mut self) -> Result<(), String> {
        let per_epoch = self.config.size.tx_per_epoch;
        let stream = &mut self.setup.stream;
        let (batch, fees) = in_span(&mut self.tracer, "workload.gen", || {
            let batch: Vec<Transaction> =
                stream.by_ref().take(per_epoch).map(|(_, tx)| tx).collect();
            let fees: Vec<u64> = batch.iter().map(|tx| tx.fee.0).collect();
            (batch, fees)
        });
        let n = batch.len() as u64;
        self.counters.tx += n;
        // A streamed sender's first transaction carries nonce 0.
        self.counters.new_senders += batch.iter().filter(|tx| tx.nonce == 0).count() as u64;

        let manager = &mut self.setup.manager;
        let (epoch, leader) = in_span(&mut self.tracer, "epoch.elect", || manager.elect());
        let runtime = RuntimeConfig {
            seed: self.base.seed ^ epoch.wrapping_mul(0x9E37_79B9),
            ..self.base.clone()
        };
        let input = EpochInput {
            transactions: &batch,
            fees: &fees,
            randomness: game_randomness(epoch),
            runtime: runtime.clone(),
        };
        let pipeline = &mut self.setup.pipeline;
        let out = match self.tracer.as_mut() {
            Some(t) => {
                t.open("pipeline");
                let out = pipeline.run_epoch_observed(input, &mut StageSpans(t));
                t.close();
                out
            }
            None => pipeline.run_epoch_observed(input, &mut NoSpans),
        }
        .map_err(|e| format!("epoch {epoch}: pipeline: {e}"))?;
        if let Some(reference) = self.reference.as_mut() {
            if reference.shard_of(&batch) != out.plan.shard_of {
                self.violations.push(format!(
                    "epoch {epoch}: the pipeline's classification differs from a \
                     from-scratch call-graph classification"
                ));
            }
            reference.migrate(&out.migrations);
        }

        let cross = self
            .config
            .workload
            .has_cross_run()
            .then(|| cross_input(&out, &batch, &fees));
        let ethereum = in_span(&mut self.tracer, "baseline", || {
            simulate_ethereum(fees, 1, &runtime)
        })
        .map_err(|e| format!("epoch {epoch}: baseline: {e}"))?;
        // The cross-shard step: ticket assembly plus `run_with_migration`
        // on placed-cross. Elsewhere it does nothing, but its span still
        // opens, so the layer reads as measured near-zero time.
        if let Some(t) = self.tracer.as_mut() {
            t.open("crossrun");
        }
        let crossed = match cross {
            Some(input) if !input.fees.is_empty() => {
                self.cross_run(epoch, input, &runtime).map(Some)
            }
            _ => Ok(None),
        };
        if let Some(t) = self.tracer.as_mut() {
            t.close();
        }
        let crossed = crossed?;
        self.pending.extend(out.migrations.iter().cloned());

        // Outputs: conservation first, then the digests and counters.
        let scheduled: u64 = out.run.shards.iter().map(|s| s.txs as u64).sum();
        let confirmed: u64 = out.run.shards.iter().map(|s| s.confirmed as u64).sum();
        if scheduled != n {
            self.violations.push(format!(
                "epoch {epoch}: sharded run holds {scheduled} of {n} transactions"
            ));
        }
        let base_confirmed: u64 = ethereum.shards.iter().map(|s| s.confirmed as u64).sum();
        if base_confirmed != n {
            return Err(format!(
                "epoch {epoch}: baseline confirmed {base_confirmed} of {n} transactions"
            ));
        }
        let report = EpochReport {
            epoch,
            leader,
            shards: out.shard_sizes.len(),
            maxshard_fraction: out.plan.maxshard.len() as f64 / batch.len() as f64,
            improvement: throughput_improvement(&ethereum, &out.run),
            empty_blocks: out.run.total_empty_blocks(),
            comm_rounds: out.comm.total(),
        };
        self.report_digest = chain_report(self.report_digest, &report);

        let mut h = Sha256::new();
        h.update(self.digest.0)
            .update(self.report_digest.0)
            .update(out.run.fingerprint().0)
            .update(ethereum.fingerprint().0);
        for (shard, size) in &out.shard_sizes {
            h.update(shard.0.to_be_bytes()).update(size.to_be_bytes());
        }
        for m in &out.migrations {
            h.update(m.account.0)
                .update(m.from.0.to_be_bytes())
                .update(m.to.0.to_be_bytes())
                .update(m.txs.to_be_bytes());
        }
        if let Some(c) = &crossed {
            fold_cross(&mut h, c);
        }
        self.digest = h.finalize();

        let c = &mut self.counters;
        c.epochs += 1;
        c.failed_tx += n - confirmed.min(n);
        c.improvement_sum += report.improvement;
        c.blocks += out.run.total_blocks() as u64;
        c.empty_blocks += report.empty_blocks as u64;
        c.pipeline_msgs += report.comm_rounds;
        c.events += out.run.total_events_processed() as u64;
        c.place_proposed += out.migrations.len() as u64;
        Ok(())
    }

    /// Runs the MaxShard's cross-shard transfers under batched settlement,
    /// last epoch's proposals as migration tickets, and one partition.
    fn cross_run(
        &mut self,
        epoch: u64,
        input: CrossInput,
        runtime: &RuntimeConfig,
    ) -> Result<MigratedFaultRun, String> {
        let CrossInput {
            fees,
            transfers,
            senders,
        } = input;
        let tags = &mut self.tags;
        let tickets: Vec<MigrationTicket> = self
            .pending
            .drain(..)
            .map(|m| {
                let next = tags.len() as u64;
                let account = *tags.entry(m.account).or_insert(next);
                MigrationTicket {
                    account,
                    from: m.from,
                    to: m.to,
                    at: APPLY_AT,
                    transfers: transfers
                        .iter()
                        .enumerate()
                        .filter(|&(_, &(slot, _))| senders[slot] == m.account)
                        .map(|(t, _)| t)
                        .collect(),
                }
            })
            .collect();
        let spec = ShardSpec::solo_greedy(ShardId::MAX_SHARD, fees);
        let plan = partition_plan(self.config.seed, epoch);
        let moved = tickets.len() as u64;
        let shipped = transfers.len() as u64;
        let txs = spec.fees.len();
        let run = run_with_migration(&[spec], &[transfers], &[tickets], runtime, &plan)
            .map_err(|e| format!("epoch {epoch}: cross-shard run: {e}"))?;

        let confirmed: usize = run.run.shards.iter().map(|s| s.confirmed).sum();
        if confirmed != txs {
            return Err(format!(
                "epoch {epoch}: cross-shard run confirmed {confirmed} of {txs} transactions"
            ));
        }
        if run.settle.txs_settled != shipped {
            self.violations.push(format!(
                "epoch {epoch}: {} of {shipped} transfers settled",
                run.settle.txs_settled
            ));
        }
        if run.migrations.scheduled != moved || run.migrations.applied != moved {
            self.violations.push(format!(
                "epoch {epoch}: {} of {moved} migration tickets applied",
                run.migrations.applied
            ));
        }
        let c = &mut self.counters;
        c.transfers += shipped;
        c.settled += run.settle.txs_settled;
        c.crosslink_batches += run.settle.batches;
        c.settle_deferred += run.settle.deferred_flushes;
        c.migrate_scheduled += run.migrations.scheduled;
        c.migrate_applied += run.migrations.applied;
        c.migrate_deferred += run.migrations.deferred;
        Ok(run)
    }
}

/// Folds a cross-shard run's outputs into an epoch's digest.
fn fold_cross(h: &mut Sha256, run: &MigratedFaultRun) {
    let s = &run.settle;
    let m = &run.migrations;
    h.update(run.run.fingerprint().0);
    for v in [
        s.batches,
        s.txs_settled,
        s.cap_flushes,
        s.timeout_flushes,
        s.deferred_flushes,
        m.scheduled,
        m.applied,
        m.deferred,
        m.drained_transfers,
        m.rekeyed_transfers,
    ] {
        h.update(v.to_be_bytes());
    }
    for at in run.applied.iter().flatten() {
        h.update(at.map_or(u64::MAX, |t| t.as_millis()).to_be_bytes());
    }
}

fn elapsed_ns(since: Instant) -> u64 {
    u64::try_from(since.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

/// Runs one pass: set-up, then `size.epochs` closed-loop epochs.
pub fn run_pass(config: PassConfig) -> Pass {
    let w = config.workload;
    let mut tracer = config.traced.then(Tracer::new);
    let setup = in_span(&mut tracer, "setup", || setup(w, config.seed));

    let mut lp = Loop {
        config,
        reference: config.reference_classify.then(ReferenceClassifier::default),
        base: w.runtime(config.seed, config.workers),
        setup,
        tracer,
        pending: Vec::new(),
        tags: BTreeMap::new(),
        digest: Hash32::ZERO,
        report_digest: Hash32::ZERO,
        counters: Counters::default(),
        violations: Vec::new(),
    };
    let mut epoch_ns = Vec::with_capacity(config.size.epochs);
    let looped = Instant::now();
    for _ in 0..config.size.epochs {
        let began = Instant::now();
        if let Some(t) = lp.tracer.as_mut() {
            t.set_epoch(Some(lp.setup.manager.epoch()));
            t.open("epoch");
        }
        let tx_before = lp.counters.tx;
        if let Err(e) = lp.epoch() {
            lp.counters.failed_tx += lp.counters.tx - tx_before;
            lp.counters.epochs += 1;
            lp.violations.push(e);
        }
        if let Some(t) = lp.tracer.as_mut() {
            t.close();
        }
        epoch_ns.push(elapsed_ns(began));
    }
    let loop_ns = elapsed_ns(looped);

    let metrics = lp.setup.pipeline.metrics().clone();
    let m = &metrics;
    let c = &mut lp.counters;
    c.reclassified = m.stage(StageKind::Classify).reclassified;
    c.carried = m.stage(StageKind::Classify).carried;
    c.merge_iterations = m.stage(StageKind::Merge).iterations;
    c.merge_items = m.stage(StageKind::Merge).items;
    c.unify_iterations = m.stage(StageKind::Unify).iterations;
    c.sched_scheduled = m.stage(StageKind::Unify).tasks_scheduled;
    c.sched_skipped = m.stage(StageKind::Unify).tasks_skipped;

    let trace = lp.tracer.take().map(|t| TraceSummary {
        self_ns: self_time_ns(t.spans()),
        classify_rss_growth: t.classify_rss_growth(),
        spans: t.spans().to_vec(),
    });
    Pass {
        epoch_ns,
        loop_ns,
        digest: lp.digest,
        report_digest: lp.report_digest,
        counters: lp.counters,
        metrics,
        violations: lp.violations,
        trace,
    }
}

/// The same batches through a plain `LongRun::run_epoch` loop. Returns
/// the chained report digest and the pipeline's counters, which a bench
/// pass over the same workload must reproduce exactly.
pub fn longrun_pass(
    workload: Workload,
    seed: u64,
    size: Size,
    workers: usize,
) -> Result<(Hash32, PipelineMetrics), String> {
    let pipeline = workload.pipeline();
    let mut long_run = LongRun::new(LongRunConfig {
        runtime: workload.runtime(seed, workers),
        merging: pipeline.merging,
        miners: MINERS,
        warm_start: pipeline.warm_start,
        placement: pipeline.placement,
    });
    let mut stream = workload.stream(seed);
    let mut digest = Hash32::ZERO;
    for _ in 0..size.epochs {
        let batch: Vec<Transaction> = stream
            .by_ref()
            .take(size.tx_per_epoch)
            .map(|(_, tx)| tx)
            .collect();
        let report = long_run
            .run_epoch(&batch)
            .map_err(|e| format!("long run: {e}"))?;
        digest = chain_report(digest, &report);
    }
    Ok((digest, long_run.pipeline_metrics().clone()))
}
