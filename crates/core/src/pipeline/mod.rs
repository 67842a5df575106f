//! The staged epoch pipeline: one implementation of the paper's per-epoch
//! protocol.
//!
//! Every consumer of the protocol — [`crate::system::ShardingSystem`] on a
//! single workload, [`crate::longrun::LongRun`] across epochs, the fault
//! harness replaying the same drivers — runs the *same* fixed sequence:
//!
//! ```text
//! Classify → Form → Merge → Select → Unify → Place
//! ```
//!
//! * [`ClassifyStage`] (Sec. III-A) — absorb the batch into the owned call
//!   graph and classify every transaction into contract shards + MaxShard.
//! * [`FormStage`] — materialize per-shard local fee queues from the plan.
//! * [`MergeStage`] (Sec. IV-A) — run Algorithm 1 over the small shards
//!   under unified parameters and fuse the merged queues. With placement
//!   enabled it carries merge groups across epochs, re-validating each
//!   carried group and re-running the dynamics only where sizes moved.
//! * [`SelectStage`] (Sec. III-B / IV-B) — allocate miners to shards and
//!   attach each shard's selection strategy.
//! * [`UnifyStage`] (Sec. IV-C) — every miner replays the agreed
//!   parameters; the block-production runtime drives all shards to
//!   completion.
//! * [`PlacementStage`] — observe the epoch's MaxShard traffic and, when
//!   placement is enabled, propose hot-account migrations that take
//!   effect next epoch (off by default; bit-invisible when off).
//!
//! Each stage is a struct implementing [`PipelineStage`]: it reads and
//! writes the epoch's [`EpochCtx`] and may carry **persistent cross-epoch
//! state** (the classifier's accumulated call graph, the merge stage's
//! outcome memo, the unify stage's per-shard warm caches). Warm-start
//! state never changes results — identical inputs reach bit-identical
//! equilibria, only the iteration counters shrink — and is off by default
//! ([`PipelineConfig::warm_start`]), which keeps every golden fingerprint
//! byte-identical to the pre-pipeline code.
//!
//! Instrumentation is split per the determinism contract: iteration and
//! item *counts* (sim-clock-free) accumulate in [`PipelineMetrics`] inside
//! this crate; wall-clock timing belongs to the caller via
//! [`StageObserver`] (the bench harness times stages with host clocks —
//! rule ND001 keeps such reads out of protocol crates).

pub mod classify;
pub mod form;
pub mod merge;
pub mod place;
pub mod select;
pub mod unify;

pub use classify::ClassifyStage;
pub use form::FormStage;
pub use merge::{MergeStage, MergeSummary};
pub use place::PlacementStage;
pub use select::SelectStage;
pub use unify::UnifyStage;

use crate::formation::ShardPlan;
use crate::system::MinerAllocation;
use cshard_games::MergingConfig;
use cshard_ledger::Transaction;
use cshard_network::CommStats;
use cshard_place::{Migration, PlacementConfig};
use cshard_primitives::{Error, Hash32, ShardId};
use cshard_runtime::{RunReport, RuntimeConfig, ShardSpec};

/// The six stages, in execution order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StageKind {
    /// Call-graph classification into shards.
    Classify,
    /// Per-shard fee-queue formation.
    Form,
    /// Inter-shard merging (Algorithm 1).
    Merge,
    /// Miner allocation + selection strategy.
    Select,
    /// Unified replay: the block-production run.
    Unify,
    /// Cross-epoch placement: migration proposals for the next epoch.
    Place,
}

impl StageKind {
    /// Every stage, in pipeline order.
    pub const ALL: [StageKind; 6] = [
        StageKind::Classify,
        StageKind::Form,
        StageKind::Merge,
        StageKind::Select,
        StageKind::Unify,
        StageKind::Place,
    ];

    /// The stage's display name.
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Classify => "classify",
            StageKind::Form => "form",
            StageKind::Merge => "merge",
            StageKind::Select => "select",
            StageKind::Unify => "unify",
            StageKind::Place => "place",
        }
    }

    fn index(self) -> usize {
        match self {
            StageKind::Classify => 0,
            StageKind::Form => 1,
            StageKind::Merge => 2,
            StageKind::Select => 3,
            StageKind::Unify => 4,
            StageKind::Place => 5,
        }
    }
}

/// What one stage reports for one epoch: counts only, no clocks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageOutput {
    /// Stage-specific unit count (shards classified, groups formed, new
    /// shards merged, specs built, shards run).
    pub items: u64,
    /// Game-dynamics iterations the stage executed this epoch (replicator
    /// slots for merge; best-reply sweeps for the selection games, counted
    /// in the unify stage where they run).
    pub iterations: u64,
    /// Warm-start cache hits this epoch.
    pub warm_hits: u64,
    /// Warm-start cache misses (computed cold, stored for reuse).
    pub warm_misses: u64,
    /// Scheduler task slots admitted (they had queued work) while the
    /// stage ran. Only the unify stage — the one that launches the
    /// block-production run — reports these; see
    /// `cshard_runtime::RunSchedStats`.
    pub tasks_scheduled: u64,
    /// Scheduler task slots skipped (no queued work, never stepped) — the
    /// idle-shard saving, as a number.
    pub tasks_skipped: u64,
    /// Senders whose call-graph state this epoch's batch changed, plus
    /// migrated senders appearing for the first time since their move
    /// (classify stage only).
    pub reclassified: u64,
    /// Batch senders whose call-graph state the batch left unchanged
    /// (classify stage only) — the churn-proportionality saving, as a
    /// number.
    pub carried: u64,
}

/// Cumulative per-stage counters across a pipeline's lifetime.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct StageCounters {
    /// Epochs this stage ran in.
    pub runs: u64,
    /// Sum of [`StageOutput::items`].
    pub items: u64,
    /// Sum of [`StageOutput::iterations`].
    pub iterations: u64,
    /// Sum of [`StageOutput::warm_hits`].
    pub warm_hits: u64,
    /// Sum of [`StageOutput::warm_misses`].
    pub warm_misses: u64,
    /// Sum of [`StageOutput::tasks_scheduled`].
    pub tasks_scheduled: u64,
    /// Sum of [`StageOutput::tasks_skipped`].
    pub tasks_skipped: u64,
    /// Sum of [`StageOutput::reclassified`].
    pub reclassified: u64,
    /// Sum of [`StageOutput::carried`].
    pub carried: u64,
}

/// Iteration accounting for a whole pipeline, surfaced in
/// [`crate::system::SystemReport`]. Deliberately *not* part of any golden
/// fingerprint: counters describe the work done, not the outcome.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct PipelineMetrics {
    /// Epochs completed end to end.
    pub epochs: u64,
    counters: [StageCounters; 6],
}

impl PipelineMetrics {
    /// The cumulative counters of one stage.
    pub fn stage(&self, kind: StageKind) -> &StageCounters {
        &self.counters[kind.index()]
    }

    /// Total game-dynamics iterations across all stages and epochs — the
    /// number warm starts strictly shrink.
    pub fn total_iterations(&self) -> u64 {
        self.counters.iter().map(|c| c.iterations).sum()
    }

    /// Total warm-start cache hits across all stages.
    pub fn total_warm_hits(&self) -> u64 {
        self.counters.iter().map(|c| c.warm_hits).sum()
    }

    /// Total scheduler task slots admitted across all stages and epochs.
    pub fn total_tasks_scheduled(&self) -> u64 {
        self.counters.iter().map(|c| c.tasks_scheduled).sum()
    }

    /// Total scheduler task slots skipped (idle shards never scheduled)
    /// across all stages and epochs — the number the shard-lifecycle
    /// scheduler exists to make nonzero on sparse workloads.
    pub fn total_tasks_skipped(&self) -> u64 {
        self.counters.iter().map(|c| c.tasks_skipped).sum()
    }

    /// Total senders reclassified across all epochs (classify stage).
    pub fn total_reclassified(&self) -> u64 {
        self.counters.iter().map(|c| c.reclassified).sum()
    }

    /// Total cached sender classifications carried forward across all
    /// epochs (classify stage) — what churn-proportional classification
    /// saves over reclassify-everything.
    pub fn total_carried(&self) -> u64 {
        self.counters.iter().map(|c| c.carried).sum()
    }

    fn absorb(&mut self, kind: StageKind, out: &StageOutput) {
        let c = &mut self.counters[kind.index()];
        c.runs += 1;
        c.items += out.items;
        c.iterations += out.iterations;
        c.warm_hits += out.warm_hits;
        c.warm_misses += out.warm_misses;
        c.tasks_scheduled += out.tasks_scheduled;
        c.tasks_skipped += out.tasks_skipped;
        c.reclassified += out.reclassified;
        c.carried += out.carried;
    }
}

/// Caller-side stage hooks. The pipeline itself never reads a clock
/// (ND001); a harness that wants per-stage wall time implements this and
/// brackets each stage with its own `Instant` reads.
pub trait StageObserver {
    /// Called immediately before a stage runs.
    fn stage_started(&mut self, stage: StageKind) {
        let _ = stage;
    }
    /// Called after the stage completed, with its counters.
    fn stage_finished(&mut self, stage: StageKind, output: &StageOutput) {
        let _ = (stage, output);
    }
}

/// The do-nothing observer [`EpochPipeline::run_epoch`] uses.
struct SilentObserver;
impl StageObserver for SilentObserver {}

/// Static pipeline configuration: which optional stages engage and whether
/// cross-epoch warm-start state is consulted.
#[derive(Clone, Copy, Debug)]
pub struct PipelineConfig {
    /// Inter-shard merging game settings; `None` makes [`MergeStage`] a
    /// no-op.
    pub merging: Option<MergingConfig>,
    /// Best-reply round cap for multi-miner shards; `None` keeps every
    /// shard fee-greedy.
    pub selection: Option<usize>,
    /// How miners spread over shards.
    pub allocation: MinerAllocation,
    /// Consult cross-epoch warm-start state (merge-outcome memo, selection
    /// equilibrium caches). Results are bit-identical either way; only
    /// iteration counts differ. Off by default.
    pub warm_start: bool,
    /// The cross-epoch placement engine: merge-group carry-over and
    /// hot-account migration. Off by default; bit-invisible when off.
    pub placement: PlacementConfig,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            merging: None,
            selection: None,
            allocation: MinerAllocation::OnePerShard,
            warm_start: false,
            placement: PlacementConfig::disabled(),
        }
    }
}

/// One epoch's inputs.
#[derive(Clone, Debug)]
pub struct EpochInput<'a> {
    /// The epoch's transaction batch.
    pub transactions: &'a [Transaction],
    /// Fee of each transaction, by batch index (`fees.len() ==
    /// transactions.len()`).
    pub fees: &'a [u64],
    /// The epoch's leader randomness — seeds the unified game parameters.
    pub randomness: Hash32,
    /// Block-production parameters for the epoch's run.
    pub runtime: RuntimeConfig,
}

/// The working state stages read and write while an epoch executes.
#[derive(Debug)]
pub struct EpochCtx<'a> {
    /// The epoch's transaction batch.
    pub transactions: &'a [Transaction],
    /// Fee of each transaction, by batch index.
    pub fees: &'a [u64],
    /// The epoch's leader randomness.
    pub randomness: Hash32,
    /// Block-production parameters.
    pub runtime: RuntimeConfig,
    /// Set by [`ClassifyStage`]: the batch's shard plan.
    pub plan: Option<ShardPlan>,
    /// Set by [`FormStage`], rewritten by [`MergeStage`]: per-shard local
    /// fee queues, in shard-id order.
    pub groups: Vec<(ShardId, Vec<u64>)>,
    /// Set by [`MergeStage`] when merging is enabled.
    pub merge: Option<MergeSummary>,
    /// Set by [`SelectStage`]: one runtime spec per shard.
    pub specs: Vec<ShardSpec>,
    /// Cross-shard communication booked during the epoch.
    pub comm: CommStats,
    /// Set by [`UnifyStage`]: the epoch's block-production report.
    pub run: Option<RunReport>,
    /// Set by [`PlacementStage`]: migrations to take effect next epoch.
    pub migrations: Vec<Migration>,
}

/// One completed epoch, as the pipeline hands it back.
#[derive(Clone, Debug)]
pub struct EpochRun {
    /// The batch's shard plan (pre-merge classification).
    pub plan: ShardPlan,
    /// Shards that actually ran (post-merge), with their sizes.
    pub shard_sizes: Vec<(ShardId, u64)>,
    /// Merge-stage summary, when merging was enabled.
    pub merge: Option<MergeSummary>,
    /// Cross-shard communication incurred.
    pub comm: CommStats,
    /// The block-production report.
    pub run: RunReport,
    /// Migrations the placement stage proposed this epoch. Already applied
    /// to the classify stage's pins — routing changes next epoch —
    /// and handed out so a runtime harness can execute the moves (drain,
    /// re-key, switch) through `Event::Migration`.
    pub migrations: Vec<Migration>,
}

/// One pipeline stage: reads and writes the [`EpochCtx`], may keep
/// persistent cross-epoch state on `self`, and reports sim-clock-free
/// counters. See the module docs for the "writing a new stage" contract
/// (DESIGN.md §4 walks through an example).
pub trait PipelineStage {
    /// Which of the six slots this stage fills.
    fn kind(&self) -> StageKind;
    /// Executes the stage for one epoch.
    fn run(&mut self, ctx: &mut EpochCtx<'_>) -> Result<StageOutput, Error>;
}

/// A typed out-of-order error: `stage` ran before the stage that produces
/// its input. Unreachable through [`EpochPipeline`], which fixes the
/// order; kept typed so a hand-assembled pipeline cannot panic (PH001).
pub(crate) fn missing_product(stage: &'static str, needs: &'static str) -> Error {
    Error::Config {
        field: "pipeline",
        reason: format!("{stage} stage ran before {needs} produced its output"),
    }
}

/// The staged epoch driver: owns the six stages and their cross-epoch
/// state, and runs them in order once per [`EpochPipeline::run_epoch`].
#[derive(Debug)]
pub struct EpochPipeline {
    classify: ClassifyStage,
    form: FormStage,
    merge: MergeStage,
    select: SelectStage,
    unify: UnifyStage,
    place: PlacementStage,
    metrics: PipelineMetrics,
}

impl EpochPipeline {
    /// Builds a pipeline; each stage takes its slice of the configuration.
    pub fn new(config: PipelineConfig) -> Self {
        let carry = config.placement.enabled && config.placement.carry_merge_groups;
        EpochPipeline {
            classify: ClassifyStage::new(),
            form: FormStage::new(),
            merge: MergeStage::new(config.merging, config.warm_start, carry),
            select: SelectStage::new(config.allocation, config.selection),
            unify: UnifyStage::new(config.warm_start),
            place: PlacementStage::new(config.placement),
            metrics: PipelineMetrics::default(),
        }
    }

    /// Cumulative per-stage counters since construction.
    pub fn metrics(&self) -> &PipelineMetrics {
        &self.metrics
    }

    /// Runs one epoch through all six stages.
    pub fn run_epoch(&mut self, input: EpochInput<'_>) -> Result<EpochRun, Error> {
        self.run_epoch_observed(input, &mut SilentObserver)
    }

    /// Like [`EpochPipeline::run_epoch`], bracketing every stage with the
    /// observer's hooks (how the bench harness times stages without this
    /// crate touching a clock).
    pub fn run_epoch_observed(
        &mut self,
        input: EpochInput<'_>,
        observer: &mut dyn StageObserver,
    ) -> Result<EpochRun, Error> {
        // Checked before classify, whose call graph would otherwise
        // absorb the batch of an epoch that cannot run.
        input.runtime.validate()?;
        let mut ctx = EpochCtx {
            transactions: input.transactions,
            fees: input.fees,
            randomness: input.randomness,
            runtime: input.runtime,
            plan: None,
            groups: Vec::new(),
            merge: None,
            specs: Vec::new(),
            comm: CommStats::new(),
            run: None,
            migrations: Vec::new(),
        };
        let EpochPipeline {
            classify,
            form,
            merge,
            select,
            unify,
            place,
            metrics,
        } = self;
        let stages: [&mut dyn PipelineStage; 6] =
            [&mut *classify, form, merge, select, unify, place];
        for stage in stages {
            let kind = stage.kind();
            observer.stage_started(kind);
            let out = stage.run(&mut ctx)?;
            metrics.absorb(kind, &out);
            observer.stage_finished(kind, &out);
        }
        metrics.epochs += 1;
        // Feed the epoch's migrations back into the classifier so the
        // moves take effect from the next epoch on.
        classify.apply_migrations(&ctx.migrations);
        let (Some(plan), Some(run)) = (ctx.plan.take(), ctx.run.take()) else {
            return Err(missing_product("report", "a mandatory stage"));
        };
        Ok(EpochRun {
            plan,
            shard_sizes: ctx
                .groups
                .iter()
                .map(|(s, q)| (*s, q.len() as u64))
                .collect(),
            merge: ctx.merge,
            comm: ctx.comm,
            run,
            migrations: ctx.migrations,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cshard_crypto::sha256;
    use cshard_workload::{FeeDistribution, Workload};

    const FEES: FeeDistribution = FeeDistribution::Uniform { lo: 1, hi: 99 };

    fn input_for<'a>(w: &'a Workload, fees: &'a [u64], seed: u64) -> EpochInput<'a> {
        EpochInput {
            transactions: &w.transactions,
            fees,
            randomness: sha256(0u64.to_be_bytes()),
            runtime: RuntimeConfig {
                seed,
                ..RuntimeConfig::default()
            },
        }
    }

    #[test]
    fn pipeline_matches_system_run_exactly() {
        use crate::system::{ShardingSystem, SystemConfig};
        let w = Workload::uniform_contracts(200, 8, FEES, 1);
        let fees = w.fees();
        let report = ShardingSystem::new(SystemConfig {
            runtime: RuntimeConfig {
                seed: 3,
                ..RuntimeConfig::default()
            },
            ..SystemConfig::default()
        })
        .run(&w)
        .expect("valid config");
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let out = pipeline
            .run_epoch(input_for(&w, &fees, 3))
            .expect("valid config");
        assert_eq!(out.run.fingerprint(), report.run.fingerprint());
        assert_eq!(out.shard_sizes, report.shard_sizes);
    }

    #[test]
    fn metrics_accumulate_across_epochs() {
        let w = Workload::uniform_contracts(120, 4, FEES, 7);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        for _ in 0..3 {
            pipeline
                .run_epoch(input_for(&w, &fees, 7))
                .expect("valid config");
        }
        let m = pipeline.metrics();
        assert_eq!(m.epochs, 3);
        for kind in StageKind::ALL {
            assert_eq!(m.stage(kind).runs, 3, "{} runs", kind.name());
        }
        // 4 contract shards + MaxShard, every epoch.
        assert_eq!(m.stage(StageKind::Form).items, 15);
        // No games configured: zero dynamics iterations.
        assert_eq!(m.total_iterations(), 0);
    }

    #[test]
    fn observer_sees_every_stage_in_order() {
        #[derive(Default)]
        struct Recorder {
            started: Vec<StageKind>,
            finished: Vec<StageKind>,
        }
        impl StageObserver for Recorder {
            fn stage_started(&mut self, stage: StageKind) {
                self.started.push(stage);
            }
            fn stage_finished(&mut self, stage: StageKind, _output: &StageOutput) {
                self.finished.push(stage);
            }
        }
        let w = Workload::uniform_contracts(60, 2, FEES, 2);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut rec = Recorder::default();
        pipeline
            .run_epoch_observed(input_for(&w, &fees, 2), &mut rec)
            .expect("valid config");
        assert_eq!(rec.started, StageKind::ALL.to_vec());
        assert_eq!(rec.finished, StageKind::ALL.to_vec());
    }

    #[test]
    fn zero_capacity_is_rejected_before_any_stage() {
        let w = Workload::uniform_contracts(30, 2, FEES, 4);
        let fees = w.fees();
        let mut pipeline = EpochPipeline::new(PipelineConfig::default());
        let mut input = input_for(&w, &fees, 4);
        input.runtime.block_capacity = 0;
        let err = pipeline.run_epoch(input).unwrap_err();
        assert!(matches!(
            err,
            Error::Config {
                field: "block_capacity",
                ..
            }
        ));
        assert_eq!(pipeline.metrics().epochs, 0);
    }
}
