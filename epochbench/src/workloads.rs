//! The three named workloads: their streams, pipeline knobs and sizes.

use cshard_core::prelude::*;
use cshard_workload::FeeDistribution;

/// One named workload of the benchmark.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// Classify-heavy and read-mostly: 10⁶ accounts whose senders repeat.
    Stream1m,
    /// Fee-sampling, merge-game and selection-game heavy.
    SkewedFees,
    /// Placement engaged, with settlement, migration and faults composed
    /// on the MaxShard's cross-shard traffic.
    PlacedCross,
}

/// How many epochs of how many transactions one pass runs.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Size {
    /// Epochs per pass.
    pub epochs: usize,
    /// Transactions injected per epoch.
    pub tx_per_epoch: usize,
}

/// Miners enrolled for leader election (the long run's default).
pub const MINERS: u32 = 32;

/// Simulated apply time of each migration ticket inside its epoch's
/// cross-shard run (the migrate grid's choice).
pub const APPLY_AT: SimTime = SimTime::from_secs(1);

impl Workload {
    /// Every workload, in the order the benchmark documents them.
    pub const ALL: [Workload; 3] = [
        Workload::Stream1m,
        Workload::SkewedFees,
        Workload::PlacedCross,
    ];

    /// The workload's command-line name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Stream1m => "stream-1m",
            Workload::SkewedFees => "skewed-fees",
            Workload::PlacedCross => "placed-cross",
        }
    }

    /// Looks a workload up by its command-line name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// The measured pass size. Each pass takes one to three seconds on a
    /// 2-core x86-64 host, so a 10-second run holds several passes.
    pub fn full_size(self) -> Size {
        match self {
            // 400k transactions over 10⁶ accounts: hot-community senders
            // repeat, so classification carries state across epochs. At
            // 1 000 tx per epoch the coldest contracts fall under the
            // default merge bound every epoch, so merging always books
            // messages.
            Workload::Stream1m => Size {
                epochs: 400,
                tx_per_epoch: 1_000,
            },
            Workload::SkewedFees => Size {
                epochs: 60,
                tx_per_epoch: 1_000,
            },
            Workload::PlacedCross => Size {
                epochs: 200,
                tx_per_epoch: 1_000,
            },
        }
    }

    /// A pass small enough for the benchmark's own tests, still in the
    /// regime the workload's name claims.
    pub fn small_size(self) -> Size {
        match self {
            Workload::Stream1m => Size {
                epochs: 12,
                tx_per_epoch: 1_000,
            },
            Workload::SkewedFees => Size {
                epochs: 4,
                tx_per_epoch: 400,
            },
            Workload::PlacedCross => Size {
                epochs: 24,
                tx_per_epoch: 400,
            },
        }
    }

    /// Scheduler workers of the measured configuration (at most the
    /// 2 cores the benchmark assumes).
    pub fn default_workers(self) -> usize {
        match self {
            Workload::SkewedFees => 2,
            Workload::Stream1m | Workload::PlacedCross => 1,
        }
    }

    /// The transaction stream, a pure function of `seed`.
    pub fn stream(self, seed: u64) -> TxStream {
        let config = match self {
            Workload::Stream1m => StreamConfig {
                accounts: 1_000_000,
                contracts: 16,
                diversify: 0.02,
                fees: FeeDistribution::Uniform { lo: 1, hi: 100 },
                seed,
                ..StreamConfig::default()
            },
            Workload::SkewedFees => StreamConfig {
                accounts: 5_000,
                contracts: 64,
                zipf_s: 1.3,
                fees: FeeDistribution::Zipf { max: 1_000, s: 1.1 },
                seed,
                ..StreamConfig::default()
            },
            Workload::PlacedCross => StreamConfig {
                accounts: 20_000,
                contracts: 16,
                zipf_s: 1.3,
                direct_fraction: 0.0,
                diversify: 0.3,
                seed,
                ..StreamConfig::default()
            },
        };
        TxStream::new(config)
    }

    /// The pipeline's static configuration.
    pub fn pipeline(self) -> PipelineConfig {
        match self {
            // Exactly what `LongRun::new` builds from a default config, so
            // the long-run mirror check can compare the two loops.
            Workload::Stream1m => PipelineConfig {
                merging: Some(MergingConfig::default()),
                ..PipelineConfig::default()
            },
            Workload::SkewedFees => PipelineConfig {
                merging: Some(MergingConfig {
                    lower_bound: 24,
                    ..MergingConfig::default()
                }),
                selection: Some(500),
                allocation: MinerAllocation::PerShard(3),
                ..PipelineConfig::default()
            },
            Workload::PlacedCross => PipelineConfig {
                merging: Some(MergingConfig::default()),
                placement: PlacementConfig {
                    min_dominance_percent: 55,
                    min_account_txs: 2,
                    max_moves_per_epoch: 48,
                    ..PlacementConfig::engaged()
                },
                ..PipelineConfig::default()
            },
        }
    }

    /// The base runtime configuration; each epoch salts its seed.
    pub fn runtime(self, seed: u64, workers: usize) -> RuntimeConfig {
        RuntimeConfig {
            seed,
            scheduler: SchedulerConfig::new(workers),
            settle: match self {
                Workload::PlacedCross => SettleConfig::batched(8),
                Workload::Stream1m | Workload::SkewedFees => SettleConfig::disabled(),
            },
            ..RuntimeConfig::default()
        }
    }

    /// Whether epochs end with a cross-shard run of the MaxShard's
    /// contract calls (settlement + migration + one partition window).
    pub fn has_cross_run(self) -> bool {
        self == Workload::PlacedCross
    }
}
