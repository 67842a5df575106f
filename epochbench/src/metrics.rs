//! From passes to named metrics, merging them across measuring processes,
//! and the regime each workload must hit.

use crate::pass::{Counters, Pass};
use crate::workloads::Workload;

/// One named measurement with its unit.
#[derive(Clone, Debug, PartialEq)]
pub struct Metric {
    /// Metric name, as listed in `BENCHMARK.json`.
    pub name: String,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: String,
    /// How the processes of a run combine it.
    pub across: Across,
    /// Extra context printed beside the value (percentile, sample count).
    pub note: String,
}

/// How a metric combines across the measuring processes of a run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Across {
    /// A host timing: the median across processes.
    Median,
    /// A host timing too short to outlast the core a process lands on:
    /// per-process values split into a fast and a slow group on a shared
    /// host, so the run reports the fastest process.
    Fastest,
    /// A simulated outcome or work count: every process must report it
    /// bit for bit.
    Exact,
}

impl Across {
    /// The rule's name in a process report.
    pub fn name(self) -> &'static str {
        match self {
            Across::Median => "median",
            Across::Fastest => "fastest",
            Across::Exact => "exact",
        }
    }

    /// Reads a rule back from its name.
    pub fn parse(name: &str) -> Option<Across> {
        [Across::Median, Across::Fastest, Across::Exact]
            .into_iter()
            .find(|a| a.name() == name)
    }
}

fn timed(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        name: name.into(),
        value,
        unit: unit.into(),
        across: Across::Median,
        note: String::new(),
    }
}

fn exact(name: &str, value: f64, unit: &str) -> Metric {
    Metric {
        across: Across::Exact,
        ..timed(name, value, unit)
    }
}

/// The percentiles the tail metric picks from, highest first.
const TAIL_LADDER: [f64; 9] = [99.9, 99.5, 99.0, 98.0, 97.5, 95.0, 90.0, 75.0, 50.0];

/// Epochs that must lie beyond the reported tail percentile.
const TAIL_BEYOND: f64 = 10.0;

/// The median of `samples`, averaging the middle two of an even count.
pub fn median_f64(mut samples: Vec<f64>) -> f64 {
    samples.sort_by(f64::total_cmp);
    let n = samples.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => samples[n / 2],
        _ => (samples[n / 2 - 1] + samples[n / 2]) / 2.0,
    }
}

/// The highest ladder percentile with at least ten epochs beyond it, and
/// the nearest-rank epoch time at it.
pub fn tail(epoch_ns: &[u64]) -> (f64, u64) {
    let mut sorted = epoch_ns.to_vec();
    sorted.sort_unstable();
    let n = sorted.len();
    let p = TAIL_LADDER
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= TAIL_BEYOND)
        .unwrap_or(50.0);
    let rank = ((p / 100.0) * n as f64).ceil() as usize;
    (
        p,
        sorted
            .get(rank.clamp(1, n.max(1)) - 1)
            .copied()
            .unwrap_or(0),
    )
}

/// Throughput over all of `passes` together.
fn tx_per_s(passes: &[Pass]) -> f64 {
    let tx: u64 = passes.iter().map(|p| p.counters.tx).sum();
    let ns: u64 = passes.iter().map(|p| p.loop_ns).sum();
    tx as f64 * 1e9 / ns.max(1) as f64
}

/// The nine end-to-end metrics of one process, from its untraced passes.
/// `setup_ns` holds the process's timed set-ups; `peak_rss` is its
/// high-water mark in bytes.
pub fn end_to_end(untraced: &[Pass], setup_ns: &[u64], peak_rss: u64) -> Vec<Metric> {
    let epochs: Vec<u64> = untraced
        .iter()
        .flat_map(|p| p.epoch_ns.iter().copied())
        .collect();
    let (p, tail_ns) = tail(&epochs);
    let c = untraced
        .first()
        .map(|p| p.counters.clone())
        .unwrap_or_default();
    vec![
        timed("tx_per_s", tx_per_s(untraced), "tx/s"),
        timed(
            "epoch_ms_p50",
            median_f64(epochs.iter().map(|&ns| ns as f64 / 1e6).collect()),
            "ms",
        ),
        Metric {
            note: format!("p{p} of {} epochs", epochs.len()),
            ..timed("epoch_ms_tail", tail_ns as f64 / 1e6, "ms")
        },
        Metric {
            note: format!("median of {} set-ups", setup_ns.len()),
            across: Across::Fastest,
            ..timed(
                "setup_s",
                median_f64(setup_ns.iter().map(|&ns| ns as f64 / 1e9).collect()),
                "s",
            )
        },
        timed("peak_rss_mb", peak_rss as f64 / 1e6, "MB"),
        exact("sim_improvement", c.sim_improvement(), "ratio"),
        exact("comm_msgs_per_tx", c.comm_msgs_per_tx(), "msgs/tx"),
        exact("empty_block_rate", c.empty_block_rate(), "ratio"),
        exact("failed_fraction", c.failed_fraction(), "ratio"),
    ]
}

/// Mean self time per epoch of the named spans, in microseconds.
fn self_us(traced: &[Pass], names: &[&str]) -> f64 {
    let mut ns = 0u64;
    let mut epochs = 0u64;
    for pass in traced {
        if let Some(t) = &pass.trace {
            ns += names.iter().filter_map(|n| t.self_ns.get(n)).sum::<u64>();
            epochs += pass.counters.epochs;
        }
    }
    ns as f64 / 1e3 / epochs.max(1) as f64
}

/// The per-layer metrics of one process. Times are mean self time per
/// epoch over the traced passes; counts are totals of one pass; the
/// classify memory figure comes from the first traced pass, which must
/// have run on the process's fresh heap. `trace.overhead_pct` compares
/// the last traced pass's throughput with the untraced passes'.
pub fn per_layer(traced: &[Pass], untraced: &[Pass]) -> Vec<Metric> {
    let c: Counters = traced
        .first()
        .map(|p| p.counters.clone())
        .unwrap_or_default();
    let rss_per_sender = traced
        .first()
        .and_then(|p| p.trace.as_ref())
        .map_or(0.0, |t| {
            t.classify_rss_growth as f64 / c.new_senders.max(1) as f64
        });
    let last = traced.last().map(std::slice::from_ref).unwrap_or_default();
    let overhead = (1.0 - tx_per_s(last) / tx_per_s(untraced).max(f64::MIN_POSITIVE)) * 100.0;
    let us = |names: &[&str]| self_us(traced, names);
    let count = |name: &str, v: u64| exact(name, v as f64, "count");
    vec![
        timed("workload.gen_us", us(&["workload.gen"]), "us"),
        timed("epoch.elect_us", us(&["epoch.elect"]), "us"),
        timed("classify.us", us(&["classify"]), "us"),
        count("classify.reclassified", c.reclassified),
        count("classify.carried", c.carried),
        exact("classify.carried_ratio", c.carried_ratio(), "ratio"),
        timed("classify.rss_bytes_per_sender", rss_per_sender, "B/sender"),
        timed("form.us", us(&["form"]), "us"),
        timed("select.us", us(&["select"]), "us"),
        timed("merge.us", us(&["merge"]), "us"),
        count("merge.iterations", c.merge_iterations),
        count("merge.items", c.merge_items),
        timed("unify.us", us(&["unify"]), "us"),
        count("unify.iterations", c.unify_iterations),
        count("sched.scheduled", c.sched_scheduled),
        count("sched.skipped", c.sched_skipped),
        exact(
            "runtime.events_per_tx",
            c.events as f64 / c.tx.max(1) as f64,
            "events/tx",
        ),
        timed("place.us", us(&["place"]), "us"),
        count("place.proposed", c.place_proposed),
        timed("baseline.us", us(&["baseline"]), "us"),
        timed("crossrun.us", us(&["crossrun"]), "us"),
        count("settle.batches", c.crosslink_batches),
        exact(
            "settle.avg_fill",
            c.settled as f64 / c.crosslink_batches.max(1) as f64,
            "tx/batch",
        ),
        count("settle.deferred_flushes", c.settle_deferred),
        count("migrate.applied", c.migrate_applied),
        count("migrate.deferred", c.migrate_deferred),
        timed("bench.self_us", us(&["epoch", "pipeline"]), "us"),
        timed("trace.overhead_pct", overhead, "%"),
    ]
}

/// Merges the metric lists of several processes, by name and in the first
/// list's order, each by its [`Across`] rule. Each disagreement among
/// exact metrics is returned as a problem line.
pub fn merge(per_process: &[Vec<Metric>]) -> (Vec<Metric>, Vec<String>) {
    let mut problems = Vec::new();
    let Some(first) = per_process.first() else {
        return (Vec::new(), problems);
    };
    let merged = first
        .iter()
        .map(|m| {
            let values: Vec<f64> = per_process
                .iter()
                .filter_map(|list| list.iter().find(|o| o.name == m.name))
                .map(|o| o.value)
                .collect();
            if values.len() != per_process.len() {
                problems.push(format!("{} missing from a process's report", m.name));
            }
            let n = per_process.len();
            match m.across {
                Across::Exact => {
                    if values.iter().any(|v| v.to_bits() != m.value.to_bits()) {
                        problems.push(format!("{} differs between processes: {values:?}", m.name));
                    }
                    m.clone()
                }
                Across::Median | Across::Fastest => {
                    let (value, how) = if m.across == Across::Median {
                        (median_f64(values), "median")
                    } else {
                        (values.into_iter().fold(f64::INFINITY, f64::min), "fastest")
                    };
                    let note = if m.note.is_empty() {
                        format!("{how} of {n} processes")
                    } else {
                        format!("{}; {how} of {n} processes", m.note)
                    };
                    Metric {
                        value,
                        note,
                        ..m.clone()
                    }
                }
            }
        })
        .collect();
    (merged, problems)
}

/// What a pass of `workload` must show to be in the regime its name
/// claims; one line per miss.
pub fn regime_problems(workload: Workload, c: &Counters) -> Vec<String> {
    let mut problems = Vec::new();
    let mut need = |ok: bool, what: &str| {
        if !ok {
            problems.push(format!("{}: {what}", workload.name()));
        }
    };
    need(c.epochs > 0 && c.tx > 0, "ran no epochs");
    match workload {
        Workload::Stream1m => {
            need(
                c.carried_ratio() > 0.0,
                "no sender was carried (senders never repeat)",
            );
        }
        Workload::SkewedFees => {
            need(c.merge_items > 0, "the merge game merged no shard");
            need(c.unify_iterations > 0, "no selection-game sweep ran");
        }
        Workload::PlacedCross => {
            need(
                c.place_proposed > 0,
                "the placement engine proposed no move",
            );
            need(c.migrate_applied > 0, "no migration applied");
            need(
                c.migrate_deferred + c.settle_deferred > 0,
                "no apply or flush deferred under a partition",
            );
            need(c.crosslink_batches > 0, "settlement flushed no batch");
        }
    }
    problems
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_epochs_beyond_the_percentile() {
        let samples: Vec<u64> = (1..=400).collect();
        assert_eq!(tail(&samples), (97.5, 390));
        let samples: Vec<u64> = (1..=1000).collect();
        assert_eq!(tail(&samples), (99.0, 990));
        let samples: Vec<u64> = (1..=60).collect();
        assert_eq!(tail(&samples), (75.0, 45));
    }

    #[test]
    fn merge_applies_each_rule_and_flags_exact_disagreement() {
        let list = |t: f64, e: f64| {
            vec![
                timed("t", t, "ms"),
                exact("e", e, "count"),
                Metric {
                    across: Across::Fastest,
                    ..timed("f", t, "s")
                },
            ]
        };
        let (merged, problems) = merge(&[list(3.0, 1.0), list(1.0, 1.0), list(2.0, 1.0)]);
        assert_eq!(merged[0].value, 2.0);
        assert_eq!(merged[1].value, 1.0);
        assert_eq!(merged[2].value, 1.0);
        assert!(problems.is_empty());
        let (_, problems) = merge(&[list(1.0, 1.0), list(1.0, 2.0)]);
        assert_eq!(problems.len(), 1, "{problems:?}");
    }
}
