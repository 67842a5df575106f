//! One measuring process: timed set-ups, then one untraced pass — or,
//! for the per-layer run, a traced pass on the fresh heap, an untraced
//! pass and a second traced pass — reported as one JSON line.
//!
//! Separate processes are the unit of repetition: each gets a fresh heap
//! (so set-up, the classify memory figure and `VmHWM` mean the same thing
//! in every sample), and the coordinating run takes medians across
//! several, spread over the whole run, which damps the second-scale speed
//! swings of a shared host.

use crate::metrics::{self, Across, Metric};
use crate::pass::{run_pass, setup, Pass, PassConfig};
use crate::procfs;
use crate::trace::Span;
use crate::workloads::Workload;
use cshard_json::{ObjectBuilder, Value};
use std::time::Instant;

/// Set-ups timed per process, after one untimed warm-up.
const SETUP_REPEATS: usize = 31;

/// What one measuring process reports.
#[derive(Clone, Debug, PartialEq)]
pub struct ProcessReport {
    /// Output digest of the process's passes (all of them agree, or
    /// `problems` says otherwise).
    pub digest: String,
    /// The passes' `EpochReport` digest.
    pub report_digest: String,
    /// Transactions injected over all passes.
    pub attempted: u64,
    /// Transactions failed over all passes.
    pub failed: u64,
    /// Broken output checks.
    pub problems: Vec<String>,
    /// The end-to-end metrics of the untraced pass.
    pub end_to_end: Vec<Metric>,
    /// The per-layer metrics (empty unless traced).
    pub per_layer: Vec<Metric>,
}

/// The pass configuration of a workload's measured runs.
pub fn pass_config(workload: Workload, seed: u64, traced: bool) -> PassConfig {
    PassConfig {
        workload,
        seed,
        size: workload.full_size(),
        workers: workload.default_workers(),
        traced,
        reference_classify: false,
    }
}

/// Runs one measuring process's share of a run. Returns its report and
/// the spans of its first traced pass (empty when untraced).
pub fn measure(workload: Workload, seed: u64, traced: bool) -> (ProcessReport, Vec<Span>) {
    drop(setup(workload, seed));
    let setup_ns: Vec<u64> = (0..SETUP_REPEATS)
        .map(|_| {
            let began = Instant::now();
            let built = setup(workload, seed);
            let ns = u64::try_from(began.elapsed().as_nanos()).unwrap_or(u64::MAX);
            drop(built);
            ns
        })
        .collect();

    let (traced_passes, untraced) = if traced {
        let first = run_pass(pass_config(workload, seed, true));
        let plain = run_pass(pass_config(workload, seed, false));
        let second = run_pass(pass_config(workload, seed, true));
        (vec![first, second], vec![plain])
    } else {
        (
            Vec::new(),
            vec![run_pass(pass_config(workload, seed, false))],
        )
    };
    let peak_rss = procfs::peak_rss_bytes();

    let all: Vec<&Pass> = untraced.iter().chain(&traced_passes).collect();
    let reference = all[0];
    let mut problems: Vec<String> = Vec::new();
    for pass in &all {
        problems.extend(pass.violations.iter().cloned());
        if pass.digest != reference.digest || pass.counters != reference.counters {
            problems.push(format!(
                "digest mismatch inside one process: {} against {}",
                pass.digest, reference.digest
            ));
        }
    }
    let report = ProcessReport {
        digest: reference.digest.to_string(),
        report_digest: reference.report_digest.to_string(),
        attempted: all.iter().map(|p| p.counters.tx).sum(),
        failed: all.iter().map(|p| p.counters.failed_tx).sum(),
        problems,
        end_to_end: metrics::end_to_end(&untraced, &setup_ns, peak_rss),
        per_layer: if traced {
            metrics::per_layer(&traced_passes, &untraced)
        } else {
            Vec::new()
        },
    };
    let spans = traced_passes
        .into_iter()
        .next()
        .and_then(|p| p.trace)
        .map(|t| t.spans)
        .unwrap_or_default();
    (report, spans)
}

fn metric_json(m: &Metric) -> Value {
    ObjectBuilder::new()
        .field("name", m.name.as_str())
        .field("value", m.value)
        .field("unit", m.unit.as_str())
        .field("across", m.across.name())
        .field("note", m.note.as_str())
        .build()
}

fn metric_from(v: &Value) -> Option<Metric> {
    Some(Metric {
        name: v.get("name")?.as_str()?.into(),
        value: v.get("value")?.as_f64()?,
        unit: v.get("unit")?.as_str()?.into(),
        across: Across::parse(v.get("across")?.as_str()?)?,
        note: v.get("note")?.as_str()?.into(),
    })
}

impl ProcessReport {
    /// The report as one JSON object.
    pub fn to_json(&self) -> Value {
        let list = |ms: &[Metric]| Value::from(ms.iter().map(metric_json).collect::<Vec<_>>());
        ObjectBuilder::new()
            .field("digest", self.digest.as_str())
            .field("report_digest", self.report_digest.as_str())
            .field("attempted", self.attempted)
            .field("failed", self.failed)
            .field(
                "problems",
                self.problems.iter().map(String::as_str).collect::<Vec<_>>(),
            )
            .field("end_to_end", list(&self.end_to_end))
            .field("per_layer", list(&self.per_layer))
            .build()
    }

    /// Reads a report back from [`ProcessReport::to_json`]'s output.
    pub fn from_json(v: &Value) -> Option<ProcessReport> {
        let list = |key: &str| -> Option<Vec<Metric>> {
            v.get(key)?.as_array()?.iter().map(metric_from).collect()
        };
        Some(ProcessReport {
            digest: v.get("digest")?.as_str()?.into(),
            report_digest: v.get("report_digest")?.as_str()?.into(),
            attempted: v.get("attempted")?.as_u64()?,
            failed: v.get("failed")?.as_u64()?,
            problems: v
                .get("problems")?
                .as_array()?
                .iter()
                .map(|p| p.as_str().map(String::from))
                .collect::<Option<_>>()?,
            end_to_end: list("end_to_end")?,
            per_layer: list("per_layer")?,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reports_round_trip_through_json() {
        let report = ProcessReport {
            digest: "0xab".into(),
            report_digest: "0xcd".into(),
            attempted: 12,
            failed: 0,
            problems: vec!["one".into()],
            end_to_end: vec![Metric {
                name: "tx_per_s".into(),
                value: 1234.5678,
                unit: "tx/s".into(),
                across: Across::Median,
                note: String::new(),
            }],
            per_layer: Vec::new(),
        };
        let text = report.to_json().to_string_compact();
        let parsed = cshard_json::parse(&text).expect("valid JSON");
        assert_eq!(ProcessReport::from_json(&parsed), Some(report));
    }
}
