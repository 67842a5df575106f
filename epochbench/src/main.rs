//! `epochbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Starts measuring processes (this binary with `--process 1`) one after
//! another until `--seconds` have elapsed, at least three of them, and
//! merges their metrics: medians of the timed ones (the fastest process
//! for the set-up time), bit-for-bit agreement of the exact ones. Then it checks the outputs itself: every process
//! must have produced the same output digest, and so must a pass in the
//! other trace mode, a pass at the other scheduler worker count and, on
//! `stream-1m`, a plain `LongRun::run_epoch` loop over the same batches.
//!
//! Prints one line per metric (name, value, unit), then one JSON object
//! as the last line: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics with `--trace 1`. Exits 1 when an output check
//! fails, 2 on bad arguments.

use cshard_json::{ObjectBuilder, Value};
use epochbench::metrics::{self, Metric};
use epochbench::process::{measure, pass_config, ProcessReport};
use epochbench::{longrun_pass, run_pass, trace, Pass, PassConfig, Workload};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

const USAGE: &str = "usage: epochbench --workload <stream-1m|skewed-fees|placed-cross> \
                     [--seed <n>] [--seconds <s>] [--trace <0|1>]";

/// The seed used when `--seed` is omitted.
const DEFAULT_SEED: u64 = 1;

/// Measuring processes per run, at the least.
const MIN_PROCESSES: usize = 3;

struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
    /// Run as one measuring process and print its report.
    process: bool,
    /// Where a measuring process writes its spans, if anywhere.
    spans_out: Option<String>,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut args = Args {
        workload: Workload::Stream1m,
        seed: DEFAULT_SEED,
        seconds: 10,
        trace: false,
        process: false,
        spans_out: None,
    };
    let flag_bool = |flag: &str, value: &str| match value {
        "0" => Ok(false),
        "1" => Ok(true),
        _ => Err(format!("{flag} takes 0 or 1, not {value}")),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(&value).ok_or_else(|| format!("unknown workload {value}"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = flag_bool(&flag, &value)?,
            "--process" => args.process = flag_bool(&flag, &value)?,
            "--spans-out" => args.spans_out = Some(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    args.workload = workload.ok_or("--workload is required")?;
    Ok(args)
}

fn print_metrics(heading: &str, metrics: &[Metric]) {
    println!("{heading}");
    for m in metrics {
        let note = if m.note.is_empty() {
            String::new()
        } else {
            format!("  ({})", m.note)
        };
        println!("  {:<32} {:>16.6} {}{note}", m.name, m.value, m.unit);
    }
}

/// One measuring process: prints its report as the last line.
fn run_process(args: &Args) -> ExitCode {
    let (report, spans) = measure(args.workload, args.seed, args.trace);
    if let Some(path) = &args.spans_out {
        let written = std::path::Path::new(path)
            .parent()
            .map_or(Ok(()), std::fs::create_dir_all)
            .and_then(|()| std::fs::write(path, trace::json_lines(&spans)));
        if let Err(e) = written {
            eprintln!("epochbench: writing spans to {path}: {e}");
            return ExitCode::from(1);
        }
    }
    println!("{}", report.to_json().to_string_compact());
    ExitCode::SUCCESS
}

/// Starts one measuring process, waits for it and reads its report.
fn spawn_process(args: &Args, spans_out: Option<&str>) -> Result<ProcessReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the benchmark: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", args.workload.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }])
        .args(["--process", "1"]);
    if let Some(path) = spans_out {
        cmd.args(["--spans-out", path]);
    }
    let out = cmd
        .output()
        .map_err(|e| format!("starting a measuring process: {e}"))?;
    if !out.status.success() {
        return Err(format!(
            "a measuring process exited with {}: {}",
            out.status,
            String::from_utf8_lossy(&out.stderr).trim()
        ));
    }
    String::from_utf8_lossy(&out.stdout)
        .lines()
        .last()
        .and_then(|line| cshard_json::parse(line).ok())
        .as_ref()
        .and_then(ProcessReport::from_json)
        .ok_or_else(|| "a measuring process printed no report".to_string())
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("epochbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    if args.process {
        return run_process(&args);
    }
    let w = args.workload;
    let size = w.full_size();
    let workers = w.default_workers();
    let other_workers = if workers == 1 { 2 } else { 1 };
    println!(
        "workload {} seed {}: passes of {} epochs x {} tx, {} scheduler worker(s), \
         {} cores available",
        w.name(),
        args.seed,
        size.epochs,
        size.tx_per_epoch,
        workers,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );

    // Measuring processes, one after another.
    let mut problems: Vec<String> = Vec::new();
    let spans_path = args.trace.then(|| {
        let root = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| ".bench_build".into());
        format!(
            "{root}/epochbench-spans/{}-seed{}.jsonl",
            w.name(),
            args.seed
        )
    });
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut reports: Vec<ProcessReport> = Vec::new();
    while reports.len() < MIN_PROCESSES || started.elapsed() < budget {
        let spans_out = if reports.is_empty() {
            spans_path.as_deref()
        } else {
            None
        };
        match spawn_process(&args, spans_out) {
            Ok(report) => reports.push(report),
            Err(e) => {
                problems.push(e);
                break;
            }
        }
    }

    // Output checks: the processes against each other, then passes in
    // the other trace mode and at the other worker count, then the
    // long-run mirror.
    let digest = reports
        .first()
        .map(|r| r.digest.clone())
        .unwrap_or_default();
    let report_digest = reports
        .first()
        .map(|r| r.report_digest.clone())
        .unwrap_or_default();
    let mut expect_digest = |what: &str, got: &str| {
        if got != digest {
            problems.push(format!(
                "digest mismatch: {what} gave {got} against {digest}"
            ));
        }
    };
    for (i, r) in reports.iter().enumerate().skip(1) {
        expect_digest(&format!("measuring process {i}"), &r.digest);
    }
    let mut checks: Vec<(String, Pass)> = Vec::new();
    if !args.trace {
        checks.push((
            "a traced pass".into(),
            run_pass(pass_config(w, args.seed, true)),
        ));
    }
    let other = PassConfig {
        workers: other_workers,
        reference_classify: true,
        ..pass_config(w, args.seed, false)
    };
    checks.push((
        format!("a pass at {other_workers} worker(s) with reference classification"),
        run_pass(other),
    ));
    for (what, pass) in &checks {
        expect_digest(what, &pass.digest.to_string());
    }
    let check = &checks[checks.len() - 1].1;
    if w == Workload::Stream1m {
        match longrun_pass(w, args.seed, size, workers) {
            Ok((long_digest, pipeline)) => {
                if long_digest.to_string() != report_digest || pipeline != check.metrics {
                    problems.push(format!(
                        "digest mismatch: the LongRun loop gave {long_digest} \
                         against {report_digest}"
                    ));
                }
            }
            Err(e) => problems.push(e),
        }
    }
    for (_, pass) in &checks {
        problems.extend(pass.violations.iter().cloned());
    }
    problems.extend(metrics::regime_problems(w, &check.counters));
    for r in &reports {
        problems.extend(r.problems.iter().cloned());
    }
    let attempted: u64 = reports.iter().map(|r| r.attempted).sum::<u64>()
        + checks.iter().map(|(_, p)| p.counters.tx).sum::<u64>();
    let failed: u64 = reports.iter().map(|r| r.failed).sum::<u64>()
        + checks
            .iter()
            .map(|(_, p)| p.counters.failed_tx)
            .sum::<u64>();
    if failed > 0 {
        problems.push(format!("{failed} of {attempted} transactions failed"));
    }

    let merged = |pick: fn(&ProcessReport) -> &Vec<Metric>| {
        metrics::merge(&reports.iter().map(|r| pick(r).clone()).collect::<Vec<_>>())
    };
    let (end_to_end, disagreements) = merged(|r| &r.end_to_end);
    problems.extend(disagreements);
    print_metrics(
        &format!(
            "end-to-end ({} measuring processes, output digest {digest})",
            reports.len()
        ),
        &end_to_end,
    );
    let reported = if args.trace {
        let (layers, disagreements) = merged(|r| &r.per_layer);
        problems.extend(disagreements);
        print_metrics("per-layer", &layers);
        if let Some(path) = &spans_path {
            println!("spans: {path}");
        }
        layers
    } else {
        // `failed_fraction` is zero in every accepted run; the result
        // line carries it as `failed` out of `attempted`.
        end_to_end
            .into_iter()
            .filter(|m| m.name != "failed_fraction")
            .collect()
    };
    problems.sort();
    problems.dedup();
    const SHOWN: usize = 20;
    for problem in problems.iter().take(SHOWN) {
        println!("FAILED CHECK: {problem}");
    }
    if problems.len() > SHOWN {
        println!("FAILED CHECK: ... and {} more", problems.len() - SHOWN);
    }

    let mut values = ObjectBuilder::new();
    for m in &reported {
        let value = if m.value.is_finite() { m.value } else { 0.0 };
        values = values.field(
            &m.name,
            ObjectBuilder::new()
                .field("value", value)
                .field("unit", m.unit.as_str())
                .build(),
        );
    }
    let result: Value = ObjectBuilder::new()
        .field("correct", problems.is_empty())
        .field("attempted", attempted)
        .field("failed", failed)
        .field("metrics", values.build())
        .build();
    println!("{}", result.to_string_compact());
    if problems.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}
