//! Small-size runs of every workload: each exercises what its name says,
//! outputs agree across trace modes, worker counts and the `LongRun`
//! mirror, seeds behave, and every metric `BENCHMARK.json` names is
//! emitted with its unit.
//!
//! Run with `cargo test --release --manifest-path epochbench/Cargo.toml`.

use cshard_json::Value;
use epochbench::metrics::{end_to_end, per_layer, regime_problems, Metric};
use epochbench::{longrun_pass, run_pass, Pass, PassConfig, Workload};

fn small(workload: Workload, seed: u64, workers: usize, traced: bool) -> Pass {
    run_pass(PassConfig {
        workload,
        seed,
        size: workload.small_size(),
        workers,
        traced,
        reference_classify: false,
    })
}

fn read_json(relative: &str) -> Value {
    let path = format!("{}/{relative}", env!("CARGO_MANIFEST_DIR"));
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    cshard_json::parse(&text).unwrap_or_else(|e| panic!("{path}: {e}"))
}

/// The default and held-out seeds recorded beside the layer map.
fn seeds() -> (u64, u64) {
    let map = read_json("map.json");
    let seed = |key: &str| {
        map.get(key)
            .and_then(Value::as_u64)
            .unwrap_or_else(|| panic!("map.json lacks {key}"))
    };
    (seed("default_seed"), seed("held_out_seed"))
}

#[test]
fn every_workload_exercises_what_its_name_says() {
    let (seed, _) = seeds();
    for w in Workload::ALL {
        let pass = small(w, seed, w.default_workers(), false);
        assert_eq!(regime_problems(w, &pass.counters), Vec::<String>::new());
        assert!(
            pass.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            pass.violations
        );
        assert_eq!(pass.counters.failed_tx, 0, "{}", w.name());
    }
}

#[test]
fn the_incremental_classification_matches_a_from_scratch_one() {
    let (seed, _) = seeds();
    for w in Workload::ALL {
        let pass = run_pass(PassConfig {
            workload: w,
            seed,
            size: w.small_size(),
            workers: 1,
            traced: false,
            reference_classify: true,
        });
        assert!(
            pass.violations.is_empty(),
            "{}: {:?}",
            w.name(),
            pass.violations
        );
    }
}

#[test]
fn placed_cross_applies_defers_and_flushes() {
    let (seed, _) = seeds();
    let c = small(Workload::PlacedCross, seed, 1, false).counters;
    assert!(c.migrate_applied > 0, "{c:?}");
    assert!(c.migrate_deferred + c.settle_deferred > 0, "{c:?}");
    assert!(c.crosslink_batches > 0, "{c:?}");
    assert_eq!(
        c.settled, c.transfers,
        "every transfer settles exactly once"
    );
    assert_eq!(
        c.migrate_applied, c.migrate_scheduled,
        "every ticket applies"
    );
}

#[test]
fn stream_1m_carries_senders_and_the_others_leave_placement_idle() {
    let (seed, _) = seeds();
    let stream = small(Workload::Stream1m, seed, 1, false).counters;
    assert!(stream.carried_ratio() > 0.0, "{stream:?}");
    for w in [Workload::Stream1m, Workload::SkewedFees] {
        let c = small(w, seed, w.default_workers(), false).counters;
        assert_eq!(
            (c.place_proposed, c.migrate_applied, c.crosslink_batches),
            (0, 0, 0)
        );
    }
}

#[test]
fn digests_agree_across_trace_modes_and_worker_counts() {
    let (seed, _) = seeds();
    for w in Workload::ALL {
        let base = small(w, seed, 1, false);
        for (workers, traced) in [(1, true), (2, false), (2, true)] {
            let other = small(w, seed, workers, traced);
            assert_eq!(
                other.digest,
                base.digest,
                "{} at {workers} worker(s), traced {traced}",
                w.name()
            );
            assert_eq!(other.counters, base.counters, "{}", w.name());
        }
    }
}

#[test]
fn the_bench_loop_mirrors_a_plain_long_run() {
    let (seed, _) = seeds();
    let w = Workload::Stream1m;
    let pass = small(w, seed, 1, false);
    let (digest, metrics) = longrun_pass(w, seed, w.small_size(), 1).expect("long run");
    assert_eq!(digest, pass.report_digest);
    assert_eq!(metrics, pass.metrics);
}

#[test]
fn deterministic_metrics_repeat_for_a_seed_and_differ_between_seeds() {
    let (seed, held_out) = seeds();
    assert_ne!(seed, held_out);
    let sim = |w: Workload, s: u64| {
        let c = small(w, s, w.default_workers(), false).counters;
        [
            c.sim_improvement(),
            c.comm_msgs_per_tx(),
            c.empty_block_rate(),
        ]
        .map(f64::to_bits)
    };
    for w in Workload::ALL {
        assert_eq!(
            sim(w, seed),
            sim(w, seed),
            "{} must repeat exactly",
            w.name()
        );
        assert_ne!(
            sim(w, seed),
            sim(w, held_out),
            "{} must depend on the seed",
            w.name()
        );
    }
}

#[test]
fn spans_nest_inside_epochs_and_cover_every_layer() {
    let (seed, _) = seeds();
    let pass = small(Workload::PlacedCross, seed, 1, true);
    let trace = pass.trace.expect("traced pass");
    for name in [
        "setup",
        "epoch",
        "workload.gen",
        "epoch.elect",
        "pipeline",
        "classify",
        "form",
        "merge",
        "select",
        "unify",
        "place",
        "baseline",
        "crossrun",
    ] {
        assert!(trace.self_ns.contains_key(name), "no {name} span");
    }
    for span in &trace.spans {
        assert!(span.end_ns >= span.start_ns, "{span:?}");
        if let Some(p) = span.parent {
            let parent = &trace.spans[p];
            assert_eq!(parent.epoch, span.epoch, "{span:?} in {parent:?}");
            assert!(parent.start_ns <= span.start_ns && span.end_ns <= parent.end_ns);
        }
    }
    let epochs = trace.spans.iter().filter(|s| s.name == "epoch").count();
    assert_eq!(epochs as u64, pass.counters.epochs);
}

/// Every metric `BENCHMARK.json` lists, with its unit.
fn listed(section: &str) -> Vec<(String, String)> {
    let bench = read_json("../BENCHMARK.json");
    bench
        .get(section)
        .and_then(Value::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks {section}"))
        .iter()
        .map(|m| {
            let field = |k: &str| {
                m.get(k)
                    .and_then(Value::as_str)
                    .unwrap_or_default()
                    .to_string()
            };
            (field("name"), field("unit"))
        })
        .collect()
}

fn assert_emitted(listed: &[(String, String)], emitted: &[Metric], what: &str) {
    for (name, unit) in listed {
        let m = emitted
            .iter()
            .find(|m| &m.name == name)
            .unwrap_or_else(|| panic!("{what}: {name} not emitted"));
        assert_eq!(&m.unit, unit, "{what}: unit of {name}");
        assert!(m.value.is_finite(), "{what}: {name} = {}", m.value);
    }
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let (seed, _) = seeds();
    let (e2e, layers) = (listed("end_to_end"), listed("per_layer"));
    let map = read_json("map.json");
    let mapped: Vec<&str> = map
        .get("layers")
        .and_then(Value::as_array)
        .expect("map.json lists layers")
        .iter()
        .flat_map(|l| {
            l.get("metrics")
                .and_then(Value::as_array)
                .unwrap_or_default()
        })
        .filter_map(Value::as_str)
        .collect();
    for (name, _) in &layers {
        assert!(mapped.contains(&name.as_str()), "map.json misses {name}");
    }
    for w in Workload::ALL {
        let traced = small(w, seed, w.default_workers(), true);
        let untraced = small(w, seed, w.default_workers(), false);
        let untraced = std::slice::from_ref(&untraced);
        assert_emitted(&e2e, &end_to_end(untraced, &[1], 1), w.name());
        assert_emitted(
            &layers,
            &per_layer(std::slice::from_ref(&traced), untraced),
            w.name(),
        );
        for m in end_to_end(untraced, &[1], 1) {
            assert!(
                m.name == "failed_fraction" || m.value > 0.0,
                "{}: {m:?}",
                w.name()
            );
        }
    }
}
