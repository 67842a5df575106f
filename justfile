# Development workflow for contractshard. `just verify` is the gate CI runs.

# Build, test, format-check and lint the whole workspace, then test the
# benchmark package (its own workspace under epochbench/).
verify:
    cargo fmt --check
    cargo build --release --workspace
    cargo test -q --workspace
    cargo clippy --workspace --all-targets -- -D warnings
    cargo test --release --manifest-path epochbench/Cargo.toml

# Determinism & safety lint over every workspace crate (policy.toml is the
# policy table; exit 1 on findings, each printed as `file:line: RULE message`
# followed by the source→…→sink call chain for the reachability rules).
audit:
    cargo run --release -p cshard-audit

# Audit plus the stable JSON report, gated against the committed baseline
# (any new finding or a >2% call-resolution drop fails). This is what CI runs.
audit-json:
    cargo run --release -p cshard-audit -- \
        --json /tmp/AUDIT_report.json \
        --baseline results/audit/AUDIT_baseline.json
    @echo "wrote /tmp/AUDIT_report.json"

# Regenerate the committed audit baseline after deliberately accepting a new
# finding or call-graph shape. Review the diff before committing.
audit-baseline:
    -cargo run --release -p cshard-audit -- \
        --json results/audit/AUDIT_baseline.json
    git diff --stat results/audit/AUDIT_baseline.json

# Quick-mode run of the golden experiments, diffed against results/golden.
# fig4a exercises the ChainSpace driver with settlement disabled: the diff
# pins the settle subsystem bit-invisible on the unbatched path.
golden:
    cargo run --release -p cshard-bench --bin experiments -- \
        table1 fig3a fig4a --quick --json /tmp/golden-smoke
    diff results/golden/table1.json /tmp/golden-smoke/table1.json
    diff results/golden/fig3a.json /tmp/golden-smoke/fig3a.json
    diff results/golden/fig4a.json /tmp/golden-smoke/fig4a.json

# Fault-injection gate: the chaos suite (zero-fault transparency, VRF
# failover, corruption bounds) plus the faults experiment grid as JSON.
chaos:
    cargo test -q --test chaos
    cargo run --release -p cshard-bench --bin experiments -- \
        faults --quick --json /tmp/chaos

# Pipeline instrumentation grid: cold vs warm iteration counts and
# per-stage timing, written as BENCH_pipeline.json.
bench-pipeline:
    cargo run --release -p cshard-bench --bin experiments -- \
        pipeline --quick --json /tmp/bench-pipeline
    @echo "wrote /tmp/bench-pipeline/BENCH_pipeline.json"

# Scheduler lifecycle grid: launch throughput and scheduled/skipped task
# counts on a sparse 10→2000-shard workload, written as BENCH_sched.json.
bench-sched:
    cargo run --release -p cshard-bench --bin experiments -- \
        sched --quick --json /tmp/bench-sched
    @echo "wrote /tmp/bench-sched/BENCH_sched.json"

# Streaming scale grid: epochs/sec and reclassified fraction, accounts
# 10^3 -> 10^6 under steady/bursty/spam mixes, as BENCH_scale.json.
bench-scale:
    cargo run --release -p cshard-bench --bin experiments -- \
        scale --quick --json /tmp/bench-scale
    @echo "wrote /tmp/bench-scale/BENCH_scale.json"

# Settlement grid: messages per cross-shard tx, per-tx 2PC baseline vs a
# crosslink batch-cap sweep on the fig4(b) point, as BENCH_settle.json.
bench-settle:
    cargo run --release -p cshard-bench --bin experiments -- \
        settle --quick --json /tmp/bench-settle
    @echo "wrote /tmp/bench-settle/BENCH_settle.json"

# Migration grid: cross-shard messages per tx, static placement vs the
# cross-epoch placement engine (>= 2x reduction asserted in the grid), as
# BENCH_migrate.json.
bench-migrate:
    cargo run --release -p cshard-bench --bin experiments -- \
        migrate --quick --json /tmp/bench-migrate
    @echo "wrote /tmp/bench-migrate/BENCH_migrate.json"

# Fast feedback loop: tests only.
test:
    cargo test -q --workspace

# Undefined-behaviour check on the leaf crates (requires nightly + miri
# component; heavy statistical tests are gated off under the interpreter).
miri:
    cargo +nightly miri test -p cshard-primitives -p cshard-crypto

# Regenerate every paper figure/table (quick mode; drop --quick for full scale).
experiments:
    cargo run --release -p cshard-bench --bin experiments -- all --quick

# Sequential-vs-parallel sanity: identical results, only wall-clock differs.
determinism:
    cargo test -q --test determinism
