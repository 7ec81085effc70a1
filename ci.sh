#!/usr/bin/env bash
# The full verification gate. Everything here must pass before a PR
# merges; .github/workflows/ci.yml runs exactly this script.
set -euo pipefail
cd "$(dirname "$0")"

run() {
    echo
    echo "==> $*"
    "$@"
}

run cargo fmt --all -- --check
run cargo clippy --workspace --all-targets -- -D warnings
# perfbench/ is a workspace of its own, so the two runs above never see
# it: format-check and lint it by its manifest.
run cargo fmt --manifest-path perfbench/Cargo.toml -- --check
run cargo clippy --manifest-path perfbench/Cargo.toml --all-targets -- -D warnings
# Static-analysis gate: the workspace's own linter (determinism,
# cast-audit, safety-comment, unsafe-containment, doc-drift,
# fault-seed) must find zero unwaived violations and refreshes LINT_report.json, which is
# diffed below like the BENCH artifacts.
run cargo run --release -q -p capsacc-lint -- --deny --json LINT_report.json
run cargo build --release
run cargo test --workspace -q
# Run every example end to end (README advertises all five;
# cycle_accurate_validation and mnist_full_system assert bit-exactness).
for example in quickstart cycle_accurate_validation mnist_full_system design_space synthetic_digits; do
    run cargo run --release -q --example "$example"
done
# The end-to-end benchmark (perfbench/) is a workspace of its own, so
# the workspace build, test and clippy runs above never compile it:
# build and test it here, so a change to a crate's public API cannot
# break the benchmark while CI stays green.
run cargo test --release -q --manifest-path perfbench/Cargo.toml
# Benchmark smoke runs: each workload once, briefly. perfbench checks
# its own outputs (infer_q8 bit-exactness of the paper-scale SIMD path,
# pool-b4 serving every request, serve-faults conservation) but always
# exits 0, so the step reads the verdict from the last stdout line.
for workload in mnist-b16 mnist-b1 pool-b4 serve-faults; do
    echo
    echo "==> perfbench --workload $workload --seconds 1 --trace 0"
    verdict=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace 0 | tail -n 1)
    if ! grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$verdict"; then
        echo "perfbench $workload failed its output checks: ${verdict:0:200}" >&2
        exit 1
    fi
done
# Every paper-figure binary end to end. Each computes closed forms or
# runs tiny networks only (milliseconds apiece), and several assert
# their own checks, so a caller edit cannot break a figure unnoticed;
# the other six run below, each with its own note.
for bin in exp_energy exp_fig03 exp_fig08 exp_fig09 exp_fig16 exp_fig17 exp_fig18 \
    exp_mapping exp_routing_opt exp_table1 exp_table2 exp_table3; do
    run cargo run --release -q -p capsacc-bench --bin "$bin"
done
# Batched-serving smoke run: validates run_batch bit-exactness at the
# tiny scale and refreshes BENCH_batch.json so the perf trajectory of
# the batch path is recorded with every CI run.
run cargo run --release -q -p capsacc-bench --bin exp_batch
# Memory design-space smoke run: asserts the IdealMemory equivalence
# (engine ≡ closed-form memory replay, zero ideal stalls) and the
# prefetch-recovery bound, and refreshes BENCH_mem.json.
run cargo run --release -q -p capsacc-bench --bin exp_memdse
# Serving smoke run: asserts the ≥3x worker-scaling bound (4 workers vs
# 1 at fixed max_batch) on BOTH service tables (closed-form model and
# the engine table measured from parallel+SIMD functional BatchRuns at
# MNIST scale), the offline anchor (online runtime ≡ offline pipeline
# with overload features disabled), the overload invariants (flash
# crowd sheds on the bounded queue — closed-form and engine-table —
# and the post-spike served fraction recovers to ≥95% of the pre-spike
# level), monotonicity + batch amortization of the engine service
# table, byte-identical determinism of every sweep (event digests
# included), and shard-pool trace bit-exactness at the tiny scale;
# refreshes BENCH_serve.json — saturating + overload sweeps on both
# tables, engine_service_cycles, million-request diurnal scale point —
# so the serving-perf trajectory is recorded.
run cargo run --release -q -p capsacc-bench --bin exp_serve
# Fault-tolerance smoke run: asserts conservation under faults (no run
# loses a request while batches crash and requeue), the recovery
# headline (≥90% goodput at a 1% worker-crash rate with the standard
# retry budget), faults-off invisibility (zero-rate FaultPlan ≡
# ResilienceConfig::none(), digest-exact), hedging efficacy (hedges
# fire, win, and never worsen p99 under rare heavy stragglers),
# degradation efficacy (quality shifts serve at least as much as full
# quality under sustained overload), and byte-identical rerun
# determinism of every fault sweep; refreshes BENCH_faults.json.
run cargo run --release -q -p capsacc-bench --bin exp_faults
# Engine wall-clock smoke run: asserts ticked, functional-scalar and
# functional-SIMD (the parallel backend) are bit-identical on a full
# MNIST inference at the paper 16x16 design point, that explicit
# thread counts 1/2/4 produce byte-identical batch-16 BatchRuns, that
# the functional backend clears the 10x wall-clock bound over ticked
# and the parallel+SIMD batch path clears 5x over the PR 5 functional
# baseline (98.20 ms/image) — both asserted on median host times;
# refreshes BENCH_engine.json, which keeps only the deterministic
# fields (configuration, reps, simulated cycles and ms per row) and is
# diffed below.
run cargo run --release -q -p capsacc-bench --bin exp_engine_speed
# Telemetry smoke run: asserts recording is invisible (instrumented
# BatchRun/RuntimeOutcome + event digest == recording-off runs), span
# trees are well-formed and sum *exactly* to run totals (MNIST Phases
# detail; tiny Tiles detail identical across both backends), every
# exported artifact parses, and the serving timeline covers the served
# set exactly once; writes the gitignored PROFILE_* artifacts only.
run cargo run --release -q -p capsacc-bench --bin exp_profile
# The deterministic BENCH files must regenerate byte-identically (and
# exp_profile must not have touched them).
run git diff --exit-code -- BENCH_batch.json BENCH_mem.json BENCH_serve.json BENCH_faults.json BENCH_engine.json LINT_report.json
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

echo
echo "ci.sh: all checks passed"
