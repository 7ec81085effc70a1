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
# The same suite with debug assertions and overflow checks off, as the
# release builds that perfbench and the exp_* binaries run: a check that
# exists only as a debug_assert! guards nothing there.
run cargo test --workspace --release -q
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
smoke() {
    local workload=$1 trace=$2 verdict
    echo
    echo "==> perfbench --workload $workload --seconds 1 --trace $trace"
    verdict=$(cargo run --release -q --offline --manifest-path perfbench/Cargo.toml -- \
        --workload "$workload" --seconds 1 --trace "$trace" | tail -n 1)
    if ! grep -Eq '^\{"correct": true, "attempted": [0-9]+, "failed": 0,' <<<"$verdict"; then
        echo "perfbench $workload --trace $trace failed its output checks: ${verdict:0:200}" >&2
        exit 1
    fi
}
for workload in mnist-b16 mnist-b1 pool-b4 serve-faults; do
    smoke "$workload" 0
done
# Traced runs take the per-layer ledger path (the simulated ledger, the
# timing gaps against a dry run and the host ledger), which reads `LayerRun`,
# the routing steps and the engine's span tree. mnist-b16 runs the
# batched layers and the staged routing under the recorder.
for workload in mnist-b16 mnist-b1 pool-b4; do
    smoke "$workload" 1
done
# The paper's tables and figures end to end: the GPU and power models,
# and ten batch-1 engine runs of one MNIST digit on the functional
# backend (under a second in all). Asserts Fig. 17's step alignment (GPU
# model and engine, under both memories), that the engine without
# tile pipelining is slower than the paper point under both memories,
# skip-first-softmax bit-equivalence and that the routing feedback path
# never adds Data Memory reads; its energy tables price the same runs.
# Refreshes BENCH_paper.json, diffed below. The other six binaries run
# below, each with its own note.
run cargo run --release -q -p capsacc-bench --bin exp_paper
# Batched-serving sweep: one engine run_batch per batch size 1..64 at
# MNIST scale (functional backend, ideal memory; about 0.6 s in release
# on a 2-vCPU x86-64 VM), each row read off its run. Asserts run_batch
# bit-exactness against sequential runs at the tiny scale, and
# refreshes BENCH_batch.json, diffed below.
run cargo run --release -q -p capsacc-bench --bin exp_batch
# Memory design-space sweep: one executed batch of 16 MNIST digits
# (functional backend, paper memory), then a dry run of the batch per
# design point, 54 points (about 0.2 s in release on a 2-vCPU x86-64
# VM). Asserts that the executed batch equals its dry run and that the
# dry run stalls nothing under ideal memory, that the sweep's paper-point
# row is MemoryConfig::paper() (perfbench mnist-b16's cycles and energy
# per image), and that double buffering recovers at least half of the
# one-buffer stalls there. Refreshes BENCH_mem.json, diffed below.
run cargo run --release -q -p capsacc-bench --bin exp_memdse
# Serving smoke run, on the engine's service table (one dry run per
# batch size at MNIST scale): asserts monotonicity + batch amortization
# of the table, the ≥3x worker-scaling bound (4 workers vs 1 at fixed
# max_batch), the offline anchor (online runtime ≡ offline pipeline
# with overload features disabled), the overload invariants (flash
# crowd sheds on the bounded queue, and the post-spike served fraction
# recovers to ≥95% of the pre-spike level), byte-identical determinism
# of every sweep, the table included (event digests included), and
# shard-pool trace bit-exactness at the tiny scale, where every served
# batch costs its table entry; refreshes BENCH_serve.json — the table
# (engine_service_cycles), the saturating + overload sweeps and the
# million-request diurnal scale point — so the serving-perf trajectory
# is recorded.
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
# MNIST inference at the paper 16x16 design point (the ticked RTL
# executing the pipelined tile schedule), that explicit
# thread counts 1/2/4 produce byte-identical batch-16 BatchRuns, that
# the functional backend clears the 10x wall-clock bound over ticked
# and the parallel+SIMD batch path clears 5x over the PR 5 functional
# baseline (98.20 ms/image) — both asserted on median host times. It
# prints which SIMD body (AVX-512 VNNI, AVX2 or scalar) produced the
# functional-SIMD times, read from capsacc_core::simd_body, the
# function the kernel dispatch itself calls, and refreshes
# BENCH_engine.json, which keeps only the deterministic fields
# (configuration, reps, simulated cycles and ms per row) and is
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
run git diff --exit-code -- BENCH_batch.json BENCH_mem.json BENCH_serve.json BENCH_faults.json BENCH_engine.json \
    BENCH_paper.json LINT_report.json
# Rustdoc with warnings denied: a broken or private intra-doc link (say,
# to an item a change deleted) fails here, where doc-drift, which reads
# only README and ARCHITECTURE, cannot see it.
RUSTDOCFLAGS="-D warnings" run cargo doc --workspace --no-deps

echo
echo "ci.sh: all checks passed"
