//! Wall-clock speed of the *simulator itself*: the ticked RTL backend
//! vs the bit-identical functional backend (scalar and parallel/SIMD)
//! on the paper's 16×16 design point at MNIST scale — the committed
//! wall-clock (host-time) perf trajectory, alongside the
//! simulated-cycle numbers every other experiment records.
//!
//! In-binary asserts (run by `ci.sh`):
//!
//! - ticked, functional-scalar and functional-SIMD produce
//!   **identical** batch-of-one `BatchRun`s (trace, layer cycles, routing
//!   steps, traffic, memory report) at MNIST scale — the paper-scale extension
//!   of the pinned tiny-scale golden digests;
//! - explicit thread counts 1, 2 and 4 produce byte-identical
//!   `BatchRun`s at MNIST scale (the parallel-equivalence anchor at
//!   full size; random shapes are covered by
//!   `tests/backend_equivalence.rs`);
//! - the functional backend is at least 10× faster than ticked in
//!   wall-clock time, asserted on the **median** (the ISSUE's
//!   acceptance bound; the target is ≥50×);
//! - the SIMD batched path beats the PR 5 functional baseline
//!   (98.20 committed ms/image at batch 16) by ≥5×, again on the
//!   median.
//!
//! The printed table shows, per row, the minimum and the median host
//! time over `reps`. The minimum is the classic "least-noise" estimator
//! but is biased optimistic and unstable under CI neighbor load; the
//! asserts therefore use the median, which a single lucky rep cannot
//! move. Before the asserts, a line names the SIMD body
//! (`capsacc_core::simd_body`) the functional-SIMD rows ran.
//!
//! Emits `BENCH_engine.json` into the current directory with the
//! deterministic fields only — configuration, network, rep count and
//! each row's backend, batch and simulated cycles and milliseconds per
//! image — so `ci.sh` diffs it like the other `BENCH_*` files. Host
//! times vary run to run: they are checked by the bounds above and
//! printed, and perfbench (`perfbench/`) is the committed host-time
//! benchmark.

use std::time::Instant;

use capsacc_bench::{json_row, print_table, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams, QuantizedParams};
use capsacc_core::{
    simd_body, Accelerator, AcceleratorConfig, BatchRun, BatchScheduler, EngineBackend,
    FunctionalOptions, SimdMode,
};
use capsacc_tensor::Tensor;

/// Timed reps per variant. Odd, so the median is an actual sample.
const REPS: usize = 3;

/// PR 5's committed functional host time at batch 16 (ms/image), the
/// baseline the ISSUE's ≥5× bound is measured against. PR 5 recorded a
/// min-of-reps estimator; comparing our *median* against its *min* only
/// makes the bound harder to clear.
const PR5_FUNCTIONAL_B16_MS_PER_IMAGE: f64 = 98.20;

/// One measured backend row.
struct Row {
    backend: &'static str,
    batch: u64,
    host_ms_min: f64,
    host_ms_median: f64,
    sim_cycles_per_image: f64,
    sim_ms_per_image: f64,
}

/// Runs one single-image inference (a batch of one), returning the run
/// and its host time in seconds.
fn run_once(
    cfg: AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    image: &Tensor<f32>,
) -> (BatchRun, f64) {
    let mut acc = Accelerator::new(cfg);
    let start = Instant::now();
    let run = acc
        .run_batch(net, qparams, std::slice::from_ref(image))
        .expect("valid image");
    let elapsed = start.elapsed().as_secs_f64();
    (run, elapsed)
}

/// Runs one batched inference on a fresh scheduler, returning the run
/// and its host time in seconds.
fn run_batch_once(
    cfg: AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    images: &[Tensor<f32>],
) -> (BatchRun, f64) {
    let mut sched = BatchScheduler::new(cfg);
    let start = Instant::now();
    let run = sched.run(net, qparams, images).expect("valid batch");
    let elapsed = start.elapsed().as_secs_f64();
    (run, elapsed)
}

/// Minimum and median of a sample set (median of the sorted samples;
/// `REPS` is odd so this is an actual observation, not an average).
fn min_median(samples: &mut [f64]) -> (f64, f64) {
    samples.sort_by(f64::total_cmp);
    (samples[0], samples[samples.len() / 2])
}

fn write_json(rows: &[Row]) -> std::io::Result<()> {
    let mut j = BenchJson::new("exp_engine_speed");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.field("reps", REPS);
    j.rows(
        "rows",
        rows.iter()
            .map(|r| {
                json_row(&[
                    ("backend", format!("\"{}\"", r.backend)),
                    ("batch", r.batch.to_string()),
                    (
                        "sim_cycles_per_image",
                        format!("{:.1}", r.sim_cycles_per_image),
                    ),
                    ("sim_ms_per_image", format!("{:.3}", r.sim_ms_per_image)),
                ])
            })
            .collect(),
    );
    j.write("BENCH_engine.json")
}

fn main() {
    let net = CapsNetConfig::mnist();
    let ticked_cfg = AcceleratorConfig::paper();
    let mut simd_cfg = ticked_cfg;
    simd_cfg.backend = EngineBackend::Functional;
    let mut scalar_cfg = simd_cfg;
    scalar_cfg.functional = FunctionalOptions {
        threads: 1,
        simd: SimdMode::Scalar,
    };
    let qparams = CapsNetParams::generate(&net, 0).quantize(ticked_cfg.numeric);
    let image = net.test_image(0);
    let batch = 16usize;
    let images = vec![image.clone(); batch];

    // All variants use the same estimator — min and median over the
    // same rep count — and the reps are *interleaved* (ticked, scalar,
    // SIMD, …) so a degraded machine window (CPU throttling, CI
    // neighbor load) is sampled by every variant instead of skewing
    // whichever one happened to run during it. One untimed SIMD
    // warm-up absorbs first-touch page faults.
    let _ = run_once(simd_cfg, &net, &qparams, &image);
    // Rep-major: one row of per-variant times per interleaved pass.
    let mut samples = [[0.0f64; 5]; REPS];
    let (mut ticked_run, mut scalar_run, mut simd_run) = (None, None, None);
    let (mut scalar_brun, mut simd_brun) = (None, None);
    for rep in samples.iter_mut() {
        let (run, s) = run_once(ticked_cfg, &net, &qparams, &image);
        rep[0] = s;
        ticked_run = Some(run);
        let (run, s) = run_once(scalar_cfg, &net, &qparams, &image);
        rep[1] = s;
        scalar_run = Some(run);
        let (run, s) = run_once(simd_cfg, &net, &qparams, &image);
        rep[2] = s;
        simd_run = Some(run);
        let (run, s) = run_batch_once(scalar_cfg, &net, &qparams, &images);
        rep[3] = s;
        scalar_brun = Some(run);
        let (run, s) = run_batch_once(simd_cfg, &net, &qparams, &images);
        rep[4] = s;
        simd_brun = Some(run);
    }
    let ticked_run = ticked_run.expect("at least one rep");
    let (scalar_run, simd_run) = (scalar_run.expect("reps"), simd_run.expect("reps"));
    let (scalar_brun, simd_brun) = (scalar_brun.expect("reps"), simd_brun.expect("reps"));

    // Bit-identity at paper scale: the entire BatchRun, not just
    // the functional trace — for both functional variants.
    assert_eq!(
        scalar_run, ticked_run,
        "functional-scalar backend diverged from the ticked RTL reference at MNIST scale"
    );
    assert_eq!(
        simd_run, ticked_run,
        "functional-SIMD backend diverged from the ticked RTL reference at MNIST scale"
    );
    assert_eq!(
        scalar_brun, simd_brun,
        "scalar and SIMD batched runs diverged at MNIST scale"
    );

    // Parallel equivalence at full MNIST scale: explicit thread counts
    // must produce byte-identical BatchRuns (outputs, cycles, traffic,
    // memory report). Random shapes + thread counts are proptested in
    // tests/backend_equivalence.rs; this is the paper-scale anchor.
    for threads in [1usize, 2, 4] {
        let mut cfg = simd_cfg;
        cfg.functional.threads = threads;
        let (run, _) = run_batch_once(cfg, &net, &qparams, &images);
        assert_eq!(
            run, simd_brun,
            "threads={threads} batched run diverged from the auto-threaded run at MNIST scale"
        );
    }

    let stats: Vec<(f64, f64)> = (0..5)
        .map(|v| min_median(&mut samples.map(|rep| rep[v])))
        .collect();
    let speedup_ticked = stats[0].1 / stats[2].1;
    assert!(
        speedup_ticked >= 10.0,
        "functional backend below the 10x wall-clock bound on the median: {speedup_ticked:.1}x \
         ({:.3}s ticked vs {:.3}s functional)",
        stats[0].1,
        stats[2].1,
    );
    let simd_b16_ms = stats[4].1 * 1e3 / batch as f64;
    let speedup_pr5 = PR5_FUNCTIONAL_B16_MS_PER_IMAGE / simd_b16_ms;
    // Name the body the kernel dispatch runs on this host before the
    // bounds are checked, so a log's host times say which SIMD code
    // produced them, also when a bound fails.
    println!(
        "functional-simd rows ran the {} SIMD body.",
        simd_body().label()
    );
    assert!(
        speedup_pr5 >= 5.0,
        "parallel+SIMD batched path below the 5x bound over the PR 5 functional baseline \
         on the median: {speedup_pr5:.2}x ({simd_b16_ms:.2} ms/img vs \
         {PR5_FUNCTIONAL_B16_MS_PER_IMAGE} ms/img baseline)"
    );

    let total_cycles: u64 = ticked_run.layers.iter().map(|l| l.cycles()).sum();
    let b1_cycles = total_cycles as f64;
    let b1_ms = ticked_cfg.cycles_to_us(total_cycles) / 1e3;
    let b16_cycles = simd_brun.cycles_per_image();
    let b16_ms = ticked_cfg.cycles_to_us(simd_brun.total_cycles()) / 1e3 / batch as f64;
    let row = |backend, batch_n: u64, (min, med): (f64, f64), cyc, sim_ms| Row {
        backend,
        batch: batch_n,
        host_ms_min: min * 1e3 / batch_n as f64,
        host_ms_median: med * 1e3 / batch_n as f64,
        sim_cycles_per_image: cyc,
        sim_ms_per_image: sim_ms,
    };
    let rows = vec![
        row("ticked", 1, stats[0], b1_cycles, b1_ms),
        row("functional-scalar", 1, stats[1], b1_cycles, b1_ms),
        row("functional-simd", 1, stats[2], b1_cycles, b1_ms),
        row("functional-scalar", 16, stats[3], b16_cycles, b16_ms),
        row("functional-simd", 16, stats[4], b16_cycles, b16_ms),
    ];

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.backend.to_string(),
                r.batch.to_string(),
                format!("{:.2}", r.host_ms_min),
                format!("{:.2}", r.host_ms_median),
                format!("{:.0}", r.sim_cycles_per_image),
                format!("{:.3}", r.sim_ms_per_image),
            ]
        })
        .collect();
    print_table(
        "Engine wall-clock speed — MNIST inference on the 16×16 paper config",
        &[
            "Backend",
            "Batch",
            "Host ms/img (min)",
            "Host ms/img (median)",
            "Sim cycles/img",
            "Sim ms/img",
        ],
        &table,
    );
    println!(
        "\nAll backends are bit-identical (entire batch-1 BatchRun asserted equal,\n\
         plus BatchRun equality across threads 1/2/4); the functional backend\n\
         computes each tile's saturating fold directly and charges the exact\n\
         ticked cycle counts. Median speedups: {speedup_ticked:.1}x over ticked\n\
         (bound 10x), {speedup_pr5:.2}x over the PR 5 functional baseline of\n\
         {PR5_FUNCTIONAL_B16_MS_PER_IMAGE} ms/img at batch 16 (bound 5x)."
    );

    match write_json(&rows) {
        Ok(()) => println!("\nWrote BENCH_engine.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_engine.json: {e}"),
    }
}
