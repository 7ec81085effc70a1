//! Memory design-space exploration: sweep SPM bank counts × Weight-SPM
//! sizes × prefetch depth × sector power gating over the paper's 16×16
//! MNIST config. Each design point runs one batch-16 engine batch
//! (functional backend, `SyntheticMnist::new(1)` digits, `CapsNetParams`
//! seed 1), and its stall, cycle and energy columns read that run. The
//! energy is priced from the run's own counters
//! (`capsacc_bench::run_energy`), so each weight byte counts once, as a
//! DRAM fetch into the Weight SPM.
//!
//! Two invariants are asserted on every run (this is the CI smoke
//! test for the memory subsystem):
//!
//! 1. **IdealMemory equivalence** — at the tiny test scale, the
//!    cycle-accurate engine under `MemoryConfig::ideal()` reports zero
//!    stalls (so all pre-hierarchy cycle counts are intact), and under
//!    the finite paper memory its `MemReport` equals the closed-form
//!    replay *exactly*, with the trace still bit-identical to ideal.
//! 2. **Prefetch recovery** — at the paper point of the sweep (8 banks,
//!    24 KiB Weight SPM, gating on), the double-buffered run recovers at
//!    least half of the naive (one-buffer) run's stall cycles.
//!
//! Emits `BENCH_mem.json` into the current directory so CI records the
//! memory-hierarchy perf trajectory (see `ci.sh`).

use capsacc_bench::{json_row, print_table, run_energy, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams, QuantizedParams};
use capsacc_core::{
    timing, Accelerator, AcceleratorConfig, BatchScheduler, EngineBackend, MemoryConfig, SpmConfig,
};
use capsacc_mnist::SyntheticMnist;
use capsacc_tensor::{u64_from, Tensor};

const BATCH: u64 = 16;

/// One swept design point.
struct Point {
    banks: u64,
    weight_spm_kib: usize,
    prefetch_buffers: usize,
    power_gating: bool,
}

/// One measured row.
struct Row {
    point: Point,
    stall_cycles: u64,
    stall_pct: f64,
    cycles_per_image: f64,
    energy_uj_per_image: f64,
}

fn config_for(point: &Point) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    let mut mem = MemoryConfig::paper();
    mem.data_spm.banks = point.banks;
    mem.weight_spm.banks = point.banks;
    mem.weight_spm.bytes = point.weight_spm_kib * 1024;
    mem.prefetch_buffers = point.prefetch_buffers;
    mem.power_gating = point.power_gating;
    cfg.memory = mem;
    cfg
}

/// Runs the batch of `images` at one design point and reads its row
/// off the run.
fn measure(
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    images: &[Tensor<f32>],
    point: Point,
) -> Row {
    let cfg = config_for(&point);
    let run = Accelerator::new(cfg)
        .run_batch(net, qparams, images)
        .expect("valid batch");
    Row {
        point,
        stall_cycles: run.memory.stall_cycles,
        stall_pct: run.memory.stall_cycles as f64 / run.total_cycles() as f64 * 100.0,
        cycles_per_image: run.cycles_per_image(),
        energy_uj_per_image: run_energy(&cfg, &run).per_inference_uj(BATCH),
    }
}

/// Invariant 1: ideal-memory equivalence and engine ≡ closed-form on the
/// tiny scale.
fn assert_ideal_equivalence() {
    let net = CapsNetConfig::tiny();
    let mut ideal_cfg = AcceleratorConfig::test_4x4();
    // Engine ≡ model exactness holds on serial-tile schedules: with
    // pipelining the engine runs each call's matmuls as one run of
    // tiles, where the closed form runs one per N-tile.
    ideal_cfg.dataflow.pipelined_tiles = false;
    let mut finite_cfg = ideal_cfg;
    finite_cfg.memory = MemoryConfig::paper();
    let qparams = CapsNetParams::generate(&net, 0).quantize(ideal_cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..4).map(|s| net.test_image(s)).collect();

    let mut ideal = BatchScheduler::new(ideal_cfg);
    let run_ideal = ideal.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(
        run_ideal.memory.stall_cycles, 0,
        "IdealMemory must not stall"
    );

    let mut finite = BatchScheduler::new(finite_cfg);
    let run_finite = finite.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(
        run_ideal.traces, run_finite.traces,
        "the memory model must never change functional results"
    );
    let model = timing::full_inference_batch_mem(&finite_cfg, &net, u64_from(images.len()));
    assert_eq!(
        run_finite.memory, model.report,
        "engine and closed-form memory replay diverged"
    );
}

/// Invariant 2: at the sweep's paper point, double buffering recovers
/// ≥ half of the naive (one-buffer) stalls at batch 16. Returns (naive,
/// prefetched) stall cycles for the report.
///
/// The paper point is `MemoryConfig::paper()` with 8 banks in both SPMs,
/// where the preset gives the Weight SPM 4: the sweep sets both counts.
/// That halves the Weight SPM's busy cycles, which lowers its gated
/// leakage, and moves no cycle.
fn assert_prefetch_recovery(rows: &[Row]) -> (u64, u64) {
    let stalls = |buffers: usize| {
        let row = rows.iter().find(|r| {
            let p = &r.point;
            (p.banks, p.weight_spm_kib, p.power_gating) == (8, 24, true)
                && p.prefetch_buffers == buffers
        });
        row.expect("paper point swept").stall_cycles
    };
    let (naive, prefetched) = (stalls(1), stalls(2));
    assert!(
        2 * prefetched <= naive,
        "double buffering must recover at least half of the naive stalls \
         ({prefetched} vs {naive})"
    );
    (naive, prefetched)
}

fn write_json(rows: &[Row], naive: u64, prefetched: u64) -> std::io::Result<()> {
    let mut j = BenchJson::new("exp_memdse");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.field("batch", 16);
    j.field("naive_stall_cycles", naive);
    j.field("prefetch_stall_cycles", prefetched);
    j.rows(
        "rows",
        rows.iter()
            .map(|r| {
                json_row(&[
                    ("banks", r.point.banks.to_string()),
                    ("weight_spm_kib", r.point.weight_spm_kib.to_string()),
                    ("prefetch_buffers", r.point.prefetch_buffers.to_string()),
                    ("power_gating", r.point.power_gating.to_string()),
                    ("stall_cycles", r.stall_cycles.to_string()),
                    ("stall_pct", format!("{:.2}", r.stall_pct)),
                    ("cycles_per_image", format!("{:.1}", r.cycles_per_image)),
                    (
                        "energy_uj_per_image",
                        format!("{:.3}", r.energy_uj_per_image),
                    ),
                ])
            })
            .collect(),
    );
    j.write("BENCH_mem.json")
}

fn main() {
    assert_ideal_equivalence();
    println!("IdealMemory equivalence: engine ≡ closed-form replay, zero ideal stalls ✓");

    let net = CapsNetConfig::mnist();
    let qparams = CapsNetParams::generate(&net, 1).quantize(AcceleratorConfig::paper().numeric);
    let digits = SyntheticMnist::new(1);
    let images: Vec<Tensor<f32>> = (0..BATCH).map(|i| digits.sample(i).image).collect();
    let mut rows = Vec::new();
    for &banks in &[2u64, 4, 8] {
        for &weight_spm_kib in &[8usize, 24, 64] {
            for &prefetch_buffers in &[1usize, 2, 4] {
                for &power_gating in &[false, true] {
                    rows.push(measure(
                        &net,
                        &qparams,
                        &images,
                        Point {
                            banks,
                            weight_spm_kib,
                            prefetch_buffers,
                            power_gating,
                        },
                    ));
                }
            }
        }
    }

    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.point.banks.to_string(),
                format!("{} KiB", r.point.weight_spm_kib),
                r.point.prefetch_buffers.to_string(),
                if r.point.power_gating { "on" } else { "off" }.to_string(),
                r.stall_cycles.to_string(),
                format!("{:.2}%", r.stall_pct),
                format!("{:.0}", r.cycles_per_image),
                format!("{:.1}", r.energy_uj_per_image),
            ]
        })
        .collect();
    let (naive, prefetched) = assert_prefetch_recovery(&rows);
    println!(
        "Prefetch recovery at batch 16: naive {naive} → double-buffered {prefetched} \
         stall cycles ({:.0}% recovered) ✓",
        (1.0 - prefetched as f64 / naive as f64) * 100.0
    );
    print_table(
        "Memory design space — MNIST, batch 16, 16×16 paper config (engine)",
        &[
            "Banks",
            "Wt SPM",
            "Prefetch",
            "Gating",
            "Stalls",
            "Stall%",
            "Cycles/img",
            "µJ/img",
        ],
        &table,
    );

    // Strided-access bank conflicts: cycles for one 256-word burst into
    // the weight SPM as the address stride sweeps power-of-two and odd
    // values — why interleaved layouts want conflict-free strides.
    let conflict_rows: Vec<Vec<String>> = [2u64, 4, 8]
        .iter()
        .map(|&banks| {
            let spm = SpmConfig {
                banks,
                ..MemoryConfig::paper().weight_spm
            };
            let mut row = vec![format!("{banks}")];
            for stride in [1u64, 2, 4, 8, 3] {
                row.push(format!(
                    "{} (+{})",
                    spm.strided_word_cycles(256, stride),
                    spm.conflict_stall_cycles(256, stride)
                ));
            }
            row
        })
        .collect();
    print_table(
        "Bank conflicts — 256-word burst into the weight SPM, cycles (+conflict stall)",
        &[
            "Banks", "Stride 1", "Stride 2", "Stride 4", "Stride 8", "Stride 3",
        ],
        &conflict_rows,
    );

    let best = rows
        .iter()
        .min_by(|a, b| {
            a.energy_uj_per_image
                .partial_cmp(&b.energy_uj_per_image)
                .expect("finite energies")
        })
        .expect("non-empty sweep");
    println!(
        "\nBest energy point: {} banks, {} KiB weight SPM, {} prefetch buffers, gating {} \
         → {:.1} µJ/img at {:.0} cycles/img",
        best.point.banks,
        best.point.weight_spm_kib,
        best.point.prefetch_buffers,
        if best.point.power_gating { "on" } else { "off" },
        best.energy_uj_per_image,
        best.cycles_per_image,
    );

    match write_json(&rows, naive, prefetched) {
        Ok(()) => println!("\nWrote BENCH_mem.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_mem.json: {e}"),
    }
}
