//! Memory design-space exploration: sweep Data-SPM bank counts ×
//! Weight-SPM sizes × prefetch depth × sector power gating around
//! `MemoryConfig::paper()` (the Weight SPM keeps its 4 banks) over the
//! paper's 16×16 MNIST config at batch 16. The batch of `SyntheticMnist::new(1)`
//! digits (`CapsNetParams` seed 1) runs once, on the functional backend
//! under `MemoryConfig::paper()`, for its outputs and MAC count. Each
//! design point is then a dry run of the batch
//! ([`Accelerator::price_batch`]), which reads no operand: its stall and
//! cycle columns read the dry run, and its energy prices the dry run's
//! counters with the executed batch's MACs
//! ([`EnergyModel::inference_energy_mem`]), so each weight byte counts
//! once, as a DRAM fetch into the Weight SPM.
//!
//! Two invariants are asserted on every run (this is the CI smoke
//! test for the memory subsystem):
//!
//! 1. **The dry run is the engine** — the executed batch reports
//!    exactly the layers, steps, traffic and memory counters of its dry
//!    run, and under `MemoryConfig::ideal()` the dry run stalls no
//!    cycle.
//! 2. **Prefetch recovery** — at the paper point of the sweep (8 Data-SPM
//!    banks, 24 KiB Weight SPM, gating on), the double-buffered run
//!    recovers at least half of the naive (one-buffer) run's stall
//!    cycles.
//!
//! The sweep's paper point with two prefetch buffers is
//! `MemoryConfig::paper()` itself: the binary asserts that its row reads
//! the executed batch's cycles and energy per image, perfbench
//! `mnist-b16`'s `sim_*` figures.
//!
//! Emits `BENCH_mem.json` into the current directory so CI records the
//! memory-hierarchy perf trajectory (see `ci.sh`).

use capsacc_bench::{json_row, print_table, run_energy, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{
    Accelerator, AcceleratorConfig, BatchRun, EngineBackend, MemoryConfig, SpmConfig,
};
use capsacc_mnist::SyntheticMnist;
use capsacc_power::EnergyModel;
use capsacc_tensor::{u64_from, Tensor};

const BATCH: usize = 16;

/// One swept design point.
struct Point {
    data_banks: u64,
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
    let mut mem = MemoryConfig::paper();
    mem.data_spm.banks = point.data_banks;
    mem.weight_spm.bytes = point.weight_spm_kib * 1024;
    mem.prefetch_buffers = point.prefetch_buffers;
    mem.power_gating = point.power_gating;
    cfg.memory = mem;
    cfg
}

/// Prices the batch at one design point with a dry run and reads its
/// row off it. A dry run has no traces, so `macs` is the executed
/// batch's: the MAC count depends on the network alone.
fn measure(net: &CapsNetConfig, macs: u64, point: Point) -> Row {
    let cfg = config_for(&point);
    let run = Accelerator::new(cfg)
        .price_batch(net, BATCH)
        .expect("non-empty batch");
    let energy = EnergyModel::cmos_32nm().inference_energy_mem(
        &cfg,
        macs,
        &run.traffic,
        &run.memory,
        run.total_cycles(),
    );
    Row {
        point,
        stall_cycles: run.memory.stall_cycles,
        stall_pct: run.memory.stall_cycles as f64 / run.total_cycles() as f64 * 100.0,
        cycles_per_image: run.cycles_per_image(),
        energy_uj_per_image: energy.per_inference_uj(u64_from(BATCH)),
    }
}

/// Invariant 1: the executed batch `run`, under `cfg`, is its dry run,
/// and the dry run under ideal memory never stalls.
fn assert_dry_run_is_the_engine(cfg: AcceleratorConfig, net: &CapsNetConfig, run: &BatchRun) {
    let dry = Accelerator::new(cfg)
        .price_batch(net, run.batch)
        .expect("non-empty batch");
    assert_eq!(
        (&dry.layers, &dry.steps, &dry.traffic, &dry.memory),
        (&run.layers, &run.steps, &run.traffic, &run.memory),
        "the dry run diverged from the executed batch"
    );
    let ideal = AcceleratorConfig {
        memory: MemoryConfig::ideal(),
        ..cfg
    };
    let ideal = Accelerator::new(ideal)
        .price_batch(net, run.batch)
        .expect("non-empty batch");
    assert_eq!(ideal.memory.stall_cycles, 0, "IdealMemory must not stall");
}

/// The sweep's row at the paper point (8 Data-SPM banks, 24 KiB Weight
/// SPM, gating on) with `buffers` prefetch buffers.
fn paper_point(rows: &[Row], buffers: usize) -> &Row {
    let row = rows.iter().find(|r| {
        let p = &r.point;
        (p.data_banks, p.weight_spm_kib, p.power_gating) == (8, 24, true)
            && p.prefetch_buffers == buffers
    });
    row.expect("paper point swept")
}

/// Invariant 2: at the sweep's paper point, double buffering recovers
/// ≥ half of the naive (one-buffer) stalls at batch 16. Returns (naive,
/// prefetched) stall cycles for the report.
fn assert_prefetch_recovery(rows: &[Row]) -> (u64, u64) {
    let (naive, prefetched) = (
        paper_point(rows, 1).stall_cycles,
        paper_point(rows, 2).stall_cycles,
    );
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
                    ("data_spm_banks", r.point.data_banks.to_string()),
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
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig {
        backend: EngineBackend::Functional,
        memory: MemoryConfig::paper(),
        ..AcceleratorConfig::paper()
    };
    let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let digits = SyntheticMnist::new(1);
    let images: Vec<Tensor<f32>> = (0..u64_from(BATCH))
        .map(|i| digits.sample(i).image)
        .collect();
    let run = Accelerator::new(cfg)
        .run_batch(&net, &qparams, &images)
        .expect("valid batch");
    let macs = run.traces.iter().map(|t| t.output.stats.macs).sum();
    assert_dry_run_is_the_engine(cfg, &net, &run);
    println!("Dry run ≡ executed engine under paper memory, zero ideal stalls ✓");

    let mut rows = Vec::new();
    for &data_banks in &[2u64, 4, 8] {
        for &weight_spm_kib in &[8usize, 24, 64] {
            for &prefetch_buffers in &[1usize, 2, 4] {
                for &power_gating in &[false, true] {
                    rows.push(measure(
                        &net,
                        macs,
                        Point {
                            data_banks,
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
                r.point.data_banks.to_string(),
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
    let paper = paper_point(&rows, 2);
    let executed = (
        run.cycles_per_image(),
        run_energy(&cfg, &run).per_inference_uj(u64_from(BATCH)),
    );
    assert_eq!(
        (paper.cycles_per_image, paper.energy_uj_per_image),
        executed,
        "the sweep's paper point is not MemoryConfig::paper()"
    );
    println!(
        "Paper point ≡ MemoryConfig::paper(): {:.3} cycles, {:.3} µJ per image ✓",
        executed.0, executed.1
    );
    println!(
        "Prefetch recovery at batch 16: naive {naive} → double-buffered {prefetched} \
         stall cycles ({:.0}% recovered) ✓",
        (1.0 - prefetched as f64 / naive as f64) * 100.0
    );
    print_table(
        "Memory design space — MNIST, batch 16, 16×16 paper config (engine)",
        &[
            "Data banks",
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
        "\nBest energy point: {} Data-SPM banks, {} KiB weight SPM, {} prefetch buffers, \
         gating {} → {:.1} µJ/img at {:.0} cycles/img",
        best.point.data_banks,
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
