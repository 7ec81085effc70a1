//! Integration tests pinning the reproduced paper numbers: Table I,
//! Table II, Table III, Fig. 5, Fig. 18 exactly or within model
//! tolerance, and the qualitative shapes of Figs. 8, 9, 16, 17 — the
//! last two on a dry run and on the executed engine.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{Accelerator, AcceleratorConfig, BatchRun, EngineBackend};
use capsacc::gpu::GpuModel;
use capsacc::mnist::SyntheticMnist;
use capsacc::power::PowerModel;

#[test]
fn table1_exact() {
    let rows = CapsNetConfig::mnist().table1();
    let expect = [
        ("Conv1", 784, 20_992, 102_400),
        ("PrimaryCaps", 102_400, 5_308_672, 9216), // outputs: documented erratum
        ("ClassCaps", 9216, 1_474_560, 160),
        ("Coupling Coeff", 160, 11_520, 160),
    ];
    for (row, (name, inputs, params, outputs)) in rows.iter().zip(expect) {
        assert_eq!(row.name, name);
        assert_eq!(row.inputs, inputs, "{name} inputs");
        assert_eq!(row.parameters, params, "{name} parameters");
        assert_eq!(row.outputs, outputs, "{name} outputs");
    }
}

#[test]
fn fig5_distribution() {
    let cfg = CapsNetConfig::mnist();
    let total = (cfg.total_parameters() + cfg.coupling_coefficient_count()) as f64;
    assert!(cfg.conv1_parameters() as f64 / total < 0.01);
    assert!((cfg.primary_caps_parameters() as f64 / total - 0.78).abs() < 0.01);
    assert!((cfg.class_caps_parameters() as f64 / total - 0.22).abs() < 0.01);
    assert!(cfg.coupling_coefficient_count() as f64 / total < 0.01);
}

#[test]
fn table2_summary() {
    let t2 = PowerModel::cmos_32nm().table2(&AcceleratorConfig::paper());
    assert_eq!(t2.tech_node_nm, 32);
    assert!((t2.area_mm2 - 2.90).abs() < 0.02);
    assert!((t2.power_mw - 202.0).abs() < 2.0);
    assert_eq!(t2.clock_mhz, 250);
    assert_eq!(t2.bit_width, 8);
    assert_eq!(t2.onchip_memory_mb, 8.0);
}

#[test]
fn table3_components_within_half_percent() {
    let report = PowerModel::cmos_32nm().estimate(&AcceleratorConfig::paper());
    for (name, area, power) in [
        ("Accumulator", 311_961.0, 22.80),
        ("Activation", 143_045.0, 5.94),
        ("Data Buffer", 1_332_349.0, 95.96),
        ("Routing Buffer", 316_226.0, 22.78),
        ("Weight Buffer", 115_643.0, 8.34),
        ("Systolic Array", 680_525.0, 46.09),
        ("Other", 4_330.0, 0.13),
    ] {
        let c = report.component(name).expect(name);
        assert!((c.area_um2 - area).abs() / area < 0.005, "{name} area");
        assert!((c.power_mw - power).abs() / power < 0.005, "{name} power");
    }
}

#[test]
fn fig8_gpu_shape() {
    let t = GpuModel::gtx1070().layer_times_us(&CapsNetConfig::mnist());
    // ClassCaps dominates by roughly an order of magnitude.
    assert!(t.class_caps > 5.0 * t.conv1);
    assert!(t.class_caps > 5.0 * t.primary_caps);
    assert!(t.total() / 1000.0 > 10.0 && t.total() / 1000.0 < 20.0);
}

#[test]
fn fig9_squash_dominates_gpu_routing() {
    let steps = GpuModel::gtx1070().routing_steps_us(&CapsNetConfig::mnist());
    let squash: f64 = steps
        .iter()
        .filter(|s| s.label.starts_with("Squash"))
        .map(|s| s.time_us)
        .sum();
    let total: f64 = steps.iter().map(|s| s.time_us).sum();
    assert!(squash / total > 0.5);
}

/// `exp_paper`'s engine run: one MNIST digit
/// (`SyntheticMnist::new(1).sample(0)`, parameter seed 1) at batch 1 on
/// the paper's design point, functional backend, ideal memory.
fn engine_run() -> BatchRun {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig {
        backend: EngineBackend::Functional,
        ..AcceleratorConfig::paper()
    };
    let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let image = SyntheticMnist::new(1).sample(0).image;
    Accelerator::new(cfg)
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image")
}

/// Fig. 16's bands on the cycles of one MNIST inference: Conv1,
/// PrimaryCaps, ClassCaps and the total.
fn assert_fig16_bands(cycles: [u64; 4]) {
    let cfg = AcceleratorConfig::paper();
    let gpu = GpuModel::gtx1070().layer_times_us(&CapsNetConfig::mnist());
    let [conv1, pc, cc, total] = cycles.map(|c| cfg.cycles_to_us(c));

    // Conv1: CapsAcc wins big (paper: 6×).
    let conv1_ratio = gpu.conv1 / conv1;
    assert!(
        (3.0..12.0).contains(&conv1_ratio),
        "Conv1 ratio {conv1_ratio}"
    );

    // PrimaryCaps: the GPU wins (paper: CapsAcc 46% slower).
    assert!(pc > gpu.primary_caps, "PrimaryCaps should favour the GPU");
    assert!(pc < 2.5 * gpu.primary_caps, "but not by more than ~2×");

    // ClassCaps: CapsAcc wins by an order of magnitude (paper: 12×).
    let cc_ratio = gpu.class_caps / cc;
    assert!(
        (6.0..20.0).contains(&cc_ratio),
        "ClassCaps ratio {cc_ratio}"
    );

    // Overall: CapsAcc clearly faster (paper: 6×; our PrimaryCaps, 65%
    // slower than the GPU, keeps us nearer 3×).
    let total_ratio = gpu.total() / total;
    assert!(
        (2.0..10.0).contains(&total_ratio),
        "total ratio {total_ratio}"
    );
}

/// Fig. 17's bands on the cycles `cycles(label)` of the routing steps.
///
/// Softmax2's band (2–12× the GPU's speed; paper: 3×) is a reproduction
/// finding and unchecked: the engine charges a softmax its 1,440
/// activation cycles but no Routing Buffer ceiling, which reads 20.9×
/// (README's "What reproduction means here").
fn assert_fig17_bands(cycles: impl Fn(&str) -> u64) {
    let cfg = AcceleratorConfig::paper();
    let gpu_steps = GpuModel::gtx1070().routing_steps_us(&CapsNetConfig::mnist());
    let find = |label: &str| -> (f64, f64) {
        let g = gpu_steps
            .iter()
            .find(|s| s.label == label)
            .expect("gpu step")
            .time_us;
        (cfg.cycles_to_us(cycles(label)), g)
    };

    // Load: close to parity (paper: 9% faster).
    let (a, g) = find("Load");
    assert!((0.7..1.3).contains(&(g / a)), "Load ratio {}", g / a);
    // FC: slightly slower on CapsAcc (paper: 14% slower).
    let (a, g) = find("FC");
    assert!(a > g && a < 1.6 * g, "FC acc {a} gpu {g}");
    // Sum2: CapsAcc a few times faster (paper: 3×).
    let (a, g) = find("Sum2");
    assert!((1.5..6.0).contains(&(g / a)), "Sum2 ratio {}", g / a);
    // Squash: enormous speedup (paper: 172×; ours is larger — the squash
    // unit is fully parallel per column).
    let (a, g) = find("Squash1");
    assert!(g / a > 100.0, "Squash ratio {}", g / a);
    // Update: ~6× (paper: 6×).
    let (a, g) = find("Update1");
    assert!((3.0..12.0).contains(&(g / a)), "Update ratio {}", g / a);
}

/// One MNIST inference priced by a dry run at the paper's design point
/// (ideal memory).
fn dry_run() -> BatchRun {
    Accelerator::new(AcceleratorConfig::paper())
        .price_batch(&CapsNetConfig::mnist(), 1)
        .expect("one image")
}

/// Fig. 16's four cycle counts of `run`: Conv1, PrimaryCaps, ClassCaps
/// and the total.
fn fig16_cycles(run: &BatchRun) -> [u64; 4] {
    let [conv1, pc, cc] = [0, 1, 2].map(|i| run.layers[i].cycles());
    [conv1, pc, cc, run.total_cycles()]
}

/// The cycles of `run`'s routing step `label`.
fn step_cycles(run: &BatchRun, label: &str) -> u64 {
    let step = run.steps.iter().find(|(s, _)| s.to_string() == label);
    step.expect("routing step").1
}

#[test]
fn fig16_layer_comparison_shapes() {
    assert_fig16_bands(fig16_cycles(&dry_run()));
}

#[test]
fn fig17_step_comparison_shapes() {
    let run = dry_run();
    assert_fig17_bands(|label| step_cycles(&run, label));
}

/// Figs. 16 and 17 on the executed engine, which runs the paper's
/// pipelined tile schedule.
#[test]
fn figs16_17_hold_on_the_executed_engine() {
    let run = engine_run();
    assert_fig16_bands(fig16_cycles(&run));
    assert_fig17_bands(|label| step_cycles(&run, label));
}

#[test]
fn fig18_breakdown_shape() {
    let report = PowerModel::cmos_32nm().estimate(&AcceleratorConfig::paper());
    let area: std::collections::HashMap<_, _> = report.area_breakdown().into_iter().collect();
    assert!((area["Data Buffer"] - 0.46).abs() < 0.02);
    assert!((area["Systolic Array"] - 0.23).abs() < 0.02);
}
