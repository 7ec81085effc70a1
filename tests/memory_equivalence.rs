//! Differential tests for the memory hierarchy: under `IdealMemory` the
//! engine must reproduce the pre-memory engine bit-for-bit (traces *and*
//! cycle counts — pinned to the same golden digests as
//! `tests/bit_exactness.rs`), and under a finite memory configuration
//! each matmul's stalls must be exactly the memory subsystem's price of
//! its run (`MemorySubsystem::price_run`), and a scheduled batch's
//! memory counters exactly its dry run's (`Accelerator::price_batch`,
//! which replays the batch's memory traffic without operands), while
//! never changing functional results. Whole runs against their dry
//! runs on every dataflow are `tests/timing_consistency.rs`'s.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    timing, Accelerator, AcceleratorConfig, ActivationKind, BatchScheduler, MatmulGeometry,
    MemoryConfig, MemorySubsystem, TileSchedule,
};
use capsacc::tensor::Tensor;
use proptest::prelude::*;

fn finite_cfg(base: AcceleratorConfig) -> AcceleratorConfig {
    let mut cfg = base;
    cfg.memory = MemoryConfig::paper();
    cfg
}

// The canonical pinned digests, shared with `tests/bit_exactness.rs`
// through `tests/common/mod.rs`: pinning them here too proves the
// memory subsystem cannot drift the numerics — the digests must hold
// under IdealMemory *and* under finite memory.

mod common;
use common::{trace_digests, GOLDEN_DIGESTS};

#[test]
fn golden_digests_hold_under_ideal_and_finite_memory() {
    let net = CapsNetConfig::tiny();
    let qparams = CapsNetParams::generate(&net, 0).quantize(AcceleratorConfig::test_4x4().numeric);
    let image = net.test_image(0);
    for cfg in [
        AcceleratorConfig::test_4x4(),
        finite_cfg(AcceleratorConfig::test_4x4()),
    ] {
        let mut acc = Accelerator::new(cfg);
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        for ((name, want), (got_name, got)) in
            GOLDEN_DIGESTS.iter().zip(trace_digests(&run.traces[0]))
        {
            assert_eq!(*name, got_name);
            assert_eq!(
                *want, got,
                "memory model drifted stage `{name}` (mode {:?})",
                cfg.memory.mode
            );
        }
    }
}

#[test]
fn ideal_memory_reproduces_pre_memory_cycle_counts() {
    // Under IdealMemory every stall counter is zero, so layer cycles are
    // exactly array + activation + transfer cycles — the pre-memory
    // accounting.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 3).quantize(cfg.numeric);
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&net.test_image(3)))
        .expect("valid image");
    assert_eq!(run.memory.stall_cycles, 0);
    for layer in &run.layers {
        assert_eq!(layer.memory_stall_cycles, 0, "layer {}", layer.name);
        assert_eq!(
            layer.cycles(),
            layer.array_cycles + layer.activation_cycles + layer.transfer_cycles
        );
    }
    // The off-chip split is still measurable on the ideal design point.
    assert!(run.memory.dram_weight_bytes > 0);
    assert!(run.memory.dram_data_bytes > 0);
}

#[test]
fn finite_memory_never_changes_results_and_only_adds_stalls() {
    let net = CapsNetConfig::tiny();
    let ideal = AcceleratorConfig::test_4x4();
    let finite = finite_cfg(ideal);
    let qparams = CapsNetParams::generate(&net, 17).quantize(ideal.numeric);
    let images: Vec<Tensor<f32>> = (0..3).map(|s| net.test_image(s + 17)).collect();

    let mut a = BatchScheduler::new(ideal);
    let run_ideal = a.run(&net, &qparams, &images).expect("valid batch");
    let mut b = BatchScheduler::new(finite);
    let run_finite = b.run(&net, &qparams, &images).expect("valid batch");

    assert_eq!(run_ideal.traces, run_finite.traces);
    let sequence = |run: &capsacc::core::BatchRun| -> Vec<_> {
        run.steps.iter().map(|&(step, _)| step).collect()
    };
    assert_eq!(sequence(&run_ideal), sequence(&run_finite));
    // The matmul steps carry their stalls: finite memory adds exactly
    // the ClassCaps layer's stall to the steps.
    let step_cycles = |run: &capsacc::core::BatchRun| -> u64 {
        run.steps.iter().map(|&(_, cycles)| cycles).sum()
    };
    assert_eq!(
        step_cycles(&run_finite) - step_cycles(&run_ideal),
        run_finite.layers[2].memory_stall_cycles
    );
    assert!(run_finite.memory.stall_cycles > 0);
    assert!(run_finite.total_cycles() > run_ideal.total_cycles());
    assert_eq!(
        run_finite.total_cycles(),
        run_ideal.total_cycles() + run_finite.memory.stall_cycles
    );
}

#[test]
fn engine_memory_report_matches_closed_form_replay_exactly() {
    // On serial tiny configs under the paper's memory, a scheduled batch
    // and the replay of its memory traffic without operands agree
    // exactly: the whole MemReport of the dry run (stall decomposition,
    // off-chip bytes, per-SPM activity), and the per-layer stall
    // attribution of `timing::full_inference_batch_mem`'s view of it.
    let net = CapsNetConfig::tiny();
    let mut cfg = finite_cfg(AcceleratorConfig::test_4x4());
    cfg.dataflow.pipelined_tiles = false;
    for batch in [1usize, 2, 5] {
        let qparams = CapsNetParams::generate(&net, batch as u64).quantize(cfg.numeric);
        let images: Vec<Tensor<f32>> = (0..batch).map(|s| net.test_image(s)).collect();
        let mut sched = BatchScheduler::new(cfg);
        let run = sched.run(&net, &qparams, &images).expect("valid batch");
        let dry = Accelerator::new(cfg)
            .price_batch(&net, batch)
            .expect("non-empty batch");
        assert_eq!(run.memory, dry.memory, "batch {batch}");
        let model = timing::full_inference_batch_mem(&cfg, &net, batch as u64);
        let stalls: Vec<u64> = run.layers.iter().map(|l| l.memory_stall_cycles).collect();
        assert_eq!(
            stalls,
            vec![
                model.conv1_stall_cycles,
                model.primary_caps_stall_cycles,
                model.class_caps_stall_cycles
            ],
            "per-layer stall attribution, batch {batch}"
        );
    }
}

#[test]
fn engine_dram_traffic_matches_closed_form_replay() {
    // Off-chip bytes agree between the engine and the dry run's memory
    // replay on the default (pipelined) dataflow: weights once per
    // batch, inputs once per image.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 2).quantize(cfg.numeric);
    let dram = |batch: usize| {
        let images: Vec<Tensor<f32>> = (0..batch).map(|s| net.test_image(s)).collect();
        let mut sched = BatchScheduler::new(cfg);
        let run = sched.run(&net, &qparams, &images).expect("valid batch");
        let dry = Accelerator::new(cfg)
            .price_batch(&net, batch)
            .expect("non-empty batch");
        let bytes = (run.memory.dram_weight_bytes, run.memory.dram_data_bytes);
        assert_eq!(
            bytes,
            (dry.memory.dram_weight_bytes, dry.memory.dram_data_bytes),
            "batch {batch}"
        );
        bytes
    };
    let (one, four) = (dram(1), dram(4));
    assert_eq!(four.0, one.0, "weights once per batch");
    assert_eq!(four.1, 4 * one.1, "inputs once per image");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Matmul-level exactness: across random shapes, array geometries
    /// and batch sizes, the engine's stall delta equals the memory
    /// subsystem's price of the matmul's run, stalls never touch the
    /// ticked array, and the ideal/finite outputs stay bit-identical.
    #[test]
    fn engine_matmul_stalls_match_model(
        m in 1usize..10,
        k in 1usize..40,
        n in 1usize..20,
        size in 2usize..6,
        batch in 1usize..5,
        latency in 0u64..400,
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = size;
        cfg.cols = size;
        cfg.memory = MemoryConfig::paper();
        cfg.memory.dram.latency_cycles = latency;

        let data = |img: usize, mi: usize, ki: usize| ((img * 7 + mi * 3 + ki) % 50) as i8;
        let weight = |ki: usize, ni: usize| ((ki + ni * 5) % 60) as i8;

        let mut acc = Accelerator::new(cfg);
        let before = acc.ledger();
        let (outs, _) = acc.matmul_batch(
            batch, &data, &weight, m, k, n, None, 6, ActivationKind::Identity,
        );
        let engine = acc.ledger().since(&before);
        let engine_stalls = engine.stall;

        // The public matmul path treats weights as on-chip operands, and
        // pipelines its tiles on the default dataflow.
        let geometry = |weights_offchip| MatmulGeometry {
            m, k, n, batch,
            rows: size,
            cols: size,
            weights_offchip,
            schedule: if cfg.tiles_pipeline() { TileSchedule::Pipelined } else { TileSchedule::Serial },
        };
        let stalls = |cfg: &AcceleratorConfig, weights_offchip| {
            let run = MemorySubsystem::new(cfg.memory).price_run(&geometry(weights_offchip), 1);
            run.total.stall_cycles
        };
        prop_assert_eq!(engine_stalls, stalls(&cfg, false));

        // Stalls are accounted beside the array, never inside it, and
        // the memory model never changes outputs: an IdealMemory run of
        // the same matmul matches array cycles and results exactly.
        let mut ideal_acc = Accelerator::new(AcceleratorConfig {
            memory: MemoryConfig::ideal(),
            ..cfg
        });
        let (ideal_outs, _) = ideal_acc.matmul_batch(
            batch, &data, &weight, m, k, n, None, 6, ActivationKind::Identity,
        );
        prop_assert_eq!(&outs, &ideal_outs, "memory model changed outputs");
        prop_assert_eq!(engine.array, ideal_acc.ledger().array);
        prop_assert_eq!(ideal_acc.ledger().stall, 0);

        // Monotone in DRAM latency (off-chip path exercised separately).
        let mut slower = cfg;
        slower.memory.dram.latency_cycles += 100;
        prop_assert!(stalls(&slower, true) >= stalls(&cfg, true));
        // Deeper prefetch never hurts.
        let mut naive = cfg;
        naive.memory.prefetch_buffers = 1;
        prop_assert!(stalls(&naive, true) >= stalls(&cfg, true));
    }
}
