//! Differential tests for the functional backend's 16-lane SIMD sweep
//! at the paper's 16×16 design point.
//!
//! The small arrays of `backend_equivalence.rs` never produce a 16-wide
//! N-tile, so every tile there takes the general scalar fold. Here
//! N-tiles are 16 columns wide, which routes tiles through the SIMD
//! sweep (the AVX-512 VNNI body where the host has it, the AVX2 body
//! otherwise; the unit tests in `kernel.rs` run both) or, with SIMD
//! off, the scalar fold, and through both weight-packing paths (unit
//! stride along K, and strided). Every observable must equal the
//! ticked backend's — accumulator fault draws included, on batches of
//! several images.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    Accelerator, AcceleratorConfig, ActivationKind, BatchScheduler, EngineBackend,
    FunctionalOptions, SimdMode,
};
use capsacc::faults::FaultPlan;

mod common;

/// Seeded operand stream (64-bit LCG, top byte).
fn stream(seed: u64) -> impl FnMut() -> i8 {
    let mut s = seed | 1;
    move || {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 56) as i8
    }
}

/// Everything a matmul leaves observable: outputs, per-image
/// saturations, array and activation cycles, traffic, and the fault
/// counters (draws taken, flips, masked flips).
type Observed = (
    Vec<capsacc::tensor::Tensor<i8>>,
    Vec<u64>,
    capsacc::core::CycleLedger,
    capsacc::core::TrafficReport,
    [u64; 3],
);

/// The fault counters of an accelerator: draws, flips, masked flips.
fn fault_counters(acc: &Accelerator) -> [u64; 3] {
    [acc.fault_ops(), acc.fault_flips(), acc.fault_masked()]
}

#[allow(clippy::too_many_arguments)]
fn run_matmul(
    cfg: AcceleratorConfig,
    plan: FaultPlan,
    batch: usize,
    data: &[i8],
    weight: &[i8],
    m: usize,
    k: usize,
    n: usize,
    shift: u32,
) -> Observed {
    let mut acc = Accelerator::new(cfg);
    acc.set_fault_plan(plan);
    let (outs, sats) = acc.matmul_batch(
        batch,
        &|img, mi, ki| data[(img * m + mi) * k + ki],
        &|ki, ni| weight[ki * n + ni],
        m,
        k,
        n,
        None,
        shift,
        ActivationKind::Identity,
    );
    (
        outs,
        sats,
        acc.ledger(),
        *acc.traffic(),
        fault_counters(&acc),
    )
}

/// The paper design point on the functional backend with the given
/// host knobs.
fn functional(threads: usize, simd: SimdMode) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    cfg.functional = FunctionalOptions { threads, simd };
    cfg
}

/// Seeded accumulator bit-flips at 5% per drained value, masked by the
/// saturating clamp or not.
fn flip_plan(mask_with_saturation: bool) -> FaultPlan {
    let mut plan = FaultPlan::seeded(29);
    plan.engine.acc_bitflip_per_drain = 0.05;
    plan.engine.mask_with_saturation = mask_with_saturation;
    plan
}

/// n = 35 is two 16-lane N-tiles plus a 3-column tail; k = 37 is K-tiles
/// of 16, 16 and 5 (an odd tail); 3 images × 5 rows = 15 panel rows, so
/// the 4-row blocked kernels also run their remainder rows (with two
/// threads: chunks of 8 and 7 rows).
#[test]
fn sixteen_lane_matmuls_equal_ticked() {
    let (batch, m, k, n) = (3usize, 5usize, 37usize, 35usize);
    let mut ternary = stream(0x5eed);
    let mut full = stream(0xf011);
    // Operands in {-1, 0, 1} at shift 0: |raw| ≤ 37, so every raw-sum
    // difference reaches the output unrounded. The full-range case
    // exercises sign extension of ±127/−128 through the widened and
    // interleaved operands.
    let mut ternary_op = |len: usize| -> Vec<i8> { (0..len).map(|_| ternary() % 2).collect() };
    let cases = [
        (ternary_op(batch * m * k), ternary_op(k * n), 0u32),
        (
            (0..batch * m * k).map(|_| full()).collect(),
            (0..k * n).map(|_| full()).collect(),
            18,
        ),
    ];
    for (data, weight, shift) in &cases {
        assert!(data.contains(&0) && data.iter().any(|&d| d != 0));
        let ticked = run_matmul(
            AcceleratorConfig::paper(),
            FaultPlan::none(),
            batch,
            data,
            weight,
            m,
            k,
            n,
            *shift,
        );
        for simd in [SimdMode::Auto, SimdMode::Scalar] {
            for threads in [1, 2] {
                let cfg = functional(threads, simd);
                let got = run_matmul(cfg, FaultPlan::none(), batch, data, weight, m, k, n, *shift);
                assert_eq!(got, ticked, "shift {shift}, {simd:?}, {threads} threads");
            }
        }
    }
}

/// The functional drain numbers each element's fault draw from its
/// (image, column, row) position instead of walking the ticked order;
/// on a batch of three images over two full 16-lane N-tiles and a
/// ragged one, every draw, flip and mask must land where the ticked
/// walk puts it.
#[test]
fn batched_fault_draws_equal_ticked() {
    let (batch, m, k, n) = (3usize, 5usize, 37usize, 35usize);
    let mut next = stream(0xfa17);
    let data: Vec<i8> = (0..batch * m * k).map(|_| next()).collect();
    let weight: Vec<i8> = (0..k * n).map(|_| next()).collect();
    for mask in [false, true] {
        let plan = flip_plan(mask);
        let ticked = run_matmul(
            AcceleratorConfig::paper(),
            plan,
            batch,
            &data,
            &weight,
            m,
            k,
            n,
            8,
        );
        let [ops, flips, _] = ticked.4;
        assert_eq!(ops, (batch * m * n) as u64, "one draw per drained value");
        assert!(flips > 0, "5% of {ops} draws must flip something");
        for simd in [SimdMode::Auto, SimdMode::Scalar] {
            let got = run_matmul(functional(1, simd), plan, batch, &data, &weight, m, k, n, 8);
            assert_eq!(got, ticked, "mask {mask}, {simd:?}");
        }
    }
}

/// A CapsuleNet whose every parameter layer is 16-lane aligned: Conv1
/// has 16 channels, PrimaryCaps 2 × 8 = 16, ClassCaps 2 classes × 16
/// (FC width 32, routing Sum width 16). Conv1, PrimaryCaps and the FC
/// pack their weights from unit-stride views; routing's Sum packs û
/// through the strided path.
fn aligned_net() -> CapsNetConfig {
    let net = CapsNetConfig {
        input_side: 12,
        conv1_channels: 16,
        conv1_kernel: 3,
        conv1_stride: 1,
        pc_channels: 2,
        pc_caps_dim: 8,
        pc_kernel: 3,
        pc_stride: 2,
        num_classes: 2,
        class_caps_dim: 16,
        routing_iterations: 3,
    };
    net.validate().expect("valid network");
    net
}

#[test]
fn aligned_capsnet_batch_runs_equal_ticked() {
    let net = aligned_net();
    let cfg = AcceleratorConfig::paper();
    let qparams = CapsNetParams::generate(&net, 5).quantize(cfg.numeric);
    let images: Vec<_> = (0..2).map(|s| net.test_image(s)).collect();
    let want = BatchScheduler::new(cfg)
        .run(&net, &qparams, &images)
        .expect("valid batch");
    for simd in [SimdMode::Auto, SimdMode::Scalar] {
        let mut fast = cfg;
        fast.backend = EngineBackend::Functional;
        fast.functional.simd = simd;
        let got = BatchScheduler::new(fast)
            .run(&net, &qparams, &images)
            .expect("valid batch");
        assert_eq!(got, want, "{simd:?}");
    }
}

/// Fault draws through a whole batched inference on the aligned
/// network: every layer's drain, batched (Conv1, PrimaryCaps, FC) and
/// per image (routing), must draw, flip and mask exactly as ticked.
#[test]
fn aligned_capsnet_fault_draws_equal_ticked() {
    let net = aligned_net();
    let qparams = CapsNetParams::generate(&net, 5).quantize(AcceleratorConfig::paper().numeric);
    let images: Vec<_> = (0..3).map(|s| net.test_image(s)).collect();
    let run = |cfg: AcceleratorConfig, plan: FaultPlan| {
        let mut sched = BatchScheduler::new(cfg);
        sched.accelerator_mut().set_fault_plan(plan);
        let out = sched.run(&net, &qparams, &images).expect("valid batch");
        (out, fault_counters(sched.accelerator()))
    };
    for mask in [false, true] {
        let plan = flip_plan(mask);
        let want = run(AcceleratorConfig::paper(), plan);
        assert!(want.1[1] > 0, "5% per drained value must flip something");
        for simd in [SimdMode::Auto, SimdMode::Scalar] {
            let got = run(functional(0, simd), plan);
            assert_eq!(got, want, "mask {mask}, {simd:?}");
        }
    }
}

/// Routing on a network whose capsule count is no multiple of 16: at
/// `input_side` 13 the aligned net has 50 primary capsules. Routing's
/// functional backend stages û once per image, so each class's Sum
/// packing ends in a 2-tap K-tile and its transposed Update packing
/// holds three full 16-lane N-tiles and a 2-lane tail. Every BatchRun
/// and every fault draw, flip and mask must still equal ticked, under
/// both first-iteration variants and with the feedback path off.
#[test]
fn staged_routing_tiles_and_fault_draws_equal_ticked() {
    let net = CapsNetConfig {
        input_side: 13,
        ..aligned_net()
    };
    net.validate().expect("valid network");
    assert_eq!(net.num_primary_caps(), 50);
    let qparams = CapsNetParams::generate(&net, 5).quantize(AcceleratorConfig::paper().numeric);
    let images: Vec<_> = (0..2).map(|s| net.test_image(s)).collect();
    let run = |cfg: AcceleratorConfig, plan: FaultPlan| {
        let mut sched = BatchScheduler::new(cfg);
        sched.accelerator_mut().set_fault_plan(plan);
        let out = sched.run(&net, &qparams, &images).expect("valid batch");
        (out, fault_counters(sched.accelerator()))
    };
    // (skip_first_softmax, routing_feedback)
    for (skip, feedback) in [(true, true), (false, true), (true, false)] {
        let mut ticked = AcceleratorConfig::paper();
        ticked.dataflow.skip_first_softmax = skip;
        ticked.dataflow.routing_feedback = feedback;
        for plan in [FaultPlan::none(), flip_plan(false), flip_plan(true)] {
            let want = run(ticked, plan);
            let updated = want.0.traces.iter().flat_map(|t| &t.iterations);
            let moved = updated
                .filter_map(|it| it.logits_after_update.as_ref())
                .any(|l| l.data().iter().any(|&b| b != 0));
            assert!(moved, "the updates must move some logit");
            let faulted = plan.has_engine_faults();
            assert_eq!(want.1[1] > 0, faulted, "flips exactly when faults are on");
            for simd in [SimdMode::Auto, SimdMode::Scalar] {
                let mut cfg = ticked;
                cfg.backend = EngineBackend::Functional;
                cfg.functional = FunctionalOptions { threads: 1, simd };
                let got = run(cfg, plan);
                assert_eq!(
                    got, want,
                    "skip {skip}, feedback {feedback}, faults {faulted}, {simd:?}"
                );
            }
        }
    }
}
