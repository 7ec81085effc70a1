//! Differential tests for the batched weight-resident engine: for any
//! network shape, array geometry and batch size, `run_batch(N)` must
//! produce traces **bit-identical** to `N` independent batches of one
//! on fresh accelerators — including the per-image `MacStats` —
//! while strictly amortizing the weight-side traffic. Saturation edge
//! cases are exercised explicitly, because a 25-bit clip is exactly the
//! kind of state the layer-major reordering could mis-attribute.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{Accelerator, AcceleratorConfig, ActivationKind, BatchScheduler, MemoryKind};
use capsacc::tensor::{qops, Tensor};
use proptest::prelude::*;

mod common;

/// Checks the batched engine against per-image sequential runs and
/// returns (batched weight-buffer bytes, summed sequential ones).
fn assert_batch_equivalent(
    net: &CapsNetConfig,
    cfg: AcceleratorConfig,
    seed: u64,
    batch: usize,
) -> (u64, u64) {
    let qparams = CapsNetParams::generate(net, seed).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..batch)
        .map(|s| net.test_image(s + seed as usize))
        .collect();

    let mut sched = BatchScheduler::new(cfg);
    let run = sched.run(net, &qparams, &images).expect("valid batch");
    assert_eq!(run.traces.len(), batch);
    assert_eq!(run.batch, batch);

    let mut sequential_wb = 0u64;
    for (i, image) in images.iter().enumerate() {
        let mut acc = Accelerator::new(cfg);
        let single = acc
            .run_batch(net, &qparams, std::slice::from_ref(image))
            .expect("valid image");
        assert_eq!(
            run.traces[i], single.traces[0],
            "batched trace diverged for image {i} (seed {seed}, batch {batch})"
        );
        sequential_wb += single.traffic.counter(MemoryKind::WeightBuffer).read_bytes;
    }
    let batched_wb = run.traffic.counter(MemoryKind::WeightBuffer).read_bytes;
    (batched_wb, sequential_wb)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// The headline differential property: random network shapes, array
    /// geometries and batch sizes, bit-identical traces throughout.
    #[test]
    fn run_batch_is_bit_identical_to_sequential_runs(
        input_side in 8usize..13,
        conv1_channels in 4usize..9,
        pc_channels in 1usize..3,
        num_classes in 2usize..5,
        routing_iterations in 2usize..4,
        size in 2usize..6,
        batch in 1usize..5,
        seed in 0u64..1000,
    ) {
        let net = CapsNetConfig {
            input_side,
            conv1_channels,
            conv1_kernel: 3,
            conv1_stride: 1,
            pc_channels,
            pc_caps_dim: 4,
            pc_kernel: 3,
            pc_stride: 2,
            num_classes,
            class_caps_dim: 4,
            routing_iterations,
        };
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = size;
        cfg.cols = size;
        let (batched_wb, sequential_wb) = assert_batch_equivalent(&net, cfg, seed, batch);
        if batch > 1 {
            prop_assert!(
                batched_wb < sequential_wb,
                "no weight-buffer amortization: {batched_wb} vs {sequential_wb}"
            );
        } else {
            prop_assert_eq!(batched_wb, sequential_wb);
        }
    }
}

#[test]
fn batch_of_16_amortizes_weights_and_cycles() {
    // The acceptance anchor: at batch 16, measurably fewer weight-buffer
    // bytes/image and cycles/image than batch 1, with every trace still
    // bit-identical (asserted inside the helper).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let (wb16, wb_seq) = assert_batch_equivalent(&net, cfg, 42, 16);
    assert!(
        (wb16 as f64) < 0.6 * wb_seq as f64,
        "weight-buffer bytes/image should drop substantially: {wb16} vs {wb_seq}"
    );

    let qparams = CapsNetParams::generate(&net, 42).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..16).map(|s| net.test_image(s + 42)).collect();
    let mut sched = BatchScheduler::new(cfg);
    let run = sched.run(&net, &qparams, &images).expect("valid batch");
    let mut acc = Accelerator::new(cfg);
    let single = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&images[0]))
        .expect("valid image");
    let single_cycles: u64 = single.layers.iter().map(|l| l.cycles()).sum();
    assert!(
        run.cycles_per_image() < single_cycles as f64,
        "cycles/image should fall: {} vs {single_cycles}",
        run.cycles_per_image()
    );
}

#[test]
fn onchip_weight_traffic_covers_offchip_at_batch() {
    // The reuse story end to end: every parameter byte crosses DRAM once
    // per batch, while the on-chip Weight Buffer also serves the routing
    // operands per image — so on-chip weight traffic must be at least
    // the off-chip weight traffic (strictly greater here), and the
    // per-image views cover both sides of the split.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 3).quantize(cfg.numeric);
    for batch in [2usize, 4, 8] {
        let images: Vec<Tensor<f32>> = (0..batch).map(|s| net.test_image(s)).collect();
        let mut sched = BatchScheduler::new(cfg);
        let run = sched.run(&net, &qparams, &images).expect("valid batch");
        let onchip = run.traffic.counter(MemoryKind::WeightBuffer).read_bytes;
        let offchip = run.memory.dram_weight_bytes;
        assert!(offchip > 0, "weights must cross the off-chip channel");
        assert!(
            onchip >= offchip,
            "on-chip weight traffic ({onchip}) below off-chip ({offchip}) at batch {batch}"
        );
        // Off-chip, every parameter byte crosses once per batch and
        // every input pixel once per image: per image the weight side
        // shrinks as the batch grows, and all of it stays below the
        // on-chip buffer traffic it feeds.
        assert_eq!(offchip, net.total_parameters() as u64);
        assert_eq!(
            run.memory.dram_data_bytes,
            (batch * net.conv1_geometry().input_len()) as u64
        );
        assert!(
            run.memory.offchip_bytes()
                < run.traffic.counter(MemoryKind::WeightBuffer).total()
                    + run.traffic.counter(MemoryKind::DataBuffer).total()
        );
    }
}

#[test]
fn both_routing_variants_batch_equivalently() {
    let net = CapsNetConfig::tiny();
    let mut cfg = AcceleratorConfig::test_4x4();
    assert_batch_equivalent(&net, cfg, 7, 3);
    cfg.dataflow.skip_first_softmax = false;
    assert_batch_equivalent(&net, cfg, 7, 3);
}

#[test]
fn reused_scheduler_reports_per_batch_deltas() {
    // A long-lived scheduler accumulates internal counters across runs,
    // but each BatchRun must report only its own batch — otherwise the
    // per-image amortization metrics inflate with serving uptime.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 11).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..3).map(|s| net.test_image(s)).collect();

    let mut sched = BatchScheduler::new(cfg);
    let run1 = sched.run(&net, &qparams, &images).expect("valid batch");
    let run2 = sched.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(run1.traces, run2.traces);
    assert_eq!(run1.traffic, run2.traffic, "traffic must be batch-scoped");
    assert_eq!(run1.accumulator_saturations, run2.accumulator_saturations);
    assert_eq!(
        run1.weight_buffer_bytes_per_image(),
        run2.weight_buffer_bytes_per_image()
    );
}

// ---------------------------------------------------------------- Acc25
// Saturation edges: operands crafted so the 25-bit accumulator clips.
// 2048 MACs of 127·127 ≈ 3.3e7 overflow the ±2^24 range mid-reduction,
// so every K-tile fold touches saturated state.

#[test]
fn saturating_matmul_is_identical_batched_and_sequential() {
    let k = 2048usize;
    let (m, n, batch) = (2usize, 3usize, 4usize);
    // Per-image operands differ so saturation counts differ per image.
    let data = |img: usize, mi: usize, ki: usize| -> i8 {
        if (ki + mi + img).is_multiple_of(img + 2) {
            127
        } else {
            64
        }
    };
    let weight = |_ki: usize, _ni: usize| -> i8 { 127 };
    let cfg = AcceleratorConfig::test_4x4();

    let mut acc = Accelerator::new(cfg);
    let (batched_outs, batched_sats) = acc.matmul_batch(
        batch,
        &data,
        &weight,
        m,
        k,
        n,
        None,
        6,
        ActivationKind::Identity,
    );

    let mut any = 0u64;
    for img in 0..batch {
        // The quantized reference saturates too — this is a genuine
        // 25-bit overflow workload, not an engine artifact.
        let a = Tensor::from_fn(&[m, k], |i| data(img, i[0], i[1]));
        let b = Tensor::from_fn(&[k, n], |i| weight(i[0], i[1]));
        let (_, ref_stats) = qops::matmul_q8(&a, &b, 6);
        assert!(ref_stats.saturations > 0, "image {img} should saturate");

        // A fresh sequential engine run of the same image: identical
        // output *and* identical per-image saturation count.
        let mut seq = Accelerator::new(cfg);
        let (seq_outs, seq_sats) = seq.matmul_batch(
            1,
            &|_, mi, ki| data(img, mi, ki),
            &weight,
            m,
            k,
            n,
            None,
            6,
            ActivationKind::Identity,
        );
        assert_eq!(batched_outs[img], seq_outs[0], "image {img} output");
        assert_eq!(batched_sats[img], seq_sats[0], "image {img} saturations");
        assert!(batched_sats[img] > 0, "image {img} should saturate");
        any += batched_sats[img];
    }
    // The engine's global counter is the sum of the per-image counts.
    let total: u64 = batched_sats.iter().sum();
    assert_eq!(any, total);
}

#[test]
fn saturation_counters_flow_into_batch_traces() {
    // End-to-end: run_batch's per-image MacStats (MAC and saturation
    // counters) must equal fresh sequential runs', and the aggregate
    // saturation counter must be the sum of the per-image ones. The
    // crafted-overflow coverage lives in
    // `saturating_matmul_is_identical_batched_and_sequential`; this
    // pins the reporting path through the full network.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 9).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..5).map(|s| net.test_image(s)).collect();

    let mut sched = BatchScheduler::new(cfg);
    let run = sched.run(&net, &qparams, &images).expect("valid batch");
    let batch_total = run.accumulator_saturations;
    let mut seq_total = 0u64;
    for (i, image) in images.iter().enumerate() {
        let mut acc = Accelerator::new(cfg);
        let single = acc
            .run_batch(&net, &qparams, std::slice::from_ref(image))
            .expect("valid image");
        assert_eq!(
            run.traces[i].output.stats, single.traces[0].output.stats,
            "per-image MacStats diverged for image {i}"
        );
        seq_total += single.accumulator_saturations;
    }
    assert_eq!(batch_total, seq_total, "aggregate saturation count");
}
