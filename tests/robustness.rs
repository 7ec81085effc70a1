//! Robustness and failure-injection tests: the system must behave
//! predictably under adversarial numerics (saturating inputs, corrupted
//! weights), degenerate configurations, and invalid parameters.

use capsacc::capsnet::{
    infer_q8, infer_q8_traced, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant,
};
use capsacc::core::{Accelerator, AcceleratorConfig};
use capsacc::fixed::NumericConfig;
use capsacc::tensor::Tensor;

fn pipeline() -> QuantPipeline {
    QuantPipeline::new(NumericConfig::default())
}

#[test]
fn adversarial_all_max_weights_complete_without_panic() {
    // Saturate everything: the datapath must clip, count saturations,
    // and still produce in-range outputs.
    let net = CapsNetConfig::tiny();
    let params = CapsNetParams::generate(&net, 1);
    let mut q = params.quantize(NumericConfig::default());
    q.conv1_w.data_mut().fill(i8::MAX);
    q.pc_w.data_mut().fill(i8::MAX);
    q.w_class.data_mut().fill(i8::MAX);
    let image = Tensor::from_fn(&[1, 12, 12], |_| 1.0f32);
    let out = infer_q8(
        &net,
        &q,
        &pipeline(),
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    assert!(out.predicted < net.num_classes);
    assert_eq!(out.class_norms.len(), net.num_classes);
    // The tiny network's longest reduction (72 taps) stays within the
    // 25-bit accumulator even at full scale — exactly why the paper's
    // width is safe. A 2000-tap all-max reduction, by contrast, must
    // clip and be counted.
    assert_eq!(out.stats.saturations, 0);
    let long = vec![i8::MAX; 2000];
    let (raw, sats) = capsacc::tensor::qops::dot_q8(&long, &long);
    assert!(sats > 0, "2000·127² exceeds 2^24 and must saturate");
    assert_eq!(raw, (1 << 24) - 1);
}

#[test]
fn single_weight_corruption_changes_outputs() {
    // Fault sensitivity: flipping one Conv1 weight must propagate to the
    // trace (the network is not silently ignoring its inputs).
    let net = CapsNetConfig::tiny();
    let ncfg = NumericConfig::default();
    let clean = CapsNetParams::generate(&net, 2).quantize(ncfg);
    let mut faulty = clean.clone();
    let w0 = faulty.conv1_w.data()[0];
    faulty.conv1_w.data_mut()[0] = w0.wrapping_add(64);
    let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 12.0);
    let a = infer_q8_traced(
        &net,
        &clean,
        &pipeline(),
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    let b = infer_q8_traced(
        &net,
        &faulty,
        &pipeline(),
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    assert_ne!(a.conv1_out, b.conv1_out, "fault did not propagate");
}

#[test]
fn blank_and_saturated_images_are_valid_inputs() {
    let net = CapsNetConfig::tiny();
    let q = CapsNetParams::generate(&net, 3).quantize(NumericConfig::default());
    for value in [0.0f32, 1.0, 1e9, -1e9, f32::NAN] {
        let image = Tensor::from_fn(&[1, 12, 12], |_| value);
        let out = infer_q8(
            &net,
            &q,
            &pipeline(),
            &image,
            RoutingVariant::SkipFirstSoftmax,
        );
        assert!(
            out.predicted < net.num_classes,
            "value {value} broke inference"
        );
    }
}

#[test]
fn engine_handles_saturating_workloads_gracefully() {
    // The cycle-accurate engine must also complete under saturation; it
    // may legitimately differ from the reference there (different
    // association order), but both must stay in range.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let mut q = CapsNetParams::generate(&net, 4).quantize(cfg.numeric);
    q.pc_w.data_mut().fill(i8::MIN);
    let image = Tensor::from_fn(&[1, 12, 12], |_| 1.0f32);
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &q, std::slice::from_ref(&image))
        .expect("valid image");
    assert!(run.traces[0].output.predicted < net.num_classes);
}

#[test]
fn config_validation_rejects_nonsense() {
    assert!(CapsNetConfig {
        routing_iterations: 0,
        ..CapsNetConfig::tiny()
    }
    .validate()
    .is_err());
    assert!(CapsNetConfig {
        num_classes: 1,
        ..CapsNetConfig::tiny()
    }
    .validate()
    .is_err());
    let mut acc = AcceleratorConfig::paper();
    acc.routing_buf_bw = 0;
    assert!(acc.validate().is_err());
}

#[test]
fn one_by_one_array_still_bit_exact() {
    // The degenerate 1×1 array is the slowest possible configuration but
    // must still agree with the reference bit for bit.
    let net = CapsNetConfig::tiny();
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.rows = 1;
    cfg.cols = 1;
    let q = CapsNetParams::generate(&net, 5).quantize(cfg.numeric);
    let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] * i[2] % 5) as f32 / 5.0);
    let reference = infer_q8_traced(
        &net,
        &q,
        &QuantPipeline::new(cfg.numeric),
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &q, std::slice::from_ref(&image))
        .expect("valid image");
    assert_eq!(run.traces[0], reference);
}

#[test]
fn single_routing_iteration_network() {
    // Degenerate routing: one iteration means no updates and (with the
    // optimization) no softmax at all.
    let net = CapsNetConfig {
        routing_iterations: 1,
        ..CapsNetConfig::tiny()
    };
    let cfg = AcceleratorConfig::test_4x4();
    let q = CapsNetParams::generate(&net, 6).quantize(cfg.numeric);
    let image = Tensor::from_fn(&[1, 12, 12], |i| i[1] as f32 / 12.0);
    let reference = infer_q8_traced(
        &net,
        &q,
        &QuantPipeline::new(cfg.numeric),
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    assert_eq!(reference.iterations.len(), 1);
    assert!(reference.iterations[0].logits_after_update.is_none());
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &q, std::slice::from_ref(&image))
        .expect("valid image");
    assert_eq!(run.traces[0], reference);
}
