//! Determinism guarantees: every random-looking artifact in the system
//! is a pure function of its seed — the property the reproducible
//! validation flow rests on.

use capsacc::capsnet::{infer_q8, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant};
use capsacc::core::{Accelerator, AcceleratorConfig};
use capsacc::fixed::NumericConfig;
use capsacc::mnist::SyntheticMnist;
use capsacc::tensor::Tensor;

#[test]
fn dataset_is_a_pure_function_of_seed_and_index() {
    for seed in [0u64, 1, 999] {
        let a = SyntheticMnist::new(seed);
        let b = SyntheticMnist::new(seed);
        for idx in [0u64, 7, 123] {
            assert_eq!(a.sample(idx), b.sample(idx));
        }
    }
    assert_ne!(
        SyntheticMnist::new(1).sample(0).image,
        SyntheticMnist::new(2).sample(0).image
    );
}

#[test]
fn weight_generation_is_deterministic() {
    let params_a = CapsNetParams::generate(&CapsNetConfig::tiny(), 10);
    let params_b = CapsNetParams::generate(&CapsNetConfig::tiny(), 10);
    assert_eq!(params_a, params_b);
}

#[test]
fn quantized_inference_is_deterministic() {
    let net = CapsNetConfig::tiny();
    let ncfg = NumericConfig::default();
    let q = CapsNetParams::generate(&net, 3).quantize(ncfg);
    let pipe = QuantPipeline::new(ncfg);
    let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] ^ i[2]) as f32 / 16.0);
    let a = infer_q8(&net, &q, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
    let b = infer_q8(&net, &q, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
    assert_eq!(a, b);
}

#[test]
fn engine_runs_are_deterministic_including_cycles_and_traffic() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let q = CapsNetParams::generate(&net, 4).quantize(cfg.numeric);
    let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] * 2 + i[2]) as f32 / 36.0);
    let mut acc_a = Accelerator::new(cfg);
    let mut acc_b = Accelerator::new(cfg);
    let a = acc_a
        .run_batch(&net, &q, std::slice::from_ref(&image))
        .expect("valid image");
    let b = acc_b
        .run_batch(&net, &q, std::slice::from_ref(&image))
        .expect("valid image");
    assert_eq!(a.traces[0], b.traces[0]);
    assert_eq!(a.layers, b.layers);
    assert_eq!(a.steps, b.steps);
    assert_eq!(a.traffic, b.traffic);
}

#[test]
fn lut_tables_are_reproducible() {
    let ncfg = NumericConfig::default();
    let a = QuantPipeline::new(ncfg);
    let b = QuantPipeline::new(ncfg);
    for v in [-128i8, -64, -1, 0, 1, 63, 127] {
        assert_eq!(a.norm8(&[v, v]), b.norm8(&[v, v]));
        assert_eq!(a.squash_vec(&[v; 8]), b.squash_vec(&[v; 8]));
    }
    assert_eq!(a.softmax(&[1, 2, 3]), b.softmax(&[1, 2, 3]));
}
