//! Cycle-accurate validation — the Rust analogue of the paper's
//! gate-level verification flow (Fig. 15): run the same inference on the
//! register-transfer-level simulator and on the software fixed-point
//! reference, and check that every intermediate tensor — conv
//! activations, squashed capsules, prediction vectors, every routing
//! iteration's couplings/sums/logits — is **bit-identical**.
//!
//! Run with: `cargo run --example cycle_accurate_validation`

use capsacc::capsnet::{
    infer_q8_traced, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant,
};
use capsacc::core::{Accelerator, AcceleratorConfig, MemoryKind};
use capsacc::tensor::Tensor;

fn main() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let pipeline = QuantPipeline::new(cfg.numeric);

    let mut checked = 0u32;
    for seed in [3u64, 17, 99] {
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
            ((i[1] * seed as usize + i[2] * 3) % 9) as f32 / 9.0
        });

        // Software prediction (the "pyTorch" side of Fig. 15).
        let reference = infer_q8_traced(
            &net,
            &qparams,
            &pipeline,
            &image,
            RoutingVariant::SkipFirstSoftmax,
        );

        // Hardware prediction (the "gate-level simulation" side).
        let mut acc = Accelerator::new(cfg);
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");

        assert_eq!(
            run.traces[0], reference,
            "seed {seed}: simulator diverged from the reference"
        );
        checked += 1;

        println!(
            "seed {seed:>3}: bit-exact ✓  predicted class {}",
            run.traces[0].output.predicted
        );
        println!(
            "          layer cycles: {}",
            run.layers
                .iter()
                .map(|l| format!("{} = {}", l.name, l.cycles()))
                .collect::<Vec<_>>()
                .join(", ")
        );
        println!(
            "          routing steps: {}",
            run.steps
                .iter()
                .map(|(s, c)| format!("{s}:{c}"))
                .collect::<Vec<_>>()
                .join(" ")
        );
        println!(
            "          traffic: DataMem {} B read, WeightBuf {} B read, RoutingBuf {} B moved",
            run.traffic.counter(MemoryKind::DataMemory).read_bytes,
            run.traffic.counter(MemoryKind::WeightBuffer).read_bytes,
            run.traffic.counter(MemoryKind::RoutingBuffer).total(),
        );
    }
    println!("\nValidation complete: {checked}/3 inferences bit-exact against the reference.");
}
