//! Quickstart: the CapsAcc reproduction in five minutes.
//!
//! Builds the MNIST CapsuleNet description, runs a float and a bit-exact
//! 8-bit inference on a synthetic digit (scaled-down network so this is
//! fast even in debug builds), and prints the accelerator's predicted
//! performance and synthesis summary at the paper's design point.
//!
//! Run with: `cargo run --example quickstart`

use capsacc::capsnet::{
    infer_f32, infer_q8, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant,
};
use capsacc::core::{Accelerator, AcceleratorConfig};
use capsacc::fixed::NumericConfig;
use capsacc::gpu::GpuModel;
use capsacc::mnist::SyntheticMnist;
use capsacc::power::PowerModel;
use capsacc::tensor::Tensor;

fn main() {
    // ---- 1. The workload: the paper's MNIST CapsuleNet (Table I).
    let mnist_net = CapsNetConfig::mnist();
    println!(
        "CapsuleNet (MNIST): {} trainable parameters",
        mnist_net.total_parameters()
    );
    for row in mnist_net.table1() {
        println!(
            "  {:<16} inputs {:>7}  params {:>8}  outputs {:>7}",
            row.name, row.inputs, row.parameters, row.outputs
        );
    }

    // ---- 2. Inference on a synthetic digit (small network for speed).
    let net = CapsNetConfig::small();
    let params = CapsNetParams::generate(&net, 42);
    let ncfg = NumericConfig::default();
    let qparams = params.quantize(ncfg);
    let pipeline = QuantPipeline::new(ncfg);

    // Take a synthetic "3", centre-cropped to the small network's input.
    let sample = SyntheticMnist::new(7).sample(3);
    let off = (28 - net.input_side) / 2;
    let image = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        sample.image[[0, i[1] + off, i[2] + off]]
    });

    let float_out = infer_f32(&net, &params, &image, RoutingVariant::SkipFirstSoftmax);
    let quant_out = infer_q8(
        &net,
        &qparams,
        &pipeline,
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    println!("\nFloat class norms:  {:?}", float_out.class_norms());
    println!(
        "8-bit class norms:  {:?}",
        quant_out
            .class_norms
            .iter()
            .map(|&n| n as f32 / 16.0)
            .collect::<Vec<_>>()
    );
    println!(
        "Predicted class: float = {}, 8-bit = {} ({} MACs, {} accumulator saturations)",
        float_out.predicted(),
        quant_out.predicted,
        quant_out.stats.macs,
        quant_out.stats.saturations
    );

    // ---- 3. The accelerator at the paper's design point, priced by a
    // dry run of the engine (its cycles, without evaluating operands).
    let acc = AcceleratorConfig::paper();
    let run = Accelerator::new(acc)
        .price_batch(&mnist_net, 1)
        .expect("one image");
    let us = acc.cycles_to_us(run.total_cycles());
    let gpu = GpuModel::gtx1070().layer_times_us(&mnist_net);
    println!("\nCapsAcc (16×16 @ 250 MHz) on the MNIST CapsuleNet:");
    println!(
        "  total inference: {:.3} ms  (GPU baseline: {:.3} ms → {:.1}× faster)",
        us / 1000.0,
        gpu.total() / 1000.0,
        gpu.total() / us
    );

    let t2 = PowerModel::cmos_32nm().table2(&acc);
    println!(
        "  synthesis summary: {}nm, {:.2} mm², {:.0} mW @ {} MHz",
        t2.tech_node_nm, t2.area_mm2, t2.power_mw, t2.clock_mhz
    );
}
