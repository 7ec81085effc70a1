//! Full-system run at MNIST scale: executes the complete CapsuleNet on
//! the **cycle-accurate** engine (every PE register ticked — several
//! hundred million PE updates), validates bit-exactness against the
//! reference model, and checks the executed cycles, traffic and memory
//! counters against a dry run of the same batch, which prices the
//! engine's charges without evaluating an operand.
//!
//! This is the heavyweight counterpart of `cycle_accurate_validation`
//! (which uses the tiny network). Build in release mode:
//!
//! ```sh
//! cargo run --release --example mnist_full_system
//! ```

use std::time::Instant;

use capsacc::capsnet::{
    infer_q8_traced, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant,
};
use capsacc::core::{Accelerator, AcceleratorConfig, MemoryKind};
use capsacc::mnist::SyntheticMnist;

fn main() {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();

    println!(
        "Generating pseudo-trained parameters ({} weights)…",
        net.total_parameters()
    );
    let params = CapsNetParams::generate(&net, 2019);
    let qparams = params.quantize(cfg.numeric);
    let pipeline = QuantPipeline::new(cfg.numeric);
    let sample = SyntheticMnist::new(1).sample(5);

    println!("Running the software fixed-point reference…");
    let t0 = Instant::now();
    let reference = infer_q8_traced(
        &net,
        &qparams,
        &pipeline,
        &sample.image,
        RoutingVariant::SkipFirstSoftmax,
    );
    println!(
        "  reference done in {:.1?} ({} MACs)",
        t0.elapsed(),
        reference.output.stats.macs
    );

    println!("Running the cycle-accurate engine (16×16 array, every PE ticked)…");
    let t0 = Instant::now();
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&sample.image))
        .expect("valid image");
    println!("  engine done in {:.1?}", t0.elapsed());

    // Bit-exactness at full scale.
    assert_eq!(
        run.traces[0], reference,
        "engine diverged from the reference"
    );
    println!(
        "\nBit-exact at MNIST scale ✓ (predicted class {})",
        run.traces[0].output.predicted
    );

    // Executed cycles vs the dry run, layer by layer.
    let priced = Accelerator::new(cfg)
        .price_batch(&net, 1)
        .expect("one image");
    println!("\nLayer cycle counts (executed vs dry run):");
    for (layer, dry) in run.layers.iter().zip(&priced.layers) {
        println!(
            "  {:<12} engine {:>9}  dry run {:>9}",
            layer.name,
            layer.cycles(),
            dry.cycles()
        );
    }
    assert_eq!(run.layers, priced.layers, "layer cycles diverged");
    assert_eq!(run.steps, priced.steps, "routing step cycles diverged");
    assert_eq!(
        (run.traffic, run.memory),
        (priced.traffic, priced.memory),
        "traffic or memory counters diverged"
    );

    println!("\nRouting step cycles (engine):");
    for (step, cycles) in &run.steps {
        println!(
            "  {:<9} {:>8} cycles = {:>10.3} µs",
            step.to_string(),
            cycles,
            cfg.cycles_to_us(*cycles)
        );
    }

    println!("\nTraffic:");
    for kind in MemoryKind::ALL {
        let c = run.traffic.counter(kind);
        println!(
            "  {kind}: {} B read, {} B written",
            c.read_bytes, c.write_bytes
        );
    }
    println!(
        "\nAccumulator saturations: {} (must be 0)",
        run.accumulator_saturations
    );
    assert_eq!(run.accumulator_saturations, 0);
}
