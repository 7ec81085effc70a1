//! Full-system run at MNIST scale: executes the complete CapsuleNet on
//! the **cycle-accurate** engine (every PE register ticked — several
//! hundred million PE updates), validates bit-exactness against the
//! reference model, and cross-checks the engine's cycle counts against
//! the analytical model with tile pipelining disabled.
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
use capsacc::core::{timing, Accelerator, AcceleratorConfig, MemoryKind};
use capsacc::mnist::SyntheticMnist;

fn main() {
    let net = CapsNetConfig::mnist();
    let mut cfg = AcceleratorConfig::paper();
    // The engine executes tiles serially; use the matching timing mode.
    cfg.dataflow.pipelined_tiles = false;

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
    let run = acc.run_inference(&net, &qparams, &sample.image);
    println!("  engine done in {:.1?}", t0.elapsed());

    // Bit-exactness at full scale.
    assert_eq!(run.trace, reference, "engine diverged from the reference");
    println!(
        "\nBit-exact at MNIST scale ✓ (predicted class {})",
        run.trace.output.predicted
    );

    // Engine cycles vs the serial analytical model, layer by layer.
    let analytic = timing::full_inference_batch(&cfg, &net, 1);
    println!("\nLayer cycle counts (engine array cycles vs serial analytical compute):");
    for layer in &run.layers {
        let model = match layer.name {
            "Conv1" => analytic.conv1.compute_cycles,
            "PrimaryCaps" => analytic.primary_caps.compute_cycles,
            _ => continue,
        };
        println!(
            "  {:<12} engine {:>9}  model {:>9}  ({})",
            layer.name,
            layer.array_cycles,
            model,
            if layer.array_cycles == model {
                "exact"
            } else {
                "≠"
            }
        );
        assert_eq!(layer.array_cycles, model, "{} cycle mismatch", layer.name);
    }

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
