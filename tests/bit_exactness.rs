//! Cross-crate integration tests: the cycle-accurate simulator must be
//! bit-exact against the quantized reference model — the reproduction of
//! the paper's functional-validation flow (Fig. 15) — across seeds,
//! routing variants, array sizes and network configurations.

use capsacc::capsnet::{
    infer_q8_traced, CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant,
};
use capsacc::core::{Accelerator, AcceleratorConfig, EngineBackend, MemoryConfig};
use capsacc::mnist::SyntheticMnist;
use capsacc::tensor::Tensor;

mod common;

fn variant_of(cfg: &AcceleratorConfig) -> RoutingVariant {
    if cfg.dataflow.skip_first_softmax {
        RoutingVariant::SkipFirstSoftmax
    } else {
        RoutingVariant::Original
    }
}

fn assert_bit_exact(net: &CapsNetConfig, cfg: AcceleratorConfig, seed: u64) {
    let qparams = CapsNetParams::generate(net, seed).quantize(cfg.numeric);
    let pipeline = QuantPipeline::new(cfg.numeric);
    let image = net.test_image(seed as usize);
    let reference = infer_q8_traced(net, &qparams, &pipeline, &image, variant_of(&cfg));
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
    assert_eq!(
        run.accumulator_saturations, 0,
        "saturation voids bit-exactness"
    );
    assert_eq!(run.traces[0], reference, "seed {seed}");
}

// ----------------------------------------------------------- golden trace
// A pinned layer-by-layer digest of one canonical inference. The
// bit-exactness tests above prove engine ≡ reference, but both models
// could drift *together* (a LUT edit, a rounding change) without any of
// them noticing. The digest (shared with `tests/memory_equivalence.rs`
// via `tests/common/mod.rs`, where the regeneration instructions live)
// fails loudly on any numeric change.

use common::{routing_digests, trace_digests, GOLDEN_DIGESTS, GOLDEN_DIGESTS_MNIST};

/// The canonical inference: `CapsNetConfig::tiny`, parameter seed 0, the
/// seed-0 deterministic image, on the 4×4 test array.
fn golden_trace() -> capsacc::capsnet::QuantTrace {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let image = net.test_image(0);
    let mut acc = Accelerator::new(cfg);
    acc.run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image")
        .traces
        .remove(0)
}

#[test]
fn golden_trace_digests_are_stable() {
    let got = trace_digests(&golden_trace());
    for ((name, want), (got_name, got_hash)) in GOLDEN_DIGESTS.iter().zip(&got) {
        assert_eq!(name, got_name, "digest order changed");
        assert_eq!(
            want, got_hash,
            "silent numeric drift in stage `{name}` — if intentional, \
             regenerate GOLDEN_DIGESTS (see the comment above it)"
        );
    }
    assert_eq!(GOLDEN_DIGESTS.len(), got.len());
}

#[test]
fn golden_batched_trace_matches_same_digests() {
    // The batched path must reproduce the identical pinned trace.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let images = [net.test_image(0), net.test_image(1)];
    let mut sched = capsacc::core::BatchScheduler::new(cfg);
    let run = sched.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(
        trace_digests(&run.traces[0]),
        trace_digests(&golden_trace())
    );
}

#[test]
fn golden_functional_backend_matches_same_digests() {
    // Both execution backends must reproduce the identical pinned trace
    // — sequential and batched — so the fast path can never drift away
    // from the RTL reference without this failing.
    let net = CapsNetConfig::tiny();
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.backend = capsacc::core::EngineBackend::Functional;
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&net.test_image(0)))
        .expect("valid image");
    let got = trace_digests(&run.traces[0]);
    for ((name, want), (_, got_hash)) in GOLDEN_DIGESTS.iter().zip(&got) {
        assert_eq!(
            want, got_hash,
            "functional backend diverged from the pinned digest at `{name}`"
        );
    }
    let images = [net.test_image(0), net.test_image(1)];
    let mut sched = capsacc::core::BatchScheduler::new(cfg);
    let run = sched.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(trace_digests(&run.traces[0]), got);
}

/// The MNIST-scale golden inference under `memory`: the digit and
/// parameters `GOLDEN_DIGESTS_MNIST` documents.
fn mnist_golden_trace(memory: MemoryConfig) -> capsacc::capsnet::QuantTrace {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig {
        backend: EngineBackend::Functional,
        memory,
        ..AcceleratorConfig::paper()
    };
    let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let image = SyntheticMnist::new(1).sample(0).image;
    let mut acc = Accelerator::new(cfg);
    acc.run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image")
        .traces
        .remove(0)
}

#[test]
fn mnist_golden_digests_pin_every_routing_step() {
    for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
        let trace = mnist_golden_trace(memory);
        let got = routing_digests(&trace);
        assert_eq!(GOLDEN_DIGESTS_MNIST.len(), got.len());
        for ((name, want), (got_name, got_hash)) in GOLDEN_DIGESTS_MNIST.iter().zip(&got) {
            assert_eq!(name, got_name, "digest order changed");
            assert_eq!(
                want, got_hash,
                "silent numeric drift in `{name}` under {:?} — if intentional, \
                 regenerate GOLDEN_DIGESTS_MNIST (see tests/common/mod.rs)",
                memory.mode
            );
        }
        // Routing moves on this digit: both updates leave most of the
        // 11,520 logits nonzero, and the couplings spread from the
        // uniform start.
        let nonzero_logits: Vec<usize> = trace
            .iterations
            .iter()
            .filter_map(|it| it.logits_after_update.as_ref())
            .map(|l| l.data().iter().filter(|&&v| v != 0).count())
            .collect();
        let coupling_codes: Vec<usize> = trace
            .iterations
            .iter()
            .map(|it| {
                let codes: std::collections::BTreeSet<i8> =
                    it.couplings.data().iter().copied().collect();
                codes.len()
            })
            .collect();
        assert_eq!(nonzero_logits, [9_998, 10_449]);
        assert_eq!(coupling_codes, [1, 22, 46]);
    }
}

#[test]
#[ignore = "regeneration helper: prints the digest tables for GOLDEN_DIGESTS and GOLDEN_DIGESTS_MNIST"]
fn print_golden_digests() {
    println!("GOLDEN_DIGESTS:");
    for (name, hash) in trace_digests(&golden_trace()) {
        println!("    (\"{name}\", 0x{hash:016x}),");
    }
    println!("GOLDEN_DIGESTS_MNIST:");
    for (name, hash) in routing_digests(&mnist_golden_trace(MemoryConfig::ideal())) {
        println!("    (\"{name}\", 0x{hash:016x}),");
    }
}

#[test]
fn tiny_network_across_seeds() {
    for seed in [1u64, 2, 3, 42, 1234] {
        assert_bit_exact(&CapsNetConfig::tiny(), AcceleratorConfig::test_4x4(), seed);
    }
}

#[test]
fn both_routing_variants() {
    let mut cfg = AcceleratorConfig::test_4x4();
    assert_bit_exact(&CapsNetConfig::tiny(), cfg, 7);
    cfg.dataflow.skip_first_softmax = false;
    assert_bit_exact(&CapsNetConfig::tiny(), cfg, 7);
}

#[test]
fn array_size_does_not_change_results() {
    // The tiling is a pure re-association of the same 25-bit arithmetic:
    // any array size must produce identical outputs (absent saturation).
    let net = CapsNetConfig::tiny();
    let qparams = CapsNetParams::generate(&net, 5).quantize(AcceleratorConfig::paper().numeric);
    let image = net.test_image(5);

    let mut runs = Vec::new();
    for size in [2usize, 4, 8, 16] {
        let mut cfg = AcceleratorConfig::paper();
        cfg.rows = size;
        cfg.cols = size;
        let mut acc = Accelerator::new(cfg);
        runs.push(
            acc.run_batch(&net, &qparams, std::slice::from_ref(&image))
                .expect("valid image"),
        );
    }
    for pair in runs.windows(2) {
        assert_eq!(pair[0].traces[0], pair[1].traces[0]);
    }
    // But cycle counts differ: bigger arrays finish sooner overall.
    let cycles: Vec<u64> = runs
        .iter()
        .map(|r| r.layers.iter().map(|l| l.cycles()).sum())
        .collect();
    assert!(
        cycles[0] > cycles[3],
        "2x2 ({}) should need more cycles than 16x16 ({})",
        cycles[0],
        cycles[3]
    );
}

#[test]
fn synthetic_digit_through_simulator() {
    // End-to-end: a procedurally rendered digit, centre-cropped to the
    // tiny network, through both models.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 8).quantize(cfg.numeric);
    let pipeline = QuantPipeline::new(cfg.numeric);
    let sample = SyntheticMnist::new(3).sample(4);
    let off = (28 - net.input_side) / 2;
    let image = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        sample.image[[0, i[1] + off, i[2] + off]]
    });

    let reference = infer_q8_traced(
        &net,
        &qparams,
        &pipeline,
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
    assert_eq!(run.traces[0], reference);
    assert!(run.traces[0].output.predicted < net.num_classes);
}

#[test]
fn dataflow_ablations_preserve_functionality() {
    // Every dataflow switch changes timing/traffic only — never results.
    let net = CapsNetConfig::tiny();
    let base = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 21).quantize(base.numeric);
    let image = net.test_image(21);

    let mut baseline = Accelerator::new(base);
    let want = baseline
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image")
        .traces
        .remove(0);

    for flip in 0..3 {
        let mut cfg = base;
        match flip {
            0 => cfg.dataflow.weight_reuse = false,
            1 => cfg.dataflow.pipelined_tiles = false,
            _ => cfg.dataflow.routing_feedback = false,
        }
        let mut acc = Accelerator::new(cfg);
        let got = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image")
            .traces
            .remove(0);
        assert_eq!(got, want, "ablation {flip} changed functional results");
    }
}
