//! Ablation of the paper's two data-reuse/algorithm optimizations
//! (Sec. V): skipping the first routing softmax, and reusing the
//! predictions `û` through the horizontal feedback path. Also ablates
//! the convolutional weight reuse and tile pipelining of Sec. IV-A.

use capsacc_bench::{fmt_us, print_table};
use capsacc_capsnet::infer_q8;
use capsacc_capsnet::{CapsNetConfig, CapsNetParams, QuantPipeline, RoutingVariant};
use capsacc_core::{timing, Accelerator, AcceleratorConfig, MemoryKind};
use capsacc_tensor::Tensor;

fn classcaps_cycles(cfg: &AcceleratorConfig, net: &CapsNetConfig) -> u64 {
    timing::batch_routing_steps(net, 1, cfg)
        .iter()
        .map(|s| s.cycles)
        .sum()
}

fn main() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();

    // --- Ablation table: one dataflow switch off at a time.
    let mut rows = Vec::new();
    let mut push = |name: &str, cfg: AcceleratorConfig| {
        let total = timing::full_inference_batch(&cfg, &net, 1).total_cycles();
        let cc = classcaps_cycles(&cfg, &net);
        rows.push(vec![
            name.to_owned(),
            cc.to_string(),
            fmt_us(cfg.cycles_to_us(cc)),
            total.to_string(),
            fmt_us(cfg.cycles_to_us(total)),
        ]);
    };
    push("all optimizations (paper)", base);
    let mut c = base;
    c.dataflow.skip_first_softmax = false;
    push("no skip-first-softmax", c);
    let mut c = base;
    c.dataflow.routing_feedback = false;
    push("no routing feedback reuse", c);
    let mut c = base;
    c.dataflow.pipelined_tiles = false;
    push("no tile pipelining", c);
    let mut c = base;
    c.dataflow.weight_reuse = false;
    push("no conv weight reuse", c);
    print_table(
        "Sec. V ablations — ClassCaps and total inference cycles",
        &[
            "Configuration",
            "ClassCaps cyc",
            "ClassCaps",
            "Total cyc",
            "Total",
        ],
        &rows,
    );

    // --- Functional equivalence of the softmax-skip optimization, in
    // fixed point, on a real (tiny) inference.
    let tiny = CapsNetConfig::tiny();
    let ncfg = base.numeric;
    let qparams = CapsNetParams::generate(&tiny, 99).quantize(ncfg);
    let pipe = QuantPipeline::new(ncfg);
    let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * i[2]) % 7) as f32 / 7.0);
    let original = infer_q8(&tiny, &qparams, &pipe, &image, RoutingVariant::Original);
    let optimized = infer_q8(
        &tiny,
        &qparams,
        &pipe,
        &image,
        RoutingVariant::SkipFirstSoftmax,
    );
    assert!(
        original.class_caps == optimized.class_caps && original.couplings == optimized.couplings,
        "skip-first-softmax changed the fixed-point class capsules or couplings"
    );
    println!(
        "\nSkip-first-softmax functional equivalence (bit-exact): \
         PASS — identical class capsules and couplings"
    );

    // --- Data Memory traffic with and without the feedback path, from
    // the cycle-accurate engine on the tiny network.
    let mut on_cfg = AcceleratorConfig::test_4x4();
    on_cfg.dataflow.routing_feedback = true;
    let mut off_cfg = on_cfg;
    off_cfg.dataflow.routing_feedback = false;
    let mut acc_on = Accelerator::new(on_cfg);
    let run_on = acc_on.run_inference(&tiny, &qparams, &image);
    let mut acc_off = Accelerator::new(off_cfg);
    let run_off = acc_off.run_inference(&tiny, &qparams, &image);
    let dm_on = run_on.traffic.counter(MemoryKind::DataMemory).read_bytes;
    let dm_off = run_off.traffic.counter(MemoryKind::DataMemory).read_bytes;
    assert!(
        dm_off >= dm_on,
        "disabling the feedback path cut Data Memory reads ({dm_on} B -> {dm_off} B)"
    );
    println!(
        "Routing feedback reuse (cycle-accurate engine, tiny network):\n\
         Data Memory reads with feedback: {dm_on} B, without: {dm_off} B\n\
         → the feedback path eliminates {} B of on-chip memory re-reads",
        dm_off - dm_on
    );
}
