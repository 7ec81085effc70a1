//! Integration tests for the timing models: the analytical formulas and
//! the cycle-accurate engine must agree wherever their domains overlap,
//! and every dataflow optimization must help (or at least not hurt).

use capsacc::capsnet::CapsNetConfig;
use capsacc::core::{
    timing, Accelerator, AcceleratorConfig, ActivationKind, MemoryKind, RoutingStep,
};

#[test]
fn engine_matches_serial_formula_across_shapes() {
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.dataflow.pipelined_tiles = false;
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (1, 4, 4),
        (5, 4, 4),
        (3, 9, 7),
        (10, 5, 13),
        (2, 17, 2),
    ] {
        let mut acc = Accelerator::new(cfg);
        let before = acc.array_cycles();
        acc.matmul(
            &|mi, ki| ((mi * 3 + ki) % 50) as i8,
            &|ki, ni| ((ki + ni * 5) % 60) as i8,
            m,
            k,
            n,
            None,
            6,
            ActivationKind::Identity,
        );
        let got = acc.array_cycles() - before;
        let want = timing::matmul_cycles(
            timing::MatmulShape {
                m: m as u64,
                k: k as u64,
                n: n as u64,
            },
            &cfg,
        );
        assert_eq!(got, want, "cycle mismatch for ({m},{k},{n})");
    }
}

#[test]
fn batched_engine_matches_batched_serial_formula() {
    // The batched closed-form model must agree with the ticked engine
    // *exactly* wherever their domains overlap: serial tiles, resident
    // weights, any shape × batch size.
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.dataflow.pipelined_tiles = false;
    for (m, k, n) in [(1usize, 4usize, 4usize), (3, 9, 7), (5, 17, 3), (2, 5, 13)] {
        for batch in [1usize, 2, 3, 5, 8] {
            let mut acc = Accelerator::new(cfg);
            let before = acc.array_cycles();
            acc.matmul_batch(
                batch,
                &|img, mi, ki| ((img * 11 + mi * 3 + ki) % 50) as i8,
                &|ki, ni| ((ki + ni * 5) % 60) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let got = acc.array_cycles() - before;
            let want = timing::batch_matmul_cycles(
                timing::MatmulShape {
                    m: m as u64,
                    k: k as u64,
                    n: n as u64,
                },
                batch as u64,
                &cfg,
            );
            assert_eq!(
                got, want,
                "cycle mismatch for ({m},{k},{n}) × batch {batch}"
            );
        }
    }
}

#[test]
fn batched_cycles_per_image_decrease_monotonically_at_mnist_scale() {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();
    let mut prev = f64::INFINITY;
    for batch in [1u64, 2, 4, 8, 16, 32, 64] {
        let t = timing::full_inference_batch(&cfg, &net, batch);
        let per_image = t.cycles_per_image();
        assert!(
            per_image < prev,
            "cycles/image must fall with batch size: {per_image} at batch {batch} \
             vs {prev} before"
        );
        prev = per_image;
    }
    // And the amortization is material, not marginal: batch 16 beats
    // batch 1 by more than 15% on cycles and ~16x on weight bytes.
    let b1 = timing::full_inference_batch(&cfg, &net, 1);
    let b16 = timing::full_inference_batch(&cfg, &net, 16);
    assert!(b16.cycles_per_image() < 0.85 * b1.cycles_per_image());
    assert!(b16.weight_bytes_per_image() * 15.9 < b1.weight_bytes_per_image());
    assert!((b16.weight_bytes_per_image() - b1.weight_bytes_per_image() / 16.0).abs() < 1.0);
}

#[test]
fn batched_engine_and_model_agree_on_amortization_direction() {
    // Cycle-accurate cross-check at the tiny scale: engine run_batch and
    // the closed-form batched model must both report falling per-image
    // cost, and the engine's weight-buffer bytes must amortize exactly
    // (conv + FC tiles once per batch, routing per image).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = capsacc::capsnet::CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let images: Vec<capsacc::tensor::Tensor<f32>> = (0..8)
        .map(|s| {
            capsacc::tensor::Tensor::from_fn(&[1, 12, 12], |i| {
                ((i[1] * (s + 2) + i[2]) % 9) as f32 / 9.0
            })
        })
        .collect();
    let run_at = |b: usize| {
        let mut sched = capsacc::core::BatchScheduler::new(cfg);
        sched
            .run(&net, &qparams, &images[..b])
            .expect("valid batch")
    };
    let b1 = run_at(1);
    let b8 = run_at(8);
    assert!(b8.cycles_per_image() < b1.cycles_per_image());
    assert!(b8.weight_buffer_bytes_per_image() < b1.weight_buffer_bytes_per_image());
    let m1 = timing::full_inference_batch(&cfg, &net, 1);
    let m8 = timing::full_inference_batch(&cfg, &net, 8);
    assert!(m8.cycles_per_image() < m1.cycles_per_image());
}

#[test]
fn every_optimization_reduces_or_preserves_total_cycles() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let total = |cfg: &AcceleratorConfig| timing::full_inference_batch(cfg, &net, 1).total_cycles();
    let baseline = total(&base);

    let mut c = base;
    c.dataflow.skip_first_softmax = false;
    assert!(total(&c) >= baseline, "skip-first-softmax should help");
    let mut c = base;
    c.dataflow.routing_feedback = false;
    assert!(total(&c) >= baseline, "feedback reuse should help");
    let mut c = base;
    c.dataflow.pipelined_tiles = false;
    assert!(total(&c) > baseline, "tile pipelining should help");
    let mut c = base;
    c.dataflow.weight_reuse = false;
    assert!(total(&c) > baseline, "weight reuse should help");
}

#[test]
fn routing_step_sequence_consistent_between_models() {
    // The analytical model and the engine must report the same step
    // sequence (Fig. 17 x-axis).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let analytical: Vec<String> = timing::batch_routing_steps(&net, 1, &cfg)
        .iter()
        .map(|s| s.step.to_string())
        .collect();

    let qparams = capsacc::capsnet::CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let image = capsacc::tensor::Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
    let mut acc = Accelerator::new(cfg);
    let run = acc.run_inference(&net, &qparams, &image);
    let simulated: Vec<String> = run.steps.iter().map(|(s, _)| s.to_string()).collect();
    assert_eq!(analytical, simulated);
}

#[test]
fn clock_frequency_scales_wall_time_not_cycles() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let mut fast = base;
    fast.clock_mhz = 500;
    let t_base = timing::full_inference_batch(&base, &net, 1);
    let t_fast = timing::full_inference_batch(&fast, &net, 1);
    assert_eq!(t_base.total_cycles(), t_fast.total_cycles());
    let ratio = t_base.time_per_image_us(&base) / t_fast.time_per_image_us(&fast);
    assert!((ratio - 2.0).abs() < 1e-9);
}

#[test]
fn wider_memory_helps_primarycaps_only_up_to_compute() {
    let net = CapsNetConfig::mnist();
    let mut narrow = AcceleratorConfig::paper();
    narrow.weight_mem_bw = 4;
    let mut wide = AcceleratorConfig::paper();
    wide.weight_mem_bw = 64;
    let t_narrow = timing::full_inference_batch(&narrow, &net, 1);
    let t_wide = timing::full_inference_batch(&wide, &net, 1);
    assert!(t_narrow.primary_caps.cycles > t_wide.primary_caps.cycles);
    // Once memory is fast enough, compute is the floor.
    assert_eq!(
        t_wide.primary_caps.cycles,
        t_wide.primary_caps.compute_cycles + t_wide.primary_caps.activation_cycles
    );
}

#[test]
fn mnist_inference_in_milliseconds_regime() {
    let cfg = AcceleratorConfig::paper();
    let t = timing::full_inference_batch(&cfg, &CapsNetConfig::mnist(), 1);
    let ms = t.time_per_image_us(&cfg) / 1000.0;
    assert!((1.0..10.0).contains(&ms), "{ms} ms");
    // Layer ordering sanity: PrimaryCaps > ClassCaps > Conv1.
    assert!(t.primary_caps.cycles > t.class_caps_cycles());
    assert!(t.class_caps_cycles() > t.conv1.cycles);
}

#[test]
fn mnist_closed_form_golden_values() {
    // The exact MNIST figures of the closed form, so a refactor of the
    // formulas cannot move a simulated number unnoticed. Layers:
    // (cycles, compute_cycles, weight_stream_cycles); steps: (cycles,
    // data_mem_bytes); traffic: (read, write) bytes per memory.
    use MemoryKind::{DataBuffer, DataMemory, Dram, RoutingBuffer, WeightBuffer, WeightMemory};
    use RoutingStep::{Fc, Load, Softmax, Squash, Sum, Update};
    let net = CapsNetConfig::mnist();
    let paper = AcceleratorConfig::paper();
    let t = timing::full_inference_batch(&paper, &net, 1);
    let layer = |l: &timing::LayerTiming| (l.cycles, l.compute_cycles, l.weight_stream_cycles);
    assert_eq!(layer(&t.conv1), (39_185, 39_184, 2_624));
    assert_eq!(layer(&t.primary_caps), (748_000, 747_280, 663_584));
    let steps: Vec<_> = t
        .class_caps_steps
        .iter()
        .map(|s| (s.step, s.cycles, s.data_mem_bytes))
        .collect();
    assert_eq!(
        steps,
        [
            (Load, 23_040, 184_320),
            (Fc, 195_873, 184_320),
            (Softmax(1), 2_880, 0),
            (Sum(1), 12_570, 0),
            (Squash(1), 40, 0),
            (Update(1), 12_010, 0),
            (Softmax(2), 5_760, 0),
            (Sum(2), 12_570, 0),
            (Squash(2), 40, 0),
            (Update(2), 12_010, 0),
            (Softmax(3), 5_760, 0),
            (Sum(3), 12_570, 0),
            (Squash(3), 40, 0),
        ]
    );
    let traffic = timing::batch_traffic_estimate(&paper, &net, 1);
    let bytes: Vec<_> = MemoryKind::ALL
        .iter()
        .map(|&kind| {
            let c = traffic.counter(kind);
            (kind, c.read_bytes, c.write_bytes)
        })
        .collect();
    assert_eq!(
        bytes,
        [
            (DataMemory, 287_504, 295_936),
            (WeightMemory, 6_804_224, 0),
            (DataBuffer, 13_107_456, 184_320),
            (RoutingBuffer, 34_880, 46_560),
            (WeightBuffer, 6_804_224, 0),
            (Dram, 6_805_008, 0),
        ]
    );

    // One dataflow switch off at a time: (ClassCaps, total) cycles.
    let ablation = |f: fn(&mut capsacc::core::DataflowOptions)| {
        let mut cfg = paper;
        f(&mut cfg.dataflow);
        let t = timing::full_inference_batch(&cfg, &net, 1);
        (t.class_caps_cycles(), t.total_cycles())
    };
    assert_eq!(ablation(|_| {}), (295_163, 1_082_348));
    assert_eq!(
        ablation(|d| d.skip_first_softmax = false),
        (298_043, 1_085_228)
    );
    assert_eq!(
        ablation(|d| d.routing_feedback = false),
        (348_633, 1_135_818)
    );
    assert_eq!(
        ablation(|d| d.pipelined_tiles = false),
        (745_580, 2_551_965)
    );
    assert_eq!(ablation(|d| d.weight_reuse = false), (295_163, 25_220_620));

    // The FC at batch 16: with reuse all 16 images stream against each
    // resident W_ij tile (M = 16); without it the batch costs 16 times
    // the batch-1 FC. Both on the pipelined and the serial schedule.
    let fc16 = |weight_reuse: bool, pipelined_tiles: bool| {
        let mut cfg = paper;
        cfg.dataflow.weight_reuse = weight_reuse;
        cfg.dataflow.pipelined_tiles = pipelined_tiles;
        timing::batch_routing_steps(&net, 16, &cfg)
            .iter()
            .find(|s| s.step == Fc)
            .map(|s| (s.cycles, s.data_mem_bytes))
            .expect("FC step")
    };
    assert_eq!(fc16(true, true), (195_888, 2_949_120));
    assert_eq!(fc16(false, true), (16 * 195_873, 2_949_120));
    assert_eq!(fc16(true, false), (748_800, 2_949_120));
    assert_eq!(fc16(false, false), (16 * 576_000, 2_949_120));
}
