//! Integration tests for the timing models: the analytical formulas and
//! the cycle-accurate engine must agree wherever their domains overlap,
//! and every dataflow optimization must help (or at least not hurt).

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    timing, Accelerator, AcceleratorConfig, ActivationKind, CycleLedger, EngineBackend,
    MatmulGeometry, MemoryConfig, MemoryKind, RoutingStep, TileSchedule,
};
use capsacc::mnist::SyntheticMnist;

#[test]
fn batched_engine_matches_batched_serial_formula() {
    // The batched closed-form model must agree with the ticked engine
    // *exactly* wherever their domains overlap: serial tiles, resident
    // weights, any shape × batch size, a single matmul included. The
    // shapes cover one-element, single-tile, ragged and multi-tile
    // matmuls on both axes.
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.dataflow.pipelined_tiles = false;
    for (m, k, n) in [
        (1usize, 1usize, 1usize),
        (1, 4, 4),
        (5, 4, 4),
        (3, 9, 6),
        (3, 9, 7),
        (7, 2, 10),
        (10, 5, 13),
        (2, 17, 2),
        (5, 17, 3),
        (2, 5, 13),
    ] {
        for batch in [1usize, 2, 3, 5, 8] {
            let mut acc = Accelerator::new(cfg);
            let before = acc.ledger().array;
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
            let got = acc.ledger().array - before;
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
fn closed_form_matmul_steps_equal_engine_steps() {
    // The FC, Sum and Update steps are tiled matmuls that both models
    // price through one `MatmulGeometry`. With serial tiles they agree
    // step by step, also where a capsule dimension spans several K-tiles
    // (the tiny net's 4-wide capsules on the 2×2 and 3×3 arrays).
    let net = CapsNetConfig::tiny();
    for side in [2, 3, 4] {
        let mut cfg = AcceleratorConfig {
            rows: side,
            cols: side,
            backend: EngineBackend::Functional,
            memory: MemoryConfig::ideal(),
            ..AcceleratorConfig::test_4x4()
        };
        cfg.dataflow.pipelined_tiles = false;
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        for batch in [1usize, 3] {
            let images: Vec<_> = (0..batch).map(|s| net.test_image(s)).collect();
            let run = Accelerator::new(cfg)
                .run_batch(&net, &qparams, &images)
                .expect("valid batch");
            let model: Vec<_> = timing::batch_routing_steps(&net, batch as u64, &cfg)
                .iter()
                .map(|s| (s.step, s.cycles))
                .collect();
            let matmuls = |steps: &[(RoutingStep, u64)]| -> Vec<(RoutingStep, u64)> {
                steps
                    .iter()
                    .copied()
                    .filter(|(s, _)| {
                        matches!(
                            s,
                            RoutingStep::Fc | RoutingStep::Sum(_) | RoutingStep::Update(_)
                        )
                    })
                    .collect()
            };
            assert_eq!(
                matmuls(&model),
                matmuls(&run.steps),
                "{side}x{side} array, batch {batch}"
            );
        }
    }
}

#[test]
fn engine_matches_serial_closed_form_at_mnist_scale() {
    // With serial tiles the engine and the closed form price every
    // matmul alike and overlap every reduction with the stream, so at
    // MNIST scale they differ only where the closed form charges what
    // the engine does not: Conv1's one-cycle ReLU latency, and the
    // Routing Buffer ceilings of the softmax and squash steps.
    let net = CapsNetConfig::mnist();
    let digits = SyntheticMnist::new(1);
    let params = CapsNetParams::generate(&net, 1);
    for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
        let mut cfg = AcceleratorConfig {
            backend: EngineBackend::Functional,
            memory,
            ..AcceleratorConfig::paper()
        };
        cfg.dataflow.pipelined_tiles = false;
        let qparams = params.quantize(cfg.numeric);
        for batch in [1u64, 2, 16] {
            let at = format!("batch {batch}, {:?}", memory.mode);
            let images: Vec<_> = (0..batch).map(|i| digits.sample(i).image).collect();
            let run = Accelerator::new(cfg)
                .run_batch(&net, &qparams, &images)
                .expect("valid batch");
            let model = timing::full_inference_batch_mem(&cfg, &net, batch);
            let model_layers = [
                (model.base.conv1.cycles, model.conv1_stall_cycles),
                (
                    model.base.primary_caps.cycles,
                    model.primary_caps_stall_cycles,
                ),
                (
                    model.base.class_caps_cycles(),
                    model.class_caps_stall_cycles,
                ),
            ];
            // Closed form minus engine, signed: the engine may be the
            // slower side.
            let mut gaps = Vec::new();
            for ((base, stall), layer) in model_layers.into_iter().zip(&run.layers) {
                let name = layer.name;
                assert_eq!(stall, layer.memory_stall_cycles, "{name} stall, {at}");
                gaps.push((base + stall) as i64 - layer.cycles() as i64);
            }
            let b = batch as i64;
            assert_eq!(gaps, [1, 0, 8_706 * b], "{at}");
            if !memory.is_ideal() {
                continue;
            }
            for (s, &(step, cycles)) in model.base.class_caps_steps.iter().zip(&run.steps) {
                assert_eq!(s.step, step, "{at}");
                let gap = match step {
                    RoutingStep::Softmax(2 | 3) => 4_320 * b,
                    RoutingStep::Squash(_) => 22 * b,
                    _ => 0,
                };
                assert_eq!(s.cycles as i64 - cycles as i64, gap, "{step}, {at}");
            }
        }
    }
}

#[test]
fn engine_runs_the_pipelined_schedule_at_mnist_scale() {
    // The pipelined twin of the serial check above: on the paper's
    // design point every `matmul_group` call is one run of all its
    // tiles, so each layer's array cycles are `run_cycles` of its
    // calls' runs. Conv1 and PrimaryCaps are one call each; ClassCaps
    // is the FC over every input capsule, then per image a Sum over the
    // classes per iteration and an Update over them per iteration but
    // the last. Memory never moves an array cycle.
    let net = CapsNetConfig::mnist();
    let digits = SyntheticMnist::new(1);
    let params = CapsNetParams::generate(&net, 1);
    let (g1, gp) = (net.conv1_geometry(), net.primary_caps_geometry());
    let (caps, classes) = (net.num_primary_caps(), net.num_classes);
    let (in_dim, out_dim, iters) = (net.pc_caps_dim, net.class_caps_dim, net.routing_iterations);
    for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
        let cfg = AcceleratorConfig {
            backend: EngineBackend::Functional,
            memory,
            ..AcceleratorConfig::paper()
        };
        let qparams = params.quantize(cfg.numeric);
        for batch in [1usize, 2, 16] {
            let at = format!("batch {batch}, {:?}", memory.mode);
            // The cycles of `groups` matmuls of `m × k × n` per image,
            // issued as one run.
            let run = |m, k, n, batch, groups| {
                let g = MatmulGeometry {
                    m,
                    k,
                    n,
                    batch,
                    rows: cfg.rows,
                    cols: cfg.cols,
                    weights_offchip: false,
                    schedule: TileSchedule::Pipelined,
                };
                g.run_cycles(g.tiles(groups))
            };
            let conv = |g: &capsacc::tensor::ConvGeometry| {
                run(g.out_h() * g.out_w(), g.patch_len(), g.out_ch, batch, 1)
            };
            let b = batch as u64;
            let class_caps = run(1, in_dim, classes * out_dim, batch, caps)
                + b * iters as u64 * run(1, caps, out_dim, 1, classes)
                + b * (iters - 1) as u64 * run(caps, out_dim, 1, 1, classes);
            let images: Vec<_> = (0..batch as u64).map(|i| digits.sample(i).image).collect();
            let layers = Accelerator::new(cfg)
                .run_batch(&net, &qparams, &images)
                .expect("valid batch")
                .layers;
            let arrays: Vec<u64> = layers.iter().map(|l| l.array_cycles).collect();
            assert_eq!(arrays, [conv(&g1), conv(&gp), class_caps], "{at}");
            if batch == 1 && memory.is_ideal() {
                let cycles: Vec<u64> = layers.iter().map(|l| l.cycles()).collect();
                assert_eq!(cycles, [38_449, 747_265, 271_008], "{at}");
            }
        }
    }
}

#[test]
fn engine_ledger_partitions_layers_and_steps_at_mnist_scale() {
    // The `GOLDEN_DIGESTS_MNIST` digit and parameters. Every `LayerRun`
    // and routing step is a delta of the engine's one cycle ledger, so
    // the layers' parts add up to the ledger's delta over the run and
    // the ClassCaps steps partition the ClassCaps layer: its matmuls'
    // array cycles, the softmaxes' and squashes' activation cycles, and
    // the `û` Load and the coupling broadcast (`Softmax1`) as transfer.
    let net = CapsNetConfig::mnist();
    let digits = SyntheticMnist::new(1);
    let params = CapsNetParams::generate(&net, 1);
    for (memory, class_caps_stall) in [
        (MemoryConfig::ideal(), 0),
        (MemoryConfig::paper(), 1_290_254),
    ] {
        let cfg = AcceleratorConfig {
            backend: EngineBackend::Functional,
            memory,
            ..AcceleratorConfig::paper()
        };
        let qparams = params.quantize(cfg.numeric);
        for batch in [1u64, 2] {
            let at = format!("batch {batch}, {:?}", memory.mode);
            let images: Vec<_> = (0..batch).map(|i| digits.sample(i).image).collect();
            let mut acc = Accelerator::new(cfg);
            let before = acc.ledger();
            let run = acc.run_batch(&net, &qparams, &images).expect("valid batch");
            let mut parts = CycleLedger::default();
            for l in &run.layers {
                let sum = l.array_cycles
                    + l.activation_cycles
                    + l.transfer_cycles
                    + l.memory_stall_cycles;
                assert_eq!(sum, l.cycles(), "{} parts, {at}", l.name);
                parts.array += l.array_cycles;
                parts.activation += l.activation_cycles;
                parts.transfer += l.transfer_cycles;
                parts.stall += l.memory_stall_cycles;
            }
            assert_eq!(parts, acc.ledger().since(&before), "{at}");

            let class_caps = &run.layers[2];
            let steps = |want: fn(&RoutingStep) -> bool| -> u64 {
                run.steps
                    .iter()
                    .filter(|(s, _)| want(s))
                    .map(|&(_, c)| c)
                    .sum()
            };
            assert_eq!(steps(|_| true), class_caps.cycles(), "{at}");
            assert_eq!(
                steps(|s| matches!(s, RoutingStep::Load | RoutingStep::Softmax(1))),
                class_caps.transfer_cycles,
                "{at}"
            );
            if batch == 1 {
                assert_eq!(
                    (
                        class_caps.array_cycles,
                        class_caps.activation_cycles,
                        class_caps.transfer_cycles,
                        class_caps.memory_stall_cycles
                    ),
                    (242_154, 2_934, 25_920, class_caps_stall),
                    "{at}"
                );
            }
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
    // batch 1 by more than 15% on cycles.
    let b1 = timing::full_inference_batch(&cfg, &net, 1);
    let b16 = timing::full_inference_batch(&cfg, &net, 16);
    assert!(b16.cycles_per_image() < 0.85 * b1.cycles_per_image());
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
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
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
    // data_mem_bytes). The traffic is the engine's: (read, write) bytes
    // per on-chip structure of one executed digit.
    use MemoryKind::{DataBuffer, DataMemory, RoutingBuffer, WeightBuffer};
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
            (Fc, 184_354, 184_320),
            (Softmax(1), 2_880, 0),
            (Sum(1), 11_860, 0),
            (Squash(1), 40, 0),
            (Update(1), 12_010, 0),
            (Softmax(2), 5_760, 0),
            (Sum(2), 11_860, 0),
            (Squash(2), 40, 0),
            (Update(2), 12_010, 0),
            (Softmax(3), 5_760, 0),
            (Sum(3), 11_860, 0),
            (Squash(3), 40, 0),
        ]
    );
    // One MNIST digit at batch 1 on the functional backend. The counters
    // read the same under both memory models: ideal memory removes
    // stalls, not bytes. Off chip, every weight byte is fetched from
    // DRAM once into the Weight SPM, and the input image once.
    let qparams = CapsNetParams::generate(&net, 1).quantize(paper.numeric);
    let image = SyntheticMnist::new(1).sample(0).image;
    let engine_run = |memory: MemoryConfig, f: fn(&mut capsacc::core::DataflowOptions)| {
        let mut cfg = AcceleratorConfig {
            backend: EngineBackend::Functional,
            memory,
            ..paper
        };
        f(&mut cfg.dataflow);
        Accelerator::new(cfg)
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image")
    };
    let bytes = |run: &capsacc::core::BatchRun| {
        MemoryKind::ALL.map(|kind| {
            let c = run.traffic.counter(kind);
            (kind, c.read_bytes, c.write_bytes)
        })
    };
    for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
        let run = engine_run(memory, |_| {});
        assert_eq!(
            bytes(&run),
            [
                (DataMemory, 185_104, 111_616),
                (DataBuffer, 13_142_016, 184_320),
                (RoutingBuffer, 80_960, 58_080),
                (WeightBuffer, 7_356_992, 0),
            ],
            "{:?}",
            memory.mode
        );
        assert_eq!(
            (run.memory.dram_weight_bytes, run.memory.dram_data_bytes),
            (6_804_224, 784),
            "{:?}",
            memory.mode
        );
    }
    // Without the feedback path, each later Sum and Update re-reads the
    // 184,320-byte û from the Data Memory (four re-reads), and the two
    // later Sums read it through the Data Buffer again.
    let no_feedback = engine_run(MemoryConfig::ideal(), |d| d.routing_feedback = false);
    let (dm, db) = (
        no_feedback.traffic.counter(DataMemory).read_bytes,
        no_feedback.traffic.counter(DataBuffer).read_bytes,
    );
    assert_eq!(dm, 185_104 + 4 * 184_320);
    assert_eq!(db, 13_142_016 + 2 * 184_320);
    // The closed-form replay agrees off chip: every parameter byte once,
    // and the input image.
    let replay = timing::full_inference_batch_mem(&paper, &net, 1).report;
    assert_eq!(replay.offchip_bytes(), 6_805_008);

    // One dataflow switch off at a time: (ClassCaps, total) cycles.
    let ablation = |f: fn(&mut capsacc::core::DataflowOptions)| {
        let mut cfg = paper;
        f(&mut cfg.dataflow);
        let t = timing::full_inference_batch(&cfg, &net, 1);
        (t.class_caps_cycles(), t.total_cycles())
    };
    assert_eq!(ablation(|_| {}), (281_514, 1_068_699));
    assert_eq!(
        ablation(|d| d.skip_first_softmax = false),
        (284_394, 1_071_579)
    );
    assert_eq!(
        ablation(|d| d.routing_feedback = false),
        (337_114, 1_124_299)
    );
    assert_eq!(
        ablation(|d| d.pipelined_tiles = false),
        (745_580, 2_551_965)
    );
    assert_eq!(ablation(|d| d.weight_reuse = false), (673_160, 25_598_617));

    // The FC at batch 16: with reuse all 16 images stream against each
    // resident W_ij tile (M = 16); without it every tile reloads per
    // row, and the batch costs 16 times the batch-1 FC on the pipelined
    // and the serial schedule alike.
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
    assert_eq!(fc16(true, true), (184_369, 2_949_120));
    assert_eq!(fc16(false, true), (16 * 576_000, 2_949_120));
    assert_eq!(fc16(true, false), (748_800, 2_949_120));
    assert_eq!(fc16(false, false), (16 * 576_000, 2_949_120));
}
