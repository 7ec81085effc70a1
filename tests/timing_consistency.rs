//! Integration tests for the one cycle model: the dry run
//! (`Accelerator::price_batch`) is the executed engine — every layer,
//! routing step, traffic counter and memory counter equal, on both
//! backends, both memory models and every dataflow switch — the engine
//! executes Sec. IV-A's tile schedule, and the dataflow optimizations
//! help wherever the engine charges them.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    Accelerator, AcceleratorConfig, ActivationKind, BatchRun, CycleLedger, DataflowOptions,
    EngineBackend, LayerRun, MatmulGeometry, MemoryConfig, MemoryKind, RoutingStep, TileSchedule,
};
use capsacc::mnist::SyntheticMnist;

/// One dry run of `batch` images on a fresh accelerator.
fn price(cfg: &AcceleratorConfig, net: &CapsNetConfig, batch: usize) -> BatchRun {
    Accelerator::new(*cfg)
        .price_batch(net, batch)
        .expect("non-empty batch")
}

/// Asserts that the dry run `dry` reports exactly what the executed
/// `run` does: no traces and no saturations, and every layer, step,
/// traffic and memory counter equal.
fn assert_dry_run_is_the_run(dry: &BatchRun, run: &BatchRun, at: &str) {
    assert!(dry.traces.is_empty(), "{at}");
    assert_eq!(
        (dry.batch, dry.accumulator_saturations),
        (run.batch, 0),
        "{at}"
    );
    assert_eq!(dry.layers, run.layers, "layers, {at}");
    assert_eq!(dry.steps, run.steps, "steps, {at}");
    assert_eq!(dry.traffic, run.traffic, "traffic, {at}");
    assert_eq!(dry.memory, run.memory, "memory, {at}");
}

/// The paper's design point, then each dataflow switch off in turn.
fn dataflows() -> [(&'static str, DataflowOptions); 5] {
    let paper = DataflowOptions::default();
    let mut out = [("paper point", paper); 5];
    out[1].0 = "no weight reuse";
    out[1].1.weight_reuse = false;
    out[2].0 = "no tile pipelining";
    out[2].1.pipelined_tiles = false;
    out[3].0 = "no routing feedback";
    out[3].1.routing_feedback = false;
    out[4].0 = "no skip-first-softmax";
    out[4].1.skip_first_softmax = false;
    out
}

#[test]
fn batched_engine_matches_batched_serial_formula() {
    // With serial tiles and resident weights the ticked engine ticks
    // Sec. IV-A's formula exactly, for any shape × batch size: every
    // weight tile an `R + 1`-edge load plus a `batch·M + R + C`-edge
    // stream, drain included. The shapes cover one-element,
    // single-tile, ragged and multi-tile matmuls on both axes.
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
            let tiles = k.div_ceil(4) * n.div_ceil(4);
            let want = (tiles * (5 + batch * m + 8)) as u64;
            assert_eq!(
                got, want,
                "cycle mismatch for ({m},{k},{n}) × batch {batch}"
            );
        }
    }
}

#[test]
fn dry_run_equals_ticked_engine_at_tiny_scale() {
    // The ticked backend executes every edge it charges (it asserts so
    // per matmul); its whole run equals the dry run's on 2×2, 3×3 and
    // 4×4 arrays, where a capsule dimension spans several K-tiles, under
    // both memory models, and, on the 4×4 array under paper memory,
    // with each dataflow switch off in turn.
    let net = CapsNetConfig::tiny();
    let base = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 1).quantize(base.numeric);
    let check = |cfg: AcceleratorConfig, batch: usize, at: &str| {
        let images: Vec<_> = (0..batch).map(|s| net.test_image(s)).collect();
        let run = Accelerator::new(cfg)
            .run_batch(&net, &qparams, &images)
            .expect("valid batch");
        assert_dry_run_is_the_run(&price(&cfg, &net, batch), &run, at);
    };
    let finite = MemoryConfig {
        data_spm: base.memory.data_spm,
        weight_spm: base.memory.weight_spm,
        ..MemoryConfig::paper()
    };
    for side in [2, 3, 4] {
        for memory in [base.memory, finite] {
            let cfg = AcceleratorConfig {
                rows: side,
                cols: side,
                memory,
                ..base
            };
            for batch in [1, 3] {
                check(
                    cfg,
                    batch,
                    &format!("{side}x{side}, {:?}, batch {batch}", memory.mode),
                );
            }
        }
    }
    for (name, dataflow) in dataflows() {
        let cfg = AcceleratorConfig {
            memory: finite,
            dataflow,
            ..base
        };
        check(cfg, 2, name);
    }
}

#[test]
fn closed_form_matmul_steps_equal_engine_steps() {
    // The FC, Sum and Update steps are tiled matmuls whose array cycles
    // are the closed form `MatmulGeometry::run_cycles`, charged from the
    // geometry alone. With serial tiles the dry run's matmul steps equal
    // both backends' executed steps, step by step, also where a capsule
    // dimension spans several K-tiles (the tiny net's 4-wide capsules on
    // the 2×2 and 3×3 arrays).
    let net = CapsNetConfig::tiny();
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
    for side in [2, 3, 4] {
        let mut cfg = AcceleratorConfig {
            rows: side,
            cols: side,
            memory: MemoryConfig::ideal(),
            ..AcceleratorConfig::test_4x4()
        };
        cfg.dataflow.pipelined_tiles = false;
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        for batch in [1usize, 3] {
            let images: Vec<_> = (0..batch).map(|s| net.test_image(s)).collect();
            let model = matmuls(&price(&cfg, &net, batch).steps);
            // The FC, `r` Sums and `r − 1` Updates.
            assert_eq!(model.len(), 2 * net.routing_iterations);
            for backend in [EngineBackend::Ticked, EngineBackend::Functional] {
                let run = Accelerator::new(AcceleratorConfig { backend, ..cfg })
                    .run_batch(&net, &qparams, &images)
                    .expect("valid batch");
                assert_eq!(
                    model,
                    matmuls(&run.steps),
                    "{side}x{side} array, batch {batch}, {backend:?}"
                );
            }
        }
    }
}

#[test]
fn dry_run_equals_engine_at_mnist_scale() {
    // The acceptance anchor of the one cycle model: at MNIST scale on
    // the functional backend, the executed batch and its dry run report
    // the same layers, steps, traffic and memory counters, at batch 1, 2
    // and 16, under ideal and paper memory, at the paper point and with
    // each dataflow switch off in turn.
    let net = CapsNetConfig::mnist();
    let digits = SyntheticMnist::new(1);
    let qparams = CapsNetParams::generate(&net, 1).quantize(AcceleratorConfig::paper().numeric);
    let images: Vec<_> = (0..16).map(|i| digits.sample(i).image).collect();
    for (name, dataflow) in dataflows() {
        for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
            let cfg = AcceleratorConfig {
                backend: EngineBackend::Functional,
                memory,
                dataflow,
                ..AcceleratorConfig::paper()
            };
            for batch in [1usize, 2, 16] {
                let run = Accelerator::new(cfg)
                    .run_batch(&net, &qparams, &images[..batch])
                    .expect("valid batch");
                let at = format!("{name}, batch {batch}, {:?}", memory.mode);
                assert_dry_run_is_the_run(&price(&cfg, &net, batch), &run, &at);
            }
        }
    }
}

#[test]
fn engine_runs_the_pipelined_schedule_at_mnist_scale() {
    // On the paper's design point every `matmul_group` call is one run
    // of all its tiles, so each layer's array cycles are `run_cycles` of its
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
    for batch in [1, 2, 4, 8, 16, 32, 64] {
        let per_image = price(&cfg, &net, batch).cycles_per_image();
        assert!(
            per_image < prev,
            "cycles/image must fall with batch size: {per_image} at batch {batch} \
             vs {prev} before"
        );
        prev = per_image;
    }
    // And the amortization is material, not marginal: batch 16 beats
    // batch 1 by more than 15% on cycles.
    let (b1, b16) = (price(&cfg, &net, 1), price(&cfg, &net, 16));
    assert!(b16.cycles_per_image() < 0.85 * b1.cycles_per_image());
}

#[test]
fn batched_engine_and_model_agree_on_amortization_direction() {
    // Cycle-accurate cross-check at the tiny scale: engine run_batch and
    // the dry run must both report falling per-image cost, and the
    // engine's weight-buffer bytes must amortize exactly (conv + FC
    // tiles once per batch, routing per image).
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
    let (m1, m8) = (price(&cfg, &net, 1), price(&cfg, &net, 8));
    assert!(m8.cycles_per_image() < m1.cycles_per_image());
}

#[test]
fn every_optimization_reduces_or_preserves_total_cycles() {
    // Skip-first-softmax is left out: the engine charges the skipped
    // softmax's coupling broadcast 2,880 cycles and a real softmax
    // 1,440, so turning it off is 1,440 cycles faster. No model checks
    // that claim until the engine charges the Routing Buffer ceilings
    // (README's "What reproduction means here").
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let total = |cfg: &AcceleratorConfig| price(cfg, &net, 1).total_cycles();
    let baseline = total(&base);

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
    // The dry run and the executed engine must report the same step
    // sequence (Fig. 17 x-axis).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let priced: Vec<String> = price(&cfg, &net, 1)
        .steps
        .iter()
        .map(|(s, _)| s.to_string())
        .collect();

    let qparams = capsacc::capsnet::CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let image = capsacc::tensor::Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
    let mut acc = Accelerator::new(cfg);
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
    let simulated: Vec<String> = run.steps.iter().map(|(s, _)| s.to_string()).collect();
    assert_eq!(priced, simulated);
}

#[test]
fn clock_frequency_scales_wall_time_not_cycles() {
    let net = CapsNetConfig::mnist();
    let base = AcceleratorConfig::paper();
    let mut fast = base;
    fast.clock_mhz = 500;
    let (t_base, t_fast) = (
        price(&base, &net, 1).total_cycles(),
        price(&fast, &net, 1).total_cycles(),
    );
    assert_eq!(t_base, t_fast);
    let ratio = base.cycles_to_us(t_base) / fast.cycles_to_us(t_fast);
    assert!((ratio - 2.0).abs() < 1e-9);
}

#[test]
fn wider_memory_helps_primarycaps_only_up_to_compute() {
    // PrimaryCaps fetches 5.3 MB of weights from DRAM for 36 output
    // pixels: a wider channel stalls it less, and no channel takes it
    // below its compute, which ideal memory runs at.
    let net = CapsNetConfig::mnist();
    let primary_caps = |bytes_per_cycle: u64| {
        let mut cfg = AcceleratorConfig::paper();
        cfg.memory = MemoryConfig::paper();
        cfg.memory.dram.bytes_per_cycle = bytes_per_cycle;
        price(&cfg, &net, 1).layers[1].clone()
    };
    let compute = price(&AcceleratorConfig::paper(), &net, 1).layers[1].cycles();
    let [narrow, paper, wide] = [4, 16, 64].map(primary_caps);
    assert!(narrow.cycles() > paper.cycles() && paper.cycles() > wide.cycles());
    for layer in [&narrow, &paper, &wide] {
        assert_eq!(layer.cycles() - layer.memory_stall_cycles, compute);
    }
}

#[test]
fn mnist_inference_in_milliseconds_regime() {
    let cfg = AcceleratorConfig::paper();
    let run = price(&cfg, &CapsNetConfig::mnist(), 1);
    let ms = cfg.cycles_to_us(run.total_cycles()) / 1000.0;
    assert!((1.0..10.0).contains(&ms), "{ms} ms");
    // Layer ordering sanity: PrimaryCaps > ClassCaps > Conv1.
    let [conv1, pc, cc] = [0, 1, 2].map(|i| run.layers[i].cycles());
    assert!(pc > cc);
    assert!(cc > conv1);
}

#[test]
fn mnist_golden_values() {
    // The exact MNIST figures of the cycle model, so a refactor of a
    // cost site cannot move a simulated number unnoticed: the engine
    // columns of `BENCH_paper.json`'s Figs. 16 and 17 and Sec. V
    // ablations, read from dry runs. The traffic is one executed digit's
    // (read, write) bytes per on-chip structure.
    use MemoryKind::{DataBuffer, DataMemory, RoutingBuffer, WeightBuffer};
    use RoutingStep::{Fc, Load, Softmax, Squash, Sum, Update};
    let net = CapsNetConfig::mnist();
    let paper = AcceleratorConfig::paper();
    let finite = AcceleratorConfig {
        memory: MemoryConfig::paper(),
        ..paper
    };
    let layers = |run: &BatchRun| run.layers.iter().map(LayerRun::cycles).collect::<Vec<_>>();
    assert_eq!(layers(&price(&paper, &net, 1)), [38_449, 747_265, 271_008]);
    assert_eq!(
        layers(&price(&finite, &net, 1)),
        [38_757, 2_820_884, 1_561_262]
    );
    assert_eq!(
        price(&paper, &net, 1).steps,
        [
            (Load, 23_040),
            (Fc, 184_354),
            (Softmax(1), 2_880),
            (Sum(1), 11_554),
            (Squash(1), 18),
            (Update(1), 11_569),
            (Softmax(2), 1_440),
            (Sum(2), 11_554),
            (Squash(2), 18),
            (Update(2), 11_569),
            (Softmax(3), 1_440),
            (Sum(3), 11_554),
            (Squash(3), 18),
        ]
    );
    // One MNIST digit at batch 1 on the functional backend. The counters
    // read the same under both memory models: ideal memory removes
    // stalls, not bytes. Off chip, every weight byte is fetched from
    // DRAM once into the Weight SPM, and the input image once.
    let qparams = CapsNetParams::generate(&net, 1).quantize(paper.numeric);
    let image = SyntheticMnist::new(1).sample(0).image;
    let engine_run = |memory: MemoryConfig, f: fn(&mut DataflowOptions)| {
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
    let bytes = |run: &BatchRun| {
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

    // One dataflow switch off at a time: (ClassCaps, total) cycles under
    // ideal and paper memory. Without weight reuse the engine runs
    // serial tiles, as without tile pipelining.
    let ablations: Vec<_> = dataflows()
        .into_iter()
        .map(|(_, dataflow)| {
            [paper, finite].map(|c| {
                let run = price(&AcceleratorConfig { dataflow, ..c }, &net, 1);
                (run.layers[2].cycles(), run.total_cycles())
            })
        })
        .collect();
    assert_eq!(
        ablations,
        [
            [(271_008, 1_056_722), (1_561_262, 4_420_903)],
            [(736_874, 2_543_258), (1_693_034, 4_557_347)],
            [(736_874, 2_543_258), (1_693_034, 4_557_347)],
            [(271_008, 1_056_722), (1_561_262, 4_420_903)],
            [(269_568, 1_055_282), (1_559_822, 4_419_463)],
        ]
    );

    // The FC at batch 16: all 16 images stream against each resident
    // W_ij tile (M = 16), one run of 11,520 tiles when pipelined, and
    // 11,520 serial tiles without pipelining or without weight reuse.
    let fc16 = |weight_reuse: bool, pipelined_tiles: bool| {
        let mut cfg = paper;
        cfg.dataflow.weight_reuse = weight_reuse;
        cfg.dataflow.pipelined_tiles = pipelined_tiles;
        let run = price(&cfg, &net, 16);
        run.steps.iter().find(|(s, _)| *s == Fc).expect("FC step").1
    };
    assert_eq!(fc16(true, true), 184_369);
    for (reuse, pipelined) in [(false, true), (true, false), (false, false)] {
        assert_eq!(fc16(reuse, pipelined), 11_520 * (17 + 16 + 32));
    }
}
