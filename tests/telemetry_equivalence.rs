//! Differential tests for the telemetry layer's core contract:
//! **recording never perturbs simulated results, and not recording is
//! byte-invisible**.
//!
//! - Engine: for random seeds × batch sizes × both backends × thread
//!   counts × trace levels × every [`SpanDetail`], a `BatchRun`
//!   produced with telemetry enabled is `==` to one produced with
//!   telemetry off, and the recorded span tree is well-formed and sums
//!   exactly to the run's total cycles.
//! - Golden digests: the canonical pinned inference re-produces
//!   `GOLDEN_DIGESTS` *with recording on* — the telemetry hooks sit on
//!   the same code path the bit-exactness suite pins, so this is the
//!   direct proof that enabling them cannot drift the numerics.
//! - Host knobs: the span tree is a function of the *simulated*
//!   machine only — thread counts and backends change nothing about
//!   the recorded spans.
//! - Serve: `run_runtime_resilient` with a [`RuntimeTelemetry`]
//!   observer produces a `RuntimeOutcome` (including the FNV event
//!   digest) identical to `run_runtime`'s, across workload regimes and
//!   runtime configurations, with and without `record_events`.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    validate_span_tree, Accelerator, AcceleratorConfig, BatchScheduler, EngineBackend,
    FunctionalOptions, MemoryConfig, SpanDetail, TelemetryConfig, TraceLevel, TRACK_ENGINE,
};
use capsacc::serve::{
    run_runtime, run_runtime_resilient, service_cycles_table, worker_warmup_cycles, workload_trace,
    ArrivalRegime, AutoscalerConfig, BatcherConfig, ClassConfig, NullSink, ResilienceConfig,
    RuntimeConfig, RuntimeTelemetry, ServiceModel, WorkloadConfig,
};
use capsacc::tensor::Tensor;
use proptest::prelude::*;

mod common;
use common::{trace_digests, GOLDEN_DIGESTS};

const DETAIL_AXIS: [SpanDetail; 3] = [SpanDetail::Layers, SpanDetail::Phases, SpanDetail::Tiles];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The headline invariant: telemetry on ≡ telemetry off, for whole
    /// `BatchRun`s, across backends × threads × trace levels × span
    /// detail × memory models; and every recorded tree is well-formed
    /// and sums exactly to the run it observed.
    #[test]
    fn recording_never_perturbs_batch_runs(
        seed in 0u64..500,
        batch in 1usize..4,
        functional in any::<bool>(),
        threads_idx in 0usize..3,
        outputs_only in any::<bool>(),
        modeled_mem in any::<bool>(),
        detail_idx in 0usize..3,
    ) {
        let threads = [1usize, 2, 4][threads_idx];
        let detail = DETAIL_AXIS[detail_idx];
        let net = CapsNetConfig::tiny();
        let mut cfg = AcceleratorConfig::test_4x4();
        if functional {
            cfg.backend = EngineBackend::Functional;
            cfg.functional = FunctionalOptions { threads, ..FunctionalOptions::default() };
        }
        if outputs_only {
            cfg.trace_level = TraceLevel::Outputs;
        }
        if modeled_mem {
            cfg.memory = MemoryConfig::paper();
        }
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        let images: Vec<Tensor<f32>> = (0..batch)
            .map(|s| net.test_image(s + seed as usize))
            .collect();

        let want = BatchScheduler::new(cfg)
            .run(&net, &qparams, &images)
            .expect("valid batch");
        let mut sched = BatchScheduler::new(cfg);
        sched
            .accelerator_mut()
            .enable_telemetry(TelemetryConfig { detail, host_timing: false });
        let got = sched.run(&net, &qparams, &images).expect("valid batch");
        prop_assert_eq!(&got, &want, "recording perturbed the run");

        let rec = sched.accelerator_mut().take_telemetry();
        let total = validate_span_tree(&rec, TRACK_ENGINE)
            .map_err(|e| TestCaseError::fail(format!("malformed span tree: {e}")))?;
        prop_assert_eq!(total, got.total_cycles(), "span tree sum != run total");
    }

    /// The span tree is a function of the simulated machine only:
    /// ticked and functional backends at any thread count record
    /// byte-identical spans.
    #[test]
    fn span_trees_are_host_invariant(
        seed in 0u64..200,
        detail_idx in 0usize..3,
    ) {
        let detail = DETAIL_AXIS[detail_idx];
        let net = CapsNetConfig::tiny();
        let image = net.test_image(seed as usize);
        let mut trees = Vec::new();
        for (functional, threads) in [(false, 1), (true, 1), (true, 4)] {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.memory = MemoryConfig::paper();
            if functional {
                cfg.backend = EngineBackend::Functional;
                cfg.functional =
                    FunctionalOptions { threads, ..FunctionalOptions::default() };
            }
            let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
            let mut acc = Accelerator::new(cfg);
            acc.enable_telemetry(TelemetryConfig { detail, host_timing: false });
            acc.run_batch(&net, &qparams, std::slice::from_ref(&image)).expect("valid image");
            trees.push(acc.take_telemetry().spans().to_vec());
        }
        prop_assert!(!trees[0].is_empty(), "nothing recorded");
        prop_assert_eq!(&trees[0], &trees[1], "ticked vs functional spans");
        prop_assert_eq!(&trees[1], &trees[2], "1-thread vs 4-thread spans");
    }
}

/// The canonical pinned inference with recording ON at the deepest
/// detail still reproduces the golden digests bit-for-bit.
#[test]
fn golden_digests_hold_with_recording_on() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let mut acc = Accelerator::new(cfg);
    acc.enable_telemetry(TelemetryConfig {
        detail: SpanDetail::Tiles,
        host_timing: true,
    });
    let run = acc
        .run_batch(&net, &qparams, std::slice::from_ref(&net.test_image(0)))
        .expect("valid image");
    assert_eq!(trace_digests(&run.traces[0]), GOLDEN_DIGESTS);
    assert!(
        !acc.take_telemetry().spans().is_empty(),
        "recording must actually have been on for this to prove anything"
    );
}

/// A serving scenario dense enough to exercise admission, shedding,
/// SLO-aware closing and autoscaling.
fn serve_fixture(seed: u64, spike: bool) -> (Vec<capsacc::serve::Request>, RuntimeConfig, u64) {
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let table = service_cycles_table(&cfg, &net, 8);
    let per_request = table[8] / 8;
    let workload = WorkloadConfig {
        seed,
        requests: 600,
        regime: if spike {
            ArrivalRegime::Spike {
                base_gap_cycles: (3 * per_request / 2) as f64,
                spike_start_cycle: 100 * per_request,
                spike_cycles: 200 * per_request,
                spike_gap_cycles: (per_request / 8).max(1) as f64,
            }
        } else {
            ArrivalRegime::Bursty {
                mean_gap_cycles: per_request as f64,
                mean_burst: 3.0,
            }
        },
        classes: vec![
            ClassConfig {
                weight: 2,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(8 * table[1]),
            },
        ],
    };
    let rt = RuntimeConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: 8,
            max_wait_cycles: 20_000,
        },
        queue_capacity: Some(24),
        deadline_aware: true,
        autoscaler: Some(AutoscalerConfig {
            min_workers: 2,
            max_workers: 3,
            scale_up_queue_per_worker: 6,
            scale_down_idle_cycles: 200_000,
            eval_period_cycles: 50_000,
        }),
        record_events: false,
        resilience: ResilienceConfig::none(),
    };
    (
        workload_trace(&workload),
        rt,
        worker_warmup_cycles(&cfg, &net),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Observing the runtime through a telemetry sink (or the null
    /// sink) leaves the outcome — served set, rejections, per-class
    /// stats, scaling events and the FNV event digest — identical,
    /// regardless of whether the event log itself is retained.
    #[test]
    fn sinks_never_perturb_the_runtime_outcome(
        seed in 0u64..300,
        spike in any::<bool>(),
        record_events in any::<bool>(),
    ) {
        let cfg = AcceleratorConfig::paper();
        let net = CapsNetConfig::mnist();
        let table = service_cycles_table(&cfg, &net, 8);
        let service = |n: usize| table[n];
        let (requests, mut rt, warmup) = serve_fixture(seed, spike);
        rt.record_events = record_events;

        let want = run_runtime(&rt, &requests, &service, warmup);
        let model = ServiceModel::flat(service, warmup);
        let with_null = run_runtime_resilient(&rt, &requests, &model, &mut NullSink);
        prop_assert_eq!(&with_null, &want, "NullSink must be run_runtime");

        let mut sink = RuntimeTelemetry::new(&requests, 4 * table[8]);
        let got = run_runtime_resilient(&rt, &requests, &model, &mut sink);
        prop_assert_eq!(&got, &want, "telemetry sink perturbed the outcome");
        prop_assert_eq!(got.event_digest, want.event_digest);

        // And the timeline it built covers the served set exactly.
        let rec = sink.finish();
        let mut seen: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.args.iter().find(|(k, _)| *k == "req").unwrap().1)
            .collect();
        seen.sort_unstable();
        let served: Vec<u64> = want.served.iter().map(|&r| r as u64).collect();
        prop_assert_eq!(seen, served);
    }
}
