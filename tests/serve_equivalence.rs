//! Differential tests for the serving path: requests dispatched through
//! the dynamic micro-batcher and the OS-thread shard pool must produce
//! `QuantTrace`s **bit-identical** to fresh-accelerator sequential runs
//! of the same images — the serving generalization of the
//! batch-equivalence invariant — and the whole virtual-time pipeline
//! must be byte-for-byte deterministic across reruns regardless of how
//! the OS schedules the worker threads.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{Accelerator, AcceleratorConfig, BatchScheduler, EngineBackend, MemoryConfig};
use capsacc::serve::{
    arrival_trace, degraded_service_tables, dispatch_batches, form_batches, run_runtime,
    serve_with_engine, service_cycles_table, simulate_runtime_resilient, AutoscalerConfig,
    BatcherConfig, Request, RuntimeConfig, RuntimeOutcome, ScalingEvent, ShardPool, TraceConfig,
};
use capsacc::tensor::Tensor;
use proptest::prelude::*;

mod common;

/// A bursty best-effort trace of `requests` arrivals. At the tiny
/// scale a batch takes 5.7k-16k cycles, so a 2,000-cycle gap keeps a
/// few workers busy and a 600-cycle gap overloads them.
fn tiny_requests(seed: u64, requests: usize, mean_gap_cycles: f64) -> Vec<Request> {
    arrival_trace(&TraceConfig {
        seed,
        requests,
        mean_gap_cycles,
        mean_burst: 3.0,
    })
    .into_iter()
    .map(Request::best_effort)
    .collect()
}

/// The offline preset at the tiny scale's batching policy.
fn tiny_runtime(workers: usize, max_batch: usize) -> RuntimeConfig {
    RuntimeConfig::offline(
        workers,
        BatcherConfig {
            max_batch,
            max_wait_cycles: 10_000,
        },
    )
}

#[test]
fn shard_pool_traces_are_bit_exact_vs_sequential_runs() {
    // The acceptance anchor: every request's trace through the pool —
    // long-lived weight-resident schedulers on real OS threads — equals
    // a fresh-accelerator sequential run of the same image.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let image = |r: usize| net.test_image(r);
    let (outcome, traces) = serve_with_engine(
        &cfg,
        &net,
        &qparams,
        &tiny_runtime(4, 3),
        &tiny_requests(42, 17, 2_000.0),
        &image,
    )
    .expect("valid serve");
    assert_eq!(traces.len(), 17);
    // Real fan-out happened: several workers actually served batches.
    let active = outcome
        .sim
        .worker_busy_cycles
        .iter()
        .filter(|&&c| c > 0)
        .count();
    assert!(active > 1, "expected a multi-worker serve, got {active}");
    for (r, trace) in traces.iter().enumerate() {
        let mut acc = Accelerator::new(cfg);
        let single = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&net.test_image(r)))
            .expect("valid image");
        assert_eq!(
            &single.traces[0], trace,
            "shard-pool trace diverged from the sequential engine for request {r}"
        );
    }
}

#[test]
fn engine_service_cycles_are_data_and_reuse_independent() {
    // The dispatcher charges one cycle cost per batch *size*, priced by
    // a dry run that reads no image (`service_cycles_table`); that is
    // only sound if real batches — different images, long-lived reused
    // schedulers, any worker — cost exactly the table entry. Run
    // disjoint image sets through a pool and check every measured batch
    // against the table.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 3).quantize(cfg.numeric);
    let table = service_cycles_table(&cfg, &net, 4);
    assert!(table[1] > 0);
    assert!(
        table[4] < 4 * table[1],
        "batched service must amortize: {} vs 4x{}",
        table[4],
        table[1]
    );
    let pool = ShardPool::new(cfg, 2);
    let work: Vec<Vec<Vec<Tensor<f32>>>> = vec![
        vec![
            (0..3).map(|s| net.test_image(s)).collect(),
            (0..1).map(|s| net.test_image(s + 9)).collect(),
        ],
        vec![(0..4).map(|s| net.test_image(s + 3)).collect()],
    ];
    let runs = pool.run_assignments(&net, &qparams, &work).expect("valid");
    for (worker, batches) in runs.iter().enumerate() {
        for run in batches {
            assert_eq!(
                run.total_cycles(),
                table[run.batch],
                "engine cycles diverged from the service table for a batch of {} on worker {worker}",
                run.batch
            );
        }
    }
}

#[test]
fn engine_service_cycles_table_holds_at_mnist_scale() {
    // The service table at the paper design point, priced by dry runs,
    // against real engine batches at full scale on the functional
    // backend: the serve layer's charging discipline.
    let net = CapsNetConfig::mnist();
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let table = service_cycles_table(&cfg, &net, 2);
    assert_eq!(table[0], 0);
    assert!(table[1] > 0);
    assert!(
        table[2] < 2 * table[1],
        "batched service must amortize at paper scale: {} vs 2x{}",
        table[2],
        table[1]
    );
    // Data- and reuse-independence at MNIST scale: a long-lived reused
    // scheduler serving *different* images costs exactly the table
    // entry per batch — the invariant that makes one number per batch
    // size a sound service time for the dispatcher.
    let mut sched = BatchScheduler::new(cfg);
    let images: Vec<Tensor<f32>> = (0..3).map(|r| net.test_image(r)).collect();
    for batch in [&images[..2], &images[2..3], &images[1..3]] {
        let run = sched.run(&net, &qparams, batch).expect("valid batch");
        assert_eq!(
            run.total_cycles(),
            table[run.batch],
            "engine cycles diverged from the service table for a batch of {}",
            run.batch
        );
    }
    // The runtime charges those same cycles end to end.
    let out = run_runtime(
        &tiny_runtime(2, 2),
        &tiny_requests(3, 6, 2_000.0),
        &|n| table[n],
        0,
    )
    .sim;
    for r in &out.requests {
        assert_eq!(r.service_cycles(), table[out.batches[r.batch].len]);
    }
}

#[test]
fn serving_outcome_is_deterministic_across_reruns() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
    let (rt, requests) = (tiny_runtime(3, 4), tiny_requests(7, 11, 2_000.0));
    let image = |r: usize| net.test_image(r);
    let (out1, traces1) =
        serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
    let (out2, traces2) =
        serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
    assert_eq!(out1, out2, "virtual-time outcome must be rerun-identical");
    assert_eq!(traces1, traces2, "traces must be rerun-identical");
    // The simulation without engine work is deterministic too.
    assert_eq!(
        simulate_runtime_resilient(&cfg, &net, &rt, &requests),
        simulate_runtime_resilient(&cfg, &net, &rt, &requests)
    );
}

#[test]
fn worker_scaling_reaches_three_x_at_mnist_scale() {
    // The exp_serve acceptance bound, pinned as a test with the same
    // saturating trace shape: 4 workers ≥ 3× the throughput of 1.
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let requests: Vec<Request> = arrival_trace(&TraceConfig {
        seed: 7,
        requests: 256,
        mean_gap_cycles: 2_000.0,
        mean_burst: 4.0,
    })
    .into_iter()
    .map(Request::best_effort)
    .collect();
    let at = |workers: usize| {
        let batcher = BatcherConfig {
            max_batch: 16,
            max_wait_cycles: 10_000,
        };
        let rt = RuntimeConfig::offline(workers, batcher);
        simulate_runtime_resilient(&cfg, &net, &rt, &requests)
            .sim
            .throughput_per_cycle()
    };
    let (t1, t4) = (at(1), at(4));
    assert!(
        t4 >= 3.0 * t1,
        "worker scaling below 3x: {t4:e} vs {t1:e} images/cycle"
    );
}

/// Serves `requests` through the engine-backed runtime at the tiny
/// scale and checks the pool's side of the contract: one replica per
/// worker the runtime ever had, and one trace per served request,
/// bit-identical to a fresh sequential run of the same image.
fn serve_checked(rt: &RuntimeConfig, requests: &[Request], seed: u64) -> RuntimeOutcome {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
    let image = |r: usize| net.test_image(r + seed as usize);
    let (outcome, traces) =
        serve_with_engine(&cfg, &net, &qparams, rt, requests, &image).expect("valid serve");
    assert_eq!(
        outcome.served.len() + outcome.rejections.len(),
        requests.len()
    );
    assert_eq!(traces.len(), outcome.served.len());
    let spawned = outcome
        .scaling
        .iter()
        .filter(|s| matches!(s, ScalingEvent::Up { .. }))
        .count();
    assert_eq!(outcome.sim.worker_busy_cycles.len(), rt.workers + spawned);
    for (trace, &r) in traces.iter().zip(&outcome.served) {
        let single = Accelerator::new(cfg)
            .run_batch(&net, &qparams, std::slice::from_ref(&image(r)))
            .expect("valid image");
        assert_eq!(&single.traces[0], trace, "request {r} diverged");
    }
    outcome
}

/// Grows a tiny pool whenever more than one request per worker waits.
fn eager_autoscaler() -> AutoscalerConfig {
    AutoscalerConfig {
        min_workers: 1,
        max_workers: 3,
        scale_up_queue_per_worker: 1,
        scale_down_idle_cycles: 20_000,
        eval_period_cycles: 2_000,
    }
}

#[test]
fn engine_backed_serve_sheds_and_autoscales() {
    // One worker behind a 4-deep queue, flooded: the queue sheds, the
    // autoscaler grows the pool to three replicas, and the pool still
    // executes exactly the runtime's decisions.
    let mut rt = tiny_runtime(1, 3);
    rt.queue_capacity = Some(4);
    rt.autoscaler = Some(eager_autoscaler());
    let out = serve_checked(&rt, &tiny_requests(5, 14, 600.0), 5);
    assert!(out.shed_count() > 0, "the bounded queue never shed");
    assert_eq!(out.sim.worker_busy_cycles.len(), 3);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random serving configurations, bounded queues and autoscaling
    /// included: the shard pool executes the runtime's dispatch
    /// decisions and every served request's trace stays bit-exact.
    #[test]
    fn random_serves_stay_bit_exact(
        seed in 0u64..500,
        requests in 1usize..12,
        workers in 1usize..4,
        max_batch in 1usize..4,
        bounded in any::<bool>(),
        capacity in 2usize..6,
        autoscale in any::<bool>(),
    ) {
        let mut rt = tiny_runtime(workers, max_batch);
        rt.queue_capacity = bounded.then_some(capacity);
        rt.autoscaler = autoscale.then(eager_autoscaler);
        serve_checked(&rt, &tiny_requests(seed, requests, 600.0), seed);
    }
}

#[test]
fn online_runtime_reproduces_offline_pipeline_exactly() {
    // The offline-equivalence anchor: with shedding, deadlines,
    // priorities and autoscaling all disabled, the event-driven online
    // runtime must reproduce `form_batches` + `dispatch_batches`
    // bit-exactly — same batches, same workers, same latencies, same
    // `SimOutcome` — so every existing BENCH_serve.json number keeps
    // its meaning under the new runtime.
    let trace = TraceConfig {
        seed: 13,
        requests: 400,
        mean_gap_cycles: 800.0,
        mean_burst: 4.0,
    };
    let batcher = BatcherConfig {
        max_batch: 8,
        max_wait_cycles: 3_000,
    };
    let arrivals = arrival_trace(&trace);
    let requests: Vec<Request> = arrivals.iter().map(|&a| Request::best_effort(a)).collect();
    let service = |n: usize| 5_000 + 600 * n as u64;
    for workers in [1, 3] {
        let offline = dispatch_batches(
            &arrivals,
            &form_batches(&arrivals, &batcher),
            workers,
            &service,
        );
        let online = run_runtime(
            &RuntimeConfig::offline(workers, batcher),
            &requests,
            &service,
            0,
        );
        assert_eq!(online.sim, offline, "anchor broken at {workers} workers");
        assert_eq!(online.served.len(), requests.len());
        assert!(online.rejections.is_empty());
        assert!(online.scaling.is_empty());
    }
    // And the dry-run-priced preset at the accelerator design point.
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let table = service_cycles_table(&cfg, &net, batcher.max_batch);
    let offline = dispatch_batches(&arrivals, &form_batches(&arrivals, &batcher), 2, &|n| {
        table[n]
    });
    let online =
        simulate_runtime_resilient(&cfg, &net, &RuntimeConfig::offline(2, batcher), &requests);
    assert_eq!(online.sim, offline);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The offline-equivalence anchor holds across random traces,
    /// batcher policies and pool sizes — including zero-wait batching
    /// and same-cycle bursts, the trickiest event-ordering corners.
    #[test]
    fn online_offline_equivalence_holds_on_random_traces(
        gaps in proptest::collection::vec(0u64..400, 1..120),
        max_batch in 1usize..7,
        max_wait in 0u64..600,
        workers in 1usize..5,
        base in 1u64..4_000,
    ) {
        let mut t = 0u64;
        let arrivals: Vec<u64> = gaps.iter().map(|&g| { t += g; t }).collect();
        let requests: Vec<Request> =
            arrivals.iter().map(|&a| Request::best_effort(a)).collect();
        let batcher = BatcherConfig { max_batch, max_wait_cycles: max_wait };
        let service = move |n: usize| base + 23 * n as u64;
        let offline = dispatch_batches(
            &arrivals,
            &form_batches(&arrivals, &batcher),
            workers,
            &service,
        );
        let online = run_runtime(&RuntimeConfig::offline(workers, batcher), &requests, &service, 0);
        prop_assert_eq!(&online.sim, &offline);
        prop_assert!(online.rejections.is_empty());
    }
}

#[test]
fn dispatch_composes_with_engine_latency_model() {
    // End-to-end sanity on the latency decomposition: queue wait +
    // service = latency for every request, and the service term is the
    // dry run's batch cost (which
    // `engine_service_cycles_are_data_and_reuse_independent` ties to
    // executed batches).
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let trace = TraceConfig {
        seed: 9,
        requests: 20,
        mean_gap_cycles: 1_500.0,
        mean_burst: 2.0,
    };
    let batcher = BatcherConfig {
        max_batch: 4,
        max_wait_cycles: 5_000,
    };
    let arrivals = arrival_trace(&trace);
    let batches = form_batches(&arrivals, &batcher);
    let table = service_cycles_table(&cfg, &net, batcher.max_batch);
    let out = dispatch_batches(&arrivals, &batches, 2, &|n| table[n]);
    for r in &out.requests {
        assert_eq!(
            r.latency_cycles(),
            r.queue_wait_cycles() + r.service_cycles()
        );
        let b = &out.batches[r.batch];
        assert_eq!(r.service_cycles(), table[b.len]);
        let priced = Accelerator::new(cfg)
            .price_batch(&net, b.len)
            .expect("non-empty batch");
        assert_eq!(priced.total_cycles(), table[b.len]);
    }
}

#[test]
fn service_tables_on_one_accelerator_equal_fresh_dry_runs() {
    // `degraded_service_tables` prices every (level, batch size) on one
    // accelerator, levels inner, so its memory subsystem remembers the
    // replays the levels share. Each entry equals a dry run of that
    // batch on a fresh accelerator, under the paper memory hierarchy
    // where the replays stall.
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig {
        memory: MemoryConfig::paper(),
        ..AcceleratorConfig::paper()
    };
    let tables = degraded_service_tables(&cfg, &net, 4, 2);
    assert_eq!(tables[0], service_cycles_table(&cfg, &net, 4));
    for (level, table) in tables.iter().enumerate() {
        let mut shed = net;
        shed.routing_iterations -= level;
        assert_eq!(table[0], 0);
        for (n, &cycles) in table.iter().enumerate().skip(1) {
            let fresh = Accelerator::new(cfg)
                .price_batch(&shed, n)
                .expect("non-empty batch");
            assert_eq!(cycles, fresh.total_cycles(), "level {level}, batch {n}");
        }
    }
}
