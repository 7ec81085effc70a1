//! # capsacc-serve — deterministic multi-worker request serving
//!
//! This crate builds a request-serving layer over the engine in
//! `capsacc-core`, as a simulator with one hard invariant: **everything is virtual time** — no wall clock, no
//! nondeterminism — so every run is byte-for-byte reproducible, even
//! though real OS threads do the engine work.
//!
//! All serving goes through one event-driven runtime,
//! [`run_runtime_resilient`]: a sorted [`Request`] trace, a
//! [`RuntimeConfig`] (micro-batcher, workers, admission queue bound,
//! SLO-aware early closes, autoscaler, [`ResilienceConfig`] faults and
//! recovery), a [`ServiceModel`] that prices a batch of `n` at each
//! degradation level, and an [`EventSink`] observer. Three presets
//! wrap it:
//!
//! - [`run_runtime`] — a flat `service(n)` table and warmup
//!   ([`ServiceModel::flat`]), no observer;
//! - [`simulate_runtime_resilient`] — closed-form service tables per
//!   degradation level ([`degraded_service_tables`]) and respawn
//!   warmups staged through the memory-fault path, at an accelerator
//!   design point;
//! - [`serve_with_engine`] — measured engine cycles
//!   ([`engine_service_cycles_table`]), with the runtime's dispatch
//!   decisions executed on a [`ShardPool`] of engine replicas on OS
//!   threads, so every served request also gets its functional trace.
//!
//! Latency is reported per request (queue wait + batch position +
//! batch cycles → [`RequestStat`]) and aggregated into p50/p95/p99 and
//! throughput by [`SimOutcome`]; refusals are typed [`Rejection`]s.
//!
//! The offline pipeline — [`arrival_trace`] → [`form_batches`] →
//! [`dispatch_batches`] — sees the whole trace at once. It is kept as
//! the runtime's reference: under [`RuntimeConfig::offline`] the
//! runtime reproduces it bit-exactly, which the anchor tests in
//! `tests/serve_equivalence.rs` check over random traces. Multi-class
//! overload traffic comes from [`workload_trace`].
//!
//! # Example
//!
//! ```
//! use capsacc_capsnet::CapsNetConfig;
//! use capsacc_core::AcceleratorConfig;
//! use capsacc_serve::{
//!     arrival_trace, simulate_runtime_resilient, BatcherConfig, Request, RuntimeConfig,
//!     TraceConfig,
//! };
//!
//! let trace = TraceConfig { seed: 7, requests: 64, mean_gap_cycles: 2_000.0, mean_burst: 4.0 };
//! let requests: Vec<Request> =
//!     arrival_trace(&trace).into_iter().map(Request::best_effort).collect();
//! let batcher = BatcherConfig { max_batch: 16, max_wait_cycles: 100_000 };
//! let rt = RuntimeConfig::offline(4, batcher);
//! let (cfg, net) = (AcceleratorConfig::paper(), CapsNetConfig::mnist());
//! let out = simulate_runtime_resilient(&cfg, &net, &rt, &requests);
//! assert_eq!(out.served.len(), 64);
//! let [p50, p95, p99] = out.sim.latency_percentiles();
//! assert!(p50 <= p95 && p95 <= p99);
//! // Byte-identical on rerun: the whole pipeline is virtual-time.
//! assert_eq!(out, simulate_runtime_resilient(&cfg, &net, &rt, &requests));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod batcher;
mod pool;
mod runtime;
mod sim;
pub mod telemetry;
mod trace;

pub use batcher::{form_batches, BatcherConfig, ConfigError, MicroBatch};
pub use capsacc_telemetry::percentile;
pub use pool::{PoolError, ShardPool};
pub use runtime::{
    run_runtime, run_runtime_resilient, AutoscalerConfig, ClassStats, CloseCause, DegradeConfig,
    EventSink, FaultStats, HedgeConfig, LoggedEvent, NullSink, Rejection, RejectionRecord,
    ResilienceConfig, RetryConfig, RuntimeConfig, RuntimeOutcome, ScalingEvent, ServiceModel,
};
pub use sim::{dispatch_batches, BatchStat, RequestStat, SimOutcome};
pub use telemetry::RuntimeTelemetry;
pub use trace::{
    arrival_trace, workload_trace, ArrivalRegime, ClassConfig, Request, TraceConfig,
    WorkloadConfig, VIRTUAL_TIME_HORIZON,
};

use capsacc_capsnet::{CapsNetConfig, QuantTrace, QuantizedParams};
use capsacc_core::{timing, AcceleratorConfig, BatchScheduler};
use capsacc_memory::MemorySubsystem;
use capsacc_tensor::{u64_from, Tensor};

/// Precomputes the closed-form cycle model for every batch size up to
/// `max_batch`, including memory-hierarchy stalls under `cfg.memory` —
/// the `service(n)` the dispatcher charges at MNIST scale, where
/// ticking the engine per batch would be prohibitive.
pub fn service_cycles_table(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    max_batch: usize,
) -> Vec<u64> {
    let mut table = vec![0u64; max_batch + 1];
    for (n, slot) in table.iter_mut().enumerate().skip(1) {
        *slot = timing::full_inference_batch_mem(cfg, net, u64_from(n)).total_cycles();
    }
    table
}

/// Measures the *engine's* [`capsacc_core::BatchRun`] cycle cost for
/// every batch size up to `max_batch`, by running scratch batches of
/// deterministic dummy images through a fresh scheduler per size.
///
/// Batch cycle counts are data-independent (the array ticks by shape,
/// not value) and independent of scheduler reuse, so this table is
/// exact for every real batch of the same size —
/// [`serve_with_engine`] asserts exactly that against each batch the
/// shard pool actually serves.
///
/// At MNIST scale, build the table with
/// `cfg.backend = EngineBackend::Functional` (and typically
/// `cfg.trace_level = TraceLevel::Outputs`): the functional backend
/// charges the identical cycles at wall-clock speed, so paper-scale
/// engine service tables are practical where ticking every PE was not
/// (pinned by `tests/serve_equivalence.rs::
/// engine_service_cycles_table_holds_at_mnist_scale`).
pub fn engine_service_cycles_table(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    max_batch: usize,
) -> Vec<u64> {
    let dummy = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        ((i[1] * 3 + i[2]) % 11) as f32 / 11.0
    });
    let mut table = vec![0u64; max_batch + 1];
    for (n, slot) in table.iter_mut().enumerate().skip(1) {
        *slot = BatchScheduler::new(*cfg)
            .run(net, qparams, &vec![dummy.clone(); n])
            .expect("dummy batch is valid")
            .total_cycles();
    }
    table
}

/// Cycles an autoscaled worker spin-up spends filling its weight
/// memory: the whole parameter set (`dram_weight_bytes ==
/// total_parameters()`, 8-bit weights) streamed through the
/// [`MemorySubsystem`]'s weight channel under `cfg.memory`. Zero under
/// the ideal memory model — spin-ups are then instantaneous, exactly
/// as the rest of the cycle model treats weights as resident.
pub fn worker_warmup_cycles(cfg: &AcceleratorConfig, net: &CapsNetConfig) -> u64 {
    MemorySubsystem::new(cfg.memory).stage_weights(u64_from(net.total_parameters()))
}

/// Per-degradation-level service tables: level `l` sheds routing
/// iterations (3 → 2 → 1 under the paper network), never below one, and
/// prices each level with the closed-form cycle model. `tables[l][n]`
/// is a batch-of-`n`'s cycle cost at degradation level `l`; level 0 is
/// exactly [`service_cycles_table`].
pub fn degraded_service_tables(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    max_batch: usize,
    max_level: u32,
) -> Vec<Vec<u64>> {
    (0..=usize::try_from(max_level).expect("degradation level fits usize"))
        .map(|l| {
            let mut shed = *net;
            shed.routing_iterations = shed.routing_iterations.saturating_sub(l).max(1);
            service_cycles_table(cfg, &shed, max_batch)
        })
        .collect()
}

/// The runtime at an accelerator design point, with fault injection
/// and recovery armed from [`RuntimeConfig::resilience`]: service
/// times come from [`degraded_service_tables`] (graceful degradation
/// sheds routing iterations per level), autoscaled spin-ups pay
/// [`worker_warmup_cycles`], and crash-replacement warmups are staged
/// burst by burst through
/// [`MemorySubsystem::stage_weights_faulted`], so memory-layer faults
/// surface as honestly charged, longer spin-ups. Each respawn draws in
/// its own burst-sequence window (`respawn_seq << 32`); with no memory
/// faults in the plan it costs exactly [`worker_warmup_cycles`].
///
/// With [`ResilienceConfig::none`] this is byte-identical to
/// [`run_runtime`] over [`service_cycles_table`] and
/// [`worker_warmup_cycles`] — same events, same digest, same outcome.
///
/// # Panics
///
/// Panics if `cfg` fails [`AcceleratorConfig::validate`], or under
/// [`run_runtime_resilient`]'s conditions.
pub fn simulate_runtime_resilient(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    rt: &RuntimeConfig,
    requests: &[Request],
) -> RuntimeOutcome {
    cfg.validate().expect("invalid accelerator configuration");
    let max_level = rt.resilience.degrade.map_or(0, |d| d.max_level);
    let tables = degraded_service_tables(cfg, net, rt.batcher.max_batch, max_level);
    let plan = rt.resilience.faults;
    let mem_cfg = cfg.memory;
    let param_bytes = u64_from(net.total_parameters());
    let model = ServiceModel {
        service: Box::new(move |level, n| {
            let l = usize::try_from(level.min(max_level)).expect("degradation level fits usize");
            tables[l][n]
        }),
        respawn_warmup: Box::new(move |seq| {
            MemorySubsystem::new(mem_cfg)
                .stage_weights_faulted(param_bytes, &plan, seq << 32)
                .cycles
        }),
        warmup_cycles: worker_warmup_cycles(cfg, net),
    };
    run_runtime_resilient(rt, requests, &model, &mut NullSink)
}

/// Serves `requests` through the runtime on the **engine's own**
/// `BatchRun` cycle costs ([`engine_service_cycles_table`], autoscaled
/// spin-ups charged [`worker_warmup_cycles`]), then executes the
/// runtime's dispatch decisions on a [`ShardPool`] of engine replicas
/// on OS threads — one replica per worker that was ever active, each
/// running its batches in dispatch order.
///
/// Every batch the pool serves is asserted to cost exactly its table
/// entry, so the simulated latencies *are* engine latencies, not
/// estimates. Every configuration [`RuntimeConfig::validate`] accepts
/// is served, bounded queues, deadlines and autoscaling included. The
/// service model is level-blind ([`ServiceModel::flat`]), so batches
/// the degradation controller marks run, and are charged, at full
/// quality.
///
/// Returns the runtime's outcome and one [`QuantTrace`] per
/// [`RuntimeOutcome::served`] entry, in the same order. `image_for(r)`
/// supplies request `r`'s input. Each trace is bit-exact against a
/// fresh-accelerator sequential run of the same image — the serving
/// generalization of the batch-equivalence invariant, pinned by
/// `tests/serve_equivalence.rs`.
///
/// # Errors
///
/// Returns [`PoolError::Batch`] if any generated image has the wrong
/// shape, [`PoolError::WorkerPanicked`] if a pool thread died.
///
/// # Panics
///
/// Panics under [`run_runtime_resilient`]'s conditions, or if a served
/// batch's measured cycles diverge from the service table (which would
/// mean batch cycles are not data-independent — a broken engine
/// invariant).
pub fn serve_with_engine(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    qparams: &QuantizedParams,
    rt: &RuntimeConfig,
    requests: &[Request],
    image_for: &dyn Fn(usize) -> Tensor<f32>,
) -> Result<(RuntimeOutcome, Vec<QuantTrace>), PoolError> {
    // The runtime checks `service(n) > 0` for every batch size before
    // it starts, so it needs the whole table.
    let table = engine_service_cycles_table(cfg, net, qparams, rt.batcher.max_batch);
    let outcome = run_runtime(rt, requests, &|n| table[n], worker_warmup_cycles(cfg, net));

    // Each batch's request ids in slot order, then each worker's batch
    // list as images.
    let mut members: Vec<Vec<usize>> = outcome.sim.batches.iter().map(|b| vec![0; b.len]).collect();
    for (stat, &request) in outcome.sim.requests.iter().zip(&outcome.served) {
        members[stat.batch][stat.slot] = request;
    }
    let assignments = outcome.sim.assignments();
    let work: Vec<Vec<Vec<Tensor<f32>>>> = assignments
        .iter()
        .map(|batch_ids| {
            batch_ids
                .iter()
                .map(|&b| members[b].iter().map(|&r| image_for(r)).collect())
                .collect()
        })
        .collect();
    let runs = ShardPool::new(*cfg, assignments.len()).run_assignments(net, qparams, &work)?;

    // Check every measured batch cost against what the runtime charged,
    // then hand each served request the trace of its batch slot.
    let mut batch_runs = vec![None; outcome.sim.batches.len()];
    for (worker, (worker_runs, batch_ids)) in runs.iter().zip(&assignments).enumerate() {
        for (run, &b) in worker_runs.iter().zip(batch_ids) {
            assert_eq!(
                run.total_cycles(),
                table[run.batch],
                "measured batch cycles diverged from the service table \
                 (batch of {} on worker {worker})",
                run.batch
            );
            batch_runs[b] = Some(run);
        }
    }
    let traces = outcome
        .sim
        .requests
        .iter()
        .map(|stat| {
            let run = batch_runs[stat.batch].expect("every batch ran");
            run.traces[stat.slot].clone()
        })
        .collect();
    Ok((outcome, traces))
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsacc_capsnet::CapsNetParams;

    #[test]
    fn offline_preset_validation_composes() {
        let batcher = BatcherConfig {
            max_batch: 4,
            max_wait_cycles: 100,
        };
        assert_eq!(RuntimeConfig::offline(2, batcher).validate(), Ok(()));
        assert_eq!(
            RuntimeConfig::offline(0, batcher).validate(),
            Err(ConfigError::ZeroWorkers)
        );
        let empty = BatcherConfig {
            max_batch: 0,
            ..batcher
        };
        assert!(RuntimeConfig::offline(2, empty).validate().is_err());
    }

    #[test]
    fn service_table_is_monotone_and_subadditive() {
        let cfg = AcceleratorConfig::paper();
        let net = CapsNetConfig::mnist();
        let table = service_cycles_table(&cfg, &net, 8);
        assert_eq!(table[0], 0);
        for n in 1..table.len() {
            assert!(table[n] > table[n - 1], "bigger batches cost more total");
        }
        // ...but amortize per image: the whole point of micro-batching.
        assert!(table[8] < 8 * table[1]);
    }

    #[test]
    fn engine_backed_serve_reproduces_its_own_dispatch() {
        // The pool-backed path charges the engine's measured batch
        // costs: its outcome must equal a bare runtime run over the
        // engine service table — and, under the offline preset, the
        // offline dispatch — and be rerun-identical.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        let rt = RuntimeConfig::offline(
            2,
            BatcherConfig {
                max_batch: 3,
                max_wait_cycles: 50_000,
            },
        );
        let arrivals = arrival_trace(&TraceConfig {
            seed: 11,
            requests: 10,
            mean_gap_cycles: 3_000.0,
            mean_burst: 2.0,
        });
        let requests: Vec<Request> = arrivals.iter().map(|&a| Request::best_effort(a)).collect();
        let image = |s: usize| net.test_image(s);
        let (outcome, traces) =
            serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
        assert_eq!(traces.len(), 10);
        let table = engine_service_cycles_table(&cfg, &net, &qparams, rt.batcher.max_batch);
        let bare = run_runtime(
            &rt,
            &requests,
            &|n| table[n],
            worker_warmup_cycles(&cfg, &net),
        );
        assert_eq!(outcome, bare);
        let batches = form_batches(&arrivals, &rt.batcher);
        let offline = dispatch_batches(&arrivals, &batches, rt.workers, &|n| table[n]);
        assert_eq!(outcome.sim, offline);
        let (again, traces_again) =
            serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
        assert_eq!(outcome, again);
        assert_eq!(traces, traces_again);
    }
}
