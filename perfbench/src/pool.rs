//! The `pool-b4` workload: a bursty request trace batched by the serving
//! runtime, its dispatch decisions executed on real threads by the shard
//! pool.

use std::time::Instant;

use capsacc_core::{BatchRun, BatchScheduler};
use capsacc_serve::{
    run_runtime, service_cycles_table, worker_warmup_cycles, workload_trace, ArrivalRegime,
    BatcherConfig, ClassConfig, ResilienceConfig, RuntimeConfig, RuntimeOutcome, ShardPool,
    WorkloadConfig,
};
use capsacc_tensor::Tensor;

use crate::engine::{
    digits, enable_host_telemetry, overhead, sim_totals, write_sim_ledger, Checks, HostLedger,
    Model,
};
use crate::serve::write_runtime_ledger;
use crate::{guarded, ms_since, stats, window, Outcome, Timed};

/// Requests in the trace one pool call serves.
const REQUESTS: usize = 32;

/// The runtime's batch-size cap.
const MAX_BATCH: usize = 4;

/// Seed of the arrival trace. The trace's shape is part of the workload
/// (32 requests are too few for batch sizes and queueing to average out
/// across seeds); `--seed` draws the digits and the parameters.
const TRACE_SEED: u64 = 0x5EED;

/// Replicas, each one engine thread. One, not `nproc`: on a host whose
/// second CPU comes and goes, a two-replica call takes one or two
/// single-replica times (18 vs 34 ms per image in alternating runs of
/// the same seed), so its median has no steady value to bound.
const WORKERS: usize = 1;

struct Setup {
    model: Model,
    images: Vec<Tensor<f32>>,
    /// Request ids of each closed batch, in slot order.
    members: Vec<Vec<usize>>,
    outcome: RuntimeOutcome,
    pool: ShardPool,
    trace_gen_ms: f64,
    runtime_ms: f64,
    table_ms: f64,
}

impl Setup {
    /// Worker `w`'s batch list as request ids, in dispatch order.
    fn assignments(&self) -> Vec<Vec<Vec<usize>>> {
        self.outcome
            .sim
            .assignments()
            .iter()
            .map(|batches| batches.iter().map(|&b| self.members[b].clone()).collect())
            .collect()
    }
}

fn setup(seed: u64) -> Setup {
    let model = Model::new(seed);
    let t = Instant::now();
    let table = service_cycles_table(&model.cfg, &model.net, MAX_BATCH);
    let table_ms = ms_since(t);
    let per_request = table[MAX_BATCH] / MAX_BATCH as u64;
    let t = Instant::now();
    let requests = workload_trace(&WorkloadConfig {
        seed: TRACE_SEED,
        requests: REQUESTS,
        regime: ArrivalRegime::Bursty {
            mean_gap_cycles: (2 * per_request) as f64,
            mean_burst: 3.0,
        },
        classes: vec![ClassConfig {
            weight: 1,
            slo_cycles: None,
        }],
    });
    let trace_gen_ms = ms_since(t);
    let rt = RuntimeConfig {
        workers: WORKERS,
        batcher: BatcherConfig {
            max_batch: MAX_BATCH,
            max_wait_cycles: per_request,
        },
        queue_capacity: None,
        deadline_aware: false,
        autoscaler: None,
        record_events: true,
        resilience: ResilienceConfig::none(),
    };
    let warmup = worker_warmup_cycles(&model.cfg, &model.net);
    let t = Instant::now();
    let outcome = run_runtime(&rt, &requests, &|n| table[n], warmup);
    let runtime_ms = ms_since(t);
    let mut members = vec![Vec::new(); outcome.sim.batches.len()];
    for (stat, &request) in outcome.sim.requests.iter().zip(&outcome.served) {
        let batch = &mut members[stat.batch];
        if batch.len() <= stat.slot {
            batch.resize(stat.slot + 1, usize::MAX);
        }
        batch[stat.slot] = request;
    }
    let images = digits(seed, REQUESTS);
    let pool = ShardPool::new(model.cfg, WORKERS);
    Setup {
        model,
        images,
        members,
        outcome,
        pool,
        trace_gen_ms,
        runtime_ms,
        table_ms,
    }
}

/// Runs `pool-b4`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, s) = crate::repeat_setup(|| setup(seed));
    let assignments = s.assignments();
    let work: Vec<Vec<Vec<Tensor<f32>>>> = assignments
        .iter()
        .map(|batches| {
            batches
                .iter()
                .map(|ids| ids.iter().map(|&r| s.images[r].clone()).collect())
                .collect()
        })
        .collect();
    let mut checks = Checks::new(s.images.len());
    let served: usize = assignments.iter().flatten().map(Vec::len).sum();
    // Every offered request is served: no queue bound, no faults.
    checks
        .tally
        .record(served == REQUESTS && s.outcome.rejections.is_empty());
    let pool_call = |checks: &mut Checks| {
        let t = Instant::now();
        let runs = guarded(|| {
            s.pool
                .run_assignments(&s.model.net, &s.model.qparams, &work)
        });
        let ms = ms_since(t);
        // A worker that returned fewer runs than it was assigned would
        // leave batches unchecked, so the shapes must match first.
        let mut ok = matches!(&runs, Some(Ok(runs)) if runs.len() == assignments.len()
            && runs.iter().zip(&assignments).all(|(r, a)| r.len() == a.len()));
        match runs {
            Some(Ok(runs)) if ok => {
                for (w, batches) in runs.iter().enumerate() {
                    for (run, ids) in batches.iter().zip(&assignments[w]) {
                        ok &= checks.batch(Some(run), ids);
                    }
                }
                (ms, ok.then_some(runs))
            }
            _ => {
                checks.tally.record(false);
                (ms, None)
            }
        }
    };
    let (_, mut last) = pool_call(&mut checks);
    let mut timed = Timed::new(setup_s, REQUESTS as f64);
    let (mut serial, mut traced) = (Vec::new(), Vec::new());
    let mut host = HostLedger::default();
    window(seconds, |_, cpu| {
        let (ms, runs) = pool_call(&mut checks);
        timed.op(cpu, ms, runs.is_some());
        last = runs.or(last.take());
        if trace {
            // The same batches replayed in dispatch order on one
            // scheduler: untraced for the parallel efficiency, traced
            // for the host ledger and the telemetry overhead.
            let mut sched = BatchScheduler::new(s.model.cfg);
            serial.push(replay(&mut sched, &s.model, &work));
            enable_host_telemetry(&mut sched);
            let ms = replay(&mut sched, &s.model, &work);
            host.add(&sched.accelerator_mut().take_telemetry(), REQUESTS, ms);
            traced.push(ms);
        }
    });
    checks.verify_sample(&s.model, &s.images, seed);
    let mut out = Outcome::new(checks.tally);
    let runs: Vec<&BatchRun> = last.iter().flatten().flatten().collect();
    let totals = sim_totals(&s.model.cfg, &runs);
    if totals.images > 0 {
        timed.sim_cycles_per_image = totals.cycles as f64 / totals.images as f64;
    }
    timed.sim_latency_p99_cycles = s.outcome.sim.latency_percentiles()[2] as f64;
    if !trace {
        out.end_to_end(&timed);
        return out;
    }
    let mut sheet = out.per_layer(&timed);
    host.write(&mut sheet);
    write_sim_ledger(&mut sheet, &s.model.cfg, &runs);
    let pool_ms = stats::median(&timed.op_ms).unwrap_or(0.0);
    sheet.set("pool.host_s", pool_ms / 1e3);
    sheet.set(
        "pool.parallel_efficiency",
        stats::median(&serial).unwrap_or(0.0) / (pool_ms * WORKERS as f64),
    );
    sheet.set("telemetry.overhead_fraction", overhead(&traced, &serial));
    sheet.set("timing.service_table_host_ms", s.table_ms);
    let o = &s.outcome;
    write_runtime_ledger(
        &mut sheet,
        o,
        &o.events,
        WORKERS,
        s.trace_gen_ms,
        s.runtime_ms / 1e3,
    );
    out.sheet = Some(sheet);
    out
}

/// Replays every worker's batch list in order on `sched`; host ms.
fn replay(sched: &mut BatchScheduler, model: &Model, work: &[Vec<Vec<Tensor<f32>>>]) -> f64 {
    let t = Instant::now();
    for images in work.iter().flatten() {
        let _ = sched.run(&model.net, &model.qparams, images);
    }
    ms_since(t)
}
