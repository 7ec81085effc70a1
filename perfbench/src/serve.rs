//! The `serve-faults` workload: the fault-tolerant serving runtime in
//! virtual time, with no engine execution.

use std::time::Instant;

use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{AcceleratorConfig, MemoryConfig};
use capsacc_faults::{FaultPlan, ServeFaults};
use capsacc_serve::{
    degraded_service_tables, simulate_runtime_resilient, workload_trace, ArrivalRegime,
    AutoscalerConfig, BatcherConfig, ClassConfig, DegradeConfig, HedgeConfig, LoggedEvent,
    Rejection, Request, ResilienceConfig, RetryConfig, RuntimeConfig, RuntimeOutcome,
    WorkloadConfig,
};

use crate::report::{Sheet, Tally};
use crate::{guarded, ms_since, stats, window, Outcome, Timed};

/// Requests offered per runtime call. Large enough that the runtime's
/// per-event cost dominates, small enough for dozens of calls a run.
const REQUESTS: usize = 50_000;

/// The runtime's batch-size cap (`exp_serve`'s diurnal shape).
const MAX_BATCH: usize = 16;

/// Highest degradation level: routing iterations 3 → 2 → 1.
const MAX_LEVEL: u32 = 2;

/// Seed of the fault plan. Fault decisions are keyed by dispatch
/// number, so a fixed plan crashes the same dispatches whatever the
/// trace; the crash count sets much of the runtime's host cost, and a
/// seed-drawn plan would move it by the luck of the draw. `--seed`
/// draws the trace.
const FAULT_SEED: u64 = 0xFA17;

struct Setup {
    cfg: AcceleratorConfig,
    net: CapsNetConfig,
    rt: RuntimeConfig,
    requests: Vec<Request>,
    trace_gen_ms: f64,
    table_ms: f64,
}

fn setup(seed: u64) -> Setup {
    let mut cfg = AcceleratorConfig::paper();
    cfg.memory = MemoryConfig::paper();
    let net = CapsNetConfig::mnist();
    let t = Instant::now();
    let tables = degraded_service_tables(&cfg, &net, MAX_BATCH, MAX_LEVEL);
    let table_ms = ms_since(t);
    let per_request = tables[0][MAX_BATCH] / MAX_BATCH as u64;
    let t = Instant::now();
    // `exp_serve`'s million-request diurnal day, scaled so the trace
    // still spans one full load cycle.
    let requests = workload_trace(&WorkloadConfig {
        seed,
        requests: REQUESTS,
        regime: ArrivalRegime::Diurnal {
            period_cycles: (REQUESTS as u64 / 2) * per_request,
            offpeak_gap_cycles: (3 * per_request) as f64,
            peak_gap_cycles: (per_request / 3).max(1) as f64,
        },
        classes: vec![
            ClassConfig {
                weight: 3,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(30 * tables[0][1]),
            },
        ],
    });
    let trace_gen_ms = ms_since(t);
    let rt = RuntimeConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: MAX_BATCH,
            max_wait_cycles: 10_000,
        },
        queue_capacity: Some(256),
        deadline_aware: true,
        autoscaler: Some(AutoscalerConfig {
            min_workers: 2,
            max_workers: 8,
            scale_up_queue_per_worker: 16,
            scale_down_idle_cycles: 500_000,
            eval_period_cycles: 100_000,
        }),
        record_events: false,
        resilience: ResilienceConfig {
            faults: FaultPlan::seeded(FAULT_SEED).with_serve(ServeFaults {
                crash_per_dispatch: 0.01,
                straggler_per_dispatch: 0.01,
                straggler_factor: 12,
                ..ServeFaults::none()
            }),
            retry: RetryConfig::standard(),
            hedge: Some(HedgeConfig::standard()),
            degrade: Some(DegradeConfig {
                high_occupancy: 64,
                low_occupancy: 16,
                eval_period_cycles: 100_000,
                max_level: MAX_LEVEL,
            }),
        },
    };
    Setup {
        cfg,
        net,
        rt,
        requests,
        trace_gen_ms,
        table_ms,
    }
}

/// Every offered request is served exactly once or refused exactly once
/// (retry exhaustion is a refusal), and each class's ledger adds up.
fn conserved(requests: &[Request], out: &RuntimeOutcome) -> bool {
    let mut seen = vec![0u32; requests.len()];
    for &r in &out.served {
        seen[r] += 1;
    }
    for r in &out.rejections {
        seen[r.request] += 1;
    }
    out.total_requests == requests.len()
        && seen.iter().all(|&c| c == 1)
        && out
            .class_stats
            .iter()
            .all(|c| c.offered == c.served + c.shed + c.infeasible + c.retry_exhausted)
}

/// Runs `serve-faults`.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, s) = crate::repeat_setup(|| setup(seed));
    let mut tally = Tally::default();
    let mut first: Option<RuntimeOutcome> = None;
    let mut call = |tally: &mut Tally| {
        let t = Instant::now();
        let out = guarded(|| simulate_runtime_resilient(&s.cfg, &s.net, &s.rt, &s.requests));
        let ms = ms_since(t);
        // Same inputs, same outcome: every call must reproduce the first
        // call's event digest.
        let ok = out.as_ref().is_some_and(|o| {
            conserved(&s.requests, o)
                && first
                    .as_ref()
                    .is_none_or(|f| f.event_digest == o.event_digest)
        });
        tally.record(ok);
        if first.is_none() {
            first = out.filter(|_| ok);
        }
        (ms, ok)
    };
    call(&mut tally);
    let mut timed = Timed::new(setup_s, REQUESTS as f64);
    window(seconds, |_, cpu| {
        let (ms, ok) = call(&mut tally);
        timed.op(cpu, ms, ok);
    });
    let mut out = Outcome::new(tally);
    let Some(o) = first else {
        out.end_to_end(&timed);
        return out;
    };
    timed.sim_latency_p99_cycles = o.sim.latency_percentiles()[2] as f64;
    let slo_met: usize = o.class_stats.iter().map(|c| c.slo_met).sum();
    timed.sim_goodput_fraction = slo_met as f64 / o.total_requests as f64;
    if !trace {
        out.end_to_end(&timed);
        return out;
    }
    let mut sheet = out.per_layer(&timed);
    let runtime_s = stats::median(&timed.op_ms).unwrap_or(0.0) / 1e3;
    // One more untimed call that keeps its event log, for the pool size
    // over time.
    let logged = RuntimeConfig {
        record_events: true,
        ..s.rt.clone()
    };
    let events = simulate_runtime_resilient(&s.cfg, &s.net, &logged, &s.requests).events;
    write_runtime_ledger(
        &mut sheet,
        &o,
        &events,
        s.rt.workers,
        s.trace_gen_ms,
        runtime_s,
    );
    let f = o.faults;
    sheet.set("faults.crashes", f.crashes as f64);
    sheet.set("faults.requeues", f.requeues as f64);
    sheet.set("faults.exhausted_batches", f.exhausted_batches as f64);
    sheet.set("faults.hedges", f.hedges as f64);
    sheet.set("faults.degrade_shifts", f.degrade_shifts as f64);
    sheet.set(
        "faults.hedge_win_ratio",
        f.hedge_wins as f64 / f.hedges.max(1) as f64,
    );
    let busy: u64 = o.sim.worker_busy_cycles.iter().sum();
    sheet.set(
        "faults.wasted_cycle_share",
        f.wasted_cycles as f64 / busy.max(1) as f64,
    );
    sheet.set("timing.service_table_host_ms", s.table_ms);
    out.sheet = Some(sheet);
    out
}

/// Writes the `serve.*` ledger of one runtime outcome; `events` is its
/// event log.
pub fn write_runtime_ledger(
    sheet: &mut Sheet,
    o: &RuntimeOutcome,
    events: &[LoggedEvent],
    initial_workers: usize,
    trace_gen_ms: f64,
    runtime_s: f64,
) {
    sheet.set("serve.trace_gen_host_ms", trace_gen_ms);
    sheet.set("serve.runtime_host_s", runtime_s);
    sheet.set("serve.batches", o.sim.batches.len() as f64);
    sheet.set("serve.mean_batch_len", o.sim.mean_batch_len());
    for (kind, name) in [
        (Rejection::QueueFull, "queue_full"),
        (Rejection::DeadlineInfeasible, "deadline_infeasible"),
        (Rejection::ShedLowPriority, "shed_low_priority"),
        (Rejection::RetryExhausted, "retry_exhausted"),
    ] {
        let n = o.rejections.iter().filter(|r| r.rejection == kind).count();
        sheet.set(&format!("serve.rejected.{name}"), n as f64);
    }
    sheet.set(
        "serve.workers_spawned",
        o.sim
            .worker_busy_cycles
            .len()
            .saturating_sub(initial_workers) as f64,
    );
    // A crash retires its worker and spawns a replacement (logged as a
    // scale-up), so the pool size replays from all three events.
    let (mut active, mut peak) = (initial_workers, initial_workers);
    for event in events {
        match event {
            LoggedEvent::ScaledUp { .. } => active += 1,
            LoggedEvent::ScaledDown { .. } | LoggedEvent::WorkerCrashed { .. } => {
                active = active.saturating_sub(1)
            }
            _ => {}
        }
        peak = peak.max(active);
    }
    sheet.set("serve.peak_workers", peak as f64);
    // The low 48 bits, so the digest survives a JSON number exactly.
    sheet.set(
        "serve.event_digest",
        (o.event_digest & ((1 << 48) - 1)) as f64,
    );
}
