//! Multi-worker serving sweeps (beyond the paper) at the paper 16×16
//! configuration. Batch service times come from the engine:
//! [`service_cycles_table`] prices each batch size with a dry run
//! (`Accelerator::price_batch`), whose cycles are those of every
//! executed batch of that size.
//!
//! Two sweeps:
//!
//! 1. **saturating** — the runtime under the offline preset
//!    (`RuntimeConfig::offline`) and saturating load:
//!    throughput/latency/utilization across workers × batcher
//!    policies;
//! 2. **overload-and-recovery** — the online runtime against a flash
//!    crowd (Spike regime): admission queue bounds × autoscaling, with
//!    goodput, shed rate and per-class SLO attainment columns, plus a
//!    million-request diurnal scale point.
//!
//! Asserts serving invariants on every run:
//!
//! 1. **worker scaling** — under saturating load, 4 workers deliver at
//!    least 3× the aggregate throughput of 1 worker at fixed
//!    `max_batch`;
//! 2. **offline anchor** — the runtime under the offline preset
//!    reproduces the reference pipeline (`form_batches` +
//!    `dispatch_batches`) bit-exactly;
//! 3. **overload behavior** — the flash crowd forces a positive shed
//!    rate on the bounded queue, and the served fraction of post-spike
//!    arrivals recovers to ≥ 95% of the pre-spike level;
//! 4. **determinism** — rerunning every sweep produces byte-identical
//!    reports and event digests (virtual time only, no wall clock).
//!
//! Plus a cycle-accurate validation at the tiny scale: requests served
//! through real OS-thread `BatchScheduler` workers produce traces
//! bit-exact against fresh sequential runs, and every batch costs its
//! service-table entry.
//!
//! Emits `BENCH_serve.json` into the current directory so CI records
//! the serving-perf trajectory (see `ci.sh`).

use std::fs;

use capsacc_bench::{json_row, print_table, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{Accelerator, AcceleratorConfig};
use capsacc_serve::{
    arrival_trace, dispatch_batches, form_batches, run_runtime, serve_with_engine,
    service_cycles_table, workload_trace, ArrivalRegime, AutoscalerConfig, BatcherConfig,
    ClassConfig, Request, ResilienceConfig, RuntimeConfig, RuntimeOutcome, ScalingEvent,
    TraceConfig, WorkloadConfig,
};
use capsacc_tensor::u64_from;

/// One measured point of the saturating sweep.
struct Row {
    workers: usize,
    max_batch: usize,
    max_wait_cycles: u64,
    throughput_img_s: f64,
    p50_cycles: u64,
    p95_cycles: u64,
    p99_cycles: u64,
    mean_batch: f64,
    mean_utilization: f64,
}

/// One measured point of the overload sweep.
struct OverloadRow {
    queue_capacity: usize,
    autoscale: bool,
    served: usize,
    shed_rate: f64,
    goodput_img_s: f64,
    attainment_standard: f64,
    attainment_premium: f64,
    peak_workers: usize,
    event_digest: u64,
}

/// A saturating trace: ~1 request per 500 cycles of virtual time —
/// orders of magnitude beyond one worker's MNIST capacity, so the
/// worker-scaling headline is load-bound, not arrival-bound.
fn trace() -> TraceConfig {
    TraceConfig {
        seed: 7,
        requests: 512,
        mean_gap_cycles: 2_000.0,
        mean_burst: 4.0,
    }
}

/// The largest `max_batch` any sweep point uses — the service table is
/// built once up to this size and shared across every sweep.
const SWEEP_MAX_BATCH: usize = 32;

/// The saturating sweep against the `service(n)` table.
fn sweep(table: &[u64], clock_hz: f64) -> Vec<Row> {
    let requests: Vec<Request> = arrival_trace(&trace())
        .into_iter()
        .map(Request::best_effort)
        .collect();
    let mut rows = Vec::new();
    for &max_batch in &[4usize, 16, 32] {
        for &max_wait_cycles in &[10_000u64, 1_000_000] {
            for &workers in &[1usize, 2, 4, 8] {
                let batcher = BatcherConfig {
                    max_batch,
                    max_wait_cycles,
                };
                let rt = RuntimeConfig::offline(workers, batcher);
                let out = run_runtime(&rt, &requests, &|n| table[n], 0).sim;
                let [p50, p95, p99] = out.latency_percentiles();
                let mean_utilization =
                    (0..workers).map(|w| out.utilization(w)).sum::<f64>() / workers as f64;
                rows.push(Row {
                    workers,
                    max_batch,
                    max_wait_cycles,
                    throughput_img_s: out.throughput_per_cycle() * clock_hz,
                    p50_cycles: p50,
                    p95_cycles: p95,
                    p99_cycles: p99,
                    mean_batch: out.mean_batch_len(),
                    mean_utilization,
                });
            }
        }
    }
    rows
}

/// The overload workload: comfortable base traffic with a flash crowd
/// sized off the service table, so the spike overloads the base pool
/// by ~8× regardless of how the cycle model evolves.
fn overload_workload(per_request_cycles: u64, service_1: u64) -> (WorkloadConfig, u64, u64) {
    // Two base workers: base traffic at 1/3 of their joint capacity,
    // spike at ~8/3 of it.
    let base_gap = (3 * per_request_cycles / 2) as f64;
    let spike_gap = (per_request_cycles / 4).max(1) as f64;
    let spike_start = 200 * per_request_cycles;
    let spike_cycles = 300 * per_request_cycles;
    let cfg = WorkloadConfig {
        seed: 23,
        requests: 2_000,
        regime: ArrivalRegime::Spike {
            base_gap_cycles: base_gap,
            spike_start_cycle: spike_start,
            spike_cycles,
            spike_gap_cycles: spike_gap,
        },
        classes: vec![
            ClassConfig {
                weight: 2,
                slo_cycles: None,
            },
            // "standard": generous latency budget.
            ClassConfig {
                weight: 2,
                slo_cycles: Some(30 * service_1),
            },
            // "premium": tight but feasible budget, shed last.
            ClassConfig {
                weight: 1,
                slo_cycles: Some(6 * service_1),
            },
        ],
    };
    (cfg, spike_start, spike_start + spike_cycles)
}

fn overload_runtime(queue_capacity: usize, autoscale: bool) -> RuntimeConfig {
    RuntimeConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: 16,
            max_wait_cycles: 20_000,
        },
        queue_capacity: Some(queue_capacity),
        deadline_aware: true,
        autoscaler: autoscale.then_some(AutoscalerConfig {
            min_workers: 2,
            max_workers: 6,
            scale_up_queue_per_worker: 8,
            scale_down_idle_cycles: 200_000,
            eval_period_cycles: 50_000,
        }),
        record_events: false,
        resilience: ResilienceConfig::none(),
    }
}

fn overload_sweep(
    requests: &[Request],
    service: &dyn Fn(usize) -> u64,
    warmup: u64,
    clock_hz: f64,
) -> Vec<OverloadRow> {
    let mut rows = Vec::new();
    for &queue_capacity in &[16usize, 64, 256] {
        for &autoscale in &[false, true] {
            let out = run_runtime(
                &overload_runtime(queue_capacity, autoscale),
                requests,
                service,
                warmup,
            );
            // Peak concurrently-active pool size, replayed from the
            // in-order scaling record.
            let mut active = 2usize;
            let mut peak_workers = active;
            for s in &out.scaling {
                match s {
                    ScalingEvent::Up { .. } => active += 1,
                    ScalingEvent::Down { .. } => active -= 1,
                }
                peak_workers = peak_workers.max(active);
            }
            rows.push(OverloadRow {
                queue_capacity,
                autoscale,
                served: out.served.len(),
                shed_rate: out.shed_rate(),
                goodput_img_s: out.goodput_per_cycle() * clock_hz,
                attainment_standard: out.slo_attainment(1),
                attainment_premium: out.slo_attainment(2),
                peak_workers,
                event_digest: out.event_digest,
            });
        }
    }
    rows
}

/// Served fraction of the requests arriving in `[from, to)` — the
/// windowed goodput the recovery assertion compares across the spike.
fn served_fraction(requests: &[Request], out: &RuntimeOutcome, from: u64, to: u64) -> f64 {
    let mut offered = 0usize;
    let mut served = 0usize;
    let mut served_flags = vec![false; requests.len()];
    for &r in &out.served {
        served_flags[r] = true;
    }
    for (i, r) in requests.iter().enumerate() {
        if r.arrival >= from && r.arrival < to {
            offered += 1;
            if served_flags[i] {
                served += 1;
            }
        }
    }
    if offered == 0 {
        return 1.0;
    }
    served as f64 / offered as f64
}

fn sweep_rows(rows: &[Row]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            json_row(&[
                ("workers", r.workers.to_string()),
                ("max_batch", r.max_batch.to_string()),
                ("max_wait_cycles", r.max_wait_cycles.to_string()),
                ("throughput_img_s", format!("{:.1}", r.throughput_img_s)),
                ("p50_cycles", r.p50_cycles.to_string()),
                ("p95_cycles", r.p95_cycles.to_string()),
                ("p99_cycles", r.p99_cycles.to_string()),
                ("mean_batch", format!("{:.2}", r.mean_batch)),
                ("utilization", format!("{:.3}", r.mean_utilization)),
            ])
        })
        .collect()
}

fn overload_rows(rows: &[OverloadRow]) -> Vec<String> {
    rows.iter()
        .map(|r| {
            json_row(&[
                ("queue_capacity", r.queue_capacity.to_string()),
                ("autoscale", r.autoscale.to_string()),
                ("served", r.served.to_string()),
                ("shed_rate", format!("{:.4}", r.shed_rate)),
                ("goodput_img_s", format!("{:.1}", r.goodput_img_s)),
                (
                    "slo_attainment_standard",
                    format!("{:.4}", r.attainment_standard),
                ),
                (
                    "slo_attainment_premium",
                    format!("{:.4}", r.attainment_premium),
                ),
                ("peak_workers", r.peak_workers.to_string()),
                ("event_digest", format!("\"{:016x}\"", r.event_digest)),
            ])
        })
        .collect()
}

fn render_json(
    table: &[u64],
    rows: &[Row],
    overload: &[OverloadRow],
    recovery: (f64, f64),
    million: &RuntimeOutcome,
) -> String {
    let t = trace();
    let mut j = BenchJson::new("exp_serve");
    j.str_field("config", "paper_16x16_250MHz");
    j.str_field("net", "mnist");
    j.raw(
        "trace",
        format!(
            "{{\"seed\": {}, \"requests\": {}, \"mean_gap_cycles\": {}, \"mean_burst\": {}}}",
            t.seed, t.requests, t.mean_gap_cycles, t.mean_burst,
        ),
    );
    let cycles: Vec<String> = table.iter().map(u64::to_string).collect();
    j.raw("engine_service_cycles", format!("[{}]", cycles.join(", ")));
    j.rows("saturating_sweep", sweep_rows(rows));
    j.rows("overload_sweep", overload_rows(overload));
    j.raw(
        "recovery",
        format!(
            "{{\"pre_spike_served_fraction\": {:.4}, \"post_spike_served_fraction\": {:.4}}}",
            recovery.0, recovery.1,
        ),
    );
    j.raw(
        "million_request_diurnal",
        format!(
            "{{\"requests\": {}, \"served\": {}, \"shed_rate\": {:.4}, \
             \"makespan_cycles\": {}, \"event_digest\": \"{:016x}\"}}",
            million.total_requests,
            million.served.len(),
            million.shed_rate(),
            million.sim.makespan_cycles,
            million.event_digest,
        ),
    );
    j.render()
}

/// Cycle-accurate validation: tiny-scale requests served through real
/// OS-thread workers must be bit-exact against sequential runs, and
/// `serve_with_engine` asserts that each batch costs its service-table
/// entry.
fn engine_validation() {
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let image = |s: usize| net.test_image(s);
    let rt = RuntimeConfig::offline(
        3,
        BatcherConfig {
            max_batch: 4,
            max_wait_cycles: 20_000,
        },
    );
    let requests: Vec<Request> = arrival_trace(&TraceConfig {
        seed: 5,
        requests: 12,
        mean_gap_cycles: 2_500.0,
        mean_burst: 2.0,
    })
    .into_iter()
    .map(Request::best_effort)
    .collect();
    let (outcome, traces) =
        serve_with_engine(&cfg, &net, &qparams, &rt, &requests, &image).expect("valid serve");
    assert_eq!(traces.len(), 12);
    for (trace, &r) in traces.iter().zip(&outcome.served) {
        let mut acc = Accelerator::new(cfg);
        let single = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image(r)))
            .expect("valid image");
        assert_eq!(
            &single.traces[0], trace,
            "shard-pool trace diverged from sequential engine for request {r}"
        );
    }
    println!(
        "Engine validation: 12 requests, {} batches over 3 OS-thread workers — \
         every trace bit-exact vs the sequential engine",
        outcome.sim.batches.len()
    );
}

/// Invariant 1: ≥ 3× throughput at 4 workers vs 1, per (batch, wait).
fn assert_worker_scaling(rows: &[Row]) {
    for &max_batch in &[4usize, 16, 32] {
        for &max_wait in &[10_000u64, 1_000_000] {
            let at = |workers: usize| {
                rows.iter()
                    .find(|r| {
                        r.workers == workers
                            && r.max_batch == max_batch
                            && r.max_wait_cycles == max_wait
                    })
                    .expect("swept point")
                    .throughput_img_s
            };
            let (t1, t4) = (at(1), at(4));
            assert!(
                t4 >= 3.0 * t1,
                "worker scaling regressed at max_batch {max_batch}, wait {max_wait}: \
                 {t4:.0} img/s at 4 workers vs {t1:.0} at 1"
            );
        }
    }
}

fn print_sweep(cfg: &AcceleratorConfig, rows: &[Row], title: &str) {
    let table: Vec<Vec<String>> = rows
        .iter()
        .map(|r| {
            vec![
                r.workers.to_string(),
                r.max_batch.to_string(),
                r.max_wait_cycles.to_string(),
                format!("{:.0}", r.throughput_img_s),
                format!("{:.2}", cfg.cycles_to_us(r.p50_cycles) / 1000.0),
                format!("{:.2}", cfg.cycles_to_us(r.p95_cycles) / 1000.0),
                format!("{:.2}", cfg.cycles_to_us(r.p99_cycles) / 1000.0),
                format!("{:.1}", r.mean_batch),
                format!("{:.0}%", r.mean_utilization * 100.0),
            ]
        })
        .collect();
    print_table(
        title,
        &[
            "Workers",
            "MaxBatch",
            "MaxWait cy",
            "Img/s",
            "p50 ms",
            "p95 ms",
            "p99 ms",
            "Batch",
            "Util",
        ],
        &table,
    );
}

fn main() {
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let clock_hz = cfg.clock_mhz as f64 * 1e6;

    // The service table: the engine's cycles per batch size, each
    // priced by a dry run of the batch.
    let table = service_cycles_table(&cfg, &net, SWEEP_MAX_BATCH);
    for n in 1..table.len() {
        assert!(
            table[n] > table[n - 1],
            "service cycles must grow with batch size"
        );
    }
    for n in 2..table.len() {
        assert!(
            table[n] < u64_from(n) * table[1],
            "batched service must amortize: {} vs {n}x{}",
            table[n],
            table[1]
        );
    }
    let rows = sweep(&table, clock_hz);
    print_sweep(
        &cfg,
        &rows,
        "Serving sweep — MNIST requests on the 16×16 paper config (virtual time)",
    );
    assert_worker_scaling(&rows);
    println!("\nWorker scaling: ≥ 3x aggregate throughput at 4 workers vs 1 (all points)");

    // Invariant 2: offline anchor — the runtime under the offline
    // preset reproduces the reference pipeline bit-exactly on
    // the saturating trace, at the paper design point.
    let batcher = BatcherConfig {
        max_batch: 16,
        max_wait_cycles: 10_000,
    };
    let service = |n: usize| table[n];
    let arrivals = arrival_trace(&trace());
    let anchor_requests: Vec<Request> = arrivals.iter().map(|&a| Request::best_effort(a)).collect();
    let anchored = RuntimeConfig::offline(4, batcher);
    let online = run_runtime(&anchored, &anchor_requests, &service, 0);
    let offline = dispatch_batches(&arrivals, &form_batches(&arrivals, &batcher), 4, &service);
    assert_eq!(
        online.sim, offline,
        "online runtime diverged from the offline pipeline under anchor settings"
    );
    println!("Offline anchor: online runtime ≡ offline pipeline (bit-exact SimOutcome)");

    // The overload-and-recovery sweep: flash crowd sized off the
    // service table, bounded queues, priorities, optional autoscaling.
    let per_request = table[16] / 16;
    let warmup = capsacc_serve::worker_warmup_cycles(&cfg, &net);
    let (workload, spike_start, spike_end) = overload_workload(per_request, table[1]);
    let requests = workload_trace(&workload);
    let orows = overload_sweep(&requests, &service, warmup, clock_hz);
    let otable: Vec<Vec<String>> = orows
        .iter()
        .map(|r| {
            vec![
                r.queue_capacity.to_string(),
                if r.autoscale { "on" } else { "off" }.to_string(),
                r.served.to_string(),
                format!("{:.1}%", r.shed_rate * 100.0),
                format!("{:.0}", r.goodput_img_s),
                format!("{:.1}%", r.attainment_standard * 100.0),
                format!("{:.1}%", r.attainment_premium * 100.0),
                r.peak_workers.to_string(),
            ]
        })
        .collect();
    print_table(
        "Overload sweep — flash crowd (8x base rate), online runtime",
        &[
            "QueueCap",
            "Autoscale",
            "Served",
            "Shed",
            "Goodput img/s",
            "SLO std",
            "SLO prem",
            "Workers",
        ],
        &otable,
    );

    // Invariant 3a: the bounded queue actually sheds under the spike.
    let tight = orows
        .iter()
        .find(|r| r.queue_capacity == 16 && !r.autoscale)
        .expect("swept point");
    assert!(
        tight.shed_rate > 0.0,
        "flash crowd failed to overload the bounded queue"
    );
    // Autoscaling at the same bound serves at least as much.
    let tight_scaled = orows
        .iter()
        .find(|r| r.queue_capacity == 16 && r.autoscale)
        .expect("swept point");
    assert!(
        tight_scaled.served >= tight.served,
        "autoscaling must not serve less than the fixed pool"
    );

    // Invariant 3b: recovery — the served fraction of post-spike
    // arrivals returns to ≥ 95% of the pre-spike level.
    let recovery_out = run_runtime(&overload_runtime(16, false), &requests, &service, warmup);
    let pre = served_fraction(&requests, &recovery_out, 0, spike_start);
    // Skip one queue-drain's worth of tail after the spike ends.
    let drain_margin = 16 * per_request;
    let post = served_fraction(&requests, &recovery_out, spike_end + drain_margin, u64::MAX);
    assert!(
        post >= 0.95 * pre,
        "goodput failed to recover after the burst: {post:.3} post-spike vs {pre:.3} pre-spike"
    );
    println!(
        "Overload: shed rate {:.1}% under the spike; served fraction {:.1}% pre vs {:.1}% \
         post-spike (recovered)",
        tight.shed_rate * 100.0,
        pre * 100.0,
        post * 100.0
    );

    // Scale point: a million-request diurnal day through the online
    // runtime with autoscaling — the "millions of users" regime.
    let million_cfg = WorkloadConfig {
        seed: 41,
        requests: 1_000_000,
        regime: ArrivalRegime::Diurnal {
            period_cycles: 500_000 * per_request,
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
                slo_cycles: Some(30 * table[1]),
            },
        ],
    };
    let million_reqs = workload_trace(&million_cfg);
    let million_rt = RuntimeConfig {
        workers: 2,
        batcher,
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
        resilience: ResilienceConfig::none(),
    };
    let million = run_runtime(&million_rt, &million_reqs, &service, warmup);
    let spawned = million
        .scaling
        .iter()
        .filter(|s| matches!(s, ScalingEvent::Up { .. }))
        .count();
    println!(
        "Million-request diurnal: {} served / {} offered ({:.2}% shed), {} autoscale \
         spin-ups, makespan {} cycles",
        million.served.len(),
        million.total_requests,
        million.shed_rate() * 100.0,
        spawned,
        million.sim.makespan_cycles
    );

    // Invariant 4: every sweep is deterministic — a rerun, service
    // table included, serializes to the identical byte string, event
    // digests included.
    let json = render_json(&table, &rows, &orows, (pre, post), &million);
    let rerun_table = service_cycles_table(&cfg, &net, SWEEP_MAX_BATCH);
    let rerun_orows = overload_sweep(&requests, &service, warmup, clock_hz);
    let rerun_million = run_runtime(&million_rt, &million_reqs, &service, warmup);
    let rerun = render_json(
        &rerun_table,
        &sweep(&rerun_table, clock_hz),
        &rerun_orows,
        (pre, post),
        &rerun_million,
    );
    assert_eq!(
        json, rerun,
        "serving sweep is not deterministic: reruns must be byte-identical"
    );
    println!("Determinism: rerun of every sweep is byte-identical (event digests included)");

    engine_validation();

    match fs::write("BENCH_serve.json", &json) {
        Ok(()) => println!("\nWrote BENCH_serve.json"),
        Err(e) => println!("\nWARNING: could not write BENCH_serve.json: {e}"),
    }
}
