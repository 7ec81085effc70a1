//! Deterministic telemetry profiling: runs instrumented workloads with
//! recording ON, validates the span trees and exporters, and writes
//! Chrome-trace (Perfetto-loadable) and metrics artifacts.
//!
//! In-binary asserts (run by `ci.sh`; this is the CI gate for the
//! telemetry layer):
//!
//! 1. **Invisibility** — every instrumented run's simulated results
//!    (`BatchRun`, `RuntimeOutcome` including the event digest) are
//!    identical to a recording-off run of the same inputs. This binary
//!    writes only PROFILE_* artifacts; the committed BENCH_*.json
//!    files are never touched (`ci.sh` checksums them around this
//!    run).
//! 2. **Exact attribution** — the engine span tree at `Phases` detail
//!    sums exactly to the MNIST `BatchRun`'s total cycles (functional
//!    backend, modeled memory), and at `Tiles` detail on the tiny
//!    config the ticked and functional backends produce *identical*
//!    span trees, each summing exactly to its run's cycles, with
//!    children partitioning parents at every nesting level.
//! 3. **Valid exports** — every emitted JSON artifact parses
//!    (`validate_json`, a dependency-free checker).
//! 4. **Timeline coverage** — the serving timeline contains exactly
//!    one `"request"` span per served request, no more, no fewer.
//!
//! Artifacts (current directory; run-dependent host annotations keep
//! them out of git — load the Chrome traces at <https://ui.perfetto.dev>
//! or `chrome://tracing`):
//!
//! - `PROFILE_inference.json` — Chrome trace of a batch-4 MNIST
//!   inference: inference → layer → matmul/squash/routing phases with
//!   memory-stall windows and host-nanosecond staging annotations;
//! - `PROFILE_inference_metrics.json` — memory-subsystem counters and
//!   per-matmul stall histograms of that run;
//! - `PROFILE_serve.json` — Chrome trace of a 2 000-request overload
//!   serve: per-worker batch tracks plus request lifecycle fan tracks
//!   (request / queued / service);
//! - `PROFILE_serve_metrics.json` / `.csv` — serving counters,
//!   windowed gauges (queue depth, shed rate, per-class SLO
//!   attainment, per-worker utilization) and latency histograms.

use std::fs;

use capsacc_bench::print_table;
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{
    validate_span_tree, Accelerator, AcceleratorConfig, BatchScheduler, EngineBackend, LayerRun,
    MemoryConfig, SpanDetail, TelemetryConfig, TRACK_ENGINE,
};
use capsacc_serve::{
    run_runtime, run_runtime_resilient, service_cycles_table, workload_trace, ArrivalRegime,
    AutoscalerConfig, BatcherConfig, ClassConfig, ResilienceConfig, RuntimeConfig,
    RuntimeTelemetry, ServiceModel, WorkloadConfig,
};
use capsacc_telemetry::{chrome_trace_json, metrics_csv, metrics_json, validate_json, Recorder};
use capsacc_tensor::{u64_from, Tensor};

/// Writes an artifact, validating JSON payloads first.
fn write_artifact(path: &str, contents: &str, json: bool) {
    if json {
        validate_json(contents).unwrap_or_else(|e| panic!("{path} is not valid JSON: {e}"));
    }
    match fs::write(path, contents) {
        Ok(()) => println!("Wrote {path} ({} bytes)", contents.len()),
        Err(e) => println!("WARNING: could not write {path}: {e}"),
    }
}

/// The MNIST flame view: batch-4 functional-backend run under the
/// paper memory model, recorded at `Phases` detail with host-timing
/// annotations. Returns the recorder for export.
fn profile_mnist_batch() -> Recorder {
    let net = CapsNetConfig::mnist();
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    cfg.memory = MemoryConfig::paper();
    let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
    let images: Vec<Tensor<f32>> = (0..4).map(|s| net.test_image(s)).collect();

    // Recording-off baseline, then the instrumented run: byte-equal.
    let mut plain = BatchScheduler::new(cfg);
    let baseline = plain.run(&net, &qparams, &images).expect("valid batch");
    let mut sched = BatchScheduler::new(cfg);
    sched.accelerator_mut().enable_telemetry(TelemetryConfig {
        detail: SpanDetail::Phases,
        host_timing: true,
    });
    let run = sched.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(
        baseline, run,
        "telemetry recording perturbed the MNIST BatchRun"
    );

    let rec = sched.accelerator_mut().take_telemetry();
    let total = validate_span_tree(&rec, TRACK_ENGINE).expect("valid MNIST span tree");
    assert_eq!(
        total,
        run.total_cycles(),
        "MNIST span tree does not sum to the BatchRun total"
    );

    // Flame summary: the layer spans under the inference root.
    let spans = rec.spans();
    let rows: Vec<Vec<String>> = spans
        .iter()
        .enumerate()
        .filter(|(_, s)| matches!(s.name, "Conv1" | "PrimaryCaps" | "ClassCaps"))
        .map(|(idx, s)| {
            let kids = spans
                .iter()
                .filter(|c| c.parent == Some(idx as u32))
                .count();
            vec![
                s.name.to_string(),
                s.cycles().to_string(),
                format!("{:.1}%", 100.0 * s.cycles() as f64 / total as f64),
                kids.to_string(),
            ]
        })
        .collect();
    print_table(
        "MNIST batch-4 flame view — layer spans (functional backend, paper memory)",
        &["Layer", "Cycles", "Share", "Child spans"],
        &rows,
    );
    println!(
        "Span tree: {} spans, root sums to {} cycles == BatchRun::total_cycles ✓",
        spans.len(),
        total
    );
    rec
}

/// Tiles-detail validation at the tiny scale: both backends produce
/// identical span trees that sum exactly to their runs' cycles.
fn assert_tiles_detail_cross_backend() {
    let net = CapsNetConfig::tiny();
    let image = Tensor::from_fn(&[1, net.input_side, net.input_side], |i| {
        ((i[1] * 3 + i[2]) % 9) as f32 / 9.0
    });
    let mut trees = Vec::new();
    for backend in [EngineBackend::Ticked, EngineBackend::Functional] {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.backend = backend;
        cfg.memory = MemoryConfig::paper();
        let qparams = CapsNetParams::generate(&net, 3).quantize(cfg.numeric);
        let mut acc = Accelerator::new(cfg);
        acc.enable_telemetry(TelemetryConfig {
            detail: SpanDetail::Tiles,
            host_timing: false,
        });
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        let rec = acc.take_telemetry();
        let total = validate_span_tree(&rec, TRACK_ENGINE)
            .unwrap_or_else(|e| panic!("{backend:?} tiles span tree invalid: {e}"));
        let want: u64 = run.layers.iter().map(LayerRun::cycles).sum();
        assert_eq!(total, want, "{backend:?} tiles span tree sum");
        trees.push((rec.spans().to_vec(), total));
    }
    assert_eq!(
        trees[0], trees[1],
        "ticked and functional backends must emit identical span trees"
    );
    println!(
        "Tiles detail: {} spans per backend, identical across ticked/functional, \
         sum {} cycles ✓",
        trees[0].0.len(),
        trees[0].1
    );
}

/// The serving timeline: a 2 000-request flash crowd through the
/// online runtime with a telemetry sink, against the recording-off
/// run. Returns the populated recorder and the served-request count.
fn profile_serve() -> (Recorder, usize) {
    let cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let table = service_cycles_table(&cfg, &net, 16);
    let per_request = table[16] / 16;
    let workload = WorkloadConfig {
        seed: 23,
        requests: 2_000,
        regime: ArrivalRegime::Spike {
            base_gap_cycles: (3 * per_request / 2) as f64,
            spike_start_cycle: 200 * per_request,
            spike_cycles: 600 * per_request,
            spike_gap_cycles: (per_request / 10).max(1) as f64,
        },
        classes: vec![
            ClassConfig {
                weight: 2,
                slo_cycles: None,
            },
            ClassConfig {
                weight: 2,
                slo_cycles: Some(30 * table[1]),
            },
            ClassConfig {
                weight: 1,
                slo_cycles: Some(6 * table[1]),
            },
        ],
    };
    let requests = workload_trace(&workload);
    let rt = RuntimeConfig {
        workers: 2,
        batcher: BatcherConfig {
            max_batch: 16,
            max_wait_cycles: 20_000,
        },
        queue_capacity: Some(48),
        deadline_aware: true,
        autoscaler: Some(AutoscalerConfig {
            min_workers: 2,
            max_workers: 4,
            scale_up_queue_per_worker: 8,
            scale_down_idle_cycles: 200_000,
            eval_period_cycles: 50_000,
        }),
        record_events: false,
        resilience: ResilienceConfig::none(),
    };
    let service = |n: usize| table[n];
    let warmup = capsacc_serve::worker_warmup_cycles(&cfg, &net);

    let baseline = run_runtime(&rt, &requests, &service, warmup);
    // One gauge sample per full batch's worth of virtual time.
    let mut sink = RuntimeTelemetry::new(&requests, table[16]);
    let model = ServiceModel::flat(service, warmup);
    let observed = run_runtime_resilient(&rt, &requests, &model, &mut sink);
    assert_eq!(
        baseline, observed,
        "the telemetry sink perturbed the runtime outcome"
    );
    assert_eq!(baseline.event_digest, observed.event_digest);
    let rec = sink.finish();

    // Coverage: exactly one "request" span per served request.
    let mut seen: Vec<u64> = rec
        .spans()
        .iter()
        .filter(|s| s.name == "request")
        .map(|s| {
            s.args
                .iter()
                .find(|(k, _)| *k == "req")
                .expect("request spans carry req")
                .1
        })
        .collect();
    seen.sort_unstable();
    let want: Vec<u64> = observed.served.iter().map(|&r| u64_from(r)).collect();
    assert_eq!(
        seen, want,
        "serving timeline must cover every served request exactly once"
    );

    println!(
        "Serving timeline: {} served / {} offered, {} spans, queue-depth samples: {} ✓",
        observed.served.len(),
        observed.total_requests,
        rec.spans().len(),
        rec.metrics().gauge("serve.queue_depth").len(),
    );
    (rec, observed.served.len())
}

fn main() {
    let engine_rec = profile_mnist_batch();
    assert_tiles_detail_cross_backend();
    let (serve_rec, served) = profile_serve();

    write_artifact(
        "PROFILE_inference.json",
        &chrome_trace_json(&engine_rec),
        true,
    );
    write_artifact(
        "PROFILE_inference_metrics.json",
        &metrics_json(&engine_rec),
        true,
    );
    write_artifact("PROFILE_serve.json", &chrome_trace_json(&serve_rec), true);
    write_artifact(
        "PROFILE_serve_metrics.json",
        &metrics_json(&serve_rec),
        true,
    );
    write_artifact("PROFILE_serve_metrics.csv", &metrics_csv(&serve_rec), false);

    println!(
        "\nAll telemetry invariants hold: recording is invisible to simulated \
         results, span trees sum exactly to run totals, exports parse, and the \
         timeline covers all {served} served requests. Load the PROFILE_*.json \
         traces at https://ui.perfetto.dev."
    );
}
