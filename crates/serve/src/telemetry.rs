//! The serving-side telemetry sink: turns the runtime's streamed
//! [`LoggedEvent`]s into a request/worker timeline and windowed
//! metrics on a [`capsacc_telemetry::Recorder`].
//!
//! [`RuntimeTelemetry`] is an [`EventSink`] handed to
//! [`crate::run_runtime_resilient`]. It is a pure observer — the
//! runtime's outcome and event digest are byte-identical with or
//! without it (pinned by `tests/telemetry_equivalence.rs`) — that
//! builds, entirely from the event stream plus the request trace it
//! was constructed with:
//!
//! - **request lifecycle spans** on [`TRACK_REQUEST_BASE`] fan tracks:
//!   one `"request"` span per served request (arrival → completion)
//!   with nested `"queued"` (admitted → dispatched) and `"service"`
//!   (dispatched → completed) phases;
//! - **batch service spans** on per-worker tracks
//!   ([`TRACK_WORKER_BASE`]` + worker`);
//! - **windowed gauges** sampled once per [`RuntimeTelemetry::new`]
//!   window: queue depth, shed rate, per-class SLO attainment, and —
//!   computed at [`RuntimeTelemetry::finish`] from the recorded busy
//!   intervals — per-worker utilization;
//! - **counters and histograms**: arrivals, admissions, rejections by
//!   cause, batch closes by cause, queue-wait / service / end-to-end
//!   latency distributions, batch sizes.

use capsacc_telemetry::{Recorder, TelemetryConfig};
use capsacc_tensor::u64_from;

use crate::runtime::{CloseCause, EventSink, LoggedEvent, Rejection};
use crate::trace::Request;

/// Track (Chrome-trace `tid`) of worker 0's batch timeline; worker `w`
/// renders on `TRACK_WORKER_BASE + w`.
pub const TRACK_WORKER_BASE: u32 = 100;

/// First request fan track; request `r` renders on
/// `TRACK_REQUEST_BASE + (r % REQUEST_FAN)`.
pub const TRACK_REQUEST_BASE: u32 = 1000;

/// Number of fan tracks request lifecycle spans are spread over —
/// enough that concurrent requests rarely share a row, without a
/// million-track trace on big runs.
pub const REQUEST_FAN: u32 = 16;

const NOT_ADMITTED: u64 = u64::MAX;
const NO_BATCH: usize = usize::MAX;

#[derive(Clone, Default)]
struct ClassWindow {
    offered: usize,
    shed: usize,
    served: usize,
    slo_met: usize,
}

struct BatchState {
    members: Vec<usize>,
    dispatch: u64,
    worker: usize,
    len: usize,
    /// A racing hedged duplicate, when one was dispatched.
    hedge_worker: Option<usize>,
    hedge_start: u64,
}

/// An [`EventSink`] that records the serving timeline and windowed
/// metrics. Construct with the request trace the runtime will see,
/// stream a run through it, then call
/// [`RuntimeTelemetry::finish`] for the populated [`Recorder`].
pub struct RuntimeTelemetry {
    rec: Recorder,
    window_cycles: u64,
    /// SLO budget per request, copied from the trace (events don't
    /// carry it).
    slos: Vec<Option<u64>>,
    arrival: Vec<u64>,
    class: Vec<usize>,
    admitted_at: Vec<u64>,
    batch_of: Vec<usize>,
    batches: Vec<BatchState>,
    /// Admitted-but-undispatched requests right now — the runtime's
    /// queue-bound population, reconstructed from the stream.
    occupancy: usize,
    /// Per-worker `[start, end)` busy intervals, for utilization.
    busy: Vec<Vec<(u64, u64)>>,
    window: u64,
    win_total: ClassWindow,
    win_class: Vec<ClassWindow>,
    last_cycle: u64,
}

impl RuntimeTelemetry {
    /// A sink over `requests` (the same slice the runtime will run),
    /// emitting one gauge sample per `window_cycles` of virtual time.
    ///
    /// # Panics
    ///
    /// Panics if `window_cycles` is zero.
    pub fn new(requests: &[Request], window_cycles: u64) -> Self {
        assert!(window_cycles > 0, "window_cycles must be positive");
        let classes = requests.iter().map(|r| r.class).max().map_or(1, |c| c + 1);
        Self {
            rec: Recorder::new(TelemetryConfig::default()),
            window_cycles,
            slos: requests.iter().map(|r| r.slo_cycles).collect(),
            arrival: vec![0; requests.len()],
            class: vec![0; requests.len()],
            admitted_at: vec![NOT_ADMITTED; requests.len()],
            batch_of: vec![NO_BATCH; requests.len()],
            batches: Vec::new(),
            occupancy: 0,
            busy: Vec::new(),
            window: 0,
            win_total: ClassWindow::default(),
            win_class: vec![ClassWindow::default(); classes],
            last_cycle: 0,
        }
    }

    /// Emits every complete window up to `cycle`, then window stats
    /// for anything still in flight stay accumulated.
    fn flush_windows(&mut self, cycle: u64) {
        while (self.window + 1).saturating_mul(self.window_cycles) <= cycle {
            let end = (self.window + 1) * self.window_cycles;
            self.emit_window(end);
            self.window += 1;
        }
    }

    fn emit_window(&mut self, end: u64) {
        let depth = self.occupancy as f64;
        let shed_rate = if self.win_total.offered == 0 {
            0.0
        } else {
            self.win_total.shed as f64 / self.win_total.offered as f64
        };
        self.rec.gauge_sample("serve.queue_depth", end, depth);
        self.rec.gauge_sample("serve.shed_rate", end, shed_rate);
        for c in 0..self.win_class.len() {
            let cw = &self.win_class[c];
            // An idle window attains trivially — same convention as
            // RuntimeOutcome::slo_attainment.
            let att = if cw.served == 0 {
                1.0
            } else {
                cw.slo_met as f64 / cw.served as f64
            };
            let name = format!("serve.slo_attainment.class{c}");
            self.rec.gauge_sample(&name, end, att);
            self.win_class[c] = ClassWindow::default();
        }
        self.win_total = ClassWindow::default();
    }

    fn ensure_request(&mut self, req: usize) {
        if req >= self.arrival.len() {
            // Only reachable if the sink was built over a shorter
            // trace than the runtime ran; degrade gracefully.
            self.arrival.resize(req + 1, 0);
            self.class.resize(req + 1, 0);
            self.admitted_at.resize(req + 1, NOT_ADMITTED);
            self.batch_of.resize(req + 1, NO_BATCH);
            self.slos.resize(req + 1, None);
        }
    }

    /// Closes out the run: emits the final (partial) window, the
    /// per-worker per-window utilization series, and track names, and
    /// returns the populated recorder.
    pub fn finish(mut self) -> Recorder {
        self.flush_windows(self.last_cycle);
        // The last partial window still gets its sample (at the cycle
        // the stream ended) so short runs aren't invisible.
        if self.last_cycle > self.window * self.window_cycles || self.window == 0 {
            let end = self.last_cycle.max(1);
            self.emit_window(end);
        }
        // Per-worker utilization per window, from the busy intervals.
        let windows = self.last_cycle.div_ceil(self.window_cycles).max(1);
        for (w, intervals) in self.busy.iter().enumerate() {
            let name = format!("serve.worker_util.w{w}");
            for win in 0..windows {
                let (ws, we) = (win * self.window_cycles, (win + 1) * self.window_cycles);
                let busy: u64 = intervals
                    .iter()
                    .map(|&(s, e)| e.min(we).saturating_sub(s.max(ws)))
                    .sum();
                let util = busy as f64 / self.window_cycles as f64;
                self.rec.gauge_sample(&name, we, util);
            }
            self.rec
                .set_track_name(TRACK_WORKER_BASE + w as u32, &format!("worker {w}"));
        }
        for k in 0..REQUEST_FAN {
            let track = TRACK_REQUEST_BASE + k;
            if self.rec.spans().iter().any(|s| s.track == track) {
                self.rec
                    .set_track_name(track, &format!("requests (mod {REQUEST_FAN} = {k})"));
            }
        }
        self.rec
    }

    /// Read access to the recorder mid-stream (tests).
    pub fn recorder(&self) -> &Recorder {
        &self.rec
    }
}

fn request_track(req: usize) -> u32 {
    TRACK_REQUEST_BASE + (req as u32 % REQUEST_FAN)
}

impl EventSink for RuntimeTelemetry {
    fn event(&mut self, e: &LoggedEvent) {
        let cycle = match *e {
            LoggedEvent::Arrival { cycle, .. }
            | LoggedEvent::Admitted { cycle, .. }
            | LoggedEvent::Rejected { cycle, .. }
            | LoggedEvent::BatchClosed { cycle, .. }
            | LoggedEvent::Dispatched { cycle, .. }
            | LoggedEvent::Completed { cycle, .. }
            | LoggedEvent::ScaledUp { cycle, .. }
            | LoggedEvent::ScaledDown { cycle, .. }
            | LoggedEvent::WorkerCrashed { cycle, .. }
            | LoggedEvent::Requeued { cycle, .. }
            | LoggedEvent::WorkerStalled { cycle, .. }
            | LoggedEvent::Straggling { cycle, .. }
            | LoggedEvent::HedgeDispatched { cycle, .. }
            | LoggedEvent::HedgeCancelled { cycle, .. }
            | LoggedEvent::Degraded { cycle, .. } => cycle,
        };
        self.flush_windows(cycle);
        self.last_cycle = self.last_cycle.max(cycle);
        match *e {
            LoggedEvent::Arrival {
                cycle,
                request,
                class,
            } => {
                self.ensure_request(request);
                self.arrival[request] = cycle;
                self.class[request] = class;
                self.rec.counter_add("serve.arrivals", 1);
                self.win_total.offered += 1;
                let c = class.min(self.win_class.len() - 1);
                self.win_class[c].offered += 1;
            }
            LoggedEvent::Admitted {
                cycle,
                request,
                batch,
            } => {
                self.ensure_request(request);
                self.admitted_at[request] = cycle;
                self.batch_of[request] = batch;
                while self.batches.len() <= batch {
                    self.batches.push(BatchState {
                        members: Vec::new(),
                        dispatch: 0,
                        worker: 0,
                        len: 0,
                        hedge_worker: None,
                        hedge_start: 0,
                    });
                }
                self.batches[batch].members.push(request);
                self.occupancy += 1;
                self.rec.counter_add("serve.admitted", 1);
            }
            LoggedEvent::Rejected {
                request, rejection, ..
            } => {
                self.ensure_request(request);
                let name = match rejection {
                    Rejection::QueueFull => "serve.rejected.queue_full",
                    Rejection::DeadlineInfeasible => "serve.rejected.infeasible",
                    Rejection::ShedLowPriority => "serve.rejected.shed_priority",
                    Rejection::RetryExhausted => "serve.rejected.retry_exhausted",
                };
                self.rec.counter_add(name, 1);
                if rejection != Rejection::DeadlineInfeasible {
                    self.win_total.shed += 1;
                    let c = self.class[request].min(self.win_class.len() - 1);
                    self.win_class[c].shed += 1;
                }
                // A ShedLowPriority rejection evicts an *admitted*
                // forming-batch member: undo its admission. RetryExhausted
                // members were already dispatched (their occupancy was
                // released at Dispatched), so admission stands as-is.
                if rejection != Rejection::RetryExhausted
                    && self.admitted_at[request] != NOT_ADMITTED
                {
                    let b = self.batch_of[request];
                    if let Some(batch) = self.batches.get_mut(b) {
                        batch.members.retain(|&m| m != request);
                    }
                    self.admitted_at[request] = NOT_ADMITTED;
                    self.batch_of[request] = NO_BATCH;
                    self.occupancy -= 1;
                }
            }
            LoggedEvent::BatchClosed { len, cause, .. } => {
                let name = match cause {
                    CloseCause::Size => "serve.batch_closed.size",
                    CloseCause::Deadline => "serve.batch_closed.deadline",
                    CloseCause::SloRisk => "serve.batch_closed.slo_risk",
                };
                self.rec.counter_add(name, 1);
                self.rec.hist_record("serve.batch_size", u64_from(len));
            }
            LoggedEvent::Dispatched {
                cycle,
                batch,
                worker,
                len,
            } => {
                self.rec.counter_add("serve.dispatches", 1);
                if let Some(b) = self.batches.get_mut(batch) {
                    b.dispatch = cycle;
                    b.worker = worker;
                    b.len = len;
                    b.hedge_worker = None;
                    b.hedge_start = 0;
                }
                if worker >= self.busy.len() {
                    self.busy.resize_with(worker + 1, Vec::new);
                }
                let members = self
                    .batches
                    .get(batch)
                    .map(|b| b.members.clone())
                    .unwrap_or_default();
                self.occupancy -= members.len();
                for req in members {
                    let wait = cycle - self.admitted_at[req];
                    self.rec.hist_record("serve.queue_wait_cycles", wait);
                }
            }
            LoggedEvent::Completed {
                cycle,
                batch,
                worker,
                ..
            } => {
                self.rec.counter_add("serve.completions", 1);
                let Some(b) = self.batches.get(batch) else {
                    return;
                };
                // A hedged duplicate may win the race: attribute the
                // service span to the worker that actually finished.
                let start = if Some(worker) == b.hedge_worker {
                    b.hedge_start
                } else {
                    b.dispatch
                };
                let len = b.len;
                let members = b.members.clone();
                self.rec.record_span(
                    TRACK_WORKER_BASE + worker as u32,
                    "batch",
                    start,
                    cycle,
                    vec![("batch", u64_from(batch)), ("len", u64_from(len))],
                );
                self.busy[worker].push((start, cycle));
                self.rec.hist_record("serve.service_cycles", cycle - start);
                for req in members {
                    let (arrival, admitted) = (self.arrival[req], self.admitted_at[req]);
                    let latency = cycle - arrival;
                    let class = self.class[req];
                    let track = request_track(req);
                    self.rec.record_span(
                        track,
                        "request",
                        arrival,
                        cycle,
                        vec![
                            ("req", u64_from(req)),
                            ("class", u64_from(class)),
                            ("batch", u64_from(batch)),
                        ],
                    );
                    self.rec.record_span(
                        track,
                        "queued",
                        admitted,
                        start,
                        vec![("req", u64_from(req))],
                    );
                    self.rec.record_span(
                        track,
                        "service",
                        start,
                        cycle,
                        vec![("req", u64_from(req))],
                    );
                    self.rec.hist_record("serve.latency_cycles", latency);
                    let met = self
                        .slos
                        .get(req)
                        .copied()
                        .flatten()
                        .is_none_or(|slo| latency <= slo);
                    let c = class.min(self.win_class.len() - 1);
                    self.win_class[c].served += 1;
                    if met {
                        self.win_class[c].slo_met += 1;
                    }
                    self.win_total.served += 1;
                }
            }
            LoggedEvent::ScaledUp { .. } => {
                self.rec.counter_add("serve.scale_ups", 1);
            }
            LoggedEvent::ScaledDown { .. } => {
                self.rec.counter_add("serve.scale_downs", 1);
            }
            LoggedEvent::WorkerCrashed {
                cycle,
                batch,
                worker,
                wasted,
            } => {
                self.rec.counter_add("serve.faults.crashes", 1);
                if worker >= self.busy.len() {
                    self.busy.resize_with(worker + 1, Vec::new);
                }
                let start = cycle - wasted;
                self.rec.record_span(
                    TRACK_WORKER_BASE + worker as u32,
                    "crashed",
                    start,
                    cycle,
                    vec![("batch", u64_from(batch))],
                );
                self.busy[worker].push((start, cycle));
            }
            LoggedEvent::Requeued { batch, attempt, .. } => {
                self.rec.counter_add("serve.faults.requeues", 1);
                self.rec
                    .hist_record("serve.retry_attempt", u64::from(attempt));
                // The batch re-enters the queued population until its
                // next dispatch releases it again.
                let n = self.batches.get(batch).map_or(0, |b| b.members.len());
                self.occupancy += n;
            }
            LoggedEvent::WorkerStalled { stall, .. } => {
                self.rec.counter_add("serve.faults.stalls", 1);
                self.rec.hist_record("serve.stall_cycles", stall);
            }
            LoggedEvent::Straggling { .. } => {
                self.rec.counter_add("serve.faults.stragglers", 1);
            }
            LoggedEvent::HedgeDispatched {
                cycle,
                batch,
                worker,
                ..
            } => {
                self.rec.counter_add("serve.faults.hedges", 1);
                if worker >= self.busy.len() {
                    self.busy.resize_with(worker + 1, Vec::new);
                }
                if let Some(b) = self.batches.get_mut(batch) {
                    b.hedge_worker = Some(worker);
                    b.hedge_start = cycle;
                }
            }
            LoggedEvent::HedgeCancelled {
                cycle,
                batch,
                worker,
            } => {
                self.rec.counter_add("serve.faults.hedge_cancelled", 1);
                let start = self.batches.get(batch).map_or(cycle, |b| {
                    if Some(worker) == b.hedge_worker {
                        b.hedge_start
                    } else {
                        b.dispatch
                    }
                });
                if worker >= self.busy.len() {
                    self.busy.resize_with(worker + 1, Vec::new);
                }
                self.rec.record_span(
                    TRACK_WORKER_BASE + worker as u32,
                    "cancelled",
                    start,
                    cycle,
                    vec![("batch", u64_from(batch))],
                );
                self.busy[worker].push((start, cycle));
            }
            LoggedEvent::Degraded { cycle, level } => {
                self.rec.counter_add("serve.faults.degrade_shifts", 1);
                self.rec
                    .gauge_sample("serve.degrade_level", cycle, f64::from(level));
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::BatcherConfig;
    use crate::runtime::{
        run_runtime, run_runtime_resilient, ResilienceConfig, RuntimeConfig, ServiceModel,
    };

    fn flat_service(n: usize) -> u64 {
        100 + 10 * n as u64
    }

    fn trace(n: usize) -> Vec<Request> {
        let mut requests: Vec<Request> = (0..n)
            .map(|i| Request {
                arrival: (i as u64) * 41 % 2_000,
                class: i % 2,
                slo_cycles: if i % 3 == 0 { Some(4_000) } else { None },
            })
            .collect();
        requests.sort_by_key(|r| r.arrival);
        requests
    }

    fn cfg() -> RuntimeConfig {
        RuntimeConfig {
            workers: 2,
            batcher: BatcherConfig {
                max_batch: 4,
                max_wait_cycles: 150,
            },
            queue_capacity: Some(6),
            deadline_aware: true,
            autoscaler: None,
            record_events: false,
            resilience: ResilienceConfig::none(),
        }
    }

    #[test]
    fn sink_is_invisible_to_the_outcome() {
        let requests = trace(30);
        let cfg = cfg();
        let plain = run_runtime(&cfg, &requests, &flat_service, 0);
        let mut sink = RuntimeTelemetry::new(&requests, 500);
        let observed = run_runtime_resilient(
            &cfg,
            &requests,
            &ServiceModel::flat(flat_service, 0),
            &mut sink,
        );
        assert_eq!(plain, observed);
        assert_eq!(plain.event_digest, observed.event_digest);
    }

    #[test]
    fn timeline_covers_every_served_request_exactly_once() {
        let requests = trace(30);
        let cfg = cfg();
        let mut sink = RuntimeTelemetry::new(&requests, 500);
        let out = run_runtime_resilient(
            &cfg,
            &requests,
            &ServiceModel::flat(flat_service, 0),
            &mut sink,
        );
        let rec = sink.finish();
        let mut served: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.args.iter().find(|(k, _)| *k == "req").unwrap().1)
            .collect();
        served.sort_unstable();
        let want: Vec<u64> = out.served.iter().map(|&r| r as u64).collect();
        assert_eq!(served, want);
        // Each request span brackets its queued + service phases.
        for s in rec.spans().iter().filter(|s| s.name == "request") {
            assert!(s.start <= s.end);
        }
        // Batch spans cover every dispatched batch once.
        let batch_spans = rec.spans().iter().filter(|s| s.name == "batch").count();
        assert_eq!(batch_spans, out.sim.batches.len());
        // Counters reconcile with the outcome.
        assert_eq!(
            rec.metrics().counter("serve.completions"),
            out.sim.batches.len() as u64
        );
        assert_eq!(
            rec.metrics().counter("serve.arrivals"),
            out.total_requests as u64
        );
    }

    #[test]
    fn windowed_gauges_and_utilization_are_emitted() {
        let requests = trace(40);
        let cfg = cfg();
        let mut sink = RuntimeTelemetry::new(&requests, 400);
        let out = run_runtime_resilient(
            &cfg,
            &requests,
            &ServiceModel::flat(flat_service, 0),
            &mut sink,
        );
        let rec = sink.finish();
        let depth = rec.metrics().gauge("serve.queue_depth");
        assert!(!depth.is_empty());
        assert!(depth.windows(2).all(|w| w[0].0 < w[1].0), "samples ordered");
        let util0 = rec.metrics().gauge("serve.worker_util.w0");
        assert!(!util0.is_empty());
        assert!(util0.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        // Utilization integrates back to the worker's busy cycles.
        let integrated: f64 = util0.iter().map(|&(_, v)| v * 400.0).sum();
        assert!((integrated - out.sim.worker_busy_cycles[0] as f64).abs() < 1e-6);
        for c in 0..2 {
            let att = rec
                .metrics()
                .gauge(&format!("serve.slo_attainment.class{c}"));
            assert!(!att.is_empty());
            assert!(att.iter().all(|&(_, v)| (0.0..=1.0).contains(&v)));
        }
    }

    #[test]
    fn eviction_keeps_occupancy_and_shed_accounting_consistent() {
        // Queue bound 1: a class-1 newcomer evicts the class-0 member.
        let requests = vec![
            Request {
                arrival: 10,
                class: 0,
                slo_cycles: None,
            },
            Request {
                arrival: 11,
                class: 1,
                slo_cycles: None,
            },
        ];
        let cfg = RuntimeConfig {
            queue_capacity: Some(1),
            workers: 1,
            batcher: BatcherConfig {
                max_batch: 4,
                max_wait_cycles: 1_000,
            },
            deadline_aware: false,
            autoscaler: None,
            record_events: false,
            resilience: ResilienceConfig::none(),
        };
        let mut sink = RuntimeTelemetry::new(&requests, 100);
        run_runtime_resilient(
            &cfg,
            &requests,
            &ServiceModel::flat(flat_service, 0),
            &mut sink,
        );
        let rec = sink.finish();
        assert_eq!(rec.metrics().counter("serve.rejected.shed_priority"), 1);
        let served: Vec<u64> = rec
            .spans()
            .iter()
            .filter(|s| s.name == "request")
            .map(|s| s.args.iter().find(|(k, _)| *k == "req").unwrap().1)
            .collect();
        assert_eq!(served, vec![1], "only the evictor is served");
    }
}
