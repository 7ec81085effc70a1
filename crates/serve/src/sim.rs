//! Virtual-time dispatch of micro-batches onto a pool of workers.
//!
//! The simulator is event-free and exact: batches are dispatched in
//! close order, each to the worker that frees up earliest (ties broken
//! by lowest worker id — the deterministic analogue of "grab the idle
//! replica"), and a batch of `n` requests occupies its worker for
//! `service(n)` cycles, the engine's own cycle model. Everything is
//! integer virtual time; reruns are byte-identical.
//!
//! Per-request latency decomposes exactly the way a serving dashboard
//! would report it: *queue wait* (arrival → the batch's dispatch, which
//! includes the micro-batcher's co-batching delay — a request early in
//! a batch waits longer than the one that closed it) plus *service*
//! (the whole batch's [`capsacc_core::BatchRun`]-equivalent cycles; the
//! layer-major schedule finishes all images of a batch together).

use capsacc_telemetry::percentile;

use crate::batcher::MicroBatch;

/// Per-request accounting of one simulated serve.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RequestStat {
    /// Arrival cycle (from the trace).
    pub arrival: u64,
    /// Cycle the request's batch started on its worker.
    pub dispatch: u64,
    /// Cycle the request's batch completed.
    pub completion: u64,
    /// Worker that served it.
    pub worker: usize,
    /// Index of its batch in close order.
    pub batch: usize,
    /// Position within the batch (0-based arrival order).
    pub slot: usize,
}

impl RequestStat {
    /// End-to-end latency in cycles.
    pub fn latency_cycles(&self) -> u64 {
        self.completion - self.arrival
    }

    /// Cycles spent queued (co-batching wait + waiting for a worker).
    pub fn queue_wait_cycles(&self) -> u64 {
        self.dispatch - self.arrival
    }

    /// Cycles of batch service.
    pub fn service_cycles(&self) -> u64 {
        self.completion - self.dispatch
    }
}

/// Per-batch accounting of one simulated serve.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BatchStat {
    /// Worker the batch ran on.
    pub worker: usize,
    /// Requests in the batch.
    pub len: usize,
    /// Cycle the micro-batcher closed the batch.
    pub close_cycle: u64,
    /// Cycle the batch started on its worker (≥ close).
    pub start_cycle: u64,
    /// Cycle the batch completed.
    pub end_cycle: u64,
}

/// Everything one simulated serve produced.
#[derive(Clone, PartialEq, Debug)]
pub struct SimOutcome {
    /// Per-request stats, in request (arrival) order.
    pub requests: Vec<RequestStat>,
    /// Per-batch stats, in close order.
    pub batches: Vec<BatchStat>,
    /// Cycles each worker spent serving batches.
    pub worker_busy_cycles: Vec<u64>,
    /// Cycle the last batch completed (0 for an empty trace).
    pub makespan_cycles: u64,
}

impl SimOutcome {
    /// All request latencies, ascending.
    pub fn sorted_latencies(&self) -> Vec<u64> {
        let mut v: Vec<u64> = self
            .requests
            .iter()
            .map(RequestStat::latency_cycles)
            .collect();
        v.sort_unstable();
        v
    }

    /// `[p50, p95, p99]` latency in cycles (nearest-rank). Total like
    /// the other aggregate views: an empty (idle-window) outcome
    /// reports `[0, 0, 0]` instead of panicking.
    pub fn latency_percentiles(&self) -> [u64; 3] {
        let sorted = self.sorted_latencies();
        if sorted.is_empty() {
            return [0; 3];
        }
        [
            percentile(&sorted, 50.0),
            percentile(&sorted, 95.0),
            percentile(&sorted, 99.0),
        ]
    }

    /// Aggregate throughput in images per cycle of virtual time.
    pub fn throughput_per_cycle(&self) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.requests.len() as f64 / self.makespan_cycles as f64
    }

    /// Mean images per dispatched batch (0.0 for an empty trace — total,
    /// like the engine's per-image views).
    pub fn mean_batch_len(&self) -> f64 {
        if self.batches.is_empty() {
            return 0.0;
        }
        self.requests.len() as f64 / self.batches.len() as f64
    }

    /// Fraction of the makespan worker `w` spent serving. Total: an
    /// idle window (zero makespan) and a worker index beyond the pool
    /// both report `0.0` — degenerate serves must yield defined
    /// statistics, not a panic or NaN in a dashboard aggregation.
    pub fn utilization(&self, worker: usize) -> f64 {
        if self.makespan_cycles == 0 {
            return 0.0;
        }
        self.worker_busy_cycles.get(worker).copied().unwrap_or(0) as f64
            / self.makespan_cycles as f64
    }

    /// Batch indices assigned to each worker, in dispatch order — the
    /// exact work lists a [`crate::ShardPool`] executes.
    pub fn assignments(&self) -> Vec<Vec<usize>> {
        let workers = self.worker_busy_cycles.len();
        let mut out = vec![Vec::new(); workers];
        for (i, b) in self.batches.iter().enumerate() {
            out[b.worker].push(i);
        }
        out
    }
}

/// Dispatches closed micro-batches onto `workers` workers.
///
/// `service(n)` gives the cycles a batch of `n` images occupies a
/// worker — batch cycle counts are data-independent (the array ticks by
/// shape, not value), so one number per batch size is exact.
///
/// # Panics
///
/// Panics if `workers` is zero or a batch references requests outside
/// `arrivals`.
pub fn dispatch_batches(
    arrivals: &[u64],
    batches: &[MicroBatch],
    workers: usize,
    service: &dyn Fn(usize) -> u64,
) -> SimOutcome {
    assert!(workers > 0, "at least one worker required");
    let mut free_at = vec![0u64; workers];
    let mut busy = vec![0u64; workers];
    let mut batch_stats = Vec::with_capacity(batches.len());
    let mut requests = Vec::with_capacity(arrivals.len());
    for (batch_idx, b) in batches.iter().enumerate() {
        assert!(b.first + b.len <= arrivals.len(), "batch outside trace");
        // Earliest-free worker, lowest id on ties: deterministic.
        let worker = (0..workers)
            .min_by_key(|&w| (free_at[w], w))
            .expect("at least one worker");
        let start = b.close_cycle.max(free_at[worker]);
        let cycles = service(b.len);
        let end = start + cycles;
        free_at[worker] = end;
        busy[worker] += cycles;
        batch_stats.push(BatchStat {
            worker,
            len: b.len,
            close_cycle: b.close_cycle,
            start_cycle: start,
            end_cycle: end,
        });
        for (slot, req) in b.requests().enumerate() {
            requests.push(RequestStat {
                arrival: arrivals[req],
                dispatch: start,
                completion: end,
                worker,
                batch: batch_idx,
                slot,
            });
        }
    }
    let makespan_cycles = batch_stats.iter().map(|b| b.end_cycle).max().unwrap_or(0);
    SimOutcome {
        requests,
        batches: batch_stats,
        worker_busy_cycles: busy,
        makespan_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::{form_batches, BatcherConfig};
    use proptest::prelude::*;

    fn flat_service(n: usize) -> u64 {
        100 + 10 * n as u64
    }

    #[test]
    fn empty_outcome_aggregates_are_total() {
        // An idle serving window is a legal outcome: every aggregate
        // view reports zeros instead of panicking.
        let out = dispatch_batches(&[], &[], 2, &flat_service);
        assert_eq!(out.latency_percentiles(), [0, 0, 0]);
        assert_eq!(out.throughput_per_cycle(), 0.0);
        assert_eq!(out.mean_batch_len(), 0.0);
        assert_eq!(out.utilization(0), 0.0);
        assert_eq!(out.makespan_cycles, 0);
    }

    #[test]
    fn empty_percentile_and_out_of_range_worker_are_total() {
        // The all-shed admission case: a serve window that admitted
        // nothing still has defined statistics everywhere.
        assert_eq!(percentile(&[], 50.0), 0);
        assert_eq!(percentile(&[], 99.0), 0);
        let out = dispatch_batches(&[], &[], 1, &flat_service);
        assert_eq!(out.utilization(7), 0.0, "beyond-pool worker index");
        assert!(out.assignments().iter().all(Vec::is_empty));
    }

    #[test]
    fn one_request_outcome_is_fully_defined() {
        // Smallest non-degenerate serve: one request, one batch.
        let arrivals = [3u64];
        let batches = form_batches(
            &arrivals,
            &BatcherConfig {
                max_batch: 4,
                max_wait_cycles: 0,
            },
        );
        let out = dispatch_batches(&arrivals, &batches, 2, &flat_service);
        assert_eq!(out.requests.len(), 1);
        let lat = out.requests[0].latency_cycles();
        assert_eq!(out.latency_percentiles(), [lat; 3]);
        assert_eq!(out.mean_batch_len(), 1.0);
        assert!(out.throughput_per_cycle() > 0.0);
        assert!(out.utilization(0) > 0.0 && out.utilization(0) <= 1.0);
        assert_eq!(out.utilization(1), 0.0);
        assert!(out.utilization(0).is_finite());
    }

    #[test]
    fn lone_batch_runs_immediately_on_worker_zero() {
        let arrivals = [5u64, 6];
        let batches = form_batches(
            &arrivals,
            &BatcherConfig {
                max_batch: 2,
                max_wait_cycles: 10,
            },
        );
        let out = dispatch_batches(&arrivals, &batches, 3, &flat_service);
        assert_eq!(out.batches.len(), 1);
        let b = out.batches[0];
        assert_eq!((b.worker, b.start_cycle, b.end_cycle), (0, 6, 6 + 120));
        // First request waited for its co-batched successor.
        assert_eq!(out.requests[0].queue_wait_cycles(), 1);
        assert_eq!(out.requests[1].queue_wait_cycles(), 0);
        assert_eq!(out.makespan_cycles, 126);
        assert_eq!(out.worker_busy_cycles, vec![120, 0, 0]);
    }

    #[test]
    fn saturated_pool_spreads_batches_round_robin_like() {
        // 4 same-cycle batches, 2 workers: 2 batches per worker chain.
        let arrivals = [0u64, 0, 0, 0];
        let batches = form_batches(
            &arrivals,
            &BatcherConfig {
                max_batch: 1,
                max_wait_cycles: 0,
            },
        );
        let out = dispatch_batches(&arrivals, &batches, 2, &flat_service);
        let workers: Vec<usize> = out.batches.iter().map(|b| b.worker).collect();
        assert_eq!(workers, vec![0, 1, 0, 1]);
        assert_eq!(out.makespan_cycles, 220);
        assert_eq!(out.assignments(), vec![vec![0, 2], vec![1, 3]]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Conservation and monotonicity: every request completes after
        /// it arrives, batches never overlap on one worker, more
        /// workers never lengthen the makespan, and the whole outcome
        /// is deterministic.
        #[test]
        fn dispatch_invariants(
            gaps in proptest::collection::vec(0u64..200, 1..80),
            max_batch in 1usize..6,
            max_wait in 0u64..400,
            workers in 1usize..5,
            base in 1u64..5000,
        ) {
            let mut t = 0u64;
            let arrivals: Vec<u64> = gaps.iter().map(|&g| { t += g; t }).collect();
            let batches = form_batches(
                &arrivals,
                &BatcherConfig { max_batch, max_wait_cycles: max_wait },
            );
            let service = move |n: usize| base + 17 * n as u64;
            let out = dispatch_batches(&arrivals, &batches, workers, &service);
            prop_assert_eq!(out.requests.len(), arrivals.len());
            for r in &out.requests {
                prop_assert!(r.dispatch >= r.arrival);
                prop_assert!(r.completion > r.dispatch);
                prop_assert_eq!(
                    r.latency_cycles(),
                    r.queue_wait_cycles() + r.service_cycles()
                );
            }
            // Per-worker batch timelines never overlap.
            for w in 0..workers {
                let mut last_end = 0u64;
                for b in out.batches.iter().filter(|b| b.worker == w) {
                    prop_assert!(b.start_cycle >= last_end);
                    prop_assert!(b.start_cycle >= b.close_cycle);
                    last_end = b.end_cycle;
                }
            }
            // Determinism: bit-identical on rerun.
            prop_assert_eq!(
                &out,
                &dispatch_batches(&arrivals, &batches, workers, &service)
            );
            // Weak scaling: an extra worker never hurts the makespan.
            let more = dispatch_batches(&arrivals, &batches, workers + 1, &service);
            prop_assert!(more.makespan_cycles <= out.makespan_cycles);
        }
    }
}
