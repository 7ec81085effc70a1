//! The online, deterministic virtual-time serving runtime.
//!
//! The offline pipeline (`form_batches` + `dispatch_batches`) replays a
//! complete trace it can see end to end. This module is the *online*
//! generalization: arrivals, batch closings, worker completions and
//! autoscaler decisions are timestamped events processed in one fixed
//! total order, so the runtime makes every decision with only the past
//! in view — and still reruns byte-identically, because the only clock
//! is virtual time.
//!
//! # Event model
//!
//! Every event carries a `(cycle, rank, tiebreak)` key and the heap
//! pops the minimum. Ranks fix the intra-cycle order:
//!
//! 1. **worker-free** (rank 0, tiebreak = worker id) — capacity
//!    appears before anything else on a cycle uses it;
//! 2. **arrival** (rank 1, merged from the sorted trace cursor, never
//!    heap-resident) — requests arriving *on* a batch's deadline still
//!    join it, exactly like the offline batcher;
//! 3. **batch close** (rank 2, tiebreak = generation; stale closes are
//!    skipped by generation mismatch);
//! 4. **scale evaluation** (rank 3) — the autoscaler sees the cycle's
//!    settled state.
//!
//! # Admission, shedding, SLO-aware closing, autoscaling
//!
//! A bounded queue rejects work instead of growing without bound
//! ([`Rejection::QueueFull`]); under pressure the lowest-priority
//! member of the forming batch is evicted in favor of a
//! higher-priority newcomer ([`Rejection::ShedLowPriority`]); requests
//! whose SLO cannot be met even by a solo batch are refused up front
//! ([`Rejection::DeadlineInfeasible`]). With
//! [`RuntimeConfig::deadline_aware`] set, a forming batch closes early
//! when its most-constrained member's budget is at risk (predicted via
//! the service-cycles table at the worst-case batch size). The
//! autoscaler spins workers up on queue depth and down on idleness,
//! charging every spin-up an explicit weight-fill warmup in cycles —
//! initial workers are weight-resident and pay nothing.
//!
//! Under [`RuntimeConfig::offline`] — shedding, deadlines, priorities
//! and autoscaling all disabled — this runtime reproduces the offline
//! pipeline's [`SimOutcome`] bit-exactly (pinned by
//! `tests/serve_equivalence.rs`).
//!
//! # Fault tolerance
//!
//! [`ResilienceConfig`] arms the runtime against a seeded
//! [`FaultPlan`] (see `capsacc-faults`): a dispatch attempt may crash
//! its worker mid-batch, stall before recovering, or straggle at a ×k
//! service multiplier. The recovery half lives here:
//!
//! - **crash → requeue with backoff** — the crashed worker's batch
//!   returns to the head of the admission queue as a typed
//!   [`EvKind::Requeue`] event after a deterministic exponential
//!   backoff; a bounded retry budget converts persistent failures
//!   into typed [`Rejection::RetryExhausted`] refusals instead of
//!   losing requests, and a replacement worker spawns through the
//!   autoscaler's warmup path, its weight re-staging charged by the
//!   caller's respawn model ([`ServiceModel::respawn_warmup`]);
//! - **straggler hedging** — once an attempt outlives a p99-derived
//!   deadline (over the observed service durations), a duplicate
//!   dispatch is hedged onto a free worker; the first completion wins
//!   and the loser is cancelled, its unfinished work un-charged;
//! - **graceful degradation** — under sustained queue pressure a
//!   global degradation level (0..=2) sheds routing iterations per
//!   priority class (higher classes degrade last) via the level-aware
//!   service model, trading accuracy for goodput instead of shedding
//!   requests outright.
//!
//! Every decision is a [`LoggedEvent`] folded into the digest, so
//! faults-on reruns are byte-identical; with
//! [`ResilienceConfig::none`] no fault event is ever scheduled and
//! the event stream is byte-identical to the fault-free runtime.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

use capsacc_faults::{FaultPlan, CRASH_FRACTION_DENOM};
use capsacc_tensor::u64_from;

use crate::batcher::{BatcherConfig, ConfigError};
use crate::sim::{BatchStat, RequestStat, SimOutcome};
use crate::trace::{Request, VIRTUAL_TIME_HORIZON};
use capsacc_telemetry::percentile;

/// Why the runtime refused a request.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum Rejection {
    /// The admission queue (forming batch + closed-but-undispatched
    /// backlog) was at capacity and the newcomer did not outrank any
    /// forming-batch member.
    QueueFull,
    /// The request's SLO is shorter than a solo batch's service time —
    /// it could never be met, so it is refused at arrival instead of
    /// wasting capacity.
    DeadlineInfeasible,
    /// The request was admitted but later evicted from the forming
    /// batch in favor of a higher-priority newcomer.
    ShedLowPriority,
    /// The request's batch was dispatched, crashed, and requeued until
    /// the bounded retry budget ran out.
    RetryExhausted,
}

/// One refused request: who, when, why, and (for evictions) the batch
/// it was evicted from.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RejectionRecord {
    /// Index of the request in the input trace.
    pub request: usize,
    /// Cycle of the rejection decision.
    pub cycle: u64,
    /// Why it was refused.
    pub rejection: Rejection,
    /// The forming batch it was evicted from, if it had been admitted.
    pub batch: Option<usize>,
}

/// Why a batch closed.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum CloseCause {
    /// The `max_batch`-th request arrived.
    Size,
    /// The batcher's `max_wait_cycles` deadline passed.
    Deadline,
    /// A member's SLO budget was at risk (deadline-aware early close).
    SloRisk,
}

/// One autoscaler action.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ScalingEvent {
    /// A worker was spun up; it becomes dispatchable at `ready_at`
    /// after its weight-fill warmup.
    Up {
        /// Decision cycle.
        cycle: u64,
        /// Id of the new worker.
        worker: usize,
        /// Cycle the worker finishes warming up.
        ready_at: u64,
    },
    /// An idle worker was retired.
    Down {
        /// Decision cycle.
        cycle: u64,
        /// Id of the retired worker.
        worker: usize,
    },
}

/// One entry of the runtime's event log — the byte-identical-rerun
/// artifact the determinism proptests compare.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum LoggedEvent {
    /// A request arrived.
    Arrival {
        /// Cycle of the event.
        cycle: u64,
        /// Request index.
        request: usize,
        /// Priority class.
        class: usize,
    },
    /// A request joined the forming batch.
    Admitted {
        /// Cycle of the event.
        cycle: u64,
        /// Request index.
        request: usize,
        /// Batch it joined.
        batch: usize,
    },
    /// A request was refused.
    Rejected {
        /// Cycle of the event.
        cycle: u64,
        /// Request index.
        request: usize,
        /// Why.
        rejection: Rejection,
    },
    /// The forming batch closed.
    BatchClosed {
        /// Cycle of the event.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Members at close.
        len: usize,
        /// Why it closed.
        cause: CloseCause,
    },
    /// A closed batch started on a worker.
    Dispatched {
        /// Cycle of the event.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Worker it runs on.
        worker: usize,
        /// Batch size.
        len: usize,
    },
    /// A batch completed.
    Completed {
        /// Cycle of the event.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Worker it ran on.
        worker: usize,
    },
    /// The autoscaler spun up a worker.
    ScaledUp {
        /// Cycle of the event.
        cycle: u64,
        /// New worker id.
        worker: usize,
        /// Cycle its warmup completes.
        ready_at: u64,
    },
    /// The autoscaler retired a worker.
    ScaledDown {
        /// Cycle of the event.
        cycle: u64,
        /// Retired worker id.
        worker: usize,
    },
    /// A worker crashed partway through its batch (injected by the
    /// [`FaultPlan`]); the partial work is wasted.
    WorkerCrashed {
        /// Cycle of the event.
        cycle: u64,
        /// Batch whose attempt died.
        batch: usize,
        /// Crashed worker id.
        worker: usize,
        /// Cycles of partial work lost.
        wasted: u64,
    },
    /// A crashed batch re-enters the admission queue after its
    /// exponential backoff.
    Requeued {
        /// Crash-decision cycle.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Dispatch attempts consumed so far.
        attempt: u32,
        /// Cycle the batch becomes dispatchable again.
        ready_at: u64,
    },
    /// A dispatch attempt stalls for `stall` extra cycles before
    /// recovering (injected by the [`FaultPlan`]).
    WorkerStalled {
        /// Dispatch cycle.
        cycle: u64,
        /// Stalled worker id.
        worker: usize,
        /// Batch being served.
        batch: usize,
        /// Extra cycles charged.
        stall: u64,
    },
    /// A dispatch attempt runs as a straggler at a ×`factor` service
    /// multiplier (injected by the [`FaultPlan`]).
    Straggling {
        /// Dispatch cycle.
        cycle: u64,
        /// Straggling worker id.
        worker: usize,
        /// Batch being served.
        batch: usize,
        /// Service multiplier.
        factor: u64,
    },
    /// A duplicate of a slow batch was hedged onto a second worker
    /// after the p99-derived deadline passed.
    HedgeDispatched {
        /// Cycle of the event.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Worker running the duplicate.
        worker: usize,
        /// Worker running the original attempt.
        primary: usize,
    },
    /// First-completion-wins: the losing copy of a hedged batch was
    /// cancelled and its worker freed.
    HedgeCancelled {
        /// Cycle of the event.
        cycle: u64,
        /// Batch id.
        batch: usize,
        /// Worker whose copy was cancelled.
        worker: usize,
    },
    /// The graceful-degradation controller moved the global
    /// degradation level.
    Degraded {
        /// Cycle of the event.
        cycle: u64,
        /// New global level (0 = full quality).
        level: u32,
    },
}

/// Per-priority-class serving statistics.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct ClassStats {
    /// Requests of this class that arrived.
    pub offered: usize,
    /// Requests served to completion.
    pub served: usize,
    /// Requests shed by admission control ([`Rejection::QueueFull`] or
    /// [`Rejection::ShedLowPriority`]).
    pub shed: usize,
    /// Requests refused as [`Rejection::DeadlineInfeasible`].
    pub infeasible: usize,
    /// Served requests that met their SLO (best-effort requests always
    /// count as met).
    pub slo_met: usize,
    /// Requests refused as [`Rejection::RetryExhausted`] after their
    /// batch ran out of crash retries.
    pub retry_exhausted: usize,
    /// Served requests whose batch ran at a degraded routing level
    /// (quality traded for goodput; subset of `served`).
    pub degraded: usize,
}

/// Autoscaler policy: queue-depth-driven scale-up, idleness-driven
/// scale-down, evaluated on a fixed virtual-time period.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct AutoscalerConfig {
    /// Never retire below this many active workers.
    pub min_workers: usize,
    /// Never spin up beyond this many active workers.
    pub max_workers: usize,
    /// Spin up one worker when queued requests exceed this many per
    /// active worker.
    pub scale_up_queue_per_worker: usize,
    /// Retire an idle worker once it has sat free this many cycles.
    pub scale_down_idle_cycles: u64,
    /// Cycles between autoscaler evaluations.
    pub eval_period_cycles: u64,
}

/// Crash-retry policy: how many dispatch attempts a batch gets and
/// how the requeue backoff grows.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct RetryConfig {
    /// Maximum dispatch attempts per batch (including the first); once
    /// exhausted the members are refused as
    /// [`Rejection::RetryExhausted`].
    pub max_attempts: u32,
    /// Backoff before retry `n` is `backoff_base_cycles << (n - 1)`,
    /// deterministic and in virtual cycles.
    pub backoff_base_cycles: u64,
}

impl RetryConfig {
    /// The default budget: three attempts, 1000-cycle base backoff.
    pub fn standard() -> Self {
        RetryConfig {
            max_attempts: 3,
            backoff_base_cycles: 1_000,
        }
    }
}

/// Straggler hedging: when an attempt outlives a p99-derived deadline,
/// duplicate it onto a free worker; first completion wins.
///
/// The detector is fixed: the p99 of observed service durations once 32
/// attempts have completed, and three times the expected service
/// before that. [`ResilienceConfig::hedge`] switches it on and off.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct HedgeConfig;

impl HedgeConfig {
    /// Observed completions needed before the p99 estimate is trusted.
    const MIN_SAMPLES: usize = 32;
    /// Until then, hedge after `expected_service * COLD_FACTOR_PCT /
    /// 100` cycles.
    const COLD_FACTOR_PCT: u64 = 300;

    /// The hedge detector, the type's one value.
    pub fn standard() -> Self {
        HedgeConfig
    }
}

/// Graceful-degradation policy: a global level in `0..=max_level`
/// stepped on queue-occupancy watermarks; the level-aware service
/// model sheds routing iterations per class instead of shedding
/// requests.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DegradeConfig {
    /// Step the level up when admitted-but-undispatched occupancy
    /// reaches this many requests.
    pub high_occupancy: usize,
    /// Step the level down once occupancy falls back to this bound.
    pub low_occupancy: usize,
    /// Cycles between controller evaluations.
    pub eval_period_cycles: u64,
    /// Highest global level (2 for the 3→2→1 routing ladder).
    pub max_level: u32,
}

/// Fault-tolerance configuration: the seeded [`FaultPlan`] plus the
/// recovery policies. [`ResilienceConfig::none`] is byte-invisible —
/// no fault event is ever drawn or scheduled.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct ResilienceConfig {
    /// The seeded fault schedule (serve-layer rates apply here).
    pub faults: FaultPlan,
    /// Crash-retry budget and backoff.
    pub retry: RetryConfig,
    /// Straggler hedging, or `None` to never duplicate work.
    pub hedge: Option<HedgeConfig>,
    /// Graceful degradation, or `None` to keep full quality always.
    pub degrade: Option<DegradeConfig>,
}

impl ResilienceConfig {
    /// Fault-free, hedge-free, full-quality: the exact pre-fault
    /// runtime behavior.
    pub fn none() -> Self {
        ResilienceConfig {
            faults: FaultPlan::none(),
            retry: RetryConfig::standard(),
            hedge: None,
            degrade: None,
        }
    }

    /// True when this configuration can never perturb a run.
    pub fn is_none(&self) -> bool {
        self.faults.is_none() && self.hedge.is_none() && self.degrade.is_none()
    }
}

/// Fault and recovery counters for one run.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct FaultStats {
    /// Worker crashes injected.
    pub crashes: usize,
    /// Stall faults injected.
    pub stalls: usize,
    /// Straggler faults injected.
    pub stragglers: usize,
    /// Batches requeued after a crash.
    pub requeues: usize,
    /// Batches whose retry budget ran out.
    pub exhausted_batches: usize,
    /// Duplicate dispatches hedged.
    pub hedges: usize,
    /// Hedged duplicates that won the race.
    pub hedge_wins: usize,
    /// Global degradation-level transitions.
    pub degrade_shifts: usize,
    /// Cycles of crashed partial work plus cancelled hedge work.
    pub wasted_cycles: u64,
}

/// The level-aware service and warmup model consumed by
/// [`run_runtime_resilient`].
pub struct ServiceModel<'a> {
    /// `service(level, n)` = cycles to serve a batch of `n` at global
    /// degradation `level` (level 0 = full quality; must be positive
    /// and defined for every level up to the configured maximum).
    pub service: Box<dyn Fn(u32, usize) -> u64 + 'a>,
    /// Warmup charged to the `k`-th crash-replacement worker (weights
    /// re-staged through the memory subsystem, possibly under memory
    /// faults).
    pub respawn_warmup: Box<dyn Fn(u64) -> u64 + 'a>,
    /// Warmup charged to every autoscaled spin-up; initial workers are
    /// weight-resident and pay nothing.
    pub warmup_cycles: u64,
}

impl<'a> ServiceModel<'a> {
    /// A level-blind model: every degradation level is served in
    /// `service(n)` cycles, and every spin-up — autoscaled or crash
    /// replacement — is charged the same `warmup_cycles`.
    pub fn flat(service: impl Fn(usize) -> u64 + 'a, warmup_cycles: u64) -> Self {
        ServiceModel {
            service: Box::new(move |_, n| service(n)),
            respawn_warmup: Box::new(move |_| warmup_cycles),
            warmup_cycles,
        }
    }
}

/// Full configuration of the online runtime.
#[derive(Clone, PartialEq, Debug)]
pub struct RuntimeConfig {
    /// Initial (weight-resident) workers.
    pub workers: usize,
    /// Micro-batching policy.
    pub batcher: BatcherConfig,
    /// Admission-queue bound over *waiting* requests (forming batch +
    /// closed backlog); `None` is unbounded and never sheds.
    pub queue_capacity: Option<usize>,
    /// Enables SLO-aware early closing and infeasibility rejection.
    pub deadline_aware: bool,
    /// Autoscaler policy, or `None` for a fixed pool.
    pub autoscaler: Option<AutoscalerConfig>,
    /// Retain the full [`LoggedEvent`] stream in the outcome (the FNV
    /// digest is always computed; the log itself costs memory on
    /// million-request runs).
    pub record_events: bool,
    /// Fault injection + recovery policy;
    /// [`ResilienceConfig::none()`] is byte-invisible.
    pub resilience: ResilienceConfig,
}

impl RuntimeConfig {
    /// The offline pipeline's semantics: unbounded queue, no deadlines,
    /// no autoscaler, no event log and [`ResilienceConfig::none`].
    /// Under it the runtime reproduces
    /// [`crate::form_batches`] + [`crate::dispatch_batches`] bit-exactly
    /// (pinned by `tests/serve_equivalence.rs`).
    pub fn offline(workers: usize, batcher: BatcherConfig) -> Self {
        RuntimeConfig {
            workers,
            batcher,
            queue_capacity: None,
            deadline_aware: false,
            autoscaler: None,
            record_events: false,
            resilience: ResilienceConfig::none(),
        }
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// The first violated constraint as a typed [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        if self.workers == 0 {
            return Err(ConfigError::ZeroWorkers);
        }
        self.batcher.validate()?;
        if self.queue_capacity == Some(0) {
            return Err(ConfigError::ZeroQueueCapacity);
        }
        if let Some(a) = &self.autoscaler {
            if a.min_workers == 0 {
                return Err(ConfigError::InvalidAutoscaler(
                    "min_workers must be at least 1",
                ));
            }
            if a.max_workers < a.min_workers {
                return Err(ConfigError::InvalidAutoscaler(
                    "max_workers below min_workers",
                ));
            }
            if a.eval_period_cycles == 0 {
                return Err(ConfigError::InvalidAutoscaler(
                    "eval_period_cycles must be at least 1",
                ));
            }
            if self.workers < a.min_workers || self.workers > a.max_workers {
                return Err(ConfigError::InvalidAutoscaler(
                    "initial workers outside [min_workers, max_workers]",
                ));
            }
        }
        let res = &self.resilience;
        if let Err(msg) = res.faults.validate() {
            return Err(ConfigError::InvalidResilience(msg));
        }
        if res.retry.max_attempts == 0 {
            return Err(ConfigError::InvalidResilience(
                "retry.max_attempts must be at least 1",
            ));
        }
        if res.retry.backoff_base_cycles == 0 {
            return Err(ConfigError::InvalidResilience(
                "retry.backoff_base_cycles must be at least 1",
            ));
        }
        if let Some(d) = &res.degrade {
            if d.max_level == 0 {
                return Err(ConfigError::InvalidResilience(
                    "degrade.max_level must be at least 1",
                ));
            }
            if d.low_occupancy >= d.high_occupancy {
                return Err(ConfigError::InvalidResilience(
                    "degrade.low_occupancy must be below high_occupancy",
                ));
            }
            if d.eval_period_cycles == 0 {
                return Err(ConfigError::InvalidResilience(
                    "degrade.eval_period_cycles must be at least 1",
                ));
            }
        }
        Ok(())
    }
}

/// Everything one online run produced.
#[derive(Clone, PartialEq, Debug)]
pub struct RuntimeOutcome {
    /// The served subset in the offline pipeline's shape: per-request
    /// stats (ascending request index), per-batch stats (close order,
    /// completed batches only — retry-exhausted batches are absent and
    /// later batch indices shift down), per-worker busy cycles (every
    /// worker ever active), makespan.
    pub sim: SimOutcome,
    /// Input indices of the served requests, ascending — `sim.requests[i]`
    /// describes request `served[i]`.
    pub served: Vec<usize>,
    /// Every refused request, in decision order.
    pub rejections: Vec<RejectionRecord>,
    /// Why each batch closed, aligned with `sim.batches` (completed
    /// batches in close order).
    pub close_causes: Vec<CloseCause>,
    /// Autoscaler actions, in decision order.
    pub scaling: Vec<ScalingEvent>,
    /// Per-class statistics, indexed by class.
    pub class_stats: Vec<ClassStats>,
    /// Warmup charged to each autoscaled spin-up, in cycles.
    pub warmup_cycles: u64,
    /// Requests offered (served + rejected).
    pub total_requests: usize,
    /// FNV-1a digest of the full event stream — always computed, so
    /// byte-identical-rerun checks don't need the log in memory.
    pub event_digest: u64,
    /// The full event stream, when [`RuntimeConfig::record_events`].
    pub events: Vec<LoggedEvent>,
    /// Fault and recovery counters (all zero under
    /// [`ResilienceConfig::none`]).
    pub faults: FaultStats,
}

impl RuntimeOutcome {
    /// Requests shed by admission control (full queue or priority
    /// eviction); excludes infeasible-SLO refusals.
    pub fn shed_count(&self) -> usize {
        self.rejections
            .iter()
            .filter(|r| {
                matches!(
                    r.rejection,
                    Rejection::QueueFull | Rejection::ShedLowPriority
                )
            })
            .count()
    }

    /// Requests refused after their batch's retry budget ran out.
    pub fn retry_exhausted_count(&self) -> usize {
        self.rejections
            .iter()
            .filter(|r| r.rejection == Rejection::RetryExhausted)
            .count()
    }

    /// Served requests as a fraction of everything offered — the
    /// crash-recovery goodput metric (1.0 when nothing was offered).
    pub fn served_fraction(&self) -> f64 {
        if self.total_requests == 0 {
            return 1.0;
        }
        self.served.len() as f64 / self.total_requests as f64
    }

    /// Shed requests as a fraction of everything offered.
    pub fn shed_rate(&self) -> f64 {
        if self.total_requests == 0 {
            return 0.0;
        }
        self.shed_count() as f64 / self.total_requests as f64
    }

    /// Requests served *within their own SLO* per cycle of makespan —
    /// the overload metric: throughput counts late work, goodput does
    /// not.
    pub fn goodput_per_cycle(&self) -> f64 {
        if self.sim.makespan_cycles == 0 {
            return 0.0;
        }
        let good: usize = self.class_stats.iter().map(|c| c.slo_met).sum();
        good as f64 / self.sim.makespan_cycles as f64
    }

    /// Fraction of this class's served requests that met their SLO
    /// (1.0 when the class served nothing).
    pub fn slo_attainment(&self, class: usize) -> f64 {
        let c = &self.class_stats[class];
        if c.served == 0 {
            return 1.0;
        }
        c.slo_met as f64 / c.served as f64
    }
}

const RANK_WORKER_FREE: u8 = 0;
const RANK_ARRIVAL: u8 = 1;
const RANK_CLOSE: u8 = 2;
const RANK_SCALE: u8 = 3;

#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
enum EvKind {
    /// `epoch` guards staleness: crashes and hedge cancellations bump
    /// the worker's epoch, orphaning the completion event already in
    /// the heap.
    WorkerFree {
        worker: usize,
        epoch: u64,
    },
    Close {
        generation: u64,
    },
    /// A crashed batch re-enters the queue (tiebreak drawn from the
    /// shared generation counter).
    Requeue {
        batch: usize,
    },
    /// Straggler probe for a batch; `epoch` is the batch's dispatch
    /// count at scheduling time, so probes for a requeued attempt
    /// don't act on a later one.
    HedgeCheck {
        batch: usize,
        epoch: u32,
    },
    ScaleEval,
    DegradeEval,
}

/// Heap key: `(cycle, rank, tiebreak)` is unique per pending event
/// except for orphaned worker-free events (same worker, same cycle,
/// different epoch), where the derived `kind` order — epoch ascending
/// — keeps the total order deterministic.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Debug)]
struct Ev {
    cycle: u64,
    rank: u8,
    tiebreak: u64,
    kind: EvKind,
}

struct Worker {
    free_at: u64,
    busy: u64,
    active: bool,
    current: Option<usize>,
    /// Bumped on every dispatch, crash and cancellation; a
    /// [`EvKind::WorkerFree`] event only acts when its epoch matches.
    epoch: u64,
}

/// One live dispatch attempt (primary or hedged duplicate).
struct Attempt {
    worker: usize,
    start: u64,
    /// Scheduled end: completion, or the crash point when `crash`.
    end: u64,
    crash: bool,
    hedge: bool,
}

/// A dispatched batch that has not completed: its members, the
/// degradation level it runs at, and its live copies (two while a
/// hedge is racing).
struct Inflight {
    members: Vec<usize>,
    close_cycle: u64,
    level: u32,
    hedged: bool,
    copies: Vec<Attempt>,
}

struct Forming {
    id: usize,
    members: Vec<usize>,
    deadline: u64,
    close_at: u64,
    generation: u64,
}

struct ClosedBatch {
    id: usize,
    members: Vec<usize>,
    close_cycle: u64,
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn fnv_mix(h: &mut u64, word: u64) {
    *h ^= word;
    *h = h.wrapping_mul(FNV_PRIME);
}

fn digest_event(h: &mut u64, e: &LoggedEvent) {
    match *e {
        LoggedEvent::Arrival {
            cycle,
            request,
            class,
        } => {
            fnv_mix(h, 1);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(request));
            fnv_mix(h, u64_from(class));
        }
        LoggedEvent::Admitted {
            cycle,
            request,
            batch,
        } => {
            fnv_mix(h, 2);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(request));
            fnv_mix(h, u64_from(batch));
        }
        LoggedEvent::Rejected {
            cycle,
            request,
            rejection,
        } => {
            fnv_mix(h, 3);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(request));
            fnv_mix(h, u64::from(rejection as u8));
        }
        LoggedEvent::BatchClosed {
            cycle,
            batch,
            len,
            cause,
        } => {
            fnv_mix(h, 4);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(len));
            fnv_mix(h, u64::from(cause as u8));
        }
        LoggedEvent::Dispatched {
            cycle,
            batch,
            worker,
            len,
        } => {
            fnv_mix(h, 5);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, u64_from(len));
        }
        LoggedEvent::Completed {
            cycle,
            batch,
            worker,
        } => {
            fnv_mix(h, 6);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(worker));
        }
        LoggedEvent::ScaledUp {
            cycle,
            worker,
            ready_at,
        } => {
            fnv_mix(h, 7);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, ready_at);
        }
        LoggedEvent::ScaledDown { cycle, worker } => {
            fnv_mix(h, 8);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(worker));
        }
        LoggedEvent::WorkerCrashed {
            cycle,
            batch,
            worker,
            wasted,
        } => {
            fnv_mix(h, 9);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, wasted);
        }
        LoggedEvent::Requeued {
            cycle,
            batch,
            attempt,
            ready_at,
        } => {
            fnv_mix(h, 10);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64::from(attempt));
            fnv_mix(h, ready_at);
        }
        LoggedEvent::WorkerStalled {
            cycle,
            worker,
            batch,
            stall,
        } => {
            fnv_mix(h, 11);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, stall);
        }
        LoggedEvent::Straggling {
            cycle,
            worker,
            batch,
            factor,
        } => {
            fnv_mix(h, 12);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, factor);
        }
        LoggedEvent::HedgeDispatched {
            cycle,
            batch,
            worker,
            primary,
        } => {
            fnv_mix(h, 13);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(worker));
            fnv_mix(h, u64_from(primary));
        }
        LoggedEvent::HedgeCancelled {
            cycle,
            batch,
            worker,
        } => {
            fnv_mix(h, 14);
            fnv_mix(h, cycle);
            fnv_mix(h, u64_from(batch));
            fnv_mix(h, u64_from(worker));
        }
        LoggedEvent::Degraded { cycle, level } => {
            fnv_mix(h, 15);
            fnv_mix(h, cycle);
            fnv_mix(h, u64::from(level));
        }
    }
}

/// Streaming consumer of the runtime's event stream.
///
/// The runtime hands every [`LoggedEvent`] to its sink *in the total
/// event order*, immediately after folding it into the FNV digest —
/// whether or not [`RuntimeConfig::record_events`] retains the log.
/// Observers (e.g. the telemetry recorder in [`crate::telemetry`]) can
/// thus build timelines and windowed metrics over million-request runs
/// without the runtime materializing a `Vec<LoggedEvent>`. A sink
/// never feeds back into the runtime, so it cannot perturb the
/// outcome or the digest.
pub trait EventSink {
    /// Observes one event. Called in the runtime's total event order.
    fn event(&mut self, e: &LoggedEvent);
}

/// The do-nothing sink behind [`run_runtime`].
#[derive(Copy, Clone, Default, Debug)]
pub struct NullSink;

impl EventSink for NullSink {
    fn event(&mut self, _e: &LoggedEvent) {}
}

/// Observed service durations kept for the p99 hedge deadline: a
/// fixed ring so million-request runs stay O(1) per completion.
const HEDGE_HISTORY: usize = 1024;

struct Runtime<'a> {
    cfg: &'a RuntimeConfig,
    requests: &'a [Request],
    model: &'a ServiceModel<'a>,

    heap: BinaryHeap<Reverse<Ev>>,
    workers: Vec<Worker>,
    forming: Option<Forming>,
    queue: VecDeque<ClosedBatch>,
    next_batch_id: usize,
    next_generation: u64,

    /// In-flight batches by id (`None` once completed, exhausted, or
    /// awaiting requeue).
    inflight: Vec<Option<Inflight>>,
    /// Dispatch attempts consumed, by batch id.
    attempts: Vec<u32>,
    /// Monotone dispatch-attempt ordinal — the fault plan's index.
    attempt_seq: u64,
    /// Monotone crash-replacement ordinal — the respawn model's index.
    respawn_seq: u64,
    /// Ring of observed service durations for the hedge deadline.
    svc_hist: Vec<u64>,
    svc_hist_pos: usize,
    /// Global graceful-degradation level.
    degrade_level: u32,
    fault_stats: FaultStats,

    request_stats: Vec<Option<RequestStat>>,
    /// By batch id; filled at successful completion (satellite of the
    /// conservation fix: a requeued-then-served request is counted
    /// exactly once, at completion).
    batch_stats: Vec<Option<BatchStat>>,
    rejections: Vec<RejectionRecord>,
    close_causes: Vec<CloseCause>,
    scaling: Vec<ScalingEvent>,
    class_stats: Vec<ClassStats>,
    digest: u64,
    sink: &'a mut dyn EventSink,
    events: Vec<LoggedEvent>,
}

impl<'a> Runtime<'a> {
    fn log(&mut self, e: LoggedEvent) {
        digest_event(&mut self.digest, &e);
        self.sink.event(&e);
        if self.cfg.record_events {
            self.events.push(e);
        }
    }

    /// Admitted-but-undispatched requests: forming members + closed
    /// backlog — the population the queue bound covers.
    fn occupancy(&self) -> usize {
        let forming = self.forming.as_ref().map_or(0, |f| f.members.len());
        forming + self.queue.iter().map(|b| b.members.len()).sum::<usize>()
    }

    fn active_workers(&self) -> usize {
        self.workers.iter().filter(|w| w.active).count()
    }

    /// Latest cycle the forming batch may close and still (by the
    /// worst-case service estimate, at full quality) meet every
    /// member's SLO.
    fn slo_close_bound(&self, members: &[usize]) -> u64 {
        let worst = (self.model.service)(0, self.cfg.batcher.max_batch);
        members
            .iter()
            .filter_map(|&r| {
                self.requests[r]
                    .slo_cycles
                    .map(|slo| (self.requests[r].arrival + slo).saturating_sub(worst))
            })
            .min()
            .unwrap_or(u64::MAX)
    }

    /// Recomputes the forming batch's close cycle and (re)schedules its
    /// close event when the target moved.
    fn schedule_close(&mut self, now: u64) {
        let deadline_aware = self.cfg.deadline_aware;
        let slo_bound = if deadline_aware {
            self.slo_close_bound(&self.forming.as_ref().expect("forming batch open").members)
        } else {
            u64::MAX
        };
        let f = self.forming.as_mut().expect("forming batch open");
        let close_at = f.deadline.min(slo_bound).max(now);
        // `generation == 0` marks a batch whose close was never
        // scheduled; otherwise reschedule only when the target moved
        // (the generation bump invalidates the stale event).
        if f.generation == 0 || close_at != f.close_at {
            f.close_at = close_at;
            self.next_generation += 1;
            f.generation = self.next_generation;
            let generation = f.generation;
            self.heap.push(Reverse(Ev {
                cycle: close_at,
                rank: RANK_CLOSE,
                tiebreak: generation,
                kind: EvKind::Close { generation },
            }));
        }
    }

    fn on_arrival(&mut self, req: usize, now: u64) {
        let r = self.requests[req];
        self.log(LoggedEvent::Arrival {
            cycle: now,
            request: req,
            class: r.class,
        });
        self.class_stats[r.class].offered += 1;

        // Infeasible SLOs are refused before they consume queue space.
        if self.cfg.deadline_aware {
            if let Some(slo) = r.slo_cycles {
                if slo < (self.model.service)(0, 1) {
                    self.class_stats[r.class].infeasible += 1;
                    self.reject(req, now, Rejection::DeadlineInfeasible, None);
                    return;
                }
            }
        }

        // Admission control: at capacity, evict the worst of (forming
        // members ∪ newcomer) — lowest class first, then latest
        // arrival, then highest index (newest work is cheapest to
        // lose).
        if let Some(cap) = self.cfg.queue_capacity {
            if self.occupancy() >= cap {
                let key = |idx: usize| {
                    let q = self.requests[idx];
                    (q.class, Reverse(q.arrival), Reverse(idx))
                };
                let member_victim = self
                    .forming
                    .as_ref()
                    .and_then(|f| f.members.iter().copied().min_by_key(|&m| key(m)));
                match member_victim {
                    Some(victim) if key(victim) < key(req) => {
                        let f = self.forming.as_mut().expect("victim came from forming");
                        let batch = f.id;
                        let pos = f
                            .members
                            .iter()
                            .position(|&m| m == victim)
                            .expect("victim is a member");
                        f.members.remove(pos);
                        self.class_stats[self.requests[victim].class].shed += 1;
                        self.reject(victim, now, Rejection::ShedLowPriority, Some(batch));
                    }
                    _ => {
                        self.class_stats[r.class].shed += 1;
                        self.reject(req, now, Rejection::QueueFull, None);
                        return;
                    }
                }
            }
        }

        // Admit into the forming batch (opening one if needed).
        if self.forming.is_none() {
            let id = self.next_batch_id;
            self.next_batch_id += 1;
            let deadline = now
                .checked_add(self.cfg.batcher.max_wait_cycles)
                .expect("deadline overflows u64: arrival beyond the virtual-time horizon");
            self.forming = Some(Forming {
                id,
                members: Vec::new(),
                deadline,
                close_at: 0,
                generation: 0,
            });
        }
        let f = self.forming.as_mut().expect("forming batch open");
        let batch = f.id;
        f.members.push(req);
        let len = f.members.len();
        self.log(LoggedEvent::Admitted {
            cycle: now,
            request: req,
            batch,
        });
        if len == self.cfg.batcher.max_batch {
            self.close_forming(now, CloseCause::Size);
        } else {
            self.schedule_close(now);
        }
    }

    fn reject(&mut self, req: usize, now: u64, rejection: Rejection, batch: Option<usize>) {
        self.log(LoggedEvent::Rejected {
            cycle: now,
            request: req,
            rejection,
        });
        self.rejections.push(RejectionRecord {
            request: req,
            cycle: now,
            rejection,
            batch,
        });
    }

    fn on_close_event(&mut self, generation: u64, now: u64) {
        let live = self
            .forming
            .as_ref()
            .is_some_and(|f| f.generation == generation);
        if !live {
            return; // stale: the batch size-closed or was rescheduled
        }
        let f = self.forming.as_ref().expect("live close event");
        let cause = if f.close_at >= f.deadline {
            CloseCause::Deadline
        } else {
            CloseCause::SloRisk
        };
        self.close_forming(now, cause);
    }

    fn close_forming(&mut self, now: u64, cause: CloseCause) {
        let f = self.forming.take().expect("forming batch to close");
        debug_assert!(!f.members.is_empty(), "empty batches never form");
        self.log(LoggedEvent::BatchClosed {
            cycle: now,
            batch: f.id,
            len: f.members.len(),
            cause,
        });
        debug_assert_eq!(self.close_causes.len(), f.id, "close order is id order");
        self.close_causes.push(cause);
        self.batch_stats.push(None);
        self.inflight.push(None);
        self.attempts.push(0);
        self.queue.push_back(ClosedBatch {
            id: f.id,
            members: f.members,
            close_cycle: now,
        });
        self.try_dispatch(now);
    }

    /// Lowest-id free active worker at `now`, if any.
    fn free_worker(&self, now: u64) -> Option<usize> {
        self.workers
            .iter()
            .enumerate()
            .filter(|(_, w)| w.active && w.current.is_none() && w.free_at <= now)
            .min_by_key(|(id, w)| (w.free_at, *id))
            .map(|(id, _)| id)
    }

    fn try_dispatch(&mut self, now: u64) {
        while !self.queue.is_empty() {
            // Earliest-freed active worker, lowest id on ties — the
            // online analogue of the offline dispatcher's
            // `min_by_key((free_at, id))`, restricted to workers whose
            // capacity exists at `now`.
            let Some(worker) = self.free_worker(now) else {
                break;
            };
            let b = self.queue.pop_front().expect("non-empty queue");
            self.dispatch(b, worker, now);
        }
    }

    /// Degradation level a batch runs at: the minimum over its members
    /// of `global_level - class` (higher classes degrade last), so one
    /// premium member keeps the whole batch at its quality.
    fn batch_level(&self, members: &[usize]) -> u32 {
        if self.degrade_level == 0 {
            return 0;
        }
        members
            .iter()
            .map(|&m| {
                let class = u32::try_from(self.requests[m].class).expect("class fits u32");
                self.degrade_level.saturating_sub(class)
            })
            .min()
            .unwrap_or(0)
    }

    /// Perturbed service cycles plus crash fate for one dispatch
    /// attempt, drawing the fault plan at this attempt's ordinal.
    fn attempt_outcome(
        &mut self,
        batch: usize,
        worker: usize,
        level: u32,
        len: usize,
        now: u64,
    ) -> (u64, bool) {
        let base = (self.model.service)(level, len);
        let plan = &self.cfg.resilience.faults;
        if !plan.has_serve_faults() {
            return (base, false);
        }
        let seq = self.attempt_seq;
        self.attempt_seq += 1;
        let mut cycles = base;
        if let Some(factor) = plan.straggler(seq) {
            cycles = cycles
                .checked_mul(factor)
                .expect("straggler service overflows u64");
            self.fault_stats.stragglers += 1;
            self.log(LoggedEvent::Straggling {
                cycle: now,
                worker,
                batch,
                factor,
            });
        }
        if let Some(stall) = plan.worker_stall(seq) {
            cycles = cycles
                .checked_add(stall)
                .expect("stalled service overflows u64");
            self.fault_stats.stalls += 1;
            self.log(LoggedEvent::WorkerStalled {
                cycle: now,
                worker,
                batch,
                stall,
            });
        }
        match plan.worker_crash(seq) {
            Some(frac) => {
                // The crash lands strictly inside the service window
                // (clamped to at least one cycle of wasted work).
                let offset = cycles.checked_mul(frac).expect("crash point overflows u64")
                    / CRASH_FRACTION_DENOM;
                (offset.clamp(1, cycles), true)
            }
            None => (cycles, false),
        }
    }

    /// Charges `worker` with an attempt on batch `id` ending (or
    /// crashing) at `now + cycles` and schedules its worker-free
    /// event.
    fn charge_attempt(&mut self, id: usize, worker: usize, now: u64, cycles: u64) -> u64 {
        let end = now
            .checked_add(cycles)
            .expect("completion overflows u64: virtual time out of range");
        let w = &mut self.workers[worker];
        w.free_at = end;
        w.busy += cycles;
        w.current = Some(id);
        w.epoch += 1;
        let epoch = w.epoch;
        self.heap.push(Reverse(Ev {
            cycle: end,
            rank: RANK_WORKER_FREE,
            tiebreak: u64_from(worker),
            kind: EvKind::WorkerFree { worker, epoch },
        }));
        end
    }

    fn dispatch(&mut self, b: ClosedBatch, worker: usize, now: u64) {
        let len = b.members.len();
        let level = self.batch_level(&b.members);
        self.attempts[b.id] += 1;
        self.log(LoggedEvent::Dispatched {
            cycle: now,
            batch: b.id,
            worker,
            len,
        });
        let (cycles, crash) = self.attempt_outcome(b.id, worker, level, len, now);
        let end = self.charge_attempt(b.id, worker, now, cycles);
        self.inflight[b.id] = Some(Inflight {
            members: b.members,
            close_cycle: b.close_cycle,
            level,
            hedged: false,
            copies: vec![Attempt {
                worker,
                start: now,
                end,
                crash,
                hedge: false,
            }],
        });
        if self.cfg.resilience.hedge.is_some() {
            let deadline = self.hedge_deadline((self.model.service)(level, len));
            let at = now
                .checked_add(deadline)
                .expect("hedge deadline overflows u64");
            self.next_generation += 1;
            self.heap.push(Reverse(Ev {
                cycle: at,
                rank: RANK_CLOSE,
                tiebreak: self.next_generation,
                kind: EvKind::HedgeCheck {
                    batch: b.id,
                    epoch: self.attempts[b.id],
                },
            }));
        }
    }

    /// Cycles after dispatch at which an attempt is declared a
    /// straggler: the p99 of observed service durations once enough
    /// completions exist, else `COLD_FACTOR_PCT` of the expected
    /// service — never earlier than the expected completion itself.
    fn hedge_deadline(&self, expected: u64) -> u64 {
        let floor = expected.saturating_add(1);
        if self.svc_hist.len() >= HedgeConfig::MIN_SAMPLES {
            let mut sorted = self.svc_hist.clone();
            sorted.sort_unstable();
            percentile(&sorted, 0.99).max(floor)
        } else {
            (expected.saturating_mul(HedgeConfig::COLD_FACTOR_PCT) / 100).max(floor)
        }
    }

    /// Spawns a crash-replacement worker through the autoscaler
    /// warmup path; its weight re-staging is charged by the respawn
    /// model (memory faults may inflate it).
    fn spawn_replacement(&mut self, now: u64) {
        let warmup = (self.model.respawn_warmup)(self.respawn_seq);
        self.respawn_seq += 1;
        self.spawn_worker(now, warmup);
    }

    /// Adds a worker at `now` that becomes free after `warmup` cycles:
    /// schedules its first `WorkerFree`, then logs and records the
    /// scale-up. Crash replacements and autoscaler scale-ups both
    /// spawn through here.
    fn spawn_worker(&mut self, now: u64, warmup: u64) {
        let worker = self.workers.len();
        let ready_at = now
            .checked_add(warmup)
            .expect("worker warmup overflows u64: virtual time out of range");
        self.workers.push(Worker {
            free_at: ready_at,
            busy: 0,
            active: true,
            current: None,
            epoch: 0,
        });
        self.heap.push(Reverse(Ev {
            cycle: ready_at,
            rank: RANK_WORKER_FREE,
            tiebreak: u64_from(worker),
            kind: EvKind::WorkerFree { worker, epoch: 0 },
        }));
        self.log(LoggedEvent::ScaledUp {
            cycle: now,
            worker,
            ready_at,
        });
        self.scaling.push(ScalingEvent::Up {
            cycle: now,
            worker,
            ready_at,
        });
    }

    /// A copy of batch `id` crashed on `worker` at `now`: waste the
    /// partial work, retire the worker, spawn a replacement, and — if
    /// no hedged copy survives — requeue with backoff or exhaust the
    /// retry budget.
    fn on_crash(&mut self, id: usize, worker: usize, start: u64, now: u64) {
        let wasted = now - start;
        self.log(LoggedEvent::WorkerCrashed {
            cycle: now,
            batch: id,
            worker,
            wasted,
        });
        self.fault_stats.crashes += 1;
        self.fault_stats.wasted_cycles += wasted;
        let w = &mut self.workers[worker];
        w.active = false;
        w.current = None;
        w.epoch += 1;
        self.spawn_replacement(now);

        let fl = self.inflight[id].as_mut().expect("crashed batch in flight");
        fl.copies.retain(|c| c.worker != worker);
        if !fl.copies.is_empty() {
            return; // a hedged copy is still racing
        }
        let attempt = self.attempts[id];
        if attempt >= self.cfg.resilience.retry.max_attempts {
            self.exhaust(id, now);
            return;
        }
        // Deterministic exponential backoff: base << (attempt - 1),
        // saturating so deep retries stay finite.
        let retry = self.cfg.resilience.retry;
        let shift = (attempt - 1).min(32);
        let backoff = retry
            .backoff_base_cycles
            .saturating_mul(1u64 << shift)
            .min(VIRTUAL_TIME_HORIZON);
        let ready_at = now
            .checked_add(backoff)
            .expect("requeue backoff overflows u64");
        self.log(LoggedEvent::Requeued {
            cycle: now,
            batch: id,
            attempt,
            ready_at,
        });
        self.fault_stats.requeues += 1;
        self.next_generation += 1;
        self.heap.push(Reverse(Ev {
            cycle: ready_at,
            rank: RANK_CLOSE,
            tiebreak: self.next_generation,
            kind: EvKind::Requeue { batch: id },
        }));
    }

    /// The retry budget for batch `id` ran out: refuse every member as
    /// [`Rejection::RetryExhausted`]. The batch never completes, so it
    /// is absent from `sim.batches`.
    fn exhaust(&mut self, id: usize, now: u64) {
        let fl = self.inflight[id].take().expect("exhausted batch in flight");
        self.fault_stats.exhausted_batches += 1;
        for &req in &fl.members {
            self.class_stats[self.requests[req].class].retry_exhausted += 1;
            self.reject(req, now, Rejection::RetryExhausted, Some(id));
        }
    }

    /// A crashed batch's backoff expired: push it back to the *front*
    /// of the queue (retried work is oldest) and dispatch if possible.
    fn on_requeue(&mut self, id: usize, now: u64) {
        let fl = self.inflight[id].take().expect("requeued batch in flight");
        debug_assert!(fl.copies.is_empty(), "requeued batch still has live copies");
        self.queue.push_front(ClosedBatch {
            id,
            members: fl.members,
            close_cycle: fl.close_cycle,
        });
        self.try_dispatch(now);
    }

    /// Straggler probe: if the batch's dispatch attempt from
    /// scheduling time is still the one running, un-hedged, and a
    /// worker is free, race a duplicate against it.
    fn on_hedge_check(&mut self, id: usize, epoch: u32, now: u64) {
        let stale = match self.inflight[id].as_ref() {
            None => true,
            Some(fl) => fl.hedged || fl.copies.len() != 1 || self.attempts[id] != epoch,
        };
        if stale {
            return;
        }
        let Some(worker) = self.free_worker(now) else {
            return; // no spare capacity: never steal from queued work
        };
        let (level, len, primary) = {
            let fl = self.inflight[id].as_ref().expect("probe checked inflight");
            (fl.level, fl.members.len(), fl.copies[0].worker)
        };
        self.log(LoggedEvent::HedgeDispatched {
            cycle: now,
            batch: id,
            worker,
            primary,
        });
        self.fault_stats.hedges += 1;
        let (cycles, crash) = self.attempt_outcome(id, worker, level, len, now);
        let end = self.charge_attempt(id, worker, now, cycles);
        let fl = self.inflight[id].as_mut().expect("probe checked inflight");
        fl.hedged = true;
        fl.copies.push(Attempt {
            worker,
            start: now,
            end,
            crash,
            hedge: true,
        });
    }

    /// A copy of batch `id` completed on `worker`: first completion
    /// wins. Cancel any racing copy (un-charging its unfinished
    /// cycles), then fill the per-request and per-batch stats — the
    /// single counting point, so a requeued-then-served request is
    /// counted exactly once.
    fn on_completion(&mut self, id: usize, worker: usize, start: u64, now: u64) {
        self.log(LoggedEvent::Completed {
            cycle: now,
            batch: id,
            worker,
        });
        let fl = self.inflight[id].take().expect("completed batch in flight");
        let winner = fl
            .copies
            .iter()
            .find(|c| c.worker == worker)
            .expect("winning copy recorded");
        if winner.hedge {
            self.fault_stats.hedge_wins += 1;
        }
        for loser in fl.copies.iter().filter(|c| c.worker != worker) {
            self.log(LoggedEvent::HedgeCancelled {
                cycle: now,
                batch: id,
                worker: loser.worker,
            });
            self.fault_stats.wasted_cycles += now - loser.start;
            let lw = &mut self.workers[loser.worker];
            lw.busy -= loser.end - now; // un-charge the unrun remainder
            lw.free_at = now;
            lw.current = None;
            lw.epoch += 1;
        }
        self.workers[worker].current = None;
        // Feed the hedge detector with the winning duration.
        if self.cfg.resilience.hedge.is_some() {
            let duration = now - start;
            if self.svc_hist.len() < HEDGE_HISTORY {
                self.svc_hist.push(duration);
            } else {
                self.svc_hist[self.svc_hist_pos] = duration;
            }
            self.svc_hist_pos = (self.svc_hist_pos + 1) % HEDGE_HISTORY;
        }
        debug_assert!(self.batch_stats[id].is_none(), "batch completed twice");
        self.batch_stats[id] = Some(BatchStat {
            worker,
            len: fl.members.len(),
            close_cycle: fl.close_cycle,
            start_cycle: start,
            end_cycle: now,
        });
        for (slot, &req) in fl.members.iter().enumerate() {
            let r = self.requests[req];
            debug_assert!(self.request_stats[req].is_none(), "request served twice");
            self.request_stats[req] = Some(RequestStat {
                arrival: r.arrival,
                dispatch: start,
                completion: now,
                worker,
                batch: id,
                slot,
            });
            let c = &mut self.class_stats[r.class];
            c.served += 1;
            if r.slo_cycles.is_none_or(|slo| now - r.arrival <= slo) {
                c.slo_met += 1;
            }
            if fl.level > 0 {
                c.degraded += 1;
            }
        }
    }

    fn on_worker_free(&mut self, worker: usize, epoch: u64, now: u64) {
        let w = &self.workers[worker];
        if !w.active || w.epoch != epoch {
            return; // orphaned by a crash or hedge cancellation
        }
        debug_assert!(w.free_at == now, "stale worker-free event");
        if let Some(id) = w.current {
            let copy = self.inflight[id]
                .as_ref()
                .and_then(|fl| fl.copies.iter().find(|c| c.worker == worker))
                .expect("freed worker's copy in flight");
            let (start, crash) = (copy.start, copy.crash);
            debug_assert_eq!(copy.end, now, "copy ends at its scheduled cycle");
            if crash {
                self.on_crash(id, worker, start, now);
            } else {
                self.on_completion(id, worker, start, now);
            }
        }
        self.try_dispatch(now);
    }

    /// Graceful-degradation controller: one watermark step per
    /// evaluation, every transition logged.
    fn on_degrade_eval(&mut self, now: u64, arrivals_pending: bool) {
        let d = self
            .cfg
            .resilience
            .degrade
            .expect("degrade event without config");
        let occ = self.occupancy();
        let old = self.degrade_level;
        if occ >= d.high_occupancy && self.degrade_level < d.max_level {
            self.degrade_level += 1;
        } else if occ <= d.low_occupancy && self.degrade_level > 0 {
            self.degrade_level -= 1;
        }
        if self.degrade_level != old {
            self.fault_stats.degrade_shifts += 1;
            self.log(LoggedEvent::Degraded {
                cycle: now,
                level: self.degrade_level,
            });
        }
        // Keep evaluating while work remains or quality is still shed,
        // so the system always recovers to full quality.
        let work_remains = arrivals_pending
            || self.occupancy() > 0
            || self.degrade_level > 0
            || self
                .workers
                .iter()
                .any(|w| w.active && (w.current.is_some() || w.free_at > now));
        if work_remains {
            let cycle = now
                .checked_add(d.eval_period_cycles)
                .expect("degrade period overflows u64");
            self.heap.push(Reverse(Ev {
                cycle,
                rank: RANK_SCALE,
                tiebreak: 1,
                kind: EvKind::DegradeEval,
            }));
        }
    }

    fn on_scale_eval(&mut self, now: u64, arrivals_pending: bool) {
        let a = self.cfg.autoscaler.expect("scale event without autoscaler");
        let active = self.active_workers();
        let queued = self.occupancy();
        if queued > a.scale_up_queue_per_worker.saturating_mul(active) && active < a.max_workers {
            self.spawn_worker(now, self.model.warmup_cycles);
        } else if active > a.min_workers {
            // Retire the highest-id sufficiently idle worker.
            let candidate = self
                .workers
                .iter()
                .enumerate()
                .rev()
                .find(|(_, w)| {
                    w.active
                        && w.current.is_none()
                        && w.free_at <= now
                        && now - w.free_at >= a.scale_down_idle_cycles
                })
                .map(|(id, _)| id);
            if let Some(worker) = candidate {
                self.workers[worker].active = false;
                self.log(LoggedEvent::ScaledDown { cycle: now, worker });
                self.scaling.push(ScalingEvent::Down { cycle: now, worker });
            }
        }
        // Keep evaluating while anything is in flight — or while the
        // pool is still above its floor, so a drained system scales
        // back down to `min_workers` instead of freezing mid-size.
        let work_remains = arrivals_pending
            || self.occupancy() > 0
            || self.active_workers() > a.min_workers
            || self
                .workers
                .iter()
                .any(|w| w.active && (w.current.is_some() || w.free_at > now));
        if work_remains {
            let cycle = now
                .checked_add(a.eval_period_cycles)
                .expect("scale period overflows u64");
            self.heap.push(Reverse(Ev {
                cycle,
                rank: RANK_SCALE,
                tiebreak: 0,
                kind: EvKind::ScaleEval,
            }));
        }
    }
}

/// Runs the online runtime over a sorted request trace with `service(n)`
/// cycles per batch of `n`, charging `warmup_cycles` to every
/// autoscaled spin-up (initial workers are weight-resident and pay
/// nothing): [`run_runtime_resilient`] over [`ServiceModel::flat`],
/// with no observer.
///
/// Deterministic: reruns are byte-identical, including the event log
/// and its digest.
///
/// # Panics
///
/// Panics under [`run_runtime_resilient`]'s conditions.
pub fn run_runtime(
    cfg: &RuntimeConfig,
    requests: &[Request],
    service: &dyn Fn(usize) -> u64,
    warmup_cycles: u64,
) -> RuntimeOutcome {
    let model = ServiceModel::flat(service, warmup_cycles);
    run_runtime_resilient(cfg, requests, &model, &mut NullSink)
}

/// The one general way into serving: runs the online runtime over a
/// sorted request trace. Service and warmup times come from `model`,
/// [`RuntimeConfig::resilience`] arms fault injection and recovery,
/// and `sink` observes every logged event as it happens.
///
/// The sink is purely an observer: for any sink, the returned
/// [`RuntimeOutcome`] — including [`RuntimeOutcome::event_digest`] —
/// is byte-identical to a [`NullSink`] run with the same inputs
/// (pinned by `tests/telemetry_equivalence.rs`).
///
/// # Panics
///
/// Panics if the configuration fails [`RuntimeConfig::validate`], the
/// trace is unsorted or exceeds [`VIRTUAL_TIME_HORIZON`], the model's
/// warmup exceeds the horizon, or the model returns zero service
/// cycles for a non-empty batch at any configured degradation level.
pub fn run_runtime_resilient(
    cfg: &RuntimeConfig,
    requests: &[Request],
    model: &ServiceModel,
    sink: &mut dyn EventSink,
) -> RuntimeOutcome {
    cfg.validate().expect("invalid runtime configuration");
    assert!(
        requests.windows(2).all(|w| w[0].arrival <= w[1].arrival),
        "request trace must be sorted by arrival"
    );
    assert!(
        requests.iter().all(|r| r.arrival <= VIRTUAL_TIME_HORIZON
            && r.slo_cycles.is_none_or(|s| s <= VIRTUAL_TIME_HORIZON)),
        "request coordinates must fit under the virtual-time horizon"
    );
    assert!(
        model.warmup_cycles <= VIRTUAL_TIME_HORIZON,
        "warmup exceeds the virtual-time horizon"
    );
    let max_level = cfg.resilience.degrade.map_or(0, |d| d.max_level);
    for level in 0..=max_level {
        for n in 1..=cfg.batcher.max_batch {
            assert!(
                (model.service)(level, n) > 0,
                "service cycles must be positive at every degradation level"
            );
        }
    }
    let classes = requests.iter().map(|r| r.class).max().map_or(1, |c| c + 1);

    let mut rt = Runtime {
        cfg,
        requests,
        model,
        heap: BinaryHeap::new(),
        workers: (0..cfg.workers)
            .map(|_| Worker {
                free_at: 0,
                busy: 0,
                active: true,
                current: None,
                epoch: 0,
            })
            .collect(),
        forming: None,
        queue: VecDeque::new(),
        next_batch_id: 0,
        next_generation: 0,
        inflight: Vec::new(),
        attempts: Vec::new(),
        attempt_seq: 0,
        respawn_seq: 0,
        svc_hist: Vec::new(),
        svc_hist_pos: 0,
        degrade_level: 0,
        fault_stats: FaultStats::default(),
        request_stats: vec![None; requests.len()],
        batch_stats: Vec::new(),
        rejections: Vec::new(),
        close_causes: Vec::new(),
        scaling: Vec::new(),
        class_stats: vec![ClassStats::default(); classes],
        digest: FNV_OFFSET,
        sink,
        events: Vec::new(),
    };
    if let Some(a) = &cfg.autoscaler {
        rt.heap.push(Reverse(Ev {
            cycle: a.eval_period_cycles,
            rank: RANK_SCALE,
            tiebreak: 0,
            kind: EvKind::ScaleEval,
        }));
    }
    if let Some(d) = &cfg.resilience.degrade {
        rt.heap.push(Reverse(Ev {
            cycle: d.eval_period_cycles,
            rank: RANK_SCALE,
            tiebreak: 1,
            kind: EvKind::DegradeEval,
        }));
    }

    // The main loop merges the heap against the sorted arrival cursor;
    // arrivals (rank 1) never enter the heap.
    let mut cursor = 0usize;
    loop {
        let heap_key = rt.heap.peek().map(|Reverse(e)| (e.cycle, e.rank));
        let arrival_key =
            (cursor < requests.len()).then(|| (requests[cursor].arrival, RANK_ARRIVAL));
        let take_heap = match (heap_key, arrival_key) {
            (None, None) => break,
            (Some(_), None) => true,
            (None, Some(_)) => false,
            (Some(h), Some(a)) => h <= a,
        };
        if take_heap {
            let Reverse(ev) = rt.heap.pop().expect("peeked event");
            match ev.kind {
                EvKind::WorkerFree { worker, epoch } => rt.on_worker_free(worker, epoch, ev.cycle),
                EvKind::Close { generation } => rt.on_close_event(generation, ev.cycle),
                EvKind::Requeue { batch } => rt.on_requeue(batch, ev.cycle),
                EvKind::HedgeCheck { batch, epoch } => rt.on_hedge_check(batch, epoch, ev.cycle),
                EvKind::ScaleEval => {
                    let arrivals_pending = cursor < requests.len();
                    rt.on_scale_eval(ev.cycle, arrivals_pending);
                }
                EvKind::DegradeEval => {
                    let arrivals_pending = cursor < requests.len();
                    rt.on_degrade_eval(ev.cycle, arrivals_pending);
                }
            }
        } else {
            let now = requests[cursor].arrival;
            rt.on_arrival(cursor, now);
            cursor += 1;
        }
    }

    debug_assert!(rt.forming.is_none(), "forming batch left open at drain");
    debug_assert!(rt.queue.is_empty(), "closed batches left undispatched");
    debug_assert!(
        rt.inflight.iter().all(Option::is_none),
        "batches left in flight at drain"
    );

    // Conservation: every request was served exactly once XOR rejected
    // exactly once (rejection includes retry exhaustion).
    let mut rejected = vec![false; requests.len()];
    for r in &rt.rejections {
        assert!(!rejected[r.request], "request rejected twice");
        rejected[r.request] = true;
    }
    let mut served = Vec::new();
    let mut request_stats = Vec::new();
    for (i, stat) in rt.request_stats.iter().enumerate() {
        match stat {
            Some(s) => {
                assert!(!rejected[i], "request both served and rejected");
                served.push(i);
                request_stats.push(*s);
            }
            None => assert!(rejected[i], "request lost: neither served nor rejected"),
        }
    }
    debug_assert!(
        rt.class_stats
            .iter()
            .all(|c| c.offered == c.served + c.shed + c.infeasible + c.retry_exhausted),
        "per-class ledger does not sum"
    );

    // Retry-exhausted batches never completed: compact them out of the
    // batch list (identity when every batch completed) and remap the
    // per-request batch indices.
    let mut batches = Vec::with_capacity(rt.batch_stats.len());
    let mut close_causes = Vec::with_capacity(rt.close_causes.len());
    let mut batch_map = vec![usize::MAX; rt.batch_stats.len()];
    for (id, stat) in rt.batch_stats.iter().enumerate() {
        if let Some(s) = stat {
            batch_map[id] = batches.len();
            batches.push(*s);
            close_causes.push(rt.close_causes[id]);
        }
    }
    for s in &mut request_stats {
        s.batch = batch_map[s.batch];
        debug_assert!(s.batch != usize::MAX, "served request's batch completed");
    }

    let makespan_cycles = batches.iter().map(|b| b.end_cycle).max().unwrap_or(0);
    let worker_busy_cycles = rt.workers.iter().map(|w| w.busy).collect();
    RuntimeOutcome {
        sim: SimOutcome {
            requests: request_stats,
            batches,
            worker_busy_cycles,
            makespan_cycles,
        },
        served,
        rejections: rt.rejections,
        close_causes,
        scaling: rt.scaling,
        class_stats: rt.class_stats,
        warmup_cycles: model.warmup_cycles,
        total_requests: requests.len(),
        event_digest: rt.digest,
        events: rt.events,
        faults: rt.fault_stats,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batcher::form_batches;
    use crate::sim::dispatch_batches;

    fn flat_service(n: usize) -> u64 {
        100 + 10 * n as u64
    }

    fn anchor_cfg(workers: usize, max_batch: usize, max_wait: u64) -> RuntimeConfig {
        RuntimeConfig::offline(
            workers,
            BatcherConfig {
                max_batch,
                max_wait_cycles: max_wait,
            },
        )
    }

    #[test]
    fn runtime_config_validation_is_typed() {
        let ok = RuntimeConfig {
            workers: 2,
            batcher: BatcherConfig {
                max_batch: 4,
                max_wait_cycles: 100,
            },
            queue_capacity: Some(8),
            deadline_aware: true,
            autoscaler: Some(AutoscalerConfig {
                min_workers: 1,
                max_workers: 4,
                scale_up_queue_per_worker: 4,
                scale_down_idle_cycles: 1_000,
                eval_period_cycles: 500,
            }),
            record_events: false,
            resilience: ResilienceConfig::none(),
        };
        assert_eq!(ok.validate(), Ok(()));
        assert_eq!(
            RuntimeConfig {
                workers: 0,
                ..ok.clone()
            }
            .validate(),
            Err(ConfigError::ZeroWorkers)
        );
        assert_eq!(
            RuntimeConfig {
                queue_capacity: Some(0),
                ..ok.clone()
            }
            .validate(),
            Err(ConfigError::ZeroQueueCapacity)
        );
        let mut bad = ok.clone();
        bad.batcher.max_wait_cycles = u64::MAX;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::UnrepresentableWait { .. })
        ));
        let mut bad = ok.clone();
        bad.autoscaler.as_mut().unwrap().max_workers = 1;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidAutoscaler(_))
        ));
        let mut bad = ok.clone();
        bad.autoscaler.as_mut().unwrap().eval_period_cycles = 0;
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidAutoscaler(_))
        ));
        let mut bad = ok;
        bad.workers = 8; // above max_workers
        assert!(matches!(
            bad.validate(),
            Err(ConfigError::InvalidAutoscaler(_))
        ));
    }

    #[test]
    fn anchor_matches_offline_pipeline_on_a_zero_wait_burst() {
        // Zero wait + same-cycle arrivals is the trickiest equivalence
        // corner: the close event fires on the opening cycle but must
        // still let the rest of the burst join first.
        let arrivals = [3u64, 3, 3, 4, 9];
        let requests: Vec<Request> = arrivals.iter().map(|&a| Request::best_effort(a)).collect();
        let cfg = anchor_cfg(2, 8, 0);
        let out = run_runtime(&cfg, &requests, &flat_service, 0);
        let batches = form_batches(&arrivals, &cfg.batcher);
        let offline = dispatch_batches(&arrivals, &batches, 2, &flat_service);
        assert_eq!(out.sim, offline);
        assert_eq!(out.served, vec![0, 1, 2, 3, 4]);
        assert!(out.rejections.is_empty());
        assert_eq!(
            out.close_causes,
            vec![
                CloseCause::Deadline,
                CloseCause::Deadline,
                CloseCause::Deadline
            ]
        );
    }

    #[test]
    fn full_queue_sheds_the_newcomer() {
        // Queue bound 2 over *waiting* work: a burst of 4 same-cycle
        // requests fills the forming batch with two and refuses the
        // rest as QueueFull (all best-effort, so the newcomer never
        // outranks a member).
        let requests = vec![Request::best_effort(5); 4];
        let cfg = RuntimeConfig {
            queue_capacity: Some(2),
            ..anchor_cfg(1, 8, 1_000)
        };
        let out = run_runtime(&cfg, &requests, &flat_service, 0);
        assert_eq!(out.served, vec![0, 1]);
        assert_eq!(out.rejections.len(), 2);
        for (r, want_req) in out.rejections.iter().zip([2usize, 3]) {
            assert_eq!(
                (r.request, r.cycle, r.rejection),
                (want_req, 5, Rejection::QueueFull)
            );
        }
        assert_eq!(out.shed_count(), 2);
        assert!((out.shed_rate() - 0.5).abs() < 1e-12);
    }

    #[test]
    fn priority_eviction_sheds_the_lowest_class_member() {
        // Queue bound 1: a class-1 newcomer evicts the class-0 member
        // of the forming batch and takes its place.
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
            ..anchor_cfg(1, 4, 1_000)
        };
        let out = run_runtime(&cfg, &requests, &flat_service, 0);
        assert_eq!(out.served, vec![1]);
        assert_eq!(out.rejections.len(), 1);
        let r = out.rejections[0];
        assert_eq!(
            (r.request, r.cycle, r.rejection, r.batch),
            (0, 11, Rejection::ShedLowPriority, Some(0))
        );
        assert_eq!(out.class_stats[0].shed, 1);
        assert_eq!(out.class_stats[1].served, 1);
    }

    #[test]
    fn slo_risk_closes_a_forming_batch_early() {
        // max_wait is huge, but the first member's SLO only leaves room
        // for service at the worst-case batch size: the batch closes at
        // the SLO bound, not the deadline.
        let requests = vec![Request {
            arrival: 0,
            class: 0,
            slo_cycles: Some(500),
        }];
        let cfg = RuntimeConfig {
            deadline_aware: true,
            ..anchor_cfg(1, 4, 100_000)
        };
        let out = run_runtime(&cfg, &requests, &flat_service, 0);
        // latest close = 0 + 500 - service(4) = 500 - 140 = 360.
        assert_eq!(out.close_causes, vec![CloseCause::SloRisk]);
        assert_eq!(out.sim.batches[0].close_cycle, 360);
        assert_eq!(out.sim.requests[0].completion, 360 + flat_service(1));
        assert_eq!(out.slo_attainment(0), 1.0);
    }

    #[test]
    fn infeasible_slo_is_rejected_on_arrival() {
        let requests = vec![Request {
            arrival: 7,
            class: 0,
            slo_cycles: Some(50), // < service(1) = 110
        }];
        let cfg = RuntimeConfig {
            deadline_aware: true,
            ..anchor_cfg(1, 4, 1_000)
        };
        let out = run_runtime(&cfg, &requests, &flat_service, 0);
        assert!(out.served.is_empty());
        assert_eq!(out.rejections[0].rejection, Rejection::DeadlineInfeasible);
        assert_eq!(out.class_stats[0].infeasible, 1);
        // Infeasible refusals are not "shed" — the queue had room.
        assert_eq!(out.shed_count(), 0);
    }

    #[test]
    fn autoscaler_spins_up_with_warmup_and_back_down() {
        // A same-cycle burst of solo batches on one worker: the first
        // evaluation sees a deep queue and spawns a worker that is only
        // dispatchable after its warmup; once drained, the idle spawn
        // is retired.
        let requests: Vec<Request> = (0..8).map(|_| Request::best_effort(0)).collect();
        let cfg = RuntimeConfig {
            autoscaler: Some(AutoscalerConfig {
                min_workers: 1,
                max_workers: 2,
                scale_up_queue_per_worker: 2,
                scale_down_idle_cycles: 50,
                eval_period_cycles: 10,
            }),
            record_events: true,
            ..anchor_cfg(1, 1, 0)
        };
        let warmup = 25u64;
        let out = run_runtime(&cfg, &requests, &flat_service, warmup);
        assert_eq!(out.served.len(), 8);
        let up = out
            .scaling
            .iter()
            .find_map(|s| match *s {
                ScalingEvent::Up {
                    cycle,
                    worker,
                    ready_at,
                } => Some((cycle, worker, ready_at)),
                _ => None,
            })
            .expect("autoscaler must spin up under an 8-deep queue");
        assert_eq!(up.1, 1, "second worker gets the next id");
        assert_eq!(up.2, up.0 + warmup, "warmup charged in full");
        // The spawned worker must not serve anything before ready_at.
        for b in out.sim.batches.iter().filter(|b| b.worker == 1) {
            assert!(b.start_cycle >= up.2);
        }
        assert!(
            out.scaling
                .iter()
                .any(|s| matches!(s, ScalingEvent::Down { .. })),
            "an idle worker must be retired after the drain"
        );
        assert_eq!(out.sim.worker_busy_cycles.len(), 2);
    }

    #[test]
    fn reruns_are_byte_identical_including_the_event_log() {
        let requests: Vec<Request> = (0..40)
            .map(|i| Request {
                arrival: (i as u64) * 37 % 1_000,
                class: i % 3,
                slo_cycles: if i % 2 == 0 { Some(5_000) } else { None },
            })
            .collect();
        let mut requests = requests;
        requests.sort_by_key(|r| r.arrival);
        let cfg = RuntimeConfig {
            queue_capacity: Some(6),
            deadline_aware: true,
            autoscaler: Some(AutoscalerConfig {
                min_workers: 1,
                max_workers: 3,
                scale_up_queue_per_worker: 2,
                scale_down_idle_cycles: 100,
                eval_period_cycles: 50,
            }),
            record_events: true,
            ..anchor_cfg(1, 3, 200)
        };
        let a = run_runtime(&cfg, &requests, &flat_service, 10);
        let b = run_runtime(&cfg, &requests, &flat_service, 10);
        assert_eq!(a, b);
        assert_eq!(a.event_digest, b.event_digest);
        assert!(!a.events.is_empty());
        // The digest is computed even when the log is not retained.
        let lean = RuntimeConfig {
            record_events: false,
            ..cfg
        };
        let c = run_runtime(&lean, &requests, &flat_service, 10);
        assert_eq!(c.event_digest, a.event_digest);
        assert!(c.events.is_empty());
    }

    #[test]
    fn empty_trace_yields_an_empty_outcome() {
        let out = run_runtime(&anchor_cfg(2, 4, 100), &[], &flat_service, 0);
        assert!(out.served.is_empty());
        assert!(out.rejections.is_empty());
        assert_eq!(out.sim.makespan_cycles, 0);
        assert_eq!(out.shed_rate(), 0.0);
        assert_eq!(out.goodput_per_cycle(), 0.0);
    }
}
