//! The shard pool: N long-lived `BatchScheduler` workers on OS threads.
//!
//! Each worker owns one [`BatchScheduler`] for its whole lifetime —
//! weights stay resident in its accelerator across every batch it
//! serves, exactly like a real serving replica — and executes its
//! assigned batch list in order on its own OS thread. Moving the
//! schedulers onto threads is what the `Send` audit in
//! `capsacc_core::batch` exists for: the whole engine is plain owned
//! data, so the pool needs no locks and no `unsafe`.
//!
//! Determinism: thread scheduling affects *wall-clock* finishing order
//! only. Each worker's result vector is keyed by its position in the
//! assignment list, every trace is bit-exact against a sequential run
//! of the same image (the batch-equivalence invariant), and cycle
//! counts are pure functions of batch shapes — so the pool's output is
//! identical no matter how the OS interleaves the threads.

use capsacc_capsnet::{CapsNetConfig, QuantizedParams};
use capsacc_core::{AcceleratorConfig, BatchError, BatchRun, BatchScheduler};
use capsacc_faults::FaultPlan;
use capsacc_tensor::{u64_from, Tensor};

/// A failure of a pool run — either a worker refused its input
/// (typed [`BatchError`]) or a worker *thread* died mid-batch. Both
/// surface as values: a crashed replica must never hang the pool or
/// leak a partial result as if it were complete.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum PoolError {
    /// A worker hit a batch-level input error (empty batch, mis-shaped
    /// image).
    Batch(BatchError),
    /// A worker thread panicked; the payload names the lowest such
    /// worker id and carries the panic message.
    WorkerPanicked {
        /// Id of the crashed worker.
        worker: usize,
        /// The thread's panic payload (`&str`/`String` payloads are
        /// captured verbatim; anything else is summarized).
        message: String,
    },
}

impl std::fmt::Display for PoolError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolError::Batch(e) => write!(f, "worker batch error: {e}"),
            PoolError::WorkerPanicked { worker, message } => {
                write!(f, "shard worker {worker} panicked mid-run: {message}")
            }
        }
    }
}

/// Extracts a human-readable message from a thread's panic payload.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&'static str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

impl std::error::Error for PoolError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            PoolError::Batch(e) => Some(e),
            PoolError::WorkerPanicked { .. } => None,
        }
    }
}

impl From<BatchError> for PoolError {
    fn from(e: BatchError) -> Self {
        PoolError::Batch(e)
    }
}

/// A pool of `workers` weight-resident engine replicas.
///
/// # Example
///
/// ```
/// use capsacc_serve::ShardPool;
/// use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
/// use capsacc_core::AcceleratorConfig;
/// use capsacc_tensor::Tensor;
///
/// let net = CapsNetConfig::tiny();
/// let cfg = AcceleratorConfig::test_4x4();
/// let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
/// let image = |s: usize| {
///     Tensor::from_fn(&[1, 12, 12], move |i| ((i[1] * (s + 2) + i[2]) % 7) as f32 / 7.0)
/// };
/// let pool = ShardPool::new(cfg, 2);
/// // Worker 0 serves two batches, worker 1 serves one.
/// let work = vec![
///     vec![vec![image(0), image(1)], vec![image(2)]],
///     vec![vec![image(3), image(4)]],
/// ];
/// let runs = pool.run_assignments(&net, &qparams, &work).expect("valid batches");
/// assert_eq!(runs[0].len(), 2);
/// assert_eq!(runs[1][0].traces.len(), 2);
/// ```
#[derive(Copy, Clone, Debug)]
pub struct ShardPool {
    cfg: AcceleratorConfig,
    workers: usize,
    /// Seeded fault plan: `(worker, batch)` slots whose execution
    /// panics are drawn from [`FaultPlan::pool_panic`], exercising the
    /// [`PoolError::WorkerPanicked`] recovery path deterministically.
    /// [`FaultPlan::none`] by default — no slot is ever poisoned.
    plan: FaultPlan,
}

impl ShardPool {
    /// Builds a pool of `workers` replicas of the given configuration.
    ///
    /// # Panics
    ///
    /// Panics if `workers` is zero or the configuration fails
    /// [`AcceleratorConfig::validate`].
    pub fn new(cfg: AcceleratorConfig, workers: usize) -> Self {
        assert!(workers > 0, "at least one worker required");
        cfg.validate().expect("invalid accelerator configuration");
        Self {
            cfg,
            workers,
            plan: FaultPlan::none(),
        }
    }

    /// Number of workers.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Arms a seeded [`FaultPlan`]: every `(worker, batch)` slot for
    /// which [`FaultPlan::pool_panic`] draws true panics mid-execution,
    /// and the pool must surface it as a typed
    /// [`PoolError::WorkerPanicked`]. Byte-invisible when the plan
    /// carries no pool faults.
    pub fn with_fault_plan(mut self, plan: FaultPlan) -> Self {
        self.plan = plan;
        self
    }

    /// The armed fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Executes per-worker batch lists in parallel, one OS thread per
    /// worker, each on its own long-lived weight-resident scheduler.
    ///
    /// `work[w]` is worker `w`'s ordered batch list (as produced by
    /// [`crate::SimOutcome::assignments`]); the result mirrors its
    /// shape. Traces are bit-exact against fresh sequential runs and
    /// independent of thread interleaving.
    ///
    /// # Errors
    ///
    /// [`PoolError::WorkerPanicked`] if a worker thread died mid-run
    /// (lowest such worker id, panic message captured — every thread
    /// is still joined, so no replica leaks), else the first
    /// [`PoolError::Batch`] any worker hit (empty batch or mis-shaped
    /// image), by lowest worker id.
    ///
    /// # Panics
    ///
    /// Panics if `work.len()` differs from the pool's worker count.
    pub fn run_assignments(
        &self,
        net: &CapsNetConfig,
        qparams: &QuantizedParams,
        work: &[Vec<Vec<Tensor<f32>>>],
    ) -> Result<Vec<Vec<BatchRun>>, PoolError> {
        assert_eq!(work.len(), self.workers, "one batch list per worker");
        // Schedulers are built outside the threads and moved in: this is
        // the `Send` requirement the core crate's audit pins down.
        let schedulers: Vec<BatchScheduler> = (0..self.workers)
            .map(|_| BatchScheduler::new(self.cfg))
            .collect();
        let plan = self.plan;
        let joined: Vec<Result<Result<Vec<BatchRun>, BatchError>, String>> =
            std::thread::scope(|scope| {
                let handles: Vec<_> = schedulers
                    .into_iter()
                    .zip(work)
                    .enumerate()
                    .map(|(worker, (mut sched, batches))| {
                        scope.spawn(move || {
                            batches
                                .iter()
                                .enumerate()
                                .map(|(b, images)| {
                                    if plan.pool_panic(u64_from(worker), u64_from(b)) {
                                        panic!("injected shard-worker fault");
                                    }
                                    sched.run(net, qparams, images)
                                })
                                .collect::<Result<Vec<BatchRun>, BatchError>>()
                        })
                    })
                    .collect();
                // Join every thread before reporting anything: a crash
                // must not leave siblings running past the call.
                handles
                    .into_iter()
                    .map(|h| h.join().map_err(|p| panic_message(p.as_ref())))
                    .collect()
            });
        for (worker, r) in joined.iter().enumerate() {
            if let Err(message) = r {
                return Err(PoolError::WorkerPanicked {
                    worker,
                    message: message.clone(),
                });
            }
        }
        joined
            .into_iter()
            .map(|r| r.expect("panics handled above"))
            .collect::<Result<Vec<Vec<BatchRun>>, BatchError>>()
            .map_err(PoolError::Batch)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsacc_capsnet::CapsNetParams;

    #[test]
    fn pool_results_mirror_assignment_shape() {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
        let pool = ShardPool::new(cfg, 3);
        let work = vec![
            vec![
                vec![net.test_image(0)],
                vec![net.test_image(1), net.test_image(2)],
            ],
            vec![],
            vec![vec![net.test_image(3)]],
        ];
        let runs = pool.run_assignments(&net, &qparams, &work).expect("valid");
        assert_eq!(runs.len(), 3);
        assert_eq!(runs[0].len(), 2);
        assert!(runs[1].is_empty());
        assert_eq!(runs[0][1].traces.len(), 2);
    }

    #[test]
    fn pool_surfaces_batch_errors_instead_of_panicking() {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
        let pool = ShardPool::new(cfg, 2);
        let work = vec![vec![vec![net.test_image(0)]], vec![vec![]]];
        assert_eq!(
            pool.run_assignments(&net, &qparams, &work).unwrap_err(),
            PoolError::Batch(BatchError::EmptyBatch)
        );
    }

    /// Searches seeds for a plan that poisons exactly the `target`
    /// slot among `slots` — a deterministic stand-in for "inject a
    /// fault here" built from the real seeded draw.
    fn plan_poisoning(target: (u64, u64), slots: &[(u64, u64)]) -> FaultPlan {
        (0..u64::MAX)
            .map(|seed| {
                let mut p = FaultPlan::seeded(seed);
                p.serve.pool_panic_per_batch = 0.2;
                p
            })
            .find(|p| {
                slots
                    .iter()
                    .all(|&(w, b)| p.pool_panic(w, b) == ((w, b) == target))
            })
            .expect("a poisoning seed exists")
    }

    #[test]
    fn pool_surfaces_worker_panics_as_typed_errors() {
        // A replica that dies mid-batch must come back as a value, not
        // a hang or a partial result dressed up as success.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
        let slots = [(0, 0), (1, 0), (1, 1), (2, 0)];
        let plan = plan_poisoning((1, 1), &slots);
        let pool = ShardPool::new(cfg, 3).with_fault_plan(plan);
        let work = vec![
            vec![vec![net.test_image(0)]],
            vec![vec![net.test_image(1)], vec![net.test_image(2)]],
            vec![vec![net.test_image(3)]],
        ];
        // The worker thread's panic message is expected on stderr; the
        // call itself must return cleanly with the typed error, panic
        // payload captured verbatim.
        assert_eq!(
            pool.run_assignments(&net, &qparams, &work).unwrap_err(),
            PoolError::WorkerPanicked {
                worker: 1,
                message: "injected shard-worker fault".to_string(),
            }
        );
        // A faultless plan on the same work still succeeds.
        let clean = ShardPool::new(cfg, 3);
        assert_eq!(*clean.fault_plan(), FaultPlan::none());
        assert!(clean.run_assignments(&net, &qparams, &work).is_ok());
        // A thread panic outranks a sibling's batch error: the pool
        // must still join everything and report the crash.
        let crash_plan = plan_poisoning((0, 0), &[(0, 0), (1, 0)]);
        let crash_and_error = ShardPool::new(cfg, 2).with_fault_plan(crash_plan);
        let bad = vec![vec![vec![net.test_image(0)]], vec![vec![]]];
        match crash_and_error
            .run_assignments(&net, &qparams, &bad)
            .unwrap_err()
        {
            PoolError::WorkerPanicked { worker: 0, .. } => {}
            other => panic!("expected worker 0 panic, got {other:?}"),
        }
    }
}
