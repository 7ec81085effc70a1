//! # capsacc-core — the CapsAcc accelerator, cycle-accurate
//!
//! A register-transfer-level simulator of the CapsAcc architecture
//! (Fig. 10 of the paper): a systolic array of processing elements with a
//! second weight register for data reuse, per-column accumulator FIFOs,
//! per-column activation units (ReLU / Norm / Squash / Softmax), the
//! Data / Routing / Weight buffers with traffic accounting, and the
//! control sequencing that maps every CapsuleNet layer and every
//! routing-by-agreement dataflow scenario (Fig. 12) onto the array.
//!
//! One cycle model: [`engine::Accelerator`], the cycle-accurate engine.
//! Every PE register can be ticked every cycle, and its outputs are
//! **bit-exact** against the quantized reference model in
//! `capsacc-capsnet` (the analogue of the paper's gate-level functional
//! validation, Fig. 15). Its costs never depend on operand values, so
//! [`engine::Accelerator::price_batch`] prices a batch without running
//! it: a dry run of the same cost sites, which serving tables and
//! design-space sweeps read. [`timing`] is a per-layer view of one dry
//! run.
//!
//! Behind the engine sits the **memory hierarchy** of `capsacc-memory`:
//! banked Data/Weight/Accumulator scratchpads, an off-chip DRAM channel
//! and a double-buffered tile prefetcher. Tile loads are
//! contention-accurate memory transactions ([`MemorySubsystem`]). The
//! default [`MemoryConfig::ideal`] ("IdealMemory") keeps every
//! pre-hierarchy cycle count and trace bit-exact.
//!
//! The engine runs **batches**: the [`batch`] subsystem
//! ([`BatchScheduler`] / [`engine::Accelerator::run_batch`]) orders a
//! batch of inferences layer-major so weights loaded into the second
//! weight register stay resident across all images — the paper's
//! "reuse weights" scenario generalized across inferences — while every
//! per-image trace stays bit-identical to a sequential run. A single
//! inference is a batch of one.
//!
//! # Example
//!
//! ```
//! use capsacc_core::{Accelerator, AcceleratorConfig};
//! use capsacc_capsnet::CapsNetConfig;
//!
//! let cfg = AcceleratorConfig::paper();
//! let net = CapsNetConfig::mnist();
//! let run = Accelerator::new(cfg).price_batch(&net, 1).expect("one image");
//! // The whole inference completes in a few milliseconds at 250 MHz.
//! let ms = cfg.cycles_to_us(run.total_cycles()) / 1000.0;
//! assert!(ms > 0.1 && ms < 100.0);
//! ```

// `deny` (not `forbid`) so the one SIMD kernel module can locally
// re-allow `unsafe` for target-feature intrinsics; everything else in
// the crate still refuses unsafe code at compile time.
// lint:allow(unsafe-containment, kernel.rs::avx2 needs target-feature intrinsics; deny + a single audited allow is the documented exception)
#![deny(unsafe_code)]
#![warn(missing_docs)]

mod accumulator;
mod activation;
pub mod batch;
mod config;
pub mod engine;
mod kernel;
pub mod mapping;
mod operand;
mod pe;
mod systolic;
pub mod timing;
mod traffic;

pub use accumulator::AccumulatorUnit;
pub use activation::{ActivationKind, ActivationUnit};
pub use batch::{BatchError, BatchRun, BatchScheduler, RoutingStep};
pub use capsacc_memory::{
    DramConfig, MatmulGeometry, MemReport, MemoryConfig, MemoryMode, MemorySubsystem, SpmActivity,
    SpmConfig, SpmKind, TileSchedule,
};
pub use capsacc_telemetry::{
    validate_span_tree, Recorder, SpanDetail, TelemetryConfig, TRACK_ENGINE,
};
pub use config::{
    AcceleratorConfig, DataflowOptions, EngineBackend, FunctionalOptions, SimdMode, TraceLevel,
};
pub use engine::{Accelerator, CycleLedger, LayerRun};
pub use kernel::{simd_body, SimdBody};
pub use pe::{Pe, PeControl, PeInput, PeOutput, WeightSelect};
pub use systolic::{SystolicArray, TileRun};
pub use timing::{BatchInferenceTiming, LayerTiming, MemInferenceTiming};
pub use traffic::{MemoryKind, TrafficCounter, TrafficReport};
