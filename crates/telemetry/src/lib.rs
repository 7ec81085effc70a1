//! Deterministic, virtual-time-first observability for the CapsAcc
//! stack.
//!
//! Three pillars, all keyed to *simulated* cycles rather than host
//! time:
//!
//! - **Span tracing** ([`Recorder`]): nested spans over the engine's
//!   virtual clock (inference → layer → matmul → tile → load/stream
//!   phases), explicit-interval spans for serving timelines, and
//!   optional host wall-clock annotations so simulated and host
//!   hotspots can be compared side by side.
//! - **Metrics** ([`MetricsRegistry`]): typed counters, gauge time
//!   series and histograms with the same nearest-rank
//!   [`percentile`] convention the serving simulator reports.
//! - **Exporters** ([`chrome_trace_json`], [`metrics_json`],
//!   [`metrics_csv`]): Chrome-trace (Perfetto) JSON for span trees and
//!   machine-readable metrics dumps, plus [`validate_json`] — a
//!   dependency-free JSON checker the CI asserts exports against.
//!
//! The non-negotiable invariant, following the `TraceLevel` precedent
//! in `capsacc-core`: recording **off** is the default and is
//! byte-invisible to every simulated result, and recording **on**
//! never perturbs outputs, cycles or traffic. The recorder is plain
//! owned data (no interior mutability, no host clocks of its own), so
//! enabling it only ever *observes* the simulation. Host wall-clock
//! annotations go through [`HostStopwatch`], the one host clock reader
//! of the simulated-path crates, which stays inert unless host timing
//! was requested.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod export;
mod metrics;
mod recorder;
mod stopwatch;

pub use export::{chrome_trace_json, metrics_csv, metrics_json, validate_json};
pub use metrics::{percentile, HistogramSummary, MetricsRegistry};
pub use recorder::{validate_span_tree, Recorder, Span, SpanDetail, TelemetryConfig, TRACK_ENGINE};
pub use stopwatch::HostStopwatch;
