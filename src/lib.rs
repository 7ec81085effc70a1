//! # capsacc — facade crate
//!
//! Re-exports the public API of the CapsAcc reproduction workspace. See the
//! individual crates for details:
//!
//! - [`fixed`] — fixed-point arithmetic and hardware lookup tables
//! - [`tensor`] — minimal dense tensors with conv/matmul reference ops
//! - [`mnist`] — synthetic MNIST-style data
//! - [`capsnet`] — reference CapsuleNet with routing-by-agreement
//! - [`faults`] — deterministic seeded fault-injection plans across
//!   the serve, memory and engine layers
//! - [`memory`] — banked scratchpads, DRAM channel and tile prefetcher
//! - [`core`] — the cycle-accurate CapsAcc accelerator simulator
//! - [`serve`] — deterministic request serving: arrival traces, dynamic
//!   micro-batching, multi-worker shard pool, and the online overload
//!   runtime (admission control, SLO-aware batching, priority classes,
//!   autoscaling)
//! - [`telemetry`] — deterministic virtual-time span tracing, metrics
//!   and Chrome-trace/JSON/CSV exporters (off by default and
//!   byte-invisible when off)
//! - [`gpu`] — analytical GPU baseline timing model
//! - [`power`] — analytical 32nm area/power model
//!
//! # Example
//!
//! ```
//! use capsacc::capsnet::CapsNetConfig;
//! let cfg = CapsNetConfig::mnist();
//! assert_eq!(cfg.total_parameters(), 6_804_224);
//! ```

#![forbid(unsafe_code)]

pub use capsacc_capsnet as capsnet;
pub use capsacc_core as core;
pub use capsacc_faults as faults;
pub use capsacc_fixed as fixed;
pub use capsacc_gpu_model as gpu;
pub use capsacc_memory as memory;
pub use capsacc_mnist as mnist;
pub use capsacc_power as power;
pub use capsacc_serve as serve;
pub use capsacc_telemetry as telemetry;
pub use capsacc_tensor as tensor;

/// The README's Rust examples, compiled and run as doctests by
/// `cargo test`.
#[cfg(doctest)]
#[doc = include_str!("../README.md")]
struct ReadmeDoctests;
