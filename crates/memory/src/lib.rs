//! # capsacc-memory — the on-chip memory hierarchy, cycle-accurate
//!
//! The CapsAcc paper's headline claim is *data reuse*, which is a memory
//! claim — but the paper itself models the Data / Weight / Accumulator
//! buffers only as capacities and bandwidths. The follow-on papers show
//! that the memory hierarchy is where most of a CapsNet accelerator's
//! area, energy and a large share of latency actually live:
//!
//! - **DESCNet** (scratchpad sizing + *sector power gating* for CapsNet
//!   accelerators) motivates the banked-SPM model with idle-bank gating;
//! - **CapStore** (on-chip memory design/management for CapsuleNet
//!   inference) motivates per-access energy that scales with SPM
//!   capacity and the explicit off-chip (DRAM) channel.
//!
//! This crate sits between `capsacc-tensor` and `capsacc-core` in the
//! workspace graph and models that hierarchy for real:
//!
//! - [`SpmConfig`] — banked scratchpad memories (banks × ports × word
//!   width): unit-stride bursts stall on bank/port bandwidth shortfall,
//!   and a strided-access model ([`SpmConfig::strided_word_cycles`])
//!   quantifies bank conflicts for irregular patterns (used by the
//!   design-space explorer);
//! - [`DramConfig`] — an off-chip channel (latency + bandwidth + burst);
//! - [`PrefetchPipeline`] — a double-buffered (or deeper) tile
//!   prefetcher that overlaps the next tile's DRAM fill with the current
//!   tile's compute;
//! - [`MemorySubsystem`] — the three SPMs + DRAM + prefetcher behind the
//!   engine's matmul tile schedule, producing stall cycles and a
//!   [`MemReport`].
//!
//! Everything is deterministic and closed-form per tile, so the
//! cycle-accurate engine and the analytical timing model in
//! `capsacc-core` drive the *same* [`MemorySubsystem`] code and agree
//! exactly by construction. [`MemoryMode::Ideal`] ("IdealMemory") keeps
//! every counter but returns zero stalls everywhere, reproducing the
//! pre-memory engine's cycle counts bit-for-bit.
//!
//! # Example
//!
//! ```
//! use capsacc_memory::{MatmulGeometry, MemoryConfig, MemorySubsystem};
//!
//! let g = MatmulGeometry {
//!     m: 36, k: 2304, n: 256, batch: 1, rows: 16, cols: 16,
//!     weights_offchip: true, schedule: capsacc_memory::TileSchedule::Serial,
//! };
//! let mut ideal = MemorySubsystem::new(MemoryConfig::ideal());
//! assert_eq!(ideal.matmul(&g), 0);
//! let mut real = MemorySubsystem::new(MemoryConfig::paper());
//! let stalls = real.matmul(&g);
//! // The double-buffered prefetcher hides most fills behind compute...
//! assert!(real.report().hidden_fill_cycles > stalls);
//! // ...and every weight byte crossed the off-chip channel exactly once.
//! assert_eq!(real.report().dram_weight_bytes, 2304 * 256);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod dram;
mod prefetch;
mod report;
mod spm;
mod subsystem;

pub use dram::DramConfig;
pub use prefetch::{PrefetchPipeline, TileOutcome};
pub use report::{MemReport, SpmActivity, SpmKind};
pub use spm::SpmConfig;
pub use subsystem::{
    MatmulGeometry, MemoryConfig, MemoryMode, MemorySubsystem, RunPrice, StageOutcome,
    TileSchedule, ACC_ENTRY_BYTES,
};
