//! # capsacc-fixed — fixed-point arithmetic and hardware lookup tables
//!
//! This crate is the numeric substrate of the CapsAcc reproduction. It
//! models, bit-exactly, the arithmetic the paper's datapath performs:
//!
//! - [`Fx8`] — 8-bit two's-complement fixed-point values with a
//!   compile-time fraction width (the paper uses 8-bit data and weights).
//! - [`Acc`] — the 25-bit partial-sum accumulator used by every processing
//!   element and by the per-column accumulator units.
//! - [`requantize`] — the shift/round/saturate step the activation unit
//!   applies when reducing 25-bit accumulator values back to 8 bits.
//! - [`SquashLut`] — the squashing-function lookup table (6-bit data ×
//!   5-bit norm → 8-bit output, Fig. 11e of the paper).
//! - [`ExpLut`] — the 8-bit exponential lookup table inside the softmax
//!   unit (Fig. 11g).
//! - [`SquareLut`] — the 12-bit → 8-bit Power-2 lookup table inside the
//!   norm unit (Fig. 11f).
//! - [`isqrt`] — the integer square root used by the norm unit.
//!
//! The same functions are used by the software reference model
//! (`capsacc-capsnet`) and by the cycle-accurate simulator
//! (`capsacc-core`), which is what makes bit-exact cross-validation of the
//! two possible — the Rust analogue of the paper's ModelSim-vs-PyTorch
//! functional validation flow (Fig. 15).
//!
//! # Example
//!
//! ```
//! use capsacc_fixed::{Data8, NumericConfig};
//!
//! // Quantize an activation into the Q2.5 data format.
//! let x = Data8::from_f32(0.75);
//! assert_eq!(x.to_f32(), 0.75);
//!
//! // The one numeric format shared by reference model and simulator.
//! let cfg = NumericConfig::default();
//! assert_eq!(cfg.product_frac(), NumericConfig::DATA_FRAC + NumericConfig::WEIGHT_FRAC);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod acc;
mod config;
mod convert;
mod lut;
mod q;

pub use acc::{Acc, Acc25, ACC_BITS};
pub use config::NumericConfig;
pub use convert::{requantize, saturate_to_bits};
pub use lut::exp::ExpLut;
pub use lut::sqrt::{isqrt, norm_code};
pub use lut::square::SquareLut;
pub use lut::squash::{squash_derivative_1d, squash_gain, squash_scalar_1d, SquashLut};
pub use q::{Coupling8, Data8, Fx8, ParseFxError, Weight8};
