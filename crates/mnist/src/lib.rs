//! # capsacc-mnist — synthetic MNIST-style data
//!
//! The paper evaluates CapsAcc on MNIST but reports **no accuracy
//! numbers** — the evaluation is performance/area/power on fixed tensor
//! shapes (Sec. VI-A: "we do not present any classification results").
//! What the workload needs from the dataset is therefore its *shape*
//! (28×28 grayscale, 10 classes) and realistic pixel statistics, which
//! this crate synthesizes deterministically:
//!
//! - [`SyntheticMnist`] — a procedural, stroke-based digit rasterizer
//!   producing 28×28 images with per-sample jitter (translation, scale,
//!   rotation, stroke width), seeded and fully reproducible.
//!
//! # Example
//!
//! ```
//! use capsacc_mnist::SyntheticMnist;
//! let ds = SyntheticMnist::new(42);
//! let sample = ds.sample(0);
//! assert_eq!(sample.image.shape(), &[1, 28, 28]);
//! assert!(sample.label < 10);
//! // Deterministic: the same index always yields the same image.
//! assert_eq!(ds.sample(0).image, sample.image);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod digits;

pub use digits::{Sample, SyntheticMnist, IMAGE_SIDE};
