//! The activation unit (Fig. 11d of the paper): ReLU, Norm, Squash and
//! Softmax, with the cycle costs stated in Sec. IV-C.

use capsacc_capsnet::QuantPipeline;

/// Which function the activation unit's output multiplexer selects.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum ActivationKind {
    /// Rectified linear unit (Conv1 and, in the paper's description, the
    /// first two layers).
    Relu,
    /// Plain requantization with no nonlinearity (the FC/û path).
    Identity,
    /// Norm followed by the squash LUT (capsule outputs).
    Squash,
    /// Softmax over a logit vector (coupling-coefficient generation).
    Softmax,
}

/// One activation unit — the paper instantiates one per array column.
///
/// The functional arithmetic is delegated to the *same*
/// [`QuantPipeline`] the reference model uses, which is what guarantees
/// bit-exactness; this type adds the hardware view: the 25-bit → 8-bit
/// requantization stage and the per-operation cycle costs.
///
/// # Example
///
/// ```
/// use capsacc_core::{ActivationUnit, ActivationKind};
/// use capsacc_capsnet::QuantPipeline;
/// use capsacc_fixed::NumericConfig;
///
/// let unit = ActivationUnit::new(QuantPipeline::new(NumericConfig::default()));
/// // Requantize a 25-bit MAC result (shift 6) and rectify.
/// assert_eq!(unit.reduce(-2048, 6, ActivationKind::Relu), 0);
/// assert_eq!(unit.reduce(2048, 6, ActivationKind::Relu), 32);
/// // Cycle costs from Sec. IV-C.
/// assert_eq!(ActivationUnit::norm_cycles(16), 17);
/// assert_eq!(ActivationUnit::softmax_cycles(10), 20);
/// ```
#[derive(Clone, Debug)]
pub struct ActivationUnit {
    pipeline: QuantPipeline,
}

impl ActivationUnit {
    /// Creates a unit around a LUT pipeline.
    pub fn new(pipeline: QuantPipeline) -> Self {
        Self { pipeline }
    }

    /// The underlying LUT pipeline.
    pub fn pipeline(&self) -> &QuantPipeline {
        &self.pipeline
    }

    /// The 25-bit → 8-bit reduction stage: shift/round/saturate, plus the
    /// elementwise nonlinearity for [`ActivationKind::Relu`] /
    /// [`ActivationKind::Identity`].
    ///
    /// # Panics
    ///
    /// Panics if called with [`ActivationKind::Squash`] or
    /// [`ActivationKind::Softmax`] — those operate on whole vectors via
    /// [`squash`](Self::squash) and [`softmax`](Self::softmax).
    pub fn reduce(&self, acc_raw: i64, shift: u32, kind: ActivationKind) -> i8 {
        Self::reducer(shift, kind)(acc_raw)
    }

    /// [`reduce`](Self::reduce) with `shift` and `kind` fixed — a drain
    /// resolves them once per tile instead of once per element.
    ///
    /// The reduction is one clamp of the rounded shift,
    /// `(raw + ((1 << shift) >> 1)) >> shift`, to `[floor, 127]` with
    /// `floor` 0 for ReLU and −128 for Identity — equal to
    /// `requantize(raw, shift).max(floor)` (pinned by
    /// `reducer_equals_requantize_then_floor`), and free of
    /// data-dependent branches.
    ///
    /// # Panics
    ///
    /// The returned function panics on the vector kinds, like `reduce`:
    /// when it reduces an element, so a drain with no elements (`K ==
    /// 0`) does not.
    pub(crate) fn reducer(shift: u32, kind: ActivationKind) -> impl Fn(i64) -> i8 {
        let floor = match kind {
            ActivationKind::Relu => Some(0),
            ActivationKind::Identity => Some(i64::from(i8::MIN)),
            ActivationKind::Squash | ActivationKind::Softmax => None,
        };
        let half = (1i64 << shift) >> 1;
        move |acc_raw| {
            let floor = floor.expect("vector activations use squash()/softmax()");
            let rounded = (acc_raw + half) >> shift;
            // In `[floor, 127] ⊂ i8` after the clamp.
            rounded.max(floor).min(i64::from(i8::MAX)) as i8
        }
    }

    /// Squashes a capsule vector (norm unit + squash LUT), returning the
    /// squashed elements and the norm code.
    pub fn squash(&self, v: &[i8]) -> (Vec<i8>, u8) {
        self.pipeline.squash_vec(v)
    }

    /// Norm of a vector (the classification-prediction path).
    pub fn norm(&self, v: &[i8]) -> u8 {
        self.pipeline.norm8(v)
    }

    /// Softmax over a logit vector.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn softmax(&self, logits: &[i8]) -> Vec<i8> {
        self.pipeline.softmax(logits)
    }

    /// Cycles for a norm over an `n`-vector: `n + 1` (Sec. IV-C: "a valid
    /// output every n+1 clock cycles").
    pub const fn norm_cycles(n: u64) -> u64 {
        n + 1
    }

    /// Cycles for a squash over an `n`-vector: norm + 1 (Sec. IV-C: "a
    /// valid output is produced with just one additional clock cycle
    /// compared to the Norm").
    pub const fn squash_cycles(n: u64) -> u64 {
        Self::norm_cycles(n) + 1
    }

    /// Cycles for a softmax over an `n`-vector: `2n` (Sec. IV-C).
    pub const fn softmax_cycles(n: u64) -> u64 {
        2 * n
    }

    /// Cycles for ReLU/identity reduction of a value stream: fully
    /// pipelined, one value per cycle with a single cycle of latency.
    pub const fn reduce_cycles(n: u64) -> u64 {
        n + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsacc_fixed::{requantize, NumericConfig};

    fn unit() -> ActivationUnit {
        ActivationUnit::new(QuantPipeline::new(NumericConfig::default()))
    }

    #[test]
    fn reduce_relu_and_identity() {
        let u = unit();
        assert_eq!(u.reduce(-2048, 6, ActivationKind::Identity), -32);
        assert_eq!(u.reduce(-2048, 6, ActivationKind::Relu), 0);
        assert_eq!(u.reduce(1 << 20, 6, ActivationKind::Identity), 127);
    }

    #[test]
    #[should_panic(expected = "vector activations")]
    fn reduce_rejects_vector_kinds() {
        unit().reduce(0, 6, ActivationKind::Squash);
    }

    #[test]
    fn squash_matches_pipeline() {
        let u = unit();
        let v = [32i8, -16, 8, 0];
        let (a, na) = u.squash(&v);
        let (b, nb) = u.pipeline().squash_vec(&v);
        assert_eq!((a, na), (b, nb));
    }

    #[test]
    fn softmax_matches_pipeline() {
        let u = unit();
        let l = [0i8, 16, -16, 32];
        assert_eq!(u.softmax(&l), u.pipeline().softmax(&l));
    }

    /// The branch-free drain reduction equals requantization followed
    /// by the activation floor, for every shift the numeric formats
    /// use, on the accumulator's ±2^24 range ends, on rounding ties and
    /// on both sides of the 127/−128 saturation edges.
    #[test]
    fn reducer_equals_requantize_then_floor() {
        for shift in 0..=24u32 {
            let unit = 1i64 << shift;
            let half = unit >> 1;
            let mut raws = vec![0, 1, -1, 1 << 24, -(1 << 24), (1 << 24) - 1];
            for code in [-129i64, -128, -127, -1, 0, 1, 126, 127, 128] {
                let at = code * unit;
                // The code itself, its rounding ties and their
                // neighbours.
                raws.extend([at - 1, at, at + 1, at + half - 1, at + half, at - half]);
            }
            for kind in [ActivationKind::Relu, ActivationKind::Identity] {
                let floor = if kind == ActivationKind::Relu {
                    0
                } else {
                    i8::MIN
                };
                let reduce = ActivationUnit::reducer(shift, kind);
                for &raw in &raws {
                    assert_eq!(
                        reduce(raw),
                        requantize(raw, shift).max(floor),
                        "shift {shift}, raw {raw}, {kind:?}"
                    );
                }
            }
        }
    }

    #[test]
    fn cycle_costs_match_paper() {
        // Norm: n+1; Squash: norm + 1; Softmax: 2n.
        assert_eq!(ActivationUnit::norm_cycles(8), 9);
        assert_eq!(ActivationUnit::squash_cycles(8), 10);
        assert_eq!(ActivationUnit::softmax_cycles(8), 16);
        assert_eq!(ActivationUnit::reduce_cycles(100), 101);
    }
}
