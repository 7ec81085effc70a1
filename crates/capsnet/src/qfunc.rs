//! Quantized activation pipelines — the functional behaviour of the
//! Norm, Squash and Softmax units (Fig. 11e–g), shared verbatim between
//! the quantized reference model and the cycle-accurate simulator.

use capsacc_fixed::{norm_code, ExpLut, NumericConfig, SquareLut, SquashLut};
use capsacc_tensor::u64_from;

/// All hardware LUTs, bundled so the reference model and the simulator
/// construct *identical* tables in the one numeric format
/// ([`NumericConfig`]).
///
/// # Example
///
/// ```
/// use capsacc_capsnet::QuantPipeline;
/// use capsacc_fixed::NumericConfig;
/// let p = QuantPipeline::new(NumericConfig::default());
/// // Norm of the zero vector is zero; squash leaves it at zero.
/// let (v, norm) = p.squash_vec(&[0, 0, 0, 0]);
/// assert_eq!(norm, 0);
/// assert_eq!(v, vec![0, 0, 0, 0]);
/// ```
#[derive(Clone, Debug)]
pub struct QuantPipeline {
    squash: SquashLut,
    exp: ExpLut,
    square: SquareLut,
}

impl QuantPipeline {
    /// Builds the three LUTs in the one numeric format, whose fieldless
    /// [`NumericConfig`] value is the argument.
    pub fn new(_: NumericConfig) -> Self {
        Self {
            squash: SquashLut::default(),
            exp: ExpLut::default(),
            square: SquareLut::default(),
        }
    }

    /// The Norm unit: squares each element through the 12-bit LUT,
    /// accumulates, and takes the integer square root — producing the
    /// 8-bit norm code ([`NumericConfig::NORM_FRAC`] fraction bits).
    ///
    /// In hardware this takes `n + 1` cycles for an `n`-element vector
    /// (Sec. IV-C); the cycle cost lives in the simulator, the arithmetic
    /// lives here.
    pub fn norm8(&self, v: &[i8]) -> u8 {
        let sum: u64 = v
            .iter()
            .map(|&x| u64::from(self.square.lookup(i16::from(x))))
            .sum();
        norm_code(sum, NumericConfig::SQUARE_FRAC, NumericConfig::NORM_FRAC)
    }

    /// The Squash unit applied to a capsule vector: computes the norm,
    /// then squashes every element through the 2048-entry LUT. Returns
    /// the squashed vector and the norm code.
    pub fn squash_vec(&self, v: &[i8]) -> (Vec<i8>, u8) {
        let norm = self.norm8(v);
        let out = v
            .iter()
            .map(|&x| self.squash.squash_element(x, norm))
            .collect();
        (out, norm)
    }

    /// The Softmax unit over a logit vector, producing coupling
    /// coefficients in the [`NumericConfig::COUPLING_FRAC`] format.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    pub fn softmax(&self, logits: &[i8]) -> Vec<i8> {
        self.exp.softmax(logits)
    }

    /// The direct coupling-coefficient initialization of the optimized
    /// routing (Sec. V): `c_ij = 1/n`, rounded in the coupling format.
    ///
    /// This matches `softmax(0, …, 0)` bit-exactly — the property the
    /// paper's optimization relies on ("this operation is dummy, because
    /// all the inputs are equal to 0").
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn uniform_coupling(&self, n: usize) -> i8 {
        assert!(n > 0, "cannot distribute coupling over zero classes");
        let one = 1u64 << NumericConfig::COUPLING_FRAC;
        let n = u64_from(n);
        ((one + n / 2) / n).min(u64::from(i8::MAX as u8)) as i8
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn pipe() -> QuantPipeline {
        QuantPipeline::new(NumericConfig::default())
    }

    #[test]
    fn norm8_of_unit_vector() {
        // [1.0, 0, 0, 0] in Q2.5: norm = 1.0 → Q4.4 code 16.
        assert_eq!(pipe().norm8(&[32, 0, 0, 0]), 16);
    }

    #[test]
    fn norm8_of_345_triangle() {
        // [0.75, 1.0] → norm = 1.25 → Q4.4 code 20.
        let n = pipe().norm8(&[24, 32]);
        assert!((19..=20).contains(&n), "norm code {n}");
    }

    #[test]
    fn squash_vec_shrinks() {
        let p = pipe();
        let (v, norm) = p.squash_vec(&[32, 32, 32, 32]); // each 1.0, norm 2.0
        assert_eq!(norm, 32); // 2.0 in Q4.4
                              // gain g(2) = 0.4: each element → 0.4 in Q2.5 ≈ 13.
        for x in v {
            assert!((11..=14).contains(&x), "element {x}");
        }
    }

    #[test]
    fn uniform_coupling_matches_softmax_of_zeros() {
        // The paper's Sec. V claim: skipping the first softmax and
        // initializing c directly is *exact*. Check for every class count
        // the architecture could use.
        let p = pipe();
        for n in 1..=32usize {
            let direct = p.uniform_coupling(n);
            let via_softmax = p.softmax(&vec![0i8; n]);
            assert!(
                via_softmax.iter().all(|&c| c == direct),
                "mismatch at n={n}: direct={direct}, softmax={via_softmax:?}"
            );
        }
    }

    #[test]
    #[should_panic(expected = "zero classes")]
    fn uniform_coupling_rejects_zero() {
        pipe().uniform_coupling(0);
    }

    #[test]
    fn norm8_is_permutation_invariant() {
        let p = pipe();
        assert_eq!(p.norm8(&[10, -20, 30]), p.norm8(&[30, 10, -20]));
    }

    proptest! {
        #[test]
        fn squash_output_norm_at_most_half_scale(v in proptest::collection::vec(any::<i8>(), 1..16)) {
            // Squashed vectors have norm < 1; with the default formats the
            // output elements stay well inside |code| ≤ 64 (real 2.0).
            let p = pipe();
            let (out, _) = p.squash_vec(&v);
            prop_assert!(out.iter().all(|&x| x.abs() <= 64));
        }

        #[test]
        fn norm8_monotone_under_element_growth(v in proptest::collection::vec(0i8..64, 1..8), idx in 0usize..8) {
            let p = pipe();
            let mut bigger = v.clone();
            let i = idx % v.len();
            bigger[i] = bigger[i].saturating_add(8);
            prop_assert!(p.norm8(&bigger) >= p.norm8(&v));
        }
    }
}
