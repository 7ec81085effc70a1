//! The numeric configuration shared by the reference model and simulator.

use crate::q::{Coupling8, Data8, Weight8};

/// The fixed-point format of every signal in the CapsAcc datapath: its
/// fraction widths and the shift amounts derived from them.
///
/// The paper fixes the *bit widths* (8-bit data/weights, 25-bit sums,
/// 6-/5-/12-bit LUT inputs) but leaves the binary-point placement to the
/// implementation; the activation unit realizes it with programmable
/// shifts. This reproduction uses one placement, stated once: the three
/// 8-bit operand widths are the fraction widths of [`Data8`],
/// [`Weight8`] and [`Coupling8`], and the others are the associated
/// constants below. The software reference (`capsacc-capsnet`) and the
/// cycle-accurate simulator (`capsacc-core`) read the same constants,
/// which is what makes their outputs bit-exact against each other. The
/// type carries no data: its value stands for this one format wherever
/// an API takes the numeric configuration.
///
/// # Example
///
/// ```
/// use capsacc_fixed::{Data8, NumericConfig};
/// let cfg = NumericConfig::default();
/// assert_eq!(NumericConfig::DATA_FRAC, Data8::FRAC_BITS);
/// // MAC products of Q2.5 data and Q1.6 weights carry 11 fraction bits;
/// // requantizing back to Q2.5 data shifts right by 6.
/// assert_eq!(cfg.product_frac(), 11);
/// assert_eq!(cfg.mac_shift(), 6);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct NumericConfig(());

impl NumericConfig {
    /// Fraction bits of 8-bit activations/data: [`Data8`], Q2.5.
    pub const DATA_FRAC: u32 = Data8::FRAC_BITS;
    /// Fraction bits of 8-bit weights: [`Weight8`], Q1.6.
    pub const WEIGHT_FRAC: u32 = Weight8::FRAC_BITS;
    /// Fraction bits of 8-bit coupling coefficients `c_ij`:
    /// [`Coupling8`], Q0.7.
    pub const COUPLING_FRAC: u32 = Coupling8::FRAC_BITS;
    /// Fraction bits of 8-bit routing logits `b_ij` (Q3.4).
    pub const LOGIT_FRAC: u32 = 4;
    /// Fraction bits of the 8-bit norm-unit output (Q4.4).
    pub const NORM_FRAC: u32 = 4;
    /// Fraction bits of the 5-bit norm index into the squash LUT (Q3.2).
    pub const NORM5_FRAC: u32 = 2;
    /// Fraction bits of the 6-bit data index into the squash LUT (Q3.3,
    /// i.e. the top 6 bits of a Q2.5 value).
    pub const DATA6_FRAC: u32 = 3;
    /// Fraction bits of the 8-bit square-LUT output (Q4.4).
    pub const SQUARE_FRAC: u32 = 4;
    /// Fraction bits of the 16-bit exponential-LUT output (Q4.12).
    pub const EXP_FRAC: u32 = 12;

    /// Creates the configuration (same as [`Default`]).
    pub const fn new() -> Self {
        Self(())
    }

    /// Fraction width of a data × weight product (the PE multiplier
    /// output feeding the 25-bit accumulator).
    #[inline]
    pub const fn product_frac(&self) -> u32 {
        Self::DATA_FRAC + Self::WEIGHT_FRAC
    }

    /// Fraction width of a data × coupling-coefficient product (the
    /// routing weighted-sum path, Fig. 12b/d).
    #[inline]
    pub const fn coupling_product_frac(&self) -> u32 {
        Self::DATA_FRAC + Self::COUPLING_FRAC
    }

    /// Fraction width of a data × data product (the logit-update path
    /// `b_ij += û·v`, Fig. 12c).
    #[inline]
    pub const fn update_product_frac(&self) -> u32 {
        Self::DATA_FRAC + Self::DATA_FRAC
    }

    /// Right-shift applied when requantizing a weight-MAC accumulator back
    /// to the data format (conv and FC layers).
    #[inline]
    pub const fn mac_shift(&self) -> u32 {
        self.product_frac() - Self::DATA_FRAC
    }

    /// Right-shift applied when requantizing a coupling-MAC accumulator to
    /// the data format (the routing sums `s_j`).
    #[inline]
    pub const fn coupling_mac_shift(&self) -> u32 {
        self.coupling_product_frac() - Self::DATA_FRAC
    }

    /// Right-shift applied when requantizing an update-MAC accumulator to
    /// the logit format (the routing updates `b_ij`).
    #[inline]
    pub const fn update_shift(&self) -> u32 {
        self.update_product_frac() - Self::LOGIT_FRAC
    }

    /// Right-shift from an 8-bit data code to its 6-bit squash-LUT index.
    #[inline]
    pub const fn data6_shift(&self) -> u32 {
        Self::DATA_FRAC - Self::DATA6_FRAC
    }

    /// Right-shift from the 8-bit norm output to its 5-bit squash-LUT
    /// index.
    #[inline]
    pub const fn norm5_shift(&self) -> u32 {
        Self::NORM_FRAC - Self::NORM5_FRAC
    }
}

// The format's internal consistency, checked when the crate compiles:
// every derived shift is non-negative and every 8-bit format keeps a
// sign bit.
const _: () = {
    type N = NumericConfig;
    assert!(
        N::DATA_FRAC <= 7
            && N::WEIGHT_FRAC <= 7
            && N::COUPLING_FRAC <= 7
            && N::LOGIT_FRAC <= 7
            && N::NORM_FRAC <= 7,
        "an 8-bit field has at most 7 fraction bits"
    );
    assert!(
        N::DATA6_FRAC <= N::DATA_FRAC,
        "DATA6_FRAC exceeds DATA_FRAC"
    );
    assert!(
        N::NORM5_FRAC <= N::NORM_FRAC,
        "NORM5_FRAC exceeds NORM_FRAC"
    );
    assert!(
        N::new().update_product_frac() >= N::LOGIT_FRAC,
        "update product narrower than the logit format"
    );
    assert!(
        N::EXP_FRAC <= 15,
        "EXP_FRAC must fit a 16-bit unsigned output"
    );
};

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn derived_shifts() {
        let cfg = NumericConfig::default();
        assert_eq!(cfg.product_frac(), 11);
        assert_eq!(cfg.coupling_product_frac(), 12);
        assert_eq!(cfg.update_product_frac(), 10);
        assert_eq!(cfg.mac_shift(), 6);
        assert_eq!(cfg.coupling_mac_shift(), 7);
        assert_eq!(cfg.update_shift(), 6);
        assert_eq!(cfg.data6_shift(), 2);
        assert_eq!(cfg.norm5_shift(), 2);
    }

    #[test]
    fn new_equals_default() {
        assert_eq!(NumericConfig::new(), NumericConfig::default());
    }
}
