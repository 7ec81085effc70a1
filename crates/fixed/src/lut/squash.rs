//! The squashing-function lookup table (Fig. 11e).

use crate::config::NumericConfig;
use crate::convert::saturate_to_bits;

/// Exact (floating-point) squashing gain `g(n) = n / (1 + n²)`.
///
/// The squash of a vector `s` is `v = s · g(‖s‖)` — Equation (1) of the
/// paper factored into a per-element multiply by a scalar gain, which is
/// exactly how the hardware LUT realizes it (element value × norm in,
/// squashed element out).
///
/// ```
/// use capsacc_fixed::squash_gain;
/// assert!((squash_gain(1.0) - 0.5).abs() < 1e-6);
/// assert_eq!(squash_gain(0.0), 0.0);
/// ```
#[inline]
pub fn squash_gain(norm: f32) -> f32 {
    norm / (1.0 + norm * norm)
}

/// The single-dimensional squash `y(x) = x² / (1 + x²) · sign(x)` plotted
/// in Fig. 3 of the paper.
///
/// ```
/// use capsacc_fixed::squash_scalar_1d;
/// assert!((squash_scalar_1d(1.0) - 0.5).abs() < 1e-6);
/// assert!(squash_scalar_1d(6.0) > 0.97);
/// ```
#[inline]
pub fn squash_scalar_1d(x: f32) -> f32 {
    x.abs() * x / (1.0 + x * x)
}

/// First derivative of [`squash_scalar_1d`] for `x ≥ 0`:
/// `y'(x) = 2x / (1 + x²)²`, whose maximum the paper reports at
/// `(0.5767, 0.6495)` (analytically `x = 1/√3 ≈ 0.5774`).
///
/// ```
/// use capsacc_fixed::squash_derivative_1d;
/// let peak = squash_derivative_1d(1.0 / 3f32.sqrt());
/// assert!((peak - 0.6495).abs() < 1e-3);
/// ```
#[inline]
pub fn squash_derivative_1d(x: f32) -> f32 {
    let d = 1.0 + x * x;
    2.0 * x / (d * d)
}

/// The squashing LUT: 6-bit data × 5-bit norm → 8-bit output.
///
/// Per Sec. IV-C of the paper: "The LUT takes as input a 6-bit fixed-point
/// data and a 5-bit fixed-point norm to produce an 8-bit output", i.e.
/// 2048 entries. The table stores `round(d · g(n))` in the 8-bit data
/// format, where `d` is the real value of the 6-bit element code and `n`
/// the real value of the 5-bit norm code.
///
/// # Example
///
/// ```
/// use capsacc_fixed::SquashLut;
/// let lut = SquashLut::default();
/// // Squashing a zero vector yields zero.
/// assert_eq!(lut.lookup_raw(0, 0), 0);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SquashLut {
    /// Indexed by `(data6 & 0x3f) << 5 | norm5`.
    table: Vec<i8>,
}

impl std::fmt::Debug for SquashLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SquashLut")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Default for SquashLut {
    /// Builds the 2048-entry table.
    fn default() -> Self {
        let mut table = vec![0i8; Self::ENTRIES];
        for data6 in -32i64..32 {
            for norm5 in 0i64..32 {
                let d = data6 as f32 / (1u32 << NumericConfig::DATA6_FRAC) as f32;
                let n = norm5 as f32 / (1u32 << NumericConfig::NORM5_FRAC) as f32;
                let out = d * squash_gain(n);
                let code = (out * (1u32 << NumericConfig::DATA_FRAC) as f32).round();
                let code = code.clamp(i8::MIN as f32, i8::MAX as f32) as i8;
                table[Self::index(data6 as i8, norm5 as u8)] = code;
            }
        }
        Self { table }
    }
}

impl SquashLut {
    /// Number of entries: 2^(6+5).
    pub const ENTRIES: usize = 1 << 11;

    /// The table entry of a 6-bit data and a 5-bit norm code; codes
    /// beyond their widths saturate, as the truncating path does.
    #[inline]
    fn index(data6: i8, norm5: u8) -> usize {
        let data6 = data6.clamp(-32, 31);
        usize::from((data6 as u8) & 0x3f) << 5 | usize::from(norm5.min(31))
    }

    /// Raw LUT access with pre-truncated 6-bit data and 5-bit norm codes.
    /// A code beyond its width saturates: data to `-32..=31`, norm to
    /// 31, as in [`SquashLut::squash_element`].
    #[inline]
    pub fn lookup_raw(&self, data6: i8, norm5: u8) -> i8 {
        self.table[Self::index(data6, norm5)]
    }

    /// Full hardware path: truncates an 8-bit data code and an 8-bit norm
    /// code to their 6-/5-bit LUT indices (arithmetic shift, saturating)
    /// and looks up the squashed 8-bit output.
    ///
    /// ```
    /// use capsacc_fixed::SquashLut;
    /// let lut = SquashLut::default();
    /// // A unit-norm vector element 1.0 (Q2.5 code 32), norm 1.0
    /// // (Q4.4 code 16) squashes to ≈ 0.5.
    /// let out = lut.squash_element(32, 16);
    /// assert!((out as f32 / 32.0 - 0.5).abs() < 0.07);
    /// ```
    #[inline]
    pub fn squash_element(&self, data_raw: i8, norm_raw: u8) -> i8 {
        let cfg = NumericConfig::new();
        let data6 = saturate_to_bits(i64::from(data_raw >> cfg.data6_shift()), 6) as i8;
        let norm5 = ((norm_raw as u32) >> cfg.norm5_shift()).min(31) as u8;
        self.lookup_raw(data6, norm5)
    }

    /// Maximum absolute error (in real-value terms) of the LUT against the
    /// exact squash over its whole input domain. Reported alongside
    /// Fig. 3 in the experiment harness.
    pub fn max_abs_error(&self) -> f32 {
        let mut worst = 0f32;
        for data6 in -32i8..32 {
            for norm5 in 0u8..32 {
                let d = data6 as f32 / (1u32 << NumericConfig::DATA6_FRAC) as f32;
                let n = norm5 as f32 / (1u32 << NumericConfig::NORM5_FRAC) as f32;
                let exact = d * squash_gain(n);
                let got = self.lookup_raw(data6, norm5) as f32
                    / (1u32 << NumericConfig::DATA_FRAC) as f32;
                worst = worst.max((exact - got).abs());
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lut() -> SquashLut {
        SquashLut::default()
    }

    #[test]
    fn gain_peaks_at_one() {
        // g(n) = n/(1+n²) has maximum 0.5 at n = 1.
        assert!((squash_gain(1.0) - 0.5).abs() < 1e-6);
        assert!(squash_gain(0.5) < 0.5);
        assert!(squash_gain(2.0) < 0.5);
    }

    #[test]
    fn derivative_peak_matches_paper() {
        // Paper Fig. 3: peak at (0.5767, 0.6495).
        let x = 1.0 / 3f32.sqrt();
        assert!((x - 0.5774).abs() < 1e-3);
        assert!((squash_derivative_1d(x) - 0.6495).abs() < 1e-3);
        // It is a maximum: neighbors are below.
        assert!(squash_derivative_1d(x - 0.05) < squash_derivative_1d(x));
        assert!(squash_derivative_1d(x + 0.05) < squash_derivative_1d(x));
    }

    #[test]
    fn scalar_squash_is_bounded_and_monotone() {
        let mut prev = -1.0;
        for i in 0..=600 {
            let x = i as f32 / 100.0;
            let y = squash_scalar_1d(x);
            assert!((0.0..1.0).contains(&y), "y({x}) = {y} out of [0,1)");
            assert!(y >= prev);
            prev = y;
        }
    }

    #[test]
    fn table_has_paper_size() {
        assert_eq!(SquashLut::ENTRIES, 2048);
        assert_eq!(lut().table.len(), 2048);
    }

    #[test]
    fn zero_norm_squashes_to_zero() {
        let l = lut();
        for data6 in -32i8..32 {
            assert_eq!(l.lookup_raw(data6, 0), 0);
        }
    }

    #[test]
    fn zero_data_squashes_to_zero() {
        let l = lut();
        for norm5 in 0u8..32 {
            assert_eq!(l.lookup_raw(0, norm5), 0);
        }
    }

    #[test]
    fn odd_symmetry_in_data() {
        let l = lut();
        for data6 in 1i8..32 {
            for norm5 in 0u8..32 {
                let pos = l.lookup_raw(data6, norm5) as i32;
                let neg = l.lookup_raw(-data6, norm5) as i32;
                // Rounding of ±x can differ by at most one LSB.
                assert!((pos + neg).abs() <= 1, "asymmetry at d={data6} n={norm5}");
            }
        }
    }

    #[test]
    fn lut_error_is_small() {
        // One output LSB is 1/32; table rounding error stays within it.
        assert!(lut().max_abs_error() <= 1.0 / 32.0);
    }

    #[test]
    fn squash_element_truncation() {
        let l = lut();
        // data code 33 (Q2.5 ≈ 1.03) truncates to data6 = 8 (Q3.3 = 1.0).
        let via_full = l.squash_element(33, 16);
        let via_raw = l.lookup_raw(8, 4);
        assert_eq!(via_full, via_raw);
    }

    #[test]
    fn lookup_raw_saturates_out_of_range_codes() {
        // A norm code past 5 bits must not alias another entry: zero
        // data squashes to zero at any norm, and the saturated codes
        // read the boundary entries.
        let l = lut();
        assert_eq!(l.lookup_raw(0, 40), 0);
        assert_eq!(l.lookup_raw(8, 200), l.lookup_raw(8, 31));
        assert_eq!(l.lookup_raw(100, 16), l.lookup_raw(31, 16));
        assert_eq!(l.lookup_raw(-100, 16), l.lookup_raw(-32, 16));
    }

    #[test]
    fn squash_element_saturates_norm_index() {
        let l = lut();
        // Norm code 255 (Q4.4 = 15.94) exceeds the 5-bit index range and
        // must clamp to 31 rather than wrap.
        let out = l.squash_element(32, 255);
        assert_eq!(out, l.lookup_raw(8, 31));
    }

    proptest! {
        #[test]
        fn output_magnitude_never_exceeds_input(data_raw in any::<i8>(), norm_raw in any::<u8>()) {
            // |v| = |s|·g(n) ≤ |s|·0.5 since g(n) ≤ 1/2. The data6
            // truncation is an arithmetic shift (rounds toward −∞), which
            // can inflate a negative input's magnitude by up to
            // 2^shift − 1 = 3 raw LSBs; the LUT rounding adds half an LSB.
            let l = lut();
            let out = l.squash_element(data_raw, norm_raw) as i32;
            prop_assert!(out.abs() <= ((data_raw as i32).abs() + 3) / 2 + 1);
        }

        #[test]
        fn gain_bounded_by_half(n in 0.0f32..100.0) {
            prop_assert!(squash_gain(n) <= 0.5 + f32::EPSILON);
            prop_assert!(squash_gain(n) >= 0.0);
        }
    }
}
