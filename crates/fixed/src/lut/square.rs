//! The 12-bit → 8-bit Power-2 lookup table of the norm unit (Fig. 11f).

use crate::config::NumericConfig;
use crate::convert::saturate_to_bits;

/// The square (Power-2) LUT: signed 12-bit input → unsigned 8-bit output.
///
/// Sec. IV-C: "We designed the square operator as a Look Up Table with
/// 12-bit input and 8-bit output." The norm unit feeds each element of
/// the capsule vector through this LUT and accumulates the squares in a
/// register before the square root.
///
/// Input codes are interpreted in the data format
/// ([`NumericConfig::DATA_FRAC`], Q2.5, sign-extended into the 12-bit
/// field); output codes are unsigned with [`NumericConfig::SQUARE_FRAC`]
/// fraction bits (Q4.4, saturating at 15.9375).
///
/// # Example
///
/// ```
/// use capsacc_fixed::SquareLut;
/// let lut = SquareLut::default();
/// // 1.0² = 1.0: Q2.5 code 32 → Q4.4 code 16.
/// assert_eq!(lut.lookup(32), 16);
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct SquareLut {
    table: Vec<u8>,
}

impl std::fmt::Debug for SquareLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SquareLut")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Default for SquareLut {
    /// Builds the 4096-entry table.
    fn default() -> Self {
        let mut table = vec![0u8; Self::ENTRIES];
        for raw in -2048i64..2048 {
            let x = raw as f32 / (1u32 << NumericConfig::DATA_FRAC) as f32;
            let y = x * x * (1u32 << NumericConfig::SQUARE_FRAC) as f32;
            table[Self::index(raw as i16)] = y.round().min(u8::MAX as f32) as u8;
        }
        Self { table }
    }
}

impl SquareLut {
    /// Number of entries: 2^12.
    pub const ENTRIES: usize = 1 << 12;

    #[inline]
    fn index(raw12: i16) -> usize {
        debug_assert!((-2048..2048).contains(&raw12));
        usize::from((raw12 as u16) & 0x0fff)
    }

    /// Looks up the square of a 12-bit input code.
    ///
    /// Values outside the signed 12-bit range saturate into it first (the
    /// hardware field simply cannot carry more).
    #[inline]
    pub fn lookup(&self, raw: i16) -> u8 {
        self.table[Self::index(saturate_to_bits(i64::from(raw), 12) as i16)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lut() -> SquareLut {
        SquareLut::default()
    }

    #[test]
    fn table_has_paper_size() {
        assert_eq!(SquareLut::ENTRIES, 4096);
        assert_eq!(lut().table.len(), 4096);
    }

    #[test]
    fn zero_squares_to_zero() {
        assert_eq!(lut().lookup(0), 0);
    }

    #[test]
    fn even_symmetry() {
        let l = lut();
        for raw in 1i16..2048 {
            assert_eq!(l.lookup(raw), l.lookup(-raw), "asymmetry at {raw}");
        }
    }

    #[test]
    fn known_values() {
        let l = lut();
        // 0.5² = 0.25 → Q4.4 code 4.
        assert_eq!(l.lookup(16), 4);
        // 2.0² = 4.0 → Q4.4 code 64.
        assert_eq!(l.lookup(64), 64);
        // 4.0² = 16.0 overflows Q4.4 → saturates at 255.
        assert_eq!(l.lookup(128), 255);
    }

    #[test]
    fn out_of_field_inputs_saturate() {
        let l = lut();
        assert_eq!(l.lookup(5000), l.lookup(2047));
        assert_eq!(l.lookup(-5000), l.lookup(-2048));
    }

    #[test]
    fn capsule_element_range_is_exactly_representable() {
        // Post-squash capsule elements are ≤ 0.5 (|code| ≤ 16 in Q2.5);
        // their squares ≤ 0.25 never saturate.
        let l = lut();
        for raw in -16i16..=16 {
            let exact = (raw as f32 / 32.0).powi(2) * 16.0;
            assert_eq!(l.lookup(raw) as f32, exact.round());
        }
    }

    proptest! {
        #[test]
        fn monotone_in_magnitude(a in 0i16..2047) {
            let l = lut();
            prop_assert!(l.lookup(a) <= l.lookup(a + 1));
        }

        #[test]
        fn error_within_half_lsb_unsaturated(raw in -710i16..710) {
            // Inputs up to |x| < 3.99 keep x² < 15.94 (unsaturated).
            let l = lut();
            let x = raw as f32 / 32.0;
            let exact = x * x * 16.0;
            if exact < 254.5 {
                prop_assert!((l.lookup(raw) as f32 - exact).abs() <= 0.5);
            }
        }
    }
}
