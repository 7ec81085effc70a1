//! Integer square root — the `^1/2` operator of the norm unit (Fig. 11f).

/// Computes `⌊√x⌋` for a non-negative integer using the digit-by-digit
/// (binary restoring) method — the same iterative structure a hardware
/// sqrt block implements, one bit per cycle.
///
/// # Example
///
/// ```
/// use capsacc_fixed::isqrt;
/// assert_eq!(isqrt(0), 0);
/// assert_eq!(isqrt(15), 3);
/// assert_eq!(isqrt(16), 4);
/// assert_eq!(isqrt(1 << 24), 1 << 12);
/// ```
pub fn isqrt(x: u64) -> u64 {
    if x < 2 {
        return x;
    }
    let mut rem = x;
    let mut root = 0u64;
    // Highest power-of-four at or below x.
    let mut bit = 1u64 << ((63 - x.leading_zeros()) & !1);
    while bit != 0 {
        if rem >= root + bit {
            rem -= root + bit;
            root = (root >> 1) + bit;
        } else {
            root >>= 1;
        }
        bit >>= 2;
    }
    root
}

/// Computes the rounded norm code produced by the norm unit.
///
/// The sum register holds `Σ x_i²` with `square_frac` fraction bits; the
/// norm output carries `norm_frac` fraction bits. In real terms
/// `norm = √(sum_raw / 2^square_frac)`, so the output code is
/// `⌊√(sum_raw · 2^(2·norm_frac − square_frac))⌋`, saturated to 8 bits
/// unsigned.
///
/// # Panics
///
/// Panics if `2 · norm_frac < square_frac` (the shift would be negative;
/// no supported configuration does this).
///
/// # Example
///
/// ```
/// use capsacc_fixed::{norm_code, NumericConfig};
/// // sum = 1.0 (Q4.4 code 16) → norm 1.0 (Q4.4 code 16).
/// let (square, norm) = (NumericConfig::SQUARE_FRAC, NumericConfig::NORM_FRAC);
/// assert_eq!(norm_code(16, square, norm), 16);
/// ```
pub fn norm_code(sum_raw: u64, square_frac: u32, norm_frac: u32) -> u8 {
    assert!(
        2 * norm_frac >= square_frac,
        "norm format too narrow for the square format"
    );
    let shift = 2 * norm_frac - square_frac;
    isqrt(sum_raw << shift).min(u64::from(u8::MAX)) as u8
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn small_values() {
        let expect = [0, 1, 1, 1, 2, 2, 2, 2, 2, 3, 3, 3, 3, 3, 3, 3, 4];
        for (x, &e) in expect.iter().enumerate().map(|(i, e)| (i as u64, e)) {
            assert_eq!(isqrt(x), e, "isqrt({x})");
        }
    }

    #[test]
    fn perfect_squares() {
        for r in 0u64..2000 {
            assert_eq!(isqrt(r * r), r);
            if r > 0 {
                assert_eq!(isqrt(r * r - 1), r - 1);
            }
        }
    }

    #[test]
    fn norm_code_identity_on_unit() {
        // Default config: square Q4.4, norm Q4.4 → shift = 4.
        assert_eq!(norm_code(16, 4, 4), 16); // √1.0 = 1.0
        assert_eq!(norm_code(64, 4, 4), 32); // √4.0 = 2.0
        assert_eq!(norm_code(0, 4, 4), 0);
    }

    #[test]
    fn norm_code_saturates() {
        // 16 elements of 15.94 each: sum_raw = 16·255 = 4080, real 255;
        // √255 ≈ 15.97 → code 255 in Q4.4 (just at the top).
        assert_eq!(norm_code(4080, 4, 4), 255);
        // Force true saturation with a wider sum.
        assert_eq!(norm_code(1 << 16, 4, 4), 255);
    }

    #[test]
    #[should_panic(expected = "too narrow")]
    fn norm_code_rejects_negative_shift() {
        norm_code(16, 10, 4);
    }

    proptest! {
        #[test]
        fn isqrt_is_floor_sqrt(x in 0u64..(u64::MAX >> 2)) {
            let r = isqrt(x);
            prop_assert!(r * r <= x);
            prop_assert!((r + 1).checked_mul(r + 1).map(|s| s > x).unwrap_or(true));
        }

        #[test]
        fn isqrt_monotone(a in any::<u32>(), b in any::<u32>()) {
            let (lo, hi) = if a <= b { (a, b) } else { (b, a) };
            prop_assert!(isqrt(lo as u64) <= isqrt(hi as u64));
        }
    }
}
