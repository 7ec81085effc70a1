//! The 8-bit exponential lookup table of the softmax unit (Fig. 11g).

use crate::config::NumericConfig;

/// The exponential LUT: 8-bit input code → 16-bit output code.
///
/// Sec. IV-C: "First, it computes the exponential function (8-bit Look Up
/// Table) and accumulates the sum in a register, followed by division."
/// The softmax unit subtracts the running maximum before the lookup (the
/// standard hardware trick that keeps every exponent non-positive), so
/// only the `x ≤ 0` half of the table is exercised in normal operation;
/// positive inputs saturate.
///
/// Input codes are interpreted in the logit format
/// ([`NumericConfig::LOGIT_FRAC`], Q3.4); output codes are unsigned with
/// [`NumericConfig::EXP_FRAC`] fraction bits (Q4.12, so `exp(0) = 4096`).
///
/// # Example
///
/// ```
/// use capsacc_fixed::ExpLut;
/// let lut = ExpLut::default();
/// assert_eq!(lut.lookup(0), 4096); // e^0 = 1.0 in Q4.12
/// assert!(lut.lookup(-16) < 4096); // e^-1 < 1
/// ```
#[derive(Clone, PartialEq, Eq)]
pub struct ExpLut {
    table: [u16; 256],
}

impl std::fmt::Debug for ExpLut {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ExpLut")
            .field("entries", &self.table.len())
            .finish()
    }
}

impl Default for ExpLut {
    /// Builds the 256-entry table.
    fn default() -> Self {
        let mut table = [0u16; 256];
        for raw in i8::MIN..=i8::MAX {
            let x = raw as f32 / (1u32 << NumericConfig::LOGIT_FRAC) as f32;
            let y = x.exp() * (1u32 << NumericConfig::EXP_FRAC) as f32;
            table[usize::from(raw as u8)] = y.round().min(u16::MAX as f32) as u16;
        }
        Self { table }
    }
}

impl ExpLut {
    /// Looks up `exp(x)` for an 8-bit logit code.
    #[inline]
    pub fn lookup(&self, raw: i8) -> u16 {
        self.table[usize::from(raw as u8)]
    }

    /// Computes a fixed-point softmax over a slice of logit codes,
    /// returning coupling-coefficient codes (unsigned,
    /// [`NumericConfig::COUPLING_FRAC`] fraction bits, saturated to the
    /// `i8` range so they can ride the 8-bit datapath).
    ///
    /// This is the complete softmax-unit behaviour: max-subtraction, LUT
    /// exponentials, sum register, divider. The cycle cost (2n for an
    /// n-vector) is modelled by the simulator, not here.
    ///
    /// # Panics
    ///
    /// Panics if `logits` is empty.
    ///
    /// # Example
    ///
    /// ```
    /// use capsacc_fixed::ExpLut;
    /// let lut = ExpLut::default();
    /// let c = lut.softmax(&[0, 0, 0, 0]);
    /// // Uniform logits → uniform coefficients of 1/4 = 32 in Q0.7.
    /// assert_eq!(c, vec![32, 32, 32, 32]);
    /// ```
    pub fn softmax(&self, logits: &[i8]) -> Vec<i8> {
        assert!(!logits.is_empty(), "softmax over an empty vector");
        let max = *logits.iter().max().expect("non-empty");
        let exps: Vec<u32> = logits
            .iter()
            .map(|&b| u32::from(self.lookup(b.saturating_sub(max))))
            .collect();
        let sum: u64 = exps.iter().map(|&e| u64::from(e)).sum();
        exps.iter()
            .map(|&e| {
                // Divider: round-to-nearest c = e / sum in Q0.7.
                let num = u64::from(e) << NumericConfig::COUPLING_FRAC;
                let c = (num + sum / 2) / sum;
                c.min(u64::from(i8::MAX as u8)) as i8
            })
            .collect()
    }

    /// Maximum relative error of the LUT on the non-positive half of its
    /// domain (the half exercised after max-subtraction).
    pub fn max_relative_error(&self) -> f32 {
        let mut worst = 0f32;
        for raw in i8::MIN..=0 {
            let x = raw as f32 / (1u32 << NumericConfig::LOGIT_FRAC) as f32;
            let exact = x.exp();
            let got = self.lookup(raw) as f32 / (1u32 << NumericConfig::EXP_FRAC) as f32;
            if exact > 1e-3 {
                worst = worst.max((exact - got).abs() / exact);
            }
        }
        worst
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn lut() -> ExpLut {
        ExpLut::default()
    }

    #[test]
    fn exp_zero_is_one() {
        assert_eq!(lut().lookup(0), 1 << 12);
    }

    #[test]
    fn monotone_nondecreasing() {
        let l = lut();
        for raw in i8::MIN..i8::MAX {
            assert!(l.lookup(raw) <= l.lookup(raw + 1), "not monotone at {raw}");
        }
    }

    #[test]
    fn positive_tail_saturates() {
        // exp(7.94) ≈ 2810 → Q4.12 would need 23 bits; saturates at u16::MAX.
        assert_eq!(lut().lookup(i8::MAX), u16::MAX);
    }

    #[test]
    fn negative_tail_underflows_to_zero() {
        // exp(-8) ≈ 3.4e-4 → Q4.12 code round(1.37) = 1.
        assert!(lut().lookup(i8::MIN) <= 1);
    }

    #[test]
    fn relative_error_small_on_used_half() {
        assert!(lut().max_relative_error() < 0.15); // dominated by the tiny tail codes
    }

    #[test]
    fn softmax_uniform() {
        let c = lut().softmax(&[5, 5, 5, 5, 5]);
        // 1/5 = 0.2 → Q0.7 ≈ 26 (25.6 rounds to 26).
        for v in c {
            assert!((25..=26).contains(&v), "got {v}");
        }
    }

    #[test]
    fn softmax_ten_way_uniform_matches_routing_init() {
        // The optimized routing initializes c_ij = 1/10 directly; the
        // softmax of all-zero logits must give the same codes.
        let c = lut().softmax(&[0; 10]);
        for v in &c {
            assert!((12..=13).contains(v), "got {v}"); // 12.8 rounds to 13
        }
    }

    #[test]
    fn softmax_picks_the_peak() {
        let c = lut().softmax(&[0, 0, 64, 0]); // logit 4.0 dominates
        let argmax = c
            .iter()
            .enumerate()
            .max_by_key(|(_, &v)| v)
            .map(|(i, _)| i)
            .expect("non-empty");
        assert_eq!(argmax, 2);
        assert!(c[2] > 100); // > 0.78 in Q0.7
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn softmax_empty_panics() {
        lut().softmax(&[]);
    }

    #[test]
    fn softmax_invariant_to_logit_shift() {
        // Softmax(b) == softmax(b + k): max-subtraction guarantees it
        // exactly in fixed point (as long as no saturating_sub clamps).
        let l = lut();
        let a = l.softmax(&[-10, 0, 10, 20]);
        let b = l.softmax(&[-30, -20, -10, 0]);
        assert_eq!(a, b);
    }

    proptest! {
        #[test]
        fn softmax_sums_to_about_one(logits in proptest::collection::vec(any::<i8>(), 1..16)) {
            let c = lut().softmax(&logits);
            let sum: i32 = c.iter().map(|&v| v as i32).sum();
            // Q0.7 "one" is 128; rounding each of ≤16 terms can drift by
            // half an LSB each.
            prop_assert!((sum - 128).abs() <= 8, "sum = {sum}");
        }

        #[test]
        fn softmax_outputs_nonnegative(logits in proptest::collection::vec(any::<i8>(), 1..16)) {
            for v in lut().softmax(&logits) {
                prop_assert!(v >= 0);
            }
        }

        #[test]
        fn softmax_preserves_order(logits in proptest::collection::vec(any::<i8>(), 2..10)) {
            let c = lut().softmax(&logits);
            for i in 0..logits.len() {
                for j in 0..logits.len() {
                    if logits[i] > logits[j] {
                        prop_assert!(c[i] >= c[j]);
                    }
                }
            }
        }
    }
}
