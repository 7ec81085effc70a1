//! The processing element (Fig. 11b of the paper).

/// Which weight register feeds the multiplier.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum WeightSelect {
    /// The streaming register `Weight1` (fully-connected style: weights
    /// flow down every cycle).
    #[default]
    Stream,
    /// The resident register `Weight2` (convolutional reuse: "the same
    /// weight of the filter must be convolved across different data",
    /// Sec. IV-A).
    Held,
}

/// Per-cycle control signals for one PE. The array's control unit
/// drives each PE's lines separately: tile loads and latches follow
/// the data wavefront, so neighbouring PEs see different controls on
/// the same edge.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PeControl {
    /// Multiplier weight source.
    pub select: WeightSelect,
    /// Latch `Weight1` into `Weight2` at the end of this cycle (asserted
    /// once per tile when establishing a resident filter). The latch
    /// copies `Weight1` as it was before the edge.
    pub latch_weight2: bool,
    /// Keep `Weight1` instead of shifting in the weight from above: the
    /// next tile's weight waits in place until this PE latches it.
    pub hold_weight1: bool,
}

/// Combinational inputs of a PE for one cycle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PeInput {
    /// Data arriving from the left neighbour (or the array's west edge).
    pub data: i8,
    /// Weight arriving from above (or the array's north edge).
    pub weight: i8,
    /// Partial sum arriving from above (zero at the first row — the
    /// "Null" inputs of Fig. 10).
    pub psum: i64,
}

/// Registered outputs of a PE, visible to its neighbours next cycle.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct PeOutput {
    /// Data forwarded to the right neighbour.
    pub data: i8,
    /// Weight forwarded to the neighbour below.
    pub weight: i8,
    /// Partial sum forwarded to the neighbour below (25-bit saturated).
    pub psum: i64,
}

/// One processing element: an 8×8-bit multiplier, a 25-bit adder, and
/// four registers (Data, Weight1, Weight2, Partial-sum), exactly as in
/// Fig. 11b.
///
/// # Example
///
/// ```
/// use capsacc_core::{Pe, PeControl, PeInput};
/// let mut pe = Pe::new();
/// // Cycle 1: the weight 5 flows in and lands in Weight1.
/// let out = pe.tick(PeInput { data: 0, weight: 5, psum: 0 }, PeControl::default());
/// assert_eq!(out.psum, 0); // outputs are registered
/// // Cycle 2: data 3 multiplies the stored weight and accumulates.
/// pe.tick(PeInput { data: 3, weight: 0, psum: 100 }, PeControl::default());
/// // Cycle 3: the MAC result is visible downstream.
/// let out = pe.tick(PeInput::default(), PeControl::default());
/// assert_eq!(out.psum, 100 + 3 * 5);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct Pe {
    data_reg: i8,
    weight1_reg: i8,
    weight2_reg: i8,
    psum_reg: i64,
}

impl Pe {
    /// Width of the partial-sum datapath (25 bits, Sec. IV-A).
    pub const PSUM_BITS: u32 = 25;

    /// The PE's MAC datapath as a pure function: one 8×8-bit multiply
    /// folded into an incoming partial sum through the 25-bit saturating
    /// adder. This is the *single* definition of the per-step arithmetic
    /// — [`Pe::tick`] calls it for the ticked array, and the engine's
    /// `Functional` backend applies it in the same fixed north→south
    /// order, which is what makes the two backends bit-identical by
    /// construction (saturation is order-sensitive, so sharing the step
    /// is not a convenience but a correctness requirement).
    #[inline]
    #[must_use]
    pub fn mac_step(psum: i64, data: i8, weight: i8) -> i64 {
        capsacc_fixed::saturate_to_bits(psum + i64::from(data) * i64::from(weight), Self::PSUM_BITS)
    }

    /// Creates a PE with all registers cleared.
    pub const fn new() -> Self {
        Self {
            data_reg: 0,
            weight1_reg: 0,
            weight2_reg: 0,
            psum_reg: 0,
        }
    }

    /// Advances one clock edge: computes the MAC from this cycle's
    /// inputs, commits all four registers, and returns the outputs that
    /// become visible to neighbours *next* cycle (i.e. the register
    /// values from *before* this edge — standard synchronous semantics).
    pub fn tick(&mut self, input: PeInput, ctrl: PeControl) -> PeOutput {
        let out = PeOutput {
            data: self.data_reg,
            weight: self.weight1_reg,
            psum: self.psum_reg,
        };
        let w = match ctrl.select {
            WeightSelect::Stream => self.weight1_reg,
            WeightSelect::Held => self.weight2_reg,
        };
        self.psum_reg = Self::mac_step(input.psum, input.data, w);
        self.data_reg = input.data;
        if ctrl.latch_weight2 {
            self.weight2_reg = self.weight1_reg;
        }
        if !ctrl.hold_weight1 {
            self.weight1_reg = input.weight;
        }
        out
    }

    /// Current resident (`Weight2`) register value.
    pub fn held_weight(&self) -> i8 {
        self.weight2_reg
    }

    /// Current streaming (`Weight1`) register value.
    pub fn streaming_weight(&self) -> i8 {
        self.weight1_reg
    }

    /// Current partial-sum register value.
    pub fn psum(&self) -> i64 {
        self.psum_reg
    }

    /// Clears all registers.
    pub fn reset(&mut self) {
        *self = Self::new();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn outputs_are_registered() {
        let mut pe = Pe::new();
        let o1 = pe.tick(
            PeInput {
                data: 7,
                weight: 9,
                psum: 0,
            },
            PeControl::default(),
        );
        assert_eq!(o1, PeOutput::default());
        let o2 = pe.tick(PeInput::default(), PeControl::default());
        // Data and weight forwarded; MAC used weight1 (which was 0 when
        // the multiply happened — the weight arrives *this* edge).
        assert_eq!(o2.data, 7);
        assert_eq!(o2.weight, 9);
        assert_eq!(o2.psum, 0); // 7 * weight1(=0) + 0
    }

    #[test]
    fn stream_mac_uses_previously_loaded_weight() {
        let mut pe = Pe::new();
        // Cycle 1: weight 5 enters (stored into weight1 at the edge).
        pe.tick(
            PeInput {
                data: 0,
                weight: 5,
                psum: 0,
            },
            PeControl::default(),
        );
        // Cycle 2: data 3 multiplies the stored weight 5.
        pe.tick(
            PeInput {
                data: 3,
                weight: 0,
                psum: 10,
            },
            PeControl::default(),
        );
        // Cycle 3: result visible.
        let o = pe.tick(PeInput::default(), PeControl::default());
        assert_eq!(o.psum, 25);
    }

    #[test]
    fn held_weight_survives_streaming() {
        let mut pe = Pe::new();
        // Load 11 into weight1, then latch it into weight2.
        pe.tick(
            PeInput {
                data: 0,
                weight: 11,
                psum: 0,
            },
            PeControl::default(),
        );
        pe.tick(
            PeInput {
                data: 0,
                weight: 99, // new stream value, must not disturb weight2
                psum: 0,
            },
            PeControl {
                latch_weight2: true,
                ..PeControl::default()
            },
        );
        assert_eq!(pe.held_weight(), 11);
        assert_eq!(pe.streaming_weight(), 99);
        // MAC against the held weight while different weights stream by.
        pe.tick(
            PeInput {
                data: 4,
                weight: 50,
                psum: 0,
            },
            PeControl {
                select: WeightSelect::Held,
                ..PeControl::default()
            },
        );
        let o = pe.tick(PeInput::default(), PeControl::default());
        assert_eq!(o.psum, 44);
        assert_eq!(pe.held_weight(), 11);
    }

    #[test]
    fn held_weight1_waits_for_its_latch() {
        // The next tile's weight parks in Weight1 while the resident
        // Weight2 keeps multiplying, then one edge latches it and
        // multiplies with the old Weight2 on that same edge.
        let mut pe = Pe::new();
        let held = |latch_weight2| PeControl {
            select: WeightSelect::Held,
            latch_weight2,
            hold_weight1: !latch_weight2,
        };
        pe.tick(
            PeInput {
                data: 0,
                weight: 3,
                psum: 0,
            },
            PeControl::default(),
        );
        pe.tick(PeInput::default(), held(true)); // Weight2 = 3
        pe.tick(
            PeInput {
                data: 0,
                weight: 7,
                psum: 0,
            },
            PeControl::default(),
        );
        pe.tick(
            PeInput {
                data: 2,
                weight: 99,
                psum: 0,
            },
            held(false),
        );
        assert_eq!(
            (pe.streaming_weight(), pe.held_weight(), pe.psum()),
            (7, 3, 6)
        );
        pe.tick(
            PeInput {
                data: 5,
                weight: 0,
                psum: 0,
            },
            held(true),
        );
        assert_eq!((pe.held_weight(), pe.psum()), (7, 15));
    }

    #[test]
    fn psum_saturates_at_25_bits() {
        let mut pe = Pe::new();
        let max25 = (1i64 << 24) - 1;
        pe.tick(
            PeInput {
                data: 127,
                weight: 0,
                psum: max25,
            },
            PeControl::default(),
        );
        // data * weight1(=0) + max25 = max25: no saturation yet.
        assert_eq!(pe.psum(), max25);
        // Now push it over: 127·127 + max25 saturates.
        let mut pe = Pe::new();
        pe.tick(
            PeInput {
                data: 0,
                weight: 127,
                psum: 0,
            },
            PeControl::default(),
        );
        pe.tick(
            PeInput {
                data: 127,
                weight: 0,
                psum: max25,
            },
            PeControl::default(),
        );
        assert_eq!(pe.psum(), max25);
    }

    #[test]
    fn reset_clears_everything() {
        let mut pe = Pe::new();
        pe.tick(
            PeInput {
                data: 1,
                weight: 2,
                psum: 3,
            },
            PeControl {
                latch_weight2: true,
                ..PeControl::default()
            },
        );
        pe.reset();
        assert_eq!(pe, Pe::new());
    }

    proptest! {
        #[test]
        fn mac_step_is_the_saturating_fold(
            d in any::<i8>(), w in any::<i8>(), p in -(1i64<<24)..(1i64<<24)
        ) {
            // The shared datapath step equals the library clamp — and is
            // what `tick` commits into the psum register.
            let want = capsacc_fixed::saturate_to_bits(
                p + d as i64 * w as i64, Pe::PSUM_BITS);
            prop_assert_eq!(Pe::mac_step(p, d, w), want);
            let mut pe = Pe::new();
            pe.tick(PeInput { data: 0, weight: w, psum: 0 }, PeControl::default());
            pe.tick(PeInput { data: d, weight: 0, psum: p }, PeControl::default());
            prop_assert_eq!(pe.psum(), Pe::mac_step(p, d, w));
        }

        #[test]
        fn mac_arithmetic_exact_when_unsaturated(
            d in any::<i8>(), w in any::<i8>(), p in -(1i64<<23)..(1i64<<23)
        ) {
            let mut pe = Pe::new();
            // Preload weight1 = w.
            pe.tick(PeInput { data: 0, weight: w, psum: 0 }, PeControl::default());
            pe.tick(PeInput { data: d, weight: 0, psum: p }, PeControl::default());
            let exact = (p + d as i64 * w as i64)
                .clamp(-(1i64 << 24), (1i64 << 24) - 1);
            prop_assert_eq!(pe.psum(), exact);
        }
    }
}
