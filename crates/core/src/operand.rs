//! Borrowed operand views of the engine's internal matmul path.
//!
//! Both matmul operands reach the array through affine address
//! generators — the software analogue of the Data and Weight Buffers'
//! address units — instead of per-element callbacks. One description
//! per operand covers every mapping the network needs:
//!
//! - [`DataView`]: image `img`'s element `(m, k)` is
//!   `src[img][rows[m] + cols[k]]`. im2col is the
//!   `patch_origins`/`tap_offsets` table pair; the ClassCaps FC
//!   capsule vectors, the routing couplings and the `û` rows are
//!   one-row or strided tables over their flat tensors.
//! - [`WeightView`]: element `(k, n)` is `src[k·ks + n·ns]`. The
//!   `[out_ch][patch]` conv weights and the `W_ij` blocks have `ks = 1`;
//!   routing's `û` is strided by `classes·out_dim`, and the broadcast
//!   `v_j` has `ns = 0`.
//!
//! Staging reads the views directly: the functional backend gathers its
//! data panel and packs its K-tiles straight from them, and the ticked
//! backend feeds the array from the same two descriptions.

/// The data operand of a batched matmul: image `img`'s element
/// `(m, k)` is `src[img][rows[m] + cols[k]]`. The batch size, `M` and
/// `K` are the lengths of `src`, `rows` and `cols`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct DataView<'a> {
    /// One flat source buffer per image.
    pub src: &'a [&'a [i8]],
    /// Base offset of each data row (`M` entries).
    pub rows: &'a [usize],
    /// Offset of each reduction column within a row (`K` entries).
    pub cols: &'a [usize],
}

impl<'a> DataView<'a> {
    /// Images in the batch.
    pub fn batch(&self) -> usize {
        self.src.len()
    }

    /// Data rows per image (`M`).
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// Reduction length (`K`).
    pub fn k(&self) -> usize {
        self.cols.len()
    }

    /// Image `img`'s element `(m, k)`, reading its source `off`
    /// elements further in.
    #[inline]
    pub fn at(&self, off: usize, img: usize, m: usize, k: usize) -> i8 {
        self.src[img][off + self.rows[m] + self.cols[k]]
    }

    /// The whole batch's rows in panel order, image-major (row
    /// `img·M + m`), each as its `K` elements, reading every source
    /// `off` elements further in: what the functional backend gathers
    /// into its data panel (`kernel::Staging::gather`, which encodes
    /// them).
    pub fn panel_rows(
        &self,
        off: usize,
    ) -> impl Iterator<Item = impl Iterator<Item = i8> + 'a> + 'a {
        let (rows, cols) = (self.rows, self.cols);
        self.src.iter().flat_map(move |&src| {
            rows.iter().map(move |&base| {
                let row = &src[off + base..];
                cols.iter().map(move |&c| row[c])
            })
        })
    }
}

/// The weight operand of a matmul: element `(k, n)` is
/// `src[k·ks + n·ns]`.
#[derive(Copy, Clone, Debug)]
pub(crate) struct WeightView<'a> {
    /// The flat source buffer.
    pub src: &'a [i8],
    /// Stride between reduction rows.
    pub ks: usize,
    /// Stride between output columns (`0` broadcasts one column).
    pub ns: usize,
}

impl WeightView<'_> {
    /// Element `(k, n)`.
    #[inline]
    pub fn at(&self, k: usize, n: usize) -> i8 {
        self.src[k * self.ks + n * self.ns]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn views_address_their_sources() {
        let a: Vec<i8> = (0..12).collect();
        let b: Vec<i8> = (20..32).collect();
        let src = [a.as_slice(), b.as_slice()];
        // A 2×3 window with row stride 4 and column stride 2.
        let data = DataView {
            src: &src,
            rows: &[1, 5],
            cols: &[0, 2, 4],
        };
        assert_eq!((data.batch(), data.m(), data.k()), (2, 2, 3));
        assert_eq!(data.at(0, 0, 1, 2), 9);
        assert_eq!(data.at(0, 1, 0, 1), 23);
        assert_eq!(data.at(2, 1, 0, 1), 25);
        let panel = |off| -> Vec<i8> { data.panel_rows(off).flatten().collect() };
        assert_eq!(panel(0), [1, 3, 5, 5, 7, 9, 21, 23, 25, 25, 27, 29]);
        assert_eq!(panel(2), [3, 5, 7, 7, 9, 11, 23, 25, 27, 27, 29, 31]);

        let w = WeightView {
            src: &a,
            ks: 1,
            ns: 3,
        };
        assert_eq!((w.at(2, 0), w.at(1, 3)), (2, 10));
        let broadcast = WeightView {
            src: &a[4..],
            ks: 1,
            ns: 0,
        };
        assert_eq!((broadcast.at(1, 0), broadcast.at(1, 5)), (5, 5));
    }
}
