//! The systolic array (Fig. 11a of the paper).

use crate::pe::{Pe, PeControl, PeInput, PeOutput};
use capsacc_tensor::{u64_from, usize_from};

/// Outputs visible at the array edges after a clock edge.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct ArrayOutput {
    /// Data leaving the east edge (one per row) — the horizontal feedback
    /// path taps these during routing (Fig. 12c/d).
    pub data_east: Vec<i8>,
    /// Partial sums leaving the south edge (one per column), feeding the
    /// accumulator units.
    pub psum_south: Vec<i64>,
    /// Weights leaving the south edge (unconnected in hardware, exposed
    /// for testing).
    pub weight_south: Vec<i8>,
}

/// An `rows × cols` grid of [`Pe`]s with the paper's interconnect: data
/// flows west→east, weights and partial sums flow north→south, and the
/// first row's partial-sum inputs are hardwired to zero (the "Null"
/// blocks of Fig. 10).
///
/// # Example
///
/// ```
/// use capsacc_core::SystolicArray;
/// let mut arr = SystolicArray::new(2, 2);
/// // Preload a 2×2 weight tile held in the PEs, then stream data.
/// arr.load_weights(&[&[1, 2], &[3, 4]]);
/// let outs = arr.stream(&[vec![10, 20]]);
/// // Output column c = Σ_r data[r] · w[r][c].
/// assert_eq!(outs[0], vec![10 * 1 + 20 * 3, 10 * 2 + 20 * 4]);
/// ```
#[derive(Clone, Debug)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    pes: Vec<Pe>,
    cycles: u64,
    edge: EdgeBuffers,
    feed: FeedBuffers,
}

/// Reusable per-edge wavefront and edge-output buffers. In hardware
/// these are wires, not state: hoisting them out of [`SystolicArray::
/// tick`]'s body removes five heap allocations per clock edge from the
/// hot loop without changing a single observable value.
#[derive(Clone, Debug, Default)]
struct EdgeBuffers {
    weight_down: Vec<i8>,
    psum_down: Vec<i64>,
    data_east: Vec<i8>,
    psum_south: Vec<i64>,
    weight_south: Vec<i8>,
}

/// Reusable west/north edge-input staging buffers for
/// [`SystolicArray::stream`] and [`SystolicArray::load_weights`]
/// (`west`/`wrow`/`zeros` used to be rebuilt per call).
#[derive(Clone, Debug, Default)]
struct FeedBuffers {
    west: Vec<i8>,
    north: Vec<i8>,
}

/// Scratch buffers are wires, not architectural state: equality is the
/// PE registers plus the cycle counter, so a freshly built array
/// compares equal to a reset one regardless of scratch history.
impl PartialEq for SystolicArray {
    fn eq(&self, other: &Self) -> bool {
        self.rows == other.rows
            && self.cols == other.cols
            && self.pes == other.pes
            && self.cycles == other.cycles
    }
}

impl Eq for SystolicArray {}

/// Advances the whole PE grid one clock edge, writing the edge outputs
/// into `edge` (a free function over disjoint field borrows so the
/// callers can stage inputs in their own reusable buffers).
fn tick_edge(
    rows: usize,
    cols: usize,
    pes: &mut [Pe],
    data_west: &[i8],
    weight_north: &[i8],
    ctrl: PeControl,
    edge: &mut EdgeBuffers,
) {
    assert_eq!(data_west.len(), rows, "west data width");
    assert_eq!(weight_north.len(), cols, "north weight width");
    edge.data_east.resize(rows, 0);
    edge.psum_south.resize(cols, 0);
    edge.weight_south.resize(cols, 0);
    // Per-column wavefronts flowing south within this cycle.
    edge.weight_down.clear();
    edge.weight_down.extend_from_slice(weight_north);
    edge.psum_down.clear();
    edge.psum_down.resize(cols, 0);

    for r in 0..rows {
        // Per-row wavefront flowing east within this cycle.
        let mut data_right = data_west[r];
        for c in 0..cols {
            let out: PeOutput = pes[r * cols + c].tick(
                PeInput {
                    data: data_right,
                    weight: edge.weight_down[c],
                    psum: edge.psum_down[c],
                },
                ctrl,
            );
            data_right = out.data;
            edge.weight_down[c] = out.weight;
            edge.psum_down[c] = out.psum;
            if c == cols - 1 {
                edge.data_east[r] = out.data;
            }
            if r == rows - 1 {
                edge.psum_south[c] = out.psum;
                edge.weight_south[c] = out.weight;
            }
        }
    }
}

impl SystolicArray {
    /// Creates an array with all PE registers cleared.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(rows: usize, cols: usize) -> Self {
        assert!(rows > 0 && cols > 0, "array dimensions must be non-zero");
        Self {
            rows,
            cols,
            pes: vec![Pe::new(); rows * cols],
            cycles: 0,
            edge: EdgeBuffers::default(),
            feed: FeedBuffers::default(),
        }
    }

    /// Array height (the reduction dimension).
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Array width (the output dimension).
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Clock edges executed since construction or [`reset`](Self::reset).
    pub fn cycles(&self) -> u64 {
        self.cycles
    }

    /// Clears every PE register and the cycle counter.
    pub fn reset(&mut self) {
        for pe in &mut self.pes {
            pe.reset();
        }
        self.cycles = 0;
    }

    /// Clock edges one [`load_weights`](Self::load_weights) call
    /// consumes: `rows` skewed weight rows plus the latch edge. The
    /// ticked loader executes it and telemetry's replayed tile spans
    /// read it; the charge prices the same edges through
    /// [`MatmulGeometry::array_cycles`](crate::MatmulGeometry::array_cycles).
    pub fn load_edges(&self) -> u64 {
        u64_from(self.rows) + 1
    }

    /// Clock edges one [`stream`](Self::stream) call consumes for `m`
    /// data rows: skewed injection plus pipeline drain. The ticked
    /// streamer executes exactly this many edges and telemetry's
    /// replayed tile spans read it; the charge prices the same edges
    /// through
    /// [`MatmulGeometry::array_cycles`](crate::MatmulGeometry::array_cycles).
    pub fn stream_edges(&self, m: usize) -> u64 {
        u64_from(m + self.rows + self.cols)
    }

    /// Advances the whole array one clock edge.
    ///
    /// `data_west[r]` enters row `r` from the west; `weight_north[c]`
    /// enters column `c` from the north; `ctrl` is broadcast to every PE
    /// (the control unit drives these lines globally).
    ///
    /// Raster-order evaluation is cycle-exact: [`Pe::tick`] returns the
    /// *pre-edge* register values, which are precisely what each
    /// neighbour must observe during the same cycle.
    ///
    /// # Panics
    ///
    /// Panics if the input slices do not match the array dimensions.
    pub fn tick(&mut self, data_west: &[i8], weight_north: &[i8], ctrl: PeControl) -> ArrayOutput {
        self.cycles += 1;
        tick_edge(
            self.rows,
            self.cols,
            &mut self.pes,
            data_west,
            weight_north,
            ctrl,
            &mut self.edge,
        );
        ArrayOutput {
            data_east: self.edge.data_east.clone(),
            psum_south: self.edge.psum_south.clone(),
            weight_south: self.edge.weight_south.clone(),
        }
    }

    /// Loads a weight tile into the resident (`Weight2`) registers: rows
    /// are streamed south in reverse order (`tile.len()` edges), then one
    /// latch edge copies `Weight1 → Weight2` across the array.
    ///
    /// Returns the number of clock edges consumed (`tile.len() + 1`).
    ///
    /// # Panics
    ///
    /// Panics if the tile is taller than the array or a row is wider than
    /// the array (narrower tiles are zero-padded).
    pub fn load_weights(&mut self, tile: &[&[i8]]) -> u64 {
        let k = tile.len();
        assert!(k <= self.rows, "weight tile taller than the array");
        let edges = self.load_edges();
        let Self {
            rows,
            cols,
            pes,
            cycles,
            edge,
            feed,
        } = self;
        let (rows, cols) = (*rows, *cols);
        feed.west.clear();
        feed.west.resize(rows, 0); // all-zero west edge during loads
        feed.north.resize(cols, 0);
        // Rows enter in reverse so row r settles in PE row r. If the tile
        // is shorter than the array, unused rows receive zeros first.
        for t in 0..rows {
            feed.north.fill(0);
            if rows - 1 - t < k {
                let src = tile[rows - 1 - t];
                assert!(src.len() <= cols, "weight tile wider than the array");
                feed.north[..src.len()].copy_from_slice(src);
            }
            *cycles += 1;
            tick_edge(
                rows,
                cols,
                pes,
                &feed.west,
                &feed.north,
                PeControl::default(),
                edge,
            );
        }
        feed.north.fill(0);
        *cycles += 1;
        tick_edge(
            rows,
            cols,
            pes,
            &feed.west,
            &feed.north,
            PeControl {
                latch_weight2: true,
                ..PeControl::default()
            },
            edge,
        );
        edges
    }

    /// Streams data rows through the array against the resident weights
    /// and collects the de-skewed output matrix: `out[m][c] = Σ_r
    /// data[m][r] · w2[r][c]` (zero-padded where a row is shorter than
    /// the array).
    ///
    /// Consumes `M + rows + cols` clock edges (skewed injection plus
    /// pipeline drain).
    ///
    /// # Panics
    ///
    /// Panics if any data row is wider than the array.
    pub fn stream(&mut self, data: &[Vec<i8>]) -> Vec<Vec<i64>> {
        use crate::pe::WeightSelect;
        let m = data.len();
        let mut out = vec![vec![0i64; self.cols]; m];
        let ctrl = PeControl {
            select: WeightSelect::Held,
            latch_weight2: false,
        };
        let total_edges = usize_from(self.stream_edges(m));
        let Self {
            rows,
            cols,
            pes,
            cycles,
            edge,
            feed,
        } = self;
        let (rows, cols) = (*rows, *cols);
        feed.north.clear();
        feed.north.resize(cols, 0); // weights held, nothing streams north
        feed.west.resize(rows, 0);
        for s in 0..total_edges {
            for (r, w) in feed.west.iter_mut().enumerate() {
                // Skewed injection: row r sees data row (s - r).
                *w = if s >= r && s - r < m {
                    let row = &data[s - r];
                    if r < row.len() {
                        row[r]
                    } else {
                        0
                    }
                } else {
                    0
                };
            }
            *cycles += 1;
            tick_edge(rows, cols, pes, &feed.west, &feed.north, ctrl, edge);
            // The psum visible at the south edge of column c on edge s
            // belongs to data row m = s - rows - c.
            for (c, &psum) in edge.psum_south.iter().enumerate() {
                if s >= rows + c {
                    let mm = s - rows - c;
                    if mm < m {
                        out[mm][c] = psum;
                    }
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn single_pe_matmul() {
        let mut arr = SystolicArray::new(1, 1);
        arr.load_weights(&[&[3]]);
        let out = arr.stream(&[vec![5], vec![-2]]);
        assert_eq!(out, vec![vec![15], vec![-6]]);
    }

    #[test]
    fn identity_weights_pass_data() {
        let mut arr = SystolicArray::new(3, 3);
        let id: Vec<Vec<i8>> = (0..3)
            .map(|r| (0..3).map(|c| i8::from(r == c)).collect())
            .collect();
        let id_refs: Vec<&[i8]> = id.iter().map(|r| r.as_slice()).collect();
        arr.load_weights(&id_refs);
        let out = arr.stream(&[vec![7, -8, 9]]);
        assert_eq!(out, vec![vec![7, -8, 9]]);
    }

    #[test]
    fn matches_reference_matmul_4x4() {
        let (rows, cols, m) = (4, 4, 6);
        let w: Vec<Vec<i8>> = (0..rows)
            .map(|r| (0..cols).map(|c| (r * 7 + c * 3) as i8 - 10).collect())
            .collect();
        let d: Vec<Vec<i8>> = (0..m)
            .map(|i| (0..rows).map(|k| (i * 5 + k) as i8 - 7).collect())
            .collect();
        let mut arr = SystolicArray::new(rows, cols);
        let wrefs: Vec<&[i8]> = w.iter().map(|r| r.as_slice()).collect();
        arr.load_weights(&wrefs);
        let out = arr.stream(&d);
        for (i, row) in out.iter().enumerate() {
            for c in 0..cols {
                let exact: i64 = (0..rows).map(|k| d[i][k] as i64 * w[k][c] as i64).sum();
                assert_eq!(row[c], exact, "mismatch at ({i}, {c})");
            }
        }
    }

    #[test]
    fn short_tiles_are_zero_padded() {
        let mut arr = SystolicArray::new(4, 4);
        // 2-row, 3-col tile in a 4×4 array.
        arr.load_weights(&[&[1, 2, 3], &[4, 5, 6]]);
        let out = arr.stream(&[vec![1, 1]]);
        assert_eq!(out[0], vec![5, 7, 9, 0]);
    }

    #[test]
    fn cycle_counting() {
        let mut arr = SystolicArray::new(4, 4);
        let row: &[i8] = &[1, 2, 3, 4];
        let load = arr.load_weights(&[row, row, row, row]);
        assert_eq!(load, 5); // rows + 1 latch
        assert_eq!(arr.cycles(), 5);
        arr.stream(&vec![vec![0, 0, 0, 0]; 3]);
        assert_eq!(arr.cycles(), 5 + 3 + 4 + 4);
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut arr = SystolicArray::new(2, 2);
        arr.load_weights(&[&[9, 9], &[9, 9]]);
        arr.reset();
        assert_eq!(arr.cycles(), 0);
        let out = arr.stream(&[vec![5, 5]]);
        assert_eq!(out[0], vec![0, 0]);
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // The hoisted edge/feed buffers must not leak state between
        // calls: a long-used array equals a fresh one after reset, and
        // repeated identical streams produce identical outputs.
        let mut used = SystolicArray::new(3, 3);
        used.load_weights(&[&[1, 2, 3], &[4, 5, 6], &[7, 8, 9]]);
        let a = used.stream(&[vec![1, -2, 3], vec![4, 5, -6]]);
        let b = used.stream(&[vec![1, -2, 3], vec![4, 5, -6]]);
        assert_eq!(a, b);
        used.reset();
        assert_eq!(used, SystolicArray::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "taller than the array")]
    fn oversized_tile_rejected() {
        let mut arr = SystolicArray::new(2, 2);
        arr.load_weights(&[&[1, 1], &[1, 1], &[1, 1]]);
    }

    #[test]
    fn consecutive_streams_reuse_held_weights() {
        // The convolutional reuse pattern: load once, stream many times.
        let mut arr = SystolicArray::new(2, 2);
        arr.load_weights(&[&[2, 0], &[0, 2]]);
        let a = arr.stream(&[vec![3, 4]]);
        let b = arr.stream(&[vec![5, 6]]);
        assert_eq!(a[0], vec![6, 8]);
        assert_eq!(b[0], vec![10, 12]);
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(32))]
        #[test]
        fn random_tiles_match_reference(
            rows in 1usize..5, cols in 1usize..5, m in 1usize..6, seed in any::<u64>()
        ) {
            let mut s = seed | 1;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as i8
            };
            let w: Vec<Vec<i8>> = (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
            let d: Vec<Vec<i8>> = (0..m).map(|_| (0..rows).map(|_| next()).collect()).collect();
            let mut arr = SystolicArray::new(rows, cols);
            let wrefs: Vec<&[i8]> = w.iter().map(|r| r.as_slice()).collect();
            arr.load_weights(&wrefs);
            let out = arr.stream(&d);
            for i in 0..m {
                for c in 0..cols {
                    let exact: i64 = (0..rows).map(|k| d[i][k] as i64 * w[k][c] as i64).sum();
                    prop_assert_eq!(out[i][c], exact);
                }
            }
        }
    }
}
