//! The systolic array (Fig. 11a of the paper).

use std::collections::VecDeque;

use crate::pe::{Pe, PeControl, PeInput, PeOutput, WeightSelect};
use capsacc_tensor::{u64_from, usize_from};

/// An `rows × cols` grid of [`Pe`]s with the paper's interconnect: data
/// flows west→east, weights and partial sums flow north→south, and the
/// first row's partial-sum inputs are hardwired to zero (the "Null"
/// blocks of Fig. 10). [`TileRun`] drives it through a sequence of
/// weight tiles.
///
/// # Example
///
/// ```
/// use capsacc_core::{SystolicArray, TileRun};
/// let mut arr = SystolicArray::new(2, 2);
/// // One 2×2 weight tile held in the PEs, one data row streamed.
/// let w = [[1, 2], [3, 4]];
/// let mut run = TileRun::new(&arr, 1, 1, false);
/// let outs = run.next_tile(&mut arr, |_, r, c| w[r][c], |_, _, r| [10, 20][r]);
/// // Output column c = Σ_r data[r] · w[r][c].
/// assert_eq!(outs, Some(&[10 * 1 + 20 * 3, 10 * 2 + 20 * 4][..]));
/// ```
#[derive(Clone, Debug)]
pub struct SystolicArray {
    rows: usize,
    cols: usize,
    pes: Vec<Pe>,
    cycles: u64,
    edge: EdgeBuffers,
}

/// Reusable per-edge wavefront buffers and the partial sums leaving the
/// south edge, which feed the accumulator units. In hardware these are
/// wires, not state: hoisting them out of the edge loop removes the heap
/// allocations per clock edge without changing a single observable
/// value.
#[derive(Clone, Debug, Default)]
struct EdgeBuffers {
    weight_down: Vec<i8>,
    psum_down: Vec<i64>,
    psum_south: Vec<i64>,
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

/// Advances the whole PE grid one clock edge, writing the south-edge
/// partial sums into `edge`: `data_west[r]` enters row `r` from the
/// west, `weight_north[c]` enters column `c` from the north, and
/// `ctrl(r, c)` is PE `(r, c)`'s control for the edge (a free function
/// over disjoint field borrows so the caller can stage inputs in its own
/// reusable buffers). Raster-order evaluation is cycle-exact:
/// [`Pe::tick`] returns the *pre-edge* register values, which are
/// precisely what each neighbour must observe during the same cycle.
fn tick_edge(
    rows: usize,
    cols: usize,
    pes: &mut [Pe],
    data_west: &[i8],
    weight_north: &[i8],
    ctrl: impl Fn(usize, usize) -> PeControl,
    edge: &mut EdgeBuffers,
) {
    assert_eq!(data_west.len(), rows, "west data width");
    assert_eq!(weight_north.len(), cols, "north weight width");
    edge.psum_south.resize(cols, 0);
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
                ctrl(r, c),
            );
            data_right = out.data;
            edge.weight_down[c] = out.weight;
            edge.psum_down[c] = out.psum;
            if r == rows - 1 {
                edge.psum_south[c] = out.psum;
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
}

/// Where one tile of a [`TileRun`] sits on the run's edge clock.
#[derive(Clone, Debug)]
struct TileSlot {
    /// The tile's index in the run.
    index: usize,
    /// Edge on which its first weight row enters column 0.
    load: u64,
    /// Edge on which its first data row reaches PE `(0, 0)`.
    stream: u64,
    /// Its output rows, row-major, `cols` wide.
    psums: Vec<i64>,
}

/// The executor of a run of weight tiles on a [`SystolicArray`]: each
/// tile is `rows × cols` weights held in the PEs' `Weight2` registers,
/// against which `m` data rows stream (Sec. IV-A).
///
/// One control sequence serves both tile schedules; the schedule only
/// sets the edge on which the next tile's load may begin. With `R`
/// rows, `C` columns and `M` data rows per tile:
///
/// - A load takes `R` edges. Column `c`'s weight rows enter from the
///   north `c` edges after column 0's, in reverse row order, so tile
///   row `r` settles in PE row `r`, skewed like the data. Each PE then
///   holds its `Weight1` until it latches it.
/// - PE `(r, c)` latches the tile into `Weight2` on the edge before the
///   tile's first data row reaches it: the latch follows the data
///   wavefront. The tile's data rows enter row `r` from the west `r`
///   edges after row 0, and output row `i` leaves column `c` at the
///   south edge `R + c` edges after it entered.
/// - The first tile's first data row reaches PE `(0, 0)` `R + 1` edges
///   after its load began, and every tile's stream window is
///   `M + R + C` edges, skewed injection plus drain.
/// - **Serial** (`pipelined == false`): the next load begins when the
///   previous tile's stream window ends, so every tile takes exactly
///   `R + 1 + M + R + C` edges.
/// - **Pipelined**: the next load begins once the previous load has
///   finished and the previous tile has latched at PE `(0, 0)`, so it
///   fills `Weight1` while the previous tile streams against
///   `Weight2`. The latch edge of each PE is the previous tile's last
///   multiply there, so tiles stream back to back every `max(M, R)`
///   edges, and a run of `n` tiles takes `R + 1 + M + (n − 1)·max(M, R)
///   + R + C` edges: one fill and one drain.
///
/// [`TileRun::next_tile`] ticks the array until the next tile's outputs
/// have all left the south edge; the run's edge count is
/// `MatmulGeometry::run_cycles` of its tiles, which the engine asserts.
#[derive(Debug)]
pub struct TileRun {
    rows: u64,
    cols: u64,
    m: u64,
    tiles: usize,
    pipelined: bool,
    /// The next edge to execute, counted from the run's start.
    edge: u64,
    /// The next tile to load, with its load and stream edges.
    next: (usize, u64, u64),
    /// The tiles between their load's start and the end of their
    /// stream window, oldest first.
    active: VecDeque<TileSlot>,
    /// The last completed tile's outputs, and spare output buffers.
    done: Vec<i64>,
    spare: Vec<Vec<i64>>,
    west: Vec<i8>,
    north: Vec<i8>,
    /// Per anti-diagonal `d = r + c` of the PEs: the edge from which
    /// column 0's `Weight1` holds the pending tile (column `c` holds `c`
    /// edges later), and the edge that latches it.
    diagonal: Vec<(u64, u64)>,
}

impl TileRun {
    /// A run of `tiles` tiles of `m` data rows each on `array`, under
    /// the pipelined or the serial schedule.
    pub fn new(array: &SystolicArray, tiles: usize, m: usize, pipelined: bool) -> Self {
        let rows = u64_from(array.rows);
        Self {
            rows,
            cols: u64_from(array.cols),
            m: u64_from(m),
            tiles,
            pipelined,
            edge: 0,
            next: (0, 0, rows + 1),
            active: VecDeque::new(),
            done: Vec::new(),
            spare: Vec::new(),
            west: vec![0; array.rows],
            north: vec![0; array.cols],
            diagonal: vec![(u64::MAX, u64::MAX); array.rows + array.cols - 1],
        }
    }

    /// Clock edges executed so far.
    pub fn edges(&self) -> u64 {
        self.edge
    }

    /// The edge on which the tile after one loading at `load` and
    /// streaming at `stream` may begin to load: the schedule.
    fn next_load(&self, load: u64, stream: u64) -> u64 {
        if self.pipelined {
            (load + self.rows).max(stream - 1)
        } else {
            stream + self.m + self.rows + self.cols
        }
    }

    /// Ticks `array` until every output row of the next tile has left
    /// the south edge, and returns them row-major (`m` rows of `cols`
    /// partial sums), or `None` once the run is over. `weight(t, r, c)`
    /// is tile `t`'s weight at PE `(r, c)` and `data(t, i, r)` its data
    /// row `i`'s element for array row `r`; the caller zero-pads both.
    ///
    /// # Panics
    ///
    /// Panics if `array` is not the array the run was built for.
    pub fn next_tile(
        &mut self,
        array: &mut SystolicArray,
        weight: impl Fn(usize, usize, usize) -> i8,
        data: impl Fn(usize, usize, usize) -> i8,
    ) -> Option<&[i64]> {
        assert_eq!(
            (self.rows, self.cols),
            (u64_from(array.rows), u64_from(array.cols)),
            "tile run built for another array"
        );
        let (rows, cols, m) = (self.rows, self.cols, self.m);
        loop {
            let e = self.edge;
            let (index, load, stream) = self.next;
            if index < self.tiles && e == load {
                let mut psums = self.spare.pop().unwrap_or_default();
                psums.clear();
                psums.resize(usize_from(m * cols), 0);
                self.active.push_back(TileSlot {
                    index,
                    load,
                    stream,
                    psums,
                });
                let after = self.next_load(load, stream);
                self.next = (index + 1, after, (stream + m).max(after + rows + 1));
            }
            // The front tile's stream window has ended: it is complete.
            let front = self.active.front()?;
            if e == front.stream + m + rows + cols {
                let slot = self.active.pop_front().expect("front exists");
                self.spare
                    .push(std::mem::replace(&mut self.done, slot.psums));
                return Some(&self.done);
            }
            self.feed(e, &weight, &data);
            let Self {
                active,
                diagonal,
                west,
                north,
                ..
            } = self;
            array.cycles += 1;
            tick_edge(
                array.rows,
                array.cols,
                &mut array.pes,
                west,
                north,
                |r, c| {
                    let (hold_from, latch) = diagonal[r + c];
                    PeControl {
                        select: WeightSelect::Held,
                        latch_weight2: e == latch,
                        hold_weight1: e >= hold_from.saturating_add(u64_from(c)) && e < latch,
                    }
                },
                &mut array.edge,
            );
            // Column c's partial sum leaving the south edge now is data
            // row `e − stream − R − c` of the tile streaming there.
            for (c, &psum) in array.edge.psum_south.iter().enumerate() {
                let skew = rows + u64_from(c);
                if let Some(slot) = active
                    .iter_mut()
                    .find(|s| e >= s.stream + skew && e < s.stream + skew + m)
                {
                    let row = usize_from(e - slot.stream - skew);
                    slot.psums[row * array.cols + c] = psum;
                }
            }
            self.edge += 1;
        }
    }

    /// Stages edge `e`'s west data, north weights and per-diagonal
    /// controls from the active tiles.
    fn feed(
        &mut self,
        e: u64,
        weight: &impl Fn(usize, usize, usize) -> i8,
        data: &impl Fn(usize, usize, usize) -> i8,
    ) {
        let (rows, m, active) = (self.rows, self.m, &self.active);
        // Row r's data enters r edges after row 0's.
        for (r, w) in self.west.iter_mut().enumerate() {
            *w = e
                .checked_sub(u64_from(r))
                .and_then(|t| {
                    let s = active.iter().find(|s| t >= s.stream && t < s.stream + m)?;
                    Some(data(s.index, usize_from(t - s.stream), r))
                })
                .unwrap_or(0);
        }
        // Column c's weights enter c edges after column 0's, in reverse
        // row order, so tile row r settles in PE row r.
        for (c, n) in self.north.iter_mut().enumerate() {
            *n = e
                .checked_sub(u64_from(c))
                .and_then(|t| {
                    let s = active.iter().find(|s| t >= s.load && t < s.load + rows)?;
                    Some(weight(s.index, usize_from(rows - 1 - (t - s.load)), c))
                })
                .unwrap_or(0);
        }
        // The first tile the PEs on anti-diagonal d have yet to latch.
        for (d, ctrl) in self.diagonal.iter_mut().enumerate() {
            let d = u64_from(d);
            *ctrl = active
                .iter()
                .find(|s| s.stream - 1 + d >= e)
                .map_or((u64::MAX, u64::MAX), |s| (s.load + rows, s.stream - 1 + d));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// One tile: `rows × cols` weights and its data rows, each `rows`
    /// wide (zero-padded by the test).
    type Tile = (Vec<Vec<i8>>, Vec<Vec<i8>>);

    /// Runs `tiles` through `arr` and returns each tile's outputs with
    /// the run's edge count.
    fn run(arr: &mut SystolicArray, tiles: &[Tile], pipelined: bool) -> (Vec<Vec<i64>>, u64) {
        let m = tiles.first().map_or(0, |t| t.1.len());
        let mut run = TileRun::new(arr, tiles.len(), m, pipelined);
        let mut outs = Vec::new();
        while let Some(psums) =
            run.next_tile(arr, |t, r, c| tiles[t].0[r][c], |t, i, r| tiles[t].1[i][r])
        {
            outs.push(psums.to_vec());
        }
        (outs, run.edges())
    }

    /// `data · weights`, row-major.
    fn reference((w, d): &Tile) -> Vec<i64> {
        let cols = w.first().map_or(0, Vec::len);
        d.iter()
            .flat_map(|row| {
                (0..cols).map(move |c| {
                    row.iter()
                        .zip(w)
                        .map(|(&x, wr)| i64::from(x) * i64::from(wr[c]))
                        .sum()
                })
            })
            .collect()
    }

    /// The run's edge count under each schedule: `R + 1 + M + R + C`
    /// per serial tile; one fill and one drain, and `max(M, R)` per
    /// later tile, when pipelined.
    fn edges(rows: u64, cols: u64, m: u64, tiles: u64, pipelined: bool) -> u64 {
        match (tiles, pipelined) {
            (0, _) => 0,
            (_, false) => tiles * (rows + 1 + m + rows + cols),
            (_, true) => rows + 1 + m + (tiles - 1) * m.max(rows) + rows + cols,
        }
    }

    #[test]
    fn single_pe_matmul() {
        let mut arr = SystolicArray::new(1, 1);
        let tile = (vec![vec![3]], vec![vec![5], vec![-2]]);
        assert_eq!(run(&mut arr, &[tile], false).0, [[15, -6]]);
    }

    #[test]
    fn identity_weights_pass_data() {
        let mut arr = SystolicArray::new(3, 3);
        let id: Vec<Vec<i8>> = (0..3)
            .map(|r| (0..3).map(|c| i8::from(r == c)).collect())
            .collect();
        let out = run(&mut arr, &[(id, vec![vec![7, -8, 9]])], true).0;
        assert_eq!(out, [[7, -8, 9]]);
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
        let tile = (w, d);
        let mut arr = SystolicArray::new(rows, cols);
        assert_eq!(
            run(&mut arr, std::slice::from_ref(&tile), false).0,
            [reference(&tile)]
        );
    }

    #[test]
    fn short_tiles_are_zero_padded() {
        // A 2-row, 3-column tile after a full one: the caller pads it
        // with zeros, as the engine does, and no weight of the earlier
        // tile lingers in the padded PEs.
        let mut arr = SystolicArray::new(4, 4);
        let full = (vec![vec![9; 4]; 4], vec![vec![1; 4]]);
        let mut w = vec![vec![0; 4]; 4];
        w[0][..3].copy_from_slice(&[1, 2, 3]);
        w[1][..3].copy_from_slice(&[4, 5, 6]);
        let short = (w, vec![vec![1, 1, 0, 0]]);
        for pipelined in [false, true] {
            let out = run(&mut arr, &[full.clone(), short.clone()], pipelined).0;
            assert_eq!(out, [vec![36; 4], vec![5, 7, 9, 0]]);
        }
    }

    #[test]
    fn consecutive_streams_reuse_held_weights() {
        // The convolutional reuse pattern: one load, then every data row
        // of the tile streams against the held weights.
        let mut arr = SystolicArray::new(2, 2);
        let tile = (vec![vec![2, 0], vec![0, 2]], vec![vec![3, 4], vec![5, 6]]);
        assert_eq!(run(&mut arr, &[tile], true).0, [[6, 8, 10, 12]]);
    }

    #[test]
    fn cycle_counting() {
        // One serial tile: R + 1 load edges, then M + R + C stream edges.
        let mut arr = SystolicArray::new(4, 4);
        let tile = (vec![vec![1, 2, 3, 4]; 4], vec![vec![0; 4]; 3]);
        assert_eq!(
            run(&mut arr, std::slice::from_ref(&tile), false).1,
            5 + 3 + 4 + 4
        );
        assert_eq!(arr.cycles(), 16);
        // Three tiles: serial pays the load and the drain per tile; the
        // pipelined run pays them once, and its later tiles cost
        // max(M, R) = 4 edges each.
        let tiles = vec![tile; 3];
        assert_eq!(run(&mut arr, &tiles, false).1, 3 * 16);
        assert_eq!(run(&mut arr, &tiles, true).1, 5 + 3 + 2 * 4 + 8);
        assert_eq!(arr.cycles(), 16 + 48 + 24);
    }

    #[test]
    fn empty_run_ticks_nothing() {
        let mut arr = SystolicArray::new(2, 3);
        assert_eq!(run(&mut arr, &[], true), (vec![], 0));
        assert_eq!(arr, SystolicArray::new(2, 3));
    }

    #[test]
    fn reset_restores_fresh_state() {
        let mut arr = SystolicArray::new(2, 2);
        run(&mut arr, &[(vec![vec![9, 9]; 2], vec![vec![1, 1]])], false);
        arr.reset();
        assert_eq!(arr.cycles(), 0);
        assert_eq!(arr, SystolicArray::new(2, 2));
    }

    #[test]
    fn scratch_reuse_is_invisible() {
        // The hoisted edge buffers must not leak state between runs: a
        // long-used array equals a fresh one after reset, and repeated
        // identical runs produce identical outputs.
        let mut used = SystolicArray::new(3, 3);
        let tile = (
            vec![vec![1, 2, 3], vec![4, 5, 6], vec![7, 8, 9]],
            vec![vec![1, -2, 3], vec![4, 5, -6]],
        );
        let a = run(&mut used, std::slice::from_ref(&tile), true);
        let b = run(&mut used, &[tile], true);
        assert_eq!(a, b);
        used.reset();
        assert_eq!(used, SystolicArray::new(3, 3));
    }

    #[test]
    #[should_panic(expected = "another array")]
    fn a_run_refuses_another_array() {
        let mut run = TileRun::new(&SystolicArray::new(2, 2), 1, 1, false);
        run.next_tile(&mut SystolicArray::new(3, 2), |_, _, _| 0, |_, _, _| 0);
    }

    proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Runs of random tiles on random arrays, under both schedules:
        /// every tile's outputs are its exact product (the pipelined
        /// overlap never lets one tile's weights meet another tile's
        /// data), the edge count is the schedule's, and a pipelined run
        /// leaves the PEs as the serial run of the same tiles does.
        #[test]
        fn random_tiles_match_reference(
            rows in 1usize..6, cols in 1usize..6, m in 0usize..9,
            count in 0usize..5, seed in any::<u64>()
        ) {
            let mut s = seed | 1;
            let mut next = move || {
                s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
                (s >> 56) as i8
            };
            let tiles: Vec<Tile> = (0..count)
                .map(|_| {
                    let w = (0..rows).map(|_| (0..cols).map(|_| next()).collect()).collect();
                    let d = (0..m).map(|_| (0..rows).map(|_| next()).collect()).collect();
                    (w, d)
                })
                .collect();
            let want: Vec<Vec<i64>> = tiles.iter().map(reference).collect();
            let (r, c, mm, n) = (rows as u64, cols as u64, m as u64, count as u64);
            let mut serial = SystolicArray::new(rows, cols);
            let mut pipelined = SystolicArray::new(rows, cols);
            prop_assert_eq!(run(&mut serial, &tiles, false), (want.clone(), edges(r, c, mm, n, false)));
            prop_assert_eq!(run(&mut pipelined, &tiles, true), (want, edges(r, c, mm, n, true)));
            prop_assert_eq!(&serial.pes, &pipelined.pes);
        }
    }
}
