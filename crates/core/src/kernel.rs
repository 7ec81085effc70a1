//! Host compute kernels of the `Functional` backend: the row-level
//! inner loops `engine::Accelerator::matmul_group_functional` dispatches
//! to, one per tile shape — an explicit-SIMD sweep (AVX-512/VNNI where
//! the host has it, AVX2 otherwise) on full 16-lane N-tiles, a general
//! scalar fold on every other tile, and the literal MAC chain on tiles
//! tall enough to clip in-tile.
//!
//! This module is pure host-speed machinery. Every kernel evaluates the
//! **same** function — the ticked array's saturating fold per output
//! element — so kernel choice, SIMD width, and row partitioning can
//! never change simulated results (outputs, saturation events, cycles,
//! traffic). The exactness argument lives on
//! `matmul_group_functional`; the pieces the kernels rely on:
//!
//! - For tiles of `kt ≤ EXACT_FOLD_MAX_KT` rows the in-tile fold
//!   provably never clips, so it equals the exact `i32` dot product and
//!   is order-free — the scalar fold (a dense dot product on one-column
//!   tiles, skipping zero data on wider ones) and the dense vector
//!   sweeps are bit-identical.
//! - K-tile folding saturates per tile boundary. Starting from `acc =
//!   0`, the first fold's raw value is `0 + psum = psum`, which is what
//!   `AccumulatorUnit::push_new` stores (its clamp provably never
//!   engages on an in-range psum) — so one uniform fold step per tile
//!   suffices, with no first-tile special case.
//! - The fold fits `i32`: `|acc| ≤ 2^24` after the clamp and
//!   `|psum| < 2^24` by the tile-height bound, so `acc + psum` is
//!   within `±2^25 < i32::MAX`. Every kernel therefore keeps an output
//!   element's K-tile state in one `i32` value and one `i32` clip count
//!   (at most one clip per K-tile) and clamps in 32 bits; the engine
//!   widens to `i64` only at the drain. A unit test below pins the
//!   32-bit clamp against [`AccumulatorUnit::fold_step`].
//! - Tiles taller than the bound take [`RowKernel::MacSerial`]: the
//!   literal per-step [`Pe::mac_step`] chain, `Pe` staying the single
//!   shared MAC definition.
//!
//! Threading (driven by the engine) partitions *rows*; each row's
//! entire fold chain runs on one thread in tile order, so the per-element
//! saturating-fold order is byte-identical to the serial path.
//!
//! Staging lives here too: [`TileBuf`] packs each N-tile's K-tiles
//! straight from the engine's weight view into the one layout their
//! kernel reads, and [`Staging`] holds every host buffer a matmul
//! needs — one `i16` data panel that every kernel reads and one `i32`
//! accumulator set that every kernel folds into — so the accelerator
//! reuses them from matmul to matmul and a serial sweep allocates
//! nothing.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use crate::accumulator::AccumulatorUnit;
use crate::config::{FunctionalOptions, SimdMode};
use crate::operand::WeightView;
use crate::pe::Pe;

/// Tallest tile whose in-tile fold provably cannot clip:
/// `kt · 128² ≤ 2^24 − 1`.
pub(crate) const EXACT_FOLD_MAX_KT: usize = ((1 << 24) - 1) / (128 * 128);

/// Lane count of the SIMD sweep — the paper's column count, so the
/// 16×16 design point takes the register path.
pub(crate) const LANES: usize = 16;

/// Taps per column widened at a time when packing interleaved weights.
const TAP_BLOCK: usize = 16;

/// Below this many multiply-accumulates per N-tile, `threads: 0` (auto)
/// stays serial: spawn cost would dominate (the FC and routing layers
/// issue thousands of sub-millisecond matmuls).
const AUTO_MIN_MACS: u128 = 1 << 23;

/// The row-level kernel chosen for one staged K-tile.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum RowKernel {
    /// Dense 16-lane sweep over pair-interleaved weights: AVX-512/VNNI
    /// `vpdpwssd` where the host has it, AVX2 `pmaddwd` otherwise.
    Simd,
    /// Scalar fold of any width: N-tiles narrower than 16 lanes, every
    /// tile when SIMD is off, and the short tiles of an N-tile that
    /// also holds a tall one. One-column tiles fold as a dense dot
    /// product; wider tiles skip zero data elements.
    General,
    /// Literal per-step [`Pe::mac_step`] saturating chain — the only
    /// correct evaluation once a tile is tall enough to clip in-tile.
    MacSerial,
}

/// One 32-byte-aligned vector register's worth of interleaved weights
/// (eight `[w_even, w_odd]` column pairs). The alignment lets the SIMD
/// kernel use aligned loads that never split cache lines.
#[repr(align(32))]
#[derive(Copy, Clone, Default)]
pub(crate) struct WVec(
    // Read only by the SIMD kernels, through raw vector loads.
    #[allow(dead_code)] pub [i16; 16],
);

/// The row kernel for a K-tile of height `kt` in an N-tile of width
/// `nt` whose tallest K-tile is `tallest` rows, on a host where the
/// SIMD sweep may run iff `simd_ok` — a function of tile shape and host
/// alone (bit-identical either way, a speed choice only).
///
/// Every K-tile of one N-tile lands in the same family: an N-tile with
/// any tile tall enough to clip in-tile runs all its tiles on the
/// general path, so SIMD tiles never share a row sweep with
/// [`RowKernel::MacSerial`].
pub(crate) fn select_kernel(kt: usize, nt: usize, tallest: usize, simd_ok: bool) -> RowKernel {
    if kt > EXACT_FOLD_MAX_KT {
        RowKernel::MacSerial
    } else if simd_ok && nt == LANES && tallest <= EXACT_FOLD_MAX_KT {
        RowKernel::Simd
    } else {
        RowKernel::General
    }
}

/// One staged weight K-tile of the current N-tile: where it sits in K,
/// the kernel that evaluates it, and where its packed weights live in
/// the owning [`TileBuf`].
#[derive(Copy, Clone, Debug)]
pub(crate) struct KTile {
    /// First K index covered by the tile.
    pub k0: usize,
    /// Tile height (`≤ cfg.rows`).
    pub kt: usize,
    /// Row kernel evaluating this tile.
    pub kernel: RowKernel,
    /// Start of the packed weights: an index into [`TileBuf::inter`]
    /// for the SIMD sweep, into [`TileBuf::w`] for the scalar kernels.
    off: usize,
}

/// The current N-tile's staged K-tiles, packed straight from a
/// [`WeightView`] into the one layout their kernel reads:
///
/// - The SIMD sweep gets pair-interleaved widened weights for `pmaddwd`,
///   two aligned vectors per row pair `p`: vector `2p + h` holds
///   columns `8h .. 8h + 8` as lanes `[w[2p][c], w[2p+1][c]]`
///   (zero partner when `kt` is odd).
/// - Scalar kernels get the row-major `kt × nt` `i8` tile, exactly as
///   the ticked array loads it.
///
/// The accelerator keeps one buffer and reuses it for every N-tile of
/// every matmul in a layer, so staging allocates nothing per K-tile
/// once the buffers have grown to the layer's largest N-tile.
#[derive(Default)]
pub(crate) struct TileBuf {
    nt: usize,
    tiles: Vec<KTile>,
    w: Vec<i8>,
    inter: Vec<WVec>,
}

impl TileBuf {
    /// Empties the buffer for an N-tile of width `nt`.
    pub(crate) fn begin(&mut self, nt: usize) {
        self.nt = nt;
        self.tiles.clear();
        self.w.clear();
        self.inter.clear();
    }

    /// Width of the current N-tile.
    pub(crate) fn nt(&self) -> usize {
        self.nt
    }

    /// The staged K-tiles, in K order.
    pub(crate) fn tiles(&self) -> &[KTile] {
        &self.tiles
    }

    /// Whether the current N-tile runs on the SIMD sweep
    /// (`select_kernel` puts every tile of an N-tile in one family).
    fn is_simd(&self) -> bool {
        self.tiles
            .first()
            .is_some_and(|t| t.kernel == RowKernel::Simd)
    }

    /// A scalar tile's row-major `kt × nt` weights.
    fn w(&self, t: &KTile) -> &[i8] {
        &self.w[t.off..t.off + t.kt * self.nt]
    }

    /// A SIMD tile's pair-interleaved weights.
    fn inter(&self, t: &KTile) -> &[WVec] {
        &self.inter[t.off..t.off + t.kt.div_ceil(2) * 2]
    }

    /// Stages K-tile `k0 .. k0 + kt` of the N-tile starting at column
    /// `n0`, reading the weights straight from `weight` into the layout
    /// `kernel` consumes.
    pub(crate) fn stage(
        &mut self,
        weight: &WeightView<'_>,
        k0: usize,
        kt: usize,
        n0: usize,
        kernel: RowKernel,
    ) {
        let nt = self.nt;
        let off = if kernel == RowKernel::Simd {
            debug_assert_eq!(nt, LANES);
            let off = self.inter.len();
            // Widen TAP_BLOCK taps of every column into a zero-padded
            // `[column][tap]` block; reading it tap-pair-major is the
            // interleaved layout, and the padding is the odd tail's
            // zero partner.
            for t0 in (0..kt).step_by(TAP_BLOCK) {
                let len = TAP_BLOCK.min(kt - t0);
                let mut block = [[0i16; TAP_BLOCK]; LANES];
                for (c, taps) in block.iter_mut().enumerate() {
                    if weight.ks == 1 {
                        // Unit stride along K (the `[out_ch][patch]`
                        // layouts): the column's taps are one run.
                        let run = &weight.src[(n0 + c) * weight.ns + k0 + t0..][..len];
                        for (t, &w) in taps.iter_mut().zip(run) {
                            *t = i16::from(w);
                        }
                    } else {
                        for (r, t) in taps[..len].iter_mut().enumerate() {
                            *t = i16::from(weight.at(k0 + t0 + r, n0 + c));
                        }
                    }
                }
                for p in 0..len.div_ceil(2) {
                    for half in [0, LANES / 2] {
                        self.inter.push(WVec(std::array::from_fn(|i| {
                            block[half + i / 2][2 * p + i % 2]
                        })));
                    }
                }
            }
            off
        } else {
            let off = self.w.len();
            self.w.resize(off + kt * nt, 0);
            for (kr, row) in self.w[off..].chunks_exact_mut(nt).enumerate() {
                for (c, v) in row.iter_mut().enumerate() {
                    *v = weight.at(k0 + kr, n0 + c);
                }
            }
            off
        };
        self.tiles.push(KTile {
            k0,
            kt,
            kernel,
            off,
        });
    }
}

/// The functional backend's reusable host buffers: the data panel,
/// the current N-tile's staged weights and accumulator set, the
/// matmul's bias row, and the serial sweep's scalar scratch. The
/// accelerator owns one, lends it to every matmul call, and drops it at
/// each layer boundary of a batch run.
#[derive(Default)]
pub(crate) struct Staging {
    /// Row-major `batch·M × K` data panel, sign-extended as it is
    /// gathered: the SIMD sweep reads each adjacent pair as one `i32`
    /// broadcast operand, and the scalar folds read the same rows.
    pub panel: Vec<i16>,
    /// The current N-tile's staged K-tiles.
    pub tiles: TileBuf,
    /// Per-(row, column) K-tile accumulator values of the current
    /// N-tile.
    pub acc: Vec<i32>,
    /// Per-(row, column) clip counts of the current N-tile.
    pub events: Vec<i32>,
    /// The current matmul's bias per output column (zeros without a
    /// bias), read by the drain.
    pub bias: Vec<i64>,
    /// Per-tile psums of the serial sweep's scalar fold.
    pub psums: Vec<i32>,
}

impl std::fmt::Debug for Staging {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Staging")
            .field("panel_capacity", &self.panel.capacity())
            .field("tiles", &self.tiles.tiles.len())
            .finish_non_exhaustive()
    }
}

/// Whether the SIMD sweep may be selected under `opts`: `SimdMode::
/// Auto` plus a runtime `avx2` detection (scalar fallback everywhere
/// else — non-x86_64 targets, feature-less hosts, `SimdMode::Scalar`).
pub(crate) fn simd_enabled(opts: FunctionalOptions) -> bool {
    opts.simd == SimdMode::Auto && simd_available()
}

/// Runtime check for the baseline vector ISA of the SIMD sweep.
#[cfg(target_arch = "x86_64")]
pub(crate) fn simd_available() -> bool {
    std::arch::is_x86_feature_detected!("avx2")
}

/// Non-x86_64 builds always take the scalar kernels.
#[cfg(not(target_arch = "x86_64"))]
pub(crate) fn simd_available() -> bool {
    false
}

/// Worker-thread count for one N-tile's row sweep. `requested` follows
/// [`FunctionalOptions::threads`]: `0` goes parallel only when the
/// tile grid is big enough to amortize spawn cost (so the thousands of
/// tiny FC/routing matmuls stay serial); an explicit `n ≥ 2` *always*
/// splits — capped by the row count — so tests can exercise the
/// parallel path on arbitrarily small shapes.
pub(crate) fn effective_threads(requested: usize, total_rows: usize, k: usize, nt: usize) -> usize {
    if total_rows <= 1 {
        return 1;
    }
    match requested {
        0 => {
            let macs = total_rows as u128 * k as u128 * nt as u128;
            if macs < AUTO_MIN_MACS {
                1
            } else {
                host_threads().min(total_rows)
            }
        }
        1 => 1,
        t => t.min(total_rows),
    }
}

/// The host's available parallelism, queried once per process: on
/// Linux every query re-reads the cgroup quota files.
fn host_threads() -> usize {
    static HOST_THREADS: OnceLock<usize> = OnceLock::new();
    *HOST_THREADS.get_or_init(|| {
        std::thread::available_parallelism()
            .map(NonZeroUsize::get)
            .unwrap_or(1)
    })
}

/// The saturating K-tile fold step shared by the scalar kernels:
/// `raw = acc + psum`, clamp to 25 bits, count a clip. With `acc`
/// starting at 0 the first tile's raw value is the tile psum itself —
/// `push_new` semantics. The clamped value fits `i32` by the bound in
/// the module doc.
#[inline]
fn fold_scalar(acc: &mut i32, clips: &mut i32, psum: i64) {
    let (sat, clipped) = AccumulatorUnit::fold_step(i64::from(*acc) + psum);
    *clips += i32::from(clipped);
    *acc = i32::try_from(sat).expect("a 25-bit accumulator fits i32");
}

/// Folds rows `ri0 .. ri0 + nrows` (global panel indices) of one
/// N-tile through every staged K-tile in tile order. `acc` and
/// `events` hold the rows' `nrows × nt` accumulator values and clip
/// counts: zeroed by the caller, final on return. `psums` is the
/// scalar fold's scratch, grown on first use and reused after.
///
/// This is the unit the engine partitions across threads: rows are
/// independent, each row's fold chain runs here in full, so the
/// per-element fold order — and therefore every simulated result — is
/// identical for any partition.
#[allow(clippy::too_many_arguments)]
pub(crate) fn process_rows(
    k: usize,
    tiles: &TileBuf,
    panel: &[i16],
    ri0: usize,
    nrows: usize,
    acc: &mut [i32],
    events: &mut [i32],
    psums: &mut Vec<i32>,
) {
    #[cfg(target_arch = "x86_64")]
    if tiles.is_simd() {
        avx2::sweep_rows(k, tiles, panel, ri0, nrows, acc, events);
        return;
    }
    let nt = tiles.nt();
    debug_assert_eq!(acc.len(), nrows * nt);
    psums.resize(nt, 0);
    let outs = acc.chunks_exact_mut(nt).zip(events.chunks_exact_mut(nt));
    for (r, (acc, clips)) in outs.enumerate() {
        let row = &panel[(ri0 + r) * k..(ri0 + r) * k + k];
        row_general(tiles, row, acc, clips, psums);
    }
}

/// General one-row path: every scalar tile ([`RowKernel::General`])
/// and tall tiles ([`RowKernel::MacSerial`]), folding into the row's
/// `acc` values and `clips` counts; `scratch` holds one tile's psums.
///
/// A one-column tile is a dense contiguous dot product. Wider scalar
/// tiles skip zero data (`saturate(x + 0) = x`, so skipping is exact):
/// PrimaryCaps reads sparse ReLU output, so there the skip pays for its
/// data-dependent branch; on a single column it never does.
fn row_general(
    tiles: &TileBuf,
    row: &[i16],
    acc: &mut [i32],
    clips: &mut [i32],
    scratch: &mut [i32],
) {
    let nt = tiles.nt();
    for t in tiles.tiles() {
        let drow = &row[t.k0..t.k0 + t.kt];
        let w = tiles.w(t);
        if t.kernel == RowKernel::MacSerial {
            // Tall tile: the in-tile fold may clip, so run the literal
            // ticked chain — `Pe::mac_step` per element, north→south.
            for (c, (a, e)) in acc.iter_mut().zip(clips.iter_mut()).enumerate() {
                let mut psum = 0i64;
                for (r, &d) in drow.iter().enumerate() {
                    let w = w[r * nt + c];
                    if d != 0 && w != 0 {
                        let d = i8::try_from(d).expect("the panel holds widened i8 data");
                        psum = Pe::mac_step(psum, d, w);
                    }
                }
                fold_scalar(a, e, psum);
            }
        } else if nt == 1 {
            let psum: i32 = drow
                .iter()
                .zip(w)
                .map(|(&d, &w)| i32::from(d) * i32::from(w))
                .sum();
            fold_scalar(&mut acc[0], &mut clips[0], i64::from(psum));
        } else {
            let psums = &mut scratch[..nt];
            psums.fill(0);
            for (&d, wrow) in drow.iter().zip(w.chunks_exact(nt)) {
                if d != 0 {
                    for (p, &w) in psums.iter_mut().zip(wrow) {
                        *p += i32::from(d) * i32::from(w);
                    }
                }
            }
            for ((a, e), &p) in acc.iter_mut().zip(clips.iter_mut()).zip(psums.iter()) {
                fold_scalar(a, e, i64::from(p));
            }
        }
    }
}

/// The SIMD sweep: `vpdpwssd`/`pmaddwd` over pair-interleaved `i16`
/// weights against a broadcast data pair, 16 output columns per row,
/// with the K-tile saturating fold done in 32-bit lanes (clamp to
/// ±2^24 via min/max — exact by the `i32` bound above). It has two
/// bodies: the AVX-512/VNNI sweep where the host has it, and the AVX2
/// tile sweep, the only SIMD path of an AVX2-only host.
/// The only module in the crate allowed to use `unsafe`, and only for
/// the feature-gated intrinsics.
#[cfg(target_arch = "x86_64")]
// lint:allow(unsafe-containment, the crate-level deny is re-allowed only here: runtime-feature-gated SIMD intrinsics with SAFETY-commented call sites)
#[allow(unsafe_code)]
mod avx2 {
    use super::{KTile, TileBuf, WVec, LANES};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cmpeq_epi32, _mm256_load_si256, _mm256_loadu_si256,
        _mm256_madd_epi16, _mm256_max_epi32, _mm256_min_epi32, _mm256_set1_epi32,
        _mm256_setzero_si256, _mm256_storeu_si256, _mm512_add_epi32, _mm512_cmpneq_epi32_mask,
        _mm512_dpwssd_epi32, _mm512_loadu_si512, _mm512_mask_add_epi32, _mm512_max_epi32,
        _mm512_min_epi32, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
    };

    /// 25-bit clamp bounds in every 32-bit lane.
    const SAT_MAX: i32 = (1 << 24) - 1;
    const SAT_MIN: i32 = -(1 << 24);

    /// Data rows the sweeps fold per weight-vector load. Four rows use
    /// 8 accumulator registers + 2 weight registers and cut weight-load
    /// traffic 4×, turning the AVX2 sweep from load-port-bound into
    /// `pmaddwd`-throughput-bound.
    const SIMD_ROW_BLOCK: usize = 4;

    /// Sweeps rows `ri0 .. ri0 + nrows` through the widest body the
    /// host supports, checking for AVX-512 once per call. SIMD tiles
    /// exist only once `avx2` was detected (`select_kernel` runs them
    /// under `simd_enabled`); each body asserts its own features, which
    /// keeps the intrinsics sound if that rule is ever broken.
    ///
    /// `panel` is the sign-extended `i16` data panel: each adjacent
    /// element pair is one little-endian `i32`, so the kernel
    /// broadcasts a data pair with a single memory-operand
    /// `vpbroadcastd` instead of a scalar widen/shift/or chain.
    pub(super) fn sweep_rows(
        k: usize,
        tiles: &TileBuf,
        panel: &[i16],
        ri0: usize,
        nrows: usize,
        acc: &mut [i32],
        events: &mut [i32],
    ) {
        if avx512_available() {
            assert_row_lanes(nrows, acc, events);
            // SAFETY: the `avx512*`/`avx512vnni` features were
            // runtime-detected just above, and both lane buffers hold
            // exactly `nrows` rows (asserted just above).
            unsafe { sweep_dense_512(k, tiles, panel, ri0, nrows, acc, events) }
        } else {
            sweep_rows_avx2(k, tiles, panel, ri0, nrows, acc, events);
        }
    }

    /// The AVX2 body, K-tile–outer so one staged tile (≤ 8 KiB
    /// interleaved) stays cache-resident while every row streams
    /// against it; the caller's zeroed accumulator and clip-count lanes
    /// are folded in place at each tile — the fold order per element is
    /// still tile-ascending, identical to the serial chain.
    pub(super) fn sweep_rows_avx2(
        k: usize,
        tiles: &TileBuf,
        panel: &[i16],
        ri0: usize,
        nrows: usize,
        acc: &mut [i32],
        events: &mut [i32],
    ) {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 sweep on a host without avx2"
        );
        assert_row_lanes(nrows, acc, events);
        for t in tiles.tiles() {
            // SAFETY: `avx2` was runtime-detected and both lane buffers
            // hold exactly `nrows` rows (asserted just above).
            unsafe { tile_sweep(t, tiles.inter(t), panel, k, ri0, nrows, acc, events) };
        }
    }

    /// The SIMD bodies write each row's [`LANES`] accumulator and
    /// clip-count lanes through raw pointers, so both buffers must hold
    /// exactly `nrows` rows of them.
    fn assert_row_lanes(nrows: usize, acc: &[i32], events: &[i32]) {
        assert!(
            acc.len() == nrows * LANES && events.len() == nrows * LANES,
            "a {nrows}-row SIMD sweep needs {} lanes each, got {} and {}",
            nrows * LANES,
            acc.len(),
            events.len()
        );
    }

    /// Runtime check for the zmm sweep profile: foundation ops
    /// (`avx512f`), zmm `i16` lanes (`avx512bw`), and the fused
    /// multiply-accumulate `vpdpwssd` (`avx512vnni`).
    pub(super) fn avx512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }

    /// Dense zmm sweep over all rows and every K-tile: rows go in
    /// blocks of [`SIMD_ROW_BLOCK`] (remainder rows one at a time),
    /// tile-inner, with each row's 16 `i32` accumulator lanes, tile
    /// psums and clip-event counts held in zmm registers across the
    /// whole fold chain. Each pair of interleaved weight rows (two
    /// adjacent [`WVec`]s) is one 64-byte `vpdpwssd` operand whose
    /// `i32` lanes are exactly the 16 output columns.
    ///
    /// Writes (not accumulates) each row's final lanes into
    /// `acc_out`/`ev_out` — this path owns the complete fold.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified [`avx512_available`]; both
    /// lane buffers must hold `nrows · LANES` elements.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    unsafe fn sweep_dense_512(
        k: usize,
        tiles: &TileBuf,
        panel: &[i16],
        ri0: usize,
        nrows: usize,
        acc_out: &mut [i32],
        ev_out: &mut [i32],
    ) {
        let vmax = _mm512_set1_epi32(SAT_MAX);
        let vmin = _mm512_set1_epi32(SAT_MIN);
        let ones = _mm512_set1_epi32(1);
        let zero = _mm512_setzero_si512();
        let mut r = 0;
        while r + SIMD_ROW_BLOCK <= nrows {
            let mut acc = [zero; SIMD_ROW_BLOCK];
            let mut ev = [zero; SIMD_ROW_BLOCK];
            for t in tiles.tiles() {
                let base = (ri0 + r) * k + t.k0;
                let blk = &panel[base..base + (SIMD_ROW_BLOCK - 1) * k + t.kt];
                let wide = blk.as_ptr();
                let inter: *const i16 = tiles.inter(t).as_ptr().cast();
                let mut psum = [zero; SIMD_ROW_BLOCK];
                let full = t.kt / 2;
                for p in 0..full {
                    let w = _mm512_loadu_si512(inter.add(p * 32).cast());
                    for (j, ps) in psum.iter_mut().enumerate() {
                        let dd = _mm512_set1_epi32(data_pair(wide.add(j * k), p));
                        *ps = _mm512_dpwssd_epi32(*ps, dd, w);
                    }
                }
                if t.kt % 2 == 1 {
                    // Odd tail row: zero-padded partner weights, and
                    // only `d0` is read (the partner slot may be past
                    // the row).
                    let w = _mm512_loadu_si512(inter.add(full * 32).cast());
                    for (j, ps) in psum.iter_mut().enumerate() {
                        let d0 = *wide.add(j * k + t.kt - 1);
                        let dd = _mm512_set1_epi32(d0 as u16 as i32);
                        *ps = _mm512_dpwssd_epi32(*ps, dd, w);
                    }
                }
                for j in 0..SIMD_ROW_BLOCK {
                    let raw = _mm512_add_epi32(acc[j], psum[j]);
                    let sat = _mm512_max_epi32(_mm512_min_epi32(raw, vmax), vmin);
                    let clipped = _mm512_cmpneq_epi32_mask(raw, sat);
                    ev[j] = _mm512_mask_add_epi32(ev[j], clipped, ev[j], ones);
                    acc[j] = sat;
                }
            }
            for j in 0..SIMD_ROW_BLOCK {
                _mm512_storeu_si512(acc_out.as_mut_ptr().add((r + j) * LANES).cast(), acc[j]);
                _mm512_storeu_si512(ev_out.as_mut_ptr().add((r + j) * LANES).cast(), ev[j]);
            }
            r += SIMD_ROW_BLOCK;
        }
        while r < nrows {
            let mut acc = zero;
            let mut ev = zero;
            for t in tiles.tiles() {
                let base = (ri0 + r) * k + t.k0;
                let drow = &panel[base..base + t.kt];
                let wide = drow.as_ptr();
                let inter: *const i16 = tiles.inter(t).as_ptr().cast();
                let mut psum = zero;
                let full = t.kt / 2;
                for p in 0..full {
                    let w = _mm512_loadu_si512(inter.add(p * 32).cast());
                    let dd = _mm512_set1_epi32(data_pair(wide, p));
                    psum = _mm512_dpwssd_epi32(psum, dd, w);
                }
                if t.kt % 2 == 1 {
                    let w = _mm512_loadu_si512(inter.add(full * 32).cast());
                    let dd = _mm512_set1_epi32(drow[t.kt - 1] as u16 as i32);
                    psum = _mm512_dpwssd_epi32(psum, dd, w);
                }
                let raw = _mm512_add_epi32(acc, psum);
                let sat = _mm512_max_epi32(_mm512_min_epi32(raw, vmax), vmin);
                let clipped = _mm512_cmpneq_epi32_mask(raw, sat);
                ev = _mm512_mask_add_epi32(ev, clipped, ev, ones);
                acc = sat;
            }
            _mm512_storeu_si512(acc_out.as_mut_ptr().add(r * LANES).cast(), acc);
            _mm512_storeu_si512(ev_out.as_mut_ptr().add(r * LANES).cast(), ev);
            r += 1;
        }
    }

    /// Streams every row's slice of one K-tile against the resident
    /// interleaved weights and folds the finished psums into the
    /// `i32` accumulator and clip-count lanes. Rows go through in blocks
    /// of [`SIMD_ROW_BLOCK`]: each 32-byte weight vector is loaded once
    /// per block instead of once per row, which is what the single-row
    /// loop is throughput-bound on (3 loads per pair-step against a
    /// 2-load/cycle port limit). Remainder rows take the single-row
    /// kernel; chain assignment differs but the in-tile `i32` dot
    /// product is order-free, so the psums are bit-identical.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; both lane buffers must
    /// hold `nrows · LANES` elements.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_sweep(
        t: &KTile,
        inter: &[WVec],
        panel: &[i16],
        k: usize,
        ri0: usize,
        nrows: usize,
        acc: &mut [i32],
        events: &mut [i32],
    ) {
        let vmax = _mm256_set1_epi32(SAT_MAX);
        let vmin = _mm256_set1_epi32(SAT_MIN);
        let ones = _mm256_set1_epi32(1);
        let mut r = 0;
        while r + SIMD_ROW_BLOCK <= nrows {
            let base = (ri0 + r) * k + t.k0;
            let blk = &panel[base..base + (SIMD_ROW_BLOCK - 1) * k + t.kt];
            let psums = tile_psums_block(t, inter, blk.as_ptr(), k);
            for (j, &(psum0, psum1)) in psums.iter().enumerate() {
                fold_row(acc, events, r + j, psum0, psum1, vmax, vmin, ones);
            }
            r += SIMD_ROW_BLOCK;
        }
        while r < nrows {
            let base = (ri0 + r) * k + t.k0;
            let (psum0, psum1) = tile_psums(t, inter, &panel[base..base + t.kt]);
            fold_row(acc, events, r, psum0, psum1, vmax, vmin, ones);
            r += 1;
        }
    }

    /// Folds one row's finished tile psums into its `i32`
    /// accumulator and clip-count lanes (saturating fold in 32-bit
    /// lanes: raw = acc + psum is in range by the ±2^25 bound; clamp;
    /// `cmpeq + 1` is the per-lane clip indicator).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; row `r` must be in
    /// bounds of both lane buffers.
    #[target_feature(enable = "avx2")]
    #[inline]
    #[allow(clippy::too_many_arguments)]
    unsafe fn fold_row(
        acc: &mut [i32],
        events: &mut [i32],
        r: usize,
        psum0: __m256i,
        psum1: __m256i,
        vmax: __m256i,
        vmin: __m256i,
        ones: __m256i,
    ) {
        let accp: *mut i32 = acc.as_mut_ptr().add(r * LANES);
        let evp: *mut i32 = events.as_mut_ptr().add(r * LANES);
        let raw0 = _mm256_add_epi32(_mm256_loadu_si256(accp.cast()), psum0);
        let raw1 = _mm256_add_epi32(_mm256_loadu_si256(accp.add(8).cast()), psum1);
        let sat0 = _mm256_max_epi32(_mm256_min_epi32(raw0, vmax), vmin);
        let sat1 = _mm256_max_epi32(_mm256_min_epi32(raw1, vmax), vmin);
        _mm256_storeu_si256(accp.cast(), sat0);
        _mm256_storeu_si256(accp.add(8).cast(), sat1);
        let e0 = _mm256_add_epi32(
            _mm256_loadu_si256(evp.cast()),
            _mm256_add_epi32(_mm256_cmpeq_epi32(raw0, sat0), ones),
        );
        let e1 = _mm256_add_epi32(
            _mm256_loadu_si256(evp.add(8).cast()),
            _mm256_add_epi32(_mm256_cmpeq_epi32(raw1, sat1), ones),
        );
        _mm256_storeu_si256(evp.cast(), e0);
        _mm256_storeu_si256(evp.add(8).cast(), e1);
    }

    /// One accumulation step of [`tile_psums`]: `pmaddwd` of the
    /// broadcast widened data pair (`[d0, d1]` as one `i32`, a single
    /// memory-operand `vpbroadcastd`) against interleaved weight
    /// pair-row `p`, added into one of the chains.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `inter` must be valid
    /// for aligned reads through interleaved vectors `2p` and `2p + 1`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn pair_step(inter: *const WVec, p: usize, dd: i32, acc: &mut (__m256i, __m256i)) {
        let dd = _mm256_set1_epi32(dd);
        let w0 = _mm256_load_si256(inter.add(2 * p).cast());
        let w1 = _mm256_load_si256(inter.add(2 * p + 1).cast());
        acc.0 = _mm256_add_epi32(acc.0, _mm256_madd_epi16(dd, w0));
        acc.1 = _mm256_add_epi32(acc.1, _mm256_madd_epi16(dd, w1));
    }

    /// Reads widened data pair `p` of the tile as one little-endian
    /// `i32` (lanes `[d0, d1]` — exactly the `vpbroadcastd` operand).
    ///
    /// # Safety
    ///
    /// `2p + 1` must be in bounds of `wide`.
    #[inline]
    unsafe fn data_pair(wide: *const i16, p: usize) -> i32 {
        wide.add(2 * p).cast::<i32>().read_unaligned()
    }

    /// One tile's exact dot products for [`SIMD_ROW_BLOCK`] dense rows
    /// at once: the pair loop loads each interleaved weight vector
    /// once and `pmaddwd`s it against every row's broadcast data pair.
    /// `wide` points at the first row's tile slice; consecutive rows
    /// are `stride` elements apart (the panel's K dimension).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `wide` must be valid
    /// for reads through `(SIMD_ROW_BLOCK - 1) * stride + t.kt`
    /// elements.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_psums_block(
        t: &KTile,
        inter: &[WVec],
        wide: *const i16,
        stride: usize,
    ) -> [(__m256i, __m256i); SIMD_ROW_BLOCK] {
        let zero = _mm256_setzero_si256();
        let mut accs = [(zero, zero); SIMD_ROW_BLOCK];
        let full = t.kt / 2;
        let inter = inter.as_ptr();
        for p in 0..full {
            let w0 = _mm256_load_si256(inter.add(2 * p).cast());
            let w1 = _mm256_load_si256(inter.add(2 * p + 1).cast());
            for (j, a) in accs.iter_mut().enumerate() {
                let dd = _mm256_set1_epi32(data_pair(wide.add(j * stride), p));
                a.0 = _mm256_add_epi32(a.0, _mm256_madd_epi16(dd, w0));
                a.1 = _mm256_add_epi32(a.1, _mm256_madd_epi16(dd, w1));
            }
        }
        if t.kt % 2 == 1 {
            // Odd tail row: zero-padded partner weights, and only `d0`
            // is read (the partner slot may be past the row).
            let w0 = _mm256_load_si256(inter.add(2 * full).cast());
            let w1 = _mm256_load_si256(inter.add(2 * full + 1).cast());
            for (j, a) in accs.iter_mut().enumerate() {
                let d0 = *wide.add(j * stride + t.kt - 1);
                let dd = _mm256_set1_epi32(d0 as u16 as i32);
                a.0 = _mm256_add_epi32(a.0, _mm256_madd_epi16(dd, w0));
                a.1 = _mm256_add_epi32(a.1, _mm256_madd_epi16(dd, w1));
            }
        }
        accs
    }

    /// One tile's exact dot products for all 16 columns: `pmaddwd`
    /// accumulates broadcast data pairs against the interleaved weight
    /// rows, unrolled over four independent accumulator chains so the
    /// loop is throughput-bound instead of serialized on the
    /// `pmaddwd → paddd` latency (the `i32` dot product is order-free,
    /// so chain assignment is exact). The `i32` accumulation cannot
    /// overflow: ≤ 512 pairs × 2·2^14 < 2^31.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; `drow` must hold the
    /// row's full widened tile slice (`t.kt` elements).
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_psums(t: &KTile, inter: &[WVec], drow: &[i16]) -> (__m256i, __m256i) {
        let zero = _mm256_setzero_si256();
        let mut chains = [(zero, zero); 4];
        let full = t.kt / 2;
        let inter = inter.as_ptr();
        let wide = drow.as_ptr();
        let mut p = 0;
        while p + 4 <= full {
            for (j, chain) in chains.iter_mut().enumerate() {
                pair_step(inter, p + j, data_pair(wide, p + j), chain);
            }
            p += 4;
        }
        while p < full {
            pair_step(inter, p, data_pair(wide, p), &mut chains[0]);
            p += 1;
        }
        if t.kt % 2 == 1 {
            // Odd tail row: its pair partner's weights are staged as
            // zero, so only `d0` matters — and only `d0` is read (the
            // partner slot may be past the row).
            pair_step(inter, full, drow[t.kt - 1] as u16 as i32, &mut chains[1]);
        }
        let p0 = _mm256_add_epi32(
            _mm256_add_epi32(chains[0].0, chains[1].0),
            _mm256_add_epi32(chains[2].0, chains[3].0),
        );
        let p1 = _mm256_add_epi32(
            _mm256_add_epi32(chains[0].1, chains[1].1),
            _mm256_add_epi32(chains[2].1, chains[3].1),
        );
        (p0, p1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The 32-bit clamp the SIMD fold uses must agree with the
    /// accumulator's shared `fold_step` on and around the clip
    /// boundary.
    #[test]
    fn i32_clamp_fold_matches_fold_step() {
        let clamp32 = |raw: i32| raw.clamp(-(1 << 24), (1 << 24) - 1);
        for acc in [
            -(1i64 << 24),
            -(1 << 24) + 1,
            -1,
            0,
            1,
            (1 << 24) - 2,
            (1 << 24) - 1,
        ] {
            for psum in [-1023i64 * 16384, -16384, -1, 0, 1, 16384, 1023 * 16384] {
                let raw = acc + psum;
                let (sat, clipped) = AccumulatorUnit::fold_step(raw);
                assert_eq!(clamp32(raw as i32) as i64, sat, "acc={acc} psum={psum}");
                assert_eq!(clamp32(raw as i32) as i64 != raw, clipped);
            }
        }
    }

    /// Pair-interleaved staging reads back as `[w[2p][c], w[2p+1][c]]`
    /// with a zeroed partner on the odd tail, and the scalar tile reads
    /// back row-major — from a unit-stride (`[column][k]`) view and a
    /// strided (`[k][column]`) view of the same matrix alike.
    #[test]
    fn interleaved_weights_pair_rows_per_column() {
        let (k, kt, k0) = (9, 5, 3);
        let w = |kr: usize, c: usize| ((kr * LANES + c) as i8).wrapping_mul(3);
        let by_col: Vec<i8> = (0..LANES * k).map(|i| w(i % k, i / k)).collect();
        let by_row: Vec<i8> = (0..k * LANES).map(|i| w(i / LANES, i % LANES)).collect();
        let views = [
            WeightView {
                src: &by_col,
                ks: 1,
                ns: k,
            },
            WeightView {
                src: &by_row,
                ks: LANES,
                ns: 1,
            },
        ];
        assert_eq!(std::mem::align_of::<WVec>(), 32);
        for view in &views {
            let mut buf = TileBuf::default();
            buf.begin(LANES);
            // Stage a leading tile first so the checked one sits at a
            // non-zero offset in each buffer.
            buf.stage(view, 0, k0, 0, RowKernel::Simd);
            buf.stage(view, k0, kt, 0, RowKernel::Simd);
            buf.stage(view, 0, k0, 0, RowKernel::General);
            buf.stage(view, k0, kt, 0, RowKernel::General);
            let [_, simd, _, scalar] = buf.tiles() else {
                panic!("four staged tiles")
            };
            let inter = buf.inter(simd);
            assert_eq!(inter.len(), 3 * 2);
            for p in 0..3 {
                for c in 0..LANES {
                    let lane = &inter[p * 2 + c / 8].0;
                    assert_eq!(lane[2 * (c % 8)], i16::from(w(k0 + 2 * p, c)));
                    let partner = if 2 * p + 1 < kt {
                        i16::from(w(k0 + 2 * p + 1, c))
                    } else {
                        0
                    };
                    assert_eq!(lane[2 * (c % 8) + 1], partner);
                }
            }
            let want: Vec<i8> = (0..kt * LANES)
                .map(|i| w(k0 + i / LANES, i % LANES))
                .collect();
            assert_eq!(buf.w(scalar), want.as_slice());
        }
    }

    /// Every SIMD body the host supports — the AVX2 tile sweep and the
    /// AVX-512 sweep — agrees element-for-element (values *and* clip
    /// events) with the general scalar path, on five distinct rows so
    /// both the 4-row blocks and the remainder-row kernels run,
    /// including folds that clip at tile boundaries.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx2_row_matches_scalar_row() {
        if !simd_available() {
            return; // scalar-only host: the fallback is the only path
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as i8
        };
        // Adversarial shape: tall-ish tiles of ±127 blocks so K-tile
        // folds clip, plus a random tile and an odd-height tail tile.
        let heights = [1023usize, 1023, 777, 5];
        let k: usize = heights.iter().sum();
        // Rows 0–3 open with the ±127 blocks (clipping up on even rows,
        // down on odd ones); row 2's random part is zero-heavy; row 4
        // is random throughout.
        let rows = 5;
        let panel: Vec<i16> = (0..rows * k)
            .map(|i| {
                let (r, c, d) = (i / k, i % k, next());
                i16::from(match r {
                    0 | 2 if c < 2046 => 127,
                    1 | 3 if c < 2046 => -127,
                    2 if d % 2 == 0 => 0,
                    _ => d,
                })
            })
            .collect();
        let w: Vec<i8> = (0..k * LANES)
            .map(|i| {
                if i < 2046 * LANES {
                    127
                } else {
                    next().wrapping_sub(i as i8)
                }
            })
            .collect();
        let view = WeightView {
            src: &w,
            ks: LANES,
            ns: 1,
        };
        let stage = |kernel: RowKernel| {
            let mut buf = TileBuf::default();
            buf.begin(LANES);
            let mut k0 = 0;
            for kt in heights {
                buf.stage(&view, k0, kt, 0, kernel);
                k0 += kt;
            }
            buf
        };
        let reference = stage(RowKernel::General);
        let mut acc_ref = vec![0i32; rows * LANES];
        let mut ev_ref = vec![0i32; rows * LANES];
        let mut scratch = vec![0i32; LANES];
        let outs = acc_ref
            .chunks_exact_mut(LANES)
            .zip(ev_ref.chunks_exact_mut(LANES));
        for (row, (acc, clips)) in panel.chunks_exact(k).zip(outs) {
            row_general(&reference, row, acc, clips, &mut scratch);
        }
        assert!(
            ev_ref
                .chunks_exact(LANES)
                .take(4)
                .all(|row| row.iter().sum::<i32>() > 0),
            "adversarial rows must actually clip"
        );

        let tiles = stage(RowKernel::Simd);
        type Body = fn(usize, &TileBuf, &[i16], usize, usize, &mut [i32], &mut [i32]);
        let bodies: [(&str, bool, Body); 2] = [
            ("avx2", true, avx2::sweep_rows_avx2),
            ("avx512", avx2::avx512_available(), avx2::sweep_rows),
        ];
        for (name, _, sweep) in bodies.iter().filter(|b| b.1) {
            let mut acc_simd = vec![0i32; rows * LANES];
            let mut ev_simd = vec![0i32; rows * LANES];
            sweep(k, &tiles, &panel, 0, rows, &mut acc_simd, &mut ev_simd);
            assert_eq!(acc_simd, acc_ref, "{name} accumulators");
            assert_eq!(ev_simd, ev_ref, "{name} clip events");
        }
    }

    /// Explicit thread requests always split (min'd with the row
    /// count); auto stays serial under the work threshold.
    #[test]
    fn thread_policy_splits_explicit_requests() {
        assert_eq!(effective_threads(7, 3, 64, 16), 3);
        assert_eq!(effective_threads(2, 100, 4, 4), 2);
        assert_eq!(effective_threads(1, 1_000_000, 1_000, 16), 1);
        assert_eq!(effective_threads(4, 1, 1_000_000, 16), 1);
        assert_eq!(effective_threads(0, 16, 8, 16), 1, "tiny auto stays serial");
    }
}
