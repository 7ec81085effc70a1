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
//! Staging lives here too, and so does the one staged format, in 8-bit
//! operands as the paper's datapath has them. [`Staging`] holds every
//! host buffer a matmul needs: one data panel of biased bytes (`d +
//! 128`) that every kernel reads, and one `i32` accumulator set that
//! every kernel folds into. [`TileBuf`] packs each N-tile's K-tiles
//! straight from the engine's weight view into the one layout their
//! kernel reads: byte quads with a psum seed for the SIMD sweep, the
//! row-major `i8` tile for the scalar folds. The accelerator reuses
//! both from matmul to matmul, so a serial sweep allocates nothing.
//! Routing's `û` is packed by the same [`TileBuf`]s, but once per image
//! and in two layouts ([`UHatPacking`]): Sum's, and Update's transposed
//! one, which puts the capsules on the lanes so the Update's
//! one-column product runs on the SIMD sweep. Every Sum and Update
//! streams its one data row against them.

use std::num::NonZeroUsize;
use std::sync::OnceLock;

use crate::accumulator::AccumulatorUnit;
use crate::config::{FunctionalOptions, SimdMode};
use crate::operand::{DataView, WeightView};
use crate::pe::Pe;

/// Tallest tile whose in-tile fold provably cannot clip:
/// `kt · 128² ≤ 2^24 − 1`.
pub(crate) const EXACT_FOLD_MAX_KT: usize = ((1 << 24) - 1) / (128 * 128);

/// Lane count of the SIMD sweep — the paper's column count, so the
/// 16×16 design point takes the register path.
pub(crate) const LANES: usize = 16;

/// Taps per lane of a weight quad: one `vpdpbusd` multiplies four
/// byte pairs into each `i32` lane.
const QUAD_TAPS: usize = 4;

/// Zero bytes after the panel's last row. A tile whose height is not a
/// multiple of [`QUAD_TAPS`] ends in a quad whose padded taps carry
/// zero weights, and the SIMD sweep still reads that quad's data as one
/// 4-byte word: up to 3 bytes beyond the tile, which on the last row
/// lie past the panel's data.
const PANEL_PAD: usize = QUAD_TAPS - 1;

/// The data panel's encoding: datum `d` is staged as the byte `d + 128`
/// (`d ^ 0x80`), the unsigned operand `vpdpbusd` multiplies, and each
/// SIMD tile's psum starts at `−128·Σw` per column to cancel the bias.
const DATA_BIAS: u8 = 0x80;

/// The staged byte of datum `d`.
#[inline]
fn biased(d: i8) -> u8 {
    (d as u8) ^ DATA_BIAS
}

/// The datum a staged byte holds: exactly the `i8` it was staged from.
#[inline]
fn datum(u: u8) -> i8 {
    (u ^ DATA_BIAS) as i8
}

/// Below this many multiply-accumulates per N-tile, `threads: 0` (auto)
/// stays serial: spawn cost would dominate (the FC and routing layers
/// issue thousands of sub-millisecond matmuls).
const AUTO_MIN_MACS: u128 = 1 << 23;

/// The row-level kernel chosen for one staged K-tile.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) enum RowKernel {
    /// Dense 16-lane sweep over byte weight quads against biased data
    /// bytes: AVX-512/VNNI `vpdpbusd` where the host has it, AVX2
    /// `vpmaddwd` on bytes widened in registers otherwise.
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

/// One 64-byte SIMD weight operand, a quad of taps for all 16 columns:
/// bytes `4c .. 4c + 4` (lane `c`) hold four consecutive taps of column
/// `c`. The alignment makes every load one whole cache line.
#[repr(align(64))]
#[derive(Copy, Clone)]
struct Quad([i8; QUAD_TAPS * LANES]);

/// The SIMD sweep body the host runs, by the runtime feature tests the
/// kernel dispatch itself makes ([`simd_body`]).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub enum SimdBody {
    /// `avx512f`, `avx512bw` and `avx512vnni`: `vpdpbusd` on zmm
    /// registers, 16 columns and four taps per instruction.
    Avx512Vnni,
    /// `avx2` alone: the bytes widened in registers, `vpmaddwd`.
    Avx2,
    /// No SIMD body: every tile takes the scalar fold.
    Scalar,
}

impl SimdBody {
    /// The body's name for logs: `AVX-512 VNNI`, `AVX2` or `scalar`.
    pub fn label(self) -> &'static str {
        match self {
            SimdBody::Avx512Vnni => "AVX-512 VNNI",
            SimdBody::Avx2 => "AVX2",
            SimdBody::Scalar => "scalar",
        }
    }
}

/// The SIMD sweep body this host runs when SIMD is on
/// ([`SimdMode::Auto`]): the one function both the kernel dispatch and
/// anything that reports the body read.
pub fn simd_body() -> SimdBody {
    #[cfg(target_arch = "x86_64")]
    {
        if avx2::avx512_available() {
            return SimdBody::Avx512Vnni;
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return SimdBody::Avx2;
        }
    }
    SimdBody::Scalar
}

/// The row kernel for a K-tile of height `kt` in an N-tile of width
/// `nt` whose tallest K-tile is `tallest` rows, on a host where the
/// SIMD sweep may run iff `simd_ok` — a function of tile shape and host
/// alone (bit-identical either way, a speed choice only).
///
/// Every K-tile of one N-tile lands in the same family: an N-tile with
/// any tile tall enough to clip in-tile runs all its tiles on the
/// general path, so SIMD tiles never share a row sweep with
/// [`RowKernel::MacSerial`].
fn select_kernel(kt: usize, nt: usize, tallest: usize, simd_ok: bool) -> RowKernel {
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
    /// Start of the packed weights: an index into [`TileBuf::quads`]
    /// for the SIMD sweep, into [`TileBuf::w`] for the scalar kernels.
    off: usize,
    /// A SIMD tile's psum seed per column, `−128·Σw` over the tile's
    /// taps: it cancels the bias of the data bytes, so the biased dot
    /// product ends at exactly `Σ d·w`. Zero on scalar tiles.
    // Read only by the SIMD kernels.
    #[allow(dead_code)]
    seed: [i32; LANES],
}

/// The current N-tile's staged K-tiles, packed straight from a
/// [`WeightView`] into the one layout their kernel reads:
///
/// - The SIMD sweep gets `⌈kt/4⌉` [`Quad`]s per tile: lane `c` of quad
///   `q` holds taps `4q .. 4q + 4` of column `c`, and the padded taps of
///   a `kt % 4` tail are zero weights. Each tile also carries its psum
///   seed ([`KTile::seed`]).
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
    quads: Vec<Quad>,
}

impl TileBuf {
    /// Empties the buffer for an N-tile of width `nt`.
    fn begin(&mut self, nt: usize) {
        self.nt = nt;
        self.tiles.clear();
        self.w.clear();
        self.quads.clear();
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

    /// A SIMD tile's weight quads.
    fn quads(&self, t: &KTile) -> &[Quad] {
        &self.quads[t.off..t.off + t.kt.div_ceil(QUAD_TAPS)]
    }

    /// Stages K-tile `k0 .. k0 + kt` of the N-tile starting at column
    /// `n0`, reading the weights straight from `weight` into the layout
    /// `kernel` consumes.
    fn stage(
        &mut self,
        weight: &WeightView<'_>,
        k0: usize,
        kt: usize,
        n0: usize,
        kernel: RowKernel,
    ) {
        let nt = self.nt;
        let mut seed = [0; LANES];
        let off = if kernel == RowKernel::Simd {
            debug_assert_eq!(nt, LANES);
            let off = self.quads.len();
            let zero = Quad([0; QUAD_TAPS * LANES]);
            self.quads.resize(off + kt.div_ceil(QUAD_TAPS), zero);
            let quads = &mut self.quads[off..];
            if weight.ks == 1 {
                // Unit stride along K (the `[out_ch][patch]` layouts):
                // each column's taps are one run, copied four at a time.
                for c in 0..LANES {
                    let run = &weight.src[(n0 + c) * weight.ns + k0..][..kt];
                    let taps = run.chunks_exact(QUAD_TAPS);
                    let tail = taps.remainder();
                    for (quad, taps) in quads.iter_mut().zip(taps) {
                        quad.0[QUAD_TAPS * c..][..QUAD_TAPS].copy_from_slice(taps);
                    }
                    if !tail.is_empty() {
                        let quad = &mut quads[kt / QUAD_TAPS];
                        quad.0[QUAD_TAPS * c..][..tail.len()].copy_from_slice(tail);
                    }
                }
            } else {
                for t in 0..kt {
                    let (quad, tap) = (&mut quads[t / QUAD_TAPS], t % QUAD_TAPS);
                    for c in 0..LANES {
                        quad.0[QUAD_TAPS * c + tap] = weight.at(k0 + t, n0 + c);
                    }
                }
            }
            seed = quad_sums(quads).map(|s| -i32::from(DATA_BIAS) * s);
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
            seed,
        });
    }

    /// Stages the whole N-tile of width `nt` at column `n0`: every
    /// K-tile of up to `rows` taps over `0..k`, in K order, each in the
    /// layout of the kernel [`select_kernel`] gives it.
    pub(crate) fn pack(
        &mut self,
        weight: &WeightView<'_>,
        k: usize,
        rows: usize,
        n0: usize,
        nt: usize,
        simd_ok: bool,
    ) {
        self.begin(nt);
        let tallest = rows.min(k);
        for k0 in (0..k).step_by(rows) {
            let kt = rows.min(k - k0);
            self.stage(weight, k0, kt, n0, select_kernel(kt, nt, tallest, simd_ok));
        }
    }
}

/// Each column's weight sum over a SIMD tile's quads.
fn quad_sums(quads: &[Quad]) -> [i32; LANES] {
    #[cfg(target_arch = "x86_64")]
    if std::arch::is_x86_feature_detected!("avx2") {
        return avx2::quad_sums(quads);
    }
    let mut sums = [0; LANES];
    for quad in quads {
        for (sum, lane) in sums.iter_mut().zip(quad.0.chunks_exact(QUAD_TAPS)) {
            *sum += lane.iter().map(|&w| i32::from(w)).sum::<i32>();
        }
    }
    sums
}

/// The functional backend's reusable host buffers: the data panel,
/// the current N-tile's staged weights and accumulator set, the
/// matmul's bias row, the serial sweep's scalar scratch, and routing's
/// staged `û`. The accelerator owns one, lends it to every matmul call,
/// and drops it at each layer boundary of a batch run.
#[derive(Default)]
pub(crate) struct Staging {
    /// Row-major `batch·M × K` data panel of biased bytes, then
    /// [`PANEL_PAD`] zero bytes, written only by [`Staging::gather`]:
    /// the SIMD sweep reads each four adjacent bytes as one `i32`
    /// broadcast operand, and the scalar folds read the same rows.
    pub panel: Vec<u8>,
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
    /// Routing's `û` of the current image, staged once in each of the
    /// two layouts its steps read, indexed by [`UHatPacking::index`]:
    /// one staged N-tile per (class, N-tile), class-major.
    pub u_hat: [Vec<TileBuf>; 2],
}

/// The two packings of routing's `û` ([`Staging::u_hat`]).
#[derive(Copy, Clone, Debug)]
pub(crate) enum UHatPacking {
    /// Sum's: per class, lanes are the output dims and taps the
    /// capsules.
    Sum,
    /// Update's transposed one: per class, N-tiles over the capsules,
    /// whose lanes are capsules and whose taps are the dims.
    Update,
}

impl UHatPacking {
    /// The packing's index into [`Staging::u_hat`].
    pub(crate) fn index(self) -> usize {
        match self {
            UHatPacking::Sum => 0,
            UHatPacking::Update => 1,
        }
    }
}

impl Staging {
    /// Gathers `data`'s whole batch into the panel, reading every
    /// source `off` elements further in: row-major `batch·M × K`,
    /// image-major (row `img·M + m`), each datum as its biased byte,
    /// then the [`PANEL_PAD`] zero bytes.
    pub(crate) fn gather(&mut self, data: &DataView<'_>, off: usize) {
        let panel = &mut self.panel;
        panel.clear();
        panel.reserve(data.batch() * data.m() * data.k() + PANEL_PAD);
        for row in data.panel_rows(off) {
            panel.extend(row.map(biased));
        }
        panel.extend([0; PANEL_PAD]);
    }
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
/// Auto` on a host with a SIMD body (scalar fallback everywhere else —
/// non-x86_64 targets, feature-less hosts, `SimdMode::Scalar`).
pub(crate) fn simd_enabled(opts: FunctionalOptions) -> bool {
    opts.simd == SimdMode::Auto && simd_body() != SimdBody::Scalar
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
    panel: &[u8],
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
    row: &[u8],
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
                for (r, &u) in drow.iter().enumerate() {
                    let (d, w) = (datum(u), w[r * nt + c]);
                    if d != 0 && w != 0 {
                        psum = Pe::mac_step(psum, d, w);
                    }
                }
                fold_scalar(a, e, psum);
            }
        } else if nt == 1 {
            let psum: i32 = drow
                .iter()
                .zip(w)
                .map(|(&u, &w)| i32::from(datum(u)) * i32::from(w))
                .sum();
            fold_scalar(&mut acc[0], &mut clips[0], i64::from(psum));
        } else {
            let psums = &mut scratch[..nt];
            psums.fill(0);
            for (&u, wrow) in drow.iter().zip(w.chunks_exact(nt)) {
                if u != DATA_BIAS {
                    let d = i32::from(datum(u));
                    for (p, &w) in psums.iter_mut().zip(wrow) {
                        *p += d * i32::from(w);
                    }
                }
            }
            for ((a, e), &p) in acc.iter_mut().zip(clips.iter_mut()).zip(psums.iter()) {
                fold_scalar(a, e, i64::from(p));
            }
        }
    }
}

/// The SIMD sweep: byte weight quads against the broadcast biased data
/// bytes of a quad of taps, 16 output columns per row, each tile's
/// psum seeded with its `−128·Σw` correction, with the K-tile
/// saturating fold done in 32-bit lanes (clamp to ±2^24 via min/max —
/// exact by the `i32` bound above). It has two bodies: the
/// AVX-512/VNNI sweep (`vpdpbusd`) where the host has it, and the AVX2
/// tile sweep (`vpmaddwd` on bytes widened in registers), the only
/// SIMD path of an AVX2-only host.
/// The only module in the crate allowed to use `unsafe`, and only for
/// the feature-gated intrinsics.
#[cfg(target_arch = "x86_64")]
// lint:allow(unsafe-containment, the crate-level deny is re-allowed only here: runtime-feature-gated SIMD intrinsics with SAFETY-commented call sites)
#[allow(unsafe_code)]
mod avx2 {
    use super::{simd_body, KTile, Quad, SimdBody, TileBuf, LANES, PANEL_PAD, QUAD_TAPS};
    use std::arch::x86_64::{
        __m256i, _mm256_add_epi32, _mm256_cmpeq_epi32, _mm256_cvtepi8_epi16, _mm256_cvtepu8_epi16,
        _mm256_hadd_epi32, _mm256_load_si256, _mm256_loadu_si256, _mm256_madd_epi16,
        _mm256_maddubs_epi16, _mm256_max_epi32, _mm256_min_epi32, _mm256_permute4x64_epi64,
        _mm256_set1_epi16, _mm256_set1_epi32, _mm256_set1_epi8, _mm256_setzero_si256,
        _mm256_storeu_si256, _mm512_add_epi32, _mm512_cmpneq_epi32_mask, _mm512_dpbusd_epi32,
        _mm512_load_si512, _mm512_loadu_si512, _mm512_mask_add_epi32, _mm512_max_epi32,
        _mm512_min_epi32, _mm512_set1_epi32, _mm512_setzero_si512, _mm512_storeu_si512,
        _mm_load_si128, _mm_set1_epi32,
    };

    /// 25-bit clamp bounds in every 32-bit lane.
    const SAT_MAX: i32 = (1 << 24) - 1;
    const SAT_MIN: i32 = -(1 << 24);

    /// Data rows the sweeps fold per weight-vector load. Four rows run
    /// four independent `vpdpbusd` chains per quad in the zmm body, and
    /// in the AVX2 body use 8 accumulator registers + 2 weight
    /// registers per column half.
    const SIMD_ROW_BLOCK: usize = 4;

    /// Sweeps rows `ri0 .. ri0 + nrows` through the widest body the
    /// host supports ([`simd_body`], read once per call). SIMD tiles
    /// exist only on a host with a SIMD body (`select_kernel` runs
    /// them under `simd_enabled`); each body asserts its own features,
    /// which keeps the intrinsics sound if that rule is ever broken.
    ///
    /// `panel` is the biased data panel: each four adjacent bytes are
    /// one little-endian `i32`, so the kernel broadcasts a data quad
    /// with a single memory-operand `vpbroadcastd`.
    pub(super) fn sweep_rows(
        k: usize,
        tiles: &TileBuf,
        panel: &[u8],
        ri0: usize,
        nrows: usize,
        acc: &mut [i32],
        events: &mut [i32],
    ) {
        if simd_body() == SimdBody::Avx512Vnni {
            assert_row_lanes(nrows, acc, events);
            assert_panel_rows(k, ri0 + nrows, panel);
            // SAFETY: the `avx512*`/`avx512vnni` features were
            // runtime-detected just above (`simd_body`), both lane
            // buffers hold exactly `nrows` rows and the panel holds
            // every swept row plus its padding (asserted just above).
            unsafe { sweep_dense_512(k, tiles, panel, ri0, nrows, acc, events) }
        } else {
            sweep_rows_avx2(k, tiles, panel, ri0, nrows, acc, events);
        }
    }

    /// The AVX2 body, K-tile–outer so one staged tile stays
    /// cache-resident while every row streams against it; the caller's
    /// zeroed accumulator and clip-count lanes are folded in place at
    /// each tile — the fold order per element is still tile-ascending,
    /// identical to the serial chain.
    pub(super) fn sweep_rows_avx2(
        k: usize,
        tiles: &TileBuf,
        panel: &[u8],
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
        assert_panel_rows(k, ri0 + nrows, panel);
        for t in tiles.tiles() {
            // SAFETY: `avx2` was runtime-detected, both lane buffers
            // hold exactly `nrows` rows and the panel holds every swept
            // row plus its padding (asserted just above).
            unsafe { tile_sweep(t, tiles.quads(t), panel, k, ri0, nrows, acc, events) };
        }
    }

    /// Each column's weight sum over a tile's quads: `vpmaddubsw`
    /// against ones adds each byte pair of a column's lane into `i16`
    /// (at most 2·128 in magnitude, never saturating), and `vpmaddwd`
    /// against ones adds the lane's two pairs into the column's `i32`.
    pub(super) fn quad_sums(quads: &[Quad]) -> [i32; LANES] {
        assert!(
            std::arch::is_x86_feature_detected!("avx2"),
            "AVX2 quad sums on a host without avx2"
        );
        // SAFETY: `avx2` was runtime-detected just above.
        unsafe { quad_sums_avx2(quads) }
    }

    /// [`quad_sums`]' body.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`.
    #[target_feature(enable = "avx2")]
    unsafe fn quad_sums_avx2(quads: &[Quad]) -> [i32; LANES] {
        let (ones8, ones16) = (_mm256_set1_epi8(1), _mm256_set1_epi16(1));
        let mut sums = [_mm256_setzero_si256(); 2];
        for quad in quads {
            for (h, sum) in sums.iter_mut().enumerate() {
                let w = _mm256_load_si256(quad.0.as_ptr().add(32 * h).cast());
                let pairs = _mm256_maddubs_epi16(ones8, w);
                *sum = _mm256_add_epi32(*sum, _mm256_madd_epi16(pairs, ones16));
            }
        }
        let mut out = [0; LANES];
        for (h, sum) in sums.into_iter().enumerate() {
            _mm256_storeu_si256(out.as_mut_ptr().add(8 * h).cast(), sum);
        }
        out
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

    /// The SIMD bodies read each tile's data a whole quad at a time,
    /// up to [`PANEL_PAD`] bytes past the tile, so the panel must hold
    /// its first `rows` rows of `k` bytes plus the padding.
    fn assert_panel_rows(k: usize, rows: usize, panel: &[u8]) {
        assert!(
            panel.len() >= rows * k + PANEL_PAD,
            "a SIMD sweep of {rows} rows of {k} bytes needs a padded panel of {} bytes, got {}",
            rows * k + PANEL_PAD,
            panel.len()
        );
    }

    /// The data of `rows` consecutive panel rows (`stride` bytes apart)
    /// that a tile of `quads` quads reads, starting at byte `base`:
    /// every quad of the last row, padded taps included.
    fn tile_rows(panel: &[u8], base: usize, stride: usize, rows: usize, quads: usize) -> &[u8] {
        &panel[base..base + (rows - 1) * stride + quads * QUAD_TAPS]
    }

    /// Reads data quad `q` of a row's tile slice as one little-endian
    /// `i32` (lanes `[d0, d1, d2, d3]` as biased bytes — exactly the
    /// `vpbroadcastd` operand).
    ///
    /// # Safety
    ///
    /// Bytes `4q .. 4q + 4` past `data` must be in bounds of the slice
    /// it points into.
    #[inline]
    unsafe fn data_quad(data: *const u8, q: usize) -> i32 {
        data.add(QUAD_TAPS * q).cast::<i32>().read_unaligned()
    }

    /// Runtime check for the zmm sweep profile: foundation ops
    /// (`avx512f`), zmm byte lanes (`avx512bw`), and the fused
    /// multiply-accumulate `vpdpbusd` (`avx512vnni`).
    pub(super) fn avx512_available() -> bool {
        std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
    }

    /// Dense zmm sweep over all rows and every K-tile: rows go in
    /// blocks of [`SIMD_ROW_BLOCK`] (remainder rows one at a time).
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
        panel: &[u8],
        ri0: usize,
        nrows: usize,
        acc_out: &mut [i32],
        ev_out: &mut [i32],
    ) {
        let mut r = 0;
        while r + SIMD_ROW_BLOCK <= nrows {
            let lanes = r * LANES..;
            rows_512::<SIMD_ROW_BLOCK>(
                k,
                tiles,
                panel,
                ri0 + r,
                &mut acc_out[lanes.clone()],
                &mut ev_out[lanes],
            );
            r += SIMD_ROW_BLOCK;
        }
        while r < nrows {
            let lanes = r * LANES..;
            rows_512::<1>(
                k,
                tiles,
                panel,
                ri0 + r,
                &mut acc_out[lanes.clone()],
                &mut ev_out[lanes],
            );
            r += 1;
        }
    }

    /// `ROWS` consecutive panel rows from global row `row` through
    /// every K-tile, with each row's 16 `i32` accumulator lanes, tile
    /// psums and clip-event counts held in zmm registers across the
    /// whole fold chain. Each tile's psums start at its seed, and each
    /// [`Quad`] is one 64-byte `vpdpbusd` operand whose `i32` lanes are
    /// exactly the 16 output columns: four biased data bytes times four
    /// signed weight bytes per lane.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified [`avx512_available`]; both
    /// lane buffers must hold at least `ROWS · LANES` elements.
    #[target_feature(enable = "avx512f,avx512bw,avx512vnni")]
    #[inline]
    unsafe fn rows_512<const ROWS: usize>(
        k: usize,
        tiles: &TileBuf,
        panel: &[u8],
        row: usize,
        acc_out: &mut [i32],
        ev_out: &mut [i32],
    ) {
        let vmax = _mm512_set1_epi32(SAT_MAX);
        let vmin = _mm512_set1_epi32(SAT_MIN);
        let ones = _mm512_set1_epi32(1);
        let mut acc = [_mm512_setzero_si512(); ROWS];
        let mut ev = acc;
        for t in tiles.tiles() {
            let quads = tiles.quads(t);
            let data = tile_rows(panel, row * k + t.k0, k, ROWS, quads.len()).as_ptr();
            let mut psum = [_mm512_loadu_si512(t.seed.as_ptr().cast()); ROWS];
            for (q, w) in quads.iter().enumerate() {
                let w = _mm512_load_si512(w.0.as_ptr().cast());
                for (j, ps) in psum.iter_mut().enumerate() {
                    let dd = _mm512_set1_epi32(data_quad(data.add(j * k), q));
                    *ps = _mm512_dpbusd_epi32(*ps, dd, w);
                }
            }
            for j in 0..ROWS {
                let raw = _mm512_add_epi32(acc[j], psum[j]);
                let sat = _mm512_max_epi32(_mm512_min_epi32(raw, vmax), vmin);
                let clipped = _mm512_cmpneq_epi32_mask(raw, sat);
                ev[j] = _mm512_mask_add_epi32(ev[j], clipped, ev[j], ones);
                acc[j] = sat;
            }
        }
        for j in 0..ROWS {
            _mm512_storeu_si512(acc_out.as_mut_ptr().add(j * LANES).cast(), acc[j]);
            _mm512_storeu_si512(ev_out.as_mut_ptr().add(j * LANES).cast(), ev[j]);
        }
    }

    /// Streams every row's slice of one K-tile against the resident
    /// weight quads and folds the finished psums into the `i32`
    /// accumulator and clip-count lanes. Rows go through in blocks of
    /// [`SIMD_ROW_BLOCK`], each weight vector widened once per block;
    /// remainder rows go one at a time. The in-tile `i32` dot product is
    /// order-free, so the psums are bit-identical either way.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; both lane buffers must
    /// hold `nrows · LANES` elements.
    #[target_feature(enable = "avx2")]
    #[allow(clippy::too_many_arguments)]
    unsafe fn tile_sweep(
        t: &KTile,
        quads: &[Quad],
        panel: &[u8],
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
            let psums = tile_psums::<SIMD_ROW_BLOCK>(t, quads, panel, base, k);
            for (j, &psum) in psums.iter().enumerate() {
                fold_row(acc, events, r + j, psum, vmax, vmin, ones);
            }
            r += SIMD_ROW_BLOCK;
        }
        while r < nrows {
            let [psum] = tile_psums::<1>(t, quads, panel, (ri0 + r) * k + t.k0, k);
            fold_row(acc, events, r, psum, vmax, vmin, ones);
            r += 1;
        }
    }

    /// Folds one row's finished tile psums (columns 0–7, 8–15) into its
    /// `i32` accumulator and clip-count lanes (saturating fold in
    /// 32-bit lanes: raw = acc + psum is in range by the ±2^25 bound;
    /// clamp; `cmpeq + 1` is the per-lane clip indicator).
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`; row `r` must be in
    /// bounds of both lane buffers.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn fold_row(
        acc: &mut [i32],
        events: &mut [i32],
        r: usize,
        psum: [__m256i; 2],
        vmax: __m256i,
        vmin: __m256i,
        ones: __m256i,
    ) {
        let accp: *mut i32 = acc.as_mut_ptr().add(r * LANES);
        let evp: *mut i32 = events.as_mut_ptr().add(r * LANES);
        for (h, psum) in psum.into_iter().enumerate() {
            let (accp, evp) = (accp.add(8 * h), evp.add(8 * h));
            let raw = _mm256_add_epi32(_mm256_loadu_si256(accp.cast()), psum);
            let sat = _mm256_max_epi32(_mm256_min_epi32(raw, vmax), vmin);
            _mm256_storeu_si256(accp.cast(), sat);
            let clip = _mm256_add_epi32(_mm256_cmpeq_epi32(raw, sat), ones);
            let ev = _mm256_add_epi32(_mm256_loadu_si256(evp.cast()), clip);
            _mm256_storeu_si256(evp.cast(), ev);
        }
    }

    /// One tile's exact dot products for `ROWS` rows at once, starting
    /// at panel byte `base`, consecutive rows `stride` bytes apart.
    /// Column half `h` (columns `8h .. 8h + 8`) is bytes `32h .. 32h +
    /// 32` of each quad: `vpmovsxbw` widens them to two vectors of four
    /// columns' four taps, `vpmovzxbw` widens the row's broadcast data
    /// quad, and `vpmaddwd` leaves each column two `i32` lanes of
    /// pair sums (a u8·s8 pair sum is below 2^16, exact). The lanes are
    /// summed once per tile (`vphaddd`, then a qword permute back to
    /// column order) and seeded with the tile's correction.
    ///
    /// # Safety
    ///
    /// Caller must have runtime-verified `avx2`.
    #[target_feature(enable = "avx2")]
    #[inline]
    unsafe fn tile_psums<const ROWS: usize>(
        t: &KTile,
        quads: &[Quad],
        panel: &[u8],
        base: usize,
        stride: usize,
    ) -> [[__m256i; 2]; ROWS] {
        let data = tile_rows(panel, base, stride, ROWS, quads.len()).as_ptr();
        let zero = _mm256_setzero_si256();
        let mut psums = [[zero; 2]; ROWS];
        for h in 0..2 {
            let mut lanes = [(zero, zero); ROWS];
            for (q, quad) in quads.iter().enumerate() {
                let w = quad.0.as_ptr().add(32 * h);
                let w0 = _mm256_cvtepi8_epi16(_mm_load_si128(w.cast()));
                let w1 = _mm256_cvtepi8_epi16(_mm_load_si128(w.add(16).cast()));
                for (j, l) in lanes.iter_mut().enumerate() {
                    let quad = _mm_set1_epi32(data_quad(data.add(j * stride), q));
                    let d = _mm256_cvtepu8_epi16(quad);
                    l.0 = _mm256_add_epi32(l.0, _mm256_madd_epi16(d, w0));
                    l.1 = _mm256_add_epi32(l.1, _mm256_madd_epi16(d, w1));
                }
            }
            // `vphaddd` sums each column's two lanes but interleaves
            // the halves' qwords as columns [0 1 4 5 | 2 3 6 7];
            // `vpermq` [0, 2, 1, 3] puts them back in order.
            let seed = _mm256_loadu_si256(t.seed.as_ptr().add(8 * h).cast());
            for (psum, l) in psums.iter_mut().zip(lanes) {
                let sums = _mm256_hadd_epi32(l.0, l.1);
                let sums = _mm256_permute4x64_epi64::<0b11_01_10_00>(sums);
                psum[h] = _mm256_add_epi32(seed, sums);
            }
        }
        psums
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

    /// The panel stages each datum as its biased byte, row-major and
    /// image-major, then the zero padding, and every byte reads back
    /// as the datum it came from.
    #[test]
    fn gather_stages_biased_bytes_then_padding() {
        let a: Vec<i8> = vec![-128, -1, 0, 1, 127, 5];
        let b: Vec<i8> = vec![7, -7, 100, -100, 3, -3];
        let src = [a.as_slice(), b.as_slice()];
        let data = DataView {
            src: &src,
            rows: &[0, 2],
            cols: &[0, 2],
        };
        let mut st = Staging::default();
        st.gather(&data, 1);
        let want: [i8; 8] = [-1, 1, 1, 5, -7, -100, -100, -3];
        let bytes: Vec<u8> = want.iter().map(|&d| (d as u8) ^ 0x80).collect();
        assert_eq!(&st.panel[..8], bytes.as_slice());
        assert_eq!(&st.panel[8..], [0; PANEL_PAD]);
        for (&u, &d) in st.panel.iter().zip(&want) {
            assert_eq!(datum(u), d);
        }
        assert_eq!((biased(-128), biased(0), biased(127)), (0, DATA_BIAS, 255));
    }

    /// SIMD staging packs four taps of column `c` into lane `c` of each
    /// quad, zero-pads the `kt % 4` tail, and seeds each column with
    /// `−128·Σw`; the scalar tile reads back row-major — from a
    /// unit-stride (`[column][k]`) view and a strided (`[k][column]`)
    /// view of the same matrix alike, for the tile at a non-zero
    /// offset in each buffer and every tail length.
    #[test]
    fn quad_weights_pack_four_taps_per_lane() {
        let (k, k0) = (9, 3);
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
        assert_eq!(std::mem::align_of::<Quad>(), 64);
        for view in &views {
            for kt in 1..=k - k0 {
                let mut buf = TileBuf::default();
                buf.begin(LANES);
                // Stage a leading tile first so the checked one sits at
                // a non-zero offset in each buffer.
                buf.stage(view, 0, k0, 0, RowKernel::Simd);
                buf.stage(view, k0, kt, 0, RowKernel::Simd);
                buf.stage(view, 0, k0, 0, RowKernel::General);
                buf.stage(view, k0, kt, 0, RowKernel::General);
                let [_, simd, _, scalar] = buf.tiles() else {
                    panic!("four staged tiles")
                };
                assert_eq!(simd.off, 1, "kt {kt}");
                let quads = buf.quads(simd);
                assert_eq!(quads.len(), kt.div_ceil(4), "kt {kt}");
                for c in 0..LANES {
                    for tap in 0..quads.len() * 4 {
                        let want = if tap < kt { w(k0 + tap, c) } else { 0 };
                        assert_eq!(quads[tap / 4].0[4 * c + tap % 4], want, "kt {kt} c {c}");
                    }
                    let sum: i32 = (0..kt).map(|r| i32::from(w(k0 + r, c))).sum();
                    assert_eq!(simd.seed[c], -128 * sum, "kt {kt} c {c}");
                }
                assert_eq!(scalar.seed, [0; LANES]);
                let want: Vec<i8> = (0..kt * LANES)
                    .map(|i| w(k0 + i / LANES, i % LANES))
                    .collect();
                assert_eq!(buf.w(scalar), want.as_slice());
            }
        }
    }

    /// Every SIMD body the host supports — the AVX2 tile sweep and the
    /// AVX-512 sweep — agrees element-for-element (values *and* clip
    /// events) with the general scalar path, on five distinct rows so
    /// both the 4-row blocks and the remainder-row kernels run:
    /// folds that clip at tile boundaries, every tile height 1..=16
    /// (every tail length of a quad), a tile where the data extremes
    /// −128 and 127 (bytes 0 and 255) each meet both weight extremes,
    /// and a last tile whose tail quad ends at the panel's padded end.
    #[cfg(target_arch = "x86_64")]
    #[test]
    fn simd_bodies_match_scalar_row() {
        if simd_body() == SimdBody::Scalar {
            return; // scalar-only host: the fallback is the only path
        }
        let mut state = 0x9e3779b97f4a7c15u64;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 56) as i8
        };
        // Tall-ish tiles of ±127 blocks so K-tile folds clip, a random
        // tile, every height 1..=16, the 8-tap extremes tile, and a
        // 5-tap last tile: its tail quad reads 3 bytes past the row,
        // which on the last row are the panel's padding.
        let mut heights = vec![1023usize, 1023, 777];
        heights.extend(1..=16);
        heights.extend([8, 5]);
        let k: usize = heights.iter().sum();
        let extremes = k - 13..k - 5;
        // Rows 0–3 open with the ±127 blocks (clipping up on even rows,
        // down on odd ones); row 2's random part is zero-heavy; row 4
        // is random throughout. Every row meets the extremes tile.
        let rows = 5;
        let data: Vec<i8> = (0..rows * k)
            .map(|i| {
                let (r, c, d) = (i / k, i % k, next());
                match r {
                    _ if extremes.contains(&c) => [-128, 127][(c + r) % 2],
                    0 | 2 if c < 2046 => 127,
                    1 | 3 if c < 2046 => -127,
                    2 if d % 2 == 0 => 0,
                    _ => d,
                }
            })
            .collect();
        let w: Vec<i8> = (0..k * LANES)
            .map(|i| {
                let (kr, c) = (i / LANES, i % LANES);
                if extremes.contains(&kr) {
                    [-128, 127][(kr / 2 + c) % 2]
                } else if kr < 2046 {
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
        let src = [data.as_slice()];
        let row_starts: Vec<usize> = (0..rows).map(|r| r * k).collect();
        let cols: Vec<usize> = (0..k).collect();
        let mut st = Staging::default();
        st.gather(
            &DataView {
                src: &src,
                rows: &row_starts,
                cols: &cols,
            },
            0,
        );
        let panel = st.panel;
        assert_eq!(panel.len(), rows * k + PANEL_PAD);
        let stage = |kernel: RowKernel| {
            let mut buf = TileBuf::default();
            buf.begin(LANES);
            let mut k0 = 0;
            for &kt in &heights {
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
        let last = tiles.tiles().last().expect("staged tiles");
        assert_eq!(
            (rows - 1) * k + last.k0 + 4 * tiles.quads(last).len(),
            panel.len(),
            "the last row's tail quad ends at the padded end"
        );
        type Body = fn(usize, &TileBuf, &[u8], usize, usize, &mut [i32], &mut [i32]);
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
