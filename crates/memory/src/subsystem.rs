//! The memory subsystem behind the engine's tile schedule.

use crate::dram::DramConfig;
use crate::prefetch::PrefetchPipeline;
use crate::report::{MemReport, SpmKind};
use crate::spm::SpmConfig;
use capsacc_faults::FaultPlan;
use capsacc_telemetry::Recorder;
use capsacc_tensor::{checked_product_u64, u64_from};
use std::ops::Range;
use std::sync::Arc;

/// Bytes one 25-bit accumulator entry occupies in the Accumulator SPM
/// (padded to a 32-bit word).
pub const ACC_ENTRY_BYTES: u64 = 4;

/// Fidelity of the memory model.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemoryMode {
    /// "IdealMemory": infinite bandwidth, zero latency. Traffic and
    /// activity counters still accumulate, but every stall is zero —
    /// this reproduces the pre-memory engine's cycle counts exactly.
    Ideal,
    /// The full banked-SPM + DRAM + prefetch model.
    Modeled,
}

/// Static configuration of the whole hierarchy.
///
/// # Example
///
/// ```
/// use capsacc_memory::{MemoryConfig, MemoryMode};
/// let ideal = MemoryConfig::ideal();
/// assert_eq!(ideal.mode, MemoryMode::Ideal);
/// let paper = MemoryConfig::paper();
/// assert_eq!(paper.mode, MemoryMode::Modeled);
/// paper.validate().expect("paper memory config is valid");
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemoryConfig {
    /// Model fidelity.
    pub mode: MemoryMode,
    /// The Data Buffer scratchpad.
    pub data_spm: SpmConfig,
    /// The Weight Buffer scratchpad (target of the DRAM prefetcher).
    pub weight_spm: SpmConfig,
    /// The Accumulator scratchpad.
    pub acc_spm: SpmConfig,
    /// The off-chip channel.
    pub dram: DramConfig,
    /// Tile-buffer slots in the weight prefetcher (1 = no prefetch,
    /// 2 = double-buffered).
    pub prefetch_buffers: usize,
    /// DESCNet-style sector power gating: idle SPM banks drop to
    /// retention leakage (an energy-model switch; it does not change
    /// timing).
    pub power_gating: bool,
}

impl MemoryConfig {
    /// The finite design point matched to the paper's Table II buffers:
    /// 256 KiB / 24 KiB / 8 KiB scratchpads with enough bank-port
    /// bandwidth for the 16×16 array, a double-buffered weight
    /// prefetcher and an LPDDR-class DRAM channel.
    pub fn paper() -> Self {
        Self {
            mode: MemoryMode::Modeled,
            data_spm: SpmConfig {
                bytes: 256 * 1024,
                banks: 8,
                ports_per_bank: 1,
                word_bytes: 8,
            },
            weight_spm: SpmConfig {
                bytes: 24 * 1024,
                banks: 4,
                ports_per_bank: 1,
                word_bytes: 4,
            },
            acc_spm: SpmConfig {
                bytes: 8 * 1024,
                banks: 4,
                ports_per_bank: 2,
                word_bytes: 16,
            },
            // 16 B/cycle at 250 MHz = 4 GB/s, 64 B bursts, ~0.5 µs
            // first-access latency.
            dram: DramConfig {
                latency_cycles: 120,
                bytes_per_cycle: 16,
                burst_bytes: 64,
            },
            prefetch_buffers: 2,
            power_gating: true,
        }
    }

    /// The "IdealMemory" configuration: same structural parameters as
    /// [`MemoryConfig::paper`] but with stalls disabled everywhere.
    pub fn ideal() -> Self {
        Self {
            mode: MemoryMode::Ideal,
            ..Self::paper()
        }
    }

    /// Whether this is the ideal (stall-free) model.
    pub fn is_ideal(&self) -> bool {
        self.mode == MemoryMode::Ideal
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint in any
    /// SPM, the DRAM channel or the prefetcher.
    pub fn validate(&self) -> Result<(), String> {
        self.data_spm.validate()?;
        self.weight_spm.validate()?;
        self.acc_spm.validate()?;
        self.dram.validate()?;
        if self.prefetch_buffers == 0 {
            return Err("at least one prefetch tile buffer required".into());
        }
        Ok(())
    }
}

impl Default for MemoryConfig {
    /// Ideal memory — the backward-compatible default.
    fn default() -> Self {
        Self::ideal()
    }
}

/// One tiled matmul as the engine schedules it: `batch · m` data rows
/// stream against `ceil(k/rows) × ceil(n/cols)` weight tiles, K-major
/// within each N-tile (the exact loop nest of
/// `Accelerator::matmul_batch` in `capsacc-core`).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MatmulGeometry {
    /// Streamed data rows per image.
    pub m: usize,
    /// Reduction length.
    pub k: usize,
    /// Output columns.
    pub n: usize,
    /// Images sharing the resident weight tiles.
    pub batch: usize,
    /// Systolic-array rows.
    pub rows: usize,
    /// Systolic-array columns.
    pub cols: usize,
    /// Whether the weight operand streams in from DRAM through the
    /// prefetcher (true for the network's parameter layers) or is
    /// already on chip (routing operands such as `û` and `v_j`).
    pub weights_offchip: bool,
    /// The tile schedule that prices the array cycles
    /// ([`MatmulGeometry::run_cycles`]) and sizes the per-tile window
    /// the prefetcher can hide DRAM fills behind. Both models pick it
    /// from the dataflow switches. The engine executes
    /// [`TileSchedule::Serial`] or [`TileSchedule::Pipelined`], and
    /// issues each call's matmuls as one run of tiles
    /// ([`MemorySubsystem::price_run`]); the closed form also prices
    /// [`TileSchedule::ReloadPerRow`], with one run per N-tile
    /// ([`MemorySubsystem::price`]).
    pub schedule: TileSchedule,
}

/// How consecutive weight tiles share the array (Sec. IV-A). A tile
/// loads in `R + 1` edges (skewed rows plus the latch) and streams its
/// `batch · m` data rows in `batch · m + R + C` edges, drain included.
/// [`MatmulGeometry::run_cycles`] prices a run of tiles under each
/// variant, and [`MatmulGeometry::run_windows`] splits it into the
/// per-tile windows the memory replay hides DRAM fills behind.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TileSchedule {
    /// Every tile pays its own load and drain: the next tile loads once
    /// the previous one has drained. The engine runs it when the
    /// dataflow switches or the Weight Buffer rule out pipelining.
    Serial,
    /// The paper's "full throttle" dataflow, which the engine executes:
    /// the next tile loads into `Weight1` while the current one streams
    /// against `Weight2`, and each PE latches it as the current tile's
    /// last data row passes. A run pays one fill and one drain, and
    /// each later tile costs the longer of its stream and its `R`-edge
    /// reload (the latch rides on the previous tile's last multiply).
    Pipelined,
    /// The weight-reuse ablation: the tile reloads before every data
    /// row and drains once per image, so each tile occupies the array
    /// far longer. Only the closed form prices it.
    ReloadPerRow,
}

impl MatmulGeometry {
    /// Weight tiles along K: the tiles of one N-tile.
    pub fn k_tiles(&self) -> usize {
        self.k.div_ceil(self.rows.max(1))
    }

    /// Weight tiles along N.
    pub fn n_tiles(&self) -> usize {
        self.n.div_ceil(self.cols.max(1))
    }

    /// Weight tiles of `groups` matmuls of this geometry.
    ///
    /// # Panics
    ///
    /// Panics if the count overflows `u64`.
    pub fn tiles(&self, groups: usize) -> u64 {
        checked_product_u64(
            "matmul tiles",
            &[
                u64_from(groups),
                u64_from(self.n_tiles()),
                u64_from(self.k_tiles()),
            ],
        )
    }

    /// One tile's edge counts: `R + 1` to load, `batch · m` data rows
    /// streamed, and `R + C` to drain them.
    fn edges(&self) -> (u64, u64, u64) {
        let (rows, cols) = (u64_from(self.rows), u64_from(self.cols));
        let stream =
            checked_product_u64("streamed rows", &[u64_from(self.batch), u64_from(self.m)]);
        (rows + 1, stream, rows + cols)
    }

    /// The edges between consecutive pipelined tiles: the longer of a
    /// stream and an `R`-edge reload.
    fn period(&self) -> u64 {
        let (_, stream, _) = self.edges();
        stream.max(u64_from(self.rows))
    }

    /// Array cycles of `tiles` weight tiles of this geometry issued back
    /// to back under [`MatmulGeometry::schedule`], each streaming every
    /// data row. Linear in `tiles` for [`TileSchedule::Serial`] and
    /// [`TileSchedule::ReloadPerRow`]; [`TileSchedule::Pipelined`] pays
    /// one fill and one drain, and each later tile costs the longer of
    /// its stream and its `R`-edge reload.
    ///
    /// # Panics
    ///
    /// Panics if the cycle count overflows `u64`.
    pub fn run_cycles(&self, tiles: u64) -> u64 {
        if tiles == 0 {
            return 0;
        }
        let (load, stream, drain) = self.edges();
        match self.schedule {
            TileSchedule::Serial => {
                checked_product_u64("serial tile run", &[tiles, load + stream + drain])
            }
            TileSchedule::Pipelined => {
                let steady = checked_product_u64("pipelined tile run", &[tiles - 1, self.period()]);
                load + stream + steady + drain
            }
            TileSchedule::ReloadPerRow => {
                let per_tile = checked_product_u64("per-row reloads", &[stream, load])
                    + stream
                    + checked_product_u64("per-image drains", &[u64_from(self.batch), drain]);
                checked_product_u64("reload-per-row tile run", &[tiles, per_tile])
            }
        }
    }

    /// Array cycles of the whole matmul as the closed form runs it: one
    /// run of [`MatmulGeometry::k_tiles`] tiles per N-tile.
    ///
    /// # Panics
    ///
    /// Panics if the cycle count overflows `u64`.
    pub fn array_cycles(&self) -> u64 {
        let run = self.run_cycles(u64_from(self.k_tiles()));
        checked_product_u64("matmul array cycles", &[u64_from(self.n_tiles()), run])
    }

    /// The array cycles tiles `span` of a run of `tiles` occupy. Each
    /// tile's share is the window the next tile's DRAM fill can hide
    /// behind: a serial or reload-per-row tile is a run of its own, and
    /// a pipelined run puts its fill on its first tile and its drain on
    /// its last. So the windows of a whole run are its
    /// [`MatmulGeometry::run_cycles`].
    ///
    /// # Panics
    ///
    /// Panics if the cycle count overflows `u64`.
    pub fn run_windows(&self, span: Range<u64>, tiles: u64) -> u64 {
        let count = span.end.saturating_sub(span.start);
        if count == 0 {
            return 0;
        }
        if self.schedule != TileSchedule::Pipelined {
            return checked_product_u64("tile windows", &[count, self.run_cycles(1)]);
        }
        let (load, stream, drain) = self.edges();
        let period = self.period();
        let fill = if span.start == 0 {
            load + stream - period
        } else {
            0
        };
        let tail = if span.end == tiles { drain } else { 0 };
        checked_product_u64("tile windows", &[count, period]) + fill + tail
    }
}

/// What a run of matmuls charges the memory hierarchy
/// ([`MemorySubsystem::price_run`]).
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RunPrice {
    /// The counter delta of the whole run, its stall included.
    pub total: MemReport,
    /// The stall cycles within each matmul's tiles, in issue order;
    /// they sum to `total.stall_cycles`.
    pub group_stalls: Arc<[u64]>,
}

/// One replay the subsystem remembers: `groups` matmuls of a geometry
/// whose tiles pay one fill and one drain per `run` tiles. Each matmul
/// restarts the prefetch timeline unless the schedule pipelines.
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
struct Replay {
    geometry: MatmulGeometry,
    groups: usize,
    run: u64,
}

/// Outcome of a fault-injected weight staging: the exposed cycles plus
/// how many bursts were retried at each layer of the hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct StageOutcome {
    /// Exposed cycles: the base fill plus every recovery re-transfer.
    pub cycles: u64,
    /// DRAM bursts that errored and crossed the channel again.
    pub dram_rebursts: u64,
    /// SPM sectors that failed parity and were re-staged from DRAM.
    pub spm_restages: u64,
}

/// Distinct replays whose outcome [`MemorySubsystem::price`] and
/// [`MemorySubsystem::price_run`] remember. A network issues three per
/// batch size (Conv1, PrimaryCaps, the ClassCaps FC) plus two shared
/// ones (routing's Sum and Update run per image, at batch 1), so a
/// serving worker that sees a few batch sizes keeps every one of them.
const REPLAY_MEMO: usize = 16;

/// The three scratchpads, the DRAM channel and the prefetcher, driven
/// through the same tile schedule by both the cycle-accurate engine and
/// the closed-form timing model.
#[derive(Clone, PartialEq, Debug)]
pub struct MemorySubsystem {
    cfg: MemoryConfig,
    pipeline: PrefetchPipeline,
    report: MemReport,
    /// The last replays with the counter delta and the per-matmul
    /// stalls each produced, oldest first.
    replays: Vec<(Replay, RunPrice)>,
}

impl MemorySubsystem {
    /// Builds a subsystem instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`MemoryConfig::validate`].
    pub fn new(cfg: MemoryConfig) -> Self {
        cfg.validate().expect("invalid memory configuration");
        Self {
            pipeline: PrefetchPipeline::new(cfg.prefetch_buffers),
            report: MemReport::default(),
            replays: Vec::new(),
            cfg,
        }
    }

    /// The configuration.
    pub fn config(&self) -> &MemoryConfig {
        &self.cfg
    }

    /// Cumulative counters since construction.
    pub fn report(&self) -> MemReport {
        self.report
    }

    /// Replays one matmul's tile schedule through the hierarchy as the
    /// closed form runs it ([`MemorySubsystem::price`]) and returns the
    /// stall cycles it adds on top of the compute schedule. Counters
    /// (traffic, busy cycles, off-chip bytes) accumulate in
    /// [`MemorySubsystem::report`]; under [`MemoryMode::Ideal`] the
    /// returned stall is always zero.
    pub fn matmul(&mut self, g: &MatmulGeometry) -> u64 {
        let delta = self.price(g);
        self.report.merge(&delta);
        delta.stall_cycles
    }

    /// What one matmul of `g` charges as the closed form runs it — its
    /// counter delta, stall included — without charging it. The
    /// prefetcher timeline restarts per matmul: the first tile pays its
    /// DRAM fill cold, and later fills overlap the previous tiles'
    /// compute. A pipelined matmul is one run of tiles per N-tile.
    ///
    /// So the delta is a function of the geometry (and the
    /// configuration) alone. The subsystem replays each one once and
    /// remembers the last 16 distinct replays (`REPLAY_MEMO`, oldest
    /// evicted first); a repeat returns the remembered delta, exactly
    /// what a fresh replay would. Charging `k` identical matmuls is
    /// then one [`MemorySubsystem::charge`] of the delta
    /// [`MemReport::scaled`] by `k`.
    pub fn price(&mut self, g: &MatmulGeometry) -> MemReport {
        let run = match g.schedule {
            TileSchedule::Pipelined => u64_from(g.k_tiles()),
            TileSchedule::Serial | TileSchedule::ReloadPerRow => 1,
        };
        self.remembered(Replay {
            geometry: *g,
            groups: 1,
            run,
        })
        .total
    }

    /// What `groups` matmuls of `g` issued back to back charge as the
    /// engine runs them, without charging it. Under
    /// [`TileSchedule::Pipelined`] the call is one prefetch stream and
    /// one run of all its tiles, whose windows are
    /// [`MatmulGeometry::run_windows`]'s. Otherwise each matmul restarts
    /// the prefetch timeline, so the run charges `groups` times
    /// [`MemorySubsystem::price`]'s delta. Remembered like `price`,
    /// per geometry and group count; the replay allocates nothing per
    /// tile.
    pub fn price_run(&mut self, g: &MatmulGeometry, groups: usize) -> RunPrice {
        let run = match g.schedule {
            TileSchedule::Pipelined => g.tiles(groups),
            TileSchedule::Serial | TileSchedule::ReloadPerRow => 1,
        };
        self.remembered(Replay {
            geometry: *g,
            groups,
            run,
        })
    }

    /// The remembered outcome of `r`, or a fresh replay whose counters
    /// are rolled back (and remembered).
    fn remembered(&mut self, r: Replay) -> RunPrice {
        if let Some((_, price)) = self.replays.iter().find(|(seen, _)| *seen == r) {
            return price.clone();
        }
        let before = self.report;
        let group_stalls = self.replay(&r);
        let price = RunPrice {
            total: self.report.since(&before),
            group_stalls,
        };
        self.report = before;
        if self.replays.len() == REPLAY_MEMO {
            self.replays.remove(0);
        }
        self.replays.push((r, price.clone()));
        price
    }

    /// Walks a replay's tiles through the hierarchy, group by group,
    /// and returns each group's stall cycles.
    fn replay(&mut self, r: &Replay) -> Arc<[u64]> {
        let g = &r.geometry;
        let kk = u64_from(g.k_tiles());
        // A run is one tile, or whole N-tiles: `blocks` of them. A
        // tile's window depends only on whether it opens and whether it
        // closes its run, so the four cases are priced once, outside the
        // tile loop.
        let single = r.run <= 1;
        let blocks = (r.run / kk.max(1)).max(1);
        let (alone, first, last, middle) = (
            g.run_windows(0..1, 1),
            g.run_windows(0..1, 2),
            g.run_windows(1..2, 2),
            g.run_windows(1..2, 3),
        );
        let mut stalls = Vec::with_capacity(r.groups);
        let mut block = 0u64;
        for group in 0..r.groups {
            if group == 0 || g.schedule != TileSchedule::Pipelined {
                self.pipeline.begin_stream();
            }
            let before = self.report.stall_cycles;
            for n0 in (0..g.n).step_by(g.cols.max(1)) {
                let nt = g.cols.min(g.n - n0);
                let (opens, closes) = (
                    block.is_multiple_of(blocks),
                    (block + 1).is_multiple_of(blocks),
                );
                block += 1;
                for (kt_idx, k0) in (0..g.k).step_by(g.rows.max(1)).enumerate() {
                    let kt = g.rows.min(g.k - k0);
                    let at = u64_from(kt_idx);
                    let compute = if single {
                        alone
                    } else {
                        match (at == 0 && opens, at + 1 == kk && closes) {
                            (true, true) => alone,
                            (true, false) => first,
                            (false, true) => last,
                            (false, false) => middle,
                        }
                    };
                    self.tile(kt, nt, kt_idx == 0, compute, g);
                }
            }
            stalls.push(self.report.stall_cycles - before);
        }
        stalls.into()
    }

    /// One weight tile: `kt × nt` weights loaded (from DRAM when
    /// off-chip), `batch · m` data rows of `kt` bytes streamed, and the
    /// accumulator FIFOs written (and read back when folding a non-first
    /// K-tile).
    fn tile(
        &mut self,
        kt: usize,
        nt: usize,
        first_fold: bool,
        compute_window: u64,
        g: &MatmulGeometry,
    ) {
        let weight_bytes = u64_from(kt * nt);
        let data_bytes = u64_from(g.batch * g.m * kt);
        let acc_write_bytes = u64_from(g.batch * g.m * nt) * ACC_ENTRY_BYTES;
        let acc_read_bytes = if first_fold { 0 } else { acc_write_bytes };

        let w_busy = self.cfg.weight_spm.burst_cycles(weight_bytes);
        let d_busy = self.cfg.data_spm.burst_cycles(data_bytes);
        let a_busy = self
            .cfg
            .acc_spm
            .burst_cycles(acc_write_bytes + acc_read_bytes);

        {
            let w = self.report.spm_mut(SpmKind::Weight);
            w.read_bytes += weight_bytes;
            w.busy_cycles += w_busy;
            if g.weights_offchip {
                w.write_bytes += weight_bytes; // the prefetcher's fill
            }
        }
        {
            let d = self.report.spm_mut(SpmKind::Data);
            d.read_bytes += data_bytes;
            d.busy_cycles += d_busy;
        }
        {
            let a = self.report.spm_mut(SpmKind::Accumulator);
            a.write_bytes += acc_write_bytes;
            a.read_bytes += acc_read_bytes;
            a.busy_cycles += a_busy;
        }
        if g.weights_offchip {
            self.report.dram_weight_bytes += weight_bytes;
        }
        if self.cfg.is_ideal() {
            return;
        }

        // Bank/port shortfalls: the array wants one nt-byte weight row
        // per load edge (kt edges) and kt data bytes + nt accumulator
        // entries per stream edge (batch·m edges).
        let weight_edges = u64_from(kt);
        let stream_edges = u64_from(g.batch * g.m);
        let bank_stall = w_busy.saturating_sub(weight_edges)
            + d_busy.saturating_sub(stream_edges)
            + a_busy.saturating_sub(stream_edges);

        // The tile's compute window, stretched by the bank stalls — all
        // of which the next tile's DRAM fill can hide behind.
        let compute = compute_window + bank_stall;
        let fill = if g.weights_offchip {
            self.cfg.dram.transfer_cycles(weight_bytes)
        } else {
            0
        };
        let outcome = self.pipeline.tile(fill, compute);

        self.report.bank_stall_cycles += bank_stall;
        self.report.prefetch_stall_cycles += outcome.stall_cycles;
        self.report.hidden_fill_cycles += outcome.hidden_cycles;
        self.report.stall_cycles += bank_stall + outcome.stall_cycles;
    }

    /// Stages `bytes` of input data from DRAM into the on-chip Data
    /// Memory (the per-batch image upload) and returns the exposed
    /// cycles (zero under [`MemoryMode::Ideal`]).
    pub fn stage_input(&mut self, bytes: u64) -> u64 {
        self.report.dram_data_bytes += bytes;
        let busy = self.cfg.data_spm.burst_cycles(bytes);
        let d = self.report.spm_mut(SpmKind::Data);
        d.write_bytes += bytes;
        d.busy_cycles += busy;
        if self.cfg.is_ideal() {
            return 0;
        }
        let cycles = self.cfg.dram.transfer_cycles(bytes);
        self.report.prefetch_stall_cycles += cycles;
        self.report.stall_cycles += cycles;
        cycles
    }

    /// Stages `bytes` of weight parameters from DRAM into the Weight
    /// SPM as one exposed bulk fill — nothing to hide the transfer
    /// behind — and returns the cycles it takes (zero under
    /// [`MemoryMode::Ideal`]).
    ///
    /// This is the cost of bringing a *cold* replica's weights
    /// on-chip: the serving layer charges it as autoscaler warmup when
    /// a new weight-resident worker spins up, with `bytes` equal to
    /// the network's `total_parameters()` so the fill is consistent
    /// with the engine's own `dram_weight_bytes` accounting.
    pub fn stage_weights(&mut self, bytes: u64) -> u64 {
        self.report.dram_weight_bytes += bytes;
        let busy = self.cfg.weight_spm.burst_cycles(bytes);
        let w = self.report.spm_mut(SpmKind::Weight);
        w.write_bytes += bytes;
        w.busy_cycles += busy;
        if self.cfg.is_ideal() {
            return 0;
        }
        let cycles = self.cfg.dram.transfer_cycles(bytes);
        self.report.prefetch_stall_cycles += cycles;
        self.report.stall_cycles += cycles;
        cycles
    }

    /// [`MemorySubsystem::stage_weights`] under a seeded [`FaultPlan`]:
    /// the bulk fill proceeds burst by burst, and burst `i` draws its
    /// fate at fault sequence `seq_base + i`. A DRAM transfer error
    /// re-bursts that burst — the channel is charged again, honestly,
    /// in both cycles and off-chip bytes. An SPM sector parity failure
    /// re-stages the burst from DRAM through the Weight SPM (a full
    /// per-burst weight stage). With no memory faults in the plan this
    /// is byte-identical to `stage_weights`: same cycles, same
    /// counters. Under [`MemoryMode::Ideal`] recoveries are counted
    /// but, like every other transfer, never stall.
    pub fn stage_weights_faulted(
        &mut self,
        bytes: u64,
        plan: &FaultPlan,
        seq_base: u64,
    ) -> StageOutcome {
        let mut out = StageOutcome {
            cycles: self.stage_weights(bytes),
            ..StageOutcome::default()
        };
        if !plan.has_memory_faults() || bytes == 0 {
            return out;
        }
        let burst = self.cfg.dram.burst_bytes.max(1);
        let bursts = bytes.div_ceil(burst);
        for i in 0..bursts {
            let seq = seq_base + i;
            if plan.dram_reburst(seq) {
                // The corrupted burst crosses the channel again.
                self.report.dram_weight_bytes += burst;
                if !self.cfg.is_ideal() {
                    let c = self.cfg.dram.transfer_cycles(burst);
                    self.report.prefetch_stall_cycles += c;
                    self.report.stall_cycles += c;
                    out.cycles += c;
                }
                out.dram_rebursts += 1;
            }
            if plan.spm_parity(seq) {
                // The failed sector re-stages from DRAM through the
                // Weight SPM, paying the full per-burst staging cost.
                out.cycles += self.stage_weights(burst);
                out.spm_restages += 1;
            }
        }
        out
    }

    /// Stages `bytes` of bias parameters from DRAM into the Weight SPM.
    /// Biases ride along with their layer's weight stream, so every
    /// parameter byte crosses the off-chip channel exactly once per
    /// batch; the transfer is small enough to hide entirely behind the
    /// layer's tile fills, so it adds no stall.
    pub fn stage_bias(&mut self, bytes: u64) {
        self.report.dram_weight_bytes += bytes;
        let busy = self.cfg.weight_spm.burst_cycles(2 * bytes);
        let w = self.report.spm_mut(SpmKind::Weight);
        w.write_bytes += bytes;
        w.read_bytes += bytes;
        w.busy_cycles += busy;
    }

    /// Records one matmul's counter delta (as [`MemorySubsystem::price`]
    /// returns it) into a telemetry [`Recorder`]: the call and stall
    /// counters (total, bank, prefetch, hidden fill) and the per-matmul
    /// stall histograms. The recorder only observes, and a disabled one
    /// ignores the call.
    pub fn record_matmul(d: &MemReport, rec: &mut Recorder) {
        rec.counter_add("mem.matmul_calls", 1);
        rec.counter_add("mem.stall_cycles", d.stall_cycles);
        rec.counter_add("mem.bank_stall_cycles", d.bank_stall_cycles);
        rec.counter_add("mem.prefetch_stall_cycles", d.prefetch_stall_cycles);
        rec.counter_add("mem.hidden_fill_cycles", d.hidden_fill_cycles);
        rec.hist_record("mem.matmul_stall_cycles", d.stall_cycles);
        rec.hist_record("mem.matmul_hidden_fill_cycles", d.hidden_fill_cycles);
    }

    /// Merges a previously measured [`MemReport`] delta into this
    /// subsystem's counters: the engine charges each call's
    /// [`RunPrice::total`], and the closed-form model scales one
    /// replayed matmul across many identical calls (each call restarts
    /// the prefetch timeline, so `n` identical calls are exactly one
    /// call's delta `n` times).
    pub fn charge(&mut self, delta: &MemReport) {
        self.report.merge(delta);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn geometry(m: usize, k: usize, n: usize, batch: usize, offchip: bool) -> MatmulGeometry {
        MatmulGeometry {
            m,
            k,
            n,
            batch,
            rows: 4,
            cols: 4,
            weights_offchip: offchip,
            schedule: TileSchedule::Serial,
        }
    }

    #[test]
    fn validate_rejects_every_degenerate_channel_parameter() {
        // The channel cycle math divides by `bytes_per_cycle` and
        // `burst_bytes`, and the SPM burst math divides by the per-bank
        // port bandwidth: every zero that could reach those divisions
        // must be rejected here, before a subsystem is ever built.
        let ok = MemoryConfig::paper();
        assert!(ok.validate().is_ok());
        assert!(MemoryConfig::ideal().validate().is_ok());

        let mut c = ok;
        c.dram.bytes_per_cycle = 0;
        assert!(c.validate().unwrap_err().contains("DRAM"));
        let mut c = ok;
        c.dram.burst_bytes = 0;
        assert!(c.validate().unwrap_err().contains("DRAM"));
        let mut c = ok;
        c.prefetch_buffers = 0;
        assert!(c.validate().unwrap_err().contains("prefetch"));
        let spms: [fn(&mut MemoryConfig) -> &mut SpmConfig; 3] = [
            |c| &mut c.data_spm,
            |c| &mut c.weight_spm,
            |c| &mut c.acc_spm,
        ];
        for spm in spms {
            let mut c = ok;
            spm(&mut c).banks = 0;
            assert!(c.validate().unwrap_err().contains("SPM"));
            let mut c = ok;
            spm(&mut c).word_bytes = 0;
            assert!(c.validate().unwrap_err().contains("SPM"));
            let mut c = ok;
            spm(&mut c).ports_per_bank = 0;
            assert!(c.validate().unwrap_err().contains("SPM"));
            let mut c = ok;
            spm(&mut c).bytes = 0;
            assert!(c.validate().unwrap_err().contains("capacity"));
        }
    }

    #[test]
    #[should_panic(expected = "invalid memory configuration")]
    fn subsystem_refuses_divide_by_zero_configs() {
        let mut cfg = MemoryConfig::paper();
        cfg.dram.bytes_per_cycle = 0;
        let _ = MemorySubsystem::new(cfg);
    }

    #[test]
    fn ideal_memory_never_stalls_but_still_counts() {
        let mut mem = MemorySubsystem::new(MemoryConfig::ideal());
        let stalls = mem.matmul(&geometry(5, 8, 8, 2, true)) + mem.stage_input(1000);
        assert_eq!(stalls, 0);
        let r = mem.report();
        assert_eq!(r.stall_cycles, 0);
        assert_eq!(r.dram_weight_bytes, 64);
        assert_eq!(r.dram_data_bytes, 1000);
        assert_eq!(r.spm(SpmKind::Weight).read_bytes, 64);
        // Data streamed once per (K, N) tile pair: 2 × 2 × batch 2 × 5
        // rows × 4 bytes.
        assert_eq!(r.spm(SpmKind::Data).read_bytes, 2 * 2 * 2 * 5 * 4);
    }

    #[test]
    fn weight_staging_charges_the_dram_channel_and_weight_spm() {
        // The autoscaler's cold-replica warmup: a bulk weight fill is
        // fully exposed (nothing to hide behind), lands on the DRAM
        // weight counter and the Weight SPM write side, and costs
        // exactly the channel's transfer time.
        let cfg = MemoryConfig::paper();
        let mut mem = MemorySubsystem::new(cfg);
        let cycles = mem.stage_weights(6_804_224);
        assert_eq!(cycles, cfg.dram.transfer_cycles(6_804_224));
        let r = mem.report();
        assert_eq!(r.dram_weight_bytes, 6_804_224);
        assert_eq!(r.spm(SpmKind::Weight).write_bytes, 6_804_224);
        assert_eq!(r.stall_cycles, cycles);
        // Ideal memory: counted, never stalled.
        let mut ideal = MemorySubsystem::new(MemoryConfig::ideal());
        assert_eq!(ideal.stage_weights(1_000), 0);
        assert_eq!(ideal.report().dram_weight_bytes, 1_000);
    }

    #[test]
    fn faultless_staging_is_byte_identical_to_the_plain_path() {
        // A FaultPlan with no memory faults must be invisible: same
        // cycles, same counters — even when the plan carries serve or
        // engine faults, which this layer must never consult.
        let plan = FaultPlan::seeded(7);
        let cfg = MemoryConfig::paper();
        let mut plain = MemorySubsystem::new(cfg);
        let base = plain.stage_weights(1_000_000);
        let mut faulted = MemorySubsystem::new(cfg);
        let out = faulted.stage_weights_faulted(1_000_000, &plan, 0);
        assert_eq!(out.cycles, base);
        assert_eq!(out.dram_rebursts, 0);
        assert_eq!(out.spm_restages, 0);
        assert_eq!(plain.report(), faulted.report());
    }

    #[test]
    fn faulted_staging_is_deterministic_and_charged_honestly() {
        let mut plan = FaultPlan::seeded(11);
        plan.memory.dram_reburst_per_burst = 0.05;
        plan.memory.spm_parity_per_burst = 0.02;
        let cfg = MemoryConfig::paper();
        let run = || {
            let mut mem = MemorySubsystem::new(cfg);
            let out = mem.stage_weights_faulted(1_000_000, &plan, 0);
            (out, mem.report())
        };
        let (a, ra) = run();
        let (b, rb) = run();
        assert_eq!(a, b, "same seed, same fault schedule");
        assert_eq!(ra, rb);
        assert!(a.dram_rebursts > 0, "5% over ~15k bursts must fire");
        assert!(a.spm_restages > 0);
        // Every re-burst moved burst_bytes across the channel again.
        let base_bytes = 1_000_000u64;
        assert_eq!(
            ra.dram_weight_bytes,
            base_bytes + (a.dram_rebursts + a.spm_restages) * cfg.dram.burst_bytes
        );
        // Recoveries cost real exposed cycles beyond the clean fill.
        let clean = MemorySubsystem::new(cfg).stage_weights(base_bytes);
        assert!(a.cycles > clean);
        // A different seed gives a different (but still valid) schedule.
        let mut other = FaultPlan::seeded(12);
        other.memory = plan.memory;
        let mut mem = MemorySubsystem::new(cfg);
        let c = mem.stage_weights_faulted(base_bytes, &other, 0);
        assert_ne!(
            (a.dram_rebursts, a.spm_restages),
            (c.dram_rebursts, c.spm_restages)
        );
    }

    #[test]
    fn ideal_memory_counts_recoveries_but_never_stalls() {
        let mut plan = FaultPlan::seeded(3);
        plan.memory.dram_reburst_per_burst = 1.0;
        plan.memory.spm_parity_per_burst = 1.0;
        let mut mem = MemorySubsystem::new(MemoryConfig::ideal());
        let out = mem.stage_weights_faulted(10_000, &plan, 0);
        assert_eq!(out.cycles, 0);
        assert!(out.dram_rebursts > 0 && out.spm_restages > 0);
        assert_eq!(mem.report().stall_cycles, 0);
        assert!(mem.report().dram_weight_bytes > 10_000);
    }

    #[test]
    fn onchip_operands_never_touch_dram() {
        let mut mem = MemorySubsystem::new(MemoryConfig::paper());
        mem.matmul(&geometry(1, 32, 4, 1, false));
        let r = mem.report();
        assert_eq!(r.dram_weight_bytes, 0);
        assert_eq!(r.prefetch_stall_cycles, 0);
        assert_eq!(r.hidden_fill_cycles, 0);
    }

    #[test]
    fn accumulator_folds_read_back_partials() {
        let mut mem = MemorySubsystem::new(MemoryConfig::ideal());
        // Two K-tiles: the second folds, reading the partials back.
        mem.matmul(&geometry(3, 8, 4, 1, false));
        let a = mem.report().spm(SpmKind::Accumulator);
        assert_eq!(a.write_bytes, 2 * 3 * 4 * ACC_ENTRY_BYTES);
        assert_eq!(a.read_bytes, 3 * 4 * ACC_ENTRY_BYTES);
    }

    #[test]
    fn pipelined_windows_expose_more_fill_than_serial() {
        // Pipelined K-tiles leave smaller per-tile windows to hide fills
        // behind (load/drain paid once per N-tile), so with the same
        // DRAM channel the exposed stalls can only grow — and the
        // windows sum exactly to the pipelined schedule's cycle count.
        let mut g = MatmulGeometry {
            m: 2,
            k: 64,
            n: 16,
            batch: 1,
            rows: 16,
            cols: 16,
            weights_offchip: true,
            schedule: TileSchedule::Serial,
        };
        let serial = MemorySubsystem::new(MemoryConfig::paper()).matmul(&g);
        g.schedule = TileSchedule::Pipelined;
        let pipelined = MemorySubsystem::new(MemoryConfig::paper()).matmul(&g);
        assert!(pipelined >= serial, "{pipelined} < {serial}");

        let kk = g.k_tiles() as u64;
        let windows: u64 = (0..kk).map(|i| g.run_windows(i..i + 1, kk)).sum();
        // nn = 1: load + m + (kk-1)·max(m, rows) + (rows + cols).
        let (m, rows) = (g.m as u64, g.rows as u64);
        assert_eq!(
            windows,
            rows + 1 + m + (kk - 1) * m.max(rows) + (g.rows + g.cols) as u64
        );
    }

    #[test]
    fn a_pipelined_run_is_one_prefetch_stream() {
        // Four matmuls of two N-tiles each, issued as one run: the
        // prefetcher pays one cold fill for the whole call, where four
        // per-matmul replays pay one each. Each group's stall is the
        // stall within its tiles, and the groups' stalls sum to the
        // run's.
        let g = MatmulGeometry {
            m: 400,
            k: 16,
            n: 32,
            batch: 1,
            rows: 16,
            cols: 16,
            weights_offchip: true,
            schedule: TileSchedule::Pipelined,
        };
        let cfg = MemoryConfig::paper();
        let run = MemorySubsystem::new(cfg).price_run(&g, 4);
        let one = MemorySubsystem::new(cfg).price(&g);
        let cold = cfg.dram.transfer_cycles(256);
        assert_eq!(one.stall_cycles, cold);
        assert_eq!(&run.group_stalls[..], [cold, 0, 0, 0]);
        assert_eq!(run.total.stall_cycles, cold);
        // Every counter but the stalls is the four matmuls' sum.
        let four = one.scaled(4);
        assert_eq!(
            (run.total.spm, run.total.dram_weight_bytes),
            (four.spm, four.dram_weight_bytes)
        );
        // A serial run restarts per matmul: exactly four replays.
        let serial = MatmulGeometry {
            schedule: TileSchedule::Serial,
            ..g
        };
        let mut mem = MemorySubsystem::new(cfg);
        let run = mem.price_run(&serial, 4);
        let one = mem.price(&serial);
        assert_eq!(run.total, one.scaled(4));
        assert_eq!(&run.group_stalls[..], [one.stall_cycles; 4]);
    }

    #[test]
    fn run_cycles_price_sec_iv_a_tiles() {
        // 4×4 array, batch 2 × 3 rows: load 5, stream 6, drain 8.
        let g = |schedule| MatmulGeometry {
            schedule,
            ..geometry(3, 12, 8, 2, true)
        };
        assert_eq!(g(TileSchedule::Serial).run_cycles(3), 3 * (5 + 6 + 8));
        // One fill and one drain; the later tiles cost max(6, 5) each.
        assert_eq!(g(TileSchedule::Pipelined).run_cycles(3), 5 + 6 + 2 * 6 + 8);
        // Six reloads, six rows and two drains per tile.
        assert_eq!(
            g(TileSchedule::ReloadPerRow).run_cycles(3),
            3 * (6 * 5 + 6 + 2 * 8)
        );
        // Two N-tiles, each a run of three K-tiles.
        for schedule in [
            TileSchedule::Serial,
            TileSchedule::Pipelined,
            TileSchedule::ReloadPerRow,
        ] {
            assert_eq!(g(schedule).array_cycles(), 2 * g(schedule).run_cycles(3));
            assert_eq!(g(schedule).run_cycles(0), 0);
        }
    }

    #[test]
    fn stall_decomposition_adds_up() {
        let mut cfg = MemoryConfig::paper();
        cfg.weight_spm.banks = 1;
        cfg.weight_spm.word_bytes = 1;
        let mut mem = MemorySubsystem::new(cfg);
        mem.matmul(&MatmulGeometry {
            m: 2,
            k: 32,
            n: 32,
            batch: 1,
            rows: 16,
            cols: 16,
            weights_offchip: true,
            schedule: TileSchedule::Serial,
        });
        let r = mem.report();
        assert!(
            r.bank_stall_cycles > 0,
            "1-byte/cycle weight SPM must stall"
        );
        assert!(r.prefetch_stall_cycles > 0, "cold fill must be exposed");
        assert_eq!(
            r.stall_cycles,
            r.bank_stall_cycles + r.prefetch_stall_cycles
        );
    }

    #[test]
    fn remembered_replays_equal_fresh_replays() {
        // Interleaved repeats, off-chip and on-chip operands, two batch
        // sizes: a memo hit must charge exactly what a fresh subsystem
        // replaying that one call charges, call by call, and the
        // recorded counters and histograms must not see the memo.
        use capsacc_telemetry::{SpanDetail, TelemetryConfig};
        let a = MatmulGeometry {
            rows: 16,
            cols: 16,
            ..geometry(3, 70, 40, 1, true)
        };
        let b = MatmulGeometry { batch: 4, ..a };
        let c = geometry(1, 40, 16, 2, false);
        let calls = [a, a, b, a, c, c, b];
        let telemetry = TelemetryConfig {
            detail: SpanDetail::Phases,
            host_timing: false,
        };
        for cfg in [MemoryConfig::paper(), MemoryConfig::ideal()] {
            let mut mem = MemorySubsystem::new(cfg);
            let mut recorded = MemorySubsystem::new(cfg);
            let mut rec = Recorder::new(telemetry);
            let mut fresh_rec = Recorder::new(telemetry);
            let mut fresh_total = MemReport::default();
            for g in &calls {
                let mut fresh = MemorySubsystem::new(cfg);
                let want = fresh.matmul(g);
                assert_eq!(mem.matmul(g), want, "{g:?}");
                let delta = recorded.price(g);
                recorded.charge(&delta);
                MemorySubsystem::record_matmul(&delta, &mut rec);
                assert_eq!(delta.stall_cycles, want);
                MemorySubsystem::record_matmul(&fresh.report(), &mut fresh_rec);
                fresh_total.merge(&fresh.report());
            }
            assert_eq!(mem.report(), fresh_total);
            assert_eq!(recorded.report(), fresh_total);
            assert_eq!(rec.metrics(), fresh_rec.metrics());
            if !cfg.is_ideal() {
                assert!(fresh_total.stall_cycles > 0, "paper memory must stall");
            }
        }
    }

    #[test]
    fn replay_memo_stays_exact_past_its_capacity() {
        // More distinct geometries than the memo holds, then a revisit
        // of evicted and kept ones: the memo stays bounded, and every
        // call charges exactly what a fresh replay does.
        let cfg = MemoryConfig::paper();
        let mut mem = MemorySubsystem::new(cfg);
        let mut want = MemReport::default();
        for n in (1..=REPLAY_MEMO + 2).chain([1, 2, REPLAY_MEMO + 2]) {
            let g = geometry(2, 9, n, 1, true);
            let mut fresh = MemorySubsystem::new(cfg);
            assert_eq!(mem.matmul(&g), fresh.matmul(&g), "n = {n}");
            want.merge(&fresh.report());
            assert!(mem.replays.len() <= REPLAY_MEMO);
        }
        assert_eq!(mem.report(), want);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        /// Prefetch-overlap bounds at the matmul level: memory-aware
        /// stalls are never negative (cycles ≥ ideal), monotone in DRAM
        /// latency, and weakly decreasing in prefetch depth.
        #[test]
        fn matmul_stalls_are_bounded_and_monotone(
            m in 1usize..8,
            k in 1usize..40,
            n in 1usize..24,
            batch in 1usize..4,
            extra_latency in 0u64..300,
        ) {
            let g = MatmulGeometry {
                m, k, n, batch,
                rows: 4,
                cols: 4,
                weights_offchip: true,
                schedule: TileSchedule::Serial,
            };
            let base = MemoryConfig::paper();
            let mut slower = base;
            slower.dram.latency_cycles += extra_latency;
            let mut naive = base;
            naive.prefetch_buffers = 1;
            let mut deep = base;
            deep.prefetch_buffers = 4;

            let stall = |cfg: MemoryConfig| MemorySubsystem::new(cfg).matmul(&g);
            let s_base = stall(base);
            prop_assert_eq!(stall(MemoryConfig::ideal()), 0);
            prop_assert!(stall(slower) >= s_base);
            prop_assert!(stall(naive) >= s_base);
            prop_assert!(stall(deep) <= s_base);
        }

        /// The windows the replay hides DRAM fills behind, summed over
        /// a run, are the run's closed form, and over the closed form's
        /// per-N-tile runs they are the matmul's: the memory model and
        /// the cycle model price the same schedule.
        #[test]
        fn tile_windows_sum_to_array_cycles(
            m in 0usize..40,
            k in 0usize..70,
            n in 0usize..40,
            batch in 1usize..5,
            rows in 1usize..9,
            cols in 1usize..9,
            groups in 1usize..4,
        ) {
            for schedule in [
                TileSchedule::Serial,
                TileSchedule::Pipelined,
                TileSchedule::ReloadPerRow,
            ] {
                let g = MatmulGeometry {
                    m, k, n, batch, rows, cols,
                    weights_offchip: true,
                    schedule,
                };
                let tiles = g.tiles(groups);
                let run: u64 = (0..tiles).map(|i| g.run_windows(i..i + 1, tiles)).sum();
                prop_assert_eq!(run, g.run_cycles(tiles), "{:?}", schedule);
                // Any split of the run into spans sums to the same.
                let cut = tiles / 2;
                prop_assert_eq!(
                    g.run_windows(0..cut, tiles) + g.run_windows(cut..tiles, tiles),
                    run,
                    "{:?}", schedule
                );
                let kk = g.k_tiles() as u64;
                let per_n_tile: u64 = (0..kk).map(|i| g.run_windows(i..i + 1, kk)).sum();
                prop_assert_eq!(
                    g.n_tiles() as u64 * per_n_tile,
                    g.array_cycles(),
                    "{:?}", schedule
                );
            }
        }

        /// The engine's run replay: a serial run is `groups` per-matmul
        /// replays, and any run's per-group stalls sum to its stall.
        #[test]
        fn run_replays_decompose_into_matmuls(
            m in 1usize..8,
            k in 1usize..40,
            n in 1usize..24,
            batch in 1usize..4,
            groups in 1usize..5,
            offchip in any::<bool>(),
        ) {
            for schedule in [TileSchedule::Serial, TileSchedule::Pipelined] {
                let g = MatmulGeometry {
                    m, k, n, batch,
                    rows: 4,
                    cols: 4,
                    weights_offchip: offchip,
                    schedule,
                };
                let mut mem = MemorySubsystem::new(MemoryConfig::paper());
                let run = mem.price_run(&g, groups);
                prop_assert_eq!(run.group_stalls.len(), groups);
                prop_assert_eq!(run.group_stalls.iter().sum::<u64>(), run.total.stall_cycles);
                if schedule == TileSchedule::Serial {
                    prop_assert_eq!(run.total, mem.price(&g).scaled(groups as u64));
                }
                prop_assert_eq!(mem.report(), MemReport::default(), "pricing charges nothing");
            }
        }
    }
}
