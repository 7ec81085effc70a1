//! The memory subsystem behind the engine's tile schedule.

use crate::dram::DramConfig;
use crate::prefetch::PrefetchPipeline;
use crate::report::{MemReport, SpmKind};
use crate::spm::SpmConfig;
use capsacc_faults::FaultPlan;
use capsacc_telemetry::Recorder;
use capsacc_tensor::u64_from;

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
    /// The tile schedule the stalls are added on top of. This sizes the
    /// per-tile window the prefetcher can hide DRAM fills behind: the
    /// ticked engine executes tiles serially and passes
    /// [`TileSchedule::Serial`]; the closed-form model passes its own
    /// schedule so stalls stay consistent with its base cycle count.
    pub schedule: TileSchedule,
}

/// The compute schedule whose per-tile windows DRAM fills hide behind —
/// each variant's windows sum exactly to the matching closed-form cycle
/// formula.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum TileSchedule {
    /// Every tile pays its own load and drain (the ticked engine).
    Serial,
    /// Consecutive K-tiles stream back-to-back; load/drain once per
    /// N-tile (the paper's "full throttle" dataflow).
    Pipelined,
    /// The weight-reuse ablation: the tile reloads before every data
    /// row, so each tile occupies the array far longer.
    ReloadPerRow,
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

/// Distinct matmul geometries whose replay outcome
/// [`MemorySubsystem::matmul`] remembers. A network issues three per
/// batch size (Conv1, PrimaryCaps, the ClassCaps FC) plus two shared
/// ones (routing's Sum and Update run per image, at batch 1), so a
/// serving worker that sees a few batch sizes keeps every one of them.
const REPLAY_MEMO: usize = 16;

/// The three scratchpads, the DRAM channel and the prefetcher, driven
/// through the same tile schedule by both the cycle-accurate engine and
/// the closed-form timing model — which is what makes the two agree
/// exactly.
#[derive(Clone, PartialEq, Debug)]
pub struct MemorySubsystem {
    cfg: MemoryConfig,
    pipeline: PrefetchPipeline,
    report: MemReport,
    /// The last replayed geometries with the stall and counter delta
    /// each replay produced, oldest first.
    replays: Vec<(MatmulGeometry, u64, MemReport)>,
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

    /// Replays one matmul's tile schedule through the hierarchy and
    /// returns the stall cycles it adds on top of the compute schedule.
    /// Counters (traffic, busy cycles, off-chip bytes) accumulate in
    /// [`MemorySubsystem::report`]; under [`MemoryMode::Ideal`] the
    /// returned stall is always zero.
    ///
    /// The prefetcher timeline restarts per matmul: the first tile of
    /// every stream pays its DRAM fill cold, subsequent fills overlap
    /// the previous tiles' compute.
    ///
    /// So a replay's stall and counter delta are a function of the
    /// geometry (and the configuration) alone: nothing else touches the
    /// prefetcher, and every counter is a plain sum. The subsystem
    /// therefore replays each geometry once and remembers the outcome
    /// of the last 16 distinct geometries it replayed (`REPLAY_MEMO`,
    /// oldest evicted first); a repeat charges the remembered delta
    /// with [`MemReport::merge`], which leaves the stall and every
    /// counter exactly where a fresh replay would (the ClassCaps FC
    /// issues ~1.2k identical calls per batch).
    pub fn matmul(&mut self, g: &MatmulGeometry) -> u64 {
        let (stall, delta) = self.price(g);
        self.report.merge(&delta);
        stall
    }

    /// What [`MemorySubsystem::matmul`] would charge for `g` — its stall
    /// and counter delta — without charging it: the remembered outcome
    /// when `g` is among the last `REPLAY_MEMO` geometries, otherwise a
    /// fresh replay whose counters are rolled back (and remembered).
    /// Charging `k` identical matmuls is then one
    /// [`MemorySubsystem::charge`] of the delta [`MemReport::scaled`]
    /// by `k`, plus `k` times the stall.
    pub fn price(&mut self, g: &MatmulGeometry) -> (u64, MemReport) {
        if let Some((_, stall, delta)) = self.replays.iter().find(|(seen, ..)| seen == g) {
            return (*stall, *delta);
        }
        let before = self.report;
        let stall = self.replay(g);
        let delta = self.report.since(&before);
        self.report = before;
        if self.replays.len() == REPLAY_MEMO {
            self.replays.remove(0);
        }
        self.replays.push((*g, stall, delta));
        (stall, delta)
    }

    /// Walks one matmul's whole tile schedule through the hierarchy.
    fn replay(&mut self, g: &MatmulGeometry) -> u64 {
        self.pipeline.begin_stream();
        let kk = g.k.div_ceil(g.rows.max(1));
        let mut stalls = 0u64;
        for n0 in (0..g.n).step_by(g.cols.max(1)) {
            let nt = g.cols.min(g.n - n0);
            for (kt_idx, k0) in (0..g.k).step_by(g.rows.max(1)).enumerate() {
                let kt = g.rows.min(g.k - k0);
                let compute = self.tile_compute_window(g, kt_idx, kk);
                stalls += self.tile(kt, nt, kt_idx == 0, compute, g);
            }
        }
        stalls
    }

    /// Array cycles one tile occupies in the target compute schedule —
    /// the window the next tile's DRAM fill can hide behind. Per
    /// [`TileSchedule`], the per-tile windows sum exactly to the
    /// matching closed-form cycle formula: serial tiles each pay their
    /// own load and drain; pipelined K-tiles stream back-to-back,
    /// paying load/drain once per N-tile; the reuse ablation reloads
    /// the tile before every data row (and drains once per image).
    fn tile_compute_window(&self, g: &MatmulGeometry, kt_idx: usize, kk: usize) -> u64 {
        let stream = u64_from(g.batch * g.m);
        let load = u64_from(g.rows) + 1;
        let drain = u64_from(g.rows + g.cols);
        match g.schedule {
            TileSchedule::Serial => load + stream + drain,
            TileSchedule::Pipelined => {
                let mut window = if kt_idx == 0 {
                    load + stream
                } else {
                    stream.max(load)
                };
                if kt_idx + 1 == kk {
                    window += drain;
                }
                window
            }
            TileSchedule::ReloadPerRow => stream * load + stream + u64_from(g.batch) * drain,
        }
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
    ) -> u64 {
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
            return 0;
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
        let total = bank_stall + outcome.stall_cycles;
        self.report.stall_cycles += total;
        total
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

    /// [`MemorySubsystem::matmul`] with the per-call stall window
    /// decomposition recorded into a telemetry [`Recorder`]: counters
    /// for total/bank/prefetch stalls and hidden fill cycles, plus a
    /// per-matmul stall histogram. The simulated result is identical
    /// to the unrecorded call — the recorder only observes.
    pub fn matmul_recorded(&mut self, g: &MatmulGeometry, rec: &mut Recorder) -> u64 {
        let (stall, delta) = self.price(g);
        self.report.merge(&delta);
        Self::record_matmul(&delta, rec);
        stall
    }

    /// Records one matmul's counter delta (as [`MemorySubsystem::price`]
    /// returns it) the way [`MemorySubsystem::matmul_recorded`] does:
    /// the call and stall counters and the per-matmul histograms.
    pub fn record_matmul(d: &MemReport, rec: &mut Recorder) {
        rec.counter_add("mem.matmul_calls", 1);
        rec.counter_add("mem.stall_cycles", d.stall_cycles);
        rec.counter_add("mem.bank_stall_cycles", d.bank_stall_cycles);
        rec.counter_add("mem.prefetch_stall_cycles", d.prefetch_stall_cycles);
        rec.counter_add("mem.hidden_fill_cycles", d.hidden_fill_cycles);
        rec.hist_record("mem.matmul_stall_cycles", d.stall_cycles);
        rec.hist_record("mem.matmul_hidden_fill_cycles", d.hidden_fill_cycles);
    }

    /// [`MemorySubsystem::stage_input`] with the exposed staging
    /// window recorded into a telemetry [`Recorder`]; simulated result
    /// identical to the unrecorded call.
    pub fn stage_input_recorded(&mut self, bytes: u64, rec: &mut Recorder) -> u64 {
        let cycles = self.stage_input(bytes);
        rec.counter_add("mem.stage_input_calls", 1);
        rec.counter_add("mem.stage_input_stall_cycles", cycles);
        cycles
    }

    /// Merges a previously measured [`MemReport`] delta into this
    /// subsystem's counters — used by the closed-form model to scale one
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

        let mem = MemorySubsystem::new(MemoryConfig::paper());
        let kk = g.k.div_ceil(g.rows);
        let windows: u64 = (0..kk).map(|i| mem.tile_compute_window(&g, i, kk)).sum();
        // nn = 1: load + m + (kk-1)·max(m, load) + (rows + cols).
        let (m, load) = (g.m as u64, g.rows as u64 + 1);
        assert_eq!(
            windows,
            load + m + (kk as u64 - 1) * m.max(load) + (g.rows + g.cols) as u64
        );
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
                assert_eq!(recorded.matmul_recorded(g, &mut rec), want);
                MemorySubsystem::new(cfg).matmul_recorded(g, &mut fresh_rec);
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
    }
}
