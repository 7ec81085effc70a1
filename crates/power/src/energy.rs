//! Per-inference energy accounting.
//!
//! The paper reports average power (Table II); energy per inference is
//! the natural derived metric for an embedded accelerator ("this work
//! enables highly-efficient CapsuleNets inference on embedded
//! platforms"). [`EnergyModel::inference_energy_mem`] is the one energy
//! function. It prices the counters of one executed engine run (a
//! `BatchRun`): its MAC count, its on-chip [`TrafficReport`], its
//! [`MemReport`] and its cycles.
//!
//! ```text
//! E = macs · e_mac                          compute
//!   + bytes(Routing Buffer) · e_buffer      flat per-byte terms for the
//!   + bytes(Data Memory) · e_memory         structures the hierarchy omits
//!   + Σ_spm bytes(spm) · e_spm(capacity)    CapStore capacity scaling
//!   + Σ_spm P_leak(spm) · gating · t        DESCNet sector gating
//!   + offchip_bytes · e_dram                DRAM
//!   + P_static · t                          leakage and clock tree
//! ```
//!
//! with per-operation energies typical of 8-bit arithmetic and SRAM at
//! 32nm. The weights sit in DRAM behind the Weight SPM under either
//! memory mode: ideal memory removes the stalls, not the DRAM bytes. So
//! every figure carries a DRAM term, and Table II's 202 mW, the chip's
//! own power, reconciles with the on-chip share
//! ([`EnergyReport::onchip_uj`]).

use capsacc_core::{AcceleratorConfig, MemoryKind, TrafficReport};
use capsacc_memory::{MemReport, MemoryConfig, SpmKind};

use crate::PowerModel;

/// Name of the one off-chip component.
const DRAM: &str = "DRAM";

/// One energy component (for breakdown reporting).
#[derive(Clone, PartialEq, Debug)]
pub struct EnergyComponent {
    /// Component label.
    pub name: &'static str,
    /// Energy in microjoules.
    pub energy_uj: f64,
}

/// Per-inference energy report.
#[derive(Clone, PartialEq, Debug)]
pub struct EnergyReport {
    /// Components, in order: compute, Routing Buffer, on-chip memory,
    /// the three SPMs, SPM leakage, DRAM and static.
    pub components: Vec<EnergyComponent>,
    /// Inference latency used for the static term (µs).
    pub latency_us: f64,
}

impl EnergyReport {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.components.iter().map(|c| c.energy_uj).sum()
    }

    /// Energy spent on the chip itself (µJ): every component but the
    /// off-chip DRAM term.
    pub fn onchip_uj(&self) -> f64 {
        let onchip = self.components.iter().filter(|c| c.name != DRAM);
        onchip.map(|c| c.energy_uj).sum()
    }

    /// Average on-chip power over the latency (mW). Table II's 202 mW is
    /// the chip's own power, so this, not the total with DRAM, is the
    /// figure that reconciles with it.
    pub fn onchip_power_mw(&self) -> f64 {
        if self.latency_us <= 0.0 {
            return 0.0;
        }
        self.onchip_uj() / self.latency_us * 1000.0
    }

    /// Amortized energy per inference in microjoules for a report that
    /// covers a batch of `batch` inferences (traffic and latency summed
    /// over the batch).
    ///
    /// Batched weight residency shows up directly here: the weights'
    /// DRAM fetches and Weight SPM fills are paid once per batch, so
    /// energy per inference falls as the batch grows.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn per_inference_uj(&self, batch: u64) -> f64 {
        assert!(batch > 0, "batch must be non-zero");
        self.total_uj() / batch as f64
    }

    /// Breakdown fractions.
    pub fn breakdown(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_uj();
        self.components
            .iter()
            .map(|c| (c.name, c.energy_uj / total))
            .collect()
    }
}

/// The calibrated energy model.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct EnergyModel {
    /// Energy per 8-bit MAC including array overhead (pJ).
    pub mac_pj: f64,
    /// Energy per Routing Buffer byte accessed (pJ). The Data and Weight
    /// Buffers are SPMs of the memory hierarchy and priced as such.
    pub buffer_pj_per_byte: f64,
    /// Energy per Data Memory byte accessed (pJ).
    pub memory_pj_per_byte: f64,
    /// Fraction of the Table II power that is static (leakage + clock
    /// tree), burned for the whole inference latency.
    pub static_fraction: f64,
    /// SPM access energy per byte at [`EnergyModel::spm_ref_bytes`]
    /// capacity (pJ/B). Scaled by `sqrt(capacity / ref)` à la CapStore:
    /// bigger scratchpads have longer bitlines and cost more per access.
    pub spm_pj_per_byte_ref: f64,
    /// Reference SPM capacity for the access-energy scaling (bytes).
    pub spm_ref_bytes: f64,
    /// Off-chip DRAM access energy per byte (pJ/B).
    pub dram_pj_per_byte: f64,
    /// SPM leakage power density (mW per KiB of capacity).
    pub spm_leak_mw_per_kib: f64,
    /// Residual leakage fraction of a power-gated (retention-mode) SPM
    /// bank — the DESCNet sector-gating model.
    pub gated_leak_fraction: f64,
}

impl EnergyModel {
    /// 32nm constants: ~1.5 pJ per 8-bit MAC with array overheads,
    /// ~3 pJ/B for the small SRAM buffers, ~20 pJ/B for the large
    /// on-chip memories, and a 30% static share. SPM accesses cost
    /// ~2 pJ/B at a 32 KiB reference capacity (sqrt-scaled), DRAM
    /// ~100 pJ/B, and gated SPM sectors retain ~10% of their leakage.
    pub fn cmos_32nm() -> Self {
        Self {
            mac_pj: 1.5,
            buffer_pj_per_byte: 3.0,
            memory_pj_per_byte: 20.0,
            static_fraction: 0.30,
            spm_pj_per_byte_ref: 2.0,
            spm_ref_bytes: 32.0 * 1024.0,
            dram_pj_per_byte: 100.0,
            spm_leak_mw_per_kib: 0.02,
            gated_leak_fraction: 0.10,
        }
    }

    /// Per-byte access energy of an SPM of `bytes` capacity: the
    /// CapStore capacity scaling `e(ref) · sqrt(bytes / ref)`.
    pub fn spm_access_pj_per_byte(&self, bytes: usize) -> f64 {
        self.spm_pj_per_byte_ref * (bytes as f64 / self.spm_ref_bytes).sqrt()
    }

    /// Energy components of the memory hierarchy over `total_cycles` of
    /// execution: per-SPM dynamic energy (capacity-scaled), SPM leakage
    /// (reduced to busy banks + retention when `cfg.memory.power_gating`
    /// is set), and off-chip DRAM energy. The SPM capacities and gating
    /// flag come from `cfg.memory` — the same configuration the
    /// `report` was produced under.
    pub fn memory_hierarchy_energy(
        &self,
        cfg: &AcceleratorConfig,
        report: &MemReport,
        total_cycles: u64,
    ) -> Vec<EnergyComponent> {
        let mem: &MemoryConfig = &cfg.memory;
        let spm_cfg = |kind: SpmKind| match kind {
            SpmKind::Data => &mem.data_spm,
            SpmKind::Weight => &mem.weight_spm,
            SpmKind::Accumulator => &mem.acc_spm,
        };
        let mut components = Vec::new();
        let mut leak_uj = 0.0;
        let time_us = cfg.cycles_to_us(total_cycles);
        for (kind, name) in [
            (SpmKind::Data, "Data SPM"),
            (SpmKind::Weight, "Weight SPM"),
            (SpmKind::Accumulator, "Accumulator SPM"),
        ] {
            let spm = spm_cfg(kind);
            let activity = report.spm(kind);
            components.push(EnergyComponent {
                name,
                energy_uj: activity.total_bytes() as f64 * self.spm_access_pj_per_byte(spm.bytes)
                    / 1e6,
            });
            // Leakage: all banks leak all the time without gating; with
            // DESCNet sector gating, idle cycles leak only the retention
            // fraction (busy cycles approximate "some banks active").
            let leak_mw = spm.bytes as f64 / 1024.0 * self.spm_leak_mw_per_kib;
            let busy_frac = if total_cycles == 0 {
                0.0
            } else {
                (activity.busy_cycles.min(total_cycles)) as f64 / total_cycles as f64
            };
            let effective = if mem.power_gating {
                busy_frac + (1.0 - busy_frac) * self.gated_leak_fraction
            } else {
                1.0
            };
            // mW · µs = nJ; /1000 → µJ.
            leak_uj += leak_mw * effective * time_us / 1000.0;
        }
        components.push(EnergyComponent {
            name: "SPM leakage",
            energy_uj: leak_uj,
        });
        components.push(EnergyComponent {
            name: DRAM,
            energy_uj: report.offchip_bytes() as f64 * self.dram_pj_per_byte / 1e6,
        });
        components
    }

    /// Computes the energy of one executed run from its counters: `macs`
    /// MACs, its on-chip `traffic`, its memory-hierarchy `report` and
    /// its `total_cycles`, under the configuration `cfg` it ran with.
    ///
    /// The Routing Buffer and the Data Memory, which the hierarchy does
    /// not model, cost flat per-byte energies. The hierarchy adds
    /// capacity-scaled SPM dynamic energy, gating-aware SPM leakage and
    /// DRAM energy from the [`MemReport`]. The static term covers the
    /// rest of the chip for the run's latency.
    pub fn inference_energy_mem(
        &self,
        cfg: &AcceleratorConfig,
        macs: u64,
        traffic: &TrafficReport,
        report: &MemReport,
        total_cycles: u64,
    ) -> EnergyReport {
        let latency_us = cfg.cycles_to_us(total_cycles);
        // The SPM-leakage component models the scratchpads' static power
        // explicitly (gating-aware), so their share is excluded from the
        // flat static term to avoid double counting.
        let power = PowerModel::cmos_32nm().estimate(cfg);
        let spm_static_mw: f64 = ["Data Buffer", "Weight Buffer", "Accumulator"]
            .iter()
            .filter_map(|n| power.component(n))
            .map(|c| c.power_mw)
            .sum();
        let static_mw = (power.total_power_mw() - spm_static_mw) * self.static_fraction;
        let mut components = vec![
            EnergyComponent {
                name: "Compute (MACs)",
                energy_uj: macs as f64 * self.mac_pj / 1e6,
            },
            EnergyComponent {
                name: "Routing Buffer",
                energy_uj: traffic.counter(MemoryKind::RoutingBuffer).total() as f64
                    * self.buffer_pj_per_byte
                    / 1e6,
            },
            EnergyComponent {
                name: "On-chip memory",
                energy_uj: traffic.counter(MemoryKind::DataMemory).total() as f64
                    * self.memory_pj_per_byte
                    / 1e6,
            },
        ];
        components.extend(self.memory_hierarchy_energy(cfg, report, total_cycles));
        components.push(EnergyComponent {
            name: "Static",
            energy_uj: static_mw * latency_us / 1000.0,
        });
        EnergyReport {
            components,
            latency_us,
        }
    }
}

impl Default for EnergyModel {
    fn default() -> Self {
        Self::cmos_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
    use capsacc_core::{Accelerator, BatchRun, EngineBackend, MemoryConfig};

    /// One MNIST image at batch 1 on the paper's design point under
    /// `memory`, functional backend, after `f` adjusts the dataflow.
    /// Energy reads no operand value, so any image serves.
    fn mnist_run(
        memory: MemoryConfig,
        f: fn(&mut capsacc_core::DataflowOptions),
    ) -> (AcceleratorConfig, BatchRun) {
        let net = CapsNetConfig::mnist();
        let mut cfg = AcceleratorConfig {
            backend: EngineBackend::Functional,
            memory,
            ..AcceleratorConfig::paper()
        };
        f(&mut cfg.dataflow);
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        let run = Accelerator::new(cfg)
            .run_batch(&net, &qparams, &[net.test_image(0)])
            .expect("valid image");
        (cfg, run)
    }

    /// The one energy function over `run`'s own counters.
    fn price(cfg: &AcceleratorConfig, run: &BatchRun) -> EnergyReport {
        let macs = run.traces.iter().map(|t| t.output.stats.macs).sum();
        EnergyModel::cmos_32nm().inference_energy_mem(
            cfg,
            macs,
            &run.traffic,
            &run.memory,
            run.total_cycles(),
        )
    }

    fn energy_of(report: &EnergyReport, name: &str) -> f64 {
        let c = report.components.iter().find(|c| c.name == name);
        c.expect("component present").energy_uj
    }

    #[test]
    fn mnist_energy_reconciles_with_table2_power() {
        // Table II's 202 mW is the chip's own power, so the on-chip
        // energy over the ideal-memory latency reconciles with it, within
        // the model's calibration: 610.7 µJ over 4.227 ms is 144.5 mW.
        // The DRAM term, 680.5 µJ, stays out.
        let (cfg, run) = mnist_run(MemoryConfig::ideal(), |_| {});
        let report = price(&cfg, &run);
        let implied = report.onchip_power_mw();
        assert!(
            (130.0..275.0).contains(&implied),
            "implied on-chip power {implied} mW vs Table II 202 mW"
        );
        assert!((report.onchip_uj() - 610.7).abs() < 0.05);
        assert!((report.total_uj() - 1_291.2).abs() < 0.05);
    }

    #[test]
    fn breakdown_sums_to_one() {
        // The paper-memory run at batch 1: the total is perfbench
        // `mnist-b1`'s `sim_uj_per_image`.
        let (cfg, run) = mnist_run(MemoryConfig::paper(), |_| {});
        let report = price(&cfg, &run);
        let sum: f64 = report.breakdown().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(report.components.len(), 9);
        assert!((report.total_uj() - 1_601.4).abs() < 0.05);
        assert!(report.onchip_uj() < report.total_uj());
    }

    #[test]
    fn zero_latency_has_zero_static_energy() {
        // A hand-built run of no image has no counts and no cycles.
        let cfg = AcceleratorConfig::paper();
        let run = BatchRun {
            traces: Vec::new(),
            layers: Vec::new(),
            steps: Vec::new(),
            traffic: TrafficReport::default(),
            memory: MemReport::default(),
            accumulator_saturations: 0,
            batch: 0,
        };
        let report = price(&cfg, &run);
        assert_eq!(report.total_uj(), 0.0);
        assert_eq!(report.onchip_power_mw(), 0.0);
    }

    #[test]
    fn spm_access_energy_scales_with_capacity() {
        let m = EnergyModel::cmos_32nm();
        let at_ref = m.spm_access_pj_per_byte(32 * 1024);
        assert!((at_ref - m.spm_pj_per_byte_ref).abs() < 1e-12);
        // CapStore scaling: 4× the capacity → 2× the per-access energy.
        let at_4x = m.spm_access_pj_per_byte(4 * 32 * 1024);
        assert!((at_4x - 2.0 * at_ref).abs() < 1e-12);
        assert!(m.spm_access_pj_per_byte(1024) < at_ref);
    }

    #[test]
    fn memory_aware_energy_has_spm_dram_and_gating_terms() {
        let (cfg, run) = mnist_run(MemoryConfig::paper(), |_| {});
        let report = price(&cfg, &run);
        assert!(energy_of(&report, "Weight SPM") > 0.0);
        assert!(energy_of(&report, DRAM) > 0.0);
        assert!(energy_of(&report, "SPM leakage") > 0.0);

        // DESCNet sector gating reduces leakage (and only leakage): the
        // same run priced with gating off.
        let mut ungated = cfg;
        ungated.memory.power_gating = false;
        let r2 = price(&ungated, &run);
        assert!(energy_of(&r2, "SPM leakage") > energy_of(&report, "SPM leakage"));
        assert!(r2.total_uj() > report.total_uj());
        for (a, b) in r2.components.iter().zip(&report.components) {
            if a.name != "SPM leakage" {
                assert_eq!(a, b);
            }
        }
    }

    #[test]
    fn feedback_reuse_saves_energy() {
        // Without the feedback path every later Sum and Update re-reads
        // û from the Data Memory: 1,305.9 against 1,291.2 µJ.
        let e = |f| {
            let (cfg, run) = mnist_run(MemoryConfig::ideal(), f);
            price(&cfg, &run).total_uj()
        };
        let (on, off) = (e(|_| {}), e(|d| d.routing_feedback = false));
        assert!(off > on, "feedback reuse should save energy");
        assert!((on - 1_291.2).abs() < 0.05 && (off - 1_305.9).abs() < 0.05);
    }
}
