//! Per-inference energy accounting.
//!
//! The paper reports average power (Table II); energy per inference is
//! the natural derived metric for an embedded accelerator ("this work
//! enables highly-efficient CapsuleNets inference on embedded
//! platforms"). This model decomposes it mechanistically:
//!
//! ```text
//! E = macs · e_mac  +  Σ traffic(kind) · e_byte(kind)  +  P_static · t
//! ```
//!
//! with per-operation energies typical of 8-bit arithmetic and SRAM at
//! 32nm, and the static share calibrated so the total reconciles with
//! the Table II average power × the measured inference time.

use capsacc_core::{AcceleratorConfig, MemoryKind, TrafficReport};
use capsacc_memory::{MemReport, MemoryConfig, SpmKind};

use crate::PowerModel;

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
    /// Components: compute, buffers, memories, static.
    pub components: Vec<EnergyComponent>,
    /// Inference latency used for the static term (µs).
    pub latency_us: f64,
}

impl EnergyReport {
    /// Total energy in microjoules.
    pub fn total_uj(&self) -> f64 {
        self.components.iter().map(|c| c.energy_uj).sum()
    }

    /// Average power implied by this energy and latency (mW).
    pub fn average_power_mw(&self) -> f64 {
        if self.latency_us <= 0.0 {
            return 0.0;
        }
        self.total_uj() / self.latency_us * 1000.0
    }

    /// Amortized energy per inference in microjoules for a report that
    /// covers a batch of `batch` inferences (traffic and latency summed
    /// over the batch).
    ///
    /// Batched weight residency shows up directly here: the weight-side
    /// traffic term is paid once per batch, so energy per inference
    /// falls as the batch grows.
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
    /// Energy per buffer byte accessed (pJ).
    pub buffer_pj_per_byte: f64,
    /// Energy per on-chip memory byte accessed (pJ).
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
            name: "DRAM",
            energy_uj: report.offchip_bytes() as f64 * self.dram_pj_per_byte / 1e6,
        });
        components
    }

    /// Computes the per-inference energy with the memory hierarchy
    /// modeled explicitly: the flat per-byte terms of
    /// [`EnergyModel::inference_energy`] for the structures the
    /// hierarchy does not model (Routing Buffer, the on-chip memories)
    /// plus capacity-scaled SPM dynamic energy, gating-aware SPM leakage
    /// and DRAM energy from the [`MemReport`].
    pub fn inference_energy_mem(
        &self,
        cfg: &AcceleratorConfig,
        macs: u64,
        traffic: &TrafficReport,
        report: &MemReport,
        total_cycles: u64,
    ) -> EnergyReport {
        let latency_us = cfg.cycles_to_us(total_cycles);
        let memory_bytes: u64 = [MemoryKind::DataMemory, MemoryKind::WeightMemory]
            .iter()
            .map(|&k| traffic.counter(k).total())
            .sum();
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
                energy_uj: memory_bytes as f64 * self.memory_pj_per_byte / 1e6,
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

    /// Computes the per-inference energy from the MAC count, the traffic
    /// report and the inference latency.
    pub fn inference_energy(
        &self,
        cfg: &AcceleratorConfig,
        macs: u64,
        traffic: &TrafficReport,
        latency_us: f64,
    ) -> EnergyReport {
        let buffer_bytes: u64 = [
            MemoryKind::DataBuffer,
            MemoryKind::RoutingBuffer,
            MemoryKind::WeightBuffer,
        ]
        .iter()
        .map(|&k| traffic.counter(k).total())
        .sum();
        let memory_bytes: u64 = [MemoryKind::DataMemory, MemoryKind::WeightMemory]
            .iter()
            .map(|&k| traffic.counter(k).total())
            .sum();
        let static_mw =
            PowerModel::cmos_32nm().estimate(cfg).total_power_mw() * self.static_fraction;
        let components = vec![
            EnergyComponent {
                name: "Compute (MACs)",
                energy_uj: macs as f64 * self.mac_pj / 1e6,
            },
            EnergyComponent {
                name: "Buffers",
                energy_uj: buffer_bytes as f64 * self.buffer_pj_per_byte / 1e6,
            },
            EnergyComponent {
                name: "On-chip memory",
                energy_uj: memory_bytes as f64 * self.memory_pj_per_byte / 1e6,
            },
            EnergyComponent {
                name: "Static",
                energy_uj: static_mw * latency_us / 1000.0 / 1000.0 * 1000.0,
            },
        ];
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
    use capsacc_capsnet::CapsNetConfig;
    use capsacc_core::timing;

    #[test]
    fn mnist_energy_reconciles_with_table2_power() {
        // E/t should land near the Table II average power (202 mW):
        // the model is calibrated to agree within ~35%.
        let cfg = AcceleratorConfig::paper();
        let net = CapsNetConfig::mnist();
        let t = timing::full_inference_batch(&cfg, &net, 1);
        let traffic = timing::batch_traffic_estimate(&cfg, &net, 1);
        let macs = net.conv1_geometry().macs()
            + net.primary_caps_geometry().macs()
            + (net.num_primary_caps()
                * net.num_classes
                * net.class_caps_dim
                * (net.pc_caps_dim + 2 * net.routing_iterations - 1)) as u64;
        let report = EnergyModel::cmos_32nm().inference_energy(
            &cfg,
            macs,
            &traffic,
            t.time_per_image_us(&cfg),
        );
        let implied = report.average_power_mw();
        assert!(
            (130.0..275.0).contains(&implied),
            "implied power {implied} mW vs Table II 202 mW"
        );
        assert!(report.total_uj() > 100.0, "µJ-scale energy expected");
    }

    #[test]
    fn breakdown_sums_to_one() {
        let cfg = AcceleratorConfig::paper();
        let net = CapsNetConfig::mnist();
        let t = timing::full_inference_batch(&cfg, &net, 1);
        let traffic = timing::batch_traffic_estimate(&cfg, &net, 1);
        let report = EnergyModel::cmos_32nm().inference_energy(
            &cfg,
            200_000_000,
            &traffic,
            t.time_per_image_us(&cfg),
        );
        let sum: f64 = report.breakdown().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);
        assert_eq!(report.components.len(), 4);
    }

    #[test]
    fn zero_latency_has_zero_static_energy() {
        let cfg = AcceleratorConfig::paper();
        let traffic = TrafficReport::default();
        let report = EnergyModel::cmos_32nm().inference_energy(&cfg, 0, &traffic, 0.0);
        assert_eq!(report.total_uj(), 0.0);
        assert_eq!(report.average_power_mw(), 0.0);
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
        use capsacc_core::MemoryConfig;
        let net = CapsNetConfig::mnist();
        let mut cfg = AcceleratorConfig::paper();
        cfg.memory = MemoryConfig::paper();
        let t = timing::full_inference_batch_mem(&cfg, &net, 4);
        let traffic = timing::batch_traffic_estimate(&cfg, &net, 4);
        let model = EnergyModel::cmos_32nm();
        let report =
            model.inference_energy_mem(&cfg, 200_000_000, &traffic, &t.report, t.total_cycles());
        let energy_of = |name: &str| {
            report
                .components
                .iter()
                .find(|c| c.name == name)
                .map(|c| c.energy_uj)
                .expect("component present")
        };
        assert!(energy_of("Weight SPM") > 0.0);
        assert!(energy_of("DRAM") > 0.0);
        assert!(energy_of("SPM leakage") > 0.0);
        let sum: f64 = report.breakdown().iter().map(|(_, f)| f).sum();
        assert!((sum - 1.0).abs() < 1e-9);

        // DESCNet sector gating reduces leakage (and only leakage).
        let mut ungated = cfg;
        ungated.memory.power_gating = false;
        let r2 = model.inference_energy_mem(
            &ungated,
            200_000_000,
            &traffic,
            &t.report,
            t.total_cycles(),
        );
        let leak_of = |r: &EnergyReport| {
            r.components
                .iter()
                .find(|c| c.name == "SPM leakage")
                .map(|c| c.energy_uj)
                .expect("leakage present")
        };
        assert!(leak_of(&r2) > leak_of(&report));
        assert!(r2.total_uj() > report.total_uj());
    }

    #[test]
    fn feedback_reuse_saves_energy() {
        let net = CapsNetConfig::mnist();
        let on = AcceleratorConfig::paper();
        let mut off = on;
        off.dataflow.routing_feedback = false;
        let model = EnergyModel::cmos_32nm();
        let e = |cfg: &AcceleratorConfig| {
            let t = timing::full_inference_batch(cfg, &net, 1);
            let traffic = timing::batch_traffic_estimate(cfg, &net, 1);
            model
                .inference_energy(cfg, 200_000_000, &traffic, t.time_per_image_us(cfg))
                .total_uj()
        };
        assert!(e(&off) > e(&on), "feedback reuse should save energy");
    }
}
