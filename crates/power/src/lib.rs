//! # capsacc-power — analytical 32nm area and power model
//!
//! The paper synthesizes CapsAcc with Synopsys Design Compiler in a 32nm
//! library at 1.05 V and reports the design parameters (Table II), the
//! per-component area/power (Table III) and their breakdowns (Fig. 18).
//! We cannot run a proprietary synthesis flow, so this crate substitutes
//! a *component-level analytical model*: per-PE, per-unit and
//! per-SRAM-byte constants calibrated to Table III at the paper's design
//! point, applied structurally to any [`AcceleratorConfig`].
//!
//! What the substitution preserves: the breakdown *structure* (buffers
//! dominate, the systolic array is ≈ 1/4 of the budget — Fig. 18) and
//! the ability to run the scaling ablations the design implies (array
//! and buffer sizing, voltage/frequency scaling with `P ∝ f·V²`).
//!
//! # Example
//!
//! ```
//! use capsacc_power::PowerModel;
//! use capsacc_core::AcceleratorConfig;
//! let report = PowerModel::cmos_32nm().estimate(&AcceleratorConfig::paper());
//! // Table II: 2.90 mm², 202 mW.
//! assert!((report.total_area_mm2() - 2.90).abs() < 0.02);
//! assert!((report.total_power_mw() - 202.0).abs() < 2.0);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use capsacc_core::AcceleratorConfig;

pub mod energy;

pub use energy::{EnergyComponent, EnergyModel, EnergyReport};

/// Area/power estimate for one architectural component (a Table III
/// row).
#[derive(Clone, PartialEq, Debug)]
pub struct ComponentEstimate {
    /// Component name as printed in Table III.
    pub name: &'static str,
    /// Area in µm².
    pub area_um2: f64,
    /// Power in mW.
    pub power_mw: f64,
}

/// A complete estimate (all Table III rows).
#[derive(Clone, PartialEq, Debug)]
pub struct PowerReport {
    /// Per-component estimates in Table III order.
    pub components: Vec<ComponentEstimate>,
}

impl PowerReport {
    /// Total area in mm² (the Table II figure).
    pub fn total_area_mm2(&self) -> f64 {
        self.components.iter().map(|c| c.area_um2).sum::<f64>() / 1e6
    }

    /// Total power in mW (the Table II figure).
    pub fn total_power_mw(&self) -> f64 {
        self.components.iter().map(|c| c.power_mw).sum()
    }

    /// Area breakdown fractions per component (Fig. 18a).
    pub fn area_breakdown(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_area_mm2() * 1e6;
        self.components
            .iter()
            .map(|c| (c.name, c.area_um2 / total))
            .collect()
    }

    /// Power breakdown fractions per component (Fig. 18b).
    pub fn power_breakdown(&self) -> Vec<(&'static str, f64)> {
        let total = self.total_power_mw();
        self.components
            .iter()
            .map(|c| (c.name, c.power_mw / total))
            .collect()
    }

    /// Looks a component up by its Table III name.
    pub fn component(&self, name: &str) -> Option<&ComponentEstimate> {
        self.components.iter().find(|c| c.name == name)
    }
}

/// The Table II synthesis-parameter summary.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct SynthesisSummary {
    /// Technology node in nm.
    pub tech_node_nm: u32,
    /// Supply voltage in volts.
    pub voltage_v: f64,
    /// Core area in mm².
    pub area_mm2: f64,
    /// Power in mW.
    pub power_mw: f64,
    /// Clock frequency in MHz.
    pub clock_mhz: u64,
    /// Datapath operand width in bits.
    pub bit_width: u32,
    /// On-chip memory in MB: Table II's 8 MB
    /// ([`AcceleratorConfig::ONCHIP_MEMORY_BYTES`]), not part of the core
    /// area — Table III does not include it.
    pub onchip_memory_mb: f64,
}

/// The calibrated component model.
///
/// All constants are per-instance or per-byte values derived from
/// Table III at the paper's 16×16 / 256 KiB / 64 KiB / 24 KiB design
/// point; dynamic power scales as `f · V²` from the 250 MHz / 1.05 V
/// calibration corner.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct PowerModel {
    /// Technology node (informational).
    pub tech_node_nm: u32,
    /// Supply voltage (V) — power scales quadratically from 1.05 V.
    pub voltage_v: f64,
    /// Area per PE (µm²): multiplier, adder, four registers.
    pub pe_area_um2: f64,
    /// Power per PE at the calibration corner (mW).
    pub pe_power_mw: f64,
    /// Area per accumulator unit (FIFO + adder) per column (µm²).
    pub accumulator_area_um2: f64,
    /// Power per accumulator unit (mW).
    pub accumulator_power_mw: f64,
    /// Area per activation unit (ReLU + Norm + Squash + Softmax LUTs)
    /// (µm²).
    pub activation_area_um2: f64,
    /// Power per activation unit (mW).
    pub activation_power_mw: f64,
    /// SRAM area per byte for the Data Buffer (µm²).
    pub data_buffer_area_per_byte: f64,
    /// SRAM power per byte for the Data Buffer (mW).
    pub data_buffer_power_per_byte: f64,
    /// SRAM area per byte for the Routing Buffer (µm²).
    pub routing_buffer_area_per_byte: f64,
    /// SRAM power per byte for the Routing Buffer (mW).
    pub routing_buffer_power_per_byte: f64,
    /// SRAM area per byte for the Weight Buffer (µm²).
    pub weight_buffer_area_per_byte: f64,
    /// SRAM power per byte for the Weight Buffer (mW).
    pub weight_buffer_power_per_byte: f64,
    /// Fixed area of the control logic ("Other") (µm²).
    pub control_area_um2: f64,
    /// Fixed power of the control logic (mW).
    pub control_power_mw: f64,
}

impl PowerModel {
    /// Calibration corner frequency (MHz).
    pub const CAL_CLOCK_MHZ: f64 = 250.0;
    /// Calibration corner voltage (V).
    pub const CAL_VOLTAGE_V: f64 = 1.05;

    /// The 32nm model calibrated to Table III.
    pub fn cmos_32nm() -> Self {
        Self {
            tech_node_nm: 32,
            voltage_v: 1.05,
            // Systolic Array: 680 525 µm² / 46.09 mW over 256 PEs.
            pe_area_um2: 680_525.0 / 256.0,
            pe_power_mw: 46.09 / 256.0,
            // Accumulator: 311 961 µm² / 22.80 mW over 16 columns.
            accumulator_area_um2: 311_961.0 / 16.0,
            accumulator_power_mw: 22.80 / 16.0,
            // Activation: 143 045 µm² / 5.94 mW over 16 units.
            activation_area_um2: 143_045.0 / 16.0,
            activation_power_mw: 5.94 / 16.0,
            // Data Buffer: 1 332 349 µm² / 95.96 mW over 256 KiB.
            data_buffer_area_per_byte: 1_332_349.0 / 262_144.0,
            data_buffer_power_per_byte: 95.96 / 262_144.0,
            // Routing Buffer: 316 226 µm² / 22.78 mW over 64 KiB.
            routing_buffer_area_per_byte: 316_226.0 / 65_536.0,
            routing_buffer_power_per_byte: 22.78 / 65_536.0,
            // Weight Buffer: 115 643 µm² / 8.34 mW over 24 KiB.
            weight_buffer_area_per_byte: 115_643.0 / 24_576.0,
            weight_buffer_power_per_byte: 8.34 / 24_576.0,
            // Other: 4 330 µm² / 0.13 mW.
            control_area_um2: 4_330.0,
            control_power_mw: 0.13,
        }
    }

    /// Dynamic-power scale factor relative to the calibration corner:
    /// `(f / 250 MHz) · (V / 1.05)²`.
    pub fn power_scale(&self, cfg: &AcceleratorConfig) -> f64 {
        (cfg.clock_mhz as f64 / Self::CAL_CLOCK_MHZ)
            * (self.voltage_v / Self::CAL_VOLTAGE_V).powi(2)
    }

    /// Estimates area and power for a configuration (the Table III
    /// rows).
    pub fn estimate(&self, cfg: &AcceleratorConfig) -> PowerReport {
        let scale = self.power_scale(cfg);
        let pes = cfg.pe_count() as f64;
        // One accumulator unit and one activation unit per column.
        let cols = cfg.cols as f64;
        let data_bytes = cfg.memory.data_spm.bytes as f64;
        let weight_bytes = cfg.memory.weight_spm.bytes as f64;
        let components = vec![
            ComponentEstimate {
                name: "Accumulator",
                area_um2: self.accumulator_area_um2 * cols,
                power_mw: self.accumulator_power_mw * cols * scale,
            },
            ComponentEstimate {
                name: "Activation",
                area_um2: self.activation_area_um2 * cols,
                power_mw: self.activation_power_mw * cols * scale,
            },
            ComponentEstimate {
                name: "Data Buffer",
                area_um2: self.data_buffer_area_per_byte * data_bytes,
                power_mw: self.data_buffer_power_per_byte * data_bytes * scale,
            },
            ComponentEstimate {
                name: "Routing Buffer",
                area_um2: self.routing_buffer_area_per_byte * cfg.routing_buffer_bytes as f64,
                power_mw: self.routing_buffer_power_per_byte
                    * cfg.routing_buffer_bytes as f64
                    * scale,
            },
            ComponentEstimate {
                name: "Weight Buffer",
                area_um2: self.weight_buffer_area_per_byte * weight_bytes,
                power_mw: self.weight_buffer_power_per_byte * weight_bytes * scale,
            },
            ComponentEstimate {
                name: "Systolic Array",
                area_um2: self.pe_area_um2 * pes,
                power_mw: self.pe_power_mw * pes * scale,
            },
            ComponentEstimate {
                name: "Other",
                area_um2: self.control_area_um2,
                power_mw: self.control_power_mw * scale,
            },
        ];
        PowerReport { components }
    }

    /// The Table II summary for a configuration.
    pub fn table2(&self, cfg: &AcceleratorConfig) -> SynthesisSummary {
        let report = self.estimate(cfg);
        SynthesisSummary {
            tech_node_nm: self.tech_node_nm,
            voltage_v: self.voltage_v,
            area_mm2: report.total_area_mm2(),
            power_mw: report.total_power_mw(),
            clock_mhz: cfg.clock_mhz,
            bit_width: 8,
            onchip_memory_mb: AcceleratorConfig::ONCHIP_MEMORY_BYTES as f64 / (1024.0 * 1024.0),
        }
    }
}

impl Default for PowerModel {
    fn default() -> Self {
        Self::cmos_32nm()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn paper_report() -> PowerReport {
        PowerModel::cmos_32nm().estimate(&AcceleratorConfig::paper())
    }

    #[test]
    fn table3_rows_match_paper() {
        let r = paper_report();
        let expect = [
            ("Accumulator", 311_961.0, 22.80),
            ("Activation", 143_045.0, 5.94),
            ("Data Buffer", 1_332_349.0, 95.96),
            ("Routing Buffer", 316_226.0, 22.78),
            ("Weight Buffer", 115_643.0, 8.34),
            ("Systolic Array", 680_525.0, 46.09),
            ("Other", 4_330.0, 0.13),
        ];
        for (name, area, power) in expect {
            let c = r.component(name).expect(name);
            assert!(
                (c.area_um2 - area).abs() / area < 0.005,
                "{name} area {} vs {area}",
                c.area_um2
            );
            assert!(
                (c.power_mw - power).abs() / power < 0.005,
                "{name} power {} vs {power}",
                c.power_mw
            );
        }
    }

    #[test]
    fn table2_totals_match_paper() {
        let t2 = PowerModel::cmos_32nm().table2(&AcceleratorConfig::paper());
        assert_eq!(t2.tech_node_nm, 32);
        assert_eq!(t2.voltage_v, 1.05);
        assert!((t2.area_mm2 - 2.90).abs() < 0.02, "area = {}", t2.area_mm2);
        assert!((t2.power_mw - 202.0).abs() < 2.0, "power = {}", t2.power_mw);
        assert_eq!(t2.clock_mhz, 250);
        assert_eq!(t2.bit_width, 8);
        assert_eq!(t2.onchip_memory_mb, 8.0);
    }

    #[test]
    fn fig18_breakdown_shape() {
        // Fig. 18: Data Buffer ≈ 46% area / 47% power; Systolic Array
        // ≈ 23%; buffers dominate and the array is about a quarter.
        let r = paper_report();
        let area: std::collections::HashMap<_, _> = r.area_breakdown().into_iter().collect();
        let power: std::collections::HashMap<_, _> = r.power_breakdown().into_iter().collect();
        assert!((area["Data Buffer"] - 0.46).abs() < 0.02);
        assert!((area["Systolic Array"] - 0.23).abs() < 0.02);
        assert!((power["Data Buffer"] - 0.47).abs() < 0.02);
        assert!((power["Systolic Array"] - 0.23).abs() < 0.02);
        let buffers = area["Data Buffer"] + area["Routing Buffer"] + area["Weight Buffer"];
        assert!(buffers > 0.5, "buffers dominate area: {buffers}");
    }

    #[test]
    fn power_scales_with_frequency() {
        let model = PowerModel::cmos_32nm();
        let mut half = AcceleratorConfig::paper();
        half.clock_mhz = 125;
        let full = model.estimate(&AcceleratorConfig::paper());
        let halved = model.estimate(&half);
        let ratio = halved.total_power_mw() / full.total_power_mw();
        assert!((ratio - 0.5).abs() < 1e-9);
        // Area is frequency-independent.
        assert_eq!(halved.total_area_mm2(), full.total_area_mm2());
    }

    #[test]
    fn power_scales_quadratically_with_voltage() {
        let mut model = PowerModel::cmos_32nm();
        model.voltage_v = 2.1; // 2× the calibration corner
        let r = model.estimate(&AcceleratorConfig::paper());
        let base = paper_report();
        let ratio = r.total_power_mw() / base.total_power_mw();
        assert!((ratio - 4.0).abs() < 1e-9);
    }

    #[test]
    fn array_scaling_ablation() {
        // An 8×8 array quarters the systolic-array area; a 32×32 array
        // quadruples it.
        let model = PowerModel::cmos_32nm();
        let mut small = AcceleratorConfig::paper();
        small.rows = 8;
        small.cols = 8;
        let mut big = AcceleratorConfig::paper();
        big.rows = 32;
        big.cols = 32;
        let base = paper_report()
            .component("Systolic Array")
            .expect("sa")
            .area_um2;
        let s = model.estimate(&small);
        let b = model.estimate(&big);
        assert!((s.component("Systolic Array").expect("sa").area_um2 / base - 0.25).abs() < 1e-9);
        assert!((b.component("Systolic Array").expect("sa").area_um2 / base - 4.0).abs() < 1e-9);
    }

    #[test]
    fn breakdowns_sum_to_one() {
        let r = paper_report();
        let sa: f64 = r.area_breakdown().iter().map(|(_, f)| f).sum();
        let sp: f64 = r.power_breakdown().iter().map(|(_, f)| f).sum();
        assert!((sa - 1.0).abs() < 1e-9);
        assert!((sp - 1.0).abs() < 1e-9);
    }
}
