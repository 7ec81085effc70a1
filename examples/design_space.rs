//! Design-space exploration: sweep the systolic-array size and buffer
//! capacities around the paper's 16×16 design point and report
//! performance (analytical cycle model), area, power, and energy
//! efficiency — the scaling study the paper's component models enable.
//!
//! Run with: `cargo run --example design_space`

use capsacc::capsnet::CapsNetConfig;
use capsacc::core::{timing, AcceleratorConfig};
use capsacc::power::PowerModel;

fn main() {
    let net = CapsNetConfig::mnist();
    let model = PowerModel::cmos_32nm();

    println!(
        "{:<10} {:>12} {:>10} {:>10} {:>10} {:>12} {:>14}",
        "array", "cycles", "time", "area", "power", "inf/s", "inf/s/W"
    );
    for size in [4usize, 8, 16, 32, 64] {
        let mut cfg = AcceleratorConfig::paper();
        cfg.rows = size;
        cfg.cols = size;
        let t = timing::full_inference_batch(&cfg, &net, 1);
        let report = model.estimate(&cfg);
        let time_s = t.time_per_image_us(&cfg) / 1e6;
        let inf_per_s = 1.0 / time_s;
        let watts = report.total_power_mw() / 1000.0;
        println!(
            "{:<10} {:>12} {:>9.2}ms {:>8.2}mm² {:>8.0}mW {:>12.0} {:>14.0}",
            format!("{size}x{size}"),
            t.total_cycles(),
            t.time_per_image_us(&cfg) / 1000.0,
            report.total_area_mm2(),
            report.total_power_mw(),
            inf_per_s,
            inf_per_s / watts
        );
    }

    println!("\nBuffer sizing at the 16×16 point (Data Buffer share of area):");
    for kb in [64usize, 128, 256, 512] {
        let mut cfg = AcceleratorConfig::paper();
        cfg.memory.data_spm.bytes = kb * 1024;
        let report = model.estimate(&cfg);
        let share = report
            .area_breakdown()
            .into_iter()
            .find(|(n, _)| *n == "Data Buffer")
            .map(|(_, f)| f)
            .unwrap_or(0.0);
        println!(
            "  data buffer {kb:>4} KiB → {:.2} mm² total, Data Buffer = {:.0}% of area",
            report.total_area_mm2(),
            share * 100.0
        );
    }

    println!(
        "\nThe paper's 16×16 / 256 KiB point balances the array (~1/4 of area)\n\
         against the buffers (Fig. 18); larger arrays help the compute-bound\n\
         layers but PrimaryCaps stays pinned by its 5.3 MB weight stream."
    );
}
