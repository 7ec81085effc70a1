//! # capsacc-bench — the experiment harness
//!
//! `exp_paper` regenerates every table and figure of the paper's
//! evaluation in one run and commits them as `BENCH_paper.json`; the
//! other `exp_*` binaries run the experiments beyond the paper (run
//! each with `cargo run -p capsacc-bench --bin exp_<id>`).
//!
//! This library holds the shared harness utilities: fixed-width table
//! printing, time formatting, the speedup labelling used by the
//! Fig. 16/17 comparisons, the energy of one engine run
//! ([`run_energy`]), and the [`BenchJson`] renderer behind every
//! committed BENCH_*.json artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use capsacc_core::{AcceleratorConfig, BatchRun};
use capsacc_power::{EnergyModel, EnergyReport};

pub use json::{json_row, json_str, BenchJson};

/// Energy of one engine run executed under `cfg`, priced by
/// [`EnergyModel::inference_energy_mem`] from the run's own counters:
/// the MACs its traces' `MacStats` count, its traffic, its memory
/// report and its cycles. Every energy figure of the experiment
/// binaries comes through here, so none can price an estimate instead.
///
/// # Example
///
/// ```
/// use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
/// use capsacc_core::{Accelerator, AcceleratorConfig};
/// let net = CapsNetConfig::tiny();
/// let cfg = AcceleratorConfig::test_4x4();
/// let qparams = CapsNetParams::generate(&net, 0).quantize(cfg.numeric);
/// let run = Accelerator::new(cfg)
///     .run_batch(&net, &qparams, &[net.test_image(0)])
///     .expect("valid image");
/// let energy = capsacc_bench::run_energy(&cfg, &run);
/// assert!(energy.onchip_uj() > 0.0 && energy.total_uj() > energy.onchip_uj());
/// ```
pub fn run_energy(cfg: &AcceleratorConfig, run: &BatchRun) -> EnergyReport {
    let macs = run.traces.iter().map(|t| t.output.stats.macs).sum();
    EnergyModel::cmos_32nm().inference_energy_mem(
        cfg,
        macs,
        &run.traffic,
        &run.memory,
        run.total_cycles(),
    )
}

/// Prints a fixed-width ASCII table with a title line.
///
/// # Example
///
/// ```
/// capsacc_bench::print_table(
///     "Demo",
///     &["layer", "time"],
///     &[vec!["Conv1".into(), "1.0 ms".into()]],
/// );
/// ```
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(cell.len());
            }
        }
    }
    println!("\n== {title} ==");
    let line: String = widths
        .iter()
        .map(|w| "-".repeat(w + 2))
        .collect::<Vec<_>>()
        .join("+");
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!(" {:<width$} ", c, width = widths[i]))
            .collect::<Vec<_>>()
            .join("|")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| h.to_string()).collect();
    println!("{}", fmt_row(&header_cells));
    println!("{line}");
    for row in rows {
        println!("{}", fmt_row(row));
    }
}

/// Formats a microsecond value with a sensible unit.
///
/// ```
/// assert_eq!(capsacc_bench::fmt_us(0.5), "0.500 µs");
/// assert_eq!(capsacc_bench::fmt_us(1500.0), "1.500 ms");
/// ```
pub fn fmt_us(us: f64) -> String {
    if us >= 1000.0 {
        format!("{:.3} ms", us / 1000.0)
    } else {
        format!("{us:.3} µs")
    }
}

/// Produces the paper-style comparison label for a GPU-vs-CapsAcc pair:
/// multiples when CapsAcc wins, percentage when it loses (matching the
/// annotations of Figs. 16–17, e.g. "12x faster", "46% slower").
///
/// ```
/// assert_eq!(capsacc_bench::speedup_label(1200.0, 100.0), "12.0x faster");
/// assert_eq!(capsacc_bench::speedup_label(100.0, 146.0), "46% slower");
/// ```
pub fn speedup_label(gpu_us: f64, capsacc_us: f64) -> String {
    if capsacc_us <= 0.0 || gpu_us <= 0.0 {
        return "n/a".to_owned();
    }
    if gpu_us >= capsacc_us {
        format!("{:.1}x faster", gpu_us / capsacc_us)
    } else {
        format!("{:.0}% slower", (capsacc_us / gpu_us - 1.0) * 100.0)
    }
}

/// Renders a crude log-scale ASCII bar for a value, for figure-style
/// output (the paper plots Figs. 8/9/16/17 on log axes).
///
/// ```
/// let bar = capsacc_bench::log_bar(1000.0, 10_000.0, 30);
/// assert!(!bar.is_empty());
/// ```
pub fn log_bar(value_us: f64, max_us: f64, width: usize) -> String {
    if value_us <= 0.0 || max_us <= 0.0 {
        return String::new();
    }
    // Map [1, max] logarithmically onto [1, width].
    let lv = value_us.max(1.0).log10();
    let lm = max_us.max(10.0).log10();
    // lint:allow(cast-audit, bar width is rounded from a small positive f64; the cast back to a count is lossless)
    let n = ((lv / lm) * width as f64).round().max(1.0) as usize;
    "#".repeat(n.min(width))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speedup_labels_match_paper_style() {
        assert_eq!(speedup_label(600.0, 100.0), "6.0x faster");
        assert_eq!(speedup_label(100.0, 100.0), "1.0x faster");
        assert_eq!(speedup_label(100.0, 146.0), "46% slower");
        assert_eq!(speedup_label(0.0, 1.0), "n/a");
    }

    #[test]
    fn fmt_us_units() {
        assert_eq!(fmt_us(12.3456), "12.346 µs");
        assert_eq!(fmt_us(12345.6), "12.346 ms");
    }

    #[test]
    fn log_bar_monotone() {
        let small = log_bar(10.0, 10_000.0, 40).len();
        let big = log_bar(10_000.0, 10_000.0, 40).len();
        assert!(big >= small);
        assert!(big <= 40);
    }

    #[test]
    fn print_table_smoke() {
        print_table("t", &["a", "b"], &[vec!["1".into(), "2".into()]]);
    }
}
