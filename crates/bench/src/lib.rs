//! # capsacc-bench — the experiment harness
//!
//! One binary per table/figure of the paper's evaluation (run with
//! `cargo run -p capsacc-bench --bin exp_<id>`).
//!
//! This library holds the shared harness utilities: fixed-width table
//! printing, time formatting, the speedup labelling used by the
//! Fig. 16/17 comparisons, and the [`BenchJson`] renderer behind every
//! committed BENCH_*.json artifact.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod json;

use capsacc_tensor::u64_from;

pub use json::{json_row, BenchJson};

/// MAC operations of one full inference: the two convolutions, the
/// ClassCaps FC, and the routing Sum/Update sweeps (`Σ c·û` per
/// iteration, `û·v` per non-final iteration). Shared by the
/// energy-reporting experiment binaries so their accounting cannot
/// drift apart.
///
/// # Example
///
/// ```
/// use capsacc_capsnet::CapsNetConfig;
/// let macs = capsacc_bench::inference_macs(&CapsNetConfig::mnist());
/// assert!(macs > 100_000_000);
/// ```
pub fn inference_macs(net: &capsacc_capsnet::CapsNetConfig) -> u64 {
    let routing = u64_from(net.num_primary_caps() * net.num_classes * net.class_caps_dim);
    net.conv1_geometry().macs()
        + net.primary_caps_geometry().macs()
        + routing * (u64_from(net.pc_caps_dim) + 2 * u64_from(net.routing_iterations) - 1)
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
