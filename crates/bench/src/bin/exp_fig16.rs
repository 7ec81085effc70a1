//! Regenerates **Fig. 16** of the paper: layer-wise CapsAcc inference
//! time versus the GPU baseline, with the paper-style speedup
//! annotations (Conv1 6× faster, PrimaryCaps ≈46% slower, ClassCaps 12×
//! faster, overall 6× faster).

use capsacc_bench::{fmt_us, print_table, speedup_label};
use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{timing, AcceleratorConfig};
use capsacc_gpu_model::GpuModel;

fn main() {
    let acc_cfg = AcceleratorConfig::paper();
    let net = CapsNetConfig::mnist();
    let acc = timing::full_inference_batch(&acc_cfg, &net, 1);
    let gpu = GpuModel::gtx1070().layer_times_us(&net);

    let paper = ["6x faster", "46% slower", "12x faster", "6x faster"];
    let acc_rows = [
        ("Conv1", acc.conv1.cycles, gpu.conv1),
        ("PrimaryCaps", acc.primary_caps.cycles, gpu.primary_caps),
        ("ClassCaps", acc.class_caps_cycles(), gpu.class_caps),
        ("Total", acc.total_cycles(), gpu.total()),
    ];
    let rows: Vec<Vec<String>> = acc_rows
        .iter()
        .zip(paper)
        .map(|(&(name, cycles, gpu_us), paper_label)| {
            let acc_us = acc_cfg.cycles_to_us(cycles);
            vec![
                name.to_owned(),
                format!("{cycles}"),
                fmt_us(acc_us),
                fmt_us(gpu_us),
                speedup_label(gpu_us, acc_us),
                paper_label.to_owned(),
            ]
        })
        .collect();
    print_table(
        "Fig. 16 — CapsAcc vs GPU, layer-wise (16×16 array @ 250 MHz)",
        &[
            "Layer",
            "CapsAcc cycles",
            "CapsAcc",
            "GPU",
            "Measured",
            "Paper",
        ],
        &rows,
    );
    println!(
        "\nPrimaryCaps detail: compute {} cycles vs weight-stream {} cycles\n\
         (5.3 MB of weights for 36 output pixels — the layer where the GPU\n\
         keeps an edge, as in the paper).",
        acc.primary_caps.compute_cycles, acc.primary_caps.weight_stream_cycles
    );
}
