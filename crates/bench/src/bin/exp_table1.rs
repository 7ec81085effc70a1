//! Regenerates **Table I** and **Fig. 5** of the paper: per-layer input
//! sizes, trainable-parameter counts and output sizes of the MNIST
//! CapsuleNet, plus the parameter-distribution percentages.

use capsacc_bench::print_table;
use capsacc_capsnet::CapsNetConfig;

fn main() {
    let cfg = CapsNetConfig::mnist();
    let rows: Vec<Vec<String>> = cfg
        .table1()
        .iter()
        .map(|l| {
            vec![
                l.name.to_owned(),
                l.inputs.to_string(),
                l.parameters.to_string(),
                l.outputs.to_string(),
            ]
        })
        .collect();
    print_table(
        "Table I — Input size, trainable parameters, output size",
        &["Layer", "Inputs", "# parameters", "Outputs"],
        &rows,
    );
    println!(
        "\nNote: the paper prints 102400 for PrimaryCaps outputs; the geometric\n\
         value is 6·6·32·8 = 9216 (102400 is the Conv1 output count)."
    );

    // Fig. 5: distribution of parameters (coupling coefficients included
    // in the pie as the paper does).
    let with_coupling = cfg.total_parameters() + cfg.coupling_coefficient_count();
    let pct = |n: usize| format!("{:.2}%", 100.0 * n as f64 / with_coupling as f64);
    print_table(
        "Fig. 5 — Distribution of parameters",
        &["Layer", "Share", "Paper"],
        &[
            vec!["Conv1".into(), pct(cfg.conv1_parameters()), "<1%".into()],
            vec![
                "PrimaryCaps".into(),
                pct(cfg.primary_caps_parameters()),
                "78%".into(),
            ],
            vec![
                "ClassCaps".into(),
                pct(cfg.class_caps_parameters()),
                "22%".into(),
            ],
            vec![
                "Coupling Coeff".into(),
                pct(cfg.coupling_coefficient_count()),
                "<1%".into(),
            ],
        ],
    );
    println!(
        "\nTotal trainable parameters: {} (8-bit weights fit the paper's 8 MB\n\
         on-chip memory: {} bytes ≤ {} bytes)",
        cfg.total_parameters(),
        cfg.total_parameters(),
        8 * 1024 * 1024
    );
}
