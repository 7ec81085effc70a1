//! Regenerates the paper's tables and figures in README order, and
//! writes every printed table row to `BENCH_paper.json` in the current
//! directory through the same call ([`Paper::table`]). The file has no
//! host figures, so it regenerates byte-identically and `ci.sh` diffs it.
//!
//! Figs. 16 and 17 and the Sec. V ablations put the engine's cycles
//! beside the closed form's: one batch-1 `run_batch` of
//! `SyntheticMnist::new(1).sample(0)` (`CapsNetParams` seed 1) on the
//! functional backend, under ideal memory and `MemoryConfig::paper()`.
//! The engine executes the paper's pipelined tile schedule. The
//! ablation runs also check the Sec. V claims on that digit: the engine
//! without tile pipelining is slower under both memories, skipping the
//! first softmax leaves the class capsules and couplings bit-identical,
//! and the routing feedback path never adds Data Memory reads. The
//! energy tables price the same runs, so they too have an ideal-memory
//! and a paper-memory column.

use capsacc_bench::{fmt_us, json_str, log_bar, print_table, run_energy, speedup_label, BenchJson};
use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
use capsacc_core::{
    mapping, timing, Accelerator, AcceleratorConfig, BatchRun, EngineBackend, LayerRun,
    MemoryConfig, MemoryKind, RoutingStep,
};
use capsacc_fixed::{squash_derivative_1d, squash_scalar_1d, SquashLut};
use capsacc_gpu_model::GpuModel;
use capsacc_mnist::SyntheticMnist;
use capsacc_power::{EnergyReport, PowerModel};

/// Prints each table and records its rows for `BENCH_paper.json`.
struct Paper(BenchJson);

impl Paper {
    /// Prints `rows` under `title`, with `headers` separated by `|`,
    /// and records the header row and `rows` under `key`.
    fn table(&mut self, key: &str, title: &str, headers: &str, rows: Vec<Vec<String>>) {
        let headers: Vec<&str> = headers.split('|').collect();
        print_table(title, &headers, &rows);
        let line = |cells: Vec<String>| format!("[{}]", cells.join(", "));
        let mut lines = vec![line(headers.iter().map(|h| json_str(h)).collect())];
        lines.extend(
            rows.iter()
                .map(|r| line(r.iter().map(|c| json_str(c)).collect())),
        );
        self.0.rows(key, lines);
    }
}

/// One batch-1 engine run and its energy.
struct EngineRun {
    run: BatchRun,
    energy: EnergyReport,
}

/// One engine configuration run under ideal memory and under the
/// paper's memory hierarchy, in that order.
type EngineRuns = [EngineRun; 2];

fn main() {
    let net = CapsNetConfig::mnist();
    let cfg = AcceleratorConfig::paper();
    let mut json = BenchJson::new("exp_paper");
    json.str_field("config", "paper_16x16_250MHz");
    json.str_field("net", "mnist");
    json.str_field("engine", "functional, batch 1");
    json.str_field("engine_image", "SyntheticMnist seed 1, sample 0");
    json.field("engine_params_seed", 1);
    let mut paper = Paper(json);

    let ablations = ablation_configs(cfg);
    let engine: Vec<EngineRuns> = {
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        let image = SyntheticMnist::new(1).sample(0).image;
        ablations
            .iter()
            .map(|&(_, c)| {
                [MemoryConfig::ideal(), MemoryConfig::paper()].map(|memory| {
                    let c = AcceleratorConfig {
                        backend: EngineBackend::Functional,
                        memory,
                        ..c
                    };
                    let run = Accelerator::new(c)
                        .run_batch(&net, &qparams, std::slice::from_ref(&image))
                        .expect("valid image");
                    let energy = run_energy(&c, &run);
                    EngineRun { run, energy }
                })
            })
            .collect()
    };

    table1(&mut paper, &net);
    tables2_3(&mut paper, &cfg);
    fig03(&mut paper);
    figs08_09(&mut paper, &net);
    fig16(&mut paper, &cfg, &net, &engine[0]);
    fig17(&mut paper, &cfg, &net, &engine[0]);
    fig18(&mut paper, &cfg);
    mapping_orders(&mut paper, &cfg, &net);
    routing_ablations(&mut paper, &net, &ablations, &engine);
    energy(&mut paper, &ablations, &engine);

    if let Err(e) = paper.0.write("BENCH_paper.json") {
        println!("\nWARNING: could not write BENCH_paper.json: {e}");
    }
}

/// The paper's design point, then one dataflow switch off at a time.
fn ablation_configs(base: AcceleratorConfig) -> [(&'static str, AcceleratorConfig); 5] {
    let mut out = [("all optimizations (paper)", base); 5];
    out[1].0 = "no skip-first-softmax";
    out[1].1.dataflow.skip_first_softmax = false;
    out[2].0 = "no routing feedback reuse";
    out[2].1.dataflow.routing_feedback = false;
    out[3].0 = "no tile pipelining";
    out[3].1.dataflow.pipelined_tiles = false;
    out[4].0 = "no weight reuse";
    out[4].1.dataflow.weight_reuse = false;
    out
}

/// Table I (per-layer sizes and parameters) and Fig. 5 (parameter
/// distribution, coupling coefficients included as in the paper).
fn table1(paper: &mut Paper, net: &CapsNetConfig) {
    let rows = net
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
    paper.table(
        "table1",
        "Table I — Input size, trainable parameters, output size",
        "Layer|Inputs|# parameters|Outputs",
        rows,
    );
    println!(
        "\nNote: the paper prints 102400 for PrimaryCaps outputs; the geometric\n\
         value is 6·6·32·8 = 9216 (102400 is the Conv1 output count)."
    );

    let with_coupling = net.total_parameters() + net.coupling_coefficient_count();
    let pct = |n: usize| format!("{:.2}%", 100.0 * n as f64 / with_coupling as f64);
    let rows = [
        ("Conv1", net.conv1_parameters(), "<1%"),
        ("PrimaryCaps", net.primary_caps_parameters(), "78%"),
        ("ClassCaps", net.class_caps_parameters(), "22%"),
        ("Coupling Coeff", net.coupling_coefficient_count(), "<1%"),
    ]
    .map(|(name, n, claim)| vec![name.to_owned(), pct(n), claim.to_owned()]);
    paper.table(
        "fig05",
        "Fig. 5 — Distribution of parameters",
        "Layer|Share|Paper",
        rows.to_vec(),
    );
    println!(
        "\nTotal trainable parameters: {} (8-bit weights fit the paper's 8 MB\n\
         on-chip memory: {} bytes ≤ {} bytes)",
        net.total_parameters(),
        net.total_parameters(),
        8 * 1024 * 1024
    );
}

/// Table II (synthesized design parameters) and Table III (area and
/// power per component).
fn tables2_3(paper: &mut Paper, cfg: &AcceleratorConfig) {
    let t2 = PowerModel::cmos_32nm().table2(cfg);
    let rows = [
        ("Tech. node [nm]", t2.tech_node_nm.to_string(), "32"),
        ("Voltage [V]", format!("{:.2}", t2.voltage_v), "1.05"),
        ("Area [mm2]", format!("{:.2}", t2.area_mm2), "2.90"),
        ("Power [mW]", format!("{:.0}", t2.power_mw), "202"),
        ("Clk Freq. [MHz]", t2.clock_mhz.to_string(), "250"),
        ("Bit width", t2.bit_width.to_string(), "8"),
        (
            "On-Chip Mem. [MB]",
            format!("{:.0}", t2.onchip_memory_mb),
            "8",
        ),
    ]
    .map(|(name, got, claim)| vec![name.to_owned(), got, claim.to_owned()]);
    paper.table(
        "table2",
        "Table II — Parameters of the synthesized CapsAcc accelerator",
        "Parameter|Measured|Paper",
        rows.to_vec(),
    );

    let report = PowerModel::cmos_32nm().estimate(cfg);
    let claims = [
        ("Accumulator", 311_961u64, 22.80),
        ("Activation", 143_045, 5.94),
        ("Data Buffer", 1_332_349, 95.96),
        ("Routing Buffer", 316_226, 22.78),
        ("Weight Buffer", 115_643, 8.34),
        ("Systolic Array", 680_525, 46.09),
        ("Other", 4_330, 0.13),
    ];
    let rows = report
        .components
        .iter()
        .zip(claims)
        .map(|(c, (name, area, power))| {
            assert_eq!(c.name, name, "component order");
            vec![
                c.name.to_owned(),
                format!("{:.0}", c.area_um2),
                area.to_string(),
                format!("{:.2}", c.power_mw),
                format!("{power:.2}"),
            ]
        })
        .collect();
    paper.table(
        "table3",
        "Table III — Area and power per component",
        "Component|Area [µm²]|Paper [µm²]|Power [mW]|Paper [mW]",
        rows,
    );
    println!(
        "\nTotals: {:.2} mm², {:.1} mW (paper: 2.90 mm², 202 mW)",
        report.total_area_mm2(),
        report.total_power_mw()
    );
}

/// Fig. 3: the single-dimensional squash and its first derivative over
/// `x ∈ [0, 6]`, the derivative peak, and the squash LUT's error.
fn fig03(paper: &mut Paper) {
    let rows = (0..=24)
        .map(|i| {
            let x = i as f32 * 0.25;
            vec![
                format!("{x:.2}"),
                format!("{:.4}", squash_scalar_1d(x)),
                format!("{:.4}", squash_derivative_1d(x)),
            ]
        })
        .collect();
    paper.table(
        "fig03",
        "Fig. 3 — squash(x) and its first derivative",
        "x|squash|squash'",
        rows,
    );

    let mut best = (0.0f32, 0.0f32);
    for i in 0..60_000 {
        let x = i as f32 * 1e-4;
        let d = squash_derivative_1d(x);
        if d > best.1 {
            best = (x, d);
        }
    }
    println!(
        "\nDerivative peak: ({:.4}, {:.4})   paper: (0.5767, 0.6495)",
        best.0, best.1
    );
    // Hardware LUT fidelity (6-bit data × 5-bit norm → 8-bit out).
    let lut = SquashLut::default();
    println!(
        "Squash LUT: {} entries, max |error| = {:.4} (one Q2.5 LSB = {:.4})",
        SquashLut::ENTRIES,
        lut.max_abs_error(),
        1.0 / 32.0
    );
}

/// Figs. 8 and 9: GPU time per layer and per routing step (calibrated
/// GTX1070 model), with log-scale bars as the paper plots them.
fn figs08_09(paper: &mut Paper, net: &CapsNetConfig) {
    let bars = |times: Vec<(&str, f64)>| {
        let max = times.iter().map(|&(_, us)| us).fold(0.0, f64::max);
        let bar = |(name, us): (&str, f64)| vec![name.to_owned(), fmt_us(us), log_bar(us, max, 40)];
        times.into_iter().map(bar).collect()
    };
    let gpu = GpuModel::gtx1070();
    let t = gpu.layer_times_us(net);
    let mut layers = t.rows();
    layers.push(("Total", t.total()));
    paper.table(
        "fig08",
        "Fig. 8 — Layer-wise GPU inference time (log-scale bars)",
        "Layer|Time|",
        bars(layers),
    );
    println!(
        "\nShape check (paper Sec. III-B): ClassCaps ≈ 10× slower than the\n\
         other layers — measured ratio: {:.1}×",
        t.class_caps / t.conv1.max(t.primary_caps)
    );

    let steps = gpu.routing_steps_us(net);
    let times = steps.iter().map(|s| (s.label.as_str(), s.time_us));
    paper.table(
        "fig09",
        "Fig. 9 — GPU time per routing-by-agreement step (log-scale bars)",
        "Step|Time|",
        bars(times.collect()),
    );
    let squash: f64 = steps
        .iter()
        .filter(|s| s.label.starts_with("Squash"))
        .map(|s| s.time_us)
        .sum();
    let total: f64 = steps.iter().map(|s| s.time_us).sum();
    println!(
        "\nShape check (paper Sec. III-B): squashing is the most\n\
         compute-intensive step — measured share of ClassCaps time: {:.0}%",
        100.0 * squash / total
    );
}

/// Fig. 16: CapsAcc versus GPU per layer, with the paper's annotations
/// (Conv1 6× faster, PrimaryCaps ≈46% slower, ClassCaps 12× faster,
/// overall 6× faster).
fn fig16(paper: &mut Paper, cfg: &AcceleratorConfig, net: &CapsNetConfig, engine: &EngineRuns) {
    // Conv1, PrimaryCaps, ClassCaps, then the total.
    let gpu = GpuModel::gtx1070().layer_times_us(net);
    let mut layers = gpu.rows();
    layers.push(("Total", gpu.total()));
    let acc = timing::full_inference_batch(cfg, net, 1);
    let model = [
        acc.conv1.cycles,
        acc.primary_caps.cycles,
        acc.class_caps_cycles(),
        acc.total_cycles(),
    ];
    let claims = ["6x faster", "46% slower", "12x faster", "6x faster"];
    let engine_cycles = engine.each_ref().map(|EngineRun { run, .. }| {
        let layers = run.layers.iter().map(LayerRun::cycles);
        layers.chain([run.total_cycles()]).collect::<Vec<_>>()
    });
    let rows = layers
        .iter()
        .zip(model.into_iter().zip(claims))
        .enumerate()
        .map(|(i, (&(name, gpu_us), (cycles, claim)))| {
            let acc_us = cfg.cycles_to_us(cycles);
            let mut row = vec![
                name.to_owned(),
                cycles.to_string(),
                fmt_us(acc_us),
                fmt_us(gpu_us),
                speedup_label(gpu_us, acc_us),
                claim.to_owned(),
            ];
            for run in &engine_cycles {
                row.push(run[i].to_string());
                row.push(speedup_label(gpu_us, cfg.cycles_to_us(run[i])));
            }
            row
        })
        .collect();
    paper.table(
        "fig16",
        "Fig. 16 — CapsAcc vs GPU, layer-wise (16×16 array @ 250 MHz)",
        "Layer|CapsAcc cycles|CapsAcc|GPU|Measured|Paper|\
         Engine cycles|Engine|Engine cycles (paper mem)|Engine (paper mem)",
        rows,
    );
    println!(
        "\nPrimaryCaps detail: compute {} cycles vs weight-stream {} cycles\n\
         (5.3 MB of weights for 36 output pixels — the layer where the GPU\n\
         keeps an edge, as in the paper).",
        acc.primary_caps.compute_cycles, acc.primary_caps.weight_stream_cycles
    );
}

/// The paper's Fig. 17 annotation for a routing step.
fn fig17_claim(step: RoutingStep) -> &'static str {
    match step {
        RoutingStep::Load => "9% faster",
        RoutingStep::Fc => "14% slower",
        RoutingStep::Softmax(_) | RoutingStep::Sum(_) => "3x faster",
        RoutingStep::Squash(_) => "172x faster",
        RoutingStep::Update(_) => "6x faster",
    }
}

/// Fig. 17: CapsAcc versus GPU per routing step, with the paper's
/// annotations (Load 9% faster, FC 14% slower, Softmax 3×, Sum 3×,
/// Squash 172×, Update 6×).
fn fig17(paper: &mut Paper, cfg: &AcceleratorConfig, net: &CapsNetConfig, engine: &EngineRuns) {
    let acc_steps = timing::batch_routing_steps(net, 1, cfg);
    let gpu_steps = GpuModel::gtx1070().routing_steps_us(net);
    assert_eq!(acc_steps.len(), gpu_steps.len(), "steps must align");
    for EngineRun { run, .. } in engine {
        assert_eq!(acc_steps.len(), run.steps.len(), "steps must align");
    }
    let rows = acc_steps
        .iter()
        .zip(&gpu_steps)
        .enumerate()
        .map(|(i, (a, g))| {
            let label = a.step.to_string();
            assert_eq!(label, g.label, "step order mismatch");
            let acc_us = a.time_us(cfg);
            let mut row = vec![
                label.clone(),
                a.cycles.to_string(),
                fmt_us(acc_us),
                fmt_us(g.time_us),
                speedup_label(g.time_us, acc_us),
                fig17_claim(a.step).to_owned(),
            ];
            for EngineRun { run, .. } in engine {
                let (step, cycles) = run.steps[i];
                assert_eq!(step, a.step, "engine step order mismatch");
                row.push(cycles.to_string());
            }
            row
        })
        .collect();
    paper.table(
        "fig17",
        "Fig. 17 — CapsAcc vs GPU per routing step",
        "Step|CapsAcc cycles|CapsAcc|GPU|Measured|Paper|Engine cycles|Engine cycles (paper mem)",
        rows,
    );

    let acc_total: f64 = acc_steps.iter().map(|s| s.time_us(cfg)).sum();
    let gpu_total: f64 = gpu_steps.iter().map(|s| s.time_us).sum();
    println!(
        "\nClassCaps phase total: CapsAcc {} vs GPU {} → {}",
        fmt_us(acc_total),
        fmt_us(gpu_total),
        speedup_label(gpu_total, acc_total)
    );
    println!(
        "Note: our squash speedup exceeds the paper's 172× because the model\n\
         squashes the 10 class capsules on parallel per-column activation\n\
         units; the paper's measured squash implies extra serialization it\n\
         does not specify. The qualitative claim — squash goes from GPU\n\
         bottleneck to negligible — reproduces strongly."
    );
}

/// Fig. 18: area and power breakdowns (Data Buffer ≈ 46/47%, Systolic
/// Array ≈ 23%, buffers dominate).
fn fig18(paper: &mut Paper, cfg: &AcceleratorConfig) {
    let report = PowerModel::cmos_32nm().estimate(cfg);
    // (component, paper area share, paper power share)
    let claims = [
        ("Accumulator", "11%", "11%"),
        ("Activation", "5%", "3%"),
        ("Data Buffer", "46%", "47%"),
        ("Routing Buffer", "11%", "11%"),
        ("Weight Buffer", "4%", "4%"),
        ("Systolic Array", "23%", "23%"),
        ("Other", "<1%", "<1%"),
    ];
    let area = report.area_breakdown();
    let power = report.power_breakdown();
    let rows = area
        .iter()
        .zip(&power)
        .map(|((name, af), (_, pf))| {
            let (_, pa, pp) = claims.iter().find(|(n, _, _)| n == name).expect("row");
            vec![
                (*name).to_owned(),
                format!("{:.1}%", af * 100.0),
                (*pa).to_owned(),
                format!("{:.1}%", pf * 100.0),
                (*pp).to_owned(),
            ]
        })
        .collect();
    paper.table(
        "fig18",
        "Fig. 18 — Area and power breakdown",
        "Component|Area|Paper|Power|Paper",
        rows,
    );
    let buffers: f64 = area
        .iter()
        .filter(|(n, _)| n.contains("Buffer"))
        .map(|(_, f)| f)
        .sum();
    println!(
        "\nShape check: buffers take {:.0}% of the area; the systolic array\n\
         is about 1/4 of the budget, as the paper observes.",
        buffers * 100.0
    );
}

/// Fig. 14 mapping orders (Sec. V-B): the paper's output-channel-first
/// order against the interleaved alternative, in accumulator entries.
fn mapping_orders(paper: &mut Paper, cfg: &AcceleratorConfig, net: &CapsNetConfig) {
    let rows = [
        ("Conv1", net.conv1_geometry()),
        ("PrimaryCaps", net.primary_caps_geometry()),
    ]
    .map(|(name, g)| {
        let ours = mapping::analyze_conv(&g, mapping::LoopOrder::OutputChannelOuter, cfg);
        let alt = mapping::analyze_conv(&g, mapping::LoopOrder::OutputChannelInner, cfg);
        vec![
            name.to_owned(),
            ours.peak_accumulator_entries.to_string(),
            alt.peak_accumulator_entries.to_string(),
            format!("{:.0}×", mapping::accumulator_saving(&g, cfg)),
            format!("{} B", ours.accumulator_bytes),
            format!("{} B", alt.accumulator_bytes),
        ]
    });
    paper.table(
        "fig14_mapping",
        "Fig. 14 mapping orders — accumulator FIFO requirements",
        "Layer|Paper order (entries)|Interleaved (entries)|Saving|Paper bytes|Interleaved bytes",
        rows.to_vec(),
    );
    println!(
        "\nSec. V-B: \"This mapping procedure allows us to minimize the\n\
         accumulator size, because our CapsAcc accelerator computes first the\n\
         output features for the same output channel.\" The interleaved\n\
         alternative would need one FIFO entry per in-flight output-channel\n\
         tile — 16× more storage on the 16×16 array."
    );
}

/// The Sec. V ablations: the routing optimizations (skip the first
/// softmax, reuse `û` through the feedback path) and the convolutional
/// weight reuse and tile pipelining of Sec. IV-A, one switch off at a
/// time, in the closed form and in the engine.
fn routing_ablations(
    paper: &mut Paper,
    net: &CapsNetConfig,
    ablations: &[(&str, AcceleratorConfig)],
    engine: &[EngineRuns],
) {
    let rows = ablations
        .iter()
        .zip(engine)
        .map(|((name, c), runs)| {
            let t = timing::full_inference_batch(c, net, 1);
            let (class_caps, total) = (t.class_caps_cycles(), t.total_cycles());
            let mut row = vec![
                (*name).to_owned(),
                class_caps.to_string(),
                fmt_us(c.cycles_to_us(class_caps)),
                total.to_string(),
                fmt_us(c.cycles_to_us(total)),
            ];
            for EngineRun { run, .. } in runs {
                row.push(run.layers[2].cycles().to_string());
                row.push(run.total_cycles().to_string());
            }
            row
        })
        .collect();
    paper.table(
        "sec5_ablations",
        "Sec. V ablations — ClassCaps and total inference cycles",
        "Configuration|ClassCaps cyc|ClassCaps|Total cyc|Total|Engine ClassCaps cyc|\
         Engine total cyc|Engine ClassCaps cyc (paper mem)|Engine total cyc (paper mem)",
        rows,
    );

    // Sec. IV-A's tile pipelining, executed: the engine without it is
    // slower under either memory model.
    for (i, memory) in ["ideal", "paper"].into_iter().enumerate() {
        let [paper_point, serial] = [0, 3].map(|a| engine[a][i].run.total_cycles());
        assert!(
            serial > paper_point,
            "the engine without tile pipelining is not slower under {memory} memory \
             ({serial} vs {paper_point} cycles)"
        );
        println!(
            "Tile pipelining on the engine ({memory} memory): {paper_point} cycles, \
             {serial} without"
        );
    }

    // Both checks hold under either memory model; the ideal-memory runs
    // carry them.
    let [base, no_skip] = [0, 1].map(|i| &engine[i][0].run.traces[0].output);
    assert!(
        base.class_caps == no_skip.class_caps && base.couplings == no_skip.couplings,
        "skip-first-softmax changed the fixed-point class capsules or couplings"
    );
    println!(
        "\nSkip-first-softmax functional equivalence (bit-exact): \
         PASS — identical class capsules and couplings"
    );
    let [dm_on, dm_off] = [0, 2].map(|i| {
        let traffic = &engine[i][0].run.traffic;
        traffic.counter(MemoryKind::DataMemory).read_bytes
    });
    assert!(
        dm_off >= dm_on,
        "disabling the feedback path cut Data Memory reads ({dm_on} B -> {dm_off} B)"
    );
    println!(
        "Routing feedback reuse (cycle-accurate engine, MNIST digit):\n\
         Data Memory reads with feedback: {dm_on} B, without: {dm_off} B\n\
         → the feedback path eliminates {} B of on-chip memory re-reads",
        dm_off - dm_on
    );
}

/// Energy per inference at the paper's design point (a derived
/// metric), priced from the engine runs above under each memory model:
/// its decomposition, the on-chip power it implies against Table II,
/// and what the data reuse saves.
fn energy(paper: &mut Paper, ablations: &[(&str, AcceleratorConfig)], engine: &[EngineRuns]) {
    let [ideal, finite] = [&engine[0][0].energy, &engine[0][1].energy];
    let uj = |uj: f64| format!("{uj:.1} µJ");
    let share = |frac: f64| format!("{:.0}%", frac * 100.0);
    let rows = ideal
        .components
        .iter()
        .zip(ideal.breakdown())
        .zip(finite.components.iter().zip(finite.breakdown()))
        .map(|((c, (_, frac)), (f, (_, f_frac)))| {
            assert_eq!(c.name, f.name, "component order");
            vec![
                c.name.to_owned(),
                uj(c.energy_uj),
                share(frac),
                uj(f.energy_uj),
                share(f_frac),
            ]
        })
        .collect();
    paper.table(
        "energy",
        "Energy per MNIST inference (16×16 @ 250 MHz)",
        "Component|Energy|Share|Energy (paper mem)|Share (paper mem)",
        rows,
    );
    println!(
        "\nTotal: {} over {:.2} ms (ideal memory), {} over {:.2} ms (paper memory).\n\
         On chip (every component but DRAM), ideal memory: {} → {:.1} mW average\n\
         power, against Table II's 202 mW, the chip's own power. The weights\n\
         sit in DRAM behind the Weight SPM under both memory models.",
        uj(ideal.total_uj()),
        ideal.latency_us / 1000.0,
        uj(finite.total_uj()),
        finite.latency_us / 1000.0,
        uj(ideal.onchip_uj()),
        ideal.onchip_power_mw()
    );

    let ms = |e: &EnergyReport| format!("{:.2} ms", e.latency_us / 1000.0);
    let rows = [0, 2, 4].map(|i| {
        let [ideal, finite] = [&engine[i][0].energy, &engine[i][1].energy];
        vec![
            ablations[i].0.to_owned(),
            uj(ideal.total_uj()),
            ms(ideal),
            uj(finite.total_uj()),
            ms(finite),
        ]
    });
    paper.table(
        "energy_ablations",
        "Energy ablations — what the data reuse saves",
        "Configuration|Energy/inference|Latency|Energy/inference (paper mem)|Latency (paper mem)",
        rows.to_vec(),
    );
}
