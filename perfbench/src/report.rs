//! The metric tables and the result format.
//!
//! Every workload prints the same two fixed metric sets: all of
//! [`END_TO_END`] in an untraced run and all of [`PER_LAYER`] in a traced
//! one, in table order, so runs of different workloads and commits line
//! up name for name. The tables are the single source of the names that
//! `BENCHMARK.json` lists (a unit test holds the two in step).

use std::fmt::Write as _;

use crate::stats::{valid_name, valid_unit};

/// One metric: its name in the result and its unit.
pub struct MetricDef {
    /// Name as printed, `[A-Za-z0-9_.-]+`.
    pub name: &'static str,
    /// Unit as printed.
    pub unit: &'static str,
}

const fn m(name: &'static str, unit: &'static str) -> MetricDef {
    MetricDef { name, unit }
}

/// Metrics a user of the system sees, printed by every untraced run.
pub const END_TO_END: &[MetricDef] = &[
    m("setup_s", "s"),
    m("host_ms_per_image", "ms"),
    m("host_latency_p50_ms", "ms"),
    m("images_per_s", "1/s"),
    m("requests_per_host_s", "1/s"),
    m("peak_rss_mb", "MB"),
    m("sim_cycles_per_image", "cycles"),
    m("sim_uj_per_image", "uJ"),
    m("sim_latency_p99_cycles", "cycles"),
    m("sim_goodput_fraction", "fraction"),
];

/// The three layers of the network, in `LayerRun` and span-name order,
/// with the slug used in metric names.
pub const LAYERS: [(&str, &str); 3] = [
    ("Conv1", "conv1"),
    ("PrimaryCaps", "primarycaps"),
    ("ClassCaps", "classcaps"),
];

/// `EnergyReport` component names and their metric slugs.
pub const POWER_COMPONENTS: [(&str, &str); 9] = [
    ("Compute (MACs)", "power.compute_uj_per_image"),
    ("Routing Buffer", "power.routing_buffer_uj_per_image"),
    ("On-chip memory", "power.onchip_memory_uj_per_image"),
    ("Data SPM", "power.data_spm_uj_per_image"),
    ("Weight SPM", "power.weight_spm_uj_per_image"),
    ("Accumulator SPM", "power.accumulator_spm_uj_per_image"),
    ("SPM leakage", "power.spm_leakage_uj_per_image"),
    ("DRAM", "power.dram_uj_per_image"),
    ("Static", "power.static_uj_per_image"),
];

/// Single-layer metrics, printed by every traced run. A layer the
/// workload does not exercise reads 0.
pub const PER_LAYER: &[MetricDef] = &[
    m("core.conv1.host_stage_ms", "ms"),
    m("core.conv1.host_sweep_ms", "ms"),
    m("core.conv1.matmuls", "count"),
    m("core.primarycaps.host_stage_ms", "ms"),
    m("core.primarycaps.host_sweep_ms", "ms"),
    m("core.primarycaps.matmuls", "count"),
    m("core.classcaps.host_stage_ms", "ms"),
    m("core.classcaps.host_sweep_ms", "ms"),
    m("core.classcaps.matmuls", "count"),
    m("core.host_attributed_fraction", "fraction"),
    m("core.thread_speedup", "x"),
    m("core.conv1.sim_cycles", "cycles"),
    m("core.primarycaps.sim_cycles", "cycles"),
    m("core.classcaps.sim_cycles", "cycles"),
    m("core.routing.sum.sim_cycles", "cycles"),
    m("core.routing.softmax.sim_cycles", "cycles"),
    m("core.routing.squash.sim_cycles", "cycles"),
    m("core.routing.update.sim_cycles", "cycles"),
    m("core.accumulator_saturations", "count"),
    m("memory.stall_cycles_per_image", "cycles"),
    m("memory.stall_share", "fraction"),
    m("memory.dram_bytes_per_image", "bytes"),
    m("memory.weight_buffer_bytes_per_image", "bytes"),
    m("timing.conv1.model_minus_engine_cycles.b1", "cycles"),
    m("timing.primarycaps.model_minus_engine_cycles.b1", "cycles"),
    m("timing.classcaps.model_minus_engine_cycles.b1", "cycles"),
    m("timing.conv1.model_minus_engine_cycles.b16", "cycles"),
    m("timing.primarycaps.model_minus_engine_cycles.b16", "cycles"),
    m("timing.classcaps.model_minus_engine_cycles.b16", "cycles"),
    m("timing.service_table_host_ms", "ms"),
    m("power.compute_uj_per_image", "uJ"),
    m("power.routing_buffer_uj_per_image", "uJ"),
    m("power.onchip_memory_uj_per_image", "uJ"),
    m("power.data_spm_uj_per_image", "uJ"),
    m("power.weight_spm_uj_per_image", "uJ"),
    m("power.accumulator_spm_uj_per_image", "uJ"),
    m("power.spm_leakage_uj_per_image", "uJ"),
    m("power.dram_uj_per_image", "uJ"),
    m("power.static_uj_per_image", "uJ"),
    m("serve.trace_gen_host_ms", "ms"),
    m("serve.runtime_host_s", "s"),
    m("serve.batches", "count"),
    m("serve.mean_batch_len", "count"),
    m("serve.rejected.queue_full", "count"),
    m("serve.rejected.deadline_infeasible", "count"),
    m("serve.rejected.shed_low_priority", "count"),
    m("serve.rejected.retry_exhausted", "count"),
    m("serve.workers_spawned", "count"),
    m("serve.peak_workers", "count"),
    m("serve.event_digest", "digest48"),
    m("pool.host_s", "s"),
    m("pool.parallel_efficiency", "fraction"),
    m("faults.crashes", "count"),
    m("faults.requeues", "count"),
    m("faults.exhausted_batches", "count"),
    m("faults.hedges", "count"),
    m("faults.degrade_shifts", "count"),
    m("faults.hedge_win_ratio", "fraction"),
    m("faults.wasted_cycle_share", "fraction"),
    m("telemetry.overhead_fraction", "fraction"),
    m("host.ops", "count"),
    m("host.op_spread", "fraction"),
    m("host.latency_tail_ms", "ms"),
];

/// Values for one metric table, in table order.
pub struct Sheet {
    defs: &'static [MetricDef],
    values: Vec<f64>,
}

impl Sheet {
    /// A sheet over `defs` with every value at `init`. End-to-end sheets
    /// start at NaN so a metric a workload forgot to set fails the
    /// finiteness check at render time; per-layer sheets start at 0.
    pub fn new(defs: &'static [MetricDef], init: f64) -> Self {
        Self {
            defs,
            values: vec![init; defs.len()],
        }
    }

    /// Sets a metric by name.
    ///
    /// # Panics
    ///
    /// Panics if `name` is not in this sheet's table: a misspelt name is
    /// a bug in the benchmark, never a property of the measured program.
    pub fn set(&mut self, name: &str, value: f64) {
        let i = self
            .defs
            .iter()
            .position(|d| d.name == name)
            .unwrap_or_else(|| panic!("metric {name} is not in the table"));
        self.values[i] = value;
    }

    /// The `"metrics"` object of the result line.
    ///
    /// # Panics
    ///
    /// Panics on a non-finite value or a malformed name or unit (both
    /// benchmark bugs; JSON has no NaN).
    fn render(&self) -> String {
        let mut out = String::from("{");
        for (i, (d, v)) in self.defs.iter().zip(&self.values).enumerate() {
            assert!(valid_name(d.name) && valid_unit(d.unit), "{}", d.name);
            assert!(v.is_finite(), "metric {} was not measured ({v})", d.name);
            let sep = if i == 0 { "" } else { ", " };
            // `{}` on f64 prints the shortest decimal that round-trips:
            // every digit as measured, never an exponent.
            let _ = write!(
                out,
                "{sep}\"{}\": {{\"value\": {v}, \"unit\": \"{}\"}}",
                d.name, d.unit
            );
        }
        out.push('}');
        out
    }
}

/// Operations attempted and failed in one run: timed calls that returned
/// an error or panicked, and output checks that did not match.
#[derive(Copy, Clone, Default, Debug)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed.
    pub failed: u64,
}

impl Tally {
    /// Counts one operation.
    pub fn record(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// The final stdout line: exactly `correct`, `attempted`, `failed`,
/// `metrics`.
pub fn result_line(tally: Tally, sheet: &Sheet) -> String {
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
        tally.failed == 0 && tally.attempted > 0,
        tally.attempted,
        tally.failed,
        sheet.render()
    )
}

/// The SIMD level the functional kernel dispatch picks on this host,
/// by the same runtime feature tests the kernel makes.
pub fn simd_level() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f")
            && std::arch::is_x86_feature_detected!("avx512bw")
            && std::arch::is_x86_feature_detected!("avx512vnni")
        {
            return "avx512-vnni";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// Build profile of this binary.
pub fn build_profile() -> &'static str {
    if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    }
}

/// Peak resident set of this process in MiB (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or lacks
/// the field (the benchmark needs Linux procfs).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read /proc/self/status: {e}"))?;
    let kib: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Names of one `BENCHMARK.json` section, read with plain string
    /// search (the format is fixed and flat).
    fn section_names(json: &str, key: &str) -> Vec<String> {
        let start = json.find(&format!("\"{key}\"")).expect("section present");
        let body = &json[start..];
        let end = body.find(']').expect("section closes");
        body[..end]
            .split("\"name\":")
            .skip(1)
            .map(|s| {
                s.trim()
                    .trim_start_matches('"')
                    .split('"')
                    .next()
                    .unwrap_or("")
                    .to_string()
            })
            .collect()
    }

    #[test]
    fn tables_match_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json beside the benchmark");
        let names =
            |defs: &[MetricDef]| defs.iter().map(|d| d.name.to_string()).collect::<Vec<_>>();
        assert_eq!(section_names(&json, "end_to_end"), names(END_TO_END));
        assert_eq!(section_names(&json, "per_layer"), names(PER_LAYER));
    }

    #[test]
    fn tables_are_well_formed() {
        for defs in [END_TO_END, PER_LAYER] {
            for (i, d) in defs.iter().enumerate() {
                assert!(valid_name(d.name), "{}", d.name);
                assert!(valid_unit(d.unit), "{}", d.unit);
                assert!(
                    defs[..i].iter().all(|o| o.name != d.name),
                    "{} listed twice",
                    d.name
                );
            }
        }
        for (_, slug) in POWER_COMPONENTS {
            assert!(PER_LAYER.iter().any(|d| d.name == slug), "{slug}");
        }
    }

    #[test]
    fn result_line_has_the_four_keys() {
        let mut sheet = Sheet::new(END_TO_END, 1.5);
        sheet.set("setup_s", 0.25);
        let mut tally = Tally::default();
        tally.record(true);
        let line = result_line(tally, &sheet);
        assert!(
            line.starts_with("{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {")
        );
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
        tally.record(false);
        assert!(result_line(tally, &sheet).starts_with("{\"correct\": false"));
    }

    #[test]
    #[should_panic(expected = "not measured")]
    fn unset_end_to_end_metric_refuses_to_render() {
        let _ = result_line(Tally::default(), &Sheet::new(END_TO_END, f64::NAN));
    }
}
