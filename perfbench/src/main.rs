//! The CapsAcc benchmark: one workload per run, measured on both clocks
//! (host wall-clock and simulated accelerator cycles), through the
//! workspace crates' public APIs only.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload mnist-b16 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! `--trace 0` prints every end-to-end metric; `--trace 1` runs the same
//! workload with the engine's phase recorder on (host timing included)
//! and prints the per-layer ledger instead. The last stdout line is the
//! result object; the line before it stamps the host environment and the
//! run's sample counts. See `README.md` for the workloads and metrics.

mod cpus;
mod engine;
mod pool;
mod report;
mod serve;
mod speed;
mod stats;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::time::Instant;

use report::{Sheet, Tally, END_TO_END, PER_LAYER};

/// Seed used when `--seed` is not given.
const DEFAULT_SEED: u64 = 1;

/// Least number of timed set-ups per run; their median is reported as
/// `setup_s`.
const SETUP_REPS: usize = 11;

/// Host seconds over which set-ups are timed. A set-up takes tens of
/// milliseconds and host speed drifts over seconds, so the median needs
/// samples spread over seconds to repeat from run to run.
const SETUP_S: f64 = 3.0;

/// Host seconds of untimed set-ups before the timed ones. On an idle
/// host the first half second or so of work runs up to three times
/// slower, and a median taken during that ramp moves from run to run.
const SETUP_WARMUP_S: f64 = 1.0;

const USAGE: &str =
    "usage: capsacc-perfbench --workload <mnist-b16|mnist-b1|pool-b4|serve-faults> \
                     [--seed <n>] [--seconds <n>] [--trace <0|1>]";

#[derive(Copy, Clone, PartialEq, Eq, Debug)]
enum Workload {
    MnistB16,
    MnistB1,
    PoolB4,
    ServeFaults,
}

const WORKLOADS: [(&str, Workload); 4] = [
    ("mnist-b16", Workload::MnistB16),
    ("mnist-b1", Workload::MnistB1),
    ("pool-b4", Workload::PoolB4),
    ("serve-faults", Workload::ServeFaults),
];

impl Workload {
    fn parse(name: &str) -> Option<Self> {
        WORKLOADS.iter().find(|(n, _)| *n == name).map(|&(_, w)| w)
    }

    fn name(self) -> &'static str {
        WORKLOADS
            .iter()
            .find(|&&(_, w)| w == self)
            .map_or("", |&(n, _)| n)
    }
}

#[derive(Debug, PartialEq)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, DEFAULT_SEED, 10.0, false);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => workload = Some(Workload::parse(value).ok_or_else(bad)?),
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err(bad());
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
    })
}

/// Host milliseconds since `t`.
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

/// Runs `step(i, cpu)` back to back, at least once, until `seconds` of
/// wall time have passed: a closed loop with one caller. Step `i` runs
/// pinned to the CPU of slot `cpu` of a [`cpus::Rotation`].
fn window(seconds: f64, mut step: impl FnMut(usize, usize)) {
    let rotation = cpus::Rotation::new();
    let start = Instant::now();
    let mut i = 0;
    while i == 0 || start.elapsed().as_secs_f64() < seconds {
        step(i, rotation.pin(i));
        i += 1;
    }
}

/// Runs `f`, turning a panic into `None` so it counts as a failed
/// operation instead of ending the run.
fn guarded<T>(f: impl FnOnce() -> T) -> Option<T> {
    catch_unwind(AssertUnwindSafe(f)).ok()
}

/// Builds a workload's state untimed for [`SETUP_WARMUP_S`], then timed
/// for [`SETUP_S`] and at least [`SETUP_REPS`] times, rotating over the
/// CPUs and dropping each copy before the next so peak memory holds one.
/// Returns each timed build's host seconds, grouped by CPU slot, and the
/// last state.
fn repeat_setup<S>(mut build: impl FnMut() -> S) -> (Vec<Vec<f64>>, S) {
    let rotation = cpus::Rotation::new();
    let mut reference = speed::Reference::new();
    let mut times = vec![Vec::new(); rotation.slots()];
    let mut state = None;
    let warmup = Instant::now();
    for i in 0.. {
        if warmup.elapsed().as_secs_f64() >= SETUP_WARMUP_S {
            break;
        }
        rotation.pin(i);
        drop(state.take());
        state = Some(build());
    }
    let timed = Instant::now();
    for i in 0.. {
        if i >= SETUP_REPS && timed.elapsed().as_secs_f64() >= SETUP_S {
            break;
        }
        let cpu = rotation.pin(i);
        drop(state.take());
        let t = Instant::now();
        state = Some(build());
        let secs = t.elapsed().as_secs_f64();
        times[cpu].push(secs * reference.speed_after(secs * 1e3));
    }
    (times, state.expect("SETUP_REPS > 0"))
}

/// What a simulated end-to-end metric reads on a workload that does not
/// simulate it: a constant, so it never gates a change there, and not 0,
/// because bounds are shares of the parent's value.
const NOT_SIMULATED: f64 = 1.0;

/// Host timings and simulated results of one run's timed operations.
struct Timed {
    /// Host seconds of each timed set-up, by CPU slot.
    setup_s: Vec<Vec<f64>>,
    /// Host ms of each successful timed operation, in order; and at the
    /// reference host's speed, by CPU slot.
    op_ms: Vec<f64>,
    op_ms_by_cpu: Vec<Vec<f64>>,
    reference: speed::Reference,
    /// Host speed measured after each successful operation.
    speeds: Vec<f64>,
    /// Images (requests) offered per operation.
    offered_per_op: f64,
    sim_cycles_per_image: f64,
    sim_uj_per_image: f64,
    sim_latency_p99_cycles: f64,
    sim_goodput_fraction: f64,
}

impl Timed {
    fn new(setup_s: Vec<Vec<f64>>, offered_per_op: f64) -> Self {
        Self {
            setup_s,
            op_ms: Vec::new(),
            op_ms_by_cpu: Vec::new(),
            reference: speed::Reference::new(),
            speeds: Vec::new(),
            offered_per_op,
            sim_cycles_per_image: NOT_SIMULATED,
            sim_uj_per_image: NOT_SIMULATED,
            sim_latency_p99_cycles: NOT_SIMULATED,
            sim_goodput_fraction: NOT_SIMULATED,
        }
    }

    /// Records one timed operation that ran on CPU slot `cpu`.
    fn op(&mut self, cpu: usize, ms: f64, ok: bool) {
        if ok {
            self.op_ms.push(ms);
            let speed = self.reference.speed_after(ms);
            self.speeds.push(speed);
            if self.op_ms_by_cpu.len() <= cpu {
                self.op_ms_by_cpu.resize(cpu + 1, Vec::new());
            }
            self.op_ms_by_cpu[cpu].push(ms * speed);
        }
    }

    /// Median operation time, taken per CPU and averaged over the CPUs.
    fn median_ms(&self) -> f64 {
        stats::mean_of_medians(&self.op_ms_by_cpu).unwrap_or(f64::NAN)
    }
}

/// What a workload run reports.
struct Outcome {
    tally: Tally,
    sheet: Option<Sheet>,
    /// Timed samples, and the percentile the tail rule picked for them.
    samples: usize,
    tail_percentile: Option<f64>,
    /// Median host speed over the timed operations, relative to the
    /// reference host, and their raw median host ms.
    host_speed: f64,
    raw_median_ms: f64,
}

impl Outcome {
    fn new(tally: Tally) -> Self {
        Self {
            tally,
            sheet: None,
            samples: 0,
            tail_percentile: None,
            host_speed: f64::NAN,
            raw_median_ms: f64::NAN,
        }
    }

    fn note_samples(&mut self, t: &Timed) {
        self.samples = t.op_ms.len();
        self.tail_percentile = stats::tail(&t.op_ms).map(|(pct, _)| pct);
        self.host_speed = stats::median(&t.speeds).unwrap_or(f64::NAN);
        self.raw_median_ms = stats::median(&t.op_ms).unwrap_or(f64::NAN);
    }

    /// Fills every end-to-end metric except `peak_rss_mb`, which is read
    /// last, after the run.
    fn end_to_end(&mut self, t: &Timed) {
        self.note_samples(t);
        let mut s = Sheet::new(END_TO_END, f64::NAN);
        let median_ms = t.median_ms();
        s.set(
            "setup_s",
            stats::mean_of_medians(&t.setup_s).unwrap_or(f64::NAN),
        );
        // Every workload measures the host metrics of its own operation;
        // each metric's own workload is the one it is defined for.
        let per_s = t.offered_per_op * 1e3 / median_ms;
        s.set("host_ms_per_image", median_ms / t.offered_per_op);
        s.set("host_latency_p50_ms", median_ms);
        s.set("images_per_s", per_s);
        s.set("requests_per_host_s", per_s);
        s.set("sim_cycles_per_image", t.sim_cycles_per_image);
        s.set("sim_uj_per_image", t.sim_uj_per_image);
        s.set("sim_latency_p99_cycles", t.sim_latency_p99_cycles);
        s.set("sim_goodput_fraction", t.sim_goodput_fraction);
        self.sheet = Some(s);
    }

    /// A per-layer sheet with the sample count and within-run spread of
    /// the timed operations filled in; layers start at 0.
    fn per_layer(&mut self, t: &Timed) -> Sheet {
        self.note_samples(t);
        let mut s = Sheet::new(PER_LAYER, 0.0);
        s.set("host.ops", t.op_ms.len() as f64);
        s.set("host.op_spread", stats::spread(&t.op_ms).unwrap_or(0.0));
        // The tail percentile does not repeat run to run on a shared host
        // closely enough to bound, so it is a ledger entry, not an
        // end-to-end metric.
        s.set(
            "host.latency_tail_ms",
            stats::tail(&t.op_ms).map_or(0.0, |(_, v)| v),
        );
        s
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("capsacc-perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    let mut out = match args.workload {
        Workload::MnistB16 => engine::run(16, args.seed, args.seconds, args.trace),
        Workload::MnistB1 => engine::run(1, args.seed, args.seconds, args.trace),
        Workload::PoolB4 => pool::run(args.seed, args.seconds, args.trace),
        Workload::ServeFaults => serve::run(args.seed, args.seconds, args.trace),
    };
    let Some(mut sheet) = out.sheet.take() else {
        eprintln!("capsacc-perfbench: the workload produced no metrics");
        return ExitCode::from(1);
    };
    if !args.trace {
        match report::peak_rss_mb() {
            Ok(mb) => sheet.set("peak_rss_mb", mb),
            Err(e) => {
                eprintln!("capsacc-perfbench: {e}");
                return ExitCode::from(1);
            }
        }
    }
    let tally = out.tally;
    let error_rate = tally.failed as f64 / tally.attempted.max(1) as f64;
    println!(
        "{{\"perfbench\": {{\"workload\": \"{}\", \"seed\": {}, \"default_seed\": {DEFAULT_SEED}, \
         \"seconds\": {}, \"trace\": {}, \"nproc\": {nproc}, \"simd\": \"{}\", \"profile\": \"{}\", \
         \"error_rate\": {error_rate}, \"samples\": {}, \"tail_percentile\": \"p{}\", \
         \"host_speed\": {:.4}, \"raw_median_ms\": {:.4}}}}}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        report::simd_level(),
        report::build_profile(),
        out.samples,
        out.tail_percentile.unwrap_or(50.0),
        out.host_speed,
        out.raw_median_ms,
    );
    println!("{}", report::result_line(tally, &sheet));
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let a =
            parse_args(&argv("--workload pool-b4 --seed 7 --seconds 12 --trace 1")).expect("valid");
        assert_eq!(
            a,
            Args {
                workload: Workload::PoolB4,
                seed: 7,
                seconds: 12.0,
                trace: true
            }
        );
        let d = parse_args(&argv("--workload mnist-b1")).expect("valid");
        assert_eq!((d.seed, d.trace), (DEFAULT_SEED, false));
    }

    #[test]
    fn rejects_malformed_command_lines() {
        for bad in [
            "",
            "--seed 1",
            "--workload nope",
            "--workload mnist-b1 --trace 2",
            "--workload mnist-b1 --seconds 0",
            "--workload mnist-b1 --seconds",
            "--workload mnist-b1 --bogus 1",
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn window_runs_at_least_once() {
        let mut n = 0;
        window(1e-9, |_, _| n += 1);
        assert_eq!(n, 1);
    }
}
