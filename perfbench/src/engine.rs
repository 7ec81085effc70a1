//! The engine workloads (`mnist-b16`, `mnist-b1`) and the helpers every
//! engine-executing workload shares: the benchmark's accelerator
//! configuration, output checks against the reference model, and the
//! per-layer ledger read from `BatchRun`s and telemetry spans.

use std::collections::BTreeMap;
use std::time::Instant;

use capsacc_capsnet::{
    infer_q8, CapsNetConfig, CapsNetParams, QuantOutput, QuantPipeline, QuantizedParams,
    RoutingVariant,
};
use capsacc_core::{
    timing, AcceleratorConfig, BatchRun, BatchScheduler, EngineBackend, MemoryConfig, Recorder,
    RoutingStep, SpanDetail, TelemetryConfig, TraceLevel,
};
use capsacc_mnist::SyntheticMnist;
use capsacc_power::EnergyModel;
use capsacc_tensor::Tensor;

use crate::report::{Sheet, Tally, LAYERS, POWER_COMPONENTS};
use crate::{guarded, ms_since, stats, window, Outcome, Timed};

/// Distinct digits the engine workloads cycle through.
const IMAGE_POOL: usize = 64;

/// Images per run checked against `infer_q8` (about 2 s each on one
/// core, run in parallel after the timed window).
const CHECKED_IMAGES: usize = 2;

/// Reps per side of the threads=1 vs auto-threads comparison.
const SPEEDUP_REPS: usize = 3;

/// Engine threads of every timed call. On a host whose second CPU comes
/// and goes, a call on two threads takes one or two single-thread times
/// in phases of minutes, so its median has no steady value to bound.
/// `core.thread_speedup` in the ledger still measures auto threads.
const THREADS: usize = 1;

/// The benchmark's accelerator: the paper's 16×16 design point on the
/// functional backend (auto SIMD), outputs-only traces, and the paper
/// memory hierarchy. `threads == 0` lets the engine pick per matmul.
fn engine_config(threads: usize) -> AcceleratorConfig {
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    cfg.trace_level = TraceLevel::Outputs;
    cfg.memory = MemoryConfig::paper();
    cfg.functional.threads = threads;
    cfg
}

/// Network, configuration and quantized parameters of one run.
pub struct Model {
    pub net: CapsNetConfig,
    pub cfg: AcceleratorConfig,
    pub qparams: QuantizedParams,
}

impl Model {
    /// The MNIST CapsuleNet with parameters drawn from `seed`, on
    /// [`THREADS`] engine threads.
    pub fn new(seed: u64) -> Self {
        let net = CapsNetConfig::mnist();
        let cfg = engine_config(THREADS);
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        Self { net, cfg, qparams }
    }

    /// Reference outputs of `images` from the quantized software model,
    /// one thread per image.
    fn reference(&self, images: &[&Tensor<f32>]) -> Vec<QuantOutput> {
        let pipeline = QuantPipeline::new(self.cfg.numeric);
        let variant = if self.cfg.dataflow.skip_first_softmax {
            RoutingVariant::SkipFirstSoftmax
        } else {
            RoutingVariant::Original
        };
        std::thread::scope(|s| {
            let handles: Vec<_> = images
                .iter()
                .map(|im| {
                    let pipeline = &pipeline;
                    s.spawn(move || infer_q8(&self.net, &self.qparams, pipeline, im, variant))
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("reference inference panicked"))
                .collect()
        })
    }
}

/// `count` distinct synthetic digits drawn from `seed`.
pub fn digits(seed: u64, count: usize) -> Vec<Tensor<f32>> {
    let set = SyntheticMnist::new(seed);
    (0..count as u64).map(|i| set.sample(i).image).collect()
}

/// SplitMix64: the benchmark's own seeded draws (which images to check).
fn splitmix(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// Output checks on executed batches, made outside the timed windows.
///
/// Each executed batch must report zero accumulator saturations and cost
/// exactly what every earlier batch of its size cost; each image must
/// produce the same outputs every time it is served; and a seeded sample
/// of served images must equal `infer_q8` bit for bit.
pub struct Checks {
    cycles_by_size: BTreeMap<usize, u64>,
    outputs: Vec<Option<QuantOutput>>,
    pub tally: Tally,
}

impl Checks {
    pub fn new(images: usize) -> Self {
        Self {
            cycles_by_size: BTreeMap::new(),
            outputs: vec![None; images],
            tally: Tally::default(),
        }
    }

    /// Records one batch attempt: `run` is the call's result (`None`
    /// when it returned an error or panicked) and `ids` the image
    /// indices it served.
    pub fn batch(&mut self, run: Option<&BatchRun>, ids: &[usize]) -> bool {
        let ok = run.is_some_and(|run| self.consistent(run, ids));
        self.tally.record(ok);
        ok
    }

    fn consistent(&mut self, run: &BatchRun, ids: &[usize]) -> bool {
        let cycles = *self
            .cycles_by_size
            .entry(run.batch)
            .or_insert_with(|| run.total_cycles());
        let mut ok = run.accumulator_saturations == 0
            && cycles == run.total_cycles()
            && run.traces.len() == ids.len();
        for (&id, trace) in ids.iter().zip(&run.traces) {
            match &self.outputs[id] {
                Some(seen) => ok &= *seen == trace.output,
                None => self.outputs[id] = Some(trace.output.clone()),
            }
        }
        ok
    }

    /// Checks a seeded sample of the served images against the
    /// reference model.
    pub fn verify_sample(&mut self, model: &Model, images: &[Tensor<f32>], seed: u64) {
        let served: Vec<usize> = (0..images.len())
            .filter(|&i| self.outputs[i].is_some())
            .collect();
        let mut state = seed;
        let mut sample = Vec::new();
        while sample.len() < CHECKED_IMAGES.min(served.len()) {
            let pick = served[(splitmix(&mut state) % served.len() as u64) as usize];
            if !sample.contains(&pick) {
                sample.push(pick);
            }
        }
        let refs: Vec<&Tensor<f32>> = sample.iter().map(|&i| &images[i]).collect();
        for (&i, want) in sample.iter().zip(model.reference(&refs)) {
            self.tally.record(self.outputs[i].as_ref() == Some(&want));
        }
        if sample.is_empty() {
            self.tally.record(false);
        }
    }
}

/// Simulated per-image outcome of a set of batches.
pub struct SimTotals {
    pub images: usize,
    pub cycles: u64,
    pub uj: f64,
}

/// Energy of one batch with the memory hierarchy modelled
/// (`EnergyModel::inference_energy_mem`), as `(component, µJ)` pairs.
fn batch_energy(cfg: &AcceleratorConfig, run: &BatchRun) -> Vec<(&'static str, f64)> {
    let macs: u64 = run.traces.iter().map(|t| t.output.stats.macs).sum();
    EnergyModel::cmos_32nm()
        .inference_energy_mem(cfg, macs, &run.traffic, &run.memory, run.total_cycles())
        .components
        .iter()
        .map(|c| (c.name, c.energy_uj))
        .collect()
}

/// Totals of cycles and energy over `runs`.
pub fn sim_totals(cfg: &AcceleratorConfig, runs: &[&BatchRun]) -> SimTotals {
    SimTotals {
        images: runs.iter().map(|r| r.batch).sum(),
        cycles: runs.iter().map(|r| r.total_cycles()).sum(),
        uj: runs
            .iter()
            .flat_map(|r| batch_energy(cfg, r))
            .map(|(_, uj)| uj)
            .sum(),
    }
}

/// Host time the engine attributed to each layer's matmuls, read from
/// the `host_stage_ns`/`host_sweep_ns` span annotations.
#[derive(Default)]
pub struct HostLedger {
    stage_ns: [u64; 3],
    sweep_ns: [u64; 3],
    matmuls: [u64; 3],
    images: usize,
    traced_ns: u64,
}

impl HostLedger {
    /// Adds one traced call of `traced_ms` that served `images` images.
    pub fn add(&mut self, rec: &Recorder, images: usize, traced_ms: f64) {
        let spans = rec.spans();
        // Parents precede children, so one forward pass resolves each
        // span's enclosing layer.
        let mut layer_of: Vec<Option<usize>> = Vec::with_capacity(spans.len());
        for s in spans {
            let own = LAYERS.iter().position(|(name, _)| *name == s.name);
            let inherited = s.parent.and_then(|p| layer_of[p as usize]);
            layer_of.push(own.or(inherited));
            if s.name != "matmul" {
                continue;
            }
            if let Some(l) = own.or(inherited) {
                self.matmuls[l] += 1;
                for &(key, ns) in &s.args {
                    match key {
                        "host_stage_ns" => self.stage_ns[l] += ns,
                        "host_sweep_ns" => self.sweep_ns[l] += ns,
                        _ => {}
                    }
                }
            }
        }
        self.images += images;
        self.traced_ns += (traced_ms * 1e6) as u64;
    }

    /// Writes the `core.<layer>.host_*` metrics (per image) and the
    /// attributed share of traced host time.
    pub fn write(&self, sheet: &mut Sheet) {
        let per_image = |v: u64| v as f64 / self.images.max(1) as f64;
        for (l, (_, slug)) in LAYERS.iter().enumerate() {
            sheet.set(
                &format!("core.{slug}.host_stage_ms"),
                per_image(self.stage_ns[l]) / 1e6,
            );
            sheet.set(
                &format!("core.{slug}.host_sweep_ms"),
                per_image(self.sweep_ns[l]) / 1e6,
            );
            sheet.set(&format!("core.{slug}.matmuls"), per_image(self.matmuls[l]));
        }
        let attributed: u64 = self.stage_ns.iter().chain(&self.sweep_ns).sum();
        sheet.set(
            "core.host_attributed_fraction",
            attributed as f64 / self.traced_ns.max(1) as f64,
        );
    }
}

/// Writes the simulated per-layer ledger of `runs` (per image): layer
/// and routing-step cycles, saturations, memory traffic and stalls, and
/// the energy breakdown.
pub fn write_sim_ledger(sheet: &mut Sheet, cfg: &AcceleratorConfig, runs: &[&BatchRun]) {
    let totals = sim_totals(cfg, runs);
    let per_image = |v: f64| v / totals.images.max(1) as f64;
    for (name, slug) in LAYERS {
        let cycles: u64 = runs
            .iter()
            .flat_map(|r| &r.layers)
            .filter(|l| l.name == name)
            .map(|l| l.cycles())
            .sum();
        sheet.set(&format!("core.{slug}.sim_cycles"), per_image(cycles as f64));
    }
    let step_cycles = |want: fn(&RoutingStep) -> bool| -> f64 {
        let c: u64 = runs
            .iter()
            .flat_map(|r| &r.steps)
            .filter(|(s, _)| want(s))
            .map(|(_, c)| c)
            .sum();
        per_image(c as f64)
    };
    sheet.set(
        "core.routing.sum.sim_cycles",
        step_cycles(|s| matches!(s, RoutingStep::Sum(_))),
    );
    sheet.set(
        "core.routing.softmax.sim_cycles",
        step_cycles(|s| matches!(s, RoutingStep::Softmax(_))),
    );
    sheet.set(
        "core.routing.squash.sim_cycles",
        step_cycles(|s| matches!(s, RoutingStep::Squash(_))),
    );
    sheet.set(
        "core.routing.update.sim_cycles",
        step_cycles(|s| matches!(s, RoutingStep::Update(_))),
    );
    let sum = |f: fn(&BatchRun) -> u64| runs.iter().map(|r| f(r)).sum::<u64>() as f64;
    sheet.set(
        "core.accumulator_saturations",
        sum(|r| r.accumulator_saturations),
    );
    let stalls = sum(|r| r.memory.stall_cycles);
    sheet.set("memory.stall_cycles_per_image", per_image(stalls));
    sheet.set("memory.stall_share", stalls / totals.cycles.max(1) as f64);
    sheet.set(
        "memory.dram_bytes_per_image",
        per_image(sum(|r| r.memory.offchip_bytes())),
    );
    sheet.set(
        "memory.weight_buffer_bytes_per_image",
        per_image(
            runs.iter()
                .map(|r| r.weight_buffer_bytes_per_image() * r.batch as f64)
                .sum(),
        ),
    );
    let energy: Vec<(&str, f64)> = runs.iter().flat_map(|r| batch_energy(cfg, r)).collect();
    for (component, slug) in POWER_COMPONENTS {
        let uj: f64 = energy
            .iter()
            .filter(|(name, _)| *name == component)
            .map(|(_, uj)| uj)
            .sum();
        sheet.set(slug, per_image(uj));
    }
}

/// Closed-form model minus engine cycles per layer for one executed
/// batch (`timing::full_inference_batch_mem` against `BatchRun::layers`),
/// as `timing.<layer>.model_minus_engine_cycles.b<batch size>`.
fn write_timing_gaps(sheet: &mut Sheet, model: &Model, run: &BatchRun) {
    let t = timing::full_inference_batch_mem(&model.cfg, &model.net, run.batch as u64);
    let modelled = [
        t.base.conv1.cycles + t.conv1_stall_cycles,
        t.base.primary_caps.cycles + t.primary_caps_stall_cycles,
        t.base.class_caps_cycles() + t.class_caps_stall_cycles,
    ];
    for ((name, slug), m) in LAYERS.iter().zip(modelled) {
        let engine: u64 = run
            .layers
            .iter()
            .filter(|l| l.name == *name)
            .map(|l| l.cycles())
            .sum();
        sheet.set(
            &format!("timing.{slug}.model_minus_engine_cycles.b{}", run.batch),
            m as f64 - engine as f64,
        );
    }
}

/// Host speed-up of auto threads over `threads = 1` on the same batch
/// (median of interleaved reps).
fn thread_speedup(model: &Model, images: &[Tensor<f32>]) -> f64 {
    let mut serial = BatchScheduler::new(engine_config(1));
    let mut auto = BatchScheduler::new(engine_config(0));
    let time = |sched: &mut BatchScheduler| {
        let t = Instant::now();
        let _ = sched.run(&model.net, &model.qparams, images);
        ms_since(t)
    };
    time(&mut serial);
    time(&mut auto);
    let (mut t1, mut ta) = (Vec::new(), Vec::new());
    for _ in 0..SPEEDUP_REPS {
        t1.push(time(&mut serial));
        ta.push(time(&mut auto));
    }
    let median = |v: &[f64]| stats::median(v).expect("SPEEDUP_REPS > 0");
    median(&t1) / median(&ta)
}

/// Turns on the engine's phase-level recorder with host timing.
pub fn enable_host_telemetry(sched: &mut BatchScheduler) {
    sched.accelerator_mut().enable_telemetry(TelemetryConfig {
        detail: SpanDetail::Phases,
        host_timing: true,
    });
}

/// Per-run state of an engine workload.
struct Setup {
    model: Model,
    images: Vec<Tensor<f32>>,
    sched: BatchScheduler,
}

fn setup(seed: u64) -> Setup {
    let model = Model::new(seed);
    let images = digits(seed, IMAGE_POOL);
    let sched = BatchScheduler::new(model.cfg);
    Setup {
        model,
        images,
        sched,
    }
}

/// Runs `mnist-b<batch>`: back-to-back batches of `batch` distinct
/// digits through one long-lived scheduler.
pub fn run(batch: usize, seed: u64, seconds: f64, trace: bool) -> Outcome {
    let (setup_s, mut s) = crate::repeat_setup(|| setup(seed));
    let ids_of =
        |i: usize| -> Vec<usize> { (0..batch).map(|k| (i * batch + k) % IMAGE_POOL).collect() };
    let Setup {
        model,
        images,
        sched,
    } = &mut s;
    let mut checks = Checks::new(images.len());
    let exec = |sched: &mut BatchScheduler, i: usize, checks: &mut Checks| {
        let ids = ids_of(i);
        let batch_images: Vec<Tensor<f32>> = ids.iter().map(|&k| images[k].clone()).collect();
        let t = Instant::now();
        let run = guarded(|| sched.run(&model.net, &model.qparams, &batch_images));
        let ms = ms_since(t);
        let ok = checks.batch(run.as_ref().and_then(|r| r.as_ref().ok()), &ids);
        (ms, run.and_then(Result::ok).filter(|_| ok))
    };
    // One untimed batch lets lazy allocation and first-touch faults
    // finish before the window opens.
    let (_, mut last) = exec(sched, 0, &mut checks);
    let mut timed = Timed::new(setup_s, batch as f64);
    let mut traced = Vec::new();
    let mut host = HostLedger::default();
    window(seconds, |i, cpu| {
        let (ms, run) = exec(sched, i + 1, &mut checks);
        timed.op(cpu, ms, run.is_some());
        last = run.or(last.take());
        if trace {
            // The same inputs again with the recorder on: the pair gives
            // the telemetry overhead, the traced call the host ledger.
            enable_host_telemetry(sched);
            let (ms, run) = exec(sched, i + 1, &mut checks);
            host.add(&sched.accelerator_mut().take_telemetry(), batch, ms);
            traced.push(ms);
            last = run.or(last.take());
        }
    });
    checks.verify_sample(model, images, seed);
    let mut out = Outcome::new(checks.tally);
    if let Some(run) = last.as_ref() {
        let totals = sim_totals(&model.cfg, &[run]);
        timed.sim_cycles_per_image = run.cycles_per_image();
        timed.sim_uj_per_image = totals.uj / run.batch as f64;
    }
    if !trace {
        out.end_to_end(&timed);
        return out;
    }
    let mut sheet = out.per_layer(&timed);
    host.write(&mut sheet);
    if let Some(run) = last.as_ref() {
        write_sim_ledger(&mut sheet, &model.cfg, &[run]);
        write_timing_gaps(&mut sheet, model, run);
    }
    let first: Vec<Tensor<f32>> = ids_of(0).iter().map(|&k| images[k].clone()).collect();
    sheet.set("core.thread_speedup", thread_speedup(model, &first));
    sheet.set(
        "telemetry.overhead_fraction",
        overhead(&traced, &timed.op_ms),
    );
    out.sheet = Some(sheet);
    out
}

/// Traced over untraced median host time, minus one.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    match (stats::median(traced), stats::median(untraced)) {
        (Some(t), Some(u)) if u > 0.0 => t / u - 1.0,
        _ => 0.0,
    }
}
