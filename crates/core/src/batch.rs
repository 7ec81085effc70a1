//! Batched, weight-resident inference.
//!
//! The paper's second weight register lets one inference reuse resident
//! weights *within* a layer (Fig. 12 "reuse weights"); this module
//! generalizes that residency *across* a batch of inferences, the way
//! multi-user serving traffic arrives. [`BatchScheduler`] reorders the
//! work of `N` images **layer-major**: for every layer, each weight tile
//! is loaded into the array once and all `N` images' data rows stream
//! back-to-back against it, so the whole batch pays for one weight load
//! — `N×` fewer Weight Buffer bytes and `(N−1)` fewer tile-load stalls
//! per tile than `N` batches of one. A single inference is a batch of
//! one: [`Accelerator::run_batch`] is the engine's only inference entry
//! point.
//!
//! Functionally nothing changes: per-row arithmetic is untouched, each
//! image keeps its own accumulator FIFOs, and the routing phase (whose
//! "weights" are the per-image predictions `û`, so it has nothing to
//! share across images) runs image by image. Every per-image
//! [`QuantTrace`] is therefore **bit-exact** against a batch of one of
//! the same image on a fresh accelerator — enforced by
//! `tests/batch_equivalence.rs`.
//!
//! The schedule is backend-agnostic: under
//! [`crate::EngineBackend::Functional`] the same layer-major pass runs
//! at wall-clock speed with identical results and identical cycle,
//! traffic and stall accounting (`tests/backend_equivalence.rs`), which
//! is what makes MNIST-scale engine-backed serving tables practical
//! (`capsacc-serve`).
//!
//! # Example
//!
//! ```
//! use capsacc_core::{AcceleratorConfig, BatchScheduler};
//! use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
//! use capsacc_tensor::Tensor;
//!
//! let net = CapsNetConfig::tiny();
//! let cfg = AcceleratorConfig::test_4x4();
//! let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
//! let images: Vec<_> = (0..3)
//!     .map(|s| Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * (s + 2) + i[2]) % 7) as f32 / 7.0))
//!     .collect();
//! let mut sched = BatchScheduler::new(cfg);
//! let run = sched.run(&net, &qparams, &images).expect("valid batch");
//! assert_eq!(run.traces.len(), 3);
//! assert!(run.cycles_per_image() > 0.0);
//! // A fresh scheduler's counters hold exactly its first batch.
//! assert_eq!(sched.accelerator().traffic(), &run.traffic);
//! ```

use std::fmt;

use capsacc_capsnet::{CapsNetConfig, QuantOutput, QuantTrace, QuantizedParams};
use capsacc_memory::MemReport;
use capsacc_tensor::{qops::MacStats, u64_from, Tensor};

use capsacc_telemetry::SpanDetail;

use crate::activation::ActivationKind;
use crate::config::AcceleratorConfig;
use crate::engine::{to_chw, Accelerator, CycleLedger, LayerRun, Part};
use crate::operand::{DataView, WeightView};
use crate::timing::RoutingStep;
use crate::traffic::{MemoryKind, TrafficReport};

/// Error rejected at the batched-inference API boundary.
///
/// A long-lived serving process cannot afford a panic on malformed
/// input: an empty micro-batch or a mis-shaped image is a *request*
/// problem, not a simulator invariant, so [`Accelerator::run_batch`]
/// reports both as values instead of unwinding a worker thread.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum BatchError {
    /// The submitted `images` slice was empty. Micro-batchers that close
    /// on a timer can produce this; it must be handled, not panic.
    EmptyBatch,
    /// An image's shape is not the `[1, input_side, input_side]` the
    /// network expects.
    ImageShape {
        /// Index of the offending image in the submitted slice.
        index: usize,
        /// The shape that was submitted.
        got: Vec<usize>,
        /// The shape the network expects.
        want: [usize; 3],
    },
}

impl fmt::Display for BatchError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BatchError::EmptyBatch => write!(f, "batch contains no images"),
            BatchError::ImageShape { index, got, want } => {
                write!(f, "image {index} has shape {got:?}, expected {want:?}")
            }
        }
    }
}

impl std::error::Error for BatchError {}

/// Result of one batched, cycle-accurate inference pass.
///
/// Per-image functional results ride in [`BatchRun::traces`]; the cycle
/// and traffic accounting is shared, because the whole point of the
/// batch is that the images are *not* independent on the hardware: they
/// split the weight-load bill.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchRun {
    /// One full functional trace per image, in input order — each
    /// bit-exact against a batch of one of that image on a fresh
    /// accelerator (including the per-image `MacStats`).
    pub traces: Vec<QuantTrace>,
    /// Per-layer cycle counts for the whole batch.
    pub layers: Vec<LayerRun>,
    /// ClassCaps step cycles summed over the batch (per-image routing
    /// steps are identical in sequence, so they aggregate elementwise).
    /// Each step is the engine's [`CycleLedger`] delta over it, so the
    /// steps partition the ClassCaps layer: the FC, Sum and Update steps
    /// hold its array cycles and memory stalls, the softmaxes and
    /// squashes its activation cycles, and the Load and the
    /// skip-first-softmax `Softmax1` its transfer cycles.
    pub steps: Vec<(RoutingStep, u64)>,
    /// On-chip traffic across all memories and buffers for this batch
    /// alone (deltas against the accelerator's counters at batch start,
    /// so per-image metrics stay correct on a reused scheduler).
    pub traffic: TrafficReport,
    /// Memory-hierarchy counters for this batch alone, off-chip bytes
    /// included (same delta scoping as [`BatchRun::traffic`]).
    pub memory: MemReport,
    /// Accumulator-unit saturation events during this batch alone.
    pub accumulator_saturations: u64,
    /// Number of images in the batch.
    pub batch: usize,
}

impl BatchRun {
    /// Total cycles consumed by the batch.
    pub fn total_cycles(&self) -> u64 {
        self.layers.iter().map(LayerRun::cycles).sum()
    }

    /// Amortized cycles per image.
    ///
    /// Total: a (hand-constructed) zero-image run reports `0.0`, never
    /// NaN — [`Accelerator::run_batch`] itself refuses empty batches
    /// with [`BatchError::EmptyBatch`].
    pub fn cycles_per_image(&self) -> f64 {
        if self.batch == 0 {
            return 0.0;
        }
        self.total_cycles() as f64 / self.batch as f64
    }

    /// Amortized Weight Buffer read bytes per image — the headline
    /// data-reuse metric: with residency across the batch this shrinks
    /// as the batch grows.
    ///
    /// Total like [`BatchRun::cycles_per_image`]: `0.0` on a zero-image
    /// run, never NaN.
    pub fn weight_buffer_bytes_per_image(&self) -> f64 {
        if self.batch == 0 {
            return 0.0;
        }
        self.traffic.counter(MemoryKind::WeightBuffer).read_bytes as f64 / self.batch as f64
    }
}

/// Runs batches of inferences through one [`Accelerator`], layer-major,
/// so weights loaded for a layer stay resident across all images.
///
/// The scheduler owns the accelerator; the accelerator's *internal*
/// counters accumulate across [`BatchScheduler::run`] calls exactly as
/// a long-lived serving process would accumulate them, while each
/// returned [`BatchRun`] reports only its own batch's traffic and
/// saturation deltas.
#[derive(Debug)]
pub struct BatchScheduler {
    acc: Accelerator,
}

impl BatchScheduler {
    /// Builds a scheduler around a fresh accelerator instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AcceleratorConfig::validate`].
    pub fn new(cfg: AcceleratorConfig) -> Self {
        Self {
            acc: Accelerator::new(cfg),
        }
    }

    /// The accelerator driven by this scheduler.
    pub fn accelerator(&self) -> &Accelerator {
        &self.acc
    }

    /// Mutable access to the accelerator — e.g. to
    /// [`Accelerator::enable_telemetry`] on a long-lived scheduler.
    pub fn accelerator_mut(&mut self) -> &mut Accelerator {
        &mut self.acc
    }

    /// Runs one batch. See [`Accelerator::run_batch`].
    ///
    /// # Errors
    ///
    /// Returns [`BatchError`] on an empty batch or a mis-shaped image;
    /// the scheduler state is untouched in that case and the next batch
    /// can proceed.
    pub fn run(
        &mut self,
        net: &CapsNetConfig,
        qparams: &QuantizedParams,
        images: &[Tensor<f32>],
    ) -> Result<BatchRun, BatchError> {
        self.acc.run_batch(net, qparams, images)
    }
}

// Compile-time Send/Sync audit: the serving shard pool
// (`capsacc-serve`) moves long-lived schedulers onto OS worker threads,
// so the whole engine state must be `Send` (it is plain owned data —
// no interior mutability, no shared handles).
const fn assert_send_sync<T: Send + Sync>() {}
const _: () = {
    assert_send_sync::<Accelerator>();
    assert_send_sync::<BatchScheduler>();
    assert_send_sync::<BatchRun>();
    assert_send_sync::<BatchError>();
};

impl Accelerator {
    /// Runs a batch of CapsuleNet inferences cycle-accurately with the
    /// work reordered layer-major: every weight tile of Conv1,
    /// PrimaryCaps and the ClassCaps FC is loaded once and reused by all
    /// images; the routing phase (per-image operands on both array
    /// ports) runs image by image. A single inference is a batch of one.
    ///
    /// Each returned trace is bit-exact against a batch of one of the
    /// same image on a fresh accelerator, including the per-image
    /// saturation counts, and against
    /// [`capsacc_capsnet::infer_q8_traced`] with the same parameters,
    /// pipeline and routing variant (derived from
    /// `dataflow.skip_first_softmax`).
    ///
    /// # Errors
    ///
    /// Returns [`BatchError::EmptyBatch`] if `images` is empty and
    /// [`BatchError::ImageShape`] if any image is not
    /// `[1, input_side, input_side]` — both checked up front, before any
    /// counter moves, so a rejected batch leaves the accelerator state
    /// untouched (a long-lived serving worker keeps going).
    pub fn run_batch(
        &mut self,
        net: &CapsNetConfig,
        qparams: &QuantizedParams,
        images: &[Tensor<f32>],
    ) -> Result<BatchRun, BatchError> {
        if images.is_empty() {
            return Err(BatchError::EmptyBatch);
        }
        let want = [1, net.input_side, net.input_side];
        for (index, im) in images.iter().enumerate() {
            if im.shape() != want {
                return Err(BatchError::ImageShape {
                    index,
                    got: im.shape().to_vec(),
                    want,
                });
            }
        }
        let batch = images.len();
        let ncfg = self.cfg.numeric;
        // Validation is done: from here on the batch runs to completion,
        // so the inference root span always closes.
        self.rec
            .begin_arg(SpanDetail::Layers, "inference", "batch", u64_from(batch));
        // Snapshot the accelerator counters so the returned report
        // covers this batch alone even on a reused scheduler.
        let traffic_at_start = self.traffic;
        let memory_at_start = self.memory.report();
        let saturations_at_start = self.accumulator_saturations;
        let mut layers = Vec::new();
        let mut stats = vec![MacStats::default(); batch];

        // ------------------------------------------------- Conv1 + ReLU
        let g1 = net.conv1_geometry();
        let inputs_q: Vec<Tensor<i8>> =
            images.iter().map(|im| qparams.quantize_image(im)).collect();
        // The batch's images arrive over the off-chip channel before the
        // on-chip Data Memory serves them.
        let input_bytes = u64_from(batch * g1.input_len());
        self.traffic.read(MemoryKind::DataMemory, input_bytes);
        self.rec.begin(SpanDetail::Layers, "Conv1");
        let at = self.ledger();
        let stage_stall = self.memory.stage_input(input_bytes);
        self.rec.counter_add("mem.stage_input_calls", 1);
        self.rec
            .counter_add("mem.stage_input_stall_cycles", stage_stall);
        self.spend(Part::Stall, stage_stall, "stage-input", None);
        // Biases ride along with the layer's off-chip weight stream.
        self.memory.stage_bias(u64_from(g1.out_ch));
        // im2col addressing is affine: `input_index(mi, ki) =
        // patch_origin(mi) + tap_offset(ki)`, so the data view is the
        // two tables over each image; the `[out_ch][patch]` weights
        // are unit-stride along K.
        let input_src: Vec<&[i8]> = inputs_q.iter().map(Tensor::data).collect();
        let (conv1_mns, conv1_sats) = self.matmul_group(
            DataView {
                src: &input_src,
                rows: &g1.patch_origins(),
                cols: &g1.tap_offsets(),
            },
            0,
            WeightView {
                src: qparams.conv1_w.data(),
                ks: 1,
                ns: g1.patch_len(),
            },
            0,
            1,
            g1.out_ch,
            Some(&qparams.conv1_b),
            ncfg.mac_shift(),
            ActivationKind::Relu,
            true,
            None,
        );
        let conv1_outs: Vec<Tensor<i8>> = conv1_mns.iter().map(|mn| to_chw(mn, &g1)).collect();
        self.traffic.write(
            MemoryKind::DataMemory,
            u64_from(batch * conv1_outs[0].len()),
        );
        for (s, sat) in stats.iter_mut().zip(&conv1_sats) {
            s.macs += g1.macs();
            s.saturations += sat;
        }
        layers.push(self.end_layer("Conv1", &at));
        // ------------------------------------------- PrimaryCaps + squash
        let gp = net.primary_caps_geometry();
        self.rec.begin(SpanDetail::Layers, "PrimaryCaps");
        let at = self.ledger();
        self.memory.stage_bias(u64_from(gp.out_ch));
        let conv1_src: Vec<&[i8]> = conv1_outs.iter().map(Tensor::data).collect();
        let (pc_mns, pc_sats) = self.matmul_group(
            DataView {
                src: &conv1_src,
                rows: &gp.patch_origins(),
                cols: &gp.tap_offsets(),
            },
            0,
            WeightView {
                src: qparams.pc_w.data(),
                ks: 1,
                ns: gp.patch_len(),
            },
            0,
            1,
            gp.out_ch,
            Some(&qparams.pc_b),
            ncfg.mac_shift(),
            ActivationKind::Identity,
            true,
            None,
        );
        let pc_outs: Vec<Tensor<i8>> = pc_mns.iter().map(|mn| to_chw(mn, &gp)).collect();
        let capsules: Vec<Tensor<i8>> = pc_outs
            .iter()
            .map(|pc| self.squash_primary(net, pc))
            .collect();
        self.traffic
            .write(MemoryKind::DataMemory, u64_from(batch * capsules[0].len()));
        for (s, sat) in stats.iter_mut().zip(&pc_sats) {
            s.macs += gp.macs();
            s.saturations += sat;
        }
        layers.push(self.end_layer("PrimaryCaps", &at));
        // ------------------------------------------------ ClassCaps: Load
        self.rec.begin(SpanDetail::Layers, "ClassCaps");
        let class_caps_at = self.ledger();
        let (in_caps, classes, out_dim, in_dim) = (
            net.num_primary_caps(),
            net.num_classes,
            net.class_caps_dim,
            net.pc_caps_dim,
        );
        let u_hat_bytes = u64_from(in_caps * classes * out_dim);
        let mut steps = Vec::new();
        self.traffic
            .read(MemoryKind::DataMemory, u64_from(batch) * u_hat_bytes);
        self.traffic
            .write(MemoryKind::DataBuffer, u64_from(batch) * u_hat_bytes);
        let load_cycles = u64_from(batch) * u_hat_bytes.div_ceil(self.cfg.data_mem_bw);
        self.spend(Part::Transfer, load_cycles, "load-uhat", None);
        steps.push((RoutingStep::Load, self.cycles_since(&class_caps_at)));

        // -------------------------------------------------- ClassCaps: FC
        // Per input capsule, its `W_ij` block is the resident operand and
        // all images' capsule vectors stream against it — the batch
        // generalization of the paper's weight reuse, and the biggest
        // ClassCaps win (the FC weights are read once per *batch*).
        // The capsules' matmuls share one geometry, so they run as one
        // group: capsule `cap` reads its vector `cap·in_dim` into each
        // image's capsules and its `[class][e][d]` block `cap·block`
        // into `w_class` (output column `class·out_dim + e`, unit
        // stride along `d`), and writes row `cap` of each image's û.
        let at = self.ledger();
        self.rec.begin(SpanDetail::Phases, "fc");
        let caps_src: Vec<&[i8]> = capsules.iter().map(Tensor::data).collect();
        let dims: Vec<usize> = (0..in_dim).collect();
        let (fc, fc_sats) = self.matmul_group(
            DataView {
                src: &caps_src,
                rows: &[0],
                cols: &dims,
            },
            in_dim,
            WeightView {
                src: qparams.w_class.data(),
                ks: 1,
                ns: in_dim,
            },
            classes * out_dim * in_dim,
            in_caps,
            classes * out_dim,
            None,
            ncfg.mac_shift(),
            ActivationKind::Identity,
            true,
            None,
        );
        let u_hats: Vec<Tensor<i8>> = fc
            .into_iter()
            .map(|u| {
                u.reshape(&[in_caps, classes, out_dim])
                    .expect("one FC output row per input capsule")
            })
            .collect();
        for (s, sat) in stats.iter_mut().zip(&fc_sats) {
            s.macs += u64_from(in_caps * classes * out_dim * in_dim);
            s.saturations += sat;
        }
        self.rec.end(SpanDetail::Phases);
        steps.push((RoutingStep::Fc, self.cycles_since(&at)));
        // ------------------------------------------- Routing-by-agreement
        // The routing "weights" are the per-image predictions û — there
        // is nothing to share across the batch, so routing runs image by
        // image; step cycles aggregate elementwise.
        let mut traces = Vec::with_capacity(batch);
        for (img, u_hat) in u_hats.into_iter().enumerate() {
            let sat_before = self.accumulator_saturations;
            let mut image_steps = Vec::new();
            self.rec
                .begin_arg(SpanDetail::Phases, "routing", "img", u64_from(img));
            let routing = self.route_class_caps(net, &u_hat, &mut image_steps);
            self.rec.end(SpanDetail::Phases);
            stats[img].saturations += self.accumulator_saturations - sat_before;
            stats[img].macs += routing.macs;
            if img == 0 {
                steps.extend(image_steps);
            } else {
                // Same network ⇒ same step sequence for every image.
                let routing_steps = &mut steps[2..];
                assert_eq!(
                    routing_steps.len(),
                    image_steps.len(),
                    "routing step counts diverged"
                );
                for ((step, cycles), (s2, c2)) in routing_steps.iter_mut().zip(&image_steps) {
                    assert_eq!(*step, *s2, "routing step sequences diverged");
                    *cycles += c2;
                }
            }
            traces.push(QuantTrace {
                input_q: inputs_q[img].clone(),
                conv1_out: conv1_outs[img].clone(),
                pc_out: pc_outs[img].clone(),
                capsules: capsules[img].clone(),
                u_hat,
                iterations: routing.iterations,
                output: QuantOutput {
                    class_norms: routing.final_norms,
                    predicted: routing.predicted,
                    class_caps: routing.class_caps,
                    couplings: routing.couplings,
                    stats: stats[img],
                },
            });
        }
        layers.push(self.end_layer("ClassCaps", &class_caps_at));
        self.rec.end(SpanDetail::Layers); // inference

        Ok(BatchRun {
            traces,
            layers,
            steps,
            traffic: self.traffic.since(&traffic_at_start),
            memory: self.memory.report().since(&memory_at_start),
            accumulator_saturations: self.accumulator_saturations - saturations_at_start,
            batch,
        })
    }

    /// Closes layer `name`'s span and returns its [`LayerRun`], the
    /// ledger's delta since `at`. The functional backend's staging
    /// buffers are sized by the layer's own matmuls: they are released
    /// here so the next layer's tensors can take the pages (PrimaryCaps'
    /// panels would otherwise stay resident through ClassCaps).
    fn end_layer(&mut self, name: &'static str, at: &CycleLedger) -> LayerRun {
        self.rec.end(SpanDetail::Layers);
        self.staging = Default::default();
        let d = self.ledger().since(at);
        LayerRun {
            name,
            array_cycles: d.array,
            activation_cycles: d.activation,
            transfer_cycles: d.transfer,
            memory_stall_cycles: d.stall,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use capsacc_capsnet::CapsNetParams;

    fn setup() -> (CapsNetConfig, AcceleratorConfig, QuantizedParams) {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 1).quantize(cfg.numeric);
        (net, cfg, qparams)
    }

    #[test]
    fn empty_batch_is_an_error_not_a_panic() {
        let (net, cfg, qparams) = setup();
        let mut sched = BatchScheduler::new(cfg);
        let err = sched.run(&net, &qparams, &[]).unwrap_err();
        assert_eq!(err, BatchError::EmptyBatch);
        assert_eq!(err.to_string(), "batch contains no images");
        // A rejected batch leaves the scheduler serviceable and moves
        // none of its accelerator's counters.
        assert_eq!(sched.accelerator().ledger().total(), 0);
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
        let run = sched.run(&net, &qparams, &[image]).expect("valid batch");
        assert_eq!(run.batch, 1);
        assert_eq!(sched.accelerator().traffic(), &run.traffic);
    }

    #[test]
    fn mis_shaped_image_is_an_error_with_context() {
        let (net, cfg, qparams) = setup();
        let mut acc = Accelerator::new(cfg);
        let good = Tensor::from_fn(&[1, 12, 12], |i| (i[1] * i[2]) as f32 / 144.0);
        let bad = Tensor::from_fn(&[1, 8, 8], |i| (i[1] + i[2]) as f32 / 16.0);
        let cycles_before = acc.ledger();
        let err = acc.run_batch(&net, &qparams, &[good, bad]).unwrap_err();
        assert_eq!(
            err,
            BatchError::ImageShape {
                index: 1,
                got: vec![1, 8, 8],
                want: [1, 12, 12],
            }
        );
        assert!(err.to_string().contains("image 1"));
        // Checked before any counter moves: the engine state is clean.
        assert_eq!(acc.ledger(), cycles_before);
        assert_eq!(acc.traffic().total_bytes(), 0);
    }

    #[test]
    fn per_image_views_are_total_on_zero_image_runs() {
        let (net, cfg, qparams) = setup();
        let mut sched = BatchScheduler::new(cfg);
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
        let mut run = sched.run(&net, &qparams, &[image]).expect("valid batch");
        // A hand-constructed zero-image view (the fields are public)
        // must stay total: 0.0, never NaN.
        run.batch = 0;
        assert_eq!(run.cycles_per_image(), 0.0);
        assert_eq!(run.weight_buffer_bytes_per_image(), 0.0);
        assert!(!run.cycles_per_image().is_nan());
    }

    #[test]
    fn activation_units_follow_the_array_width() {
        // One activation unit per array column: a 4×2 array squashes
        // the primary capsules two at a time.
        let (net, mut cfg, qparams) = setup();
        cfg.cols = 2;
        cfg.backend = crate::EngineBackend::Functional;
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] + i[2]) % 7) as f32 / 7.0);
        let run = Accelerator::new(cfg)
            .run_batch(&net, &qparams, &[image])
            .expect("valid image");
        assert_eq!(run.layers[1].name, "PrimaryCaps");
        assert_eq!(
            run.layers[1].activation_cycles,
            u64_from(net.num_primary_caps().div_ceil(2))
                * crate::ActivationUnit::squash_cycles(u64_from(net.pc_caps_dim))
        );
    }

    #[test]
    fn functional_backend_batch_run_is_identical() {
        // The layer-major batched pass is backend-agnostic: the whole
        // BatchRun — traces, layer cycles, steps, traffic, memory,
        // saturations — is equal across backends on a reused scheduler.
        let (net, cfg, qparams) = setup();
        let mut fast_cfg = cfg;
        fast_cfg.backend = crate::EngineBackend::Functional;
        let images: Vec<Tensor<f32>> = (0..3)
            .map(|s| Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * (s + 2) + i[2]) % 7) as f32 / 7.0))
            .collect();
        let mut ticked = BatchScheduler::new(cfg);
        let mut functional = BatchScheduler::new(fast_cfg);
        for split in [3usize, 2] {
            let want = ticked.run(&net, &qparams, &images[..split]).expect("batch");
            let got = functional
                .run(&net, &qparams, &images[..split])
                .expect("batch");
            assert_eq!(got, want);
        }
        assert_eq!(
            functional.accelerator().ledger(),
            ticked.accelerator().ledger()
        );
    }

    #[test]
    fn scheduler_reuse_counters_accumulate() {
        let (net, cfg, qparams) = setup();
        let images: Vec<Tensor<f32>> = (0..3)
            .map(|s| Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * (s + 2) + i[2]) % 7) as f32 / 7.0))
            .collect();
        let mut sched = BatchScheduler::new(cfg);
        let first = sched.run(&net, &qparams, &images).expect("batch 1");
        let second = sched.run(&net, &qparams, &images[..2]).expect("batch 2");
        assert_eq!((first.batch, second.batch), (3, 2));
        // The accelerator carries the cumulative counters of both
        // batches, while each run reports its own.
        let acc = sched.accelerator();
        assert!(acc.ledger().array > 0);
        assert_eq!(
            acc.traffic().total_bytes(),
            first.traffic.total_bytes() + second.traffic.total_bytes()
        );
    }
}
