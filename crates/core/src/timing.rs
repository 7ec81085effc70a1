//! Closed-form cycle model of the CapsAcc dataflow.
//!
//! Every entry point prices a batch: `batch` images run through the
//! layer-major schedule that keeps each weight tile resident across the
//! batch, and a single inference is a batch of one.
//!
//! With tile pipelining disabled, the model's systolic-array (compute)
//! cycles are the cycles the [`crate::engine`] executes. That is pinned
//! on tiny matmuls by `tests/timing_consistency.rs`, and for Conv1 and
//! PrimaryCaps at MNIST scale by `examples/mnist_full_system.rs`. Layer
//! and step totals do not agree. The engine drains `M + 1` cycles per
//! N-tile per image, so its MNIST Conv1 takes 43,104 + 16 × 401 = 49,520
//! cycles, while the model charges ReLU as 1 cycle and gives 43,105.
//! The model's softmax and squash steps also apply Routing Buffer
//! bandwidth ceilings that the engine does not: 5,760 against 1,440
//! cycles for each softmax after the first, and 40 against 18 for each
//! squash. With pipelining enabled (the paper's "full throttle" design
//! point) the model hides weight reloads behind data streaming, which
//! neither engine backend executes. Item 2 of `ROADMAP.md` (one cycle
//! model) plans how these gaps close.
//!
//! Cycle anatomy of one weight-stationary tile on an `R × C` array
//! (see [`SystolicArray`](crate::SystolicArray)):
//!
//! - weight load: `R` edges (skewed rows) + 1 latch edge;
//! - streaming `M` data rows: `M + R + C` edges including drain.
//!
//! Layers whose weight footprint exceeds the Weight Buffer stream
//! weights from the on-chip Weight Memory at `weight_mem_bw` bytes per
//! cycle; the layer time is the max of compute and that stream (this is
//! what makes PrimaryCaps — 5.3 MB of weights for only 36 output pixels —
//! the one layer where the GPU keeps an edge, Fig. 16).
//!
//! # Example
//!
//! ```
//! use capsacc_core::{timing, AcceleratorConfig};
//! use capsacc_capsnet::CapsNetConfig;
//! let t = timing::full_inference_batch(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 1);
//! // PrimaryCaps (5.3 MB of weights for 36 output pixels) dominates.
//! assert!(t.primary_caps.cycles > t.conv1.cycles);
//! ```

use capsacc_capsnet::CapsNetConfig;
use capsacc_memory::{MatmulGeometry, MemReport, MemorySubsystem, TileSchedule};
use capsacc_tensor::ConvGeometry;

use crate::activation::ActivationUnit;
use crate::config::AcceleratorConfig;

/// Dimensions of a dense matmul mapped onto the array.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MatmulShape {
    /// Streamed data rows.
    pub m: u64,
    /// Reduction length.
    pub k: u64,
    /// Output columns.
    pub n: u64,
}

fn ceil_div(a: u64, b: u64) -> u64 {
    a.div_ceil(b)
}

// The audited widen/narrow helpers moved to `capsacc-tensor` so every
// crate shares one definition (and `capsacc-lint`'s cast audit has a
// single sanctioned route); this module keeps using them unqualified.
use capsacc_tensor::{u64_from, usize_from};

/// Product of shape factors with overflow detection: an adversarially
/// large (but type-valid) network must fail loudly — release builds
/// would otherwise wrap `u64` multiplications silently and report
/// garbage cycle counts. (The shared fold lives in `capsacc-tensor`
/// next to the geometry products it also guards.)
use capsacc_tensor::checked_product_u64 as checked_product;

/// Whether consecutive tiles can actually pipeline: the dataflow switch
/// must be on **and** the Weight Buffer must hold two tiles (the double
/// buffer the overlap physically needs). Undersized buffers silently
/// degrade to the serial schedule instead of assuming free overlap —
/// tile-load cycles are *not* independent of buffer capacity.
fn tiles_pipeline(cfg: &AcceleratorConfig) -> bool {
    cfg.dataflow.pipelined_tiles && 2 * cfg.rows * cfg.cols <= cfg.weight_buffer_bytes
}

/// Asserts (in debug builds) that a single weight tile fits its buffer —
/// no schedule can hide a tile that cannot be resident at all.
fn debug_assert_tile_fits(cfg: &AcceleratorConfig) {
    debug_assert!(
        cfg.rows * cfg.cols <= cfg.weight_buffer_bytes,
        "a {}x{} weight tile exceeds the {} B Weight Buffer",
        cfg.rows,
        cfg.cols,
        cfg.weight_buffer_bytes
    );
}

/// Cycles to execute one `M × K × N` matmul with the configured dataflow.
///
/// With `pipelined_tiles`, consecutive K-tiles of one N-tile stream
/// back-to-back and each reload (R + 1 edges) hides behind the previous
/// tile's `M` data rows; the pipeline fills and drains once per N-tile.
/// Without it, every tile pays its own load and drain — exactly the
/// sequence the cycle-accurate engine executes.
///
/// With `weight_reuse` disabled (ablation), the resident weight register
/// is not used and the tile weights are re-loaded before *every* data
/// row.
///
/// Buffer capacity is threaded through the schedule: pipelining needs a
/// double-buffered tile in the Weight Buffer, so when `2·R·C` bytes do
/// not fit the formula falls back to the serial schedule (and a debug
/// assertion rejects configurations whose single tile cannot fit at
/// all).
pub fn matmul_cycles(shape: MatmulShape, cfg: &AcceleratorConfig) -> u64 {
    debug_assert_tile_fits(cfg);
    let (r, c) = (u64_from(cfg.rows), u64_from(cfg.cols));
    let kk = ceil_div(shape.k, r).max(1);
    let nn = ceil_div(shape.n, c).max(1);
    let m = shape.m;
    let load = r + 1;
    if !cfg.dataflow.weight_reuse {
        // Reload the tile before every data row: the weight2 path is
        // disabled, so each row pays a full load.
        let per_tile = checked_product("matmul reload schedule", &[m, load]) + (m + r + c);
        return checked_product("matmul cycle count", &[nn, kk, per_tile]);
    }
    if tiles_pipeline(cfg) {
        // Initial load, then back-to-back K-tiles; each subsequent tile
        // is gated by max(data streaming, weight reload); one drain.
        let steady = checked_product("matmul pipelined tiles", &[kk - 1, m.max(load)]);
        checked_product("matmul cycle count", &[nn, load + m + steady + (r + c)])
    } else {
        checked_product("matmul cycle count", &[nn, kk, load + m + r + c])
    }
}

/// Cycles to execute the same matmul for `batch` data operands sharing
/// one weight operand, with the tiles held resident across the batch
/// (the engine's [`crate::Accelerator::matmul_batch`] schedule).
///
/// With weight reuse, all `batch · M` data rows stream against each
/// resident tile, so the batched run is exactly a single matmul with
/// `M' = batch · M` — every tile load (and, when pipelining, every
/// fill/drain) is paid once per batch instead of once per image. With
/// the reuse ablation there is no residency to exploit and the batch
/// degenerates to `batch` independent runs — an analytical-only
/// scenario: the engine always simulates the real design point with the
/// second weight register present, so engine↔model agreement holds for
/// reuse-enabled configurations (the ones the engine can execute).
pub fn batch_matmul_cycles(shape: MatmulShape, batch: u64, cfg: &AcceleratorConfig) -> u64 {
    if !cfg.dataflow.weight_reuse {
        return checked_product("batched matmul cycles", &[batch, matmul_cycles(shape, cfg)]);
    }
    matmul_cycles(
        MatmulShape {
            m: checked_product("batched data rows", &[shape.m, batch]),
            ..shape
        },
        cfg,
    )
}

/// Weight bytes a batched matmul reads from the weight store: each
/// weight once per *batch* with reuse, once per data row of every image
/// without.
fn batch_matmul_weight_bytes(shape: MatmulShape, batch: u64, cfg: &AcceleratorConfig) -> u64 {
    let per_visit = checked_product("matmul weight footprint", &[shape.k, shape.n]);
    if cfg.dataflow.weight_reuse {
        per_visit
    } else {
        checked_product(
            "batched weight reloads",
            &[batch, per_visit, shape.m.max(1)],
        )
    }
}

/// Timing of one layer (or layer-level phase).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LayerTiming {
    /// Layer name as printed in Figs. 8/16.
    pub name: &'static str,
    /// Systolic-array compute cycles.
    pub compute_cycles: u64,
    /// Weight-streaming cycles (on-chip Weight Memory → array).
    pub weight_stream_cycles: u64,
    /// Activation-unit cycles appended after the array.
    pub activation_cycles: u64,
    /// Total cycles: `max(compute, weight stream) + activation`.
    pub cycles: u64,
    /// MAC operations.
    pub macs: u64,
    /// Weight bytes read.
    pub weight_bytes: u64,
}

impl LayerTiming {
    fn new(
        name: &'static str,
        compute: u64,
        weight_bytes: u64,
        activation: u64,
        macs: u64,
        cfg: &AcceleratorConfig,
    ) -> Self {
        let weight_stream_cycles = ceil_div(weight_bytes, cfg.weight_mem_bw);
        Self {
            name,
            compute_cycles: compute,
            weight_stream_cycles,
            activation_cycles: activation,
            cycles: compute.max(weight_stream_cycles) + activation,
            macs,
            weight_bytes,
        }
    }

    /// Wall-clock time in microseconds at the configured clock.
    pub fn time_us(&self, cfg: &AcceleratorConfig) -> f64 {
        cfg.cycles_to_us(self.cycles)
    }
}

/// A convolution as the Fig. 13/14 mapping runs it: one im2col data row
/// per output pixel against weight-stationary filter tiles.
fn conv_shape(g: &ConvGeometry) -> MatmulShape {
    MatmulShape {
        m: u64_from(g.patches()),
        k: u64_from(g.patch_len()),
        n: u64_from(g.out_ch),
    }
}

/// Weight and bias bytes a convolution reads from the weight store for a
/// batch; without reuse the biases also reload for every image.
fn conv_weight_bytes(g: &ConvGeometry, batch: u64, cfg: &AcceleratorConfig) -> u64 {
    let biases = if cfg.dataflow.weight_reuse {
        u64_from(g.out_ch)
    } else {
        checked_product("bias reloads", &[batch, u64_from(g.out_ch)])
    };
    batch_matmul_weight_bytes(conv_shape(g), batch, cfg) + biases
}

/// Timing of a convolutional layer executed for a whole batch with the
/// filter tiles held resident across images (layer-major schedule);
/// `activation` is the layer's activation-unit cycles for the batch.
fn conv_layer_batch(
    name: &'static str,
    g: &ConvGeometry,
    activation: u64,
    batch: u64,
    cfg: &AcceleratorConfig,
) -> LayerTiming {
    let compute = batch_matmul_cycles(conv_shape(g), batch, cfg);
    let weight_bytes = conv_weight_bytes(g, batch, cfg);
    let macs = checked_product("batched conv MACs", &[batch, g.macs()]);
    LayerTiming::new(name, compute, weight_bytes, activation, macs, cfg)
}

/// ClassCaps FC weight bytes read for a batch: each `W_ij` block once per
/// batch with reuse (it stays resident while every image streams against
/// it), once per image without.
fn fc_weight_bytes(net: &CapsNetConfig, batch: u64, cfg: &AcceleratorConfig) -> u64 {
    let once = checked_product(
        "ClassCaps FC weights",
        &[
            u64_from(net.num_primary_caps()),
            u64_from(net.num_classes),
            u64_from(net.class_caps_dim),
            u64_from(net.pc_caps_dim),
        ],
    );
    if cfg.dataflow.weight_reuse {
        once
    } else {
        checked_product("batched FC weight reloads", &[batch, once])
    }
}

/// The steps of the ClassCaps phase, named as on the x-axis of
/// Figs. 9/17. Iterations are 1-based as in the paper.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum RoutingStep {
    /// Staging the prediction working set into the Data Buffer.
    Load,
    /// The ClassCaps matrix multiplications producing `û_{j|i}`.
    Fc,
    /// Softmax over the routing logits (iteration k).
    Softmax(usize),
    /// Weighted sums `s_j` (iteration k).
    Sum(usize),
    /// Squash of the class capsules (iteration k).
    Squash(usize),
    /// Logit update `b_ij += û·v` (iteration k).
    Update(usize),
}

impl std::fmt::Display for RoutingStep {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingStep::Load => write!(f, "Load"),
            RoutingStep::Fc => write!(f, "FC"),
            RoutingStep::Softmax(i) => write!(f, "Softmax{i}"),
            RoutingStep::Sum(i) => write!(f, "Sum{i}"),
            RoutingStep::Squash(i) => write!(f, "Squash{i}"),
            RoutingStep::Update(i) => write!(f, "Update{i}"),
        }
    }
}

/// Timing of one routing step.
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct RoutingStepTiming {
    /// Which step.
    pub step: RoutingStep,
    /// Total cycles (compute/bandwidth max already applied).
    pub cycles: u64,
    /// Data Memory bytes moved (non-zero only when the feedback reuse is
    /// disabled or during the initial Load).
    pub data_mem_bytes: u64,
}

impl RoutingStepTiming {
    /// Wall-clock time in microseconds.
    pub fn time_us(&self, cfg: &AcceleratorConfig) -> f64 {
        cfg.cycles_to_us(self.cycles)
    }
}

/// Timing of the complete ClassCaps phase (Load + FC + routing
/// iterations) for a whole batch, step by step.
///
/// Dataflow scenarios per Fig. 12: the first Sum reads `û` from the Data
/// Buffer (scenario b); Updates and later Sums reuse `û` through the
/// horizontal feedback path (scenarios c/d) unless
/// `dataflow.routing_feedback` is disabled, in which case each re-reads
/// the Data Memory. With `dataflow.skip_first_softmax` the first softmax
/// is replaced by the direct `c_ij = 1/J` initialization (Sec. V), whose
/// cost is a single coupling broadcast into the Routing Buffer.
///
/// Only the FC step amortizes: its `W_ij` blocks stay resident while
/// every image's capsule vectors stream against them, so the 1.47 MB
/// weight stream is paid once per batch. Everything else (Load, softmax,
/// sums, squashes, updates) operates on per-image state and scales
/// linearly with the batch.
pub fn batch_routing_steps(
    net: &CapsNetConfig,
    batch: u64,
    cfg: &AcceleratorConfig,
) -> Vec<RoutingStepTiming> {
    let caps = u64_from(net.num_primary_caps());
    let classes = u64_from(net.num_classes);
    let out_dim = u64_from(net.class_caps_dim);
    let au = u64_from(cfg.activation_units);
    let u_hat_bytes = checked_product("û working set", &[caps, classes, out_dim]);
    let coupling_bytes = checked_product("coupling set", &[caps, classes]);
    // Checked independently of `u_hat_bytes`/`coupling_bytes`: with
    // `caps == 0` those products are 0 and would mask an overflow here.
    let cc_bytes = checked_product("class capsules", &[classes, out_dim]);
    let coupling_rw = checked_product("coupling read+write", &[2, coupling_bytes]);
    let load = u64_from(cfg.rows) + 1;
    let drain = u64_from(cfg.rows + cfg.cols);
    // A step on per-image state: `batch` times its single-image cost.
    let per_image = |step: RoutingStep, cycles: u64, data_mem_bytes: u64| RoutingStepTiming {
        step,
        cycles: checked_product("batched step cycles", &[cycles, batch]),
        data_mem_bytes: checked_product("batched step bytes", &[data_mem_bytes, batch]),
    };
    let mut steps = Vec::new();

    // Load: stage the û working set into the Data Buffer once per image.
    steps.push(per_image(
        RoutingStep::Load,
        ceil_div(u_hat_bytes, cfg.data_mem_bw),
        u_hat_bytes,
    ));

    // FC: û_{j|i} = W_ij · u_i — one (in_dim × classes·out_dim) matmul
    // per input capsule with M data rows; tiles pipeline across capsules.
    // With weight reuse every image streams against the resident W_ij
    // tiles (M = batch); without it each image is its own M = 1 pass.
    let fc_tiles = checked_product(
        "ClassCaps FC tiles",
        &[caps, ceil_div(cc_bytes, u64_from(cfg.cols))],
    );
    // Each pass streams every W_ij once.
    let fc_stream = ceil_div(fc_weight_bytes(net, 1, cfg), cfg.weight_mem_bw);
    let fc = |m: u64| {
        let compute = if tiles_pipeline(cfg) {
            load + m
                + checked_product("ClassCaps FC pipeline", &[fc_tiles - 1, m.max(load)])
                + drain
        } else {
            checked_product("ClassCaps FC cycles", &[fc_tiles, load + m + drain])
        };
        compute.max(fc_stream)
    };
    steps.push(RoutingStepTiming {
        step: RoutingStep::Fc,
        cycles: if cfg.dataflow.weight_reuse {
            fc(batch)
        } else {
            checked_product("batched step cycles", &[fc(1), batch])
        },
        // û written back as produced.
        data_mem_bytes: checked_product("batched û stream", &[batch, u_hat_bytes]),
    });

    // Per-iteration steps.
    for iter in 1..=net.routing_iterations {
        // Softmax (skipped on iteration 1 with the Sec. V optimization —
        // replaced by the uniform-coupling broadcast).
        let softmax = if iter == 1 && cfg.dataflow.skip_first_softmax {
            // Write c_ij = 1/J into the Routing Buffer.
            ceil_div(coupling_bytes, cfg.routing_buf_bw)
        } else {
            let compute = ceil_div(caps, au) * ActivationUnit::softmax_cycles(classes);
            let traffic = ceil_div(coupling_rw, cfg.routing_buf_bw);
            compute.max(traffic)
        };
        steps.push(per_image(RoutingStep::Softmax(iter), softmax, 0));

        // Sum: per class, û tiles (R capsules × out_dim) weight-stationary
        // with the coupling row streamed (M = 1).
        let chunks = ceil_div(caps, u64_from(cfg.rows));
        let ntiles = ceil_div(out_dim, u64_from(cfg.cols));
        let per_class = if tiles_pipeline(cfg) {
            let steady = checked_product("routing Sum pipeline", &[chunks - 1, 1u64.max(load)]);
            checked_product("routing Sum tiles", &[ntiles, load + 1 + steady + drain])
        } else {
            checked_product("routing Sum tiles", &[ntiles, chunks, load + 1 + drain])
        };
        let mut sum_cycles = checked_product("routing Sum cycles", &[classes, per_class]);
        let mut sum_mem = 0;
        if !cfg.dataflow.routing_feedback {
            // No feedback: re-read û from Data Memory for this pass.
            sum_cycles = sum_cycles.max(ceil_div(u_hat_bytes, cfg.data_mem_bw));
            sum_mem = u_hat_bytes;
        }
        steps.push(per_image(RoutingStep::Sum(iter), sum_cycles, sum_mem));

        // Squash: one class capsule per activation unit.
        let squash_compute = ceil_div(classes, au) * ActivationUnit::squash_cycles(out_dim);
        let squash_traffic = ceil_div(cc_bytes, cfg.routing_buf_bw); // write v_j
        steps.push(per_image(
            RoutingStep::Squash(iter),
            squash_compute.max(squash_traffic),
            0,
        ));

        // Update (all but the last iteration): per class, v_j is the
        // weight tile (out_dim × 1) and all û rows stream (M = caps).
        if iter < net.routing_iterations {
            let per_class_update = load + caps + drain;
            let mut upd_cycles =
                checked_product("routing Update cycles", &[classes, per_class_update]);
            let traffic = ceil_div(coupling_rw, cfg.routing_buf_bw); // b read+write
            upd_cycles = upd_cycles.max(traffic);
            let mut upd_mem = 0;
            if !cfg.dataflow.routing_feedback {
                upd_cycles = upd_cycles.max(ceil_div(u_hat_bytes, cfg.data_mem_bw));
                upd_mem = u_hat_bytes;
            }
            steps.push(per_image(RoutingStep::Update(iter), upd_cycles, upd_mem));
        }
    }
    steps
}

/// Closed-form timing of a layer-major batched inference pass — the
/// analytical counterpart of the engine's
/// [`crate::Accelerator::run_batch`], with the weight-load terms
/// amortized over the batch: the three layers of Fig. 16, with the
/// ClassCaps layer broken into the steps of Fig. 17.
#[derive(Clone, PartialEq, Debug)]
pub struct BatchInferenceTiming {
    /// Batch size the totals cover.
    pub batch: u64,
    /// Conv1 timing for the whole batch.
    pub conv1: LayerTiming,
    /// PrimaryCaps timing for the whole batch.
    pub primary_caps: LayerTiming,
    /// ClassCaps step-by-step timing for the whole batch.
    pub class_caps_steps: Vec<RoutingStepTiming>,
    /// ClassCaps FC weight bytes for the whole batch (not part of a
    /// [`LayerTiming`], tracked here for the per-image accounting).
    pub fc_weight_bytes: u64,
}

impl BatchInferenceTiming {
    /// Total ClassCaps cycles for the batch.
    pub fn class_caps_cycles(&self) -> u64 {
        self.class_caps_steps.iter().map(|s| s.cycles).sum()
    }

    /// Total cycles for the batch.
    pub fn total_cycles(&self) -> u64 {
        self.conv1.cycles + self.primary_caps.cycles + self.class_caps_cycles()
    }

    /// Amortized cycles per image.
    pub fn cycles_per_image(&self) -> f64 {
        self.total_cycles() as f64 / self.batch as f64
    }

    /// Amortized wall-clock time per image in microseconds.
    pub fn time_per_image_us(&self, cfg: &AcceleratorConfig) -> f64 {
        cfg.cycles_to_us(self.total_cycles()) / self.batch as f64
    }

    /// Amortized weight bytes read per image (conv layers + FC).
    pub fn weight_bytes_per_image(&self) -> f64 {
        (self.conv1.weight_bytes + self.primary_caps.weight_bytes + self.fc_weight_bytes) as f64
            / self.batch as f64
    }
}

/// Computes the batched-inference timing: `batch` images through the
/// layer-major weight-resident schedule (`batch == 1` is a single
/// inference).
///
/// # Example
///
/// ```
/// use capsacc_core::{timing, AcceleratorConfig};
/// use capsacc_capsnet::CapsNetConfig;
/// let cfg = AcceleratorConfig::paper();
/// let net = CapsNetConfig::mnist();
/// let b1 = timing::full_inference_batch(&cfg, &net, 1);
/// let b16 = timing::full_inference_batch(&cfg, &net, 16);
/// // 16 images pay for one weight load: fewer cycles per image.
/// assert!(b16.cycles_per_image() < b1.cycles_per_image());
/// ```
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn full_inference_batch(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    batch: u64,
) -> BatchInferenceTiming {
    assert!(batch > 0, "batch must be non-zero");
    // ReLU is pipelined behind Conv1's output stream: latency only. The
    // PrimaryCaps squash is per-capsule work and scales with the batch.
    let relu = ActivationUnit::reduce_cycles(0);
    let squash = checked_product(
        "batched squash cycles",
        &[
            batch,
            ceil_div(
                u64_from(net.num_primary_caps()),
                u64_from(cfg.activation_units),
            ),
            ActivationUnit::squash_cycles(u64_from(net.pc_caps_dim)),
        ],
    );
    BatchInferenceTiming {
        batch,
        conv1: conv_layer_batch("Conv1", &net.conv1_geometry(), relu, batch, cfg),
        primary_caps: conv_layer_batch(
            "PrimaryCaps",
            &net.primary_caps_geometry(),
            squash,
            batch,
            cfg,
        ),
        class_caps_steps: batch_routing_steps(net, batch, cfg),
        fc_weight_bytes: fc_weight_bytes(net, batch, cfg),
    }
}

/// Analytical estimate of the memory/buffer traffic of a layer-major
/// batched pass — the closed-form counterpart of the engine's counters,
/// usable at MNIST scale where the cycle-accurate engine is slow.
///
/// Accounting: weight reads once per (K, N) tile visit per *batch* (the
/// residency amortization; per data row of every image without reuse);
/// data-buffer reads once per tile's data stream; the û working set
/// staged once per image (plus re-reads when the feedback path is
/// disabled); routing-buffer traffic for couplings, logits and class
/// capsules per iteration. Everything keyed to per-image state scales
/// linearly with the batch.
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn batch_traffic_estimate(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    batch: u64,
) -> crate::TrafficReport {
    use crate::{MemoryKind, TrafficReport};
    assert!(batch > 0, "batch must be non-zero");
    let mut t = TrafficReport::default();
    let (r, c) = (u64_from(cfg.rows), u64_from(cfg.cols));
    let product = checked_product;

    let conv = |t: &mut TrafficReport, g: &ConvGeometry| {
        let shape = conv_shape(g);
        let wbytes = conv_weight_bytes(g, batch, cfg);
        t.read(MemoryKind::WeightMemory, wbytes);
        t.read(MemoryKind::WeightBuffer, wbytes);
        // Off chip, each weight and bias crosses the DRAM channel once
        // per batch (the engine's prefetcher fetches every tile exactly
        // once; biases ride along with the layer's stream).
        t.read(
            MemoryKind::Dram,
            product("conv weights", &[shape.k, shape.n]) + u64_from(g.out_ch),
        );
        // Every N-tile re-streams all data rows over each K-slice, for
        // every image.
        let nn = ceil_div(shape.n, c);
        t.read(
            MemoryKind::DataBuffer,
            product("conv data stream", &[batch, nn, shape.m, shape.k]),
        );
        t.read(
            MemoryKind::DataMemory,
            product("conv inputs", &[batch, u64_from(g.input_len())]),
        );
        t.write(
            MemoryKind::DataMemory,
            product("conv outputs", &[batch, u64_from(g.output_len())]),
        );
    };
    // Input images are staged from DRAM once per image.
    t.read(
        MemoryKind::Dram,
        product(
            "input staging",
            &[batch, u64_from(net.conv1_geometry().input_len())],
        ),
    );
    conv(&mut t, &net.conv1_geometry());
    conv(&mut t, &net.primary_caps_geometry());

    let caps = u64_from(net.num_primary_caps());
    let classes = u64_from(net.num_classes);
    let in_dim = u64_from(net.pc_caps_dim);
    let out_dim = u64_from(net.class_caps_dim);
    let u_hat_bytes = product("û working set", &[caps, classes, out_dim]);
    let coupling_bytes = product("coupling set", &[caps, classes]);

    // FC: each W_ij read once per batch (its block stays resident while
    // every image streams); capsule inputs streamed per N-tile per image.
    let fc_weights = fc_weight_bytes(net, batch, cfg);
    t.read(MemoryKind::WeightMemory, fc_weights);
    t.read(MemoryKind::WeightBuffer, fc_weights);
    // Off chip, each W_ij crosses the DRAM channel once per batch.
    t.read(MemoryKind::Dram, fc_weight_bytes(net, 1, cfg));
    t.read(
        MemoryKind::DataBuffer,
        product(
            "FC capsule stream",
            &[
                batch,
                caps,
                ceil_div(product("class capsules", &[classes, out_dim]), c),
                in_dim,
            ],
        ),
    );
    t.write(
        MemoryKind::DataMemory,
        product("û writeback", &[batch, u_hat_bytes]),
    );
    // û staged into the Data Buffer once per image (the Load step).
    t.read(
        MemoryKind::DataMemory,
        product("û staging", &[batch, u_hat_bytes]),
    );
    t.write(
        MemoryKind::DataBuffer,
        product("û staging", &[batch, u_hat_bytes]),
    );

    let iters = u64_from(net.routing_iterations);
    // Sums: û tiles read from the Data Buffer each iteration; couplings
    // read per iteration. Ceil the capsule chunking like the mapping.
    // All routing state is per-image, so the batch scales it linearly.
    let sum_tile_reads = product(
        "routing Sum tile reads",
        &[classes, ceil_div(caps, r), r, out_dim.min(c)],
    );
    t.read(
        MemoryKind::DataBuffer,
        product("routing Sum stream", &[batch, sum_tile_reads, iters]),
    );
    t.read(
        MemoryKind::RoutingBuffer,
        product("coupling reads", &[batch, coupling_bytes, iters]),
    );
    t.write(
        MemoryKind::RoutingBuffer,
        product("capsule writes", &[batch, classes, out_dim, iters]),
    );
    // Updates: v read, logits updated, couplings rewritten.
    t.read(
        MemoryKind::RoutingBuffer,
        product("update v reads", &[batch, classes, out_dim, iters - 1]),
    );
    t.write(
        MemoryKind::RoutingBuffer,
        product(
            "update logit writes",
            &[batch, 2, coupling_bytes, iters - 1],
        ),
    );
    if !cfg.dataflow.routing_feedback {
        // Re-read û from Data Memory for every later sum and update.
        t.read(
            MemoryKind::DataMemory,
            product("û re-reads", &[batch, u_hat_bytes, 2 * (iters - 1)]),
        );
    }
    t
}

// ---------------------------------------------------------------------
// Memory-aware model: the closed-form counterpart of the engine's
// memory hierarchy. Both sides drive the same `MemorySubsystem` tile
// replay from `capsacc-memory`, so their stall accounting agrees
// *exactly* — asserted against the ticked engine on serial tiny configs
// by `tests/memory_equivalence.rs`.

fn geometry(
    shape: MatmulShape,
    batch: u64,
    cfg: &AcceleratorConfig,
    weights_offchip: bool,
) -> MatmulGeometry {
    MatmulGeometry {
        m: usize_from(shape.m),
        k: usize_from(shape.k),
        n: usize_from(shape.n),
        batch: usize_from(batch),
        rows: cfg.rows,
        cols: cfg.cols,
        weights_offchip,
        // The fill-hiding window per tile must match the base schedule
        // this model adds stalls to (the engine always passes Serial).
        schedule: if !cfg.dataflow.weight_reuse {
            TileSchedule::ReloadPerRow
        } else if tiles_pipeline(cfg) {
            TileSchedule::Pipelined
        } else {
            TileSchedule::Serial
        },
    }
}

/// Memory-hierarchy stall cycles of one batched matmul under
/// `cfg.memory`, with per-tile fill-hiding windows matching the
/// configured tile schedule. On serial-tile, reuse-enabled
/// configurations (`dataflow.pipelined_tiles == false`,
/// `dataflow.weight_reuse == true`) this is exactly what the engine's
/// [`crate::Accelerator::matmul_batch`] adds to its stall counter for
/// the same shape — the ticked engine executes tiles serially and, like
/// [`batch_matmul_cycles`], always simulates the real design point with
/// the second weight register present, so the `weight_reuse` ablation's
/// [`TileSchedule::ReloadPerRow`] windows are analytical-only. Zero
/// under `IdealMemory` either way.
pub fn matmul_mem_stalls(
    shape: MatmulShape,
    batch: u64,
    cfg: &AcceleratorConfig,
    weights_offchip: bool,
) -> u64 {
    MemorySubsystem::new(cfg.memory).matmul(&geometry(shape, batch, cfg, weights_offchip))
}

/// Memory-aware batched inference timing: the ideal-memory closed-form
/// model plus the hierarchy's stalls, layer by layer.
#[derive(Clone, PartialEq, Debug)]
pub struct MemInferenceTiming {
    /// The ideal-memory timing the stalls are added on top of.
    pub base: BatchInferenceTiming,
    /// Conv1 stalls (input staging + conv tile transactions).
    pub conv1_stall_cycles: u64,
    /// PrimaryCaps stalls.
    pub primary_caps_stall_cycles: u64,
    /// ClassCaps stalls (FC weight prefetch + routing operand bursts).
    pub class_caps_stall_cycles: u64,
    /// The full memory-hierarchy report of the replay.
    pub report: MemReport,
}

impl MemInferenceTiming {
    /// Total cycles for the batch including memory stalls.
    pub fn total_cycles(&self) -> u64 {
        self.base.total_cycles() + self.report.stall_cycles
    }

    /// Amortized cycles per image including memory stalls.
    pub fn cycles_per_image(&self) -> f64 {
        self.total_cycles() as f64 / self.base.batch as f64
    }

    /// Fraction of the total cycles lost to the memory hierarchy.
    pub fn stall_fraction(&self) -> f64 {
        self.report.stall_cycles as f64 / self.total_cycles() as f64
    }
}

/// Replays the exact sequence of memory transactions the engine's
/// `run_batch` issues — input staging, the two convolutions, the
/// per-capsule FC and every per-image routing matmul — through one
/// [`MemorySubsystem`].
fn replay_inference_memory(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    batch: u64,
) -> (MemReport, [u64; 3]) {
    let mut mem = MemorySubsystem::new(cfg.memory);
    let g1 = net.conv1_geometry();
    let gp = net.primary_caps_geometry();
    let (caps, classes) = (u64_from(net.num_primary_caps()), u64_from(net.num_classes));
    let (in_dim, out_dim) = (u64_from(net.pc_caps_dim), u64_from(net.class_caps_dim));

    // Many of run_batch's transactions are identical repeats (one FC
    // matmul per input capsule, one Sum/Update matmul per class per
    // iteration per image). Each repeat restarts the prefetch timeline,
    // so replaying the geometry once and scaling its delta is
    // bit-identical to looping — and far cheaper inside a DSE sweep.
    let repeat = |mem: &mut MemorySubsystem, g: &MatmulGeometry, count: u64| -> u64 {
        if count == 0 {
            return 0;
        }
        let (stall, d) = mem.price(g);
        mem.charge(&d.scaled(count));
        stall * count
    };

    let conv1 = mem.stage_input(checked_product(
        "input staging",
        &[batch, u64_from(g1.input_len())],
    )) + mem.matmul(&geometry(conv_shape(&g1), batch, cfg, true));
    mem.stage_bias(u64_from(g1.out_ch));
    let primary = mem.matmul(&geometry(conv_shape(&gp), batch, cfg, true));
    mem.stage_bias(u64_from(gp.out_ch));

    let fc_shape = MatmulShape {
        m: 1,
        k: in_dim,
        n: checked_product("ClassCaps FC width", &[classes, out_dim]),
    };
    let mut class_caps = repeat(&mut mem, &geometry(fc_shape, batch, cfg, true), caps);
    // Routing operates on per-image on-chip state through the exact
    // sequential code path: per class, Sum streams the coupling row
    // against resident û tiles; Update streams every û row against the
    // resident v_j column.
    let sum_shape = MatmulShape {
        m: 1,
        k: caps,
        n: out_dim,
    };
    let update_shape = MatmulShape {
        m: caps,
        k: out_dim,
        n: 1,
    };
    let iters = u64_from(net.routing_iterations);
    class_caps += repeat(
        &mut mem,
        &geometry(sum_shape, 1, cfg, false),
        checked_product("routing Sum repeats", &[batch, iters, classes]),
    );
    class_caps += repeat(
        &mut mem,
        &geometry(update_shape, 1, cfg, false),
        checked_product("routing Update repeats", &[batch, iters - 1, classes]),
    );
    (mem.report(), [conv1, primary, class_caps])
}

/// Memory-aware batched inference timing under `cfg.memory`: the
/// ideal-memory closed form plus an exact replay of the engine's memory
/// transactions. With `MemoryConfig::ideal()` (the default) this is
/// [`full_inference_batch`] with zero stalls.
///
/// # Example
///
/// ```
/// use capsacc_core::{timing, AcceleratorConfig, MemoryConfig};
/// use capsacc_capsnet::CapsNetConfig;
/// let net = CapsNetConfig::mnist();
/// let ideal = AcceleratorConfig::paper();
/// let mut finite = ideal;
/// finite.memory = MemoryConfig::paper();
/// let t_ideal = timing::full_inference_batch_mem(&ideal, &net, 16);
/// let t_finite = timing::full_inference_batch_mem(&finite, &net, 16);
/// assert_eq!(t_ideal.report.stall_cycles, 0);
/// assert!(t_finite.total_cycles() > t_ideal.total_cycles());
/// ```
///
/// # Panics
///
/// Panics if `batch` is zero.
pub fn full_inference_batch_mem(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    batch: u64,
) -> MemInferenceTiming {
    let base = full_inference_batch(cfg, net, batch);
    let (report, [conv1, primary, class_caps]) = replay_inference_memory(cfg, net, batch);
    MemInferenceTiming {
        base,
        conv1_stall_cycles: conv1,
        primary_caps_stall_cycles: primary,
        class_caps_stall_cycles: class_caps,
        report,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }

    #[test]
    fn serial_matmul_formula() {
        let mut c = cfg();
        c.dataflow.pipelined_tiles = false;
        // 4×4 array, one tile: load (5) + stream (3 + 4 + 4) = 16.
        c.rows = 4;
        c.cols = 4;
        let got = matmul_cycles(MatmulShape { m: 3, k: 4, n: 4 }, &c);
        assert_eq!(got, 16);
        // Two K-tiles, two N-tiles: 4 tiles.
        let got = matmul_cycles(MatmulShape { m: 3, k: 8, n: 8 }, &c);
        assert_eq!(got, 4 * 16);
    }

    #[test]
    fn pipelined_is_never_slower() {
        let mut serial = cfg();
        serial.dataflow.pipelined_tiles = false;
        let pipelined = cfg();
        for (m, k, n) in [(1, 8, 160), (400, 81, 256), (36, 2304, 256), (16, 1152, 16)] {
            let shape = MatmulShape { m, k, n };
            assert!(
                matmul_cycles(shape, &pipelined) <= matmul_cycles(shape, &serial),
                "pipelining regressed {shape:?}"
            );
        }
    }

    #[test]
    fn no_weight_reuse_costs_loads_per_row() {
        let mut c = cfg();
        c.dataflow.weight_reuse = false;
        c.rows = 4;
        c.cols = 4;
        let shape = MatmulShape { m: 3, k: 4, n: 4 };
        // 3 rows × 5-cycle loads + stream 11.
        assert_eq!(matmul_cycles(shape, &c), 3 * 5 + 11);
        assert_eq!(batch_matmul_weight_bytes(shape, 1, &c), 16 * 3);
        c.dataflow.weight_reuse = true;
        assert_eq!(batch_matmul_weight_bytes(shape, 1, &c), 16);
    }

    #[test]
    fn primarycaps_weight_stream_is_near_compute() {
        // PrimaryCaps moves 5.3 MB of weights for only 36 output pixels:
        // the weight stream (5 308 672 B at 8 B/cycle) runs neck-and-neck
        // with compute — the layer the GPU keeps an edge on (Fig. 16).
        let full = full_inference_batch(&cfg(), &CapsNetConfig::mnist(), 1);
        let t = &full.primary_caps;
        assert_eq!(t.weight_stream_cycles, 5_308_672_u64.div_ceil(8));
        let ratio = t.compute_cycles as f64 / t.weight_stream_cycles as f64;
        assert!((0.8..1.5).contains(&ratio), "ratio = {ratio}");
        // And it dominates the whole inference.
        assert!(full.primary_caps.cycles > full.conv1.cycles);
        assert!(full.primary_caps.cycles > full.class_caps_cycles());
    }

    #[test]
    fn conv1_is_compute_bound() {
        let t = full_inference_batch(&cfg(), &CapsNetConfig::mnist(), 1).conv1;
        assert!(t.compute_cycles > t.weight_stream_cycles);
        assert_eq!(t.macs, 400 * 81 * 256);
    }

    #[test]
    fn routing_steps_sequence_matches_fig17() {
        let steps = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        let names: Vec<String> = steps.iter().map(|s| s.step.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "Load", "FC", "Softmax1", "Sum1", "Squash1", "Update1", "Softmax2", "Sum2",
                "Squash2", "Update2", "Softmax3", "Sum3", "Squash3",
            ]
        );
    }

    #[test]
    fn skip_first_softmax_saves_cycles() {
        let with = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        let mut c = cfg();
        c.dataflow.skip_first_softmax = false;
        let without = batch_routing_steps(&CapsNetConfig::mnist(), 1, &c);
        let s_with = with
            .iter()
            .find(|s| s.step == RoutingStep::Softmax(1))
            .expect("step");
        let s_without = without
            .iter()
            .find(|s| s.step == RoutingStep::Softmax(1))
            .expect("step");
        assert!(s_with.cycles < s_without.cycles);
        // Later softmaxes are unaffected.
        let l_with = with
            .iter()
            .find(|s| s.step == RoutingStep::Softmax(2))
            .expect("step");
        let l_without = without
            .iter()
            .find(|s| s.step == RoutingStep::Softmax(2))
            .expect("step");
        assert_eq!(l_with.cycles, l_without.cycles);
    }

    #[test]
    fn feedback_reuse_eliminates_data_memory_rereads() {
        let with = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        let mut c = cfg();
        c.dataflow.routing_feedback = false;
        let without = batch_routing_steps(&CapsNetConfig::mnist(), 1, &c);
        let mem = |steps: &[RoutingStepTiming]| -> u64 {
            steps
                .iter()
                .filter(|s| matches!(s.step, RoutingStep::Sum(_) | RoutingStep::Update(_)))
                .map(|s| s.data_mem_bytes)
                .sum()
        };
        assert_eq!(mem(&with), 0);
        // 3 sums + 2 updates re-read 184 320 bytes each.
        assert_eq!(mem(&without), 5 * 184_320);
        let cyc = |steps: &[RoutingStepTiming]| -> u64 { steps.iter().map(|s| s.cycles).sum() };
        assert!(cyc(&without) > cyc(&with));
    }

    #[test]
    fn load_step_matches_u_hat_footprint() {
        // 1152 · 10 · 16 bytes at 8 B/cycle = 23 040 cycles ≈ 92 µs at
        // 250 MHz — the paper reports the CapsAcc Load as ~9% faster than
        // the GPU's ~100 µs.
        let steps = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        assert_eq!(steps[0].cycles, 23_040);
    }

    #[test]
    fn full_inference_totals_are_consistent() {
        let t = full_inference_batch(&cfg(), &CapsNetConfig::mnist(), 1);
        assert_eq!(
            t.total_cycles(),
            t.conv1.cycles + t.primary_caps.cycles + t.class_caps_cycles()
        );
        // Total inference lands in the single-digit-millisecond regime at
        // 250 MHz, like the paper's.
        let ms = t.time_per_image_us(&cfg()) / 1000.0;
        assert!((1.0..10.0).contains(&ms), "total = {ms} ms");
    }

    #[test]
    fn squash_step_is_negligible() {
        // The headline effect: squashing goes from the GPU bottleneck to
        // a negligible cost on CapsAcc.
        let steps = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        let squash: u64 = steps
            .iter()
            .filter(|s| matches!(s.step, RoutingStep::Squash(_)))
            .map(|s| s.cycles)
            .sum();
        let total: u64 = steps.iter().map(|s| s.cycles).sum();
        assert!((squash as f64) < 0.01 * total as f64);
    }

    #[test]
    fn traffic_estimate_has_paper_scale_footprints() {
        let t = batch_traffic_estimate(&cfg(), &CapsNetConfig::mnist(), 1);
        use crate::MemoryKind;
        // All trainable weights read exactly once (full reuse).
        assert_eq!(t.counter(MemoryKind::WeightMemory).read_bytes, 6_804_224);
        // Feedback reuse: Data Memory reads = inputs + û staging only.
        let dm = t.counter(MemoryKind::DataMemory).read_bytes;
        let mut no_fb = cfg();
        no_fb.dataflow.routing_feedback = false;
        let t2 = batch_traffic_estimate(&no_fb, &CapsNetConfig::mnist(), 1);
        let dm2 = t2.counter(MemoryKind::DataMemory).read_bytes;
        assert_eq!(dm2 - dm, 4 * 184_320);
    }

    #[test]
    fn traffic_estimate_no_reuse_multiplies_weight_reads() {
        let mut c = cfg();
        c.dataflow.weight_reuse = false;
        let with = batch_traffic_estimate(&cfg(), &CapsNetConfig::mnist(), 1);
        let without = batch_traffic_estimate(&c, &CapsNetConfig::mnist(), 1);
        use crate::MemoryKind;
        assert!(
            without.counter(MemoryKind::WeightMemory).read_bytes
                > 10 * with.counter(MemoryKind::WeightMemory).read_bytes
        );
    }

    #[test]
    fn batched_matmul_amortizes_tile_loads() {
        let c = cfg();
        let shape = MatmulShape {
            m: 36,
            k: 2304,
            n: 256,
        };
        // Residency across the batch: strictly cheaper than N independent
        // runs, and exactly the M' = B·M schedule.
        for batch in [2u64, 4, 16] {
            let b = batch_matmul_cycles(shape, batch, &c);
            assert!(b < batch * matmul_cycles(shape, &c));
            assert_eq!(
                b,
                matmul_cycles(
                    MatmulShape {
                        m: shape.m * batch,
                        ..shape
                    },
                    &c
                )
            );
            // Weight bytes are paid once per batch.
            assert_eq!(
                batch_matmul_weight_bytes(shape, batch, &c),
                batch_matmul_weight_bytes(shape, 1, &c)
            );
        }
        // Without the second weight register there is nothing to hold
        // resident: the batch degenerates to independent runs.
        let mut no_reuse = c;
        no_reuse.dataflow.weight_reuse = false;
        assert_eq!(
            batch_matmul_cycles(shape, 8, &no_reuse),
            8 * matmul_cycles(shape, &no_reuse)
        );
        assert_eq!(
            batch_matmul_weight_bytes(shape, 8, &no_reuse),
            8 * batch_matmul_weight_bytes(shape, 1, &no_reuse)
        );
    }

    #[test]
    fn batched_primarycaps_amortizes_weight_stream() {
        // PrimaryCaps moves 5.3 MB of weights, running neck-and-neck
        // with compute at batch 1. Layer-major batching pays that stream
        // once per batch, so at batch 16 compute dominates outright and
        // per-image cycles strictly fall.
        let c = cfg();
        let net = CapsNetConfig::mnist();
        let b1 = full_inference_batch(&c, &net, 1).primary_caps;
        let b16 = full_inference_batch(&c, &net, 16).primary_caps;
        assert_eq!(b16.weight_stream_cycles, b1.weight_stream_cycles);
        assert_eq!(b16.weight_bytes, b1.weight_bytes);
        assert!(b16.compute_cycles > 10 * b16.weight_stream_cycles);
        assert!((b16.cycles as f64 / 16.0) < b1.cycles as f64);
    }

    #[test]
    fn batched_fc_amortizes_weight_stream() {
        let c = cfg();
        let net = CapsNetConfig::mnist();
        let fc = |steps: &[RoutingStepTiming]| {
            steps
                .iter()
                .find(|s| s.step == RoutingStep::Fc)
                .expect("fc step")
                .cycles
        };
        let b1 = fc(&batch_routing_steps(&net, 1, &c));
        let b16 = fc(&batch_routing_steps(&net, 16, &c));
        // The 1.47 MB of W_ij stream once per batch.
        assert!((b16 as f64 / 16.0) < 0.2 * b1 as f64);
        // Per-image routing steps scale linearly.
        let sum1: u64 = batch_routing_steps(&net, 1, &c)
            .iter()
            .filter(|s| matches!(s.step, RoutingStep::Sum(_)))
            .map(|s| s.cycles)
            .sum();
        let sum16: u64 = batch_routing_steps(&net, 16, &c)
            .iter()
            .filter(|s| matches!(s.step, RoutingStep::Sum(_)))
            .map(|s| s.cycles)
            .sum();
        assert_eq!(sum16, 16 * sum1);
    }

    #[test]
    fn batch_traffic_amortizes_weight_memory_only() {
        let c = cfg();
        let net = CapsNetConfig::mnist();
        use crate::MemoryKind;
        let b1 = batch_traffic_estimate(&c, &net, 1);
        let b16 = batch_traffic_estimate(&c, &net, 16);
        // All trainable weights still read exactly once for the batch.
        assert_eq!(
            b16.counter(MemoryKind::WeightMemory).read_bytes,
            b1.counter(MemoryKind::WeightMemory).read_bytes
        );
        // Data-side traffic scales with the batch.
        assert_eq!(
            b16.counter(MemoryKind::DataMemory).read_bytes,
            16 * b1.counter(MemoryKind::DataMemory).read_bytes
        );
        assert_eq!(
            b16.counter(MemoryKind::RoutingBuffer).total(),
            16 * b1.counter(MemoryKind::RoutingBuffer).total()
        );
        // Per-image totals therefore fall.
        assert!(b16.total_bytes_per_image(16) < b1.total_bytes_per_image(1));
    }

    #[test]
    fn undersized_weight_buffer_disables_pipelining() {
        // A buffer that holds one tile but not two cannot double-buffer:
        // the pipelined schedule must fall back to the serial one.
        let mut c = cfg();
        c.rows = 4;
        c.cols = 4;
        c.weight_buffer_bytes = 24; // 16 B tile fits, 32 B double buffer does not
        let shape = MatmulShape { m: 5, k: 16, n: 8 };
        let mut serial = c;
        serial.dataflow.pipelined_tiles = false;
        assert_eq!(matmul_cycles(shape, &c), matmul_cycles(shape, &serial));
        // With room for the double buffer, pipelining resumes.
        c.weight_buffer_bytes = 32;
        assert!(matmul_cycles(shape, &c) < matmul_cycles(shape, &serial));
    }

    #[test]
    fn ideal_memory_model_adds_no_stalls() {
        let net = CapsNetConfig::mnist();
        for batch in [1u64, 4, 16] {
            let t = full_inference_batch_mem(&cfg(), &net, batch);
            assert_eq!(t.report.stall_cycles, 0);
            assert_eq!(
                t.total_cycles(),
                full_inference_batch(&cfg(), &net, batch).total_cycles()
            );
            assert_eq!(t.stall_fraction(), 0.0);
            // The off-chip split is still counted: every parameter byte
            // (weights + biases) once per batch, inputs once per image.
            assert_eq!(t.report.dram_weight_bytes, net.total_parameters() as u64);
            assert_eq!(
                t.report.dram_data_bytes,
                batch * net.conv1_geometry().input_len() as u64
            );
        }
    }

    #[test]
    fn finite_memory_model_stalls_and_prefetch_recovers() {
        let net = CapsNetConfig::mnist();
        let mut finite = cfg();
        finite.memory = crate::MemoryConfig::paper();
        let mut naive = finite;
        naive.memory.prefetch_buffers = 1;
        let ideal = full_inference_batch_mem(&cfg(), &net, 16);
        let t = full_inference_batch_mem(&finite, &net, 16);
        let t_naive = full_inference_batch_mem(&naive, &net, 16);
        assert!(t.report.stall_cycles > 0);
        assert!(t.total_cycles() > ideal.total_cycles());
        assert!(t_naive.report.stall_cycles > t.report.stall_cycles);
        // The acceptance anchor: double buffering recovers at least half
        // of the naive (no-prefetch) stall cycles at batch 16.
        assert!(
            2 * t.report.stall_cycles <= t_naive.report.stall_cycles,
            "prefetch recovered too little: {} vs naive {}",
            t.report.stall_cycles,
            t_naive.report.stall_cycles
        );
        // Per-layer stalls decompose the total.
        assert_eq!(
            t.conv1_stall_cycles + t.primary_caps_stall_cycles + t.class_caps_stall_cycles,
            t.report.stall_cycles
        );
    }

    #[test]
    #[should_panic(expected = "overflows u64")]
    fn adversarial_net_shape_fails_loudly_instead_of_wrapping() {
        // ~2^50 primary capsules × 2^10 classes × 2^8 capsule bytes: the
        // û working set exceeds u64, and the checked products must panic
        // with context — release builds would otherwise wrap silently
        // and report garbage cycle counts.
        let net = CapsNetConfig {
            input_side: 1 << 21,
            conv1_channels: 1,
            conv1_kernel: 1,
            conv1_stride: 1,
            pc_channels: 1 << 8,
            pc_caps_dim: 1 << 8,
            pc_kernel: 1,
            pc_stride: 1,
            num_classes: 1 << 10,
            class_caps_dim: 1 << 8,
            routing_iterations: 3,
        };
        let _ = batch_routing_steps(&net, 1, &cfg());
    }

    #[test]
    fn checked_products_are_exact_in_range() {
        // The audit must not perturb any in-range formula: spot-check the
        // paper design point against hand-computed values that predate
        // the checked-cast conversion.
        let steps = batch_routing_steps(&CapsNetConfig::mnist(), 1, &cfg());
        assert_eq!(steps[0].cycles, 23_040); // Load: 184 320 B at 8 B/cy
        let t = full_inference_batch(&cfg(), &CapsNetConfig::mnist(), 1);
        assert_eq!(
            t.total_cycles(),
            t.conv1.cycles + t.primary_caps.cycles + t.class_caps_cycles()
        );
    }

    #[test]
    fn bigger_arrays_do_not_slow_compute_bound_layers() {
        let base = full_inference_batch(&cfg(), &CapsNetConfig::mnist(), 1).conv1;
        let mut big = cfg();
        big.rows = 32;
        big.cols = 32;
        big.activation_units = 32;
        let t = full_inference_batch(&big, &CapsNetConfig::mnist(), 1).conv1;
        assert!(t.compute_cycles < base.compute_cycles);
    }
}
