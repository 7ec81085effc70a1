//! The cycle-accurate execution engine.
//!
//! [`Accelerator`] owns a register-transfer-level [`SystolicArray`] and
//! drives it through the paper's dataflow mappings tile by tile, cycle by
//! cycle. The functional results are **bit-exact** against the quantized
//! reference model (`capsacc_capsnet::infer_q8_traced`) — the engine even
//! assembles its results into the same [`QuantTrace`] type so integration
//! tests can `assert_eq!` entire inference traces.
//!
//! Cycle accounting: the systolic-array cycles are exact (every PE
//! register is ticked); activation-unit costs use the per-operation
//! formulas of Sec. IV-C; bandwidth ceilings (weight streaming, routing
//! buffer ports) are the analytical model's domain
//! ([`crate::timing`]). The engine executes tiles serially; the
//! pipelined "full throttle" overlap exists only in that model. With
//! pipelining disabled, the model's array cycles equal the engine's
//! (pinned on tiny matmuls by `tests/timing_consistency.rs`, and for
//! Conv1 and PrimaryCaps at MNIST scale by
//! `examples/mnist_full_system.rs`), but layer and step totals differ:
//! the engine drains `M + 1` cycles per N-tile per image where the model
//! charges ReLU 1 cycle, and the model applies Routing Buffer bandwidth
//! ceilings to softmax and squash that the engine does not. The
//! [`crate::timing`] module doc gives the MNIST figures; item 2 of
//! `ROADMAP.md` (one cycle model) plans how the gaps close.
//!
//! Two execution backends produce this identical behavior
//! ([`crate::EngineBackend`]): `Ticked` drives every PE register through
//! [`SystolicArray::tick`], while `Functional` evaluates each tile as
//! the per-column saturating fold the PE datapath performs
//! ([`Pe::mac_step`](crate::Pe::mac_step) in fixed north→south order —
//! in parallel across data rows and with explicit SIMD when the host
//! supports it, see [`crate::FunctionalOptions`]) and charges each
//! matmul the exact cycles, traffic and stalls the ticked schedule
//! executes, priced once per matmul geometry (`MatmulCharge`) —
//! bit-identical results and accounting at wall-clock speed
//! (differentially pinned by `tests/backend_equivalence.rs`).

use capsacc_capsnet::{
    primary_capsules, CapsNetConfig, QuantPipeline, QuantTrace, QuantizedParams,
    RoutingIterationTrace, RoutingVariant,
};
use capsacc_faults::FaultPlan;
use capsacc_memory::{MatmulGeometry, MemReport, MemorySubsystem, TileSchedule};
use capsacc_telemetry::{CycleKind, Recorder, SpanDetail, TelemetryConfig};
use capsacc_tensor::{u64_from, Tensor};

use crate::accumulator::AccumulatorUnit;
use crate::activation::{ActivationKind, ActivationUnit};
use crate::config::{AcceleratorConfig, EngineBackend, TraceLevel};
use crate::kernel;
use crate::operand::{DataView, WeightView};
use crate::systolic::SystolicArray;
use crate::timing::RoutingStep;
use crate::traffic::{MemoryKind, TrafficReport};

/// Cycle count of one executed layer (Fig. 16 rows).
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LayerRun {
    /// Layer name.
    pub name: &'static str,
    /// Systolic-array cycles consumed.
    pub array_cycles: u64,
    /// Activation-unit cycles consumed.
    pub activation_cycles: u64,
    /// Cycles stalled on the memory hierarchy (bank conflicts + exposed
    /// DRAM fills). Always zero under the `IdealMemory` configuration.
    pub memory_stall_cycles: u64,
}

impl LayerRun {
    /// Total cycles of this layer.
    pub fn cycles(&self) -> u64 {
        self.array_cycles + self.activation_cycles + self.memory_stall_cycles
    }
}

/// Result of a full cycle-accurate inference.
#[derive(Clone, PartialEq, Debug)]
pub struct InferenceRun {
    /// The full functional trace, directly comparable (`==`) with the
    /// reference model's trace.
    pub trace: QuantTrace,
    /// Per-layer cycle counts.
    pub layers: Vec<LayerRun>,
    /// Per-routing-step cycle counts (Fig. 17 rows).
    pub steps: Vec<(RoutingStep, u64)>,
    /// Traffic across all memories and buffers during this run.
    pub traffic: TrafficReport,
    /// Memory-hierarchy report for this run (stall decomposition,
    /// on-chip/off-chip split, per-SPM activity).
    pub memory: MemReport,
    /// Accumulator-unit saturation events during this run (zero in
    /// correct operation).
    pub accumulator_saturations: u64,
}

/// The CapsAcc accelerator: systolic array, accumulators, activation
/// units, buffers and the control sequencing of Sec. V.
///
/// # Example
///
/// ```
/// use capsacc_core::{Accelerator, AcceleratorConfig, ActivationKind};
/// use capsacc_tensor::Tensor;
///
/// let mut acc = Accelerator::new(AcceleratorConfig::test_4x4());
/// // A 3×5 by 5×2 quantized matmul, requantized with shift 6.
/// let a = Tensor::from_fn(&[3, 5], |i| (i[0] * 5 + i[1]) as i8);
/// let b = Tensor::from_fn(&[5, 2], |i| (i[0] + i[1]) as i8 * 8);
/// let out = acc.matmul(
///     &|m, k| a[[m, k]],
///     &|k, n| b[[k, n]],
///     3, 5, 2, None, 6, ActivationKind::Identity,
/// );
/// let (exact, _) = capsacc_tensor::qops::matmul_q8(&a, &b, 6);
/// assert_eq!(out, exact);
/// ```
#[derive(Debug)]
pub struct Accelerator {
    pub(crate) cfg: AcceleratorConfig,
    pub(crate) array: SystolicArray,
    pub(crate) activation: ActivationUnit,
    pub(crate) traffic: TrafficReport,
    pub(crate) memory: MemorySubsystem,
    pub(crate) activation_cycles: u64,
    pub(crate) memory_stall_cycles: u64,
    pub(crate) accumulator_saturations: u64,
    // Seeded transient-fault injection at the accumulator drain. Drain
    // ops are numbered in (n_tile, image, column, row) order: the
    // ticked drain walks that order, the functional drain computes
    // each element's number, so a given plan hits the identical ops
    // on both backends. With no engine faults in the plan the counter
    // never advances and no draw is taken.
    pub(crate) fault_plan: FaultPlan,
    pub(crate) fault_op_seq: u64,
    pub(crate) fault_flips: u64,
    pub(crate) fault_masked: u64,
    // Telemetry recorder — disabled by default, and when disabled every
    // instrumentation call below is an inert early-return (the
    // byte-invisibility invariant pinned by telemetry_equivalence.rs).
    pub(crate) rec: Recorder,
    // The functional backend's host buffers (data panel, staged
    // K-tiles, accumulator lanes), reused by every matmul of a layer
    // and dropped at layer boundaries. Host memory only: nothing
    // simulated reads or depends on it.
    pub(crate) staging: kernel::Staging,
}

/// Everything one matmul charges to the simulated machine. Cycles,
/// traffic and stalls never depend on operand values, so this is a
/// pure function of the [`MatmulGeometry`] and the configuration:
/// [`Accelerator::charge`] derives it in one place and the functional
/// backend applies it once per matmul. Each field is the
/// ticked schedule's total over the matmul's tiles (pinned by
/// `charge_equals_ticked_matmul_deltas`).
#[derive(Copy, Clone, PartialEq, Eq, Debug)]
pub(crate) struct MatmulCharge {
    /// The geometry charged.
    pub geometry: MatmulGeometry,
    /// `R + 1` weight-load edges plus `batch·M + R + C` stream edges
    /// per tile.
    pub array_cycles: u64,
    /// One `reduce_cycles(M)` drain per image per N-tile.
    pub activation_cycles: u64,
    /// Weight Buffer (`kt·nt` per tile), Data Buffer (`batch·M·kt` per
    /// tile) and, for off-chip weights, DRAM (every weight once) reads.
    pub traffic: TrafficReport,
    /// Memory-hierarchy stall cycles.
    pub stall: u64,
    /// The memory hierarchy's counter delta.
    pub mem: MemReport,
}

/// Reshapes a `[patches, out_ch]` matmul result into the `[out_ch, oh,
/// ow]` layout the next layer consumes: a plain transpose.
pub(crate) fn to_chw(mn: &Tensor<i8>, g: &capsacc_tensor::ConvGeometry) -> Tensor<i8> {
    let patches = g.out_h() * g.out_w();
    let mut chw = Tensor::zeros(&[g.out_ch, g.out_h(), g.out_w()]);
    let out = chw.data_mut();
    for (p, row) in mn.data().chunks_exact(g.out_ch).enumerate() {
        for (c, &v) in row.iter().enumerate() {
            out[c * patches + p] = v;
        }
    }
    chw
}

/// Everything the routing-by-agreement phase produces for one image —
/// the trace pieces plus the MAC count of the Sum/Update matmuls.
pub(crate) struct RoutingOutcome {
    pub(crate) iterations: Vec<RoutingIterationTrace>,
    pub(crate) couplings: Tensor<i8>,
    pub(crate) class_caps: Tensor<i8>,
    pub(crate) final_norms: Vec<u8>,
    pub(crate) predicted: usize,
    pub(crate) macs: u64,
}

impl Accelerator {
    /// Builds an accelerator instance.
    ///
    /// # Panics
    ///
    /// Panics if the configuration fails [`AcceleratorConfig::validate`].
    pub fn new(cfg: AcceleratorConfig) -> Self {
        cfg.validate().expect("invalid accelerator configuration");
        Self {
            array: SystolicArray::new(cfg.rows, cfg.cols),
            activation: ActivationUnit::new(QuantPipeline::new(cfg.numeric)),
            traffic: TrafficReport::default(),
            memory: MemorySubsystem::new(cfg.memory),
            activation_cycles: 0,
            memory_stall_cycles: 0,
            accumulator_saturations: 0,
            fault_plan: FaultPlan::none(),
            fault_op_seq: 0,
            fault_flips: 0,
            fault_masked: 0,
            rec: Recorder::disabled(),
            staging: kernel::Staging::default(),
            cfg,
        }
    }

    /// Arms seeded transient-fault injection at the accumulator drain:
    /// each drained partial sum consumes one op-sequence draw from
    /// `plan`, and a hit XORs one bit in `0..`[`AccumulatorUnit::BITS`]
    /// of the raw accumulator word before bias and activation. When
    /// `plan.engine.mask_with_saturation` is set, flipped values that
    /// escape the accumulator's legal ±2^24 range are clamped back to
    /// the boundary (the saturating-drain detector masking the upset)
    /// and counted in [`Accelerator::fault_masked`]. With no engine
    /// faults in the plan this is byte-invisible: no draw is consumed
    /// and every output is bit-identical to the unarmed engine.
    pub fn set_fault_plan(&mut self, plan: FaultPlan) {
        self.fault_plan = plan;
    }

    /// The armed fault plan ([`FaultPlan::none`] by default).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.fault_plan
    }

    /// Drain ops that consumed a fault draw so far.
    pub fn fault_ops(&self) -> u64 {
        self.fault_op_seq
    }

    /// Accumulator bit-flips injected so far.
    pub fn fault_flips(&self) -> u64 {
        self.fault_flips
    }

    /// Injected flips masked by the saturating clamp so far.
    pub fn fault_masked(&self) -> u64 {
        self.fault_masked
    }

    /// Applies the armed fault plan's draw for drain op `seq` to one
    /// drained accumulator word. `FaultPlan::acc_bitflip` is a
    /// stateless function of the sequence number, so callers may visit
    /// ops in any order; they advance `fault_op_seq` themselves, and
    /// only when the plan carries engine faults.
    fn acc_fault(&mut self, seq: u64, raw: i64) -> i64 {
        let Some(bit) = self.fault_plan.acc_bitflip(seq) else {
            return raw;
        };
        self.fault_flips += 1;
        self.rec.counter_add("engine.fault_flips", 1);
        let flipped = raw ^ (1i64 << bit);
        if !self.fault_plan.engine.mask_with_saturation {
            return flipped;
        }
        let lo = -(1i64 << (AccumulatorUnit::BITS - 1));
        let hi = (1i64 << (AccumulatorUnit::BITS - 1)) - 1;
        let clamped = flipped.clamp(lo, hi);
        if clamped != flipped {
            self.fault_masked += 1;
            self.rec.counter_add("engine.fault_masked", 1);
        }
        clamped
    }

    /// Turns telemetry recording on, replacing any existing recorder
    /// state. Recording observes the simulation only: outputs, cycle
    /// counts, traffic and memory reports are bit-identical with
    /// recording on, off, or at any [`SpanDetail`].
    pub fn enable_telemetry(&mut self, cfg: TelemetryConfig) {
        self.rec = Recorder::new(cfg);
    }

    /// The telemetry recorder (a disabled recorder by default).
    pub fn telemetry(&self) -> &Recorder {
        &self.rec
    }

    /// Mutable access to the telemetry recorder.
    pub fn telemetry_mut(&mut self) -> &mut Recorder {
        &mut self.rec
    }

    /// Takes the recorder out for export, leaving recording disabled.
    pub fn take_telemetry(&mut self) -> Recorder {
        std::mem::take(&mut self.rec)
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Systolic-array cycles executed so far.
    pub fn array_cycles(&self) -> u64 {
        self.array.cycles()
    }

    /// Activation-unit cycles accounted so far.
    pub fn activation_cycles(&self) -> u64 {
        self.activation_cycles
    }

    /// Traffic counters.
    pub fn traffic(&self) -> &TrafficReport {
        &self.traffic
    }

    /// Memory-hierarchy stall cycles accounted so far (zero under
    /// `IdealMemory`).
    pub fn memory_stall_cycles(&self) -> u64 {
        self.memory_stall_cycles
    }

    /// Cumulative memory-hierarchy counters.
    pub fn memory_report(&self) -> MemReport {
        self.memory.report()
    }

    /// Executes a tiled `M × K × N` matmul on the array: weights are
    /// loaded tile-by-tile into the resident registers, data rows stream
    /// against them, per-column accumulator FIFOs fold K-tiles, and the
    /// activation units reduce the finished 25-bit sums to 8 bits.
    ///
    /// `data(m, k)` and `weight(k, n)` supply the operands; each is
    /// called once per element, up front, to fill the dense buffers the
    /// engine then reads (see [`Accelerator::matmul_batch`]). `bias`,
    /// when present, is indexed by `n` and staged at the product
    /// fraction width.
    ///
    /// # Panics
    ///
    /// Panics if a bias slice shorter than `n` is supplied.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul(
        &mut self,
        data: &dyn Fn(usize, usize) -> i8,
        weight: &dyn Fn(usize, usize) -> i8,
        m: usize,
        k: usize,
        n: usize,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
    ) -> Tensor<i8> {
        let (mut outs, _) = self.matmul_batch(
            1,
            &|_img, mi, ki| data(mi, ki),
            weight,
            m,
            k,
            n,
            bias,
            shift,
            kind,
        );
        outs.pop().expect("batch of one")
    }

    /// Executes the same tiled matmul for a whole batch of data operands
    /// sharing one weight operand — the paper's "reuse weights" scenario
    /// (Fig. 12) generalized across inferences.
    ///
    /// Every weight tile is loaded into the resident registers **once**
    /// and all `batch` images' data rows stream back-to-back against it,
    /// so the Weight Buffer traffic and the per-tile load cycles are paid
    /// once per batch instead of once per image. `data(img, m, k)`
    /// supplies image `img`'s operands. Both closures are called once
    /// per element, up front, to copy the operands into dense row-major
    /// buffers; the matmul itself runs the same view-based path as the
    /// network layers.
    ///
    /// Returns one `[m, n]` output tensor per image plus the per-image
    /// accumulator-saturation counts (attribution is exact because each
    /// image keeps its own accumulator FIFOs, mirroring a sequential
    /// run). Per-row arithmetic is identical to [`Accelerator::matmul`],
    /// so outputs are bit-exact against `batch` independent calls.
    ///
    /// Like the single-image engine, this always executes the real
    /// design point — the second weight register exists, so tiles *are*
    /// resident. The `DataflowOptions::weight_reuse` ablation is
    /// modelled analytically only
    /// ([`crate::timing::batch_matmul_cycles`]).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero or a bias slice shorter than `n` is
    /// supplied.
    #[allow(clippy::too_many_arguments)]
    pub fn matmul_batch(
        &mut self,
        batch: usize,
        data: &dyn Fn(usize, usize, usize) -> i8,
        weight: &dyn Fn(usize, usize) -> i8,
        m: usize,
        k: usize,
        n: usize,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
    ) -> (Vec<Tensor<i8>>, Vec<u64>) {
        // Copy the closures' operands once into dense row-major buffers
        // and run the one view-based path both backends share.
        let plane = m * k;
        let dense: Vec<i8> = (0..batch * plane)
            .map(|i| data(i / plane, i % plane / k, i % k))
            .collect();
        let w: Vec<i8> = (0..k * n).map(|i| weight(i / n, i % n)).collect();
        let src: Vec<&[i8]> = (0..batch)
            .map(|img| &dense[img * plane..(img + 1) * plane])
            .collect();
        let rows: Vec<usize> = (0..m).map(|mi| mi * k).collect();
        let cols: Vec<usize> = (0..k).collect();
        self.matmul_batch_inner(
            DataView {
                src: &src,
                rows: &rows,
                cols: &cols,
            },
            WeightView {
                src: &w,
                ks: n,
                ns: 1,
            },
            n,
            bias,
            shift,
            kind,
            false,
        )
    }

    /// One tiled matmul through borrowed operand views: the one-group
    /// form of [`Accelerator::matmul_group`], whose output per image is
    /// then the plain `[M, n]` result.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matmul_batch_inner(
        &mut self,
        data: DataView<'_>,
        weight: WeightView<'_>,
        n: usize,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        weights_offchip: bool,
    ) -> (Vec<Tensor<i8>>, Vec<u64>) {
        self.matmul_group(data, 0, weight, 0, 1, n, bias, shift, kind, weights_offchip)
    }

    /// The shared tiled-matmul implementation: `groups` matmuls of one
    /// geometry, executed back to back, reading both operands through
    /// borrowed views ([`DataView`] supplies the batch size, `M` and
    /// `K`; `n` is the output width). Group `g` reads its data
    /// `g·data_step` elements further into each image's source than
    /// `data` does, and its weights `g·weight_step` further into
    /// `weight`'s source. Image `img`'s output is one `[groups·M, n]`
    /// tensor whose rows `g·M ..` are group `g`'s outputs; the
    /// per-image saturation counts sum over the groups.
    ///
    /// `weights_offchip` marks the weight operand as DRAM-resident (the
    /// network's parameter layers): its tiles then stream through the
    /// memory hierarchy's double-buffered prefetcher and are charged to
    /// the off-chip counters. On-chip operands (routing's `û`/`v_j`,
    /// and every weight through the public
    /// [`Accelerator::matmul_batch`]) touch only the scratchpads. The
    /// memory hierarchy never changes functional results and never
    /// touches the ticked array: its stalls accumulate separately in
    /// `memory_stall_cycles`, and are identically zero under
    /// `IdealMemory`.
    ///
    /// Every simulated effect — cycles, traffic, memory stalls, spans,
    /// fault draws — is that of `groups` consecutive single matmuls.
    /// The ticked backend runs exactly that; the functional backend
    /// applies the geometry's [`MatmulCharge`] `groups` times at once
    /// and evaluates the groups in one host pass
    /// ([`Accelerator::matmul_group_functional`]).
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty or a bias slice shorter than `n` is
    /// supplied.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn matmul_group(
        &mut self,
        data: DataView<'_>,
        data_step: usize,
        weight: WeightView<'_>,
        weight_step: usize,
        groups: usize,
        n: usize,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        weights_offchip: bool,
    ) -> (Vec<Tensor<i8>>, Vec<u64>) {
        let (batch, m, k) = (data.batch(), data.m(), data.k());
        assert!(batch > 0, "batch must be non-empty");
        if let Some(b) = bias {
            assert!(b.len() >= n, "bias shorter than output width");
        }
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        debug_assert!(
            rows * cols <= self.cfg.weight_buffer_bytes,
            "a {rows}x{cols} weight tile exceeds the {} B Weight Buffer",
            self.cfg.weight_buffer_bytes
        );
        let geometry = MatmulGeometry {
            m,
            k,
            n,
            batch,
            rows,
            cols,
            weights_offchip,
            // The ticked engine executes tiles serially; its windows
            // are the serial schedule regardless of the dataflow flag.
            schedule: TileSchedule::Serial,
        };
        let mut outs: Vec<Tensor<i8>> = (0..batch)
            .map(|_| Tensor::zeros(&[groups * m, n]))
            .collect();
        let mut saturations = vec![0u64; batch];
        if self.cfg.backend == EngineBackend::Functional {
            let charge = self.charge(&geometry);
            self.apply_charge(&charge, u64_from(groups));
            self.matmul_group_functional(
                data,
                data_step,
                weight,
                weight_step,
                groups,
                bias,
                shift,
                kind,
                &charge,
                &mut outs,
                &mut saturations,
            );
        } else {
            for g in 0..groups {
                let src: Vec<&[i8]> = data.src.iter().map(|s| &s[g * data_step..]).collect();
                self.matmul_ticked(
                    DataView { src: &src, ..data },
                    WeightView {
                        src: &weight.src[g * weight_step..],
                        ..weight
                    },
                    bias,
                    shift,
                    kind,
                    &geometry,
                    g * m,
                    &mut outs,
                    &mut saturations,
                );
            }
        }
        (outs, saturations)
    }

    /// What one matmul of geometry `g` charges to the simulated
    /// machine ([`MatmulCharge`]), derived here and nowhere else. The
    /// memory part is the subsystem's [`MemorySubsystem::price`], which
    /// remembers its replays; the rest is a few integer operations.
    pub(crate) fn charge(&mut self, g: &MatmulGeometry) -> MatmulCharge {
        let (n_tiles, k_tiles) = (g.n.div_ceil(g.cols), g.k.div_ceil(g.rows));
        let streamed = g.batch * g.m;
        // Per tile: `kt·nt` weights into the array and `batch·M·kt`
        // data bytes streamed; summed over the tile grid.
        let mut traffic = TrafficReport::default();
        traffic.read(MemoryKind::WeightBuffer, u64_from(g.k * g.n));
        traffic.read(MemoryKind::DataBuffer, u64_from(n_tiles * streamed * g.k));
        if g.weights_offchip {
            // Each weight crosses the off-chip channel once per batch.
            traffic.read(MemoryKind::Dram, u64_from(g.k * g.n));
        }
        let (stall, mem) = self.memory.price(g);
        MatmulCharge {
            geometry: *g,
            array_cycles: u64_from(n_tiles * k_tiles)
                * (self.array.load_edges() + self.array.stream_edges(streamed)),
            activation_cycles: u64_from(n_tiles * g.batch)
                * ActivationUnit::reduce_cycles(u64_from(g.m)),
            traffic,
            stall,
            mem,
        }
    }

    /// Applies `times` matmuls' worth of `c` to the simulated counters.
    /// Every counter is a plain sum, so this equals `times` separate
    /// applications.
    fn apply_charge(&mut self, c: &MatmulCharge, times: u64) {
        self.array.advance_cycles(c.array_cycles * times);
        self.activation_cycles += c.activation_cycles * times;
        self.traffic.merge(&c.traffic.scaled(times));
        self.memory_stall_cycles += c.stall * times;
        self.memory.charge(&c.mem.scaled(times));
    }

    /// Records one matmul of `c`'s geometry the way the ticked
    /// schedule records it: the memory counters, the stall span, every
    /// tile's load and stream spans and every N-tile's per-image drain
    /// spans, from the edge counts `c` sums — so both backends produce
    /// identical span trees. Nothing is walked with recording off.
    fn record_charge(&mut self, c: &MatmulCharge) {
        if !self.rec.is_enabled() {
            return;
        }
        MemorySubsystem::record_matmul(&c.mem, &mut self.rec);
        let g = &c.geometry;
        self.rec.begin(SpanDetail::Tiles, "mem-stall");
        self.rec.advance(CycleKind::MemStall, c.stall);
        self.rec.end(SpanDetail::Tiles);
        let (load, stream) = (
            self.array.load_edges(),
            self.array.stream_edges(g.batch * g.m),
        );
        let drain = ActivationUnit::reduce_cycles(u64_from(g.m));
        let mut tile_seq = 0u64;
        for _ in 0..g.n.div_ceil(g.cols) {
            for _ in 0..g.k.div_ceil(g.rows) {
                self.rec
                    .begin_arg(SpanDetail::Tiles, "tile", "seq", tile_seq);
                tile_seq += 1;
                self.rec.begin(SpanDetail::Tiles, "load");
                self.rec.advance(CycleKind::Array, load);
                self.rec.end(SpanDetail::Tiles);
                self.rec.begin(SpanDetail::Tiles, "stream");
                self.rec.advance(CycleKind::Array, stream);
                self.rec.end(SpanDetail::Tiles);
                self.rec.end(SpanDetail::Tiles); // tile
            }
            for img in 0..g.batch {
                self.rec
                    .begin_arg(SpanDetail::Tiles, "drain", "img", u64_from(img));
                self.rec.advance(CycleKind::Activation, drain);
                self.rec.end(SpanDetail::Tiles);
            }
        }
    }

    /// The `Ticked` backend's matmul: every weight tile is loaded into
    /// the array's resident registers and every data row streams
    /// through the PEs, edge by edge. Image `img`'s outputs land in
    /// rows `row0 ..` of `outs[img]`.
    #[allow(clippy::too_many_arguments)]
    fn matmul_ticked(
        &mut self,
        data: DataView<'_>,
        weight: WeightView<'_>,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        geometry: &MatmulGeometry,
        row0: usize,
        outs: &mut [Tensor<i8>],
        saturations: &mut [u64],
    ) {
        let (batch, m, k, n) = (data.batch(), data.m(), data.k(), geometry.n);
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        self.rec.begin(SpanDetail::Phases, "matmul");
        // The whole matmul's tile schedule through the memory hierarchy
        // — the same deterministic replay the closed-form model uses
        // (`timing::matmul_mem_stalls`), so engine and model agree
        // exactly by construction. The recorded variant is the same
        // replay plus stall-window metrics; stalls are charged as one
        // lump at matmul start (exactly where the engine accounts
        // them).
        let stall = if self.rec.is_enabled() {
            self.memory.matmul_recorded(geometry, &mut self.rec)
        } else {
            self.memory.matmul(geometry)
        };
        self.memory_stall_cycles += stall;
        self.rec.begin(SpanDetail::Tiles, "mem-stall");
        self.rec.advance(CycleKind::MemStall, stall);
        self.rec.end(SpanDetail::Tiles);
        if geometry.weights_offchip {
            // Each weight crosses the off-chip channel once per batch.
            self.traffic.read(MemoryKind::Dram, u64_from(k * n));
        }

        let mut tile_seq = 0u64;
        for n0 in (0..n).step_by(cols) {
            let nt = cols.min(n - n0);
            // One accumulator set per image: keeps K-tile folding — and
            // therefore saturation attribution — identical to a
            // sequential per-image run.
            let mut accs: Vec<Vec<AccumulatorUnit>> = (0..batch)
                .map(|_| (0..nt).map(|_| AccumulatorUnit::new(m.max(1))).collect())
                .collect();

            for (kt_idx, k0) in (0..k).step_by(rows).enumerate() {
                let kt = rows.min(k - k0);
                // Weight tile rows (zero-padded to the array width by the
                // array itself), loaded once for the whole batch.
                let tile: Vec<Vec<i8>> = (0..kt)
                    .map(|kr| (0..nt).map(|nc| weight.at(k0 + kr, n0 + nc)).collect())
                    .collect();
                let tile_refs: Vec<&[i8]> = tile.iter().map(|r| r.as_slice()).collect();
                self.rec
                    .begin_arg(SpanDetail::Tiles, "tile", "seq", tile_seq);
                tile_seq += 1;
                self.rec.begin(SpanDetail::Tiles, "load");
                let c0 = self.array.cycles();
                self.array.load_weights(&tile_refs);
                self.rec.advance(CycleKind::Array, self.array.cycles() - c0);
                self.rec.end(SpanDetail::Tiles);
                self.traffic
                    .read(MemoryKind::WeightBuffer, u64_from(kt * nt));

                // Stream every image's data rows for this K-slice
                // against the resident tile, image-major.
                let rows_data: Vec<Vec<i8>> = (0..batch * m)
                    .map(|ri| {
                        let (img, mi) = (ri / m.max(1), ri % m.max(1));
                        (0..kt).map(|ki| data.at(img, mi, k0 + ki)).collect()
                    })
                    .collect();
                self.traffic
                    .read(MemoryKind::DataBuffer, u64_from(batch * m * kt));
                self.rec.begin(SpanDetail::Tiles, "stream");
                let c0 = self.array.cycles();
                let psums = self.array.stream(&rows_data);
                self.rec.advance(CycleKind::Array, self.array.cycles() - c0);
                self.rec.end(SpanDetail::Tiles);
                self.rec.end(SpanDetail::Tiles); // tile

                for (ri, prow) in psums.iter().enumerate() {
                    for (c, acc) in accs[ri / m.max(1)].iter_mut().enumerate() {
                        if kt_idx == 0 {
                            acc.push_new(prow[c]);
                        } else {
                            acc.fold(prow[c]);
                        }
                    }
                }
            }

            // Drain through the activation units, image by image,
            // numbering fault draws in walk order.
            let faults = self.fault_plan.has_engine_faults();
            for (img, (image_accs, out)) in accs.iter_mut().zip(outs.iter_mut()).enumerate() {
                self.rec
                    .begin_arg(SpanDetail::Tiles, "drain", "img", u64_from(img));
                let out = &mut out.data_mut()[row0 * n..];
                for (c, acc) in image_accs.iter_mut().enumerate() {
                    let events = acc.saturation_events();
                    saturations[img] += events;
                    self.accumulator_saturations += events;
                    let b = bias.map_or(0i64, |b| i64::from(b[n0 + c]));
                    for (mi, raw) in acc.drain().into_iter().enumerate() {
                        let raw = if faults {
                            let seq = self.fault_op_seq;
                            self.fault_op_seq += 1;
                            self.acc_fault(seq, raw)
                        } else {
                            raw
                        };
                        out[mi * n + n0 + c] = self.activation.reduce(raw + b, shift, kind);
                    }
                }
                let drain_cycles = ActivationUnit::reduce_cycles(u64_from(m));
                self.activation_cycles += drain_cycles;
                self.rec.advance(CycleKind::Activation, drain_cycles);
                self.rec.end(SpanDetail::Tiles);
            }
        }
        self.rec.end(SpanDetail::Phases);
    }

    /// The `Functional` backend's evaluation of a matmul group: one
    /// host pass, bit-identical to the ticked schedule above at
    /// wall-clock speed — data-parallel across panel rows and
    /// explicitly SIMD inside them (the `kernel` module; host knobs in
    /// [`crate::FunctionalOptions`]). The caller has already applied
    /// the groups' [`MatmulCharge`]s.
    ///
    /// Exactness argument, piece by piece:
    ///
    /// - **In-tile fold.** The ticked array folds one tile column as
    ///   `psum' = saturate_25(psum + d·w)` through
    ///   [`Pe::mac_step`](crate::Pe::mac_step) in fixed north→south
    ///   order. Every running prefix is bounded by `kt · 128²`, so for
    ///   `kt ≤ 1023` no step can reach the ±2^24 clip and the
    ///   saturating fold *is* the exact dot product — order-free, so
    ///   the one kernel each tile shape gets (the row-blocked SIMD
    ///   sweep on full 16-lane N-tiles, the general scalar fold
    ///   elsewhere) is bit-identical to any other evaluation order.
    ///   Taller tiles (arrays over 1023 rows) take the literal per-step
    ///   `mac_step` fold (`kernel::RowKernel::MacSerial`). Zero
    ///   operands contribute +0 to an in-range psum, so the zero-data
    ///   skip of the scalar fold on multi-column tiles (one-column
    ///   tiles fold densely) cannot change either fold.
    /// - **K-tile accumulation.** [`AccumulatorUnit`] saturates each
    ///   fold (`sat(acc + tile_psum)`) and counts an event when the
    ///   clamp engages; the flat per-(image, row, column) accumulators
    ///   here apply the identical chain in the identical tile order
    ///   with identical event counting (starting from `acc = 0`, the
    ///   first fold's raw value is the tile psum itself — `push_new`
    ///   semantics, whose clamp provably never engages on an in-range
    ///   psum).
    /// - **Row partitioning.** Threads split the panel into contiguous
    ///   row chunks; every row's whole fold chain runs on one thread
    ///   in tile order, so the per-element fold order — and therefore
    ///   outputs, cycles, traffic, and clip attribution — is
    ///   byte-identical for any thread count. Clip events are counted
    ///   per row and summed per image in image order (a commutative
    ///   sum either way), group by group into each image's count, as
    ///   consecutive single matmuls would attribute them.
    /// - **The charge.** Cycles, traffic and memory stalls never depend
    ///   on operand values, so a matmul's [`MatmulCharge`] — per tile
    ///   exactly the edges the ticked serial schedule executes, `R + 1`
    ///   per weight load and `batch·M + R + C` per stream
    ///   (`SystolicArray::load_edges` / `stream_edges`), plus the
    ///   per-tile buffer reads, the per-image drains and the memory
    ///   replay — is derived in one place and applied once per
    ///   matmul: `array_cycles()` deltas, and everything built on
    ///   them, are equal, not merely equivalent. Counter totals are the
    ///   only observable, and they are pure sums. With recording on,
    ///   each matmul's span sequence is replayed from the charge
    ///   (`record_charge`).
    /// - **Data staging.** Both operands are staged straight from their
    ///   views into buffers the accelerator keeps across matmuls: each
    ///   group's data panel is gathered once as a flat row-major
    ///   `batch·M × K` matrix (the ticked path re-reads the view per
    ///   N-tile revisit), and each N-tile's K-tiles are packed directly
    ///   into the layout their kernel reads (`kernel::TileBuf`).
    /// - **Drain and fault draws.** The drain writes each (image, row)'s
    ///   `nt` outputs as one contiguous run, not in the ticked walk's
    ///   (image, column, row) order. Fault draws still line up: the
    ///   ticked walk gives the element at (image, column, row) of an
    ///   N-tile drain op `base + (image·nt + column)·rows + row`, with
    ///   `rows` the drained row count (`M`, or 0 when `K == 0`) and
    ///   `base` the op counter at the N-tile's start: for group `g`
    ///   and the N-tile at column `n0`, the counter at the call's start
    ///   plus `(g·N + n0)·batch·rows`, the draws of every earlier
    ///   group and N-tile. The functional drain computes that number
    ///   per element and advances the counter by `groups·batch·N·rows`
    ///   at the end; `FaultPlan::acc_bitflip` is a stateless function
    ///   of the number, so the draws are the ticked path's. Each
    ///   element's reduction is unchanged, so output order cannot
    ///   change any output.
    #[allow(clippy::too_many_arguments)]
    fn matmul_group_functional(
        &mut self,
        data: DataView<'_>,
        data_step: usize,
        weight: WeightView<'_>,
        weight_step: usize,
        groups: usize,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        charge: &MatmulCharge,
        outs: &mut [Tensor<i8>],
        saturations: &mut [u64],
    ) {
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let (m, k, n) = (data.m(), data.k(), charge.geometry.n);
        let total_rows = data.batch() * m;
        let opts = self.cfg.functional;
        let simd_ok = kernel::simd_enabled(opts);
        let tallest = rows.min(k);
        // With `k == 0` no K-tile ever ran, so like the ticked path's
        // empty accumulator FIFOs nothing is written (in particular,
        // no bias-only outputs), but each drain is still charged.
        let drained_rows = if k == 0 { 0 } else { m };
        let faults = self.fault_plan.has_engine_faults();
        let draws_per_matmul = u64_from(outs.len() * n * drained_rows);
        let reduce = ActivationUnit::reducer(shift, kind);
        // Borrow the reusable buffers for the whole group (fault draws
        // below need `self` mutably alongside them).
        let mut st = std::mem::take(&mut self.staging);
        st.bias.clear();
        st.bias
            .extend((0..n).map(|c| bias.map_or(0, |b| i64::from(b[c]))));
        for g in 0..groups {
            self.rec.begin(SpanDetail::Phases, "matmul");
            // Host wall-clock annotation: the stopwatches read the host
            // clock only when host timing was requested, and only into
            // span args — never into any simulated quantity. Staging
            // time covers the matmul's accounting (recording its
            // charge) and its weight packing.
            let watch = self.rec.host_stopwatch();
            self.record_charge(charge);
            let (mut stage_ns, mut sweep_ns) = (watch.elapsed_ns(), 0u64);
            let weight = WeightView {
                src: &weight.src[g * weight_step..],
                ..weight
            };
            // Gather this matmul's whole data panel once, row-major:
            // tile slices below are plain subslices.
            st.gather(&data, g * data_step);
            let group_base = self.fault_op_seq + u64_from(g) * draws_per_matmul;

            for n0 in (0..n).step_by(cols) {
                let nt = cols.min(n - n0);
                st.acc.clear();
                st.acc.resize(total_rows * nt, 0);
                st.events.clear();
                st.events.resize(total_rows, 0);

                let watch = self.rec.host_stopwatch();
                st.tiles.begin(nt);
                for k0 in (0..k).step_by(rows) {
                    let kt = rows.min(k - k0);
                    let kernel = kernel::select_kernel(kt, nt, tallest, simd_ok);
                    st.tiles.stage(&weight, k0, kt, n0, kernel);
                }
                stage_ns += watch.elapsed_ns();
                st.widen_panel_for_tiles();

                // The row sweep: serial, or partitioned into contiguous
                // row chunks across scoped OS threads (the `pool.rs`
                // pattern). Rows are independent and each row's whole
                // fold chain runs on one thread in tile order, so any
                // partition is byte-identical to the serial sweep.
                let watch = self.rec.host_stopwatch();
                let threads = kernel::effective_threads(opts.threads, total_rows, k, nt);
                let (tiles, panel, wide) =
                    (&st.tiles, st.panel.as_slice(), st.panel_wide.as_slice());
                if threads <= 1 {
                    kernel::process_rows(
                        k,
                        tiles,
                        panel,
                        wide,
                        0,
                        total_rows,
                        &mut st.acc,
                        &mut st.events,
                        &mut st.lanes,
                    );
                } else {
                    let rows_per = total_rows.div_ceil(threads);
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = st
                            .acc
                            .chunks_mut(rows_per * nt)
                            .zip(st.events.chunks_mut(rows_per))
                            .enumerate()
                            .map(|(ci, (acc_chunk, ev_chunk))| {
                                scope.spawn(move || {
                                    kernel::process_rows(
                                        k,
                                        tiles,
                                        panel,
                                        wide,
                                        ci * rows_per,
                                        ev_chunk.len(),
                                        acc_chunk,
                                        ev_chunk,
                                        &mut kernel::Lanes::default(),
                                    );
                                })
                            })
                            .collect();
                        for h in handles {
                            h.join().expect("functional row worker panicked");
                        }
                    });
                }
                sweep_ns += watch.elapsed_ns();

                // Drain through the activation units: each row's `nt`
                // outputs as one contiguous run into the group's rows,
                // every fault draw numbered as the ticked walk numbers
                // it (see the exactness notes above).
                let base = group_base + u64_from(outs.len() * n0 * drained_rows);
                for (img, out) in outs.iter_mut().enumerate() {
                    let events: u64 = st.events[img * m..img * m + m].iter().sum();
                    saturations[img] += events;
                    self.accumulator_saturations += events;
                    let accs = st.acc[img * m * nt..][..drained_rows * nt].chunks_exact(nt);
                    let rows = out.data_mut()[g * m * n..].chunks_exact_mut(n).zip(accs);
                    for (mi, (row_out, row_acc)) in rows.enumerate() {
                        let elems = row_out[n0..n0 + nt]
                            .iter_mut()
                            .zip(row_acc)
                            .zip(&st.bias[n0..n0 + nt]);
                        for (c, ((o, &raw), &b)) in elems.enumerate() {
                            let raw = if faults {
                                let seq = base + u64_from((img * nt + c) * drained_rows + mi);
                                self.acc_fault(seq, raw)
                            } else {
                                raw
                            };
                            *o = reduce(raw + b);
                        }
                    }
                }
            }
            // At `Layers` detail no matmul span is open, so the host
            // annotations would pile up on the layer span — skip them.
            if self.rec.host_timing() && self.rec.detail() >= SpanDetail::Phases {
                self.rec.annotate("host_stage_ns", stage_ns);
                self.rec.annotate("host_sweep_ns", sweep_ns);
            }
            self.rec.end(SpanDetail::Phases);
        }
        if faults {
            self.fault_op_seq += u64_from(groups) * draws_per_matmul;
        }
        self.staging = st;
    }

    /// Squashes every primary capsule of one image through the
    /// activation units, charging the Sec. IV-C cycle cost.
    pub(crate) fn squash_primary(
        &mut self,
        net: &CapsNetConfig,
        pc_out: &Tensor<i8>,
    ) -> Tensor<i8> {
        self.rec.begin(SpanDetail::Phases, "squash");
        let raw_caps = primary_capsules(pc_out, net.pc_channels, net.pc_caps_dim);
        let dim = net.pc_caps_dim;
        let mut capsules: Tensor<i8> = Tensor::zeros(raw_caps.shape());
        for (dst, src) in capsules
            .data_mut()
            .chunks_mut(dim)
            .zip(raw_caps.data().chunks(dim))
        {
            let (v, _) = self.activation.squash(src);
            dst.copy_from_slice(&v);
        }
        let caps_count = u64_from(net.num_primary_caps());
        let au = u64_from(self.cfg.activation_units);
        let cycles = caps_count.div_ceil(au) * ActivationUnit::squash_cycles(u64_from(dim));
        self.activation_cycles += cycles;
        self.rec.advance(CycleKind::Activation, cycles);
        self.rec.end(SpanDetail::Phases);
        capsules
    }

    /// Runs the routing-by-agreement phase for one image's predictions,
    /// appending the per-step cycle counts to `steps`. Shared verbatim by
    /// [`Accelerator::run_inference`] and the batched path, which is what
    /// keeps the two bit-identical.
    pub(crate) fn route_class_caps(
        &mut self,
        net: &CapsNetConfig,
        u_hat: &Tensor<i8>,
        steps: &mut Vec<(RoutingStep, u64)>,
    ) -> RoutingOutcome {
        let ncfg = self.cfg.numeric;
        let (in_caps, classes, out_dim) =
            (net.num_primary_caps(), net.num_classes, net.class_caps_dim);
        let u_hat_bytes = u64_from(in_caps * classes * out_dim);
        let mut macs = 0u64;
        let variant = if self.cfg.dataflow.skip_first_softmax {
            RoutingVariant::SkipFirstSoftmax
        } else {
            RoutingVariant::Original
        };
        let mut logits: Tensor<i8> = Tensor::zeros(&[in_caps, classes]);
        let mut couplings: Tensor<i8> = Tensor::zeros(&[in_caps, classes]);
        let mut class_caps: Tensor<i8> = Tensor::zeros(&[classes, out_dim]);
        let mut s_norms = vec![0u8; classes];
        // Snapshot capture is observation only: under
        // `TraceLevel::Outputs` the four per-iteration tensor clones are
        // skipped entirely and `iterations` stays empty, with final
        // outputs, cycles and traffic untouched (pinned by
        // `untraced_run_matches_traced_outputs`).
        let tracing = self.cfg.trace_level == TraceLevel::Full;
        let mut iterations = Vec::with_capacity(if tracing { net.routing_iterations } else { 0 });
        let coupling_bytes = u64_from(in_caps * classes);
        // Operand tables of the per-class Sum and Update matmuls (see
        // the views below): `û` is `[in_caps][classes][out_dim]`, the
        // couplings `[in_caps][classes]`.
        let caps_stride: Vec<usize> = (0..in_caps).map(|i| i * classes).collect();
        let u_rows: Vec<usize> = (0..in_caps).map(|i| i * classes * out_dim).collect();
        let dims: Vec<usize> = (0..out_dim).collect();
        let u_data = u_hat.data();

        for r in 0..net.routing_iterations {
            // Softmax (or the direct initialization on iteration 1).
            if r == 0 && variant == RoutingVariant::SkipFirstSoftmax {
                couplings
                    .data_mut()
                    .fill(self.activation.pipeline().uniform_coupling(classes));
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                // These initialization-transfer cycles exist only in
                // the step table (no engine counter moves), so the
                // recorder charges them as `Io`.
                let cycles = coupling_bytes.div_ceil(self.cfg.routing_buf_bw);
                self.rec
                    .begin_arg(SpanDetail::Phases, "softmax", "i", u64_from(r + 1));
                self.rec.advance(CycleKind::Io, cycles);
                self.rec.end(SpanDetail::Phases);
                steps.push((RoutingStep::Softmax(r + 1), cycles));
            } else {
                for i in 0..in_caps {
                    let row = &logits.data()[i * classes..(i + 1) * classes];
                    let sm = self.activation.softmax(row);
                    couplings.data_mut()[i * classes..(i + 1) * classes].copy_from_slice(&sm);
                }
                self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                let cycles = u64_from(in_caps).div_ceil(u64_from(self.cfg.activation_units))
                    * ActivationUnit::softmax_cycles(u64_from(classes));
                self.activation_cycles += cycles;
                self.rec
                    .begin_arg(SpanDetail::Phases, "softmax", "i", u64_from(r + 1));
                self.rec.advance(CycleKind::Activation, cycles);
                self.rec.end(SpanDetail::Phases);
                steps.push((RoutingStep::Softmax(r + 1), cycles));
            }

            // Weighted sums s_j (Fig. 12b on the first iteration, 12d —
            // feedback reuse — afterwards). The step's cycle count is
            // the array delta only: the matmuls' activation-drain
            // charges are excluded from ClassCaps accounting, so the
            // recorder masks them to keep the span summing to the step
            // (their memory stalls *do* land in the layer's stall
            // delta, so `MemStall` stays live).
            self.rec
                .begin_arg(SpanDetail::Phases, "sum", "i", u64_from(r + 1));
            self.rec.suppress(CycleKind::Activation);
            let c0 = self.array.cycles();
            if r == 0 || !self.cfg.dataflow.routing_feedback {
                // û read from the Data Buffer (or re-read from memory
                // when the feedback ablation is off).
                if r > 0 {
                    self.traffic.read(MemoryKind::DataMemory, u_hat_bytes);
                }
                self.traffic.read(MemoryKind::DataBuffer, u_hat_bytes);
            }
            self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
            let mut s_t: Tensor<i8> = Tensor::zeros(&[classes, out_dim]);
            let c_data = couplings.data();
            for j in 0..classes {
                // s_j = Σ_i c_ij · û_j|i: one data row (the couplings'
                // column j) against the `in_caps × out_dim` slice of û
                // for class j.
                let (s_row, _) = self.matmul_batch_inner(
                    DataView {
                        src: &[&c_data[j..]],
                        rows: &[0],
                        cols: &caps_stride,
                    },
                    WeightView {
                        src: &u_data[j * out_dim..],
                        ks: classes * out_dim,
                        ns: 1,
                    },
                    out_dim,
                    None,
                    ncfg.coupling_mac_shift(),
                    ActivationKind::Identity,
                    false,
                );
                s_t.data_mut()[j * out_dim..(j + 1) * out_dim].copy_from_slice(s_row[0].data());
            }
            macs += u64_from(classes * out_dim * in_caps);
            self.rec.unsuppress(CycleKind::Activation);
            self.rec.end(SpanDetail::Phases);
            steps.push((RoutingStep::Sum(r + 1), self.array.cycles() - c0));

            // Squash through the activation units.
            self.rec
                .begin_arg(SpanDetail::Phases, "squash", "i", u64_from(r + 1));
            for (j, s_norm) in s_norms.iter_mut().enumerate() {
                let (v, norm) = self
                    .activation
                    .squash(&s_t.data()[j * out_dim..(j + 1) * out_dim]);
                class_caps.data_mut()[j * out_dim..(j + 1) * out_dim].copy_from_slice(&v);
                *s_norm = norm;
            }
            let squash_cycles = u64_from(classes).div_ceil(u64_from(self.cfg.activation_units))
                * ActivationUnit::squash_cycles(u64_from(out_dim));
            self.activation_cycles += squash_cycles;
            self.rec.advance(CycleKind::Activation, squash_cycles);
            self.rec.end(SpanDetail::Phases);
            self.traffic
                .write(MemoryKind::RoutingBuffer, u64_from(classes * out_dim));
            steps.push((RoutingStep::Squash(r + 1), squash_cycles));

            // Logit update (Fig. 12c: û reused via the feedback path).
            let logits_after_update = if r + 1 < net.routing_iterations {
                // Array-delta step like Sum: same activation mask.
                self.rec
                    .begin_arg(SpanDetail::Phases, "update", "i", u64_from(r + 1));
                self.rec.suppress(CycleKind::Activation);
                let c0 = self.array.cycles();
                if !self.cfg.dataflow.routing_feedback {
                    self.traffic.read(MemoryKind::DataMemory, u_hat_bytes);
                }
                self.traffic
                    .read(MemoryKind::RoutingBuffer, u64_from(classes * out_dim));
                let v_data = class_caps.data();
                for j in 0..classes {
                    // b_ij += û_j|i · v_j: the class-j rows of û against
                    // v_j broadcast as a one-column weight.
                    let (deltas, _) = self.matmul_batch_inner(
                        DataView {
                            src: &[&u_data[j * out_dim..]],
                            rows: &u_rows,
                            cols: &dims,
                        },
                        WeightView {
                            src: &v_data[j * out_dim..],
                            ks: 1,
                            ns: 0,
                        },
                        1,
                        None,
                        ncfg.update_shift(),
                        ActivationKind::Identity,
                        false,
                    );
                    for (i, &d) in deltas[0].data().iter().enumerate() {
                        let cur = logits.data()[i * classes + j];
                        logits.data_mut()[i * classes + j] = cur.saturating_add(d);
                    }
                }
                macs += u64_from(classes * in_caps * out_dim);
                self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                self.rec.unsuppress(CycleKind::Activation);
                self.rec.end(SpanDetail::Phases);
                steps.push((RoutingStep::Update(r + 1), self.array.cycles() - c0));
                tracing.then(|| logits.clone())
            } else {
                None
            };

            if tracing {
                iterations.push(RoutingIterationTrace {
                    couplings: couplings.clone(),
                    s: s_t,
                    v: class_caps.clone(),
                    norms: s_norms.clone(),
                    logits_after_update,
                });
            }
        }

        // Final classification: norm unit over the squashed capsules.
        let final_norms: Vec<u8> = (0..classes)
            .map(|j| {
                self.activation
                    .norm(&class_caps.data()[j * out_dim..(j + 1) * out_dim])
            })
            .collect();
        // This norm charge appears in neither the step table nor any
        // LayerRun total (ClassCaps reports activation_cycles: 0), so
        // the recorder deliberately does not advance for it.
        self.activation_cycles += u64_from(classes).div_ceil(u64_from(self.cfg.activation_units))
            * ActivationUnit::norm_cycles(u64_from(out_dim));
        let predicted = final_norms
            .iter()
            .enumerate()
            .max_by_key(|&(i, &nn)| (nn, std::cmp::Reverse(i)))
            .map(|(i, _)| i)
            .expect("at least one class");

        RoutingOutcome {
            iterations,
            couplings,
            class_caps,
            final_norms,
            predicted,
            macs,
        }
    }

    /// Runs a complete CapsuleNet inference cycle-accurately.
    ///
    /// The returned [`InferenceRun::trace`] is bit-exact against
    /// [`capsacc_capsnet::infer_q8_traced`] with the same parameters,
    /// pipeline and routing variant (derived from
    /// `dataflow.skip_first_softmax`).
    ///
    /// Implemented as [`Accelerator::run_batch`] with a batch of one —
    /// there is a single layer-orchestration code path, so the
    /// sequential and batched engines cannot drift apart.
    ///
    /// # Panics
    ///
    /// Panics if `image` is not `[1, input_side, input_side]` (the
    /// batched entry point [`Accelerator::run_batch`] reports the same
    /// condition as a [`crate::BatchError`] instead).
    pub fn run_inference(
        &mut self,
        net: &CapsNetConfig,
        qparams: &QuantizedParams,
        image: &Tensor<f32>,
    ) -> InferenceRun {
        let mut run = self
            .run_batch(net, qparams, std::slice::from_ref(image))
            .unwrap_or_else(|e| panic!("run_inference: {e}"));
        InferenceRun {
            trace: run.traces.pop().expect("batch of one"),
            layers: run.layers,
            steps: run.steps,
            traffic: run.traffic,
            memory: run.memory,
            accumulator_saturations: run.accumulator_saturations,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::timing::{batch_matmul_cycles, matmul_cycles, MatmulShape};
    use capsacc_capsnet::{infer_q8_traced, CapsNetParams};
    use capsacc_memory::MemoryConfig;
    use capsacc_tensor::qops;
    use proptest::prelude::*;

    fn test_acc() -> Accelerator {
        Accelerator::new(AcceleratorConfig::test_4x4())
    }

    #[test]
    fn matmul_bit_exact_vs_reference() {
        let mut acc = test_acc();
        let a = Tensor::from_fn(&[5, 9], |i| ((i[0] * 9 + i[1]) as i8).wrapping_mul(7));
        let b = Tensor::from_fn(&[9, 6], |i| ((i[0] * 6 + i[1]) as i8).wrapping_sub(50));
        let out = acc.matmul(
            &|m, k| a[[m, k]],
            &|k, n| b[[k, n]],
            5,
            9,
            6,
            None,
            6,
            ActivationKind::Identity,
        );
        let (exact, stats) = qops::matmul_q8(&a, &b, 6);
        assert_eq!(stats.saturations, 0);
        assert_eq!(out, exact);
    }

    #[test]
    fn matmul_with_bias_and_relu() {
        let mut acc = test_acc();
        let a = Tensor::from_vec(&[1, 2], vec![32i8, 32]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![-64i8, 64, -64, 64]).unwrap();
        let bias = vec![1024i32, -4096];
        let out = acc.matmul(
            &|m, k| a[[m, k]],
            &|k, n| b[[k, n]],
            1,
            2,
            2,
            Some(&bias),
            6,
            ActivationKind::Relu,
        );
        // col 0: 2·(1.0·-1.0) + 0.5 = -1.5 → ReLU → 0.
        // col 1: 2·(1.0·1.0) − 2.0 = 0 → 0.
        assert_eq!(out.data(), &[0, 0]);
        let out = acc.matmul(
            &|m, k| a[[m, k]],
            &|k, n| b[[k, n]],
            1,
            2,
            2,
            Some(&bias),
            6,
            ActivationKind::Identity,
        );
        assert_eq!(out.data(), &[-48, 0]);
    }

    #[test]
    fn matmul_cycles_match_serial_formula() {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.dataflow.pipelined_tiles = false;
        for (m, k, n) in [(1, 4, 4), (3, 9, 6), (7, 2, 10), (5, 17, 3)] {
            let mut acc = Accelerator::new(cfg);
            let before = acc.array_cycles();
            acc.matmul(
                &|_, _| 1,
                &|_, _| 1,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let got = acc.array_cycles() - before;
            let expect = matmul_cycles(
                MatmulShape {
                    m: m as u64,
                    k: k as u64,
                    n: n as u64,
                },
                &cfg,
            );
            assert_eq!(got, expect, "cycles for ({m},{k},{n})");
        }
    }

    #[test]
    fn weight_traffic_counts_each_weight_once() {
        let mut acc = test_acc();
        acc.matmul(
            &|_, _| 1,
            &|_, _| 1,
            5,
            8,
            8,
            None,
            6,
            ActivationKind::Identity,
        );
        assert_eq!(
            acc.traffic().counter(MemoryKind::WeightBuffer).read_bytes,
            64
        );
        // Data re-streamed once per (K,N) tile pair: 2 N-tiles × 2 K-tiles
        // × 5 rows × 4 elements.
        assert_eq!(
            acc.traffic().counter(MemoryKind::DataBuffer).read_bytes,
            2 * 2 * 5 * 4
        );
    }

    #[test]
    fn full_inference_trace_is_bit_exact_vs_reference() {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let params = CapsNetParams::generate(&net, 11);
        let qparams = params.quantize(cfg.numeric);
        let pipeline = QuantPipeline::new(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| {
            (((i[1] * 5 + i[2] * 3) % 13) as f32 / 13.0).min(1.0)
        });

        let reference = infer_q8_traced(
            &net,
            &qparams,
            &pipeline,
            &image,
            RoutingVariant::SkipFirstSoftmax,
        );
        let mut acc = Accelerator::new(cfg);
        let run = acc.run_inference(&net, &qparams, &image);

        assert_eq!(run.accumulator_saturations, 0);
        assert_eq!(run.trace.input_q, reference.input_q);
        assert_eq!(run.trace.conv1_out, reference.conv1_out);
        assert_eq!(run.trace.pc_out, reference.pc_out);
        assert_eq!(run.trace.capsules, reference.capsules);
        assert_eq!(run.trace.u_hat, reference.u_hat);
        assert_eq!(run.trace.iterations, reference.iterations);
        assert_eq!(run.trace.output.class_norms, reference.output.class_norms);
        assert_eq!(run.trace.output.predicted, reference.output.predicted);
        assert_eq!(run.trace.output.class_caps, reference.output.class_caps);
        assert_eq!(run.trace.output.couplings, reference.output.couplings);
        assert_eq!(run.trace.output.stats.macs, reference.output.stats.macs);
    }

    #[test]
    fn original_variant_also_bit_exact() {
        let net = CapsNetConfig::tiny();
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.dataflow.skip_first_softmax = false;
        let qparams = CapsNetParams::generate(&net, 12).quantize(cfg.numeric);
        let pipeline = QuantPipeline::new(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] as f32 - i[2] as f32).abs() / 12.0);

        let reference =
            infer_q8_traced(&net, &qparams, &pipeline, &image, RoutingVariant::Original);
        let mut acc = Accelerator::new(cfg);
        let run = acc.run_inference(&net, &qparams, &image);
        assert_eq!(run.trace, reference);
    }

    #[test]
    fn step_sequence_matches_fig17() {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 13).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
        let mut acc = Accelerator::new(cfg);
        let run = acc.run_inference(&net, &qparams, &image);
        let names: Vec<String> = run.steps.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "Load", "FC", "Softmax1", "Sum1", "Squash1", "Update1", "Softmax2", "Sum2",
                "Squash2", "Update2", "Softmax3", "Sum3", "Squash3",
            ]
        );
        assert_eq!(run.layers.len(), 3);
        assert!(run.layers.iter().all(|l| l.cycles() > 0));
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(12))]

        /// Extreme-but-valid shapes after the checked-cast audit
        /// (deep-K reductions hundreds of tiles long, wider than any
        /// layer in the paper's network): the closed-form model and the
        /// ticked engine must still agree cycle-exactly on serial
        /// tiles — the conversion to checked/`try_from` arithmetic
        /// changed no in-range value.
        #[test]
        fn extreme_shapes_model_and_engine_agree(
            m in 1usize..4,
            k in 1024usize..3072,
            n in 1usize..10,
            batch in 1usize..3,
        ) {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.dataflow.pipelined_tiles = false;
            let mut acc = Accelerator::new(cfg);
            let before = acc.array_cycles();
            acc.matmul_batch(
                batch,
                &|img, mi, ki| ((img + mi + ki) % 5) as i8,
                &|ki, ni| ((ki ^ ni) % 7) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let got = acc.array_cycles() - before;
            let expect = batch_matmul_cycles(
                MatmulShape { m: m as u64, k: k as u64, n: n as u64 },
                batch as u64,
                &cfg,
            );
            prop_assert_eq!(got, expect, "engine/model divergence at m={} k={} n={} b={}", m, k, n, batch);
        }
    }

    #[test]
    fn functional_backend_is_bit_identical_including_accounting() {
        // Same inference, both backends: not just the functional trace —
        // the *entire* InferenceRun (layer cycles, step cycles, traffic
        // counters, memory report, saturations) must be equal.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 11).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * 3 + i[2]) % 9) as f32 / 9.0);
        let mut ticked = Accelerator::new(cfg);
        let want = ticked.run_inference(&net, &qparams, &image);
        let mut fast_cfg = cfg;
        fast_cfg.backend = crate::EngineBackend::Functional;
        let mut functional = Accelerator::new(fast_cfg);
        let got = functional.run_inference(&net, &qparams, &image);
        assert_eq!(got, want);
        assert_eq!(functional.array_cycles(), ticked.array_cycles());
    }

    #[test]
    fn functional_matmul_charges_ticked_cycles() {
        // Tile-by-tile cycle charging equals the ticked serial schedule
        // (and therefore the closed-form serial formula) on shapes with
        // ragged tiles.
        for (m, k, n) in [(1, 4, 4), (3, 9, 6), (7, 2, 10), (5, 17, 3)] {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.backend = crate::EngineBackend::Functional;
            let mut acc = Accelerator::new(cfg);
            let out_fun = acc.matmul(
                &|mi, ki| ((mi * 5 + ki) % 17) as i8,
                &|ki, ni| ((ki * 3 + ni) % 13) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let mut reference = Accelerator::new(AcceleratorConfig::test_4x4());
            let out_ref = reference.matmul(
                &|mi, ki| ((mi * 5 + ki) % 17) as i8,
                &|ki, ni| ((ki * 3 + ni) % 13) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            assert_eq!(
                acc.array_cycles(),
                reference.array_cycles(),
                "({m},{k},{n})"
            );
            assert_eq!(out_fun, out_ref, "({m},{k},{n})");
        }
    }

    /// The derived charge of every layer geometry equals what a ticked
    /// matmul of that geometry moves: array and activation cycles,
    /// every traffic counter, the memory stall and the `MemReport`.
    /// The geometries are Conv1, PrimaryCaps, the FC and routing's Sum
    /// and Update of two networks: the 16-lane-aligned mini CapsNet of
    /// `tests/lane_kernels.rs` on the paper array, and
    /// `CapsNetConfig::tiny()` on the 4×4 test array, where the FC
    /// spans two K-tiles. Each runs at batch 1 and 3, under the paper
    /// memory hierarchy and under ideal memory.
    #[test]
    fn charge_equals_ticked_matmul_deltas() {
        let aligned = CapsNetConfig {
            input_side: 12,
            conv1_channels: 16,
            conv1_kernel: 3,
            conv1_stride: 1,
            pc_channels: 2,
            pc_caps_dim: 8,
            pc_kernel: 3,
            pc_stride: 2,
            num_classes: 2,
            class_caps_dim: 16,
            routing_iterations: 3,
        };
        let nets = [
            (aligned, AcceleratorConfig::paper()),
            (CapsNetConfig::tiny(), AcceleratorConfig::test_4x4()),
        ];
        for (net, base) in nets {
            let (g1, gp) = (net.conv1_geometry(), net.primary_caps_geometry());
            let (in_caps, out_dim) = (net.num_primary_caps(), net.class_caps_dim);
            // (m, k, n, weights off chip)
            let shapes = [
                (g1.out_h() * g1.out_w(), g1.patch_len(), g1.out_ch, true),
                (gp.out_h() * gp.out_w(), gp.patch_len(), gp.out_ch, true),
                (1, net.pc_caps_dim, net.num_classes * out_dim, true),
                (1, in_caps, out_dim, false),
                (in_caps, out_dim, 1, false),
            ];
            for memory in [MemoryConfig::paper(), MemoryConfig::ideal()] {
                let cfg = AcceleratorConfig { memory, ..base };
                for (m, k, n, offchip) in shapes {
                    for batch in [1, 3] {
                        let data: Vec<i8> = (0..batch * m * k).map(|i| (i % 7) as i8 - 3).collect();
                        let w: Vec<i8> = (0..k * n).map(|i| (i % 5) as i8 - 2).collect();
                        let src: Vec<&[i8]> = data.chunks(m * k).collect();
                        let rows: Vec<usize> = (0..m).map(|mi| mi * k).collect();
                        let cols: Vec<usize> = (0..k).collect();
                        let mut ticked = Accelerator::new(cfg);
                        ticked.matmul_batch_inner(
                            DataView {
                                src: &src,
                                rows: &rows,
                                cols: &cols,
                            },
                            WeightView {
                                src: &w,
                                ks: n,
                                ns: 1,
                            },
                            n,
                            None,
                            6,
                            ActivationKind::Identity,
                            offchip,
                        );
                        let geometry = MatmulGeometry {
                            m,
                            k,
                            n,
                            batch,
                            rows: cfg.rows,
                            cols: cfg.cols,
                            weights_offchip: offchip,
                            schedule: TileSchedule::Serial,
                        };
                        let want = MatmulCharge {
                            geometry,
                            array_cycles: ticked.array_cycles(),
                            activation_cycles: ticked.activation_cycles(),
                            traffic: *ticked.traffic(),
                            stall: ticked.memory_stall_cycles(),
                            mem: ticked.memory_report(),
                        };
                        // Pricing charges nothing.
                        let mut fresh = Accelerator::new(cfg);
                        let derived = fresh.charge(&geometry);
                        let at = format!("({m},{k},{n}) batch {batch}, {:?}", memory.mode);
                        assert_eq!(derived, want, "{at}");
                        assert_eq!(fresh.array_cycles(), 0, "{at}");
                        assert_eq!(fresh.memory_report(), MemReport::default(), "{at}");
                    }
                }
            }
        }
    }

    #[test]
    fn degenerate_zero_k_matmul_matches_ticked() {
        // k == 0 means no K-tile ever runs: the ticked path's FIFOs
        // drain empty, so outputs stay zero even with a bias. The
        // functional drain must mirror that, not write bias-only rows,
        // and, with no element to reduce, must not reject the vector
        // kinds either.
        let bias = vec![1024i32; 4];
        let run = |backend, kind| {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.backend = backend;
            let mut acc = Accelerator::new(cfg);
            let out = acc.matmul(&|_, _| 7, &|_, _| 7, 3, 0, 4, Some(&bias), 6, kind);
            (out, acc.array_cycles(), acc.activation_cycles())
        };
        for kind in [
            ActivationKind::Identity,
            ActivationKind::Relu,
            ActivationKind::Squash,
            ActivationKind::Softmax,
        ] {
            let ticked = run(crate::EngineBackend::Ticked, kind);
            let functional = run(crate::EngineBackend::Functional, kind);
            assert_eq!(functional, ticked, "{kind:?}");
            assert!(ticked.0.data().iter().all(|&v| v == 0), "{kind:?}");
        }
    }

    #[test]
    fn untraced_run_matches_traced_outputs() {
        // TraceLevel::Outputs skips the per-iteration snapshot clones:
        // everything except `trace.iterations` must be identical.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 23).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] + 2 * i[2]) % 7) as f32 / 7.0);
        let mut traced = Accelerator::new(cfg);
        let full = traced.run_inference(&net, &qparams, &image);
        let mut light_cfg = cfg;
        light_cfg.trace_level = crate::TraceLevel::Outputs;
        let mut untraced = Accelerator::new(light_cfg);
        let light = untraced.run_inference(&net, &qparams, &image);
        assert_eq!(full.trace.iterations.len(), net.routing_iterations);
        assert!(light.trace.iterations.is_empty());
        assert_eq!(light.trace.output, full.trace.output);
        assert_eq!(light.trace.input_q, full.trace.input_q);
        assert_eq!(light.trace.conv1_out, full.trace.conv1_out);
        assert_eq!(light.trace.pc_out, full.trace.pc_out);
        assert_eq!(light.trace.capsules, full.trace.capsules);
        assert_eq!(light.trace.u_hat, full.trace.u_hat);
        assert_eq!(light.layers, full.layers);
        assert_eq!(light.steps, full.steps);
        assert_eq!(light.traffic, full.traffic);
        assert_eq!(light.memory, full.memory);
    }

    #[test]
    fn accumulator_faults_are_deterministic_and_backend_identical() {
        // The drain op counter advances in the same (n_tile, image,
        // column, row) order on both backends, so one seeded plan must
        // hit the identical ops — same flips, same outputs — ticked or
        // functional, and rerun byte-identically.
        let net = CapsNetConfig::tiny();
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] + 2 * i[2]) % 7) as f32 / 7.0);
        let mut plan = FaultPlan::seeded(17);
        plan.engine.acc_bitflip_per_drain = 0.05;
        let run = |backend, plan: FaultPlan| {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.backend = backend;
            let qparams = CapsNetParams::generate(&net, 23).quantize(cfg.numeric);
            let mut acc = Accelerator::new(cfg);
            acc.set_fault_plan(plan);
            let out = acc.run_inference(&net, &qparams, &image);
            (out.trace, acc.fault_ops(), acc.fault_flips())
        };
        let ticked = run(crate::EngineBackend::Ticked, plan);
        let functional = run(crate::EngineBackend::Functional, plan);
        assert_eq!(ticked, functional);
        assert!(ticked.2 > 0, "5% per drain op must flip something");
        assert_eq!(ticked, run(crate::EngineBackend::Ticked, plan));
        // A plan with no engine faults is byte-invisible and consumes
        // no draws — even when its other layers carry faults.
        let mut noisy_elsewhere = FaultPlan::seeded(17);
        noisy_elsewhere.serve.crash_per_dispatch = 0.5;
        let clean = run(crate::EngineBackend::Ticked, noisy_elsewhere);
        let unarmed = run(crate::EngineBackend::Ticked, FaultPlan::none());
        assert_eq!(clean, unarmed);
        assert_eq!(clean.1, 0);
    }

    #[test]
    fn saturating_clamp_masks_out_of_range_flips() {
        // With masking on, every injected flip that escapes the
        // accumulator's legal ±2^24 range is pulled back to the
        // boundary, so the visible corruption can only shrink.
        let net = CapsNetConfig::tiny();
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * 5 + i[2]) % 9) as f32 / 9.0);
        let run = |mask: bool| {
            let cfg = AcceleratorConfig::test_4x4();
            let qparams = CapsNetParams::generate(&net, 31).quantize(cfg.numeric);
            let mut plan = FaultPlan::seeded(41);
            plan.engine.acc_bitflip_per_drain = 1.0;
            plan.engine.mask_with_saturation = mask;
            let mut acc = Accelerator::new(cfg);
            acc.set_fault_plan(plan);
            acc.run_inference(&net, &qparams, &image);
            (acc.fault_flips(), acc.fault_masked())
        };
        let (flips_raw, masked_raw) = run(false);
        let (flips_masked, masked_masked) = run(true);
        assert_eq!(flips_raw, flips_masked, "same plan, same hit schedule");
        assert_eq!(masked_raw, 0, "masking off never clamps");
        assert!(
            masked_masked > 0,
            "rate-1.0 sign-bit flips must escape range and be masked"
        );
    }

    #[test]
    fn telemetry_span_tree_sums_to_run_total_at_every_detail() {
        // The whole point of the explicit recorder clock: at every
        // detail level, on both backends, with ideal or modeled
        // memory, the root "inference" span's length equals the sum of
        // the LayerRun totals — and children exactly partition every
        // parent that has children.
        use capsacc_telemetry::{validate_span_tree, SpanDetail, TelemetryConfig, TRACK_ENGINE};
        let net = CapsNetConfig::tiny();
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * 3 + i[2]) % 9) as f32 / 9.0);
        for backend in [
            crate::EngineBackend::Ticked,
            crate::EngineBackend::Functional,
        ] {
            for modeled_mem in [false, true] {
                for detail in [SpanDetail::Layers, SpanDetail::Phases, SpanDetail::Tiles] {
                    let mut cfg = AcceleratorConfig::test_4x4();
                    cfg.backend = backend;
                    if modeled_mem {
                        cfg.memory = capsacc_memory::MemoryConfig::paper();
                    }
                    let qparams = CapsNetParams::generate(&net, 11).quantize(cfg.numeric);
                    let mut acc = Accelerator::new(cfg);
                    acc.enable_telemetry(TelemetryConfig {
                        detail,
                        host_timing: false,
                    });
                    let run = acc.run_inference(&net, &qparams, &image);
                    let rec = acc.take_telemetry();
                    let total = validate_span_tree(&rec, TRACK_ENGINE)
                        .unwrap_or_else(|e| panic!("{backend:?}/{detail:?}: {e}"));
                    let want: u64 = run.layers.iter().map(LayerRun::cycles).sum();
                    assert_eq!(total, want, "{backend:?}/mem={modeled_mem}/{detail:?}");
                }
            }
        }
    }

    #[test]
    fn telemetry_span_trees_are_identical_across_backends() {
        use capsacc_telemetry::{SpanDetail, TelemetryConfig};
        let net = CapsNetConfig::tiny();
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] + 2 * i[2]) % 7) as f32 / 7.0);
        let spans_for = |backend| {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.backend = backend;
            let qparams = CapsNetParams::generate(&net, 7).quantize(cfg.numeric);
            let mut acc = Accelerator::new(cfg);
            acc.enable_telemetry(TelemetryConfig {
                detail: SpanDetail::Tiles,
                host_timing: false,
            });
            acc.run_inference(&net, &qparams, &image);
            acc.take_telemetry().spans().to_vec()
        };
        let ticked = spans_for(crate::EngineBackend::Ticked);
        let functional = spans_for(crate::EngineBackend::Functional);
        assert!(!ticked.is_empty());
        assert_eq!(ticked, functional);
    }

    #[test]
    fn feedback_ablation_increases_data_memory_traffic() {
        let net = CapsNetConfig::tiny();
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] * i[2]) as f32 / 121.0);

        let cfg_on = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 14).quantize(cfg_on.numeric);
        let mut acc_on = Accelerator::new(cfg_on);
        let run_on = acc_on.run_inference(&net, &qparams, &image);

        let mut cfg_off = AcceleratorConfig::test_4x4();
        cfg_off.dataflow.routing_feedback = false;
        let mut acc_off = Accelerator::new(cfg_off);
        let run_off = acc_off.run_inference(&net, &qparams, &image);

        // Same functional result...
        assert_eq!(run_on.trace, run_off.trace);
        // ...but more Data Memory reads without the feedback path.
        let dm_on = run_on.traffic.counter(MemoryKind::DataMemory).read_bytes;
        let dm_off = run_off.traffic.counter(MemoryKind::DataMemory).read_bytes;
        assert!(
            dm_off > dm_on,
            "feedback off should re-read û ({dm_off} vs {dm_on})"
        );
        // 2 extra Sum re-reads + 2 Update re-reads of û (tiny: 32·4·4).
        assert_eq!(dm_off - dm_on, 4 * (32 * 4 * 4));
    }
}
