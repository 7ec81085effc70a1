//! The cycle-accurate execution engine.
//!
//! [`Accelerator`] owns a register-transfer-level [`SystolicArray`] and
//! drives it through the paper's dataflow mappings tile by tile, cycle by
//! cycle. The functional results are **bit-exact** against the quantized
//! reference model (`capsacc_capsnet::infer_q8_traced`) — the engine even
//! assembles its results into the same
//! [`QuantTrace`](capsacc_capsnet::QuantTrace) type so integration
//! tests can `assert_eq!` entire inference traces.
//!
//! Cycle accounting: every cost site charges one [`CycleLedger`] once,
//! and every [`LayerRun`] and routing step is a delta of it. The
//! systolic-array cycles are exact (the ticked backend executes every
//! edge); activation-unit costs use the per-operation formulas of Sec.
//! IV-C; bandwidth ceilings (weight streaming, routing buffer ports)
//! are the analytical model's domain ([`crate::timing`]). The engine
//! executes the paper's pipelined "full throttle" tile schedule
//! whenever [`AcceleratorConfig::tiles_pipeline`] holds and weight reuse
//! is on, and serial tiles otherwise: each call of the one internal
//! matmul path issues all its tiles back to back as one run, which
//! pays one fill and one drain ([`TileRun`]). The activation units reduce each
//! drained value behind the array (Sec. IV-C), overlapped with the
//! final K-tile's stream, so no matmul charges a drain. With pipelining
//! disabled, the model's cycles equal the engine's, matmul by matmul
//! and layer by layer, except for two gaps (pinned at MNIST scale by
//! `tests/timing_consistency.rs`): the model charges Conv1's ReLU one
//! cycle of latency, and it applies Routing Buffer bandwidth ceilings
//! to the softmax and squash steps that the engine does not. With
//! pipelining the two also differ in where a run ends: the closed form
//! runs one per N-tile (one per matmul for the FC's capsules), the
//! engine one per call. The [`crate::timing`] module doc gives the
//! MNIST figures; the "One cycle model, executed" item of `ROADMAP.md`
//! plans how the gaps close.
//!
//! Two execution backends produce this identical behavior
//! ([`crate::EngineBackend`]): `Ticked` drives every PE register through
//! [`TileRun`], while `Functional` evaluates each tile as
//! the per-column saturating fold the PE datapath performs
//! ([`Pe::mac_step`](crate::Pe::mac_step) in fixed north→south order —
//! in parallel across data rows and with explicit SIMD when the host
//! supports it, see [`crate::FunctionalOptions`]). Both charge the
//! ledger and record each matmul from one charge, priced once per
//! matmul geometry (`MatmulCharge`), and the ticked backend asserts
//! that the edges it executes equal the charged array cycles —
//! bit-identical results and accounting, the functional backend at
//! wall-clock speed (differentially pinned by
//! `tests/backend_equivalence.rs`).

use capsacc_capsnet::{
    primary_capsules, CapsNetConfig, QuantPipeline, RoutingIterationTrace, RoutingVariant,
};
use capsacc_faults::FaultPlan;
use capsacc_memory::{MatmulGeometry, MemReport, MemorySubsystem, RunPrice, SpmKind, TileSchedule};
use capsacc_telemetry::{Recorder, SpanDetail, TelemetryConfig};
use capsacc_tensor::{u64_from, usize_from, Tensor};

use crate::accumulator::AccumulatorUnit;
use crate::activation::{ActivationKind, ActivationUnit};
use crate::config::{AcceleratorConfig, EngineBackend, TraceLevel};
use crate::kernel::{self, UHatPacking};
use crate::operand::{DataView, WeightView};
use crate::systolic::{SystolicArray, TileRun};
use crate::timing::RoutingStep;
use crate::traffic::{MemoryKind, TrafficReport};

/// The engine's simulated cycles by what spent them, read with
/// [`Accelerator::ledger`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct CycleLedger {
    /// Systolic-array edges of the matmuls.
    pub array: u64,
    /// Activation-unit cycles: the squashes and softmaxes.
    pub activation: u64,
    /// The ClassCaps `û` Load and the skip-first-softmax coupling
    /// broadcast.
    pub transfer: u64,
    /// Memory-hierarchy stalls, the [`MemReport::stall_cycles`].
    pub stall: u64,
}

impl CycleLedger {
    /// All four parts together.
    pub fn total(&self) -> u64 {
        self.array + self.activation + self.transfer + self.stall
    }

    /// The cycles counted after the reading `earlier`, part by part.
    ///
    /// # Panics
    ///
    /// Panics if `earlier` is not a prior reading.
    pub fn since(&self, earlier: &CycleLedger) -> CycleLedger {
        let sub = |a: u64, b: u64| a.checked_sub(b).expect("reading is not a prior state");
        CycleLedger {
            array: sub(self.array, earlier.array),
            activation: sub(self.activation, earlier.activation),
            transfer: sub(self.transfer, earlier.transfer),
            stall: sub(self.stall, earlier.stall),
        }
    }
}

/// Cycles of one executed layer (Fig. 16 rows): the [`CycleLedger`]'s
/// delta over it.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LayerRun {
    /// Layer name.
    pub name: &'static str,
    /// Systolic-array cycles consumed.
    pub array_cycles: u64,
    /// Activation-unit cycles consumed.
    pub activation_cycles: u64,
    /// Transfer cycles consumed (ClassCaps only).
    pub transfer_cycles: u64,
    /// Cycles stalled on the memory hierarchy (bank conflicts + exposed
    /// DRAM fills). Always zero under the `IdealMemory` configuration.
    pub memory_stall_cycles: u64,
}

impl LayerRun {
    /// Total cycles of this layer.
    pub fn cycles(&self) -> u64 {
        self.array_cycles + self.activation_cycles + self.transfer_cycles + self.memory_stall_cycles
    }
}

/// The ledger part a cost site other than a matmul charges.
pub(crate) enum Part {
    Activation,
    Transfer,
    /// Already counted in the memory report, the ledger's stall part.
    Stall,
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
/// let (outs, _) = acc.matmul_batch(
///     1,
///     &|_, m, k| a[[m, k]],
///     &|k, n| b[[k, n]],
///     3, 5, 2, None, 6, ActivationKind::Identity,
/// );
/// let (exact, _) = capsacc_tensor::qops::matmul_q8(&a, &b, 6);
/// assert_eq!(outs[0], exact);
/// ```
#[derive(Debug)]
pub struct Accelerator {
    pub(crate) cfg: AcceleratorConfig,
    pub(crate) array: SystolicArray,
    pub(crate) activation: ActivationUnit,
    pub(crate) traffic: TrafficReport,
    pub(crate) memory: MemorySubsystem,
    // The ledger's parts but the stall, which `memory` holds; its
    // `stall` stays zero.
    pub(crate) busy: CycleLedger,
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
    // K-tiles, accumulator set), reused by every matmul of a layer
    // and dropped at layer boundaries. Host memory only: nothing
    // simulated reads or depends on it.
    pub(crate) staging: kernel::Staging,
}

/// Everything one call of [`Accelerator::matmul_group`] charges to the
/// simulated machine. Cycles, traffic and stalls never depend on
/// operand values, so this is a pure function of the
/// [`MatmulGeometry`], the group count and the configuration:
/// [`Accelerator::charge`] derives it in one place, and both backends
/// apply it once per call (to the [`CycleLedger`] among others) and
/// record it per group. The ticked backend only ticks the array, and
/// asserts on every call that its edge count equals `array_cycles`.
/// The activation units reduce each drained value behind the array,
/// overlapped with the final K-tile's stream, so a matmul charges no
/// drain cycles.
#[derive(Clone, PartialEq, Eq, Debug)]
pub(crate) struct MatmulCharge {
    /// The geometry charged.
    pub geometry: MatmulGeometry,
    /// Matmuls of the geometry issued back to back as one run.
    pub groups: usize,
    /// The run's [`MatmulGeometry::run_cycles`] over its
    /// `groups · n_tiles · k_tiles` tiles: one fill and one drain when
    /// pipelined, `R + 1` weight-load edges plus `batch·M + R + C`
    /// stream edges per tile when serial.
    pub array_cycles: u64,
    /// The memory hierarchy's price of the run: its counter delta,
    /// stall included, and each group's stall. Its Weight and Data SPM
    /// reads (`kt·nt` and `batch·M·kt` per tile) are the run's Weight
    /// and Data Buffer reads.
    pub mem: RunPrice,
}

/// A routing step's product on the functional backend, evaluated
/// against `û` staged once per image ([`Accelerator::route_class_caps`])
/// in place of the call's own views: a bias-free batch of one whose
/// weight tiles live in `kernel::Staging::u_hat`. Its output, read
/// row-major, is the call's.
#[derive(Copy, Clone, Debug)]
pub(crate) struct Staged<'a> {
    /// The packing the product's weight tiles live in.
    pub packing: UHatPacking,
    /// Whether this call makes the packing (the image's first Sum or
    /// Update); every later call streams against it as made.
    pub pack: bool,
    /// The product's data rows, read at the call's `data_step`.
    pub data: DataView<'a>,
    /// The weights the packing is made from, read at the call's
    /// `weight_step`.
    pub weight: WeightView<'a>,
    /// The product's output width.
    pub n: usize,
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
            busy: CycleLedger::default(),
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

    /// Takes the recorder out for export, leaving recording disabled.
    pub fn take_telemetry(&mut self) -> Recorder {
        std::mem::take(&mut self.rec)
    }

    /// The configuration.
    pub fn config(&self) -> &AcceleratorConfig {
        &self.cfg
    }

    /// Every simulated cycle charged so far, by part.
    pub fn ledger(&self) -> CycleLedger {
        let mut ledger = self.busy;
        ledger.stall = self.memory.report().stall_cycles;
        ledger
    }

    /// Traffic counters.
    pub fn traffic(&self) -> &TrafficReport {
        &self.traffic
    }

    /// Cumulative memory-hierarchy counters.
    pub fn memory_report(&self) -> MemReport {
        self.memory.report()
    }

    /// Charges `cycles` of `part` at a cost site other than a matmul and
    /// spends them in the phase span `name` (with argument `i`, if any).
    pub(crate) fn spend(&mut self, part: Part, cycles: u64, name: &'static str, i: Option<usize>) {
        match part {
            Part::Activation => self.busy.activation += cycles,
            Part::Transfer => self.busy.transfer += cycles,
            Part::Stall => {}
        }
        let rec = &mut self.rec;
        match i {
            Some(i) => rec.begin_arg(SpanDetail::Phases, name, "i", u64_from(i)),
            None => rec.begin(SpanDetail::Phases, name),
        }
        rec.advance(cycles);
        rec.end(SpanDetail::Phases);
    }

    /// All cycles the ledger counted after the reading `at`.
    pub(crate) fn cycles_since(&self, at: &CycleLedger) -> u64 {
        self.ledger().since(at).total()
    }

    /// Executes a tiled `M × K × N` matmul for a batch of data operands
    /// sharing one weight operand — the paper's "reuse weights" scenario
    /// (Fig. 12) generalized across inferences; a single matmul is a
    /// batch of one. Weights are loaded tile by tile into the resident
    /// registers, data rows stream against them, per-column accumulator
    /// FIFOs fold K-tiles, and the activation units reduce the finished
    /// 25-bit sums to 8 bits.
    ///
    /// Every weight tile is loaded **once** and all `batch` images' data
    /// rows stream back-to-back against it, so the Weight Buffer traffic
    /// and the per-tile load cycles are paid once per batch instead of
    /// once per image. `data(img, m, k)` supplies image `img`'s operands
    /// and `weight(k, n)` the shared weights. Both closures are called
    /// once per element, up front, to copy the operands into dense
    /// row-major buffers; the matmul itself runs the same view-based
    /// path as the network layers. `bias`, when present, is indexed by
    /// `n` and staged at the product fraction width.
    ///
    /// Returns one `[m, n]` output tensor per image plus the per-image
    /// accumulator-saturation counts (attribution is exact because each
    /// image keeps its own accumulator FIFOs, mirroring a sequential
    /// run). Per-row arithmetic does not depend on the batch, so outputs
    /// are bit-exact against `batch` independent batch-of-one calls.
    ///
    /// The tiles run as one pipelined run where
    /// [`AcceleratorConfig::tiles_pipeline`] holds and weight reuse is
    /// on, and serially otherwise; the second weight register exists, so
    /// tiles *are* resident either way. The
    /// `DataflowOptions::weight_reuse` ablation's per-row reloads are
    /// modelled analytically only, by the closed form ([`crate::timing`]).
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
        self.matmul_group(
            DataView {
                src: &src,
                rows: &rows,
                cols: &cols,
            },
            0,
            WeightView {
                src: &w,
                ks: n,
                ns: 1,
            },
            0,
            1,
            n,
            bias,
            shift,
            kind,
            false,
            None,
        )
    }

    /// The engine's one tiled-matmul path: `groups` matmuls of one
    /// geometry, executed back to back, reading both operands through
    /// borrowed views ([`DataView`] supplies the batch size, `M` and
    /// `K`; `n` is the output width). Group `g` reads its data
    /// `g·data_step` elements further into each image's source than
    /// `data` does, and its weights `g·weight_step` further into
    /// `weight`'s source. Image `img`'s output is one `[groups·M, n]`
    /// tensor whose rows `g·M ..` are group `g`'s outputs; the
    /// per-image saturation counts sum over the groups. Conv1,
    /// PrimaryCaps and [`Accelerator::matmul_batch`] issue one group
    /// with zero offsets; the ClassCaps FC groups its input capsules,
    /// and each routing Sum and Update groups its classes.
    ///
    /// `weights_offchip` marks the weight operand as DRAM-resident (the
    /// network's parameter layers): its tiles then stream through the
    /// memory hierarchy's double-buffered prefetcher and are charged to
    /// the off-chip counters. On-chip operands (routing's `û`/`v_j`,
    /// and every weight through the public
    /// [`Accelerator::matmul_batch`]) touch only the scratchpads. The
    /// memory hierarchy never changes functional results and never
    /// touches the ticked array: its stalls accumulate in its own
    /// report, the ledger's stall part, and are identically zero under
    /// `IdealMemory`.
    ///
    /// The groups' tiles issue back to back as one run, group by group,
    /// N-tile by N-tile, K-tile by K-tile: under
    /// [`TileSchedule::Pipelined`] (when
    /// [`AcceleratorConfig::tiles_pipeline`] holds and weight reuse is
    /// on) the run pays one fill and one drain, and under
    /// [`TileSchedule::Serial`] every tile pays its own. Outputs,
    /// traffic and fault draws are those of `groups` consecutive single
    /// matmuls. The call's [`MatmulCharge`] is derived and applied once.
    /// Each group records a `matmul` span: its tiles' windows plus the
    /// stalls within them. The ticked backend then executes the run
    /// ([`Accelerator::matmul_ticked`]) and asserts that it ticks
    /// exactly the charged array cycles; the functional backend
    /// evaluates the groups in one host pass
    /// ([`Accelerator::matmul_group_functional`]).
    ///
    /// Routing's Sum and Update also pass their `staged` product: the
    /// functional backend evaluates it against `û` staged once per
    /// image instead of packing `weight` on every call ([`Staged`]).
    /// The charge, the recorded spans and the ticked backend read the
    /// call's own views either way.
    ///
    /// # Panics
    ///
    /// Panics if the batch is empty, a bias slice shorter than `n` is
    /// supplied, or a `staged` product comes with a bias or a batch
    /// of more than one.
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
        staged: Option<Staged<'_>>,
    ) -> (Vec<Tensor<i8>>, Vec<u64>) {
        let (batch, m, k) = (data.batch(), data.m(), data.k());
        assert!(batch > 0, "batch must be non-empty");
        if let Some(b) = bias {
            assert!(b.len() >= n, "bias shorter than output width");
        }
        assert!(
            staged.is_none_or(|s| batch == 1 && s.data.batch() == 1 && bias.is_none()),
            "a staged product is a bias-free batch of one"
        );
        // The paper's pipelined schedule where the dataflow switches and
        // the Weight Buffer allow it; the weight-reuse ablation's
        // per-row reloads exist only in the closed form.
        let schedule = if self.cfg.tiles_pipeline() && self.cfg.dataflow.weight_reuse {
            TileSchedule::Pipelined
        } else {
            TileSchedule::Serial
        };
        let geometry = MatmulGeometry {
            m,
            k,
            n,
            batch,
            rows: self.cfg.rows,
            cols: self.cfg.cols,
            weights_offchip,
            schedule,
        };
        let mut outs: Vec<Tensor<i8>> = (0..batch)
            .map(|_| Tensor::zeros(&[groups * m, n]))
            .collect();
        let mut saturations = vec![0u64; batch];
        let charge = self.charge(&geometry, groups);
        self.apply_charge(&charge);
        MemorySubsystem::record_matmul(&charge.mem.total, &mut self.rec);
        if self.cfg.backend == EngineBackend::Functional {
            self.matmul_group_functional(
                data,
                data_step,
                weight,
                weight_step,
                staged,
                bias,
                shift,
                kind,
                &charge,
                &mut outs,
                &mut saturations,
            );
        } else {
            for g in 0..groups {
                self.rec.begin(SpanDetail::Phases, "matmul");
                self.record_group(&charge, g);
                self.rec.end(SpanDetail::Phases);
            }
            let c0 = self.array.cycles();
            self.matmul_ticked(
                data,
                data_step,
                weight,
                weight_step,
                &charge,
                bias,
                shift,
                kind,
                &mut outs,
                &mut saturations,
            );
            assert_eq!(
                self.array.cycles() - c0,
                charge.array_cycles,
                "ticked matmul diverged from its charge"
            );
        }
        (outs, saturations)
    }

    /// What `groups` matmuls of geometry `g`, issued as one run, charge
    /// to the simulated machine ([`MatmulCharge`]), derived here and
    /// nowhere else. The memory part is the subsystem's
    /// [`MemorySubsystem::price_run`], which remembers its replays; the
    /// rest is a few integer operations.
    pub(crate) fn charge(&mut self, g: &MatmulGeometry, groups: usize) -> MatmulCharge {
        MatmulCharge {
            geometry: *g,
            groups,
            array_cycles: g.run_cycles(g.tiles(groups)),
            mem: self.memory.price_run(g, groups),
        }
    }

    /// Applies `c` on both backends: its array cycles to the ledger,
    /// its memory counters, whose stall is the ledger's stall part, and
    /// the Weight and Data SPM reads of those counters as Weight and
    /// Data Buffer reads.
    fn apply_charge(&mut self, c: &MatmulCharge) {
        let mem = &c.mem.total;
        self.busy.array += c.array_cycles;
        self.traffic.read(
            MemoryKind::WeightBuffer,
            mem.spm(SpmKind::Weight).read_bytes,
        );
        self.traffic
            .read(MemoryKind::DataBuffer, mem.spm(SpmKind::Data).read_bytes);
        self.memory.charge(mem);
    }

    /// Records group `group` of `c`'s run, for both backends: the clock
    /// advanced by the stall within the group's tiles and by the tiles'
    /// windows ([`MatmulGeometry::run_windows`]). At
    /// [`SpanDetail::Tiles`] the advance is split into the stall span
    /// and one span per tile window; below it the recorder would keep
    /// none of those spans, so the clock moves once. Nothing is
    /// recorded with recording off.
    fn record_group(&mut self, c: &MatmulCharge, group: usize) {
        if !self.rec.is_enabled() {
            return;
        }
        let g = &c.geometry;
        let (per_group, tiles) = (g.tiles(1), g.tiles(c.groups));
        let first = u64_from(group) * per_group;
        let stall = c.mem.group_stalls[group];
        if self.rec.detail() < SpanDetail::Tiles {
            let windows = g.run_windows(first..first + per_group, tiles);
            self.rec.advance(stall + windows);
            return;
        }
        self.rec.begin(SpanDetail::Tiles, "mem-stall");
        self.rec.advance(stall);
        self.rec.end(SpanDetail::Tiles);
        for seq in 0..per_group {
            let t = first + seq;
            self.rec.begin_arg(SpanDetail::Tiles, "tile", "seq", seq);
            self.rec.advance(g.run_windows(t..t + 1, tiles));
            self.rec.end(SpanDetail::Tiles);
        }
    }

    /// The `Ticked` backend's matmul group: every group's weight tiles
    /// run through the array as one [`TileRun`], group by group, N-tile
    /// by N-tile, K-tile by K-tile, under the charge's schedule, and
    /// every data row streams through the PEs, edge by edge. The
    /// caller has applied and recorded `charge`. Image `img`'s outputs
    /// of group `g` land in rows `g·M ..` of `outs[img]`.
    #[allow(clippy::too_many_arguments)]
    fn matmul_ticked(
        &mut self,
        data: DataView<'_>,
        data_step: usize,
        weight: WeightView<'_>,
        weight_step: usize,
        charge: &MatmulCharge,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        outs: &mut [Tensor<i8>],
        saturations: &mut [u64],
    ) {
        let (batch, m, k, n) = (data.batch(), data.m(), data.k(), charge.geometry.n);
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let (kk, nn) = (charge.geometry.k_tiles(), charge.geometry.n_tiles());
        // Tile t of the run: its group, N-tile origin and K-tile origin.
        let place = |t: usize| (t / (nn * kk), t / kk % nn * cols, t % kk * rows);
        // Both operands zero-padded to the array.
        let weight_at = |t: usize, r: usize, c: usize| {
            let (g, n0, k0) = place(t);
            let w = WeightView {
                src: &weight.src[g * weight_step..],
                ..weight
            };
            if k0 + r < k && n0 + c < n {
                w.at(k0 + r, n0 + c)
            } else {
                0
            }
        };
        // Data row i of a tile is image i / M's row i % M.
        let data_at = |t: usize, i: usize, r: usize| {
            let (g, _, k0) = place(t);
            if k0 + r < k {
                data.at(g * data_step, i / m, i % m, k0 + r)
            } else {
                0
            }
        };
        let pipelined = charge.geometry.schedule == TileSchedule::Pipelined;
        let tiles = usize_from(charge.geometry.tiles(charge.groups));
        let mut run = TileRun::new(&self.array, tiles, batch * m, pipelined);
        // One accumulator set per image: keeps K-tile folding — and
        // therefore saturation attribution — identical to a sequential
        // per-image run.
        let mut accs: Vec<Vec<AccumulatorUnit>> = Vec::new();
        let faults = self.fault_plan.has_engine_faults();
        let mut t = 0;
        while let Some(psums) = run.next_tile(&mut self.array, weight_at, data_at) {
            let (g, n0, k0) = place(t);
            t += 1;
            let nt = cols.min(n - n0);
            if k0 == 0 {
                accs = (0..batch)
                    .map(|_| (0..nt).map(|_| AccumulatorUnit::new(m.max(1))).collect())
                    .collect();
            }
            for (ri, prow) in psums.chunks_exact(cols).enumerate() {
                for (c, acc) in accs[ri / m].iter_mut().enumerate() {
                    if k0 == 0 {
                        acc.push_new(prow[c]);
                    } else {
                        acc.fold(prow[c]);
                    }
                }
            }
            if k0 + rows < k {
                continue;
            }
            // The N-tile's last K-tile: drain through the activation
            // units, image by image, numbering fault draws in walk order.
            for (img, (image_accs, out)) in accs.iter_mut().zip(outs.iter_mut()).enumerate() {
                let out = &mut out.data_mut()[g * m * n..];
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
            }
        }
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
    ///   The SIMD sweep multiplies biased data bytes `d + 128` by the
    ///   signed weights, four taps per `vpdpbusd` lane, into a psum
    ///   seeded with `−128·Σw`. Each u8·s8 product fits `i16`, and the
    ///   wrapping `_mm512_dpbusd_epi32` adds the products into `i32`
    ///   lanes. The seed is at most `1023·128·128 < 2^24` in magnitude,
    ///   and the biased products add at most `1023·255·128 < 2^25`, so
    ///   no lane leaves ±2^26 and each ends at exactly
    ///   `−128·Σw + Σ (d + 128)·w = Σ d·w`, the tile psum. Padded taps
    ///   of a `kt % 4` tail quad carry zero weights, so whatever data
    ///   bytes the sweep reads beside them add 0.
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
    ///   psum). Each element keeps one `i32` value and one `i32` clip
    ///   count: the clamped value stays within ±2^24 and `acc + psum`
    ///   within ±2^25, so 32 bits hold both the fold and its storage
    ///   exactly, and the value widens to `i64` only at the drain's
    ///   fault draw and bias add.
    /// - **Row partitioning.** Threads split the panel into contiguous
    ///   row chunks; every row's whole fold chain runs on one thread
    ///   in tile order, so the per-element fold order — and therefore
    ///   outputs, cycles, traffic, and clip attribution — is
    ///   byte-identical for any thread count. Clip events are counted
    ///   per row and summed per image in image order (a commutative
    ///   sum either way), group by group into each image's count, as
    ///   consecutive single matmuls would attribute them.
    /// - **The charge.** Cycles, traffic and memory stalls never depend
    ///   on operand values, so a call's [`MatmulCharge`] — the run's
    ///   [`MatmulGeometry::run_cycles`], exactly the edges the ticked
    ///   [`TileRun`] executes, plus the memory replay of the run, whose
    ///   per-tile SPM reads are the buffer reads — is derived in one
    ///   place and applied by both backends: the ledger, and
    ///   everything built on it, is equal, not merely equivalent.
    ///   Counter totals are the only observable, and they are pure
    ///   sums. With recording on, both backends record each group from
    ///   the charge (`record_group`).
    /// - **Data staging.** Both operands are staged straight from their
    ///   views into buffers the accelerator keeps across matmuls: each
    ///   group's data panel is gathered once as a flat row-major
    ///   `batch·M × K` matrix of biased bytes, `d + 128`, plus 3 zero
    ///   pad bytes (`kernel::Staging::gather`; the ticked path re-reads
    ///   the view per N-tile revisit). It is the one copy the SIMD
    ///   sweep and the scalar folds all read: the scalar folds and the
    ///   tall-tile fold read each byte back as exactly the `i8` it was.
    ///   Each N-tile's K-tiles are packed directly into the layout
    ///   their kernel reads (`kernel::TileBuf::pack`). The gather is
    ///   timed as staging. A [`Staged`] product packs its N-tiles into
    ///   `kernel::Staging::u_hat` only on the call that makes the
    ///   packing, timed as that call's staging, and every later call
    ///   sweeps those tiles: `û` does not change within an image, so
    ///   they are the tiles a per-call packing would make.
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
    /// - **The transposed Update.** The ticked Update of class `j` is a
    ///   one-column product: `in_caps` data rows, the rows of `û_j`,
    ///   against the weight column `v_j`. Its functional evaluation is
    ///   the transposed product `û_jᵀ·v_j`: `v_j` is the one data row,
    ///   streamed against N-tiles over the capsules, whose column `c`
    ///   of N-tile `t` holds capsule `i = t·C + c`'s dims. Both orders
    ///   tile K, the `out_dim` dims, into the same tiles of `R` taps, so
    ///   capsule `i`'s psum per K-tile is the same exact dot product
    ///   (the in-tile note above; the tall-tile fold walks the same
    ///   taps in the same order, and `mac_step` is symmetric in its
    ///   operands). The psums fold in the same tile order with the
    ///   same clip counting. The call's `[classes·in_caps, 1]` output
    ///   and the transposed `[classes, in_caps]` share one row-major
    ///   layout, so the drain writes column `c` of N-tile `t` to output
    ///   row `t·C + c`. At batch 1 with one drained row, the drain
    ///   numbers that element's fault draw `group_base + t·C + c`, the
    ///   untransposed drain's `group_base + i` at `N = 1`, and each
    ///   class draws `in_caps` times either way.
    #[allow(clippy::too_many_arguments)]
    fn matmul_group_functional(
        &mut self,
        data: DataView<'_>,
        data_step: usize,
        weight: WeightView<'_>,
        weight_step: usize,
        staged: Option<Staged<'_>>,
        bias: Option<&[i32]>,
        shift: u32,
        kind: ActivationKind,
        charge: &MatmulCharge,
        outs: &mut [Tensor<i8>],
        saturations: &mut [u64],
    ) {
        let (data, weight, n) = match staged {
            Some(s) => (s.data, s.weight, s.n),
            None => (data, weight, charge.geometry.n),
        };
        let (rows, cols) = (self.cfg.rows, self.cfg.cols);
        let (m, k, groups) = (data.m(), data.k(), charge.groups);
        let total_rows = data.batch() * m;
        let opts = self.cfg.functional;
        let simd_ok = kernel::simd_enabled(opts);
        let n_tiles = n.div_ceil(cols);
        // With `k == 0` no K-tile ever ran, so like the ticked path's
        // empty accumulator FIFOs nothing is written (in particular,
        // no bias-only outputs).
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
        if let Some(s) = staged.filter(|s| s.pack) {
            st.u_hat[s.packing.index()].resize_with(groups * n_tiles, Default::default);
        }
        for g in 0..groups {
            self.rec.begin(SpanDetail::Phases, "matmul");
            // Host wall-clock annotation: the stopwatches read the host
            // clock only when host timing was requested, and only into
            // span args — never into any simulated quantity. Staging
            // time covers the matmul's accounting (recording its
            // charge), its data gather and its weight packing.
            let watch = self.rec.host_stopwatch();
            self.record_group(charge, g);
            // Gather this matmul's whole data panel once, row-major:
            // tile slices below are plain subslices.
            st.gather(&data, g * data_step);
            let (mut stage_ns, mut sweep_ns) = (watch.elapsed_ns(), 0u64);
            let weight = WeightView {
                src: &weight.src[g * weight_step..],
                ..weight
            };
            let group_base = self.fault_op_seq + u64_from(g) * draws_per_matmul;

            for (t, n0) in (0..n).step_by(cols).enumerate() {
                let nt = cols.min(n - n0);
                for buf in [&mut st.acc, &mut st.events] {
                    buf.clear();
                    buf.resize(total_rows * nt, 0);
                }

                // The N-tile's K-tiles: packed here, or staged `û`,
                // packed here only on the image's first step.
                let watch = self.rec.host_stopwatch();
                let tiles = match staged {
                    None => {
                        st.tiles.pack(&weight, k, rows, n0, nt, simd_ok);
                        &st.tiles
                    }
                    Some(s) => {
                        let tiles = &mut st.u_hat[s.packing.index()][g * n_tiles + t];
                        if s.pack {
                            tiles.pack(&weight, k, rows, n0, nt, simd_ok);
                        }
                        &*tiles
                    }
                };
                stage_ns += watch.elapsed_ns();

                // The row sweep: serial, or partitioned into contiguous
                // row chunks across scoped OS threads (the `pool.rs`
                // pattern). Rows are independent and each row's whole
                // fold chain runs on one thread in tile order, so any
                // partition is byte-identical to the serial sweep.
                let watch = self.rec.host_stopwatch();
                let threads = kernel::effective_threads(opts.threads, total_rows, k, nt);
                let panel = st.panel.as_slice();
                if threads <= 1 {
                    kernel::process_rows(
                        k,
                        tiles,
                        panel,
                        0,
                        total_rows,
                        &mut st.acc,
                        &mut st.events,
                        &mut st.psums,
                    );
                } else {
                    let rows_per = total_rows.div_ceil(threads);
                    std::thread::scope(|scope| {
                        let handles: Vec<_> = st
                            .acc
                            .chunks_mut(rows_per * nt)
                            .zip(st.events.chunks_mut(rows_per * nt))
                            .enumerate()
                            .map(|(ci, (acc_chunk, ev_chunk))| {
                                scope.spawn(move || {
                                    kernel::process_rows(
                                        k,
                                        tiles,
                                        panel,
                                        ci * rows_per,
                                        acc_chunk.len() / nt,
                                        acc_chunk,
                                        ev_chunk,
                                        &mut Vec::new(),
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
                    let image = img * m * nt..(img + 1) * m * nt;
                    let clips: i64 = st.events[image.clone()].iter().map(|&e| i64::from(e)).sum();
                    let events = u64::try_from(clips).expect("clip counts are non-negative");
                    saturations[img] += events;
                    self.accumulator_saturations += events;
                    let accs = st.acc[image][..drained_rows * nt].chunks_exact(nt);
                    let rows = out.data_mut()[g * m * n..].chunks_exact_mut(n).zip(accs);
                    for (mi, (row_out, row_acc)) in rows.enumerate() {
                        let elems = row_out[n0..n0 + nt]
                            .iter_mut()
                            .zip(row_acc)
                            .zip(&st.bias[n0..n0 + nt]);
                        for (c, ((o, &raw), &b)) in elems.enumerate() {
                            let raw = i64::from(raw);
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
    /// activation units, one per array column, charging the Sec. IV-C
    /// cycle cost.
    pub(crate) fn squash_primary(
        &mut self,
        net: &CapsNetConfig,
        pc_out: &Tensor<i8>,
    ) -> Tensor<i8> {
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
        let units = u64_from(self.cfg.cols);
        let cycles = caps_count.div_ceil(units) * ActivationUnit::squash_cycles(u64_from(dim));
        self.spend(Part::Activation, cycles, "squash", None);
        capsules
    }

    /// Runs the routing-by-agreement phase for one image's predictions,
    /// appending each step's cycles, the ledger's delta over it, to
    /// `steps`.
    /// [`Accelerator::run_batch`] calls it once per image of the batch.
    /// Each Sum and each Update step is one matmul group over the
    /// classes ([`Accelerator::matmul_group`]), with the simulated
    /// effects of the per-class matmuls it stands for.
    ///
    /// `û` stays resident and is fed back to every step (Fig. 12c/d),
    /// and the functional backend stages it once per image to match:
    /// each step passes a [`Staged`] product. The first Sum packs Sum's
    /// layout of `û` and the first Update the Update's transposed one,
    /// so none is made with a single iteration. Every step streams one
    /// data row against them: the couplings column for a Sum, `v_j`
    /// for an Update. The ticked backend and every charge, span,
    /// traffic count, fault draw and cycle are those of the per-class
    /// matmuls.
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
        // Operand tables of the Sum and Update groups (see the views
        // below): `û` is `[in_caps][classes][out_dim]`, the couplings
        // `[in_caps][classes]`.
        let caps_stride: Vec<usize> = (0..in_caps).map(|i| i * classes).collect();
        let u_rows: Vec<usize> = (0..in_caps).map(|i| i * classes * out_dim).collect();
        let dims: Vec<usize> = (0..out_dim).collect();
        let u_data = u_hat.data();

        for r in 0..net.routing_iterations {
            // Softmax (or the coupling broadcast on iteration 1).
            let at = self.ledger();
            if r == 0 && variant == RoutingVariant::SkipFirstSoftmax {
                couplings
                    .data_mut()
                    .fill(self.activation.pipeline().uniform_coupling(classes));
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                let cycles = coupling_bytes.div_ceil(self.cfg.routing_buf_bw);
                self.spend(Part::Transfer, cycles, "softmax", Some(r + 1));
            } else {
                for i in 0..in_caps {
                    let row = &logits.data()[i * classes..(i + 1) * classes];
                    let sm = self.activation.softmax(row);
                    couplings.data_mut()[i * classes..(i + 1) * classes].copy_from_slice(&sm);
                }
                self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                let cycles = u64_from(in_caps).div_ceil(u64_from(self.cfg.cols))
                    * ActivationUnit::softmax_cycles(u64_from(classes));
                self.spend(Part::Activation, cycles, "softmax", Some(r + 1));
            }
            steps.push((RoutingStep::Softmax(r + 1), self.cycles_since(&at)));

            // Weighted sums s_j (Fig. 12b on the first iteration, 12d —
            // feedback reuse — afterwards).
            let at = self.ledger();
            self.rec
                .begin_arg(SpanDetail::Phases, "sum", "i", u64_from(r + 1));
            if r == 0 || !self.cfg.dataflow.routing_feedback {
                // û read from the Data Buffer (or re-read from memory
                // when the feedback ablation is off).
                if r > 0 {
                    self.traffic.read(MemoryKind::DataMemory, u_hat_bytes);
                }
                self.traffic.read(MemoryKind::DataBuffer, u_hat_bytes);
            }
            self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
            // s_j = Σ_i c_ij · û_j|i, one group member per class j: one
            // data row (the couplings' column j, offset j) against the
            // `in_caps × out_dim` slice of û for class j (offset
            // `j·out_dim`). Row j of the `[classes, out_dim]` output is
            // s_j. The functional backend streams the same row against
            // Sum's packing of û, made at the first Sum.
            let src = [couplings.data()];
            let couplings_col = DataView {
                src: &src,
                rows: &[0],
                cols: &caps_stride,
            };
            let u_sum = WeightView {
                src: u_data,
                ks: classes * out_dim,
                ns: 1,
            };
            let (mut sums, _) = self.matmul_group(
                couplings_col,
                1,
                u_sum,
                out_dim,
                classes,
                out_dim,
                None,
                ncfg.coupling_mac_shift(),
                ActivationKind::Identity,
                false,
                Some(Staged {
                    packing: UHatPacking::Sum,
                    pack: r == 0,
                    data: couplings_col,
                    weight: u_sum,
                    n: out_dim,
                }),
            );
            let s_t = sums.remove(0);
            macs += u64_from(classes * out_dim * in_caps);
            self.rec.end(SpanDetail::Phases);
            steps.push((RoutingStep::Sum(r + 1), self.cycles_since(&at)));

            // Squash through the activation units.
            let at = self.ledger();
            for (j, s_norm) in s_norms.iter_mut().enumerate() {
                let (v, norm) = self
                    .activation
                    .squash(&s_t.data()[j * out_dim..(j + 1) * out_dim]);
                class_caps.data_mut()[j * out_dim..(j + 1) * out_dim].copy_from_slice(&v);
                *s_norm = norm;
            }
            let squash_cycles = u64_from(classes).div_ceil(u64_from(self.cfg.cols))
                * ActivationUnit::squash_cycles(u64_from(out_dim));
            self.spend(Part::Activation, squash_cycles, "squash", Some(r + 1));
            self.traffic
                .write(MemoryKind::RoutingBuffer, u64_from(classes * out_dim));
            steps.push((RoutingStep::Squash(r + 1), self.cycles_since(&at)));

            // Logit update (Fig. 12c: û reused via the feedback path).
            let logits_after_update = if r + 1 < net.routing_iterations {
                let at = self.ledger();
                self.rec
                    .begin_arg(SpanDetail::Phases, "update", "i", u64_from(r + 1));
                if !self.cfg.dataflow.routing_feedback {
                    self.traffic.read(MemoryKind::DataMemory, u_hat_bytes);
                }
                self.traffic
                    .read(MemoryKind::RoutingBuffer, u64_from(classes * out_dim));
                // b_ij += û_j|i · v_j, one group member per class j: the
                // class-j rows of û (offset `j·out_dim`) against v_j
                // (offset `j·out_dim`) broadcast as a one-column weight.
                // Row `j·in_caps + i` of the `[classes·in_caps, 1]`
                // output is b_ij's delta. The functional backend
                // evaluates the transposed product `û_jᵀ·v_j` instead:
                // v_j is its one data row, streamed against Update's
                // packing of û, made at the first Update, whose column
                // `i` is capsule i's dims (offset `j·out_dim`).
                let src = [class_caps.data()];
                let (deltas, _) = self.matmul_group(
                    DataView {
                        src: &[u_data],
                        rows: &u_rows,
                        cols: &dims,
                    },
                    out_dim,
                    WeightView {
                        src: class_caps.data(),
                        ks: 1,
                        ns: 0,
                    },
                    out_dim,
                    classes,
                    1,
                    None,
                    ncfg.update_shift(),
                    ActivationKind::Identity,
                    false,
                    Some(Staged {
                        packing: UHatPacking::Update,
                        pack: r == 0,
                        data: DataView {
                            src: &src,
                            rows: &[0],
                            cols: &dims,
                        },
                        weight: WeightView {
                            src: u_data,
                            ks: 1,
                            ns: classes * out_dim,
                        },
                        n: in_caps,
                    }),
                );
                for (row, &d) in deltas[0].data().iter().enumerate() {
                    let (j, i) = (row / in_caps, row % in_caps);
                    let logit = &mut logits.data_mut()[i * classes + j];
                    *logit = logit.saturating_add(d);
                }
                macs += u64_from(classes * in_caps * out_dim);
                self.traffic.read(MemoryKind::RoutingBuffer, coupling_bytes);
                self.traffic
                    .write(MemoryKind::RoutingBuffer, coupling_bytes);
                self.rec.end(SpanDetail::Phases);
                steps.push((RoutingStep::Update(r + 1), self.cycles_since(&at)));
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
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AcceleratorConfig;
    use crate::timing::{batch_matmul_cycles, MatmulShape};
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
        let (outs, _) = acc.matmul_batch(
            1,
            &|_, m, k| a[[m, k]],
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
        assert_eq!(outs[0], exact);
    }

    #[test]
    fn matmul_with_bias_and_relu() {
        let mut acc = test_acc();
        let a = Tensor::from_vec(&[1, 2], vec![32i8, 32]).unwrap();
        let b = Tensor::from_vec(&[2, 2], vec![-64i8, 64, -64, 64]).unwrap();
        let bias = vec![1024i32, -4096];
        let (out, _) = acc.matmul_batch(
            1,
            &|_, m, k| a[[m, k]],
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
        assert_eq!(out[0].data(), &[0, 0]);
        let (out, _) = acc.matmul_batch(
            1,
            &|_, m, k| a[[m, k]],
            &|k, n| b[[k, n]],
            1,
            2,
            2,
            Some(&bias),
            6,
            ActivationKind::Identity,
        );
        assert_eq!(out[0].data(), &[-48, 0]);
    }

    #[test]
    fn weight_traffic_counts_each_weight_once() {
        let mut acc = test_acc();
        acc.matmul_batch(
            1,
            &|_, _, _| 1,
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
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");

        assert_eq!(run.accumulator_saturations, 0);
        assert_eq!(run.traces[0].input_q, reference.input_q);
        assert_eq!(run.traces[0].conv1_out, reference.conv1_out);
        assert_eq!(run.traces[0].pc_out, reference.pc_out);
        assert_eq!(run.traces[0].capsules, reference.capsules);
        assert_eq!(run.traces[0].u_hat, reference.u_hat);
        assert_eq!(run.traces[0].iterations, reference.iterations);
        assert_eq!(
            run.traces[0].output.class_norms,
            reference.output.class_norms
        );
        assert_eq!(run.traces[0].output.predicted, reference.output.predicted);
        assert_eq!(run.traces[0].output.class_caps, reference.output.class_caps);
        assert_eq!(run.traces[0].output.couplings, reference.output.couplings);
        assert_eq!(run.traces[0].output.stats.macs, reference.output.stats.macs);
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
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        assert_eq!(run.traces[0], reference);
    }

    #[test]
    fn step_sequence_matches_fig17() {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 13).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] + i[2]) as f32 / 24.0);
        let mut acc = Accelerator::new(cfg);
        let run = acc
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
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
            let before = acc.ledger().array;
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
            let got = acc.ledger().array - before;
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
        // the *entire* BatchRun (layer cycles, step cycles, traffic
        // counters, memory report, saturations) must be equal.
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, 11).quantize(cfg.numeric);
        let image = Tensor::from_fn(&[1, 12, 12], |i| ((i[1] * 3 + i[2]) % 9) as f32 / 9.0);
        let mut ticked = Accelerator::new(cfg);
        let want = ticked
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        let mut fast_cfg = cfg;
        fast_cfg.backend = crate::EngineBackend::Functional;
        let mut functional = Accelerator::new(fast_cfg);
        let got = functional
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        assert_eq!(got, want);
        assert_eq!(functional.ledger(), ticked.ledger());
    }

    #[test]
    fn functional_matmul_charges_ticked_cycles() {
        // Tile-by-tile cycle charging equals the edges the ticked array
        // executes (and therefore the closed-form serial formula) on
        // shapes with ragged tiles.
        for (m, k, n) in [(1, 4, 4), (3, 9, 6), (7, 2, 10), (5, 17, 3)] {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.backend = crate::EngineBackend::Functional;
            let mut acc = Accelerator::new(cfg);
            let (out_fun, _) = acc.matmul_batch(
                1,
                &|_, mi, ki| ((mi * 5 + ki) % 17) as i8,
                &|ki, ni| ((ki * 3 + ni) % 13) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            let mut reference = Accelerator::new(AcceleratorConfig::test_4x4());
            let (out_ref, _) = reference.matmul_batch(
                1,
                &|_, mi, ki| ((mi * 5 + ki) % 17) as i8,
                &|ki, ni| ((ki * 3 + ni) % 13) as i8,
                m,
                k,
                n,
                None,
                6,
                ActivationKind::Identity,
            );
            assert_eq!(
                acc.ledger().array,
                reference.array.cycles(),
                "({m},{k},{n})"
            );
            assert_eq!(out_fun, out_ref, "({m},{k},{n})");
        }
    }

    /// The derived charge of every layer geometry prices the array
    /// edges a ticked matmul of that geometry executes, read from the
    /// ticked array's own edge counter, under the pipelined and the
    /// serial schedule. The `MemReport` field holds by construction,
    /// since both backends apply the charge itself; the comparison
    /// covers it anyway. Its Weight and Data SPM reads, which the
    /// engine counts as Weight and Data Buffer reads, are checked
    /// against the tile grid's closed form: `k·n` weights and
    /// `n_tiles·batch·m·k` data bytes. The geometries are Conv1,
    /// PrimaryCaps, the FC and routing's Sum and Update of two networks:
    /// the 16-lane-aligned mini CapsNet of `tests/lane_kernels.rs` on
    /// the paper array, and
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
            for (memory, schedule) in [MemoryConfig::paper(), MemoryConfig::ideal()]
                .into_iter()
                .flat_map(|mem| [TileSchedule::Pipelined, TileSchedule::Serial].map(|s| (mem, s)))
            {
                let mut cfg = AcceleratorConfig { memory, ..base };
                cfg.dataflow.pipelined_tiles = schedule == TileSchedule::Pipelined;
                for (m, k, n, offchip) in shapes {
                    for batch in [1, 3] {
                        let data: Vec<i8> = (0..batch * m * k).map(|i| (i % 7) as i8 - 3).collect();
                        let w: Vec<i8> = (0..k * n).map(|i| (i % 5) as i8 - 2).collect();
                        let src: Vec<&[i8]> = data.chunks(m * k).collect();
                        let rows: Vec<usize> = (0..m).map(|mi| mi * k).collect();
                        let cols: Vec<usize> = (0..k).collect();
                        let mut ticked = Accelerator::new(cfg);
                        ticked.matmul_group(
                            DataView {
                                src: &src,
                                rows: &rows,
                                cols: &cols,
                            },
                            0,
                            WeightView {
                                src: &w,
                                ks: n,
                                ns: 1,
                            },
                            0,
                            1,
                            n,
                            None,
                            6,
                            ActivationKind::Identity,
                            offchip,
                            None,
                        );
                        let geometry = MatmulGeometry {
                            m,
                            k,
                            n,
                            batch,
                            rows: cfg.rows,
                            cols: cfg.cols,
                            weights_offchip: offchip,
                            schedule,
                        };
                        // Pricing charges nothing.
                        let mut fresh = Accelerator::new(cfg);
                        let derived = fresh.charge(&geometry, 1);
                        let at = format!(
                            "({m},{k},{n}) batch {batch}, {:?} {schedule:?}",
                            memory.mode
                        );
                        assert_eq!(
                            (derived.array_cycles, derived.mem.total),
                            (ticked.array.cycles(), ticked.memory_report()),
                            "{at}"
                        );
                        assert_eq!(derived.array_cycles, geometry.run_cycles(geometry.tiles(1)));
                        assert_eq!(
                            &derived.mem.group_stalls[..],
                            [derived.mem.total.stall_cycles]
                        );
                        let reads = (
                            u64_from(k * n),
                            u64_from(geometry.n_tiles() * batch * m * k),
                        );
                        let spm = |kind| derived.mem.total.spm(kind).read_bytes;
                        assert_eq!((spm(SpmKind::Weight), spm(SpmKind::Data)), reads, "{at}");
                        let buffer = |kind| ticked.traffic().counter(kind).read_bytes;
                        assert_eq!(
                            (
                                buffer(MemoryKind::WeightBuffer),
                                buffer(MemoryKind::DataBuffer)
                            ),
                            reads,
                            "{at}"
                        );
                        assert_eq!(fresh.ledger(), CycleLedger::default(), "{at}");
                        assert_eq!(fresh.memory_report(), MemReport::default(), "{at}");
                    }
                }
            }
        }
    }

    /// Matmul groups run as one tile run: the ticked array executes the
    /// run the charge prices (asserted inside `matmul_group`), both
    /// backends produce the outputs and the ledger of `groups`
    /// separate exact matmuls, and the run's array cycles are
    /// `run_cycles` of all its tiles. The shapes span several K-tiles,
    /// N-tiles and groups with one data row (as the FC), with `1 < M ≤
    /// R` and `M = R` rows, and with `M > R`; a Weight Buffer that holds
    /// one tile but not two falls back to the serial schedule, whose
    /// run is `groups` serial matmuls.
    #[test]
    fn matmul_groups_run_as_one_tile_run() {
        // (m, k, n, batch, groups) on the 4×4 array.
        let shapes = [
            (1, 9, 10, 1, 3),
            (3, 5, 5, 1, 2),
            (2, 9, 6, 2, 2),
            (3, 9, 7, 3, 2),
        ];
        for buffer in [2 * 1024, 24] {
            let mut cfg = AcceleratorConfig::test_4x4();
            cfg.memory = MemoryConfig::paper();
            cfg.memory.weight_spm.bytes = buffer;
            let schedule = if buffer >= 32 {
                TileSchedule::Pipelined
            } else {
                TileSchedule::Serial
            };
            for (m, k, n, batch, groups) in shapes {
                let at = format!("({m},{k},{n}) batch {batch} × {groups}, {schedule:?}");
                let data: Vec<i8> = (0..batch * groups * m * k)
                    .map(|i| (i * 7 % 23) as i8 - 11)
                    .collect();
                let w: Vec<i8> = (0..groups * k * n)
                    .map(|i| (i * 5 % 17) as i8 - 8)
                    .collect();
                let src: Vec<&[i8]> = data.chunks(groups * m * k).collect();
                let rows: Vec<usize> = (0..m).map(|mi| mi * k).collect();
                let cols: Vec<usize> = (0..k).collect();
                let run = |backend| {
                    let mut acc = Accelerator::new(AcceleratorConfig { backend, ..cfg });
                    let (outs, _) = acc.matmul_group(
                        DataView {
                            src: &src,
                            rows: &rows,
                            cols: &cols,
                        },
                        m * k,
                        WeightView {
                            src: &w,
                            ks: n,
                            ns: 1,
                        },
                        k * n,
                        groups,
                        n,
                        None,
                        6,
                        ActivationKind::Identity,
                        true,
                        None,
                    );
                    (outs, acc.ledger(), acc.memory_report())
                };
                let ticked = run(crate::EngineBackend::Ticked);
                assert_eq!(run(crate::EngineBackend::Functional), ticked, "{at}");
                for (img, out) in ticked.0.iter().enumerate() {
                    for g in 0..groups {
                        let a = Tensor::from_fn(&[m, k], |i| {
                            data[((img * groups + g) * m + i[0]) * k + i[1]]
                        });
                        let b = Tensor::from_fn(&[k, n], |i| w[(g * k + i[0]) * n + i[1]]);
                        let (exact, _) = qops::matmul_q8(&a, &b, 6);
                        assert_eq!(
                            &out.data()[g * m * n..(g + 1) * m * n],
                            exact.data(),
                            "{at}"
                        );
                    }
                }
                let geometry = MatmulGeometry {
                    m,
                    k,
                    n,
                    batch,
                    rows: 4,
                    cols: 4,
                    weights_offchip: true,
                    schedule,
                };
                assert_eq!(
                    ticked.1.array,
                    geometry.run_cycles(geometry.tiles(groups)),
                    "{at}"
                );
                if schedule == TileSchedule::Serial {
                    assert_eq!(
                        ticked.1.array,
                        groups as u64 * geometry.array_cycles(),
                        "{at}"
                    );
                } else if groups * geometry.n_tiles() * geometry.k_tiles() > 1 {
                    let serial = MatmulGeometry {
                        schedule: TileSchedule::Serial,
                        ..geometry
                    };
                    assert!(
                        ticked.1.array < groups as u64 * serial.array_cycles(),
                        "{at}"
                    );
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
            let (mut outs, _) =
                acc.matmul_batch(1, &|_, _, _| 7, &|_, _| 7, 3, 0, 4, Some(&bias), 6, kind);
            (outs.remove(0), acc.ledger())
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
        let full = traced
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        let mut light_cfg = cfg;
        light_cfg.trace_level = crate::TraceLevel::Outputs;
        let mut untraced = Accelerator::new(light_cfg);
        let light = untraced
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        assert_eq!(full.traces[0].iterations.len(), net.routing_iterations);
        assert!(light.traces[0].iterations.is_empty());
        assert_eq!(light.traces[0].output, full.traces[0].output);
        assert_eq!(light.traces[0].input_q, full.traces[0].input_q);
        assert_eq!(light.traces[0].conv1_out, full.traces[0].conv1_out);
        assert_eq!(light.traces[0].pc_out, full.traces[0].pc_out);
        assert_eq!(light.traces[0].capsules, full.traces[0].capsules);
        assert_eq!(light.traces[0].u_hat, full.traces[0].u_hat);
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
            let out = acc
                .run_batch(&net, &qparams, std::slice::from_ref(&image))
                .expect("valid image");
            (out.traces, acc.fault_ops(), acc.fault_flips())
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
            acc.run_batch(&net, &qparams, std::slice::from_ref(&image))
                .expect("valid image");
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
                    let run = acc
                        .run_batch(&net, &qparams, std::slice::from_ref(&image))
                        .expect("valid image");
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
            acc.run_batch(&net, &qparams, std::slice::from_ref(&image))
                .expect("valid image");
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
        let run_on = acc_on
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");

        let mut cfg_off = AcceleratorConfig::test_4x4();
        cfg_off.dataflow.routing_feedback = false;
        let mut acc_off = Accelerator::new(cfg_off);
        let run_off = acc_off
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");

        // Same functional result...
        assert_eq!(run_on.traces[0], run_off.traces[0]);
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
