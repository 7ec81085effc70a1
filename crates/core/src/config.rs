//! Accelerator configuration.

use capsacc_fixed::NumericConfig;
use capsacc_memory::MemoryConfig;

/// Dataflow policy switches — each corresponds to one of the paper's
/// data-reuse mechanisms, and each can be disabled for ablation studies.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct DataflowOptions {
    /// Hold the parameter layers' weight tiles (Conv1, PrimaryCaps and
    /// the ClassCaps FC's `W_ij`) in the PEs' second weight register
    /// and reuse them across data rows and images (Sec. IV-A).
    /// Disabled, each tile reloads before every data row
    /// ([`crate::TileSchedule::ReloadPerRow`]) and every image re-reads
    /// the weights. Routing's operands (`û`, `v_j`) stay resident
    /// either way. Only [`crate::timing`] models the reloads; disabled,
    /// the engine runs its tiles serially.
    pub weight_reuse: bool,
    /// Load each next weight tile while the current one streams, hiding
    /// weight reloads behind data streaming ("at full throttle, each PE
    /// produces one output-per-clock cycle", Sec. IV-A). Both models
    /// honour it where the Weight Buffer holds two tiles
    /// ([`AcceleratorConfig::tiles_pipeline`]); the engine executes it
    /// ([`crate::TileRun`]).
    pub pipelined_tiles: bool,
    /// Reuse the predictions `û_{j|i}` through the horizontal feedback
    /// path during routing instead of re-reading the Data Memory
    /// (Fig. 12c/d).
    pub routing_feedback: bool,
    /// Skip the first routing softmax and initialize the coupling
    /// coefficients directly (the Sec. V algorithmic optimization).
    pub skip_first_softmax: bool,
}

impl Default for DataflowOptions {
    /// All optimizations enabled — the paper's design point.
    fn default() -> Self {
        Self {
            weight_reuse: true,
            pipelined_tiles: true,
            routing_feedback: true,
            skip_first_softmax: true,
        }
    }
}

/// How the engine executes the systolic-array portion of a tiled matmul.
///
/// Both backends produce **bit-identical** results — functional outputs
/// (including Acc25 saturation order and per-image `MacStats`), cycle
/// counts, traffic counters and memory-subsystem stalls — enforced by
/// `tests/backend_equivalence.rs` and the shared golden digests. They
/// differ only in wall-clock cost of the *simulation itself*.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum EngineBackend {
    /// Register-transfer-level execution: every PE register is ticked
    /// every clock edge ([`crate::TileRun`]). Authoritative
    /// for microarchitectural questions (wavefront timing, register
    /// contents, edge-by-edge observability) and the reference the
    /// `Functional` backend is differentially tested against.
    #[default]
    Ticked,
    /// Direct tile evaluation: each output column is computed as the
    /// per-column saturating fold the PE datapath performs
    /// ([`crate::Pe::mac_step`] applied in fixed north→south order)
    /// over flat row-major tile buffers, with zero per-edge work.
    /// Cycles are charged per tile run from the exact edge counts the
    /// ticked array executes under the same schedule
    /// ([`crate::MatmulGeometry::run_cycles`]), so all accounting is
    /// identical. Use
    /// this to run MNIST-scale engine workloads at wall-clock speed
    /// (see `exp_engine_speed`).
    Functional,
}

/// How the `Functional` backend's inner fold is executed on the host.
///
/// Purely a host-speed choice: every mode computes the identical
/// saturating fold ([`crate::Pe::mac_step`] /
/// `AccumulatorUnit::fold_step` semantics), so results, cycle charges
/// and traffic are bit-identical across modes (pinned by
/// `tests/backend_equivalence.rs` with the lane-width axis).
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum SimdMode {
    /// Run full 16-lane N-tiles on the explicit-SIMD sweep when the
    /// host supports it (AVX-512/VNNI or AVX2 on x86-64, detected at
    /// runtime), falling back to the scalar fold otherwise. The default.
    #[default]
    Auto,
    /// Always take the scalar fold — the portable reference the SIMD
    /// path is differentially tested against, and the in-run baseline
    /// `exp_engine_speed` measures its speedup bound from.
    Scalar,
}

/// Host-execution knobs of the [`EngineBackend::Functional`] backend.
///
/// None of these change any simulated observable — outputs, saturation
/// attribution, cycle counts, traffic and memory stalls are
/// bit-identical at every setting (the parallel-equivalence invariant,
/// pinned by `tests/backend_equivalence.rs` across thread-count and
/// lane-width axes). They only change how fast the *host* computes the
/// same numbers.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct FunctionalOptions {
    /// OS threads for data-parallel row execution. `0` (the default)
    /// resolves to [`std::thread::available_parallelism`] and applies a
    /// minimum-work threshold so small matmuls stay serial; an explicit
    /// `n ≥ 2` always splits the rows into `min(n, rows)` chunks (the
    /// setting the determinism proptests drive). `1` is fully serial.
    pub threads: usize,
    /// SIMD lane-width policy of the inner fold.
    pub simd: SimdMode,
}

/// How much of the functional trace the engine materializes.
///
/// Snapshot capture is pure observation: it never changes results,
/// cycles or traffic — only whether the per-iteration routing tensors
/// are cloned into the returned [`capsacc_capsnet::QuantTrace`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub enum TraceLevel {
    /// Capture everything, including one [`capsacc_capsnet::
    /// RoutingIterationTrace`] snapshot per routing iteration — four
    /// tensor clones per iteration. The default, and what the
    /// bit-exactness suites compare against the reference model.
    #[default]
    Full,
    /// Skip the per-iteration routing snapshots
    /// (`QuantTrace::iterations` stays empty); final outputs, cycle
    /// counts and traffic are identical to [`TraceLevel::Full`]. The
    /// serving configuration: avoids cloning the routing state per
    /// iteration per image on the hot path.
    Outputs,
}

/// Static configuration of a CapsAcc instance.
///
/// [`AcceleratorConfig::paper`] is the synthesized design point of
/// Table II: a 16×16 systolic array at 250 MHz with 8-bit operands and
/// 8 MB of on-chip memory ([`AcceleratorConfig::ONCHIP_MEMORY_BYTES`]).
///
/// # Example
///
/// ```
/// use capsacc_core::AcceleratorConfig;
/// let cfg = AcceleratorConfig::paper();
/// assert_eq!((cfg.rows, cfg.cols), (16, 16));
/// assert_eq!(cfg.clock_mhz, 250);
/// cfg.validate().expect("paper config is valid");
/// ```
#[derive(Copy, Clone, PartialEq, Debug)]
pub struct AcceleratorConfig {
    /// Systolic array rows (the reduction dimension).
    pub rows: usize,
    /// Systolic array columns (the output dimension); also the number of
    /// accumulator units and of activation units, one of each per column
    /// (Sec. IV-C).
    pub cols: usize,
    /// Clock frequency in MHz (Table II: 250).
    pub clock_mhz: u64,
    /// Weight stream bandwidth into the Weight Buffer in bytes per cycle.
    /// In the closed form, layers whose weight footprint exceeds the
    /// Weight Buffer stream at this rate, which is what makes PrimaryCaps
    /// memory-bound. The engine fetches the weights from DRAM through the
    /// Weight SPM instead (`MemoryConfig`).
    pub weight_mem_bw: u64,
    /// Data Memory → Data Buffer bandwidth in bytes per cycle.
    pub data_mem_bw: u64,
    /// Routing Buffer port bandwidth in bytes per cycle (read + write
    /// each); bounds the softmax/update steps that sweep all 11 520
    /// coupling coefficients.
    pub routing_buf_bw: u64,
    /// Routing Buffer capacity in bytes. The Data and Weight Buffers are
    /// `memory.data_spm` and `memory.weight_spm`.
    pub routing_buffer_bytes: usize,
    /// Numeric format of the datapath: the fieldless [`NumericConfig`],
    /// whose fraction widths are constants.
    pub numeric: NumericConfig,
    /// Dataflow policy switches.
    pub dataflow: DataflowOptions,
    /// Execution backend of the tiled-matmul engine. Defaults to
    /// [`EngineBackend::Ticked`] (the RTL reference);
    /// [`EngineBackend::Functional`] is bit-identical and orders of
    /// magnitude faster in wall-clock time.
    pub backend: EngineBackend,
    /// Trace capture level. Defaults to [`TraceLevel::Full`];
    /// [`TraceLevel::Outputs`] skips the per-iteration routing
    /// snapshots on the serving hot path.
    pub trace_level: TraceLevel,
    /// Host-execution knobs of the `Functional` backend (threads and
    /// SIMD lane width). Never change simulated results — only host
    /// wall-clock speed.
    pub functional: FunctionalOptions,
    /// Memory-hierarchy model (`capsacc-memory`). Defaults to
    /// [`MemoryConfig::ideal`] — "IdealMemory", which keeps every cycle
    /// count and trace identical to the pre-hierarchy engine; switch to
    /// [`MemoryConfig::paper`] (or a swept point) for contention- and
    /// DRAM-accurate timing.
    pub memory: MemoryConfig,
}

impl AcceleratorConfig {
    /// Table II's on-chip memory capacity, 8 MB (as 8 MiB). Reported by
    /// `capsacc-power`'s Table II summary; nothing simulated reads it.
    pub const ONCHIP_MEMORY_BYTES: usize = 8 * 1024 * 1024;

    /// The synthesized 16×16 design point of Table II.
    pub fn paper() -> Self {
        Self {
            rows: 16,
            cols: 16,
            clock_mhz: 250,
            weight_mem_bw: 8,
            data_mem_bw: 8,
            routing_buf_bw: 4,
            routing_buffer_bytes: 64 * 1024,
            numeric: NumericConfig::default(),
            dataflow: DataflowOptions::default(),
            backend: EngineBackend::default(),
            trace_level: TraceLevel::default(),
            functional: FunctionalOptions::default(),
            memory: MemoryConfig::ideal(),
        }
    }

    /// A small 4×4 instance used by the cycle-accurate unit tests.
    pub fn test_4x4() -> Self {
        let mut cfg = Self {
            rows: 4,
            cols: 4,
            routing_buffer_bytes: 4 * 1024,
            ..Self::paper()
        };
        (cfg.memory.data_spm.bytes, cfg.memory.weight_spm.bytes) = (16 * 1024, 2 * 1024);
        cfg
    }

    /// Cycle period in microseconds.
    pub fn cycle_us(&self) -> f64 {
        1.0 / self.clock_mhz as f64
    }

    /// Converts a cycle count to microseconds at the configured clock.
    pub fn cycles_to_us(&self, cycles: u64) -> f64 {
        cycles as f64 * self.cycle_us()
    }

    /// Total number of processing elements.
    pub fn pe_count(&self) -> usize {
        self.rows * self.cols
    }

    /// Whether consecutive tiles can actually pipeline: the dataflow
    /// switch must be on **and** the Weight Buffer must hold two tiles
    /// (the double buffer the overlap physically needs). Undersized
    /// buffers degrade to the serial schedule instead of assuming free
    /// overlap. Both cycle models pick their tile schedule here: the
    /// closed form ([`crate::timing`]) and the engine, which pipelines
    /// when this holds and `weight_reuse` is on.
    pub fn tiles_pipeline(&self) -> bool {
        self.dataflow.pipelined_tiles && 2 * self.rows * self.cols <= self.memory.weight_spm.bytes
    }

    /// Validates the configuration.
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint (zero
    /// dimensions, zero bandwidths, memory inconsistencies, or a weight
    /// tile larger than the Weight Buffer).
    pub fn validate(&self) -> Result<(), String> {
        if self.rows == 0 || self.cols == 0 {
            return Err("systolic array dimensions must be non-zero".into());
        }
        if self.clock_mhz == 0 {
            return Err("clock frequency must be non-zero".into());
        }
        if self.weight_mem_bw == 0 || self.data_mem_bw == 0 || self.routing_buf_bw == 0 {
            return Err("memory bandwidths must be non-zero".into());
        }
        self.memory.validate()?;
        let tile = self.rows.saturating_mul(self.cols);
        let buffer = self.memory.weight_spm.bytes;
        if tile > buffer {
            return Err(format!(
                "a {}x{} weight tile ({tile} B) exceeds the {buffer} B Weight Buffer",
                self.rows, self.cols
            ));
        }
        Ok(())
    }
}

impl Default for AcceleratorConfig {
    fn default() -> Self {
        Self::paper()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_config_matches_table2() {
        let c = AcceleratorConfig::paper();
        assert_eq!(c.pe_count(), 256);
        assert_eq!(c.clock_mhz, 250);
        assert_eq!(AcceleratorConfig::ONCHIP_MEMORY_BYTES, 8 * 1024 * 1024);
        assert_eq!(c.cycle_us(), 0.004);
    }

    #[test]
    fn cycles_to_us() {
        let c = AcceleratorConfig::paper();
        assert_eq!(c.cycles_to_us(250), 1.0);
        assert_eq!(c.cycles_to_us(250_000), 1000.0);
    }

    #[test]
    fn validation_catches_bad_configs() {
        let mut c = AcceleratorConfig::paper();
        c.rows = 0;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::paper();
        c.weight_mem_bw = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn memory_validation_is_wired_into_accelerator_validation() {
        // A zero-bandwidth or zero-burst DRAM channel divides by zero in
        // the channel cycle math: `AcceleratorConfig::validate` must
        // surface `MemoryConfig::validate`'s rejection, so no engine can
        // be constructed around a divide-by-zero hierarchy.
        let mut c = AcceleratorConfig::paper();
        c.memory.dram.bytes_per_cycle = 0;
        assert!(c.validate().unwrap_err().contains("DRAM"));
        let mut c = AcceleratorConfig::paper();
        c.memory.dram.burst_bytes = 0;
        assert!(c.validate().unwrap_err().contains("DRAM"));
        let mut c = AcceleratorConfig::paper();
        c.memory.prefetch_buffers = 0;
        assert!(c.validate().is_err());
        let mut c = AcceleratorConfig::paper();
        c.memory.weight_spm.banks = 0;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_refuses_a_tile_larger_than_the_weight_buffer() {
        // The Weight Buffer must hold one resident `rows × cols` tile:
        // a 64×64 array's 4 KiB tile cannot sit in test_4x4's 2 KiB.
        let mut c = AcceleratorConfig::test_4x4();
        (c.rows, c.cols) = (64, 64);
        let err = c.validate().unwrap_err();
        assert!(err.contains("4096 B") && err.contains("2048 B"), "{err}");
        (c.rows, c.cols) = (16, 16);
        c.validate()
            .expect("a 256 B tile fits a 2 KiB Weight Buffer");
    }

    #[test]
    #[should_panic(expected = "invalid accelerator configuration")]
    fn accelerator_refuses_divide_by_zero_memory() {
        let mut c = AcceleratorConfig::test_4x4();
        c.memory.dram.burst_bytes = 0;
        let _ = crate::Accelerator::new(c);
    }

    #[test]
    fn default_dataflow_enables_all_reuse() {
        let d = DataflowOptions::default();
        assert!(d.weight_reuse && d.pipelined_tiles && d.routing_feedback && d.skip_first_softmax);
    }

    #[test]
    fn test_config_is_valid() {
        AcceleratorConfig::test_4x4().validate().unwrap();
    }

    #[test]
    fn functional_options_default_to_auto() {
        // The host-execution knobs default to auto everywhere; any
        // setting validates because none can change simulated results.
        let c = AcceleratorConfig::paper();
        assert_eq!(c.functional, FunctionalOptions::default());
        assert_eq!(c.functional.threads, 0);
        assert_eq!(c.functional.simd, SimdMode::Auto);
        let mut forced = c;
        forced.functional = FunctionalOptions {
            threads: 7,
            simd: SimdMode::Scalar,
        };
        forced.validate().expect("host knobs are always valid");
    }

    #[test]
    fn defaults_are_ticked_and_fully_traced() {
        // The reference behaviors stay the defaults: existing callers
        // (and every pinned digest) see the RTL backend and full traces
        // unless they opt out.
        let c = AcceleratorConfig::paper();
        assert_eq!(c.backend, EngineBackend::Ticked);
        assert_eq!(c.trace_level, TraceLevel::Full);
        let mut fast = c;
        fast.backend = EngineBackend::Functional;
        fast.trace_level = TraceLevel::Outputs;
        fast.validate().expect("backend choice is always valid");
    }
}
