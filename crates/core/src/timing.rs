//! The per-layer cycle view of one dry run.
//!
//! [`full_inference_batch_mem`] prices a batch with
//! [`Accelerator::price_batch`] — the engine's own charges, issued
//! without operands — and splits each layer into the cycles it spends
//! and the cycles it stalls on the memory hierarchy. It exists for
//! perfbench's `timing.*.model_minus_engine_cycles` rows, which subtract
//! an executed batch's layers from it: every row reads 0, because the
//! dry run is the engine. Retiring those rows is a benchmark change of
//! its own; everything else reads the [`crate::BatchRun`] of a run or a
//! dry run directly.
//!
//! # Example
//!
//! ```
//! use capsacc_core::{timing, AcceleratorConfig, MemoryConfig};
//! use capsacc_capsnet::CapsNetConfig;
//! let mut cfg = AcceleratorConfig::paper();
//! cfg.memory = MemoryConfig::paper();
//! let t = timing::full_inference_batch_mem(&cfg, &CapsNetConfig::mnist(), 1);
//! // PrimaryCaps (5.3 MB of weights for 36 output pixels) dominates.
//! assert!(t.base.primary_caps.cycles > t.base.conv1.cycles);
//! assert!(t.primary_caps_stall_cycles > 0);
//! ```

use capsacc_capsnet::CapsNetConfig;
use capsacc_tensor::usize_from;

use crate::config::AcceleratorConfig;
use crate::engine::{Accelerator, LayerRun};

/// A layer's cycles other than its memory stalls.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LayerTiming {
    /// Array, activation and transfer cycles.
    pub cycles: u64,
}

impl LayerTiming {
    fn of(layer: &LayerRun) -> Self {
        Self {
            cycles: layer.cycles() - layer.memory_stall_cycles,
        }
    }
}

/// The three layers of Fig. 16 without their memory stalls.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct BatchInferenceTiming {
    /// Conv1 for the whole batch.
    pub conv1: LayerTiming,
    /// PrimaryCaps for the whole batch.
    pub primary_caps: LayerTiming,
    class_caps: LayerTiming,
}

impl BatchInferenceTiming {
    /// ClassCaps cycles for the whole batch.
    pub fn class_caps_cycles(&self) -> u64 {
        self.class_caps.cycles
    }
}

/// One dry run's layers: the cycles each spends, and the cycles each
/// stalls on the memory hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct MemInferenceTiming {
    /// The layers' cycles other than their stalls.
    pub base: BatchInferenceTiming,
    /// Conv1 stalls (input staging and tile transactions).
    pub conv1_stall_cycles: u64,
    /// PrimaryCaps stalls.
    pub primary_caps_stall_cycles: u64,
    /// ClassCaps stalls (FC weight prefetch and routing operand bursts).
    pub class_caps_stall_cycles: u64,
}

/// Prices `batch` images under `cfg` with one dry run on a fresh
/// accelerator ([`Accelerator::price_batch`]) and reads its layers.
///
/// # Example
///
/// ```
/// use capsacc_core::{timing, AcceleratorConfig};
/// use capsacc_capsnet::CapsNetConfig;
/// let t = timing::full_inference_batch_mem(&AcceleratorConfig::paper(), &CapsNetConfig::mnist(), 16);
/// // Ideal memory (the default) never stalls.
/// assert_eq!(t.conv1_stall_cycles + t.primary_caps_stall_cycles + t.class_caps_stall_cycles, 0);
/// assert!(t.base.class_caps_cycles() > t.base.conv1.cycles);
/// ```
///
/// # Panics
///
/// Panics if `batch` is zero or `cfg` fails
/// [`AcceleratorConfig::validate`].
pub fn full_inference_batch_mem(
    cfg: &AcceleratorConfig,
    net: &CapsNetConfig,
    batch: u64,
) -> MemInferenceTiming {
    let run = Accelerator::new(*cfg)
        .price_batch(net, usize_from(batch))
        .expect("batch must be non-zero");
    let [conv1, primary_caps, class_caps] = [0, 1, 2].map(|i| &run.layers[i]);
    MemInferenceTiming {
        base: BatchInferenceTiming {
            conv1: LayerTiming::of(conv1),
            primary_caps: LayerTiming::of(primary_caps),
            class_caps: LayerTiming::of(class_caps),
        },
        conv1_stall_cycles: conv1.memory_stall_cycles,
        primary_caps_stall_cycles: primary_caps.memory_stall_cycles,
        class_caps_stall_cycles: class_caps.memory_stall_cycles,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{ActivationUnit, BatchRun, MemoryConfig, MemoryKind, RoutingStep};

    fn cfg() -> AcceleratorConfig {
        AcceleratorConfig::paper()
    }

    fn mnist() -> CapsNetConfig {
        CapsNetConfig::mnist()
    }

    /// One dry run of `batch` images on a fresh accelerator.
    fn price(cfg: &AcceleratorConfig, net: &CapsNetConfig, batch: usize) -> BatchRun {
        Accelerator::new(*cfg)
            .price_batch(net, batch)
            .expect("non-empty batch")
    }

    /// The cycles of the steps `want` selects.
    fn steps(run: &BatchRun, want: fn(&RoutingStep) -> bool) -> u64 {
        run.steps
            .iter()
            .filter(|(s, _)| want(s))
            .map(|&(_, c)| c)
            .sum()
    }

    #[test]
    fn serial_matmul_formula() {
        // With serial tiles every tile pays an `R + 1`-edge load and a
        // `batch·M + R + C`-edge stream (Sec. IV-A): the tiny Conv1 on
        // the 4×4 array.
        let net = CapsNetConfig::tiny();
        let mut c = AcceleratorConfig::test_4x4();
        c.dataflow.pipelined_tiles = false;
        let g = net.conv1_geometry();
        for batch in [1, 3] {
            let tiles = g.patch_len().div_ceil(4) * g.out_ch.div_ceil(4);
            let per_tile = 5 + batch * g.patches() + 8;
            let conv1 = &price(&c, &net, batch).layers[0];
            assert_eq!(
                conv1.array_cycles,
                (tiles * per_tile) as u64,
                "batch {batch}"
            );
        }
    }

    #[test]
    fn pipelined_is_never_slower() {
        let mut serial = cfg();
        serial.dataflow.pipelined_tiles = false;
        for batch in [1, 16] {
            let (p, s) = (
                price(&cfg(), &mnist(), batch),
                price(&serial, &mnist(), batch),
            );
            for (lp, ls) in p.layers.iter().zip(&s.layers) {
                assert!(lp.cycles() <= ls.cycles(), "{} at batch {batch}", lp.name);
            }
            assert!(p.total_cycles() < s.total_cycles(), "batch {batch}");
        }
    }

    #[test]
    fn conv1_is_compute_bound() {
        // Under the paper's memory hierarchy Conv1's 20 KiB of weights
        // and its input image add under 1% to its array cycles.
        let mut c = cfg();
        c.memory = MemoryConfig::paper();
        let conv1 = &price(&c, &mnist(), 1).layers[0];
        assert!(conv1.memory_stall_cycles > 0);
        assert!(100 * conv1.memory_stall_cycles < conv1.cycles());
    }

    #[test]
    fn routing_steps_sequence_matches_fig17() {
        let run = price(&cfg(), &mnist(), 1);
        let names: Vec<String> = run.steps.iter().map(|(s, _)| s.to_string()).collect();
        assert_eq!(
            names,
            vec![
                "Load", "FC", "Softmax1", "Sum1", "Squash1", "Update1", "Softmax2", "Sum2",
                "Squash2", "Update2", "Softmax3", "Sum3", "Squash3",
            ]
        );
    }

    #[test]
    fn feedback_reuse_eliminates_data_memory_rereads() {
        let with = price(&cfg(), &mnist(), 1);
        let mut c = cfg();
        c.dataflow.routing_feedback = false;
        let without = price(&c, &mnist(), 1);
        let dm = |run: &BatchRun| run.traffic.counter(MemoryKind::DataMemory).read_bytes;
        // The two later Sums and the two Updates re-read the
        // 184,320-byte û from the Data Memory without the feedback path.
        assert_eq!(dm(&without) - dm(&with), 4 * 184_320);
        assert!(without.total_cycles() >= with.total_cycles());
    }

    #[test]
    fn load_step_matches_u_hat_footprint() {
        // 1152 · 10 · 16 bytes at 8 B/cycle = 23 040 cycles ≈ 92 µs at
        // 250 MHz — the paper reports the CapsAcc Load as ~9% faster than
        // the GPU's ~100 µs.
        let run = price(&cfg(), &mnist(), 1);
        assert_eq!(run.steps[0], (RoutingStep::Load, 23_040));
    }

    #[test]
    fn full_inference_totals_are_consistent() {
        let run = price(&cfg(), &mnist(), 1);
        let layers: u64 = run.layers.iter().map(LayerRun::cycles).sum();
        assert_eq!(run.total_cycles(), layers);
        // Total inference lands in the single-digit-millisecond regime at
        // 250 MHz, like the paper's.
        let ms = cfg().cycles_to_us(run.total_cycles()) / 1000.0;
        assert!((1.0..10.0).contains(&ms), "total = {ms} ms");
    }

    #[test]
    fn squash_step_is_negligible() {
        // The headline effect: squashing goes from the GPU bottleneck to
        // a negligible cost on CapsAcc.
        let run = price(&cfg(), &mnist(), 1);
        let squash = steps(&run, |s| matches!(s, RoutingStep::Squash(_)));
        assert!((squash as f64) < 0.01 * steps(&run, |_| true) as f64);
    }

    #[test]
    fn batched_matmul_amortizes_tile_loads() {
        // Residency across the batch: PrimaryCaps' tiles load once per
        // batch, so `B` images cost less than `B` batches of one, and
        // every weight byte crosses the off-chip channel once per batch.
        let b1 = price(&cfg(), &mnist(), 1);
        for batch in [2, 4, 16] {
            let b = price(&cfg(), &mnist(), batch);
            let per_batch = b.layers[1].array_cycles;
            assert!(per_batch < batch as u64 * b1.layers[1].array_cycles);
            assert_eq!(b.memory.dram_weight_bytes, b1.memory.dram_weight_bytes);
        }
        // Without weight reuse the engine runs every tile serially, still
        // once per batch: no per-row reloads.
        let (mut no_reuse, mut serial) = (cfg(), cfg());
        no_reuse.dataflow.weight_reuse = false;
        serial.dataflow.pipelined_tiles = false;
        assert_eq!(
            price(&no_reuse, &mnist(), 8).layers,
            price(&serial, &mnist(), 8).layers
        );
    }

    #[test]
    fn batched_primarycaps_amortizes_weight_stream() {
        // PrimaryCaps moves 5.3 MB of weights for only 36 output pixels.
        // Layer-major batching fetches them once per batch, so at batch
        // 16 its per-image cycles fall, under either memory model.
        for memory in [MemoryConfig::ideal(), MemoryConfig::paper()] {
            let c = AcceleratorConfig { memory, ..cfg() };
            let (b1, b16) = (price(&c, &mnist(), 1), price(&c, &mnist(), 16));
            assert_eq!(b16.memory.dram_weight_bytes, b1.memory.dram_weight_bytes);
            let (pc1, pc16) = (b1.layers[1].cycles(), b16.layers[1].cycles());
            assert!((pc16 as f64 / 16.0) < pc1 as f64, "{:?}", memory.mode);
        }
    }

    #[test]
    fn batched_fc_amortizes_weight_stream() {
        let fc = |batch| steps(&price(&cfg(), &mnist(), batch), |s| *s == RoutingStep::Fc);
        // The 1.47 MB of W_ij stream once per batch.
        assert!((fc(16) as f64 / 16.0) < 0.2 * fc(1) as f64);
        // Per-image routing steps scale linearly.
        let sums = |batch| {
            let run = price(&cfg(), &mnist(), batch);
            steps(&run, |s| matches!(s, RoutingStep::Sum(_)))
        };
        assert_eq!(sums(16), 16 * sums(1));
    }

    #[test]
    fn undersized_weight_buffer_disables_pipelining() {
        // A buffer that holds one tile but not two cannot double-buffer:
        // the pipelined schedule must fall back to the serial one.
        let net = CapsNetConfig::tiny();
        let mut c = AcceleratorConfig::test_4x4();
        c.memory.weight_spm.bytes = 24; // 16 B tile fits, 32 B double buffer does not
        let mut serial = c;
        serial.dataflow.pipelined_tiles = false;
        assert_eq!(price(&c, &net, 1).layers, price(&serial, &net, 1).layers);
        // With room for the double buffer, pipelining resumes.
        c.memory.weight_spm.bytes = 32;
        assert!(price(&c, &net, 1).total_cycles() < price(&serial, &net, 1).total_cycles());
    }

    #[test]
    fn ideal_memory_model_adds_no_stalls() {
        let net = mnist();
        for batch in [1usize, 4, 16] {
            let t = full_inference_batch_mem(&cfg(), &net, batch as u64);
            let stalls = t.conv1_stall_cycles + t.primary_caps_stall_cycles;
            assert_eq!(stalls + t.class_caps_stall_cycles, 0);
            // The off-chip split is still counted: every parameter byte
            // (weights + biases) once per batch, inputs once per image.
            let run = price(&cfg(), &net, batch);
            assert_eq!(run.memory.stall_cycles, 0);
            assert_eq!(run.memory.dram_weight_bytes, net.total_parameters() as u64);
            assert_eq!(
                run.memory.dram_data_bytes,
                (batch * net.conv1_geometry().input_len()) as u64
            );
        }
    }

    #[test]
    fn finite_memory_model_stalls_and_prefetch_recovers() {
        let mut finite = cfg();
        finite.memory = MemoryConfig::paper();
        let mut naive = finite;
        naive.memory.prefetch_buffers = 1;
        let ideal = price(&cfg(), &mnist(), 16);
        let run = price(&finite, &mnist(), 16);
        let naive = price(&naive, &mnist(), 16).memory.stall_cycles;
        let stalls = run.memory.stall_cycles;
        assert!(stalls > 0);
        assert_eq!(run.total_cycles(), ideal.total_cycles() + stalls);
        // The acceptance anchor: double buffering recovers at least half
        // of the naive (no-prefetch) stall cycles at batch 16.
        assert!(
            2 * stalls <= naive,
            "prefetch recovered too little: {stalls} vs naive {naive}"
        );
        // Per-layer stalls decompose the total, and the timing view
        // reads them.
        let t = full_inference_batch_mem(&finite, &mnist(), 16);
        let layers = [0, 1, 2].map(|i| run.layers[i].memory_stall_cycles);
        assert_eq!(
            [
                t.conv1_stall_cycles,
                t.primary_caps_stall_cycles,
                t.class_caps_stall_cycles
            ],
            layers
        );
        assert_eq!(layers.iter().sum::<u64>(), stalls);
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
        let _ = price(&cfg(), &net, 1);
    }

    #[test]
    fn checked_products_are_exact_in_range() {
        // The audit must not perturb any in-range figure: spot-check the
        // paper design point against hand-computed values.
        let run = price(&cfg(), &mnist(), 1);
        assert_eq!(run.steps[0].1, 23_040); // Load: 184 320 B at 8 B/cy
        assert_eq!(steps(&run, |_| true), run.layers[2].cycles());
        assert_eq!(
            run.traffic.counter(MemoryKind::RoutingBuffer).write_bytes,
            58_080
        );
    }

    #[test]
    fn activation_units_follow_the_array_width() {
        // One activation unit per array column: an 8-column array
        // squashes MNIST's 1,152 primary capsules eight at a time.
        let mut c = cfg();
        c.cols = 8;
        assert_eq!(
            price(&c, &mnist(), 1).layers[1].activation_cycles,
            1152u64.div_ceil(8) * ActivationUnit::squash_cycles(8)
        );
    }

    #[test]
    #[should_panic(expected = "invalid accelerator configuration")]
    fn closed_form_refuses_what_validate_refuses() {
        // A 256×256 array's 64 KiB tile cannot be resident in the
        // paper's 24 KiB Weight Buffer: `validate` refuses it, and the
        // timing view refuses to price it, in every build.
        let mut c = cfg();
        (c.rows, c.cols) = (256, 256);
        let _ = full_inference_batch_mem(&c, &mnist(), 1);
    }

    #[test]
    fn bigger_arrays_do_not_slow_compute_bound_layers() {
        let base = price(&cfg(), &mnist(), 1).layers[0].cycles();
        let mut big = cfg();
        big.rows = 32;
        big.cols = 32;
        assert!(price(&big, &mnist(), 1).layers[0].cycles() < base);
    }
}
