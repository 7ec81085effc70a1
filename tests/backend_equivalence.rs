//! Differential tests for the engine's execution backends: for any
//! matmul shape, array geometry, batch size and operand distribution —
//! including workloads crafted to clip the 25-bit partial-sum datapath —
//! `EngineBackend::Functional` must be **bit-identical** to
//! `EngineBackend::Ticked`: same outputs, same per-image saturation
//! attribution, same cycle counts, same traffic. Saturation is
//! order-sensitive (`sat(sat(a+b)+c) != sat(a+b+c)` in general), so
//! these tests are what pins the functional fold to the PE datapath's
//! fixed north→south order rather than to "a matmul with a clamp".
//!
//! The functional backend's host-execution knobs are additional axes
//! of the same invariant: every thread count (1/2/4/7, including the
//! ragged-chunk case) and every SIMD mode (explicit-vector vs scalar)
//! must be byte-invisible — same outputs, same saturation attribution,
//! same cycles and traffic, same golden trace digests.

use capsacc::capsnet::{CapsNetConfig, CapsNetParams};
use capsacc::core::{
    Accelerator, AcceleratorConfig, ActivationKind, BatchScheduler, EngineBackend,
    FunctionalOptions, MemoryConfig, SimdMode, TraceLevel,
};
use proptest::prelude::*;

mod common;
use common::trace_digests;

fn functional(mut cfg: AcceleratorConfig) -> AcceleratorConfig {
    cfg.backend = EngineBackend::Functional;
    cfg
}

/// Runs one batched matmul on both backends and asserts every
/// observable is equal: outputs, per-image saturations, the cycle
/// ledger (array, activation, transfer and stall cycles) and traffic
/// counters.
#[allow(clippy::too_many_arguments)]
fn assert_matmul_backends_agree(
    cfg: AcceleratorConfig,
    batch: usize,
    data: &dyn Fn(usize, usize, usize) -> i8,
    weight: &dyn Fn(usize, usize) -> i8,
    m: usize,
    k: usize,
    n: usize,
    shift: u32,
) -> u64 {
    let mut ticked = Accelerator::new(cfg);
    let (want_outs, want_sats) = ticked.matmul_batch(
        batch,
        data,
        weight,
        m,
        k,
        n,
        None,
        shift,
        ActivationKind::Identity,
    );
    let mut fast = Accelerator::new(functional(cfg));
    let (got_outs, got_sats) = fast.matmul_batch(
        batch,
        data,
        weight,
        m,
        k,
        n,
        None,
        shift,
        ActivationKind::Identity,
    );
    assert_eq!(got_outs, want_outs, "outputs diverged at ({m},{k},{n})");
    assert_eq!(got_sats, want_sats, "saturation attribution diverged");
    assert_eq!(fast.ledger(), ticked.ledger(), "cycle ledger");
    assert_eq!(fast.traffic(), ticked.traffic(), "traffic counters");
    want_sats.iter().sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The headline differential property: random shapes × array sizes
    /// × batch sizes, every observable bit-identical.
    #[test]
    fn functional_matmul_equals_ticked(
        m in 1usize..7,
        k in 1usize..40,
        n in 1usize..10,
        rows in 1usize..6,
        cols in 1usize..6,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        cfg.cols = cols;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 56) as i8
        };
        let d: Vec<i8> = (0..batch * m * k).map(|_| next()).collect();
        let w: Vec<i8> = (0..k * n).map(|_| next()).collect();
        assert_matmul_backends_agree(
            cfg,
            batch,
            &|img, mi, ki| d[(img * m + mi) * k + ki],
            &|ki, ni| w[ki * n + ni],
            m, k, n, 6,
        );
    }

    /// Saturation-adversarial generator: near-maximal operands over
    /// reductions deep enough that the running sum is guaranteed to
    /// cross +2^24 (which takes ≥1040 consecutive 127·127 products),
    /// with one seeded negative block per (image, row) dragging it back
    /// down — the regime where a fold in the wrong order (or a clamp
    /// applied at the end instead of per step) produces different
    /// numbers and different saturation counts.
    #[test]
    fn functional_matmul_equals_ticked_under_saturation(
        m in 1usize..3,
        k in 1300usize..2200,
        n in 1usize..5,
        rows in 2usize..6,
        batch in 1usize..3,
        block in 20usize..100,
        seed in any::<u64>(),
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        cfg.cols = 4;
        // ≥ (k − block) positive products of ≥ 125·127 each: the climb
        // crosses the clip no matter where the negative block lands.
        let start = seed as usize % (k - block);
        let data = move |img: usize, mi: usize, ki: usize| -> i8 {
            let s = (start + 17 * (img + mi)) % (k - block);
            if (s..s + block).contains(&ki) { -127 } else { 127 }
        };
        let weight = move |ki: usize, ni: usize| -> i8 {
            if (ki + ni).is_multiple_of(2) { 127 } else { 125 }
        };
        // Shift 18 keeps distinct 25-bit sums distinct after the output
        // requantization (shift 6 would clamp everything to ±127 and
        // mask a divergence).
        let sats = assert_matmul_backends_agree(cfg, batch, &data, &weight, m, k, n, 18);
        // The generator must actually reach the 25-bit clip, otherwise
        // this proptest degenerates to the plain differential one.
        prop_assert!(sats > 0, "adversarial workload failed to saturate");
    }

    /// Full tiny-network inferences across random seeds and both
    /// routing variants: entire `BatchRun`s equal.
    #[test]
    fn functional_inference_equals_ticked(
        seed in 0u64..1000,
        skip_first_softmax in any::<bool>(),
    ) {
        let net = CapsNetConfig::tiny();
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.dataflow.skip_first_softmax = skip_first_softmax;
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        let image = net.test_image(seed as usize);
        let mut ticked = Accelerator::new(cfg);
        let want = ticked
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        let mut fast = Accelerator::new(functional(cfg));
        let got = fast
            .run_batch(&net, &qparams, std::slice::from_ref(&image))
            .expect("valid image");
        prop_assert_eq!(got, want, "seed {}", seed);
    }
}

#[test]
fn in_array_saturation_pins_the_north_south_fold() {
    // The Pe-level clip only fires once a single K-tile's running psum
    // exceeds ±2^24, which needs >1040 consecutive 127·127 products —
    // taller than any realistic array, so the proptests above exercise
    // the *accumulator* fold. This case builds a 1100-row array so the
    // saturation happens **inside** the tile fold: the sum climbs to
    // the positive clip, then negative products drag it back down.
    // An end-clamped exact sum gives a different answer, which is what
    // proves the test distinguishes fold orders at all.
    let (m, k, n) = (2usize, 1100usize, 2usize);
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.rows = k; // single K-tile: all the folding happens in-array
    cfg.cols = 2;
    cfg.memory.weight_spm.bytes = 2 * k * 2; // keep the tile-fits invariant
    let data = |_img: usize, _mi: usize, ki: usize| -> i8 {
        if ki < 1060 {
            127
        } else {
            -127
        }
    };
    let weight = |_ki: usize, _ni: usize| -> i8 { 127 };

    // The order-sensitivity witness: per-step saturation != end clamp,
    // and the difference survives the shift-18 output requantization.
    let exact: i64 = (0..k).map(|ki| data(0, 0, ki) as i64 * 127).sum();
    let end_clamped = exact.clamp(-(1 << 24), (1 << 24) - 1);
    let mut stepped = 0i64;
    for ki in 0..k {
        stepped = (stepped + data(0, 0, ki) as i64 * 127).clamp(-(1 << 24), (1 << 24) - 1);
    }
    assert_ne!(
        capsacc::fixed::requantize(stepped, 18),
        capsacc::fixed::requantize(end_clamped, 18),
        "workload does not distinguish fold orders"
    );

    assert_matmul_backends_agree(cfg, 1, &data, &weight, m, k, n, 18);
}

#[test]
fn functional_batch_runs_agree_under_finite_memory() {
    // The backend choice composes with the memory hierarchy: under the
    // finite paper MemoryConfig the stall replay is charged identically
    // (it never touches the array), so whole BatchRuns stay equal.
    let net = CapsNetConfig::tiny();
    let mut cfg = AcceleratorConfig::test_4x4();
    cfg.memory = MemoryConfig::paper();
    let qparams = CapsNetParams::generate(&net, 17).quantize(cfg.numeric);
    let images: Vec<_> = (0..4).map(|s| net.test_image(s)).collect();
    let mut ticked = BatchScheduler::new(cfg);
    let want = ticked.run(&net, &qparams, &images).expect("valid batch");
    let mut fast = BatchScheduler::new(functional(cfg));
    let got = fast.run(&net, &qparams, &images).expect("valid batch");
    assert_eq!(got, want);
    assert!(
        got.memory.stall_cycles > 0,
        "finite memory should stall — otherwise this tests nothing"
    );
}

/// The host-execution axes the functional backend must be invariant
/// over. 7 is deliberately coprime with the row counts in play, so the
/// per-thread row chunks land unevenly and the last chunk is ragged.
const THREAD_AXIS: [usize; 4] = [1, 2, 4, 7];
const SIMD_AXIS: [SimdMode; 2] = [SimdMode::Auto, SimdMode::Scalar];

fn functional_with(mut cfg: AcceleratorConfig, opts: FunctionalOptions) -> AcceleratorConfig {
    cfg.backend = EngineBackend::Functional;
    cfg.functional = opts;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Parallel equivalence on random shapes: every thread count ×
    /// SIMD mode produces observables bit-identical to the ticked
    /// reference (and therefore to each other). This is the host-knob
    /// generalization of `functional_matmul_equals_ticked`.
    #[test]
    fn threaded_simd_matmuls_equal_ticked(
        m in 1usize..7,
        k in 1usize..40,
        n in 1usize..10,
        rows in 1usize..6,
        batch in 1usize..4,
        seed in any::<u64>(),
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 56) as i8
        };
        let d: Vec<i8> = (0..batch * m * k).map(|_| next()).collect();
        let w: Vec<i8> = (0..k * n).map(|_| next()).collect();
        for threads in THREAD_AXIS {
            for simd in SIMD_AXIS {
                let mut v = cfg;
                v.functional = FunctionalOptions { threads, simd };
                assert_matmul_backends_agree(
                    v,
                    batch,
                    &|img, mi, ki| d[(img * m + mi) * k + ki],
                    &|ki, ni| w[ki * n + ni],
                    m, k, n, 6,
                );
            }
        }
    }

    /// The saturation-adversarial workload across the same host axes:
    /// a row split or lane width that perturbed the fold order would
    /// change the clipped values, and this generator is built so such
    /// a change survives requantization.
    #[test]
    fn threaded_simd_matmuls_equal_ticked_under_saturation(
        k in 1300usize..1800,
        rows in 2usize..6,
        block in 20usize..100,
        seed in any::<u64>(),
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        cfg.cols = 4;
        let start = seed as usize % (k - block);
        let data = move |img: usize, mi: usize, ki: usize| -> i8 {
            let s = (start + 17 * (img + mi)) % (k - block);
            if (s..s + block).contains(&ki) { -127 } else { 127 }
        };
        let weight = move |ki: usize, ni: usize| -> i8 {
            if (ki + ni).is_multiple_of(2) { 127 } else { 125 }
        };
        for threads in THREAD_AXIS {
            for simd in SIMD_AXIS {
                let mut v = cfg;
                v.functional = FunctionalOptions { threads, simd };
                let sats = assert_matmul_backends_agree(v, 2, &data, &weight, 2, k, 3, 18);
                prop_assert!(sats > 0, "adversarial workload failed to saturate");
            }
        }
    }

    /// Zero-heavy data panels are invisible across the host axes: the
    /// zero-skipping scalar fold and the dense SIMD sweep are bit-equal
    /// to the ticked reference on every panel. The generator mixes
    /// zero-heavy and dense panels so every SIMD mode runs against
    /// both panel kinds.
    #[test]
    fn zero_heavy_panels_are_bit_equal(
        m in 1usize..6,
        k in 1usize..40,
        n in 1usize..8,
        rows in 1usize..6,
        zero_pct in 0u8..100,
        seed in any::<u64>(),
    ) {
        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        let mut s = seed | 1;
        let mut next = move || {
            s = s.wrapping_mul(6364136223846793005).wrapping_add(1);
            (s >> 56) as i8
        };
        let d: Vec<i8> = (0..2 * m * k)
            .map(|_| {
                let v = next();
                if (next() as u8) % 100 < zero_pct { 0 } else { v }
            })
            .collect();
        let w: Vec<i8> = (0..k * n).map(|_| next()).collect();
        for simd in SIMD_AXIS {
            let mut v = cfg;
            v.functional = FunctionalOptions { simd, ..FunctionalOptions::default() };
            assert_matmul_backends_agree(
                v,
                2,
                &|img, mi, ki| d[(img * m + mi) * k + ki],
                &|ki, ni| w[ki * n + ni],
                m, k, n, 6,
            );
        }
    }

    /// Whole `BatchRun`s across the host axes: outputs, per-layer
    /// cycles, routing steps, traffic, memory report and the per-image
    /// golden trace digests all byte-identical to the ticked run.
    #[test]
    fn threaded_batch_runs_are_byte_identical(
        seed in 0u64..500,
        batch in 1usize..4,
    ) {
        let net = CapsNetConfig::tiny();
        let cfg = AcceleratorConfig::test_4x4();
        let qparams = CapsNetParams::generate(&net, seed).quantize(cfg.numeric);
        let images: Vec<_> = (0..batch)
            .map(|s| net.test_image(s + seed as usize))
            .collect();
        let want = BatchScheduler::new(cfg)
            .run(&net, &qparams, &images)
            .expect("valid batch");
        let want_digests: Vec<_> = want.traces.iter().map(trace_digests).collect();
        for threads in THREAD_AXIS {
            for simd in SIMD_AXIS {
                let opts = FunctionalOptions { threads, simd };
                let got = BatchScheduler::new(functional_with(cfg, opts))
                    .run(&net, &qparams, &images)
                    .expect("valid batch");
                prop_assert_eq!(&got, &want, "threads {} simd {:?}", threads, simd);
                let got_digests: Vec<_> = got.traces.iter().map(trace_digests).collect();
                prop_assert_eq!(&got_digests, &want_digests);
            }
        }
    }
}

#[test]
fn functional_untraced_serving_config_keeps_outputs() {
    // The serving configuration (Functional + TraceLevel::Outputs)
    // against the fully-traced ticked reference: final outputs and all
    // accounting equal; only the iteration snapshots are absent.
    let net = CapsNetConfig::tiny();
    let cfg = AcceleratorConfig::test_4x4();
    let qparams = CapsNetParams::generate(&net, 31).quantize(cfg.numeric);
    let image = net.test_image(31);
    let mut reference = Accelerator::new(cfg);
    let want = reference
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
    let mut serving_cfg = functional(cfg);
    serving_cfg.trace_level = TraceLevel::Outputs;
    let mut serving = Accelerator::new(serving_cfg);
    let got = serving
        .run_batch(&net, &qparams, std::slice::from_ref(&image))
        .expect("valid image");
    assert!(got.traces[0].iterations.is_empty());
    assert_eq!(got.traces[0].output, want.traces[0].output);
    assert_eq!(got.traces[0].u_hat, want.traces[0].u_hat);
    assert_eq!(got.layers, want.layers);
    assert_eq!(got.steps, want.steps);
    assert_eq!(got.traffic, want.traffic);
}
