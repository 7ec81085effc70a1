//! Property-based integration tests: the cycle-accurate engine's matmul
//! agrees bit-for-bit with the quantized reference operators over random
//! shapes, operands, shifts and array geometries.

use capsacc::core::{Accelerator, AcceleratorConfig, ActivationKind};
use capsacc::tensor::{qops, Tensor};
use proptest::prelude::*;

fn random_tensor(shape: &[usize], seed: u64) -> Tensor<i8> {
    let mut s = seed | 1;
    Tensor::from_fn(shape, move |_| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        (s >> 56) as i8
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn engine_matmul_matches_qops(
        m in 1usize..7,
        k in 1usize..20,
        n in 1usize..10,
        rows in 1usize..6,
        cols in 1usize..6,
        shift in 4u32..9,
        seed in any::<u64>(),
    ) {
        let a = random_tensor(&[m, k], seed);
        let b = random_tensor(&[k, n], seed.rotate_left(17));
        let (want, stats) = qops::matmul_q8(&a, &b, shift);
        prop_assume!(stats.saturations == 0);

        let mut cfg = AcceleratorConfig::test_4x4();
        cfg.rows = rows;
        cfg.cols = cols;
        let mut acc = Accelerator::new(cfg);
        let (got, _) = acc.matmul_batch(
            1,
            &|_, mi, ki| a[[mi, ki]],
            &|ki, ni| b[[ki, ni]],
            m, k, n, None, shift, ActivationKind::Identity,
        );
        prop_assert_eq!(&got[0], &want);
        prop_assert_eq!(
            acc.traffic().counter(capsacc::core::MemoryKind::WeightBuffer).read_bytes,
            engine_expected_weight_bytes(m, k, n, rows, cols)
        );
    }

    #[test]
    fn engine_relu_matches_reference(
        m in 1usize..5,
        k in 1usize..10,
        n in 1usize..6,
        seed in any::<u64>(),
    ) {
        let a = random_tensor(&[m, k], seed);
        let b = random_tensor(&[k, n], seed ^ 0xABCD);
        let mut acc = Accelerator::new(AcceleratorConfig::test_4x4());
        let (got, _) = acc.matmul_batch(
            1,
            &|_, mi, ki| a[[mi, ki]],
            &|ki, ni| b[[ki, ni]],
            m, k, n, None, 6, ActivationKind::Relu,
        );
        let (ident, stats) = qops::matmul_q8(&a, &b, 6);
        prop_assume!(stats.saturations == 0);
        for (g, w) in got[0].data().iter().zip(ident.data()) {
            prop_assert_eq!(*g, (*w).max(0));
        }
    }

    #[test]
    fn engine_bias_is_additive_before_requantization(
        k in 1usize..8,
        bias in -2048i32..2048,
        seed in any::<u64>(),
    ) {
        let a = random_tensor(&[1, k], seed);
        let b = random_tensor(&[k, 1], seed ^ 0x1234);
        let mut acc = Accelerator::new(AcceleratorConfig::test_4x4());
        let (with_bias, _) = acc.matmul_batch(
            1,
            &|_, mi, ki| a[[mi, ki]],
            &|ki, ni| b[[ki, ni]],
            1, k, 1, Some(&[bias]), 6, ActivationKind::Identity,
        );
        let raw: i64 = (0..k).map(|i| a[[0, i]] as i64 * b[[i, 0]] as i64).sum();
        prop_assert_eq!(
            with_bias[0].data()[0],
            capsacc::fixed::requantize(raw + bias as i64, 6)
        );
    }
}

/// Weight-buffer bytes the engine reads for an `m × k × n` matmul on an
/// `rows × cols` array: one tile read per (K, N) tile pair, `kt · nt`
/// bytes each (the reuse-on accounting).
fn engine_expected_weight_bytes(_m: usize, k: usize, n: usize, rows: usize, cols: usize) -> u64 {
    let mut total = 0u64;
    let mut k0 = 0;
    while k0 < k {
        let kt = rows.min(k - k0);
        let mut n0 = 0;
        while n0 < n {
            let nt = cols.min(n - n0);
            total += (kt * nt) as u64;
            n0 += cols;
        }
        k0 += rows;
    }
    total
}
