//! Network parameters: float generation and 8-bit quantization.

use capsacc_fixed::{Data8, NumericConfig, Weight8};
use capsacc_tensor::Tensor;

use crate::arch::CapsNetConfig;

/// SplitMix64 — a tiny deterministic PRNG so parameter generation does
/// not pull in external dependencies. Used only for pseudo-trained
/// weights, whose values the paper's evaluation never depends on.
#[derive(Copy, Clone, Debug)]
struct SplitMix64(u64);

impl SplitMix64 {
    fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[-bound, bound)`.
    fn uniform(&mut self, bound: f32) -> f32 {
        let u = (self.next_u64() >> 40) as f32 / (1u64 << 24) as f32; // [0,1)
        (2.0 * u - 1.0) * bound
    }
}

/// Floating-point parameters of a CapsuleNet instance.
///
/// # Example
///
/// ```
/// use capsacc_capsnet::{CapsNetConfig, CapsNetParams};
/// let cfg = CapsNetConfig::tiny();
/// let params = CapsNetParams::generate(&cfg, 42);
/// assert_eq!(params.parameter_count(), cfg.total_parameters());
/// ```
#[derive(Clone, PartialEq, Debug)]
pub struct CapsNetParams {
    /// Conv1 weights `[conv1_channels, 1, k, k]`.
    pub conv1_w: Tensor<f32>,
    /// Conv1 per-channel biases.
    pub conv1_b: Vec<f32>,
    /// PrimaryCaps weights `[pc_channels · pc_caps_dim, conv1_channels, k, k]`.
    pub pc_w: Tensor<f32>,
    /// PrimaryCaps per-channel biases.
    pub pc_b: Vec<f32>,
    /// ClassCaps transforms `[num_primary_caps, num_classes,
    /// class_caps_dim, pc_caps_dim]` — one `W_ij` per capsule pair.
    pub w_class: Tensor<f32>,
}

impl CapsNetParams {
    /// Generates pseudo-trained parameters: Xavier-style uniform
    /// `U(−√(3/fan_in), √(3/fan_in))`, deterministic in `seed`.
    pub fn generate(cfg: &CapsNetConfig, seed: u64) -> Self {
        let mut rng = SplitMix64(seed ^ 0xCAB5_ACC0_CAB5_ACC0);
        let g1 = cfg.conv1_geometry();
        let gp = cfg.primary_caps_geometry();

        let b1 = (3.0 / g1.patch_len() as f32).sqrt();
        let conv1_w = Tensor::from_fn(&[g1.out_ch, g1.in_ch, g1.k_h, g1.k_w], |_| rng.uniform(b1));
        let conv1_b = (0..g1.out_ch).map(|_| rng.uniform(0.05)).collect();

        let bp = (3.0 / gp.patch_len() as f32).sqrt();
        let pc_w = Tensor::from_fn(&[gp.out_ch, gp.in_ch, gp.k_h, gp.k_w], |_| rng.uniform(bp));
        let pc_b = (0..gp.out_ch).map(|_| rng.uniform(0.05)).collect();

        let bc = (3.0 / cfg.pc_caps_dim as f32).sqrt();
        let w_class = Tensor::from_fn(
            &[
                cfg.num_primary_caps(),
                cfg.num_classes,
                cfg.class_caps_dim,
                cfg.pc_caps_dim,
            ],
            |_| rng.uniform(bc),
        );

        Self {
            conv1_w,
            conv1_b,
            pc_w,
            pc_b,
            w_class,
        }
    }

    /// Total parameter count (weights + biases), matching
    /// [`CapsNetConfig::total_parameters`].
    pub fn parameter_count(&self) -> usize {
        self.conv1_w.len()
            + self.conv1_b.len()
            + self.pc_w.len()
            + self.pc_b.len()
            + self.w_class.len()
    }

    /// Quantizes to the 8-bit formats of [`NumericConfig`] (`ncfg` is
    /// its fieldless value): weights to `Weight8` codes, biases staged
    /// at the product fraction width (as the accumulator receives them).
    pub fn quantize(&self, ncfg: NumericConfig) -> QuantizedParams {
        let quant_w = |t: &Tensor<f32>| t.map(|&v| Weight8::from_f32(v).raw());
        let quant_b = |b: &[f32]| {
            b.iter()
                .map(|&v| {
                    let scaled = (v * (1u64 << ncfg.product_frac()) as f32).round();
                    scaled.clamp(i32::MIN as f32, i32::MAX as f32) as i32
                })
                .collect()
        };
        QuantizedParams {
            conv1_w: quant_w(&self.conv1_w),
            conv1_b: quant_b(&self.conv1_b),
            pc_w: quant_w(&self.pc_w),
            pc_b: quant_b(&self.pc_b),
            w_class: quant_w(&self.w_class),
        }
    }
}

/// 8-bit quantized parameters: raw `i8` weight codes and `i32` biases at
/// the product fraction width of [`NumericConfig`].
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantizedParams {
    /// Conv1 weight codes.
    pub conv1_w: Tensor<i8>,
    /// Conv1 biases at product fraction width.
    pub conv1_b: Vec<i32>,
    /// PrimaryCaps weight codes.
    pub pc_w: Tensor<i8>,
    /// PrimaryCaps biases at product fraction width.
    pub pc_b: Vec<i32>,
    /// ClassCaps transform codes.
    pub w_class: Tensor<i8>,
}

impl QuantizedParams {
    /// Quantizes a float image into `Data8` codes.
    pub fn quantize_image(&self, image: &Tensor<f32>) -> Tensor<i8> {
        image.map(|&v| Data8::from_f32(v).raw())
    }

    /// Total byte count of the stored weights and biases (biases counted
    /// at one byte, as the paper's 8-bit memory estimate does).
    pub fn weight_bytes(&self) -> usize {
        self.conv1_w.len()
            + self.conv1_b.len()
            + self.pc_w.len()
            + self.pc_b.len()
            + self.w_class.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generate_counts_match_config() {
        for cfg in [CapsNetConfig::tiny(), CapsNetConfig::small()] {
            let p = CapsNetParams::generate(&cfg, 1);
            assert_eq!(p.parameter_count(), cfg.total_parameters());
        }
    }

    #[test]
    fn generate_is_deterministic() {
        let cfg = CapsNetConfig::tiny();
        let a = CapsNetParams::generate(&cfg, 7);
        let b = CapsNetParams::generate(&cfg, 7);
        assert_eq!(a, b);
        let c = CapsNetParams::generate(&cfg, 8);
        assert_ne!(a, c);
    }

    #[test]
    fn weights_respect_fan_in_bound() {
        let cfg = CapsNetConfig::tiny();
        let p = CapsNetParams::generate(&cfg, 3);
        let b1 = (3.0f32 / cfg.conv1_geometry().patch_len() as f32).sqrt();
        assert!(p.conv1_w.iter().all(|&v| v.abs() <= b1));
        let bc = (3.0f32 / cfg.pc_caps_dim as f32).sqrt();
        assert!(p.w_class.iter().all(|&v| v.abs() <= bc));
    }

    #[test]
    fn quantization_roundtrip_error_bounded() {
        let cfg = CapsNetConfig::tiny();
        let p = CapsNetParams::generate(&cfg, 5);
        let q = p.quantize(NumericConfig::default());
        for (&f, &code) in p.conv1_w.iter().zip(q.conv1_w.iter()) {
            let back = code as f32 / 64.0;
            assert!((f - back).abs() <= 0.5 / 64.0 + f32::EPSILON);
        }
    }

    #[test]
    fn bias_staged_at_product_frac() {
        let cfg = CapsNetConfig::tiny();
        let mut p = CapsNetParams::generate(&cfg, 5);
        p.conv1_b[0] = 0.5;
        let q = p.quantize(NumericConfig::default());
        assert_eq!(q.conv1_b[0], 1024); // 0.5 · 2^11
    }

    #[test]
    fn quantize_image_saturates() {
        let cfg = CapsNetConfig::tiny();
        let q = CapsNetParams::generate(&cfg, 1).quantize(NumericConfig::default());
        let img = Tensor::from_vec(&[1, 1, 2], vec![0.5f32, 99.0]).unwrap();
        let qi = q.quantize_image(&img);
        assert_eq!(qi.data(), &[16, 127]);
    }

    #[test]
    fn weight_bytes_match_parameter_count() {
        let cfg = CapsNetConfig::small();
        let p = CapsNetParams::generate(&cfg, 1);
        let q = p.quantize(NumericConfig::default());
        assert_eq!(q.weight_bytes(), cfg.total_parameters());
    }
}
