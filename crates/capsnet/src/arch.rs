//! Architecture algebra and the Table I parameter accounting.

use capsacc_tensor::{checked_product, ConvGeometry};

/// The CapsuleNet architecture parameters (Fig. 1 of the paper).
///
/// The MNIST instance is [`CapsNetConfig::mnist`]; scaled-down instances
/// ([`CapsNetConfig::tiny`], [`CapsNetConfig::small`]) exercise the same
/// code paths at test-friendly sizes.
///
/// # Example
///
/// ```
/// use capsacc_capsnet::CapsNetConfig;
/// let cfg = CapsNetConfig::mnist();
/// assert_eq!(cfg.num_primary_caps(), 1152);
/// assert_eq!(cfg.total_parameters(), 6_804_224);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct CapsNetConfig {
    /// Input image side length (28 for MNIST).
    pub input_side: usize,
    /// Conv1 output channels (256).
    pub conv1_channels: usize,
    /// Conv1 kernel side (9).
    pub conv1_kernel: usize,
    /// Conv1 stride (1).
    pub conv1_stride: usize,
    /// PrimaryCaps capsule channels (32).
    pub pc_channels: usize,
    /// PrimaryCaps capsule dimension (8).
    pub pc_caps_dim: usize,
    /// PrimaryCaps kernel side (9).
    pub pc_kernel: usize,
    /// PrimaryCaps stride (2).
    pub pc_stride: usize,
    /// Number of output classes (10).
    pub num_classes: usize,
    /// ClassCaps capsule dimension (16).
    pub class_caps_dim: usize,
    /// Routing-by-agreement iterations (3).
    pub routing_iterations: usize,
}

/// Parameter/shape accounting for one layer — one row of Table I.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct LayerAccounting {
    /// Layer name as printed in the paper.
    pub name: &'static str,
    /// Number of input elements.
    pub inputs: usize,
    /// Number of trainable parameters.
    pub parameters: usize,
    /// Number of output elements.
    pub outputs: usize,
}

impl CapsNetConfig {
    /// The MNIST CapsuleNet of the paper (Fig. 1).
    pub fn mnist() -> Self {
        Self {
            input_side: 28,
            conv1_channels: 256,
            conv1_kernel: 9,
            conv1_stride: 1,
            pc_channels: 32,
            pc_caps_dim: 8,
            pc_kernel: 9,
            pc_stride: 2,
            num_classes: 10,
            class_caps_dim: 16,
            routing_iterations: 3,
        }
    }

    /// A miniature instance for fast unit tests (32 primary capsules of
    /// dimension 4, 4 classes).
    pub fn tiny() -> Self {
        Self {
            input_side: 12,
            conv1_channels: 8,
            conv1_kernel: 3,
            conv1_stride: 1,
            pc_channels: 2,
            pc_caps_dim: 4,
            pc_kernel: 3,
            pc_stride: 2,
            num_classes: 4,
            class_caps_dim: 4,
            routing_iterations: 3,
        }
    }

    /// A mid-size instance for integration tests (same structure as
    /// MNIST, roughly 1/16 the compute).
    pub fn small() -> Self {
        Self {
            input_side: 20,
            conv1_channels: 32,
            conv1_kernel: 5,
            conv1_stride: 1,
            pc_channels: 8,
            pc_caps_dim: 8,
            pc_kernel: 5,
            pc_stride: 2,
            num_classes: 10,
            class_caps_dim: 16,
            routing_iterations: 3,
        }
    }

    /// Geometry of the Conv1 layer (single grayscale input channel).
    pub fn conv1_geometry(&self) -> ConvGeometry {
        ConvGeometry::new(
            1,
            self.input_side,
            self.input_side,
            self.conv1_channels,
            self.conv1_kernel,
            self.conv1_kernel,
            self.conv1_stride,
        )
    }

    /// Geometry of the PrimaryCaps layer, treated as a convolution with
    /// `pc_channels · pc_caps_dim` output channels (Sec. V-B: "we treat
    /// the 8D capsule as a convolutional layer with 8 output channels").
    pub fn primary_caps_geometry(&self) -> ConvGeometry {
        let g1 = self.conv1_geometry();
        ConvGeometry::new(
            self.conv1_channels,
            g1.out_h(),
            g1.out_w(),
            self.pc_channels * self.pc_caps_dim,
            self.pc_kernel,
            self.pc_kernel,
            self.pc_stride,
        )
    }

    /// Side length of the PrimaryCaps spatial grid (6 for MNIST).
    pub fn pc_grid(&self) -> usize {
        self.primary_caps_geometry().out_h()
    }

    /// Number of primary capsules: `grid² · pc_channels` (1152 for
    /// MNIST).
    ///
    /// # Panics
    ///
    /// Panics (instead of wrapping) if the product overflows `usize`.
    pub fn num_primary_caps(&self) -> usize {
        let g = self.primary_caps_geometry();
        checked_product(
            "primary capsule count",
            &[g.out_h(), g.out_w(), self.pc_channels],
        )
    }

    /// Trainable parameters of Conv1 (weights + biases): 20 992.
    pub fn conv1_parameters(&self) -> usize {
        self.conv1_geometry().parameter_count(true)
    }

    /// Trainable parameters of PrimaryCaps: 5 308 672.
    pub fn primary_caps_parameters(&self) -> usize {
        self.primary_caps_geometry().parameter_count(true)
    }

    /// Trainable parameters of ClassCaps (the `W_ij` matrices, no bias):
    /// 1 474 560.
    ///
    /// # Panics
    ///
    /// Panics (instead of wrapping) if the product overflows `usize`.
    pub fn class_caps_parameters(&self) -> usize {
        checked_product(
            "ClassCaps parameter count",
            &[
                self.num_primary_caps(),
                self.num_classes,
                self.pc_caps_dim,
                self.class_caps_dim,
            ],
        )
    }

    /// Run-time coupling coefficients `c_ij` (not trainable parameters,
    /// listed separately in Table I): 11 520.
    ///
    /// # Panics
    ///
    /// Panics (instead of wrapping) if the product overflows `usize`.
    pub fn coupling_coefficient_count(&self) -> usize {
        checked_product(
            "coupling coefficient count",
            &[self.num_primary_caps(), self.num_classes],
        )
    }

    /// All trainable parameters (Conv1 + PrimaryCaps + ClassCaps).
    pub fn total_parameters(&self) -> usize {
        self.conv1_parameters() + self.primary_caps_parameters() + self.class_caps_parameters()
    }

    /// The Table I rows, including the run-time coupling coefficients.
    ///
    /// Note: for PrimaryCaps *outputs* the paper prints 102 400, which is
    /// the Conv1 output count; the geometric value is
    /// `grid² · pc_channels · pc_caps_dim` = 9216. We report the
    /// geometric value.
    pub fn table1(&self) -> Vec<LayerAccounting> {
        let g1 = self.conv1_geometry();
        let gp = self.primary_caps_geometry();
        let pc_out = self.num_primary_caps() * self.pc_caps_dim;
        let cc_out = self.num_classes * self.class_caps_dim;
        vec![
            LayerAccounting {
                name: "Conv1",
                inputs: g1.input_len(),
                parameters: self.conv1_parameters(),
                outputs: g1.output_len(),
            },
            LayerAccounting {
                name: "PrimaryCaps",
                inputs: gp.input_len(),
                parameters: self.primary_caps_parameters(),
                outputs: pc_out,
            },
            LayerAccounting {
                name: "ClassCaps",
                inputs: pc_out,
                parameters: self.class_caps_parameters(),
                outputs: cc_out,
            },
            LayerAccounting {
                name: "Coupling Coeff",
                inputs: cc_out,
                parameters: self.coupling_coefficient_count(),
                outputs: cc_out,
            },
        ]
    }

    /// Validates the configuration (all dimensions non-zero, at least one
    /// routing iteration, PrimaryCaps grid non-empty).
    ///
    /// # Errors
    ///
    /// Returns a description of the first violated constraint.
    pub fn validate(&self) -> Result<(), String> {
        if self.routing_iterations == 0 {
            return Err("routing_iterations must be at least 1".to_owned());
        }
        if self.num_classes < 2 {
            return Err("num_classes must be at least 2".to_owned());
        }
        if self.pc_caps_dim == 0 || self.class_caps_dim == 0 {
            return Err("capsule dimensions must be non-zero".to_owned());
        }
        // Geometry constructors panic on impossible shapes; probe them.
        let g1 = self.conv1_geometry();
        if g1.out_h() < self.pc_kernel {
            return Err(format!(
                "PrimaryCaps kernel {} larger than Conv1 output {}",
                self.pc_kernel,
                g1.out_h()
            ));
        }
        Ok(())
    }
}

impl Default for CapsNetConfig {
    /// The MNIST instance.
    fn default() -> Self {
        Self::mnist()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mnist_matches_table1_exactly() {
        let rows = CapsNetConfig::mnist().table1();
        // Paper Table I, row by row.
        assert_eq!(rows[0].inputs, 784);
        assert_eq!(rows[0].parameters, 20_992);
        assert_eq!(rows[0].outputs, 102_400);
        assert_eq!(rows[1].inputs, 102_400);
        assert_eq!(rows[1].parameters, 5_308_672);
        assert_eq!(rows[2].parameters, 1_474_560);
        assert_eq!(rows[2].outputs, 160);
        assert_eq!(rows[3].inputs, 160);
        assert_eq!(rows[3].parameters, 11_520);
        assert_eq!(rows[3].outputs, 160);
    }

    #[test]
    fn primarycaps_output_erratum() {
        // The paper prints 102 400 for PrimaryCaps outputs; the geometric
        // value is 9216. We deliberately report the geometric value.
        let rows = CapsNetConfig::mnist().table1();
        assert_eq!(rows[1].outputs, 9216);
        assert_ne!(rows[1].outputs, 102_400);
    }

    #[test]
    fn parameter_distribution_matches_fig5() {
        // Fig. 5: <1% Conv1, 78% PrimaryCaps, 22% ClassCaps, <1% coupling.
        let cfg = CapsNetConfig::mnist();
        let total = cfg.total_parameters() as f64;
        assert!((cfg.conv1_parameters() as f64) / total < 0.01);
        let pc = cfg.primary_caps_parameters() as f64 / total;
        assert!((pc - 0.78).abs() < 0.01, "PrimaryCaps share = {pc}");
        let cc = cfg.class_caps_parameters() as f64 / total;
        assert!((cc - 0.22).abs() < 0.01, "ClassCaps share = {cc}");
        assert!((cfg.coupling_coefficient_count() as f64) / total < 0.01);
    }

    #[test]
    fn mnist_capsule_counts() {
        let cfg = CapsNetConfig::mnist();
        assert_eq!(cfg.pc_grid(), 6);
        assert_eq!(cfg.num_primary_caps(), 1152);
    }

    #[test]
    #[should_panic(expected = "overflows usize")]
    fn adversarial_capsule_count_fails_loudly_instead_of_wrapping() {
        // grid² ≈ 2^54 × 2^12 channels = 2^66 capsules: the product must
        // panic with context here, not wrap to a small garbage value
        // that every downstream cycle formula would silently trust.
        let net = CapsNetConfig {
            input_side: 1 << 27,
            conv1_channels: 1,
            conv1_kernel: 1,
            conv1_stride: 1,
            pc_channels: 1 << 12,
            pc_caps_dim: 8,
            pc_kernel: 1,
            pc_stride: 1,
            num_classes: 10,
            class_caps_dim: 16,
            routing_iterations: 3,
        };
        let _ = net.num_primary_caps();
    }

    #[test]
    fn eight_bit_weights_fit_8mb() {
        // Sec. III-A: "an on-chip memory size of 8MB is large enough to
        // contain every parameter" at 8-bit weights.
        let bytes = CapsNetConfig::mnist().total_parameters();
        assert!(bytes <= 8 * 1024 * 1024);
    }

    #[test]
    fn tiny_and_small_validate() {
        CapsNetConfig::tiny().validate().unwrap();
        CapsNetConfig::small().validate().unwrap();
        CapsNetConfig::mnist().validate().unwrap();
    }

    #[test]
    fn tiny_shapes() {
        let cfg = CapsNetConfig::tiny();
        assert_eq!(cfg.conv1_geometry().out_h(), 10);
        assert_eq!(cfg.pc_grid(), 4);
        assert_eq!(cfg.num_primary_caps(), 32);
    }

    #[test]
    fn validation_rejects_zero_routing() {
        let cfg = CapsNetConfig {
            routing_iterations: 0,
            ..CapsNetConfig::tiny()
        };
        assert!(cfg.validate().is_err());
    }

    #[test]
    fn default_is_mnist() {
        assert_eq!(CapsNetConfig::default(), CapsNetConfig::mnist());
    }
}
