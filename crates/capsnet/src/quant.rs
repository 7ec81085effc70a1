//! Bit-exact 8-bit quantized CapsuleNet inference.
//!
//! This is the golden functional model of the accelerator: every
//! multiply, accumulate, requantization and LUT access here has a
//! one-to-one hardware counterpart in `capsacc-core`, and the simulator's
//! integration tests assert *bit-exact* agreement with the traces
//! produced here — the Rust analogue of the paper's gate-level-vs-PyTorch
//! validation (Fig. 15).

use capsacc_fixed::{requantize, Acc25, NumericConfig};
use capsacc_tensor::{qops, qops::MacStats, u64_from, Tensor};

use crate::arch::CapsNetConfig;
use crate::float::primary_capsules;
use crate::params::QuantizedParams;
use crate::qfunc::QuantPipeline;
use crate::routing::RoutingVariant;

/// Final outputs of a quantized inference pass.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantOutput {
    /// Per-class capsule norm codes of the final squashed capsules
    /// `‖v_j‖` (`norm_frac` fraction bits) — the classification scores
    /// the norm unit produces "to compute the classification prediction"
    /// (Sec. IV-C).
    pub class_norms: Vec<u8>,
    /// Predicted class (argmax of norms; ties break to the lower index).
    pub predicted: usize,
    /// Final class capsules `[classes, class_caps_dim]` (data codes).
    pub class_caps: Tensor<i8>,
    /// Final coupling coefficients `[in_caps, classes]` (coupling codes).
    pub couplings: Tensor<i8>,
    /// Aggregate MAC statistics across all layers.
    pub stats: MacStats,
}

/// Intermediate state of one routing iteration.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct RoutingIterationTrace {
    /// Coupling coefficients used in this iteration `[in_caps, classes]`.
    pub couplings: Tensor<i8>,
    /// Requantized weighted sums `s_j` `[classes, dim]`.
    pub s: Tensor<i8>,
    /// Squashed class capsules `v_j` `[classes, dim]`.
    pub v: Tensor<i8>,
    /// Per-class norm codes of the *pre-squash* sums `‖s_j‖` (the norm
    /// the squash unit consumed).
    pub norms: Vec<u8>,
    /// Logits after this iteration's update, if an update ran.
    pub logits_after_update: Option<Tensor<i8>>,
}

/// A full inference trace: every intermediate tensor the simulator must
/// reproduce bit-exactly.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct QuantTrace {
    /// Quantized input image.
    pub input_q: Tensor<i8>,
    /// Conv1 activations (post-ReLU).
    pub conv1_out: Tensor<i8>,
    /// PrimaryCaps convolution output (pre-squash).
    pub pc_out: Tensor<i8>,
    /// Squashed primary capsules `[in_caps, pc_caps_dim]`.
    pub capsules: Tensor<i8>,
    /// Prediction vectors `[in_caps, classes, class_caps_dim]`.
    pub u_hat: Tensor<i8>,
    /// Per-iteration routing state.
    pub iterations: Vec<RoutingIterationTrace>,
    /// Final outputs.
    pub output: QuantOutput,
}

/// Runs quantized inference, returning only the final outputs.
///
/// See [`infer_q8_traced`] for the full intermediate trace.
///
/// # Panics
///
/// Panics if `image` is not `[1, input_side, input_side]` or parameter
/// shapes disagree with `cfg`.
pub fn infer_q8(
    cfg: &CapsNetConfig,
    qparams: &QuantizedParams,
    pipeline: &QuantPipeline,
    image: &Tensor<f32>,
    variant: RoutingVariant,
) -> QuantOutput {
    infer_q8_traced(cfg, qparams, pipeline, image, variant).output
}

/// Runs quantized inference, retaining every intermediate tensor.
///
/// # Panics
///
/// Panics if `image` is not `[1, input_side, input_side]` or parameter
/// shapes disagree with `cfg`.
///
/// # Example
///
/// ```
/// use capsacc_capsnet::{infer_q8_traced, CapsNetConfig, CapsNetParams,
///                       QuantPipeline, RoutingVariant};
/// use capsacc_fixed::NumericConfig;
/// use capsacc_tensor::Tensor;
/// let cfg = CapsNetConfig::tiny();
/// let qp = CapsNetParams::generate(&cfg, 1).quantize(NumericConfig::default());
/// let pipe = QuantPipeline::new(NumericConfig::default());
/// let image = Tensor::from_fn(&[1, 12, 12], |i| (i[1] as f32) / 12.0);
/// let trace = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
/// assert_eq!(trace.iterations.len(), cfg.routing_iterations);
/// assert!(trace.output.predicted < cfg.num_classes);
/// ```
pub fn infer_q8_traced(
    cfg: &CapsNetConfig,
    qparams: &QuantizedParams,
    pipeline: &QuantPipeline,
    image: &Tensor<f32>,
    variant: RoutingVariant,
) -> QuantTrace {
    let ncfg = NumericConfig::default();
    let g1 = cfg.conv1_geometry();
    let gp = cfg.primary_caps_geometry();
    let mut stats = MacStats::default();

    // Quantize the input image into the data format.
    let input_q = qparams.quantize_image(image);

    // Conv1 + ReLU.
    let (conv1_out, s1) = qops::conv2d_q8(
        &input_q,
        &qparams.conv1_w,
        Some(&qparams.conv1_b),
        &g1,
        ncfg.mac_shift(),
        true,
    );
    stats.merge(s1);

    // PrimaryCaps convolution (squash is the nonlinearity).
    let (pc_out, s2) = qops::conv2d_q8(
        &conv1_out,
        &qparams.pc_w,
        Some(&qparams.pc_b),
        &gp,
        ncfg.mac_shift(),
        false,
    );
    stats.merge(s2);

    // Rearrange into capsules and squash each one.
    let raw_caps = primary_capsules(&pc_out, cfg.pc_channels, cfg.pc_caps_dim);
    let dim = cfg.pc_caps_dim;
    let mut capsules: Tensor<i8> = Tensor::zeros(raw_caps.shape());
    for (dst, src) in capsules
        .data_mut()
        .chunks_mut(dim)
        .zip(raw_caps.data().chunks(dim))
    {
        let (v, _) = pipeline.squash_vec(src);
        dst.copy_from_slice(&v);
    }

    // ClassCaps prediction vectors û_{j|i} = W_ij · u_i.
    let (in_caps, classes, out_dim, in_dim) = (
        cfg.num_primary_caps(),
        cfg.num_classes,
        cfg.class_caps_dim,
        cfg.pc_caps_dim,
    );
    let mut u_hat: Tensor<i8> = Tensor::zeros(&[in_caps, classes, out_dim]);
    for cap in 0..in_caps {
        for class in 0..classes {
            for e in 0..out_dim {
                let wbase = ((cap * classes + class) * out_dim + e) * in_dim;
                let mut acc = Acc25::new();
                for d in 0..in_dim {
                    acc.add_product(
                        i64::from(qparams.w_class.data()[wbase + d])
                            * i64::from(capsules.data()[cap * in_dim + d]),
                    );
                }
                stats.macs += u64_from(in_dim);
                stats.saturations += u64::from(acc.saturation_events());
                u_hat.data_mut()[(cap * classes + class) * out_dim + e] =
                    requantize(acc.raw(), ncfg.mac_shift());
            }
        }
    }

    // Routing-by-agreement in fixed point.
    let mut logits: Tensor<i8> = Tensor::zeros(&[in_caps, classes]);
    let mut couplings: Tensor<i8> = Tensor::zeros(&[in_caps, classes]);
    let mut class_caps: Tensor<i8> = Tensor::zeros(&[classes, out_dim]);
    let mut class_norms = vec![0u8; classes];
    let mut iterations = Vec::with_capacity(cfg.routing_iterations);

    for r in 0..cfg.routing_iterations {
        // Coupling coefficients.
        if r == 0 && variant == RoutingVariant::SkipFirstSoftmax {
            couplings
                .data_mut()
                .fill(pipeline.uniform_coupling(classes));
        } else {
            for i in 0..in_caps {
                let row = &logits.data()[i * classes..(i + 1) * classes];
                let sm = pipeline.softmax(row);
                couplings.data_mut()[i * classes..(i + 1) * classes].copy_from_slice(&sm);
            }
        }

        // Weighted sums s_j = Σ_i c_ij û_{j|i} (coupling-format products,
        // 25-bit accumulation, requantized into the data format), then
        // squash through the LUTs.
        let mut s_t: Tensor<i8> = Tensor::zeros(&[classes, out_dim]);
        for (j, class_norm) in class_norms.iter_mut().enumerate() {
            for e in 0..out_dim {
                let mut acc = Acc25::new();
                for i in 0..in_caps {
                    acc.add_product(
                        i64::from(couplings.data()[i * classes + j])
                            * i64::from(u_hat.data()[(i * classes + j) * out_dim + e]),
                    );
                }
                stats.macs += u64_from(in_caps);
                stats.saturations += u64::from(acc.saturation_events());
                s_t.data_mut()[j * out_dim + e] = requantize(acc.raw(), ncfg.coupling_mac_shift());
            }
            let (v, norm) = pipeline.squash_vec(&s_t.data()[j * out_dim..(j + 1) * out_dim]);
            class_caps.data_mut()[j * out_dim..(j + 1) * out_dim].copy_from_slice(&v);
            *class_norm = norm;
        }

        // Logit update on all but the last iteration:
        // b_ij += requantize(û_{j|i} · v_j).
        let logits_after_update = if r + 1 < cfg.routing_iterations {
            for i in 0..in_caps {
                for j in 0..classes {
                    let base = (i * classes + j) * out_dim;
                    let mut acc = Acc25::new();
                    for e in 0..out_dim {
                        acc.add_product(
                            i64::from(u_hat.data()[base + e])
                                * i64::from(class_caps.data()[j * out_dim + e]),
                        );
                    }
                    stats.macs += u64_from(out_dim);
                    stats.saturations += u64::from(acc.saturation_events());
                    let delta = requantize(acc.raw(), ncfg.update_shift());
                    let cur = logits.data()[i * classes + j];
                    logits.data_mut()[i * classes + j] = cur.saturating_add(delta);
                }
            }
            Some(logits.clone())
        } else {
            None
        };

        iterations.push(RoutingIterationTrace {
            couplings: couplings.clone(),
            s: s_t,
            v: class_caps.clone(),
            norms: class_norms.clone(),
            logits_after_update,
        });
    }

    // Final classification scores: the norm unit runs once more over the
    // squashed class capsules v_j (Sec. IV-C: the norm "is used either as
    // it is to compute the classification prediction, or as an input for
    // the Squashing function").
    let final_norms: Vec<u8> = (0..classes)
        .map(|j| pipeline.norm8(&class_caps.data()[j * out_dim..(j + 1) * out_dim]))
        .collect();
    let predicted = final_norms
        .iter()
        .enumerate()
        .max_by_key(|&(i, &n)| (n, std::cmp::Reverse(i)))
        .map(|(i, _)| i)
        .expect("at least one class");

    QuantTrace {
        input_q,
        conv1_out,
        pc_out,
        capsules,
        u_hat,
        iterations,
        output: QuantOutput {
            class_norms: final_norms,
            predicted,
            class_caps,
            couplings,
            stats,
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::params::CapsNetParams;
    use crate::routing::RoutingVariant;
    use capsacc_fixed::NumericConfig;

    fn setup(cfg: &CapsNetConfig, seed: u64) -> (QuantizedParams, QuantPipeline, Tensor<f32>) {
        let params = CapsNetParams::generate(cfg, seed);
        let ncfg = NumericConfig::default();
        let image = Tensor::from_fn(&[1, cfg.input_side, cfg.input_side], |i| {
            let (y, x) = (i[1] as f32, i[2] as f32);
            let c = cfg.input_side as f32 / 2.0;
            (-((y - c).powi(2) + (x - c).powi(2)) / 16.0).exp()
        });
        (params.quantize(ncfg), QuantPipeline::new(ncfg), image)
    }

    #[test]
    fn tiny_quantized_inference_runs() {
        let cfg = CapsNetConfig::tiny();
        let (qp, pipe, image) = setup(&cfg, 1);
        let trace = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        assert_eq!(trace.conv1_out.shape(), &[8, 10, 10]);
        assert_eq!(trace.capsules.shape(), &[32, 4]);
        assert_eq!(trace.u_hat.shape(), &[32, 4, 4]);
        assert_eq!(trace.iterations.len(), 3);
        assert!(trace.output.predicted < 4);
        // No accumulator ever saturated on this workload.
        assert_eq!(trace.output.stats.saturations, 0);
    }

    #[test]
    fn quantized_variants_agree_bit_exactly() {
        // The Sec. V optimization must be functionality-preserving in
        // fixed point too (uniform_coupling == softmax(zeros)).
        let cfg = CapsNetConfig::tiny();
        let (qp, pipe, image) = setup(&cfg, 2);
        let a = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::Original);
        let b = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        assert_eq!(a.output.class_caps, b.output.class_caps);
        assert_eq!(a.output.class_norms, b.output.class_norms);
        assert_eq!(a.output.couplings, b.output.couplings);
        assert_eq!(a.iterations, b.iterations);
    }

    #[test]
    fn quantized_tracks_float_loosely() {
        // With Q2.5 activations the quantized class norms should be
        // within a couple of LSBs of the float ones.
        let cfg = CapsNetConfig::tiny();
        let params = CapsNetParams::generate(&cfg, 3);
        let (qp, pipe, image) = setup(&cfg, 3);
        let qf = crate::float::infer_f32(&cfg, &params, &image, RoutingVariant::SkipFirstSoftmax);
        let qq = infer_q8(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        for (fnorm, &qnorm) in qf.class_norms().iter().zip(&qq.class_norms) {
            let q = qnorm as f32 / (1u32 << NumericConfig::NORM_FRAC) as f32;
            assert!((fnorm - q).abs() < 0.25, "float norm {fnorm} vs quant {q}");
        }
    }

    #[test]
    fn trace_iterations_chain_consistently() {
        let cfg = CapsNetConfig::tiny();
        let (qp, pipe, image) = setup(&cfg, 4);
        let t = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        // First iteration uses the uniform initialization everywhere.
        let uniform = pipe.uniform_coupling(cfg.num_classes);
        assert!(t.iterations[0].couplings.iter().all(|&c| c == uniform));
        // Every non-final iteration records updated logits; the final one
        // does not.
        for (r, it) in t.iterations.iter().enumerate() {
            assert_eq!(
                it.logits_after_update.is_some(),
                r + 1 < cfg.routing_iterations
            );
        }
        // Iteration r+1 couplings are the softmax of iteration r logits.
        for r in 0..t.iterations.len() - 1 {
            let logits = t.iterations[r]
                .logits_after_update
                .as_ref()
                .expect("updated");
            let classes = cfg.num_classes;
            for i in 0..cfg.num_primary_caps() {
                let row = &logits.data()[i * classes..(i + 1) * classes];
                let sm = pipe.softmax(row);
                assert_eq!(
                    &t.iterations[r + 1].couplings.data()[i * classes..(i + 1) * classes],
                    sm.as_slice()
                );
            }
        }
        // The last iteration's v equals the reported class capsules.
        assert_eq!(
            t.iterations.last().expect("non-empty").v,
            t.output.class_caps
        );
    }

    #[test]
    fn mac_count_matches_analytical() {
        let cfg = CapsNetConfig::tiny();
        let (qp, pipe, image) = setup(&cfg, 5);
        let t = infer_q8_traced(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        let g1 = cfg.conv1_geometry();
        let gp = cfg.primary_caps_geometry();
        let (caps, classes, od, id) = (
            cfg.num_primary_caps() as u64,
            cfg.num_classes as u64,
            cfg.class_caps_dim as u64,
            cfg.pc_caps_dim as u64,
        );
        let fc = caps * classes * od * id;
        let per_iter_sum = classes * od * caps;
        let per_update = caps * classes * od;
        let iters = cfg.routing_iterations as u64;
        let expected = g1.macs() + gp.macs() + fc + per_iter_sum * iters + per_update * (iters - 1);
        assert_eq!(t.output.stats.macs, expected);
    }

    #[test]
    fn small_config_also_runs() {
        let cfg = CapsNetConfig::small();
        let (qp, pipe, image) = setup(&cfg, 6);
        let out = infer_q8(&cfg, &qp, &pipe, &image, RoutingVariant::SkipFirstSoftmax);
        assert_eq!(out.class_norms.len(), 10);
        assert_eq!(out.stats.saturations, 0);
    }
}
