//! Shared golden-trace digest harness for the integration tests.
//!
//! Both `bit_exactness.rs` (the canonical pinning) and
//! `memory_equivalence.rs` (proving the memory hierarchy cannot drift
//! the numerics) compare against the same pinned digests — sharing the
//! hasher and the constant here removes the risk of the two suites
//! silently diverging onto different traces.
//!
//! Regeneration (after an *intentional* numeric change): run
//!
//!   cargo test --test bit_exactness print_golden_digests -- --ignored --nocapture
//!
//! and paste the printed rows over `GOLDEN_DIGESTS` and
//! `GOLDEN_DIGESTS_MNIST` below, noting the change in the commit
//! message.

// Each integration-test crate compiles this module independently and
// uses only a subset of it, so per-crate dead-code analysis is noise.
#![allow(dead_code)]

use capsacc::capsnet::QuantTrace;
use capsacc::tensor::Tensor;

/// FNV-1a over a byte stream — stable, dependency-free fingerprint.
pub struct Fnv(u64);

impl Fnv {
    pub fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
    fn byte(&mut self, b: u8) {
        self.0 ^= b as u64;
        self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
    }
    fn bytes(&mut self, bs: impl IntoIterator<Item = u8>) {
        for b in bs {
            self.byte(b);
        }
    }
    fn tensor(&mut self, t: &Tensor<i8>) {
        self.bytes(t.shape().iter().flat_map(|d| (*d as u64).to_le_bytes()));
        self.bytes(t.data().iter().map(|&v| v as u8));
    }
    fn done(self) -> u64 {
        self.0
    }
}

/// Layer-by-layer digests of a full trace, in execution order.
pub fn trace_digests(trace: &QuantTrace) -> Vec<(&'static str, u64)> {
    let mut out = Vec::new();
    for (name, t) in [
        ("input_q", &trace.input_q),
        ("conv1_out", &trace.conv1_out),
        ("pc_out", &trace.pc_out),
        ("capsules", &trace.capsules),
        ("u_hat", &trace.u_hat),
    ] {
        let mut h = Fnv::new();
        h.tensor(t);
        out.push((name, h.done()));
    }
    let mut h = Fnv::new();
    for it in &trace.iterations {
        h.tensor(&it.couplings);
        h.tensor(&it.s);
        h.tensor(&it.v);
        h.bytes(it.norms.iter().copied());
        if let Some(l) = &it.logits_after_update {
            h.tensor(l);
        }
    }
    out.push(("iterations", h.done()));
    let mut h = Fnv::new();
    h.bytes(trace.output.class_norms.iter().copied());
    h.bytes((trace.output.predicted as u64).to_le_bytes());
    h.tensor(&trace.output.class_caps);
    h.tensor(&trace.output.couplings);
    h.bytes(trace.output.stats.macs.to_le_bytes());
    h.bytes(trace.output.stats.saturations.to_le_bytes());
    out.push(("output", h.done()));
    out
}

/// Digests of a trace with routing spelled out: the five layer outputs
/// of [`trace_digests`], then each routing iteration's couplings, `s`,
/// `v` and updated logits separately, then the final output. A change
/// to one routing step fails on that step's own row.
pub fn routing_digests(trace: &QuantTrace) -> Vec<(String, u64)> {
    let digest = |t: &Tensor<i8>| {
        let mut h = Fnv::new();
        h.tensor(t);
        h.done()
    };
    let layers = trace_digests(trace);
    let mut out: Vec<(String, u64)> = layers[..5]
        .iter()
        .map(|&(name, d)| (name.to_owned(), d))
        .collect();
    for (k, it) in (1..).zip(&trace.iterations) {
        out.push((format!("iter{k}.couplings"), digest(&it.couplings)));
        out.push((format!("iter{k}.s"), digest(&it.s)));
        out.push((format!("iter{k}.v"), digest(&it.v)));
        if let Some(logits) = &it.logits_after_update {
            out.push((format!("iter{k}.logits"), digest(logits)));
        }
    }
    out.push(("output".to_owned(), layers[6].1));
    out
}

/// Pinned digests of the canonical inference (`CapsNetConfig::tiny`,
/// parameter seed 0, `CapsNetConfig::test_image(0)`, the 4×4 test
/// array) — regenerate per the module comment above.
pub const GOLDEN_DIGESTS: [(&str, u64); 7] = [
    ("input_q", 0x86cf0b23838ba95c),
    ("conv1_out", 0x63b7f86f2ed0adcb),
    ("pc_out", 0x1a9615bbf75f16da),
    ("capsules", 0xe7ed0c233a1b0e94),
    ("u_hat", 0x95df96dbdc45f7b9),
    ("iterations", 0x5a82eb0215b17c12),
    ("output", 0x0dab99a3354d0fd4),
];

/// Pinned [`routing_digests`] of the MNIST-scale inference whose routing
/// moves: `SyntheticMnist::new(1).sample(0)` with
/// `CapsNetParams::generate(&CapsNetConfig::mnist(), 1)`, one
/// `run_batch` on `AcceleratorConfig::paper()` with the functional
/// backend. `GOLDEN_DIGESTS`' tiny inference leaves every logit at
/// zero, so it pins nothing of routing-by-agreement beyond its uniform
/// start; this set does. Regenerate per the module comment above.
pub const GOLDEN_DIGESTS_MNIST: [(&str, u64); 17] = [
    ("input_q", 0x77931442b8f02b12),
    ("conv1_out", 0x37ca35802c5c8f64),
    ("pc_out", 0x8ed681173e92743c),
    ("capsules", 0xf0209c5f8b4c0180),
    ("u_hat", 0x749aaaede9569306),
    ("iter1.couplings", 0xf31f045a21b39033),
    ("iter1.s", 0x4a26e46bc296cc9c),
    ("iter1.v", 0x479b73d00cb73d32),
    ("iter1.logits", 0x55f7a7434bb48b49),
    ("iter2.couplings", 0x59ef163c3ad85468),
    ("iter2.s", 0xc0626e07fd5b469e),
    ("iter2.v", 0xae6ffdcb08d46751),
    ("iter2.logits", 0x5218028acf4bf7ae),
    ("iter3.couplings", 0xb3647b589678165c),
    ("iter3.s", 0x56c1236398c85195),
    ("iter3.v", 0x718278df425c8edb),
    ("output", 0x0154a8591fa4f371),
];
