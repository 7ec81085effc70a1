//! Host speed reference: a fixed unit of work, independent of the
//! workspace crates, timed right after every timed call on the same CPU.
//!
//! On a shared virtual machine one thread's speed drifts by up to 1.6×
//! over minutes (set-up and calls slow down together), which no statistic
//! inside a run removes. A host figure is therefore reported at the
//! reference host's speed: each call's time is multiplied by
//! [`NOMINAL_UNIT_MS`] over the time the reference unit took right after
//! it. A change to the program moves the call and not the unit, so it
//! shows in full; a change in the host's speed moves both and cancels.

use std::hint::black_box;
use std::time::Instant;

/// Side of the square int8 matmul in one unit.
const N: usize = 96;

/// 64-bit words streamed (read and written) in one unit: 4 MiB, past
/// the per-core caches, so the unit also feels memory contention.
const STREAM_WORDS: usize = 1 << 19;

/// Host ms of one unit on the reference host (the median on the 2-vCPU
/// Xeon virtual machine the benchmark was tuned on).
pub const NOMINAL_UNIT_MS: f64 = 1.0;

/// Reference time per timed call, as a share of the call's own time, so
/// the unit samples the host over a comparable stretch.
const SHARE: f64 = 0.15;

/// The reference unit's inputs and buffers.
pub struct Reference {
    a: Vec<i8>,
    b: Vec<i8>,
    c: Vec<i32>,
    stream: Vec<u64>,
}

impl Reference {
    pub fn new() -> Self {
        let byte = |i: usize| (i.wrapping_mul(2_654_435_761) >> 7) as i8;
        Self {
            a: (0..N * N).map(byte).collect(),
            b: (0..N * N).map(|i| byte(i + 1)).collect(),
            c: vec![0; N * N],
            stream: (0..STREAM_WORDS as u64).collect(),
        }
    }

    /// One unit of work: an `N`³ int8 matmul into int32 and one
    /// read-modify-write pass over the stream buffer.
    fn unit(&mut self) -> u64 {
        self.c.fill(0);
        for i in 0..N {
            let out = &mut self.c[i * N..(i + 1) * N];
            for k in 0..N {
                let a = i32::from(self.a[i * N + k]);
                for (o, &b) in out.iter_mut().zip(&self.b[k * N..(k + 1) * N]) {
                    *o += a * i32::from(b);
                }
            }
        }
        let mut acc = self
            .c
            .iter()
            .fold(0u64, |h, &v| h.rotate_left(5) ^ v as u64);
        for (i, w) in self.stream.iter_mut().enumerate() {
            *w = w.wrapping_mul(0x5851_F42D_4C95_7F2D).wrapping_add(i as u64);
            acc ^= *w;
        }
        acc
    }

    /// Runs whole units for at least [`SHARE`] of `call_ms` (at least
    /// one) and returns the host's speed relative to the reference host:
    /// [`NOMINAL_UNIT_MS`] over the median unit time.
    pub fn speed_after(&mut self, call_ms: f64) -> f64 {
        let mut times = Vec::new();
        let start = Instant::now();
        while times.is_empty() || crate::ms_since(start) < SHARE * call_ms {
            let t = Instant::now();
            black_box(self.unit());
            times.push(crate::ms_since(t));
        }
        let unit_ms = crate::stats::median(&times).expect("at least one unit");
        NOMINAL_UNIT_MS / unit_ms
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_unit_is_deterministic_and_speed_is_positive() {
        let mut r = Reference::new();
        let first = r.unit();
        let mut again = Reference::new();
        assert_eq!(again.unit(), first);
        let speed = r.speed_after(0.0);
        assert!(speed.is_finite() && speed > 0.0);
    }
}
