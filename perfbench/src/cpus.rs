//! Which CPU each timed call runs on.
//!
//! On the 2-vCPU virtual machine this benchmark was tuned on, the two
//! CPUs ran the same single-threaded call at different speeds (an
//! `mnist-b1` call took 38–43 ms pinned to one and 56–68 ms pinned to the
//! other), and a process stays on whichever CPU the scheduler gave it. A
//! run's median then depended on that draw. So timed calls rotate over
//! the CPUs the process may use, and each host figure is taken per CPU
//! and averaged over the CPUs ([`crate::stats::mean_of_medians`]).

use std::mem::size_of;

/// glibc's `cpu_set_t`: a bit per CPU, 1024 CPUs.
type CpuSet = [u64; 16];

extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const CpuSet) -> i32;
}

/// Pins the calling thread to the CPUs in `mask`. Threads it spawns
/// afterwards inherit the mask. A refused mask leaves the thread where
/// it was, which only costs steadiness.
fn set_affinity(mask: &CpuSet) {
    // SAFETY: `mask` points to a live, initialized `cpu_set_t`-sized
    // buffer and the size passed is exactly its size; pid 0 names the
    // calling thread.
    let _ = unsafe { sched_setaffinity(0, size_of::<CpuSet>(), mask) };
}

/// Rotates the calling thread over the CPUs it was allowed at creation,
/// and restores that set when dropped.
pub struct Rotation {
    allowed: CpuSet,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The calling thread's allowed CPUs. When the set cannot be read,
    /// the rotation has one slot and pins nothing.
    pub fn new() -> Self {
        let mut allowed: CpuSet = [0; 16];
        // SAFETY: `allowed` is a writable `cpu_set_t`-sized buffer and
        // the size passed is exactly its size; pid 0 names the calling
        // thread.
        let read = unsafe { sched_getaffinity(0, size_of::<CpuSet>(), &mut allowed) } == 0;
        let cpus = if read {
            (0..64 * allowed.len())
                .filter(|&c| allowed[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Self { allowed, cpus }
    }

    /// Number of slots: the allowed CPUs, or 1 when nothing is pinned.
    pub fn slots(&self) -> usize {
        self.cpus.len().max(1)
    }

    /// Pins the calling thread to the CPU of call `i` and returns that
    /// CPU's slot, `i % slots()`.
    pub fn pin(&self, i: usize) -> usize {
        let slot = i % self.slots();
        if let Some(&cpu) = self.cpus.get(slot) {
            let mut mask: CpuSet = [0; 16];
            mask[cpu / 64] |= 1 << (cpu % 64);
            set_affinity(&mask);
        }
        slot
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if !self.cpus.is_empty() {
            set_affinity(&self.allowed);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rotation_cycles_through_the_allowed_cpus_and_restores_them() {
        let rotation = Rotation::new();
        let n = rotation.slots();
        assert!(n >= 1);
        let slots: Vec<usize> = (0..2 * n).map(|i| rotation.pin(i)).collect();
        let want: Vec<usize> = (0..2 * n).map(|i| i % n).collect();
        assert_eq!(slots, want);
        drop(rotation);
        assert_eq!(Rotation::new().slots(), n, "the allowed set is restored");
    }
}
