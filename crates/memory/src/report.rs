//! Counters produced by the memory subsystem.

use std::fmt;

/// The three scratchpad memories of the hierarchy.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum SpmKind {
    /// The Data Buffer scratchpad.
    Data,
    /// The Weight Buffer scratchpad (fed by the DRAM prefetcher).
    Weight,
    /// The Accumulator scratchpad backing the per-column FIFOs.
    Accumulator,
}

impl SpmKind {
    /// All kinds, in display order.
    pub const ALL: [SpmKind; 3] = [SpmKind::Data, SpmKind::Weight, SpmKind::Accumulator];
}

impl fmt::Display for SpmKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            SpmKind::Data => "Data SPM",
            SpmKind::Weight => "Weight SPM",
            SpmKind::Accumulator => "Accumulator SPM",
        };
        f.write_str(s)
    }
}

/// Activity counters for one scratchpad.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct SpmActivity {
    /// Bytes read out of the SPM.
    pub read_bytes: u64,
    /// Bytes written into the SPM.
    pub write_bytes: u64,
    /// Cycles at least one bank was actively serving accesses — the
    /// DESCNet power-gating model keys leakage to this.
    pub busy_cycles: u64,
}

impl SpmActivity {
    /// Total bytes moved through the SPM.
    pub fn total_bytes(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Aggregate report of the memory hierarchy: stall decomposition,
/// off-chip traffic split and per-SPM activity.
///
/// Under [`crate::MemoryMode::Ideal`] every stall field stays zero but
/// the traffic and activity counters still accumulate, so the on-chip /
/// off-chip split is measurable even on the ideal design point.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct MemReport {
    /// Total cycles the array waited on the memory hierarchy
    /// (`bank_stall_cycles + prefetch_stall_cycles`).
    pub stall_cycles: u64,
    /// Stalls from SPM bank/port bandwidth shortfalls.
    pub bank_stall_cycles: u64,
    /// Stalls from exposed DRAM fills (tile prefetch misses plus input
    /// staging).
    pub prefetch_stall_cycles: u64,
    /// DRAM fill cycles hidden behind compute by the prefetcher.
    pub hidden_fill_cycles: u64,
    /// Off-chip bytes fetched for weights.
    pub dram_weight_bytes: u64,
    /// Off-chip bytes fetched for input data.
    pub dram_data_bytes: u64,
    /// Per-SPM activity, indexed like [`SpmKind::ALL`].
    pub spm: [SpmActivity; 3],
}

impl MemReport {
    fn index(kind: SpmKind) -> usize {
        SpmKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind present in ALL")
    }

    /// Activity of one scratchpad.
    pub fn spm(&self, kind: SpmKind) -> SpmActivity {
        self.spm[Self::index(kind)]
    }

    /// Mutable activity of one scratchpad.
    pub(crate) fn spm_mut(&mut self, kind: SpmKind) -> &mut SpmActivity {
        &mut self.spm[Self::index(kind)]
    }

    /// Total off-chip bytes (weights + data).
    pub fn offchip_bytes(&self) -> u64 {
        self.dram_weight_bytes + self.dram_data_bytes
    }

    /// Returns the difference `self − earlier`, counter by counter: the
    /// activity that occurred after `earlier` was snapshotted from the
    /// same counter stream.
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds its counterpart in
    /// `self` (`earlier` is not a prior snapshot).
    pub fn since(&self, earlier: &MemReport) -> MemReport {
        let sub = |a: u64, b: u64| a.checked_sub(b).expect("snapshot is not a prior state");
        let mut out = MemReport {
            stall_cycles: sub(self.stall_cycles, earlier.stall_cycles),
            bank_stall_cycles: sub(self.bank_stall_cycles, earlier.bank_stall_cycles),
            prefetch_stall_cycles: sub(self.prefetch_stall_cycles, earlier.prefetch_stall_cycles),
            hidden_fill_cycles: sub(self.hidden_fill_cycles, earlier.hidden_fill_cycles),
            dram_weight_bytes: sub(self.dram_weight_bytes, earlier.dram_weight_bytes),
            dram_data_bytes: sub(self.dram_data_bytes, earlier.dram_data_bytes),
            spm: [SpmActivity::default(); 3],
        };
        for ((o, a), b) in out.spm.iter_mut().zip(&self.spm).zip(&earlier.spm) {
            o.read_bytes = sub(a.read_bytes, b.read_bytes);
            o.write_bytes = sub(a.write_bytes, b.write_bytes);
            o.busy_cycles = sub(a.busy_cycles, b.busy_cycles);
        }
        out
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &MemReport) {
        self.stall_cycles += other.stall_cycles;
        self.bank_stall_cycles += other.bank_stall_cycles;
        self.prefetch_stall_cycles += other.prefetch_stall_cycles;
        self.hidden_fill_cycles += other.hidden_fill_cycles;
        self.dram_weight_bytes += other.dram_weight_bytes;
        self.dram_data_bytes += other.dram_data_bytes;
        for (a, b) in self.spm.iter_mut().zip(&other.spm) {
            a.read_bytes += b.read_bytes;
            a.write_bytes += b.write_bytes;
            a.busy_cycles += b.busy_cycles;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn since_and_merge_roundtrip() {
        let mut a = MemReport {
            stall_cycles: 10,
            bank_stall_cycles: 4,
            prefetch_stall_cycles: 6,
            hidden_fill_cycles: 20,
            dram_weight_bytes: 100,
            dram_data_bytes: 50,
            ..MemReport::default()
        };
        a.spm_mut(SpmKind::Weight).read_bytes = 30;
        let snapshot = a;
        a.merge(&snapshot);
        let delta = a.since(&snapshot);
        assert_eq!(delta, snapshot);
        assert_eq!(delta.spm(SpmKind::Weight).read_bytes, 30);
        assert_eq!(delta.offchip_bytes(), 150);
    }

    #[test]
    #[should_panic(expected = "not a prior state")]
    fn since_rejects_non_snapshots() {
        let a = MemReport::default();
        let b = MemReport {
            stall_cycles: 1,
            ..MemReport::default()
        };
        let _ = a.since(&b);
    }

    #[test]
    fn display_names() {
        assert_eq!(SpmKind::Weight.to_string(), "Weight SPM");
        assert_eq!(SpmKind::ALL.len(), 3);
    }
}
