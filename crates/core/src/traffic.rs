//! Memory and buffer traffic accounting.
//!
//! The paper's data-reuse claims are memory-traffic claims ("avoids
//! extensive load and store operations on the on-chip memory, by reusing
//! the data when possible") — these counters make them measurable and
//! ablatable. They count the four on-chip structures the engine moves
//! bytes through. The weights have no on-chip home here: they sit in
//! DRAM behind the Weight SPM, under either memory mode, so their
//! fetches are the memory hierarchy's off-chip bytes
//! (`MemReport::dram_weight_bytes`), and the Weight Buffer counts what
//! the array reads from that SPM.

use std::fmt;

/// The on-chip storage structures of Fig. 10 that the engine counts.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemoryKind {
    /// On-chip Data Memory.
    DataMemory,
    /// Data Buffer between Data Memory and the array.
    DataBuffer,
    /// Routing Buffer holding `c_ij`, `b_ij` and `v_j` during routing.
    RoutingBuffer,
    /// Weight Buffer between the Weight SPM and the array.
    WeightBuffer,
}

impl MemoryKind {
    /// All kinds, in display order.
    pub const ALL: [MemoryKind; 4] = [
        MemoryKind::DataMemory,
        MemoryKind::DataBuffer,
        MemoryKind::RoutingBuffer,
        MemoryKind::WeightBuffer,
    ];
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryKind::DataMemory => "Data Memory",
            MemoryKind::DataBuffer => "Data Buffer",
            MemoryKind::RoutingBuffer => "Routing Buffer",
            MemoryKind::WeightBuffer => "Weight Buffer",
        };
        f.write_str(s)
    }
}

/// Byte-granular read/write counters for one storage structure.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug, Default)]
pub struct TrafficCounter {
    /// Bytes read.
    pub read_bytes: u64,
    /// Bytes written.
    pub write_bytes: u64,
}

impl TrafficCounter {
    /// Total bytes moved.
    pub fn total(&self) -> u64 {
        self.read_bytes + self.write_bytes
    }
}

/// Traffic counters for the four on-chip storage structures.
///
/// # Example
///
/// ```
/// use capsacc_core::{MemoryKind, TrafficReport};
/// let mut t = TrafficReport::default();
/// t.read(MemoryKind::DataMemory, 128);
/// t.write(MemoryKind::RoutingBuffer, 64);
/// assert_eq!(t.counter(MemoryKind::DataMemory).read_bytes, 128);
/// assert_eq!(t.total_bytes(), 192);
/// ```
#[derive(Copy, Clone, PartialEq, Eq, Debug, Default)]
pub struct TrafficReport {
    counters: [TrafficCounter; 4],
}

impl TrafficReport {
    fn index(kind: MemoryKind) -> usize {
        MemoryKind::ALL
            .iter()
            .position(|&k| k == kind)
            .expect("kind present in ALL")
    }

    /// Records a read of `bytes` from `kind`.
    pub fn read(&mut self, kind: MemoryKind, bytes: u64) {
        self.counters[Self::index(kind)].read_bytes += bytes;
    }

    /// Records a write of `bytes` to `kind`.
    pub fn write(&mut self, kind: MemoryKind, bytes: u64) {
        self.counters[Self::index(kind)].write_bytes += bytes;
    }

    /// The counter for one storage structure.
    pub fn counter(&self, kind: MemoryKind) -> TrafficCounter {
        self.counters[Self::index(kind)]
    }

    /// Total bytes moved across all structures.
    pub fn total_bytes(&self) -> u64 {
        self.counters.iter().map(TrafficCounter::total).sum()
    }

    /// Returns the difference `self − earlier`, counter by counter: the
    /// traffic that occurred after `earlier` was snapshotted from the
    /// same counter stream.
    ///
    /// # Panics
    ///
    /// Panics if any counter of `earlier` exceeds its counterpart in
    /// `self` (`earlier` is not a prior snapshot).
    pub fn since(&self, earlier: &TrafficReport) -> TrafficReport {
        let mut out = TrafficReport::default();
        for ((o, a), b) in out
            .counters
            .iter_mut()
            .zip(&self.counters)
            .zip(&earlier.counters)
        {
            o.read_bytes = a
                .read_bytes
                .checked_sub(b.read_bytes)
                .expect("snapshot is not a prior state");
            o.write_bytes = a
                .write_bytes
                .checked_sub(b.write_bytes)
                .expect("snapshot is not a prior state");
        }
        out
    }

    /// Merges another report into this one.
    pub fn merge(&mut self, other: &TrafficReport) {
        for (a, b) in self.counters.iter_mut().zip(&other.counters) {
            a.read_bytes += b.read_bytes;
            a.write_bytes += b.write_bytes;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_independent() {
        let mut t = TrafficReport::default();
        t.read(MemoryKind::DataMemory, 10);
        t.read(MemoryKind::WeightBuffer, 20);
        t.write(MemoryKind::DataBuffer, 5);
        assert_eq!(t.counter(MemoryKind::DataMemory).read_bytes, 10);
        assert_eq!(t.counter(MemoryKind::WeightBuffer).read_bytes, 20);
        assert_eq!(t.counter(MemoryKind::DataBuffer).write_bytes, 5);
        assert_eq!(t.counter(MemoryKind::RoutingBuffer).total(), 0);
    }

    #[test]
    fn merge_adds_componentwise() {
        let mut a = TrafficReport::default();
        a.read(MemoryKind::WeightBuffer, 7);
        let mut b = TrafficReport::default();
        b.read(MemoryKind::WeightBuffer, 3);
        b.write(MemoryKind::WeightBuffer, 2);
        a.merge(&b);
        let c = a.counter(MemoryKind::WeightBuffer);
        assert_eq!((c.read_bytes, c.write_bytes), (10, 2));
        assert_eq!(a.total_bytes(), 12);
    }

    #[test]
    fn display_names() {
        assert_eq!(MemoryKind::DataBuffer.to_string(), "Data Buffer");
        assert_eq!(MemoryKind::ALL.len(), 4);
    }
}
