//! Memory and buffer traffic accounting.
//!
//! The paper's data-reuse claims are memory-traffic claims ("avoids
//! extensive load and store operations on the on-chip memory, by reusing
//! the data when possible") — these counters make them measurable and
//! ablatable.

use std::fmt;

/// The storage structures of Fig. 10.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub enum MemoryKind {
    /// On-chip Data Memory.
    DataMemory,
    /// On-chip Weight Memory.
    WeightMemory,
    /// Data Buffer between Data Memory and the array.
    DataBuffer,
    /// Routing Buffer holding `c_ij`, `b_ij` and `v_j` during routing.
    RoutingBuffer,
    /// Weight Buffer between Weight Memory and the array.
    WeightBuffer,
    /// Off-chip DRAM behind the on-chip hierarchy (weights fetched
    /// through the prefetcher, input images staged per batch). The only
    /// off-chip structure; everything above is on chip.
    Dram,
}

impl MemoryKind {
    /// All kinds, in display order (on-chip structures first).
    pub const ALL: [MemoryKind; 6] = [
        MemoryKind::DataMemory,
        MemoryKind::WeightMemory,
        MemoryKind::DataBuffer,
        MemoryKind::RoutingBuffer,
        MemoryKind::WeightBuffer,
        MemoryKind::Dram,
    ];

    /// Whether this structure is on chip.
    pub fn is_onchip(&self) -> bool {
        !matches!(self, MemoryKind::Dram)
    }
}

impl fmt::Display for MemoryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MemoryKind::DataMemory => "Data Memory",
            MemoryKind::WeightMemory => "Weight Memory",
            MemoryKind::DataBuffer => "Data Buffer",
            MemoryKind::RoutingBuffer => "Routing Buffer",
            MemoryKind::WeightBuffer => "Weight Buffer",
            MemoryKind::Dram => "DRAM",
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

/// Traffic counters for all six storage structures (five on-chip plus
/// DRAM).
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
    counters: [TrafficCounter; 6],
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

    /// Total bytes moved across all structures (on-chip and off-chip).
    pub fn total_bytes(&self) -> u64 {
        self.counters.iter().map(TrafficCounter::total).sum()
    }

    /// Bytes moved across the on-chip structures only.
    pub fn onchip_bytes(&self) -> u64 {
        MemoryKind::ALL
            .iter()
            .filter(|k| k.is_onchip())
            .map(|&k| self.counter(k).total())
            .sum()
    }

    /// Bytes moved across the off-chip (DRAM) channel.
    pub fn offchip_bytes(&self) -> u64 {
        self.counter(MemoryKind::Dram).total()
    }

    /// Amortized off-chip bytes per image for a report covering `batch`
    /// images — the DRAM-side counterpart of
    /// [`TrafficReport::bytes_per_image`].
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn offchip_bytes_per_image(&self, batch: u64) -> f64 {
        self.bytes_per_image(MemoryKind::Dram, batch)
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

    /// This report with every counter multiplied by `k`: the traffic
    /// of `k` repetitions.
    pub(crate) fn scaled(&self, k: u64) -> TrafficReport {
        let mut out = *self;
        for c in &mut out.counters {
            c.read_bytes *= k;
            c.write_bytes *= k;
        }
        out
    }

    /// Amortized bytes (read + write) per image for one storage
    /// structure, for a report that covers a batch of `batch` images.
    ///
    /// This is the metric the batched schedule improves: weight-side
    /// counters shrink per image as the batch grows, data-side counters
    /// stay flat.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn bytes_per_image(&self, kind: MemoryKind, batch: u64) -> f64 {
        assert!(batch > 0, "batch must be non-zero");
        self.counter(kind).total() as f64 / batch as f64
    }

    /// Amortized total bytes per image across all structures for a
    /// report covering `batch` images.
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn total_bytes_per_image(&self, batch: u64) -> f64 {
        assert!(batch > 0, "batch must be non-zero");
        self.total_bytes() as f64 / batch as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_are_independent() {
        let mut t = TrafficReport::default();
        t.read(MemoryKind::DataMemory, 10);
        t.read(MemoryKind::WeightMemory, 20);
        t.write(MemoryKind::DataBuffer, 5);
        assert_eq!(t.counter(MemoryKind::DataMemory).read_bytes, 10);
        assert_eq!(t.counter(MemoryKind::WeightMemory).read_bytes, 20);
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
        assert_eq!(MemoryKind::Dram.to_string(), "DRAM");
        assert_eq!(MemoryKind::ALL.len(), 6);
    }

    #[test]
    fn onchip_offchip_split() {
        let mut t = TrafficReport::default();
        t.read(MemoryKind::DataMemory, 100);
        t.read(MemoryKind::Dram, 30);
        t.write(MemoryKind::Dram, 10);
        assert_eq!(t.onchip_bytes(), 100);
        assert_eq!(t.offchip_bytes(), 40);
        assert_eq!(t.total_bytes(), 140);
        assert_eq!(t.offchip_bytes_per_image(4), 10.0);
        assert!(MemoryKind::WeightBuffer.is_onchip());
        assert!(!MemoryKind::Dram.is_onchip());
    }
}
