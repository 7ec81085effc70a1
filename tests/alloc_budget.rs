//! Heap budget of the functional backend's matmul path.
//!
//! Once an accelerator's reusable host buffers have grown, the number
//! of heap allocations a matmul makes must not depend on how many tiles
//! it runs: the serial row sweep, the drain, weight staging and the
//! memory-hierarchy replay allocate nothing per tile. And a matmul
//! stages its data operand once: its peak live heap holds one panel of
//! it, not two. A counting global allocator (per thread, so the test
//! harness's own threads do not count) measures allocations and live
//! and peak heap bytes.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capsacc::core::{Accelerator, AcceleratorConfig, ActivationKind, EngineBackend};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
    static LIVE_BYTES: Cell<isize> = const { Cell::new(0) };
    static PEAK_BYTES: Cell<isize> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations and
/// tracking live and peak heap bytes on the current thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

/// Moves the current thread's live heap by `delta` bytes, raising its
/// peak with it.
fn track_bytes(delta: isize) {
    let _ = LIVE_BYTES.try_with(|live| {
        live.set(live.get() + delta);
        let _ = PEAK_BYTES.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Byte size of an allocation, as a signed delta.
fn bytes(size: usize) -> isize {
    isize::try_from(size).expect("allocation sizes fit isize")
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        track_bytes(bytes(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        track_bytes(-bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        track_bytes(bytes(layout.size()));
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        track_bytes(bytes(new_size) - bytes(layout.size()));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
}

/// Runs `f` and returns its result with the most heap bytes it held
/// live at once on this thread, beyond what was live when it started.
fn peak_bytes_of<T>(f: impl FnOnce() -> T) -> (T, usize) {
    let start = LIVE_BYTES.with(Cell::get);
    PEAK_BYTES.with(|peak| peak.set(start));
    let out = f();
    let peak = PEAK_BYTES.with(Cell::get) - start;
    (
        out,
        usize::try_from(peak).expect("the peak is at least the start"),
    )
}

#[test]
fn warmed_matmul_allocations_do_not_grow_with_tiles() {
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    cfg.functional.threads = 1;
    let (rows, cols) = (cfg.rows, cfg.cols);
    let mut acc = Accelerator::new(cfg);
    let m = 3;
    let mut allocations_of = |k: usize, n: usize| {
        let before = allocations();
        let (outs, _) = acc.matmul_batch(
            1,
            &|_, mi, ki| ((mi + ki) % 7) as i8 - 3,
            &|ki, ni| ((ki * 3 + ni) % 5) as i8 - 2,
            m,
            k,
            n,
            None,
            6,
            ActivationKind::Identity,
        );
        assert_eq!(outs[0].shape(), [m, n]);
        drop(outs);
        allocations() - before
    };
    let one_tile = (rows, cols);
    let many_tiles = (64 * rows, 16 * cols);
    // Warm up: grow every reusable buffer to the larger matmul and let
    // the memory model see both geometries.
    allocations_of(many_tiles.0, many_tiles.1);
    allocations_of(one_tile.0, one_tile.1);
    let small = allocations_of(one_tile.0, one_tile.1);
    let large = allocations_of(many_tiles.0, many_tiles.1);
    assert!(small > 0, "the counting allocator must see the outputs");
    assert_eq!(
        large, small,
        "1,024 tiles allocate {large} times, 1 tile {small} times"
    );
}

#[test]
fn matmul_stages_one_data_panel() {
    // A matmul whose data operand dominates: a 4-image batch of
    // 64 × 4,096 rows against 16 output columns (one N-tile).
    let (batch, m, k, n) = (4, 64, 4096, 16);
    let mut cfg = AcceleratorConfig::paper();
    cfg.backend = EngineBackend::Functional;
    cfg.functional.threads = 1;
    let mut acc = Accelerator::new(cfg);
    let ((outs, _), peak) = peak_bytes_of(|| {
        acc.matmul_batch(
            batch,
            &|img, mi, ki| ((img + mi * 3 + ki) % 11) as i8 - 5,
            &|ki, ni| ((ki + ni * 7) % 5) as i8 - 2,
            m,
            k,
            n,
            None,
            6,
            ActivationKind::Identity,
        )
    });
    assert_eq!(outs.len(), batch);
    // `matmul_batch`'s dense copies of both operands and their index
    // tables, then one data panel of one byte per element plus 3 pad
    // bytes, the packed weights (one byte per weight and one 64-byte
    // psum seed per 16-row K-tile, at most doubled by vector growth)
    // and a fixed slack for the accumulator set, the outputs and the
    // bookkeeping. A second copy of the panel (`batch·M·K` bytes) does
    // not fit.
    let dense = batch * m * k + k * n + (m + k) * size_of::<usize>();
    let panel = batch * m * k + 3;
    let packed = 2 * (k * n + k / 16 * 64);
    let slack = 128 << 10;
    let budget = dense + panel + packed + slack;
    assert!(
        peak <= budget,
        "peak live heap {peak} B exceeds {budget} B (dense {dense}, panel {panel}, \
         packed {packed}, slack {slack})"
    );
}
