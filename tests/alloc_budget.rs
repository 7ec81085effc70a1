//! Heap-allocation budget of the functional backend's matmul path.
//!
//! Once an accelerator's reusable host buffers have grown, the number
//! of heap allocations a matmul makes must not depend on how many tiles
//! it runs: the serial row sweep, the drain, weight staging and the
//! memory-hierarchy replay allocate nothing per tile. A counting global
//! allocator (per thread, so the test harness's own threads do not
//! count) measures a 1-tile matmul against a 16-N-tile × 64-K-tile one.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use capsacc::core::{Accelerator, AcceleratorConfig, ActivationKind, EngineBackend};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

/// The system allocator, counting allocations and reallocations made
/// on the current thread.
struct Counting;

fn count_one() {
    // `try_with`: a thread being torn down may still allocate.
    let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
}

// SAFETY: every method forwards to `System` with the caller's
// arguments unchanged, so `System`'s guarantees carry over.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds `alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        count_one();
        // SAFETY: forwarded verbatim; the caller upholds the contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        count_one();
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

fn allocations() -> u64 {
    ALLOCATIONS.with(Cell::get)
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
