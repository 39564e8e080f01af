//! Heap allocations of one gzip body's inflation: the fixed-block
//! tables are built once, a dynamic block's tables live on the stack,
//! and the output is sized from the member's ISIZE trailer, so
//! `gunzip_capped` of a well-formed body allocates its output and
//! nothing else.
//!
//! One `#[test]` only: the counter is per thread.

use dpi_core::{gunzip_capped, gzip};
use dpi_traffic::l7::http1_chunked_gzip_request;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Allocations (`alloc` and `realloc` calls) made by this thread.
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter is a const-initialised
// thread-local `Cell` without a destructor, so touching it neither
// allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|c| c.set(c.get() + 1));
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// The L7 layer's default inspection limit.
const LIMIT: usize = 64 << 10;

#[test]
fn a_benchmark_shaped_body_inflates_in_one_allocation() {
    // The `l7_segments` gzip bodies: 64–1,023 B of lowercase letters
    // around a pattern, through `gzip()`.
    let bodies: Vec<(Vec<u8>, Vec<u8>)> = (0..16)
        .map(|seed| {
            let flow = http1_chunked_gzip_request(seed, b"alert-me-sig");
            (gzip(&flow.decoded), flow.decoded)
        })
        .collect();
    for (gz, plain) in &bodies {
        let before = ALLOCATIONS.with(Cell::get);
        let (out, truncated) = gunzip_capped(gz, LIMIT).unwrap();
        let allocations = ALLOCATIONS.with(Cell::get) - before;
        assert!(!truncated);
        assert_eq!(&out, plain);
        assert_eq!(
            allocations,
            1,
            "allocations inflating a {} B body",
            plain.len()
        );
    }
}
