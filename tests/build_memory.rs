//! Peak heap of compiling the combined automaton, on the rule set every
//! benchmark workload compiles: `snort_like(4356, 42)` split into the
//! paper's Snort1/Snort2 sets (54,435 states, a 28 MB `u16` table).
//!
//! The table is the dominant allocation and is built once, directly at
//! its cell width and in its final numbering; what a build may hold
//! beside it is the builder's trie clone and the renumbering map. A
//! build that goes through a wider or a second table (a `u32` table in
//! trie numbering permuted into another and then narrowed peaks at
//! 4.24×) fails this budget.
//!
//! One `#[test]` only: the counters are per thread and byte counts repeat
//! exactly, so nothing else may allocate on the measuring thread.

use dpi_service::ac::{Automaton, CombinedAcBuilder, MiddleboxId, PatternSet, ScanKernel};
use dpi_service::traffic::{snort_like, split_set};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    /// Bytes this thread holds, and the highest that has been.
    static LIVE: Cell<usize> = const { Cell::new(0) };
    static PEAK: Cell<usize> = const { Cell::new(0) };
}

fn grew(by: usize) {
    let live = LIVE.with(|l| {
        l.set(l.get() + by);
        l.get()
    });
    PEAK.with(|p| p.set(p.get().max(live)));
}

fn shrank(by: usize) {
    // A block freed here may have been allocated by another thread.
    LIVE.with(|l| l.set(l.get().saturating_sub(by)));
}

struct Counting;

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counters are const-initialised
// thread-local `Cell`s without destructors, so touching them neither
// allocates nor runs during thread teardown.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grew(layout.size());
        System.alloc_zeroed(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrank(layout.size());
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        // Counted as the worst case, old and new block live at once.
        grew(new_size);
        shrank(layout.size());
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// How many times the finished automaton's own bytes a build may hold at
/// its peak, the automaton included. Measured 1.26 (35,291,722 B for a
/// 28,058,002 B automaton); the parent of this budget peaked at 4.24
/// (118,903,882 B).
const BUDGET: f64 = 3.5;

#[test]
fn building_the_automaton_peaks_near_its_own_size() {
    let all = snort_like(4356, 42);
    let (snort1, snort2) = split_set(&all, 2500, 42);
    let mut builder = CombinedAcBuilder::new();
    builder
        .add_set(PatternSet::new(MiddleboxId(1), snort1))
        .unwrap();
    builder
        .add_set(PatternSet::new(MiddleboxId(2), snort2))
        .unwrap();

    let before = LIVE.with(Cell::get);
    PEAK.with(|p| p.set(before));
    let ac = builder.build_auto();
    let peak = PEAK.with(Cell::get) - before;

    // The counts the benchmark prints as `controller.automaton_states`,
    // `kernel.table_bytes` and `kernel`: they repeat exactly, so a
    // structural change to the table fails here and not only there.
    assert_eq!(ac.state_count(), 54_435);
    assert_eq!(ac.kernel_name(), "compact");
    let size = ac.memory_bytes();
    assert_eq!(size, 28_058_002);
    let ratio = peak as f64 / size as f64;
    assert!(
        ratio <= BUDGET,
        "build peaked at {peak} B for a {size} B automaton ({ratio:.2}x, budget {BUDGET}x)"
    );
}
