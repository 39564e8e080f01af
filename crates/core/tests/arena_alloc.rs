//! Heap allocations of the flow arena under churn: once a full arena's
//! slab and index have reached their size, a new flow reuses the slot
//! and the index bucket its evicted victim freed, so opening it and
//! storing its scan state allocates nothing.
//!
//! One `#[test]` only: the counter is per thread, but a single sequential
//! body keeps the fill and the measured phase on one arena.

use dpi_core::FlowArena;
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::FlowKey;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::net::Ipv4Addr;

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

/// The benchmark's `tenant_churn` arena size.
const CAPACITY: u32 = 65_536;

fn key(n: u32) -> FlowKey {
    FlowKey {
        src_ip: Ipv4Addr::from(0x0a00_0000 | n),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        protocol: IpProtocol::Tcp,
        src_port: (n % 50_000) as u16,
        dst_port: 80,
    }
}

#[test]
fn a_full_arena_takes_new_flows_without_allocating() {
    let mut arena = FlowArena::new(CAPACITY as usize);
    for n in 0..CAPACITY {
        arena.open(key(n)).set_scan_state(n, 0, 1);
    }
    assert_eq!(arena.len(), CAPACITY as usize);

    let before = ALLOCATIONS.with(Cell::get);
    for n in CAPACITY..3 * CAPACITY {
        arena.open(key(n)).set_scan_state(n, 64, 1);
    }
    let allocations = ALLOCATIONS.with(Cell::get) - before;

    assert_eq!(arena.len(), CAPACITY as usize);
    assert_eq!(arena.take_events().flows_evicted, 2 * u64::from(CAPACITY));
    assert_eq!(
        allocations,
        0,
        "allocations over {} new flows",
        2 * CAPACITY
    );
}
