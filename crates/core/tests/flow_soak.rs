//! Million-flow soak (DESIGN.md §15): drive a million distinct flows
//! through a bounded arena and assert the byte footprint holds a *flat*
//! ceiling — eviction replaces, it never grows. This is the bounded-
//! memory guarantee the overload watermarks depend on: `total_bytes`
//! is only a trustworthy pressure signal if nothing escapes it.

use dpi_core::FlowArena;
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::FlowKey;
use std::net::Ipv4Addr;

fn key(n: u64) -> FlowKey {
    FlowKey {
        src_ip: Ipv4Addr::from(0x0a00_0000 | (n >> 16) as u32),
        dst_ip: Ipv4Addr::new(10, 0, 0, 2),
        protocol: IpProtocol::Tcp,
        src_port: (n & 0xFFFF) as u16,
        dst_port: 80,
    }
}

#[test]
fn million_flow_soak_holds_a_flat_byte_ceiling() {
    const CAPACITY: usize = 65_536;
    const FLOWS: u64 = 1_000_000;

    let mut arena = FlowArena::new(CAPACITY);
    // Fill to capacity, then freeze the ceiling: scan-state entries are
    // uniform, so this is the largest footprint the arena may ever show.
    for i in 0..CAPACITY as u64 {
        arena.put_scan_gen(key(i), (i % 101) as u32, i, 1);
    }
    let ceiling = arena.total_bytes();
    assert!(ceiling > 0);

    // Soak: a million distinct flows offered against a 64k bound. Every
    // insert past capacity must evict an older flow first — the count
    // and the byte total never exceed the frozen ceiling.
    let mut peak = ceiling;
    for i in CAPACITY as u64..FLOWS {
        arena.put_scan_gen(key(i), (i % 101) as u32, i, 1);
        peak = peak.max(arena.total_bytes());
        debug_assert!(arena.len() <= CAPACITY);
    }
    assert_eq!(arena.len(), CAPACITY, "population pinned at the bound");
    assert_eq!(peak, ceiling, "byte footprint never grew past the ceiling");
    assert_eq!(
        arena.take_events().flows_evicted,
        FLOWS - CAPACITY as u64,
        "every displaced flow is an accounted eviction, none silent"
    );

    // The survivors are exactly the newest CAPACITY flows (true-LRU):
    // a spot check across the resident window.
    for i in (FLOWS - 16)..FLOWS {
        assert!(
            arena.export_scan(&key(i)).is_some(),
            "recent flow {i} resident"
        );
    }
}
