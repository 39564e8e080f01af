//! Heap-allocation budget of the packet path, `SystemHandle::send` to
//! `SinkHost`, on the deployment the `chain_small` benchmark workload
//! uses: a stateful IDS and a stateless AV on one chain, one DPI
//! instance, dedicated result packets.
//!
//! An unmatched packet is owned once and moved hop to hop: what it may
//! allocate is its own payload buffer, its tag stack, and the amortised
//! growth of the sink's retained list. Everything else (emission buffers,
//! per-scan hit lists, member lookups) is reused or built lazily.
//!
//! One `#[test]` only: the counter is per thread, but a single sequential
//! body keeps the warm-up and the measured phases on one system.

use dpi_service::ac::MiddleboxId;
use dpi_service::middlebox::{antivirus, ids};
use dpi_service::packet::FlowKey;
use dpi_service::traffic::{flow_pool, snort_like, split_set};
use dpi_service::{SystemBuilder, SystemHandle};
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

const IDS: MiddleboxId = MiddleboxId(1);
const AV: MiddleboxId = MiddleboxId(2);
const FLOWS: usize = 256;
const WARM_UP: usize = 10_000;
const MEASURED: usize = 10_000;
/// Mean allocations an unmatched `send` may make: payload, tag stack, and
/// the sink's amortised growth. The parent of this budget made 22.0.
const UNMATCHED_BUDGET: f64 = 2.1;
/// The same for a matching packet (data + result packet through both
/// middleboxes): hit list, match records, reports, the result packet's
/// tag stack, each middlebox's rule evaluation. Measured 15.0; the
/// parent of this budget made 48.0.
const MATCHED_BUDGET: f64 = 16.0;

/// Mean allocations per `send` over `MEASURED` sends of `payload`,
/// round-robin over `FLOWS` in-order flows, after `WARM_UP` sends that
/// are not counted (flow state, buffers and maps reach steady size).
fn allocations_per_send(sys: &mut SystemHandle, flows: &[FlowKey], payload: &[u8]) -> f64 {
    let mut seqs = vec![0u32; flows.len()];
    let mut send_n = |sys: &mut SystemHandle, n: usize| {
        for i in 0..n {
            let slot = i % flows.len();
            sys.send(flows[slot], seqs[slot], payload);
            seqs[slot] = seqs[slot].wrapping_add(payload.len() as u32);
        }
    };
    send_n(sys, WARM_UP);
    let before = ALLOCATIONS.with(Cell::get);
    send_n(sys, MEASURED);
    let after = ALLOCATIONS.with(Cell::get);
    (after - before) as f64 / MEASURED as f64
}

#[test]
fn packet_path_stays_inside_its_allocation_budget() {
    let all = snort_like(400, 7);
    let (snort1, snort2) = split_set(&all, 250, 7);
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(IDS, &snort1))
        .with_middlebox(antivirus(AV, &snort2))
        .with_chain(&[IDS, AV])
        .build()
        .expect("system builds");
    let pool = flow_pool(FLOWS, 7);
    let flows: Vec<FlowKey> = (0..FLOWS).map(|i| pool.get(i)).collect();

    // Unmatched packets: lowercase filler no generated pattern occurs in.
    for len in [64usize, 1400] {
        let payload: Vec<u8> = b"plain filler, nothing to see; "
            .iter()
            .copied()
            .cycle()
            .take(len)
            .collect();
        let matches_before = sys.dpi_telemetry().matches;
        let delivered_before = sys.sink.count();
        let per_send = allocations_per_send(&mut sys, &flows, &payload);
        eprintln!("{len} B unmatched: {per_send:.3} allocations per send");
        assert_eq!(sys.dpi_telemetry().matches, matches_before, "{len} B");
        assert_eq!(
            sys.sink.count() - delivered_before,
            WARM_UP + MEASURED,
            "{len} B: every packet is delivered"
        );
        assert!(
            per_send <= UNMATCHED_BUDGET,
            "{len} B unmatched: {per_send:.2} allocations per send (budget {UNMATCHED_BUDGET})"
        );
    }

    // A matching packet: the IDS alerts and forwards, so the data packet
    // and its result packet cross both middleboxes.
    let mut payload = b"GET /index.html HTTP/1.1 ".to_vec();
    payload.extend_from_slice(&snort1[0]);
    payload.resize(200, b' ');
    let ids_matches_before = sys.stats_of(IDS).expect("ids registered").matches;
    let delivered_before = sys.sink.count();
    let per_send = allocations_per_send(&mut sys, &flows, &payload);
    eprintln!("matched: {per_send:.3} allocations per send");
    let sent = (WARM_UP + MEASURED) as u64;
    assert_eq!(
        sys.stats_of(IDS).expect("ids registered").matches - ids_matches_before,
        sent,
        "every matching packet is reported to the IDS once"
    );
    assert_eq!(sys.sink.count() - delivered_before, sent as usize);
    assert!(
        per_send <= MATCHED_BUDGET,
        "matched: {per_send:.2} allocations per send (budget {MATCHED_BUDGET})"
    );
    assert_eq!(sys.net.dropped(), 0);
}
