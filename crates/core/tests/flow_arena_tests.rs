//! The unified flow arena from the outside (DESIGN.md §15): teardown
//! must leak nothing, migration must move the *whole* flow, and the
//! arena's scan-state face must be behaviourally identical to the
//! standalone [`FlowTable`] it replaced — checked by a property test
//! over random operation sequences, and by a sharded-pipeline property
//! test over random segment traces at worker counts {1, 2, 8}.

use dpi_core::{
    DpiInstance, FlowArena, FlowState, FlowTable, InstanceConfig, L7Policy, MiddleboxId,
    MiddleboxProfile, RuleSpec,
};
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::{FlowKey, Packet};
use dpi_traffic::flows::{flow_pool, packetize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

const IDS: MiddleboxId = MiddleboxId(1);
const CHAIN: u16 = 1;

fn fk(port: u16) -> FlowKey {
    FlowKey {
        src_ip: std::net::Ipv4Addr::new(10, 0, 0, 1),
        dst_ip: std::net::Ipv4Addr::new(10, 0, 0, 2),
        protocol: IpProtocol::Tcp,
        src_port: port,
        dst_port: 80,
    }
}

/// A stateful middlebox with the L7 layer armed, so a scanned TCP flow
/// grows *every* per-flow component an arena entry can hold: scan
/// state, a reassembler, stress samples and an L7 decode session.
fn instance_with_l7() -> DpiInstance {
    DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateful(IDS),
                vec![RuleSpec::exact(b"ATTACK".to_vec())],
            )
            .with_chain(CHAIN, vec![IDS])
            .with_l7_policy(L7Policy::default()),
    )
    .unwrap()
}

#[test]
fn teardown_clears_every_per_flow_component() {
    // Regression: close_tcp_flow used to clear only the reassembler
    // map, leaving scan state, stress samples and L7 sessions to linger
    // until eviction — a slow leak proportional to connection churn.
    let mut dpi = instance_with_l7();
    let n = 32u16;
    for i in 0..n {
        let f = fk(1000 + i);
        // An HTTP request line so the L7 identifier engages, …
        dpi.scan_tcp_segment(CHAIN, f, 0, b"GET /index.html HTTP/1.1\r\nHost: a\r\n\r\n")
            .unwrap();
        // … plus an out-of-order segment so the reassembler holds a
        // buffered byte backlog when the connection closes.
        dpi.scan_tcp_segment(CHAIN, f, 10_000, b"stranded tail bytes")
            .unwrap();
    }
    assert_eq!(dpi.tracked_flows(), n as usize);
    assert!(dpi.flow_bytes() > 0);

    for i in 0..n {
        dpi.close_tcp_flow(&fk(1000 + i));
    }
    assert_eq!(dpi.tracked_flows(), 0, "teardown must drop the whole entry");
    assert_eq!(dpi.flow_bytes(), 0, "no component may survive teardown");
    assert!(
        dpi.flow_deep_ratios().is_empty(),
        "stress samples must not leak"
    );
}

#[test]
fn migration_export_removes_the_whole_entry() {
    // Migration means the flow *leaves* this instance (§4.3.1): the
    // exported record carries the scan state, and everything else the
    // entry held — reassembly backlog, L7 session, stress window — is
    // torn down with it, not orphaned.
    let mut dpi = instance_with_l7();
    let f = fk(7);
    // Not an HTTP/TLS preamble: the flow stays Unknown and takes the
    // raw-fallback path, which is the one writing per-flow scan state.
    dpi.scan_tcp_segment(CHAIN, f, 0, b"plain preamble, mid-pattern ATTA")
        .unwrap();
    dpi.scan_tcp_segment(CHAIN, f, 10_000, b"buffered out-of-order")
        .unwrap();
    assert_eq!(dpi.tracked_flows(), 1);

    let exported = dpi.export_flow(&f).expect("flow has scan state to migrate");
    assert_eq!(dpi.tracked_flows(), 0, "export removes the whole entry");
    assert_eq!(dpi.flow_bytes(), 0);

    // The record lands whole on the target: generation and verdict
    // travel with it (the state-laundering fix).
    let mut dst = instance_with_l7();
    dst.import_flow(f, exported);
    let round = dst.export_flow(&f).expect("imported record readable");
    assert_eq!(
        (
            round.state,
            round.offset,
            round.generation,
            round.quarantined
        ),
        (
            exported.state,
            exported.offset,
            exported.generation,
            exported.quarantined
        ),
    );
}

// ---- arena ≡ FlowTable equivalence -----------------------------------

/// One scan-state operation, generated over a small key space (8 keys,
/// capacity 16) so neither structure ever evicts — eviction policies
/// intentionally differ (the arena drops one LRU entry, the standalone
/// table drops the older half) and are covered by their own unit tests.
#[derive(Debug, Clone)]
enum Op {
    Put {
        k: u16,
        state: u32,
        offset: u64,
        generation: u32,
    },
    Get {
        k: u16,
    },
    GetIfGen {
        k: u16,
        generation: u32,
    },
    Quarantine {
        k: u16,
    },
    IsQuarantined {
        k: u16,
    },
    Remove {
        k: u16,
    },
    Migrate {
        src: u16,
        dst: u16,
    },
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let k = 0u16..8;
    prop_oneof![
        (k.clone(), 0u32..64, 0u64..4096, 1u32..4).prop_map(|(k, state, offset, generation)| {
            Op::Put {
                k,
                state,
                offset,
                generation,
            }
        }),
        k.clone().prop_map(|k| Op::Get { k }),
        (k.clone(), 1u32..4).prop_map(|(k, generation)| Op::GetIfGen { k, generation }),
        k.clone().prop_map(|k| Op::Quarantine { k }),
        k.clone().prop_map(|k| Op::IsQuarantined { k }),
        k.clone().prop_map(|k| Op::Remove { k }),
        (k.clone(), k).prop_map(|(src, dst)| Op::Migrate { src, dst }),
    ]
}

fn obs(fs: Option<FlowState>) -> Option<(u32, u64, u32, bool)> {
    // `last_used` is an internal LRU stamp with no cross-structure
    // meaning; compare the observable fields only.
    fs.map(|f| (f.state, f.offset, f.generation, f.quarantined))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Under its scan-state API the arena is drop-in for [`FlowTable`]:
    /// every operation returns the same observable result on both. The
    /// one scoped divergence: `get_if_generation` on a *quarantined*
    /// flow (the table drops the whole entry on a generation mismatch,
    /// the arena keeps the verdict). The scan engine checks quarantine
    /// before ever consulting scan state, so the proptest applies the
    /// same discipline — and asserts the quarantine check itself agrees.
    #[test]
    fn arena_scan_state_matches_flowtable(ops in prop::collection::vec(op_strategy(), 1..64)) {
        let mut arena = FlowArena::new(16);
        let mut table = FlowTable::new(16);
        for op in ops {
            match op {
                Op::Put { k, state, offset, generation } => {
                    arena.put_scan_gen(fk(k), state, offset, generation);
                    table.put_gen(fk(k), state, offset, generation);
                }
                Op::Get { k } => {
                    prop_assert_eq!(obs(arena.get_scan(&fk(k))), obs(table.get(&fk(k))));
                }
                Op::GetIfGen { k, generation } => {
                    let q = arena.is_quarantined(&fk(k));
                    prop_assert_eq!(q, table.is_quarantined(&fk(k)));
                    if !q {
                        prop_assert_eq!(
                            obs(arena.get_scan_if_generation(&fk(k), generation)),
                            obs(table.get_if_generation(&fk(k), generation))
                        );
                    }
                }
                Op::Quarantine { k } => {
                    arena.quarantine(fk(k));
                    table.quarantine(fk(k));
                }
                Op::IsQuarantined { k } => {
                    prop_assert_eq!(arena.is_quarantined(&fk(k)), table.is_quarantined(&fk(k)));
                }
                Op::Remove { k } => {
                    prop_assert_eq!(obs(arena.remove(&fk(k))), obs(table.remove(&fk(k))));
                }
                Op::Migrate { src, dst } => {
                    let a = arena.export_scan(&fk(src));
                    let t = table.export(&fk(src));
                    prop_assert_eq!(obs(a), obs(t));
                    if let (Some(a), Some(t)) = (a, t) {
                        arena.import_scan(fk(dst), a);
                        table.import(fk(dst), t);
                    }
                }
            }
        }
        // Converged end state: same population, same record per key.
        prop_assert_eq!(arena.len(), table.len());
        for k in 0..8 {
            prop_assert_eq!(obs(arena.export_scan(&fk(k))), obs(table.export(&fk(k))));
        }
    }
}

// ---- sharded pipeline over random traces -----------------------------

fn pipeline_config() -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(MiddleboxId(1)),
            vec![
                RuleSpec::exact(b"attack".to_vec()),
                RuleSpec::exact(b"virus".to_vec()),
            ],
        )
        .with_middlebox(
            MiddleboxProfile::stateful(MiddleboxId(2)),
            vec![RuleSpec::exact(b"helloworld".to_vec())],
        )
        .with_chain(CHAIN, vec![MiddleboxId(1), MiddleboxId(2)])
}

/// A random multi-flow trace: per-flow payloads of random filler with
/// `attack`/`helloworld` planted at random positions (so matches land
/// inside segments and across segment boundaries alike), segmented at a
/// random MSS and round-robin interleaved across flows.
fn random_trace(seed: u64, nflows: usize, mss: usize) -> Vec<Packet> {
    let mut rng = StdRng::seed_from_u64(seed);
    let pool = flow_pool(nflows, seed ^ 0x5eed);
    let mut per_flow: Vec<Vec<Packet>> = Vec::new();
    for &flow in pool.flows().iter() {
        let mut payload = vec![0u8; rng.gen_range(20..80)];
        rng.fill(payload.as_mut_slice());
        for b in &mut payload {
            *b = b'a' + (*b % 26); // printable filler, no accidental patterns
        }
        let at = rng.gen_range(0..payload.len());
        payload.splice(at..at, b"attack".iter().copied());
        let at = rng.gen_range(0..payload.len());
        payload.splice(at..at, b"helloworld".iter().copied());
        let mut segments = packetize(flow, &payload, mss, 0);
        for p in &mut segments {
            p.push_chain_tag(CHAIN).unwrap();
        }
        per_flow.push(segments);
    }
    let longest = per_flow.iter().map(|s| s.len()).max().unwrap_or(0);
    let mut out = Vec::new();
    for round in 0..longest {
        for segs in &per_flow {
            if let Some(p) = segs.get(round) {
                out.push(p.clone());
            }
        }
    }
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// On any random segment trace, the sharded pipeline at 1, 2 and 8
    /// workers produces byte-identical results and packet mutations to
    /// the sequential instance — per-flow arena state included.
    #[test]
    fn sharded_pipeline_matches_sequential_on_random_traces(
        seed in 0u64..1_000_000,
        nflows in 1usize..5,
        mss in prop::sample::select(vec![8usize, 16, 32]),
    ) {
        let trace = random_trace(seed, nflows, mss);
        let mut instance = DpiInstance::new(pipeline_config()).unwrap();
        let engine = instance.engine().clone();
        let mut expected_packets = trace.clone();
        let mut expected_results = Vec::new();
        for p in &mut expected_packets {
            if let Some(r) = instance.inspect(p).unwrap() {
                expected_results.push(r);
            }
        }
        prop_assert!(!expected_results.is_empty(), "trace must produce matches");

        for workers in [1usize, 2, 8] {
            let mut scanner = DpiInstance::with_workers(engine.clone(), workers);
            let mut packets = trace.clone();
            let results = scanner.inspect_batch(&mut packets);
            prop_assert_eq!(&results, &expected_results, "worker count {} diverged", workers);
            prop_assert_eq!(&packets, &expected_packets, "worker count {} mutations", workers);
        }
    }
}
