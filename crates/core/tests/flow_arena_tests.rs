//! The flow arena from the outside (DESIGN.md §15): teardown must leak
//! nothing, migration must move the *whole* flow, and the arena must
//! behave like a naive model of its own contract — checked by a
//! property test over random operation sequences with eviction, and by
//! a sharded-pipeline property test over random segment traces at
//! worker counts {1, 2, 8}.

use dpi_core::{
    ArenaEvents, ConflictPolicy, DpiInstance, FlowArena, FlowState, InstanceConfig, L7Action,
    L7Policy, L7Protocol, MiddleboxId, MiddleboxProfile, ProtocolPolicy, RuleSpec, ScanEngine,
};
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::{FlowKey, Packet};
use dpi_traffic::flows::{flow_pool, packetize};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

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
    DpiInstance::new(l7_config()).unwrap()
}

fn l7_config() -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![RuleSpec::exact(b"ATTACK".to_vec())],
        )
        .with_chain(CHAIN, vec![IDS])
        .with_l7_policy(L7Policy::default())
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

// ---- through the instance: the budget, the seams ----------------------

/// A stateful IDS on `CHAIN`, no L7.
fn stateful_config() -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![RuleSpec::exact(b"ATTACK".to_vec())],
        )
        .with_chain(CHAIN, vec![IDS])
}

fn instance_at(config: InstanceConfig, workers: usize) -> DpiInstance {
    DpiInstance::with_workers(Arc::new(ScanEngine::new(config).unwrap()), workers)
}

/// Two flows pinned to one shard: the budget is per shard.
fn two_flows_on_one_shard(dpi: &DpiInstance) -> (FlowKey, FlowKey) {
    let a = fk(1);
    let b = (2..)
        .map(fk)
        .find(|b| dpi.shard_of(b) == dpi.shard_of(&a))
        .unwrap();
    (a, b)
}

#[test]
fn flow_byte_budget_reaches_the_arena() {
    let mut dpi = instance_at(stateful_config().with_max_flow_bytes(4 * 1024), 2);
    let (a, b) = two_flows_on_one_shard(&dpi);
    // Two out-of-order backlogs of 3 KiB: together over budget, so the
    // colder flow goes and the one being serviced keeps its bytes.
    dpi.scan_tcp_segment(CHAIN, a, 10_000, &[0xAA; 3 * 1024])
        .unwrap();
    assert_eq!(dpi.telemetry().flows_evicted, 0);
    dpi.scan_tcp_segment(CHAIN, b, 10_000, &[0xBB; 3 * 1024])
        .unwrap();
    assert_eq!(dpi.telemetry().flows_evicted, 1);
    assert_eq!(dpi.tracked_flows(), 1);
    assert!(
        dpi.flow_bytes() > 3 * 1024,
        "the open flow lost its backlog"
    );
    assert!(dpi.export_flow(&a).is_none(), "the colder flow stayed");
}

#[test]
fn generation_swap_between_packets_reanchors_state_but_keeps_the_verdict() {
    let config = stateful_config().with_conflict_policy(ConflictPolicy::RejectFlow);
    let swap = |dpi: &mut DpiInstance| {
        let next = ScanEngine::with_generation(config.clone(), 1).unwrap();
        dpi.swap_engine(Arc::new(next)).unwrap();
    };

    // Control: without a swap the pattern spans the two packets.
    let mut dpi = DpiInstance::new(config.clone()).unwrap();
    dpi.scan_payload(CHAIN, Some(fk(1)), b"..ATT").unwrap();
    let out = dpi.scan_payload(CHAIN, Some(fk(1)), b"ACK..").unwrap();
    assert!(out.resumed && out.has_matches());

    let mut dpi = DpiInstance::new(config.clone()).unwrap();
    dpi.scan_payload(CHAIN, Some(fk(1)), b"..ATT").unwrap();
    // A conflicting retransmission quarantines flow 2 under generation 0.
    dpi.scan_tcp_segment(CHAIN, fk(2), 0, b"0123456789abcdef")
        .unwrap();
    dpi.scan_tcp_segment(CHAIN, fk(2), 0, b"0123456789ATTACK")
        .unwrap();
    assert!(dpi.flow_quarantined(&fk(2)));
    swap(&mut dpi);

    // Generation-0 state is not fed to generation 1's automaton: the
    // flow re-anchors at the root (miss-only) and is stored afresh, its
    // offset kept so stopping conditions still count flow bytes.
    let out = dpi.scan_payload(CHAIN, Some(fk(1)), b"ACK..").unwrap();
    assert!(!out.has_matches());
    assert_eq!(out.flow_offset, 5);
    let fs = dpi.export_flow(&fk(1)).unwrap();
    assert_eq!((fs.offset, fs.generation), (10, 1));
    // The verdict rides through the swap on both entry points.
    assert!(
        dpi.scan_payload(CHAIN, Some(fk(2)), b"ATTACK")
            .unwrap()
            .quarantined
    );
    let outs = dpi.scan_tcp_segment(CHAIN, fk(2), 16, b"ATTACK").unwrap();
    assert!(outs.iter().all(|o| o.quarantined && !o.has_matches()));
    assert!(dpi.flow_quarantined(&fk(2)));
}

#[test]
fn generation_swap_reanchors_l7_stream_slots_too() {
    let head = b"POST /upload HTTP/1.1\r\nHost: a\r\nContent-Length: 24\r\n\r\n";
    let (first, second) = (b"......ATT", b"ACK......ATTACK");
    let run = |swap: bool| {
        let mut dpi = instance_with_l7();
        let f = fk(1);
        let mut seq = 0u32;
        let mut outs = Vec::new();
        for (i, seg) in [&head[..], first, second].into_iter().enumerate() {
            if swap && i == 2 {
                let next = ScanEngine::with_generation(l7_config(), 1).unwrap();
                dpi.swap_engine(Arc::new(next)).unwrap();
            }
            outs.extend(dpi.scan_tcp_segment(CHAIN, f, seq, seg).unwrap());
            seq += seg.len() as u32;
        }
        let matches: usize = outs
            .iter()
            .filter(|o| o.l7.is_some())
            .flat_map(|o| o.reports.iter())
            .map(|r| r.records.len())
            .sum();
        matches
    };
    // The body slot resumes across segments: both occurrences match …
    assert_eq!(run(false), 2);
    // … and re-anchors at the root across a swap: only the occurrence
    // that lies wholly in the new generation's bytes does.
    assert_eq!(run(true), 1);
}

#[test]
fn stateless_chain_with_a_flow_key_stores_stress_but_no_scan_state() {
    let mut dpi = DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(IDS),
                vec![RuleSpec::exact(b"ATTACK".to_vec())],
            )
            .with_chain(CHAIN, vec![IDS]),
    )
    .unwrap();
    let payload = [b'a'; 256];
    dpi.scan_payload(CHAIN, Some(fk(1)), &payload).unwrap();
    let out = dpi.scan_payload(CHAIN, Some(fk(1)), &payload).unwrap();
    assert!(!out.resumed);
    assert_eq!(dpi.tracked_flows(), 1);
    assert_eq!(dpi.flow_deep_ratios().len(), 1, "stress samples recorded");
    // Stress was all the entry held: consuming the window releases it.
    dpi.reset_flow_stress();
    assert_eq!(dpi.tracked_flows(), 0);
    assert!(
        dpi.export_flow(&fk(1)).is_none(),
        "no scan state was stored"
    );
}

#[test]
fn migrated_verdict_lands_out_of_reach_of_churn() {
    // Both causes of the one verdict: a divergent retransmission under
    // `RejectFlow`, and an HTTP request under an L7 `Block` policy.
    let conflict: &[(u32, &[u8])] = &[(0, b"0123456789abcdef"), (0, b"0123456789ATTACK")];
    let http: &[(u32, &[u8])] = &[(0, b"GET / HTTP/1.1\r\n")];
    let block = L7Policy::default().with(
        L7Protocol::Http1,
        ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
    );
    for (mut config, segments) in [
        (
            stateful_config().with_conflict_policy(ConflictPolicy::RejectFlow),
            conflict,
        ),
        (stateful_config().with_l7_policy(block), http),
    ] {
        // Eight slots, so the churn below runs the arena past its bound.
        config.max_flows = Some(8);
        let mut src = DpiInstance::new(config.clone()).unwrap();
        src.scan_payload(CHAIN, Some(fk(1)), b"..ATT").unwrap();
        for &(seq, payload) in segments {
            src.scan_tcp_segment(CHAIN, fk(1), seq, payload).unwrap();
        }
        let exported = src.export_flow(&fk(1)).unwrap();
        assert!(exported.quarantined, "{segments:?}");
        assert_eq!(src.tracked_flows(), 0);

        // The target already tracks the flow as an ordinary live entry.
        let mut dst = DpiInstance::new(config).unwrap();
        dst.scan_payload(CHAIN, Some(fk(1)), b"seen here too")
            .unwrap();
        dst.import_flow(fk(1), exported);
        for i in 0..32 {
            dst.scan_payload(CHAIN, Some(fk(100 + i)), b"churn")
                .unwrap();
        }
        assert!(dst.telemetry().flows_evicted > 0, "the churn never evicted");
        assert!(dst.flow_quarantined(&fk(1)), "churn flushed the verdict");
        assert_eq!(dst.export_flow(&fk(1)), Some(exported));
    }
}

#[test]
fn blocked_flows_leave_live_flows_room() {
    // Each blocked flow leaves a verdict behind. Verdicts hold at most
    // half the arena, so 2N of them past an N-flow arena displace only
    // older verdicts — never the warm intercepted flow whose pattern
    // is split across its last two segments.
    const N: usize = 8;
    let block = L7Policy::default().with(
        L7Protocol::Http1,
        ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
    );
    let mut config = stateful_config().with_l7_policy(block);
    config.max_flows = Some(N);
    let engine = Arc::new(ScanEngine::new(config).unwrap());
    let mut shard = dpi_core::instance::ShardState::new(&engine);
    let live = fk(1);
    let mut matched = false;
    for i in 0..2 * N {
        let seg: &[u8] = match 2 * N - i {
            2 => b"\x00\x01AT",
            1 => b"TACK",
            _ => b"\x00\x01\x02\x03",
        };
        let outs = engine
            .scan_tcp_segment(&mut shard, CHAIN, live, 4 * i as u32, seg)
            .unwrap();
        matched |= outs.iter().any(|o| o.has_matches());
        let blocked = fk(100 + i as u16);
        let outs = engine
            .scan_tcp_segment(&mut shard, CHAIN, blocked, 0, b"GET / HTTP/1.1\r\n")
            .unwrap();
        assert!(outs.iter().any(|o| o.quarantined));
    }
    assert!(matched, "the live flow lost its scan state to verdicts");
    assert!(!shard.flow_quarantined(&live));
    let t = shard.telemetry();
    assert_eq!(t.l7_blocked_flows, 2 * N as u64);
    assert_eq!(t.quarantined_flow_evictions, (2 * N - N / 2) as u64);
}

// ---- arena ≡ naive model ----------------------------------------------

/// One arena operation over a key space of 64. Capacity is drawn from
/// 1..=40, so most cases run below the key space and evict: eviction
/// order and verdict preference are inside the differential check.
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
    let k = 0u16..64;
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

/// What a lookup, an export or a removal shows of one flow.
type Observed = Option<(u32, u64, u32, bool)>;

fn obs(fs: Option<FlowState>) -> Observed {
    fs.map(|f| (f.state, f.offset, f.generation, f.quarantined))
}

#[derive(Debug, Clone, Copy)]
struct Rec {
    key: u16,
    scan: Option<(u32, u64, u32)>,
    quarantined: bool,
}

impl Rec {
    /// A verdict without scan state reads as the zero record.
    fn observed(&self) -> Observed {
        let scan = self.scan.or(self.quarantined.then_some((0, 0, 0)));
        scan.map(|(s, o, g)| (s, o, g, self.quarantined))
    }
}

/// The arena's contract restated naively: a most-recent-first `Vec` of
/// records with a sticky verdict bit, every rule a linear walk.
struct Model {
    flows: Vec<Rec>,
    capacity: usize,
    events: ArenaEvents,
}

impl Model {
    fn peek(&self, k: u16) -> Option<&Rec> {
        self.flows.iter().find(|r| r.key == k)
    }

    /// Moves `k`'s record to the front — created first if
    /// `create`, evicting the oldest forgettable flow at capacity, or the
    /// oldest verdict (counted) when there is nothing else.
    fn touch(&mut self, k: u16, create: bool) -> Option<&mut Rec> {
        let rec = match self.flows.iter().position(|r| r.key == k) {
            Some(i) => self.flows.remove(i),
            None if !create => return None,
            None => {
                if self.flows.len() >= self.capacity {
                    let victim = self.flows.iter().rposition(|r| !r.quarantined);
                    if victim.is_none() {
                        self.events.quarantined_evicted += 1;
                    }
                    self.flows.remove(victim.unwrap_or(self.flows.len() - 1));
                    self.events.flows_evicted += 1;
                }
                Rec {
                    key: k,
                    scan: None,
                    quarantined: false,
                }
            }
        };
        self.flows.insert(0, rec);
        self.flows.first_mut()
    }

    /// Verdicts hold at most half the slots (at least one): past that,
    /// the oldest verdict goes, counted.
    fn bound_verdicts(&mut self) {
        let verdicts = self.flows.iter().filter(|r| r.quarantined).count();
        if verdicts > (self.capacity / 2).max(1) {
            let oldest = self.flows.iter().rposition(|r| r.quarantined).unwrap();
            self.flows.remove(oldest);
            self.events.quarantined_evicted += 1;
            self.events.flows_evicted += 1;
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every operation returns the same observable result on the arena
    /// and on the naive model, both drop the same flows for the same
    /// reason at the same op (the event counters agree after each), and
    /// they converge on the same population.
    #[test]
    fn arena_scan_state_matches_naive_model(
        ops in prop::collection::vec(op_strategy(), 1..256),
        capacity in 1usize..=40,
    ) {
        let mut arena = FlowArena::new(capacity);
        let mut model = Model {
            flows: Vec::new(),
            capacity,
            events: ArenaEvents::default(),
        };
        for op in ops {
            match op {
                Op::Put { k, state, offset, generation } => {
                    arena.put_scan_gen(fk(k), state, offset, generation);
                    model.touch(k, true).unwrap().scan = Some((state, offset, generation));
                }
                Op::Get { k } => {
                    let expected = model.peek(k).and_then(Rec::observed);
                    prop_assert_eq!(obs(arena.export_scan(&fk(k))), expected);
                }
                Op::GetIfGen { k, generation } => {
                    // A stale generation drops the scan state, never the
                    // verdict; an entry left holding nothing is released.
                    let expected = match model.touch(k, false) {
                        Some(r) if r.scan.is_some_and(|(_, _, g)| g == generation) => r.observed(),
                        Some(r) => {
                            r.scan = None;
                            if !r.quarantined {
                                model.flows.remove(0);
                            }
                            None
                        }
                        None => None,
                    };
                    prop_assert_eq!(obs(arena.get_scan_if_generation(&fk(k), generation)), expected);
                }
                Op::Quarantine { k } => {
                    arena.open(fk(k)).quarantine();
                    model.touch(k, true).unwrap().quarantined = true;
                    model.bound_verdicts();
                }
                Op::IsQuarantined { k } => {
                    let expected = model.peek(k).is_some_and(|r| r.quarantined);
                    prop_assert_eq!(arena.is_quarantined(&fk(k)), expected);
                }
                Op::Remove { k } => {
                    let expected = model
                        .flows
                        .iter()
                        .position(|r| r.key == k)
                        .and_then(|i| model.flows.remove(i).observed());
                    prop_assert_eq!(obs(arena.remove(&fk(k))), expected);
                }
                Op::Migrate { src, dst } => {
                    let exported = arena.export_scan(&fk(src));
                    let expected = model.peek(src).and_then(Rec::observed);
                    prop_assert_eq!(obs(exported), expected);
                    if let (Some(fs), Some((s, o, g, q))) = (exported, expected) {
                        arena.import_scan(fk(dst), fs);
                        let r = model.touch(dst, true).unwrap();
                        r.scan = Some((s, o, g));
                        r.quarantined |= q;
                        model.bound_verdicts();
                    }
                }
            }
            prop_assert_eq!(arena.take_events(), std::mem::take(&mut model.events));
            prop_assert!(arena.len() <= capacity);
        }
        // Converged end state: same population, same record per key.
        prop_assert_eq!(arena.len(), model.flows.len());
        for k in 0..64 {
            let expected = model.peek(k).and_then(Rec::observed);
            prop_assert_eq!(obs(arena.export_scan(&fk(k))), expected);
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
