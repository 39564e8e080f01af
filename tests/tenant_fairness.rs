//! Deterministic tenant-fairness burst scenario (DESIGN.md §16).
//!
//! The test scripts a burst of *one* tenant's offered load — the
//! attacker — while a victim tenant keeps sending a steady trickle
//! into the same overloaded instance. Weighted-fair shedding must make
//! the attacker absorb its own burst:
//!
//! * the victim's shed count stays at its no-burst baseline (zero),
//! * the victim's per-batch verdict timeline — its contribution to each
//!   batch's output queue — is identical to the baseline run, including
//!   at the p99,
//! * every shed the trace ring records names the attacker; the shed
//!   timeline reconstructed from `BatchStart`/`TenantShed` events
//!   accounts for exactly the attacker's telemetry total.
//!
//! The burst windows are ordinal-scripted, so every run is the same run.

use dpi_service::ac::MiddleboxId;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::TenantId;
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::{SystemBuilder, SystemHandle, TraceKind, TraceSource};

const MB_ATTACKER: MiddleboxId = MiddleboxId(1);
const MB_VICTIM: MiddleboxId = MiddleboxId(2);
const SIG_ATTACKER: &[u8] = b"attack-sig";
const SIG_VICTIM: &[u8] = b"victim-sig";
const ATTACKER: TenantId = TenantId(1);
const VICTIM: TenantId = TenantId(2);

/// Attacker source packets per round; in the burst run the first 3 of
/// every 8 are each sent `BURST_FACTOR` times.
const SRC_PER_ROUND: usize = 8;
const ROUNDS: usize = 12;
const BURST_FACTOR: u32 = 4;

fn archive_trace(sys: &SystemHandle, name: &str) {
    if let Ok(dir) = std::env::var("DPI_CHAOS_LOG_DIR") {
        let _ = std::fs::create_dir_all(&dir);
        let _ = std::fs::write(format!("{dir}/{name}.jsonl"), sys.trace_jsonl());
    }
}

fn build(workers: usize) -> SystemHandle {
    SystemBuilder::new()
        .with_middlebox(antivirus(MB_ATTACKER, &[SIG_ATTACKER.to_vec()]).owned_by(ATTACKER))
        .with_middlebox(antivirus(MB_VICTIM, &[SIG_VICTIM.to_vec()]).owned_by(VICTIM))
        .with_chain(&[MB_ATTACKER])
        .with_chain(&[MB_VICTIM])
        .with_dpi_workers(workers)
        .with_overload_policy(OverloadPolicy::queue_only(1, 0))
        .build()
        .expect("system builds")
}

fn flow_on_shard_of(sys: &SystemHandle, base_port: u16, shard: usize) -> FlowKey {
    (0u16..512)
        .map(|j| {
            flow(
                [10, 0, 0, 1],
                base_port + j,
                [10, 0, 0, 2],
                80,
                IpProtocol::Tcp,
            )
        })
        .find(|f| sys.scanner.shard_of(f) == shard)
        .expect("some flow hashes to the target shard")
}

fn tagged(sys: &SystemHandle, f: FlowKey, chain_slot: usize, seq: u32, payload: &[u8]) -> Packet {
    let mut p = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        f,
        seq,
        payload.to_vec(),
    );
    p.push_chain_tag(sys.chain_ids[chain_slot]).unwrap();
    p
}

/// What one run looked like, from the victim's side of the fence.
struct RunOutcome {
    /// Victim verdicts per batch — the victim's contribution to each
    /// batch's result queue.
    victim_verdicts_per_batch: Vec<u64>,
    victim_shed: u64,
    victim_packets: u64,
    attacker_shed: u64,
    /// `(batch_idx, tenant) -> packets` reconstructed from the trace
    /// ring, aggregated per batch: the per-shard `TenantShed` deltas of
    /// one batch land in scheduler order, but their per-batch sum is
    /// deterministic.
    shed_timeline: Vec<((usize, u16), u64)>,
}

/// Drives `ROUNDS` batches: the attacker offers `SRC_PER_ROUND` source
/// packets (the burst run sends the first 3 of every 8 `BURST_FACTOR`
/// times) followed by one victim packet on the same shard. The victim
/// flow shares a shard with the attacker flow, so the victim sits far
/// below its fair share on every shard it touches.
fn run(workers: usize, burst: bool) -> RunOutcome {
    let mut sys = build(workers);
    let attacker_flow = flow_on_shard_of(&sys, 1000, 0);
    let victim_shard = sys.scanner.shard_of(&attacker_flow);
    let victim_flow = flow_on_shard_of(&sys, 2000, victim_shard);

    let attacker_payload = [b"aaaa ", SIG_ATTACKER, b" aaaa"].concat();
    let victim_payload = [b"vvvv ", SIG_VICTIM, b" vvvv"].concat();

    let mut victim_verdicts_per_batch = Vec::with_capacity(ROUNDS);
    let mut seq = 0u32;
    for round in 0..ROUNDS {
        let mut batch = Vec::new();
        for j in 0..SRC_PER_ROUND {
            let i = round * SRC_PER_ROUND + j;
            let copies = if burst && i % 8 < 3 { BURST_FACTOR } else { 1 };
            for _ in 0..copies {
                batch.push(tagged(&sys, attacker_flow, 0, seq, &attacker_payload));
                seq += 1;
            }
        }
        batch.push(tagged(&sys, victim_flow, 1, seq, &victim_payload));
        seq += 1;
        let results = sys.inspect_batch(&mut batch);
        let victim = results.iter().filter(|r| r.flow == victim_flow).count() as u64;
        victim_verdicts_per_batch.push(victim);
    }

    // Reconstruct the shed timeline from the trace ring: the scanner
    // records one `BatchStart` per batch, and every weighted-fair shed
    // lands as a `TenantShed` between that batch's start and end.
    let mut sheds: std::collections::BTreeMap<(usize, u16), u64> =
        std::collections::BTreeMap::new();
    let mut batch_idx: Option<usize> = None;
    for e in sys.trace_events() {
        match e.kind {
            TraceKind::BatchStart { .. } if e.source == TraceSource::Scanner => {
                batch_idx = Some(batch_idx.map_or(0, |i| i + 1));
            }
            TraceKind::TenantShed {
                tenant, packets, ..
            } => {
                let idx = batch_idx.expect("TenantShed outside any batch");
                *sheds.entry((idx, tenant)).or_default() += packets;
            }
            _ => {}
        }
    }
    let shed_timeline: Vec<((usize, u16), u64)> = sheds.into_iter().collect();

    let tt = sys.tenant_telemetry();
    let of = |t: TenantId| {
        tt.iter()
            .find(|(id, _)| *id == t)
            .map(|(_, c)| *c)
            .unwrap_or_default()
    };
    let outcome = RunOutcome {
        victim_verdicts_per_batch,
        victim_shed: of(VICTIM).shed_packets,
        victim_packets: of(VICTIM).packets,
        attacker_shed: of(ATTACKER).shed_packets,
        shed_timeline,
    };
    archive_trace(
        &sys,
        if burst {
            "tenant-burst"
        } else {
            "tenant-burst-baseline"
        },
    );
    outcome
}

fn p99(sorted_desc_source: &[u64]) -> u64 {
    let mut v = sorted_desc_source.to_vec();
    v.sort_unstable();
    let idx = (v.len() as f64 * 0.99).ceil() as usize;
    v[idx.min(v.len()) - 1]
}

#[test]
fn attacker_burst_never_touches_victim() {
    let baseline = run(2, false);
    let bursty = run(2, true);

    // The baseline is itself clean: the victim — always below fair
    // share — is never shed and lands one verdict per batch.
    assert_eq!(baseline.victim_shed, 0, "baseline shed the victim");
    assert_eq!(baseline.victim_packets, ROUNDS as u64);
    assert!(baseline.victim_verdicts_per_batch.iter().all(|&v| v == 1));

    // The burst actually bit: the attacker's amplified traffic was shed.
    assert!(
        bursty.attacker_shed > baseline.attacker_shed,
        "the 4x burst did not increase the attacker's own sheds \
         ({} vs baseline {})",
        bursty.attacker_shed,
        baseline.attacker_shed
    );

    // Victim invariants under the burst: shed count at baseline (zero),
    // every packet scanned, and the per-batch verdict timeline — the
    // victim's queue contribution — byte-identical to the baseline run,
    // p99 included.
    assert_eq!(bursty.victim_shed, baseline.victim_shed);
    assert_eq!(bursty.victim_packets, ROUNDS as u64);
    assert_eq!(
        bursty.victim_verdicts_per_batch, baseline.victim_verdicts_per_batch,
        "the attacker's burst perturbed the victim's verdict timeline"
    );
    assert_eq!(
        p99(&bursty.victim_verdicts_per_batch),
        p99(&baseline.victim_verdicts_per_batch)
    );

    // The trace ring tells the same story: every shed names the
    // attacker, none the victim, and the reconstructed timeline accounts
    // for exactly the attacker's telemetry total.
    assert!(
        bursty
            .shed_timeline
            .iter()
            .all(|&((_, t), _)| t == ATTACKER.0),
        "trace ring recorded a shed for a non-attacker tenant: {:?}",
        bursty.shed_timeline
    );
    let traced: u64 = bursty.shed_timeline.iter().map(|&(_, p)| p).sum();
    assert_eq!(
        traced, bursty.attacker_shed,
        "trace-ring shed timeline disagrees with attacker telemetry"
    );
    // Sheds happened across multiple batches — a timeline, not a single
    // terminal spike.
    let batches: std::collections::BTreeSet<usize> =
        bursty.shed_timeline.iter().map(|&((i, _), _)| i).collect();
    assert!(
        batches.len() > 1,
        "expected sheds spread over the run, got batches {batches:?}"
    );
}

/// The burst run repeated is bit-for-bit repeatable: same shed
/// timeline, same victim outcome, so an archived trace reproduces.
/// Pinned to the single-worker inline path: threaded workers observe
/// live channel depth, so *when* within a batch the detector first trips
/// is scheduler-dependent there (the fairness invariants above hold
/// regardless; the exact shed timeline only repeats single-worker).
#[test]
fn burst_run_is_deterministic() {
    let a = run(1, true);
    let b = run(1, true);
    assert_eq!(a.shed_timeline, b.shed_timeline);
    assert_eq!(a.victim_verdicts_per_batch, b.victim_verdicts_per_batch);
    assert_eq!(a.attacker_shed, b.attacker_shed);
}
