//! Multi-tenant isolation cost and fairness convergence (DESIGN.md §16).
//!
//! Two questions, one JSON:
//!
//! * **Isolation overhead** — the same pattern budget and offered bytes,
//!   partitioned across 1→64 tenants (tenant-owned middleboxes, chains
//!   and quotas), versus an untenanted single-chain baseline. The
//!   per-packet tenancy cost is arrival-share bookkeeping plus a
//!   scan-byte bucket check; at one tenant it must stay within noise
//!   (the acceptance bar is ≤ 5%).
//! * **Fairness convergence** — one tenant of four offers 16× the
//!   others into an overloaded worker with fail-open shedding; the
//!   weighted-fair policy must converge onto the heavy tenant (every
//!   shed names it, none a victim) and the JSON records the first round
//!   the sheds land.
//!
//! Writes `BENCH_tenants.json` (uploaded by the CI bench job). Set
//! `DPI_BENCH_QUICK=1` for a CI-sized run.

use dpi_ac::MiddleboxId;
use dpi_bench::{host_cores, print_row};
use dpi_core::overload::OverloadPolicy;
use dpi_core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec, TenantId, TenantQuota};
use dpi_packet::ipv4::IpProtocol;
use dpi_packet::packet::flow;
use dpi_packet::{MacAddr, Packet};
use dpi_traffic::patterns::snort_like;
use dpi_traffic::{tenant_mix, TenantStream};
use std::time::Instant;

/// A config with `patterns` split evenly across `tenants` tenant-owned
/// stateless middleboxes, one chain per tenant (chain id = tenant id).
/// `tenants == 0` is the untenanted baseline: the same patterns on one
/// default-tenant middlebox, no quotas — tenancy machinery fully idle.
fn config(patterns: &[Vec<u8>], tenants: usize) -> InstanceConfig {
    let mut cfg = InstanceConfig::new();
    if tenants == 0 {
        return cfg
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                patterns
                    .iter()
                    .map(|p| RuleSpec::exact(p.clone()))
                    .collect(),
            )
            .with_chain(1, vec![MiddleboxId(1)]);
    }
    for t in 1..=tenants {
        // Round-robin split: every tenant gets a non-empty, near-equal
        // share of the pattern budget at any tenant count.
        let rules: Vec<RuleSpec> = patterns
            .iter()
            .skip(t - 1)
            .step_by(tenants)
            .map(|p| RuleSpec::exact(p.clone()))
            .collect();
        cfg = cfg
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(t as u16)).owned_by(TenantId(t as u16)),
                rules,
            )
            .with_chain(t as u16, vec![MiddleboxId(t as u16)])
            .with_tenant_quota(TenantId(t as u16), TenantQuota::unlimited());
    }
    cfg
}

/// The offered load for `tenants` tenants: the same total packet and
/// byte budget, interleaved proportionally across one benign stream per
/// tenant (`tenants == 0` ⇒ one untenanted stream on chain 1).
fn workload(tenants: usize, total_packets: usize, payload_len: usize) -> Vec<Packet> {
    let n = tenants.max(1);
    let streams: Vec<TenantStream> = (1..=n)
        .map(|t| TenantStream::benign(t as u16, total_packets / n, 8, payload_len))
        .collect();
    tenant_mix(&streams, 77)
}

/// One timed pass of `batch` through `scanner`, in packets/sec.
fn one_pass_pps(scanner: &mut DpiInstance, batch: &[Packet]) -> f64 {
    let mut pkts = batch.to_vec();
    let t0 = Instant::now();
    scanner.inspect_batch(&mut pkts);
    batch.len() as f64 / t0.elapsed().as_secs_f64()
}

/// One heavy tenant of four offers 16× the victims' load into an
/// overloaded single worker; returns
/// `(rounds, heavy_shed, victim_shed, first_shed_round)`.
fn fairness_convergence(patterns: &[Vec<u8>], rounds: usize) -> (usize, u64, u64, Option<usize>) {
    let policy = OverloadPolicy::queue_only(1, 0);
    let mut scanner = DpiInstance::new(config(patterns, 4))
        .expect("valid tenant config")
        .with_overload_policy(policy);
    let mut seq = 0u32;
    let mut first_shed_round = None;
    for round in 0..rounds {
        let mut batch = Vec::new();
        for t in 1u16..=4 {
            let copies = if t == 1 { 16 } else { 1 };
            for _ in 0..copies {
                let f = flow(
                    [10, 0, 0, t as u8],
                    1000 + t,
                    [10, 0, 0, 99],
                    80,
                    IpProtocol::Tcp,
                );
                let mut p = Packet::tcp(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    f,
                    seq,
                    vec![b'x'; 256],
                );
                seq = seq.wrapping_add(256);
                p.push_chain_tag(t).expect("fresh packet has tag room");
                batch.push(p);
            }
        }
        scanner.inspect_batch(&mut batch);
        let heavy_shed: u64 = scanner
            .tenant_telemetry()
            .iter()
            .find(|(t, _)| *t == TenantId(1))
            .map(|(_, c)| c.shed_packets)
            .unwrap_or(0);
        if heavy_shed > 0 && first_shed_round.is_none() {
            first_shed_round = Some(round);
        }
    }
    let tt = scanner.tenant_telemetry();
    let of = |t: u16| {
        tt.iter()
            .find(|(id, _)| id.0 == t)
            .map(|(_, c)| c.shed_packets)
            .unwrap_or(0)
    };
    let heavy = of(1);
    let victims = of(2) + of(3) + of(4);
    (rounds, heavy, victims, first_shed_round)
}

fn main() {
    let quick = std::env::var_os("DPI_BENCH_QUICK").is_some();
    let (npat, npkt, runs, rounds) = if quick {
        (500, 512, 3, 16)
    } else {
        (2000, 2048, 5, 48)
    };
    let sweep: &[usize] = if quick {
        &[1, 4, 16, 64]
    } else {
        &[1, 2, 4, 8, 16, 32, 64]
    };
    let payload_len = 600;
    let pats = snort_like(npat, 42);

    println!(
        "tenant bench: {npat} patterns, {npkt} packets x {payload_len} B, \
         {} host cores{}",
        host_cores(),
        if quick { ", quick mode" } else { "" }
    );

    // Untenanted baseline vs the tenant sweep, measured in interleaved
    // passes: the baseline and every tenant count take one timed pass
    // per round, so host drift (a shared box speeding up or slowing
    // down) lands on all configurations alike instead of skewing the
    // overhead ratio. Single worker — the inline path measures the
    // per-packet tenancy bookkeeping, not thread scheduling. Keep
    // best-of-rounds per configuration: anything slower than a
    // configuration's fastest pass measures a neighbor's noise.
    let mut configs: Vec<(usize, Vec<Packet>, DpiInstance)> = std::iter::once(0usize)
        .chain(sweep.iter().copied())
        .map(|n| {
            let batch = workload(n, npkt, payload_len);
            let scanner = DpiInstance::new(config(&pats, n)).expect("valid tenant config");
            (n, batch, scanner)
        })
        .collect();
    let mut best = vec![0.0f64; configs.len()];
    for _ in 0..runs.max(1) {
        for (i, (_, batch, scanner)) in configs.iter_mut().enumerate() {
            best[i] = best[i].max(one_pass_pps(scanner, batch));
        }
    }
    let baseline_pps = best[0];
    print_row(&[
        "tenants".into(),
        "pkts/s".into(),
        "overhead".into(),
        String::new(),
    ]);
    print_row(&[
        "untenanted".into(),
        format!("{baseline_pps:.0}"),
        "0.0%".into(),
        String::new(),
    ]);
    let mut rows = Vec::new();
    for (i, (n, _, _)) in configs.iter().enumerate().skip(1) {
        let pps = best[i];
        let overhead = (baseline_pps - pps) / baseline_pps * 100.0;
        print_row(&[
            format!("{n}"),
            format!("{pps:.0}"),
            format!("{overhead:.1}%"),
            String::new(),
        ]);
        rows.push((*n, pps, overhead));
    }

    let (fr_rounds, heavy_shed, victim_shed, first_shed) = fairness_convergence(&pats, rounds);
    println!(
        "fairness: heavy tenant shed {heavy_shed} packets over {fr_rounds} rounds \
         (first at round {:?}), victims shed {victim_shed}",
        first_shed
    );

    let rows_json: Vec<String> = rows
        .iter()
        .map(|(n, pps, o)| {
            format!("{{\"tenants\": {n}, \"pps\": {pps:.0}, \"overhead_pct\": {o:.2}}}")
        })
        .collect();
    let json = format!(
        "{{\n  \"host_cores\": {},\n  \"quick\": {},\n  \"patterns\": {},\n  \
         \"packets\": {},\n  \"payload_len\": {},\n  \"baseline_pps\": {:.0},\n  \
         \"tenants\": [{}],\n  \"fairness\": {{\"tenants\": 4, \"heavy_factor\": 16, \
         \"rounds\": {}, \"heavy_shed_packets\": {}, \"victim_shed_packets\": {}, \
         \"first_shed_round\": {}}}\n}}\n",
        host_cores(),
        quick,
        npat,
        npkt,
        payload_len,
        baseline_pps,
        rows_json.join(", "),
        fr_rounds,
        heavy_shed,
        victim_shed,
        first_shed.map_or("null".into(), |r| r.to_string()),
    );
    std::fs::write("BENCH_tenants.json", &json).expect("writable working directory");
    println!("wrote BENCH_tenants.json");
}
