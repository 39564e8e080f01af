//! Tentpole property: **no silent miss**. For every adversarial flow the
//! evasion generator produces, a pattern visible under *any* consistent
//! interpretation of the TCP stream is either reported (canonically or
//! via a shadow scan of the losing conflict copy) or the flow is loudly
//! quarantined — under both conflict policies (DESIGN.md §13), both at
//! one instance and through the whole system's packet path.
//! Patterns visible under *no* interpretation (out-of-window injections)
//! are never reported: no false positives either.

use dpi_service::core::report::expand_records;
use dpi_service::core::{
    ConflictPolicy, DpiInstance, InstanceConfig, L7Policy, MiddleboxId, MiddleboxProfile, RuleSpec,
};
use dpi_service::middlebox::ids;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::FlowKey;
use dpi_service::traffic::{evasive_flow, evasive_flows, EvasionTactic, EvasiveFlow};
use dpi_service::SystemBuilder;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::io::Write;

const IDS: MiddleboxId = MiddleboxId(1);
const CHAIN: u16 = 1;

fn patterns() -> Vec<Vec<u8>> {
    vec![b"attack-signature".to_vec(), b"EVIL/1.0".to_vec()]
}

fn instance(policy: ConflictPolicy) -> DpiInstance {
    DpiInstance::new(
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateful(IDS),
                RuleSpec::exact_set(&patterns()),
            )
            .with_chain(CHAIN, vec![IDS])
            .with_conflict_policy(policy),
    )
    .unwrap()
}

fn fk() -> FlowKey {
    flow([9, 9, 9, 9], 999, [8, 8, 8, 8], 80, IpProtocol::Tcp)
}

/// What one adversarial flow produced under one policy, reduced to what
/// the no-silent-miss rules read.
#[derive(Debug)]
struct Outcome {
    /// The planted pattern was reported, canonically or by a shadow scan.
    planted_reported: bool,
    /// The canonical verdicts equal the whole-stream oracle's.
    oracle_exact: bool,
    quarantined: bool,
    conflicts: u64,
}

/// Drives one flow under one policy through an instance or a system.
type Runner = fn(&EvasiveFlow, ConflictPolicy) -> Outcome;

/// Drives one generated flow through a fresh instance under `policy`.
fn run_instance(f: &EvasiveFlow, policy: ConflictPolicy) -> Outcome {
    let mut dpi = instance(policy);
    dpi.open_tcp_flow(fk(), f.initial_seq);
    let mut matched = BTreeSet::new();
    let mut canonical = BTreeSet::new();
    for seg in &f.segments {
        for out in dpi
            .scan_tcp_segment(CHAIN, fk(), seg.seq, &seg.payload)
            .unwrap()
        {
            for r in &out.reports {
                for (pid, pos) in expand_records(&r.records) {
                    matched.insert(pid);
                    // Shadow-scan positions are copy-relative (and
                    // `flow_offset` is 0), so they have no place in the
                    // flow-absolute canonical verdict set.
                    if !out.shadow {
                        canonical.insert((pid, out.flow_offset + u64::from(pos)));
                    }
                }
            }
        }
    }
    Outcome {
        planted_reported: matched.contains(&planted_pid(f)),
        oracle_exact: canonical == oracle(&f.keep_first),
        quarantined: dpi.flow_quarantined(&fk()),
        conflicts: dpi.telemetry().reassembly_conflicts,
    }
}

/// Drives one generated flow through a one-IDS system under `policy`,
/// one `send` per segment. The L7 layer is on, because only under an L7
/// policy does the packet path reassemble TCP; the flow's ISN is
/// declared at the instance, because `send` carries no SYN. The IDS
/// counts matches, not which pattern matched: any match stands for the
/// planted one, and the count must equal the oracle's.
fn run_system(f: &EvasiveFlow, policy: ConflictPolicy) -> Outcome {
    let mut sys = SystemBuilder::new()
        .with_middlebox(ids(IDS, &patterns()))
        .with_chain(&[IDS])
        .with_l7_policy(L7Policy::default())
        .with_conflict_policy(policy)
        .build()
        .unwrap();
    sys.dpi.lock().open_tcp_flow(fk(), f.initial_seq);
    for seg in &f.segments {
        sys.send(fk(), seg.seq, &seg.payload);
    }
    let matches = sys.stats_of(IDS).expect("IDS registered").matches;
    let dpi = sys.dpi.lock();
    Outcome {
        planted_reported: matches > 0,
        oracle_exact: matches == oracle(&f.keep_first).len() as u64,
        quarantined: dpi.flow_quarantined(&fk()),
        conflicts: dpi.telemetry().reassembly_conflicts,
    }
}

/// `(pid, end)` oracle: scanning `stream` whole through a fresh
/// instance.
fn oracle(stream: &[u8]) -> BTreeSet<(u16, u64)> {
    let mut dpi = instance(ConflictPolicy::FirstWins);
    let out = dpi.scan_payload(CHAIN, Some(fk()), stream).unwrap();
    out.reports
        .iter()
        .flat_map(|r| expand_records(&r.records))
        .map(|(pid, pos)| (pid, u64::from(pos)))
        .collect()
}

fn planted_pid(f: &EvasiveFlow) -> u16 {
    patterns()
        .iter()
        .position(|p| *p == f.planted)
        .expect("planted pattern comes from the registered set") as u16
}

/// The no-silent-miss check for one flow under one policy, driven by
/// `run`. Returns an error description instead of panicking so the seed
/// sweeps can collect divergences.
fn check(f: &EvasiveFlow, policy: ConflictPolicy, run: Runner) -> Result<(), String> {
    let out = run(f, policy);
    let fail = |what: &str| {
        Err(format!(
            "policy={} tactic={} seed={}: {what} ({out:?})",
            policy.name(),
            f.tactic.name(),
            f.seed,
        ))
    };
    if !f.conflicting {
        // Conflict-free flows must behave identically under every
        // policy: exact oracle verdicts, no conflicts, no quarantine.
        if out.conflicts != 0 {
            return fail("spurious conflict on a conflict-free flow");
        }
        if out.quarantined {
            return fail("spurious quarantine on a conflict-free flow");
        }
        if f.tactic == EvasionTactic::OutOfWindowInjection && out.planted_reported {
            return fail("false positive: out-of-window bytes reported");
        }
        if !out.oracle_exact {
            return fail("verdicts diverged from the whole-stream oracle");
        }
        return Ok(());
    }
    // Conflicting flows: the pattern hides in exactly one
    // interpretation.
    if out.conflicts == 0 {
        return fail("byte-level conflict went undetected");
    }
    match policy {
        ConflictPolicy::RejectFlow => {
            if !out.quarantined {
                return fail("RejectFlow must quarantine on conflict");
            }
        }
        ConflictPolicy::FirstWins => {
            if out.quarantined {
                return fail("FirstWins must not quarantine");
            }
            if !out.planted_reported {
                return fail("SILENT MISS: pattern visible in an interpretation was not reported");
            }
        }
    }
    Ok(())
}

const POLICIES: [ConflictPolicy; 2] = [ConflictPolicy::FirstWins, ConflictPolicy::RejectFlow];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn no_silent_miss_under_any_policy(seed in any::<u64>()) {
        let f = evasive_flow(seed, &patterns());
        prop_assert!(
            f.tactic == EvasionTactic::OutOfWindowInjection
                || f.pattern_in_some_interpretation()
        );
        for policy in POLICIES {
            if let Err(e) = check(&f, policy, run_instance) {
                prop_assert!(false, "{}", e);
            }
        }
    }
}

/// A fixed flow count per seed (seeds 1/7/42, or `DPI_CHAOS_SEED` when
/// set), both policies, every flow driven by `run`; divergences archived
/// as `<name>.jsonl` when `DPI_CHAOS_LOG_DIR` is set.
fn sweep(run: Runner, name: &str) {
    let seeds: Vec<u64> = match std::env::var("DPI_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("DPI_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 7, 42],
    };
    let log_dir = std::env::var("DPI_CHAOS_LOG_DIR").ok();
    let mut divergences = Vec::new();
    for &seed in &seeds {
        for f in evasive_flows(64, seed, &patterns()) {
            for policy in POLICIES {
                if let Err(e) = check(&f, policy, run) {
                    divergences.push(format!(
                        "{{\"seed\":{},\"flow_seed\":{},\"tactic\":\"{}\",\"policy\":\"{}\",\"error\":{:?}}}",
                        seed,
                        f.seed,
                        f.tactic.name(),
                        policy.name(),
                        e
                    ));
                }
            }
        }
    }
    if let Some(dir) = log_dir {
        if !divergences.is_empty() {
            std::fs::create_dir_all(&dir).unwrap();
            let mut file = std::fs::File::create(format!("{dir}/{name}.jsonl")).unwrap();
            for d in &divergences {
                writeln!(file, "{d}").unwrap();
            }
        }
    }
    assert!(
        divergences.is_empty(),
        "{} divergence(s):\n{}",
        divergences.len(),
        divergences.join("\n")
    );
}

/// The standing sweep the CI `evasion` job runs against one instance's
/// reassembler.
#[test]
fn seed_sweep_archives_divergences() {
    sweep(run_instance, "evasion-divergences");
}

/// The same sweep through the system's packet path: switch, DPI service
/// node, result delivery, and the verdict read at the middlebox.
#[test]
fn system_seed_sweep_checks_verdicts_at_the_middlebox() {
    sweep(run_system, "system-evasion-divergences");
}
