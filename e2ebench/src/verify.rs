//! The verdict check: what a round must produce, and what it did.
//!
//! The reference is a sequential `DpiInstance` on the `naive` kernel fed
//! the round's packets outside the network, its results run through the
//! middleboxes' own rule logic in chain order. It is computed once per
//! workload; every round of the system under test must reproduce its
//! totals (and, for batch workloads, its result for every single packet).

use crate::workloads::{Entry, Offered, Workload};
use dpi_service::ac::{KernelKind, MiddleboxId};
use dpi_service::core::{DpiInstance, InstanceConfig, L7Policy, Telemetry};
use dpi_service::middlebox::ServiceMiddlebox;
use dpi_service::packet::{Packet, ResultPacket};
use dpi_service::SystemHandle;
use std::hash::{Hash, Hasher};

/// Named counts; the order is fixed, so two tallies compare by position.
pub type Tally = Vec<(String, u64)>;

pub struct Reference {
    /// What every round must observe, by name.
    pub expected: Tally,
    /// Batch workloads: a digest of each packet's result (0 = no result).
    pub per_packet: Vec<u64>,
    /// Every result the reference produced, with its packet's position in
    /// the round — the staged replay's input for the result, report and
    /// middlebox layers.
    pub results: Vec<(usize, ResultPacket)>,
    /// Matches missing against the generator's own plant count, summed
    /// over middleboxes. Not zero means the reference itself missed a
    /// pattern the benchmark put there.
    pub floor_deficit: u64,
}

/// The instance configuration the system under test compiled its engine
/// from (default `Auto` kernel and conflict policy).
pub fn system_config(sys: &SystemHandle, w: &Workload) -> InstanceConfig {
    let mut cfg = sys
        .controller
        .instance_config(&sys.chain_ids)
        .expect("the system was built from this configuration");
    cfg.l7 = w.l7.then(L7Policy::default);
    cfg
}

/// A result's identity for comparison: everything but the packet id,
/// which counts results and so differs between numbering schemes.
fn result_digest(r: &ResultPacket) -> u64 {
    let mut unnumbered = r.clone();
    unnumbered.packet_id = 0;
    let mut h = std::collections::hash_map::DefaultHasher::new();
    unnumbered.to_bytes().hash(&mut h);
    h.finish() | 1 // never 0, which means "no result"
}

fn matches_for(r: &ResultPacket, mb: MiddleboxId) -> u64 {
    r.report_for(mb.0).map_or(0, |rep| {
        rep.records.iter().map(|m| u64::from(m.occurrences())).sum()
    })
}

/// The scan counters every tally starts with.
fn scan_tally(t: &Telemetry) -> Tally {
    vec![
        ("dpi.packets".into(), t.packets),
        ("dpi.bytes".into(), t.bytes),
        ("dpi.matches".into(), t.matches),
    ]
}

fn all_members(w: &Workload) -> Vec<MiddleboxId> {
    w.templates.iter().map(|t| t.profile.id).collect()
}

/// `cfg` is the system's own configuration; the reference runs it on the
/// `naive` kernel.
pub fn reference(w: &Workload, cfg: InstanceConfig, chain_ids: &[u16]) -> Reference {
    let mut dpi = DpiInstance::new(cfg.with_kernel(KernelKind::Naive))
        .expect("the reference configuration compiles");
    let mut boxes: Vec<ServiceMiddlebox> = w
        .templates
        .iter()
        .map(|t| ServiceMiddlebox::new(t.profile.id, &t.name, t.logic.clone()))
        .collect();
    let members = all_members(w);
    let mut per_packet = Vec::new();
    let mut results = Vec::new();
    let mut matches = vec![0u64; members.len()];
    let mut blocked_total = 0u64;
    for (i, o) in w.round.iter().enumerate() {
        let mut pkt = o.tagged_packet(chain_ids[o.chain]);
        let result = dpi
            .inspect(&mut pkt)
            .expect("generated packets are tagged for a known chain");
        if w.entry == Entry::Send {
            // The chain's middleboxes in order; a blocking verdict ends
            // the packet's journey.
            for mb in &w.chains[o.chain] {
                let b = boxes
                    .iter_mut()
                    .find(|b| b.id() == *mb)
                    .expect("chains name registered middleboxes");
                let report = result.as_ref().and_then(|r| r.report_for(mb.0));
                if !b.process(report).forwards() {
                    blocked_total += 1;
                    break;
                }
            }
        }
        per_packet.push(result.as_ref().map_or(0, result_digest));
        if let Some(r) = result {
            for (slot, mb) in members.iter().enumerate() {
                matches[slot] += matches_for(&r, *mb);
            }
            results.push((i, r));
        }
    }

    let mut expected = scan_tally(&dpi.telemetry());
    // The trailing entries are the ways a packet or its result can go
    // missing without any other count noticing; all must read zero.
    match w.entry {
        Entry::Send => {
            expected.push(("delivered".into(), w.round.len() as u64 - blocked_total));
            for b in &boxes {
                let s = b.stats();
                let id = b.id().0;
                expected.push((format!("mb{id}.packets"), s.packets));
                expected.push((format!("mb{id}.matches"), s.matches));
                expected.push((format!("mb{id}.blocked"), s.blocked));
            }
            expected.push(("net.dropped".into(), 0));
        }
        Entry::Batch => {
            expected.push(("results".into(), results.len() as u64));
            for (mb, n) in members.iter().zip(&matches) {
                expected.push((format!("mb{}.matches", mb.0), *n));
            }
            expected.push(("lost_scans".into(), 0));
            expected.push(("errors".into(), 0));
        }
    }

    let floor_deficit = w
        .planted
        .iter()
        .map(|(mb, planted)| {
            let slot = members
                .iter()
                .position(|m| m == mb)
                .expect("planted for a member");
            planted.saturating_sub(matches[slot])
        })
        .sum();
    Reference {
        expected,
        per_packet,
        results,
        floor_deficit,
    }
}

/// What a `send` round left behind in the system, in [`Reference::expected`]
/// order.
pub fn observe_send(sys: &SystemHandle, w: &Workload) -> Tally {
    let mut seen = scan_tally(&sys.dpi_telemetry());
    seen.push(("delivered".into(), sys.sink.count() as u64));
    for id in all_members(w) {
        let s = sys.stats_of(id).expect("every template became a middlebox");
        seen.push((format!("mb{}.packets", id.0), s.packets));
        seen.push((format!("mb{}.matches", id.0), s.matches));
        seen.push((format!("mb{}.blocked", id.0), s.blocked));
    }
    seen.push(("net.dropped".into(), sys.net.dropped()));
    seen
}

/// Checks the results of batch calls as they come back, packet by packet.
pub struct BatchCheck<'a> {
    reference: &'a Reference,
    members: Vec<MiddleboxId>,
    matches: Vec<u64>,
    results: u64,
    /// Packets whose result (or lack of one) differs from the reference.
    pub mismatched: u64,
}

impl<'a> BatchCheck<'a> {
    pub fn new(reference: &'a Reference, w: &Workload) -> BatchCheck<'a> {
        let members = all_members(w);
        BatchCheck {
            reference,
            matches: vec![0; members.len()],
            members,
            results: 0,
            mismatched: 0,
        }
    }

    /// `packets` are the batch after the call (matched ones ECN-marked),
    /// `first` the position of its first packet in the round.
    pub fn fold(&mut self, first: usize, packets: &[Packet], results: &[ResultPacket]) {
        let mut next = results.iter();
        for (i, p) in packets.iter().enumerate() {
            let got = if p.has_match_mark() {
                next.next().map_or(0, |r| {
                    for (slot, mb) in self.members.iter().enumerate() {
                        self.matches[slot] += matches_for(r, *mb);
                    }
                    result_digest(r)
                })
            } else {
                0
            };
            if got != self.reference.per_packet[first + i] {
                self.mismatched += 1;
            }
        }
        // A result no marked packet claims is a failure too.
        self.mismatched += next.count() as u64;
        self.results += results.len() as u64;
    }

    pub fn observe(&self, sys: &SystemHandle) -> Tally {
        let shards = sys.shard_telemetry();
        let mut seen = scan_tally(&sys.scanner.telemetry());
        seen.push(("results".into(), self.results));
        for (mb, n) in self.members.iter().zip(&self.matches) {
            seen.push((format!("mb{}.matches", mb.0), *n));
        }
        seen.push(("lost_scans".into(), sys.scanner.total_lost_scans()));
        seen.push(("errors".into(), shards.iter().map(|s| s.errors).sum()));
        seen
    }
}

/// Packets of a round that count as failed: the summed distance between
/// what was seen and what the reference expects, plus per-packet result
/// mismatches and the reference's own plant deficit, capped at the
/// packets offered. Each differing count is named on stderr.
pub fn failed_packets(
    workload: &str,
    round: usize,
    reference: &Reference,
    seen: &Tally,
    mismatched: u64,
    offered: usize,
) -> u64 {
    assert_eq!(
        seen.len(),
        reference.expected.len(),
        "tallies share one layout"
    );
    let mut failed = mismatched + reference.floor_deficit;
    if mismatched > 0 {
        eprintln!(
            "{workload} round {round}: {mismatched} packet results differ from the reference"
        );
    }
    if reference.floor_deficit > 0 {
        eprintln!(
            "{workload}: the reference reports {} fewer matches than were planted",
            reference.floor_deficit
        );
    }
    for ((name, want), (seen_name, got)) in reference.expected.iter().zip(seen) {
        assert_eq!(name, seen_name, "tallies share one layout");
        if want != got {
            eprintln!("{workload} round {round}: {name} is {got}, the reference says {want}");
            failed += want.abs_diff(*got);
        }
    }
    failed.min(offered as u64)
}

/// The tagged packets of a round, as `inspect_batch` takes them.
pub fn tagged_round(round: &[Offered], chain_ids: &[u16]) -> Vec<Packet> {
    round
        .iter()
        .map(|o| o.tagged_packet(chain_ids[o.chain]))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reference_with(expected: &[(&str, u64)]) -> Reference {
        Reference {
            expected: expected.iter().map(|(n, v)| (n.to_string(), *v)).collect(),
            per_packet: Vec::new(),
            results: Vec::new(),
            floor_deficit: 0,
        }
    }

    #[test]
    fn a_matching_tally_fails_nothing() {
        let r = reference_with(&[("delivered", 90), ("mb1.matches", 7)]);
        let seen = r.expected.clone();
        assert_eq!(failed_packets("w", 1, &r, &seen, 0, 100), 0);
    }

    #[test]
    fn differences_add_up_and_cap_at_the_offer() {
        let r = reference_with(&[("delivered", 90), ("mb1.matches", 7)]);
        let seen: Tally = vec![("delivered".into(), 88), ("mb1.matches".into(), 10)];
        assert_eq!(failed_packets("w", 1, &r, &seen, 1, 100), 6);
        assert_eq!(failed_packets("w", 1, &r, &seen, 1, 4), 4);
    }

    #[test]
    fn a_plant_deficit_fails_every_round() {
        let mut r = reference_with(&[("delivered", 5)]);
        r.floor_deficit = 2;
        let seen = r.expected.clone();
        assert_eq!(failed_packets("w", 3, &r, &seen, 0, 100), 2);
    }
}
