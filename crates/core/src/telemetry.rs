//! Per-instance telemetry.
//!
//! "Each DPI service instance should perform ongoing monitoring and export
//! telemetries that might indicate attack attempts. … these telemetries
//! are sent to a central stress monitor entity; here, the DPI controller
//! takes over this role." (§4.3.1)
//!
//! The stress signal is the *deep-state ratio*: the fraction of scanned
//! bytes during which the automaton sat in a state of depth ≥
//! [`Telemetry::DEEP_DEPTH`]. Benign traffic hovers near the root (most
//! bytes match no pattern prefix); complexity-attack traffic built from
//! pattern prefixes pins the scan in deep, cache-hostile states.

use serde::{Deserialize, Serialize};

/// Counters exported by a DPI instance.
#[derive(Debug, Default, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Telemetry {
    /// Packets scanned.
    pub packets: u64,
    /// Payload bytes scanned.
    pub bytes: u64,
    /// Individual pattern matches reported (after filtering).
    pub matches: u64,
    /// Packets that had at least one match.
    pub packets_with_matches: u64,
    /// Full regex evaluations triggered by the anchor pre-filter.
    pub regex_invocations: u64,
    /// Regex evaluations on the parallel (anchor-less) path.
    pub parallel_regex_evaluations: u64,
    /// Bytes during which the DFA was in a deep state (see
    /// [`Telemetry::DEEP_DEPTH`]); sampled 1-in-[`Telemetry::SAMPLE`]
    /// bytes to keep the hot loop cheap.
    pub deep_samples: u64,
    /// Total depth samples taken.
    pub depth_samples: u64,
    /// Scanned bytes the kernel passed by its prefix filter instead of
    /// stepping the table: the automaton provably sat at depth ≤ 2 there
    /// (DESIGN.md §12). Part of `bytes`.
    pub scan_bytes_skipped: u64,
    /// Byte-level reassembly conflicts detected (overlapping TCP segment
    /// copies with different bytes — DESIGN.md §13).
    pub reassembly_conflicts: u64,
    /// Flows quarantined by the `RejectFlow` conflict policy (an L7
    /// `Block` sets the same verdict but counts in `l7_blocked_flows`).
    pub flows_quarantined: u64,
    /// Flows identified per L7 protocol, indexed by
    /// [`crate::l7::L7Protocol::index`] (an HTTP→WebSocket upgrade
    /// counts under both).
    pub l7_flows_identified: [u64; 4],
    /// Decoded L7 payload bytes handed to the scanner (dechunked,
    /// decompressed, unmasked).
    pub l7_decoded_bytes: u64,
    /// L7 decode errors (malformed framing, corrupt gzip bodies, …).
    pub l7_decode_errors: u64,
    /// L7 size-limit truncation events (decompression-bomb guard
    /// included).
    pub l7_truncations: u64,
    /// Matches found in decoded L7 units, per protocol (same index as
    /// `l7_flows_identified`). Raw-fallback matches are *not* counted
    /// here — they live in `matches` only, like before the L7 layer.
    pub l7_matches: [u64; 4],
    /// Flows quarantined by an [`crate::l7::L7Action::Block`] policy.
    pub l7_blocked_flows: u64,
    /// Flows bypassed by an [`crate::l7::L7Action::Bypass`] policy.
    pub l7_bypassed_flows: u64,
    /// Flows evicted from the bounded flow arena by capacity or byte
    /// pressure (LRU-preferring; see DESIGN.md §15).
    pub flows_evicted: u64,
    /// Quarantined flows force-evicted because *every* arena slot held a
    /// quarantine verdict — each one is a verdict the engine could no
    /// longer honour, so it is counted, never silent.
    pub quarantined_flow_evictions: u64,
}

impl Telemetry {
    /// States at or below this depth are "shallow"; deeper is suspicious.
    pub const DEEP_DEPTH: u16 = 4;
    /// Depth sampling period in bytes.
    pub const SAMPLE: usize = 16;

    /// Fraction of sampled bytes in deep states (0 when nothing sampled).
    pub fn deep_ratio(&self) -> f64 {
        if self.depth_samples == 0 {
            0.0
        } else {
            self.deep_samples as f64 / self.depth_samples as f64
        }
    }

    /// Merges another instance's counters (controller-side aggregation).
    pub fn merge(&mut self, other: &Telemetry) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.matches += other.matches;
        self.packets_with_matches += other.packets_with_matches;
        self.regex_invocations += other.regex_invocations;
        self.parallel_regex_evaluations += other.parallel_regex_evaluations;
        self.deep_samples += other.deep_samples;
        self.depth_samples += other.depth_samples;
        self.scan_bytes_skipped += other.scan_bytes_skipped;
        self.reassembly_conflicts += other.reassembly_conflicts;
        self.flows_quarantined += other.flows_quarantined;
        for (a, b) in self
            .l7_flows_identified
            .iter_mut()
            .zip(other.l7_flows_identified)
        {
            *a += b;
        }
        self.l7_decoded_bytes += other.l7_decoded_bytes;
        self.l7_decode_errors += other.l7_decode_errors;
        self.l7_truncations += other.l7_truncations;
        for (a, b) in self.l7_matches.iter_mut().zip(other.l7_matches) {
            *a += b;
        }
        self.l7_blocked_flows += other.l7_blocked_flows;
        self.l7_bypassed_flows += other.l7_bypassed_flows;
        self.flows_evicted += other.flows_evicted;
        self.quarantined_flow_evictions += other.quarantined_flow_evictions;
    }

    /// Difference since a previous snapshot (for rate computation).
    ///
    /// Saturating: a supervisor shard restart resets worker counters, so
    /// `self` can legitimately be *behind* `prev` mid-interval; the delta
    /// clamps to zero instead of underflowing (which panicked in debug
    /// builds and wrapped to absurd rates in release).
    pub fn delta_since(&self, prev: &Telemetry) -> Telemetry {
        Telemetry {
            packets: self.packets.saturating_sub(prev.packets),
            bytes: self.bytes.saturating_sub(prev.bytes),
            matches: self.matches.saturating_sub(prev.matches),
            packets_with_matches: self
                .packets_with_matches
                .saturating_sub(prev.packets_with_matches),
            regex_invocations: self
                .regex_invocations
                .saturating_sub(prev.regex_invocations),
            parallel_regex_evaluations: self
                .parallel_regex_evaluations
                .saturating_sub(prev.parallel_regex_evaluations),
            deep_samples: self.deep_samples.saturating_sub(prev.deep_samples),
            depth_samples: self.depth_samples.saturating_sub(prev.depth_samples),
            scan_bytes_skipped: self
                .scan_bytes_skipped
                .saturating_sub(prev.scan_bytes_skipped),
            reassembly_conflicts: self
                .reassembly_conflicts
                .saturating_sub(prev.reassembly_conflicts),
            flows_quarantined: self
                .flows_quarantined
                .saturating_sub(prev.flows_quarantined),
            l7_flows_identified: std::array::from_fn(|i| {
                self.l7_flows_identified[i].saturating_sub(prev.l7_flows_identified[i])
            }),
            l7_decoded_bytes: self.l7_decoded_bytes.saturating_sub(prev.l7_decoded_bytes),
            l7_decode_errors: self.l7_decode_errors.saturating_sub(prev.l7_decode_errors),
            l7_truncations: self.l7_truncations.saturating_sub(prev.l7_truncations),
            l7_matches: std::array::from_fn(|i| {
                self.l7_matches[i].saturating_sub(prev.l7_matches[i])
            }),
            l7_blocked_flows: self.l7_blocked_flows.saturating_sub(prev.l7_blocked_flows),
            l7_bypassed_flows: self
                .l7_bypassed_flows
                .saturating_sub(prev.l7_bypassed_flows),
            flows_evicted: self.flows_evicted.saturating_sub(prev.flows_evicted),
            quarantined_flow_evictions: self
                .quarantined_flow_evictions
                .saturating_sub(prev.quarantined_flow_evictions),
        }
    }
}

/// Per-shard counters exported by an instance
/// ([`crate::pipeline::DpiInstance`]): one worker's share of the
/// traffic plus the ingress-queue pressure it saw. The controller can
/// read shard skew from these (a hot shard means an elephant flow —
/// flow-affine sharding cannot split a single flow).
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ShardTelemetry {
    /// Shard index within the scanner.
    pub shard: u32,
    /// Packets scanned by this shard.
    pub packets: u64,
    /// Payload bytes scanned by this shard.
    pub bytes: u64,
    /// Individual pattern matches reported by this shard.
    pub matches: u64,
    /// High-water mark of this shard's ingress queue (batch-boundary
    /// backlog; a persistently deep queue means the shard is the
    /// bottleneck).
    pub peak_queue_depth: u64,
    /// Packets whose inspection errored (untagged, no payload, unknown
    /// chain).
    pub errors: u64,
    /// Times this shard's worker was restarted by the supervisor (after
    /// a panic). Each restart rebuilds the shard's
    /// flow table from scratch; the supervisor owns this counter, so it
    /// survives the rebuild.
    pub restarts: u64,
    /// Packets routed to this shard that were never scanned because the
    /// worker panicked before reaching them. Lost scans are fail-open:
    /// the packets themselves still flow, they just produce no match
    /// results.
    pub lost_scans: u64,
    /// Packets whose scan was deliberately skipped by the overload shed
    /// policy (fail-open chains only; the packets flowed CE-marked).
    /// Distinct from `lost_scans`, which counts supervisor casualties.
    pub shed_packets: u64,
    /// Payload bytes of shed packets.
    pub shed_bytes: u64,
    /// Packets CE-marked under overload by this shard.
    pub ce_marked: u64,
    /// Byte-level reassembly conflicts this shard detected.
    pub reassembly_conflicts: u64,
    /// Flows this shard quarantined under the `RejectFlow` policy.
    pub quarantined_flows: u64,
}

/// Per-tenant attribution counters (DESIGN.md §16). Kept outside
/// [`Telemetry`] (which is `Copy` with explicit field-by-field merging)
/// as a keyed map: tenants are sparse and only exist when configured.
/// Each shard owns one, merged across shards — and across restarted
/// shard incarnations via the pipeline's retired accumulator — exactly
/// like the scalar telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct TenantCounters {
    /// Packets scanned on this tenant's chains.
    pub packets: u64,
    /// Payload bytes scanned on this tenant's chains.
    pub bytes: u64,
    /// Pattern matches reported to this tenant's middleboxes.
    pub matches: u64,
    /// Scans shed under overload on this tenant's fail-open chains.
    pub shed_packets: u64,
    /// Payload bytes of this tenant's shed packets.
    pub shed_bytes: u64,
}

impl TenantCounters {
    /// Adds another incarnation's counters for the same tenant.
    pub fn merge(&mut self, other: &TenantCounters) {
        self.packets += other.packets;
        self.bytes += other.bytes;
        self.matches += other.matches;
        self.shed_packets += other.shed_packets;
        self.shed_bytes += other.shed_bytes;
    }
}

/// Merges per-tenant maps: `(tenant, counters)` pairs keyed by tenant,
/// kept sorted by tenant id for deterministic iteration (metrics,
/// traces, tests).
pub fn merge_tenant_counters(
    into: &mut Vec<(crate::config::TenantId, TenantCounters)>,
    from: &[(crate::config::TenantId, TenantCounters)],
) {
    for (tenant, c) in from {
        match into.binary_search_by_key(tenant, |(t, _)| *t) {
            Ok(i) => into[i].1.merge(c),
            Err(i) => into.insert(i, (*tenant, *c)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_handle_zero_denominators() {
        let t = Telemetry::default();
        assert_eq!(t.deep_ratio(), 0.0);
    }

    #[test]
    fn merge_adds_counters() {
        let mut a = Telemetry {
            packets: 1,
            bytes: 100,
            ..Telemetry::default()
        };
        let b = Telemetry {
            packets: 2,
            bytes: 50,
            deep_samples: 5,
            depth_samples: 10,
            ..Telemetry::default()
        };
        a.merge(&b);
        assert_eq!(a.packets, 3);
        assert_eq!(a.bytes, 150);
        assert_eq!(a.deep_ratio(), 0.5);
    }

    #[test]
    fn delta_subtracts() {
        let prev = Telemetry {
            packets: 10,
            ..Telemetry::default()
        };
        let now = Telemetry {
            packets: 25,
            ..Telemetry::default()
        };
        assert_eq!(now.delta_since(&prev).packets, 15);
    }

    #[test]
    fn delta_saturates_after_counter_reset() {
        // A shard restart rebuilds worker state, so the live counters can
        // fall below the previous snapshot. The delta must clamp to zero,
        // not panic (debug) or wrap (release).
        let prev = Telemetry {
            packets: 1_000,
            bytes: 1 << 20,
            matches: 40,
            packets_with_matches: 30,
            regex_invocations: 12,
            parallel_regex_evaluations: 3,
            deep_samples: 9,
            depth_samples: 900,
            scan_bytes_skipped: 1 << 19,
            reassembly_conflicts: 6,
            flows_quarantined: 1,
            l7_flows_identified: [7, 2, 1, 3],
            l7_decoded_bytes: 8_192,
            l7_decode_errors: 4,
            l7_truncations: 2,
            l7_matches: [5, 1, 0, 0],
            l7_blocked_flows: 2,
            l7_bypassed_flows: 1,
            flows_evicted: 11,
            quarantined_flow_evictions: 3,
        };
        // Restarted: everything reset, a little new traffic since.
        let now = Telemetry {
            packets: 5,
            bytes: 320,
            ..Telemetry::default()
        };
        let d = now.delta_since(&prev);
        assert_eq!(d.packets, 0);
        assert_eq!(d.bytes, 0);
        assert_eq!(d.matches, 0);
        assert_eq!(d.packets_with_matches, 0);
        assert_eq!(d.regex_invocations, 0);
        assert_eq!(d.parallel_regex_evaluations, 0);
        assert_eq!(d.deep_samples, 0);
        assert_eq!(d.depth_samples, 0);
        assert_eq!(d.scan_bytes_skipped, 0);
        assert_eq!(d.reassembly_conflicts, 0);
        assert_eq!(d.flows_quarantined, 0);
        assert_eq!(d.l7_flows_identified, [0; 4]);
        assert_eq!(d.l7_decoded_bytes, 0);
        assert_eq!(d.l7_decode_errors, 0);
        assert_eq!(d.l7_truncations, 0);
        assert_eq!(d.l7_matches, [0; 4]);
        assert_eq!(d.l7_blocked_flows, 0);
        assert_eq!(d.l7_bypassed_flows, 0);
        assert_eq!(d.flows_evicted, 0);
        assert_eq!(d.quarantined_flow_evictions, 0);
        // Forward progress still measures normally.
        let later = Telemetry {
            packets: 105,
            bytes: 2_320,
            ..Telemetry::default()
        };
        assert_eq!(later.delta_since(&now).packets, 100);
        assert_eq!(later.delta_since(&now).bytes, 2_000);
    }

    #[test]
    fn tenant_counter_maps_merge_keyed_and_sorted() {
        use crate::config::TenantId;
        let mut total = vec![(
            TenantId(2),
            TenantCounters {
                packets: 1,
                bytes: 10,
                ..TenantCounters::default()
            },
        )];
        merge_tenant_counters(
            &mut total,
            &[
                (
                    TenantId(1),
                    TenantCounters {
                        packets: 5,
                        ..TenantCounters::default()
                    },
                ),
                (
                    TenantId(2),
                    TenantCounters {
                        packets: 3,
                        bytes: 30,
                        matches: 2,
                        ..TenantCounters::default()
                    },
                ),
            ],
        );
        assert_eq!(total.len(), 2);
        assert_eq!(total[0].0, TenantId(1));
        assert_eq!(total[0].1.packets, 5);
        assert_eq!(total[1].0, TenantId(2));
        assert_eq!(total[1].1.packets, 4);
        assert_eq!(total[1].1.bytes, 40);
        assert_eq!(total[1].1.matches, 2);
    }
}
