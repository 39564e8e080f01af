//! Adaptive overload control: bounded backpressure, ECN-CE marking and
//! scan shedding.
//!
//! §4.1 makes the DPI controller responsible for balancing load across
//! instances, and §6.1 reserves the IP ECN field for in-band DPI-side
//! signals. This module closes the data-plane half of that loop: instead
//! of letting an overloaded shard only push back on its feeder, each
//! shard watches its own pressure — ingress-queue depth
//! (arrivals per window for per-call traffic, which has no queue) —
//! through an [`OverloadDetector`] with high/low watermarks and
//! hysteresis: the one state machine behind every entry point of an
//! instance (DESIGN.md §11). While overloaded the instance
//!
//! * CE-marks forwarded packets ([`dpi_packet::ipv4::Ecn::Ce`], the ECN
//!   congestion codepoint — distinct from the `Ect0` match mark), and
//! * skips scanning for chains whose middleboxes are all fail-open — the
//!   packets still flow, they just produce no results. Chains with a
//!   fail-closed member ([`crate::MiddleboxProfile::fail_closed`]) are
//!   **never** shed: their
//!   verdict traffic is scanned no matter the pressure, the same
//!   fail-open-data / fail-closed-verdicts split result delivery uses.
//!
//! The control-plane half (the controller's `LoadBalancer` re-steering
//! whole flows hot→cold) reads each instance's arrivals — scanned plus
//! shed — off the same detectors.

use serde::{Deserialize, Serialize};

/// Watermark configuration for one overload detector.
///
/// Overload is **entered** when queue depth reaches `queue_high`; it is
/// **cleared** only when depth has fallen to `queue_low` — the
/// hysteresis gap prevents flapping around a single threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadPolicy {
    /// Queue depth at or above which the shard is overloaded.
    pub queue_high: usize,
    /// Queue depth at or below which overload clears.
    pub queue_low: usize,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        // Three quarters and one quarter of the shard queue capacity
        // (256).
        OverloadPolicy::queue_only(192, 64)
    }
}

impl OverloadPolicy {
    /// A policy with the given depth watermarks.
    pub fn queue_only(queue_high: usize, queue_low: usize) -> OverloadPolicy {
        assert!(queue_low <= queue_high, "low watermark above high");
        OverloadPolicy {
            queue_high,
            queue_low,
        }
    }
}

/// A state transition reported by [`OverloadDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadTransition {
    /// The detector crossed the high watermark and entered overload.
    Entered,
    /// The detector fell to the low watermark and cleared.
    Cleared,
}

/// Per-shard overload state machine: queue watermarks with hysteresis,
/// plus lifetime counters for everything the shed policy did.
///
/// Owned by the shard's slot in the instance (it survives shard
/// restarts). A batch worker feeds it the backlog behind every packet; a
/// window close feeds it the arrivals of the per-call window just ended.
///
/// ```
/// use dpi_core::overload::{OverloadDetector, OverloadPolicy, OverloadTransition};
///
/// let mut det = OverloadDetector::new(OverloadPolicy::queue_only(8, 2));
/// assert!(!det.is_overloaded());
/// assert_eq!(det.observe(9), Some(OverloadTransition::Entered));
/// assert!(det.is_overloaded());
/// // Above the low watermark: still overloaded (hysteresis).
/// assert_eq!(det.observe(5), None);
/// assert_eq!(det.observe(1), Some(OverloadTransition::Cleared));
/// ```
#[derive(Debug, Clone)]
pub struct OverloadDetector {
    policy: OverloadPolicy,
    /// Last observed queue depth.
    last_depth: usize,
    overloaded: bool,
    /// Lifetime count of overload entries.
    pub entries: u64,
    /// Lifetime count of overload exits.
    pub exits: u64,
    /// Packets whose scan was shed while overloaded.
    pub shed_packets: u64,
    /// Payload bytes of shed packets.
    pub shed_bytes: u64,
    /// Packets CE-marked while overloaded.
    pub ce_marked: u64,
}

impl OverloadDetector {
    /// A detector in the not-overloaded state.
    pub fn new(policy: OverloadPolicy) -> OverloadDetector {
        OverloadDetector {
            policy,
            last_depth: 0,
            overloaded: false,
            entries: 0,
            exits: 0,
            shed_packets: 0,
            shed_bytes: 0,
            ce_marked: 0,
        }
    }

    /// The configured watermarks.
    pub fn policy(&self) -> &OverloadPolicy {
        &self.policy
    }

    /// Feeds one observation — the backlog behind the packet just pulled
    /// off the queue, or a closed window's arrivals — and steps the
    /// hysteresis state machine. Returns the transition, if one happened.
    pub fn observe(&mut self, queue_depth: usize) -> Option<OverloadTransition> {
        self.last_depth = queue_depth;
        if !self.overloaded {
            if queue_depth >= self.policy.queue_high {
                self.overloaded = true;
                self.entries += 1;
                return Some(OverloadTransition::Entered);
            }
        } else if queue_depth <= self.policy.queue_low {
            self.overloaded = false;
            self.exits += 1;
            return Some(OverloadTransition::Cleared);
        }
        None
    }

    /// Whether the shard is currently past the high watermark (and has
    /// not yet fallen below the low one).
    pub fn is_overloaded(&self) -> bool {
        self.overloaded
    }

    /// Load score in `[0, ∞)`: the last observed depth over the high
    /// watermark (1.0 = at the watermark). Exported as a gauge.
    pub fn load_score(&self) -> f64 {
        if self.policy.queue_high == 0 {
            0.0
        } else {
            self.last_depth as f64 / self.policy.queue_high as f64
        }
    }

    /// Records one shed scan (the packet flowed unscanned).
    pub fn note_shed(&mut self, bytes: u64) {
        self.shed_packets += 1;
        self.shed_bytes += bytes;
    }

    /// Records one CE-marked packet.
    pub fn note_ce_mark(&mut self) {
        self.ce_marked += 1;
    }
}

/// Fair arrival shares across tenants (DESIGN.md §16): the shed
/// policy's tie-breaker under multi-tenant overload. Each shard tracks
/// how many packets each tenant contributed; a tenant may only be shed
/// while its arrival share is **at or above** an equal share of the
/// tenants it knows, so a bursting tenant sheds its own fail-open
/// traffic first and a tenant below its share is never shed — it cannot
/// be starved by a neighbour's burst.
///
/// With a single tenant (or no tenants configured) the equality
/// `packets × tenants ≥ total_packets` always holds, so the shedder
/// behaves exactly as it did before tenancy existed.
///
/// ```
/// use dpi_core::config::TenantId;
/// use dpi_core::overload::TenantFairness;
///
/// let mut f = TenantFairness::new(&[TenantId(1), TenantId(2)]);
/// for _ in 0..9 {
///     f.note_arrival(TenantId(1));
/// }
/// f.note_arrival(TenantId(2));
/// assert!(f.at_or_over_fair_share(TenantId(1))); // 90% ≥ 50%
/// assert!(!f.at_or_over_fair_share(TenantId(2))); // 10% < 50%: protected
/// ```
#[derive(Debug, Clone, Default)]
pub struct TenantFairness {
    /// `(tenant, packets)`, sorted by tenant id.
    entries: Vec<(crate::config::TenantId, u64)>,
    total_packets: u64,
}

impl TenantFairness {
    /// A tracker over the given tenants. Tenants that show up later
    /// register on their first arrival.
    pub fn new(tenants: &[crate::config::TenantId]) -> TenantFairness {
        let mut entries: Vec<(crate::config::TenantId, u64)> =
            tenants.iter().map(|&t| (t, 0)).collect();
        entries.sort_by_key(|&(t, _)| t);
        entries.dedup_by_key(|&mut (t, _)| t);
        TenantFairness {
            entries,
            total_packets: 0,
        }
    }

    /// Records one packet arrival attributed to `tenant`.
    pub fn note_arrival(&mut self, tenant: crate::config::TenantId) {
        self.total_packets += 1;
        match self.entries.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => self.entries[i].1 += 1,
            Err(i) => self.entries.insert(i, (tenant, 1)),
        }
    }

    /// Whether `tenant`'s arrival share is at or above its fair share —
    /// the precondition for shedding its fail-open traffic. Vacuously
    /// true before any arrivals (and for a lone tenant), so untenanted
    /// shedding is unchanged.
    pub fn at_or_over_fair_share(&self, tenant: crate::config::TenantId) -> bool {
        let packets = match self.entries.binary_search_by_key(&tenant, |&(t, _)| t) {
            Ok(i) => self.entries[i].1,
            Err(_) => 0,
        };
        // packets / total_packets ≥ 1 / tenants, cross-multiplied in
        // u128 so lifetime counters cannot overflow.
        u128::from(packets) * self.entries.len() as u128 >= u128::from(self.total_packets)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_enters_on_queue_high_and_clears_with_hysteresis() {
        let mut det = OverloadDetector::new(OverloadPolicy::queue_only(10, 3));
        assert_eq!(det.observe(9), None);
        assert_eq!(det.observe(10), Some(OverloadTransition::Entered));
        assert!(det.is_overloaded());
        // Between the watermarks: no flapping either way.
        for depth in [9, 7, 5, 4] {
            assert_eq!(det.observe(depth), None);
            assert!(det.is_overloaded());
        }
        assert_eq!(det.observe(3), Some(OverloadTransition::Cleared));
        assert!(!det.is_overloaded());
        // Re-entering counts a second entry.
        assert_eq!(det.observe(11), Some(OverloadTransition::Entered));
        assert_eq!(det.entries, 2);
        assert_eq!(det.exits, 1);
    }

    #[test]
    fn load_score_is_depth_over_the_high_watermark() {
        let mut det = OverloadDetector::new(OverloadPolicy::queue_only(100, 10));
        assert_eq!(det.load_score(), 0.0);
        det.observe(50);
        assert!((det.load_score() - 0.5).abs() < 1e-9);
        det.observe(200);
        assert!((det.load_score() - 2.0).abs() < 1e-9);
        // A zero high watermark scores 0 rather than dividing by zero.
        let mut zero = OverloadDetector::new(OverloadPolicy::queue_only(0, 0));
        zero.observe(5);
        assert_eq!(zero.load_score(), 0.0);
    }

    #[test]
    fn shed_and_ce_counters_accumulate() {
        let mut det = OverloadDetector::new(OverloadPolicy::default());
        det.note_shed(100);
        det.note_shed(50);
        det.note_ce_mark();
        assert_eq!(det.shed_packets, 2);
        assert_eq!(det.shed_bytes, 150);
        assert_eq!(det.ce_marked, 1);
    }

    #[test]
    fn fairness_single_tenant_always_sheddable() {
        use crate::config::TenantId;
        // Untenanted / lone-tenant traffic must shed exactly as before:
        // the share comparison degenerates to equality.
        let mut f = TenantFairness::new(&[]);
        assert!(f.at_or_over_fair_share(TenantId::DEFAULT));
        for _ in 0..100 {
            f.note_arrival(TenantId::DEFAULT);
        }
        assert!(f.at_or_over_fair_share(TenantId::DEFAULT));
        assert_eq!(f.total_packets, 100);
    }

    #[test]
    fn fairness_protects_tenant_below_share() {
        use crate::config::TenantId;
        let mut f = TenantFairness::new(&[TenantId(1), TenantId(2)]);
        for _ in 0..16 {
            f.note_arrival(TenantId(1));
        }
        f.note_arrival(TenantId(2));
        // Tenant 1 holds ~94% of arrivals against a 50% fair share:
        // sheddable. Tenant 2 sits at ~6%: protected.
        assert!(f.at_or_over_fair_share(TenantId(1)));
        assert!(!f.at_or_over_fair_share(TenantId(2)));
        // Equal arrivals → both at fair share again.
        for _ in 0..15 {
            f.note_arrival(TenantId(2));
        }
        assert!(f.at_or_over_fair_share(TenantId(1)));
        assert!(f.at_or_over_fair_share(TenantId(2)));
    }

    #[test]
    fn fairness_three_tenants_share_equally() {
        use crate::config::TenantId;
        let tenants = [TenantId(1), TenantId(2), TenantId(3)];
        // Arrivals per tenant → which tenants are at or over a third.
        let table: [([u64; 3], [bool; 3]); 6] = [
            ([0, 0, 0], [true, true, true]),
            ([1, 1, 1], [true, true, true]),
            ([6, 3, 1], [true, false, false]),
            ([4, 3, 3], [true, false, false]),
            ([5, 5, 0], [true, true, false]),
            ([4, 4, 4], [true, true, true]),
        ];
        for (arrivals, sheddable) in table {
            let mut f = TenantFairness::new(&tenants);
            for (&t, &n) in tenants.iter().zip(&arrivals) {
                for _ in 0..n {
                    f.note_arrival(t);
                }
            }
            let got = tenants.map(|t| f.at_or_over_fair_share(t));
            assert_eq!(got, sheddable, "arrivals {arrivals:?}");
        }
    }

    #[test]
    fn fairness_auto_registers_unknown_tenants() {
        use crate::config::TenantId;
        let mut f = TenantFairness::new(&[TenantId(1)]);
        f.note_arrival(TenantId(9));
        assert!(f.at_or_over_fair_share(TenantId(9)));
        assert!(!f.at_or_over_fair_share(TenantId(1)));
    }
}
