//! Adaptive overload control: bounded backpressure, ECN-CE marking and
//! scan shedding.
//!
//! §4.1 makes the DPI controller responsible for balancing load across
//! instances, and §6.1 reserves the IP ECN field for in-band DPI-side
//! signals. This module closes the data-plane half of that loop: instead
//! of letting an overloaded shard grow its queue until the watchdog
//! condemns it, each shard watches its own pressure — ingress-queue depth
//! (arrivals per window for per-call traffic, which has no queue), a
//! scan-latency EWMA and flow-state bytes — through an
//! [`OverloadDetector`] with high/low watermarks and hysteresis: the one
//! state machine behind every entry point of an instance (DESIGN.md
//! §11). While overloaded the instance
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
/// Overload is **entered** when queue depth reaches `queue_high` *or* the
/// scan-latency EWMA reaches `latency_high_us`; it is **cleared** only
/// when depth has fallen to `queue_low` *and* the EWMA to
/// `latency_low_us` — the hysteresis gap prevents flapping around a
/// single threshold.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct OverloadPolicy {
    /// Queue depth at or above which the shard is overloaded.
    pub queue_high: usize,
    /// Queue depth at or below which (jointly with the latency low
    /// watermark) overload clears.
    pub queue_low: usize,
    /// Scan-latency EWMA (µs) at or above which the shard is overloaded.
    pub latency_high_us: u64,
    /// Scan-latency EWMA (µs) at or below which overload can clear.
    pub latency_low_us: u64,
    /// EWMA smoothing: each observation moves the average by
    /// `1 / 2^ewma_shift` of the difference (3 ⇒ α = 1/8).
    pub ewma_shift: u32,
    /// Flow-state bytes at or above which the shard is overloaded
    /// (the flow arena's accounted footprint, DESIGN.md §15). `0`
    /// disables the memory watermarks.
    #[serde(default)]
    pub memory_high_bytes: u64,
    /// Flow-state bytes at or below which (jointly with the other low
    /// watermarks) overload clears.
    #[serde(default)]
    pub memory_low_bytes: u64,
}

impl Default for OverloadPolicy {
    fn default() -> OverloadPolicy {
        OverloadPolicy {
            // Three quarters of the shard queue capacity (256).
            queue_high: 192,
            queue_low: 64,
            latency_high_us: 5_000,
            latency_low_us: 1_000,
            ewma_shift: 3,
            memory_high_bytes: 0,
            memory_low_bytes: 0,
        }
    }
}

impl OverloadPolicy {
    /// A policy that only watches queue depth — the latency watermarks
    /// are effectively disabled. Useful in simulations where scan latency
    /// is microseconds regardless of load.
    pub fn queue_only(queue_high: usize, queue_low: usize) -> OverloadPolicy {
        assert!(queue_low <= queue_high, "low watermark above high");
        OverloadPolicy {
            queue_high,
            queue_low,
            latency_high_us: u64::MAX,
            latency_low_us: u64::MAX,
            ..OverloadPolicy::default()
        }
    }

    /// Arms the flow-state memory watermarks: overload enters when a
    /// shard's accounted flow-state bytes reach `high` and can clear
    /// only once they fall to `low`.
    pub fn with_memory_watermarks(mut self, high: u64, low: u64) -> OverloadPolicy {
        assert!(low <= high, "low watermark above high");
        self.memory_high_bytes = high;
        self.memory_low_bytes = low;
        self
    }
}

/// A state transition reported by [`OverloadDetector::observe`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OverloadTransition {
    /// The detector crossed the high watermark and entered overload.
    Entered,
    /// The detector fell below both low watermarks and cleared.
    Cleared,
}

/// Per-shard overload state machine: latency EWMA + queue watermarks with
/// hysteresis, plus lifetime counters for everything the shed policy did.
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
/// assert_eq!(det.observe(9, 10), Some(OverloadTransition::Entered));
/// assert!(det.is_overloaded());
/// // Above the low watermark: still overloaded (hysteresis).
/// assert_eq!(det.observe(5, 10), None);
/// assert_eq!(det.observe(1, 10), Some(OverloadTransition::Cleared));
/// ```
#[derive(Debug, Clone)]
pub struct OverloadDetector {
    policy: OverloadPolicy,
    /// Scan-latency EWMA in microseconds.
    ewma_us: u64,
    /// Last observed queue depth.
    last_depth: usize,
    /// Last observed flow-state byte footprint.
    last_flow_bytes: u64,
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
            ewma_us: 0,
            last_depth: 0,
            last_flow_bytes: 0,
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
    /// off the queue and the wall time its scan took — and steps the
    /// hysteresis state machine. Returns the transition, if one happened.
    /// Leaves the memory pressure signal at its last observed value (0
    /// until one is fed via [`OverloadDetector::observe_with_memory`]).
    pub fn observe(
        &mut self,
        queue_depth: usize,
        scan_latency_us: u64,
    ) -> Option<OverloadTransition> {
        let flow_bytes = self.last_flow_bytes;
        self.observe_with_memory(queue_depth, scan_latency_us, flow_bytes)
    }

    /// [`OverloadDetector::observe`] plus the shard's accounted
    /// flow-state bytes: memory pressure enters overload like queue or
    /// latency pressure, so a million-flow state build-up sheds and
    /// CE-marks before the allocator (or the OOM killer) decides for us.
    pub fn observe_with_memory(
        &mut self,
        queue_depth: usize,
        scan_latency_us: u64,
        flow_bytes: u64,
    ) -> Option<OverloadTransition> {
        // Integer EWMA: move 1/2^shift of the signed difference.
        let shift = self.policy.ewma_shift.min(16);
        if scan_latency_us >= self.ewma_us {
            self.ewma_us += (scan_latency_us - self.ewma_us) >> shift;
        } else {
            self.ewma_us -= (self.ewma_us - scan_latency_us) >> shift;
        }
        self.last_depth = queue_depth;
        self.last_flow_bytes = flow_bytes;
        let mem_armed = self.policy.memory_high_bytes > 0;

        if !self.overloaded {
            if queue_depth >= self.policy.queue_high
                || self.ewma_us >= self.policy.latency_high_us
                || (mem_armed && flow_bytes >= self.policy.memory_high_bytes)
            {
                self.overloaded = true;
                self.entries += 1;
                return Some(OverloadTransition::Entered);
            }
        } else if queue_depth <= self.policy.queue_low
            && (self.ewma_us <= self.policy.latency_low_us
                || self.policy.latency_high_us == u64::MAX)
            && (!mem_armed || flow_bytes <= self.policy.memory_low_bytes)
        {
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

    /// The current scan-latency EWMA in microseconds.
    pub fn ewma_us(&self) -> u64 {
        self.ewma_us
    }

    /// Load score in `[0, ∞)`: the worst of queue-depth, latency and
    /// flow-state-memory pressure, each normalized to its high watermark
    /// (1.0 = at the watermark). Exported as a gauge.
    pub fn load_score(&self) -> f64 {
        let q = if self.policy.queue_high == 0 {
            0.0
        } else {
            self.last_depth as f64 / self.policy.queue_high as f64
        };
        let l = if self.policy.latency_high_us == u64::MAX || self.policy.latency_high_us == 0 {
            0.0
        } else {
            self.ewma_us as f64 / self.policy.latency_high_us as f64
        };
        let m = if self.policy.memory_high_bytes == 0 {
            0.0
        } else {
            self.last_flow_bytes as f64 / self.policy.memory_high_bytes as f64
        };
        q.max(l).max(m)
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

/// Weighted-fair arrival shares across tenants (DESIGN.md §16): the
/// shed policy's tie-breaker under multi-tenant overload. Each shard
/// tracks how many packets each tenant contributed; a tenant may only
/// be shed while its arrival share is **at or above** its weighted fair
/// share, so a bursting tenant sheds its own fail-open traffic first
/// and a tenant below its share is never shed — it cannot be starved by
/// a neighbour's burst.
///
/// With a single tenant (or no tenants configured) the equality
/// `packets × total_weight ≥ total_packets × weight` always holds, so
/// the shedder behaves exactly as it did before tenancy existed.
///
/// ```
/// use dpi_core::config::TenantId;
/// use dpi_core::overload::TenantFairness;
///
/// let mut f = TenantFairness::new(&[(TenantId(1), 1), (TenantId(2), 1)]);
/// for _ in 0..9 {
///     f.note_arrival(TenantId(1));
/// }
/// f.note_arrival(TenantId(2));
/// assert!(f.at_or_over_fair_share(TenantId(1))); // 90% ≥ 50%
/// assert!(!f.at_or_over_fair_share(TenantId(2))); // 10% < 50%: protected
/// ```
#[derive(Debug, Clone, Default)]
pub struct TenantFairness {
    /// `(tenant, weight, packets)`, sorted by tenant id.
    entries: Vec<(crate::config::TenantId, u32, u64)>,
    total_weight: u64,
    total_packets: u64,
}

impl TenantFairness {
    /// A tracker over the configured tenant weights (weights clamp to at
    /// least 1). Tenants that show up later auto-register at weight 1.
    pub fn new(weights: &[(crate::config::TenantId, u32)]) -> TenantFairness {
        let mut entries: Vec<(crate::config::TenantId, u32, u64)> =
            weights.iter().map(|&(t, w)| (t, w.max(1), 0)).collect();
        entries.sort_by_key(|&(t, _, _)| t);
        entries.dedup_by_key(|&mut (t, _, _)| t);
        let total_weight = entries.iter().map(|&(_, w, _)| u64::from(w)).sum();
        TenantFairness {
            entries,
            total_weight,
            total_packets: 0,
        }
    }

    /// Records one packet arrival attributed to `tenant`.
    pub fn note_arrival(&mut self, tenant: crate::config::TenantId) {
        self.total_packets += 1;
        match self.entries.binary_search_by_key(&tenant, |&(t, _, _)| t) {
            Ok(i) => self.entries[i].2 += 1,
            Err(i) => {
                self.entries.insert(i, (tenant, 1, 1));
                self.total_weight += 1;
            }
        }
    }

    /// Whether `tenant`'s arrival share is at or above its weighted fair
    /// share — the precondition for shedding its fail-open traffic.
    /// Vacuously true before any arrivals (and for a lone tenant), so
    /// untenanted shedding is unchanged.
    pub fn at_or_over_fair_share(&self, tenant: crate::config::TenantId) -> bool {
        let (weight, packets) = match self.entries.binary_search_by_key(&tenant, |&(t, _, _)| t) {
            Ok(i) => (u64::from(self.entries[i].1), self.entries[i].2),
            Err(_) => (1, 0),
        };
        // packets / total_packets ≥ weight / total_weight, cross-
        // multiplied in u128 so lifetime counters cannot overflow.
        u128::from(packets) * u128::from(self.total_weight)
            >= u128::from(self.total_packets) * u128::from(weight)
    }

    /// `tenant`'s observed arrival share in `[0, 1]` (0 before any
    /// arrivals).
    pub fn share_of(&self, tenant: crate::config::TenantId) -> f64 {
        if self.total_packets == 0 {
            return 0.0;
        }
        let packets = match self.entries.binary_search_by_key(&tenant, |&(t, _, _)| t) {
            Ok(i) => self.entries[i].2,
            Err(_) => 0,
        };
        packets as f64 / self.total_packets as f64
    }

    /// Total arrivals observed.
    pub fn total_packets(&self) -> u64 {
        self.total_packets
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn detector_enters_on_queue_high_and_clears_with_hysteresis() {
        let mut det = OverloadDetector::new(OverloadPolicy::queue_only(10, 3));
        assert_eq!(det.observe(9, 0), None);
        assert_eq!(det.observe(10, 0), Some(OverloadTransition::Entered));
        assert!(det.is_overloaded());
        // Between the watermarks: no flapping either way.
        for depth in [9, 7, 5, 4] {
            assert_eq!(det.observe(depth, 0), None);
            assert!(det.is_overloaded());
        }
        assert_eq!(det.observe(3, 0), Some(OverloadTransition::Cleared));
        assert!(!det.is_overloaded());
        // Re-entering counts a second entry.
        assert_eq!(det.observe(11, 0), Some(OverloadTransition::Entered));
        assert_eq!(det.entries, 2);
        assert_eq!(det.exits, 1);
    }

    #[test]
    fn detector_enters_on_latency_ewma() {
        let policy = OverloadPolicy {
            queue_high: usize::MAX,
            queue_low: usize::MAX,
            latency_high_us: 1_000,
            latency_low_us: 100,
            ewma_shift: 0, // EWMA tracks the observation exactly
            ..OverloadPolicy::default()
        };
        let mut det = OverloadDetector::new(policy);
        assert_eq!(det.observe(0, 500), None);
        assert_eq!(det.observe(0, 2_000), Some(OverloadTransition::Entered));
        assert_eq!(det.ewma_us(), 2_000);
        // Queue is at zero but latency still high: stays overloaded.
        assert_eq!(det.observe(0, 500), None);
        assert_eq!(det.observe(0, 50), Some(OverloadTransition::Cleared));
    }

    #[test]
    fn ewma_smooths_spikes() {
        let policy = OverloadPolicy {
            queue_high: usize::MAX,
            queue_low: 0,
            latency_high_us: 10_000,
            latency_low_us: 1_000,
            ewma_shift: 3,
            ..OverloadPolicy::default()
        };
        let mut det = OverloadDetector::new(policy);
        // A single 16ms spike moves a zero EWMA by only 1/8th — no entry.
        assert_eq!(det.observe(0, 16_000), None);
        assert_eq!(det.ewma_us(), 2_000);
        // Sustained pressure eventually crosses.
        let mut entered = false;
        for _ in 0..32 {
            if det.observe(0, 16_000) == Some(OverloadTransition::Entered) {
                entered = true;
            }
        }
        assert!(entered, "sustained latency must enter overload");
    }

    #[test]
    fn load_score_tracks_the_worse_pressure() {
        let mut det = OverloadDetector::new(OverloadPolicy {
            queue_high: 100,
            queue_low: 10,
            latency_high_us: 1_000,
            latency_low_us: 100,
            ewma_shift: 0,
            ..OverloadPolicy::default()
        });
        det.observe(50, 200);
        assert!((det.load_score() - 0.5).abs() < 1e-9);
        det.observe(10, 2_000);
        assert!(det.load_score() >= 2.0);
    }

    #[test]
    fn memory_watermarks_enter_and_clear_with_hysteresis() {
        let mut det = OverloadDetector::new(
            OverloadPolicy::queue_only(usize::MAX, 0).with_memory_watermarks(1 << 20, 1 << 18),
        );
        // Below the high watermark: nothing.
        assert_eq!(det.observe_with_memory(0, 0, (1 << 20) - 1), None);
        assert_eq!(
            det.observe_with_memory(0, 0, 1 << 20),
            Some(OverloadTransition::Entered)
        );
        assert!(det.load_score() >= 1.0);
        // Between the watermarks: hysteresis holds.
        assert_eq!(det.observe_with_memory(0, 0, 1 << 19), None);
        assert!(det.is_overloaded());
        assert_eq!(
            det.observe_with_memory(0, 0, 1 << 18),
            Some(OverloadTransition::Cleared)
        );
        // The plain observe() keeps the last memory signal rather than
        // forgetting it (a scan that observes no bytes is not evidence
        // the arena shrank).
        det.observe_with_memory(0, 0, 1 << 20);
        assert!(det.is_overloaded());
        assert_eq!(det.observe(0, 0), None, "memory pressure persists");
        assert!(det.is_overloaded());
    }

    #[test]
    fn disarmed_memory_watermarks_change_nothing() {
        let mut det = OverloadDetector::new(OverloadPolicy::queue_only(10, 3));
        assert_eq!(det.observe_with_memory(0, 0, u64::MAX), None);
        assert!(!det.is_overloaded());
        assert_eq!(det.load_score(), 0.0);
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
        assert_eq!(f.total_packets(), 100);
        assert!((f.share_of(TenantId::DEFAULT) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn fairness_protects_tenant_below_share() {
        use crate::config::TenantId;
        let mut f = TenantFairness::new(&[(TenantId(1), 1), (TenantId(2), 1)]);
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
    fn fairness_weights_scale_the_share() {
        use crate::config::TenantId;
        // Tenant 1 carries weight 3, tenant 2 weight 1: tenant 1's fair
        // share is 75%, so at a 50/50 split tenant 1 is under share
        // (protected) and tenant 2 is over (sheddable).
        let mut f = TenantFairness::new(&[(TenantId(1), 3), (TenantId(2), 1)]);
        for _ in 0..10 {
            f.note_arrival(TenantId(1));
            f.note_arrival(TenantId(2));
        }
        assert!(!f.at_or_over_fair_share(TenantId(1)));
        assert!(f.at_or_over_fair_share(TenantId(2)));
    }

    #[test]
    fn fairness_auto_registers_unknown_tenants_at_weight_one() {
        use crate::config::TenantId;
        let mut f = TenantFairness::new(&[(TenantId(1), 1)]);
        f.note_arrival(TenantId(9));
        assert!(f.at_or_over_fair_share(TenantId(9)));
        assert!(!f.at_or_over_fair_share(TenantId(1)));
        // Weight 0 in config clamps to 1 rather than dividing by zero.
        let z = TenantFairness::new(&[(TenantId(4), 0)]);
        assert!(z.at_or_over_fair_share(TenantId(4)));
    }
}
