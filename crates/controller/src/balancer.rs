//! Telemetry-driven fleet rebalancing.
//!
//! §4.3 has the controller "balance the load between the different DPI
//! service instances" using the telemetries the instances export. The
//! failover path (re-steer *all* flows of a dead instance) already
//! exists; this module adds the graceful version: when one instance runs
//! persistently hotter than its peers, migrate a bounded number of
//! *whole flows* from the hottest to the coldest instance each heartbeat
//! round. Whole flows, because mid-flow scan state (DFA state, flow
//! offset) lives on one instance at a time: the caller moves it with
//! the flow, and splitting a flow across instances would break
//! cross-packet matching.
//!
//! Two anti-flap mechanisms keep the steering table quiet:
//!
//! * **per-flow cooldown** — a migrated flow is frozen for
//!   [`BalancePolicy::cooldown_rounds`] rounds, so the same flow cannot
//!   ping-pong between instances on alternating rounds;
//! * **pair reversal veto** — if this round's hot/cold pick is exactly
//!   last round's pair reversed, the round is skipped: oscillation means
//!   the migration budget overshot, and moving flows back would churn
//!   switch rules for nothing.
//!
//! The balancer consumes *cumulative* load counters (packets scanned,
//! as self-reported in heartbeats) and differences them internally, so
//! it measures per-round rates and is immune to counter resets
//! (saturating deltas, like [`dpi_core::Telemetry::delta_since`]).

use crate::controller::InstanceId;
use std::collections::BTreeMap;

/// Thresholds and limits for the rebalancing loop.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BalancePolicy {
    /// Per-round load delta (packets) at or above which an instance
    /// counts as hot. Below this, the fleet is idle enough that skew
    /// does not matter.
    pub load_high: u64,
    /// Hot delta must be at least this multiple of the cold delta for a
    /// migration round to trigger (imbalance hysteresis; ≥ 1.0).
    pub min_imbalance: f64,
    /// Maximum flows migrated per round. Bounds the per-round steering
    /// churn (each migration rewrites switch rules).
    pub migration_budget: usize,
    /// Rounds a migrated flow is frozen before it may move again.
    pub cooldown_rounds: u32,
}

impl Default for BalancePolicy {
    fn default() -> BalancePolicy {
        BalancePolicy {
            load_high: 64,
            min_imbalance: 2.0,
            migration_budget: 4,
            cooldown_rounds: 4,
        }
    }
}

/// One round's migration decision: move up to `budget` flows from `hot`
/// to `cold`. The caller offers the hot instance's own flows to
/// [`LoadBalancer::select_flows`], which picks the concrete ones.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RebalancePlan {
    /// The instance to unload.
    pub hot: InstanceId,
    /// The instance to receive the flows.
    pub cold: InstanceId,
    /// Flow budget for this round.
    pub budget: usize,
    /// Observed per-round deltas behind the decision (for logs/traces).
    pub hot_delta: u64,
    /// The cold instance's per-round delta.
    pub cold_delta: u64,
}

/// The controller-side load balancer: feed it one load snapshot per
/// heartbeat round, act on the plan it returns (if any).
#[derive(Debug)]
pub struct LoadBalancer {
    policy: BalancePolicy,
    /// Last cumulative load per instance, for differencing.
    last_loads: BTreeMap<InstanceId, u64>,
    /// Flow key → rounds it remains frozen.
    flow_cooldown: BTreeMap<u64, u32>,
    /// Last round's (hot, cold) pick, for the reversal veto.
    last_pair: Option<(InstanceId, InstanceId)>,
    /// Total flows migrated over the balancer's lifetime.
    migrations: u64,
    /// Rounds observed.
    rounds: u64,
}

impl LoadBalancer {
    /// A balancer with the given policy.
    pub fn new(policy: BalancePolicy) -> LoadBalancer {
        assert!(policy.min_imbalance >= 1.0, "imbalance ratio below 1");
        LoadBalancer {
            policy,
            last_loads: BTreeMap::new(),
            flow_cooldown: BTreeMap::new(),
            last_pair: None,
            migrations: 0,
            rounds: 0,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> BalancePolicy {
        self.policy
    }

    /// Total flows migrated so far.
    pub fn migrations(&self) -> u64 {
        self.migrations
    }

    /// Rounds observed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds
    }

    /// Feeds one heartbeat round of `(instance, cumulative load)` pairs —
    /// only instances eligible for steering (callers exclude the dead) —
    /// and returns a migration plan when the imbalance thresholds and
    /// anti-flap checks all pass.
    pub fn observe_round(&mut self, loads: &[(InstanceId, u64)]) -> Option<RebalancePlan> {
        self.rounds += 1;
        // Age flow cooldowns: a flow frozen for N rounds thaws after the
        // N-th subsequent round closes.
        self.flow_cooldown.retain(|_, left| {
            *left -= 1;
            *left > 0
        });

        // Difference cumulative counters into per-round deltas.
        let mut deltas: Vec<(InstanceId, u64)> = loads
            .iter()
            .map(|&(id, cum)| {
                let prev = self.last_loads.insert(id, cum).unwrap_or(0);
                (id, cum.saturating_sub(prev))
            })
            .collect();
        if deltas.len() < 2 {
            return None;
        }
        // Ties break toward the lower instance id (sort is stable and
        // the input is already id-ordered by the caller's BTreeMap; sort
        // defensively anyway for determinism).
        deltas.sort_by_key(|&(id, _)| id);
        let &(hot, hot_delta) = deltas.iter().max_by_key(|&&(_, d)| d)?;
        let &(cold, cold_delta) = deltas.iter().min_by_key(|&&(_, d)| d)?;
        if hot == cold || hot_delta < self.policy.load_high {
            self.last_pair = None;
            return None;
        }
        // Imbalance hysteresis: the hot instance must be doing at least
        // `min_imbalance` times the cold one's work.
        if (hot_delta as f64) < self.policy.min_imbalance * (cold_delta.max(1) as f64) {
            self.last_pair = None;
            return None;
        }
        // Reversal veto: do not undo last round's migration direction.
        if self.last_pair == Some((cold, hot)) {
            self.last_pair = None;
            return None;
        }
        self.last_pair = Some((hot, cold));
        Some(RebalancePlan {
            hot,
            cold,
            budget: self.policy.migration_budget,
            hot_delta,
            cold_delta,
        })
    }

    /// Picks which of the hot instance's flows actually move under
    /// `plan`: the first `budget` candidates not in cooldown, in sorted
    /// key order (deterministic regardless of the caller's map iteration
    /// order). Selected flows are frozen for
    /// [`BalancePolicy::cooldown_rounds`].
    pub fn select_flows(&mut self, plan: &RebalancePlan, candidates: &[u64]) -> Vec<u64> {
        let mut keys: Vec<u64> = candidates.to_vec();
        keys.sort_unstable();
        keys.dedup();
        let picked: Vec<u64> = keys
            .into_iter()
            .filter(|k| !self.flow_cooldown.contains_key(k))
            .take(plan.budget)
            .collect();
        for &k in &picked {
            self.flow_cooldown.insert(k, self.policy.cooldown_rounds);
        }
        self.migrations += picked.len() as u64;
        picked
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn balancer() -> LoadBalancer {
        LoadBalancer::new(BalancePolicy {
            load_high: 100,
            min_imbalance: 2.0,
            migration_budget: 2,
            cooldown_rounds: 2,
        })
    }

    #[test]
    fn balanced_fleet_produces_no_plan() {
        let mut b = balancer();
        assert!(b
            .observe_round(&[(InstanceId(0), 500), (InstanceId(1), 480)])
            .is_none());
        // Round 2: both advanced ~equally.
        assert!(b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 990)])
            .is_none());
    }

    #[test]
    fn sustained_skew_yields_hot_to_cold_plan() {
        let mut b = balancer();
        b.observe_round(&[(InstanceId(0), 0), (InstanceId(1), 0)]);
        let plan = b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 50)])
            .expect("10x skew above load_high must trigger");
        assert_eq!(plan.hot, InstanceId(0));
        assert_eq!(plan.cold, InstanceId(1));
        assert_eq!(plan.budget, 2);
        assert_eq!(plan.hot_delta, 1000);
        assert_eq!(plan.cold_delta, 50);
    }

    #[test]
    fn idle_fleet_skew_is_ignored() {
        // 10x relative skew, but the hot instance is below load_high:
        // rebalancing an idle fleet is pure churn.
        let mut b = balancer();
        b.observe_round(&[(InstanceId(0), 0), (InstanceId(1), 0)]);
        assert!(b
            .observe_round(&[(InstanceId(0), 90), (InstanceId(1), 9)])
            .is_none());
    }

    #[test]
    fn cumulative_counters_are_differenced() {
        let mut b = balancer();
        // Huge cumulative values, equal rates: no plan.
        b.observe_round(&[(InstanceId(0), 1_000_000), (InstanceId(1), 10)]);
        assert!(b
            .observe_round(&[(InstanceId(0), 1_000_200), (InstanceId(1), 210)])
            .is_none());
    }

    #[test]
    fn reversal_veto_blocks_pingpong() {
        let mut b = balancer();
        b.observe_round(&[(InstanceId(0), 0), (InstanceId(1), 0)]);
        let p1 = b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 0)])
            .unwrap();
        assert_eq!((p1.hot, p1.cold), (InstanceId(0), InstanceId(1)));
        // Next round the load flipped (the migration overshot): the
        // reversed pair is vetoed once.
        assert!(b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 1000)])
            .is_none());
        // Sustained reversal is eventually honored (it is real load).
        let p2 = b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 2000)])
            .unwrap();
        assert_eq!((p2.hot, p2.cold), (InstanceId(1), InstanceId(0)));
    }

    #[test]
    fn select_flows_respects_budget_and_cooldown() {
        let mut b = balancer();
        b.observe_round(&[(InstanceId(0), 0), (InstanceId(1), 0)]);
        let plan = b
            .observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 0)])
            .unwrap();
        let picked = b.select_flows(&plan, &[30, 10, 20, 40]);
        // Budget 2, sorted order: lowest keys move.
        assert_eq!(picked, vec![10, 20]);
        assert_eq!(b.migrations(), 2);
        assert!(b.flow_cooldown.contains_key(&10) && b.flow_cooldown.contains_key(&20));
        // While frozen, the same flows are skipped.
        let picked = b.select_flows(&plan, &[10, 20, 30]);
        assert_eq!(picked, vec![30]);
        // Cooldown (2 rounds) expires after two more observed rounds.
        b.observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 0)]);
        assert!(b.flow_cooldown.contains_key(&10));
        b.observe_round(&[(InstanceId(0), 1000), (InstanceId(1), 0)]);
        assert!(!b.flow_cooldown.contains_key(&10));
    }
}
