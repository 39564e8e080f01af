//! The MCA²-style stress monitor (§4.3.1, Figure 6).
//!
//! "Each DPI service instance should perform ongoing monitoring and export
//! telemetries that might indicate attack attempts. … the DPI controller
//! takes over this role: Under normal traffic, all DPI service instances
//! work regularly. Whenever the DPI controller detects an attack on one of
//! the instances, it sets some of the instances as dedicated, and migrates
//! the heavy flows, which are suspected to be malicious, to those
//! dedicated DPI instances. … dedicated DPI instances can be dynamically
//! allocated as an attack becomes more intense, or deallocated as its
//! significance decreases."

use crate::controller::InstanceId;
use dpi_core::Telemetry;
use std::collections::HashMap;

/// Thresholds and hysteresis of the monitor.
#[derive(Debug, Clone, Copy)]
pub struct StressPolicy {
    /// A reporting instance whose deep-state ratio exceeds this is under
    /// stress.
    pub deep_ratio_attack: f64,
    /// Stress must clear below this before dedicated capacity is released
    /// (hysteresis, so flapping traffic does not thrash the fleet).
    pub deep_ratio_clear: f64,
    /// Consecutive stressed reports required before reacting — one noisy
    /// interval must not trigger a migration storm.
    pub consecutive_reports: u32,
    /// How many dedicated instances to allocate per stressed instance.
    pub dedicated_per_stressed: usize,
}

impl Default for StressPolicy {
    fn default() -> StressPolicy {
        StressPolicy {
            deep_ratio_attack: 0.5,
            deep_ratio_clear: 0.2,
            consecutive_reports: 2,
            dedicated_per_stressed: 1,
        }
    }
}

/// An action the controller should take (and relay to the TSA, §4.3.1:
/// "flow migration … requires close cooperation with the traffic steering
/// application").
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Mca2Action {
    /// Allocate `count` dedicated instances to absorb heavy flows from
    /// `stressed`.
    AllocateDedicated {
        /// The instance under attack.
        stressed: InstanceId,
        /// Dedicated instances to bring up.
        count: usize,
    },
    /// Steer the suspected-heavy flows away from `from` to the dedicated
    /// pool.
    MigrateHeavyFlows {
        /// The stressed source instance.
        from: InstanceId,
    },
    /// The attack subsided: release dedicated capacity serving `stressed`.
    ReleaseDedicated {
        /// The formerly-stressed instance.
        stressed: InstanceId,
    },
}

#[derive(Debug, Default, Clone, Copy)]
struct InstanceStress {
    consecutive: u32,
    mitigated: bool,
}

/// The stateful stress monitor. Feed it per-instance telemetry deltas; it
/// emits actions.
#[derive(Debug, Default)]
pub struct StressMonitor {
    policy: StressPolicy,
    state: HashMap<InstanceId, InstanceStress>,
}

impl StressMonitor {
    /// A monitor with the given policy.
    pub fn new(policy: StressPolicy) -> StressMonitor {
        StressMonitor {
            policy,
            state: HashMap::new(),
        }
    }

    /// Processes one round of telemetry deltas and returns the actions to
    /// take.
    pub fn evaluate(&mut self, reports: &[(InstanceId, Telemetry)]) -> Vec<Mca2Action> {
        let mut actions = Vec::new();
        for (id, delta) in reports {
            let ratio = delta.deep_ratio();
            let st = self.state.entry(*id).or_default();
            if ratio >= self.policy.deep_ratio_attack && delta.depth_samples > 0 {
                st.consecutive += 1;
                if st.consecutive >= self.policy.consecutive_reports && !st.mitigated {
                    st.mitigated = true;
                    actions.push(Mca2Action::AllocateDedicated {
                        stressed: *id,
                        count: self.policy.dedicated_per_stressed,
                    });
                    actions.push(Mca2Action::MigrateHeavyFlows { from: *id });
                }
            } else if ratio <= self.policy.deep_ratio_clear {
                if st.mitigated {
                    st.mitigated = false;
                    actions.push(Mca2Action::ReleaseDedicated { stressed: *id });
                }
                st.consecutive = 0;
            }
            // Ratios between clear and attack: hold state (hysteresis).
        }
        actions
    }
}

/// Selects the flows to migrate off a stressed instance: the paper diverts
/// the *heavy* flows — here, any flow whose share of deep samples exceeds
/// `threshold`. The caller supplies per-flow deep ratios gathered by the
/// instance.
pub fn select_heavy_flows<K: Copy>(per_flow_deep_ratio: &[(K, f64)], threshold: f64) -> Vec<K> {
    per_flow_deep_ratio
        .iter()
        .filter(|(_, r)| *r >= threshold)
        .map(|(k, _)| *k)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn telemetry(deep: u64, total: u64) -> Telemetry {
        Telemetry {
            deep_samples: deep,
            depth_samples: total,
            packets: 100,
            bytes: 100_000,
            ..Telemetry::default()
        }
    }

    const I1: InstanceId = InstanceId(1);

    #[test]
    fn sustained_stress_triggers_mitigation_once() {
        let mut m = StressMonitor::new(StressPolicy::default());
        // First stressed report: below the consecutive threshold.
        assert!(m.evaluate(&[(I1, telemetry(80, 100))]).is_empty());
        // Second: mitigation fires.
        let actions = m.evaluate(&[(I1, telemetry(90, 100))]);
        assert_eq!(
            actions,
            vec![
                Mca2Action::AllocateDedicated {
                    stressed: I1,
                    count: 1
                },
                Mca2Action::MigrateHeavyFlows { from: I1 },
            ]
        );
        assert!(m.state[&I1].mitigated);
        // Continued stress does not re-fire.
        assert!(m.evaluate(&[(I1, telemetry(95, 100))]).is_empty());
    }

    #[test]
    fn recovery_releases_dedicated_capacity() {
        let mut m = StressMonitor::new(StressPolicy::default());
        m.evaluate(&[(I1, telemetry(80, 100))]);
        m.evaluate(&[(I1, telemetry(80, 100))]);
        assert!(m.state[&I1].mitigated);
        // Mid-band ratio: hysteresis holds.
        assert!(m.evaluate(&[(I1, telemetry(30, 100))]).is_empty());
        assert!(m.state[&I1].mitigated);
        // Clear ratio: release.
        let actions = m.evaluate(&[(I1, telemetry(5, 100))]);
        assert_eq!(actions, vec![Mca2Action::ReleaseDedicated { stressed: I1 }]);
        assert!(!m.state[&I1].mitigated);
    }

    #[test]
    fn single_noisy_report_is_ignored() {
        let mut m = StressMonitor::new(StressPolicy::default());
        assert!(m.evaluate(&[(I1, telemetry(100, 100))]).is_empty());
        // Back to normal: counter resets.
        assert!(m.evaluate(&[(I1, telemetry(0, 100))]).is_empty());
        assert!(m.evaluate(&[(I1, telemetry(100, 100))]).is_empty());
        assert!(!m.state[&I1].mitigated);
    }

    #[test]
    fn empty_telemetry_never_triggers() {
        let mut m = StressMonitor::new(StressPolicy::default());
        // No samples at all: ratio is 0, no attack.
        assert!(m.evaluate(&[(I1, telemetry(0, 0))]).is_empty());
        assert!(m.evaluate(&[(I1, telemetry(0, 0))]).is_empty());
    }

    #[test]
    fn heavy_flow_selection_filters_by_threshold() {
        let flows = [(1u32, 0.9), (2, 0.1), (3, 0.75), (4, 0.5)];
        assert_eq!(select_heavy_flows(&flows, 0.7), vec![1, 3]);
        assert!(select_heavy_flows(&flows, 1.1).is_empty());
    }
}
