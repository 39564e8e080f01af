//! Instance liveness: the `Healthy → Suspect → Dead` state machine.
//!
//! §4 makes the DPI controller "responsible for ... resiliency": when a
//! DPI service instance fails, its flows must be re-steered to surviving
//! instances. That requires the controller to *know* an instance failed,
//! which it learns the only way a distributed system can — the instance
//! stops saying otherwise. Each deployed instance sends periodic
//! [`crate::proto::ControllerMessage::Heartbeat`] beacons; the
//! [`HealthMonitor`] counts heartbeat *windows* (discrete ticks — the
//! simulation has no wall clock, and real deployments want the window to
//! be a tunable anyway) and walks each instance down
//! `Healthy → Suspect → Dead` as consecutive windows pass silently.
//!
//! `Suspect` exists so one delayed beacon does not trigger a fleet-wide
//! re-steer: steering churn costs switch rule updates and loses mid-flow
//! scan state, so the monitor only declares `Dead` — the state the TSA
//! acts on — after [`HealthPolicy::dead_after`] missed windows. A beacon
//! from any non-`Healthy` instance recovers it immediately.

use crate::controller::InstanceId;
use std::collections::BTreeMap;

/// Liveness of one deployed DPI instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum InstanceHealth {
    /// Heartbeats arriving within the window.
    Healthy,
    /// Missed at least [`HealthPolicy::suspect_after`] consecutive
    /// windows; not yet acted on.
    Suspect,
    /// Missed [`HealthPolicy::dead_after`] consecutive windows; the
    /// controller re-steers its flows to survivors.
    Dead,
}

/// Miss thresholds for the health state machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HealthPolicy {
    /// Consecutive missed windows before `Healthy → Suspect`.
    pub suspect_after: u32,
    /// Consecutive missed windows before `→ Dead` (must be ≥
    /// `suspect_after` to ever pass through `Suspect`).
    pub dead_after: u32,
}

impl Default for HealthPolicy {
    fn default() -> HealthPolicy {
        HealthPolicy {
            suspect_after: 2,
            dead_after: 4,
        }
    }
}

/// A health transition surfaced by [`HealthMonitor::tick`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HealthEvent {
    /// The instance missed enough windows to be suspected.
    BecameSuspect(InstanceId),
    /// The instance is now considered failed; re-steer its flows.
    BecameDead(InstanceId),
    /// A suspect or dead instance heartbeated again.
    Recovered(InstanceId),
}

#[derive(Debug, Clone)]
struct HealthRecord {
    state: InstanceHealth,
    /// Consecutive windows closed without a beat.
    missed: u32,
    /// A beat arrived in the currently-open window.
    beat_this_window: bool,
    /// Highest heartbeat sequence number seen (stale beats are ignored).
    last_seq: u64,
}

/// Tracks heartbeat windows for a fleet of instances.
///
/// Time is discrete: callers feed beats via [`HealthMonitor::heartbeat`]
/// and close windows via [`HealthMonitor::tick`]. An instance that beat
/// at least once inside a window is alive for it; otherwise the window
/// counts as missed.
#[derive(Debug, Default)]
pub struct HealthMonitor {
    policy: HealthPolicy,
    records: BTreeMap<InstanceId, HealthRecord>,
}

impl HealthMonitor {
    /// A monitor with the given thresholds.
    pub fn new(policy: HealthPolicy) -> HealthMonitor {
        HealthMonitor {
            policy,
            records: BTreeMap::new(),
        }
    }

    /// The thresholds in force.
    pub fn policy(&self) -> HealthPolicy {
        self.policy
    }

    /// Starts tracking an instance as `Healthy`. The window open at
    /// registration counts as beaten (a grace window), so a fresh
    /// instance is never suspected before it had a full window to beat.
    pub fn register(&mut self, id: InstanceId) {
        self.records.insert(
            id,
            HealthRecord {
                state: InstanceHealth::Healthy,
                missed: 0,
                beat_this_window: true,
                last_seq: 0,
            },
        );
    }

    /// Records a heartbeat. Returns `false` for unknown instances and for
    /// stale beats (sequence number not beyond the last seen — a delayed
    /// duplicate must not resurrect a dead instance).
    pub fn heartbeat(&mut self, id: InstanceId, seq: u64) -> bool {
        match self.records.get_mut(&id) {
            Some(rec) => {
                if seq != 0 && seq <= rec.last_seq {
                    return false;
                }
                rec.last_seq = rec.last_seq.max(seq);
                rec.beat_this_window = true;
                true
            }
            None => false,
        }
    }

    /// Closes the current heartbeat window for every instance and opens
    /// the next, returning state transitions in instance-id order
    /// (deterministic for a given beat history).
    pub fn tick(&mut self) -> Vec<HealthEvent> {
        let mut events = Vec::new();
        for (&id, rec) in self.records.iter_mut() {
            if rec.beat_this_window {
                rec.missed = 0;
                if rec.state != InstanceHealth::Healthy {
                    rec.state = InstanceHealth::Healthy;
                    events.push(HealthEvent::Recovered(id));
                }
            } else {
                rec.missed += 1;
                if rec.missed >= self.policy.dead_after && rec.state != InstanceHealth::Dead {
                    rec.state = InstanceHealth::Dead;
                    events.push(HealthEvent::BecameDead(id));
                } else if rec.missed >= self.policy.suspect_after
                    && rec.state == InstanceHealth::Healthy
                {
                    rec.state = InstanceHealth::Suspect;
                    events.push(HealthEvent::BecameSuspect(id));
                }
            }
            rec.beat_this_window = false;
        }
        events
    }

    /// Current health of an instance.
    pub fn state(&self, id: InstanceId) -> Option<InstanceHealth> {
        self.records.get(&id).map(|r| r.state)
    }

    /// All tracked instances currently `Healthy`, in id order.
    pub fn healthy(&self) -> Vec<InstanceId> {
        self.records
            .iter()
            .filter(|(_, r)| r.state == InstanceHealth::Healthy)
            .map(|(&id, _)| id)
            .collect()
    }

    /// All tracked instances not `Dead` (steering candidates during a
    /// `Suspect` grace period), in id order.
    pub fn usable(&self) -> Vec<InstanceId> {
        self.records
            .iter()
            .filter(|(_, r)| r.state != InstanceHealth::Dead)
            .map(|(&id, _)| id)
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn monitor() -> HealthMonitor {
        let mut m = HealthMonitor::new(HealthPolicy {
            suspect_after: 2,
            dead_after: 3,
        });
        m.register(InstanceId(0));
        m.register(InstanceId(1));
        // Registration grants one grace window; close it so the tests
        // below count missed windows from zero.
        assert!(m.tick().is_empty());
        m
    }

    #[test]
    fn silent_instance_walks_healthy_suspect_dead() {
        let mut m = monitor();
        let mut seq = 0;
        // Instance 1 beats every window; instance 0 goes silent.
        let beat1 = |m: &mut HealthMonitor, seq: &mut u64| {
            *seq += 1;
            assert!(m.heartbeat(InstanceId(1), *seq));
        };
        beat1(&mut m, &mut seq);
        assert!(m.tick().is_empty()); // miss 1: still healthy
        beat1(&mut m, &mut seq);
        assert_eq!(
            m.tick(),
            vec![HealthEvent::BecameSuspect(InstanceId(0))] // miss 2
        );
        beat1(&mut m, &mut seq);
        assert_eq!(m.tick(), vec![HealthEvent::BecameDead(InstanceId(0))]); // miss 3
        beat1(&mut m, &mut seq);
        assert!(m.tick().is_empty()); // stays dead, no repeat events
        assert_eq!(m.state(InstanceId(0)), Some(InstanceHealth::Dead));
        assert_eq!(m.state(InstanceId(1)), Some(InstanceHealth::Healthy));
        assert_eq!(m.healthy(), vec![InstanceId(1)]);
    }

    #[test]
    fn beat_resets_the_miss_count() {
        let mut m = monitor();
        m.heartbeat(InstanceId(1), 1);
        m.tick(); // instance 0 misses 1
        m.heartbeat(InstanceId(0), 1);
        m.heartbeat(InstanceId(1), 2);
        assert!(m.tick().is_empty()); // miss count back to 0
        m.heartbeat(InstanceId(1), 3);
        assert!(m.tick().is_empty()); // miss 1 again, below threshold
        assert_eq!(m.state(InstanceId(0)), Some(InstanceHealth::Healthy));
    }

    #[test]
    fn recovery_from_suspect_and_dead() {
        let mut m = monitor();
        for _ in 0..2 {
            m.heartbeat(InstanceId(1), 0);
            m.tick();
        }
        assert_eq!(m.state(InstanceId(0)), Some(InstanceHealth::Suspect));
        assert_eq!(m.usable(), vec![InstanceId(0), InstanceId(1)]);
        m.heartbeat(InstanceId(0), 9);
        m.heartbeat(InstanceId(1), 0);
        assert_eq!(m.tick(), vec![HealthEvent::Recovered(InstanceId(0))]);
        // Now let it die and come back.
        for _ in 0..3 {
            m.heartbeat(InstanceId(1), 0);
            m.tick();
        }
        assert_eq!(m.state(InstanceId(0)), Some(InstanceHealth::Dead));
        assert_eq!(m.usable(), vec![InstanceId(1)]);
        m.heartbeat(InstanceId(0), 10);
        m.heartbeat(InstanceId(1), 0);
        assert_eq!(m.tick(), vec![HealthEvent::Recovered(InstanceId(0))]);
    }

    #[test]
    fn stale_heartbeats_are_rejected() {
        let mut m = monitor();
        assert!(m.heartbeat(InstanceId(0), 5));
        m.tick();
        // A delayed duplicate of seq 5 does not count for the new window.
        assert!(!m.heartbeat(InstanceId(0), 5));
        assert!(!m.heartbeat(InstanceId(0), 4));
        assert!(m.heartbeat(InstanceId(0), 6));
        // Unknown instances are rejected too.
        assert!(!m.heartbeat(InstanceId(9), 1));
    }
}
