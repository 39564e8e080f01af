//! The DPI controller proper.

use crate::health::{HealthEvent, HealthMonitor, HealthPolicy, InstanceHealth};
use crate::proto::{profile_of_register, ControllerMessage, ControllerReply};
use crate::registry::GlobalPatternSet;
use dpi_ac::MiddleboxId;
use dpi_core::{ChainSpec, InstanceConfig, MiddleboxProfile, Telemetry};
use parking_lot::Mutex;
use std::collections::HashMap;

/// Identifier of a deployed DPI service instance.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InstanceId(pub u32);

/// Controller-side errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ControllerError {
    /// A message referenced an unregistered middlebox.
    UnknownMiddlebox(u16),
    /// Registration with an id that is already taken.
    AlreadyRegistered(u16),
    /// `inherit_from` referenced an unregistered middlebox.
    UnknownInheritSource(u16),
    /// A chain referenced an unregistered middlebox.
    ChainMemberUnknown(u16),
    /// Chain-id space exhausted (12-bit VLAN-encodable ids).
    ChainIdSpaceExhausted,
    /// An unknown instance id.
    UnknownInstance(InstanceId),
    /// The controller's stored configuration failed to build an instance
    /// (should be unreachable: rules are validated on ingestion).
    InconsistentConfig(String),
}

impl std::fmt::Display for ControllerError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ControllerError::UnknownMiddlebox(id) => write!(f, "unknown middlebox {id}"),
            ControllerError::AlreadyRegistered(id) => {
                write!(f, "middlebox {id} already registered")
            }
            ControllerError::UnknownInheritSource(id) => {
                write!(f, "inherit source {id} not registered")
            }
            ControllerError::ChainMemberUnknown(id) => {
                write!(f, "chain references unregistered middlebox {id}")
            }
            ControllerError::ChainIdSpaceExhausted => write!(f, "no chain ids left"),
            ControllerError::UnknownInstance(i) => write!(f, "unknown instance {}", i.0),
            ControllerError::InconsistentConfig(e) => {
                write!(f, "stored configuration failed to build: {e}")
            }
        }
    }
}

impl std::error::Error for ControllerError {}

/// Telemetry bookkeeping per deployed instance.
#[derive(Debug, Default, Clone)]
struct InstanceRecord {
    chains: Vec<u16>,
    last_report: Telemetry,
    dedicated: bool,
}

/// One deployed instance's controller-side status
/// ([`DpiController::instances`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InstanceStatus {
    /// The instance.
    pub id: InstanceId,
    /// The chains it serves.
    pub chains: Vec<u16>,
    /// Whether it is MCA²-dedicated.
    pub dedicated: bool,
}

/// One pattern-set mutation's transfer-size record — the per-update
/// series behind the paper's Fig. 11 (bytes shipped per pattern-set
/// update, as opposed to the cumulative total).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferRecord {
    /// Signed change in serialized pattern bytes (negative for removals).
    pub delta_bytes: i64,
    /// Cumulative serialized pattern bytes after the mutation.
    pub total_bytes: usize,
}

/// The logically-centralized DPI controller. Thread-safe: the paper's
/// controller serves many middleboxes and instances concurrently, so all
/// state sits behind a mutex (coarse-grained — control-plane rates are
/// low).
#[derive(Debug, Default)]
pub struct DpiController {
    inner: Mutex<Inner>,
}

#[derive(Debug, Default)]
struct Inner {
    /// Every registered middlebox's profile.
    middleboxes: HashMap<MiddleboxId, MiddleboxProfile>,
    patterns: GlobalPatternSet,
    /// chain id → member middleboxes, in traversal order.
    chains: HashMap<u16, Vec<MiddleboxId>>,
    /// Dedup: member list → already-allocated chain id.
    chain_ids: HashMap<Vec<MiddleboxId>, u16>,
    next_chain_id: u16,
    instances: HashMap<InstanceId, InstanceRecord>,
    next_deploy_id: u32,
    /// Heartbeat-driven liveness of deployed instances.
    health: HealthMonitor,
    /// Per-mutation transfer-size log ([`TransferRecord`]).
    transfer_log: Vec<TransferRecord>,
    /// Optional structured-event tracer; health transitions are recorded
    /// as [`dpi_core::trace::TraceSource::Controller`] events.
    tracer: Option<std::sync::Arc<dpi_core::trace::Tracer>>,
}

impl Inner {
    /// Records a pattern-set mutation's transfer delta.
    fn note_pattern_change(&mut self, bytes_before: usize) {
        let total = self.patterns.transfer_bytes();
        self.transfer_log.push(TransferRecord {
            delta_bytes: total as i64 - bytes_before as i64,
            total_bytes: total,
        });
    }
}

impl DpiController {
    /// A fresh controller.
    pub fn new() -> DpiController {
        DpiController::default()
    }

    /// Handles one JSON message from a middlebox and returns the JSON
    /// reply — the paper's §4.1 channel.
    pub fn handle_json(&self, json: &str) -> String {
        let msg = match ControllerMessage::from_json(json) {
            Ok(m) => m,
            Err(e) => {
                return ControllerReply::Error {
                    reason: format!("malformed message: {e}"),
                }
                .to_json()
            }
        };
        self.handle(msg).to_json()
    }

    /// Handles one typed message.
    pub fn handle(&self, msg: ControllerMessage) -> ControllerReply {
        let result = match &msg {
            ControllerMessage::Register {
                middlebox_id,
                name,
                inherit_from,
                ..
            } => {
                let profile =
                    profile_of_register(&msg).expect("a Register message carries a profile");
                self.register(profile.id, name, inherit_from.map(MiddleboxId), profile)
                    .map(|_| ControllerReply::Registered {
                        middlebox_id: *middlebox_id,
                    })
            }
            ControllerMessage::AddPattern {
                middlebox_id,
                rule_id,
                rule,
            } => self
                .add_pattern(MiddleboxId(*middlebox_id), *rule_id, rule)
                .map(|_| ControllerReply::Ok),
            ControllerMessage::RemovePattern {
                middlebox_id,
                rule_id,
            } => self
                .remove_pattern(MiddleboxId(*middlebox_id), *rule_id)
                .map(|_| ControllerReply::Ok),
            ControllerMessage::Deregister { middlebox_id } => self
                .deregister(MiddleboxId(*middlebox_id))
                .map(|_| ControllerReply::Ok),
            ControllerMessage::Heartbeat { instance_id, seq } => self
                .heartbeat(InstanceId(*instance_id), *seq)
                .map(|_| ControllerReply::Ok),
        };
        match result {
            Ok(r) => r,
            Err(e) => ControllerReply::Error {
                reason: e.to_string(),
            },
        }
    }

    /// Registers a middlebox, optionally inheriting another's pattern set.
    /// The name is the middlebox's own label: results address it by id,
    /// so the controller keeps no copy.
    pub fn register(
        &self,
        id: MiddleboxId,
        _name: &str,
        inherit_from: Option<MiddleboxId>,
        profile: MiddleboxProfile,
    ) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        if g.middleboxes.contains_key(&id) {
            return Err(ControllerError::AlreadyRegistered(id.0));
        }
        let inherited = match inherit_from {
            Some(src) => {
                if !g.middleboxes.contains_key(&src) {
                    return Err(ControllerError::UnknownInheritSource(src.0));
                }
                g.patterns.rules_of(src)
            }
            None => Vec::new(),
        };
        g.middleboxes.insert(id, profile);
        let before = g.patterns.transfer_bytes();
        let inherited_any = !inherited.is_empty();
        for (rid, rule) in inherited {
            g.patterns.add(id, rid, &rule);
        }
        if inherited_any {
            g.note_pattern_change(before);
        }
        Ok(())
    }

    /// Adds a rule for a registered middlebox.
    pub fn add_pattern(
        &self,
        id: MiddleboxId,
        rule_id: u16,
        rule: &dpi_core::RuleSpec,
    ) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        if !g.middleboxes.contains_key(&id) {
            return Err(ControllerError::UnknownMiddlebox(id.0));
        }
        let before = g.patterns.transfer_bytes();
        g.patterns.add(id, rule_id, rule);
        g.note_pattern_change(before);
        Ok(())
    }

    /// Removes a rule reference.
    pub fn remove_pattern(&self, id: MiddleboxId, rule_id: u16) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        if !g.middleboxes.contains_key(&id) {
            return Err(ControllerError::UnknownMiddlebox(id.0));
        }
        let before = g.patterns.transfer_bytes();
        g.patterns.remove(id, rule_id);
        g.note_pattern_change(before);
        Ok(())
    }

    /// Deregisters a middlebox entirely (reached through
    /// [`DpiController::handle`]'s `Deregister` message).
    fn deregister(&self, id: MiddleboxId) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        if g.middleboxes.remove(&id).is_none() {
            return Err(ControllerError::UnknownMiddlebox(id.0));
        }
        let before = g.patterns.transfer_bytes();
        g.patterns.remove_middlebox(id);
        g.note_pattern_change(before);
        g.chains.retain(|_, members| !members.contains(&id));
        g.chain_ids.retain(|members, _| !members.contains(&id));
        Ok(())
    }

    /// Receives a policy chain from the TSA and returns its identifier
    /// ("It assigns each policy chain a unique identifier that is used
    /// later by the DPI service instances", §4.1). Identical chains share
    /// one id. Chain ids fit VLAN tags (12 bits).
    pub fn register_chain(&self, members: &[MiddleboxId]) -> Result<u16, ControllerError> {
        let mut g = self.inner.lock();
        for m in members {
            if !g.middleboxes.contains_key(m) {
                return Err(ControllerError::ChainMemberUnknown(m.0));
            }
        }
        if let Some(&id) = g.chain_ids.get(members) {
            return Ok(id);
        }
        if g.next_chain_id > dpi_packet::vlan::MAX_VLAN_ID {
            return Err(ControllerError::ChainIdSpaceExhausted);
        }
        g.next_chain_id += 1;
        let id = g.next_chain_id;
        g.chains.insert(id, members.to_vec());
        g.chain_ids.insert(members.to_vec(), id);
        Ok(id)
    }

    /// Members of a chain.
    pub fn chain_members(&self, chain_id: u16) -> Option<Vec<MiddleboxId>> {
        self.inner.lock().chains.get(&chain_id).cloned()
    }

    /// Builds the [`InstanceConfig`] for an instance that will serve
    /// `chain_ids` — "a common deployment choice is to group together
    /// similar policy chains and to deploy instances that support only one
    /// group" (§4.3). Pass all chains for a serve-everything instance.
    pub fn instance_config(&self, chain_ids: &[u16]) -> Result<InstanceConfig, ControllerError> {
        let g = self.inner.lock();
        let mut cfg = InstanceConfig::new();
        let mut needed: Vec<MiddleboxId> = Vec::new();
        for cid in chain_ids {
            let members = g
                .chains
                .get(cid)
                .ok_or(ControllerError::ChainMemberUnknown(*cid))?;
            cfg.chains.push(ChainSpec {
                chain_id: *cid,
                members: members.clone(),
            });
            for m in members {
                if !needed.contains(m) {
                    needed.push(*m);
                }
            }
        }
        for m in needed {
            let profile = g
                .middleboxes
                .get(&m)
                .ok_or(ControllerError::UnknownMiddlebox(m.0))?;
            cfg.profiles.push(*profile);
            let rules: Vec<dpi_core::config::NumberedRule> = g
                .patterns
                .rules_of(m)
                .into_iter()
                .map(|(id, spec)| dpi_core::config::NumberedRule { id, spec })
                .collect();
            cfg.pattern_sets.push((m, rules));
        }
        Ok(cfg)
    }

    /// Registers a deployed instance serving `chain_ids`. The instance
    /// starts health-tracked as `Healthy`.
    pub fn deploy_instance(&self, chain_ids: Vec<u16>) -> InstanceId {
        let mut g = self.inner.lock();
        let id = InstanceId(g.next_deploy_id);
        g.next_deploy_id += 1;
        g.instances.insert(
            id,
            InstanceRecord {
                chains: chain_ids,
                ..InstanceRecord::default()
            },
        );
        g.health.register(id);
        id
    }

    /// Replaces the health thresholds (existing instance states and miss
    /// counts are kept only if re-registered; call before deploying).
    pub fn set_health_policy(&self, policy: HealthPolicy) {
        let mut g = self.inner.lock();
        let tracked: Vec<InstanceId> = g.instances.keys().copied().collect();
        g.health = HealthMonitor::new(policy);
        for id in tracked {
            g.health.register(id);
        }
    }

    /// Records a liveness beacon from a deployed instance. Stale beats
    /// (non-zero `seq` not beyond the last seen) are accepted but ignored
    /// by the monitor.
    pub fn heartbeat(&self, id: InstanceId, seq: u64) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        if !g.instances.contains_key(&id) {
            return Err(ControllerError::UnknownInstance(id));
        }
        g.health.heartbeat(id, seq);
        Ok(())
    }

    /// Attaches a structured-event tracer: every health transition the
    /// monitor reports becomes a trace event, giving post-mortems the
    /// controller's view of the failure timeline.
    pub fn attach_tracer(&self, tracer: std::sync::Arc<dpi_core::trace::Tracer>) {
        self.inner.lock().tracer = Some(tracer);
    }

    /// Closes the current heartbeat window for every deployed instance
    /// and returns the resulting health transitions in instance-id order.
    /// The caller (the failover driver) reacts to
    /// [`HealthEvent::BecameDead`] by re-steering flows.
    pub fn health_tick(&self) -> Vec<HealthEvent> {
        let mut g = self.inner.lock();
        let events = g.health.tick();
        if let Some(t) = &g.tracer {
            use dpi_core::trace::{TraceKind, TraceSource};
            for ev in &events {
                let kind = match ev {
                    HealthEvent::BecameSuspect(id) => TraceKind::HealthSuspect { instance: id.0 },
                    HealthEvent::BecameDead(id) => TraceKind::HealthDead { instance: id.0 },
                    HealthEvent::Recovered(id) => TraceKind::HealthRecovered { instance: id.0 },
                };
                t.record(TraceSource::Controller, kind);
            }
        }
        events
    }

    /// Current health of a deployed instance.
    pub fn instance_health(&self, id: InstanceId) -> Option<InstanceHealth> {
        self.inner.lock().health.state(id)
    }

    /// Deployed instances currently `Healthy`, in id order — the steering
    /// candidates.
    pub fn healthy_instances(&self) -> Vec<InstanceId> {
        self.inner.lock().health.healthy()
    }

    /// Records a telemetry report from an instance and returns the delta
    /// since its previous report (what the stress monitor consumes).
    pub fn report_telemetry(
        &self,
        id: InstanceId,
        t: Telemetry,
    ) -> Result<Telemetry, ControllerError> {
        let mut g = self.inner.lock();
        let rec = g
            .instances
            .get_mut(&id)
            .ok_or(ControllerError::UnknownInstance(id))?;
        let delta = t.delta_since(&rec.last_report);
        rec.last_report = t;
        Ok(delta)
    }

    /// Marks or unmarks an instance as MCA²-dedicated.
    pub fn set_dedicated(&self, id: InstanceId, dedicated: bool) -> Result<(), ControllerError> {
        let mut g = self.inner.lock();
        g.instances
            .get_mut(&id)
            .map(|r| r.dedicated = dedicated)
            .ok_or(ControllerError::UnknownInstance(id))
    }

    /// Deployed instances with their chains and dedicated flag, in id
    /// order.
    pub fn instances(&self) -> Vec<InstanceStatus> {
        let g = self.inner.lock();
        let mut v: Vec<InstanceStatus> = g
            .instances
            .iter()
            .map(|(id, r)| InstanceStatus {
                id: *id,
                chains: r.chains.clone(),
                dedicated: r.dedicated,
            })
            .collect();
        v.sort_by_key(|s| s.id);
        v
    }

    /// Total serialized pattern bytes (§4.1's transfer-size argument).
    pub fn pattern_transfer_bytes(&self) -> usize {
        self.inner.lock().patterns.transfer_bytes()
    }

    /// Per-mutation transfer-size history — the paper's Fig. 11 series
    /// (bytes shipped per pattern-set update).
    pub fn pattern_transfer_deltas(&self) -> Vec<TransferRecord> {
        self.inner.lock().transfer_log.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_core::RuleSpec;

    fn register(c: &DpiController, id: u16, name: &str) {
        c.register(
            MiddleboxId(id),
            name,
            None,
            MiddleboxProfile::stateless(MiddleboxId(id)),
        )
        .unwrap();
    }

    #[test]
    fn register_add_and_build_config() {
        let c = DpiController::new();
        register(&c, 1, "ids");
        register(&c, 2, "av");
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"sig-a".to_vec()))
            .unwrap();
        c.add_pattern(MiddleboxId(2), 0, &RuleSpec::exact(b"sig-b".to_vec()))
            .unwrap();
        let chain = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
        let cfg = c.instance_config(&[chain]).unwrap();
        assert_eq!(cfg.pattern_sets.len(), 2);
        assert_eq!(cfg.chains.len(), 1);
        // And it actually builds a working instance.
        let mut dpi = dpi_core::DpiInstance::new(cfg).unwrap();
        let out = dpi.scan_payload(chain, None, b"xxsig-bxx").unwrap();
        assert_eq!(out.reports.len(), 1);
        assert_eq!(out.reports[0].middlebox_id, 2);
    }

    #[test]
    fn duplicate_registration_fails() {
        let c = DpiController::new();
        register(&c, 1, "ids");
        assert_eq!(
            c.register(
                MiddleboxId(1),
                "ids2",
                None,
                MiddleboxProfile::stateless(MiddleboxId(1))
            )
            .unwrap_err(),
            ControllerError::AlreadyRegistered(1)
        );
    }

    #[test]
    fn inheritance_copies_rules() {
        let c = DpiController::new();
        register(&c, 1, "ids");
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"inherited".to_vec()))
            .unwrap();
        c.register(
            MiddleboxId(5),
            "ids-clone",
            Some(MiddleboxId(1)),
            MiddleboxProfile::stateless(MiddleboxId(5)),
        )
        .unwrap();
        let chain = c.register_chain(&[MiddleboxId(5)]).unwrap();
        let cfg = c.instance_config(&[chain]).unwrap();
        let mut dpi = dpi_core::DpiInstance::new(cfg).unwrap();
        let out = dpi.scan_payload(chain, None, b"the inherited sig").unwrap();
        assert_eq!(out.reports[0].middlebox_id, 5);
    }

    #[test]
    fn identical_chains_share_an_id() {
        let c = DpiController::new();
        register(&c, 1, "a");
        register(&c, 2, "b");
        let x = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
        let y = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
        let z = c.register_chain(&[MiddleboxId(2), MiddleboxId(1)]).unwrap();
        assert_eq!(x, y);
        assert_ne!(x, z); // order matters: it is a routing sequence
    }

    #[test]
    fn chain_with_unknown_member_fails() {
        let c = DpiController::new();
        assert_eq!(
            c.register_chain(&[MiddleboxId(9)]).unwrap_err(),
            ControllerError::ChainMemberUnknown(9)
        );
    }

    #[test]
    fn json_protocol_end_to_end() {
        let c = DpiController::new();
        let reply = c.handle_json(
            &ControllerMessage::Register {
                middlebox_id: 3,
                name: "l7fw".into(),
                inherit_from: None,
                stateful: false,
                read_only: false,
                stopping_condition: None,
            }
            .to_json(),
        );
        assert_eq!(
            ControllerReply::from_json(&reply).unwrap(),
            ControllerReply::Registered { middlebox_id: 3 }
        );
        let reply = c.handle_json(
            &ControllerMessage::AddPattern {
                middlebox_id: 3,
                rule_id: 0,
                rule: RuleSpec::exact(b"blocked".to_vec()),
            }
            .to_json(),
        );
        assert!(ControllerReply::from_json(&reply).unwrap().is_ok());
        // Unknown middlebox errors flow back as JSON errors.
        let reply = c.handle_json(
            &ControllerMessage::AddPattern {
                middlebox_id: 99,
                rule_id: 0,
                rule: RuleSpec::exact(b"x".to_vec()),
            }
            .to_json(),
        );
        assert!(!ControllerReply::from_json(&reply).unwrap().is_ok());
        // Garbage JSON is an error, not a panic.
        assert!(!ControllerReply::from_json(&c.handle_json("not json"))
            .unwrap()
            .is_ok());
    }

    #[test]
    fn pattern_removal_updates_configs() {
        let c = DpiController::new();
        register(&c, 1, "ids");
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"gone-soon".to_vec()))
            .unwrap();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        c.remove_pattern(MiddleboxId(1), 0).unwrap();
        let cfg = c.instance_config(&[chain]).unwrap();
        let mut dpi = dpi_core::DpiInstance::new(cfg).unwrap();
        let out = dpi.scan_payload(chain, None, b"gone-soon").unwrap();
        assert!(out.reports.is_empty());
    }

    #[test]
    fn telemetry_reports_return_deltas() {
        let c = DpiController::new();
        let inst = c.deploy_instance(vec![]);
        let t1 = Telemetry {
            packets: 10,
            bytes: 1000,
            ..Telemetry::default()
        };
        let d1 = c.report_telemetry(inst, t1).unwrap();
        assert_eq!(d1.packets, 10);
        let t2 = Telemetry {
            packets: 25,
            bytes: 2500,
            ..Telemetry::default()
        };
        let d2 = c.report_telemetry(inst, t2).unwrap();
        assert_eq!(d2.packets, 15);
        assert_eq!(d2.bytes, 1500);
    }

    #[test]
    fn heartbeats_drive_instance_health() {
        let c = DpiController::new();
        c.set_health_policy(HealthPolicy {
            suspect_after: 1,
            dead_after: 2,
        });
        let a = c.deploy_instance(vec![]);
        let b = c.deploy_instance(vec![]);
        assert_eq!(c.healthy_instances(), vec![a, b]);
        // Deployment grants one grace window; close it.
        assert!(c.health_tick().is_empty());
        // b goes silent: suspect after 1 missed window, dead after 2.
        c.heartbeat(a, 1).unwrap();
        assert_eq!(c.health_tick(), vec![HealthEvent::BecameSuspect(b)]);
        c.heartbeat(a, 2).unwrap();
        assert_eq!(c.health_tick(), vec![HealthEvent::BecameDead(b)]);
        assert_eq!(c.instance_health(b), Some(InstanceHealth::Dead));
        assert_eq!(c.healthy_instances(), vec![a]);
        // Heartbeats to unknown instances are errors.
        assert!(c.heartbeat(InstanceId(99), 1).is_err());
        // The JSON channel carries heartbeats too.
        let reply = c.handle_json(
            &ControllerMessage::Heartbeat {
                instance_id: b.0,
                seq: 3,
            }
            .to_json(),
        );
        assert!(ControllerReply::from_json(&reply).unwrap().is_ok());
        c.heartbeat(a, 3).unwrap();
        assert_eq!(c.health_tick(), vec![HealthEvent::Recovered(b)]);
    }

    #[test]
    fn transfer_deltas_record_per_update_bytes() {
        let c = DpiController::new();
        register(&c, 1, "ids");
        assert!(c.pattern_transfer_deltas().is_empty());
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"12345678".to_vec()))
            .unwrap();
        c.add_pattern(MiddleboxId(1), 1, &RuleSpec::exact(b"abcd".to_vec()))
            .unwrap();
        c.remove_pattern(MiddleboxId(1), 0).unwrap();
        let log = c.pattern_transfer_deltas();
        assert_eq!(log.len(), 3);
        // Adds are positive, the removal negative, and each total is the
        // previous total plus its delta, in mutation order.
        assert!(log[0].delta_bytes > 0);
        assert!(log[1].delta_bytes > 0);
        assert!(log[2].delta_bytes < 0);
        assert_eq!(log[2].delta_bytes, -log[0].delta_bytes);
        assert_eq!(log[2].total_bytes, c.pattern_transfer_bytes());
        for w in log.windows(2) {
            assert_eq!(
                w[1].total_bytes as i64,
                w[0].total_bytes as i64 + w[1].delta_bytes
            );
        }
        // Inheritance is logged, but the global store dedups by content,
        // so inheriting an already-stored pattern ships zero new bytes —
        // §4.1's shared-pattern argument.
        c.register(
            MiddleboxId(9),
            "clone",
            Some(MiddleboxId(1)),
            MiddleboxProfile::stateless(MiddleboxId(9)),
        )
        .unwrap();
        let log = c.pattern_transfer_deltas();
        assert_eq!(log.len(), 4);
        assert_eq!(log[3].delta_bytes, 0);
    }

    #[test]
    fn deregistration_cleans_chains_and_patterns() {
        let c = DpiController::new();
        register(&c, 1, "a");
        register(&c, 2, "b");
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"only-a".to_vec()))
            .unwrap();
        let chain = c.register_chain(&[MiddleboxId(1), MiddleboxId(2)]).unwrap();
        c.deregister(MiddleboxId(1)).unwrap();
        assert!(c.chain_members(chain).is_none());
        assert_eq!(c.pattern_transfer_bytes(), 0);
    }

    /// One control-plane mutation of the oracle test below.
    #[derive(Debug, Clone)]
    enum Op {
        Register(u16, Option<u16>),
        Add(u16, u16, RuleSpec),
        Remove(u16, u16),
        Deregister(u16),
    }

    fn op() -> impl proptest::strategy::Strategy<Value = Op> {
        use proptest::prelude::*;
        let mb = 1u16..=4;
        let rule = prop::sample::select(vec![
            RuleSpec::exact(b"a".to_vec()),
            RuleSpec::exact(b"shared".to_vec()),
            RuleSpec::exact(b"longer-signature".to_vec()),
            RuleSpec::regex("a"),
            RuleSpec::regex("evil\\d+"),
        ]);
        prop_oneof![
            (mb.clone(), prop::option::of(1u16..=4)).prop_map(|(m, src)| Op::Register(m, src)),
            (mb.clone(), 0u16..6, rule).prop_map(|(m, r, spec)| Op::Add(m, r, spec)),
            (mb.clone(), 0u16..6).prop_map(|(m, r)| Op::Remove(m, r)),
            mb.prop_map(Op::Deregister),
        ]
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(256))]

        /// The running byte total, the per-middlebox index and the Fig. 11
        /// log against a scan over every stored entry, after every step:
        /// each record is the scanned total after the mutation and its
        /// difference to the scanned total before.
        #[test]
        fn pattern_store_matches_a_scan_over_its_entries(
            ops in proptest::prelude::prop::collection::vec(op(), 1..60)
        ) {
            let c = DpiController::new();
            let mut expected: Vec<TransferRecord> = Vec::new();
            for op in ops {
                let before = c.inner.lock().patterns.transfer_bytes_by_scan();
                let logs = match &op {
                    Op::Register(m, src) => {
                        let inherits = src.is_some_and(|s| {
                            !c.inner.lock().patterns.rules_of_by_scan(MiddleboxId(s)).is_empty()
                        });
                        let ok = c
                            .register(
                                MiddleboxId(*m),
                                "mb",
                                src.map(MiddleboxId),
                                MiddleboxProfile::stateless(MiddleboxId(*m)),
                            )
                            .is_ok();
                        ok && inherits
                    }
                    Op::Add(m, r, spec) => c.add_pattern(MiddleboxId(*m), *r, spec).is_ok(),
                    Op::Remove(m, r) => c.remove_pattern(MiddleboxId(*m), *r).is_ok(),
                    Op::Deregister(m) => c.deregister(MiddleboxId(*m)).is_ok(),
                };
                let g = c.inner.lock();
                let total = g.patterns.transfer_bytes_by_scan();
                proptest::prop_assert_eq!(g.patterns.transfer_bytes(), total, "after {:?}", op);
                for m in 1..=4 {
                    proptest::prop_assert_eq!(
                        g.patterns.rules_of(MiddleboxId(m)),
                        g.patterns.rules_of_by_scan(MiddleboxId(m)),
                        "rules of {} after {:?}",
                        m,
                        op
                    );
                }
                if logs {
                    expected.push(TransferRecord {
                        delta_bytes: total as i64 - before as i64,
                        total_bytes: total,
                    });
                }
                proptest::prop_assert_eq!(&g.transfer_log, &expected, "after {:?}", op);
            }
        }
    }
}
