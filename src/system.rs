//! End-to-end system assembly: the paper's Figure 5 in one builder.
//!
//! [`SystemBuilder`] wires together a DPI controller, a simulated
//! single-switch star network (the §6.1 experimental topology), a fleet
//! of one or more DPI service instance nodes and any number of
//! service-consuming middlebox nodes, installs the Traffic Steering
//! Application's chain rules, and returns a [`SystemHandle`] to drive
//! traffic through and observe every component.
//!
//! # Fault tolerance
//!
//! With [`SystemBuilder::with_dpi_instances`] > 1 the builder deploys a
//! fleet: every instance shares the one compiled automaton, the switch
//! splits flows between instances by hash (one ingress rule per
//! instance), and the controller tracks liveness through the heartbeat
//! protocol ([`SystemHandle::heartbeat_round`]). When an instance is
//! declared `Dead`, its bucket is re-steered to a survivor. Mid-flow
//! automaton state on the dead instance is lost — the survivor restarts each
//! re-steered flow's scan from a fresh DFA state, which can *miss* a
//! pattern straddling the failover point but can never *fabricate* a
//! match (the paper's accepted failover semantics; see DESIGN.md §8).
//!
//! [`SystemBuilder::with_chaos`] attaches a deterministic
//! [`FaultPlan`]: instance kills, shard stalls/panics and result-packet
//! loss all replay identically from one seed, and each lands in the
//! trace ring ([`SystemHandle::trace_events`]) beside the system's
//! reaction to it.

use dpi_ac::{Automaton, MiddleboxId};
use dpi_controller::{
    BalancePolicy, DpiController, HealthEvent, HealthPolicy, InstanceId, LoadBalancer,
    UpdateOrchestrator, UpdateTarget,
};
use dpi_core::chaos::{ChaosEngine, FaultPlan};
use dpi_core::instance::ScanEngine;
use dpi_core::metrics::{MetricKind, MetricsText};
use dpi_core::overload::OverloadPolicy;
use dpi_core::telemetry::{merge_tenant_counters, ShardTelemetry, TenantCounters};
use dpi_core::trace::{to_jsonl, TraceEvent, TraceKind, TraceSource, Tracer};
use dpi_core::{ConflictPolicy, DpiInstance, GenerationId, TenantId, UpdateArtifact, UpdateError};
use dpi_middlebox::boxes::MiddleboxTemplate;
use dpi_middlebox::{DpiServiceNode, FleetDpiStats, MiddleboxNode, ServiceMiddlebox};
use dpi_packet::report::ResultPacket;
use dpi_packet::{FlowKey, MacAddr, Packet};
use dpi_sdn::flowtable::Port;
use dpi_sdn::{Network, NodeId, Switch, TrafficSteeringApp};
use parking_lot::Mutex;
use std::cell::RefCell;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Duration;

// `parking_lot` is pulled transitively; re-exported types below keep the
// facade's public API self-contained.
use dpi_middlebox::MiddleboxStats;

/// Errors during system assembly.
#[derive(Debug)]
pub enum SystemError {
    /// Relayed controller error.
    Controller(dpi_controller::ControllerError),
    /// Relayed DPI instance build error.
    Instance(dpi_core::InstanceError),
    /// A chain referenced a middlebox that was never added.
    UnknownMiddlebox(u16),
}

impl std::fmt::Display for SystemError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SystemError::Controller(e) => write!(f, "controller: {e}"),
            SystemError::Instance(e) => write!(f, "instance: {e}"),
            SystemError::UnknownMiddlebox(id) => write!(f, "unknown middlebox {id}"),
        }
    }
}

impl std::error::Error for SystemError {}

impl From<dpi_controller::ControllerError> for SystemError {
    fn from(e: dpi_controller::ControllerError) -> SystemError {
        SystemError::Controller(e)
    }
}

impl From<dpi_core::InstanceError> for SystemError {
    fn from(e: dpi_core::InstanceError) -> SystemError {
        SystemError::Instance(e)
    }
}

/// Builds a complete simulated deployment.
///
/// ```
/// use dpi_service::ac::MiddleboxId;
/// use dpi_service::middlebox::ids;
/// use dpi_service::packet::ipv4::IpProtocol;
/// use dpi_service::packet::packet::flow;
/// use dpi_service::SystemBuilder;
///
/// let mut sys = SystemBuilder::new()
///     .with_middlebox(ids(MiddleboxId(1), &[b"evil-sig".to_vec()]))
///     .with_chain(&[MiddleboxId(1)])
///     .build()
///     .unwrap();
/// let f = flow([10, 0, 0, 1], 1000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
/// sys.send(f, 0, b"carrying evil-sig right here");
/// assert_eq!(sys.stats_of(MiddleboxId(1)).unwrap().matches, 1);
/// assert_eq!(sys.sink.count(), 1); // IDS is read-only: packet delivered
/// ```
pub struct SystemBuilder {
    templates: Vec<MiddleboxTemplate>,
    chains: Vec<Vec<MiddleboxId>>,
    dpi_workers: usize,
    dpi_instances: usize,
    chaos: Option<FaultPlan>,
    health_policy: HealthPolicy,
    overload: Option<OverloadPolicy>,
    balance: Option<BalancePolicy>,
    conflict_policy: ConflictPolicy,
    l7: Option<dpi_core::L7Policy>,
}

impl Default for SystemBuilder {
    fn default() -> SystemBuilder {
        SystemBuilder::new()
    }
}

impl SystemBuilder {
    /// An empty system. Match results travel in dedicated result packets
    /// (§4.2 option 3, the prototype's delivery method).
    pub fn new() -> SystemBuilder {
        SystemBuilder {
            templates: Vec::new(),
            chains: Vec::new(),
            dpi_workers: 1,
            dpi_instances: 1,
            chaos: None,
            health_policy: HealthPolicy::default(),
            overload: None,
            balance: None,
            conflict_policy: ConflictPolicy::FirstWins,
            l7: None,
        }
    }

    /// Selects how every reassembler in the system resolves byte-level
    /// conflicts between overlapping TCP segment copies (default
    /// [`ConflictPolicy::FirstWins`], the historical Snort-style rule).
    /// The policy is stamped into the instance configuration, so engines
    /// rebuilt by live rule updates keep it.
    ///
    /// The packet path ([`SystemHandle::send`]) reassembles TCP only
    /// under an L7 policy ([`SystemBuilder::with_l7_policy`]); without
    /// one it scans each packet's payload as it arrives, and no conflict
    /// ever reaches this policy.
    pub fn with_conflict_policy(mut self, policy: ConflictPolicy) -> SystemBuilder {
        self.conflict_policy = policy;
        self
    }

    /// Enables L7 protocol inspection (identify → decode → scan,
    /// DESIGN.md §14) on every engine's TCP path with the given
    /// per-protocol policy. Off by default: without it the packet path
    /// ([`SystemHandle::send`], [`SystemHandle::inspect_batch`]) does no
    /// reassembly at all and scans each payload raw, in arrival order.
    /// Like the conflict policy, it is stamped into the instance
    /// configuration, so engines rebuilt by live rule updates keep it.
    /// A protocol set to [`dpi_core::L7Action::Block`] closes its flows
    /// with the one fail-closed verdict a `RejectFlow` conflict also
    /// sets: the flow is quarantined, and every later packet of it is
    /// marked and never scanned.
    pub fn with_l7_policy(mut self, policy: dpi_core::L7Policy) -> SystemBuilder {
        self.l7 = Some(policy);
        self
    }

    /// Sets the worker count of the batched scan pipeline exposed as
    /// [`SystemHandle::scanner`] (default 1). The pipeline shares the
    /// compiled automaton with the in-network DPI node, so raising the
    /// worker count costs per-shard flow tables, not another engine.
    pub fn with_dpi_workers(mut self, workers: usize) -> SystemBuilder {
        self.dpi_workers = workers.max(1);
        self
    }

    /// Sets the number of in-network DPI service instances (default 1).
    /// All instances share the one compiled automaton; the switch splits
    /// flows between them by hash.
    pub fn with_dpi_instances(mut self, instances: usize) -> SystemBuilder {
        self.dpi_instances = instances.max(1);
        self
    }

    /// Attaches a deterministic fault plan. Instance kills apply to the
    /// in-network fleet, shard faults to the batch pipeline, result drop
    /// and duplication to every instance's result delivery.
    pub fn with_chaos(mut self, plan: FaultPlan) -> SystemBuilder {
        self.chaos = Some(plan);
        self
    }

    /// Sets the controller's heartbeat miss thresholds.
    pub fn with_health_policy(mut self, policy: HealthPolicy) -> SystemBuilder {
        self.health_policy = policy;
        self
    }

    /// Arms adaptive overload control (DESIGN.md §11) on the batch
    /// pipeline and on every in-network fleet instance: one policy, one
    /// detector per shard. The pipeline's shards are observed per packet
    /// — `queue_high` / `queue_low` are queue depths behind a packet;
    /// the fleet instances, whose `send` traffic has no queue, once per
    /// heartbeat window — the same two values are then arrivals per
    /// window. While overloaded, forwarded packets are CE-marked and
    /// fail-open chains may be shed (a tenant under its fair share
    /// never); fail-closed chains are always scanned.
    pub fn with_overload_policy(mut self, policy: OverloadPolicy) -> SystemBuilder {
        self.overload = Some(policy);
        self
    }

    /// Arms telemetry-driven fleet rebalancing: each
    /// [`SystemHandle::heartbeat_round`] feeds per-instance load deltas
    /// to a [`LoadBalancer`], and bounded whole-flow migrations move
    /// flows from the hottest instance to the coldest.
    pub fn with_balance_policy(mut self, policy: BalancePolicy) -> SystemBuilder {
        self.balance = Some(policy);
        self
    }

    /// Adds a middlebox (see [`dpi_middlebox::boxes`] for templates).
    pub fn with_middlebox(mut self, template: MiddleboxTemplate) -> SystemBuilder {
        self.templates.push(template);
        self
    }

    /// Adds a policy chain over previously-added middleboxes.
    pub fn with_chain(mut self, members: &[MiddleboxId]) -> SystemBuilder {
        self.chains.push(members.to_vec());
        self
    }

    /// Assembles the network. Port map on the single switch: 0 = traffic
    /// source, 1 = destination host, 2..2+N-1 = one port per DPI service
    /// instance, then one port per middlebox in insertion order.
    pub fn build(self) -> Result<SystemHandle, SystemError> {
        let controller = DpiController::new();
        controller.set_health_policy(self.health_policy);

        // Register every middlebox and its rules with the controller.
        for t in &self.templates {
            controller.register(t.profile.id, &t.name, None, t.profile)?;
            for rule in &t.rules {
                controller.add_pattern(t.profile.id, rule.id, &rule.spec)?;
            }
        }

        // Register chains; remember their ids.
        let mut chain_ids = Vec::new();
        for members in &self.chains {
            chain_ids.push(controller.register_chain(members)?);
        }

        // One engine serving every chain (deployment grouping is
        // exercised separately in dpi-controller), compiled once and
        // shared between every in-network instance and the batch
        // pipeline.
        let mut cfg = controller
            .instance_config(&chain_ids)?
            .with_conflict_policy(self.conflict_policy);
        cfg.l7 = self.l7;
        let mut orchestrator = UpdateOrchestrator::new(&cfg);
        let engine = Arc::new(ScanEngine::new(cfg)?);
        let mut scanner = DpiInstance::with_workers(engine.clone(), self.dpi_workers);
        scanner.set_overload_policy(self.overload);

        // One tracer for the whole deployment: every layer appends to the
        // same ring so a post-mortem reads one merged, seq-ordered
        // timeline (DESIGN.md §10).
        let tracer = Arc::new(Tracer::new());
        controller.attach_tracer(Arc::clone(&tracer));
        orchestrator.attach_tracer(Arc::clone(&tracer));
        scanner.attach_tracer(Arc::clone(&tracer), None);

        let chaos = self.chaos.map(FaultPlan::start);
        if let Some(c) = &chaos {
            c.attach_tracer(Arc::clone(&tracer));
            scanner.inject_shard_faults(&c.plan().shard_faults);
        }

        // Build the star network.
        let mut net = Network::new(1_000_000);
        let switch = Switch::new("s1");
        let tsa = TrafficSteeringApp::new(&switch);
        let sw = net.add_node(Box::new(switch));

        let sink = dpi_sdn::network::SinkHost::new();
        let sink_id = net.add_node(Box::new(sink.clone()));
        net.link(sw, 1, sink_id, 0);

        // The DPI fleet: ports 2..2+N-1.
        let mut dpi_handles = Vec::new();
        let mut fleet_stats = Vec::new();
        let mut dpi_ports = Vec::new();
        let mut instance_ids = Vec::new();
        for i in 0..self.dpi_instances {
            let port = 2 + i as Port;
            let mut instance = DpiInstance::from_engine(engine.clone());
            instance.set_overload_policy(self.overload);
            let (mut node, handle) =
                DpiServiceNode::new(instance, MacAddr::local(100 + i as u32), i);
            if let Some(c) = &chaos {
                node.attach_chaos(Arc::clone(c));
            }
            node.attach_tracer(Arc::clone(&tracer));
            fleet_stats.push(node.stats());
            let id = net.add_node(Box::new(node));
            net.link(sw, port, id, 0);
            dpi_handles.push(handle);
            dpi_ports.push(port);
            instance_ids.push(controller.deploy_instance(chain_ids.clone()));
        }

        let mut mb_handles = HashMap::new();
        let mut mb_port = HashMap::new();
        for (i, t) in self.templates.iter().enumerate() {
            let port = 2 + self.dpi_instances as Port + i as Port;
            let mb = ServiceMiddlebox::new(t.profile.id, &t.name, t.logic.clone());
            let (node, handle) = MiddleboxNode::new(mb, false);
            let id = net.add_node(Box::new(node));
            net.link(sw, port, id, 0);
            mb_handles.insert(t.profile.id, handle);
            mb_port.insert(t.profile.id, port);
        }

        // TSA rules: ingress 0 → fleet → members' ports → egress 1.
        for (members, chain_id) in self.chains.iter().zip(&chain_ids) {
            let mut via = Vec::new();
            for m in members {
                via.push(*mb_port.get(m).ok_or(SystemError::UnknownMiddlebox(m.0))?);
            }
            tsa.install_chain_fleet(*chain_id, 0, &dpi_ports, &via, 1);
        }

        Ok(SystemHandle {
            controller,
            net,
            switch_id: sw,
            sink,
            dpi: dpi_handles[0].clone(),
            dpi_instances: dpi_handles,
            fleet_stats,
            dpi_ports,
            instance_ids,
            chaos,
            heartbeat_seq: vec![0; self.dpi_instances],
            scanner,
            middleboxes: mb_handles,
            chain_ids,
            tsa,
            orchestrator,
            tracer,
            balancer: self.balance.map(LoadBalancer::new),
            conflict_policy: self.conflict_policy,
            l7: self.l7,
        })
    }
}

/// What one [`SystemHandle::apply_update`] did.
#[derive(Debug, Clone)]
pub struct UpdateOutcome {
    /// The generation that was rolled out (or attempted).
    pub generation: GenerationId,
    /// Whether the whole fleet committed to it.
    pub committed: bool,
    /// Bytes shipped per instance for this update (Fig. 11's unit).
    pub transfer_bytes: u64,
    /// Longest observed swap pause across the fleet and the batch
    /// pipeline — the drain-barrier cost; compilation happens off the
    /// packet path and is excluded by construction.
    pub swap_pause: Duration,
    /// Why the update rolled back, if it did.
    pub failure: Option<String>,
}

/// The engines one roll-out has compiled, by `(generation, checksum)`.
type BuiltEngines = RefCell<Vec<((GenerationId, u64), Arc<ScanEngine>)>>;

/// The engine `artifact` compiles to. Every call validates (checksum +
/// parse), so a corrupted artifact is refused before anything is built
/// or reused; each artifact is compiled once and its table shared.
fn engine_for(
    built: &BuiltEngines,
    artifact: &UpdateArtifact,
) -> Result<Arc<ScanEngine>, UpdateError> {
    let config = artifact.validate()?;
    let key = (artifact.generation, artifact.checksum);
    let mut built = built.borrow_mut();
    if let Some((_, engine)) = built.iter().find(|(k, _)| *k == key) {
        return Ok(Arc::clone(engine));
    }
    let engine = ScanEngine::with_generation(config, artifact.generation)
        .map(Arc::new)
        .map_err(|e| UpdateError::Build(e.to_string()))?;
    built.push((key, Arc::clone(&engine)));
    Ok(engine)
}

/// Adapter: one in-network fleet instance as a staged-rollout target.
struct FleetTarget<'a> {
    id: InstanceId,
    instance: Arc<Mutex<DpiInstance>>,
    built: &'a BuiltEngines,
    pause: Duration,
}

impl UpdateTarget for FleetTarget<'_> {
    fn instance_id(&self) -> InstanceId {
        self.id
    }

    fn begin_update(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError> {
        // Validation and compilation happen here, outside the instance
        // lock — the packet path never waits on them.
        let engine = engine_for(self.built, artifact)?;
        let pause = self.instance.lock().swap_engine(engine)?;
        self.pause = self.pause.max(pause);
        Ok(artifact.generation)
    }

    fn rollback(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError> {
        let engine = engine_for(self.built, artifact)?;
        let pause = self.instance.lock().rollback_engine(engine);
        self.pause = self.pause.max(pause);
        Ok(artifact.generation)
    }
}

/// A running simulated deployment.
pub struct SystemHandle {
    /// The DPI controller.
    pub controller: DpiController,
    /// The simulated network.
    pub net: Network,
    /// The switch's node id.
    pub switch_id: NodeId,
    /// The destination host (inspect received traffic here).
    pub sink: dpi_sdn::network::SinkHost,
    /// The first DPI service instance (kept for single-instance callers).
    pub dpi: Arc<Mutex<DpiInstance>>,
    /// Every DPI service instance, fleet order.
    pub dpi_instances: Vec<Arc<Mutex<DpiInstance>>>,
    /// Per-instance fault-handling counters (swallowed packets, result
    /// retries/losses/duplicates).
    pub fleet_stats: Vec<Arc<Mutex<FleetDpiStats>>>,
    /// Switch port of each instance, fleet order.
    pub dpi_ports: Vec<Port>,
    /// Controller id of each instance, fleet order.
    pub instance_ids: Vec<InstanceId>,
    /// The chaos engine, when a fault plan was attached.
    chaos: Option<Arc<ChaosEngine>>,
    heartbeat_seq: Vec<u64>,
    /// The batched scan pipeline: an instance outside the network that
    /// shares the in-network instances' compiled automaton and fans
    /// packets out across [`SystemBuilder::with_dpi_workers`] flow-affine
    /// shards. Drive it with [`SystemHandle::inspect_batch`] for bulk
    /// inspection.
    pub scanner: DpiInstance,
    /// Per-middlebox engine handles.
    pub middleboxes: HashMap<MiddleboxId, Arc<Mutex<ServiceMiddlebox>>>,
    /// Chain ids in the order chains were added to the builder.
    pub chain_ids: Vec<u16>,
    /// The traffic steering application.
    pub tsa: TrafficSteeringApp,
    /// Generation-versioned rule-update orchestrator (DESIGN.md §9).
    orchestrator: UpdateOrchestrator,
    /// Deployment-wide structured-event tracer (DESIGN.md §10).
    tracer: Arc<Tracer>,
    /// Telemetry-driven flow rebalancer, when armed.
    balancer: Option<LoadBalancer>,
    /// Reassembly conflict policy stamped into every engine build
    /// (including updates).
    conflict_policy: ConflictPolicy,
    /// L7 inspection policy stamped into every engine build (including
    /// updates), when enabled.
    l7: Option<dpi_core::L7Policy>,
}

impl SystemHandle {
    /// Sends one TCP payload from the source host into the network and
    /// runs it to quiescence. Returns the number of deliveries.
    ///
    /// Every call builds exactly one packet: bursts and adversarial
    /// segment streams are the caller's to script, one `send` per
    /// packet. The packet carries no SYN, so under an L7 policy — where
    /// the packet path reassembles TCP — a flow whose first segment is
    /// not its stream start declares its initial sequence number first
    /// ([`DpiInstance::open_tcp_flow`] on the instance).
    ///
    /// In a fleet deployment the switch steers every packet of a flow to
    /// the instance its flow hashes to, so cross-packet scan state stays
    /// on one instance.
    pub fn send(&mut self, flow: FlowKey, seq: u32, payload: &[u8]) -> usize {
        let pkt = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            flow,
            seq,
            payload.to_vec(),
        );
        self.net.inject(self.switch_id, 0, pkt);
        self.net.run()
    }

    /// Runs one heartbeat window: every chaos-alive instance beats, the
    /// controller closes the window, and each `BecameDead` transition
    /// triggers failover — the dead instance's ingress steering rules are
    /// rewritten to a surviving instance. Returns the health events.
    ///
    /// Failover restarts mid-flow scan state: the survivor sees
    /// re-steered flows as fresh, which may miss a pattern straddling the
    /// failover point but can never produce a false match.
    pub fn heartbeat_round(&mut self) -> Vec<HealthEvent> {
        for i in 0..self.dpi_instances.len() {
            let alive = self
                .chaos
                .as_ref()
                .map(|c| c.instance_alive(i))
                .unwrap_or(true);
            if alive {
                self.heartbeat_seq[i] += 1;
                let _ = self
                    .controller
                    .heartbeat(self.instance_ids[i], self.heartbeat_seq[i]);
            }
        }
        let events = self.controller.health_tick();
        for ev in &events {
            if let HealthEvent::BecameDead(id) = ev {
                self.fail_over(*id);
            }
        }
        // A heartbeat window is also the fleet's overload window: each
        // instance's detectors see the window's arrivals, and what it
        // traced since the last round joins the timeline (the batch
        // pipeline does both at its batch boundaries).
        for d in &self.dpi_instances {
            d.lock().close_window();
        }
        self.rebalance_round();
        events
    }

    /// One balancer round: feed cumulative per-instance loads, and when a
    /// plan comes back migrate up to its budget of the hot instance's
    /// flows, scan state and all, to the cold instance.
    fn rebalance_round(&mut self) {
        let Some(balancer) = &mut self.balancer else {
            return;
        };
        // Only instances the controller would steer to participate.
        // Load is *arrivals*: scanned packets plus packets the overload
        // policy shed unscanned. Counting only scanned packets would let
        // an overloaded instance hide behind its own shedding and look
        // idle to the balancer, so the skew would never drain.
        let loads: Vec<(InstanceId, u64)> = (0..self.dpi_instances.len())
            .filter(|&i| {
                self.controller.instance_health(self.instance_ids[i])
                    != Some(dpi_controller::InstanceHealth::Dead)
            })
            .map(|i| {
                let d = self.dpi_instances[i].lock();
                (self.instance_ids[i], d.telemetry().packets + d.total_shed())
            })
            .collect();
        let Some(plan) = balancer.observe_round(&loads) else {
            return;
        };
        let index_of = |id| self.instance_ids.iter().position(|&i| i == id);
        let (Some(hot_idx), Some(cold_idx)) = (index_of(plan.hot), index_of(plan.cold)) else {
            unreachable!("plan instances come from instance_ids");
        };
        let (hot, cold) = (&self.dpi_instances[hot_idx], &self.dpi_instances[cold_idx]);
        // Candidates: the hot instance's own flows — its arena's heavy-flow
        // list (§4.3.1), less flows the switch already sends elsewhere (a
        // stateless flow has no scan state to export, so its entry stays
        // behind) — keyed by their stable hash so selection is
        // deterministic, with the chain each is on.
        let hot_port = self.dpi_ports[hot_idx];
        let by_key: HashMap<u64, (FlowKey, u16)> = hot
            .lock()
            .flow_deep_ratios()
            .into_iter()
            .filter_map(|(flow, _)| match self.tsa.steering_of(0, &flow)? {
                (chain, port) if port == hot_port => Some((flow.stable_hash(), (flow, chain))),
                _ => None,
            })
            .collect();
        let keys: Vec<u64> = by_key.keys().copied().collect();
        let picked = balancer.select_flows(&plan, &keys);
        if picked.is_empty() {
            return;
        }
        for key in &picked {
            let (flow, chain) = by_key[key];
            // The scan state moves with the flow, so the cold instance
            // resumes the automaton where the hot one left it.
            if let Some(state) = hot.lock().export_flow(&flow) {
                cold.lock().import_flow(flow, state);
            }
            self.tsa
                .steer_flow(chain, 0, &flow, self.dpi_ports[cold_idx]);
        }
        self.tracer.record(
            TraceSource::Controller,
            TraceKind::FlowsRebalanced {
                hot_instance: hot_idx as u32,
                cold_instance: cold_idx as u32,
                flows: picked.len() as u64,
            },
        );
    }

    /// Total flows the balancer has migrated (0 when rebalancing is off).
    pub fn rebalance_migrations(&self) -> u64 {
        self.balancer.as_ref().map(|b| b.migrations()).unwrap_or(0)
    }

    /// The instance the switch currently steers a flow to: its bucket's,
    /// or a migration's.
    pub fn steered_instance_of(&self, flow: &FlowKey) -> Option<usize> {
        let (_, port) = self.tsa.steering_of(0, flow)?;
        self.dpi_ports.iter().position(|&p| p == port)
    }

    /// Re-steers a dead instance's flows to the first surviving instance.
    fn fail_over(&mut self, dead: InstanceId) {
        let Some(dead_idx) = self.instance_ids.iter().position(|&i| i == dead) else {
            return;
        };
        let Some(survivor_idx) = (0..self.dpi_ports.len()).find(|&i| {
            i != dead_idx
                && self.controller.instance_health(self.instance_ids[i])
                    != Some(dpi_controller::InstanceHealth::Dead)
        }) else {
            return;
        };
        let (dead_port, survivor_port) = (self.dpi_ports[dead_idx], self.dpi_ports[survivor_idx]);
        let rewritten = self.tsa.resteer(dead_port, survivor_port);
        self.tracer.record(
            TraceSource::Controller,
            TraceKind::Resteered {
                dead_instance: dead_idx as u32,
                survivor: survivor_idx as u32,
                rules: rewritten as u64,
            },
        );
    }

    /// Stats of one middlebox.
    pub fn stats_of(&self, id: MiddleboxId) -> Option<MiddleboxStats> {
        self.middleboxes.get(&id).map(|h| h.lock().stats())
    }

    /// The first DPI instance's telemetry (see
    /// [`SystemHandle::fleet_telemetry`] for the whole fleet).
    pub fn dpi_telemetry(&self) -> dpi_core::Telemetry {
        self.dpi.lock().telemetry()
    }

    /// Telemetry of every instance, fleet order.
    pub fn fleet_telemetry(&self) -> Vec<dpi_core::Telemetry> {
        self.dpi_instances
            .iter()
            .map(|d| d.lock().telemetry())
            .collect()
    }

    /// Per-shard telemetry of the batch pipeline, including error
    /// counters, peak queue depth and supervision counters (restarts,
    /// lost scans).
    pub fn shard_telemetry(&self) -> Vec<ShardTelemetry> {
        self.scanner.shard_telemetry()
    }

    /// Deployment-wide per-tenant attribution (DESIGN.md §16): the merge
    /// of every fleet instance's and every pipeline shard's tenant
    /// counters, sorted by tenant. Untenanted traffic accrues to
    /// [`TenantId::DEFAULT`].
    pub fn tenant_telemetry(&self) -> Vec<(TenantId, TenantCounters)> {
        let mut agg: Vec<(TenantId, TenantCounters)> = Vec::new();
        for d in &self.dpi_instances {
            merge_tenant_counters(&mut agg, &d.lock().tenant_telemetry());
        }
        merge_tenant_counters(&mut agg, &self.scanner.tenant_telemetry());
        agg
    }

    /// The deployment-wide tracer. Hand clones of this to external
    /// components, or use [`SystemHandle::trace_events`] /
    /// [`SystemHandle::trace_jsonl`] to read what the system recorded.
    pub fn tracer(&self) -> &Arc<Tracer> {
        &self.tracer
    }

    /// A seq-ordered snapshot of the buffered trace events (the ring is
    /// left intact; use [`Tracer::drain`] via [`SystemHandle::tracer`] to
    /// consume them).
    pub fn trace_events(&self) -> Vec<TraceEvent> {
        self.tracer.snapshot()
    }

    /// The buffered trace as JSON Lines — one event object per line,
    /// ready to archive for post-mortems.
    pub fn trace_jsonl(&self) -> String {
        to_jsonl(&self.tracer.snapshot())
    }

    /// The deployment's state as a Prometheus text-format scrape:
    /// per-instance packet/byte/match counters, per-shard pipeline
    /// counters and peak queue depth, fleet health-state counts, the
    /// committed rule generation, and the tracer's own buffering health.
    pub fn metrics_text(&self) -> String {
        let mut m = MetricsText::new();

        m.family(
            "dpi_instance_packets_total",
            "Packets scanned per fleet instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_instance_bytes_total",
            "Payload bytes scanned per fleet instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_instance_matches_total",
            "Pattern matches reported per fleet instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_reassembly_conflicts_total",
            "Byte-level reassembly conflicts detected per fleet instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_flows_quarantined_total",
            "Flows quarantined by the RejectFlow conflict policy per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_flows_evicted_total",
            "Flows evicted from the bounded flow arena by capacity or byte pressure",
            MetricKind::Counter,
        );
        m.family(
            "dpi_quarantined_flow_evictions_total",
            "Quarantined flows force-evicted under full-arena pressure (lost verdicts)",
            MetricKind::Counter,
        );
        m.family(
            "dpi_scan_bytes_skipped_total",
            "Scanned bytes the kernel's prefix filter passed at depth <= 2 without stepping the table",
            MetricKind::Counter,
        );
        for (i, t) in self.fleet_telemetry().iter().enumerate() {
            let i = i.to_string();
            let l = [("instance", i.as_str())];
            m.sample("dpi_instance_packets_total", &l, t.packets);
            m.sample("dpi_instance_bytes_total", &l, t.bytes);
            m.sample("dpi_instance_matches_total", &l, t.matches);
            m.sample("dpi_reassembly_conflicts_total", &l, t.reassembly_conflicts);
            m.sample("dpi_flows_quarantined_total", &l, t.flows_quarantined);
            m.sample("dpi_flows_evicted_total", &l, t.flows_evicted);
            m.sample(
                "dpi_quarantined_flow_evictions_total",
                &l,
                t.quarantined_flow_evictions,
            );
            m.sample("dpi_scan_bytes_skipped_total", &l, t.scan_bytes_skipped);
        }

        m.family(
            "dpi_instance_tracked_flows",
            "Flows currently tracked in each instance's flow arena",
            MetricKind::Gauge,
        );
        m.family(
            "dpi_instance_flow_state_bytes",
            "Estimated bytes of per-flow state (scan, reassembly, L7) per instance",
            MetricKind::Gauge,
        );
        for (i, d) in self.dpi_instances.iter().enumerate() {
            let d = d.lock();
            let i = i.to_string();
            let l = [("instance", i.as_str())];
            m.sample("dpi_instance_tracked_flows", &l, d.tracked_flows() as u64);
            m.sample("dpi_instance_flow_state_bytes", &l, d.flow_bytes());
        }

        m.family(
            "dpi_l7_flows_identified_total",
            "Flows identified per L7 protocol per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_matches_total",
            "Pattern matches inside decoded L7 payloads per protocol per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_decoded_bytes_total",
            "Decoded L7 payload bytes scanned per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_decode_errors_total",
            "L7 decode errors (fail-open to raw scanning) per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_truncations_total",
            "L7 payloads truncated at the per-protocol inspection size limit",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_blocked_flows_total",
            "Flows blocked by L7 policy per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_l7_bypassed_flows_total",
            "Flows bypassed by L7 policy per instance",
            MetricKind::Counter,
        );
        for (i, t) in self.fleet_telemetry().iter().enumerate() {
            let i = i.to_string();
            for p in dpi_core::L7Protocol::ALL {
                let l = [("instance", i.as_str()), ("protocol", p.name())];
                m.sample(
                    "dpi_l7_flows_identified_total",
                    &l,
                    t.l7_flows_identified[p.index()],
                );
                m.sample("dpi_l7_matches_total", &l, t.l7_matches[p.index()]);
            }
            let l = [("instance", i.as_str())];
            m.sample("dpi_l7_decoded_bytes_total", &l, t.l7_decoded_bytes);
            m.sample("dpi_l7_decode_errors_total", &l, t.l7_decode_errors);
            m.sample("dpi_l7_truncations_total", &l, t.l7_truncations);
            m.sample("dpi_l7_blocked_flows_total", &l, t.l7_blocked_flows);
            m.sample("dpi_l7_bypassed_flows_total", &l, t.l7_bypassed_flows);
        }

        m.family(
            "dpi_instance_shed_packets_total",
            "Packets forwarded unscanned by the instance overload policy",
            MetricKind::Counter,
        );
        m.family(
            "dpi_instance_shed_bytes_total",
            "Payload bytes of shed packets per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_instance_ce_marked_total",
            "Packets CE-marked under overload per instance",
            MetricKind::Counter,
        );
        m.family(
            "dpi_instance_load_score",
            "Instance load relative to its overload watermark (1.0 = at the high mark)",
            MetricKind::Gauge,
        );
        m.family(
            "dpi_instance_overloaded",
            "Whether the instance is currently past its overload watermark",
            MetricKind::Gauge,
        );
        for (i, d) in self.dpi_instances.iter().enumerate() {
            let d = d.lock();
            let i = i.to_string();
            let l = [("instance", i.as_str())];
            let shed_bytes = d.shard_telemetry().iter().map(|s| s.shed_bytes).sum();
            // The worst shard speaks for the instance (an unarmed one
            // has none: score 0, not overloaded).
            let state = d.overload_state();
            let score = state.iter().map(|s| s.1).fold(0.0, f64::max);
            let overloaded = state.iter().any(|s| s.0);
            m.sample("dpi_instance_shed_packets_total", &l, d.total_shed());
            m.sample("dpi_instance_shed_bytes_total", &l, shed_bytes);
            m.sample("dpi_instance_ce_marked_total", &l, d.total_ce_marked());
            m.sample_f64("dpi_instance_load_score", &l, score);
            m.sample("dpi_instance_overloaded", &l, u64::from(overloaded));
        }

        m.family(
            "dpi_shard_packets_total",
            "Packets scanned per pipeline shard",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_bytes_total",
            "Payload bytes scanned per pipeline shard",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_matches_total",
            "Pattern matches reported per pipeline shard",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_queue_depth_peak",
            "High-water mark of the shard ingress queue",
            MetricKind::Gauge,
        );
        m.family(
            "dpi_shard_restarts_total",
            "Supervisor restarts of the shard worker",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_lost_scans_total",
            "Packets never scanned because the shard worker died",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_shed_packets_total",
            "Packets whose scan the shard's overload policy skipped",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_shed_bytes_total",
            "Payload bytes of shed packets per shard",
            MetricKind::Counter,
        );
        m.family(
            "dpi_shard_ce_marked_total",
            "Packets CE-marked under overload per shard",
            MetricKind::Counter,
        );
        for t in self.shard_telemetry() {
            let s = t.shard.to_string();
            let l = [("shard", s.as_str())];
            m.sample("dpi_shard_packets_total", &l, t.packets);
            m.sample("dpi_shard_bytes_total", &l, t.bytes);
            m.sample("dpi_shard_matches_total", &l, t.matches);
            m.sample("dpi_shard_queue_depth_peak", &l, t.peak_queue_depth);
            m.sample("dpi_shard_restarts_total", &l, t.restarts);
            m.sample("dpi_shard_lost_scans_total", &l, t.lost_scans);
            m.sample("dpi_shard_shed_packets_total", &l, t.shed_packets);
            m.sample("dpi_shard_shed_bytes_total", &l, t.shed_bytes);
            m.sample("dpi_shard_ce_marked_total", &l, t.ce_marked);
        }

        m.family(
            "dpi_tenant_packets_total",
            "Packets scanned per tenant across the fleet and the pipeline",
            MetricKind::Counter,
        );
        m.family(
            "dpi_tenant_bytes_total",
            "Payload bytes scanned per tenant",
            MetricKind::Counter,
        );
        m.family(
            "dpi_tenant_matches_total",
            "Pattern matches reported per tenant",
            MetricKind::Counter,
        );
        m.family(
            "dpi_tenant_shed_packets_total",
            "Fail-open packets shed under overload per tenant",
            MetricKind::Counter,
        );
        m.family(
            "dpi_tenant_shed_bytes_total",
            "Payload bytes of shed packets per tenant",
            MetricKind::Counter,
        );
        for (tenant, c) in self.tenant_telemetry() {
            let t = tenant.0.to_string();
            let l = [("tenant", t.as_str())];
            m.sample("dpi_tenant_packets_total", &l, c.packets);
            m.sample("dpi_tenant_bytes_total", &l, c.bytes);
            m.sample("dpi_tenant_matches_total", &l, c.matches);
            m.sample("dpi_tenant_shed_packets_total", &l, c.shed_packets);
            m.sample("dpi_tenant_shed_bytes_total", &l, c.shed_bytes);
        }

        m.family(
            "dpi_fleet_health",
            "Fleet instances currently in each health state",
            MetricKind::Gauge,
        );
        let (mut healthy, mut suspect, mut dead) = (0u64, 0u64, 0u64);
        for id in &self.instance_ids {
            match self.controller.instance_health(*id) {
                Some(dpi_controller::InstanceHealth::Suspect) => suspect += 1,
                Some(dpi_controller::InstanceHealth::Dead) => dead += 1,
                _ => healthy += 1,
            }
        }
        m.sample("dpi_fleet_health", &[("state", "healthy")], healthy);
        m.sample("dpi_fleet_health", &[("state", "suspect")], suspect);
        m.sample("dpi_fleet_health", &[("state", "dead")], dead);

        m.family(
            "dpi_rebalance_migrations_total",
            "Flows migrated hot-to-cold by the load balancer",
            MetricKind::Counter,
        );
        m.sample(
            "dpi_rebalance_migrations_total",
            &[],
            self.rebalance_migrations(),
        );

        m.family(
            "dpi_rule_generation",
            "Rule generation the whole deployment last committed to",
            MetricKind::Gauge,
        );
        m.sample(
            "dpi_rule_generation",
            &[],
            u64::from(self.orchestrator.committed_generation()),
        );

        m.family(
            "dpi_scan_kernel_info",
            "Active byte-scanning kernel (constant 1, kernel in the label)",
            MetricKind::Gauge,
        );
        m.sample(
            "dpi_scan_kernel_info",
            &[("kernel", self.dpi.lock().engine().kernel_name())],
            1,
        );
        m.family(
            "dpi_automaton_table_bytes",
            "Resident bytes of the combined automaton: hot rows, state records and match table",
            MetricKind::Gauge,
        );
        m.family(
            "dpi_automaton_states",
            "States of the combined automaton",
            MetricKind::Gauge,
        );
        {
            let dpi = self.dpi.lock();
            let ac = dpi.engine().automaton();
            m.sample("dpi_automaton_table_bytes", &[], ac.memory_bytes() as u64);
            m.sample("dpi_automaton_states", &[], ac.state_count() as u64);
        }

        m.family(
            "dpi_trace_events_buffered",
            "Trace events currently buffered in the global ring",
            MetricKind::Gauge,
        );
        m.sample("dpi_trace_events_buffered", &[], self.tracer.len() as u64);
        m.family(
            "dpi_trace_events_dropped_total",
            "Trace events overwritten before they were drained",
            MetricKind::Counter,
        );
        m.sample("dpi_trace_events_dropped_total", &[], self.tracer.dropped());

        m.finish()
    }

    /// Scans a batch of chain-tagged packets through the parallel
    /// pipeline, bypassing the simulated network. Matched packets are
    /// ECN-marked in place; results come back in batch order with
    /// sequential packet ids, byte-identical to feeding a sequential
    /// instance the same batch.
    pub fn inspect_batch(&mut self, packets: &mut [Packet]) -> Vec<ResultPacket> {
        self.scanner.inspect_batch(packets)
    }

    /// The rule generation the whole deployment last committed to.
    pub fn rule_generation(&self) -> GenerationId {
        self.orchestrator.committed_generation()
    }

    /// Rolls the controller's *current* configuration out to the running
    /// deployment as a new rule generation — the live-update pipeline
    /// (DESIGN.md §9). Mutate rules first
    /// (`controller.add_pattern`/`remove_pattern`), then call this.
    ///
    /// Staged: the artifact is compiled and swapped into a canary (fleet
    /// instance 0), the canary is verified (it must actually serve the
    /// new generation and keep its telemetry intact), then the remaining
    /// instances and the batch pipeline follow. A failure anywhere — in
    /// particular a chaos-corrupted artifact, which fails checksum
    /// validation *before* compilation — rolls every updated instance
    /// back to the previous committed generation; the fleet never serves
    /// a generation mix and never goes down over a bad update.
    pub fn apply_update(&mut self) -> Result<UpdateOutcome, SystemError> {
        let mut cfg = self
            .controller
            .instance_config(&self.chain_ids)?
            .with_conflict_policy(self.conflict_policy);
        cfg.l7 = self.l7;
        let mut prepared = self.orchestrator.prepare(&cfg);
        let transfer_bytes = prepared.transfer_bytes;

        // The artifact is now "in transit" — chaos may garble it.
        if let Some(c) = &self.chaos {
            if c.next_rule_update_corrupted() {
                prepared.artifact.corrupt();
            }
        }

        let built = BuiltEngines::default();
        let mut targets: Vec<FleetTarget> = self
            .dpi_instances
            .iter()
            .zip(&self.instance_ids)
            .map(|(instance, id)| FleetTarget {
                id: *id,
                instance: Arc::clone(instance),
                built: &built,
                pause: Duration::ZERO,
            })
            .collect();
        let canary = Arc::clone(&self.dpi_instances[0]);
        let canary_packets = canary.lock().telemetry().packets;
        let want = prepared.generation;
        let mut verify = move |_: &mut dyn UpdateTarget| {
            let g = canary.lock();
            // The canary must serve the new generation with its history
            // intact — a swap that lost telemetry (or didn't happen)
            // vetoes the fleet stage.
            g.engine().generation() == want && g.telemetry().packets >= canary_packets
        };
        let mut refs: Vec<&mut dyn UpdateTarget> = targets
            .iter_mut()
            .map(|t| t as &mut dyn UpdateTarget)
            .collect();
        let report = self.orchestrator.rollout(&prepared, &mut refs, &mut verify);

        let mut swap_pause = targets.iter().map(|t| t.pause).max().unwrap_or_default();
        let failure = report
            .failure
            .as_ref()
            .map(|(id, reason)| format!("instance {}: {reason}", id.0));

        if report.committed() {
            // The batch pipeline follows the fleet onto the same engine.
            let engine = Arc::clone(self.dpi.lock().engine());
            if let Ok(pause) = self.scanner.swap_engine(engine) {
                swap_pause = swap_pause.max(pause);
            }
        }

        Ok(UpdateOutcome {
            generation: prepared.generation,
            committed: report.committed(),
            transfer_bytes,
            swap_pause,
            failure,
        })
    }
}
