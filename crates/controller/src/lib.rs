//! # dpi-controller
//!
//! The logically-centralized **DPI controller** (§4.1 of *Deep Packet
//! Inspection as a Service*): the entity that abstracts the DPI process
//! for middleboxes, the Traffic Steering Application and the SDN
//! controller.
//!
//! Responsibilities reproduced here:
//!
//! * **Registration and pattern-set management** ([`proto`],
//!   [`controller`]): middleboxes register over JSON messages (the paper's
//!   wire format), may inherit the pattern set of an already-registered
//!   middlebox, and add/remove patterns at runtime.
//! * **The global pattern set** ([`registry`]): patterns are stored once
//!   under controller-internal ids; every middlebox's (rule id → pattern)
//!   association is tracked by reference, and a pattern is only removed
//!   when its last referrer is gone.
//! * **Policy-chain management** ([`controller`]): the TSA hands over its
//!   chains; the controller allocates the chain identifiers that the tags
//!   carry and that DPI instances resolve into active-middlebox sets.
//! * **Instance deployment** ([`deploy`]): grouping policy chains onto
//!   instances (§4.3) and building each instance's
//!   [`dpi_core::InstanceConfig`].
//! * **Stress monitoring / MCA²** ([`stress`]): aggregating instance
//!   telemetry, detecting complexity attacks via the deep-state ratio, and
//!   orchestrating dedicated instances plus heavy-flow migration
//!   (§4.3.1, Figure 6).
//! * **Health monitoring** ([`health`]): per-instance heartbeat windows
//!   driving the `Healthy → Suspect → Dead` state machine the failover
//!   path acts on (§4's resiliency responsibility).
//! * **Load balancing** ([`balancer`]): per-round telemetry deltas drive
//!   bounded whole-flow migrations from the hottest to the coldest
//!   instance, with anti-flap hysteresis (§4.3's load-balancing
//!   responsibility).
//! * **Live rule updates** ([`update`]): the orchestrator freezes the
//!   pattern set into the next rule generation and rolls it out
//!   canary-first. The rule generation is the only version the control
//!   plane keeps, and the orchestrator's committed generation its only
//!   record.

pub mod balancer;
pub mod controller;
pub mod deploy;
pub mod health;
pub mod proto;
pub mod registry;
pub mod stress;
pub mod update;

pub use balancer::{BalancePolicy, LoadBalancer, RebalancePlan};
pub use controller::{ControllerError, DpiController, InstanceId, InstanceStatus, TransferRecord};
pub use deploy::DeploymentPlan;
pub use health::{HealthEvent, HealthMonitor, HealthPolicy, InstanceHealth};
pub use proto::{ControllerMessage, ControllerReply};
pub use registry::GlobalPatternSet;
pub use stress::{Mca2Action, StressMonitor, StressPolicy};
pub use update::{PreparedUpdate, RolloutOutcome, RolloutReport, UpdateOrchestrator, UpdateTarget};
