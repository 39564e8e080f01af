//! # dpi-middlebox
//!
//! The middlebox framework of the *DPI as a Service* reproduction.
//!
//! "Abstractly, middleboxes operate by rules that contain actions, and
//! conditions that should be satisfied to activate the actions. Some of
//! the conditions are based on patterns in the packet's content. The DPI
//! service responsibility is only to indicate appearances of patterns,
//! while resolving the logic behind a condition and performing the action
//! itself is the middlebox's responsibility." (§4.1)
//!
//! This crate provides:
//!
//! * [`logic`] — the rule/condition/action layer every middlebox shares.
//! * [`engine`] — the two operation modes the paper compares:
//!   [`SelfScanMiddlebox`] runs its own DPI
//!   (the "without DPI service" baseline of Figures 2(a)/3(a)), while
//!   [`ServiceMiddlebox`] is the paper's §6.1
//!   "plugin": it consumes match results computed by the DPI service
//!   instead of scanning ("the plugin itself requires less than 100 lines
//!   of code").
//! * [`boxes`] — concrete middlebox types from Table 1: IDS, IPS,
//!   anti-virus, L7 firewall, traffic shaper, L7 load balancer, DLP and
//!   network analytics.
//! * [`nodes`] — [`dpi_sdn::Node`] adapters so DPI instances and
//!   middleboxes plug into the simulated network; the DPI node takes
//!   chaos-driven instance death, retried result-packet delivery
//!   (fail-open for data, fail-closed for verdicts) and instance-level
//!   overload control as optional attachments, and the middlebox node
//!   pairs each marked data packet with the result packet right behind
//!   it (§6.1).

pub mod boxes;
pub mod engine;
pub mod logic;
pub mod nodes;

pub use boxes::{
    antivirus, dlp, ids, ips, l7_firewall, l7_load_balancer, network_analytics, sni_filter,
    traffic_shaper, waf,
};
pub use engine::{MiddleboxStats, SelfScanMiddlebox, ServiceMiddlebox};
pub use logic::{Condition, MbAction, MbRule, RuleLogic, Verdict};
pub use nodes::{DpiServiceNode, FleetDpiStats, MiddleboxNode};
