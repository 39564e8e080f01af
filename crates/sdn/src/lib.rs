//! # dpi-sdn
//!
//! A discrete-event simulated SDN substrate — the stand-in for the paper's
//! Mininet/POX/OpenFlow 1.0 environment (§6.1).
//!
//! Pieces:
//!
//! * [`flowtable`] — OpenFlow-style match/action tables with priorities:
//!   matching on ingress port, EtherType, VLAN VID (the policy-chain tag),
//!   the IPv4 5-tuple and the ECN match-mark; actions push/pop tags,
//!   rewrite ECN, output, drop.
//! * [`switch`] — a learningless, rule-driven switch.
//! * [`network`] — nodes (anything implementing [`Node`]) wired by links,
//!   with a FIFO event loop that moves packets until quiescence.
//! * [`tsa`] — the Traffic Steering Application (SIMPLE-style, §4):
//!   compiles policy chains into flow rules over a star topology exactly
//!   like the paper's experimental setup ("two user hosts, two middlebox
//!   hosts, and a DPI service instance host … all connected through a
//!   single switch", §6.1), tagging packets with their chain id on
//!   ingress and walking them DPI-first through the chain.
//!
//! The simulator is functional, not temporal: the paper explicitly did
//! *not* use Mininet for performance numbers ("we did not use Mininet for
//! performance testing as it incurs major overheads", §6.2), and neither
//! does this reproduction — throughput experiments run the DPI engine
//! directly while the simulator validates steering, tagging and
//! result-delivery behaviour.

pub mod flowtable;
pub mod network;
pub mod switch;
pub mod tsa;

pub use flowtable::{Action, FlowMatch, FlowRule, FlowTable};
pub use network::{Network, Node, NodeId, PortId};
pub use switch::Switch;
pub use tsa::TrafficSteeringApp;
