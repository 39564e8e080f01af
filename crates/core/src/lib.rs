//! # dpi-core
//!
//! The **virtual DPI service instance** — the primary contribution of
//! *Deep Packet Inspection as a Service* (CoNEXT 2014), §5.
//!
//! A [`DpiInstance`] is built from the pattern sets of every registered
//! middlebox (exact strings *and* regular expressions), merged into a
//! single Aho-Corasick automaton per §5.1. Each packet is scanned **once**;
//! the instance then produces per-middlebox match lists that travel to the
//! middleboxes in a dedicated result packet sent right behind the
//! ECN-marked data packet (§4.2 option 3, the prototype's method).
//!
//! The instance implements, faithfully to §5.2:
//!
//! * per-packet resolution of the *active middleboxes* from the policy
//!   chain tag, with the bitmap fast path;
//! * the most-conservative *stopping condition* across active middleboxes,
//!   with per-middlebox post-filtering;
//! * *stateful* scanning: the DFA state and flow offset are carried across
//!   packet boundaries for flows that any stateful middlebox cares about;
//! * the *stateless deletion rule*: when a scan started from a restored
//!   state (because a stateful middlebox shares the flow), matches that
//!   began in a previous packet are deleted for stateless middleboxes;
//! * §5.3's regex handling: anchors extracted from each regular expression
//!   are added to the combined automaton as synthetic patterns; the full
//!   regex engine runs only when *all* anchors of a rule were seen, and
//!   anchor-less expressions run on a parallel always-on path;
//! * §6.5's match-report encoding, including range compression of
//!   repeated-character match runs;
//! * telemetry (packets, bytes, matches, and a deep-state ratio) — the
//!   signals the MCA²-style stress monitor consumes (§4.3.1);
//! * flow-affine sharding ([`pipeline`]): the instance is one shared,
//!   immutable [`instance::ScanEngine`] behind an `Arc` and N private
//!   flow-arena shards (N = 1 is the sequential instance), packets routed
//!   by a stable flow hash so per-flow order and cross-packet state are
//!   preserved with zero locks on the per-packet path.

pub mod arena;
pub mod chaos;
pub mod config;
pub mod decompress;
pub mod instance;
pub mod l7;
pub mod metrics;
pub mod overload;
pub mod pipeline;
pub mod reassembly;
pub mod report;
pub mod rules;
pub mod telemetry;
pub mod trace;
pub mod update;

pub use arena::{ArenaEvents, FlowArena, FlowState, OpenFlow};
pub use chaos::{ChaosEngine, FaultPlan, ShardFault, ShardFaultSpec};
pub use config::{ChainSpec, InstanceConfig, MiddleboxProfile, TenantId};
pub use decompress::{
    deflate_fixed, deflate_stored, gunzip, gunzip_capped, gzip, inflate, inflate_capped, GzipError,
    InflateError,
};
pub use instance::{InstanceError, ScanEngine, ScanOutput, ShardState};
pub use l7::{
    L7Action, L7Context, L7Direction, L7Field, L7Policy, L7Protocol, ProtocolMask, ProtocolPolicy,
};
pub use metrics::{MetricKind, MetricsText};
pub use overload::{OverloadDetector, OverloadPolicy, OverloadTransition, TenantFairness};
pub use pipeline::DpiInstance;
pub use reassembly::{ConflictPolicy, StreamReassembler};
pub use report::compress_matches;
pub use rules::{RuleKind, RuleSpec};
pub use telemetry::{ShardTelemetry, Telemetry, TenantCounters};
pub use trace::{to_jsonl, TraceEvent, TraceKind, TraceSource, TraceWriter, Tracer};
pub use update::{GenerationId, UpdateArtifact, UpdateError};

// Re-export the identifier types shared across the system.
pub use dpi_ac::{MiddleboxId, PatternId};
