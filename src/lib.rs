//! # dpi-service
//!
//! A from-scratch Rust reproduction of **Deep Packet Inspection as a
//! Service** (Bremler-Barr, Harchol, Hay, Koral — CoNEXT 2014).
//!
//! Traffic in middlebox-rich networks is scanned over and over: every
//! IDS, anti-virus, L7 firewall and traffic shaper on a packet's policy
//! chain runs its own Deep Packet Inspection pass. The paper extracts DPI
//! into a *network service*: each packet is scanned **once**, against the
//! combined pattern sets of every middlebox on its chain, and the match
//! results travel in a dedicated result packet right behind it to the
//! middleboxes.
//!
//! This workspace implements the whole system:
//!
//! | Crate | What it provides |
//! |---|---|
//! | [`packet`] | Ethernet/VLAN/IPv4/TCP/UDP formats, the ECN match-mark, dedicated result packets |
//! | [`ac`] | Combined multi-middlebox Aho-Corasick (full-table and sparse), accepting-state renumbering, match tables, bitmaps |
//! | [`regex`] | A PCRE-subset regex engine (parser → NFA → lazy DFA) and §5.3 anchor extraction |
//! | [`core`] | The virtual DPI service instance: single-pass scanning, stateful flows, stopping conditions, match reports |
//! | [`controller`] | The DPI controller: JSON registration protocol, global pattern set, chains, deployment, MCA² stress monitoring |
//! | [`sdn`] | Simulated SDN: switches with flow tables, the Traffic Steering Application, the star topology of §6.1 |
//! | [`middlebox`] | The middlebox framework: service-consuming plugins vs self-scanning baselines, Table 1's concrete boxes |
//! | [`traffic`] | Synthetic Snort/ClamAV-like pattern sets and HTTP-like traces |
//!
//! The [`system`] module assembles everything into a runnable simulated
//! deployment — see `examples/quickstart.rs`.

pub use dpi_ac as ac;
pub use dpi_controller as controller;
pub use dpi_core as core;
pub use dpi_middlebox as middlebox;
pub use dpi_packet as packet;
pub use dpi_regex as regex;
pub use dpi_sdn as sdn;
pub use dpi_traffic as traffic;

pub mod system;

pub use dpi_core::{to_jsonl, MetricKind, MetricsText};
pub use dpi_core::{DpiInstance, ScanEngine};
pub use dpi_core::{TraceEvent, TraceKind, TraceSource, TraceWriter, Tracer};
pub use system::{SystemBuilder, SystemHandle, UpdateOutcome};
