//! # dpi-traffic
//!
//! Synthetic workloads for the *DPI as a Service* reproduction.
//!
//! The paper evaluates with the Snort and ClamAV pattern sets and two
//! packet traces (a 9 GB campus trace and a 17 MB crawl of popular
//! websites, §6.2). None of those artifacts are redistributable, so this
//! crate generates deterministic synthetic equivalents that preserve the
//! properties the experiments actually depend on:
//!
//! * **Pattern sets** ([`patterns`]): counts, length distribution (≥ 8
//!   bytes, as the paper filters), ASCII/binary mix and shared-prefix
//!   structure matching published descriptions of Snort (up to 4,356
//!   exact-match patterns) and ClamAV (31,827 patterns). Aho-Corasick
//!   size and speed depend on exactly these parameters.
//! * **Traces** ([`trace`]): HTTP-like and binary payloads with a
//!   controllable *match density* — the paper observes that "more than
//!   90% of the packets have no matches", and density is the single knob
//!   that changes AC throughput on benign traffic.
//! * **Heavy traffic** ([`trace::heavy_payload`]): near-miss byte streams
//!   assembled from pattern prefixes, which force the automaton into
//!   deep, rarely-visited states — the complexity-attack traffic that
//!   MCA² (§4.3.1) detects and diverts.
//!
//! Everything is seeded; the same seed always yields the same workload.

pub mod evasion;
pub mod flows;
pub mod l7;
pub mod patterns;
pub mod tenants;
pub mod trace;

pub use evasion::{evasive_flow, evasive_flows, EvasionTactic, EvasiveFlow, EvasiveSegment};
pub use flows::{flow_pool, packetize, FlowPool};
pub use l7::{
    http1_chunked_gzip_request, http1_chunked_request, segment_stream, tls_client_hello,
    websocket_session, L7Flow,
};
pub use patterns::{clamav_like, snort_like, snort_like_regexes, split_set, PatternSetSpec};
pub use tenants::{tenant_mix, TenantStream};
pub use trace::{heavy_payload, TraceConfig, TraceKind};
