//! L7 protocol inspection: identify → decode → scan (DESIGN.md §14).
//!
//! The paper's service scans raw reassembled TCP bytes; real DPI value
//! comes from inspecting *decoded* application payloads — a pattern
//! hidden inside a gzipped chunked HTTP body or a masked WebSocket frame
//! is invisible to a raw-byte scan. This module sits between stream
//! reassembly ([`crate::instance::ScanEngine::scan_tcp_segment`]) and
//! the scan kernel:
//!
//! 1. **Identify**: the first reassembled bytes of a flow name its
//!    protocol — an HTTP/1 method or status line, a TLS handshake record
//!    header, or `Unknown`. Identification is prefix-exact and resolves
//!    within [`IDENTIFY_CAP`] bytes; an unidentifiable flow falls back
//!    to raw scanning **byte-identical to the pre-L7 engine**.
//! 2. **Decode**: per-protocol incremental decoders (HTTP/1 framing with
//!    chunked transfer and `Content-Encoding: gzip` bodies, TLS records
//!    with SNI extraction, WebSocket frame unmasking) that turn wire
//!    bytes into [`DecodedUnit`]s — header blocks, decoded body streams,
//!    SNI hostnames — each scanned by the existing kernel with correct
//!    resumable offsets so patterns spanning segment/chunk/frame
//!    boundaries still match.
//! 3. **Police**: a g3-style per-protocol policy
//!    ([`L7Policy`]) sets an inspection size limit and an action —
//!    `Intercept` (decode and scan), `Block` (quarantines the flow, the
//!    fail-closed verdict a reassembly conflict also sets), `Bypass`
//!    (waved through, neither decoded nor scanned). Every
//!    decode error, truncation and action is surfaced via telemetry and
//!    [`crate::trace::TraceKind`] events: the layer never silently
//!    drops coverage.
//!
//! The decode state for one flow lives in an [`L7Session`] inside the
//! owning shard, keyed by `FlowKey` — one direction per session, exactly
//! like the reassembler it feeds from.

pub mod http1;
pub mod tls;
pub mod websocket;

use serde::{Deserialize, Serialize};

/// Identification resolves within this many buffered bytes; flows whose
/// prefix is still ambiguous at the cap are `Unknown`. The longest
/// discriminating prefix is 8 bytes (`"OPTIONS "` / `"CONNECT "`).
pub const IDENTIFY_CAP: usize = 16;

/// Resumable decoded-stream scan slots per session (HTTP body,
/// WebSocket body).
pub const SLOT_COUNT: usize = 2;
/// Slot index of the HTTP message-body stream (reset per message).
pub const SLOT_HTTP_BODY: usize = 0;
/// Slot index of the WebSocket data stream (continuous across frames).
pub const SLOT_WS_BODY: usize = 1;

/// Application protocols the identification stage can name.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum L7Protocol {
    /// HTTP/1.x (request or response side).
    Http1,
    /// TLS (any version with a v3 record layer).
    Tls,
    /// WebSocket, entered via an HTTP/1 Upgrade handshake.
    WebSocket,
    /// Anything else: scanned raw, byte-identical to the pre-L7 engine.
    Unknown,
}

impl L7Protocol {
    /// Number of protocols (array-indexed telemetry uses this).
    pub const COUNT: usize = 4;
    /// Every protocol, in index order.
    pub const ALL: [L7Protocol; L7Protocol::COUNT] = [
        L7Protocol::Http1,
        L7Protocol::Tls,
        L7Protocol::WebSocket,
        L7Protocol::Unknown,
    ];

    /// Dense index for per-protocol counters.
    pub fn index(self) -> usize {
        match self {
            L7Protocol::Http1 => 0,
            L7Protocol::Tls => 1,
            L7Protocol::WebSocket => 2,
            L7Protocol::Unknown => 3,
        }
    }

    /// Stable lowercase name (metric label values).
    pub fn name(self) -> &'static str {
        match self {
            L7Protocol::Http1 => "http1",
            L7Protocol::Tls => "tls",
            L7Protocol::WebSocket => "websocket",
            L7Protocol::Unknown => "unknown",
        }
    }
}

/// What a middlebox-facing policy does with an identified protocol
/// (the g3 DPI action model).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum L7Action {
    /// Decode the protocol and scan the decoded payloads (default).
    Intercept,
    /// Fail-closed: once what the identifying run decoded is scanned,
    /// the flow is quarantined like a reassembly conflict under
    /// `RejectFlow` — one sticky verdict on the flow arena — so every
    /// later packet carries the fail-closed mark and nothing of the
    /// flow is decoded, scanned or buffered again.
    Block,
    /// Wave the flow through uninspected (fail-open): nothing is
    /// decoded or scanned.
    Bypass,
}

/// Per-protocol inspection policy: how much to decode and what to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolPolicy {
    /// Action applied when a flow is identified as this protocol.
    pub action: L7Action,
    /// Inspection size limit in bytes. Bounds decoded output per scope
    /// (HTTP: header block and per-message decoded body; TLS: buffered
    /// handshake bytes; WebSocket: decoded data bytes per flow) and the
    /// decompression-bomb guard. Past the limit the decoder truncates
    /// and flags — framing continues, scanning of the excess stops.
    pub size_limit: usize,
}

impl ProtocolPolicy {
    /// Intercept with a size limit.
    pub fn intercept(size_limit: usize) -> ProtocolPolicy {
        ProtocolPolicy {
            action: L7Action::Intercept,
            size_limit,
        }
    }

    /// Replaces the action, keeping the size limit.
    pub fn with_action(mut self, action: L7Action) -> ProtocolPolicy {
        self.action = action;
        self
    }
}

/// The engine-wide L7 policy: one [`ProtocolPolicy`] per protocol.
/// Installed via `InstanceConfig::with_l7_policy`; when absent the
/// engine scans raw bytes exactly as before the L7 layer existed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L7Policy {
    /// HTTP/1 policy.
    pub http: ProtocolPolicy,
    /// TLS policy (SNI metadata is the scannable surface).
    pub tls: ProtocolPolicy,
    /// WebSocket policy.
    pub websocket: ProtocolPolicy,
    /// Policy for unidentified flows. `Intercept` (the default) means
    /// the raw fallback scan; its `size_limit` is unused (raw scanning
    /// decodes nothing).
    pub unknown: ProtocolPolicy,
}

impl Default for L7Policy {
    fn default() -> L7Policy {
        L7Policy {
            http: ProtocolPolicy::intercept(64 << 10),
            tls: ProtocolPolicy::intercept(16 << 10),
            websocket: ProtocolPolicy::intercept(64 << 10),
            unknown: ProtocolPolicy::intercept(0),
        }
    }
}

impl L7Policy {
    /// The policy entry for one protocol.
    fn policy_for(&self, proto: L7Protocol) -> ProtocolPolicy {
        match proto {
            L7Protocol::Http1 => self.http,
            L7Protocol::Tls => self.tls,
            L7Protocol::WebSocket => self.websocket,
            L7Protocol::Unknown => self.unknown,
        }
    }

    /// Replaces one protocol's policy.
    pub fn with(mut self, proto: L7Protocol, policy: ProtocolPolicy) -> L7Policy {
        match proto {
            L7Protocol::Http1 => self.http = policy,
            L7Protocol::Tls => self.tls = policy,
            L7Protocol::WebSocket => self.websocket = policy,
            L7Protocol::Unknown => self.unknown = policy,
        }
        self
    }
}

/// Which side of the connection a session decodes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum L7Direction {
    /// The flow carries client→server bytes (request side).
    ClientToServer,
    /// The flow carries server→client bytes (response side).
    ServerToClient,
}

/// Which protocol field a decoded unit came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[serde(rename_all = "snake_case")]
pub enum L7Field {
    /// An HTTP/1 header block (request/status line included).
    Header,
    /// Decoded message-body bytes (dechunked, decompressed, unmasked).
    Body,
    /// The TLS server-name-indication hostname, scanned as metadata.
    Sni,
}

/// Protocol context attached to a [`crate::ScanOutput`] produced from a
/// decoded unit: what protocol, which direction, which field.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct L7Context {
    /// The identified protocol.
    pub protocol: L7Protocol,
    /// Decode direction of the session.
    pub direction: L7Direction,
    /// Field the scanned bytes came from.
    pub field: L7Field,
}

/// A per-middlebox protocol subscription mask. A middlebox only receives
/// matches from decoded units of protocols it subscribes to; the raw
/// fallback for `Unknown` flows is never filtered (fail-open, and
/// byte-identical to the pre-L7 engine).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProtocolMask(pub u8);

impl ProtocolMask {
    /// Subscribes to every protocol (the default).
    pub const ALL: ProtocolMask = ProtocolMask(0x0f);

    /// A mask of exactly the given protocols.
    pub fn only(protos: &[L7Protocol]) -> ProtocolMask {
        let mut m = 0u8;
        for p in protos {
            m |= 1 << p.index();
        }
        ProtocolMask(m)
    }

    /// Whether the mask includes `proto`.
    pub fn contains(self, proto: L7Protocol) -> bool {
        self.0 & (1 << proto.index()) != 0
    }
}

impl Default for ProtocolMask {
    fn default() -> ProtocolMask {
        ProtocolMask::ALL
    }
}

/// One decoded payload ready to scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodedUnit {
    /// Protocol context stamped into the resulting `ScanOutput`.
    pub ctx: L7Context,
    /// The decoded bytes.
    pub bytes: Vec<u8>,
    /// Resumable stream slot ([`SLOT_HTTP_BODY`] / [`SLOT_WS_BODY`]);
    /// `None` scans fresh (header blocks, SNI).
    pub slot: Option<usize>,
    /// Reset the slot's scan state before this unit (start of a new
    /// HTTP message body).
    pub reset: bool,
}

/// What one decoder `push` produced. Decoders append into this; the
/// session folds it into an [`Ingest`] for the engine.
#[derive(Debug, Default)]
pub(crate) struct DecodeOut {
    pub units: Vec<DecodedUnit>,
    /// Byte buffers to scan through the raw (undecoded) path — decode
    /// failures fail *open*: the bytes are still scanned, just without
    /// decoding (the no-silent-miss guarantee extended to L7).
    pub raw: Vec<Vec<u8>>,
    /// Decode errors encountered (malformed framing, bad gzip, …).
    pub errors: u64,
    /// One entry per size-limit truncation event: decoded bytes
    /// retained when the event fired.
    pub truncations: Vec<u64>,
    /// The decoder learned the session direction (TLS: from the first
    /// handshake message type).
    pub direction: Option<L7Direction>,
    /// HTTP completed an Upgrade handshake: the session must switch to
    /// the WebSocket decoder and feed it these leftover bytes.
    pub upgrade_ws: Option<Vec<u8>>,
    /// The decoder gave up on framing; the session falls back to raw
    /// scanning for the rest of the flow.
    pub failed_open: bool,
}

/// What one reassembled run produced after identification, decoding and
/// policy: the engine scans `units` (decoded, with context) and `raw`
/// (legacy path), and bumps counters/traces from the rest.
#[derive(Debug, Default)]
pub struct Ingest {
    /// Protocols identified this call, in order (usually one; the
    /// HTTP→WebSocket upgrade can resolve both in a single run —
    /// `Unknown` counts as an identification too).
    pub identified: Vec<L7Protocol>,
    /// The action applied at identification.
    pub action: Option<L7Action>,
    /// Decoded units to scan, in stream order.
    pub units: Vec<DecodedUnit>,
    /// Buffers to scan through the raw path (Unknown fallback and
    /// decode-failure fail-open), in stream order.
    pub raw: Vec<Vec<u8>>,
    /// Decode errors this call.
    pub errors: u64,
    /// Truncation events this call (decoded bytes retained per event).
    pub truncations: Vec<u64>,
}

/// Identification outcome over a growing prefix.
#[derive(Debug, PartialEq, Eq)]
enum Identified {
    /// Prefix still ambiguous — buffer more bytes.
    NeedMore,
    /// Protocol named, with the direction the prefix implies.
    Is(L7Protocol, L7Direction),
    /// No known protocol starts like this.
    Unknown,
}

/// HTTP/1 request-line prefixes that identify a client→server session.
const HTTP_METHODS: [&[u8]; 9] = [
    b"GET ",
    b"PUT ",
    b"POST ",
    b"HEAD ",
    b"PATCH ",
    b"TRACE ",
    b"DELETE ",
    b"OPTIONS ",
    b"CONNECT ",
];
/// HTTP/1 status-line prefix: a server→client session.
const HTTP_RESPONSE: &[u8] = b"HTTP/1.";

/// Names the protocol from a stream prefix. Exact-prefix matching: the
/// result is `NeedMore` only while `buf` is a proper prefix of some
/// candidate, so resolution needs at most 8 bytes.
fn identify(buf: &[u8]) -> Identified {
    if buf.is_empty() {
        return Identified::NeedMore;
    }
    // TLS: a v3 record header for a handshake record.
    if buf[0] == 0x16 {
        if buf.len() < 3 {
            return Identified::NeedMore;
        }
        return if buf[1] == 0x03 && buf[2] <= 0x04 {
            // Direction is provisional; the first handshake message
            // type (ClientHello/ServerHello) settles it.
            Identified::Is(L7Protocol::Tls, L7Direction::ClientToServer)
        } else {
            Identified::Unknown
        };
    }
    let mut ambiguous = false;
    for cand in HTTP_METHODS {
        if buf.len() >= cand.len() {
            if buf.starts_with(cand) {
                return Identified::Is(L7Protocol::Http1, L7Direction::ClientToServer);
            }
        } else if cand.starts_with(buf) {
            ambiguous = true;
        }
    }
    if buf.len() >= HTTP_RESPONSE.len() {
        if buf.starts_with(HTTP_RESPONSE) {
            return Identified::Is(L7Protocol::Http1, L7Direction::ServerToClient);
        }
    } else if HTTP_RESPONSE.starts_with(buf) {
        ambiguous = true;
    }
    if ambiguous {
        Identified::NeedMore
    } else {
        Identified::Unknown
    }
}

/// Decode phase of one session.
#[derive(Debug)]
enum Phase {
    /// Buffering the first bytes until the protocol resolves.
    Identify(Vec<u8>),
    /// HTTP/1 framing.
    Http(http1::Http1Decoder),
    /// TLS record parsing.
    Tls(tls::TlsDecoder),
    /// WebSocket frames (after an HTTP Upgrade).
    Ws(websocket::WsDecoder),
    /// Raw fallback: every byte goes to the legacy scan path.
    Raw,
    /// Policy said don't inspect: `Bypass` (fail-open), or `Block`,
    /// whose caller quarantines the flow and drops the session with it,
    /// so a blocked session is never fed again.
    Skip,
}

/// Per-flow L7 decode state, owned by the shard that owns the flow's
/// reassembler. Created lazily on the first reassembled run, torn down
/// with the flow.
#[derive(Debug)]
pub struct L7Session {
    phase: Phase,
    protocol: L7Protocol,
    direction: L7Direction,
    /// Resumable scan state per decoded stream slot:
    /// `(dfa_state, stream_offset, engine_generation)`. Generation-
    /// tagged exactly like the flow table, so a hot engine swap
    /// re-anchors decoded streams at the root (miss-only).
    pub(crate) streams: [Option<(u32, u64, u32)>; SLOT_COUNT],
}

impl Default for L7Session {
    fn default() -> L7Session {
        L7Session {
            phase: Phase::Identify(Vec::new()),
            protocol: L7Protocol::Unknown,
            direction: L7Direction::ClientToServer,
            streams: [None; SLOT_COUNT],
        }
    }
}

impl L7Session {
    /// The protocol this session decoded to (Unknown until identified).
    pub fn protocol(&self) -> L7Protocol {
        self.protocol
    }

    /// The session's decode direction.
    pub fn direction(&self) -> L7Direction {
        self.direction
    }

    /// Estimated heap bytes this session holds across calls: the
    /// identification buffer or the active decoder's carried wire/body
    /// buffers. Feeds the flow arena's per-flow byte accounting
    /// (DESIGN.md §15).
    pub fn heap_bytes(&self) -> u64 {
        match &self.phase {
            Phase::Identify(buf) => buf.len() as u64,
            Phase::Http(d) => d.heap_bytes(),
            Phase::Tls(d) => d.heap_bytes(),
            Phase::Ws(d) => d.heap_bytes(),
            Phase::Raw | Phase::Skip => 0,
        }
    }

    /// Feeds one in-order reassembled byte run through identification,
    /// the active decoder and the policy.
    pub fn accept(&mut self, run: &[u8], policy: &L7Policy) -> Ingest {
        let mut ingest = Ingest::default();
        match &mut self.phase {
            Phase::Identify(buf) => {
                buf.extend_from_slice(run);
                let resolved = match identify(buf) {
                    Identified::NeedMore if buf.len() < IDENTIFY_CAP => return ingest,
                    Identified::NeedMore | Identified::Unknown => {
                        (L7Protocol::Unknown, self.direction)
                    }
                    Identified::Is(p, d) => (p, d),
                };
                let bytes = std::mem::take(buf);
                self.begin(resolved.0, resolved.1, bytes, policy, &mut ingest);
            }
            Phase::Http(_) | Phase::Tls(_) | Phase::Ws(_) => {
                self.drive_decoder(run, policy, &mut ingest);
            }
            Phase::Raw => ingest.raw.push(run.to_vec()),
            Phase::Skip => {}
        }
        ingest
    }

    /// Applies `proto`'s policy and, under `Intercept`, constructs the
    /// decoder and feeds it the buffered prefix.
    fn begin(
        &mut self,
        proto: L7Protocol,
        dir: L7Direction,
        bytes: Vec<u8>,
        policy: &L7Policy,
        ingest: &mut Ingest,
    ) {
        self.protocol = proto;
        self.direction = dir;
        let pol = policy.policy_for(proto);
        ingest.identified.push(proto);
        ingest.action = Some(pol.action);
        match pol.action {
            L7Action::Block | L7Action::Bypass => self.phase = Phase::Skip,
            L7Action::Intercept => {
                self.phase = match proto {
                    L7Protocol::Http1 => Phase::Http(http1::Http1Decoder::new(dir)),
                    L7Protocol::Tls => Phase::Tls(tls::TlsDecoder::new()),
                    // WebSocket is only entered via the HTTP upgrade
                    // transition; a freshly identified flow never is.
                    L7Protocol::WebSocket => Phase::Ws(websocket::WsDecoder::new()),
                    L7Protocol::Unknown => Phase::Raw,
                };
                if matches!(self.phase, Phase::Raw) {
                    ingest.raw.push(bytes);
                } else {
                    self.drive_decoder(&bytes, policy, ingest);
                }
            }
        }
    }

    /// Pushes bytes through the active decoder and folds the result
    /// into `ingest`, handling fail-open and the WebSocket upgrade.
    fn drive_decoder(&mut self, data: &[u8], policy: &L7Policy, ingest: &mut Ingest) {
        let limit = policy.policy_for(self.protocol).size_limit;
        let mut out = DecodeOut::default();
        match &mut self.phase {
            Phase::Http(d) => d.push(data, limit, &mut out),
            Phase::Tls(d) => d.push(data, limit, &mut out),
            Phase::Ws(d) => d.push(data, limit, &mut out),
            _ => unreachable!("drive_decoder only runs on decoder phases"),
        }
        if let Some(dir) = out.direction {
            self.direction = dir;
        }
        let dir = self.direction;
        let proto = self.protocol;
        ingest.units.extend(out.units.into_iter().map(|mut u| {
            // Stamp the session's (possibly just-learned) identity; the
            // decoders only know the field and slot.
            u.ctx.protocol = proto;
            u.ctx.direction = dir;
            u
        }));
        ingest.raw.append(&mut out.raw);
        ingest.errors += out.errors;
        ingest.truncations.append(&mut out.truncations);
        if out.failed_open {
            self.phase = Phase::Raw;
            return;
        }
        if let Some(leftover) = out.upgrade_ws {
            // The HTTP handshake completed an Upgrade; the rest of the
            // flow is WebSocket, under the WebSocket policy.
            self.begin(
                L7Protocol::WebSocket,
                self.direction,
                leftover,
                policy,
                ingest,
            );
        }
    }
}

/// A context-free unit constructor for decoders (protocol/direction are
/// stamped by the session).
pub(crate) fn unit(
    field: L7Field,
    bytes: Vec<u8>,
    slot: Option<usize>,
    reset: bool,
) -> DecodedUnit {
    DecodedUnit {
        ctx: L7Context {
            protocol: L7Protocol::Unknown,
            direction: L7Direction::ClientToServer,
            field,
        },
        bytes,
        slot,
        reset,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identify_resolves_known_prefixes() {
        assert_eq!(
            identify(b"GET /index.html HTTP/1.1\r\n"),
            Identified::Is(L7Protocol::Http1, L7Direction::ClientToServer)
        );
        assert_eq!(
            identify(b"HTTP/1.1 200 OK\r\n"),
            Identified::Is(L7Protocol::Http1, L7Direction::ServerToClient)
        );
        assert_eq!(
            identify(&[0x16, 0x03, 0x01, 0x00, 0x40]),
            Identified::Is(L7Protocol::Tls, L7Direction::ClientToServer)
        );
    }

    #[test]
    fn identify_buffers_only_proper_prefixes() {
        assert_eq!(identify(b"GE"), Identified::NeedMore);
        assert_eq!(identify(b"OPTIONS"), Identified::NeedMore);
        assert_eq!(identify(b"HTTP/"), Identified::NeedMore);
        assert_eq!(identify(&[0x16]), Identified::NeedMore);
        // One byte that no candidate starts with resolves immediately.
        assert_eq!(identify(b"x"), Identified::Unknown);
        assert_eq!(identify(b"GEX"), Identified::Unknown);
        assert_eq!(identify(&[0x16, 0x04, 0x00]), Identified::Unknown);
    }

    #[test]
    fn protocol_mask_defaults_to_all() {
        let m = ProtocolMask::default();
        for p in L7Protocol::ALL {
            assert!(m.contains(p));
        }
        let only = ProtocolMask::only(&[L7Protocol::Tls]);
        assert!(only.contains(L7Protocol::Tls));
        assert!(!only.contains(L7Protocol::Http1));
    }

    #[test]
    fn policy_round_trips_as_json() {
        let p = L7Policy::default().with(
            L7Protocol::Tls,
            ProtocolPolicy::intercept(1024).with_action(L7Action::Block),
        );
        let j = serde_json::to_string(&p).unwrap();
        let back: L7Policy = serde_json::from_str(&j).unwrap();
        assert_eq!(back, p);
        assert_eq!(back.policy_for(L7Protocol::Tls).action, L7Action::Block);
        // A removed action older peers may still send is rejected, not
        // defaulted.
        assert!(serde_json::from_str::<L7Action>("\"detour\"").is_err());
    }

    #[test]
    fn unknown_session_falls_back_to_raw() {
        let policy = L7Policy::default();
        let mut s = L7Session::default();
        let a = s.accept(b"\x00binary junk that is no protocol", &policy);
        assert_eq!(a.identified, vec![L7Protocol::Unknown]);
        assert_eq!(a.raw.len(), 1);
        assert!(a.units.is_empty());
        let b = s.accept(b"more junk", &policy);
        assert!(b.identified.is_empty());
        assert_eq!(b.raw, vec![b"more junk".to_vec()]);
    }

    #[test]
    fn ambiguous_prefix_buffers_then_flushes() {
        let policy = L7Policy::default();
        let mut s = L7Session::default();
        // "GE" could still become "GET "; nothing scanned yet.
        let a = s.accept(b"GE", &policy);
        assert!(a.identified.is_empty() && a.raw.is_empty() && a.units.is_empty());
        // "GEM" can no longer be any method: the whole buffered prefix
        // flushes to the raw path — no byte is silently dropped.
        let b = s.accept(b"M", &policy);
        assert_eq!(b.identified, vec![L7Protocol::Unknown]);
        assert_eq!(b.raw, vec![b"GEM".to_vec()]);
    }

    #[test]
    fn block_policy_decodes_nothing() {
        let policy = L7Policy::default().with(
            L7Protocol::Http1,
            ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
        );
        let mut s = L7Session::default();
        let a = s.accept(b"GET / HTTP/1.1\r\n\r\n", &policy);
        assert_eq!(a.identified, vec![L7Protocol::Http1]);
        assert_eq!(a.action, Some(L7Action::Block));
        assert!(a.units.is_empty() && a.raw.is_empty());
    }

    #[test]
    fn bypass_policy_scans_nothing() {
        let policy = L7Policy::default().with(
            L7Protocol::Http1,
            ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Bypass),
        );
        let mut s = L7Session::default();
        let a = s.accept(b"GET / HTTP/1.1\r\n\r\n", &policy);
        assert_eq!(a.action, Some(L7Action::Bypass));
        assert!(a.units.is_empty() && a.raw.is_empty());
    }
}
