//! End-to-end L7 inspection (DESIGN.md §14): patterns that raw byte
//! scanning cannot see — gzip-compressed chunked HTTP bodies, XOR-masked
//! WebSocket messages, SNI host names split across TLS records — are
//! matched by the identify → decode → scan path, reported with protocol
//! context, and governed by per-protocol size limits and actions.

use dpi_service::core::instance::{ScanEngine, ShardState};
use dpi_service::core::report::expand_records;
use dpi_service::core::{
    DpiInstance, InstanceConfig, L7Action, L7Field, L7Policy, L7Protocol, MiddleboxId,
    MiddleboxProfile, ProtocolMask, ProtocolPolicy, RuleSpec,
};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::FlowKey;
use dpi_service::traffic;
use dpi_service::{SystemBuilder, TraceKind, TraceSource, Tracer};
use std::sync::Arc;

const IDS: MiddleboxId = MiddleboxId(1);
const CHAIN: u16 = 1;
const PATTERN: &[u8] = b"hidden-attack-signature";

fn config(pattern: &[u8]) -> InstanceConfig {
    InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![RuleSpec::exact(pattern.to_vec())],
        )
        .with_chain(CHAIN, vec![IDS])
}

fn fk(n: u16) -> FlowKey {
    flow([10, 0, 0, 1], 1000 + n, [10, 0, 0, 2], 80, IpProtocol::Tcp)
}

/// Feeds a stream in order as seeded TCP segments and returns every
/// scan output.
fn feed(
    dpi: &mut DpiInstance,
    f: FlowKey,
    seed: u64,
    stream: &[u8],
) -> Vec<dpi_service::core::ScanOutput> {
    let mut outs = Vec::new();
    for (off, seg) in traffic::segment_stream(seed, stream, 120) {
        outs.extend(
            dpi.scan_tcp_segment(CHAIN, f, 1_000_000 + off, &seg)
                .unwrap(),
        );
    }
    outs
}

/// `(pattern id, l7 context)` of every reported match.
fn matches_with_ctx(
    outs: &[dpi_service::core::ScanOutput],
) -> Vec<(u16, Option<dpi_service::core::L7Context>)> {
    outs.iter()
        .flat_map(|o| {
            o.reports
                .iter()
                .flat_map(|r| expand_records(&r.records))
                .map(move |(pid, _)| (pid, o.l7))
        })
        .collect()
}

#[test]
fn gzip_chunked_http_body_matches_with_protocol_context() {
    for seed in [1u64, 7, 42] {
        let gen = traffic::http1_chunked_gzip_request(seed, PATTERN);
        assert!(!gen.pattern_visible_raw());

        // Raw engine (no L7 policy): the gzip bytes hide the pattern.
        let mut raw = DpiInstance::new(config(PATTERN)).unwrap();
        let outs = feed(&mut raw, fk(0), seed, &gen.stream);
        assert!(
            matches_with_ctx(&outs).is_empty(),
            "raw scanning must not see through gzip (seed {seed})"
        );

        // L7 engine: dechunk + gunzip surfaces the pattern, reported
        // with HTTP body context.
        let mut dpi =
            DpiInstance::new(config(PATTERN).with_l7_policy(L7Policy::default())).unwrap();
        let outs = feed(&mut dpi, fk(1), seed, &gen.stream);
        let found = matches_with_ctx(&outs);
        assert!(
            found.iter().any(|(pid, ctx)| {
                *pid == 0
                    && ctx.is_some_and(|c| {
                        c.protocol == L7Protocol::Http1 && c.field == L7Field::Body
                    })
            }),
            "decoded body match with protocol context expected (seed {seed}), got {found:?}"
        );
        let t = dpi.telemetry();
        assert_eq!(t.l7_flows_identified[L7Protocol::Http1.index()], 1);
        assert!(t.l7_matches[L7Protocol::Http1.index()] >= 1);
        assert!(t.l7_decoded_bytes as usize >= gen.decoded.len());
        assert_eq!(t.l7_decode_errors, 0);
    }
}

#[test]
fn plain_chunked_body_spanning_chunks_matches() {
    for seed in [3u64, 9] {
        let gen = traffic::http1_chunked_request(seed, PATTERN);
        let mut dpi =
            DpiInstance::new(config(PATTERN).with_l7_policy(L7Policy::default())).unwrap();
        let outs = feed(&mut dpi, fk(2), seed, &gen.stream);
        assert!(
            matches_with_ctx(&outs)
                .iter()
                .any(|(pid, ctx)| *pid == 0
                    && ctx.is_some_and(|c| c.protocol == L7Protocol::Http1)),
            "pattern split across chunk boundaries must match via the resumable body slot"
        );
    }
}

#[test]
fn tls_client_hello_yields_an_sni_match() {
    let sni = b"blocked-host.example.com";
    // The SNI filter subscribes to decoded TLS units only.
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateless(IDS)
                .with_l7_protocols(ProtocolMask::only(&[L7Protocol::Tls])),
            vec![RuleSpec::exact(sni.to_vec())],
        )
        .with_chain(CHAIN, vec![IDS])
        .with_l7_policy(L7Policy::default());
    let mut dpi = DpiInstance::new(cfg).unwrap();
    // 16-byte record bodies: the ClientHello spans many records, so no
    // raw record payload contains the host name whole.
    let gen = traffic::tls_client_hello(5, sni, 16);
    let outs = feed(&mut dpi, fk(3), 5, &gen.stream);
    assert!(
        matches_with_ctx(&outs).iter().any(|(pid, ctx)| *pid == 0
            && ctx.is_some_and(|c| c.protocol == L7Protocol::Tls && c.field == L7Field::Sni)),
        "SNI extracted from a record-split ClientHello must match"
    );
    let t = dpi.telemetry();
    assert_eq!(t.l7_flows_identified[L7Protocol::Tls.index()], 1);
    assert!(t.l7_matches[L7Protocol::Tls.index()] >= 1);
}

#[test]
fn websocket_masked_frames_match_across_the_boundary() {
    for seed in [2u64, 11] {
        let gen = traffic::websocket_session(seed, PATTERN);
        assert!(!gen.pattern_visible_raw());
        let mut dpi =
            DpiInstance::new(config(PATTERN).with_l7_policy(L7Policy::default())).unwrap();
        let outs = feed(&mut dpi, fk(4), seed, &gen.stream);
        assert!(
            matches_with_ctx(&outs).iter().any(|(pid, ctx)| *pid == 0
                && ctx.is_some_and(
                    |c| c.protocol == L7Protocol::WebSocket && c.field == L7Field::Body
                )),
            "unmasked message spanning two frames must match (seed {seed})"
        );
        let t = dpi.telemetry();
        // Identified twice: first as HTTP, then the Upgrade handoff.
        assert_eq!(t.l7_flows_identified[L7Protocol::Http1.index()], 1);
        assert_eq!(t.l7_flows_identified[L7Protocol::WebSocket.index()], 1);
    }
}

#[test]
fn size_limit_truncates_flags_and_suppresses_later_matches() {
    // Pattern parked beyond a 64-byte inspection limit.
    let mut body = vec![b'a'; 256];
    body.extend_from_slice(PATTERN);
    let mut stream = format!(
        "POST /big HTTP/1.1\r\nContent-Length: {}\r\n\r\n",
        body.len()
    )
    .into_bytes();
    stream.extend_from_slice(&body);

    let policy = L7Policy::default().with(L7Protocol::Http1, ProtocolPolicy::intercept(64));
    let engine = Arc::new(ScanEngine::new(config(PATTERN).with_l7_policy(policy)).unwrap());
    let mut shard = ShardState::new(&engine);
    let tracer = Arc::new(Tracer::new());
    shard.attach_trace_writer(tracer.writer(TraceSource::Shard(0)));

    let outs = engine
        .scan_tcp_segment(&mut shard, CHAIN, fk(5), 1000, &stream)
        .unwrap();
    assert!(
        matches_with_ctx(&outs).is_empty(),
        "bytes past the inspection limit must not be scanned"
    );
    assert_eq!(shard.telemetry().l7_truncations, 1);
    let mut w = shard.take_trace_writer().unwrap();
    tracer.absorb(&mut w);
    assert!(
        tracer.snapshot().iter().any(|e| matches!(
            e.kind,
            TraceKind::L7Truncated {
                protocol: L7Protocol::Http1,
                bytes: 64
            }
        )),
        "truncation must be traced with the retained byte count"
    );
}

#[test]
fn decompression_bomb_is_truncated_at_the_protocol_limit() {
    // A ~100× gzip bomb in a Content-Length body, pattern at the tail
    // (decodes past the limit, so it must NOT match — and must not OOM).
    let mut plain = vec![b'x'; 200_000];
    plain.extend_from_slice(PATTERN);
    let gz = dpi_service::core::gzip(&plain);
    let mut stream = format!(
        "POST /bomb HTTP/1.1\r\nContent-Encoding: gzip\r\nContent-Length: {}\r\n\r\n",
        gz.len()
    )
    .into_bytes();
    stream.extend_from_slice(&gz);

    let policy = L7Policy::default().with(L7Protocol::Http1, ProtocolPolicy::intercept(4096));
    let mut dpi = DpiInstance::new(config(PATTERN).with_l7_policy(policy)).unwrap();
    let outs = feed(&mut dpi, fk(6), 13, &stream);
    assert!(matches_with_ctx(&outs).is_empty());
    let t = dpi.telemetry();
    assert!(t.l7_truncations >= 1, "bomb must be flagged as truncated");
    assert!(
        t.l7_decoded_bytes <= 8192,
        "decoded output must stay near the limit, got {}",
        t.l7_decoded_bytes
    );
}

#[test]
fn block_and_bypass_actions_are_enforced_and_observable() {
    let gen = traffic::http1_chunked_gzip_request(21, PATTERN);

    // Block: the flow is quarantined — no reports, counter + trace.
    let policy = L7Policy::default().with(
        L7Protocol::Http1,
        ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
    );
    let engine = Arc::new(ScanEngine::new(config(PATTERN).with_l7_policy(policy)).unwrap());
    let mut shard = ShardState::new(&engine);
    let tracer = Arc::new(Tracer::new());
    shard.attach_trace_writer(tracer.writer(TraceSource::Shard(0)));
    let outs = engine
        .scan_tcp_segment(&mut shard, CHAIN, fk(7), 1000, &gen.stream)
        .unwrap();
    assert!(outs.iter().all(|o| o.reports.is_empty()));
    assert!(
        outs.iter().any(|o| o.quarantined),
        "Block must mark outputs"
    );
    assert_eq!(shard.telemetry().l7_blocked_flows, 1);
    let mut w = shard.take_trace_writer().unwrap();
    tracer.absorb(&mut w);
    assert!(tracer.snapshot().iter().any(|e| matches!(
        e.kind,
        TraceKind::L7ActionApplied {
            protocol: L7Protocol::Http1,
            action: L7Action::Block
        }
    )));

    // Block on an HTTP→WebSocket upgrade: the handshake decoded before
    // the handoff is still scanned and counted, then the flow closes —
    // the masked message is never decoded, later segments are refused.
    let ws = traffic::websocket_session(3, PATTERN);
    let policy = L7Policy::default().with(
        L7Protocol::WebSocket,
        ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Block),
    );
    let mut dpi = DpiInstance::new(config(b"example.test").with_l7_policy(policy)).unwrap();
    let outs = dpi
        .scan_tcp_segment(CHAIN, fk(9), 1000, &ws.stream)
        .unwrap();
    assert!(
        matches_with_ctx(&outs)
            .iter()
            .any(|(_, ctx)| ctx.is_some_and(|c| c.protocol == L7Protocol::Http1)),
        "the upgrade's handshake must still be scanned"
    );
    assert!(outs.last().is_some_and(|o| o.quarantined));
    assert!(dpi.flow_quarantined(&fk(9)));
    let t = dpi.telemetry();
    assert_eq!(t.l7_blocked_flows, 1);
    assert!(t.l7_decoded_bytes > 0 && t.l7_decoded_bytes < ws.stream.len() as u64);
    let end = 1000 + ws.stream.len() as u32;
    let outs = dpi.scan_tcp_segment(CHAIN, fk(9), end, b"more").unwrap();
    assert!(outs.iter().all(|o| o.reports.is_empty() && o.quarantined));

    // Bypass: nothing scanned, nothing blocked, counter says why.
    let policy = L7Policy::default().with(
        L7Protocol::Http1,
        ProtocolPolicy::intercept(1 << 16).with_action(L7Action::Bypass),
    );
    let mut dpi = DpiInstance::new(config(PATTERN).with_l7_policy(policy)).unwrap();
    let outs = feed(&mut dpi, fk(8), 21, &gen.stream);
    assert!(outs.iter().all(|o| o.reports.is_empty() && !o.quarantined));
    let t = dpi.telemetry();
    assert_eq!(t.l7_bypassed_flows, 1);
    assert_eq!(t.l7_decoded_bytes, 0, "bypassed flows are not decoded");
}

#[test]
fn protocol_subscriptions_filter_decoded_units_but_not_raw() {
    const TLS_ONLY: MiddleboxId = MiddleboxId(2);
    let cfg = InstanceConfig::new()
        .with_middlebox(
            MiddleboxProfile::stateful(IDS),
            vec![RuleSpec::exact(PATTERN.to_vec())],
        )
        .with_middlebox(
            MiddleboxProfile::stateful(TLS_ONLY)
                .with_l7_protocols(ProtocolMask::only(&[L7Protocol::Tls])),
            vec![RuleSpec::exact(PATTERN.to_vec())],
        )
        .with_chain(CHAIN, vec![IDS, TLS_ONLY])
        .with_l7_policy(L7Policy::default());

    // An HTTP body match: only the unrestricted middlebox reports it.
    let gen = traffic::http1_chunked_request(4, PATTERN);
    let mut dpi = DpiInstance::new(cfg.clone()).unwrap();
    let outs = feed(&mut dpi, fk(9), 4, &gen.stream);
    let reporters: Vec<u16> = outs
        .iter()
        .flat_map(|o| o.reports.iter().map(|r| r.middlebox_id))
        .collect();
    assert!(reporters.contains(&IDS.0));
    assert!(
        !reporters.contains(&TLS_ONLY.0),
        "a TLS-only subscriber must not see HTTP body matches"
    );

    // An unidentified flow falls back to raw scanning, which is never
    // subscription-filtered: both middleboxes see the match.
    let mut junk = b"\x00\x01junkjunk".to_vec();
    junk.extend_from_slice(PATTERN);
    let mut dpi = DpiInstance::new(cfg).unwrap();
    let outs = feed(&mut dpi, fk(10), 4, &junk);
    let reporters: Vec<u16> = outs
        .iter()
        .flat_map(|o| o.reports.iter().map(|r| r.middlebox_id))
        .collect();
    assert!(reporters.contains(&IDS.0));
    assert!(
        reporters.contains(&TLS_ONLY.0),
        "the Unknown raw fallback is fail-open for every subscriber"
    );
}

#[test]
fn system_builder_threads_the_policy_and_exports_l7_metrics() {
    let system = SystemBuilder::new()
        .with_middlebox(dpi_service::middlebox::ids(IDS, &[PATTERN.to_vec()]))
        .with_chain(&[IDS])
        .with_l7_policy(L7Policy::default())
        .build()
        .unwrap();
    let text = system.metrics_text();
    for family in [
        "dpi_l7_flows_identified_total",
        "dpi_l7_matches_total",
        "dpi_l7_decoded_bytes_total",
        "dpi_l7_decode_errors_total",
        "dpi_l7_truncations_total",
        "dpi_l7_blocked_flows_total",
        "dpi_l7_bypassed_flows_total",
    ] {
        assert!(text.contains(family), "missing metric family {family}");
    }
    assert!(
        text.contains(r#"protocol="http1""#) && text.contains(r#"protocol="tls""#),
        "per-protocol labels must always be emitted"
    );
}

/// One packet whose scan yields two reporting units — a header match and
/// a body match for the same middlebox — delivers both matches to it: the
/// result packet carries one report per middlebox, not one per unit.
#[test]
fn header_and_body_matches_of_one_packet_both_reach_the_middlebox() {
    let mut system = SystemBuilder::new()
        .with_middlebox(dpi_service::middlebox::ids(
            IDS,
            &[b"hdr-sig-aaaa".to_vec(), b"body-sig-bbbb".to_vec()],
        ))
        .with_chain(&[IDS])
        .with_l7_policy(L7Policy::default())
        .build()
        .unwrap();
    let stream =
        b"POST / HTTP/1.1\r\nX-A: hdr-sig-aaaa\r\nContent-Length: 20\r\n\r\nxxbody-sig-bbbbxxxxx";
    system.send(fk(11), 1_000, stream);
    assert_eq!(system.dpi_telemetry().matches, 2);
    assert_eq!(system.stats_of(IDS).unwrap().matches, 2);
}

/// The README example, end to end: the in-network packet path routes
/// TCP flows through L7 session reconstruction when the builder arms a
/// policy — a WAF catches a gzipped signature, an SNI filter catches a
/// blocked TLS host, and the `dpi_l7_*` counters move.
#[test]
fn system_send_path_scans_decoded_payloads() {
    let sig = b"exploit-kit-99".to_vec();
    let host = b"evil.example".to_vec();
    let mut system = SystemBuilder::new()
        .with_middlebox(dpi_service::middlebox::waf(
            MiddleboxId(1),
            std::slice::from_ref(&sig),
        ))
        .with_middlebox(dpi_service::middlebox::sni_filter(
            MiddleboxId(2),
            std::slice::from_ref(&host),
        ))
        .with_chain(&[MiddleboxId(1), MiddleboxId(2)])
        .with_l7_policy(L7Policy::default())
        .build()
        .unwrap();

    // A gzip-compressed chunked HTTP request hiding the WAF signature.
    let gen = traffic::http1_chunked_gzip_request(42, &sig);
    assert!(!gen.pattern_visible_raw());
    let http_flow = flow([10, 0, 0, 1], 40001, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    for (off, seg) in traffic::segment_stream(42, &gen.stream, 200) {
        system.send(http_flow, 1_000 + off, &seg);
    }

    // A record-split TLS ClientHello for the blocked host.
    let tls = traffic::tls_client_hello(7, &host, 16);
    let tls_flow = flow([10, 0, 0, 3], 40002, [10, 0, 0, 4], 443, IpProtocol::Tcp);
    for (off, seg) in traffic::segment_stream(7, &tls.stream, 64) {
        system.send(tls_flow, 5_000 + off, &seg);
    }

    let text = system.metrics_text();
    for needle in [
        "dpi_l7_flows_identified_total{instance=\"0\",protocol=\"http1\"} 1",
        "dpi_l7_flows_identified_total{instance=\"0\",protocol=\"tls\"} 1",
        "dpi_l7_matches_total{instance=\"0\",protocol=\"http1\"} 1",
        "dpi_l7_matches_total{instance=\"0\",protocol=\"tls\"} 1",
    ] {
        assert!(text.contains(needle), "missing: {needle}");
    }
    let decoded: u64 = text
        .lines()
        .find(|l| l.starts_with("dpi_l7_decoded_bytes_total"))
        .and_then(|l| l.split_whitespace().last())
        .and_then(|v| v.parse().ok())
        .unwrap();
    assert!(decoded as usize >= gen.decoded.len());
}
