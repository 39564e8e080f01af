//! Golden-file test for the metrics exposition schema. The dashboard
//! contract is the *schema* — family names, HELP text, types, and label
//! keys — not the sample values, which move with every packet. This test
//! normalizes `SystemHandle::metrics_text()` down to that schema and
//! compares it against `tests/golden/metrics_schema.txt`.
//!
//! If you add or rename a metric family on purpose, regenerate with:
//! `UPDATE_GOLDEN=1 cargo test --test metrics_golden` and review the
//! golden diff like any other API change.

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::BalancePolicy;
use dpi_service::core::overload::OverloadPolicy;
use dpi_service::core::{L7Policy, L7Protocol};
use dpi_service::middlebox::antivirus;
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{MacAddr, Packet};
use dpi_service::SystemBuilder;
use std::path::Path;

const GOLDEN: &str = "tests/golden/metrics_schema.txt";

/// Reduces Prometheus exposition text to its schema: `# HELP`/`# TYPE`
/// lines verbatim, sample lines as `name{label_keys}` with values and
/// label values stripped, duplicates collapsed to their first occurrence
/// so the schema does not depend on instance or shard counts.
fn schema_of(text: &str) -> String {
    let mut out: Vec<String> = Vec::new();
    let mut seen = std::collections::HashSet::new();
    for line in text.lines() {
        if line.is_empty() {
            continue;
        }
        let normalized = if line.starts_with('#') {
            line.to_string()
        } else {
            let (series, _value) = line.rsplit_once(' ').expect("sample line has a value");
            match series.split_once('{') {
                Some((name, labels)) => {
                    let keys: Vec<&str> = labels
                        .trim_end_matches('}')
                        .split(',')
                        .filter_map(|kv| kv.split_once('='))
                        .map(|(k, _)| k)
                        .collect();
                    format!("{name}{{{}}}", keys.join(","))
                }
                None => series.to_string(),
            }
        };
        if seen.insert(normalized.clone()) {
            out.push(normalized);
        }
    }
    let mut s = out.join("\n");
    s.push('\n');
    s
}

#[test]
fn metrics_schema_matches_golden() {
    let sig = b"golden-sig".to_vec();
    let mut sys = SystemBuilder::new()
        .with_middlebox(antivirus(MiddleboxId(1), &[sig]))
        .with_chain(&[MiddleboxId(1)])
        .with_dpi_instances(2)
        .with_dpi_workers(2)
        .with_overload_policy(OverloadPolicy::queue_only(50, 45))
        .with_balance_policy(BalancePolicy::default())
        .with_l7_policy(L7Policy::default())
        .build()
        .expect("system builds");

    // Touch every subsystem so each family has live series: fleet
    // traffic, a heartbeat round (health + overload windows + balancer),
    // and a batch through the sharded pipeline.
    for i in 0..4u16 {
        let f = flow([10, 0, 0, 1], 5000 + i, [10, 0, 0, 2], 80, IpProtocol::Tcp);
        sys.send(f, 0, b"has a golden-sig inside");
    }
    sys.heartbeat_round();
    let f = flow([10, 0, 0, 1], 6000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    let mut pkt = Packet::tcp(
        MacAddr::local(1),
        MacAddr::local(2),
        f,
        0,
        b"golden-sig plus filler".to_vec(),
    );
    pkt.push_chain_tag(sys.chain_ids[0]).unwrap();
    sys.inspect_batch(&mut [pkt]);

    let text = sys.metrics_text();
    let got = schema_of(&text);

    if std::env::var_os("UPDATE_GOLDEN").is_some() {
        std::fs::create_dir_all("tests/golden").expect("create golden dir");
        std::fs::write(GOLDEN, &got).expect("write golden file");
        return;
    }
    let want = std::fs::read_to_string(Path::new(GOLDEN))
        .expect("golden file exists — run with UPDATE_GOLDEN=1 to create it");
    assert_eq!(
        got, want,
        "metrics schema drifted from {GOLDEN}; if intentional, regenerate \
         with UPDATE_GOLDEN=1 and review the diff"
    );
}

#[test]
fn l7_families_have_per_protocol_series() {
    // The L7 families are part of the dashboard contract even when no
    // L7 policy is armed: every protocol label and every scalar family
    // must be present from the first scrape, so panels never start
    // empty and then pop into existence.
    let sig = b"golden-sig".to_vec();
    let sys = SystemBuilder::new()
        .with_middlebox(antivirus(MiddleboxId(1), &[sig]))
        .with_chain(&[MiddleboxId(1)])
        .with_dpi_instances(2)
        .build()
        .expect("system builds");
    let text = sys.metrics_text();
    for family in ["dpi_l7_flows_identified_total", "dpi_l7_matches_total"] {
        for p in L7Protocol::ALL {
            for instance in 0..2 {
                let series = format!(
                    "{family}{{instance=\"{instance}\",protocol=\"{}\"}}",
                    p.name()
                );
                assert!(
                    text.lines().any(|l| l.starts_with(&series)),
                    "missing series {series}"
                );
            }
        }
    }
    for family in [
        "dpi_l7_decoded_bytes_total",
        "dpi_l7_decode_errors_total",
        "dpi_l7_truncations_total",
        "dpi_l7_blocked_flows_total",
        "dpi_l7_bypassed_flows_total",
    ] {
        for instance in 0..2 {
            let series = format!("{family}{{instance=\"{instance}\"}}");
            assert!(
                text.lines().any(|l| l.starts_with(&series)),
                "missing series {series}"
            );
        }
    }
}

#[test]
fn tenant_families_have_per_tenant_series() {
    // Per-tenant attribution (DESIGN.md §16): one series per tenant in
    // every dpi_tenant_* family once that tenant's traffic has been
    // scanned, tagged with the tenant id — and untenanted deployments
    // attribute everything to tenant 0.
    use dpi_service::core::TenantId;
    let mut sys = SystemBuilder::new()
        .with_middlebox(antivirus(MiddleboxId(1), &[b"golden-sig".to_vec()]).owned_by(TenantId(1)))
        .with_middlebox(antivirus(MiddleboxId(2), &[b"other-sig".to_vec()]).owned_by(TenantId(2)))
        .with_chain(&[MiddleboxId(1)])
        .with_chain(&[MiddleboxId(2)])
        .build()
        .expect("system builds");
    for (i, chain) in [0usize, 1].into_iter().enumerate() {
        let f = flow(
            [10, 0, 0, 1],
            7000 + i as u16,
            [10, 0, 0, 2],
            80,
            IpProtocol::Tcp,
        );
        let mut pkt = Packet::tcp(
            MacAddr::local(1),
            MacAddr::local(2),
            f,
            0,
            b"golden-sig and other-sig".to_vec(),
        );
        pkt.push_chain_tag(sys.chain_ids[chain]).unwrap();
        sys.inspect_batch(&mut [pkt]);
    }
    let text = sys.metrics_text();
    for family in [
        "dpi_tenant_packets_total",
        "dpi_tenant_bytes_total",
        "dpi_tenant_matches_total",
        "dpi_tenant_shed_packets_total",
        "dpi_tenant_shed_bytes_total",
    ] {
        for tenant in [1, 2] {
            let series = format!("{family}{{tenant=\"{tenant}\"}}");
            assert!(
                text.lines().any(|l| l.starts_with(&series)),
                "missing series {series}"
            );
        }
    }
    // Each tenant's matches landed on its own series.
    assert!(text.contains("dpi_tenant_matches_total{tenant=\"1\"} 1"));
    assert!(text.contains("dpi_tenant_matches_total{tenant=\"2\"} 1"));
}

#[test]
fn overload_families_have_per_instance_series() {
    // Beyond the schema: the new overload gauges must emit one series
    // per fleet instance even when overload control is unarmed, so
    // dashboards never see families appear and vanish.
    let sig = b"golden-sig".to_vec();
    let sys = SystemBuilder::new()
        .with_middlebox(antivirus(MiddleboxId(1), &[sig]))
        .with_chain(&[MiddleboxId(1)])
        .with_dpi_instances(3)
        .build()
        .expect("system builds");
    let text = sys.metrics_text();
    for family in [
        "dpi_instance_shed_packets_total",
        "dpi_instance_shed_bytes_total",
        "dpi_instance_ce_marked_total",
        "dpi_instance_load_score",
        "dpi_instance_overloaded",
    ] {
        for instance in 0..3 {
            let series = format!("{family}{{instance=\"{instance}\"}}");
            assert!(
                text.lines().any(|l| l.starts_with(&series)),
                "missing series {series}"
            );
        }
    }
}
