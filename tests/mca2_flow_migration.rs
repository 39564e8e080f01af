//! MCA² end-to-end behaviours (§4.3.1): stress detection from real
//! telemetry, flow migration carrying scan state, and recovery.

use dpi_service::ac::MiddleboxId;
use dpi_service::controller::{DpiController, Mca2Action, StressMonitor, StressPolicy};
use dpi_service::core::report::expand_records;
use dpi_service::core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec, ScanEngine};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::traffic::{heavy_payload, patterns, trace::TraceConfig};
use std::sync::Arc;

const IDS: MiddleboxId = MiddleboxId(1);

fn instance_with_workers(pats: &[Vec<u8>], workers: usize) -> DpiInstance {
    let cfg = InstanceConfig::new()
        .with_middlebox(MiddleboxProfile::stateful(IDS), RuleSpec::exact_set(pats))
        .with_chain(1, vec![IDS]);
    DpiInstance::with_workers(Arc::new(ScanEngine::new(cfg).unwrap()), workers)
}

fn instance(pats: &[Vec<u8>]) -> DpiInstance {
    instance_with_workers(pats, 1)
}

#[test]
fn migration_preserves_cross_packet_matches() {
    let pats = vec![b"SPLIT-SIGNATURE-XYZ".to_vec()];
    let f = flow([1, 2, 3, 4], 1111, [5, 6, 7, 8], 80, IpProtocol::Tcp);

    // Worker counts need not agree across the move: the flow leaves the
    // shard that owns it at the source and lands on the one that owns it
    // at the destination.
    for (src_workers, dst_workers) in [(1, 1), (4, 1), (1, 4)] {
        let mut src = instance_with_workers(&pats, src_workers);
        let mut dst = instance_with_workers(&pats, dst_workers);

        // First half of the signature on the source instance.
        let out = src.scan_payload(1, Some(f), b"......SPLIT-SIGN").unwrap();
        assert!(out.reports.is_empty());

        // MCA² migrates the flow (the paper: "flow migration might
        // require some packet buffering at the source instance, until the
        // process is completed" — the simulator migrates between packets).
        let exported = src.export_flow(&f).expect("tracked");
        assert_eq!(src.tracked_flows(), 0, "the flow left the source whole");
        dst.import_flow(f, exported);

        // Second half on the destination instance: the match completes
        // with a correct flow-absolute position.
        let out = dst.scan_payload(1, Some(f), b"ATURE-XYZ rest").unwrap();
        assert_eq!(out.reports.len(), 1, "{src_workers} -> {dst_workers}");
        let hits = expand_records(&out.reports[0].records);
        assert_eq!(hits.len(), 1);
        let flow_pos = out.flow_offset + u64::from(hits[0].1);
        // The signature is 19 bytes and started at byte 6 of the flow.
        assert_eq!(flow_pos, 6 + 19 - 1);
    }
}

#[test]
fn stress_detection_end_to_end_with_real_telemetry() {
    let pats = patterns::snort_like(600, 13);
    let controller = DpiController::new();
    let id = controller.deploy_instance(vec![1]);
    let mut dpi = instance(&pats);
    let mut monitor = StressMonitor::new(StressPolicy::default());
    let f = flow([9, 9, 9, 9], 7, [8, 8, 8, 8], 80, IpProtocol::Tcp);

    // Benign phase: no actions over several rounds.
    let benign = TraceConfig {
        packets: 200,
        seed: 1,
        ..TraceConfig::default()
    }
    .generate(&pats);
    for chunk in benign.chunks(50) {
        for p in chunk {
            dpi.scan_payload(1, Some(f), p).unwrap();
        }
        let delta = controller.report_telemetry(id, dpi.telemetry()).unwrap();
        assert!(monitor.evaluate(&[(id, delta)]).is_empty());
    }

    // Attack phase: sustained heavy traffic triggers exactly one
    // mitigation.
    let mut fired = Vec::new();
    for round in 0..4u64 {
        for i in 0..60 {
            let hp = heavy_payload(&pats, 1400, round * 1000 + i);
            dpi.scan_payload(1, Some(f), &hp).unwrap();
        }
        let delta = controller.report_telemetry(id, dpi.telemetry()).unwrap();
        fired.extend(monitor.evaluate(&[(id, delta)]));
    }
    assert_eq!(
        fired,
        vec![
            Mca2Action::AllocateDedicated {
                stressed: id,
                count: 1
            },
            Mca2Action::MigrateHeavyFlows { from: id },
        ]
    );

    // Recovery phase: benign traffic again; dedicated capacity released.
    let mut released = Vec::new();
    for chunk in benign.chunks(50) {
        for p in chunk {
            dpi.scan_payload(1, Some(f), p).unwrap();
        }
        let delta = controller.report_telemetry(id, dpi.telemetry()).unwrap();
        released.extend(monitor.evaluate(&[(id, delta)]));
    }
    assert_eq!(
        released,
        vec![Mca2Action::ReleaseDedicated { stressed: id }]
    );
}

#[test]
fn instance_native_flow_stress_identifies_heavy_flows() {
    use dpi_service::controller::stress::select_heavy_flows;
    let pats = patterns::snort_like(300, 19);
    let mut dpi = instance(&pats);
    let benign_flow = flow([1, 1, 1, 1], 10, [2, 2, 2, 2], 80, IpProtocol::Tcp);
    let heavy_flow = flow([6, 6, 6, 6], 60, [2, 2, 2, 2], 80, IpProtocol::Tcp);

    let benign_trace = TraceConfig {
        packets: 60,
        seed: 3,
        ..TraceConfig::default()
    }
    .generate(&[]);
    for p in &benign_trace {
        dpi.scan_payload(1, Some(benign_flow), p).unwrap();
    }
    for i in 0..60 {
        let hp = heavy_payload(&pats, 1200, 500 + i);
        dpi.scan_payload(1, Some(heavy_flow), &hp).unwrap();
    }

    // The instance's own per-flow window feeds the selector directly.
    let ratios = dpi.flow_deep_ratios();
    assert_eq!(ratios.len(), 2);
    assert_eq!(ratios[0].0, heavy_flow, "heavy flow must rank first");
    let selected = select_heavy_flows(&ratios, 0.5);
    assert_eq!(selected, vec![heavy_flow]);

    // The window resets once the controller consumed it.
    dpi.reset_flow_stress();
    assert!(dpi.flow_deep_ratios().is_empty());
}

#[test]
fn heavy_flow_selection_matches_per_flow_ratios() {
    use dpi_service::controller::stress::select_heavy_flows;
    let pats = patterns::snort_like(300, 17);
    let mut dpi = instance(&pats);
    let benign_flow = flow([1, 1, 1, 1], 1, [2, 2, 2, 2], 80, IpProtocol::Tcp);
    let heavy_flow = flow([6, 6, 6, 6], 6, [2, 2, 2, 2], 80, IpProtocol::Tcp);

    // Measure per-flow deep ratios by scanning each flow and differencing
    // telemetry (what a per-flow-instrumented instance would report).
    let before = dpi.telemetry();
    let benign_trace = TraceConfig {
        packets: 60,
        seed: 2,
        ..TraceConfig::default()
    }
    .generate(&[]);
    for p in benign_trace {
        dpi.scan_payload(1, Some(benign_flow), &p).unwrap();
    }
    let mid = dpi.telemetry();
    for i in 0..60 {
        let hp = heavy_payload(&pats, 1200, i);
        dpi.scan_payload(1, Some(heavy_flow), &hp).unwrap();
    }
    let after = dpi.telemetry();

    let benign_ratio = mid.delta_since(&before).deep_ratio();
    let heavy_ratio = after.delta_since(&mid).deep_ratio();
    let selected = select_heavy_flows(
        &[(benign_flow, benign_ratio), (heavy_flow, heavy_ratio)],
        0.5,
    );
    assert_eq!(selected, vec![heavy_flow]);
}
