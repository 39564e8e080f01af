//! Multiple policy chains through one DPI service — the Figure 3/Figure 5
//! scenario.
//!
//! Two traffic classes share a network:
//!
//! * chain 1 (HTTP):  DPI → L7 load balancer → traffic shaper
//! * chain 2 (other): DPI → IPS
//!
//! The DPI service scans each packet once against the union of the
//! *active* middleboxes' patterns (selected by the chain tag), and each
//! middlebox applies its own logic to the shared results.
//!
//! Run with: `cargo run --example policy_chain_network`

use dpi_service::ac::MiddleboxId;
use dpi_service::middlebox::{ips, l7_load_balancer, traffic_shaper};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::SystemBuilder;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    const LB: MiddleboxId = MiddleboxId(1);
    const SHAPER: MiddleboxId = MiddleboxId(2);
    const IPS_ID: MiddleboxId = MiddleboxId(3);

    let lb = l7_load_balancer(
        LB,
        &[
            (b"GET /api/".to_vec(), 1),
            (b"GET /static/".to_vec(), 2),
            (b"GET /video/".to_vec(), 3),
        ],
    );
    let shaper = traffic_shaper(
        SHAPER,
        &[
            (b"GET /video/".to_vec(), 7), // video class
            (b"bittorrent-proto".to_vec(), 1),
        ],
    );
    let ips_box = ips(
        IPS_ID,
        &[b"SQL-INJECTION-ATTEMPT".to_vec(), b"xp_cmdshell".to_vec()],
    );

    let mut system = SystemBuilder::new()
        .with_middlebox(lb)
        .with_middlebox(shaper)
        .with_middlebox(ips_box)
        .with_chain(&[LB, SHAPER]) // chain for HTTP traffic
        .with_chain(&[IPS_ID]) // chain for everything else
        .build()?;

    // HTTP flows take chain 1 (installed first → first ingress rule wins
    // for this single-ingress demo; chain selection by traffic class is
    // the TSA's job and is demonstrated per-flow in the tests).
    let http_flow = flow([10, 0, 0, 1], 40000, [10, 0, 0, 2], 80, IpProtocol::Tcp);
    let requests: [&[u8]; 4] = [
        b"GET /api/users HTTP/1.1\r\nHost: svc\r\n\r\n",
        b"GET /video/cat.mp4 HTTP/1.1\r\nHost: cdn\r\n\r\n",
        b"GET /static/app.js HTTP/1.1\r\nHost: cdn\r\n\r\n",
        b"POST /upload HTTP/1.1\r\nHost: svc\r\n\r\n",
    ];
    for (i, r) in requests.iter().enumerate() {
        system.send(http_flow, i as u32 * 1000, r);
    }

    let lb_stats = system.stats_of(LB).expect("lb registered");
    let shaper_stats = system.stats_of(SHAPER).expect("shaper registered");
    println!("chain 1 (HTTP): DPI → L7-LB → shaper");
    println!(
        "  load balancer : {} packets seen, {} steering rules fired",
        lb_stats.packets, lb_stats.rules_fired
    );
    println!(
        "  shaper        : {} packets seen, {} shaping rules fired",
        shaper_stats.packets, shaper_stats.rules_fired
    );
    let t = system.dpi_telemetry();
    println!(
        "  DPI service   : {} packets / {} bytes scanned once each",
        t.packets, t.bytes
    );
    println!(
        "  destination   : {} of {} packets delivered",
        system.sink.count(),
        requests.len()
    );

    assert_eq!(lb_stats.packets, 4);
    assert_eq!(lb_stats.rules_fired, 3); // /api, /video, /static
    assert_eq!(shaper_stats.rules_fired, 1); // /video
    assert_eq!(system.sink.count(), 4);
    println!("\nmultiple chains, one shared scan per packet ✓");
    Ok(())
}
