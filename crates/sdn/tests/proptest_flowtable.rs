//! Property tests for the flow table: OpenFlow-like lookup semantics must
//! hold for arbitrary rule sets.

use dpi_packet::ipv4::IpProtocol;
use dpi_packet::packet::flow;
use dpi_packet::{MacAddr, Packet};
use dpi_sdn::{Action, FlowMatch, FlowRule, FlowTable};
use proptest::prelude::*;

fn arbitrary_match() -> impl Strategy<Value = FlowMatch> {
    (
        prop::option::of(0u16..4),
        prop::option::of(0u16..8),
        prop::option::of(any::<bool>()),
        prop::option::of(1u16..5),
    )
        .prop_map(|(in_port, vlan_vid, tagged, l4_dst)| FlowMatch {
            in_port,
            vlan_vid,
            // A vid match implies tagged; keep the strategy consistent.
            tagged: if vlan_vid.is_some() {
                Some(true)
            } else {
                tagged
            },
            l4_dst: l4_dst.map(|p| p * 1000),
            ..FlowMatch::default()
        })
}

fn arbitrary_rules() -> impl Strategy<Value = Vec<FlowRule>> {
    prop::collection::vec(
        (0u16..100, arbitrary_match(), 0u16..4).prop_map(|(priority, m, out)| FlowRule {
            priority,
            m,
            actions: vec![Action::Output(out)],
        }),
        0..20,
    )
}

/// `FlowTable::apply` into a fresh buffer.
fn apply(rule: &FlowRule, packet: Packet) -> Vec<(u16, Packet)> {
    let mut out = Vec::new();
    FlowTable::apply(rule, packet, &mut out);
    out
}

/// The reference `apply` is checked against: one clone per `Output`, and
/// the first `Drop` or failing `PushTag` discards everything.
fn apply_cloning_every_output(rule: &FlowRule, mut packet: Packet) -> Vec<(u16, Packet)> {
    let mut out = Vec::new();
    for a in &rule.actions {
        match a {
            Action::Output(p) => out.push((*p, packet.clone())),
            Action::PushTag(vid) => {
                if packet.push_chain_tag(*vid).is_err() {
                    return Vec::new();
                }
            }
            Action::PopTag => {
                packet.pop_chain_tag();
            }
            Action::Drop => return Vec::new(),
        }
    }
    out
}

/// Action lists mixing outputs, valid and invalid tag pushes, pops and
/// (rarely, or nothing would ever be emitted) drops.
fn arbitrary_actions() -> impl Strategy<Value = Vec<Action>> {
    prop::collection::vec(
        prop_oneof![
            (0u16..4).prop_map(Action::Output),
            (0u16..4).prop_map(Action::Output),
            (0u16..4).prop_map(Action::Output),
            (1u16..0xfff).prop_map(Action::PushTag),
            (1u16..0xfff).prop_map(Action::PushTag),
            (0xfffu16..0x1004).prop_map(Action::PushTag),
            Just(Action::PopTag),
            Just(Action::PopTag),
            Just(Action::Drop),
        ],
        0..7,
    )
}

fn packet(tag: Option<u16>, dst_port: u16) -> Packet {
    let f = flow(
        [10, 0, 0, 1],
        1234,
        [10, 0, 0, 2],
        dst_port,
        IpProtocol::Tcp,
    );
    let mut p = Packet::tcp(MacAddr::local(1), MacAddr::local(2), f, 0, b"x".to_vec());
    if let Some(t) = tag {
        p.push_chain_tag(t).unwrap();
    }
    p
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn lookup_returns_highest_priority_match(
        rules in arbitrary_rules(),
        tag in prop::option::of(0u16..8),
        dst_port in (1u16..5).prop_map(|p| p * 1000),
        in_port in 0u16..4,
    ) {
        let mut table = FlowTable::new();
        for r in &rules {
            table.install(r.clone());
        }
        let pkt = packet(tag, dst_port);
        let hit = table.lookup(&pkt, in_port);
        // Reference computation: max priority among matching rules.
        let best = rules
            .iter()
            .filter(|r| r.m.matches(&pkt, in_port))
            .map(|r| r.priority)
            .max();
        match (hit, best) {
            (None, None) => {}
            (Some(rule), Some(p)) => prop_assert_eq!(rule.priority, p),
            (got, want) => prop_assert!(false, "lookup {got:?} vs expected priority {want:?}"),
        }
    }

    #[test]
    fn install_remove_is_consistent(rules in arbitrary_rules()) {
        let mut table = FlowTable::new();
        for r in &rules {
            table.install(r.clone());
        }
        prop_assert_eq!(table.len(), rules.len());
        let removed = table.remove_where(|r| r.priority % 2 == 0);
        let expected_removed = rules.iter().filter(|r| r.priority % 2 == 0).count();
        prop_assert_eq!(removed, expected_removed);
        prop_assert_eq!(table.len(), rules.len() - expected_removed);
    }

    #[test]
    fn output_only_rules_preserve_packets(
        tag in prop::option::of(0u16..8),
        dst_port in (1u16..5).prop_map(|p| p * 1000),
    ) {
        let rule = FlowRule {
            priority: 1,
            m: FlowMatch::any(),
            actions: vec![Action::Output(3)],
        };
        let pkt = packet(tag, dst_port);
        let out = apply(&rule, pkt.clone());
        prop_assert_eq!(out.len(), 1);
        prop_assert_eq!(&out[0].1, &pkt);
    }

    #[test]
    fn push_then_pop_restores_packet(tag in 0u16..0xfff) {
        let push = FlowRule {
            priority: 1,
            m: FlowMatch::any(),
            actions: vec![Action::PushTag(tag), Action::Output(0)],
        };
        let pop = FlowRule {
            priority: 1,
            m: FlowMatch::any(),
            actions: vec![Action::PopTag, Action::Output(0)],
        };
        let pkt = packet(None, 2000);
        let tagged = apply(&push, pkt.clone()).remove(0).1;
        prop_assert_eq!(tagged.chain_tag(), Some(tag));
        let restored = apply(&pop, tagged).remove(0).1;
        prop_assert_eq!(restored, pkt);
    }

    #[test]
    fn apply_equals_the_clone_per_output_reference(
        actions in arbitrary_actions(),
        tag in prop::option::of(0u16..8),
    ) {
        let rule = FlowRule { priority: 1, m: FlowMatch::any(), actions };
        let pkt = packet(tag, 2000);
        // A buffer that already holds an emission: `apply` appends and
        // never touches what another rule left there.
        let earlier = (9, packet(None, 1000));
        let mut out = vec![earlier.clone()];
        FlowTable::apply(&rule, pkt.clone(), &mut out);
        prop_assert_eq!(&out[0], &earlier);
        prop_assert_eq!(&out[1..], &apply_cloning_every_output(&rule, pkt)[..]);
    }
}
