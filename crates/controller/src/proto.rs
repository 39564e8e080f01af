//! The controller↔middlebox message protocol.
//!
//! "Communication between the DPI Controller and middleboxes is performed
//! using JSON messages sent over a direct (possibly secure) communication
//! channel." (§4.1) — the types here serialize with `serde_json` and are
//! the exact payloads the [`crate::DpiController`] consumes and emits.

use dpi_ac::MiddleboxId;
use dpi_core::rules::RuleSpec;
use serde::{Deserialize, Serialize};

/// A middlebox-to-controller message.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
#[serde(tag = "type", rename_all = "snake_case")]
pub enum ControllerMessage {
    /// Registers a middlebox with the DPI service (§4.1: "a middlebox
    /// registers itself to the DPI service using a registration message.
    /// The DPI Controller address and the middlebox's unique ID and name
    /// are preconfigured").
    Register {
        /// The preconfigured unique identifier.
        middlebox_id: u16,
        /// Human-readable name.
        name: String,
        /// "A middlebox may inherit the pattern set of an already
        /// registered middlebox."
        inherit_from: Option<u16>,
        /// Whether DPI state must span packet boundaries of a flow.
        stateful: bool,
        /// Whether the middlebox only reads results (an IDS, as opposed
        /// to an IPS): §4.1's registration option, recorded in the
        /// profile but not yet acted on — a read-only middlebox still
        /// receives its data packets (ROADMAP item 7).
        read_only: bool,
        /// Optional L7 scan depth bound.
        stopping_condition: Option<u64>,
    },
    /// Adds one rule to the middlebox's pattern set.
    AddPattern {
        /// The registered middlebox.
        middlebox_id: u16,
        /// The middlebox's own rule identifier, reported back on matches.
        rule_id: u16,
        /// The rule body.
        rule: RuleSpec,
    },
    /// Removes one rule ("when a pattern removal request is received, the
    /// DPI Controller removes the middlebox reference to the corresponding
    /// pattern. Only if there are no other middleboxes' referrals to that
    /// pattern, is it removed").
    RemovePattern {
        /// The registered middlebox.
        middlebox_id: u16,
        /// The rule to remove.
        rule_id: u16,
    },
    /// Deregisters the middlebox and drops all its references.
    Deregister {
        /// The middlebox to remove.
        middlebox_id: u16,
    },
    /// A deployed DPI instance's liveness beacon. Instances send one per
    /// heartbeat window; the controller's health monitor walks silent
    /// instances down `Healthy → Suspect → Dead` and re-steers a dead
    /// instance's flows to survivors (§4's resiliency responsibility).
    Heartbeat {
        /// The deployed instance reporting in.
        instance_id: u32,
        /// Monotonic per-instance sequence number; a delayed duplicate
        /// (seq ≤ last seen) is ignored so it cannot resurrect a dead
        /// instance. Zero means "unsequenced" and is always accepted.
        seq: u64,
    },
}

/// A controller-to-middlebox reply.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
#[serde(tag = "status", rename_all = "snake_case")]
pub enum ControllerReply {
    /// The request was applied.
    Ok,
    /// The request was applied; echoes the registered id.
    Registered {
        /// The middlebox id now active.
        middlebox_id: u16,
    },
    /// The request failed.
    Error {
        /// Human-readable reason.
        reason: String,
    },
}

impl ControllerMessage {
    /// Serializes to the JSON wire form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("protocol types always serialize")
    }

    /// Parses the JSON wire form.
    pub fn from_json(s: &str) -> Result<ControllerMessage, serde_json::Error> {
        serde_json::from_str(s)
    }
}

impl ControllerReply {
    /// Serializes to the JSON wire form.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("protocol types always serialize")
    }

    /// Parses the JSON wire form.
    pub fn from_json(s: &str) -> Result<ControllerReply, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Convenience predicate.
    pub fn is_ok(&self) -> bool {
        !matches!(self, ControllerReply::Error { .. })
    }
}

/// Helper: the profile carried by a Register message.
pub fn profile_of_register(msg: &ControllerMessage) -> Option<dpi_core::MiddleboxProfile> {
    match msg {
        ControllerMessage::Register {
            middlebox_id,
            stateful,
            read_only,
            stopping_condition,
            ..
        } => Some(dpi_core::MiddleboxProfile {
            id: MiddleboxId(*middlebox_id),
            stateful: *stateful,
            read_only: *read_only,
            stopping_condition: *stopping_condition,
            // The wire registration carries neither overload semantics,
            // L7 subscriptions, nor tenancy; all are operator-side
            // deployment properties.
            fail_closed: false,
            l7_protocols: None,
            tenant: dpi_core::TenantId::DEFAULT,
        }),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn register_round_trips_as_json() {
        let m = ControllerMessage::Register {
            middlebox_id: 3,
            name: "snort-ids".into(),
            inherit_from: None,
            stateful: true,
            read_only: true,
            stopping_condition: Some(1500),
        };
        let j = m.to_json();
        assert!(j.contains("\"type\":\"register\""));
        assert_eq!(ControllerMessage::from_json(&j).unwrap(), m);
    }

    #[test]
    fn add_pattern_carries_rule_bodies() {
        let m = ControllerMessage::AddPattern {
            middlebox_id: 1,
            rule_id: 9,
            rule: RuleSpec::regex(r"evil\d+payload"),
        };
        let j = m.to_json();
        let back = ControllerMessage::from_json(&j).unwrap();
        assert_eq!(back, m);
    }

    #[test]
    fn replies_round_trip() {
        for r in [
            ControllerReply::Ok,
            ControllerReply::Registered { middlebox_id: 7 },
            ControllerReply::Error {
                reason: "nope".into(),
            },
        ] {
            assert_eq!(ControllerReply::from_json(&r.to_json()).unwrap(), r);
        }
        assert!(ControllerReply::Ok.is_ok());
        assert!(!ControllerReply::Error { reason: "x".into() }.is_ok());
    }

    #[test]
    fn heartbeat_round_trips_as_json() {
        let m = ControllerMessage::Heartbeat {
            instance_id: 4,
            seq: 17,
        };
        let j = m.to_json();
        assert!(j.contains("\"type\":\"heartbeat\""));
        assert_eq!(ControllerMessage::from_json(&j).unwrap(), m);
    }

    #[test]
    fn malformed_json_is_an_error() {
        assert!(ControllerMessage::from_json("{\"type\":\"noSuch\"}").is_err());
        // Neither a controller → instance message nor a generation ack
        // older peers may still send parses: the orchestrator's committed
        // generation is the only record of what instances serve.
        for removed in [
            r#"{"type":"begin_update","instance_id":1,"generation":3,"payload":"{}","checksum":0}"#,
            r#"{"type":"ack_generation","instance_id":7,"generation":4}"#,
        ] {
            assert!(ControllerMessage::from_json(removed).is_err(), "{removed}");
        }
    }

    #[test]
    fn profile_extraction() {
        let m = ControllerMessage::Register {
            middlebox_id: 2,
            name: "av".into(),
            inherit_from: None,
            stateful: false,
            read_only: false,
            stopping_condition: None,
        };
        let p = profile_of_register(&m).unwrap();
        assert_eq!(p.id, MiddleboxId(2));
        assert!(profile_of_register(&ControllerMessage::Deregister { middlebox_id: 2 }).is_none());
    }

    #[test]
    fn deeply_nested_json_is_an_error_not_a_stack_overflow() {
        assert!(ControllerMessage::from_json(&"[".repeat(100_000)).is_err());
        let nested = format!("{}{}", "[".repeat(100_000), "]".repeat(100_000));
        assert!(ControllerMessage::from_json(&nested).is_err());
    }
}
