//! Instance configuration: middlebox profiles and policy chains.
//!
//! "Upon instantiation, the DPI controller passes to the DPI instance the
//! pattern sets and the corresponding middlebox identifiers. Along with
//! these sets, the DPI controller may pass additional information, such as
//! a stopping condition for each middlebox …, or whether the middlebox is
//! stateless … or stateful …. Moreover, the DPI controller passes the
//! mapping between policy chain identifiers and the corresponding
//! middlebox identifiers in the chain." (§5.1)

use crate::reassembly::ConflictPolicy;
use crate::rules::RuleSpec;
use dpi_ac::{KernelKind, MiddleboxId};
use serde::{Deserialize, Serialize};

/// A tenant of the shared DPI service (DESIGN.md §16). Every middlebox
/// belongs to exactly one tenant; policy chains must be
/// tenant-homogeneous, so a match report can only ever reach the owning
/// tenant's middleboxes. Tenant 0 is the default: single-tenant
/// deployments never mention tenants and behave exactly as before the
/// concept existed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantId(pub u16);

impl TenantId {
    /// The implicit tenant of untenanted configurations.
    pub const DEFAULT: TenantId = TenantId(0);
}

// Hand-written so a missing/null `tenant` field in a serialized profile
// (anything written before tenancy existed) lands on the default tenant
// instead of failing to deserialize.
impl Serialize for TenantId {
    fn serialize(&self) -> serde::Value {
        serde::Value::U64(u64::from(self.0))
    }
}

impl Deserialize for TenantId {
    fn deserialize(v: &serde::Value) -> Result<TenantId, serde::DeError> {
        match v {
            serde::Value::Null => Ok(TenantId::DEFAULT),
            other => u16::deserialize(other).map(TenantId),
        }
    }
}

impl std::fmt::Display for TenantId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.0)
    }
}

/// A rule together with the middlebox-local identifier it is reported
/// under. Identifiers need not be dense — the controller preserves
/// whatever rule ids each middlebox reported (§4.1).
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct NumberedRule {
    /// The middlebox-local rule id.
    pub id: u16,
    /// The rule body.
    pub spec: RuleSpec,
}

impl NumberedRule {
    /// Numbers a rule list positionally (id = index).
    pub fn sequence(rules: Vec<RuleSpec>) -> Vec<NumberedRule> {
        rules
            .into_iter()
            .enumerate()
            .map(|(i, spec)| NumberedRule { id: i as u16, spec })
            .collect()
    }
}

/// Per-middlebox scanning properties (§4.1 registration options).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiddleboxProfile {
    /// The middlebox's registered identifier.
    pub id: MiddleboxId,
    /// `true` if the DPI scan must "maintain state across the packet
    /// boundaries of a flow".
    pub stateful: bool,
    /// `true` if the middlebox "performs no actions at the packet itself
    /// and therefore requires receiving only pattern matching results" —
    /// an IDS, as opposed to an IPS. Recorded and carried in the
    /// registration, but not yet acted on: a read-only middlebox still
    /// receives its data packets (results-only delivery is ROADMAP
    /// item 7).
    pub read_only: bool,
    /// "How deep into L7 payload the DPI instance should look": matches
    /// ending after this many bytes (of the packet for stateless
    /// middleboxes, of the flow for stateful ones) are not reported.
    /// `None` = unbounded.
    pub stopping_condition: Option<u64>,
    /// `true` if this middlebox's verdicts are **fail-closed**: traffic on
    /// its chains must never skip scanning, even when the DPI service is
    /// overloaded (an IPS that blocks on verdicts, as opposed to an IDS
    /// that merely observes). Fail-open (`false`, the default) chains may
    /// have scans shed under overload — the packets still flow, CE-marked,
    /// they just produce no results (same split as result delivery:
    /// fail-open for data, fail-closed for verdicts).
    pub fail_closed: bool,
    /// L7 protocol subscription: this middlebox only receives matches
    /// from *decoded* payload units of protocols in the mask (DESIGN.md
    /// §14). `None` — the default — subscribes to everything. The raw
    /// fallback for unidentified flows is never filtered: when the L7
    /// layer can't name the protocol, every middlebox sees the bytes,
    /// exactly as before the layer existed.
    pub l7_protocols: Option<crate::l7::ProtocolMask>,
    /// The tenant this middlebox belongs to (DESIGN.md §16). Defaults to
    /// [`TenantId::DEFAULT`], so untenanted configurations (and old
    /// serialized ones) deserialize unchanged.
    #[serde(default)]
    pub tenant: TenantId,
}

impl MiddleboxProfile {
    /// A stateless, full-packet, read-write profile — the common default.
    pub fn stateless(id: MiddleboxId) -> MiddleboxProfile {
        MiddleboxProfile {
            id,
            stateful: false,
            read_only: false,
            stopping_condition: None,
            fail_closed: false,
            l7_protocols: None,
            tenant: TenantId::DEFAULT,
        }
    }

    /// A stateful profile (IDS-style cross-packet matching).
    pub fn stateful(id: MiddleboxId) -> MiddleboxProfile {
        MiddleboxProfile {
            stateful: true,
            ..MiddleboxProfile::stateless(id)
        }
    }

    /// Marks the profile read-only (recorded; see the field).
    pub fn read_only(mut self) -> MiddleboxProfile {
        self.read_only = true;
        self
    }

    /// Sets the stopping condition.
    pub fn with_stop(mut self, bytes: u64) -> MiddleboxProfile {
        self.stopping_condition = Some(bytes);
        self
    }

    /// Marks the middlebox fail-closed: its chains' traffic is never
    /// shed under overload.
    pub fn fail_closed(mut self) -> MiddleboxProfile {
        self.fail_closed = true;
        self
    }

    /// Restricts the middlebox to decoded payloads of the given L7
    /// protocols (DESIGN.md §14).
    pub fn with_l7_protocols(mut self, mask: crate::l7::ProtocolMask) -> MiddleboxProfile {
        self.l7_protocols = Some(mask);
        self
    }

    /// Whether this middlebox subscribes to decoded units of `proto`.
    pub fn subscribes(&self, proto: crate::l7::L7Protocol) -> bool {
        self.l7_protocols.is_none_or(|m| m.contains(proto))
    }

    /// Assigns the middlebox to a tenant (DESIGN.md §16).
    pub fn owned_by(mut self, tenant: TenantId) -> MiddleboxProfile {
        self.tenant = tenant;
        self
    }
}

/// One policy chain: the ordered middlebox types a tagged packet visits.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ChainSpec {
    /// The identifier the TSA encodes in the packet tag (§4.1).
    pub chain_id: u16,
    /// The middlebox types on the chain, in traversal order. Only members
    /// that registered pattern sets are relevant to the DPI instance.
    pub members: Vec<MiddleboxId>,
}

/// Everything a DPI service instance is initialized with (§5.1).
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct InstanceConfig {
    /// Scanning profiles for every registered middlebox.
    pub profiles: Vec<MiddleboxProfile>,
    /// Each middlebox's rule list with explicit rule ids.
    pub pattern_sets: Vec<(MiddleboxId, Vec<NumberedRule>)>,
    /// Policy-chain-id → members mapping.
    pub chains: Vec<ChainSpec>,
    /// Maximum tracked flows before the flow table evicts (stateful scans
    /// only). Defaults to [`InstanceConfig::DEFAULT_MAX_FLOWS`].
    pub max_flows: Option<usize>,
    /// Which driver the instance's engine walks its automaton with.
    /// [`KernelKind::Auto`] (the default) is the lane-interleaved table
    /// scan; the table's cell width and the lane count are never a
    /// choice, they follow the state count and the payload.
    pub kernel: KernelKind,
    /// How the shared reassembler resolves byte-level conflicts between
    /// overlapping TCP segment copies. [`ConflictPolicy::FirstWins`] (the
    /// default) preserves the historical Snort-style behaviour.
    pub conflict_policy: ConflictPolicy,
    /// L7 inspection policy (DESIGN.md §14). `None` — the default —
    /// identifies no protocol, and the packet path
    /// ([`crate::DpiInstance::inspect`]) then does no reassembly at all:
    /// it scans each payload raw, in arrival order. Only
    /// `scan_tcp_segment` still reassembles, and scans the runs raw.
    pub l7: Option<crate::l7::L7Policy>,
    /// Total per-shard flow-state byte budget. When the arena's byte
    /// accounting exceeds it, cold flows are evicted (fail-open) until
    /// the total fits again. `None` — the default — disables the budget;
    /// the entry-count bound still applies.
    #[serde(default)]
    pub max_flow_bytes: Option<u64>,
}

impl InstanceConfig {
    /// Default flow-table capacity.
    pub const DEFAULT_MAX_FLOWS: usize = 65536;

    /// Starts an empty config.
    pub fn new() -> InstanceConfig {
        InstanceConfig::default()
    }

    /// Adds a middlebox with its profile and positionally-numbered rules.
    pub fn with_middlebox(self, profile: MiddleboxProfile, rules: Vec<RuleSpec>) -> InstanceConfig {
        self.with_middlebox_numbered(profile, NumberedRule::sequence(rules))
    }

    /// Adds a middlebox with explicitly-numbered rules.
    pub fn with_middlebox_numbered(
        mut self,
        profile: MiddleboxProfile,
        rules: Vec<NumberedRule>,
    ) -> InstanceConfig {
        self.pattern_sets.push((profile.id, rules));
        self.profiles.push(profile);
        self
    }

    /// Adds a policy chain.
    pub fn with_chain(mut self, chain_id: u16, members: Vec<MiddleboxId>) -> InstanceConfig {
        self.chains.push(ChainSpec { chain_id, members });
        self
    }

    /// Selects the scan kernel for the instance's engine.
    pub fn with_kernel(mut self, kernel: KernelKind) -> InstanceConfig {
        self.kernel = kernel;
        self
    }

    /// Selects the reassembly conflict policy for the instance's shards.
    pub fn with_conflict_policy(mut self, policy: ConflictPolicy) -> InstanceConfig {
        self.conflict_policy = policy;
        self
    }

    /// Enables L7 protocol inspection on the instance's TCP path with
    /// the given per-protocol policy (DESIGN.md §14).
    pub fn with_l7_policy(mut self, policy: crate::l7::L7Policy) -> InstanceConfig {
        self.l7 = Some(policy);
        self
    }

    /// Caps each shard's flow-state bytes; cold flows are evicted
    /// (fail-open) to stay under the budget. Zero disables the cap.
    pub fn with_max_flow_bytes(mut self, bytes: u64) -> InstanceConfig {
        self.max_flow_bytes = (bytes > 0).then_some(bytes);
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn profile_builders() {
        let p = MiddleboxProfile::stateful(MiddleboxId(3))
            .read_only()
            .with_stop(512);
        assert!(p.stateful && p.read_only);
        assert_eq!(p.stopping_condition, Some(512));
        let q = MiddleboxProfile::stateless(MiddleboxId(1));
        assert!(!q.stateful && !q.read_only && q.stopping_condition.is_none());
    }

    #[test]
    fn config_builder_accumulates() {
        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(0)),
                vec![RuleSpec::exact(b"x".to_vec())],
            )
            .with_chain(1, vec![MiddleboxId(0)]);
        assert_eq!(cfg.profiles.len(), 1);
        assert_eq!(cfg.pattern_sets.len(), 1);
        assert_eq!(cfg.chains.len(), 1);
    }

    #[test]
    fn config_round_trips_as_json() {
        let cfg = InstanceConfig::new().with_middlebox(
            MiddleboxProfile::stateful(MiddleboxId(9)),
            vec![RuleSpec::regex("a+")],
        );
        let j = serde_json::to_string(&cfg).unwrap();
        let back: InstanceConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back.profiles, cfg.profiles);
        assert_eq!(back.pattern_sets, cfg.pattern_sets);
        assert_eq!(back.conflict_policy, cfg.conflict_policy);
    }

    #[test]
    fn l7_policy_round_trips_and_defaults_off() {
        use crate::l7::{L7Action, L7Policy, L7Protocol, ProtocolMask, ProtocolPolicy};
        assert!(InstanceConfig::new().l7.is_none());
        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(2))
                    .with_l7_protocols(ProtocolMask::only(&[L7Protocol::Tls])),
                vec![RuleSpec::exact(b"evil".to_vec())],
            )
            .with_l7_policy(L7Policy::default().with(
                L7Protocol::WebSocket,
                ProtocolPolicy::intercept(4096).with_action(L7Action::Bypass),
            ));
        let j = serde_json::to_string(&cfg).unwrap();
        let back: InstanceConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back.l7, cfg.l7);
        assert_eq!(back.profiles, cfg.profiles);
        assert!(back.profiles[0].subscribes(L7Protocol::Tls));
        assert!(!back.profiles[0].subscribes(L7Protocol::Http1));
        // Unsubscribed profiles see everything.
        assert!(MiddleboxProfile::stateless(MiddleboxId(1)).subscribes(L7Protocol::Http1));
    }

    #[test]
    fn tenant_fields_default_and_round_trip() {
        // Untenanted configs (and old serialized ones) land on tenant 0.
        let plain = MiddleboxProfile::stateless(MiddleboxId(1));
        assert_eq!(plain.tenant, TenantId::DEFAULT);
        let old_json = r#"{"id":3,"stateful":false,"read_only":false,
            "stopping_condition":null,"fail_closed":false,"l7_protocols":null}"#;
        let back: MiddleboxProfile = serde_json::from_str(old_json).unwrap();
        assert_eq!(back.tenant, TenantId(0));

        let cfg = InstanceConfig::new().with_middlebox(
            MiddleboxProfile::stateless(MiddleboxId(1)).owned_by(TenantId(2)),
            vec![RuleSpec::exact(b"x".to_vec())],
        );
        let j = serde_json::to_string(&cfg).unwrap();
        let back: InstanceConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back, cfg);
        assert_eq!(back.profiles[0].tenant, TenantId(2));
    }

    #[test]
    fn conflict_policy_round_trips_and_defaults() {
        // A fresh config defaults to the historical first-wins behaviour.
        assert_eq!(
            InstanceConfig::new().conflict_policy,
            ConflictPolicy::FirstWins
        );
        let cfg = InstanceConfig::new().with_conflict_policy(ConflictPolicy::RejectFlow);
        let j = serde_json::to_string(&cfg).unwrap();
        let back: InstanceConfig = serde_json::from_str(&j).unwrap();
        assert_eq!(back.conflict_policy, ConflictPolicy::RejectFlow);
        // A removed policy older peers may still send is rejected, not
        // defaulted.
        assert!(serde_json::from_str::<ConflictPolicy>("\"last_wins\"").is_err());
    }
}
