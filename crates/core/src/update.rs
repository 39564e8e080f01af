//! Live rule updates: generation-versioned automaton hot swap.
//!
//! §4.1 lets middleboxes add and remove patterns at runtime, but a
//! production fleet cannot stop the world to recompile: the combined
//! automaton must be rebuilt **off the hot path** and swapped into
//! running scan engines without blocking a single packet. This module is
//! the data-plane half of that pipeline:
//!
//! * [`GenerationId`] — every compiled [`ScanEngine`] carries the rule
//!   generation it was built from, and every
//!   [`dpi_packet::report::ResultPacket`] carries the generation that
//!   produced it, so **every match result is attributable to exactly one
//!   rule generation**.
//! * [`UpdateArtifact`] — the unit shipped from controller to instance: a
//!   serialized [`InstanceConfig`] plus generation and checksum. An
//!   artifact corrupted in transit (the chaos `corrupt-rule-update`
//!   fault) fails [`UpdateArtifact::validate`] and is **rejected**; the
//!   instance keeps serving its current generation.
//! * [`crate::pipeline::DpiInstance::swap_engine`] — the adoption point.
//!   The artifact is compiled off the packet path and the finished
//!   engine handed over between calls (`&mut self` is the drain
//!   barrier); an instance refuses any `offered <= current` generation,
//!   and old generations are reclaimed by the last `Arc` drop. It
//!   returns the swap pause (`paper_claims`' DESIGN §9 row holds it 20
//!   times below the compile) and traces every swap and refusal.
//!
//! Cross-packet flow state is tagged with the generation that wrote it
//! (see [`crate::arena::FlowArena`]); a flow whose state predates the
//! running generation deterministically re-anchors at the new automaton's
//! root. Re-anchoring can only *miss* a match straddling the swap — never
//! fabricate one — by the same stateless-deletion argument as failover
//! (DESIGN.md §8); the full generation semantics live in DESIGN.md §9.

use crate::config::InstanceConfig;
use crate::instance::{InstanceError, ScanEngine};
use std::sync::Arc;

/// A rule generation: monotonically increasing per deployment, starting
/// at 0 for the initially-compiled configuration.
pub type GenerationId = u32;

/// Why an update artifact was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum UpdateError {
    /// The artifact's checksum does not match its payload — it was
    /// corrupted in transit and must not be compiled.
    ChecksumMismatch {
        /// Checksum the artifact claims.
        expected: u64,
        /// Checksum of the payload as received.
        actual: u64,
    },
    /// The payload passed its checksum but did not deserialize into an
    /// [`InstanceConfig`].
    Malformed(String),
    /// The configuration deserialized but failed to compile.
    Build(String),
    /// A generation that must move forward tried to move backward (a
    /// stale artifact arriving after a newer one was applied).
    StaleGeneration {
        /// Generation currently running.
        current: GenerationId,
        /// Generation the artifact carries.
        offered: GenerationId,
    },
}

impl std::fmt::Display for UpdateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            UpdateError::ChecksumMismatch { expected, actual } => write!(
                f,
                "artifact checksum mismatch (expected {expected:#018x}, got {actual:#018x})"
            ),
            UpdateError::Malformed(e) => write!(f, "artifact payload malformed: {e}"),
            UpdateError::Build(e) => write!(f, "artifact failed to compile: {e}"),
            UpdateError::StaleGeneration { current, offered } => write!(
                f,
                "stale generation {offered} offered while {current} is running"
            ),
        }
    }
}

impl std::error::Error for UpdateError {}

/// FNV-1a over the payload, mixed with the generation so an artifact
/// replayed under the wrong generation also fails validation.
fn checksum(generation: GenerationId, payload: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in u64::from(generation)
        .to_be_bytes()
        .iter()
        .chain(payload.iter())
    {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The unit of a rule update in transit: one generation's full
/// [`InstanceConfig`], serialized, checksummed, attributable.
///
/// Shipping the *pattern set* rather than a compiled automaton is the
/// paper's §4.1 transfer-size argument; [`UpdateArtifact::transfer_bytes`]
/// is the per-update cost the controller reports (Fig. 11).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct UpdateArtifact {
    /// The generation this artifact installs.
    pub generation: GenerationId,
    /// Serialized [`InstanceConfig`] (JSON, same wire idiom as the
    /// controller protocol).
    pub payload: String,
    /// FNV-1a checksum of generation + payload, computed at build time.
    pub checksum: u64,
}

impl UpdateArtifact {
    /// Serializes `config` as generation `generation`.
    pub fn build(generation: GenerationId, config: &InstanceConfig) -> UpdateArtifact {
        let payload =
            serde_json::to_string(config).expect("instance configuration always serializes");
        let checksum = checksum(generation, payload.as_bytes());
        UpdateArtifact {
            generation,
            payload,
            checksum,
        }
    }

    /// Bytes this update moves from controller to instance (Fig. 11's
    /// bytes-per-pattern-set-update metric counts this).
    pub fn transfer_bytes(&self) -> usize {
        // generation + checksum words + the serialized configuration.
        4 + 8 + self.payload.len()
    }

    /// Simulates in-transit corruption (the chaos `corrupt-rule-update`
    /// fault): garbles the payload without touching the checksum, so
    /// validation must catch it.
    pub fn corrupt(&mut self) {
        let mut bytes = self.payload.clone().into_bytes();
        if let Some(b) = bytes.first_mut() {
            *b ^= 0x5a;
        }
        let mid = bytes.len() / 2;
        if let Some(b) = bytes.get_mut(mid) {
            *b ^= 0xa5;
        }
        self.payload = String::from_utf8_lossy(&bytes).into_owned();
    }

    /// Integrity-checks and deserializes the artifact. A corrupt artifact
    /// is rejected here, *before* any compilation — the receiving
    /// instance keeps serving its current generation.
    pub fn validate(&self) -> Result<InstanceConfig, UpdateError> {
        let actual = checksum(self.generation, self.payload.as_bytes());
        if actual != self.checksum {
            return Err(UpdateError::ChecksumMismatch {
                expected: self.checksum,
                actual,
            });
        }
        serde_json::from_str(&self.payload).map_err(|e| UpdateError::Malformed(e.to_string()))
    }

    /// Validates, then compiles the artifact into a [`ScanEngine`] at its
    /// generation — the off-hot-path build step. The caller swaps the
    /// returned engine in via
    /// [`crate::pipeline::DpiInstance::swap_engine`].
    pub fn compile(&self) -> Result<Arc<ScanEngine>, UpdateError> {
        let config = self.validate()?;
        ScanEngine::with_generation(config, self.generation)
            .map(Arc::new)
            .map_err(|e: InstanceError| UpdateError::Build(e.to_string()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::MiddleboxProfile;
    use crate::rules::RuleSpec;
    use dpi_ac::MiddleboxId;

    fn config(patterns: &[&[u8]]) -> InstanceConfig {
        InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                patterns
                    .iter()
                    .map(|p| RuleSpec::exact(p.to_vec()))
                    .collect(),
            )
            .with_chain(5, vec![MiddleboxId(1)])
    }

    #[test]
    fn artifact_round_trips_and_compiles_at_its_generation() {
        let art = UpdateArtifact::build(7, &config(&[b"sig-a", b"sig-b"]));
        assert_eq!(art.validate().unwrap(), config(&[b"sig-a", b"sig-b"]));
        let engine = art.compile().unwrap();
        assert_eq!(engine.generation(), 7);
        assert!(art.transfer_bytes() > art.payload.len());
    }

    #[test]
    fn corrupted_artifact_is_rejected_before_compilation() {
        let mut art = UpdateArtifact::build(1, &config(&[b"sig-a"]));
        art.corrupt();
        assert!(matches!(
            art.validate().unwrap_err(),
            UpdateError::ChecksumMismatch { .. }
        ));
        assert!(art.compile().is_err());
    }

    #[test]
    fn checksum_binds_the_generation() {
        let mut art = UpdateArtifact::build(1, &config(&[b"sig-a"]));
        // Replaying the same payload as a different generation must fail.
        art.generation = 2;
        assert!(matches!(
            art.validate().unwrap_err(),
            UpdateError::ChecksumMismatch { .. }
        ));
    }

    #[test]
    fn artifact_naming_an_unknown_kernel_is_malformed_not_defaulted() {
        // What a peer still speaking an older `KernelKind` ships: intact
        // in transit, so only deserialization can refuse it.
        let payload = serde_json::to_string(&config(&[b"sig-b"]))
            .unwrap()
            .replace("\"kernel\":\"auto\"", "\"kernel\":\"prefiltered\"");
        assert!(payload.contains("\"kernel\":\"prefiltered\""));
        let art = UpdateArtifact {
            generation: 3,
            checksum: checksum(3, payload.as_bytes()),
            payload,
        };
        assert!(matches!(
            art.validate().unwrap_err(),
            UpdateError::Malformed(_)
        ));
        // Nothing compiles, so the receiver keeps serving what it has.
        assert!(art.compile().is_err());
    }
}
