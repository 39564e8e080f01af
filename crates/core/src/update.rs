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
//! * [`EngineSlot`] — the atomic publication point. A builder thread
//!   compiles the next generation and [`EngineSlot::publish`]es it;
//!   readers [`EngineSlot::load`] an `Arc` clone whenever they are at a
//!   safe point (for the sharded pipeline, the batch boundary — its
//!   drain barrier). Readers never block on compilation; old generations
//!   are reclaimed by the last `Arc` drop once in-flight batches drain.
//! * [`UpdateStats`] — per-engine swap telemetry: swaps applied,
//!   rejections, and the observed swap pause (the paper's Fig. 11
//!   companion metric, recorded by `bench_update`).
//!
//! Cross-packet flow state is tagged with the generation that wrote it
//! (see [`crate::flowstate::FlowTable`]); a flow whose state predates the
//! running generation deterministically re-anchors at the new automaton's
//! root. Re-anchoring can only *miss* a match straddling the swap — never
//! fabricate one — by the same stateless-deletion argument as failover
//! (DESIGN.md §8); the full generation semantics live in DESIGN.md §9.

use crate::config::InstanceConfig;
use crate::instance::{InstanceError, ScanEngine};
use std::sync::{Arc, RwLock};
use std::time::Duration;

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
    /// stale `BeginUpdate` arriving after a newer one was applied).
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
    /// returned engine in via an [`EngineSlot`] or
    /// `ShardedScanner::swap_engine`.
    pub fn compile(&self) -> Result<Arc<ScanEngine>, UpdateError> {
        let config = self.validate()?;
        ScanEngine::with_generation(config, self.generation)
            .map(Arc::new)
            .map_err(|e: InstanceError| UpdateError::Build(e.to_string()))
    }
}

/// The atomic generation slot a running data plane reads its engine
/// from. Writers publish a fully-compiled engine; readers clone an `Arc`
/// at their next safe point. Neither side ever waits on compilation.
#[derive(Debug)]
pub struct EngineSlot {
    engine: RwLock<Arc<ScanEngine>>,
}

impl EngineSlot {
    /// A slot currently serving `engine`.
    pub fn new(engine: Arc<ScanEngine>) -> EngineSlot {
        EngineSlot {
            engine: RwLock::new(engine),
        }
    }

    /// The engine currently published (an `Arc` clone; the generation it
    /// belongs to stays alive while the caller holds it).
    pub fn load(&self) -> Arc<ScanEngine> {
        self.engine
            .read()
            .unwrap_or_else(|e| e.into_inner())
            .clone()
    }

    /// Generation currently published.
    pub fn generation(&self) -> GenerationId {
        self.load().generation()
    }

    /// Publishes `engine` as the next generation. Refuses to move the
    /// slot backward: a stale publication (older or equal generation,
    /// e.g. a delayed duplicate `BeginUpdate`) is rejected so a rollback
    /// race cannot resurrect a withdrawn rule set.
    pub fn publish(&self, engine: Arc<ScanEngine>) -> Result<GenerationId, UpdateError> {
        let mut g = self.engine.write().unwrap_or_else(|e| e.into_inner());
        let current = g.generation();
        let offered = engine.generation();
        if offered <= current {
            return Err(UpdateError::StaleGeneration { current, offered });
        }
        *g = engine;
        Ok(offered)
    }

    /// Forces the slot back to `engine` regardless of generation order —
    /// the rollback path (the orchestrator re-publishes the last good
    /// generation after a failed rollout).
    pub fn rollback(&self, engine: Arc<ScanEngine>) -> GenerationId {
        let mut g = self.engine.write().unwrap_or_else(|e| e.into_inner());
        let generation = engine.generation();
        *g = engine;
        generation
    }
}

/// Per-data-plane swap telemetry.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct UpdateStats {
    /// Generation currently serving.
    pub generation: GenerationId,
    /// Hot swaps applied since start.
    pub swaps: u64,
    /// Update artifacts rejected (checksum, malformed, stale).
    pub rejected: u64,
    /// Pause of the most recent swap — the drain-barrier cost, *not*
    /// compilation (which happens off the hot path).
    pub last_swap_pause: Duration,
    /// Transfer bytes of the most recent applied update.
    pub last_transfer_bytes: u64,
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
        let slot = EngineSlot::new(
            UpdateArtifact::build(2, &config(&[b"sig-a"]))
                .compile()
                .unwrap(),
        );
        assert!(art.compile().and_then(|e| slot.publish(e)).is_err());
        assert_eq!(slot.generation(), 2);
    }

    #[test]
    fn slot_publish_is_monotonic_but_rollback_is_not() {
        let g0 = UpdateArtifact::build(0, &config(&[b"a"]))
            .compile()
            .unwrap();
        let g1 = UpdateArtifact::build(1, &config(&[b"b"]))
            .compile()
            .unwrap();
        let slot = EngineSlot::new(g0.clone());
        assert_eq!(slot.generation(), 0);
        assert_eq!(slot.publish(g1.clone()).unwrap(), 1);
        assert_eq!(slot.generation(), 1);
        // A delayed duplicate of the old generation cannot regress it…
        assert!(matches!(
            slot.publish(g0.clone()).unwrap_err(),
            UpdateError::StaleGeneration {
                current: 1,
                offered: 0
            }
        ));
        // …but an explicit rollback can.
        assert_eq!(slot.rollback(g0), 0);
        assert_eq!(slot.generation(), 0);
    }

    #[test]
    fn old_generation_is_reclaimed_when_the_last_reader_drops() {
        let g0 = UpdateArtifact::build(0, &config(&[b"a"]))
            .compile()
            .unwrap();
        let slot = EngineSlot::new(g0.clone());
        let in_flight = slot.load(); // a batch holding the old snapshot
        assert_eq!(Arc::strong_count(&g0), 3); // g0 + slot + in_flight
        let g1 = UpdateArtifact::build(1, &config(&[b"b"]))
            .compile()
            .unwrap();
        slot.publish(g1).unwrap();
        // The swap drops the slot's ref, but the old generation survives
        // while a batch still scans against it.
        assert_eq!(Arc::strong_count(&g0), 2); // g0 + in_flight
        drop(in_flight);
        // Last in-flight batch drained: only the test's own handle keeps
        // the old generation alive now.
        assert_eq!(Arc::strong_count(&g0), 1);
        assert_eq!(slot.generation(), 1);
    }
}
