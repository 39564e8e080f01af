//! Staged fleet rollout of rule generations (DESIGN.md §9).
//!
//! The paper's §4.1 lets middleboxes add and remove patterns at runtime;
//! this module is the controller-side pipeline that turns the mutated
//! global pattern set into a new **rule generation** and walks it across
//! a fleet of deployed instances without stopping traffic:
//!
//! 1. [`UpdateOrchestrator::prepare`] freezes the controller's current
//!    configuration into a checksummed [`UpdateArtifact`] at the next
//!    generation number (compilation happens at each instance, off the
//!    packet path).
//! 2. [`UpdateOrchestrator::rollout`] pushes the artifact to a **canary**
//!    (the first target), runs a caller-supplied verification against it
//!    (drive traffic, compare telemetry deltas), and only then updates the
//!    remaining instances.
//! 3. Any failure — a corrupt artifact, a compile error, a failed canary
//!    verification — rolls every already-updated instance back to the
//!    last committed generation and reports
//!    [`RolloutOutcome::RolledBack`]. The fleet never serves a mix of
//!    generations after the orchestrator returns.
//!
//! The rule generation is the only version the control plane knows: every
//! match result is stamped with the generation of the engine that scanned
//! it, so it is attributable to exactly one committed rule set, and
//! [`UpdateOrchestrator::committed_generation`] is the only record of
//! what the fleet serves.

use crate::controller::InstanceId;
use dpi_core::{GenerationId, InstanceConfig, UpdateArtifact, UpdateError};

/// One deployed instance the orchestrator can push a generation to.
///
/// `src/system.rs` implements this over live scan engines; unit tests
/// mock it. Both `begin_update` and `rollback` are expected to validate
/// the artifact's checksum **before** acting on it.
pub trait UpdateTarget {
    /// The controller-side identity of this instance.
    fn instance_id(&self) -> InstanceId;

    /// Validates, compiles and hot-swaps the artifact's generation in;
    /// returns the generation now serving.
    fn begin_update(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError>;

    /// Returns to a previously-committed generation (its artifact is
    /// re-shipped by the orchestrator, which keeps the committed one).
    fn rollback(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError>;
}

/// A frozen update, ready to roll out.
#[derive(Debug, Clone)]
pub struct PreparedUpdate {
    /// The generation this update installs.
    pub generation: GenerationId,
    /// The checksummed wire artifact.
    pub artifact: UpdateArtifact,
    /// Bytes this update ships per instance (paper Fig. 11's unit).
    pub transfer_bytes: u64,
}

/// How a rollout ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RolloutOutcome {
    /// Every target serves the new generation.
    Committed,
    /// A failure occurred; every target serves the previous committed
    /// generation again.
    RolledBack,
}

/// The result of one [`UpdateOrchestrator::rollout`].
#[derive(Debug, Clone)]
pub struct RolloutReport {
    /// The generation that was rolled out (or attempted).
    pub generation: GenerationId,
    /// Committed or rolled back.
    pub outcome: RolloutOutcome,
    /// Instances that accepted the new generation (in update order;
    /// non-empty on rollback if the failure came after the canary).
    pub updated: Vec<InstanceId>,
    /// Instances that were returned to the previous generation.
    pub rolled_back: Vec<InstanceId>,
    /// The failure that triggered the rollback, if any.
    pub failure: Option<(InstanceId, String)>,
}

impl RolloutReport {
    /// Convenience predicate.
    pub fn committed(&self) -> bool {
        self.outcome == RolloutOutcome::Committed
    }
}

/// The generation the whole fleet last committed to — what a rollback
/// re-ships.
#[derive(Debug)]
enum Committed {
    /// Generation 0, kept as the configuration and serialized only when a
    /// rollback needs it — most deployments never roll back their first
    /// update.
    Baseline(InstanceConfig),
    /// The artifact of the last rollout the fleet accepted.
    Artifact(UpdateArtifact),
}

/// Controller-side orchestrator for generation-versioned rule updates.
#[derive(Debug)]
pub struct UpdateOrchestrator {
    /// The next generation number to hand out.
    next_generation: GenerationId,
    /// The only configuration or artifact the orchestrator holds.
    committed: Committed,
    /// Optional structured-event tracer; the update lifecycle (prepare,
    /// canary pass, commit, rollback) is recorded against
    /// [`dpi_core::trace::TraceSource::Controller`].
    tracer: Option<std::sync::Arc<dpi_core::trace::Tracer>>,
}

impl UpdateOrchestrator {
    /// An orchestrator whose generation 0 is `baseline` — the
    /// configuration the fleet was initially built from. Rollbacks of the
    /// very first update return to it.
    pub fn new(baseline: &InstanceConfig) -> UpdateOrchestrator {
        UpdateOrchestrator {
            next_generation: 1,
            committed: Committed::Baseline(baseline.clone()),
            tracer: None,
        }
    }

    /// Attaches a structured-event tracer for update-lifecycle events.
    pub fn attach_tracer(&mut self, tracer: std::sync::Arc<dpi_core::trace::Tracer>) {
        self.tracer = Some(tracer);
    }

    fn trace(&self, kind: dpi_core::trace::TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(dpi_core::trace::TraceSource::Controller, kind);
        }
    }

    /// Freezes `config` (the controller's current instance configuration)
    /// into the next generation's artifact.
    pub fn prepare(&mut self, config: &InstanceConfig) -> PreparedUpdate {
        let generation = self.next_generation;
        self.next_generation += 1;
        let artifact = UpdateArtifact::build(generation, config);
        let transfer_bytes = artifact.transfer_bytes() as u64;
        self.trace(dpi_core::trace::TraceKind::UpdatePrepared {
            generation,
            transfer_bytes,
        });
        PreparedUpdate {
            generation,
            artifact,
            transfer_bytes,
        }
    }

    /// The last committed generation — what every instance serves once
    /// a rollout returns.
    pub fn committed_generation(&self) -> GenerationId {
        match &self.committed {
            Committed::Baseline(_) => 0,
            Committed::Artifact(artifact) => artifact.generation,
        }
    }

    /// Rolls `prepared` across `targets` in stages: canary (first
    /// target) → `verify_canary` → remaining targets. On any failure the
    /// already-updated targets are rolled back to the last committed
    /// generation and the fleet keeps serving it.
    ///
    /// `verify_canary` runs after the canary swaps; the caller drives
    /// traffic through it and compares telemetry deltas — returning
    /// `false` vetoes the rollout.
    pub fn rollout(
        &mut self,
        prepared: &PreparedUpdate,
        targets: &mut [&mut dyn UpdateTarget],
        verify_canary: &mut dyn FnMut(&mut dyn UpdateTarget) -> bool,
    ) -> RolloutReport {
        let mut updated: Vec<usize> = Vec::new();
        let mut failure: Option<(InstanceId, String)> = None;

        for (i, target) in targets.iter_mut().enumerate() {
            match target.begin_update(&prepared.artifact) {
                Ok(_) => updated.push(i),
                Err(e) => {
                    failure = Some((target.instance_id(), e.to_string()));
                    break;
                }
            }
            // Stage boundary: the canary must prove itself before the
            // rest of the fleet is touched.
            if i == 0 {
                if !verify_canary(*target) {
                    failure = Some((
                        target.instance_id(),
                        "canary verification failed".to_string(),
                    ));
                    break;
                }
                self.trace(dpi_core::trace::TraceKind::UpdateCanaryPassed {
                    generation: prepared.generation,
                    instance: target.instance_id().0,
                });
            }
        }

        match failure {
            None => {
                self.committed = Committed::Artifact(prepared.artifact.clone());
                self.trace(dpi_core::trace::TraceKind::UpdateCommitted {
                    generation: prepared.generation,
                    instances: targets.len() as u64,
                });
                RolloutReport {
                    generation: prepared.generation,
                    outcome: RolloutOutcome::Committed,
                    updated: targets.iter().map(|t| t.instance_id()).collect(),
                    rolled_back: Vec::new(),
                    failure: None,
                }
            }
            Some(failure) => {
                let built;
                let previous = match &self.committed {
                    Committed::Baseline(config) => {
                        built = UpdateArtifact::build(0, config);
                        &built
                    }
                    Committed::Artifact(artifact) => artifact,
                };
                let mut updated_ids = Vec::new();
                let mut rolled_back = Vec::new();
                for &i in &updated {
                    updated_ids.push(targets[i].instance_id());
                    if targets[i].rollback(previous).is_ok() {
                        rolled_back.push(targets[i].instance_id());
                    }
                }
                self.trace(dpi_core::trace::TraceKind::UpdateRolledBack {
                    generation: prepared.generation,
                    to_generation: self.committed_generation(),
                });
                RolloutReport {
                    generation: prepared.generation,
                    outcome: RolloutOutcome::RolledBack,
                    updated: updated_ids,
                    rolled_back,
                    failure: Some(failure),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct MockTarget {
        id: InstanceId,
        generation: GenerationId,
        /// Simulates an instance-local apply failure at this generation.
        fail_on: Option<GenerationId>,
        /// Every generation this target ever served, in order.
        served: Vec<GenerationId>,
        /// Every artifact a rollback shipped to this target, in order.
        restored: Vec<UpdateArtifact>,
    }

    impl MockTarget {
        fn new(id: u32) -> MockTarget {
            MockTarget {
                id: InstanceId(id),
                generation: 0,
                fail_on: None,
                served: vec![0],
                restored: Vec::new(),
            }
        }
    }

    impl UpdateTarget for MockTarget {
        fn instance_id(&self) -> InstanceId {
            self.id
        }

        fn begin_update(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError> {
            artifact.validate()?;
            if self.fail_on == Some(artifact.generation) {
                return Err(UpdateError::Build("mock apply failure".into()));
            }
            self.generation = artifact.generation;
            self.served.push(artifact.generation);
            Ok(artifact.generation)
        }

        fn rollback(&mut self, artifact: &UpdateArtifact) -> Result<GenerationId, UpdateError> {
            artifact.validate()?;
            self.restored.push(artifact.clone());
            self.generation = artifact.generation;
            self.served.push(artifact.generation);
            Ok(artifact.generation)
        }
    }

    fn config_with(patterns: &[&str]) -> InstanceConfig {
        InstanceConfig::new().with_middlebox(
            dpi_core::MiddleboxProfile::stateless(dpi_ac::MiddleboxId(1)),
            patterns
                .iter()
                .map(|p| dpi_core::RuleSpec::exact(p.as_bytes().to_vec()))
                .collect(),
        )
    }

    #[test]
    fn staged_rollout_commits_across_the_fleet() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["old"]));
        let (mut a, mut b, mut c) = (MockTarget::new(0), MockTarget::new(1), MockTarget::new(2));
        let prepared = orch.prepare(&config_with(&["old", "new"]));
        assert_eq!(prepared.generation, 1);
        assert!(prepared.transfer_bytes > 0);
        let mut verified = 0;
        let report = orch.rollout(&prepared, &mut [&mut a, &mut b, &mut c], &mut |canary| {
            verified += 1;
            assert_eq!(canary.instance_id(), InstanceId(0));
            true
        });
        assert!(report.committed());
        assert_eq!(verified, 1, "exactly one canary verification");
        assert_eq!(report.updated.len(), 3);
        for t in [&a, &b, &c] {
            assert_eq!(t.generation, 1);
        }
        assert_eq!(orch.committed_generation(), 1);
    }

    #[test]
    fn corrupt_artifact_is_rejected_at_the_canary_and_nothing_changes() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["old"]));
        let (mut a, mut b) = (MockTarget::new(0), MockTarget::new(1));
        let mut prepared = orch.prepare(&config_with(&["old", "evil"]));
        prepared.artifact.corrupt();
        let report = orch.rollout(&prepared, &mut [&mut a, &mut b], &mut |_| true);
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        assert!(report.updated.is_empty());
        let (id, reason) = report.failure.unwrap();
        assert_eq!(id, InstanceId(0));
        assert!(reason.contains("checksum"), "reason: {reason}");
        // The fleet never left generation 0.
        assert_eq!(a.served, vec![0]);
        assert_eq!(b.served, vec![0]);
        assert_eq!(orch.committed_generation(), 0);
    }

    #[test]
    fn mid_fleet_failure_rolls_the_canary_back() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["old"]));
        let (mut a, mut b, mut c) = (MockTarget::new(0), MockTarget::new(1), MockTarget::new(2));
        let prepared = orch.prepare(&config_with(&["old", "new"]));
        c.fail_on = Some(prepared.generation);
        let report = orch.rollout(&prepared, &mut [&mut a, &mut b, &mut c], &mut |_| true);
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        assert_eq!(report.updated, vec![InstanceId(0), InstanceId(1)]);
        assert_eq!(report.rolled_back, vec![InstanceId(0), InstanceId(1)]);
        assert_eq!(report.failure.as_ref().unwrap().0, InstanceId(2));
        // Everyone ends on the committed generation — no mixed fleet.
        for t in [&a, &b, &c] {
            assert_eq!(t.generation, 0);
        }
        assert_eq!(a.served, vec![0, 1, 0]);
        assert_eq!(c.served, vec![0]);
        assert_eq!(orch.committed_generation(), 0);
    }

    #[test]
    fn canary_verification_veto_rolls_back_before_the_fleet_is_touched() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["old"]));
        let (mut a, mut b) = (MockTarget::new(0), MockTarget::new(1));
        let prepared = orch.prepare(&config_with(&["regression"]));
        let report = orch.rollout(&prepared, &mut [&mut a, &mut b], &mut |_| false);
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        assert_eq!(report.updated, vec![InstanceId(0)]);
        assert_eq!(report.rolled_back, vec![InstanceId(0)]);
        // The rest of the fleet was never asked to update.
        assert_eq!(b.served, vec![0]);
        assert_eq!(a.generation, 0);
    }

    #[test]
    fn generations_advance_across_successive_updates() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["a"]));
        let mut t = MockTarget::new(0);
        for pats in [vec!["a", "b"], vec!["a", "b", "c"]] {
            let p = orch.prepare(&config_with(&pats));
            let report = orch.rollout(&p, &mut [&mut t], &mut |_| true);
            assert!(report.committed());
        }
        assert_eq!(t.served, vec![0, 1, 2]);
        assert_eq!(orch.committed_generation(), 2);
    }

    #[test]
    fn the_orchestrator_holds_only_the_committed_artifact() {
        let mut orch = UpdateOrchestrator::new(&config_with(&["p0"]));
        let mut t = MockTarget::new(0);
        let mut pats = vec!["p0".to_string()];
        let mut last = None;
        for i in 1..=20 {
            // A vetoed generation in between is not kept either.
            let vetoed = orch.prepare(&config_with(&["veto"]));
            assert!(!orch
                .rollout(&vetoed, &mut [&mut t], &mut |_| false)
                .committed());
            pats.push(format!("p{i}"));
            let p = orch.prepare(&config_with(
                &pats.iter().map(String::as_str).collect::<Vec<_>>(),
            ));
            assert!(orch.rollout(&p, &mut [&mut t], &mut |_| true).committed());
            last = Some(p);
        }
        let last = last.unwrap();
        assert_eq!(orch.committed_generation(), 40);
        // One artifact, the last committed one.
        match &orch.committed {
            Committed::Artifact(a) => {
                assert_eq!(a.generation, last.generation);
                assert_eq!(a.payload, last.artifact.payload);
                assert_eq!(a.checksum, last.artifact.checksum);
            }
            Committed::Baseline(_) => panic!("generation 40 is committed, not the baseline"),
        }
        // Each vetoed generation went back to the commit before it.
        let back: Vec<GenerationId> = t.restored.iter().map(|a| a.generation).collect();
        assert_eq!(back, (0..20).map(|i| 2 * i).collect::<Vec<_>>());
    }

    #[test]
    fn a_failed_first_rollout_reships_the_baseline_byte_for_byte() {
        let baseline = config_with(&["old", "older"]);
        let mut orch = UpdateOrchestrator::new(&baseline);
        let (mut a, mut b) = (MockTarget::new(0), MockTarget::new(1));
        let first = orch.prepare(&config_with(&["old", "new"]));
        b.fail_on = Some(first.generation);
        let report = orch.rollout(&first, &mut [&mut a, &mut b], &mut |_| true);
        assert_eq!(report.outcome, RolloutOutcome::RolledBack);
        let want = UpdateArtifact::build(0, &baseline);
        assert_eq!(a.restored.len(), 1);
        assert_eq!(a.restored[0].generation, want.generation);
        assert_eq!(a.restored[0].payload, want.payload);
        assert_eq!(a.restored[0].checksum, want.checksum);
        assert!(matches!(orch.committed, Committed::Baseline(_)));

        // Once a generation commits, a rollback re-ships that one.
        let second = orch.prepare(&config_with(&["old", "new", "newer"]));
        assert!(orch
            .rollout(&second, &mut [&mut a, &mut b], &mut |_| true)
            .committed());
        let third = orch.prepare(&config_with(&["bad"]));
        assert!(!orch
            .rollout(&third, &mut [&mut a, &mut b], &mut |_| false)
            .committed());
        assert_eq!(a.restored.len(), 2);
        assert_eq!(a.restored[1].payload, second.artifact.payload);
        assert_eq!(a.restored[1].checksum, second.artifact.checksum);
    }
}
