//! Controller-managed DPI instances.
//!
//! §4.1's pattern add/remove messages change the global pattern set at
//! runtime; deployed instances must follow. A [`ManagedInstance`] pairs a
//! live [`DpiInstance`] with the controller version it was built from and
//! hot-swaps it when the configuration moves: the operational loop
//! between "the DPI controller maintains a global pattern set" and the
//! per-instance automatons built from it.

use crate::controller::{ControllerError, DpiController, InstanceId};
use dpi_core::{DpiInstance, ScanEngine, Telemetry};
use std::sync::Arc;

/// A deployed instance that tracks controller configuration changes. Its
/// worker count is fixed at deployment and survives configuration-driven
/// swaps.
#[derive(Debug)]
pub struct ManagedInstance {
    id: InstanceId,
    chains: Vec<u16>,
    built_at_version: u64,
    /// The live data plane. Callers scan through this handle.
    pub instance: DpiInstance,
}

impl ManagedInstance {
    /// The controller-side identifier.
    pub fn id(&self) -> InstanceId {
        self.id
    }

    /// The chains this instance serves.
    pub fn chains(&self) -> &[u16] {
        &self.chains
    }

    /// Controller version of the current automaton.
    pub fn version(&self) -> u64 {
        self.built_at_version
    }

    /// Number of worker shards.
    pub fn workers(&self) -> usize {
        self.instance.workers()
    }

    /// Follows the controller onto its current configuration by
    /// compiling the next rule generation off the hot path and
    /// hot-swapping it in ([`DpiInstance::swap_engine`], across all
    /// shards). Returns whether a swap happened.
    ///
    /// Unlike a rebuild, the swap preserves telemetry, reassembly buffers
    /// and the flow table. Stored flow state is generation-tagged:
    /// mid-flow scans re-anchor at the new automaton's root, which can
    /// only *miss* a match straddling the swap, never fabricate one
    /// (DESIGN.md §9).
    pub fn refresh(&mut self, controller: &DpiController) -> Result<bool, ControllerError> {
        let v = controller.version();
        if v == self.built_at_version {
            return Ok(false);
        }
        let cfg = controller.instance_config(&self.chains)?;
        let next = self.instance.generation() + 1;
        // Configuration came from the controller's own state; a build
        // failure means the stored rules are inconsistent.
        let engine = ScanEngine::with_generation(cfg, next)
            .map_err(|e| ControllerError::InconsistentConfig(e.to_string()))?;
        self.instance
            .swap_engine(Arc::new(engine))
            .map_err(|e| ControllerError::InconsistentConfig(e.to_string()))?;
        self.built_at_version = v;
        Ok(true)
    }

    /// Reports telemetry to the controller, returning the delta the
    /// stress monitor consumes.
    pub fn report(&self, controller: &DpiController) -> Result<Telemetry, ControllerError> {
        controller.report_telemetry(self.id, self.instance.telemetry())
    }
}

impl DpiController {
    /// Deploys a managed instance serving `chains`, built from the
    /// current configuration.
    pub fn spawn_managed(&self, chains: Vec<u16>) -> Result<ManagedInstance, ControllerError> {
        self.spawn_managed_sharded(chains, 1)
    }

    /// Deploys a managed instance with `workers` parallel scan shards
    /// serving `chains`.
    pub fn spawn_managed_sharded(
        &self,
        chains: Vec<u16>,
        workers: usize,
    ) -> Result<ManagedInstance, ControllerError> {
        let engine = ScanEngine::new(self.instance_config(&chains)?)
            .map_err(|e| ControllerError::InconsistentConfig(e.to_string()))?;
        Ok(ManagedInstance {
            id: self.deploy_instance(chains.clone()),
            chains,
            built_at_version: self.version(),
            instance: DpiInstance::with_workers(Arc::new(engine), workers),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_ac::MiddleboxId;
    use dpi_core::{MiddleboxProfile, RuleSpec};

    fn controller_with_mb() -> DpiController {
        let c = DpiController::new();
        c.register(
            MiddleboxId(1),
            "ids",
            None,
            MiddleboxProfile::stateless(MiddleboxId(1)),
        )
        .unwrap();
        c.add_pattern(MiddleboxId(1), 0, &RuleSpec::exact(b"first-sig".to_vec()))
            .unwrap();
        c
    }

    #[test]
    fn managed_instance_follows_pattern_updates() {
        let c = controller_with_mb();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        let mut m = c.spawn_managed(vec![chain]).unwrap();

        let out = m
            .instance
            .scan_payload(chain, None, b"first-sig here")
            .unwrap();
        assert_eq!(out.reports.len(), 1);

        // A new pattern arrives at the controller…
        c.add_pattern(MiddleboxId(1), 1, &RuleSpec::exact(b"second-sig".to_vec()))
            .unwrap();
        // …the stale instance misses it…
        let out = m.instance.scan_payload(chain, None, b"second-sig").unwrap();
        assert!(out.reports.is_empty());
        // …until refreshed.
        assert!(m.refresh(&c).unwrap());
        let out = m.instance.scan_payload(chain, None, b"second-sig").unwrap();
        assert_eq!(out.reports.len(), 1);
        // No change → no rebuild.
        assert!(!m.refresh(&c).unwrap());
    }

    #[test]
    fn pattern_removal_propagates() {
        let c = controller_with_mb();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        let mut m = c.spawn_managed(vec![chain]).unwrap();
        c.remove_pattern(MiddleboxId(1), 0).unwrap();
        assert!(m.refresh(&c).unwrap());
        let out = m.instance.scan_payload(chain, None, b"first-sig").unwrap();
        assert!(out.reports.is_empty());
    }

    #[test]
    fn managed_sharded_instance_scans_and_follows_updates() {
        use dpi_packet::ipv4::IpProtocol;
        use dpi_packet::packet::flow;
        use dpi_packet::{MacAddr, Packet};

        let c = controller_with_mb();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        let mut m = c.spawn_managed_sharded(vec![chain], 4).unwrap();
        assert_eq!(m.workers(), 4);

        let mut batch: Vec<Packet> = (0..8)
            .map(|i| {
                let f = flow([10, 0, 0, 1], 100 + i, [10, 0, 0, 2], 80, IpProtocol::Tcp);
                let mut p = Packet::tcp(
                    MacAddr::local(1),
                    MacAddr::local(2),
                    f,
                    0,
                    b"first-sig here".to_vec(),
                );
                p.push_chain_tag(chain).unwrap();
                p
            })
            .collect();
        let results = m.instance.inspect_batch(&mut batch);
        assert_eq!(results.len(), 8);
        assert_eq!(m.report(&c).unwrap().packets, 8);

        // A pattern update rebuilds the scanner at the same worker count.
        c.add_pattern(MiddleboxId(1), 1, &RuleSpec::exact(b"second-sig".to_vec()))
            .unwrap();
        assert!(m.refresh(&c).unwrap());
        assert_eq!(m.workers(), 4);
        assert!(!m.refresh(&c).unwrap());
    }

    #[test]
    fn refresh_is_a_hot_swap_preserving_state() {
        let c = controller_with_mb();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        let mut m = c.spawn_managed(vec![chain]).unwrap();
        assert_eq!(m.instance.engine().generation(), 0);
        m.instance.scan_payload(chain, None, b"first-sig").unwrap();
        let packets_before = m.instance.telemetry().packets;
        c.add_pattern(MiddleboxId(1), 1, &RuleSpec::exact(b"second-sig".to_vec()))
            .unwrap();
        assert!(m.refresh(&c).unwrap());
        // The generation advanced and telemetry survived the swap —
        // refresh replaced the engine, not the instance.
        assert_eq!(m.instance.engine().generation(), 1);
        assert_eq!(m.instance.telemetry().packets, packets_before);

        let mut s = c.spawn_managed_sharded(vec![chain], 2).unwrap();
        assert_eq!(s.instance.generation(), 0);
        c.add_pattern(MiddleboxId(1), 2, &RuleSpec::exact(b"third-sig".to_vec()))
            .unwrap();
        assert!(s.refresh(&c).unwrap());
        assert_eq!(s.instance.generation(), 1);
        assert_eq!(s.workers(), 2);
    }

    #[test]
    fn managed_instance_reports_telemetry() {
        let c = controller_with_mb();
        let chain = c.register_chain(&[MiddleboxId(1)]).unwrap();
        let mut m = c.spawn_managed(vec![chain]).unwrap();
        m.instance.scan_payload(chain, None, b"payload").unwrap();
        let delta = m.report(&c).unwrap();
        assert_eq!(delta.packets, 1);
        // Second report: no new packets → zero delta.
        let delta = m.report(&c).unwrap();
        assert_eq!(delta.packets, 0);
    }
}
