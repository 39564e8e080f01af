//! The two middlebox operation modes the paper compares.

use crate::logic::{RuleLogic, Verdict};
use dpi_ac::MiddleboxId;
use dpi_core::config::NumberedRule;
use dpi_core::report::expand_records;
use dpi_core::{DpiInstance, InstanceConfig, InstanceError, MiddleboxProfile};
use dpi_packet::report::MiddleboxReport;
use dpi_packet::FlowKey;
use serde::{Deserialize, Serialize};

/// Counters every middlebox keeps — the paper's sample middlebox "only
/// counts the total number of rules that were reported to it" (§6.1);
/// ours counts a little more for the experiments.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MiddleboxStats {
    /// Packets processed.
    pub packets: u64,
    /// Individual pattern matches consumed.
    pub matches: u64,
    /// Rules fired.
    pub rules_fired: u64,
    /// Packets blocked.
    pub blocked: u64,
    /// Match-marked packets processed without their result packet: the
    /// result was lost on the way, or the flow is closed.
    pub unpaired: u64,
    /// Payload bytes this middlebox scanned *itself* (zero in service
    /// mode — that is the whole point).
    pub bytes_self_scanned: u64,
}

/// A middlebox that consumes DPI-service results — the §6.1 plugin.
#[derive(Debug)]
pub struct ServiceMiddlebox {
    id: MiddleboxId,
    name: String,
    logic: RuleLogic,
    stats: MiddleboxStats,
}

impl ServiceMiddlebox {
    /// Builds a service-mode middlebox.
    pub fn new(id: MiddleboxId, name: &str, logic: RuleLogic) -> ServiceMiddlebox {
        ServiceMiddlebox {
            id,
            name: name.to_string(),
            logic,
            stats: MiddleboxStats::default(),
        }
    }

    /// The registered id.
    pub fn id(&self) -> MiddleboxId {
        self.id
    }

    /// The middlebox's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counters so far.
    pub fn stats(&self) -> MiddleboxStats {
        self.stats
    }

    /// Counts a marked packet about to be processed without its result.
    pub(crate) fn count_unpaired(&mut self) {
        self.stats.unpaired += 1;
    }

    /// Processes one packet's report (possibly absent: no matches for us).
    /// No payload scanning happens here — the DPI service already did it.
    pub fn process(&mut self, report: Option<&MiddleboxReport>) -> Verdict {
        self.stats.packets += 1;
        let matched: Vec<u16> = match report {
            Some(r) => {
                debug_assert_eq!(
                    r.middlebox_id, self.id.0,
                    "report routed to wrong middlebox"
                );
                expand_records(&r.records)
                    .into_iter()
                    .map(|(pid, _)| pid)
                    .collect()
            }
            None => Vec::new(),
        };
        self.stats.matches += matched.len() as u64;
        let v = self.logic.evaluate(&matched);
        self.stats.rules_fired += v.fired.len() as u64;
        if v.block {
            self.stats.blocked += 1;
        }
        v
    }
}

/// A middlebox with its own embedded DPI engine — the baseline
/// configuration where "traffic is inspected from scratch by all the
/// middleboxes on its route" (§1).
#[derive(Debug)]
pub struct SelfScanMiddlebox {
    id: MiddleboxId,
    name: String,
    dpi: DpiInstance,
    logic: RuleLogic,
    stats: MiddleboxStats,
}

/// The private chain id a self-scanning middlebox uses internally.
const SELF_CHAIN: u16 = 1;

impl SelfScanMiddlebox {
    /// Builds a self-scanning middlebox over its own rules.
    pub fn new(
        profile: MiddleboxProfile,
        name: &str,
        rules: Vec<NumberedRule>,
        logic: RuleLogic,
    ) -> Result<SelfScanMiddlebox, InstanceError> {
        let id = profile.id;
        let cfg = InstanceConfig::new()
            .with_middlebox_numbered(profile, rules)
            .with_chain(SELF_CHAIN, vec![id]);
        Ok(SelfScanMiddlebox {
            id,
            name: name.to_string(),
            dpi: DpiInstance::new(cfg)?,
            logic,
            stats: MiddleboxStats::default(),
        })
    }

    /// The registered id.
    pub fn id(&self) -> MiddleboxId {
        self.id
    }

    /// The middlebox's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Counters so far.
    pub fn stats(&self) -> MiddleboxStats {
        self.stats
    }

    /// Scans a payload itself, then applies its rules.
    pub fn process(&mut self, flow: Option<FlowKey>, payload: &[u8]) -> Verdict {
        self.stats.packets += 1;
        self.stats.bytes_self_scanned += payload.len() as u64;
        let out = self
            .dpi
            .scan_payload(SELF_CHAIN, flow, payload)
            .expect("self-chain always exists");
        let matched: Vec<u16> = out
            .reports
            .iter()
            .filter(|r| r.middlebox_id == self.id.0)
            .flat_map(|r| expand_records(&r.records))
            .map(|(pid, _)| pid)
            .collect();
        self.stats.matches += matched.len() as u64;
        let v = self.logic.evaluate(&matched);
        self.stats.rules_fired += v.fired.len() as u64;
        if v.block {
            self.stats.blocked += 1;
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::logic::MbAction;
    use dpi_core::RuleSpec;
    use dpi_packet::report::MatchRecord;

    fn report(mb: u16, pids: &[u16]) -> MiddleboxReport {
        MiddleboxReport {
            middlebox_id: mb,
            records: pids
                .iter()
                .map(|&p| MatchRecord::Single {
                    pattern_id: p,
                    position: 0,
                })
                .collect(),
        }
    }

    #[test]
    fn service_mode_consumes_reports_without_scanning() {
        let mut mb = ServiceMiddlebox::new(
            MiddleboxId(4),
            "ips",
            RuleLogic::one_per_pattern(4, MbAction::Block),
        );
        let v = mb.process(Some(&report(4, &[2])));
        assert!(v.block);
        let v = mb.process(None);
        assert!(v.forwards());
        let s = mb.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.matches, 1);
        assert_eq!(s.blocked, 1);
        assert_eq!(s.bytes_self_scanned, 0);
    }

    #[test]
    fn self_scan_mode_scans_and_applies() {
        let mut mb = SelfScanMiddlebox::new(
            MiddleboxProfile::stateless(MiddleboxId(9)),
            "standalone-av",
            NumberedRule::sequence(vec![RuleSpec::exact(b"MALWARE".to_vec())]),
            RuleLogic::one_per_pattern(1, MbAction::Block),
        )
        .unwrap();
        assert!(mb.process(None, b"clean payload").forwards());
        assert!(!mb.process(None, b"has MALWARE inside").forwards());
        let s = mb.stats();
        assert_eq!(s.packets, 2);
        assert_eq!(s.blocked, 1);
        assert!(s.bytes_self_scanned > 0);
    }

    #[test]
    fn both_modes_agree_on_verdicts() {
        let patterns = vec![b"alpha-sig".to_vec(), b"beta-sig".to_vec()];
        let mut selfscan = SelfScanMiddlebox::new(
            MiddleboxProfile::stateless(MiddleboxId(1)),
            "self",
            NumberedRule::sequence(RuleSpec::exact_set(&patterns)),
            RuleLogic::one_per_pattern(2, MbAction::Alert),
        )
        .unwrap();
        let mut service = ServiceMiddlebox::new(
            MiddleboxId(1),
            "svc",
            RuleLogic::one_per_pattern(2, MbAction::Alert),
        );
        // Emulate the DPI service for the service-mode box.
        let cfg = InstanceConfig::new()
            .with_middlebox(
                MiddleboxProfile::stateless(MiddleboxId(1)),
                RuleSpec::exact_set(&patterns),
            )
            .with_chain(1, vec![MiddleboxId(1)]);
        let mut dpi = DpiInstance::new(cfg).unwrap();

        for payload in [
            b"nothing here".as_slice(),
            b"alpha-sig present",
            b"alpha-sig and beta-sig",
        ] {
            let v1 = selfscan.process(None, payload);
            let out = dpi.scan_payload(1, None, payload).unwrap();
            let v2 = service.process(out.reports.first());
            assert_eq!(v1.fired, v2.fired, "payload {payload:?}");
        }
    }
}
