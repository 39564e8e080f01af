//! Rules, conditions, actions and verdicts.

use serde::{Deserialize, Serialize};

/// What a middlebox does when a rule fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum MbAction {
    /// Log/alert only (IDS-style; read-only).
    Alert,
    /// Drop the packet (IPS / firewall / anti-virus).
    Block,
    /// Assign a shaping class (traffic shaper).
    Shape(u8),
    /// Steer to a backend pool (L7 load balancer).
    Steer(u8),
}

/// When a rule fires, in terms of the DPI pattern ids the middlebox
/// registered.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub enum Condition {
    /// A single pattern was reported.
    Pattern(u16),
    /// All listed patterns were reported (multi-content Snort rules).
    AllOf(Vec<u16>),
    /// Any of the listed patterns was reported.
    AnyOf(Vec<u16>),
}

impl Condition {
    /// Evaluates against the reported pattern ids, sorted ascending.
    pub fn eval(&self, matched: &[u16]) -> bool {
        let has = |p: &u16| matched.binary_search(p).is_ok();
        match self {
            Condition::Pattern(p) => has(p),
            Condition::AllOf(ps) => !ps.is_empty() && ps.iter().all(has),
            Condition::AnyOf(ps) => ps.iter().any(has),
        }
    }
}

/// One middlebox rule.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct MbRule {
    /// Rule identifier (middlebox-local, for logging).
    pub id: u16,
    /// Firing condition over reported pattern ids.
    pub condition: Condition,
    /// Action when the condition holds.
    pub action: MbAction,
}

/// The aggregate decision for one packet.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Verdict {
    /// Packet must be dropped (any Block rule fired). Dominates.
    pub block: bool,
    /// Shaping class, if any Shape rule fired (highest class wins).
    pub shape: Option<u8>,
    /// Steering decision, if any Steer rule fired (first wins).
    pub steer: Option<u8>,
    /// Rules that fired with Alert (and all fired rule ids, for logs).
    pub fired: Vec<u16>,
}

impl Verdict {
    /// The pass-through verdict.
    pub fn forward() -> Verdict {
        Verdict {
            block: false,
            shape: None,
            steer: None,
            fired: Vec::new(),
        }
    }

    /// Whether the packet survives.
    pub fn forwards(&self) -> bool {
        !self.block
    }
}

/// The shared rule-evaluation engine.
///
/// Rules are indexed by the patterns appearing in their conditions, so
/// evaluation costs O(reported matches), not O(rule-set size) — a
/// middlebox consuming DPI-service results must not pay per-rule work on
/// every packet (that would defeat the offload the paper measures).
#[derive(Debug, Clone, Default)]
pub struct RuleLogic {
    rules: Vec<MbRule>,
    /// pattern id → indices of rules whose condition mentions it.
    by_pattern: std::collections::HashMap<u16, Vec<u32>>,
}

impl RuleLogic {
    /// Builds from a rule list.
    pub fn new(rules: Vec<MbRule>) -> RuleLogic {
        let mut by_pattern: std::collections::HashMap<u16, Vec<u32>> =
            std::collections::HashMap::new();
        for (i, rule) in rules.iter().enumerate() {
            let pats: Vec<u16> = match &rule.condition {
                Condition::Pattern(p) => vec![*p],
                Condition::AllOf(ps) | Condition::AnyOf(ps) => ps.clone(),
            };
            for p in pats {
                let entry = by_pattern.entry(p).or_default();
                if entry.last() != Some(&(i as u32)) {
                    entry.push(i as u32);
                }
            }
        }
        RuleLogic { rules, by_pattern }
    }

    /// Number of rules.
    pub fn len(&self) -> usize {
        self.rules.len()
    }

    /// Whether there are no rules.
    pub fn is_empty(&self) -> bool {
        self.rules.is_empty()
    }

    /// Evaluates the rules that could possibly fire given the reported
    /// pattern ids.
    pub fn evaluate(&self, matched_patterns: &[u16]) -> Verdict {
        if matched_patterns.is_empty() {
            return Verdict::forward();
        }
        let mut set = matched_patterns.to_vec();
        set.sort_unstable();
        set.dedup();
        // Candidate rules: any rule mentioning a matched pattern.
        let mut candidates: Vec<u32> = set
            .iter()
            .filter_map(|p| self.by_pattern.get(p))
            .flatten()
            .copied()
            .collect();
        candidates.sort_unstable();
        candidates.dedup();
        let mut v = Verdict::forward();
        for &ci in &candidates {
            let rule = &self.rules[ci as usize];
            if rule.condition.eval(&set) {
                v.fired.push(rule.id);
                match rule.action {
                    MbAction::Alert => {}
                    MbAction::Block => v.block = true,
                    MbAction::Shape(c) => v.shape = Some(v.shape.map_or(c, |old| old.max(c))),
                    MbAction::Steer(b) => {
                        if v.steer.is_none() {
                            v.steer = Some(b);
                        }
                    }
                }
            }
        }
        v
    }

    /// A one-to-one rule set: pattern *i* fires rule *i* with `action` —
    /// the common case where every DPI pattern is one signature.
    pub fn one_per_pattern(n: u16, action: MbAction) -> RuleLogic {
        RuleLogic::new(
            (0..n)
                .map(|i| MbRule {
                    id: i,
                    condition: Condition::Pattern(i),
                    action,
                })
                .collect(),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conditions_evaluate() {
        let m = [1, 2, 3];
        assert!(Condition::Pattern(2).eval(&m));
        assert!(!Condition::Pattern(9).eval(&m));
        assert!(Condition::AllOf(vec![1, 3]).eval(&m));
        assert!(!Condition::AllOf(vec![1, 9]).eval(&m));
        assert!(!Condition::AllOf(vec![]).eval(&m));
        assert!(Condition::AnyOf(vec![9, 3]).eval(&m));
        assert!(!Condition::AnyOf(vec![]).eval(&m));
    }

    #[test]
    fn block_dominates_and_fired_collects() {
        let logic = RuleLogic::new(vec![
            MbRule {
                id: 0,
                condition: Condition::Pattern(0),
                action: MbAction::Alert,
            },
            MbRule {
                id: 1,
                condition: Condition::Pattern(1),
                action: MbAction::Block,
            },
        ]);
        let v = logic.evaluate(&[0, 1]);
        assert!(v.block);
        assert_eq!(v.fired, vec![0, 1]);
        let v = logic.evaluate(&[0]);
        assert!(v.forwards());
        assert_eq!(v.fired, vec![0]);
    }

    #[test]
    fn shape_takes_max_and_steer_takes_first() {
        let logic = RuleLogic::new(vec![
            MbRule {
                id: 0,
                condition: Condition::Pattern(0),
                action: MbAction::Shape(2),
            },
            MbRule {
                id: 1,
                condition: Condition::Pattern(1),
                action: MbAction::Shape(7),
            },
            MbRule {
                id: 2,
                condition: Condition::Pattern(0),
                action: MbAction::Steer(4),
            },
            MbRule {
                id: 3,
                condition: Condition::Pattern(1),
                action: MbAction::Steer(9),
            },
        ]);
        let v = logic.evaluate(&[0, 1]);
        assert_eq!(v.shape, Some(7));
        assert_eq!(v.steer, Some(4));
    }

    #[test]
    fn one_per_pattern_builder() {
        let logic = RuleLogic::one_per_pattern(3, MbAction::Alert);
        assert_eq!(logic.len(), 3);
        assert_eq!(logic.evaluate(&[2]).fired, vec![2]);
    }

    #[test]
    fn no_matches_forwards() {
        let logic = RuleLogic::one_per_pattern(5, MbAction::Block);
        let v = logic.evaluate(&[]);
        assert!(v.forwards());
        assert!(v.fired.is_empty());
    }
}
