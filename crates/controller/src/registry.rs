//! The controller's global pattern set (§4.1).
//!
//! "The DPI Controller maintains a global pattern set with its own
//! internal IDs. If two middleboxes register the same pattern (since each
//! one of them has a rule that depends on this pattern), it keeps track of
//! each of the rule IDs reported by each middlebox and associates them
//! with its internal ID. For that reason, when a pattern removal request
//! is received, the DPI Controller removes the middlebox reference to the
//! corresponding pattern. Only if there are no other middleboxes'
//! referrals to that pattern, is it removed."

use dpi_ac::MiddleboxId;
use dpi_core::rules::{RuleKind, RuleSpec};
use std::collections::{BTreeSet, HashMap};

/// Controller-internal pattern identifier.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct InternalPatternId(pub u32);

/// One globally-stored pattern with its referrers.
#[derive(Debug, Clone)]
struct GlobalEntry {
    rule: RuleKind,
    /// `(middlebox, middlebox-local rule id)` referrers.
    refs: Vec<(MiddleboxId, u16)>,
}

/// The bytes one stored pattern adds to the serialized set: its content
/// and a 4-byte length word.
fn wire_bytes(rule: &RuleKind) -> usize {
    match rule {
        RuleKind::Exact(p) => p.len() + 4,
        RuleKind::Regex(s) => s.len() + 4,
    }
}

/// The deduplicated global pattern store.
#[derive(Debug, Default)]
pub struct GlobalPatternSet {
    by_content: HashMap<RuleKind, InternalPatternId>,
    entries: HashMap<InternalPatternId, GlobalEntry>,
    /// Each middlebox's references as `(rule id, internal id)`, in rule-id
    /// order: a removal, a deregistration or a rule listing walks one
    /// middlebox's references, not the whole store.
    by_middlebox: HashMap<MiddleboxId, BTreeSet<(u16, InternalPatternId)>>,
    /// [`GlobalPatternSet::transfer_bytes`], kept up to date as patterns
    /// are stored and dropped.
    bytes: usize,
    next_id: u32,
}

impl GlobalPatternSet {
    /// An empty set.
    pub fn new() -> GlobalPatternSet {
        GlobalPatternSet::default()
    }

    /// Adds a reference from `(middlebox, rule_id)` to `rule`, storing the
    /// pattern under a fresh internal id if it is new. Returns the
    /// internal id. Re-adding the identical reference is idempotent.
    pub fn add(
        &mut self,
        middlebox: MiddleboxId,
        rule_id: u16,
        rule: &RuleSpec,
    ) -> InternalPatternId {
        let id = match self.by_content.get(&rule.kind) {
            Some(&id) => id,
            None => {
                let id = InternalPatternId(self.next_id);
                self.next_id += 1;
                self.by_content.insert(rule.kind.clone(), id);
                self.entries.insert(
                    id,
                    GlobalEntry {
                        rule: rule.kind.clone(),
                        refs: Vec::new(),
                    },
                );
                self.bytes += wire_bytes(&rule.kind);
                id
            }
        };
        if self
            .by_middlebox
            .entry(middlebox)
            .or_default()
            .insert((rule_id, id))
        {
            let entry = self.entries.get_mut(&id).expect("entry just ensured");
            entry.refs.push((middlebox, rule_id));
        }
        id
    }

    /// Drops `middlebox`'s references from pattern `id`, and the pattern
    /// itself when no reference is left.
    fn unref(&mut self, id: InternalPatternId, keep: impl Fn(&(MiddleboxId, u16)) -> bool) {
        let Some(entry) = self.entries.get_mut(&id) else {
            return;
        };
        entry.refs.retain(keep);
        if entry.refs.is_empty() {
            let e = self.entries.remove(&id).expect("entry just read");
            self.by_content.remove(&e.rule);
            self.bytes -= wire_bytes(&e.rule);
        }
    }

    /// Removes the reference from `(middlebox, rule_id)`; drops the
    /// pattern entirely when its last reference goes. Returns `true` if a
    /// reference was removed.
    pub fn remove(&mut self, middlebox: MiddleboxId, rule_id: u16) -> bool {
        let Some(refs) = self.by_middlebox.get_mut(&middlebox) else {
            return false;
        };
        let ids: Vec<InternalPatternId> = refs
            .range((rule_id, InternalPatternId(0))..=(rule_id, InternalPatternId(u32::MAX)))
            .map(|&(_, id)| id)
            .collect();
        for id in &ids {
            refs.remove(&(rule_id, *id));
        }
        if refs.is_empty() {
            self.by_middlebox.remove(&middlebox);
        }
        for &id in &ids {
            self.unref(id, |&r| r != (middlebox, rule_id));
        }
        !ids.is_empty()
    }

    /// Removes every reference of `middlebox` (deregistration).
    pub fn remove_middlebox(&mut self, middlebox: MiddleboxId) {
        for (_, id) in self.by_middlebox.remove(&middlebox).unwrap_or_default() {
            self.unref(id, |&(m, _)| m != middlebox);
        }
    }

    /// Number of distinct stored patterns.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Whether the store is empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Rebuilds each middlebox's ordered rule list — what instance
    /// configuration needs. Rules are returned as `(rule_id, spec)` sorted
    /// by rule id; a rule id the middlebox gave two patterns lists both,
    /// in internal-id order.
    pub fn rules_of(&self, middlebox: MiddleboxId) -> Vec<(u16, RuleSpec)> {
        self.by_middlebox
            .get(&middlebox)
            .into_iter()
            .flatten()
            .map(|&(rid, id)| {
                let kind = self.entries[&id].rule.clone();
                (rid, RuleSpec { kind })
            })
            .collect()
    }

    /// The serialized size of the whole global set — §4.1's argument that
    /// shipping pattern sets (unlike DFAs) is cheap.
    pub fn transfer_bytes(&self) -> usize {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The store read by a scan over every entry: the reference the
    /// running total and the per-middlebox index must equal (the oracle
    /// test in `controller.rs`).
    impl GlobalPatternSet {
        pub(crate) fn transfer_bytes_by_scan(&self) -> usize {
            self.entries.values().map(|e| wire_bytes(&e.rule)).sum()
        }

        /// Ties between references under one rule id (a middlebox that
        /// reused the id for another pattern) are ordered by internal id.
        pub(crate) fn rules_of_by_scan(&self, middlebox: MiddleboxId) -> Vec<(u16, RuleSpec)> {
            let mut out = Vec::new();
            for (id, entry) in &self.entries {
                for &(m, rid) in &entry.refs {
                    if m == middlebox {
                        out.push((rid, *id, entry.rule.clone()));
                    }
                }
            }
            out.sort_by_key(|&(rid, id, _)| (rid, id));
            out.into_iter()
                .map(|(rid, _, kind)| (rid, RuleSpec { kind }))
                .collect()
        }
    }

    const A: MiddleboxId = MiddleboxId(1);
    const B: MiddleboxId = MiddleboxId(2);

    /// How many `(middlebox, rule)` pairs refer to a stored pattern.
    fn referrers(g: &GlobalPatternSet, rule: &RuleKind) -> usize {
        g.entries[&g.by_content[rule]].refs.len()
    }

    #[test]
    fn shared_pattern_is_stored_once() {
        let mut g = GlobalPatternSet::new();
        let r = RuleSpec::exact(b"sharedsig".to_vec());
        let id1 = g.add(A, 0, &r);
        let id2 = g.add(B, 7, &r);
        assert_eq!(id1, id2);
        assert_eq!(g.len(), 1);
        assert_eq!(referrers(&g, &r.kind), 2);
    }

    #[test]
    fn removal_respects_remaining_referrers() {
        let mut g = GlobalPatternSet::new();
        let r = RuleSpec::exact(b"sig".to_vec());
        g.add(A, 0, &r);
        g.add(B, 3, &r);
        assert!(g.remove(A, 0));
        // B still refers: the pattern stays.
        assert_eq!(g.len(), 1);
        assert!(g.remove(B, 3));
        assert!(g.is_empty());
        // Double-remove is a no-op.
        assert!(!g.remove(B, 3));
    }

    #[test]
    fn idempotent_add() {
        let mut g = GlobalPatternSet::new();
        let r = RuleSpec::exact(b"sig".to_vec());
        g.add(A, 0, &r);
        g.add(A, 0, &r);
        assert_eq!(referrers(&g, &r.kind), 1);
    }

    #[test]
    fn deregistration_drops_only_that_middlebox() {
        let mut g = GlobalPatternSet::new();
        g.add(A, 0, &RuleSpec::exact(b"one".to_vec()));
        g.add(A, 1, &RuleSpec::exact(b"two".to_vec()));
        g.add(B, 0, &RuleSpec::exact(b"two".to_vec()));
        g.remove_middlebox(A);
        assert_eq!(g.len(), 1);
        assert_eq!(g.rules_of(B).len(), 1);
        assert!(g.rules_of(A).is_empty());
    }

    #[test]
    fn rules_of_orders_by_rule_id() {
        let mut g = GlobalPatternSet::new();
        g.add(A, 2, &RuleSpec::exact(b"ccc".to_vec()));
        g.add(A, 0, &RuleSpec::exact(b"aaa".to_vec()));
        g.add(A, 1, &RuleSpec::regex("bbb+"));
        let rules = g.rules_of(A);
        assert_eq!(
            rules.iter().map(|(r, _)| *r).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn transfer_bytes_counts_content() {
        let mut g = GlobalPatternSet::new();
        g.add(A, 0, &RuleSpec::exact(b"12345678".to_vec()));
        g.add(B, 0, &RuleSpec::exact(b"12345678".to_vec())); // dedup
        assert_eq!(g.transfer_bytes(), 12);
    }

    #[test]
    fn exact_and_regex_with_same_bytes_are_distinct() {
        let mut g = GlobalPatternSet::new();
        g.add(A, 0, &RuleSpec::exact(b"abc".to_vec()));
        g.add(A, 1, &RuleSpec::regex("abc"));
        assert_eq!(g.len(), 2);
    }
}
