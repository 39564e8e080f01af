//! The reference model of the service's contract (DESIGN.md §17): every
//! occurrence of a pattern in the byte stream a middlebox may see reaches
//! exactly that middlebox, after §5.2's stateful/stateless and stopping
//! rules and §5.3's regex evaluation. It is computed naively — substring
//! search and `dpi_regex::Regex` over each flow's ground truth — and
//! shares nothing with the service's scan machinery but the regex parser.

use dpi_service::core::ConflictPolicy;
use dpi_service::middlebox::RuleLogic;
use dpi_service::regex::Regex;
use std::collections::HashMap;
use std::ops::Range;

/// A rule body as the model matches it.
pub enum Body {
    Exact(Vec<u8>),
    /// Regexes whose matches end in the order they start (no
    /// alternation of different lengths), so "the leftmost match" and
    /// "some match" agree on whether a match ends inside a bound.
    Regex(Regex),
}

pub struct Rule {
    pub id: u16,
    pub body: Body,
    /// Registered by the mid-stream update rather than at build time.
    pub added: bool,
}

pub struct Middlebox {
    pub id: u16,
    pub tenant: u16,
    pub stateful: bool,
    pub stop: Option<u64>,
    pub rules: Vec<Rule>,
    pub logic: RuleLogic,
}

/// What the model is told: the middleboxes and the chains over them.
pub struct Model {
    pub middleboxes: Vec<Middlebox>,
    pub chains: Vec<(u16, Vec<u16>)>,
}

/// Where a mid-stream rule update landed in a flow's stream.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Update {
    None,
    /// Bytes before this offset were scanned by the old rules: a
    /// stateful scan re-anchors here and added rules are live from here.
    At(usize),
    /// Somewhere inside a decoded stream the model cannot place.
    Unknown,
}

/// One flow as a middlebox may see it.
#[derive(Debug, Clone)]
pub struct View {
    /// The stream a stateful middlebox sees.
    pub stream: Vec<u8>,
    /// The scan units of `stream`: a stateless middlebox sees the
    /// matches inside one unit (§5.2). `None` when a decoder sets them.
    pub units: Option<Vec<Range<usize>>>,
    /// Losing conflict copies, each shadow-scanned on its own by every
    /// member (DESIGN.md §13); `true` when scanned after the update.
    pub shadows: Vec<(Vec<u8>, bool)>,
    pub update: Update,
}

impl View {
    pub fn new(stream: Vec<u8>, units: Option<Vec<Range<usize>>>, update: Update) -> View {
        View {
            stream,
            units,
            shadows: Vec::new(),
            update,
        }
    }
}

/// What one middlebox must be told about one rule in one flow.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Claim {
    /// Occurrences reported when nothing is lost.
    pub want: u64,
    /// The most the service may report: more is a fabricated match.
    pub hi: u64,
    /// Misses a generation re-anchor explains: occurrences straddling
    /// the update point.
    pub reanchor: u64,
    /// A §5.3 regex matches the stream but no single unit: the miss of
    /// a regex straddling a unit boundary.
    pub regex_straddle: bool,
    /// Extra reports a restarted flow explains ([`Model::wire`]).
    pub restart: u64,
}

impl std::ops::AddAssign for Claim {
    fn add_assign(&mut self, o: Claim) {
        self.want += o.want;
        self.hi = self.hi.saturating_add(o.hi);
        self.reanchor += o.reanchor;
        self.regex_straddle |= o.regex_straddle;
        self.restart = self.restart.saturating_add(o.restart);
    }
}

/// End offsets (inclusive) of every occurrence of `pat` in `hay`.
pub fn ends(hay: &[u8], pat: &[u8]) -> Vec<usize> {
    if pat.is_empty() || hay.len() < pat.len() {
        return Vec::new();
    }
    (0..=hay.len() - pat.len())
        .filter(|&i| &hay[i..i + pat.len()] == pat)
        .map(|i| i + pat.len() - 1)
        .collect()
}

/// Whether `re` matches inside `hay`'s first `limit` bytes.
fn regex_hit(re: &Regex, hay: &[u8], limit: Option<u64>) -> bool {
    let n = limit.map_or(hay.len(), |s| hay.len().min(s as usize));
    re.find_end(&hay[..n]).is_some()
}

impl Model {
    pub fn middlebox(&self, id: u16) -> &Middlebox {
        self.middleboxes
            .iter()
            .find(|m| m.id == id)
            .expect("registered")
    }

    /// Chain → tenant → middlebox: the members a flow on `chain` is
    /// entitled to reach, all of the chain's one tenant.
    pub fn members(&self, chain: u16) -> Vec<&Middlebox> {
        let (_, ids) = self.chains.iter().find(|c| c.0 == chain).expect("chain");
        let members: Vec<&Middlebox> = ids.iter().map(|&id| self.middlebox(id)).collect();
        assert!(members.windows(2).all(|w| w[0].tenant == w[1].tenant));
        members
    }

    /// Every `(middlebox, rule, end)` of an exact rule a flow on `chain`
    /// reports, for a view whose units are known.
    pub fn matches(&self, chain: u16, view: &View) -> Vec<(u16, u16, usize)> {
        let mut out = Vec::new();
        for m in self.members(chain) {
            for r in &m.rules {
                if let Body::Exact(p) = &r.body {
                    let seen = seen(m, p, view).expect("units known");
                    out.extend(seen.into_iter().map(|(_, e)| (m.id, r.id, e)));
                }
            }
        }
        out.sort_unstable();
        out
    }

    /// Every `(middlebox, rule, claim)` for a flow on `chain`. A report
    /// for any other pair is fabricated.
    pub fn claims(&self, chain: u16, view: &View) -> Vec<(u16, u16, Claim)> {
        let mut out = Vec::new();
        for m in self.members(chain) {
            for r in &m.rules {
                let mut c = match &r.body {
                    Body::Exact(p) => exact_claim(m, r, p, view),
                    Body::Regex(re) => regex_claim(m, re, view),
                };
                // A shadow scan is stateless from the copy's first byte,
                // for every member.
                for (copy, _) in view.shadows.iter().filter(|s| !r.added || s.1) {
                    c += exact(match &r.body {
                        Body::Exact(p) => {
                            ends(copy, p).into_iter().filter(|&e| stop_ok(m, e)).count() as u64
                        }
                        Body::Regex(re) => u64::from(regex_hit(re, copy, m.stop)),
                    });
                }
                out.push((m.id, r.id, c));
            }
        }
        out
    }

    /// Occurrences of every member rule anywhere in `streams`, no
    /// stopping condition applied, in `claims`' order: all a flow that
    /// restarts mid-stream (evicted, failed over) can report, since it
    /// then counts stops from the restart and takes what arrives for a
    /// new stream.
    pub fn wire(&self, chain: u16, streams: &[&[u8]]) -> Vec<u64> {
        let mut out = Vec::new();
        for m in self.members(chain) {
            for r in &m.rules {
                out.push(match &r.body {
                    Body::Exact(p) => streams.iter().map(|s| ends(s, p).len() as u64).sum(),
                    Body::Regex(_) => u64::MAX,
                });
            }
        }
        out
    }
}

fn exact(n: u64) -> Claim {
    claim(n, n)
}

fn claim(want: u64, hi: u64) -> Claim {
    Claim {
        want,
        hi,
        ..Claim::default()
    }
}

/// Whether a match ending at `end` is inside `m`'s stopping condition.
fn stop_ok(m: &Middlebox, end: usize) -> bool {
    m.stop.is_none_or(|s| (end as u64) < s)
}

/// The `(start, end)` stream offsets of the occurrences of `p` that `m`
/// may see: across the stream when stateful, inside one unit when
/// stateless (§5.2), each within the stopping condition. `None` for a
/// stateless member of a stream whose units are unknown.
fn seen(m: &Middlebox, p: &[u8], v: &View) -> Option<Vec<(usize, usize)>> {
    let whole = 0..v.stream.len();
    let units: &[Range<usize>] = match (&v.units, m.stateful) {
        (_, true) => std::slice::from_ref(&whole),
        (Some(units), false) => units,
        (None, false) => return None,
    };
    Some(
        units
            .iter()
            .flat_map(|u| {
                ends(&v.stream[u.clone()], p)
                    .into_iter()
                    .filter(|&e| stop_ok(m, e))
                    .map(move |e| (u.start + e + 1 - p.len(), u.start + e))
            })
            .collect(),
    )
}

fn exact_claim(m: &Middlebox, r: &Rule, p: &[u8], v: &View) -> Claim {
    let Some(seen) = seen(m, p, v) else {
        // The decoder's units are unknown: bounded by the stream.
        return claim(0, ends(&v.stream, p).len() as u64);
    };
    let all = seen.len() as u64;
    match (v.update, r.added) {
        (Update::None, true) => Claim::default(),
        (Update::At(u), true) => exact(seen.iter().filter(|o| o.0 >= u).count() as u64),
        // A stateless unit is scanned whole by one generation.
        (Update::At(u), false) if m.stateful => Claim {
            reanchor: seen.iter().filter(|o| o.0 < u && o.1 >= u).count() as u64,
            ..exact(all)
        },
        (Update::Unknown, true) => claim(0, all),
        (Update::Unknown, false) => Claim {
            reanchor: all,
            ..exact(all)
        },
        _ => exact(all),
    }
}

/// §5.3 evaluates a regex once per unit: the claim counts units holding
/// a whole match; the stream says whether a match exists at all.
fn regex_claim(m: &Middlebox, re: &Regex, v: &View) -> Claim {
    let s = &v.stream;
    let hit = m.stateful && regex_hit(re, s, m.stop);
    let Some(units) = &v.units else {
        return Claim {
            regex_straddle: hit,
            ..claim(u64::from(hit), u64::MAX)
        };
    };
    let unit_hit = |u: &Range<usize>| {
        let base = if m.stateful { u.start as u64 } else { 0 };
        regex_hit(re, &s[u.clone()], m.stop.map(|st| st.saturating_sub(base)))
    };
    let k = units.iter().filter(|u| unit_hit(u)).count() as u64;
    Claim {
        regex_straddle: hit && k == 0,
        ..exact(k.max(u64::from(hit)))
    }
}

/// A naive byte-map reassembler: what a receiver keeping the first copy
/// of every byte delivers, in order, from segments in arrival order.
#[derive(Debug, Default)]
pub struct Reassembled {
    /// The delivered stream.
    pub stream: Vec<u8>,
    /// One range per delivered segment; `None` once copies overlapped,
    /// when the service's trimmed runs no longer follow segments.
    pub units: Option<Vec<Range<usize>>>,
    /// Stream bytes delivered after each segment.
    pub delivered_after: Vec<usize>,
    /// Losing copies under `FirstWins`: `(segment index, payload)`.
    pub losing: Vec<(usize, Vec<u8>)>,
    /// The segment whose conflict quarantined the flow under
    /// `RejectFlow`.
    pub quarantined_at: Option<usize>,
}

pub fn reassemble(isn: u32, segments: &[(u32, Vec<u8>)], policy: ConflictPolicy) -> Reassembled {
    let mut first: HashMap<u64, u8> = HashMap::new();
    let mut out = Reassembled {
        units: Some(Vec::new()),
        ..Reassembled::default()
    };
    let mut spans = Vec::new();
    for (k, (seq, payload)) in segments.iter().enumerate() {
        if out.quarantined_at.is_none() {
            let off = u64::from(seq.wrapping_sub(isn));
            let seen = |(i, b): (usize, &u8)| first.get(&(off + i as u64)).map(|x| x != b);
            let overlap = payload.iter().enumerate().any(|e| seen(e).is_some());
            let conflict = payload.iter().enumerate().any(|e| seen(e) == Some(true));
            if conflict && policy == ConflictPolicy::RejectFlow {
                out.quarantined_at = Some(k);
            } else {
                if conflict {
                    out.losing.push((k, payload.clone()));
                }
                if overlap {
                    out.units = None;
                }
                for (i, &b) in payload.iter().enumerate() {
                    first.entry(off + i as u64).or_insert(b);
                }
                spans.push(off..off + payload.len() as u64);
                while let Some(&b) = first.get(&(out.stream.len() as u64)) {
                    out.stream.push(b);
                }
            }
        }
        out.delivered_after.push(out.stream.len());
    }
    if let Some(units) = &mut out.units {
        let len = out.stream.len() as u64;
        spans.retain(|r| r.end <= len);
        spans.sort_by_key(|r| r.start);
        units.extend(spans.iter().map(|r| r.start as usize..r.end as usize));
    }
    out
}
