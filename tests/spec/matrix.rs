//! The configuration matrix (DESIGN.md §17). A generator draws a whole
//! configuration — kernel, workers, conflict policy, L7, tenants,
//! stopping conditions, a mid-stream rule update, a fault plan, a fleet,
//! an arena smaller than the working set — and traffic cut four ways.
//! Both packet paths, `DpiInstance::inspect_batch` and
//! `SystemHandle::send` with verdicts read at the middleboxes, must equal
//! the reference model (`model.rs`), or differ only as a documented loss
//! case whose evidence the run shows. Nothing may be fabricated.
//!
//! [`sweep`] runs seeds 1/7/42, or `DPI_CHAOS_SEED`. A divergence names
//! the seed, the case and its drawn configuration, and writes the case's
//! trace as JSONL under `DPI_CHAOS_LOG_DIR`. `main.rs` runs the whole
//! matrix; the other suites that include this module pin one dimension.

use crate::model::{reassemble, Body, Claim, Middlebox, Model, Rule, Update, View};
use dpi_service::ac::{KernelKind, MiddleboxId};
use dpi_service::core::chaos::FaultPlan;
use dpi_service::core::config::NumberedRule;
use dpi_service::core::report::expand_records;
use dpi_service::core::{ConflictPolicy, InstanceConfig, L7Policy, MiddleboxProfile, RuleSpec};
use dpi_service::core::{RuleKind, TenantId};
use dpi_service::middlebox::boxes::MiddleboxTemplate;
use dpi_service::middlebox::{MbAction, RuleLogic};
use dpi_service::packet::ipv4::IpProtocol;
use dpi_service::packet::packet::flow;
use dpi_service::packet::{FlowKey, MacAddr, Packet};
use dpi_service::regex::Regex;
use dpi_service::traffic::{self, evasive_flow};
use dpi_service::{to_jsonl, DpiInstance, ScanEngine, SystemBuilder, SystemHandle, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// The shared stateful IDS: first on chain A, last on chain B.
const S: u16 = 1;
/// A stateless shaper with a per-packet stopping condition.
const N: u16 = 2;
/// An IPS, last on chain A: its blocks end no other member's view.
const P: u16 = 3;
/// A stateless alerter holding an anchor-less regex.
const Q: u16 = 4;
/// Alone on chain C; the second tenant's when two are drawn.
const T: u16 = 5;
const MBS: [u16; 5] = [S, N, P, Q, T];
const CHAINS: [&[u16]; 3] = [&[S, N, P], &[Q, S], &[T]];
/// The rule id the mid-stream update adds to `S`.
const ADDED: u16 = 4;
const FLOWS: usize = 5;
const CLIENT: [u8; 4] = [10, 0, 0, 1];
const SERVER: [u8; 4] = [10, 0, 0, 2];
/// Cases per seed: the tier-1 budget.
const CASES: usize = 64;
/// Every drawn dimension and how many values it has: each is drawn at
/// least once per seed.
pub const DIMS: [(&str, usize); 12] = [
    ("kernel", KernelKind::ALL.len()),
    ("workers", 3),
    ("conflict_policy", 2),
    ("l7", 2),
    ("tenants", 2),
    ("stops", 2),
    ("update", 2),
    ("fault", 3),
    ("instances", 2),
    ("max_flows_below_working_set", 2),
    ("cut", 4),
    ("truth", 6),
];

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Fault {
    None,
    /// Result packets dropped (each of four attempts) and duplicated.
    DropDup,
    /// Instance `.0` dies at its `.1`-th packet; heartbeats fail over.
    Kill(usize, u64),
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Cut {
    InOrder,
    EveryByte,
    Shuffled,
    Evasive,
}

#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Truth {
    Plain,
    Gzip,
    Chunked,
    Tls,
    Ws,
    Evasive,
}

/// The documented loss cases of DESIGN.md §17, one variant each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
enum LossCase {
    FailOpenShed,
    FailoverStateLoss,
    UnitBound,
    EvictionOrReAnchor,
    ResultLost,
    ClosedFlow,
    ArrivalOrder,
    RegexStraddle,
}

#[derive(Debug)]
pub struct Config {
    pub kernel: KernelKind,
    pub workers: usize,
    pub policy: ConflictPolicy,
    pub l7: bool,
    pub tenants: u16,
    /// `S`'s stop in flow bytes and `N`'s in packet bytes.
    pub stops: Option<(u64, u64)>,
    /// The arrival ordinal the rule update lands before.
    pub update_at: Option<usize>,
    pub fault: Fault,
    pub instances: usize,
    pub max_flows: Option<usize>,
}

#[derive(Debug)]
pub struct Flow {
    pub key: FlowKey,
    pub chain: usize,
    pub truth: Truth,
    pub cut: Cut,
    pub isn: u32,
    /// `(seq, payload)` in send order.
    pub segments: Vec<(u32, Vec<u8>)>,
    /// What the L7 decoders reconstruct, for the protocol generators.
    pub decoded: Option<Vec<u8>>,
}

pub struct Case {
    pub seed: u64,
    pub index: usize,
    pub config: Config,
    pub model: Model,
    pub flows: Vec<Flow>,
    /// `(flow, segment)` in arrival order.
    pub order: Vec<(usize, usize)>,
}

fn pick<T: Clone>(rng: &mut StdRng, xs: &[T]) -> T {
    xs[rng.gen_range(0..xs.len())].clone()
}

/// A pattern over six letters: no HTTP header or TLS framing byte of the
/// protocol generators spells one.
fn word(rng: &mut StdRng) -> Vec<u8> {
    let n = rng.gen_range(3..6);
    (0..n).map(|_| pick(rng, b"abcxyz")).collect()
}

/// `n` distinct words, the first given.
fn words(rng: &mut StdRng, n: usize, first: Option<Vec<u8>>) -> Vec<Vec<u8>> {
    let mut v: Vec<Vec<u8>> = first.into_iter().collect();
    while v.len() < n {
        let w = word(rng);
        if !v.contains(&w) {
            v.push(w);
        }
    }
    v
}

fn rule(id: u16, spec: &RuleSpec, added: bool) -> Rule {
    let body = match &spec.kind {
        RuleKind::Exact(p) => Body::Exact(p.clone()),
        RuleKind::Regex(src) => Body::Regex(Regex::new(src).unwrap()),
    };
    Rule { id, body, added }
}

fn spec(r: &Rule) -> NumberedRule {
    let spec = match &r.body {
        Body::Exact(p) => RuleSpec::exact(p.clone()),
        Body::Regex(re) => RuleSpec::regex(re.pattern()),
    };
    NumberedRule { id: r.id, spec }
}

impl Case {
    fn draw(seed: u64, index: usize) -> Case {
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9e37_79b9) ^ index as u64);
        // `N` shares a pattern with `S`, and `T` another across tenants.
        let s = words(&mut rng, 4, None);
        let sets = [
            (S, s[..3].to_vec()),
            (N, words(&mut rng, 2, Some(s[0].clone()))),
            (P, words(&mut rng, 2, None)),
            (Q, words(&mut rng, 1, None)),
            (T, words(&mut rng, 2, Some(s[1].clone()))),
        ];
        let mut config = Config {
            kernel: pick(&mut rng, &KernelKind::ALL),
            workers: pick(&mut rng, &[1, 2, 8]),
            policy: pick(
                &mut rng,
                &[ConflictPolicy::FirstWins, ConflictPolicy::RejectFlow],
            ),
            l7: rng.gen_bool(0.5),
            tenants: rng.gen_range(1..3),
            stops: rng
                .gen_bool(0.5)
                .then(|| (rng.gen_range(16..240), rng.gen_range(4..32))),
            update_at: None,
            fault: Fault::None,
            instances: rng.gen_range(1..3),
            max_flows: rng.gen_bool(0.3).then(|| rng.gen_range(1..3)),
        };
        let middleboxes = sets
            .iter()
            .map(|(id, pats)| {
                let mut specs = RuleSpec::exact_set(pats);
                match *id {
                    S => specs.push(RuleSpec::regex("zqxy[0-9]+ab")),
                    Q => specs.push(RuleSpec::regex("x[0-9][0-9]z")),
                    _ => {}
                }
                let mut rules: Vec<Rule> =
                    (0..).zip(&specs).map(|(i, r)| rule(i, r, false)).collect();
                if *id == S {
                    rules.push(rule(ADDED, &RuleSpec::exact(s[3].clone()), true));
                }
                let action = match *id {
                    N => MbAction::Shape(1),
                    P => MbAction::Block,
                    _ => MbAction::Alert,
                };
                Middlebox {
                    id: *id,
                    tenant: if *id == T { config.tenants } else { 1 },
                    stateful: !matches!(*id, N | Q),
                    stop: match *id {
                        S => config.stops.map(|s| s.0),
                        N => config.stops.map(|s| s.1),
                        _ => None,
                    },
                    logic: RuleLogic::one_per_pattern(rules.len() as u16, action),
                    rules,
                }
            })
            .collect();
        let model = Model {
            middleboxes,
            chains: (0..).zip(CHAINS).map(|(c, m)| (c, m.to_vec())).collect(),
        };

        let all: Vec<Vec<u8>> = sets
            .iter()
            .flat_map(|(_, w)| w.clone())
            .chain([s[3].clone()])
            .collect();
        let flows: Vec<Flow> = (0..FLOWS).map(|i| draw_flow(&mut rng, i, &all)).collect();
        let mut next = [0usize; FLOWS];
        let mut order = Vec::new();
        loop {
            let open: Vec<usize> = (0..FLOWS)
                .filter(|&f| next[f] < flows[f].segments.len())
                .collect();
            if open.is_empty() {
                break;
            }
            let f = pick(&mut rng, &open);
            order.push((f, next[f]));
            next[f] += 1;
        }
        config.update_at = rng.gen_bool(0.4).then(|| rng.gen_range(0..=order.len()));
        config.fault = match rng.gen_range(0..3) {
            0 => Fault::None,
            1 => Fault::DropDup,
            _ => Fault::Kill(
                rng.gen_range(0..config.instances),
                rng.gen_range(1..=order.len() as u64 / 2 + 1),
            ),
        };
        Case {
            seed,
            index,
            config,
            model,
            flows,
            order,
        }
    }

    /// Whether a drawn value can cause a loss: a fault, an update, an
    /// arena smaller than the working set.
    fn lossy(&self) -> bool {
        let c = &self.config;
        c.fault != Fault::None || c.update_at.is_some() || c.max_flows.is_some()
    }

    /// The value each of [`DIMS`] drew.
    fn draws(&self) -> Vec<(&'static str, String)> {
        let c = &self.config;
        let fault = match c.fault {
            Fault::Kill(..) => "Kill".to_string(),
            f => format!("{f:?}"),
        };
        let mut v: Vec<(&str, String)> = DIMS
            .iter()
            .map(|d| d.0)
            .zip([
                format!("{:?}", c.kernel),
                c.workers.to_string(),
                format!("{:?}", c.policy),
                c.l7.to_string(),
                c.tenants.to_string(),
                c.stops.is_some().to_string(),
                c.update_at.is_some().to_string(),
                fault,
                c.instances.to_string(),
                c.max_flows.is_some().to_string(),
            ])
            .collect();
        for f in &self.flows {
            v.push(("cut", format!("{:?}", f.cut)));
            v.push(("truth", format!("{:?}", f.truth)));
        }
        v
    }

    fn describe(&self) -> String {
        let mut s = format!(
            "seed {} case {}: {:?}\n",
            self.seed, self.index, self.config
        );
        for (i, f) in self.flows.iter().enumerate() {
            let (chain, n) = (f.chain, f.segments.len());
            s += &format!(
                "  flow {i}: chain {chain} {:?} cut {:?}, {n} segments\n",
                f.truth, f.cut
            );
        }
        s
    }

    /// A middlebox's profile and registered rules, the update's with
    /// `added`.
    fn registration(&self, id: u16, added: bool) -> (MiddleboxProfile, Vec<NumberedRule>) {
        let m = self.model.middlebox(id);
        let mut p = MiddleboxProfile::stateless(MiddleboxId(id)).owned_by(TenantId(m.tenant));
        (p.stateful, p.stopping_condition) = (m.stateful, m.stop);
        let rules = m.rules.iter().filter(|r| added || !r.added).map(spec);
        (p, rules.collect())
    }

    /// The batch path's instance configuration, with the update's rule
    /// or without.
    fn instance_config(&self, added: bool) -> InstanceConfig {
        let mut cfg = InstanceConfig::new()
            .with_kernel(self.config.kernel)
            .with_conflict_policy(self.config.policy);
        for id in MBS {
            let (profile, rules) = self.registration(id, added);
            cfg = cfg.with_middlebox_numbered(profile, rules);
        }
        for (c, members) in (1..).zip(CHAINS) {
            cfg = cfg.with_chain(c, members.iter().map(|&m| MiddleboxId(m)).collect());
        }
        if self.config.l7 {
            cfg = cfg.with_l7_policy(L7Policy::default());
        }
        cfg.max_flows = self.config.max_flows;
        cfg
    }

    /// What flow `f`'s members may see on this case's path, and whether
    /// `RejectFlow` quarantines it.
    fn view(&self, f: usize) -> (View, bool) {
        let flow = &self.flows[f];
        let before = self
            .config
            .update_at
            .map(|at| self.order[..at].iter().filter(|o| o.0 == f).count());
        let segs = &flow.segments;
        if !self.config.l7 {
            // No L7 policy, no reassembly: payloads in arrival order.
            let (stream, units) = arrival(segs);
            let at = |k: usize| units.get(k).map_or(stream.len(), |u| u.start);
            let update = before.map_or(Update::None, |k| Update::At(at(k)));
            return (View::new(stream, Some(units), update), false);
        }
        if let Some(decoded) = &flow.decoded {
            let update = match before {
                None => Update::None,
                Some(0) => Update::At(0),
                Some(k) if k == segs.len() => Update::At(decoded.len()),
                Some(_) => Update::Unknown,
            };
            return (View::new(decoded.clone(), None, update), false);
        }
        let r = reassemble(flow.isn, segs, self.config.policy);
        let update = before.map_or(Update::None, |k| {
            Update::At(k.checked_sub(1).map_or(0, |k| r.delivered_after[k]))
        });
        let mut view = View::new(r.stream, r.units, update);
        let after = |k| before.is_some_and(|b| k >= b);
        view.shadows = r.losing.into_iter().map(|(k, c)| (c, after(k))).collect();
        (view, r.quarantined_at.is_some())
    }
}

/// Payloads concatenated in arrival order, and where each lies.
fn arrival(segs: &[(u32, Vec<u8>)]) -> (Vec<u8>, Vec<std::ops::Range<usize>>) {
    let mut stream = Vec::new();
    let units = segs
        .iter()
        .map(|(_, p)| {
            stream.extend_from_slice(p);
            stream.len() - p.len()..stream.len()
        })
        .collect();
    (stream, units)
}

fn draw_flow(rng: &mut StdRng, i: usize, words: &[Vec<u8>]) -> Flow {
    use Truth::*;
    let truths = [Plain, Plain, Gzip, Chunked, Tls, Ws, Evasive, Evasive];
    let truth = pick(rng, &truths);
    let key = flow(CLIENT, 1000 + i as u16, SERVER, 80, IpProtocol::Tcp);
    let (g, w) = (rng.gen::<u64>(), pick(rng, words));
    let split = |f: traffic::L7Flow| (f.stream, Some(f.decoded));
    let (stream, decoded) = match truth {
        Gzip => split(traffic::http1_chunked_gzip_request(g, &w)),
        Chunked => split(traffic::http1_chunked_request(g, &w)),
        Tls => split(traffic::tls_client_hello(g, &w, rng.gen_range(4..32))),
        Ws => split(traffic::websocket_session(g, &w)),
        _ => (plain(rng, words), None),
    };
    let (isn, cut, segments) = if truth == Evasive {
        let f = evasive_flow(g, words);
        let segments: Vec<_> = f.segments.into_iter().map(|s| (s.seq, s.payload)).collect();
        // The model's first-copy reassembly is the generator's ground
        // truth: `keep_first`, its losing copies inside `keep_last`.
        let r = reassemble(f.initial_seq, &segments, ConflictPolicy::FirstWins);
        assert_eq!(r.stream, f.keep_first, "evasive flow {g}");
        let in_last = |c: &[u8]| f.keep_last.windows(c.len()).any(|w| w == c);
        assert!(r.losing.iter().all(|(_, c)| in_last(c)), "evasive flow {g}");
        (f.initial_seq, Cut::Evasive, segments)
    } else {
        let isn = rng.gen::<u32>();
        let cut = pick(rng, &[Cut::InOrder, Cut::EveryByte, Cut::Shuffled]);
        let max: usize = if cut == Cut::EveryByte {
            1
        } else {
            rng.gen_range(2..64)
        };
        let mut segments = Vec::new();
        let mut off = 0;
        while off < stream.len() {
            let n = rng.gen_range(1..=max).min(stream.len() - off);
            segments.push((isn.wrapping_add(off as u32), stream[off..off + n].to_vec()));
            off += n;
        }
        if cut == Cut::Shuffled {
            let stride = rng.gen_range(2..5);
            segments.chunks_mut(stride).for_each(|c| c.reverse());
        }
        (isn, cut, segments)
    };
    Flow {
        key,
        chain: rng.gen_range(0..3),
        truth,
        cut,
        isn,
        segments,
        decoded,
    }
}

/// Seeded filler over the patterns' letters and digits, with rule
/// patterns and regex matches planted in it.
fn plain(rng: &mut StdRng, words: &[Vec<u8>]) -> Vec<u8> {
    let len = rng.gen_range(24..120);
    let mut v: Vec<u8> = (0..len).map(|_| pick(rng, b"abcxyzq0123456789")).collect();
    for _ in 0..rng.gen_range(2..5) {
        let planted = match rng.gen_range(0..4) {
            0 => format!("zqxy{}ab", rng.gen_range(0..1000)).into_bytes(),
            1 => format!("x{}z", rng.gen_range(10..100)).into_bytes(),
            _ => pick(rng, words),
        };
        let at = rng.gen_range(0..=v.len());
        v.splice(at..at, planted);
    }
    v
}

/// What one flow showed of a documented loss case's evidence.
#[derive(Debug, Default, Clone, Copy)]
struct Evidence {
    evicted: bool,
    failover: bool,
    result_lost: bool,
    shed: bool,
    /// The instance holds the flow quarantined.
    quarantined: bool,
}

/// One path's run of a case, as the judge reads it.
#[derive(Default)]
struct Observed {
    /// Occurrences per `(flow, middlebox, rule)`; the send path counts
    /// per middlebox only, under rule `u16::MAX`.
    counts: BTreeMap<(usize, u16, u16), u64>,
    /// Per `(flow, middlebox)`: whether its logic fired a rule, blocked.
    verdicts: BTreeMap<(usize, u16), (bool, bool)>,
    evidence: Vec<Evidence>,
    /// Divergences the run itself saw (stamps, tenant attribution).
    errors: Vec<String>,
    trace: String,
    /// Scanned bytes the kernel skipped at depth ≤ 2, as exported.
    skipped: u64,
    /// Marked packets the middleboxes processed without their result.
    unpaired: u64,
}

impl Observed {
    fn new(flows: usize) -> Observed {
        Observed {
            evidence: vec![Evidence::default(); flows],
            ..Observed::default()
        }
    }

    fn verdict(&mut self, f: usize, mb: u16, fired: bool, blocked: bool) {
        let v = self.verdicts.entry((f, mb)).or_default();
        *v = (v.0 | fired, v.1 | blocked);
    }
}

/// Drives the case through one sharded instance's `inspect_batch`.
fn run_batch(case: &Case) -> Observed {
    let engine = Arc::new(ScanEngine::new(case.instance_config(false)).unwrap());
    let mut inst = DpiInstance::with_workers(engine, case.config.workers);
    let tracer = Arc::new(Tracer::new());
    inst.attach_tracer(Arc::clone(&tracer), None);
    if case.config.l7 {
        for f in &case.flows {
            inst.open_tcp_flow(f.key, f.isn);
        }
    }
    let mut obs = Observed::new(case.flows.len());
    let flush = |inst: &mut DpiInstance, batch: &mut Vec<Packet>, obs: &mut Observed| {
        for r in inst.inspect_batch(batch) {
            let f = case.flows.iter().position(|f| f.key == r.flow).unwrap();
            if r.generation != inst.generation() {
                let g = r.generation;
                obs.errors
                    .push(format!("flow {f}: result stamped generation {g}"));
            }
            for rep in &r.reports {
                let mb = rep.middlebox_id;
                let pids: Vec<u16> = expand_records(&rep.records).iter().map(|r| r.0).collect();
                for &pid in &pids {
                    *obs.counts.entry((f, mb, pid)).or_default() += 1;
                }
                let v = case.model.middlebox(mb).logic.evaluate(&pids);
                obs.verdict(f, mb, !v.fired.is_empty(), v.block);
            }
        }
        batch.clear();
    };
    let mut batch = Vec::new();
    for (i, &(f, s)) in case.order.iter().enumerate() {
        if case.config.update_at == Some(i) {
            flush(&mut inst, &mut batch, &mut obs);
            let next = ScanEngine::with_generation(case.instance_config(true), 1).unwrap();
            inst.swap_engine(Arc::new(next)).unwrap();
        }
        let (flow, (seq, payload)) = (&case.flows[f], &case.flows[f].segments[s]);
        let (m1, m2) = (MacAddr::local(1), MacAddr::local(2));
        let mut p = Packet::tcp(m1, m2, flow.key, *seq, payload.clone());
        p.push_chain_tag(flow.chain as u16 + 1).unwrap();
        batch.push(p);
        if batch.len() == 32 {
            flush(&mut inst, &mut batch, &mut obs);
        }
    }
    flush(&mut inst, &mut batch, &mut obs);

    for (i, f) in case.flows.iter().enumerate() {
        obs.evidence[i].evicted = inst.telemetry().flows_evicted > 0;
        obs.evidence[i].shed = inst.total_shed() > 0;
        obs.evidence[i].quarantined = inst.flow_quarantined(&f.key);
    }
    // Per-tenant attribution: every match the instance counted is one
    // its tenant's middleboxes were told of.
    for (tenant, c) in inst.tenant_telemetry() {
        let of_tenant = |mb: u16| case.model.middlebox(mb).tenant == tenant.0;
        let told: u64 = obs
            .counts
            .iter()
            .filter(|(k, _)| of_tenant(k.1))
            .map(|(_, n)| n)
            .sum();
        if c.matches != told {
            let e = format!("tenant {tenant}: {} counted, {told} told", c.matches);
            obs.errors.push(e);
        }
    }
    obs.trace = to_jsonl(&tracer.snapshot());
    obs.skipped = inst.telemetry().scan_bytes_skipped;
    obs
}

/// Every middlebox's `(matches, rules fired, blocked)` and every fleet
/// instance's `(swallowed, results lost)`.
type Counters = (Vec<(u64, u64, u64)>, Vec<(u64, u64)>);

fn counters(sys: &SystemHandle) -> Counters {
    let mbs = MBS.iter().map(|&m| sys.stats_of(MiddleboxId(m)).unwrap());
    let fleet = sys.fleet_stats.iter().map(|s| s.lock());
    (
        mbs.map(|s| (s.matches, s.rules_fired, s.blocked)).collect(),
        fleet.map(|s| (s.swallowed, s.results_lost)).collect(),
    )
}

/// Drives the case through the whole system, one `send` per segment,
/// reading verdicts at the middleboxes.
fn run_send(case: &Case) -> Observed {
    let mut b = SystemBuilder::new()
        .with_conflict_policy(case.config.policy)
        .with_dpi_instances(case.config.instances);
    for id in MBS {
        let (profile, rules) = case.registration(id, false);
        let logic = case.model.middlebox(id).logic.clone();
        b = b.with_middlebox(MiddleboxTemplate {
            profile,
            name: format!("mb-{id}"),
            rules,
            logic,
        });
    }
    for members in CHAINS {
        b = b.with_chain(&members.iter().map(|&m| MiddleboxId(m)).collect::<Vec<_>>());
    }
    if case.config.l7 {
        b = b.with_l7_policy(L7Policy::default());
    }
    let plan = FaultPlan::new(case.seed ^ case.index as u64);
    b = match case.config.fault {
        Fault::None => b,
        Fault::DropDup => b.with_chaos(plan.drop_result_packets(0.3).duplicate_result_packets(0.2)),
        Fault::Kill(i, k) => b.with_chaos(plan.kill_instance_at_packet(i, k)),
    };
    let mut sys = b.build().unwrap();
    for f in &case.flows {
        let i = sys.steered_instance_of(&f.key).unwrap();
        if f.chain != 0 {
            let port = sys.dpi_ports[i];
            sys.tsa.steer_flow(sys.chain_ids[f.chain], 0, &f.key, port);
        }
        if case.config.l7 {
            sys.dpi_instances[i].lock().open_tcp_flow(f.key, f.isn);
        }
    }
    let mut obs = Observed::new(case.flows.len());
    let mut served: Vec<Option<usize>> = vec![None; case.flows.len()];
    for (i, &(f, s)) in case.order.iter().enumerate() {
        if case.config.update_at == Some(i) {
            let added = case.registration(S, true).1.pop().unwrap();
            let (mb, controller) = (MiddleboxId(S), &sys.controller);
            controller.add_pattern(mb, added.id, &added.spec).unwrap();
            assert!(sys.apply_update().unwrap().committed);
        }
        if i % 8 == 7 {
            sys.heartbeat_round();
        }
        let key = case.flows[f].key;
        let at = sys.steered_instance_of(&key);
        obs.evidence[f].failover |= served[f].is_some_and(|was| Some(was) != at);
        served[f] = at;
        let (mbs0, fleet0) = counters(&sys);
        let (seq, payload) = &case.flows[f].segments[s];
        sys.send(key, *seq, payload);
        let (mbs1, fleet1) = counters(&sys);
        for ((&m, a), b) in MBS.iter().zip(mbs0).zip(mbs1) {
            if b.0 > a.0 {
                *obs.counts.entry((f, m, u16::MAX)).or_default() += b.0 - a.0;
            }
            obs.verdict(f, m, b.1 > a.1, b.2 > a.2);
        }
        for (a, b) in fleet0.iter().zip(&fleet1) {
            obs.evidence[f].failover |= b.0 > a.0;
            obs.evidence[f].result_lost |= b.1 > a.1;
        }
    }
    let evicted = sys.fleet_telemetry().iter().any(|t| t.flows_evicted > 0);
    let shed = sys.dpi_instances.iter().any(|d| d.lock().total_shed() > 0);
    for (i, f) in case.flows.iter().enumerate() {
        let inst = &sys.dpi_instances[served[i].unwrap_or(0)];
        let e = &mut obs.evidence[i];
        (e.evicted, e.shed) = (evicted, shed);
        e.quarantined = inst.lock().flow_quarantined(&f.key);
    }
    obs.trace = sys.trace_jsonl();
    obs.skipped = sys
        .metrics_text()
        .lines()
        .filter(|l| l.starts_with("dpi_scan_bytes_skipped_total{"))
        .map(|l| l.rsplit_once(' ').unwrap().1.parse::<u64>().unwrap())
        .sum();
    let stats = MBS.iter().map(|&m| sys.stats_of(MiddleboxId(m)).unwrap());
    obs.unpaired = stats.map(|s| s.unpaired).sum();
    obs
}

#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Path {
    Batch,
    Send,
}

/// What a seed's cases drew and lost.
#[derive(Default)]
pub struct Tally {
    pub dims: BTreeMap<&'static str, BTreeMap<String, usize>>,
    /// Missed occurrences per path and class.
    losses: BTreeMap<(Path, LossCase), u64>,
    /// Occurrences reported beyond the stream's view, per path and class:
    /// by restarted flows, and across the junction of reordered payloads.
    extras: BTreeMap<(Path, LossCase), u64>,
    /// Claims the model can only bound (units set by a decoder).
    bounded: u64,
    /// Cases that draw no loss, each held exactly to the model.
    loss_free: usize,
    /// Runs whose kernel skipped bytes by its prefix filter.
    pub skipping: usize,
    /// Marked packets the middleboxes processed without their result.
    pub unpaired: u64,
}

/// Names the documented class explaining `s` occurrences against `c`,
/// `None` when nothing was lost.
fn classify(s: u64, c: &Claim, ev: &Evidence, path: Path) -> Result<Option<LossCase>, String> {
    let miss = c.want.saturating_sub(s);
    let class = if s > c.hi {
        // A flow the service forgot restarts at its next packet.
        match (ev.evicted, ev.failover) {
            _ if s > c.hi.saturating_add(c.restart) => None,
            (true, _) => Some(LossCase::EvictionOrReAnchor),
            (false, true) => Some(LossCase::FailoverStateLoss),
            (false, false) => None,
        }
    } else if miss == 0 {
        return Ok(None);
    } else if miss <= c.reanchor {
        Some(LossCase::EvictionOrReAnchor)
    } else if miss <= c.reanchor + u64::from(c.regex_straddle) {
        Some(LossCase::RegexStraddle)
    } else if ev.evicted {
        Some(LossCase::EvictionOrReAnchor)
    } else if ev.failover {
        Some(LossCase::FailoverStateLoss)
    } else if ev.result_lost {
        Some(LossCase::ResultLost)
    } else if ev.quarantined && path == Path::Send {
        Some(LossCase::ClosedFlow)
    } else {
        ev.shed.then_some(LossCase::FailOpenShed)
    };
    match class {
        Some(loss) => Ok(Some(loss)),
        None if s > c.hi => Err(format!("FABRICATED: {s} reported, {} allowed", c.hi)),
        None => Err(format!("SILENT MISS: {s} reported of {} ({c:?})", c.want)),
    }
}

/// Judges one path's run against the model; returns the divergences.
fn judge(case: &Case, path: Path, obs: &Observed, tally: &mut Tally) -> Vec<String> {
    let mut errors = obs.errors.clone();
    let mut claimed = BTreeSet::new();
    let l7 = case.config.l7;
    for (f, flow) in case.flows.iter().enumerate() {
        let chain = flow.chain as u16;
        let (view, quarantines) = case.view(f);
        let ev = obs.evidence[f];
        let unit = ScanEngine::MAX_UNIT_BYTES;
        if view.stream.len() > unit || flow.segments.iter().any(|s| s.1.len() > unit) {
            // Never drawn: the evidence would be the oversized unit.
            errors.push(format!("flow {f}: {:?}", LossCase::UnitBound));
        }
        let mut claims = case.model.claims(chain, &view);
        let whole = reassemble(flow.isn, &flow.segments, ConflictPolicy::FirstWins);
        if ev.evicted || ev.failover {
            let (sent, _) = arrival(&flow.segments);
            let decoded = flow.decoded.clone().unwrap_or_default();
            let wire = case.model.wire(chain, &[&sent, &whole.stream, &decoded]);
            for (c, w) in claims.iter_mut().zip(wire) {
                c.2.restart = w;
            }
        }
        if !l7 {
            // The arrival-order view is what the path promises; how far
            // it is from the reassembled stream is the class's tally.
            let claims_of = |s, u| case.model.claims(chain, &View::new(s, u, Update::None));
            let t = claims_of(whole.stream, whole.units);
            let a = claims_of(view.stream.clone(), view.units.clone());
            let key = (path, LossCase::ArrivalOrder);
            for ((_, _, a), (_, _, t)) in a.iter().zip(&t) {
                *tally.losses.entry(key).or_default() += t.want.saturating_sub(a.want);
                *tally.extras.entry(key).or_default() += a.want.saturating_sub(t.want);
            }
        }
        // Per rule on the batch path; per middlebox at the middleboxes.
        let mut grouped: BTreeMap<(u16, u16), Claim> = BTreeMap::new();
        for &(mb, rule, c) in &claims {
            let rule = if path == Path::Send { u16::MAX } else { rule };
            *grouped.entry((mb, rule)).or_default() += c;
        }
        // Middleboxes told exactly what the model says, nothing lost.
        let mut exact: BTreeMap<u16, bool> = BTreeMap::new();
        for (&(mb, rule), c) in &grouped {
            claimed.insert((f, mb, rule));
            tally.bounded += u64::from(c.want != c.hi);
            let s = obs.counts.get(&(f, mb, rule)).copied().unwrap_or(0);
            let mut lossless = c.want == c.hi;
            match classify(s, c, &ev, path) {
                Ok(None) => {}
                Ok(Some(loss)) => {
                    lossless = false;
                    let (tallied, n) = if s > c.hi {
                        (&mut tally.extras, s - c.hi)
                    } else {
                        (&mut tally.losses, c.want - s)
                    };
                    *tallied.entry((path, loss)).or_default() += n;
                    // Regex straddles and closed flows come with traffic
                    // and the conflict policy, not with a lossy draw.
                    let drawn = !matches!(loss, LossCase::RegexStraddle | LossCase::ClosedFlow);
                    if !case.lossy() && drawn {
                        errors.push(format!(
                            "flow {f} mb {mb} rule {rule}: {loss:?} with no loss drawn"
                        ));
                    }
                }
                Err(e) => errors.push(format!("flow {f} mb {mb} rule {rule}: {e}")),
            }
            *exact.entry(mb).or_insert(true) &= lossless;
        }
        // The middlebox's own logic over what the model says it is told.
        for (&mb, _) in exact.iter().filter(|e| *e.1) {
            let told = |c: &&(u16, u16, Claim)| c.0 == mb && c.2.want > 0;
            let pids: Vec<u16> = claims.iter().filter(told).map(|c| c.1).collect();
            let v = case.model.middlebox(mb).logic.evaluate(&pids);
            let want = (!v.fired.is_empty(), v.block);
            let got = obs.verdicts.get(&(f, mb)).copied().unwrap_or_default();
            if got != want {
                let e =
                    format!("flow {f} mb {mb}: verdict (fired, blocked) {got:?}, model {want:?}");
                errors.push(e);
            }
        }
        let settled = !ev.evicted && !ev.failover;
        if l7 && settled && ev.quarantined != quarantines {
            let e = format!(
                "flow {f}: quarantined {}, model {quarantines}",
                ev.quarantined
            );
            errors.push(e);
        }
    }
    // A result follows its data packet through every hop, so a marked
    // packet goes unpaired only when its result was lost or its flow is
    // closed.
    let excused = obs.evidence.iter().any(|e| e.result_lost || e.quarantined);
    if obs.unpaired > 0 && !excused {
        errors.push(format!("{} marked packet(s) unpaired", obs.unpaired));
    }
    tally.unpaired += obs.unpaired;
    for (key, n) in &obs.counts {
        if !claimed.contains(key) {
            errors.push(format!(
                "FABRICATED: {n} report(s) to an unentitled (flow, mb, rule) {key:?}"
            ));
        }
    }
    errors
}

/// Draws [`CASES`] configurations per seed (1/7/42, or `DPI_CHAOS_SEED`),
/// lets `shape` pin what it pins and keep or skip each, and judges every
/// kept case on `paths` against the model, which is first pinned to the
/// paper ([`pin_to_paper`]). Panics on a divergence, or when a seed keeps
/// no case; returns each seed's tally.
pub fn sweep(paths: &[Path], shape: impl Fn(&mut Case) -> bool) -> Vec<(u64, Tally)> {
    pin_to_paper();
    let seeds = match std::env::var("DPI_CHAOS_SEED") {
        Ok(s) => vec![s.parse().expect("DPI_CHAOS_SEED must be a u64")],
        Err(_) => vec![1, 7, 42],
    };
    let log_dir = std::env::var("DPI_CHAOS_LOG_DIR").ok();
    let mut divergences = Vec::new();
    let mut tallies = Vec::new();
    for seed in seeds {
        let mut tally = Tally::default();
        let mut kept = 0;
        for index in 0..CASES {
            let mut case = Case::draw(seed, index);
            if !shape(&mut case) {
                continue;
            }
            kept += 1;
            tally.loss_free += usize::from(!case.lossy());
            for (dim, value) in case.draws() {
                *tally.dims.entry(dim).or_default().entry(value).or_default() += 1;
            }
            for &path in paths {
                let obs = match path {
                    Path::Batch => run_batch(&case),
                    Path::Send => run_send(&case),
                };
                tally.skipping += usize::from(obs.skipped > 0);
                let errors = judge(&case, path, &obs, &mut tally);
                if errors.is_empty() {
                    continue;
                }
                if let Some(dir) = &log_dir {
                    std::fs::create_dir_all(dir).unwrap();
                    let name = format!("{dir}/spec-seed-{seed}-case-{index}-{path:?}.jsonl");
                    std::fs::write(name, &obs.trace).unwrap();
                }
                let replay = format!("replay: DPI_CHAOS_SEED={seed}");
                divergences.push(format!(
                    "{path:?} path, {}  {replay}\n  {}",
                    case.describe(),
                    errors.join("\n  ")
                ));
            }
        }
        assert!(kept > 0, "seed {seed}: no drawn case kept");
        let dims = &tally.dims;
        eprintln!("seed {seed}: {kept} of {CASES} cases, dimension draws {dims:?}");
        eprintln!(
            "seed {seed}: {} loss-free cases; occurrences missed {:?}, added {:?}; \
             {} bounded claims; {} runs skipped bytes",
            tally.loss_free, tally.losses, tally.extras, tally.bounded, tally.skipping
        );
        eprintln!("seed {seed}: {} packets unpaired", tally.unpaired);
        tallies.push((seed, tally));
    }
    let n = divergences.len();
    assert!(n == 0, "{n} divergence(s):\n{}", divergences.join("\n"));
    tallies
}

/// The model pinned to the paper before it judges anything: the two
/// middleboxes of the combined-automaton example (`E, BE, BD, BCD, BCAA,
/// CDBCAB` and `EDAE, BE, CDBA, CBD`), one stateful and one stateless
/// either way round, every input cut at every point, report the model's
/// `(pattern, end)` set through one `DpiInstance`'s `inspect_batch` on
/// every kernel at 1, 2 and 8 workers — ends flow-absolute, read from
/// each result's `flow_offset`.
pub fn pin_to_paper() {
    let sets: [&[&str]; 2] = [
        &["E", "BE", "BD", "BCD", "BCAA", "CDBCAB"],
        &["EDAE", "BE", "CDBA", "CBD"],
    ];
    let (m1, m2) = (MacAddr::local(1), MacAddr::local(2));
    for stateful_first in [false, true] {
        let mut cfg = InstanceConfig::new().with_chain(1, vec![MiddleboxId(0), MiddleboxId(1)]);
        let mut middleboxes = Vec::new();
        for (id, set) in (0..).zip(sets) {
            let specs: Vec<RuleSpec> = set.iter().map(|p| RuleSpec::exact(p.as_bytes())).collect();
            let stateful = (id == 0) == stateful_first;
            let mut profile = MiddleboxProfile::stateless(MiddleboxId(id));
            profile.stateful = stateful;
            cfg = cfg.with_middlebox(profile, specs.clone());
            middleboxes.push(Middlebox {
                id,
                tenant: 0,
                stateful,
                stop: None,
                rules: (0..).zip(&specs).map(|(i, r)| rule(i, r, false)).collect(),
                logic: RuleLogic::default(),
            });
        }
        let model = Model {
            middleboxes,
            chains: vec![(1, vec![0, 1])],
        };
        for kernel in KernelKind::ALL {
            for workers in [1, 2, 8] {
                let engine = Arc::new(ScanEngine::new(cfg.clone().with_kernel(kernel)).unwrap());
                for input in ["CDBCABEDAE", "BCAACBDBE", "EDAEBCDBCAA", "xBEyCDBAz"] {
                    // One flow per cut point, its source port the cut.
                    let mut dpi = DpiInstance::with_workers(Arc::clone(&engine), workers);
                    let input = input.as_bytes();
                    let mut batch = Vec::new();
                    for cut in 0..=input.len() {
                        let key = flow(CLIENT, cut as u16, SERVER, 80, IpProtocol::Tcp);
                        for (off, part) in [(0, &input[..cut]), (cut, &input[cut..])] {
                            batch.push(Packet::tcp(m1, m2, key, off as u32, part.to_vec()));
                            batch.last_mut().unwrap().push_chain_tag(1).unwrap();
                        }
                    }
                    let mut got = vec![Vec::new(); input.len() + 1];
                    for r in dpi.inspect_batch(&mut batch) {
                        let ends = r.reports.iter().flat_map(|rep| {
                            let ends = expand_records(&rep.records).into_iter();
                            ends.map(|(pid, pos)| (rep.middlebox_id, pid, usize::from(pos)))
                        });
                        let at = r.flow_offset as usize;
                        got[usize::from(r.flow.src_port)]
                            .extend(ends.map(|(m, p, e)| (m, p, at + e)));
                    }
                    for (cut, got) in got.iter_mut().enumerate() {
                        got.sort_unstable();
                        let units = Some(vec![0..cut, cut..input.len()]);
                        let want =
                            model.matches(1, &View::new(input.to_vec(), units, Update::None));
                        assert_eq!(*got, want, "{kernel:?} ×{workers} {input:?} cut at {cut}");
                    }
                }
            }
        }
    }
}
