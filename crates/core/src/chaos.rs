//! Deterministic fault injection.
//!
//! The paper sells consolidation partly on resilience: when a DPI
//! instance fails, the controller re-steers its flows to surviving
//! instances (§4). Claims like that are only worth anything if every
//! failure scenario is a *reproducible test*, so this module turns
//! failures into data: a [`FaultPlan`] declares which faults happen and
//! when, a seeded PRNG decides the probabilistic ones, and the running
//! [`ChaosEngine`] records every injection in the deployment's trace
//! ring ([`crate::trace`]) beside the system's reactions to it, so two
//! runs from the same seed record the same events — in faults injected,
//! packets lost and telemetry observed.
//!
//! Faults covered:
//!
//! * **kill-instance-at-packet-K** — a DPI instance stops responding
//!   (packets blackholed, heartbeats cease) from its K-th packet on;
//! * **stall-shard / panic-shard** — one worker shard of a
//!   [`crate::pipeline::DpiInstance`] sleeps (its ingress queue fills
//!   behind it), or panics mid-batch;
//! * **drop / duplicate result packets** — each dedicated result packet
//!   delivery attempt is independently lost (or the delivered packet
//!   duplicated) with probability p; the delivery layer makes a fixed
//!   number of attempts;
//! * **corrupt-rule-update** — the Nth pattern update delivered to a
//!   running instance arrives garbled and must not take the instance
//!   down.
//!
//! The stance throughout is the one `tests/failure_injection.rs`
//! established: **fail-open for data** (packets keep flowing without
//! results), **fail-closed for verdicts** (a lost result can only ever
//! suppress matches, never invent them).

use crate::trace::{TraceKind, TraceSource, Tracer};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::sync::Mutex;

/// A scheduled fault against one worker shard of a sharded scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard sleeps this many milliseconds when it reaches the
    /// trigger packet, so the feeder fills its ingress queue behind it.
    Stall(u64),
    /// The shard panics when it reaches the trigger packet.
    Panic,
}

/// One shard-fault entry: `fault` fires when shard `shard` processes its
/// `at_packet`-th packet (shard-local ordinal, 0-based).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardFaultSpec {
    /// Target shard index.
    pub shard: usize,
    /// Shard-local packet ordinal that triggers the fault.
    pub at_packet: u64,
    /// What happens.
    pub fault: ShardFault,
}

/// A declarative, seed-driven failure scenario.
///
/// ```
/// use dpi_core::chaos::FaultPlan;
/// let plan = FaultPlan::new(42)
///     .kill_instance_at_packet(1, 10)
///     .drop_result_packets(0.25)
///     .stall_shard(0, 3, 50);
/// let chaos = plan.start();
/// assert!(chaos.instance_alive(1));
/// ```
#[derive(Debug, Clone, Default, PartialEq)]
pub struct FaultPlan {
    /// Seed for every probabilistic decision.
    pub seed: u64,
    /// `(instance index, packet ordinal K)`: the instance blackholes
    /// traffic and stops heartbeating once it has seen K packets.
    pub kill_at: Vec<(usize, u64)>,
    /// Scheduled shard stalls/panics.
    pub shard_faults: Vec<ShardFaultSpec>,
    /// Probability in `[0, 1]` that a dedicated result packet is lost in
    /// delivery (each delivery attempt draws independently).
    pub drop_result_p: f64,
    /// Probability in `[0, 1]` that a delivered result packet is
    /// duplicated by the network.
    pub duplicate_result_p: f64,
    /// 0-based ordinals of rule updates that arrive corrupted.
    pub corrupt_updates: Vec<u64>,
}

impl FaultPlan {
    /// An empty plan driven by `seed` — no faults until configured.
    pub fn new(seed: u64) -> FaultPlan {
        FaultPlan {
            seed,
            ..FaultPlan::default()
        }
    }

    /// Kills DPI instance `instance` after it has processed `k` packets.
    pub fn kill_instance_at_packet(mut self, instance: usize, k: u64) -> FaultPlan {
        self.kill_at.push((instance, k));
        self
    }

    /// Stalls shard `shard` for `millis` ms at its `at_packet`-th packet.
    pub fn stall_shard(mut self, shard: usize, at_packet: u64, millis: u64) -> FaultPlan {
        self.shard_faults.push(ShardFaultSpec {
            shard,
            at_packet,
            fault: ShardFault::Stall(millis),
        });
        self
    }

    /// Panics shard `shard` at its `at_packet`-th packet.
    pub fn panic_shard(mut self, shard: usize, at_packet: u64) -> FaultPlan {
        self.shard_faults.push(ShardFaultSpec {
            shard,
            at_packet,
            fault: ShardFault::Panic,
        });
        self
    }

    /// Drops each result packet with probability `p`.
    pub fn drop_result_packets(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "drop probability out of [0,1]");
        self.drop_result_p = p;
        self
    }

    /// Duplicates each delivered result packet with probability `p`.
    pub fn duplicate_result_packets(mut self, p: f64) -> FaultPlan {
        assert!(
            (0.0..=1.0).contains(&p),
            "duplicate probability out of [0,1]"
        );
        self.duplicate_result_p = p;
        self
    }

    /// Corrupts the `n`-th (0-based) rule update delivered to instances.
    pub fn corrupt_rule_update(mut self, n: u64) -> FaultPlan {
        self.corrupt_updates.push(n);
        self
    }

    /// Starts the scenario: a shareable engine that makes every runtime
    /// fault decision deterministically from the plan's seed.
    pub fn start(self) -> Arc<ChaosEngine> {
        let rng = StdRng::seed_from_u64(self.seed);
        Arc::new(ChaosEngine {
            inner: Mutex::new(ChaosInner {
                rng,
                instance_packets: Vec::new(),
                update_ordinal: 0,
                tracer: None,
            }),
            plan: self,
        })
    }
}

#[derive(Debug)]
struct ChaosInner {
    rng: StdRng,
    /// Packets seen per instance index (grows on demand).
    instance_packets: Vec<u64>,
    /// Rule updates delivered so far.
    update_ordinal: u64,
    /// The deployment's tracer: injected faults become
    /// [`TraceSource::Chaos`] events in the same ring as the effects
    /// other components record.
    tracer: Option<Arc<Tracer>>,
}

impl ChaosInner {
    fn trace(&self, kind: TraceKind) {
        if let Some(t) = &self.tracer {
            t.record(TraceSource::Chaos, kind);
        }
    }
}

/// The running side of a [`FaultPlan`]: consulted by the system at each
/// fault point. All decisions sit behind one mutex — chaos is
/// control-plane-rate, not per-byte.
#[derive(Debug)]
pub struct ChaosEngine {
    plan: FaultPlan,
    inner: Mutex<ChaosInner>,
}

impl ChaosEngine {
    /// The plan this engine runs.
    pub fn plan(&self) -> &FaultPlan {
        &self.plan
    }

    /// Attaches the tracer every fault injection is recorded to, as a
    /// [`TraceSource::Chaos`] event.
    pub fn attach_tracer(&self, tracer: Arc<Tracer>) {
        self.lock().tracer = Some(tracer);
    }

    /// Records a packet arriving at DPI instance `instance` and returns
    /// whether the instance is still alive to process it. The K-th packet
    /// (0-based ordinal K) is the first one lost, and the one the death
    /// is traced at.
    pub fn on_instance_packet(&self, instance: usize) -> bool {
        let mut g = self.lock();
        if g.instance_packets.len() <= instance {
            g.instance_packets.resize(instance + 1, 0);
        }
        let ordinal = g.instance_packets[instance];
        g.instance_packets[instance] += 1;
        let kill = self.kill_ordinal(instance);
        if kill == Some(ordinal) {
            g.trace(TraceKind::FaultInstanceKilled {
                instance: instance as u32,
                at_packet: ordinal,
            });
        }
        kill.is_none_or(|k| ordinal < k)
    }

    /// Whether instance `instance` still responds (heartbeats, traffic),
    /// judged against the packets it has absorbed so far. A kill at K = 0
    /// means dead from the start, even before any packet arrives.
    pub fn instance_alive(&self, instance: usize) -> bool {
        let seen = self.lock().instance_packets.get(instance).copied();
        let last = seen.unwrap_or(0).saturating_sub(1);
        self.kill_ordinal(instance).is_none_or(|k| last < k)
    }

    /// The first packet ordinal at which `instance` is dead, if the plan
    /// kills it.
    fn kill_ordinal(&self, instance: usize) -> Option<u64> {
        self.plan
            .kill_at
            .iter()
            .filter(|&&(i, _)| i == instance)
            .map(|&(_, k)| k)
            .min()
    }

    /// Draws whether one result-packet delivery attempt is lost.
    pub fn drop_result(&self) -> bool {
        self.plan.drop_result_p > 0.0 && self.lock().rng.gen_bool(self.plan.drop_result_p)
    }

    /// Draws whether a delivered result packet is duplicated.
    pub fn duplicate_result(&self) -> bool {
        self.plan.duplicate_result_p > 0.0 && self.lock().rng.gen_bool(self.plan.duplicate_result_p)
    }

    /// Records one rule update passing through and returns whether this
    /// one arrives corrupted.
    pub fn next_rule_update_corrupted(&self) -> bool {
        let mut g = self.lock();
        let n = g.update_ordinal;
        g.update_ordinal += 1;
        let corrupted = self.plan.corrupt_updates.contains(&n);
        if corrupted {
            g.trace(TraceKind::FaultUpdateCorrupted { ordinal: n });
        }
        corrupted
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A started plan whose injections land in a fresh tracer.
    fn traced(plan: FaultPlan) -> (Arc<ChaosEngine>, Arc<Tracer>) {
        let tracer = Arc::new(Tracer::new());
        let chaos = plan.start();
        chaos.attach_tracer(Arc::clone(&tracer));
        (chaos, tracer)
    }

    /// The seq-ordered kinds the chaos engine traced.
    fn kinds(tracer: &Tracer) -> Vec<TraceKind> {
        assert_eq!(tracer.dropped(), 0, "a truncated trace compares nothing");
        tracer.snapshot().iter().map(|e| e.kind).collect()
    }

    #[test]
    fn same_seed_same_decisions() {
        // Drops and duplicates draw from one RNG stream, so a seed
        // replays the whole interleaved sequence.
        let run = |seed| {
            let chaos = FaultPlan::new(seed)
                .drop_result_packets(0.5)
                .duplicate_result_packets(0.3)
                .start();
            (0..64)
                .map(|_| (chaos.drop_result(), chaos.duplicate_result()))
                .collect::<Vec<(bool, bool)>>()
        };
        let a = run(7);
        assert_eq!(a, run(7));
        assert_ne!(a, run(8));
    }

    #[test]
    fn kill_at_packet_k_blackholes_from_k_onward() {
        let (chaos, tracer) = traced(FaultPlan::new(1).kill_instance_at_packet(0, 3));
        assert!(chaos.instance_alive(0));
        let survivals: Vec<bool> = (0..6).map(|_| chaos.on_instance_packet(0)).collect();
        assert_eq!(survivals, vec![true, true, true, false, false, false]);
        assert!(!chaos.instance_alive(0));
        // An unrelated instance is untouched.
        assert!(chaos.on_instance_packet(1));
        assert!(chaos.instance_alive(1));
        // The death is traced exactly once, at the kill ordinal.
        assert_eq!(
            kinds(&tracer),
            [TraceKind::FaultInstanceKilled {
                instance: 0,
                at_packet: 3
            }]
        );
    }

    #[test]
    fn kill_at_zero_means_dead_on_arrival() {
        let (chaos, tracer) = traced(FaultPlan::new(1).kill_instance_at_packet(2, 0));
        assert!(!chaos.instance_alive(2));
        assert!(!chaos.on_instance_packet(2));
        assert!(!chaos.on_instance_packet(2));
        // The death is recorded once, at the first packet.
        assert_eq!(
            kinds(&tracer),
            [TraceKind::FaultInstanceKilled {
                instance: 2,
                at_packet: 0
            }]
        );
    }

    #[test]
    fn corrupt_updates_hit_exact_ordinals() {
        let (chaos, tracer) = traced(
            FaultPlan::new(3)
                .corrupt_rule_update(1)
                .corrupt_rule_update(3),
        );
        let hits: Vec<bool> = (0..5).map(|_| chaos.next_rule_update_corrupted()).collect();
        assert_eq!(hits, vec![false, true, false, true, false]);
        assert_eq!(
            kinds(&tracer),
            [
                TraceKind::FaultUpdateCorrupted { ordinal: 1 },
                TraceKind::FaultUpdateCorrupted { ordinal: 3 }
            ]
        );
    }

    #[test]
    fn zero_probability_draws_nothing_and_logs_nothing() {
        let (chaos, tracer) = traced(FaultPlan::new(9));
        assert!(!chaos.drop_result());
        assert!(!chaos.duplicate_result());
        assert!(tracer.is_empty());
    }
}
