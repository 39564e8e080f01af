//! Deterministic fault injection.
//!
//! The paper sells consolidation partly on resilience: when a DPI
//! instance fails, the controller re-steers its flows to surviving
//! instances (§4). Claims like that are only worth anything if every
//! failure scenario is a *reproducible test*, so this module turns
//! failures into data: a [`FaultPlan`] declares which faults happen and
//! when, a seeded PRNG decides the probabilistic ones, and the running
//! [`ChaosEngine`] keeps an ordered fault log so two runs from the same
//! seed are byte-identical — in faults injected, packets lost and
//! telemetry observed.
//!
//! Faults covered:
//!
//! * **kill-instance-at-packet-K** — a DPI instance stops responding
//!   (packets blackholed, heartbeats cease) after its K-th packet;
//! * **stall-shard / panic-shard** — one worker shard of a
//!   [`crate::pipeline::DpiInstance`] sleeps past its watchdog
//!   deadline, or panics mid-batch;
//! * **drop / duplicate result packets** — each dedicated result packet
//!   is independently lost (or duplicated) with probability p, the
//!   delivery layer retrying with bounded exponential backoff;
//! * **corrupt-rule-update** — the Nth pattern update delivered to a
//!   running instance arrives garbled and must not take the instance
//!   down.
//!
//! The stance throughout is the one `tests/failure_injection.rs`
//! established: **fail-open for data** (packets keep flowing without
//! results), **fail-closed for verdicts** (a lost result can only ever
//! suppress matches, never invent them).

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;
use std::sync::Mutex;
use std::time::Duration;

/// A scheduled fault against one worker shard of a sharded scanner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShardFault {
    /// The shard sleeps this many milliseconds when it reaches the
    /// trigger packet — long enough to blow a watchdog deadline.
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
    /// Traffic amplification during burst windows: each source send is
    /// repeated this many times while a burst is active (1 = no burst).
    pub burst_factor: u32,
    /// Source-packet period of the burst cycle (0 = bursts disabled).
    pub burst_period: u64,
    /// How many source packets at the start of each period burst.
    pub burst_len: u64,
    /// Probability in `[0, 1]` that a newly opened flow is replaced by an
    /// adversarial evasion-attempt flow from the `dpi_traffic` generator
    /// (overlap conflicts, ambiguous retransmits, wrap-adjacent sequence
    /// games — DESIGN.md §13).
    pub evasive_flow_p: f64,
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

    /// Amplifies source traffic in periodic bursts: for every `period`
    /// source packets, the first `len` are each sent `factor` times.
    /// Drives the overload control path with a seeded, reproducible
    /// 10×-style traffic spike.
    pub fn burst_traffic(mut self, factor: u32, period: u64, len: u64) -> FaultPlan {
        assert!(factor >= 1, "burst factor must be ≥ 1");
        assert!(len <= period, "burst length cannot exceed the burst period");
        self.burst_factor = factor;
        self.burst_period = period;
        self.burst_len = len;
        self
    }

    /// Makes each newly opened flow an adversarial evasion attempt with
    /// probability `p`: the traffic source asks
    /// [`ChaosEngine::next_flow_evasive`] per flow and, on a hit, feeds
    /// the flow's segments from the `dpi_traffic` evasion generator using
    /// the returned per-flow seed.
    pub fn evasive_flows(mut self, p: f64) -> FaultPlan {
        assert!((0.0..=1.0).contains(&p), "evasive probability out of [0,1]");
        self.evasive_flow_p = p;
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
                source_ordinal: 0,
                log: Vec::new(),
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
    /// Source packets sent so far (drives the burst cycle).
    source_ordinal: u64,
    /// Ordered human-readable fault events.
    log: Vec<String>,
    /// Optional structured-event tracer: injected faults become trace
    /// events, so a post-mortem can correlate each injection with the
    /// effects other components recorded.
    tracer: Option<Arc<crate::trace::Tracer>>,
}

/// The running side of a [`FaultPlan`]: consulted by the system at each
/// fault point. All decisions and the fault log sit behind one mutex —
/// chaos is control-plane-rate, not per-byte.
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

    /// Attaches a structured-event tracer: every fault injection is
    /// recorded as a [`crate::trace::TraceSource::Chaos`] event alongside
    /// the human-readable fault log.
    pub fn attach_tracer(&self, tracer: Arc<crate::trace::Tracer>) {
        self.lock().tracer = Some(tracer);
    }

    /// Records a packet arriving at DPI instance `instance` and returns
    /// whether the instance is still alive to process it. The K-th packet
    /// (0-based ordinal K) is the first one lost.
    pub fn on_instance_packet(&self, instance: usize) -> bool {
        let mut g = self.lock();
        if g.instance_packets.len() <= instance {
            g.instance_packets.resize(instance + 1, 0);
        }
        let ordinal = g.instance_packets[instance];
        g.instance_packets[instance] += 1;
        let alive = self.alive_at(instance, ordinal);
        if !alive && self.alive_at(instance, ordinal.saturating_sub(1)) {
            g.log
                .push(format!("instance {instance} died at packet {ordinal}"));
            if let Some(t) = &g.tracer {
                t.record(
                    crate::trace::TraceSource::Chaos,
                    crate::trace::TraceKind::FaultInstanceKilled {
                        instance: instance as u32,
                        at_packet: ordinal,
                    },
                );
            }
        }
        alive
    }

    /// Whether instance `instance` still responds (heartbeats, traffic),
    /// judged against the packets it has absorbed so far.
    pub fn instance_alive(&self, instance: usize) -> bool {
        let g = self.lock();
        let seen = g.instance_packets.get(instance).copied().unwrap_or(0);
        // Dead once the kill ordinal has been reached.
        self.alive_at(instance, seen.saturating_sub(1)) && {
            // A kill at K=0 means dead from the start, even before
            // any packet arrives.
            !self
                .plan
                .kill_at
                .iter()
                .any(|&(i, k)| i == instance && k == 0)
        }
    }

    fn alive_at(&self, instance: usize, ordinal: u64) -> bool {
        !self
            .plan
            .kill_at
            .iter()
            .any(|&(i, k)| i == instance && ordinal >= k)
    }

    /// Draws whether one result-packet delivery attempt is lost.
    pub fn drop_result(&self, context: &str) -> bool {
        if self.plan.drop_result_p <= 0.0 {
            return false;
        }
        let mut g = self.lock();
        let dropped = g.rng.gen_bool(self.plan.drop_result_p);
        if dropped {
            g.log.push(format!("result dropped: {context}"));
        }
        dropped
    }

    /// Draws whether a delivered result packet is duplicated.
    pub fn duplicate_result(&self, context: &str) -> bool {
        if self.plan.duplicate_result_p <= 0.0 {
            return false;
        }
        let mut g = self.lock();
        let dup = g.rng.gen_bool(self.plan.duplicate_result_p);
        if dup {
            g.log.push(format!("result duplicated: {context}"));
        }
        dup
    }

    /// Records one rule update passing through and returns whether this
    /// one arrives corrupted.
    pub fn next_rule_update_corrupted(&self) -> bool {
        let mut g = self.lock();
        let n = g.update_ordinal;
        g.update_ordinal += 1;
        let corrupted = self.plan.corrupt_updates.contains(&n);
        if corrupted {
            g.log.push(format!("rule update {n} corrupted"));
            if let Some(t) = &g.tracer {
                t.record(
                    crate::trace::TraceSource::Chaos,
                    crate::trace::TraceKind::FaultUpdateCorrupted { ordinal: n },
                );
            }
        }
        corrupted
    }

    /// Records one source packet being sent and returns how many copies
    /// the source should emit (1 outside burst windows). The first packet
    /// of each burst window logs and traces the burst start.
    pub fn send_multiplier(&self) -> u32 {
        if self.plan.burst_period == 0 || self.plan.burst_len == 0 || self.plan.burst_factor <= 1 {
            return 1;
        }
        let mut g = self.lock();
        let ordinal = g.source_ordinal;
        g.source_ordinal += 1;
        let phase = ordinal % self.plan.burst_period;
        if phase >= self.plan.burst_len {
            return 1;
        }
        if phase == 0 {
            let factor = self.plan.burst_factor;
            g.log.push(format!(
                "burst x{factor} started at source packet {ordinal}"
            ));
            if let Some(t) = &g.tracer {
                t.record(
                    crate::trace::TraceSource::Chaos,
                    crate::trace::TraceKind::FaultBurstStarted {
                        factor,
                        at_packet: ordinal,
                    },
                );
            }
        }
        self.plan.burst_factor
    }

    /// Draws whether the next newly opened flow is an adversarial evasion
    /// attempt; on a hit, returns the seed for the `dpi_traffic` evasion
    /// generator (so the exact segment stream is replayable from the
    /// fault log and trace alone).
    pub fn next_flow_evasive(&self) -> Option<u64> {
        if self.plan.evasive_flow_p <= 0.0 {
            return None;
        }
        let mut g = self.lock();
        if !g.rng.gen_bool(self.plan.evasive_flow_p) {
            return None;
        }
        let seed: u64 = g.rng.gen();
        g.log
            .push(format!("evasive flow injected (generator seed {seed})"));
        if let Some(t) = &g.tracer {
            t.record(
                crate::trace::TraceSource::Chaos,
                crate::trace::TraceKind::FaultEvasiveFlow { seed },
            );
        }
        Some(seed)
    }

    /// The shard faults to hand a [`crate::pipeline::DpiInstance`].
    pub fn shard_faults(&self) -> Vec<ShardFaultSpec> {
        self.plan.shard_faults.clone()
    }

    /// Appends an event to the fault log (for components that detect or
    /// react to faults — watchdog trips, re-steers, retries).
    pub fn note(&self, event: impl Into<String>) {
        self.lock().log.push(event.into());
    }

    /// The ordered fault log so far. Two runs of the same plan over the
    /// same traffic produce identical logs — the reproducibility
    /// guarantee chaos tests assert on.
    pub fn fault_log(&self) -> Vec<String> {
        self.lock().log.clone()
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, ChaosInner> {
        self.inner.lock().unwrap_or_else(|e| e.into_inner())
    }
}

/// Bounded retry with exponential backoff and seeded jitter, for result
/// packet (re-)delivery. Purely computational — the simulated network has
/// no clock, so the backoff schedule is *recorded* rather than slept —
/// which keeps every retry decision reproducible.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RetryPolicy {
    /// Total delivery attempts (1 = no retries).
    pub max_attempts: u32,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff cap.
    pub max_backoff: Duration,
    /// Jitter fraction in `[0, 1]`: each backoff is scaled by a factor
    /// drawn uniformly from `[1 - jitter, 1 + jitter]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> RetryPolicy {
        RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(10),
            jitter: 0.2,
        }
    }
}

/// What a retried delivery did.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RetryOutcome {
    /// Attempts actually made (≥ 1).
    pub attempts: u32,
    /// Whether any attempt succeeded.
    pub delivered: bool,
    /// The backoff scheduled before each retry, in microseconds.
    pub backoffs_us: Vec<u64>,
}

impl RetryPolicy {
    /// Runs `attempt` up to [`RetryPolicy::max_attempts`] times, backing
    /// off exponentially (with jitter from `rng`) between attempts, until
    /// one returns `true`. Attempt numbers passed in are 0-based.
    pub fn run<F: FnMut(u32) -> bool>(&self, rng: &mut StdRng, mut attempt: F) -> RetryOutcome {
        let mut backoffs_us = Vec::new();
        let attempts_cap = self.max_attempts.max(1);
        for n in 0..attempts_cap {
            if attempt(n) {
                return RetryOutcome {
                    attempts: n + 1,
                    delivered: true,
                    backoffs_us,
                };
            }
            if n + 1 < attempts_cap {
                let exp = self
                    .base_backoff
                    .as_micros()
                    .saturating_mul(1u128 << n.min(20))
                    .min(self.max_backoff.as_micros()) as f64;
                let factor = if self.jitter > 0.0 {
                    1.0 + self.jitter * (2.0 * rng.gen::<f64>() - 1.0)
                } else {
                    1.0
                };
                backoffs_us.push((exp * factor) as u64);
            }
        }
        RetryOutcome {
            attempts: attempts_cap,
            delivered: false,
            backoffs_us,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_decisions() {
        let run = |seed| {
            let chaos = FaultPlan::new(seed)
                .drop_result_packets(0.5)
                .duplicate_result_packets(0.3)
                .start();
            let drops: Vec<bool> = (0..64)
                .map(|i| chaos.drop_result(&format!("p{i}")))
                .collect();
            let dups: Vec<bool> = (0..64)
                .map(|i| chaos.duplicate_result(&format!("p{i}")))
                .collect();
            (drops, dups, chaos.fault_log())
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7).0, run(8).0);
    }

    #[test]
    fn kill_at_packet_k_blackholes_from_k_onward() {
        let chaos = FaultPlan::new(1).kill_instance_at_packet(0, 3).start();
        assert!(chaos.instance_alive(0));
        let survivals: Vec<bool> = (0..6).map(|_| chaos.on_instance_packet(0)).collect();
        assert_eq!(survivals, vec![true, true, true, false, false, false]);
        assert!(!chaos.instance_alive(0));
        // An unrelated instance is untouched.
        assert!(chaos.on_instance_packet(1));
        assert!(chaos.instance_alive(1));
        // The death landed in the log exactly once.
        let deaths = chaos
            .fault_log()
            .iter()
            .filter(|e| e.contains("died"))
            .count();
        assert_eq!(deaths, 1);
    }

    #[test]
    fn kill_at_zero_means_dead_on_arrival() {
        let chaos = FaultPlan::new(1).kill_instance_at_packet(2, 0).start();
        assert!(!chaos.instance_alive(2));
        assert!(!chaos.on_instance_packet(2));
    }

    #[test]
    fn corrupt_updates_hit_exact_ordinals() {
        let chaos = FaultPlan::new(3)
            .corrupt_rule_update(1)
            .corrupt_rule_update(3)
            .start();
        let hits: Vec<bool> = (0..5).map(|_| chaos.next_rule_update_corrupted()).collect();
        assert_eq!(hits, vec![false, true, false, true, false]);
    }

    #[test]
    fn burst_traffic_amplifies_a_periodic_window() {
        let chaos = FaultPlan::new(4).burst_traffic(10, 8, 3).start();
        let mults: Vec<u32> = (0..16).map(|_| chaos.send_multiplier()).collect();
        assert_eq!(
            mults,
            vec![10, 10, 10, 1, 1, 1, 1, 1, 10, 10, 10, 1, 1, 1, 1, 1]
        );
        // Each window entry is logged exactly once.
        let starts = chaos
            .fault_log()
            .iter()
            .filter(|e| e.contains("burst"))
            .count();
        assert_eq!(starts, 2);
    }

    #[test]
    fn no_burst_plan_always_multiplies_by_one() {
        let chaos = FaultPlan::new(4).start();
        assert!((0..32).all(|_| chaos.send_multiplier() == 1));
        assert!(chaos.fault_log().is_empty());
    }

    #[test]
    fn zero_probability_draws_nothing_and_logs_nothing() {
        let chaos = FaultPlan::new(9).start();
        assert!(!chaos.drop_result("x"));
        assert!(!chaos.duplicate_result("x"));
        assert!(chaos.next_flow_evasive().is_none());
        assert!(chaos.fault_log().is_empty());
    }

    #[test]
    fn evasive_flows_draw_deterministic_seeds() {
        let run = |seed| {
            let chaos = FaultPlan::new(seed).evasive_flows(0.5).start();
            let draws: Vec<Option<u64>> = (0..64).map(|_| chaos.next_flow_evasive()).collect();
            (draws, chaos.fault_log())
        };
        assert_eq!(run(11), run(11));
        assert_ne!(run(11).0, run(12).0);
        // Probability 1 hits every draw; every hit is logged.
        let chaos = FaultPlan::new(11).evasive_flows(1.0).start();
        let draws: Vec<Option<u64>> = (0..8).map(|_| chaos.next_flow_evasive()).collect();
        assert!(draws.iter().all(|d| d.is_some()));
        assert_eq!(
            chaos
                .fault_log()
                .iter()
                .filter(|e| e.contains("evasive flow injected"))
                .count(),
            8
        );
    }

    #[test]
    fn retry_backs_off_exponentially_and_is_bounded() {
        let policy = RetryPolicy {
            max_attempts: 4,
            base_backoff: Duration::from_micros(100),
            max_backoff: Duration::from_millis(1),
            jitter: 0.0,
        };
        let mut rng = StdRng::seed_from_u64(0);
        // Succeeds on the third attempt.
        let out = policy.run(&mut rng, |n| n == 2);
        assert!(out.delivered);
        assert_eq!(out.attempts, 3);
        assert_eq!(out.backoffs_us, vec![100, 200]);
        // Never succeeds: attempts capped, three backoffs scheduled.
        let out = policy.run(&mut rng, |_| false);
        assert!(!out.delivered);
        assert_eq!(out.attempts, 4);
        assert_eq!(out.backoffs_us, vec![100, 200, 400]);
    }

    #[test]
    fn retry_jitter_stays_within_band_and_is_deterministic() {
        let policy = RetryPolicy {
            max_attempts: 8,
            base_backoff: Duration::from_micros(1000),
            max_backoff: Duration::from_micros(1000),
            jitter: 0.5,
        };
        let sched = |seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            policy.run(&mut rng, |_| false).backoffs_us
        };
        for &b in &sched(5) {
            assert!((500..=1500).contains(&b), "backoff {b} out of jitter band");
        }
        assert_eq!(sched(5), sched(5));
    }
}
