//! Rounds through the public facade, from a single thread.
//!
//! The load is a closed loop with one client: the next `send` or
//! `inspect_batch` is issued when the previous one returns. Every round
//! builds a fresh `SystemHandle` (the sink host keeps every delivered
//! packet, so a long-lived system slows down), replays the workload's
//! round input, then checks the verdicts. Only the entry calls are timed;
//! the client's own work between calls (copying the next batch, checking
//! the last one) is not.

use crate::stats;
use crate::sysinfo;
use crate::verify::{self, BatchCheck, Reference};
use crate::workloads::{Entry, Workload, BATCH};
use dpi_service::core::InstanceConfig;
use dpi_service::packet::Packet;
use dpi_service::SystemHandle;
use std::time::Instant;

/// A workload with everything a round needs besides the system itself.
pub struct Prepared<'w> {
    pub w: &'w Workload,
    pub reference: Reference,
    /// The round as chain-tagged packets: what `inspect_batch` takes, and
    /// what the in-network DPI node sees of a `send`.
    pub tagged: Vec<Packet>,
    pub chain_ids: Vec<u16>,
    /// The configuration the system compiles its engine from.
    pub cfg: InstanceConfig,
    /// The kernel `KernelKind::Auto` resolved to.
    pub kernel: &'static str,
    pub payload_bytes: u64,
}

pub fn prepare(w: &Workload) -> Prepared<'_> {
    let sys = w
        .builder()
        .build()
        .expect("the workload's deployment is valid");
    let chain_ids = sys.chain_ids.clone();
    let kernel = sys.dpi.lock().engine().kernel_name();
    let cfg = verify::system_config(&sys, w);
    let reference = verify::reference(w, cfg.clone(), &chain_ids);
    Prepared {
        w,
        cfg,
        tagged: verify::tagged_round(&w.round, &chain_ids),
        reference,
        chain_ids,
        kernel,
        payload_bytes: w.payload_bytes(),
    }
}

/// What one round measured.
#[derive(Debug, Clone, Copy)]
pub struct Round {
    /// `SystemBuilder::build()`: register, merge, compile, install chains.
    pub setup_s: f64,
    /// Sum of the entry-call times.
    pub busy_s: f64,
    pub call_p50_ns: f64,
    pub call_p99_ns: f64,
    pub calls: usize,
    /// Network deliveries the `send` calls reported (0 for batch calls).
    pub deliveries: u64,
    pub failed: u64,
}

/// Runs one round on a fresh system. `on_call` sees every entry call's
/// ordinal, start and end (the traced pass records spans there); `after`
/// sees the system once the round is checked, before it is dropped.
pub fn run_round(
    p: &Prepared,
    ordinal: usize,
    calls: &mut Vec<u32>,
    mut on_call: impl FnMut(u64, Instant, Instant),
    after: impl FnOnce(&SystemHandle),
) -> Round {
    let builder = p.w.builder();
    let t0 = Instant::now();
    let mut sys = builder.build().expect("the workload's deployment is valid");
    let setup_s = t0.elapsed().as_secs_f64();
    assert_eq!(sys.chain_ids, p.chain_ids, "chain ids repeat across builds");

    calls.clear();
    let mut deliveries = 0u64;
    let mut record = |calls: &mut Vec<u32>, i: usize, start: Instant, end: Instant| {
        calls.push((end - start).as_nanos().min(u128::from(u32::MAX)) as u32);
        on_call(i as u64, start, end);
    };
    let (seen, mismatched) = match p.w.entry {
        Entry::Send => {
            for (i, o) in p.w.round.iter().enumerate() {
                let start = Instant::now();
                let d = sys.send(o.flow, o.seq, &o.payload);
                let end = Instant::now();
                deliveries += d as u64;
                record(calls, i, start, end);
            }
            (verify::observe_send(&sys, p.w), 0)
        }
        Entry::Batch => {
            let mut check = BatchCheck::new(&p.reference, p.w);
            let mut batch: Vec<Packet> = Vec::with_capacity(BATCH);
            for (i, chunk) in p.tagged.chunks(BATCH).enumerate() {
                batch.clear();
                batch.extend_from_slice(chunk);
                let start = Instant::now();
                let results = sys.inspect_batch(&mut batch);
                let end = Instant::now();
                record(calls, i, start, end);
                check.fold(i * BATCH, &batch, &results);
            }
            (check.observe(&sys), check.mismatched)
        }
    };
    let failed = verify::failed_packets(
        p.w.name,
        ordinal,
        &p.reference,
        &seen,
        mismatched,
        p.w.round.len(),
    );
    after(&sys);

    let busy_ns: u64 = calls.iter().map(|&c| u64::from(c)).sum();
    let (call_p50_ns, call_p99_ns) = stats::call_percentiles_ns(calls);
    Round {
        setup_s,
        busy_s: busy_ns as f64 / 1e9,
        call_p50_ns,
        call_p99_ns,
        calls: calls.len(),
        deliveries,
        failed,
    }
}

/// The untraced pass: what the end-to-end metrics are computed from.
pub struct Measured {
    /// Measured rounds (the warm-up round is checked but not kept).
    pub rounds: Vec<Round>,
    pub attempted: u64,
    pub failed: u64,
    pub runqueue_wait_share: f64,
    pub peak_rss_mb: f64,
}

/// Fewest rounds a run reports medians over, however short `--seconds`.
const MIN_ROUNDS: usize = 5;

/// Runs rounds for `seconds` (one warm-up round first, so caches and the
/// allocator are warm). `quick` runs a single round and nothing else.
pub fn measure(p: &Prepared, seconds: f64, quick: bool) -> Measured {
    let mut calls = Vec::with_capacity(p.w.round.len());
    let mut rounds = Vec::new();
    let (mut attempted, mut failed) = (0u64, 0u64);
    let sched_before = sysinfo::schedstat();
    let started = Instant::now();
    let mut ordinal = 0;
    loop {
        let r = run_round(p, ordinal, &mut calls, |_, _, _| {}, |_| {});
        attempted += p.w.round.len() as u64;
        failed += r.failed;
        if quick || ordinal > 0 {
            rounds.push(r);
        }
        ordinal += 1;
        let out_of_time = started.elapsed().as_secs_f64() >= seconds;
        if quick || (out_of_time && rounds.len() >= MIN_ROUNDS) {
            break;
        }
    }
    Measured {
        rounds,
        attempted,
        failed,
        runqueue_wait_share: sysinfo::runqueue_wait_share(sched_before, sysinfo::schedstat()),
        peak_rss_mb: sysinfo::peak_rss_mb(),
    }
}

/// One value per round, for the estimators in `stats`.
pub fn per_round(rounds: &[Round], f: impl Fn(&Round) -> f64) -> Vec<f64> {
    rounds.iter().map(f).collect()
}
