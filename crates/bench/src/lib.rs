//! # dpi-bench
//!
//! Measurements the end-to-end benchmark (`e2ebench/`) has no row for,
//! and the helpers they share. The paper's evaluation (§6) is checked by
//! the root `paper_claims` test; see `EXPERIMENTS.md` for its rows.
//!
//! Binaries (run with `cargo run --release -p dpi-bench --bin <name>`):
//!
//! * `exp_mca2` — §4.3.1: goodput under complexity attack, with and
//!   without MCA² mitigation.
//! * `bench_update` — live rule-update cost: off-hot-path compile time,
//!   drain-barrier swap pause and per-update transfer bytes.
//! * `bench_overload` — shed fraction and p99 queue depth against offered
//!   load.
//! * `bench_trace` — traced against untraced scan path.
//!
//! The three `bench_*` bins write their numbers to `BENCH_<name>.json`
//! through [`write_bench_json`].

use dpi_ac::{CombinedAcBuilder, MiddleboxId, PatternSet};
use dpi_packet::{MacAddr, Packet};

/// Builds a single-set full-table automaton over `patterns`.
pub fn build_ac(patterns: &[Vec<u8>]) -> dpi_ac::FullAc {
    let mut b = CombinedAcBuilder::new();
    b.add_set(PatternSet::new(MiddleboxId(0), patterns.to_vec()))
        .expect("generated patterns are valid");
    b.build_full()
}

/// Number of cores the host actually offers.
pub fn host_cores() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A JSON object from `fields`, whose values are JSON already (a number
/// as it should print, [`json_array`], a nested object).
pub fn json_object(fields: &[(&str, String)]) -> String {
    let fields: Vec<String> = fields
        .iter()
        .map(|(key, value)| format!("\"{key}\": {value}"))
        .collect();
    format!("{{{}}}", fields.join(", "))
}

/// A JSON array of values that are JSON already.
pub fn json_array(items: &[String]) -> String {
    format!("[{}]", items.join(", "))
}

/// Writes `BENCH_<name>.json` into the working directory: the host
/// header every bench report opens with (`host_cores`, `quick`), then
/// `fields`, one per line.
pub fn write_bench_json(name: &str, quick: bool, fields: &[(&str, String)]) {
    let header = [
        ("host_cores", host_cores().to_string()),
        ("quick", quick.to_string()),
    ];
    let lines: Vec<String> = header
        .iter()
        .chain(fields)
        .map(|(key, value)| format!("  \"{key}\": {value}"))
        .collect();
    let path = format!("BENCH_{name}.json");
    std::fs::write(&path, format!("{{\n{}\n}}\n", lines.join(",\n")))
        .expect("writable working directory");
    println!("wrote {path}");
}

/// Pretty row printer: fixed-width columns for the experiment tables.
pub fn print_row(cols: &[String]) {
    let line: Vec<String> = cols.iter().map(|c| format!("{c:>16}")).collect();
    println!("{}", line.join("  "));
}

/// Chain id used by the pipeline benches.
pub const PIPELINE_CHAIN: u16 = 1;

/// One stateless middlebox carrying `patterns` as exact rules on
/// [`PIPELINE_CHAIN`] — the minimal data-plane config for throughput
/// benches, where cross-packet state would only add noise.
pub fn pipeline_config(patterns: &[Vec<u8>]) -> dpi_core::InstanceConfig {
    dpi_core::InstanceConfig::new()
        .with_middlebox(
            dpi_core::MiddleboxProfile::stateless(MiddleboxId(1)),
            patterns
                .iter()
                .map(|p| dpi_core::RuleSpec::exact(p.clone()))
                .collect(),
        )
        .with_chain(PIPELINE_CHAIN, vec![MiddleboxId(1)])
}

/// A `workers`-shard instance compiled from `config`.
pub fn sharded_instance(config: dpi_core::InstanceConfig, workers: usize) -> dpi_core::DpiInstance {
    let engine = dpi_core::ScanEngine::new(config).expect("valid config");
    dpi_core::DpiInstance::with_workers(std::sync::Arc::new(engine), workers)
}

/// Turns trace payloads into chain-tagged TCP packets spread round-robin
/// over `flows` synthetic flows, with per-flow sequence numbers advancing
/// in order (so reassembly sees a clean stream).
pub fn pipeline_batch(payloads: &[Vec<u8>], flows: usize, seed: u64) -> Vec<Packet> {
    let pool = dpi_traffic::flows::flow_pool(flows.max(1), seed);
    let fl = pool.flows();
    let mut seqs = vec![0u32; fl.len()];
    payloads
        .iter()
        .enumerate()
        .map(|(i, payload)| {
            let fi = i % fl.len();
            let mut p = Packet::tcp(
                MacAddr::local(1),
                MacAddr::local(2),
                fl[fi],
                seqs[fi],
                payload.clone(),
            );
            seqs[fi] = seqs[fi].wrapping_add(payload.len() as u32);
            p.push_chain_tag(PIPELINE_CHAIN)
                .expect("fresh packet has tag room");
            p
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpi_traffic::patterns::snort_like;
    use dpi_traffic::trace::TraceConfig;

    #[test]
    fn benign_trace_is_mostly_clean() {
        // Regression: generated patterns must not be bare protocol
        // keywords, or benign traffic lights up everywhere (the paper's
        // traces have >90% match-free packets).
        use dpi_ac::Automaton;
        let pats = snort_like(4356, 42);
        let ac = build_ac(&pats);
        let trace = TraceConfig {
            packets: 500,
            match_density: 0.0,
            ..TraceConfig::default()
        }
        .generate(&pats);
        let dirty = trace.iter().filter(|p| !ac.find_all(p).is_empty()).count();
        assert!(
            dirty * 50 < trace.len(),
            "{dirty}/{} benign packets matched",
            trace.len()
        );
    }
}
