//! Turning measurements into named metrics, printed tables, the results
//! document and the driver's result line.

use crate::json::Json;
use crate::run::{per_round, Measured, Prepared};
use crate::stats;
use std::path::PathBuf;

#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
}

pub fn metric(name: &str, unit: &'static str, value: f64) -> Metric {
    Metric {
        name: name.to_string(),
        unit,
        value,
    }
}

/// The end-to-end metrics: name, unit, direction, and how far the
/// metric may worsen (as a share of the baseline median) before `compare`
/// calls it worse. `BENCHMARK.json` states the same table.
pub const END_TO_END: [(&str, &str, Better, f64); 5] = [
    ("pps", "packets/s", Better::Higher, 0.25),
    ("payload_mbps", "Mbit/s", Better::Higher, 0.25),
    ("call_p50_us", "us", Better::Lower, 0.25),
    ("setup_s", "s", Better::Lower, 0.25),
    ("peak_rss_mb", "MB", Better::Lower, 0.20),
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

/// One layer's row of the "where the time goes" table.
#[derive(Debug, Clone, PartialEq)]
pub struct LayerTime {
    pub layer: &'static str,
    /// Nanoseconds per packet spent in the layer itself, children
    /// excluded.
    pub self_ns: f64,
    /// `self_ns` as a share of the entry-call time per packet.
    pub share: f64,
}

/// Everything one workload's run produced.
pub struct WorkloadResult {
    pub name: String,
    pub params: String,
    pub rounds: usize,
    pub packets_per_round: usize,
    pub calls_per_round: usize,
    pub attempted: u64,
    pub failed: u64,
    pub kernel: String,
    /// Empty when only the traced pass ran.
    pub end_to_end: Vec<Metric>,
    /// Inter-quartile spread of each end-to-end metric's per-round values
    /// as a share of its median (0 for `peak_rss_mb`, read once).
    pub spread: Vec<f64>,
    /// q1 / median / q3 of per-round packets per second.
    pub pps_quartiles: (f64, f64, f64),
    pub runqueue_wait_share: f64,
    /// Empty unless the traced pass ran.
    pub per_layer: Vec<Metric>,
    /// Each layer's self time per packet, from the traced pass.
    pub where_time: Vec<LayerTime>,
    pub traced_rounds: usize,
    pub replays: usize,
    /// Where the traced pass wrote its spans, and how many.
    pub span_file: Option<(PathBuf, usize)>,
}

impl WorkloadResult {
    pub fn new(p: &Prepared) -> WorkloadResult {
        WorkloadResult {
            name: p.w.name.to_string(),
            params: p.w.params.clone(),
            rounds: 0,
            packets_per_round: p.w.round.len(),
            calls_per_round: 0,
            attempted: 0,
            failed: 0,
            kernel: p.kernel.to_string(),
            end_to_end: Vec::new(),
            spread: Vec::new(),
            pps_quartiles: (0.0, 0.0, 0.0),
            runqueue_wait_share: 0.0,
            per_layer: Vec::new(),
            where_time: Vec::new(),
            traced_rounds: 0,
            replays: 0,
            span_file: None,
        }
    }

    /// Folds the untraced pass in: rate metrics are the median over
    /// rounds of the per-round value.
    pub fn add_measured(&mut self, p: &Prepared, m: &Measured) {
        let packets = p.w.round.len() as f64;
        let bits = p.payload_bytes as f64 * 8.0;
        let series = [
            per_round(&m.rounds, |r| packets / r.busy_s),
            per_round(&m.rounds, |r| bits / r.busy_s / 1e6),
            per_round(&m.rounds, |r| r.call_p50_ns / 1e3),
            per_round(&m.rounds, |r| r.setup_s),
        ];
        self.pps_quartiles = stats::quartiles(&series[0]);
        for ((name, unit, ..), values) in END_TO_END.iter().zip(&series) {
            self.end_to_end
                .push(metric(name, unit, stats::median(values)));
            self.spread.push(stats::iqr_share(values));
        }
        self.end_to_end
            .push(metric("peak_rss_mb", "MB", m.peak_rss_mb));
        self.spread.push(0.0);
        self.rounds = m.rounds.len();
        self.calls_per_round = m.rounds[0].calls;
        self.attempted += m.attempted;
        self.failed += m.failed;
        self.runqueue_wait_share = m.runqueue_wait_share;
    }

    pub fn correct(&self) -> bool {
        self.failed == 0
    }

    pub fn failed_share(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }

    /// The line the driver reads: `metrics` holds the per-layer metrics
    /// when the traced pass ran, the end-to-end metrics otherwise.
    pub fn driver_line(&self) -> String {
        let shown = if self.per_layer.is_empty() {
            &self.end_to_end
        } else {
            &self.per_layer
        };
        let mut metrics = Json::obj();
        for m in shown {
            metrics = metrics.with(
                &m.name,
                Json::obj().with("value", m.value).with("unit", m.unit),
            );
        }
        Json::obj()
            .with("correct", self.correct())
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("metrics", metrics)
            .to_line()
    }

    pub fn print(&self) {
        println!(
            "\n== {} ==  {}\n   {} packets per round, kernel {}, failed {}/{} (share {})",
            self.name,
            self.params,
            self.packets_per_round,
            self.kernel,
            self.failed,
            self.attempted,
            self.failed_share(),
        );
        if !self.end_to_end.is_empty() {
            println!(
                "   -- end to end: {} rounds of {} calls, run-queue wait {:.2}% --",
                self.rounds,
                self.calls_per_round,
                self.runqueue_wait_share * 100.0
            );
        }
        for (m, spread) in self.end_to_end.iter().zip(&self.spread) {
            println!(
                "   {:<28} {:>16.4} {:<10} (round IQR {:.2}%)",
                m.name,
                m.value,
                m.unit,
                spread * 100.0
            );
        }
        if !self.end_to_end.is_empty() {
            let (q1, med, q3) = self.pps_quartiles;
            println!("   pps per round: q1 {q1:.0}  median {med:.0}  q3 {q3:.0}");
        }
        if self.per_layer.is_empty() {
            return;
        }
        println!(
            "   -- per layer: {} traced rounds, {} staged replays --",
            self.traced_rounds, self.replays
        );
        for m in &self.per_layer {
            println!("   {:<28} {:>16.4} {}", m.name, m.value, m.unit);
        }
        println!("   -- where the time goes (self time per packet) --");
        for l in &self.where_time {
            println!(
                "   {:<28} {:>12.1} ns {:>7.1}%",
                l.layer,
                l.self_ns,
                l.share * 100.0
            );
        }
        if let Some((path, spans)) = &self.span_file {
            println!("   {spans} spans written to {}", path.display());
        }
    }

    pub fn to_json(&self) -> Json {
        let metrics = |list: &[Metric], spread: Option<&[f64]>| {
            let mut o = Json::obj();
            for (i, m) in list.iter().enumerate() {
                let mut entry = Json::obj().with("value", m.value).with("unit", m.unit);
                if let Some(s) = spread {
                    entry = entry.with("round_iqr_share", s[i]);
                }
                o = o.with(&m.name, entry);
            }
            o
        };
        let (q1, med, q3) = self.pps_quartiles;
        Json::obj()
            .with("name", self.name.as_str())
            .with("params", self.params.as_str())
            .with("rounds", self.rounds)
            .with("packets_per_round", self.packets_per_round)
            .with("calls_per_round", self.calls_per_round)
            .with("attempted", self.attempted)
            .with("failed", self.failed)
            .with("failed_share", self.failed_share())
            .with("kernel", self.kernel.as_str())
            .with("runqueue_wait_share", self.runqueue_wait_share)
            .with(
                "pps_per_round",
                Json::obj()
                    .with("q1", q1)
                    .with("median", med)
                    .with("q3", q3),
            )
            .with("end_to_end", metrics(&self.end_to_end, Some(&self.spread)))
            .with("per_layer", metrics(&self.per_layer, None))
            .with(
                "where_time",
                self.where_time
                    .iter()
                    .map(|l| {
                        Json::obj()
                            .with("layer", l.layer)
                            .with("self_ns", l.self_ns)
                            .with("share", l.share)
                    })
                    .collect::<Vec<_>>(),
            )
    }
}

/// The "where the time goes" table of a results document, as markdown:
/// one row per layer, one column per workload, each cell the layer's self
/// time per packet and its share of the entry-call time.
pub fn where_time_markdown(doc: &Json) -> String {
    let workloads: &[Json] = match doc.get("workloads") {
        Some(Json::Arr(items)) => items,
        _ => &[],
    };
    let rows_of = |w: &Json| -> Vec<(String, f64, f64)> {
        let Some(Json::Arr(rows)) = w.get("where_time") else {
            return Vec::new();
        };
        rows.iter()
            .filter_map(|r| {
                Some((
                    r.get("layer")?.as_str()?.to_string(),
                    r.get("self_ns")?.as_f64()?,
                    r.get("share")?.as_f64()?,
                ))
            })
            .collect()
    };
    let mut layers: Vec<String> = Vec::new();
    for w in workloads {
        for (layer, ..) in rows_of(w) {
            if !layers.contains(&layer) {
                layers.push(layer);
            }
        }
    }
    let name = |w: &Json| {
        w.get("name")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string()
    };
    let mut out = String::from("| layer (self time per packet) |");
    for w in workloads {
        out.push_str(&format!(" `{}` |", name(w)));
    }
    out.push_str("\n|---|");
    out.push_str(&"---:|".repeat(workloads.len()));
    out.push_str("\n| entry call |");
    for w in workloads {
        let send_ns = w
            .get("per_layer")
            .and_then(|p| p.get("system.send_ns"))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64);
        out.push_str(&send_ns.map_or(" not traced |".to_string(), |ns| format!(" {ns:.0} ns |")));
    }
    for layer in &layers {
        out.push_str(&format!("\n| {layer} |"));
        for w in workloads {
            match rows_of(w).into_iter().find(|(l, ..)| l == layer) {
                Some((_, ns, share)) if ns != 0.0 => {
                    out.push_str(&format!(" {ns:.0} ns ({:.1} %) |", share * 100.0))
                }
                _ => out.push_str(" – |"),
            }
        }
    }
    out.push('\n');
    out
}
