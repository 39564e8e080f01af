//! `compare A.json B.json`: is B worse than A, metric by metric?

use crate::json::Json;
use crate::report::{Better, END_TO_END};
use std::path::Path;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    WithinBound,
    Worse,
    /// Either side's own round-to-round spread is wider than the bound,
    /// so a difference of that size cannot be told from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side's reading of one metric: its value and the inter-quartile
/// spread of the rounds behind it, as a share of the median.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    pub value: f64,
    pub spread: f64,
}

/// `a` is the baseline, `b` the candidate. "Better" needs the candidate
/// to gain more than the bound, mirroring what "worse" needs.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64) -> Verdict {
    if a.spread > bound || b.spread > bound {
        return Verdict::Unresolved;
    }
    let gain = match better {
        Better::Higher => (b.value - a.value) / a.value,
        Better::Lower => (a.value - b.value) / a.value,
    };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::WithinBound
    }
}

fn load(path: &Path) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn workloads(doc: &Json) -> &[Json] {
    match doc.get("workloads") {
        Some(Json::Arr(items)) => items,
        _ => &[],
    }
}

fn reading(workload: &Json, metric: &str) -> Option<Reading> {
    let m = workload.get("end_to_end")?.get(metric)?;
    Some(Reading {
        value: m.get("value")?.as_f64()?,
        spread: m.get("round_iqr_share")?.as_f64()?,
    })
}

/// The comparison as text: one row per workload, one column per
/// end-to-end metric, plus the failed share of each side.
pub fn table(a: &Json, b: &Json) -> String {
    let mut out = String::new();
    for (side, doc) in [("A", a), ("B", b)] {
        if doc.get("comparable").and_then(Json::as_bool) != Some(true) {
            out.push_str(&format!(
                "warning: {side} is not marked comparable (a --quick run?)\n"
            ));
        }
    }
    out.push_str(&format!("{:<14}", "workload"));
    for (name, ..) in END_TO_END {
        out.push_str(&format!(" {name:<22}"));
    }
    out.push_str(" failed_share A -> B\n");
    for wa in workloads(a) {
        let name = wa.get("name").and_then(Json::as_str).unwrap_or("?");
        let Some(wb) = workloads(b)
            .iter()
            .find(|w| w.get("name").and_then(Json::as_str) == Some(name))
        else {
            out.push_str(&format!("{name:<14} missing from B\n"));
            continue;
        };
        out.push_str(&format!("{name:<14}"));
        for (metric, _, better, bound) in END_TO_END {
            let cell = match (reading(wa, metric), reading(wb, metric)) {
                (Some(ra), Some(rb)) => format!(
                    "{} ({:+.1}%)",
                    judge(ra, rb, better, bound).label(),
                    (rb.value - ra.value) / ra.value * 100.0
                ),
                _ => "not measured".to_string(),
            };
            out.push_str(&format!(" {cell:<22}"));
        }
        let share = |w: &Json| {
            w.get("failed_share")
                .and_then(Json::as_f64)
                .unwrap_or(f64::NAN)
        };
        let (fa, fb) = (share(wa), share(wb));
        // Any increase in failures is worse: the bound on failures is 0.
        let verdict = if fb > fa { "worse" } else { "within bound" };
        out.push_str(&format!(" {fa} -> {fb} ({verdict})\n"));
    }
    out
}

pub fn run(a: &Path, b: &Path) -> Result<(), String> {
    print!("{}", table(&load(a)?, &load(b)?));
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, spread: f64) -> Reading {
        Reading { value, spread }
    }

    #[test]
    fn verdicts_follow_direction_and_bound() {
        let quiet = 0.01;
        assert_eq!(
            judge(r(100.0, quiet), r(95.0, quiet), Better::Higher, 0.08),
            Verdict::WithinBound
        );
        assert_eq!(
            judge(r(100.0, quiet), r(90.0, quiet), Better::Higher, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, quiet), r(110.0, quiet), Better::Higher, 0.08),
            Verdict::Better
        );
        assert_eq!(
            judge(r(100.0, quiet), r(110.0, quiet), Better::Lower, 0.08),
            Verdict::Worse
        );
        assert_eq!(
            judge(r(100.0, quiet), r(90.0, quiet), Better::Lower, 0.08),
            Verdict::Better
        );
    }

    #[test]
    fn a_noisy_side_leaves_the_metric_unresolved() {
        assert_eq!(
            judge(r(100.0, 0.2), r(50.0, 0.01), Better::Higher, 0.08),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(r(100.0, 0.01), r(50.0, 0.2), Better::Higher, 0.08),
            Verdict::Unresolved
        );
    }

    fn doc(pps: f64, failed_share: f64) -> Json {
        let mut e2e = Json::obj();
        for (name, unit, ..) in END_TO_END {
            let value = if name == "pps" { pps } else { 10.0 };
            e2e = e2e.with(
                name,
                Json::obj()
                    .with("value", value)
                    .with("unit", unit)
                    .with("round_iqr_share", 0.01),
            );
        }
        Json::obj().with("comparable", true).with(
            "workloads",
            vec![Json::obj()
                .with("name", "chain_mixed")
                .with("failed_share", failed_share)
                .with("end_to_end", e2e)],
        )
    }

    #[test]
    fn table_reads_documents_back_after_a_round_trip() {
        let a = Json::parse(&doc(200_000.0, 0.0).to_pretty()).unwrap();
        let b = Json::parse(&doc(100_000.0, 0.001).to_pretty()).unwrap();
        let text = table(&a, &b);
        let row = text.lines().find(|l| l.starts_with("chain_mixed")).unwrap();
        assert!(row.contains("worse (-50.0%)"), "{row}");
        assert!(row.contains("within bound (+0.0%)"), "{row}");
        assert!(row.ends_with("0 -> 0.001 (worse)"), "{row}");
        assert!(!text.contains("warning"));
    }

    #[test]
    fn quick_documents_and_missing_workloads_are_called_out() {
        let a = doc(1.0, 0.0);
        let quick = Json::obj()
            .with("comparable", false)
            .with("workloads", Vec::<Json>::new());
        let text = table(&a, &quick);
        assert!(text.contains("warning: B is not marked comparable"));
        assert!(text.contains("chain_mixed    missing from B"));
    }
}
