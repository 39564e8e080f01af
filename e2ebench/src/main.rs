//! The repo's end-to-end benchmark. See `README.md` beside this crate.
//!
//! ```text
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- \
//!     [--workload W] [--seed N] [--seconds S] [--traced | --trace 0|1] [--out FILE]
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- compare A.json B.json
//! cargo run --release --manifest-path e2ebench/Cargo.toml -- where-time RESULTS.json
//! ```

mod compare;
mod json;
mod report;
mod run;
mod spans;
mod staged;
mod stats;
mod sysinfo;
mod traced;
mod verify;
mod workloads;

use json::Json;
use report::WorkloadResult;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// Which passes a run makes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Passes {
    /// The untraced pass only: end-to-end metrics.
    EndToEnd,
    /// The traced pass only (`--trace 1`, the driver's per-layer run).
    Traced,
    /// Both (`--traced`): end-to-end metrics always come from the
    /// untraced pass.
    Both,
}

struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: f64,
    passes: Passes,
    quick: bool,
    out: Option<PathBuf>,
}

const USAGE: &str = "usage: dpi-e2ebench [--workload NAME] [--seed N] [--seconds S] \
[--traced | --trace 0|1] [--quick] [--out FILE]\n       dpi-e2ebench compare A.json B.json\n       \
dpi-e2ebench where-time RESULTS.json";

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workload: None,
        seed: 42,
        seconds: 20.0,
        passes: Passes::EndToEnd,
        quick: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value = || {
            it.next()
                .ok_or_else(|| format!("{arg} needs a value\n{USAGE}"))
        };
        match arg.as_str() {
            "--workload" => o.workload = Some(value()?.clone()),
            "--seed" => o.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                o.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(o.seconds > 0.0 && o.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".to_string());
                }
            }
            "--trace" => {
                o.passes = match value()?.as_str() {
                    "0" => Passes::EndToEnd,
                    "1" => Passes::Traced,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--traced" => o.passes = Passes::Both,
            "--quick" => o.quick = true,
            "--out" => o.out = Some(PathBuf::from(value()?)),
            other => return Err(format!("unknown argument {other}\n{USAGE}")),
        }
    }
    if let Some(name) = &o.workload {
        if !workloads::WORKLOADS.iter().any(|(n, _)| n == name) {
            let names: Vec<&str> = workloads::WORKLOADS.iter().map(|(n, _)| *n).collect();
            return Err(format!(
                "unknown workload {name}; one of {}",
                names.join(", ")
            ));
        }
    }
    Ok(o)
}

/// Runs one workload in this process.
fn run_workload(name: &str, o: &Options) -> WorkloadResult {
    let w = workloads::build(name, o.seed, o.quick).expect("the name was checked");
    let p = run::prepare(&w);
    let mut result = WorkloadResult::new(&p);
    if o.passes != Passes::Traced {
        let m = run::measure(&p, o.seconds, o.quick);
        result.add_measured(&p, &m);
    }
    if o.passes != Passes::EndToEnd {
        traced::run(&p, o.seconds, o.quick, &mut result);
    }
    result
}

/// The results document: a provenance header and one entry per workload.
fn document(o: &Options, workloads: Vec<Json>) -> Json {
    Json::obj()
        .with("benchmark", "dpi-e2ebench")
        // `--quick` rounds are too small to compare with anything.
        .with("comparable", !o.quick)
        .with("nproc", sysinfo::nproc())
        .with("git_rev", sysinfo::git_rev())
        .with("rustc", sysinfo::rustc_version())
        .with("seed", o.seed)
        .with("seconds", o.seconds)
        .with("workloads", workloads)
}

fn write_document(path: &Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty()).map_err(|e| format!("{}: {e}", path.display()))
}

/// Runs every workload, each in a process of its own so that
/// `peak_rss_mb` is that workload's and nobody else's. Returns the
/// workloads' documents and whether all were correct.
fn run_all(o: &Options) -> Result<(Vec<Json>, bool), String> {
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    let mut docs = Vec::new();
    let mut all_correct = true;
    for (name, _) in workloads::WORKLOADS {
        let part = dir.join(format!("part-{name}-{}.json", std::process::id()));
        let mut child = std::process::Command::new(&exe);
        child
            .args(["--workload", name])
            .args(["--seed", &o.seed.to_string()])
            .args(["--seconds", &o.seconds.to_string()])
            .arg("--out")
            .arg(&part);
        match o.passes {
            Passes::EndToEnd => {}
            Passes::Traced => {
                child.args(["--trace", "1"]);
            }
            Passes::Both => {
                child.arg("--traced");
            }
        }
        if o.quick {
            child.arg("--quick");
        }
        let status = child
            .status()
            .map_err(|e| format!("{}: {e}", exe.display()))?;
        all_correct &= status.success();
        let text = std::fs::read_to_string(&part)
            .map_err(|e| format!("{name} left no results ({}): {e}", part.display()))?;
        let _ = std::fs::remove_file(&part);
        let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
        match doc.get("workloads") {
            Some(Json::Arr(items)) => docs.extend(items.iter().cloned()),
            _ => return Err(format!("{name}: results without workloads")),
        }
    }
    Ok((docs, all_correct))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("compare") {
        return match &args[1..] {
            [a, b] => compare::run(Path::new(a), Path::new(b)).map(|()| true),
            _ => Err(USAGE.to_string()),
        };
    }
    if args.first().map(String::as_str) == Some("where-time") {
        let [_, file] = &args[..] else {
            return Err(USAGE.to_string());
        };
        let text = std::fs::read_to_string(file).map_err(|e| format!("{file}: {e}"))?;
        let doc = Json::parse(&text).map_err(|e| format!("{file}: {e}"))?;
        print!("{}", report::where_time_markdown(&doc));
        return Ok(true);
    }
    let o = parse_options(&args)?;
    if cfg!(debug_assertions) {
        return Err(
            "built with debug assertions: a debug build measures nothing worth reporting; \
             use `cargo run --release`"
                .to_string(),
        );
    }
    let (docs, correct) = match &o.workload {
        Some(name) => {
            let result = run_workload(name, &o);
            result.print();
            // The driver reads the last line of standard output.
            println!("{}", result.driver_line());
            (vec![result.to_json()], result.correct())
        }
        None => run_all(&o)?,
    };
    if let Some(path) = &o.out {
        write_document(path, &document(&o, docs))?;
        if o.workload.is_none() {
            println!("\nwrote {}", path.display());
        }
    }
    Ok(correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("verdict check failed: see the lines above");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("{e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick(passes: Passes) -> Options {
        Options {
            workload: None,
            seed: 42,
            seconds: 1.0,
            passes,
            quick: true,
            out: None,
        }
    }

    /// Every workload, one small round, both passes, verdict check on.
    #[test]
    fn every_workload_runs_quick_and_checks_out() {
        for (name, _) in workloads::WORKLOADS {
            let r = run_workload(name, &quick(Passes::Both));
            assert!(
                r.correct(),
                "{name}: {} of {} failed",
                r.failed,
                r.attempted
            );
            assert_eq!(r.rounds, 1, "{name}: --quick is one round");
            let named: Vec<&str> = r.end_to_end.iter().map(|m| m.name.as_str()).collect();
            let wanted: Vec<&str> = report::END_TO_END.iter().map(|(n, ..)| *n).collect();
            assert_eq!(named, wanted, "{name}");
            assert!(
                r.end_to_end
                    .iter()
                    .all(|m| m.value > 0.0 && m.value.is_finite()),
                "{name}: {:?}",
                r.end_to_end
            );
            assert!(
                r.per_layer.iter().all(|m| m.value.is_finite()),
                "{name}: {:?}",
                r.per_layer
            );
            let layer = |n: &str| r.per_layer.iter().find(|m| m.name == n).unwrap().value;
            assert!(layer("kernel.ns_per_byte") > 0.0, "{name}");
            assert!(layer("core.inspect_ns") > 0.0, "{name}");
            assert_eq!(layer("system.failed_packets"), 0.0, "{name}");
            // L7 and reassembly are armed on one workload only.
            let l7 = name == "l7_segments";
            assert_eq!(layer("l7.flows_identified") > 0.0, l7, "{name}");
            assert_eq!(layer("reassembly.push_ns") > 0.0, l7, "{name}");
            assert_eq!(layer("reassembly.conflicts"), 0.0, "{name}");
            let (path, spans) = r.span_file.as_ref().expect("the traced pass writes spans");
            assert!(*spans > 0 && path.exists(), "{name}");
        }
    }

    #[test]
    fn the_driver_line_carries_one_pass_of_metrics() {
        let e2e = run_workload("chain_small", &quick(Passes::EndToEnd));
        let line = Json::parse(&e2e.driver_line()).unwrap();
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
        assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
        assert_eq!(line.get("attempted").and_then(Json::as_f64), Some(2000.0));
        let metrics = line.get("metrics").unwrap();
        for (name, unit, ..) in report::END_TO_END {
            let m = metrics
                .get(name)
                .unwrap_or_else(|| panic!("{name} missing"));
            assert_eq!(m.get("unit").and_then(Json::as_str), Some(unit));
        }
        assert!(metrics.get("kernel.ns_per_byte").is_none());

        let traced = run_workload("chain_small", &quick(Passes::Traced));
        let line = Json::parse(&traced.driver_line()).unwrap();
        let metrics = line.get("metrics").unwrap();
        assert!(metrics.get("kernel.ns_per_byte").is_some());
        assert!(metrics.get("pps").is_none());
    }

    /// `/BENCHMARK.json` is the contract other tools read; it must say
    /// what this program reports.
    #[test]
    fn benchmark_json_states_what_the_code_reports() {
        let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
        let doc = Json::parse(&std::fs::read_to_string(path).unwrap()).unwrap();
        let list = |key: &str| match doc.get(key) {
            Some(Json::Arr(items)) => items.clone(),
            _ => panic!("{key} missing"),
        };
        let text = |j: &Json, key: &str| j.get(key).and_then(Json::as_str).unwrap().to_string();

        for w in list("workloads") {
            let (name, why) = (text(&w, "name"), text(&w, "why"));
            assert!(
                workloads::WORKLOADS.contains(&(name.as_str(), why.as_str())),
                "{name}: not a workload, or its reason differs"
            );
        }
        let stated: Vec<(String, String, String, f64)> = list("end_to_end")
            .iter()
            .map(|m| {
                let bound = m.get("bound").and_then(Json::as_f64).unwrap();
                (text(m, "name"), text(m, "unit"), text(m, "better"), bound)
            })
            .collect();
        let coded: Vec<(String, String, String, f64)> = report::END_TO_END
            .iter()
            .map(|(name, unit, better, bound)| {
                let better = match better {
                    report::Better::Higher => "higher",
                    report::Better::Lower => "lower",
                };
                (
                    name.to_string(),
                    unit.to_string(),
                    better.to_string(),
                    *bound,
                )
            })
            .collect();
        assert_eq!(stated, coded);

        let traced = run_workload("chain_small", &quick(Passes::Traced));
        let stated: Vec<(String, String)> = list("per_layer")
            .iter()
            .map(|m| (text(m, "name"), text(m, "unit")))
            .collect();
        let coded: Vec<(String, String)> = traced
            .per_layer
            .iter()
            .map(|m| (m.name.clone(), m.unit.to_string()))
            .collect();
        assert_eq!(stated, coded);
    }

    #[test]
    fn quick_documents_are_stamped_not_comparable() {
        let doc = document(&quick(Passes::EndToEnd), Vec::new());
        assert_eq!(doc.get("comparable").and_then(Json::as_bool), Some(false));
        let mut full = quick(Passes::EndToEnd);
        full.quick = false;
        let doc = document(&full, Vec::new());
        assert_eq!(doc.get("comparable").and_then(Json::as_bool), Some(true));
    }

    #[test]
    fn options_parse_the_driver_command_line() {
        let args: Vec<String> = "--workload chain_mixed --seed 7 --seconds 3 --trace 1"
            .split(' ')
            .map(str::to_string)
            .collect();
        let o = parse_options(&args).unwrap();
        assert_eq!(o.workload.as_deref(), Some("chain_mixed"));
        assert_eq!((o.seed, o.seconds, o.passes), (7, 3.0, Passes::Traced));
        assert!(parse_options(&["--workload".into(), "nope".into()]).is_err());
        assert!(parse_options(&["--trace".into(), "2".into()]).is_err());
        assert!(parse_options(&["--seconds".into(), "0".into()]).is_err());
    }
}
