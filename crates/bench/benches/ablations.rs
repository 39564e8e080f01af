//! Criterion ablations for the design choices DESIGN.md calls out:
//!
//! * the accepting-state bitmap fast path vs always reading the match
//!   table (§5.1);
//! * the dedicated result packet's encode cost (§4.2 option 3);
//! * the §5.3 anchor pre-filter vs running every regex on every packet.

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use dpi_ac::{bitmap_of, Automaton, CombinedAcBuilder, MiddleboxId, PatternSet};
use dpi_core::{DpiInstance, InstanceConfig, MiddleboxProfile, RuleSpec};
use dpi_packet::report::{MatchRecord, MiddleboxReport, ResultPacket};
use dpi_traffic::patterns::{snort_like, snort_like_regexes};
use dpi_traffic::trace::TraceConfig;

fn bench_bitmap_fast_path(c: &mut Criterion) {
    // Ten middleboxes registered; only one is active on the packet's
    // chain. The bitmap AND decides per accepting state whether the match
    // table must be read at all.
    let mut builder = CombinedAcBuilder::new();
    let mut all_pats = Vec::new();
    for mb in 0..10u16 {
        let pats = snort_like(300, 100 + u64::from(mb));
        builder
            .add_set(PatternSet::new(MiddleboxId(mb), pats.clone()))
            .expect("valid");
        all_pats.extend(pats);
    }
    let ac = builder.build_full();
    let trace = TraceConfig {
        packets: 100,
        match_density: 0.3,
        prefix_density: 2.0,
        seed: 6,
        ..TraceConfig::default()
    }
    .generate(&all_pats);
    let bytes: usize = trace.iter().map(|p| p.len()).sum();
    let active = bitmap_of(&[MiddleboxId(0)]);

    let mut g = c.benchmark_group("accepting_state_check");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(15);
    g.bench_function("bitmap_then_table", |b| {
        b.iter(|| {
            let mut relevant = 0usize;
            for p in &trace {
                ac.scan(ac.start(), p, |_, st| {
                    if ac.bitmap(st) & active != 0 {
                        relevant += ac
                            .entries(st)
                            .iter()
                            .filter(|e| e.middlebox == MiddleboxId(0))
                            .count();
                    }
                });
            }
            relevant
        })
    });
    g.bench_function("table_always", |b| {
        b.iter(|| {
            let mut relevant = 0usize;
            for p in &trace {
                ac.scan(ac.start(), p, |_, st| {
                    relevant += ac
                        .entries(st)
                        .iter()
                        .filter(|e| e.middlebox == MiddleboxId(0))
                        .count();
                });
            }
            relevant
        })
    });
    g.finish();
}

fn bench_result_encodings(c: &mut Criterion) {
    // Encode a typical 3-middlebox match report.
    let reports = vec![
        MiddleboxReport {
            middlebox_id: 1,
            records: vec![
                MatchRecord::Single {
                    pattern_id: 10,
                    position: 100,
                },
                MatchRecord::Range {
                    pattern_id: 11,
                    start: 200,
                    count: 30,
                },
            ],
        },
        MiddleboxReport {
            middlebox_id: 2,
            records: vec![MatchRecord::Single {
                pattern_id: 3,
                position: 50,
            }],
        },
        MiddleboxReport {
            middlebox_id: 3,
            records: vec![MatchRecord::Single {
                pattern_id: 7,
                position: 60,
            }],
        },
    ];
    let flow = dpi_packet::packet::flow(
        [10, 0, 0, 1],
        4000,
        [10, 0, 0, 2],
        80,
        dpi_packet::ipv4::IpProtocol::Tcp,
    );

    let mut g = c.benchmark_group("result_delivery_encoding");
    g.sample_size(30);
    g.bench_function("dedicated_result_packet", |b| {
        b.iter(|| {
            ResultPacket {
                packet_id: 1,
                generation: 0,
                flow,
                flow_offset: 0,
                reports: reports.clone(),
            }
            .to_bytes()
        })
    });
    g.finish();
}

fn bench_anchor_prefilter(c: &mut Criterion) {
    const MB: MiddleboxId = MiddleboxId(1);
    // Modest rule count: the NFA baseline is intentionally the slow path.
    let regexes = snort_like_regexes(50, 51);
    let rules: Vec<RuleSpec> = regexes.iter().map(RuleSpec::regex).collect();
    let trace = TraceConfig {
        packets: 40,
        max_payload: 600,
        seed: 7,
        ..TraceConfig::default()
    }
    .generate(&[]);
    let bytes: usize = trace.iter().map(|p| p.len()).sum();

    let mut g = c.benchmark_group("regex_handling");
    g.throughput(Throughput::Bytes(bytes as u64));
    g.sample_size(10);

    g.bench_function("anchor_prefilter", |b| {
        let cfg = InstanceConfig::new()
            .with_middlebox(MiddleboxProfile::stateless(MB), rules.clone())
            .with_chain(1, vec![MB]);
        let mut dpi = DpiInstance::new(cfg).expect("valid config");
        b.iter(|| {
            let mut matched = 0usize;
            for p in &trace {
                matched += dpi.scan_payload(1, None, p).expect("scan").reports.len();
            }
            matched
        })
    });

    g.bench_function("run_every_regex_nfa", |b| {
        let compiled: Vec<dpi_regex::Regex> = regexes
            .iter()
            .map(|r| dpi_regex::Regex::new(r).expect("valid regex"))
            .collect();
        b.iter(|| {
            let mut matched = 0usize;
            for p in &trace {
                for re in &compiled {
                    if re.is_match(p) {
                        matched += 1;
                    }
                }
            }
            matched
        })
    });

    g.bench_function("run_every_regex_lazy_dfa", |b| {
        let mut compiled: Vec<_> = regexes
            .iter()
            .map(|r| dpi_regex::Regex::new(r).expect("valid regex").to_lazy_dfa())
            .collect();
        b.iter(|| {
            let mut matched = 0usize;
            for p in &trace {
                for dfa in compiled.iter_mut() {
                    if dfa.is_match(p) {
                        matched += 1;
                    }
                }
            }
            matched
        })
    });

    g.finish();
}

criterion_group!(
    benches,
    bench_bitmap_fast_path,
    bench_result_encodings,
    bench_anchor_prefilter
);
criterion_main!(benches);
