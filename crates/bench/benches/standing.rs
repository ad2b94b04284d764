//! Criterion micro-benchmark: the standing-query engine's cost per record.
//! One deterministic TIB record stream is inserted with 0, 4 and 16
//! registered watches mirroring every insert; the 0-watch case is the
//! plain store. Trend only, not gated.
//!
//! Each sample registers the watches on a fresh store untimed, then times
//! `Tib::insert` + `StandingQueryEngine::on_record` over the whole stream.
//! The watch mix covers all four predicate kinds; with 64 flows and
//! `k = 8` the top-k membership watches sit near the displacement
//! boundary, so the monotonicity skip rules are exercised on their
//! expensive recompute path, not just the cheap early-outs. The bit-level
//! pin of the engine against recompute is
//! `crates/core/tests/standing_differential.rs`.

use criterion::{criterion_group, criterion_main, BatchSize, BenchmarkId, Criterion, Throughput};
use pathdump_core::standing::{StandingPredicate, StandingQuery, StandingQueryEngine};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, HostId, Ip, LinkPattern, Nanos, Path, SwitchId};

/// Records in the stream.
const RECORDS: usize = 20_000;

/// Distinct flows cycling through it.
const FLOWS: usize = 64;

fn flow(sport: u16) -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
}

/// The deterministic record stream: flows round-robin, paths rotate (so
/// path-change watches keep flipping), stime advances 50 ns per record
/// (so rate windows slide on every insert).
fn build_stream() -> Vec<TibRecord> {
    let paths: Vec<Path> = [[0u16, 2, 4], [0, 3, 4], [1, 2, 5], [1, 3, 5]]
        .iter()
        .map(|ids| Path::new(ids.iter().map(|&i| SwitchId(i)).collect()))
        .collect();
    (0..RECORDS)
        .map(|i| {
            let t0 = (i as u64) * 50;
            TibRecord {
                flow: flow((i % FLOWS) as u16),
                path: paths[(i / FLOWS + i) % paths.len()].clone(),
                stime: Nanos(t0),
                etime: Nanos(t0 + 40),
                bytes: 200 + (i as u64 * 37) % 1400,
                pkts: 1 + (i as u64) % 9,
            }
        })
        .collect()
}

/// An empty store and an engine with `watches` standing queries: an even
/// mix of all four predicate kinds over the first flows.
fn setup(watches: usize) -> (Tib, StandingQueryEngine) {
    let tib = Tib::new();
    let mut eng = StandingQueryEngine::new(HostId(0));
    for i in 0..watches {
        let f = flow((i % FLOWS) as u16);
        let pred = match i % 4 {
            0 => StandingPredicate::TopKMember { flow: f, k: 8 },
            1 => StandingPredicate::RateAbove {
                flow: f,
                window: Nanos(2_000),
                min_bytes: 4_000,
                min_pkts: 1,
            },
            2 => StandingPredicate::PathChanged { flow: f },
            _ => StandingPredicate::LinkFlowsAbove {
                link: LinkPattern::into(SwitchId(4)),
                ceiling: 32,
            },
        };
        eng.watch(&tib, StandingQuery::new(pred), Nanos::ZERO);
    }
    (tib, eng)
}

/// Inserts the stream, stepping the engine when it holds watches; the
/// raise/clear flips it emitted.
fn run(
    recs: &[TibRecord],
    watches: usize,
    (mut tib, mut eng): (Tib, StandingQueryEngine),
) -> usize {
    for r in recs {
        tib.insert(r.clone());
        if watches > 0 {
            eng.on_record(&tib, r, r.etime);
        }
    }
    eng.drain_events().len()
}

fn bench_standing(c: &mut Criterion) {
    let recs = build_stream();
    // Otherwise the watched cases would time only the engine's early-outs.
    assert!(run(&recs, 16, setup(16)) > 0, "the mix must flip watches");
    let mut group = c.benchmark_group("standing");
    group.throughput(Throughput::Elements(RECORDS as u64));
    for watches in [0, 4, 16] {
        group.bench_function(BenchmarkId::new("watches", watches), |b| {
            b.iter_batched(
                || setup(watches),
                |state| run(&recs, watches, state),
                BatchSize::LargeInput,
            )
        });
    }
    group.finish();
}

criterion_group!(benches, bench_standing);
criterion_main!(benches);
