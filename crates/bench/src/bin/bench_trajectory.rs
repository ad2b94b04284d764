//! Perf-trajectory capture: runs the four Criterion benches
//! (`tib_queries`, `wire_codec`, `reconstruct`, `dpswitch_throughput`)
//! via nested `cargo bench` invocations (parsing shared with `bench_gate`
//! through `pathdump_bench::report`) and the in-process workloads, and
//! writes one `BENCH_tib.json` with:
//!
//! * a `benchmarks` array — every Criterion median; `bench_gate` reads its
//!   dpswitch and wildcard-query baselines from here;
//! * a `reconstruct` section — two same-run warm-over-cold decode ratios
//!   and a note on reading them;
//! * a `simnet` section — events/sec of the k=8 workload and the CPU count
//!   of the box that measured them (see `simnet_scale`);
//! * a `memory` section — trajectory-memory `evict_flow` ns/FIN and
//!   `update_wire` ns/packet at 1 k / 8 k / 64 k live records (see
//!   `memory_scale`; `bench_gate` holds the 64 k / 1 k FIN ratio under a
//!   fixed ceiling);
//! * a `standing` section — per-record overhead of the incremental
//!   standing-query engine at 0/4/16 registered watches (trend-watching
//!   only, see `standing_scale`);
//! * a `tib_scale` section — the tiered storage engine at 1M records:
//!   sealed-segment ingest rate, cold-segment ranged-query latency,
//!   crash-recovery wall (the ingest rate and recovery wall are
//!   drift-banded by `bench_gate`; the blocking 10M gate is the
//!   `tib_scale` bin);
//! * a `verifier` section — static-analysis wall time over k=16 fat-tree
//!   and VL2 (trend-watching only, gated separately by `verifier_gate`).
//!
//! It is the recorded perf trajectory CI uploads as an artifact and the
//! `bench_gate` job compares against.
//!
//! Usage: `cargo run --release -p pathdump_bench --bin bench_trajectory
//! [-- --out PATH]` (default `BENCH_tib.json` in the working directory).
//! An unknown flag exits 2.

use pathdump_bench::memory_scale::{evict_ratio, run_memory_curve};
use pathdump_bench::report::{json_escape, median_of, run_cargo_bench, Entry};
use pathdump_bench::simnet_scale::{run_scale_with, ScaleParams, ScaleResult};
use pathdump_bench::standing_scale::{self, StandingParams, StandingResult};
use pathdump_bench::tib_scale::{run_tib_scale, TibScaleParams, TibScaleResult};
use pathdump_bench::{exit_usage, flag_value};
use pathdump_topology::{FatTree, FatTreeParams, RouteTables, UpDownRouting, Vl2, Vl2Params};
use pathdump_verifier::{verify, IntentModel};

const BENCHES: [&str; 4] = [
    "tib_queries",
    "wire_codec",
    "reconstruct",
    "dpswitch_throughput",
];

/// The `reconstruct` section: the warm/cold ratios for the closed-form
/// fast path and the memoized candidate-walk (punted ≥3-tag) decode.
///
/// The fast-path ratio is **expected to sit below 1** and is not a
/// regression: `cold_decode`/`memo_warm_decode`/`cached_decode` measure
/// ≤2-tag fat-tree trajectories, whose closed-form decode is a handful
/// of arithmetic ops — cheaper than any memo or cache probe, so the
/// "warm" variants pay pure lookup overhead on top of an already-trivial
/// decode. The memo earns its keep on the punted ≥3-tag candidate walk
/// (`walk_cold_decode` vs `walk_memo_decode`, a ~200× ratio), which is
/// why only the walk ratio is a meaningful speedup and the JSON carries
/// a `note` saying so.
fn reconstruct_section(entries: &[Entry]) -> String {
    let ratio = |cold: &str, warm: &str| -> String {
        match (median_of(entries, cold), median_of(entries, warm)) {
            (Some(c), Some(w)) => format!("{:.3}", c / w.max(1e-9)),
            _ => "null".to_string(),
        }
    };
    let note = "warm_over_cold_fast_path < 1 is expected, not a regression: the \
                cold/cached/memo_warm cases decode <=2-tag trajectories whose \
                closed form is cheaper than any memo or cache probe, so warm \
                variants only add lookup overhead; the memo pays off on the \
                punted >=3-tag candidate walk (walk_cold_decode vs \
                walk_memo_decode).";
    format!(
        "{{\n  \"note\": \"{}\",\n  \"warm_over_cold_candidate_walk\": {},\n  \"warm_over_cold_fast_path\": {}\n  }}",
        json_escape(note),
        ratio("reconstruct/walk_cold_decode", "reconstruct/walk_memo_decode"),
        ratio("reconstruct/cold_decode", "reconstruct/memo_warm_decode")
    )
}

/// The `memory` section: what a FIN and a hit-path packet cost the
/// trajectory memory as its live-record count grows (see `memory_scale`).
fn memory_section(runs: usize) -> String {
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let curve = run_memory_curve(runs);
    let rows: Vec<String> = curve
        .iter()
        .map(|r| {
            eprintln!(
                "memory {} live: evict_flow {:.0} ns/FIN, update_wire {:.1} ns/pkt",
                r.live_records, r.evict_flow_ns_per_fin, r.update_wire_ns_per_pkt
            );
            format!(
                "    {{\"live_records\": {}, \"evict_flow_ns_per_fin\": {:.1}, \"update_wire_ns_per_pkt\": {:.1}}}",
                r.live_records, r.evict_flow_ns_per_fin, r.update_wire_ns_per_pkt
            )
        })
        .collect();
    format!(
        "{{\n  \"cpus\": {cpus},\n  \"evict_flow_64k_over_1k\": {:.3},\n  \"cases\": [\n{}\n    ]\n  }}",
        evict_ratio(&curve),
        rows.join(",\n")
    )
}

/// Runs the k=8 scale workload `runs` times and returns the `simnet`
/// JSON object: the median-wall run.
fn simnet_section(runs: usize) -> String {
    let p = ScaleParams::k8_default();
    let cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let mut rs: Vec<ScaleResult> = (0..runs).map(|_| run_scale_with(p)).collect();
    rs.sort_by(|a, b| a.wall_secs.total_cmp(&b.wall_secs));
    let r = &rs[rs.len() / 2];
    eprintln!(
        "simnet k=8: {:.2}M ev/s ({cpus} cpu(s))",
        r.events_per_sec / 1e6
    );
    format!(
        "{{\n  \"k\": {},\n  \"pkts_per_host\": {},\n  \"cpus\": {cpus},\n  \"events\": {},\n  \"wall_ms\": {:.3},\n  \"events_per_sec\": {:.0}\n  }}",
        p.k,
        p.pkts_per_host,
        r.events,
        r.wall_secs * 1e3,
        r.events_per_sec
    )
}

/// Times one static-verifier pass (healthy tables, exhaustive ECMP
/// coverage) plus the intent-model build, and returns a JSON case row.
/// Recorded in the trajectory for trend-watching only — `bench_gate` does
/// NOT gate on these numbers (the blocking wall-time check lives in
/// `verifier_gate`).
fn verifier_case(name: &str, routing: &dyn UpDownRouting) -> String {
    let topo = routing.topology();
    let rt = RouteTables::build(routing);
    let t0 = std::time::Instant::now();
    let verdict = verify(topo, &rt);
    let verify_ms = t0.elapsed().as_secs_f64() * 1e3;
    assert!(
        verdict.is_clean(),
        "{name}: healthy tables must verify clean"
    );
    let t1 = std::time::Instant::now();
    let im = IntentModel::build(topo, &rt).expect("clean tables build an intent model");
    let intent_ms = t1.elapsed().as_secs_f64() * 1e3;
    let total = im.total_paths();
    eprintln!(
        "verifier {name}: {} pairs, {total} intended paths, verify {verify_ms:.2} ms, intent {intent_ms:.2} ms",
        verdict.pairs_checked
    );
    format!(
        "    {{\"topology\": \"{}\", \"pairs\": {}, \"intended_paths\": {total}, \"verify_ms\": {verify_ms:.3}, \"intent_build_ms\": {intent_ms:.3}}}",
        json_escape(name),
        verdict.pairs_checked
    )
}

/// The `standing` section: TIB insert throughput with N registered
/// standing watches mirroring every insert vs the plain store (see
/// `standing_scale`) — the incremental engine's per-record overhead.
/// Trend-watching only; not gated (same policy as `verifier`).
fn standing_section(runs: usize) -> String {
    let p = StandingParams::default_shape();
    let recs = standing_scale::build_stream(p);
    let median = |mut rs: Vec<StandingResult>| -> StandingResult {
        rs.sort_by(|a, b| a.ns_per_record.total_cmp(&b.ns_per_record));
        rs.swap_remove(rs.len() / 2)
    };
    let rows: Vec<String> = [0usize, 4, 16]
        .iter()
        .map(|&w| {
            let runs: Vec<StandingResult> = (0..runs.max(1))
                .map(|_| standing_scale::run_standing(&recs, w))
                .collect();
            for r in &runs {
                assert_eq!(
                    r.flip_events, runs[0].flip_events,
                    "standing flips must be deterministic (watches={w})"
                );
            }
            let r = median(runs);
            eprintln!(
                "standing {w} watch(es): {:.0} ns/record, {} flips",
                r.ns_per_record, r.flip_events
            );
            format!(
                "    {{\"watches\": {w}, \"ns_per_record\": {:.1}, \"flip_events\": {}}}",
                r.ns_per_record, r.flip_events
            )
        })
        .collect();
    format!(
        "{{\n  \"records\": {},\n  \"flows\": {},\n  \"cases\": [\n{}\n    ]\n  }}",
        p.records,
        p.flows,
        rows.join(",\n")
    )
}

/// The `tib_scale` section: the tiered storage engine at the 1M-record
/// trajectory shape — ingest rate with sealing + cold eviction, the
/// sealed-segment ranged-query latency (cold reloads included), and the
/// crash-recovery replay wall. `bench_gate` drift-bands the ingest rate
/// and the recovery wall; the 10M-record blocking gate is the separate
/// `tib_scale` bin.
fn tib_scale_section(runs: usize) -> String {
    let p = TibScaleParams::trajectory_shape();
    let dir = std::env::temp_dir().join(format!("pathdump-trajectory-tib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create eviction dir");
    let mut rs: Vec<TibScaleResult> = (0..runs.max(1)).map(|_| run_tib_scale(p, &dir)).collect();
    std::fs::remove_dir_all(&dir).ok();
    rs.sort_by(|a, b| a.ingest_wall_secs.total_cmp(&b.ingest_wall_secs));
    let r = rs.swap_remove(rs.len() / 2);
    eprintln!(
        "tib_scale: {:.2}M records/s ingest ({} sealed / {} cold), query {:.2} ms, recovery {:.0} ms",
        r.ingest_events_per_sec / 1e6,
        r.sealed_segments,
        r.cold_segments,
        r.query_mean_ms,
        r.recovery_wall_ms
    );
    format!(
        "{{\n  \"records\": {},\n  \"seal_every\": {},\n  \"keep_hot\": {},\n  \"wal_tail\": {},\n  \"sealed_segments\": {},\n  \"cold_segments\": {},\n  \"cold_reloads\": {},\n  \"snapshot_bytes\": {},\n  \"ingest_events_per_sec\": {:.0},\n  \"checkpoint_wall_ms\": {:.3},\n  \"query_mean_ms\": {:.3},\n  \"recovery_wall_ms\": {:.3}\n  }}",
        r.records,
        p.seal_every,
        p.keep_hot,
        p.wal_tail,
        r.sealed_segments,
        r.cold_segments,
        r.cold_reloads,
        r.snapshot_bytes,
        r.ingest_events_per_sec,
        r.checkpoint_wall_ms,
        r.query_mean_ms,
        r.recovery_wall_ms
    )
}

/// The `verifier` section: static-analysis wall time over the largest
/// fabrics the test suite exercises.
fn verifier_section() -> String {
    let ft = FatTree::build(FatTreeParams { k: 16 });
    let v2 = Vl2::build(Vl2Params {
        da: 16,
        di: 16,
        hosts_per_tor: 4,
    });
    format!(
        "{{\n  \"cases\": [\n{},\n{}\n    ]\n  }}",
        verifier_case("fat-tree k=16", &ft),
        verifier_case("VL2 da=16 di=16", &v2)
    )
}

fn main() {
    let mut out_path = String::from("BENCH_tib.json");
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--out" => out_path = flag_value("--out", &mut args).unwrap_or_else(|e| exit_usage(&e)),
            other => exit_usage(&format!("unknown flag {other}")),
        }
    }

    let mut entries: Vec<Entry> = Vec::new();
    let mut failures = 0usize;
    for bench in BENCHES {
        eprintln!("running bench {bench}...");
        match run_cargo_bench(bench) {
            Ok(mut es) => entries.append(&mut es),
            Err(e) => {
                eprintln!("{e}");
                failures += 1;
            }
        }
    }

    eprintln!("running simnet scale workload (k=8)...");
    let simnet = simnet_section(3);

    eprintln!("running trajectory-memory FIN/update curve...");
    let memory = memory_section(5);

    eprintln!("running static verifier timing (k=16 + VL2)...");
    let verifier = verifier_section();

    eprintln!("running standing-engine overhead curve...");
    let standing = standing_section(3);

    eprintln!("running tiered-store scale workload (1M records)...");
    let tib_scale = tib_scale_section(3);

    let mut json = String::from("{\n  \"benchmarks\": [\n");
    for (i, e) in entries.iter().enumerate() {
        let sep = if i + 1 == entries.len() { "" } else { "," };
        json.push_str(&format!(
            "    {{\"bench\": \"{}\", \"name\": \"{}\", \"median_ns\": {}, \"samples\": {}}}{sep}\n",
            json_escape(e.bench),
            json_escape(&e.name),
            e.median_ns,
            e.samples
        ));
    }
    json.push_str("  ],\n  \"reconstruct\": ");
    json.push_str(&reconstruct_section(&entries));
    json.push_str(",\n  \"simnet\": ");
    json.push_str(&simnet);
    json.push_str(",\n  \"memory\": ");
    json.push_str(&memory);
    json.push_str(",\n  \"standing\": ");
    json.push_str(&standing);
    json.push_str(",\n  \"tib_scale\": ");
    json.push_str(&tib_scale);
    json.push_str(",\n  \"verifier\": ");
    json.push_str(&verifier);
    json.push_str("\n}\n");
    std::fs::write(&out_path, &json).expect("write BENCH json");
    println!("wrote {} benchmark medians to {out_path}", entries.len());
    if entries.is_empty() || failures > 0 {
        eprintln!(
            "{failures} bench target(s) failed, {} parsed",
            entries.len()
        );
        std::process::exit(1);
    }
}
