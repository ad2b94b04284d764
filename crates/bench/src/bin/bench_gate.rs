//! The CI bench-regression gate: re-measures the three gated perf
//! metrics and fails (nonzero exit) when any regresses more than the
//! tolerance against the committed `BENCH_tib.json` baseline — the first
//! *blocking* perf check in the pipeline, so a PR that halves the engine's
//! throughput no longer sails through on green tests.
//!
//! Gated metrics (see `pathdump_bench::report` for the comparison logic):
//!
//! * `events_per_sec` — the k=8 simnet workload, measured in-process
//!   (median of `--runs` runs; higher better).
//! * `strip_path_min_speedup` — the dpswitch zero-copy strip-path speedup
//!   vs the fixed pre-PR-4 medians, re-derived from a fresh
//!   `dpswitch_throughput` bench run (higher better). The committed
//!   baseline was re-based at the batched-pipeline level (~2.8, up from
//!   ~2.2), so the gate now holds the improved level.
//! * `batched_over_frame_512` — the batched-parse case: the per-frame
//!   512 B median over the batched one (`pathdump_frame/512` ÷
//!   `pathdump/512`; higher better). A same-run ratio, so far less
//!   drift-exposed than absolute medians, but its two cases are sampled
//!   minutes apart within the run, so it gets a slightly widened band
//!   ([`BATCH_RATIO_SCALE`]) and fails when the batch pipeline becomes a
//!   clear pessimization vs per-frame processing.
//! * `pathdump_gap_512` — the tentpole acceptance ratio: the PathDump
//!   512 B median over vanilla (`pathdump/512` ÷ `vanilla/512`; lower
//!   better), gated against the committed ratio *and* held under the
//!   absolute [`GAP_512_CEILING`], which survives baseline re-basing.
//! * `get_flows_wildcard_into_tor` — the TIB wildcard-query median from a
//!   fresh `tib_queries` bench run (lower better).
//! * `tib_scale_ingest_per_sec` / `tib_scale_recovery_ms` — the tiered
//!   storage engine at the 1M-record trajectory shape: ingest rate with
//!   sealing + cold eviction (higher better) and the crash-recovery
//!   replay wall (lower better). Both absolute timings, so they run in
//!   the widened [`DRIFT_SCALE`] band; the blocking 10M-record budget
//!   check is the separate `tib_scale` bin.
//! * `evict_flow_64k_over_1k` — `TrajectoryMemory::evict_flow` ns/FIN at
//!   64 k live records over the same at 1 k (`memory_scale`; lower
//!   better). A same-run ratio with no baseline: held under the absolute
//!   [`EVICT_RATIO_CEILING`], so a FIN that walks the whole memory again
//!   (≈ 150×) fails on any machine.
//! * `ingest_events_per_sec` — the host agent's per-packet ingest rate
//!   (`ingest_scale`; higher better). An absolute timing, so it runs in
//!   the widened [`DRIFT_SCALE`] band, on every runner.
//! * `topk_codec_over_crc` — the top-k reply's encode plus decode time per
//!   byte over the CRC's (`report::codec_over_crc`; lower better). Each
//!   `wire_codec` run gives one same-run ratio and the gate takes the
//!   median of `--runs` of them, since the cases of one run are sampled
//!   seconds apart. No baseline: held under the absolute
//!   [`CODEC_OVER_CRC_CEILING`], so an encoder that does its work twice
//!   fails on any machine. No absolute codec timing is gated.
//!
//! Usage: `cargo run --release -p pathdump_bench --bin bench_gate
//! [-- --baseline PATH] [--tolerance F] [--runs N] [--handicap F]`.
//! `--handicap 2` divides the measured performance by 2 before comparing —
//! the knob used to demonstrate that the gate actually fails on an
//! injected 2× slowdown.
//!
//! Caveat: `events_per_sec`, `strip_path_min_speedup`, the wildcard-query
//! median and the ingest rate are absolute timings, so the committed
//! baseline is **hardware-class-sensitive** — it must be produced on (or
//! re-based to) the machine class that enforces it — and even on one
//! machine their medians drift up to ~2x between timing windows on
//! shared/virtualized runners. Those gates therefore run with a widened
//! band ([`DRIFT_SCALE`] × the base tolerance); the same-run ratio gates
//! keep the tight band and carry the precision. When the CI runner class
//! changes, refresh the baseline with `bench_trajectory` and commit it;
//! `--tolerance` widens every band proportionally for a one-off run.

use pathdump_bench::codec_topk_reply;
use pathdump_bench::ingest_scale::{build_stream, run_ingest, IngestParams};
use pathdump_bench::memory_scale::{evict_ratio, run_memory_curve, EVICT_RATIO_CEILING};
use pathdump_bench::report::{
    codec_over_crc, failing_checks, json_number, recorded_ingest_events_per_sec,
    recorded_median_ns, recorded_simnet_events_per_sec, recorded_tib_scale_number, run_cargo_bench,
    strip_path_min_speedup, Direction, GateCheck, CODEC_OVER_CRC_CEILING,
};
use pathdump_bench::simnet_scale::{run_scale_with, ScaleParams};
use pathdump_bench::tib_scale::{run_tib_scale, TibScaleParams, TibScaleResult};

/// Hard ceiling on the PathDump-vs-vanilla 512 B gap — the PR-7
/// acceptance criterion (was ~5.8× before the batched pipeline, ~3.1×
/// after; the box-speed drift on shared runners leaves the ratio stable
/// within ~0.2). Unlike the baseline comparison this does not drift when
/// `BENCH_tib.json` is re-based.
const GAP_512_CEILING: f64 = 3.5;

/// Tolerance multiplier for the absolute-timing gates (see
/// `GateCheck::tolerance_scale`): the virtualized runner's absolute
/// medians drift up to ~2x between timing windows with no code change,
/// so those gates get a `1 + 0.30 * 4 = 2.2x` band — wide enough to
/// absorb the drift, still tight enough to trip on the order-of-magnitude
/// regressions they exist to catch. The same-run `pathdump_gap_512`
/// ratio is genuinely drift-stable and keeps the tight 30% band, so it
/// carries the precision. `batched_over_frame_512` compares two cases
/// sampled minutes apart within one bench run, so in-run drift skews it
/// more — it gets [`BATCH_RATIO_SCALE`], a band that still fails when the
/// batched pipeline becomes clearly slower than per-frame processing.
const DRIFT_SCALE: f64 = 4.0;

/// See [`DRIFT_SCALE`]: the band for `batched_over_frame_512`
/// (`1 + 0.30 * 1.5 = 1.45x`, i.e. the batched median may not exceed the
/// per-frame median by more than ~15% of the committed ~1.24 ratio).
const BATCH_RATIO_SCALE: f64 = 1.5;

struct GateArgs {
    baseline: String,
    tolerance: f64,
    runs: usize,
    handicap: f64,
}

fn parse_args() -> GateArgs {
    let mut g = GateArgs {
        baseline: "BENCH_tib.json".to_string(),
        tolerance: 0.30,
        runs: 5,
        handicap: 1.0,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut next = |flag: &str| it.next().unwrap_or_else(|| panic!("{flag} needs a value"));
        match a.as_str() {
            "--baseline" => g.baseline = next("--baseline"),
            "--tolerance" => g.tolerance = next("--tolerance").parse().expect("--tolerance"),
            "--runs" => g.runs = next("--runs").parse().expect("--runs"),
            "--handicap" => g.handicap = next("--handicap").parse().expect("--handicap"),
            other => eprintln!("ignoring unknown flag {other}"),
        }
    }
    assert!(g.handicap >= 1.0, "--handicap must be >= 1 (a slowdown)");
    g
}

/// Median events/sec of the k=8 workload.
fn measure_simnet_events_per_sec(runs: usize) -> f64 {
    let p = ScaleParams::k8_default();
    let mut rates: Vec<f64> = (0..runs.max(1))
        .map(|_| run_scale_with(p).events_per_sec)
        .collect();
    rates.sort_by(f64::total_cmp);
    rates[rates.len() / 2]
}

fn main() {
    let args = parse_args();
    let doc = std::fs::read_to_string(&args.baseline).unwrap_or_else(|e| {
        eprintln!("FAIL: cannot read baseline {}: {e}", args.baseline);
        std::process::exit(1);
    });

    // Committed baselines. A baseline file missing a gated metric is a
    // gate failure, not a skip — otherwise deleting the baseline would
    // turn the gate green.
    let mut missing = Vec::new();
    let mut need = |v: Option<f64>, what: &'static str| -> f64 {
        if v.is_none() {
            missing.push(what);
        }
        v.unwrap_or(f64::NAN)
    };
    let base_eps = need(
        recorded_simnet_events_per_sec(&doc),
        "simnet events_per_sec",
    );
    let base_strip = need(
        json_number(&doc, "strip_path_min_speedup"),
        "strip_path_min_speedup",
    );
    let base_wildcard = need(
        recorded_median_ns(&doc, "tib_240k/get_flows_wildcard_into_tor"),
        "get_flows_wildcard_into_tor median",
    );
    let recorded_ratio = |num: &str, den: &str| -> Option<f64> {
        match (recorded_median_ns(&doc, num), recorded_median_ns(&doc, den)) {
            (Some(n), Some(d)) => Some(n / d.max(1e-9)),
            _ => None,
        }
    };
    let base_batched_ratio = need(
        recorded_ratio("dpswitch/pathdump_frame/512", "dpswitch/pathdump/512"),
        "dpswitch pathdump_frame/512 + pathdump/512 medians",
    );
    let base_gap = need(
        recorded_ratio("dpswitch/pathdump/512", "dpswitch/vanilla/512"),
        "dpswitch pathdump/512 + vanilla/512 medians",
    );
    let base_ingest = need(
        recorded_ingest_events_per_sec(&doc),
        "ingest events_per_sec",
    );
    let base_tib_ingest = need(
        recorded_tib_scale_number(&doc, "ingest_events_per_sec"),
        "tib_scale ingest_events_per_sec",
    );
    let base_tib_recovery = need(
        recorded_tib_scale_number(&doc, "recovery_wall_ms"),
        "tib_scale recovery_wall_ms",
    );
    if !missing.is_empty() {
        eprintln!("FAIL: baseline {} lacks: {missing:?}", args.baseline);
        std::process::exit(1);
    }

    // Fresh measurements.
    eprintln!("bench_gate: measuring simnet k=8 ({} runs)...", args.runs);
    let cur_eps = measure_simnet_events_per_sec(args.runs) / args.handicap;

    eprintln!("bench_gate: running dpswitch_throughput...");
    let dpswitch = run_cargo_bench("dpswitch_throughput").unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    });
    let cur_strip = strip_path_min_speedup(&dpswitch).unwrap_or_else(|| {
        eprintln!("FAIL: dpswitch bench produced no pathdump strip medians");
        std::process::exit(1);
    }) / args.handicap;
    let dpswitch_median = |name: &str| -> f64 {
        dpswitch
            .iter()
            .find(|e| e.name == name)
            .map(|e| e.median_ns)
            .unwrap_or_else(|| {
                eprintln!("FAIL: dpswitch bench lacks {name}");
                std::process::exit(1);
            })
    };
    // Same-run ratios: immune to box-speed drift between gate runs.
    let cur_batched_ratio = dpswitch_median("dpswitch/pathdump_frame/512")
        / dpswitch_median("dpswitch/pathdump/512").max(1e-9)
        / args.handicap;
    let cur_gap = dpswitch_median("dpswitch/pathdump/512")
        / dpswitch_median("dpswitch/vanilla/512").max(1e-9)
        * args.handicap;

    eprintln!("bench_gate: running tib_queries...");
    let tib = run_cargo_bench("tib_queries").unwrap_or_else(|e| {
        eprintln!("FAIL: {e}");
        std::process::exit(1);
    });
    let cur_wildcard = tib
        .iter()
        .find(|e| e.name == "tib_240k/get_flows_wildcard_into_tor")
        .map(|e| e.median_ns)
        .unwrap_or_else(|| {
            eprintln!("FAIL: tib bench lacks get_flows_wildcard_into_tor");
            std::process::exit(1);
        })
        * args.handicap;

    eprintln!("bench_gate: running wire_codec ({} runs)...", args.runs);
    let reply_bytes = pathdump_wire::to_bytes(&codec_topk_reply()).len();
    let mut codec_ratios: Vec<f64> = (0..args.runs.max(1))
        .map(|_| {
            let run = run_cargo_bench("wire_codec").unwrap_or_else(|e| {
                eprintln!("FAIL: {e}");
                std::process::exit(1);
            });
            codec_over_crc(&run, reply_bytes).unwrap_or_else(|| {
                eprintln!("FAIL: wire_codec bench lacks a top-k codec or crc32_160k median");
                std::process::exit(1);
            })
        })
        .collect();
    codec_ratios.sort_by(f64::total_cmp);
    let cur_codec = codec_ratios[codec_ratios.len() / 2] * args.handicap;

    let mut checks = vec![
        GateCheck {
            metric: "events_per_sec",
            baseline: base_eps,
            current: cur_eps,
            direction: Direction::HigherIsBetter,
            tolerance_scale: DRIFT_SCALE,
        },
        GateCheck {
            metric: "strip_path_min_speedup",
            baseline: base_strip,
            current: cur_strip,
            direction: Direction::HigherIsBetter,
            tolerance_scale: DRIFT_SCALE,
        },
        GateCheck {
            metric: "batched_over_frame_512",
            baseline: base_batched_ratio,
            current: cur_batched_ratio,
            direction: Direction::HigherIsBetter,
            tolerance_scale: BATCH_RATIO_SCALE,
        },
        GateCheck {
            metric: "pathdump_gap_512",
            baseline: base_gap,
            current: cur_gap,
            direction: Direction::LowerIsBetter,
            tolerance_scale: 1.0,
        },
        GateCheck {
            metric: "get_flows_wildcard_into_tor",
            baseline: base_wildcard,
            current: cur_wildcard,
            direction: Direction::LowerIsBetter,
            tolerance_scale: DRIFT_SCALE,
        },
    ];

    eprintln!("bench_gate: measuring tiered-store scale workload (1M records, 3 runs)...");
    let dir = std::env::temp_dir().join(format!("pathdump-gate-tib-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create eviction dir");
    let mut tib_runs: Vec<TibScaleResult> = (0..3)
        .map(|_| run_tib_scale(TibScaleParams::trajectory_shape(), &dir))
        .collect();
    std::fs::remove_dir_all(&dir).ok();
    tib_runs.sort_by(|a, b| a.ingest_wall_secs.total_cmp(&b.ingest_wall_secs));
    let tib_median = &tib_runs[tib_runs.len() / 2];
    checks.push(GateCheck {
        metric: "tib_scale_ingest_per_sec",
        baseline: base_tib_ingest,
        current: tib_median.ingest_events_per_sec / args.handicap,
        direction: Direction::HigherIsBetter,
        tolerance_scale: DRIFT_SCALE,
    });
    checks.push(GateCheck {
        metric: "tib_scale_recovery_ms",
        baseline: base_tib_recovery,
        current: tib_median.recovery_wall_ms * args.handicap,
        direction: Direction::LowerIsBetter,
        tolerance_scale: DRIFT_SCALE,
    });

    eprintln!(
        "bench_gate: measuring host-agent ingest ({} runs)...",
        args.runs
    );
    let stream = build_stream(IngestParams::default_shape());
    let mut rates: Vec<f64> = (0..args.runs.max(1))
        .map(|_| run_ingest(&stream).events_per_sec)
        .collect();
    rates.sort_by(f64::total_cmp);
    checks.push(GateCheck {
        metric: "ingest_events_per_sec",
        baseline: base_ingest,
        current: rates[rates.len() / 2] / args.handicap,
        direction: Direction::HigherIsBetter,
        tolerance_scale: DRIFT_SCALE,
    });

    eprintln!("bench_gate: measuring trajectory-memory FIN cost (1k/8k/64k live records)...");
    let cur_evict_ratio = evict_ratio(&run_memory_curve(args.runs)) * args.handicap;

    println!(
        "bench_gate vs {} (tolerance {:.0}%{}):",
        args.baseline,
        args.tolerance * 100.0,
        if args.handicap > 1.0 {
            format!(", injected {:.2}x handicap", args.handicap)
        } else {
            String::new()
        }
    );
    for c in &checks {
        println!(
            "  {:<28} baseline {:>14.1}  current {:>14.1}  regression {:>5.2}x  band {:>4.2}x  {}",
            c.metric,
            c.baseline,
            c.current,
            c.regression(),
            1.0 + args.tolerance * c.tolerance_scale,
            if c.regressed(args.tolerance) {
                "FAIL"
            } else {
                "ok"
            }
        );
    }
    let bad = failing_checks(&checks, args.tolerance);
    if !bad.is_empty() {
        eprintln!(
            "FAIL: {} gated metric(s) regressed past their band",
            bad.len()
        );
        std::process::exit(1);
    }
    // The acceptance ceiling is absolute: re-basing the baseline file
    // cannot relax it, and the same-run ratio survives box-speed drift.
    if cur_gap > GAP_512_CEILING {
        eprintln!(
            "FAIL: pathdump/vanilla 512B gap {cur_gap:.3}x exceeds the acceptance \
             ceiling {GAP_512_CEILING}x"
        );
        std::process::exit(1);
    }
    println!(
        "  {:<28} ceiling  {:>14.1}  current {:>14.3}",
        "evict_flow_64k_over_1k", EVICT_RATIO_CEILING, cur_evict_ratio
    );
    if cur_evict_ratio > EVICT_RATIO_CEILING {
        eprintln!(
            "FAIL: evict_flow costs {cur_evict_ratio:.2}x more at 64k live records than at 1k \
             (ceiling {EVICT_RATIO_CEILING}x): a FIN must not scale with the memory"
        );
        std::process::exit(1);
    }
    println!(
        "  {:<28} ceiling  {:>14.1}  current {:>14.3}",
        "topk_codec_over_crc", CODEC_OVER_CRC_CEILING, cur_codec
    );
    if cur_codec > CODEC_OVER_CRC_CEILING {
        eprintln!(
            "FAIL: the top-k reply codec costs {cur_codec:.2}x the CRC per byte \
             (ceiling {CODEC_OVER_CRC_CEILING}x)"
        );
        std::process::exit(1);
    }
    println!("ok: all gated metrics within tolerance");
}
