//! The PathDump end-to-end benchmark: one command, one workload per run.
//!
//! ```text
//! cargo run --release --manifest-path benchmark/Cargo.toml -- \
//!     --workload <name> --seed <n> --seconds <s> --trace <0|1> [--quick]
//! ```
//!
//! A run generates its inputs from the seed, sets the workload up
//! [`SETUP_REPEATS`] times (reporting the median as `setup_s`), runs one
//! single-threaded closed loop for `--seconds`, verifies the outputs and
//! prints every metric by name with its unit; the last line of standard
//! output is the result as one JSON object. `--trace 1` records spans
//! around each call into a layer, runs the isolation phases and prints the
//! per-layer metrics and the budget table instead. See `README.md`.

mod harness;
mod ingest;
mod metrics;
mod query;
mod strip;

use harness::{measure, measure_pairs, median, quantile, Tracer, Workload};
use metrics::{Def, Metrics, END_TO_END, PER_LAYER, WORKLOADS};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 3;

/// Default `--seconds`, the `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 18.0;

/// Everything the benchmark writes goes under this directory of the
/// checkout it runs in.
const OUT_DIR: &str = "benchmark/out";

struct Config {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    /// Tiny inputs for `tests/smoke.rs`; the numbers are not for reporting.
    quick: bool,
}

fn parse_args() -> Result<Config, String> {
    let mut cfg = Config {
        workload: String::new(),
        seed: 1,
        seconds: DEFAULT_SECONDS,
        trace: false,
        quick: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{a} needs {what}"));
        match a.as_str() {
            "--workload" => cfg.workload = value("a name")?,
            "--seed" => {
                cfg.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                cfg.seconds = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?
            }
            "--trace" => {
                cfg.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--quick" => cfg.quick = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&cfg.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {WORKLOADS:?}, not {:?}",
            cfg.workload
        ));
    }
    if !(cfg.seconds > 0.0 && cfg.seconds <= 600.0) {
        return Err(format!("--seconds out of range: {}", cfg.seconds));
    }
    Ok(cfg)
}

/// Builds a workload from the seed; `scratch` is an empty directory for
/// the files it writes. The round after which the counts (bytes out, peak
/// memory) are read comes back with it.
fn build(cfg: &Config, scratch: &std::path::Path) -> (Box<dyn Workload>, usize) {
    match cfg.workload.as_str() {
        "strip_64" => (Box::new(strip::Strip::new(cfg.seed, cfg.quick)), 8),
        "ingest_steady" => (
            Box::new(ingest::Ingest::new(cfg.seed, cfg.quick, scratch)),
            8,
        ),
        name @ ("query_fsd" | "query_topk") => {
            let kind = if name == "query_fsd" {
                query::Kind::Fsd
            } else {
                query::Kind::TopK
            };
            (
                Box::new(query::QueryLoad::new(kind, cfg.seed, cfg.quick, cfg.trace)),
                6,
            )
        }
        other => unreachable!("workload {other} passed parse_args"),
    }
}

fn print_metrics(defs: &[Def], m: &Metrics) -> String {
    let mut json = Vec::new();
    for (name, unit) in defs {
        let v = m.get(name).unwrap_or(0.0);
        println!("metric {name} {v} {unit}");
        json.push(format!(
            "\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"
        ));
    }
    json.join(", ")
}

fn run(cfg: &Config) -> std::io::Result<()> {
    let out = PathBuf::from(OUT_DIR);
    let scratch = out.join(format!("tmp-{}", std::process::id()));
    std::fs::create_dir_all(&out)?;
    println!(
        "workload {} seed {} seconds {} trace {}{}",
        cfg.workload,
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        if cfg.quick {
            " QUICK (not for reporting)"
        } else {
            ""
        }
    );

    let mut tracer = Tracer::new();
    let mut attempted = 0u64;
    let mut failed = 0u64;

    // Set-up: input generation, preload and one warm-up round, several
    // times over so that one slow page-in does not decide `setup_s`.
    let mut setup_s = Vec::new();
    let mut built = None;
    for _ in 0..SETUP_REPEATS {
        drop(built.take());
        std::fs::remove_dir_all(&scratch).or_else(ignore_missing)?;
        std::fs::create_dir_all(&scratch)?;
        let t = Instant::now();
        let (mut w, checkpoint) = build(cfg, &scratch);
        let warm = w.round(&mut tracer, &mut Vec::new());
        setup_s.push(t.elapsed().as_secs_f64());
        attempted += warm.ops;
        failed += warm.failed;
        built = Some((w, checkpoint));
    }
    let (mut w, checkpoint) = built.expect("SETUP_REPEATS > 0");

    let mut m = Metrics::default();
    let json = if cfg.trace {
        let (plain, traced) = measure_pairs(w.as_mut(), &mut tracer, cfg.seconds);
        attempted += plain.ops + traced.ops;
        failed += plain.failed + traced.failed;
        m.set(
            "trace.overhead_share",
            1.0 - median(&traced.round_rates) / median(&plain.round_rates),
        );
        w.layer_metrics(&tracer, &plain, &traced, &mut m);
        let path = out.join(format!("trace-{}.json", cfg.workload));
        tracer.write_json(&path)?;
        println!(
            "{} spans of {} traced rounds written to {}",
            tracer.spans().len(),
            traced.rounds,
            path.display()
        );
        print_metrics(PER_LAYER, &m)
    } else {
        let r = measure(w.as_mut(), &mut tracer, cfg.seconds, checkpoint);
        attempted += r.ops;
        failed += r.failed;
        m.set("setup_s", median(&setup_s));
        // The best decile of the rounds, not their median: see README,
        // "Method". Whatever else runs on the host only ever slows a round.
        m.set("ops_per_s", quantile(&r.round_rates, 0.9));
        m.set("latency_p50_ms", quantile(&r.round_p50_ms, 0.1));
        m.set("latency_p90_ms", quantile(&r.round_p90_ms, 0.1));
        m.set("cpu_us_per_op", quantile(&r.round_cpu_us, 0.1));
        m.set("bytes_per_op", r.checkpoint_bytes / r.checkpoint_ops as f64);
        m.set("peak_rss_mb", r.peak_rss_mb);
        println!(
            "measured {} rounds, {} ops, {} latency samples",
            r.rounds, r.ops, r.units
        );
        println!(
            "round rates (1/s): min {:.6e}, quartiles {:.6e} {:.6e} {:.6e}, max {:.6e}",
            quantile(&r.round_rates, 0.0),
            quantile(&r.round_rates, 0.25),
            median(&r.round_rates),
            quantile(&r.round_rates, 0.75),
            quantile(&r.round_rates, 1.0)
        );

        print_metrics(END_TO_END, &m)
    };

    let problems = w.verify_end();
    for p in &problems {
        println!("VERIFY FAILED: {p}");
    }
    // A broken whole-run invariant fails the run even when every single
    // operation looked right.
    failed += problems.len() as u64;
    drop(w);
    std::fs::remove_dir_all(&scratch).or_else(ignore_missing)?;

    let correct = failed == 0;
    println!("failed_share {} ratio", failed as f64 / attempted as f64);
    println!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{json}}}}}"
    );
    Ok(())
}

fn ignore_missing(e: std::io::Error) -> std::io::Result<()> {
    if e.kind() == std::io::ErrorKind::NotFound {
        Ok(())
    } else {
        Err(e)
    }
}

fn main() -> ExitCode {
    let cfg = match parse_args() {
        Ok(c) => c,
        Err(e) => {
            eprintln!("pathdump_benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    match run(&cfg) {
        // The result line says whether the outputs were correct; the exit
        // code says whether the benchmark itself ran.
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("pathdump_benchmark: {e}");
            ExitCode::FAILURE
        }
    }
}
