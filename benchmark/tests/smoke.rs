//! Runs the benchmark binary on tiny inputs (`--quick`) and checks what it
//! prints against `BENCHMARK.json`: the same workload and metric names, the
//! same counts from the same seed, correct outputs on two seeds.

use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;
use std::process::Command;

fn repo_root() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("benchmark/ sits in the repository root")
        .to_path_buf()
}

/// The `"name"` values inside the array called `section` of BENCHMARK.json
/// (the file is flat enough that no JSON parser is needed).
fn names(json: &str, section: &str) -> BTreeSet<String> {
    let key = format!("\"{section}\"");
    let at = json
        .find(&key)
        .unwrap_or_else(|| panic!("no {section} in BENCHMARK.json"));
    let body = &json[at..];
    let body = &body[body.find('[').expect("section is an array")..];
    let body = &body[..body.find(']').expect("array closes")];
    body.split("\"name\"")
        .skip(1)
        .map(|rest| {
            let rest = &rest[rest.find(':').expect("name has a value") + 1..];
            let rest = &rest[rest.find('"').expect("name is a string") + 1..];
            rest[..rest.find('"').expect("string closes")].to_string()
        })
        .collect()
}

struct Run {
    /// `metric <name> <value> <unit>` lines.
    metrics: BTreeMap<String, (String, String)>,
    /// The last line of standard output.
    result: String,
}

/// Three rounds exactly: the measured phase runs at least three, and stops
/// at the first check after this many seconds.
const SECONDS: &str = "0.0001";

fn run(workload: &str, seed: u64, trace: u8) -> Run {
    let out = Command::new(env!("CARGO_BIN_EXE_pathdump_benchmark"))
        .current_dir(repo_root())
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args([
            "--seconds",
            SECONDS,
            "--trace",
            &trace.to_string(),
            "--quick",
        ])
        .output()
        .expect("benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    assert!(
        out.status.success(),
        "{workload} seed {seed} trace {trace} exited with {:?}\n{stdout}\n{}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout.contains("QUICK (not for reporting)"), "{stdout}");
    let metrics = stdout
        .lines()
        .filter_map(|l| l.strip_prefix("metric "))
        .map(|l| {
            let f: Vec<&str> = l.split(' ').collect();
            assert_eq!(f.len(), 3, "metric line has name, value, unit: {l}");
            (f[0].to_string(), (f[1].to_string(), f[2].to_string()))
        })
        .collect();
    let result = stdout.lines().last().expect("a result line").to_string();
    Run { metrics, result }
}

fn assert_passed(r: &Run, what: &str) {
    assert!(
        r.result.starts_with("{\"correct\": true, ") && r.result.contains("\"failed\": 0, "),
        "{what}: {}",
        r.result
    );
}

/// Metrics that count instead of timing: the same seed must print the
/// same value, digit for digit.
const COUNTS: &[&str] = &[
    "bytes_per_op",
    "dpswitch.drop_share",
    "memory.live_records",
    "cherrypick.cache_hit_share",
    "agent.records_per_pkt",
    "agent.recon_failures",
    "store.segment_bytes_per_record",
    "store.cold_reloads",
    "store.read_failures",
    "wal.bytes_per_record",
    "wal.errors",
    "wire.response_bytes",
    "rpc.frames_per_query",
    "rpc.bytes_per_query",
    "rpc.virtual_elapsed_ms",
    "rpc.queued_wait_ms",
    "rpc.retries_per_query",
    "rpc.hedges_per_query",
    "rpc.cache_replies_per_query",
];

#[test]
fn quick_runs_match_benchmark_json() {
    let json = std::fs::read_to_string(repo_root().join("BENCHMARK.json")).expect("BENCHMARK.json");
    let workloads = names(&json, "workloads");
    let end_to_end = names(&json, "end_to_end");
    let per_layer = names(&json, "per_layer");
    assert_eq!(workloads.len(), 4, "{workloads:?}");
    for name in workloads.iter().chain(&end_to_end).chain(&per_layer) {
        assert!(
            name.len() <= 64
                && name.starts_with(|c: char| c.is_ascii_alphanumeric())
                && name
                    .chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
            "name {name:?} breaks the naming rule"
        );
    }
    assert!(end_to_end.contains("setup_s"));
    assert!(end_to_end.is_disjoint(&per_layer) && end_to_end.is_disjoint(&workloads));

    for w in &workloads {
        for (trace, expected) in [(0, &end_to_end), (1, &per_layer)] {
            let a = run(w, 1, trace);
            let b = run(w, 1, trace);
            assert_passed(&a, w);
            assert_passed(&b, w);
            let printed: BTreeSet<String> = a.metrics.keys().cloned().collect();
            assert_eq!(
                &printed, expected,
                "{w} --trace {trace} prints another set of metrics"
            );
            for (name, (value, unit)) in &a.metrics {
                assert!(
                    value.parse::<f64>().is_ok_and(f64::is_finite),
                    "{w} {name} = {value}"
                );
                assert!(
                    json.contains(&format!("\"name\": \"{name}\", \"unit\": \"{unit}\"")),
                    "{w} prints {name} in {unit}, BENCHMARK.json has another unit"
                );
                // The result line carries the same value.
                assert!(
                    a.result.contains(&format!(
                        "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
                    )),
                    "{w}: {name} is missing from the result line"
                );
                if COUNTS.contains(&name.as_str()) {
                    assert_eq!(
                        value, &b.metrics[name].0,
                        "{w} {name} differs between two runs of seed 1"
                    );
                }
            }
            let counts = |r: &Run| {
                r.result[..r.result.find("\"metrics\"").expect("metrics key")].to_string()
            };
            assert_eq!(
                counts(&a),
                counts(&b),
                "{w}: attempted/failed differ between two runs of seed 1"
            );
        }
        assert_passed(&run(w, 2, 0), &format!("{w} seed 2"));
    }
}

#[test]
fn bad_arguments_are_refused() {
    for args in [
        &["--workload", "nope"][..],
        &["--workload", "strip_64", "--trace", "2"],
        &["--workload", "strip_64", "--frobnicate"],
        &[],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_pathdump_benchmark"))
            .current_dir(repo_root())
            .args(args)
            .output()
            .expect("benchmark binary runs");
        assert!(!out.status.success(), "{args:?} was accepted");
        assert!(out.stdout.is_empty(), "{args:?} printed a result");
    }
}
