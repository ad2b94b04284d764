//! Shared bench-report plumbing: parsing the vendored criterion harness's
//! output, re-reading the committed `BENCH_tib.json` baseline, and the
//! pure comparison logic behind the `bench_gate` CI job. `bench_trajectory`
//! (writes the report) and `bench_gate` (enforces it) both build on this,
//! so the two bins cannot drift on formats.

use std::process::Command;

/// One parsed benchmark result.
pub struct Entry {
    /// The criterion bench target it came from (e.g. `tib_queries`).
    pub bench: &'static str,
    /// Full case name (e.g. `tib_240k/top_k_10000`).
    pub name: String,
    pub median_ns: f64,
    pub samples: u64,
}

/// Parses the vendored criterion's Duration debug format ("421ns",
/// "315.789µs", "36.678929ms", "1.2s") into nanoseconds.
pub fn parse_duration_ns(s: &str) -> Option<f64> {
    // Order matters: try the longest suffixes first ("ms" before "s",
    // "ns"/"µs"/"us" before "s").
    for (suffix, scale) in [
        ("ns", 1.0),
        ("µs", 1e3),
        ("us", 1e3),
        ("ms", 1e6),
        ("s", 1e9),
    ] {
        if let Some(num) = s.strip_suffix(suffix) {
            return num.parse::<f64>().ok().map(|v| v * scale);
        }
    }
    None
}

/// Parses one harness output line: `group/name: median 1.23ms over 20
/// samples (...)`. Returns (full benchmark name, median ns, samples).
pub fn parse_line(line: &str) -> Option<(String, f64, u64)> {
    let (name, rest) = line.split_once(": median ")?;
    let mut words = rest.split_whitespace();
    let median_ns = parse_duration_ns(words.next()?)?;
    if words.next()? != "over" {
        return None;
    }
    let samples: u64 = words.next()?.parse().ok()?;
    Some((name.trim().to_string(), median_ns, samples))
}

/// Runs one criterion bench target via nested cargo and parses its
/// medians. Errors carry the bench name and the failure detail.
pub fn run_cargo_bench(bench: &'static str) -> Result<Vec<Entry>, String> {
    let result = Command::new(env!("CARGO"))
        .args(["bench", "-p", "pathdump_bench", "--bench", bench])
        .output();
    let output = match result {
        Ok(o) if o.status.success() => o,
        Ok(o) => {
            return Err(format!(
                "bench {bench} failed with {}:\n{}",
                o.status,
                String::from_utf8_lossy(&o.stderr)
            ))
        }
        Err(e) => return Err(format!("could not spawn cargo for {bench}: {e}")),
    };
    let mut entries = Vec::new();
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        if let Some((name, median_ns, samples)) = parse_line(line) {
            entries.push(Entry {
                bench,
                name,
                median_ns,
                samples,
            });
        }
    }
    Ok(entries)
}

pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}

pub fn median_of(entries: &[Entry], name: &str) -> Option<f64> {
    entries.iter().find(|e| e.name == name).map(|e| e.median_ns)
}

// ---------------------------------------------------------------------------
// Baseline (committed BENCH_tib.json) extraction.
//
// The report is written by `bench_trajectory` in a fixed shape; these
// helpers scan for `"key": value` pairs rather than pulling in a JSON
// parser (the workspace is offline — no serde_json).
// ---------------------------------------------------------------------------

/// Parses the number following the first occurrence of `"key":` after
/// byte offset `from` in `doc`. Returns (value, offset past the match).
fn number_after(doc: &str, key: &str, from: usize) -> Option<(f64, usize)> {
    let needle = format!("\"{key}\":");
    let at = doc[from..].find(&needle)? + from + needle.len();
    let rest = doc[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-' || c == 'e' || c == 'E'))
        .unwrap_or(rest.len());
    rest[..end].parse::<f64>().ok().map(|v| (v, at))
}

/// Bytes the `wire/crc32_160k` case checksums.
pub const CRC_CASE_BYTES: usize = 160 * 1024;

/// Ceiling on `bench_gate`'s median of `--runs` (default 5) readings of
/// [`codec_over_crc`]. On a 2-CPU shared VM, single runs of the top-k codec
/// read 6.7–10.0 and medians of five 8.3–9.0; with an encoder that does its
/// work twice, single runs read 9.4–14.5 and medians of five 12.0–13.2.
pub const CODEC_OVER_CRC_CEILING: f64 = 10.5;

/// The top-k reply codec's time per byte over the CRC's, from one
/// `wire_codec` run: `wire/encode_topk_response` plus
/// `wire/decode_topk_response` over the reply's `reply_bytes`, divided by
/// `wire/crc32_160k` over [`CRC_CASE_BYTES`]. Both come from the same run,
/// so box-speed drift cancels. `None` if a case is missing.
pub fn codec_over_crc(entries: &[Entry], reply_bytes: usize) -> Option<f64> {
    let codec = median_of(entries, "wire/encode_topk_response")?
        + median_of(entries, "wire/decode_topk_response")?;
    let crc = median_of(entries, "wire/crc32_160k")?;
    Some(codec / reply_bytes as f64 / (crc / CRC_CASE_BYTES as f64))
}

/// The `median_ns` recorded for benchmark case `name` in the `benchmarks`
/// array.
pub fn recorded_median_ns(doc: &str, name: &str) -> Option<f64> {
    let anchor = format!("\"name\": \"{}\"", json_escape(name));
    let at = doc.find(&anchor)?;
    number_after(doc, "median_ns", at).map(|(v, _)| v)
}

/// The first `"key": <number>` past `"section":` (earlier sections ignored).
fn section_number(doc: &str, section: &str, key: &str) -> Option<f64> {
    let at = doc.find(&format!("\"{section}\":"))?;
    number_after(doc, key, at).map(|(v, _)| v)
}

/// The `events_per_sec` of the `simnet` section's one k=8 case.
pub fn recorded_simnet_events_per_sec(doc: &str) -> Option<f64> {
    section_number(doc, "simnet", "events_per_sec")
}

/// A number recorded in the `tib_scale` section.
pub fn recorded_tib_scale_number(doc: &str, key: &str) -> Option<f64> {
    section_number(doc, "tib_scale", key)
}

// ---------------------------------------------------------------------------
// The gate comparison (pure, unit-tested; the bench_gate bin feeds it).
// ---------------------------------------------------------------------------

/// Whether a larger value of the metric is an improvement.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Direction {
    HigherIsBetter,
    LowerIsBetter,
}

/// One gated metric: the committed baseline vs the freshly measured value.
#[derive(Clone, Debug)]
pub struct GateCheck {
    pub metric: &'static str,
    pub baseline: f64,
    pub current: f64,
    pub direction: Direction,
    /// Multiplier on the gate tolerance for this metric. `1.0` for
    /// same-run ratios, which are stable under runner speed drift; wider
    /// for absolute timings, whose medians swing up to ~2x between timing
    /// windows on shared/virtualized runners even with no code change.
    pub tolerance_scale: f64,
}

impl GateCheck {
    /// The regression ratio: 1.0 = unchanged, 2.0 = twice as slow (in
    /// either direction convention).
    pub fn regression(&self) -> f64 {
        match self.direction {
            Direction::HigherIsBetter => self.baseline / self.current.max(1e-12),
            Direction::LowerIsBetter => self.current / self.baseline.max(1e-12),
        }
    }

    /// True when the metric regressed by more than `tolerance` scaled by
    /// the check's [`tolerance_scale`](GateCheck::tolerance_scale) (e.g.
    /// `0.30` at scale 1 fails anything more than 30% worse than the
    /// baseline; at scale 4 the band widens to 120%).
    pub fn regressed(&self, tolerance: f64) -> bool {
        self.regression() > 1.0 + tolerance * self.tolerance_scale
    }
}

/// Evaluates all checks at `tolerance`, returning the failing subset.
pub fn failing_checks(checks: &[GateCheck], tolerance: f64) -> Vec<GateCheck> {
    checks
        .iter()
        .filter(|c| c.regressed(tolerance))
        .cloned()
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_over_crc_is_per_byte() {
        let entry = |name: &str, median_ns: f64| Entry {
            bench: "wire_codec",
            name: name.to_string(),
            median_ns,
            samples: 30,
        };
        let mut run = vec![
            entry("wire/encode_topk_response", 30_000.0),
            entry("wire/decode_topk_response", 10_000.0),
        ];
        assert_eq!(codec_over_crc(&run, 40_000), None);
        // 1 ns/B of codec against 0.25 ns/B of CRC.
        run.push(entry("wire/crc32_160k", 0.25 * CRC_CASE_BYTES as f64));
        assert_eq!(codec_over_crc(&run, 40_000), Some(4.0));
    }

    #[test]
    fn duration_parsing() {
        assert_eq!(parse_duration_ns("421ns"), Some(421.0));
        assert_eq!(parse_duration_ns("315.789µs"), Some(315_789.0));
        assert_eq!(parse_duration_ns("36.5ms"), Some(36_500_000.0));
        assert_eq!(parse_duration_ns("1.2s"), Some(1_200_000_000.0));
        assert_eq!(parse_duration_ns("xyz"), None);
    }

    #[test]
    fn line_parsing() {
        let (name, ns, n) =
            parse_line("tib_240k/top_k_10000: median 2.707201ms over 20 samples").unwrap();
        assert_eq!(name, "tib_240k/top_k_10000");
        assert!((ns - 2_707_201.0).abs() < 1.0);
        assert_eq!(n, 20);
        let (_, ns, _) =
            parse_line("wire/encode_10k_records: median 313.347µs over 30 samples (1.003 GiB/s)")
                .unwrap();
        assert!((ns - 313_347.0).abs() < 1.0);
        assert_eq!(parse_line("Finished `bench` profile"), None);
    }

    const DOC: &str = r#"{
  "benchmarks": [
    {"bench": "tib_queries", "name": "tib_240k/get_flows_wildcard_into_tor", "median_ns": 269445, "samples": 20},
    {"bench": "tib_queries", "name": "tib_240k/top_k_10000", "median_ns": 2356684, "samples": 20}
  ],
  "simnet": {
  "k": 8,
  "cpus": 1,
  "events": 499200,
  "wall_ms": 141.657,
  "events_per_sec": 3523996
  }
}"#;

    #[test]
    fn baseline_extraction() {
        assert_eq!(
            recorded_median_ns(DOC, "tib_240k/get_flows_wildcard_into_tor"),
            Some(269445.0)
        );
        assert_eq!(
            recorded_median_ns(DOC, "tib_240k/top_k_10000"),
            Some(2356684.0)
        );
        assert_eq!(recorded_median_ns(DOC, "missing/case"), None);
        assert_eq!(recorded_simnet_events_per_sec(DOC), Some(3523996.0));
        assert_eq!(recorded_simnet_events_per_sec("{}"), None);
    }

    /// The acceptance demonstration: an injected 2× slowdown must trip the
    /// 30% gate on every gated metric, while the baseline itself passes.
    #[test]
    fn gate_flags_2x_slowdown_and_passes_baseline() {
        let mk = |current, baseline, direction| GateCheck {
            metric: "m",
            baseline,
            current,
            direction,
            tolerance_scale: 1.0,
        };
        // Unchanged measurements pass.
        assert!(!mk(4975404.0, 4975404.0, Direction::HigherIsBetter).regressed(0.30));
        assert!(!mk(269445.0, 269445.0, Direction::LowerIsBetter).regressed(0.30));
        // Jitter inside the 30% band (regression ratio ≤ 1.30) passes.
        assert!(!mk(4975404.0 * 0.80, 4975404.0, Direction::HigherIsBetter).regressed(0.30));
        assert!(!mk(269445.0 * 1.28, 269445.0, Direction::LowerIsBetter).regressed(0.30));
        // Just past the band fails.
        assert!(mk(4975404.0 * 0.75, 4975404.0, Direction::HigherIsBetter).regressed(0.30));
        assert!(mk(269445.0 * 1.35, 269445.0, Direction::LowerIsBetter).regressed(0.30));
        // A 2× slowdown fails in both direction conventions.
        assert!(mk(4975404.0 / 2.0, 4975404.0, Direction::HigherIsBetter).regressed(0.30));
        assert!(mk(269445.0 * 2.0, 269445.0, Direction::LowerIsBetter).regressed(0.30));
        // Improvements never fail.
        assert!(!mk(4975404.0 * 2.0, 4975404.0, Direction::HigherIsBetter).regressed(0.30));
        assert!(!mk(269445.0 / 2.0, 269445.0, Direction::LowerIsBetter).regressed(0.30));
        // failing_checks surfaces exactly the tripped metrics.
        let checks = vec![
            mk(100.0, 100.0, Direction::HigherIsBetter),
            mk(50.0, 100.0, Direction::HigherIsBetter),
        ];
        let bad = failing_checks(&checks, 0.30);
        assert_eq!(bad.len(), 1);
        assert!((bad[0].regression() - 2.0).abs() < 1e-9);
        // A widened drift band absorbs a 2x swing but still trips on 2.5x.
        let drifty = |current| GateCheck {
            metric: "abs",
            baseline: 100.0,
            current,
            direction: Direction::LowerIsBetter,
            tolerance_scale: 4.0,
        };
        assert!(!drifty(200.0).regressed(0.30));
        assert!(drifty(250.0).regressed(0.30));
    }
}
