//! Shared bench-report plumbing: running a criterion bench target through
//! nested cargo and parsing the vendored harness's output into medians,
//! and the codec-over-CRC ratio `bench_gate` bounds.

use std::process::Command;

/// One parsed benchmark result.
pub struct Entry {
    /// Full case name (e.g. `tib_240k/top_k_10000`).
    pub name: String,
    pub median_ns: f64,
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
pub fn run_cargo_bench(bench: &str) -> Result<Vec<Entry>, String> {
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
        if let Some((name, median_ns, _)) = parse_line(line) {
            entries.push(Entry { name, median_ns });
        }
    }
    Ok(entries)
}

/// The median of case `name`, if the run has it.
pub fn median_of(entries: &[Entry], name: &str) -> Option<f64> {
    entries.iter().find(|e| e.name == name).map(|e| e.median_ns)
}

/// Bytes the `wire/crc32_160k` case checksums.
pub const CRC_CASE_BYTES: usize = 160 * 1024;

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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn codec_over_crc_is_per_byte() {
        let entry = |name: &str, median_ns: f64| Entry {
            name: name.to_string(),
            median_ns,
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
}
