//! Shared harness utilities for the table/figure reproduction binaries,
//! the Criterion micro-benchmarks and the bench gates.
//!
//! Every `fig*`, `table2` and `overheads` binary in `src/bin/` regenerates
//! one table or figure of the paper (the file name says which) and prints
//! the same rows/series the paper reports, plus a `paper:` reference line
//! with the paper's own number; those that take flags read them with
//! [`Args::parse`].
//!
//! `bench_gate` holds eight measured metrics to the bounds it states,
//! running the criterion benches through [`report`]. Its in-process
//! workloads are the k = 8 simulator ([`simnet_scale`]), the trajectory
//! memory's FIN cost ([`memory_scale`]) and the tiered store
//! ([`tib_scale`], also behind the blocking `tib_scale` bin). The host
//! agent's per-packet cost is measured end to end by the `ingest_steady`
//! workload of the repository's `benchmark/` package.

use pathdump_core::{Query, Response};
use pathdump_rpc::{Channel, Loopback, Measured, PlaneStats, QueryOutcome, RpcConfig, TreePlane};
use pathdump_tib::{Tib, TibRead, TibRecord};
use pathdump_topology::{FatTree, FatTreeParams, FlowId, HostId, Nanos, TimeRange, UpDownRouting};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

pub mod memory_scale;
pub mod report;
pub mod simnet_scale;
pub mod tib_scale;

/// Minimal CLI flags shared by the reproduction binaries.
#[derive(Clone, Debug)]
pub struct Args {
    /// Run at full paper scale (slower).
    pub full: bool,
    /// Number of repeated runs for averaged experiments.
    pub runs: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// Wall-clock budget in seconds (0 = unlimited): bins that honor it
    /// exit nonzero when the measured run exceeds the budget, so CI can
    /// make scale smokes blocking.
    pub max_secs: f64,
}

impl Args {
    /// Parses `--full`, `--runs N`, `--seed N`, `--max-secs S` from
    /// `std::env::args`. Any other flag, or a value that does not parse,
    /// exits 2 naming it: a scale gate run with a mistyped `--max-secs`
    /// would otherwise run with no budget and pass.
    pub fn parse() -> Args {
        Args::parse_from(std::env::args().skip(1)).unwrap_or_else(|e| exit_usage(&e))
    }

    /// [`Args::parse`] over the flags after the program name.
    pub fn parse_from(flags: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut args = Args {
            full: false,
            runs: 0, // 0 = binary default
            seed: 1,
            max_secs: 0.0,
        };
        let mut it = flags.into_iter();
        while let Some(a) = it.next() {
            match a.as_str() {
                "--full" => args.full = true,
                "--runs" => args.runs = flag_value("--runs", &mut it)?,
                "--seed" => args.seed = flag_value("--seed", &mut it)?,
                "--max-secs" => args.max_secs = flag_value("--max-secs", &mut it)?,
                other => return Err(format!("unknown flag {other}")),
            }
        }
        Ok(args)
    }
}

/// For a bin that takes no flags: any argument exits 2 naming it, as an
/// unknown flag does in [`Args::parse`], so that a `--seed 2` is not run
/// with the built-in values.
pub fn reject_args() {
    if let Some(a) = std::env::args().nth(1) {
        exit_usage(&format!("unknown flag {a}"));
    }
}

/// The value that follows `flag` in `it`, parsed; the error names the flag
/// when the value is missing or does not parse.
pub fn flag_value<T: std::str::FromStr>(
    flag: &str,
    it: &mut impl Iterator<Item = String>,
) -> Result<T, String> {
    let v = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
    v.parse().map_err(|_| format!("{flag}: cannot parse `{v}`"))
}

/// Prints a command-line error and exits 2, the status of a usage error.
pub fn exit_usage(err: &str) -> ! {
    eprintln!("error: {err}");
    std::process::exit(2)
}

/// Prints a header block for a figure/table reproduction.
pub fn banner(id: &str, title: &str, paper: &str) {
    println!("==============================================================");
    println!("{id}: {title}");
    println!("paper: {paper}");
    println!("==============================================================");
}

/// Prints one aligned table row.
pub fn row(cells: &[String]) {
    let line = cells
        .iter()
        .map(|c| format!("{c:>14}"))
        .collect::<Vec<_>>()
        .join("  ");
    println!("{line}");
}

/// Formats a byte count with units.
pub fn fmt_bytes(b: u64) -> String {
    if b >= 10_000_000 {
        format!("{:.1}MB", b as f64 / 1e6)
    } else if b >= 10_000 {
        format!("{:.1}KB", b as f64 / 1e3)
    } else {
        format!("{b}B")
    }
}

/// Builds a synthetic per-host TIB with `n` records whose paths are real
/// shortest paths of `ft` — the Figure 11/12 population ("each TIB has
/// 240K flow entries, roughly an hour of flows at a server").
pub fn synth_tib(ft: &FatTree, host: HostId, n: usize, seed: u64) -> Tib {
    let mut rng = SmallRng::seed_from_u64(seed ^ (host.0 as u64) << 17);
    let topo = ft.topology();
    let num_hosts = topo.num_hosts() as u32;
    let mut tib = Tib::new();
    let hour = Nanos::from_secs(3600);
    for i in 0..n {
        let src = loop {
            let c = HostId(rng.gen_range(0..num_hosts));
            if c != host {
                break c;
            }
        };
        let paths = ft.all_paths(src, host);
        let path = paths[rng.gen_range(0..paths.len())].clone();
        let flow = FlowId::tcp(
            topo.host(src).ip,
            1024 + (i % 60000) as u16,
            topo.host(host).ip,
            80,
        );
        // Heavy-tailed sizes: mice with an elephant tail.
        let bytes: u64 = if rng.gen::<f64>() < 0.9 {
            rng.gen_range(200..100_000)
        } else {
            rng.gen_range(100_000..30_000_000)
        };
        let start = Nanos(rng.gen_range(0..hour.0));
        let dur = Nanos(rng.gen_range(1_000_000..10_000_000_000));
        tib.insert(TibRecord {
            flow,
            path,
            stime: start,
            etime: start.saturating_add(dur),
            bytes,
            pkts: bytes / 1460 + 1,
        });
    }
    tib
}

/// The top-k reply `wire_codec` encodes and decodes, and whose bytes
/// `bench_gate` divides its codec time by: host 0's top 10 000 flows of a
/// 10 000-record synthetic store on a k = 8 fat tree, one leaf's Figure 12
/// answer.
pub fn codec_topk_reply() -> Response {
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let tib = synth_tib(&ft, HostId(0), 10_000, 1);
    Response::TopK {
        k: 10_000,
        entries: tib.top_k_flows(10_000, TimeRange::ANY),
    }
}

/// Figures 11/12: `q` over hosts `0..n` for each `n` in `sizes`, direct
/// (every host a root) and down the `[7, 4, 4]` tree, on the lossless rpc
/// plane with measured compute; each outcome with the bytes it sent.
/// Panics unless both answers are complete and equal and the plane stayed
/// quiet — `rto` is far above a 24 K-record leaf's top-k + ≈ 45 KB reply,
/// and one cached reply per agent bounds memory.
pub fn direct_and_tree(
    tibs: Vec<Tib>,
    q: &Query,
    sizes: &[usize],
) -> Vec<[(QueryOutcome, u64); 2]> {
    let cfg = RpcConfig {
        rto: Nanos::from_secs(1),
        deadline: Nanos::from_secs(10),
        max_children_inflight: tibs.len(),
        reply_cache_cap: 1,
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::with_compute(Loopback::default(), cfg, tibs, Measured);
    let mut run = |hosts: &[usize], fanouts: &[usize]| {
        let before = plane.channel().bytes_sent();
        let id = plane.submit(q, hosts, fanouts);
        let out = plane.run(id).expect("deadlines guarantee completion");
        assert!(out.coverage.is_complete(), "{:?}", out.coverage);
        assert_eq!(
            plane.stats(),
            PlaneStats::default(),
            "a lossless run is quiet"
        );
        (out, plane.channel().bytes_sent() - before)
    };
    let mut pairs = Vec::new();
    for &n in sizes {
        let hosts: Vec<usize> = (0..n).collect();
        let pair = [run(&hosts, &[n]), run(&hosts, &[7, 4, 4])];
        assert_eq!(
            pair[0].0.response, pair[1].0.response,
            "mechanisms must agree"
        );
        pairs.push(pair);
    }
    pairs
}

/// Mean over a slice.
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Standard error of the mean (the Figure 8 error bars: `σ/√n`).
pub fn stderr(xs: &[f64]) -> f64 {
    if xs.len() < 2 {
        return 0.0;
    }
    let m = mean(xs);
    let var = xs.iter().map(|x| (x - m).powi(2)).sum::<f64>() / (xs.len() - 1) as f64;
    (var / xs.len() as f64).sqrt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_tib::TibRead;
    use pathdump_topology::FatTreeParams;

    #[test]
    fn synth_tib_is_valid_and_deterministic() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let a = synth_tib(&ft, HostId(3), 500, 42);
        let b = synth_tib(&ft, HostId(3), 500, 42);
        assert_eq!(a.len(), 500);
        assert_eq!(a.records_vec(), b.records_vec());
        for rec in a.records_vec() {
            assert_eq!(rec.path.last(), Some(ft.topology().host(HostId(3)).tor));
            assert!(rec.bytes > 0);
        }
        let c = synth_tib(&ft, HostId(4), 500, 42);
        assert_ne!(a.records_vec(), c.records_vec(), "per-host variation");
    }

    #[test]
    fn args_reject_unknown_flags_and_bad_values() {
        let parse = |flags: &[&str]| Args::parse_from(flags.iter().map(|f| f.to_string()));
        let a = parse(&["--full", "--runs", "3", "--seed", "7", "--max-secs", "120"]).unwrap();
        assert!(a.full);
        assert_eq!((a.runs, a.seed, a.max_secs), (3, 7, 120.0));
        let d = parse(&[]).unwrap();
        assert_eq!((d.full, d.runs, d.seed, d.max_secs), (false, 0, 1, 0.0));
        // A typo of CI's `--max-secs 120` must not run with no budget.
        assert_eq!(
            parse(&["--max-sec", "120"]).unwrap_err(),
            "unknown flag --max-sec"
        );
        assert_eq!(
            parse(&["--max-secs", "abc"]).unwrap_err(),
            "--max-secs: cannot parse `abc`"
        );
        assert_eq!(parse(&["--runs"]).unwrap_err(), "--runs needs a value");
        assert_eq!(
            parse(&["--seed", "-1"]).unwrap_err(),
            "--seed: cannot parse `-1`"
        );
    }

    #[test]
    fn stats_helpers() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
        assert_eq!(mean(&[]), 0.0);
        assert!(stderr(&[5.0]) == 0.0);
        let se = stderr(&[1.0, 2.0, 3.0, 4.0]);
        assert!(se > 0.6 && se < 0.7, "{se}");
    }

    #[test]
    fn byte_formatting() {
        assert_eq!(fmt_bytes(500), "500B");
        assert_eq!(fmt_bytes(50_000), "50.0KB");
        assert_eq!(fmt_bytes(15_000_000), "15.0MB");
    }
}
