//! Load-imbalance diagnosis (§2.3, §4.2, Figures 5 and 6).
//!
//! Two mechanisms are diagnosed: ECMP whose "poor hash function always
//! creates collisions among large flows" (flows > 1 MB all land on one
//! link), and per-packet spraying that is deliberately biased toward one
//! path. In both cases the evidence comes from TIB queries alone: the
//! flow-size distribution per egress link (multi-level query across all
//! hosts) and the per-path byte counts of a sprayed flow at its
//! destination TIB.

use pathdump_core::{PathDumpWorld, Query, Response};
use pathdump_rpc::execute;
use pathdump_topology::{FlowId, HostId, LinkDir, LinkPattern, Path, TimeRange};

/// The imbalance-rate metric of §4.2: `λ = (Lmax / L̄ − 1) × 100 (%)`
/// where `Lmax` is the maximum load on any link and `L̄` the mean.
pub fn imbalance_rate(loads: &[u64]) -> f64 {
    if loads.is_empty() {
        return 0.0;
    }
    let max = *loads.iter().max().expect("non-empty") as f64;
    let mean = loads.iter().sum::<u64>() as f64 / loads.len() as f64;
    if mean == 0.0 {
        0.0
    } else {
        (max / mean - 1.0) * 100.0
    }
}

/// One link's flow-size histogram (the §2.3 query result).
#[derive(Clone, Debug, PartialEq)]
pub struct LinkFlowSizeDist {
    /// The link queried.
    pub link: LinkDir,
    /// Bin width in bytes.
    pub bin_bytes: u64,
    /// (bin index, flow count), ascending.
    pub bins: Vec<(u64, u64)>,
}

impl LinkFlowSizeDist {
    /// Total flows observed on the link.
    pub fn total_flows(&self) -> u64 {
        self.bins.iter().map(|(_, c)| c).sum()
    }

    /// Flows whose size is at least `bytes`.
    pub fn flows_at_least(&self, bytes: u64) -> u64 {
        let bin = bytes / self.bin_bytes;
        self.bins
            .iter()
            .filter(|(b, _)| *b >= bin)
            .map(|(_, c)| c)
            .sum()
    }

    /// Empirical CDF points as (bytes, cumulative fraction).
    pub fn cdf(&self) -> Vec<(u64, f64)> {
        let total = self.total_flows() as f64;
        let mut cum = 0u64;
        self.bins
            .iter()
            .map(|(b, c)| {
                cum += c;
                ((b + 1) * self.bin_bytes, cum as f64 / total.max(1.0))
            })
            .collect()
    }
}

/// Runs the §2.3 load-imbalance query: the flow-size distribution on each
/// of the given egress links, aggregated across every host's TIB (the
/// multi-level query of the paper; result identical to direct execution).
pub fn flow_size_distributions(
    world: &mut PathDumpWorld,
    hosts: &[HostId],
    links: &[LinkDir],
    range: TimeRange,
    bin_bytes: u64,
) -> Vec<LinkFlowSizeDist> {
    links
        .iter()
        .map(|&link| {
            let q = Query::FlowSizeDist {
                link: LinkPattern::exact(link.from, link.to),
                range,
                bin_bytes,
            };
            let resp = execute(world, hosts, &q, false).response;
            let Response::Hist { bin_bytes, bins } = resp else {
                unreachable!("FlowSizeDist returns Hist");
            };
            LinkFlowSizeDist {
                link,
                bin_bytes,
                bins,
            }
        })
        .collect()
}

/// Per-path byte counts of one flow at its destination TIB — the Figure 6
/// spraying diagnosis ("per-path statistics of the flow obtained from the
/// destination TIB").
pub fn per_path_bytes(
    world: &mut PathDumpWorld,
    flow: FlowId,
    range: TimeRange,
) -> Vec<(Path, u64)> {
    let Some(dst) = world.fabric.topology().host_by_ip(flow.dst_ip) else {
        return Vec::new();
    };
    let q = Query::GetPaths {
        flow,
        link: LinkPattern::ANY,
        range,
    };
    let resp = execute(world, &[dst], &q, true).response;
    let Response::Paths(paths) = resp else {
        unreachable!("GetPaths returns Paths");
    };
    paths
        .into_iter()
        .map(|p| {
            let q = Query::GetCount {
                flow,
                path: Some(p.clone()),
                range,
            };
            let resp = execute(world, &[dst], &q, true).response;
            let Response::Count { bytes, .. } = resp else {
                unreachable!("GetCount returns Count");
            };
            (p, bytes)
        })
        .collect()
}

/// Verdict on a sprayed flow's balance: max/min byte ratio across paths.
pub fn spray_skew(per_path: &[(Path, u64)]) -> f64 {
    let max = per_path.iter().map(|(_, b)| *b).max().unwrap_or(0) as f64;
    let min = per_path.iter().map(|(_, b)| *b).min().unwrap_or(0).max(1) as f64;
    max / min
}

/// A sampled time series of imbalance rates between a set of links,
/// computed from periodic samples of ground-truth link byte counters
/// (Figure 5(b) is presented "as reference" — it uses switch counters, not
/// PathDump).
#[derive(Clone, Debug, Default)]
pub struct ImbalanceSeries {
    prev: Vec<u64>,
    /// One imbalance rate per completed window.
    pub rates: Vec<f64>,
}

impl ImbalanceSeries {
    /// Creates a series over `n` links.
    pub fn new(n: usize) -> Self {
        ImbalanceSeries {
            prev: vec![0; n],
            rates: Vec::new(),
        }
    }

    /// Feeds the current cumulative byte counters (one per link); computes
    /// the per-window rate from the deltas.
    pub fn sample(&mut self, cumulative: &[u64]) {
        assert_eq!(cumulative.len(), self.prev.len());
        let deltas: Vec<u64> = cumulative
            .iter()
            .zip(&self.prev)
            .map(|(c, p)| c.saturating_sub(*p))
            .collect();
        self.prev.copy_from_slice(cumulative);
        self.rates.push(imbalance_rate(&deltas));
    }

    /// Fraction of windows with rate at least `threshold` (the paper's
    /// "during about 80% of the time, the imbalance rate is 40% or
    /// higher").
    pub fn fraction_at_least(&self, threshold: f64) -> f64 {
        if self.rates.is_empty() {
            return 0.0;
        }
        self.rates.iter().filter(|r| **r >= threshold).count() as f64 / self.rates.len() as f64
    }
}

/// CDF over a slice of f64 samples: returns sorted (value, fraction).
pub fn cdf_points(samples: &[f64]) -> Vec<(f64, f64)> {
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("no NaN"));
    let n = sorted.len() as f64;
    sorted
        .into_iter()
        .enumerate()
        .map(|(i, v)| (v, (i + 1) as f64 / n))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scenarios::Testbed;
    use pathdump_simnet::{LoadBalance, Quirk};
    use pathdump_topology::Nanos;

    #[test]
    fn imbalance_rate_math() {
        assert_eq!(imbalance_rate(&[100, 100]), 0.0);
        // Lmax=150, mean=100 -> 50%.
        assert!((imbalance_rate(&[150, 50]) - 50.0).abs() < 1e-9);
        assert_eq!(imbalance_rate(&[]), 0.0);
        assert_eq!(imbalance_rate(&[0, 0]), 0.0);
    }

    #[test]
    fn series_windows() {
        let mut s = ImbalanceSeries::new(2);
        s.sample(&[100, 100]); // window 1: 100/100 -> 0%
        s.sample(&[300, 100]); // window 2: deltas 200/0 -> 100%
        assert_eq!(s.rates.len(), 2);
        assert!((s.rates[0] - 0.0).abs() < 1e-9);
        assert!((s.rates[1] - 100.0).abs() < 1e-9);
        assert!((s.fraction_at_least(50.0) - 0.5).abs() < 1e-9);
    }

    #[test]
    fn cdf_points_sorted() {
        let pts = cdf_points(&[3.0, 1.0, 2.0]);
        assert_eq!(pts[0].0, 1.0);
        assert!((pts[2].1 - 1.0).abs() < 1e-9);
    }

    /// Small-scale Figure 5: the size-based ECMP quirk splits flows at the
    /// 100 KB boundary; the per-link flow-size distributions recovered from
    /// the TIBs must be sharply divided at that boundary.
    #[test]
    fn ecmp_size_split_visible_in_fsd() {
        let mut tb = Testbed::default_k4();
        let sagg = tb.ft.tor(0, 0); // split at the source ToR's uplinks
        let link1 = LinkDir::new(sagg, tb.ft.agg(0, 0)); // big flows
        let link2 = LinkDir::new(sagg, tb.ft.agg(0, 1)); // small flows
        tb.sim.install_quirk(
            sagg,
            Quirk::SizeBasedSplit {
                threshold: 100_000,
                big_port: tb.sim.link_port(sagg, tb.ft.agg(0, 0)),
                small_port: tb.sim.link_port(sagg, tb.ft.agg(0, 1)),
            },
        );
        // Flows from rack (0,0) to pod 1: sizes straddling the threshold.
        for (i, &size) in [20_000u64, 50_000, 80_000, 150_000, 300_000, 500_000]
            .iter()
            .enumerate()
        {
            let src = tb.ft.host(0, 0, i % 2);
            let dst = tb.ft.host(1, i % 2, i / 3);
            tb.add_flow(src, dst, 6000 + i as u16, size, Nanos::ZERO);
        }
        tb.run_and_flush(Nanos::from_secs(60));
        assert!(tb.sim.world.tcp.all_complete());
        let hosts: Vec<HostId> = (0..16).map(HostId).collect();
        let dists = flow_size_distributions(
            &mut tb.sim.world,
            &hosts,
            &[link1, link2],
            TimeRange::ANY,
            10_000,
        );
        let (big, small) = (&dists[0], &dists[1]);
        assert_eq!(big.total_flows(), 3, "three large flows on link 1");
        assert_eq!(small.total_flows(), 3, "three small flows on link 2");
        // Sharp division: everything on link1 >= 100KB, on link2 < 100KB.
        assert_eq!(big.flows_at_least(100_000), 3);
        assert_eq!(small.flows_at_least(100_000), 0);
    }

    /// Small-scale Figure 6: biased spraying shows up in per-path byte
    /// counts from the destination TIB.
    #[test]
    fn spraying_bias_visible_per_path() {
        let mut tb = Testbed::default_k4();
        tb.sim.set_lb_all(LoadBalance::Spray);
        // Bias the source ToR 4:1 toward agg 0.
        tb.sim
            .set_lb(tb.ft.tor(0, 0), LoadBalance::WeightedSpray(vec![4, 1]));
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(2, 0, 0));
        let flow = tb.flow(src, dst, 6100);
        tb.add_flow(src, dst, 6100, 2_000_000, Nanos::ZERO);
        tb.run_and_flush(Nanos::from_secs(60));
        let per_path = per_path_bytes(&mut tb.sim.world, flow, TimeRange::ANY);
        assert_eq!(per_path.len(), 4, "spraying uses all 4 paths");
        let skew = spray_skew(&per_path);
        assert!(
            skew > 2.0,
            "4:1 ToR bias must be visible in per-path bytes (skew {skew:.2})"
        );
        // The heavy paths are the ones through agg(0,0).
        let via0: u64 = per_path
            .iter()
            .filter(|(p, _)| p.contains(tb.ft.agg(0, 0)))
            .map(|(_, b)| b)
            .sum();
        let via1: u64 = per_path
            .iter()
            .filter(|(p, _)| p.contains(tb.ft.agg(0, 1)))
            .map(|(_, b)| b)
            .sum();
        assert!(via0 > 2 * via1);
    }

    /// Balanced spraying: per-path counts are roughly even.
    #[test]
    fn balanced_spraying_is_even() {
        let mut tb = Testbed::default_k4();
        tb.sim.set_lb_all(LoadBalance::Spray);
        let (src, dst) = (tb.ft.host(0, 0, 0), tb.ft.host(2, 0, 0));
        let flow = tb.flow(src, dst, 6200);
        tb.add_flow(src, dst, 6200, 2_000_000, Nanos::ZERO);
        tb.run_and_flush(Nanos::from_secs(60));
        let per_path = per_path_bytes(&mut tb.sim.world, flow, TimeRange::ANY);
        assert_eq!(per_path.len(), 4);
        assert!(
            spray_skew(&per_path) < 1.6,
            "uniform spraying stays near-even"
        );
    }
}
