//! Workload generation: the web traffic model of the paper's experiments.
//!
//! §4.2/§4.3 generate traffic "based on the web traffic model in \[10\]"
//! (pFabric's web-search workload, itself from production datacenter
//! measurements): a heavy-tailed flow-size distribution where most flows
//! are mice but most *bytes* live in elephant flows, with Poisson flow
//! arrivals tuned to a target fractional load of the edge links.

use crate::tcp::FlowSpec;
use pathdump_topology::{FlowId, HostId, Ip, Nanos, SECONDS};
use rand::Rng;

/// Piecewise-linear CDF of flow sizes (bytes, cumulative probability).
///
/// Breakpoints follow the widely used web-search workload shape: ~50% of
/// flows under 35 KB, ~95% under 1.3 MB, a 20 MB elephant tail carrying
/// roughly half the bytes.
pub const WEB_SEARCH_CDF: &[(u64, f64)] = &[
    (1_000, 0.0),
    (6_000, 0.15),
    (13_000, 0.30),
    (19_000, 0.45),
    (33_000, 0.60),
    (53_000, 0.70),
    (133_000, 0.80),
    (667_000, 0.90),
    (1_300_000, 0.95),
    (6_700_000, 0.98),
    (20_000_000, 1.0),
];

/// Samples one flow size from a piecewise-linear CDF.
///
/// # Panics
///
/// Panics if the CDF is empty or not monotone.
pub fn sample_size<R: Rng + ?Sized>(cdf: &[(u64, f64)], rng: &mut R) -> u64 {
    assert!(!cdf.is_empty(), "empty CDF");
    let u: f64 = rng.gen();
    let mut prev = cdf[0];
    for &(bytes, p) in cdf {
        if u <= p {
            let (b0, p0) = prev;
            if p <= p0 {
                return bytes;
            }
            let frac = (u - p0) / (p - p0);
            return b0 + ((bytes - b0) as f64 * frac) as u64;
        }
        prev = (bytes, p);
    }
    cdf.last().expect("non-empty").0
}

/// Mean of a piecewise-linear CDF (trapezoidal).
pub fn cdf_mean(cdf: &[(u64, f64)]) -> f64 {
    let mut mean = 0.0;
    for w in cdf.windows(2) {
        let (b0, p0) = w[0];
        let (b1, p1) = w[1];
        mean += (p1 - p0) * (b0 + b1) as f64 / 2.0;
    }
    mean
}

/// Web workload parameters.
#[derive(Clone, Copy, Debug)]
pub struct WebWorkload {
    /// Target load as a fraction of each sender's edge-link rate (0..1).
    pub load: f64,
    /// Edge link rate in bits/s (used to convert load to arrival rate).
    pub link_rate_bps: u64,
    /// Workload duration.
    pub duration: Nanos,
    /// Base source port (flows get consecutive ports).
    pub base_port: u16,
}

impl WebWorkload {
    /// Generates Poisson-arrival web flows among `senders` → `receivers`
    /// (self-pairs skipped). Each sender offers `load × link_rate` on
    /// average.
    ///
    /// `addr_of` maps hosts to IPs (from the topology).
    pub fn generate<R: Rng + ?Sized>(
        &self,
        senders: &[HostId],
        receivers: &[HostId],
        addr_of: impl Fn(HostId) -> Ip,
        rng: &mut R,
    ) -> Vec<FlowSpec> {
        assert!(self.load > 0.0 && self.load < 1.0, "load must be in (0,1)");
        let mean_size = cdf_mean(WEB_SEARCH_CDF);
        // flows/sec/sender so that mean bytes/sec = load * rate / 8.
        let lambda = self.load * self.link_rate_bps as f64 / 8.0 / mean_size;
        let mut specs = Vec::new();
        let mut port = self.base_port;
        for &src in senders {
            let mut t = 0.0f64;
            loop {
                // Exponential inter-arrival.
                let u: f64 = rng.gen::<f64>().max(1e-12);
                t += -u.ln() / lambda;
                let start = Nanos((t * SECONDS as f64) as u64);
                if start >= self.duration {
                    break;
                }
                let dst = loop {
                    let cand = receivers[rng.gen_range(0..receivers.len())];
                    if cand != src {
                        break cand;
                    }
                };
                let size = sample_size(WEB_SEARCH_CDF, rng).max(1);
                let flow = FlowId::tcp(addr_of(src), port, addr_of(dst), 80);
                port = port.wrapping_add(1).max(1024);
                specs.push(FlowSpec {
                    flow,
                    src,
                    dst,
                    size,
                    start,
                });
            }
        }
        specs.sort_by_key(|s| s.start);
        specs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    #[test]
    fn sizes_within_cdf_support() {
        let mut rng = SmallRng::seed_from_u64(1);
        for _ in 0..10_000 {
            let s = sample_size(WEB_SEARCH_CDF, &mut rng);
            assert!((1_000..=20_000_000).contains(&s), "size {s} out of range");
        }
    }

    #[test]
    fn distribution_is_heavy_tailed() {
        let mut rng = SmallRng::seed_from_u64(2);
        let samples: Vec<u64> = (0..50_000)
            .map(|_| sample_size(WEB_SEARCH_CDF, &mut rng))
            .collect();
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        let median = sorted[sorted.len() / 2];
        let mean = samples.iter().sum::<u64>() as f64 / samples.len() as f64;
        assert!(
            mean > 5.0 * median as f64,
            "mean {mean} should dwarf median {median}"
        );
        // Empirical mean tracks the analytic CDF mean within 10%.
        let analytic = cdf_mean(WEB_SEARCH_CDF);
        assert!((mean - analytic).abs() / analytic < 0.1);
    }

    #[test]
    fn empirical_cdf_matches_breakpoints() {
        let mut rng = SmallRng::seed_from_u64(3);
        let n = 100_000;
        let samples: Vec<u64> = (0..n)
            .map(|_| sample_size(WEB_SEARCH_CDF, &mut rng))
            .collect();
        for &(bytes, p) in WEB_SEARCH_CDF.iter().skip(1) {
            let frac = samples.iter().filter(|&&s| s <= bytes).count() as f64 / n as f64;
            assert!(
                (frac - p).abs() < 0.02,
                "P[size <= {bytes}] = {frac}, expected {p}"
            );
        }
    }

    #[test]
    fn generator_hits_target_load() {
        let mut rng = SmallRng::seed_from_u64(4);
        let senders: Vec<HostId> = (0..8).map(HostId).collect();
        let wl = WebWorkload {
            load: 0.5,
            link_rate_bps: 100_000_000,
            duration: Nanos::from_secs(20),
            base_port: 1024,
        };
        let specs = wl.generate(&senders, &senders, |h| Ip(h.0 + 1), &mut rng);
        let total_bytes: u64 = specs.iter().map(|s| s.size).sum();
        let offered = total_bytes as f64 * 8.0 / 20.0; // bits/s aggregate
        let target = 0.5 * 100_000_000.0 * 8.0;
        assert!(
            (offered - target).abs() / target < 0.35,
            "offered {offered} vs target {target}"
        );
        // Starts sorted and within duration; no self-flows.
        assert!(specs.windows(2).all(|w| w[0].start <= w[1].start));
        assert!(specs.iter().all(|s| s.start < wl.duration));
        assert!(specs.iter().all(|s| s.src != s.dst));
    }

    #[test]
    fn deterministic_under_seed() {
        let senders: Vec<HostId> = (0..4).map(HostId).collect();
        let wl = WebWorkload {
            load: 0.3,
            link_rate_bps: 100_000_000,
            duration: Nanos::from_secs(5),
            base_port: 2000,
        };
        let a = wl.generate(
            &senders,
            &senders,
            |h| Ip(h.0 + 1),
            &mut SmallRng::seed_from_u64(9),
        );
        let b = wl.generate(
            &senders,
            &senders,
            |h| Ip(h.0 + 1),
            &mut SmallRng::seed_from_u64(9),
        );
        assert_eq!(a.len(), b.len());
        assert!(a
            .iter()
            .zip(&b)
            .all(|(x, y)| x.flow == y.flow && x.size == y.size && x.start == y.start));
    }

    #[test]
    fn mean_is_stable() {
        let m = cdf_mean(WEB_SEARCH_CDF);
        assert!(m > 300_000.0 && m < 1_000_000.0, "web mean ~0.5MB, got {m}");
    }
}
