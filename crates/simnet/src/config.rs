//! Simulation configuration.

use pathdump_topology::{Nanos, MICROS, MILLIS};

/// Parameters of one link class (switch-to-switch or host NIC).
#[derive(Clone, Copy, Debug)]
pub struct LinkConfig {
    /// Line rate in bits per second.
    pub rate_bps: u64,
    /// Propagation delay.
    pub prop_delay: Nanos,
    /// Egress queue capacity in packets (tail-drop beyond this).
    pub queue_pkts: usize,
}

impl LinkConfig {
    /// Serialization delay for `bytes` at this link's rate.
    pub fn tx_time(&self, bytes: u32) -> Nanos {
        // ns = bytes * 8 * 1e9 / rate_bps.
        Nanos((bytes as u64 * 8 * 1_000_000_000) / self.rate_bps)
    }
}

/// Global simulator configuration.
///
/// Defaults model the paper's commodity testbed with one deliberate
/// substitution: link rates are scaled from 1 GbE to 100 Mb/s so that
/// packet-level simulation of multi-minute experiments stays tractable;
/// load *fractions* and protocol timing constants are preserved, which is
/// what the reproduced figures depend on.
#[derive(Clone, Copy, Debug)]
pub struct SimConfig {
    /// Switch-to-switch links.
    pub fabric_link: LinkConfig,
    /// Host NIC links.
    pub host_link: LinkConfig,
    /// Number of VLAN tags the switch ASIC parses at line rate (QinQ = 2).
    /// A packet carrying more is punted to the controller (§3.1).
    pub asic_tag_limit: usize,
    /// Slow-path latency for punting a packet to the controller (switch
    /// CPU plus control channel). Calibrated so Figure 9's 4-hop loop
    /// detection lands near the paper's ~47 ms.
    pub punt_latency: Nanos,
    /// Latency for a controller packet-out back into a switch.
    pub packet_out_latency: Nanos,
    /// Initial IP TTL (backstop against infinite loops).
    pub ttl: u8,
    /// RNG seed (sprayed egress picks, fault coin flips).
    pub seed: u64,
    /// Keep a log of individual drop events (tests/small runs only).
    pub collect_drop_log: bool,
    /// Record ground-truth trajectories on packets (verification; small
    /// per-packet cost).
    pub record_ground_truth: bool,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            fabric_link: LinkConfig {
                rate_bps: 100_000_000,
                prop_delay: Nanos(2 * MICROS),
                queue_pkts: 64,
            },
            host_link: LinkConfig {
                rate_bps: 100_000_000,
                prop_delay: Nanos(MICROS),
                queue_pkts: 128,
            },
            asic_tag_limit: 2,
            punt_latency: Nanos(40 * MILLIS),
            packet_out_latency: Nanos(2 * MILLIS),
            ttl: 64,
            seed: 0xDEB6_0001,
            collect_drop_log: false,
            record_ground_truth: true,
        }
    }
}

impl SimConfig {
    /// A configuration suited to unit/integration tests: small queues,
    /// drop logging, fixed seed.
    pub fn for_tests() -> Self {
        SimConfig {
            collect_drop_log: true,
            ..SimConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tx_time_math() {
        let l = LinkConfig {
            rate_bps: 1_000_000_000,
            prop_delay: Nanos(1000),
            queue_pkts: 8,
        };
        // 1500 B at 1 Gbps = 12 us.
        assert_eq!(l.tx_time(1500), Nanos(12_000));
        // 125 bytes at 1 Gbps = 1 us.
        assert_eq!(l.tx_time(125), Nanos(1_000));
    }

    #[test]
    fn default_sane() {
        let c = SimConfig::default();
        assert_eq!(c.asic_tag_limit, 2);
        assert!(c.punt_latency > c.packet_out_latency);
    }
}
