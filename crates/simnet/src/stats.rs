//! Simulation counters: the operator-visible ones (what a real switch
//! exports) and the hidden ground-truth ones (what actually happened).
//!
//! The distinction matters for the silent-drop experiments: a faulty
//! interface "drops packets at random without updating the discarded packet
//! counters" (§2.3), so `silent_drops`/`blackhole_drops` exist only for
//! verification and are never consulted by PathDump components.

use pathdump_topology::{FlowId, Nanos, PortNo, SwitchId};

/// Counters for one egress (switch port or host NIC).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct LinkCounters {
    /// Packets transmitted.
    pub tx_pkts: u64,
    /// Bytes transmitted (wire size).
    pub tx_bytes: u64,
    /// Tail drops due to a full egress queue (operator-visible).
    pub queue_drops: u64,
    /// Drops because the link was down at transmit time (operator-visible).
    pub down_drops: u64,
    /// Hidden: silent random drops by a faulty interface.
    pub silent_drops: u64,
    /// Hidden: blackholed packets.
    pub blackhole_drops: u64,
}

impl LinkCounters {
    /// All drops visible to an operator polling switch counters.
    pub fn visible_drops(&self) -> u64 {
        self.queue_drops + self.down_drops
    }

    /// All drops that actually occurred (ground truth).
    pub fn actual_drops(&self) -> u64 {
        self.visible_drops() + self.silent_drops + self.blackhole_drops
    }
}

/// Per-switch counters not tied to one port.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SwitchCounters {
    /// Packets received (all ports).
    pub rx_pkts: u64,
    /// Packets punted to the controller (≥3 tags).
    pub punts: u64,
    /// TTL-expired drops.
    pub ttl_drops: u64,
    /// Packets dropped because no route/egress existed.
    pub no_route_drops: u64,
}

/// Why a packet was dropped (drop-log entries).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum DropReason {
    /// Egress queue overflow (tail drop).
    QueueFull,
    /// Egress link down.
    LinkDown,
    /// TTL reached zero.
    TtlExpired,
    /// Silent random drop at a faulty interface.
    SilentRandom,
    /// Blackholed link.
    Blackhole,
    /// No usable egress.
    NoRoute,
}

/// One entry of the (optional) drop log.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DropRecord {
    /// When the drop happened.
    pub time: Nanos,
    /// Switch where it happened; `None` = host NIC.
    pub sw: Option<SwitchId>,
    /// Egress port involved, when applicable.
    pub port: Option<PortNo>,
    /// Why.
    pub reason: DropReason,
    /// The victim flow.
    pub flow: FlowId,
    /// The victim packet UID.
    pub uid: u64,
}

/// Bound on the drop log so pathological runs cannot exhaust memory.
pub const DROP_LOG_CAP: usize = 100_000;

/// All simulation statistics.
///
/// `PartialEq` so a harness can assert whole-run equality between two
/// runs (sliced against coarse, one seed against itself).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SimStats {
    /// `ports[sw][port]` egress counters.
    pub switch_ports: Vec<Vec<LinkCounters>>,
    /// Per-switch counters.
    pub switches: Vec<SwitchCounters>,
    /// Host NIC egress counters.
    pub host_nics: Vec<LinkCounters>,
    /// Packets delivered to host worlds.
    pub delivered_pkts: u64,
    /// Wire bytes delivered to host worlds.
    pub delivered_bytes: u64,
    /// Packets injected by host worlds.
    pub injected_pkts: u64,
    /// Events processed by the main loop.
    pub events: u64,
    /// Individual drop events (only when `collect_drop_log` is set).
    pub drop_log: Vec<DropRecord>,
}

impl SimStats {
    pub(crate) fn new(num_switches: usize, ports_per_switch: &[usize], num_hosts: usize) -> Self {
        SimStats {
            switch_ports: ports_per_switch
                .iter()
                .map(|&n| vec![LinkCounters::default(); n])
                .collect(),
            switches: vec![SwitchCounters::default(); num_switches],
            host_nics: vec![LinkCounters::default(); num_hosts],
            ..SimStats::default()
        }
    }

    /// Egress counters of a switch port.
    pub fn port(&self, sw: SwitchId, port: PortNo) -> &LinkCounters {
        &self.switch_ports[sw.index()][port.index()]
    }

    /// Sum of actual (ground-truth) drops across the whole fabric.
    pub fn total_actual_drops(&self) -> u64 {
        let fabric: u64 = self
            .switch_ports
            .iter()
            .flatten()
            .map(|c| c.actual_drops())
            .sum();
        let nics: u64 = self.host_nics.iter().map(|c| c.actual_drops()).sum();
        let misc: u64 = self
            .switches
            .iter()
            .map(|c| c.ttl_drops + c.no_route_drops)
            .sum();
        fabric + nics + misc
    }

    /// Total controller punts.
    pub fn total_punts(&self) -> u64 {
        self.switches.iter().map(|c| c.punts).sum()
    }

    /// The one place a drop is recorded, in processing order. The cap
    /// bounds the log and nothing else: a drop past it is still counted,
    /// and still takes its birth index in the caller (`sim.rs`), so no
    /// event key depends on how full the log is.
    pub(crate) fn log_drop(&mut self, enabled: bool, rec: DropRecord) {
        if enabled && self.drop_log.len() < DROP_LOG_CAP {
            self.drop_log.push(rec);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn visibility_split() {
        let c = LinkCounters {
            tx_pkts: 10,
            tx_bytes: 1000,
            queue_drops: 2,
            down_drops: 1,
            silent_drops: 5,
            blackhole_drops: 7,
        };
        assert_eq!(c.visible_drops(), 3);
        assert_eq!(c.actual_drops(), 15);
    }

    #[test]
    fn stats_shape() {
        let s = SimStats::new(2, &[4, 8], 3);
        assert_eq!(s.switch_ports[0].len(), 4);
        assert_eq!(s.switch_ports[1].len(), 8);
        assert_eq!(s.host_nics.len(), 3);
        assert_eq!(s.total_actual_drops(), 0);
        assert_eq!(s.total_punts(), 0);
    }

    #[test]
    fn drop_log_caps() {
        let mut s = SimStats::new(1, &[1], 1);
        let rec = DropRecord {
            time: Nanos::ZERO,
            sw: None,
            port: None,
            reason: DropReason::QueueFull,
            flow: FlowId::tcp(
                pathdump_topology::Ip::new(1, 1, 1, 1),
                1,
                pathdump_topology::Ip::new(2, 2, 2, 2),
                2,
            ),
            uid: 0,
        };
        for _ in 0..DROP_LOG_CAP + 10 {
            s.log_drop(true, rec.clone());
        }
        assert_eq!(s.drop_log.len(), DROP_LOG_CAP);
        let mut s2 = SimStats::new(1, &[1], 1);
        s2.log_drop(false, rec);
        assert!(s2.drop_log.is_empty());
    }
}
