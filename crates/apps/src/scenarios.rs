//! Shared experiment scaffolding: a fat-tree testbed with PathDump agents
//! on every host, CherryPick tagging in the fabric, and web background
//! traffic — the common substrate of every §4 experiment.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{Fabric, PathDumpWorld, WorldConfig};
use pathdump_simnet::{SimConfig, Simulator};
use pathdump_topology::{FatTree, FatTreeParams, FlowId, HostId, Nanos, UpDownRouting};
use pathdump_transport::{install_flows, FlowSpec, TcpConfig, WebWorkload};
use rand::rngs::SmallRng;
use rand::SeedableRng;

/// A ready-to-run fat-tree testbed.
pub struct Testbed {
    /// The topology.
    pub ft: FatTree,
    /// The simulator with the PathDump world installed.
    pub sim: Simulator<PathDumpWorld>,
}

impl Testbed {
    /// Builds a `k`-ary fat-tree testbed with the given configs.
    pub fn fattree(k: u16, sim_cfg: SimConfig, world_cfg: WorldConfig) -> Self {
        let ft = FatTree::build(FatTreeParams { k });
        let world = PathDumpWorld::new(
            Fabric::FatTree(FatTreeReconstructor::new(ft.clone())),
            TcpConfig::default(),
            world_cfg,
        );
        let mut sim = Simulator::new(
            &ft,
            sim_cfg,
            Box::new(FatTreeCherryPick::new(ft.clone())),
            world,
        );
        PathDumpWorld::start(&mut sim);
        Testbed { ft, sim }
    }

    /// Default testbed used by tests: k=4, test sim config.
    pub fn default_k4() -> Self {
        Testbed::fattree(4, SimConfig::for_tests(), WorldConfig::default())
    }

    /// The flow ID between two hosts.
    pub fn flow(&self, src: HostId, dst: HostId, sport: u16) -> FlowId {
        let t = self.ft.topology();
        FlowId::tcp(t.host(src).ip, sport, t.host(dst).ip, 80)
    }

    /// Host lookup by IP address.
    pub fn host_by_ip(&self, ip: pathdump_topology::Ip) -> Option<HostId> {
        self.ft.topology().host_by_ip(ip)
    }

    /// IP address of a host.
    pub fn ip_of(&self, host: HostId) -> pathdump_topology::Ip {
        self.ft.topology().host(host).ip
    }

    /// Adjacency test on the underlying topology.
    pub fn adjacent(&self, a: pathdump_topology::SwitchId, b: pathdump_topology::SwitchId) -> bool {
        self.ft.topology().adjacent(a, b)
    }

    /// Registers and schedules a single TCP flow.
    pub fn add_flow(
        &mut self,
        src: HostId,
        dst: HostId,
        sport: u16,
        size: u64,
        start: Nanos,
    ) -> FlowSpec {
        let spec = FlowSpec {
            flow: self.flow(src, dst, sport),
            src,
            dst,
            size,
            start,
        };
        install_flows(&mut self.sim, &[spec], |w| &mut w.tcp);
        spec
    }

    /// Adds Poisson web background traffic at fractional `load` among all
    /// hosts for `duration`; returns the specs.
    pub fn add_web_traffic(&mut self, load: f64, duration: Nanos, seed: u64) -> Vec<FlowSpec> {
        let hosts: Vec<HostId> = (0..self.ft.topology().num_hosts() as u32)
            .map(HostId)
            .collect();
        let wl = WebWorkload {
            load,
            link_rate_bps: self.sim.config().host_link.rate_bps,
            duration,
            base_port: 10_000,
        };
        let mut rng = SmallRng::seed_from_u64(seed);
        let topo = self.ft.topology().clone();
        let specs = wl.generate(&hosts, &hosts, |h| topo.host(h).ip, &mut rng);
        install_flows(&mut self.sim, &specs, |w| &mut w.tcp);
        specs
    }

    /// Runs until `t`, then flushes trajectory memories so TIBs hold every
    /// record.
    pub fn run_and_flush(&mut self, t: Nanos) {
        self.sim.run_until(t);
        let now = self.sim.now();
        self.sim.world.flush_all(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_core::TibRead;
    use pathdump_rpc::execute;
    use pathdump_topology::{LinkPattern, TimeRange};

    #[test]
    fn web_traffic_populates_tibs() {
        let mut tb = Testbed::default_k4();
        let specs = tb.add_web_traffic(0.2, Nanos::from_secs(2), 42);
        assert!(!specs.is_empty());
        tb.run_and_flush(Nanos::from_secs(6));
        let total_records: usize = tb.sim.world.agents.iter().map(|a| a.tib.len()).sum();
        assert!(
            total_records >= specs.len(),
            "every flow (plus ACK flows) must leave records: {total_records} < {}",
            specs.len()
        );
        // Reconstructions never failed on a healthy fabric.
        let failures: u64 = tb.sim.world.agents.iter().map(|a| a.recon_failures).sum();
        assert_eq!(failures, 0);
        // Paths recorded are valid shortest paths.
        for agent in &tb.sim.world.agents {
            for rec in agent.tib.records_vec() {
                assert!(!rec.path.is_empty());
            }
        }
        let _ = execute(
            &mut tb.sim.world,
            &[HostId(0)],
            &pathdump_core::Query::GetFlows {
                link: LinkPattern::ANY,
                range: TimeRange::ANY,
            },
            false,
        );
    }
}
