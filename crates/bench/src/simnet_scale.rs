//! Simnet scale benchmark: a dataplane-heavy fat-tree workload
//! (timer-driven periodic senders on every host, per-packet spraying)
//! driven to completion, reporting events/sec and wall-clock — the
//! `simnet` section of `BENCH_tib.json` and the k=16 smoke bin both build
//! on this.
//!
//! The link rates are scaled up to 10 Gb/s (vs the figure-reproduction
//! default of 100 Mb/s) so the event queue stays deep: at paper-figure
//! rates a 2 µs propagation delay sees ~0.02 packets per port, and the
//! figure bins' cost is their world (agents, TCP), not the event loop.

use pathdump_simnet::{
    HostApi, LinkConfig, LoadBalance, NoTagging, Packet, SimConfig, Simulator, World,
};
use pathdump_topology::{FatTree, FatTreeParams, FlowId, HostId, Nanos, UpDownRouting, MICROS};
use std::time::Instant;

/// One periodic sender: `remaining` packets of `flow` every `period`.
struct Sender {
    host: HostId,
    flow: FlowId,
    remaining: u32,
    period: Nanos,
}

/// A minimal world of periodic senders; deliveries are only counted, so
/// the measured work is the fabric dataplane, not edge logic.
pub struct LoadWorld {
    senders: Vec<Sender>,
    /// Packets that reached their destination NIC.
    pub delivered: u64,
}

impl World for LoadWorld {
    fn on_packet(&mut self, _api: &mut HostApi<'_>, _pkt: Packet) {
        self.delivered += 1;
    }

    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64) {
        let s = &mut self.senders[token as usize];
        if s.remaining == 0 {
            return;
        }
        s.remaining -= 1;
        api.send(Packet::data(0, s.flow, 0, 1460, api.now()));
        if s.remaining > 0 {
            let period = s.period;
            api.set_timer(period, token);
        }
    }
}

/// Workload shape knobs.
#[derive(Clone, Copy, Debug)]
pub struct ScaleParams {
    /// Fat-tree arity.
    pub k: u16,
    /// Packets each host streams to its partner.
    pub pkts_per_host: u32,
    /// Link rate for both link classes.
    pub rate_bps: u64,
    /// Fabric propagation delay (µs).
    pub fab_prop_us: u64,
    /// Host NIC propagation delay (µs).
    pub host_prop_us: u64,
    /// Per-host send period (ns).
    pub period_ns: u64,
}

impl ScaleParams {
    /// The default k=8 point recorded in `BENCH_tib.json`.
    pub fn k8_default() -> Self {
        ScaleParams {
            k: 8,
            pkts_per_host: 300,
            rate_bps: 10_000_000_000,
            fab_prop_us: 5,
            host_prop_us: 2,
            period_ns: 10_000,
        }
    }
}

/// The scaled-up configuration for one parameter set (see module docs).
pub fn scale_config(p: ScaleParams) -> SimConfig {
    SimConfig {
        fabric_link: LinkConfig {
            rate_bps: p.rate_bps,
            prop_delay: Nanos(p.fab_prop_us * MICROS),
            queue_pkts: 64,
        },
        host_link: LinkConfig {
            rate_bps: p.rate_bps,
            prop_delay: Nanos(p.host_prop_us * MICROS),
            queue_pkts: 128,
        },
        record_ground_truth: false,
        collect_drop_log: false,
        seed: 0xBEEF_0001,
        ..SimConfig::default()
    }
}

/// Result of one run.
#[derive(Clone, Debug)]
pub struct ScaleResult {
    pub k: u16,
    pub injected: u64,
    pub delivered: u64,
    pub events: u64,
    pub wall_secs: f64,
    pub events_per_sec: f64,
}

/// Builds the workload and drives it to completion, measuring only the
/// run (not construction).
pub fn run_scale_with(p: ScaleParams) -> ScaleResult {
    let ft = FatTree::build(FatTreeParams { k: p.k });
    let topo = ft.topology();
    let n = topo.num_hosts() as u32;
    // Each host streams to a partner ~half the fabric away; periods are
    // staggered per host so the fabric never beats in lock-step.
    let senders: Vec<Sender> = (0..n)
        .map(|h| {
            let src = HostId(h);
            let dst = HostId((h + n / 2 + (h % 7)) % n);
            let dst = if dst == src { HostId((h + 1) % n) } else { dst };
            Sender {
                host: src,
                flow: FlowId::tcp(
                    topo.host(src).ip,
                    2000 + (h % 3000) as u16,
                    topo.host(dst).ip,
                    80,
                ),
                remaining: p.pkts_per_host,
                period: Nanos(p.period_ns + (h as u64 % 13) * 100),
            }
        })
        .collect();
    let world = LoadWorld {
        senders,
        delivered: 0,
    };
    let mut sim = Simulator::new(&ft, scale_config(p), Box::new(NoTagging), world);
    sim.set_lb_all(LoadBalance::Spray);
    for i in 0..sim.world.senders.len() {
        let host = sim.world.senders[i].host;
        let offset = Nanos((i as u64 % 16) * MICROS / 4);
        sim.schedule_timer(host, offset, i as u64);
    }
    let start = Instant::now();
    sim.run_to_completion(Nanos::MAX);
    let wall = start.elapsed().as_secs_f64();
    ScaleResult {
        k: p.k,
        injected: sim.stats.injected_pkts,
        delivered: sim.world.delivered,
        events: sim.stats.events,
        wall_secs: wall,
        events_per_sec: sim.stats.events as f64 / wall.max(1e-9),
    }
}

/// [`run_scale_with`] at the default parameter shape for arity `k`.
pub fn run_scale(k: u16, pkts_per_host: u32) -> ScaleResult {
    let p = ScaleParams {
        k,
        pkts_per_host,
        ..ScaleParams::k8_default()
    };
    run_scale_with(p)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bench workload is one fixed schedule (tiny instance): two runs
    /// process the same events, and a healthy fabric delivers.
    #[test]
    fn scale_workload_is_deterministic() {
        let a = run_scale(4, 20);
        let b = run_scale(4, 20);
        assert_eq!(a.injected, b.injected);
        assert_eq!(a.delivered, b.delivered);
        assert_eq!(a.events, b.events);
        assert!(a.delivered > 0);
    }
}
