//! Extension points: tagging policy (CherryPick plugs in here), the host
//! "world" (transport + PathDump agents), and controller punt handling.

use crate::packet::{Packet, TagHeaders};
use pathdump_topology::{HostId, Nanos, PortNo, SwitchId};
use rand::rngs::SmallRng;

/// Switch-side trajectory tagging rules.
///
/// Called once per forwarded packet, *before* the packet is queued on its
/// egress port — the moment an OpenFlow `push_vlan` action would run. The
/// implementation in `pathdump-cherrypick` pushes ingress-link IDs per the
/// sampling rules of §3.1; [`NoTagging`] turns the fabric into a vanilla
/// network (the baseline of Figure 13).
pub trait TagPolicy {
    /// Applies tagging actions for a packet forwarded by `sw` from
    /// `in_port` (`None` = received from an attached host) to `out_port`.
    fn on_forward(
        &self,
        sw: SwitchId,
        in_port: Option<PortNo>,
        out_port: PortNo,
        headers: &mut TagHeaders,
    );
}

/// A tag policy that does nothing (vanilla switches).
#[derive(Clone, Copy, Debug, Default)]
pub struct NoTagging;

impl TagPolicy for NoTagging {
    fn on_forward(
        &self,
        _sw: SwitchId,
        _in_port: Option<PortNo>,
        _out_port: PortNo,
        _headers: &mut TagHeaders,
    ) {
    }
}

/// Actions a host handler may request; applied by the simulator after the
/// handler returns (command pattern, keeps borrows simple).
#[derive(Debug)]
pub(crate) enum HostAction {
    /// Transmit a packet from this host's NIC.
    Send(Packet),
    /// Fire `on_timer(host, token)` after `delay`.
    Timer { delay: Nanos, token: u64 },
}

/// Capabilities handed to host-side handlers ([`World::on_packet`],
/// [`World::on_timer`]).
pub struct HostApi<'a> {
    pub(crate) now: Nanos,
    pub(crate) host: HostId,
    pub(crate) actions: &'a mut Vec<HostAction>,
    pub(crate) rng: &'a mut SmallRng,
    pub(crate) next_uid: &'a mut u64,
}

impl HostApi<'_> {
    /// Current simulated time.
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// The host this callback concerns.
    pub fn host(&self) -> HostId {
        self.host
    }

    /// Allocates a unique packet ID.
    pub fn alloc_uid(&mut self) -> u64 {
        *self.next_uid += 1;
        *self.next_uid
    }

    /// Queues a packet for transmission on this host's NIC.
    pub fn send(&mut self, pkt: Packet) {
        self.actions.push(HostAction::Send(pkt));
    }

    /// Schedules `on_timer(host, token)` after `delay`.
    pub fn set_timer(&mut self, delay: Nanos, token: u64) {
        self.actions.push(HostAction::Timer { delay, token });
    }

    /// The simulation RNG (deterministic under the configured seed).
    pub fn rng(&mut self) -> &mut SmallRng {
        self.rng
    }
}

/// A packet punted to the controller by the switch slow path (≥3 tags:
/// "instant trap of suspiciously long path", §3.1).
#[derive(Clone, Debug)]
pub struct Punt {
    /// The switch that punted.
    pub sw: SwitchId,
    /// Its ingress port for the packet (`None` = injected).
    pub in_port: Option<PortNo>,
    /// The packet, tags intact.
    pub pkt: Packet,
    /// When the switch punted it (controller sees it `punt_latency` later).
    pub punted_at: Nanos,
}

/// Actions the controller punt handler may request.
#[derive(Debug)]
pub(crate) enum CtrlAction {
    /// Re-inject a packet into a switch (OpenFlow packet-out); forwarding
    /// resumes as if it had arrived on `in_port`.
    PacketOut {
        sw: SwitchId,
        in_port: Option<PortNo>,
        pkt: Packet,
    },
}

/// Capabilities handed to [`World::on_punt`].
pub struct CtrlApi<'a> {
    pub(crate) now: Nanos,
    pub(crate) actions: &'a mut Vec<CtrlAction>,
}

impl CtrlApi<'_> {
    /// Current simulated time (punt arrival at the controller).
    pub fn now(&self) -> Nanos {
        self.now
    }

    /// Sends a packet back down into `sw` as if received on `in_port`.
    pub fn packet_out(&mut self, sw: SwitchId, in_port: Option<PortNo>, pkt: Packet) {
        self.actions
            .push(CtrlAction::PacketOut { sw, in_port, pkt });
    }
}

/// Everything living at the edge of the simulated network: the transport
/// engines on each host, the PathDump agents observing arriving packets,
/// and the controller's packet-in handler.
///
/// The simulator is generic over one `World` so harnesses keep typed access
/// to their own state after the run.
pub trait World {
    /// A packet reached `api.host()`'s NIC (the OVS receive path).
    fn on_packet(&mut self, api: &mut HostApi<'_>, pkt: Packet);

    /// A timer set through [`HostApi::set_timer`] fired.
    fn on_timer(&mut self, api: &mut HostApi<'_>, token: u64);

    /// A packet was punted to the controller (default: swallow it).
    fn on_punt(&mut self, api: &mut CtrlApi<'_>, punt: Punt) {
        let _ = (api, punt);
    }
}

/// A world that discards everything — useful for pure dataplane tests.
#[derive(Clone, Copy, Debug, Default)]
pub struct SinkWorld;

impl World for SinkWorld {
    fn on_packet(&mut self, _api: &mut HostApi<'_>, _pkt: Packet) {}
    fn on_timer(&mut self, _api: &mut HostApi<'_>, _token: u64) {}
}
