//! Group commit at the agent, pinned as a count of WAL appends rather than
//! a time: every eviction batch — a FIN's, an idle scan's, a flush's —
//! reaches the log as one frame in one `append`, carrying all of the
//! batch's records.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent, TibRead};
use pathdump_simnet::{Packet, TagPolicy, TcpFlags};
use pathdump_tib::wal::replay;
use pathdump_tib::WalStore;
use pathdump_topology::{FatTree, FatTreeParams, FlowId, Nanos, Path, PortNo, UpDownRouting};
use std::sync::{Arc, Mutex};

/// A WAL that keeps nothing but, per append, the number of records its
/// frame carries.
#[derive(Debug, Default, Clone)]
struct CountingWal {
    appends: Arc<Mutex<Vec<usize>>>,
}

impl CountingWal {
    fn appends(&self) -> Vec<usize> {
        self.appends.lock().expect("counter lock").clone()
    }
}

impl WalStore for CountingWal {
    fn append(&mut self, frame: &[u8]) -> std::io::Result<()> {
        let rep = replay(frame).expect("every append is one whole frame");
        assert_eq!(rep.dropped_tail, 0, "every append is one whole frame");
        self.appends
            .lock()
            .expect("counter lock")
            .push(rep.records.len());
        Ok(())
    }

    fn reset(&mut self) -> std::io::Result<()> {
        Ok(())
    }

    fn bytes(&self) -> std::io::Result<Vec<u8>> {
        Ok(Vec::new())
    }

    fn len(&self) -> u64 {
        0
    }
}

fn fabric() -> (FatTree, Fabric, FatTreeCherryPick) {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let f = Fabric::FatTree(FatTreeReconstructor::new(ft.clone()));
    let p = FatTreeCherryPick::new(ft.clone());
    (ft, f, p)
}

/// Builds the packet a given path would deliver (tag policy applied hop
/// by hop, exactly like the dataplane).
fn pkt_on_path(
    ft: &FatTree,
    policy: &FatTreeCherryPick,
    flow: FlowId,
    path: &Path,
    flags: TcpFlags,
) -> Packet {
    let mut pkt = Packet::data(1, flow, 0, 700, Nanos::ZERO);
    pkt.flags = flags;
    let topo = ft.topology();
    for (i, &sw) in path.0.iter().enumerate() {
        let in_port = if i == 0 {
            topo.switch(sw)
                .ports
                .iter()
                .position(|p| matches!(p, pathdump_topology::Peer::Host(_)))
                .map(|p| PortNo(p as u8))
        } else {
            topo.switch(sw).port_towards(path.0[i - 1])
        };
        policy.on_forward(sw, in_port, PortNo(0), &mut pkt.headers);
    }
    pkt
}

/// An agent on a host of pod 1 with a counting WAL, and the four paths
/// into it from a host of pod 0.
fn setup() -> (FatTree, Fabric, FatTreeCherryPick, HostAgent, CountingWal) {
    let (ft, fabric, policy) = fabric();
    let dst = ft.host(1, 0, 0);
    let mut agent = HostAgent::new(dst, AgentConfig::default());
    let wal = CountingWal::default();
    agent.tib.attach_wal(Box::new(wal.clone()));
    (ft, fabric, policy, agent, wal)
}

fn flow(ft: &FatTree, sport: u16) -> FlowId {
    let t = ft.topology();
    FlowId::tcp(
        t.host(ft.host(0, 0, 0)).ip,
        sport,
        t.host(ft.host(1, 0, 0)).ip,
        80,
    )
}

#[test]
fn a_fin_of_a_sprayed_flow_is_one_append() {
    let (ft, fabric, policy, mut agent, wal) = setup();
    let paths = ft.all_paths(ft.host(0, 0, 0), ft.host(1, 0, 0));
    assert_eq!(paths.len(), 4);
    let f = flow(&ft, 1000);
    for p in &paths {
        let pkt = pkt_on_path(&ft, &policy, f, p, TcpFlags::ACK);
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
    }
    assert!(
        wal.appends().is_empty(),
        "nothing is evicted before the FIN"
    );
    let fin = pkt_on_path(&ft, &policy, f, &paths[0], TcpFlags::FIN);
    agent.on_packet(&fabric, &fin, Nanos::from_millis(2));
    assert_eq!(wal.appends(), vec![paths.len()]);
    assert_eq!(agent.tib.len(), paths.len());
    assert_eq!(agent.tib.wal_errors(), 0);
}

#[test]
fn a_flush_of_live_flows_is_one_append() {
    let (ft, fabric, policy, mut agent, wal) = setup();
    let paths = ft.all_paths(ft.host(0, 0, 0), ft.host(1, 0, 0));
    let m = 6;
    for i in 0..m {
        let pkt = pkt_on_path(
            &ft,
            &policy,
            flow(&ft, 2000 + i as u16),
            &paths[i % 4],
            TcpFlags::ACK,
        );
        agent.on_packet(&fabric, &pkt, Nanos::from_millis(1));
    }
    agent.flush(&fabric, Nanos::from_millis(3));
    assert_eq!(wal.appends(), vec![m]);
    assert_eq!(agent.tib.num_records(), m);
    // A flush of an empty memory writes nothing.
    agent.flush(&fabric, Nanos::from_millis(4));
    assert_eq!(wal.appends(), vec![m]);
}

#[test]
fn an_idle_scan_is_one_append() {
    let (ft, fabric, policy, mut agent, wal) = setup();
    let paths = ft.all_paths(ft.host(0, 0, 0), ft.host(1, 0, 0));
    for (i, p) in paths.iter().enumerate() {
        let pkt = pkt_on_path(&ft, &policy, flow(&ft, 3000 + i as u16), p, TcpFlags::ACK);
        agent.on_packet(&fabric, &pkt, Nanos::from_secs(1));
    }
    agent.tick(&fabric, Nanos::from_secs(2));
    assert!(wal.appends().is_empty(), "not idle long enough");
    agent.tick(&fabric, Nanos::from_secs(7));
    assert_eq!(wal.appends(), vec![paths.len()]);
}
