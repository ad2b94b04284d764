//! Pins what the host agent's ingest path costs the allocator, as counts
//! rather than a time: once every (flow, path) record is live, a packet
//! that is not a FIN touches the heap **zero** times — the record key is
//! probed borrowed and its counters bumped in place. A FIN evicts its
//! flow's records and files them, which allocates per record (the evicted
//! batch, the decoded path, the trajectory-cache entry) plus the amortised
//! growth of the store's columns; that is held under a ceiling per record
//! in the mould of `crates/tib/tests/insert_allocs.rs`.
//!
//! The counter is per-thread, as in
//! `crates/dpswitch/tests/zero_alloc_run_once.rs`: the libtest harness
//! allocates on its own thread at its own pace.

use pathdump_cherrypick::{FatTreeCherryPick, FatTreeReconstructor};
use pathdump_core::{AgentConfig, Fabric, HostAgent};
use pathdump_simnet::{Packet, TagPolicy, TcpFlags};
use pathdump_topology::{
    FatTree, FatTreeParams, FlowId, HostId, Nanos, Path, PortNo, UpDownRouting,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static THREAD_ALLOCS: Cell<u64> = const { Cell::new(0) };
}

/// Counts an allocating entry point against the current thread.
/// `try_with` so allocations during TLS teardown stay safe (uncounted).
fn bump() {
    let _ = THREAD_ALLOCS.try_with(|c| c.set(c.get() + 1));
}

fn thread_alloc_count() -> u64 {
    THREAD_ALLOCS.with(|c| c.get())
}

/// System allocator wrapper counting every allocating entry point.
struct CountingAlloc;

unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

const FLOWS: usize = 64;

/// Rounds of non-FIN packets after the warm-up round.
const STEADY_ROUNDS: usize = 10;

/// Allocations a FIN may cost per record it files, amortised over the
/// run. The run below makes 1 194 for 256 records (4.7 each): 9 for a
/// 4-record FIN once the trajectory cache holds the flow's source and
/// paths, 25 to 95 where the cache misses and the path is decoded, and
/// up to 113 where the store's columns also grow.
const FIN_ALLOCS_PER_RECORD: u64 = 5;

/// Builds the packet a path delivers (tag policy applied hop by hop,
/// exactly like the dataplane).
fn pkt_on_path(
    ft: &FatTree,
    policy: &FatTreeCherryPick,
    flow: FlowId,
    path: &Path,
    flags: TcpFlags,
) -> Packet {
    let mut pkt = Packet::data(1, flow, 0, 1460, Nanos::ZERO);
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

/// A k = 4 fat-tree agent on a host of pod 1, and for each of [`FLOWS`]
/// flows from the hosts of the other pods one packet per path of the four
/// it is sprayed over, with the same packets' FIN variants.
struct Workload {
    fabric: Fabric,
    agent: HostAgent,
    /// One packet per (flow, path), flows interleaved.
    round: Vec<Packet>,
    /// One FIN per flow.
    fins: Vec<Packet>,
}

fn workload() -> Workload {
    let ft = FatTree::build(FatTreeParams { k: 4 });
    let policy = FatTreeCherryPick::new(ft.clone());
    let dst = ft.host(1, 0, 0);
    let topo = ft.topology();
    // The hosts of the other pods: four paths each into `dst`.
    let srcs: Vec<HostId> = (0..topo.num_hosts() as u32)
        .map(HostId)
        .filter(|&h| ft.all_paths(h, dst).len() == 4)
        .collect();
    let mut round = Vec::new();
    let mut fins = Vec::new();
    for i in 0..FLOWS {
        let src = srcs[i % srcs.len()];
        let flow = FlowId::tcp(topo.host(src).ip, 1024 + i as u16, topo.host(dst).ip, 80);
        let paths = ft.all_paths(src, dst);
        for p in &paths {
            round.push(pkt_on_path(&ft, &policy, flow, p, TcpFlags::ACK));
        }
        fins.push(pkt_on_path(&ft, &policy, flow, &paths[0], TcpFlags::FIN));
    }
    Workload {
        fabric: Fabric::FatTree(FatTreeReconstructor::new(ft.clone())),
        agent: HostAgent::new(dst, AgentConfig::default()),
        round,
        fins,
    }
}

/// Allocations made on this thread while `f` runs.
fn allocs_during(f: impl FnOnce()) -> u64 {
    let before = thread_alloc_count();
    f();
    thread_alloc_count() - before
}

#[test]
fn steady_state_packets_allocate_nothing() {
    let Workload {
        fabric,
        mut agent,
        round,
        ..
    } = workload();
    for pkt in &round {
        agent.on_packet(&fabric, pkt, Nanos::from_millis(1));
    }
    assert_eq!(agent.memory.len(), FLOWS * 4, "one record per sprayed path");

    let n = allocs_during(|| {
        for r in 0..STEADY_ROUNDS {
            for pkt in &round {
                agent.on_packet(&fabric, pkt, Nanos::from_millis(2 + r as u64));
            }
        }
    });
    assert_eq!(
        n,
        0,
        "{n} allocations over {} steady-state packets",
        STEADY_ROUNDS * round.len()
    );
    assert_eq!(agent.memory.len(), FLOWS * 4);
    assert_eq!(agent.tib.len(), 0, "nothing is filed before a FIN");
}

#[test]
fn fins_on_a_warm_agent_allocate_under_the_ceiling_per_record() {
    let Workload {
        fabric,
        mut agent,
        round,
        fins,
    } = workload();
    for pkt in &round {
        agent.on_packet(&fabric, pkt, Nanos::from_millis(1));
    }

    let n = allocs_during(|| {
        for (i, fin) in fins.iter().enumerate() {
            agent.on_packet(&fabric, fin, Nanos::from_millis(2 + i as u64));
        }
    });
    let records = agent.tib.len() as u64;
    assert_eq!(records, (FLOWS * 4) as u64, "every sprayed path is filed");
    assert_eq!(agent.memory.len(), 0);
    assert_eq!(agent.recon_failures, 0);
    let limit = FIN_ALLOCS_PER_RECORD * records;
    assert!(
        n <= limit,
        "{n} allocations for {FLOWS} FINs filing {records} records (limit {limit})"
    );
}
