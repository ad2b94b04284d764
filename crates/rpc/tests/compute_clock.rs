//! The compute seam: what a node's own work costs moves the plane's clock
//! and nothing else.
//!
//! A fake clock that charges exactly 1 µs per unit of work makes the
//! direct-vs-tree shape of Figs 11/12 deterministic: the controller of a
//! direct query merges every host's reply itself, one after another, while
//! a tree spreads the merges over its interior hosts. Under [`Free`] the
//! plane is the compute-less plane `TreePlane::new` builds.

use pathdump_core::{MgmtNet, Query, Response};
use pathdump_rpc::{
    Channel, Compute, Coverage, Free, Loopback, QueryOutcome, RpcConfig, TreePlane,
};
use pathdump_tib::{Tib, TibRecord};
use pathdump_topology::{FlowId, Ip, LinkPattern, Nanos, Path, SwitchId, TimeRange, MICROS};

/// Charges exactly 1 µs for every execution and every merge.
struct OneMicro;

impl Compute for OneMicro {
    fn run<R>(&mut self, work: impl FnOnce() -> R) -> (R, Nanos) {
        (work(), Nanos(MICROS))
    }
}

fn tib_with(host: usize, n: usize) -> Tib {
    let mut t = Tib::new();
    for i in 0..n {
        t.insert(TibRecord {
            flow: FlowId::tcp(
                Ip::new(10, host as u8, 0, 2),
                1000 + i as u16,
                Ip::new(10, 99, 0, 2),
                80,
            ),
            path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
            stime: Nanos(i as u64),
            etime: Nanos(i as u64 + 10),
            bytes: (host * 1000 + i * 17) as u64,
            pkts: 1,
        });
    }
    t
}

fn fsd() -> Query {
    Query::FlowSizeDist {
        link: LinkPattern::ANY,
        range: TimeRange::ANY,
        bin_bytes: 1000,
    }
}

/// Every child of a direct query in flight at once, as in the paper.
fn cfg() -> RpcConfig {
    RpcConfig {
        max_children_inflight: 64,
        ..RpcConfig::default()
    }
}

/// A 10 Gb/s channel with 100 ns of latency: fast enough that compute,
/// not transfer, decides the shape.
fn fast_net() -> Loopback {
    Loopback::new(MgmtNet {
        one_way_latency: Nanos(100),
        bandwidth_bps: 10_000_000_000,
    })
}

/// One query's outcome and the frames and bytes it put on the channel.
struct Run {
    out: QueryOutcome,
    frames: u64,
    bytes: u64,
}

fn run_on<K: Compute>(
    mut plane: TreePlane<Loopback, Tib, K>,
    hosts: &[usize],
    fanouts: &[usize],
) -> Run {
    let id = plane.submit(&fsd(), hosts, fanouts);
    let out = plane.run(id).expect("completes");
    assert!(out.coverage.is_complete(), "{:?}", out.coverage);
    Run {
        out,
        frames: plane.channel().frames_sent(),
        bytes: plane.channel().bytes_sent(),
    }
}

fn run<K: Compute>(compute: K, tibs: &[Tib], hosts: usize, fanouts: &[usize]) -> Run {
    let plane = TreePlane::with_compute(fast_net(), cfg(), tibs.to_vec(), compute);
    run_on(plane, &(0..hosts).collect::<Vec<_>>(), fanouts)
}

/// Every field of an outcome, for whole-outcome equality.
type OutcomeFields = (Response, Coverage, Vec<u32>, Nanos, Nanos, bool);

fn fields(o: &QueryOutcome) -> OutcomeFields {
    (
        o.response.clone(),
        o.coverage.clone(),
        o.hosts.clone(),
        o.elapsed,
        o.queued_wait,
        o.deadline_met,
    )
}

#[test]
fn direct_merge_cost_grows_with_hosts_and_the_tree_spreads_it() {
    let tibs: Vec<Tib> = (0..64).map(|h| tib_with(h, 200)).collect();
    let direct_8 = run(OneMicro, &tibs, 8, &[8]);
    let direct_64 = run(OneMicro, &tibs, 64, &[64]);
    let tree_64 = run(OneMicro, &tibs, 64, &[7, 4, 4]);
    assert_eq!(direct_64.out.response, tree_64.out.response);
    // The controller merges 64 replies one after another.
    assert!(direct_64.out.elapsed >= Nanos(64 * MICROS));
    assert!(
        direct_64.out.elapsed > direct_8.out.elapsed,
        "controller merge work must grow with host count: {:?} vs {:?}",
        direct_64.out.elapsed,
        direct_8.out.elapsed
    );
    assert!(
        direct_64.out.elapsed > tree_64.out.elapsed,
        "the tree spreads the merges: direct {:?} vs tree {:?}",
        direct_64.out.elapsed,
        tree_64.out.elapsed
    );
    assert!(direct_64.bytes > direct_8.bytes);
}

#[test]
fn compute_moves_time_never_traffic() {
    let tibs: Vec<Tib> = (0..64).map(|h| tib_with(h, 50)).collect();
    for fanouts in [&[64usize][..], &[7, 4, 4], &[3, 2, 2]] {
        let charged = run(OneMicro, &tibs, 64, fanouts);
        let free = run(Free, &tibs, 64, fanouts);
        assert_eq!(charged.frames, free.frames, "fanouts {fanouts:?}");
        assert_eq!(charged.bytes, free.bytes, "fanouts {fanouts:?}");
        assert_eq!(charged.out.response, free.out.response);
        assert_eq!(charged.out.coverage, free.out.coverage);
        assert!(
            charged.out.elapsed > free.out.elapsed,
            "fanouts {fanouts:?}: {:?} vs {:?}",
            charged.out.elapsed,
            free.out.elapsed
        );
    }
}

#[test]
fn free_compute_is_the_plain_plane() {
    let tibs: Vec<Tib> = (0..30).map(|h| tib_with(h, 40)).collect();
    let hosts: Vec<usize> = (0..30).collect();
    for fanouts in [&[30usize][..], &[7, 4, 4], &[1]] {
        let plain = run_on(
            TreePlane::new(Loopback::default(), cfg(), tibs.clone()),
            &hosts,
            fanouts,
        );
        let free = run_on(
            TreePlane::with_compute(Loopback::default(), cfg(), tibs.clone(), Free),
            &hosts,
            fanouts,
        );
        assert_eq!(fields(&plain.out), fields(&free.out), "fanouts {fanouts:?}");
        assert_eq!((plain.frames, plain.bytes), (free.frames, free.bytes));
    }
}
