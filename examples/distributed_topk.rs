//! Distributed top-k demo (§2.3, §5.2): the same top-k query executed over
//! the message-passing **rpc plane** (per-hop timeouts, acks, retries) via
//! the direct mechanism and via the 4-level aggregation tree — bit-identical,
//! each host's execution and merges charged at their measured wall time —
//! plus a degraded run with a dead aggregator showing exact per-host
//! coverage.
//!
//! Run with: `cargo run --release --example distributed_topk`

use pathdump::prelude::*;
use pathdump::rpc::Measured;
use pathdump_bench_shim::synth_tib;

/// Thin local copy of the bench TIB synthesizer (examples cannot depend on
/// the bench crate).
mod pathdump_bench_shim {
    use pathdump::prelude::*;
    use pathdump::tib::TibRecord;
    use rand::rngs::SmallRng;
    use rand::{Rng, SeedableRng};

    /// Builds a synthetic TIB of `n` records for `host`.
    pub fn synth_tib(ft: &FatTree, host: HostId, n: usize, seed: u64) -> Tib {
        let mut rng = SmallRng::seed_from_u64(seed ^ (host.0 as u64) << 17);
        let topo = ft.topology();
        let num_hosts = topo.num_hosts() as u32;
        let mut tib = Tib::new();
        for i in 0..n {
            let src = loop {
                let c = HostId(rng.gen_range(0..num_hosts));
                if c != host {
                    break c;
                }
            };
            let paths = ft.all_paths(src, host);
            let path = paths[rng.gen_range(0..paths.len())].clone();
            let bytes: u64 = if rng.gen::<f64>() < 0.9 {
                rng.gen_range(200..100_000)
            } else {
                rng.gen_range(100_000..30_000_000)
            };
            let start = Nanos(rng.gen_range(0..3_600_000_000_000));
            tib.insert(TibRecord {
                flow: FlowId::tcp(
                    topo.host(src).ip,
                    1024 + (i % 60000) as u16,
                    topo.host(host).ip,
                    80,
                ),
                path,
                stime: start,
                etime: start.saturating_add(Nanos(1_000_000)),
                bytes,
                pkts: bytes / 1460 + 1,
            });
        }
        tib
    }
}

fn main() {
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let hosts = 112usize;
    let records = 10_000usize;
    println!("building {hosts} TIBs with {records} records each...");
    let tibs: Vec<Tib> = (0..hosts)
        .map(|h| synth_tib(&ft, HostId(h as u32), records, 7))
        .collect();
    let q = Query::TopK {
        k: 1000,
        range: TimeRange::ANY,
    };
    let idx: Vec<usize> = (0..hosts).collect();
    // Real frames on a modeled channel, per-hop timers; direct is the
    // one-level tree with every child in flight at once. The `rto` leaves
    // room for a leaf's measured execution before its reply leaves.
    let cfg = RpcConfig {
        rto: Nanos::from_secs(1),
        deadline: Nanos::from_secs(10),
        max_children_inflight: hosts,
        ..RpcConfig::default()
    };
    let mut plane = TreePlane::with_compute(Loopback::default(), cfg, tibs.clone(), Measured);
    println!("\ntop-1000 flows across {hosts} hosts over the rpc plane:");
    let mut answers = Vec::new();
    for (name, fanouts) in [("direct     ", &[hosts][..]), ("multi-level", &[7, 4, 4])] {
        let (bytes, frames) = (plane.channel().bytes_sent(), plane.channel().frames_sent());
        let id = plane.submit(&q, &idx, fanouts);
        let out = plane.run(id).expect("lossless plane completes");
        println!(
            "  {name}: {:>9.3} ms response, {:>8} bytes / {} frames on the wire, {}/{} hosts answered",
            out.elapsed.as_secs_f64() * 1e3,
            plane.channel().bytes_sent() - bytes,
            plane.channel().frames_sent() - frames,
            out.coverage.answered.len(),
            hosts,
        );
        answers.push(out.response);
    }
    assert_eq!(answers[0], answers[1], "both mechanisms agree bit-for-bit");
    if let Response::TopK { entries, .. } = &answers[0] {
        println!("\nheaviest 5 flows:");
        for (bytes, flow) in entries.iter().take(5) {
            println!("  {bytes:>10} B  {flow}");
        }
    }
    println!(
        "\nthe tree discards (n-1)*k key-value pairs during aggregation and \
         spreads merge work over interior hosts (§5.2)."
    );

    // Degrade it: kill one root-level aggregator. The query still returns
    // within deadline, with the dead subtree accounted host by host.
    let mut plan = FaultPlan::none(1);
    plan.dead = vec![1];
    let mut degraded = TreePlane::new(
        FaultyChannel::new(MgmtNet::default(), plan),
        RpcConfig::default(),
        tibs,
    );
    let id = degraded.submit(&q, &idx, &[7, 4, 4]);
    let out = degraded.run(id).expect("deadline guarantees completion");
    println!(
        "degraded   : aggregator host 1 dead -> {} answered, {} missed, {} timed out \
         ({:.3} ms, deadline {})",
        out.coverage.answered.len(),
        out.coverage.missed.len(),
        out.coverage.timed_out.len(),
        out.elapsed.as_secs_f64() * 1e3,
        if out.deadline_met { "met" } else { "blown" },
    );
}
