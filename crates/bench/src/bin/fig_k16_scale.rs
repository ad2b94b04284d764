//! k=16 scale smoke: drives the paper-scale fat-tree (1024 hosts, 320
//! switches) end-to-end on the simnet event loop and checks the
//! conservation invariants, so scale regressions (a run that does not
//! terminate, per-event costs that grow with the fabric) surface before
//! anyone needs a k=16 experiment.
//!
//! Usage: `cargo run --release -p pathdump_bench --bin fig_k16_scale
//! [-- --runs N] [--max-secs S]` (N = packets per host, default 100;
//! S = wall-clock budget for the measured run, 0 = unlimited). With a
//! budget, overrunning it exits nonzero — CI runs this as a *blocking*
//! scale gate, so a simulator change that tanks k=16 throughput fails the
//! pipeline instead of merely looking slow in a log.

use pathdump_bench::simnet_scale::{run_scale_with, ScaleParams};
use pathdump_bench::{banner, Args};

fn main() {
    let args = Args::parse();
    let pkts = if args.runs == 0 {
        100
    } else {
        args.runs as u32
    };
    banner(
        "k16-scale",
        "simnet smoke at paper scale (k=16 fat-tree)",
        "§5 'datacenter-scale fabrics'",
    );
    let p = ScaleParams {
        k: 16,
        pkts_per_host: pkts,
        ..ScaleParams::k8_default()
    };
    let r = run_scale_with(p);
    println!(
        "k=16: {} events in {:.3}s ({:.2}M events/sec), delivered {}/{} packets",
        r.events,
        r.wall_secs,
        r.events_per_sec / 1e6,
        r.delivered,
        r.injected
    );
    let expected = 1024 * pkts as u64;
    let mut ok = true;
    if r.injected != expected {
        eprintln!("FAIL: injected {} != expected {expected}", r.injected);
        ok = false;
    }
    if r.delivered == 0 || r.delivered < r.injected * 9 / 10 {
        eprintln!(
            "FAIL: delivery collapsed: {}/{} (queue tail-drops are the only legal loss)",
            r.delivered, r.injected
        );
        ok = false;
    }
    if args.max_secs > 0.0 {
        if r.wall_secs > args.max_secs {
            eprintln!(
                "FAIL: wall clock {:.3}s exceeded the --max-secs {} budget",
                r.wall_secs, args.max_secs
            );
            ok = false;
        } else {
            println!(
                "budget: {:.3}s of {}s wall-clock used ({:.0}% headroom)",
                r.wall_secs,
                args.max_secs,
                (1.0 - r.wall_secs / args.max_secs) * 100.0
            );
        }
    }
    if !ok {
        std::process::exit(1);
    }
    println!("ok: k=16 fabric completes");
}
