//! §5.3 overheads + §3.1 data-plane resource accounting: host RAM for
//! trajectory decoding/memory/cache, disk footprint of a 240K-record TIB,
//! trajectory-memory update rate, and static switch-rule counts.

use pathdump_bench::{banner, fmt_bytes, row, synth_tib, Args};
use pathdump_cherrypick::{fattree_rule_counts, TrajectoryCache};
use pathdump_tib::{MemKey, TibRead, TrajectoryMemory};
use pathdump_topology::{FatTree, FatTreeParams, FlowId, HostId, Ip, Nanos};
use std::time::Instant;

fn main() {
    let args = Args::parse();
    let records = 240_000; // full paper scale is cheap enough to always run
    banner(
        "§5.3 + §3.1",
        "End-host and data-plane resource overheads",
        "~10MB RAM for decoding/memory/cache; ~110MB disk per 240K records \
         (MongoDB); 0.8-3.6M memory lookups/updates per second; rules grow \
         linearly with port density",
    );

    // --- storage: TIB snapshot (disk) ---
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let tib = synth_tib(&ft, HostId(0), records, args.seed);
    let snap = pathdump_wire::encoded_len(&tib);
    println!("\nTIB disk footprint ({records} records, binary snapshot):");
    row(&[
        "records".into(),
        "snapshot".into(),
        "bytes/record".into(),
        "paper (MongoDB)".into(),
    ]);
    row(&[
        format!("{records}"),
        fmt_bytes(snap as u64),
        format!("{:.1}", snap as f64 / records as f64),
        "~110MB (~480B/rec)".into(),
    ]);

    // --- RAM: trajectory memory + cache at working-set size ---
    let mut mem = TrajectoryMemory::default();
    for i in 0..4096u32 {
        mem.update(
            MemKey {
                flow: FlowId::tcp(Ip(0x0A000002 + i), (i % 60000) as u16, Ip(0x0A630002), 80),
                dscp_sample: None,
                tags: vec![(i % 4096) as u16, ((i * 3) % 4096) as u16],
            },
            1460,
            Nanos(i as u64),
        );
    }
    let mut cache = TrajectoryCache::new(4096);
    for rec in tib.records_vec().iter().take(4096) {
        cache.insert(
            pathdump_cherrypick::CacheKey {
                src_ip: rec.flow.src_ip,
                dscp_sample: None,
                tags: vec![1, 2],
            },
            rec.path.clone(),
        );
    }
    println!("\nresident memory (working set):");
    row(&["component".into(), "entries".into(), "approx bytes".into()]);
    row(&[
        "trajectory memory".into(),
        format!("{}", mem.len()),
        fmt_bytes(mem.approx_bytes() as u64),
    ]);
    row(&[
        "trajectory cache".into(),
        format!("{}", cache.len()),
        fmt_bytes(cache.approx_bytes() as u64),
    ]);
    row(&[
        "TIB indexes+records".into(),
        format!("{}", tib.len()),
        fmt_bytes(tib.approx_bytes() as u64),
    ]);
    println!("paper: ~10MB RAM total for decoding + memory + cache");

    // --- update rate: lookups/updates per second with ~4K live records ---
    let mut mem2 = TrajectoryMemory::default();
    let keys: Vec<MemKey> = (0..4096u32)
        .map(|i| MemKey {
            flow: FlowId::tcp(Ip(0x0A000002 + i), (i % 60000) as u16, Ip(0x0A630002), 80),
            dscp_sample: None,
            tags: vec![(i % 4096) as u16],
        })
        .collect();
    let t0 = Instant::now();
    let mut n = 0u64;
    while t0.elapsed().as_secs_f64() < 0.5 {
        for k in &keys {
            mem2.update(k.clone(), 1460, Nanos(n));
            n += 1;
        }
    }
    let rate = n as f64 / t0.elapsed().as_secs_f64() / 1e6;
    println!(
        "\ntrajectory-memory update rate: {rate:.1}M updates/s \
         (paper: 0.8-3.6M lookups/updates per second)"
    );

    // --- switch rules (§3.1): linear in port density ---
    println!("\nstatic tagging-rule footprint (fat-tree):");
    row(&["k".into(), "max rules/switch".into(), "total rules".into()]);
    for k in [4u16, 8, 16, 48] {
        let ft = FatTree::build(FatTreeParams { k });
        let counts = fattree_rule_counts(&ft);
        let max = counts.iter().map(|(_, rc)| rc.total()).max().unwrap_or(0);
        let total: usize = counts.iter().map(|(_, rc)| rc.total()).sum();
        row(&[format!("{k}"), format!("{max}"), format!("{total}")]);
    }
    println!("result: 2 rules per switch-facing ingress port + 1 punt rule — linear in k");
}
