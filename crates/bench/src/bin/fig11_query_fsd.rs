//! Figure 11: flow-size-distribution query — end-to-end response time and
//! management-network traffic, direct vs multi-level, vs number of hosts.
//! Both run on the rpc plane, each host's execution and merges charged at
//! their measured wall time.

use pathdump_bench::{banner, direct_and_tree, fmt_bytes, row, synth_tib, Args};
use pathdump_core::Query;
use pathdump_topology::{FatTree, FatTreeParams, HostId, LinkDir, LinkPattern, TimeRange};

fn main() {
    let args = Args::parse();
    // Paper: 240K records per TIB; default 24K to keep memory modest.
    let records = if args.full { 240_000 } else { 24_000 };
    banner(
        "Figure 11",
        "Flow-size-distribution query: response time and traffic",
        "response-time gap narrows as hosts increase (controller-side \
         aggregation of direct queries grows linearly); traffic is small \
         (~KB) either way, multi-level slightly higher",
    );
    println!("records per TIB: {records} (use --full for the paper's 240K)");
    // A k=8 fat-tree provides the host population and real links.
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let max_hosts = 112.min(ft.k() * ft.k() * ft.k() / 4);
    println!("building {} synthetic TIBs...", max_hosts);
    let tibs: Vec<_> = (0..max_hosts)
        .map(|h| synth_tib(&ft, HostId(h as u32), records, args.seed))
        .collect();
    // Query: FSD of one heavily used link (an agg->core link), 10KB bins
    // (the paper's binsize = 10000).
    let link = LinkDir::new(ft.agg(0, 0), ft.core(0));
    let q = Query::FlowSizeDist {
        link: LinkPattern::exact(link.from, link.to),
        range: TimeRange::ANY,
        bin_bytes: 10_000,
    };
    row(&[
        "hosts".into(),
        "direct(ms)".into(),
        "multi(ms)".into(),
        "direct traffic".into(),
        "multi traffic".into(),
    ]);
    let sizes = [28usize, 56, 84, 112].map(|n| n.min(max_hosts));
    for (n, [(d, d_bytes), (m, m_bytes)]) in
        sizes.into_iter().zip(direct_and_tree(tibs, &q, &sizes))
    {
        row(&[
            format!("{n}"),
            format!("{:.3}", d.elapsed.as_secs_f64() * 1e3),
            format!("{:.3}", m.elapsed.as_secs_f64() * 1e3),
            fmt_bytes(d_bytes),
            fmt_bytes(m_bytes),
        ]);
    }
    println!(
        "\nresult: direct aggregation cost grows with hosts while the tree \
         amortizes it; traffic stays in the KB range (paper Fig. 11(b))"
    );
}
