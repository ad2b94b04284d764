//! Figure 12: top-10,000-flows query — response time and traffic, direct
//! vs multi-level. The tree discards `(n−1)·k` key-value pairs during
//! aggregation, so controller-side work stays flat while the direct
//! mechanism's response time grows linearly with host count. Both run on
//! the rpc plane, each host's execution and merges charged at their
//! measured wall time.

use pathdump_bench::{banner, direct_and_tree, fmt_bytes, row, synth_tib, Args};
use pathdump_core::Query;
use pathdump_topology::{FatTree, FatTreeParams, HostId, TimeRange};

fn main() {
    let args = Args::parse();
    let records = if args.full { 240_000 } else { 24_000 };
    let k = 10_000u32;
    banner(
        "Figure 12",
        "Top-10,000-flows query: response time and traffic",
        "direct response time grows linearly with hosts (controller merges \
         k·n pairs alone); multi-level stays steady; traffic comparable \
         (tree discards (n-1)k pairs during aggregation)",
    );
    println!("records per TIB: {records}; k = {k}");
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let max_hosts = 112.min(ft.k() * ft.k() * ft.k() / 4);
    println!("building {} synthetic TIBs...", max_hosts);
    let tibs: Vec<_> = (0..max_hosts)
        .map(|h| synth_tib(&ft, HostId(h as u32), records, args.seed))
        .collect();
    let q = Query::TopK {
        k,
        range: TimeRange::ANY,
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
            format!("{:.1}", d.elapsed.as_secs_f64() * 1e3),
            format!("{:.1}", m.elapsed.as_secs_f64() * 1e3),
            fmt_bytes(d_bytes),
            fmt_bytes(m_bytes),
        ]);
        if n >= 112 {
            // Fig 12(a)'s shape: at full size the controller's k·n merge
            // work alone outweighs the tree's extra levels.
            assert!(d.elapsed > m.elapsed, "direct must be slower at {n} hosts");
        }
    }
    println!(
        "\nresult: the multi-level mechanism scales steadily while direct \
         grows with host count, matching Fig. 12(a); traffic volumes are \
         comparable, matching Fig. 12(b)"
    );
}
