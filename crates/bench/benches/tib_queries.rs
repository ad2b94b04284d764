//! Criterion micro-benchmark behind Table 1: latency of the Host API
//! queries against a paper-scale (240K-record) TIB.

use criterion::{criterion_group, criterion_main, Criterion};
use pathdump_bench::synth_tib;
use pathdump_core::{execute_on_tib, Query};
use pathdump_tib::TibRead;
use pathdump_topology::{
    FatTree, FatTreeParams, HostId, LinkDir, LinkPattern, Nanos, TimeRange, UpDownRouting,
};

fn bench_tib(c: &mut Criterion) {
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let tib = synth_tib(&ft, HostId(0), 240_000, 1);
    let probe = tib.records_vec().swap_remove(1000);
    let (flow, path) = (probe.flow, probe.path);
    let link = LinkDir::new(ft.agg(0, 0), ft.core(0));
    let tor = ft.topology().host(HostId(0)).tor;

    let mut group = c.benchmark_group("tib_240k");
    group.sample_size(20);
    group.bench_function("get_flows_link", |b| {
        b.iter(|| tib.get_flows(LinkPattern::exact(link.from, link.to), TimeRange::ANY))
    });
    group.bench_function("get_flows_wildcard_into_tor", |b| {
        b.iter(|| tib.get_flows(LinkPattern::into(tor), TimeRange::ANY))
    });
    // Ranged wildcards: one pass over the switch's posting list and the
    // time column; a record is fetched only when it overlaps the range.
    let minute = TimeRange::between(Nanos::from_secs(600), Nanos::from_secs(660));
    group.bench_function("get_flows_wildcard_into_tor_1min", |b| {
        b.iter(|| tib.get_flows(LinkPattern::into(tor), minute))
    });
    group.bench_function("link_flow_counts_into_tor_1min", |b| {
        b.iter(|| tib.link_flow_counts(LinkPattern::into(tor), minute))
    });
    group.bench_function("fsd_into_agg_10min", |b| {
        // One host's share of the `query_fsd` workload (Fig 11).
        let q = Query::FlowSizeDist {
            link: LinkPattern::into(ft.agg(0, 0)),
            range: TimeRange::between(Nanos::from_secs(600), Nanos::from_secs(1200)),
            bin_bytes: 10_000,
        };
        b.iter(|| execute_on_tib(&tib, &q))
    });
    group.bench_function("get_paths", |b| {
        b.iter(|| tib.get_paths(flow, LinkPattern::ANY, TimeRange::ANY))
    });
    group.bench_function("get_count", |b| {
        b.iter(|| tib.get_count(flow, Some(&path), TimeRange::ANY))
    });
    group.bench_function("get_duration", |b| {
        b.iter(|| tib.get_duration(flow, None, TimeRange::ANY))
    });
    group.bench_function("top_k_10000", |b| {
        b.iter(|| tib.top_k_flows(10_000, TimeRange::ANY))
    });
    group.finish();
    drop(tib);

    // The `query_topk` shape: 28 hosts' stores of 24 000 flows, each
    // asked in turn, so no call finds the previous one's lines in cache.
    let stores: Vec<_> = (0..28)
        .map(|h| synth_tib(&ft, HostId(h), 24_000, 1))
        .collect();
    let mut next = stores.iter().cycle();
    let mut group = c.benchmark_group("tib_28x24k");
    group.sample_size(20);
    group.bench_function("top_k_10000", |b| {
        b.iter(|| next.next().unwrap().top_k_flows(10_000, TimeRange::ANY))
    });
    group.finish();
}

criterion_group!(benches, bench_tib);
criterion_main!(benches);
