//! Criterion micro-benchmark: trajectory construction cost (the per-record
//! work of Figure 2) — cold reconstruction vs trajectory-cache hits vs the
//! memoized decode, on both the closed-form (≤2 tag) fast path and the
//! punted (≥3 tag) candidate-walk search the memo exists to amortize.
//!
//! Warm slower than cold on the fast path (`memo_warm_decode` and
//! `cached_decode` above `cold_decode`) is expected, not a regression: those
//! cases decode ≤2-tag trajectories, whose closed form is a handful of
//! arithmetic ops and cheaper than any memo or cache probe, so the warm
//! variants only add lookup overhead. The memo pays off on the punted walk:
//! `walk_memo_decode` against `walk_cold_decode`, about 200× faster.

use criterion::{criterion_group, criterion_main, Criterion};
use pathdump_cherrypick::{
    tags_for_walk, CacheKey, DecodeMemo, FatTreeCherryPick, FatTreeReconstructor, TrajectoryCache,
};
use pathdump_simnet::TagHeaders;
use pathdump_topology::{FatTree, FatTreeParams, HostId, UpDownRouting};

type Case = (HostId, HostId, TagHeaders);

/// A mix of inter-pod shortest paths (1–2 tags, closed-form decode).
fn fast_cases(ft: &FatTree, policy: &FatTreeCherryPick) -> Vec<Case> {
    (0..64u32)
        .filter_map(|i| {
            let src = HostId(i % 128);
            let dst = HostId((i * 37 + 5) % 128);
            if src == dst {
                return None;
            }
            let paths = ft.all_paths(src, dst);
            let path = &paths[i as usize % paths.len()];
            let headers = tags_for_walk(policy, ft, &path.0);
            Some((src, dst, headers))
        })
        .collect()
}

/// Punted-path shapes: 7-switch walks with a down-path bounce (3 tags),
/// decoded through the candidate-walk search.
fn punt_cases(ft: &FatTree, policy: &FatTreeCherryPick) -> Vec<Case> {
    (0..32u32)
        .map(|i| {
            let (sp, dp) = ((i % 8) as usize, ((i + 1 + i / 8) % 8) as usize);
            let (st, bt, dt) = (
                (i % 4) as usize,
                ((i + 1) % 4) as usize,
                ((i + 2) % 4) as usize,
            );
            let a = ((i / 2) % 4) as usize;
            let walk = vec![
                ft.tor(sp, st),
                ft.agg(sp, a),
                ft.core(a * 4),
                ft.agg(dp, a),
                ft.tor(dp, bt),
                ft.agg(dp, (a + 1) % 4),
                ft.tor(dp, dt),
            ];
            let headers = tags_for_walk(policy, ft, &walk);
            assert!(headers.tag_count() >= 3, "punted shape carries 3+ tags");
            let src = ft.host(sp, st, 0);
            let dst = ft.host(dp, dt, 0);
            (src, dst, headers)
        })
        .collect()
}

fn decode_all(recon: &FatTreeReconstructor, cases: &[Case]) {
    for (src, dst, headers) in cases {
        let _ = recon.reconstruct(*src, *dst, headers);
    }
}

fn decode_all_memo(recon: &FatTreeReconstructor, memo: &mut DecodeMemo, cases: &[Case]) {
    for (src, dst, headers) in cases {
        let _ = recon.reconstruct_memo(memo, *src, *dst, headers.dscp_sample(), &headers.tags);
    }
}

fn bench_reconstruct(c: &mut Criterion) {
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let policy = FatTreeCherryPick::new(ft.clone());
    let recon = FatTreeReconstructor::new(ft.clone());
    let fast = fast_cases(&ft, &policy);
    let punts = punt_cases(&ft, &policy);

    let mut group = c.benchmark_group("reconstruct");
    group.bench_function("cold_decode", |b| b.iter(|| decode_all(&recon, &fast)));
    group.bench_function("cached_decode", |b| {
        let mut cache = TrajectoryCache::new(4096);
        // Warm the cache.
        for (src, dst, headers) in &fast {
            let key = CacheKey {
                src_ip: pathdump_topology::Ip(src.0),
                dscp_sample: headers.dscp_sample(),
                tags: headers.tags.clone(),
            };
            let p = recon.reconstruct(*src, *dst, headers).unwrap();
            cache.insert(key, p);
        }
        b.iter(|| {
            for (src, _dst, headers) in &fast {
                let key = CacheKey {
                    src_ip: pathdump_topology::Ip(src.0),
                    dscp_sample: headers.dscp_sample(),
                    tags: headers.tags.clone(),
                };
                let _ = cache.lookup(&key).expect("warmed");
            }
        })
    });
    group.bench_function("memo_warm_decode", |b| {
        let mut memo = DecodeMemo::default();
        decode_all_memo(&recon, &mut memo, &fast); // warm
        b.iter(|| decode_all_memo(&recon, &mut memo, &fast))
    });
    // The candidate-walk (punted ≥3-tag) decode the memo amortizes.
    group.bench_function("walk_cold_decode", |b| {
        b.iter(|| decode_all(&recon, &punts))
    });
    group.bench_function("walk_memo_decode", |b| {
        let mut memo = DecodeMemo::default();
        decode_all_memo(&recon, &mut memo, &punts); // warm
        b.iter(|| decode_all_memo(&recon, &mut memo, &punts))
    });
    group.finish();
}

criterion_group!(benches, bench_reconstruct);
criterion_main!(benches);
