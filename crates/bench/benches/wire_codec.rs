//! Criterion micro-benchmark: wire codec throughput for TIB records and
//! query responses (the serialization on the Figure 11/12 management path),
//! and what else one top-k reply costs on one edge of the aggregation
//! tree: its CRC, its frame, and its merge into the parent's answer.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion, Throughput};
use pathdump_bench::report::CRC_CASE_BYTES;
use pathdump_bench::{codec_topk_reply, synth_tib};
use pathdump_core::Response;
use pathdump_tib::{TibRead, TibRecord};
use pathdump_topology::{FatTree, FatTreeParams, HostId, TimeRange};

fn bench_codec(c: &mut Criterion) {
    let ft = FatTree::build(FatTreeParams { k: 8 });
    let tib = synth_tib(&ft, HostId(0), 10_000, 1);
    let records: Vec<TibRecord> = tib.records_vec();
    let encoded = pathdump_wire::to_bytes(&records);
    let topk = codec_topk_reply();
    let topk_bytes = pathdump_wire::to_bytes(&topk);

    let mut group = c.benchmark_group("wire");
    group.throughput(Throughput::Bytes(encoded.len() as u64));
    group.bench_function("encode_10k_records", |b| {
        b.iter(|| pathdump_wire::to_bytes(&records))
    });
    group.bench_function("encode_10k_records_into", |b| {
        // The streaming path: one buffer reused across iterations.
        let mut buf = Vec::with_capacity(encoded.len());
        b.iter(|| {
            buf.clear();
            pathdump_wire::encode_into(&records, &mut buf);
            buf.len()
        })
    });
    group.bench_function("decode_10k_records", |b| {
        b.iter(|| pathdump_wire::from_bytes::<Vec<TibRecord>>(&encoded).unwrap())
    });
    group.throughput(Throughput::Bytes(topk_bytes.len() as u64));
    group.bench_function("encode_topk_response", |b| {
        b.iter(|| pathdump_wire::to_bytes(&topk))
    });
    group.bench_function("decode_topk_response", |b| {
        b.iter(|| pathdump_wire::from_bytes::<Response>(&topk_bytes).unwrap())
    });
    // What a 10 000-entry reply is charged per tree edge besides its
    // codec: the checksum (once by the sender, once by the receiver) and
    // the frame around it, built in place and parsed without a copy.
    let body = vec![0xA5u8; CRC_CASE_BYTES];
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("crc32_160k", |b| {
        b.iter(|| pathdump_wire::crc::crc32(&body))
    });
    let framed_len = pathdump_wire::FRAME_OVERHEAD + topk_bytes.len();
    group.throughput(Throughput::Bytes(framed_len as u64));
    group.bench_function("frame_topk_roundtrip", |b| {
        b.iter(|| {
            let wire = pathdump_wire::Frame::build(0x11, &topk);
            let (_, payload, _) = pathdump_wire::Frame::parse(&wire).unwrap();
            pathdump_wire::from_bytes::<Response>(payload).unwrap()
        })
    });
    group.finish();

    // `Response::merge` at one edge of the Figure 12 tree: two hosts' own
    // top 10 000, sorted and disjoint (a flow ends at one host).
    let other = Response::TopK {
        k: 10_000,
        entries: synth_tib(&ft, HostId(1), 10_000, 1).top_k_flows(10_000, TimeRange::ANY),
    };
    let mut group = c.benchmark_group("query");
    group.throughput(Throughput::Elements(20_000));
    group.bench_function("merge_topk_10k", |b| {
        b.iter_batched(
            || (topk.clone(), other.clone()),
            |(mut acc, child)| {
                acc.merge(child);
                acc
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();
}

criterion_group!(benches, bench_codec);
criterion_main!(benches);
