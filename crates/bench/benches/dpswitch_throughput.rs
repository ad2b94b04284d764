//! Criterion micro-benchmark behind Figure 13: per-frame processing cost
//! of the vanilla vs PathDump datapaths across packet sizes.
//!
//! The `vanilla`/`pathdump` cases drive the ring through the batched
//! pipeline (`FrameBatch::run_once` → `DataPath::process_batch`); the
//! `pathdump_frame` cases run the identical ring through per-frame
//! `DataPath::process` calls, so the recorded delta is exactly the
//! batching win (staged memory replay + once-per-batch counter fold).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use pathdump_dpswitch::{build_frame, DataPath, FrameBatch, Mode};
use pathdump_topology::{FlowId, Ip};

fn frames(pkt_size: usize, flows: usize) -> Vec<Vec<u8>> {
    let overhead = 14 + 20 + 20;
    (0..flows)
        .map(|i| {
            let flow = FlowId::tcp(
                Ip(0x0A00_0002 + (i as u32 % 4096)),
                1024 + (i % 60000) as u16,
                Ip(0x0A63_0002),
                80,
            );
            let tags: Vec<u16> = if i % 2 == 0 {
                vec![(i % 4096) as u16]
            } else {
                vec![(i % 4096) as u16, ((i * 7) % 4096) as u16]
            };
            let payload = pkt_size.saturating_sub(overhead + tags.len() * 4).max(6);
            build_frame(&flow, &tags, 0, payload)
        })
        .collect()
}

fn batch(pkt_size: usize, flows: usize) -> FrameBatch {
    FrameBatch::new(frames(pkt_size, flows))
}

/// The per-frame reference ring: `FrameBatch`'s layout (every frame
/// once, back to back in one buffer, plus its first 28 bytes to undo the
/// strip) driven frame by frame, so the `pathdump_frame` cases differ
/// from the `pathdump` ones in batching only.
struct FrameRing {
    bytes: Vec<u8>,
    ends: Vec<usize>,
    heads: Vec<[u8; 28]>,
    moved: Vec<u8>,
}

impl FrameRing {
    fn new(frames: &[Vec<u8>]) -> Self {
        let mut ring = FrameRing {
            bytes: Vec::new(),
            ends: Vec::new(),
            heads: Vec::new(),
            moved: vec![0; frames.len()],
        };
        for frame in frames {
            ring.bytes.extend_from_slice(frame);
            ring.ends.push(ring.bytes.len());
            let mut head = [0; 28];
            let n = frame.len().min(28);
            head[..n].copy_from_slice(&frame[..n]);
            ring.heads.push(head);
        }
        ring
    }

    /// The pre-batch `run_once` semantics: restore each frame's 12
    /// relocated MAC bytes from its head, then call `DataPath::process`
    /// on it.
    fn run_once_per_frame(&mut self, dp: &mut DataPath) -> usize {
        let mut ok = 0;
        let mut start = 0;
        for ((&end, head), moved) in self.ends.iter().zip(&self.heads).zip(&mut self.moved) {
            let frame = &mut self.bytes[start..end];
            start = end;
            let m = usize::from(*moved);
            if m != 0 {
                frame[m..m + 12].copy_from_slice(&head[m..m + 12]);
            }
            let v = dp.process(frame);
            *moved = v.offset as u8;
            if !v.is_drop() {
                ok += 1;
            }
        }
        ok
    }
}

fn bench_datapath(c: &mut Criterion) {
    let mut group = c.benchmark_group("dpswitch");
    group.sample_size(20);
    for &size in &[64usize, 512, 1500] {
        for (label, mode) in [("vanilla", Mode::Vanilla), ("pathdump", Mode::PathDump)] {
            group.throughput(Throughput::Elements(4096));
            group.bench_with_input(BenchmarkId::new(label, size), &size, |b, &size| {
                let mut dp = DataPath::new(mode);
                dp.learn([0x02, 0, 0, 0, 0, 0x01], 1);
                let mut batch = batch(size, 4096);
                batch.run_once(&mut dp); // warm-up: live flow records
                b.iter(|| batch.run_once(&mut dp));
            });
        }
        // The same PathDump ring through per-frame `process`, isolating
        // the batched-pipeline win in the recorded report.
        group.throughput(Throughput::Elements(4096));
        group.bench_with_input(
            BenchmarkId::new("pathdump_frame", size),
            &size,
            |b, &size| {
                let mut dp = DataPath::new(Mode::PathDump);
                dp.learn([0x02, 0, 0, 0, 0, 0x01], 1);
                let mut ring = FrameRing::new(&frames(size, 4096));
                ring.run_once_per_frame(&mut dp);
                b.iter(|| ring.run_once_per_frame(&mut dp));
            },
        );
    }
    group.finish();
}

criterion_group!(benches, bench_datapath);
criterion_main!(benches);
