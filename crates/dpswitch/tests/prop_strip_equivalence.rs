//! Differential pin for the zero-copy datapath: the in-place
//! `DataPath::process(&mut [u8])` (MAC-relocation strip, borrowed-key
//! memory updates, reusable parse scratch) must behave bit-for-bit like
//! the retained Vec-based reference pipeline — `parse()` + owned-key
//! `TrajectoryMemory::update` + drain-based `strip_vlans` — across
//! arbitrary tag stacks, DSCP sample bits, and truncated / malformed /
//! non-IPv4 frames, in both modes:
//!
//! - identical verdicts (action and drop reason),
//! - identical post-strip frame bytes (the reference's drained Vec vs the
//!   in-place verdict span),
//! - identical `TrajectoryMemory` contents (every record's key, counts,
//!   and stime/etime) and packet/byte/error counters.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.
//!
//! The same suite pins the batch contract: `DataPath::process_batch` and
//! the ring-model `FrameBatch::run_once` must leave verdicts, post-strip
//! bytes, counters, and trajectory-memory state bit-identical to calling
//! `process` per frame, across the same malformed-input space.

use pathdump_dpswitch::{
    build_frame, parse, strip_vlans, Action, DataPath, FrameBatch, Mode, Verdict,
};
use pathdump_tib::{MemKey, TrajectoryMemory};
use pathdump_topology::{FlowId, Ip, Nanos, Protocol};
use proptest::prelude::*;
use std::collections::HashMap;

/// The seed datapath pipeline, retained as the reference: whole-frame
/// `Vec<u8>` processing, owned record keys, drain-based stripping.
struct RefDataPath {
    mode: Mode,
    l2: HashMap<[u8; 6], u16>,
    emc: HashMap<FlowId, u16>,
    memory: TrajectoryMemory,
    packets: u64,
    bytes: u64,
    errors: u64,
    clock: Nanos,
}

impl RefDataPath {
    fn new(mode: Mode) -> Self {
        RefDataPath {
            mode,
            l2: HashMap::new(),
            emc: HashMap::new(),
            memory: TrajectoryMemory::default(),
            packets: 0,
            bytes: 0,
            errors: 0,
            clock: Nanos::ZERO,
        }
    }

    fn process(&mut self, frame: &mut Vec<u8>) -> Action {
        self.packets += 1;
        self.bytes += frame.len() as u64;
        let parsed = match parse(frame) {
            Ok(p) => p,
            Err(e) => {
                self.errors += 1;
                return Action::Drop(e);
            }
        };
        if self.mode == Mode::PathDump {
            let sample_bits = (parsed.dscp >> 1) & 0x1F;
            let dscp_sample = if sample_bits == 0 {
                None
            } else {
                Some(sample_bits - 1)
            };
            let key = MemKey {
                flow: parsed.flow,
                dscp_sample,
                tags: parsed.tags.iter().rev().copied().collect(),
            };
            self.memory
                .update(key, parsed.payload_len as u32, self.clock);
            if !parsed.tags.is_empty() {
                let _ = strip_vlans(frame);
            }
        }
        if let Some(&port) = self.emc.get(&parsed.flow) {
            return Action::Forward(port);
        }
        let dst_mac: [u8; 6] = frame[0..6].try_into().expect("length checked in parse");
        match self.l2.get(&dst_mac) {
            Some(&port) => {
                self.emc.insert(parsed.flow, port);
                Action::Forward(port)
            }
            None => Action::Flood,
        }
    }
}

/// One generated frame: flow selectors, tag stack, DSCP byte, payload,
/// and a corruption to apply.
type FrameSpec = (u16, u8, Vec<u16>, u8, usize, u8, u16);

/// Builds the wire frame for a spec, including malformed shapes.
fn frame_of(spec: &FrameSpec) -> Vec<u8> {
    let (sport, proto_sel, tags, dscp, payload, corrupt, cut) = spec;
    let mut flow = FlowId::tcp(
        Ip::new(10, 0, 0, 2 + (*sport % 3) as u8),
        1024 + sport % 7,
        Ip::new(10, 1, 0, 2),
        80,
    );
    flow.proto = match proto_sel % 3 {
        0 => Protocol::Tcp,
        1 => Protocol::Udp,
        _ => Protocol::Other(200 + (proto_sel % 40)),
    };
    let mut f = build_frame(&flow, tags, dscp % 64, *payload);
    match corrupt % 8 {
        0..=3 => {} // well-formed
        4 => {
            // Truncate somewhere inside the frame.
            let keep = (*cut as usize) % (f.len() + 1);
            f.truncate(keep);
        }
        5 => {
            // Non-IPv4 ethertype under the (possibly empty) VLAN stack.
            let off = 12 + tags.len() * 4;
            f[off] = 0x86;
            f[off + 1] = 0xDD;
        }
        6 => {
            // IPv4 options (IHL = 6 words).
            f[14 + tags.len() * 4] = 0x46;
        }
        _ => {
            // Raw junk of arbitrary short length.
            f = (0..(*cut as usize % 40))
                .map(|i| (i as u8) ^ cut.to_le_bytes()[0])
                .collect();
        }
    }
    f
}

/// Asserts the two trajectory memories hold identical records.
fn assert_memories_equal(
    new: &TrajectoryMemory,
    reference: &TrajectoryMemory,
) -> Result<(), TestCaseError> {
    prop_assert_eq!(new.len(), reference.len(), "record counts diverged");
    prop_assert_eq!(new.update_count(), reference.update_count());
    for key in reference.live_keys() {
        prop_assert_eq!(
            new.snapshot(&key),
            reference.snapshot(&key),
            "record diverged for key {:?}",
            key
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn in_place_datapath_matches_vec_reference(
        pathdump_mode in any::<bool>(),
        learn in any::<bool>(),
        specs in proptest::collection::vec(
            (
                0u16..40,
                0u8..=255,
                proptest::collection::vec(0u16..4096, 0..=5),
                0u8..=255,
                0usize..48,
                0u8..=255,
                0u16..2048,
            ),
            1..10,
        ),
    ) {
        let mode = if pathdump_mode { Mode::PathDump } else { Mode::Vanilla };
        let mut dp = DataPath::new(mode);
        let mut rp = RefDataPath::new(mode);
        if learn {
            dp.learn([0x02, 0, 0, 0, 0, 0x01], 9);
            rp.l2.insert([0x02, 0, 0, 0, 0, 0x01], 9);
        }
        for (i, spec) in specs.iter().enumerate() {
            let now = Nanos(1 + i as u64);
            dp.set_clock(now);
            rp.clock = now;
            let frame = frame_of(spec);
            let mut in_place = frame.clone();
            let mut by_vec = frame;
            let verdict: Verdict = dp.process(&mut in_place);
            let ref_action = rp.process(&mut by_vec);
            prop_assert_eq!(verdict.action, ref_action, "frame {}: {:?}", i, spec);
            // Post-strip bytes: the reference's drained Vec must equal the
            // in-place verdict span (for drops both are the input frame).
            prop_assert_eq!(
                verdict.frame(&in_place),
                &by_vec[..],
                "frame {}: post-strip bytes diverged ({:?})",
                i,
                spec
            );
            prop_assert_eq!(verdict.len, by_vec.len());
        }
        prop_assert_eq!(dp.packets, rp.packets);
        prop_assert_eq!(dp.bytes, rp.bytes);
        prop_assert_eq!(dp.errors, rp.errors);
        assert_memories_equal(&dp.memory, &rp.memory)?;
    }

    /// The two-phase batched pipeline (`process_batch`, staged memory
    /// replay, once-per-batch counter fold) against the per-frame
    /// `process` path, over arbitrary/truncated/malformed/multi-tag
    /// frames split into batches of varying size with a moving clock.
    #[test]
    fn batched_datapath_matches_per_frame(
        pathdump_mode in any::<bool>(),
        learn in any::<bool>(),
        batch_size in 1usize..6,
        specs in proptest::collection::vec(
            (
                0u16..40,
                0u8..=255,
                proptest::collection::vec(0u16..4096, 0..=5),
                0u8..=255,
                0usize..48,
                0u8..=255,
                0u16..2048,
            ),
            1..12,
        ),
    ) {
        let mode = if pathdump_mode { Mode::PathDump } else { Mode::Vanilla };
        let mut single = DataPath::new(mode);
        let mut batched = DataPath::new(mode);
        if learn {
            single.learn([0x02, 0, 0, 0, 0, 0x01], 9);
            batched.learn([0x02, 0, 0, 0, 0, 0x01], 9);
        }
        let mut verdicts: Vec<Verdict> = Vec::new();
        for (w, chunk) in specs.chunks(batch_size).enumerate() {
            let now = Nanos(1 + w as u64);
            single.set_clock(now);
            batched.set_clock(now);
            let frames: Vec<Vec<u8>> = chunk.iter().map(frame_of).collect();
            let mut by_frame = frames.clone();
            let mut by_batch = frames;
            let single_verdicts: Vec<Verdict> =
                by_frame.iter_mut().map(|f| single.process(f)).collect();
            batched.process_batch(by_batch.iter_mut().map(Vec::as_mut_slice), &mut verdicts);
            prop_assert_eq!(&verdicts, &single_verdicts, "batch {}: verdicts", w);
            for (i, (bf, sf)) in by_batch.iter().zip(by_frame.iter()).enumerate() {
                prop_assert_eq!(
                    verdicts[i].frame(bf),
                    single_verdicts[i].frame(sf),
                    "batch {} frame {}: post-strip bytes diverged",
                    w,
                    i
                );
                // The whole buffers match too: both pipelines do the same
                // in-place MAC relocation.
                prop_assert_eq!(bf, sf);
            }
        }
        prop_assert_eq!(batched.packets, single.packets);
        prop_assert_eq!(batched.bytes, single.bytes);
        prop_assert_eq!(batched.errors, single.errors);
        assert_memories_equal(&batched.memory, &single.memory)?;
    }

    /// The ring model: two `FrameBatch::run_once` passes (12-byte MAC
    /// restore between passes) against per-frame processing of fresh
    /// frame clones, including drops and tagless frames whose buffers
    /// never move.
    #[test]
    fn frame_batch_ring_matches_fresh_per_frame(
        pathdump_mode in any::<bool>(),
        specs in proptest::collection::vec(
            (
                0u16..40,
                0u8..=255,
                proptest::collection::vec(0u16..4096, 0..=5),
                0u8..=255,
                0usize..48,
                0u8..=255,
                0u16..2048,
            ),
            1..10,
        ),
    ) {
        let mode = if pathdump_mode { Mode::PathDump } else { Mode::Vanilla };
        let mut ring_dp = DataPath::new(mode);
        let mut ref_dp = DataPath::new(mode);
        ring_dp.learn([0x02, 0, 0, 0, 0, 0x01], 9);
        ref_dp.learn([0x02, 0, 0, 0, 0, 0x01], 9);
        let frames: Vec<Vec<u8>> = specs.iter().map(frame_of).collect();
        let mut batch = FrameBatch::new(frames.clone());
        for pass in 0..2 {
            let ok = batch.run_once(&mut ring_dp);
            let mut ref_ok = 0usize;
            let mut ref_verdicts = Vec::new();
            for frame in &frames {
                let mut buf = frame.clone();
                let v = ref_dp.process(&mut buf);
                if !v.is_drop() {
                    ref_ok += 1;
                }
                ref_verdicts.push(v);
            }
            prop_assert_eq!(ok, ref_ok, "pass {}: forwarded counts", pass);
            prop_assert_eq!(batch.verdicts(), &ref_verdicts[..], "pass {}", pass);
        }
        prop_assert_eq!(ring_dp.packets, ref_dp.packets);
        prop_assert_eq!(ring_dp.bytes, ref_dp.bytes);
        prop_assert_eq!(ring_dp.errors, ref_dp.errors);
        assert_memories_equal(&ring_dp.memory, &ref_dp.memory)?;
    }
}
