//! Oracle for the NIC-ring model: `FrameBatch` against `RefFrameBatch`,
//! the ring as it stood when every frame was held twice (`originals` and
//! `scratch`), each copy in its own `Vec`, with the 12 relocated MAC bytes
//! restored from the original between passes.
//!
//! Twin `DataPath`s drive the two rings through several passes with a
//! moving clock. After every pass the verdicts, `run_once`'s return, the
//! ring's `len` and `total_bytes`, the datapath's packet, byte and error
//! counters, and the trajectory memory (its length and `peek` of every
//! key) must be equal.
//!
//! Inputs: frames with 0–4 VLAN tags (a 4-tag strip relocates the MACs to
//! offset 16, the deepest restore), DSCP samples, frames that fail to
//! parse (truncated, five tags, not IPv4) mixed into the same ring, and
//! the empty ring.

use pathdump_dpswitch::{build_frame, DataPath, FrameBatch, Mode, Verdict};
use pathdump_topology::{FlowId, Ip, Nanos};
use proptest::prelude::*;

/// The reference ring: per-frame `Vec` scratch buffers restored from
/// per-frame `Vec` originals.
struct RefFrameBatch {
    originals: Vec<Vec<u8>>,
    scratch: Vec<Vec<u8>>,
    /// Per-frame offset the previous pass's strip relocated the MAC
    /// header to (0 = buffer still pristine). Restoring a frame only has
    /// to undo that 12-byte relocation, not recopy the whole frame.
    moved: Vec<usize>,
    /// Reusable per-pass verdict buffer for the batched pipeline.
    verdicts: Vec<Verdict>,
}

impl RefFrameBatch {
    /// Builds a batch from frames.
    fn new(frames: Vec<Vec<u8>>) -> Self {
        let scratch = frames.clone();
        let moved = vec![0; frames.len()];
        let verdicts = Vec::with_capacity(frames.len());
        RefFrameBatch {
            originals: frames,
            scratch,
            moved,
            verdicts,
        }
    }

    /// Number of frames.
    fn len(&self) -> usize {
        self.originals.len()
    }

    /// Total wire bytes in the batch.
    fn total_bytes(&self) -> u64 {
        self.originals.iter().map(|f| f.len() as u64).sum()
    }

    /// Runs every frame through the datapath once; returns the number of
    /// successfully forwarded frames.
    fn run_once(&mut self, dp: &mut DataPath) -> usize {
        for ((orig, buf), moved) in self
            .originals
            .iter()
            .zip(self.scratch.iter_mut())
            .zip(self.moved.iter())
        {
            // Undo the previous pass's MAC relocation: only bytes
            // [moved, moved+12) differ from the original.
            if *moved != 0 {
                buf[*moved..*moved + 12].copy_from_slice(&orig[*moved..*moved + 12]);
            }
        }
        dp.process_batch(
            self.scratch.iter_mut().map(Vec::as_mut_slice),
            &mut self.verdicts,
        );
        let mut ok = 0;
        for (verdict, moved) in self.verdicts.iter().zip(self.moved.iter_mut()) {
            *moved = verdict.offset;
            if !verdict.is_drop() {
                ok += 1;
            }
        }
        ok
    }

    /// Per-frame verdicts of the most recent `run_once` pass.
    fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }
}

/// One generated frame: source selector, tag stack (0–5 tags), DSCP
/// byte, payload length, corruption selector, truncation point.
type FrameSpec = (u16, Vec<u16>, u8, usize, u8, u16);

fn frame_of(spec: &FrameSpec) -> Vec<u8> {
    let (sport, tags, dscp, payload, corrupt, cut) = spec;
    let flow = FlowId::tcp(
        Ip::new(10, 0, 0, 2 + (*sport % 3) as u8),
        1024 + sport % 7,
        Ip::new(10, 1, 0, 2),
        80,
    );
    let mut f = build_frame(&flow, tags, dscp % 64, *payload);
    match corrupt % 8 {
        6 => {
            let keep = (*cut as usize) % (f.len() + 1);
            f.truncate(keep);
        }
        7 => {
            // IPv6 EtherType under the (possibly empty) VLAN stack.
            let off = 12 + tags.len() * 4;
            f[off] = 0x86;
            f[off + 1] = 0xDD;
        }
        _ => {}
    }
    f
}

/// Drives `FrameBatch` and `RefFrameBatch` over `frames` through twin
/// datapaths for `passes` passes, comparing everything after each one.
fn rings_agree(
    mode: Mode,
    learn: bool,
    frames: Vec<Vec<u8>>,
    passes: usize,
) -> Result<(), TestCaseError> {
    let mut dp = DataPath::new(mode);
    let mut ref_dp = DataPath::new(mode);
    if learn {
        dp.learn([0x02, 0, 0, 0, 0, 0x01], 9);
        ref_dp.learn([0x02, 0, 0, 0, 0, 0x01], 9);
    }
    let mut ring = FrameBatch::new(frames.clone());
    let mut reference = RefFrameBatch::new(frames);
    for pass in 0..passes {
        let now = Nanos(1 + pass as u64);
        dp.set_clock(now);
        ref_dp.set_clock(now);
        let ok = ring.run_once(&mut dp);
        let ref_ok = reference.run_once(&mut ref_dp);
        prop_assert_eq!(ok, ref_ok, "pass {}: forwarded", pass);
        prop_assert_eq!(ring.verdicts(), reference.verdicts(), "pass {}", pass);
        prop_assert_eq!(ring.len(), reference.len());
        prop_assert_eq!(ring.is_empty(), reference.len() == 0);
        prop_assert_eq!(ring.total_bytes(), reference.total_bytes());
        prop_assert_eq!(dp.packets, ref_dp.packets, "pass {}: packets", pass);
        prop_assert_eq!(dp.bytes, ref_dp.bytes, "pass {}: bytes", pass);
        prop_assert_eq!(dp.errors, ref_dp.errors, "pass {}: errors", pass);
        prop_assert_eq!(dp.memory.len(), ref_dp.memory.len(), "pass {}", pass);
        for key in ref_dp.memory.live_keys() {
            prop_assert_eq!(
                dp.memory.peek(&key),
                ref_dp.memory.peek(&key),
                "pass {}: {:?}",
                pass,
                key
            );
        }
    }
    Ok(())
}

#[test]
fn empty_ring_agrees() {
    for mode in [Mode::PathDump, Mode::Vanilla] {
        rings_agree(mode, true, Vec::new(), 3).unwrap();
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn one_buffer_ring_matches_per_frame_vec_ring(
        pathdump_mode in any::<bool>(),
        learn in any::<bool>(),
        passes in 1usize..5,
        specs in proptest::collection::vec(
            (
                0u16..40,
                proptest::collection::vec(0u16..4096, 0..=5),
                0u8..=255,
                0usize..48,
                0u8..=255,
                0u16..2048,
            ),
            0..12,
        ),
    ) {
        let mode = if pathdump_mode { Mode::PathDump } else { Mode::Vanilla };
        rings_agree(mode, learn, specs.iter().map(frame_of).collect(), passes)?;
    }
}
