//! The userspace software datapath: a vanilla L2/L3 forwarding pipeline and
//! the PathDump-enabled variant that additionally extracts trajectory
//! samples, updates the trajectory memory, and strips the tags before
//! handing the packet to the upper stack — "about 150 lines of C added to
//! OVS" in the paper (§3.2), reproduced here for the Figure 13 experiment.
//!
//! # The in-place datapath contract
//!
//! [`DataPath::process`] operates on `&mut [u8]` and never moves the frame
//! through the heap: tag stripping relocates the 12-byte MAC header
//! forward over the VLAN stack with a constant-size `copy_within`
//! ([`strip_vlans_prefix`]), and the returned [`Verdict`] carries the span
//! (`offset`, `len`) of the valid frame inside the buffer. Callers hand
//! `&buf[verdict.offset..][..verdict.len]` to the upper stack; bytes
//! before the offset are dead. On the steady state (live flow records,
//! warm EMC) the whole per-frame pipeline performs **zero heap
//! allocations** — pinned by the `zero_alloc_run_once` test and the
//! differential `prop_strip_equivalence` suite.
//!
//! # The batch contract
//!
//! [`DataPath::process_batch`] drives a whole ring of frames through the
//! same pipeline in two phases: a streaming parse/classify/strip pass
//! (per-frame verdicts land in a caller-supplied buffer, trajectory
//! updates are queued into a reusable slot vector), then one tight pass
//! over the trajectory memory. Counters fold in once per batch instead of
//! once per frame, and the queued memory updates replay in frame order,
//! so verdicts, counters and memory state are **bit-identical** to
//! calling [`DataPath::process`] per frame — the equivalence the
//! `prop_strip_equivalence` suite pins. The single-tag specialization
//! fires inside `parse_into` (one u64 EtherType window) and
//! `TrajectoryMemory::update_wire` (no tag-reversal loop) for 0/1-tag
//! frames, the overwhelmingly common shapes.
//!
//! [`FrameBatch::run_once`] layers the NIC-ring model on top: between
//! passes it restores only the 12 relocated MAC bytes of each stripped
//! frame (`moved != 0`) rather than recopying whole buffers, then calls
//! `process_batch` once. After the first pass (which sizes the reusable
//! slot/verdict buffers) the steady state allocates nothing.

use crate::parse::{parse_into, strip_vlans_prefix, ParseError, Parsed, MAX_TAGS};
use pathdump_tib::TrajectoryMemory;
use pathdump_topology::{FlowId, FnvBuild, Nanos};
use std::collections::HashMap;

/// Forwarding action for one frame.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Action {
    /// Forward out of a port.
    Forward(u16),
    /// Flood (destination MAC unknown).
    Flood,
    /// Drop (parse error); carries the reason.
    Drop(ParseError),
}

/// Forwarding verdict for one frame processed in place: the action plus
/// the span of the (possibly tag-stripped) frame within the buffer.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct Verdict {
    /// What to do with the frame.
    pub action: Action,
    /// Byte offset where the valid frame now starts (non-zero exactly
    /// when a VLAN stack was stripped in PathDump mode).
    pub offset: usize,
    /// Valid frame length from `offset`.
    pub len: usize,
}

impl Verdict {
    /// True when the frame was dropped (parse error).
    pub fn is_drop(&self) -> bool {
        matches!(self.action, Action::Drop(_))
    }

    /// The valid frame span inside the processed buffer.
    pub fn frame<'a>(&self, buf: &'a [u8]) -> &'a [u8] {
        &buf[self.offset..self.offset + self.len]
    }
}

/// Operating mode of the datapath.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Mode {
    /// Vanilla forwarding only (the Figure 13 baseline "vSwitch").
    Vanilla,
    /// PathDump-enabled: extract samples, update trajectory memory, strip
    /// tags ("PathDump" in Figure 13).
    PathDump,
}

/// The software switch.
pub struct DataPath {
    mode: Mode,
    /// Destination-MAC learning table (MAC bytes → port).
    l2: HashMap<[u8; 6], u16>,
    /// The exact-match flow cache (OVS's EMC): every packet classifies
    /// against it in *both* modes — this is baseline vSwitch work, shared
    /// with the PathDump pipeline exactly as in the paper's patched OVS.
    emc: HashMap<FlowId, u16, FnvBuild>,
    /// The PathDump trajectory memory updated on every packet.
    pub memory: TrajectoryMemory,
    /// Frames processed.
    pub packets: u64,
    /// Bytes processed.
    pub bytes: u64,
    /// Parse failures.
    pub errors: u64,
    clock: Nanos,
    /// Reusable parse output so the per-packet path does not allocate.
    parsed: Parsed,
    /// Queued trajectory-memory updates of the current batch (phase two
    /// of `process_batch`); capacity persists across batches.
    mem_ops: Vec<MemOp>,
}

/// One queued trajectory-memory update: the parse products a PathDump
/// frame contributes, staged so the batch pipeline can replay all map
/// probes in one tight pass. Tags stay in parse (outermost-first) order;
/// `TrajectoryMemory::update_wire` reverses them while building its probe.
#[derive(Clone, Copy)]
struct MemOp {
    flow: FlowId,
    dscp_sample: Option<u8>,
    payload_len: u32,
    tag_len: u8,
    tags: [u16; MAX_TAGS],
}

impl DataPath {
    /// Builds a datapath in the given mode.
    pub fn new(mode: Mode) -> Self {
        DataPath {
            mode,
            l2: HashMap::new(),
            emc: HashMap::default(),
            memory: TrajectoryMemory::default(),
            packets: 0,
            bytes: 0,
            errors: 0,
            clock: Nanos::ZERO,
            parsed: Parsed::scratch(),
            mem_ops: Vec::new(),
        }
    }

    /// The operating mode.
    pub fn mode(&self) -> Mode {
        self.mode
    }

    /// Installs an L2 entry.
    pub fn learn(&mut self, mac: [u8; 6], port: u16) {
        self.l2.insert(mac, port);
    }

    /// Advances the datapath clock (used to timestamp memory updates).
    pub fn set_clock(&mut self, now: Nanos) {
        self.clock = now;
    }

    /// Processes one frame in place. In PathDump mode the VLAN stack is
    /// stripped by relocating the MAC header forward (as OVS pops VLANs
    /// before the upper stack sees the packet); the returned [`Verdict`]
    /// carries the stripped frame's span within `frame`. No heap
    /// allocation happens on the steady state.
    pub fn process(&mut self, frame: &mut [u8]) -> Verdict {
        self.packets += 1;
        self.bytes += frame.len() as u64;
        if let Err(e) = parse_into(frame, &mut self.parsed) {
            self.errors += 1;
            return Verdict {
                action: Action::Drop(e),
                offset: 0,
                len: frame.len(),
            };
        }
        // The strip relocates the MACs; read the destination MAC first.
        let dst_mac: [u8; 6] = frame[0..6].try_into().expect("length checked in parse");
        let mut offset = 0;
        if self.mode == Mode::PathDump {
            // The per-packet PathDump work (Figure 2's "create/update
            // per-path flow record with link IDs"): DSCP bit 0 is the
            // hop-parity bit, bits 1..6 hold the VL2 sample; the tag
            // stack goes to the memory straight from the parse scratch
            // (update_wire reverses it into push order in its probe).
            let sample_bits = (self.parsed.dscp >> 1) & 0x1F;
            let dscp_sample = if sample_bits == 0 {
                None
            } else {
                Some(sample_bits - 1)
            };
            self.memory.update_wire(
                &self.parsed.flow,
                dscp_sample,
                &self.parsed.tags,
                self.parsed.payload_len as u32,
                self.clock,
            );
            offset = strip_vlans_prefix(frame, self.parsed.tags.len());
        }
        let len = frame.len() - offset;
        // Flow classification (EMC), then L2 on a miss — the vanilla
        // vSwitch fast path.
        let flow = self.parsed.flow;
        if let Some(&port) = self.emc.get(&flow) {
            return Verdict {
                action: Action::Forward(port),
                offset,
                len,
            };
        }
        let action = match self.l2.get(&dst_mac) {
            Some(&port) => {
                self.emc.insert(flow, port);
                Action::Forward(port)
            }
            None => Action::Flood,
        };
        Verdict {
            action,
            offset,
            len,
        }
    }

    /// Processes a whole batch of frames in place — the ring-polling fast
    /// path (see the module docs' batch contract). `verdicts` is cleared
    /// and refilled with one [`Verdict`] per frame, in order.
    ///
    /// Phase one streams over the frames: parse into the reusable scratch,
    /// stage the trajectory update into a slot, strip the VLAN stack and
    /// classify (EMC, then L2). Phase two replays the staged memory
    /// updates in frame order, so the map probes run back-to-back instead
    /// of interleaved with parsing. Counters fold in once per batch.
    /// Observable state afterwards is bit-identical to calling
    /// [`Self::process`] on each frame in order.
    pub fn process_batch(&mut self, frames: &mut [Vec<u8>], verdicts: &mut Vec<Verdict>) {
        verdicts.clear();
        verdicts.reserve(frames.len());
        self.mem_ops.clear();
        self.mem_ops.reserve(frames.len());
        let mut bytes = 0u64;
        let mut errors = 0u64;
        let pathdump = self.mode == Mode::PathDump;
        for frame in frames.iter_mut() {
            bytes += frame.len() as u64;
            if let Err(e) = parse_into(frame, &mut self.parsed) {
                errors += 1;
                verdicts.push(Verdict {
                    action: Action::Drop(e),
                    offset: 0,
                    len: frame.len(),
                });
                continue;
            }
            let dst_mac: [u8; 6] = frame[0..6].try_into().expect("length checked in parse");
            let mut offset = 0;
            if pathdump {
                let sample_bits = (self.parsed.dscp >> 1) & 0x1F;
                let mut op = MemOp {
                    flow: self.parsed.flow,
                    dscp_sample: if sample_bits == 0 {
                        None
                    } else {
                        Some(sample_bits - 1)
                    },
                    payload_len: self.parsed.payload_len as u32,
                    tag_len: self.parsed.tags.len() as u8,
                    tags: [0; MAX_TAGS],
                };
                op.tags[..self.parsed.tags.len()].copy_from_slice(&self.parsed.tags);
                self.mem_ops.push(op);
                offset = strip_vlans_prefix(frame, self.parsed.tags.len());
            }
            let len = frame.len() - offset;
            let flow = self.parsed.flow;
            let action = if let Some(&port) = self.emc.get(&flow) {
                Action::Forward(port)
            } else {
                match self.l2.get(&dst_mac) {
                    Some(&port) => {
                        self.emc.insert(flow, port);
                        Action::Forward(port)
                    }
                    None => Action::Flood,
                }
            };
            verdicts.push(Verdict {
                action,
                offset,
                len,
            });
        }
        for op in &self.mem_ops {
            self.memory.update_wire(
                &op.flow,
                op.dscp_sample,
                &op.tags[..op.tag_len as usize],
                op.payload_len,
                self.clock,
            );
        }
        self.packets += frames.len() as u64;
        self.bytes += bytes;
        self.errors += errors;
    }
}

/// A reusable batch of frames for throughput experiments, with per-frame
/// scratch buffers (modeling an NIC ring).
pub struct FrameBatch {
    originals: Vec<Vec<u8>>,
    scratch: Vec<Vec<u8>>,
    /// Per-frame offset the previous pass's strip relocated the MAC
    /// header to (0 = buffer still pristine). Restoring a frame only has
    /// to undo that 12-byte relocation, not recopy the whole frame.
    moved: Vec<usize>,
    /// Reusable per-pass verdict buffer for the batched pipeline.
    verdicts: Vec<Verdict>,
}

impl FrameBatch {
    /// Builds a batch from frames.
    pub fn new(frames: Vec<Vec<u8>>) -> Self {
        let scratch = frames.clone();
        let moved = vec![0; frames.len()];
        let verdicts = Vec::with_capacity(frames.len());
        FrameBatch {
            originals: frames,
            scratch,
            moved,
            verdicts,
        }
    }

    /// Number of frames.
    pub fn len(&self) -> usize {
        self.originals.len()
    }

    /// Returns true if the batch is empty.
    pub fn is_empty(&self) -> bool {
        self.originals.is_empty()
    }

    /// Total wire bytes in the batch.
    pub fn total_bytes(&self) -> u64 {
        self.originals.iter().map(|f| f.len() as u64).sum()
    }

    /// Runs every frame through the datapath once (so tag-stripping runs
    /// each time), allocation- and copy-free in the steady state: the
    /// in-place strip only relocates 12 bytes, so restoring a scratch
    /// buffer from its original is a 12-byte copy rather than a
    /// full-frame round-trip, and the whole ring then goes through
    /// [`DataPath::process_batch`] in one call. Returns the number of
    /// successfully forwarded frames.
    pub fn run_once(&mut self, dp: &mut DataPath) -> usize {
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
        dp.process_batch(&mut self.scratch, &mut self.verdicts);
        let mut ok = 0;
        for (verdict, moved) in self.verdicts.iter().zip(self.moved.iter_mut()) {
            *moved = verdict.offset;
            if !verdict.is_drop() {
                ok += 1;
            }
        }
        ok
    }

    /// Per-frame verdicts of the most recent [`Self::run_once`] pass.
    pub fn verdicts(&self) -> &[Verdict] {
        &self.verdicts
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::build_frame;
    use pathdump_tib::MemKey;
    use pathdump_topology::{FlowId, Ip};

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    #[test]
    fn vanilla_forwards_without_touching_tags() {
        let mut dp = DataPath::new(Mode::Vanilla);
        dp.learn([0x02, 0, 0, 0, 0, 0x01], 7);
        let mut f = build_frame(&flow(1), &[100, 200], 3, 64);
        let before = f.clone();
        let v = dp.process(&mut f);
        assert_eq!(v.action, Action::Forward(7));
        assert_eq!((v.offset, v.len), (0, before.len()));
        assert_eq!(f, before, "vanilla mode must not modify the frame");
        assert_eq!(dp.memory.len(), 0, "no trajectory state in vanilla mode");
    }

    #[test]
    fn pathdump_strips_and_records() {
        let mut dp = DataPath::new(Mode::PathDump);
        dp.learn([0x02, 0, 0, 0, 0, 0x01], 3);
        let mut f = build_frame(&flow(1), &[100, 200], 0, 64);
        let tagged_len = f.len();
        let v = dp.process(&mut f);
        assert_eq!(v.action, Action::Forward(3));
        assert_eq!(v.len, tagged_len - 8, "two tags stripped");
        assert_eq!(v.offset, 8, "MAC header relocated over the stack");
        let stripped = v.frame(&f);
        assert_eq!(
            crate::parse::parse(stripped).unwrap().tags,
            Vec::<u16>::new(),
            "stripped span parses tag-free"
        );
        assert_eq!(dp.memory.len(), 1);
        // Push order: innermost tag first (tags parse outermost-first).
        let key = MemKey {
            flow: flow(1),
            dscp_sample: None,
            tags: vec![200, 100],
        };
        assert_eq!(dp.memory.peek(&key), Some((64, 1)));
    }

    #[test]
    fn per_path_aggregation_in_memory() {
        let mut dp = DataPath::new(Mode::PathDump);
        for _ in 0..5 {
            let mut f = build_frame(&flow(9), &[42], 0, 100);
            dp.process(&mut f);
        }
        for _ in 0..3 {
            let mut f = build_frame(&flow(9), &[43], 0, 100);
            dp.process(&mut f);
        }
        assert_eq!(dp.memory.len(), 2, "two paths, two records");
        let k42 = MemKey {
            flow: flow(9),
            dscp_sample: None,
            tags: vec![42],
        };
        assert_eq!(dp.memory.peek(&k42), Some((500, 5)));
    }

    #[test]
    fn dscp_sample_decoded() {
        let mut dp = DataPath::new(Mode::PathDump);
        // DSCP bits: sample value 3 stored as (3+1)<<1 = 8.
        let mut f = build_frame(&flow(2), &[], (3 + 1) << 1, 10);
        dp.process(&mut f);
        let key = MemKey {
            flow: flow(2),
            dscp_sample: Some(3),
            tags: vec![],
        };
        assert!(dp.memory.peek(&key).is_some());
    }

    #[test]
    fn unknown_mac_floods_and_errors_counted() {
        let mut dp = DataPath::new(Mode::PathDump);
        let mut f = build_frame(&flow(3), &[], 0, 10);
        assert_eq!(dp.process(&mut f).action, Action::Flood);
        let mut junk = vec![0u8; 6];
        assert!(dp.process(&mut junk).is_drop());
        assert_eq!(dp.errors, 1);
        assert_eq!(dp.packets, 2);
    }

    #[test]
    fn batch_replays_consistently() {
        let frames: Vec<Vec<u8>> = (0..50)
            .map(|i| build_frame(&flow(i), &[i % 4096], 0, 200))
            .collect();
        let mut batch = FrameBatch::new(frames);
        let mut dp = DataPath::new(Mode::PathDump);
        for _ in 0..3 {
            assert_eq!(batch.run_once(&mut dp), 50);
        }
        assert_eq!(dp.packets, 150);
        assert_eq!(dp.memory.len(), 50, "50 distinct flow-path records");
        let key = MemKey {
            flow: flow(0),
            dscp_sample: None,
            tags: vec![0],
        };
        assert_eq!(dp.memory.peek(&key), Some((600, 3)), "3 passes counted");
    }

    #[test]
    fn batch_restore_is_exact_across_mixed_tag_stacks() {
        // Frames with 0..=3 tags: the 12-byte prefix restore must hand
        // process() a bit-identical frame every pass (same verdicts, same
        // per-pass memory counts).
        let frames: Vec<Vec<u8>> = (0..12u16)
            .map(|i| {
                let tags: Vec<u16> = (0..(i % 4)).map(|t| 100 + i * 4 + t).collect();
                build_frame(&flow(i), &tags, 0, 64)
            })
            .collect();
        let mut batch = FrameBatch::new(frames.clone());
        let mut dp = DataPath::new(Mode::PathDump);
        for pass in 1..=4u64 {
            assert_eq!(batch.run_once(&mut dp), 12);
            for (i, f) in frames.iter().enumerate() {
                let tags: Vec<u16> = (0..(i as u16 % 4))
                    .map(|t| 100 + i as u16 * 4 + t)
                    .rev()
                    .collect();
                let key = MemKey {
                    flow: flow(i as u16),
                    dscp_sample: None,
                    tags,
                };
                let (_, pkts) = dp.memory.peek(&key).unwrap();
                assert_eq!(pkts, pass, "frame {i} (len {}) counted once/pass", f.len());
            }
        }
    }
}
