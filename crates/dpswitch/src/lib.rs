//! Userspace software datapath — the OVS+DPDK analogue used by the
//! Figure 13 edge-throughput experiment.
//!
//! Two pipelines over real packet bytes:
//! - **vanilla**: parse Ethernet/VLAN/IPv4/TCP, L2 lookup, forward;
//! - **PathDump**: the same, plus trajectory-sample extraction, a
//!   trajectory-memory update keyed by (flow, link IDs), and in-place
//!   VLAN-stack stripping before the packet reaches the upper stack.
//!
//! [`DataPath::process`] works **in place** on `&mut [u8]`: the frame is
//! parsed where it sits ([`parse_into`] reuses a scratch) and the VLAN
//! stack is stripped by relocating the 12-byte MAC header forward over
//! the tags ([`strip_vlans_prefix`]), so the returned [`Verdict`] names
//! the stripped frame's span (`verdict.frame(&buf)`).
//! [`DataPath::process_batch`] runs an iterator of frame slices through
//! the same pipeline and replays their trajectory-memory updates in one
//! pass, bit-identical to per-frame calls. [`FrameBatch`] is the NIC
//! ring: one buffer holding each frame once, plus each frame's first
//! 28 bytes to undo the strip between passes. Warm, the pipeline makes
//! no heap allocation per frame. The `datapath` module docs give both
//! contracts in full.
//!
//! The paper measures ≤4% throughput loss for the PathDump pipeline over
//! vanilla DPDK vSwitch at 64–1500 B packet sizes with ~4K live flow
//! records; `pathdump-bench` regenerates that comparison.

pub mod datapath;
pub mod parse;

pub use datapath::{Action, DataPath, FrameBatch, Mode, Verdict};
pub use parse::{
    build_frame, ipv4_checksum, parse, parse_into, strip_vlans, strip_vlans_prefix, ParseError,
    Parsed,
};
