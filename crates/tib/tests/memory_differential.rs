//! Trajectory-memory differential gate: the flow-keyed
//! [`TrajectoryMemory`] must behave exactly like the flat per-record map
//! it replaced — kept here, unchanged, as the oracle — under arbitrary
//! interleavings of `update` / `update_borrowed` / `update_wire` /
//! `evict_flow` / `evict_idle` / `flush`: identical output vectors (order
//! included), first-sight booleans, `len`, `approx_bytes`, `update_count`,
//! `peek` / `snapshot` of every candidate key, and `live_keys` as a set.
//!
//! The generator leans on what the two layouts treat differently: flows
//! with up to 16 paths, stacks deeper than the inline tag capacity (two
//! of them sharing their first eight tags), zero-padded prefixes
//! (`[5]`, `[5,0]`, `[5,0,0]`), `dscp_sample` `Some`/`None`, and `Tcp` vs
//! `Other(6)` on one address/port pair.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

use pathdump_tib::{canonical_order, MemKey, PendingRecord, TrajectoryMemory};
use pathdump_topology::{FlowId, FnvBuild, Ip, Nanos, Protocol, SECONDS};
use proptest::prelude::*;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};

// ---------------------------------------------------------------------------
// The oracle: the flat-map implementation as it shipped before the
// flow-keyed layout (internals verbatim, type renamed).
// ---------------------------------------------------------------------------

/// Tags stored inline in a [`StoreKey`] before spilling to the heap.
/// Double the parser's `MAX_TAGS`, so wire-parsed keys never spill.
const INLINE_TAGS: usize = 8;

/// Internal storage key: a [`MemKey`] with the tag stack flattened into
/// the entry. Invariants:
///
/// - inline slots at index `>= tag_len` are zero (so the derived `Eq`
///   over the whole array agrees with logical tag equality);
/// - `spill` is empty unless `tag_len > INLINE_TAGS`.
#[derive(Clone, Debug)]
struct StoreKey {
    flow: FlowId,
    dscp_sample: Option<u8>,
    tag_len: u32,
    tags: [u16; INLINE_TAGS],
    spill: Box<[u16]>,
}

impl PartialEq for StoreKey {
    /// Equality is written by hand so the per-packet probe compiles to
    /// straight-line compares: the spill slice (a `bcmp` call in the
    /// derived impl, a serializing stall in the middle of the hashbrown
    /// probe loop) is only consulted for tag stacks deep enough to have
    /// one. Unused inline slots are zero on both sides (invariant above),
    /// so the whole-array compare is exact.
    #[inline]
    fn eq(&self, other: &Self) -> bool {
        self.flow == other.flow
            && self.dscp_sample == other.dscp_sample
            && self.tag_len == other.tag_len
            && self.tags == other.tags
            && (self.tag_len as usize <= INLINE_TAGS || self.spill == other.spill)
    }
}

impl Eq for StoreKey {}

impl StoreKey {
    fn empty() -> Self {
        StoreKey {
            flow: FlowId::tcp(Ip(0), 0, Ip(0), 0),
            dscp_sample: None,
            tag_len: 0,
            tags: [0; INLINE_TAGS],
            spill: Box::default(),
        }
    }

    /// Loads `key` into this scratch without allocating (unless the tag
    /// stack spills past the inline capacity).
    fn assign(&mut self, key: &MemKey) {
        self.flow = key.flow;
        self.dscp_sample = key.dscp_sample;
        self.set_tags(key.tags.iter().copied());
    }

    /// Fills the tag slots from an iterator already in push order.
    fn set_tags(&mut self, tags: impl ExactSizeIterator<Item = u16>) {
        let n = tags.len();
        self.tag_len = n as u32;
        self.tags = [0; INLINE_TAGS];
        let mut it = tags;
        for slot in self.tags.iter_mut().take(n) {
            *slot = it.next().unwrap_or(0);
        }
        if n > INLINE_TAGS {
            self.spill = it.collect();
        } else if !self.spill.is_empty() {
            self.spill = Box::default();
        }
    }

    fn from_mem_key(key: &MemKey) -> Self {
        let mut s = StoreKey::empty();
        s.assign(key);
        s
    }

    /// Reassembles the logical tag stack (push order).
    fn tags_vec(&self) -> Vec<u16> {
        let n = self.tag_len as usize;
        let used = n.min(INLINE_TAGS);
        let mut v = Vec::with_capacity(n);
        v.extend_from_slice(&self.tags[..used]);
        v.extend_from_slice(&self.spill);
        v
    }

    fn to_mem_key(&self) -> MemKey {
        MemKey {
            flow: self.flow,
            dscp_sample: self.dscp_sample,
            tags: self.tags_vec(),
        }
    }
}

impl Hash for StoreKey {
    #[inline]
    fn hash<H: Hasher>(&self, state: &mut H) {
        let f = &self.flow;
        state.write_u64(((f.src_ip.0 as u64) << 32) | f.dst_ip.0 as u64);
        // Pack ports, protocol (discriminant-tagged: `Tcp` and `Other(6)`
        // are distinct keys), DSCP sample presence+value and the tag
        // count into one word.
        let proto = match f.proto {
            Protocol::Tcp => 0u64,
            Protocol::Udp => 1,
            Protocol::Other(n) => 0x100 | n as u64,
        };
        let dscp = match self.dscp_sample {
            None => 0x100u64,
            Some(v) => v as u64,
        };
        state.write_u64(
            ((f.src_port as u64) << 48)
                | ((f.dst_port as u64) << 32)
                | (proto << 20)
                | (dscp << 8)
                | (self.tag_len as u64 & 0xFF),
        );
        let used = (self.tag_len as usize).min(INLINE_TAGS);
        for chunk in self.tags[..used].chunks(4) {
            let mut w = 0u64;
            for &t in chunk {
                w = (w << 16) | t as u64;
            }
            state.write_u64(w);
        }
        for chunk in self.spill.chunks(4) {
            let mut w = 0u64;
            for &t in chunk {
                w = (w << 16) | t as u64;
            }
            state.write_u64(w);
        }
    }
}

#[derive(Clone, Debug)]
struct MemValue {
    stime: Nanos,
    etime: Nanos,
    bytes: u64,
    pkts: u64,
}

/// Builds the exported record for an evicted (key, value) pair.
fn pending(k: &StoreKey, v: &MemValue, closed: bool) -> PendingRecord {
    PendingRecord {
        flow: k.flow,
        dscp_sample: k.dscp_sample,
        tags: k.tags_vec(),
        stime: v.stime,
        etime: v.etime,
        bytes: v.bytes,
        pkts: v.pkts,
        closed,
    }
}

/// The flat-map trajectory memory: one `StoreKey → MemValue` entry per
/// (flow, path) record, `evict_flow` by walking all of them.
#[derive(Clone, Debug)]
pub struct FlatMemory {
    records: HashMap<StoreKey, MemValue, FnvBuild>,
    /// Resident probe key, so lookups never build a key on the heap.
    probe: StoreKey,
    idle_timeout: Nanos,
    updates: u64,
    lookups: u64,
}

impl Default for FlatMemory {
    fn default() -> Self {
        FlatMemory::new(Nanos(5 * SECONDS))
    }
}

impl FlatMemory {
    /// Creates a trajectory memory with the given idle eviction timeout
    /// (the paper uses 5 seconds).
    pub fn new(idle_timeout: Nanos) -> Self {
        FlatMemory {
            records: HashMap::default(),
            probe: StoreKey::empty(),
            idle_timeout,
            updates: 0,
            lookups: 0,
        }
    }

    /// Records one packet: creates or updates the per-path flow record.
    pub fn update(&mut self, key: MemKey, bytes: u32, now: Nanos) {
        self.probe.assign(&key);
        self.touch_probe(bytes, now);
    }

    /// Allocation-free probe-and-update for the edge fast paths (datapath
    /// and host agent): looks up with a borrowed key and clones it only
    /// when the record is new (once per flow-path, not once per packet —
    /// the differential Figure 13 measures). Returns `true` when this
    /// packet *created* the record, i.e. first sight of the (flow, path)
    /// pair — the signal the agent's real-time invariant checks key on.
    #[inline]
    pub fn update_borrowed(&mut self, key: &MemKey, bytes: u32, now: Nanos) -> bool {
        self.probe.assign(key);
        self.touch_probe(bytes, now)
    }

    /// Hot-path update taking the parse products directly: the tag stack
    /// arrives **outermost-first** (exactly as `parse_into` leaves it) and
    /// is reversed into push order while filling the probe, so the caller
    /// needs no intermediate `MemKey`/`Vec` at all. The 0- and 1-tag
    /// shapes — the overwhelmingly common ones — skip the reversal loop
    /// entirely. Returns first-sight like [`Self::update_borrowed`].
    #[inline]
    pub fn update_wire(
        &mut self,
        flow: &FlowId,
        dscp_sample: Option<u8>,
        tags_outermost_first: &[u16],
        bytes: u32,
        now: Nanos,
    ) -> bool {
        self.probe.flow = *flow;
        self.probe.dscp_sample = dscp_sample;
        let n = tags_outermost_first.len();
        if n <= INLINE_TAGS {
            self.probe.tag_len = n as u32;
            self.probe.tags = [0; INLINE_TAGS];
            match tags_outermost_first {
                [] => {}
                [t] => self.probe.tags[0] = *t,
                _ => {
                    for (slot, &t) in self
                        .probe
                        .tags
                        .iter_mut()
                        .zip(tags_outermost_first.iter().rev())
                    {
                        *slot = t;
                    }
                }
            }
            if !self.probe.spill.is_empty() {
                self.probe.spill = Box::default();
            }
        } else {
            self.probe
                .set_tags(tags_outermost_first.iter().rev().copied());
        }
        self.touch_probe(bytes, now)
    }

    /// Probes with the resident scratch key and creates/bumps the record.
    ///
    /// Force-inlined: when this lookup stays a standalone function the
    /// out-of-order window can't overlap the table loads of consecutive
    /// packets, and each update eats the full cache-miss latency (~10x
    /// on the bench box). Flattened into the caller's per-packet loop the
    /// misses pipeline.
    #[inline(always)]
    fn touch_probe(&mut self, bytes: u32, now: Nanos) -> bool {
        self.updates += 1;
        self.lookups += 1;
        if let Some(v) = self.records.get_mut(&self.probe) {
            v.etime = now;
            v.bytes += bytes as u64;
            v.pkts += 1;
            false
        } else {
            self.records.insert(
                self.probe.clone(),
                MemValue {
                    stime: now,
                    etime: now,
                    bytes: bytes as u64,
                    pkts: 1,
                },
            );
            true
        }
    }

    /// Evicts every record of `flow` (FIN or RST observed), in
    /// [`canonical_order`].
    pub fn evict_flow(&mut self, flow: &FlowId, _now: Nanos) -> Vec<PendingRecord> {
        let mut out = Vec::new();
        self.records.retain(|k, v| {
            if k.flow == *flow {
                out.push(pending(k, v, true));
                false
            } else {
                true
            }
        });
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Evicts records idle longer than the timeout, in [`canonical_order`].
    pub fn evict_idle(&mut self, now: Nanos) -> Vec<PendingRecord> {
        let cutoff = now.saturating_sub(self.idle_timeout);
        let mut out = Vec::new();
        self.records.retain(|k, v| {
            if v.etime <= cutoff {
                out.push(pending(k, v, false));
                false
            } else {
                true
            }
        });
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Evicts everything (end of run / shutdown flush), in
    /// [`canonical_order`].
    pub fn flush(&mut self, _now: Nanos) -> Vec<PendingRecord> {
        let mut out: Vec<PendingRecord> = self
            .records
            .drain()
            .map(|(k, v)| pending(&k, &v, false))
            .collect();
        out.sort_unstable_by(canonical_order);
        out
    }

    /// Live records.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true when no records are active.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Total updates performed (the lookups/updates rate of §5.3).
    pub fn update_count(&self) -> u64 {
        self.updates
    }

    /// Approximate resident bytes (§5.3 storage accounting), reported in
    /// terms of the logical `MemKey` so the figure stays comparable
    /// across internal representations.
    pub fn approx_bytes(&self) -> usize {
        self.records
            .keys()
            .map(|k| {
                std::mem::size_of::<MemKey>()
                    + k.tag_len as usize * 2
                    + std::mem::size_of::<MemValue>()
            })
            .sum()
    }

    /// Peek at a live record's (bytes, pkts) for monitors.
    pub fn peek(&self, key: &MemKey) -> Option<(u64, u64)> {
        self.records
            .get(&StoreKey::from_mem_key(key))
            .map(|v| (v.bytes, v.pkts))
    }

    /// Iterates over live record keys (the agent uses this to answer
    /// queries whose window includes not-yet-exported data, §3.2 "the
    /// server agent [can] look up the trajectory memory"). Keys are
    /// materialized from the inline storage form, so the iterator yields
    /// them by value.
    pub fn live_keys(&self) -> impl Iterator<Item = MemKey> + '_ {
        self.records.keys().map(StoreKey::to_mem_key)
    }

    /// Snapshot of a live record as a pending record (not evicted).
    pub fn snapshot(&self, key: &MemKey) -> Option<PendingRecord> {
        self.records
            .get(&StoreKey::from_mem_key(key))
            .map(|v| PendingRecord {
                flow: key.flow,
                dscp_sample: key.dscp_sample,
                tags: key.tags.clone(),
                stime: v.stime,
                etime: v.etime,
                bytes: v.bytes,
                pkts: v.pkts,
                closed: false,
            })
    }
}

// ---------------------------------------------------------------------------
// The differential.
// ---------------------------------------------------------------------------

const IDLE: Nanos = Nanos(50);

/// Six flows: four plain TCP, plus a `Tcp` / `Other(6)` pair that differs
/// in nothing but the protocol's discriminant.
fn flow(i: usize) -> FlowId {
    let tcp = |sport| FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80);
    match i % 6 {
        4 => tcp(9),
        5 => FlowId {
            proto: Protocol::Other(6),
            ..tcp(9)
        },
        i => tcp(1 + i as u16),
    }
}

/// Eighteen tag stacks in push order: the zero-padded prefixes, twelve
/// two-tag paths, and two deep stacks that agree on their first eight tags.
fn tags(p: usize) -> Vec<u16> {
    match p % 18 {
        0 => vec![],
        1 => vec![5],
        2 => vec![5, 0],
        3 => vec![5, 0, 0],
        16 => (100..111).collect(),
        17 => (100..110).chain([7]).collect(),
        p => vec![p as u16, 40 + p as u16],
    }
}

fn key(f: usize, p: usize, dscp: bool) -> MemKey {
    MemKey {
        flow: flow(f),
        dscp_sample: dscp.then_some(3),
        tags: tags(p),
    }
}

fn sorted_keys(it: impl Iterator<Item = MemKey>) -> Vec<MemKey> {
    let mut v: Vec<MemKey> = it.collect();
    v.sort_unstable_by(|a, b| {
        (a.flow, a.dscp_sample, &a.tags).cmp(&(b.flow, b.dscp_sample, &b.tags))
    });
    v
}

/// One generated step: (kind, flow, path, dscp?, bytes, time advance).
type Op = (u8, usize, usize, bool, u32, u64);

fn run(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut new = TrajectoryMemory::new(IDLE);
    let mut old = FlatMemory::new(IDLE);
    let mut now = Nanos(1);
    for (step, &(kind, f, p, dscp, bytes, dt)) in ops.iter().enumerate() {
        now = Nanos(now.0 + dt);
        let k = key(f, p, dscp);
        match kind {
            0..=2 => {
                new.update(k.clone(), bytes, now);
                old.update(k.clone(), bytes, now);
            }
            3..=5 => prop_assert_eq!(
                new.update_borrowed(&k, bytes, now),
                old.update_borrowed(&k, bytes, now),
                "step {}: update_borrowed first sight",
                step
            ),
            6..=8 => {
                let wire: Vec<u16> = k.tags.iter().rev().copied().collect();
                prop_assert_eq!(
                    new.update_wire(&k.flow, k.dscp_sample, &wire, bytes, now),
                    old.update_wire(&k.flow, k.dscp_sample, &wire, bytes, now),
                    "step {}: update_wire first sight",
                    step
                );
            }
            9 | 10 => prop_assert_eq!(
                new.evict_flow(&k.flow, now),
                old.evict_flow(&k.flow, now),
                "step {}: evict_flow",
                step
            ),
            11 | 12 => prop_assert_eq!(
                new.evict_idle(now),
                old.evict_idle(now),
                "step {}: evict_idle",
                step
            ),
            _ => prop_assert_eq!(new.flush(now), old.flush(now), "step {}: flush", step),
        }
        prop_assert_eq!(new.len(), old.len(), "step {}: len", step);
        prop_assert_eq!(new.is_empty(), old.is_empty(), "step {}: is_empty", step);
        prop_assert_eq!(
            new.approx_bytes(),
            old.approx_bytes(),
            "step {}: approx_bytes",
            step
        );
        prop_assert_eq!(
            new.update_count(),
            old.update_count(),
            "step {}: update_count",
            step
        );
        prop_assert_eq!(
            sorted_keys(new.live_keys()),
            sorted_keys(old.live_keys()),
            "step {}: live_keys",
            step
        );
        for f in 0..6 {
            for p in 0..18 {
                for dscp in [false, true] {
                    let k = key(f, p, dscp);
                    prop_assert_eq!(new.peek(&k), old.peek(&k), "step {}: peek {:?}", step, k);
                    prop_assert_eq!(
                        new.snapshot(&k),
                        old.snapshot(&k),
                        "step {}: snapshot {:?}",
                        step,
                        k
                    );
                }
            }
        }
    }
    // Whatever is left comes out identically too.
    prop_assert_eq!(new.flush(now), old.flush(now), "final flush");
    prop_assert!(new.is_empty());
    prop_assert_eq!(new.len(), 0);
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Uniform mix over all flows and paths.
    #[test]
    fn flow_keyed_memory_matches_flat_map(
        ops in proptest::collection::vec(
            (0u8..14, 0usize..6, 0usize..18, any::<bool>(), 1u32..1500, 0u64..20), 0..60),
    ) {
        run(&ops)?;
    }

    /// Two flows sprayed over every path, so entries grow to 16+ paths and
    /// idle eviction thins them from either end before the FIN arrives.
    #[test]
    fn sprayed_flows_match_flat_map(
        ops in proptest::collection::vec(
            (0u8..13, 4usize..6, 0usize..18, any::<bool>(), 1u32..1500, 0u64..12), 0..80),
    ) {
        run(&ops)?;
    }
}
