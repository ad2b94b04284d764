//! The Trajectory Information Base: an indexed, queryable store of
//! per-path flow records (replacing the paper's MongoDB instance).
//!
//! # Storage layout
//!
//! Records are kept in one insertion-ordered arena (`records`, ids are
//! arena offsets). Beside it sits the **time column** `times`: each
//! record's `(stime, etime)` again, 16 bytes per id. Every walk of an id
//! list tests the range there and fetches the 72-byte record only when it
//! overlaps, so a ranged query touches the records it counts and no
//! others.
//!
//! The **flow table** (`flows`) is the store's dictionary: one FNV map
//! `FlowId → u32` beside two dense columns, `order` (the flows by first
//! appearance) and `totals` (each flow's running `(bytes, pkts)`); a flow's
//! *index* is its position in both. `insert` probes that map once. What
//! else the store keeps per flow — `by_flow`'s posting lists, a bucket's
//! pre-sums, a switch's "already listed" bit — is keyed by the index, and
//! the all-time answers (`get_flows(ANY, ANY)`, `get_count(.., ANY)`,
//! `top_k_flows(k, ANY)`, the `(ANY, ANY)` traversal) read the columns. A
//! [`TieredTib`](crate::segment::TieredTib) keeps one more such table
//! across its segments. Three families of indexes hang off it:
//!
//! - **Posting lists** — `by_flow` (flow index → ids; a flow's first id is
//!   held inline) and `by_link` (directed link → ids, an FNV map) serve the
//!   exact-match Host API lookups (`getPaths`, `getCount`, `getDuration`,
//!   exact-link `getFlows`).
//! - **Switch tables** — `by_switch_in` / `by_switch_out` are `Vec`s
//!   indexed by `SwitchId.0`, grown to the largest id seen (an unused slot
//!   costs three empty `Vec`s). A slot holds the ids of every record whose
//!   path enters / leaves the switch, the deduplicated flows among them in
//!   the order they first came by, and one bit per flow index that says a
//!   flow is already in that list. Wildcard link patterns `<?, Sj>` and
//!   `<Si, ?>` resolve in one array access instead of iterating every
//!   `by_link` key, and filing a record hashes nothing here.
//! - **Time buckets** — records land in fixed-width stime buckets
//!   (default [`DEFAULT_BUCKET_WIDTH`], ~O(√n) buckets at the paper's
//!   240K-records-per-hour Table-1 scale); each bucket carries its own
//!   totals per flow index and the max etime of its records. A `timeRange`
//!   aggregate sums whole buckets that lie inside the range and
//!   clamp-scans only the boundary buckets.
//!
//! # Time-boundary convention
//!
//! Two interval conventions meet in this module and must not be mixed up:
//!
//! - A **`TimeRange` is closed on both ends**: a record matches when its
//!   `[stime, etime]` span intersects `[start, end]` inclusively
//!   (`etime >= start && stime <= end`). A record whose `etime` equals
//!   `range.start`, or whose `stime` equals `range.end`, *is* a match —
//!   and a zero-duration record (`stime == etime`) matches any range
//!   containing that instant.
//! - A **bucket's stime span is half-open**: bucket `k` owns stimes in
//!   `[k·w, (k+1)·w)`, i.e. a record whose stime is an exact multiple of
//!   the width starts the *next* bucket (`stime / width` rounds down).
//!
//! The translation happens in exactly two places: `bucket_contained`
//! converts bucket `k`'s half-open span to its inclusive last stime
//! (`k·w + w − 1`) before comparing against the closed range, and
//! `live_buckets` maps the inclusive range end to the *inclusive* last
//! bucket index `end / w`. Everything else re-checks candidates against
//! their own span, so bucket pruning only ever has to be a superset.
//! `prop_equivalence`'s boundary-aligned case pins these edges (records
//! and range endpoints exactly on width multiples) against the
//! linear-scan reference.
//!
//! Records are assumed well-formed (`stime <= etime`); a record with
//! `etime < stime` could be double-counted by whole-bucket aggregation
//! while failing the closed-interval overlap check.
//!
//! # Query complexity (n records, f distinct flows, b buckets)
//!
//! | query                          | cost                                |
//! |--------------------------------|-------------------------------------|
//! | `get_paths/get_count/get_duration` | O(records of the flow)          |
//! | `get_flows(exact, ANY)`        | O(posting list of the link)         |
//! | `get_flows(wildcard, ANY)`     | O(distinct flows at the switch) — a memcpy |
//! | `get_flows(pattern, range)`, `link_flow_counts(pattern, range)` | O(posting list), one sequential pass over the ids and their 16-byte spans; records fetched = matches |
//! | `get_flows(ANY, ANY)`          | O(f) — a memcpy of the table's `order` |
//! | `link_flow_counts(ANY, ANY)`   | O(f) — builds the returned map from the columns (it was a clone of a map the store kept) |
//! | `link_flow_counts(ANY, range)` | O(b + flows in buckets overlapping the range) |
//! | `top_k_flows(k, ANY)`          | O(f) select over 16-byte `(bytes, &flow)` keys + O(k) per radix pass (one per 13-bit digit the counts differ in) + a sort of each run of equal counts |
//!
//! The all-time traversal (`for_each_flow_count(ANY, ANY)`) visits flows in
//! first-appearance order and a pre-summed bucket in its FNV map's order:
//! both are now the same from run to run, which `RandomState` was not. The
//! contract is still "no particular order".
//!
//! Every map probed per record hashes with FNV (`pathdump_topology::FnvBuild`).
//! On a 5-tuple that is open to hash flooding by whoever chooses the
//! tuples; the trajectory memory ([`crate::memory`]) and the datapath's
//! exact-match cache key the same tuples the same way and accept the same
//! exposure.
//!
//! Indexes mirror the Host API's access patterns (Table 1): by flow ID,
//! by traversed link, by switch, by time, plus live aggregates for the
//! traffic-measurement queries (§4.2: flow size distribution, top-k,
//! load imbalance).

use crate::record::TibRecord;
use pathdump_topology::{FlowId, FnvBuild, LinkDir, LinkPattern, Nanos, Path, TimeRange};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem::size_of;

/// A hash map off SipHash: every map the store probes per record.
type FMap<K, V> = HashMap<K, V, FnvBuild>;

/// Bytes of a map's slots, used or not: an entry and a control byte each.
fn map_bytes<K, V>(map: &FMap<K, V>) -> usize {
    map.capacity() * (size_of::<(K, V)>() + 1)
}

/// Default stime bucket width: 8 seconds. At the paper's Table-1 scale
/// (240K records spread over "roughly an hour of flows at a server") this
/// yields ~450 buckets — on the order of √n — so range aggregates touch
/// O(√n) bucket headers plus the two boundary buckets' records.
pub const DEFAULT_BUCKET_WIDTH: Nanos = Nanos(8 * pathdump_topology::SECONDS);

/// The store's flow dictionary and its all-time aggregates in one: a
/// flow's **index** is its rank by first appearance, `order[index]` the
/// flow (so `order` is `get_flows(ANY, ANY)`, a memcpy away) and
/// `totals[index]` its running `(bytes, pkts)`. One probe of `index` per
/// insert; everything else the store keeps per flow is keyed by the `u32`.
/// Crate-visible so the tiered engine ([`crate::segment`]) keeps the same
/// table across sealed segments.
#[derive(Clone, Debug, Default)]
pub(crate) struct FlowTable {
    index: FMap<FlowId, u32>,
    pub(crate) order: Vec<FlowId>,
    totals: Vec<(u64, u64)>,
}

impl FlowTable {
    /// Adds one record's counts to `flow`, interning it on first sight;
    /// returns the flow's index.
    pub(crate) fn add(&mut self, flow: FlowId, bytes: u64, pkts: u64) -> u32 {
        let next = self.order.len() as u32;
        let idx = *self.index.entry(flow).or_insert(next);
        if idx == next {
            self.order.push(flow);
            self.totals.push((0, 0));
        }
        let t = &mut self.totals[idx as usize];
        t.0 += bytes;
        t.1 += pkts;
        idx
    }

    /// All-time `(bytes, pkts)` of `flow`; zero for one never seen.
    pub(crate) fn count(&self, flow: FlowId) -> (u64, u64) {
        self.index
            .get(&flow)
            .map_or((0, 0), |&i| self.totals[i as usize])
    }

    /// `(flow, (bytes, pkts))` of every flow, in first-appearance order:
    /// the all-time traversal, and what all-time `top_k_flows` selects from.
    pub(crate) fn counts(&self) -> impl ExactSizeIterator<Item = (&FlowId, &(u64, u64))> {
        self.order.iter().zip(&self.totals)
    }

    /// Resident bytes, at capacity: this is the part of a store that only
    /// grows.
    pub(crate) fn approx_bytes(&self) -> usize {
        map_bytes(&self.index)
            + self.order.capacity() * size_of::<FlowId>()
            + self.totals.capacity() * size_of::<(u64, u64)>()
    }
}

/// What [`select_top_k`] ranks: a flow's byte count and the flow, borrowed
/// from the totals — 16 bytes, where an answer entry is 24.
type Key<'a> = (u64, &'a FlowId);

/// The top `k` of per-flow totals by `(bytes, flow)` descending — the
/// documented [`TibRead::top_k_flows`] tie-break — without a comparison
/// sort: the totals walked once into [`Key`]s, an O(f) selection that puts
/// the top `m = min(k, f)` first, an LSD radix ranking of those by bytes
/// ([`TOP_K_DIGIT_BITS`] at a time), then each flow id copied once into
/// the answer and each run of equal counts ordered by flow.
///
/// The tie rule at the cut: the selection compares whole keys, flow after
/// bytes, so when more flows tie at the k-th count than fit, the cut falls
/// inside the tie by flow, where the final order puts it. The first `m`
/// keys are the answer, so nothing is appended and nothing truncated.
/// Shared by every engine so all produce bit-identical rankings.
pub(crate) fn select_top_k<'a>(
    totals: impl ExactSizeIterator<Item = (&'a FlowId, &'a (u64, u64))>,
    k: usize,
) -> Vec<(u64, FlowId)> {
    if k == 0 {
        return Vec::new();
    }
    let n = totals.len();
    let m = k.min(n);
    let mut keys: Vec<Key> = Vec::with_capacity(n.max(2 * m));
    keys.extend(totals.map(|(f, t)| (t.0, f)));
    if m < n {
        keys.select_nth_unstable_by(m - 1, |a, b| b.cmp(a));
    }
    // The ranking's second buffer: the keys that lost, topped up to `m`
    // inside the one allocation.
    keys.extend_from_within(..(2 * m).saturating_sub(n));
    let (top, spare) = keys.split_at_mut(m);
    let ranked = radix_sort_descending(top, &mut spare[..m]);
    let mut v: Vec<(u64, FlowId)> = ranked.iter().map(|&(b, f)| (b, *f)).collect();
    // Runs are few and short: jump from one tie to the next rather than
    // visit every entry as a run of its own.
    let mut at = 0;
    while let Some(i) = v[at..].windows(2).position(|w| w[0].0 == w[1].0) {
        let start = at + i;
        let bytes = v[start].0;
        at = start + 2 + v[start + 2..].iter().take_while(|e| e.0 == bytes).count();
        v[start..at].sort_unstable_by_key(|e| Reverse(e.1));
    }
    v
}

/// Bits per radix digit of `select_top_k`'s ranking: 8 192 `u32`
/// counters, 32 KB, stay in L1, and the 25 bits in which counts of up to
/// 32 MB differ take two passes (three at 11 bits).
pub const TOP_K_DIGIT_BITS: u32 = 13;

/// Stable LSD radix sort of `from` by bytes, descending, ping-ponging with
/// `to` (as long); returns whichever ends sorted. A digit that is the same
/// in every key orders nothing and is skipped.
fn radix_sort_descending<'s, 'a>(
    mut from: &'s mut [Key<'a>],
    mut to: &'s mut [Key<'a>],
) -> &'s [Key<'a>] {
    let mask = (1u64 << TOP_K_DIGIT_BITS) - 1;
    let (any, all) = from
        .iter()
        .fold((0, u64::MAX), |(o, a), e| (o | e.0, a & e.0));
    // Bits set in some key and clear in another; none for no keys.
    let varying = any & !all;
    for shift in (0..u64::BITS).step_by(TOP_K_DIGIT_BITS as usize) {
        if (varying >> shift) & mask == 0 {
            continue;
        }
        // The complement's digit: ascending by it is descending by bytes.
        let digit = |e: &Key| ((!e.0 >> shift) & mask) as usize;
        // `u32` slots: a store numbers its flows with `u32`s already.
        let mut starts = [0u32; 1 << TOP_K_DIGIT_BITS];
        for e in from.iter() {
            starts[digit(e)] += 1;
        }
        let mut sum = 0;
        for s in starts.iter_mut() {
            (*s, sum) = (sum, sum + *s);
        }
        for e in from.iter() {
            let slot = &mut starts[digit(e)];
            to[*slot as usize] = *e;
            *slot += 1;
        }
        std::mem::swap(&mut from, &mut to);
    }
    from
}

/// Per-flow totals of one [`TibRead::for_each_flow_count`] traversal —
/// what every engine's `link_flow_counts` is. The map is the public return
/// type, so it is the one `std`-hashed map this file builds.
pub(crate) fn sum_flow_counts(
    visit: impl FnOnce(&mut dyn FnMut(FlowId, u64, u64)),
) -> HashMap<FlowId, (u64, u64)> {
    let mut out: HashMap<FlowId, (u64, u64)> = HashMap::new();
    visit(&mut |flow, bytes, pkts| {
        let e = out.entry(flow).or_insert((0, 0));
        e.0 += bytes;
        e.1 += pkts;
    });
    out
}

/// A flow's record ids, in insertion order. Most flows of a segment have
/// one record, which is held inline: no allocation until the second.
#[derive(Clone, Debug)]
enum Postings {
    One(u32),
    Many(Vec<u32>),
}

impl Postings {
    fn push(&mut self, id: u32) {
        match self {
            Postings::One(first) => *self = Postings::Many(vec![*first, id]),
            Postings::Many(ids) => ids.push(id),
        }
    }

    fn ids(&self) -> &[u32] {
        match self {
            Postings::One(id) => std::slice::from_ref(id),
            Postings::Many(ids) => ids,
        }
    }
}

/// Per-switch secondary index: every record whose path enters (or
/// leaves) the switch, plus the deduplicated flows among them.
#[derive(Clone, Debug, Default)]
struct SwitchIndex {
    /// Record ids in insertion order, deduplicated per record.
    ids: Vec<u32>,
    /// Distinct flows in insertion order (the `<?, Sj>` ANY-range answer).
    flows: Vec<FlowId>,
    /// Bit `i` is set once the flow of index `i` is in `flows`.
    listed: Vec<u64>,
}

impl SwitchIndex {
    /// Files record `id` of the flow `(fidx, flow)` under this switch.
    fn push(&mut self, id: u32, fidx: u32, flow: FlowId) {
        self.ids.push(id);
        let (word, bit) = (fidx as usize / 64, 1u64 << (fidx % 64));
        if word >= self.listed.len() {
            self.listed.resize(word + 1, 0);
        }
        let listed = &mut self.listed[word];
        if *listed & bit == 0 {
            *listed |= bit;
            self.flows.push(flow);
        }
    }
}

/// The slot of switch `sw` in a table indexed by switch id, grown on
/// demand (empty slots cost `size_of::<SwitchIndex>()` each).
fn slot(table: &mut Vec<SwitchIndex>, sw: u16) -> &mut SwitchIndex {
    if table.len() <= sw as usize {
        table.resize_with(sw as usize + 1, SwitchIndex::default);
    }
    &mut table[sw as usize]
}

/// One fixed-width stime bucket with its incremental aggregates.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Ids of records whose stime falls in this bucket (insertion order).
    ids: Vec<u32>,
    /// Flow index → `(bytes, pkts)` pre-summed over this bucket's records.
    flow_totals: FMap<u32, (u64, u64)>,
    /// Latest etime among this bucket's records (bounds the lookback a
    /// range query needs: a bucket left of the range can only contribute
    /// when some record in it is still alive at the range start).
    max_etime: Nanos,
}

/// The per-host TIB.
#[derive(Clone, Debug)]
pub struct Tib {
    records: Vec<TibRecord>,
    /// `(stime, etime)` of `records[id]`: the dense column an index walk
    /// tests, so that an id outside the range costs no record fetch.
    times: Vec<(Nanos, Nanos)>,
    flows: FlowTable,
    /// Flow index → the flow's record ids.
    by_flow: Vec<Postings>,
    by_link: FMap<LinkDir, Vec<u32>>,
    /// `SwitchId.0` → the records entering / leaving the switch.
    by_switch_in: Vec<SwitchIndex>,
    by_switch_out: Vec<SwitchIndex>,
    /// stime bucket index (`stime / bucket_width`) → bucket.
    buckets: BTreeMap<u64, Bucket>,
    bucket_width: u64,
}

impl Default for Tib {
    fn default() -> Self {
        Tib::with_bucket_width(DEFAULT_BUCKET_WIDTH)
    }
}

impl Tib {
    /// Creates an empty TIB with the default bucket width.
    pub fn new() -> Self {
        Tib::default()
    }

    /// Creates an empty TIB whose time index uses `width`-wide stime
    /// buckets. Pick a width so the expected time span divides into
    /// roughly √n buckets.
    ///
    /// # Panics
    ///
    /// Panics if `width` is zero.
    pub fn with_bucket_width(width: Nanos) -> Self {
        assert!(width.0 > 0, "bucket width must be positive");
        Tib {
            records: Vec::new(),
            times: Vec::new(),
            flows: FlowTable::default(),
            by_flow: Vec::new(),
            by_link: FMap::default(),
            by_switch_in: Vec::new(),
            by_switch_out: Vec::new(),
            buckets: BTreeMap::new(),
            bucket_width: width.0,
        }
    }

    /// The configured stime bucket width.
    pub fn bucket_width(&self) -> Nanos {
        Nanos(self.bucket_width)
    }

    /// Number of live time buckets (diagnostics / tests).
    pub fn num_buckets(&self) -> usize {
        self.buckets.len()
    }

    /// Number of records stored.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Returns true when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }

    /// Inserts one record, updating all indexes and aggregates: one probe
    /// of the flow table, one of `by_link` per link, one of the bucket's
    /// pre-sums — the switch tables are indexed, not hashed.
    pub fn insert(&mut self, rec: TibRecord) {
        let id = self.records.len() as u32;
        let fidx = self.flows.add(rec.flow, rec.bytes, rec.pkts);
        match self.by_flow.get_mut(fidx as usize) {
            Some(postings) => postings.push(id),
            None => self.by_flow.push(Postings::One(id)),
        }
        // Paths are usually simple, but routing-loop scenarios produce
        // repeated switches; a record is filed once per switch, so skip a
        // switch one of the path's earlier links already left / entered.
        let hops = &rec.path.0;
        for (i, link) in rec.path.links().enumerate() {
            self.by_link.entry(link).or_default().push(id);
            if !hops[..i].contains(&link.from) {
                slot(&mut self.by_switch_out, link.from.0).push(id, fidx, rec.flow);
            }
            if !hops[1..=i].contains(&link.to) {
                slot(&mut self.by_switch_in, link.to.0).push(id, fidx, rec.flow);
            }
        }
        let bucket = self
            .buckets
            .entry(rec.stime.0 / self.bucket_width)
            .or_default();
        bucket.ids.push(id);
        let bt = bucket.flow_totals.entry(fidx).or_insert((0, 0));
        bt.0 += rec.bytes;
        bt.1 += rec.pkts;
        bucket.max_etime = bucket.max_etime.max(rec.etime);
        self.times.push((rec.stime, rec.etime));
        self.records.push(rec);
    }

    /// Raw access to every record (scans, snapshots).
    pub fn records(&self) -> &[TibRecord] {
        &self.records
    }

    /// The record ids matching a non-ANY link pattern, in insertion
    /// order. Exact patterns read one `by_link` posting list (a record
    /// may appear more than once if a loopy path repeats the link);
    /// half-wildcards read one pre-deduplicated switch index.
    fn pattern_ids(&self, link: LinkPattern) -> &[u32] {
        debug_assert!(!link.is_any());
        static EMPTY: [u32; 0] = [];
        match (link.from, link.to) {
            (Some(f), Some(t)) => self
                .by_link
                .get(&LinkDir::new(f, t))
                .map_or(&EMPTY[..], |v| &v[..]),
            (Some(f), None) => self
                .by_switch_out
                .get(f.0 as usize)
                .map_or(&EMPTY[..], |idx| &idx.ids[..]),
            (None, Some(t)) => self
                .by_switch_in
                .get(t.0 as usize)
                .map_or(&EMPTY[..], |idx| &idx.ids[..]),
            (None, None) => unreachable!("ANY handled by callers"),
        }
    }

    /// The pre-deduplicated flow list for a pattern, when one exists
    /// (ANY and half-wildcard patterns; exact links have none).
    fn pattern_flows(&self, link: LinkPattern) -> Option<&[FlowId]> {
        match (link.from, link.to) {
            (None, None) => Some(&self.flows.order),
            (Some(f), None) => Some(
                self.by_switch_out
                    .get(f.0 as usize)
                    .map_or(&[][..], |idx| &idx.flows),
            ),
            (None, Some(t)) => Some(
                self.by_switch_in
                    .get(t.0 as usize)
                    .map_or(&[][..], |idx| &idx.flows),
            ),
            (Some(_), Some(_)) => None,
        }
    }

    /// `records[id]` when its span overlaps `range`, decided on the time
    /// column alone.
    fn overlapping(&self, id: u32, range: &TimeRange) -> Option<&TibRecord> {
        let (stime, etime) = self.times[id as usize];
        range
            .overlaps(stime, etime)
            .then(|| &self.records[id as usize])
    }

    /// Visits, in insertion order and once each, the records that match a
    /// non-ANY pattern and overlap `range`: one sequential pass over the
    /// posting list and the 16-byte spans of its ids. An exact posting
    /// list repeats an id when a loopy path repeats the link; `insert`
    /// pushes a record's repeats back to back, so an id equal to the one
    /// before it is skipped.
    fn for_each_match(&self, link: LinkPattern, range: TimeRange, mut f: impl FnMut(&TibRecord)) {
        let mut prev = None;
        for &id in self.pattern_ids(link) {
            if prev == Some(id) {
                continue;
            }
            prev = Some(id);
            if let Some(rec) = self.overlapping(id, &range) {
                f(rec);
            }
        }
    }

    /// The buckets that can hold a record overlapping `range`, with their
    /// indexes: those that start no later than the range ends and, when
    /// they start before it does, still have a record alive at its start
    /// (the `max_etime` lookback).
    fn live_buckets(&self, range: &TimeRange) -> impl Iterator<Item = (u64, &Bucket)> {
        let hi = range.end.map_or(u64::MAX, |e| e.0 / self.bucket_width);
        let lo = range.start.unwrap_or(Nanos::ZERO);
        let upto = self.buckets.range(..=hi).map(|(&k, b)| (k, b));
        upto.filter(move |(_, b)| b.max_etime >= lo)
    }

    /// Candidate record ids for a time range, ascending: every id of its
    /// live buckets. Returns `None` when the candidates are not
    /// meaningfully fewer than the arena — the caller should then scan it
    /// directly instead of paying for an id copy and sort that selects
    /// almost nothing out.
    fn range_ids(&self, range: TimeRange) -> Option<Vec<u32>> {
        let candidates: usize = self.live_buckets(&range).map(|(_, b)| b.ids.len()).sum();
        if candidates * 2 > self.records.len() {
            return None;
        }
        let mut ids: Vec<u32> = Vec::with_capacity(candidates);
        for (_, bucket) in self.live_buckets(&range) {
            ids.extend_from_slice(&bucket.ids);
        }
        ids.sort_unstable();
        Some(ids)
    }

    /// The records of `flow` that overlap `range` — on `path`, when one is
    /// given — in insertion order.
    fn flow_records<'a>(
        &'a self,
        flow: FlowId,
        path: Option<&'a Path>,
        range: TimeRange,
    ) -> impl Iterator<Item = &'a TibRecord> {
        let fidx = self.flows.index.get(&flow);
        let ids = fidx.map_or(&[][..], |&i| self.by_flow[i as usize].ids());
        let recs = ids.iter().map(|&id| &self.records[id as usize]);
        recs.filter(move |r| r.overlaps(&range) && path.is_none_or(|p| r.path == *p))
    }

    /// The clamped `(min stime, max etime)` bounds behind
    /// [`TibRead::get_duration`], or `None` when no record of
    /// the flow matches. Exposed because — unlike the duration itself —
    /// the bounds merge across stores: the tiered engine min/maxes them
    /// over every segment before taking the difference.
    pub fn duration_bounds(
        &self,
        flow: FlowId,
        path: Option<&Path>,
        range: TimeRange,
    ) -> Option<(Nanos, Nanos)> {
        let mut bounds: Option<(Nanos, Nanos)> = None;
        for rec in self.flow_records(flow, path, range) {
            let (s, e) = range.clamp(rec.stime, rec.etime).expect("overlap checked");
            bounds = Some(match bounds {
                Some((lo, hi)) => (lo.min(s), hi.max(e)),
                None => (s, e),
            });
        }
        bounds
    }

    /// The hull `(min stime, max etime)` over every stored record, or
    /// `None` when empty. A record can only overlap a `TimeRange` that
    /// overlaps this hull, so the tiered engine prunes whole sealed
    /// segments (avoiding cold reloads) with one comparison.
    pub fn span(&self) -> Option<(Nanos, Nanos)> {
        let lo = self.times.iter().map(|t| t.0).min()?;
        let hi = self.times.iter().map(|t| t.1).max()?;
        Some((lo, hi))
    }

    /// True when the stime span `[k·w, (k+1)·w)` of bucket `k` lies fully
    /// inside `range` — every record in it then overlaps the range (its
    /// stime does), so its pre-summed aggregates apply wholesale.
    fn bucket_contained(&self, k: u64, range: &TimeRange) -> bool {
        let start = k * self.bucket_width;
        // Inclusive last stime; saturate for the topmost u64 bucket.
        let end = start.saturating_add(self.bucket_width - 1);
        range.start.is_none_or(|s| s.0 <= start) && range.end.is_none_or(|e| end <= e.0)
    }

    /// Approximate resident bytes of records + indexes (§5.3). The switch
    /// tables count every slot up to the largest switch id seen, empty ones
    /// included.
    pub fn approx_bytes(&self) -> usize {
        let recs: usize = self
            .records
            .iter()
            .map(|r| size_of::<TibRecord>() + r.path.len() * 2)
            .sum();
        let times = self.times.len() * size_of::<(Nanos, Nanos)>();
        let postings: usize = self
            .by_flow
            .iter()
            .map(|p| size_of::<Postings>() + p.ids().len() * 4)
            .sum();
        let links: usize = self
            .by_link
            .values()
            .map(|v| size_of::<LinkDir>() + v.len() * 4)
            .sum();
        let switches: usize = self
            .by_switch_in
            .iter()
            .chain(&self.by_switch_out)
            .map(|s| {
                let lists = s.ids.len() * 4 + s.flows.len() * size_of::<FlowId>();
                size_of::<SwitchIndex>() + lists + s.listed.len() * 8
            })
            .sum();
        let buckets: usize = self
            .buckets
            .values()
            .map(|b| size_of::<Bucket>() + b.ids.len() * 4 + map_bytes(&b.flow_totals))
            .sum();
        recs + times + self.flows.approx_bytes() + postings + links + switches + buckets
    }
}

/// The read side of the Host API (Table 1), abstracted over storage
/// engines: the single-arena [`Tib`], the tiered
/// [`TieredTib`](crate::segment::TieredTib), the lock-free
/// [`SealedView`](crate::segment::SealedView) reader snapshot and the
/// agent's [`LiveView`](crate::segment::LiveView) of a store plus its
/// trajectory memory all implement it, so query evaluators
/// (`execute_on_tib`, the standing engine, the rpc plane) are written once
/// against this trait. The three tiered views share one body, which folds
/// per-tier [`Tib`] answers. It is the only query API any of the four has:
/// [`Tib`]'s inherent methods build and measure the store, they do not ask
/// it.
///
/// Semantics are the ones documented on the methods below —
/// insertion-order outputs, closed `TimeRange`s, `(bytes, flow)`
/// descending top-k tie-break. `prop_equivalence` pins every
/// implementation to the same linear-scan reference.
pub trait TibRead {
    /// Number of records visible to this view.
    fn num_records(&self) -> usize;

    /// Visits every visible record in insertion order. The tiered engine
    /// may lazily reload cold segments to honor this — callers on hot
    /// paths should prefer the aggregate queries below.
    fn for_each_record(&self, f: &mut dyn FnMut(&TibRecord));

    /// `getFlows(linkID, timeRange)`: flows that traversed a matching link
    /// during the range (deduplicated, insertion order).
    fn get_flows(&self, link: LinkPattern, range: TimeRange) -> Vec<FlowId>;

    /// `getPaths(flowID, linkID, timeRange)`: distinct paths of `flow` that
    /// include a matching link within the range.
    fn get_paths(&self, flow: FlowId, link: LinkPattern, range: TimeRange) -> Vec<Path>;

    /// `getCount(Flow, timeRange)`: (bytes, pkts) of a flow within the
    /// range; `path = None` sums across all paths, `Some` restricts to one
    /// path (the paper's `Flow` is a `(flowID, Path)` pair).
    fn get_count(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> (u64, u64);

    /// `getDuration(Flow, timeRange)`: active span of a flow within the
    /// range (max etime − min stime over matching records, clamped).
    fn get_duration(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> Nanos;

    /// The traversal the aggregate queries share: calls `f(flow, bytes,
    /// pkts)` with **partial sums** whose per-flow totals are, by
    /// definition, [`link_flow_counts`](Self::link_flow_counts) — one visit
    /// per record that matches `link` and overlaps `range`, or one per flow
    /// of a pre-summed aggregate (a time bucket inside the range, the
    /// running totals) that stands in for its records. A flow may therefore
    /// be visited any number of times, in no particular order, and the
    /// caller sums. Keep `f` cheap — ideally a push: the walk reads each
    /// matching record through an index, loads that do not depend on one
    /// another and that the CPU overlaps, and a hash insert between two of
    /// them serialises the cache misses the walk exists to overlap.
    fn for_each_flow_count(
        &self,
        link: LinkPattern,
        range: TimeRange,
        f: &mut dyn FnMut(FlowId, u64, u64),
    );

    /// Per-flow byte/packet totals over matching links — the building block
    /// of the flow-size-distribution and load-imbalance queries (§4.2).
    /// Provided as the sum of [`for_each_flow_count`](Self::for_each_flow_count);
    /// an engine with running totals overrides it (and `top_k_flows`) to
    /// answer the all-time case from them.
    fn link_flow_counts(&self, link: LinkPattern, range: TimeRange) -> HashMap<FlowId, (u64, u64)> {
        sum_flow_counts(|f| self.for_each_flow_count(link, range, f))
    }

    /// Top-`k` flows by byte count within a range (§2.3's top-k example).
    ///
    /// Ties are broken by flow id (descending), making the result
    /// deterministic regardless of construction order.
    fn top_k_flows(&self, k: usize, range: TimeRange) -> Vec<(u64, FlowId)> {
        select_top_k(self.link_flow_counts(LinkPattern::ANY, range).iter(), k)
    }

    /// Every visible record, cloned, in insertion order (snapshots,
    /// replays, diffs — not a hot-path call).
    fn records_vec(&self) -> Vec<TibRecord> {
        let mut out = Vec::with_capacity(self.num_records());
        self.for_each_record(&mut |r| out.push(r.clone()));
        out
    }
}

impl TibRead for Tib {
    fn num_records(&self) -> usize {
        self.len()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&TibRecord)) {
        for rec in &self.records {
            f(rec);
        }
    }

    fn get_flows(&self, link: LinkPattern, range: TimeRange) -> Vec<FlowId> {
        if range == TimeRange::ANY {
            // Served straight from the maintained flow lists.
            if let Some(flows) = self.pattern_flows(link) {
                return flows.to_vec();
            }
        }
        let mut seen: HashSet<FlowId, FnvBuild> = HashSet::default();
        let mut out = Vec::new();
        let push = |rec: &TibRecord| {
            if seen.insert(rec.flow) {
                out.push(rec.flow);
            }
        };
        if !link.is_any() {
            self.for_each_match(link, range, push);
        } else if let Some(ids) = self.range_ids(range) {
            // Record ids are insertion order, so a sorted candidate-id
            // walk preserves the documented ordering.
            let recs = ids.iter().filter_map(|&id| self.overlapping(id, &range));
            recs.for_each(push);
        } else {
            // Broad range: one pass over the arena beats collecting and
            // sorting nearly every id.
            let recs = self.records.iter().filter(|r| r.overlaps(&range));
            recs.for_each(push);
        }
        out
    }

    fn get_paths(&self, flow: FlowId, link: LinkPattern, range: TimeRange) -> Vec<Path> {
        let mut seen: HashSet<&Path, FnvBuild> = HashSet::default();
        let mut out = Vec::new();
        for rec in self.flow_records(flow, None, range) {
            let matches = link.is_any() || rec.path.links().any(|l| link.matches(l));
            if matches && seen.insert(&rec.path) {
                out.push(rec.path.clone());
            }
        }
        out
    }

    fn get_count(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> (u64, u64) {
        if path.is_none() && range == TimeRange::ANY {
            // All-time flow totals are maintained incrementally.
            return self.flows.count(flow);
        }
        let recs = self.flow_records(flow, path, range);
        recs.fold((0, 0), |(b, p), rec| (b + rec.bytes, p + rec.pkts))
    }

    fn get_duration(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> Nanos {
        match self.duration_bounds(flow, path, range) {
            Some((lo, hi)) if lo < hi => hi - lo,
            _ => Nanos::ZERO,
        }
    }

    fn for_each_flow_count(
        &self,
        link: LinkPattern,
        range: TimeRange,
        f: &mut dyn FnMut(FlowId, u64, u64),
    ) {
        if !link.is_any() {
            self.for_each_match(link, range, |rec| f(rec.flow, rec.bytes, rec.pkts));
            return;
        }
        if range == TimeRange::ANY {
            return self.flows.counts().for_each(|(&id, &(b, p))| f(id, b, p));
        }
        // All links, ranged: whole-bucket sums for buckets inside the
        // range, clamp-scans for boundary/lookback buckets.
        for (k, bucket) in self.live_buckets(&range) {
            if self.bucket_contained(k, &range) {
                for (&fidx, &(bytes, pkts)) in &bucket.flow_totals {
                    f(self.flows.order[fidx as usize], bytes, pkts);
                }
            } else {
                for &id in &bucket.ids {
                    if let Some(rec) = self.overlapping(id, &range) {
                        f(rec.flow, rec.bytes, rec.pkts);
                    }
                }
            }
        }
    }

    fn top_k_flows(&self, k: usize, range: TimeRange) -> Vec<(u64, FlowId)> {
        if range == TimeRange::ANY {
            // Served from the live aggregate: no per-record work at all.
            return select_top_k(self.flows.counts(), k);
        }
        select_top_k(self.link_flow_counts(LinkPattern::ANY, range).iter(), k)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{Ip, SwitchId};

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    fn path(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    fn rec(sport: u16, p: &[u16], t0: u64, t1: u64, bytes: u64) -> TibRecord {
        TibRecord {
            flow: flow(sport),
            path: path(p),
            stime: Nanos(t0),
            etime: Nanos(t1),
            bytes,
            pkts: bytes / 1000 + 1,
        }
    }

    fn sample_tib() -> Tib {
        let mut t = Tib::new();
        t.insert(rec(1, &[0, 8, 4], 0, 100, 5000));
        t.insert(rec(1, &[0, 9, 4], 50, 150, 3000));
        t.insert(rec(2, &[0, 8, 4], 200, 300, 10_000));
        t.insert(rec(3, &[1, 9, 5], 0, 400, 70_000));
        t
    }

    /// Same population, tiny buckets, so the bucket boundary paths run.
    fn sample_tib_narrow() -> Tib {
        let mut t = Tib::with_bucket_width(Nanos(64));
        t.insert(rec(1, &[0, 8, 4], 0, 100, 5000));
        t.insert(rec(1, &[0, 9, 4], 50, 150, 3000));
        t.insert(rec(2, &[0, 8, 4], 200, 300, 10_000));
        t.insert(rec(3, &[1, 9, 5], 0, 400, 70_000));
        t
    }

    #[test]
    fn get_flows_by_link() {
        let t = sample_tib();
        let l = LinkPattern::exact(SwitchId(0), SwitchId(8));
        let flows = t.get_flows(l, TimeRange::ANY);
        assert_eq!(flows.len(), 2);
        assert!(flows.contains(&flow(1)) && flows.contains(&flow(2)));
        // Time-restricted: only flow 2 is active after t=180.
        let flows = t.get_flows(l, TimeRange::since(Nanos(180)));
        assert_eq!(flows, vec![flow(2)]);
    }

    #[test]
    fn get_flows_wildcards() {
        let t = sample_tib();
        // <?, S4>: all incoming links of switch 4.
        let into4 = t.get_flows(LinkPattern::into(SwitchId(4)), TimeRange::ANY);
        assert_eq!(into4.len(), 2);
        // <*, *>: everything.
        assert_eq!(t.get_flows(LinkPattern::ANY, TimeRange::ANY).len(), 3);
    }

    #[test]
    fn get_flows_wildcards_with_range() {
        for t in [sample_tib(), sample_tib_narrow()] {
            // <?, S4> after t=120: flow 1's second record and flow 2.
            let r = TimeRange::since(Nanos(120));
            let into4 = t.get_flows(LinkPattern::into(SwitchId(4)), r);
            assert_eq!(into4, vec![flow(1), flow(2)]);
            // <S0, ?> within [0, 40]: only flow 1's first record overlaps.
            let out0 = t.get_flows(
                LinkPattern::out_of(SwitchId(0)),
                TimeRange::between(Nanos(0), Nanos(40)),
            );
            assert_eq!(out0, vec![flow(1)]);
            // <*, *> in [160, 199]: only the long-lived flow 3 is active
            // (found via the bucket max_etime lookback).
            assert_eq!(
                t.get_flows(LinkPattern::ANY, TimeRange::between(Nanos(160), Nanos(199))),
                vec![flow(3)]
            );
        }
    }

    #[test]
    fn get_paths_dedup_and_filter() {
        let mut t = sample_tib();
        // A second record on the same path must not duplicate.
        t.insert(rec(1, &[0, 8, 4], 500, 600, 100));
        let paths = t.get_paths(flow(1), LinkPattern::ANY, TimeRange::ANY);
        assert_eq!(paths.len(), 2);
        let via9 = t.get_paths(
            flow(1),
            LinkPattern::exact(SwitchId(9), SwitchId(4)),
            TimeRange::ANY,
        );
        assert_eq!(via9, vec![path(&[0, 9, 4])]);
        assert!(t
            .get_paths(flow(99), LinkPattern::ANY, TimeRange::ANY)
            .is_empty());
    }

    #[test]
    fn get_count_across_and_per_path() {
        let t = sample_tib();
        let (b, _) = t.get_count(flow(1), None, TimeRange::ANY);
        assert_eq!(b, 8000, "sums across both paths");
        let (b, _) = t.get_count(flow(1), Some(&path(&[0, 8, 4])), TimeRange::ANY);
        assert_eq!(b, 5000);
        let (b, _) = t.get_count(flow(1), None, TimeRange::since(Nanos(120)));
        assert_eq!(b, 3000, "only the second record overlaps");
        assert_eq!(t.get_count(flow(99), None, TimeRange::ANY), (0, 0));
    }

    #[test]
    fn get_duration_clamped() {
        let t = sample_tib();
        assert_eq!(t.get_duration(flow(1), None, TimeRange::ANY), Nanos(150));
        assert_eq!(
            t.get_duration(flow(3), None, TimeRange::between(Nanos(100), Nanos(200))),
            Nanos(100)
        );
        assert_eq!(t.get_duration(flow(99), None, TimeRange::ANY), Nanos::ZERO);
    }

    #[test]
    fn link_flow_counts_no_double_count() {
        let t = sample_tib();
        // Pattern <0, ?> matches links 0->8 and 0->9; flow 1 has one record
        // on each, flow 2 one record; each record counted once.
        let counts = t.link_flow_counts(LinkPattern::out_of(SwitchId(0)), TimeRange::ANY);
        assert_eq!(counts[&flow(1)], (8000, 8000 / 1000 + 2));
        assert_eq!(counts[&flow(2)].0, 10_000);
        assert!(!counts.contains_key(&flow(3)));
    }

    #[test]
    fn link_flow_counts_loopy_path_counted_once() {
        let mut t = Tib::new();
        // Path 0->8->0->8->4 repeats link 0->8: one record, counted once.
        t.insert(rec(7, &[0, 8, 0, 8, 4], 0, 10, 900));
        let counts =
            t.link_flow_counts(LinkPattern::exact(SwitchId(0), SwitchId(8)), TimeRange::ANY);
        assert_eq!(counts[&flow(7)].0, 900);
        // The switch indexes are deduplicated too.
        let counts = t.link_flow_counts(LinkPattern::into(SwitchId(8)), TimeRange::ANY);
        assert_eq!(counts[&flow(7)].0, 900);
        assert_eq!(
            t.get_flows(LinkPattern::out_of(SwitchId(0)), TimeRange::ANY),
            vec![flow(7)]
        );
    }

    #[test]
    fn range_aggregates_match_scan_on_narrow_buckets() {
        let t = sample_tib_narrow();
        assert!(t.num_buckets() > 1, "narrow buckets split the population");
        // [60, 220] overlaps all four records (flow 3 spans the range).
        let r = TimeRange::between(Nanos(60), Nanos(220));
        let counts = t.link_flow_counts(LinkPattern::ANY, r);
        assert_eq!(counts[&flow(1)].0, 8000);
        assert_eq!(counts[&flow(2)].0, 10_000);
        assert_eq!(counts[&flow(3)].0, 70_000);
        // [201, 399]: flow 2 (200-300) and flow 3 (0-400) overlap.
        let r = TimeRange::between(Nanos(201), Nanos(399));
        let counts = t.link_flow_counts(LinkPattern::ANY, r);
        assert_eq!(counts.len(), 2);
        assert_eq!(counts[&flow(2)].0, 10_000);
    }

    #[test]
    fn top_k() {
        let t = sample_tib();
        let top = t.top_k_flows(2, TimeRange::ANY);
        assert_eq!(top.len(), 2);
        assert_eq!(top[0], (70_000, flow(3)));
        assert_eq!(top[1], (10_000, flow(2)));
        // k larger than the population returns everything, sorted.
        assert_eq!(t.top_k_flows(10, TimeRange::ANY).len(), 3);
        assert!(t.top_k_flows(0, TimeRange::ANY).is_empty());
        // Range-restricted: flow 1's totals shrink to the overlap.
        let top = t.top_k_flows(3, TimeRange::since(Nanos(120)));
        assert_eq!(top[0], (70_000, flow(3)));
        assert_eq!(top[1], (10_000, flow(2)));
        assert_eq!(top[2], (3000, flow(1)));
    }

    #[test]
    fn size_accounting_grows() {
        let mut t = Tib::new();
        let a = t.approx_bytes();
        t.insert(rec(1, &[0, 8, 4], 0, 1, 1));
        assert!(t.approx_bytes() > a);
    }

    #[test]
    fn size_accounting_counts_empty_switch_slots() {
        // One record on the last switch id: both tables are indexed by id,
        // so the out table spans all 65 536 slots, used or not.
        let mut t = Tib::new();
        t.insert(rec(1, &[u16::MAX, 3], 0, 1, 1));
        let table = 65_536 * size_of::<SwitchIndex>();
        assert!(t.approx_bytes() > table, "{} <= {table}", t.approx_bytes());
        assert!(
            t.approx_bytes() < 2 * table,
            "the in table stops at switch 3"
        );
    }

    #[test]
    fn bucket_structure() {
        let mut t = Tib::with_bucket_width(Nanos(100));
        t.insert(rec(1, &[0, 8, 4], 0, 10, 5));
        t.insert(rec(1, &[0, 8, 4], 50, 60, 5));
        t.insert(rec(2, &[0, 8, 4], 250, 260, 5));
        assert_eq!(t.num_buckets(), 2, "stimes 0/50 share a bucket, 250 not");
        assert_eq!(t.bucket_width(), Nanos(100));
    }

    #[test]
    #[should_panic(expected = "bucket width must be positive")]
    fn zero_bucket_width_rejected() {
        let _ = Tib::with_bucket_width(Nanos(0));
    }
}
