//! The Trajectory Information Base: an indexed, queryable store of
//! per-path flow records (replacing the paper's MongoDB instance).
//!
//! # Storage layout
//!
//! The store indexes **paths, not links**. A host sees a few hundred
//! distinct paths however many records it keeps, so what is filed per link
//! or per switch is filed per path, once, and each record is filed under
//! its one path.
//!
//! - **Rows** — a record is one fixed-width row `(flow, path id, next,
//!   stime, etime, bytes, pkts)`, 56 bytes, in insertion order (ids are row
//!   offsets; `next` is the id of the flow's next record). No `Path` and no
//!   heap block per record: [`TibRecord`] is the API and wire type,
//!   materialised from a row when asked for.
//! - **Path dictionary** (`paths`) — `path id → Path`, interned on insert
//!   by one FNV probe over the hops; an id is the path's rank by first
//!   appearance in this store. Store-local: the same path has other ids in
//!   other stores and in other segments of a
//!   [`TieredTib`](crate::segment::TieredTib).
//! - **Flow table** (`flows`) — the store's other dictionary: one FNV map
//!   `FlowId → u32` beside two dense columns, `order` (the flows by first
//!   appearance) and `totals` (each flow's running `(bytes, pkts)`); a
//!   flow's *index* is its position in both. What else the store keeps per
//!   flow — the ends of its chain in `by_flow`, a switch's flow list — is
//!   keyed by the index, and the all-time answers
//!   (`get_flows(ANY, ANY)`, `get_count(.., ANY)`, `top_k_flows(k, ANY)`,
//!   the `(ANY, ANY)` traversal) read the columns. A tiered store keeps one
//!   more such table across its segments.
//!
//! Four families of indexes hang off them:
//!
//! - **Path postings** — `by_path`: per path one list, one push per
//!   record, each entry `(id, stime, etime)` with the record's span
//!   **inline**. A ranged pattern walk reads its paths' lists sequentially
//!   and fetches a row only for a match.
//! - **Path-level link and switch indexes** — `by_link` (directed link →
//!   path ids, an FNV map) and `by_switch_in` / `by_switch_out` (`Vec`s
//!   indexed by `SwitchId.0`, grown to the largest id seen) list the
//!   paths that cross a link or enter / leave a switch. They change only
//!   when a new path is interned. A switch slot also keeps the flow
//!   indexes of its records in the order they first came by: the
//!   `<?, Sj>` / `<Si, ?>` all-time answer, and the one per-record update a
//!   switch sees. A flow is listed when its record crosses the switch and
//!   its previous record — one load down its chain — did not; a record on
//!   its flow's previous path touches no switch at all. A flow that leaves
//!   a switch and comes back is listed twice, and the slot says so: the
//!   answer then keeps first appearances only.
//! - **Flow chains** — a flow's records are a chain through the rows:
//!   `by_flow` maps a flow index to its first and last record ids, and each
//!   row's `next` links to the flow's next record. `getPaths`, `getCount`
//!   and `getDuration` walk the chain in insertion order; a flow costs no
//!   allocation of its own, however many records it has.
//! - **Time buckets** — records land in fixed-width stime buckets
//!   (default [`DEFAULT_BUCKET_WIDTH`], ~O(√n) buckets at the paper's
//!   240K-records-per-hour Table-1 scale); each bucket keeps its record ids
//!   and the max etime of its records. A `timeRange` query over every link
//!   walks the ids of the buckets that can hold an overlapping record and
//!   checks each record's own span. No counts are pre-summed per bucket:
//!   a flow's records rarely share one (PathDump writes one record per flow
//!   and path), so the rows are the only copy.
//!
//! **Loop dedupe.** Routing-loop paths repeat a switch, and may repeat a
//! link. A record matches a pattern once however often its path crosses
//! it, so a path is listed once per link and once per switch: when it is
//! interned, its id is pushed unless it is already the list's last (its
//! repeats come back to back). That runs once per path, not per record. A
//! record lists its flow at a switch the same way — unless it is already
//! the list's last — so a loopy record lists its flow once per switch.
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
//! The translation happens in exactly one place: `live_buckets` maps the
//! inclusive range end to the *inclusive* last bucket index `end / w`.
//! Everything else re-checks candidates against their own span, so bucket
//! pruning only ever has to be a superset.
//! `prop_equivalence`'s boundary-aligned case pins these edges (records
//! and range endpoints exactly on width multiples) against the
//! linear-scan reference.
//!
//! # Query complexity (n records, f distinct flows, b buckets, m matches)
//!
//! | query                          | cost                                |
//! |--------------------------------|-------------------------------------|
//! | `get_paths/get_count/get_duration` | O(records of the flow): a walk down its chain; paths compared by id |
//! | `get_flows(exact, ANY)`        | O(records on the link's paths) + a sort of their ids |
//! | `get_flows(wildcard, ANY)`     | O(flows listed at the switch) — a gather of the switch's flow indexes; when a flow came back to the switch, plus an O(f / 64) bitmap that keeps first appearances |
//! | `link_flow_counts(pattern, range)`, `for_each_flow_count` | O(records on the pattern's paths): one sequential pass over their postings and inline spans; rows fetched = m |
//! | `get_flows(pattern, range)`    | the same pass, then a sort of the m ids back into insertion order |
//! | `get_flows(ANY, ANY)`          | O(f) — a memcpy of the table's `order` |
//! | `link_flow_counts(ANY, ANY)`   | O(f) — builds the returned map from the columns |
//! | `link_flow_counts(ANY, range)` | O(b + records in the live buckets) |
//! | `top_k_flows(k, ANY)`          | O(f) select over 16-byte `(bytes, &flow)` keys + O(k) per radix pass (one per 13-bit digit the counts differ in) + a sort of each run of equal counts |
//!
//! The all-time traversal (`for_each_flow_count(ANY, ANY)`) visits flows in
//! first-appearance order, and a ranged one visits records bucket by bucket
//! or path by path: the same from run to run. The contract is still "no
//! particular order".
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
use pathdump_wire::{Encode, Encoder};
use std::cmp::Reverse;
use std::collections::{BTreeMap, HashMap, HashSet};
use std::mem::size_of;

/// A hash map off SipHash: every map the store probes per record.
type FMap<K, V> = HashMap<K, V, FnvBuild>;

/// Bytes of a map's table, used or not: `capacity · 8/7` slots (a power of
/// two; `capacity + 1` below eight) of an entry and a control byte each,
/// plus one trailing group of control bytes.
fn map_bytes<K, V>(map: &FMap<K, V>) -> usize {
    let slots = match map.capacity() {
        0 => return 0,
        cap @ 1..=7 => cap + 1,
        cap => cap / 7 * 8,
    };
    slots * (size_of::<(K, V)>() + 1) + 16
}

/// Bytes of a `Vec`'s buffer, used or not.
fn vec_bytes<T>(v: &Vec<T>) -> usize {
    v.capacity() * size_of::<T>()
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
        map_bytes(&self.index) + vec_bytes(&self.order) + vec_bytes(&self.totals)
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

/// A record as the store keeps it: fixed width, with its path's id in the
/// path dictionary and the id of its flow's next record. The flow is held
/// whole, not as its index in the flow table: a pattern walk fetches a row
/// per match, and an index would cost it a second, dependent fetch.
#[derive(Clone, Copy, Debug)]
struct Row {
    flow: FlowId,
    path: u32,
    /// The id of the flow's next record; the flow's last record holds its
    /// own id.
    next: u32,
    stime: Nanos,
    etime: Nanos,
    bytes: u64,
    pkts: u64,
}

// The chain costs no row bytes: `next` fills the padding after `path`.
const _: () = assert!(size_of::<Row>() == 56);

/// One entry of a path's posting list: a record id with the record's span
/// inline, so that a ranged walk decides a match without fetching the row.
#[derive(Clone, Copy, Debug)]
struct Posting {
    id: u32,
    stime: Nanos,
    etime: Nanos,
}

/// The store's path dictionary: a path's id is its rank by first
/// appearance, `paths[id]` the path. Store-local: the same path may have
/// another id in another store, or in another segment of a tiered one.
#[derive(Clone, Debug, Default)]
struct PathDict {
    ids: FMap<Path, u32>,
    paths: Vec<Path>,
}

impl PathDict {
    /// The id of `path`, interning it on first sight; the flag says it was
    /// new.
    fn intern(&mut self, path: &Path) -> (u32, bool) {
        if let Some(&id) = self.ids.get(path) {
            return (id, false);
        }
        let id = self.paths.len() as u32;
        self.ids.insert(path.clone(), id);
        self.paths.push(path.clone());
        (id, true)
    }

    /// Every path's hops are held twice: as a key of `ids` and in `paths`.
    fn approx_bytes(&self) -> usize {
        let hops: usize = self.paths.iter().map(|p| vec_bytes(&p.0)).sum();
        map_bytes(&self.ids) + vec_bytes(&self.paths) + 2 * hops
    }
}

/// Pushes `id` unless it is already the list's last: a path's links are
/// filed when it is interned, and a record's flow when it is inserted, so
/// the repeats of a loopy path come back to back.
fn push_once(list: &mut Vec<u32>, id: u32) {
    if list.last() != Some(&id) {
        list.push(id);
    }
}

/// Per-switch secondary index: the paths that enter (or leave) the switch
/// and the flows of the records on them.
#[derive(Clone, Debug, Default)]
struct SwitchIndex {
    /// Ids of the paths through the switch, each once.
    paths: Vec<u32>,
    /// The flow indexes of the records through the switch, in the order
    /// the flows first came by (the `<?, Sj>` ANY-range answer once
    /// deduplicated). A flow is listed when its record crosses the switch
    /// and its previous record did not, so a flow that leaves the switch
    /// and comes back is listed again.
    flows: Vec<u32>,
    /// Set once a flow is listed on a record other than its first: only
    /// then can `flows` hold a flow twice.
    repeats: bool,
}

/// The slot of switch `sw` in a table indexed by switch id, grown on
/// demand (empty slots cost `size_of::<SwitchIndex>()` each).
fn slot(table: &mut Vec<SwitchIndex>, sw: u16) -> &mut SwitchIndex {
    if table.len() <= sw as usize {
        table.resize_with(sw as usize + 1, SwitchIndex::default);
    }
    &mut table[sw as usize]
}

/// One fixed-width stime bucket.
#[derive(Clone, Debug, Default)]
struct Bucket {
    /// Ids of records whose stime falls in this bucket (insertion order).
    ids: Vec<u32>,
    /// Latest etime among this bucket's records (bounds the lookback a
    /// range query needs: a bucket left of the range can only contribute
    /// when some record in it is still alive at the range start).
    max_etime: Nanos,
}

/// The per-host TIB.
#[derive(Clone, Debug)]
pub struct Tib {
    rows: Vec<Row>,
    flows: FlowTable,
    paths: PathDict,
    /// Flow index → the ids of the flow's first and last records: the
    /// ends of its chain through `Row::next`.
    by_flow: Vec<(u32, u32)>,
    /// Path id → the path's records and their spans.
    by_path: Vec<Vec<Posting>>,
    /// Directed link → the ids of the paths that cross it, each once.
    by_link: FMap<LinkDir, Vec<u32>>,
    /// `SwitchId.0` → the paths entering / leaving the switch.
    by_switch_in: Vec<SwitchIndex>,
    by_switch_out: Vec<SwitchIndex>,
    /// stime bucket index (`stime / bucket_width`) → bucket.
    buckets: BTreeMap<u64, Bucket>,
    bucket_width: u64,
    /// `(min stime, max etime)` over the rows; `None` while there are none.
    span: Option<(Nanos, Nanos)>,
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
            rows: Vec::new(),
            flows: FlowTable::default(),
            paths: PathDict::default(),
            by_flow: Vec::new(),
            by_path: Vec::new(),
            by_link: FMap::default(),
            by_switch_in: Vec::new(),
            by_switch_out: Vec::new(),
            buckets: BTreeMap::new(),
            bucket_width: width.0,
            span: None,
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
        self.rows.len()
    }

    /// Returns true when no records are stored.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Inserts one record, updating all indexes and aggregates: one probe
    /// of the flow table, one of the path dictionary, one of the bucket
    /// tree, a link from the flow's last row and one push to the path's
    /// posting list. A path seen for the first time is filed under its
    /// links and switches; after that, the switch tables only learn flows
    /// that change path.
    pub fn insert(&mut self, rec: TibRecord) {
        self.insert_ref(&rec);
    }

    /// [`Tib::insert`] of a borrowed record: the store keeps no part of
    /// it, so a batch is filed without a copy.
    pub(crate) fn insert_ref(&mut self, rec: &TibRecord) {
        let id = self.rows.len() as u32;
        let fidx = self.flows.add(rec.flow, rec.bytes, rec.pkts);
        let prev = match self.by_flow.get_mut(fidx as usize) {
            Some((_, last)) => {
                let prev = &mut self.rows[*last as usize];
                prev.next = id;
                *last = id;
                Some(prev.path)
            }
            None => {
                self.by_flow.push((id, id));
                None
            }
        };
        let (pid, new) = self.paths.intern(&rec.path);
        if new {
            self.by_path.push(Vec::new());
            for link in rec.path.links() {
                push_once(self.by_link.entry(link).or_default(), pid);
                push_once(&mut slot(&mut self.by_switch_out, link.from.0).paths, pid);
                push_once(&mut slot(&mut self.by_switch_in, link.to.0).paths, pid);
            }
        }
        // A switch lists the flow unless the flow's previous record left
        // (or entered) it too, and so had it listed already; a record on
        // the previous record's path lists nothing.
        if prev != Some(pid) {
            let prev = prev.map(|p| &self.paths.paths[p as usize]);
            for link in rec.path.links() {
                if !prev.is_some_and(|p| p.links().any(|l| l.from == link.from)) {
                    let out = &mut self.by_switch_out[link.from.0 as usize];
                    push_once(&mut out.flows, fidx);
                    out.repeats |= prev.is_some();
                }
                if !prev.is_some_and(|p| p.links().any(|l| l.to == link.to)) {
                    let into = &mut self.by_switch_in[link.to.0 as usize];
                    push_once(&mut into.flows, fidx);
                    into.repeats |= prev.is_some();
                }
            }
        }
        self.by_path[pid as usize].push(Posting {
            id,
            stime: rec.stime,
            etime: rec.etime,
        });
        let bucket = self
            .buckets
            .entry(rec.stime.0 / self.bucket_width)
            .or_default();
        bucket.ids.push(id);
        bucket.max_etime = bucket.max_etime.max(rec.etime);
        self.span = Some(match self.span {
            Some((lo, hi)) => (lo.min(rec.stime), hi.max(rec.etime)),
            None => (rec.stime, rec.etime),
        });
        self.rows.push(Row {
            flow: rec.flow,
            path: pid,
            next: id,
            stime: rec.stime,
            etime: rec.etime,
            bytes: rec.bytes,
            pkts: rec.pkts,
        });
    }

    /// The ids of the paths matching a non-ANY link pattern, each once:
    /// exact patterns read one `by_link` list, half-wildcards one switch
    /// slot.
    fn pattern_paths(&self, link: LinkPattern) -> &[u32] {
        debug_assert!(!link.is_any());
        let paths = match (link.from, link.to) {
            (Some(f), Some(t)) => self.by_link.get(&LinkDir::new(f, t)),
            (Some(f), None) => self.by_switch_out.get(f.0 as usize).map(|s| &s.paths),
            (None, Some(t)) => self.by_switch_in.get(t.0 as usize).map(|s| &s.paths),
            (None, None) => unreachable!("ANY handled by callers"),
        };
        paths.map_or(&[], |v| &v[..])
    }

    /// The all-time flow list for a pattern, when one is kept (ANY and
    /// half-wildcard patterns; exact links have none). A switch's list is
    /// gathered as it stands unless a flow may be on it twice: then only
    /// each flow's first appearance is kept, through one bitmap over the
    /// flow indexes.
    fn pattern_flows(&self, link: LinkPattern) -> Option<Vec<FlowId>> {
        let slot = match (link.from, link.to) {
            (None, None) => return Some(self.flows.order.clone()),
            (Some(f), None) => self.by_switch_out.get(f.0 as usize),
            (None, Some(t)) => self.by_switch_in.get(t.0 as usize),
            (Some(_), Some(_)) => return None,
        };
        let (flows, repeats) = slot.map_or((&[][..], false), |s| (&s.flows[..], s.repeats));
        let order = &self.flows.order;
        if !repeats {
            return Some(flows.iter().map(|&i| order[i as usize]).collect());
        }
        let mut listed = vec![0u64; order.len().div_ceil(64)];
        let mut out = Vec::with_capacity(flows.len());
        for &i in flows {
            let (word, bit) = (&mut listed[i as usize / 64], 1u64 << (i % 64));
            if *word & bit == 0 {
                *word |= bit;
                out.push(order[i as usize]);
            }
        }
        Some(out)
    }

    /// Visits, once each, the records that match `link` and overlap
    /// `range`. ANY walks the live buckets' ids, a row fetched per
    /// candidate. A pattern goes path by path: one sequential pass over
    /// each matching path's postings, whose inline spans decide the
    /// overlap, so a row is fetched only for a match.
    fn for_each_match(&self, link: LinkPattern, range: TimeRange, mut f: impl FnMut(u32, &Row)) {
        if link.is_any() {
            for bucket in self.live_buckets(&range) {
                for &id in &bucket.ids {
                    let row = &self.rows[id as usize];
                    if range.overlaps(row.stime, row.etime) {
                        f(id, row);
                    }
                }
            }
            return;
        }
        for &pid in self.pattern_paths(link) {
            for p in &self.by_path[pid as usize] {
                if range.overlaps(p.stime, p.etime) {
                    f(p.id, &self.rows[p.id as usize]);
                }
            }
        }
    }

    /// The buckets that can hold a record overlapping `range`: those that
    /// start no later than the range ends and, when they start before it
    /// does, still have a record alive at its start (the `max_etime`
    /// lookback).
    fn live_buckets(&self, range: &TimeRange) -> impl Iterator<Item = &Bucket> {
        let hi = range.end.map_or(u64::MAX, |e| e.0 / self.bucket_width);
        let lo = range.start.unwrap_or(Nanos::ZERO);
        let upto = self.buckets.range(..=hi).map(|(_, b)| b);
        upto.filter(move |b| b.max_etime >= lo)
    }

    /// The ids of the records that overlap `range` and match `link`,
    /// ascending — insertion order. A pattern gathers its paths' matches
    /// and sorts them. ANY reads the live buckets' ids, sorted, unless
    /// they are not meaningfully fewer than the store: then one pass over
    /// the rows beats collecting and sorting nearly every id.
    fn matching_ids(&self, link: LinkPattern, range: TimeRange) -> Vec<u32> {
        let mut ids = Vec::new();
        if link.is_any() {
            let candidates: usize = self.live_buckets(&range).map(|b| b.ids.len()).sum();
            if candidates * 2 > self.rows.len() {
                let rows = self.rows.iter().enumerate();
                let hits = rows.filter(|(_, r)| range.overlaps(r.stime, r.etime));
                return hits.map(|(id, _)| id as u32).collect();
            }
            ids.reserve(candidates);
        }
        self.for_each_match(link, range, |id, _| ids.push(id));
        ids.sort_unstable();
        ids
    }

    /// The rows of `flow` that overlap `range` — on `path`, when one is
    /// given — in insertion order: a walk down the flow's chain. A path the
    /// store never saw matches no record.
    fn flow_rows<'a>(
        &'a self,
        flow: FlowId,
        path: Option<&Path>,
        range: TimeRange,
    ) -> impl Iterator<Item = &'a Row> {
        let pid = path.map(|p| self.paths.ids.get(p).copied());
        let mut at = match (self.flows.index.get(&flow), pid) {
            (Some(&i), None | Some(Some(_))) => Some(self.by_flow[i as usize].0),
            _ => None,
        };
        let rows = std::iter::from_fn(move || {
            let id = at?;
            let row = &self.rows[id as usize];
            at = (row.next != id).then_some(row.next);
            Some(row)
        });
        let pid = pid.flatten();
        rows.filter(move |r| range.overlaps(r.stime, r.etime) && pid.is_none_or(|p| r.path == p))
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
        for row in self.flow_rows(flow, path, range) {
            let (s, e) = range.clamp(row.stime, row.etime).expect("overlap checked");
            bounds = Some(match bounds {
                Some((lo, hi)) => (lo.min(s), hi.max(e)),
                None => (s, e),
            });
        }
        bounds
    }

    /// The hull `(min stime, max etime)` over every stored record, or
    /// `None` when empty, kept up to date on insert. A record can only
    /// overlap a `TimeRange` that overlaps this hull, so the tiered engine
    /// prunes whole sealed segments (avoiding cold reloads) with one
    /// comparison.
    pub fn span(&self) -> Option<(Nanos, Nanos)> {
        self.span
    }

    /// Approximate resident bytes of records + indexes (§5.3): every
    /// buffer at its capacity, growth slack included (a sealed segment has
    /// none, see `shrink_to_fit`). The switch tables count every slot up
    /// to the largest switch id seen, empty ones included, and each slot's
    /// path and flow lists; the bucket tree counts its entries, not its
    /// nodes' slack.
    pub fn approx_bytes(&self) -> usize {
        let paths: usize = self.by_path.iter().map(vec_bytes).sum();
        let links: usize = self.by_link.values().map(vec_bytes).sum();
        let switches: usize = self
            .by_switch_in
            .iter()
            .chain(&self.by_switch_out)
            .map(|s| vec_bytes(&s.paths) + vec_bytes(&s.flows))
            .sum();
        let buckets: usize = self
            .buckets
            .values()
            .map(|b| size_of::<(u64, Bucket)>() + vec_bytes(&b.ids))
            .sum();
        vec_bytes(&self.rows)
            + self.flows.approx_bytes()
            + self.paths.approx_bytes()
            + vec_bytes(&self.by_flow)
            + vec_bytes(&self.by_path)
            + paths
            + map_bytes(&self.by_link)
            + links
            + vec_bytes(&self.by_switch_in)
            + vec_bytes(&self.by_switch_out)
            + switches
            + buckets
    }

    /// Drops the growth slack of every buffer and map, so that a store
    /// that is done growing — a sealed segment — holds its contents at
    /// their exact size. The bucket tree's nodes keep theirs.
    pub(crate) fn shrink_to_fit(&mut self) {
        self.rows.shrink_to_fit();
        self.flows.index.shrink_to_fit();
        self.flows.order.shrink_to_fit();
        self.flows.totals.shrink_to_fit();
        self.paths.ids.shrink_to_fit();
        self.paths.paths.shrink_to_fit();
        self.by_flow.shrink_to_fit();
        self.by_path.iter_mut().for_each(Vec::shrink_to_fit);
        self.by_path.shrink_to_fit();
        self.by_link.values_mut().for_each(Vec::shrink_to_fit);
        self.by_link.shrink_to_fit();
        for s in self.by_switch_in.iter_mut().chain(&mut self.by_switch_out) {
            s.paths.shrink_to_fit();
            s.flows.shrink_to_fit();
        }
        self.by_switch_in.shrink_to_fit();
        self.by_switch_out.shrink_to_fit();
        for b in self.buckets.values_mut() {
            b.ids.shrink_to_fit();
        }
    }
}

/// A store encodes as its record slice would — `varint count`, then each
/// record in insertion order — which is a sealed segment's block and the
/// tail of a snapshot.
impl Encode for Tib {
    fn encode(&self, enc: &mut Encoder) {
        enc.put_varint(self.len() as u64);
        self.for_each_record(&mut |rec| rec.encode(enc));
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
    /// of a pre-summed aggregate (the running totals, for every link and
    /// all time) that stands in for its records. A flow may therefore
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

    /// Materialises each row into one reused record: the path is copied
    /// into the record's own buffer, so the walk allocates once.
    fn for_each_record(&self, f: &mut dyn FnMut(&TibRecord)) {
        let Some(first) = self.rows.first() else {
            return;
        };
        let mut rec = TibRecord {
            flow: first.flow,
            path: Path::default(),
            stime: first.stime,
            etime: first.etime,
            bytes: first.bytes,
            pkts: first.pkts,
        };
        for row in &self.rows {
            rec.flow = row.flow;
            rec.path
                .0
                .clone_from(&self.paths.paths[row.path as usize].0);
            (rec.stime, rec.etime) = (row.stime, row.etime);
            (rec.bytes, rec.pkts) = (row.bytes, row.pkts);
            f(&rec);
        }
    }

    fn get_flows(&self, link: LinkPattern, range: TimeRange) -> Vec<FlowId> {
        if range == TimeRange::ANY {
            // Served straight from the maintained flow lists.
            if let Some(flows) = self.pattern_flows(link) {
                return flows;
            }
        }
        let mut seen: HashSet<FlowId, FnvBuild> = HashSet::default();
        let ids = self.matching_ids(link, range);
        let flows = ids.iter().map(|&id| self.rows[id as usize].flow);
        flows.filter(|&flow| seen.insert(flow)).collect()
    }

    fn get_paths(&self, flow: FlowId, link: LinkPattern, range: TimeRange) -> Vec<Path> {
        // Each path is tested once, by id; only those that match go out.
        let mut seen: Vec<u32> = Vec::new();
        let mut out = Vec::new();
        for row in self.flow_rows(flow, None, range) {
            if seen.contains(&row.path) {
                continue;
            }
            seen.push(row.path);
            let path = &self.paths.paths[row.path as usize];
            if link.is_any() || path.links().any(|l| link.matches(l)) {
                out.push(path.clone());
            }
        }
        out
    }

    fn get_count(&self, flow: FlowId, path: Option<&Path>, range: TimeRange) -> (u64, u64) {
        if path.is_none() && range == TimeRange::ANY {
            // All-time flow totals are maintained incrementally.
            return self.flows.count(flow);
        }
        let rows = self.flow_rows(flow, path, range);
        rows.fold((0, 0), |(b, p), row| (b + row.bytes, p + row.pkts))
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
        if link.is_any() && range == TimeRange::ANY {
            return self.flows.counts().for_each(|(&id, &(b, p))| f(id, b, p));
        }
        self.for_each_match(link, range, |_, row| f(row.flow, row.bytes, row.pkts));
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
