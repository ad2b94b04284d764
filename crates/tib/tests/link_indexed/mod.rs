//! The link-indexed store: `Tib` as it was before the path dictionary, body
//! verbatim but for what a differential oracle has no use for (sizing, the
//! bucket diagnostics, the unit tests). Every record is filed once per link
//! in `by_link`, once per switch it enters or leaves (with its flow, in a
//! per-switch first-appearance list) and once in a time column beside an
//! arena of owned `TibRecord`s. All-time top-k comes from the trait's
//! provided body, which ranks the same totals with the same selection.

use pathdump_tib::{TibRead, TibRecord, DEFAULT_BUCKET_WIDTH};
use pathdump_topology::{FlowId, FnvBuild, LinkDir, LinkPattern, Nanos, Path, TimeRange};
use std::collections::{BTreeMap, HashMap, HashSet};

type FMap<K, V> = HashMap<K, V, FnvBuild>;

#[derive(Clone, Debug, Default)]
struct FlowTable {
    index: FMap<FlowId, u32>,
    order: Vec<FlowId>,
    totals: Vec<(u64, u64)>,
}

impl FlowTable {
    fn add(&mut self, flow: FlowId, bytes: u64, pkts: u64) -> u32 {
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

    fn count(&self, flow: FlowId) -> (u64, u64) {
        self.index
            .get(&flow)
            .map_or((0, 0), |&i| self.totals[i as usize])
    }

    fn counts(&self) -> impl ExactSizeIterator<Item = (&FlowId, &(u64, u64))> {
        self.order.iter().zip(&self.totals)
    }
}

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

#[derive(Clone, Debug, Default)]
struct SwitchIndex {
    ids: Vec<u32>,
    flows: Vec<FlowId>,
    listed: Vec<u64>,
}

impl SwitchIndex {
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

fn slot(table: &mut Vec<SwitchIndex>, sw: u16) -> &mut SwitchIndex {
    if table.len() <= sw as usize {
        table.resize_with(sw as usize + 1, SwitchIndex::default);
    }
    &mut table[sw as usize]
}

#[derive(Clone, Debug, Default)]
struct Bucket {
    ids: Vec<u32>,
    flow_totals: FMap<u32, (u64, u64)>,
    max_etime: Nanos,
}

/// The link-indexed per-host store.
#[derive(Clone, Debug)]
pub struct LinkIndexedTib {
    records: Vec<TibRecord>,
    times: Vec<(Nanos, Nanos)>,
    flows: FlowTable,
    by_flow: Vec<Postings>,
    by_link: FMap<LinkDir, Vec<u32>>,
    by_switch_in: Vec<SwitchIndex>,
    by_switch_out: Vec<SwitchIndex>,
    buckets: BTreeMap<u64, Bucket>,
    bucket_width: u64,
}

impl Default for LinkIndexedTib {
    fn default() -> Self {
        LinkIndexedTib::with_bucket_width(DEFAULT_BUCKET_WIDTH)
    }
}

impl LinkIndexedTib {
    pub fn with_bucket_width(width: Nanos) -> Self {
        assert!(width.0 > 0, "bucket width must be positive");
        LinkIndexedTib {
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

    pub fn insert(&mut self, rec: TibRecord) {
        let id = self.records.len() as u32;
        let fidx = self.flows.add(rec.flow, rec.bytes, rec.pkts);
        match self.by_flow.get_mut(fidx as usize) {
            Some(postings) => postings.push(id),
            None => self.by_flow.push(Postings::One(id)),
        }
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

    fn overlapping(&self, id: u32, range: &TimeRange) -> Option<&TibRecord> {
        let (stime, etime) = self.times[id as usize];
        range
            .overlaps(stime, etime)
            .then(|| &self.records[id as usize])
    }

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

    fn live_buckets(&self, range: &TimeRange) -> impl Iterator<Item = (u64, &Bucket)> {
        let hi = range.end.map_or(u64::MAX, |e| e.0 / self.bucket_width);
        let lo = range.start.unwrap_or(Nanos::ZERO);
        let upto = self.buckets.range(..=hi).map(|(&k, b)| (k, b));
        upto.filter(move |(_, b)| b.max_etime >= lo)
    }

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

    fn duration_bounds(
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

    fn bucket_contained(&self, k: u64, range: &TimeRange) -> bool {
        let start = k * self.bucket_width;
        let end = start.saturating_add(self.bucket_width - 1);
        range.start.is_none_or(|s| s.0 <= start) && range.end.is_none_or(|e| end <= e.0)
    }
}

impl TibRead for LinkIndexedTib {
    fn num_records(&self) -> usize {
        self.records.len()
    }

    fn for_each_record(&self, f: &mut dyn FnMut(&TibRecord)) {
        for rec in &self.records {
            f(rec);
        }
    }

    fn get_flows(&self, link: LinkPattern, range: TimeRange) -> Vec<FlowId> {
        if range == TimeRange::ANY {
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
            let recs = ids.iter().filter_map(|&id| self.overlapping(id, &range));
            recs.for_each(push);
        } else {
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
}
