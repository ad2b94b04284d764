//! Ranged TIB diffing: the time-travel primitive behind the operator
//! question "what changed about flow F's path before vs after time T?"
//! (the §4.1 path-change debugging workflow, made a first-class store
//! operation instead of two ad-hoc queries glued together).
//!
//! A diff compares two *views* — each a `(store, TimeRange)` pair, the
//! store being anything that is [`TibRead`] — by the distinct path set
//! every flow took within the view's range. [`TibDiff::between`] is the
//! one entry point; [`TibDiff::at`] is it with one store split at an
//! instant (time travel within one TIB) and [`diff_snapshots`] is it over
//! two snapshots loaded with [`crate::snapshot::load_tiered`].

use crate::tib::TibRead;
use pathdump_topology::{FlowId, LinkPattern, Nanos, Path, TimeRange};
use pathdump_wire::WireResult;
use std::collections::HashSet;

/// One flow whose distinct path set differs between the two views.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PathDelta {
    /// The flow.
    pub flow: FlowId,
    /// Distinct paths in the *before* view (insertion order).
    pub before: Vec<Path>,
    /// Distinct paths in the *after* view (insertion order).
    pub after: Vec<Path>,
}

impl PathDelta {
    /// Paths present after but not before (new routes).
    pub fn added(&self) -> Vec<&Path> {
        let seen: HashSet<&Path> = self.before.iter().collect();
        self.after.iter().filter(|p| !seen.contains(*p)).collect()
    }

    /// Paths present before but not after (retired routes).
    pub fn removed(&self) -> Vec<&Path> {
        let seen: HashSet<&Path> = self.after.iter().collect();
        self.before.iter().filter(|p| !seen.contains(*p)).collect()
    }
}

/// The result of diffing two TIB views.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct TibDiff {
    /// Flows whose path sets differ, in first-observation order (before
    /// view first, then flows only seen in the after view).
    pub deltas: Vec<PathDelta>,
    /// Records overlapping the before range.
    pub before_records: usize,
    /// Records overlapping the after range.
    pub after_records: usize,
}

impl TibDiff {
    /// True when no flow changed paths between the views.
    pub fn is_empty(&self) -> bool {
        self.deltas.is_empty()
    }

    /// Diffs two views: per-flow distinct path sets within each range.
    /// Flows whose path sets are identical in both views are omitted; a
    /// flow present in only one view appears with the other side empty.
    pub fn between<B: TibRead + ?Sized, A: TibRead + ?Sized>(
        before: &B,
        before_range: TimeRange,
        after: &A,
        after_range: TimeRange,
    ) -> TibDiff {
        let mut flows = before.get_flows(LinkPattern::ANY, before_range);
        let seen: HashSet<FlowId> = flows.iter().copied().collect();
        flows.extend(
            after
                .get_flows(LinkPattern::ANY, after_range)
                .into_iter()
                .filter(|f| !seen.contains(f)),
        );
        let mut deltas = Vec::new();
        for flow in flows {
            let b = before.get_paths(flow, LinkPattern::ANY, before_range);
            let a = after.get_paths(flow, LinkPattern::ANY, after_range);
            if b != a {
                deltas.push(PathDelta {
                    flow,
                    before: b,
                    after: a,
                });
            }
        }
        fn count<T: TibRead + ?Sized>(tib: &T, range: &TimeRange) -> usize {
            let mut n = 0;
            tib.for_each_record(&mut |r| {
                if r.overlaps(range) {
                    n += 1;
                }
            });
            n
        }
        TibDiff {
            deltas,
            before_records: count(before, &before_range),
            after_records: count(after, &after_range),
        }
    }

    /// Time-travel diff within one store: path sets of every flow up to
    /// and including `t` vs from `t` onward. A record spanning `t` is
    /// active in both eras and contributes to both sides (`TimeRange` is
    /// closed on both ends — see the convention note in [`crate::tib`]).
    pub fn at<T: TibRead + ?Sized>(tib: &T, t: Nanos) -> TibDiff {
        TibDiff::between(tib, TimeRange::until(t), tib, TimeRange::since(t))
    }

    /// The delta for one flow, if it changed.
    pub fn for_flow(&self, flow: FlowId) -> Option<&PathDelta> {
        self.deltas.iter().find(|d| d.flow == flow)
    }
}

/// Diffs two snapshots of either envelope (whole stores, `TimeRange::ANY`
/// on both sides) — "what changed between yesterday's snapshot and
/// today's?".
pub fn diff_snapshots(before: &[u8], after: &[u8]) -> WireResult<TibDiff> {
    let b = crate::snapshot::load_tiered(before)?;
    let a = crate::snapshot::load_tiered(after)?;
    Ok(TibDiff::between(&b, TimeRange::ANY, &a, TimeRange::ANY))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::TibRecord;
    use crate::segment::TieredTib;
    use crate::snapshot::save_tiered;
    use crate::tib::Tib;
    use pathdump_topology::{Ip, SwitchId};

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    fn path(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    fn rec(sport: u16, p: &[u16], t0: u64, t1: u64) -> TibRecord {
        TibRecord {
            flow: flow(sport),
            path: path(p),
            stime: Nanos(t0),
            etime: Nanos(t1),
            bytes: 100,
            pkts: 1,
        }
    }

    #[test]
    fn diff_at_catches_reroute() {
        let mut t = Tib::new();
        t.insert(rec(1, &[0, 8, 4], 0, 100)); // before: via 8
        t.insert(rec(1, &[0, 9, 4], 200, 300)); // after: via 9
        t.insert(rec(2, &[1, 8, 5], 0, 300)); // spans the split: no delta
        let d = TibDiff::at(&t, Nanos(150));
        assert_eq!(d.deltas.len(), 1);
        let delta = d.for_flow(flow(1)).expect("flow 1 changed");
        assert_eq!(delta.before, vec![path(&[0, 8, 4])]);
        assert_eq!(delta.after, vec![path(&[0, 9, 4])]);
        assert_eq!(delta.added(), vec![&path(&[0, 9, 4])]);
        assert_eq!(delta.removed(), vec![&path(&[0, 8, 4])]);
        assert!(d.for_flow(flow(2)).is_none(), "stable flow omitted");
        assert_eq!(d.before_records, 2);
        assert_eq!(d.after_records, 2);
    }

    #[test]
    fn record_spanning_split_lands_on_both_sides() {
        let mut t = Tib::new();
        t.insert(rec(1, &[0, 8, 4], 0, 100));
        // Diff exactly at the record's etime: closed ranges put it in
        // both eras, so the path set is identical and the diff is empty.
        let d = TibDiff::at(&t, Nanos(100));
        assert!(d.is_empty());
        assert_eq!(d.before_records, 1);
        assert_eq!(d.after_records, 1);
        // One past the etime: the record exists only before the split.
        let d = TibDiff::at(&t, Nanos(101));
        assert_eq!(d.deltas.len(), 1);
        let delta = &d.deltas[0];
        assert_eq!(delta.before, vec![path(&[0, 8, 4])]);
        assert!(delta.after.is_empty());
    }

    #[test]
    fn snapshot_diff_reports_new_and_lost_flows() {
        let mut old = TieredTib::new();
        old.insert(rec(1, &[0, 8, 4], 0, 100));
        old.insert(rec(3, &[1, 9, 5], 0, 50));
        let mut new = TieredTib::new();
        new.insert(rec(1, &[0, 8, 4], 0, 100)); // unchanged
        new.insert(rec(2, &[0, 9, 4], 200, 250)); // new flow
        let (old, new) = (save_tiered(&old).unwrap(), save_tiered(&new).unwrap());
        let d = diff_snapshots(&old, &new).expect("valid snapshots");
        assert_eq!(d.deltas.len(), 2);
        assert!(d.for_flow(flow(1)).is_none());
        let lost = d.for_flow(flow(3)).expect("flow 3 disappeared");
        assert!(lost.after.is_empty());
        let gained = d.for_flow(flow(2)).expect("flow 2 appeared");
        assert!(gained.before.is_empty());
        assert_eq!(gained.after, vec![path(&[0, 9, 4])]);
    }

    #[test]
    fn snapshot_diff_rejects_garbage() {
        assert!(diff_snapshots(&[1, 2, 3], &[4, 5, 6]).is_err());
    }

    #[test]
    fn identical_views_diff_empty() {
        let mut t = Tib::new();
        t.insert(rec(1, &[0, 8, 4], 0, 100));
        let d = TibDiff::between(&t, TimeRange::ANY, &t, TimeRange::ANY);
        assert!(d.is_empty());
        assert!(TibDiff::default().is_empty());
    }
}
