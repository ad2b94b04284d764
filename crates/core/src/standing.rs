//! Standing queries: the controller's continuous-monitoring layer
//! (§2.3, §4 — install a predicate once, get an [`Alarm`] when it flips).
//!
//! A [`StandingQueryEngine`] holds registered [`StandingQuery`] watches
//! and re-evaluates them **incrementally** as each [`TibRecord`] lands in
//! the host's [`Tib`](pathdump_tib::Tib) — riding the store's running per-flow totals and
//! bucketed time index, never rescanning the record arena on the insert
//! path. Registration may scan once (seeding per-watch state and the
//! event-time clock from records inserted before the watch existed); the
//! per-record path afterwards does O(1) work per watch plus, when a cheap
//! flip check says the predicate *could* have changed, one aggregate
//! query (`top_k_flows` / posting-list `get_count`).
//!
//! # Incremental-equals-recompute contract
//!
//! After every insert, each watch's `active` flag is **bit-identical** to
//! evaluating its predicate from scratch against the full record multiset
//! (and the derived event-time clock, `max etime` over all records). The
//! `standing_differential` proptest pins this for arbitrary record
//! streams and registration orders. The only protocol requirement is that
//! every `Tib::insert` after a watch is registered is mirrored by an
//! [`StandingQueryEngine::on_record`] call (the [`crate::HostAgent`]
//! hookup does this in `finalize`).
//!
//! # Hysteresis
//!
//! A watch raises exactly **once per false→true transition** and emits a
//! matching clear event on true→false: a predicate that keeps being
//! re-confirmed by new records while already active stays silent. A watch
//! that is already true at registration raises immediately (the standing
//! condition is surfaced, not hidden).

use crate::alarm::{Alarm, Reason};
use pathdump_tib::{TibRead, TibRecord};
use pathdump_topology::{FlowId, HostId, Ip, LinkPattern, Nanos, Path, TimeRange};
use std::collections::HashSet;

/// Handle to a registered watch.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct WatchId(pub u64);

/// The predicate of a standing query.
#[derive(Clone, Debug, PartialEq)]
pub enum StandingPredicate {
    /// True while `flow` is among the top `k` flows by all-time bytes
    /// (ties broken like [`TibRead::top_k_flows`]: flow id descending).
    TopKMember {
        /// The flow whose membership is watched.
        flow: FlowId,
        /// Top-k size.
        k: usize,
    },
    /// True while the flow's bytes AND packets over the sliding window
    /// `[clock − window, clock]` meet the thresholds, where `clock` is
    /// the event-time clock (max etime over all records). Both bounds
    /// are inclusive — the `TimeRange` convention.
    RateAbove {
        /// The flow whose rate is watched.
        flow: FlowId,
        /// Sliding window length.
        window: Nanos,
        /// Minimum bytes within the window.
        min_bytes: u64,
        /// Minimum packets within the window.
        min_pkts: u64,
    },
    /// True while the flow's two most recent records (insertion order)
    /// disagree on the path — the flow was just rerouted.
    PathChanged {
        /// The flow whose path stability is watched.
        flow: FlowId,
    },
    /// True while more than `ceiling` distinct flows have ever traversed
    /// a link matching `link` (a link fan-in ceiling; monotone, so it
    /// never clears).
    LinkFlowsAbove {
        /// Link pattern (wildcards allowed).
        link: LinkPattern,
        /// Maximum allowed distinct flows.
        ceiling: usize,
    },
}

/// A standing query: a predicate plus the alarm reason to raise with.
#[derive(Clone, Debug, PartialEq)]
pub struct StandingQuery {
    /// The watched predicate.
    pub predicate: StandingPredicate,
    /// Reason attached to raised alarms.
    pub reason: Reason,
}

impl StandingQuery {
    /// A query raising the generic [`Reason::InvariantViolated`].
    pub fn new(predicate: StandingPredicate) -> Self {
        StandingQuery {
            predicate,
            reason: Reason::InvariantViolated,
        }
    }
}

/// One predicate flip: a raise (`raised = true`, false→true) or a clear.
/// The embedded alarm is what the raise put on the agent's alarm bus;
/// clears carry the same shape for symmetric bookkeeping but are not
/// re-sent as alarms (the `Alarm` wire type has no cleared notion).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct StandingEvent {
    /// The watch that flipped.
    pub watch: WatchId,
    /// true = false→true (alarm raised), false = true→false (cleared).
    pub raised: bool,
    /// The alarm payload.
    pub alarm: Alarm,
}

/// Per-watch incremental state.
#[derive(Clone, Debug)]
enum WatchState {
    /// Predicates answered from the TIB's own aggregates.
    Stateless,
    /// Last two paths of the watched flow, insertion order.
    PathChange {
        prev: Option<Path>,
        last: Option<Path>,
    },
    /// Distinct flows seen on the watched link: `order` is the
    /// deterministic answer, `seen` the dedup set.
    LinkFlows {
        order: Vec<FlowId>,
        seen: HashSet<FlowId>,
    },
}

#[derive(Clone, Debug)]
struct Watch {
    id: WatchId,
    query: StandingQuery,
    active: bool,
    state: WatchState,
}

/// The per-host standing-query engine. See the module docs for the
/// incremental-equals-recompute contract and the hysteresis semantics.
#[derive(Clone, Debug)]
pub struct StandingQueryEngine {
    host: HostId,
    next_id: u64,
    /// Event-time clock: max etime over all records observed or seeded.
    clock: Nanos,
    watches: Vec<Watch>,
    events: Vec<StandingEvent>,
}

impl StandingQueryEngine {
    /// Creates an engine raising alarms as `host`.
    pub fn new(host: HostId) -> Self {
        StandingQueryEngine {
            host,
            next_id: 0,
            clock: Nanos::ZERO,
            watches: Vec::new(),
            events: Vec::new(),
        }
    }

    /// Number of registered watches.
    pub fn len(&self) -> usize {
        self.watches.len()
    }

    /// True when no watches are registered (the agent skips the
    /// per-record hook entirely in that case).
    pub fn is_empty(&self) -> bool {
        self.watches.is_empty()
    }

    /// The current event-time clock.
    pub fn clock(&self) -> Nanos {
        self.clock
    }

    /// The current value of a watch's predicate.
    pub fn active(&self, id: WatchId) -> Option<bool> {
        self.watches.iter().find(|w| w.id == id).map(|w| w.active)
    }

    /// Drains accumulated flip events (raises and clears, in flip order).
    pub fn drain_events(&mut self) -> Vec<StandingEvent> {
        std::mem::take(&mut self.events)
    }

    /// Registers a watch against the current contents of `tib`,
    /// returning its id. Seeds per-watch state (and the event-time
    /// clock) from already-stored records — the one place the engine may
    /// scan the arena — and evaluates the predicate immediately: a watch
    /// whose condition already holds raises right away.
    pub fn watch<T: TibRead + ?Sized>(
        &mut self,
        tib: &T,
        query: StandingQuery,
        now: Nanos,
    ) -> WatchId {
        let mut clock = self.clock;
        tib.for_each_record(&mut |r| {
            if r.etime > clock {
                clock = r.etime;
            }
        });
        self.clock = clock;
        let state = match &query.predicate {
            StandingPredicate::TopKMember { .. } | StandingPredicate::RateAbove { .. } => {
                WatchState::Stateless
            }
            StandingPredicate::PathChanged { flow } => {
                let mut prev = None;
                let mut last = None;
                tib.for_each_record(&mut |r| {
                    if r.flow == *flow {
                        prev = last.take();
                        last = Some(r.path.clone());
                    }
                });
                WatchState::PathChange { prev, last }
            }
            StandingPredicate::LinkFlowsAbove { link, .. } => {
                let order = tib.get_flows(*link, TimeRange::ANY);
                let seen = order.iter().copied().collect();
                WatchState::LinkFlows { order, seen }
            }
        };
        let id = WatchId(self.next_id);
        self.next_id += 1;
        let mut w = Watch {
            id,
            query,
            active: false,
            state,
        };
        let active = Self::eval(&w, tib, self.clock);
        if active {
            let flow = Self::alarm_flow(&w, None);
            let alarm = Self::alarm_for(&w, self.host, flow, now);
            self.events.push(StandingEvent {
                watch: id,
                raised: true,
                alarm,
            });
        }
        w.active = active;
        self.watches.push(w);
        id
    }

    /// Removes a watch. Returns false when the id is unknown.
    pub fn unwatch(&mut self, id: WatchId) -> bool {
        let before = self.watches.len();
        self.watches.retain(|w| w.id != id);
        self.watches.len() != before
    }

    /// The incremental step: call once per [`Tib::insert`](pathdump_tib::Tib::insert), **after** the
    /// record is in the store. Updates per-watch state in O(1), decides
    /// via cheap monotonicity checks whether each predicate could have
    /// flipped, and re-derives it from the TIB's aggregates only then.
    /// Flips append [`StandingEvent`]s (drain with
    /// [`drain_events`](Self::drain_events)).
    pub fn on_record<T: TibRead + ?Sized>(&mut self, tib: &T, rec: &TibRecord, now: Nanos) {
        let clock_advanced = rec.etime > self.clock;
        if clock_advanced {
            self.clock = rec.etime;
        }
        let clock = self.clock;
        let host = self.host;
        let mut watches = std::mem::take(&mut self.watches);
        for w in &mut watches {
            let new_active = Self::step(w, tib, rec, clock, clock_advanced);
            if new_active != w.active {
                w.active = new_active;
                let flow = Self::alarm_flow(w, Some(rec.flow));
                let alarm = Self::alarm_for(w, host, flow, now);
                self.events.push(StandingEvent {
                    watch: w.id,
                    raised: new_active,
                    alarm,
                });
            }
        }
        self.watches = watches;
    }

    /// One watch's incremental evaluation for one inserted record.
    fn step<T: TibRead + ?Sized>(
        w: &mut Watch,
        tib: &T,
        rec: &TibRecord,
        clock: Nanos,
        clock_advanced: bool,
    ) -> bool {
        match (&w.query.predicate, &mut w.state) {
            (StandingPredicate::TopKMember { flow, k }, _) => {
                let (flow, k) = (*flow, *k);
                if rec.flow == flow {
                    // The target's own total only grew: it cannot fall out.
                    if w.active {
                        true
                    } else {
                        Self::topk_member(tib, flow, k)
                    }
                } else if !w.active {
                    // Another flow grew; the target cannot climb in.
                    false
                } else {
                    // Membership = fewer than k flows with a larger
                    // (bytes, flow) tuple. The other flow's move matters
                    // only if it crossed the target from below.
                    let (tb, _) = tib.get_count(flow, None, TimeRange::ANY);
                    let (ob, _) = tib.get_count(rec.flow, None, TimeRange::ANY);
                    let target = (tb, flow);
                    let other_new = (ob, rec.flow);
                    let other_old = (ob.saturating_sub(rec.bytes), rec.flow);
                    if other_new < target || other_old > target {
                        true
                    } else {
                        Self::topk_member(tib, flow, k)
                    }
                }
            }
            (
                StandingPredicate::RateAbove {
                    flow,
                    window,
                    min_bytes,
                    min_pkts,
                },
                _,
            ) => {
                // The window slides only when the clock advances; with a
                // static clock, only the watched flow's own records can
                // change the sums.
                if !clock_advanced && rec.flow != *flow {
                    w.active
                } else {
                    Self::rate_above(tib, *flow, *window, *min_bytes, *min_pkts, clock)
                }
            }
            (StandingPredicate::PathChanged { flow }, WatchState::PathChange { prev, last }) => {
                if rec.flow == *flow {
                    *prev = last.take();
                    *last = Some(rec.path.clone());
                }
                matches!((prev.as_ref(), last.as_ref()), (Some(a), Some(b)) if a != b)
            }
            (
                StandingPredicate::LinkFlowsAbove { link, ceiling },
                WatchState::LinkFlows { order, seen },
            ) => {
                if Self::path_matches(&rec.path, *link) && seen.insert(rec.flow) {
                    order.push(rec.flow);
                }
                order.len() > *ceiling
            }
            // State shapes are fixed at registration; a mismatch is
            // unreachable but must not panic on the ingest path.
            _ => w.active,
        }
    }

    /// Full evaluation of a watch's predicate from current state + store
    /// (used at registration; the differential proptest independently
    /// re-derives the same semantics from the raw record list).
    fn eval<T: TibRead + ?Sized>(w: &Watch, tib: &T, clock: Nanos) -> bool {
        match (&w.query.predicate, &w.state) {
            (StandingPredicate::TopKMember { flow, k }, _) => Self::topk_member(tib, *flow, *k),
            (
                StandingPredicate::RateAbove {
                    flow,
                    window,
                    min_bytes,
                    min_pkts,
                },
                _,
            ) => Self::rate_above(tib, *flow, *window, *min_bytes, *min_pkts, clock),
            (StandingPredicate::PathChanged { .. }, WatchState::PathChange { prev, last }) => {
                matches!((prev.as_ref(), last.as_ref()), (Some(a), Some(b)) if a != b)
            }
            (
                StandingPredicate::LinkFlowsAbove { ceiling, .. },
                WatchState::LinkFlows { order, .. },
            ) => order.len() > *ceiling,
            _ => false,
        }
    }

    fn topk_member<T: TibRead + ?Sized>(tib: &T, flow: FlowId, k: usize) -> bool {
        tib.top_k_flows(k, TimeRange::ANY)
            .iter()
            .any(|&(_, f)| f == flow)
    }

    fn rate_above<T: TibRead + ?Sized>(
        tib: &T,
        flow: FlowId,
        window: Nanos,
        min_bytes: u64,
        min_pkts: u64,
        clock: Nanos,
    ) -> bool {
        let range = TimeRange::between(clock.saturating_sub(window), clock);
        let (bytes, pkts) = tib.get_count(flow, None, range);
        bytes >= min_bytes && pkts >= min_pkts
    }

    fn path_matches(path: &Path, link: LinkPattern) -> bool {
        link.is_any() || path.links().any(|l| link.matches(l))
    }

    /// The flow an event names: the watched flow for flow predicates;
    /// for link ceilings the flow that tipped the count (`trigger`), or
    /// the last counted flow for registration-time raises.
    fn alarm_flow(w: &Watch, trigger: Option<FlowId>) -> FlowId {
        match (&w.query.predicate, &w.state) {
            (StandingPredicate::TopKMember { flow, .. }, _)
            | (StandingPredicate::RateAbove { flow, .. }, _)
            | (StandingPredicate::PathChanged { flow }, _) => *flow,
            (StandingPredicate::LinkFlowsAbove { .. }, WatchState::LinkFlows { order, .. }) => {
                trigger
                    .or(order.last().copied())
                    .unwrap_or(FlowId::tcp(Ip(0), 0, Ip(0), 0))
            }
            (StandingPredicate::LinkFlowsAbove { .. }, _) => {
                trigger.unwrap_or(FlowId::tcp(Ip(0), 0, Ip(0), 0))
            }
        }
    }

    /// Builds the alarm payload for a flip; path-change flips attach the
    /// two disagreeing paths as evidence.
    fn alarm_for(w: &Watch, host: HostId, flow: FlowId, now: Nanos) -> Alarm {
        let paths = match (&w.query.predicate, &w.state) {
            (StandingPredicate::PathChanged { .. }, WatchState::PathChange { prev, last }) => {
                prev.iter().chain(last.iter()).cloned().collect()
            }
            _ => Vec::new(),
        };
        Alarm {
            flow,
            reason: w.query.reason,
            paths,
            host,
            at: now,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_tib::Tib;

    fn flow(sport: u16) -> FlowId {
        FlowId::tcp(Ip::new(10, 0, 0, 2), sport, Ip::new(10, 1, 0, 2), 80)
    }

    fn path(ids: &[u16]) -> Path {
        Path::new(
            ids.iter()
                .map(|&i| pathdump_topology::SwitchId(i))
                .collect(),
        )
    }

    fn rec(sport: u16, p: &[u16], t0: u64, t1: u64, bytes: u64) -> TibRecord {
        TibRecord {
            flow: flow(sport),
            path: path(p),
            stime: Nanos(t0),
            etime: Nanos(t1),
            bytes,
            pkts: 1 + bytes / 100,
        }
    }

    fn ingest(eng: &mut StandingQueryEngine, tib: &mut Tib, r: TibRecord, now: u64) {
        tib.insert(r.clone());
        eng.on_record(tib, &r, Nanos(now));
    }

    #[test]
    fn rate_watch_raises_once_and_clears() {
        let mut tib = Tib::new();
        let mut eng = StandingQueryEngine::new(HostId(3));
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::RateAbove {
                flow: flow(1),
                window: Nanos(100),
                min_bytes: 500,
                min_pkts: 0,
            }),
            Nanos(0),
        );
        assert_eq!(eng.active(id), Some(false));
        // Two bursts inside one window: one raise, re-confirmation silent.
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 0, 10, 400), 10);
        assert_eq!(eng.active(id), Some(false), "below threshold");
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 20, 30, 400), 30);
        assert_eq!(eng.active(id), Some(true));
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 40, 50, 400), 50);
        assert_eq!(eng.active(id), Some(true), "still raised, no re-raise");
        // A late record from another flow slides the window past the
        // bursts: the watch clears.
        ingest(&mut eng, &mut tib, rec(2, &[0, 8, 4], 500, 600, 1), 600);
        assert_eq!(eng.active(id), Some(false));
        let events = eng.drain_events();
        assert_eq!(events.len(), 2, "one raise, one clear");
        assert!(events[0].raised && !events[1].raised);
        assert_eq!(events[0].alarm.flow, flow(1));
        assert_eq!(events[0].alarm.host, HostId(3));
        assert!(eng.drain_events().is_empty(), "drained");
    }

    #[test]
    fn topk_membership_flips_on_displacement() {
        let mut tib = Tib::new();
        let mut eng = StandingQueryEngine::new(HostId(0));
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::TopKMember {
                flow: flow(1),
                k: 2,
            }),
            Nanos(0),
        );
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 0, 10, 100), 1);
        assert_eq!(eng.active(id), Some(true), "only flow: in top-2");
        ingest(&mut eng, &mut tib, rec(2, &[0, 8, 4], 0, 10, 200), 2);
        assert_eq!(eng.active(id), Some(true), "second flow: still top-2");
        ingest(&mut eng, &mut tib, rec(3, &[0, 8, 4], 0, 10, 300), 3);
        assert_eq!(eng.active(id), Some(false), "displaced to rank 3");
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 20, 30, 500), 4);
        assert_eq!(eng.active(id), Some(true), "grew back into top-2");
        let flips: Vec<bool> = eng.drain_events().iter().map(|e| e.raised).collect();
        assert_eq!(flips, vec![true, false, true]);
    }

    #[test]
    fn path_change_attaches_both_paths() {
        let mut tib = Tib::new();
        let mut eng = StandingQueryEngine::new(HostId(0));
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::PathChanged { flow: flow(1) }),
            Nanos(0),
        );
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 0, 10, 1), 1);
        assert_eq!(eng.active(id), Some(false), "one record: no change yet");
        ingest(&mut eng, &mut tib, rec(1, &[0, 9, 4], 20, 30, 1), 2);
        assert_eq!(eng.active(id), Some(true), "rerouted");
        let events = eng.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(
            events[0].alarm.paths,
            vec![path(&[0, 8, 4]), path(&[0, 9, 4])]
        );
        // Same path again: last two agree, clears.
        ingest(&mut eng, &mut tib, rec(1, &[0, 9, 4], 40, 50, 1), 3);
        assert_eq!(eng.active(id), Some(false));
    }

    #[test]
    fn link_ceiling_counts_distinct_flows() {
        let mut tib = Tib::new();
        let mut eng = StandingQueryEngine::new(HostId(0));
        let link = LinkPattern::exact(
            pathdump_topology::SwitchId(0),
            pathdump_topology::SwitchId(8),
        );
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::LinkFlowsAbove { link, ceiling: 2 }),
            Nanos(0),
        );
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 0, 10, 1), 1);
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 20, 30, 1), 2);
        ingest(&mut eng, &mut tib, rec(2, &[0, 8, 4], 0, 10, 1), 3);
        assert_eq!(eng.active(id), Some(false), "2 distinct ≤ ceiling");
        ingest(&mut eng, &mut tib, rec(3, &[1, 9, 5], 0, 10, 1), 4);
        assert_eq!(eng.active(id), Some(false), "off-link flow ignored");
        ingest(&mut eng, &mut tib, rec(3, &[0, 8, 4], 20, 30, 1), 5);
        assert_eq!(eng.active(id), Some(true), "3rd distinct flow tips it");
        let events = eng.drain_events();
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].alarm.flow, flow(3), "triggering flow named");
    }

    #[test]
    fn registration_on_populated_store_raises_immediately() {
        let mut tib = Tib::new();
        tib.insert(rec(1, &[0, 8, 4], 0, 10, 900));
        tib.insert(rec(1, &[0, 9, 4], 20, 30, 900));
        let mut eng = StandingQueryEngine::new(HostId(0));
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::PathChanged { flow: flow(1) }),
            Nanos(99),
        );
        assert_eq!(eng.active(id), Some(true), "seeded from existing records");
        let events = eng.drain_events();
        assert_eq!(events.len(), 1);
        assert!(events[0].raised);
        assert_eq!(events[0].alarm.at, Nanos(99));
        // Clock seeded too: a rate watch over the existing window fires.
        let id2 = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::RateAbove {
                flow: flow(1),
                window: Nanos(50),
                min_bytes: 1000,
                min_pkts: 0,
            }),
            Nanos(100),
        );
        assert_eq!(eng.clock(), Nanos(30));
        assert_eq!(eng.active(id2), Some(true), "both records in [0, 30]");
    }

    #[test]
    fn unwatch_stops_evaluation() {
        let mut tib = Tib::new();
        let mut eng = StandingQueryEngine::new(HostId(0));
        let id = eng.watch(
            &tib,
            StandingQuery::new(StandingPredicate::TopKMember {
                flow: flow(1),
                k: 1,
            }),
            Nanos(0),
        );
        assert_eq!(eng.len(), 1);
        assert!(eng.unwatch(id));
        assert!(!eng.unwatch(id), "already removed");
        assert!(eng.is_empty());
        ingest(&mut eng, &mut tib, rec(1, &[0, 8, 4], 0, 10, 1), 1);
        assert!(eng.drain_events().is_empty());
        assert_eq!(eng.active(id), None);
    }
}
