//! The intent model: a verified snapshot of the forwarding state, distilled
//! into per-destination next-hop DAGs for fast runtime conformance checks.
//!
//! An [`IntentModel`] is only constructible from tables that pass
//! [`verify`] clean — so every per-destination graph
//! is a DAG and every maximal walk terminates at the destination. That
//! invariant is what lets membership checks, path enumeration, and path /
//! link-membership counting all run without cycle guards.

use std::collections::HashMap;

use pathdump_topology::{Path, Peer, RouteTables, SwitchId, Topology, UpDownRouting};

use crate::verify::{verify, Verdict};

/// A verified, queryable model of intended forwarding.
///
/// `next[dst_slot][sw]` holds the intended next-hop *switches* at `sw` for
/// traffic toward the destination ToR with dense index `dst_slot` — the
/// ECMP candidate ports of the verified [`RouteTables`], resolved through
/// the topology's wiring. The destination's own row is empty (walks
/// terminate there).
#[derive(Clone, Debug)]
pub struct IntentModel {
    tors: Vec<SwitchId>,
    /// `tor_slot[s]` = dense index of ToR `s`, or `usize::MAX`.
    tor_slot: Vec<usize>,
    /// `next[dst_slot][sw]` = intended next-hop switches.
    next: Vec<Vec<Vec<SwitchId>>>,
}

impl IntentModel {
    /// Builds the model after statically verifying `routes`; refuses tables
    /// that are not provably loop-, blackhole-, and misdelivery-free, and
    /// returns the failing [`Verdict`] instead.
    pub fn build(topo: &Topology, routes: &RouteTables) -> Result<Self, Verdict> {
        let verdict = verify(topo, routes);
        if !verdict.is_clean() {
            return Err(verdict);
        }
        let tors = routes.tors().to_vec();
        let mut tor_slot = vec![usize::MAX; topo.num_switches()];
        for (i, t) in tors.iter().enumerate() {
            tor_slot[t.index()] = i;
        }
        let mut next = vec![vec![Vec::new(); topo.num_switches()]; tors.len()];
        for (sw, dst_tor, cands) in routes.rules() {
            let slot = tor_slot[dst_tor.index()];
            let hops = &mut next[slot][sw.index()];
            for &p in cands {
                // A clean verdict guarantees reachable candidates are
                // switch-facing; skip anything else defensively.
                if let Peer::Switch { sw: v, .. } = topo.peer(sw, p) {
                    if !hops.contains(&v) {
                        hops.push(v);
                    }
                }
            }
            hops.sort_unstable();
        }
        Ok(IntentModel {
            tors,
            tor_slot,
            next,
        })
    }

    /// Convenience: builds canonical tables from a routing implementation
    /// and verifies them.
    pub fn from_routing<R: UpDownRouting + ?Sized>(routing: &R) -> Result<Self, Verdict> {
        let rt = RouteTables::build(routing);
        Self::build(routing.topology(), &rt)
    }

    /// The ToR switches of the model, in dense order.
    pub fn tors(&self) -> &[SwitchId] {
        &self.tors
    }

    fn slot(&self, tor: SwitchId) -> Option<usize> {
        self.tor_slot
            .get(tor.index())
            .copied()
            .filter(|&s| s != usize::MAX)
    }

    /// True when `path` is one of the intended switch-level paths from
    /// `src_tor` to `dst_tor`: correct endpoints and every hop licensed by
    /// the verified next-hop relation. The intra-rack path is the
    /// single-switch walk `[src_tor]`.
    pub fn contains(&self, src_tor: SwitchId, dst_tor: SwitchId, path: &Path) -> bool {
        let Some(slot) = self.slot(dst_tor) else {
            return false;
        };
        if self.slot(src_tor).is_none() {
            return false;
        }
        if path.first() != Some(src_tor) || path.last() != Some(dst_tor) {
            return false;
        }
        if src_tor == dst_tor {
            return path.len() == 1;
        }
        path.links()
            .all(|l| self.next[slot][l.from.index()].contains(&l.to))
    }

    /// Enumerates the complete intended path set for one pair, in
    /// lexicographic order.
    pub fn paths(&self, src_tor: SwitchId, dst_tor: SwitchId) -> Vec<Path> {
        let Some(slot) = self.slot(dst_tor) else {
            return Vec::new();
        };
        if self.slot(src_tor).is_none() {
            return Vec::new();
        }
        if src_tor == dst_tor {
            return vec![Path(vec![src_tor])];
        }
        let mut out = Vec::new();
        let mut walk = vec![src_tor];
        self.enumerate(slot, dst_tor, &mut walk, &mut out);
        out.sort_unstable();
        out
    }

    fn enumerate(&self, slot: usize, dst: SwitchId, walk: &mut Vec<SwitchId>, out: &mut Vec<Path>) {
        let u = *walk.last().expect("walk starts non-empty");
        if u == dst {
            out.push(Path(walk.clone()));
            return;
        }
        for &v in &self.next[slot][u.index()] {
            walk.push(v);
            self.enumerate(slot, dst, walk, out);
            walk.pop();
        }
    }

    /// Number of intended paths for one pair, by suffix-count dynamic
    /// programming (no enumeration).
    pub fn path_count(&self, src_tor: SwitchId, dst_tor: SwitchId) -> u64 {
        let Some(slot) = self.slot(dst_tor) else {
            return 0;
        };
        if self.slot(src_tor).is_none() {
            return 0;
        }
        let mut memo = vec![None; self.next[slot].len()];
        self.count_down(slot, dst_tor, src_tor, &mut memo)
    }

    fn count_down(&self, slot: usize, dst: SwitchId, u: SwitchId, memo: &mut [Option<u64>]) -> u64 {
        if u == dst {
            return 1;
        }
        if let Some(c) = memo[u.index()] {
            return c;
        }
        let c = self.next[slot][u.index()]
            .iter()
            .map(|&v| self.count_down(slot, dst, v, memo))
            .sum();
        memo[u.index()] = Some(c);
        c
    }

    /// Total intended paths over all (src, dst) ToR pairs — the size of the
    /// path product the verifier covered, for benchmarks and gates.
    pub fn total_paths(&self) -> u64 {
        self.tors
            .iter()
            .flat_map(|&s| self.tors.iter().map(move |&d| (s, d)))
            .map(|(s, d)| self.path_count(s, d))
            .sum()
    }

    /// Per-link membership counts: for every directed switch link, how many
    /// intended paths (over all ToR pairs) traverse it. This is the static
    /// input 007-style scoring needs to weight link votes.
    ///
    /// Computed per destination with two DP sweeps over the DAG: `down[u]` =
    /// paths from `u` to the destination, `reach[u]` = path prefixes from
    /// any source ToR ending at `u`; each edge `u→v` then carries
    /// `reach[u] · down[v]` paths.
    pub fn link_membership(&self) -> HashMap<(SwitchId, SwitchId), u64> {
        let mut membership = HashMap::new();
        for (slot, &d) in self.tors.iter().enumerate() {
            let n = self.next[slot].len();
            let mut down = vec![None; n];
            for &s in &self.tors {
                self.count_down(slot, d, s, &mut down);
            }
            // Topological order over nodes with known `down` (the explored
            // sub-DAG): repeatedly relax until fixpoint is unnecessary —
            // Kahn over the reversed edges is simpler via repeated sweeps
            // on a DAG of bounded depth, but an explicit order is cheap:
            let order = self.topo_order(slot);
            let mut reach = vec![0u64; n];
            for &s in &self.tors {
                if s != d {
                    reach[s.index()] += 1;
                }
            }
            for &u in &order {
                if reach[u.index()] == 0 || u == d {
                    continue;
                }
                for &v in &self.next[slot][u.index()] {
                    let dv = down[v.index()].unwrap_or(if v == d { 1 } else { 0 });
                    *membership.entry((u, v)).or_insert(0) += reach[u.index()] * dv;
                    if v != d {
                        reach[v.index()] += reach[u.index()];
                    }
                }
            }
        }
        membership
    }

    /// Kahn topological order of one destination's next-hop DAG.
    fn topo_order(&self, slot: usize) -> Vec<SwitchId> {
        let n = self.next[slot].len();
        let mut indeg = vec![0usize; n];
        for hops in &self.next[slot] {
            for v in hops {
                indeg[v.index()] += 1;
            }
        }
        let mut queue: Vec<SwitchId> = (0..n)
            .filter(|&i| indeg[i] == 0)
            .map(|i| SwitchId(i as u16))
            .collect();
        let mut order = Vec::with_capacity(n);
        while let Some(u) = queue.pop() {
            order.push(u);
            for &v in &self.next[slot][u.index()] {
                indeg[v.index()] -= 1;
                if indeg[v.index()] == 0 {
                    queue.push(v);
                }
            }
        }
        order
    }

    /// The intended path sharing the longest common prefix with `observed`
    /// (ties broken lexicographically): the "nearest intended path" attached
    /// to `PC_FAIL` alarms so operators see where the trajectory diverged.
    pub fn nearest_intended(
        &self,
        src_tor: SwitchId,
        dst_tor: SwitchId,
        observed: &Path,
    ) -> Option<Path> {
        let candidates = self.paths(src_tor, dst_tor);
        candidates
            .into_iter()
            .map(|p| {
                let common =
                    p.0.iter()
                        .zip(observed.0.iter())
                        .take_while(|(a, b)| a == b)
                        .count();
                (common, p)
            })
            // max_by picks the last maximum; reversing the tie-break via
            // min on (-common, path) keeps the smallest path instead.
            .min_by(|(ca, pa), (cb, pb)| cb.cmp(ca).then_with(|| pa.cmp(pb)))
            .map(|(_, p)| p)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_topology::{FatTree, FatTreeParams, Vl2, Vl2Params};

    fn k4_model() -> (FatTree, IntentModel) {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let im = IntentModel::from_routing(&ft).expect("healthy k=4 verifies clean");
        (ft, im)
    }

    #[test]
    fn build_refuses_broken_tables() {
        let ft = FatTree::build(FatTreeParams { k: 4 });
        let mut rt = RouteTables::build(&ft);
        rt.set_candidates(ft.agg(1, 0), ft.tor(1, 0), vec![]);
        let err = IntentModel::build(ft.topology(), &rt).unwrap_err();
        assert!(!err.is_clean());
    }

    #[test]
    fn path_sets_match_canonical_enumeration() {
        let (ft, im) = k4_model();
        for sp in 0..2u16 {
            for dp in 0..2u16 {
                let (src, dst) = (ft.host(0, sp as usize, 0), ft.host(3, dp as usize, 0));
                let canonical = ft.all_paths(src, dst);
                let st = ft.topology().host(src).tor;
                let dt = ft.topology().host(dst).tor;
                let mut enumerated = im.paths(st, dt);
                enumerated.sort_unstable();
                let mut want = canonical.clone();
                want.sort_unstable();
                assert_eq!(enumerated, want);
                assert_eq!(im.path_count(st, dt), canonical.len() as u64);
                for p in &canonical {
                    assert!(im.contains(st, dt, p));
                }
            }
        }
    }

    #[test]
    fn contains_rejects_detours_and_wrong_endpoints() {
        let (ft, im) = k4_model();
        let (t00, t01, t10) = (ft.tor(0, 0), ft.tor(0, 1), ft.tor(1, 0));
        let a00 = ft.agg(0, 0);
        // Intra-pod detour through the wrong rack.
        let detour = Path(vec![t00, a00, t01, ft.agg(0, 1), t00]);
        assert!(!im.contains(t00, t00, &detour));
        // Valid walk, wrong destination claim.
        let intra = Path(vec![t00, a00, t01]);
        assert!(im.contains(t00, t01, &intra));
        assert!(!im.contains(t00, t10, &intra));
        // Intra-rack.
        assert!(im.contains(t00, t00, &Path(vec![t00])));
        assert!(!im.contains(t00, t00, &Path(vec![t01])));
    }

    #[test]
    fn nearest_intended_shares_longest_prefix() {
        let (ft, im) = k4_model();
        let (t00, t10) = (ft.tor(0, 0), ft.tor(1, 0));
        let (a00, a10, a11) = (ft.agg(0, 0), ft.agg(1, 0), ft.agg(1, 1));
        let c0 = ft.core(0);
        // Observed detour that starts up the intended a00/c0 branch then
        // wanders: nearest intended path must keep that prefix.
        let observed = Path(vec![t00, a00, c0, a10, ft.tor(1, 1), a11, t10]);
        let near = im.nearest_intended(t00, t10, &observed).unwrap();
        assert_eq!(&near.0[..4], &[t00, a00, c0, a10]);
        assert_eq!(near.last(), Some(t10));
        assert!(im.contains(t00, t10, &near));
    }

    #[test]
    fn link_membership_counts_paths_per_link() {
        let (ft, im) = k4_model();
        let m = im.link_membership();
        // Total membership = sum over pairs of path_count × links per path.
        // Cross-check one uplink: t00→a00 carries every path from t00 that
        // resolves its first ECMP choice to a00: 1 (to t01) + 2 (to each of
        // the 6 remote ToRs) = 13.
        let (t00, a00) = (ft.tor(0, 0), ft.agg(0, 0));
        assert_eq!(m[&(t00, a00)], 13);
        // Down-links into a destination ToR carry all paths of remote pairs
        // routed through that agg: per (src pod ≠ 1) 2 paths via a10 × 6
        // remote ToRs... verify by DP instead: sum of memberships of
        // incoming links of t10 equals all multi-switch paths ending there.
        let t10 = ft.tor(1, 0);
        let incoming: u64 = m
            .iter()
            .filter(|((_, v), _)| *v == t10)
            .map(|(_, c)| c)
            .sum();
        let expected: u64 = im
            .tors()
            .iter()
            .filter(|&&s| s != t10)
            .map(|&s| im.path_count(s, t10))
            .sum();
        assert_eq!(incoming, expected);
    }

    #[test]
    fn vl2_model_counts_match_enumeration() {
        let v2 = Vl2::build(Vl2Params {
            da: 4,
            di: 4,
            hosts_per_tor: 2,
        });
        let im = IntentModel::from_routing(&v2).expect("healthy VL2 verifies clean");
        let (t0, t1) = (v2.tor(0), v2.tor(1));
        let enumerated = im.paths(t0, t1);
        assert_eq!(enumerated.len() as u64, im.path_count(t0, t1));
        let (src, dst) = (v2.host(0, 0), v2.host(1, 0));
        let mut canonical = v2.all_paths(src, dst);
        canonical.sort_unstable();
        assert_eq!(enumerated, canonical);
    }
}
