//! Distributed query execution: direct queries and the multi-level
//! aggregation tree (§3.2 "query processing", evaluated in §5.2).
//!
//! The cluster holds one TIB per end-host. Queries and responses cross a
//! modeled management network (per-message latency + serialization at the
//! configured bandwidth — the paper's dedicated 1 GbE channel), while every
//! *computation* (local query execution, response merging) is measured in
//! real wall-clock time on real data. Response *bytes* come from actual
//! wire-encoded frames.
//!
//! Direct query: the controller unicasts the query to every host and
//! merges all responses itself — aggregation time grows linearly with the
//! number of hosts. Multi-level query: hosts form a tree (the paper's
//! 4-level, 7/4/4 fan-out over 112 hosts); interior hosts execute the query
//! locally *and* merge their children's responses, so controller-side work
//! stays flat and massive reductions (top-k discards `(n−1)·k` pairs)
//! happen in the tree.

use crate::agent::execute_on_tib;
use crate::query::{Query, Response};
use pathdump_tib::Tib;
use pathdump_topology::{Nanos, MICROS};
use pathdump_wire::{encoded_len, Encode, FRAME_OVERHEAD};
use std::time::Instant;

/// The modeled management network.
#[derive(Clone, Copy, Debug)]
pub struct MgmtNet {
    /// One-way per-message latency (propagation + kernel/IPC overheads).
    pub one_way_latency: Nanos,
    /// Channel bandwidth in bits/s (paper: dedicated 1 GbE).
    pub bandwidth_bps: u64,
}

impl Default for MgmtNet {
    fn default() -> Self {
        MgmtNet {
            one_way_latency: Nanos(100 * MICROS),
            bandwidth_bps: 1_000_000_000,
        }
    }
}

impl MgmtNet {
    /// Time for one message of `bytes` to cross the channel.
    pub fn transfer(&self, bytes: usize) -> Nanos {
        Nanos(self.one_way_latency.0 + bytes as u64 * 8 * 1_000_000_000 / self.bandwidth_bps)
    }
}

/// The result of a distributed query, with its cost breakdown.
#[derive(Clone, Debug)]
pub struct QueryOutcome {
    /// The merged response.
    pub response: Response,
    /// Modeled end-to-end response time (network model + measured compute).
    pub elapsed: Nanos,
    /// Total bytes that crossed the management network (frames included).
    pub wire_bytes: u64,
    /// Sum of per-host execution compute (measured).
    pub exec_compute: Nanos,
    /// Sum of merge compute across controller/interior nodes (measured).
    pub merge_compute: Nanos,
}

/// A query cluster: one TIB per host plus the network model.
pub struct Cluster {
    /// Per-host TIBs (index = host).
    pub tibs: Vec<Tib>,
    /// Management network model.
    pub net: MgmtNet,
}

/// One node of the aggregation tree.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct TreeNode {
    /// Host index.
    pub host: usize,
    /// Children (each itself a subtree).
    pub children: Vec<TreeNode>,
}

impl TreeNode {
    /// Total hosts in the subtree.
    pub fn size(&self) -> usize {
        1 + self.children.iter().map(|c| c.size()).sum::<usize>()
    }

    /// Depth of the subtree (1 = leaf).
    pub fn depth(&self) -> usize {
        1 + self.children.iter().map(|c| c.depth()).max().unwrap_or(0)
    }
}

/// Builds the aggregation tree over `hosts` with per-level fan-outs
/// (the paper's 112-host tree uses `[7, 4, 4]`: 7 level-1 aggregators,
/// 4 children each at level 2, 4 each at level 3 — all of them end-hosts
/// executing the query too). A host listed more than once gets one node,
/// at its first position: two nodes with one address would each wait for
/// the other's reply.
pub fn build_tree(hosts: &[usize], fanouts: &[usize]) -> Vec<TreeNode> {
    let mut seen = std::collections::HashSet::new();
    let hosts: Vec<usize> = hosts.iter().copied().filter(|&h| seen.insert(h)).collect();
    if hosts.is_empty() {
        return Vec::new();
    }
    struct Node {
        host: usize,
        children: Vec<usize>,
    }
    let f0 = fanouts.first().copied().unwrap_or(usize::MAX).max(1);
    let n_roots = f0.min(hosts.len());
    let mut arena: Vec<Node> = hosts[..n_roots]
        .iter()
        .map(|&h| Node {
            host: h,
            children: Vec::new(),
        })
        .collect();
    let mut level: Vec<usize> = (0..n_roots).collect();
    let mut pos = n_roots;
    let mut fan_idx = 1;
    while pos < hosts.len() {
        let fan = fanouts.get(fan_idx).copied().unwrap_or(usize::MAX).max(1);
        let mut next_level = Vec::new();
        'outer: for &parent in &level {
            for _ in 0..fan {
                if pos >= hosts.len() {
                    break 'outer;
                }
                arena.push(Node {
                    host: hosts[pos],
                    children: Vec::new(),
                });
                let id = arena.len() - 1;
                arena[parent].children.push(id);
                next_level.push(id);
                pos += 1;
            }
        }
        level = next_level;
        fan_idx += 1;
    }
    fn materialize(arena: &[Node], id: usize) -> TreeNode {
        TreeNode {
            host: arena[id].host,
            children: arena[id]
                .children
                .iter()
                .map(|&c| materialize(arena, c))
                .collect(),
        }
    }
    (0..n_roots).map(|i| materialize(&arena, i)).collect()
}

// The rpc plane ships each recipient's subtree inside the request (source
// routing for the aggregation tree), so `TreeNode` is wire-encodable. The
// layout is a flat breadth-first `(host, parent+1)` list — iterative on
// both sides, so a corrupt frame can drive the decoder into an error but
// never into unbounded recursion, and sibling order survives exactly
// (child lists are rebuilt in appearance order).

/// Deepest subtree the decoder accepts. `size`, `depth` and the drop of
/// nested `Vec<TreeNode>` recurse once per level, so an unbounded chain
/// from the wire would overflow the stack after a clean decode;
/// `build_tree` yields at most `fanouts.len() + 1` levels.
pub const MAX_TREE_DEPTH: usize = 64;

impl pathdump_wire::Encode for TreeNode {
    fn encode(&self, enc: &mut pathdump_wire::Encoder) {
        enc.put_varint(self.size() as u64);
        let mut queue: std::collections::VecDeque<(&TreeNode, u64)> =
            std::collections::VecDeque::new();
        queue.push_back((self, 0)); // 0 = root sentinel (parent+1)
        let mut index = 0u64;
        while let Some((node, parent_plus_one)) = queue.pop_front() {
            enc.put_varint(node.host as u64);
            enc.put_varint(parent_plus_one);
            index += 1;
            let my_slot = index; // this node's (index+1) for its children
            for child in &node.children {
                queue.push_back((child, my_slot));
            }
        }
    }
}

impl pathdump_wire::Decode for TreeNode {
    fn decode(dec: &mut pathdump_wire::Decoder<'_>) -> pathdump_wire::WireResult<Self> {
        use pathdump_wire::WireError;
        let n = dec.get_len()?;
        if n == 0 {
            return Err(WireError::InvalidTag(0));
        }
        let mut hosts: Vec<usize> = Vec::with_capacity(n.min(4096));
        let mut child_ids: Vec<Vec<usize>> = Vec::with_capacity(n.min(4096));
        let mut depth: Vec<usize> = Vec::with_capacity(n.min(4096));
        for i in 0..n {
            let host = dec.get_varint()?;
            let host = usize::try_from(host).map_err(|_| WireError::VarintOverflow)?;
            let parent_plus_one = dec.get_varint()? as usize;
            if i == 0 {
                if parent_plus_one != 0 {
                    return Err(WireError::InvalidTag(parent_plus_one as u32));
                }
                depth.push(1);
            } else {
                // Parents must appear strictly earlier: acyclic by
                // construction, and exactly one root.
                if parent_plus_one == 0 || parent_plus_one > i {
                    return Err(WireError::InvalidTag(parent_plus_one as u32));
                }
                // Checked before any node exists: an over-deep chain never
                // reaches the recursive `size` or drop.
                let d = depth[parent_plus_one - 1] + 1;
                if d > MAX_TREE_DEPTH {
                    return Err(WireError::InvalidTag(d as u32));
                }
                depth.push(d);
                child_ids[parent_plus_one - 1].push(i);
            }
            hosts.push(host);
            child_ids.push(Vec::new());
        }
        // Children always have larger indices than their parent (BFS), so
        // one reverse pass materializes every subtree iteratively.
        let mut built: Vec<Option<TreeNode>> = (0..n).map(|_| None).collect();
        for i in (0..n).rev() {
            let mut children = Vec::with_capacity(child_ids[i].len());
            for &c in &child_ids[i] {
                match built[c].take() {
                    Some(node) => children.push(node),
                    None => return Err(WireError::InvalidTag(c as u32)),
                }
            }
            built[i] = Some(TreeNode {
                host: hosts[i],
                children,
            });
        }
        match built[0].take() {
            Some(root) => Ok(root),
            None => Err(WireError::InvalidTag(0)),
        }
    }
}

/// Internal: result of evaluating one subtree.
struct SubtreeOutcome {
    finish: Nanos,
    response: Response,
    resp_bytes: usize,
    wire_bytes: u64,
    exec_compute: Nanos,
    merge_compute: Nanos,
}

impl Cluster {
    /// Creates a cluster over per-host TIBs.
    pub fn new(tibs: Vec<Tib>, net: MgmtNet) -> Self {
        Cluster { tibs, net }
    }

    /// Number of hosts.
    pub fn num_hosts(&self) -> usize {
        self.tibs.len()
    }

    /// Bytes one message occupies on the management channel.
    fn frame_bytes<T: Encode>(msg: &T) -> usize {
        FRAME_OVERHEAD + encoded_len(msg)
    }

    /// Executes `q` on `hosts` with the **direct** mechanism: controller →
    /// every host, all responses merged at the controller in arrival
    /// order — the tree with every host a root.
    pub fn direct_query(&self, hosts: &[usize], q: &Query) -> QueryOutcome {
        self.multilevel_query(hosts, q, &[hosts.len()])
    }

    /// Executes `q` over `hosts` with the **multi-level** mechanism using
    /// the given per-level fan-outs.
    pub fn multilevel_query(&self, hosts: &[usize], q: &Query, fanouts: &[usize]) -> QueryOutcome {
        let roots = build_tree(hosts, fanouts);
        let q_bytes = Self::frame_bytes(q);
        let mut arrivals: Vec<(Nanos, Response, usize)> = Vec::new();
        let mut wire_bytes = 0u64;
        let mut exec_compute = Nanos::ZERO;
        let mut merge_compute = Nanos::ZERO;
        for root in &roots {
            let out = self.eval_subtree(root, q, q_bytes, 1);
            wire_bytes += out.wire_bytes + q_bytes as u64 + out.resp_bytes as u64;
            exec_compute += out.exec_compute;
            merge_compute += out.merge_compute;
            arrivals.push((
                out.finish + self.net.transfer(out.resp_bytes),
                out.response,
                out.resp_bytes,
            ));
        }
        arrivals.sort_by_key(|(t, _, _)| *t);
        let mut merged = Response::empty_for(q);
        let mut clock = Nanos::ZERO;
        for (arrival, resp, _) in arrivals {
            let start = clock.max(arrival);
            let t0 = Instant::now();
            merged.merge(resp);
            let m = Nanos(t0.elapsed().as_nanos() as u64);
            merge_compute += m;
            clock = start + m;
        }
        QueryOutcome {
            response: merged,
            elapsed: clock,
            wire_bytes,
            exec_compute,
            merge_compute,
        }
    }

    fn eval_subtree(
        &self,
        node: &TreeNode,
        q: &Query,
        q_bytes: usize,
        depth: u32,
    ) -> SubtreeOutcome {
        // The query cascades down one transfer per level.
        let query_arrival = Nanos(self.net.transfer(q_bytes).0 * depth as u64);
        let t0 = Instant::now();
        let local = execute_on_tib(&self.tibs[node.host], q);
        let exec = Nanos(t0.elapsed().as_nanos() as u64);
        let mut exec_compute = exec;
        let mut merge_compute = Nanos::ZERO;
        let mut wire_bytes = 0u64;
        let mut child_arrivals: Vec<(Nanos, Response)> = Vec::new();
        for child in &node.children {
            let out = self.eval_subtree(child, q, q_bytes, depth + 1);
            wire_bytes += out.wire_bytes + q_bytes as u64 + out.resp_bytes as u64;
            exec_compute += out.exec_compute;
            merge_compute += out.merge_compute;
            child_arrivals.push((out.finish + self.net.transfer(out.resp_bytes), out.response));
        }
        child_arrivals.sort_by_key(|(t, _)| *t);
        let mut merged = local;
        let mut clock = query_arrival + exec;
        for (arrival, resp) in child_arrivals {
            let start = clock.max(arrival);
            let t0 = Instant::now();
            merged.merge(resp);
            let m = Nanos(t0.elapsed().as_nanos() as u64);
            merge_compute += m;
            clock = start + m;
        }
        let resp_bytes = Self::frame_bytes(&merged);
        SubtreeOutcome {
            finish: clock,
            response: merged,
            resp_bytes,
            wire_bytes,
            exec_compute,
            merge_compute,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathdump_tib::TibRecord;
    use pathdump_topology::{FlowId, Ip, LinkPattern, Path, SwitchId, TimeRange};

    fn tib_with(host: usize, n: usize) -> Tib {
        let mut t = Tib::new();
        for i in 0..n {
            t.insert(TibRecord {
                flow: FlowId::tcp(
                    Ip::new(10, host as u8, 0, 2),
                    1000 + i as u16,
                    Ip::new(10, 99, 0, 2),
                    80,
                ),
                path: Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]),
                stime: Nanos(i as u64),
                etime: Nanos(i as u64 + 10),
                bytes: (host * 1000 + i * 17) as u64,
                pkts: 1,
            });
        }
        t
    }

    fn cluster(n_hosts: usize, records: usize) -> Cluster {
        Cluster::new(
            (0..n_hosts).map(|h| tib_with(h, records)).collect(),
            MgmtNet::default(),
        )
    }

    #[test]
    fn tree_shape_112() {
        let hosts: Vec<usize> = (0..112).collect();
        let roots = build_tree(&hosts, &[7, 4, 4]);
        assert_eq!(roots.len(), 7);
        let total: usize = roots.iter().map(|r| r.size()).sum();
        assert_eq!(total, 112, "every host appears exactly once");
        let max_depth = roots.iter().map(|r| r.depth()).max().unwrap();
        assert_eq!(max_depth, 3, "controller + 3 host levels = 4 levels");
        // Level-2 width: each root has up to 4 children.
        for r in &roots {
            assert!(r.children.len() <= 4);
        }
    }

    #[test]
    fn tree_shape_small() {
        let hosts: Vec<usize> = (0..5).collect();
        let roots = build_tree(&hosts, &[7, 4, 4]);
        assert_eq!(roots.len(), 5, "fewer hosts than fan-out: all roots");
        let hosts: Vec<usize> = (0..10).collect();
        let roots = build_tree(&hosts, &[7, 4, 4]);
        let total: usize = roots.iter().map(|r| r.size()).sum();
        assert_eq!(total, 10);
    }

    #[test]
    fn tree_handles_empty() {
        assert!(build_tree(&[], &[7, 4, 4]).is_empty());
    }

    #[test]
    fn direct_and_multilevel_agree_on_results() {
        let c = cluster(30, 50);
        let hosts: Vec<usize> = (0..30).collect();
        let queries = [
            Query::FlowSizeDist {
                link: LinkPattern::ANY,
                range: TimeRange::ANY,
                bin_bytes: 1000,
            },
            Query::TopK {
                k: 20,
                range: TimeRange::ANY,
            },
            Query::GetFlows {
                link: LinkPattern::exact(SwitchId(0), SwitchId(8)),
                range: TimeRange::ANY,
            },
            Query::TrafficMatrix {
                range: TimeRange::ANY,
            },
        ];
        // Order-insensitive comparison for list-shaped responses.
        let canon = |r: &Response| match r {
            Response::Flows(f) => {
                let mut f = f.clone();
                f.sort();
                Response::Flows(f)
            }
            other => other.clone(),
        };
        for q in &queries {
            let d = c.direct_query(&hosts, q);
            let m = c.multilevel_query(&hosts, q, &[7, 4, 4]);
            assert_eq!(canon(&d.response), canon(&m.response), "query {q:?}");
            assert!(d.elapsed > Nanos::ZERO);
            assert!(m.elapsed > Nanos::ZERO);
            assert!(m.wire_bytes > 0);
            // Direct is the flat fan-out: one query frame down and one
            // response frame up per host, nothing else on the wire.
            let flat = c.multilevel_query(&hosts, q, &[hosts.len()]);
            assert_eq!(canon(&d.response), canon(&flat.response), "query {q:?}");
            assert_eq!(d.wire_bytes, flat.wire_bytes, "query {q:?}");
            let per_host: u64 = hosts
                .iter()
                .map(|&h| {
                    let resp = execute_on_tib(&c.tibs[h], q);
                    (Cluster::frame_bytes(q) + Cluster::frame_bytes(&resp)) as u64
                })
                .sum();
            assert_eq!(d.wire_bytes, per_host, "query {q:?}");
        }
    }

    #[test]
    fn topk_ties_agree_across_mechanisms() {
        // Deliberately tied flows: the same flow observed on several hosts
        // with different byte totals (so merges see duplicates), plus
        // distinct flows with equal byte totals (so the k-th slot is
        // decided purely by tie-breaking). Direct and multi-level must
        // produce the *exact* same entries, not just order-insensitively.
        let flow = |s: u16| FlowId::tcp(Ip::new(10, 0, 0, 2), s, Ip::new(10, 99, 0, 2), 80);
        let path = Path::new(vec![SwitchId(0), SwitchId(8), SwitchId(4)]);
        let mut tibs: Vec<Tib> = (0..12).map(|_| Tib::new()).collect();
        let mut put = |host: usize, sport: u16, bytes: u64| {
            tibs[host].insert(TibRecord {
                flow: flow(sport),
                path: path.clone(),
                stime: Nanos(1),
                etime: Nanos(10),
                bytes,
                pkts: 1,
            });
        };
        // Flow 2 on three hosts with three different totals (non-adjacent
        // duplicates after a descending sort), flows 5/6 competing for the
        // last slots, and a four-way byte tie at 500 across hosts.
        put(0, 2, 9900);
        put(3, 2, 9700);
        put(7, 2, 9650);
        put(1, 5, 9800);
        put(2, 6, 9600);
        for (host, sport) in [(4, 10), (5, 11), (6, 12), (8, 13)] {
            put(host, sport, 500);
        }
        // Background flows so every host answers something.
        for h in 0..12 {
            put(h, 100 + h as u16, 10 + h as u64);
        }
        let c = Cluster::new(tibs, MgmtNet::default());
        let hosts: Vec<usize> = (0..12).collect();
        for k in [1u32, 2, 3, 4, 5, 6, 8] {
            let q = Query::TopK {
                k,
                range: TimeRange::ANY,
            };
            let d = c.direct_query(&hosts, &q);
            let m = c.multilevel_query(&hosts, &q, &[7, 4, 4]);
            assert_eq!(d.response, m.response, "k={k}");
            let m2 = c.multilevel_query(&hosts, &q, &[3, 2, 2]);
            assert_eq!(d.response, m2.response, "k={k} deep tree");
        }
        // And the top of the merged answer keeps the per-flow max.
        let q = Query::TopK {
            k: 3,
            range: TimeRange::ANY,
        };
        if let Response::TopK { entries, .. } = c.direct_query(&hosts, &q).response {
            assert_eq!(
                entries,
                vec![(9900, flow(2)), (9800, flow(5)), (9600, flow(6))]
            );
        } else {
            panic!("expected TopK response");
        }
    }

    #[test]
    fn topk_tree_reduces_traffic() {
        // With a large k relative to per-host data, the tree discards
        // (n-1)k pairs per interior node; direct ships every host's full
        // top-k to the controller. Tree traffic must not exceed direct by
        // much, and for big responses should be comparable or smaller.
        let c = cluster(60, 400);
        let hosts: Vec<usize> = (0..60).collect();
        let q = Query::TopK {
            k: 200,
            range: TimeRange::ANY,
        };
        let d = c.direct_query(&hosts, &q);
        let m = c.multilevel_query(&hosts, &q, &[7, 4, 4]);
        assert!(
            (m.wire_bytes as f64) < d.wire_bytes as f64 * 1.6,
            "tree {} vs direct {}",
            m.wire_bytes,
            d.wire_bytes
        );
    }

    #[test]
    fn direct_merge_cost_grows_with_hosts() {
        let q = Query::FlowSizeDist {
            link: LinkPattern::ANY,
            range: TimeRange::ANY,
            bin_bytes: 1000,
        };
        let small = cluster(8, 200);
        let large = cluster(64, 200);
        let d_small = small.direct_query(&(0..8).collect::<Vec<_>>(), &q);
        let d_large = large.direct_query(&(0..64).collect::<Vec<_>>(), &q);
        assert!(
            d_large.merge_compute > d_small.merge_compute,
            "controller merge work must grow with host count"
        );
        assert!(d_large.wire_bytes > d_small.wire_bytes);
    }

    #[test]
    fn tree_node_wire_roundtrip() {
        let hosts: Vec<usize> = (0..23).collect();
        for fanouts in [&[7usize, 4, 4][..], &[3, 2, 2], &[1], &[23]] {
            for root in build_tree(&hosts, fanouts) {
                let bytes = pathdump_wire::to_bytes(&root);
                let back: TreeNode = pathdump_wire::from_bytes(&bytes).unwrap();
                assert_eq!(back, root, "fanouts {fanouts:?}");
            }
        }
        // Single leaf.
        let leaf = TreeNode {
            host: 5,
            children: vec![],
        };
        let back: TreeNode = pathdump_wire::from_bytes(&pathdump_wire::to_bytes(&leaf)).unwrap();
        assert_eq!(back, leaf);
    }

    #[test]
    fn tree_node_decode_rejects_malformed() {
        use pathdump_wire::{Encoder, WireError};
        // Zero nodes.
        let mut e = Encoder::new();
        e.put_varint(0);
        assert!(pathdump_wire::from_bytes::<TreeNode>(&e.into_bytes()).is_err());
        // Forward parent reference (node 1 claims parent 2, not yet seen).
        let mut e = Encoder::new();
        e.put_varint(3);
        e.put_varint(0); // host 0, root
        e.put_varint(0);
        e.put_varint(1); // host 1, parent+1 = 3 → forward
        e.put_varint(3);
        e.put_varint(2);
        e.put_varint(1);
        assert_eq!(
            pathdump_wire::from_bytes::<TreeNode>(&e.into_bytes()),
            Err(WireError::InvalidTag(3))
        );
        // Second root (parent+1 == 0 past index 0).
        let mut e = Encoder::new();
        e.put_varint(2);
        e.put_varint(0);
        e.put_varint(0);
        e.put_varint(1);
        e.put_varint(0);
        assert_eq!(
            pathdump_wire::from_bytes::<TreeNode>(&e.into_bytes()),
            Err(WireError::InvalidTag(0))
        );
        // A chain of MAX_TREE_DEPTH round-trips; one level deeper is an
        // error (a decoded 20 000-chain would overflow the stack in `size`
        // and in drop).
        let chain = |n: usize| {
            let mut e = Encoder::new();
            e.put_varint(n as u64);
            for i in 0..n as u64 {
                e.put_varint(i); // host i, parent = node i-1
                e.put_varint(i);
            }
            e.into_bytes()
        };
        let ok: TreeNode = pathdump_wire::from_bytes(&chain(MAX_TREE_DEPTH)).unwrap();
        assert_eq!((ok.size(), ok.depth()), (MAX_TREE_DEPTH, MAX_TREE_DEPTH));
        assert_eq!(pathdump_wire::to_bytes(&ok), chain(MAX_TREE_DEPTH));
        for n in [MAX_TREE_DEPTH + 1, 20_000] {
            assert_eq!(
                pathdump_wire::from_bytes::<TreeNode>(&chain(n)),
                Err(WireError::InvalidTag(MAX_TREE_DEPTH as u32 + 1))
            );
        }
    }

    #[test]
    fn mgmt_net_transfer_math() {
        let net = MgmtNet {
            one_way_latency: Nanos(1000),
            bandwidth_bps: 1_000_000_000,
        };
        // 125 bytes at 1 Gb/s = 1 us + 1 us latency.
        assert_eq!(net.transfer(125), Nanos(2000));
    }
}
