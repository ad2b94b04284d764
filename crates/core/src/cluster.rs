//! The aggregation tree's shape, its wire form, and the management network
//! it runs over (§3.2 "query processing", evaluated in §5.2).
//!
//! [`build_tree`] lays hosts out under per-level fan-outs (the paper's
//! 4-level, 7/4/4 tree over 112 hosts; `[n]` is the direct mechanism, every
//! host a root). A [`TreeNode`] encodes to a flat breadth-first list so a
//! request can carry its recipient's subtree (source routing). [`MgmtNet`]
//! is the modelled channel: per-message latency plus serialization at the
//! configured bandwidth — the paper's dedicated 1 GbE management network.
//! The protocol that runs queries down this tree is `pathdump_rpc`.

use pathdump_topology::{Nanos, MICROS};

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

#[cfg(test)]
mod tests {
    use super::*;

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
