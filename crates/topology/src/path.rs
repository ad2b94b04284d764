//! Switch-level paths and the `Flow` (flowID, Path) pair of §2.1.

use crate::ids::{FlowId, LinkDir, SwitchId};
use std::fmt;

/// A `Path` is a list of switch IDs `<Si, Sj, ...>` (§2.1).
///
/// Host endpoints are implicit: the first switch is the source ToR and the
/// last is the destination ToR.
#[derive(Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Path(pub Vec<SwitchId>);

impl Path {
    /// Builds a path from a switch list.
    pub fn new(switches: Vec<SwitchId>) -> Self {
        Path(switches)
    }

    /// Number of switches on the path.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Returns true if the path contains no switches.
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// Number of switch-to-switch links on the path.
    pub fn num_links(&self) -> usize {
        self.0.len().saturating_sub(1)
    }

    /// Number of hops as the paper counts them: switch-to-switch links plus
    /// the two host links (source NIC and destination NIC).
    ///
    /// An intra-pod ToR–Agg–ToR path is thus a "4-hop path" and an
    /// inter-pod fat-tree shortest path a "6-hop path".
    pub fn num_hops(&self) -> usize {
        if self.0.is_empty() {
            0
        } else {
            self.num_links() + 2
        }
    }

    /// Returns true if the path visits the given switch.
    pub fn contains(&self, sw: SwitchId) -> bool {
        self.0.contains(&sw)
    }

    /// Returns true if the path traverses the given directed link.
    pub fn traverses(&self, link: LinkDir) -> bool {
        self.links().any(|l| l == link)
    }

    /// Iterates over the directed switch-to-switch links along the path.
    pub fn links(&self) -> impl Iterator<Item = LinkDir> + '_ {
        self.0.windows(2).map(|w| LinkDir::new(w[0], w[1]))
    }

    /// The first switch (source ToR), if any.
    pub fn first(&self) -> Option<SwitchId> {
        self.0.first().copied()
    }

    /// The last switch (destination ToR), if any.
    pub fn last(&self) -> Option<SwitchId> {
        self.0.last().copied()
    }

    /// Returns true if some directed link appears more than once — the
    /// signature of a routing loop (§4.5).
    pub fn has_repeated_link(&self) -> bool {
        let links: Vec<LinkDir> = self.links().collect();
        for (i, a) in links.iter().enumerate() {
            if links[i + 1..].contains(a) {
                return true;
            }
        }
        false
    }
}

impl fmt::Debug for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, s) in self.0.iter().enumerate() {
            if i > 0 {
                write!(f, " ")?;
            }
            write!(f, "{s}")?;
        }
        write!(f, "]")
    }
}

impl fmt::Display for Path {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(self, f)
    }
}

impl From<Vec<SwitchId>> for Path {
    fn from(v: Vec<SwitchId>) -> Self {
        Path(v)
    }
}

/// A `Flow` is a `(flowID, Path)` pair; "this will be useful for cases when
/// packets from the same flowID may traverse along multiple Paths" (§2.1),
/// e.g. under packet spraying.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct Flow {
    /// The 5-tuple.
    pub id: FlowId,
    /// One of the paths taken by packets of this flow.
    pub path: Path,
}

impl Flow {
    /// Builds a flow from its parts.
    pub fn new(id: FlowId, path: Path) -> Self {
        Flow { id, path }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::Ip;

    fn p(ids: &[u16]) -> Path {
        Path::new(ids.iter().map(|&i| SwitchId(i)).collect())
    }

    #[test]
    fn hop_counting_matches_paper() {
        // Intra-pod ToR-Agg-ToR: "4-hop path".
        assert_eq!(p(&[0, 4, 1]).num_hops(), 4);
        // Inter-pod shortest: "6-hop path".
        assert_eq!(p(&[0, 4, 8, 6, 2]).num_hops(), 6);
        assert_eq!(p(&[]).num_hops(), 0);
        assert_eq!(p(&[3]).num_hops(), 2);
    }

    #[test]
    fn links_iteration() {
        let path = p(&[1, 2, 3]);
        let links: Vec<_> = path.links().collect();
        assert_eq!(
            links,
            vec![
                LinkDir::new(SwitchId(1), SwitchId(2)),
                LinkDir::new(SwitchId(2), SwitchId(3))
            ]
        );
        assert!(path.traverses(LinkDir::new(SwitchId(1), SwitchId(2))));
        assert!(!path.traverses(LinkDir::new(SwitchId(2), SwitchId(1))));
    }

    #[test]
    fn loop_detection_via_repeated_link() {
        assert!(!p(&[1, 2, 3, 4]).has_repeated_link());
        // S2->S3 appears twice: the Figure 9 signature.
        assert!(p(&[1, 2, 3, 4, 5, 2, 3]).has_repeated_link());
        // Revisiting a switch without repeating a directed link is not
        // flagged by this predicate (different link directions).
        assert!(!p(&[1, 2, 1]).has_repeated_link());
    }

    #[test]
    fn contains_and_endpoints() {
        let path = p(&[7, 8, 9]);
        assert!(path.contains(SwitchId(8)));
        assert!(!path.contains(SwitchId(10)));
        assert_eq!(path.first(), Some(SwitchId(7)));
        assert_eq!(path.last(), Some(SwitchId(9)));
    }

    #[test]
    fn flow_pair() {
        let id = FlowId::tcp(Ip::new(10, 0, 0, 2), 99, Ip::new(10, 1, 0, 2), 80);
        let f = Flow::new(id, p(&[1, 2]));
        assert_eq!(f.id, id);
        assert_eq!(f.path.len(), 2);
    }
}
