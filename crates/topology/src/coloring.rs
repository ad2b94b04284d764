//! Bipartite multigraph edge coloring.
//!
//! CherryPick "efficiently assigns IDs to core links by applying an
//! edge-coloring technique" (§3.1, citing Cole–Ost–Schirra \[13\]). By Kőnig's
//! theorem a bipartite multigraph is edge-colorable with exactly Δ colors
//! (the maximum degree); two links sharing a switch never share a color, so
//! a color can serve as a locally-unambiguous link identifier.
//!
//! We implement the classic alternating-path (Kőnig) algorithm in `O(V · E)`
//! — far from the `O(E log Δ)` of \[13\], but exact and plenty fast for
//! datacenter-scale graphs (tens of thousands of links).

/// Colors the edges of a bipartite multigraph with Δ colors.
///
/// `left_n` and `right_n` are the sizes of the two vertex sets; `edges` is a
/// list of `(left, right)` pairs (parallel edges allowed). Returns one color
/// per edge, in input order, such that no two edges incident on the same
/// vertex share a color, using colors `0..Δ` where Δ is the maximum degree.
///
/// # Panics
///
/// Panics if an edge references a vertex out of range.
pub fn color_bipartite_multigraph(
    left_n: usize,
    right_n: usize,
    edges: &[(usize, usize)],
) -> Vec<u32> {
    for &(u, v) in edges {
        assert!(u < left_n, "left vertex {u} out of range");
        assert!(v < right_n, "right vertex {v} out of range");
    }
    let mut deg_l = vec![0usize; left_n];
    let mut deg_r = vec![0usize; right_n];
    for &(u, v) in edges {
        deg_l[u] += 1;
        deg_r[v] += 1;
    }
    let delta = deg_l.iter().chain(deg_r.iter()).copied().max().unwrap_or(0);
    // at_l[u][c] / at_r[v][c]: index of the color-c edge at the vertex, or
    // usize::MAX when the color is free there.
    let mut at_l = vec![vec![usize::MAX; delta]; left_n];
    let mut at_r = vec![vec![usize::MAX; delta]; right_n];
    let mut color = vec![u32::MAX; edges.len()];

    let free = |table: &[usize]| table.iter().position(|&e| e == usize::MAX);

    for (ei, &(u, v)) in edges.iter().enumerate() {
        let cu = free(&at_l[u]).expect("degree bound violated at left vertex");
        let cv = free(&at_r[v]).expect("degree bound violated at right vertex");
        if cu != cv {
            // cu is free at u but used at v (else cv <= cu would not be the
            // first free color... not exactly, but if cu were free at v we
            // can use it directly). If cu is also free at v, take cu with no
            // flip; otherwise flip the (cu, cv)-alternating path from v so
            // that cu becomes free at v. The path starts with v's cu-edge
            // and alternates cu/cv; it cannot end at u because cu is free at
            // u and the path would have to arrive at u via a cu-edge.
            if at_r[v][cu] != usize::MAX {
                flip_alternating(edges, &mut color, &mut at_l, &mut at_r, v, cu, cv);
            }
        }
        debug_assert_eq!(at_l[u][cu], usize::MAX, "cu must be free at u");
        debug_assert_eq!(at_r[v][cu], usize::MAX, "cu must be free at v after flip");
        color[ei] = cu as u32;
        at_l[u][cu] = ei;
        at_r[v][cu] = ei;
    }
    color
}

/// Flips the maximal (cu, cv)-alternating path that starts at right-vertex
/// `start`, so that color `cu` becomes free at `start`.
///
/// `cv` must be free at `start`. The path alternates cu, cv, cu, ... edges;
/// because every interior vertex has both colors present and the endpoints
/// have one free, it is a simple path, so swapping the two colors along it
/// keeps the coloring proper while freeing `cu` at `start`.
fn flip_alternating(
    edges: &[(usize, usize)],
    color: &mut [u32],
    at_l: &mut [Vec<usize>],
    at_r: &mut [Vec<usize>],
    start: usize,
    cu: usize,
    cv: usize,
) {
    let mut path = Vec::new();
    let mut side_right = true;
    let mut vertex = start;
    let mut want = cu;
    loop {
        let e = if side_right {
            at_r[vertex][want]
        } else {
            at_l[vertex][want]
        };
        if e == usize::MAX {
            break;
        }
        path.push(e);
        let (eu, ev) = edges[e];
        if side_right {
            vertex = eu;
            side_right = false;
        } else {
            vertex = ev;
            side_right = true;
        }
        want = if want == cu { cv } else { cu };
    }
    // Two-phase swap: clear all table entries on the path, then re-insert
    // with the opposite color. (A single pass would transiently collide.)
    for &e in &path {
        let (eu, ev) = edges[e];
        let old = color[e] as usize;
        at_l[eu][old] = usize::MAX;
        at_r[ev][old] = usize::MAX;
        color[e] = if old == cu { cv as u32 } else { cu as u32 };
    }
    for &e in &path {
        let (eu, ev) = edges[e];
        let new = color[e] as usize;
        at_l[eu][new] = e;
        at_r[ev][new] = e;
    }
}

/// Verifies that a coloring is proper: no two edges sharing an endpoint have
/// the same color. Returns the offending edge pair on failure.
pub fn verify_coloring(
    left_n: usize,
    right_n: usize,
    edges: &[(usize, usize)],
    colors: &[u32],
) -> Result<(), (usize, usize)> {
    let mut first_with: std::collections::HashMap<(bool, usize, u32), usize> =
        std::collections::HashMap::new();
    for (ei, (&(u, v), &c)) in edges.iter().zip(colors.iter()).enumerate() {
        assert!(u < left_n && v < right_n, "edge endpoint out of range");
        if let Some(&prev) = first_with.get(&(false, u, c)) {
            return Err((prev, ei));
        }
        if let Some(&prev) = first_with.get(&(true, v, c)) {
            return Err((prev, ei));
        }
        first_with.insert((false, u, c), ei);
        first_with.insert((true, v, c), ei);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn check(left: usize, right: usize, edges: &[(usize, usize)]) -> Vec<u32> {
        let colors = color_bipartite_multigraph(left, right, edges);
        assert_eq!(colors.len(), edges.len());
        verify_coloring(left, right, edges, &colors).expect("coloring must be proper");
        // Optimality: uses at most Delta colors.
        let mut deg = vec![0usize; left + right];
        for &(u, v) in edges {
            deg[u] += 1;
            deg[left + v] += 1;
        }
        let delta = deg.iter().copied().max().unwrap_or(0) as u32;
        for &c in &colors {
            assert!(c < delta.max(1), "color {c} exceeds Delta {delta}");
        }
        colors
    }

    #[test]
    fn empty_graph() {
        assert!(color_bipartite_multigraph(0, 0, &[]).is_empty());
    }

    #[test]
    fn single_edge() {
        assert_eq!(check(1, 1, &[(0, 0)]), vec![0]);
    }

    #[test]
    fn complete_bipartite_k33() {
        let mut edges = Vec::new();
        for u in 0..3 {
            for v in 0..3 {
                edges.push((u, v));
            }
        }
        check(3, 3, &edges);
    }

    #[test]
    fn complete_bipartite_vl2_shape() {
        // VL2 aggregate x intermediate complete bipartite: 8 aggs, 4 ints.
        let mut edges = Vec::new();
        for u in 0..8 {
            for v in 0..4 {
                edges.push((u, v));
            }
        }
        check(8, 4, &edges);
    }

    #[test]
    fn parallel_edges() {
        // Multigraph: 3 parallel edges need 3 colors.
        let edges = [(0, 0), (0, 0), (0, 0)];
        let colors = check(1, 1, &edges);
        let mut sorted = colors.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, vec![0, 1, 2]);
    }

    #[test]
    fn star_graphs() {
        // Fat-tree agg-core shape: each core attaches to exactly one agg
        // position: disjoint stars.
        let edges = [(0, 0), (0, 1), (1, 2), (1, 3)];
        check(2, 4, &edges);
    }

    #[test]
    fn cycle_forcing_flip() {
        // A 4-cycle ordered so that the greedy free colors differ and an
        // alternating-path flip is exercised.
        let edges = [(0, 0), (1, 0), (1, 1), (0, 1)];
        check(2, 2, &edges);
    }

    #[test]
    fn verify_rejects_bad_coloring() {
        let edges = [(0, 0), (0, 1)];
        assert_eq!(verify_coloring(1, 2, &edges, &[0, 0]), Err((0, 1)));
        assert!(verify_coloring(1, 2, &edges, &[0, 1]).is_ok());
    }

    #[test]
    fn random_graphs() {
        // Deterministic pseudo-random bipartite multigraphs (xorshift).
        let mut state = 0x12345678u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for _trial in 0..100 {
            let left = 2 + (next() % 10) as usize;
            let right = 2 + (next() % 10) as usize;
            let m = 1 + (next() % 80) as usize;
            let edges: Vec<(usize, usize)> = (0..m)
                .map(|_| {
                    (
                        (next() % left as u64) as usize,
                        (next() % right as u64) as usize,
                    )
                })
                .collect();
            check(left, right, &edges);
        }
    }
}
