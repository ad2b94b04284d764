//! Merge differential gate: the linear `Response::merge` for `TopK`,
//! `Hist` and `Matrix` must give exactly what the merges it replaced gave
//! — kept here, unchanged, as the oracle — on *any* pair of sides, not only
//! on the sorted, duplicate-free ones the library produces: concatenate +
//! sort + first-occurrence set dedup + truncate for `TopK`, a `HashMap`
//! fold + sort for `Hist` and `Matrix`.
//!
//! The generator leans on what a two-way merge could get wrong and a sort
//! cannot: sides that are unsorted, sorted with repeats, or canonical; one
//! flow on both sides with different and with equal byte counts; equal
//! bytes across flows; a key repeated inside one side (the old `HashMap`
//! fold kept the *last* value of a key repeated inside the receiving side
//! and *summed* one repeated inside the incoming side — both are pinned);
//! `k` of 0, below, between and above the two lengths; empty sides. On
//! canonical host answers it also checks the algebra an aggregation tree
//! relies on: any merge order and any tree shape give the same answer.
//!
//! Inputs are kept small: the vendored proptest stub does not shrink.

use pathdump_core::Response;
use pathdump_topology::{FlowId, Ip};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

// ---------------------------------------------------------------------------
// The oracle: the three merge arms as they shipped before the linear
// merges (bodies verbatim).
// ---------------------------------------------------------------------------

fn old_merge(this: &mut Response, other: Response) {
    match (this, other) {
        (
            Response::Hist { bin_bytes, bins },
            Response::Hist {
                bin_bytes: bb2,
                bins: bins2,
            },
        ) => {
            debug_assert_eq!(*bin_bytes, bb2, "histogram bin widths must agree");
            let mut map: HashMap<u64, u64> = bins.iter().copied().collect();
            for (bin, count) in bins2 {
                *map.entry(bin).or_insert(0) += count;
            }
            let mut v: Vec<(u64, u64)> = map.into_iter().collect();
            v.sort_unstable();
            *bins = v;
        }
        (Response::TopK { k, entries }, Response::TopK { k: k2, entries: e2 }) => {
            debug_assert_eq!(*k, k2, "k must agree across hosts");
            entries.extend(e2);
            entries.sort_unstable_by(|a, b| b.cmp(a));
            let mut seen = HashSet::with_capacity(entries.len());
            entries.retain(|e| seen.insert(e.1));
            entries.truncate(*k as usize);
        }
        (Response::Matrix(a), Response::Matrix(b)) => {
            let mut map: HashMap<(Ip, Ip), u64> = a.iter().copied().collect();
            for (kx, v) in b {
                *map.entry(kx).or_insert(0) += v;
            }
            let mut v: Vec<((Ip, Ip), u64)> = map.into_iter().collect();
            v.sort_unstable();
            *a = v;
        }
        (s, o) => panic!("no oracle for {s:?} with {o:?}"),
    }
}

// ---------------------------------------------------------------------------
// Generators: tiny universes, so repeats and ties are the common case.
// ---------------------------------------------------------------------------

fn flow(s: u16) -> FlowId {
    FlowId::tcp(Ip::new(10, 0, 0, 2), s, Ip::new(10, 1, 0, 2), 80)
}

/// How a generated side is arranged before it is merged.
#[derive(Clone, Copy, Debug)]
enum Arrange {
    /// As generated: any order, repeats allowed.
    Raw,
    /// In merge order, repeats kept (a caller that sorted but did not
    /// dedup, or a hostile frame).
    Sorted,
    /// What the library produces: merge order, one entry per key.
    Canonical,
}

fn arrange() -> impl Strategy<Value = Arrange> {
    (0u8..3).prop_map(|i| [Arrange::Raw, Arrange::Sorted, Arrange::Canonical][i as usize])
}

fn top_k_side(raw: Vec<(u64, u16)>, how: Arrange, k: u32) -> Response {
    let mut entries: Vec<(u64, FlowId)> = raw.into_iter().map(|(b, f)| (b, flow(f))).collect();
    if !matches!(how, Arrange::Raw) {
        entries.sort_unstable_by(|a, b| b.cmp(a));
    }
    if matches!(how, Arrange::Canonical) {
        let mut seen = HashSet::new();
        entries.retain(|e| seen.insert(e.1));
        entries.truncate(k as usize);
    }
    Response::TopK { k, entries }
}

/// A keyed-sum side: `Hist` bins or `Matrix` cells.
fn sums_side<K: Ord + Copy>(mut raw: Vec<(K, u64)>, how: Arrange) -> Vec<(K, u64)> {
    if !matches!(how, Arrange::Raw) {
        raw.sort_by_key(|e| e.0);
    }
    if matches!(how, Arrange::Canonical) {
        raw.dedup_by(|next, kept| {
            let same = next.0 == kept.0;
            if same {
                kept.1 += next.1;
            }
            same
        });
    }
    raw
}

fn hist(bins: Vec<(u64, u64)>) -> Response {
    Response::Hist {
        bin_bytes: 10_000,
        bins,
    }
}

fn cell(raw: (u8, u8, u64)) -> ((Ip, Ip), u64) {
    ((Ip(raw.0 as u32), Ip(raw.1 as u32)), raw.2)
}

/// `a.merge(b)` by the shipped merge and by the oracle.
fn both(a: &Response, b: &Response) -> (Response, Response) {
    let (mut new, mut old) = (a.clone(), a.clone());
    new.merge(b.clone());
    old_merge(&mut old, b.clone());
    (new, old)
}

/// Left fold of `hosts` in the given order.
fn fold(hosts: &[Response], order: impl IntoIterator<Item = usize>) -> Response {
    let mut order = order.into_iter();
    let mut acc = hosts[order.next().expect("at least one host")].clone();
    for i in order {
        acc.merge(hosts[i].clone());
    }
    acc
}

/// The algebra a tree relies on, over canonical host answers: every
/// rotation, the reverse order and a two-subtree shape agree with the
/// plain left fold.
fn check_any_tree_shape(hosts: &[Response]) -> Result<(), TestCaseError> {
    let n = hosts.len();
    let flat = fold(hosts, 0..n);
    for r in 1..n {
        let rotated = fold(hosts, (0..n).map(|i| (i + r) % n));
        prop_assert_eq!(&rotated, &flat, "rotation {}", r);
    }
    prop_assert_eq!(&fold(hosts, (0..n).rev()), &flat, "reversed");
    for split in 1..n {
        let mut left = fold(hosts, 0..split);
        left.merge(fold(hosts, split..n));
        prop_assert_eq!(&left, &flat, "subtrees split at {}", split);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// `TopK`: six flows and five byte counts, so one flow on both sides
    /// (larger, smaller and equal), equal bytes across flows and repeats
    /// inside a side all turn up in most cases.
    #[test]
    fn top_k_matches_the_old_merge(
        a in proptest::collection::vec((0u64..5, 0u16..6), 0..10),
        b in proptest::collection::vec((0u64..5, 0u16..6), 0..10),
        how_a in arrange(),
        how_b in arrange(),
        k in 0u32..14,
    ) {
        let (a, b) = (top_k_side(a, how_a, k), top_k_side(b, how_b, k));
        let (new, old) = both(&a, &b);
        prop_assert_eq!(new, old, "{:?} {:?} merged into {:?} {:?}", how_b, b, how_a, a);
    }

    /// `Hist`: six bins.
    #[test]
    fn hist_matches_the_old_merge(
        a in proptest::collection::vec((0u64..6, 0u64..100), 0..10),
        b in proptest::collection::vec((0u64..6, 0u64..100), 0..10),
        how_a in arrange(),
        how_b in arrange(),
    ) {
        let (a, b) = (hist(sums_side(a, how_a)), hist(sums_side(b, how_b)));
        let (new, old) = both(&a, &b);
        prop_assert_eq!(new, old, "{:?} {:?} merged into {:?} {:?}", how_b, b, how_a, a);
    }

    /// `Matrix`: a 3 × 3 grid of address pairs.
    #[test]
    fn matrix_matches_the_old_merge(
        a in proptest::collection::vec((0u8..3, 0u8..3, 0u64..100), 0..10),
        b in proptest::collection::vec((0u8..3, 0u8..3, 0u64..100), 0..10),
        how_a in arrange(),
        how_b in arrange(),
    ) {
        let side = |raw: Vec<(u8, u8, u64)>, how| {
            Response::Matrix(sums_side(raw.into_iter().map(cell).collect(), how))
        };
        let (a, b) = (side(a, how_a), side(b, how_b));
        let (new, old) = both(&a, &b);
        prop_assert_eq!(new, old, "{:?} {:?} merged into {:?} {:?}", how_b, b, how_a, a);
    }

    /// Three to five canonical `TopK` answers: associative, commutative
    /// and idempotent, so any tree over them yields one answer — the
    /// oracle's flat fold.
    #[test]
    fn top_k_is_a_semilattice_over_host_answers(
        raw in proptest::collection::vec(proptest::collection::vec((0u64..5, 0u16..8), 0..8), 3..6),
        k in 0u32..10,
    ) {
        let hosts: Vec<Response> =
            raw.into_iter().map(|h| top_k_side(h, Arrange::Canonical, k)).collect();
        check_any_tree_shape(&hosts)?;
        let mut flat_old = hosts[0].clone();
        for h in &hosts[1..] {
            old_merge(&mut flat_old, h.clone());
        }
        prop_assert_eq!(&fold(&hosts, 0..hosts.len()), &flat_old);
        for h in &hosts {
            let mut twice = h.clone();
            twice.merge(h.clone());
            prop_assert_eq!(&twice, h, "idempotent");
        }
    }

    /// Three to five canonical `Hist` and `Matrix` answers: sums are
    /// associative and commutative (not idempotent), so any tree over
    /// them yields one answer.
    #[test]
    fn sums_are_order_and_shape_independent_over_host_answers(
        raw in proptest::collection::vec(
            proptest::collection::vec((0u8..3, 0u8..3, 0u64..100), 0..8), 3..6),
    ) {
        let hists: Vec<Response> = raw.iter().map(|h| {
            let bins = h.iter().map(|&(s, d, v)| (u64::from(s * 3 + d), v)).collect();
            hist(sums_side(bins, Arrange::Canonical))
        }).collect();
        check_any_tree_shape(&hists)?;
        let matrices: Vec<Response> = raw.iter().map(|h| {
            let cells = h.iter().copied().map(cell).collect();
            Response::Matrix(sums_side(cells, Arrange::Canonical))
        }).collect();
        check_any_tree_shape(&matrices)?;
    }
}

/// The cases the issue names, spelled out, so that they are covered
/// whatever the generator happens to draw.
#[test]
fn named_cases_match_the_old_merge() {
    let t = |k: u32, e: &[(u64, u16)]| Response::TopK {
        k,
        entries: e.iter().map(|&(b, f)| (b, flow(f))).collect(),
    };
    let top_k_pairs = [
        // One flow on both sides: larger here, larger there, equal.
        (t(3, &[(9, 1), (4, 2)]), t(3, &[(7, 1), (5, 3)])),
        (t(3, &[(7, 1), (4, 2)]), t(3, &[(9, 1), (5, 3)])),
        (t(3, &[(9, 1), (4, 2)]), t(3, &[(9, 1), (4, 2)])),
        // Equal bytes across flows, on one side and across sides.
        (t(3, &[(5, 4), (5, 2)]), t(3, &[(5, 3), (5, 1)])),
        // A flow repeated inside one side, adjacent and not; unsorted sides.
        (t(4, &[(9, 1), (9, 1), (8, 2), (7, 1)]), t(4, &[(6, 3)])),
        (
            t(4, &[(1, 1), (9, 2), (5, 3)]),
            t(4, &[(2, 4), (8, 1), (8, 5)]),
        ),
        // k = 0, k below both lengths, between them, above both; empty sides.
        (t(0, &[(9, 1)]), t(0, &[(8, 2)])),
        (t(1, &[(9, 1), (7, 3)]), t(1, &[(8, 2), (6, 4)])),
        (t(2, &[(9, 1)]), t(2, &[(8, 2), (7, 3), (6, 4)])),
        (t(9, &[(9, 1), (7, 3)]), t(9, &[(8, 2), (6, 4)])),
        (t(3, &[]), t(3, &[(8, 2), (6, 4)])),
        (t(3, &[(8, 2), (6, 4)]), t(3, &[])),
        (t(3, &[]), t(3, &[])),
    ];
    for (a, b) in &top_k_pairs {
        let (new, old) = both(a, b);
        assert_eq!(new, old, "{b:?} merged into {a:?}");
    }

    type Side = &'static [(u64, u64)];
    let sums_pairs: [(Side, Side); 6] = [
        (&[(0, 1), (2, 5)], &[(2, 1), (7, 4)]),
        (&[], &[(2, 1), (7, 4)]),
        (&[(2, 1), (7, 4)], &[]),
        (&[(7, 4), (2, 1)], &[(9, 1), (0, 3), (2, 2)]),
        // A bin repeated inside the receiving side keeps its last value…
        (&[(2, 1), (5, 9), (2, 7)], &[(2, 100)]),
        // …and one repeated inside the incoming side is summed.
        (&[(2, 100)], &[(2, 1), (5, 9), (2, 7)]),
    ];
    for (a, b) in sums_pairs {
        let (new, old) = both(&hist(a.to_vec()), &hist(b.to_vec()));
        assert_eq!(new, old, "hist {b:?} merged into {a:?}");
        let cells = |side: &[(u64, u64)]| {
            Response::Matrix(side.iter().map(|&(k, v)| cell((k as u8, 1, v))).collect())
        };
        let (new, old) = both(&cells(a), &cells(b));
        assert_eq!(new, old, "matrix {b:?} merged into {a:?}");
    }
    let (kept_last, _) = both(&hist(vec![(2, 1), (5, 9), (2, 7)]), &hist(vec![(2, 100)]));
    assert_eq!(kept_last, hist(vec![(2, 107), (5, 9)]));
    let (summed, _) = both(&hist(vec![(2, 100)]), &hist(vec![(2, 1), (5, 9), (2, 7)]));
    assert_eq!(summed, hist(vec![(2, 108), (5, 9)]));
}
