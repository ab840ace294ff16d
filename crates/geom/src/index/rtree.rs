//! A static R-tree built by STR (Sort-Tile-Recursive) packing.
//!
//! This mirrors how the paper uses GEOS's `STRtree`: bulk-build an index
//! over one geometry collection (or the grid-cell boundaries), then query it
//! with candidate MBRs during the filter phase. A tree is never modified
//! after the build; a changed collection is bulk-loaded again.

use crate::point::Point;
use crate::rect::Rect;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
use std::ops::ControlFlow;

/// Entries per packed node (the last node of a run may hold fewer).
const MAX_ENTRIES: usize = 16;

#[derive(Debug, Clone)]
enum Node<T> {
    Leaf { mbr: Rect, entries: Vec<(Rect, T)> },
    Inner { mbr: Rect, children: Vec<Node<T>> },
}

impl<T> Node<T> {
    fn mbr(&self) -> Rect {
        match self {
            Node::Leaf { mbr, .. } | Node::Inner { mbr, .. } => *mbr,
        }
    }

    fn recompute_mbr(&mut self) {
        match self {
            Node::Leaf { mbr, entries } => {
                *mbr = entries.iter().fold(Rect::EMPTY, |a, (r, _)| a.union(r));
            }
            Node::Inner { mbr, children } => {
                *mbr = children.iter().fold(Rect::EMPTY, |a, c| a.union(&c.mbr()));
            }
        }
    }
}

/// An R-tree over `(Rect, T)` entries.
///
/// * [`RTree::bulk_load`] builds a packed tree with the STR algorithm —
///   O(n log n), near-minimal overlap — and is the only way to fill one.
/// * [`RTree::query`] returns every entry whose MBR intersects the probe.
/// * [`RTree::nearest_with`] walks the entries best-first by box distance
///   from a point — the k-nearest-neighbour traversal.
#[derive(Debug, Clone)]
pub struct RTree<T> {
    root: Option<Node<T>>,
    len: usize,
}

impl<T> Default for RTree<T> {
    fn default() -> Self {
        RTree::new()
    }
}

impl<T> RTree<T> {
    /// Creates an empty tree.
    pub fn new() -> Self {
        RTree { root: None, len: 0 }
    }

    /// Number of stored entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// MBR of the whole tree ([`Rect::EMPTY`] when empty).
    pub fn mbr(&self) -> Rect {
        self.root.as_ref().map_or(Rect::EMPTY, Node::mbr)
    }

    /// Builds a tree from `(Rect, T)` pairs using Sort-Tile-Recursive
    /// packing.
    pub fn bulk_load(mut items: Vec<(Rect, T)>) -> Self {
        let len = items.len();
        if items.is_empty() {
            return RTree::new();
        }
        // STR: sort by center-x, tile into vertical slices of ~sqrt(n/M)
        // columns, sort each slice by center-y, pack runs of MAX_ENTRIES.
        let leaf_count = len.div_ceil(MAX_ENTRIES);
        let slice_count = (leaf_count as f64).sqrt().ceil() as usize;
        let per_slice = len.div_ceil(slice_count.max(1));

        items.sort_by(|a, b| {
            a.0.center()
                .x
                .partial_cmp(&b.0.center().x)
                .unwrap_or(std::cmp::Ordering::Equal)
        });

        let mut leaves: Vec<Node<T>> = Vec::with_capacity(leaf_count);
        let mut items = items.into_iter().peekable();
        while items.peek().is_some() {
            let mut slice: Vec<(Rect, T)> = Vec::with_capacity(per_slice);
            for _ in 0..per_slice {
                match items.next() {
                    Some(it) => slice.push(it),
                    None => break,
                }
            }
            slice.sort_by(|a, b| {
                a.0.center()
                    .y
                    .partial_cmp(&b.0.center().y)
                    .unwrap_or(std::cmp::Ordering::Equal)
            });
            let mut slice = slice.into_iter().peekable();
            while slice.peek().is_some() {
                let mut entries = Vec::with_capacity(MAX_ENTRIES);
                for _ in 0..MAX_ENTRIES {
                    match slice.next() {
                        Some(it) => entries.push(it),
                        None => break,
                    }
                }
                let mut leaf = Node::Leaf {
                    mbr: Rect::EMPTY,
                    entries,
                };
                leaf.recompute_mbr();
                leaves.push(leaf);
            }
        }

        // Pack upper levels until a single root remains.
        let mut level = leaves;
        while level.len() > 1 {
            let mut next: Vec<Node<T>> = Vec::with_capacity(level.len().div_ceil(MAX_ENTRIES));
            let mut level_iter = level.into_iter().peekable();
            while level_iter.peek().is_some() {
                let mut children = Vec::with_capacity(MAX_ENTRIES);
                for _ in 0..MAX_ENTRIES {
                    match level_iter.next() {
                        Some(n) => children.push(n),
                        None => break,
                    }
                }
                let mut inner = Node::Inner {
                    mbr: Rect::EMPTY,
                    children,
                };
                inner.recompute_mbr();
                next.push(inner);
            }
            level = next;
        }

        RTree {
            root: level.pop(),
            len,
        }
    }

    /// Returns references to every entry whose MBR intersects `probe`, in
    /// deterministic tree order.
    pub fn query(&self, probe: &Rect) -> Vec<&T> {
        let mut out = Vec::new();
        self.query_with(probe, &mut |v| out.push(v));
        out
    }

    /// Visitor-style query: calls `visit` for each hit without allocating.
    pub fn query_with<'a>(&'a self, probe: &Rect, visit: &mut impl FnMut(&'a T)) {
        if let Some(root) = &self.root {
            query_rec(root, probe, visit);
        }
    }

    /// Counts entries intersecting `probe` without materializing them.
    pub fn count(&self, probe: &Rect) -> usize {
        let mut n = 0;
        self.query_with(probe, &mut |_| n += 1);
        n
    }

    /// Best-first traversal (Hjaltason & Samet, TODS '99): calls `visit`
    /// with `(box distance, value)` for every entry in nondecreasing
    /// order of [`Rect::linf_distance`] from `at` to the entry's box,
    /// until the visitor breaks or the tree is exhausted. Equal
    /// distances come out in a deterministic order (the order the walk
    /// reached them); entries stored under an empty rectangle come last,
    /// at distance ∞.
    ///
    /// A subtree is opened only once everything nearer has been visited,
    /// so a visitor that breaks at the first entry beyond its k-th best
    /// candidate touches O(k + log n) boxes instead of all `n`. Returns
    /// the number of boxes (nodes and entries) whose distance was
    /// computed — the filter work of the walk.
    pub fn nearest_with<'a>(
        &'a self,
        at: &Point,
        visit: &mut impl FnMut(f64, &'a T) -> ControlFlow<()>,
    ) -> u64 {
        // Room for a root-to-leaf descent without regrowing.
        let mut queue: BinaryHeap<Queued<'a, T>> = BinaryHeap::with_capacity(4 * MAX_ENTRIES);
        let mut boxes = 0u64;
        let mut push = |queue: &mut BinaryHeap<Queued<'a, T>>, rect: &Rect, item| {
            queue.push(Queued {
                dist: rect.linf_distance(at),
                seq: boxes,
                item,
            });
            boxes += 1;
        };
        if let Some(root) = &self.root {
            push(&mut queue, &root.mbr(), Item::Node(root));
        }
        while let Some(next) = queue.pop() {
            match next.item {
                Item::Entry(v) => {
                    if visit(next.dist, v).is_break() {
                        break;
                    }
                }
                Item::Node(Node::Leaf { entries, .. }) => {
                    for (r, v) in entries {
                        push(&mut queue, r, Item::Entry(v));
                    }
                }
                Item::Node(Node::Inner { children, .. }) => {
                    for c in children {
                        push(&mut queue, &c.mbr(), Item::Node(c));
                    }
                }
            }
        }
        boxes
    }

    /// Depth of the tree (0 when empty); exposed for tests and diagnostics.
    pub fn depth(&self) -> usize {
        fn d<T>(n: &Node<T>) -> usize {
            match n {
                Node::Leaf { .. } => 1,
                Node::Inner { children, .. } => 1 + children.iter().map(d).max().unwrap_or(0),
            }
        }
        self.root.as_ref().map_or(0, d)
    }
}

/// One pending box of [`RTree::nearest_with`]'s priority queue.
struct Queued<'a, T> {
    dist: f64,
    /// Push order: breaks distance ties first-in-first-out.
    seq: u64,
    item: Item<'a, T>,
}

enum Item<'a, T> {
    Node(&'a Node<T>),
    Entry(&'a T),
}

/// Reversed `(dist, seq)` order: [`BinaryHeap`] is a max-heap and the
/// walk wants the nearest box on top.
impl<T> Ord for Queued<'_, T> {
    fn cmp(&self, other: &Self) -> Ordering {
        other
            .dist
            .total_cmp(&self.dist)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

impl<T> PartialOrd for Queued<'_, T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<T> PartialEq for Queued<'_, T> {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}

impl<T> Eq for Queued<'_, T> {}

fn query_rec<'a, T>(node: &'a Node<T>, probe: &Rect, visit: &mut impl FnMut(&'a T)) {
    match node {
        Node::Leaf { mbr, entries } => {
            if !mbr.intersects(probe) {
                return;
            }
            for (r, v) in entries {
                if r.intersects(probe) {
                    visit(v);
                }
            }
        }
        Node::Inner { mbr, children } => {
            if !mbr.intersects(probe) {
                return;
            }
            for c in children {
                query_rec(c, probe, visit);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn unit_cells(n: usize) -> Vec<(Rect, usize)> {
        // n×n grid of unit cells, id = row * n + col.
        let mut cells = Vec::with_capacity(n * n);
        for row in 0..n {
            for col in 0..n {
                cells.push((
                    Rect::new(col as f64, row as f64, col as f64 + 1.0, row as f64 + 1.0),
                    row * n + col,
                ));
            }
        }
        cells
    }

    #[test]
    fn empty_tree_behaves() {
        let t: RTree<u32> = RTree::new();
        assert!(t.is_empty());
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 1.0, 1.0)), Vec::<&u32>::new());
        assert!(t.mbr().is_empty());
        assert_eq!(t.depth(), 0);
    }

    #[test]
    fn bulk_load_finds_exact_matches() {
        let t = RTree::bulk_load(unit_cells(10));
        assert_eq!(t.len(), 100);
        // Probe strictly inside cell (3, 4): ids are row*10+col.
        let hits = t.query(&Rect::new(4.25, 3.25, 4.75, 3.75));
        assert_eq!(hits, vec![&34]);
    }

    #[test]
    fn bulk_load_matches_brute_force() {
        let cells = unit_cells(13);
        let t = RTree::bulk_load(cells.clone());
        for probe in [
            Rect::new(0.0, 0.0, 13.0, 13.0),
            Rect::new(2.5, 2.5, 6.5, 4.5),
            Rect::new(-5.0, -5.0, -1.0, -1.0),
            Rect::new(12.5, 12.5, 20.0, 20.0),
            Rect::new(6.0, 6.0, 6.0, 6.0), // degenerate point probe
        ] {
            let mut expect: Vec<usize> = cells
                .iter()
                .filter(|(r, _)| r.intersects(&probe))
                .map(|&(_, id)| id)
                .collect();
            let mut got: Vec<usize> = t.query(&probe).into_iter().copied().collect();
            expect.sort_unstable();
            got.sort_unstable();
            assert_eq!(got, expect, "probe {probe:?}");
        }
    }

    #[test]
    fn tree_depth_is_logarithmic() {
        let t = RTree::bulk_load(unit_cells(32)); // 1024 entries
                                                  // With M = 16: 1024 entries -> 64 leaves -> 4 inners -> 1 root = 3.
        assert!(t.depth() <= 4, "depth {} too large", t.depth());
    }

    #[test]
    fn count_matches_query_len() {
        let t = RTree::bulk_load(unit_cells(8));
        let probe = Rect::new(1.5, 1.5, 4.5, 2.5);
        assert_eq!(t.count(&probe), t.query(&probe).len());
    }

    #[test]
    fn mbr_covers_everything() {
        let t = RTree::bulk_load(unit_cells(5));
        assert_eq!(t.mbr(), Rect::new(0.0, 0.0, 5.0, 5.0));
    }

    #[test]
    fn single_item_tree() {
        let t = RTree::bulk_load(vec![(Rect::new(1.0, 1.0, 2.0, 2.0), "a")]);
        assert_eq!(t.len(), 1);
        assert_eq!(t.query(&Rect::new(0.0, 0.0, 3.0, 3.0)), vec![&"a"]);
        assert!(t.query(&Rect::new(5.0, 5.0, 6.0, 6.0)).is_empty());
    }

    /// Walks `tree` to exhaustion from `at` and checks the visit order
    /// against a sort of `entries` by box distance: the distance
    /// sequences are equal, and so are the ids within each run of equal
    /// distances. Returns the visited ids.
    fn check_walk(tree: &RTree<usize>, entries: &[(Rect, usize)], at: Point) -> Vec<usize> {
        let mut seen: Vec<(f64, usize)> = Vec::new();
        let boxes = tree.nearest_with(&at, &mut |d, &id| {
            seen.push((d, id));
            ControlFlow::Continue(())
        });
        assert!(boxes >= entries.len() as u64 + u64::from(!entries.is_empty()));
        let mut expect: Vec<(f64, usize)> = entries
            .iter()
            .map(|(r, id)| (r.linf_distance(&at), *id))
            .collect();
        expect.sort_by(|a, b| a.0.total_cmp(&b.0));
        let dists = |v: &[(f64, usize)]| v.iter().map(|x| x.0.to_bits()).collect::<Vec<_>>();
        assert_eq!(
            dists(&seen),
            dists(&expect),
            "distances not in sorted order"
        );
        let ids = seen.iter().map(|x| x.1).collect();
        let by_dist_then_id =
            |a: &(f64, usize), b: &(f64, usize)| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1));
        seen.sort_by(by_dist_then_id);
        expect.sort_by(by_dist_then_id);
        assert_eq!(seen, expect);
        ids
    }

    #[test]
    fn nearest_walk_visits_in_box_distance_order() {
        // Boxes of distinct sizes at distinct offsets: from an interior
        // point, an edge and far outside, with and without ties.
        let cells = unit_cells(11);
        let tree = RTree::bulk_load(cells.clone());
        for at in [
            Point::new(5.3, 4.6),
            Point::new(0.0, 11.0),
            Point::new(-40.0, 3.25),
            Point::new(5.5, 5.5),
        ] {
            check_walk(&tree, &cells, at);
        }
        // No ties at all: the visit order is exactly the sorted order.
        let spread: Vec<(Rect, usize)> = (0..200)
            .map(|i| {
                let x = (i * i) as f64 * 0.37 + i as f64;
                (Rect::new(x, 0.0, x + 0.5, 0.25), i)
            })
            .collect();
        let tree = RTree::bulk_load(spread.iter().rev().cloned().collect());
        let ids = check_walk(&tree, &spread, Point::new(-1.0, 0.1));
        assert_eq!(ids, (0..200).collect::<Vec<_>>());
    }

    #[test]
    fn nearest_walk_stops_when_told() {
        let cells = unit_cells(20);
        let tree = RTree::bulk_load(cells);
        let mut seen = Vec::new();
        let boxes = tree.nearest_with(&Point::new(7.5, 7.5), &mut |d, &id| {
            seen.push((d, id));
            if seen.len() == 3 {
                ControlFlow::Break(())
            } else {
                ControlFlow::Continue(())
            }
        });
        // Nothing is visited after the break, and the walk opened a few
        // leaves, not the whole 400-entry tree.
        assert_eq!(seen.len(), 3);
        assert_eq!(seen[0], (0.0, 7 * 20 + 7));
        assert!(boxes < 120, "walk examined {boxes} boxes for 3 neighbours");
    }

    #[test]
    fn nearest_walk_of_empty_tree_visits_nothing() {
        let tree: RTree<usize> = RTree::new();
        let boxes = tree.nearest_with(&Point::new(0.0, 0.0), &mut |_, _| {
            panic!("empty tree has nothing to visit")
        });
        assert_eq!(boxes, 0);
    }

    #[test]
    fn nearest_walk_handles_point_sized_boxes() {
        // A lattice of degenerate boxes: box distance is the L∞ point
        // distance, and every ring around the centre is one big tie.
        let pts: Vec<(Rect, usize)> = (0..81)
            .map(|i| {
                let (x, y) = ((i % 9) as f64, (i / 9) as f64);
                (Rect::new(x, y, x, y), i)
            })
            .collect();
        let tree = RTree::bulk_load(pts.clone());
        let ids = check_walk(&tree, &pts, Point::new(4.0, 4.0));
        assert_eq!(ids[0], 4 * 9 + 4);
    }

    #[test]
    fn nearest_walk_puts_empty_rects_last_at_infinity() {
        let mut entries = unit_cells(6);
        for id in [36, 37, 38] {
            entries.insert(id % 7, (Rect::EMPTY, id));
        }
        let tree = RTree::bulk_load(entries.clone());
        let ids = check_walk(&tree, &entries, Point::new(2.5, 9.0));
        let mut tail = ids[36..].to_vec();
        tail.sort_unstable();
        assert_eq!(tail, vec![36, 37, 38]);
        // A tree of nothing but empty rectangles still yields them all.
        let hollow: Vec<(Rect, usize)> = (0..40).map(|i| (Rect::EMPTY, i)).collect();
        let tree = RTree::bulk_load(hollow.clone());
        assert_eq!(check_walk(&tree, &hollow, Point::new(0.0, 0.0)).len(), 40);
    }

    #[test]
    fn overlapping_entries_all_reported() {
        // 50 rectangles all covering the origin.
        let items: Vec<(Rect, usize)> = (0..50)
            .map(|i| (Rect::new(-1.0 - i as f64, -1.0, 1.0, 1.0), i))
            .collect();
        let t = RTree::bulk_load(items);
        assert_eq!(t.count(&Rect::new(0.0, 0.0, 0.0, 0.0)), 50);
    }
}
