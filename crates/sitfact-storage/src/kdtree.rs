//! k-d tree over the measure space.
//!
//! `BaselineIdx` (Section IV of the paper) avoids scanning the whole table by
//! asking, for each measure subspace `M`, the one-sided range query
//! `⋀_{m_i ∈ M} (m_i ≥ t.m_i)`: which historical tuples are at least as good
//! as the new tuple on every attribute of `M`? Those are the only tuples that
//! can dominate `t` in `M`. The tree indexes the *canonical* measure vectors
//! (lower-is-better attributes negated) so "better" is always "greater or
//! equal".

use sitfact_core::{Direction, SubspaceMask, TupleId, TupleView};

#[derive(Debug, Clone)]
struct Node {
    point: Box<[f64]>,
    id: TupleId,
    left: Option<u32>,
    right: Option<u32>,
    /// Lazily deleted: the node keeps routing queries (its subtrees are
    /// live) but no longer reports its own id. Dead nodes are purged by the
    /// threshold rebuild in [`KdTree::remove`].
    dead: bool,
}

/// A k-d tree keyed by canonical measure vectors, supporting insertion and
/// one-sided ("at least as good on these attributes") range queries.
///
/// Points are inserted in arrival order without rebalancing — adequate for the
/// streaming workloads of the paper, where the tree is only a baseline
/// substrate.
#[derive(Debug, Clone)]
pub struct KdTree {
    dims: usize,
    directions: Vec<Direction>,
    nodes: Vec<Node>,
    root: Option<u32>,
    /// Number of lazily-deleted nodes still in the arena. Once the dead
    /// fraction reaches ½ the tree is rebuilt from its survivors — the same
    /// threshold the compressed posting lists use.
    dead: usize,
}

impl KdTree {
    /// Creates an empty tree over measures with the given directions.
    pub fn new(directions: &[Direction]) -> Self {
        KdTree {
            dims: directions.len(),
            directions: directions.to_vec(),
            nodes: Vec::new(),
            root: None,
            dead: 0,
        }
    }

    /// Number of live indexed points (deleted points stop counting even
    /// while their nodes linger in the arena awaiting a rebuild).
    pub fn len(&self) -> usize {
        self.nodes.len() - self.dead
    }

    /// Whether the tree holds no live points.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Number of lazily-deleted nodes still occupying arena slots.
    pub fn dead_len(&self) -> usize {
        self.dead
    }

    fn canonical(&self, tuple: impl TupleView) -> Box<[f64]> {
        (0..self.dims)
            .map(|i| self.directions[i].canonical(tuple.measure(i)))
            .collect()
    }

    /// Inserts a tuple's measures under its id.
    pub fn insert(&mut self, id: TupleId, tuple: impl TupleView) {
        debug_assert_eq!(tuple.num_measures(), self.dims);
        let point = self.canonical(tuple);
        self.insert_canonical(id, point);
    }

    fn insert_canonical(&mut self, id: TupleId, point: Box<[f64]>) {
        let new_index = self.nodes.len() as u32;
        self.nodes.push(Node {
            point,
            id,
            left: None,
            right: None,
            dead: false,
        });
        let Some(mut current) = self.root else {
            self.root = Some(new_index);
            return;
        };
        let mut depth = 0usize;
        loop {
            let axis = depth % self.dims;
            let go_left = self.nodes[new_index as usize].point[axis]
                < self.nodes[current as usize].point[axis];
            let next = if go_left {
                self.nodes[current as usize].left
            } else {
                self.nodes[current as usize].right
            };
            match next {
                Some(child) => {
                    current = child;
                    depth += 1;
                }
                None => {
                    if go_left {
                        self.nodes[current as usize].left = Some(new_index);
                    } else {
                        self.nodes[current as usize].right = Some(new_index);
                    }
                    return;
                }
            }
        }
    }

    /// Deletes a point by its id, navigating by the tuple's measures (the
    /// same descent [`KdTree::insert`] took, so the walk is logarithmic on
    /// balanced data rather than a full-arena scan). The node is only marked
    /// dead — it keeps routing queries until the dead fraction reaches ½ and
    /// the tree rebuilds itself from the survivors in insertion order.
    ///
    /// Returns whether a live `(id, measures)` point was found and removed.
    pub fn remove(&mut self, id: TupleId, tuple: impl TupleView) -> bool {
        debug_assert_eq!(tuple.num_measures(), self.dims);
        let point = self.canonical(tuple);
        let mut current = self.root;
        let mut depth = 0usize;
        while let Some(index) = current {
            let node = &self.nodes[index as usize];
            if node.id == id && !node.dead && node.point == point {
                self.nodes[index as usize].dead = true;
                self.dead += 1;
                if 2 * self.dead >= self.nodes.len() {
                    self.rebuild();
                }
                return true;
            }
            let axis = depth % self.dims;
            current = if point[axis] < node.point[axis] {
                node.left
            } else {
                node.right
            };
            depth += 1;
        }
        false
    }

    /// Purges dead nodes by re-inserting the survivors in insertion order —
    /// arena order *is* insertion order, so the rebuilt tree is exactly the
    /// tree an append-only run over the survivors would have produced
    /// (deterministic across windowed and rebuilt-from-scratch monitors).
    fn rebuild(&mut self) {
        let old = std::mem::take(&mut self.nodes);
        self.root = None;
        self.dead = 0;
        self.nodes.reserve(old.iter().filter(|n| !n.dead).count());
        for node in old {
            if !node.dead {
                self.insert_canonical(node.id, node.point);
            }
        }
    }

    /// Returns the ids of all indexed tuples whose canonical measures are
    /// greater than or equal to `query`'s on **every** attribute of
    /// `subspace` — the candidate dominators of `query` in that subspace.
    ///
    /// Callers still need a strictness check (a candidate equal to the query
    /// on every attribute of the subspace does not dominate it).
    pub fn candidates_at_least(
        &self,
        query: impl TupleView,
        subspace: SubspaceMask,
    ) -> Vec<TupleId> {
        let q = self.canonical(query);
        let mut out = Vec::new();
        if let Some(root) = self.root {
            self.collect(root, 0, &q, subspace, &mut out);
        }
        out
    }

    fn collect(
        &self,
        node_index: u32,
        depth: usize,
        query: &[f64],
        subspace: SubspaceMask,
        out: &mut Vec<TupleId>,
    ) {
        let node = &self.nodes[node_index as usize];
        let satisfies = !node.dead && subspace.indices().all(|i| node.point[i] >= query[i]);
        if satisfies {
            out.push(node.id);
        }
        let axis = depth % self.dims;
        // The left subtree only holds points whose coordinate on `axis` is
        // strictly below this node's; if the query demands at least
        // `query[axis]` on a constrained axis and this node is already below
        // that, nothing on the left can qualify.
        let skip_left = subspace.contains(axis) && node.point[axis] < query[axis];
        if !skip_left {
            if let Some(left) = node.left {
                self.collect(left, depth + 1, query, subspace, out);
            }
        }
        if let Some(right) = node.right {
            self.collect(right, depth + 1, query, subspace, out);
        }
    }

    /// Approximate heap usage in bytes.
    pub fn approx_heap_bytes(&self) -> usize {
        self.nodes.len() * (self.dims * 8 + std::mem::size_of::<Node>())
    }

    /// Deep structural self-check; see [`sitfact_core::audit::Audit`].
    pub fn audit(&self) -> Result<(), sitfact_core::AuditViolation> {
        sitfact_core::Audit::check(self)
    }
}

/// Checks the spatial invariant `candidates_at_least` prunes by: every node
/// in a left subtree is strictly below its ancestor on the ancestor's split
/// axis, every node on the right is at least it — propagated as per-axis
/// interval bounds down the tree — plus arena reachability (the root reaches
/// each node exactly once) and point arity.
impl sitfact_core::Audit for KdTree {
    fn check(&self) -> Result<(), sitfact_core::AuditViolation> {
        use sitfact_core::AuditViolation;
        let fail = |invariant: &'static str, detail: String| {
            Err(AuditViolation::new("KdTree", invariant, detail))
        };
        if self.root.is_none() != self.nodes.is_empty() {
            return fail(
                "root-consistent",
                format!(
                    "root = {:?} but the arena holds {} nodes",
                    self.root,
                    self.nodes.len()
                ),
            );
        }
        if self.directions.len() != self.dims {
            return fail(
                "direction-arity",
                format!(
                    "{} directions for {} axes",
                    self.directions.len(),
                    self.dims
                ),
            );
        }
        let flagged = self.nodes.iter().filter(|n| n.dead).count();
        if flagged != self.dead {
            return fail(
                "dead-counter",
                format!(
                    "{flagged} nodes carry the dead flag but the counter says {}",
                    self.dead
                ),
            );
        }
        // `remove` rebuilds the moment the dead fraction reaches ½, so a
        // tree at rest always keeps a live majority.
        if self.dead > 0 && 2 * self.dead >= self.nodes.len() {
            return fail(
                "dead-threshold",
                format!(
                    "{} of {} nodes are dead — the ½ rebuild threshold should have fired",
                    self.dead,
                    self.nodes.len()
                ),
            );
        }
        let mut visited = vec![false; self.nodes.len()];
        // (node, depth, per-axis lower bound inclusive, upper bound exclusive)
        let mut stack: Vec<(u32, usize, Vec<f64>, Vec<f64>)> = Vec::new();
        if let Some(root) = self.root {
            stack.push((
                root,
                0,
                vec![f64::NEG_INFINITY; self.dims],
                vec![f64::INFINITY; self.dims],
            ));
        }
        while let Some((index, depth, lo, hi)) = stack.pop() {
            let Some(node) = self.nodes.get(index as usize) else {
                return fail(
                    "child-in-arena",
                    format!(
                        "child index {index} out of range ({} nodes)",
                        self.nodes.len()
                    ),
                );
            };
            if std::mem::replace(&mut visited[index as usize], true) {
                return fail(
                    "tree-shape",
                    format!("node {index} is reachable twice (shared child or cycle)"),
                );
            }
            if node.point.len() != self.dims {
                return fail(
                    "point-arity",
                    format!(
                        "node {index} holds {} coordinates, want {}",
                        node.point.len(),
                        self.dims
                    ),
                );
            }
            for axis in 0..self.dims {
                let v = node.point[axis];
                if v.is_nan() || v < lo[axis] || v >= hi[axis] {
                    return fail(
                        "bounding-box",
                        format!(
                            "node {index} (id {}) coordinate {v} on axis {axis} escapes the \
                             interval [{}, {}) its ancestors imply",
                            node.id, lo[axis], hi[axis]
                        ),
                    );
                }
            }
            let axis = depth % self.dims;
            if let Some(left) = node.left {
                let mut child_hi = hi.clone();
                child_hi[axis] = child_hi[axis].min(node.point[axis]);
                stack.push((left, depth + 1, lo.clone(), child_hi));
            }
            if let Some(right) = node.right {
                let mut child_lo = lo;
                child_lo[axis] = child_lo[axis].max(node.point[axis]);
                stack.push((right, depth + 1, child_lo, hi));
            }
        }
        if let Some(unreached) = visited.iter().position(|&v| !v) {
            return fail(
                "tree-shape",
                format!(
                    "node {unreached} (id {}) is in the arena but unreachable from the root",
                    self.nodes[unreached].id
                ),
            );
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sitfact_core::Tuple;

    fn tuple(measures: &[f64]) -> Tuple {
        Tuple::new(vec![0], measures.to_vec())
    }

    fn higher(n: usize) -> Vec<Direction> {
        vec![Direction::HigherIsBetter; n]
    }

    /// Brute-force reference for the one-sided query.
    fn reference(
        points: &[(TupleId, Tuple)],
        query: &Tuple,
        subspace: SubspaceMask,
        dirs: &[Direction],
    ) -> Vec<TupleId> {
        let mut out: Vec<TupleId> = points
            .iter()
            .filter(|(_, p)| {
                subspace
                    .indices()
                    .all(|i| !dirs[i].better(query.measure(i), p.measure(i)))
            })
            .map(|(id, _)| *id)
            .collect();
        out.sort_unstable();
        out
    }

    #[test]
    fn empty_tree_returns_nothing() {
        let tree = KdTree::new(&higher(2));
        assert!(tree.is_empty());
        assert!(tree
            .candidates_at_least(tuple(&[0.0, 0.0]), SubspaceMask::full(2))
            .is_empty());
    }

    #[test]
    fn finds_dominating_candidates() {
        let dirs = higher(3);
        let mut tree = KdTree::new(&dirs);
        let points = [
            [10.0, 15.0, 1.0],
            [15.0, 10.0, 2.0],
            [17.0, 17.0, 3.0],
            [20.0, 20.0, 4.0],
            [11.0, 15.0, 0.5],
        ];
        for (i, p) in points.iter().enumerate() {
            tree.insert(i as TupleId, tuple(p));
        }
        assert_eq!(tree.len(), 5);
        // Who is at least (11, 15, *) on {m0, m1}? -> t0 fails m0? t0=(10,..) fails.
        let q = tuple(&[11.0, 15.0, 0.0]);
        let mut found = tree.candidates_at_least(&q, SubspaceMask::from_indices([0, 1]));
        found.sort_unstable();
        assert_eq!(found, vec![2, 3, 4]);
        // Full-space query from the origin returns everything.
        let all = tree.candidates_at_least(tuple(&[0.0, 0.0, 0.0]), SubspaceMask::full(3));
        assert_eq!(all.len(), 5);
        // A query above everything returns nothing.
        let none = tree.candidates_at_least(tuple(&[99.0, 99.0, 99.0]), SubspaceMask::full(3));
        assert!(none.is_empty());
    }

    #[test]
    fn respects_lower_is_better_directions() {
        let dirs = vec![Direction::HigherIsBetter, Direction::LowerIsBetter];
        let mut tree = KdTree::new(&dirs);
        // (points, fouls): fewer fouls is better.
        tree.insert(0, tuple(&[20.0, 5.0]));
        tree.insert(1, tuple(&[20.0, 1.0]));
        tree.insert(2, tuple(&[10.0, 1.0]));
        let q = tuple(&[15.0, 3.0]);
        let mut found = tree.candidates_at_least(&q, SubspaceMask::full(2));
        found.sort_unstable();
        // Only t1 has >= points and <= fouls.
        assert_eq!(found, vec![1]);
    }

    #[test]
    fn matches_reference_on_random_data() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(42);
        let dirs = vec![
            Direction::HigherIsBetter,
            Direction::LowerIsBetter,
            Direction::HigherIsBetter,
            Direction::HigherIsBetter,
        ];
        let mut tree = KdTree::new(&dirs);
        let mut points = Vec::new();
        for i in 0..300u32 {
            let t = tuple(&[
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
            ]);
            tree.insert(i, &t);
            points.push((i, t));
        }
        for _ in 0..50 {
            let q = tuple(&[
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
                rng.gen_range(0..20) as f64,
            ]);
            for mask in [0b1111u32, 0b0011, 0b1010, 0b0100, 0b0001] {
                let subspace = SubspaceMask(mask);
                let mut found = tree.candidates_at_least(&q, subspace);
                found.sort_unstable();
                let expected = reference(&points, &q, subspace, &dirs);
                assert_eq!(found, expected, "mask {mask:04b} query {:?}", q.measures());
            }
        }
    }

    #[test]
    fn heap_estimate_grows() {
        let mut tree = KdTree::new(&higher(2));
        let empty = tree.approx_heap_bytes();
        for i in 0..100 {
            tree.insert(i, tuple(&[i as f64, 1.0]));
        }
        assert!(tree.approx_heap_bytes() > empty);
    }

    #[test]
    fn remove_hides_points_and_rebuild_purges_them() {
        let dirs = higher(2);
        let mut tree = KdTree::new(&dirs);
        let points: Vec<Tuple> = (0..8).map(|i| tuple(&[i as f64, (8 - i) as f64])).collect();
        for (i, p) in points.iter().enumerate() {
            tree.insert(i as TupleId, p);
        }
        // Removing an id whose measures don't match, or twice, fails.
        assert!(!tree.remove(3, tuple(&[99.0, 99.0])));
        assert!(tree.remove(3, &points[3]));
        assert!(!tree.remove(3, &points[3]));
        assert_eq!(tree.len(), 7);
        assert_eq!(tree.dead_len(), 1);
        let found = tree.candidates_at_least(tuple(&[0.0, 0.0]), SubspaceMask::full(2));
        assert!(!found.contains(&3), "dead ids must not be reported");
        assert_eq!(found.len(), 7);
        tree.audit().unwrap();
        // Delete up to the ½ threshold: the rebuild purges the arena.
        for i in [0u32, 1, 2] {
            assert!(tree.remove(i, &points[i as usize]));
        }
        assert_eq!(tree.dead_len(), 0, "threshold rebuild must have fired");
        assert_eq!(tree.len(), 4);
        let mut rest = tree.candidates_at_least(tuple(&[0.0, 0.0]), SubspaceMask::full(2));
        rest.sort_unstable();
        assert_eq!(rest, vec![4, 5, 6, 7]);
        tree.audit().unwrap();
    }

    #[test]
    fn rebuild_matches_an_append_only_tree_over_the_survivors() {
        use rand::prelude::*;
        let mut rng = StdRng::seed_from_u64(7);
        let dirs = higher(3);
        let mut tree = KdTree::new(&dirs);
        let mut points = Vec::new();
        for i in 0..120u32 {
            let t = tuple(&[
                rng.gen_range(0..15) as f64,
                rng.gen_range(0..15) as f64,
                rng.gen_range(0..15) as f64,
            ]);
            tree.insert(i, &t);
            points.push((i, t));
        }
        // Retract a prefix, as the windowed monitors do.
        for (id, t) in &points[..70] {
            assert!(tree.remove(*id, t));
        }
        let mut fresh = KdTree::new(&dirs);
        for (id, t) in &points[70..] {
            fresh.insert(*id, t);
        }
        assert_eq!(tree.len(), fresh.len());
        for _ in 0..25 {
            let q = tuple(&[
                rng.gen_range(0..15) as f64,
                rng.gen_range(0..15) as f64,
                rng.gen_range(0..15) as f64,
            ]);
            for mask in [0b111u32, 0b011, 0b100] {
                let subspace = SubspaceMask(mask);
                let mut a = tree.candidates_at_least(&q, subspace);
                let mut b = fresh.candidates_at_least(&q, subspace);
                a.sort_unstable();
                b.sort_unstable();
                assert_eq!(a, b);
                let expected = reference(&points[70..], &q, subspace, &dirs);
                assert_eq!(a, expected);
            }
        }
        tree.audit().unwrap();
        fresh.audit().unwrap();
    }
}
