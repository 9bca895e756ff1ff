//! Generic weighted bipartite graph with CSR adjacency.
//!
//! All five relation graphs (Definitions 2–6 of the paper) share this
//! representation. The trainer needs three access patterns, all O(1) or
//! O(log deg):
//!
//! * sample a positive edge ∝ weight — served by the flat [`Edge`] list fed
//!   into an alias table (built in `gem-core`),
//! * weighted node degrees per side — for the degree-based noise sampler,
//! * `has_edge` membership — so noise sampling can reject positive pairs.
//!
//! The user–user social graph is stored in the same structure with both
//! sides being users; each undirected friendship contributes the two
//! directed edges, matching how LINE treats undirected graphs.

/// The type of node living on one side of a bipartite graph.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum NodeKind {
    /// A user.
    User,
    /// An event.
    Event,
    /// A DBSCAN region.
    Region,
    /// One of the 33 time slots.
    TimeSlot,
    /// A vocabulary word.
    Word,
}

/// One weighted edge of a bipartite graph.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Edge {
    /// Left-side node index.
    pub left: u32,
    /// Right-side node index.
    pub right: u32,
    /// Positive weight.
    pub weight: f64,
}

/// A weighted bipartite graph between two typed node sets.
#[derive(Debug, Clone)]
pub struct BipartiteGraph {
    left_kind: NodeKind,
    right_kind: NodeKind,
    left_count: usize,
    right_count: usize,
    edges: Vec<Edge>,
    // CSR adjacency: for each left node, its sorted right neighbours.
    left_offsets: Vec<u32>,
    left_neighbors: Vec<u32>,
    // And the transpose.
    right_offsets: Vec<u32>,
    right_neighbors: Vec<u32>,
    left_degrees: Vec<f64>,
    right_degrees: Vec<f64>,
}

impl BipartiteGraph {
    /// Build from an edge list.
    ///
    /// # Panics
    /// Panics if an edge references a node out of range, or has a
    /// non-positive / non-finite weight, or if a (left, right) pair repeats.
    pub fn new(
        left_kind: NodeKind,
        right_kind: NodeKind,
        left_count: usize,
        right_count: usize,
        mut edges: Vec<Edge>,
    ) -> Self {
        for e in &edges {
            assert!(
                (e.left as usize) < left_count,
                "edge left index {} out of range {left_count}",
                e.left
            );
            assert!(
                (e.right as usize) < right_count,
                "edge right index {} out of range {right_count}",
                e.right
            );
            assert!(
                e.weight.is_finite() && e.weight > 0.0,
                "edge weight must be positive and finite, got {}",
                e.weight
            );
        }
        edges.sort_unstable_by_key(|e| (e.left, e.right));
        for pair in edges.windows(2) {
            assert!(
                (pair[0].left, pair[0].right) != (pair[1].left, pair[1].right),
                "duplicate edge ({}, {})",
                pair[0].left,
                pair[0].right
            );
        }

        let mut left_degrees = vec![0.0; left_count];
        let mut right_degrees = vec![0.0; right_count];
        for e in &edges {
            left_degrees[e.left as usize] += e.weight;
            right_degrees[e.right as usize] += e.weight;
        }

        // CSR from the left (edges already sorted by left, then right).
        let mut left_offsets = vec![0u32; left_count + 1];
        for e in &edges {
            left_offsets[e.left as usize + 1] += 1;
        }
        for i in 0..left_count {
            left_offsets[i + 1] += left_offsets[i];
        }
        let left_neighbors: Vec<u32> = edges.iter().map(|e| e.right).collect();

        // Transpose CSR.
        let mut right_offsets = vec![0u32; right_count + 1];
        for e in &edges {
            right_offsets[e.right as usize + 1] += 1;
        }
        for i in 0..right_count {
            right_offsets[i + 1] += right_offsets[i];
        }
        let mut cursor = right_offsets.clone();
        let mut right_neighbors = vec![0u32; edges.len()];
        for e in &edges {
            let slot = cursor[e.right as usize];
            right_neighbors[slot as usize] = e.left;
            cursor[e.right as usize] += 1;
        }
        // Each right node's neighbour run is already sorted because edges
        // were iterated in increasing `left` order.

        Self {
            left_kind,
            right_kind,
            left_count,
            right_count,
            edges,
            left_offsets,
            left_neighbors,
            right_offsets,
            right_neighbors,
            left_degrees,
            right_degrees,
        }
    }

    /// Node type on the left side.
    pub fn left_kind(&self) -> NodeKind {
        self.left_kind
    }

    /// Node type on the right side.
    pub fn right_kind(&self) -> NodeKind {
        self.right_kind
    }

    /// Number of left-side nodes (including isolated ones).
    pub fn left_count(&self) -> usize {
        self.left_count
    }

    /// Number of right-side nodes (including isolated ones).
    pub fn right_count(&self) -> usize {
        self.right_count
    }

    /// The edges, sorted by (left, right).
    pub fn edges(&self) -> &[Edge] {
        &self.edges
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Weighted degree of each left node.
    pub fn left_degrees(&self) -> &[f64] {
        &self.left_degrees
    }

    /// Weighted degree of each right node.
    pub fn right_degrees(&self) -> &[f64] {
        &self.right_degrees
    }

    /// Right neighbours of a left node (sorted).
    pub fn neighbors_of_left(&self, left: u32) -> &[u32] {
        let (s, e) = (
            self.left_offsets[left as usize] as usize,
            self.left_offsets[left as usize + 1] as usize,
        );
        &self.left_neighbors[s..e]
    }

    /// Left neighbours of a right node (sorted).
    pub fn neighbors_of_right(&self, right: u32) -> &[u32] {
        let (s, e) = (
            self.right_offsets[right as usize] as usize,
            self.right_offsets[right as usize + 1] as usize,
        );
        &self.right_neighbors[s..e]
    }

    /// True if the edge (left, right) exists.
    pub fn has_edge(&self, left: u32, right: u32) -> bool {
        self.neighbors_of_left(left).binary_search(&right).is_ok()
    }

    /// Total edge weight.
    pub fn total_weight(&self) -> f64 {
        self.left_degrees.iter().sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn graph() -> BipartiteGraph {
        BipartiteGraph::new(
            NodeKind::User,
            NodeKind::Event,
            3,
            4,
            vec![
                Edge { left: 0, right: 1, weight: 1.0 },
                Edge { left: 0, right: 3, weight: 2.0 },
                Edge { left: 2, right: 0, weight: 0.5 },
                Edge { left: 2, right: 1, weight: 1.5 },
            ],
        )
    }

    #[test]
    fn adjacency_is_correct_both_sides() {
        let g = graph();
        assert_eq!(g.neighbors_of_left(0), &[1, 3]);
        assert_eq!(g.neighbors_of_left(1), &[] as &[u32]);
        assert_eq!(g.neighbors_of_left(2), &[0, 1]);
        assert_eq!(g.neighbors_of_right(1), &[0, 2]);
        assert_eq!(g.neighbors_of_right(2), &[] as &[u32]);
    }

    #[test]
    fn degrees_are_weighted() {
        let g = graph();
        assert_eq!(g.left_degrees(), &[3.0, 0.0, 2.0]);
        assert_eq!(g.right_degrees(), &[0.5, 2.5, 0.0, 2.0]);
        assert!((g.total_weight() - 5.0).abs() < 1e-12);
    }

    #[test]
    fn has_edge_membership() {
        let g = graph();
        assert!(g.has_edge(0, 1));
        assert!(!g.has_edge(1, 0));
        assert!(!g.has_edge(0, 2));
    }

    #[test]
    fn edges_are_sorted() {
        let g = graph();
        for pair in g.edges().windows(2) {
            assert!((pair[0].left, pair[0].right) < (pair[1].left, pair[1].right));
        }
    }

    #[test]
    fn empty_graph_is_fine() {
        let g = BipartiteGraph::new(NodeKind::Event, NodeKind::Word, 2, 2, vec![]);
        assert_eq!(g.num_edges(), 0);
        assert_eq!(g.neighbors_of_left(0), &[] as &[u32]);
        assert_eq!(g.total_weight(), 0.0);
    }

    #[test]
    #[should_panic(expected = "duplicate edge")]
    fn duplicate_edges_panic() {
        BipartiteGraph::new(
            NodeKind::User,
            NodeKind::Event,
            2,
            2,
            vec![Edge { left: 0, right: 0, weight: 1.0 }, Edge { left: 0, right: 0, weight: 2.0 }],
        );
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_edge_panics() {
        BipartiteGraph::new(
            NodeKind::User,
            NodeKind::Event,
            1,
            1,
            vec![Edge { left: 0, right: 5, weight: 1.0 }],
        );
    }

    #[test]
    #[should_panic(expected = "weight")]
    fn nonpositive_weight_panics() {
        BipartiteGraph::new(
            NodeKind::User,
            NodeKind::Event,
            1,
            1,
            vec![Edge { left: 0, right: 0, weight: 0.0 }],
        );
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use proptest::prelude::*;

    fn arb_edges(l: usize, r: usize) -> impl Strategy<Value = Vec<Edge>> {
        prop::collection::btree_set((0..l as u32, 0..r as u32), 0..40).prop_map(|set| {
            set.into_iter()
                .enumerate()
                .map(|(i, (left, right))| Edge {
                    left,
                    right,
                    weight: 0.5 + i as f64, // distinct positive weights
                })
                .collect()
        })
    }

    proptest! {
        /// CSR adjacency agrees with the edge list exactly, in both
        /// directions, and degrees sum consistently.
        #[test]
        fn csr_matches_edge_list(edges in arb_edges(8, 9)) {
            let g = BipartiteGraph::new(NodeKind::User, NodeKind::Event, 8, 9, edges.clone());
            let mut total = 0.0;
            for e in &edges {
                prop_assert!(g.has_edge(e.left, e.right));
                prop_assert!(g.neighbors_of_right(e.right).contains(&e.left));
                total += e.weight;
            }
            prop_assert!((g.total_weight() - total).abs() < 1e-9);
            let left_sum: f64 = g.left_degrees().iter().sum();
            let right_sum: f64 = g.right_degrees().iter().sum();
            prop_assert!((left_sum - right_sum).abs() < 1e-9);
            // Edge count through adjacency equals the list length.
            let via_left: usize = (0..8).map(|i| g.neighbors_of_left(i).len()).sum();
            prop_assert_eq!(via_left, edges.len());
        }
    }
}
