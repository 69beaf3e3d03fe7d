//! Cut partitions: the user-facing answer to a max-cut instance.
//!
//! Solvers hand back spin vectors; downstream users want the two node
//! sets, the crossing edges, and a certificate that the reported value is
//! right. [`Partition`] packages that.

use crate::cut::{cut_value, spins_to_binary};
use crate::graph::Graph;

/// A two-coloring of a graph's nodes with its cut value.
#[derive(Debug, Clone, PartialEq)]
pub struct Partition {
    side_a: Vec<usize>,
    side_b: Vec<usize>,
    cut: f64,
}

impl Partition {
    /// Builds the partition induced by a ±1 spin assignment
    /// (`+1 → side A`).
    ///
    /// # Panics
    ///
    /// Panics if `spins.len() != graph.num_nodes()`.
    #[must_use]
    pub fn from_spins(graph: &Graph, spins: &[i8]) -> Self {
        let cut = cut_value(graph, spins);
        let mut side_a = Vec::new();
        let mut side_b = Vec::new();
        for (v, &s) in spins.iter().enumerate() {
            if s > 0 {
                side_a.push(v);
            } else {
                side_b.push(v);
            }
        }
        Partition {
            side_a,
            side_b,
            cut,
        }
    }

    /// Builds the partition from a binary assignment (`true → side A`).
    ///
    /// # Panics
    ///
    /// Panics if `bits.len() != graph.num_nodes()`.
    #[must_use]
    pub fn from_bits(graph: &Graph, bits: &[bool]) -> Self {
        let spins: Vec<i8> = bits.iter().map(|&b| if b { 1 } else { -1 }).collect();
        Self::from_spins(graph, &spins)
    }

    /// Nodes on side A (ascending).
    #[must_use]
    pub fn side_a(&self) -> &[usize] {
        &self.side_a
    }

    /// Nodes on side B (ascending).
    #[must_use]
    pub fn side_b(&self) -> &[usize] {
        &self.side_b
    }

    /// The certified cut value.
    #[must_use]
    pub fn cut(&self) -> f64 {
        self.cut
    }

    /// The edges crossing the partition, with weights.
    #[must_use]
    pub fn crossing_edges<'g>(&self, graph: &'g Graph) -> Vec<&'g crate::Edge> {
        let in_a: std::collections::HashSet<usize> = self.side_a.iter().copied().collect();
        graph
            .edges()
            .filter(|e| in_a.contains(&e.u) != in_a.contains(&e.v))
            .collect()
    }

    /// Re-derives the cut from the stored sides and checks it against the
    /// certified value (a self-verifying certificate).
    ///
    /// # Panics
    ///
    /// Panics if the partition does not cover the graph's nodes exactly.
    #[must_use]
    pub fn verify(&self, graph: &Graph) -> bool {
        assert_eq!(
            self.side_a.len() + self.side_b.len(),
            graph.num_nodes(),
            "partition does not cover the graph"
        );
        let crossing: f64 = self.crossing_edges(graph).iter().map(|e| e.w).sum();
        (crossing - self.cut).abs() < 1e-9
    }

    /// Spin representation (`+1` for side A).
    #[must_use]
    pub fn to_spins(&self, n: usize) -> Vec<i8> {
        let mut spins = vec![-1_i8; n];
        for &v in &self.side_a {
            spins[v] = 1;
        }
        spins
    }

    /// Binary representation (`true` for side A).
    #[must_use]
    pub fn to_bits(&self, n: usize) -> Vec<bool> {
        spins_to_binary(&self.to_spins(n))
    }
}

impl std::fmt::Display for Partition {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "Partition(cut {}, |A| = {}, |B| = {})",
            self.cut,
            self.side_a.len(),
            self.side_b.len()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::{complete, gnm, WeightDist};
    use crate::GraphBuilder;

    fn triangle() -> Graph {
        let mut b = GraphBuilder::new(3);
        b.add_edge(0, 1, 1.0).unwrap();
        b.add_edge(1, 2, 2.0).unwrap();
        b.add_edge(0, 2, 3.0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn sides_cover_all_nodes_disjointly() {
        let g = triangle();
        let p = Partition::from_spins(&g, &[1, -1, 1]);
        assert_eq!(p.side_a(), &[0, 2]);
        assert_eq!(p.side_b(), &[1]);
        assert_eq!(p.cut(), 3.0); // edges (0,1)+(1,2) cross
        assert!(p.verify(&g));
    }

    #[test]
    fn crossing_edges_match_cut() {
        let g = gnm(30, 90, WeightDist::UniformInt { lo: -3, hi: 3 }, 4).unwrap();
        let spins: Vec<i8> = (0..30).map(|i| if i % 3 == 0 { 1 } else { -1 }).collect();
        let p = Partition::from_spins(&g, &spins);
        let total: f64 = p.crossing_edges(&g).iter().map(|e| e.w).sum();
        assert!((total - p.cut()).abs() < 1e-9);
        assert!(p.verify(&g));
    }

    #[test]
    fn roundtrips_through_spin_and_bit_representations() {
        let g = complete(10, WeightDist::Unit, 1).unwrap();
        let spins: Vec<i8> = (0..10).map(|i| if i < 5 { 1 } else { -1 }).collect();
        let p = Partition::from_spins(&g, &spins);
        assert_eq!(p.to_spins(10), spins);
        let p2 = Partition::from_bits(&g, &p.to_bits(10));
        assert_eq!(p, p2);
    }

    #[test]
    fn display_reports_sizes() {
        let g = triangle();
        let p = Partition::from_spins(&g, &[1, 1, -1]);
        let s = p.to_string();
        assert!(s.contains("|A| = 2"));
        assert!(s.contains("|B| = 1"));
    }

    #[test]
    fn all_one_side_has_zero_cut() {
        let g = triangle();
        let p = Partition::from_spins(&g, &[1, 1, 1]);
        assert_eq!(p.cut(), 0.0);
        assert!(p.side_b().is_empty());
        assert!(p.verify(&g));
    }
}
