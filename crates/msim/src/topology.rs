//! Job topology: nodes × ranks-per-node.

/// Shape of a simulated job. The paper's experiments fix ranks-per-node
/// (16 on COMET, 20 on ROGER) and sweep node counts; the node boundary
/// matters because client-side I/O bandwidth and the ROMIO aggregator rule
/// are both per-*node* effects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Topology {
    nodes: usize,
    ranks_per_node: usize,
}

impl Topology {
    /// Creates a topology of `nodes` × `ranks_per_node`.
    pub fn new(nodes: usize, ranks_per_node: usize) -> Self {
        assert!(
            nodes > 0 && ranks_per_node > 0,
            "topology must be non-empty"
        );
        Topology {
            nodes,
            ranks_per_node,
        }
    }

    /// A single-node topology with `ranks` ranks.
    pub fn single_node(ranks: usize) -> Self {
        Topology::new(1, ranks)
    }

    /// Total ranks in the job.
    pub fn ranks(&self) -> usize {
        self.nodes * self.ranks_per_node
    }

    /// Number of nodes.
    pub fn nodes(&self) -> usize {
        self.nodes
    }

    /// Node hosting `rank` (block placement: ranks 0..ppn on node 0, etc.,
    /// matching the usual `--map-by node` default of slurm/OpenMPI).
    pub fn node_of(&self, rank: usize) -> usize {
        debug_assert!(rank < self.ranks());
        rank / self.ranks_per_node
    }

    /// The first rank on each node — the candidates ROMIO picks
    /// aggregators from.
    pub fn node_leaders(&self) -> Vec<usize> {
        (0..self.nodes).map(|n| n * self.ranks_per_node).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn basic_accounting() {
        let t = Topology::new(3, 4);
        assert_eq!(t.ranks(), 12);
        assert_eq!(t.nodes(), 3);
        assert_eq!(t.node_of(0), 0);
        assert_eq!(t.node_of(3), 0);
        assert_eq!(t.node_of(4), 1);
        assert_eq!(t.node_of(11), 2);
        assert_eq!(t.node_leaders(), vec![0, 4, 8]);
    }

    #[test]
    #[should_panic(expected = "non-empty")]
    fn zero_nodes_panics() {
        let _ = Topology::new(0, 4);
    }
}
