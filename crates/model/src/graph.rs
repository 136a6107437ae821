//! Operator DAGs.
//!
//! A stage's computation is a directed acyclic graph of [`OpNode`]s. Nodes
//! are appended in a valid topological order (dependencies must already
//! exist), which the orchestration layers rely on. Each node carries a
//! `tag` identifying its owner (0 = shared backbone, task ids otherwise) so
//! multi-task graphs can be segmented and fused per task.

use crate::ops::{OpTemplate, Pass, TokenShape};

/// One operator instance in a DAG.
#[derive(Debug, Clone)]
pub struct OpNode {
    /// Index of this node within its graph.
    pub id: usize,
    /// The operator and its cost description.
    pub template: OpTemplate,
    /// Indices of nodes that must complete before this one starts.
    pub deps: Vec<usize>,
    /// Owner tag: 0 for the shared backbone, task id otherwise.
    pub tag: u32,
}

/// A DAG of operators, stored in topological order.
#[derive(Debug, Clone, Default)]
pub struct OpGraph {
    nodes: Vec<OpNode>,
}

impl OpGraph {
    /// Creates an empty graph.
    pub fn new() -> Self {
        Self::default()
    }

    /// Appends a node; all `deps` must already be in the graph.
    ///
    /// # Panics
    /// Panics if any dependency refers to a node that does not exist yet
    /// (which would break topological order).
    pub fn add(&mut self, template: OpTemplate, deps: Vec<usize>, tag: u32) -> usize {
        let id = self.nodes.len();
        for &d in &deps {
            assert!(d < id, "dependency {d} added after dependent {id}");
        }
        self.nodes.push(OpNode {
            id,
            template,
            deps,
            tag,
        });
        id
    }

    /// All nodes in topological order.
    pub fn nodes(&self) -> &[OpNode] {
        &self.nodes
    }

    /// Node count.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the graph has no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// A node by id.
    pub fn node(&self, id: usize) -> &OpNode {
        &self.nodes[id]
    }

    /// Successor lists (inverse of `deps`).
    pub fn successors(&self) -> Vec<Vec<usize>> {
        let mut succ = vec![Vec::new(); self.nodes.len()];
        for n in &self.nodes {
            for &d in &n.deps {
                succ[d].push(n.id);
            }
        }
        succ
    }

    /// Topological depth of every node (longest path from any root, in
    /// hops). Used as the subgraph priority in Algorithm 1.
    pub fn depths(&self) -> Vec<usize> {
        let mut depth = vec![0usize; self.nodes.len()];
        for n in &self.nodes {
            for &d in &n.deps {
                depth[n.id] = depth[n.id].max(depth[d] + 1);
            }
        }
        depth
    }

    /// Sum of FLOPs over all nodes for a token shape and pass.
    pub fn total_flops(&self, shape: TokenShape, pass: Pass) -> f64 {
        self.nodes
            .iter()
            .map(|n| n.template.cost.flops(shape, pass))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ops::{OpCostSpec, OpKind};

    fn gemm(name: &str) -> OpTemplate {
        OpTemplate::new(
            OpKind::QkvProj,
            name,
            OpCostSpec::Gemm {
                k: 16,
                n: 16,
                dtype: 2,
            },
        )
    }

    #[test]
    fn add_preserves_topological_order() {
        let mut g = OpGraph::new();
        let a = g.add(gemm("a"), vec![], 0);
        let b = g.add(gemm("b"), vec![a], 0);
        assert_eq!(g.node(b).deps, vec![a]);
    }

    #[test]
    #[should_panic(expected = "dependency")]
    fn add_rejects_forward_deps() {
        let mut g = OpGraph::new();
        g.add(gemm("a"), vec![5], 0);
    }

    #[test]
    fn depths_follow_longest_path() {
        let mut g = OpGraph::new();
        let a = g.add(gemm("a"), vec![], 0);
        let b = g.add(gemm("b"), vec![a], 0);
        let c = g.add(gemm("c"), vec![a], 0);
        let d = g.add(gemm("d"), vec![b, c], 0);
        assert_eq!(g.depths(), vec![0, 1, 1, 2]);
        let _ = d;
    }

    #[test]
    fn successors_invert_deps() {
        let mut g = OpGraph::new();
        let a = g.add(gemm("a"), vec![], 0);
        let b = g.add(gemm("b"), vec![a], 0);
        let c = g.add(gemm("c"), vec![a], 0);
        let succ = g.successors();
        assert_eq!(succ[a], vec![b, c]);
        assert!(succ[b].is_empty());
    }

    #[test]
    fn totals_sum_over_nodes() {
        let mut g = OpGraph::new();
        g.add(gemm("a"), vec![], 0);
        g.add(gemm("b"), vec![0], 0);
        let sh = TokenShape::new(1, 4);
        assert_eq!(
            g.total_flops(sh, Pass::Forward),
            2.0 * (2.0 * 4.0 * 16.0 * 16.0)
        );
    }
}
