//! Directed acyclic graphs of layers.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use npu_tensor::MacCount;

use crate::layer::Layer;

/// Identifier of a layer within one [`Graph`].
///
/// Ids are dense indices assigned in insertion order, which the graph
/// guarantees to be a topological order (a layer's predecessors must exist
/// when it is added).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct LayerId(u32);

impl LayerId {
    /// Index into the graph's layer vector.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for LayerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "L{}", self.0)
    }
}

/// Error building or validating a [`Graph`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GraphError {
    /// A predecessor id does not exist in the graph.
    MissingPredecessor {
        /// The offending id.
        pred: LayerId,
        /// Name of the layer being added.
        layer: String,
    },
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingPredecessor { pred, layer } => {
                write!(f, "predecessor {pred} of layer `{layer}` does not exist")
            }
        }
    }
}

impl Error for GraphError {}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Node {
    layer: Layer,
    preds: Vec<LayerId>,
    succs: Vec<LayerId>,
}

/// A DAG of [`Layer`]s.
///
/// Layers are stored in insertion order, which is always a valid
/// topological order because predecessors must already exist when a layer
/// is added — cycles are unrepresentable by construction.
///
/// # Examples
///
/// ```
/// use npu_dnn::{Graph, Layer, OpKind};
///
/// let mut g = Graph::new("toy");
/// let a = g.add(
///     Layer::intrinsic("qkv", OpKind::Dense { tokens: 16, in_features: 8, out_features: 24 }),
///     &[],
/// )?;
/// let b = g.add(
///     Layer::intrinsic("attn", OpKind::AttentionScore { queries: 16, window: 4, dim: 8 }),
///     &[a],
/// )?;
/// assert_eq!(g.len(), 2);
/// assert_eq!(g.preds(b), &[a]);
/// # Ok::<(), npu_dnn::GraphError>(())
/// ```
///
/// The nodes are shared between clones: a cloned graph (and every
/// schedule copy that holds one) points at the same layers and edges
/// until one of the copies is extended with [`Graph::add`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Graph {
    name: String,
    nodes: Arc<Vec<Node>>,
}

impl Graph {
    /// Creates an empty graph.
    pub fn new(name: impl Into<String>) -> Self {
        Graph {
            name: name.into(),
            nodes: Arc::new(Vec::new()),
        }
    }

    /// Graph name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Adds a layer with the given predecessors.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::MissingPredecessor`] if any predecessor id is
    /// not already in the graph.
    pub fn add(&mut self, layer: Layer, preds: &[LayerId]) -> Result<LayerId, GraphError> {
        for &p in preds {
            if p.index() >= self.nodes.len() {
                return Err(GraphError::MissingPredecessor {
                    pred: p,
                    layer: layer.name().to_string(),
                });
            }
        }
        let id = LayerId(self.nodes.len() as u32);
        let nodes = Arc::make_mut(&mut self.nodes);
        for &p in preds {
            nodes[p.index()].succs.push(id);
        }
        nodes.push(Node {
            layer,
            preds: preds.to_vec(),
            succs: Vec::new(),
        });
        Ok(id)
    }

    /// Number of layers.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// True if the graph has no layers.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The layer with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range (ids are only minted by this
    /// graph's [`Graph::add`]).
    pub fn layer(&self, id: LayerId) -> &Layer {
        &self.nodes[id.index()].layer
    }

    /// Looks a layer up by name (linear scan; graphs are small).
    pub fn find(&self, name: &str) -> Option<LayerId> {
        self.nodes
            .iter()
            .position(|n| n.layer.name() == name)
            .map(|i| LayerId(i as u32))
    }

    /// All ids in topological (insertion) order.
    pub fn ids(&self) -> impl Iterator<Item = LayerId> + '_ {
        (0..self.nodes.len() as u32).map(LayerId)
    }

    /// Iterates `(id, layer)` in topological order.
    pub fn iter(&self) -> impl Iterator<Item = (LayerId, &Layer)> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .map(|(i, n)| (LayerId(i as u32), &n.layer))
    }

    /// Predecessors of a layer.
    pub fn preds(&self, id: LayerId) -> &[LayerId] {
        &self.nodes[id.index()].preds
    }

    /// Successors of a layer.
    pub fn succs(&self, id: LayerId) -> &[LayerId] {
        &self.nodes[id.index()].succs
    }

    /// Layers with no predecessors (workload inputs).
    pub fn sources(&self) -> Vec<LayerId> {
        self.ids().filter(|&id| self.preds(id).is_empty()).collect()
    }

    /// Layers with no successors (workload outputs).
    pub fn sinks(&self) -> Vec<LayerId> {
        self.ids().filter(|&id| self.succs(id).is_empty()).collect()
    }

    /// Total MAC count over all layers.
    pub fn total_macs(&self) -> MacCount {
        self.nodes.iter().map(|n| n.layer.macs()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::op::OpKind;
    use proptest::prelude::*;

    fn dense(name: &str, tokens: u64) -> Layer {
        Layer::intrinsic(
            name,
            OpKind::Dense {
                tokens,
                in_features: 8,
                out_features: 8,
            },
        )
    }

    fn chain(n: usize) -> Graph {
        let mut g = Graph::new("chain");
        let mut prev: Vec<LayerId> = vec![];
        for i in 0..n {
            let id = g.add(dense(&format!("l{i}"), 16), &prev).unwrap();
            prev = vec![id];
        }
        g
    }

    #[test]
    fn add_rejects_missing_pred() {
        let mut g = Graph::new("g");
        let err = g.add(dense("a", 4), &[LayerId(3)]).unwrap_err();
        assert!(matches!(err, GraphError::MissingPredecessor { .. }));
        assert!(err.to_string().contains("L3"));
    }

    #[test]
    fn sources_and_sinks() {
        let mut g = Graph::new("g");
        let a = g.add(dense("a", 4), &[]).unwrap();
        let b = g.add(dense("b", 4), &[]).unwrap();
        let c = g.add(dense("c", 4), &[a, b]).unwrap();
        assert_eq!(g.sources(), vec![a, b]);
        assert_eq!(g.sinks(), vec![c]);
        assert_eq!(g.succs(a), &[c]);
        assert_eq!(g.preds(c), &[a, b]);
    }

    #[test]
    fn find_by_name() {
        let g = chain(4);
        assert_eq!(g.find("l2"), Some(LayerId(2)));
        assert_eq!(g.find("nope"), None);
    }

    #[test]
    fn total_macs_sums_layers() {
        let g = chain(3);
        assert_eq!(g.total_macs().as_u64(), 3 * 16 * 8 * 8);
    }

    #[test]
    fn clones_share_layers_until_extended() {
        let mut g = Graph::new("g");
        let a = g.add(dense("a", 4), &[]).unwrap();
        let mut h = g.clone();
        assert!(std::ptr::eq(h.layer(a), g.layer(a)));
        assert_eq!(h.layer(a).name().as_ptr(), g.layer(a).name().as_ptr());
        // Extending the copy detaches its nodes and leaves the original
        // alone; the layer names stay shared.
        let b = h.add(dense("b", 4), &[a]).unwrap();
        assert_eq!((g.len(), h.len()), (1, 2));
        assert!(g.succs(a).is_empty());
        assert_eq!(h.succs(a), &[b]);
        assert!(!std::ptr::eq(h.layer(a), g.layer(a)));
        assert_eq!(h.layer(a).name().as_ptr(), g.layer(a).name().as_ptr());
    }

    /// The JSON of [`json_round_trip_is_pinned`]'s two-layer graph: the
    /// shared names and node list are written as a plain string and a
    /// plain array, the format of an owned `String` and `Vec`.
    const PINNED_TOY_JSON: &str = concat!(
        r#"{"name":"toy","nodes":["#,
        r#"{"layer":{"name":"a","op":{"Dense":{"tokens":2,"in_features":8,"out_features":8}},"#,
        r#""out":{"n":1,"c":8,"h":2,"w":1}},"preds":[],"succs":[1]},"#,
        r#"{"layer":{"name":"b","op":{"Dense":{"tokens":2,"in_features":8,"out_features":8}},"#,
        r#""out":{"n":1,"c":8,"h":2,"w":1}},"preds":[0],"succs":[]}]}"#
    );

    #[test]
    fn json_round_trip_is_pinned() {
        let mut g = Graph::new("toy");
        let a = g.add(dense("a", 2), &[]).unwrap();
        g.add(dense("b", 2), &[a]).unwrap();
        let json = serde_json::to_string(&g).unwrap();
        assert_eq!(json, PINNED_TOY_JSON);
        let back: Graph = serde_json::from_str(&json).unwrap();
        assert_eq!(back, g);
    }

    proptest! {
        /// Insertion order is topological: every edge goes forward.
        #[test]
        fn edges_always_point_forward(adds in proptest::collection::vec(0usize..8, 1..40)) {
            let mut g = Graph::new("p");
            let mut ids: Vec<LayerId> = Vec::new();
            for (i, pick) in adds.iter().enumerate() {
                // Choose up to 2 predecessors among existing nodes.
                let mut preds = Vec::new();
                if !ids.is_empty() {
                    preds.push(ids[pick % ids.len()]);
                    if ids.len() > 1 {
                        preds.push(ids[(pick / 2) % ids.len()]);
                    }
                }
                preds.dedup();
                let id = g.add(dense(&format!("n{i}"), 4), &preds).unwrap();
                ids.push(id);
            }
            for id in g.ids() {
                for &p in g.preds(id) {
                    prop_assert!(p < id);
                }
                for &s in g.succs(id) {
                    prop_assert!(s > id);
                }
            }
        }
    }
}
