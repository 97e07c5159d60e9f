//! Directed acyclic graphs of layers.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use serde::{Deserialize, Serialize};

use npu_tensor::{float, Bytes, Dtype, MacCount};

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
    /// The graph has no layers.
    Empty,
}

impl fmt::Display for GraphError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GraphError::MissingPredecessor { pred, layer } => {
                write!(f, "predecessor {pred} of layer `{layer}` does not exist")
            }
            GraphError::Empty => write!(f, "graph contains no layers"),
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

    /// Total parameter bytes over all layers.
    pub fn total_weight_bytes(&self, dtype: Dtype) -> Bytes {
        self.nodes.iter().map(|n| n.layer.weight_bytes(dtype)).sum()
    }

    /// Longest path through the graph where each layer is weighted by
    /// `weight`. Returns the path (topological order) and its total weight.
    ///
    /// Used to compute end-to-end latency lower bounds: with per-layer
    /// latencies as weights, the critical path is the serial fraction of
    /// the graph.
    ///
    /// # Errors
    ///
    /// Returns [`GraphError::Empty`] for an empty graph.
    pub fn critical_path_by<F>(&self, mut weight: F) -> Result<(Vec<LayerId>, f64), GraphError>
    where
        F: FnMut(LayerId, &Layer) -> f64,
    {
        if self.nodes.is_empty() {
            return Err(GraphError::Empty);
        }
        let n = self.nodes.len();
        let mut best = vec![0.0_f64; n];
        let mut from: Vec<Option<LayerId>> = vec![None; n];
        for (i, node) in self.nodes.iter().enumerate() {
            let id = LayerId(i as u32);
            let w = weight(id, &node.layer);
            let (pred_best, pred_id) = node.preds.iter().map(|&p| (best[p.index()], Some(p))).fold(
                (0.0_f64, None),
                |acc, cur| {
                    if cur.0 > acc.0 {
                        cur
                    } else {
                        acc
                    }
                },
            );
            best[i] = pred_best + w;
            from[i] = pred_id;
        }
        let (end, _) =
            float::total_max_by_key(best.iter().enumerate(), |&(_, &w)| w).expect("non-empty");
        let mut path = Vec::new();
        let mut cur = Some(LayerId(end as u32));
        while let Some(id) = cur {
            path.push(id);
            cur = from[id.index()];
        }
        path.reverse();
        Ok((path, best[end]))
    }

    /// Splits the graph into two sub-stages at the given layer: layers with
    /// id ≤ `at` form the first partition. Returns the two id sets.
    ///
    /// This models the paper's FE+BFPN pipeline split ("partitioned into
    /// two pipelining stages at the fourth convolutional ResNet-18 block",
    /// §V-B); because ids are topological the cut is always causal for
    /// chain-structured prefixes.
    pub fn split_at(&self, at: LayerId) -> (Vec<LayerId>, Vec<LayerId>) {
        let first = self.ids().filter(|id| *id <= at).collect();
        let second = self.ids().filter(|id| *id > at).collect();
        (first, second)
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
    fn critical_path_on_diamond_takes_heavier_arm() {
        let mut g = Graph::new("g");
        let a = g.add(dense("a", 1), &[]).unwrap();
        let heavy = g.add(dense("heavy", 100), &[a]).unwrap();
        let light = g.add(dense("light", 1), &[a]).unwrap();
        let d = g.add(dense("d", 1), &[heavy, light]).unwrap();
        let (path, w) = g.critical_path_by(|_, l| l.macs().as_f64()).unwrap();
        assert_eq!(path, vec![a, heavy, d]);
        assert!(w > 100.0 * 64.0);
    }

    #[test]
    fn critical_path_empty_graph_errors() {
        let g = Graph::new("empty");
        assert_eq!(
            g.critical_path_by(|_, _| 1.0).unwrap_err(),
            GraphError::Empty
        );
    }

    #[test]
    fn split_at_partitions_all_ids() {
        let g = chain(6);
        let (a, b) = g.split_at(LayerId(2));
        assert_eq!(a.len(), 3);
        assert_eq!(b.len(), 3);
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

        /// The critical path weight is at least the max single-layer weight
        /// and at most the total weight.
        #[test]
        fn critical_path_is_bounded(n in 1usize..30) {
            let g = chain(n);
            let (path, w) = g.critical_path_by(|_, l| l.macs().as_f64()).unwrap();
            let total: f64 = g.iter().map(|(_, l)| l.macs().as_f64()).sum();
            prop_assert!(w <= total + 1e-9);
            prop_assert_eq!(path.len(), n); // a chain's critical path is the chain
        }
    }
}
