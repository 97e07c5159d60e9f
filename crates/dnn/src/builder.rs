//! Fluent graph construction.
//!
//! [`GraphBuilder`] tracks the "current" layer so chain-structured models
//! (the common case in this workload) read top-to-bottom, while joins
//! name their predecessors explicitly.
//!
//! # Examples
//!
//! ```
//! use npu_dnn::builder::GraphBuilder;
//! use npu_dnn::OpKind;
//! use npu_tensor::TensorShape;
//!
//! let mut b = GraphBuilder::new("toy");
//! let trunk = b.chain(
//!     "conv",
//!     OpKind::Conv2d { in_ch: 32, out_ch: 32, kernel: (3, 3), stride: 1 },
//!     TensorShape::nchw(1, 32, 8, 8),
//! );
//! let pool = b.chain("pool", OpKind::Pool { kernel: 2 }, TensorShape::nchw(1, 32, 4, 4));
//! b.join("up", OpKind::Resample, TensorShape::nchw(1, 32, 8, 8), &[trunk, pool]);
//! let g = b.build();
//! assert_eq!(g.len(), 3);
//! assert_eq!(g.preds(pool), &[trunk]);
//! ```

use npu_tensor::TensorShape;

use crate::graph::{Graph, LayerId};
use crate::layer::Layer;
use crate::op::OpKind;

/// Incrementally builds a [`Graph`], tracking the last-added layer.
#[derive(Debug, Clone)]
pub struct GraphBuilder {
    graph: Graph,
    current: Option<LayerId>,
}

impl GraphBuilder {
    /// Starts an empty builder.
    pub fn new(name: impl Into<String>) -> Self {
        GraphBuilder {
            graph: Graph::new(name),
            current: None,
        }
    }

    /// Appends a layer after the current one (or as a source if none) and
    /// makes it current.
    pub fn chain(&mut self, name: impl Into<String>, op: OpKind, out: TensorShape) -> LayerId {
        let preds: Vec<LayerId> = self.current.into_iter().collect();
        let id = self
            .graph
            .add(Layer::new(name, op, out), &preds)
            .expect("current layer always exists in this graph");
        self.current = Some(id);
        id
    }

    /// Appends a join layer over explicit predecessors and makes it
    /// current.
    pub fn join(
        &mut self,
        name: impl Into<String>,
        op: OpKind,
        out: TensorShape,
        preds: &[LayerId],
    ) -> LayerId {
        let id = self
            .graph
            .add(Layer::new(name, op, out), preds)
            .expect("predecessors were minted by this builder");
        self.current = Some(id);
        id
    }

    /// Finishes the build.
    pub fn build(self) -> Graph {
        self.graph
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chain_links_sequentially() {
        let mut b = GraphBuilder::new("g");
        let a = b.chain("a", OpKind::Eltwise, TensorShape::nchw(1, 2, 2, 2));
        let c = b.chain("c", OpKind::Eltwise, TensorShape::nchw(1, 2, 2, 2));
        let g = b.build();
        assert_eq!(g.preds(c), &[a]);
        assert_eq!(g.sources(), vec![a]);
        assert_eq!(g.sinks(), vec![c]);
    }
}
