//! Per-type input projection into the shared embedding space.
//!
//! HGB convention: each node type's raw features go through a type-specific
//! linear layer into a common `d`-dimensional space. Types with missing
//! attributes contribute zero rows — exactly the rows that attribute
//! completion fills in (paper §III).

use std::cell::OnceCell;

use autoac_graph::HeteroGraph;
use autoac_tensor::{Matrix, Tensor};
use rand::Rng;

use crate::layers::Linear;

/// One node type's input to the encoder.
enum TypeInput {
    /// An attributed type: its projection and its raw features as a
    /// constant.
    Raw(Linear, Tensor),
    /// A type without attributes: its whole-graph zero block, built by the
    /// first [`FeatureEncoder::encode`] (a pipeline that only encodes
    /// batches never holds it).
    Missing(OnceCell<Tensor>),
}

/// Projects per-type raw features into a shared `(N, d)` block.
///
/// The raw features never change, so the encoder keeps each type's matrix
/// as a constant tensor, and each attribute-less type's zero block once
/// built.
pub struct FeatureEncoder {
    types: Vec<TypeInput>,
    type_counts: Vec<usize>,
    dim: usize,
}

impl FeatureEncoder {
    /// Builds one projection per attributed node type.
    ///
    /// `features[t]` is the raw feature matrix of type `t` (or `None` when
    /// missing); shapes fix each projection's input dimension.
    pub fn new(
        graph: &HeteroGraph,
        features: &[Option<Matrix>],
        dim: usize,
        rng: &mut impl Rng,
    ) -> Self {
        assert_eq!(features.len(), graph.num_node_types(), "encoder: feature/type mismatch");
        let type_counts: Vec<usize> =
            (0..graph.num_node_types()).map(|t| graph.num_nodes_of_type(t)).collect();
        let types = features
            .iter()
            .zip(&type_counts)
            .enumerate()
            .map(|(t, (f, &count))| match f {
                Some(m) => {
                    assert_eq!(
                        m.rows(),
                        count,
                        "encoder: feature rows must match node count of type {t}"
                    );
                    let proj = Linear::new(m.cols(), dim, true, rng);
                    TypeInput::Raw(proj, Tensor::constant(m.clone()))
                }
                None => TypeInput::Missing(OnceCell::new()),
            })
            .collect();
        Self { types, type_counts, dim }
    }

    /// Shared embedding dimension.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Encodes all nodes into an `(N, d)` tensor; rows of attribute-less
    /// nodes are zero.
    pub fn encode(&self) -> Tensor {
        let blocks: Vec<Tensor> = self
            .types
            .iter()
            .zip(&self.type_counts)
            .map(|(t, &count)| match t {
                TypeInput::Raw(p, f) => p.forward(f),
                TypeInput::Missing(zeros) => zeros
                    .get_or_init(|| Tensor::constant(Matrix::zeros(count, self.dim)))
                    .clone(),
            })
            .collect();
        let refs: Vec<&Tensor> = blocks.iter().collect();
        Tensor::concat_rows(&refs)
    }

    /// Encodes only `nodes` (sorted ascending global ids) into a
    /// `(nodes.len(), d)` tensor, row `i` being the embedding of `nodes[i]`.
    ///
    /// Rows are computed per type by gathering the raw feature rows before
    /// the projection, so cost is `O(|nodes| · d)` — independent of the
    /// graph size. Row-independent kernels (matmul + bias) make each row
    /// bitwise equal to the corresponding row of [`FeatureEncoder::encode`].
    pub fn encode_subset(&self, nodes: &[u32]) -> Tensor {
        assert!(!nodes.is_empty(), "encoder: empty node subset");
        debug_assert!(nodes.windows(2).all(|w| w[0] < w[1]), "subset must be sorted unique");
        let mut blocks: Vec<Tensor> = Vec::new();
        let mut offset = 0u32; // global id where the current type starts
        let mut cursor = 0usize; // position in `nodes`
        for (t, &count) in self.types.iter().zip(&self.type_counts) {
            let end = offset + count as u32;
            let start = cursor;
            while cursor < nodes.len() && nodes[cursor] < end {
                cursor += 1;
            }
            if cursor > start {
                let block = match t {
                    TypeInput::Raw(p, f) => {
                        let local: Vec<u32> =
                            nodes[start..cursor].iter().map(|&v| v - offset).collect();
                        p.forward(&Tensor::constant(f.value().gather_rows(&local)))
                    }
                    TypeInput::Missing(_) => {
                        Tensor::constant(Matrix::zeros(cursor - start, self.dim))
                    }
                };
                blocks.push(block);
            }
            offset = end;
        }
        assert_eq!(cursor, nodes.len(), "encoder: subset node id out of range");
        if blocks.len() == 1 {
            return blocks.pop().expect("one block");
        }
        let refs: Vec<&Tensor> = blocks.iter().collect();
        Tensor::concat_rows(&refs)
    }

    /// Trainable parameters of every projection.
    pub fn params(&self) -> Vec<Tensor> {
        self.types
            .iter()
            .flat_map(|t| match t {
                TypeInput::Raw(p, _) => p.params(),
                TypeInput::Missing(_) => Vec::new(),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy() -> (HeteroGraph, Vec<Option<Matrix>>) {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 3);
        let a = b.add_node_type("actor", 2);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 3);
        let g = b.build();
        let feats = vec![Some(Matrix::ones(3, 5)), None];
        (g, feats)
    }

    #[test]
    fn encode_shapes_and_zero_rows() {
        let (g, feats) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = FeatureEncoder::new(&g, &feats, 8, &mut rng);
        let x = enc.encode();
        assert_eq!(x.shape(), (5, 8));
        let v = x.to_matrix();
        // Actor rows (3, 4) are zero.
        assert!(v.row(3).iter().all(|&z| z == 0.0));
        assert!(v.row(4).iter().all(|&z| z == 0.0));
        // Movie rows are generally nonzero.
        assert!(v.row(0).iter().any(|&z| z != 0.0));
    }

    #[test]
    fn params_only_for_attributed_types() {
        let (g, feats) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = FeatureEncoder::new(&g, &feats, 8, &mut rng);
        assert_eq!(enc.params().len(), 2, "one weight + one bias");
    }

    #[test]
    fn gradients_flow_to_projection() {
        let (g, feats) = toy();
        let mut rng = StdRng::seed_from_u64(0);
        let enc = FeatureEncoder::new(&g, &feats, 4, &mut rng);
        enc.encode().sum().backward();
        assert!(enc.params()[0].grad().is_some());
    }

    #[test]
    fn encode_subset_rows_match_full_encode() {
        let (g, feats) = toy();
        let mut rng = StdRng::seed_from_u64(3);
        let enc = FeatureEncoder::new(&g, &feats, 8, &mut rng);
        let full = enc.encode().to_matrix();
        // A subset straddling both types, including a zero (actor) row.
        let nodes = [0u32, 2, 4];
        let sub = enc.encode_subset(&nodes).to_matrix();
        assert_eq!(sub.rows(), 3);
        for (i, &v) in nodes.iter().enumerate() {
            let want: Vec<u32> = full.row(v as usize).iter().map(|x| x.to_bits()).collect();
            let got: Vec<u32> = sub.row(i).iter().map(|x| x.to_bits()).collect();
            assert_eq!(got, want, "row for node {v} must be bitwise equal");
        }
    }

    #[test]
    fn encode_subset_gradients_flow() {
        let (g, feats) = toy();
        let mut rng = StdRng::seed_from_u64(4);
        let enc = FeatureEncoder::new(&g, &feats, 4, &mut rng);
        enc.encode_subset(&[1, 2]).sum().backward();
        assert!(enc.params()[0].grad().is_some());
    }

    #[test]
    #[should_panic(expected = "feature rows must match")]
    fn rejects_wrong_feature_rows() {
        let (g, _) = toy();
        let bad = vec![Some(Matrix::ones(2, 5)), None];
        let mut rng = StdRng::seed_from_u64(0);
        let _ = FeatureEncoder::new(&g, &bad, 8, &mut rng);
    }
}
