//! The dataset container shared by every experiment.

use autoac_graph::{EdgeTypeId, HeteroGraph, NodeTypeId};
use autoac_tensor::Matrix;
use rand::seq::SliceRandom;
use rand::Rng;

/// Train/validation/test node split in global node ids.
#[derive(Debug, Clone, Default)]
pub struct Split {
    /// Training nodes.
    pub train: Vec<u32>,
    /// Validation nodes.
    pub val: Vec<u32>,
    /// Test nodes.
    pub test: Vec<u32>,
}

impl Split {
    /// HGB convention: 24% train / 6% validation / 70% test.
    pub fn hgb(nodes: impl Iterator<Item = u32>, rng: &mut impl Rng) -> Self {
        let mut ids: Vec<u32> = nodes.collect();
        ids.shuffle(rng);
        let n = ids.len();
        let n_train = (n as f64 * 0.24).round() as usize;
        let n_val = (n as f64 * 0.06).round() as usize;
        Split {
            train: ids[..n_train].to_vec(),
            val: ids[n_train..n_train + n_val].to_vec(),
            test: ids[n_train + n_val..].to_vec(),
        }
    }

    /// Total number of split nodes.
    pub fn len(&self) -> usize {
        self.train.len() + self.val.len() + self.test.len()
    }

    /// True when the split holds no nodes (e.g. link-prediction-only data).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// A heterogeneous graph dataset with (possibly partially missing) node
/// attributes, classification labels on a target node type, and an optional
/// link-prediction target edge type.
#[derive(Debug, Clone)]
pub struct Dataset {
    /// Dataset name (e.g. `"DBLP"`).
    pub name: String,
    /// The graph.
    pub graph: HeteroGraph,
    /// Raw attribute matrix per node type; `None` marks a type whose
    /// attributes are missing (the `V⁻` side of the paper).
    pub features: Vec<Option<Matrix>>,
    /// Class label per *target-type-local* node index (empty when the
    /// dataset has no classification task).
    pub labels: Vec<u32>,
    /// Number of classes (0 when no classification task).
    pub num_classes: usize,
    /// The node type carrying labels.
    pub target_type: NodeTypeId,
    /// Node split for classification (global ids within the target type).
    pub split: Split,
    /// Edge type used for the link-prediction task, if any.
    pub lp_edge_type: Option<EdgeTypeId>,
}

impl Dataset {
    /// Per-node attribute presence mask (`V⁺` membership).
    pub fn has_attr(&self) -> Vec<bool> {
        let mut mask = vec![false; self.graph.num_nodes()];
        for (t, feat) in self.features.iter().enumerate() {
            if feat.is_some() {
                for v in self.graph.nodes_of_type(t) {
                    // analyze:allow(panic, nodes_of_type yields ids below num_nodes and mask is sized num_nodes)
                    mask[v] = true;
                }
            }
        }
        mask
    }

    /// Global ids of nodes with missing attributes (`V⁻`), ordered.
    pub fn missing_nodes(&self) -> Vec<u32> {
        self.has_attr()
            .iter()
            .enumerate()
            .filter_map(|(v, &h)| (!h).then_some(v as u32))
            .collect()
    }

    /// Fraction of nodes with missing attributes.
    pub fn missing_rate(&self) -> f64 {
        self.missing_nodes().len() as f64 / self.graph.num_nodes() as f64
    }

    /// Label of a global node id (must lie in the target type's range).
    pub fn label_of(&self, v: u32) -> u32 {
        let local = self.graph.local_index(v as usize);
        self.labels[local]
    }

    /// Labels indexed by *global* node id (`u32::MAX` outside the target
    /// type), convenient for loss masking.
    pub fn global_labels(&self) -> Vec<u32> {
        let mut out = vec![u32::MAX; self.graph.num_nodes()];
        let range = self.graph.nodes_of_type(self.target_type);
        for (local, v) in range.enumerate() {
            if local < self.labels.len() {
                out[v] = self.labels[local];
            }
        }
        out
    }

    /// Replaces the features of node type `t` with identity one-hot rows —
    /// the handcrafted completion used by the varying-missing-rate study
    /// (Table IX).
    pub fn with_onehot_features(&self, t: NodeTypeId) -> Dataset {
        let mut d = self.clone();
        let count = self.graph.num_nodes_of_type(t);
        d.features[t] = Some(Matrix::eye(count));
        d
    }

    /// One-line Table-I-style statistics row.
    pub fn stats_row(&self) -> String {
        let per_type: Vec<String> = (0..self.graph.num_node_types())
            .map(|t| {
                let attr = if self.features[t].is_some() { "raw" } else { "missing" };
                format!(
                    "{}:{} ({attr})",
                    self.graph.node_type_name(t),
                    self.graph.num_nodes_of_type(t)
                )
            })
            .collect();
        format!(
            "{} | #nodes {} | #edges {} | target {} | {}",
            self.name,
            self.graph.num_nodes(),
            self.graph.num_edges(),
            self.graph.node_type_name(self.target_type),
            per_type.join(", ")
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn toy_dataset() -> Dataset {
        let mut b = HeteroGraph::builder();
        let m = b.add_node_type("movie", 4);
        let a = b.add_node_type("actor", 3);
        let e = b.add_edge_type("m-a", m, a);
        b.add_edge(e, 0, 4);
        b.add_edge(e, 1, 5);
        let graph = b.build();
        Dataset {
            name: "toy".into(),
            graph,
            features: vec![Some(Matrix::ones(4, 2)), None],
            labels: vec![0, 1, 0, 1],
            num_classes: 2,
            target_type: 0,
            split: Split { train: vec![0], val: vec![1], test: vec![2, 3] },
            lp_edge_type: Some(0),
        }
    }

    #[test]
    fn attr_masks() {
        let d = toy_dataset();
        assert_eq!(d.has_attr(), vec![true, true, true, true, false, false, false]);
        assert_eq!(d.missing_nodes(), vec![4, 5, 6]);
        assert!((d.missing_rate() - 3.0 / 7.0).abs() < 1e-9);
    }

    #[test]
    fn global_labels_mask_non_target() {
        let d = toy_dataset();
        let gl = d.global_labels();
        assert_eq!(&gl[..4], &[0, 1, 0, 1]);
        assert!(gl[4..].iter().all(|&l| l == u32::MAX));
        assert_eq!(d.label_of(2), 0);
    }

    #[test]
    fn onehot_and_missing_feature_overrides() {
        let d = toy_dataset();
        let with = d.with_onehot_features(1);
        assert!(with.features[1].is_some());
        assert_eq!(with.features[1].as_ref().unwrap().shape(), (3, 3));
        assert!((with.missing_rate() - 0.0).abs() < 1e-9);
    }

    #[test]
    fn hgb_split_proportions() {
        let mut rng = StdRng::seed_from_u64(0);
        let s = Split::hgb(0..1000u32, &mut rng);
        assert_eq!(s.train.len(), 240);
        assert_eq!(s.val.len(), 60);
        assert_eq!(s.test.len(), 700);
        // Disjoint and complete.
        let mut all: Vec<u32> =
            s.train.iter().chain(&s.val).chain(&s.test).copied().collect();
        all.sort_unstable();
        assert_eq!(all, (0..1000).collect::<Vec<_>>());
    }
}
