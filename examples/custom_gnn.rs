//! Extending the library: plug a *custom* GNN into the training machinery
//! by implementing the `Gnn` trait, then wire it through a custom
//! `ForwardPipe` with a hand-picked completion assignment.
//!
//! AutoAC is a generic framework (paper §I) — this example shows the
//! extension seam a downstream user would use.
//!
//! ```sh
//! cargo run --release --example custom_gnn
//! ```

use autoac::nn::layers::Linear;
use autoac::prelude::*;
use autoac::tensor::spmm;
use autoac_graph::norm;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::rc::Rc;

/// A two-layer "GCN with skip connection" — deliberately not one of the
/// built-in backbones.
struct SkipGcn {
    adj: Rc<autoac::tensor::Csr>,
    l1: Linear,
    l2: Linear,
    skip: Linear,
}

impl SkipGcn {
    fn new(graph: &HeteroGraph, in_dim: usize, hidden: usize, out: usize, rng: &mut StdRng) -> Self {
        Self {
            adj: Rc::new(norm::sym_norm_adj(graph)),
            l1: Linear::new(in_dim, hidden, true, rng),
            l2: Linear::new(hidden, out, true, rng),
            skip: Linear::new(in_dim, out, false, rng),
        }
    }
}

impl Gnn for SkipGcn {
    fn name(&self) -> &'static str {
        "SkipGCN"
    }

    fn forward(&self, x0: &Tensor, _training: bool, _rng: &mut StdRng) -> Forward {
        let h = spmm(&self.adj, &self.adj, &self.l1.forward(x0)).relu();
        let out = spmm(&self.adj, &self.adj, &self.l2.forward(&h)).add(&self.skip.forward(x0));
        Forward { hidden: h, output: out }
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.l1.params();
        p.extend(self.l2.params());
        p.extend(self.skip.params());
        p
    }
}

/// Encoder → fixed completion → custom model.
struct CustomPipe {
    encoder: autoac::nn::FeatureEncoder,
    ops: CompletionOps,
    model: SkipGcn,
    assignment: Vec<CompletionOp>,
}

impl ForwardPipe for CustomPipe {
    fn forward(&self, training: bool, rng: &mut StdRng) -> Forward {
        let x0 = self.encoder.encode();
        let x = autoac::completion::complete_assigned(&self.ops, &x0, &self.assignment);
        self.model.forward(&x, training, rng)
    }

    fn params(&self) -> Vec<Tensor> {
        let mut p = self.encoder.params();
        p.extend(self.ops.params());
        p.extend(self.model.params());
        p
    }
}

fn main() {
    let data = synth::generate(&presets::imdb(), Scale::Tiny, 11);
    println!("{}\n", data.stats_row());
    let mut rng = StdRng::seed_from_u64(11);

    // Hand-pick completion ops by degree: hubs aggregate locally, leaves
    // fall back to one-hot — the heuristic AutoAC automates.
    let deg = data.graph.undirected_degrees();
    let assignment: Vec<CompletionOp> = data
        .missing_nodes()
        .iter()
        .map(|&v| {
            if deg[v as usize] >= 3 {
                CompletionOp::Gcn
            } else if deg[v as usize] >= 1 {
                CompletionOp::Ppnp
            } else {
                CompletionOp::OneHot
            }
        })
        .collect();

    let in_dim = 32;
    let pipe = CustomPipe {
        encoder: autoac::nn::FeatureEncoder::new(&data.graph, &data.features, in_dim, &mut rng),
        ops: CompletionOps::new(
            CompletionContext::build(&data.graph, &data.has_attr()),
            in_dim,
            &mut rng,
        ),
        model: SkipGcn::new(&data.graph, in_dim, 32, data.num_classes, &mut rng),
        assignment,
    };

    let out = train_node_classification(
        &pipe,
        &data,
        &TrainConfig { epochs: 80, ..Default::default() },
        11,
    );
    println!(
        "SkipGCN + degree-heuristic completion: Macro-F1 {:.4} | Micro-F1 {:.4}",
        out.macro_f1, out.micro_f1
    );
}
