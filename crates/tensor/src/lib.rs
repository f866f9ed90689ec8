//! # autoac-tensor
//!
//! From-scratch CPU tensor library with reverse-mode automatic
//! differentiation — the numerical substrate of the AutoAC reproduction.
//!
//! The design is intentionally narrow: 2-D `f32` matrices, a define-by-run
//! autograd graph, the exact op set needed by heterogeneous GNNs
//! (dense/sparse products, gather/scatter, grouped softmax, the usual
//! activations and losses), and Adam/SGD optimizers.
//!
//! ```
//! use autoac_tensor::{Matrix, Tensor};
//!
//! let w = Tensor::param(Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]));
//! let x = Tensor::constant(Matrix::from_rows(&[&[1.0], &[1.0]]));
//! let loss = w.matmul(&x).sum();
//! loss.backward();
//! assert_eq!(w.grad().unwrap().data(), &[1.0, 1.0, 1.0, 1.0]);
//! ```

#![warn(missing_docs)]

mod autograd;
pub mod chk;
pub mod init;
mod matrix;
pub mod optim;
mod ops;
pub mod parallel;
pub mod pool;
pub mod sparse;

pub use autograd::{frozen, grad_enabled, no_grad, Tensor};
pub use matrix::{dot, softmax_in_place, Matrix};
pub use ops::Act;
pub use optim::{Adam, AdamConfig, AdamState, Sgd};
pub use sparse::{spmm, Csr};
