//! # autoac-eval
//!
//! Evaluation metrics (Macro/Micro-F1, ROC-AUC, MRR) and the statistics
//! used in the paper's tables (mean ± std over seeds, Welch's t-test
//! p-values), implemented from scratch and verified against hand-computed
//! references.

#![warn(missing_docs)]

mod metrics;
mod stats;

pub use metrics::{argmax_predictions, f1_scores, mrr, roc_auc, F1Scores};
pub use stats::{
    ln_gamma, mean, mean_std_pct, reg_inc_beta, std_dev, student_t_cdf, welch_t_test, TTest,
};
