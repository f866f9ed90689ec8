//! Fixture kernels for the dispatch-parity-coverage rule:
//! `fused_relu_blocked` is defined below but the fixture parity harness
//! (`crates/tensor/tests/kernel_parity.rs`) never names it — the seeded
//! violation.

pub(crate) fn fused_relu_scalar(x: &mut [f32]) {
    for v in x.iter_mut() {
        *v = v.max(0.0);
    }
}

pub(crate) fn fused_relu_blocked(x: &mut [f32]) {
    for chunk in x.chunks_mut(8) {
        fused_relu_scalar(chunk);
    }
}
