//! Weight initializers.

use rand::Rng;

use crate::matrix::Matrix;

/// Uniform Glorot/Xavier initialization: `U(−a, a)` with
/// `a = sqrt(6 / (fan_in + fan_out))`. The default for linear layers.
pub fn xavier_uniform(rows: usize, cols: usize, rng: &mut impl Rng) -> Matrix {
    let a = (6.0 / (rows + cols) as f32).sqrt();
    random_uniform(rows, cols, -a, a, rng)
}

/// Uniform initialization on an explicit interval.
pub fn random_uniform(rows: usize, cols: usize, lo: f32, hi: f32, rng: &mut impl Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    for v in m.data_mut() {
        *v = rng.gen_range(lo..hi);
    }
    m
}

/// Standard normal initialization scaled by `std`.
pub fn random_normal(rows: usize, cols: usize, std: f32, rng: &mut impl Rng) -> Matrix {
    let mut m = Matrix::zeros(rows, cols);
    let mut iter = m.data_mut().iter_mut();
    // Box–Muller, two samples per draw.
    while let Some(a) = iter.next() {
        let u1: f32 = rng.gen_range(1e-7f32..1.0);
        let u2: f32 = rng.gen::<f32>();
        let r = (-2.0 * u1.ln()).sqrt();
        let theta = 2.0 * std::f32::consts::PI * u2;
        *a = r * theta.cos() * std;
        if let Some(b) = iter.next() {
            *b = r * theta.sin() * std;
        }
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn xavier_bounds() {
        let mut rng = StdRng::seed_from_u64(0);
        let m = xavier_uniform(64, 32, &mut rng);
        let a = (6.0 / 96.0f32).sqrt();
        assert!(m.data().iter().all(|v| v.abs() <= a));
        // Not all-zero.
        assert!(m.frob() > 0.0);
    }

    #[test]
    fn normal_moments_are_plausible() {
        let mut rng = StdRng::seed_from_u64(1);
        let m = random_normal(100, 100, 2.0, &mut rng);
        let mean = m.mean();
        let var = m.data().iter().map(|v| (v - mean) * (v - mean)).sum::<f32>()
            / (m.len() as f32 - 1.0);
        assert!(mean.abs() < 0.1, "mean = {mean}");
        assert!((var - 4.0).abs() < 0.3, "var = {var}");
    }

    #[test]
    fn normal_odd_element_count() {
        let mut rng = StdRng::seed_from_u64(2);
        let m = random_normal(3, 3, 1.0, &mut rng);
        assert_eq!(m.len(), 9);
        assert!(m.check_finite().is_ok());
    }
}
