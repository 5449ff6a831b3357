//! Principal component analysis (batch) — the `sklearn.decomposition.PCA`
//! counterpart in the paper's Figs. 8–9 comparison.

use crate::common::center_columns;
use hpc_linalg::{svd_truncated, Mat};

/// Batch PCA via truncated SVD of the centered data.
#[derive(Clone, Debug)]
pub struct Pca {
    /// Output dimensionality.
    pub n_components: usize,
    mean: Vec<f64>,
    /// `d × k` principal directions.
    components: Mat,
    /// `n × k` projection of the training data.
    scores: Mat,
}

impl Pca {
    /// Creates an unfitted PCA.
    pub fn new(n_components: usize) -> Pca {
        assert!(n_components >= 1);
        Pca {
            n_components,
            mean: vec![],
            components: Mat::zeros(0, 0),
            scores: Mat::zeros(0, 0),
        }
    }

    /// Fits on `x` (`n_samples × n_features`) and stores the scores.
    pub fn fit(&mut self, x: &Mat) {
        let mut c = x.clone();
        self.mean = center_columns(&mut c);
        let k = self.n_components.min(x.rows().min(x.cols()));
        let f = svd_truncated(&c, k);
        // `d × k` directions; scores = U·Σ = centered · V.
        self.components = f.v;
        self.scores = c.matmul(&self.components);
    }

    /// Embedding of the training samples (`n × k`).
    pub fn embedding(&self) -> &Mat {
        &self.scores
    }

    /// Projects new samples into the fitted space.
    pub fn transform(&self, x: &Mat) -> Mat {
        assert_eq!(x.cols(), self.mean.len(), "feature count mismatch");
        let mut c = x.clone();
        for i in 0..c.rows() {
            for (v, &m) in c.row_mut(i).iter_mut().zip(&self.mean) {
                *v -= m;
            }
        }
        c.matmul(&self.components)
    }

    /// The fitted principal directions (`d × k`).
    pub fn components(&self) -> &Mat {
        &self.components
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Anisotropic Gaussian-ish cloud along a known direction.
    fn line_cloud(n: usize) -> Mat {
        Mat::from_fn(n, 3, |i, j| {
            let t = i as f64 / n as f64 * 10.0 - 5.0;
            let dir = [2.0, 1.0, -0.5][j];
            let wiggle = (((i * 2654435761 + j * 97) % 997) as f64 / 997.0 - 0.5) * 0.1;
            t * dir + wiggle
        })
    }

    #[test]
    fn first_component_aligns_with_dominant_direction() {
        let x = line_cloud(200);
        let mut pca = Pca::new(2);
        pca.fit(&x);
        let c0: Vec<f64> = pca.components().col(0);
        // Should be parallel to (2, 1, −0.5)/‖·‖.
        let d = [2.0, 1.0, -0.5];
        let dn = (d.iter().map(|v| v * v).sum::<f64>()).sqrt();
        let cos: f64 = c0.iter().zip(&d).map(|(&a, &b)| a * b / dn).sum();
        assert!(cos.abs() > 0.999, "cosine {cos}");
    }

    #[test]
    fn scores_match_transform_of_training_data() {
        let x = line_cloud(60);
        let mut pca = Pca::new(2);
        pca.fit(&x);
        let t = pca.transform(&x);
        assert!(t.fro_dist(pca.embedding()) < 1e-9);
    }

    #[test]
    fn variance_concentrated_in_first_component() {
        let x = line_cloud(120);
        let mut pca = Pca::new(2);
        pca.fit(&x);
        // The scores are centred, so each column's sum of squares is its
        // component's share of the variance.
        let e = pca.embedding();
        let ev: Vec<f64> = (0..2)
            .map(|j| (0..e.rows()).map(|i| e[(i, j)] * e[(i, j)]).sum())
            .collect();
        assert!(ev[0] > 100.0 * ev[1], "ev {ev:?}");
    }

    #[test]
    fn embedding_is_centered() {
        let x = line_cloud(80);
        let mut pca = Pca::new(2);
        pca.fit(&x);
        let e = pca.embedding();
        for j in 0..2 {
            let mean: f64 = (0..e.rows()).map(|i| e[(i, j)]).sum::<f64>() / e.rows() as f64;
            assert!(mean.abs() < 1e-9, "component {j} mean {mean}");
        }
    }
}
