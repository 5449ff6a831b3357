//! Aligned-UMAP (Dadu et al. 2023) — sequential embeddings of evolving data
//! kept mutually comparable by anchoring each fit to the previous one.
//!
//! In the paper's Fig. 9, Aligned-UMAP is the only manifold method with a
//! `partial_fit`: after an initial embedding, each new slice of data updates
//! the layout with a shorter SGD run initialised from (and spring-anchored
//! to) the previous positions.

use crate::umap::{Umap, UmapConfig};
use hpc_linalg::Mat;

/// Streaming aligned UMAP over a fixed sample population with growing
/// feature sets (e.g. the same sensors observed over ever more time).
#[derive(Clone, Debug)]
pub struct AlignedUmap {
    /// Base UMAP configuration.
    pub config: UmapConfig,
    /// Spring strength pulling points toward their previous positions.
    pub alignment_weight: f64,
    /// Epoch fraction used for each incremental update (of `config.n_epochs`).
    pub update_epoch_fraction: f64,
    embedding: Option<Mat>,
    n_fits: usize,
}

impl AlignedUmap {
    /// Creates an unfitted aligned UMAP.
    pub fn new(config: UmapConfig) -> AlignedUmap {
        AlignedUmap {
            config,
            alignment_weight: 1.0,
            update_epoch_fraction: 0.25,
            embedding: None,
            n_fits: 0,
        }
    }

    /// Initial fit on `x` (`n_samples × n_features`): a full UMAP run.
    pub fn fit(&mut self, x: &Mat) {
        let u = Umap::fit(x, &self.config);
        self.embedding = Some(u.embedding().clone());
        self.n_fits = 1;
    }

    /// Aligned update with the current feature matrix (same samples, new
    /// features appended): short SGD from the previous layout with anchor
    /// springs.
    ///
    /// # Panics
    /// Panics if called before [`fit`](Self::fit) or with a different number
    /// of samples.
    pub fn partial_fit(&mut self, x: &Mat) {
        let prev = self.embedding.as_ref().expect("partial_fit before fit");
        assert_eq!(
            x.rows(),
            prev.rows(),
            "aligned update requires the same samples"
        );
        let epochs = ((self.config.n_epochs as f64 * self.update_epoch_fraction) as usize).max(10);
        let anchor = prev.clone();
        let u = Umap::fit_from_init(
            x,
            anchor.clone(),
            &self.config,
            epochs,
            Some((&anchor, self.alignment_weight)),
        );
        self.embedding = Some(u.embedding().clone());
        self.n_fits += 1;
    }

    /// The current embedding, if fitted.
    pub fn embedding(&self) -> Option<&Mat> {
        self.embedding.as_ref()
    }

    /// Number of fits (initial + incremental) so far.
    pub fn n_fits(&self) -> usize {
        self.n_fits
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn blobs(n_per: usize, d: usize, gap: f64) -> Mat {
        Mat::from_fn(2 * n_per, d, |i, j| {
            let blob = if i < n_per { 0.0 } else { gap };
            blob + ((i * 41 + j * 13) % 61) as f64 / 61.0
        })
    }

    #[test]
    fn partial_fit_preserves_alignment() {
        let x0 = blobs(15, 6, 12.0);
        let cfg = UmapConfig {
            n_neighbors: 6,
            n_epochs: 80,
            ..Default::default()
        };
        let mut au = AlignedUmap::new(cfg);
        au.fit(&x0);
        let before = au.embedding().unwrap().clone();
        // New features appended (same sample structure).
        let x1 = blobs(15, 9, 12.0);
        au.partial_fit(&x1);
        let after = au.embedding().unwrap();
        // Aligned update stays close to the previous layout.
        let drift = after.fro_dist(&before) / before.fro_norm().max(1e-9);
        assert!(drift < 1.0, "aligned drift {drift}");
        assert_eq!(au.n_fits(), 2);
    }

    #[test]
    #[should_panic(expected = "partial_fit before fit")]
    fn partial_before_fit_panics() {
        let mut au = AlignedUmap::new(UmapConfig::default());
        au.partial_fit(&blobs(10, 4, 5.0));
    }

    #[test]
    fn sample_count_must_match() {
        let cfg = UmapConfig {
            n_neighbors: 5,
            n_epochs: 30,
            ..Default::default()
        };
        let mut au = AlignedUmap::new(cfg);
        au.fit(&blobs(10, 4, 5.0));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            au.partial_fit(&blobs(12, 4, 5.0));
        }));
        assert!(result.is_err());
    }

    #[test]
    fn separation_survives_updates() {
        let n_per = 12;
        let cfg = UmapConfig {
            n_neighbors: 6,
            n_epochs: 80,
            ..Default::default()
        };
        let mut au = AlignedUmap::new(cfg);
        au.fit(&blobs(n_per, 5, 15.0));
        au.partial_fit(&blobs(n_per, 7, 15.0));
        let e = au.embedding().unwrap();
        let centroid = |r: std::ops::Range<usize>| {
            let n = r.len() as f64;
            (
                r.clone().map(|i| e[(i, 0)]).sum::<f64>() / n,
                r.map(|i| e[(i, 1)]).sum::<f64>() / n,
            )
        };
        let (ax, ay) = centroid(0..n_per);
        let (bx, by) = centroid(n_per..2 * n_per);
        let sep = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        assert!(sep > 0.5, "separation {sep}");
    }
}
