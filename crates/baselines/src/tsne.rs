//! Exact t-SNE (van der Maaten & Hinton 2008) — the `sklearn.manifold.TSNE`
//! counterpart in the paper's comparison. O(n²) per iteration, which is
//! exactly why Fig. 9 shows it falling behind at scale.

use crate::common::pairwise_sq_dists;
use crate::pca::Pca;
use hpc_linalg::Mat;

/// t-SNE hyper-parameters (defaults mirror the paper's settings:
/// `perplexity = 30`, two components).
#[derive(Clone, Copy, Debug)]
pub struct TsneConfig {
    /// Output dimensionality.
    pub n_components: usize,
    /// Effective number of neighbours.
    pub perplexity: f64,
    /// Gradient step size; `0.0` selects the standard automatic rate
    /// `max(n/early_exaggeration, 50)`.
    pub learning_rate: f64,
    /// Total gradient-descent iterations.
    pub n_iter: usize,
    /// Early-exaggeration factor applied for the first quarter of the run.
    pub early_exaggeration: f64,
    /// RNG seed (used only if PCA init degenerates).
    pub seed: u64,
}

impl Default for TsneConfig {
    fn default() -> Self {
        TsneConfig {
            n_components: 2,
            perplexity: 30.0,
            learning_rate: 0.0,
            n_iter: 400,
            early_exaggeration: 12.0,
            seed: 0,
        }
    }
}

/// Fitted t-SNE embedding.
#[derive(Clone, Debug)]
pub struct Tsne {
    /// Configuration used.
    pub config: TsneConfig,
    embedding: Mat,
}

impl Tsne {
    /// Runs exact t-SNE on `x` (`n_samples × n_features`).
    pub fn fit(x: &Mat, config: &TsneConfig) -> Tsne {
        let n = x.rows();
        assert!(n >= 4, "t-SNE needs at least a handful of samples");
        let k = config.n_components;
        let p = joint_probabilities(x, config.perplexity.min((n as f64 - 1.0) / 3.0));
        // PCA init, scaled to tiny spread (standard practice).
        let mut y = {
            let mut pca = Pca::new(k.min(x.cols()).max(1));
            pca.fit(x);
            let mut e = Mat::zeros(n, k);
            let scores = pca.embedding();
            let spread = scores.max_abs().max(1e-12);
            for i in 0..n {
                for j in 0..k.min(scores.cols()) {
                    e[(i, j)] = scores[(i, j)] / spread * 1e-4;
                }
            }
            // Break exact ties deterministically.
            for i in 0..n {
                for j in 0..k {
                    e[(i, j)] += 1e-6 * hash_unit(config.seed, (i * k + j) as u64);
                }
            }
            e
        };
        let lr = if config.learning_rate > 0.0 {
            config.learning_rate
        } else {
            (n as f64 / config.early_exaggeration).max(50.0)
        };
        let mut vel = Mat::zeros(n, k);
        let exag_end = config.n_iter / 4;
        for iter in 0..config.n_iter {
            let exag = if iter < exag_end {
                config.early_exaggeration
            } else {
                1.0
            };
            let momentum = if iter < exag_end { 0.5 } else { 0.8 };
            let grad = gradient(&p, &y, exag);
            for i in 0..n {
                for j in 0..k {
                    let v = momentum * vel[(i, j)] - lr * grad[(i, j)];
                    vel[(i, j)] = v;
                    y[(i, j)] += v;
                }
            }
        }
        Tsne {
            config: *config,
            embedding: y,
        }
    }

    /// The embedded samples (`n × n_components`).
    pub fn embedding(&self) -> &Mat {
        &self.embedding
    }
}

/// Symmetrised joint probabilities with per-point perplexity calibration.
fn joint_probabilities(x: &Mat, perplexity: f64) -> Mat {
    let n = x.rows();
    let d = pairwise_sq_dists(x);
    let target_entropy = perplexity.max(2.0).ln();
    let mut p = Mat::zeros(n, n);
    for i in 0..n {
        // Binary search the precision β = 1/(2σ²) to hit the target entropy.
        let mut beta = 1.0f64;
        let (mut lo, mut hi) = (0.0f64, f64::INFINITY);
        let mut row = vec![0.0; n];
        for _ in 0..64 {
            let mut sum = 0.0;
            for j in 0..n {
                if j != i {
                    let v = (-beta * d[(i, j)]).exp();
                    row[j] = v;
                    sum += v;
                }
            }
            if sum <= 0.0 {
                break;
            }
            // H = ln Σ + β·Σ d·p / Σ.
            let mut dp = 0.0;
            for j in 0..n {
                if j != i {
                    dp += d[(i, j)] * row[j];
                }
            }
            let h = sum.ln() + beta * dp / sum;
            let diff = h - target_entropy;
            if diff.abs() < 1e-5 {
                break;
            }
            if diff > 0.0 {
                lo = beta;
                beta = if hi.is_finite() {
                    (beta + hi) / 2.0
                } else {
                    beta * 2.0
                };
            } else {
                hi = beta;
                beta = (beta + lo) / 2.0;
            }
        }
        let sum: f64 = row.iter().sum::<f64>().max(1e-300);
        for j in 0..n {
            if j != i {
                p[(i, j)] = row[j] / sum;
            }
        }
    }
    // Symmetrise and normalise over all pairs.
    let mut out = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            out[(i, j)] = ((p[(i, j)] + p[(j, i)]) / (2.0 * n as f64)).max(1e-12);
        }
    }
    for i in 0..n {
        out[(i, i)] = 0.0;
    }
    out
}

/// KL-divergence gradient with Student-t kernel.
fn gradient(p: &Mat, y: &Mat, exaggeration: f64) -> Mat {
    let n = y.rows();
    let k = y.cols();
    // qnum[i][j] = (1 + ‖yi−yj‖²)^−1.
    let dy = pairwise_sq_dists(y);
    let mut qsum = 0.0;
    let mut qnum = Mat::zeros(n, n);
    for i in 0..n {
        for j in 0..n {
            if i != j {
                let v = 1.0 / (1.0 + dy[(i, j)]);
                qnum[(i, j)] = v;
                qsum += v;
            }
        }
    }
    let qsum = qsum.max(1e-300);
    let mut grad = Mat::zeros(n, k);
    for (i, row) in grad.as_mut_slice().chunks_mut(k).enumerate() {
        for j in 0..n {
            if i == j {
                continue;
            }
            let pij = exaggeration * p[(i, j)];
            let qij = (qnum[(i, j)] / qsum).max(1e-12);
            let mult = 4.0 * (pij - qij) * qnum[(i, j)];
            for (c, g) in row.iter_mut().enumerate() {
                *g += mult * (y[(i, c)] - y[(j, c)]);
            }
        }
    }
    grad
}

fn hash_unit(seed: u64, a: u64) -> f64 {
    let mut h = seed
        .wrapping_mul(0x9e3779b97f4a7c15)
        .wrapping_add(a.wrapping_mul(0xbf58476d1ce4e5b9));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58476d1ce4e5b9);
    h ^= h >> 27;
    (h >> 11) as f64 / (1u64 << 53) as f64 - 0.5
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two well-separated Gaussian-ish blobs in 5-D.
    fn two_blobs(n_per: usize) -> (Mat, usize) {
        let n = 2 * n_per;
        let m = Mat::from_fn(n, 5, |i, j| {
            let blob = if i < n_per { 0.0 } else { 20.0 };
            blob + ((i * 37 + j * 11) % 89) as f64 / 89.0
        });
        (m, n_per)
    }

    #[test]
    fn separates_two_blobs() {
        let (x, n_per) = two_blobs(20);
        let t = Tsne::fit(
            &x,
            &TsneConfig {
                n_iter: 300,
                perplexity: 10.0,
                ..Default::default()
            },
        );
        let e = t.embedding();
        // Centroid separation must exceed within-blob spread.
        let centroid = |r: std::ops::Range<usize>| {
            let n = r.len() as f64;
            let cx: f64 = r.clone().map(|i| e[(i, 0)]).sum::<f64>() / n;
            let cy: f64 = r.map(|i| e[(i, 1)]).sum::<f64>() / n;
            (cx, cy)
        };
        let (ax, ay) = centroid(0..n_per);
        let (bx, by) = centroid(n_per..2 * n_per);
        let sep = ((ax - bx).powi(2) + (ay - by).powi(2)).sqrt();
        let spread: f64 = (0..n_per)
            .map(|i| ((e[(i, 0)] - ax).powi(2) + (e[(i, 1)] - ay).powi(2)).sqrt())
            .sum::<f64>()
            / n_per as f64;
        assert!(sep > 2.0 * spread, "separation {sep} vs spread {spread}");
    }

    #[test]
    fn joint_probabilities_are_a_distribution() {
        let (x, _) = two_blobs(10);
        let p = joint_probabilities(&x, 5.0);
        let total: f64 = p.as_slice().iter().sum();
        assert!((total - 1.0).abs() < 1e-6, "total probability {total}");
        // Symmetric.
        for i in 0..p.rows() {
            for j in 0..p.cols() {
                assert!((p[(i, j)] - p[(j, i)]).abs() < 1e-15);
            }
        }
    }

    #[test]
    fn embedding_shape_and_finiteness() {
        let (x, _) = two_blobs(8);
        let t = Tsne::fit(
            &x,
            &TsneConfig {
                n_iter: 50,
                perplexity: 5.0,
                ..Default::default()
            },
        );
        assert_eq!(t.embedding().shape(), (16, 2));
        assert!(t.embedding().as_slice().iter().all(|v| v.is_finite()));
    }

    #[test]
    fn deterministic_for_fixed_seed() {
        let (x, _) = two_blobs(8);
        let cfg = TsneConfig {
            n_iter: 60,
            perplexity: 5.0,
            ..Default::default()
        };
        let a = Tsne::fit(&x, &cfg);
        let b = Tsne::fit(&x, &cfg);
        assert!(a.embedding().fro_dist(b.embedding()) < 1e-12);
    }
}
