//! The method-of-snapshots node DMD against the Householder route it
//! replaced on tall panels.
//!
//! An `Exact` fit under `Svht` or `Energy` on a panel with `P ≥ 2(T − 1)`
//! derives the whole DMD from one Gram of the panel. The reference here is
//! the route such panels took before: the QR-preconditioned Jacobi SVD of
//! `X` with every left singular vector formed, then `Dmd::try_from_svd`.
//! Above the Gram floor (10⁻⁴·σ₁ at the weakest kept value and, for SVHT,
//! at the median) the two must agree in rank, eigenvalues and panel
//! reconstruction within 10⁻⁹; below it the fit falls back to the
//! reference bitwise and `svd.gram_fallbacks` counts exactly one. A whole
//! tree fitted through each route must agree within 10⁻⁹ too.
//!
//! The fallback counter is process-wide, so every test in this binary
//! serialises on one lock.

mod in_place_tree;

use in_place_tree::{subtract, Reference};
use mrdmd_suite::linalg::{obs, svd, Observer};
use mrdmd_suite::prelude::*;
use std::sync::{Mutex, MutexGuard};

static COUNTERS: Mutex<()> = Mutex::new(());

fn serialise() -> MutexGuard<'static, ()> {
    let guard = COUNTERS.lock().unwrap_or_else(|e| e.into_inner());
    Observer::enabled().install();
    guard
}

/// The Householder route: full-`U` Jacobi SVD of `X`, then the DMD from it.
fn householder(d: &Mat, cfg: &DmdConfig) -> Result<Dmd, CoreError> {
    let t = d.cols();
    Dmd::try_from_svd(&svd(&d.cols_range(0, t - 1)), &d.cols_range(1, t), d, cfg)
}

/// Deterministic value in `[-0.5, 0.5)` per `(salt, i, j)`.
fn hash(salt: u64, i: usize, j: usize) -> f64 {
    let mut h = salt
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add((i as u64).wrapping_mul(0xbf58_476d_1ce4_e5b9))
        .wrapping_add((j as u64).wrapping_mul(0x94d0_49bb_1331_11eb));
    h ^= h >> 30;
    h = h.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    h ^= h >> 27;
    (h % 1_000_000) as f64 / 1e6 - 0.5
}

/// A `p × (n + 1)` panel of linear dynamics: a constant mode of amplitude
/// `amps[0]`, then one elliptic rotation per further amplitude (orthonormal
/// spatial patterns, distinct frequencies, minor axis 0.6 of the major, so
/// each contributes two distinct singular values), plus white noise of
/// level `noise`.
fn dynamics(p: usize, n: usize, amps: &[f64], noise: f64, salt: u64) -> Mat {
    let dims = (2 * amps.len() - 1).min(p);
    let basis = svd(&Mat::from_fn(p, dims, |i, j| hash(salt, i, j))).u;
    Mat::from_fn(p, n + 1, |i, j| {
        let mut x = amps[0] * basis[(i, 0)];
        for (k, &a) in amps.iter().enumerate().skip(1) {
            if 2 * k >= dims {
                break;
            }
            let theta = 0.31 + 0.47 * k as f64 + 0.05 * (salt % 7) as f64;
            let ph = theta * j as f64;
            x += a * (ph.cos() * basis[(i, 2 * k - 1)] + 0.6 * ph.sin() * basis[(i, 2 * k)]);
        }
        x + noise * hash(salt ^ 0xabcd, i, j)
    })
}

/// The route a Gram spectrum `s` (the reference's, full length) takes under
/// `rule` keeping `r` values: `true` for the method of snapshots.
fn above_floor(rule: RankSelection, s: &[f64], r: usize) -> bool {
    let floor = 1e-4 * s[0];
    r > 0 && s[r - 1] >= floor && (rule != RankSelection::Svht || s[s.len() / 2] >= floor)
}

fn fallbacks() -> u64 {
    obs::SVD_GRAM_FALLBACKS.value()
}

fn dmd_bits(d: &Dmd) -> Vec<u64> {
    let mut bits = vec![d.rank() as u64];
    for z in d
        .modes
        .as_slice()
        .iter()
        .chain(&d.lambdas)
        .chain(&d.omegas)
        .chain(&d.amplitudes)
    {
        bits.extend([z.re.to_bits(), z.im.to_bits()]);
    }
    bits
}

/// Largest distance from an eigenvalue of `a` to its nearest unused match
/// in `b` (the routes may order conjugate pairs differently).
fn eigenvalue_gap(a: &[c64], b: &[c64]) -> f64 {
    let mut used = vec![false; b.len()];
    let mut worst = 0.0f64;
    for &x in a {
        let (k, d) = b
            .iter()
            .enumerate()
            .filter(|(k, _)| !used[*k])
            .map(|(k, &y)| (k, (x - y).abs()))
            .min_by(|l, r| l.1.total_cmp(&r.1))
            .expect("as many eigenvalues on both routes");
        used[k] = true;
        worst = worst.max(d);
    }
    worst
}

/// Fits `panel` both ways and checks the contract for the route it takes;
/// returns whether that was the method of snapshots.
fn check(what: &str, panel: &Mat, rule: RankSelection) -> bool {
    let cfg = DmdConfig {
        dt: 0.5,
        rank: rule,
        ..DmdConfig::default()
    };
    let n = panel.cols() - 1;
    let s = svd(&panel.cols_range(0, n)).s;
    let want = householder(panel, &cfg).expect("reference fit");
    let before = fallbacks();
    let got = Dmd::try_fit(panel, &cfg).expect("snapshot fit");
    let fell_back = fallbacks() - before;
    assert_eq!(got.rank(), want.rank(), "{what}: rank");
    if !above_floor(rule, &s, want.rank()) {
        assert_eq!(fell_back, 1, "{what}: below the floor must fall back once");
        assert!(
            dmd_bits(&got) == dmd_bits(&want),
            "{what}: fallback not bitwise"
        );
        return false;
    }
    assert_eq!(fell_back, 0, "{what}: above the floor must not fall back");
    let gap = eigenvalue_gap(&got.lambdas, &want.lambdas);
    assert!(gap <= 1e-9, "{what}: eigenvalues differ by {gap:.3e}");
    let rec = want.reconstruct(n + 1);
    let rel = got.reconstruct(n + 1).fro_dist(&rec) / rec.fro_norm();
    assert!(rel <= 1e-9, "{what}: reconstruction differs by {rel:.3e}");
    true
}

/// Amplitudes of a constant mode and `k − 1` rotations, geometric down to a
/// weakest minor axis at `rho` of the constant mode's singular value (a
/// rotation of amplitude `a` spreads `a²/2` per axis over the columns, its
/// minor axis 0.6 of that).
fn spectrum(k: usize, rho: f64) -> Vec<f64> {
    let weakest = rho * 2f64.sqrt() / 0.6;
    (0..k)
        .map(|i| weakest.powf(i as f64 / (k - 1) as f64))
        .collect()
}

/// The `Energy` fraction that cuts `s` after its leading `r` values.
fn energy_cut(s: &[f64], r: usize) -> RankSelection {
    let total: f64 = s.iter().map(|x| x * x).sum();
    let kept: f64 = s[..r].iter().map(|x| x * x).sum();
    RankSelection::Energy((kept - 0.5 * s[r - 1] * s[r - 1]) / total)
}

#[test]
fn tall_panels_agree_with_the_householder_route_or_fall_back_bitwise() {
    let _lock = serialise();
    let mut routes = [0usize; 2];
    let mut near_floor = 0;
    for n in [4usize, 16, 20, 64] {
        for p in [2 * n, 4 * n, 1000] {
            for (c, &rho) in [1e-1, 1e-3, 2e-4, 5e-5, 1e-7].iter().enumerate() {
                let k = (n / 4).clamp(2, 4);
                // Noise far under the weakest mode: SVHT thresholds against
                // it, and the energy cut drops it.
                let panel = dynamics(
                    p,
                    n,
                    &spectrum(k, rho),
                    1e-3 * rho,
                    (n * 131 + p * 7 + c) as u64,
                );
                let s = svd(&panel.cols_range(0, n)).s;
                let signal = 2 * k - 1;
                for rule in [RankSelection::Svht, energy_cut(&s, signal)] {
                    let what = format!("{p}×{} ρ {rho:e} {rule:?}", n + 1);
                    let gram = check(&what, &panel, rule);
                    routes[usize::from(gram)] += 1;
                    near_floor += usize::from(gram && s[signal - 1] < 3e-4 * s[0]);
                }
            }
        }
    }
    // Both routes were exercised, the Gram route just above its floor too.
    assert!(routes[0] > 0 && routes[1] > 0, "routes taken {routes:?}");
    assert!(near_floor > 0, "no Gram fit within 3× of the floor");
}

#[test]
fn energy_cut_inside_a_cluster_agrees() {
    let _lock = serialise();
    for (n, p) in [(16usize, 1000usize), (20, 40), (64, 128)] {
        // The second rotation's major axis within 0.1% of the first's minor
        // axis: σ₃ ≈ σ₄ straddle the cut.
        let amps = [1.0, 0.5, 0.3 * 1.001, 0.05];
        let panel = dynamics(p, n, &amps, 1e-6, n as u64);
        let s = svd(&panel.cols_range(0, n)).s;
        assert!(check(
            &format!("cluster {p}×{}", n + 1),
            &panel,
            energy_cut(&s, 3)
        ));
    }
}

#[test]
fn degenerate_panels_match_the_householder_route() {
    let _lock = serialise();
    let rules = [RankSelection::Svht, RankSelection::Energy(0.99)];
    for rule in rules {
        let cfg = DmdConfig {
            dt: 1.0,
            rank: rule,
            ..DmdConfig::default()
        };
        // Rank one, and every row constant in time: one kept value, the
        // median zero.
        let u: Vec<f64> = (0..200).map(|i| 1.0 + hash(1, i, 0)).collect();
        let rank_one = Mat::from_fn(200, 17, |i, j| u[i] * (0.9f64).powi(j as i32));
        let constant = Mat::from_fn(200, 17, |i, _| u[i]);
        for (what, panel) in [("rank one", &rank_one), ("constant rows", &constant)] {
            check(&format!("{what} {rule:?}"), panel, rule);
        }
        // Zero and NaN panels: the same `Result` as before, through the
        // fallback.
        let mut nan = dynamics(200, 16, &[1.0, 0.5], 1e-3, 9);
        nan[(17, 5)] = f64::NAN;
        for (what, panel) in [("zero", Mat::zeros(200, 17)), ("nan", nan)] {
            let before = fallbacks();
            let got = Dmd::try_fit(&panel, &cfg);
            assert_eq!(fallbacks() - before, 1, "{what}: one fallback");
            let want = householder(&panel, &cfg);
            match (got, want) {
                (Ok(g), Ok(w)) => assert!(dmd_bits(&g) == dmd_bits(&w), "{what}: bits"),
                (Err(g), Err(w)) => assert_eq!(g.to_string(), w.to_string(), "{what}: error"),
                (g, w) => panic!("{what}: {g:?} against {w:?}"),
            }
        }
    }
}

/// A tree's reconstruction over `t` columns of `p` rows.
fn tree_reconstruction<'a>(
    nodes: impl IntoIterator<Item = &'a ModeSet>,
    p: usize,
    t: usize,
    dt: f64,
) -> Mat {
    let mut out = Mat::zeros(p, t);
    for node in nodes {
        subtract(node, &mut out, 0, dt);
    }
    out
}

#[test]
fn a_whole_tree_agrees_with_the_householder_recursion() {
    let _lock = serialise();
    let (p, t) = (120, 960);
    let data = Mat::from_fn(p, t, |i, j| {
        let (x, tt) = (i as f64 / p as f64, j as f64 * 0.5);
        (0.013 * tt + 2.0 * x).sin()
            + 0.6 * (0.05 * tt - 3.0 * x).cos()
            + 0.3 * (0.4 * tt + 5.0 * x).sin()
            + 0.04 * (2.9 * tt + 11.0 * x).sin()
            + 1e-3 * hash(3, i, j)
    });
    for rank in [RankSelection::Svht, RankSelection::Energy(0.999)] {
        let cfg = MrDmdConfig {
            dt: 0.5,
            max_levels: 5,
            max_cycles: 2,
            rank,
            nyquist_factor: 2,
            min_window: 16,
            ..MrDmdConfig::default()
        };
        let before = obs::SVD_CALLS.value();
        let fallbacks_before = fallbacks();
        let got = MrDmd::fit(&data, &cfg);
        let gram_fits = (obs::SVD_CALLS.value() - before) - (fallbacks() - fallbacks_before);
        let mut want = Reference::new(householder);
        want.fit_tree(&mut data.clone(), 0, t, 0, 0, &cfg, 1);
        assert!(
            gram_fits > 0,
            "{rank:?}: no node took the method of snapshots"
        );
        assert!(want.faults.is_empty() && got.faults.is_empty());
        assert!(
            got.nodes.iter().map(|n| n.level).max() >= Some(4),
            "{rank:?}: tree too shallow"
        );
        let shape = |n: &ModeSet| (n.level, n.start, n.window, n.step, n.n_modes());
        assert_eq!(
            got.nodes.iter().map(shape).collect::<Vec<_>>(),
            want.nodes.iter().map(shape).collect::<Vec<_>>(),
            "{rank:?}: tree structure"
        );
        let rec_want = tree_reconstruction(&want.nodes, p, t, cfg.dt);
        let rec_got = tree_reconstruction(&got.nodes, p, t, cfg.dt);
        let rel = rec_got.fro_dist(&rec_want) / rec_want.fro_norm();
        assert!(
            rel <= 1e-9,
            "{rank:?}: tree reconstruction differs by {rel:.3e}"
        );
    }
}
