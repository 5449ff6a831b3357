//! Bitwise parity of the tree fit against the in-place recursion it
//! replaced.
//!
//! The tree fit gathers each node's decimated columns from the raw source
//! and subtracts its ancestors' reconstructions on those columns only. The
//! reference below is the earlier formulation: copy the window into a
//! residual buffer, subtract the root, then recurse, each fitted node
//! subtracting its reconstruction from its whole window in place at full
//! resolution before its halves are fitted. Its per-node exact DMD is
//! `Dmd::try_fit` itself, so this suite pins the recursion (traversal,
//! ancestor order, fault order) bit for bit; `tests/snapshot_dmd.rs` checks
//! the per-node numerics against the full-`U` Householder reference.
//! Every element sees the same subtractions in the same order either way,
//! so every node and every fault must match bit for bit, in the same
//! depth-first order, through all five entry points: `MrDmd::fit`,
//! `IMrDmd::fit`, the `partial_fit` flush (with and without a pending
//! carry), `try_refresh_subtrees` and `add_series`.
//!
//! Faults are forced with the process-wide eigensolver fail point, so every
//! test in this binary serialises on one lock.

mod in_place_tree;

use in_place_tree::Reference;
use mrdmd_suite::core::dmd::SKETCH_DEFAULT_PROBE;
use mrdmd_suite::linalg::{failpoint, svd_sketched};
use mrdmd_suite::prelude::*;
use proptest::prelude::*;
use std::sync::{Mutex, MutexGuard};

static FAILPOINTS: Mutex<()> = Mutex::new(());

/// Holds the fail-point lock, with every fail point disarmed (a test that
/// failed while holding it may have left one armed; the lock guards no data).
fn serialise() -> MutexGuard<'static, ()> {
    let guard = FAILPOINTS.lock().unwrap_or_else(|e| e.into_inner());
    failpoint::disarm_all();
    guard
}

/// The per-node DMD: `Dmd::try_fit` for exact fits, and the sketched SVD
/// spelled out for sketched ones.
fn dmd(sub: &Mat, cfg: &DmdConfig) -> Result<Dmd, CoreError> {
    let FitStrategy::Sketched {
        rank_oversample,
        power_iters,
        seed,
    } = cfg.strategy
    else {
        return Dmd::try_fit(sub, cfg);
    };
    let t = sub.cols();
    let x = sub.cols_range(0, t - 1);
    let y = sub.cols_range(1, t);
    let probe = match cfg.rank {
        RankSelection::Fixed(r) => r,
        _ => SKETCH_DEFAULT_PROBE.min(x.rows().min(x.cols())),
    };
    let svd_x = svd_sketched(&x, probe.max(1), rank_oversample, power_iters, seed);
    Dmd::try_from_svd(&svd_x, &y, sub, cfg)
}

fn reference() -> Reference {
    Reference::new(dmd)
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn c64_bits(out: &mut Vec<u64>, zs: &[c64]) {
    out.push(zs.len() as u64);
    for z in zs {
        out.push(z.re.to_bits());
        out.push(z.im.to_bits());
    }
}

/// A tree's structure and numerics as bits, as `tests/determinism.rs` does.
fn tree_bits<'a>(nodes: impl IntoIterator<Item = &'a ModeSet>) -> Vec<u64> {
    let mut bits = Vec::new();
    for n in nodes {
        bits.extend([
            n.level as u64,
            n.start as u64,
            n.window as u64,
            n.step as u64,
            n.row_offset as u64,
            n.modes.rows() as u64,
            n.modes.cols() as u64,
        ]);
        c64_bits(&mut bits, n.modes.as_slice());
        c64_bits(&mut bits, &n.lambdas);
        c64_bits(&mut bits, &n.omegas);
        c64_bits(&mut bits, &n.amplitudes);
    }
    bits
}

fn assert_same(what: &str, nodes: &[ModeSet], faults: &[FitFault], want: &Reference) {
    assert_eq!(nodes.len(), want.nodes.len(), "{what}: node count");
    assert!(
        tree_bits(nodes) == tree_bits(&want.nodes),
        "{what}: node bits differ"
    );
    assert_eq!(faults, &want.faults[..], "{what}: faults");
}

// ---------------------------------------------------------------------------
// Scenarios
// ---------------------------------------------------------------------------

/// Two slow travelling waves, a mid-speed one and a ripple, so trees keep
/// modes at several levels.
fn signal(p: usize, t0: usize, cols: usize, seed: u64) -> Mat {
    let s = seed as f64;
    Mat::from_fn(p, cols, |i, j| {
        let t = (t0 + j) as f64 * 0.5;
        let x = i as f64 / p.max(1) as f64;
        (0.013 * t + 2.0 * x + s).sin()
            + 0.6 * (0.05 * t - 3.0 * x).cos()
            + 0.3 * (0.4 * t + 5.0 * x + 0.1 * s).sin()
            + 0.04 * (2.9 * t + 11.0 * x).sin()
    })
}

fn rank_rule(k: u8) -> RankSelection {
    match k % 3 {
        0 => RankSelection::Fixed(4),
        1 => RankSelection::Svht,
        _ => RankSelection::Energy(0.995),
    }
}

fn strategy(sketched: bool, seed: u64) -> FitStrategy {
    if sketched {
        FitStrategy::Sketched {
            rank_oversample: 3,
            power_iters: 1,
            seed,
        }
    } else {
        FitStrategy::Exact
    }
}

fn mr(rank: RankSelection, sketched: bool, n_threads: usize, min_window: usize) -> MrDmdConfig {
    MrDmdConfig {
        dt: 0.5,
        max_levels: 5,
        max_cycles: 2,
        rank,
        nyquist_factor: 2,
        min_window,
        n_threads,
        strategy: strategy(sketched, 11),
        ..MrDmdConfig::default()
    }
}

fn streaming(mr: MrDmdConfig, keep_history: bool) -> IMrDmdConfig {
    IMrDmdConfig {
        mr,
        isvd_max_rank: 12,
        drift_threshold: None,
        keep_history,
        auto_refresh: false,
    }
}

/// Streams `lens` batches, checking every flushed subtree against the
/// reference fitted from the round's root over the flushed window.
fn check_stream(
    what: &str,
    cfg: &IMrDmdConfig,
    p: usize,
    fit_cols: usize,
    lens: &[usize],
    seed: u64,
) {
    let first = signal(p, 0, fit_cols, seed);
    let mut tree = IMrDmd::fit(&first, cfg);
    let root = tree.root().clone();
    let want = reference()
        .below(&root, &first, 0, 0, &cfg.mr)
        .at_step(fit_cols);
    let subnodes: Vec<ModeSet> = tree.nodes().skip(1).cloned().collect();
    assert_same(
        &format!("{what}: IMrDmd::fit"),
        &subnodes,
        tree.fit_faults(),
        &want,
    );
    let mut stream = first;
    for (k, &len) in lens.iter().enumerate() {
        let batch = signal(p, stream.cols(), len, seed + 1 + k as u64);
        stream = stream.hstack(&batch);
        let carried = tree.pending_len();
        let (nodes_before, faults_before) = (tree.nodes().count(), tree.fit_faults().len());
        tree.partial_fit(&batch);
        if tree.pending_len() > 0 {
            assert_eq!(
                tree.nodes().count(),
                nodes_before,
                "{what}: round {k} deferred"
            );
            continue;
        }
        let w = carried + len;
        let t = stream.cols();
        let window = stream.cols_range(t - w, t);
        let want = reference()
            .window(tree.root(), &window, t - w, &cfg.mr)
            .at_step(t);
        let fresh: Vec<ModeSet> = tree.nodes().skip(nodes_before).cloned().collect();
        assert_same(
            &format!("{what}: round {k} (window {w}, carried {carried})"),
            &fresh,
            &tree.fit_faults()[faults_before..],
            &want,
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 6, ..ProptestConfig::default() })]

    /// The batch fit, over odd and even widths under every rank rule and
    /// both strategies, serial and forked.
    #[test]
    fn batch_fit_matches_the_in_place_reference(
        p in 3usize..12,
        t in 200usize..420,
        rank in 0u8..3,
        sketched in 0u8..2,
        threads in 1usize..3,
        seed in 0u64..1000,
    ) {
        let _lock = serialise();
        let cfg = mr(rank_rule(rank), sketched == 1, threads, 16);
        let data = signal(p, 0, t, seed);
        let m = MrDmd::fit(&data, &cfg);
        let mut want = reference();
        want.fit_tree(&mut data.clone(), 0, t, 0, 0, &cfg, 1);
        assert_same("MrDmd::fit", &m.nodes, &m.faults, &want);
    }

    /// The initial fit and every partial-fit flush, with batches on both
    /// sides of `min_window` (so some rounds carry a pending window into the
    /// next) and windows whose halves straddle it.
    #[test]
    fn streaming_flushes_match_the_in_place_reference(
        p in 3usize..10,
        fit_cols in 96usize..160,
        lens in proptest::collection::vec(5usize..70, 3..6),
        rank in 0u8..3,
        sketched in 0u8..2,
        threads in 1usize..3,
        seed in 0u64..1000,
    ) {
        let _lock = serialise();
        let cfg = streaming(mr(rank_rule(rank), sketched == 1, threads, 16), false);
        check_stream("stream", &cfg, p, fit_cols, &lens, seed);
    }

    /// `try_refresh_subtrees` and `add_series` (a dedicated subtree at
    /// `row_offset > 0`, over the fitted timeline only).
    #[test]
    fn refresh_and_added_series_match_the_in_place_reference(
        p in 3usize..9,
        extra in 1usize..4,
        fit_cols in 120usize..200,
        len in 5usize..40,
        rank in 0u8..3,
        sketched in 0u8..2,
        threads in 1usize..3,
        seed in 0u64..1000,
    ) {
        let _lock = serialise();
        let mr_cfg = mr(rank_rule(rank), sketched == 1, threads, 16);
        let cfg = streaming(mr_cfg, true);
        let first = signal(p, 0, fit_cols, seed);
        let mut tree = IMrDmd::fit(&first, &cfg);
        tree.partial_fit(&signal(p, fit_cols, len, seed + 1));
        let t = tree.n_steps();

        tree.try_refresh_subtrees().expect("history is kept");
        let history = tree.history().expect("history kept").clone();
        let want = reference().below(tree.root(), &history, 0, 0, &mr_cfg).at_step(t);
        let subnodes: Vec<ModeSet> = tree.nodes().skip(1).cloned().collect();
        assert_same("try_refresh_subtrees", &subnodes, tree.fit_faults(), &want);

        // A sub-window batch leaves a pending tail the added series'
        // subtree must stop short of.
        tree.partial_fit(&signal(p, t, 7, seed + 2));
        let t = tree.n_steps();
        let t_cov = t - tree.pending_len();
        let new_rows = Mat::from_fn(extra, t, |i, j| {
            signal(1, j, 1, seed + 10 + i as u64)[(0, 0)] * (1.0 + i as f64)
        });
        let (nodes_before, faults_before) = (tree.nodes().count(), tree.fit_faults().len());
        tree.add_series(&new_rows);
        let root = tree.root();
        let root_rows = ModeSet {
            modes: root.modes.rows_range(p, p + extra),
            row_offset: 0,
            ..root.clone()
        };
        let want =
            reference().below(&root_rows, &new_rows.cols_range(0, t_cov), 0, p, &mr_cfg).at_step(t);
        let fresh: Vec<ModeSet> = tree.nodes().skip(nodes_before).cloned().collect();
        assert_same("add_series", &fresh, &tree.fit_faults()[faults_before..], &want);
    }
}

/// Forced node failures: faults land in the same order with the same
/// fields, and a failed node's halves see the same residual (nothing
/// subtracted for it). Counted failures are consumed in traversal order, so
/// they run serially; failing every solve is order-free and also runs
/// forked.
#[test]
fn forced_faults_match_the_in_place_reference() {
    let _lock = serialise();
    let data = signal(6, 0, 300, 3);
    for (fails, threads) in [(1, 1), (2, 1), (5, 1), (usize::MAX, 1), (usize::MAX, 2)] {
        for rank in [RankSelection::Fixed(4), RankSelection::Svht] {
            let cfg = mr(rank, false, threads, 16);
            failpoint::arm_eig_nonconvergence(fails);
            let m = MrDmd::fit(&data, &cfg);
            failpoint::arm_eig_nonconvergence(fails);
            let mut want = reference();
            want.fit_tree(&mut data.clone(), 0, data.cols(), 0, 0, &cfg, 1);
            failpoint::disarm_all();
            assert!(!want.faults.is_empty(), "{fails} failures forced no fault");
            assert_same(
                &format!("MrDmd::fit, {fails} failures"),
                &m.nodes,
                &m.faults,
                &want,
            );

            // The streaming flush: the round's root solve takes the first
            // failure, the subtree the rest.
            let scfg = streaming(cfg, false);
            let mut tree = IMrDmd::fit(&data.cols_range(0, 200), &scfg);
            let (nodes_before, faults_before) = (tree.nodes().count(), tree.fit_faults().len());
            failpoint::arm_eig_nonconvergence(fails.saturating_add(1));
            tree.partial_fit(&data.cols_range(200, 300));
            failpoint::arm_eig_nonconvergence(fails);
            let want = reference()
                .window(tree.root(), &data.cols_range(200, 300), 200, &cfg)
                .at_step(300);
            failpoint::disarm_all();
            let fresh: Vec<ModeSet> = tree.nodes().skip(nodes_before).cloned().collect();
            assert_same(
                &format!("partial_fit, {fails} failures"),
                &fresh,
                &tree.fit_faults()[faults_before..],
                &want,
            );
        }
    }
}

/// Shapes past the fork cutoff (`rows × half-width ≥ 32,768`), so the right
/// halves really run on a second worker over the shared source.
#[test]
fn forked_fits_match_the_in_place_reference() {
    let _lock = serialise();
    let (p, t) = (80, 840);
    for rank in 0..3 {
        for sketched in [false, true] {
            let cfg = mr(rank_rule(rank), sketched, 2, 16);
            let data = signal(p, 0, t, 5);
            let m = MrDmd::fit(&data, &cfg);
            let mut want = reference();
            want.fit_tree(&mut data.clone(), 0, t, 0, 0, &cfg, 1);
            assert_same("forked MrDmd::fit", &m.nodes, &m.faults, &want);
            check_stream("forked stream", &streaming(cfg, false), p, t, &[t], 5);
        }
    }
}
