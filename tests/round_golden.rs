//! Bitwise parity of the streaming round (Algorithm 1) against recorded
//! digests.
//!
//! Each scenario streams a small tree through one configuration of the
//! round — exact fits under a fixed rank and under SVHT, the sketched
//! strategy, guarded batches with gaps, inline auto-refresh, series added
//! mid-stream, one-column sub-step rounds, empty batches, a rank-collapsing
//! all-zero batch, a fleet through `Engine::run_fleet`, and tall panels that
//! take the QR-preconditioned SVD with wide SVHT ranks — and folds the
//! `serde_json` form of the tree state plus the round's report after every
//! round into one FNV-1a 64-bit digest. `tests/fixtures/round_state_digests.txt`
//! holds one `scenario digest` line per scenario, so any change to the
//! round's arithmetic, its order, or the serialized state shows up as a
//! changed digest.
//!
//! On a mismatch the test prints the freshly computed fixture; a change
//! that alters the round's numerics on purpose regenerates the file from
//! that output.

use mrdmd_suite::prelude::*;
use serde::Serialize;

const FIXTURE: &str = "tests/fixtures/round_state_digests.txt";

/// FNV-1a, 64-bit: a stable, dependency-free digest of the serialized bytes.
struct Fnv(u64);

impl Fnv {
    fn new() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, b: &[u8]) {
        for &x in b {
            self.0 ^= u64::from(x);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn json<T: Serialize>(&mut self, v: &T) {
        let s = serde_json::to_string(v).expect("state serializes");
        self.bytes(s.as_bytes());
        self.bytes(b"\n");
    }

    /// State after a round, plus that round's report.
    fn round<R: Serialize>(&mut self, tree: &IMrDmd, report: &R) {
        self.json(tree);
        self.json(report);
    }

    /// State after an unguarded `partial_fit` round, plus the seven report
    /// fields that path's digests were recorded with (its report then held
    /// only the decomposition summary).
    fn plain_round(&mut self, tree: &IMrDmd, r: &RoundReport) {
        #[derive(Serialize)]
        struct FitSummary {
            batch_len: usize,
            new_root_cols: usize,
            drift: f64,
            stale: bool,
            new_subtree_modes: usize,
            pending: usize,
            new_faults: usize,
        }
        let summary = FitSummary {
            batch_len: r.batch_len,
            new_root_cols: r.new_root_cols,
            drift: r.drift,
            stale: r.stale,
            new_subtree_modes: r.new_subtree_modes,
            pending: r.pending,
            new_faults: r.new_faults,
        };
        self.round(tree, &summary);
    }
}

fn signal(p: usize, t0: usize, cols: usize, seed: usize) -> Mat {
    Mat::from_fn(p, cols, |i, j| {
        let t = (t0 + j) as f64 * 0.5;
        let x = i as f64 / p as f64;
        (0.03 * t + 2.0 * x + seed as f64).sin()
            + 0.4 * (0.7 * t + 4.0 * x).cos()
            + 0.05 * (3.1 * t + 9.0 * x + 0.3 * seed as f64).sin()
    })
}

fn cfg(rank: RankSelection, levels: usize, min_window: usize) -> IMrDmdConfig {
    IMrDmdConfig {
        mr: MrDmdConfig {
            dt: 0.5,
            max_levels: levels,
            max_cycles: 2,
            rank,
            nyquist_factor: 2,
            min_window,
            n_threads: 0,
            ..MrDmdConfig::default()
        },
        isvd_max_rank: 12,
        drift_threshold: Some(1e3),
        keep_history: false,
        auto_refresh: false,
    }
}

/// Streams `lens` batches through `partial_fit`, digesting every round.
fn plain(cfg: &IMrDmdConfig, p: usize, fit_cols: usize, lens: &[usize]) -> u64 {
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p, 0, fit_cols, 0), cfg);
    h.json(&tree);
    let mut t = fit_cols;
    for (k, &len) in lens.iter().enumerate() {
        let report = tree.partial_fit(&signal(p, t, len, k + 1));
        h.plain_round(&tree, &report);
        t += len;
    }
    h.0
}

fn exact_fixed() -> u64 {
    plain(
        &cfg(RankSelection::Fixed(4), 3, 16),
        8,
        120,
        &[17, 40, 5, 33, 64],
    )
}

fn exact_svht() -> u64 {
    plain(&cfg(RankSelection::Svht, 3, 16), 10, 128, &[24, 48, 9, 40])
}

fn sketched() -> u64 {
    let mut c = cfg(RankSelection::Fixed(5), 3, 16);
    c.mr.strategy = FitStrategy::Sketched {
        rank_oversample: 4,
        power_iters: 1,
        seed: 17,
    };
    plain(&c, 12, 120, &[30, 12, 45, 30])
}

fn guarded_holdlast() -> u64 {
    let c = cfg(RankSelection::Fixed(4), 3, 12);
    let p = 8;
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p, 0, 96, 0), &c);
    let mut guard = IngestGuard::new(GapPolicy::HoldLast, p);
    let mut t = 96;
    for k in 0..5 {
        let len = 14 + 3 * k;
        let mut batch = signal(p, t, len, k + 1);
        batch.row_mut(k % p)[1] = f64::NAN;
        batch.row_mut((k + 3) % p)[len - 1] = f64::INFINITY;
        if k == 2 {
            // A whole sensor dark for the batch.
            batch.row_mut(5).iter_mut().for_each(|v| *v = f64::NAN);
        }
        let report = tree.try_partial_fit(&batch, &mut guard).expect("repaired");
        assert!(!report.repairs.is_clean(), "gaps must be repaired");
        h.round(&tree, &report);
        h.json(&guard);
        t += len;
    }
    h.0
}

fn auto_refresh() -> u64 {
    let mut c = cfg(RankSelection::Fixed(4), 3, 16);
    c.drift_threshold = Some(1e-9);
    c.keep_history = true;
    c.auto_refresh = true;
    let lens = [32, 20, 40];
    let digest = plain(&c, 6, 96, &lens);
    // The threshold trips on every root-advancing round, and the inline
    // refresh clears the flag again.
    let mut tree = IMrDmd::fit(&signal(6, 0, 96, 0), &c);
    let report = tree.partial_fit(&signal(6, 96, lens[0], 1));
    assert!(report.drift > 1e-9 && !report.stale, "{report:?}");
    digest
}

fn add_series_mid_stream() -> u64 {
    let c = cfg(RankSelection::Fixed(4), 3, 16);
    let (p_old, p_new) = (6, 9);
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p_old, 0, 96, 0), &c);
    let mut t = 96;
    // Two rounds, the second leaving a pending tail below min_window.
    for (k, len) in [24usize, 10].into_iter().enumerate() {
        let report = tree.partial_fit(&signal(p_old, t, len, k + 1));
        h.plain_round(&tree, &report);
        t += len;
    }
    tree.add_series(&signal(p_new, 0, t, 7).rows_range(p_old, p_new));
    h.json(&tree);
    for (k, len) in [20usize, 33].into_iter().enumerate() {
        let report = tree.partial_fit(&signal(p_new, t, len, k + 5));
        h.plain_round(&tree, &report);
        t += len;
    }
    h.0
}

fn sub_step_rounds() -> u64 {
    // Root step 64 / (2·2·2) = 8: most one-column rounds add no decimated
    // column and only extend the root window.
    let c = cfg(RankSelection::Fixed(3), 2, 8);
    let p = 6;
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p, 0, 64, 0), &c);
    let mut guard = IngestGuard::new(GapPolicy::Interpolate, p);
    let mut window_only = 0;
    for k in 0..20 {
        let report = tree
            .try_partial_fit(&signal(p, 64 + k, 1, k), &mut guard)
            .expect("clean batch");
        window_only += usize::from(report.new_root_cols == 0);
        h.round(&tree, &report);
    }
    assert!(window_only > 10, "only {window_only} sub-step rounds");
    h.0
}

fn empty_batches() -> u64 {
    let c = cfg(RankSelection::Fixed(4), 3, 16);
    let p = 6;
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p, 0, 80, 0), &c);
    let mut guard = IngestGuard::new(GapPolicy::HoldLast, p);
    let mut t = 80;
    for (k, len) in [0usize, 12, 0, 7, 0].into_iter().enumerate() {
        let batch = signal(p, t, len, k + 1);
        if k % 2 == 0 {
            let report = tree.partial_fit(&batch);
            h.plain_round(&tree, &report);
        } else {
            let report = tree.try_partial_fit(&batch, &mut guard).expect("clean");
            h.round(&tree, &report);
        }
        t += len;
    }
    h.0
}

fn rank_collapse() -> u64 {
    let c = cfg(RankSelection::Fixed(4), 3, 16);
    let p = 8;
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&signal(p, 0, 96, 0), &c);
    let report = tree.partial_fit(&Mat::zeros(p, 40));
    h.plain_round(&tree, &report);
    let report = tree.partial_fit(&Mat::from_fn(p, 24, |i, _| i as f64 * 0.25));
    h.plain_round(&tree, &report);
    let report = tree.partial_fit(&signal(p, 160, 32, 3));
    h.plain_round(&tree, &report);
    h.0
}

fn fleet() -> u64 {
    // Heterogeneous trees, one empty batch and one row mismatch per round:
    // the fleet entry point must report exactly what per-tree rounds do.
    let shapes = [(8usize, 3usize, 8usize), (6, 2, 8), (10, 3, 12)];
    let mut h = Fnv::new();
    let mut trees: Vec<IMrDmd> = shapes
        .iter()
        .enumerate()
        .map(|(s, &(p, levels, win))| {
            IMrDmd::fit(
                &signal(p, 0, 64, s),
                &cfg(RankSelection::Fixed(3), levels, win),
            )
        })
        .collect();
    let mut guards: Vec<IngestGuard> = shapes
        .iter()
        .map(|&(p, _, _)| IngestGuard::new(GapPolicy::Interpolate, p))
        .collect();
    let mut engine = Engine::with_threads(2);
    for round in 0..4 {
        let batches: Vec<Mat> = shapes
            .iter()
            .enumerate()
            .map(|(s, &(p, _, _))| {
                let len = if s == 1 && round == 2 {
                    0
                } else {
                    5 + s + 3 * round
                };
                let rows = if s == 2 && round == 1 { p + 1 } else { p };
                signal(rows, 64 + 20 * round, len, s + round)
            })
            .collect();
        let mut jobs: Vec<FleetJob<'_>> = trees
            .iter_mut()
            .zip(guards.iter_mut())
            .zip(&batches)
            .enumerate()
            .map(|(s, ((tree, guard), batch))| FleetJob {
                tree,
                batch,
                guard: (s != 0).then_some(guard),
            })
            .collect();
        let results = engine.run_fleet(&mut jobs);
        drop(jobs);
        assert_eq!(results[2].is_err(), round == 1);
        for (tree, res) in trees.iter().zip(&results) {
            match res {
                Ok(report) => h.round(tree, report),
                Err(e) => {
                    h.json(tree);
                    h.bytes(e.to_string().as_bytes());
                }
            }
        }
    }
    h.0
}

/// Four traveling waves plus a deterministic hash jitter: every window
/// keeps at least six strong singular values above a small noise floor.
fn tall_signal(p: usize, t0: usize, cols: usize, seed: usize) -> Mat {
    Mat::from_fn(p, cols, |i, j| {
        let t = (t0 + j) as f64;
        let x = i as f64 / p as f64;
        let mut v = 0.0;
        for (m, &(cycles_per_480, amp)) in [(1.3, 1.0), (2.6, 0.7), (9.0, 0.5), (23.0, 0.4)]
            .iter()
            .enumerate()
        {
            let w = std::f64::consts::TAU * cycles_per_480 / 480.0;
            v += amp * (w * t - (m + 1) as f64 * 3.0 * x + seed as f64 * 0.1).sin();
        }
        let h = ((i * 7919 + (t0 + j) * 104_729) % 1000) as f64 / 1000.0 - 0.5;
        v + 1e-3 * h
    })
}

fn tall_panels() -> u64 {
    // 64 rows against at most 15 decimated columns per node: every node
    // panel is tall, so its fit takes the method of snapshots, or the
    // Householder route (reflectors applied to the kept columns of `U`)
    // where the spectrum falls below the Gram floor.
    let mut c = cfg(RankSelection::Svht, 5, 15);
    c.mr.max_cycles = 3;
    let p = 64;
    let mut h = Fnv::new();
    let mut tree = IMrDmd::fit(&tall_signal(p, 0, 480, 0), &c);
    h.json(&tree);
    let mut t = 480;
    for k in 0..3 {
        let report = tree.partial_fit(&tall_signal(p, t, 240, k + 1));
        h.plain_round(&tree, &report);
        t += 240;
    }
    // Three ancestor levels above the deepest nodes, and ranks wide enough
    // that the complex products run full and ragged register tiles.
    assert!(tree.nodes().any(|n| n.level >= 4), "tree too shallow");
    assert!(tree.nodes().any(|n| n.n_modes() > 4), "ranks too narrow");
    h.0
}

/// A named scenario and the digest of its stream.
type Case = (&'static str, fn() -> u64);

fn digests() -> String {
    let scenarios: [Case; 11] = [
        ("exact_fixed", exact_fixed),
        ("exact_svht", exact_svht),
        ("sketched", sketched),
        ("guarded_holdlast", guarded_holdlast),
        ("auto_refresh", auto_refresh),
        ("add_series_mid_stream", add_series_mid_stream),
        ("sub_step_rounds", sub_step_rounds),
        ("empty_batches", empty_batches),
        ("rank_collapse", rank_collapse),
        ("fleet", fleet),
        ("tall_panels", tall_panels),
    ];
    scenarios
        .iter()
        .map(|(name, f)| format!("{name} {:016x}\n", f()))
        .collect()
}

#[test]
fn round_state_matches_recorded_digests() {
    let got = digests();
    let path = format!("{}/{FIXTURE}", env!("CARGO_MANIFEST_DIR"));
    let want: String = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("cannot read {path}: {e}"))
        .lines()
        .filter(|l| !l.starts_with('#') && !l.trim().is_empty())
        .map(|l| format!("{l}\n"))
        .collect();
    assert!(
        got == want,
        "round digests diverged from {FIXTURE}\n--- recorded ---\n{want}--- computed ---\n{got}"
    );
}
