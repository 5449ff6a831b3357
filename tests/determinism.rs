//! Bitwise determinism of the parallel tree fit (ISSUE PR 1, satellite 2).
//!
//! The worker pool promises that the `n_threads` knob changes *wall-clock
//! time only*: every tree, spectrum, and reconstruction must be
//! bit-for-bit identical at any thread count. These proptests pin that
//! contract for n_threads ∈ {2, 4, 8} against the n_threads = 1 serial
//! reference, with problem sizes chosen so `rows × half_window` crosses
//! the `PAR_TREE_MIN_ELEMS` fork cutoff (32,768 elements) and the pool
//! really forks.

use mrdmd_suite::prelude::*;
use proptest::prelude::*;

/// Thread counts compared against the serial (n_threads = 1) reference.
const THREAD_COUNTS: [usize; 3] = [2, 4, 8];

/// Flattens a real matrix to its exact bit pattern.
fn mat_bits(m: &Mat) -> Vec<u64> {
    let mut bits = vec![m.rows() as u64, m.cols() as u64];
    bits.extend(m.as_slice().iter().map(|v| v.to_bits()));
    bits
}

/// Flattens a complex slice to its exact bit pattern.
fn c64_bits(out: &mut Vec<u64>, zs: &[c64]) {
    out.push(zs.len() as u64);
    for z in zs {
        out.push(z.re.to_bits());
        out.push(z.im.to_bits());
    }
}

/// Flattens a whole tree — structure and numerics — to its bit pattern.
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

/// Flattens a spectrum to its bit pattern.
fn spectrum_bits(pts: &[SpectrumPoint]) -> Vec<u64> {
    let mut bits = Vec::new();
    for p in pts {
        bits.extend([
            p.frequency_hz.to_bits(),
            p.power.to_bits(),
            p.growth.to_bits(),
            p.level as u64,
            p.window_start as u64,
            p.window_len as u64,
        ]);
    }
    bits
}

/// A scenario big enough that the level-1 split (`rows × total/2`) clears
/// the fork cutoff.
fn forking_scenario(n_nodes: usize, total: usize, seed: u64) -> Scenario {
    let mut machine = theta().scaled(n_nodes);
    machine.series_per_node = 1;
    Scenario::sc_log(machine, total, seed)
}

fn mr_config(scenario: &Scenario, levels: usize, n_threads: usize) -> MrDmdConfig {
    MrDmdConfig {
        dt: scenario.dt(),
        max_levels: levels,
        max_cycles: 2,
        rank: RankSelection::Svht,
        n_threads,
        ..MrDmdConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 3, ..ProptestConfig::default() })]

    /// Batch `MrDmd::fit` produces the same tree, spectrum, and
    /// reconstructions bit-for-bit at every thread count.
    #[test]
    fn batch_fit_is_bitwise_identical_across_thread_counts(
        n_nodes in 44usize..52,
        total in 1500usize..1700,
        seed in 0u64..1000,
    ) {
        let scenario = forking_scenario(n_nodes, total, seed);
        let data = scenario.generate(0, total);
        let serial = MrDmd::fit(&data, &mr_config(&scenario, 4, 1));
        let ref_tree = tree_bits(serial.nodes.iter());
        let ref_rec = mat_bits(&serial.reconstruct());
        let ref_slice = mat_bits(&serial.reconstruct_range(total / 3, 2 * total / 3));
        let ref_spec = spectrum_bits(&mode_spectrum(serial.nodes.iter()));
        for k in THREAD_COUNTS {
            let par = MrDmd::fit(&data, &mr_config(&scenario, 4, k));
            prop_assert_eq!(serial.nodes.len(), par.nodes.len());
            prop_assert!(
                tree_bits(par.nodes.iter()) == ref_tree,
                "tree bits differ at n_threads={}", k
            );
            prop_assert!(
                mat_bits(&par.reconstruct()) == ref_rec,
                "reconstruction bits differ at n_threads={}", k
            );
            prop_assert!(
                mat_bits(&par.reconstruct_range(total / 3, 2 * total / 3)) == ref_slice,
                "range-reconstruction bits differ at n_threads={}", k
            );
            prop_assert!(
                spectrum_bits(&mode_spectrum(par.nodes.iter())) == ref_spec,
                "spectrum bits differ at n_threads={}", k
            );
        }
    }

    /// The incremental paths — initial fit, partial fits, and the stale
    /// subtree refresh — are bitwise-identical at every thread count, and
    /// so is every round's report. The rounds' flushed windows clear the
    /// fork cutoff (`rows × window ≥ 32,768`, at least 44 × 760), so the
    /// node-panel gather overlaps the root chain and the level-2 node fit
    /// overlaps the drift scan: once on a batch that fills a window alone,
    /// and once on a pending carry (a sub-`min_window` batch followed by
    /// one that completes the window).
    #[test]
    fn incremental_paths_are_bitwise_identical_across_thread_counts(
        n_nodes in 44usize..52,
        seed in 0u64..1000,
    ) {
        let t0 = 1100;
        // Batch alone, then a pending carry of 10 steps flushed with 750.
        let batches = [760usize, 10, 750];
        let total = t0 + batches.iter().sum::<usize>();
        let scenario = forking_scenario(n_nodes, total, seed);
        let initial = scenario.generate(0, t0);
        let run = |n_threads: usize| {
            let cfg = IMrDmdConfig {
                mr: mr_config(&scenario, 4, n_threads),
                keep_history: true,
                ..IMrDmdConfig::default()
            };
            let mut model = IMrDmd::fit(&initial, &cfg);
            let after_fit = tree_bits(model.nodes());
            let mut reports = Vec::new();
            let mut at = t0;
            for len in batches {
                let report = model.partial_fit(&scenario.generate(at, at + len));
                reports.push(serde_json::to_string(&report).expect("serialize report"));
                at += len;
            }
            let after_partial = tree_bits(model.nodes());
            model.try_refresh_subtrees().expect("history is kept");
            let after_refresh = tree_bits(model.nodes());
            let rec = mat_bits(&model.reconstruct_range(t0 / 2, total));
            (after_fit, after_partial, after_refresh, rec, reports)
        };
        let reference = run(1);
        // The carry really is pending after the short batch, and flushed by
        // the next.
        prop_assert!(reference.4[1].contains("\"pending\":10"), "{}", reference.4[1]);
        prop_assert!(reference.4[2].contains("\"pending\":0"), "{}", reference.4[2]);
        for k in THREAD_COUNTS {
            let got = run(k);
            prop_assert!(got.0 == reference.0, "initial-fit tree differs at n_threads={}", k);
            prop_assert!(got.1 == reference.1, "partial-fit tree differs at n_threads={}", k);
            prop_assert!(got.2 == reference.2, "refreshed tree differs at n_threads={}", k);
            prop_assert!(got.3 == reference.3, "reconstruction differs at n_threads={}", k);
            prop_assert!(got.4 == reference.4, "round reports differ at n_threads={}", k);
        }
    }

    /// The windowed comparator fits its due windows on the pool; stitched
    /// reconstructions must not depend on the thread count.
    #[test]
    fn windowed_fit_is_bitwise_identical_across_thread_counts(
        n_nodes in 8usize..16,
        seed in 0u64..1000,
    ) {
        let total = 1024;
        let scenario = forking_scenario(n_nodes, total, seed);
        let data = scenario.generate(0, total);
        let run = |n_threads: usize| {
            let cfg = WindowedConfig {
                mr: mr_config(&scenario, 3, n_threads),
                window: 256,
                overlap: 64,
            };
            let model = WindowedMrDmd::fit(&data, &cfg);
            mat_bits(&model.reconstruct())
        };
        let reference = run(1);
        for k in THREAD_COUNTS {
            prop_assert!(run(k) == reference, "windowed reconstruction differs at n_threads={}", k);
        }
    }
}

/// `add_series` fits the appended sensors' subtree through the same pool;
/// the resulting model must match the serial one bit-for-bit.
#[test]
fn add_series_is_bitwise_identical_across_thread_counts() {
    let total = 1400;
    let scenario = forking_scenario(48, total, 7);
    let data = scenario.generate(0, total);
    let extra = forking_scenario(48, total, 8).generate(0, total);
    let run = |n_threads: usize| {
        let cfg = IMrDmdConfig {
            mr: mr_config(&scenario, 4, n_threads),
            ..IMrDmdConfig::default()
        };
        let mut model = IMrDmd::fit(&data, &cfg);
        model.add_series(&extra);
        (tree_bits(model.nodes()), mat_bits(&model.reconstruct()))
    };
    let reference = run(1);
    for k in THREAD_COUNTS {
        assert!(run(k) == reference, "add_series differs at n_threads={k}");
    }
}
