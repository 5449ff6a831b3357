//! Property-based integration tests over the full stack.

use mrdmd_suite::prelude::*;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig { cases: 16, ..ProptestConfig::default() })]

    /// The pipeline never produces non-finite outputs, whatever the scenario
    /// parameters.
    #[test]
    fn pipeline_outputs_always_finite(
        n_nodes in 8usize..32,
        total in 128usize..320,
        seed in 0u64..1000,
        levels in 2usize..5,
    ) {
        let mut machine = theta().scaled(n_nodes);
        machine.series_per_node = 1;
        let scenario = Scenario::sc_log(machine, total, seed);
        let data = scenario.generate(0, total);
        prop_assert!(data.as_slice().iter().all(|v| v.is_finite()));
        let cfg = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: scenario.dt(),
                max_levels: levels,
                max_cycles: 2,
                rank: RankSelection::Svht,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let model = IMrDmd::fit(&data, &cfg);
        let rec = model.reconstruct();
        prop_assert!(rec.as_slice().iter().all(|v| v.is_finite()));
        for p in mode_spectrum(model.nodes()) {
            prop_assert!(p.power.is_finite() && p.power >= 0.0);
            prop_assert!(p.frequency_hz.is_finite() && p.frequency_hz >= 0.0);
            prop_assert!(p.level >= 1 && p.level <= levels);
        }
        let mags = row_mode_magnitudes(model.nodes(), &BandFilter::all(), data.rows());
        prop_assert!(mags.iter().all(|m| m.is_finite() && *m >= 0.0));
    }

    /// Streaming any chunking of the same scenario absorbs the same number
    /// of snapshots and keeps the root spanning the full timeline.
    #[test]
    fn streaming_invariants_hold_for_any_chunking(
        chunk in 16usize..200,
        seed in 0u64..100,
    ) {
        let total = 400;
        let mut machine = theta().scaled(12);
        machine.series_per_node = 1;
        let scenario = Scenario::sc_log(machine, total, seed);
        let cfg = IMrDmdConfig {
            mr: MrDmdConfig {
                dt: scenario.dt(),
                max_levels: 3,
                max_cycles: 2,
                rank: RankSelection::Svht,
                ..MrDmdConfig::default()
            },
            ..IMrDmdConfig::default()
        };
        let mut stream = ChunkStream::new(&scenario, 0, total, chunk);
        let first = stream.next().unwrap();
        let mut model = IMrDmd::fit(&first, &cfg);
        for batch in stream {
            model.partial_fit(&batch);
        }
        prop_assert_eq!(model.n_steps(), total);
        prop_assert_eq!(model.root().window, total);
        // Windows of non-root nodes never extend past the absorbed timeline.
        for node in model.nodes() {
            prop_assert!(node.start + node.window <= total);
        }
    }

    /// The layout parser round-trips every well-formed spec and never panics
    /// on arbitrary input.
    #[test]
    fn layout_roundtrip_and_no_panic(
        rows in 1usize..4,
        racks in 1usize..12,
        cabs in 1usize..8,
        slots in 1usize..8,
        blades in 1usize..4,
        nodes in 1usize..4,
        junk in "[ -~]{0,40}",
    ) {
        let s = format!(
            "sys 1 2 row0-{}:0-{} 2 c:0-{} 1 s:0-{} 1 b:0-{} n:0-{}",
            rows - 1, racks - 1, cabs - 1, slots - 1, blades - 1, nodes - 1
        );
        let l = LayoutSpec::parse(&s).expect("well-formed spec parses");
        prop_assert_eq!(l.total_nodes(), rows * racks * cabs * slots * blades * nodes);
        let l2 = LayoutSpec::parse(&l.to_layout_string()).expect("roundtrip parses");
        prop_assert_eq!(&l, &l2);
        // Every node index maps to a unique, in-range position.
        let pos = l.node_position(l.total_nodes() - 1);
        prop_assert!(pos.row <= l.rows.hi && pos.node <= l.nodes.hi);
        // Arbitrary junk must not panic — only return an error.
        let _ = LayoutSpec::parse(&junk);
    }

    /// Z-scores of the baseline population always average to ~0 with unit
    /// variance scale.
    #[test]
    fn zscore_normalisation_invariant(
        mags in proptest::collection::vec(0.0f64..1e4, 8..64),
        split in 3usize..6,
    ) {
        let baseline: Vec<usize> = (0..mags.len()).step_by(split).collect();
        prop_assume!(baseline.len() >= 2);
        // Degenerate all-equal baselines are allowed but uninformative.
        let z = ZScores::from_baseline(&mags, &baseline);
        prop_assert!(z.z.iter().all(|v| v.is_finite()));
        let mean: f64 = baseline.iter().map(|&i| z.z[i]).sum::<f64>() / baseline.len() as f64;
        prop_assert!(mean.abs() < 1e-6, "baseline z mean {mean}");
    }

    /// The telemetry generator is chunk-independent for arbitrary splits,
    /// on either profile and for any row subset (unsorted, with repeats),
    /// and every reading is `Scenario::value` at its cell, bit for bit.
    #[test]
    fn generator_chunk_independence(
        split in 1usize..199,
        seed in 0u64..50,
        gpu in 0usize..2,
        picks in proptest::collection::vec(0usize..1000, 1..12),
        cells in proptest::collection::vec((0usize..1000, 0usize..200), 12),
    ) {
        let scenario = if gpu == 1 {
            Scenario::gpu_metrics(polaris().scaled(6), 200, seed)
        } else {
            let mut machine = theta().scaled(6);
            machine.series_per_node = 1;
            Scenario::sc_log(machine, 200, seed)
        };
        let whole = scenario.generate(0, 200);
        let a = scenario.generate(0, split);
        let b = scenario.generate(split, 200);
        prop_assert_eq!(a.hstack(&b), whole.clone());

        let rows: Vec<usize> = picks.iter().map(|&r| r % scenario.n_series()).collect();
        let sub = scenario.generate_rows(&rows, 0, 200);
        let tail = scenario.generate_rows(&rows, split, 200);
        prop_assert_eq!(tail, sub.cols_range(split, 200));
        let bits = |xs: &[f64]| xs.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
        for (i, &r) in rows.iter().enumerate() {
            prop_assert_eq!(bits(sub.row(i)), bits(whole.row(r)));
        }
        for &(i, step) in &cells {
            let i = i % rows.len();
            prop_assert_eq!(
                sub.row(i)[step].to_bits(),
                scenario.value(rows[i], step).to_bits()
            );
        }
    }
}
