//! Property-based tests of the tiled engine's invariants.

use proptest::prelude::*;
use sophie_core::backend::IdealBackend;
use sophie_core::{Schedule, SophieConfig, SophieSolver};
use sophie_graph::cut::cut_value_binary;
use sophie_graph::generate::{gnm, WeightDist};

fn config_strategy() -> impl Strategy<Value = SophieConfig> {
    (
        prop_oneof![Just(8usize), Just(16), Just(24)],
        1usize..6,
        2usize..10,
        0.25f64..=1.0,
        0.0f64..0.3,
        proptest::bool::ANY,
    )
        .prop_map(|(tile, local, global, frac, phi, stoch)| SophieConfig {
            tile_size: tile,
            local_iters: local,
            global_iters: global,
            tile_fraction: frac,
            phi,
            alpha: 0.0,
            stochastic_spin_update: stoch,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The reported best configuration must reproduce the reported cut,
    /// for every configuration of the engine.
    #[test]
    fn best_bits_always_match_best_cut(cfg in config_strategy(), seed in 0u64..100) {
        let g = gnm(48, 180, WeightDist::Unit, 11).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let out = solver.run(&g, seed, None).unwrap();
        prop_assert_eq!(cut_value_binary(&g, &out.best_bits), out.best_cut);
    }

    /// The best cut equals the maximum of the trace, and the trace has one
    /// entry per synchronization plus the initial state.
    #[test]
    fn trace_invariants(cfg in config_strategy(), seed in 0u64..100) {
        let g = gnm(40, 150, WeightDist::PlusMinusOne, 7).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let out = solver.run(&g, seed, None).unwrap();
        prop_assert_eq!(out.cut_trace.len(), cfg.global_iters + 1);
        let trace_max = out.cut_trace.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(out.best_cut, trace_max);
    }

    /// Identical (seed, schedule) runs are bit-for-bit identical;
    /// different seeds diverge (with noise enabled).
    #[test]
    fn determinism(cfg in config_strategy(), seed in 0u64..50) {
        let g = gnm(40, 160, WeightDist::Unit, 3).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let a = solver.run(&g, seed, None).unwrap();
        let b = solver.run(&g, seed, None).unwrap();
        prop_assert_eq!(a.cut_trace, b.cut_trace);
        prop_assert_eq!(a.best_bits, b.best_bits);
    }

    /// Engine-measured operation counts equal the analytic schedule
    /// replay, for every configuration.
    #[test]
    fn op_counts_match_analytic(cfg in config_strategy(), sched_seed in 0u64..100) {
        let g = gnm(48, 200, WeightDist::Unit, 5).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let schedule = Schedule::generate(
            solver.grid(),
            cfg.global_iters,
            cfg.tile_fraction,
            cfg.stochastic_spin_update,
            sched_seed,
        );
        let out = solver
            .run_scheduled(&IdealBackend::new(), &g, &schedule, 1, None)
            .unwrap();
        let analytic =
            sophie_core::analytic::analytic_op_counts(48, &cfg, sched_seed).unwrap();
        // The reuse-model counters are dynamics-dependent; the analytic
        // replay leaves them zero (see `analytic_op_counts` docs).
        let mut measured = out.ops;
        measured.sparse_spin_flips = 0;
        measured.sparse_field_updates = 0;
        measured.sparse_delta_macs = 0;
        prop_assert_eq!(measured, analytic);
    }

    /// Selecting fewer tiles never increases per-round compute.
    #[test]
    fn fraction_monotonicity(frac_lo in 0.2f64..0.5, frac_hi in 0.6f64..1.0) {
        let base = SophieConfig {
            tile_size: 16,
            global_iters: 6,
            ..SophieConfig::default()
        };
        let lo = sophie_core::analytic::analytic_op_counts(
            96,
            &SophieConfig { tile_fraction: frac_lo, ..base.clone() },
            9,
        )
        .unwrap();
        let hi = sophie_core::analytic::analytic_op_counts(
            96,
            &SophieConfig { tile_fraction: frac_hi, ..base },
            9,
        )
        .unwrap();
        prop_assert!(lo.total_tile_mvms() <= hi.total_tile_mvms());
        prop_assert!(lo.pairs_executed <= hi.pairs_executed);
    }

    /// A target below the achieved best must be detected, and the hit
    /// iteration must be consistent with the trace.
    #[test]
    fn target_detection_is_consistent(cfg in config_strategy(), seed in 0u64..50) {
        let g = gnm(40, 150, WeightDist::Unit, 13).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg).unwrap();
        let free = solver.run(&g, seed, None).unwrap();
        let target = free.best_cut; // achievable by construction
        let tracked = solver.run(&g, seed, Some(target)).unwrap();
        let hit = tracked.global_iters_to_target;
        prop_assert!(hit.is_some());
        let g_hit = hit.unwrap();
        prop_assert!(tracked.cut_trace[g_hit] >= target);
        for before in 0..g_hit {
            prop_assert!(tracked.cut_trace[before] < target);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Activity (spins flipped per sync) has one entry per round and each
    /// entry is bounded by the graph order; late activity should not
    /// exceed the maximum possible (sanity of the Hamming accounting).
    #[test]
    fn activity_trace_is_well_formed(cfg in config_strategy(), seed in 0u64..40) {
        let g = gnm(40, 150, WeightDist::Unit, 19).unwrap();
        let solver = SophieSolver::from_graph(&g, cfg.clone()).unwrap();
        let out = solver.run(&g, seed, None).unwrap();
        prop_assert_eq!(out.activity_trace.len(), cfg.global_iters);
        for &flips in &out.activity_trace {
            prop_assert!(flips <= 40);
        }
    }
}
