//! Property tests for the sweep orchestrator's deterministic aggregator:
//! cell completions arriving in **any** order must merge to exactly the
//! sorted-order merge, and `run_sweep` itself must be jobs-invariant.

use proptest::collection::vec;
use proptest::prelude::*;
use woha_bench::sweep::{merge_completions, run_sweep, CellKey};
use woha_trace::Rng;

proptest! {
    /// Randomly permuted completion orders merge identically to the
    /// in-order merge (the parallel pool's arrival order is arbitrary).
    #[test]
    fn merge_is_permutation_invariant(
        values in vec(0u64..1_000_000, 1..64),
        seed in 0u64..u64::MAX,
    ) {
        let in_order: Vec<(usize, u64)> = values.iter().copied().enumerate().collect();
        let mut shuffled = in_order.clone();
        Rng::new(seed).shuffle(&mut shuffled);
        let sorted_merge = merge_completions(values.len(), in_order);
        let shuffled_merge = merge_completions(values.len(), shuffled);
        prop_assert_eq!(&sorted_merge, &shuffled_merge);
        prop_assert_eq!(&sorted_merge, &values);
    }

    /// `run_sweep` returns specification-order results for every thread
    /// count, even when per-cell cost varies wildly with the input.
    #[test]
    fn run_sweep_is_jobs_invariant(
        values in vec(0u64..10_000, 1..32),
        jobs in 1usize..9,
    ) {
        let cells: Vec<(CellKey, u64)> = values
            .iter()
            .enumerate()
            .map(|(i, &v)| (CellKey::new().with("i", i), v))
            .collect();
        // Work skewed by value so completion order differs from spec order.
        let work = |_: &CellKey, &v: &u64| -> u64 {
            (0..v % 2_048).fold(v, |acc, x| acc.wrapping_mul(31).wrapping_add(x))
        };
        let serial = run_sweep(&cells, 1, work);
        let pooled = run_sweep(&cells, jobs, work);
        prop_assert_eq!(&serial.results, &pooled.results);
    }
}
