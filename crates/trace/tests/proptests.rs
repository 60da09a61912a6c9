//! Property-based tests for the workload-generation crate.

use proptest::prelude::*;
use woha_model::{JobSpec, SimDuration, SimTime};
use woha_trace::stats::{Cdf, DecadeHistogram};
use woha_trace::topology::{chain, fork_join, layered, random_layered};
use woha_trace::workload::{assign, lower_bound};
use woha_trace::yahoo::{yahoo_workflows, YahooTraceConfig};
use woha_trace::{BoundedPareto, Clamped, Distribution, LogNormal, Rng};

fn tiny_job(i: usize) -> JobSpec {
    JobSpec::new(
        format!("j{i}"),
        1 + (i as u32 % 4),
        i as u32 % 3,
        SimDuration::from_secs(5 + i as u64),
        SimDuration::from_secs(10 + i as u64),
    )
}

proptest! {
    /// The PRNG's fork streams never collide with the parent stream in the
    /// first draws, and identical seeds replay identically.
    #[test]
    fn rng_fork_and_replay(seed in 0u64..1_000_000, stream in 1u64..64) {
        let root = Rng::new(seed);
        let mut a = root.fork(stream);
        let mut b = root.fork(stream);
        for _ in 0..16 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
        let mut parent = Rng::new(seed);
        let mut child = Rng::new(seed).fork(stream);
        let collisions = (0..16)
            .filter(|_| parent.next_u64() == child.next_u64())
            .count();
        prop_assert!(collisions <= 1);
    }

    /// range_u64 stays within bounds for arbitrary ranges.
    #[test]
    fn rng_range_bounds(seed in 0u64..1_000, lo in 0u64..1_000, span in 1u64..1_000) {
        let mut rng = Rng::new(seed);
        for _ in 0..64 {
            let v = rng.range_u64(lo, lo + span);
            prop_assert!((lo..lo + span).contains(&v));
        }
    }

    /// Distribution samplers respect their support.
    #[test]
    fn distribution_supports(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let p = BoundedPareto::new(2.0, 500.0, 0.7);
        let c = Clamped::new(LogNormal::from_median(50.0, 2.0), 10.0, 90.0);
        for _ in 0..64 {
            let y = p.sample(&mut rng);
            prop_assert!((2.0..=500.0).contains(&y));
            let z = c.sample(&mut rng);
            prop_assert!((10.0..=90.0).contains(&z));
        }
    }

    /// Empirical CDFs are monotone and hit 0/1 at the extremes.
    #[test]
    fn cdf_is_monotone(samples in proptest::collection::vec(0.0f64..1e6, 1..200)) {
        let cdf = Cdf::from_samples(samples.clone());
        prop_assert_eq!(cdf.len(), samples.len());
        let mut last = 0.0;
        for probe in 0..20 {
            let x = 1e6 * probe as f64 / 19.0;
            let f = cdf.fraction_at_or_below(x);
            prop_assert!(f >= last - 1e-12);
            prop_assert!((0.0..=1.0).contains(&f));
            last = f;
        }
        prop_assert_eq!(cdf.fraction_at_or_below(1e7), 1.0);
        prop_assert_eq!(cdf.fraction_at_or_below(-1.0), 0.0);
    }

    /// The decade histogram conserves counts.
    #[test]
    fn histogram_conserves(samples in proptest::collection::vec(0.1f64..1e7, 0..100)) {
        let mut h = DecadeHistogram::new();
        for &s in &samples {
            h.record(s);
        }
        prop_assert_eq!(h.total(), samples.len() as u64);
        prop_assert_eq!(h.count_below_power(10), samples.len() as u64);
    }

    /// Every generated topology is a valid DAG with the requested size.
    #[test]
    fn topologies_are_valid(seed in 0u64..10_000, n in 2usize..20) {
        let mut rng = Rng::new(seed);
        let w = random_layered("w", n, &mut rng, tiny_job).build().unwrap();
        prop_assert_eq!(w.job_count(), n);
        prop_assert!(w.to_dag().is_acyclic());
        prop_assert!(!w.initially_ready().is_empty());

        let c = chain("c", n, tiny_job).build().unwrap();
        prop_assert_eq!(c.to_dag().edge_count(), n - 1);
        let f = fork_join("f", n, tiny_job).build().unwrap();
        prop_assert_eq!(f.job_count(), n + 2);
        let l = layered("l", &[1, n, 1], |i, _, _| tiny_job(i)).build().unwrap();
        prop_assert_eq!(l.job_count(), n + 2);
    }

    /// Workload assignment: releases in window, deadlines above the floor,
    /// and reissue preserves topology.
    #[test]
    fn workload_assignment_laws(seed in 0u64..10_000) {
        let mut rng = Rng::new(seed);
        let flows = yahoo_workflows(&YahooTraceConfig::default(), &mut rng);
        let window = SimDuration::from_mins(30);
        let workload = assign(
            &flows,
            window,
            SimDuration::from_mins(5),
            SimDuration::from_mins(20),
            1.5,
            100,
            &mut rng,
        );
        prop_assert_eq!(workload.len(), flows.len());
        for (assigned, template) in workload.iter().zip(&flows) {
            prop_assert!(assigned.submit_time() < SimTime::ZERO + window);
            let floor = lower_bound(template, 100).mul_f64(1.5);
            prop_assert!(assigned.relative_deadline() >= floor.min(SimDuration::from_mins(5)));
            prop_assert!(assigned.relative_deadline() >= SimDuration::from_mins(5).min(floor));
            prop_assert_eq!(assigned.jobs(), template.jobs());
            prop_assert_eq!(assigned.to_dag(), template.to_dag());
        }
    }

    /// The Yahoo workload keeps the paper's shape for every seed.
    #[test]
    fn yahoo_shape_for_all_seeds(seed in 0u64..2_000) {
        let flows = yahoo_workflows(&YahooTraceConfig::default(), &mut Rng::new(seed));
        prop_assert_eq!(flows.len(), 61);
        prop_assert_eq!(flows.iter().map(|w| w.job_count()).sum::<usize>(), 180);
        prop_assert_eq!(flows.iter().filter(|w| w.is_single_job()).count(), 15);
        prop_assert_eq!(flows.iter().map(|w| w.job_count()).max(), Some(12));
    }
}
