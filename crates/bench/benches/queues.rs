//! Criterion microbenchmarks for the workflow-ordering structures: the
//! skip list against `BTreeMap`, and the three Fig 13(a) queue strategies
//! at several queue lengths.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::collections::BTreeSet;
use std::hint::black_box;
use woha_bench::experiments::throughput::{Contender, QueueHarness};
use woha_core::{QueueStrategy, SkipList};

fn bench_head_churn(c: &mut Criterion) {
    let mut group = c.benchmark_group("head_churn");
    for n in [1_000u64, 100_000] {
        group.bench_with_input(BenchmarkId::new("skiplist", n), &n, |b, &n| {
            let mut list: SkipList<(i64, u64), ()> = SkipList::new();
            for i in 0..n {
                list.insert((i as i64 * 100, i), ());
            }
            let mut key = *list.first().unwrap().0;
            b.iter(|| {
                list.remove(&key);
                key.0 += 1;
                list.insert(black_box(key), ());
            });
        });
        group.bench_with_input(BenchmarkId::new("btreeset", n), &n, |b, &n| {
            let mut set: BTreeSet<(i64, u64)> = BTreeSet::new();
            for i in 0..n {
                set.insert((i as i64 * 100, i));
            }
            let mut key = *set.iter().next().unwrap();
            b.iter(|| {
                set.remove(&key);
                key.0 += 1;
                set.insert(black_box(key));
            });
        });
    }
    group.finish();
}

fn bench_assign_task(c: &mut Criterion) {
    let mut group = c.benchmark_group("assign_task");
    for n in [1_000usize, 10_000] {
        for contender in [
            Contender::Indexed(QueueStrategy::Dsl),
            Contender::Indexed(QueueStrategy::Bst),
            Contender::Naive,
        ] {
            if contender == Contender::Naive && n > 1_000 {
                continue; // minutes per sample otherwise
            }
            group.bench_with_input(BenchmarkId::new(contender.label(), n), &n, |b, &n| {
                let mut harness = QueueHarness::new(contender, n);
                b.iter(|| black_box(harness.assign_task()));
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_head_churn, bench_assign_task);
criterion_main!(benches);
