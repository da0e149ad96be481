//! E3-updates / T1-rows: update time vs tree size (Table 1 row "this paper":
//! O(log n) updates), compared against the recompute-from-scratch baseline (rows
//! without update support, Θ(n) per edit).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use treenum_baselines::RecomputeBaseline;
use treenum_bench::{bench_alphabet, bench_tree, select_b_query};
use treenum_core::TreeEnumerator;
use treenum_trees::edit::NodeSampler;
use treenum_trees::generate::{EditStream, TreeShape};

fn updates(c: &mut Criterion) {
    let (query, alphabet_len) = select_b_query();
    let labels: Vec<_> = bench_alphabet().labels().collect();
    let mut group = c.benchmark_group("E3_updates");
    group.sample_size(10);
    group.warm_up_time(std::time::Duration::from_millis(300));
    group.measurement_time(std::time::Duration::from_millis(900));
    for &n in &[1_000usize, 4_000, 16_000] {
        let tree = bench_tree(n, TreeShape::Random, 3);
        // O(1) NodeSampler-backed generation: each iteration times `apply`
        // plus an O(1) draw, so the O(log n) update cost is visible at every
        // size (a Θ(n) `next_for` generator would swamp it).
        group.bench_with_input(BenchmarkId::new("treenum_update_sampled", n), &n, |b, _| {
            let mut engine = TreeEnumerator::new(tree.clone(), &query, alphabet_len);
            let mut shadow = tree.clone();
            let mut sampler = NodeSampler::new(&shadow);
            let mut stream = EditStream::balanced_mix(labels.clone(), 9);
            b.iter(|| {
                let op = stream.next_applied_sampled(&mut shadow, &mut sampler);
                engine.apply(&op)
            });
        });
    }
    // The recompute baseline is Θ(n) per edit; keep its sizes small so the bench
    // terminates quickly while still exhibiting the linear growth.
    for &n in &[250usize, 1_000, 4_000] {
        let tree = bench_tree(n, TreeShape::Random, 3);
        group.bench_with_input(
            BenchmarkId::new("recompute_baseline_update", n),
            &n,
            |b, _| {
                let mut baseline = RecomputeBaseline::new(tree.clone(), &query, alphabet_len);
                let mut stream = EditStream::balanced_mix(labels.clone(), 9);
                b.iter(|| {
                    let op = stream.next_for(baseline.tree());
                    baseline.apply(&op)
                });
            },
        );
    }
    group.finish();
}

criterion_group!(benches, updates);
criterion_main!(benches);
