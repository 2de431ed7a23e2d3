//! Criterion benchmarks of the fusion analysis itself.
//!
//! These measure real wall-clock time (not simulated time) of the scale-free
//! analyses: finding fusible prefixes, canonicalizing windows for memoization,
//! temporary-store elimination, and replaying memoized decisions — including
//! the fingerprint-first probe that the steady-state (all-hits) path uses,
//! which performs no allocation and no canonicalization.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use fusion::{
    find_fusible_prefix, fusible_segments, temporary_stores, CanonicalWindow, MemoCache,
};
use ir::{Domain, IndexTask, Partition, Privilege, StoreArg, StoreId, TaskId, TaskWindow};

/// A chain of fusible elementwise tasks: t_i reads store i and writes i+1.
/// Shapes are stamped the way the Diffuse context stamps them at submit time.
fn elementwise_chain(len: usize, launch_points: u64) -> Vec<IndexTask> {
    chain_over_stores(len, launch_points, 4096)
}

/// [`elementwise_chain`] over stores of `store_len` elements in tiles of 64.
fn chain_over_stores(len: usize, launch_points: u64, store_len: u64) -> Vec<IndexTask> {
    let block = Partition::block(vec![64]);
    (0..len)
        .map(|i| {
            IndexTask::new(
                TaskId(i as u64),
                0,
                "ew",
                Domain::linear(launch_points),
                vec![
                    StoreArg::new(StoreId(i as u64), block.clone(), Privilege::Read)
                        .with_shape(vec![store_len]),
                    StoreArg::new(StoreId(i as u64 + 1), block.clone(), Privilege::Write)
                        .with_shape(vec![store_len]),
                ],
                vec![],
            )
        })
        .collect()
}

fn bench_prefix_search(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusible_prefix");
    for window in [8usize, 32, 128] {
        let tasks = elementwise_chain(window, 8);
        group.bench_with_input(BenchmarkId::new("window", window), &tasks, |b, tasks| {
            b.iter(|| find_fusible_prefix(std::hint::black_box(tasks)))
        });
    }
    group.finish();
}

/// The analysis is scale-free: its cost must not grow with the launch-domain
/// size (the number of GPUs).
fn bench_scale_freedom(c: &mut Criterion) {
    let mut group = c.benchmark_group("prefix_vs_gpu_count");
    for gpus in [8u64, 128, 1024] {
        let tasks = elementwise_chain(32, gpus);
        group.bench_with_input(BenchmarkId::new("gpus", gpus), &tasks, |b, tasks| {
            b.iter(|| find_fusible_prefix(std::hint::black_box(tasks)))
        });
    }
    group.finish();
}

/// Temporary-store elimination is scale-free too: whether a write covers its
/// store is a closed form in the tiling, so the cost must not grow with the
/// GPU count. The stores are weak-scaled (one 64-element tile per GPU) so
/// every write covers and all 32 written stores are temporaries at every
/// count.
fn bench_temporaries_scale_freedom(c: &mut Criterion) {
    let mut group = c.benchmark_group("temporaries_vs_gpu_count");
    for gpus in [8u64, 128, 1024] {
        let tasks = chain_over_stores(32, gpus, 64 * gpus);
        assert_eq!(temporary_stores(&tasks, &[], |_| false).len(), 32);
        group.bench_with_input(BenchmarkId::new("gpus", gpus), &tasks, |b, tasks| {
            b.iter(|| temporary_stores(std::hint::black_box(tasks), &[], |_| false))
        });
    }
    group.finish();
}

/// One-pass segmentation of a whole window vs. the window length.
fn bench_segments(c: &mut Criterion) {
    let mut group = c.benchmark_group("fusible_segments");
    for window in [32usize, 128] {
        let tasks = elementwise_chain(window, 8);
        group.bench_with_input(BenchmarkId::new("window", window), &tasks, |b, tasks| {
            b.iter(|| fusible_segments(std::hint::black_box(tasks)))
        });
    }
    group.finish();
}

fn bench_canonicalization_and_memo(c: &mut Criterion) {
    let tasks = elementwise_chain(32, 8);
    c.bench_function("canonicalize_window_32", |b| {
        b.iter(|| CanonicalWindow::new(std::hint::black_box(&tasks)))
    });
    let key = CanonicalWindow::new(&tasks);
    let mut cache: MemoCache<usize> = MemoCache::new();
    cache.insert(key.clone(), 32);
    // The slow reference path: build a canonical key, then look it up.
    c.bench_function("memo_hit_full_key_32", |b| {
        b.iter(|| {
            let key = CanonicalWindow::new(std::hint::black_box(&tasks));
            cache.get(&key).copied().unwrap_or_else(|| find_fusible_prefix(&tasks))
        })
    });
    // The fast path Diffuse actually runs per flush: probe by the window's
    // incrementally maintained fingerprint — no allocation, no key build.
    let window: TaskWindow = tasks.iter().cloned().collect();
    c.bench_function("memo_hit_fingerprint_probe_32", |b| {
        b.iter(|| {
            cache
                .probe(std::hint::black_box(&window))
                .copied()
                .unwrap_or_else(|| find_fusible_prefix(window.tasks()))
        })
    });
}

criterion_group!(
    benches,
    bench_prefix_search,
    bench_scale_freedom,
    bench_temporaries_scale_freedom,
    bench_segments,
    bench_canonicalization_and_memo
);
criterion_main!(benches);
