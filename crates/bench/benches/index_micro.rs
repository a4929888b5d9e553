//! Microbenchmarks of the spatial-index substrate (ablation support:
//! these kernels dominate every cloaking and query path).

use criterion::{criterion_group, criterion_main, Criterion};
use lbsp_bench::{uniform_positions, world};
use lbsp_geom::{Point, Rect};
use lbsp_index::{PointQuadTree, PyramidGrid, RTree, SubCellCounts, SubSpan, UniformGrid};

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("index_micro");
    group.sample_size(30);
    let positions = uniform_positions(100_000, 51);

    // Grid: insert (move) and k-NN over the per-cell buckets.
    let mut grid = UniformGrid::new(world(), 64, 64);
    for (i, p) in positions.iter().enumerate() {
        grid.insert(i as u64, *p);
    }
    let mut i = 0usize;
    group.bench_function("grid/upsert_100k", |b| {
        b.iter(|| {
            i = (i + 7919) % positions.len();
            grid.insert(i as u64, positions[i])
        })
    });
    let q = Rect::new_unchecked(0.4, 0.4, 0.45, 0.45);
    group.bench_function("grid/knn_16", |b| {
        b.iter(|| grid.k_nearest(Point::new(0.42, 0.42), 16, |_| false))
    });

    // Sub-cell counts, the grid cloak's view at the engine's 16 x 16:
    // a move (four counter bumps) and a depth-1 quadrant count (the
    // largest a refinement asks: 8 x 8 counters of one cell).
    let mut counts = SubCellCounts::new(world(), 16, 16);
    for p in &positions {
        counts.shift(None, Some(*p));
    }
    let mut i = 0usize;
    group.bench_function("counts/shift_100k", |b| {
        b.iter(|| {
            let from = positions[i];
            i = (i + 7919) % positions.len();
            counts.shift(Some(from), Some(positions[i]))
        })
    });
    let quadrant = SubSpan::around(counts.lattice().sub_of(Point::new(0.42, 0.42)), 8);
    group.bench_function("counts/quadrant", |b| b.iter(|| counts.count(quadrant)));

    // Pyramid: the O(levels) update path.
    let mut pyr = PyramidGrid::new(world(), 8);
    for (i, p) in positions.iter().enumerate() {
        pyr.insert(i as u64, *p);
    }
    let mut i = 0usize;
    group.bench_function("pyramid/upsert_100k", |b| {
        b.iter(|| {
            i = (i + 7919) % positions.len();
            pyr.insert(i as u64, positions[i])
        })
    });
    group.bench_function("pyramid/cell_count", |b| {
        let cell = pyr.cell_of(4, Point::new(0.3, 0.7));
        b.iter(|| pyr.count(cell))
    });

    // Quadtree: adaptive insert/remove.
    let mut qt = PointQuadTree::new(world(), 16);
    for (i, p) in positions.iter().take(50_000).enumerate() {
        qt.insert(i as u64, *p);
    }
    group.bench_function("quadtree/path_to_leaf", |b| {
        b.iter(|| qt.path_to_leaf(Point::new(0.61, 0.37)))
    });
    group.bench_function("quadtree/count_rect", |b| b.iter(|| qt.count_in_rect(&q)));

    // R-tree: bulk load, range, kNN.
    let entries: Vec<(Rect, u64)> = positions
        .iter()
        .take(50_000)
        .enumerate()
        .map(|(i, p)| (Rect::from_point(*p), i as u64))
        .collect();
    group.bench_function("rtree/bulk_load_50k", |b| {
        b.iter(|| RTree::bulk_load(entries.clone()))
    });
    let tree = RTree::bulk_load(entries.clone());
    group.bench_function("rtree/search_rect", |b| b.iter(|| tree.search_rect(&q)));
    group.bench_function("rtree/knn_16", |b| {
        b.iter(|| tree.k_nearest(Point::new(0.42, 0.42), 16))
    });
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
