//! Microbenchmarks of the spatial-index substrate (ablation support:
//! these kernels dominate every cloaking and query path).

use criterion::{criterion_group, criterion_main, Criterion};
use lbsp_bench::{standard_positions, uniform_positions, world};
use lbsp_geom::{Point, Rect};
use lbsp_index::{SubCellCounts, SubSpan, UniformGrid};
use lbsp_server::{private_range_candidates, PublicObject, PublicStore};

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
    group.bench_function("grid/knn_16", |b| {
        b.iter(|| grid.k_nearest(Point::new(0.42, 0.42), 16))
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

    // Public store (a packed point grid under an id-ordered array) on
    // 10k POIs, uniform, three-cities, and uniform with one more POI a
    // thousand units away: the candidate pass of a Fig. 5a range query
    // (a 1/64-side cloak at a POI, radius 0.05, as on the engine) and
    // the 1 and 8 nearest to a POI.
    let mut outlier = uniform_positions(10_000, 52);
    outlier.push(Point::new(1000.0, 1000.0));
    for (data, pois) in [
        ("uniform", uniform_positions(10_000, 52)),
        ("three_cities", standard_positions(10_000, 53)),
        ("outlier", outlier),
    ] {
        let store = PublicStore::bulk_load(
            (0..)
                .zip(&pois)
                .map(|(id, &p)| PublicObject::new(id, p, 0))
                .collect(),
        );
        let at: Vec<Point> = pois.iter().step_by(97).copied().collect();
        let mut i = 0usize;
        group.bench_function(format!("public/{data}/range_r05"), |b| {
            b.iter(|| {
                i = (i + 1) % at.len();
                let p = at[i];
                let cloak = Rect::new_unchecked(p.x, p.y, p.x + 1.0 / 64.0, p.y + 1.0 / 64.0);
                private_range_candidates(&store, &cloak, 0.05)
            })
        });
        for k in [1, 8] {
            group.bench_function(format!("public/{data}/knn_{k}"), |b| {
                b.iter(|| {
                    i = (i + 1) % at.len();
                    store.k_nearest(at[i], k)
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
