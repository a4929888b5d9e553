//! Standing-query maintenance cost inside the engine: batch
//! update throughput with no standing queries, with standing queries
//! registered far from the traffic (index pays for itself), and with
//! standing queries overlapping the traffic (real fan-out).

use criterion::{criterion_group, criterion_main, Criterion};
use lbsp_anonymizer::{CloakRequirement, PrivacyProfile};
use lbsp_bench::json::{self, Val};
use lbsp_bench::{uniform_positions, world};
use lbsp_core::{EngineConfig, ShardedEngine};
use lbsp_geom::{Point, Rect, SimTime};

const USERS: usize = 4_000;

fn engine() -> ShardedEngine {
    let mut cfg = EngineConfig::new(world());
    cfg.refine = true;
    let mut eng = ShardedEngine::new(cfg, 1);
    for i in 0..USERS as u64 {
        let k = [2u32, 5, 10, 25][(i % 4) as usize];
        eng.register(
            i,
            PrivacyProfile::uniform(CloakRequirement::k_only(k)).unwrap(),
        );
    }
    eng
}

fn updates() -> Vec<(u64, Point, SimTime)> {
    uniform_positions(USERS, 17)
        .into_iter()
        .enumerate()
        .map(|(i, p)| (i as u64, p, SimTime::from_secs(i as f64)))
        .collect()
}

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("standing_throughput");
    group.sample_size(10);
    let batch = updates();

    // Baseline: the maintenance loop is skipped entirely when no
    // standing query is registered.
    let mut eng = engine();
    group.bench_function("batch_4k/no_standing", |b| {
        b.iter(|| eng.process_updates(&batch))
    });

    // 256 count queries in a corner the traffic never reaches: the
    // area index should make this nearly free.
    let mut eng = engine();
    for (j, p) in uniform_positions(256, 31).into_iter().enumerate() {
        let x = p.x * 0.002;
        let y = p.y * 0.002;
        let _ = j;
        eng.add_standing_count(Rect::new_unchecked(x, y, x + 0.001, y + 0.001));
    }
    group.bench_function("batch_4k/256_far_counts", |b| {
        b.iter(|| eng.process_updates(&batch))
    });

    // 32 overlapping count queries plus 32 standing private ranges:
    // the price of real fan-out.
    let mut eng = engine();
    for p in uniform_positions(32, 33) {
        let r = Rect::new_unchecked(
            p.x * 0.5,
            p.y * 0.5,
            (p.x * 0.5 + 0.3).min(1.0),
            (p.y * 0.5 + 0.3).min(1.0),
        );
        eng.add_standing_count(r);
    }
    for u in 0..32u64 {
        eng.add_standing_range(u, 0.1);
    }
    group.bench_function("batch_4k/32_hot_counts_32_ranges", |b| {
        b.iter(|| eng.process_updates(&batch))
    });

    group.finish();

    // Machine-readable summary: one timed pass per scenario, so the
    // three batch rates land in bench logs as flat JSON lines.
    for (scenario, mut eng) in [
        ("no_standing", engine()),
        ("256_far_counts", {
            let mut eng = engine();
            for p in uniform_positions(256, 31) {
                let x = p.x * 0.002;
                let y = p.y * 0.002;
                eng.add_standing_count(Rect::new_unchecked(x, y, x + 0.001, y + 0.001));
            }
            eng
        }),
        ("32_hot_counts_32_ranges", {
            let mut eng = engine();
            for p in uniform_positions(32, 33) {
                let r = Rect::new_unchecked(
                    p.x * 0.5,
                    p.y * 0.5,
                    (p.x * 0.5 + 0.3).min(1.0),
                    (p.y * 0.5 + 0.3).min(1.0),
                );
                eng.add_standing_count(r);
            }
            for u in 0..32u64 {
                eng.add_standing_range(u, 0.1);
            }
            eng
        }),
    ] {
        let reps = 3u64;
        let start = std::time::Instant::now();
        for _ in 0..reps {
            eng.process_updates(&batch);
        }
        let secs = start.elapsed().as_secs_f64();
        json::line(
            "standing_throughput",
            &[
                ("scenario", Val::S(scenario.to_string())),
                ("users", Val::U(USERS as u64)),
                ("reps", Val::U(reps)),
                ("secs", Val::F(secs)),
                (
                    "updates_per_sec",
                    Val::F((USERS as u64 * reps) as f64 / secs),
                ),
            ],
        );
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
