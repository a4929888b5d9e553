//! `net_throughput` — closed-loop request rate over the framed TCP
//! transport on loopback.
//!
//! One blocking client drives register/update/query traffic through
//! `NetClient → NetServer → ShardedEngine` at several server poller
//! shard counts, then prints a requests/s summary. With a single
//! closed-loop client the shard count bounds concurrency, not ordering —
//! the engine output stays byte-identical (asserted by the
//! `net_loopback` integration test); this bench quantifies the cost of
//! the network hop itself.

use criterion::{criterion_group, criterion_main, Criterion};
use lbsp_bench::json::{self, Val};
use lbsp_bench::netload::{closed_loop, serve_engine};
use lbsp_net::{NetConfig, NetServer};

const USERS: u64 = 500;
const ROUNDS: u32 = 1;

fn bench(c: &mut Criterion) {
    let mut group = c.benchmark_group("net_throughput");
    group.sample_size(10);
    for workers in [1usize, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            serve_engine(),
            NetConfig::with_workers(workers),
        )
        .expect("bind loopback");
        let addr = server.local_addr();
        let mut round = 0u64;
        group.bench_function(format!("closed_loop_{USERS}u/workers_{workers}"), |b| {
            b.iter(|| {
                round += 1;
                let report = closed_loop(addr, USERS, ROUNDS, round).expect("workload");
                assert_eq!(report.errors, 0);
                report.requests
            })
        });
        server.shutdown();
    }
    group.finish();

    // Readable summary: loopback requests/s per poller shard count.
    println!("\nnet_throughput summary: closed-loop client, loopback TCP");
    for workers in [1usize, 2, 4] {
        let server = NetServer::bind(
            "127.0.0.1:0",
            serve_engine(),
            NetConfig::with_workers(workers),
        )
        .expect("bind loopback");
        let report = closed_loop(server.local_addr(), USERS, 2, 7).expect("workload");
        let snap = server.counters().snapshot();
        println!(
            "net_throughput summary: {workers} worker(s)  {:>10.0} req/s  ({} requests, {} errors, {} bytes out)",
            report.rate(),
            report.requests,
            report.errors,
            snap.bytes_out,
        );
        // Machine-readable mirror of the line above.
        json::line(
            "net_throughput",
            &[
                ("workers", Val::U(workers as u64)),
                ("requests", Val::U(report.requests)),
                ("secs", Val::F(report.secs)),
                ("rate", Val::F(report.rate())),
                ("errors", Val::U(report.errors)),
                ("bytes_in", Val::U(snap.bytes_in)),
                ("bytes_out", Val::U(snap.bytes_out)),
            ],
        );
        server.shutdown();
    }
}

criterion_group!(benches, bench);
criterion_main!(benches);
