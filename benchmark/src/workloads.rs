//! The four workloads: set-up, phases, and the end-to-end metrics.
//!
//! An end-to-end run is: set-up (timed, repeated, median reported), a
//! discarded warm-up, and one long closed-loop `sat` phase that gives the
//! rate and the latency of a call. Every timing is reported at reference
//! speed (see `hostclock`). The traced run adds paced phases at frozen
//! shares of the rate the seed commit saturated at.

use crate::gen::{Schedule, UserStream, BATCH_ROWS};
use crate::hostclock::{HostClock, HostCurve};
use crate::load::{self, run_phase, PhaseLog};
use crate::report::Report;
use crate::stats;
use crate::sut::{self, EngineFixture, SocketFixture, CONNS};
use crate::verify;
use lbsp_server::PublicObject;
use std::sync::Barrier;
use std::time::Instant;

/// One of the four workloads.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    /// Share of requests that are updates (socket workloads).
    pub update_share: f64,
    /// Nodes behind a router; 0 is one bare node.
    pub routed_nodes: usize,
    /// The seed commit's `sat_rps` on this workload (at reference speed,
    /// like every end-to-end timing), measured once (see README,
    /// "Calibration"), rounded to two digits and frozen: paced phases
    /// offer 20 / 40 / 60 % of it whatever the code under test can do
    /// now, so latencies at "40 %" stay comparable.
    pub frozen_sat_rps: f64,
    /// Frozen latency limits for `load.slo_rate_rps`: four times the seed
    /// commit's p95 at the 40 % rate, microseconds.
    pub update_limit_us: f64,
    pub query_limit_us: f64,
}

pub const ALL: [Workload; 4] = [
    Workload {
        name: "engine_batch",
        update_share: 0.0,
        routed_nodes: 0,
        frozen_sat_rps: 28_000.0,
        update_limit_us: 54_000.0,
        query_limit_us: 39_000.0,
    },
    Workload {
        name: "node_update",
        update_share: 0.9,
        routed_nodes: 0,
        frozen_sat_rps: 32_000.0,
        update_limit_us: 3_000.0,
        query_limit_us: 3_300.0,
    },
    Workload {
        name: "node_query",
        update_share: 0.1,
        routed_nodes: 0,
        frozen_sat_rps: 44_000.0,
        update_limit_us: 3_100.0,
        query_limit_us: 3_300.0,
    },
    Workload {
        name: "cluster_update",
        update_share: 0.9,
        routed_nodes: 2,
        frozen_sat_rps: 15_000.0,
        update_limit_us: 5_300.0,
        query_limit_us: 4_600.0,
    },
];

pub fn by_name(name: &str) -> Option<Workload> {
    ALL.into_iter().find(|w| w.name == name)
}

impl Workload {
    /// Generator lateness (p99) above this makes a paced phase invalid:
    /// the schedule was not the one asked for. Frozen with the rates.
    /// `engine_batch`'s generator makes a 256-row batch between calls and
    /// moves all 100k users every 390th; against calls of 9 ms that is
    /// still a schedule kept.
    pub fn late_cap_us(&self) -> f64 {
        if self.is_engine() {
            2_000.0
        } else {
            500.0
        }
    }
}

/// Offered shares of the frozen saturation rate. Not 25 / 50 / 75 %: a
/// paced generator waits for its due times on the same CPU as the
/// servers, so the knee comes earlier than the closed loop's rate says,
/// and at 75 % a slow minute of the host turns the phase into an overload
/// (p50 of 90 ms, seen) instead of a measurement.
pub const SHARES: [(&str, f64); 3] = [("r20", 0.20), ("r40", 0.40), ("r60", 0.60)];

/// One phase of a run.
#[derive(Debug, Clone)]
pub struct Phase {
    pub name: &'static str,
    pub secs: f64,
    /// Offered rate in calls per second over all callers; `None` is a
    /// closed loop.
    pub rate: Option<f64>,
}

impl Workload {
    pub fn is_engine(&self) -> bool {
        self.name == "engine_batch"
    }

    /// Operations one update call carries.
    fn ops_per_update(&self) -> u64 {
        if self.is_engine() {
            BATCH_ROWS as u64
        } else {
            1
        }
    }

    /// Calls per second that offer `share` of the frozen rate. An
    /// `engine_batch` call cycle is one 256-row batch and 32 queries.
    pub fn call_rate(&self, share: f64) -> f64 {
        let ops_per_call = if self.is_engine() {
            (BATCH_ROWS + crate::gen::QUERIES_PER_BATCH) as f64
                / (1 + crate::gen::QUERIES_PER_BATCH) as f64
        } else {
            1.0
        };
        self.frozen_sat_rps * share / ops_per_call
    }
}

/// Logs of one phase, one per caller.
pub type PhaseLogs = Vec<PhaseLog>;

/// A populated system plus what the checks need. One exists per run, so
/// the size difference between the variants costs nothing.
#[allow(clippy::large_enum_variant)]
pub enum Fixture {
    Socket(SocketFixture),
    Engine(EngineFixture),
}

impl Fixture {
    fn pois(&self) -> &[PublicObject] {
        match self {
            Fixture::Socket(f) => &f.pois,
            Fixture::Engine(f) => &f.pois,
        }
    }

    fn rss_mb(&self) -> f64 {
        match self {
            Fixture::Socket(f) => f.rss_mb,
            Fixture::Engine(f) => f.rss_mb,
        }
    }

    pub fn stop(self) {
        if let Fixture::Socket(f) = self {
            f.sut.stop();
        }
    }
}

fn setup_once(w: &Workload, seed: u64) -> Result<Fixture, String> {
    if w.is_engine() {
        sut::setup_engine(seed).map(Fixture::Engine)
    } else {
        sut::setup_socket(seed, w.routed_nodes, w.update_share).map(Fixture::Socket)
    }
}

/// A system ready to be driven, and what making it cost.
pub struct SetUp {
    pub fixture: Fixture,
    /// When each set-up began and ended.
    pub spans: Vec<(Instant, Instant)>,
    /// Resident set of the first set-up's populated system, megabytes.
    pub rss_mb: f64,
}

/// Set-ups stop repeating once they have taken this long together (but
/// not before the second): the driver's whole schedule has a time cap.
const SETUP_BUDGET_SECS: f64 = 15.0;

/// Sets up up to `times` times, tearing down all but the last, and
/// returns the last fixture with the interval each took: one set-up per
/// run would put a once-per-process cost (page faults, thread start) in
/// the metric.
pub fn setup(w: &Workload, seed: u64, times: usize) -> Result<SetUp, String> {
    let mut spans: Vec<(Instant, Instant)> = Vec::new();
    let mut rss_mb = 0.0;
    let mut last = None;
    for i in 0..times.max(1) {
        let spent: f64 = spans.iter().map(|s| (s.1 - s.0).as_secs_f64()).sum();
        if i >= 2 && spent >= SETUP_BUDGET_SECS {
            break;
        }
        if let Some(f) = last.take() {
            Fixture::stop(f);
        }
        let start = Instant::now();
        last = Some(setup_once(w, seed)?);
        spans.push((start, Instant::now()));
        if i == 0 {
            // Only the first counts: after a tear-down the allocator
            // keeps what it likes, and that is noise.
            rss_mb = last.as_ref().map_or(0.0, Fixture::rss_mb);
        }
    }
    Ok(SetUp {
        fixture: last.expect("at least one set-up ran"),
        spans,
        rss_mb,
    })
}

/// Sample buffers are sized for this many calls per caller up front, so
/// a phase does not reallocate while it measures.
fn expected_calls(w: &Workload, p: &Phase, callers: usize) -> usize {
    let rate = p.rate.unwrap_or(w.call_rate(1.5));
    ((rate * p.secs * 1.2) as usize / callers).max(1_024)
}

/// One connection's part of a socket run: every phase in order, started
/// together with the other callers. A caller whose transport broke still
/// keeps the rendezvous, so the others are not left waiting.
fn drive_connection(
    w: &Workload,
    f: &SocketFixture,
    seed: u64,
    phases: &[Phase],
    conn: usize,
    barrier: &Barrier,
) -> Result<Vec<PhaseLog>, String> {
    let mut client = sut::connect(f.sut.addr());
    let mut stream = UserStream::new(&f.homes, &f.positions, seed, 1, conn, CONNS, w.update_share);
    let mut logs = Vec::new();
    for (i, p) in phases.iter().enumerate() {
        barrier.wait();
        let Ok(live) = client.as_mut() else {
            continue;
        };
        let pace = p
            .rate
            .map(|r| Schedule::new(seed, (i * CONNS + conn) as u64, r / CONNS as f64));
        match run_phase(
            &mut |op, keep| sut::socket_call(live, op, keep),
            &mut || stream.next_op(),
            pace,
            p.secs,
            expected_calls(w, p, CONNS),
        ) {
            Ok(log) => logs.push(log),
            Err(e) => client = Err(format!("phase {}: {e}", p.name)),
        }
    }
    client.map(|_| logs)
}

/// Drives `phases` in order and returns the logs of each, per caller.
pub fn drive(
    w: &Workload,
    fixture: &mut Fixture,
    seed: u64,
    phases: &[Phase],
) -> Result<Vec<PhaseLogs>, String> {
    match fixture {
        Fixture::Engine(f) => {
            let EngineFixture { engine, stream, .. } = f;
            phases
                .iter()
                .enumerate()
                .map(|(i, p)| {
                    let pace = p.rate.map(|r| Schedule::new(seed, i as u64, r));
                    run_phase(
                        &mut |op, keep| sut::engine_call(engine, op, keep),
                        &mut || stream.next_op(),
                        pace,
                        p.secs,
                        expected_calls(w, p, 1),
                    )
                    .map(|log| vec![log])
                })
                .collect()
        }
        Fixture::Socket(f) => {
            let barrier = Barrier::new(CONNS);
            let per_caller: Vec<Result<Vec<PhaseLog>, String>> = std::thread::scope(|s| {
                let handles: Vec<_> = (0..CONNS)
                    .map(|c| {
                        let (f, barrier) = (&*f, &barrier);
                        s.spawn(move || drive_connection(w, f, seed, phases, c, barrier))
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().unwrap_or_else(|_| Err("caller panicked".into())))
                    .collect()
            });
            let mut by_phase: Vec<PhaseLogs> = phases.iter().map(|_| Vec::new()).collect();
            for caller in per_caller {
                for (i, log) in caller?.into_iter().enumerate() {
                    by_phase[i].push(log);
                }
            }
            Ok(by_phase)
        }
    }
}

/// Totals over every phase of a run, checks included.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    pub violations: u64,
    pub notes: Vec<String>,
}

/// Counts operations and checks every kept reply, off the clock.
pub fn tally(fixture: &Fixture, phases: &[Phase], logs: &[PhaseLogs]) -> Tally {
    let mut t = Tally {
        // The scripted prefix passed, or set-up would have failed.
        attempted: sut::PREFIX_REQUESTS as u64,
        ..Tally::default()
    };
    for (phase, callers) in phases.iter().zip(logs) {
        for log in callers {
            t.attempted += log.ops;
            t.failed += log.failed;
            if log.unsent > 0 {
                t.notes.push(format!(
                    "{}: {} arrivals never sent (backlog did not clear)",
                    phase.name, log.unsent
                ));
            }
            if let Some(why) = &log.first_failure {
                t.notes
                    .push(format!("{}: first rejection: {why}", phase.name));
            }
            for (op, answer) in &log.kept {
                if let Err(why) = verify::check(op, answer, fixture.pois()) {
                    t.violations += 1;
                    if t.violations <= 3 {
                        t.notes.push(format!("{}: VIOLATION: {why}", phase.name));
                    }
                }
            }
        }
    }
    t.failed += t.violations;
    t
}

/// The tail quantile every latency metric reports. p99 was the first
/// choice; five runs of the seed commit put its run-to-run range far
/// above any usable bound on this box, so the tail is p95 — decided
/// once, here.
pub const TAIL: f64 = 0.95;

/// Latency quantiles of one phase as `(update p50, update p95, query p50,
/// query p95)` in microseconds — at reference speed when given a `host`
/// curve, else as measured — with a note per kind giving the sample count
/// and any quantile that had to be lowered for want of samples.
pub fn latencies(
    phase: &Phase,
    logs: &[PhaseLog],
    host: Option<&HostCurve>,
    notes: &mut Vec<String>,
) -> [f64; 4] {
    let mut out = [0.0; 4];
    for (i, (kind, query)) in [("update", false), ("query", true)].into_iter().enumerate() {
        let p50 = load::quantile_us(logs, query, 0.50, host);
        let tail = load::quantile_us(logs, query, TAIL, host);
        out[i * 2] = p50.us;
        out[i * 2 + 1] = tail.us;
        let lowered = if tail.used < TAIL {
            format!(
                "; p95 reported at p{:.0} for want of samples",
                tail.used * 100.0
            )
        } else {
            String::new()
        };
        notes.push(format!(
            "{}: {kind} latency over {} samples{lowered}",
            phase.name, tail.samples
        ));
    }
    out
}

/// Set-up repetitions for a run of `secs` seconds (a smoke run sets up
/// once).
pub fn setup_times(secs: f64) -> usize {
    if secs >= 5.0 {
        3
    } else {
        1
    }
}

/// Share of an end-to-end run spent warming up, discarded.
const WARMUP_SHARE: f64 = 0.10;

/// The end-to-end run: `--trace 0`.
pub fn run_end_to_end(w: &Workload, seed: u64, secs: f64) -> Result<Report, String> {
    let mut clock = HostClock::start();
    let SetUp {
        mut fixture,
        spans,
        rss_mb,
    } = setup(w, seed, setup_times(secs))?;
    let phases = [
        Phase {
            name: "warmup",
            secs: secs * WARMUP_SHARE,
            rate: None,
        },
        Phase {
            name: "sat",
            secs: secs * (1.0 - WARMUP_SHARE),
            rate: None,
        },
    ];
    let logs = drive(w, &mut fixture, seed, &phases)?;
    let mut t = tally(&fixture, &phases, &logs);
    Fixture::stop(fixture);
    let (phase, sat) = (&phases[1], &logs[1]);
    let host = clock.curve();
    drop(clock);

    let setup_s = stats::median(
        &spans
            .iter()
            .map(|s| host.reference_secs(s.0, s.1))
            .collect::<Vec<_>>(),
    )
    .unwrap_or(0.0);
    let sat_rps = load::rate(sat, w.ops_per_update(), w.is_engine(), Some(&host));
    let lat = latencies(phase, sat, Some(&host), &mut t.notes);
    // The same as the clock on the wall had them, for the reader.
    let raw = latencies(phase, sat, None, &mut Vec::new());
    let factors: Vec<f64> = spans.iter().map(|s| host.mean(s.0, s.1)).collect();
    let setups: Vec<f64> = spans.iter().map(|s| (s.1 - s.0).as_secs_f64()).collect();
    let (sat_factor, parts) = load::span(sat).map_or((1.0, (1.0, 1.0)), |(from, to)| {
        (host.mean(from, to), host.parts(from, to))
    });
    t.notes.push(format!(
        "host factor {:.4} over sat (arithmetic {:.3}, loads {:.3}), {} over the set-ups; \
         as measured: set-ups {} s, sat_rps {:.1}, update p50/p95 {:.1}/{:.1} us, \
         query p50/p95 {:.1}/{:.1} us",
        sat_factor,
        parts.0,
        parts.1,
        list(&factors, 3),
        list(&setups, 3),
        load::rate(sat, w.ops_per_update(), w.is_engine(), None),
        raw[0],
        raw[1],
        raw[2],
        raw[3]
    ));
    Ok(Report {
        workload: w.name.to_string(),
        seed,
        trace: false,
        metrics: vec![
            ("setup_s".into(), setup_s),
            ("sat_rps".into(), sat_rps),
            ("update_p50_us".into(), lat[0]),
            ("update_p95_us".into(), lat[1]),
            ("query_p50_us".into(), lat[2]),
            ("query_p95_us".into(), lat[3]),
            ("setup_rss_mb".into(), rss_mb),
        ],
        attempted: t.attempted,
        failed: t.failed,
        correct: t.violations == 0,
        valid: true,
        notes: t.notes,
    })
}

fn list(values: &[f64], digits: usize) -> String {
    let parts: Vec<String> = values.iter().map(|v| format!("{v:.digits$}")).collect();
    parts.join(" / ")
}
