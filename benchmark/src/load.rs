//! The load driver: one caller, one phase, closed loop or paced.
//!
//! A closed-loop phase sends the next request when the previous reply
//! arrives. A paced phase sends on a Poisson schedule made from the seed
//! and times each request from when it was *due*, not from when it was
//! sent, so a stall is charged to every request queued behind it.
//! Samples are raw `u32` nanoseconds in per-caller buffers, merged after
//! the phase — no lock is shared with the system under test.

use crate::gen::{Op, Schedule};
use crate::hostclock::HostCurve;
use crate::stats;
use crate::verify::{Answer, KEEP_ONE_IN};
use std::time::{Duration, Instant};

/// A wait this far ahead sleeps; a nearer one yields. Never a bare spin:
/// on two cores a spinning generator starves the pollers it measures.
const SLEEP_AHEAD: Duration = Duration::from_micros(200);
/// Sleep stops this short of the due time; the yield loop covers the rest.
const SLEEP_MARGIN: Duration = Duration::from_micros(120);

/// A paced phase may run this long over to send what came due before its
/// end: a stable queue holds a few requests at any instant, and cutting
/// them off would count truncation as failure.
const GRACE_NS: u64 = 1_000_000_000;

/// One completed call.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// Completion time, microseconds from the phase start.
    pub at_us: u32,
    /// Latency in nanoseconds (saturating at 4.29 s).
    pub lat_ns: u32,
}

/// How a call failed.
#[derive(Debug)]
pub enum Fail {
    /// The system answered, but not with what was asked for (an error
    /// reply, a refused route, the wrong kind): counted, the run goes on.
    Rejected(String),
    /// The transport is gone: the run cannot go on.
    Broken(String),
}

/// What a call returns: the `(request, reply)` pairs to check later —
/// empty unless the driver asked to keep this one.
pub type CallResult = Result<Vec<(Op, Answer)>, Fail>;

/// Everything one caller recorded in one phase.
#[derive(Debug, Default)]
pub struct PhaseLog {
    pub update: Vec<Sample>,
    pub query: Vec<Sample>,
    /// Generator lateness per paced request: time between the moment it
    /// could have been sent (due, and the previous reply in) and the send.
    pub late_ns: Vec<u32>,
    /// Operations attempted (update rows + queries), sent or not.
    pub ops: u64,
    /// Operations rejected, or scheduled but not sent before the phase
    /// ended (a backlog that never cleared).
    pub failed: u64,
    /// Paced requests scheduled inside the phase but never sent.
    pub unsent: u64,
    pub first_failure: Option<String>,
    pub kept: Vec<(Op, Answer)>,
    /// When the phase began and ended for this caller.
    pub span: Option<(Instant, Instant)>,
}

fn ns_since(start: Instant) -> u64 {
    u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
}

fn clamp_u32(v: u64) -> u32 {
    u32::try_from(v).unwrap_or(u32::MAX)
}

pub fn wait_until(deadline: Instant) {
    loop {
        let ahead = deadline.saturating_duration_since(Instant::now());
        if ahead.is_zero() {
            return;
        }
        if ahead >= SLEEP_AHEAD {
            std::thread::sleep(ahead - SLEEP_MARGIN);
        } else {
            std::thread::yield_now();
        }
    }
}

/// Runs one phase of `secs` seconds. `pace` is `None` for a closed loop.
/// Returns `Err` only when the transport broke.
pub fn run_phase(
    call: &mut dyn FnMut(&Op, bool) -> CallResult,
    next_op: &mut dyn FnMut() -> Op,
    mut pace: Option<Schedule>,
    secs: f64,
    expected_calls: usize,
) -> Result<PhaseLog, String> {
    let mut log = PhaseLog {
        update: Vec::with_capacity(expected_calls),
        query: Vec::with_capacity(expected_calls),
        late_ns: Vec::with_capacity(if pace.is_some() { expected_calls } else { 0 }),
        ..PhaseLog::default()
    };
    let end_ns = (secs * 1e9) as u64;
    let start = Instant::now();
    let mut calls = 0u64;
    let mut prev_done_ns = 0u64;
    loop {
        let due_ns = match pace.as_mut() {
            Some(schedule) => {
                let due = schedule.next_due_ns();
                if due >= end_ns {
                    break;
                }
                if ns_since(start) >= end_ns + GRACE_NS {
                    // Arrivals still owed after the grace: the backlog
                    // never cleared. Each counts as one failed operation
                    // and is not generated, so the stream's idea of where
                    // its users are stays true.
                    log.unsent += 1;
                    log.ops += 1;
                    log.failed += 1;
                    continue;
                }
                Some(due)
            }
            None => {
                if ns_since(start) >= end_ns {
                    break;
                }
                None
            }
        };
        // The request is made before its due time, off the clock.
        let op = next_op();
        if let Some(due) = due_ns {
            wait_until(start + Duration::from_nanos(due));
        }
        let keep = calls.is_multiple_of(KEEP_ONE_IN);
        calls += 1;
        let sent_ns = ns_since(start);
        let result = call(&op, keep);
        let done_ns = ns_since(start);
        let from_ns = due_ns.unwrap_or(sent_ns);
        if let Some(due) = due_ns {
            log.late_ns
                .push(clamp_u32(sent_ns.saturating_sub(due.max(prev_done_ns))));
        }
        prev_done_ns = done_ns;
        log.ops += op.ops();
        match result {
            Ok(kept) => {
                let sample = Sample {
                    at_us: clamp_u32(done_ns / 1_000),
                    lat_ns: clamp_u32(done_ns.saturating_sub(from_ns)),
                };
                if op.is_query() {
                    log.query.push(sample);
                } else {
                    log.update.push(sample);
                }
                log.kept.extend(kept);
            }
            Err(Fail::Rejected(why)) => {
                log.failed += op.ops();
                log.first_failure.get_or_insert(why);
            }
            Err(Fail::Broken(why)) => return Err(why),
        }
    }
    log.span = Some((start, Instant::now()));
    Ok(log)
}

/// The interval a phase covered, over all its callers.
pub fn span(logs: &[PhaseLog]) -> Option<(Instant, Instant)> {
    let spans = || logs.iter().filter_map(|l| l.span);
    Some((spans().map(|s| s.0).min()?, spans().map(|s| s.1).max()?))
}

/// Operations per second over the whole phase.
///
/// With `busy` unset: the operations completed over the phase's length
/// (wall clock, all callers together). With `busy` set: operations over
/// the time spent inside calls — for an in-process caller, whose own
/// request generation is not the system's time. With a `host` curve the
/// seconds are seconds at reference speed.
pub fn rate(logs: &[PhaseLog], ops_per_update: u64, busy: bool, host: Option<&HostCurve>) -> f64 {
    let mut ops = 0u64;
    let mut busy_secs = 0.0;
    for log in logs {
        for (samples, per) in [(&log.update, ops_per_update), (&log.query, 1)] {
            ops += per * samples.len() as u64;
            if busy {
                busy_secs += scaled(log, samples, host).sum::<f64>() / 1e9;
            }
        }
    }
    let secs = match (busy, span(logs), host) {
        (true, _, _) => busy_secs,
        (false, Some((from, to)), Some(h)) => h.reference_secs(from, to),
        (false, Some((from, to)), None) => (to - from).as_secs_f64(),
        (false, None, _) => 0.0,
    };
    if secs > 0.0 {
        ops as f64 / secs
    } else {
        0.0
    }
}

/// The latencies of `samples` in nanoseconds: as measured, or with a
/// `host` curve each divided by the host factor it completed under.
fn scaled<'a>(
    log: &'a PhaseLog,
    samples: &'a [Sample],
    host: Option<&'a HostCurve>,
) -> impl Iterator<Item = f64> + 'a {
    let began = log.span.map(|s| s.0);
    samples.iter().map(move |s| {
        let factor = match (host, began) {
            (Some(h), Some(t)) => h.at(t + Duration::from_micros(u64::from(s.at_us))),
            _ => 1.0,
        };
        f64::from(s.lat_ns) / factor
    })
}

/// A latency quantile of one phase.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Quantile {
    pub us: f64,
    /// The quantile reported: lower than asked when the phase held too
    /// few samples to leave ten beyond it.
    pub used: f64,
    pub samples: usize,
}

/// The exact `q` quantile of one kind of latency over the whole phase,
/// microseconds; at reference speed when given a `host` curve.
pub fn quantile_us(logs: &[PhaseLog], query: bool, q: f64, host: Option<&HostCurve>) -> Quantile {
    let mut all: Vec<f64> = logs
        .iter()
        .flat_map(|l| scaled(l, if query { &l.query } else { &l.update }, host))
        .collect();
    all.sort_unstable_by(f64::total_cmp);
    let (ns, used) = stats::percentile_or_lower(&all, q).unwrap_or((0.0, q));
    Quantile {
        us: ns / 1e3,
        used,
        samples: all.len(),
    }
}

/// p99 of generator lateness across callers, microseconds.
pub fn late_p99_us(logs: &[PhaseLog]) -> f64 {
    let mut v: Vec<f64> = logs
        .iter()
        .flat_map(|l| l.late_ns.iter().map(|ns| f64::from(*ns)))
        .collect();
    v.sort_unstable_by(f64::total_cmp);
    stats::percentile_or_lower(&v, 0.99).map_or(0.0, |(ns, _)| ns / 1e3)
}

#[cfg(test)]
mod tests {
    use super::*;
    use lbsp_geom::{Point, SimTime};

    fn op() -> Op {
        Op::Update {
            user: 0,
            pos: Point::new(0.5, 0.5),
            t: SimTime::from_secs(0.0),
        }
    }

    /// A fake server that answers at once, except that its 100th request
    /// stalls 50 ms. Under due-time accounting every request that came
    /// due during the stall carries its share of it; send-time accounting
    /// would show one slow request.
    #[test]
    fn a_stall_is_charged_to_the_requests_queued_behind_it() {
        let mut n = 0u32;
        let mut call = |_: &Op, _: bool| -> CallResult {
            n += 1;
            if n == 100 {
                std::thread::sleep(Duration::from_millis(50));
            }
            Ok(Vec::new())
        };
        let log = run_phase(
            &mut call,
            &mut op,
            Some(Schedule::new(1, 0, 2_000.0)),
            0.4,
            1_000,
        )
        .unwrap();
        let slow = log.update.iter().filter(|s| s.lat_ns >= 20_000_000).count();
        // ~100 requests came due in 50 ms; those due in its first 30 ms
        // waited at least 20 ms.
        assert!(slow >= 30, "only {slow} requests saw the stall");
        // The generator itself was never the cause: lateness excludes the
        // time a request spent queued behind the stalled one.
        let mut late = log.late_ns.clone();
        late.sort_unstable();
        assert!(late[late.len() / 2] < 1_000_000, "median lateness {late:?}");
        assert_eq!(log.failed, 0);
        assert_eq!(log.unsent, 0);
    }

    #[test]
    fn a_backlog_that_never_clears_counts_as_failed() {
        // 1000 requests/s offered to a server that takes 10 ms each: even
        // with the grace second it answers under half of them.
        let mut call = |_: &Op, _: bool| -> CallResult {
            std::thread::sleep(Duration::from_millis(10));
            Ok(Vec::new())
        };
        let log = run_phase(
            &mut call,
            &mut op,
            Some(Schedule::new(2, 0, 1_000.0)),
            0.4,
            400,
        )
        .unwrap();
        assert!(log.unsent > 100, "unsent {}", log.unsent);
        assert_eq!(log.failed, log.unsent);
        assert_eq!(log.ops, log.unsent + log.update.len() as u64);
    }

    #[test]
    fn closed_loop_counts_rejections_and_keeps_one_in_64() {
        let mut n = 0u64;
        let mut call = |o: &Op, keep: bool| -> CallResult {
            n += 1;
            if n.is_multiple_of(10) {
                return Err(Fail::Rejected("no".into()));
            }
            Ok(if keep {
                vec![(o.clone(), Answer::Cloaked(Vec::new()))]
            } else {
                Vec::new()
            })
        };
        let log = run_phase(&mut call, &mut op, None, 0.05, 1_000).unwrap();
        assert!(log.ops > 100);
        assert_eq!(log.failed, log.ops / 10);
        assert_eq!(log.kept.len() as u64, log.ops.div_ceil(KEEP_ONE_IN));
        assert_eq!(log.first_failure.as_deref(), Some("no"));
        let mut broken = |_: &Op, _: bool| -> CallResult { Err(Fail::Broken("gone".into())) };
        assert!(run_phase(&mut broken, &mut op, None, 0.05, 10).is_err());
    }

    fn sample(at_us: u32, lat_ns: u32) -> Sample {
        Sample { at_us, lat_ns }
    }

    #[test]
    fn rate_is_operations_over_the_phase_or_over_busy_time() {
        let t0 = Instant::now();
        let mut log = PhaseLog {
            span: Some((t0, t0 + Duration::from_secs(2))),
            ..PhaseLog::default()
        };
        // 10 update calls of 256 rows and 40 queries, 1 ms inside each.
        log.update.extend([sample(0, 1_000_000); 10]);
        log.query.extend([sample(0, 1_000_000); 40]);
        let other = PhaseLog {
            span: Some((t0 + Duration::from_secs(1), t0 + Duration::from_secs(4))),
            ..PhaseLog::default()
        };
        let logs = [log, other];
        assert_eq!(span(&logs), Some((t0, t0 + Duration::from_secs(4))));
        assert_eq!(rate(&logs, 256, false, None), 2_600.0 / 4.0);
        assert_eq!(rate(&logs, 256, true, None), 2_600.0 / 0.05);
        assert_eq!(rate(&[], 1, false, None), 0.0);
    }

    #[test]
    fn quantiles_are_exact_and_say_when_they_fall_back() {
        let mut log = PhaseLog::default();
        log.update
            .extend((1..=2_000u32).map(|i| sample(i, i * 1_000)));
        let q = quantile_us(&[log], false, 0.95, None);
        assert_eq!((q.us, q.used, q.samples), (1_900.0, 0.95, 2_000));
        // Too few samples for any p95: says which quantile it fell back to.
        let mut small = PhaseLog::default();
        small.query.extend((0..50u32).map(|i| sample(i, 1_000 * i)));
        assert_eq!(quantile_us(&[small], true, 0.95, None).used, 0.5);
    }
}
