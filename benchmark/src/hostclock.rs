//! The host's speed, measured beside the workload.
//!
//! The box is a slice of a shared host: what its neighbours do to the
//! core's other hardware thread and to the memory system moves every
//! timing by a quarter over minutes, far more than any bound could
//! tolerate and whatever the code under test does. So while a run
//! measures, one more thread times a fixed **reference kernel** every
//! [`PERIOD`] — a stretch of register arithmetic, then a stretch of
//! dependent loads through a 4 MB table — and every end-to-end timing is
//! reported *at reference speed*: divided by the host factor, which is
//! the two stretches' times over their nominal times, weighted
//! [`ALU_WEIGHT`] to the arithmetic. The kernel lives here, in the
//! benchmark, so a change to the system cannot move it.

use crate::rng::Rng;
use std::sync::mpsc::{self, Receiver, RecvTimeoutError, Sender};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// What the arithmetic and the loads of one slice take on this box when
/// its neighbours are quiet: the reference speed. Frozen; a host factor
/// of 1.1 says the host ran a tenth slower than this while the interval
/// was measured.
pub const NOMINAL_ALU_NS: f64 = 80_000.0;
pub const NOMINAL_MEM_NS: f64 = 100_000.0;
/// Share of the host factor that the arithmetic sets; the loads set the
/// rest. No one weight suits every hour of this host; this one served
/// every workload in every sweep made while it was chosen (README,
/// "Reference speed").
pub const ALU_WEIGHT: f64 = 0.7;

/// Xorshift rounds of one slice.
const ALU_ROUNDS: u64 = 48_000;
/// Dependent loads of one slice.
const CHASE_STEPS: usize = 600;
/// Slots of the table the loads walk (4 MB: beyond L2, and cold again
/// after every [`PERIOD`] of the workload's own traffic).
const SLOTS: usize = 1 << 20;
/// Slices timed per tick; the tick is their median, so a slice that was
/// preempted does not count.
const SLICES: usize = 5;
/// Time between ticks: the kernel takes about 2 % of one CPU.
const PERIOD: Duration = Duration::from_millis(50);

/// One tick: when, and the median time of each stretch, nanoseconds.
#[derive(Debug, Clone, Copy)]
struct Tick {
    at: Instant,
    alu_ns: u32,
    mem_ns: u32,
}

impl Tick {
    fn factor(&self) -> f64 {
        ALU_WEIGHT * f64::from(self.alu_ns) / NOMINAL_ALU_NS
            + (1.0 - ALU_WEIGHT) * f64::from(self.mem_ns) / NOMINAL_MEM_NS
    }
}

/// The reference kernel.
struct Kernel {
    /// One cycle through every slot, in a shuffled order.
    next: Vec<u32>,
    at: u32,
}

fn ns_since(start: Instant) -> u32 {
    u32::try_from(start.elapsed().as_nanos()).unwrap_or(u32::MAX)
}

impl Kernel {
    fn new() -> Kernel {
        // The slots in a shuffled order, each pointing at the one after
        // it: a single cycle, so a walk never falls into a short loop
        // that would stay in cache.
        let mut rng = Rng::new(0x4057, 0);
        let mut order: Vec<u32> = (0..SLOTS as u32).collect();
        for i in (1..SLOTS).rev() {
            order.swap(i, rng.below(i as u64 + 1) as usize);
        }
        let mut next = vec![0u32; SLOTS];
        for i in 0..SLOTS {
            next[order[i] as usize] = order[(i + 1) % SLOTS];
        }
        Kernel { next, at: 0 }
    }

    /// One slice: `(arithmetic, loads)` in nanoseconds.
    fn slice(&mut self) -> (u32, u32) {
        let start = Instant::now();
        let mut x = 0x2545_F491_4F6C_DD1Du64 ^ u64::from(self.at);
        for _ in 0..ALU_ROUNDS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
        }
        std::hint::black_box(x);
        let alu_ns = ns_since(start);
        let start = Instant::now();
        let mut at = self.at;
        for _ in 0..CHASE_STEPS {
            at = self.next[at as usize];
        }
        // The walk goes on from here next time.
        self.at = at;
        (alu_ns, ns_since(start))
    }

    fn tick(&mut self) -> Tick {
        let at = Instant::now();
        let (mut alu, mut mem) = ([0u32; SLICES], [0u32; SLICES]);
        for i in 0..SLICES {
            (alu[i], mem[i]) = self.slice();
        }
        alu.sort_unstable();
        mem.sort_unstable();
        Tick {
            at,
            alu_ns: alu[SLICES / 2],
            mem_ns: mem[SLICES / 2],
        }
    }
}

/// The ticking thread.
pub struct HostClock {
    ticks: Vec<Tick>,
    rx: Receiver<Tick>,
    /// Dropping it stops the thread.
    stop: Option<Sender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl HostClock {
    pub fn start() -> HostClock {
        let (tx, rx) = mpsc::channel();
        let (stop, stopped) = mpsc::channel::<()>();
        let thread = std::thread::spawn(move || {
            let mut kernel = Kernel::new();
            loop {
                if tx.send(kernel.tick()).is_err() {
                    break;
                }
                if stopped.recv_timeout(PERIOD) != Err(RecvTimeoutError::Timeout) {
                    break;
                }
            }
        });
        HostClock {
            ticks: Vec::new(),
            rx,
            stop: Some(stop),
            thread: Some(thread),
        }
    }

    /// Everything measured so far.
    pub fn curve(&mut self) -> HostCurve {
        self.ticks.extend(self.rx.try_iter());
        HostCurve::new(&self.ticks)
    }
}

impl Drop for HostClock {
    fn drop(&mut self) {
        self.stop.take();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Ticks on either side of a moment that its host factor averages: the
/// host's modes last seconds, a single tick is noisy.
const SMOOTH: Duration = Duration::from_millis(250);
/// Step of the sum in [`HostCurve::reference_secs`].
const STEP: Duration = Duration::from_millis(5);

/// The host factor as a function of time: at each tick, the mean factor
/// of the ticks within [`SMOOTH`] of it; between ticks, the nearest
/// tick's. Before the first tick the factor is 1.
pub struct HostCurve {
    ticks: Vec<Tick>,
    /// The smoothed factor at each tick.
    factor: Vec<f64>,
}

impl HostCurve {
    fn new(ticks: &[Tick]) -> HostCurve {
        let (mut lo, mut hi) = (0, 0);
        let mut sum = 0.0;
        let factor = ticks
            .iter()
            .map(|t| {
                while hi < ticks.len() && ticks[hi].at <= t.at + SMOOTH {
                    sum += ticks[hi].factor();
                    hi += 1;
                }
                while ticks[lo].at + SMOOTH < t.at {
                    sum -= ticks[lo].factor();
                    lo += 1;
                }
                sum / (hi - lo) as f64
            })
            .collect();
        HostCurve {
            ticks: ticks.to_vec(),
            factor,
        }
    }

    /// Mean time of the arithmetic and of the loads over `from..to`, each
    /// over its nominal time: what the factor was made of, for the reader.
    pub fn parts(&self, from: Instant, to: Instant) -> (f64, f64) {
        let inside: Vec<&Tick> = self
            .ticks
            .iter()
            .filter(|t| from <= t.at && t.at <= to)
            .collect();
        let n = inside.len().max(1) as f64;
        let mean = |f: fn(&Tick) -> u32| inside.iter().map(|t| f64::from(f(t))).sum::<f64>() / n;
        (
            mean(|t| t.alu_ns) / NOMINAL_ALU_NS,
            mean(|t| t.mem_ns) / NOMINAL_MEM_NS,
        )
    }

    /// The host factor at `t`.
    pub fn at(&self, t: Instant) -> f64 {
        let after = self.ticks.partition_point(|tick| tick.at < t);
        let nearest = match (after.checked_sub(1), self.ticks.get(after)) {
            (Some(before), Some(next)) if t - self.ticks[before].at <= next.at - t => before,
            (_, Some(_)) => after,
            (Some(before), None) => before,
            (None, None) => return 1.0,
        };
        self.factor[nearest]
    }

    /// How long `from..to` was at reference speed, seconds: every
    /// [`STEP`] of it divided by the host factor it ran under.
    pub fn reference_secs(&self, from: Instant, to: Instant) -> f64 {
        let whole = to.saturating_duration_since(from);
        let steps = (whole.as_secs_f64() / STEP.as_secs_f64()).ceil().max(1.0) as u32;
        let step = whole / steps;
        (0..steps)
            .map(|i| step.as_secs_f64() / self.at(from + step * i + step / 2))
            .sum()
    }

    /// Mean host factor over `from..to`: what was measured over what it
    /// would have been at reference speed.
    pub fn mean(&self, from: Instant, to: Instant) -> f64 {
        let reference = self.reference_secs(from, to);
        if reference > 0.0 {
            to.saturating_duration_since(from).as_secs_f64() / reference
        } else {
            self.at(from)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_walk_is_one_cycle_through_every_slot() {
        let k = Kernel::new();
        let (mut at, mut steps) = (0u32, 0usize);
        loop {
            at = k.next[at as usize];
            steps += 1;
            if at == 0 {
                break;
            }
        }
        assert_eq!(steps, SLOTS);
    }

    #[test]
    fn the_curve_smooths_ticks_and_takes_the_nearest() {
        let t0 = Instant::now();
        let at = |ms: u64| t0 + Duration::from_millis(ms);
        assert_eq!(HostCurve::new(&[]).at(t0), 1.0);
        // Two modes a second apart, three ticks each.
        // Arithmetic and loads slow down together here.
        let ticks: Vec<Tick> = [(0, 1.0), (50, 1.1), (100, 1.2)]
            .into_iter()
            .chain([(1_000, 2.0), (1_050, 2.0), (1_100, 2.0)])
            .map(|(ms, factor)| Tick {
                at: at(ms),
                alu_ns: (factor * NOMINAL_ALU_NS) as u32,
                mem_ns: (factor * NOMINAL_MEM_NS) as u32,
            })
            .collect();
        let curve = HostCurve::new(&ticks);
        assert_eq!(curve.factor.len(), 6);
        for early in [0, 60, 100, 400, 549] {
            assert!((curve.at(at(early)) - 1.1).abs() < 1e-9, "at {early} ms");
        }
        for late in [551, 1_000, 1_100, 5_000] {
            assert!((curve.at(at(late)) - 2.0).abs() < 1e-9, "at {late} ms");
        }
        // 550 ms at factor 1.1, then 450 ms at factor 2.
        let reference = curve.reference_secs(at(0), at(1_000));
        assert!(
            (reference - (0.55 / 1.1 + 0.45 / 2.0)).abs() < 1e-6,
            "{reference}"
        );
        assert!((curve.mean(at(0), at(1_000)) - 1.0 / reference).abs() < 1e-9);
        assert!((curve.mean(at(2_000), at(2_000)) - 2.0).abs() < 1e-9);
        let (alu, mem) = curve.parts(at(0), at(200));
        assert!((alu - 1.1).abs() < 1e-4 && (mem - 1.1).abs() < 1e-4);
    }

    #[test]
    fn the_thread_ticks_and_stops() {
        let mut clock = HostClock::start();
        std::thread::sleep(PERIOD * 3);
        let curve = clock.curve();
        assert!(curve.ticks.len() >= 2, "{} ticks", curve.ticks.len());
        let f = curve.at(Instant::now());
        assert!(f > 0.2 && f < 20.0, "factor {f}");
        drop(clock);
    }
}
