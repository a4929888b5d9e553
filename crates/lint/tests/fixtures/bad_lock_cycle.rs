//! Bad fixture: two functions acquire the same two ranks in opposite
//! orders. Each function is locally plausible; only the whole-program
//! acquisition graph exposes the cycle.

pub struct Pool {
    jobs: TrackedMutex<Vec<u64>>,
    results: TrackedMutex<Vec<u64>>,
}

impl Pool {
    pub fn new() -> Pool {
        Pool {
            jobs: TrackedMutex::new(LockRank::Engine, Vec::new()),
            results: TrackedMutex::new(LockRank::ChaosProxy, Vec::new()),
        }
    }

    pub fn drain(&self) -> usize {
        let held = self.results.lock();
        self.refill();
        held.len()
    }

    fn refill(&self) {
        let mut jobs = self.jobs.lock();
        jobs.push(1);
    }

    pub fn publish(&self) {
        let jobs = self.jobs.lock();
        let mut results = self.results.lock();
        results.extend(jobs.iter().copied());
    }
}
