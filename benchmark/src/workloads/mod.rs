//! The six workloads. Each is a fixed-size *pass* the runner repeats: the
//! amount of work in a pass never depends on the clock, so the modeled
//! numbers of a pass compare exactly across commits, and a pass checks
//! every op it ran against `expected.json`.

pub mod compile;
pub mod fleet;
pub mod solo;

use std::collections::BTreeMap;

use crate::metrics;
use crate::trace::Tracer;

/// What `--seed` and `--smoke` select.
#[derive(Debug, Clone, Copy)]
pub struct Params {
    pub seed: u64,
    /// Unit-test sizes: seconds of debug-build work for the whole suite.
    pub smoke: bool,
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Host nanoseconds of the timed phase (checking excluded).
    pub wall_ns: u64,
    /// Ops attempted: program runs, modules compiled, move requests,
    /// tenant lineages.
    pub attempted: u64,
    /// Ops whose output was wrong, refused, or ended in a typed error the
    /// workload did not plan.
    pub failed: u64,
    /// Host nanoseconds of each externally timed step (a program run, a
    /// module's compile chain, a `run_batch(1)` slice).
    pub steps_ns: Vec<u32>,
    /// Modeled cycles and counts; must repeat bit-for-bit pass to pass.
    pub exact: BTreeMap<&'static str, u64>,
    /// Host measurements of a pass other than `wall_ns`.
    pub host: BTreeMap<&'static str, f64>,
    /// Why ops failed (first few).
    pub notes: Vec<String>,
}

impl Pass {
    /// Keep the first few reasons ops failed.
    pub fn note(&mut self, why: String) {
        if self.notes.len() < 8 {
            self.notes.push(why);
        }
    }

    /// Record one failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.note(why);
    }

    pub fn add_exact(&mut self, key: &'static str, n: u64) {
        *self.exact.entry(key).or_insert(0) += n;
    }

    /// Fold one finished guest's counters into the modeled numbers.
    pub fn add_guest(&mut self, c: &carat_vm::PerfCounters) {
        self.add_exact("modeled_cycles", c.cycles);
        self.add_exact("instructions", c.instructions);
        self.add_exact("guards_executed", c.guards_executed);
        self.add_exact("tracking_events", c.track_events);
    }
}

/// A workload after set-up: everything before the first timed op is
/// done, `pass` can be called any number of times.
pub trait Workload {
    /// The sizes this instance runs at, for the run header.
    fn sizes(&self) -> String;

    /// Run one fixed-size pass, recording spans into `tracer`.
    fn pass(&mut self, tracer: &mut Tracer) -> Pass;
}

/// Set up the workload called `name`: source generation, compilation,
/// signing — everything before the first timed op.
pub fn setup(name: &str, params: Params) -> Result<Box<dyn Workload>, String> {
    Ok(match name {
        metrics::SOLO_CARAT => Box::new(solo::Solo::carat(params)?),
        metrics::SOLO_TRAD => Box::new(solo::Solo::traditional(params)?),
        metrics::MOVE_STORM => Box::new(solo::Solo::move_storm(params)?),
        metrics::COMPILE => Box::new(compile::Compile::new(params)?),
        metrics::FLEET_SERVE => Box::new(fleet::Serve::new(params)?),
        metrics::FLEET_CHURN => Box::new(fleet::Churn::new(params)?),
        other => return Err(format!("unknown workload `{other}`")),
    })
}

/// splitmix64: the benchmark's only random source, seeded from `--seed`.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform-enough draw from `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Fisher–Yates.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rng_is_a_pure_function_of_seed_and_stream() {
        let draw = |seed, stream| {
            let mut r = Rng::new(seed, stream);
            (0..4).map(|_| r.next()).collect::<Vec<_>>()
        };
        assert_eq!(draw(7, 1), draw(7, 1));
        assert_ne!(draw(7, 1), draw(8, 1));
        assert_ne!(draw(7, 1), draw(7, 2));
        let mut order: Vec<u32> = (0..21).collect();
        Rng::new(3, 0).shuffle(&mut order);
        let mut sorted = order.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..21).collect::<Vec<_>>());
        assert_ne!(order, sorted);
    }
}
