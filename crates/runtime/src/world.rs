//! The world-stop's cost (paper Figure 8).
//!
//! On a kernel change request, every thread is signalled, dumps its
//! register state, and synchronizes at a barrier before the runtime
//! negotiates and patches; a second barrier precedes resumption. The
//! kernel drives those steps in one fixed order inside one function
//! (`SimKernel::stop_world`), so what a stop leaves behind is only what
//! it cost: a signal and two barriers per thread.

use crate::cost::CostModel;
use std::error::Error;
use std::fmt;

/// Why a world-stop was refused before anything was touched.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorldStopError {
    /// A thread never reached its signal handler (stall/timeout): only
    /// `entered` of `threads` threads arrived before the kernel gave up.
    Stalled {
        /// Threads that did reach their handler.
        entered: usize,
        /// Threads that were signalled.
        threads: usize,
    },
    /// The stop named no thread, so no barrier can ever be reached (a
    /// shared block that nobody has mapped).
    NoThreads,
}

impl fmt::Display for WorldStopError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            WorldStopError::Stalled { entered, threads } => write!(
                f,
                "world-stop stalled: {entered}/{threads} threads reached their handlers"
            ),
            WorldStopError::NoThreads => f.write_str("world-stop over zero threads"),
        }
    }
}

impl Error for WorldStopError {}

/// The cost record of one completed world-stop.
#[derive(Debug, Clone)]
pub struct WorldStop {
    /// Cycles charged to the stop: its signals and barriers, plus any
    /// destination backoff the mover folds in.
    pub cycles: u64,
}

impl WorldStop {
    /// A completed stop over `threads` threads: each is signalled once and
    /// passes both barriers.
    pub fn run_all(threads: usize, cost: &CostModel) -> WorldStop {
        WorldStop {
            cycles: threads as u64
                * (cost.move_signal_per_thread + 2 * cost.move_barrier_per_thread),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_stop_charges_one_signal_and_two_barriers_per_thread() {
        let cost = CostModel::default();
        let w1 = WorldStop::run_all(1, &cost);
        assert_eq!(
            w1.cycles,
            cost.move_signal_per_thread + 2 * cost.move_barrier_per_thread
        );
        assert_eq!(
            WorldStop::run_all(4, &cost).cycles,
            4 * cost.move_signal_per_thread + 2 * 4 * cost.move_barrier_per_thread
        );
        assert_eq!(WorldStop::run_all(8, &cost).cycles, 8 * w1.cycles);
    }
}
