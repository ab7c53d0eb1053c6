//! Performance counters collected during a run — the raw numbers behind
//! every figure of the evaluation.

use carat_ir::Opcode;
use carat_runtime::MoveCostBreakdown;

/// Counters for one program execution.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct PerfCounters {
    /// Instructions retired (IR instructions, excluding injected
    /// instrumentation when classifying, see `instrumentation_insts`).
    pub instructions: u64,
    /// Of which: guard + tracking intrinsics and their operand setup.
    pub instrumentation_insts: u64,
    /// Total simulated cycles.
    pub cycles: u64,
    /// Loads executed.
    pub loads: u64,
    /// Stores executed.
    pub stores: u64,
    /// Calls executed.
    pub calls: u64,

    // --- guards ---
    /// Guard checks executed.
    pub guards_executed: u64,
    /// Cycles spent in guard checks.
    pub guard_cycles: u64,
    /// Probe steps across all software guard checks.
    pub guard_probes: u64,
    /// Guard checks the threaded tier removed with a static in-region
    /// proof (counted per dynamic guard the fused stream would have run).
    pub guards_elided: u64,
    /// Widened range-guards executed at loop preheaders by the threaded
    /// tier, each standing in for a whole loop trip of per-access guards.
    pub guards_hoisted: u64,

    // --- tracking ---
    /// Tracking callbacks executed (alloc/free/escape enqueue).
    pub track_events: u64,
    /// Cycles spent in tracking (including batch flushes).
    pub track_cycles: u64,

    // --- translation (baseline mode) ---
    /// Cycles spent in address translation beyond the L1 path.
    pub translation_cycles: u64,

    // --- moves ---
    /// Stack expansions the kernel performed, seamless to the guest.
    pub stack_expansions: u64,
    /// Ranges paged out to swap.
    pub swap_outs: u64,
    /// Poison faults serviced by paging data back in.
    pub swap_ins: u64,
    /// Page-move episodes driven.
    pub moves: u64,
    /// Cycles spent in move protocol + patching + copy.
    pub move_cycles: u64,
    /// Summed per-phase move costs (Table 3 numerators).
    pub move_breakdown: MoveBreakdownSum,

    // --- instruction mix ---
    /// Executed instructions by opcode (phi batches count once, matching
    /// `instructions`). Recorded identically by both execution engines.
    pub opcode_mix: OpcodeMix,
}

/// Per-opcode executed-instruction histogram.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct OpcodeMix(pub [u64; Opcode::COUNT]);

impl OpcodeMix {
    /// Count one executed instruction of `op`.
    #[inline]
    pub fn record(&mut self, op: Opcode) {
        self.0[op.index()] += 1;
    }

    /// The count for `op`.
    pub fn count(&self, op: Opcode) -> u64 {
        self.0[op.index()]
    }

    /// Total instructions recorded.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }

    /// `(opcode, count)` pairs with nonzero counts, descending by count.
    pub fn sorted(&self) -> Vec<(Opcode, u64)> {
        let mut v: Vec<(Opcode, u64)> = Opcode::ALL
            .iter()
            .map(|&op| (op, self.count(op)))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.index().cmp(&b.0.index())));
        v
    }
}

/// Accumulated move-phase costs plus counts for averaging.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MoveBreakdownSum {
    /// Σ page-expand cycles.
    pub page_expand: u64,
    /// Σ patch-gen-and-exec cycles.
    pub patch_gen_exec: u64,
    /// Σ register-patch cycles.
    pub register_patch: u64,
    /// Σ allocation-and-movement cycles.
    pub alloc_and_move: u64,
    /// Episodes summed.
    pub episodes: u64,
}

impl MoveBreakdownSum {
    /// Fold in one episode.
    pub fn add(&mut self, b: &MoveCostBreakdown) {
        self.page_expand += b.page_expand;
        self.patch_gen_exec += b.patch_gen_exec;
        self.register_patch += b.register_patch;
        self.alloc_and_move += b.alloc_and_move;
        self.episodes += 1;
    }

    /// Per-episode averages `(expand, patch, regs, alloc_move)`.
    pub fn averages(&self) -> (f64, f64, f64, f64) {
        if self.episodes == 0 {
            return (0.0, 0.0, 0.0, 0.0);
        }
        let n = self.episodes as f64;
        (
            self.page_expand as f64 / n,
            self.patch_gen_exec as f64 / n,
            self.register_patch as f64 / n,
            self.alloc_and_move as f64 / n,
        )
    }
}

impl PerfCounters {
    /// Simulated wall-clock seconds at `freq_hz`.
    pub fn seconds(&self, freq_hz: f64) -> f64 {
        self.cycles as f64 / freq_hz
    }

    /// Runtime normalized against a baseline run (the y-axis of Figures 3,
    /// 6, 7 and 9).
    pub fn normalized_to(&self, baseline: &PerfCounters) -> f64 {
        if baseline.cycles == 0 {
            return 0.0;
        }
        self.cycles as f64 / baseline.cycles as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn normalization() {
        let base = PerfCounters {
            cycles: 1000,
            ..PerfCounters::default()
        };
        let run = PerfCounters {
            cycles: 1100,
            ..PerfCounters::default()
        };
        assert!((run.normalized_to(&base) - 1.1).abs() < 1e-12);
        assert_eq!(run.normalized_to(&PerfCounters::default()), 0.0);
    }

    #[test]
    fn breakdown_averages() {
        let mut s = MoveBreakdownSum::default();
        s.add(&MoveCostBreakdown {
            page_expand: 10,
            patch_gen_exec: 20,
            register_patch: 2,
            alloc_and_move: 100,
        });
        s.add(&MoveCostBreakdown {
            page_expand: 30,
            patch_gen_exec: 40,
            register_patch: 4,
            alloc_and_move: 200,
        });
        let (e, p, r, m) = s.averages();
        assert_eq!((e, p, r, m), (20.0, 30.0, 3.0, 150.0));
    }

    #[test]
    fn seconds_at_frequency() {
        let c = PerfCounters {
            cycles: 2_300_000_000,
            ..PerfCounters::default()
        };
        assert!((c.seconds(2.3e9) - 1.0).abs() < 1e-12);
    }
}
