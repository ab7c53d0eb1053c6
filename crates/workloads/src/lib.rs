//! # carat-workloads — the benchmark suite
//!
//! Twenty-one Cm programs standing in for the paper's Mantevo, NAS, PARSEC
//! and SPEC2017 benchmarks (see DESIGN.md for the substitution argument).
//! What each reproduces is its model's *memory behavior*: footprint,
//! access pattern, allocation rate, and escape density.
//!
//! ## Example
//!
//! ```
//! use carat_workloads::{all_workloads, Scale};
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let suite = all_workloads();
//! assert!(suite.len() >= 16);
//! let hpccg = suite.iter().find(|w| w.name == "hpccg").unwrap();
//! let module = hpccg.module(Scale::Test)?;
//! assert!(module.main().is_some());
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod programs;

use carat_frontend::{compile_cm, CmError};
use carat_ir::Module;

/// Problem-size preset.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Scale {
    /// Tiny: unit-test sized (sub-second interpreted, debug builds).
    Test,
    /// Small: quick benchmark runs.
    #[default]
    Small,
    /// Full: the sizes the committed EXPERIMENTS.md numbers use.
    Full,
}

/// One benchmark program.
pub struct Workload {
    /// Suite-unique name (lowercase, matching the paper's figures).
    pub name: &'static str,
    /// The benchmark it models and that benchmark's suite.
    pub models: &'static str,
    /// One-line memory-behavior characterization.
    pub behavior: &'static str,
    source: fn(Scale) -> String,
}

impl std::fmt::Debug for Workload {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Workload({})", self.name)
    }
}

impl Workload {
    /// The Cm source at the given scale.
    pub fn source(&self, scale: Scale) -> String {
        (self.source)(scale)
    }

    /// Compile to an IR module.
    ///
    /// # Errors
    ///
    /// Front-end failures (a workload bug).
    pub fn module(&self, scale: Scale) -> Result<Module, CmError> {
        compile_cm(self.name, &self.source(scale))
    }
}

macro_rules! workload {
    ($name:literal, $models:literal, $behavior:literal, |$s:ident| $src:expr) => {
        Workload {
            name: $name,
            models: $models,
            behavior: $behavior,
            source: {
                fn f($s: Scale) -> String {
                    $src
                }
                f
            },
        }
    };
}

/// The full suite, in the paper's figure order.
pub fn all_workloads() -> Vec<Workload> {
    use programs::*;
    vec![
        workload!(
            "hpccg",
            "HPCCG (Mantevo)",
            "strided sparse-CG sweeps over medium arrays",
            |s| {
                match s {
                    Scale::Test => hpccg(256, 3),
                    Scale::Small => hpccg(4096, 10),
                    Scale::Full => hpccg(16384, 25),
                }
            }
        ),
        workload!(
            "cg",
            "CG (NAS)",
            "indirect sparse matvec over a large footprint",
            |s| {
                match s {
                    Scale::Test => cg(128, 4, 2),
                    Scale::Small => cg(2048, 8, 5),
                    Scale::Full => cg(8192, 12, 10),
                }
            }
        ),
        workload!(
            "ep",
            "EP (NAS)",
            "pure compute, almost no memory traffic",
            |s| {
                match s {
                    Scale::Test => ep(2_000),
                    Scale::Small => ep(100_000),
                    Scale::Full => ep(600_000),
                }
            }
        ),
        workload!(
            "ft",
            "FT (NAS)",
            "global bss arrays, scatter + strided butterflies",
            |s| {
                match s {
                    Scale::Test => ft(8, 2),
                    Scale::Small => ft(13, 4),
                    Scale::Full => ft(16, 6),
                }
            }
        ),
        workload!(
            "lu",
            "LU (NAS)",
            "dense triangular sweeps, perfectly regular",
            |s| {
                match s {
                    Scale::Test => lu(24, 1),
                    Scale::Small => lu(64, 2),
                    Scale::Full => lu(128, 3),
                }
            }
        ),
        workload!(
            "blackscholes",
            "blackscholes (PARSEC)",
            "streaming array-of-structs, transcendental heavy",
            |s| {
                match s {
                    Scale::Test => blackscholes(128, 2),
                    Scale::Small => blackscholes(2048, 10),
                    Scale::Full => blackscholes(8192, 25),
                }
            }
        ),
        workload!(
            "bodytrack",
            "bodytrack (PARSEC)",
            "multi-pass image pyramid with per-frame temporaries",
            |s| {
                match s {
                    Scale::Test => bodytrack(16, 3),
                    Scale::Small => bodytrack(64, 12),
                    Scale::Full => bodytrack(128, 30),
                }
            }
        ),
        workload!(
            "canneal",
            "canneal (PARSEC)",
            "uniform random swaps — worst-case locality",
            |s| {
                match s {
                    Scale::Test => canneal(1024, 2_000),
                    Scale::Small => canneal(65_536, 50_000),
                    Scale::Full => canneal(1_048_576, 250_000),
                }
            }
        ),
        workload!(
            "fluidanimate",
            "fluidanimate (PARSEC)",
            "grid neighbor sweeps with double buffering",
            |s| {
                match s {
                    Scale::Test => fluidanimate(16, 3),
                    Scale::Small => fluidanimate(96, 10),
                    Scale::Full => fluidanimate(256, 20),
                }
            }
        ),
        workload!(
            "freqmine",
            "freqmine (PARSEC)",
            "FP-tree of small allocations, child-list escapes",
            |s| {
                match s {
                    Scale::Test => freqmine(200, 4),
                    Scale::Small => freqmine(4_000, 6),
                    Scale::Full => freqmine(20_000, 8),
                }
            }
        ),
        workload!(
            "streamcluster",
            "streamcluster (PARSEC)",
            "early escape burst, then pure distance compute",
            |s| {
                match s {
                    Scale::Test => streamcluster(32, 8, 4),
                    Scale::Small => streamcluster(256, 16, 20),
                    Scale::Full => streamcluster(1024, 32, 40),
                }
            }
        ),
        workload!(
            "swaptions",
            "swaptions (PARSEC)",
            "many short-lived allocations — tracking-memory outlier",
            |s| {
                match s {
                    Scale::Test => swaptions(50, 32),
                    Scale::Small => swaptions(2_000, 64),
                    Scale::Full => swaptions(10_000, 128),
                }
            }
        ),
        workload!(
            "x264",
            "x264 (PARSEC/SPEC)",
            "16x16 block SADs + conditional copies",
            |s| {
                match s {
                    Scale::Test => x264(64, 32, 2),
                    Scale::Small => x264(320, 192, 4),
                    Scale::Full => x264(640, 384, 8),
                }
            }
        ),
        workload!(
            "deepsjeng",
            "deepsjeng_s (SPEC2017)",
            "random transposition-table probes",
            |s| {
                match s {
                    Scale::Test => deepsjeng(10, 5_000),
                    Scale::Small => deepsjeng(16, 150_000),
                    Scale::Full => deepsjeng(20, 800_000),
                }
            }
        ),
        workload!(
            "lbm",
            "lbm_s (SPEC2017)",
            "huge working set swept linearly every step",
            |s| {
                match s {
                    Scale::Test => lbm(4_096, 3),
                    Scale::Small => lbm(262_144, 6),
                    Scale::Full => lbm(2_097_152, 8),
                }
            }
        ),
        workload!(
            "mcf",
            "mcf_s (SPEC2017)",
            "pointer-chasing node/arc lists — unoptimizable guards",
            |s| {
                match s {
                    Scale::Test => mcf(128, 3, 3),
                    Scale::Small => mcf(2_048, 6, 10),
                    Scale::Full => mcf(8_192, 8, 25),
                }
            }
        ),
        workload!(
            "nab",
            "nab_s (SPEC2017)",
            "one block accumulating many escapes (Fig 5 outlier)",
            |s| {
                match s {
                    Scale::Test => nab(128, 5),
                    Scale::Small => nab(2_048, 25),
                    Scale::Full => nab(8_192, 60),
                }
            }
        ),
        workload!(
            "namd",
            "namd_r (SPEC2017)",
            "pairwise force loops, compute bound",
            |s| {
                match s {
                    Scale::Test => namd(64, 2),
                    Scale::Small => namd(512, 5),
                    Scale::Full => namd(1_024, 12),
                }
            }
        ),
        workload!(
            "xalancbmk",
            "xalancbmk_s (SPEC2017)",
            "DOM tree of small nodes, repeated traversals",
            |s| {
                match s {
                    Scale::Test => xalancbmk(3, 4, 3),
                    Scale::Small => xalancbmk(4, 6, 10),
                    Scale::Full => xalancbmk(4, 8, 20),
                }
            }
        ),
        workload!(
            "xz",
            "xz_s (SPEC2017)",
            "byte-level match copy over char buffers",
            |s| {
                match s {
                    Scale::Test => xz(4_096, 2),
                    Scale::Small => xz(131_072, 4),
                    Scale::Full => xz(1_048_576, 6),
                }
            }
        ),
        workload!(
            "dedup",
            "dedup (PARSEC)",
            "4 threads hashing disjoint slices of a shared buffer",
            |s| {
                match s {
                    Scale::Test => dedup(64, 8),
                    Scale::Small => dedup(512, 32),
                    Scale::Full => dedup(2_048, 64),
                }
            }
        ),
    ]
}

/// Find a workload by name.
pub fn by_name(name: &str) -> Option<Workload> {
    all_workloads().into_iter().find(|w| w.name == name)
}

/// Compile the fleet tenant at `scale`: the microservice-sized program
/// behind the `fleet_scaling` bench's 10/100/1k/10k curve. Deliberately
/// tiny — a few dozen heap cells, a pointer-cell array (live escapes for
/// the compaction victim scan), and a multi-slice instruction count —
/// so the bench measures the *process subsystem* (context switches,
/// slab recycling, admission), not the tenant's own compute. `seed`
/// differentiates tenants compiled from one shared module call-site.
///
/// # Errors
///
/// Front-end failures (a workload bug).
pub fn fleet_tenant(scale: Scale, seed: i64) -> Result<Module, CmError> {
    let (slots, passes) = match scale {
        Scale::Test => (16, 4),
        Scale::Small => (32, 16),
        Scale::Full => (32, 32),
    };
    compile_cm("fleet_tenant", &programs::fleet_tenant(slots, passes, seed))
}

/// Compile the chaos tenant at `scale`: the `chaos_soak` bench's storm
/// subject. The fleet tenant's storm-hardened sibling — its malloc
/// sites stay hot through the whole run (so `TenantOom` injections can
/// land anywhere in a tenant's life) and its pointer list keeps live
/// escapes in every pass (move/compaction fault material). The result
/// is a pure function of the inputs, so a supervised respawn-from-image
/// must reproduce it bit-exactly.
///
/// # Errors
///
/// Front-end failures (a workload bug).
pub fn chaos_tenant(scale: Scale, seed: i64) -> Result<Module, CmError> {
    let (slots, passes) = match scale {
        Scale::Test => (16, 6),
        Scale::Small => (32, 16),
        Scale::Full => (32, 32),
    };
    compile_cm("chaos_tenant", &programs::chaos_tenant(slots, passes, seed))
}

/// Compile the I/O server tenant at `scale`: the `io_latency` bench's
/// request/response worker. Its global #0 (`int* dmabuf`) is the DMA
/// buffer pointer the host publishes with `shared_map` — the block the
/// modeled device reads and writes must be **pinned** while requests
/// are in flight, so this tenant is also the chaos battery's subject
/// for "storm compaction never moves a pinned cell". `seed`
/// differentiates tenants sharing one module.
///
/// # Errors
///
/// Front-end failures (a workload bug).
pub fn io_server(scale: Scale, seed: i64) -> Result<Module, CmError> {
    let (words, passes) = match scale {
        Scale::Test => (16, 4),
        Scale::Small => (64, 16),
        Scale::Full => (256, 32),
    };
    compile_cm("io_server", &programs::io_server(words, passes, seed))
}

/// The multi-tenant server-mix: the tenants the multi-process bench
/// co-schedules on one kernel. Deliberately heterogeneous — pure compute
/// (`ep`), pointer chasing (`mcf`), allocation/churn (`dedup`),
/// indirect sparse sweeps (`cg`), streaming (`lbm`), and a
/// medium-footprint solver (`hpccg`) — the shape of a consolidated
/// server, so scheduling effects are not dominated by one memory
/// behavior.
pub const SERVER_MIX: [&str; 6] = ["hpccg", "cg", "ep", "mcf", "lbm", "dedup"];

/// Compile the server-mix tenants at `scale`, in scheduling (pid) order.
///
/// # Errors
///
/// Front-end failures (a workload bug).
pub fn server_mix(scale: Scale) -> Result<Vec<(&'static str, Module)>, CmError> {
    SERVER_MIX
        .iter()
        .map(|&n| {
            let w = by_name(n).expect("server-mix names exist in the suite");
            w.module(scale).map(|m| (n, m))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_core::{CaratCompiler, CompileOptions, OptPreset};
    use carat_vm::{Vm, VmConfig};

    #[test]
    fn suite_is_complete_and_named_uniquely() {
        let ws = all_workloads();
        assert!(ws.len() >= 16, "suite has at least 16 workloads");
        let mut names: Vec<_> = ws.iter().map(|w| w.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), ws.len(), "names are unique");
        assert!(by_name("mcf").is_some());
        assert!(by_name("nope").is_none());
    }

    /// Lowering keeps per-block predecessor lists in its function
    /// builder instead of rebuilding the CFG per variable read; in debug
    /// builds every list it consults is checked against
    /// `Function::predecessors`. This drives that check over every
    /// source the repository compiles.
    #[test]
    fn every_source_lowers_with_consistent_predecessor_lists() {
        for scale in [Scale::Test, Scale::Small] {
            for w in all_workloads() {
                w.module(scale)
                    .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            }
            for build in [fleet_tenant, chaos_tenant, io_server] {
                for seed in 0..3 {
                    build(scale, seed).unwrap();
                }
            }
        }
    }

    #[test]
    fn server_mix_is_valid_and_heterogeneous() {
        let mix = server_mix(Scale::Test).unwrap();
        assert_eq!(mix.len(), SERVER_MIX.len());
        let mut names: Vec<_> = mix.iter().map(|(n, _)| *n).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), SERVER_MIX.len(), "tenants are distinct");
        for (n, m) in &mix {
            assert!(m.main().is_some(), "{n} has a main");
        }
    }

    #[test]
    fn fleet_tenant_compiles_runs_and_seeds_differentiate() {
        let a = fleet_tenant(Scale::Test, 1).unwrap();
        let b = fleet_tenant(Scale::Test, 2).unwrap();
        let ra = Vm::new(a, VmConfig::default()).unwrap().run().unwrap();
        let rb = Vm::new(b, VmConfig::default()).unwrap().run().unwrap();
        assert_ne!(ra.ret, rb.ret, "seeds differentiate tenants");
    }

    #[test]
    fn io_server_compiles_runs_and_tolerates_unmapped_buffer() {
        // Unhosted (dmabuf never published) the null guard skips the
        // scan: the tenant must still finish deterministically, since
        // the differential scheduler test runs it without a device.
        let a = io_server(Scale::Test, 3).unwrap();
        let b = io_server(Scale::Test, 4).unwrap();
        let ra = Vm::new(a.clone(), VmConfig::default())
            .unwrap()
            .run()
            .unwrap();
        let ra2 = Vm::new(a, VmConfig::default()).unwrap().run().unwrap();
        let rb = Vm::new(b, VmConfig::default()).unwrap().run().unwrap();
        assert_eq!(ra.ret, ra2.ret, "deterministic");
        assert_ne!(ra.ret, rb.ret, "seeds differentiate tenants");
    }

    #[test]
    fn every_workload_compiles_at_test_scale() {
        for w in all_workloads() {
            w.module(Scale::Test)
                .unwrap_or_else(|e| panic!("{} failed to compile: {e}", w.name));
        }
    }

    #[test]
    fn every_workload_compiles_at_all_scales() {
        for w in all_workloads() {
            for s in [Scale::Small, Scale::Full] {
                w.module(s)
                    .unwrap_or_else(|e| panic!("{} failed at {s:?}: {e}", w.name));
            }
        }
    }

    #[test]
    fn every_workload_runs_and_is_deterministic() {
        for w in all_workloads() {
            let m = w.module(Scale::Test).unwrap();
            let r1 = Vm::new(m.clone(), VmConfig::default())
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{} failed to run: {e}", w.name));
            let r2 = Vm::new(m, VmConfig::default()).unwrap().run().unwrap();
            assert_eq!(r1.ret, r2.ret, "{} must be deterministic", w.name);
        }
    }

    #[test]
    fn instrumentation_preserves_semantics_for_every_workload() {
        for w in all_workloads() {
            let base = w.module(Scale::Test).unwrap();
            let rb = Vm::new(base.clone(), VmConfig::default())
                .unwrap()
                .run()
                .unwrap();
            let inst = CaratCompiler::new(CompileOptions::default())
                .compile(base)
                .unwrap_or_else(|e| panic!("{} failed to instrument: {e}", w.name))
                .module;
            let ri = Vm::new(inst, VmConfig::default())
                .unwrap()
                .run()
                .unwrap_or_else(|e| panic!("{} faulted under CARAT: {e}", w.name));
            assert_eq!(rb.ret, ri.ret, "{}: CARAT changed the result", w.name);
        }
    }

    #[test]
    fn guard_optimization_reduces_dynamic_guards_on_regular_workloads() {
        for name in ["hpccg", "lu", "lbm"] {
            let w = by_name(name).unwrap();
            let base = w.module(Scale::Test).unwrap();
            let naive = CaratCompiler::new(CompileOptions::guards_only(OptPreset::None))
                .compile(base.clone())
                .unwrap()
                .module;
            let optd = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
                .compile(base)
                .unwrap()
                .module;
            let rn = Vm::new(naive, VmConfig::default()).unwrap().run().unwrap();
            let ro = Vm::new(optd, VmConfig::default()).unwrap().run().unwrap();
            assert_eq!(rn.ret, ro.ret, "{name}: opts changed semantics");
            assert!(
                ro.counters.guards_executed < rn.counters.guards_executed,
                "{name}: opts should cut dynamic guards ({} -> {})",
                rn.counters.guards_executed,
                ro.counters.guards_executed
            );
        }
    }
}
