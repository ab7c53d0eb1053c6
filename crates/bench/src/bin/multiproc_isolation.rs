//! # multiproc_isolation — the multi-tenant process-model benchmark
//!
//! Runs the six-workload server mix as concurrent processes on one
//! [`MultiVm`] and measures the costs the process subsystem adds:
//!
//! * **Context switches** — kernel cycles per switch under CARAT
//!   (register state only, no translation state to flush) versus
//!   traditional paging (modeled TLB flush + ASID rollover per switch).
//!   The headline claim: the CARAT figure is strictly below.
//! * **Isolation-guard overhead** — per-tenant slowdown of the guarded
//!   mix over the same mix uninstrumented (guards are what enforce
//!   cross-process isolation in CARAT; paging gets it from hardware).
//! * **Cross-process shared-region moves** — cycles per journaled move
//!   of a block mapped into 2/4/6 owners, every owner patched.
//! * **Differential check** — every tenant's [`PerfCounters`] under
//!   time slicing must be bit-identical to a sequential run; any
//!   divergence fails the run (nonzero exit — CI smoke semantics).
//!
//! Emits `BENCH_multiproc.json` (override with `--out PATH`).
//!
//! [`PerfCounters`]: carat_vm::PerfCounters

use std::process::ExitCode;

use carat_bench::{
    compile, fixed, geomean, instrument, obj, print_table, Args, Json, Report, Variant,
};
use carat_ir::{GlobalInit, Module, ModuleBuilder, Type};
use carat_kernel::Pid;
use carat_runtime::CostModel;
use carat_vm::{MultiVm, MultiVmConfig, ProcOutcome, ProcReport, ProcSpec, RunResult, VmConfig};
use carat_workloads::{by_name, Scale, SERVER_MIX};

/// Shared-kernel arena: six default capsules round up to 64 MiB buddy
/// blocks each, so the mix needs 384 MiB of managed memory.
const KERNEL_MEM: u64 = 1 << 30;

/// Journaled moves performed per shared-region configuration.
const SHARED_MOVES: u64 = 8;

fn mix_specs(variant: Variant, scale: Scale) -> Vec<ProcSpec> {
    SERVER_MIX
        .iter()
        .map(|name| {
            let w = by_name(name).expect("server-mix workload exists");
            ProcSpec {
                name: (*name).to_string(),
                module: compile(&w, scale, variant),
                cfg: VmConfig {
                    mode: variant.mode(),
                    ..VmConfig::default()
                },
            }
        })
        .collect()
}

fn run_mix(variant: Variant, scale: Scale, quantum: u64) -> Vec<ProcReport> {
    let mv = MultiVm::new(
        mix_specs(variant, scale),
        MultiVmConfig {
            quantum,
            kernel_mem: KERNEL_MEM,
            ..MultiVmConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("multiproc_isolation: admitting the mix failed: {e}");
        std::process::exit(2);
    });
    mv.run()
}

fn finished(r: &ProcReport) -> &RunResult {
    match &r.outcome {
        ProcOutcome::Finished(rr) => rr,
        other => {
            eprintln!("multiproc_isolation: {} did not finish: {other:?}", r.name);
            std::process::exit(1);
        }
    }
}

/// Per-process sliced-vs-sequential comparison; prints one line per
/// divergent tenant and returns whether everything matched.
fn differential_ok(sliced: &[ProcReport], seq: &[ProcReport], label: &str) -> bool {
    let mut ok = true;
    for (s, q) in sliced.iter().zip(seq) {
        let (rs, rq) = (finished(s), finished(q));
        if (rs.ret, &rs.counters) != (rq.ret, &rq.counters) {
            println!(
                "[{label}] {}: result ({} vs {}) or counters diverge under slicing",
                s.name, rs.ret, rq.ret
            );
            ok = false;
        }
    }
    ok
}

/// Sums the first four u64s of the shared block published in global 0.
fn shared_reader_module() -> Module {
    let mut mb = ModuleBuilder::new("shared_reader");
    let cell = mb.global("shm", Type::Ptr, GlobalInit::Zero);
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        b.switch_to(e);
        let ga = b.global_addr(cell);
        let p = b.load(Type::Ptr, ga);
        let mut sum = b.const_i64(0);
        for i in 0..4i64 {
            let idx = b.const_i64(i);
            let pi = b.ptr_add(p, idx, Type::I64);
            let v = b.load(Type::I64, pi);
            sum = b.add(sum, v);
        }
        b.ret(Some(sum));
    }
    mb.finish()
}

/// Map one shared block into `owners` tenants, move it [`SHARED_MOVES`]
/// times (patching every owner), then run and check every reader sums
/// the block through its patched pointer. Returns (cycles/move, ok).
fn shared_move_cost(owners: usize) -> (f64, bool) {
    let reader = instrument(shared_reader_module(), Variant::Full);
    let specs = (0..owners)
        .map(|i| ProcSpec {
            name: format!("reader-{i}"),
            module: reader.clone(),
            cfg: VmConfig::default(),
        })
        .collect();
    let mut mv = MultiVm::new(
        specs,
        MultiVmConfig {
            quantum: 512,
            kernel_mem: KERNEL_MEM,
            ..MultiVmConfig::default()
        },
    )
    .unwrap_or_else(|e| {
        eprintln!("multiproc_isolation: admitting readers failed: {e}");
        std::process::exit(2);
    });
    let id = mv.shared_create(4096).expect("frames available");
    let base = mv.kernel.procs.shared(id).unwrap().base;
    for (i, v) in [11u64, 22, 33, 44].into_iter().enumerate() {
        mv.kernel.mem.write_uint(base + 8 * i as u64, v, 8);
    }
    for pid in 0..owners {
        mv.shared_map(Pid(pid as u64), id, 0)
            .expect("maps into live tenant");
    }
    for _ in 0..SHARED_MOVES {
        mv.move_shared(id).expect("clean move");
    }
    let per_move = mv.kernel.procs.shared_move_cycles as f64 / mv.kernel.procs.shared_moves as f64;
    let ok = mv
        .run()
        .iter()
        .all(|r| matches!(&r.outcome, ProcOutcome::Finished(rr) if rr.ret == 11 + 22 + 33 + 44));
    (per_move, ok)
}

/// One world's context-switch accounting, summed over the mix.
struct CtxStats {
    switches: u64,
    cycles: u64,
    tlb_flushes: u64,
}

impl CtxStats {
    fn of(reports: &[ProcReport]) -> CtxStats {
        CtxStats {
            switches: reports.iter().map(|r| r.accounting.ctx_switches).sum(),
            cycles: reports.iter().map(|r| r.accounting.ctx_switch_cycles).sum(),
            tlb_flushes: reports.iter().map(|r| r.accounting.tlb_flushes).sum(),
        }
    }

    fn per_switch(&self) -> f64 {
        self.cycles as f64 / self.switches.max(1) as f64
    }

    fn row(&self, world: &str) -> Vec<String> {
        vec![
            world.into(),
            self.switches.to_string(),
            self.cycles.to_string(),
            format!("{:.1}", self.per_switch()),
            self.tlb_flushes.to_string(),
        ]
    }

    fn json(&self) -> Json {
        obj! {
            "switches": self.switches, "kernel_cycles": self.cycles,
            "cycles_per_switch": fixed(self.per_switch(), 3), "tlb_flushes": self.tlb_flushes,
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, out_path) = (args.scale, args.out);
    // Short slices at test scale so even the quickest tenants get
    // preempted; longer at full scale to keep switch counts sane.
    let quantum: u64 = match scale {
        Scale::Test => 1024,
        Scale::Small => 8192,
        Scale::Full => 65536,
    };

    println!(
        "multiproc_isolation: {} tenants ({}), quantum {quantum}, scale {scale:?}",
        SERVER_MIX.len(),
        SERVER_MIX.join(", ")
    );
    println!();

    // --- the five mix runs ------------------------------------------------
    let carat_sliced = run_mix(Variant::Full, scale, quantum);
    let carat_seq = run_mix(Variant::Full, scale, u64::MAX);
    let trad_sliced = run_mix(Variant::Traditional, scale, quantum);
    let trad_seq = run_mix(Variant::Traditional, scale, u64::MAX);
    let base_sliced = run_mix(Variant::Baseline, scale, quantum);

    // --- context-switch cost ---------------------------------------------
    let cost = CostModel::default();
    let (carat_ctx, trad_ctx) = (CtxStats::of(&carat_sliced), CtxStats::of(&trad_sliced));
    println!("Context-switch cost (kernel accounting, never guest counters):");
    print_table(
        &[
            "world",
            "switches",
            "kernel cycles",
            "cycles/switch",
            "TLB flushes",
        ],
        &[carat_ctx.row("carat"), trad_ctx.row("traditional")],
    );
    println!(
        "modeled: carat {} cyc/switch vs traditional {} cyc/switch",
        cost.ctx_switch_carat(),
        cost.ctx_switch_traditional()
    );
    let mut report = Report::default();
    report.gate(
        "carat_below_traditional",
        carat_ctx.per_switch() < trad_ctx.per_switch() && carat_ctx.tlb_flushes == 0,
        "carat context switch pays no TLB flush and undercuts paging",
    );
    println!();

    // --- isolation-guard overhead -----------------------------------------
    println!("Isolation-guard overhead (guarded mix vs uninstrumented mix):");
    let mut guard_rows = Vec::new();
    let mut overheads = Vec::new();
    let mut per_process = Vec::new();
    for (g, b) in carat_sliced.iter().zip(&base_sliced) {
        let (rg, rb) = (finished(g), finished(b));
        let ratio = rg.counters.cycles as f64 / rb.counters.cycles.max(1) as f64;
        let share = 100.0 * rg.counters.guard_cycles as f64 / rg.counters.cycles.max(1) as f64;
        overheads.push(ratio);
        guard_rows.push(vec![
            g.name.clone(),
            rb.counters.cycles.to_string(),
            rg.counters.cycles.to_string(),
            format!("{:+.1}%", (ratio - 1.0) * 100.0),
            format!("{share:.1}%"),
        ]);
        per_process.push(obj! {
            "name": g.name.as_str(), "overhead_pct": fixed((ratio - 1.0) * 100.0, 3),
            "guard_cycle_share_pct": fixed(share, 3),
        });
    }
    print_table(
        &[
            "workload",
            "base cycles",
            "guarded cycles",
            "overhead",
            "guard share",
        ],
        &guard_rows,
    );
    let guard_geomean_pct = (geomean(&overheads) - 1.0) * 100.0;
    println!("geomean isolation-guard overhead: {guard_geomean_pct:+.1}%");
    println!();

    // --- cross-process shared-region moves ---------------------------------
    println!("Cross-process shared-region move latency (journaled, all owners patched):");
    let mut move_rows = Vec::new();
    let mut shared_moves = Vec::new();
    let mut shared_ok = true;
    for owners in [2usize, 4, 6] {
        let (per_move, ok) = shared_move_cost(owners);
        shared_ok &= ok;
        move_rows.push(vec![
            owners.to_string(),
            SHARED_MOVES.to_string(),
            format!("{per_move:.1}"),
            (if ok { "ok" } else { "wrong" }).to_string(),
        ]);
        shared_moves.push(obj! {
            "owners": owners, "moves": SHARED_MOVES, "cycles_per_move": fixed(per_move, 3),
        });
    }
    print_table(&["owners", "moves", "cycles/move", "readers"], &move_rows);
    report.gate(
        "shared_readers_ok",
        shared_ok,
        "every owner reads correctly through the patched pointer",
    );
    println!();

    // --- differential: slicing is invisible to the guest -------------------
    for (name, world, sliced, seq) in [
        (
            "carat_counters_identical",
            "carat",
            &carat_sliced,
            &carat_seq,
        ),
        (
            "traditional_counters_identical",
            "traditional",
            &trad_sliced,
            &trad_seq,
        ),
    ] {
        report.gate(
            name,
            differential_ok(sliced, seq, world),
            &format!(
                "{world}: per-process counters identical under slicing ({} tenants)",
                SERVER_MIX.len()
            ),
        );
    }

    report.extend(obj! {
        "benchmark": "multiproc_isolation", "scale": format!("{scale:?}"),
        "processes": SERVER_MIX.len(), "quantum": quantum,
        "ctx_switch": obj! {
            "carat": carat_ctx.json(), "traditional": trad_ctx.json(),
            "modeled_carat": cost.ctx_switch_carat(),
            "modeled_traditional": cost.ctx_switch_traditional(),
        },
        "isolation_guard_overhead": obj! {
            "geomean_pct": fixed(guard_geomean_pct, 3), "per_process": per_process,
        },
        "shared_region_moves": shared_moves,
    });
    report.finish(&out_path)
}
