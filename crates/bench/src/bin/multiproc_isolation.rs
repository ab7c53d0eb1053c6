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

use carat_bench::{compile, geomean, print_table, Args, Variant};
use carat_core::{CaratCompiler, CompileOptions};
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
        if rs.ret != rq.ret {
            println!(
                "FAIL [{label}] {}: result diverges under slicing ({} vs {})",
                s.name, rs.ret, rq.ret
            );
            ok = false;
        }
        if rs.counters != rq.counters {
            println!(
                "FAIL [{label}] {}: per-process counters diverge under slicing",
                s.name
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
    let reader = CaratCompiler::new(CompileOptions::default())
        .compile(shared_reader_module())
        .expect("reader instruments")
        .module;
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

struct CtxStats {
    switches: u64,
    cycles: u64,
    tlb_flushes: u64,
}

fn ctx_stats(reports: &[ProcReport]) -> CtxStats {
    CtxStats {
        switches: reports.iter().map(|r| r.accounting.ctx_switches).sum(),
        cycles: reports.iter().map(|r| r.accounting.ctx_switch_cycles).sum(),
        tlb_flushes: reports.iter().map(|r| r.accounting.tlb_flushes).sum(),
    }
}

fn main() {
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
    let carat_ctx = ctx_stats(&carat_sliced);
    let trad_ctx = ctx_stats(&trad_sliced);
    let carat_per_switch = carat_ctx.cycles as f64 / carat_ctx.switches.max(1) as f64;
    let trad_per_switch = trad_ctx.cycles as f64 / trad_ctx.switches.max(1) as f64;
    println!("Context-switch cost (kernel accounting, never guest counters):");
    print_table(
        &[
            "world",
            "switches",
            "kernel cycles",
            "cycles/switch",
            "TLB flushes",
        ],
        &[
            vec![
                "carat".to_string(),
                carat_ctx.switches.to_string(),
                carat_ctx.cycles.to_string(),
                format!("{carat_per_switch:.1}"),
                carat_ctx.tlb_flushes.to_string(),
            ],
            vec![
                "traditional".to_string(),
                trad_ctx.switches.to_string(),
                trad_ctx.cycles.to_string(),
                format!("{trad_per_switch:.1}"),
                trad_ctx.tlb_flushes.to_string(),
            ],
        ],
    );
    println!(
        "modeled: carat {} cyc/switch vs traditional {} cyc/switch",
        cost.ctx_switch_carat(),
        cost.ctx_switch_traditional()
    );
    let ctx_ok = carat_per_switch < trad_per_switch && carat_ctx.tlb_flushes == 0;
    println!(
        "{}: carat context switch pays no TLB flush and undercuts paging",
        if ctx_ok { "PASS" } else { "FAIL" }
    );
    println!();

    // --- isolation-guard overhead -----------------------------------------
    println!("Isolation-guard overhead (guarded mix vs uninstrumented mix):");
    let mut guard_rows = Vec::new();
    let mut overheads = Vec::new();
    let mut guard_json = String::new();
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
        if !guard_json.is_empty() {
            guard_json.push_str(",\n");
        }
        guard_json.push_str(&format!(
            "      {{\"name\": \"{}\", \"overhead_pct\": {:.3}, \"guard_cycle_share_pct\": {:.3}}}",
            g.name,
            (ratio - 1.0) * 100.0,
            share
        ));
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
    let mut move_json = String::new();
    let mut shared_ok = true;
    for owners in [2usize, 4, 6] {
        let (per_move, ok) = shared_move_cost(owners);
        shared_ok &= ok;
        move_rows.push(vec![
            owners.to_string(),
            SHARED_MOVES.to_string(),
            format!("{per_move:.1}"),
            if ok {
                "ok".to_string()
            } else {
                "FAIL".to_string()
            },
        ]);
        if !move_json.is_empty() {
            move_json.push_str(",\n");
        }
        move_json.push_str(&format!(
            "      {{\"owners\": {owners}, \"moves\": {SHARED_MOVES}, \"cycles_per_move\": {per_move:.3}}}"
        ));
    }
    print_table(&["owners", "moves", "cycles/move", "readers"], &move_rows);
    println!(
        "{}: every owner reads correctly through the patched pointer",
        if shared_ok { "PASS" } else { "FAIL" }
    );
    println!();

    // --- differential: slicing is invisible to the guest -------------------
    let diff_carat = differential_ok(&carat_sliced, &carat_seq, "carat");
    let diff_trad = differential_ok(&trad_sliced, &trad_seq, "traditional");
    let diff_ok = diff_carat && diff_trad;
    println!(
        "{}: per-process counters identical under slicing ({} tenants x 2 worlds)",
        if diff_ok { "PASS" } else { "FAIL" },
        SERVER_MIX.len()
    );

    let pass = ctx_ok && shared_ok && diff_ok;
    let json = format!(
        "{{\n  \"benchmark\": \"multiproc_isolation\",\n  \"scale\": \"{scale:?}\",\n  \
         \"processes\": {nproc},\n  \"quantum\": {quantum},\n  \"ctx_switch\": {{\n    \
         \"carat\": {{\"switches\": {cs}, \"kernel_cycles\": {cc}, \"cycles_per_switch\": {cps:.3}, \"tlb_flushes\": {cf}}},\n    \
         \"traditional\": {{\"switches\": {ts}, \"kernel_cycles\": {tc}, \"cycles_per_switch\": {tps:.3}, \"tlb_flushes\": {tf}}},\n    \
         \"modeled_carat\": {mc},\n    \"modeled_traditional\": {mt},\n    \
         \"carat_below_traditional\": {ctx_ok}\n  }},\n  \"isolation_guard_overhead\": {{\n    \
         \"geomean_pct\": {gg:.3},\n    \"per_process\": [\n{guard_json}\n    ]\n  }},\n  \
         \"shared_region_moves\": [\n{move_json}\n  ],\n  \"differential\": {{\n    \
         \"carat_counters_identical\": {diff_carat},\n    \
         \"traditional_counters_identical\": {diff_trad}\n  }},\n  \"pass\": {pass}\n}}\n",
        nproc = SERVER_MIX.len(),
        cs = carat_ctx.switches,
        cc = carat_ctx.cycles,
        cps = carat_per_switch,
        cf = carat_ctx.tlb_flushes,
        ts = trad_ctx.switches,
        tc = trad_ctx.cycles,
        tps = trad_per_switch,
        tf = trad_ctx.tlb_flushes,
        mc = cost.ctx_switch_carat(),
        mt = cost.ctx_switch_traditional(),
        gg = guard_geomean_pct,
    );
    std::fs::write(&out_path, json).expect("write json");
    println!("\nwrote {out_path}");
    if !pass {
        std::process::exit(1);
    }
}
