//! Layer probes: small fixed fixtures and A/B configurations run in the
//! traced pass, each timing one public function of one crate from
//! outside. A probe runs on the workloads whose end-to-end numbers it
//! should move (the `on` lists of `metrics::PER_LAYER`; README.md has the
//! table), so its number is printed next to the ones it explains.
//!
//! Probe sizes are fixed, not seeded: a layer number is comparable
//! across seeds, runs and commits.

use std::hint::black_box;
use std::rc::Rc;
use std::time::Instant;

use carat_analysis::{prove_function_in, Cfg, DomTree, LoopForest};
use carat_core::guards::{guard_ids, inject_guards};
use carat_core::opt::{gvn, hoist, merge, redundancy};
use carat_core::tracking::inject_tracking;
use carat_core::{
    sign_module, CaratCompiler, CompileOptions, GuardClasses, OptPreset, SignedModule, SigningKey,
};
use carat_frontend::{lower_program, parse_program};
use carat_ir::verify_module;
use carat_kernel::{
    BuddyAllocator, DmaDir, FaultPlan, FaultPoint, LoadConfig, PageTable, PhysicalMemory,
    ProcTable, SimKernel, POISON_BASE, POISON_SLOT_SPAN,
};
use carat_runtime::{
    check_unpinned, perform_move_batch_journaled, Access, AllocKind, AllocationTable, CostModel,
    GuardImpl, MemAccess, MovePhase, MoveRequest, PatchPlan, Perms, PinnedRange, Region,
    RegionTable, WorldStop,
};
use carat_vm::{
    DecodedProgram, Engine, Mode, MultiVm, MultiVmConfig, SupervisorConfig, ThreadedOpts, Vm,
    VmConfig,
};
use carat_workloads::{by_name, fleet_tenant, Scale};

use crate::metrics::{COMPILE, FLEET_CHURN, FLEET_SERVE, MOVE_STORM, SOLO_CARAT, SOLO_TRAD};
use crate::run::{Metrics, Value};
use crate::stats;
use crate::trace::{Layer, Request, Tracer};
use crate::workloads::compile::{count_insts, sources, Source, SOURCE_SCALE};
use crate::workloads::fleet::{build_image, kernel_mem, tenant_cfg, FLEET_LOAD};
use crate::workloads::solo::Solo;
use crate::workloads::{Params, Workload};

/// Run the probes tied to `workload`, adding their metrics.
pub fn run(workload: &str, params: Params, metrics: &mut Metrics, notes: &mut Vec<String>) {
    let p = Probes {
        smoke: params.smoke,
    };
    let result = match workload {
        COMPILE => p.compile_stages(params.seed, metrics),
        SOLO_CARAT => {
            p.guard_and_tracking(metrics);
            p.engine_variants(true, metrics)
        }
        SOLO_TRAD => p.engine_variants(false, metrics),
        MOVE_STORM => p
            .mover_share(params, metrics)
            .and_then(|()| p.kernel_moves(metrics))
            .map(|()| {
                p.patch_and_world(metrics);
                p.mover_support(metrics);
            }),
        FLEET_SERVE => {
            p.patch_and_world(metrics);
            p.devices(metrics).and_then(|()| p.fleet_mechanics(metrics))
        }
        FLEET_CHURN => p
            .admission_parts(metrics)
            .and_then(|()| p.fleet_mechanics(metrics)),
        _ => Ok(()),
    };
    if let Err(why) = result {
        notes.push(format!("probe failed: {why}"));
    }
}

struct Probes {
    smoke: bool,
}

/// Nanoseconds per call of `f`: `batches` batches of `iters` calls, the
/// median batch reported with the spread across batches.
fn per_call_ns(batches: usize, iters: usize, mut f: impl FnMut(usize)) -> Value {
    let mut samples = Vec::with_capacity(batches);
    for _ in 0..batches {
        let t0 = Instant::now();
        for i in 0..iters {
            f(i);
        }
        samples.push(t0.elapsed().as_nanos() as f64 / iters as f64);
    }
    Value::median_of(&samples)
}

impl Probes {
    /// Iteration count, cut down for the unit-test size.
    fn iters(&self, n: usize) -> usize {
        if self.smoke {
            (n / 100).max(4)
        } else {
            n
        }
    }

    // ------------------------------------------------------------------
    // compile: the pipeline stage by stage
    // ------------------------------------------------------------------

    /// Replays `CaratCompiler::compile` one pass at a time over the same
    /// 24 sources (checking that the staged result is the compiler's),
    /// then times the analyses, the loader and both decoders on each
    /// product. Every figure is microseconds per module.
    fn compile_stages(&self, seed: u64, metrics: &mut Metrics) -> Result<(), String> {
        let options = CompileOptions::default();
        let key = options.signing.clone().ok_or("default options sign")?;
        let (guard_cfg, tracking_cfg) = (
            options.guards.ok_or("default options guard")?,
            options.tracking.ok_or("default options track")?,
        );
        let compiler = CaratCompiler::new(options);
        let list = sources(seed);
        let reps = if self.smoke { 1 } else { 8 };
        let mut t = Tracer::on();
        let none = Request::None;
        let (mut modules, mut suite_modules) = (0u64, 0u64);
        for _ in 0..reps {
            for src in &list {
                let module = match src {
                    Source::Suite(w) => {
                        suite_modules += 1;
                        let text = w.source(SOURCE_SCALE);
                        let prog = t
                            .scope("lex_parse", Layer::Frontend, none, |_| parse_program(&text))
                            .map_err(|e| e.to_string())?;
                        t.scope("lower", Layer::Frontend, none, |_| {
                            lower_program(w.name, &prog)
                        })
                        .map_err(|e| e.to_string())?
                    }
                    Source::Tenant {
                        build, image_seed, ..
                    } => build(SOURCE_SCALE, *image_seed).map_err(|e| e.to_string())?,
                };
                modules += 1;
                let reference = compiler
                    .compile(module.clone())
                    .map_err(|e| e.to_string())?;
                let mut m = module;
                t.scope("verify", Layer::Ir, none, |_| verify_module(&m))
                    .map_err(|e| e.to_string())?;
                let fids: Vec<_> = m.func_ids().collect();
                t.scope("gvn", Layer::Core, none, |_| {
                    for &fid in &fids {
                        gvn::run(m.func_mut(fid));
                    }
                });
                t.scope("inject_guards", Layer::Core, none, |_| {
                    inject_guards(&mut m, guard_cfg);
                });
                for &fid in &fids {
                    let guards = guard_ids(m.func(fid));
                    let mut classes = GuardClasses::with_original(&guards);
                    let f = m.func_mut(fid);
                    t.scope("hoist", Layer::Core, none, |_| hoist::run(f, &mut classes));
                    t.scope("merge", Layer::Core, none, |_| merge::run(f, &mut classes));
                    t.scope("redundancy", Layer::Core, none, |_| {
                        redundancy::run(f, &mut classes)
                    });
                }
                t.scope("inject_tracking", Layer::Core, none, |_| {
                    inject_tracking(&mut m, tracking_cfg);
                });
                t.scope("verify", Layer::Ir, none, |_| verify_module(&m))
                    .map_err(|e| e.to_string())?;
                let signed = t.scope("sign", Layer::Core, none, |_| sign_module(&m, &key));
                // Instruction, guard and tracking counts, not text: the
                // compiler orders some instructions by hash-map iteration
                // (io_server and namd recompile to different text about
                // half the time), so only the counts repeat.
                let census = |m: &carat_ir::Module| {
                    (
                        count_insts(m),
                        carat_core::count_guards(m),
                        carat_core::count_tracking(m),
                    )
                };
                if census(&m) != census(&reference.module) {
                    return Err(format!(
                        "{}: the staged pipeline no longer reproduces CaratCompiler::compile",
                        src.name()
                    ));
                }
                for &fid in &fids {
                    let f = m.func(fid);
                    t.scope("cfg_dom_loops", Layer::Analysis, none, |_| {
                        let cfg = Cfg::compute(f);
                        let dom = DomTree::compute(f, &cfg);
                        black_box(LoopForest::compute(f, &cfg, &dom));
                    });
                    t.scope("prove_function", Layer::Analysis, none, |_| {
                        black_box(prove_function_in(f, Some(&m)));
                    });
                }
                t.scope("load_signed", Layer::Kernel, none, |_| {
                    load_signed(&signed, &key)
                })?;
                t.scope("decode_fused", Layer::Vm, none, |_| {
                    black_box(DecodedProgram::decode_with(&m, None));
                });
                t.scope("decode_threaded", Layer::Vm, none, |_| {
                    black_box(DecodedProgram::decode_with(
                        &m,
                        Some(ThreadedOpts::default()),
                    ));
                });
            }
        }
        let per = |span: &str, n: u64| {
            Value::exact(t.span(span).map_or(0.0, |s| s.total_ns as f64) / n.max(1) as f64 / 1e3)
        };
        metrics.insert("frontend.lex_parse_us", per("lex_parse", suite_modules));
        metrics.insert("frontend.lower_us", per("lower", suite_modules));
        // Paid twice per compile; reported per call.
        metrics.insert("ir.verify_us", per("verify", modules * 2));
        metrics.insert("analysis.cfg_dom_loops_us", per("cfg_dom_loops", modules));
        metrics.insert("analysis.prove_function_us", per("prove_function", modules));
        metrics.insert("core.gvn_us", per("gvn", modules));
        metrics.insert("core.inject_guards_us", per("inject_guards", modules));
        metrics.insert("core.hoist_us", per("hoist", modules));
        metrics.insert("core.merge_us", per("merge", modules));
        metrics.insert("core.redundancy_us", per("redundancy", modules));
        metrics.insert("core.inject_tracking_us", per("inject_tracking", modules));
        metrics.insert("core.sign_us", per("sign", modules));
        metrics.insert("kernel.loader.load_signed_us", per("load_signed", modules));
        metrics.insert("vm.decode.fused_us", per("decode_fused", modules));
        metrics.insert("vm.decode.threaded_us", per("decode_threaded", modules));
        Ok(())
    }

    // ------------------------------------------------------------------
    // solo: guard checks, tracking callbacks, engine and variant A/B
    // ------------------------------------------------------------------

    fn guard_and_tracking(&self, metrics: &mut Metrics) {
        for (name, regions) in [
            ("runtime.region.check_ns.r8", 8u64),
            ("runtime.region.check_ns.r64", 64u64),
        ] {
            let mut table = RegionTable::new();
            table.set_regions(
                (0..regions)
                    .map(|i| Region {
                        start: 0x10_0000 + i * 0x2_0000,
                        len: 0x1_0000,
                        perms: Perms::RW,
                    })
                    .collect(),
            );
            // Addresses inside the regions, visited in a scattered order.
            let addrs: Vec<u64> = (0..1024u64)
                .map(|i| 0x10_0000 + (i * 37 % regions) * 0x2_0000 + ((i * 613 % 0x1_0000) & !7))
                .collect();
            let v = per_call_ns(5, self.iters(200_000), |i| {
                black_box(table.check(GuardImpl::IfTree, addrs[i & 1023], 8, Access::Read));
            });
            metrics.insert(name, v);
        }

        // alloc + free of one block beside 1024 live ones.
        let mut table = AllocationTable::new();
        for i in 0..1024u64 {
            table.track_alloc(0x100_0000 + i * 0x100, 0x80, AllocKind::Heap);
        }
        let v = per_call_ns(5, self.iters(100_000), |i| {
            let at = 0x800_0000 + (i as u64 & 255) * 0x100;
            table.track_alloc(at, 0x80, AllocKind::Heap);
            black_box(table.track_free(at));
        });
        metrics.insert("runtime.alloc_table.track_ns", v);

        // One escape notification, with the flush every 64 amortized in
        // (the VM's default `escape_batch`). 4096 cells point into the
        // 1024 live blocks.
        let v = per_call_ns(5, self.iters(100_000), |i| {
            table.track_escape(0x4000_0000 + (i as u64 & 4095) * 8);
            if i & 63 == 63 {
                black_box(table.flush_escapes(|cell| 0x100_0000 + (cell >> 3 & 1023) * 0x100 + 8));
            }
        });
        metrics.insert("runtime.alloc_table.escape_ns", v);
    }

    /// The fixed sample {hpccg, lbm, mcf, canneal, freqmine, xz} under
    /// each compile variant and engine: host ns per retired instruction,
    /// and the cost of a guard and of a tracking event derived from the
    /// differences to the uninstrumented build.
    fn engine_variants(&self, carat: bool, metrics: &mut Metrics) -> Result<(), String> {
        const SAMPLE: [&str; 6] = ["hpccg", "lbm", "mcf", "canneal", "freqmine", "xz"];
        let scale = if self.smoke {
            Scale::Test
        } else {
            Scale::Small
        };
        struct Arm {
            ns: f64,
            instructions: u64,
            cycles: u64,
            guards: u64,
            track_events: u64,
        }
        let arm = |options: CompileOptions,
                   mode: Mode,
                   engine: Engine,
                   reps: usize|
         -> Result<Arm, String> {
            let compiler = CaratCompiler::new(options);
            let mut modules = Vec::new();
            for name in SAMPLE {
                let w = by_name(name).ok_or("sample names exist in the suite")?;
                let m = w.module(scale).map_err(|e| e.to_string())?;
                modules.push(compiler.compile(m).map_err(|e| e.to_string())?.module);
            }
            let mut best: Option<Arm> = None;
            for _ in 0..reps {
                let mut a = Arm {
                    ns: 0.0,
                    instructions: 0,
                    cycles: 0,
                    guards: 0,
                    track_events: 0,
                };
                for m in &modules {
                    let cfg = VmConfig {
                        mode,
                        engine,
                        ..VmConfig::default()
                    };
                    let vm = Vm::new(m.clone(), cfg).map_err(|e| e.to_string())?;
                    let t0 = Instant::now();
                    let run = vm.run().map_err(|e| e.to_string())?;
                    a.ns += t0.elapsed().as_nanos() as f64;
                    a.instructions += run.counters.instructions;
                    a.cycles += run.counters.cycles;
                    a.guards += run.counters.guards_executed;
                    a.track_events += run.counters.track_events;
                }
                // The faster repetition: these feed differences, where
                // one disturbed run would swamp the effect.
                if best.as_ref().is_none_or(|b| a.ns < b.ns) {
                    best = Some(a);
                }
            }
            best.ok_or_else(|| "no repetition".to_string())
        };
        let per_inst = |a: &Arm| Value::exact(a.ns / a.instructions.max(1) as f64);
        let fused = Engine::default();
        let baseline = arm(CompileOptions::baseline(), Mode::Carat, fused, 2)?;
        metrics.insert("vm.machine.ns_per_inst.baseline", per_inst(&baseline));
        if !carat {
            let trad = arm(CompileOptions::baseline(), Mode::Traditional, fused, 2)?;
            metrics.insert("vm.machine.ns_per_inst.traditional", per_inst(&trad));
            return Ok(());
        }
        let guards = arm(
            CompileOptions::guards_only(OptPreset::CaratSpecific),
            Mode::Carat,
            fused,
            2,
        )?;
        let tracking = arm(CompileOptions::tracking_only(), Mode::Carat, fused, 2)?;
        let full = arm(CompileOptions::default(), Mode::Carat, fused, 2)?;
        metrics.insert("vm.machine.ns_per_inst.guards", per_inst(&guards));
        metrics.insert("vm.machine.ns_per_inst.tracking", per_inst(&tracking));
        metrics.insert("vm.machine.ns_per_inst.full", per_inst(&full));
        metrics.insert(
            "vm.machine.guard_ns_per_check",
            Value::exact((guards.ns - baseline.ns) / guards.guards.max(1) as f64),
        );
        metrics.insert(
            "vm.machine.track_ns_per_event",
            Value::exact((tracking.ns - baseline.ns) / tracking.track_events.max(1) as f64),
        );
        metrics.insert(
            "vm.modeled_overhead_pct",
            Value::exact((full.cycles as f64 / baseline.cycles.max(1) as f64 - 1.0) * 100.0),
        );
        // The engines the default one replaced; no end-to-end metric
        // moves with these today.
        for (name, engine) in [
            ("vm.machine.ns_per_inst.reference", Engine::Reference),
            ("vm.machine.ns_per_inst.decoded", Engine::Decoded),
            ("vm.machine.ns_per_inst.threaded", Engine::Threaded),
        ] {
            let a = arm(CompileOptions::default(), Mode::Carat, engine, 1)?;
            metrics.insert(name, per_inst(&a));
        }
        Ok(())
    }

    // ------------------------------------------------------------------
    // move_storm: the mover from outside
    // ------------------------------------------------------------------

    /// Moves happen inside `Vm::run`, where the benchmark has no span.
    /// The mover's share is taken by A/B instead: the same five programs
    /// with and without the drivers. The difference is charged to
    /// `kernel` (whose `move_pages` / `page_out` / `page_in` are the entry
    /// points; `runtime::patch` runs underneath them) and the rest stays
    /// with `vm`.
    fn mover_share(&self, params: Params, metrics: &mut Metrics) -> Result<(), String> {
        let mut quiet = Solo::storm_programs_without_drivers(params)?;
        let mut storm = Solo::move_storm(params)?;
        let off = &mut Tracer::off();
        let (t_quiet, t_storm) = (
            quiet.pass(off).wall_ns as f64,
            storm.pass(off).wall_ns as f64,
        );
        let mover = (1.0 - t_quiet / t_storm.max(1.0)).clamp(0.0, 1.0);
        let vm_span = metrics.get("share_pct.vm").map_or(0.0, |v| v.value);
        metrics.insert("share_pct.kernel", Value::exact(vm_span * mover));
        metrics.insert("share_pct.vm", Value::exact(vm_span * (1.0 - mover)));
        Ok(())
    }

    /// `move_pages`, a four-request `move_pages_batch`, `page_out` and
    /// `page_in` on a live process: mcf stopped mid-run, so the
    /// allocation table carries the escapes of its node and arc lists.
    fn kernel_moves(&self, metrics: &mut Metrics) -> Result<(), String> {
        let scale = if self.smoke {
            Scale::Test
        } else {
            Scale::Small
        };
        let module = by_name("mcf")
            .ok_or("mcf is in the suite")?
            .module(scale)
            .map_err(|e| e.to_string())?;
        let module = CaratCompiler::new(CompileOptions::default())
            .compile(module)
            .map_err(|e| e.to_string())?
            .module;
        let mut vm = Vm::new(module, VmConfig::default()).map_err(|e| e.to_string())?;
        vm.start().map_err(|e| e.to_string())?;
        vm.run_slice(if self.smoke { 20_000 } else { 2_000_000 })
            .map_err(|e| e.to_string())?;
        // The VM is not resumed after this, so its registers need not
        // follow the moves; the kernel still scans a register file.
        let mut regs = vec![0u64; 32];
        let (kernel, table) = (&mut vm.kernel, &mut vm.table);
        let n = self.iters(400);
        let mut move_ns = Vec::with_capacity(n);
        for _ in 0..n {
            let page = kernel.worst_page(table).ok_or("no movable page")?;
            let t0 = Instant::now();
            kernel
                .move_pages(table, &mut regs, page, 1, 1)
                .map_err(|e| e.to_string())?;
            move_ns.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        metrics.insert("kernel.move_pages_us", Value::median_of(&move_ns));

        let mut batch_ns = Vec::with_capacity(n / 4);
        for _ in 0..n / 4 {
            let reqs: Vec<(u64, u64)> = kernel
                .worst_pages(table, 4)
                .into_iter()
                .map(|p| (p, 1))
                .collect();
            let t0 = Instant::now();
            kernel
                .move_pages_batch(table, &mut regs, &reqs, 1)
                .map_err(|e| e.to_string())?;
            batch_ns.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        metrics.insert("kernel.move_batch4_us", Value::median_of(&batch_ns));

        let (mut out_us, mut in_us) = (Vec::new(), Vec::new());
        for _ in 0..n / 4 {
            let page = kernel.worst_page(table).ok_or("no page to swap")?;
            let t0 = Instant::now();
            let swapped = kernel
                .page_out(table, &mut regs, page, 1)
                .map_err(|e| e.to_string())?;
            let out_ns = t0.elapsed().as_nanos() as f64;
            let Some((_, slot, _, _)) = swapped else {
                return Err("the kernel declined to swap the worst page".to_string());
            };
            out_us.push(out_ns / 1e3);
            let t0 = Instant::now();
            kernel
                .page_in(table, &mut regs, POISON_BASE + slot * POISON_SLOT_SPAN, 1)
                .map_err(|e| e.to_string())?
                .ok_or("page_in did not find the slot it was given")?;
            in_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        metrics.insert("kernel.page_out_us", Value::median_of(&out_us));
        metrics.insert("kernel.page_in_us", Value::median_of(&in_us));
        Ok(())
    }

    /// The escape-heavy fixture of the repository's `move_parallel`
    /// bench at its Small size: 64 blocks of 1 KiB, each with 32 outside
    /// cells pointing into it and one cross pointer — 2 112 cells.
    fn patch_fixture(mem: &mut PhysicalMemory) -> AllocationTable {
        const CELLS_PER_ALLOC: u64 = 32;
        let mut table = AllocationTable::new();
        let mut x = 42u64.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        let mut cursor = PATCH_ARENA;
        for i in 0..PATCH_ALLOCS {
            let start = PATCH_BASE + i * PATCH_ALLOC;
            table.track_alloc(start, PATCH_ALLOC, AllocKind::Heap);
            for _ in 0..CELLS_PER_ALLOC {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                mem.write_u64(cursor, start + (x % (PATCH_ALLOC / 8)) * 8);
                table.track_escape(cursor);
                cursor += 8;
            }
            let cell = start + PATCH_ALLOC - 8;
            mem.write_u64(
                cell,
                PATCH_BASE + (i + 1) % PATCH_ALLOCS * PATCH_ALLOC + 0x10,
            );
            table.track_escape(cell);
        }
        table.flush_escapes(|c| mem.read_u64(c));
        table
    }

    /// Patch planning and application, a journaled four-request batch,
    /// and the world-stop protocol at 1 and 4 threads.
    fn patch_and_world(&self, metrics: &mut Metrics) {
        let cost = CostModel::default();
        let mut mem = PhysicalMemory::new(16 << 20);
        let mut table = Self::patch_fixture(&mut mem);
        let len = PATCH_ALLOCS * PATCH_ALLOC;
        let reps = self.iters(300);
        let (mut build_ns, mut apply_ns) = (Vec::with_capacity(reps), Vec::with_capacity(reps));
        for _ in 0..reps {
            let t0 = Instant::now();
            let plan = PatchPlan::build(&[&table], &mem, PATCH_BASE, len, PATCH_DST);
            let built = t0.elapsed().as_nanos() as f64;
            let cells = plan.cells.len().max(1) as f64;
            let t0 = Instant::now();
            plan.apply(&mut mem, 1);
            apply_ns.push(t0.elapsed().as_nanos() as f64 / cells);
            build_ns.push(built / cells);
            // Undo, so the next plan finds the same cells to rewrite.
            for c in &plan.cells {
                mem.write_u64(c.cell, c.old);
            }
        }
        metrics.insert(
            "runtime.patch.build_ns_per_cell",
            Value::median_of(&build_ns),
        );
        metrics.insert(
            "runtime.patch.apply_ns_per_cell",
            Value::median_of(&apply_ns),
        );

        // Four disjoint quarters of the fixture bounce between the two
        // locations under the journal (an interrupt hook that never
        // fires is what switches journaling on).
        let quarter = len / 4;
        let (mut here, mut there) = (PATCH_BASE, PATCH_DST);
        let mut regs = vec![PATCH_BASE + 0x10, 0xdead_beef, PATCH_BASE + len - 8, 0x50];
        let mut batch_us = Vec::with_capacity(reps);
        for _ in 0..reps {
            let reqs: Vec<MoveRequest> = (0..4)
                .map(|q| MoveRequest {
                    src: here + q * quarter,
                    len: quarter,
                    dst: there + q * quarter,
                })
                .collect();
            let mut never = |_: MovePhase| false;
            let t0 = Instant::now();
            let moved = perform_move_batch_journaled(
                &mut table,
                &mut mem,
                &mut regs,
                &reqs,
                &cost,
                1,
                Some(&mut never),
            );
            batch_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
            black_box(moved.is_ok());
            std::mem::swap(&mut here, &mut there);
        }
        metrics.insert(
            "runtime.patch.journal_batch4_us",
            Value::median_of(&batch_us),
        );

        for (name, threads) in [
            ("runtime.world.stop_ns.t1", 1usize),
            ("runtime.world.stop_ns.t4", 4usize),
        ] {
            let v = per_call_ns(5, self.iters(50_000), |_| {
                black_box(WorldStop::run_all(threads, &cost));
            });
            metrics.insert(name, v);
        }
    }

    /// What a move leans on besides patching: the overlap query, the
    /// frame allocator and the pin walk.
    fn mover_support(&self, metrics: &mut Metrics) {
        // One page-sized overlap query against 10k live 256-byte blocks.
        let mut table = AllocationTable::new();
        for i in 0..10_000u64 {
            table.track_alloc(0x100_0000 + i * 0x100, 0x100, AllocKind::Heap);
        }
        let v = per_call_ns(5, self.iters(2_000), |i| {
            let lo = 0x100_0000 + (i as u64 * 7919 % 600) * 0x1000;
            black_box(table.overlapping_infos(lo, lo + 0x1000).count());
        });
        metrics.insert("runtime.alloc_table.overlap_ns", v);

        let mut buddy = BuddyAllocator::new(0x1_0000, 4096, 4096);
        let v = per_call_ns(5, self.iters(200_000), |_| {
            if let Some(addr) = buddy.alloc_pages(1) {
                black_box(buddy.free_pages(addr).is_ok());
            }
        });
        metrics.insert("kernel.buddy.alloc_free_ns", v);

        // `check_unpinned` walks the pin list linearly (ROADMAP parks a
        // better structure); none of these pins overlaps the query.
        for (name, pins) in [
            ("kernel.pin.check_ns.p1", 1u64),
            ("kernel.pin.check_ns.p64", 64u64),
        ] {
            let pins: Vec<PinnedRange> = (0..pins)
                .map(|i| PinnedRange {
                    start: 0x4000_0000 + i * 0x2000,
                    len: 0x1000,
                    owner: None,
                })
                .collect();
            let v = per_call_ns(5, self.iters(500_000), |i| {
                black_box(
                    check_unpinned(0x10_0000 + (i as u64 & 1023) * 0x1000, 0x1000, &pins).is_ok(),
                );
            });
            metrics.insert(name, v);
        }
    }

    // ------------------------------------------------------------------
    // fleets
    // ------------------------------------------------------------------

    /// The device side of a `fleet_serve` slice: two DMA submissions and
    /// one service round through a pinned buffer, and a timer arm +
    /// dispatch.
    fn devices(&self, metrics: &mut Metrics) -> Result<(), String> {
        let scale = if self.smoke { Scale::Test } else { Scale::Full };
        let image = build_image("io_server", carat_workloads::io_server, scale, 0)?;
        let mut mv = MultiVm::new(
            Vec::new(),
            MultiVmConfig {
                kernel_mem: kernel_mem(8),
                ..MultiVmConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let pids = mv
            .spawn_batch("io", image.module.clone(), tenant_cfg(), 8)
            .map_err(|e| e.to_string())?;
        let id = mv.shared_create(4096).map_err(|e| e.to_string())?;
        mv.shared_map(pids[0], id, 0).map_err(|e| e.to_string())?;
        let (base, _) = mv.pin_shared(pids[0], id).map_err(|e| e.to_string())?;
        let v = per_call_ns(5, self.iters(50_000), |_| {
            mv.dma_submit(base, 256, DmaDir::DeviceToMem);
            mv.dma_submit(base, 256, DmaDir::MemToDevice);
            black_box(mv.dma_service(4));
        });
        metrics.insert("kernel.dev.dma_service_ns", v);
        let timer = &mut mv.kernel.dev.timer;
        let v = per_call_ns(5, self.iters(500_000), |i| {
            timer.arm(i as u64 * 2048);
            black_box(timer.dispatch(i as u64 * 2048 + 5));
        });
        metrics.insert("kernel.dev.timer_arm_ns", v);
        let cost = CostModel::default();
        metrics.insert(
            "kernel.ctx_switch_cycles.carat",
            Value::exact(cost.ctx_switch_carat() as f64),
        );
        metrics.insert(
            "kernel.ctx_switch_cycles.trad",
            Value::exact(cost.ctx_switch_traditional() as f64),
        );
        Ok(())
    }

    /// The parts of an admission: the loader, a process-table slot, and
    /// the capsule store.
    fn admission_parts(&self, metrics: &mut Metrics) -> Result<(), String> {
        let scale = if self.smoke { Scale::Test } else { Scale::Full };
        let module = fleet_tenant(scale, 0).map_err(|e| e.to_string())?;
        let options = CompileOptions::default();
        let key = options.signing.clone().ok_or("default options sign")?;
        let compiled = CaratCompiler::new(options)
            .compile(module)
            .map_err(|e| e.to_string())?;
        let signed = compiled.signed.ok_or("compiler did not sign")?;
        let mut load_us = Vec::new();
        for _ in 0..self.iters(400) {
            let t0 = Instant::now();
            load_signed(&signed, &key)?;
            load_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
        metrics.insert("kernel.loader.load_signed_us", Value::median_of(&load_us));

        let mut kernel = SimKernel::new(64 << 20);
        let mut table = AllocationTable::new();
        let image = kernel
            .load_unsigned(compiled.module, &mut table, FLEET_LOAD)
            .map_err(|e| e.to_string())?;
        let mut procs = ProcTable::new();
        let v = per_call_ns(5, self.iters(100_000), |_| {
            if let Ok(pid) = procs.spawn(
                "p".to_string(),
                image.clone(),
                Vec::new(),
                PageTable::new(),
                None,
            ) {
                black_box(procs.kill(pid).is_some());
            }
        });
        metrics.insert("kernel.proc.spawn_kill_ns", v);

        // A 3 KiB capsule (a parked fleet tenant) written to the arena
        // and read back.
        let capsule = vec![0xabu8; 3072];
        let mut back = Vec::new();
        let v = per_call_ns(5, self.iters(100_000), |_| {
            if let Ok(slot) = kernel.capsule_write_from(&capsule) {
                black_box(kernel.capsule_read_into(slot, &mut back).is_ok());
            }
        });
        metrics.insert("kernel.arena.store_read_ns", v);
        Ok(())
    }

    /// Fleet mechanics on fleets of their own: the fixed cost of a slice
    /// (one instruction retired per slice, so switch + materialize + park
    /// is all there is) under both worlds, the context switch and run
    /// queue alone, both admission paths, externalize / rehydrate / kill,
    /// a tenant round trip, and a supervised restart.
    fn fleet_mechanics(&self, metrics: &mut Metrics) -> Result<(), String> {
        let scale = if self.smoke { Scale::Test } else { Scale::Full };
        let n = if self.smoke { 64 } else { 10_000 };
        let source = fleet_tenant(scale, 0).map_err(|e| e.to_string())?;
        let mut carat_module = None;
        for (options, mode) in [
            (CompileOptions::default(), Mode::Carat),
            (CompileOptions::baseline(), Mode::Traditional),
        ] {
            let module = Rc::new(
                CaratCompiler::new(options)
                    .compile(source.clone())
                    .map_err(|e| e.to_string())?
                    .module,
            );
            let cfg = VmConfig {
                mode,
                ..tenant_cfg()
            };
            let mut mv = MultiVm::new(
                Vec::new(),
                MultiVmConfig {
                    quantum: 1,
                    kernel_mem: kernel_mem(n),
                    ..MultiVmConfig::default()
                },
            )
            .map_err(|e| e.to_string())?;
            let t0 = Instant::now();
            let pids = mv
                .spawn_batch("t", module.clone(), cfg, n)
                .map_err(|e| e.to_string())?;
            let admit_us = t0.elapsed().as_nanos() as f64 / 1e3 / n as f64;
            // First switch of every tenant installs its region set; the
            // timed slices then see steady-state switching only.
            mv.run_batch(n as u64);
            let mut slice_ns: Vec<u32> = Vec::with_capacity(2 * n);
            for _ in 0..2 * n {
                let t0 = Instant::now();
                mv.run_batch(1);
                slice_ns.push(t0.elapsed().as_nanos() as u32);
            }
            let lat = stats::latency(&mut slice_ns);
            let traditional = mode == Mode::Traditional;
            let switch = per_call_ns(5, self.iters(100_000), |i| {
                black_box(mv.kernel.proc_switch(pids[i & 1], traditional).is_ok());
            });
            let fixed = Value {
                value: lat.p50 as f64,
                spread_pct: None,
                samples: lat.samples,
            };
            if traditional {
                metrics.insert("vm.multi.slice_fixed_ns.trad", fixed);
                metrics.insert("kernel.proc.switch_ns.trad", switch);
                continue;
            }
            metrics.insert("vm.multi.slice_fixed_ns.carat", fixed);
            metrics.insert("kernel.proc.switch_ns.carat", switch);
            metrics.insert("vm.multi.spawn_batch_us_per_tenant", Value::exact(admit_us));
            let v = per_call_ns(5, self.iters(200_000), |_| {
                black_box(mv.kernel.procs.next_runnable());
            });
            metrics.insert("kernel.proc.next_runnable_ns", v);

            let tenth = &pids[..n / 10];
            let t0 = Instant::now();
            for &pid in tenth {
                mv.externalize_tenant(pid).map_err(|e| e.to_string())?;
            }
            let out_us = t0.elapsed().as_nanos() as f64 / 1e3 / tenth.len() as f64;
            let t0 = Instant::now();
            for &pid in tenth {
                mv.rehydrate_tenant(pid).map_err(|e| e.to_string())?;
            }
            let in_us = t0.elapsed().as_nanos() as f64 / 1e3 / tenth.len() as f64;
            let t0 = Instant::now();
            for &pid in tenth {
                black_box(mv.kill(pid));
            }
            let kill_ns = t0.elapsed().as_nanos() as f64 / tenth.len() as f64;
            metrics.insert("vm.multi.externalize_us", Value::exact(out_us));
            metrics.insert("vm.multi.rehydrate_us", Value::exact(in_us));
            metrics.insert("vm.multi.kill_ns", Value::exact(kill_ns));
            carat_module = Some(module);
        }
        let module = carat_module.ok_or("the carat arm ran")?;

        // Sequential admission: verify + quota + stamp, every time.
        let seq = n / 5;
        let mut mv = MultiVm::new(
            Vec::new(),
            MultiVmConfig {
                kernel_mem: kernel_mem(seq),
                ..MultiVmConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        let t0 = Instant::now();
        for i in 0..seq {
            mv.spawn_shared(&format!("s{i}"), module.clone(), tenant_cfg())
                .map_err(|e| e.to_string())?;
        }
        metrics.insert(
            "vm.multi.spawn_seq_us_per_tenant",
            Value::exact(t0.elapsed().as_nanos() as f64 / 1e3 / seq as f64),
        );
        drop(mv);

        // `into_tenant` + `from_tenant`: the field moves a slice pays on
        // top of the kernel's switch.
        let mut vm = Some(Vm::new((*module).clone(), tenant_cfg()).map_err(|e| e.to_string())?);
        if let Some(vm) = vm.as_mut() {
            vm.start().map_err(|e| e.to_string())?;
        }
        let v = per_call_ns(5, self.iters(200_000), |_| {
            if let Some(v) = vm.take() {
                let (kernel, table, state) = black_box(v.into_tenant());
                vm = Some(black_box(Vm::from_tenant(kernel, table, state)));
            }
        });
        metrics.insert("vm.machine.tenant_roundtrip_ns", v);

        // Every tenant dies at its first malloc, is reaped, backs off and
        // is respawned from its image until the breaker trips: wall time
        // per restart, the short run up to the malloc included.
        let doomed = if self.smoke { 16 } else { 512 };
        let mut mv = MultiVm::new(
            Vec::new(),
            MultiVmConfig {
                kernel_mem: kernel_mem(doomed),
                supervisor: Some(SupervisorConfig::default()),
                ..MultiVmConfig::default()
            },
        )
        .map_err(|e| e.to_string())?;
        mv.spawn_batch("d", module, tenant_cfg(), doomed)
            .map_err(|e| e.to_string())?;
        mv.install_fault_plan(FaultPlan::new().arm_persistent(FaultPoint::TenantOom, 1));
        let t0 = Instant::now();
        mv.run_batch(u64::MAX);
        let storm_ns = t0.elapsed().as_nanos() as f64;
        let restarts = mv.supervisor().map_or(0, |s| s.restarts);
        if restarts == 0 {
            return Err("the restart probe restarted nothing".to_string());
        }
        metrics.insert(
            "vm.supervise.restart_us",
            Value::exact(storm_ns / 1e3 / restarts as f64),
        );
        Ok(())
    }
}

const PATCH_ALLOCS: u64 = 64;
const PATCH_ALLOC: u64 = 0x400;
const PATCH_BASE: u64 = 0x1_0000;
const PATCH_ARENA: u64 = 0x20_0000;
const PATCH_DST: u64 = 0x40_0000;

/// Boot a kernel, trust `key`, load `signed`: what `Vm::load_signed`
/// does before it decodes.
fn load_signed(signed: &SignedModule, key: &SigningKey) -> Result<(), String> {
    let mut kernel = SimKernel::new(512 * 1024 * 1024);
    kernel.trust(key.clone());
    let mut table = AllocationTable::new();
    kernel
        .load(signed, &mut table, LoadConfig::default())
        .map(|image| {
            black_box(image);
        })
        .map_err(|e| e.to_string())
}
