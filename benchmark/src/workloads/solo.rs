//! `solo_carat`, `solo_trad` and `move_storm`: suite programs run one at
//! a time, each on a VM of its own, from signed images.

use std::time::Instant;

use carat_core::{CaratCompiler, CompileOptions, SignedModule, SigningKey};
use carat_vm::{Mode, MoveDriverConfig, RunResult, SwapDriverConfig, Vm, VmConfig, VmError};
use carat_workloads::{all_workloads, Scale};

use super::{Params, Pass, Rng, Workload};
use crate::expected::{self, STORM_PROGRAMS, VM_SEEDS};
use crate::trace::{Layer, Request, Tracer};

/// The storm's driver rates. Bounds are required: an unbounded driver at
/// this rate never finishes, because a move's modeled cost exceeds the
/// period.
const STORM_MOVES: MoveDriverConfig = MoveDriverConfig {
    period_cycles: 115_000,
    max_moves: 1000,
};
const STORM_SWAPS: SwapDriverConfig = SwapDriverConfig {
    period_cycles: 460_000,
    max_swaps: 200,
};

struct Program {
    name: &'static str,
    signed: SignedModule,
    /// Static census of the instrumented image.
    guards_static: u64,
    guards_injected: u64,
    tracking_sites: u64,
    expect_key: String,
}

pub struct Solo {
    label: &'static str,
    scale: Scale,
    cfg: VmConfig,
    key: SigningKey,
    programs: Vec<Program>,
    /// What an op is: `false` = a program run, `true` = a move request.
    ops_are_moves: bool,
}

impl Solo {
    /// All 21 programs, guards + tracking + CARAT opts + signing.
    pub fn carat(p: Params) -> Result<Solo, String> {
        Solo::build(
            "carat",
            p,
            None,
            CompileOptions::default(),
            VmConfig::default(),
        )
    }

    /// The same 21 programs uninstrumented, under paging.
    pub fn traditional(p: Params) -> Result<Solo, String> {
        let cfg = VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        };
        Solo::build("traditional", p, None, CompileOptions::baseline(), cfg)
    }

    /// Five programs, full instrumentation, bounded move and swap drivers;
    /// `--seed` picks the `VmConfig::seed` every run of the pass uses.
    pub fn move_storm(p: Params) -> Result<Solo, String> {
        let mut solo = Solo::storm_programs_without_drivers(p)?;
        solo.label = "storm";
        solo.cfg.move_driver = Some(STORM_MOVES);
        solo.cfg.swap_driver = Some(STORM_SWAPS);
        solo.ops_are_moves = true;
        Ok(solo)
    }

    /// The storm's programs, build and `VmConfig::seed` with the drivers
    /// off: the quiet arm the mover's share of the wall is taken against.
    pub fn storm_programs_without_drivers(p: Params) -> Result<Solo, String> {
        let mut rng = Rng::new(p.seed, 0x57);
        let cfg = VmConfig {
            seed: VM_SEEDS[rng.below(VM_SEEDS.len() as u64) as usize],
            ..VmConfig::default()
        };
        Solo::build(
            "storm programs, drivers off",
            p,
            Some(&STORM_PROGRAMS),
            CompileOptions::default(),
            cfg,
        )
    }

    fn build(
        label: &'static str,
        p: Params,
        only: Option<&[&str]>,
        options: CompileOptions,
        cfg: VmConfig,
    ) -> Result<Solo, String> {
        let scale = if p.smoke { Scale::Test } else { Scale::Small };
        let key = options
            .signing
            .clone()
            .ok_or("solo workloads load signed images")?;
        let compiler = CaratCompiler::new(options);
        let mut suite: Vec<_> = all_workloads()
            .into_iter()
            .filter(|w| only.is_none_or(|names| names.contains(&w.name)))
            .collect();
        // The seed decides the order programs run in (host cache state),
        // never what they compute.
        Rng::new(p.seed, 0x50).shuffle(&mut suite);
        let mut programs = Vec::with_capacity(suite.len());
        for w in suite {
            let module = w.module(scale).map_err(|e| format!("{}: {e}", w.name))?;
            let compiled = compiler
                .compile(module)
                .map_err(|e| format!("{}: {e}", w.name))?;
            programs.push(Program {
                name: w.name,
                guards_static: carat_core::count_guards(&compiled.module) as u64,
                guards_injected: compiled.census.total as u64,
                tracking_sites: carat_core::count_tracking(&compiled.module) as u64,
                signed: compiled.signed.ok_or("compiler did not sign")?,
                expect_key: expected::program_key(w.name, scale, cfg.seed),
            });
        }
        Ok(Solo {
            label,
            scale,
            cfg,
            key,
            programs,
            ops_are_moves: false,
        })
    }

    fn run_one(&self, prog: &Program, t: &mut Tracer) -> Result<RunResult, VmError> {
        let req = Request::Name(prog.name);
        let vm = t.scope("vm.load_signed", Layer::Vm, req, |_| {
            Vm::load_signed(&prog.signed, vec![self.key.clone()], self.cfg.clone())
        })?;
        let run = t.scope("vm.run", Layer::Vm, req, |_| vm.run())?;
        t.count("vm.run.instructions", run.counters.instructions);
        t.count("vm.run.guards", run.counters.guards_executed);
        t.count("vm.run.moves", run.counters.moves);
        Ok(run)
    }
}

impl Workload for Solo {
    fn sizes(&self) -> String {
        format!(
            "{} programs at Scale::{:?}, {}, vm seed {:016x}",
            self.programs.len(),
            self.scale,
            self.label,
            self.cfg.seed
        )
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut results = Vec::with_capacity(self.programs.len());
        let start = Instant::now();
        for prog in &self.programs {
            let t0 = Instant::now();
            let r = self.run_one(prog, t);
            pass.steps_ns.push(t0.elapsed().as_nanos() as u32);
            results.push(r);
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;

        let (mut fused, mut all_requests) = (0u64, 0u64);
        for (prog, result) in self.programs.iter().zip(results) {
            let (requests, ok) = match &result {
                Ok(run) => {
                    let c = &run.counters;
                    pass.add_guest(c);
                    pass.add_exact("moves", c.moves);
                    pass.add_exact("page_outs", c.swap_outs);
                    pass.add_exact("page_ins", c.swap_ins);
                    pass.add_exact("dtlb_misses", run.dtlb_misses);
                    pass.add_exact("pagewalks", run.pagewalks);
                    fused += run.fusion.fused_instructions();
                    let check = expected::check_run(&prog.expect_key, run);
                    if let Err(why) = &check {
                        pass.note(why.clone());
                    }
                    (c.moves + c.swap_outs + c.swap_ins, check.is_ok())
                }
                Err(e) => {
                    pass.note(format!("{}: {e}", prog.name));
                    (0, false)
                }
            };
            // A program whose output is wrong fails every op it stood for.
            let ops = if self.ops_are_moves {
                requests.max(1)
            } else {
                1
            };
            pass.attempted += ops;
            all_requests += requests;
            if !ok {
                pass.failed += ops;
            }
            pass.add_exact("guards_static", prog.guards_static);
            pass.add_exact("guards_injected", prog.guards_injected);
            pass.add_exact("tracking_sites", prog.tracking_sites);
        }
        pass.add_exact("fused_instructions", fused);
        pass.add_exact("move_requests", all_requests);
        pass
    }
}
