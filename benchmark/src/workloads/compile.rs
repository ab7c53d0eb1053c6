//! `compile`: every Cm source the repository ships, source text to a
//! loaded, decoded VM, repeated. The guest retires no instruction in the
//! timed phase; the VMs of the last repetition are then run (untimed) so
//! that what was compiled is checked against the reference. Set-up is
//! the toolchain's self-check: every source through the chain once, and
//! its product run against the reference.

use std::time::Instant;

use carat_core::{verify_signature, CaratCompiler, CompileOptions, SigningKey};
use carat_frontend::CmError;
use carat_ir::Module;
use carat_vm::{Vm, VmConfig};
use carat_workloads::{
    all_workloads, chaos_tenant, fleet_tenant, io_server, Scale, Workload as Program,
};

use super::{Params, Pass, Rng, Workload};
use crate::expected::{self, IMAGE_SEEDS, VM_SEEDS};
use crate::trace::{Layer, Request, Tracer};

/// A tenant-image constructor of the workloads crate: source generation
/// and front end in one call, parameterized by an image seed.
pub type TenantBuilder = fn(Scale, i64) -> Result<Module, CmError>;

/// Where a module's IR comes from.
pub enum Source {
    /// One of the 21 suite programs: source text, then the front end.
    Suite(Program),
    /// A tenant image: the workloads crate exposes only the fused
    /// source-generation + front-end call for these.
    Tenant {
        name: &'static str,
        build: TenantBuilder,
        image_seed: i64,
    },
}

impl Source {
    pub fn name(&self) -> &'static str {
        match self {
            Source::Suite(w) => w.name,
            Source::Tenant { name, .. } => name,
        }
    }

    fn expect_key(&self, scale: Scale) -> String {
        match self {
            Source::Suite(w) => expected::program_key(w.name, scale, VM_SEEDS[0]),
            Source::Tenant {
                name, image_seed, ..
            } => expected::tenant_key(name, scale, *image_seed),
        }
    }
}

/// The 24 sources in a seeded order, tenants with seeded image seeds.
pub fn sources(seed: u64) -> Vec<Source> {
    let mut rng = Rng::new(seed, 0xc0);
    let mut image_seed = || IMAGE_SEEDS.start + rng.below(IMAGE_SEEDS.end as u64) as i64;
    let tenants: [(&'static str, TenantBuilder); 3] = [
        ("fleet_tenant", fleet_tenant),
        ("chaos_tenant", chaos_tenant),
        ("io_server", io_server),
    ];
    let mut out: Vec<Source> = all_workloads().into_iter().map(Source::Suite).collect();
    for (name, build) in tenants {
        out.push(Source::Tenant {
            name,
            build,
            image_seed: image_seed(),
        });
    }
    rng.shuffle(&mut out);
    out
}

/// Source scale. A scale only changes literals in the source text, so
/// compile cost is the same at every scale; `Test` keeps the untimed
/// reference run of the compiled programs to a few milliseconds.
pub const SOURCE_SCALE: Scale = Scale::Test;

pub struct Compile {
    sources: Vec<Source>,
    reps: usize,
    compiler: CaratCompiler,
    key: SigningKey,
}

impl Compile {
    pub fn new(p: Params) -> Result<Compile, String> {
        let options = CompileOptions::default();
        let mut compile = Compile {
            sources: sources(p.seed),
            reps: 1,
            key: options.signing.clone().ok_or("default options sign")?,
            compiler: CaratCompiler::new(options),
        };
        let check = compile.pass(&mut Tracer::off());
        if check.failed > 0 {
            return Err(format!("toolchain self-check failed: {:?}", check.notes));
        }
        // 24 modules at ~0.7 ms each: ~1.2 s per pass.
        compile.reps = if p.smoke { 1 } else { 70 };
        Ok(compile)
    }

    /// Source → IR → instrumented, signed → verified → loaded → decoded.
    fn chain(&self, src: &Source, t: &mut Tracer, pass: &mut Pass) -> Result<Vm, String> {
        let req = Request::Name(src.name());
        let module = match src {
            Source::Suite(w) => {
                let text = t.scope("workloads.source", Layer::Workloads, req, |_| {
                    w.source(SOURCE_SCALE)
                });
                t.scope("frontend.compile_cm", Layer::Frontend, req, |_| {
                    carat_frontend::compile_cm(w.name, &text)
                })
            }
            Source::Tenant {
                build, image_seed, ..
            } => t.scope("frontend.compile_cm", Layer::Frontend, req, |_| {
                build(SOURCE_SCALE, *image_seed)
            }),
        }
        .map_err(|e| e.to_string())?;
        let ir_insts = count_insts(&module);
        t.count("frontend.compile_cm.ir_insts", ir_insts);
        pass.add_exact("ir_insts", ir_insts);
        let compiled = t
            .scope("core.compile", Layer::Core, req, |_| {
                self.compiler.compile(module)
            })
            .map_err(|e| e.to_string())?;
        pass.add_exact("guards_injected", compiled.census.total as u64);
        pass.add_exact(
            "guards_static",
            carat_core::count_guards(&compiled.module) as u64,
        );
        pass.add_exact(
            "tracking_sites",
            carat_core::count_tracking(&compiled.module) as u64,
        );
        let signed = compiled.signed.ok_or("compiler did not sign")?;
        t.scope("core.verify_signature", Layer::Core, req, |_| {
            verify_signature(&signed, &self.key)
        })
        .map_err(|e| e.to_string())?;
        t.scope("vm.load_signed", Layer::Vm, req, |_| {
            Vm::load_signed(&signed, vec![self.key.clone()], VmConfig::default())
        })
        .map_err(|e| e.to_string())
    }
}

pub fn count_insts(module: &Module) -> u64 {
    module
        .func_ids()
        .map(|f| module.func(f).insts_in_layout_order().count() as u64)
        .sum()
}

impl Workload for Compile {
    fn sizes(&self) -> String {
        format!(
            "{} sources at Scale::{SOURCE_SCALE:?} x {} reps",
            self.sources.len(),
            self.reps
        )
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut last: Vec<Option<Vm>> = Vec::new();
        let start = Instant::now();
        for _ in 0..self.reps {
            last.clear();
            for src in &self.sources {
                let t0 = Instant::now();
                let vm = self.chain(src, t, &mut pass);
                pass.steps_ns.push(t0.elapsed().as_nanos() as u32);
                pass.attempted += 1;
                last.push(match vm {
                    Ok(vm) => Some(vm),
                    Err(why) => {
                        pass.fail(format!("{}: {why}", src.name()));
                        None
                    }
                });
            }
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;
        // Nothing ran so far; `instructions` stays absent from `exact`.
        // What the last repetition built must compute the reference
        // results — a module that compiles fast and wrong is a failed op.
        for (src, vm) in self.sources.iter().zip(last) {
            let Some(vm) = vm else { continue };
            let check = vm
                .run()
                .map_err(|e| e.to_string())
                .and_then(|run| expected::check_run(&src.expect_key(SOURCE_SCALE), &run));
            if let Err(why) = check {
                pass.fail(format!("{}: {why}", src.name()));
            }
        }
        pass.add_exact("modules", pass.attempted);
        pass
    }
}
