//! # chaos_soak — fleet-scale fault storms against the supervision layer
//!
//! Drives a supervised fleet of microservice-sized chaos tenants (one
//! shared module, hot malloc sites, live escapes in every pass) through
//! seeded fault storms and the full pressure-degradation ladder, and
//! gates on the properties the fleet fault-domain design promises:
//!
//! * **Zero panics** — every storm arm runs under `catch_unwind`; any
//!   panic anywhere in the kernel/VM stack fails the bench.
//! * **Bystander bit-identity** — in the isolation storms (no pressure),
//!   every tenant that survives a storm must finish with counters
//!   bit-identical to the fault-free reference fleet; supervised
//!   respawns must reproduce the workload's exact result. One tenant's
//!   death is *invisible* to its neighbors.
//! * **Typed failure only** — every non-finished outcome is a typed
//!   recoverable error or a protection fault verdict; nothing untyped.
//! * **CapsuleCorrupt recovery** — every checksum failure injected into
//!   the capsule device surfaces as a recoverable `TenantExit` and is
//!   recovered by a supervisor respawn-from-image.
//! * **Typed backpressure** — a starved arena refuses admission with
//!   `AdmissionError::Backpressure`, never an allocator panic.
//!
//! Also emits the supervision telemetry the robustness story needs:
//! restart/quarantine totals, modeled backoff cycles, and the
//! recovery-latency distribution (slices from death to respawn).
//!
//! Emits `BENCH_chaos.json` (override with `--out PATH`). Scale presets:
//! `--scale test` runs 64 tenants, `small` 256, `full` 1000. The tenant
//! interpreter tier is selectable with
//! `--engine reference|decoded|fused|threaded` (default fused): the
//! zero-panic / bit-identity / typed-failure gates must hold on every
//! tier, including threaded streams with guards elided under proofs.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::process::ExitCode;
use std::rc::Rc;

use carat_bench::{instrument, obj, percentile, print_table, Args, Json, Report, Variant};
use carat_ir::Module;
use carat_kernel::{AdmissionError, FaultPlan, FaultPoint, LoadConfig, Pid};
use carat_vm::{
    Engine, Mode, MoveDriverConfig, MultiVm, MultiVmConfig, PerfCounters, ProcOutcome,
    SupervisorConfig, SwapDriverConfig, TenantExit, Verdict, Vm, VmConfig, VmError,
};
use carat_workloads::{chaos_tenant, Scale};

/// Microservice-sized capsule: the tenant touches a few hundred heap
/// bytes, so this leaves headroom while keeping a 1k fleet compact.
const CHAOS_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 16 * 1024,
    page_size: 4096,
};

/// Private move-destination pool per tenant, in frames. Generous
/// relative to the tenant's 4-page heap, so CARAT moves never fall back
/// to the shared buddy allocator mid-run — the allocation-isolation
/// property the bystander bit-identity gate rests on.
const POOL_PAGES: u64 = 32;

/// Seeded storms checked against the fault-free reference (no pressure:
/// the fleet composition is the only thing the storm perturbs).
const ISOLATION_SEEDS: [u64; 4] = [1, 2, 3, 4];

/// Seeded storms run with the full degradation ladder active
/// (pressure passes, aggressive externalization, backpressure rung).
const LADDER_SEEDS: [u64; 3] = [5, 6, 7];

fn fleet_size(scale: Scale) -> usize {
    match scale {
        Scale::Test => 64,
        Scale::Small => 256,
        Scale::Full => 1000,
    }
}

fn kernel_mem(tenants: usize) -> u64 {
    64 * 1024 * 1024 + tenants as u64 * 256 * 1024
}

fn tenant_cfg(engine: Engine) -> VmConfig {
    VmConfig {
        mode: Mode::Carat,
        engine,
        load: CHAOS_LOAD,
        // Aggressive drivers: relocations and page-outs every few
        // thousand cycles, so every storm arm exercises the CARAT
        // mechanisms the fault points live in.
        move_driver: Some(MoveDriverConfig {
            period_cycles: 5_000,
            max_moves: 6,
        }),
        swap_driver: Some(SwapDriverConfig {
            period_cycles: 12_000,
            max_swaps: 4,
        }),
        ..VmConfig::default()
    }
}

fn fleet_cfg(tenants: usize, ladder: bool) -> MultiVmConfig {
    MultiVmConfig {
        quantum: 256,
        kernel_mem: kernel_mem(tenants),
        pressure_every: if ladder { 8 } else { 0 },
        pressure_batch: 4,
        supervisor: Some(SupervisorConfig::default()),
        // Rung 3 on every pressure pass (the arena is always past 1%),
        // rung 4 guarding respawn admissions near exhaustion.
        externalize_watermark: if ladder { 1 } else { 100 },
        backpressure_watermark: if ladder { 97 } else { 101 },
        tenant_pool_pages: POOL_PAGES,
        ..MultiVmConfig::default()
    }
}

/// What every tenant is spawned from: the shared module and its config.
type Tenant = (Rc<Module>, VmConfig);

fn build_fleet(tenants: usize, (module, cfg): &Tenant, ladder: bool) -> MultiVm {
    let mut mv = MultiVm::new(Vec::new(), fleet_cfg(tenants, ladder)).expect("empty fleet builds");
    for i in 0..tenants {
        mv.spawn_shared(&format!("t{i}"), module.clone(), cfg.clone())
            .unwrap_or_else(|e| {
                eprintln!("chaos_soak: admitting tenant {i}/{tenants} failed: {e}");
                std::process::exit(2);
            });
    }
    mv
}

/// The fault-free fleet every isolation storm is compared against:
/// per-pid return values and bit-exact counters.
fn reference(tenants: usize, tenant: &Tenant) -> HashMap<Pid, (i64, PerfCounters)> {
    let reports = build_fleet(tenants, tenant, false).run();
    reports
        .into_iter()
        .map(|r| match r.outcome {
            ProcOutcome::Finished(rr) => (r.pid, (rr.ret, rr.counters)),
            other => {
                eprintln!(
                    "chaos_soak: fault-free reference tenant {} did not finish: {other:?}",
                    r.name
                );
                std::process::exit(2);
            }
        })
        .collect()
}

/// What one storm arm produced, folded down to the gate inputs.
#[derive(Default)]
struct StormReport {
    label: String,
    slices: u64,
    finished: u64,
    respawned_finished: u64,
    errors_typed: u64,
    untyped: u64,
    divergences: u64,
    restarts: u64,
    quarantines: u64,
    backoff_cycles: u64,
    corrupt_seen: u64,
    corrupt_recovered: u64,
    recovery_samples: Vec<u64>,
    externalizations: u64,
    pressure_moves: u64,
    pressure_page_outs: u64,
    respawn_refusals: u64,
}

fn typed_recoverable(e: &VmError) -> bool {
    match e {
        VmError::OutOfMemory => true,
        VmError::Kernel(k) => k.is_recoverable(),
        _ => false,
    }
}

fn run_storm(
    label: &str,
    plan: FaultPlan,
    tenants: usize,
    tenant: &Tenant,
    ladder: bool,
    reference: Option<&HashMap<Pid, (i64, PerfCounters)>>,
    expected_ret: i64,
) -> StormReport {
    let mut rep = StormReport {
        label: label.to_string(),
        ..StormReport::default()
    };
    let mut mv = build_fleet(tenants, tenant, ladder);
    mv.install_fault_plan(plan);
    rep.slices = mv.run_batch(u64::MAX);
    {
        let sup = mv.supervisor().expect("supervision configured");
        rep.restarts = sup.restarts;
        rep.quarantines = sup.quarantines;
        rep.backoff_cycles = sup.backoff_cycles;
        for ev in &sup.events {
            if matches!(ev.exit, TenantExit::CapsuleCorrupt { .. }) {
                rep.corrupt_seen += 1;
                if matches!(ev.verdict, Verdict::Restarting { .. }) && ev.respawned_as.is_some() {
                    rep.corrupt_recovered += 1;
                }
            }
            if matches!(ev.verdict, Verdict::Restarting { .. }) {
                if let Some((_, at)) = ev.respawned_as {
                    rep.recovery_samples.push(at.saturating_sub(ev.slice));
                } else {
                    // Scheduled but refused at admission: the ladder's
                    // rung-4 give-up path (logged as a quarantine).
                    rep.respawn_refusals += 1;
                }
            }
        }
    }
    let reports = mv.run();
    for r in &reports {
        rep.externalizations += r.accounting.externalizations;
        rep.pressure_moves += r.accounting.pressure_moves;
        rep.pressure_page_outs += r.accounting.pressure_page_outs;
        match &r.outcome {
            ProcOutcome::Finished(rr) => match reference.and_then(|m| m.get(&r.pid)) {
                Some((ret, counters)) => {
                    rep.finished += 1;
                    if rr.ret != *ret || rr.counters != *counters {
                        eprintln!(
                            "chaos_soak[{label}]: bystander {} (pid {}) diverged from the fault-free fleet",
                            r.name, r.pid
                        );
                        rep.divergences += 1;
                    }
                }
                None => {
                    // A respawned lineage (or a ladder storm, where no
                    // per-pid reference exists): the workload's result
                    // is still a pure function of its image.
                    if reference.is_some() {
                        rep.respawned_finished += 1;
                    } else {
                        rep.finished += 1;
                    }
                    if rr.ret != expected_ret {
                        eprintln!(
                            "chaos_soak[{label}]: tenant {} finished with {} (expected {expected_ret})",
                            r.name, rr.ret
                        );
                        rep.divergences += 1;
                    }
                }
            },
            ProcOutcome::Error(e) if typed_recoverable(e) => rep.errors_typed += 1,
            other => {
                eprintln!(
                    "chaos_soak[{label}]: tenant {} died untyped: {other:?}",
                    r.name
                );
                rep.untyped += 1;
            }
        }
    }
    rep
}

/// Rung 4 in isolation: a starved arena must refuse admission with a
/// typed backpressure error, never an allocator panic. Returns
/// (admitted before refusal, refusal was typed).
fn backpressure_probe((module, cfg): &Tenant) -> (usize, bool) {
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            kernel_mem: 8 * 1024 * 1024,
            backpressure_watermark: 50,
            supervisor: Some(SupervisorConfig::default()),
            tenant_pool_pages: POOL_PAGES,
            ..MultiVmConfig::default()
        },
    )
    .expect("probe fleet builds");
    for i in 0..200 {
        match mv.spawn_shared(&format!("p{i}"), module.clone(), cfg.clone()) {
            Ok(_) => {}
            Err(VmError::Admission(AdmissionError::Backpressure { .. })) => return (i, true),
            Err(e) => {
                eprintln!("chaos_soak: backpressure probe refused untyped: {e}");
                return (i, false);
            }
        }
    }
    (200, false)
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, out_path) = (args.scale, args.out);
    let engine = args.engine.unwrap_or_default();
    let tenants = fleet_size(scale);
    let module = chaos_tenant(scale, 0).expect("chaos tenant compiles");
    let tenant = (
        Rc::new(instrument(module, Variant::Full)),
        tenant_cfg(engine),
    );
    let expected_ret = {
        let solo = chaos_tenant(scale, 0).expect("compiles");
        Vm::new(solo, VmConfig::default())
            .expect("loads")
            .run()
            .expect("runs")
            .ret
    };
    println!(
        "chaos_soak: {tenants}-tenant supervised fleet, scale {scale:?}, engine {}, expected ret {expected_ret}",
        engine.name()
    );
    println!();

    let by_pid = reference(tenants, &tenant);
    let mut storms: Vec<StormReport> = Vec::new();
    let mut panics = 0u64;
    let seeded = |prefix: &'static str, ladder| {
        move |seed| {
            (
                format!("{prefix}-seed{seed}"),
                FaultPlan::from_seed_chaos(seed),
                ladder,
            )
        }
    };
    // A deliberate capsule storm so the corrupt-recovery gate always
    // has samples: the first device read fails its checksum, a later
    // device write is refused, and a mid-run malloc is starved.
    let capsule = FaultPlan::new()
        .arm(FaultPoint::CapsuleCorrupt, 1)
        .arm(FaultPoint::CapsuleWrite, 3)
        .arm(FaultPoint::TenantOom, 9);
    let arms = ISOLATION_SEEDS
        .map(seeded("iso", false))
        .into_iter()
        .chain(LADDER_SEEDS.map(seeded("ladder", true)))
        .chain([("ladder-capsule".to_string(), capsule, true)]);
    for (label, plan, ladder) in arms {
        let reference = (!ladder).then_some(&by_pid);
        let outcome = catch_unwind(AssertUnwindSafe(|| {
            run_storm(
                &label,
                plan,
                tenants,
                &tenant,
                ladder,
                reference,
                expected_ret,
            )
        }));
        match outcome {
            Ok(rep) => storms.push(rep),
            Err(_) => {
                eprintln!("chaos_soak[{label}]: PANIC escaped the fault domain");
                panics += 1;
            }
        }
    }

    let rows: Vec<Vec<String>> = storms
        .iter()
        .map(|s| {
            vec![
                s.label.clone(),
                s.slices.to_string(),
                s.finished.to_string(),
                s.respawned_finished.to_string(),
                s.errors_typed.to_string(),
                s.restarts.to_string(),
                s.quarantines.to_string(),
                s.divergences.to_string(),
                format!("{}/{}", s.corrupt_recovered, s.corrupt_seen),
                s.externalizations.to_string(),
            ]
        })
        .collect();
    print_table(
        &[
            "storm",
            "slices",
            "finished",
            "respawned",
            "typed err",
            "restarts",
            "quarant.",
            "diverged",
            "corrupt rec",
            "extern.",
        ],
        &rows,
    );

    let divergences: u64 = storms.iter().map(|s| s.divergences).sum();
    let untyped: u64 = storms.iter().map(|s| s.untyped).sum();
    let restarts: u64 = storms.iter().map(|s| s.restarts).sum();
    let quarantines: u64 = storms.iter().map(|s| s.quarantines).sum();
    let backoff_cycles: u64 = storms.iter().map(|s| s.backoff_cycles).sum();
    let corrupt_seen: u64 = storms.iter().map(|s| s.corrupt_seen).sum();
    let corrupt_recovered: u64 = storms.iter().map(|s| s.corrupt_recovered).sum();
    let latencies: Vec<u64> = storms
        .iter()
        .flat_map(|s| s.recovery_samples.iter().copied())
        .collect();
    let [p50, p90, max] = [50.0, 90.0, 100.0].map(|p| percentile(&latencies, p));
    let (admitted, backpressure_typed) = backpressure_probe(&tenant);

    let mut report = Report::default();
    println!();
    report.gate(
        "zero_panic",
        panics == 0,
        &format!(
            "zero panics across {} storm arms",
            storms.len() as u64 + panics
        ),
    );
    report.gate(
        "bystanders_identical",
        divergences == 0,
        "zero bystander divergence (counters bit-identical to the fault-free fleet)",
    );
    report.gate(
        "typed_outcomes",
        untyped == 0,
        "every failure typed (recoverable error or supervised verdict)",
    );
    report.gate(
        "corrupt_recovered",
        corrupt_seen >= 1 && corrupt_recovered == corrupt_seen,
        &format!("every injected CapsuleCorrupt recovered by respawn-from-image ({corrupt_recovered}/{corrupt_seen})"),
    );
    report.gate(
        "backpressure_typed",
        backpressure_typed,
        &format!("starved arena refused admission typed after {admitted} tenants"),
    );
    println!(
        "supervision: {restarts} restarts, {quarantines} quarantines, {backoff_cycles} backoff cycles; \
         recovery latency p50 {p50} p90 {p90} max {max} slices ({} samples)",
        latencies.len()
    );

    let storms: Vec<Json> = storms
        .iter()
        .map(|s| {
            obj! {
                "storm": s.label.as_str(), "slices": s.slices, "finished": s.finished,
                "respawned_finished": s.respawned_finished, "errors_typed": s.errors_typed,
                "untyped": s.untyped, "divergences": s.divergences, "restarts": s.restarts,
                "quarantines": s.quarantines, "corrupt_seen": s.corrupt_seen,
                "corrupt_recovered": s.corrupt_recovered, "externalizations": s.externalizations,
                "pressure_moves": s.pressure_moves, "pressure_page_outs": s.pressure_page_outs,
                "respawn_refusals": s.respawn_refusals,
            }
        })
        .collect();
    report.extend(obj! {
        "benchmark": "chaos_soak", "scale": format!("{scale:?}"), "tenants": tenants,
        "engine": engine.name(), "expected_ret": expected_ret, "storms": storms,
        "panics": panics, "divergences": divergences, "untyped": untyped,
        "restarts": restarts, "quarantines": quarantines, "backoff_cycles": backoff_cycles,
        "recovery_latency_slices":
            obj! {"samples": latencies.len(), "p50": p50, "p90": p90, "max": max},
        "capsule": obj! {"corrupt_seen": corrupt_seen, "corrupt_recovered": corrupt_recovered},
        "backpressure": obj! {"admitted_before_refusal": admitted, "typed": backpressure_typed},
    });
    report.finish(&out_path)
}
