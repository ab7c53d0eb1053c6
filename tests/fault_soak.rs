//! Fault-injection soak: every armed run either completes with counters
//! identical to its fault-free reference, or dies with a clean typed
//! error — and in *both* cases the machine passes a structural integrity
//! audit. Never a panic, never silent divergence.
//!
//! Faults are injected at the kernel's five [`FaultPoint`]s (destination
//! OOM, mid-move interruption, world-stop stalls, swap-read failures,
//! signature corruption) by deterministic seeded schedules, across the
//! workload × mode matrix.

use std::collections::HashMap;

use carat_suite::core::{CaratCompiler, CompileOptions, SigningKey};
use carat_suite::frontend::compile_cm;
use carat_suite::ir::Module;
use carat_suite::kernel::{FaultPlan, FaultPoint, LoadConfig, Pid};
use carat_suite::vm::{
    Mode, MoveDriverConfig, MultiVm, MultiVmConfig, PerfCounters, ProcOutcome, ProcReport,
    ProcSpec, RunResult, SupervisorConfig, SwapDriverConfig, Vm, VmConfig, VmError,
};

/// Pointer-chasing list traversal: every node holds an escape, so moves
/// and swaps do real patching work.
const LIST_SRC: &str = "
    struct node { int v; struct node* n; };
    int main() {
        struct node* head = (struct node*) null;
        for (int i = 0; i < 250; i += 1) {
            struct node* x = (struct node*) malloc(sizeof(struct node));
            x->v = i; x->n = head; head = x;
        }
        int got = 0;
        for (int pass = 0; pass < 8; pass += 1) {
            struct node* c = head;
            got = 0;
            while (c != null) { got += c->v; c = c->n; }
        }
        return got;
    }
";

/// Array-of-pointers indirection: a dense block of escape cells.
const CELLS_SRC: &str = "
    int main() {
        int n = 1500;
        int* a = (int*) malloc(n * sizeof(int));
        int** cells = (int**) malloc(n * sizeof(int*));
        for (int i = 0; i < n; i += 1) { a[i] = i; cells[i] = &a[i]; }
        int s = 0;
        for (int pass = 0; pass < 4; pass += 1) {
            for (int i = 0; i < n; i += 1) { s += *cells[i]; }
        }
        free(a); free(cells);
        return s % 1000000;
    }
";

fn build(name: &str, src: &str) -> Module {
    let module = compile_cm(name, src).expect("frontend");
    CaratCompiler::new(CompileOptions::default())
        .compile(module)
        .expect("carat")
        .module
}

/// Aggressive move + swap injection so kernel fault points are actually
/// reached (Traditional mode tracks nothing, so its drivers are inert —
/// which the soak also verifies: fault plans must not perturb it).
fn cfg(mode: Mode) -> VmConfig {
    VmConfig {
        mode,
        move_driver: Some(MoveDriverConfig {
            period_cycles: 25_000,
            max_moves: 40,
        }),
        swap_driver: Some(SwapDriverConfig {
            period_cycles: 60_000,
            max_swaps: 15,
        }),
        ..VmConfig::default()
    }
}

fn reference(module: &Module, mode: Mode) -> RunResult {
    Vm::new(module.clone(), cfg(mode))
        .expect("loads")
        .run()
        .expect("fault-free reference run completes")
}

/// The soak invariant, per run.
fn soak_one(tag: &str, module: &Module, mode: Mode, plan: FaultPlan, reference: &RunResult) {
    let config = VmConfig {
        fault_plan: Some(plan.clone()),
        ..cfg(mode)
    };
    let (result, report) = Vm::new(module.clone(), config)
        .expect("loads")
        .run_checked();
    // Whatever happened, the machine must audit clean.
    assert!(
        report.ok(),
        "[{tag}] integrity violated under {plan:?}: {:?}",
        report.violations
    );
    match result {
        Ok(r) => {
            assert_eq!(r.ret, reference.ret, "[{tag}] silent divergence: ret");
            assert_eq!(
                r.counters, reference.counters,
                "[{tag}] silent divergence: counters differ from fault-free run"
            );
        }
        Err(VmError::Kernel(e)) => {
            assert!(
                e.is_recoverable(),
                "[{tag}] injected fault escalated to a fatal kernel error: {e}"
            );
        }
        Err(other) => panic!("[{tag}] non-kernel failure under {plan:?}: {other}"),
    }
}

/// Explicit single-point schedules: each fault point, at its first (and
/// for moves also second) opportunity.
fn explicit_plans() -> Vec<(&'static str, FaultPlan)> {
    vec![
        // Arms nothing: every modeled counter must equal the run with no
        // plan installed.
        ("empty-plan", FaultPlan::new()),
        (
            "oom@1",
            FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 1),
        ),
        (
            "oom@3",
            FaultPlan::new().arm_persistent(FaultPoint::MoveDstAlloc, 3),
        ),
        ("midmove@1", FaultPlan::new().arm(FaultPoint::MidMove, 1)),
        ("midmove@2", FaultPlan::new().arm(FaultPoint::MidMove, 2)),
        (
            "stall@1",
            FaultPlan::new().arm(FaultPoint::WorldStopStall, 1),
        ),
        ("swapread@1", FaultPlan::new().arm(FaultPoint::SwapRead, 1)),
        (
            "combined",
            FaultPlan::new()
                .arm(FaultPoint::MidMove, 1)
                .arm(FaultPoint::SwapRead, 2),
        ),
    ]
}

#[test]
fn carat_survives_explicit_fault_schedule_on_list() {
    let module = build("soak_list", LIST_SRC);
    let reference = reference(&module, Mode::Carat);
    assert!(reference.counters.moves > 0, "drivers actually move pages");
    for (tag, plan) in explicit_plans() {
        soak_one(tag, &module, Mode::Carat, plan, &reference);
    }
}

#[test]
fn carat_survives_explicit_fault_schedule_on_cells() {
    let module = build("soak_cells", CELLS_SRC);
    let reference = reference(&module, Mode::Carat);
    assert!(
        reference.counters.swap_outs > 0,
        "drivers actually swap pages"
    );
    for (tag, plan) in explicit_plans() {
        soak_one(tag, &module, Mode::Carat, plan, &reference);
    }
}

#[test]
fn carat_survives_seeded_fault_schedules() {
    let module = build("soak_list", LIST_SRC);
    let reference = reference(&module, Mode::Carat);
    for seed in 1..=6u64 {
        let plan = FaultPlan::from_seed(seed);
        soak_one(
            &format!("seed{seed}"),
            &module,
            Mode::Carat,
            plan,
            &reference,
        );
    }
}

#[test]
fn traditional_mode_is_unperturbed_by_fault_plans() {
    // The traditional baseline tracks nothing and never moves pages, so
    // no kernel fault point is reachable: every armed run must complete
    // bit-identically to the fault-free one.
    let module = build("soak_cells", CELLS_SRC);
    let reference = reference(&module, Mode::Traditional);
    for seed in 1..=3u64 {
        let plan = FaultPlan::from_seed(seed);
        soak_one(
            &format!("trad-seed{seed}"),
            &module,
            Mode::Traditional,
            plan,
            &reference,
        );
    }
}

#[test]
fn corrupted_signed_image_is_rejected_at_load() {
    let key = SigningKey::from_passphrase("carat-cc", "fault-soak");
    let module = compile_cm("signed_soak", "int main() { return 7; }").unwrap();
    let compiled = CaratCompiler::new(CompileOptions {
        signing: Some(key.clone()),
        ..CompileOptions::default()
    })
    .compile(module)
    .unwrap();
    let signed = compiled.signed.expect("signed");
    let config = VmConfig {
        fault_plan: Some(FaultPlan::new().arm(FaultPoint::SignatureCorrupt, 1)),
        ..VmConfig::default()
    };
    let err = Vm::load_signed(&signed, vec![key.clone()], config).unwrap_err();
    assert!(
        matches!(err, VmError::Load(_)),
        "in-flight corruption must fail signature verification, got {err}"
    );
    // The image itself is intact: a fault-free load runs it.
    let r = Vm::load_signed(&signed, vec![key], VmConfig::default())
        .unwrap()
        .run()
        .unwrap();
    assert_eq!(r.ret, 7);
}

// ---------------------------------------------------------------------------
// Fleet soak: the same invariant under a shared-kernel [`MultiVm`].
//
// A fault plan armed on the fleet's shared kernel fires against whichever
// tenant's slice reaches the nth occurrence. Per tenant, the solo invariant
// carries over unchanged: either it finishes bit-identical to the same pid
// in a fault-free reference fleet, or it dies with a clean typed recoverable
// error — and bystander tenants must never notice either way.
// ---------------------------------------------------------------------------

/// A deterministic four-tenant mix: two pointer-chasing lists and two
/// escape-dense cell arrays, all in CARAT mode with aggressive drivers.
fn fleet_specs() -> Vec<ProcSpec> {
    let list = build("soak_list", LIST_SRC);
    let cells = build("soak_cells", CELLS_SRC);
    vec![
        ("list-0", &list),
        ("cells-1", &cells),
        ("list-2", &list),
        ("cells-3", &cells),
    ]
    .into_iter()
    .map(|(name, module)| ProcSpec {
        name: name.to_string(),
        module: module.clone(),
        cfg: VmConfig {
            // A default-sized load rounds to 64 MiB of buddy arena;
            // four of those fill the kernel exactly, leaving the move
            // and swap drivers nothing to allocate from. Size the fleet
            // like the fleet bench does: small loads, real headroom.
            load: LoadConfig {
                stack_size: 64 * 1024,
                heap_size: 256 * 1024,
                page_size: 4096,
            },
            ..cfg(Mode::Carat)
        },
    })
    .collect()
}

fn fleet_cfg(supervised: bool) -> MultiVmConfig {
    MultiVmConfig {
        supervisor: supervised.then(SupervisorConfig::default),
        // Private move-destination pools: a tenant's relocation
        // addresses must not depend on its neighbors' allocation
        // history, or the bystander bit-identity gate below could not
        // hold when a storm reshapes the fleet around a survivor.
        tenant_pool_pages: 256,
        ..MultiVmConfig::default()
    }
}

/// Reference facts from a fault-free fleet run: per-pid counters (load
/// addresses are deterministic, so original admissions match pid-for-pid)
/// and per-name return values (address-independent, so they also bind
/// supervised respawns).
struct FleetReference {
    by_pid: HashMap<Pid, (i64, PerfCounters)>,
    ret_by_name: HashMap<String, i64>,
}

fn fleet_reference(supervised: bool) -> FleetReference {
    let reports = MultiVm::new(fleet_specs(), fleet_cfg(supervised))
        .expect("admits")
        .run();
    let mut by_pid = HashMap::new();
    let mut ret_by_name = HashMap::new();
    for r in reports {
        let ProcOutcome::Finished(rr) = &r.outcome else {
            panic!("fault-free fleet reference: {} did not finish", r.name);
        };
        by_pid.insert(r.pid, (rr.ret, rr.counters.clone()));
        ret_by_name.insert(r.name, rr.ret);
    }
    FleetReference {
        by_pid,
        ret_by_name,
    }
}

/// The fleet soak invariant, per tenant report.
fn check_fleet_report(
    tag: &str,
    report: &ProcReport,
    reference: &FleetReference,
    armed: &[FaultPoint],
) {
    match &report.outcome {
        ProcOutcome::Finished(rr) => {
            if let Some((ret, counters)) = reference.by_pid.get(&report.pid) {
                // An original admission: bystander gate — bit-identical
                // to the fault-free fleet.
                assert_eq!(
                    rr.ret, *ret,
                    "[{tag}] {} ({}): ret diverged",
                    report.name, report.pid
                );
                assert_eq!(
                    &rr.counters, counters,
                    "[{tag}] {} ({}): bystander counters diverged from the fault-free fleet",
                    report.name, report.pid
                );
            } else {
                // A supervised respawn (fresh pid generation): its load
                // addresses differ, but the program's result must not.
                let want = reference.ret_by_name[&report.name];
                assert_eq!(
                    rr.ret, want,
                    "[{tag}] respawn {} ({}): wrong result",
                    report.name, report.pid
                );
            }
        }
        ProcOutcome::Fault(f) => {
            panic!(
                "[{tag}] {}: injected kernel fault escalated to an isolation fault: {f}",
                report.name
            )
        }
        ProcOutcome::Error(VmError::OutOfMemory) => {
            assert!(
                armed.contains(&FaultPoint::TenantOom),
                "[{tag}] {}: out-of-memory without an armed tenant-oom point",
                report.name
            );
        }
        ProcOutcome::Error(VmError::Kernel(e)) => {
            assert!(
                e.is_recoverable(),
                "[{tag}] {}: injected fault escalated to a fatal kernel error: {e}",
                report.name
            );
        }
        ProcOutcome::Error(other) => {
            panic!("[{tag}] {}: non-kernel failure: {other}", report.name)
        }
    }
}

fn fleet_soak(tag: &str, plan: FaultPlan, supervised: bool, reference: &FleetReference) {
    let armed = plan.armed_points();
    let mut mv = MultiVm::new(fleet_specs(), fleet_cfg(supervised)).expect("admits");
    mv.install_fault_plan(plan);
    let reports = mv.run();
    assert!(
        reports.len() >= 4,
        "[{tag}] every admission is accounted for (got {})",
        reports.len()
    );
    for report in &reports {
        check_fleet_report(tag, report, reference, &armed);
    }
}

#[test]
fn fleet_survives_explicit_fault_schedules() {
    let reference = fleet_reference(false);
    assert_eq!(reference.by_pid.len(), 4);
    for (tag, plan) in explicit_plans() {
        fleet_soak(tag, plan, false, &reference);
    }
}

#[test]
fn fleet_survives_seeded_chaos_storms_under_supervision() {
    // Chaos seeds arm the full fault-point set — including the capsule
    // and per-tenant points — and the supervisor restarts recoverable
    // deaths, so finished respawns appear alongside original pids.
    let reference = fleet_reference(true);
    for seed in 1..=6u64 {
        fleet_soak(
            &format!("chaos-seed{seed}"),
            FaultPlan::from_seed_chaos(seed),
            true,
            &reference,
        );
    }
}

#[test]
fn supervised_fleet_bookkeeping_is_consistent() {
    // Under a storm the supervisor's ledger must add up: every event is
    // a retire, a scheduled restart, or a quarantine, and the counters
    // match the event log exactly.
    let mut mv = MultiVm::new(fleet_specs(), fleet_cfg(true)).expect("admits");
    mv.install_fault_plan(FaultPlan::from_seed_chaos(3));
    mv.run_batch(u64::MAX);
    let sup = mv.supervisor().expect("supervision configured");
    let restarting = sup
        .events
        .iter()
        .filter(|e| matches!(e.verdict, carat_suite::vm::Verdict::Restarting { .. }))
        .count() as u64;
    let quarantined = sup
        .events
        .iter()
        .filter(|e| matches!(e.verdict, carat_suite::vm::Verdict::Quarantined))
        .count() as u64;
    assert_eq!(sup.restarts, restarting);
    assert_eq!(sup.quarantines, quarantined);
    assert!(
        !sup.has_pending(),
        "a drained fleet leaves no respawn waiting"
    );
}
