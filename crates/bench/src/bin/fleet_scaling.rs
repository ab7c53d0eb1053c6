//! # fleet_scaling — the 100k-tenant scaling curve
//!
//! Spawns fleets of 10 / 100 / 1k / 10k / 100k microservice-sized
//! tenants (one shared module, one shared decoded program) on one kernel
//! and measures what the slab-indexed process subsystem costs as the
//! fleet grows:
//!
//! * **Context-switch cost per slice** — modeled kernel cycles per
//!   switch must be FLAT across scales (the switch installs a region
//!   set, it never walks the fleet), and the CARAT figure (region
//!   install, no TLB flush) must undercut traditional paging (TLB flush
//!   + amortized ASID refill) at EVERY scale.
//! * **Host ns per slice** — the scheduler's own work per slice
//!   (run-queue pop, table checkout, three borrows) must
//!   not grow with fleet size: the curve gates on the largest scale
//!   staying within a small factor of the smallest. Each slice is timed
//!   individually, so the JSON also carries the **p99 slice latency** —
//!   the tail a latency SLO would see under fan-out.
//! * **Descheduled-tenant memory** — host bytes pinned per parked
//!   tenant (frame stack, thread slots, counters; capsule bytes live in
//!   kernel memory and decoded code is shared) must be flat in fleet
//!   size.
//! * **Pressure-compaction throughput** — journaled CARAT moves + page
//!   outs driven on descheduled victims while the fleet runs.
//! * **Churn soak** — spawn/kill/respawn against tight admission quotas
//!   at the largest scale: refusals are typed `AdmissionError`s, killed
//!   and recycled pids fail lookups with typed `TenancyError`s, and
//!   nothing ever panics.
//! * **Batch admission** — `spawn_batch` vs sequential `spawn_shared`
//!   at every scale: modeled admission cycles must amortize ≥5×, and a
//!   bounded prefix of both fleets must run with bit-identical
//!   per-tenant counters (the counter-divergence gate).
//! * **Capsule arena** — externalize/rehydrate churn through the pooled
//!   arena: high-water marks recorded, and steady-state churn must
//!   allocate nothing (every round after the first reuses slots).
//! * **Epoch pressure scans** — victim picks examine a bounded window
//!   of slab slots per pass (`2 × limit`, externalization + compaction),
//!   independent of fleet size — the per-slice flatness gate.
//!
//! Emits `BENCH_fleet.json` (override with `--out PATH`). Scale presets:
//! `--scale test` runs 10/100, `small` adds 1k, `full` adds 10k and
//! 100k. The tenants' interpreter tier is selectable with
//! `--engine reference|decoded|fused|threaded` (default fused) — the
//! scaling gates must hold on every tier. `--sched quantum|timer`
//! (default quantum) selects the preemption source: the instruction
//! quantum or the CLINT-style cycle-deadline timer.

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use carat_bench::{fixed, instrument, obj, print_table, Args, Json, Report, Variant};
use carat_ir::Module;
use carat_kernel::{ArenaStats, LoadConfig, Pid, TenantQuotas};
use carat_runtime::CostModel;
use carat_vm::{MultiVm, MultiVmConfig, ProcOutcome, TenancyError, VmConfig, VmError};
use carat_workloads::{fleet_tenant, Scale};

/// Per-tenant capsule sizing: a microservice, not a batch job. The
/// tenant program touches a few hundred heap bytes and a few stack
/// frames, so 8 KiB of stack and 16 KiB of heap leave headroom while
/// keeping a 10k-tenant fleet under 2 GiB of managed memory.
const FLEET_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 16 * 1024,
    page_size: 4096,
};

/// Slices each live tenant gets in the timed steady-state batch.
const TIMED_SLICES_PER_TENANT: u64 = 2;

fn fleet_sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Test => &[10, 100],
        Scale::Small => &[10, 100, 1000],
        Scale::Full => &[10, 100, 1000, 10000, 100000],
    }
}

fn kernel_mem(tenants: usize) -> u64 {
    64 * 1024 * 1024 + tenants as u64 * 128 * 1024
}

fn tenant_cfg(variant: Variant, args: &Args) -> VmConfig {
    VmConfig {
        mode: variant.mode(),
        engine: args.engine.unwrap_or_default(),
        load: FLEET_LOAD,
        ..VmConfig::default()
    }
}

fn tenant_module(scale: Scale, variant: Variant, seed: i64) -> Rc<Module> {
    let module = fleet_tenant(scale, seed).expect("fleet tenant compiles");
    Rc::new(instrument(module, variant))
}

fn build_fleet(
    tenants: usize,
    args: &Args,
    variant: Variant,
    pressure_every: u64,
) -> (MultiVm, Vec<Pid>) {
    let module = tenant_module(args.scale, variant, 0);
    let quantum = match args.scale {
        Scale::Test => 128,
        Scale::Small | Scale::Full => 256,
    };
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            quantum,
            // `--sched timer` swaps the instruction quantum for the
            // CLINT-style cycle-deadline comparator; the scaling gates
            // must hold under either preemption source.
            sched: args.sched,
            timer_interval: quantum * 16,
            kernel_mem: kernel_mem(tenants),
            pressure_every,
            pressure_batch: 4,
            ..MultiVmConfig::default()
        },
    )
    .expect("empty fleet builds");
    let cfg = tenant_cfg(variant, args);
    let pids = spawn_fleet(&mut mv, &module, &cfg, tenants);
    (mv, pids)
}

/// Batch-admit `tenants` identical tenants named `t0..`.
fn spawn_fleet(mv: &mut MultiVm, module: &Rc<Module>, cfg: &VmConfig, tenants: usize) -> Vec<Pid> {
    mv.spawn_batch("t", module.clone(), cfg.clone(), tenants)
        .unwrap_or_else(|e| {
            eprintln!("fleet_scaling: batch-admitting {tenants} tenants failed: {e}");
            std::process::exit(2);
        })
}

/// One measured arm: warm every tenant once, time a steady-state batch,
/// sample descheduled footprints, then drain to completion and fold the
/// kernel accounting.
struct ArmResult {
    ns_per_slice: f64,
    p99_ns_per_slice: u64,
    cycles_per_switch: f64,
    switches: u64,
    tlb_flushes: u64,
    descheduled_bytes_per_tenant: f64,
    outcomes_ok: bool,
}

impl ArmResult {
    fn json(&self) -> Json {
        obj! {
            "ns_per_slice": fixed(self.ns_per_slice, 1), "p99_ns_per_slice": self.p99_ns_per_slice,
            "cycles_per_switch": fixed(self.cycles_per_switch, 3), "switches": self.switches,
            "tlb_flushes": self.tlb_flushes,
        }
    }
}

fn run_arm(tenants: usize, args: &Args, variant: Variant) -> ArmResult {
    let (mut mv, pids) = build_fleet(tenants, args, variant, 0);
    // Warmup: one slice per tenant (first switch installs every region
    // set; the timed batch then sees steady-state switching only).
    mv.run_batch(tenants as u64);
    let want = tenants as u64 * TIMED_SLICES_PER_TENANT;
    // Slices are driven one at a time so each gets its own wall-clock
    // sample: the p99 is the tail the mean hides (a pressure pass, an
    // externalization, a cold cache), exactly what a latency SLO sees.
    let mut samples: Vec<u64> = Vec::with_capacity(want as usize);
    let t0 = Instant::now();
    let mut ran = 0u64;
    while ran < want {
        let t = Instant::now();
        let step = mv.run_batch(1);
        if step == 0 {
            break;
        }
        samples.push(t.elapsed().as_nanos() as u64);
        ran += step;
    }
    let elapsed = t0.elapsed();
    let ns_per_slice = elapsed.as_nanos() as f64 / ran.max(1) as f64;
    let p99_ns_per_slice = carat_bench::percentile(&samples, 99.0);
    // Descheduled footprint, sampled while everything is parked.
    let sample: Vec<usize> = pids
        .iter()
        .take(64)
        .map(|&p| mv.descheduled_bytes(p).expect("live tenant"))
        .collect();
    let bytes_per_tenant = sample.iter().sum::<usize>() as f64 / sample.len().max(1) as f64;
    let expected_ret = {
        let solo = fleet_tenant(args.scale, 0).expect("compiles");
        carat_vm::Vm::new(solo, VmConfig::default())
            .expect("loads")
            .run()
            .expect("runs")
            .ret
    };
    let reports = mv.run();
    let outcomes_ok = reports.len() == tenants
        && reports
            .iter()
            .all(|r| matches!(&r.outcome, ProcOutcome::Finished(rr) if rr.ret == expected_ret));
    let switches: u64 = reports.iter().map(|r| r.accounting.ctx_switches).sum();
    let cycles: u64 = reports.iter().map(|r| r.accounting.ctx_switch_cycles).sum();
    let tlb_flushes: u64 = reports.iter().map(|r| r.accounting.tlb_flushes).sum();
    ArmResult {
        ns_per_slice,
        p99_ns_per_slice,
        cycles_per_switch: cycles as f64 / switches.max(1) as f64,
        switches,
        tlb_flushes,
        descheduled_bytes_per_tenant: bytes_per_tenant,
        outcomes_ok,
    }
}

struct PressureResult {
    moves: u64,
    page_outs: u64,
    cycles_per_relocation: f64,
    /// Slab slots an average pressure pass examined (externalization
    /// scan + compaction victim pick) — the epoch-scan flatness metric:
    /// bounded by `2 × scan limit` whatever the fleet size.
    scan_slots_per_pass: f64,
    scan_cycles_per_pass: f64,
}

/// The compaction arm: same fleet, pressure pass every 8 slices —
/// journaled moves + page-outs on descheduled victims, charged to
/// kernel accounting.
fn run_pressure(tenants: usize, args: &Args) -> PressureResult {
    let (mut mv, _pids) = build_fleet(tenants, args, Variant::Full, 8);
    mv.run_batch(tenants as u64);
    mv.run_batch(u64::MAX);
    // Scan accounting is fleet-level state; read it before teardown.
    let passes = (mv.slices() / 8).max(1);
    let scan_slots_per_pass = mv.pressure_scan_slots() as f64 / passes as f64;
    let scan_cycles_per_pass = mv.pressure_scan_cycles() as f64 / passes as f64;
    let reports = mv.run();
    let moves: u64 = reports.iter().map(|r| r.accounting.pressure_moves).sum();
    let outs: u64 = reports
        .iter()
        .map(|r| r.accounting.pressure_page_outs)
        .sum();
    let cycles: u64 = reports.iter().map(|r| r.accounting.compaction_cycles).sum();
    PressureResult {
        moves,
        page_outs: outs,
        cycles_per_relocation: cycles as f64 / (moves + outs).max(1) as f64,
        scan_slots_per_pass,
        scan_cycles_per_pass,
    }
}

struct AdmissionResult {
    batch_cycles: u64,
    seq_cycles: u64,
    /// `seq_cycles / batch_cycles` — the amortization factor (≥5× is
    /// the acceptance bar, at every size).
    ratio: f64,
    ns_per_admit_batch: f64,
    ns_per_admit_seq: f64,
    /// Counter-divergence gate: a bounded prefix of both fleets ran the
    /// same slices with bit-identical per-tenant counters.
    counters_match: bool,
    arena: ArenaStats,
    /// Steady-state gate: externalize/rehydrate rounds after the first
    /// allocated no new arena slots, reuse fired, and the final round
    /// drained the pool back to zero live slots.
    arena_steady: bool,
}

/// The admission arm: build the same fleet as one batch of n and as n
/// batches of one, and compare the modeled toll, wall-clock per admit,
/// and (bounded) per-tenant counters; then drive externalize/rehydrate
/// churn through the batch fleet to exercise the pooled capsule arena.
fn run_admission(tenants: usize, args: &Args) -> AdmissionResult {
    let module = tenant_module(args.scale, Variant::Full, 0);
    let cfg = tenant_cfg(Variant::Full, args);
    let fleet_cfg = MultiVmConfig {
        quantum: 128,
        kernel_mem: kernel_mem(tenants),
        ..MultiVmConfig::default()
    };

    let t0 = Instant::now();
    let mut batch = MultiVm::new(Vec::new(), fleet_cfg).expect("empty fleet builds");
    let pids = spawn_fleet(&mut batch, &module, &cfg, tenants);
    let ns_per_admit_batch = t0.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    let batch_cycles = batch.admission_cycles();

    let t0 = Instant::now();
    let mut seq = MultiVm::new(Vec::new(), fleet_cfg).expect("empty fleet builds");
    for i in 0..tenants {
        // `spawn_shared` is `spawn_batch` of one under the caller's name.
        seq.spawn_shared(&format!("t{i}"), module.clone(), cfg.clone())
            .unwrap_or_else(|e| {
                eprintln!("fleet_scaling: admitting tenant {i}/{tenants} failed: {e}");
                std::process::exit(2);
            });
    }
    let ns_per_admit_seq = t0.elapsed().as_nanos() as f64 / tenants.max(1) as f64;
    let seq_cycles = seq.admission_cycles();

    // Counter divergence, on a bounded prefix (cheap at any scale): the
    // first ~64 tenants of both fleets run the same slices and must end
    // them with bit-identical counters.
    let probe = pids.len().min(64);
    let slices = probe as u64 * 2;
    batch.run_batch(slices);
    seq.run_batch(slices);
    let counters_match = pids
        .iter()
        .take(probe)
        .all(|&p| batch.counters(p).ok() == seq.counters(p).ok());
    drop(seq);

    // Arena churn: three externalize/rehydrate rounds over a bounded
    // window. Round one populates the size classes; every later round
    // must run entirely on the free lists.
    let window = &pids[..probe];
    let mut allocs_after_first = 0u64;
    for round in 0..3 {
        for &p in window {
            batch.externalize_tenant(p).expect("externalizes");
        }
        for &p in window {
            batch.rehydrate_tenant(p).expect("rehydrates");
        }
        if round == 0 {
            allocs_after_first = batch.arena_stats().allocs;
        }
    }
    let arena = batch.arena_stats();
    let arena_steady =
        arena.allocs == allocs_after_first && arena.reuses > 0 && arena.slots_live == 0;
    AdmissionResult {
        batch_cycles,
        seq_cycles,
        ratio: seq_cycles as f64 / batch_cycles.max(1) as f64,
        ns_per_admit_batch,
        ns_per_admit_seq,
        counters_match,
        arena,
        arena_steady,
    }
}

/// Spawn/kill/respawn churn against tight quotas at the largest scale.
/// Every refusal must be a typed [`VmError::Admission`]; every lookup or
/// kill of a retired pid must fail typed (never alias a recycled slot,
/// never panic). Records the soak's gate and returns its counts.
fn run_churn(tenants: usize, args: &Args, report: &mut Report) -> Json {
    let module = tenant_module(args.scale, Variant::Full, 1);
    let cfg = tenant_cfg(Variant::Full, args);
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            quantum: 128,
            kernel_mem: kernel_mem(tenants),
            ..MultiVmConfig::default()
        },
    )
    .expect("empty fleet builds");
    // Probe one tenant to learn the capsule size, then set quotas that
    // admit only half the requested fleet — the soak must hit the
    // ceiling and get typed refusals.
    let probe = mv
        .spawn_shared("probe", module.clone(), cfg.clone())
        .expect("probe admits");
    let capsule = mv.kernel.procs.resident_bytes();
    mv.kernel.set_quotas(TenantQuotas {
        max_tenants: tenants,
        max_resident_bytes: capsule * (tenants as u64 / 2).max(2),
    });
    let mut live: Vec<Pid> = vec![probe];
    let mut stale: Vec<Pid> = Vec::new();
    let (mut spawned, mut killed, mut refusals, mut stale_typed, mut slices) =
        (1u64, 0u64, 0u64, 0u64, 0u64);
    let mut ok = true;
    for round in 0..3 {
        // Spawn until the quota refuses (cap attempts at the fleet size).
        for i in 0..tenants {
            match mv.spawn_shared(&format!("c{round}.{i}"), module.clone(), cfg.clone()) {
                Ok(pid) => {
                    live.push(pid);
                    spawned += 1;
                }
                Err(VmError::Admission(_)) => {
                    refusals += 1;
                    break;
                }
                Err(e) => {
                    eprintln!("fleet_scaling: churn spawn died untyped: {e}");
                    ok = false;
                    break;
                }
            }
        }
        slices += mv.run_batch(live.len() as u64 * 2);
        // Kill every other tenant; their pids go stale for good.
        let mut keep = Vec::with_capacity(live.len() / 2 + 1);
        for (i, pid) in live.drain(..).enumerate() {
            if i % 2 == 0 {
                ok &= mv.kill(pid);
                killed += 1;
                stale.push(pid);
            } else {
                keep.push(pid);
            }
        }
        live = keep;
        // Every retired pid (including ones whose slab slot was recycled
        // by this round's spawns) must fail typed, never alias.
        for &pid in &stale {
            match mv.counters(pid) {
                Err(TenancyError::NoSuchTenant(p)) if p == pid => stale_typed += 1,
                other => {
                    eprintln!("fleet_scaling: stale pid {pid} lookup returned {other:?}");
                    ok = false;
                }
            }
            if mv.kill(pid) {
                eprintln!("fleet_scaling: stale pid {pid} killed twice");
                ok = false;
            }
        }
    }
    // `ok` already went false on any untyped refusal, aliased lookup, or
    // double kill; the soak additionally must have hit the quota and run.
    ok &= refusals > 0 && slices > 0 && stale_typed > 0;
    report.gate(
        "ok",
        ok,
        &format!(
            "churn soak at {tenants} tenants — {spawned} spawned, {killed} killed, \
             {refusals} typed refusals, {stale_typed} typed stale lookups, {slices} slices, \
             0 panics"
        ),
    );
    obj! {
        "tenants": tenants, "spawned": spawned, "killed": killed,
        "admission_refusals": refusals, "stale_lookups_typed": stale_typed, "slices": slices,
    }
}

/// One fleet size's four arms.
struct Point {
    n: usize,
    carat: ArmResult,
    trad: ArmResult,
    pressure: PressureResult,
    admission: AdmissionResult,
}

impl Point {
    fn row(&self) -> Vec<String> {
        let (c, p, a) = (&self.carat, &self.pressure, &self.admission);
        vec![
            self.n.to_string(),
            format!("{:.0}", c.ns_per_slice),
            c.p99_ns_per_slice.to_string(),
            format!("{:.1}", c.cycles_per_switch),
            format!("{:.1}", self.trad.cycles_per_switch),
            format!("{:.0}", c.descheduled_bytes_per_tenant),
            format!("{:.0}", p.cycles_per_relocation),
            format!("{:.1}", a.ratio),
            format!("{:.0}", p.scan_slots_per_pass),
            (a.arena.high_water_bytes / 1024).to_string(),
        ]
    }

    fn json(&self) -> Json {
        let (p, a) = (&self.pressure, &self.admission);
        obj! {
            "tenants": self.n, "carat": self.carat.json(), "traditional": self.trad.json(),
            "descheduled_bytes_per_tenant": fixed(self.carat.descheduled_bytes_per_tenant, 1),
            "pressure": obj! {
                "moves": p.moves, "page_outs": p.page_outs,
                "cycles_per_relocation": fixed(p.cycles_per_relocation, 1),
                "scan_slots_per_pass": fixed(p.scan_slots_per_pass, 1),
                "scan_cycles_per_pass": fixed(p.scan_cycles_per_pass, 1),
            },
            "admission": obj! {
                "batch_cycles": a.batch_cycles, "seq_cycles": a.seq_cycles,
                "ratio": fixed(a.ratio, 2), "ns_per_admit_batch": fixed(a.ns_per_admit_batch, 0),
                "ns_per_admit_seq": fixed(a.ns_per_admit_seq, 0),
                "counters_match": a.counters_match,
            },
            "arena": obj! {
                "high_water_bytes": a.arena.high_water_bytes,
                "high_water_slots": a.arena.high_water_slots, "allocs": a.arena.allocs,
                "reuses": a.arena.reuses, "steady": a.arena_steady,
            },
        }
    }
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    let engine = args.engine.unwrap_or_default();
    let sizes = fleet_sizes(scale);
    let cost = CostModel::default();
    let scan_limit = MultiVmConfig::default().pressure_scan_limit;
    println!(
        "fleet_scaling: fleets of {sizes:?} tenants, scale {scale:?}, engine {}, \
         scan limit {} (modeled switch: carat {} vs traditional {})",
        engine.name(),
        scan_limit,
        cost.ctx_switch_carat(),
        cost.ctx_switch_traditional()
    );
    println!();

    let points: Vec<Point> = sizes
        .iter()
        .map(|&n| Point {
            n,
            carat: run_arm(n, &args, Variant::Full),
            trad: run_arm(n, &args, Variant::Traditional),
            pressure: run_pressure(n, &args),
            admission: run_admission(n, &args),
        })
        .collect();
    print_table(
        &[
            "tenants",
            "ns/slice",
            "p99 ns/slice",
            "carat cyc/sw",
            "trad cyc/sw",
            "bytes/parked",
            "cyc/reloc",
            "adm ratio",
            "scan/pass",
            "arena hw KiB",
        ],
        &points.iter().map(Point::row).collect::<Vec<_>>(),
    );

    let spread = |f: fn(&Point) -> f64| {
        let max = points.iter().map(f).fold(f64::MIN, f64::max);
        let min = points.iter().map(f).fold(f64::MAX, f64::min);
        max / min.max(1e-9)
    };
    let every = |f: &dyn Fn(&Point) -> bool| points.iter().all(f);
    let mut report = Report::default();
    println!();
    // Modeled switch cost is a constant charge: flat means *exactly* flat
    // (1% slack for integer division on unequal switch counts).
    let ctx = [
        spread(|p| p.carat.cycles_per_switch),
        spread(|p| p.trad.cycles_per_switch),
    ];
    report.gate(
        "flat_ctx_ok",
        ctx.iter().all(|s| *s < 1.01),
        &format!(
            "modeled cycles/switch flat across scales (carat spread {:.4}, trad {:.4})",
            ctx[0], ctx[1]
        ),
    );
    report.gate(
        "gap_every_scale",
        every(&|p| {
            p.carat.cycles_per_switch < p.trad.cycles_per_switch && p.carat.tlb_flushes == 0
        }),
        "carat switch undercuts traditional at every scale, 0 TLB flushes",
    );
    // Parked tenants are identical programs: their footprint must not
    // grow with fleet size.
    let mem = spread(|p| p.carat.descheduled_bytes_per_tenant);
    report.gate(
        "flat_mem_ok",
        mem < 1.25,
        &format!("descheduled bytes/tenant flat across scales (spread {mem:.3})"),
    );
    // Host scheduling work per slice is O(1) in fleet size; allow a
    // generous factor for cache effects at 10k (an O(fleet) scheduler
    // would blow through this by orders of magnitude).
    let ns = spread(|p| p.carat.ns_per_slice);
    report.gate(
        "o1_sched_ok",
        ns < 10.0,
        &format!("host ns/slice O(1) in fleet size (spread {ns:.2}x)"),
    );
    report.gate(
        "outcomes_ok",
        every(&|p| p.carat.outcomes_ok && p.trad.outcomes_ok),
        "every tenant finished with the expected checksum",
    );
    // Modeled admission must amortize ≥5× AND match the cost model
    // exactly; the counter probe is the divergence gate.
    report.gate(
        "admission_ok",
        every(&|p| {
            let (a, n) = (&p.admission, p.n as u64);
            a.ratio >= 5.0
                && a.batch_cycles == cost.admit_batch_cost(n)
                && a.seq_cycles == cost.admit_sequential_cost(n)
                && a.counters_match
        }),
        "batch admission >=5x cheaper than sequential (modeled), counters bit-identical",
    );
    report.gate(
        "arena_ok",
        every(&|p| p.admission.arena_steady),
        "capsule arena steady-state churn allocates nothing (reuse after round one)",
    );
    // Epoch scans examine at most the externalization window plus the
    // compaction window per pass, whatever the fleet size.
    report.gate(
        "scan_ok",
        every(&|p| p.pressure.scan_slots_per_pass <= 2.0 * scan_limit as f64 + 2.0),
        &format!(
            "pressure scans bounded at {} slots/pass whatever the fleet size",
            2 * scan_limit
        ),
    );
    // The latency tail must stay within two orders of magnitude of the
    // mean: an O(fleet) pass hiding in 1% of slices blows through this at
    // the large scales while the mean stays put.
    report.gate(
        "p99_ok",
        every(&|p| (p.carat.p99_ns_per_slice as f64) < p.carat.ns_per_slice * 100.0),
        "p99 slice latency within 100x of the mean at every scale",
    );

    let churn = run_churn(
        *sizes.last().expect("at least one size"),
        &args,
        &mut report,
    );
    report.extend(obj! {
        "benchmark": "fleet_scaling", "scale": format!("{scale:?}"), "engine": engine.name(),
        "scan_limit": scan_limit,
        "modeled_ctx": obj! {
            "carat": cost.ctx_switch_carat(), "traditional": cost.ctx_switch_traditional(),
        },
        "curve": points.iter().map(Point::json).collect::<Vec<_>>(),
        "churn": churn,
    });
    report.finish(&args.out)
}
