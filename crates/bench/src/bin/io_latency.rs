//! # io_latency — devices, interrupts, and the price of pinning
//!
//! Drives the `io_server` workload through the modeled device pair: the
//! CLINT-style timer preempting fleets of 10 / 100 / 1k tenants on
//! modeled-cycle deadlines, and the block/NIC-style DMA engine moving
//! request/response payloads through a **pinned** shared buffer. Three
//! claims, each gated:
//!
//! * **Interrupt-to-dispatch latency** — the gap between a timer
//!   deadline and the first safe preemption boundary past it must stay
//!   a small fraction of the timer interval (mean / p50 / p99 / max are
//!   reported per fleet size). Safe boundaries exist everywhere because
//!   every step retires at least one cycle; the tail comes from
//!   signals-masked windows (pending escape notifications, fused pairs).
//! * **CARAT vs Traditional pin cost** — a CARAT pin is a registry
//!   entry: no page-table walk, no per-page PTE pinning, so its modeled
//!   cost is FLAT in region size, while the traditional
//!   `get_user_pages`-style path walks and pins every page. What CARAT
//!   pays instead is **compaction freedom**: the pinned hole is a range
//!   the move planner must skip (reported as denied moves/bytes).
//! * **Scheduling divergence fails the run** — the same fleet run under
//!   `--sched quantum` and the timer must finish with bit-identical
//!   per-tenant counters (preemption is charged to kernel accounting,
//!   never guest state). Any divergence fails the gate and the exit
//!   code.
//!
//! Emits `BENCH_io.json` (override with `--out PATH`); exits non-zero
//! when any gate fails. `--scale test` runs the 10-tenant fleet only,
//! `small` adds 100, `full` adds 1k.

use std::process::ExitCode;
use std::rc::Rc;
use std::time::Instant;

use carat_bench::{fixed, instrument, obj, percentile, print_table, Args, Json, Report, Variant};
use carat_kernel::{DmaDir, DmaStats, LoadConfig, PinStats, TimerStats};
use carat_runtime::CostModel;
use carat_vm::{MultiVm, MultiVmConfig, ProcOutcome, ProcReport, SchedSource, VmConfig};
use carat_workloads::{io_server, Scale};

/// Microservice-sized capsules, as in `fleet_scaling`.
const IO_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 32 * 1024,
    page_size: 4096,
};

/// Timer-slice length in modeled cycles for the measured arm.
const TIMER_INTERVAL: u64 = 2_048;

/// DMA payload bytes per request.
const DMA_LEN: u64 = 256;

fn fleet_sizes(scale: Scale) -> &'static [usize] {
    match scale {
        Scale::Test => &[10],
        Scale::Small => &[10, 100],
        Scale::Full => &[10, 100, 1000],
    }
}

fn kernel_mem(tenants: usize) -> u64 {
    64 * 1024 * 1024 + tenants as u64 * 256 * 1024
}

/// Build an io fleet: `tenants` copies of the shared io_server module,
/// a 4 KiB shared DMA buffer mapped into the first few tenants'
/// `dmabuf` globals, pinned on behalf of tenant 0.
fn build_fleet(
    tenants: usize,
    args: &Args,
    sched: SchedSource,
    pressure_every: u64,
    mapped: usize,
) -> (MultiVm, carat_kernel::SharedId, u64, u64) {
    let module = io_server(args.scale, 0).expect("io_server compiles");
    let module = Rc::new(instrument(module, Variant::Full));
    let cfg = VmConfig {
        mode: Variant::Full.mode(),
        engine: args.engine.unwrap_or_default(),
        load: IO_LOAD,
        ..VmConfig::default()
    };
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            quantum: 256,
            sched,
            timer_interval: TIMER_INTERVAL,
            kernel_mem: kernel_mem(tenants),
            pressure_every,
            pressure_batch: 4,
            ..MultiVmConfig::default()
        },
    )
    .expect("empty fleet builds");
    let mut pids = Vec::with_capacity(tenants);
    for i in 0..tenants {
        pids.push(
            mv.spawn_shared(&format!("io{i}"), module.clone(), cfg.clone())
                .unwrap_or_else(|e| {
                    eprintln!("io_latency: admitting tenant {i}/{tenants} failed: {e}");
                    std::process::exit(2);
                }),
        );
    }
    let id = mv.shared_create(4096).expect("frames available");
    for &pid in pids.iter().take(mapped) {
        mv.shared_map(pid, id, 0).expect("maps dmabuf global");
    }
    let (base, len) = mv.pin_shared(pids[0], id).expect("pins the DMA buffer");
    (mv, id, base, len)
}

struct FleetResult {
    tenants: usize,
    timer: TimerStats,
    /// Interrupt-to-dispatch latency mean, p50, p99 in cycles.
    lat: (f64, u64, u64),
    p99_slice_ns: u64,
    dma: DmaStats,
    pin: PinStats,
    pinned_never_moved: bool,
    /// Completions observed by the caller match the device's own books.
    dma_accounted: bool,
    /// Quantum and timer scheduling agreed per tenant.
    diverge_ok: bool,
}

impl FleetResult {
    fn row(&self) -> Vec<String> {
        let (mean, p50, p99) = self.lat;
        vec![
            self.tenants.to_string(),
            self.timer.dispatched.to_string(),
            format!("{mean:.1}"),
            p50.to_string(),
            p99.to_string(),
            self.timer.latency_max.to_string(),
            self.p99_slice_ns.to_string(),
            self.dma.completed.to_string(),
            self.pin.denied_moves.to_string(),
            (if self.diverge_ok { "ok" } else { "DIVERGED" }).to_string(),
        ]
    }

    fn json(&self) -> Json {
        let (t, (mean, p50, p99), dma, pin) = (&self.timer, self.lat, &self.dma, &self.pin);
        obj! {
            "tenants": self.tenants,
            "interrupt_latency_cycles": obj! {
                "mean": fixed(mean, 2), "p50": p50, "p99": p99, "max": t.latency_max,
            },
            "dispatched": t.dispatched, "cancelled": t.cancelled, "p99_slice_ns": self.p99_slice_ns,
            "dma": obj! {
                "completed": dma.completed, "failed": dma.failed,
                "bytes": dma.bytes_in + dma.bytes_out,
            },
            "pin": obj! {
                "denied_moves": pin.denied_moves, "denied_bytes": pin.denied_bytes,
                "never_moved": self.pinned_never_moved,
            },
            "divergence_ok": self.diverge_ok,
        }
    }
}

/// The measured arm: timer-preemptive fleet with live DMA traffic
/// through the pinned buffer and a pressure pass every slice, then the
/// scheduling-divergence check at the same size.
fn run_fleet(tenants: usize, args: &Args) -> FleetResult {
    let (mut mv, id, base, len) = build_fleet(tenants, args, SchedSource::Timer, 1, 4);
    let mut slice_ns: Vec<u64> = Vec::new();
    let mut pinned_never_moved = true;
    let (mut completed, mut failed) = (0u64, 0u64);
    loop {
        let t = Instant::now();
        let ran = mv.run_batch(1);
        if ran == 0 {
            break;
        }
        slice_ns.push(t.elapsed().as_nanos() as u64);
        // Request/response traffic: one inbound fill, one outbound
        // readback per slice, serviced as the device catches up.
        mv.dma_submit(base, DMA_LEN, DmaDir::DeviceToMem);
        mv.dma_submit(base, DMA_LEN, DmaDir::MemToDevice);
        for c in mv.dma_service(4) {
            if c.ok() {
                completed += 1;
            } else {
                failed += 1;
            }
        }
        // The pin invariant, checked every slice: the block the device
        // targets never relocates while pinned.
        pinned_never_moved &= mv.kernel.pins().len() == 1
            && mv.kernel.pins()[0].start == base
            && mv.kernel.pins()[0].len == len
            && mv.kernel.procs.shared(id).map(|s| s.base) == Some(base);
    }
    let timer = &mv.kernel.dev.timer;
    let dma = mv.kernel.dev.dma.stats();
    FleetResult {
        tenants,
        timer: timer.stats(),
        lat: (
            timer.mean_latency(),
            timer.latency_percentile(50.0),
            timer.latency_percentile(99.0),
        ),
        p99_slice_ns: percentile(&slice_ns, 99.0),
        dma,
        pin: mv.kernel.pin_stats(),
        pinned_never_moved,
        dma_accounted: completed == dma.completed && failed == dma.failed,
        diverge_ok: run_divergence(tenants, args),
    }
}

fn outcomes(reports: &[ProcReport]) -> Vec<(String, i64, carat_vm::PerfCounters)> {
    reports
        .iter()
        .map(|r| {
            let ProcOutcome::Finished(rr) = &r.outcome else {
                panic!("io_latency: {} did not finish: {:?}", r.name, r.outcome);
            };
            (r.name.clone(), rr.ret, rr.counters.clone())
        })
        .collect()
}

/// The divergence gate: quantum vs timer on a quiescent device (no DMA
/// traffic) with the buffer mapped into ONE tenant (cross-tenant shared
/// writes are genuinely schedule-dependent state — a different slice
/// interleaving legitimately changes what each reader observes), pin in
/// place. Guest counters must be bit-identical.
fn run_divergence(tenants: usize, args: &Args) -> bool {
    let (q, _, _, _) = build_fleet(tenants, args, SchedSource::Quantum, 0, 1);
    let (t, _, _, _) = build_fleet(tenants, args, SchedSource::Timer, 0, 1);
    let q = outcomes(&q.run());
    let t = outcomes(&t.run());
    q == t
}

fn main() -> ExitCode {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    let engine = args.engine.unwrap_or_default();
    let cost = CostModel::default();
    println!(
        "io_latency: fleets of {:?} io_server tenants, scale {scale:?}, engine {}, \
         timer interval {TIMER_INTERVAL} cycles",
        fleet_sizes(scale),
        engine.name(),
    );
    println!();

    // Pin-cost curve: pure cost model, CARAT registry entry vs
    // traditional per-page walk+PTE pin.
    let pin_pages: &[u64] = &[1, 4, 16, 64, 256];
    let mut pin_rows = Vec::new();
    let mut pin_cost = Vec::new();
    let mut carat_flat = true;
    let mut gap_every_size = true;
    for &pages in pin_pages {
        let c = cost.pin_cost_carat(pages);
        let t = cost.pin_cost_traditional(pages);
        carat_flat &= c == cost.pin_cost_carat(1);
        gap_every_size &= c < t;
        pin_rows.push(vec![
            pages.to_string(),
            c.to_string(),
            t.to_string(),
            format!("{:.1}x", t as f64 / c.max(1) as f64),
        ]);
        pin_cost.push(obj! {"pages": pages, "carat": c, "traditional": t});
    }
    print_table(&["pin pages", "carat cyc", "trad cyc", "gap"], &pin_rows);
    let mut report = Report::default();
    report.gate(
        "carat_pin_flat_ok",
        carat_flat,
        "CARAT pin cost flat in region size (registry entry, no pagewalk)",
    );
    report.gate(
        "pin_gap_ok",
        gap_every_size,
        "CARAT pin undercuts traditional get_user_pages at every size",
    );
    println!();

    let fleets: Vec<FleetResult> = fleet_sizes(scale)
        .iter()
        .map(|&n| run_fleet(n, &args))
        .collect();
    print_table(
        &[
            "tenants",
            "irqs",
            "lat mean",
            "lat p50",
            "lat p99",
            "lat max",
            "p99 ns/slice",
            "dma done",
            "denied mv",
            "sched diff",
        ],
        &fleets.iter().map(FleetResult::row).collect::<Vec<_>>(),
    );
    println!();
    // Dispatch happens at the first safe boundary past the deadline; even
    // the worst tail must stay inside one timer interval.
    report.gate(
        "latency_ok",
        fleets
            .iter()
            .all(|f| f.timer.dispatched > 0 && f.timer.latency_max < TIMER_INTERVAL),
        "interrupt-to-dispatch latency bounded by one timer interval at every fleet size",
    );
    report.gate(
        "pinned_never_moved_ok",
        fleets.iter().all(|f| f.pinned_never_moved),
        "the pinned DMA buffer never moved (compaction skipped or refused typed)",
    );
    report.gate(
        "dma_ok",
        fleets
            .iter()
            .all(|f| f.dma.completed > 0 && f.dma.failed == 0 && f.dma_accounted),
        "all DMA traffic completed through the pinned buffer",
    );
    report.gate(
        "divergence_ok",
        fleets.iter().all(|f| f.diverge_ok),
        "quantum and timer scheduling agree bit-exactly per tenant",
    );

    report.extend(obj! {
        "benchmark": "io_latency", "scale": format!("{scale:?}"), "engine": engine.name(),
        "timer_interval": TIMER_INTERVAL, "pin_cost": pin_cost,
        "fleets": fleets.iter().map(FleetResult::json).collect::<Vec<_>>(),
    });
    report.finish(&args.out)
}
