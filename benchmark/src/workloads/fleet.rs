//! `fleet_serve` and `fleet_churn`: thousands of microservice-sized
//! tenants time-sliced on one shared kernel.

use std::collections::BTreeMap;
use std::rc::Rc;
use std::time::Instant;

use carat_core::{verify_signature, CaratCompiler, CompileOptions};
use carat_ir::Module;
use carat_kernel::{DmaDir, FaultPlan, FaultPoint, LoadConfig, Pid, ProcAccounting, TenantQuotas};
use carat_vm::{
    MultiVm, MultiVmConfig, ProcOutcome, ProcReport, SchedSource, SupervisorConfig, TenancyError,
    VmConfig, VmError,
};
use carat_workloads::{fleet_tenant, io_server, Scale};

use super::compile::TenantBuilder;
use super::{Params, Pass, Rng, Workload};
use crate::expected::{self, IMAGE_SEEDS};
use crate::stats;
use crate::trace::{Layer, Request, Tracer};

/// Per-tenant capsule sizing, as in the repository's `fleet_scaling`
/// bench: a microservice, not a batch job.
pub const FLEET_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 16 * 1024,
    page_size: 4096,
};

/// Physical arena for a fleet of `tenants`.
pub fn kernel_mem(tenants: usize) -> u64 {
    64 * 1024 * 1024 + tenants as u64 * 128 * 1024
}

pub fn tenant_cfg() -> VmConfig {
    VmConfig {
        load: FLEET_LOAD,
        ..VmConfig::default()
    }
}

/// A tenant image: compiled with full instrumentation, signed, and the
/// signature verified — the trust chain a fleet operator runs before
/// handing the module to admission.
pub struct Image {
    pub name: &'static str,
    pub module: Rc<Module>,
    pub expect_ret: i64,
}

pub fn build_image(
    name: &'static str,
    build: TenantBuilder,
    scale: Scale,
    image_seed: i64,
) -> Result<Image, String> {
    let options = CompileOptions::default();
    let key = options.signing.clone().ok_or("default options sign")?;
    let module = build(scale, image_seed).map_err(|e| format!("{name}: {e}"))?;
    let compiled = CaratCompiler::new(options)
        .compile(module)
        .map_err(|e| format!("{name}: {e}"))?;
    let signed = compiled.signed.ok_or("compiler did not sign")?;
    verify_signature(&signed, &key).map_err(|e| format!("{name}: {e}"))?;
    let key = expected::tenant_key(name, scale, image_seed);
    Ok(Image {
        name,
        module: Rc::new(compiled.module),
        expect_ret: expected::lookup(&key)
            .ok_or_else(|| format!("{key}: no reference in expected.json"))?
            .ret,
    })
}

fn image_seed(rng: &mut Rng) -> i64 {
    IMAGE_SEEDS.start + rng.below((IMAGE_SEEDS.end - IMAGE_SEEDS.start) as u64) as i64
}

/// Sum the kernel-side accounting of every report.
fn fold_accounting(reports: &[ProcReport]) -> ProcAccounting {
    let mut sum = ProcAccounting::default();
    for r in reports {
        let a = &r.accounting;
        sum.ctx_switches += a.ctx_switches;
        sum.ctx_switch_cycles += a.ctx_switch_cycles;
        sum.tlb_flushes += a.tlb_flushes;
        sum.pressure_page_outs += a.pressure_page_outs;
        sum.pressure_moves += a.pressure_moves;
        sum.compaction_cycles += a.compaction_cycles;
        sum.timer_preemptions += a.timer_preemptions;
        sum.preempt_latency_cycles += a.preempt_latency_cycles;
    }
    sum
}

// ----------------------------------------------------------------------
// fleet_serve
// ----------------------------------------------------------------------

/// Timer-slice length in modeled cycles.
const TIMER_INTERVAL: u64 = 2_048;
/// Bytes per DMA request through the pinned shared buffer.
const DMA_LEN: u64 = 256;
/// Tenants the shared DMA buffer is mapped into.
const DMA_MAPPED: usize = 4;
const PRESSURE_EVERY: u64 = 8;

pub struct Serve {
    tenants: usize,
    io: Image,
    worker: Image,
    plan: FaultPlan,
    plan_text: String,
}

impl Serve {
    pub fn new(p: Params) -> Result<Serve, String> {
        let scale = if p.smoke { Scale::Test } else { Scale::Full };
        let tenants = if p.smoke { 48 } else { 3000 };
        let mut rng = Rng::new(p.seed, 0xf5);
        let io = build_image("io_server", io_server, scale, image_seed(&mut rng))?;
        let worker = build_image("fleet_tenant", fleet_tenant, scale, image_seed(&mut rng))?;
        // Recoverable faults only, hitting at most 0.1 % of tenants: two
        // starved mallocs (each kills one tenant, which the supervisor
        // respawns from its image), one interrupted pressure move (rolled
        // back by the journal) and one refused DMA descriptor. Where they
        // land is the seed's choice; the ranges keep every arm inside
        // the occurrences a pass of this size produces.
        let io_tenants = (tenants / 4) as u64;
        let mallocs = io_tenants * if p.smoke { 4 } else { 32 };
        let arms = [
            (FaultPoint::TenantOom, 1 + rng.below(mallocs / 2)),
            (
                FaultPoint::TenantOom,
                1 + mallocs / 2 + rng.below(mallocs / 4),
            ),
            (FaultPoint::MidMove, 1 + rng.below(tenants as u64 / 4)),
            (FaultPoint::DmaService, 1 + rng.below(tenants as u64 * 8)),
        ];
        let mut plan = FaultPlan::new();
        let mut plan_text = String::new();
        for (point, nth) in arms {
            plan = plan.arm(point, nth);
            plan_text.push_str(&format!(" {point}@{nth}"));
        }
        Ok(Serve {
            tenants,
            io,
            worker,
            plan,
            plan_text,
        })
    }

    /// Build the fleet, admit both images in one batch each, and set up
    /// the device side: a pinned 4 KiB shared buffer mapped into the
    /// first few io tenants. Returns the fleet, the worker pids and the
    /// buffer's base.
    fn admit(&self, t: &mut Tracer, pass: &mut Pass) -> Result<(MultiVm, Vec<Pid>, u64), String> {
        let n = self.tenants;
        let n_io = n / 4;
        let fleet_cfg = MultiVmConfig {
            sched: SchedSource::Timer,
            timer_interval: TIMER_INTERVAL,
            kernel_mem: kernel_mem(n),
            pressure_every: PRESSURE_EVERY,
            pressure_batch: 4,
            pressure_scan_limit: 64,
            supervisor: Some(SupervisorConfig::default()),
            ..MultiVmConfig::default()
        };
        let mut mv = t
            .scope("vm.multi.new", Layer::Vm, Request::None, |_| {
                MultiVm::new(Vec::new(), fleet_cfg)
            })
            .map_err(|e| format!("fleet did not build: {e}"))?;
        let t_admit = Instant::now();
        let mut batch = |prefix: &str, image: &Image, count: usize| {
            t.scope(
                "vm.multi.spawn_batch",
                Layer::Vm,
                Request::Name(image.name),
                |_| mv.spawn_batch(prefix, image.module.clone(), tenant_cfg(), count),
            )
            .map_err(|e| format!("admission refused: {e}"))
        };
        let io_pids = batch("io", &self.io, n_io)?;
        let worker_pids = batch("ft", &self.worker, n - n_io)?;
        pass.host.insert(
            "admit_us_per_tenant",
            t_admit.elapsed().as_nanos() as f64 / 1e3 / n as f64,
        );
        let (base, _len) = t
            .scope("kernel.shared_pin", Layer::Kernel, Request::None, |_| {
                let id = mv.shared_create(4096)?;
                for &pid in io_pids.iter().take(DMA_MAPPED) {
                    mv.shared_map(pid, id, 0)?;
                }
                mv.pin_shared(io_pids[0], id)
            })
            .map_err(|e| format!("DMA buffer set-up failed: {e}"))?;
        Ok((mv, worker_pids, base))
    }
}

impl Workload for Serve {
    fn sizes(&self) -> String {
        format!(
            "{} tenants (1 io_server : 3 fleet_tenant), timer interval {TIMER_INTERVAL}, \
             pressure every {PRESSURE_EVERY} slices, faults{}",
            self.tenants, self.plan_text
        )
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let n = self.tenants;
        pass.attempted = n as u64;
        let start = Instant::now();
        let (mut mv, worker_pids, base) = match self.admit(t, &mut pass) {
            Ok(fleet) => fleet,
            Err(why) => {
                pass.failed = n as u64;
                pass.note(why);
                return pass;
            }
        };
        mv.install_fault_plan(self.plan.clone());
        let capsule_sample = worker_pids.len().min(64);
        let capsule_bytes: usize = worker_pids
            .iter()
            .take(capsule_sample)
            .filter_map(|&p| mv.descheduled_bytes(p).ok())
            .sum();

        // Serve until drained, one slice at a time so each gets its own
        // sample; two DMA requests and one service round per slice.
        let mut pressure_ns: Vec<u32> = Vec::new();
        let (mut dma_ok, mut dma_failed, mut dma_cycles) = (0u64, 0u64, 0u64);
        loop {
            let t0 = Instant::now();
            let ran = t.scope(
                "vm.multi.run_batch",
                Layer::Vm,
                Request::Id(mv.slices()),
                |_| mv.run_batch(1),
            );
            let ns = t0.elapsed().as_nanos() as u32;
            if ran == 0 {
                break;
            }
            if mv.slices().is_multiple_of(PRESSURE_EVERY) {
                pressure_ns.push(ns);
            } else {
                pass.steps_ns.push(ns);
            }
            t.scope("kernel.dma_submit", Layer::Kernel, Request::None, |_| {
                mv.dma_submit(base, DMA_LEN, DmaDir::DeviceToMem);
                mv.dma_submit(base, DMA_LEN, DmaDir::MemToDevice);
            });
            let done = t.scope("kernel.dma_service", Layer::Kernel, Request::None, |_| {
                mv.dma_service(4)
            });
            t.count("vm.multi.run_batch.slices", ran);
            t.count("kernel.dma_service.completions", done.len() as u64);
            for c in done {
                dma_cycles += c.cycles;
                if c.ok() {
                    dma_ok += 1;
                } else {
                    dma_failed += 1;
                }
            }
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;

        // Everything below is bookkeeping and checking, off the clock.
        let with = stats::latency(&mut pressure_ns).p50 as f64;
        let without = stats::latency(&mut pass.steps_ns).p50 as f64;
        pass.host
            .insert("pressure_pass_us", (with - without).max(0.0) / 1e3);
        pass.steps_ns.extend_from_slice(&pressure_ns);

        let slices = mv.slices();
        let (restarts, quarantines, backoff) = mv
            .supervisor()
            .map_or((0, 0, 0), |s| (s.restarts, s.quarantines, s.backoff_cycles));
        let fleet_cycles = mv.admission_cycles() + mv.pressure_scan_cycles() + backoff + dma_cycles;
        let irq_p99 = mv.kernel.dev.timer.latency_percentile(99.0);
        let pinned_intact = mv.kernel.pins().len() == 1 && mv.kernel.pins()[0].start == base;
        let reports = mv.run();
        let acct = fold_accounting(&reports);

        // One op per lineage: a tenant the supervisor respawned keeps
        // its name, and the lineage is good if its last life finished
        // with the reference result.
        let mapped: Vec<String> = (0..DMA_MAPPED.min(n / 4))
            .map(|i| format!("io{i}"))
            .collect();
        let mut lineage_ok: BTreeMap<&str, bool> = BTreeMap::new();
        let mut mapped_rets = 0u64;
        for r in &reports {
            let ok = match &r.outcome {
                ProcOutcome::Finished(run) => {
                    pass.add_guest(&run.counters);
                    if mapped.contains(&r.name) {
                        // The device writes into these tenants' buffer, so
                        // their result is the schedule's, not the
                        // reference's; it must still repeat exactly.
                        mapped_rets = mapped_rets.wrapping_add(run.ret as u64);
                        true
                    } else if r.name.starts_with("io") {
                        run.ret == self.io.expect_ret
                    } else {
                        run.ret == self.worker.expect_ret
                    }
                }
                _ => false,
            };
            let entry = lineage_ok.entry(r.name.as_str()).or_insert(false);
            *entry |= ok;
        }
        for (name, ok) in &lineage_ok {
            if !ok {
                pass.fail(format!(
                    "lineage {name} never finished with the reference result"
                ));
            }
        }
        if lineage_ok.len() != n {
            pass.fail(format!(
                "{} lineages reported, {n} admitted",
                lineage_ok.len()
            ));
        }
        // The plan arms exactly one DMA refusal; more, or a moved pinned
        // buffer, is the system's failure.
        if dma_failed > 1 || !pinned_intact {
            pass.fail(format!(
                "{dma_failed} DMA completions failed (1 planned), pinned buffer intact: {pinned_intact}"
            ));
        }
        if quarantines > 0 {
            pass.note(format!("{quarantines} lineages quarantined"));
        }

        pass.add_exact(
            "modeled_cycles",
            acct.ctx_switch_cycles + acct.compaction_cycles + fleet_cycles,
        );
        pass.add_exact("slices", slices);
        pass.add_exact("tenants", n as u64);
        pass.add_exact("restarts", restarts);
        pass.add_exact("ctx_switches", acct.ctx_switches);
        pass.add_exact("ctx_switch_cycles", acct.ctx_switch_cycles);
        pass.add_exact("pressure_moves", acct.pressure_moves);
        pass.add_exact("pressure_page_outs", acct.pressure_page_outs);
        pass.add_exact("compaction_cycles", acct.compaction_cycles);
        pass.add_exact("irq_latency_p99_cycles", irq_p99);
        pass.add_exact("dma_completions", dma_ok);
        pass.add_exact("mapped_rets", mapped_rets);
        pass.add_exact(
            "capsule_bytes",
            (capsule_bytes / capsule_sample.max(1)) as u64,
        );
        pass
    }
}

// ----------------------------------------------------------------------
// fleet_churn
// ----------------------------------------------------------------------

/// Slices every live tenant gets per wave, at `CHURN_QUANTUM`
/// instructions each. One, so that the write side stays ~80 % of the
/// pass (at four, slicing was 54 % of it and this was a second
/// `fleet_serve`).
const SLICES_PER_TENANT: u64 = 1;
const CHURN_QUANTUM: u64 = 64;
/// Survivors of the last wave that run to completion (untimed) so the
/// churned fleet's results are checked against the reference.
const SURVIVORS: usize = 32;

pub struct Churn {
    image: Image,
    waves: usize,
    batch: usize,
    quota: usize,
    capsule_bytes: u64,
    seed: u64,
}

impl Churn {
    pub fn new(p: Params) -> Result<Churn, String> {
        let scale = if p.smoke { Scale::Test } else { Scale::Full };
        let mut rng = Rng::new(p.seed, 0xc4);
        let image = build_image("fleet_tenant", fleet_tenant, scale, image_seed(&mut rng))?;
        let (waves, batch, quota) = if p.smoke {
            (3, 24, 40)
        } else {
            (16, 4000, 6400)
        };
        // One admission on a throwaway kernel tells what a capsule costs
        // in resident bytes, which the byte quota is stated in.
        let capsule_bytes = (|| {
            let mut probe = MultiVm::new(
                Vec::new(),
                MultiVmConfig {
                    kernel_mem: kernel_mem(1),
                    ..MultiVmConfig::default()
                },
            )?;
            probe.spawn_shared("probe", image.module.clone(), tenant_cfg())?;
            Ok::<u64, VmError>(probe.kernel.procs.resident_bytes())
        })()
        .map_err(|e| format!("capsule probe: {e}"))?;
        Ok(Churn {
            image,
            waves,
            batch,
            quota,
            capsule_bytes,
            seed: p.seed,
        })
    }
}

impl Workload for Churn {
    fn sizes(&self) -> String {
        format!(
            "{} waves of spawn_batch({}) against a quota of {} tenants / {} bytes, \
             {SLICES_PER_TENANT} slice per tenant per wave at quantum {CHURN_QUANTUM}, a \
             quarter externalized+rehydrated, half killed",
            self.waves,
            self.batch,
            self.quota,
            self.capsule_bytes * self.quota as u64
        )
    }

    fn pass(&mut self, t: &mut Tracer) -> Pass {
        let mut pass = Pass::default();
        let mut rng = Rng::new(self.seed, 0xc5);
        let start = Instant::now();
        let fleet_cfg = MultiVmConfig {
            quantum: CHURN_QUANTUM,
            kernel_mem: kernel_mem(self.quota),
            quotas: TenantQuotas {
                max_tenants: self.quota,
                max_resident_bytes: self.capsule_bytes * self.quota as u64,
            },
            ..MultiVmConfig::default()
        };
        let mut mv = match MultiVm::new(Vec::new(), fleet_cfg) {
            Ok(mv) => mv,
            Err(e) => {
                pass.attempted = 1;
                pass.fail(format!("fleet did not build: {e}"));
                return pass;
            }
        };
        let mut live: Vec<Pid> = Vec::new();
        let (mut admit_ns, mut admitted) = (0u64, 0u64);
        let (mut refusals, mut killed, mut externalized) = (0u64, 0u64, 0u64);
        for wave in 0..self.waves {
            let req = Request::Id(wave as u64);
            // Admission. A batch that would cross the quota must be
            // refused whole (planned, not a failure); the wave then
            // admits exactly what fits.
            let mut want = self.batch;
            if live.len() + want > self.quota {
                let refused = t.scope("vm.multi.spawn_batch.refused", Layer::Vm, req, |_| {
                    mv.spawn_batch("r", self.image.module.clone(), tenant_cfg(), want)
                });
                match refused {
                    Err(VmError::Admission(_)) => refusals += 1,
                    Err(e) => pass.fail(format!("wave {wave}: over-quota batch died untyped: {e}")),
                    Ok(pids) => {
                        pass.fail(format!("wave {wave}: over-quota batch was admitted"));
                        live.extend(pids);
                    }
                }
                want = self.quota.saturating_sub(live.len());
            }
            let t0 = Instant::now();
            let batch = t.scope("vm.multi.spawn_batch", Layer::Vm, req, |_| {
                mv.spawn_batch("c", self.image.module.clone(), tenant_cfg(), want)
            });
            match batch {
                Ok(pids) => {
                    admit_ns += t0.elapsed().as_nanos() as u64;
                    admitted += pids.len() as u64;
                    live.extend(pids);
                }
                Err(e) => {
                    pass.attempted += want as u64;
                    pass.failed += want as u64;
                    pass.note(format!(
                        "wave {wave}: in-quota batch of {want} refused: {e}"
                    ));
                }
            }

            // A few slices for everyone.
            for _ in 0..live.len() as u64 * SLICES_PER_TENANT {
                let t0 = Instant::now();
                let ran = t.scope("vm.multi.run_batch", Layer::Vm, req, |_| mv.run_batch(1));
                if ran == 0 {
                    break;
                }
                pass.steps_ns.push(t0.elapsed().as_nanos() as u32);
            }

            // Externalize and rehydrate a quarter; the round trip must
            // not change what the tenant has retired.
            let phase = rng.below(4) as usize;
            for &pid in live.iter().skip(phase).step_by(4) {
                let before = mv.counters(pid).map(|c| c.instructions);
                let out = t.scope("vm.multi.externalize", Layer::Vm, req, |_| {
                    mv.externalize_tenant(pid)
                });
                let back = t.scope("vm.multi.rehydrate", Layer::Vm, req, |_| {
                    mv.rehydrate_tenant(pid)
                });
                externalized += 1;
                let after = mv.counters(pid).map(|c| c.instructions);
                if out.is_err() || back.is_err() || before.is_err() || before != after {
                    pass.fail(format!(
                        "wave {wave}: capsule round trip of {pid} lost state"
                    ));
                }
            }

            // Kill half; their pids must go stale, typed.
            let parity = rng.below(2) as usize;
            let mut keep = Vec::with_capacity(live.len() / 2 + 1);
            for (i, pid) in live.drain(..).enumerate() {
                if i % 2 != parity {
                    keep.push(pid);
                    continue;
                }
                let dead = t.scope("vm.multi.kill", Layer::Vm, req, |_| mv.kill(pid));
                killed += 1;
                let stale =
                    matches!(mv.counters(pid), Err(TenancyError::NoSuchTenant(p)) if p == pid);
                if !dead || !stale || mv.kill(pid) {
                    pass.fail(format!("wave {wave}: kill of {pid} was not clean"));
                }
            }
            live = keep;
        }
        // Every lifetime ends inside the timed phase: the fleet is torn
        // down to a handful of survivors.
        for pid in live.drain(SURVIVORS.min(live.len())..) {
            if !t.scope("vm.multi.kill", Layer::Vm, Request::None, |_| mv.kill(pid)) {
                pass.fail(format!("teardown: kill of {pid} failed"));
            }
            killed += 1;
        }
        pass.wall_ns = start.elapsed().as_nanos() as u64;

        // Off the clock: the survivors run to completion and must
        // compute the reference result.
        let slices = mv.slices();
        let fleet_cycles = mv.admission_cycles();
        let capsule_bytes = live
            .first()
            .and_then(|&p| mv.descheduled_bytes(p).ok())
            .unwrap_or(0);
        let reports = mv.run();
        let acct = fold_accounting(&reports);
        for r in &reports {
            match &r.outcome {
                ProcOutcome::Finished(run) if run.ret == self.image.expect_ret => {
                    pass.add_guest(&run.counters);
                }
                other => pass.fail(format!("survivor {} ended as {other:?}", r.name)),
            }
        }
        if reports.len() != live.len() {
            pass.fail(format!(
                "{} survivors reported, {} kept",
                reports.len(),
                live.len()
            ));
        }
        pass.attempted += admitted;
        pass.host.insert(
            "admit_us_per_tenant",
            admit_ns as f64 / 1e3 / admitted.max(1) as f64,
        );
        pass.add_exact("modeled_cycles", acct.ctx_switch_cycles + fleet_cycles);
        pass.add_exact("slices", slices);
        pass.add_exact("tenants", admitted);
        pass.add_exact("refusals", refusals);
        pass.add_exact("killed", killed);
        pass.add_exact("externalized", externalized);
        pass.add_exact("capsule_bytes", capsule_bytes as u64);
        pass
    }
}
