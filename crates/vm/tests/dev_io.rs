//! Device & interrupt suite: timer-preemptive scheduling and
//! pinned-region-aware movers at the fleet level.
//!
//! The scheduling half is a differential: a fleet run under
//! [`SchedSource::Timer`] (CLINT-style cycle deadlines) must leave every
//! tenant's own [`PerfCounters`] bit-identical to the same fleet under
//! [`SchedSource::Quantum`] — preemption is a kernel concern, charged to
//! [`ProcAccounting`], never visible in guest-side state. At the `Vm`
//! level the equivalence is exact: replaying the cycle boundaries a
//! quantum run produced through `run_slice_cycles` retires the identical
//! stream.
//!
//! The device half drives the `io_server` pattern: a shared DMA buffer
//! pinned by its owner, a chaos storm with pressure compaction overhead,
//! and the invariant that nothing ever relocates the pinned block —
//! every collision is a typed refusal.

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::Module;
use carat_kernel::{DmaDir, DmaError, FaultPlan, KernelError, Pid, PinError};
use carat_runtime::MoveError;
use carat_vm::{
    MultiVm, MultiVmConfig, PerfCounters, ProcOutcome, ProcReport, ProcSpec, SchedSource,
    SliceExit, Vm, VmConfig, VmError,
};

/// The io_server tenant (self-contained copy of the workload): global
/// #0 is the DMA buffer pointer the host publishes via `shared_map`;
/// unhosted it stays null and the scan is skipped.
fn io_server_src(seed: i64) -> String {
    format!(
        "
int* dmabuf;
int main() {{
    int s = {seed};
    for (int p = 0; p < 6; p += 1) {{
        if (dmabuf != null) {{
            for (int i = 0; i < 16; i += 1) {{
                s += dmabuf[i];
                dmabuf[i] = (s + i) % 251;
            }}
        }}
        int* scratch = (int*) malloc(16 * sizeof(int));
        for (int i = 0; i < 16; i += 1) {{ scratch[i] = (s + i * 3) % 127; }}
        for (int i = 0; i < 16; i += 1) {{ s += scratch[i]; }}
        free(scratch);
    }}
    return s % 1000000;
}}
"
    )
}

/// Pointer-churn tenant: heap allocations with live escapes, the
/// compaction victim material.
fn churn_src(seed: i64) -> String {
    format!(
        "
int main() {{
    int n = 24;
    int* data = (int*) malloc(n * sizeof(int));
    int** cells = (int**) malloc(n * sizeof(int*));
    for (int i = 0; i < n; i += 1) {{
        data[i] = ({seed} + i * 7) % 97;
        cells[i] = &data[i];
    }}
    int s = 0;
    for (int p = 0; p < 10; p += 1) {{
        for (int i = 0; i < n; i += 1) {{ s += *cells[i]; }}
        data[p % n] = s % 89;
    }}
    free(data);
    free(cells);
    return s % 1000000;
}}
"
    )
}

fn instrument(name: &str, src: &str) -> Module {
    let m = carat_frontend::compile_cm(name, src).expect("compiles");
    CaratCompiler::new(CompileOptions::default())
        .compile(m)
        .expect("instruments")
        .module
}

fn fleet_specs() -> Vec<ProcSpec> {
    vec![
        ProcSpec {
            name: "io-a".into(),
            module: instrument("io_a", &io_server_src(3)),
            cfg: VmConfig::default(),
        },
        ProcSpec {
            name: "io-b".into(),
            module: instrument("io_b", &io_server_src(17)),
            cfg: VmConfig::default(),
        },
        ProcSpec {
            name: "churn".into(),
            module: instrument("churn", &churn_src(5)),
            cfg: VmConfig::default(),
        },
    ]
}

fn finished(r: &ProcReport) -> (i64, PerfCounters) {
    let ProcOutcome::Finished(rr) = &r.outcome else {
        panic!("{} did not finish: {:?}", r.name, r.outcome);
    };
    (rr.ret, rr.counters.clone())
}

#[test]
fn timer_and_quantum_fleets_agree_bit_exactly() {
    let quantum = MultiVm::new(
        fleet_specs(),
        MultiVmConfig {
            quantum: 700,
            ..MultiVmConfig::default()
        },
    )
    .expect("loads")
    .run();
    let timer = MultiVm::new(
        fleet_specs(),
        MultiVmConfig {
            sched: SchedSource::Timer,
            timer_interval: 2_500,
            ..MultiVmConfig::default()
        },
    )
    .expect("loads")
    .run();

    assert_eq!(quantum.len(), timer.len());
    for (q, t) in quantum.iter().zip(&timer) {
        assert_eq!(q.name, t.name);
        let (qret, qc) = finished(q);
        let (tret, tc) = finished(t);
        assert_eq!(qret, tret, "{}: return value differs", q.name);
        assert_eq!(
            qc, tc,
            "{}: guest counters are not scheduling-invariant",
            q.name
        );
        // The scheduling difference is visible exactly where it should
        // be: kernel-side accounting, never guest-side counters.
        assert_eq!(q.accounting.timer_preemptions, 0, "{}", q.name);
    }
    let preemptions: u64 = timer.iter().map(|r| r.accounting.timer_preemptions).sum();
    assert!(preemptions > 0, "the timer actually preempted someone");
}

#[test]
fn vm_replays_quantum_boundaries_identically_under_cycle_deadlines() {
    // Arm 1: instruction quanta, recording the modeled-cycle boundary of
    // every preemption.
    let module = instrument("io_solo", &io_server_src(9));
    let mut vm = Vm::new(module.clone(), VmConfig::default()).expect("loads");
    vm.start().expect("starts");
    let mut boundaries = Vec::new();
    let ret_q = loop {
        match vm.run_slice(400).expect("slices cleanly") {
            SliceExit::Quantum => boundaries.push(vm.counters().cycles),
            SliceExit::Finished(v) => break v,
        }
    };
    let counters_q = vm.counters().clone();
    assert!(boundaries.len() >= 2, "workload spans several slices");

    // Arm 2: a timer firing at exactly those cycle boundaries.
    let mut vm = Vm::new(module, VmConfig::default()).expect("loads");
    vm.start().expect("starts");
    for (i, &deadline) in boundaries.iter().enumerate() {
        match vm.run_slice_cycles(deadline).expect("slices cleanly") {
            SliceExit::Quantum => {
                assert_eq!(
                    vm.counters().cycles,
                    deadline,
                    "slice {i}: exits at the recorded boundary"
                );
            }
            SliceExit::Finished(_) => panic!("slice {i}: finished early"),
        }
    }
    let SliceExit::Finished(ret_t) = vm.run_slice_cycles(u64::MAX).expect("finishes") else {
        panic!("final slice must finish");
    };
    assert_eq!(ret_q, ret_t);
    assert_eq!(&counters_q, vm.counters(), "bit-identical replay");
}

#[test]
fn timer_device_records_interrupt_latency() {
    let mut mv = MultiVm::new(
        fleet_specs(),
        MultiVmConfig {
            sched: SchedSource::Timer,
            timer_interval: 1_500,
            ..MultiVmConfig::default()
        },
    )
    .expect("loads");
    mv.run_batch(u64::MAX);
    let s = mv.kernel.dev.timer.stats();
    assert!(s.armed > 0, "every timer slice arms the comparator");
    assert_eq!(
        s.dispatched + s.cancelled,
        s.armed,
        "every armed deadline is dispatched or cancelled"
    );
    assert!(s.dispatched > 0, "some slices were preempted");
    assert!(s.cancelled > 0, "finishing tenants cancel their deadline");
    // Preemption lands at the first safe boundary at or past the
    // deadline, so per-interrupt latency is finite and the percentile
    // machinery has samples to rank.
    assert!(mv.kernel.dev.timer.mean_latency() >= 0.0);
    assert!(
        mv.kernel.dev.timer.latency_percentile(99.0)
            >= mv.kernel.dev.timer.latency_percentile(50.0)
    );
    assert_eq!(s.latency_max, mv.kernel.dev.timer.latency_percentile(100.0));
}

/// Build the two-tenant io fleet with a mapped shared DMA buffer.
fn io_fleet(cfg: MultiVmConfig) -> (MultiVm, carat_kernel::SharedId, u64, u64) {
    let specs = vec![
        ProcSpec {
            name: "io-a".into(),
            module: instrument("io_a", &io_server_src(3)),
            cfg: VmConfig::default(),
        },
        ProcSpec {
            name: "io-b".into(),
            module: instrument("io_b", &io_server_src(17)),
            cfg: VmConfig::default(),
        },
    ];
    let mut mv = MultiVm::new(specs, cfg).expect("loads");
    let id = mv.shared_create(4096).expect("frames available");
    mv.shared_map(Pid(0), id, 0).expect("maps into io-a");
    mv.shared_map(Pid(1), id, 0).expect("maps into io-b");
    let (base, len) = mv.pin_shared(Pid(0), id).expect("pins");
    (mv, id, base, len)
}

#[test]
fn nothing_moves_a_pinned_shared_block() {
    let (mut mv, id, base, len) = io_fleet(MultiVmConfig {
        quantum: 300,
        pressure_every: 1,
        ..MultiVmConfig::default()
    });
    assert_eq!(mv.kernel.pinned_bytes(), len);

    // An explicit world-stop move of the pinned block: typed refusal,
    // block untouched.
    let err = mv.move_shared(id).expect_err("pinned block must not move");
    assert!(matches!(
        err,
        VmError::Kernel(KernelError::Move(MoveError::Pinned { .. }))
    ));
    assert_eq!(mv.kernel.procs.shared(id).unwrap().base, base);

    // A full fleet run with a pressure pass every slice: compaction
    // churns around the pinned hole but never relocates it.
    mv.run_batch(u64::MAX);
    assert_eq!(
        mv.kernel.procs.shared(id).unwrap().base,
        base,
        "pinned block never moved"
    );
    assert_eq!(mv.kernel.pins().len(), 1);
    assert_eq!(mv.kernel.pins()[0].start, base);

    // Unpinned, the same block moves on the first try.
    mv.unpin_shared(id).expect("unpins");
    let moved = mv.move_shared(id).expect("moves after unpin");
    assert_ne!(moved, base);
}

#[test]
fn chaos_storm_with_pinned_dma_yields_typed_errors_only() {
    let (mut mv, id, base, len) = io_fleet(MultiVmConfig {
        quantum: 250,
        pressure_every: 1,
        externalize_watermark: 0,
        ..MultiVmConfig::default()
    });
    mv.install_fault_plan(FaultPlan::from_seed_chaos(0x00D3_AD10));

    // Drive slices and DMA traffic concurrently under the storm.
    let mut completions = 0u64;
    loop {
        let ran = mv.run_batch(4);
        mv.dma_submit(base, 128, DmaDir::DeviceToMem);
        mv.dma_submit(base, 128, DmaDir::MemToDevice);
        for c in mv.dma_service(4) {
            completions += 1;
            match &c.err {
                // The pin is live for the whole storm, so the only
                // failure the device may see is an injected fault.
                None | Some(DmaError::DeviceFault) => {}
                other => panic!("unexpected DMA outcome under live pin: {other:?}"),
            }
        }
        // The storm never relocates the pinned block.
        assert_eq!(mv.kernel.pins().len(), 1);
        assert_eq!(mv.kernel.pins()[0].start, base);
        assert_eq!(mv.kernel.pins()[0].len, len);
        assert_eq!(mv.kernel.procs.shared(id).unwrap().base, base);
        if ran == 0 {
            break;
        }
    }
    assert!(
        completions > 0,
        "the device made progress through the storm"
    );
    let dma = mv.kernel.dev.dma.stats();
    assert_eq!(dma.completed + dma.failed, completions);
}

#[test]
fn externalizing_a_pinned_tenant_is_refused_typed() {
    let (mut mv, id, _base, len) = io_fleet(MultiVmConfig::default());
    let err = mv
        .externalize_tenant(Pid(0))
        .expect_err("pinned tenant must stay resident");
    match err {
        VmError::Pin(PinError::PinnedTenant { pid, bytes }) => {
            assert_eq!(pid, Pid(0));
            assert_eq!(bytes, len);
        }
        other => panic!("expected PinnedTenant, got {other}"),
    }
    // The pin belongs to tenant 0: tenant 1 externalizes fine, and so
    // does tenant 0 once the pin is dropped.
    mv.externalize_tenant(Pid(1))
        .expect("unpinned tenant externalizes");
    mv.unpin_shared(id).expect("unpins");
    mv.externalize_tenant(Pid(0))
        .expect("externalizes after unpin");
}

#[test]
fn killing_a_tenant_reaps_its_pins() {
    let (mut mv, _id, base, len) = io_fleet(MultiVmConfig::default());
    assert_eq!(mv.kernel.pinned_bytes_of(Pid(0)), len);
    assert!(mv.kernel.proc_kill(Pid(0)));
    assert_eq!(mv.kernel.pins().len(), 0, "kill reaps the leaked pin");
    assert_eq!(mv.kernel.pinned_bytes(), 0);
    let s = mv.kernel.pin_stats();
    assert_eq!(s.reaped, 1);
    assert_eq!(s.pins, s.unpins + s.reaped, "accounting balances");
    // The reaped range is movable again.
    assert!(mv.kernel.pinned_overlap(base, len).is_none());
}
