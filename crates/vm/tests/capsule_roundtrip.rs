//! Capsule round-trip suite: externalizing a mid-run tenant and
//! rebuilding it must be lossless.
//!
//! Three layers of guarantee, each strictly stronger:
//! 1. **Byte determinism** — serializing the same tenant twice yields
//!    identical bytes (no hash-order leaks).
//! 2. **Round-trip identity** — externalize → rehydrate → externalize is
//!    byte-identical, and `footprint_bytes()`/counters are preserved.
//! 3. **Resume equivalence** — a tenant that went through the capsule
//!    (including a checksum-verified trip through the simulated swap
//!    device) finishes with counters bit-identical to one that never
//!    left memory.
//!
//! Damage paths: a corrupted capsule fails the kernel checksum with a
//! typed error, and a structurally damaged image rehydrates to `None` —
//! never a panic, never a half-restored tenant.

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::Module;
use carat_kernel::{checksum, KernelError};
use carat_vm::{
    DecodedProgram, Engine, Mode, MoveDriverConfig, SliceExit, SwapDriverConfig, TenantState,
    ThreadedOpts, Vm, VmConfig,
};
use proptest::prelude::*;

/// Pointer-chasing list + two worker threads + repeated traversal:
/// exercises heap metadata, escapes, parked threads, and buffered
/// output in the capsule.
const WORKLOAD_SRC: &str = "
    struct node { int v; struct node* n; };
    int work(int lo) {
        int s = 0;
        for (int i = lo; i < lo + 4000; i += 1) { s += i; }
        return s;
    }
    int main() {
        struct node* head = (struct node*) null;
        for (int i = 0; i < 400; i += 1) {
            struct node* x = (struct node*) malloc(sizeof(struct node));
            x->v = i; x->n = head; head = x;
        }
        int t0 = spawn(work, 0);
        int t1 = spawn(work, 4000);
        int got = 0;
        for (int pass = 0; pass < 40; pass += 1) {
            struct node* c = head;
            got = 0;
            while (c != null) { got += c->v; c = c->n; }
        }
        print_i64(got);
        return got + join(t0) + join(t1);
    }
";

/// Two workers and `main` in loops far longer than any golden boundary:
/// at every such boundary three threads are live, so two are parked.
const THREADS_SRC: &str = "
    int spin(int lo) {
        int s = 0;
        for (int i = lo; i < lo + 1000000; i += 1) { s += i % 5; }
        return s;
    }
    int main() {
        int t0 = spawn(spin, 0);
        int t1 = spawn(spin, 7);
        return spin(3) + join(t0) + join(t1);
    }
";

/// Mixed-size allocations with every third block freed and a line
/// printed every fortieth, then a long loop: at the golden boundary the
/// heap has a fragmented free list and the output buffer holds lines.
const CHURN_SRC: &str = "
    struct node { int v; struct node* n; };
    int main() {
        struct node* head = (struct node*) null;
        for (int i = 0; i < 200; i += 1) {
            struct node* x = (struct node*) malloc(sizeof(struct node) * (1 + i % 4));
            x->v = i; x->n = head; head = x;
            if (i % 3 == 2) {
                struct node* y = head->n;
                head->n = y->n;
                free(y);
            }
            if (i % 40 == 0) { print_i64(i); }
        }
        int s = 0;
        for (int i = 0; i < 1000000; i += 1) { s += i % 7; }
        while (head != null) { s += head->v; head = head->n; }
        return s;
    }
";

fn instrumented(name: &str, src: &str) -> Module {
    let module = carat_frontend::compile_cm(name, src).expect("compiles");
    CaratCompiler::new(CompileOptions::default())
        .compile(module)
        .expect("instruments")
        .module
}

fn workload() -> Module {
    instrumented("capsule_workload", WORKLOAD_SRC)
}

fn config(mode: Mode, engine: Engine) -> VmConfig {
    VmConfig {
        mode,
        engine,
        move_driver: Some(MoveDriverConfig {
            period_cycles: 30_000,
            max_moves: 30,
        }),
        swap_driver: Some(SwapDriverConfig {
            period_cycles: 70_000,
            max_swaps: 10,
        }),
        ..VmConfig::default()
    }
}

/// Outcome of running `slices` warm-up quanta: still mid-run, or the
/// workload already finished (possible under generous proptest budgets).
#[allow(clippy::large_enum_variant)]
enum Boundary {
    Running(Vm),
    Done(i64, carat_vm::PerfCounters),
}

/// Run `slices` quanta of `budget` cycles each.
fn warm_up(cfg: VmConfig, slices: u64, budget: u64) -> Boundary {
    let mut vm = Vm::new(workload(), cfg).expect("loads");
    vm.start().expect("starts");
    for _ in 0..slices {
        match vm.run_slice(budget).expect("no faults armed") {
            SliceExit::Finished(ret) => {
                let r = vm.finish_run(ret);
                return Boundary::Done(r.ret, r.counters);
            }
            SliceExit::Quantum => {}
        }
    }
    Boundary::Running(vm)
}

/// Like [`warm_up`] but asserts the workload is still mid-run; the
/// deterministic tests pick budgets small enough for this to hold.
fn mid_run(cfg: VmConfig, slices: u64, budget: u64) -> Vm {
    match warm_up(cfg, slices, budget) {
        Boundary::Running(vm) => vm,
        Boundary::Done(..) => panic!("workload finished during warm-up; shrink the budget"),
    }
}

/// Externalize → rehydrate using the host-side handles the capsule
/// excludes, the way the fleet scheduler would.
fn round_trip(state: &TenantState) -> (Vec<u8>, TenantState) {
    let bytes = state.externalize();
    let cfg = state.config().clone();
    let module = state.image().module.clone();
    let program = state.program().clone();
    let back =
        TenantState::rehydrate(&bytes, cfg, module, program).expect("intact image rehydrates");
    (bytes, back)
}

/// Drive a VM to completion, returning `(ret, counters)`.
fn finish(mut vm: Vm, budget: u64) -> (i64, carat_vm::PerfCounters) {
    loop {
        match vm.run_slice(budget).expect("workload is fault-free") {
            SliceExit::Finished(ret) => {
                let r = vm.finish_run(ret);
                return (r.ret, r.counters);
            }
            SliceExit::Quantum => {}
        }
    }
}

/// The capsule format, pinned: `(length, checksum)` of `externalize()`
/// for fixed tenants at fixed slice boundaries. The round-trip tests
/// below cannot see a change applied to both the encoder and the
/// decoder; this one sees any change to the bytes. A layout change must
/// bump `CAPSULE_MAGIC` and update these values together. A change to
/// what a tenant computes (modeled costs, scheduling, allocation)
/// updates the values only.
#[test]
fn capsule_format_golden() {
    let threads = instrumented("capsule_threads", THREADS_SRC);
    let churn = instrumented("capsule_churn", CHURN_SRC);
    let cases = [
        (
            "carat_reference",
            workload(),
            config(Mode::Carat, Engine::Reference),
            3,
        ),
        (
            "carat_fused",
            workload(),
            config(Mode::Carat, Engine::Fused),
            3,
        ),
        (
            "traditional_fused",
            workload(),
            config(Mode::Traditional, Engine::Fused),
            3,
        ),
        (
            "parked_threads",
            threads,
            config(Mode::Carat, Engine::Fused),
            4,
        ),
        (
            "heap_churn_output",
            churn,
            config(Mode::Carat, Engine::Decoded),
            2,
        ),
    ];
    let mut got = Vec::new();
    for (name, module, cfg, slices) in cases {
        let mut vm = Vm::new(module, cfg).expect("loads");
        vm.start().expect("starts");
        for _ in 0..slices {
            let exit = vm.run_slice(12_000).expect("no faults armed");
            assert_eq!(exit, SliceExit::Quantum, "{name}: still mid-run");
        }
        let (_, _, state) = vm.into_tenant();
        if name.starts_with("traditional") {
            // Translations ran, so both TLB levels hold entries.
            assert!(state.counters().translation_cycles > 0, "{name}");
        }
        let image = state.externalize();
        got.push((name, image.len(), checksum(&image)));
    }
    assert_eq!(
        got,
        [
            ("carat_reference", 9206, 0x6f9f_650b_a280_dd68),
            ("carat_fused", 9224, 0xc406_3528_0f2c_dfa3),
            ("traditional_fused", 9544, 0xaf27_ce6b_1811_2181),
            ("parked_threads", 2723, 0x6236_8cac_a698_e6b7),
            ("heap_churn_output", 4799, 0x648b_e0be_65e0_3e4d),
        ]
    );
}

#[test]
fn externalize_is_deterministic() {
    let vm = mid_run(config(Mode::Carat, Engine::Fused), 3, 20_000);
    let (_, _, state) = vm.into_tenant();
    assert_eq!(
        state.externalize(),
        state.externalize(),
        "same tenant, same bytes"
    );
}

#[test]
fn round_trip_preserves_bytes_footprint_and_counters() {
    let vm = mid_run(config(Mode::Carat, Engine::Fused), 4, 15_000);
    let (_, _, state) = vm.into_tenant();
    let (bytes, back) = round_trip(&state);
    assert_eq!(
        back.externalize(),
        bytes,
        "re-externalize is byte-identical"
    );
    assert_eq!(back.footprint_bytes(), state.footprint_bytes());
    assert_eq!(back.counters(), state.counters());
    assert_eq!(back.image().globals, state.image().globals);
}

#[test]
fn rehydrated_tenant_resumes_bit_identically() {
    let budget = 12_000;
    for engine in [Engine::Fused, Engine::Decoded, Engine::Reference] {
        let cfg = config(Mode::Carat, engine);
        let control = finish(mid_run(cfg.clone(), 3, budget), budget);

        let vm = mid_run(cfg, 3, budget);
        let (kernel, table, state) = vm.into_tenant();
        let (_, back) = round_trip(&state);
        let resumed = finish(Vm::from_tenant(kernel, table, back), budget);
        assert_eq!(resumed.0, control.0, "{engine:?}: same result");
        assert_eq!(resumed.1, control.1, "{engine:?}: same counters");
    }
}

#[test]
fn swap_device_round_trip_verifies_checksum() {
    let budget = 10_000;
    let cfg = config(Mode::Carat, Engine::Fused);
    let control = finish(mid_run(cfg.clone(), 2, budget), budget);

    let vm = mid_run(cfg, 2, budget);
    let (mut kernel, table, state) = vm.into_tenant();
    let bytes = state.externalize();
    let cfg = state.config().clone();
    let module = state.image().module.clone();
    let program = state.program().clone();
    drop(state);

    // Through the simulated swap device: checksummed on write, verified
    // and consumed on read.
    let slot = kernel.capsule_write_from(&bytes).expect("write accepted");
    assert_eq!(kernel.capsule_count(), 1);
    let mut read_back = Vec::new();
    kernel
        .capsule_read_into(slot, &mut read_back)
        .expect("checksum verifies");
    assert_eq!(read_back, bytes);
    assert_eq!(kernel.capsule_count(), 0, "read consumed the slot");

    let back = TenantState::rehydrate(&read_back, cfg, module, program).expect("rehydrates");
    let resumed = finish(Vm::from_tenant(kernel, table, back), budget);
    assert_eq!((resumed.0, &resumed.1), (control.0, &control.1));
}

#[test]
fn corrupted_capsule_is_a_typed_checksum_error() {
    let vm = mid_run(config(Mode::Carat, Engine::Fused), 2, 10_000);
    let (mut kernel, _table, state) = vm.into_tenant();
    let slot = kernel
        .capsule_write_from(&state.externalize())
        .expect("write accepted");
    assert!(kernel.debug_corrupt_capsule(slot));
    let err = kernel
        .capsule_read_into(slot, &mut Vec::new())
        .expect_err("corruption detected");
    assert_eq!(err, KernelError::CapsuleCorrupt { slot });
    assert!(err.is_recoverable(), "one lost tenant, not a fleet panic");
}

/// The device's integrity sum over a real capsule image: every
/// single-bit flip at every offset, every truncation and a run of
/// zero-extensions change it. (One flipped bit is one changed word,
/// which the word-at-a-time sum detects by construction; lengths are
/// folded into its seed.)
#[test]
fn checksum_detects_every_bit_flip_truncation_and_zero_extension() {
    let vm = mid_run(config(Mode::Carat, Engine::Fused), 1, 2_000);
    let (_, _, state) = vm.into_tenant();
    let image = state.externalize();
    assert!(image.len() > 1024, "a real image, not a stub");
    let sum = checksum(&image);
    let mut damaged = image.clone();
    for at in 0..image.len() {
        for bit in 0..8 {
            damaged[at] ^= 1 << bit;
            assert_ne!(checksum(&damaged), sum, "bit {bit} of byte {at} flipped");
            damaged[at] ^= 1 << bit;
        }
    }
    for cut in 0..image.len() {
        assert_ne!(checksum(&image[..cut]), sum, "truncated to {cut} bytes");
    }
    for _ in 0..64 {
        damaged.push(0);
        assert_ne!(
            checksum(&damaged),
            sum,
            "zero-extended to {}",
            damaged.len()
        );
    }
}

#[test]
fn damaged_images_rehydrate_to_none_never_panic() {
    let vm = mid_run(config(Mode::Traditional, Engine::Fused), 3, 10_000);
    let (_, _, state) = vm.into_tenant();
    let bytes = state.externalize();
    let cfg = state.config().clone();
    let module = state.image().module.clone();
    let program = state.program().clone();

    // Truncations at every prefix length (sampled), bit flips through
    // the header and structural regions.
    for cut in (0..bytes.len().min(256)).step_by(7) {
        assert!(
            TenantState::rehydrate(&bytes[..cut], cfg.clone(), module.clone(), program.clone())
                .is_none(),
            "truncated image at {cut} must not rehydrate"
        );
    }
    let mut wrong_magic = bytes.clone();
    wrong_magic[0] ^= 0xFF;
    assert!(
        TenantState::rehydrate(&wrong_magic, cfg.clone(), module.clone(), program.clone())
            .is_none()
    );
    // An intact image against a program decoded for another engine: a
    // block has one stream, so the image's cursors would be reinterpreted.
    // Refused like damage — the tenant is lost, nothing resumes.
    let threaded = DecodedProgram::decode_with(&module, Some(ThreadedOpts::default()));
    assert!(
        TenantState::rehydrate(&bytes, cfg.clone(), module.clone(), threaded.into()).is_none(),
        "a fused tenant must not rehydrate over a threaded program"
    );
    // Trailing garbage is rejected (the image must parse exactly).
    let mut padded = bytes.clone();
    padded.push(0);
    assert!(TenantState::rehydrate(&padded, cfg, module, program).is_none());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any slice boundary, quantum size, and mode/engine mix: the
    /// capsule round trip is byte-exact and the rehydrated tenant
    /// finishes bit-identically to one that never left memory.
    #[test]
    fn capsule_round_trip_any_boundary(
        slices in 1u64..6,
        budget in 4_000u64..30_000,
        traditional in proptest::bool::ANY,
        fused in proptest::bool::ANY,
    ) {
        let mode = if traditional { Mode::Traditional } else { Mode::Carat };
        let engine = if fused { Engine::Fused } else { Engine::Decoded };
        let cfg = config(mode, engine);

        match (warm_up(cfg.clone(), slices, budget), warm_up(cfg, slices, budget)) {
            (Boundary::Running(control_vm), Boundary::Running(vm)) => {
                let control = finish(control_vm, budget);
                let (kernel, table, state) = vm.into_tenant();
                let (bytes, back) = round_trip(&state);
                prop_assert_eq!(back.externalize(), bytes);
                prop_assert_eq!(back.footprint_bytes(), state.footprint_bytes());
                let resumed = finish(Vm::from_tenant(kernel, table, back), budget);
                prop_assert_eq!(resumed.0, control.0);
                prop_assert_eq!(resumed.1, control.1);
            }
            // Generous budget: the workload finished during warm-up in
            // both runs; determinism still has to hold.
            (Boundary::Done(r0, c0), Boundary::Done(r1, c1)) => {
                prop_assert_eq!(r0, r1);
                prop_assert_eq!(c0, c1);
            }
            _ => prop_assert!(false, "identical runs disagreed on completion"),
        }
    }
}
