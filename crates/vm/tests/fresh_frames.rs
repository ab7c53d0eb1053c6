//! The loader's never-allocated-frames rule.
//!
//! A capsule that lands entirely above the buddy allocator's high-water
//! mark is not zero-filled: those frames have not been handed out since
//! boot, so they still hold the zeroes physical memory starts with. That
//! holds only if nothing — guest, mover, pager, DMA engine, capsule
//! device — writes a frame before the buddy hands it out. These tests
//! pin it under every writer at once, and check that a block a killed
//! tenant dirtied is still zeroed when it is reused.

use std::rc::Rc;

use carat_core::{CaratCompiler, CompileOptions};
use carat_ir::Module;
use carat_kernel::{DmaDir, LoadConfig, PhysicalMemory, ProcessImage};
use carat_vm::{
    MoveDriverConfig, MultiVm, MultiVmConfig, SliceExit, SwapDriverConfig, Vm, VmConfig,
};
use carat_workloads::{fleet_tenant, io_server, Scale};

const SMALL_LOAD: LoadConfig = LoadConfig {
    stack_size: 8 * 1024,
    heap_size: 16 * 1024,
    page_size: 4096,
};

fn instrument(m: Module) -> Module {
    CaratCompiler::new(CompileOptions::default())
        .compile(m)
        .expect("instruments")
        .module
}

fn small_cfg() -> VmConfig {
    VmConfig {
        load: SMALL_LOAD,
        ..VmConfig::default()
    }
}

/// The first non-zero byte in `[from, mem.size())`, if any.
fn first_dirty_byte(mem: &PhysicalMemory, from: u64) -> Option<u64> {
    const ZEROES: [u8; 4096] = [0; 4096];
    let bytes = mem.read_bytes(from, mem.size() - from);
    // Slice equality compiles to memcmp even in debug builds.
    let chunk = bytes
        .chunks(ZEROES.len())
        .position(|c| c != &ZEROES[..c.len()])?;
    let at = chunk * ZEROES.len();
    let off = bytes[at..]
        .iter()
        .position(|&b| b != 0)
        .expect("dirty chunk");
    Some(from + (at + off) as u64)
}

fn assert_untouched_above_high_water(mem: &PhysicalMemory, mark: u64, what: &str) {
    assert!(mark < mem.size(), "{what}: some memory was never allocated");
    if let Some(addr) = first_dirty_byte(mem, mark) {
        panic!("{what}: byte {addr:#x} at or above the high-water mark {mark:#x} was written");
    }
}

#[test]
fn frames_above_the_high_water_mark_are_never_written() {
    // Solo: a move + swap storm over a pointer-heavy program.
    let w = carat_workloads::by_name("mcf").expect("workload");
    let module = instrument(w.module(Scale::Test).expect("frontend"));
    let mut vm = Vm::new(
        module,
        VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 15_000,
                max_moves: 60,
            }),
            swap_driver: Some(SwapDriverConfig {
                period_cycles: 45_000,
                max_swaps: 20,
            }),
            ..VmConfig::default()
        },
    )
    .expect("loads");
    vm.start().expect("starts");
    while let SliceExit::Quantum = vm.run_slice(10_000).expect("runs") {}
    let c = vm.counters();
    assert!(
        c.moves > 0 && c.swap_outs > 0,
        "the storm moved and swapped"
    );
    assert_untouched_above_high_water(
        &vm.kernel.mem,
        vm.kernel.buddy.never_allocated_from(),
        "move+swap storm",
    );

    // Fleet: admission, pressure compaction, DMA into a pinned shared
    // block, externalize + rehydrate, kill and respawn.
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            quantum: 250,
            pressure_every: 1,
            kernel_mem: 16 * 1024 * 1024,
            ..MultiVmConfig::default()
        },
    )
    .expect("boots");
    let io = Rc::new(instrument(io_server(Scale::Test, 3).expect("frontend")));
    let churn = Rc::new(instrument(fleet_tenant(Scale::Test, 5).expect("frontend")));
    let io_pids = mv.spawn_batch("io", io, small_cfg(), 2).expect("admits");
    let mut churn_pids = mv
        .spawn_batch("c", churn.clone(), small_cfg(), 6)
        .expect("admits");
    let id = mv.shared_create(4096).expect("frames available");
    for &pid in &io_pids {
        mv.shared_map(pid, id, 0).expect("maps");
    }
    let (base, _) = mv.pin_shared(io_pids[0], id).expect("pins");
    let (mut respawned, mut rehydrated, mut completions) = (0, 0, 0);
    for round in 0usize.. {
        let ran = mv.run_batch(4);
        mv.dma_submit(base, 128, DmaDir::DeviceToMem);
        mv.dma_submit(base, 128, DmaDir::MemToDevice);
        completions += mv.dma_service(4).len();
        let slot = round % churn_pids.len();
        let victim = churn_pids[slot];
        if round % 2 == 0 {
            if mv.externalize_tenant(victim).is_ok() {
                mv.rehydrate_tenant(victim).expect("rehydrates");
                rehydrated += 1;
            }
        } else if respawned < 4 {
            assert!(mv.kill(victim));
            churn_pids[slot] = mv
                .spawn_shared("respawn", churn.clone(), small_cfg())
                .expect("respawns into the freed frames");
            respawned += 1;
        }
        if ran == 0 {
            break;
        }
    }
    assert!(respawned == 4 && rehydrated > 0 && completions > 0);
    assert_untouched_above_high_water(
        &mv.kernel.mem,
        mv.kernel.buddy.never_allocated_from(),
        "fleet churn",
    );
}

/// A tenant that dirties its stack (an address-taken local per frame)
/// and its bss (a zero-initialised global array).
const DIRTY_SRC: &str = "
int bss[512];
int down(int d) {
    int x = d * 7 + 1;
    int* p = &x;
    if (d > 0) { *p += down(d - 1); }
    return *p;
}
int main() {
    for (int i = 0; i < 512; i += 1) { bss[i] = i + 1; }
    return down(200) % 1000;
}
";

fn stack_and_data(img: &ProcessImage) -> (u64, u64) {
    (img.stack.0, img.code.0 - img.stack.0)
}

#[test]
fn reused_frames_are_zeroed_for_the_next_capsule() {
    let mut mv = MultiVm::new(
        Vec::new(),
        MultiVmConfig {
            kernel_mem: 16 * 1024 * 1024,
            ..MultiVmConfig::default()
        },
    )
    .expect("boots");
    let module = Rc::new(instrument(
        carat_frontend::compile_cm("dirty", DIRTY_SRC).expect("frontend"),
    ));
    let a = mv
        .spawn_shared("dirty", module.clone(), small_cfg())
        .expect("admits");
    mv.run_batch(u64::MAX);
    let (start, len) = stack_and_data(&mv.kernel.procs.get(a).expect("live").image);
    let dirty = mv.kernel.mem.read_bytes(start, len);
    assert!(
        dirty.iter().filter(|&&b| b != 0).count() > 512,
        "the tenant wrote its stack and bss"
    );

    assert!(mv.kill(a));
    let mark = mv.kernel.buddy.never_allocated_from();
    let b = mv
        .spawn_shared("clean", module, small_cfg())
        .expect("admits");
    let (b_start, b_len) = stack_and_data(&mv.kernel.procs.get(b).expect("live").image);
    assert_eq!(b_start, start, "the buddy hands the freed block back");
    assert!(b_start < mark, "the block was allocated before");
    assert!(
        mv.kernel
            .mem
            .read_bytes(b_start, b_len)
            .iter()
            .all(|&b| b == 0),
        "stack and bss of a capsule on reused frames read zero"
    );
}
