//! Protection demo: CARAT guards stop the same wild accesses a paging MMU
//! would, and kernel protection changes (region permission updates) take
//! effect at the next guard — with no page table anywhere.
//!
//! ```sh
//! cargo run --example protection
//! ```

use carat_core::{CaratCompiler, CompileOptions, OptPreset};
use carat_frontend::compile_cm;
use carat_runtime::{Access, GuardImpl, Perms};
use carat_vm::{Vm, VmConfig, VmError};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // --- 1. A wild write is caught by a guard -------------------------
    let wild = r#"
    int main() {
        int* p = (int*) 0x7f000000;   // forged physical address
        *p = 42;                      // must fault under CARAT
        return 0;
    }
    "#;
    let module = compile_cm("wild", wild)?;
    let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)?;
    match Vm::new(compiled.module, VmConfig::default())?.run() {
        Err(VmError::GuardFault { addr, write, .. }) => {
            println!(
                "guard fault caught the wild {} to {addr:#x} (as paging would)",
                if write { "write" } else { "read" }
            );
        }
        other => panic!("expected a guard fault, got {other:?}"),
    }

    // --- 2. The same program minus the wild write runs fine -----------
    let tame = r#"
    int buffer[64];
    int main() {
        for (int i = 0; i < 64; i += 1) { buffer[i] = i; }
        return buffer[63];
    }
    "#;
    let module = compile_cm("tame", tame)?;
    let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)?;
    let r = Vm::new(compiled.module, VmConfig::default())?.run()?;
    println!(
        "tame run returned {} with {} guard checks",
        r.ret, r.counters.guards_executed
    );

    // --- 3. Kernel-side protection change: make a region read-only ----
    // Drive the region machinery directly (what the kernel module does on
    // a protection change request, paper §4.3).
    let module = compile_cm("tame2", tame)?;
    let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)?;
    let vm = Vm::new(compiled.module, VmConfig::default())?;
    let global_addr = vm.image().globals[0];
    let page = 4096;
    let mut kernel_view = vm; // we own the whole machine in this demo
    kernel_view
        .kernel
        .change_protection(global_addr / page * page, page, Perms::R);
    println!(
        "kernel made the page at {:#x} read-only; region count is now {}",
        global_addr / page * page,
        kernel_view.kernel.space.regions.len()
    );
    // The very next guarded store faults — "the next guard will see the
    // changes" (paper §2.2).
    match kernel_view.run() {
        Err(VmError::GuardFault {
            addr, write: true, ..
        }) => {
            println!("guarded store to {addr:#x} faulted after the protection change");
        }
        other => panic!("expected a write fault, got {other:?}"),
    }

    // --- 4. Guard mechanisms agree ------------------------------------
    let module = compile_cm("tame3", tame)?;
    let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)?;
    for imp in [GuardImpl::BinarySearch, GuardImpl::IfTree, GuardImpl::Mpx] {
        let r = Vm::new(
            compiled.module.clone(),
            VmConfig {
                guard_impl: imp,
                ..VmConfig::default()
            },
        )?
        .run()?;
        println!("{imp:?}: {} cycles in guards", r.counters.guard_cycles);
    }
    let _ = Access::Read; // (re-exported for API browsing)
    Ok(())
}
