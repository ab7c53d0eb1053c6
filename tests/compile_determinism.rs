//! The CARAT compiler is a pure function of its input: recompiling the
//! same `Module` must produce byte-identical bitcode and therefore the
//! same signature — otherwise a signed image cannot be reproduced by a
//! second party, and the trust chain's "what the compiler signed is what
//! the kernel runs" has nothing stable to name.

use carat_suite::core::{CaratCompiler, CompileOptions};
use carat_suite::ir::{module_bytes, Module};
use carat_suite::workloads::{all_workloads, chaos_tenant, fleet_tenant, io_server, Scale};

const RECOMPILES: usize = 8;

#[test]
fn recompiling_a_module_is_byte_identical() {
    let mut subjects: Vec<(String, Module)> = all_workloads()
        .into_iter()
        .map(|w| {
            (
                w.name.to_string(),
                w.module(Scale::Small).expect("compiles"),
            )
        })
        .collect();
    assert_eq!(subjects.len(), 21, "the whole workload suite");
    subjects.push(("io_server".into(), io_server(Scale::Small, 3).unwrap()));
    subjects.push((
        "fleet_tenant".into(),
        fleet_tenant(Scale::Small, 1).unwrap(),
    ));
    subjects.push((
        "chaos_tenant".into(),
        chaos_tenant(Scale::Small, 1).unwrap(),
    ));

    let compiler = CaratCompiler::new(CompileOptions::default());
    for (name, module) in subjects {
        let first = compiler.compile(module.clone()).expect("carat");
        let first_bytes = module_bytes(&first.module);
        let first_sig = first.signed.expect("default options sign").signature;
        for round in 1..RECOMPILES {
            let again = compiler.compile(module.clone()).expect("carat");
            assert!(
                module_bytes(&again.module) == first_bytes,
                "{name}: recompile #{round} printed a different module"
            );
            assert_eq!(
                again.signed.expect("signed").signature,
                first_sig,
                "{name}: recompile #{round} signed differently"
            );
        }
    }
}
