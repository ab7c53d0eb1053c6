//! Cross-crate integration tests: source → CARAT compiler → signed binary
//! → kernel load → execution, with protection and mapping exercised the
//! way the paper's prototype exercises them.

use carat_suite::core::{CaratCompiler, CompileOptions, OptPreset, SigningKey};
use carat_suite::frontend::compile_cm;
use carat_suite::runtime::GuardImpl;
use carat_suite::vm::{Mode, MoveDriverConfig, SwapDriverConfig, Vm, VmConfig, VmError};

fn run_src(src: &str, options: CompileOptions, cfg: VmConfig) -> Result<i64, VmError> {
    let module = compile_cm("t", src).expect("frontend");
    let compiled = CaratCompiler::new(options).compile(module).expect("carat");
    Ok(Vm::new(compiled.module, cfg)?.run()?.ret)
}

#[test]
fn full_trust_chain_from_source_to_execution() {
    let src = r#"
        int fib(int n) { if (n < 2) { return n; } return fib(n - 1) + fib(n - 2); }
        int main() { return fib(15); }
    "#;
    let key = SigningKey::from_passphrase("carat-cc", "integration");
    let module = compile_cm("fib", src).unwrap();
    let compiled = CaratCompiler::new(CompileOptions {
        signing: Some(key.clone()),
        ..CompileOptions::default()
    })
    .compile(module)
    .unwrap();
    let signed = compiled.signed.expect("signed");
    // The signed text is real, parseable bitcode.
    assert!(signed.text.contains("func @fib"));
    let vm = Vm::load_signed(&signed, vec![key], VmConfig::default()).unwrap();
    assert_eq!(vm.run().unwrap().ret, 610);
}

#[test]
fn tampered_binary_never_runs() {
    let key = SigningKey::from_passphrase("carat-cc", "integration");
    let module = compile_cm("t", "int main() { return 1; }").unwrap();
    let compiled = CaratCompiler::new(CompileOptions {
        signing: Some(key.clone()),
        ..CompileOptions::default()
    })
    .compile(module)
    .unwrap();
    let mut signed = compiled.signed.unwrap();
    assert!(signed.text.contains("const i64 1"), "tamper target present");
    signed.text = signed.text.replace("const i64 1", "const i64 2");
    assert!(matches!(
        Vm::load_signed(&signed, vec![key], VmConfig::default()),
        Err(VmError::Load(_))
    ));
}

#[test]
fn identical_results_across_all_configurations() {
    // A program exercising heap, globals, structs, recursion and floats.
    let src = r#"
        struct cell { double v; struct cell* next; };
        double acc[16];
        struct cell* push(struct cell* head, double v) {
            struct cell* c = (struct cell*) malloc(sizeof(struct cell));
            c->v = v; c->next = head;
            return c;
        }
        int main() {
            struct cell* head = (struct cell*) null;
            for (int i = 0; i < 64; i += 1) {
                head = push(head, i * 0.5);
            }
            double total = 0.0;
            while (head != null) {
                acc[(int) head->v % 16] += head->v;
                total += head->v;
                head = head->next;
            }
            for (int i = 0; i < 16; i += 1) { total += acc[i]; }
            return (int) total;
        }
    "#;
    let mut results = Vec::new();
    for options in [
        CompileOptions::baseline(),
        CompileOptions::guards_only(OptPreset::None),
        CompileOptions::guards_only(OptPreset::General),
        CompileOptions::guards_only(OptPreset::CaratSpecific),
        CompileOptions::tracking_only(),
        CompileOptions::default(),
    ] {
        results.push(run_src(src, options, VmConfig::default()).unwrap());
    }
    assert!(
        results.windows(2).all(|w| w[0] == w[1]),
        "all configurations agree: {results:?}"
    );
    // Also across guard mechanisms and in traditional mode.
    for guard_impl in [GuardImpl::BinarySearch, GuardImpl::IfTree, GuardImpl::Mpx] {
        let r = run_src(
            src,
            CompileOptions::default(),
            VmConfig {
                guard_impl,
                ..VmConfig::default()
            },
        )
        .unwrap();
        assert_eq!(r, results[0]);
    }
    let trad = run_src(
        src,
        CompileOptions::baseline(),
        VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert_eq!(trad, results[0], "paging and CARAT compute the same thing");
}

#[test]
fn page_moves_are_transparent_under_stress() {
    let src = r#"
        struct node { int v; struct node* n; };
        int main() {
            struct node* head = (struct node*) null;
            int expect = 0;
            for (int i = 0; i < 500; i += 1) {
                struct node* x = (struct node*) malloc(sizeof(struct node));
                x->v = i; x->n = head; head = x;
                expect += i;
            }
            int got = 0;
            for (int pass = 0; pass < 20; pass += 1) {
                struct node* c = head;
                got = 0;
                while (c != null) { got += c->v; c = c->n; }
                if (got != expect) { return -1; }
            }
            return got;
        }
    "#;
    let r = run_src(
        src,
        CompileOptions::default(),
        VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 15_000,
                max_moves: 100,
            }),
            ..VmConfig::default()
        },
    )
    .unwrap();
    assert_eq!(r, (0..500).sum::<i64>(), "program self-check passed");
}

#[test]
fn stack_expansion_swap_and_moves_together() {
    // Deep recursion (forces stack expansion) over a linked structure
    // (exercises escape patching) while both the move and swap drivers
    // fire — every mapping mechanism at once.
    let src = r#"
        struct frame_link { int depth; struct frame_link* prev; };
        int descend(struct frame_link* prev, int depth) {
            if (depth == 0) { return 0; }
            struct frame_link* me = (struct frame_link*) malloc(sizeof(struct frame_link));
            me->depth = depth;
            me->prev = prev;
            int below = descend(me, depth - 1);
            int d = me->depth;
            free(me);
            return d + below;
        }
        int main() {
            int total = 0;
            for (int round = 0; round < 3; round += 1) {
                total += descend((struct frame_link*) null, 6000);
            }
            return total % 1000000;
        }
    "#;
    let quiet = run_src(src, CompileOptions::default(), VmConfig::default()).unwrap();
    let module = compile_cm("stress", src).unwrap();
    let compiled = CaratCompiler::new(CompileOptions::default())
        .compile(module)
        .unwrap();
    let vm = Vm::new(
        compiled.module,
        VmConfig {
            move_driver: Some(MoveDriverConfig {
                period_cycles: 120_000,
                max_moves: 40,
            }),
            swap_driver: Some(SwapDriverConfig {
                period_cycles: 200_000,
                max_swaps: 15,
            }),
            ..VmConfig::default()
        },
    )
    .unwrap();
    let r = vm.run().unwrap();
    assert_eq!(r.ret, quiet);
    assert!(r.counters.stack_expansions >= 1, "stack grew");
}

#[test]
fn guard_fault_on_use_after_free_of_whole_region() {
    // After the kernel revokes the moved-out hole, reads there fault. We
    // emulate a stray pointer via int->ptr casting (a CARAT restriction
    // violation that guards catch at run time).
    let src = r#"
        int main() {
            int* stray = (int*) 0x6fff0000;
            return *stray;
        }
    "#;
    let err = run_src(
        src,
        CompileOptions::guards_only(OptPreset::CaratSpecific),
        VmConfig::default(),
    )
    .unwrap_err();
    assert!(matches!(err, VmError::GuardFault { .. }));
}

#[test]
fn traditional_mode_reports_translation_costs() {
    let src = r#"
        int main() {
            int n = 65536;
            char* big = (char*) malloc(n * 16);
            int sum = 0;
            for (int i = 0; i < n; i += 1) { big[(i * 4099) % (n * 16)] = (char) i; }
            for (int i = 0; i < n * 16; i += 4096) { sum += big[i]; }
            free(big);
            return sum % 1000;
        }
    "#;
    let module = compile_cm("t", src).unwrap();
    let compiled = CaratCompiler::new(CompileOptions::baseline())
        .compile(module)
        .unwrap();
    let r = Vm::new(
        compiled.module,
        VmConfig {
            mode: Mode::Traditional,
            ..VmConfig::default()
        },
    )
    .unwrap()
    .run()
    .unwrap();
    assert!(r.dtlb_misses > 1000, "random writes thrash the DTLB");
    assert!(r.pagewalks > 0);
    assert!(r.counters.translation_cycles > 0);
    assert!(r.page_allocs > r.initial_pages);
}

#[test]
fn carat_census_matches_static_guard_count() {
    let src = r#"
        double a[256];
        int main() {
            double s = 0.0;
            for (int i = 0; i < 256; i += 1) { s += a[i]; }
            for (int i = 0; i < 256; i += 1) { a[i] = s; }
            return (int) s;
        }
    "#;
    let module = compile_cm("t", src).unwrap();
    let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
        .compile(module)
        .unwrap();
    let c = compiled.census;
    assert_eq!(c.total, c.untouched + c.hoisted + c.merged + c.eliminated);
    assert!(
        c.merged >= 2,
        "both loops' guards merge into range guards: {c:?}"
    );
}

/// In each program, one rule of `AliasQuery::disjoint` alone proves that
/// the loop's store cannot write the index the loop loads. The load is
/// then loop-invariant, so two guards hoist: one at an address that is
/// invariant anyway, and the one at the address the loaded index selects.
/// Without the rule, only the first hoists.
#[test]
fn each_alias_rule_hoists_a_guard_only_it_can() {
    let cases = [
        (
            "base object: an argument against a local malloc",
            r#"
            int sum(int* p, int n) {
                int* q = (int*) malloc(n * sizeof(int));
                int s = 0;
                for (int i = 0; i < n; i += 1) {
                    q[i] = i;
                    s += p[p[0]];
                }
                return s + q[n - 1];
            }
            int main() {
                int* p = (int*) malloc(4 * sizeof(int));
                p[0] = 2; p[1] = 5; p[2] = 7; p[3] = 9;
                return sum(p, 8);
            }
            "#,
        ),
        (
            "constant offset: two fields of one malloc'd struct",
            r#"
            struct acc { int k; int total; };
            int run(int* data) {
                struct acc* a = (struct acc*) malloc(sizeof(struct acc));
                a->k = 1;
                int s = 0;
                for (int i = 0; i < 8; i += 1) {
                    s += data[a->k] * data[0];
                    a->total = s;
                }
                return a->total;
            }
            int main() {
                int* data = (int*) malloc(4 * sizeof(int));
                data[0] = 2; data[1] = 5; data[2] = 7; data[3] = 9;
                return run(data);
            }
            "#,
        ),
        (
            "Steensgaard: a phi of two mallocs",
            r#"
            int pick(int sel) {
                int* a = (int*) malloc(4 * sizeof(int));
                int* b = (int*) malloc(4 * sizeof(int));
                int* tab = (int*) malloc(4 * sizeof(int));
                int* out = (int*) malloc(8 * sizeof(int));
                a[0] = 1; b[0] = 3;
                tab[0] = 2; tab[1] = 5; tab[2] = 7; tab[3] = 9;
                int* c = a;
                if (sel > 0) { c = b; }
                for (int i = 0; i < 8; i += 1) { out[i] = tab[c[0]] + i; }
                return out[7];
            }
            int main() { return pick(1); }
            "#,
        ),
    ];
    // Every case runs before the verdict, so a lost rule names only its
    // own program.
    let mut not_hoisted = Vec::new();
    for (rule, src) in cases {
        let module = compile_cm("t", src).unwrap();
        let compiled = CaratCompiler::new(CompileOptions::guards_only(OptPreset::CaratSpecific))
            .compile(module)
            .unwrap();
        if compiled.census.hoisted != 2 {
            not_hoisted.push((rule, compiled.census));
        }
        let base = run_src(src, CompileOptions::baseline(), VmConfig::default()).unwrap();
        let full = run_src(src, CompileOptions::default(), VmConfig::default()).unwrap();
        assert_ne!(base, 0, "{rule}: the program reads initialised data");
        assert_eq!(base, full, "{rule}: hoisting changes no result");
    }
    assert!(
        not_hoisted.is_empty(),
        "the guard the loaded index selects did not hoist: {not_hoisted:?}"
    );
}

/// `CapsuleLayout::of` is the loader's own arithmetic, so fleet admission
/// can ask what a tenant will cost in resident bytes before building it:
/// for every Cm source in the suite (the 21 workloads and the three
/// tenant programs), instrumented, under both the default sizing and the
/// fleet's microservice sizing, it equals the loaded image's capsule.
#[test]
fn capsule_layout_predicts_every_loaded_capsule() {
    use carat_suite::kernel::{CapsuleLayout, LoadConfig, SimKernel};
    use carat_suite::runtime::AllocationTable;
    use carat_suite::workloads::{all_workloads, chaos_tenant, fleet_tenant, io_server, Scale};

    let fleet_load = LoadConfig {
        stack_size: 8 * 1024,
        heap_size: 16 * 1024,
        page_size: 4096,
    };
    let mut sources: Vec<_> = all_workloads()
        .into_iter()
        .map(|w| (w.name, w.module(Scale::Test).expect("frontend")))
        .collect();
    for (name, build) in [
        ("fleet_tenant", fleet_tenant as fn(Scale, i64) -> _),
        ("chaos_tenant", chaos_tenant),
        ("io_server", io_server),
    ] {
        sources.push((name, build(Scale::Test, 0).expect("frontend")));
    }
    assert_eq!(sources.len(), 24);
    let compiler = CaratCompiler::new(CompileOptions::default());
    for (name, source) in sources {
        let module = compiler.compile(source).expect("carat").module;
        let text_len = carat_suite::ir::print_module(&module).len() as u64;
        for cfg in [LoadConfig::default(), fleet_load] {
            let predicted = CapsuleLayout::of(&module, text_len, cfg).bytes();
            let mut kernel = SimKernel::new(128 * 1024 * 1024);
            let image = kernel
                .load_unsigned(module.clone(), &mut AllocationTable::new(), cfg)
                .expect("loads");
            assert_eq!(
                predicted,
                image.capsule_region().len,
                "{name} under {cfg:?}"
            );
        }
    }
}
