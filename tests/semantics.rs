//! Language/execution semantics tests: the fine-grained behaviors a C
//! programmer relies on, end-to-end through the whole stack.

use carat_suite::core::{CaratCompiler, CompileOptions};
use carat_suite::frontend::compile_cm;
use carat_suite::ir::{CastKind, ModuleBuilder, Type};
use carat_suite::vm::{Engine, Mode, Vm, VmConfig, VmError};

fn eval(src: &str) -> i64 {
    let module = compile_cm("sem", src).expect("frontend");
    let compiled = CaratCompiler::new(CompileOptions::default())
        .compile(module)
        .expect("carat");
    Vm::new(compiled.module, VmConfig::default())
        .expect("load")
        .run()
        .expect("run")
        .ret
}

fn eval_err(src: &str) -> VmError {
    let module = compile_cm("sem", src).expect("frontend");
    let compiled = CaratCompiler::new(CompileOptions::default())
        .compile(module)
        .expect("carat");
    Vm::new(compiled.module, VmConfig::default())
        .expect("load")
        .run()
        .expect_err("must fail")
}

#[test]
fn integer_arithmetic_semantics() {
    assert_eq!(eval("int main() { return 7 / 2; }"), 3);
    assert_eq!(
        eval("int main() { return -7 / 2; }"),
        -3,
        "C truncates toward zero"
    );
    assert_eq!(eval("int main() { return -7 % 2; }"), -1);
    assert_eq!(eval("int main() { return 1 << 10; }"), 1024);
    assert_eq!(
        eval("int main() { return -8 >> 1; }"),
        -4,
        "arithmetic shift"
    );
    assert_eq!(
        eval("int main() { return 0x7f & 0x18 | 0x3 ^ 0x1; }"),
        0x18 | 0x2
    );
    assert_eq!(eval("int main() { return ~0; }"), -1);
}

#[test]
fn division_by_zero_traps() {
    assert!(matches!(
        eval_err("int main() { int z = 0; return 5 / z; }"),
        VmError::Trap(_)
    ));
    assert!(matches!(
        eval_err("int main() { int z = 0; return 5 % z; }"),
        VmError::Trap(_)
    ));
}

#[test]
fn char_width_and_conversions() {
    assert_eq!(eval("int main() { char c = (char) 300; return c; }"), 44);
    assert_eq!(
        eval("int main() { char c = (char) 200; return c; }"),
        -56,
        "i8 is signed"
    );
    assert_eq!(eval("int main() { char c = 'A'; return c + 1; }"), 66);
}

#[test]
fn double_semantics() {
    assert_eq!(
        eval("int main() { double x = 7.0; return (int) (x / 2.0); }"),
        3
    );
    assert_eq!(eval("int main() { return (int) (0.1 + 0.2 + 10.0); }"), 10);
    assert_eq!(
        eval("int main() { double x = 2.0; return (int) sqrt(x * 8.0); }"),
        4
    );
    // int promotes to double in mixed arithmetic
    assert_eq!(eval("int main() { int i = 3; return (int) (i * 1.5); }"), 4);
}

#[test]
fn short_circuit_evaluation() {
    // The right side of && must not run when the left is false: a guarded
    // null deref there would fault.
    let src = r#"
        int main() {
            int* p = (int*) null;
            if (p != null && *p == 5) { return 1; }
            return 0;
        }
    "#;
    assert_eq!(eval(src), 0);
    let src2 = r#"
        int touched;
        int bump() { touched += 1; return 1; }
        int main() {
            int ok = 1;
            if (ok == 1 || bump() == 1) { }
            if (ok == 0 && bump() == 1) { }
            return touched;
        }
    "#;
    assert_eq!(eval(src2), 0, "neither arm evaluated its right side");
}

#[test]
fn pointer_arithmetic_scales_by_element() {
    let src = r#"
        int main() {
            double* a = (double*) malloc(8 * sizeof(double));
            for (int i = 0; i < 8; i += 1) { a[i] = i * 1.0; }
            double* p = a + 3;
            int diff = (int) (p - a);
            int val = (int) *p;
            free(a);
            return diff * 10 + val;
        }
    "#;
    assert_eq!(eval(src), 33);
}

#[test]
fn struct_copy_through_fields_and_nesting() {
    let src = r#"
        struct inner { int a; char b; };
        struct outer { struct inner one; int xs[3]; struct inner two; };
        int main() {
            struct outer o;
            o.one.a = 5;
            o.one.b = 'x';
            o.xs[0] = 10; o.xs[1] = 20; o.xs[2] = 30;
            o.two.a = o.one.a + o.xs[2];
            return o.two.a + o.one.b;
        }
    "#;
    assert_eq!(eval(src), 35 + 120);
}

#[test]
fn recursion_and_mutual_calls() {
    // Cm has no forward declarations, so no mutual recursion; iterate
    // instead.
    let src = r#"
        int is_even(int n) {
            int k = n;
            while (k >= 2) { k -= 2; }
            return 1 - k;
        }
        int main() { return is_even(10) * 10 + (1 - is_even(7)); }
    "#;
    assert_eq!(eval(src), 11);
}

#[test]
fn globals_persist_across_calls() {
    let src = r#"
        int counter;
        int hits[4];
        void record(int k) { counter += 1; hits[k % 4] += k; }
        int main() {
            for (int i = 0; i < 10; i += 1) { record(i); }
            return counter * 1000 + hits[1];
        }
    "#;
    assert_eq!(eval(src), 10 * 1000 + (1 + 5 + 9));
}

#[test]
fn memcpy_memset_builtins() {
    let src = r#"
        int main() {
            char* a = (char*) malloc(64);
            char* b = (char*) malloc(64);
            memset(a, 7, 64);
            memcpy(b, a, 64);
            int s = 0;
            for (int i = 0; i < 64; i += 1) { s += b[i]; }
            free(a); free(b);
            return s;
        }
    "#;
    assert_eq!(eval(src), 7 * 64);
}

#[test]
fn while_and_for_with_breaks() {
    let src = r#"
        int main() {
            int s = 0;
            int i = 0;
            while (true) {
                i += 1;
                if (i % 3 == 0) { continue; }
                if (i > 10) { break; }
                s += i;
            }
            return s;
        }
    "#;
    assert_eq!(eval(src), 1 + 2 + 4 + 5 + 7 + 8 + 10);
}

/// Field-address arithmetic wraps like pointer arithmetic does: a guest
/// may form `&((struct s*) -8)->c` without dereferencing it — nothing a
/// guard ever sees — and that must not overflow-panic the host. Built in
/// IR (no pass may fold the address away) and run under every engine in
/// both worlds.
#[test]
fn field_address_of_wild_pointer_wraps() {
    let mut mb = ModuleBuilder::new("wild_field");
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        b.switch_to(e);
        let minus8 = b.const_i64(-8);
        let p = b.cast(CastKind::IntToPtr, minus8, Type::Ptr);
        let s = Type::Struct(vec![Type::I64, Type::I64, Type::I64]);
        let field = b.field_addr(p, s, 2);
        let back = b.cast(CastKind::PtrToInt, field, Type::I64);
        b.ret(Some(back));
    }
    let module = mb.finish();
    for mode in [Mode::Carat, Mode::Traditional] {
        let run = |engine| {
            let cfg = VmConfig {
                mode,
                engine,
                ..VmConfig::default()
            };
            Vm::new(module.clone(), cfg)
                .expect("load")
                .run()
                .expect("run")
        };
        let reference = run(Engine::Reference);
        for engine in Engine::ALL {
            let r = run(engine);
            assert_eq!(r.ret, 8, "{engine:?} {mode:?}: -8 + offsetof(c) wraps to 8");
            assert_eq!(r.counters, reference.counters, "{engine:?} {mode:?}");
        }
    }
}
