//! Figure 3 — run-time overhead of guard injection, normalized to the
//! uninstrumented baseline. `general` = generic optimizations only (3a);
//! `carat` = CARAT-specific optimizations (3b). Each mode reports both the
//! software range guard and the MPX-modeled guard.

use carat_bench::{compile, geomean, print_table, run, run_simple, Args, Variant};
use carat_runtime::GuardImpl;

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, mode) = (args.scale, args.mode);
    let variant = match mode {
        "general" => Variant::GuardsGeneral,
        "none" => Variant::GuardsNaive,
        _ => Variant::GuardsCarat,
    };
    let sub = if variant == Variant::GuardsGeneral {
        "a"
    } else {
        "b"
    };
    println!("Figure 3{sub}: guard overhead with {mode} optimizations ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let (mut mpxs, mut ranges) = (Vec::new(), Vec::new());
    for w in args.workloads {
        let base = run_simple(&w, scale, Variant::Baseline);
        let m = compile(&w, scale, variant);
        let mpx = run(m.clone(), variant, GuardImpl::Mpx, None).expect("mpx run");
        let rng = run(m, variant, GuardImpl::BinarySearch, None).expect("range run");
        let o_mpx = mpx.counters.normalized_to(&base.counters);
        let o_rng = rng.counters.normalized_to(&base.counters);
        mpxs.push(o_mpx);
        ranges.push(o_rng);
        rows.push(vec![
            w.name.to_string(),
            "1.000".into(),
            format!("{o_mpx:.3}"),
            format!("{o_rng:.3}"),
            format!("{}", mpx.counters.guards_executed),
        ]);
    }
    let [mpx, rng] = [&mpxs, &ranges].map(|c| format!("{:.3}", geomean(c)));
    rows.push(vec![
        "Geo. Mean".into(),
        "1.000".into(),
        mpx,
        rng,
        String::new(),
    ]);
    print_table(
        &[
            "benchmark",
            "Baseline",
            "MPX Guard",
            "Range Guard",
            "guards exec",
        ],
        &rows,
    );
}
