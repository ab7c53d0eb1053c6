//! Figure 2 — level-1 DTLB misses per 1000 instructions, per benchmark,
//! under the traditional paging model.

use carat_bench::{print_table, run_simple, Args, Variant};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!(
        "Figure 2: L1 DTLB misses per 1000 instructions (traditional model, {scale:?} scale)\n"
    );
    let mut rows = Vec::new();
    for w in args.workloads {
        let r = run_simple(&w, scale, Variant::Traditional);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.4}", r.dtlb_mpki),
            format!("{}", r.dtlb_misses),
            format!("{}", r.pagewalks),
            format!(
                "{:.4}",
                r.pagewalks as f64 * 1000.0 / r.counters.instructions as f64
            ),
        ]);
    }
    print_table(
        &[
            "benchmark",
            "DTLB MPKI",
            "DTLB misses",
            "pagewalks",
            "walks/1K instr",
        ],
        &rows,
    );
}
