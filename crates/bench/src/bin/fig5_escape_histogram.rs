//! Figure 5 — histogram of (lifetime) escapes per allocation across the
//! suite, split at 50 escapes as in the paper.

use carat_bench::{print_table, run_simple, Args, Variant};
use std::collections::BTreeMap;

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Figure 5: escapes per allocation ({scale:?} scale)\n");
    let mut small: BTreeMap<u64, u64> = BTreeMap::new();
    let mut big: BTreeMap<u64, u64> = BTreeMap::new();
    let mut per_wl = Vec::new();
    let mut total_allocs = 0u64;
    let mut le10 = 0u64;
    for w in args.workloads {
        let r = run_simple(&w, scale, Variant::Tracking);
        let mut wl_allocs = 0u64;
        let mut wl_max = 0u64;
        for (&escapes, &count) in r
            .track_stats
            .escape_histogram
            .iter()
            .collect::<BTreeMap<_, _>>()
        {
            wl_allocs += count;
            wl_max = wl_max.max(escapes);
            total_allocs += count;
            if escapes <= 10 {
                le10 += count;
            }
            if escapes <= 50 {
                *small.entry(escapes).or_insert(0) += count;
            } else {
                *big.entry(escapes).or_insert(0) += count;
            }
        }
        per_wl.push(vec![
            w.name.to_string(),
            wl_allocs.to_string(),
            wl_max.to_string(),
        ]);
    }
    print_table(&["benchmark", "allocations", "max escapes"], &per_wl);

    let histogram = |h: &BTreeMap<u64, u64>| {
        let rows: Vec<Vec<String>> = h
            .iter()
            .map(|(e, c)| vec![e.to_string(), c.to_string()])
            .collect();
        print_table(&["escapes", "allocations"], &rows);
    };
    println!("\n(a) allocations with <= 50 escapes");
    histogram(&small);

    println!("\n(b) allocations with > 50 escapes (outliers)");
    if big.is_empty() {
        println!("(none)");
    } else {
        histogram(&big);
    }
    println!(
        "\n{:.1}% of all {} allocations have <= 10 escapes (paper: ~90%)",
        le10 as f64 * 100.0 / total_allocs.max(1) as f64,
        total_allocs
    );
}
