//! Figure 7 — time overhead of tracking allocations & escapes, normalized
//! to the uninstrumented baseline.

use carat_bench::{geomean, print_table, run_simple, Args, Variant};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Figure 7: time overhead of tracking ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    for w in args.workloads {
        let base = run_simple(&w, scale, Variant::Baseline);
        let trk = run_simple(&w, scale, Variant::Tracking);
        let norm = trk.counters.normalized_to(&base.counters);
        overheads.push(norm);
        rows.push(vec![
            w.name.to_string(),
            "1.000".into(),
            format!("{norm:.3}"),
            format!("{}", trk.track_stats.allocs),
            format!("{}", trk.track_stats.escape_events),
        ]);
    }
    rows.push(vec![
        "Geo. Mean".into(),
        "1.000".into(),
        format!("{:.3}", geomean(&overheads)),
        String::new(),
        String::new(),
    ]);
    print_table(
        &[
            "benchmark",
            "Baseline",
            "CARAT",
            "allocs tracked",
            "escape events",
        ],
        &rows,
    );
}
