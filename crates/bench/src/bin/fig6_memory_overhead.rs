//! Figure 6 — memory overhead of allocation/escape tracking: peak program
//! footprint with tracking state, normalized to the baseline footprint.

use carat_bench::{geomean, print_table, run_simple, Args, Variant};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Figure 6: memory overhead of tracking ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let mut overheads = Vec::new();
    for w in args.workloads {
        let base = run_simple(&w, scale, Variant::Baseline);
        let trk = run_simple(&w, scale, Variant::Tracking);
        // Program footprint: static + peak heap (+ stack, identical in both).
        let program = (base.static_footprint + base.peak_heap_bytes).max(4096);
        let with_tracking = program + trk.tracking_bytes as u64;
        let norm = with_tracking as f64 / program as f64;
        overheads.push(norm);
        rows.push(vec![
            w.name.to_string(),
            format!("{:.1} KiB", program as f64 / 1024.0),
            format!("{:.1} KiB", trk.tracking_bytes as f64 / 1024.0),
            format!("{norm:.3}"),
        ]);
    }
    let geo = format!("{:.3}", geomean(&overheads));
    rows.push(vec!["Geo. Mean".into(), String::new(), String::new(), geo]);
    print_table(
        &[
            "benchmark",
            "program footprint",
            "tracking state",
            "normalized",
        ],
        &rows,
    );
}
