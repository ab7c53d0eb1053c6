//! Table 2 — page (4KB) allocation and movement rates under the
//! traditional model: static footprint, initial pages, demand allocations,
//! moves, simulated execution time, and the derived rates.

use carat_bench::{print_table, run_simple, Args, Variant, FREQ_HZ};

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let scale = args.scale;
    println!("Table 2: Page (4KB) Allocation and Movement Rates ({scale:?} scale)\n");
    let mut rows = Vec::new();
    let mut alloc_rates = Vec::new();
    for w in args.workloads {
        let r = run_simple(&w, scale, Variant::Traditional);
        let secs = r.counters.seconds(FREQ_HZ);
        let alloc_rate = r.page_allocs as f64 / secs.max(1e-9);
        let move_rate = r.page_moves as f64 / secs.max(1e-9);
        alloc_rates.push(alloc_rate);
        rows.push(vec![
            w.name.to_string(),
            format!("{}", r.static_footprint.div_ceil(4096)),
            format!("{}", r.initial_pages),
            format!("{}", r.page_allocs.saturating_sub(r.initial_pages)),
            format!("{}", r.page_moves),
            format!("{:.4}s", secs),
            format!("{:.0}/s", alloc_rate),
            if move_rate < 1.0 {
                "< 1/s".to_string()
            } else {
                format!("{move_rate:.0}/s")
            },
        ]);
    }
    let geo = carat_bench::geomean(&alloc_rates);
    let mut mean_row = vec![String::new(); 8];
    mean_row[0] = "Geo. mean".into();
    mean_row[6] = format!("{geo:.0}/s");
    mean_row[7] = "< 1/s".into();
    rows.push(mean_row);
    print_table(
        &[
            "benchmark",
            "Static FP pgs",
            "Initial",
            "Page Allocs",
            "Moves",
            "Exec Time",
            "Alloc Rate",
            "Move Rate",
        ],
        &rows,
    );
}
