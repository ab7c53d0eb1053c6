//! Figure 4 — cost of multi-region software guards (host-measured
//! nanoseconds, since the guard data structures are real code) as a
//! function of region count: if-tree vs binary search, random and strided
//! access patterns.

use carat_bench::{print_table, Args};
use carat_runtime::{Access, Perms, Region, RegionTable};
use std::hint::black_box;
use std::time::Instant;

fn table(n: u64) -> RegionTable {
    let mut t = RegionTable::new();
    t.set_regions(
        (0..n)
            .map(|i| Region {
                start: 0x100000 + i * 0x2000,
                len: 0x1000,
                perms: Perms::RW,
            })
            .collect(),
    );
    t
}

fn measure(t: &RegionTable, addrs: &[u64], iftree: bool) -> f64 {
    const REPS: usize = 200;
    let start = Instant::now();
    let mut acc = 0u64;
    for _ in 0..REPS {
        for &a in addrs {
            let c = if iftree {
                t.check_if_tree(a, 8, Access::Read)
            } else {
                t.check_binary_search(a, 8, Access::Read)
            };
            acc = acc.wrapping_add(c.probes + c.ok as u64);
        }
    }
    black_box(acc);
    start.elapsed().as_nanos() as f64 / (REPS * addrs.len()) as f64
}

fn main() {
    // No flags: anything on the command line is an error.
    Args::parse(env!("CARGO_BIN_NAME"));
    println!("Figure 4: multi-region software guard cost (host ns/check)\n");
    let sizes = [1u64, 4, 16, 64, 256, 1024, 4096, 16384];
    // (a) random accesses.
    let mut rows = Vec::new();
    for &n in &sizes {
        let t = table(n);
        let mut state = 0x12345678u64;
        let addrs: Vec<u64> = (0..4096)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                0x100000 + (state >> 16) % (n * 0x2000)
            })
            .collect();
        rows.push(vec![
            n.to_string(),
            format!("{:.1}", measure(&t, &addrs, true)),
            format!("{:.1}", measure(&t, &addrs, false)),
        ]);
    }
    println!("(a) random accesses");
    print_table(&["regions", "if-tree ns", "binary-search ns"], &rows);

    // (b) strided accesses over the covered span.
    println!("\n(b) strided accesses (if-tree)");
    let mut rows = Vec::new();
    for &n in &sizes {
        let t = table(n);
        let mut cells = vec![n.to_string()];
        for &stride in &[8u64, 64, 512, 4096, 16384] {
            let span = n * 0x2000;
            let addrs: Vec<u64> = (0..4096u64)
                .map(|i| 0x100000 + (i * stride) % span)
                .collect();
            cells.push(format!("{:.1}", measure(&t, &addrs, true)));
        }
        rows.push(cells);
    }
    print_table(
        &[
            "regions",
            "stride 8",
            "stride 64",
            "stride 512",
            "stride 4096",
            "stride 16384",
        ],
        &rows,
    );
}
