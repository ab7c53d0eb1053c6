//! Run every table/figure binary's logic (convenience driver for
//! regenerating EXPERIMENTS.md numbers). Each experiment is also
//! available as its own binary; see DESIGN.md.
//!
//! `--jobs N` runs up to N experiments concurrently (output is captured
//! and printed in the original order); `--scale` and `--only` are handed
//! to each experiment that accepts them.

use carat_bench::Args;
use std::process::Command;
use std::sync::Mutex;

fn main() {
    // Each experiment: its binary and any leading mode word. Figure 3's
    // two sub-figures are two jobs.
    let queue: &[(&str, &[&str])] = &[
        ("fig2_dtlb_misses", &[]),
        ("table1_guard_opts", &[]),
        ("fig3_guard_overhead", &["general"]),
        ("fig3_guard_overhead", &["carat"]),
        ("fig4_region_guards", &[]),
        ("table2_paging_rates", &[]),
        ("fig5_escape_histogram", &[]),
        ("fig6_memory_overhead", &[]),
        ("fig7_tracking_overhead", &[]),
        ("fig9_move_overhead", &[]),
        ("table3_move_breakdown", &[]),
        ("region_fragmentation", &[]),
        ("multiproc_isolation", &[]),
        ("fleet_scaling", &[]),
        ("chaos_soak", &[]),
    ];
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let jobs = args.jobs;
    let me = std::env::current_exe().expect("own path");
    let dir = me.parent().expect("bin dir").to_path_buf();

    // Work-stealing pool over scoped threads: each worker claims the next
    // unclaimed job; outputs are stored by index and printed in order.
    type JobOutput = (bool, Vec<u8>, Vec<u8>);
    let next = Mutex::new(0usize);
    let results: Vec<Mutex<Option<JobOutput>>> = queue.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..jobs.min(queue.len()) {
            s.spawn(|| loop {
                let i = {
                    let mut n = next.lock().expect("queue lock");
                    if *n >= queue.len() {
                        return;
                    }
                    *n += 1;
                    *n - 1
                };
                let (exe, prefix) = queue[i];
                let mut cmd_args: Vec<String> = prefix.iter().map(|s| s.to_string()).collect();
                cmd_args.extend(args.forward_to(exe));
                let out = Command::new(dir.join(exe))
                    .args(&cmd_args)
                    .output()
                    .expect("spawn");
                *results[i].lock().expect("result lock") =
                    Some((out.status.success(), out.stdout, out.stderr));
            });
        }
    });

    let mut failed = Vec::new();
    for (&(exe, prefix), slot) in queue.iter().zip(&results) {
        let title = [&[exe], prefix].concat().join(" ");
        println!("\n=== {title} ===\n");
        let (ok, stdout, stderr) = slot
            .lock()
            .expect("result lock")
            .take()
            .expect("every job ran");
        print!("{}", String::from_utf8_lossy(&stdout));
        eprint!("{}", String::from_utf8_lossy(&stderr));
        if !ok {
            failed.push(title);
        }
    }
    assert!(failed.is_empty(), "experiments failed: {failed:?}");
    println!("\nAll experiments completed.");
}
