#!/bin/sh
# Print every modeled paper table at Small scale into DIR (default:
# goldens/), one file per bin and mode. Every number these bins print is
# simulated, so the output is byte-stable per commit; CI regenerates it
# and diffs it against the committed files.
#
#   goldens/generate.sh            # refresh the committed goldens
#   goldens/generate.sh /tmp/g     # regenerate elsewhere, then diff -r
set -eu
out=${1:-goldens}
mkdir -p "$out"
cargo build --release --quiet -p carat-bench
run() {
    name=$1
    shift
    cargo run --release --quiet -p carat-bench --bin "$@" > "$out/$name.txt"
}
for bin in fig2_dtlb_misses fig5_escape_histogram fig6_memory_overhead \
    fig7_tracking_overhead fig9_move_overhead table1_guard_opts \
    table2_paging_rates table3_move_breakdown ablation_opts; do
    run "$bin" "$bin" -- --scale small
done
for mode in general carat; do
    run "fig3_guard_overhead_$mode" fig3_guard_overhead -- --scale small "$mode"
done
# Takes no flags: its region counts do not scale.
run region_fragmentation region_fragmentation
