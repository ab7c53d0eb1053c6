//! Move transaction benchmark: a batched-world-stop sweep comparing one
//! coalesced stop against per-move stops over escape-heavy pages.
//! Everything reported is deterministic modeled cycles, and every arm is
//! executed: the moves run through `SimKernel::move_pages` and
//! `move_pages_batch` on identically built kernels.
//!
//! Two hard gates (non-zero exit):
//!
//! 1. **Divergence gate** — memory digest, registers and allocation
//!    table after the batched stop equal the sequential stops'
//!    bit-for-bit.
//! 2. **Amortization gate** — a batched stop pays one signal+barrier
//!    round and one register pass for the whole batch.
//!
//! Usage: `move_parallel [--scale test|small|full] [--out PATH]`.
//! Writes `BENCH_moves.json` by default.

use carat_bench::{print_table, Args};
use carat_kernel::SimKernel;
use carat_runtime::{AllocKind, AllocationTable, MemAccess};
use carat_workloads::Scale;

const ALLOC_SIZE: u64 = 0x400;
const MEM_SIZE: u64 = 16 << 20;

struct Dims {
    cells_per_alloc: usize,
    batch_sizes: &'static [usize],
}

fn dims(scale: Scale) -> Dims {
    match scale {
        Scale::Test => Dims {
            cells_per_alloc: 16,
            batch_sizes: &[1, 2],
        },
        Scale::Small => Dims {
            cells_per_alloc: 32,
            batch_sizes: &[1, 2, 4],
        },
        Scale::Full => Dims {
            cells_per_alloc: 256,
            batch_sizes: &[1, 2, 4, 8],
        },
    }
}

/// xorshift64: deterministic pointer-target jitter.
fn xorshift(state: &mut u64) -> u64 {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    *state
}

/// FNV-1a digest over memory, registers, and the table snapshot — the
/// machine state a guest could observe.
fn digest(mem_bytes: &[u8], regs: &[u64], table: &AllocationTable) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64;
    let mut eat = |b: u8| {
        h ^= b as u64;
        h = h.wrapping_mul(0x100_0000_01b3);
    };
    for &b in mem_bytes {
        eat(b);
    }
    for r in regs {
        for b in r.to_le_bytes() {
            eat(b);
        }
    }
    for (start, len, escapes, ever) in table.snapshot() {
        for v in [start, len, escapes as u64, ever] {
            for b in v.to_le_bytes() {
                eat(b);
            }
        }
    }
    h
}

struct BatchRun {
    batch: usize,
    stop_cycles_sequential: u64,
    stop_cycles_batched: u64,
    register_patch_sequential: u64,
    register_patch_batched: u64,
    digests_equal: bool,
}

/// Kernel fixture for the batch sweep: `k` single-page groups of
/// allocations, each its own pending move. Frames come from the buddy so
/// destinations never collide with fixture data.
fn kernel_fixture(d: &Dims, k: usize) -> (SimKernel, AllocationTable, Vec<u64>, Vec<u64>) {
    let mut kernel = SimKernel::new(MEM_SIZE);
    let page = kernel.cost.page_size;
    let mut pages = Vec::with_capacity(k);
    for _ in 0..k {
        pages.push(kernel.buddy.alloc_pages(1).expect("fixture frame"));
    }
    let arena_pages = (k * 4 * (d.cells_per_alloc + 1)) as u64 * 8 / page + 1;
    let arena = kernel.buddy.alloc_pages(arena_pages).expect("arena frames");
    let mut table = AllocationTable::new();
    let mut rng = 7u64;
    let mut cursor = arena;
    let mut regs = Vec::new();
    for &p in &pages {
        // Four quarter-page allocations fill each group page exactly.
        for a in 0..4u64 {
            let start = p + a * ALLOC_SIZE;
            table.track_alloc(start, ALLOC_SIZE, AllocKind::Heap);
            for w in 0..(ALLOC_SIZE / 8) {
                kernel.mem.write_u64(start + w * 8, p ^ (a << 32 | w));
            }
            for _ in 0..d.cells_per_alloc {
                let target = start + (xorshift(&mut rng) % (ALLOC_SIZE / 8)) * 8;
                kernel.mem.write_u64(cursor, target);
                table.track_escape(cursor);
                cursor += 8;
            }
        }
        regs.push(p + 0x18);
    }
    regs.push(0xdead_beef);
    let m = &kernel.mem;
    table.flush_escapes(|c| m.read_u64(c));
    (kernel, table, regs, pages)
}

/// One batch-sweep arm: the same `k` page moves issued as one coalesced
/// world-stop and as `k` per-move stops, on identically built kernels.
fn run_batch(d: &Dims, k: usize) -> BatchRun {
    let threads = 4;

    let (mut kern_s, mut table_s, mut regs_s, pages) = kernel_fixture(d, k);
    let (mut stop_seq, mut reg_seq) = (0u64, 0u64);
    for &p in &pages {
        let (world, outcome) = kern_s
            .move_pages(&mut table_s, &mut regs_s, p, 1, threads)
            .expect("sequential move");
        stop_seq += world.cycles;
        reg_seq += outcome.cost.register_patch;
    }
    let dg_seq = digest(kern_s.mem.read_bytes(0, MEM_SIZE), &regs_s, &table_s);

    let (mut kern_b, mut table_b, mut regs_b, pages_b) = kernel_fixture(d, k);
    let reqs: Vec<(u64, u64)> = pages_b.iter().map(|&p| (p, 1)).collect();
    let (world, outcomes) = kern_b
        .move_pages_batch(&mut table_b, &mut regs_b, &reqs, threads)
        .expect("batched move");
    let stop_bat = world.cycles;
    let reg_bat: u64 = outcomes.iter().map(|o| o.cost.register_patch).sum();
    let dg_bat = digest(kern_b.mem.read_bytes(0, MEM_SIZE), &regs_b, &table_b);

    BatchRun {
        batch: k,
        stop_cycles_sequential: stop_seq,
        stop_cycles_batched: stop_bat,
        register_patch_sequential: reg_seq,
        register_patch_batched: reg_bat,
        digests_equal: dg_seq == dg_bat,
    }
}

fn main() {
    let args = Args::parse(env!("CARGO_BIN_NAME"));
    let (scale, out_path) = (args.scale, args.out);
    let d = dims(scale);
    println!(
        "Move transaction ({scale:?} scale: batches of {:?} page moves, {} escape cells per page)\n",
        d.batch_sizes,
        4 * d.cells_per_alloc
    );

    let batches: Vec<BatchRun> = d.batch_sizes.iter().map(|&k| run_batch(&d, k)).collect();
    let mut batch_diverged = false;
    let mut amortized = true;
    let mut btable = Vec::new();
    for b in &batches {
        if !b.digests_equal {
            eprintln!(
                "FAIL: batched stop diverged from sequential at batch={}",
                b.batch
            );
            batch_diverged = true;
        }
        if b.batch >= 2
            && (b.stop_cycles_batched >= b.stop_cycles_sequential
                || b.register_patch_batched >= b.register_patch_sequential)
        {
            amortized = false;
        }
        btable.push(vec![
            format!("{}", b.batch),
            format!("{}", b.stop_cycles_sequential),
            format!("{}", b.stop_cycles_batched),
            format!("{}", b.register_patch_sequential),
            format!("{}", b.register_patch_batched),
            (if b.digests_equal { "yes" } else { "NO" }).to_string(),
        ]);
    }
    print_table(
        &[
            "batch",
            "stop cyc (seq)",
            "stop cyc (batched)",
            "reg patch (seq)",
            "reg patch (batched)",
            "bit-identical",
        ],
        &btable,
    );
    println!(
        "Batched world-stops amortize signal+barrier and register pass: {}",
        if amortized { "PASS" } else { "FAIL" }
    );

    // --- JSON ---
    let mut json = String::from("{\n  \"scale\": \"");
    json.push_str(&format!("{scale:?}"));
    json.push_str("\",\n  \"batch_sweep\": [\n");
    for (i, b) in batches.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"batch\": {}, \"stop_cycles_sequential\": {}, \"stop_cycles_batched\": {}, \
             \"register_patch_sequential\": {}, \"register_patch_batched\": {}, \
             \"bit_identical\": {}}}{}\n",
            b.batch,
            b.stop_cycles_sequential,
            b.stop_cycles_batched,
            b.register_patch_sequential,
            b.register_patch_batched,
            b.digests_equal,
            if i + 1 < batches.len() { "," } else { "" },
        ));
    }
    json.push_str(&format!(
        "  ],\n  \"batch_identical\": {},\n  \"amortized\": {amortized}\n}}\n",
        !batch_diverged,
    ));
    std::fs::write(&out_path, json).expect("write json");
    println!("wrote {out_path}");

    if batch_diverged || !amortized {
        std::process::exit(1);
    }
}
