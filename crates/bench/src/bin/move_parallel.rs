//! Move transaction benchmark: a *modeled* patch-worker sweep {1,2,4,8}
//! over an escape-heavy move fixture, plus a batched-world-stop sweep
//! comparing one coalesced stop against per-move stops. Everything
//! reported is deterministic modeled cycles; the host patches on one
//! thread (the host-parallel apply measured 0.41× serial and was removed
//! — see DESIGN.md, "Move transaction").
//!
//! Three hard gates (non-zero exit):
//!
//! 1. **Divergence gate** — memory digest, registers, allocation table,
//!    and the `MoveOutcome` apart from its patch term are bit-identical
//!    at every modeled worker count, and the batched stop equals the
//!    sequential stops bit-for-bit.
//! 2. **Modeled speedup gate** — the cost model's parallel patch
//!    accounting (`ceil(serial/workers) + fork/join`) shows ≥2× fewer
//!    patch cycles at 4 workers on this escape-heavy plan.
//! 3. **Amortization gate** — a batched stop pays one signal+barrier
//!    round and one register pass for the whole batch.
//!
//! Usage: `move_parallel [--scale test|small|full] [--out PATH]`.
//! Writes `BENCH_moves.json` by default.

use carat_bench::{print_table, scale_from_args};
use carat_kernel::{PhysicalMemory, SimKernel};
use carat_runtime::{
    perform_shared_move_journaled, AllocKind, AllocationTable, CostModel, MemAccess, MoveOutcome,
    MoveRequest,
};
use carat_workloads::Scale;

const WORKER_COUNTS: [u64; 4] = [1, 2, 4, 8];
const ALLOC_SIZE: u64 = 0x400;
const ALLOC_BASE: u64 = 0x10000;
const ARENA_BASE: u64 = 0x200000;
const MOVE_DST: u64 = 0x400000;
const MEM_SIZE: u64 = 16 << 20;

struct Dims {
    n_allocs: usize,
    cells_per_alloc: usize,
    batch_sizes: &'static [usize],
}

fn dims(scale: Scale) -> Dims {
    match scale {
        Scale::Test => Dims {
            n_allocs: 8,
            cells_per_alloc: 16,
            batch_sizes: &[1, 2],
        },
        Scale::Small => Dims {
            n_allocs: 64,
            cells_per_alloc: 32,
            batch_sizes: &[1, 2, 4],
        },
        Scale::Full => Dims {
            n_allocs: 512,
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

/// Escape-heavy fixture: contiguous allocations from `base`, each with
/// `cells_per_alloc` external pointer cells in a dense arena plus one
/// internal cross-pointer, all registered as escapes.
fn build_fixture(
    mem: &mut PhysicalMemory,
    base: u64,
    arena: u64,
    n_allocs: usize,
    cells_per_alloc: usize,
    seed: u64,
) -> AllocationTable {
    let mut t = AllocationTable::new();
    let mut rng = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut cursor = arena;
    for i in 0..n_allocs {
        let start = base + i as u64 * ALLOC_SIZE;
        t.track_alloc(start, ALLOC_SIZE, AllocKind::Heap);
        for w in 0..(ALLOC_SIZE / 8) {
            mem.write_u64(start + w * 8, (i as u64) << 32 | w);
        }
        for _ in 0..cells_per_alloc {
            let target = start + (xorshift(&mut rng) % (ALLOC_SIZE / 8)) * 8;
            mem.write_u64(cursor, target);
            t.track_escape(cursor);
            cursor += 8;
        }
        let cell = start + ALLOC_SIZE - 8;
        let target = base + ((i + 1) % n_allocs) as u64 * ALLOC_SIZE + 0x10;
        mem.write_u64(cell, target);
        t.track_escape(cell);
    }
    t.flush_escapes(|c| mem.read_u64(c));
    t
}

fn fixture_regs(base: u64, n_allocs: usize) -> Vec<u64> {
    vec![
        base + 0x10,
        0xdead_beef,
        base + (n_allocs as u64 - 1) * ALLOC_SIZE + 8,
        0x50,
    ]
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

struct WorkerRun {
    workers: u64,
    modeled_patch_cycles: u64,
    digest: u64,
    outcome: MoveOutcome,
}

/// One worker-sweep arm: rebuild the fixture and move it once under a
/// cost model with `workers` modeled patch workers.
fn run_workers(d: &Dims, workers: u64) -> WorkerRun {
    let len = (d.n_allocs as u64 * ALLOC_SIZE).div_ceil(0x1000) * 0x1000;
    let cost = CostModel {
        patch_workers: workers,
        ..CostModel::default()
    };
    let mut mem = PhysicalMemory::new(MEM_SIZE);
    let mut table = build_fixture(
        &mut mem,
        ALLOC_BASE,
        ARENA_BASE,
        d.n_allocs,
        d.cells_per_alloc,
        42,
    );
    let mut regs = fixture_regs(ALLOC_BASE, d.n_allocs);
    let outcome = perform_shared_move_journaled(
        &mut [&mut table],
        &mut mem,
        &mut regs,
        MoveRequest {
            src: ALLOC_BASE,
            len,
            dst: MOVE_DST,
        },
        &cost,
        None,
    )
    .expect("no hook, no interrupt");
    WorkerRun {
        workers,
        modeled_patch_cycles: outcome.cost.patch_gen_exec,
        digest: digest(mem.read_bytes(0, MEM_SIZE), &regs, &table),
        outcome,
    }
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
    let args: Vec<String> = std::env::args().collect();
    let out_path = args
        .windows(2)
        .find(|w| w[0] == "--out")
        .map(|w| w[1].clone())
        .unwrap_or_else(|| "BENCH_moves.json".to_string());
    let scale = scale_from_args();
    let d = dims(scale);
    let cells = d.n_allocs * (d.cells_per_alloc + 1);
    println!(
        "Move transaction ({scale:?} scale: {} allocations, {cells} escape cells)\n",
        d.n_allocs
    );

    // --- Modeled worker sweep ---
    let runs: Vec<WorkerRun> = WORKER_COUNTS.iter().map(|&w| run_workers(&d, w)).collect();
    let base = &runs[0];
    let mut diverged = false;
    for r in &runs[1..] {
        if r.digest != base.digest {
            eprintln!(
                "FAIL: machine state diverged at {} workers (digest {:#x} != {:#x})",
                r.workers, r.digest, base.digest
            );
            diverged = true;
        }
        // The patch term follows `patch_workers`; everything else in
        // the outcome must not.
        let (mut a, mut b) = (r.outcome.clone(), base.outcome.clone());
        a.cost.patch_gen_exec = 0;
        b.cost.patch_gen_exec = 0;
        if a != b {
            eprintln!("FAIL: move outcome diverged at {} workers", r.workers);
            diverged = true;
        }
    }
    let mut table = Vec::new();
    for r in &runs {
        table.push(vec![
            format!("{}", r.workers),
            format!("{}", r.modeled_patch_cycles),
            format!(
                "{:.2}x",
                base.modeled_patch_cycles as f64 / r.modeled_patch_cycles.max(1) as f64
            ),
        ]);
    }
    print_table(&["workers", "modeled patch cyc", "modeled speedup"], &table);
    let modeled4 = runs
        .iter()
        .find(|r| r.workers == 4)
        .expect("sweep includes 4")
        .modeled_patch_cycles;
    let modeled_ok = base.modeled_patch_cycles >= 2 * modeled4;
    println!(
        "\nModeled patch cycles, 1w -> 4w: {} -> {} ({:.2}x, target >= 2x): {}",
        base.modeled_patch_cycles,
        modeled4,
        base.modeled_patch_cycles as f64 / modeled4.max(1) as f64,
        if modeled_ok { "PASS" } else { "FAIL" }
    );
    // --- Batch sweep ---
    println!();
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
    json.push_str(&format!(
        "\",\n  \"escape_cells\": {cells},\n  \"worker_sweep\": [\n"
    ));
    for (i, r) in runs.iter().enumerate() {
        json.push_str(&format!(
            "    {{\"workers\": {}, \"modeled_patch_cycles\": {}, \"digest\": \"{:#x}\"}}{}\n",
            r.workers,
            r.modeled_patch_cycles,
            r.digest,
            if i + 1 < runs.len() { "," } else { "" },
        ));
    }
    json.push_str("  ],\n  \"batch_sweep\": [\n");
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
    let modeled_speedup_4w = base.modeled_patch_cycles as f64 / modeled4.max(1) as f64;
    json.push_str(&format!(
        "  ],\n  \"modeled_speedup_4w\": {modeled_speedup_4w:.3},\n  \
         \"workers_identical\": {},\n  \"batch_identical\": {},\n  \
         \"amortized\": {amortized}\n}}\n",
        !diverged, !batch_diverged,
    ));
    std::fs::write(&out_path, json).expect("write json");
    println!("wrote {out_path}");

    if diverged || batch_diverged || !modeled_ok || !amortized {
        std::process::exit(1);
    }
}
