//! Ablation for the paper's §6 "Allocation Granularity" future work: page
//! granularity moves (with expand negotiation) vs allocation-granularity
//! moves. The paper predicts ~95% average reduction from dropping the page
//! abstraction; this measures our engine's equivalent.

use carat_kernel::PhysicalMemory;
use carat_runtime::{
    perform_move_alloc_granular, perform_shared_move_journaled, AllocKind, AllocationTable,
    CostModel, MemAccess, MoveRequest,
};
use criterion::{criterion_group, criterion_main, Criterion};

/// Build a page full of small allocations with escapes.
fn setup() -> (AllocationTable, PhysicalMemory) {
    let mut t = AllocationTable::new();
    let mut m = PhysicalMemory::new(64 * 1024 * 1024);
    for i in 0..120u64 {
        let a = 0x100000 + i * 32;
        t.track_alloc(a, 24, AllocKind::Heap);
        // one escape per allocation, stored in a side table
        let cell = 0x900000 + i * 8;
        m.write_u64(cell, a);
        t.track_escape(cell);
    }
    let snapshot: Vec<(u64, u64)> = (0..120u64)
        .map(|i| (0x900000 + i * 8, 0x100000 + i * 32))
        .collect();
    t.flush_escapes(|c| {
        snapshot
            .iter()
            .find(|(cell, _)| *cell == c)
            .map(|(_, v)| *v)
            .unwrap_or(0)
    });
    (t, m)
}

fn bench(c: &mut Criterion) {
    let cost = CostModel::default();
    let mut g = c.benchmark_group("granularity");
    g.bench_function("page_move_whole_page", |b| {
        b.iter_batched(
            setup,
            |(mut t, mut m)| {
                let mut regs = [0u64; 16];
                // One table, one request, no interrupt hook.
                perform_shared_move_journaled(
                    &mut [&mut t],
                    &mut m,
                    &mut regs,
                    MoveRequest {
                        src: 0x100000,
                        len: 0x1000,
                        dst: 0x800000,
                    },
                    &cost,
                    None,
                )
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.bench_function("alloc_move_single_allocation", |b| {
        b.iter_batched(
            setup,
            |(mut t, mut m)| {
                let mut regs = [0u64; 16];
                perform_move_alloc_granular(&mut t, &mut m, &mut regs, 0x100000, 0x800000, &cost)
            },
            criterion::BatchSize::SmallInput,
        )
    });
    g.finish();
}

criterion_group!(benches, bench);
criterion_main!(benches);
