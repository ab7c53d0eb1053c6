//! Pin/DMA battery: the kernel-level half of the device subsystem's
//! correctness story.
//!
//! A pinned range is a promise to the DMA engine that its physical
//! address is stable. Every mover — `move_pages`, the batched planner,
//! `page_out` — must refuse a pinned range with a typed
//! [`MoveError::Pinned`] *before* mutating anything, and the DMA engine
//! must refuse unpinned targets with a typed [`DmaError`]. The property
//! test interleaves pin/unpin with single moves, batched moves, and
//! page-outs and asserts the core invariant after every step: the bytes
//! of every currently-pinned buffer are bit-identical to their pin-time
//! snapshot (nothing relocated them, nothing poisoned them, nothing
//! patched through them).

use carat_ir::{GlobalInit, Module, ModuleBuilder, Type};
use carat_kernel::{
    checksum, DmaDir, DmaError, KernelError, LoadConfig, PinError, ProcessImage, SimKernel,
    POISON_BASE, POISON_SLOT_SPAN,
};
use carat_runtime::{AllocKind, AllocationTable, MoveError};
use proptest::prelude::*;

fn module_with_global() -> Module {
    let mut mb = ModuleBuilder::new("pin_prog");
    mb.global(
        "buf",
        Type::Array(Box::new(Type::I64), 16),
        GlobalInit::Zero,
    );
    let f = mb.declare("main", vec![], Some(Type::I64));
    {
        let mut b = mb.define(f);
        let e = b.block("entry");
        b.switch_to(e);
        let c = b.const_i64(0);
        b.ret(Some(c));
    }
    mb.finish()
}

fn boot() -> (SimKernel, AllocationTable, ProcessImage) {
    let mut k = SimKernel::new(256 * 1024 * 1024);
    let mut table = AllocationTable::new();
    let img = k
        .load_unsigned(module_with_global(), &mut table, LoadConfig::default())
        .expect("loads");
    (k, table, img)
}

/// First page-aligned address inside the image's heap arena.
fn heap_page(k: &SimKernel, img: &ProcessImage) -> u64 {
    let page = k.cost.page_size;
    img.heap.0.div_ceil(page) * page
}

#[test]
fn pin_unpin_roundtrip_and_accounting() {
    let (mut k, _table, img) = boot();
    let page = k.cost.page_size;
    let base = heap_page(&k, &img);

    assert!(k.pin_region(base, page).is_ok());
    assert_eq!(k.pinned_bytes(), page);
    assert_eq!(k.pins().len(), 1);
    assert!(k.pinned_overlap(base + 8, 8).is_some());
    assert!(k.pinned_overlap(base + page, 8).is_none(), "end exclusive");

    // Malformed and conflicting pins are typed refusals.
    assert!(matches!(
        k.pin_region(base + page / 2, page),
        Err(PinError::AlreadyPinned { .. })
    ));
    assert!(matches!(k.pin_region(base, 0), Err(PinError::ZeroLen)));
    assert!(matches!(
        k.pin_region(POISON_BASE + 64, 8),
        Err(PinError::Swapped { .. })
    ));

    // Unpin must match the pinned range exactly.
    assert!(matches!(
        k.unpin_region(base, page - 8),
        Err(PinError::NotPinned { .. })
    ));
    assert!(k.unpin_region(base, page).is_ok());
    assert_eq!(k.pinned_bytes(), 0);

    let s = k.pin_stats();
    assert_eq!((s.pins, s.unpins), (1, 1));
    assert!(s.peak_pinned_bytes >= page);
}

#[test]
fn movers_refuse_pinned_ranges_typed_and_side_effect_free() {
    let (mut k, mut table, img) = boot();
    let page = k.cost.page_size;
    let g = img.globals[0];
    let gpage = g / page * page;

    // An escape cell pointing into the pinned page: a mover that went
    // ahead anyway would patch it — it must stay bit-identical.
    let cell = img.heap.0 + 64;
    k.mem.write_uint(cell, g + 8, 8);
    table.track_escape(cell);
    table.flush_escapes(|_| g + 8);

    k.pin_region(gpage, page).unwrap();
    let before: Vec<u8> = k.mem.read_bytes(gpage, page).to_vec();

    let mut regs = vec![g + 16];
    let err = k
        .move_pages(&mut table, &mut regs, gpage, 1, 1)
        .unwrap_err();
    assert!(matches!(err, KernelError::Move(MoveError::Pinned { .. })));
    assert!(err.is_recoverable(), "pin refusal is retryable");

    let err = k.page_out(&mut table, &mut regs, gpage, 1).unwrap_err();
    assert!(matches!(err, KernelError::Move(MoveError::Pinned { .. })));

    // Nothing mutated: bytes, the escape cell, and the register.
    assert_eq!(k.mem.read_bytes(gpage, page), &before[..]);
    assert_eq!(k.mem.read_uint(cell, 8), g + 8);
    assert_eq!(regs[0], g + 16);
    assert!(k.pin_stats().denied_moves >= 2);
    assert!(k.pin_stats().denied_bytes > 0);

    // The compaction planner never even nominates the pinned page.
    assert!(!k.worst_pages(&table, 8).contains(&gpage));

    // Unpinned, the very same move goes through.
    k.unpin_region(gpage, page).unwrap();
    let moved = k
        .move_pages(&mut table, &mut regs, gpage, 1, 1)
        .expect("moves after unpin");
    assert_ne!(moved.moves[0].moved_dst, moved.moves[0].moved_src);
}

#[test]
fn batched_moves_skip_pinned_batchmates() {
    let (mut k, mut table, img) = boot();
    let page = k.cost.page_size;
    let a = heap_page(&k, &img);
    let b = a + page;
    table.track_alloc(a, page, AllocKind::Heap);
    table.track_alloc(b, page, AllocKind::Heap);
    for w in 0..page / 8 {
        k.mem.write_uint(a + w * 8, 0xA000 + w, 8);
        k.mem.write_uint(b + w * 8, 0xB000 + w, 8);
    }

    k.pin_region(a, page).unwrap();
    let pinned_before: Vec<u8> = k.mem.read_bytes(a, page).to_vec();

    // The pinned request is skipped; its batchmate still moves.
    let mut regs: Vec<u64> = Vec::new();
    let outs = k
        .move_pages_batch(&mut table, &mut regs, &[(a, 1), (b, 1)], 1)
        .expect("batchmate survives")
        .moves;
    assert_eq!(outs.len(), 1);
    assert_eq!(outs[0].moved_src, b);
    assert_eq!(k.mem.read_bytes(a, page), &pinned_before[..]);
    assert_eq!(k.mem.read_uint(outs[0].moved_dst, 8), 0xB000);

    // When *nothing* in the batch survives, the pin error surfaces.
    let err = k
        .move_pages_batch(&mut table, &mut regs, &[(a, 1)], 1)
        .unwrap_err();
    assert!(matches!(err, KernelError::Move(MoveError::Pinned { .. })));
}

/// A pin names its owner by slab index. The owner's pins are reaped when
/// it is killed, so an unpin that arrives after the slot was recycled is a
/// typed `NotPinned` and lands in nobody's accounting — least of all the
/// successor's, which `pid_at` would resolve that index to.
#[test]
fn unpin_after_owner_death_does_not_credit_the_slot_successor() {
    let mut k = SimKernel::new(256 * 1024 * 1024);
    let page = k.cost.page_size;
    let admit = |k: &mut SimKernel, name: &str| {
        let mut table = AllocationTable::new();
        let img = k
            .load_unsigned(module_with_global(), &mut table, LoadConfig::default())
            .expect("loads");
        (k.register_proc(name, &img).expect("admitted"), img)
    };
    let (a, img_a) = admit(&mut k, "a");
    let buf = heap_page(&k, &img_a);
    k.pin_region_for(a, buf, page).expect("pins");
    assert_eq!(k.procs.get(a).unwrap().accounting.pinned_bytes, page);
    assert!(k.proc_kill(a));
    assert_eq!(k.pin_stats().reaped, 1);

    let (b, img_b) = admit(&mut k, "b");
    assert_eq!(b.index(), a.index(), "the slot was recycled");
    assert_eq!(k.procs.pid_at(a.index()), Some(b));
    assert!(matches!(
        k.unpin_region(buf, page),
        Err(PinError::NotPinned { .. })
    ));
    let acc = k.procs.get(b).unwrap().accounting;
    assert_eq!((acc.pins, acc.unpins, acc.pinned_bytes), (0, 0, 0));

    // The successor's own pin is credited to it, once each way.
    let buf_b = heap_page(&k, &img_b);
    k.pin_region_for(b, buf_b, page).expect("pins");
    k.unpin_region(buf_b, page).expect("unpins");
    let acc = k.procs.get(b).unwrap().accounting;
    assert_eq!((acc.pins, acc.unpins, acc.pinned_bytes), (1, 1, 0));
    assert_eq!(k.procs.pid_at(b.index() + 1), None);
}

#[test]
fn dma_requires_pin_and_transfers_deterministically() {
    let (mut k, _table, img) = boot();
    let page = k.cost.page_size;
    let buf = heap_page(&k, &img);

    // Unpinned target: typed refusal, no bytes transferred.
    k.dev.dma.submit(buf, 256, DmaDir::DeviceToMem);
    let done = k.dma_service(8);
    assert_eq!(done.len(), 1);
    assert!(matches!(done[0].err, Some(DmaError::NotPinned { .. })));

    // Zero-length requests are malformed.
    k.dev.dma.submit(buf, 0, DmaDir::DeviceToMem);
    let done = k.dma_service(8);
    assert!(matches!(done[0].err, Some(DmaError::ZeroLen)));

    // Pinned: the device writes a deterministic payload and reports its
    // checksum; reading the same range back out reproduces it exactly.
    k.pin_region(buf, page).unwrap();
    let rx = k.dev.dma.submit(buf, 256, DmaDir::DeviceToMem);
    let done = k.dma_service(8);
    assert!(
        done[0].ok(),
        "pinned inbound DMA completes: {:?}",
        done[0].err
    );
    assert_eq!(done[0].id, rx);
    assert!(done[0].cycles > 0);
    let payload = k.mem.read_bytes(buf, 256);
    assert!(payload.iter().any(|&b| b != 0), "the payload landed");
    let in_mem = checksum(payload);
    assert_eq!(done[0].checksum, in_mem, "device and memory agree");

    k.dev.dma.submit(buf, 256, DmaDir::MemToDevice);
    let done = k.dma_service(8);
    assert!(done[0].ok());
    assert_eq!(done[0].checksum, in_mem, "outbound leg reads what came in");

    let s = k.dev.dma.stats();
    assert_eq!(s.submitted, 4);
    assert_eq!(s.completed, 2);
    assert_eq!(s.failed, 2);
    assert_eq!(s.bytes_in, 256);
    assert_eq!(s.bytes_out, 256);
    assert!(s.device_cycles > 0);
}

/// One logical DMA buffer under the property test: its current physical
/// address, whether it is pinned (and its pin-time snapshot), and
/// whether a page-out retired it to poison space.
struct Buf {
    addr: u64,
    pinned: bool,
    snap: Vec<u8>,
    swapped: bool,
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Any interleaving of pin/unpin with single moves, batched moves,
    /// and page-outs: a pinned buffer's bytes never change, movers
    /// refuse it typed, and pin accounting balances at the end.
    #[test]
    fn random_interleavings_never_disturb_a_pinned_buffer(
        ops in proptest::collection::vec((0u8..5u8, 0usize..4usize), 1..60)
    ) {
        let (mut k, mut table, img) = boot();
        let page = k.cost.page_size;
        let h0 = heap_page(&k, &img);
        let mut bufs: Vec<Buf> = (0..4u64)
            .map(|i| {
                let addr = h0 + i * page;
                table.track_alloc(addr, page, AllocKind::Heap);
                Buf { addr, pinned: false, snap: Vec::new(), swapped: false }
            })
            .collect();
        for (i, b) in bufs.iter().enumerate() {
            for w in 0..page / 8 {
                k.mem.write_uint(b.addr + w * 8, ((i as u64) << 32) | w, 8);
            }
        }
        let mut regs: Vec<u64> = Vec::new();

        for (op, i) in ops {
            match op {
                // Pin: refused for swapped buffers, snapshot on success.
                0 => {
                    if bufs[i].swapped {
                        prop_assert!(matches!(
                            k.pin_region(bufs[i].addr, page),
                            Err(PinError::Swapped { .. })
                        ));
                    } else if !bufs[i].pinned && k.pin_region(bufs[i].addr, page).is_ok() {
                        bufs[i].pinned = true;
                        bufs[i].snap = k.mem.read_bytes(bufs[i].addr, page).to_vec();
                    }
                }
                // Unpin: always succeeds for a live pin.
                1 => {
                    if bufs[i].pinned {
                        prop_assert!(k.unpin_region(bufs[i].addr, page).is_ok());
                        bufs[i].pinned = false;
                    }
                }
                // Single move: typed refusal when pinned, tracked when not.
                2 => {
                    if bufs[i].swapped {
                        // Retired to poison space; movers skip it via the
                        // planner, don't drive them at it directly.
                    } else {
                        let r = k.move_pages(&mut table, &mut regs, bufs[i].addr, 1, 1);
                        if bufs[i].pinned {
                            prop_assert!(matches!(
                                r,
                                Err(KernelError::Move(MoveError::Pinned { .. }))
                            ));
                        } else if let Ok(moved) = r {
                            bufs[i].addr = moved.moves[0].moved_dst;
                        }
                    }
                }
                // Batched move of every live buffer: pinned requests are
                // skipped, surviving outcomes retarget their buffers.
                3 => {
                    let reqs: Vec<(u64, u64)> = bufs
                        .iter()
                        .filter(|b| !b.swapped)
                        .map(|b| (b.addr, 1))
                        .collect();
                    if !reqs.is_empty() {
                        if let Ok(moved) = k.move_pages_batch(&mut table, &mut regs, &reqs, 1) {
                            for out in moved.moves {
                                if let Some(b) =
                                    bufs.iter_mut().find(|b| b.addr == out.moved_src)
                                {
                                    prop_assert!(!b.pinned, "a pinned buffer moved");
                                    b.addr = out.moved_dst;
                                }
                            }
                        }
                    }
                }
                // Page-out (the compaction rung's swap leg).
                _ => {
                    if !bufs[i].swapped {
                        let r = k.page_out(&mut table, &mut regs, bufs[i].addr, 1);
                        if bufs[i].pinned {
                            prop_assert!(matches!(
                                r,
                                Err(KernelError::Move(MoveError::Pinned { .. }))
                            ));
                        } else if let Ok(Some((_w, slot, _src, _len))) = r {
                            bufs[i].addr = POISON_BASE + slot * POISON_SLOT_SPAN;
                            bufs[i].swapped = true;
                        }
                    }
                }
            }
            // THE invariant: every pinned buffer is bit-identical to its
            // pin-time snapshot, at its pin-time address.
            for b in bufs.iter().filter(|b| b.pinned) {
                prop_assert_eq!(k.mem.read_bytes(b.addr, page), &b.snap[..]);
            }
            // And the pin list always agrees with the accounting.
            let listed: u64 = k.pins().iter().map(|p| p.len).sum();
            prop_assert_eq!(listed, k.pinned_bytes());
        }

        // Drain every pin: accounting balances, nothing leaks.
        for b in bufs.iter_mut().filter(|b| b.pinned) {
            prop_assert!(k.unpin_region(b.addr, page).is_ok());
            b.pinned = false;
        }
        prop_assert_eq!(k.pinned_bytes(), 0);
        let s = k.pin_stats();
        prop_assert_eq!(s.pins, s.unpins + s.reaped);
    }
}
