//! Capsule externalization: serializing a descheduled [`TenantState`]
//! into a flat byte image and rebuilding it later.
//!
//! This is the fleet's cold-tenant path (ROADMAP: capsule
//! externalization toward very large fleets): a tenant that has not run
//! for a while is flattened into bytes and parked in the simulated swap
//! device through [`SimKernel::capsule_write_from`](carat_kernel::SimKernel),
//! which checksums the image. Rehydration verifies the checksum, so a
//! corrupted capsule surfaces as a typed, recoverable error — one lost
//! tenant, never a poisoned fleet.
//!
//! ## What is (and is not) in the image
//!
//! The image holds every *mutable* field of the tenant: registers,
//! frames, threads, heap and TLB bookkeeping, counters, buffered output,
//! driver cursors, RNG. Three things are deliberately excluded and must
//! be re-supplied at [`TenantState::rehydrate`] time from the host-side
//! spawn record:
//!
//! - the [`VmConfig`] (host policy, including the shared fault plan);
//! - the [`Module`] handle (shared, immutable IR);
//! - the [`DecodedProgram`] handle (shared decode cache).
//!
//! Per-frame pinned code streams are rebuilt from the program by
//! `(func, block)`, exactly as the interpreter pins them, so execution
//! resumes bit-identically. A block has one stream, so the image's
//! cursors only mean something against a program decoded for the engine
//! the tenant runs: [`TenantState::rehydrate`] refuses any other.
//!
//! ## Determinism
//!
//! Serializing the same tenant twice yields identical bytes: the one
//! hash-ordered structure (the heap's live-block map) is sorted on the
//! way out. `Vec`/`String` capacities are recorded and restored so
//! [`TenantState::footprint_bytes`] reports the same number before and
//! after a round trip.

use crate::decode::DecodedProgram;
use crate::heap::HeapAllocator;
use crate::machine::{
    Frame, GuardFastPath, ParkedThread, TenantState, ThreadState, Value, VmConfig,
};
use crate::tlb::{Tlb, TranslationUnit};
use carat_ir::{BlockId, FuncId, Module, ValueId};
use carat_kernel::ProcessImage;
use carat_runtime::Perms;
use std::rc::Rc;

/// Image magic + format version. Bump on any layout change: a stale
/// capsule then fails cleanly at the header instead of misparsing.
const CAPSULE_MAGIC: u64 = 0x4341_5250_0000_0002; // "CARP" v2

/// Little-endian byte sink.
struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }
    fn bool(&mut self, v: bool) {
        self.buf.push(v as u8);
    }
    fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }
    fn usize(&mut self, v: usize) {
        self.u64(v as u64);
    }
    fn pair(&mut self, (a, b): (u64, u64)) {
        self.u64(a);
        self.u64(b);
    }
    fn value(&mut self, v: Value) {
        match v {
            Value::I(x) => {
                self.u8(0);
                self.u64(x as u64);
            }
            Value::F(x) => {
                self.u8(1);
                self.u64(x.to_bits());
            }
            Value::P(p) => {
                self.u8(2);
                self.u64(p);
            }
            Value::Undef => self.u8(3),
        }
    }
    /// A register vector: contents plus capacity (footprint fidelity).
    fn regs(&mut self, regs: &[Value], capacity: usize) {
        self.usize(regs.len());
        self.usize(capacity);
        for &v in regs {
            self.value(v);
        }
    }
    fn frame(&mut self, f: &Frame) {
        self.u32(f.func.0);
        self.regs(&f.regs, f.regs.capacity());
        self.u32(f.block.0);
        self.usize(f.idx);
        self.bool(f.prev_block.is_some());
        self.u32(f.prev_block.map_or(0, |b| b.0));
        self.u64(f.sp_base);
        self.bool(f.ret_to.is_some());
        self.u32(f.ret_to.map_or(0, |v| v.0));
        // `f.code` is rebuilt from the program at rehydrate.
    }
    fn frames(&mut self, frames: &[Frame]) {
        self.usize(frames.len());
        for f in frames {
            self.frame(f);
        }
    }
}

/// Little-endian cursor; every read is bounds-checked so a truncated or
/// damaged image decodes to `None`, never a panic.
struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }
    fn u8(&mut self) -> Option<u8> {
        Some(self.take(1)?[0])
    }
    fn bool(&mut self) -> Option<bool> {
        match self.u8()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
    fn u32(&mut self) -> Option<u32> {
        Some(u32::from_le_bytes(self.take(4)?.try_into().ok()?))
    }
    fn u64(&mut self) -> Option<u64> {
        Some(u64::from_le_bytes(self.take(8)?.try_into().ok()?))
    }
    fn usize(&mut self) -> Option<usize> {
        usize::try_from(self.u64()?).ok()
    }
    /// A length prefix for a sequence of elements each at least
    /// `elem_bytes` wide, rejected when the remaining buffer could not
    /// possibly hold it (so a corrupt length cannot trigger a huge
    /// allocation).
    fn len(&mut self, elem_bytes: usize) -> Option<usize> {
        let n = self.usize()?;
        if n.checked_mul(elem_bytes.max(1))? > self.buf.len() - self.pos {
            return None;
        }
        Some(n)
    }
    fn pair(&mut self) -> Option<(u64, u64)> {
        Some((self.u64()?, self.u64()?))
    }
    fn value(&mut self) -> Option<Value> {
        Some(match self.u8()? {
            0 => Value::I(self.u64()? as i64),
            1 => Value::F(f64::from_bits(self.u64()?)),
            2 => Value::P(self.u64()?),
            3 => Value::Undef,
            _ => return None,
        })
    }
    fn regs(&mut self) -> Option<Vec<Value>> {
        // Min 1 byte per value: `Undef` is tag-only.
        let n = self.len(1)?;
        let cap = self.usize()?;
        if cap < n || cap > (1 << 32) {
            return None;
        }
        let mut v = Vec::with_capacity(cap);
        for _ in 0..n {
            v.push(self.value()?);
        }
        Some(v)
    }
    fn frame(&mut self, program: &DecodedProgram) -> Option<Frame> {
        let func = FuncId(self.u32()?);
        let regs = self.regs()?;
        let block = BlockId(self.u32()?);
        let idx = self.usize()?;
        let has_prev = self.bool()?;
        let prev_raw = self.u32()?;
        let sp_base = self.u64()?;
        let has_ret = self.bool()?;
        let ret_raw = self.u32()?;
        let blk = program.funcs.get(func.index())?.blocks.get(block.index())?;
        Some(Frame {
            func,
            regs,
            block,
            idx,
            prev_block: has_prev.then_some(BlockId(prev_raw)),
            sp_base,
            ret_to: has_ret.then_some(ValueId(ret_raw)),
            code: blk.code.clone(),
        })
    }
    fn frames(&mut self, program: &DecodedProgram) -> Option<Vec<Frame>> {
        let n = self.len(32)?;
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.frame(program)?);
        }
        Some(v)
    }
    fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

impl TenantState {
    /// Flatten this tenant into a capsule image (see the module docs for
    /// the format contract). The tenant itself is untouched; callers
    /// that externalize then drop the state get a byte-exact replacement
    /// from [`TenantState::rehydrate`].
    pub fn externalize(&self) -> Vec<u8> {
        let mut out = Vec::new();
        self.externalize_into(&mut out);
        out
    }

    /// [`TenantState::externalize`] into a caller-pooled buffer: `out`
    /// is cleared first and its capacity reused, so steady-state capsule
    /// churn against a fleet scratch buffer performs zero host
    /// allocations. The encoded bytes are identical to
    /// [`TenantState::externalize`]'s.
    pub fn externalize_into(&self, out: &mut Vec<u8>) {
        // Exhaustive destructure: adding a TenantState field without
        // deciding its capsule treatment is a compile error, not a
        // silently-dropped field.
        let TenantState {
            cfg: _,     // host-side (respawn spec)
            program: _, // host-side (shared decode cache)
            image,
            heap,
            tlb,
            counters,
            output,
            phi_scratch,
            rng,
            sp,
            frames,
            threads,
            cur_tid,
            parked_threads,
            block_current,
            cur_stack_base,
            access_counter,
            next_move_at,
            moves_done,
            next_swap_at,
            swaps_done,
            peak_tracking_bytes,
            guard_cache,
            last_vpn,
            fusion,
            regs_pool,
            next_rotate_at,
            bail_insts_at,
            bail_cycles_at,
            slice_limit,
            slice_cycle_limit,
        } = self;
        let mut buf = std::mem::take(out);
        buf.clear();
        buf.reserve(256 + self.footprint_bytes());
        let mut e = Enc { buf };
        e.u64(CAPSULE_MAGIC);

        // --- image (module handle excluded) ---
        e.usize(image.globals.len());
        e.usize(image.globals.capacity());
        for &g in &image.globals {
            e.u64(g);
        }
        e.pair(image.code);
        e.pair(image.stack);
        e.pair(image.heap);
        e.u64(image.initial_pages);
        e.u64(image.static_footprint);

        // --- heap allocator ---
        let (free, allocated) = heap.snapshot();
        e.usize(free.len());
        for &c in free {
            e.pair(c);
        }
        e.usize(allocated.len());
        for &b in &allocated {
            e.pair(b);
        }
        e.u64(heap.peak_bytes);
        e.u64(heap.live_bytes);

        // --- TLB ---
        let tlb_level = |e: &mut Enc, t: &Tlb| {
            let (sets, assoc, stamp) = t.snapshot();
            e.usize(sets.len());
            for set in sets {
                e.usize(set.len());
                for &entry in set {
                    e.pair(entry);
                }
            }
            e.usize(assoc);
            e.u64(stamp);
            e.u64(t.hits);
            e.u64(t.misses);
        };
        tlb_level(&mut e, &tlb.dtlb);
        tlb_level(&mut e, &tlb.stlb);
        e.u64(tlb.pagewalks);

        // --- counters (exhaustive: a new counter breaks this build) ---
        let crate::counters::PerfCounters {
            instructions,
            instrumentation_insts,
            cycles,
            loads,
            stores,
            calls,
            guards_executed,
            guard_cycles,
            guard_probes,
            guards_elided,
            guards_hoisted,
            track_events,
            track_cycles,
            translation_cycles,
            stack_expansions,
            swap_outs,
            swap_ins,
            moves,
            move_cycles,
            move_breakdown,
            opcode_mix,
        } = counters;
        for v in [
            instructions,
            instrumentation_insts,
            cycles,
            loads,
            stores,
            calls,
            guards_executed,
            guard_cycles,
            guard_probes,
            guards_elided,
            guards_hoisted,
            track_events,
            track_cycles,
            translation_cycles,
            stack_expansions,
            swap_outs,
            swap_ins,
            moves,
            move_cycles,
        ] {
            e.u64(*v);
        }
        e.u64(move_breakdown.page_expand);
        e.u64(move_breakdown.patch_gen_exec);
        e.u64(move_breakdown.register_patch);
        e.u64(move_breakdown.alloc_and_move);
        e.u64(move_breakdown.episodes);
        e.usize(opcode_mix.0.len());
        for &n in &opcode_mix.0 {
            e.u64(n);
        }

        // --- buffered output ---
        e.usize(output.len());
        for s in output {
            e.usize(s.len());
            e.usize(s.capacity());
            e.buf.extend_from_slice(s.as_bytes());
        }

        // --- interpreter state ---
        e.regs(phi_scratch, phi_scratch.capacity());
        e.u64(*rng);
        e.u64(*sp);
        e.frames(frames);
        e.usize(threads.len());
        for t in threads {
            match t {
                ThreadState::Current => e.u8(0),
                ThreadState::Parked(p) => {
                    e.u8(1);
                    e.frames(&p.frames);
                    e.u64(p.sp);
                    e.u64(p.stack_base);
                }
                ThreadState::Done(ret) => {
                    e.u8(2);
                    e.u64(*ret as u64);
                }
            }
        }
        e.usize(*cur_tid);
        e.usize(*parked_threads);
        e.bool(*block_current);
        e.u64(*cur_stack_base);
        e.u64(*access_counter);
        e.u64(*next_move_at);
        e.u64(*moves_done);
        e.u64(*next_swap_at);
        e.u64(*swaps_done);
        e.usize(*peak_tracking_bytes);

        // --- caches (serialized verbatim: the guard cache generation
        // self-invalidates against the freshly installed region table,
        // and carrying it preserves counter identity with a tenant that
        // was never externalized) ---
        e.u64(guard_cache.generation);
        e.u64(guard_cache.start);
        e.u64(guard_cache.end);
        e.bool(guard_cache.perms.read);
        e.bool(guard_cache.perms.write);
        e.u64(guard_cache.probes);
        e.u64(*last_vpn);

        e.usize(fusion.executed.len());
        for &n in &fusion.executed {
            e.u64(n);
        }
        e.usize(regs_pool.len());
        for r in regs_pool {
            e.regs(r, r.capacity());
        }
        e.u64(*next_rotate_at);
        e.u64(*bail_insts_at);
        e.u64(*bail_cycles_at);
        e.u64(*slice_limit);
        e.u64(*slice_cycle_limit);
        *out = e.buf;
    }

    /// Rebuild a tenant from a capsule image plus the host-side handles
    /// the image deliberately excludes. Returns `None` for any image
    /// that is truncated, misversioned, or structurally inconsistent
    /// with `program` — the caller treats that exactly like a checksum
    /// failure (respawn-from-image), so a damaged capsule can never
    /// resume as a half-restored tenant.
    pub fn rehydrate(
        bytes: &[u8],
        cfg: VmConfig,
        module: Rc<Module>,
        program: Rc<DecodedProgram>,
    ) -> Option<TenantState> {
        let mut d = Dec { buf: bytes, pos: 0 };
        if d.u64()? != CAPSULE_MAGIC || !program.decoded_for(cfg.engine, cfg.threaded) {
            return None;
        }

        // --- image ---
        let nglobals = d.len(8)?;
        let gcap = d.usize()?;
        if gcap < nglobals || gcap > (1 << 32) {
            return None;
        }
        let mut globals = Vec::with_capacity(gcap);
        for _ in 0..nglobals {
            globals.push(d.u64()?);
        }
        let image = ProcessImage {
            module,
            globals,
            code: d.pair()?,
            stack: d.pair()?,
            heap: d.pair()?,
            initial_pages: d.u64()?,
            static_footprint: d.u64()?,
        };

        // --- heap allocator ---
        let nfree = d.len(16)?;
        let mut free = Vec::with_capacity(nfree);
        for _ in 0..nfree {
            free.push(d.pair()?);
        }
        let nalloc = d.len(16)?;
        let mut allocated = Vec::with_capacity(nalloc);
        for _ in 0..nalloc {
            allocated.push(d.pair()?);
        }
        let peak_bytes = d.u64()?;
        let live_bytes = d.u64()?;
        let heap = HeapAllocator::restore(free, allocated, peak_bytes, live_bytes);

        // --- TLB ---
        let tlb_level = |d: &mut Dec| -> Option<Tlb> {
            let nsets = d.len(8)?;
            let mut fill = Vec::with_capacity(nsets);
            let mut entries = Vec::new();
            for _ in 0..nsets {
                let n = d.len(16)?;
                fill.push(n);
                for _ in 0..n {
                    entries.push(d.pair()?);
                }
            }
            let assoc = d.usize()?;
            let stamp = d.u64()?;
            let hits = d.u64()?;
            let misses = d.u64()?;
            Tlb::restore(&fill, &entries, assoc, stamp, hits, misses)
        };
        let dtlb = tlb_level(&mut d)?;
        let stlb = tlb_level(&mut d)?;
        let tlb = TranslationUnit {
            dtlb,
            stlb,
            pagewalks: d.u64()?,
        };

        // --- counters ---
        let mut counters = crate::counters::PerfCounters::default();
        {
            let c = &mut counters;
            for field in [
                &mut c.instructions,
                &mut c.instrumentation_insts,
                &mut c.cycles,
                &mut c.loads,
                &mut c.stores,
                &mut c.calls,
                &mut c.guards_executed,
                &mut c.guard_cycles,
                &mut c.guard_probes,
                &mut c.guards_elided,
                &mut c.guards_hoisted,
                &mut c.track_events,
                &mut c.track_cycles,
                &mut c.translation_cycles,
                &mut c.stack_expansions,
                &mut c.swap_outs,
                &mut c.swap_ins,
                &mut c.moves,
                &mut c.move_cycles,
            ] {
                *field = d.u64()?;
            }
            c.move_breakdown.page_expand = d.u64()?;
            c.move_breakdown.patch_gen_exec = d.u64()?;
            c.move_breakdown.register_patch = d.u64()?;
            c.move_breakdown.alloc_and_move = d.u64()?;
            c.move_breakdown.episodes = d.u64()?;
            let nops = d.len(8)?;
            if nops != c.opcode_mix.0.len() {
                return None;
            }
            for slot in c.opcode_mix.0.iter_mut() {
                *slot = d.u64()?;
            }
        }

        // --- buffered output ---
        let nout = d.len(16)?;
        let mut output = Vec::with_capacity(nout);
        for _ in 0..nout {
            let len = d.len(1)?;
            let cap = d.usize()?;
            if cap < len || cap > (1 << 32) {
                return None;
            }
            let mut s = String::with_capacity(cap);
            s.push_str(std::str::from_utf8(d.take(len)?).ok()?);
            output.push(s);
        }

        // --- interpreter state ---
        let phi_scratch = d.regs()?;
        let rng = d.u64()?;
        let sp = d.u64()?;
        let frames = d.frames(&program)?;
        let nthreads = d.len(1)?;
        let mut threads = Vec::with_capacity(nthreads);
        for _ in 0..nthreads {
            threads.push(match d.u8()? {
                0 => ThreadState::Current,
                1 => ThreadState::Parked(ParkedThread {
                    frames: d.frames(&program)?,
                    sp: d.u64()?,
                    stack_base: d.u64()?,
                }),
                2 => ThreadState::Done(d.u64()? as i64),
                _ => return None,
            });
        }
        let cur_tid = d.usize()?;
        let parked_threads = d.usize()?;
        let block_current = d.bool()?;
        let cur_stack_base = d.u64()?;
        let access_counter = d.u64()?;
        let next_move_at = d.u64()?;
        let moves_done = d.u64()?;
        let next_swap_at = d.u64()?;
        let swaps_done = d.u64()?;
        let peak_tracking_bytes = d.usize()?;

        let guard_cache = GuardFastPath {
            generation: d.u64()?,
            start: d.u64()?,
            end: d.u64()?,
            perms: Perms {
                read: d.bool()?,
                write: d.bool()?,
            },
            probes: d.u64()?,
        };
        let last_vpn = d.u64()?;

        let nfused = d.len(8)?;
        let mut fusion = crate::decode::FusionStats::default();
        if nfused != fusion.executed.len() {
            return None;
        }
        for slot in fusion.executed.iter_mut() {
            *slot = d.u64()?;
        }
        let npool = d.len(16)?;
        let mut regs_pool = Vec::with_capacity(npool);
        for _ in 0..npool {
            regs_pool.push(d.regs()?);
        }
        let next_rotate_at = d.u64()?;
        let bail_insts_at = d.u64()?;
        let bail_cycles_at = d.u64()?;
        let slice_limit = d.u64()?;
        let slice_cycle_limit = d.u64()?;
        if !d.done() || cur_tid >= threads.len() {
            return None;
        }

        Some(TenantState {
            cfg,
            image,
            heap,
            tlb,
            counters,
            output,
            program,
            phi_scratch,
            rng,
            sp,
            frames,
            threads,
            cur_tid,
            parked_threads,
            block_current,
            cur_stack_base,
            access_counter,
            next_move_at,
            moves_done,
            next_swap_at,
            swaps_done,
            peak_tracking_bytes,
            guard_cache,
            last_vpn,
            fusion,
            regs_pool,
            next_rotate_at,
            bail_insts_at,
            bail_cycles_at,
            slice_limit,
            slice_cycle_limit,
        })
    }
}
