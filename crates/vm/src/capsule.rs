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
//! ## One codec
//!
//! The format lives in one [`Capsule`] impl per encoded type, its `put`
//! beside its `take`. Every bounds check is in a `take` or in the [`Dec`]
//! cursor, so a damaged image decodes to `None`, never a panic. A
//! tenant's field order appears twice, in declaration order: the
//! exhaustive destructure of [`TenantState::externalize_into`] and the
//! exhaustive struct literal of [`TenantState::rehydrate`]. A new field
//! breaks the build on both sides. `capsule_format_golden` in
//! `crates/vm/tests/capsule_roundtrip.rs` pins the bytes of fixed
//! tenants, so any layout change fails it until `CAPSULE_MAGIC` is bumped
//! and the golden updated with it.
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
//! Serializing the same tenant twice yields identical bytes: the heap's
//! live blocks are an ordered map, written by start address. `Vec`/`String`
//! capacities are recorded and restored so
//! [`TenantState::footprint_bytes`] reports the same number before and
//! after a round trip.

use crate::counters::{MoveBreakdownSum, OpcodeMix, PerfCounters};
use crate::decode::{DecodedProgram, FusionStats};
use crate::machine::{
    Frame, GuardFastPath, ParkedThread, TenantState, ThreadState, Value, VmConfig,
};
use carat_ir::{BlockId, FuncId, Module, ValueId};
use carat_kernel::ProcessImage;
use carat_runtime::Perms;
use std::collections::BTreeMap;
use std::rc::Rc;

/// Image magic + format version. Bump on any layout change: a stale
/// capsule then fails cleanly at the header instead of misparsing.
const CAPSULE_MAGIC: u64 = 0x4341_5250_0000_0002; // "CARP" v2

/// One encoded type of the capsule image.
pub(crate) trait Capsule: Sized {
    /// The fewest bytes one encoding occupies (every encoding occupies
    /// one): a sequence of these is refused at its length prefix when the
    /// rest of the image could not hold that many.
    const MIN_BYTES: usize = 1;
    /// Append the little-endian encoding of `self` to `out`.
    fn put(&self, out: &mut Vec<u8>);
    /// Read one value back; `None` for bytes no `put` writes.
    fn take(d: &mut Dec) -> Option<Self>;
}

/// [`Capsule`] for a struct that is its fields in declaration order, each
/// through its own impl. The one field list makes `put` an exhaustive
/// destructure and `take` an exhaustive struct literal.
macro_rules! capsule_fields {
    ($ty:ident { $($f:ident),+ $(,)? }) => {
        impl $crate::capsule::Capsule for $ty {
            fn put(&self, out: &mut Vec<u8>) {
                let $ty { $($f),+ } = self;
                $($f.put(out);)+
            }
            fn take(d: &mut $crate::capsule::Dec) -> Option<Self> {
                Some($ty { $($f: d.read()?),+ })
            }
        }
    };
}
pub(crate) use capsule_fields;

/// Little-endian cursor over an image, carrying the host-side handles
/// the image is rebuilt against. Every read is bounds-checked.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
    /// Frames pin their code streams from it.
    program: &'a DecodedProgram,
    /// The process image's module handle.
    module: &'a Rc<Module>,
}

impl<'a> Dec<'a> {
    #[inline]
    fn bytes(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        let s = self.buf.get(self.pos..end)?;
        self.pos = end;
        Some(s)
    }

    /// Read one `T`.
    #[inline]
    pub(crate) fn read<T: Capsule>(&mut self) -> Option<T> {
        T::take(self)
    }

    /// A length prefix for a sequence of `T`s, refused when the rest of
    /// the image could not hold it (so a corrupt length cannot trigger a
    /// huge allocation).
    #[inline]
    pub(crate) fn len<T: Capsule>(&mut self) -> Option<usize> {
        let n: usize = self.read()?;
        (n.checked_mul(T::MIN_BYTES)? <= self.buf.len() - self.pos).then_some(n)
    }

    /// `n` elements into a vector of capacity `cap`. A capacity the host
    /// cannot allocate is refused like any other damage.
    #[inline]
    fn elems<T: Capsule>(&mut self, n: usize, cap: usize) -> Option<Vec<T>> {
        let mut v = Vec::new();
        v.try_reserve_exact(cap).ok()?;
        for _ in 0..n {
            v.push(self.read()?);
        }
        Some(v)
    }

    /// A recorded capacity for `len` elements: at least `len`, at most 2³².
    #[inline]
    fn capacity(&mut self, len: usize) -> Option<usize> {
        self.read().filter(|&cap| cap >= len && cap <= 1 << 32)
    }
}

/// A sequence whose capacity the image does not record: its length, then
/// each element. [`take_seq`] rebuilds it at exactly its length.
#[inline]
pub(crate) fn put_seq<T: Capsule>(items: &[T], out: &mut Vec<u8>) {
    items.len().put(out);
    for x in items {
        x.put(out);
    }
}

/// Read back what [`put_seq`] wrote.
#[inline]
pub(crate) fn take_seq<T: Capsule>(d: &mut Dec) -> Option<Vec<T>> {
    let n = d.len::<T>()?;
    d.elems(n, n)
}

macro_rules! le_int {
    ($($t:ty),*) => {$(
        impl Capsule for $t {
            const MIN_BYTES: usize = std::mem::size_of::<$t>();
            #[inline]
            fn put(&self, out: &mut Vec<u8>) {
                out.extend_from_slice(&self.to_le_bytes());
            }
            #[inline]
            fn take(d: &mut Dec) -> Option<Self> {
                Some(<$t>::from_le_bytes(d.bytes(Self::MIN_BYTES)?.try_into().ok()?))
            }
        }
    )*};
}
le_int!(u8, u32, u64, i64);

impl Capsule for usize {
    const MIN_BYTES: usize = 8;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u64).put(out);
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        usize::try_from(d.read::<u64>()?).ok()
    }
}

impl Capsule for bool {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        (*self as u8).put(out);
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        match d.read::<u8>()? {
            0 => Some(false),
            1 => Some(true),
            _ => None,
        }
    }
}

/// A frame's optional block or value id: a presence flag, then the id,
/// or 0 when absent.
impl Capsule for Option<u32> {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.is_some().put(out);
        self.unwrap_or(0).put(out);
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        let present: bool = d.read()?;
        let id: u32 = d.read()?;
        Some(present.then_some(id))
    }
}

impl<A: Capsule, B: Capsule> Capsule for (A, B) {
    const MIN_BYTES: usize = A::MIN_BYTES + B::MIN_BYTES;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
        self.1.put(out);
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        Some((d.read()?, d.read()?))
    }
}

/// A fixed-length count array: its length, then each count. Any other
/// length is refused.
impl<const N: usize> Capsule for [u64; N] {
    fn put(&self, out: &mut Vec<u8>) {
        put_seq(self, out);
    }
    fn take(d: &mut Dec) -> Option<Self> {
        if d.len::<u64>()? != N {
            return None;
        }
        let mut counts = [0; N];
        for c in &mut counts {
            *c = d.read()?;
        }
        Some(counts)
    }
}

/// A `Vec` with its capacity: length, capacity, then each element.
impl<T: Capsule> Capsule for Vec<T> {
    const MIN_BYTES: usize = 16;
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.capacity().put(out);
        for x in self {
            x.put(out);
        }
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        let n = d.len::<T>()?;
        let cap = d.capacity(n)?;
        d.elems(n, cap)
    }
}

/// Length, capacity, then the UTF-8 bytes.
impl Capsule for String {
    const MIN_BYTES: usize = 16;
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        self.capacity().put(out);
        out.extend_from_slice(self.as_bytes());
    }
    fn take(d: &mut Dec) -> Option<Self> {
        let n = d.len::<u8>()?;
        let mut s = String::new();
        s.try_reserve_exact(d.capacity(n)?).ok()?;
        s.push_str(std::str::from_utf8(d.bytes(n)?).ok()?);
        Some(s)
    }
}

/// An ordered map as its entries in key order, so one map always writes
/// the same bytes.
impl<K: Capsule + Ord, V: Capsule> Capsule for BTreeMap<K, V> {
    fn put(&self, out: &mut Vec<u8>) {
        self.len().put(out);
        for (k, v) in self {
            k.put(out);
            v.put(out);
        }
    }
    fn take(d: &mut Dec) -> Option<Self> {
        Some(take_seq::<(K, V)>(d)?.into_iter().collect())
    }
}

/// A tag, then the payload bits (`Undef` is its tag alone).
impl Capsule for Value {
    #[inline]
    fn put(&self, out: &mut Vec<u8>) {
        let (tag, bits) = match *self {
            Value::I(x) => (0u8, x as u64),
            Value::F(x) => (1, x.to_bits()),
            Value::P(p) => (2, p),
            Value::Undef => return 3u8.put(out),
        };
        tag.put(out);
        bits.put(out);
    }
    #[inline]
    fn take(d: &mut Dec) -> Option<Self> {
        Some(match d.read::<u8>()? {
            0 => Value::I(d.read()?),
            1 => Value::F(f64::from_bits(d.read()?)),
            2 => Value::P(d.read()?),
            3 => Value::Undef,
            _ => return None,
        })
    }
}

/// Everything but the pinned code stream, which is rebuilt from the
/// program by `(func, block)`.
impl Capsule for Frame {
    const MIN_BYTES: usize = 32;
    fn put(&self, out: &mut Vec<u8>) {
        self.func.0.put(out);
        self.regs.put(out);
        self.block.0.put(out);
        self.idx.put(out);
        self.prev_block.map(|b| b.0).put(out);
        self.sp_base.put(out);
        self.ret_to.map(|v| v.0).put(out);
    }
    fn take(d: &mut Dec) -> Option<Self> {
        let func = FuncId(d.read()?);
        let regs = d.read()?;
        let block = BlockId(d.read()?);
        let idx = d.read()?;
        let prev_block = d.read::<Option<u32>>()?.map(BlockId);
        let sp_base = d.read()?;
        let ret_to = d.read::<Option<u32>>()?.map(ValueId);
        let blk = d
            .program
            .funcs
            .get(func.index())?
            .blocks
            .get(block.index())?;
        Some(Frame {
            func,
            regs,
            block,
            idx,
            prev_block,
            sp_base,
            ret_to,
            code: blk.code.clone(),
        })
    }
}

/// A tag (current, parked, done), then a parked thread's frames and
/// stack cursors or a finished thread's result.
impl Capsule for ThreadState {
    fn put(&self, out: &mut Vec<u8>) {
        match self {
            ThreadState::Current => 0u8.put(out),
            ThreadState::Parked(p) => {
                1u8.put(out);
                put_seq(&p.frames, out);
                p.sp.put(out);
                p.stack_base.put(out);
            }
            ThreadState::Done(ret) => {
                2u8.put(out);
                ret.put(out);
            }
        }
    }
    fn take(d: &mut Dec) -> Option<Self> {
        Some(match d.read::<u8>()? {
            0 => ThreadState::Current,
            1 => ThreadState::Parked(ParkedThread {
                frames: take_seq(d)?,
                sp: d.read()?,
                stack_base: d.read()?,
            }),
            2 => ThreadState::Done(d.read()?),
            _ => return None,
        })
    }
}

// The guard cache is serialized verbatim: its generation self-invalidates
// against the freshly installed region table, and carrying it keeps
// counters identical to a tenant that was never externalized.
capsule_fields!(GuardFastPath {
    generation,
    start,
    end,
    perms,
    probes,
});
capsule_fields!(Perms { read, write });
capsule_fields!(FusionStats { executed });
capsule_fields!(MoveBreakdownSum {
    page_expand,
    patch_gen_exec,
    register_patch,
    alloc_and_move,
    episodes,
});
capsule_fields!(PerfCounters {
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
});

impl Capsule for OpcodeMix {
    fn put(&self, out: &mut Vec<u8>) {
        self.0.put(out);
    }
    fn take(d: &mut Dec) -> Option<Self> {
        Some(OpcodeMix(d.read()?))
    }
}

/// The live image without its module handle, which the cursor supplies.
impl Capsule for ProcessImage {
    fn put(&self, out: &mut Vec<u8>) {
        let ProcessImage {
            module: _,
            globals,
            code,
            stack,
            heap,
            initial_pages,
            static_footprint,
        } = self;
        globals.put(out);
        for range in [code, stack, heap] {
            range.put(out);
        }
        initial_pages.put(out);
        static_footprint.put(out);
    }
    fn take(d: &mut Dec) -> Option<Self> {
        Some(ProcessImage {
            module: Rc::clone(d.module),
            globals: d.read()?,
            code: d.read()?,
            stack: d.read()?,
            heap: d.read()?,
            initial_pages: d.read()?,
            static_footprint: d.read()?,
        })
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
        out.clear();
        out.reserve(256 + self.footprint_bytes());
        CAPSULE_MAGIC.put(out);
        // Exhaustive, in declaration order, one line per field: a new
        // field is a compile error until it is given a line here and in
        // `rehydrate`.
        let TenantState {
            cfg: _, // host-side (respawn spec)
            image,
            heap,
            tlb,
            counters,
            output,
            program: _, // host-side (shared decode cache)
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
        image.put(out);
        heap.put(out);
        tlb.put(out);
        counters.put(out);
        put_seq(output, out);
        phi_scratch.put(out);
        rng.put(out);
        sp.put(out);
        put_seq(frames, out);
        put_seq(threads, out);
        cur_tid.put(out);
        parked_threads.put(out);
        block_current.put(out);
        cur_stack_base.put(out);
        access_counter.put(out);
        next_move_at.put(out);
        moves_done.put(out);
        next_swap_at.put(out);
        swaps_done.put(out);
        peak_tracking_bytes.put(out);
        guard_cache.put(out);
        last_vpn.put(out);
        fusion.put(out);
        put_seq(regs_pool, out);
        next_rotate_at.put(out);
        bail_insts_at.put(out);
        bail_cycles_at.put(out);
        slice_limit.put(out);
        slice_cycle_limit.put(out);
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
        if !program.decoded_for(cfg.engine, cfg.threaded) {
            return None;
        }
        let mut d = Dec {
            buf: bytes,
            pos: 0,
            program: &program,
            module: &module,
        };
        if d.read::<u64>()? != CAPSULE_MAGIC {
            return None;
        }
        // Exhaustive, in declaration order, one line per field: read in
        // the order `externalize_into` wrote.
        let state = TenantState {
            cfg,
            image: d.read()?,
            heap: d.read()?,
            tlb: d.read()?,
            counters: d.read()?,
            output: take_seq(&mut d)?,
            program: Rc::clone(&program),
            phi_scratch: d.read()?,
            rng: d.read()?,
            sp: d.read()?,
            frames: take_seq(&mut d)?,
            threads: take_seq(&mut d)?,
            cur_tid: d.read()?,
            parked_threads: d.read()?,
            block_current: d.read()?,
            cur_stack_base: d.read()?,
            access_counter: d.read()?,
            next_move_at: d.read()?,
            moves_done: d.read()?,
            next_swap_at: d.read()?,
            swaps_done: d.read()?,
            peak_tracking_bytes: d.read()?,
            guard_cache: d.read()?,
            last_vpn: d.read()?,
            fusion: d.read()?,
            regs_pool: take_seq(&mut d)?,
            next_rotate_at: d.read()?,
            bail_insts_at: d.read()?,
            bail_cycles_at: d.read()?,
            slice_limit: d.read()?,
            slice_cycle_limit: d.read()?,
        };
        (d.pos == bytes.len() && state.cur_tid < state.threads.len()).then_some(state)
    }
}

/// Decode an image holding exactly one `T` against an empty program —
/// for unit tests of types that hold no frames.
#[cfg(test)]
pub(crate) fn take_whole<T: Capsule>(bytes: &[u8]) -> Option<T> {
    let module = Rc::new(carat_ir::ModuleBuilder::new("empty").finish());
    let program = DecodedProgram::decode_for(&module, Default::default(), Default::default());
    let mut d = Dec {
        buf: bytes,
        pos: 0,
        program: &program,
        module: &module,
    };
    let v = d.read()?;
    (d.pos == bytes.len()).then_some(v)
}
