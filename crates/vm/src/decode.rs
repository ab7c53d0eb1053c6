//! Pre-decoded execution programs: each loaded [`Module`] is compiled
//! once into flat per-function arrays of [`DecodedInst`] — a `Copy`-able
//! instruction with operand register slots, immediate constants, resolved
//! alloca offsets, precomputed per-edge phi copy lists, and direct
//! intrinsic dispatch. The interpreter's hot loop then executes over
//! `(func, block, idx)` cursors into this stream with zero per-step
//! cloning and no hash lookups.
//!
//! Decoding is an engine-side cache, not a semantic transformation: a
//! decoded program must produce the same observable behavior — return
//! value, output, and every [`PerfCounters`](crate::PerfCounters) field —
//! as the reference interpreter walking the IR arena directly. The
//! differential harness in `tests/decoded_differential.rs` enforces this
//! across the full workload suite.
//!
//! Each block has one stream; [`DecodedProgram::decode_for`] decides what
//! it holds from the [`Engine`], and the interpreter never asks. Whatever
//! the recipe, a two-argument `guard_load`/`guard_store` decodes to one
//! [`DecodedInst::Guard`] slot: fusion may fold it into the access it
//! protects, and the threaded rewrite may elide it or give it an
//! immediate length, but no stream carries a guard as an intrinsic call.

use crate::machine::Engine;
use carat_core::guards::frame_size;
use carat_ir::{BinOp, BlockId, CastKind, Const, Inst, IntTy, Intrinsic, Module, Opcode, Pred};

/// Register slot sentinel for "no value" (absent return value/operand).
pub const NO_REG: u32 = u32::MAX;

/// The scalar class of a memory access, with its size pre-resolved.
#[derive(Debug, Clone, Copy)]
pub enum ScalarClass {
    /// 8-byte float.
    F64,
    /// 8-byte pointer.
    Ptr,
    /// Integer of the given width.
    Int(IntTy),
}

impl ScalarClass {
    /// Access size in bytes.
    #[inline]
    pub fn size(self) -> u64 {
        match self {
            ScalarClass::F64 | ScalarClass::Ptr => 8,
            ScalarClass::Int(w) => w.size(),
        }
    }
}

/// A `(start, len)` window into a [`DecodedFunc`]'s operand pool.
#[derive(Debug, Clone, Copy)]
pub struct OperandRange {
    /// First index in [`DecodedFunc::operands`].
    pub start: u32,
    /// Number of operands.
    pub len: u32,
}

/// One fully resolved instruction. Everything static — immediates, frame
/// offsets, operand register slots, access sizes, result widths — is
/// folded in at decode time; only dynamic state (register values, memory)
/// remains for the interpreter.
#[derive(Debug, Clone, Copy)]
pub enum DecodedInst {
    /// Integer constant, already width-wrapped.
    ConstI {
        /// Destination register.
        dst: u32,
        /// Wrapped value.
        val: i64,
    },
    /// Float constant.
    ConstF {
        /// Destination register.
        dst: u32,
        /// Value.
        val: f64,
    },
    /// The null pointer.
    ConstNull {
        /// Destination register.
        dst: u32,
    },
    /// Address of a global. The *index* is kept (not the address): globals
    /// relocate when their range moves or swaps, so the current address is
    /// read from the image at execution time.
    ConstGlobal {
        /// Destination register.
        dst: u32,
        /// Global index.
        global: u32,
    },
    /// Stack slot address: `sp_base + off`, with `off` resolved at decode
    /// time (this kills the per-function offset `HashMap`).
    Alloca {
        /// Destination register.
        dst: u32,
        /// Byte offset within the frame.
        off: u64,
    },
    /// Scalar load.
    Load {
        /// Destination register.
        dst: u32,
        /// Address register.
        addr: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// Scalar store.
    Store {
        /// Address register.
        addr: u32,
        /// Value register.
        value: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// `base + index * stride` with the element stride pre-resolved.
    PtrAdd {
        /// Destination register.
        dst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element stride in bytes.
        stride: u64,
    },
    /// `base + off` with the field offset pre-resolved.
    FieldAddr {
        /// Destination register.
        dst: u32,
        /// Base pointer register.
        base: u32,
        /// Field byte offset.
        off: u64,
    },
    /// Two-operand arithmetic with the result width pre-resolved from the
    /// left operand's type.
    Bin {
        /// Destination register.
        dst: u32,
        /// Operation.
        op: BinOp,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
        /// Integer result width (unused by float ops).
        width: IntTy,
    },
    /// Integer/pointer comparison.
    Icmp {
        /// Destination register.
        dst: u32,
        /// Predicate.
        pred: Pred,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// Float comparison.
    Fcmp {
        /// Destination register.
        dst: u32,
        /// Predicate.
        pred: Pred,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
    },
    /// Scalar conversion with the integer target width pre-resolved.
    Cast {
        /// Destination register.
        dst: u32,
        /// Conversion kind.
        kind: CastKind,
        /// Source register.
        src: u32,
        /// Target integer width (sext/zext/trunc only).
        width: IntTy,
    },
    /// `cond ? if_true : if_false`.
    Select {
        /// Destination register.
        dst: u32,
        /// Condition register.
        cond: u32,
        /// Register taken when true.
        if_true: u32,
        /// Register taken when false.
        if_false: u32,
    },
    /// Execute the whole phi batch at this block's head: one copy list per
    /// predecessor edge, applied in parallel. Counts as one instruction,
    /// exactly like the reference interpreter's en-bloc phi evaluation.
    PhiBatch,
    /// Direct call to a user function.
    Call {
        /// Register receiving the return value (also the call's id).
        dst: u32,
        /// Callee function index.
        callee: u32,
        /// Argument registers.
        args: OperandRange,
    },
    /// Direct-dispatch intrinsic call (every intrinsic but the
    /// two-argument guards, which decode to [`DecodedInst::Guard`]).
    Intrinsic {
        /// Register receiving the result (if the intrinsic returns one).
        dst: u32,
        /// The intrinsic.
        intr: Intrinsic,
        /// Argument registers.
        args: OperandRange,
    },
    /// A `guard_load`/`guard_store`: check `[gaddr, gaddr + len)` for the
    /// access. One that passes runs in the fast tier; one that does not
    /// (page-in, fault) runs the full guard path in the slow tier.
    Guard {
        /// Register holding the guarded address.
        gaddr: u32,
        /// Register holding the access length in bytes, or [`NO_REG`]
        /// when the length is the `imm` immediate (threaded decodes only:
        /// a single-use literal whose const slot was dropped).
        glen: u32,
        /// Immediate access length (valid when `glen` is [`NO_REG`]).
        imm: u32,
        /// Whether the guarded access is a write.
        write: bool,
    },
    /// Unconditional branch.
    Jmp {
        /// Target block index.
        target: u32,
    },
    /// Conditional branch.
    Br {
        /// Condition register.
        cond: u32,
        /// Block index when true.
        if_true: u32,
        /// Block index when false.
        if_false: u32,
    },
    /// Return ([`NO_REG`] = void).
    Ret {
        /// Returned register or [`NO_REG`].
        value: u32,
    },
    /// Trap if executed.
    Unreachable,
    /// A load/store of an aggregate type: traps when executed (matching
    /// the reference interpreter, which rejects it at execution time, not
    /// load time).
    TrapAggregate {
        /// Whether the faulting access was a store.
        store: bool,
    },

    // --- superinstructions (fused and threaded decodes only) ---
    //
    // Each fused variant packs two adjacent instructions into one dispatch.
    // The stream keeps the *original* instruction in the second (tail)
    // slot, so execution can resume unfused at an exact component
    // boundary when the engine bails out mid-pair (scheduler rotation,
    // due move/swap driver, step limit). Fused execution is accounting-
    // transparent: each component charges exactly the cycles, counters,
    // and opcode-mix entries its unfused form would.
    /// `PtrAdd` immediately consumed by a `Load` of its result.
    FusedPtrAddLoad {
        /// The pointer destination register (still written — the value may
        /// have other uses, and world-stop register patching must see it).
        pdst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element stride in bytes (fusion requires it fits u32).
        stride: u32,
        /// Load destination register.
        dst: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// `PtrAdd` immediately consumed by a `Store` through its result.
    FusedPtrAddStore {
        /// The pointer destination register.
        pdst: u32,
        /// Base pointer register.
        base: u32,
        /// Index register.
        index: u32,
        /// Element stride in bytes.
        stride: u32,
        /// Value register.
        value: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// `FieldAddr` immediately consumed by a `Load` of its result.
    FusedFieldLoad {
        /// The pointer destination register.
        pdst: u32,
        /// Base pointer register.
        base: u32,
        /// Field byte offset (fusion requires it fits u32).
        off: u32,
        /// Load destination register.
        dst: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// `FieldAddr` immediately consumed by a `Store` through its result.
    FusedFieldStore {
        /// The pointer destination register.
        pdst: u32,
        /// Base pointer register.
        base: u32,
        /// Field byte offset.
        off: u32,
        /// Value register.
        value: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// A read [`DecodedInst::Guard`] folded into the `Load` it protects:
    /// one dispatch performs check + access.
    FusedGuardLoad {
        /// Guarded-address register.
        gaddr: u32,
        /// Guarded-length register.
        glen: u32,
        /// Load destination register.
        dst: u32,
        /// Load address register.
        addr: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// A write [`DecodedInst::Guard`] folded into the `Store` it protects.
    FusedGuardStore {
        /// Guarded-address register.
        gaddr: u32,
        /// Guarded-length register.
        glen: u32,
        /// Store address register.
        addr: u32,
        /// Value register.
        value: u32,
        /// Access class and size.
        cls: ScalarClass,
    },
    /// `Icmp` feeding the `Br` that consumes it (the compare result is
    /// still written: phis and later uses read it).
    FusedIcmpBr {
        /// Compare destination register.
        cdst: u32,
        /// Predicate.
        pred: Pred,
        /// Left operand register.
        lhs: u32,
        /// Right operand register.
        rhs: u32,
        /// Block index when true.
        if_true: u32,
        /// Block index when false.
        if_false: u32,
    },
    /// `Bin` + `Bin`: two adjacent ALU ops in one dispatch (no dataflow
    /// requirement — adjacency alone is enough, since the first result is
    /// written before the second op reads its operands). Register slots
    /// are narrowed to `u16` to stay inside the 24-byte slot budget;
    /// fusion is skipped for functions with more than 65 535 values.
    FusedBinBin {
        /// First op's destination register.
        dst1: u16,
        /// First op's left operand register.
        lhs1: u16,
        /// First op's right operand register.
        rhs1: u16,
        /// Second op's destination register.
        dst2: u16,
        /// Second op's left operand register.
        lhs2: u16,
        /// Second op's right operand register.
        rhs2: u16,
        /// First operation.
        op1: BinOp,
        /// Second operation.
        op2: BinOp,
        /// First op's integer result width.
        w1: IntTy,
        /// Second op's integer result width.
        w2: IntTy,
    },
    /// `PtrAdd` followed by an integer `Const` (adjacency only — the
    /// usual shape is an address computation next to the constant its
    /// consumer also needs).
    FusedPtrAddConst {
        /// Pointer destination register.
        pdst: u16,
        /// Base pointer register.
        base: u16,
        /// Index register.
        index: u16,
        /// Constant destination register.
        cdst: u16,
        /// Element stride in bytes (fusion requires it fits u32).
        stride: u32,
        /// The constant (fusion requires it fits i32).
        imm: i32,
    },

    // --- threaded-tier ops (threaded decodes only) ---
    //
    // These are produced only by the threaded engine's decode-time
    // transform, never by plain decoding or fusion, so the
    // reference/decoded/fused engines never see them.
    /// A guard statically proven redundant by an identical-or-wider guard
    /// earlier in its block. Executes nothing — it only counts one elided
    /// guard so `guards_executed + guards_elided` stays reconcilable with
    /// the fused baseline.
    ElidedGuard,
    /// A widened whole-trip range guard at a loop preheader, standing in
    /// for every per-iteration guard the transform elided from the loop
    /// body. Carries an index into [`DecodedFunc::hoists`].
    HoistedGuard {
        /// Index into [`DecodedFunc::hoists`].
        meta: u32,
    },
}

impl DecodedInst {
    /// The [`Opcode`] this decoded instruction accounts as — identical to
    /// the classification of the IR instruction it was decoded from.
    #[inline]
    pub fn opcode(self) -> Opcode {
        match self {
            DecodedInst::ConstI { .. }
            | DecodedInst::ConstF { .. }
            | DecodedInst::ConstNull { .. }
            | DecodedInst::ConstGlobal { .. } => Opcode::Const,
            DecodedInst::Alloca { .. } => Opcode::Alloca,
            DecodedInst::Load { .. } => Opcode::Load,
            DecodedInst::Store { .. } => Opcode::Store,
            DecodedInst::PtrAdd { .. } => Opcode::PtrAdd,
            DecodedInst::FieldAddr { .. } => Opcode::FieldAddr,
            DecodedInst::Bin { .. } => Opcode::Bin,
            DecodedInst::Icmp { .. } => Opcode::Icmp,
            DecodedInst::Fcmp { .. } => Opcode::Fcmp,
            DecodedInst::Cast { .. } => Opcode::Cast,
            DecodedInst::Select { .. } => Opcode::Select,
            DecodedInst::PhiBatch => Opcode::Phi,
            DecodedInst::Call { .. } => Opcode::Call,
            DecodedInst::Intrinsic { .. } | DecodedInst::Guard { .. } => Opcode::CallIntrinsic,
            DecodedInst::Jmp { .. } => Opcode::Jmp,
            DecodedInst::Br { .. } => Opcode::Br,
            DecodedInst::Ret { .. } => Opcode::Ret,
            DecodedInst::Unreachable => Opcode::Unreachable,
            DecodedInst::TrapAggregate { store } => {
                if store {
                    Opcode::Store
                } else {
                    Opcode::Load
                }
            }
            // Fused variants account their first component here; the
            // executing arm accounts the tail component itself.
            DecodedInst::FusedPtrAddLoad { .. } | DecodedInst::FusedPtrAddStore { .. } => {
                Opcode::PtrAdd
            }
            DecodedInst::FusedFieldLoad { .. } | DecodedInst::FusedFieldStore { .. } => {
                Opcode::FieldAddr
            }
            DecodedInst::FusedGuardLoad { .. } | DecodedInst::FusedGuardStore { .. } => {
                Opcode::CallIntrinsic
            }
            DecodedInst::FusedIcmpBr { .. } => Opcode::Icmp,
            DecodedInst::FusedBinBin { .. } => Opcode::Bin,
            DecodedInst::FusedPtrAddConst { .. } => Opcode::PtrAdd,
            // The guard markers retire nothing (their arms account
            // explicitly), but `opcode` must stay total, and the guards
            // they stand in for were intrinsics.
            DecodedInst::ElidedGuard | DecodedInst::HoistedGuard { .. } => Opcode::CallIntrinsic,
        }
    }
}

/// The fusion patterns the peephole pass recognizes: address computation
/// feeding its memory access, guards folded into the access they
/// protect, an integer compare feeding its branch, and two
/// adjacency-only register pairs (`bin+bin`, `ptradd+const`). Each one
/// stays because removing it costs measurable host time (EXPERIMENTS.md,
/// "Which superinstructions pay"), and `tests/fused_differential.rs`
/// requires each to retire at least 1 % of the workload suite's
/// instructions in one of the two worlds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(usize)]
pub enum FusedKind {
    /// `PtrAdd` + `Load`.
    PtrAddLoad,
    /// `PtrAdd` + `Store`.
    PtrAddStore,
    /// `FieldAddr` + `Load`.
    FieldLoad,
    /// `FieldAddr` + `Store`.
    FieldStore,
    /// Read `Guard` + `Load`.
    GuardLoad,
    /// Write `Guard` + `Store`.
    GuardStore,
    /// `Icmp` + `Br`.
    IcmpBr,
    /// `Bin` + `Bin`.
    BinBin,
    /// `PtrAdd` + `Const`.
    PtrAddConst,
}

/// Number of [`FusedKind`] variants (array-indexed stats).
pub const FUSED_KINDS: usize = 9;

impl FusedKind {
    /// All kinds, in index order.
    pub const ALL: [FusedKind; FUSED_KINDS] = [
        FusedKind::PtrAddLoad,
        FusedKind::PtrAddStore,
        FusedKind::FieldLoad,
        FusedKind::FieldStore,
        FusedKind::GuardLoad,
        FusedKind::GuardStore,
        FusedKind::IcmpBr,
        FusedKind::BinBin,
        FusedKind::PtrAddConst,
    ];

    /// Human-readable pair name.
    pub fn name(self) -> &'static str {
        match self {
            FusedKind::PtrAddLoad => "ptradd+load",
            FusedKind::PtrAddStore => "ptradd+store",
            FusedKind::FieldLoad => "fieldaddr+load",
            FusedKind::FieldStore => "fieldaddr+store",
            FusedKind::GuardLoad => "guard+load",
            FusedKind::GuardStore => "guard+store",
            FusedKind::IcmpBr => "icmp+br",
            FusedKind::BinBin => "bin+bin",
            FusedKind::PtrAddConst => "ptradd+const",
        }
    }
}

/// Dynamic fusion statistics for one run — host-side observability only,
/// deliberately kept *outside* [`PerfCounters`](crate::PerfCounters):
/// simulated counters must stay byte-identical across engines, and only
/// the fused engine executes superinstructions.
#[derive(Debug, Clone, Default)]
pub struct FusionStats {
    /// Fused pairs executed to completion (both components in one
    /// dispatch), by kind. A pair interrupted by a mid-pair bail-out
    /// (scheduler rotation, due driver, step limit) is not counted: its
    /// tail component retired through its unfused slot.
    pub executed: [u64; FUSED_KINDS],
}

impl FusionStats {
    /// Total fused pairs executed.
    pub fn fused_pairs(&self) -> u64 {
        self.executed.iter().sum()
    }

    /// Dynamic instructions retired inside fused dispatches (2 per pair).
    pub fn fused_instructions(&self) -> u64 {
        2 * self.fused_pairs()
    }

    /// Kinds with nonzero counts, most-executed first.
    pub fn sorted(&self) -> Vec<(FusedKind, u64)> {
        let mut v: Vec<(FusedKind, u64)> = FusedKind::ALL
            .iter()
            .map(|&k| (k, self.executed[k as usize]))
            .filter(|&(_, n)| n > 0)
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.name().cmp(b.0.name())));
        v
    }
}

/// Static fusion census for a decoded program: how many fusion sites the
/// peephole pass created, by kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct FusionSummary {
    /// Fusion sites in the fused streams, by kind.
    pub sites: [u64; FUSED_KINDS],
}

impl FusionSummary {
    /// Total fusion sites.
    pub fn total(&self) -> u64 {
        self.sites.iter().sum()
    }
}

/// Configuration for the threaded tier's decode-time transform — the
/// ablation axes of the guard-optimization table (none / elide /
/// elide+hoist). Fusion is always on for the threaded engine; these
/// toggles control only the proof-driven parts.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ThreadedOpts {
    /// Drop guards proven redundant (whole-trip loop proofs, block-local
    /// duplicates) and dead constants, and dedup exact-duplicate tracking
    /// calls.
    pub elide: bool,
    /// Execute one widened range check per elided loop guard at the
    /// preheader. With `elide` on and `hoist` off, elided guards are
    /// dropped without replacement (the ablation's "elide" row — it shows
    /// what the hoisted check costs).
    pub hoist: bool,
}

impl Default for ThreadedOpts {
    fn default() -> ThreadedOpts {
        ThreadedOpts {
            elide: true,
            hoist: true,
        }
    }
}

/// Side-table entry for one [`DecodedInst::HoistedGuard`]: everything the
/// runtime needs to reconstruct the full address span the elided loop
/// guard would have checked across the trip. All register fields are
/// defined outside the loop (the proof guarantees it), so they are
/// readable at the preheader.
#[derive(Debug, Clone, Copy)]
pub struct HoistedGuardMeta {
    /// Base pointer register (`Affine`), or the invariant address itself.
    pub base: u32,
    /// Register holding the induction variable's initial value.
    pub init: u32,
    /// Register holding the loop bound (positive term when peeled).
    pub bound: u32,
    /// Register of the peeled bound's negative term, or [`NO_REG`]. The
    /// effective bound is `bound − bound2 + bound_const`.
    pub bound2: u32,
    /// Constant summand of a peeled bound expression.
    pub bound_const: i64,
    /// Register of the loop-invariant index summand, or [`NO_REG`].
    pub inv: u32,
    /// Induction-variable coefficient in the index (0 = invariant addr).
    pub coeff: i64,
    /// Constant index summand.
    pub offset: i64,
    /// Element stride scaling the index (0 = invariant addr).
    pub elem: u64,
    /// Constant byte offset added after scaling (peeled `FieldAddr`s).
    pub byte_off: u64,
    /// Access length in bytes.
    pub len: u64,
    /// Positive induction step.
    pub step: i64,
    /// `true` for `iv <= bound`, `false` for `iv < bound`.
    pub inclusive: bool,
    /// Whether the elided guard checked write access.
    pub write: bool,
    /// Whether to execute the widened range check (hoisting enabled).
    /// When false the slot only accounts the trip's elided guards.
    pub check: bool,
}

/// Per-loop transform decisions, kept for `compile_inspect` and the
/// ablation table: what was proven, what was rejected and why.
#[derive(Debug, Clone)]
pub struct LoopReport {
    /// Function name.
    pub func: String,
    /// Loop header block index.
    pub header: u32,
    /// One line per proven guard: proof kind and symbolic span.
    pub decisions: Vec<String>,
    /// One line per rejected guard: value and reason.
    pub rejected: Vec<String>,
}

/// Static census of the threaded transform across a program.
#[derive(Debug, Clone, Default)]
pub struct ThreadedReport {
    /// Loop guards removed under a whole-trip proof.
    pub elided_sites: u64,
    /// Block-local duplicate guards replaced by markers.
    pub dup_guard_sites: u64,
    /// Exact-duplicate tracking calls dropped.
    pub track_dedup_sites: u64,
    /// Widened preheader checks inserted (0 when `hoist` is off).
    pub hoisted_sites: u64,
    /// Constants dropped because their last use was an elided guard, or
    /// was embedded as a guard's length immediate.
    pub dead_consts: u64,
    /// Per-loop decisions for inspection.
    pub loops: Vec<LoopReport>,
    /// Loops the prover skipped structurally: "func bbN: reason".
    pub skipped_loops: Vec<String>,
}

/// The copy list for entering a phi-headed block from one predecessor.
#[derive(Debug, Clone, Copy)]
pub struct PhiEdge {
    /// The predecessor block this edge handles.
    pub pred: BlockId,
    /// First index in [`DecodedFunc::phi_copies`].
    pub start: u32,
    /// Number of `(dst, src)` copies (one per phi).
    pub len: u32,
}

/// One decoded basic block: the leading phis collapse into a single
/// [`DecodedInst::PhiBatch`] slot, the rest map one-to-one.
#[derive(Debug, Clone, Default)]
pub struct DecodedBlock {
    /// The instruction stream — the only one; what it holds was decided
    /// at decode time ([`DecodedProgram::decode_for`]). Shared (`Rc`) so
    /// the VM can pin the current block's code in the active frame and
    /// fetch with a single index, instead of re-walking
    /// `funcs[f].blocks[b].code` every step.
    ///
    /// A plain or fused decode is slot-parallel with the IR block: a fused
    /// pair's head slot holds the superinstruction and its tail slot keeps
    /// the original unfused instruction, so mid-pair bail-outs and
    /// blocking intrinsics resume at exact component boundaries and the
    /// head is never re-executed unfused. A threaded decode is *not*
    /// slot-parallel: guard slots may be elided and hoisted checks
    /// inserted. A cursor is only meaningful against the decode that
    /// produced it.
    pub code: std::rc::Rc<[DecodedInst]>,
    /// Per-predecessor phi copy lists (empty when the block has no phis).
    /// An entry exists only for predecessors every phi covers; entering
    /// from any other block traps, as in the reference interpreter.
    pub phi_edges: Vec<PhiEdge>,
}

/// One decoded function.
#[derive(Debug, Clone)]
pub struct DecodedFunc {
    /// Stack frame size in bytes (allocas + spill margin).
    pub frame_size: u64,
    /// Register file size (args + instruction results).
    pub num_values: usize,
    /// Decoded blocks, indexed by [`BlockId`].
    pub blocks: Vec<DecodedBlock>,
    /// Argument-register pool for calls and intrinsics.
    pub operands: Vec<u32>,
    /// `(dst, src)` register pairs for phi edges.
    pub phi_copies: Vec<(u32, u32)>,
    /// Dense alloca frame offsets by value index ([`u64::MAX`] = not an
    /// alloca). The decoded stream carries offsets inline; this table
    /// serves the reference engine, replacing its per-function `HashMap`.
    pub alloca_offsets: Vec<u64>,
    /// Side table for [`DecodedInst::HoistedGuard`] slots (threaded tier
    /// only; empty otherwise).
    pub hoists: Vec<HoistedGuardMeta>,
}

impl DecodedFunc {
    /// The frame offset of alloca `value_index`.
    ///
    /// # Panics
    ///
    /// Panics if the value is not a placed alloca.
    #[inline]
    pub fn alloca_offset(&self, value_index: usize) -> u64 {
        let off = self.alloca_offsets[value_index];
        assert_ne!(off, u64::MAX, "value is not an alloca");
        off
    }
}

/// A module compiled to its flat executable form.
#[derive(Debug, Clone)]
pub struct DecodedProgram {
    /// Decoded functions, indexed by [`FuncId`](carat_ir::FuncId).
    pub funcs: Vec<DecodedFunc>,
    /// Static census of the fusion sites in the streams (all zero for a
    /// plain decode; for a threaded decode, elision re-exposes fusion
    /// opportunities the guard slots were blocking).
    pub fusion: FusionSummary,
    /// Census of the threaded transform, when the program was decoded
    /// for [`Engine::Threaded`].
    pub threaded: Option<ThreadedReport>,
    /// What the streams were decoded for. Cursors (frame `idx`, capsule
    /// images) are only valid against a program of the same recipe.
    recipe: (Engine, ThreadedOpts),
}

impl DecodedProgram {
    /// Decode every function of `module` into the streams `engine` runs
    /// (`opts` is read only by [`Engine::Threaded`]): plain, fused in
    /// place, or the threaded rewrite — proof-driven guard elision and
    /// hoisting, then the same fusion pass over each rewritten block.
    /// Pure and infallible: malformed constructs (aggregate
    /// accesses, incomplete phi webs) decode to trapping forms so behavior
    /// stays identical to the reference interpreter, which also rejects
    /// them only upon execution.
    pub fn decode_for(module: &Module, engine: Engine, opts: ThreadedOpts) -> DecodedProgram {
        let mut fusion = FusionSummary::default();
        let mut report = ThreadedReport::default();
        let funcs = module
            .func_ids()
            .map(|fid| {
                let f = module.func(fid);
                let mut df = decode_func(f, (engine == Engine::Fused).then_some(&mut fusion));
                if engine == Engine::Threaded {
                    thread_func(module, f, &mut df, opts, &mut fusion, &mut report);
                }
                df
            })
            .collect();
        DecodedProgram {
            funcs,
            fusion,
            threaded: (engine == Engine::Threaded).then_some(report),
            recipe: (engine, opts),
        }
    }

    /// [`DecodedProgram::decode_for`] by its two common recipes: `None`
    /// decodes for [`Engine::default`], `Some` for [`Engine::Threaded`].
    pub fn decode_with(module: &Module, threaded: Option<ThreadedOpts>) -> DecodedProgram {
        match threaded {
            None => DecodedProgram::decode_for(module, Engine::default(), ThreadedOpts::default()),
            Some(opts) => DecodedProgram::decode_for(module, Engine::Threaded, opts),
        }
    }

    /// Whether this program was decoded for `engine` (and, as only the
    /// threaded rewrite reads them, `opts`) — i.e. whether cursors made
    /// under that configuration mean anything against it.
    pub(crate) fn decoded_for(&self, engine: Engine, opts: ThreadedOpts) -> bool {
        self.recipe.0 == engine && (engine != Engine::Threaded || self.recipe.1 == opts)
    }
}

/// Decode one function to plain streams, fusing each block in place when
/// `fuse` carries the census to count sites into.
fn decode_func(f: &carat_ir::Function, mut fuse: Option<&mut FusionSummary>) -> DecodedFunc {
    // Alloca offsets: identical layout walk to the seed interpreter's
    // FuncMeta construction (alignment-rounded, 8-byte minimum stride).
    let mut alloca_offsets = vec![u64::MAX; f.num_values()];
    let mut off = 0u64;
    for (_, v, inst) in f.insts_in_layout_order() {
        if let Inst::Alloca(ty) = inst {
            let align = ty.align().max(1);
            off = off.div_ceil(align) * align;
            alloca_offsets[v.index()] = off;
            off += ty.stride().max(8);
        }
    }

    let mut operands: Vec<u32> = Vec::new();
    let mut phi_copies: Vec<(u32, u32)> = Vec::new();
    let mut blocks: Vec<DecodedBlock> = Vec::with_capacity(f.num_blocks());

    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        let mut code: Vec<DecodedInst> = Vec::with_capacity(insts.len());
        let mut phi_edges: Vec<PhiEdge> = Vec::new();

        // Leading phis collapse into one PhiBatch with per-edge copy lists.
        let phis: Vec<(u32, &[(BlockId, carat_ir::ValueId)])> = insts
            .iter()
            .map_while(|&v| {
                f.inst(v)
                    .and_then(Inst::phi_incomings)
                    .map(|inc| (v.0, inc))
            })
            .collect();
        if !phis.is_empty() {
            code.push(DecodedInst::PhiBatch);
            let mut preds: Vec<BlockId> = Vec::new();
            for (_, inc) in &phis {
                for (p, _) in inc.iter() {
                    if !preds.contains(p) {
                        preds.push(*p);
                    }
                }
            }
            for pred in preds {
                // Only complete edges are materialized; a phi missing this
                // predecessor makes entry from it trap at runtime.
                let Some(copies) = phis
                    .iter()
                    .map(|&(dst, inc)| {
                        inc.iter()
                            .find(|(p, _)| *p == pred)
                            .map(|&(_, src)| (dst, src.0))
                    })
                    .collect::<Option<Vec<(u32, u32)>>>()
                else {
                    continue;
                };
                let start = phi_copies.len() as u32;
                let len = copies.len() as u32;
                phi_copies.extend(copies);
                phi_edges.push(PhiEdge { pred, start, len });
            }
        }

        for &v in &insts[phis.len()..] {
            let Some(inst) = f.inst(v) else { continue };
            code.push(decode_inst(f, v.0, inst, &alloca_offsets, &mut operands));
        }
        if let Some(fusion) = fuse.as_deref_mut() {
            fuse_block(&mut code, fusion);
        }
        blocks.push(DecodedBlock {
            code: code.into(),
            phi_edges,
        });
    }

    DecodedFunc {
        frame_size: frame_size(f),
        num_values: f.num_values(),
        blocks,
        operands,
        phi_copies,
        alloca_offsets,
        hoists: Vec::new(),
    }
}

fn decode_inst(
    f: &carat_ir::Function,
    dst: u32,
    inst: &Inst,
    alloca_offsets: &[u64],
    operands: &mut Vec<u32>,
) -> DecodedInst {
    let mut pool = |args: &[carat_ir::ValueId]| {
        let start = operands.len() as u32;
        operands.extend(args.iter().map(|a| a.0));
        OperandRange {
            start,
            len: args.len() as u32,
        }
    };
    match inst {
        Inst::Const(c) => match c {
            Const::Int(x, w) => DecodedInst::ConstI {
                dst,
                val: w.wrap(*x),
            },
            Const::F64(x) => DecodedInst::ConstF { dst, val: *x },
            Const::Null => DecodedInst::ConstNull { dst },
            Const::GlobalAddr(g) => DecodedInst::ConstGlobal { dst, global: g.0 },
        },
        Inst::Alloca(_) => DecodedInst::Alloca {
            dst,
            off: alloca_offsets[dst as usize],
        },
        Inst::Load { ty, addr } => match scalar_class(ty) {
            Some(cls) => DecodedInst::Load {
                dst,
                addr: addr.0,
                cls,
            },
            None => DecodedInst::TrapAggregate { store: false },
        },
        Inst::Store { ty, addr, value } => match scalar_class(ty) {
            Some(cls) => DecodedInst::Store {
                addr: addr.0,
                value: value.0,
                cls,
            },
            None => DecodedInst::TrapAggregate { store: true },
        },
        Inst::PtrAdd { base, index, elem } => DecodedInst::PtrAdd {
            dst,
            base: base.0,
            index: index.0,
            stride: elem.stride(),
        },
        Inst::FieldAddr {
            base,
            struct_ty,
            field,
        } => DecodedInst::FieldAddr {
            dst,
            base: base.0,
            off: struct_ty.field_offset(*field as usize),
        },
        Inst::Bin { op, lhs, rhs } => DecodedInst::Bin {
            dst,
            op: *op,
            lhs: lhs.0,
            rhs: rhs.0,
            // Same resolution as the reference interpreter: the result
            // width follows the left operand's type.
            width: f
                .value_type(*lhs)
                .and_then(|t| t.int_width())
                .unwrap_or(IntTy::I64),
        },
        Inst::Icmp { pred, lhs, rhs } => DecodedInst::Icmp {
            dst,
            pred: *pred,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Fcmp { pred, lhs, rhs } => DecodedInst::Fcmp {
            dst,
            pred: *pred,
            lhs: lhs.0,
            rhs: rhs.0,
        },
        Inst::Cast { kind, value, to } => DecodedInst::Cast {
            dst,
            kind: *kind,
            src: value.0,
            width: to.int_width().unwrap_or(IntTy::I64),
        },
        Inst::Select {
            cond,
            if_true,
            if_false,
        } => DecodedInst::Select {
            dst,
            cond: cond.0,
            if_true: if_true.0,
            if_false: if_false.0,
        },
        // A phi past the leading run never executes in verified IR; decode
        // it as a batch head so the malformed case still traps or resolves
        // through the block's edge table rather than crashing the decoder.
        Inst::Phi { .. } => DecodedInst::PhiBatch,
        Inst::Call { callee, args, .. } => DecodedInst::Call {
            dst,
            callee: callee.0,
            args: pool(args),
        },
        Inst::CallIntrinsic {
            intr: intr @ (Intrinsic::GuardLoad | Intrinsic::GuardStore),
            args,
        } if args.len() == 2 => DecodedInst::Guard {
            gaddr: args[0].0,
            glen: args[1].0,
            imm: 0,
            write: *intr == Intrinsic::GuardStore,
        },
        Inst::CallIntrinsic { intr, args } => DecodedInst::Intrinsic {
            dst,
            intr: *intr,
            args: pool(args),
        },
        Inst::Jmp { target } => DecodedInst::Jmp { target: target.0 },
        Inst::Br {
            cond,
            if_true,
            if_false,
        } => DecodedInst::Br {
            cond: cond.0,
            if_true: if_true.0,
            if_false: if_false.0,
        },
        Inst::Ret { value } => DecodedInst::Ret {
            value: value.map(|v| v.0).unwrap_or(NO_REG),
        },
        Inst::Unreachable => DecodedInst::Unreachable,
    }
}

/// Per-slot action of the threaded transform.
const KEEP: u8 = 0;
const DROP: u8 = 1;
const MARK: u8 = 2;

/// Rewrite one plain-decoded function's streams into the threaded tier's:
/// consume the guard proofs to drop/mark slots and insert hoisted checks,
/// then fuse each block. With nothing to drop, mark or insert — a module
/// with no guards and no tracking calls — the result is the fused decode.
fn thread_func(
    module: &Module,
    f: &carat_ir::Function,
    df: &mut DecodedFunc,
    opts: ThreadedOpts,
    fusion: &mut FusionSummary,
    report: &mut ThreadedReport,
) {
    let nblocks = df.blocks.len();
    let mut actions: Vec<Vec<u8>> = df.blocks.iter().map(|b| vec![KEEP; b.code.len()]).collect();
    let mut inserts: Vec<Vec<DecodedInst>> = vec![Vec::new(); nblocks];

    // Map each non-phi instruction to its decoded slot: the leading phi
    // run collapses into one PhiBatch, so the i-th non-phi instruction
    // sits at slot `(has_phis as usize) + i`.
    let mut slot_of: Vec<Option<(usize, usize)>> = vec![None; f.num_values()];
    for b in f.block_ids() {
        let insts = &f.block(b).insts;
        let nphis = insts
            .iter()
            .take_while(|&&v| matches!(f.inst(v), Some(Inst::Phi { .. })))
            .count();
        let lead = usize::from(nphis > 0);
        for (i, &v) in insts.iter().enumerate().skip(nphis) {
            slot_of[v.index()] = Some((b.index(), lead + (i - nphis)));
        }
    }

    if opts.elide {
        let proofs = carat_analysis::prove_function_in(f, Some(module));
        for (header, reason) in &proofs.skipped_loops {
            report
                .skipped_loops
                .push(format!("{} bb{}: {}", f.name, header.index(), reason));
        }
        for plan in &proofs.loops {
            let mut lrep = LoopReport {
                func: f.name.clone(),
                header: plan.header.index() as u32,
                decisions: Vec::new(),
                rejected: Vec::new(),
            };
            for g in &plan.guards {
                let Some((gb, gs)) = slot_of[g.guard.index()] else {
                    continue;
                };
                actions[gb][gs] = DROP;
                let meta = df.hoists.len() as u32;
                df.hoists.push(HoistedGuardMeta {
                    base: g.base.0,
                    init: plan.init.0,
                    bound: plan.bound.0,
                    bound2: plan.bound_minus.map(|v| v.0).unwrap_or(NO_REG),
                    bound_const: plan.bound_const,
                    inv: g.inv.map(|v| v.0).unwrap_or(NO_REG),
                    coeff: g.coeff,
                    offset: g.offset,
                    elem: g.elem,
                    byte_off: g.byte_off,
                    len: g.len,
                    step: plan.step,
                    inclusive: plan.inclusive,
                    write: g.write,
                    check: opts.hoist,
                });
                inserts[plan.preheader.index()].push(DecodedInst::HoistedGuard { meta });
                report.elided_sites += 1;
                if opts.hoist {
                    report.hoisted_sites += 1;
                }
                let access = if g.write { "store" } else { "load" };
                let fate = if opts.hoist {
                    format!("widened check at bb{}", plan.preheader.index())
                } else {
                    "no hoisted check (ablation)".to_string()
                };
                lrep.decisions.push(match g.kind {
                    carat_analysis::ProofKind::Affine => format!(
                        "v{}: {access} guard elided for whole trip \
                         (affine: base=v{} elem={} coeff={} offset={} len={}); {fate}",
                        g.guard.index(),
                        g.base.index(),
                        g.elem,
                        g.coeff,
                        g.offset,
                        g.len,
                    ),
                    carat_analysis::ProofKind::Invariant => format!(
                        "v{}: {access} guard elided for whole trip \
                         (invariant addr v{}, len={}); {fate}",
                        g.guard.index(),
                        g.base.index(),
                        g.len,
                    ),
                });
            }
            for (v, reason) in &plan.rejected {
                lrep.rejected.push(format!("v{}: {}", v.index(), reason));
            }
            report.loops.push(lrep);
        }
        for v in &proofs.dup_guards {
            if let Some((b, s)) = slot_of[v.index()] {
                actions[b][s] = MARK;
                report.dup_guard_sites += 1;
            }
        }
        for v in &proofs.dup_tracks {
            if let Some((b, s)) = slot_of[v.index()] {
                actions[b][s] = DROP;
                report.track_dedup_sites += 1;
            }
        }

        // Constants whose last use was a removed slot are dead in the
        // threaded stream — but never drop a register a hoisted check
        // reads at runtime.
        let mut pinned = vec![false; f.num_values()];
        for m in &df.hoists {
            for r in [m.base, m.init, m.bound, m.bound2, m.inv] {
                if r != NO_REG {
                    if let Some(p) = pinned.get_mut(r as usize) {
                        *p = true;
                    }
                }
            }
        }
        let mut uses = vec![0u32; f.num_values()];
        for (_, _, inst) in f.insts_in_layout_order() {
            for o in inst.operands() {
                uses[o.index()] += 1;
            }
        }
        let orig_uses = uses.clone();
        for (_, v, inst) in f.insts_in_layout_order() {
            let Some((bi, s)) = slot_of[v.index()] else {
                continue;
            };
            if actions[bi][s] != KEEP {
                for o in inst.operands() {
                    uses[o.index()] -= 1;
                }
            }
        }
        for (_, v, inst) in f.insts_in_layout_order() {
            if !matches!(inst, Inst::Const(_)) {
                continue;
            }
            let Some((bi, s)) = slot_of[v.index()] else {
                continue;
            };
            if actions[bi][s] == KEEP
                && uses[v.index()] == 0
                && orig_uses[v.index()] > 0
                && !pinned[v.index()]
            {
                actions[bi][s] = DROP;
                report.dead_consts += 1;
            }
        }
    }

    // Kept guards whose length is a single-use literal constant get the
    // length embedded as an immediate and the const's slot dropped:
    // the fused baseline still executes (and counts) the const, but the
    // threaded stream has no other consumer for it.
    let mut codes: Vec<Vec<DecodedInst>> = df.blocks.iter().map(|b| b.code.to_vec()).collect();
    let mut uses = vec![0u32; f.num_values()];
    for (_, _, inst) in f.insts_in_layout_order() {
        for o in inst.operands() {
            uses[o.index()] += 1;
        }
    }
    for (gb, code) in codes.iter_mut().enumerate() {
        for (gs, inst) in code.iter_mut().enumerate() {
            let DecodedInst::Guard { glen, imm, .. } = inst else {
                continue;
            };
            if actions[gb][gs] != KEEP || uses[*glen as usize] != 1 {
                continue;
            }
            let Some(Inst::Const(Const::Int(n, _))) = f.inst(carat_ir::ValueId(*glen)) else {
                continue;
            };
            let Ok(n @ 1..) = u32::try_from(*n) else {
                continue;
            };
            let Some((cb, cs)) = slot_of[*glen as usize] else {
                continue;
            };
            if actions[cb][cs] != KEEP {
                continue;
            }
            actions[cb][cs] = DROP;
            (*glen, *imm) = (NO_REG, n);
            report.dead_consts += 1;
        }
    }

    // Apply the actions per block; hoisted checks go right before the
    // preheader's terminator (the last slot, never dropped or marked).
    // A guard given an immediate length keeps no length register, so
    // fusion then pairs only the guards whose length is still in one.
    for ((bi, blk), old) in df.blocks.iter_mut().enumerate().zip(codes) {
        let mut code: Vec<DecodedInst> = Vec::with_capacity(old.len() + inserts[bi].len());
        for (s, &inst) in old.iter().enumerate() {
            if s + 1 == old.len() {
                code.extend(inserts[bi].iter().copied());
            }
            match actions[bi][s] {
                DROP => {}
                MARK => code.push(DecodedInst::ElidedGuard),
                _ => code.push(inst),
            }
        }
        if old.is_empty() {
            code.extend(inserts[bi].iter().copied());
        }
        fuse_block(&mut code, fusion);
        blk.code = code.into();
    }
}

/// Peephole superinstruction fusion over one block's decoded stream, in
/// place.
///
/// The stream keeps its length: a recognized pair's head slot is replaced
/// by the fused variant while the tail slot keeps the original
/// instruction. Execution that lands on a tail slot (branch to the block
/// re-enters at 0, but a mid-pair bail-out or a re-executed blocking
/// instruction resumes at the component boundary) simply runs the unfused
/// form — same semantics, same accounting.
///
/// Pairs never overlap: after fusing at `i` the scan resumes at `i + 2`,
/// so a tail slot is never also a fused head.
fn fuse_block(code: &mut [DecodedInst], fusion: &mut FusionSummary) {
    let mut i = 0;
    while i + 1 < code.len() {
        match try_fuse(code[i], code[i + 1]) {
            Some((fused, kind)) => {
                code[i] = fused;
                fusion.sites[kind as usize] += 1;
                i += 2;
            }
            None => i += 1,
        }
    }
}

/// Recognize one fusable adjacent pair. Immediates that must shrink to
/// fit the 24-byte instruction (strides, field offsets, constants, a
/// guard's immediate length) gate fusion instead of truncating.
fn try_fuse(a: DecodedInst, b: DecodedInst) -> Option<(DecodedInst, FusedKind)> {
    const U32_MAX: u64 = u32::MAX as u64;
    match (a, b) {
        (
            DecodedInst::PtrAdd {
                dst: pdst,
                base,
                index,
                stride,
            },
            DecodedInst::Load { dst, addr, cls },
        ) if addr == pdst && stride <= U32_MAX => Some((
            DecodedInst::FusedPtrAddLoad {
                pdst,
                base,
                index,
                stride: stride as u32,
                dst,
                cls,
            },
            FusedKind::PtrAddLoad,
        )),
        (
            DecodedInst::PtrAdd {
                dst: pdst,
                base,
                index,
                stride,
            },
            DecodedInst::Store { addr, value, cls },
        ) if addr == pdst && stride <= U32_MAX => Some((
            DecodedInst::FusedPtrAddStore {
                pdst,
                base,
                index,
                stride: stride as u32,
                value,
                cls,
            },
            FusedKind::PtrAddStore,
        )),
        (
            DecodedInst::FieldAddr {
                dst: pdst,
                base,
                off,
            },
            DecodedInst::Load { dst, addr, cls },
        ) if addr == pdst && off <= U32_MAX => Some((
            DecodedInst::FusedFieldLoad {
                pdst,
                base,
                off: off as u32,
                dst,
                cls,
            },
            FusedKind::FieldLoad,
        )),
        (
            DecodedInst::FieldAddr {
                dst: pdst,
                base,
                off,
            },
            DecodedInst::Store { addr, value, cls },
        ) if addr == pdst && off <= U32_MAX => Some((
            DecodedInst::FusedFieldStore {
                pdst,
                base,
                off: off as u32,
                value,
                cls,
            },
            FusedKind::FieldStore,
        )),
        (
            DecodedInst::Guard {
                gaddr,
                glen,
                write: false,
                ..
            },
            DecodedInst::Load { dst, addr, cls },
        ) if glen != NO_REG => Some((
            DecodedInst::FusedGuardLoad {
                gaddr,
                glen,
                dst,
                addr,
                cls,
            },
            FusedKind::GuardLoad,
        )),
        (
            DecodedInst::Guard {
                gaddr,
                glen,
                write: true,
                ..
            },
            DecodedInst::Store { addr, value, cls },
        ) if glen != NO_REG => Some((
            DecodedInst::FusedGuardStore {
                gaddr,
                glen,
                addr,
                value,
                cls,
            },
            FusedKind::GuardStore,
        )),
        (
            DecodedInst::Icmp {
                dst: cdst,
                pred,
                lhs,
                rhs,
            },
            DecodedInst::Br {
                cond,
                if_true,
                if_false,
            },
        ) if cond == cdst => Some((
            DecodedInst::FusedIcmpBr {
                cdst,
                pred,
                lhs,
                rhs,
                if_true,
                if_false,
            },
            FusedKind::IcmpBr,
        )),
        (
            DecodedInst::PtrAdd {
                dst: pdst,
                base,
                index,
                stride,
            },
            DecodedInst::ConstI { dst: cdst, val },
        ) if stride <= U32_MAX
            && i32::try_from(val).is_ok()
            && [pdst, base, index, cdst]
                .iter()
                .all(|&r| r <= u16::MAX as u32) =>
        {
            Some((
                DecodedInst::FusedPtrAddConst {
                    pdst: pdst as u16,
                    base: base as u16,
                    index: index as u16,
                    cdst: cdst as u16,
                    stride: stride as u32,
                    imm: val as i32,
                },
                FusedKind::PtrAddConst,
            ))
        }
        (
            DecodedInst::Bin {
                dst: dst1,
                op: op1,
                lhs: lhs1,
                rhs: rhs1,
                width: w1,
            },
            DecodedInst::Bin {
                dst: dst2,
                op: op2,
                lhs: lhs2,
                rhs: rhs2,
                width: w2,
            },
        ) if [dst1, lhs1, rhs1, dst2, lhs2, rhs2]
            .iter()
            .all(|&r| r <= u16::MAX as u32) =>
        {
            Some((
                DecodedInst::FusedBinBin {
                    dst1: dst1 as u16,
                    lhs1: lhs1 as u16,
                    rhs1: rhs1 as u16,
                    dst2: dst2 as u16,
                    lhs2: lhs2 as u16,
                    rhs2: rhs2 as u16,
                    op1,
                    op2,
                    w1,
                    w2,
                },
                FusedKind::BinBin,
            ))
        }
        _ => None,
    }
}

fn scalar_class(ty: &carat_ir::Type) -> Option<ScalarClass> {
    match ty {
        carat_ir::Type::F64 => Some(ScalarClass::F64),
        carat_ir::Type::Ptr => Some(ScalarClass::Ptr),
        carat_ir::Type::Int(w) => Some(ScalarClass::Int(*w)),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_ir::{ModuleBuilder, Type};

    fn plain(m: &Module) -> DecodedProgram {
        DecodedProgram::decode_for(m, Engine::Decoded, ThreadedOpts::default())
    }

    #[test]
    fn decodes_constants_and_allocas() {
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            let slot = b.alloca(Type::I64);
            let x = b.const_i64(7);
            b.store(Type::I64, slot, x);
            let y = b.load(Type::I64, slot);
            b.ret(Some(y));
        }
        let m = mb.finish();
        let prog = plain(&m);
        let f = &prog.funcs[0];
        assert_eq!(f.blocks.len(), 1);
        let code = &f.blocks[0].code;
        assert!(matches!(code[0], DecodedInst::Alloca { off: 0, .. }));
        assert!(matches!(code[1], DecodedInst::ConstI { val: 7, .. }));
        assert!(matches!(code[2], DecodedInst::Store { .. }));
        assert!(matches!(code[3], DecodedInst::Load { .. }));
        assert!(matches!(code[4], DecodedInst::Ret { .. }));
        assert_eq!(f.alloca_offset(code_dst(code[0]) as usize), 0);
    }

    #[test]
    fn phi_blocks_collapse_to_batches() {
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let h = b.block("head");
            let x = b.block("exit");
            b.switch_to(e);
            let z = b.const_i64(0);
            let n = b.const_i64(3);
            let one = b.const_i64(1);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, z)]);
            let c = b.icmp(carat_ir::Pred::Slt, i, n);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, h, i2);
            b.br(c, h, x);
            b.switch_to(x);
            b.ret(Some(i));
        }
        let m = mb.finish();
        let prog = plain(&m);
        let head = &prog.funcs[0].blocks[1];
        assert!(matches!(head.code[0], DecodedInst::PhiBatch));
        assert_eq!(head.phi_edges.len(), 2, "one edge per predecessor");
        for e in &head.phi_edges {
            assert_eq!(e.len, 1, "one copy per phi");
        }
    }

    fn code_dst(i: DecodedInst) -> u32 {
        match i {
            DecodedInst::Alloca { dst, .. } => dst,
            _ => panic!("expected alloca"),
        }
    }

    #[test]
    fn decoded_inst_stays_hot_loop_sized() {
        // The whole fused-variant design is gated on not growing the
        // dispatch stream: immediates that would not fit (strides, field
        // offsets, constants) block fusion instead of growing the enum.
        assert!(
            std::mem::size_of::<DecodedInst>() <= 24,
            "DecodedInst grew past 24 bytes: {}",
            std::mem::size_of::<DecodedInst>()
        );
    }

    #[test]
    fn fusion_same_length_with_original_tails() {
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let x = b.block("exit");
            b.switch_to(e);
            let slot = b.alloca(Type::I64);
            let zero = b.const_i64(0);
            let p = b.ptr_add(slot, zero, Type::I64);
            b.store(Type::I64, p, zero);
            let p2 = b.ptr_add(slot, zero, Type::I64);
            let v = b.load(Type::I64, p2);
            let one = b.const_i64(1);
            let v2 = b.add(v, one);
            let v3 = b.add(v2, one);
            let c = b.icmp(carat_ir::Pred::Slt, v3, one);
            b.br(c, e, x);
            b.switch_to(x);
            b.ret(Some(v3));
        }
        let m = mb.finish();
        let prog = DecodedProgram::decode_with(&m, None);
        let fused = &prog.funcs[0].blocks[0].code;
        let unfused = plain(&m);
        let unfused = &unfused.funcs[0].blocks[0].code;
        assert_eq!(fused.len(), unfused.len(), "fusion keeps the length");
        // Heads fused, tails untouched; a constant feeding a `Bin` is not
        // a pair.
        assert!(matches!(fused[2], DecodedInst::FusedPtrAddStore { .. }));
        assert!(matches!(fused[3], DecodedInst::Store { .. }));
        assert!(matches!(fused[4], DecodedInst::FusedPtrAddLoad { .. }));
        assert!(matches!(fused[5], DecodedInst::Load { .. }));
        assert!(matches!(fused[6], DecodedInst::ConstI { .. }));
        assert!(matches!(fused[7], DecodedInst::FusedBinBin { .. }));
        assert!(matches!(fused[8], DecodedInst::Bin { .. }));
        assert!(matches!(fused[9], DecodedInst::FusedIcmpBr { .. }));
        assert!(matches!(fused[10], DecodedInst::Br { .. }));
        // Every non-head slot is the plain decode's instruction.
        let heads = [2, 4, 7, 9];
        for (i, inst) in fused.iter().enumerate() {
            assert_eq!(
                std::mem::discriminant(inst) == std::mem::discriminant(&unfused[i]),
                !heads.contains(&i),
                "slot {i}: only pair heads differ from the unfused stream"
            );
        }
        assert_eq!(prog.fusion.total(), 4);
        assert_eq!(prog.fusion.sites[FusedKind::PtrAddStore as usize], 1);
        assert_eq!(prog.fusion.sites[FusedKind::BinBin as usize], 1);
        assert_eq!(prog.fusion.sites[FusedKind::IcmpBr as usize], 1);
    }

    /// entry -> header{phi,icmp,br} -> body{guard, load, add} -> exit,
    /// guarding `a[i]` with constant length 8.
    fn guarded_loop_module() -> carat_ir::Module {
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![Type::Ptr, Type::I64], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let h = b.block("header");
            let body = b.block("body");
            let x = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let eight = b.const_i64(8);
            b.jmp(h);
            b.switch_to(h);
            let i = b.phi(Type::I64, vec![(e, zero)]);
            let c = b.icmp(carat_ir::Pred::Slt, i, b.arg(1));
            b.br(c, body, x);
            b.switch_to(body);
            let ai = b.ptr_add(b.arg(0), i, Type::I64);
            b.intr(Intrinsic::GuardLoad, vec![ai, eight]);
            let _ = b.load(Type::I64, ai);
            let i2 = b.add(i, one);
            b.phi_add_incoming(i, body, i2);
            b.jmp(h);
            b.switch_to(x);
            b.ret(Some(i));
        }
        mb.finish()
    }

    #[test]
    fn threaded_elides_loop_guard_and_hoists() {
        let m = guarded_loop_module();
        let prog = DecodedProgram::decode_with(&m, Some(ThreadedOpts::default()));
        let report = prog.threaded.as_ref().unwrap();
        assert_eq!(report.elided_sites, 1);
        assert_eq!(report.hoisted_sites, 1);
        let f = &prog.funcs[0];
        // The guard slot is gone from the body's threaded stream…
        let body = &f.blocks[2].code;
        assert!(
            body.iter().all(|i| !matches!(
                i,
                DecodedInst::Guard { .. } | DecodedInst::FusedGuardLoad { .. }
            )),
            "loop guard must be elided from the threaded stream"
        );
        // …which re-exposes the address/access fusion the guard blocked.
        assert!(body
            .iter()
            .any(|i| matches!(i, DecodedInst::FusedPtrAddLoad { .. })));
        // The widened check sits in the preheader (entry), with the
        // proof's parameters in the side table.
        let entry = &f.blocks[0].code;
        let meta = entry
            .iter()
            .find_map(|i| match i {
                DecodedInst::HoistedGuard { meta } => Some(*meta),
                _ => None,
            })
            .expect("hoisted check in preheader");
        let h = f.hoists[meta as usize];
        assert_eq!(h.elem, 8);
        assert_eq!(h.coeff, 1);
        assert_eq!(h.len, 8);
        assert_eq!(h.step, 1);
        assert!(!h.inclusive && !h.write && h.check);
        // A fused decode of the same module still carries the guard.
        assert!(DecodedProgram::decode_with(&m, None).funcs[0].blocks[2]
            .code
            .iter()
            .any(|i| matches!(i, DecodedInst::FusedGuardLoad { .. })));
    }

    #[test]
    fn threaded_ablation_axes() {
        let m = guarded_loop_module();
        let none = DecodedProgram::decode_with(
            &m,
            Some(ThreadedOpts {
                elide: false,
                hoist: false,
            }),
        );
        let r = none.threaded.as_ref().unwrap();
        assert_eq!((r.elided_sites, r.hoisted_sites), (0, 0));
        assert!(none.funcs[0].hoists.is_empty());

        let elide_only = DecodedProgram::decode_with(
            &m,
            Some(ThreadedOpts {
                elide: true,
                hoist: false,
            }),
        );
        let r = elide_only.threaded.as_ref().unwrap();
        assert_eq!((r.elided_sites, r.hoisted_sites), (1, 0));
        // The accounting slot is still present — it just skips the check.
        assert!(!elide_only.funcs[0].hoists[0].check);
    }

    /// "Threaded = fused + proofs": with no guard to elide or hoist and no
    /// tracking call to dedup, the threaded rewrite has nothing to do and
    /// both recipes end in the same `fuse_block` over the same slots.
    #[test]
    fn threaded_decode_of_an_unguarded_module_is_the_fused_decode() {
        for w in carat_workloads::all_workloads() {
            let m = w.module(carat_workloads::Scale::Test).unwrap();
            let opts = ThreadedOpts::default();
            let fused = DecodedProgram::decode_for(&m, Engine::Fused, opts);
            let threaded = DecodedProgram::decode_for(&m, Engine::Threaded, opts);
            assert_eq!(threaded.fusion.sites, fused.fusion.sites, "{}", w.name);
            for (tf, ff) in threaded.funcs.iter().zip(&fused.funcs) {
                for (b, (tb, fb)) in tf.blocks.iter().zip(&ff.blocks).enumerate() {
                    assert_eq!(
                        format!("{:?}", tb.code),
                        format!("{:?}", fb.code),
                        "{} bb{b}",
                        w.name
                    );
                }
            }
        }
    }

    /// A guard is one decoded instruction: no recipe leaves a two-argument
    /// guard as an intrinsic call, and in the slot-parallel recipes every
    /// static guard is exactly one `Guard` slot or one guard + access head.
    #[test]
    fn every_recipe_decodes_each_guard_to_one_guard_slot() {
        use carat_core::{CaratCompiler, CompileOptions, OptPreset};
        let recipes = [
            (Engine::Decoded, ThreadedOpts::default()),
            (Engine::Fused, ThreadedOpts::default()),
            (Engine::Threaded, ThreadedOpts::default()),
            (
                Engine::Threaded,
                ThreadedOpts {
                    elide: false,
                    hoist: false,
                },
            ),
            (
                Engine::Threaded,
                ThreadedOpts {
                    elide: true,
                    hoist: false,
                },
            ),
        ];
        for w in carat_workloads::all_workloads() {
            for opts in [
                CompileOptions::default(),
                CompileOptions::guards_only(OptPreset::None),
            ] {
                let m = CaratCompiler::new(opts)
                    .compile(w.module(carat_workloads::Scale::Test).unwrap())
                    .unwrap()
                    .module;
                let guards = m
                    .func_ids()
                    .flat_map(|fid| m.func(fid).insts_in_layout_order())
                    .filter(|(_, _, inst)| {
                        matches!(
                            inst,
                            Inst::CallIntrinsic {
                                intr: Intrinsic::GuardLoad | Intrinsic::GuardStore,
                                args,
                            } if args.len() == 2
                        )
                    })
                    .count();
                for (engine, topts) in recipes {
                    let prog = DecodedProgram::decode_for(&m, engine, topts);
                    let code = prog
                        .funcs
                        .iter()
                        .flat_map(|f| &f.blocks)
                        .flat_map(|b| b.code.iter());
                    let mut slots = 0;
                    for inst in code {
                        match inst {
                            DecodedInst::Intrinsic {
                                intr: Intrinsic::GuardLoad | Intrinsic::GuardStore,
                                ..
                            } => panic!("{} {engine:?} {topts:?}: guard intrinsic", w.name),
                            DecodedInst::Guard { .. }
                            | DecodedInst::FusedGuardLoad { .. }
                            | DecodedInst::FusedGuardStore { .. } => slots += 1,
                            _ => {}
                        }
                    }
                    if engine != Engine::Threaded {
                        assert_eq!(slots, guards, "{} {engine:?}", w.name);
                    }
                }
            }
        }
    }

    #[test]
    fn threaded_marks_block_local_duplicate_guard() {
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![Type::Ptr], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            b.switch_to(e);
            let eight = b.const_i64(8);
            b.intr(Intrinsic::GuardLoad, vec![b.arg(0), eight]);
            let v1 = b.load(Type::I64, b.arg(0));
            b.intr(Intrinsic::GuardLoad, vec![b.arg(0), eight]);
            let v2 = b.load(Type::I64, b.arg(0));
            let s = b.add(v1, v2);
            b.ret(Some(s));
        }
        let m = mb.finish();
        let prog = DecodedProgram::decode_with(&m, Some(ThreadedOpts::default()));
        let report = prog.threaded.as_ref().unwrap();
        assert_eq!(report.dup_guard_sites, 1);
        let stream = &prog.funcs[0].blocks[0].code;
        assert_eq!(
            stream
                .iter()
                .filter(|i| matches!(i, DecodedInst::ElidedGuard))
                .count(),
            1
        );
    }

    #[test]
    fn fusion_requires_dataflow_adjacency() {
        // A Br consuming an older compare (not the adjacent one) must not
        // fuse, and neither must a Load from a different pointer.
        let mut mb = ModuleBuilder::new("t");
        let fid = mb.declare("main", vec![], Some(Type::I64));
        {
            let mut b = mb.define(fid);
            let e = b.block("entry");
            let x = b.block("exit");
            b.switch_to(e);
            let zero = b.const_i64(0);
            let one = b.const_i64(1);
            let c_old = b.icmp(carat_ir::Pred::Slt, zero, one);
            let _c_new = b.icmp(carat_ir::Pred::Sgt, zero, one);
            b.br(c_old, x, x);
            b.switch_to(x);
            b.ret(Some(zero));
        }
        let m = mb.finish();
        let prog = DecodedProgram::decode_with(&m, None);
        let blk = &prog.funcs[0].blocks[0];
        assert!(
            blk.code
                .iter()
                .all(|i| !matches!(i, DecodedInst::FusedIcmpBr { .. })),
            "stale compare must not fuse into the branch"
        );
    }
}
