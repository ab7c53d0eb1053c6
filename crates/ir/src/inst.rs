//! Instructions, constants and intrinsics of the CARAT IR.

use crate::types::{IntTy, Type};
use std::fmt;

/// Identifies a value (SSA register) within a [`Function`](crate::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ValueId(pub u32);

/// Identifies a basic block within a [`Function`](crate::Function).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct BlockId(pub u32);

/// Identifies a function within a [`Module`](crate::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct FuncId(pub u32);

/// Identifies a global variable within a [`Module`](crate::Module).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct GlobalId(pub u32);

impl ValueId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl BlockId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl FuncId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}
impl GlobalId {
    /// The arena index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ValueId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "%{}", self.0)
    }
}
impl fmt::Display for BlockId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb{}", self.0)
    }
}

/// A compile-time constant.
#[derive(Debug, Clone, PartialEq)]
pub enum Const {
    /// Integer constant of a given width (value stored sign-extended).
    Int(i64, IntTy),
    /// Floating-point constant.
    F64(f64),
    /// The null pointer.
    Null,
    /// The address of a global variable (bound at load/patch time).
    GlobalAddr(GlobalId),
}

impl Const {
    /// The type of this constant.
    pub fn ty(&self) -> Type {
        match self {
            Const::Int(_, w) => Type::Int(*w),
            Const::F64(_) => Type::F64,
            Const::Null | Const::GlobalAddr(_) => Type::Ptr,
        }
    }
}

/// Binary integer/float operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinOp {
    /// Integer add.
    Add,
    /// Integer subtract.
    Sub,
    /// Integer multiply.
    Mul,
    /// Signed integer divide.
    Sdiv,
    /// Signed integer remainder.
    Srem,
    /// Unsigned integer divide.
    Udiv,
    /// Unsigned integer remainder.
    Urem,
    /// Bitwise and.
    And,
    /// Bitwise or.
    Or,
    /// Bitwise xor.
    Xor,
    /// Shift left.
    Shl,
    /// Arithmetic (sign-preserving) shift right.
    Ashr,
    /// Logical shift right.
    Lshr,
    /// Float add.
    Fadd,
    /// Float subtract.
    Fsub,
    /// Float multiply.
    Fmul,
    /// Float divide.
    Fdiv,
}

impl BinOp {
    /// Whether this operation consumes and produces floats.
    pub fn is_float(self) -> bool {
        matches!(self, BinOp::Fadd | BinOp::Fsub | BinOp::Fmul | BinOp::Fdiv)
    }

    /// Textual mnemonic, used by the printer and parser.
    pub fn mnemonic(self) -> &'static str {
        match self {
            BinOp::Add => "add",
            BinOp::Sub => "sub",
            BinOp::Mul => "mul",
            BinOp::Sdiv => "sdiv",
            BinOp::Srem => "srem",
            BinOp::Udiv => "udiv",
            BinOp::Urem => "urem",
            BinOp::And => "and",
            BinOp::Or => "or",
            BinOp::Xor => "xor",
            BinOp::Shl => "shl",
            BinOp::Ashr => "ashr",
            BinOp::Lshr => "lshr",
            BinOp::Fadd => "fadd",
            BinOp::Fsub => "fsub",
            BinOp::Fmul => "fmul",
            BinOp::Fdiv => "fdiv",
        }
    }

    /// Parse a mnemonic back into an operation.
    pub fn from_mnemonic(s: &str) -> Option<BinOp> {
        Some(match s {
            "add" => BinOp::Add,
            "sub" => BinOp::Sub,
            "mul" => BinOp::Mul,
            "sdiv" => BinOp::Sdiv,
            "srem" => BinOp::Srem,
            "udiv" => BinOp::Udiv,
            "urem" => BinOp::Urem,
            "and" => BinOp::And,
            "or" => BinOp::Or,
            "xor" => BinOp::Xor,
            "shl" => BinOp::Shl,
            "ashr" => BinOp::Ashr,
            "lshr" => BinOp::Lshr,
            "fadd" => BinOp::Fadd,
            "fsub" => BinOp::Fsub,
            "fmul" => BinOp::Fmul,
            "fdiv" => BinOp::Fdiv,
            _ => return None,
        })
    }
}

/// Comparison predicates (used by both integer and float compares).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Pred {
    /// Equal.
    Eq,
    /// Not equal.
    Ne,
    /// Signed less-than.
    Slt,
    /// Signed less-or-equal.
    Sle,
    /// Signed greater-than.
    Sgt,
    /// Signed greater-or-equal.
    Sge,
    /// Unsigned less-than.
    Ult,
    /// Unsigned greater-or-equal.
    Uge,
}

impl Pred {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            Pred::Eq => "eq",
            Pred::Ne => "ne",
            Pred::Slt => "slt",
            Pred::Sle => "sle",
            Pred::Sgt => "sgt",
            Pred::Sge => "sge",
            Pred::Ult => "ult",
            Pred::Uge => "uge",
        }
    }

    /// Parse a mnemonic back into a predicate.
    pub fn from_mnemonic(s: &str) -> Option<Pred> {
        Some(match s {
            "eq" => Pred::Eq,
            "ne" => Pred::Ne,
            "slt" => Pred::Slt,
            "sle" => Pred::Sle,
            "sgt" => Pred::Sgt,
            "sge" => Pred::Sge,
            "ult" => Pred::Ult,
            "uge" => Pred::Uge,
            _ => return None,
        })
    }
}

/// Scalar conversions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CastKind {
    /// Sign-extend a narrower integer.
    Sext,
    /// Zero-extend a narrower integer.
    Zext,
    /// Truncate a wider integer.
    Trunc,
    /// Signed integer to float.
    SiToFp,
    /// Float to signed integer (truncating).
    FpToSi,
    /// Pointer to i64.
    PtrToInt,
    /// i64 to pointer.
    ///
    /// Note: the verifier forbids producing *function* addresses, so this
    /// cannot forge control flow — one of the CARAT source restrictions.
    IntToPtr,
}

impl CastKind {
    /// Textual mnemonic.
    pub fn mnemonic(self) -> &'static str {
        match self {
            CastKind::Sext => "sext",
            CastKind::Zext => "zext",
            CastKind::Trunc => "trunc",
            CastKind::SiToFp => "sitofp",
            CastKind::FpToSi => "fptosi",
            CastKind::PtrToInt => "ptrtoint",
            CastKind::IntToPtr => "inttoptr",
        }
    }

    /// Parse a mnemonic back into a cast kind.
    pub fn from_mnemonic(s: &str) -> Option<CastKind> {
        Some(match s {
            "sext" => CastKind::Sext,
            "zext" => CastKind::Zext,
            "trunc" => CastKind::Trunc,
            "sitofp" => CastKind::SiToFp,
            "fptosi" => CastKind::FpToSi,
            "ptrtoint" => CastKind::PtrToInt,
            "inttoptr" => CastKind::IntToPtr,
            _ => return None,
        })
    }
}

/// Built-in operations the program can invoke without a user-defined callee.
///
/// The CARAT instrumentation passes inject the `Guard*` and `Track*`
/// intrinsics; the rest form the tiny "libc" the Cm front end exposes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Intrinsic {
    /// `ptr malloc(i64 size)` — heap allocation.
    Malloc,
    /// `void free(ptr)` — heap deallocation.
    Free,
    /// `void carat.guard.load(ptr addr, i64 len)` — verify a prospective
    /// read of `[addr, addr+len)` against the kernel-supplied regions.
    GuardLoad,
    /// `void carat.guard.store(ptr addr, i64 len)` — as above for writes.
    GuardStore,
    /// `void carat.guard.call(i64 frame_size)` — verify the callee's
    /// maximum stack footprint stays within a valid region.
    GuardCall,
    /// `void carat.guard.range(ptr lo, ptr hi, i64 is_write)` — merged
    /// guard covering `[lo, hi)` produced by Opt 2 (guard merging);
    /// `is_write` selects the permission checked.
    GuardRange,
    /// `void carat.track.alloc(ptr addr, i64 size)` — inform the runtime
    /// of a new allocation.
    TrackAlloc,
    /// `void carat.track.free(ptr addr)` — inform the runtime of a free.
    TrackFree,
    /// `void carat.track.escape(ptr dst)` — inform the runtime that a
    /// pointer was just stored at address `dst`.
    TrackEscape,
    /// `i64 rand()` — deterministic xorshift PRNG supplied by the VM.
    Rand,
    /// `f64 sqrt(f64)`.
    Sqrt,
    /// `f64 exp(f64)`.
    Exp,
    /// `f64 log(f64)`.
    Log,
    /// `void print_i64(i64)` — debugging/verification output.
    PrintI64,
    /// `void print_f64(f64)` — debugging/verification output.
    PrintF64,
    /// `void memcpy(ptr dst, ptr src, i64 len)`.
    Memcpy,
    /// `void memset(ptr dst, i64 byte, i64 len)`.
    Memset,
    /// `void abort()` — terminate with a fault.
    Abort,
    /// `i64 spawn(i64 func_index, i64 arg)` — create a thread running the
    /// module function with that index (additional stacks are allocated in
    /// heap memory, paper §2.2); returns the thread id.
    Spawn,
    /// `i64 join(i64 tid)` — wait for a thread and return its result.
    Join,
}

impl Intrinsic {
    /// Return type, if any.
    pub fn ret_ty(self) -> Option<Type> {
        match self {
            Intrinsic::Malloc => Some(Type::Ptr),
            Intrinsic::Rand | Intrinsic::Spawn | Intrinsic::Join => Some(Type::I64),
            Intrinsic::Sqrt | Intrinsic::Exp | Intrinsic::Log => Some(Type::F64),
            _ => None,
        }
    }

    /// Parameter types.
    pub fn param_tys(self) -> Vec<Type> {
        match self {
            Intrinsic::Malloc => vec![Type::I64],
            Intrinsic::Free | Intrinsic::TrackFree | Intrinsic::TrackEscape => vec![Type::Ptr],
            Intrinsic::GuardLoad | Intrinsic::GuardStore | Intrinsic::TrackAlloc => {
                vec![Type::Ptr, Type::I64]
            }
            Intrinsic::GuardCall => vec![Type::I64],
            Intrinsic::GuardRange => vec![Type::Ptr, Type::Ptr, Type::I64],
            Intrinsic::Rand | Intrinsic::Abort => vec![],
            Intrinsic::Sqrt | Intrinsic::Exp | Intrinsic::Log | Intrinsic::PrintF64 => {
                vec![Type::F64]
            }
            Intrinsic::PrintI64 => vec![Type::I64],
            Intrinsic::Memcpy => vec![Type::Ptr, Type::Ptr, Type::I64],
            Intrinsic::Memset => vec![Type::Ptr, Type::I64, Type::I64],
            Intrinsic::Spawn => vec![Type::I64, Type::I64],
            Intrinsic::Join => vec![Type::I64],
        }
    }

    /// Whether this intrinsic is one of the CARAT protection guards.
    pub fn is_guard(self) -> bool {
        matches!(
            self,
            Intrinsic::GuardLoad
                | Intrinsic::GuardStore
                | Intrinsic::GuardCall
                | Intrinsic::GuardRange
        )
    }

    /// Whether this intrinsic is one of the CARAT tracking callbacks.
    pub fn is_track(self) -> bool {
        matches!(
            self,
            Intrinsic::TrackAlloc | Intrinsic::TrackFree | Intrinsic::TrackEscape
        )
    }

    /// Textual name, used by the printer and parser.
    pub fn name(self) -> &'static str {
        match self {
            Intrinsic::Malloc => "malloc",
            Intrinsic::Free => "free",
            Intrinsic::GuardLoad => "carat.guard.load",
            Intrinsic::GuardStore => "carat.guard.store",
            Intrinsic::GuardCall => "carat.guard.call",
            Intrinsic::GuardRange => "carat.guard.range",
            Intrinsic::TrackAlloc => "carat.track.alloc",
            Intrinsic::TrackFree => "carat.track.free",
            Intrinsic::TrackEscape => "carat.track.escape",
            Intrinsic::Rand => "rand",
            Intrinsic::Sqrt => "sqrt",
            Intrinsic::Exp => "exp",
            Intrinsic::Log => "log",
            Intrinsic::PrintI64 => "print_i64",
            Intrinsic::PrintF64 => "print_f64",
            Intrinsic::Memcpy => "memcpy",
            Intrinsic::Memset => "memset",
            Intrinsic::Abort => "abort",
            Intrinsic::Spawn => "spawn",
            Intrinsic::Join => "join",
        }
    }

    /// Parse a name back into an intrinsic.
    pub fn from_name(s: &str) -> Option<Intrinsic> {
        Some(match s {
            "malloc" => Intrinsic::Malloc,
            "free" => Intrinsic::Free,
            "carat.guard.load" => Intrinsic::GuardLoad,
            "carat.guard.store" => Intrinsic::GuardStore,
            "carat.guard.call" => Intrinsic::GuardCall,
            "carat.guard.range" => Intrinsic::GuardRange,
            "carat.track.alloc" => Intrinsic::TrackAlloc,
            "carat.track.free" => Intrinsic::TrackFree,
            "carat.track.escape" => Intrinsic::TrackEscape,
            "rand" => Intrinsic::Rand,
            "sqrt" => Intrinsic::Sqrt,
            "exp" => Intrinsic::Exp,
            "log" => Intrinsic::Log,
            "print_i64" => Intrinsic::PrintI64,
            "print_f64" => Intrinsic::PrintF64,
            "memcpy" => Intrinsic::Memcpy,
            "memset" => Intrinsic::Memset,
            "abort" => Intrinsic::Abort,
            "spawn" => Intrinsic::Spawn,
            "join" => Intrinsic::Join,
            _ => return None,
        })
    }
}

/// The shape of an instruction, independent of its operands — the stable
/// classification used by decoders and per-opcode accounting.
///
/// `Opcode::COUNT` and [`Opcode::index`] make it usable as a dense array
/// index (e.g. an instruction-mix histogram).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
#[repr(u8)]
pub enum Opcode {
    /// [`Inst::Const`].
    Const,
    /// [`Inst::Alloca`].
    Alloca,
    /// [`Inst::Load`].
    Load,
    /// [`Inst::Store`].
    Store,
    /// [`Inst::PtrAdd`].
    PtrAdd,
    /// [`Inst::FieldAddr`].
    FieldAddr,
    /// [`Inst::Bin`].
    Bin,
    /// [`Inst::Icmp`].
    Icmp,
    /// [`Inst::Fcmp`].
    Fcmp,
    /// [`Inst::Cast`].
    Cast,
    /// [`Inst::Select`].
    Select,
    /// [`Inst::Phi`].
    Phi,
    /// [`Inst::Call`].
    Call,
    /// [`Inst::CallIntrinsic`].
    CallIntrinsic,
    /// [`Inst::Jmp`].
    Jmp,
    /// [`Inst::Br`].
    Br,
    /// [`Inst::Ret`].
    Ret,
    /// [`Inst::Unreachable`].
    Unreachable,
}

impl Opcode {
    /// Number of opcodes (the length of [`Opcode::ALL`]).
    pub const COUNT: usize = 18;

    /// Every opcode, in [`Opcode::index`] order.
    pub const ALL: [Opcode; Opcode::COUNT] = [
        Opcode::Const,
        Opcode::Alloca,
        Opcode::Load,
        Opcode::Store,
        Opcode::PtrAdd,
        Opcode::FieldAddr,
        Opcode::Bin,
        Opcode::Icmp,
        Opcode::Fcmp,
        Opcode::Cast,
        Opcode::Select,
        Opcode::Phi,
        Opcode::Call,
        Opcode::CallIntrinsic,
        Opcode::Jmp,
        Opcode::Br,
        Opcode::Ret,
        Opcode::Unreachable,
    ];

    /// Dense index in `0..Opcode::COUNT`.
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable display name.
    pub fn name(self) -> &'static str {
        match self {
            Opcode::Const => "const",
            Opcode::Alloca => "alloca",
            Opcode::Load => "load",
            Opcode::Store => "store",
            Opcode::PtrAdd => "ptradd",
            Opcode::FieldAddr => "fieldaddr",
            Opcode::Bin => "bin",
            Opcode::Icmp => "icmp",
            Opcode::Fcmp => "fcmp",
            Opcode::Cast => "cast",
            Opcode::Select => "select",
            Opcode::Phi => "phi",
            Opcode::Call => "call",
            Opcode::CallIntrinsic => "intrinsic",
            Opcode::Jmp => "jmp",
            Opcode::Br => "br",
            Opcode::Ret => "ret",
            Opcode::Unreachable => "unreachable",
        }
    }
}

/// An IR instruction.
///
/// Instructions that produce a value do so under the [`ValueId`] they were
/// inserted as; the rest (stores, guards, terminators…) produce none.
#[derive(Debug, Clone, PartialEq)]
pub enum Inst {
    /// Materialize a constant.
    Const(Const),
    /// Reserve `ty.size()` bytes in the current stack frame; yields `ptr`.
    Alloca(Type),
    /// Load a scalar of type `ty` from `addr`.
    Load {
        /// Accessed type (must be scalar).
        ty: Type,
        /// Address operand (must be `ptr`).
        addr: ValueId,
    },
    /// Store scalar `value` of type `ty` to `addr`.
    Store {
        /// Accessed type (must be scalar).
        ty: Type,
        /// Address operand.
        addr: ValueId,
        /// Value operand.
        value: ValueId,
    },
    /// `base + index * elem.stride()`; yields `ptr`. The IR's restricted GEP.
    PtrAdd {
        /// Base pointer.
        base: ValueId,
        /// Element index (i64).
        index: ValueId,
        /// Element type whose stride scales the index.
        elem: Type,
    },
    /// `base + struct.field_offset(field)`; yields `ptr`.
    FieldAddr {
        /// Base pointer to a value of `struct_ty`.
        base: ValueId,
        /// The struct type.
        struct_ty: Type,
        /// Field index.
        field: u32,
    },
    /// Two-operand arithmetic/logic.
    Bin {
        /// Operation.
        op: BinOp,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Integer or pointer comparison; yields `i1`.
    Icmp {
        /// Predicate.
        pred: Pred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Float comparison; yields `i1`.
    Fcmp {
        /// Predicate (signed predicates = ordered float comparisons).
        pred: Pred,
        /// Left operand.
        lhs: ValueId,
        /// Right operand.
        rhs: ValueId,
    },
    /// Scalar conversion.
    Cast {
        /// Conversion kind.
        kind: CastKind,
        /// Operand.
        value: ValueId,
        /// Result type.
        to: Type,
    },
    /// `cond ? if_true : if_false`.
    Select {
        /// i1 condition.
        cond: ValueId,
        /// Value when true.
        if_true: ValueId,
        /// Value when false.
        if_false: ValueId,
    },
    /// SSA phi node; must appear at the head of its block.
    Phi {
        /// Result type.
        ty: Type,
        /// `(predecessor, value)` incomings.
        incomings: Vec<(BlockId, ValueId)>,
    },
    /// Direct call to a user function.
    Call {
        /// Callee.
        callee: FuncId,
        /// Arguments.
        args: Vec<ValueId>,
        /// Cached return type (None for void).
        ret_ty: Option<Type>,
    },
    /// Call to a built-in intrinsic.
    CallIntrinsic {
        /// The intrinsic.
        intr: Intrinsic,
        /// Arguments.
        args: Vec<ValueId>,
    },
    /// Unconditional branch.
    Jmp {
        /// Target block.
        target: BlockId,
    },
    /// Conditional branch on an `i1`.
    Br {
        /// Condition.
        cond: ValueId,
        /// Target when true.
        if_true: BlockId,
        /// Target when false.
        if_false: BlockId,
    },
    /// Return from the function.
    Ret {
        /// Optional return value.
        value: Option<ValueId>,
    },
    /// Trap: ends the program with a fault if executed.
    Unreachable,
}

impl Inst {
    /// The [`Opcode`] classifying this instruction.
    pub fn opcode(&self) -> Opcode {
        match self {
            Inst::Const(_) => Opcode::Const,
            Inst::Alloca(_) => Opcode::Alloca,
            Inst::Load { .. } => Opcode::Load,
            Inst::Store { .. } => Opcode::Store,
            Inst::PtrAdd { .. } => Opcode::PtrAdd,
            Inst::FieldAddr { .. } => Opcode::FieldAddr,
            Inst::Bin { .. } => Opcode::Bin,
            Inst::Icmp { .. } => Opcode::Icmp,
            Inst::Fcmp { .. } => Opcode::Fcmp,
            Inst::Cast { .. } => Opcode::Cast,
            Inst::Select { .. } => Opcode::Select,
            Inst::Phi { .. } => Opcode::Phi,
            Inst::Call { .. } => Opcode::Call,
            Inst::CallIntrinsic { .. } => Opcode::CallIntrinsic,
            Inst::Jmp { .. } => Opcode::Jmp,
            Inst::Br { .. } => Opcode::Br,
            Inst::Ret { .. } => Opcode::Ret,
            Inst::Unreachable => Opcode::Unreachable,
        }
    }

    /// The `(predecessor, value)` incomings if this is a phi — a borrow,
    /// unlike [`Inst::operands`], so decoders can walk phis without
    /// allocating.
    pub fn phi_incomings(&self) -> Option<&[(BlockId, ValueId)]> {
        match self {
            Inst::Phi { incomings, .. } => Some(incomings),
            _ => None,
        }
    }

    /// The type of the value this instruction produces, if any.
    ///
    /// `None` for stores, guards, terminators and void calls.
    pub fn result_ty(&self) -> Option<Type> {
        match self {
            Inst::Const(c) => Some(c.ty()),
            Inst::Alloca(_) | Inst::PtrAdd { .. } | Inst::FieldAddr { .. } => Some(Type::Ptr),
            Inst::Load { ty, .. } => Some(ty.clone()),
            Inst::Bin { op, .. } => {
                if op.is_float() {
                    Some(Type::F64)
                } else {
                    None // depends on operand type; resolved by Function::value_type
                }
            }
            Inst::Icmp { .. } | Inst::Fcmp { .. } => Some(Type::I1),
            Inst::Cast { to, .. } => Some(to.clone()),
            Inst::Select { .. } => None, // operand-dependent
            Inst::Phi { ty, .. } => Some(ty.clone()),
            Inst::Call { ret_ty, .. } => ret_ty.clone(),
            Inst::CallIntrinsic { intr, .. } => intr.ret_ty(),
            Inst::Store { .. }
            | Inst::Jmp { .. }
            | Inst::Br { .. }
            | Inst::Ret { .. }
            | Inst::Unreachable => None,
        }
    }

    /// Whether this instruction ends a basic block.
    pub fn is_terminator(&self) -> bool {
        matches!(
            self,
            Inst::Jmp { .. } | Inst::Br { .. } | Inst::Ret { .. } | Inst::Unreachable
        )
    }

    /// All value operands, in a fixed order.
    pub fn operands(&self) -> Vec<ValueId> {
        match self {
            Inst::Const(_) | Inst::Alloca(_) | Inst::Jmp { .. } | Inst::Unreachable => vec![],
            Inst::Load { addr, .. } => vec![*addr],
            Inst::Store { addr, value, .. } => vec![*addr, *value],
            Inst::PtrAdd { base, index, .. } => vec![*base, *index],
            Inst::FieldAddr { base, .. } => vec![*base],
            Inst::Bin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => vec![*lhs, *rhs],
            Inst::Cast { value, .. } => vec![*value],
            Inst::Select {
                cond,
                if_true,
                if_false,
            } => vec![*cond, *if_true, *if_false],
            Inst::Phi { incomings, .. } => incomings.iter().map(|(_, v)| *v).collect(),
            Inst::Call { args, .. } | Inst::CallIntrinsic { args, .. } => args.clone(),
            Inst::Br { cond, .. } => vec![*cond],
            Inst::Ret { value } => value.iter().copied().collect(),
        }
    }

    /// Apply `f` to every value operand in place.
    pub fn map_operands(&mut self, mut f: impl FnMut(ValueId) -> ValueId) {
        match self {
            Inst::Const(_) | Inst::Alloca(_) | Inst::Jmp { .. } | Inst::Unreachable => {}
            Inst::Load { addr, .. } => *addr = f(*addr),
            Inst::Store { addr, value, .. } => {
                *addr = f(*addr);
                *value = f(*value);
            }
            Inst::PtrAdd { base, index, .. } => {
                *base = f(*base);
                *index = f(*index);
            }
            Inst::FieldAddr { base, .. } => *base = f(*base),
            Inst::Bin { lhs, rhs, .. }
            | Inst::Icmp { lhs, rhs, .. }
            | Inst::Fcmp { lhs, rhs, .. } => {
                *lhs = f(*lhs);
                *rhs = f(*rhs);
            }
            Inst::Cast { value, .. } => *value = f(*value),
            Inst::Select {
                cond,
                if_true,
                if_false,
            } => {
                *cond = f(*cond);
                *if_true = f(*if_true);
                *if_false = f(*if_false);
            }
            Inst::Phi { incomings, .. } => {
                for (_, v) in incomings {
                    *v = f(*v);
                }
            }
            Inst::Call { args, .. } | Inst::CallIntrinsic { args, .. } => {
                for a in args {
                    *a = f(*a);
                }
            }
            Inst::Br { cond, .. } => *cond = f(*cond),
            Inst::Ret { value } => {
                if let Some(v) = value {
                    *v = f(*v);
                }
            }
        }
    }

    /// Successor blocks if this is a terminator.
    pub fn successors(&self) -> Vec<BlockId> {
        match self {
            Inst::Jmp { target } => vec![*target],
            Inst::Br {
                if_true, if_false, ..
            } => vec![*if_true, *if_false],
            _ => vec![],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn const_types() {
        assert_eq!(Const::Int(3, IntTy::I32).ty(), Type::I32);
        assert_eq!(Const::F64(1.5).ty(), Type::F64);
        assert_eq!(Const::Null.ty(), Type::Ptr);
        assert_eq!(Const::GlobalAddr(GlobalId(0)).ty(), Type::Ptr);
    }

    #[test]
    fn binop_mnemonic_roundtrip() {
        for op in [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::Sdiv,
            BinOp::Srem,
            BinOp::Udiv,
            BinOp::Urem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::Ashr,
            BinOp::Lshr,
            BinOp::Fadd,
            BinOp::Fsub,
            BinOp::Fmul,
            BinOp::Fdiv,
        ] {
            assert_eq!(BinOp::from_mnemonic(op.mnemonic()), Some(op));
        }
        assert_eq!(BinOp::from_mnemonic("nope"), None);
    }

    #[test]
    fn intrinsic_name_roundtrip() {
        for i in [
            Intrinsic::Malloc,
            Intrinsic::Free,
            Intrinsic::GuardLoad,
            Intrinsic::GuardStore,
            Intrinsic::GuardCall,
            Intrinsic::GuardRange,
            Intrinsic::TrackAlloc,
            Intrinsic::TrackFree,
            Intrinsic::TrackEscape,
            Intrinsic::Rand,
            Intrinsic::Sqrt,
            Intrinsic::Exp,
            Intrinsic::Log,
            Intrinsic::PrintI64,
            Intrinsic::PrintF64,
            Intrinsic::Memcpy,
            Intrinsic::Memset,
            Intrinsic::Abort,
        ] {
            assert_eq!(Intrinsic::from_name(i.name()), Some(i));
        }
    }

    #[test]
    fn guard_and_track_classification() {
        assert!(Intrinsic::GuardLoad.is_guard());
        assert!(Intrinsic::GuardRange.is_guard());
        assert!(!Intrinsic::TrackAlloc.is_guard());
        assert!(Intrinsic::TrackEscape.is_track());
        assert!(!Intrinsic::Malloc.is_track());
    }

    #[test]
    fn operands_and_map() {
        let mut i = Inst::Store {
            ty: Type::I64,
            addr: ValueId(1),
            value: ValueId(2),
        };
        assert_eq!(i.operands(), vec![ValueId(1), ValueId(2)]);
        i.map_operands(|v| ValueId(v.0 + 10));
        assert_eq!(i.operands(), vec![ValueId(11), ValueId(12)]);
    }

    #[test]
    fn terminator_successors() {
        let br = Inst::Br {
            cond: ValueId(0),
            if_true: BlockId(1),
            if_false: BlockId(2),
        };
        assert_eq!(br.successors(), vec![BlockId(1), BlockId(2)]);
        assert!(br.is_terminator());
        assert!(!Inst::Alloca(Type::I64).is_terminator());
        assert!(Inst::Ret { value: None }.successors().is_empty());
    }
}
