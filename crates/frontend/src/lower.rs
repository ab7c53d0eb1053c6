//! Lowering from the Cm AST to CARAT IR, with on-the-fly SSA construction
//! (the algorithm of Braun et al., "Simple and Efficient Construction of
//! Static Single Assignment Form").
//!
//! Scalar locals whose address is never taken become SSA values — which is
//! what lets the CARAT guard optimizations (loop-invariance, scalar
//! evolution) see through frontend-generated code. Address-taken locals,
//! arrays and structs live in allocas.

use crate::ast::*;
use carat_ir::{
    BinOp, BlockId, CastKind, FuncBuilder, FuncId, GlobalId, GlobalInit, Inst, Intrinsic, Module,
    ModuleBuilder, Pred, Type, ValueId,
};
use std::collections::{HashMap, HashSet};
use std::error::Error;
use std::fmt;

/// Lowering / type-checking failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LowerError {
    /// 1-based source line.
    pub line: usize,
    /// Message.
    pub message: String,
}

impl fmt::Display for LowerError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "error at line {}: {}", self.line, self.message)
    }
}

impl Error for LowerError {}

type Result<T> = std::result::Result<T, LowerError>;

fn err<T>(line: usize, msg: impl Into<String>) -> Result<T> {
    Err(LowerError {
        line,
        message: msg.into(),
    })
}

/// Compile a parsed program into an IR module named `name`.
///
/// # Errors
///
/// Type errors, unknown identifiers, and unsupported constructs produce a
/// [`LowerError`] with the offending source line.
pub fn lower_program(name: &str, prog: &Program) -> Result<Module> {
    // Struct table (order matters for recursive references through Ptr).
    let mut structs: HashMap<String, Vec<(CmType, String)>> = HashMap::new();
    for s in &prog.structs {
        structs.insert(s.name.clone(), s.fields.clone());
    }
    let ctx_structs = structs;

    let mut mb = ModuleBuilder::new(name);
    // Globals.
    let mut globals: HashMap<String, (GlobalId, CmType)> = HashMap::new();
    for g in &prog.globals {
        let ir_ty = ir_type(&g.ty, &ctx_structs, g.line)?;
        let init = match &g.init {
            None => GlobalInit::Zero,
            Some(lits) => global_init(&g.ty, lits, g.line)?,
        };
        let gid = mb.global(g.name.clone(), ir_ty, init);
        globals.insert(g.name.clone(), (gid, g.ty.clone()));
    }
    // Function signatures.
    let mut funcs: HashMap<String, (FuncId, Vec<CmType>, CmType)> = HashMap::new();
    for f in &prog.funcs {
        let params: Vec<Type> = f
            .params
            .iter()
            .map(|(t, _)| ir_type(t, &ctx_structs, f.line))
            .collect::<Result<_>>()?;
        let ret = match &f.ret {
            CmType::Void => None,
            t => Some(ir_type(t, &ctx_structs, f.line)?),
        };
        let fid = mb.declare(f.name.clone(), params, ret);
        funcs.insert(
            f.name.clone(),
            (
                fid,
                f.params.iter().map(|(t, _)| t.clone()).collect(),
                f.ret.clone(),
            ),
        );
    }
    let ctx = Ctx {
        structs: ctx_structs,
        globals,
        funcs,
    };
    // Bodies.
    for f in &prog.funcs {
        let fid = ctx.funcs[&f.name].0;
        {
            let mut fl = FnLower::new(&ctx, mb.define(fid), f)?;
            fl.lower_body()?;
        }
        cleanup_trivial_phis(mb_func(&mut mb, fid));
    }
    let module = mb.finish();
    carat_ir::verify_module(&module).map_err(|e| LowerError {
        line: 0,
        message: format!("internal: lowered module failed verification: {e}"),
    })?;
    Ok(module)
}

fn mb_func(mb: &mut ModuleBuilder, fid: FuncId) -> &mut carat_ir::Function {
    mb.func_mut(fid)
}

/// The Cm compilation context shared by all function lowerings.
struct Ctx {
    structs: HashMap<String, Vec<(CmType, String)>>,
    globals: HashMap<String, (GlobalId, CmType)>,
    funcs: HashMap<String, (FuncId, Vec<CmType>, CmType)>,
}

impl Ctx {
    fn struct_fields(&self, name: &str, line: usize) -> Result<&Vec<(CmType, String)>> {
        self.structs.get(name).ok_or_else(|| LowerError {
            line,
            message: format!("unknown struct `{name}`"),
        })
    }
}

/// Map a Cm type to its IR type.
fn ir_type(
    t: &CmType,
    structs: &HashMap<String, Vec<(CmType, String)>>,
    line: usize,
) -> Result<Type> {
    Ok(match t {
        CmType::Int => Type::I64,
        CmType::Char => Type::I8,
        CmType::Bool => Type::I1,
        CmType::Double => Type::F64,
        CmType::Ptr(_) => Type::Ptr,
        CmType::Void => return err(line, "void has no IR representation"),
        CmType::Struct(name) => {
            let fields = structs.get(name).ok_or_else(|| LowerError {
                line,
                message: format!("unknown struct `{name}`"),
            })?;
            Type::Struct(
                fields
                    .iter()
                    .map(|(ft, _)| ir_type(ft, structs, line))
                    .collect::<Result<_>>()?,
            )
        }
        CmType::Array(elem, n) => Type::Array(Box::new(ir_type(elem, structs, line)?), *n),
    })
}

fn global_init(ty: &CmType, lits: &[GlobalLit], line: usize) -> Result<GlobalInit> {
    let elem = match ty {
        CmType::Array(e, _) => e.as_ref(),
        other => other,
    };
    match elem {
        CmType::Int => Ok(GlobalInit::I64s(
            lits.iter()
                .map(|l| match l {
                    GlobalLit::Int(v) => Ok(*v),
                    GlobalLit::Float(_) => err(line, "float literal in int initializer"),
                })
                .collect::<Result<_>>()?,
        )),
        CmType::Double => Ok(GlobalInit::F64s(
            lits.iter()
                .map(|l| match l {
                    GlobalLit::Float(v) => Ok(*v),
                    GlobalLit::Int(v) => Ok(*v as f64),
                })
                .collect::<Result<_>>()?,
        )),
        other => err(
            line,
            format!("initializers unsupported for {other:?} globals"),
        ),
    }
}

/// How a variable is stored.
#[derive(Debug, Clone)]
enum Storage {
    /// SSA variable slot.
    Ssa(u32),
    /// Stack slot (alloca result).
    Stack(ValueId),
}

#[derive(Debug, Clone)]
struct Variable {
    storage: Storage,
    ty: CmType,
}

/// A value with its Cm type.
#[derive(Debug, Clone)]
struct TV {
    v: ValueId,
    ty: CmType,
}

/// An assignable place.
enum Place {
    Ssa(u32, CmType),
    Mem(ValueId, CmType),
}

struct FnLower<'c, 'm> {
    ctx: &'c Ctx,
    b: FuncBuilder<'m>,
    def: &'c FuncDef,
    scopes: Vec<HashMap<String, Variable>>,
    addr_taken: HashSet<String>,
    // SSA construction state.
    var_types: Vec<CmType>,
    current_def: HashMap<(u32, BlockId), ValueId>,
    incomplete: HashMap<BlockId, Vec<(u32, ValueId)>>,
    sealed: HashSet<BlockId>,
    // Loop targets: (break_to, continue_to).
    loop_stack: Vec<(BlockId, BlockId)>,
}

impl<'c, 'm> FnLower<'c, 'm> {
    fn new(ctx: &'c Ctx, mut b: FuncBuilder<'m>, def: &'c FuncDef) -> Result<FnLower<'c, 'm>> {
        let entry = b.block("entry");
        b.switch_to(entry);
        let mut fl = FnLower {
            ctx,
            b,
            def,
            scopes: vec![HashMap::new()],
            addr_taken: collect_addr_taken(&def.body),
            var_types: Vec::new(),
            current_def: HashMap::new(),
            incomplete: HashMap::new(),
            sealed: HashSet::new(),
            loop_stack: Vec::new(),
        };
        fl.sealed.insert(entry);
        // Bind parameters.
        for (i, (pty, pname)) in def.params.iter().enumerate() {
            let arg = fl.b.arg(i);
            if fl.addr_taken.contains(pname) {
                let ir = ir_type(pty, &fl.ctx.structs, def.line)?;
                let slot = fl.b.alloca(ir.clone());
                fl.b.store(ir, slot, arg);
                fl.declare_var(
                    pname.clone(),
                    Variable {
                        storage: Storage::Stack(slot),
                        ty: pty.clone(),
                    },
                );
            } else {
                let var = fl.new_ssa_var(pty.clone());
                let blk = fl.b.current();
                fl.write_var(var, blk, arg);
                fl.declare_var(
                    pname.clone(),
                    Variable {
                        storage: Storage::Ssa(var),
                        ty: pty.clone(),
                    },
                );
            }
        }
        Ok(fl)
    }

    fn lower_body(&mut self) -> Result<()> {
        let body = self.def.body.clone();
        self.stmts(&body)?;
        // Fall off the end: implicit return.
        if !self.b.is_terminated() {
            match &self.def.ret {
                CmType::Void => self.b.ret(None),
                CmType::Int | CmType::Char | CmType::Bool => {
                    let z = self.zero_of(&self.def.ret.clone());
                    self.b.ret(Some(z));
                }
                CmType::Double => {
                    let z = self.b.const_f64(0.0);
                    self.b.ret(Some(z));
                }
                _ => {
                    let z = self.b.null();
                    self.b.ret(Some(z));
                }
            }
        }
        Ok(())
    }

    // ---- variables & SSA ------------------------------------------------

    fn new_ssa_var(&mut self, ty: CmType) -> u32 {
        self.var_types.push(ty);
        (self.var_types.len() - 1) as u32
    }

    fn declare_var(&mut self, name: String, v: Variable) {
        self.scopes.last_mut().expect("scope").insert(name, v);
    }

    fn lookup(&self, name: &str, line: usize) -> Result<Variable> {
        for scope in self.scopes.iter().rev() {
            if let Some(v) = scope.get(name) {
                return Ok(v.clone());
            }
        }
        err(line, format!("unknown variable `{name}`"))
    }

    fn write_var(&mut self, var: u32, block: BlockId, val: ValueId) {
        self.current_def.insert((var, block), val);
    }

    fn read_var(&mut self, var: u32, block: BlockId) -> ValueId {
        if let Some(&v) = self.current_def.get(&(var, block)) {
            return v;
        }
        let val = if !self.sealed.contains(&block) {
            // Incomplete CFG: placeholder phi filled at seal time.
            let phi = self.insert_phi(block, &self.var_types[var as usize].clone());
            self.incomplete.entry(block).or_default().push((var, phi));
            phi
        } else {
            match *self.b.preds(block) {
                [] => self.zero_of(&self.var_types[var as usize].clone()),
                [p] => self.read_var(var, p),
                ref many => {
                    let preds = many.to_vec();
                    // Break cycles with a self-referencing placeholder.
                    let phi = self.insert_phi(block, &self.var_types[var as usize].clone());
                    self.write_var(var, block, phi);
                    for p in preds {
                        let v = self.read_var(var, p);
                        if let Some(Inst::Phi { incomings, .. }) = self.b.func_mut_inst(phi) {
                            incomings.push((p, v));
                        }
                    }
                    phi
                }
            }
        };
        self.write_var(var, block, val);
        val
    }

    fn seal_block(&mut self, block: BlockId) {
        if !self.sealed.insert(block) {
            return;
        }
        if let Some(pending) = self.incomplete.remove(&block) {
            let preds = self.b.preds(block).to_vec();
            for (var, phi) in pending {
                for &p in &preds {
                    let v = self.read_var(var, p);
                    if let Some(Inst::Phi { incomings, .. }) = self.b.func_mut_inst(phi) {
                        incomings.push((p, v));
                    }
                }
            }
        }
    }

    /// Insert an empty phi at the head of `block` (after existing phis).
    fn insert_phi(&mut self, block: BlockId, ty: &CmType) -> ValueId {
        let ir = scalar_ir(ty);
        let pos = self
            .b
            .func()
            .block(block)
            .insts
            .iter()
            .take_while(|&&v| matches!(self.b.func().inst(v), Some(Inst::Phi { .. })))
            .count();
        self.b.insert_phi_at(block, pos, ir)
    }

    fn zero_of(&mut self, ty: &CmType) -> ValueId {
        match ty {
            CmType::Int => self.b.const_i64(0),
            CmType::Char => self.b.const_i8(0),
            CmType::Bool => self.b.const_bool(false),
            CmType::Double => self.b.const_f64(0.0),
            _ => self.b.null(),
        }
    }

    // ---- statements -----------------------------------------------------

    fn stmts(&mut self, list: &[Stmt]) -> Result<()> {
        for s in list {
            self.stmt(s)?;
        }
        Ok(())
    }

    fn in_scope(&mut self, f: impl FnOnce(&mut Self) -> Result<()>) -> Result<()> {
        self.scopes.push(HashMap::new());
        let r = f(self);
        self.scopes.pop();
        r
    }

    /// If the current block already ended, open a dead block so lowering
    /// can continue (code after `return`).
    fn ensure_open(&mut self) {
        if self.b.is_terminated() {
            let dead = self.b.block("dead");
            self.sealed.insert(dead);
            self.b.switch_to(dead);
        }
    }

    fn stmt(&mut self, s: &Stmt) -> Result<()> {
        self.ensure_open();
        match s {
            Stmt::Decl {
                ty,
                name,
                init,
                line,
            } => self.lower_decl(ty, name, init.as_ref(), *line),
            Stmt::Expr(e) => {
                self.expr(e)?;
                Ok(())
            }
            Stmt::Block(body) => self.in_scope(|fl| fl.stmts(body)),
            Stmt::Return(e, line) => {
                match (&self.def.ret, e) {
                    (CmType::Void, None) => self.b.ret(None),
                    (CmType::Void, Some(_)) => {
                        return err(*line, "returning a value from a void function")
                    }
                    (_, None) => return err(*line, "missing return value"),
                    (rt, Some(e)) => {
                        let rt = rt.clone();
                        let tv = self.expr(e)?;
                        let v = self.convert(tv, &rt, *line)?;
                        self.b.ret(Some(v.v));
                    }
                }
                Ok(())
            }
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => self.lower_if(cond, then_body, else_body),
            Stmt::While { cond, body } => self.lower_while(cond, body),
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => self.in_scope(|fl| {
                if let Some(i) = init {
                    fl.stmt(i)?;
                }
                fl.lower_loop(cond.as_ref(), step.as_ref(), body)
            }),
            Stmt::Break(line) => {
                let (brk, _) = *self.loop_stack.last().ok_or_else(|| LowerError {
                    line: *line,
                    message: "break outside loop".into(),
                })?;
                self.b.jmp(brk);
                Ok(())
            }
            Stmt::Continue(line) => {
                let (_, cont) = *self.loop_stack.last().ok_or_else(|| LowerError {
                    line: *line,
                    message: "continue outside loop".into(),
                })?;
                self.b.jmp(cont);
                Ok(())
            }
        }
    }

    fn lower_decl(
        &mut self,
        ty: &CmType,
        name: &str,
        init: Option<&Expr>,
        line: usize,
    ) -> Result<()> {
        let needs_stack =
            self.addr_taken.contains(name) || matches!(ty, CmType::Array(..) | CmType::Struct(_));
        if needs_stack {
            let ir = ir_type(ty, &self.ctx.structs, line)?;
            let slot = self.b.alloca(ir.clone());
            if let Some(e) = init {
                if ir.is_scalar() {
                    let tv = self.expr(e)?;
                    let cv = self.convert(tv, ty, line)?;
                    self.b.store(ir, slot, cv.v);
                } else {
                    return err(line, "aggregate initializers are not supported");
                }
            }
            self.declare_var(
                name.to_string(),
                Variable {
                    storage: Storage::Stack(slot),
                    ty: ty.clone(),
                },
            );
        } else {
            let var = self.new_ssa_var(ty.clone());
            let val = match init {
                Some(e) => {
                    let tv = self.expr(e)?;
                    self.convert(tv, ty, line)?.v
                }
                None => self.zero_of(ty),
            };
            let blk = self.b.current();
            self.write_var(var, blk, val);
            self.declare_var(
                name.to_string(),
                Variable {
                    storage: Storage::Ssa(var),
                    ty: ty.clone(),
                },
            );
        }
        Ok(())
    }

    fn lower_if(&mut self, cond: &Expr, then_body: &[Stmt], else_body: &[Stmt]) -> Result<()> {
        let c = self.cond_bool(cond)?;
        let then_bb = self.b.block("if.then");
        let else_bb = self.b.block("if.else");
        let join = self.b.block("if.join");
        self.b.br(c, then_bb, else_bb);
        self.sealed.insert(then_bb);
        self.sealed.insert(else_bb);

        self.b.switch_to(then_bb);
        self.in_scope(|fl| fl.stmts(then_body))?;
        if !self.b.is_terminated() {
            self.b.jmp(join);
        }
        self.b.switch_to(else_bb);
        self.in_scope(|fl| fl.stmts(else_body))?;
        if !self.b.is_terminated() {
            self.b.jmp(join);
        }
        self.seal_block(join);
        self.b.switch_to(join);
        // A join with no predecessors (both arms returned) stays as a dead
        // block; terminate it so verification passes.
        if self.b.preds(join).is_empty() {
            self.b.push(Inst::Unreachable);
            let dead = self.b.block("dead");
            self.sealed.insert(dead);
            self.b.switch_to(dead);
        }
        Ok(())
    }

    fn lower_while(&mut self, cond: &Expr, body: &[Stmt]) -> Result<()> {
        self.lower_loop(Some(cond), None, body)
    }

    /// Shared loop shape for `while` and `for`.
    fn lower_loop(
        &mut self,
        cond: Option<&Expr>,
        step: Option<&Expr>,
        body: &[Stmt],
    ) -> Result<()> {
        let header = self.b.block("loop.header");
        let body_bb = self.b.block("loop.body");
        let step_bb = self.b.block("loop.step");
        let exit = self.b.block("loop.exit");
        self.b.jmp(header);

        // Header: unsealed until every latch is known.
        self.b.switch_to(header);
        let c = match cond {
            Some(e) => self.cond_bool(e)?,
            None => self.b.const_bool(true),
        };
        self.b.br(c, body_bb, exit);
        self.sealed.insert(body_bb);

        self.loop_stack.push((exit, step_bb));
        self.b.switch_to(body_bb);
        self.in_scope(|fl| fl.stmts(body))?;
        if !self.b.is_terminated() {
            self.b.jmp(step_bb);
        }
        self.loop_stack.pop();

        // Step block: preds now final (body fallthrough + continues).
        self.seal_block(step_bb);
        self.b.switch_to(step_bb);
        if self.b.preds(step_bb).is_empty() {
            // Body always breaks/returns: the step is dead.
            self.b.push(Inst::Unreachable);
        } else {
            if let Some(e) = step {
                self.expr(e)?;
            }
            self.b.jmp(header);
        }
        self.seal_block(header);
        self.seal_block(exit);
        self.b.switch_to(exit);
        Ok(())
    }

    fn cond_bool(&mut self, e: &Expr) -> Result<ValueId> {
        let tv = self.expr(e)?;
        self.coerce_bool(tv, e.line)
    }

    fn coerce_bool(&mut self, tv: TV, line: usize) -> Result<ValueId> {
        Ok(match &tv.ty {
            CmType::Bool => tv.v,
            CmType::Int | CmType::Char => {
                let z = self.zero_of(&tv.ty);
                self.b.icmp(Pred::Ne, tv.v, z)
            }
            CmType::Double => {
                let z = self.b.const_f64(0.0);
                self.b.fcmp(Pred::Ne, tv.v, z)
            }
            CmType::Ptr(_) => {
                let z = self.b.null();
                self.b.icmp(Pred::Ne, tv.v, z)
            }
            other => return err(line, format!("cannot use {other:?} as a condition")),
        })
    }

    // ---- places ---------------------------------------------------------

    fn place(&mut self, e: &Expr) -> Result<Place> {
        match &e.kind {
            ExprKind::Var(name) => {
                let var = self.lookup(name, e.line);
                match var {
                    Ok(v) => Ok(match v.storage {
                        Storage::Ssa(slot) => Place::Ssa(slot, v.ty),
                        Storage::Stack(addr) => Place::Mem(addr, v.ty),
                    }),
                    Err(_) => {
                        // Global?
                        let (gid, gty) = self
                            .ctx
                            .globals
                            .get(name)
                            .ok_or_else(|| LowerError {
                                line: e.line,
                                message: format!("unknown variable `{name}`"),
                            })?
                            .clone();
                        let addr = self.b.global_addr(gid);
                        Ok(Place::Mem(addr, gty))
                    }
                }
            }
            ExprKind::Deref(inner) => {
                let tv = self.expr(inner)?;
                match tv.ty.clone() {
                    CmType::Ptr(p) => Ok(Place::Mem(tv.v, *p)),
                    other => err(e.line, format!("cannot dereference {other:?}")),
                }
            }
            ExprKind::Index(base, idx) => {
                let base_tv = self.expr(base)?;
                let elem = match base_tv.ty.clone() {
                    CmType::Ptr(p) => *p,
                    other => return err(e.line, format!("cannot index {other:?}")),
                };
                let idx_tv = self.expr(idx)?;
                let i = self.convert(idx_tv, &CmType::Int, e.line)?;
                let ir_elem = ir_type(&elem, &self.ctx.structs, e.line)?;
                let addr = self.b.ptr_add(base_tv.v, i.v, ir_elem);
                Ok(Place::Mem(addr, elem))
            }
            ExprKind::Field { base, field, arrow } => {
                let (base_addr, sname) = if *arrow {
                    let tv = self.expr(base)?;
                    match tv.ty.clone() {
                        CmType::Ptr(inner) => match *inner {
                            CmType::Struct(n) => (tv.v, n),
                            other => {
                                return err(e.line, format!("`->` on non-struct pointer {other:?}"))
                            }
                        },
                        other => return err(e.line, format!("`->` on {other:?}")),
                    }
                } else {
                    match self.place(base)? {
                        Place::Mem(addr, CmType::Struct(n)) => (addr, n),
                        Place::Mem(_, other) => {
                            return err(e.line, format!("`.` on non-struct {other:?}"))
                        }
                        Place::Ssa(..) => {
                            return err(
                                e.line,
                                "`.` on a register variable (structs live in memory)",
                            )
                        }
                    }
                };
                let fields = self.ctx.struct_fields(&sname, e.line)?.clone();
                let idx = fields
                    .iter()
                    .position(|(_, fname)| fname == field)
                    .ok_or_else(|| LowerError {
                        line: e.line,
                        message: format!("struct `{sname}` has no field `{field}`"),
                    })?;
                let st_ir = ir_type(&CmType::Struct(sname), &self.ctx.structs, e.line)?;
                let addr = self.b.field_addr(base_addr, st_ir, idx as u32);
                Ok(Place::Mem(addr, fields[idx].0.clone()))
            }
            _ => err(e.line, "expression is not assignable"),
        }
    }

    /// Read a place as an rvalue (loads from memory; arrays decay).
    fn load_place(&mut self, p: Place, line: usize) -> Result<TV> {
        match p {
            Place::Ssa(var, ty) => {
                let blk = self.b.current();
                let v = self.read_var(var, blk);
                Ok(TV { v, ty })
            }
            Place::Mem(addr, ty) => match &ty {
                CmType::Array(elem, _) => Ok(TV {
                    v: addr,
                    ty: CmType::ptr((**elem).clone()),
                }),
                CmType::Struct(_) => Ok(TV { v: addr, ty }),
                scalar => {
                    let ir = ir_type(scalar, &self.ctx.structs, line)?;
                    let v = self.b.load(ir, addr);
                    Ok(TV { v, ty })
                }
            },
        }
    }

    fn store_place(&mut self, p: &Place, val: TV, line: usize) -> Result<TV> {
        match p {
            Place::Ssa(var, ty) => {
                let cv = self.convert(val, ty, line)?;
                let blk = self.b.current();
                self.write_var(*var, blk, cv.v);
                Ok(cv)
            }
            Place::Mem(addr, ty) => {
                let cv = self.convert(val, ty, line)?;
                let ir = ir_type(ty, &self.ctx.structs, line)?;
                if !ir.is_scalar() {
                    return err(line, "cannot assign aggregates");
                }
                self.b.store(ir, *addr, cv.v);
                Ok(cv)
            }
        }
    }

    // ---- expressions ----------------------------------------------------

    fn expr(&mut self, e: &Expr) -> Result<TV> {
        let line = e.line;
        match &e.kind {
            ExprKind::IntLit(v) => Ok(TV {
                v: self.b.const_i64(*v),
                ty: CmType::Int,
            }),
            ExprKind::FloatLit(v) => Ok(TV {
                v: self.b.const_f64(*v),
                ty: CmType::Double,
            }),
            ExprKind::CharLit(v) => Ok(TV {
                v: self.b.const_i8(*v),
                ty: CmType::Char,
            }),
            ExprKind::BoolLit(v) => Ok(TV {
                v: self.b.const_bool(*v),
                ty: CmType::Bool,
            }),
            ExprKind::NullLit => Ok(TV {
                v: self.b.null(),
                ty: CmType::ptr(CmType::Void),
            }),
            ExprKind::Var(_)
            | ExprKind::Deref(_)
            | ExprKind::Index(..)
            | ExprKind::Field { .. } => {
                let p = self.place(e)?;
                self.load_place(p, line)
            }
            ExprKind::AddrOf(inner) => match self.place(inner)? {
                Place::Mem(addr, ty) => Ok(TV {
                    v: addr,
                    ty: CmType::ptr(ty),
                }),
                Place::Ssa(..) => err(line, "cannot take the address of a register variable"),
            },
            ExprKind::Unary(op, inner) => self.lower_unary(*op, inner, line),
            ExprKind::Binary(op, l, r) => {
                let lt = self.expr(l)?;
                let rt = self.expr(r)?;
                self.lower_binary(*op, lt, rt, line)
            }
            ExprKind::LogicalAnd(l, r) => self.lower_logical(l, r, true, line),
            ExprKind::LogicalOr(l, r) => self.lower_logical(l, r, false, line),
            ExprKind::Assign { target, op, value } => {
                let rhs = self.expr(value)?;
                let p = self.place(target)?;
                let final_val = match op {
                    None => rhs,
                    Some(binop) => {
                        let cur = match &p {
                            Place::Ssa(var, ty) => {
                                let blk = self.b.current();
                                TV {
                                    v: self.read_var(*var, blk),
                                    ty: ty.clone(),
                                }
                            }
                            Place::Mem(addr, ty) => {
                                let ir = ir_type(ty, &self.ctx.structs, line)?;
                                TV {
                                    v: self.b.load(ir, *addr),
                                    ty: ty.clone(),
                                }
                            }
                        };
                        self.lower_binary(*binop, cur, rhs, line)?
                    }
                };
                self.store_place(&p, final_val, line)
            }
            ExprKind::Call { name, args } => self.lower_call(name, args, line),
            ExprKind::Cast(ty, inner) => {
                let tv = self.expr(inner)?;
                self.convert_explicit(tv, ty, line)
            }
            ExprKind::Sizeof(ty) => {
                let ir = ir_type(ty, &self.ctx.structs, line)?;
                Ok(TV {
                    v: self.b.const_i64(ir.size() as i64),
                    ty: CmType::Int,
                })
            }
        }
    }

    fn lower_unary(&mut self, op: UnOp, inner: &Expr, line: usize) -> Result<TV> {
        let tv = self.expr(inner)?;
        match op {
            UnOp::Neg => match &tv.ty {
                CmType::Double => {
                    let z = self.b.const_f64(0.0);
                    Ok(TV {
                        v: self.b.bin(BinOp::Fsub, z, tv.v),
                        ty: CmType::Double,
                    })
                }
                t if t.is_intlike() => {
                    let wide = self.convert(tv, &CmType::Int, line)?;
                    let z = self.b.const_i64(0);
                    Ok(TV {
                        v: self.b.sub(z, wide.v),
                        ty: CmType::Int,
                    })
                }
                other => err(line, format!("cannot negate {other:?}")),
            },
            UnOp::Not => {
                let b = self.coerce_bool(tv, line)?;
                let t = self.b.const_bool(true);
                Ok(TV {
                    v: self.b.bin(BinOp::Xor, b, t),
                    ty: CmType::Bool,
                })
            }
            UnOp::BitNot => {
                let wide = self.convert(tv, &CmType::Int, line)?;
                let m1 = self.b.const_i64(-1);
                Ok(TV {
                    v: self.b.bin(BinOp::Xor, wide.v, m1),
                    ty: CmType::Int,
                })
            }
        }
    }

    fn lower_binary(&mut self, op: BinOpKind, l: TV, r: TV, line: usize) -> Result<TV> {
        // Pointer arithmetic.
        if l.ty.is_ptr() && r.ty.is_intlike() && matches!(op, BinOpKind::Add | BinOpKind::Sub) {
            let elem = match &l.ty {
                CmType::Ptr(p) => (**p).clone(),
                _ => unreachable!(),
            };
            let ir_elem = match &elem {
                CmType::Void => Type::I8,
                t => ir_type(t, &self.ctx.structs, line)?,
            };
            let mut idx = self.convert(r, &CmType::Int, line)?;
            if op == BinOpKind::Sub {
                let z = self.b.const_i64(0);
                idx = TV {
                    v: self.b.sub(z, idx.v),
                    ty: CmType::Int,
                };
            }
            return Ok(TV {
                v: self.b.ptr_add(l.v, idx.v, ir_elem),
                ty: l.ty,
            });
        }
        if l.ty.is_ptr() && r.ty.is_ptr() {
            match op {
                BinOpKind::Sub => {
                    let li = self.b.cast(CastKind::PtrToInt, l.v, Type::I64);
                    let ri = self.b.cast(CastKind::PtrToInt, r.v, Type::I64);
                    let diff = self.b.sub(li, ri);
                    let elem_sz = match &l.ty {
                        CmType::Ptr(p) => match p.as_ref() {
                            CmType::Void => 1,
                            t => ir_type(t, &self.ctx.structs, line)?.stride(),
                        },
                        _ => unreachable!(),
                    };
                    let sz = self.b.const_i64(elem_sz as i64);
                    return Ok(TV {
                        v: self.b.bin(BinOp::Sdiv, diff, sz),
                        ty: CmType::Int,
                    });
                }
                op if op.is_comparison() => {
                    let pred = cmp_pred(op);
                    return Ok(TV {
                        v: self.b.icmp(pred, l.v, r.v),
                        ty: CmType::Bool,
                    });
                }
                _ => return err(line, "invalid pointer operation"),
            }
        }
        if !(l.ty.is_arith() && r.ty.is_arith()) {
            // Allow ptr == null through convert.
            if op.is_comparison() && l.ty.is_ptr() && r.ty.is_ptr() {
                let pred = cmp_pred(op);
                return Ok(TV {
                    v: self.b.icmp(pred, l.v, r.v),
                    ty: CmType::Bool,
                });
            }
            return err(
                line,
                format!("invalid operands to binary op: {:?} and {:?}", l.ty, r.ty),
            );
        }
        // Usual arithmetic conversions.
        let float = matches!(l.ty, CmType::Double) || matches!(r.ty, CmType::Double);
        if float {
            let lf = self.convert(l, &CmType::Double, line)?;
            let rf = self.convert(r, &CmType::Double, line)?;
            if op.is_comparison() {
                return Ok(TV {
                    v: self.b.fcmp(cmp_pred(op), lf.v, rf.v),
                    ty: CmType::Bool,
                });
            }
            let bin = match op {
                BinOpKind::Add => BinOp::Fadd,
                BinOpKind::Sub => BinOp::Fsub,
                BinOpKind::Mul => BinOp::Fmul,
                BinOpKind::Div => BinOp::Fdiv,
                other => return err(line, format!("{other:?} not defined for doubles")),
            };
            return Ok(TV {
                v: self.b.bin(bin, lf.v, rf.v),
                ty: CmType::Double,
            });
        }
        let li = self.convert(l, &CmType::Int, line)?;
        let ri = self.convert(r, &CmType::Int, line)?;
        if op.is_comparison() {
            return Ok(TV {
                v: self.b.icmp(cmp_pred(op), li.v, ri.v),
                ty: CmType::Bool,
            });
        }
        let bin = match op {
            BinOpKind::Add => BinOp::Add,
            BinOpKind::Sub => BinOp::Sub,
            BinOpKind::Mul => BinOp::Mul,
            BinOpKind::Div => BinOp::Sdiv,
            BinOpKind::Rem => BinOp::Srem,
            BinOpKind::And => BinOp::And,
            BinOpKind::Or => BinOp::Or,
            BinOpKind::Xor => BinOp::Xor,
            BinOpKind::Shl => BinOp::Shl,
            BinOpKind::Shr => BinOp::Ashr,
            _ => unreachable!("comparisons handled"),
        };
        Ok(TV {
            v: self.b.bin(bin, li.v, ri.v),
            ty: CmType::Int,
        })
    }

    fn lower_logical(&mut self, l: &Expr, r: &Expr, is_and: bool, line: usize) -> Result<TV> {
        let tmp = self.new_ssa_var(CmType::Bool);
        let lv = self.cond_bool(l)?;
        let cur = self.b.current();
        self.write_var(tmp, cur, lv);
        let rhs_bb = self.b.block(if is_and { "and.rhs" } else { "or.rhs" });
        let join = self.b.block("logical.join");
        if is_and {
            self.b.br(lv, rhs_bb, join);
        } else {
            self.b.br(lv, join, rhs_bb);
        }
        self.sealed.insert(rhs_bb);
        self.b.switch_to(rhs_bb);
        let rv = self.cond_bool(r)?;
        let rcur = self.b.current();
        self.write_var(tmp, rcur, rv);
        self.b.jmp(join);
        self.seal_block(join);
        self.b.switch_to(join);
        let v = self.read_var(tmp, join);
        let _ = line;
        Ok(TV {
            v,
            ty: CmType::Bool,
        })
    }

    fn lower_call(&mut self, name: &str, args: &[Expr], line: usize) -> Result<TV> {
        // Builtins first.
        match name {
            "malloc" => {
                let a = self.one_arg(args, line)?;
                let n = self.convert(a, &CmType::Int, line)?;
                return Ok(TV {
                    v: self.b.malloc(n.v),
                    ty: CmType::ptr(CmType::Void),
                });
            }
            "free" => {
                let a = self.one_arg(args, line)?;
                if !a.ty.is_ptr() {
                    return err(line, "free() expects a pointer");
                }
                self.b.free(a.v);
                return Ok(self.void_value());
            }
            "rand" => {
                if !args.is_empty() {
                    return err(line, "rand() takes no arguments");
                }
                return Ok(TV {
                    v: self.b.intr(Intrinsic::Rand, vec![]),
                    ty: CmType::Int,
                });
            }
            "sqrt" | "exp" | "log" => {
                let a = self.one_arg(args, line)?;
                let x = self.convert(a, &CmType::Double, line)?;
                let intr = match name {
                    "sqrt" => Intrinsic::Sqrt,
                    "exp" => Intrinsic::Exp,
                    _ => Intrinsic::Log,
                };
                return Ok(TV {
                    v: self.b.intr(intr, vec![x.v]),
                    ty: CmType::Double,
                });
            }
            "print_i64" => {
                let a = self.one_arg(args, line)?;
                let x = self.convert(a, &CmType::Int, line)?;
                self.b.intr(Intrinsic::PrintI64, vec![x.v]);
                return Ok(self.void_value());
            }
            "print_f64" => {
                let a = self.one_arg(args, line)?;
                let x = self.convert(a, &CmType::Double, line)?;
                self.b.intr(Intrinsic::PrintF64, vec![x.v]);
                return Ok(self.void_value());
            }
            "memcpy" | "memset" => {
                if args.len() != 3 {
                    return err(line, format!("{name}() takes three arguments"));
                }
                let a0 = self.expr(&args[0])?;
                let a1 = self.expr(&args[1])?;
                let a2 = self.expr(&args[2])?;
                let n = self.convert(a2, &CmType::Int, line)?;
                if name == "memcpy" {
                    if !a0.ty.is_ptr() || !a1.ty.is_ptr() {
                        return err(line, "memcpy() expects pointers");
                    }
                    self.b.intr(Intrinsic::Memcpy, vec![a0.v, a1.v, n.v]);
                } else {
                    if !a0.ty.is_ptr() {
                        return err(line, "memset() expects a pointer");
                    }
                    let byte = self.convert(a1, &CmType::Int, line)?;
                    self.b.intr(Intrinsic::Memset, vec![a0.v, byte.v, n.v]);
                }
                return Ok(self.void_value());
            }
            "abort" => {
                self.b.intr(Intrinsic::Abort, vec![]);
                return Ok(self.void_value());
            }
            "spawn" => {
                // `spawn(worker, arg)` — worker must name an `int(int)`
                // function; the callee travels as a constant function
                // index (Cm has no function pointers, by the CARAT
                // restrictions).
                if args.len() != 2 {
                    return err(line, "spawn(worker, arg) takes two arguments");
                }
                let ExprKind::Var(fname) = &args[0].kind else {
                    return err(line, "spawn's first argument must name a function");
                };
                let (fid, params, ret) = self
                    .ctx
                    .funcs
                    .get(fname)
                    .ok_or_else(|| LowerError {
                        line,
                        message: format!("unknown function `{fname}`"),
                    })?
                    .clone();
                if params != vec![CmType::Int] || ret != CmType::Int {
                    return err(
                        line,
                        format!("`{fname}` must have signature int(int) to be spawned"),
                    );
                }
                let idx = self.b.const_i64(fid.index() as i64);
                let a1 = self.expr(&args[1])?;
                let arg = self.convert(a1, &CmType::Int, line)?;
                return Ok(TV {
                    v: self.b.intr(Intrinsic::Spawn, vec![idx, arg.v]),
                    ty: CmType::Int,
                });
            }
            "join" => {
                let a = self.one_arg(args, line)?;
                let tid = self.convert(a, &CmType::Int, line)?;
                return Ok(TV {
                    v: self.b.intr(Intrinsic::Join, vec![tid.v]),
                    ty: CmType::Int,
                });
            }
            _ => {}
        }
        let (fid, param_tys, ret_ty) = self
            .ctx
            .funcs
            .get(name)
            .ok_or_else(|| LowerError {
                line,
                message: format!("unknown function `{name}`"),
            })?
            .clone();
        if args.len() != param_tys.len() {
            return err(
                line,
                format!(
                    "`{name}` expects {} arguments, got {}",
                    param_tys.len(),
                    args.len()
                ),
            );
        }
        let mut ir_args = Vec::with_capacity(args.len());
        for (a, pt) in args.iter().zip(&param_tys) {
            let tv = self.expr(a)?;
            let cv = self.convert(tv, pt, line)?;
            ir_args.push(cv.v);
        }
        let ret_ir = match &ret_ty {
            CmType::Void => None,
            t => Some(ir_type(t, &self.ctx.structs, line)?),
        };
        let v = self.b.call(fid, ir_args, ret_ir);
        Ok(TV { v, ty: ret_ty })
    }

    fn one_arg(&mut self, args: &[Expr], line: usize) -> Result<TV> {
        if args.len() != 1 {
            return err(line, "expected one argument");
        }
        self.expr(&args[0])
    }

    fn void_value(&mut self) -> TV {
        TV {
            v: self.b.const_i64(0),
            ty: CmType::Void,
        }
    }

    // ---- conversions ----------------------------------------------------

    /// Implicit conversion.
    fn convert(&mut self, tv: TV, to: &CmType, line: usize) -> Result<TV> {
        if &tv.ty == to {
            return Ok(tv);
        }
        match (&tv.ty, to) {
            // Integer width changes.
            (f, t) if f.is_intlike() && t.is_intlike() => {
                let (fk, tk) = (int_rank(f), int_rank(t));
                let v = if tk > fk {
                    self.b.cast(CastKind::Sext, tv.v, scalar_ir(t))
                } else if tk < fk {
                    self.b.cast(CastKind::Trunc, tv.v, scalar_ir(t))
                } else {
                    tv.v
                };
                Ok(TV { v, ty: to.clone() })
            }
            (f, CmType::Double) if f.is_intlike() => {
                let wide = if int_rank(f) < 3 {
                    self.b.cast(CastKind::Sext, tv.v, Type::I64)
                } else {
                    tv.v
                };
                Ok(TV {
                    v: self.b.cast(CastKind::SiToFp, wide, Type::F64),
                    ty: CmType::Double,
                })
            }
            // Pointer ↔ pointer: void* converts freely; identical pointees
            // already matched above.
            (CmType::Ptr(a), CmType::Ptr(b))
                if matches!(a.as_ref(), CmType::Void) || matches!(b.as_ref(), CmType::Void) =>
            {
                Ok(TV {
                    v: tv.v,
                    ty: to.clone(),
                })
            }
            _ => err(
                line,
                format!("cannot implicitly convert {:?} to {to:?}", tv.ty),
            ),
        }
    }

    /// Explicit `(type)` cast: everything `convert` allows, plus
    /// double→int, ptr↔ptr of any pointees, and int↔ptr.
    fn convert_explicit(&mut self, tv: TV, to: &CmType, line: usize) -> Result<TV> {
        if &tv.ty == to {
            return Ok(tv);
        }
        match (&tv.ty, to) {
            (CmType::Double, t) if t.is_intlike() => {
                let i = self.b.cast(CastKind::FpToSi, tv.v, Type::I64);
                let v = if int_rank(t) < 3 {
                    self.b.cast(CastKind::Trunc, i, scalar_ir(t))
                } else {
                    i
                };
                Ok(TV { v, ty: to.clone() })
            }
            (CmType::Ptr(_), CmType::Ptr(_)) => Ok(TV {
                v: tv.v,
                ty: to.clone(),
            }),
            (f, CmType::Ptr(_)) if f.is_intlike() => {
                let wide = self.convert(tv, &CmType::Int, line)?;
                Ok(TV {
                    v: self.b.cast(CastKind::IntToPtr, wide.v, Type::Ptr),
                    ty: to.clone(),
                })
            }
            (CmType::Ptr(_), t) if t.is_intlike() => {
                let i = self.b.cast(CastKind::PtrToInt, tv.v, Type::I64);
                let out = TV {
                    v: i,
                    ty: CmType::Int,
                };
                self.convert(out, to, line)
            }
            _ => self.convert(tv, to, line),
        }
    }
}

fn int_rank(t: &CmType) -> u8 {
    match t {
        CmType::Bool => 1,
        CmType::Char => 2,
        CmType::Int => 3,
        _ => 0,
    }
}

fn cmp_pred(op: BinOpKind) -> Pred {
    match op {
        BinOpKind::Eq => Pred::Eq,
        BinOpKind::Ne => Pred::Ne,
        BinOpKind::Lt => Pred::Slt,
        BinOpKind::Le => Pred::Sle,
        BinOpKind::Gt => Pred::Sgt,
        BinOpKind::Ge => Pred::Sge,
        _ => unreachable!("not a comparison"),
    }
}

/// IR type of a scalar Cm type (no struct lookups needed).
fn scalar_ir(t: &CmType) -> Type {
    match t {
        CmType::Int => Type::I64,
        CmType::Char => Type::I8,
        CmType::Bool => Type::I1,
        CmType::Double => Type::F64,
        _ => Type::Ptr,
    }
}

/// Names whose address is taken anywhere in the function body.
fn collect_addr_taken(body: &[Stmt]) -> HashSet<String> {
    fn walk_expr(e: &Expr, out: &mut HashSet<String>) {
        match &e.kind {
            ExprKind::AddrOf(inner) => {
                if let ExprKind::Var(name) = &inner.kind {
                    out.insert(name.clone());
                }
                walk_expr(inner, out);
            }
            ExprKind::Unary(_, a) | ExprKind::Deref(a) | ExprKind::Cast(_, a) => walk_expr(a, out),
            ExprKind::Binary(_, a, b)
            | ExprKind::LogicalAnd(a, b)
            | ExprKind::LogicalOr(a, b)
            | ExprKind::Index(a, b) => {
                walk_expr(a, out);
                walk_expr(b, out);
            }
            ExprKind::Assign { target, value, .. } => {
                walk_expr(target, out);
                walk_expr(value, out);
            }
            ExprKind::Call { args, .. } => {
                for a in args {
                    walk_expr(a, out);
                }
            }
            ExprKind::Field { base, .. } => walk_expr(base, out),
            _ => {}
        }
    }
    fn walk_stmt(s: &Stmt, out: &mut HashSet<String>) {
        match s {
            Stmt::Decl { init: Some(e), .. } => walk_expr(e, out),
            Stmt::Expr(e) => walk_expr(e, out),
            Stmt::If {
                cond,
                then_body,
                else_body,
            } => {
                walk_expr(cond, out);
                for s in then_body.iter().chain(else_body) {
                    walk_stmt(s, out);
                }
            }
            Stmt::While { cond, body } => {
                walk_expr(cond, out);
                for s in body {
                    walk_stmt(s, out);
                }
            }
            Stmt::For {
                init,
                cond,
                step,
                body,
            } => {
                if let Some(i) = init {
                    walk_stmt(i, out);
                }
                if let Some(c) = cond {
                    walk_expr(c, out);
                }
                if let Some(st) = step {
                    walk_expr(st, out);
                }
                for s in body {
                    walk_stmt(s, out);
                }
            }
            Stmt::Return(Some(e), _) => walk_expr(e, out),
            Stmt::Block(body) => {
                for s in body {
                    walk_stmt(s, out);
                }
            }
            _ => {}
        }
    }
    let mut out = HashSet::new();
    for s in body {
        walk_stmt(s, &mut out);
    }
    out
}

/// Remove trivial phis (all incomings equal, possibly including the phi
/// itself) left behind by SSA construction, to fixpoint.
///
/// Each round scans the phis once in layout order, reading every
/// incoming through the replacements found earlier in the round, then
/// rewrites every operand once through the resolved map — one pass per
/// round instead of one full scan and rewrite per removed phi.
fn cleanup_trivial_phis(f: &mut carat_ir::Function) {
    // `to[v]` is what value `v` is replaced by (itself when kept).
    let mut to: Vec<ValueId> = Vec::new();
    let resolve = |to: &[ValueId], mut v: ValueId| {
        while to[v.index()] != v {
            v = to[v.index()];
        }
        v
    };
    loop {
        to.clear();
        to.extend((0..f.num_values() as u32).map(ValueId));
        let mut removed = false;
        for b in f.block_ids() {
            for &v in &f.block(b).insts {
                let Some(Inst::Phi { incomings, .. }) = f.inst(v) else {
                    continue;
                };
                let mut unique: Option<ValueId> = None;
                let mut trivial = true;
                for (_, iv) in incomings {
                    let iv = resolve(&to, *iv);
                    if iv == v {
                        continue; // self-reference
                    }
                    match unique {
                        None => unique = Some(iv),
                        Some(u) if u == iv => {}
                        Some(_) => {
                            trivial = false;
                            break;
                        }
                    }
                }
                if let (true, Some(u)) = (trivial, unique) {
                    to[v.index()] = u;
                    removed = true;
                }
            }
        }
        if !removed {
            break;
        }
        // Resolve chains once (a phi may be replaced by a phi removed
        // later in the same round), then rewrite every use and drop the
        // removed phis.
        for i in 0..to.len() {
            to[i] = resolve(&to, ValueId(i as u32));
        }
        for i in 0..to.len() {
            if let Some(inst) = f.inst_mut(ValueId(i as u32)) {
                inst.map_operands(|op| to[op.index()]);
            }
        }
        for b in f.block_ids().collect::<Vec<_>>() {
            f.block_mut(b).insts.retain(|v| to[v.index()] == *v);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_program;

    fn compile(src: &str) -> Module {
        let prog = parse_program(src).expect("parses");
        lower_program("test", &prog).expect("lowers")
    }

    #[test]
    fn lowers_minimal_main() {
        let m = compile("int main() { return 7; }");
        assert!(m.main().is_some());
    }

    #[test]
    fn loop_variables_become_phis_not_allocas() {
        let m = compile(
            "int main() { int s = 0; for (int i = 0; i < 10; i += 1) { s += i; } return s; }",
        );
        let f = m.func(m.main().unwrap());
        let allocas = f
            .insts_in_layout_order()
            .filter(|(_, _, i)| matches!(i, Inst::Alloca(_)))
            .count();
        assert_eq!(allocas, 0, "register promotion leaves no allocas");
        let phis = f
            .insts_in_layout_order()
            .filter(|(_, _, i)| matches!(i, Inst::Phi { .. }))
            .count();
        assert!(phis >= 2, "i and s become loop phis (got {phis})");
    }

    #[test]
    fn address_taken_variables_stay_in_memory() {
        let m = compile(
            r#"
            void bump(int* p) { *p = *p + 1; }
            int main() { int x = 1; bump(&x); return x; }
            "#,
        );
        let f = m.func(m.main().unwrap());
        let allocas = f
            .insts_in_layout_order()
            .filter(|(_, _, i)| matches!(i, Inst::Alloca(_)))
            .count();
        assert_eq!(allocas, 1, "&x forces a stack slot");
    }

    #[test]
    fn structs_lower_to_field_accesses() {
        let m = compile(
            r#"
            struct point { double x; double y; };
            double main() {
                struct point p;
                p.x = 1.5;
                p.y = 2.5;
                return p.x + p.y;
            }
            "#,
        );
        let f = m.func(m.main().unwrap());
        let fields = f
            .insts_in_layout_order()
            .filter(|(_, _, i)| matches!(i, Inst::FieldAddr { .. }))
            .count();
        assert!(fields >= 3);
    }

    #[test]
    fn globals_and_indexing() {
        let m = compile(
            r#"
            int table[8] = {1, 2, 3, 4, 5, 6, 7, 8};
            int main() {
                int s = 0;
                for (int i = 0; i < 8; i += 1) { s += table[i]; }
                return s;
            }
            "#,
        );
        assert_eq!(m.num_globals(), 1);
        assert!(matches!(
            m.global(carat_ir::GlobalId(0)).init,
            GlobalInit::I64s(_)
        ));
    }

    #[test]
    fn pointer_arithmetic_and_malloc() {
        let m = compile(
            r#"
            int main() {
                int* a = (int*) malloc(10 * sizeof(int));
                *(a + 3) = 9;
                int v = a[3];
                free(a);
                return v;
            }
            "#,
        );
        carat_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn logical_ops_short_circuit_blocks() {
        let m = compile(
            "int main() { int a = 3; int b = 0; if (a > 0 && b > 0) { return 1; } return 0; }",
        );
        let f = m.func(m.main().unwrap());
        assert!(f.num_blocks() >= 5, "short-circuit creates extra blocks");
    }

    #[test]
    fn type_error_reports_line() {
        let prog = parse_program("int main() {\n  struct foo x;\n  return 0;\n}").unwrap();
        let e = lower_program("t", &prog).unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("foo"));
    }

    #[test]
    fn break_and_continue() {
        let m = compile(
            r#"
            int main() {
                int s = 0;
                for (int i = 0; i < 100; i += 1) {
                    if (i == 10) { break; }
                    if (i % 2 == 0) { continue; }
                    s += i;
                }
                return s;
            }
            "#,
        );
        carat_ir::verify_module(&m).unwrap();
    }

    #[test]
    fn while_with_pointer_chase() {
        let m = compile(
            r#"
            struct node { int val; struct node* next; };
            int sum(struct node* head) {
                int s = 0;
                while (head != null) {
                    s += head->val;
                    head = head->next;
                }
                return s;
            }
            int main() { return sum((struct node*) null); }
            "#,
        );
        carat_ir::verify_module(&m).unwrap();
    }
}
