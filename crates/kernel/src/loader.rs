//! The CARAT program loader (paper §2.2 "Run-time", load-time steps).
//!
//! At load the kernel: validates the binary's signature and decides
//! whether to trust the producing toolchain; selects regions for code,
//! globals (data + bss) and stack; copies code and initialized data;
//! zeroes bss and the stack; writes the allowed regions into the runtime's
//! landing zone; and performs the *initial patch* binding every global
//! address. Static allocations are registered with the runtime's
//! allocation table at this point.
//!
//! The layout follows the "dark capsule" single-region model (paper §3):
//! stack below data below code below heap, one contiguous run, so the
//! optimal single-region guard applies.

use crate::buddy::BuddyAllocator;
use crate::phys::PhysicalMemory;
use carat_core::sign::{verify_signature, SignatureError, SignedModule, SigningKey};
use carat_ir::{parse_module, GlobalInit, Module, ParseError, VerifyError};
use carat_runtime::{AllocKind, AllocationTable, Perms, Region};
use std::error::Error;
use std::fmt;
use std::rc::Rc;

/// Loader failure.
#[derive(Debug)]
pub enum LoadError {
    /// Signature rejected.
    Signature(SignatureError),
    /// Module text failed to parse.
    Parse(ParseError),
    /// Module failed verification.
    Verify(VerifyError),
    /// Not enough physical memory.
    OutOfMemory,
}

impl fmt::Display for LoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LoadError::Signature(e) => write!(f, "signature: {e}"),
            LoadError::Parse(e) => write!(f, "parse: {e}"),
            LoadError::Verify(e) => write!(f, "verify: {e}"),
            LoadError::OutOfMemory => write!(f, "out of physical memory"),
        }
    }
}

impl Error for LoadError {}

impl From<SignatureError> for LoadError {
    fn from(e: SignatureError) -> LoadError {
        LoadError::Signature(e)
    }
}
impl From<ParseError> for LoadError {
    fn from(e: ParseError) -> LoadError {
        LoadError::Parse(e)
    }
}
impl From<VerifyError> for LoadError {
    fn from(e: VerifyError) -> LoadError {
        LoadError::Verify(e)
    }
}

/// Loader sizing knobs.
#[derive(Debug, Clone, Copy)]
pub struct LoadConfig {
    /// Stack bytes.
    pub stack_size: u64,
    /// Heap arena bytes.
    pub heap_size: u64,
    /// Page size (must match the cost model).
    pub page_size: u64,
}

impl Default for LoadConfig {
    fn default() -> LoadConfig {
        LoadConfig {
            stack_size: 256 * 1024,
            heap_size: 32 * 1024 * 1024,
            page_size: 4096,
        }
    }
}

/// A loaded process image.
#[derive(Debug, Clone)]
pub struct ProcessImage {
    /// The program, shared rather than owned: a fleet of tenants spawned
    /// from one module clones the handle, not the IR (and the decoded
    /// code is shared the same way on the VM side).
    pub module: Rc<Module>,
    /// Physical address of each global, indexed by `GlobalId` — the
    /// patched constant pool (the loader's "initial patch"; updated again
    /// whenever the kernel moves a global).
    pub globals: Vec<u64>,
    /// Code range `(start, len)` — the copied text + runtime image.
    pub code: (u64, u64),
    /// Stack range `(start, len)`; the stack grows down from
    /// `start + len`.
    pub stack: (u64, u64),
    /// Heap arena `(start, len)`.
    pub heap: (u64, u64),
    /// Pages occupied at load completion (Table 2 "Initial Pages").
    pub initial_pages: u64,
    /// Static footprint in bytes (Table 2 "Static Footprint" is reported
    /// in pages of this).
    pub static_footprint: u64,
}

impl ProcessImage {
    /// Top of the initial stack (stacks grow down).
    pub fn stack_top(&self) -> u64 {
        self.stack.0 + self.stack.1
    }

    /// The single contiguous region covering the whole image.
    pub fn capsule_region(&self) -> Region {
        let start = self.stack.0;
        let end = self.heap.0 + self.heap.1;
        Region {
            start,
            len: end - start,
            perms: Perms::RW,
        }
    }

    /// A minimal placeholder image for process-table unit tests.
    #[cfg(test)]
    pub(crate) fn empty_for_tests() -> ProcessImage {
        ProcessImage {
            module: Rc::new(carat_ir::ModuleBuilder::new("empty").finish()),
            globals: Vec::new(),
            code: (0x2000, 0x1000),
            stack: (0x1000, 0x1000),
            heap: (0x3000, 0x1000),
            initial_pages: 3,
            static_footprint: 0x3000,
        }
    }
}

/// Load a signed module: verify provenance, lay out memory, copy and zero
/// sections, register static allocations, return the image.
///
/// # Errors
///
/// See [`LoadError`]. An untrusted or tampered binary never reaches the
/// parser (signature first, exactly as the paper orders the steps).
pub fn load_signed(
    signed: &SignedModule,
    trusted: &[SigningKey],
    mem: &mut PhysicalMemory,
    buddy: &mut BuddyAllocator,
    table: &mut AllocationTable,
    cfg: LoadConfig,
) -> Result<ProcessImage, LoadError> {
    let mut last: Option<SignatureError> = None;
    let ok = trusted.iter().any(|k| match verify_signature(signed, k) {
        Ok(()) => true,
        Err(e) => {
            last = Some(e);
            false
        }
    });
    if !ok {
        return Err(LoadError::Signature(last.unwrap_or(
            SignatureError::UntrustedToolchain("<no trusted keys>".into()),
        )));
    }
    let module = parse_module(&signed.text)?;
    carat_ir::verify_module(&module)?;
    load_image(
        Rc::new(module),
        signed.text.len() as u64,
        mem,
        buddy,
        table,
        cfg,
    )
}

/// Load an unverified module (baseline configurations and tests).
///
/// # Errors
///
/// [`LoadError::Verify`] / [`LoadError::OutOfMemory`].
pub fn load_unsigned(
    module: Module,
    mem: &mut PhysicalMemory,
    buddy: &mut BuddyAllocator,
    table: &mut AllocationTable,
    cfg: LoadConfig,
) -> Result<ProcessImage, LoadError> {
    load_shared(Rc::new(module), mem, buddy, table, cfg)
}

/// [`load_unsigned`] over an already-shared module handle: the fleet
/// spawn path, where thousands of tenants are loaded from one module
/// without cloning the IR per tenant.
///
/// # Errors
///
/// [`LoadError::Verify`] / [`LoadError::OutOfMemory`].
pub fn load_shared(
    module: Rc<Module>,
    mem: &mut PhysicalMemory,
    buddy: &mut BuddyAllocator,
    table: &mut AllocationTable,
    cfg: LoadConfig,
) -> Result<ProcessImage, LoadError> {
    carat_ir::verify_module(&module)?;
    let text_len = carat_ir::print_module(&module).len() as u64;
    load_image(module, text_len, mem, buddy, table, cfg)
}

/// [`load_shared`] for a module the caller has **already verified and
/// measured** — the batch-admission stamp path, where one verification
/// pass covers N tenants. `text_len` must be the
/// `carat_ir::print_module` length of this module (the batch entry point
/// computes it once); passing the same value the sequential path would
/// compute keeps per-tenant images bit-identical between the two paths.
///
/// # Errors
///
/// [`LoadError::OutOfMemory`]. Verification errors cannot occur here —
/// that is the point.
pub fn load_shared_preverified(
    module: Rc<Module>,
    text_len: u64,
    mem: &mut PhysicalMemory,
    buddy: &mut BuddyAllocator,
    table: &mut AllocationTable,
    cfg: LoadConfig,
) -> Result<ProcessImage, LoadError> {
    load_image(module, text_len, mem, buddy, table, cfg)
}

/// The capsule's section sizes, each rounded up to whole pages: stack |
/// data | code | heap, one contiguous run. The one statement of the
/// layout — [`load_image`] allocates and places by it, and fleet
/// admission asks it what a tenant will cost *before* building one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CapsuleLayout {
    stack: u64,
    /// Globals: data + bss.
    data: u64,
    /// Text + runtime image.
    code: u64,
    heap: u64,
}

impl CapsuleLayout {
    /// Lay out `module` (whose `carat_ir::print_module` length is
    /// `text_len`) under `cfg`.
    pub fn of(module: &Module, text_len: u64, cfg: LoadConfig) -> CapsuleLayout {
        let round = |b: u64| b.div_ceil(cfg.page_size) * cfg.page_size;
        let data: u64 = module
            .global_ids()
            .map(|g| {
                let gl = module.global(g);
                align_up(gl.ty.size().max(1), gl.ty.align().max(1)) + 16
            })
            .sum();
        CapsuleLayout {
            stack: round(cfg.stack_size),
            data: round(data.max(1)),
            code: round(text_len.max(1)),
            heap: round(cfg.heap_size),
        }
    }

    /// Total capsule bytes: the length of the loaded image's
    /// [`ProcessImage::capsule_region`], and what admission charges
    /// against [`crate::TenantQuotas::max_resident_bytes`].
    pub fn bytes(&self) -> u64 {
        self.stack + self.data + self.code + self.heap
    }
}

fn load_image(
    module: Rc<Module>,
    text_len: u64,
    mem: &mut PhysicalMemory,
    buddy: &mut BuddyAllocator,
    table: &mut AllocationTable,
    cfg: LoadConfig,
) -> Result<ProcessImage, LoadError> {
    let page = cfg.page_size;
    let layout = CapsuleLayout::of(&module, text_len, cfg);
    let fresh_from = buddy.never_allocated_from();
    let base = buddy
        .alloc_pages(layout.bytes() / page)
        .ok_or(LoadError::OutOfMemory)?;

    let stack = (base, layout.stack);
    let data_base = base + layout.stack;
    let code = (data_base + layout.data, layout.code);
    let heap = (code.0 + layout.code, layout.heap);

    // Zero stack and data (bss semantics); "copy" code. Frames never
    // handed out since boot are still zero, as a kernel's pre-zeroed
    // pages are: only a reused block pays for the fill.
    if base < fresh_from {
        mem.zero(stack.0, layout.stack + layout.data);
    }

    // Place globals and perform the initial patch (bind addresses).
    let mut globals = Vec::with_capacity(module.num_globals());
    let mut cursor = data_base;
    for gid in module.global_ids() {
        let g = module.global(gid);
        cursor = align_up(cursor, g.ty.align().max(1));
        let addr = cursor;
        cursor += g.ty.size().max(1);
        match &g.init {
            GlobalInit::Zero => {}
            GlobalInit::Bytes(bs) => mem.write_bytes(addr, bs),
            GlobalInit::I64s(ws) => {
                for (i, w) in ws.iter().enumerate() {
                    mem.write_uint(addr + i as u64 * 8, *w as u64, 8);
                }
            }
            GlobalInit::F64s(ws) => {
                for (i, w) in ws.iter().enumerate() {
                    mem.write_f64(addr + i as u64 * 8, *w);
                }
            }
        }
        // Static allocations are recorded at load time (paper §4.1.2).
        table.track_alloc(addr, g.ty.size().max(1), AllocKind::Static);
        globals.push(addr);
    }

    // The initial stack is one allocation too (it can move).
    table.track_alloc(stack.0, stack.1, AllocKind::Stack);

    let static_footprint = module.static_footprint();
    let initial_pages = (layout.stack + layout.data + layout.code) / page;
    Ok(ProcessImage {
        module,
        globals,
        code,
        stack,
        heap,
        initial_pages,
        static_footprint,
    })
}

fn align_up(v: u64, a: u64) -> u64 {
    v.div_ceil(a) * a
}

#[cfg(test)]
mod tests {
    use super::*;
    use carat_core::sign::sign_module;
    use carat_ir::{GlobalInit, ModuleBuilder, Type};

    fn sample_module() -> Module {
        let mut mb = ModuleBuilder::new("prog");
        mb.global(
            "zeros",
            Type::Array(Box::new(Type::I64), 100),
            GlobalInit::Zero,
        );
        mb.global(
            "init",
            Type::Array(Box::new(Type::I64), 4),
            GlobalInit::I64s(vec![1, 2, 3, 4]),
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

    fn setup() -> (PhysicalMemory, BuddyAllocator, AllocationTable) {
        let mem = PhysicalMemory::new(128 * 1024 * 1024);
        let buddy = BuddyAllocator::new(0x10000, 16 * 1024, 4096);
        (mem, buddy, AllocationTable::new())
    }

    #[test]
    fn signed_load_roundtrip() {
        let key = SigningKey::from_passphrase("carat-cc", "k");
        let signed = sign_module(&sample_module(), &key);
        let (mut mem, mut buddy, mut table) = setup();
        let img = load_signed(
            &signed,
            &[key],
            &mut mem,
            &mut buddy,
            &mut table,
            LoadConfig::default(),
        )
        .expect("loads");
        // Initialized data visible at the bound global address.
        let init_addr = img.globals[1];
        assert_eq!(mem.read_uint(init_addr + 8, 8), 2);
        // Static allocations + the stack are tracked.
        assert_eq!(table.live(), 3);
        assert!(img.initial_pages > 0);
        assert_eq!(img.static_footprint, 100 * 8 + 4 * 8);
    }

    #[test]
    fn untrusted_signature_rejected() {
        let key = SigningKey::from_passphrase("carat-cc", "k");
        let evil = SigningKey::from_passphrase("carat-cc", "other");
        let signed = sign_module(&sample_module(), &evil);
        let (mut mem, mut buddy, mut table) = setup();
        let err = load_signed(
            &signed,
            &[key],
            &mut mem,
            &mut buddy,
            &mut table,
            LoadConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::Signature(_)));
    }

    #[test]
    fn capsule_region_is_contiguous() {
        let (mut mem, mut buddy, mut table) = setup();
        let img = load_unsigned(
            sample_module(),
            &mut mem,
            &mut buddy,
            &mut table,
            LoadConfig::default(),
        )
        .expect("loads");
        let r = img.capsule_region();
        assert_eq!(r.start, img.stack.0);
        assert_eq!(r.start + r.len, img.heap.0 + img.heap.1);
        // stack < data < code < heap with no gaps.
        assert_eq!(
            img.stack.0 + img.stack.1 + /* data */ (img.code.0 - (img.stack.0 + img.stack.1)),
            img.code.0
        );
        assert_eq!(img.code.0 + img.code.1, img.heap.0);
    }

    #[test]
    fn out_of_memory_is_reported() {
        let mut mem = PhysicalMemory::new(1024 * 1024);
        let mut buddy = BuddyAllocator::new(0, 4, 4096);
        let mut table = AllocationTable::new();
        let err = load_unsigned(
            sample_module(),
            &mut mem,
            &mut buddy,
            &mut table,
            LoadConfig::default(),
        )
        .unwrap_err();
        assert!(matches!(err, LoadError::OutOfMemory));
    }
}
