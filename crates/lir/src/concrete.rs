//! Concrete reference VM for LIR.
//!
//! This is the "vanilla interpreter run" of the paper's workflow: generated
//! test cases are replayed here (outside the symbolic engine) to confirm
//! outcomes and measure line coverage. It is also the differential-testing
//! oracle for the symbolic executor.

use crate::ir::{
    trace_kind, BinOp, Block, FuncId, InputMap, Inst, Intrinsic, MemSize, Operand, Program, Reg,
    Term,
};
use chef_solver::{eval_bin, FxHashMap};

const PAGE_BITS: u64 = 12;
const PAGE_SIZE: usize = 1 << PAGE_BITS;

/// Sparse byte-addressable memory backed by pages. Unmapped bytes read zero.
#[derive(Default, Clone)]
pub struct ConcreteMem {
    pages: FxHashMap<u64, Box<[u8; PAGE_SIZE]>>,
}

impl ConcreteMem {
    /// Empty memory.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reads one byte.
    pub fn read_u8(&self, addr: u64) -> u8 {
        match self.pages.get(&(addr >> PAGE_BITS)) {
            Some(p) => p[(addr & (PAGE_SIZE as u64 - 1)) as usize],
            None => 0,
        }
    }

    /// Writes one byte.
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let page = self
            .pages
            .entry(addr >> PAGE_BITS)
            .or_insert_with(|| Box::new([0u8; PAGE_SIZE]));
        page[(addr & (PAGE_SIZE as u64 - 1)) as usize] = v;
    }

    /// Reads a little-endian u64.
    pub fn read_u64(&self, addr: u64) -> u64 {
        let mut v = 0u64;
        for i in 0..8 {
            v |= (self.read_u8(addr.wrapping_add(i)) as u64) << (8 * i);
        }
        v
    }

    /// Writes a little-endian u64.
    pub fn write_u64(&mut self, addr: u64, v: u64) {
        for i in 0..8 {
            self.write_u8(addr.wrapping_add(i), (v >> (8 * i)) as u8);
        }
    }

    /// Reads `len` bytes.
    pub fn read_bytes(&self, addr: u64, len: u64) -> Vec<u8> {
        (0..len)
            .map(|i| self.read_u8(addr.wrapping_add(i)))
            .collect()
    }

    /// Writes a byte slice.
    pub fn write_bytes(&mut self, addr: u64, bytes: &[u8]) {
        for (i, &b) in bytes.iter().enumerate() {
            self.write_u8(addr.wrapping_add(i as u64), b);
        }
    }
}

/// Structured guest events observed during a run.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuestEvent {
    /// An exception reached the top level, with its class name.
    Exception(String),
    /// The guest entered a code object.
    EnterCode(u64),
    /// Custom marker `(a, b)`.
    Marker(u64, u64),
}

/// How a concrete run ended.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ConcreteStatus {
    /// `halt code` executed.
    Halted(u64),
    /// `end_symbolic(status)` executed.
    EndedSymbolic(u64),
    /// `abort(code)` executed — models an interpreter crash.
    Aborted(u64),
    /// The step budget ran out (used as the paper's hang detector).
    OutOfFuel,
    /// The entry function returned without halting.
    Returned,
}

/// Result of a concrete run.
#[derive(Clone, Debug)]
pub struct ConcreteOutcome {
    /// Exit status.
    pub status: ConcreteStatus,
    /// Instructions executed.
    pub steps: u64,
    /// `(hlpc, opcode)` pairs in execution order, from `log_pc`.
    pub hl_trace: Vec<(u64, u64)>,
    /// Structured guest events.
    pub events: Vec<GuestEvent>,
    /// Output of `debug_print` calls.
    pub debug_output: Vec<String>,
    /// Whether an `assume` was violated (the replay inputs disagree with the
    /// path the test case was generated for).
    pub assume_violated: bool,
}

struct Frame {
    func: FuncId,
    block: usize,
    ip: usize,
    regs: Vec<u64>,
    ret_dst: Option<Reg>,
}

/// Runs a program concretely.
///
/// `inputs` supplies the bytes written by `make_symbolic` (looked up by the
/// buffer name); missing names leave memory unchanged. `fuel` bounds the
/// number of executed instructions; exhaustion yields
/// [`ConcreteStatus::OutOfFuel`], which the Chef layer reports as a hang.
pub fn run_concrete(prog: &Program, inputs: &InputMap, fuel: u64) -> ConcreteOutcome {
    let mut mem = ConcreteMem::new();
    for seg in &prog.data {
        mem.write_bytes(seg.addr, &seg.bytes);
    }
    let entry = prog.func(prog.entry);
    let mut frames = vec![Frame {
        func: prog.entry,
        block: 0,
        ip: 0,
        regs: vec![0; entry.n_regs as usize],
        ret_dst: None,
    }];
    let mut out = ConcreteOutcome {
        status: ConcreteStatus::Returned,
        steps: 0,
        hl_trace: Vec::new(),
        events: Vec::new(),
        debug_output: Vec::new(),
        assume_violated: false,
    };

    'run: while let Some(frame) = frames.last_mut() {
        if out.steps >= fuel {
            out.status = ConcreteStatus::OutOfFuel;
            return out;
        }
        out.steps += 1;
        let func = prog.func(frame.func);
        let block = &func.blocks[frame.block];
        let eval = |regs: &[u64], op: &Operand| -> u64 {
            match op {
                Operand::Reg(r) => regs[r.0 as usize],
                Operand::Imm(v) => *v,
            }
        };
        if frame.ip < block.insts.len() {
            let inst = &block.insts[frame.ip];
            frame.ip += 1;
            match inst {
                Inst::Const { dst, value } => frame.regs[dst.0 as usize] = *value,
                Inst::Mov { dst, src } => frame.regs[dst.0 as usize] = eval(&frame.regs, src),
                Inst::Bin { op, dst, a, b } => {
                    let va = eval(&frame.regs, a);
                    let vb = eval(&frame.regs, b);
                    frame.regs[dst.0 as usize] = eval_bin(*op, 64, va, vb);
                }
                Inst::Not { dst, a } => frame.regs[dst.0 as usize] = !eval(&frame.regs, a),
                Inst::Select { dst, cond, t, f } => {
                    let c = eval(&frame.regs, cond);
                    frame.regs[dst.0 as usize] = if c != 0 {
                        eval(&frame.regs, t)
                    } else {
                        eval(&frame.regs, f)
                    };
                }
                Inst::Load { dst, addr, size } => {
                    let a = eval(&frame.regs, addr);
                    frame.regs[dst.0 as usize] = match size {
                        MemSize::U8 => mem.read_u8(a) as u64,
                        MemSize::U64 => mem.read_u64(a),
                    };
                }
                Inst::Store { addr, value, size } => {
                    let a = eval(&frame.regs, addr);
                    let v = eval(&frame.regs, value);
                    match size {
                        MemSize::U8 => mem.write_u8(a, v as u8),
                        MemSize::U64 => mem.write_u64(a, v),
                    }
                }
                Inst::Call {
                    dst,
                    func: callee,
                    args,
                } => {
                    let callee_fn = prog.func(*callee);
                    let mut regs = vec![0u64; callee_fn.n_regs as usize];
                    for (i, a) in args.iter().enumerate() {
                        regs[i] = eval(&frame.regs, a);
                    }
                    let ret_dst = *dst;
                    let callee = *callee;
                    frames.push(Frame {
                        func: callee,
                        block: 0,
                        ip: 0,
                        regs,
                        ret_dst,
                    });
                }
                Inst::Intrinsic { dst, intr, args } => {
                    let vals: Vec<u64> = args.iter().map(|a| eval(&frame.regs, a)).collect();
                    match intr {
                        Intrinsic::MakeSymbolic => {
                            let (addr, len, name_id) = (vals[0], vals[1], vals[2]);
                            let name = prog.name(name_id);
                            if let Some(bytes) = inputs.get(name) {
                                for i in 0..len {
                                    let b = bytes.get(i as usize).copied().unwrap_or(0);
                                    mem.write_u8(addr.wrapping_add(i), b);
                                }
                            }
                        }
                        Intrinsic::LogPc => out.hl_trace.push((vals[0], vals[1])),
                        Intrinsic::Assume => {
                            if vals[0] == 0 {
                                out.assume_violated = true;
                            }
                        }
                        Intrinsic::IsSymbolic => {
                            if let Some(d) = dst {
                                frame.regs[d.0 as usize] = 0;
                            }
                        }
                        Intrinsic::UpperBound | Intrinsic::Concretize => {
                            if let Some(d) = dst {
                                frame.regs[d.0 as usize] = vals[0];
                            }
                        }
                        Intrinsic::EndSymbolic => {
                            out.status = ConcreteStatus::EndedSymbolic(vals[0]);
                            break 'run;
                        }
                        Intrinsic::Abort => {
                            out.status = ConcreteStatus::Aborted(vals[0]);
                            break 'run;
                        }
                        Intrinsic::TraceEvent => {
                            let ev = match vals[0] {
                                trace_kind::EXCEPTION => {
                                    let bytes = mem.read_bytes(vals[1], vals[2]);
                                    GuestEvent::Exception(
                                        String::from_utf8_lossy(&bytes).into_owned(),
                                    )
                                }
                                trace_kind::ENTER_CODE => GuestEvent::EnterCode(vals[1]),
                                _ => GuestEvent::Marker(vals[1], vals[2]),
                            };
                            out.events.push(ev);
                        }
                        Intrinsic::DebugPrint => {
                            let bytes = mem.read_bytes(vals[0], vals[1]);
                            out.debug_output
                                .push(String::from_utf8_lossy(&bytes).into_owned());
                        }
                    }
                }
            }
            continue;
        }
        // Terminator.
        match &block.term {
            Term::Jump(b) => {
                frame.block = b.0 as usize;
                frame.ip = 0;
            }
            Term::Branch { cond, then_, else_ } => {
                let c = eval(&frame.regs, cond);
                frame.block = if c != 0 { then_.0 } else { else_.0 } as usize;
                frame.ip = 0;
            }
            Term::Switch { on, cases, default } => {
                let v = eval(&frame.regs, on);
                let target = cases
                    .iter()
                    .find(|(cv, _)| *cv == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                frame.block = target.0 as usize;
                frame.ip = 0;
            }
            Term::Ret(val) => {
                let v = val.as_ref().map(|op| eval(&frame.regs, op));
                let ret_dst = frame.ret_dst;
                frames.pop();
                match frames.last_mut() {
                    None => {
                        out.status = ConcreteStatus::Returned;
                        return out;
                    }
                    Some(parent) => {
                        if let (Some(dst), Some(v)) = (ret_dst, v) {
                            parent.regs[dst.0 as usize] = v;
                        }
                    }
                }
            }
            Term::Halt { code } => {
                out.status = ConcreteStatus::Halted(eval(&frame.regs, code));
                return out;
            }
            Term::Unterminated => unreachable!("validated programs are terminated"),
        }
    }
    out
}

// ---------------------------------------------------------------------------
// Segment VM: concrete fast-forward over single-path stretches.
//
// The symbolic executor hands us a mid-execution machine image (frames whose
// registers are either concrete values or opaque symbolic tokens, plus a
// lazily-loaded view of the CoW symbolic memory) and we run the program
// concretely until the next instruction that would consume symbolic data.
// The contract that makes the round trip exact: `interns` records every
// `(width, value)` constant the symbolic executor would have interned while
// executing the same instructions, in the same order, so the caller can
// replay them into its expression pool and keep ExprId allocation — and with
// it snapshots, test inputs, and every downstream artifact — byte-identical
// to the all-symbolic run.
// ---------------------------------------------------------------------------

const SEG_PAGE_BITS: u64 = 10;
const SEG_PAGE_SIZE: usize = 1 << SEG_PAGE_BITS;
const SEG_PAGE_WORDS: usize = SEG_PAGE_SIZE / 64;

/// Source of initial bytes for a fast-forward segment: the symbolic memory
/// viewed through constant-folding. `None` marks a symbolic byte.
pub trait PageSource {
    /// The concrete value of the byte at `addr`, or `None` if it is
    /// symbolic.
    fn byte(&self, addr: u64) -> Option<u8>;
}

/// One overlay page. Opaque outside this module; callers only hold them to
/// recycle allocations between segments (see [`SegMem::with_pool`]).
pub struct SegPage {
    bytes: Box<[u8; SEG_PAGE_SIZE]>,
    loaded: [u64; SEG_PAGE_WORDS],
    dirty: [u64; SEG_PAGE_WORDS],
}

impl SegPage {
    fn new() -> Self {
        SegPage {
            bytes: Box::new([0u8; SEG_PAGE_SIZE]),
            loaded: [0; SEG_PAGE_WORDS],
            dirty: [0; SEG_PAGE_WORDS],
        }
    }

    /// Makes a recycled page indistinguishable from a fresh one: with both
    /// bitmaps clear, stale `bytes` are unreachable (every read checks
    /// `loaded` first), so only the bitmaps need zeroing — 1/4 of the
    /// allocate-and-memset cost of [`SegPage::new`].
    fn reset(&mut self) {
        self.loaded = [0; SEG_PAGE_WORDS];
        self.dirty = [0; SEG_PAGE_WORDS];
    }
}

/// Byte-addressable segment memory: an overlay of concrete writes on top of
/// a [`PageSource`], tracking exactly which bytes were written so the caller
/// can fold them back into symbolic memory.
///
/// Pages live in a vector with a hash index; a one-entry cache of the last
/// touched page turns the hot case (consecutive accesses within a page)
/// into a direct vector index instead of a hash lookup per byte.
pub struct SegMem<'a> {
    src: &'a dyn PageSource,
    index: FxHashMap<u64, usize>,
    pages: Vec<(u64, SegPage)>,
    last: (u64, usize),
    pool: Vec<SegPage>,
}

impl<'a> SegMem<'a> {
    /// Empty overlay over `src`.
    pub fn new(src: &'a dyn PageSource) -> Self {
        Self::with_pool(src, Vec::new())
    }

    /// Empty overlay that draws page allocations from `pool` (as returned
    /// by [`SegMem::drain`]) before heap-allocating fresh ones. Segments run
    /// back to back touch similar page counts, so recycling turns the
    /// per-attempt page cost from allocate-and-zero into a bitmap clear.
    pub fn with_pool(src: &'a dyn PageSource, pool: Vec<SegPage>) -> Self {
        SegMem {
            src,
            index: FxHashMap::default(),
            pages: Vec::new(),
            last: (u64::MAX, usize::MAX),
            pool,
        }
    }

    fn page_idx(&mut self, key: u64) -> usize {
        if self.last.0 == key {
            return self.last.1;
        }
        let idx = match self.index.entry(key) {
            std::collections::hash_map::Entry::Occupied(e) => *e.get(),
            std::collections::hash_map::Entry::Vacant(e) => {
                let idx = self.pages.len();
                e.insert(idx);
                let page = match self.pool.pop() {
                    Some(mut p) => {
                        p.reset();
                        p
                    }
                    None => SegPage::new(),
                };
                self.pages.push((key, page));
                idx
            }
        };
        self.last = (key, idx);
        idx
    }

    /// Reads one byte; `None` means the byte is symbolic in the backing
    /// memory and has not been concretely overwritten.
    pub fn read_u8(&mut self, addr: u64) -> Option<u8> {
        let off = (addr & (SEG_PAGE_SIZE as u64 - 1)) as usize;
        let idx = self.page_idx(addr >> SEG_PAGE_BITS);
        let page = &mut self.pages[idx].1;
        if page.loaded[off / 64] >> (off % 64) & 1 == 1 {
            return Some(page.bytes[off]);
        }
        let b = self.src.byte(addr)?;
        let page = &mut self.pages[idx].1;
        page.bytes[off] = b;
        page.loaded[off / 64] |= 1 << (off % 64);
        Some(b)
    }

    /// Reads one byte, substituting `b'?'` for symbolic bytes — mirrors the
    /// symbolic executor's lossy string reads in `trace_event`.
    pub fn read_u8_lossy(&mut self, addr: u64) -> u8 {
        self.read_u8(addr).unwrap_or(b'?')
    }

    /// Writes one byte (concretizes it in the overlay).
    pub fn write_u8(&mut self, addr: u64, v: u8) {
        let off = (addr & (SEG_PAGE_SIZE as u64 - 1)) as usize;
        let idx = self.page_idx(addr >> SEG_PAGE_BITS);
        let page = &mut self.pages[idx].1;
        page.bytes[off] = v;
        page.loaded[off / 64] |= 1 << (off % 64);
        page.dirty[off / 64] |= 1 << (off % 64);
    }

    /// All bytes written during the segment, as `(addr, value)` in address
    /// order.
    pub fn into_dirty(self) -> Vec<(u64, u8)> {
        self.drain().0
    }

    /// [`SegMem::into_dirty`], plus every page allocation this overlay used
    /// (touched and pooled alike) for the caller to feed into the next
    /// segment's [`SegMem::with_pool`].
    pub fn drain(self) -> (Vec<(u64, u8)>, Vec<SegPage>) {
        let mut pages = self.pages;
        pages.sort_unstable_by_key(|(k, _)| *k);
        let mut out = Vec::new();
        for (k, page) in &pages {
            for (wi, &word) in page.dirty.iter().enumerate() {
                let mut bits = word;
                while bits != 0 {
                    let off = wi * 64 + bits.trailing_zeros() as usize;
                    out.push(((k << SEG_PAGE_BITS) | off as u64, page.bytes[off]));
                    bits &= bits - 1;
                }
            }
        }
        let mut pool = self.pool;
        pool.extend(pages.into_iter().map(|(_, p)| p));
        (out, pool)
    }
}

/// One call frame of the segment machine. Registers hold either concrete
/// values or opaque symbolic tokens (the caller's expression ids); the `sym`
/// bitmap says which. Token-holding registers can only be copied
/// (`mov`/call args/`ret`/`select` arms) — any computation on one stops the
/// segment.
pub struct SegFrame {
    /// Function this frame executes.
    pub func: FuncId,
    /// Current block index.
    pub block: usize,
    /// Next instruction index within the block (== `insts.len()` at a
    /// terminator).
    pub ip: usize,
    /// Register values, or symbolic tokens where `sym` is set.
    pub regs: Vec<u64>,
    /// Bitmap over `regs`: bit `r` set means register `r` holds a token.
    pub sym: Vec<u64>,
    /// Bitmap over `regs`: bit `r` set means the segment wrote register
    /// `r`. Registers with the bit clear still hold exactly what the
    /// caller seeded, so the caller can skip converting them back.
    pub wr: Vec<u64>,
    /// Caller register receiving this frame's return value.
    pub ret_dst: Option<Reg>,
}

impl SegFrame {
    /// A frame with `n_regs` zeroed, fully concrete registers.
    pub fn new(func: FuncId, block: usize, ip: usize, n_regs: usize, ret_dst: Option<Reg>) -> Self {
        SegFrame {
            func,
            block,
            ip,
            regs: vec![0; n_regs],
            sym: vec![0; n_regs.div_ceil(64)],
            wr: vec![0; n_regs.div_ceil(64)],
            ret_dst,
        }
    }

    /// Writes register `r`, updating the symbolic and written bitmaps.
    pub fn write(&mut self, r: u32, v: u64, s: bool) {
        self.regs[r as usize] = v;
        self.set_sym(r, s);
        self.wr[r as usize / 64] |= 1 << (r % 64);
    }

    /// Whether the segment wrote register `r`.
    pub fn is_written(&self, r: u32) -> bool {
        self.wr[r as usize / 64] >> (r % 64) & 1 == 1
    }

    /// Whether the segment wrote no register of this frame.
    pub fn untouched(&self) -> bool {
        self.wr.iter().all(|&w| w == 0)
    }

    /// Whether register `r` holds a symbolic token.
    pub fn is_sym(&self, r: u32) -> bool {
        self.sym[r as usize / 64] >> (r % 64) & 1 == 1
    }

    /// Marks register `r` as holding a symbolic token (or clears the mark).
    pub fn set_sym(&mut self, r: u32, s: bool) {
        if s {
            self.sym[r as usize / 64] |= 1 << (r % 64);
        } else {
            self.sym[r as usize / 64] &= !(1 << (r % 64));
        }
    }
}

/// Supplies caller frames lying *below* the segment's working stack, on
/// demand. The caller seeds [`run_segment`] with only the top of its frame
/// stack; when a `ret` needs the next-deeper frame, the VM asks for it
/// here. Deep stacks thus cost nothing unless the segment actually returns
/// into them — the common case converts one frame instead of dozens.
pub trait FrameSource {
    /// Converts and returns the next-deeper caller frame, or `None` when
    /// the working stack already contains the program's entry frame.
    fn pop_into(&mut self) -> Option<SegFrame>;
}

/// A [`FrameSource`] with no frames: the seeded stack is the whole stack.
pub struct NoCallers;

impl FrameSource for NoCallers {
    fn pop_into(&mut self) -> Option<SegFrame> {
        None
    }
}

/// Why a fast-forward segment stopped.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SegStop {
    /// The instruction at `ip` consumes live symbolic register data (a
    /// `Bin`/`Not`/`Select` operand, a symbolic address or store value).
    /// Such stops cluster: nearby instructions tend to touch the same
    /// symbolic values, so the caller should back off before retrying.
    Boundary,
    /// The instruction at `ip` is a one-shot symbolic event — a
    /// `make_symbolic`, solver-backed intrinsic, fork, or path terminator.
    /// The symbolic executor handles it in a single step, after which
    /// fast-forwarding is immediately worthwhile again.
    Event,
    /// A load with a concrete address hit a symbolic memory byte
    /// mid-segment; the load must be re-executed symbolically.
    TaintedLoad,
    /// The caller's fuel bound ran out mid-segment.
    OutOfFuel,
}

/// Events observed during a segment, in execution order.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SegEvent {
    /// `log_pc(pc, opcode)`.
    LogPc(u64, u64),
    /// A structured guest event.
    Guest(GuestEvent),
}

/// Result of [`run_segment`]. The stopping instruction is *not* executed:
/// the frame stack's `ip` points at it, and it contributes nothing to
/// `steps`, `events`, or `interns`.
pub struct SegOutcome {
    /// Why the segment stopped.
    pub stop: SegStop,
    /// Instructions (and terminators) executed.
    pub steps: u64,
    /// Guest-visible events, in order.
    pub events: Vec<SegEvent>,
    /// Every `(width, value)` constant the symbolic executor would have
    /// interned executing the same instructions, in interning order.
    pub interns: Vec<(u8, u64)>,
    /// Number of caller-provided frames (seeded or pulled from the
    /// [`FrameSource`]) still at the bottom of the final stack. Those
    /// frames are the caller's own — only registers flagged in their `wr`
    /// bitmaps changed — while every frame above them was pushed by a call
    /// within the segment.
    pub orig_live: usize,
}

fn peek(frame: &SegFrame, op: &Operand) -> (u64, bool) {
    match op {
        Operand::Reg(r) => (frame.regs[r.0 as usize], frame.is_sym(r.0)),
        Operand::Imm(v) => (*v, false),
    }
}

/// Deduplicating intern log. Interning a `(width, value)` pair that the
/// pool has already seen is a no-op, so only the *first* occurrence of each
/// pair within a segment needs replaying — later duplicates change nothing.
/// The dedup set is a small open-addressing table with a multiplicative
/// hash, far cheaper per instruction than the pool's interning map, which
/// is what turns replay from a per-instruction cost into a
/// per-unique-constant cost.
struct InternLog {
    entries: Vec<(u8, u64)>,
    /// Open-addressing set of logged pairs; `width == 0` marks empty slots.
    table: Vec<(u8, u64)>,
    mask: usize,
    occupied: usize,
}

impl InternLog {
    fn new() -> Self {
        const CAP: usize = 1024;
        InternLog {
            entries: Vec::with_capacity(CAP / 2),
            table: vec![(0, 0); CAP],
            mask: CAP - 1,
            occupied: 0,
        }
    }

    #[inline]
    fn slot(table: &[(u8, u64)], mask: usize, w: u8, v: u64) -> usize {
        let h = (v ^ ((w as u64) << 56)).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut i = (h >> 32) as usize & mask;
        loop {
            let (tw, tv) = table[i];
            if tw == 0 || (tw == w && tv == v) {
                return i;
            }
            i = (i + 1) & mask;
        }
    }

    #[inline]
    fn push(&mut self, w: u8, v: u64) {
        let i = Self::slot(&self.table, self.mask, w, v);
        if self.table[i].0 != 0 {
            return;
        }
        self.table[i] = (w, v);
        self.entries.push((w, v));
        self.occupied += 1;
        if self.occupied * 4 > self.table.len() * 3 {
            self.grow();
        }
    }

    #[cold]
    fn grow(&mut self) {
        let cap = self.table.len() * 2;
        let mask = cap - 1;
        let mut table = vec![(0u8, 0u64); cap];
        for &(w, v) in &self.entries {
            let i = Self::slot(&table, mask, w, v);
            table[i] = (w, v);
        }
        self.table = table;
        self.mask = mask;
    }
}

fn log_imm(interns: &mut InternLog, op: &Operand) {
    if let Operand::Imm(v) = op {
        interns.push(64, *v);
    }
}

/// The interning footprint of the symbolic executor's truthiness test
/// (`is_nonzero`): the zero constant, the folded equality, its negation.
fn log_truthy(interns: &mut InternLog, v: u64) {
    interns.push(64, 0);
    interns.push(1, (v == 0) as u64);
    interns.push(1, (v != 0) as u64);
}

// ---------------------------------------------------------------------------
// Superinstruction blocks.
//
// Hot straight-line block bodies are lazily fused (counter-triggered, per
// function × block) into preflattened micro-op arrays with predecoded
// operands, which the segment VM executes without per-instruction enum
// dispatch. Micro-ops are 1:1 with `Block::insts` — micro-op `i` covers
// instruction `i` — so the frame's `ip` needs no translation and a segment
// can enter a fused block mid-body (e.g. when resuming after a stop).
// Non-fusable instructions compile to `Bail`, which hands that single
// instruction back to the generic dispatch loop. The micro runner mirrors
// the generic loop's intern-log, fuel, and stop semantics *exactly*: fused
// and unfused execution are byte-identical to the symbolic executor.
// ---------------------------------------------------------------------------

/// Block entries (at `ip == 0`) after which a block's body is fused.
const SUPER_THRESHOLD: u32 = 16;

/// Minimum fusable instructions for a fusion to pay for its dispatch.
const SUPER_MIN_FUSABLE: usize = 4;

/// Predecoded operand of a micro-op.
#[derive(Clone, Copy)]
enum Src {
    Reg(u32),
    Imm(u64),
}

impl Src {
    fn of(op: &Operand) -> Src {
        match op {
            Operand::Reg(r) => Src::Reg(r.0),
            Operand::Imm(v) => Src::Imm(*v),
        }
    }
}

#[inline]
fn peek_src(frame: &SegFrame, s: Src) -> (u64, bool) {
    match s {
        Src::Reg(r) => (frame.regs[r as usize], frame.is_sym(r)),
        Src::Imm(v) => (v, false),
    }
}

#[inline]
fn log_src(ilog: &mut InternLog, s: Src) {
    if let Src::Imm(v) = s {
        ilog.push(64, v);
    }
}

/// One fused instruction of a superinstruction block.
#[derive(Clone, Copy)]
enum MicroOp {
    Const {
        dst: u32,
        value: u64,
    },
    MovR {
        dst: u32,
        src: u32,
    },
    MovI {
        dst: u32,
        imm: u64,
    },
    Bin {
        op: BinOp,
        pred: bool,
        dst: u32,
        a: Src,
        b: Src,
    },
    Not {
        dst: u32,
        a: Src,
    },
    LoadU8 {
        dst: u32,
        addr: Src,
    },
    LoadU64 {
        dst: u32,
        addr: Src,
    },
    StoreU8 {
        addr: Src,
        value: Src,
    },
    StoreU64 {
        addr: Src,
        value: Src,
    },
    /// Non-fusable instruction: dispatch it via the generic loop.
    Bail,
}

enum SuperEntry {
    /// Block entered this many times; fuses at [`SUPER_THRESHOLD`].
    Counting(u32),
    /// Fused micro-op array, 1:1 with the block's `insts`.
    Fused(Box<[MicroOp]>),
    /// Fusing would not pay (mostly non-fusable instructions).
    Skip,
}

/// Counter-triggered cache of fused straight-line blocks, keyed by
/// `(function, block)`. Owned by the symbolic executor so fusions persist
/// across segments (and across every state exploring the same program);
/// purely an execution-speed structure — it never affects results.
#[derive(Default)]
pub struct SuperCache {
    blocks: FxHashMap<(u32, u32), SuperEntry>,
}

impl SuperCache {
    /// An empty cache.
    pub fn new() -> Self {
        SuperCache::default()
    }

    /// Number of blocks fused so far (diagnostics).
    pub fn fused_blocks(&self) -> usize {
        self.blocks
            .iter()
            .filter(|(_, e)| matches!(e, SuperEntry::Fused(_)))
            .count()
    }

    /// Called when the VM is about to execute inside a block body. Fresh
    /// entries (`ip == 0`) bump the block's hot counter and trigger fusion
    /// at the threshold; mid-body resumes reuse an existing fusion without
    /// counting. Returns the fused micro-ops, if any.
    fn enter(
        &mut self,
        func: FuncId,
        block_idx: u32,
        ip: usize,
        block: &Block,
    ) -> Option<&[MicroOp]> {
        use std::collections::hash_map::Entry;
        let e = match self.blocks.entry((func.0, block_idx)) {
            Entry::Occupied(e) => e.into_mut(),
            Entry::Vacant(v) => v.insert(SuperEntry::Counting(0)),
        };
        if let SuperEntry::Counting(n) = e {
            if ip == 0 {
                *n += 1;
                if *n >= SUPER_THRESHOLD {
                    *e = fuse(block);
                }
            }
        }
        match e {
            SuperEntry::Fused(ops) => Some(ops),
            _ => None,
        }
    }
}

fn fuse(block: &Block) -> SuperEntry {
    // What fusion buys is dispatch-free *runs*: the micro runner executes
    // until the next `Bail`, then the generic loop finishes the block. A
    // block whose longest fusable run is short would pay the cache probe
    // and runner entry for nothing.
    let mut longest = 0usize;
    let mut run = 0usize;
    for inst in &block.insts {
        if inst.fusable() {
            run += 1;
            longest = longest.max(run);
        } else {
            run = 0;
        }
    }
    if longest < SUPER_MIN_FUSABLE {
        return SuperEntry::Skip;
    }
    let ops: Vec<MicroOp> = block.insts.iter().map(micro_of).collect();
    SuperEntry::Fused(ops.into_boxed_slice())
}

fn micro_of(inst: &Inst) -> MicroOp {
    match inst {
        Inst::Const { dst, value } => MicroOp::Const {
            dst: dst.0,
            value: *value,
        },
        Inst::Mov { dst, src } => match src {
            Operand::Reg(r) => MicroOp::MovR {
                dst: dst.0,
                src: r.0,
            },
            Operand::Imm(v) => MicroOp::MovI {
                dst: dst.0,
                imm: *v,
            },
        },
        Inst::Bin { op, dst, a, b } => MicroOp::Bin {
            op: *op,
            pred: op.is_predicate(),
            dst: dst.0,
            a: Src::of(a),
            b: Src::of(b),
        },
        Inst::Not { dst, a } => MicroOp::Not {
            dst: dst.0,
            a: Src::of(a),
        },
        Inst::Load { dst, addr, size } => match size {
            MemSize::U8 => MicroOp::LoadU8 {
                dst: dst.0,
                addr: Src::of(addr),
            },
            MemSize::U64 => MicroOp::LoadU64 {
                dst: dst.0,
                addr: Src::of(addr),
            },
        },
        Inst::Store { addr, value, size } => match size {
            MemSize::U8 => MicroOp::StoreU8 {
                addr: Src::of(addr),
                value: Src::of(value),
            },
            MemSize::U64 => MicroOp::StoreU64 {
                addr: Src::of(addr),
                value: Src::of(value),
            },
        },
        Inst::Select { .. } | Inst::Call { .. } | Inst::Intrinsic { .. } => MicroOp::Bail,
    }
}

enum MicroExit {
    /// Stop the whole segment at the op `frame.ip` points to.
    Stop(SegStop),
    /// The op at `frame.ip` is not fused; dispatch it generically.
    Bail,
    /// Reached the end of the body (`frame.ip == insts.len()`).
    Done,
}

/// Executes fused micro-ops starting at `frame.ip`, mirroring the generic
/// loop's per-instruction fuel checks and intern-log order exactly.
fn run_micro(
    ops: &[MicroOp],
    frame: &mut SegFrame,
    mem: &mut SegMem<'_>,
    ilog: &mut InternLog,
    steps: &mut u64,
    fuel: u64,
) -> MicroExit {
    while let Some(op) = ops.get(frame.ip) {
        if *steps >= fuel {
            return MicroExit::Stop(SegStop::OutOfFuel);
        }
        match *op {
            MicroOp::Bail => return MicroExit::Bail,
            MicroOp::Const { dst, value } => {
                ilog.push(64, value);
                frame.write(dst, value, false);
            }
            MicroOp::MovR { dst, src } => {
                let v = frame.regs[src as usize];
                let s = frame.is_sym(src);
                frame.write(dst, v, s);
            }
            MicroOp::MovI { dst, imm } => {
                ilog.push(64, imm);
                frame.write(dst, imm, false);
            }
            MicroOp::Bin {
                op,
                pred,
                dst,
                a,
                b,
            } => {
                let (va, sa) = peek_src(frame, a);
                let (vb, sb) = peek_src(frame, b);
                if sa || sb {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                log_src(ilog, a);
                log_src(ilog, b);
                let r = eval_bin(op, 64, va, vb);
                if pred {
                    ilog.push(1, r);
                }
                ilog.push(64, r);
                frame.write(dst, r, false);
            }
            MicroOp::Not { dst, a } => {
                let (va, sa) = peek_src(frame, a);
                if sa {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                log_src(ilog, a);
                ilog.push(64, !va);
                frame.write(dst, !va, false);
            }
            MicroOp::LoadU8 { dst, addr } => {
                let (a, sa) = peek_src(frame, addr);
                if sa {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                let Some(b) = mem.read_u8(a) else {
                    return MicroExit::Stop(SegStop::TaintedLoad);
                };
                log_src(ilog, addr);
                ilog.push(64, b as u64);
                frame.write(dst, b as u64, false);
            }
            MicroOp::LoadU64 { dst, addr } => {
                let (a, sa) = peek_src(frame, addr);
                if sa {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                let mut bytes = [0u8; 8];
                for i in 0..8u64 {
                    match mem.read_u8(a.wrapping_add(i)) {
                        Some(b) => bytes[i as usize] = b,
                        None => return MicroExit::Stop(SegStop::TaintedLoad),
                    }
                }
                log_src(ilog, addr);
                let mut acc = bytes[0] as u64;
                for (i, &b) in bytes.iter().enumerate().skip(1) {
                    acc |= (b as u64) << (8 * i);
                    ilog.push(8 * (i as u8 + 1), acc);
                }
                frame.write(dst, acc, false);
            }
            MicroOp::StoreU8 { addr, value } => {
                let (a, sa) = peek_src(frame, addr);
                let (v, sv) = peek_src(frame, value);
                if sa || sv {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                log_src(ilog, addr);
                log_src(ilog, value);
                ilog.push(8, v & 0xff);
                mem.write_u8(a, v as u8);
            }
            MicroOp::StoreU64 { addr, value } => {
                let (a, sa) = peek_src(frame, addr);
                let (v, sv) = peek_src(frame, value);
                if sa || sv {
                    return MicroExit::Stop(SegStop::Boundary);
                }
                log_src(ilog, addr);
                log_src(ilog, value);
                for i in 0..8 {
                    ilog.push(8, (v >> (8 * i)) & 0xff);
                    mem.write_u8(a.wrapping_add(i), (v >> (8 * i)) as u8);
                }
            }
        }
        frame.ip += 1;
        *steps += 1;
    }
    MicroExit::Done
}

/// Runs the segment machine until the next symbolic-consuming event or fuel
/// exhaustion. `frames` and `mem` are left at the stop point; the
/// instruction that caused the stop has not been executed. Equivalent to
/// [`run_segment_cached`] with a throwaway [`SuperCache`].
pub fn run_segment(
    prog: &Program,
    frames: &mut Vec<SegFrame>,
    below: &mut dyn FrameSource,
    mem: &mut SegMem<'_>,
    fuel: u64,
) -> SegOutcome {
    let mut cache = SuperCache::new();
    run_segment_cached(prog, frames, below, mem, fuel, &mut cache)
}

/// [`run_segment`] with a caller-owned [`SuperCache`], so block fusions
/// learned in one segment speed up every later segment over the same
/// program.
pub fn run_segment_cached(
    prog: &Program,
    frames: &mut Vec<SegFrame>,
    below: &mut dyn FrameSource,
    mem: &mut SegMem<'_>,
    fuel: u64,
    cache: &mut SuperCache,
) -> SegOutcome {
    let mut out = SegOutcome {
        stop: SegStop::Boundary,
        steps: 0,
        events: Vec::new(),
        interns: Vec::new(),
        orig_live: frames.len(),
    };
    let mut ilog = InternLog::new();
    // The last `(func, block)` body the cache had nothing for; skipping the
    // lookup until the block changes (or a fresh `ip == 0` entry re-counts)
    // keeps unfused blocks at one hash probe per entry, not per instruction.
    let mut unfused: (u32, u32) = (u32::MAX, u32::MAX);
    macro_rules! stop {
        ($why:expr) => {{
            out.stop = $why;
            out.interns = ilog.entries;
            return out;
        }};
    }
    loop {
        let Some(frame) = frames.last_mut() else {
            // Final `ret` is stop-class, so the stack never drains; guard
            // against a caller handing us an empty stack anyway.
            stop!(SegStop::Boundary);
        };
        if out.steps >= fuel {
            stop!(SegStop::OutOfFuel);
        }
        let func = prog.func(frame.func);
        let block = &func.blocks[frame.block];
        if frame.ip < block.insts.len() {
            let key = (frame.func.0, frame.block as u32);
            if frame.ip == 0 || key != unfused {
                if let Some(ops) = cache.enter(frame.func, key.1, frame.ip, block) {
                    match run_micro(ops, frame, mem, &mut ilog, &mut out.steps, fuel) {
                        MicroExit::Stop(why) => stop!(why),
                        MicroExit::Done => continue,
                        // Dispatch the op at `frame.ip` generically below —
                        // and latch the block as generic until its next
                        // fresh entry, so a bail point mid-block does not
                        // re-probe the cache (and immediately re-bail) on
                        // every following instruction.
                        MicroExit::Bail => unfused = key,
                    }
                } else {
                    unfused = key;
                }
            }
            let inst = &block.insts[frame.ip];
            match inst {
                Inst::Const { dst, value } => {
                    ilog.push(64, *value);
                    frame.write(dst.0, *value, false);
                }
                Inst::Mov { dst, src } => {
                    let (v, s) = peek(frame, src);
                    log_imm(&mut ilog, src);
                    frame.write(dst.0, v, s);
                }
                Inst::Bin { op, dst, a, b } => {
                    let (va, sa) = peek(frame, a);
                    let (vb, sb) = peek(frame, b);
                    if sa || sb {
                        stop!(SegStop::Boundary);
                    }
                    log_imm(&mut ilog, a);
                    log_imm(&mut ilog, b);
                    let r = eval_bin(*op, 64, va, vb);
                    if op.is_predicate() {
                        ilog.push(1, r);
                    }
                    ilog.push(64, r);
                    frame.write(dst.0, r, false);
                }
                Inst::Not { dst, a } => {
                    let (va, sa) = peek(frame, a);
                    if sa {
                        stop!(SegStop::Boundary);
                    }
                    log_imm(&mut ilog, a);
                    ilog.push(64, !va);
                    frame.write(dst.0, !va, false);
                }
                Inst::Select { dst, cond, t, f } => {
                    let (vc, sc) = peek(frame, cond);
                    if sc {
                        stop!(SegStop::Boundary);
                    }
                    log_imm(&mut ilog, cond);
                    log_truthy(&mut ilog, vc);
                    log_imm(&mut ilog, t);
                    log_imm(&mut ilog, f);
                    // `ite` with a constant condition folds to the chosen
                    // arm unchanged, so a symbolic arm is a pure copy.
                    let (v, s) = if vc != 0 {
                        peek(frame, t)
                    } else {
                        peek(frame, f)
                    };
                    frame.write(dst.0, v, s);
                }
                Inst::Load { dst, addr, size } => {
                    let (a, sa) = peek(frame, addr);
                    if sa {
                        stop!(SegStop::Boundary);
                    }
                    let n = match size {
                        MemSize::U8 => 1u64,
                        MemSize::U64 => 8,
                    };
                    let mut bytes = [0u8; 8];
                    for i in 0..n {
                        match mem.read_u8(a.wrapping_add(i)) {
                            Some(b) => bytes[i as usize] = b,
                            None => stop!(SegStop::TaintedLoad),
                        }
                    }
                    log_imm(&mut ilog, addr);
                    match size {
                        MemSize::U8 => {
                            // `zext` of the constant byte.
                            ilog.push(64, bytes[0] as u64);
                            frame.write(dst.0, bytes[0] as u64, false);
                        }
                        MemSize::U64 => {
                            // The seven little-endian `concat` folds of
                            // `SymMem::read_u64`.
                            let mut acc = bytes[0] as u64;
                            for (i, &b) in bytes.iter().enumerate().skip(1) {
                                acc |= (b as u64) << (8 * i);
                                ilog.push(8 * (i as u8 + 1), acc);
                            }
                            frame.write(dst.0, acc, false);
                        }
                    }
                }
                Inst::Store { addr, value, size } => {
                    let (a, sa) = peek(frame, addr);
                    let (v, sv) = peek(frame, value);
                    if sa || sv {
                        stop!(SegStop::Boundary);
                    }
                    log_imm(&mut ilog, addr);
                    log_imm(&mut ilog, value);
                    match size {
                        MemSize::U8 => {
                            // The `extract` fold of the low byte.
                            ilog.push(8, v & 0xff);
                            mem.write_u8(a, v as u8);
                        }
                        MemSize::U64 => {
                            // The eight `extract` folds of
                            // `SymMem::write_u64`.
                            for i in 0..8 {
                                ilog.push(8, (v >> (8 * i)) & 0xff);
                                mem.write_u8(a.wrapping_add(i), (v >> (8 * i)) as u8);
                            }
                        }
                    }
                }
                Inst::Call {
                    dst,
                    func: callee,
                    args,
                } => {
                    // The symbolic executor zero-fills callee registers
                    // before evaluating arguments.
                    ilog.push(64, 0);
                    let callee_fn = prog.func(*callee);
                    let n = callee_fn.n_regs as usize;
                    let mut callee_frame = SegFrame::new(*callee, 0, 0, n, *dst);
                    for (i, arg) in args.iter().enumerate() {
                        let (v, s) = peek(frame, arg);
                        log_imm(&mut ilog, arg);
                        callee_frame.write(i as u32, v, s);
                    }
                    frame.ip += 1;
                    out.steps += 1;
                    frames.push(callee_frame);
                    continue;
                }
                Inst::Intrinsic { dst, intr, args } => {
                    match intr {
                        Intrinsic::MakeSymbolic
                        | Intrinsic::UpperBound
                        | Intrinsic::EndSymbolic
                        | Intrinsic::Abort => stop!(SegStop::Event),
                        Intrinsic::Assume => {
                            let (v, s) = peek(frame, &args[0]);
                            if s || v == 0 {
                                // A symbolic guard forks feasibility; a
                                // failed concrete guard terminates the
                                // path. Both belong to the symbolic
                                // executor.
                                stop!(SegStop::Event);
                            }
                            log_imm(&mut ilog, &args[0]);
                            log_truthy(&mut ilog, v);
                        }
                        Intrinsic::LogPc => {
                            let (pc, s0) = peek(frame, &args[0]);
                            let (opcode, s1) = peek(frame, &args[1]);
                            if s0 || s1 {
                                stop!(SegStop::Event);
                            }
                            log_imm(&mut ilog, &args[0]);
                            log_imm(&mut ilog, &args[1]);
                            out.events.push(SegEvent::LogPc(pc, opcode));
                        }
                        Intrinsic::IsSymbolic => {
                            let (_, s) = peek(frame, &args[0]);
                            log_imm(&mut ilog, &args[0]);
                            // The token bit is exact: a register is marked
                            // symbolic iff its expression is non-constant.
                            let flag = s as u64;
                            ilog.push(64, flag);
                            if let Some(d) = dst {
                                frame.write(d.0, flag, false);
                            }
                        }
                        Intrinsic::Concretize => {
                            let (v, s) = peek(frame, &args[0]);
                            if s {
                                stop!(SegStop::Event);
                            }
                            log_imm(&mut ilog, &args[0]);
                            if let Some(d) = dst {
                                ilog.push(64, v);
                                frame.write(d.0, v, false);
                            }
                        }
                        Intrinsic::TraceEvent => {
                            // Executable even with symbolic arguments: the
                            // symbolic executor reads them through
                            // `as_const(..).unwrap_or(0)` and substitutes
                            // `?` for symbolic string bytes.
                            let mut vals = [0u64; 3];
                            for (i, arg) in args.iter().enumerate() {
                                let (v, s) = peek(frame, arg);
                                log_imm(&mut ilog, arg);
                                vals[i] = if s { 0 } else { v };
                            }
                            let ev = match vals[0] {
                                trace_kind::EXCEPTION => {
                                    let len = vals[2].min(256);
                                    let bytes: Vec<u8> = (0..len)
                                        .map(|i| mem.read_u8_lossy(vals[1].wrapping_add(i)))
                                        .collect();
                                    GuestEvent::Exception(
                                        String::from_utf8_lossy(&bytes).into_owned(),
                                    )
                                }
                                trace_kind::ENTER_CODE => GuestEvent::EnterCode(vals[1]),
                                _ => GuestEvent::Marker(vals[1], vals[2]),
                            };
                            out.events.push(SegEvent::Guest(ev));
                        }
                        Intrinsic::DebugPrint => {
                            // The symbolic executor evaluates the operands
                            // and otherwise ignores the call.
                            for arg in args.iter() {
                                log_imm(&mut ilog, arg);
                            }
                        }
                    }
                }
            }
            frame.ip += 1;
            out.steps += 1;
            continue;
        }
        // Terminator.
        match &block.term {
            Term::Jump(b) => {
                frame.block = b.0 as usize;
                frame.ip = 0;
                out.steps += 1;
            }
            Term::Branch { cond, then_, else_ } => {
                let (vc, sc) = peek(frame, cond);
                if sc {
                    stop!(SegStop::Event);
                }
                log_imm(&mut ilog, cond);
                log_truthy(&mut ilog, vc);
                frame.block = if vc != 0 { then_.0 } else { else_.0 } as usize;
                frame.ip = 0;
                out.steps += 1;
            }
            Term::Switch { on, cases, default } => {
                let (v, s) = peek(frame, on);
                if s {
                    stop!(SegStop::Event);
                }
                log_imm(&mut ilog, on);
                let target = cases
                    .iter()
                    .find(|(cv, _)| *cv == v)
                    .map(|(_, b)| *b)
                    .unwrap_or(*default);
                frame.block = target.0 as usize;
                frame.ip = 0;
                out.steps += 1;
            }
            Term::Ret(val) => {
                if frames.len() == 1 {
                    match below.pop_into() {
                        Some(parent) => {
                            frames.insert(0, parent);
                            out.orig_live += 1;
                        }
                        // Returning from the entry function terminates
                        // the path — symbolic territory.
                        None => stop!(SegStop::Event),
                    }
                }
                let frame = frames.last_mut().expect("re-borrow after insert");
                let ret = val.as_ref().map(|op| {
                    let vs = peek(frame, op);
                    log_imm(&mut ilog, op);
                    vs
                });
                let ret_dst = frame.ret_dst;
                frames.pop();
                out.orig_live = out.orig_live.min(frames.len());
                let parent = frames.last_mut().expect("depth > 1");
                if let (Some(d), Some((v, s))) = (ret_dst, ret) {
                    parent.write(d.0, v, s);
                }
                out.steps += 1;
            }
            Term::Halt { .. } => stop!(SegStop::Event),
            Term::Unterminated => unreachable!("validated programs are terminated"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::ModuleBuilder;

    #[test]
    fn memory_defaults_to_zero() {
        let m = ConcreteMem::new();
        assert_eq!(m.read_u8(0xdead), 0);
        assert_eq!(m.read_u64(0xbeef), 0);
    }

    #[test]
    fn u64_roundtrip_is_little_endian() {
        let mut m = ConcreteMem::new();
        m.write_u64(100, 0x0102_0304_0506_0708);
        assert_eq!(m.read_u8(100), 0x08);
        assert_eq!(m.read_u8(107), 0x01);
        assert_eq!(m.read_u64(100), 0x0102_0304_0506_0708);
    }

    #[test]
    fn cross_page_access() {
        let mut m = ConcreteMem::new();
        let addr = PAGE_SIZE as u64 - 4;
        m.write_u64(addr, u64::MAX);
        assert_eq!(m.read_u64(addr), u64::MAX);
    }

    #[test]
    fn make_symbolic_replays_inputs() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(4);
        let name = mb.name_id("input");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 4u64, name);
            let v = b.load_u8(buf + 1);
            b.halt(v);
        });
        let prog = mb.finish("main").unwrap();
        let mut inputs = InputMap::new();
        inputs.insert("input".to_string(), vec![9, 8, 7, 6]);
        let out = run_concrete(&prog, &inputs, 1000);
        assert_eq!(out.status, ConcreteStatus::Halted(8));
    }

    #[test]
    fn fuel_exhaustion_is_reported() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            b.loop_(|_| {});
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let out = run_concrete(&prog, &InputMap::new(), 1000);
        assert_eq!(out.status, ConcreteStatus::OutOfFuel);
    }

    #[test]
    fn log_pc_traces_in_order() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            b.log_pc(1u64, 10u64);
            b.log_pc(2u64, 20u64);
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let out = run_concrete(&prog, &InputMap::new(), 1000);
        assert_eq!(out.hl_trace, vec![(1, 10), (2, 20)]);
    }

    #[test]
    fn exception_event_resolves_name() {
        let mut mb = ModuleBuilder::new();
        let name_bytes = mb.data_bytes(b"ValueError");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.trace_event(trace_kind::EXCEPTION, name_bytes, 10u64);
            b.end_symbolic(1u64);
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let out = run_concrete(&prog, &InputMap::new(), 1000);
        assert_eq!(out.events, vec![GuestEvent::Exception("ValueError".into())]);
        assert_eq!(out.status, ConcreteStatus::EndedSymbolic(1));
    }

    /// Program data concrete, everything else zero — the segment analogue
    /// of a fresh `run_concrete` image.
    struct DataSource {
        mem: ConcreteMem,
    }

    impl DataSource {
        fn of(prog: &Program) -> Self {
            let mut mem = ConcreteMem::new();
            for seg in &prog.data {
                mem.write_bytes(seg.addr, &seg.bytes);
            }
            DataSource { mem }
        }
    }

    impl PageSource for DataSource {
        fn byte(&self, addr: u64) -> Option<u8> {
            Some(self.mem.read_u8(addr))
        }
    }

    /// Like [`DataSource`] but with a symbolic-tainted address range.
    struct TaintedSource {
        inner: DataSource,
        taint: std::ops::Range<u64>,
    }

    impl PageSource for TaintedSource {
        fn byte(&self, addr: u64) -> Option<u8> {
            if self.taint.contains(&addr) {
                None
            } else {
                self.inner.byte(addr)
            }
        }
    }

    fn entry_frames(prog: &Program) -> Vec<SegFrame> {
        let entry = prog.func(prog.entry);
        vec![SegFrame::new(prog.entry, 0, 0, entry.n_regs as usize, None)]
    }

    #[test]
    fn segment_runs_straight_line_to_the_halt_boundary() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(8);
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            let x = b.const_(40);
            let y = b.add(x, 2u64);
            b.store_u8(buf, y);
            b.log_pc(7u64, 3u64);
            b.halt(y);
        });
        let prog = mb.finish("main").unwrap();
        let src = DataSource::of(&prog);
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        assert_eq!(out.stop, SegStop::Event);
        assert_eq!(out.events, vec![SegEvent::LogPc(7, 3)]);
        assert!(out.steps >= 4);
        // Stopped *at* the halt terminator, which was not executed.
        let top = frames.last().unwrap();
        let blk = &prog.func(top.func).blocks[top.block];
        assert_eq!(top.ip, blk.insts.len());
        assert!(matches!(blk.term, Term::Halt { .. }));
        // The store shows up as a dirty byte, and its extract fold is in
        // the intern log.
        assert_eq!(mem.into_dirty(), vec![(buf, 42)]);
        assert!(out.interns.contains(&(8, 42)));
    }

    #[test]
    fn segment_stops_on_make_symbolic_without_executing_it() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(2);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            let a = b.const_(1);
            let c = b.add(a, 1u64);
            b.store_u8(buf, c);
            b.make_symbolic(buf, 2u64, name);
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let src = DataSource::of(&prog);
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        assert_eq!(out.stop, SegStop::Event);
        assert_eq!(out.steps, 3);
        let top = frames.last().unwrap();
        let inst = &prog.func(top.func).blocks[top.block].insts[top.ip];
        assert!(matches!(
            inst,
            Inst::Intrinsic {
                intr: Intrinsic::MakeSymbolic,
                ..
            }
        ));
    }

    #[test]
    fn segment_reports_fuel_exhaustion() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            b.loop_(|_| {});
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let src = DataSource::of(&prog);
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 100);
        assert_eq!(out.stop, SegStop::OutOfFuel);
        assert_eq!(out.steps, 100);
    }

    #[test]
    fn segment_stops_on_tainted_load_before_the_load() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(4);
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            let v = b.load_u8(buf + 1);
            b.halt(v);
        });
        let prog = mb.finish("main").unwrap();
        let src = TaintedSource {
            inner: DataSource::of(&prog),
            taint: buf + 1..buf + 2,
        };
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        assert_eq!(out.stop, SegStop::TaintedLoad);
        assert_eq!(out.steps, 0);
        assert!(out.interns.is_empty(), "stopped loads log nothing");
        let top = frames.last().unwrap();
        assert!(matches!(
            prog.func(top.func).blocks[top.block].insts[top.ip],
            Inst::Load { .. }
        ));
        // A concrete overwrite un-taints the byte and the load proceeds.
        mem.write_u8(buf + 1, 9);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        assert_eq!(out.stop, SegStop::Event);
        assert_eq!(out.steps, 1);
        assert_eq!(frames.last().unwrap().regs[0], 9);
    }

    #[test]
    fn segment_copies_symbolic_tokens_through_calls_and_moves() {
        let mut mb = ModuleBuilder::new();
        let id = mb.declare("id", 1);
        mb.define(id, |b| {
            let p = b.param(0);
            b.ret(p);
        });
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            let x = b.const_(5);
            let y = b.call(id, &[x.into()]);
            let z = b.add(y, 1u64);
            b.halt(z);
        });
        let prog = mb.finish("main").unwrap();
        let src = DataSource::of(&prog);
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        // Plant a token in register 0 ahead of time and rewrite the script:
        // run only from the call onward by first letting Const execute.
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1);
        assert_eq!(out.stop, SegStop::OutOfFuel);
        let token = 0xdead_beef_u64;
        {
            let top = frames.last_mut().unwrap();
            top.regs[0] = token;
            top.set_sym(0, true);
        }
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        // The token flows through call + ret untouched, then the add on it
        // stops the segment.
        assert_eq!(out.stop, SegStop::Boundary);
        let top = frames.last().unwrap();
        assert!(matches!(
            prog.func(top.func).blocks[top.block].insts[top.ip],
            Inst::Bin { .. }
        ));
        assert_eq!(top.regs[1], token);
        assert!(top.is_sym(1));
    }

    #[test]
    fn segment_intern_log_matches_the_symbolic_fold_sequence() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            let x = b.const_(3);
            let c = b.ult(x, 10u64);
            b.if_else(c, |b| b.halt(1u64), |b| b.halt(0u64));
        });
        let prog = mb.finish("main").unwrap();
        let src = DataSource::of(&prog);
        let mut mem = SegMem::new(&src);
        let mut frames = entry_frames(&prog);
        let out = run_segment(&prog, &mut frames, &mut NoCallers, &mut mem, 1_000);
        assert_eq!(out.stop, SegStop::Event);
        // The predicate's folds land at both widths, and the branch's
        // truthiness test logs its zero/eq/ne pair. The log keeps only the
        // first occurrence of each pair — replaying a constant the pool has
        // already interned is a no-op — so the truthy triple's trailing
        // `(1, 1)` collapses into the earlier predicate fold. (The exact
        // end-to-end match against a real expression-pool transcript is
        // asserted in chef-symex's fast-forward tests.)
        assert!(out.interns.contains(&(1, 1)), "predicate fold at width 1");
        assert!(out.interns.contains(&(64, 1)), "widened predicate fold");
        let truthy_at = out.interns.windows(2).position(|w| w == [(64, 0), (1, 0)]);
        assert!(truthy_at.is_some(), "branch truthiness pair logged");
        let mut seen = std::collections::HashSet::new();
        assert!(
            out.interns.iter().all(|e| seen.insert(*e)),
            "the intern log must be duplicate-free: {:?}",
            out.interns
        );
    }
}
