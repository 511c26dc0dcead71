//! The low-level symbolic executor: runs LIR programs, forking states at
//! symbolic branches. This is the S2E stand-in — it knows nothing about the
//! interpreted language; the Chef layer (`chef-core`) supplies state
//! selection on top.

use std::collections::hash_map::Entry;
use std::collections::VecDeque;
use std::sync::Arc;

use chef_lir::{
    run_segment_cached, trace_kind, FrameSource, GuestEvent as LirGuestEvent, Inst, Intrinsic,
    MemSize, Operand, PageSource, Program, SegEvent, SegFrame, SegMem, SegPage, SegStop,
    SuperCache, Term,
};
use chef_solver::{ExprId, ExprPool, FxHashMap, Solver};

use crate::mem::SymMem;
use crate::snapshot::Snapshot;
use crate::state::{Frame, State, StateId, SymInput, TermStatus};

/// Tunables for the executor.
#[derive(Clone, Copy, Debug)]
pub struct ExecConfig {
    /// Maximum concrete values enumerated for a symbolic pointer before the
    /// remainder are dropped (S2E-style pointer concretization forking).
    pub max_ptr_values: usize,
    /// Maximum feasible targets explored for a symbolic `switch`.
    pub max_switch_targets: usize,
}

impl Default for ExecConfig {
    fn default() -> Self {
        ExecConfig {
            max_ptr_values: 8,
            max_switch_targets: 16,
        }
    }
}

/// Cap on the recorded pre-capture `log_pc` prefix. Real prologues are a
/// few hundred events; a path that exceeds this is never going to be a
/// useful fork point, so recording stops and capture is forgone rather
/// than letting the log grow with the run.
const HL_LOG_CAP: usize = 1 << 20;

/// Cap on cached restore templates. An executor explores one program, and
/// that program's fork-point snapshots share one fingerprint, so more than
/// one entry is rare; past the cap the oldest template is dropped and a
/// later restore of it decodes again.
const SNAP_CACHE_CAP: usize = 4;

/// Work counters for the executor.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExecStats {
    /// Low-level instructions executed (all states).
    pub ll_instructions: u64,
    /// Branch forks performed.
    pub forks: u64,
    /// Forks caused by symbolic pointers.
    pub symptr_forks: u64,
    /// Feasible symbolic-pointer values dropped due to `max_ptr_values`.
    pub dropped_ptr_values: u64,
    /// States created in total.
    pub states_created: u64,
    /// Fork-point snapshots captured (at `make_symbolic`).
    pub snapshots_captured: u64,
    /// States materialized from a snapshot instead of full prefix replay.
    pub snapshot_restores: u64,
    /// Low-level prologue instructions snapshot restores skipped — work a
    /// replay-from-zero consumer would have re-executed.
    pub prologue_ll_skipped: u64,
    /// Seeded states that fell back to full prefix replay from the
    /// program entry (no usable snapshot). The snapshot resume path keeps
    /// this at zero; tests and CI assert on it.
    pub full_replays: u64,
    /// Low-level instructions executed on the concrete segment VM by
    /// fast-forward (a subset of `ll_instructions` — every concrete step
    /// is counted in both, so budgets and fair-share accounting see
    /// concrete and symbolic work uniformly).
    pub concrete_ll_executed: u64,
    /// Fast-forward segments that made progress (≥ 1 concrete step).
    pub fast_forwards: u64,
    /// Fast-forward segments cut short mid-stretch: a load hit a
    /// symbolic-tainted byte, or the segment fuel ran out. The state
    /// transfers back losslessly either way; this only counts the early
    /// exits.
    pub ff_aborts: u64,
    /// Fast-forward attempts suppressed by the gating policy before any
    /// segment-VM work (the fixed per-state backoff countdown, or the
    /// adaptive per-site backoff / cold-region filter).
    pub ff_skipped: u64,
}

/// Below this many concrete steps a [`FfMode::Fixed`] fast-forward attempt
/// is considered degenerate: the transfer overhead outweighs the win, so
/// the state backs off from further attempts for a while.
const FF_MIN_WIN: u64 = 32;

/// Attempts skipped after a degenerate [`FfMode::Fixed`] fast-forward
/// before trying again.
const FF_BACKOFF: u32 = 64;

/// Adaptive profitability bar, compared against a site's *EWMA* of net
/// win per attempt — instructions retired minus constants interned (see
/// [`FfSiteState::ewma`]) — not the single attempt, so one noisy short
/// segment at a productive site does not trigger backoff. Transfer in
/// and out of a segment (frame set-up, then intern-log replay, register
/// rebuild, and dirty-byte write-back) costs what symbolic execution
/// spends on a few dozen cheap instructions, so sites averaging below
/// that are a net loss and back off. Calibrated on the interpreter
/// packages: higher bars push fork-dense JSON regions whose segments
/// net under ~200 back to the (far more expensive) symbolic stepper;
/// lower bars re-admit simplejson's string-builder sites that mint a
/// fresh constant per instruction and save nothing.
const FF_PROFIT: u64 = 64;

/// First adaptive backoff interval after a degenerate segment; doubles per
/// consecutive degenerate attempt.
const FF_BACKOFF_BASE: u32 = 8;

/// Adaptive backoff cap for anchor sites (loop heads / dispatch heads):
/// anchors never go cold, so this bounds how rarely they are re-probed.
/// High, because a stalled anchor in a fork-dense region is visited every
/// few symbolic steps — at a small cap its residual probes (each a full
/// segment attempt plus transfer) still add up to a measurable tax.
const FF_ANCHOR_CAP: u32 = 256;

/// Adaptive backoff cap for ordinary sites.
const FF_SITE_CAP: u32 = 512;

/// Consecutive degenerate attempts after which a non-anchor site is marked
/// cold: segment initiation in that region retreats to anchor sites.
const FF_COLD_STREAK: u32 = 4;

/// How fast-forward segment initiation is gated. A pure performance knob:
/// canonical test sets, hl_sigs, and instruction counts are byte-identical
/// in every mode.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum FfMode {
    /// Never fast-forward (the all-symbolic reference behavior).
    Off,
    /// The global fixed gate: a per-state countdown backoff after a
    /// degenerate data-stall segment, identical at every site.
    Fixed,
    /// Per-site adaptive gating keyed on the pre-segment HL PC: an EWMA of
    /// retired-instructions-per-attempt, exponential backoff doubling up
    /// to a cap and resetting on profitable segments, and cold-region
    /// anchoring (chronically degenerate regions only initiate segments at
    /// loop heads / dispatch heads). The learned table lives on the
    /// executor — shared across states, merged across fleet workers,
    /// persisted across serve slices — and is keyed only on execution
    /// history, never wall time.
    #[default]
    Adaptive,
}

impl FfMode {
    /// Parses a `--ff-mode` argument (`off`, `fixed`, `adaptive`).
    pub fn parse(s: &str) -> Option<FfMode> {
        match s {
            "off" => Some(FfMode::Off),
            "fixed" => Some(FfMode::Fixed),
            "adaptive" => Some(FfMode::Adaptive),
            _ => None,
        }
    }

    /// Stable CLI/JSON name.
    pub fn name(self) -> &'static str {
        match self {
            FfMode::Off => "off",
            FfMode::Fixed => "fixed",
            FfMode::Adaptive => "adaptive",
        }
    }
}

/// Learned adaptive state of one fast-forward site (an HL PC where
/// segments are initiated).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct FfSiteState {
    /// EWMA of the *net* win per attempt (α = 1/4): concrete instructions
    /// retired minus constants interned (each logged constant is replayed
    /// through the pool on transfer, costing about one symbolic step).
    pub ewma: u64,
    /// Current backoff interval: attempts to skip after the next
    /// degenerate segment (0 = eager).
    pub backoff: u32,
    /// Consecutive degenerate attempts.
    pub streak: u32,
    /// Attempts left to skip right now. Transient: not shipped on the
    /// wire and reset to zero on import (skipping is local pacing, not
    /// learned knowledge).
    pub skip: u32,
    /// Region is chronically degenerate; only anchor sites initiate.
    pub cold: bool,
    /// Site is a loop head or dispatch head in the HL CFG. Anchors never
    /// go cold and their backoff is capped at [`FF_ANCHOR_CAP`].
    pub anchor: bool,
}

impl FfSiteState {
    /// Deterministic pairwise merge (fleet table exchange): EWMAs average,
    /// backoff and streak stay conservative (maximum), flags OR. The
    /// transient `skip` keeps the local value.
    pub fn absorb(&mut self, other: &FfSiteState) {
        self.ewma = (self.ewma + other.ewma) / 2;
        self.backoff = self.backoff.max(other.backoff);
        self.streak = self.streak.max(other.streak);
        self.cold |= other.cold;
        self.anchor |= other.anchor;
    }
}

/// A learned fast-forward site table in portable form: `(hl_pc, state)`
/// sorted by PC (the order [`Executor::ff_sites_snapshot`] exports and
/// every consumer — wire, fleet merge, serve persistence — preserves).
pub type FfSiteTable = Vec<(u64, FfSiteState)>;

/// Events surfaced by one fast-forward segment, in execution order. The
/// engine processes them exactly as it would the corresponding
/// [`StepEvent`]s of an all-symbolic run.
#[derive(Debug)]
pub enum FfEvent {
    /// The guest reported a high-level location (`log_pc`).
    LogPc {
        /// High-level program counter.
        pc: u64,
        /// High-level opcode.
        opcode: u64,
    },
    /// The guest reported a structured event.
    Guest(GuestEvent),
}

/// Structured guest events surfaced to the engine.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum GuestEvent {
    /// Exception reached top level (class name resolved from guest memory).
    Exception(String),
    /// Guest entered a code object.
    EnterCode(u64),
    /// Custom marker.
    Marker(u64, u64),
}

/// What happened during one [`Executor::step`].
#[derive(Debug)]
pub enum StepEvent {
    /// Nothing notable; the state advanced.
    Advanced,
    /// The guest reported a high-level location (`log_pc`).
    LogPc {
        /// High-level program counter.
        pc: u64,
        /// High-level opcode.
        opcode: u64,
    },
    /// The state forked; alternates are returned (the stepped state
    /// continues on its own side).
    Forked {
        /// Newly created alternate states.
        alternates: Vec<State>,
    },
    /// The state terminated.
    Terminated(TermStatus),
    /// The guest reported a structured event.
    Guest(GuestEvent),
}

/// Symbolic executor for one LIR program.
///
/// Owns the expression pool and the solver so the Chef layer and the
/// executor share interning and caches.
pub struct Executor<'p> {
    /// Program being executed (the "interpreter binary").
    pub prog: &'p Program,
    /// Shared expression pool.
    pub pool: ExprPool,
    /// Shared solver.
    pub solver: Solver,
    /// Tunables.
    pub config: ExecConfig,
    /// Counters.
    pub stats: ExecStats,
    /// The fork-point snapshot: captured at the last step boundary before
    /// the first symbolic-consuming event (see
    /// [`Executor::should_capture`]), so it includes the whole
    /// deterministic prologue — `make_symbolic` *and* the interpreter
    /// setup after it — and every explored state descends from it.
    /// Engines attach it to exported seeds; [`Executor::restore_state`]
    /// consumes it.
    pub fork_snapshot: Option<Arc<Snapshot>>,
    /// Restored-state templates by snapshot fingerprint, oldest first: the
    /// first restore decodes, later ones clone (copy-on-write memory makes
    /// that cheap). Holds at most `snap_cache_cap` templates.
    snap_cache: VecDeque<(u64, State)>,
    snap_cache_cap: usize,
    next_state_id: u64,
    /// Fast-forward gating mode.
    ff_mode: FfMode,
    /// Adaptive per-site gating state, keyed by pre-segment HL PC. Lives
    /// here (not on states) so learning survives forks and snapshot
    /// restores; exported via [`Executor::ff_sites_snapshot`].
    ff_sites: FxHashMap<u64, FfSiteState>,
    /// One-entry negative cache: the last HL PC found cold. Cold sites are
    /// revisited every symbolic step of a stalled region, and coldness is
    /// sticky within a run, so this turns the common skip into one compare
    /// instead of a hash probe.
    ff_cold_hint: u64,
    /// Superinstruction cache for the segment VM: block fusions learned in
    /// one segment speed up every later segment.
    seg_cache: SuperCache,
    /// Recycled overlay pages for [`Executor::try_fast_forward`]: each
    /// attempt drains its [`SegMem`] back here so back-to-back segments
    /// reuse page allocations instead of zeroing fresh ones.
    seg_pages: Vec<SegPage>,
}

impl<'p> Executor<'p> {
    /// Creates an executor for `prog`.
    pub fn new(prog: &'p Program, config: ExecConfig) -> Self {
        Executor {
            prog,
            pool: ExprPool::new(),
            solver: Solver::new(),
            config,
            stats: ExecStats::default(),
            fork_snapshot: None,
            snap_cache: VecDeque::new(),
            snap_cache_cap: SNAP_CACHE_CAP,
            next_state_id: 1,
            ff_mode: FfMode::default(),
            ff_sites: FxHashMap::default(),
            ff_cold_hint: u64::MAX,
            seg_cache: SuperCache::new(),
            seg_pages: Vec::new(),
        }
    }

    /// Sets the fast-forward gating mode.
    pub fn set_ff_mode(&mut self, mode: FfMode) {
        self.ff_mode = mode;
    }

    /// The current fast-forward gating mode.
    pub fn ff_mode(&self) -> FfMode {
        self.ff_mode
    }

    /// Marks `sites` as anchors (loop heads / dispatch heads from the HL
    /// CFG): once a region is cold, only anchors initiate segments, and
    /// anchors never go cold. Timing is correctness-free — fast-forward is
    /// a pure performance knob — but callers should invoke this at
    /// deterministic points so runs stay reproducible.
    pub fn set_ff_anchors<I: IntoIterator<Item = u64>>(&mut self, sites: I) {
        for pc in sites {
            self.ff_sites.entry(pc).or_default().anchor = true;
        }
        // An anchored site may have been cold before: drop the negative
        // cache so the gate re-reads the table.
        self.ff_cold_hint = u64::MAX;
    }

    /// Merges a learned site table (a fleet peer's, or one persisted by a
    /// serve session) into this executor's: EWMAs average, backoff and
    /// streak take the maximum, flags OR. Deterministic for a fixed call
    /// order.
    pub fn ff_absorb<I: IntoIterator<Item = (u64, FfSiteState)>>(&mut self, sites: I) {
        for (pc, other) in sites {
            match self.ff_sites.entry(pc) {
                Entry::Occupied(mut e) => e.get_mut().absorb(&other),
                Entry::Vacant(v) => {
                    v.insert(FfSiteState { skip: 0, ..other });
                }
            }
        }
        self.ff_cold_hint = u64::MAX;
    }

    /// The learned site table, sorted by HL PC (the deterministic export
    /// order every consumer preserves). Transient skip counters are
    /// zeroed.
    pub fn ff_sites_snapshot(&self) -> FfSiteTable {
        let mut v: FfSiteTable = self
            .ff_sites
            .iter()
            .map(|(&pc, s)| (pc, FfSiteState { skip: 0, ..*s }))
            .collect();
        v.sort_unstable_by_key(|&(pc, _)| pc);
        v
    }

    /// Builds the initial state (data segments loaded, entry frame pushed).
    pub fn initial_state(&mut self) -> State {
        self.stats.states_created += 1;
        State::initial(&mut self.pool, self.prog)
    }

    /// Builds an initial state that first replays the recorded event
    /// prefix `choices` (see [`State::trace`]): stepping it re-derives the
    /// state that recorded the prefix, without forking along the way.
    pub fn seeded_state(&mut self, choices: &[u64]) -> State {
        if !choices.is_empty() {
            self.stats.full_replays += 1;
        }
        let mut s = self.initial_state();
        s.replay = choices.iter().copied().collect();
        s
    }

    /// Materializes a state from a fork-point snapshot instead of
    /// replaying the interpreter prologue. The returned state's trace
    /// equals the snapshot's; the caller queues the seed's remaining
    /// choices as the replay suffix.
    ///
    /// Returns `None` if the snapshot fails validation — the caller falls
    /// back to full prefix replay ([`Executor::seeded_state`]).
    pub fn restore_state(&mut self, snap: &Snapshot) -> Option<State> {
        let cached = self
            .snap_cache
            .iter()
            .position(|(fp, _)| *fp == snap.fingerprint);
        let slot = match cached {
            Some(slot) => slot,
            None => {
                let _restore = chef_trace::span(chef_trace::Phase::SnapshotRestore);
                let mut template = snap.restore(&mut self.pool)?;
                // The engine replays `snap.hl_events` itself; keeping the
                // prefix on the state would just be cloned on every fork.
                template.hl_log = Vec::new();
                if self.snap_cache.len() >= self.snap_cache_cap {
                    self.snap_cache.pop_front();
                }
                self.snap_cache.push_back((snap.fingerprint, template));
                self.snap_cache.len() - 1
            }
        };
        let mut s = self.snap_cache[slot].1.clone();
        s.id = self.fresh_id();
        self.stats.states_created += 1;
        self.stats.snapshot_restores += 1;
        self.stats.prologue_ll_skipped += snap.ll_steps;
        Some(s)
    }

    /// Whether the fork-point snapshot should be captured at the current
    /// step boundary: no snapshot yet, the state is still on the unique
    /// pre-fork prologue path, symbolic inputs exist, and the *next*
    /// instruction is the first to consume symbolic data (fork, solver
    /// query, or concretization). Capturing at the last clean boundary
    /// before that event skips the maximum shared prologue — including the
    /// interpreter setup that runs *after* `make_symbolic` — while every
    /// explored state still descends from the capture point (everything
    /// before it is deterministic and shared).
    fn should_capture(&self, state: &State) -> bool {
        self.fork_snapshot.is_none()
            && !state.inputs.is_empty()
            && state.last_fork_loc.is_none()
            && !state.saw_guest_exception
            && !state.hl_log_overflow
            && self.peek_consumes_symbolic(state)
    }

    /// Peeks at the instruction (or terminator) the next step will
    /// execute: does it consume a symbolic value in a way that forks,
    /// queries the solver, or records a trace event?
    fn peek_consumes_symbolic(&self, state: &State) -> bool {
        let Some(frame) = state.frames.last() else {
            return false;
        };
        let func = self.prog.func(frame.func);
        let block = &func.blocks[frame.block];
        let sym_op = |op: &Operand| match op {
            Operand::Imm(_) => false,
            Operand::Reg(r) => !self.pool.is_const(frame.regs[r.0 as usize]),
        };
        if frame.ip < block.insts.len() {
            match &block.insts[frame.ip] {
                // Symbolic pointers fork; symbolic stored values don't.
                Inst::Load { addr, .. } | Inst::Store { addr, .. } => sym_op(addr),
                Inst::Intrinsic { intr, args, .. } => {
                    matches!(
                        intr,
                        Intrinsic::MakeSymbolic
                            | Intrinsic::LogPc
                            | Intrinsic::Assume
                            | Intrinsic::UpperBound
                            | Intrinsic::Concretize
                            | Intrinsic::EndSymbolic
                            | Intrinsic::Abort
                    ) && args.iter().any(sym_op)
                }
                _ => false,
            }
        } else {
            match &block.term {
                Term::Branch { cond, .. } => sym_op(cond),
                Term::Switch { on, .. } => sym_op(on),
                Term::Halt { code } => sym_op(code),
                _ => false,
            }
        }
    }

    fn fresh_id(&mut self) -> StateId {
        let id = StateId(self.next_state_id);
        self.next_state_id += 1;
        id
    }

    /// Gives a cloned state its own identity and counts it. Engines use
    /// this when they materialize states by cloning (e.g. the shared
    /// replay-prefix clones of grouped frontier injection) rather than
    /// through [`Executor::fork`] or a restore.
    pub fn adopt_clone(&mut self, state: &mut State) {
        state.id = self.fresh_id();
        self.stats.states_created += 1;
    }

    fn fork(&mut self, base: &State, constraint: Option<ExprId>) -> State {
        let mut s = base.clone();
        s.id = self.fresh_id();
        s.depth += 1;
        if let Some(c) = constraint {
            s.path.push(c);
        }
        self.stats.states_created += 1;
        s
    }

    fn eval(&mut self, state: &State, op: &Operand) -> ExprId {
        match op {
            Operand::Reg(r) => state.frame().regs[r.0 as usize],
            Operand::Imm(v) => self.pool.constant(64, *v),
        }
    }

    fn truthy(&mut self, e: ExprId) -> ExprId {
        self.pool.is_nonzero(e)
    }

    fn widen_bool(&mut self, e: ExprId) -> ExprId {
        self.pool.zext(64, e)
    }

    /// Concretizes `expr` on this path: picks one feasible value, binds the
    /// path to it, and returns the value. Returns `None` on contradiction.
    ///
    /// The chosen value is recorded in the state's trace (and taken from
    /// the replay queue during prefix replay): value selection goes through
    /// solver caches whose answers depend on query history, so replay must
    /// pin the original choice rather than re-ask.
    fn concretize_value(&mut self, state: &mut State, expr: ExprId) -> Option<u64> {
        if let Some(v) = self.pool.as_const(expr) {
            return Some(v);
        }
        let v = match state.take_replay() {
            Some(v) => v,
            None => self.solver.value_of(&self.pool, expr, &state.path)?,
        };
        state.trace.push(v);
        let w = self.pool.width(expr);
        let c = self.pool.constant(w, v);
        let eq = self.pool.eq(expr, c);
        state.path.push(eq);
        Some(v)
    }

    /// Resolves a (possibly symbolic) address to one concrete value in the
    /// current state, forking alternates for other feasible values.
    fn resolve_pointer(
        &mut self,
        state: &mut State,
        addr: ExprId,
    ) -> Result<(u64, Vec<State>), TermStatus> {
        if let Some(v) = self.pool.as_const(addr) {
            return Ok((v, Vec::new()));
        }
        if let Some(v) = state.take_replay() {
            // Prefix replay: pin the recorded address instead of
            // re-enumerating; siblings were forked at recording time.
            state.trace.push(v);
            let c = self.pool.constant(64, v);
            let eq = self.pool.eq(addr, c);
            state.path.push(eq);
            return Ok((v, Vec::new()));
        }
        let limit = self.config.max_ptr_values;
        let mut vals = self
            .solver
            .enumerate_values(&mut self.pool, addr, &state.path, limit + 1);
        // Ascending order makes the fork layout independent of solver model
        // order whenever the value set is complete (the common case). Only
        // when more than `max_ptr_values` targets exist does the *kept
        // subset* still depend on enumeration history — that residual
        // nondeterminism is inherent to the dropping policy and is counted
        // in `dropped_ptr_values`.
        vals.sort_unstable();
        match vals.len() {
            0 => Err(TermStatus::AssumeFailed),
            1 => {
                state.trace.push(vals[0]);
                Ok((vals[0], Vec::new()))
            }
            n => {
                let dropped = n > limit;
                let vals = &vals[..n.min(limit)];
                if dropped {
                    self.stats.dropped_ptr_values += 1;
                }
                let loc = state.ll_loc();
                let mut alternates = Vec::new();
                // Alternates re-execute the memory access, so their value
                // goes into the replay queue, not the trace: the
                // re-execution consumes it and records it exactly once —
                // and if the alternate is exported before re-executing,
                // the seed still carries the value (replay remainders are
                // appended to shipped seeds).
                for &v in &vals[1..] {
                    let c = self.pool.constant(64, v);
                    let eq = self.pool.eq(addr, c);
                    let mut alt = self.fork(state, Some(eq));
                    alt.replay.push_back(v);
                    Self::note_fork(&mut alt, loc);
                    alternates.push(alt);
                }
                let c = self.pool.constant(64, vals[0]);
                let eq = self.pool.eq(addr, c);
                state.path.push(eq);
                state.trace.push(vals[0]);
                Self::note_fork(state, loc);
                self.stats.symptr_forks += alternates.len() as u64;
                self.stats.forks += alternates.len() as u64;
                Ok((vals[0], alternates))
            }
        }
    }

    /// Feasibility of `state.path ∧ extra` without cloning the path: the
    /// trial constraint is pushed, checked, and popped. With the
    /// incremental solver the check itself is an assumption solve over the
    /// persistent instance, so this makes the whole branch-feasibility path
    /// allocation-light.
    fn feasible_with(&mut self, state: &mut State, extra: ExprId) -> bool {
        state.path.push(extra);
        let ok = self.solver.is_feasible(&self.pool, &state.path);
        state.path.pop();
        ok
    }

    fn note_fork(state: &mut State, loc: (u32, u32)) {
        if state.last_fork_loc == Some(loc) {
            state.consecutive_forks += 1;
        } else {
            state.last_fork_loc = Some(loc);
            state.consecutive_forks = 1;
        }
    }

    /// Executes one instruction (or terminator) of `state`.
    ///
    /// The state is mutated in place; forked alternates are returned in the
    /// event. After `StepEvent::Terminated` the state must not be stepped
    /// again.
    pub fn step(&mut self, state: &mut State) -> StepEvent {
        if self.should_capture(state) {
            let _cap = chef_trace::span(chef_trace::Phase::SnapshotCap);
            let snap = Snapshot::capture(state, &self.pool);
            self.stats.snapshots_captured += 1;
            self.fork_snapshot = Some(Arc::new(snap));
            // The snapshot owns the prefix now; dropping it from the state
            // keeps every future fork from cloning it along.
            state.hl_log = Vec::new();
        }
        self.stats.ll_instructions += 1;
        state.ll_steps += 1;
        let func = self.prog.func(state.frame().func);
        let block = &func.blocks[state.frame().block];
        let ip = state.frame().ip;
        if ip < block.insts.len() {
            let inst = block.insts[ip].clone();
            state.frame_mut().ip += 1;
            return self.exec_inst(state, inst);
        }
        let term = block.term.clone();
        self.exec_term(state, term)
    }

    fn exec_inst(&mut self, state: &mut State, inst: Inst) -> StepEvent {
        match inst {
            Inst::Const { dst, value } => {
                let e = self.pool.constant(64, value);
                state.frame_mut().regs[dst.0 as usize] = e;
                StepEvent::Advanced
            }
            Inst::Mov { dst, src } => {
                let e = self.eval(state, &src);
                state.frame_mut().regs[dst.0 as usize] = e;
                StepEvent::Advanced
            }
            Inst::Bin { op, dst, a, b } => {
                let ea = self.eval(state, &a);
                let eb = self.eval(state, &b);
                let mut r = self.pool.bin(op, ea, eb);
                if op.is_predicate() {
                    r = self.widen_bool(r);
                }
                state.frame_mut().regs[dst.0 as usize] = r;
                StepEvent::Advanced
            }
            Inst::Not { dst, a } => {
                let ea = self.eval(state, &a);
                let r = self.pool.not(ea);
                state.frame_mut().regs[dst.0 as usize] = r;
                StepEvent::Advanced
            }
            Inst::Select { dst, cond, t, f } => {
                let ec = self.eval(state, &cond);
                let c = self.truthy(ec);
                let et = self.eval(state, &t);
                let ef = self.eval(state, &f);
                let r = self.pool.ite(c, et, ef);
                state.frame_mut().regs[dst.0 as usize] = r;
                StepEvent::Advanced
            }
            Inst::Load { dst, addr, size } => {
                let ea = self.eval(state, &addr);
                let (a, alternates) = match self.resolve_pointer(state, ea) {
                    Ok(r) => r,
                    Err(t) => return self.terminate(state, t),
                };
                let v = match size {
                    MemSize::U8 => {
                        let b = state.mem.read_u8(a);
                        self.pool.zext(64, b)
                    }
                    MemSize::U64 => state.mem.read_u64(&mut self.pool, a),
                };
                state.frame_mut().regs[dst.0 as usize] = v;
                if alternates.is_empty() {
                    StepEvent::Advanced
                } else {
                    // Alternates re-execute the load at their own address.
                    let mut alts = alternates;
                    for alt in &mut alts {
                        alt.frame_mut().ip -= 1;
                    }
                    StepEvent::Forked { alternates: alts }
                }
            }
            Inst::Store { addr, value, size } => {
                let ea = self.eval(state, &addr);
                let ev = self.eval(state, &value);
                let (a, alternates) = match self.resolve_pointer(state, ea) {
                    Ok(r) => r,
                    Err(t) => return self.terminate(state, t),
                };
                match size {
                    MemSize::U8 => {
                        let b = self.pool.extract(7, 0, ev);
                        state.mem.write_u8(&self.pool, a, b);
                    }
                    MemSize::U64 => state.mem.write_u64(&mut self.pool, a, ev),
                }
                if alternates.is_empty() {
                    StepEvent::Advanced
                } else {
                    let mut alts = alternates;
                    for alt in &mut alts {
                        alt.frame_mut().ip -= 1;
                    }
                    StepEvent::Forked { alternates: alts }
                }
            }
            Inst::Call { dst, func, args } => {
                let callee = self.prog.func(func);
                let zero = self.pool.constant(64, 0);
                let mut regs = vec![zero; callee.n_regs as usize];
                for (i, a) in args.iter().enumerate() {
                    regs[i] = self.eval(state, a);
                }
                state.frames.push(Frame {
                    func,
                    block: 0,
                    ip: 0,
                    regs,
                    ret_dst: dst,
                });
                StepEvent::Advanced
            }
            Inst::Intrinsic { dst, intr, args } => self.exec_intrinsic(state, dst, intr, &args),
        }
    }

    fn exec_intrinsic(
        &mut self,
        state: &mut State,
        dst: Option<chef_lir::Reg>,
        intr: Intrinsic,
        args: &[Operand],
    ) -> StepEvent {
        let vals: Vec<ExprId> = args.iter().map(|a| self.eval(state, a)).collect();
        match intr {
            Intrinsic::MakeSymbolic => {
                let addr = match self.concretize_value(state, vals[0]) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                let len = match self.concretize_value(state, vals[1]) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                let name_id = self
                    .pool
                    .as_const(vals[2])
                    .expect("name id is an immediate");
                let name = self.prog.name(name_id).to_string();
                let mut vars = Vec::with_capacity(len as usize);
                for i in 0..len {
                    let v = self.pool.fresh_var(format!("{name}[{i}]"), 8);
                    vars.push(self.pool.as_var(v).expect("fresh var"));
                    state.mem.write_u8(&self.pool, addr.wrapping_add(i), v);
                }
                state.inputs.push(SymInput { name, vars });
                StepEvent::Advanced
            }
            Intrinsic::LogPc => {
                let pc = match self.concretize_value(state, vals[0]) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                let opcode = match self.concretize_value(state, vals[1]) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                state.hlpc = pc;
                state.hl_opcode = opcode;
                state.hl_len += 1;
                // Pre-capture prologue prefix for the fork-point snapshot;
                // recording stops once a snapshot exists or the state
                // forks. A target that never reaches a capture point
                // (e.g. no symbolic input ever consumed) would otherwise
                // record forever, so past a generous prologue bound the
                // log is dropped and capture is forgone for this path.
                if self.fork_snapshot.is_none() && state.last_fork_loc.is_none() {
                    if state.hl_log.len() < HL_LOG_CAP {
                        state.hl_log.push((pc, opcode));
                    } else {
                        state.hl_log = Vec::new();
                        state.hl_log_overflow = true;
                    }
                }
                StepEvent::LogPc { pc, opcode }
            }
            Intrinsic::Assume => {
                let c = self.truthy(vals[0]);
                match self.pool.as_const(c) {
                    Some(1) => StepEvent::Advanced,
                    Some(_) => self.terminate(state, TermStatus::AssumeFailed),
                    None if state.is_replaying() => {
                        // Prefix replay: the assumption held when the prefix
                        // was recorded, so re-checking is redundant.
                        state.path.push(c);
                        StepEvent::Advanced
                    }
                    None => {
                        if self.feasible_with(state, c) {
                            state.path.push(c);
                            StepEvent::Advanced
                        } else {
                            self.terminate(state, TermStatus::AssumeFailed)
                        }
                    }
                }
            }
            Intrinsic::IsSymbolic => {
                let r = self
                    .pool
                    .constant(64, (!self.pool.is_const(vals[0])) as u64);
                if let Some(d) = dst {
                    state.frame_mut().regs[d.0 as usize] = r;
                }
                StepEvent::Advanced
            }
            Intrinsic::UpperBound => {
                let v = match self.solver.max_value(&mut self.pool, vals[0], &state.path) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                if let Some(d) = dst {
                    let e = self.pool.constant(64, v);
                    state.frame_mut().regs[d.0 as usize] = e;
                }
                StepEvent::Advanced
            }
            Intrinsic::Concretize => {
                let v = match self.concretize_value(state, vals[0]) {
                    Some(v) => v,
                    None => return self.terminate(state, TermStatus::AssumeFailed),
                };
                if let Some(d) = dst {
                    let e = self.pool.constant(64, v);
                    state.frame_mut().regs[d.0 as usize] = e;
                }
                StepEvent::Advanced
            }
            Intrinsic::EndSymbolic => {
                let v = self.concretize_value(state, vals[0]).unwrap_or(0);
                self.terminate(state, TermStatus::Ended(v))
            }
            Intrinsic::Abort => {
                let v = self.concretize_value(state, vals[0]).unwrap_or(0);
                self.terminate(state, TermStatus::Aborted(v))
            }
            Intrinsic::TraceEvent => {
                let kind = self.pool.as_const(vals[0]).unwrap_or(0);
                let ev = match kind {
                    trace_kind::EXCEPTION => {
                        let ptr = self.pool.as_const(vals[1]).unwrap_or(0);
                        let len = self.pool.as_const(vals[2]).unwrap_or(0).min(256);
                        let mut bytes = Vec::with_capacity(len as usize);
                        for i in 0..len {
                            let b = state.mem.read_u8(ptr.wrapping_add(i));
                            bytes.push(self.pool.as_const(b).unwrap_or(b'?' as u64) as u8);
                        }
                        state.saw_guest_exception = true;
                        GuestEvent::Exception(String::from_utf8_lossy(&bytes).into_owned())
                    }
                    trace_kind::ENTER_CODE => {
                        GuestEvent::EnterCode(self.pool.as_const(vals[1]).unwrap_or(0))
                    }
                    _ => GuestEvent::Marker(
                        self.pool.as_const(vals[1]).unwrap_or(0),
                        self.pool.as_const(vals[2]).unwrap_or(0),
                    ),
                };
                StepEvent::Guest(ev)
            }
            Intrinsic::DebugPrint => StepEvent::Advanced,
        }
    }

    fn exec_term(&mut self, state: &mut State, term: Term) -> StepEvent {
        match term {
            Term::Jump(b) => {
                let f = state.frame_mut();
                f.block = b.0 as usize;
                f.ip = 0;
                StepEvent::Advanced
            }
            Term::Branch { cond, then_, else_ } => {
                let ec = self.eval(state, &cond);
                let c = self.truthy(ec);
                if let Some(v) = self.pool.as_const(c) {
                    let f = state.frame_mut();
                    f.block = if v == 1 { then_.0 } else { else_.0 } as usize;
                    f.ip = 0;
                    return StepEvent::Advanced;
                }
                let nc = self.pool.not(c);
                if let Some(choice) = state.take_replay() {
                    // Prefix replay: take the recorded side without
                    // feasibility checks (it was feasible when recorded)
                    // and without forking the sibling.
                    let (cons, target) = if choice == 0 { (c, then_) } else { (nc, else_) };
                    state.trace.push(choice.min(1));
                    state.path.push(cons);
                    let f = state.frame_mut();
                    f.block = target.0 as usize;
                    f.ip = 0;
                    return StepEvent::Advanced;
                }
                let feas_then = self.feasible_with(state, c);
                let feas_else = self.feasible_with(state, nc);
                match (feas_then, feas_else) {
                    (true, true) => {
                        let loc = state.ll_loc();
                        let mut alt = self.fork(state, Some(nc));
                        alt.trace.push(1);
                        Self::note_fork(&mut alt, loc);
                        {
                            let f = alt.frame_mut();
                            f.block = else_.0 as usize;
                            f.ip = 0;
                        }
                        state.path.push(c);
                        state.trace.push(0);
                        Self::note_fork(state, loc);
                        let f = state.frame_mut();
                        f.block = then_.0 as usize;
                        f.ip = 0;
                        self.stats.forks += 1;
                        StepEvent::Forked {
                            alternates: vec![alt],
                        }
                    }
                    (true, false) => {
                        state.trace.push(0);
                        let f = state.frame_mut();
                        f.block = then_.0 as usize;
                        f.ip = 0;
                        StepEvent::Advanced
                    }
                    (false, true) => {
                        state.trace.push(1);
                        let f = state.frame_mut();
                        f.block = else_.0 as usize;
                        f.ip = 0;
                        StepEvent::Advanced
                    }
                    (false, false) => self.terminate(state, TermStatus::AssumeFailed),
                }
            }
            Term::Switch { on, cases, default } => {
                let eo = self.eval(state, &on);
                if let Some(v) = self.pool.as_const(eo) {
                    let target = cases
                        .iter()
                        .find(|(cv, _)| *cv == v)
                        .map(|(_, b)| *b)
                        .unwrap_or(default);
                    let f = state.frame_mut();
                    f.block = target.0 as usize;
                    f.ip = 0;
                    return StepEvent::Advanced;
                }
                if let Some(arm) = state.take_replay() {
                    // Prefix replay: rebuild the recorded arm's constraint.
                    // Arm codes < cases.len() name a case; codes >=
                    // cases.len() name the default arm, with the excess
                    // encoding how many case negations guarded it when it
                    // was recorded (the scan below can stop early).
                    state.trace.push(arm);
                    let (cons, target) = if (arm as usize) < cases.len() {
                        let (cv, b) = cases[arm as usize];
                        let c = self.pool.constant(64, cv);
                        (self.pool.eq(eo, c), b)
                    } else {
                        let guards = (arm as usize - cases.len()).min(cases.len());
                        let mut acc = self.pool.true_();
                        for &(cv, _) in &cases[..guards] {
                            let c = self.pool.constant(64, cv);
                            let eq = self.pool.eq(eo, c);
                            let ne = self.pool.not(eq);
                            acc = self.pool.and1(acc, ne);
                        }
                        (acc, default)
                    };
                    state.path.push(cons);
                    let f = state.frame_mut();
                    f.block = target.0 as usize;
                    f.ip = 0;
                    return StepEvent::Advanced;
                }
                // Symbolic dispatch: fork each feasible case plus default.
                // Each feasible arm carries its replay code (see above).
                let mut feasible: Vec<(u64, ExprId, u32)> = Vec::new();
                let mut default_guard: Vec<ExprId> = Vec::new();
                for (i, (cv, b)) in cases.iter().enumerate() {
                    let c = self.pool.constant(64, *cv);
                    let eq = self.pool.eq(eo, c);
                    if self.feasible_with(state, eq) {
                        feasible.push((i as u64, eq, b.0));
                    }
                    let ne = self.pool.not(eq);
                    default_guard.push(ne);
                    if feasible.len() >= self.config.max_switch_targets {
                        break;
                    }
                }
                // Default arm: all scanned cases excluded.
                let depth = state.path.len();
                state.path.extend(default_guard.iter().copied());
                let default_feasible = self.solver.is_feasible(&self.pool, &state.path);
                state.path.truncate(depth);
                if default_feasible {
                    // Use conjunction of the negations as one constraint set.
                    let mut acc = self.pool.true_();
                    for &g in &default_guard {
                        acc = self.pool.and1(acc, g);
                    }
                    feasible.push(((cases.len() + default_guard.len()) as u64, acc, default.0));
                }
                if feasible.is_empty() {
                    return self.terminate(state, TermStatus::AssumeFailed);
                }
                let loc = state.ll_loc();
                let mut alternates = Vec::new();
                for &(code, cons, block) in feasible.iter().skip(1) {
                    let mut alt = self.fork(state, Some(cons));
                    alt.trace.push(code);
                    Self::note_fork(&mut alt, loc);
                    let f = alt.frame_mut();
                    f.block = block as usize;
                    f.ip = 0;
                    alternates.push(alt);
                }
                let (code, cons, block) = feasible[0];
                state.path.push(cons);
                state.trace.push(code);
                let f = state.frame_mut();
                f.block = block as usize;
                f.ip = 0;
                if alternates.is_empty() {
                    StepEvent::Advanced
                } else {
                    Self::note_fork(state, loc);
                    self.stats.forks += alternates.len() as u64;
                    StepEvent::Forked { alternates }
                }
            }
            Term::Ret(val) => {
                let v = val.map(|op| self.eval(state, &op));
                let ret_dst = state.frame().ret_dst;
                state.frames.pop();
                if state.frames.is_empty() {
                    return self.terminate_done(state, TermStatus::Returned);
                }
                if let (Some(dst), Some(v)) = (ret_dst, v) {
                    state.frame_mut().regs[dst.0 as usize] = v;
                }
                StepEvent::Advanced
            }
            Term::Halt { code } => {
                let e = self.eval(state, &code);
                let v = self.concretize_value(state, e).unwrap_or(0);
                self.terminate(state, TermStatus::Halted(v))
            }
            Term::Unterminated => unreachable!("validated programs are terminated"),
        }
    }

    fn terminate(&mut self, state: &mut State, status: TermStatus) -> StepEvent {
        state.frames.clear();
        let _ = state;
        StepEvent::Terminated(status)
    }

    fn terminate_done(&mut self, _state: &mut State, status: TermStatus) -> StepEvent {
        StepEvent::Terminated(status)
    }

    /// Attempts to fast-forward `state` on the concrete segment VM: runs
    /// the program concretely from the state's current machine image until
    /// the next symbolic-consuming instruction (or `max_steps`), then
    /// transfers the image back. Returns the segment's guest events, or
    /// `None` if no concrete progress was possible (the caller falls
    /// through to a normal symbolic [`Executor::step`]).
    ///
    /// Equivalence with the all-symbolic run is exact, not approximate:
    ///
    /// * Only instructions whose symbolic execution never touches the
    ///   solver, the trace, or the replay queue are executed concretely
    ///   (register taint is a per-frame bitmap; memory taint is checked
    ///   per load). The stopping instruction is left for [`Executor::step`].
    /// * The segment VM logs every constant the symbolic executor would
    ///   have interned, in order; replaying that log keeps the expression
    ///   pool's id allocation — and with it operand canonicalization,
    ///   snapshots, and solver behavior — byte-identical.
    /// * Concrete steps are charged to `ll_instructions` and
    ///   `state.ll_steps` exactly like symbolic ones, so budgets, hang
    ///   detection, and fair-share scheduling are unchanged.
    pub fn try_fast_forward(&mut self, state: &mut State, max_steps: u64) -> Option<Vec<FfEvent>> {
        // Policy key: the HL PC where the segment would *start* (the
        // segment itself may retire `log_pc` events and move `state.hlpc`).
        let ff_site = state.hlpc;
        match self.ff_mode {
            FfMode::Off => return None,
            FfMode::Fixed => {
                if state.ff_backoff > 0 {
                    state.ff_backoff -= 1;
                    self.stats.ff_skipped += 1;
                    return None;
                }
            }
            FfMode::Adaptive => {
                if ff_site == self.ff_cold_hint {
                    self.stats.ff_skipped += 1;
                    return None;
                }
                if let Some(site) = self.ff_sites.get_mut(&ff_site) {
                    if site.cold && !site.anchor {
                        self.ff_cold_hint = ff_site;
                        self.stats.ff_skipped += 1;
                        return None;
                    }
                    if site.skip > 0 {
                        site.skip -= 1;
                        self.stats.ff_skipped += 1;
                        return None;
                    }
                }
            }
        }
        if max_steps == 0 || state.frames.is_empty() {
            return None;
        }
        // Symbolic → concrete: only the top frame is converted eagerly
        // (constant registers carry their value, non-constant ones their
        // expression id as an opaque token). Deeper caller frames are
        // materialized on demand when a `ret` pops into them, so a deep
        // interpreter stack costs nothing per attempt.
        struct CallerFrames<'a> {
            frames: &'a [Frame],
            pool: &'a ExprPool,
            consumed: usize,
        }
        impl FrameSource for CallerFrames<'_> {
            fn pop_into(&mut self) -> Option<SegFrame> {
                let idx = self.frames.len().checked_sub(1 + self.consumed)?;
                self.consumed += 1;
                Some(to_seg_frame(self.pool, &self.frames[idx]))
            }
        }
        let (callers, top) = state.frames.split_at(state.frames.len() - 1);
        let mut seg_frames = vec![to_seg_frame(&self.pool, &top[0])];
        let mut below = CallerFrames {
            frames: callers,
            pool: &self.pool,
            consumed: 0,
        };
        /// Lazy concrete view of the CoW symbolic memory.
        struct SymSource<'a> {
            mem: &'a SymMem,
            pool: &'a ExprPool,
        }
        impl PageSource for SymSource<'_> {
            fn byte(&self, addr: u64) -> Option<u8> {
                self.pool.as_const(self.mem.read_u8(addr)).map(|v| v as u8)
            }
        }
        let src = SymSource {
            mem: &state.mem,
            pool: &self.pool,
        };
        let mut seg_mem = SegMem::with_pool(&src, std::mem::take(&mut self.seg_pages));
        chef_trace::ff_attempt(ff_site);
        let out = {
            let _seg = chef_trace::span(chef_trace::Phase::ConcreteSeg);
            run_segment_cached(
                self.prog,
                &mut seg_frames,
                &mut below,
                &mut seg_mem,
                max_steps,
                &mut self.seg_cache,
            )
        };
        let consumed = below.consumed;
        let (dirty, mut pages) = seg_mem.drain();
        // The pool tracks the high-water page count of a single attempt;
        // cap it so one memory-sweeping outlier doesn't pin pages forever.
        pages.truncate(512);
        self.seg_pages = pages;
        match self.ff_mode {
            FfMode::Off => unreachable!("gated above"),
            // Fixed backoff policy: short segments ending at a *data*
            // boundary mean this region is dense with live symbolic values
            // — nearby attempts will stall the same way, so pause before
            // retrying. One-shot [`SegStop::Event`] stops (make_symbolic,
            // forks, terminators) are handled by the next symbolic step,
            // after which the landscape is fresh; they never trigger
            // backoff.
            FfMode::Fixed => {
                let data_stall = matches!(out.stop, SegStop::Boundary | SegStop::TaintedLoad);
                if data_stall && out.steps < FF_MIN_WIN {
                    state.ff_backoff = FF_BACKOFF;
                }
            }
            // Adaptive policy: a site is degenerate when its smoothed
            // *net* win per attempt falls below the transfer break-even —
            // *regardless* of why segments stop. Net, because the transfer
            // back is not free: every logged constant is replayed through
            // the pool (a hash probe each, about the cost of the symbolic
            // step it replaces), so a segment's true saving is its retired
            // instructions minus its intern log. Interpreter regions that
            // mint fresh values per instruction (string builders, say)
            // retire plenty yet save nothing; fork-dense code stalls on
            // `Event` stops (symbolic branches) the fixed policy never
            // penalized. Both look degenerate here, which is exactly the
            // regression this gate exists to remove. Judging the EWMA
            // rather than the single attempt keeps one noisy short segment
            // at a productive site from triggering backoff. Unprofitable
            // sites double their skip interval until a profitable segment
            // resets them; sites that stay degenerate go cold and stop
            // initiating segments entirely, unless they are CFG anchors
            // (loop/dispatch heads), which keep probing at a capped
            // interval so a region that turns concrete is re-discovered.
            FfMode::Adaptive => {
                let gained = out.steps.saturating_sub(out.interns.len() as u64);
                // A new site's EWMA is seeded with its first attempt, so
                // the zero initial value doesn't bias good sites degenerate.
                let fresh = !self.ff_sites.contains_key(&ff_site);
                let site = self.ff_sites.entry(ff_site).or_default();
                site.ewma = if fresh {
                    gained
                } else {
                    (3 * site.ewma + gained) / 4
                };
                let degenerate = site.ewma < FF_PROFIT;
                if degenerate {
                    site.streak += 1;
                    let cap = if site.anchor {
                        FF_ANCHOR_CAP
                    } else {
                        FF_SITE_CAP
                    };
                    site.backoff = if site.backoff == 0 {
                        FF_BACKOFF_BASE
                    } else {
                        (site.backoff * 2).min(cap)
                    };
                    site.skip = site.backoff;
                    if !site.anchor && site.streak >= FF_COLD_STREAK {
                        site.cold = true;
                    }
                } else {
                    site.streak = 0;
                    site.backoff = 0;
                }
                chef_trace::ff_backoff(ff_site, site.backoff as u64);
            }
        }
        if out.steps == 0 {
            return None;
        }
        self.stats.ll_instructions += out.steps;
        self.stats.concrete_ll_executed += out.steps;
        self.stats.fast_forwards += 1;
        chef_trace::ff_retired(ff_site, out.steps);
        if matches!(out.stop, SegStop::TaintedLoad | SegStop::OutOfFuel) {
            self.stats.ff_aborts += 1;
            chef_trace::ff_abort(ff_site);
        }
        state.ll_steps += out.steps;
        // Replay the intern log so every constant the skipped symbolic
        // steps would have interned exists, in the same creation order.
        // After this, the write-backs below intern nothing new.
        for &(w, v) in &out.interns {
            self.pool.constant(w, v);
        }
        for &(addr, b) in &dirty {
            let e = self.pool.constant(8, b as u64);
            state.mem.write_u8(&self.pool, addr, e);
        }
        // Concrete → symbolic: rebuild only what the segment touched. The
        // frame-stack prefix the segment never reached stays in place
        // verbatim. Of the caller frames the segment did work in (the
        // bottom `orig_live` of the working stack), untouched registers
        // still hold their pre-segment expressions; frames pushed by calls
        // inside the segment fill untouched registers with the zero
        // constant `Inst::Call` uses. Written registers round-trip tokens
        // to their expression ids and concrete values to
        // (already-interned) constants.
        let zero = self.pool.constant(64, 0);
        let first = state.frames.len() - 1 - consumed;
        let mut rebuilt = std::mem::take(&mut state.frames);
        let tail: Vec<Frame> = rebuilt.drain(first..).collect();
        for (wi, sf) in seg_frames.iter().enumerate() {
            let old = if wi < out.orig_live {
                Some(&tail[wi])
            } else {
                None
            };
            let regs = match old {
                Some(of) if sf.untouched() => of.regs.clone(),
                _ => sf
                    .regs
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| {
                        if !sf.is_written(i as u32) {
                            match old {
                                Some(of) => of.regs[i],
                                None => zero,
                            }
                        } else if sf.is_sym(i as u32) {
                            self.pool.id_at(v as usize)
                        } else {
                            self.pool.constant(64, v)
                        }
                    })
                    .collect(),
            };
            rebuilt.push(Frame {
                func: sf.func,
                block: sf.block,
                ip: sf.ip,
                regs,
                ret_dst: sf.ret_dst,
            });
        }
        state.frames = rebuilt;
        // Mirror the per-event state updates `exec_intrinsic` performs.
        let mut events = Vec::with_capacity(out.events.len());
        for ev in out.events {
            match ev {
                SegEvent::LogPc(pc, opcode) => {
                    state.hlpc = pc;
                    state.hl_opcode = opcode;
                    state.hl_len += 1;
                    if self.fork_snapshot.is_none() && state.last_fork_loc.is_none() {
                        if state.hl_log.len() < HL_LOG_CAP {
                            state.hl_log.push((pc, opcode));
                        } else {
                            state.hl_log = Vec::new();
                            state.hl_log_overflow = true;
                        }
                    }
                    events.push(FfEvent::LogPc { pc, opcode });
                }
                SegEvent::Guest(g) => {
                    let g = match g {
                        LirGuestEvent::Exception(name) => {
                            state.saw_guest_exception = true;
                            GuestEvent::Exception(name)
                        }
                        LirGuestEvent::EnterCode(c) => GuestEvent::EnterCode(c),
                        LirGuestEvent::Marker(a, b) => GuestEvent::Marker(a, b),
                    };
                    events.push(FfEvent::Guest(g));
                }
            }
        }
        Some(events)
    }
}

/// Converts one symbolic frame into a segment-VM frame: constant registers
/// carry their value, non-constant ones their expression id as an opaque
/// token the exit rebuild round-trips via [`ExprPool::id_at`].
fn to_seg_frame(pool: &ExprPool, f: &Frame) -> SegFrame {
    let mut sf = SegFrame::new(f.func, f.block, f.ip, f.regs.len(), f.ret_dst);
    for (i, &e) in f.regs.iter().enumerate() {
        match pool.as_const(e) {
            Some(v) => sf.regs[i] = v,
            None => {
                sf.regs[i] = e.raw() as u64;
                sf.set_sym(i as u32, true);
            }
        }
    }
    sf
}

#[cfg(test)]
mod tests {
    use super::*;
    use chef_lir::{InputMap, ModuleBuilder};

    /// Runs all states to completion breadth-first, returning terminal
    /// statuses and generated inputs.
    fn explore(prog: &Program, max_steps: u64) -> Vec<(TermStatus, InputMap)> {
        let mut exec = Executor::new(prog, ExecConfig::default());
        let mut queue = vec![exec.initial_state()];
        let mut done = Vec::new();
        let mut steps = 0u64;
        while let Some(mut st) = queue.pop() {
            loop {
                steps += 1;
                if steps > max_steps {
                    panic!("exploration exceeded {max_steps} steps");
                }
                match exec.step(&mut st) {
                    StepEvent::Terminated(t) => {
                        let inputs = st
                            .concretize_inputs(&exec.pool, &mut exec.solver)
                            .unwrap_or_default();
                        done.push((t, inputs));
                        break;
                    }
                    StepEvent::Forked { alternates } => queue.extend(alternates),
                    _ => {}
                }
            }
        }
        done
    }

    #[test]
    fn concrete_program_single_path() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            let x = b.const_(12);
            let y = b.mul(x, 3u64);
            b.halt(y);
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 1000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, TermStatus::Halted(36));
    }

    #[test]
    fn paper_example_forks_two_paths() {
        // Figure 1: x symbolic; x = 3*x; if (x > 10) ...
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(1);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 1u64, name);
            let x = b.load_u8(buf);
            let t = b.mul(x, 3u64);
            let c = b.ult(10u64, t);
            b.if_else(c, |b| b.halt(1u64), |b| b.halt(0u64));
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 10_000);
        assert_eq!(done.len(), 2, "both branch outcomes explored");
        let mut saw = [false, false];
        for (status, inputs) in &done {
            let x = inputs["x"][0] as u64;
            match status {
                TermStatus::Halted(1) => {
                    assert!(3 * x > 10, "test case must satisfy the path");
                    saw[0] = true;
                }
                TermStatus::Halted(0) => {
                    assert!(3 * x <= 10);
                    saw[1] = true;
                }
                other => panic!("unexpected {other:?}"),
            }
        }
        assert!(saw[0] && saw[1]);
    }

    #[test]
    fn assume_prunes_paths() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(1);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 1u64, name);
            let x = b.load_u8(buf);
            let small = b.ult(x, 5u64);
            b.assume(small);
            let c = b.ult(x, 100u64); // implied; must not fork
            b.if_else(c, |b| b.halt(1u64), |b| b.halt(0u64));
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, TermStatus::Halted(1));
        assert!((done[0].1["x"][0] as u64) < 5);
    }

    #[test]
    fn symbolic_pointer_forks_per_location() {
        // mem[base + (x % 4)] — classic hash-bucket pattern.
        let mut mb = ModuleBuilder::new();
        let table = mb.data_bytes(&[10, 20, 30, 40]);
        let buf = mb.data_zeroed(1);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 1u64, name);
            let x = b.load_u8(buf);
            let idx = b.urem(x, 4u64);
            let addr = b.add(idx, table);
            let v = b.load_u8(addr);
            b.halt(v);
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 100_000);
        let mut codes: Vec<u64> = done
            .iter()
            .map(|(s, _)| match s {
                TermStatus::Halted(v) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, vec![10, 20, 30, 40], "one path per bucket");
    }

    #[test]
    fn upper_bound_is_concrete_max() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(1);
        let name = mb.name_id("n");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 1u64, name);
            let n = b.load_u8(buf);
            let small = b.ult(n, 17u64);
            b.assume(small);
            let ub = b.upper_bound(n);
            b.halt(ub);
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 10_000);
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].0, TermStatus::Halted(16));
    }

    #[test]
    fn switch_on_symbolic_forks_cases_and_default() {
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(1);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 1u64, name);
            let x = b.load_u8(buf);
            let out = b.reg();
            b.switch(
                x,
                &[0, 1],
                |b, v| b.set(out, v + 100),
                |b| b.set(out, 42u64),
            );
            b.halt(out);
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 100_000);
        let mut codes: Vec<u64> = done
            .iter()
            .map(|(s, _)| match s {
                TermStatus::Halted(v) => *v,
                other => panic!("unexpected {other:?}"),
            })
            .collect();
        codes.sort_unstable();
        assert_eq!(codes, vec![42, 100, 101]);
    }

    #[test]
    fn string_find_path_explosion() {
        // The validateEmail example (Figure 2): scanning a 4-byte symbolic
        // buffer for '@' creates one low-level path per position + not-found.
        let mut mb = ModuleBuilder::new();
        let buf = mb.data_zeroed(4);
        let name = mb.name_id("email");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 4u64, name);
            let i = b.const_(0);
            let found = b.mov(-1i64);
            b.while_(
                |b| b.ult(i, 4u64),
                |b| {
                    let a = b.add(i, buf);
                    let ch = b.load_u8(a);
                    let hit = b.eq(ch, b'@' as u64);
                    b.if_(hit, |b| {
                        b.set(found, i);
                        b.break_();
                    });
                    let ni = b.add(i, 1u64);
                    b.set(i, ni);
                },
            );
            b.halt(found);
        });
        let prog = mb.finish("main").unwrap();
        let done = explore(&prog, 1_000_000);
        // Positions 0..3 plus "not found" = 5 low-level paths.
        assert_eq!(done.len(), 5);
        for (status, inputs) in &done {
            let email = &inputs["email"];
            match status {
                TermStatus::Halted(p) if *p != u64::MAX => {
                    assert_eq!(email[*p as usize], b'@');
                    for &b in &email[..*p as usize] {
                        assert_ne!(b, b'@');
                    }
                }
                TermStatus::Halted(_) => {
                    assert!(email.iter().all(|&b| b != b'@'));
                }
                other => panic!("unexpected {other:?}"),
            }
        }
    }

    /// Explores a program fully, returning each terminal state's
    /// `(status, recorded trace)`.
    fn explore_traces(prog: &Program) -> Vec<(TermStatus, Vec<u64>)> {
        let mut exec = Executor::new(prog, ExecConfig::default());
        let mut queue = vec![exec.initial_state()];
        let mut done = Vec::new();
        while let Some(mut st) = queue.pop() {
            loop {
                match exec.step(&mut st) {
                    StepEvent::Terminated(t) => {
                        done.push((t, st.trace.clone()));
                        break;
                    }
                    StepEvent::Forked { alternates } => queue.extend(alternates),
                    _ => {}
                }
            }
        }
        done
    }

    /// A program exercising every nondeterministic event class: symbolic
    /// branches, a symbolic pointer, and a symbolic switch.
    fn every_fork_kind_program() -> Program {
        let mut mb = ModuleBuilder::new();
        let table = mb.data_bytes(&[1, 2, 3, 4]);
        let buf = mb.data_zeroed(2);
        let name = mb.name_id("x");
        let main = mb.declare("main", 0);
        mb.define(main, move |b| {
            b.make_symbolic(buf, 2u64, name);
            let x = b.load_u8(buf);
            let idx = b.urem(x, 4u64);
            let addr = b.add(idx, table);
            let v = b.load_u8(addr); // symbolic pointer: 4-way fork
            let addr2 = b.add(buf, 1u64);
            let y = b.load_u8(addr2);
            let out = b.reg();
            b.switch(
                y,
                &[7, 9],
                |b, case| b.set(out, case + 50),
                |b| b.set(out, 0u64),
            ); // symbolic switch: 3-way fork
            let big = b.ult(200u64, y);
            b.if_(big, |b| b.halt(99u64)); // symbolic branch
            let r = b.add(v, out);
            b.halt(r);
        });
        mb.finish("main").unwrap()
    }

    #[test]
    fn prefix_replay_rederives_every_terminal_state() {
        let prog = every_fork_kind_program();
        let done = explore_traces(&prog);
        assert!(done.len() >= 10, "got {} paths", done.len());
        for (status, trace) in &done {
            // Replay the recorded prefix in a completely fresh executor.
            let mut exec = Executor::new(&prog, ExecConfig::default());
            let mut st = exec.seeded_state(trace);
            let replayed_status = loop {
                match exec.step(&mut st) {
                    StepEvent::Terminated(t) => break t,
                    StepEvent::Forked { .. } => {
                        panic!("replay of a full trace must never fork")
                    }
                    _ => {}
                }
            };
            assert_eq!(&replayed_status, status, "replay reaches the same outcome");
            assert_eq!(&st.trace, trace, "replay re-records the identical trace");
            assert!(st.replay.is_empty(), "the whole prefix was consumed");
        }
    }

    #[test]
    fn partial_prefix_replay_resumes_forking_below_the_prefix() {
        let prog = every_fork_kind_program();
        let done = explore_traces(&prog);
        let total = done.len();
        // Replay only the first recorded event of some terminal trace; the
        // subtree below that one decision must be re-explored by forking.
        let (_, trace) = done.iter().find(|(_, t)| t.len() >= 2).unwrap();
        let prefix = &trace[..1];
        let mut exec = Executor::new(&prog, ExecConfig::default());
        let mut queue = vec![exec.seeded_state(prefix)];
        let mut finished = 0usize;
        while let Some(mut st) = queue.pop() {
            loop {
                match exec.step(&mut st) {
                    StepEvent::Terminated(_) => {
                        finished += 1;
                        break;
                    }
                    StepEvent::Forked { alternates } => queue.extend(alternates),
                    _ => {}
                }
            }
        }
        assert!(finished > 1, "subtree below the prefix still forks");
        assert!(finished < total, "a strict subtree, not the whole tree");
    }

    #[test]
    fn log_pc_updates_state() {
        let mut mb = ModuleBuilder::new();
        let main = mb.declare("main", 0);
        mb.define(main, |b| {
            b.log_pc(7u64, 3u64);
            b.halt(0u64);
        });
        let prog = mb.finish("main").unwrap();
        let mut exec = Executor::new(&prog, ExecConfig::default());
        let mut st = exec.initial_state();
        let ev = exec.step(&mut st);
        match ev {
            StepEvent::LogPc { pc: 7, opcode: 3 } => {}
            other => panic!("unexpected {other:?}"),
        }
        assert_eq!(st.hlpc, 7);
        assert_eq!(st.hl_len, 1);
    }

    #[test]
    fn restore_template_cache_is_bounded_without_changing_results() {
        // Two fork-point snapshots (distinct fingerprints) restored in
        // alternation: an executor caching one template at a time re-decodes
        // on every switch, yet explores exactly what an unbounded one does.
        let prog = every_fork_kind_program();
        let mut probe = Executor::new(&prog, ExecConfig::default());
        let mut st = probe.initial_state();
        while probe.fork_snapshot.is_none() {
            probe.step(&mut st);
        }
        let a = (*probe.fork_snapshot.take().unwrap()).clone();
        let mut b = a.clone();
        b.ll_steps += 1;
        b.fingerprint = b.compute_fingerprint();
        assert_ne!(a.fingerprint, b.fingerprint);
        let order = [&a, &b, &a, &b, &a];
        let run = |cap: usize| {
            let mut exec = Executor::new(&prog, ExecConfig::default());
            exec.snap_cache_cap = cap;
            let mut outcomes = Vec::new();
            for snap in order {
                let mut queue = vec![exec.restore_state(snap).expect("valid snapshot")];
                let mut done = Vec::new();
                while let Some(mut st) = queue.pop() {
                    loop {
                        match exec.step(&mut st) {
                            StepEvent::Terminated(t) => {
                                let inputs = st
                                    .concretize_inputs_canonical(&mut exec.pool, &mut exec.solver)
                                    .map(|m| {
                                        let mut v: Vec<_> = m.into_iter().collect();
                                        v.sort();
                                        v
                                    });
                                done.push((format!("{t:?}"), st.trace.clone(), inputs));
                                break;
                            }
                            StepEvent::Forked { alternates } => queue.extend(alternates),
                            _ => {}
                        }
                    }
                }
                done.sort();
                outcomes.push(done);
                assert!(exec.snap_cache.len() <= cap);
            }
            (outcomes, exec.stats.snapshot_restores)
        };
        let bounded = run(1);
        assert!(bounded.0[0].len() >= 10, "got {} paths", bounded.0[0].len());
        assert_eq!(bounded, run(SNAP_CACHE_CAP));
    }
}
