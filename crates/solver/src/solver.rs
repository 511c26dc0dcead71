//! The solver facade: feasibility checks, models, caching, and value
//! maximization (`upper_bound` in the Chef guest API).
//!
//! # Incremental architecture
//!
//! Symbolic execution queries are overwhelmingly *incremental*: each branch
//! adds one constraint to a path condition the solver just saw. The facade
//! is built around that shape:
//!
//! 1. **Persistent backend** — one [`BitBlaster`] (owning one
//!    [`crate::sat::SatSolver`]) lives as long as the `Solver`. Each
//!    assertion is bit-blasted once, guarded by an activation literal, and
//!    every query is a [`solve_under_assumptions`] call that just selects
//!    guards — learned clauses, activities, and phases carry over.
//! 2. **Independence partitioning** — the live assertion set is split into
//!    connected components by shared [`VarId`]s (KLEE's independent
//!    solver). Each component is solved — and cached — separately, so
//!    unrelated path-condition growth never invalidates a cached answer.
//! 3. **Bounded query cache** — per-component results with FIFO eviction.
//! 4. **Memoized model reuse** — before partitioning, a query is tried
//!    against the all-zeros model and a ring of recent models. Each of
//!    those models keeps a bounded verdict table (assertion → true/false
//!    under that model), so a query re-evaluates only the assertions that
//!    model has not seen yet instead of the whole path condition.
//!
//! [`solve_under_assumptions`]: crate::sat::SatSolver::solve_under_assumptions

use std::collections::hash_map::Entry;
use std::collections::VecDeque;

use crate::bitblast::BitBlaster;
use crate::expr::{BinOp, EvalMemo, ExprId, ExprPool, VarId};
use crate::fxhash::FxHashMap;
use crate::sat::SatOutcome;

/// A satisfying assignment for the symbolic variables of a query.
///
/// Variables absent from the map default to zero; this makes a model a total
/// assignment, so replaying it through [`ExprPool::eval`] is always defined.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    values: FxHashMap<VarId, u64>,
}

impl Model {
    /// Creates an empty (all-zeros) model.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value for a variable.
    pub fn set(&mut self, var: VarId, value: u64) {
        self.values.insert(var, value);
    }

    /// The value assigned to `var` (zero if unconstrained).
    pub fn get(&self, var: VarId) -> u64 {
        self.values.get(&var).copied().unwrap_or(0)
    }

    /// Evaluates an expression under this model.
    pub fn eval(&self, pool: &ExprPool, expr: ExprId) -> u64 {
        pool.eval(expr, &|v| self.get(v))
    }

    /// Whether all width-1 assertions evaluate to true under this model.
    /// One evaluation memo is shared across the conjunction, so heavily
    /// shared path-condition sub-DAGs are evaluated once.
    pub fn satisfies(&self, pool: &ExprPool, assertions: &[ExprId]) -> bool {
        pool.eval_conjunction(assertions, &|v| self.get(v))
    }
}

/// Result of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// Satisfiable with the given model.
    Sat(Model),
    /// No satisfying assignment exists.
    Unsat,
    /// The solver gave up (conflict budget exhausted). Callers prune the
    /// path, as KLEE/S2E prune on solver timeouts.
    ///
    /// Note that with the persistent backend, whether a near-budget query
    /// lands on `Unknown` can depend on the learned clauses accumulated
    /// from earlier queries — i.e. on query history, like the caches
    /// before it. `chef_symex` pins every history-sensitive choice in the
    /// state trace and validates canonical test inputs by direct
    /// evaluation, so this only perturbs which paths get pruned at the
    /// budget boundary, never the correctness of emitted tests.
    Unknown,
}

impl SatResult {
    /// Whether the result is satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }

    /// Extracts the model, if satisfiable.
    pub fn model(&self) -> Option<&Model> {
        match self {
            SatResult::Sat(m) => Some(m),
            SatResult::Unsat | SatResult::Unknown => None,
        }
    }
}

/// Counters describing solver work; useful in benchmark reports.
#[derive(Clone, Copy, Debug, Default)]
pub struct SolverStats {
    /// Total queries issued through [`Solver::check`].
    pub queries: u64,
    /// Component sub-queries answered by the query cache.
    pub cache_hits: u64,
    /// Entries evicted from the bounded query cache.
    pub cache_evictions: u64,
    /// Queries answered by re-checking a recent model.
    pub model_reuse_hits: u64,
    /// Queries answered by constant folding alone.
    pub const_hits: u64,
    /// Component sub-queries that reached the SAT backend.
    pub sat_calls: u64,
    /// Backend calls issued as assumption-based incremental solves (all of
    /// them, in the incremental architecture).
    pub assumption_solves: u64,
    /// Assertions whose CNF was reused from the blast cache instead of
    /// being re-encoded.
    pub blast_cache_hits: u64,
    /// Assertions bit-blasted for the first time (blast-cache misses).
    pub blast_cache_misses: u64,
    /// Learned clauses deleted by the backend's database reductions.
    pub clauses_deleted: u64,
    /// Transient guards (max/min trial bits, enumeration exclusions) whose
    /// clauses were freed by a popped guard-recycling frame.
    pub guards_recycled: u64,
    /// Independent components across all queries that reached partitioning
    /// (queries served by constant folding or model reuse contribute none).
    pub components: u64,
    /// Queries abandoned at the conflict budget.
    pub unknowns: u64,
    /// Cumulative time spent inside the SAT backend.
    pub sat_time: std::time::Duration,
}

impl SolverStats {
    /// Fraction of guard requests whose CNF came from the blast cache
    /// (assertion blasted once per solver lifetime, then toggled).
    pub fn blast_hit_rate(&self) -> f64 {
        let total = self.blast_cache_hits + self.blast_cache_misses;
        if total == 0 {
            0.0
        } else {
            self.blast_cache_hits as f64 / total as f64
        }
    }

    /// Mean independent components per issued query. Queries served by the
    /// constant or model-reuse fast paths contribute zero components, so
    /// this undercounts the partition width of the queries that actually
    /// reached the component solver.
    pub fn components_per_query(&self) -> f64 {
        if self.queries == 0 {
            0.0
        } else {
            self.components as f64 / self.queries as f64
        }
    }

    /// One-line human-readable digest for CLI/bench reports.
    pub fn summary(&self) -> String {
        format!(
            "{} queries ({} const, {} model-reuse, {} cache hits, {} SAT), \
             {} assumption solves, {} blast-cache hits, {} components, \
             {} learned deleted, {} guards recycled, {} evictions, \
             {} unknowns, {:?} in SAT",
            self.queries,
            self.const_hits,
            self.model_reuse_hits,
            self.cache_hits,
            self.sat_calls,
            self.assumption_solves,
            self.blast_cache_hits,
            self.components,
            self.clauses_deleted,
            self.guards_recycled,
            self.cache_evictions,
            self.unknowns,
            self.sat_time,
        )
    }
}

/// Bitvector solver with a persistent incremental backend, an
/// independence-partitioned query cache, and a model-reuse fast path.
///
/// A `Solver` must be used with a single [`ExprPool`]: the blast and query
/// caches are keyed by expression ids, which are only stable within one
/// pool.
///
/// # Examples
///
/// ```
/// use chef_solver::{ExprPool, Solver, BinOp, SatResult};
/// let mut pool = ExprPool::new();
/// let mut solver = Solver::new();
/// let x = pool.fresh_var("x", 8);
/// let c = pool.constant(8, 10);
/// let gt = pool.bin(BinOp::Ult, c, x);
/// match solver.check(&pool, &[gt]) {
///     SatResult::Sat(m) => assert!(m.eval(&pool, x) > 10),
///     _ => unreachable!(),
/// }
/// ```
pub struct Solver {
    blaster: BitBlaster,
    cache: FxHashMap<Vec<ExprId>, SatResult>,
    /// Insertion order of cache keys, for FIFO eviction.
    cache_order: VecDeque<Vec<ExprId>>,
    /// The all-zeros model, tried first by the reuse fast path.
    zero: ReuseModel,
    /// Recent SAT models, oldest first, tried newest first.
    model_ring: VecDeque<ReuseModel>,
    /// Scratch memo for evaluating assertions a reuse model has not seen.
    scratch: EvalMemo,
    /// Bound on each reuse model's verdict table.
    verdict_cap: usize,
    /// Memoized variable set per assertion id.
    vars_of: VarsMemo,
    /// Per-query conflict budget handed to the SAT backend.
    pub conflict_budget: Option<u64>,
    /// Maximum entries in the query cache before FIFO eviction.
    pub cache_capacity: usize,
    /// When set, every non-trivial query's live assertion set is appended:
    /// a replayable path-condition growth trace (the `solver_incremental`
    /// bench feeds these back through fresh and incremental solvers).
    pub query_log: Option<Vec<Vec<ExprId>>>,
    /// Work counters.
    pub stats: SolverStats,
}

impl Default for Solver {
    fn default() -> Self {
        Solver {
            blaster: BitBlaster::new(),
            cache: FxHashMap::default(),
            cache_order: VecDeque::new(),
            zero: ReuseModel::new(Model::new()),
            model_ring: VecDeque::new(),
            scratch: EvalMemo::default(),
            verdict_cap: VERDICT_CAP,
            vars_of: VarsMemo::default(),
            conflict_budget: Some(DEFAULT_CONFLICT_BUDGET),
            cache_capacity: DEFAULT_CACHE_CAPACITY,
            query_log: None,
            stats: SolverStats::default(),
        }
    }
}

/// Default per-query conflict budget (bounds one query to well under a
/// second on commodity hardware).
pub const DEFAULT_CONFLICT_BUDGET: u64 = 30_000;

/// Default capacity of the query cache (entries, per-component keys).
pub const DEFAULT_CACHE_CAPACITY: usize = 1 << 15;

/// Number of recent models retained for the reuse fast path.
const MODEL_RING: usize = 8;

/// Bound on each reuse model's verdict table. A full table is cleared and
/// refills lazily; verdicts are pure functions of (model, assertion), so
/// clearing changes cost, never answers.
const VERDICT_CAP: usize = 1 << 13;

/// Bound on the per-assertion variable-set memo (cleared when full, like
/// the verdict tables).
const VARS_OF_CAP: usize = 1 << 15;

/// Entries the scratch evaluation memo may keep allocated between
/// queries; a larger one (left by a very deep assertion) is released.
const SCRATCH_KEEP: usize = 1 << 12;

/// A model the reuse fast path tries, with the verdicts it has already
/// computed: assertion id → whether the assertion holds under `model`.
struct ReuseModel {
    model: Model,
    verdicts: FxHashMap<ExprId, bool>,
}

impl ReuseModel {
    fn new(model: Model) -> Self {
        ReuseModel {
            model,
            verdicts: FxHashMap::default(),
        }
    }

    /// Whether every assertion in `live` holds under the model — the same
    /// answer as [`Model::satisfies`] — evaluating only assertions without
    /// a recorded verdict. Stops at the first false assertion. The verdict
    /// table is cleared rather than grown past `cap` entries.
    fn satisfies(
        &mut self,
        pool: &ExprPool,
        live: &[ExprId],
        scratch: &mut EvalMemo,
        cap: usize,
    ) -> bool {
        let model = &self.model;
        let mut scratch_fresh = false;
        for &a in live {
            let holds = match self.verdicts.get(&a) {
                Some(&v) => v,
                None => {
                    // The scratch memo may hold values under another model.
                    if !scratch_fresh {
                        if !scratch.is_empty() {
                            scratch.clear();
                        }
                        scratch_fresh = true;
                    }
                    let v = pool.eval_in(a, &|x| model.get(x), scratch) == 1;
                    if self.verdicts.len() >= cap {
                        self.verdicts.clear();
                    }
                    self.verdicts.insert(a, v);
                    v
                }
            };
            if !holds {
                return false;
            }
        }
        true
    }
}

/// Bounded memo of each assertion's variable set.
struct VarsMemo {
    map: FxHashMap<ExprId, Vec<VarId>>,
    cap: usize,
}

impl Default for VarsMemo {
    fn default() -> Self {
        VarsMemo {
            map: FxHashMap::default(),
            cap: VARS_OF_CAP,
        }
    }
}

impl VarsMemo {
    /// The sorted, deduplicated variables `a` depends on.
    fn get(&mut self, pool: &ExprPool, a: ExprId) -> &[VarId] {
        if self.map.len() >= self.cap && !self.map.contains_key(&a) {
            self.map.clear();
        }
        self.map.entry(a).or_insert_with(|| {
            let mut v = Vec::new();
            pool.collect_vars(a, &mut v);
            v
        })
    }
}

impl Solver {
    /// Creates a solver with empty caches.
    pub fn new() -> Self {
        Self::default()
    }

    /// Checks satisfiability of the conjunction of width-1 `assertions`.
    ///
    /// # Panics
    ///
    /// Panics if any assertion does not have width 1.
    pub fn check(&mut self, pool: &ExprPool, assertions: &[ExprId]) -> SatResult {
        self.stats.queries += 1;
        // Constant filtering.
        let mut live: Vec<ExprId> = Vec::with_capacity(assertions.len());
        for &a in assertions {
            assert_eq!(pool.width(a), 1, "assertions must have width 1");
            match pool.as_const(a) {
                Some(1) => continue,
                Some(_) => {
                    self.stats.const_hits += 1;
                    return SatResult::Unsat;
                }
                None => live.push(a),
            }
        }
        if live.is_empty() {
            self.stats.const_hits += 1;
            return SatResult::Sat(Model::new());
        }
        live.sort_unstable();
        live.dedup();
        if let Some(log) = &mut self.query_log {
            log.push(live.clone());
        }
        // Model reuse: the all-zeros model, then recent models newest
        // first; the first that satisfies the query answers it.
        let cap = self.verdict_cap;
        let reused = if self.zero.satisfies(pool, &live, &mut self.scratch, cap) {
            Some(Model::new())
        } else {
            let scratch = &mut self.scratch;
            self.model_ring.iter_mut().rev().find_map(|m| {
                m.satisfies(pool, &live, scratch, cap)
                    .then(|| m.model.clone())
            })
        };
        if self.scratch.capacity() > SCRATCH_KEEP {
            self.scratch = EvalMemo::default();
        }
        if let Some(m) = reused {
            self.stats.model_reuse_hits += 1;
            return SatResult::Sat(m);
        }
        // Independence partitioning: each connected component (assertions
        // linked by shared variables) is solved and cached on its own.
        let components = self.partition(pool, &live);
        self.stats.components += components.len() as u64;
        let mut merged = Model::new();
        let mut unknown = false;
        for comp in &components {
            match self.check_component(pool, comp) {
                SatResult::Unsat => return SatResult::Unsat,
                SatResult::Unknown => unknown = true,
                SatResult::Sat(m) => {
                    for (&var, &val) in &m.values {
                        merged.set(var, val);
                    }
                }
            }
        }
        if unknown {
            return SatResult::Unknown;
        }
        debug_assert!(
            merged.satisfies(pool, &live),
            "model must satisfy the query"
        );
        self.model_ring.push_back(ReuseModel::new(merged.clone()));
        if self.model_ring.len() > MODEL_RING {
            self.model_ring.pop_front();
        }
        SatResult::Sat(merged)
    }

    /// Splits sorted, deduplicated assertions into connected components by
    /// shared variables. Components are ordered by their smallest assertion
    /// id, and each component's assertions stay sorted — so component keys
    /// are canonical.
    fn partition(&mut self, pool: &ExprPool, live: &[ExprId]) -> Vec<Vec<ExprId>> {
        // Union-find over assertion indices.
        let mut parent: Vec<usize> = (0..live.len()).collect();
        fn find(parent: &mut [usize], mut i: usize) -> usize {
            while parent[i] != i {
                parent[i] = parent[parent[i]];
                i = parent[i];
            }
            i
        }
        let mut owner: FxHashMap<VarId, usize> = FxHashMap::default();
        for (i, &a) in live.iter().enumerate() {
            for &v in self.vars_of.get(pool, a) {
                match owner.entry(v) {
                    Entry::Occupied(e) => {
                        let ra = find(&mut parent, i);
                        let rb = find(&mut parent, *e.get());
                        if ra != rb {
                            parent[ra.max(rb)] = ra.min(rb);
                        }
                    }
                    Entry::Vacant(e) => {
                        e.insert(i);
                    }
                }
            }
        }
        // Group by root, in first-appearance (= smallest index) order.
        let mut comp_of_root: FxHashMap<usize, usize> = FxHashMap::default();
        let mut comps: Vec<Vec<ExprId>> = Vec::new();
        for (i, &a) in live.iter().enumerate() {
            let r = find(&mut parent, i);
            let ci = *comp_of_root.entry(r).or_insert_with(|| {
                comps.push(Vec::new());
                comps.len() - 1
            });
            comps[ci].push(a);
        }
        comps
    }

    /// Solves one independent component: cache lookup, then an
    /// assumption-based incremental solve over the persistent instance.
    fn check_component(&mut self, pool: &ExprPool, comp: &[ExprId]) -> SatResult {
        if let Some(res) = self.cache.get(comp) {
            self.stats.cache_hits += 1;
            return res.clone();
        }
        self.stats.sat_calls += 1;
        self.stats.assumption_solves += 1;
        let start = std::time::Instant::now();
        let mut assumptions = Vec::with_capacity(comp.len());
        {
            let _blast = chef_trace::span(chef_trace::Phase::Blast);
            for &a in comp {
                assumptions.push(self.blaster.guard(pool, a));
            }
        }
        self.blaster.sat_mut().conflict_budget = self.conflict_budget;
        let outcome = {
            let _sat = chef_trace::span(chef_trace::Phase::SolverSat);
            self.blaster.sat_mut().solve_under_assumptions(&assumptions)
        };
        let elapsed = start.elapsed();
        self.stats.sat_time += elapsed;
        chef_trace::record_solver_query(elapsed);
        self.stats.blast_cache_hits = self.blaster.guard_hits;
        self.stats.blast_cache_misses = self.blaster.guards_created;
        self.stats.clauses_deleted = self.blaster.sat().clauses_deleted;
        self.stats.guards_recycled = self.blaster.guards_recycled;
        let res = match outcome {
            SatOutcome::Unknown => {
                self.stats.unknowns += 1;
                SatResult::Unknown
            }
            SatOutcome::Unsat => SatResult::Unsat,
            SatOutcome::Sat(bits) => {
                let mut model = Model::new();
                for &a in comp {
                    for &v in self.vars_of.get(pool, a) {
                        model.set(v, self.blaster.var_value(v, &bits));
                    }
                }
                debug_assert!(
                    model.satisfies(pool, comp),
                    "component model must satisfy its component"
                );
                SatResult::Sat(model)
            }
        };
        self.cache_insert(comp.to_vec(), res.clone());
        res
    }

    fn cache_insert(&mut self, key: Vec<ExprId>, val: SatResult) {
        while self.cache.len() >= self.cache_capacity {
            let Some(old) = self.cache_order.pop_front() else {
                break;
            };
            if self.cache.remove(&old).is_some() {
                self.stats.cache_evictions += 1;
            }
        }
        if self.cache.insert(key.clone(), val).is_none() {
            self.cache_order.push_back(key);
        }
    }

    /// Whether the conjunction of `assertions` is satisfiable.
    pub fn is_feasible(&mut self, pool: &ExprPool, assertions: &[ExprId]) -> bool {
        self.check(pool, assertions).is_sat()
    }

    /// A concrete value `expr` can take under `assertions`, if any.
    pub fn value_of(
        &mut self,
        pool: &ExprPool,
        expr: ExprId,
        assertions: &[ExprId],
    ) -> Option<u64> {
        match self.check(pool, assertions) {
            SatResult::Sat(m) => Some(m.eval(pool, expr)),
            SatResult::Unsat | SatResult::Unknown => None,
        }
    }

    /// Maximum value of `expr` under `assertions` (the guest API's
    /// `upper_bound`), found by MSB-first bit fixing.
    ///
    /// Each of the `w` trial constraints is one assumption-driven solve on
    /// the persistent instance: the base assertions are never re-blasted,
    /// only the trial constraint's guard changes between iterations.
    ///
    /// Returns `None` if the assertions are unsatisfiable. A trial query
    /// lost to the conflict budget ([`SatResult::Unknown`]) is treated as
    /// infeasible, which can make the bound conservative (too small here,
    /// too large in [`Solver::min_value`]); callers that need an exact
    /// bound under budget pressure must re-validate it (as
    /// `chef_symex::State::concretize_inputs_canonical` does by direct
    /// evaluation).
    pub fn max_value(
        &mut self,
        pool: &mut ExprPool,
        expr: ExprId,
        assertions: &[ExprId],
    ) -> Option<u64> {
        if let Some(c) = pool.as_const(expr) {
            return self.is_feasible(pool, assertions).then_some(c);
        }
        if !self.is_feasible(pool, assertions) {
            return None;
        }
        // The w trial constraints are transient: scope their CNF to a
        // guard-recycling frame so long sessions don't accumulate it.
        self.blaster.push_guard_frame();
        let w = pool.width(expr);
        let mut prefix = 0u64;
        let mut query: Vec<ExprId> = assertions.to_vec();
        query.push(pool.true_()); // placeholder slot for the trial constraint
        for bit in (0..w).rev() {
            let trial = prefix | (1u64 << bit);
            // Constrain the already-fixed high bits plus this bit.
            let hi = pool.extract(w - 1, bit, expr);
            let want = pool.constant(w - bit, trial >> bit);
            let cons = pool.eq(hi, want);
            *query.last_mut().unwrap() = cons;
            if self.check(pool, &query).is_sat() {
                prefix = trial;
            }
        }
        self.pop_guard_frame();
        Some(prefix)
    }

    /// Closes the innermost backend recycling frame and refreshes the
    /// recycling counter in [`SolverStats`].
    fn pop_guard_frame(&mut self) {
        self.blaster.pop_guard_frame();
        self.stats.guards_recycled = self.blaster.guards_recycled;
    }

    /// Minimum value of `expr` under `assertions`, by MSB-first bit fixing
    /// toward zero (same assumption-driven loop as [`Solver::max_value`]).
    /// Returns `None` if unsatisfiable.
    pub fn min_value(
        &mut self,
        pool: &mut ExprPool,
        expr: ExprId,
        assertions: &[ExprId],
    ) -> Option<u64> {
        if let Some(c) = pool.as_const(expr) {
            return self.is_feasible(pool, assertions).then_some(c);
        }
        if !self.is_feasible(pool, assertions) {
            return None;
        }
        self.blaster.push_guard_frame();
        let w = pool.width(expr);
        let mut prefix = 0u64;
        let mut query: Vec<ExprId> = assertions.to_vec();
        query.push(pool.true_());
        for bit in (0..w).rev() {
            // Try to keep this bit at zero.
            let hi = pool.extract(w - 1, bit, expr);
            let want = pool.constant(w - bit, prefix >> bit);
            let cons = pool.eq(hi, want);
            *query.last_mut().unwrap() = cons;
            if !self.check(pool, &query).is_sat() {
                prefix |= 1u64 << bit;
            }
        }
        self.pop_guard_frame();
        Some(prefix)
    }

    /// Enumerates up to `limit` distinct feasible values of `expr`.
    ///
    /// Used by the symbolic-pointer concretization policy: each value found
    /// is excluded and the query repeated — each exclusion is one more
    /// guarded constraint on the persistent instance, not a re-blast.
    pub fn enumerate_values(
        &mut self,
        pool: &mut ExprPool,
        expr: ExprId,
        assertions: &[ExprId],
        limit: usize,
    ) -> Vec<u64> {
        let mut out = Vec::new();
        if limit == 0 || !self.is_feasible(pool, assertions) {
            return out;
        }
        // Exclusion constraints are transient; recycle their clauses when
        // the enumeration finishes. The pre-check above keeps the base
        // assertions' guards outside the frame, so path conditions stay in
        // the persistent instance.
        self.blaster.push_guard_frame();
        let mut query = assertions.to_vec();
        while out.len() < limit {
            match self.check(pool, &query) {
                SatResult::Unsat | SatResult::Unknown => break,
                SatResult::Sat(m) => {
                    let v = m.eval(pool, expr);
                    out.push(v);
                    let w = pool.width(expr);
                    let c = pool.constant(w, v);
                    let ne = pool.ne(expr, c);
                    query.push(ne);
                }
            }
        }
        self.pop_guard_frame();
        out
    }
}

/// Convenience builder: `a > b` unsigned as width-1.
pub fn ugt(pool: &mut ExprPool, a: ExprId, b: ExprId) -> ExprId {
    pool.bin(BinOp::Ult, b, a)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_query_is_sat() {
        let pool = ExprPool::new();
        let mut s = Solver::new();
        assert!(s.check(&pool, &[]).is_sat());
    }

    #[test]
    fn const_false_is_unsat_without_sat_call() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let f = pool.false_();
        assert_eq!(s.check(&pool, &[f]), SatResult::Unsat);
        assert_eq!(s.stats.sat_calls, 0);
    }

    #[test]
    fn cache_avoids_resolving() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.constant(8, 42);
        let eq = pool.eq(x, c);
        let zero = pool.constant(8, 0);
        let ne0 = pool.ne(x, zero);
        assert!(s.check(&pool, &[eq, ne0]).is_sat());
        let sat_calls = s.stats.sat_calls;
        assert!(s.check(&pool, &[ne0, eq]).is_sat(), "order-insensitive");
        assert_eq!(s.stats.sat_calls, sat_calls, "second query served by cache");
    }

    #[test]
    fn model_reuse_fast_path() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.constant(8, 42);
        let eq = pool.eq(x, c);
        assert!(s.check(&pool, &[eq]).is_sat());
        // A weaker query satisfied by the same model should reuse it.
        let ten = pool.constant(8, 10);
        let gt = ugt(&mut pool, x, ten);
        let sat_calls = s.stats.sat_calls;
        assert!(s.check(&pool, &[gt]).is_sat());
        assert_eq!(s.stats.sat_calls, sat_calls, "served by model reuse");
    }

    #[test]
    fn max_value_bounded_var() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c100 = pool.constant(8, 100);
        let le = pool.bin(BinOp::Ule, x, c100);
        assert_eq!(s.max_value(&mut pool, x, &[le]), Some(100));
        assert_eq!(s.min_value(&mut pool, x, &[le]), Some(0));
    }

    #[test]
    fn max_value_of_expression() {
        // max of 2*x where x <= 10 (8-bit): 20
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let two = pool.constant(8, 2);
        let dbl = pool.bin(BinOp::Mul, x, two);
        let c10 = pool.constant(8, 10);
        let le = pool.bin(BinOp::Ule, x, c10);
        assert_eq!(s.max_value(&mut pool, dbl, &[le]), Some(20));
    }

    #[test]
    fn max_value_unconstrained_is_all_ones() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        assert_eq!(s.max_value(&mut pool, x, &[]), Some(255));
    }

    #[test]
    fn enumerate_values_respects_limit_and_distinctness() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c4 = pool.constant(8, 4);
        let lt = pool.bin(BinOp::Ult, x, c4);
        let mut vals = s.enumerate_values(&mut pool, x, &[lt], 10);
        vals.sort_unstable();
        assert_eq!(vals, vec![0, 1, 2, 3]);
        let capped = s.enumerate_values(&mut pool, x, &[], 3);
        assert_eq!(capped.len(), 3);
    }

    #[test]
    fn unsat_max_value_is_none() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c = pool.constant(8, 1);
        let eq = pool.eq(x, c);
        let zero = pool.constant(8, 0);
        let eq0 = pool.eq(x, zero);
        assert_eq!(s.max_value(&mut pool, x, &[eq, eq0]), None);
    }

    #[test]
    fn incremental_growth_reuses_blasted_assertions() {
        // Push-style growth: each check re-sends the whole path; with the
        // persistent backend every previously seen assertion is a blast
        // cache hit, and repeating the final query is a pure cache hit.
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 32);
        let mut path = Vec::new();
        // Each step pins one more byte of x to a nonzero value, so neither
        // the zero model nor any earlier model can serve the new query —
        // every step reaches the backend, re-sending the whole path.
        for k in 0..4u8 {
            let b = pool.extract(8 * k + 7, 8 * k, x);
            let c = pool.constant(8, (k + 1) as u64);
            path.push(pool.eq(b, c));
            assert!(s.check(&pool, &path).is_sat());
        }
        assert_eq!(s.stats.sat_calls, 4, "each growth step reaches the backend");
        assert!(
            s.stats.blast_cache_hits > 0,
            "repeated assertions must hit the blast cache"
        );
        let calls = s.stats.sat_calls;
        assert!(s.check(&pool, &path).is_sat());
        assert_eq!(
            s.stats.sat_calls, calls,
            "repeating the query never re-solves"
        );
    }

    #[test]
    fn independent_components_are_cached_separately() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let c7 = pool.constant(8, 7);
        let c9 = pool.constant(8, 9);
        let cx = pool.eq(x, c7); // component {x}
        let cy = pool.eq(y, c9); // component {y}
        let res = s.check(&pool, &[cx, cy]);
        let SatResult::Sat(m) = res else {
            panic!("sat")
        };
        assert_eq!(m.eval(&pool, x), 7);
        assert_eq!(m.eval(&pool, y), 9);
        assert_eq!(s.stats.components, 2, "two independent components");
        let sat_calls = s.stats.sat_calls;
        // Changing the y-side must not invalidate the cached x-component
        // (the new y-constraint also defeats the model-reuse fast path).
        let c12 = pool.constant(8, 12);
        let cy2 = pool.eq(y, c12);
        let hits_before = s.stats.cache_hits;
        let SatResult::Sat(m2) = s.check(&pool, &[cx, cy2]) else {
            panic!("sat")
        };
        assert_eq!(m2.eval(&pool, x), 7);
        assert_eq!(m2.eval(&pool, y), 12);
        assert!(
            s.stats.cache_hits > hits_before,
            "the untouched x-component is a cache hit"
        );
        // Only the y-component needed the backend.
        assert_eq!(s.stats.sat_calls, sat_calls + 1);
    }

    #[test]
    fn unsat_in_one_component_fails_the_query() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let c1 = pool.constant(8, 1);
        let c2 = pool.constant(8, 2);
        let cx = pool.eq(x, c1);
        let y1 = pool.eq(y, c1);
        let y2 = pool.eq(y, c2);
        assert_eq!(s.check(&pool, &[cx, y1, y2]), SatResult::Unsat);
    }

    #[test]
    fn optimization_loops_recycle_their_guards() {
        // max/min/enumerate create transient trial guards; after each call
        // the backend clause count must return to its pre-call level, so
        // long sessions issuing many bounds queries stay bounded.
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c100 = pool.constant(8, 100);
        let le = pool.bin(BinOp::Ule, x, c100);
        // Materialize the persistent part first.
        assert!(s.check(&pool, &[le]).is_sat());
        assert_eq!(s.max_value(&mut pool, x, &[le]), Some(100));
        let clauses_after_first = s.blaster.sat().num_clauses();
        assert!(s.stats.guards_recycled > 0, "trial guards were recycled");
        for _ in 0..5 {
            assert_eq!(s.max_value(&mut pool, x, &[le]), Some(100));
            assert_eq!(s.min_value(&mut pool, x, &[le]), Some(0));
            let mut vals = s.enumerate_values(&mut pool, x, &[le], 3);
            vals.sort_unstable();
            assert_eq!(vals.len(), 3);
        }
        assert_eq!(
            s.blaster.sat().num_clauses(),
            clauses_after_first,
            "repeated optimization calls must not grow the clause database"
        );
    }

    #[test]
    fn query_cache_is_bounded_and_counts_evictions() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        s.cache_capacity = 4;
        let x = pool.fresh_var("x", 8);
        for k in 1..=12u64 {
            let c = pool.constant(8, k);
            let eq = pool.eq(x, c);
            assert!(s.check(&pool, &[eq]).is_sat());
        }
        assert!(s.cache.len() <= 4, "cache stays within capacity");
        assert!(s.stats.cache_evictions > 0, "evictions are counted");
        assert_eq!(s.cache.len() + s.stats.cache_evictions as usize, {
            // every distinct solved component was inserted exactly once
            s.stats.sat_calls as usize
        });
    }

    #[test]
    fn memo_tables_stay_within_their_caps() {
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        s.verdict_cap = 3;
        s.vars_of.cap = 2;
        let x = pool.fresh_var("x", 8);
        let y = pool.fresh_var("y", 8);
        let mut path = Vec::new();
        for k in 1..40u64 {
            let c = pool.constant(8, k);
            let lt = pool.bin(BinOp::Ult, c, x);
            let ne = pool.ne(y, c);
            path.push(if k % 2 == 0 { lt } else { ne });
            s.check(&pool, &path);
            assert!(s.zero.verdicts.len() <= 3);
            assert!(s.model_ring.iter().all(|m| m.verdicts.len() <= 3));
            assert!(s.model_ring.len() <= MODEL_RING);
            assert!(s.vars_of.map.len() <= 2);
        }
        // A very deep assertion grows the scratch memo past what the solver
        // keeps between queries.
        let one = pool.constant(8, 1);
        let mut e = x;
        for _ in 0..3 * SCRATCH_KEEP {
            e = pool.bin(BinOp::Add, e, one);
        }
        let deep = pool.ne(e, one);
        s.check(&pool, &[deep]);
        assert!(s.scratch.capacity() <= SCRATCH_KEEP);
    }

    #[test]
    fn recorded_verdicts_answer_later_queries() {
        // A verdict recorded under one query must not leak into a later
        // query it does not belong to: the zero model rejects `x == 5`, then
        // a SAT model for it is reused for the weaker `x != 0`.
        let mut pool = ExprPool::new();
        let mut s = Solver::new();
        let x = pool.fresh_var("x", 8);
        let c5 = pool.constant(8, 5);
        let eq5 = pool.eq(x, c5);
        let SatResult::Sat(m) = s.check(&pool, &[eq5]) else {
            panic!("sat")
        };
        assert_eq!(m.get(VarId(0)), 5);
        let nz = pool.is_nonzero(x);
        let hits = s.stats.model_reuse_hits;
        assert_eq!(s.check(&pool, &[nz]), SatResult::Sat(m));
        assert_eq!(s.stats.model_reuse_hits, hits + 1);
        assert_eq!(s.zero.verdicts.get(&nz), Some(&false));
    }

    mod reuse_props {
        use super::*;
        use proptest::prelude::*;

        const ARITH: [BinOp; 6] = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
        ];
        const PREDS: [BinOp; 5] = [BinOp::Eq, BinOp::Ult, BinOp::Ule, BinOp::Slt, BinOp::Sle];

        /// What the reuse fast path must answer, by direct evaluation with
        /// [`Model::satisfies`]: the zero model, then the ring newest first.
        /// `None` when no model satisfies `query` or constant filtering
        /// answers it first.
        fn reference_reuse(s: &Solver, pool: &ExprPool, query: &[ExprId]) -> Option<Model> {
            let mut live = Vec::new();
            for &a in query {
                match pool.as_const(a) {
                    Some(1) => {}
                    Some(_) => return None,
                    None => live.push(a),
                }
            }
            if live.is_empty() {
                return None;
            }
            live.sort_unstable();
            live.dedup();
            if Model::new().satisfies(pool, &live) {
                return Some(Model::new());
            }
            s.model_ring
                .iter()
                .rev()
                .map(|r| &r.model)
                .find(|m| m.satisfies(pool, &live))
                .cloned()
        }

        fn counters(s: &Solver) -> [u64; 6] {
            let t = &s.stats;
            [
                t.queries,
                t.const_hits,
                t.model_reuse_hits,
                t.cache_hits,
                t.sat_calls,
                t.components,
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(64))]

            /// Random DAGs over three variables, queried by interleaved
            /// path pushes, pops, checks, and value enumerations (which
            /// churn the model ring). Every answer of the memoized fast
            /// path equals the reference selection, and a twin whose memo
            /// tables sit at a cap of one or two entries gives the same
            /// answers and counters.
            #[test]
            fn memoized_check_equals_reference_selection(
                ops in prop::collection::vec((0u8..6, any::<u16>(), any::<u16>(), any::<u8>()), 1..24),
                preds in prop::collection::vec((0u8..5, any::<u16>(), any::<u16>(), any::<bool>()), 1..16),
                actions in prop::collection::vec((0u8..5, any::<u16>()), 1..60),
            ) {
                let mut pool = ExprPool::new();
                let mut terms = vec![
                    pool.fresh_var("x", 8),
                    pool.fresh_var("y", 8),
                    pool.fresh_var("z", 8),
                ];
                for &(o, i, j, c) in &ops {
                    let a = terms[i as usize % terms.len()];
                    let b = if c % 4 == 0 {
                        pool.constant(8, c as u64)
                    } else {
                        terms[j as usize % terms.len()]
                    };
                    let t = pool.bin(ARITH[o as usize], a, b);
                    terms.push(t);
                }
                let ps: Vec<ExprId> = preds
                    .iter()
                    .map(|&(p, i, j, neg)| {
                        let a = terms[i as usize % terms.len()];
                        let b = terms[j as usize % terms.len()];
                        let e = pool.bin(PREDS[p as usize], a, b);
                        if neg { pool.bool_not(e) } else { e }
                    })
                    .collect();
                let mut memo = Solver::new();
                let mut tiny = Solver::new();
                tiny.verdict_cap = 1;
                tiny.vars_of.cap = 1;
                let mut path: Vec<ExprId> = Vec::new();
                for &(kind, arg) in &actions {
                    let extra = ps[arg as usize % ps.len()];
                    match kind {
                        0 => path.push(extra),
                        1 => {
                            path.pop();
                        }
                        4 => {
                            let t = terms[arg as usize % terms.len()];
                            let a = memo.enumerate_values(&mut pool, t, &path, 3);
                            let b = tiny.enumerate_values(&mut pool, t, &path, 3);
                            prop_assert_eq!(a, b);
                        }
                        _ => {
                            let mut query = path.clone();
                            if kind == 3 {
                                query.push(extra);
                            }
                            let want = reference_reuse(&memo, &pool, &query);
                            let hits = memo.stats.model_reuse_hits;
                            let got = memo.check(&pool, &query);
                            match want {
                                Some(m) => {
                                    prop_assert_eq!(&got, &SatResult::Sat(m));
                                    prop_assert_eq!(memo.stats.model_reuse_hits, hits + 1);
                                }
                                None => prop_assert_eq!(memo.stats.model_reuse_hits, hits),
                            }
                            prop_assert_eq!(tiny.check(&pool, &query), got);
                        }
                    }
                    prop_assert_eq!(counters(&tiny), counters(&memo));
                }
            }
        }
    }
}
