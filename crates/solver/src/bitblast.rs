//! Tseitin bit-blasting of bitvector expressions into CNF.
//!
//! Each [`ExprId`] becomes a little-endian vector of SAT literals. The
//! encodings follow the classic hardware constructions: ripple-carry adders,
//! shift-add multipliers, barrel shifters, and division by introducing fresh
//! quotient/remainder variables constrained by `q*b + r = a ∧ r < b`.
//!
//! The blaster is **long-lived**: it owns the persistent [`SatSolver`] and
//! memoizes the CNF encoding of every expression it has ever seen, keyed by
//! the pool's stable ids (hash-consing makes structurally equal expressions
//! share an id, so shared subterms across *queries* — not just within one —
//! are encoded exactly once per solver lifetime). Top-level assertions are
//! guarded by activation literals ([`BitBlaster::guard`]): the clause
//! `¬g ∨ bit(e)` is permanent, and a query enables exactly the assertions it
//! needs by passing their guards to
//! [`SatSolver::solve_under_assumptions`]. This is the KLEE/STP-style
//! incremental discipline: bit-blast once, toggle via assumptions forever.

use crate::expr::{BinOp, ExprId, ExprPool, Node, VarId};
use crate::fxhash::FxHashMap;
use crate::sat::{Lit, SatSolver};

/// Journal of one open guard-recycling frame: the map entries inserted
/// since the frame opened, so the pop can evict exactly those.
#[derive(Default)]
struct GuardFrame {
    cache_added: Vec<ExprId>,
    vars_added: Vec<VarId>,
    guards_added: Vec<ExprId>,
}

/// Persistent bit-blasting context owning its [`SatSolver`].
pub struct BitBlaster {
    sat: SatSolver,
    cache: FxHashMap<ExprId, Vec<Lit>>,
    var_bits: FxHashMap<VarId, Vec<Lit>>,
    guards: FxHashMap<ExprId, Lit>,
    true_lit: Lit,
    frames: Vec<GuardFrame>,
    /// Assertions whose guard (and CNF) already existed when requested.
    pub guard_hits: u64,
    /// Assertions blasted and guarded for the first time.
    pub guards_created: u64,
    /// Guards (and their CNF) freed by popped recycling frames.
    pub guards_recycled: u64,
}

impl Default for BitBlaster {
    fn default() -> Self {
        Self::new()
    }
}

impl BitBlaster {
    /// Creates a blaster with a fresh solver.
    pub fn new() -> Self {
        let mut sat = SatSolver::new();
        let t = sat.new_var();
        sat.add_clause(&[Lit::pos(t)]);
        BitBlaster {
            sat,
            cache: FxHashMap::default(),
            var_bits: FxHashMap::default(),
            guards: FxHashMap::default(),
            true_lit: Lit::pos(t),
            frames: Vec::new(),
            guard_hits: 0,
            guards_created: 0,
            guards_recycled: 0,
        }
    }

    /// Opens a scoped guard-recycling frame. Every expression blasted, SAT
    /// variable allocated, and guard created until the matching
    /// [`BitBlaster::pop_guard_frame`] is transient: the pop deletes its
    /// CNF from the backend and evicts the corresponding memo entries, so
    /// transient constraint blocks (max/min trial bits, enumeration
    /// exclusions) do not grow the persistent instance. Frames nest.
    pub fn push_guard_frame(&mut self) {
        self.sat.push_frame();
        self.frames.push(GuardFrame::default());
    }

    /// Closes the innermost guard-recycling frame, freeing the clauses and
    /// memo entries it introduced (counted in
    /// [`BitBlaster::guards_recycled`]).
    ///
    /// # Panics
    ///
    /// Panics if no frame is open.
    pub fn pop_guard_frame(&mut self) {
        let frame = self.frames.pop().expect("pop without push_guard_frame");
        for id in &frame.cache_added {
            self.cache.remove(id);
        }
        for var in &frame.vars_added {
            self.var_bits.remove(var);
        }
        for id in &frame.guards_added {
            self.guards.remove(id);
        }
        self.guards_recycled += frame.guards_added.len() as u64;
        self.sat.pop_frame();
    }

    /// The underlying SAT solver.
    pub fn sat(&self) -> &SatSolver {
        &self.sat
    }

    /// Mutable access to the underlying SAT solver (to set budgets and run
    /// queries).
    pub fn sat_mut(&mut self) -> &mut SatSolver {
        &mut self.sat
    }

    fn false_lit(&self) -> Lit {
        self.true_lit.negated()
    }

    fn const_lit(&self, b: bool) -> Lit {
        if b {
            self.true_lit
        } else {
            self.false_lit()
        }
    }

    fn is_true(&self, l: Lit) -> bool {
        l == self.true_lit
    }

    fn is_false(&self, l: Lit) -> bool {
        l == self.false_lit()
    }

    fn fresh(&mut self) -> Lit {
        Lit::pos(self.sat.new_var())
    }

    fn lit_and(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) || self.is_false(b) {
            return self.false_lit();
        }
        if self.is_true(a) {
            return b;
        }
        if self.is_true(b) {
            return a;
        }
        if a == b {
            return a;
        }
        if a == b.negated() {
            return self.false_lit();
        }
        let y = self.fresh();
        self.sat.add_clause(&[a.negated(), b.negated(), y]);
        self.sat.add_clause(&[a, y.negated()]);
        self.sat.add_clause(&[b, y.negated()]);
        y
    }

    fn lit_or(&mut self, a: Lit, b: Lit) -> Lit {
        let na = a.negated();
        let nb = b.negated();
        let n = self.lit_and(na, nb);
        n.negated()
    }

    fn lit_xor(&mut self, a: Lit, b: Lit) -> Lit {
        if self.is_false(a) {
            return b;
        }
        if self.is_false(b) {
            return a;
        }
        if self.is_true(a) {
            return b.negated();
        }
        if self.is_true(b) {
            return a.negated();
        }
        if a == b {
            return self.false_lit();
        }
        if a == b.negated() {
            return self.true_lit;
        }
        let y = self.fresh();
        self.sat
            .add_clause(&[a.negated(), b.negated(), y.negated()]);
        self.sat.add_clause(&[a, b, y.negated()]);
        self.sat.add_clause(&[a.negated(), b, y]);
        self.sat.add_clause(&[a, b.negated(), y]);
        y
    }

    fn lit_iff(&mut self, a: Lit, b: Lit) -> Lit {
        let x = self.lit_xor(a, b);
        x.negated()
    }

    fn lit_ite(&mut self, c: Lit, t: Lit, e: Lit) -> Lit {
        if self.is_true(c) {
            return t;
        }
        if self.is_false(c) {
            return e;
        }
        if t == e {
            return t;
        }
        let ct = self.lit_and(c, t);
        let nce = self.lit_and(c.negated(), e);
        self.lit_or(ct, nce)
    }

    fn full_adder(&mut self, a: Lit, b: Lit, cin: Lit) -> (Lit, Lit) {
        let axb = self.lit_xor(a, b);
        let sum = self.lit_xor(axb, cin);
        let ab = self.lit_and(a, b);
        let c_axb = self.lit_and(cin, axb);
        let cout = self.lit_or(ab, c_axb);
        (sum, cout)
    }

    fn add_vec(&mut self, a: &[Lit], b: &[Lit], mut carry: Lit) -> (Vec<Lit>, Lit) {
        debug_assert_eq!(a.len(), b.len());
        let mut out = Vec::with_capacity(a.len());
        for i in 0..a.len() {
            let (s, c) = self.full_adder(a[i], b[i], carry);
            out.push(s);
            carry = c;
        }
        (out, carry)
    }

    fn neg_vec(&mut self, a: &[Lit]) -> Vec<Lit> {
        let inv: Vec<Lit> = a.iter().map(|l| l.negated()).collect();
        let zero = vec![self.false_lit(); a.len()];
        let (out, _) = self.add_vec(&inv, &zero, self.true_lit);
        out
    }

    fn mul_vec(&mut self, a: &[Lit], b: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let mut acc = vec![self.false_lit(); w];
        for (i, &bi) in b.iter().enumerate() {
            if self.is_false(bi) {
                continue;
            }
            // addend = (a << i) gated by b[i]
            let mut addend = vec![self.false_lit(); w];
            for j in i..w {
                addend[j] = self.lit_and(a[j - i], bi);
            }
            let (next, _) = self.add_vec(&acc, &addend, self.false_lit());
            acc = next;
        }
        acc
    }

    /// `a < b` unsigned: no carry out of `a + ~b + 1`.
    fn ult_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let nb: Vec<Lit> = b.iter().map(|l| l.negated()).collect();
        let (_, carry) = self.add_vec(a, &nb, self.true_lit);
        carry.negated()
    }

    fn eq_vec(&mut self, a: &[Lit], b: &[Lit]) -> Lit {
        let mut acc = self.true_lit;
        for i in 0..a.len() {
            let e = self.lit_iff(a[i], b[i]);
            acc = self.lit_and(acc, e);
        }
        acc
    }

    fn ite_vec(&mut self, c: Lit, t: &[Lit], e: &[Lit]) -> Vec<Lit> {
        t.iter()
            .zip(e.iter())
            .map(|(&ti, &ei)| self.lit_ite(c, ti, ei))
            .collect()
    }

    fn shift_vec(&mut self, op: BinOp, a: &[Lit], amt: &[Lit]) -> Vec<Lit> {
        let w = a.len();
        let fill = match op {
            BinOp::AShr => a[w - 1],
            _ => self.false_lit(),
        };
        let mut cur = a.to_vec();
        let mut overflow = self.false_lit();
        for (k, &bit) in amt.iter().enumerate() {
            let dist = 1usize.checked_shl(k as u32);
            match dist {
                Some(d) if d < w => {
                    let mut shifted = vec![fill; w];
                    match op {
                        BinOp::Shl => {
                            shifted[d..w].copy_from_slice(&cur[..w - d]);
                            for s in shifted.iter_mut().take(d) {
                                *s = self.false_lit();
                            }
                        }
                        _ => {
                            shifted[..w - d].copy_from_slice(&cur[d..]);
                        }
                    }
                    cur = self.ite_vec(bit, &shifted, &cur);
                }
                _ => {
                    overflow = self.lit_or(overflow, bit);
                }
            }
        }
        let fill_vec = vec![fill; w];
        self.ite_vec(overflow, &fill_vec, &cur)
    }

    fn zext_vec(&self, a: &[Lit], w: usize) -> Vec<Lit> {
        let mut v = a.to_vec();
        v.resize(w, self.false_lit());
        v
    }

    fn divrem(&mut self, a: &[Lit], b: &[Lit]) -> (Vec<Lit>, Vec<Lit>) {
        let w = a.len();
        // Fresh quotient and remainder variables.
        let q: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        let r: Vec<Lit> = (0..w).map(|_| self.fresh()).collect();
        // b == 0?
        let zero = vec![self.false_lit(); w];
        let bz = self.eq_vec(b, &zero);
        // In double width: q*b + r == a (no overflow possible).
        let q2 = self.zext_vec(&q, 2 * w);
        let b2 = self.zext_vec(b, 2 * w);
        let r2 = self.zext_vec(&r, 2 * w);
        let a2 = self.zext_vec(a, 2 * w);
        let prod = self.mul_vec(&q2, &b2);
        let (sum, _) = self.add_vec(&prod, &r2, self.false_lit());
        let ok = self.eq_vec(&sum, &a2);
        let rlb = self.ult_vec(&r, b);
        // bz ∨ (q*b + r == a), bz ∨ (r < b)
        self.sat.add_clause(&[bz, ok]);
        self.sat.add_clause(&[bz, rlb]);
        // Results select the SMT-LIB division-by-zero semantics.
        let ones = vec![self.true_lit; w];
        let qres = self.ite_vec(bz, &ones, &q);
        let rres = self.ite_vec(bz, a, &r);
        (qres, rres)
    }

    /// Blasts `id` and returns its bits (LSB first). Encodings are memoized
    /// for the blaster's lifetime.
    pub fn blast(&mut self, pool: &ExprPool, id: ExprId) -> Vec<Lit> {
        if let Some(bits) = self.cache.get(&id) {
            return bits.clone();
        }
        // Iterative DFS so deep path conditions do not overflow the stack.
        let mut stack = vec![id];
        while let Some(&cur) = stack.last() {
            if self.cache.contains_key(&cur) {
                stack.pop();
                continue;
            }
            let deps = self.node_deps(pool, cur);
            let missing: Vec<ExprId> = deps
                .into_iter()
                .filter(|d| !self.cache.contains_key(d))
                .collect();
            if missing.is_empty() {
                let bits = self.blast_node(pool, cur);
                self.cache.insert(cur, bits);
                if let Some(frame) = self.frames.last_mut() {
                    frame.cache_added.push(cur);
                }
                stack.pop();
            } else {
                stack.extend(missing);
            }
        }
        self.cache[&id].clone()
    }

    fn node_deps(&self, pool: &ExprPool, id: ExprId) -> Vec<ExprId> {
        match pool.node(id) {
            Node::Const { .. } | Node::Var { .. } => vec![],
            Node::Not { a } | Node::Extract { a, .. } | Node::Ext { a, .. } => vec![*a],
            Node::Bin { a, b, .. } | Node::Concat { a, b } => vec![*a, *b],
            Node::Ite { cond, t, f } => vec![*cond, *t, *f],
        }
    }

    fn blast_node(&mut self, pool: &ExprPool, id: ExprId) -> Vec<Lit> {
        match pool.node(id).clone() {
            Node::Const { width, bits } => (0..width)
                .map(|i| self.const_lit((bits >> i) & 1 == 1))
                .collect(),
            Node::Var { width, var } => {
                if let Some(bits) = self.var_bits.get(&var) {
                    return bits.clone();
                }
                let bits: Vec<Lit> = (0..width).map(|_| self.fresh()).collect();
                self.var_bits.insert(var, bits.clone());
                if let Some(frame) = self.frames.last_mut() {
                    frame.vars_added.push(var);
                }
                bits
            }
            Node::Not { a } => self.cache[&a].iter().map(|l| l.negated()).collect(),
            Node::Bin { op, a, b } => {
                let av = self.cache[&a].clone();
                let bv = self.cache[&b].clone();
                match op {
                    BinOp::Add => self.add_vec(&av, &bv, self.false_lit()).0,
                    BinOp::Sub => {
                        let nb = self.neg_vec(&bv);
                        self.add_vec(&av, &nb, self.false_lit()).0
                    }
                    BinOp::Mul => self.mul_vec(&av, &bv),
                    BinOp::UDiv => self.divrem(&av, &bv).0,
                    BinOp::URem => self.divrem(&av, &bv).1,
                    BinOp::And => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.lit_and(x, y))
                        .collect(),
                    BinOp::Or => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.lit_or(x, y))
                        .collect(),
                    BinOp::Xor => av
                        .iter()
                        .zip(&bv)
                        .map(|(&x, &y)| self.lit_xor(x, y))
                        .collect(),
                    BinOp::Shl | BinOp::LShr | BinOp::AShr => self.shift_vec(op, &av, &bv),
                    BinOp::Eq => vec![self.eq_vec(&av, &bv)],
                    BinOp::Ult => vec![self.ult_vec(&av, &bv)],
                    BinOp::Ule => {
                        let gt = self.ult_vec(&bv, &av);
                        vec![gt.negated()]
                    }
                    BinOp::Slt => {
                        let w = av.len();
                        let sa = av[w - 1];
                        let sb = bv[w - 1];
                        let diff = self.lit_xor(sa, sb);
                        let u = self.ult_vec(&av, &bv);
                        vec![self.lit_ite(diff, sa, u)]
                    }
                    BinOp::Sle => {
                        let w = av.len();
                        let sa = av[w - 1];
                        let sb = bv[w - 1];
                        let diff = self.lit_xor(sa, sb);
                        let gt = self.ult_vec(&bv, &av);
                        let le = gt.negated();
                        vec![self.lit_ite(diff, sa, le)]
                    }
                }
            }
            Node::Ite { cond, t, f } => {
                let c = self.cache[&cond][0];
                let tv = self.cache[&t].clone();
                let fv = self.cache[&f].clone();
                self.ite_vec(c, &tv, &fv)
            }
            Node::Extract { hi, lo, a } => self.cache[&a][lo as usize..=hi as usize].to_vec(),
            Node::Ext { signed, width, a } => {
                let av = self.cache[&a].clone();
                let mut v = av.clone();
                let fill = if signed {
                    *av.last().unwrap()
                } else {
                    self.false_lit()
                };
                v.resize(width as usize, fill);
                v
            }
            Node::Concat { a, b } => {
                let mut v = self.cache[&b].clone();
                v.extend_from_slice(&self.cache[&a]);
                v
            }
        }
    }

    /// The activation literal `g` for a width-1 assertion: the permanent
    /// clause `¬g ∨ e` makes assuming `g` enforce the assertion, while an
    /// unassumed `g` leaves it disabled. Each assertion is bit-blasted once
    /// per blaster lifetime; later requests return the memoized guard.
    pub fn guard(&mut self, pool: &ExprPool, id: ExprId) -> Lit {
        if let Some(&g) = self.guards.get(&id) {
            self.guard_hits += 1;
            return g;
        }
        debug_assert_eq!(pool.width(id), 1);
        let bits = self.blast(pool, id);
        let g = self.fresh();
        self.sat.add_clause(&[g.negated(), bits[0]]);
        self.guards.insert(id, g);
        if let Some(frame) = self.frames.last_mut() {
            frame.guards_added.push(id);
        }
        self.guards_created += 1;
        g
    }

    /// Asserts that a width-1 expression is true, permanently (no guard).
    pub fn assert_true(&mut self, pool: &ExprPool, id: ExprId) {
        debug_assert_eq!(pool.width(id), 1);
        let bits = self.blast(pool, id);
        self.sat.add_clause(&[bits[0]]);
    }

    /// Extracts the value of a declared variable from a SAT model.
    ///
    /// Variables that never occurred in a blasted expression default to 0.
    pub fn var_value(&self, var: VarId, model: &[bool]) -> u64 {
        match self.var_bits.get(&var) {
            None => 0,
            Some(bits) => bits.iter().enumerate().fold(0u64, |acc, (i, l)| {
                let val = if *l == self.true_lit {
                    true
                } else if *l == self.true_lit.negated() {
                    false
                } else {
                    model[l.var() as usize] != l.is_neg()
                };
                acc | ((val as u64) << i)
            }),
        }
    }

    /// Variables that appeared during blasting.
    pub fn blasted_vars(&self) -> impl Iterator<Item = VarId> + '_ {
        self.var_bits.keys().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sat::SatOutcome;

    /// Checks that asserting `expr == expected(x)` round-trips through SAT.
    fn solve_for(pool: &mut ExprPool, assertion: ExprId) -> Option<Vec<u64>> {
        let mut bb = BitBlaster::new();
        bb.assert_true(pool, assertion);
        match bb.sat_mut().solve() {
            SatOutcome::Sat(m) => {
                let n = pool.vars().len();
                Some(
                    (0..n as u32)
                        .map(|i| bb.var_value(crate::expr::VarId(i), &m))
                        .collect(),
                )
            }
            SatOutcome::Unsat | SatOutcome::Unknown => None,
        }
    }

    #[test]
    fn solve_linear_equation() {
        // 3*x + 1 == 28  =>  x == 9
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let three = p.constant(8, 3);
        let one = p.constant(8, 1);
        let mul = p.bin(BinOp::Mul, x, three);
        let lhs = p.bin(BinOp::Add, mul, one);
        let rhs = p.constant(8, 28);
        let eq = p.eq(lhs, rhs);
        let model = solve_for(&mut p, eq).expect("sat");
        assert_eq!(model[0], 9);
    }

    #[test]
    fn unsat_contradiction() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let c1 = p.constant(8, 1);
        let c2 = p.constant(8, 2);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let both = p.and1(e1, e2);
        assert!(solve_for(&mut p, both).is_none());
    }

    #[test]
    fn division_roundtrip() {
        // x / 7 == 5 and x % 7 == 3  =>  x == 38
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let seven = p.constant(8, 7);
        let q = p.bin(BinOp::UDiv, x, seven);
        let r = p.bin(BinOp::URem, x, seven);
        let five = p.constant(8, 5);
        let three = p.constant(8, 3);
        let e1 = p.eq(q, five);
        let e2 = p.eq(r, three);
        let both = p.and1(e1, e2);
        let model = solve_for(&mut p, both).expect("sat");
        assert_eq!(model[0], 38);
    }

    #[test]
    fn shifts_by_symbolic_amount() {
        // (1 << s) == 16  =>  s == 4
        let mut p = ExprPool::new();
        let s = p.fresh_var("s", 8);
        let one = p.constant(8, 1);
        let sh = p.bin(BinOp::Shl, one, s);
        let sixteen = p.constant(8, 16);
        let eq = p.eq(sh, sixteen);
        let model = solve_for(&mut p, eq).expect("sat");
        assert_eq!(model[0], 4);
    }

    #[test]
    fn signed_compare() {
        // x <s 0 and x >s -10  =>  -10 < x < 0
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let zero = p.constant(8, 0);
        let neg10 = p.constant(8, (-10i64) as u64);
        let lt = p.bin(BinOp::Slt, x, zero);
        let gt = p.bin(BinOp::Slt, neg10, x);
        let both = p.and1(lt, gt);
        let model = solve_for(&mut p, both).expect("sat");
        let v = crate::expr::to_signed(8, model[0]);
        assert!((-10..0).contains(&v), "got {v}");
    }

    #[test]
    fn exhaustive_binop_equivalence_4bit() {
        // For every op and all 4-bit operand pairs, constrain vars to the pair
        // and check the solver agrees with the concrete semantics.
        use crate::expr::eval_bin;
        let ops = [
            BinOp::Add,
            BinOp::Sub,
            BinOp::Mul,
            BinOp::UDiv,
            BinOp::URem,
            BinOp::And,
            BinOp::Or,
            BinOp::Xor,
            BinOp::Shl,
            BinOp::LShr,
            BinOp::AShr,
            BinOp::Ult,
            BinOp::Slt,
            BinOp::Ule,
            BinOp::Sle,
            BinOp::Eq,
        ];
        for op in ops {
            // sample a subset of pairs to keep the test fast
            for a in [0u64, 1, 3, 7, 8, 15] {
                for b in [0u64, 1, 2, 7, 8, 15] {
                    let mut p = ExprPool::new();
                    let x = p.fresh_var("x", 4);
                    let y = p.fresh_var("y", 4);
                    let ca = p.constant(4, a);
                    let cb = p.constant(4, b);
                    let ex = p.eq(x, ca);
                    let ey = p.eq(y, cb);
                    let r = p.bin(op, x, y);
                    let expected = eval_bin(op, 4, a, b);
                    let rw = p.width(r);
                    let cexp = p.constant(rw, expected);
                    let er = p.eq(r, cexp);
                    let c1 = p.and1(ex, ey);
                    let all = p.and1(c1, er);
                    assert!(
                        solve_for(&mut p, all).is_some(),
                        "{op:?} {a} {b}: solver disagrees with concrete eval {expected}"
                    );
                }
            }
        }
    }

    #[test]
    fn guarded_assertions_toggle_via_assumptions() {
        // One persistent blaster; two contradictory assertions, each usable
        // alone, and the CNF for each is built exactly once.
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let c1 = p.constant(8, 1);
        let c2 = p.constant(8, 2);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        let mut bb = BitBlaster::new();
        let g1 = bb.guard(&p, e1);
        let g2 = bb.guard(&p, e2);
        assert_eq!(bb.guards_created, 2);
        match bb.sat_mut().solve_under_assumptions(&[g1]) {
            SatOutcome::Sat(m) => assert_eq!(bb.var_value(crate::expr::VarId(0), &m), 1),
            other => panic!("x==1 alone is sat, got {other:?}"),
        }
        match bb.sat_mut().solve_under_assumptions(&[g2]) {
            SatOutcome::Sat(m) => assert_eq!(bb.var_value(crate::expr::VarId(0), &m), 2),
            other => panic!("x==2 alone is sat, got {other:?}"),
        }
        assert_eq!(
            bb.sat_mut().solve_under_assumptions(&[g1, g2]),
            SatOutcome::Unsat
        );
        // Re-requesting guards is a pure memo lookup.
        let clauses_before = bb.sat().num_clauses();
        assert_eq!(bb.guard(&p, e1), g1);
        assert_eq!(bb.guard(&p, e2), g2);
        assert_eq!(bb.guard_hits, 2);
        assert_eq!(bb.sat().num_clauses(), clauses_before, "no re-blasting");
    }

    #[test]
    fn guard_frames_recycle_transient_clauses() {
        // A guard created inside a frame disappears with the frame: its
        // clauses and variables are freed, the memo forgets it, and the
        // persistent constraints still answer correctly afterwards.
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let c10 = p.constant(8, 10);
        let base = p.bin(BinOp::Ult, x, c10); // x < 10, persistent
        let mut bb = BitBlaster::new();
        let gb = bb.guard(&p, base);
        let clauses0 = bb.sat().num_clauses();
        let vars0 = bb.sat().num_vars();

        bb.push_guard_frame();
        let c3 = p.constant(8, 3);
        let trial = p.eq(x, c3); // transient trial constraint
        let gt = bb.guard(&p, trial);
        assert!(bb.sat().num_clauses() > clauses0, "trial CNF was added");
        match bb.sat_mut().solve_under_assumptions(&[gb, gt]) {
            SatOutcome::Sat(m) => assert_eq!(bb.var_value(crate::expr::VarId(0), &m), 3),
            other => panic!("x<10 and x==3 is sat, got {other:?}"),
        }
        bb.pop_guard_frame();

        assert_eq!(bb.sat().num_clauses(), clauses0, "trial clauses freed");
        assert_eq!(bb.sat().num_vars(), vars0, "trial variables freed");
        assert_eq!(bb.guards_recycled, 1);
        // The persistent assertion still works, and re-guarding the trial
        // re-blasts it (the memo entry is gone).
        match bb.sat_mut().solve_under_assumptions(&[gb]) {
            SatOutcome::Sat(m) => assert!(bb.var_value(crate::expr::VarId(0), &m) < 10),
            other => panic!("x<10 is sat, got {other:?}"),
        }
        let created = bb.guards_created;
        let gt2 = bb.guard(&p, trial);
        assert_eq!(bb.guards_created, created + 1, "recycled guard re-blasts");
        match bb.sat_mut().solve_under_assumptions(&[gb, gt2]) {
            SatOutcome::Sat(m) => assert_eq!(bb.var_value(crate::expr::VarId(0), &m), 3),
            other => panic!("x<10 and x==3 is still sat, got {other:?}"),
        }
    }

    #[test]
    fn nested_guard_frames_pop_in_order() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let mut bb = BitBlaster::new();
        let c1 = p.constant(8, 1);
        let c2 = p.constant(8, 2);
        let e1 = p.eq(x, c1);
        let e2 = p.eq(x, c2);
        bb.push_guard_frame();
        let g1 = bb.guard(&p, e1);
        let inner_mark = bb.sat().num_clauses();
        bb.push_guard_frame();
        let g2 = bb.guard(&p, e2);
        assert_eq!(
            bb.sat_mut().solve_under_assumptions(&[g1, g2]),
            SatOutcome::Unsat
        );
        bb.pop_guard_frame();
        assert_eq!(bb.sat().num_clauses(), inner_mark, "inner frame freed");
        // Outer frame's guard still live and satisfiable.
        match bb.sat_mut().solve_under_assumptions(&[g1]) {
            SatOutcome::Sat(m) => assert_eq!(bb.var_value(crate::expr::VarId(0), &m), 1),
            other => panic!("x==1 is sat, got {other:?}"),
        }
        bb.pop_guard_frame();
        assert_eq!(bb.guards_recycled, 2);
        assert!(matches!(bb.sat_mut().solve(), SatOutcome::Sat(_)));
    }
}
