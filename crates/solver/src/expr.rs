//! Bitvector expression DAG with hash-consing and constant folding.
//!
//! Expressions play the role STP's abstract syntax plays in the paper: every
//! value the symbolic executor manipulates is an [`ExprId`] into an
//! [`ExprPool`]. Constants fold eagerly, so fully concrete execution never
//! allocates fresh nodes beyond the interned constants.

use std::collections::hash_map::Entry;
use std::fmt;

use crate::fxhash::{FxHashMap, FxHashSet};

/// Reference to an interned expression node inside an [`ExprPool`].
///
/// `ExprId` is a plain index: it is only meaningful together with the pool
/// that created it. Copying is free, equality is structural (hash-consing
/// guarantees structurally equal nodes share an id).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ExprId(pub(crate) u32);

impl fmt::Debug for ExprId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

impl ExprId {
    /// The raw pool index (creation order). Only meaningful together with
    /// the owning pool; serializers (`chef_symex::Snapshot`) use it as a
    /// stable node reference.
    pub fn raw(self) -> u32 {
        self.0
    }
}

/// Identifier of a symbolic input variable.
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Debug)]
pub struct VarId(pub u32);

/// Binary operators over equal-width bitvectors.
///
/// Comparison operators (`Eq`, `Ult`, `Slt`, `Ule`, `Sle`) yield width-1
/// results; all others preserve the operand width.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub enum BinOp {
    Add,
    Sub,
    Mul,
    /// Unsigned division; division by zero yields all-ones (SMT-LIB).
    UDiv,
    /// Unsigned remainder; remainder by zero yields the dividend (SMT-LIB).
    URem,
    And,
    Or,
    Xor,
    /// Left shift; amounts `>= width` yield zero.
    Shl,
    /// Logical right shift; amounts `>= width` yield zero.
    LShr,
    /// Arithmetic right shift; amounts `>= width` fill with the sign bit.
    AShr,
    Eq,
    Ult,
    Slt,
    Ule,
    Sle,
}

impl BinOp {
    /// Whether the operator commutes, used to canonicalize operand order.
    pub fn is_commutative(self) -> bool {
        matches!(
            self,
            BinOp::Add | BinOp::Mul | BinOp::And | BinOp::Or | BinOp::Xor | BinOp::Eq
        )
    }

    /// Whether the result has width 1 regardless of operand width.
    pub fn is_predicate(self) -> bool {
        matches!(
            self,
            BinOp::Eq | BinOp::Ult | BinOp::Slt | BinOp::Ule | BinOp::Sle
        )
    }
}

/// Interned expression node. Widths are in bits, `1..=64`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub enum Node {
    /// Constant with the low `width` bits of `bits` significant.
    Const { width: u8, bits: u64 },
    /// Free symbolic variable.
    Var { width: u8, var: VarId },
    /// Bitwise complement.
    Not { a: ExprId },
    /// Binary operation; see [`BinOp`] for width rules.
    Bin { op: BinOp, a: ExprId, b: ExprId },
    /// If-then-else on a width-1 condition.
    Ite { cond: ExprId, t: ExprId, f: ExprId },
    /// Bit slice `[hi:lo]` inclusive; result width `hi - lo + 1`.
    Extract { hi: u8, lo: u8, a: ExprId },
    /// Zero- or sign-extension to `width`.
    Ext { signed: bool, width: u8, a: ExprId },
    /// Concatenation: `a` occupies the high bits, `b` the low bits.
    Concat { a: ExprId, b: ExprId },
}

/// Mask covering the low `w` bits.
#[inline]
pub fn mask(w: u8) -> u64 {
    debug_assert!((1..=64).contains(&w));
    if w == 64 {
        u64::MAX
    } else {
        (1u64 << w) - 1
    }
}

#[inline]
fn sign_bit(w: u8, v: u64) -> bool {
    (v >> (w - 1)) & 1 == 1
}

/// Sign-extend the `w`-bit value `v` to 64 bits (as `i64`).
#[inline]
pub fn to_signed(w: u8, v: u64) -> i64 {
    let shift = 64 - w as u32;
    ((v << shift) as i64) >> shift
}

/// Sub-expression values under one variable assignment (see
/// [`ExprPool::eval_in`]).
pub(crate) type EvalMemo = FxHashMap<ExprId, u64>;

/// Metadata about a declared symbolic variable.
#[derive(Clone, Debug)]
pub struct VarInfo {
    /// Human-readable name, used in test-case reports.
    pub name: String,
    /// Width in bits.
    pub width: u8,
}

/// Arena of hash-consed expressions plus the variable table.
///
/// One pool is shared by the whole engine (solver, executor, Chef layer);
/// forked states only carry `ExprId`s, never nodes.
///
/// # Examples
///
/// ```
/// use chef_solver::{ExprPool, BinOp};
/// let mut p = ExprPool::new();
/// let x = p.fresh_var("x", 8);
/// let three = p.constant(8, 3);
/// let e = p.bin(BinOp::Mul, x, three);
/// assert_eq!(p.width(e), 8);
/// // constants fold: 3 * 4 becomes a constant node
/// let four = p.constant(8, 4);
/// let c = p.bin(BinOp::Mul, three, four);
/// assert_eq!(p.as_const(c), Some(12));
/// ```
#[derive(Debug, Default)]
pub struct ExprPool {
    nodes: Vec<Node>,
    widths: Vec<u8>,
    intern: FxHashMap<Node, ExprId>,
    vars: Vec<VarInfo>,
}

impl ExprPool {
    /// Creates an empty pool.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of interned nodes.
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Whether the pool holds no nodes.
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// The node behind `id`.
    pub fn node(&self, id: ExprId) -> &Node {
        &self.nodes[id.0 as usize]
    }

    /// The id of the `i`-th interned node, in creation order.
    ///
    /// # Panics
    ///
    /// Panics if `i >= len()`.
    pub fn id_at(&self, i: usize) -> ExprId {
        assert!(i < self.nodes.len(), "node index out of range");
        ExprId(i as u32)
    }

    /// Width in bits of the expression.
    pub fn width(&self, id: ExprId) -> u8 {
        self.widths[id.0 as usize]
    }

    /// All declared variables, indexed by [`VarId`].
    pub fn vars(&self) -> &[VarInfo] {
        &self.vars
    }

    /// Declares a fresh symbolic variable and returns an expression for it.
    pub fn fresh_var(&mut self, name: impl Into<String>, width: u8) -> ExprId {
        let var = VarId(self.vars.len() as u32);
        self.vars.push(VarInfo {
            name: name.into(),
            width,
        });
        self.intern_node(Node::Var { width, var }, width)
    }

    /// The expression for an already-declared variable.
    ///
    /// # Panics
    ///
    /// Panics if `var` was not declared in this pool.
    pub fn var_expr(&mut self, var: VarId) -> ExprId {
        let width = self.vars[var.0 as usize].width;
        self.intern_node(Node::Var { width, var }, width)
    }

    /// The [`VarId`] of a variable expression, if it is one.
    pub fn as_var(&self, id: ExprId) -> Option<VarId> {
        match self.node(id) {
            Node::Var { var, .. } => Some(*var),
            _ => None,
        }
    }

    /// Interns a constant of the given width.
    pub fn constant(&mut self, width: u8, bits: u64) -> ExprId {
        let bits = bits & mask(width);
        self.intern_node(Node::Const { width, bits }, width)
    }

    /// Width-1 true constant.
    pub fn true_(&mut self) -> ExprId {
        self.constant(1, 1)
    }

    /// Width-1 false constant.
    pub fn false_(&mut self) -> ExprId {
        self.constant(1, 0)
    }

    /// The constant value of `id`, if it is a constant node.
    pub fn as_const(&self, id: ExprId) -> Option<u64> {
        match self.node(id) {
            Node::Const { bits, .. } => Some(*bits),
            _ => None,
        }
    }

    /// Whether the expression is a constant node.
    pub fn is_const(&self, id: ExprId) -> bool {
        self.as_const(id).is_some()
    }

    fn intern_node(&mut self, node: Node, width: u8) -> ExprId {
        match self.intern.entry(node) {
            Entry::Occupied(e) => *e.get(),
            Entry::Vacant(e) => {
                let id = ExprId(self.nodes.len() as u32);
                self.nodes.push(e.key().clone());
                self.widths.push(width);
                e.insert(id);
                id
            }
        }
    }

    /// Bitwise complement.
    pub fn not(&mut self, a: ExprId) -> ExprId {
        let w = self.width(a);
        if let Some(v) = self.as_const(a) {
            return self.constant(w, !v);
        }
        if let Node::Not { a: inner } = *self.node(a) {
            return inner;
        }
        self.intern_node(Node::Not { a }, w)
    }

    /// Boolean negation of a width-1 expression (same as [`Self::not`]).
    pub fn bool_not(&mut self, a: ExprId) -> ExprId {
        debug_assert_eq!(self.width(a), 1);
        self.not(a)
    }

    /// Builds a binary operation, folding constants and applying local
    /// algebraic simplifications.
    ///
    /// # Panics
    ///
    /// Panics if the operand widths differ.
    pub fn bin(&mut self, op: BinOp, mut a: ExprId, mut b: ExprId) -> ExprId {
        let w = self.width(a);
        assert_eq!(
            w,
            self.width(b),
            "operand width mismatch in {:?}: {:?} vs {:?}",
            op,
            a,
            b
        );
        let rw = if op.is_predicate() { 1 } else { w };
        // Canonical operand order for commutative ops improves consing.
        if op.is_commutative() && a.0 > b.0 {
            std::mem::swap(&mut a, &mut b);
        }
        if let (Some(ca), Some(cb)) = (self.as_const(a), self.as_const(b)) {
            let v = eval_bin(op, w, ca, cb);
            return self.constant(rw, v);
        }
        if let Some(id) = self.simplify_bin(op, w, a, b) {
            return id;
        }
        self.intern_node(Node::Bin { op, a, b }, rw)
    }

    fn simplify_bin(&mut self, op: BinOp, w: u8, a: ExprId, b: ExprId) -> Option<ExprId> {
        let ca = self.as_const(a);
        let cb = self.as_const(b);
        let all = mask(w);
        match op {
            BinOp::Add => {
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
            }
            BinOp::Sub => {
                if cb == Some(0) {
                    return Some(a);
                }
                if a == b {
                    return Some(self.constant(w, 0));
                }
            }
            BinOp::Mul => {
                if ca == Some(0) || cb == Some(0) {
                    return Some(self.constant(w, 0));
                }
                if ca == Some(1) {
                    return Some(b);
                }
                if cb == Some(1) {
                    return Some(a);
                }
            }
            BinOp::And => {
                if ca == Some(0) || cb == Some(0) {
                    return Some(self.constant(w, 0));
                }
                if ca == Some(all) {
                    return Some(b);
                }
                if cb == Some(all) {
                    return Some(a);
                }
                if a == b {
                    return Some(a);
                }
            }
            BinOp::Or => {
                if ca == Some(all) || cb == Some(all) {
                    return Some(self.constant(w, all));
                }
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
                if a == b {
                    return Some(a);
                }
            }
            BinOp::Xor => {
                if ca == Some(0) {
                    return Some(b);
                }
                if cb == Some(0) {
                    return Some(a);
                }
                if a == b {
                    return Some(self.constant(w, 0));
                }
            }
            BinOp::Shl | BinOp::LShr | BinOp::AShr => {
                if cb == Some(0) {
                    return Some(a);
                }
                if ca == Some(0) {
                    return Some(self.constant(w, 0));
                }
            }
            BinOp::Eq => {
                if a == b {
                    return Some(self.true_());
                }
                // eq(x, c) where x = ite(p, c1, c2) with distinct constants;
                // operands may sit on either side after canonicalization.
                for (cv, ite_side) in [(cb, a), (ca, b)] {
                    if let (Some(c), Node::Ite { cond, t, f }) = (cv, self.node(ite_side).clone()) {
                        if let (Some(ct), Some(cf)) = (self.as_const(t), self.as_const(f)) {
                            if ct == c && cf != c {
                                return Some(cond);
                            }
                            if cf == c && ct != c {
                                return Some(self.not(cond));
                            }
                            if ct != c && cf != c {
                                return Some(self.false_());
                            }
                        }
                    }
                }
                // Boolean equality against constants.
                if w == 1 {
                    if cb == Some(1) {
                        return Some(a);
                    }
                    if cb == Some(0) {
                        return Some(self.not(a));
                    }
                    if ca == Some(1) {
                        return Some(b);
                    }
                    if ca == Some(0) {
                        return Some(self.not(b));
                    }
                }
            }
            BinOp::Ult => {
                if a == b || cb == Some(0) {
                    return Some(self.false_());
                }
                if ca == Some(all) {
                    return Some(self.false_());
                }
            }
            BinOp::Ule => {
                if a == b || ca == Some(0) {
                    return Some(self.true_());
                }
                if cb == Some(all) {
                    return Some(self.true_());
                }
            }
            BinOp::Slt if a == b => {
                return Some(self.false_());
            }
            BinOp::Sle if a == b => {
                return Some(self.true_());
            }
            _ => {}
        }
        None
    }

    /// If-then-else over a width-1 condition.
    ///
    /// # Panics
    ///
    /// Panics if `cond` is not width 1 or the arm widths differ.
    pub fn ite(&mut self, cond: ExprId, t: ExprId, f: ExprId) -> ExprId {
        assert_eq!(self.width(cond), 1, "ite condition must have width 1");
        let w = self.width(t);
        assert_eq!(w, self.width(f), "ite arm width mismatch");
        if let Some(c) = self.as_const(cond) {
            return if c == 1 { t } else { f };
        }
        if t == f {
            return t;
        }
        // ite(c, 1, 0) == c for booleans
        if w == 1 {
            if self.as_const(t) == Some(1) && self.as_const(f) == Some(0) {
                return cond;
            }
            if self.as_const(t) == Some(0) && self.as_const(f) == Some(1) {
                return self.not(cond);
            }
        }
        self.intern_node(Node::Ite { cond, t, f }, w)
    }

    /// Bit slice `[hi:lo]`, inclusive.
    ///
    /// # Panics
    ///
    /// Panics if `hi < lo` or `hi` exceeds the operand width.
    pub fn extract(&mut self, hi: u8, lo: u8, a: ExprId) -> ExprId {
        let w = self.width(a);
        assert!(
            hi >= lo && hi < w,
            "invalid extract [{hi}:{lo}] of width {w}"
        );
        let rw = hi - lo + 1;
        if rw == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(rw, v >> lo);
        }
        // extract of concat: resolve into the matching side when aligned
        if let Node::Concat {
            a: hi_part,
            b: lo_part,
        } = *self.node(a)
        {
            let lw = self.width(lo_part);
            if hi < lw {
                return self.extract(hi, lo, lo_part);
            }
            if lo >= lw {
                return self.extract(hi - lw, lo - lw, hi_part);
            }
        }
        // extract of extract composes
        if let Node::Extract {
            lo: ilo, a: inner, ..
        } = *self.node(a)
        {
            return self.extract(hi + ilo, lo + ilo, inner);
        }
        // extract of zext: within the original width it is an extract of the
        // inner value; entirely within the zero padding it is zero.
        if let Node::Ext {
            signed: false,
            a: inner,
            ..
        } = *self.node(a)
        {
            let iw = self.width(inner);
            if hi < iw {
                return self.extract(hi, lo, inner);
            }
            if lo >= iw {
                return self.constant(rw, 0);
            }
        }
        self.intern_node(Node::Extract { hi, lo, a }, rw)
    }

    /// Zero-extension to `width` (identity if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand width.
    pub fn zext(&mut self, width: u8, a: ExprId) -> ExprId {
        let w = self.width(a);
        assert!(width >= w, "zext target {width} below operand width {w}");
        if width == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(width, v);
        }
        self.intern_node(
            Node::Ext {
                signed: false,
                width,
                a,
            },
            width,
        )
    }

    /// Sign-extension to `width` (identity if already that width).
    ///
    /// # Panics
    ///
    /// Panics if `width` is smaller than the operand width.
    pub fn sext(&mut self, width: u8, a: ExprId) -> ExprId {
        let w = self.width(a);
        assert!(width >= w, "sext target {width} below operand width {w}");
        if width == w {
            return a;
        }
        if let Some(v) = self.as_const(a) {
            return self.constant(width, to_signed(w, v) as u64);
        }
        self.intern_node(
            Node::Ext {
                signed: true,
                width,
                a,
            },
            width,
        )
    }

    /// Concatenation with `a` in the high bits.
    ///
    /// # Panics
    ///
    /// Panics if the combined width exceeds 64 bits.
    pub fn concat(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let (wa, wb) = (self.width(a), self.width(b));
        let w = wa.checked_add(wb).expect("concat width overflow");
        assert!(w <= 64, "concat width {w} exceeds 64");
        if let (Some(va), Some(vb)) = (self.as_const(a), self.as_const(b)) {
            return self.constant(w, (va << wb) | vb);
        }
        // concat(0, b) == zext(b)
        if self.as_const(a) == Some(0) {
            return self.zext(w, b);
        }
        // Reassemble adjacent extracts of the same source.
        if let (
            Node::Extract {
                hi: ah,
                lo: al,
                a: src_a,
            },
            Node::Extract {
                hi: bh,
                lo: bl,
                a: src_b,
            },
        ) = (self.node(a).clone(), self.node(b).clone())
        {
            if src_a == src_b && al == bh + 1 {
                return self.extract(ah, bl, src_a);
            }
        }
        self.intern_node(Node::Concat { a, b }, w)
    }

    /// Convenience: `a == b` as width-1.
    pub fn eq(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Eq, a, b)
    }

    /// Convenience: `a != b` as width-1.
    pub fn ne(&mut self, a: ExprId, b: ExprId) -> ExprId {
        let e = self.eq(a, b);
        self.not(e)
    }

    /// Logical AND of width-1 expressions.
    pub fn and1(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::And, a, b)
    }

    /// Logical OR of width-1 expressions.
    pub fn or1(&mut self, a: ExprId, b: ExprId) -> ExprId {
        self.bin(BinOp::Or, a, b)
    }

    /// Expression is non-zero, as width-1.
    pub fn is_nonzero(&mut self, a: ExprId) -> ExprId {
        let w = self.width(a);
        let zero = self.constant(w, 0);
        self.ne(a, zero)
    }

    /// Expression is zero, as width-1.
    pub fn is_zero(&mut self, a: ExprId) -> ExprId {
        let w = self.width(a);
        let zero = self.constant(w, 0);
        self.eq(a, zero)
    }

    /// Evaluates the expression under a variable assignment.
    ///
    /// `lookup(var)` returns the value for each [`VarId`]; results are
    /// truncated to the variable width. This is the reference semantics the
    /// bit-blaster is tested against.
    pub fn eval(&self, id: ExprId, lookup: &impl Fn(VarId) -> u64) -> u64 {
        self.eval_in(id, lookup, &mut EvalMemo::default())
    }

    /// Evaluates a conjunction of width-1 assertions under one shared memo,
    /// short-circuiting on the first false one. Path-condition assertions
    /// share most of their sub-DAG, so one memo across the conjunction is
    /// substantially cheaper than per-assertion evaluation.
    pub fn eval_conjunction(&self, ids: &[ExprId], lookup: &impl Fn(VarId) -> u64) -> bool {
        let mut memo = EvalMemo::default();
        ids.iter()
            .all(|&id| self.eval_in(id, lookup, &mut memo) == 1)
    }

    /// [`Self::eval`] through a caller-owned memo of sub-expression values,
    /// so repeated evaluations under one assignment share work and reuse
    /// one allocation. Every entry already in `memo` must have been
    /// computed under the same `lookup`.
    pub(crate) fn eval_in(
        &self,
        id: ExprId,
        lookup: &impl Fn(VarId) -> u64,
        memo: &mut EvalMemo,
    ) -> u64 {
        // Iterative post-order evaluation (explicit worklist) with
        // memoization: path conditions grow linearly with executed branches,
        // so recursing here would overflow the stack during
        // `Model::satisfies` on the deep expression chains long guest loops
        // produce. Nodes are visited by reference, never cloned.
        let mut stack = vec![(id, false)];
        while let Some((cur, ready)) = stack.pop() {
            if memo.contains_key(&cur) {
                continue;
            }
            if !ready {
                stack.push((cur, true));
                match self.node(cur) {
                    Node::Const { .. } | Node::Var { .. } => {}
                    Node::Not { a } | Node::Extract { a, .. } | Node::Ext { a, .. } => {
                        stack.push((*a, false));
                    }
                    Node::Bin { a, b, .. } | Node::Concat { a, b } => {
                        stack.push((*a, false));
                        stack.push((*b, false));
                    }
                    Node::Ite { cond, t, f } => {
                        stack.push((*cond, false));
                        stack.push((*t, false));
                        stack.push((*f, false));
                    }
                }
                continue;
            }
            let v = match self.node(cur) {
                Node::Const { bits, .. } => *bits,
                Node::Var { width, var } => lookup(*var) & mask(*width),
                Node::Not { a } => !memo[a] & mask(self.width(cur)),
                Node::Bin { op, a, b } => eval_bin(*op, self.width(*a), memo[a], memo[b]),
                Node::Ite { cond, t, f } => {
                    if memo[cond] == 1 {
                        memo[t]
                    } else {
                        memo[f]
                    }
                }
                Node::Extract { hi, lo, a } => (memo[a] >> lo) & mask(hi - lo + 1),
                Node::Ext { signed, width, a } => {
                    let iw = self.width(*a);
                    let v = memo[a];
                    if *signed {
                        (to_signed(iw, v) as u64) & mask(*width)
                    } else {
                        v
                    }
                }
                Node::Concat { a, b } => {
                    let wb = self.width(*b);
                    ((memo[a] << wb) | memo[b]) & mask(self.width(cur))
                }
            };
            memo.insert(cur, v);
        }
        memo[&id]
    }

    /// Collects the set of variables an expression depends on. The cost is
    /// proportional to the expression's sub-DAG, not to the pool.
    pub fn collect_vars(&self, id: ExprId, out: &mut Vec<VarId>) {
        let mut seen = FxHashSet::default();
        let mut stack = vec![id];
        while let Some(cur) = stack.pop() {
            if !seen.insert(cur) {
                continue;
            }
            match self.node(cur) {
                Node::Const { .. } => {}
                Node::Var { var, .. } => out.push(*var),
                Node::Not { a } | Node::Extract { a, .. } | Node::Ext { a, .. } => stack.push(*a),
                Node::Bin { a, b, .. } | Node::Concat { a, b } => {
                    stack.push(*a);
                    stack.push(*b);
                }
                Node::Ite { cond, t, f } => {
                    stack.push(*cond);
                    stack.push(*t);
                    stack.push(*f);
                }
            }
        }
        out.sort_unstable();
        out.dedup();
    }
}

/// Concrete semantics of [`BinOp`] on `w`-bit values.
pub fn eval_bin(op: BinOp, w: u8, a: u64, b: u64) -> u64 {
    let m = mask(w);
    let (a, b) = (a & m, b & m);
    match op {
        BinOp::Add => a.wrapping_add(b) & m,
        BinOp::Sub => a.wrapping_sub(b) & m,
        BinOp::Mul => a.wrapping_mul(b) & m,
        BinOp::UDiv => a.checked_div(b).map_or(m, |q| q & m),
        BinOp::URem => {
            if b == 0 {
                a
            } else {
                (a % b) & m
            }
        }
        BinOp::And => a & b,
        BinOp::Or => a | b,
        BinOp::Xor => a ^ b,
        BinOp::Shl => {
            if b >= w as u64 {
                0
            } else {
                (a << b) & m
            }
        }
        BinOp::LShr => {
            if b >= w as u64 {
                0
            } else {
                a >> b
            }
        }
        BinOp::AShr => {
            let s = to_signed(w, a);
            if b >= w as u64 {
                if s < 0 {
                    m
                } else {
                    0
                }
            } else {
                ((s >> b) as u64) & m
            }
        }
        BinOp::Eq => (a == b) as u64,
        BinOp::Ult => (a < b) as u64,
        BinOp::Slt => (to_signed(w, a) < to_signed(w, b)) as u64,
        BinOp::Ule => (a <= b) as u64,
        BinOp::Sle => (to_signed(w, a) <= to_signed(w, b)) as u64,
    }
}

#[allow(unused)]
fn _sign_bit_used(w: u8, v: u64) -> bool {
    sign_bit(w, v)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constants_fold_and_intern() {
        let mut p = ExprPool::new();
        let a = p.constant(8, 300); // truncated to 44
        assert_eq!(p.as_const(a), Some(44));
        let b = p.constant(8, 44);
        assert_eq!(a, b, "equal constants intern to the same id");
    }

    #[test]
    fn add_folds() {
        let mut p = ExprPool::new();
        let a = p.constant(8, 200);
        let b = p.constant(8, 100);
        let c = p.bin(BinOp::Add, a, b);
        assert_eq!(p.as_const(c), Some((200u64 + 100) & 0xff));
    }

    #[test]
    fn identity_simplifications() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 32);
        let zero = p.constant(32, 0);
        let one = p.constant(32, 1);
        assert_eq!(p.bin(BinOp::Add, x, zero), x);
        assert_eq!(p.bin(BinOp::Mul, x, one), x);
        assert_eq!(p.bin(BinOp::Mul, x, zero), zero);
        assert_eq!(p.bin(BinOp::Xor, x, x), zero);
        let t = p.bin(BinOp::Eq, x, x);
        assert_eq!(p.as_const(t), Some(1));
    }

    #[test]
    fn double_not_cancels() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 16);
        let n = p.not(x);
        assert_eq!(p.not(n), x);
    }

    #[test]
    fn ite_const_cond() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let t = p.true_();
        assert_eq!(p.ite(t, x, y), x);
        let f = p.false_();
        assert_eq!(p.ite(f, x, y), y);
        let c = p.fresh_var("c", 8);
        let cond = p.is_nonzero(c);
        assert_eq!(p.ite(cond, x, x), x);
    }

    #[test]
    fn extract_of_concat_resolves() {
        let mut p = ExprPool::new();
        let hi = p.fresh_var("hi", 8);
        let lo = p.fresh_var("lo", 8);
        let c = p.concat(hi, lo);
        assert_eq!(p.extract(7, 0, c), lo);
        assert_eq!(p.extract(15, 8, c), hi);
    }

    #[test]
    fn concat_of_adjacent_extracts_reassembles() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 32);
        let hi = p.extract(15, 8, x);
        let lo = p.extract(7, 0, x);
        let c = p.concat(hi, lo);
        assert_eq!(c, p.extract(15, 0, x));
    }

    #[test]
    fn eval_matches_semantics() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let three = p.constant(8, 3);
        let e = p.bin(BinOp::Mul, x, three);
        let ten = p.constant(8, 10);
        let cmp = p.bin(BinOp::Ult, ten, e);
        let v = p.eval(cmp, &|_| 5);
        assert_eq!(v, 1, "10 < 15");
        let v = p.eval(cmp, &|_| 3);
        assert_eq!(v, 0, "10 < 9 is false");
    }

    #[test]
    fn eq_of_ite_with_const_arms() {
        let mut p = ExprPool::new();
        let c = p.fresh_var("c", 1);
        let a = p.constant(8, 5);
        let b = p.constant(8, 9);
        let ite = p.ite(c, a, b);
        assert_eq!(p.eq(ite, a), c);
        let nc = p.eq(ite, b);
        assert_eq!(nc, p.not(c));
        let other = p.constant(8, 77);
        let e = p.eq(ite, other);
        assert_eq!(p.as_const(e), Some(0));
    }

    #[test]
    fn shift_semantics_at_bounds() {
        assert_eq!(eval_bin(BinOp::Shl, 8, 1, 8), 0);
        assert_eq!(eval_bin(BinOp::LShr, 8, 0x80, 8), 0);
        assert_eq!(eval_bin(BinOp::AShr, 8, 0x80, 8), 0xff);
        assert_eq!(eval_bin(BinOp::AShr, 8, 0x40, 8), 0);
        assert_eq!(eval_bin(BinOp::UDiv, 8, 7, 0), 0xff);
        assert_eq!(eval_bin(BinOp::URem, 8, 7, 0), 7);
    }

    #[test]
    fn eval_survives_very_deep_chains() {
        // A 200k-deep alternating add/xor chain: recursion would overflow
        // the default thread stack; the worklist evaluator must not.
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 64);
        let one = p.constant(64, 1);
        let mut e = x;
        for i in 0..200_000u64 {
            e = if i % 2 == 0 {
                p.bin(BinOp::Add, e, one)
            } else {
                p.bin(BinOp::Xor, e, x)
            };
        }
        // Just computing it without a stack overflow is the property; also
        // sanity-check against a direct fold.
        let got = p.eval(e, &|_| 3);
        let mut want = 3u64;
        for i in 0..200_000u64 {
            want = if i % 2 == 0 {
                want.wrapping_add(1)
            } else {
                want ^ 3
            };
        }
        assert_eq!(got, want);
    }

    #[test]
    fn collect_vars_dedups() {
        let mut p = ExprPool::new();
        let x = p.fresh_var("x", 8);
        let y = p.fresh_var("y", 8);
        let s = p.bin(BinOp::Add, x, y);
        let s2 = p.bin(BinOp::Add, s, x);
        let mut vars = Vec::new();
        p.collect_vars(s2, &mut vars);
        assert_eq!(vars, vec![VarId(0), VarId(1)]);
    }

    #[test]
    fn collect_vars_matches_a_whole_pool_walk() {
        // A pseudo-random DAG over six variables; every node's variable set
        // must equal the one a dense, pool-sized visited set finds.
        let mut p = ExprPool::new();
        let mut nodes: Vec<ExprId> = (0..6).map(|i| p.fresh_var(format!("v{i}"), 8)).collect();
        let mut seed = 0x2545_f491_4f6c_dd1du64;
        let mut next = |n: usize| {
            seed ^= seed << 13;
            seed ^= seed >> 7;
            seed ^= seed << 17;
            (seed % n as u64) as usize
        };
        for _ in 0..400 {
            let a = nodes[next(nodes.len())];
            let b = nodes[next(nodes.len())];
            let e = match next(4) {
                0 => p.bin(BinOp::Add, a, b),
                1 => p.bin(BinOp::Xor, a, b),
                2 => {
                    let c = p.bin(BinOp::Ult, a, b);
                    p.ite(c, a, b)
                }
                _ => p.not(a),
            };
            nodes.push(e);
        }
        let dense = |p: &ExprPool, id: ExprId| {
            let mut seen = vec![false; p.len()];
            let mut out = Vec::new();
            let mut stack = vec![id];
            while let Some(cur) = stack.pop() {
                if std::mem::replace(&mut seen[cur.0 as usize], true) {
                    continue;
                }
                match p.node(cur) {
                    Node::Const { .. } => {}
                    Node::Var { var, .. } => out.push(*var),
                    Node::Not { a } | Node::Extract { a, .. } | Node::Ext { a, .. } => {
                        stack.push(*a)
                    }
                    Node::Bin { a, b, .. } | Node::Concat { a, b } => stack.extend([*a, *b]),
                    Node::Ite { cond, t, f } => stack.extend([*cond, *t, *f]),
                }
            }
            out.sort_unstable();
            out.dedup();
            out
        };
        for &n in &nodes {
            let mut got = Vec::new();
            p.collect_vars(n, &mut got);
            assert_eq!(got, dense(&p, n), "node {n:?}");
        }
    }
}
