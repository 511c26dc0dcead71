//! # chef-solver — the constraint-solving substrate
//!
//! Bitvector (QF_BV) constraint solving for the Chef reproduction, standing
//! in for STP in the paper's stack: hash-consed expression DAGs with eager
//! constant folding ([`ExprPool`]), memoizing Tseitin bit-blasting
//! ([`bitblast::BitBlaster`]), an incremental CDCL SAT backend
//! ([`sat::SatSolver`], with assumption-based solving and learned-clause
//! deletion), and a caching facade ([`Solver`]) that answers the queries
//! symbolic execution issues: branch feasibility, test-case models,
//! `upper_bound` maximization, and bounded value enumeration for symbolic
//! pointers. The facade keeps one persistent SAT instance per solver
//! lifetime: assertions are bit-blasted once, guarded by activation
//! literals, partitioned into independent components by shared variables,
//! and toggled per query via assumptions.
//!
//! # Examples
//!
//! Solve `3·x > 10` (the running example from §2.1 of the paper):
//!
//! ```
//! use chef_solver::{ExprPool, Solver, BinOp, SatResult};
//!
//! let mut pool = ExprPool::new();
//! let mut solver = Solver::new();
//! let x = pool.fresh_var("x", 32);
//! let three = pool.constant(32, 3);
//! let ten = pool.constant(32, 10);
//! let product = pool.bin(BinOp::Mul, x, three);
//! let cond = pool.bin(BinOp::Ult, ten, product);
//!
//! match solver.check(&pool, &[cond]) {
//!     SatResult::Sat(model) => {
//!         let v = model.eval(&pool, x);
//!         assert!(3 * v > 10);
//!     }
//!     _ => unreachable!("3x > 10 has solutions"),
//! }
//! ```

pub mod bitblast;
pub mod expr;
pub mod fxhash;
pub mod sat;
pub mod solver;

pub use expr::{eval_bin, mask, to_signed, BinOp, ExprId, ExprPool, Node, VarId, VarInfo};
pub use fxhash::{FxHashMap, FxHashSet};
pub use solver::{Model, SatResult, Solver, SolverStats};
