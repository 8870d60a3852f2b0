//! Linear programming for SherLock-rs.
//!
//! The paper's Solver encodes synchronization properties as hard linear
//! constraints and hypotheses as soft objective terms, then delegates to an
//! off-the-shelf LP solver (Flipy/CBC). This crate is the from-scratch
//! replacement: a [`Model`] builder with the two nonlinear-looking helpers the
//! encoding needs — [`Model::add_hinge`] for `max(0, e)` terms (Eq. 2) and
//! [`Model::add_abs`] for `|e|` terms (Eqs. 6–7) — solved by a sparse
//! bounded-variable revised simplex (presolve, CSC columns, product-form
//! basis updates, periodic refactorization, Bland's-rule anti-cycling
//! fallback).
//!
//! Every solve starts cold from the all-slack basis, as the paper's Solver
//! hands each round's rebuilt LP to its off-the-shelf solver. The original
//! dense two-phase tableau survives as [`simplex::dense`], a slow reference
//! oracle reachable via [`Model::solve_dense`] that the differential test
//! harness checks every change against.
//!
//! # Example
//!
//! ```
//! use sherlock_lp::{Model, LinExpr};
//!
//! // minimize x + 2y  s.t.  x + y >= 1,  0 <= x,y <= 1
//! let mut m = Model::new();
//! let x = m.add_var("x", 0.0, 1.0);
//! let y = m.add_var("y", 0.0, 1.0);
//! m.constrain_ge(LinExpr::from(x) + LinExpr::from(y), 1.0);
//! m.minimize(LinExpr::from(x) + LinExpr::from(y) * 2.0);
//! let sol = m.solve().unwrap();
//! assert!((sol.value(x) - 1.0).abs() < 1e-7);
//! assert!(sol.value(y).abs() < 1e-7);
//! assert!((sol.objective - 1.0).abs() < 1e-7);
//! ```

mod expr;
mod model;
mod presolve;
mod revised;
pub mod simplex;
pub mod sparse;

pub use expr::LinExpr;
pub use model::{LpError, Model, Solution, VarId};
