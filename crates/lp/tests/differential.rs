//! Differential oracle suite: the sparse revised simplex
//! ([`Model::solve`]) against the dense two-phase tableau
//! ([`Model::solve_dense`]) on randomly generated models.
//!
//! Models are generated in three deliberate families — feasible-bounded
//! (built around a witness point), infeasible (a conflicting row pair), and
//! unbounded (a costed ray no row blocks) — so all three status outcomes are
//! exercised, not just the happy path. Any disagreement on status, or >1e-6
//! relative disagreement on the optimal objective, is shrunk by the
//! `sherlock_sim::testutil` harness to a minimal disagreeing model before
//! the test panics.

use sherlock_lp::{LinExpr, LpError, Model};
use sherlock_sim::testutil::{check, Config, Gen};

const EPS: f64 = 1e-6;

/// Relations encoded as plain bytes so specs stay `Debug`-printable and
/// shrinkable without dragging solver types into the generator.
const LE: u8 = 0;
const GE: u8 = 1;
const EQ: u8 = 2;

/// A plain-data LP description the generator and shrinker manipulate; built
/// into a [`Model`] only inside the property.
#[derive(Clone, Debug)]
struct Spec {
    /// Per-variable `(lower, upper)`; infinities allowed.
    bounds: Vec<(f64, f64)>,
    /// Dense rows: coefficients per variable, relation byte, rhs.
    rows: Vec<(Vec<f64>, u8, f64)>,
    /// Objective coefficient per variable.
    objective: Vec<f64>,
}

impl Spec {
    fn build(&self) -> Model {
        let mut m = Model::new();
        let ids: Vec<_> = self
            .bounds
            .iter()
            .enumerate()
            .map(|(j, &(lo, hi))| m.add_var(format!("x{j}"), lo, hi))
            .collect();
        for (coeffs, rel, rhs) in &self.rows {
            let mut e = LinExpr::zero();
            for (j, &c) in coeffs.iter().enumerate() {
                if c != 0.0 {
                    e.add_term(ids[j], c);
                }
            }
            match *rel {
                LE => m.constrain_le(e, *rhs),
                GE => m.constrain_ge(e, *rhs),
                _ => m.constrain_eq(e, *rhs),
            }
        }
        let mut obj = LinExpr::zero();
        for (j, &c) in self.objective.iter().enumerate() {
            if c != 0.0 {
                obj.add_term(ids[j], c);
            }
        }
        m.minimize(obj);
        m
    }
}

/// A coefficient on a 0.1 grid in [-5, 5] (grid values keep the generated
/// models far from tolerance boundaries).
fn coeff(g: &mut Gen) -> f64 {
    g.u64_in(0, 101) as f64 / 10.0 - 5.0
}

fn gen_spec(g: &mut Gen) -> Spec {
    let n = g.usize_in(1, 5);
    let bound_menu: [(f64, f64); 6] = [
        (0.0, 1.0),
        (0.0, 4.0),
        (0.0, f64::INFINITY),
        (-2.0, 3.0),
        (f64::NEG_INFINITY, 2.0),
        (f64::NEG_INFINITY, f64::INFINITY),
    ];
    let bounds: Vec<(f64, f64)> = (0..n).map(|_| *g.pick(&bound_menu)).collect();
    // Witness inside every bound (0.5 grid).
    let witness: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| {
            let lo_c = lo.max(-3.0);
            let hi_c = hi.min(3.0);
            let steps = ((hi_c - lo_c) * 2.0).round() as u64;
            lo_c + g.u64_in(0, steps + 1) as f64 / 2.0
        })
        .collect();

    let n_rows = g.usize_in(0, 7);
    let mut rows = Vec::with_capacity(n_rows + 2);
    for _ in 0..n_rows {
        let coeffs: Vec<f64> = (0..n).map(|_| coeff(g)).collect();
        let at_witness: f64 = coeffs.iter().zip(&witness).map(|(c, x)| c * x).sum();
        let slack = g.u64_in(0, 31) as f64 / 10.0;
        let rel = *g.pick(&[LE, LE, GE, GE, EQ]);
        let rhs = match rel {
            LE => at_witness + slack,
            GE => at_witness - slack,
            _ => at_witness,
        };
        rows.push((coeffs, rel, rhs));
    }

    // Bounded by construction: nonnegative cost toward each variable's
    // finite side; variables with an unbounded improving direction get
    // zero cost unless this is the deliberate unbounded family.
    let objective: Vec<f64> = bounds
        .iter()
        .map(|&(lo, hi)| {
            let c = coeff(g).abs();
            if lo.is_finite() {
                c
            } else if hi.is_finite() {
                -c
            } else {
                0.0
            }
        })
        .collect();

    match g.u64_in(0, 10) {
        // Infeasible family: one functional boxed into an empty interval.
        0 | 1 => {
            let coeffs: Vec<f64> = (0..n).map(|_| coeff(g)).collect();
            if coeffs.iter().any(|&c| c != 0.0) {
                let at_witness: f64 = coeffs.iter().zip(&witness).map(|(c, x)| c * x).sum();
                rows.push((coeffs.clone(), GE, at_witness + 1.0));
                rows.push((coeffs, LE, at_witness - 1.0));
            }
        }
        // Unbounded family: a fresh ray variable with negative cost that no
        // row constrains.
        2 => {
            return Spec {
                bounds: bounds
                    .into_iter()
                    .chain(std::iter::once((0.0, f64::INFINITY)))
                    .collect(),
                rows: rows
                    .into_iter()
                    .map(|(mut c, rel, rhs)| {
                        c.push(0.0);
                        (c, rel, rhs)
                    })
                    .collect(),
                objective: objective.into_iter().chain(std::iter::once(-1.0)).collect(),
            };
        }
        _ => {}
    }

    Spec {
        bounds,
        rows,
        objective,
    }
}

/// Shrinks: drop a row, zero a coefficient, zero an objective entry, relax a
/// bound pair to `[0, ∞)`. Only candidates that still disagree survive (the
/// harness re-checks each).
fn shrink_spec(s: &Spec) -> Vec<Spec> {
    let mut out = Vec::new();
    for i in 0..s.rows.len() {
        let mut t = s.clone();
        t.rows.remove(i);
        out.push(t);
    }
    for (i, row) in s.rows.iter().enumerate() {
        for j in 0..row.0.len() {
            if row.0[j] != 0.0 {
                let mut t = s.clone();
                t.rows[i].0[j] = 0.0;
                out.push(t);
            }
        }
    }
    for j in 0..s.objective.len() {
        if s.objective[j] != 0.0 {
            let mut t = s.clone();
            t.objective[j] = 0.0;
            out.push(t);
        }
    }
    for j in 0..s.bounds.len() {
        if s.bounds[j] != (0.0, f64::INFINITY) {
            let mut t = s.clone();
            t.bounds[j] = (0.0, f64::INFINITY);
            out.push(t);
        }
    }
    out
}

/// Sparse and dense must agree on status, and on the objective when optimal.
fn agree(spec: &Spec) -> Result<(), String> {
    let m = spec.build();
    let sparse = m.solve();
    let dense = m.solve_dense();
    match (&sparse, &dense) {
        (Err(LpError::IterationLimit), _) | (_, Err(LpError::IterationLimit)) => Ok(()),
        (Ok(s), Ok(d)) => {
            let scale = 1.0 + s.objective.abs().max(d.objective.abs());
            if (s.objective - d.objective).abs() / scale < EPS {
                Ok(())
            } else {
                Err(format!(
                    "objective mismatch: sparse {} vs dense {}",
                    s.objective, d.objective
                ))
            }
        }
        (Ok(s), Err(e)) => Err(format!(
            "status mismatch: sparse optimal ({}) vs dense {e}",
            s.objective
        )),
        (Err(e), Ok(d)) => Err(format!(
            "status mismatch: sparse {e} vs dense optimal ({})",
            d.objective
        )),
        (Err(a), Err(b)) => {
            if a == b {
                Ok(())
            } else {
                Err(format!("status mismatch: sparse {a} vs dense {b}"))
            }
        }
    }
}

#[test]
fn sparse_agrees_with_dense_oracle() {
    let cfg = Config {
        cases: 512,
        ..Config::default()
    };
    check(&cfg, gen_spec, shrink_spec, agree);
}

/// Same harness, different seed stream, solely over the feasible family with
/// more rows — stresses presolve (duplicates, singletons) and phase 2.
#[test]
fn sparse_agrees_with_dense_on_row_heavy_models() {
    let cfg = Config {
        cases: 192,
        seed: 0xd1ff,
        ..Config::default()
    };
    check(
        &cfg,
        |g| {
            let mut s = gen_spec(g);
            // Duplicate a couple of rows verbatim — presolve must dedup
            // without changing the optimum.
            for _ in 0..2 {
                if !s.rows.is_empty() {
                    let i = g.usize_in(0, s.rows.len());
                    s.rows.push(s.rows[i].clone());
                }
            }
            s
        },
        shrink_spec,
        agree,
    );
}
