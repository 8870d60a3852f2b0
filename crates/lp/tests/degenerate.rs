//! Regression tests for degenerate and cycling-prone LPs, plus edge-case
//! model shapes. Dantzig pricing alone can cycle forever on these inputs;
//! termination here depends on the solver's Bland's-rule fallback kicking in
//! after the Dantzig budget is spent.

use sherlock_lp::{LinExpr, LpError, Model};

const EPS: f64 = 1e-6;

/// Beale's classic cycling example. With textbook Dantzig pricing and naive
/// tie-breaking the simplex method revisits the same bases forever; a solver
/// with an anti-cycling fallback must terminate at the optimum −0.05
/// (x = (1/25, 0, 1, 0)).
#[test]
fn beale_cycling_lp_terminates_at_optimum() {
    let mut m = Model::new();
    let x1 = m.add_var("x1", 0.0, f64::INFINITY);
    let x2 = m.add_var("x2", 0.0, f64::INFINITY);
    let x3 = m.add_var("x3", 0.0, f64::INFINITY);
    let x4 = m.add_var("x4", 0.0, f64::INFINITY);

    let mut r1 = LinExpr::zero();
    r1.add_term(x1, 0.25);
    r1.add_term(x2, -60.0);
    r1.add_term(x3, -1.0 / 25.0);
    r1.add_term(x4, 9.0);
    m.constrain_le(r1, 0.0);

    let mut r2 = LinExpr::zero();
    r2.add_term(x1, 0.5);
    r2.add_term(x2, -90.0);
    r2.add_term(x3, -1.0 / 50.0);
    r2.add_term(x4, 3.0);
    m.constrain_le(r2, 0.0);

    m.constrain_le(LinExpr::from(x3), 1.0);

    let mut obj = LinExpr::zero();
    obj.add_term(x1, -0.75);
    obj.add_term(x2, 150.0);
    obj.add_term(x3, -0.02);
    obj.add_term(x4, 6.0);
    m.minimize(obj);

    let sol = m.solve().expect("Beale LP must terminate, not cycle");
    assert!(
        (sol.objective - (-0.05)).abs() < EPS,
        "objective {} != -0.05",
        sol.objective
    );
    assert!((sol.value(x3) - 1.0).abs() < EPS, "x3 = {}", sol.value(x3));
}

/// A fully degenerate optimum: several scaled copies of the same binding
/// constraint all pass through the optimal vertex, so most basic variables
/// sit exactly at zero slack and many pivots make no progress. The solver
/// must still terminate and find the optimum.
#[test]
fn fully_degenerate_vertex_terminates() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, f64::INFINITY);
    let y = m.add_var("y", 0.0, f64::INFINITY);
    for k in 1..=5 {
        let mut e = LinExpr::zero();
        e.add_term(x, k as f64);
        e.add_term(y, k as f64);
        m.constrain_le(e, k as f64);
    }
    // Redundant supports through the same vertex region.
    let mut d = LinExpr::zero();
    d.add_term(x, 1.0);
    d.add_term(y, -1.0);
    m.constrain_le(d.clone(), 1.0);
    m.constrain_ge(d, -1.0);

    let mut obj = LinExpr::zero();
    obj.add_term(x, -1.0);
    obj.add_term(y, -1.0);
    m.minimize(obj);

    let sol = m.solve().expect("degenerate LP must terminate");
    assert!(
        (sol.objective - (-1.0)).abs() < EPS,
        "objective {} != -1",
        sol.objective
    );
    let (xv, yv) = (sol.value(x), sol.value(y));
    assert!((xv + yv - 1.0).abs() < EPS, "x+y = {}", xv + yv);
}

/// Degeneracy at the origin: every constraint is tight at x = 0, so phase 2
/// starts on a highly degenerate vertex and must walk off it without
/// cycling.
#[test]
fn degenerate_origin_start() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, f64::INFINITY);
    let y = m.add_var("y", 0.0, f64::INFINITY);
    // The cone x ≤ y ≤ 2x, stated twice at different scales: four rows all
    // tight at the origin.
    let combos: [(f64, f64); 4] = [(1.0, -1.0), (-2.0, 1.0), (2.0, -2.0), (-6.0, 3.0)];
    for (a, b) in combos {
        let mut e = LinExpr::zero();
        e.add_term(x, a);
        e.add_term(y, b);
        m.constrain_le(e, 0.0);
    }
    let mut cap = LinExpr::zero();
    cap.add_term(x, 1.0);
    cap.add_term(y, 1.0);
    m.constrain_le(cap, 3.0);

    let mut obj = LinExpr::zero();
    obj.add_term(x, -1.0);
    obj.add_term(y, -1.0);
    m.minimize(obj);

    let sol = m.solve().expect("must terminate from a degenerate origin");
    // x = y maximises within x ≤ y ≤ 2x and x + y ≤ 3.
    assert!(
        (sol.objective - (-3.0)).abs() < EPS,
        "objective {} != -3",
        sol.objective
    );
}

/// An empty model (no variables, no rows) is trivially optimal at zero.
#[test]
fn empty_model_solves_to_zero() {
    let m = Model::new();
    let sol = m.solve().expect("empty model is optimal");
    assert_eq!(sol.objective, 0.0);
}

/// A model with only a constant objective and no variables.
#[test]
fn constant_objective_only() {
    let mut m = Model::new();
    let mut obj = LinExpr::zero();
    obj.add_constant(2.5);
    m.minimize(obj);
    let sol = m.solve().expect("constant model is optimal");
    assert!((sol.objective - 2.5).abs() < EPS);
}

/// Single bounded variable with no rows: optimum sits at the cheap bound.
#[test]
fn single_var_no_rows() {
    let mut m = Model::new();
    let x = m.add_var("x", 2.0, 5.0);
    m.minimize(LinExpr::from(x));
    let sol = m.solve().expect("bounded single-var LP");
    assert!((sol.value(x) - 2.0).abs() < EPS);

    // Maximisation via a negated objective lands on the upper bound.
    let mut m2 = Model::new();
    let y = m2.add_var("y", 2.0, 5.0);
    let mut obj = LinExpr::zero();
    obj.add_term(y, -1.0);
    m2.minimize(obj);
    let sol2 = m2.solve().expect("bounded single-var LP");
    assert!((sol2.value(y) - 5.0).abs() < EPS);
}

/// Single free variable with a negative cost and nothing blocking it.
#[test]
fn single_var_unbounded() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, f64::INFINITY);
    let mut obj = LinExpr::zero();
    obj.add_term(x, -1.0);
    m.minimize(obj);
    assert_eq!(m.solve().unwrap_err(), LpError::Unbounded);
}

/// Single variable pinned by an equality row inside its bounds.
#[test]
fn single_var_equality_row() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 10.0);
    m.constrain_eq(LinExpr::from(x), 7.0);
    m.minimize(LinExpr::from(x));
    let sol = m.solve().expect("pinned single-var LP");
    assert!((sol.value(x) - 7.0).abs() < EPS);
}

/// Single variable whose equality row conflicts with its bounds.
#[test]
fn single_var_infeasible_equality() {
    let mut m = Model::new();
    let x = m.add_var("x", 0.0, 1.0);
    m.constrain_eq(LinExpr::from(x), 2.0);
    m.minimize(LinExpr::from(x));
    assert_eq!(m.solve().unwrap_err(), LpError::Infeasible);
}

/// The dense oracle agrees on every deterministic case in this file — the
/// cycling and degenerate instances are exactly where the two
/// implementations are most likely to diverge.
#[test]
fn oracle_agrees_on_degenerate_cases() {
    let cases: Vec<Model> = {
        let mut v = Vec::new();
        // Beale.
        let mut m = Model::new();
        let x1 = m.add_var("x1", 0.0, f64::INFINITY);
        let x2 = m.add_var("x2", 0.0, f64::INFINITY);
        let x3 = m.add_var("x3", 0.0, f64::INFINITY);
        let x4 = m.add_var("x4", 0.0, f64::INFINITY);
        let mut r1 = LinExpr::zero();
        r1.add_term(x1, 0.25);
        r1.add_term(x2, -60.0);
        r1.add_term(x3, -1.0 / 25.0);
        r1.add_term(x4, 9.0);
        m.constrain_le(r1, 0.0);
        let mut r2 = LinExpr::zero();
        r2.add_term(x1, 0.5);
        r2.add_term(x2, -90.0);
        r2.add_term(x3, -1.0 / 50.0);
        r2.add_term(x4, 3.0);
        m.constrain_le(r2, 0.0);
        m.constrain_le(LinExpr::from(x3), 1.0);
        let mut obj = LinExpr::zero();
        obj.add_term(x1, -0.75);
        obj.add_term(x2, 150.0);
        obj.add_term(x3, -0.02);
        obj.add_term(x4, 6.0);
        m.minimize(obj);
        v.push(m);

        // Degenerate stack of scaled rows.
        let mut m = Model::new();
        let x = m.add_var("x", 0.0, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        for k in 1..=5 {
            let mut e = LinExpr::zero();
            e.add_term(x, k as f64);
            e.add_term(y, k as f64);
            m.constrain_le(e, k as f64);
        }
        let mut obj = LinExpr::zero();
        obj.add_term(x, -1.0);
        obj.add_term(y, -1.0);
        m.minimize(obj);
        v.push(m);

        // Free column: a cold start parks it at zero, and the optimum
        // (x, y) = (-1, 2) needs it basic and negative. The scaled copy
        // of the first row makes the optimal vertex degenerate.
        let mut m = Model::new();
        let x = m.add_var("x", f64::NEG_INFINITY, f64::INFINITY);
        let y = m.add_var("y", 0.0, f64::INFINITY);
        m.constrain_ge(LinExpr::from(x) + LinExpr::from(y), 1.0);
        m.constrain_ge(LinExpr::from(x) * 2.0 + LinExpr::from(y) * 2.0, 2.0);
        m.constrain_ge(LinExpr::from(x) - LinExpr::from(y), -3.0);
        m.constrain_le(LinExpr::from(y), 4.0);
        m.minimize(LinExpr::from(x));
        v.push(m);

        // Upper-bounded-only column: a cold start rests it at its upper
        // bound 5, which violates both rows, so phase 1 has to pull it down
        // to the optimum (z, w) = (2, 1).
        let mut m = Model::new();
        let z = m.add_var("z", f64::NEG_INFINITY, 5.0);
        let w = m.add_var("w", 0.0, f64::INFINITY);
        m.constrain_le(LinExpr::from(z) + LinExpr::from(w), 3.0);
        m.constrain_le(LinExpr::from(z) - LinExpr::from(w), 1.0);
        m.minimize(-LinExpr::from(z));
        v.push(m);
        v
    };
    for (i, m) in cases.iter().enumerate() {
        let sparse = m.solve().expect("sparse solve");
        let dense = m.solve_dense().expect("dense solve");
        assert!(
            (sparse.objective - dense.objective).abs() < EPS,
            "case {i}: sparse {} vs dense {}",
            sparse.objective,
            dense.objective
        );
    }
}
