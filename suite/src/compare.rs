//! `suite compare`: judges a change against its parent from runs made in
//! alternating pairs with identical settings.
//!
//! ```text
//! suite compare [--spec BENCHMARK.json] --parent P1.txt ... --change C1.txt ...
//! ```
//!
//! Each file holds one run's standard output. Runs pair up in the order
//! given, per workload; at least ten pairs per workload are required. For
//! every workload × end-to-end metric:
//!
//! * **gain** — the change wins at least nine tenths of the pairs (ties
//!   count for neither side) and the medians differ by more than the
//!   parent's interquartile range;
//! * **regression** — the change's median is worse than the parent's by
//!   more than the metric's bound;
//! * **unresolved** — either side's spread (IQR ÷ median) exceeds the
//!   bound, unless every change run beats every parent run;
//! * **unchanged** — otherwise.
//!
//! Exits nonzero on a regression or an incorrect run.

use std::collections::BTreeMap;

use sherlock_obs::json::Json;

use crate::stats::quartiles;

/// Fewest alternating pairs a verdict rests on.
pub const MIN_PAIRS: usize = 10;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    Gain,
    Regression,
    Unresolved,
    Unchanged,
}

/// One workload × metric comparison.
#[derive(Debug)]
pub struct Judgement {
    /// Parent's first quartile, median and third quartile.
    pub parent: [f64; 3],
    pub change: [f64; 3],
    pub wins: usize,
    pub pairs: usize,
    pub verdict: Verdict,
}

/// Compares paired runs of one metric; `bound` is the share of the
/// parent's median by which the change may be worse.
pub fn judge(parent: &[f64], change: &[f64], lower_is_better: bool, bound: f64) -> Judgement {
    let pairs = parent.len().min(change.len());
    let (parent, change) = (&parent[..pairs], &change[..pairs]);
    let better = |a: f64, b: f64| if lower_is_better { a < b } else { a > b };
    let p = quartiles(parent);
    let c = quartiles(change);
    let wins = change
        .iter()
        .zip(parent)
        .filter(|(c, p)| better(**c, **p))
        .count();
    let worse_by = if lower_is_better {
        (c[1] - p[1]) / p[1]
    } else {
        (p[1] - c[1]) / p[1]
    };
    let spread = ((p[2] - p[0]) / p[1]).max((c[2] - c[0]) / c[1]);
    let all_better = change
        .iter()
        .all(|&cv| parent.iter().all(|&pv| better(cv, pv)));
    let verdict =
        if wins * 10 >= pairs * 9 && better(c[1], p[1]) && (c[1] - p[1]).abs() > p[2] - p[0] {
            Verdict::Gain
        } else if worse_by > bound {
            Verdict::Regression
        } else if spread > bound && !all_better {
            Verdict::Unresolved
        } else {
            Verdict::Unchanged
        };
    Judgement {
        parent: p,
        change: c,
        wins,
        pairs,
        verdict,
    }
}

/// One run, read back from its standard output.
struct Run {
    workload: String,
    correct: bool,
    metrics: BTreeMap<String, f64>,
}

fn parse_run(path: &str) -> Result<Run, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let workload = text
        .lines()
        .find_map(|l| l.strip_prefix("workload "))
        .and_then(|rest| rest.split_whitespace().next())
        .ok_or_else(|| format!("{path}: no `workload` header line"))?
        .to_string();
    let last = text
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .ok_or_else(|| format!("{path}: empty"))?;
    let doc = Json::parse(last).map_err(|e| format!("{path}: result line: {e}"))?;
    let metrics = doc
        .get("metrics")
        .and_then(Json::as_object)
        .ok_or_else(|| format!("{path}: result line has no metrics"))?
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.get("value")?.as_f64()?)))
        .collect();
    Ok(Run {
        workload,
        correct: doc.get("correct") == Some(&Json::Bool(true)),
        metrics,
    })
}

/// `(name, lower_is_better, bound)` of each end-to-end metric.
fn load_spec(path: &str) -> Result<Vec<(String, bool, f64)>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let doc = Json::parse(&text).map_err(|e| format!("{path}: {e}"))?;
    doc.get("end_to_end")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{path}: no end_to_end list"))?
        .iter()
        .map(|m| {
            let name = m.get("name").and_then(Json::as_str);
            let better = m.get("better").and_then(Json::as_str);
            let bound = m.get("bound").and_then(Json::as_f64);
            match (name, better, bound) {
                (Some(n), Some(b), Some(x)) => Ok((n.to_string(), b == "lower", x)),
                _ => Err(format!("{path}: malformed end_to_end entry")),
            }
        })
        .collect()
}

pub fn main(args: &[String]) -> Result<bool, String> {
    let mut spec_path = "BENCHMARK.json".to_string();
    let (mut parent, mut change) = (Vec::new(), Vec::new());
    let mut side: Option<&mut Vec<String>> = None;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--spec" => spec_path = it.next().ok_or("--spec expects a path")?.clone(),
            "--parent" => side = Some(&mut parent),
            "--change" => side = Some(&mut change),
            path => side
                .as_mut()
                .ok_or_else(|| format!("{path:?}: name --parent or --change first"))?
                .push(path.to_string()),
        }
    }
    let spec = load_spec(&spec_path)?;
    let mut runs: BTreeMap<String, (Vec<Run>, Vec<Run>)> = BTreeMap::new();
    for (files, is_parent) in [(&parent, true), (&change, false)] {
        for path in files {
            let run = parse_run(path)?;
            let entry = runs.entry(run.workload.clone()).or_default();
            if is_parent {
                &mut entry.0
            } else {
                &mut entry.1
            }
            .push(run);
        }
    }

    let mut ok = true;
    println!(
        "{:<18} {:<18} {:>32} {:>32} {:>8} {:>6}  verdict",
        "workload", "metric", "parent median [q1, q3]", "change median [q1, q3]", "diff", "wins"
    );
    for (workload, (p_runs, c_runs)) in &runs {
        let pairs = p_runs.len().min(c_runs.len());
        if pairs < MIN_PAIRS {
            return Err(format!(
                "{workload}: {pairs} pairs; at least {MIN_PAIRS} are needed"
            ));
        }
        if p_runs.iter().chain(c_runs).any(|r| !r.correct) {
            eprintln!("{workload}: at least one run was not correct");
            ok = false;
        }
        for (name, lower, bound) in &spec {
            let values = |rs: &[Run]| -> Result<Vec<f64>, String> {
                rs.iter()
                    .map(|r| {
                        r.metrics
                            .get(name)
                            .copied()
                            .ok_or_else(|| format!("{workload}: a run lacks {name}"))
                    })
                    .collect()
            };
            let j = judge(&values(p_runs)?, &values(c_runs)?, *lower, *bound);
            ok &= j.verdict != Verdict::Regression;
            let fmt = |q: [f64; 3]| format!("{:.4} [{:.4}, {:.4}]", q[1], q[0], q[2]);
            println!(
                "{workload:<18} {name:<18} {:>32} {:>32} {:>+7.2}% {:>3}/{:<2}  {:?}",
                fmt(j.parent),
                fmt(j.change),
                100.0 * (j.change[1] - j.parent[1]) / j.parent[1],
                j.wins,
                j.pairs,
                j.verdict
            );
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, jitter: &[f64]) -> Vec<f64> {
        jitter.iter().map(|j| center + j).collect()
    }

    const JITTER: [f64; 10] = [-1.0, 0.5, -0.5, 1.0, 0.0, 0.25, -0.25, 0.75, -0.75, 0.1];

    #[test]
    fn clear_gain_wins_every_pair_beyond_the_parent_iqr() {
        let j = judge(&around(100.0, &JITTER), &around(80.0, &JITTER), true, 0.1);
        assert_eq!((j.wins, j.pairs), (10, 10));
        assert_eq!(j.verdict, Verdict::Gain);
        // The same numbers read as a regression where higher is better.
        let j = judge(&around(100.0, &JITTER), &around(80.0, &JITTER), false, 0.1);
        assert_eq!(j.verdict, Verdict::Regression);
    }

    #[test]
    fn eight_wins_in_ten_is_not_a_gain() {
        let parent = around(100.0, &JITTER);
        let mut change = around(95.0, &JITTER);
        change[0] = parent[0] + 1.0;
        change[1] = parent[1] + 1.0;
        let j = judge(&parent, &change, true, 0.1);
        assert_eq!(j.wins, 8);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn nine_wins_within_the_parent_iqr_is_not_a_gain() {
        // Parent IQR is ~20; the change is 5 lower in every pair.
        let parent: Vec<f64> = (0..10).map(|i| 80.0 + 4.0 * i as f64).collect();
        let change: Vec<f64> = parent.iter().map(|p| p - 5.0).collect();
        let j = judge(&parent, &change, true, 0.5);
        assert_eq!(j.wins, 10);
        assert!((j.parent[2] - j.parent[0]) > 5.0);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn worse_by_more_than_the_bound_is_a_regression() {
        let j = judge(&around(100.0, &JITTER), &around(111.0, &JITTER), true, 0.1);
        assert_eq!(j.verdict, Verdict::Regression);
        let j = judge(&around(100.0, &JITTER), &around(109.0, &JITTER), true, 0.1);
        assert_eq!(j.verdict, Verdict::Unchanged);
    }

    #[test]
    fn spread_beyond_the_bound_is_unresolved() {
        let wide = [-30.0, 25.0, -20.0, 30.0, 0.0, 15.0, -15.0, 20.0, -25.0, 5.0];
        let j = judge(&around(100.0, &wide), &around(101.0, &wide), true, 0.1);
        assert_eq!(j.verdict, Verdict::Unresolved);
        // Unless every change run beats every parent run.
        let j = judge(&around(100.0, &wide), &around(10.0, &JITTER), true, 0.1);
        assert_eq!(j.verdict, Verdict::Gain);
    }
}
