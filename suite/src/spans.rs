//! The benchmark's own spans: wall time around each public call it makes
//! into the program, kept in memory and summed per name. Layers no public
//! call reaches (the simplex inside a solve, the simulator's kernel) are
//! read from the series the program already exports, as [`Series`].

use std::collections::BTreeMap;
use std::time::Instant;

use sherlock_obs::Snapshot;

use crate::report::Report;
use crate::stats::ratio;

/// The program's own metric registry, as the change over an interval.
pub struct Series(Snapshot);

impl Series {
    /// Everything recorded in this process since `base`.
    pub fn since(base: &Snapshot) -> Series {
        Series(sherlock_obs::snapshot().delta(base))
    }

    /// A counter's increase.
    pub fn counter(&self, name: &str) -> f64 {
        self.0.counters.get(name).copied().unwrap_or(0) as f64
    }

    /// Milliseconds spent in spans named `name`.
    pub fn span_ms(&self, name: &str) -> f64 {
        self.0
            .spans
            .get(name)
            .map_or(0.0, |s| s.total_ns as f64 / 1e6)
    }

    /// Spans named `name` that completed.
    pub fn span_count(&self, name: &str) -> f64 {
        self.0.spans.get(name).map_or(0.0, |s| s.count as f64)
    }

    /// Mean of a histogram's observations; 0 when none.
    pub fn hist_mean(&self, name: &str) -> f64 {
        self.0.histograms.get(name).map_or(0.0, |h| h.mean())
    }
}

/// The `trace`, `core` and `lp` metrics a solve-heavy workload shares,
/// from the program's series over `absorbs` absorb calls and `solve_calls`
/// solve calls. A solve that misses the memo runs inside the program's
/// `phase.solve` span, so per-solve figures divide by its count.
pub fn solver_layers(report: &mut Report, series: &Series, absorbs: f64, solve_calls: f64) {
    let solves = series.span_count("phase.solve");
    let solve_ms = ratio(series.span_ms("phase.solve"), solves);
    let simplex_ms = ratio(series.span_ms("lp.simplex"), solves);
    for (name, v) in [
        (
            "trace.windows_per_trace",
            ratio(series.counter("windows.extracted"), absorbs),
        ),
        (
            "core.window_memo_hit_ratio",
            ratio(series.counter("session.window_memo.hits"), absorbs),
        ),
        (
            "core.solve_memo_hit_ratio",
            ratio(series.counter("session.solve_memo.hits"), solve_calls),
        ),
        ("core.solve_ms", solve_ms),
        ("core.lp_vars", series.hist_mean("lp.variables")),
        ("core.lp_windows", series.hist_mean("lp.windows")),
        ("lp.simplex_ms", simplex_ms),
        ("lp.solver_self_ms", solve_ms - simplex_ms),
        (
            "lp.pivots_per_solve",
            ratio(series.counter("simplex.pivots"), solves),
        ),
        (
            "lp.warm_hit_ratio",
            ratio(
                series.counter("lp.warm_hits"),
                series.counter("simplex.solves"),
            ),
        ),
        (
            "lp.refactorizations_per_solve",
            ratio(series.counter("lp.refactorizations"), solves),
        ),
    ] {
        report.set(name, v);
    }
}

/// Per-name span totals; a disabled recorder only runs the calls.
#[derive(Debug, Default)]
pub struct Spans {
    on: bool,
    totals: BTreeMap<&'static str, (u64, f64)>,
}

impl Spans {
    /// A recorder that records when `on`.
    pub fn new(on: bool) -> Self {
        Spans {
            on,
            totals: BTreeMap::new(),
        }
    }

    /// Runs `f` inside a span named `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        if !self.on {
            return f();
        }
        let start = Instant::now();
        let r = f();
        self.add(name, start.elapsed().as_secs_f64() * 1e3);
        r
    }

    /// Adds one span of `ms` milliseconds measured by the caller.
    pub fn add(&mut self, name: &'static str, ms: f64) {
        let e = self.totals.entry(name).or_default();
        e.0 += 1;
        e.1 += ms;
    }

    /// Spans recorded under `name`.
    pub fn count(&self, name: &str) -> u64 {
        self.totals.get(name).map_or(0, |e| e.0)
    }

    /// Summed milliseconds under `name`.
    pub fn total_ms(&self, name: &str) -> f64 {
        self.totals.get(name).map_or(0.0, |e| e.1)
    }

    /// Mean milliseconds per span under `name`; 0 when none.
    pub fn mean_ms(&self, name: &str) -> f64 {
        ratio(self.total_ms(name), self.count(name) as f64)
    }
}
