//! The metric catalogue and one run's result.
//!
//! Every workload reports every metric below: end-to-end metrics in an
//! untraced run, per-layer metrics in a traced one. A per-layer metric of a
//! layer the workload never reaches reads 0. `BENCHMARK.json` lists the same
//! names with their direction and regression bound; a unit test keeps the
//! two in step.

use std::collections::BTreeMap;

use sherlock_obs::json::Json;

use crate::stats;

/// End-to-end metrics: `(name, unit)`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("throughput_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
    ("cold_p50_ms", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics of a traced run: `(name, unit)`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.run_ms", "ms"),
    ("sim.runs", "count"),
    ("sim.batch_ms", "ms"),
    ("sim.steps_per_run", "count"),
    ("sim.switches_per_run", "count"),
    ("sim.distinct_ratio", "ratio"),
    ("sim.filter_fp_est", "ratio"),
    ("trace.parse_ms_per_kb", "ms"),
    ("trace.windows_per_trace", "count"),
    ("core.absorb_ms", "ms"),
    ("core.solve_ms", "ms"),
    ("core.perturb_ms", "ms"),
    ("core.window_memo_hit_ratio", "ratio"),
    ("core.solve_memo_hit_ratio", "ratio"),
    ("core.lp_vars", "count"),
    ("core.lp_windows", "count"),
    ("lp.simplex_ms", "ms"),
    ("lp.solver_self_ms", "ms"),
    ("lp.pivots_per_solve", "count"),
    ("lp.warm_hit_ratio", "ratio"),
    ("lp.refactorizations_per_solve", "count"),
    ("store.rehydrate_ms", "ms"),
    ("store.replayed_per_rehydrate", "count"),
    ("store.oplog_append_ms", "ms"),
    ("store.oplog_bytes_per_record", "bytes"),
    ("store.persist_ms_per_session", "ms"),
    ("store.miss_ratio", "ratio"),
    ("store.evictions", "count"),
    ("store.snapshots", "count"),
    ("serve.server_p50_ms", "ms"),
    ("serve.server_p99_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.wait_ms", "ms"),
    ("serve.batch_mean", "count"),
    ("serve.busy_ratio", "ratio"),
    ("racer.check_ms", "ms"),
    ("gen.late_p99_ms", "ms"),
    ("attributed_pct", "%"),
    ("trace_overhead_pct", "%"),
];

/// The outcome of one workload run.
#[derive(Debug, Default)]
pub struct Report {
    /// Operations attempted (apps, schedules or requests, plus checks).
    pub attempted: u64,
    /// Operations that failed, were refused or timed out, plus failed checks.
    pub failed: u64,
    /// One line per failure, printed to stderr.
    pub failures: Vec<String>,
    /// Set when the run measured the load generator instead of the system.
    pub invalid: Option<String>,
    /// Sample counts, digests and per-phase tallies, printed before the
    /// result line.
    pub notes: Vec<String>,
    values: BTreeMap<&'static str, f64>,
}

impl Report {
    /// Records one metric value.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.values.insert(name, value);
    }

    /// Sets `latency_p50_ms` and `latency_p90_ms` from ascending samples of
    /// `what` and notes the sample count. A tail with fewer than
    /// [`stats::MIN_BEYOND`] samples beyond it is not measured: the run
    /// fails instead.
    pub fn set_latency(&mut self, what: &str, sorted: &[f64]) {
        let p90 = stats::tail(sorted, 0.9).unwrap_or_else(|| {
            self.fail(format!("{} {what}: too few for p90", sorted.len()));
            f64::NAN
        });
        self.set("latency_p50_ms", stats::percentile(sorted, 0.5));
        self.set("latency_p90_ms", p90);
        self.note(format!(
            "{what}: {} latency samples, {} beyond p90",
            sorted.len(),
            stats::beyond(sorted.len(), 0.9)
        ));
    }

    /// Sets `cold_p50_ms` from ascending samples of `what`.
    pub fn set_cold(&mut self, what: &str, sorted: &[f64]) {
        let p50 = stats::tail(sorted, 0.5).unwrap_or_else(|| {
            self.fail(format!("{} {what}: too few for a median", sorted.len()));
            f64::NAN
        });
        self.set("cold_p50_ms", p50);
        self.note(format!("{what}: {} cold samples", sorted.len()));
    }

    /// Sets every per-layer metric the workload did not reach to 0.
    pub fn zero_unreached(&mut self) {
        for (name, _) in PER_LAYER {
            self.values.entry(name).or_insert(0.0);
        }
    }

    /// Records a failed check.
    pub fn fail(&mut self, what: impl Into<String>) {
        self.failed += 1;
        self.failures.push(what.into());
    }

    /// Records one passed-or-failed check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.fail(what());
        }
    }

    /// Adds a note line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// Whether every operation and check succeeded.
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The catalogue `traced` selects, with this run's value for each name.
    ///
    /// # Panics
    ///
    /// Panics when the workload left a catalogue metric unset — a bug in
    /// the workload, never an input condition.
    pub fn metrics(&self, traced: bool) -> Vec<(&'static str, &'static str, f64)> {
        let catalogue = if traced { PER_LAYER } else { END_TO_END };
        catalogue
            .iter()
            .map(|&(name, unit)| {
                let v = *self
                    .values
                    .get(name)
                    .unwrap_or_else(|| panic!("workload did not set metric {name}"));
                (name, unit, v)
            })
            .collect()
    }

    /// The result line: exactly `correct`, `attempted`, `failed` and
    /// `metrics`.
    pub fn result_json(&self, traced: bool) -> String {
        let metrics: Vec<(String, Json)> = self
            .metrics(traced)
            .into_iter()
            .map(|(name, unit, v)| {
                (
                    name.to_string(),
                    Json::Obj(vec![
                        ("value".to_string(), Json::Num(v)),
                        ("unit".to_string(), Json::from(unit)),
                    ]),
                )
            })
            .collect();
        Json::Obj(vec![
            ("correct".to_string(), Json::Bool(self.correct())),
            ("attempted".to_string(), Json::from(self.attempted)),
            ("failed".to_string(), Json::from(self.failed)),
            ("metrics".to_string(), Json::Obj(metrics)),
        ])
        .render()
    }
}

/// Peak resident set size (`VmHWM`) of process `pid` (`"self"` for this
/// one), in MiB; 0 where `/proc` is unavailable.
pub fn peak_rss_mb(pid: &str) -> f64 {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|kb| kb.parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The catalogue here and the one in `BENCHMARK.json` name the same
    /// metrics with the same units, in the same order.
    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, catalogue) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let listed: Vec<(String, String)> = doc
                .get(key)
                .and_then(Json::as_array)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).expect(f).to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = catalogue
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(listed, ours, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_four_keys() {
        let mut r = Report {
            attempted: 3,
            ..Report::default()
        };
        for (name, _) in END_TO_END {
            r.set(name, 1.25);
        }
        let doc = Json::parse(&r.result_json(false)).unwrap();
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct"), Some(&Json::Bool(true)));
        let m = doc.get("metrics").unwrap().get("setup_s").unwrap();
        assert_eq!(m.get("value").and_then(Json::as_f64), Some(1.25));
        assert_eq!(m.get("unit").and_then(Json::as_str), Some("s"));
    }
}
