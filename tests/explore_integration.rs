//! Acceptance tests for the schedule-exploration harness: PCT must buy real
//! schedule coverage over a single random-walk run, and exploration must be
//! deterministic — the same campaign yields the same distinct-schedule set
//! regardless of how many worker threads fan it out.
//!
//! `explore-App-1-pct.txt` under `tests/golden/` pins the per-test distinct
//! schedules of the canary exploration. Regenerate it only after an
//! *intentional* exploration change, with
//!
//! ```text
//! SHERLOCK_BLESS=1 cargo test -q --test explore_integration
//! ```

use std::collections::BTreeSet;
use std::fmt::Write;
use std::fs;
use std::path::Path;

use sherlock_apps::{all_apps, App};
use sherlock_core::TestCase;
use sherlock_racer::detect;
use sherlock_sim::{Campaign, CampaignConfig, RunReport, StrategyKind};

const CANARY: &str = "App-1";
const PCT_RUNS: u64 = 24;

fn canary() -> App {
    all_apps()
        .into_iter()
        .find(|a| a.id == CANARY)
        .expect("canary app exists")
}

/// Explores unit test `t` of a suite with a one-arm `strategy` campaign and
/// returns the first report of every distinct schedule, in first-seen order.
/// Same per-test seed-block layout as `sherlock explore`.
fn explore_test(
    t: usize,
    test: &TestCase,
    strategy: StrategyKind,
    runs: u64,
    jobs: usize,
) -> Vec<RunReport> {
    let cfg = CampaignConfig {
        max_schedules: runs,
        base_seed: (t as u64) << 32,
        jobs,
        arms: vec![strategy],
        report_cap: usize::MAX,
        ..CampaignConfig::default()
    };
    Campaign::new(cfg).run(test.body()).reports
}

/// Whether FastTrack (under the ground-truth spec) reports a seeded race in
/// `report`'s trace.
fn has_seeded_race(app: &App, report: &RunReport) -> bool {
    detect(&report.trace, &app.truth.full_spec())
        .iter()
        .any(|r| app.truth.is_true_race(&r.location))
}

/// Runs one exploration campaign per unit test and returns the stable
/// hashes of every distinct schedule in which FastTrack (under the
/// ground-truth spec) reports a seeded race.
fn racy_schedule_hashes(
    app: &App,
    strategy: StrategyKind,
    runs: u64,
    jobs: usize,
) -> BTreeSet<u64> {
    let mut racy = BTreeSet::new();
    for (t, test) in app.tests.iter().enumerate() {
        for report in explore_test(t, test, strategy, runs, jobs) {
            if has_seeded_race(app, &report) {
                racy.insert(report.trace.stable_hash());
            }
        }
    }
    racy
}

/// The headline acceptance property: PCT at depth 3 deterministically finds
/// at least two distinct racy schedules on the canary app that a single
/// random-walk run at seed 0 (the old one-seed workflow) does not see.
#[test]
fn pct_finds_racy_schedules_single_random_walk_misses() {
    let app = canary();
    let baseline = racy_schedule_hashes(&app, StrategyKind::RandomWalk, 1, 1);
    let pct = racy_schedule_hashes(&app, StrategyKind::Pct { depth: 3 }, PCT_RUNS, 0);
    let novel: BTreeSet<u64> = pct.difference(&baseline).copied().collect();
    assert!(
        novel.len() >= 2,
        "PCT found {} racy schedule(s) beyond the seed-0 random walk \
         (pct: {} racy, baseline: {} racy) — expected at least 2",
        novel.len(),
        pct.len(),
        baseline.len()
    );
}

/// The racy-schedule set a campaign discovers is a pure function of its
/// configuration: repeating the campaign — and changing only the worker
/// fan-out — reproduces the exact same hash set.
#[test]
fn exploration_is_deterministic_across_invocations_and_jobs() {
    let app = canary();
    let strategy = StrategyKind::Pct { depth: 3 };
    let first = racy_schedule_hashes(&app, strategy, PCT_RUNS, 1);
    let second = racy_schedule_hashes(&app, strategy, PCT_RUNS, 1);
    assert_eq!(first, second, "same campaign, different racy sets");
    let wide = racy_schedule_hashes(&app, strategy, PCT_RUNS, 4);
    assert_eq!(first, wide, "worker count changed the racy set");
}

/// Every strategy contributes: on the canary app each of the three
/// strategies discovers more than one distinct schedule across the suite,
/// i.e. none of them degenerates into replaying a single interleaving.
#[test]
fn every_strategy_expands_schedule_coverage() {
    let app = canary();
    for strategy in [
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 3 },
        StrategyKind::RoundRobin { quantum: 4 },
    ] {
        let mut distinct = BTreeSet::new();
        for (t, test) in app.tests.iter().enumerate() {
            let reports = explore_test(t, test, strategy, 8, 0);
            distinct.extend(reports.iter().map(|r| r.trace.stable_hash()));
        }
        assert!(
            distinct.len() > 1,
            "strategy {} collapsed to {} distinct schedule(s)",
            strategy.name(),
            distinct.len()
        );
    }
}

/// The canary's PCT exploration is byte-stable across engine changes: per
/// unit test, the distinct schedule hashes in first-seen order (each marked
/// when it carries a seeded race) match the committed golden file.
/// `SHERLOCK_BLESS=1` rewrites the file instead.
#[test]
fn canary_pct_exploration_matches_golden_file() {
    let app = canary();
    let mut content = String::new();
    for (t, test) in app.tests.iter().enumerate() {
        let _ = writeln!(content, "{}", test.name());
        for report in explore_test(t, test, StrategyKind::Pct { depth: 3 }, PCT_RUNS, 2) {
            let racy = if has_seeded_race(&app, &report) {
                " racy"
            } else {
                ""
            };
            let _ = writeln!(content, "  {:016x}{racy}", report.trace.stable_hash());
        }
    }
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/explore-App-1-pct.txt");
    if std::env::var("SHERLOCK_BLESS").is_ok_and(|v| v == "1") {
        fs::write(&path, &content).unwrap_or_else(|e| panic!("bless {}: {e}", path.display()));
        return;
    }
    let golden = fs::read_to_string(&path).unwrap_or_else(|e| {
        panic!(
            "no golden file at {} ({e}); run `SHERLOCK_BLESS=1 cargo test -q \
             --test explore_integration` and commit the result",
            path.display()
        )
    });
    assert_eq!(
        golden,
        content,
        "canary exploration drifted from {} — if intentional, re-bless with \
         SHERLOCK_BLESS=1",
        path.display()
    );
}
