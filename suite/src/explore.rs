//! `explore-campaign`: closed loop of novelty-guided schedule campaigns
//! (`sim::Campaign`, default arms, two workers), one after another, over
//! App-1 (spawn-heavy) and App-7 (dedup-heavy). No solver runs here, so a
//! solver change should read "no change" on this workload.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sherlock_apps::{app_by_id, App};
use sherlock_sim::{Campaign, CampaignConfig};

use crate::report::{peak_rss_mb, Report};
use crate::spans::{Series, Spans};
use crate::stats::{self, median, ratio};
use crate::streams::mix;

/// Campaign worker threads.
pub const JOBS: usize = 2;
/// Schedules per campaign.
pub const SCHEDULES: u64 = 2048;
/// Schedules per bandit batch (the campaign default).
pub const BATCH: u64 = 64;
/// Campaign order, repeated. App-7 batches are the majority so the median
/// batch time sits inside App-7's mode and the tail inside App-1's, never
/// on the boundary between them.
pub const PATTERN: [&str; 4] = ["App-1", "App-7", "App-7", "App-7"];
/// Schedules per warm-up campaign during set-up.
const WARMUP_SCHEDULES: u64 = 256;

type Workload = Arc<dyn Fn() + Send + Sync>;

/// One schedule runs the app's whole test suite back to back — the shape
/// the `explore` verb runs server-side.
fn suite_workload(app: &App) -> Workload {
    let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
    Arc::new(move || {
        for body in &bodies {
            body();
        }
    })
}

fn config(max_schedules: u64, base_seed: u64, jobs: usize) -> CampaignConfig {
    CampaignConfig {
        max_schedules,
        base_seed,
        jobs,
        batch: BATCH,
        report_cap: 0,
        ..CampaignConfig::default()
    }
}

fn setup(seed: u64) -> Vec<Workload> {
    PATTERN
        .iter()
        .map(|id| {
            let app = app_by_id(id).expect("bundled app");
            let w = suite_workload(&app);
            Campaign::new(config(WARMUP_SCHEDULES, mix(seed, 7), JOBS)).run(Arc::clone(&w));
            w
        })
        .collect()
}

#[derive(Default)]
struct Window {
    batch_ms: Vec<f64>,
    first_batch_ms: Vec<f64>,
    by_app: BTreeMap<&'static str, Vec<f64>>,
    runs: u64,
    distinct: u64,
    fp_est: Vec<f64>,
    digests: Vec<u64>,
    elapsed: Duration,
}

fn campaign_seed(seed: u64, c: usize) -> u64 {
    mix(seed, 0xca00 + c as u64)
}

/// Runs whole campaigns until the window closes.
fn drive_window(
    seed: u64,
    workloads: &[Workload],
    window: Duration,
    spans: &mut Spans,
    report: &mut Report,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut c = 0;
    while start.elapsed() < window {
        let workload = Arc::clone(&workloads[c % workloads.len()]);
        let campaign = Campaign::new(config(SCHEDULES, campaign_seed(seed, c), JOBS));
        let mut last = Instant::now();
        let mut batches = Vec::new();
        let result = spans.time("sim.campaign", || {
            campaign.run_with_progress(workload, |_| {
                batches.push(last.elapsed().as_secs_f64() * 1e3);
                last = Instant::now();
            })
        });
        report.attempted += result.runs;
        report.check(result.runs == SCHEDULES, || {
            format!("campaign {c} ran {} of {SCHEDULES} schedules", result.runs)
        });
        w.first_batch_ms.extend(batches.first().copied());
        w.by_app
            .entry(PATTERN[c % PATTERN.len()])
            .or_default()
            .extend(&batches);
        w.batch_ms.extend(batches);
        w.runs += result.runs;
        w.distinct += result.distinct;
        w.fp_est.push(result.est_fp_rate);
        w.digests.push(result.distinct_digest);
        c += 1;
    }
    w.elapsed = start.elapsed();
    w
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut workloads = Vec::new();
    for _ in 0..crate::SETUPS {
        let start = Instant::now();
        workloads = setup(seed);
        setups.push(start.elapsed().as_secs_f64());
    }
    let window = Duration::from_secs(seconds);
    let w = drive_window(
        seed,
        &workloads,
        window,
        &mut Spans::new(false),
        &mut report,
    );

    // Replay is worker-count independent: the first campaign of each app
    // finds the same distinct sequence on one worker.
    for (c, id) in PATTERN.iter().enumerate().take(2) {
        if let Some(&digest) = w.digests.get(c) {
            let single = Campaign::new(config(SCHEDULES, campaign_seed(seed, c), 1))
                .run(Arc::clone(&workloads[c]));
            report.check(single.distinct_digest == digest, || {
                format!(
                    "{id}: distinct digest {:016x} at jobs=1 vs {digest:016x} at jobs={JOBS}",
                    single.distinct_digest
                )
            });
        }
    }

    let mut batches = w.batch_ms.clone();
    stats::sort(&mut batches);
    let mut first = w.first_batch_ms.clone();
    stats::sort(&mut first);
    report.set(
        "throughput_per_s",
        w.distinct as f64 / w.elapsed.as_secs_f64(),
    );
    report.set_latency("batches", &batches);
    report.set_cold("first batches", &first);
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss_mb("self"));
    report.note(format!(
        "campaigns {}, schedules {} ({:.1}/s), distinct {}, window {:.2} s",
        w.digests.len(),
        w.runs,
        w.runs as f64 / w.elapsed.as_secs_f64(),
        w.distinct,
        w.elapsed.as_secs_f64()
    ));
    report.note(format!(
        "median batch ms by app: {}",
        w.by_app
            .iter()
            .map(|(id, ms)| format!("{id} {:.3}", median(ms)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    report.note(format!(
        "distinct digests of the first campaigns: {}",
        w.digests
            .iter()
            .take(PATTERN.len())
            .map(|d| format!("{d:016x}"))
            .collect::<Vec<_>>()
            .join(" ")
    ));

    if traced {
        let mut spans = Spans::new(true);
        let base = sherlock_obs::snapshot();
        let t = drive_window(seed, &workloads, window, &mut spans, &mut report);
        let series = Series::since(&base);
        let runs = series.counter("kernel.runs");
        let campaign_ms = spans.total_ms("sim.campaign");
        for (name, v) in [
            // Worker time per schedule: both workers stay busy in a batch.
            (
                "sim.run_ms",
                ratio(campaign_ms * JOBS as f64, t.runs as f64),
            ),
            ("sim.runs", t.runs as f64),
            ("sim.batch_ms", stats::mean(&t.batch_ms)),
            (
                "sim.steps_per_run",
                ratio(series.counter("kernel.steps"), runs),
            ),
            (
                "sim.switches_per_run",
                ratio(series.counter("kernel.context_switches"), runs),
            ),
            (
                "sim.distinct_ratio",
                ratio(t.distinct as f64, t.runs as f64),
            ),
            ("sim.filter_fp_est", stats::mean(&t.fp_est)),
            (
                "attributed_pct",
                100.0 * ratio(campaign_ms, t.elapsed.as_secs_f64() * 1e3),
            ),
            (
                "trace_overhead_pct",
                100.0
                    * (ratio(
                        w.runs as f64 / w.elapsed.as_secs_f64(),
                        t.runs as f64 / t.elapsed.as_secs_f64(),
                    ) - 1.0),
            ),
        ] {
            report.set(name, v);
        }
        report.zero_unreached();
    }
    report
}
