//! Schedule-exploration throughput benchmark.
//!
//! Headline number: **schedules/sec of the streaming campaign engine at
//! one worker (`jobs = 1`)** over the whole test suite of a spawn-heavy
//! (App-1) and a dedup-heavy (App-7) application, with the default arms.
//!
//! Also measured and recorded, because the campaign's claims are about
//! more than throughput:
//!
//! - **memory bound**: the bloom filter's byte size, the retention cap,
//!   and the process peak RSS (`VmHWM`) after the campaigns;
//! - **replay determinism**: the same `(config, seed)` is run twice and
//!   the distinct-hash digests must be identical;
//! - **per-arm breakdown**: the bandit's per-arm runs/fresh split.
//!
//! Writes `results/BENCH_explore.json` and prints a summary table.

use std::sync::Arc;
use std::time::Instant;

use sherlock_apps::{all_apps, App};
use sherlock_bench::{cells, TablePrinter};
use sherlock_obs::json::Json;
use sherlock_sim::{Campaign, CampaignConfig};

const APPS: [&str; 2] = ["App-1", "App-7"];
const CAMPAIGN_RUNS: u64 = 2048;
const REPLAY_RUNS: u64 = 512;

/// The whole test suite run back to back — the campaign's native workload
/// shape, and what the `explore` verb executes server-side.
fn suite_workload(app: &App) -> Arc<dyn Fn() + Send + Sync> {
    let bodies: Vec<_> = app.tests.iter().map(|t| t.body()).collect();
    Arc::new(move || {
        for body in &bodies {
            body();
        }
    })
}

/// Peak resident set size in bytes, from `/proc/self/status` (Linux only).
fn peak_rss_bytes() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: u64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}

fn main() {
    sherlock_sim::install_sim_panic_hook();
    sherlock_obs::init_from_env();

    let apps: Vec<_> = all_apps()
        .into_iter()
        .filter(|a| APPS.contains(&a.id))
        .collect();
    let wall_start = Instant::now();
    let t = TablePrinter::new(&[10, 8, 10, 8, 10, 12]);

    println!("Exploration benchmark (campaign, jobs=1)\n");
    println!(
        "{}",
        t.row(cells![
            "app",
            "runs",
            "distinct",
            "dedup%",
            "wall(ms)",
            "sched/sec"
        ])
    );
    println!("{}", t.rule());

    let mut app_rows: Vec<Json> = Vec::new();
    let mut headline_sched_per_sec = 0f64;
    for app in &apps {
        let workload = suite_workload(app);
        let mut ccfg = CampaignConfig::default();
        ccfg.max_schedules = CAMPAIGN_RUNS;
        ccfg.jobs = 1;
        ccfg.report_cap = 0;
        let result = Campaign::new(ccfg).run(workload);
        let campaign_rate = result.sched_per_sec;
        headline_sched_per_sec = headline_sched_per_sec.max(campaign_rate);
        let dedup_rate = result.dedup_hits as f64 / result.runs.max(1) as f64;
        println!(
            "{}",
            t.row(cells![
                app.id,
                result.runs,
                result.distinct,
                format!("{:.1}", 100.0 * dedup_rate),
                format!("{:.1}", result.elapsed.as_secs_f64() * 1e3),
                format!("{campaign_rate:.0}")
            ])
        );

        let arms: Vec<Json> = result
            .arms
            .iter()
            .map(|a| {
                Json::Obj(vec![
                    ("label".to_string(), Json::from(a.label.as_str())),
                    ("runs".to_string(), Json::from(a.runs)),
                    ("fresh".to_string(), Json::from(a.fresh)),
                ])
            })
            .collect();
        app_rows.push(Json::Obj(vec![
            ("app".to_string(), Json::from(app.id)),
            (
                "campaign".to_string(),
                Json::Obj(vec![
                    ("engine".to_string(), Json::from("campaign-fibers")),
                    ("runs".to_string(), Json::from(result.runs)),
                    ("distinct".to_string(), Json::from(result.distinct)),
                    ("dedup_hits".to_string(), Json::from(result.dedup_hits)),
                    ("dedup_rate".to_string(), Json::Num(dedup_rate)),
                    ("sched_per_sec".to_string(), Json::Num(campaign_rate)),
                    (
                        "filter_bytes".to_string(),
                        Json::from(result.filter_bytes as u64),
                    ),
                    (
                        "filter_occupancy".to_string(),
                        Json::Num(result.filter_occupancy),
                    ),
                    ("est_fp_rate".to_string(), Json::Num(result.est_fp_rate)),
                    ("arms".to_string(), Json::Arr(arms)),
                ]),
            ),
        ]));
    }
    println!("{}", t.rule());

    // Replay determinism: same (config, seed) twice → identical digests.
    let replay_app = &apps[0];
    let replay = |seed: u64| {
        let mut ccfg = CampaignConfig::default();
        ccfg.max_schedules = REPLAY_RUNS;
        ccfg.base_seed = seed;
        ccfg.jobs = 1;
        ccfg.report_cap = 0;
        Campaign::new(ccfg).run(suite_workload(replay_app))
    };
    let (ra, rb) = (replay(7), replay(7));
    let replay_identical = ra.distinct_digest == rb.distinct_digest;
    assert!(
        replay_identical,
        "replay diverged: {:016x} vs {:016x}",
        ra.distinct_digest, rb.distinct_digest
    );
    println!(
        "\nreplay: 2x {} runs on {} -> digest {:016x} both times: identical",
        REPLAY_RUNS, replay_app.id, ra.distinct_digest
    );

    // Memory bound: retention is capped and the dedup set is the fixed-size
    // bloom filter, so peak RSS stays flat as runs grow.
    let peak_rss = peak_rss_bytes();
    if let Some(rss) = peak_rss {
        println!(
            "memory: filter {} KiB, report cap 0, peak RSS {} MiB",
            ra.filter_bytes / 1024,
            rss / (1024 * 1024)
        );
    }

    let wall_ns = wall_start.elapsed().as_nanos() as u64;

    let mut doc = vec![
        ("benchmark".to_string(), Json::from("explore")),
        ("jobs".to_string(), Json::from(1u64)),
        ("campaign_runs".to_string(), Json::from(CAMPAIGN_RUNS)),
        ("wall_ns".to_string(), Json::from(wall_ns)),
        (
            "headline_sched_per_sec".to_string(),
            Json::Num(headline_sched_per_sec),
        ),
        ("apps".to_string(), Json::Arr(app_rows)),
        ("replay_identical".to_string(), Json::Bool(replay_identical)),
        (
            "replay_digest".to_string(),
            Json::from(format!("{:016x}", ra.distinct_digest)),
        ),
        (
            "memory".to_string(),
            Json::Obj(vec![
                (
                    "filter_bytes".to_string(),
                    Json::from(ra.filter_bytes as u64),
                ),
                ("report_cap".to_string(), Json::from(0u64)),
                (
                    "peak_rss_bytes".to_string(),
                    peak_rss.map(Json::from).unwrap_or(Json::Null),
                ),
            ]),
        ),
        ("telemetry".to_string(), sherlock_obs::snapshot().to_json()),
    ];
    doc.retain(|(_, v)| !matches!(v, Json::Null));

    let path = sherlock_bench::results_path("BENCH_explore.json");
    std::fs::write(&path, Json::Obj(doc).render_pretty()).expect("write BENCH_explore.json");
    println!(
        "\ntotal {:.1} ms wall, headline {headline_sched_per_sec:.0} sched/s",
        wall_ns as f64 / 1e6
    );
    println!("wrote {}", path.display());
}
