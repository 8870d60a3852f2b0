//! `infer-fleet`: closed loop on one thread. Each item is a full 3-round
//! inference (Observer → Solver → Perturber) over one application; the
//! items are the catalogue's generated fleet apps in seeded order, with one
//! bundled App-1..App-8 every 25th item, so the paper's large LPs sit in
//! the latency tail. The seed also derives every app's scheduling seed.
//!
//! The untraced run drives the public `SherLock` driver. The traced run
//! replays the driver's rounds call by call (`delay_plan_with_probability`
//! → `TestCase::run` → `Session::absorb_trace` → `Session::solve`) inside
//! the benchmark's spans, and checks it renders byte-identically.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use sherlock_apps::{all_apps, App};
use sherlock_core::{perturber, Session, SherLock, SherLockConfig, TestCase};
use sherlock_fleet::{evaluate, generate_fleet, GeneratedApp, GrammarConfig};
use sherlock_lp::LpError;
use sherlock_sim::{DelayPlan, SimConfig};

use crate::report::{peak_rss_mb, Report};
use crate::spans::{solver_layers, Series, Spans};
use crate::stats::{self, median, ratio};
use crate::streams::{fnv1a, mix, permutation, CATALOGUE, FNV_OFFSET};

/// Inference rounds per app, as in the paper.
pub const ROUNDS: usize = 3;
/// Catalogue apps; the window cycles through them if it outlasts them.
pub const FLEET_APPS: usize = 3000;
/// Every this many items, one bundled app.
pub const BUNDLED_EVERY: usize = 25;
/// Items whose renders feed the printed cross-run digest.
const DIGEST_ITEMS: usize = 400;
/// Fleet-wide floors of the CI fleet gate.
const MIN_PRECISION: f64 = 0.95;
const MIN_RECALL: f64 = 0.95;

struct Inputs {
    seed: u64,
    fleet: Vec<GeneratedApp>,
    order: Vec<usize>,
    bundled: Vec<App>,
}

enum Kind<'a> {
    Fleet(&'a GeneratedApp),
    Bundled(usize, &'a App),
}

struct Item<'a> {
    kind: Kind<'a>,
    /// The driver's base seed: every app pins its own, so its inference
    /// does not depend on which apps ran before it, and every recurrence of
    /// a bundled app within a run repeats the first.
    base_seed: u64,
}

impl Inputs {
    fn generate(seed: u64) -> Inputs {
        Inputs {
            seed,
            fleet: generate_fleet(&GrammarConfig::default(), FLEET_APPS, CATALOGUE),
            order: permutation(FLEET_APPS, mix(seed, 0x0de7)),
            bundled: all_apps(),
        }
    }

    fn item(&self, i: usize) -> Item<'_> {
        if i % BUNDLED_EVERY == BUNDLED_EVERY - 1 {
            let b = (i / BUNDLED_EVERY) % self.bundled.len();
            Item {
                kind: Kind::Bundled(b, &self.bundled[b]),
                base_seed: mix(self.seed, b as u64),
            }
        } else {
            let app = &self.fleet[self.order[(i - i / BUNDLED_EVERY) % self.fleet.len()]];
            Item {
                kind: Kind::Fleet(app),
                base_seed: mix(self.seed, app.seed),
            }
        }
    }
}

impl Item<'_> {
    fn tests(&self) -> &[TestCase] {
        match self.kind {
            Kind::Fleet(app) => &app.tests,
            Kind::Bundled(_, app) => &app.tests,
        }
    }

    fn config(&self) -> SherLockConfig {
        SherLockConfig {
            base_seed: self.base_seed,
            ..SherLockConfig::default()
        }
    }
}

/// One inferred item: its render, first-round time and total time.
struct Done {
    render: String,
    cold_ms: f64,
    app_ms: f64,
}

/// Per-item outcomes of one window, in item order (`None`: the solver
/// failed).
#[derive(Default)]
struct Window {
    items: Vec<Option<Done>>,
    elapsed: Duration,
}

impl Window {
    fn sorted(&self, field: impl Fn(&Done) -> f64) -> Vec<f64> {
        let mut v: Vec<f64> = self.items.iter().flatten().map(field).collect();
        stats::sort(&mut v);
        v
    }
}

/// Verdict tallies over the fleet apps of a window.
#[derive(Default)]
struct Scores {
    true_sync: usize,
    not_sync: usize,
    covered: usize,
    groups: usize,
    unattributed: usize,
}

pub fn run(seed: u64, seconds: u64, traced: bool) -> Report {
    let mut report = Report::default();
    let mut setups = Vec::new();
    let mut inputs = None;
    for _ in 0..crate::SETUPS {
        let start = Instant::now();
        inputs = Some(Inputs::generate(seed));
        setups.push(start.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let window = Duration::from_secs(seconds);

    let mut scores = Scores::default();
    let untraced = drive_window(&inputs, window, &mut report, |item| {
        let start = Instant::now();
        let mut sl = SherLock::new(item.config());
        sl.run_round(item.tests())?;
        let cold = start.elapsed();
        for _ in 1..ROUNDS {
            sl.run_round(item.tests())?;
        }
        let elapsed = start.elapsed();
        if let Kind::Fleet(app) = item.kind {
            let s = evaluate(app, sl.report());
            scores.true_sync += s.counts.true_sync;
            scores.not_sync += s.counts.not_sync;
            scores.covered += s.groups_covered;
            scores.groups += s.groups_total;
            scores.unattributed += s.unattributed;
        }
        Ok((sl.report().render(), cold, elapsed))
    });
    check_scores(&scores, &mut report);
    check_renders(&inputs, &untraced, &mut report);

    let apps = untraced.sorted(|d| d.app_ms);
    report.set(
        "throughput_per_s",
        apps.len() as f64 / untraced.elapsed.as_secs_f64(),
    );
    report.set_latency("apps", &apps);
    report.set_cold("first rounds", &untraced.sorted(|d| d.cold_ms));
    report.set("setup_s", median(&setups));
    report.set("peak_rss_mb", peak_rss_mb("self"));

    if traced {
        traced_window(&inputs, window, &untraced, &mut report);
    }
    report
}

/// Runs items in order until the window closes. `infer` returns the
/// item's render, its first-round time and its total time.
fn drive_window(
    inputs: &Inputs,
    window: Duration,
    report: &mut Report,
    mut infer: impl FnMut(&Item<'_>) -> Result<(String, Duration, Duration), LpError>,
) -> Window {
    let mut w = Window::default();
    let start = Instant::now();
    let mut i = 0;
    while start.elapsed() < window {
        let item = inputs.item(i);
        report.attempted += 1;
        w.items.push(match infer(&item) {
            Ok((render, cold, total)) => Some(Done {
                render,
                cold_ms: cold.as_secs_f64() * 1e3,
                app_ms: total.as_secs_f64() * 1e3,
            }),
            Err(e) => {
                report.fail(format!("item {i}: solver failed: {e:?}"));
                None
            }
        });
        i += 1;
    }
    w.elapsed = start.elapsed();
    w
}

fn check_scores(s: &Scores, report: &mut Report) {
    let precision = ratio(s.true_sync as f64, (s.true_sync + s.not_sync) as f64);
    let recall = ratio(s.covered as f64, s.groups as f64);
    report.note(format!(
        "fleet precision {precision:.4} recall {recall:.4} ({} TS, {} NS, {}/{} groups)",
        s.true_sync, s.not_sync, s.covered, s.groups
    ));
    report.check(precision >= MIN_PRECISION, || {
        format!("fleet precision {precision:.4} below {MIN_PRECISION}")
    });
    report.check(recall >= MIN_RECALL, || {
        format!("fleet recall {recall:.4} below {MIN_RECALL}")
    });
    report.check(s.unattributed == 0, || {
        format!("{} inferred ops no planted idiom claims", s.unattributed)
    });
}

/// Every recurrence of a bundled app renders as it did the first time, and
/// the digest of the first renders is printed for comparing runs.
fn check_renders(inputs: &Inputs, w: &Window, report: &mut Report) {
    let mut first: BTreeMap<usize, &str> = BTreeMap::new();
    let mut bundled_ms: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for (i, done) in w.items.iter().enumerate() {
        let (Kind::Bundled(b, app), Some(done)) = (inputs.item(i).kind, done) else {
            continue;
        };
        bundled_ms.entry(app.id).or_default().push(done.app_ms);
        let seen = *first.entry(b).or_insert(&done.render);
        report.check(seen == done.render, || {
            format!("{} rendered differently at item {i}", app.id)
        });
    }
    report.note(format!(
        "bundled app medians (ms): {}",
        bundled_ms
            .iter()
            .map(|(id, ms)| format!("{id} {:.2}", median(ms)))
            .collect::<Vec<_>>()
            .join(", ")
    ));
    let n = w.items.len().min(DIGEST_ITEMS);
    let digest = w.items[..n]
        .iter()
        .flatten()
        .fold(FNV_OFFSET, |d, done| fnv1a(d, done.render.as_bytes()));
    report.note(format!(
        "report digest {digest:016x} over the first {n} items"
    ));
}

/// The driver's rounds replayed call by call inside spans; returns the
/// final render and the first round's wall time.
fn drive_rounds(
    tests: &[TestCase],
    config: &SherLockConfig,
    spans: &mut Spans,
) -> Result<(String, Duration), LpError> {
    let start = Instant::now();
    let mut cold = Duration::ZERO;
    let mut session = Session::new(config.clone());
    for round in 0..ROUNDS {
        let plan = if config.feedback.inject_delays && round > 0 {
            spans.time("core.perturb", || {
                perturber::delay_plan_with_probability(
                    session.report(),
                    config.delay,
                    config.delay_probability,
                )
            })
        } else {
            DelayPlan::none()
        };
        for (i, test) in tests.iter().enumerate() {
            // The driver's per-(round, test) seed derivation.
            let seed = config
                .base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((round as u64) << 32)
                .wrapping_add(i as u64);
            let mut sim_cfg = SimConfig::with_seed(seed);
            sim_cfg.instrument = config.instrument.clone();
            sim_cfg.delay_plan = plan.clone();
            let run = spans.time("sim.run", || test.run(sim_cfg));
            spans.time("core.absorb", || session.absorb_trace(&run.trace));
        }
        spans.time("core.solve", || session.solve().map(|_| ()))?;
        if round == 0 {
            cold = start.elapsed();
        }
    }
    Ok((session.report().render(), cold))
}

fn traced_window(inputs: &Inputs, window: Duration, untraced: &Window, report: &mut Report) {
    let mut spans = Spans::new(true);
    let base = sherlock_obs::snapshot();
    let traced = drive_window(inputs, window, report, |item| {
        let start = Instant::now();
        let (render, cold) = drive_rounds(item.tests(), &item.config(), &mut spans)?;
        let total = start.elapsed();
        spans.add("app", total.as_secs_f64() * 1e3);
        Ok((render, cold, total))
    });
    let series = Series::since(&base);

    // Items both windows completed: identical renders, and the per-app
    // times that give the tracing overhead.
    let (mut direct_ms, mut driver_ms) = (Vec::new(), Vec::new());
    for (i, pair) in traced.items.iter().zip(&untraced.items).enumerate() {
        if let (Some(direct), Some(driver)) = pair {
            report.check(direct.render == driver.render, || {
                format!("item {i}: the per-round drive renders differently from run_round")
            });
            direct_ms.push(direct.app_ms);
            driver_ms.push(driver.app_ms);
        }
    }
    let overhead = ratio(stats::mean(&direct_ms), stats::mean(&driver_ms)) - 1.0;
    let runs = series.counter("kernel.runs");
    let attributed = ["sim.run", "core.absorb", "core.solve", "core.perturb"]
        .iter()
        .map(|n| spans.total_ms(n))
        .sum::<f64>();

    solver_layers(
        report,
        &series,
        spans.count("core.absorb") as f64,
        spans.count("core.solve") as f64,
    );
    for (name, v) in [
        ("sim.run_ms", spans.mean_ms("sim.run")),
        ("sim.runs", spans.count("sim.run") as f64),
        (
            "sim.steps_per_run",
            ratio(series.counter("kernel.steps"), runs),
        ),
        (
            "sim.switches_per_run",
            ratio(series.counter("kernel.context_switches"), runs),
        ),
        ("core.absorb_ms", spans.mean_ms("core.absorb")),
        ("core.perturb_ms", spans.mean_ms("core.perturb")),
        (
            "attributed_pct",
            100.0 * ratio(attributed, spans.total_ms("app")),
        ),
        ("trace_overhead_pct", 100.0 * overhead),
    ] {
        report.set(name, v);
    }
    report.zero_unreached();
}
