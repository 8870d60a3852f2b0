//! Streaming schedule campaigns: the one schedule-exploration engine.
//!
//! One simulated run replays exactly one interleaving per `(workload, seed)`.
//! A [`Campaign`] fans a workload out across many seeds — one kernel per
//! seed, spread over a pool of OS worker threads — and deduplicates the
//! outcomes by [`Trace::stable_hash`] through a compact [`ScheduleFilter`],
//! so "how many *distinct* schedules did we cover" is a first-class number.
//! It runs a bandit over (strategy, depth) **arms** — e.g. random walk, PCT
//! at several depths, round-robin — and steers the run budget toward arms
//! whose recent traces were *fresh* (new to the dedup filter), because an
//! arm that keeps rediscovering old interleavings is wasted budget. A
//! campaign with a single arm is plain fixed-strategy exploration: every run
//! goes to that arm, and `sherlock explore` runs one such campaign per unit
//! test.
//!
//! # Determinism
//!
//! Everything that influences results is integer arithmetic over committed
//! history, so a campaign is a pure function of `(workload, config)`:
//!
//! * runs are dispatched in **batches**; arm quotas for a batch are computed
//!   from integer weights by largest-remainder apportionment (no floats, no
//!   RNG, ties broken by arm index);
//! * run `r` (globally, across the whole campaign) always uses seed
//!   `base_seed + r` regardless of which worker executes it;
//! * workers race, but reports are committed in run order, so filter state,
//!   arm credit, and the [`CampaignResult::distinct_digest`] are identical
//!   for any worker count. Wall-clock timing is measured but never fed back
//!   into scheduling.
//!
//! Replaying a campaign from the same `(config, seed)` therefore yields the
//! identical distinct-hash set — the property the determinism tests and the
//! serve-side `explore` verb rely on.
//!
//! # Bandit
//!
//! Per arm the campaign keeps decayed recency counters `(recent_runs,
//! recent_fresh)`; an arm's weight is the fixed-point smoothed freshness
//! rate `(recent_fresh + 1) / (recent_runs + 2)`, so cold arms drift back
//! toward ½ and keep getting probe quota (no arm is ever starved:
//! smoothing guarantees every arm a nonzero weight). After each batch both
//! counters are halved (integer EMA with a one-batch half-life).
//!
//! Memory is O(filter + [`CampaignConfig::report_cap`]): the filter trades
//! exactness for space (a false positive makes a genuinely new schedule
//! count as a duplicate, at the rate reported in
//! [`CampaignResult::est_fp_rate`]), and a running FNV-1a digest stands in
//! for the distinct-hash set.
//!
//! [`Trace::stable_hash`]: sherlock_trace::Trace::stable_hash

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::channel;
use std::sync::Arc;
use std::time::{Duration, Instant};

use sherlock_obs::{counter, counter_named, histogram};

use crate::config::SimConfig;
use crate::filter::ScheduleFilter;
use crate::kernel::{Outcome, RunReport, Sim};
use crate::strategy::StrategyKind;

/// Fixed-point scale for arm weights.
const WEIGHT_SCALE: u64 = 1024;

/// The default arm set: one random-walk arm, PCT at three depths, and a
/// round-robin arm (quantum 2) as the systematic-coverage baseline.
pub fn default_arms() -> Vec<StrategyKind> {
    vec![
        StrategyKind::RandomWalk,
        StrategyKind::Pct { depth: 2 },
        StrategyKind::Pct { depth: 3 },
        StrategyKind::Pct { depth: 5 },
        StrategyKind::RoundRobin { quantum: 2 },
    ]
}

/// Stable label for an arm, used in per-arm metric names and progress
/// frames (`random`, `pct_d3`, `rr_q2`).
pub fn arm_label(s: StrategyKind) -> String {
    match s {
        StrategyKind::RandomWalk => "random".to_string(),
        StrategyKind::Pct { depth } => format!("pct_d{depth}"),
        StrategyKind::RoundRobin { quantum } => format!("rr_q{quantum}"),
    }
}

/// Configuration of one streaming campaign.
#[derive(Clone, Debug)]
pub struct CampaignConfig {
    /// Total schedules to run.
    pub max_schedules: u64,
    /// Seed of global run `r` is `base_seed + r` (wrapping).
    pub base_seed: u64,
    /// Worker OS threads; 0 means `std::thread::available_parallelism`.
    pub jobs: usize,
    /// Runs per bandit batch (quota recomputation interval).
    pub batch: u64,
    /// The (strategy, depth) arms; must be non-empty (defaults via
    /// [`default_arms`]).
    pub arms: Vec<StrategyKind>,
    /// log2 of dedup-filter bits; `None` auto-sizes from `max_schedules`.
    pub filter_bits: Option<u32>,
    /// Distinct [`RunReport`]s retained (first N in first-seen order);
    /// `usize::MAX` keeps every distinct schedule.
    pub report_cap: usize,
    /// Template for each run's [`SimConfig`] (seed/strategy overwritten).
    pub sim: SimConfig,
}

impl Default for CampaignConfig {
    fn default() -> Self {
        CampaignConfig {
            max_schedules: 1024,
            base_seed: 0,
            jobs: 0,
            batch: 64,
            arms: default_arms(),
            filter_bits: None,
            report_cap: 16,
            sim: SimConfig::default(),
        }
    }
}

/// Live per-arm accounting.
#[derive(Clone, Debug)]
struct ArmState {
    strategy: StrategyKind,
    label: String,
    runs: u64,
    fresh: u64,
    recent_runs: u64,
    recent_fresh: u64,
}

impl ArmState {
    /// Fixed-point smoothed freshness rate `(recent_fresh+1)/(recent_runs+2)`
    /// scaled by [`WEIGHT_SCALE`].
    fn weight(&self) -> u64 {
        (self.recent_fresh + 1) * WEIGHT_SCALE / (self.recent_runs + 2)
    }
}

/// Final per-arm report.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmReport {
    /// Stable arm label (see [`arm_label`]).
    pub label: String,
    /// The arm's strategy.
    pub strategy: StrategyKind,
    /// Runs the bandit allotted to this arm.
    pub runs: u64,
    /// Runs whose trace hash was new to the filter.
    pub fresh: u64,
}

/// A per-batch progress frame, handed to the campaign's progress callback
/// (and serialized by serve's `explore` verb).
#[derive(Clone, Debug)]
pub struct CampaignProgress {
    /// Runs committed so far.
    pub runs: u64,
    /// Total schedules the campaign will run.
    pub max_schedules: u64,
    /// Distinct schedules so far (filter-admitted).
    pub distinct: u64,
    /// Duplicate (or false-positive) schedules so far.
    pub dedup_hits: u64,
    /// Schedules per second over the last batch (wall clock; informational
    /// only — never feeds back into scheduling).
    pub sched_per_sec: f64,
    /// Filter occupancy in `[0, 1]`.
    pub occupancy: f64,
    /// Per-arm `(label, runs, fresh, weight)` at the end of the batch, in
    /// arm order; `weight` is the fixed-point bandit weight that will shape
    /// the *next* batch.
    pub arms: Vec<(String, u64, u64, u64)>,
}

/// The result of one streaming campaign.
#[derive(Debug, Default)]
pub struct CampaignResult {
    /// Runs executed.
    pub runs: u64,
    /// Distinct schedules (filter-admitted).
    pub distinct: u64,
    /// Runs whose hash the filter had already seen.
    pub dedup_hits: u64,
    /// Distinct schedules that deadlocked.
    pub deadlocks: u64,
    /// Distinct schedules with a panicking thread.
    pub panics: u64,
    /// FNV-1a digest of the distinct hashes in commit order — two campaigns
    /// discovered the same distinct sequence iff digests match.
    pub distinct_digest: u64,
    /// First [`CampaignConfig::report_cap`] distinct reports, in commit
    /// order.
    pub reports: Vec<RunReport>,
    /// Per-arm totals, in arm order.
    pub arms: Vec<ArmReport>,
    /// Wall-clock duration of the campaign.
    pub elapsed: Duration,
    /// Overall schedules per second (informational).
    pub sched_per_sec: f64,
    /// Dedup filter footprint in bytes.
    pub filter_bytes: usize,
    /// Final filter occupancy in `[0, 1]`.
    pub filter_occupancy: f64,
    /// Measured false-positive bound at final occupancy.
    pub est_fp_rate: f64,
}

/// Largest-remainder apportionment: splits `total` into integer quotas
/// proportional to `weights` (each quota sum equals `total` exactly).
/// Deterministic: remainder ties go to the lower index.
fn apportion(weights: &[u64], total: u64) -> Vec<u64> {
    let wsum: u64 = weights.iter().sum::<u64>().max(1);
    let mut quotas: Vec<u64> = weights.iter().map(|&w| total * w / wsum).collect();
    let assigned: u64 = quotas.iter().sum();
    // Distribute the leftover to the largest fractional remainders.
    let mut rem: Vec<(u64, usize)> = weights
        .iter()
        .enumerate()
        .map(|(i, &w)| (total * w % wsum, i))
        .collect();
    rem.sort_by(|a, b| b.0.cmp(&a.0).then(a.1.cmp(&b.1)));
    for k in 0..(total - assigned) as usize {
        quotas[rem[k % rem.len()].1] += 1;
    }
    quotas
}

/// FNV-1a fold of one 64-bit value into a running digest.
fn fnv1a64(digest: u64, value: u64) -> u64 {
    let mut d = digest;
    for byte in value.to_le_bytes() {
        d ^= byte as u64;
        d = d.wrapping_mul(0x0000_0100_0000_01b3);
    }
    d
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Novelty-guided streaming campaign driver.
pub struct Campaign {
    config: CampaignConfig,
}

impl Campaign {
    /// Creates a campaign; panics if `arms` is empty.
    pub fn new(config: CampaignConfig) -> Self {
        assert!(!config.arms.is_empty(), "campaign needs at least one arm");
        Campaign { config }
    }

    /// Runs the campaign without progress reporting.
    pub fn run(&self, workload: Arc<dyn Fn() + Send + Sync>) -> CampaignResult {
        self.run_with_progress(workload, |_| {})
    }

    /// Runs the campaign, invoking `on_batch` after every committed batch.
    pub fn run_with_progress(
        &self,
        workload: Arc<dyn Fn() + Send + Sync>,
        mut on_batch: impl FnMut(&CampaignProgress),
    ) -> CampaignResult {
        let _s = sherlock_obs::span("explore.campaign");
        let cfg = &self.config;
        let start = Instant::now();
        let batch_size = cfg.batch.max(1);
        let jobs = if cfg.jobs == 0 {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4)
        } else {
            cfg.jobs
        };
        let jobs = jobs.max(1);

        let mut filter = match cfg.filter_bits {
            Some(bits) => ScheduleFilter::with_log2_bits(bits),
            None => ScheduleFilter::for_expected(cfg.max_schedules),
        };
        let mut arms: Vec<ArmState> = cfg
            .arms
            .iter()
            .map(|&strategy| ArmState {
                strategy,
                label: arm_label(strategy),
                runs: 0,
                fresh: 0,
                recent_runs: 0,
                recent_fresh: 0,
            })
            .collect();
        let arm_counters: Vec<(
            &'static sherlock_obs::Counter,
            &'static sherlock_obs::Counter,
        )> = arms
            .iter()
            .map(|a| {
                (
                    counter_named(&format!("explore.arm.{}.selected", a.label)),
                    counter_named(&format!("explore.arm.{}.fresh", a.label)),
                )
            })
            .collect();

        let mut result = CampaignResult {
            distinct_digest: FNV_OFFSET,
            ..CampaignResult::default()
        };
        let mut global_run: u64 = 0;

        while global_run < cfg.max_schedules {
            let b = batch_size.min(cfg.max_schedules - global_run);
            // Deterministic arm plan for this batch: quotas from integer
            // weights, filled in arm order (run g..g+q0 is arm 0, etc.).
            let weights: Vec<u64> = arms.iter().map(ArmState::weight).collect();
            let quotas = apportion(&weights, b);
            let mut plan: Vec<usize> = Vec::with_capacity(b as usize);
            for (arm_idx, &q) in quotas.iter().enumerate() {
                plan.extend(std::iter::repeat_n(arm_idx, q as usize));
                arm_counters[arm_idx].0.add(q);
                counter!("explore.arm_selections").add(q);
            }

            let batch_start = Instant::now();
            let reports = self.run_batch(&workload, global_run, &plan, jobs);

            // Commit in run order: filter, arm credit, digest, retention.
            for (offset, report) in reports.into_iter().enumerate() {
                let arm_idx = plan[offset];
                let hash = report.trace.stable_hash();
                let is_new = filter.insert(hash);
                let arm = &mut arms[arm_idx];
                arm.runs += 1;
                arm.recent_runs += 1;
                result.runs += 1;
                if is_new {
                    arm.fresh += 1;
                    arm.recent_fresh += 1;
                    arm_counters[arm_idx].1.incr();
                    result.distinct += 1;
                    result.distinct_digest = fnv1a64(result.distinct_digest, hash);
                    if matches!(report.outcome, Outcome::Deadlock(_)) {
                        result.deadlocks += 1;
                    }
                    if !report.panics.is_empty() {
                        result.panics += 1;
                    }
                    if result.reports.len() < cfg.report_cap {
                        result.reports.push(report);
                    }
                } else {
                    result.dedup_hits += 1;
                }
            }
            global_run += b;

            // Integer EMA with one-batch half-life: recent novelty dominates,
            // but history never hard-resets.
            for arm in &mut arms {
                arm.recent_runs /= 2;
                arm.recent_fresh /= 2;
            }

            let batch_secs = batch_start.elapsed().as_secs_f64();
            let rate = if batch_secs > 0.0 {
                b as f64 / batch_secs
            } else {
                0.0
            };
            counter!("explore.dedup_hits").add(0); // ensure series exists even pre-dup
            histogram!("explore.sched_per_sec").observe(rate as u64);
            histogram!("explore.filter_occupancy_ppm")
                .observe((filter.occupancy() * 1_000_000.0) as u64);

            on_batch(&CampaignProgress {
                runs: result.runs,
                max_schedules: cfg.max_schedules,
                distinct: result.distinct,
                dedup_hits: result.dedup_hits,
                sched_per_sec: rate,
                occupancy: filter.occupancy(),
                arms: arms
                    .iter()
                    .map(|a| (a.label.clone(), a.runs, a.fresh, a.weight()))
                    .collect(),
            });
        }

        counter!("explore.runs").add(result.runs);
        counter!("explore.distinct_traces").add(result.distinct);
        counter!("explore.duplicate_traces").add(result.dedup_hits);
        counter!("explore.dedup_hits").add(result.dedup_hits);
        counter!("explore.campaigns").incr();

        result.elapsed = start.elapsed();
        let total_secs = result.elapsed.as_secs_f64();
        result.sched_per_sec = if total_secs > 0.0 {
            result.runs as f64 / total_secs
        } else {
            0.0
        };
        result.filter_bytes = filter.bytes();
        result.filter_occupancy = filter.occupancy();
        result.est_fp_rate = filter.est_fp_rate();
        result.arms = arms
            .into_iter()
            .map(|a| ArmReport {
                label: a.label,
                strategy: a.strategy,
                runs: a.runs,
                fresh: a.fresh,
            })
            .collect();
        result
    }

    /// Executes one batch: run `plan.len()` schedules at global indices
    /// `first..first+len`, returning reports ordered by batch offset.
    /// Worker count changes wall-clock only — never results.
    fn run_batch(
        &self,
        workload: &Arc<dyn Fn() + Send + Sync>,
        first: u64,
        plan: &[usize],
        jobs: usize,
    ) -> Vec<RunReport> {
        let cfg = &self.config;
        let b = plan.len();
        let run_one = |offset: usize| -> RunReport {
            let mut sim_cfg = cfg.sim.clone();
            sim_cfg.seed = cfg.base_seed.wrapping_add(first + offset as u64);
            sim_cfg.strategy = cfg.arms[plan[offset]];
            let w = Arc::clone(workload);
            Sim::new(sim_cfg).run(move || w())
        };

        if jobs == 1 || b == 1 {
            return (0..b).map(run_one).collect();
        }

        let next = AtomicU64::new(0);
        let (tx, rx) = channel::<(usize, RunReport)>();
        let mut slots: Vec<Option<RunReport>> = (0..b).map(|_| None).collect();
        std::thread::scope(|scope| {
            for _ in 0..jobs.min(b) {
                let tx = tx.clone();
                let next = &next;
                let run_one = &run_one;
                scope.spawn(move || loop {
                    let i = next.fetch_add(1, Ordering::Relaxed) as usize;
                    if i >= b {
                        break;
                    }
                    if tx.send((i, run_one(i))).is_err() {
                        break;
                    }
                });
            }
            drop(tx);
            for (i, report) in rx {
                slots[i] = Some(report);
            }
        });
        slots
            .into_iter()
            .map(|r| r.expect("worker delivered every batch slot"))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prims::TracedVar;
    use sherlock_trace::Time;

    fn workload() -> Arc<dyn Fn() + Send + Sync> {
        Arc::new(|| {
            let v = TracedVar::new("Campaign", "x", 0u32);
            let v2 = v.clone();
            let h = crate::api::spawn("writer", move || {
                v2.set(1);
                let _ = v2.get();
            });
            v.set(2);
            let _ = v.get();
            h.join();
        })
    }

    fn config(max: u64, jobs: usize) -> CampaignConfig {
        let mut cfg = CampaignConfig::default();
        cfg.max_schedules = max;
        cfg.jobs = jobs;
        cfg.batch = 16;
        cfg.base_seed = 7;
        cfg.report_cap = usize::MAX;
        cfg
    }

    /// A single-arm campaign: fixed-strategy exploration.
    fn one_arm(max: u64, jobs: usize, strategy: StrategyKind) -> CampaignConfig {
        CampaignConfig {
            arms: vec![strategy],
            ..config(max, jobs)
        }
    }

    /// Stable hashes of the retained distinct reports, in commit order.
    fn hashes(result: &CampaignResult) -> Vec<u64> {
        result
            .reports
            .iter()
            .map(|r| r.trace.stable_hash())
            .collect()
    }

    #[test]
    fn apportionment_is_exact_and_proportional() {
        assert_eq!(apportion(&[1, 1, 1, 1], 8), vec![2, 2, 2, 2]);
        assert_eq!(apportion(&[3, 1], 8), vec![6, 2]);
        // Remainders go to the largest fractional parts, ties to low index.
        assert_eq!(apportion(&[1, 1, 1], 8).iter().sum::<u64>(), 8);
        assert_eq!(apportion(&[0, 0], 5).iter().sum::<u64>(), 5);
        assert_eq!(apportion(&[5], 3), vec![3]);
        // Heavier arm always gets at least its floor.
        let q = apportion(&[512, 256, 256], 10);
        assert_eq!(q.iter().sum::<u64>(), 10);
        assert!(q[0] >= q[1] && q[0] >= q[2]);
    }

    #[test]
    fn campaign_is_deterministic_across_worker_counts() {
        let serial = Campaign::new(config(64, 1)).run(workload());
        let parallel = Campaign::new(config(64, 4)).run(workload());
        assert_eq!(serial.runs, 64);
        assert_eq!(hashes(&serial), hashes(&parallel));
        assert_eq!(serial.distinct_digest, parallel.distinct_digest);
        assert_eq!(serial.distinct, parallel.distinct);
        assert_eq!(serial.dedup_hits, parallel.dedup_hits);
        let arm_stats = |r: &CampaignResult| -> Vec<(String, u64, u64)> {
            r.arms
                .iter()
                .map(|a| (a.label.clone(), a.runs, a.fresh))
                .collect()
        };
        assert_eq!(arm_stats(&serial), arm_stats(&parallel));
    }

    #[test]
    fn replay_from_same_config_is_identical() {
        let a = Campaign::new(config(48, 2)).run(workload());
        let b = Campaign::new(config(48, 2)).run(workload());
        assert_eq!(a.distinct_digest, b.distinct_digest);
        assert_eq!(hashes(&a), hashes(&b));
    }

    /// The one-arm contract `sherlock explore` relies on: the retained
    /// reports are exactly the first-seen schedules of running
    /// `Sim { seed: base_seed + r, strategy }` for `r = 0, 1, …` in order.
    #[test]
    fn one_arm_campaign_retains_first_seen_schedules_of_each_seed() {
        for strategy in [
            StrategyKind::RandomWalk,
            StrategyKind::Pct { depth: 3 },
            StrategyKind::RoundRobin { quantum: 2 },
        ] {
            let cfg = one_arm(40, 3, strategy);
            let result = Campaign::new(cfg.clone()).run(workload());
            let mut seen = std::collections::HashSet::new();
            let mut expected = Vec::new();
            for r in 0..cfg.max_schedules {
                let w = workload();
                let report = Sim::new(SimConfig {
                    seed: cfg.base_seed + r,
                    strategy,
                    ..SimConfig::default()
                })
                .run(move || w());
                if seen.insert(report.trace.stable_hash()) {
                    expected.push(report);
                }
            }
            let render = |reports: &[RunReport]| -> Vec<(String, u64, Outcome)> {
                reports
                    .iter()
                    .map(|r| {
                        let trace = sherlock_trace::json::to_json(&r.trace);
                        (trace, r.steps, r.outcome.clone())
                    })
                    .collect()
            };
            let label = strategy.name();
            assert_eq!(render(&result.reports), render(&expected), "{label}");
            assert_eq!(result.distinct, expected.len() as u64, "{label}");
            assert_eq!(result.dedup_hits, 40 - expected.len() as u64, "{label}");
            assert_eq!(result.arms[0].runs, 40, "{label}: one arm runs every seed");
        }
    }

    #[test]
    fn single_threaded_workload_dedups_to_one_schedule() {
        // A single-threaded workload: every interleaving is identical.
        let one_thread: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
            let v = TracedVar::new("Campaign", "solo", 0u32);
            v.set(1);
            let _ = v.get();
        });
        let result = Campaign::new(one_arm(8, 2, StrategyKind::RandomWalk)).run(one_thread);
        assert_eq!(result.runs, 8);
        assert_eq!(result.distinct, 1, "single-threaded runs must dedup");
        assert_eq!(result.reports.len(), 1);
        assert_eq!(result.dedup_hits, 7);
    }

    #[test]
    fn deadlocked_runs_are_counted() {
        let mut cfg = one_arm(2, 1, StrategyKind::RandomWalk);
        cfg.sim.idle_timeout = Time::from_millis(1);
        let blocked: Arc<dyn Fn() + Send + Sync> = Arc::new(|| {
            let ev = crate::prims::EventWaitHandle::new(false);
            ev.wait_one();
        });
        let result = Campaign::new(cfg).run(blocked);
        assert_eq!(result.deadlocks, 1, "deadlock dedups to one schedule");
        assert!(matches!(result.reports[0].outcome, Outcome::Deadlock(_)));
    }

    #[test]
    fn every_arm_keeps_probe_quota() {
        // Smoothing means no arm's weight ever reaches zero, so over a few
        // batches every arm runs at least once even if it finds nothing new.
        let result = Campaign::new(config(80, 2)).run(workload());
        for arm in &result.arms {
            assert!(arm.runs > 0, "arm {} starved", arm.label);
        }
        assert_eq!(result.arms.iter().map(|a| a.runs).sum::<u64>(), 80);
        assert_eq!(
            result.arms.iter().map(|a| a.fresh).sum::<u64>(),
            result.distinct
        );
    }

    #[test]
    fn retention_caps_bound_memory_without_losing_counts() {
        let uncapped = Campaign::new(config(64, 2)).run(workload());
        for cap in [3, 0] {
            let mut cfg = config(64, 2);
            cfg.report_cap = cap;
            let result = Campaign::new(cfg).run(workload());
            assert_eq!(result.runs, 64);
            assert!(result.reports.len() <= cap);
            // Counts and the distinct sequence are unaffected by retention.
            assert_eq!(result.distinct, uncapped.distinct);
            assert_eq!(result.distinct_digest, uncapped.distinct_digest);
            assert_eq!(result.dedup_hits, uncapped.dedup_hits);
            assert!(result.filter_bytes > 0);
            assert!(result.filter_occupancy > 0.0);
            assert!(result.est_fp_rate < 1e-3);
        }
    }

    #[test]
    fn progress_frames_cover_every_batch() {
        let mut frames: Vec<(u64, u64)> = Vec::new();
        let result = Campaign::new(config(40, 1)).run_with_progress(workload(), |p| {
            frames.push((p.runs, p.distinct));
            assert_eq!(p.max_schedules, 40);
            assert_eq!(p.arms.len(), default_arms().len());
        });
        // 40 runs at batch 16 → frames at 16, 32, 40.
        assert_eq!(
            frames.iter().map(|f| f.0).collect::<Vec<_>>(),
            vec![16, 32, 40]
        );
        assert_eq!(frames.last().unwrap().1, result.distinct);
    }
}
