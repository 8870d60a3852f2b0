//! The multi-round inference driver tying Observer, Solver, and Perturber
//! together (paper Fig. 1).
//!
//! All incremental state (observations, memoized windows, the solved
//! report) lives in a [`Session`]; the driver adds the parts that require
//! *running* tests — seed derivation, the Perturber's delay plans, and
//! per-round statistics.

use sherlock_lp::LpError;
use sherlock_obs as obs;
use sherlock_sim::{DelayPlan, SimConfig};

use crate::config::SherLockConfig;
use crate::observations::Observations;
use crate::perturber;
use crate::report::InferenceReport;
pub use crate::session::RoundStats;
use crate::session::Session;
use crate::testcase::TestCase;

/// A SherLock inference session over one application's test suite.
///
/// ```
/// use sherlock_core::{SherLock, SherLockConfig, TestCase};
/// use sherlock_sim::prims::TracedVar;
/// use sherlock_trace::Time;
///
/// let tests = vec![TestCase::new("flag", || {
///     let flag = TracedVar::new("Doc", "ready", false);
///     let f = flag.clone();
///     let h = sherlock_sim::api::spawn("w", move || {
///         f.spin_until(Time::from_micros(100), |v| v);
///     });
///     flag.set(true);
///     h.join();
/// })];
/// let mut sl = SherLock::new(SherLockConfig::default());
/// let report = sl.run_rounds(&tests, 3).unwrap();
/// assert!(report.contains_op(sherlock_trace::OpRef::field_write("Doc", "ready").intern()));
/// ```
pub struct SherLock {
    session: Session,
    round: usize,
    stats: Vec<RoundStats>,
}

impl SherLock {
    /// Creates a fresh session.
    pub fn new(config: SherLockConfig) -> Self {
        SherLock {
            session: Session::new(config),
            round: 0,
            stats: Vec::new(),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> &SherLockConfig {
        self.session.config()
    }

    /// The latest inference report.
    pub fn report(&self) -> &InferenceReport {
        self.session.report()
    }

    /// The accumulated observations.
    pub fn observations(&self) -> &Observations {
        self.session.observations()
    }

    /// The underlying incremental session.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Ends the driver and hands back its session, e.g. to absorb traces
    /// produced outside the driver (explored schedules) and re-solve.
    pub fn into_session(self) -> Session {
        self.session
    }

    /// Per-round diagnostics.
    pub fn stats(&self) -> &[RoundStats] {
        &self.stats
    }

    /// Rounds completed.
    pub fn rounds_completed(&self) -> usize {
        self.round
    }

    /// Executes one round: runs every test once (with the Perturber's delay
    /// plan from the previous round), accumulates observations, and re-solves.
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`] from the Solver.
    pub fn run_round(&mut self, tests: &[TestCase]) -> Result<&InferenceReport, LpError> {
        let _round = obs::span("driver.round");
        obs::counter!("driver.rounds").incr();
        let config = self.session.config().clone();
        if !config.feedback.accumulate {
            self.session.clear_observations();
        }
        let plan = {
            let _s = obs::span("phase.perturb");
            if config.feedback.inject_delays && self.round > 0 {
                perturber::delay_plan_with_probability(
                    self.session.report(),
                    config.delay,
                    config.delay_probability,
                )
            } else {
                DelayPlan::none()
            }
        };

        let mut stats = RoundStats::default();
        for (i, test) in tests.iter().enumerate() {
            let seed = config
                .base_seed
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .wrapping_add((self.round as u64) << 32)
                .wrapping_add(i as u64);
            let mut sim_cfg = SimConfig::with_seed(seed);
            sim_cfg.instrument = config.instrument.clone();
            sim_cfg.delay_plan = plan.clone();

            let run = {
                let _s = obs::span("phase.observe");
                obs::counter!("driver.tests_run").incr();
                test.run(sim_cfg)
            };

            let absorbed = self.session.absorb_trace(&run.trace);
            stats.events += absorbed.events;
            stats.windows_extracted += absorbed.windows_extracted;
            stats.racy_windows += absorbed.racy_windows;
            stats.confirmations += absorbed.confirmations;
            stats.exclusions += absorbed.exclusions;
            stats.panics += run.panics.len();
        }
        obs::counter!("windows.racy").add(stats.racy_windows as u64);

        self.session.solve()?;
        self.round += 1;
        obs::debug!(
            "driver",
            "round {} done: {} events, {} windows ({} racy), {} confirmations, {} exclusions",
            self.round,
            stats.events,
            stats.windows_extracted,
            stats.racy_windows,
            stats.confirmations,
            stats.exclusions
        );
        self.stats.push(stats);
        drop(_round);
        self.session.refresh_telemetry();
        Ok(self.session.report())
    }

    /// Runs `rounds` full rounds (3 in the paper) and returns the final
    /// report.
    ///
    /// # Errors
    ///
    /// Propagates [`LpError`] from the Solver.
    pub fn run_rounds(
        &mut self,
        tests: &[TestCase],
        rounds: usize,
    ) -> Result<InferenceReport, LpError> {
        for _ in 0..rounds {
            self.run_round(tests)?;
        }
        Ok(self.session.report().clone())
    }
}

/// Convenience: a full default-configured session.
///
/// # Errors
///
/// Propagates [`LpError`] from the Solver.
pub fn infer(tests: &[TestCase], rounds: usize) -> Result<InferenceReport, LpError> {
    SherLock::new(SherLockConfig::default()).run_rounds(tests, rounds)
}

/// Convenience: a default-configured session whose simulator schedules
/// derive from `base_seed` — the entry point for generated test cases
/// (fleet apps), where each app pins its own seed so inference over it is
/// reproducible independent of which other apps ran first.
///
/// # Errors
///
/// Propagates [`LpError`] from the Solver.
pub fn infer_seeded(
    tests: &[TestCase],
    rounds: usize,
    base_seed: u64,
) -> Result<InferenceReport, LpError> {
    let cfg = SherLockConfig {
        base_seed,
        ..SherLockConfig::default()
    };
    SherLock::new(cfg).run_rounds(tests, rounds)
}
