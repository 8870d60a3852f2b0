use sherlock_sim::InstrumentConfig;
use sherlock_trace::Time;

/// Toggles for SherLock's synchronization properties and hypotheses
/// (paper §2), used by the Table 5 ablation study. All enabled by default.
#[derive(Clone, Copy, Debug)]
pub struct Hypotheses {
    /// Mostly-Protected: each acquire/release window probably holds a
    /// synchronization (Eq. 2). Without it the Solver infers nothing.
    pub mostly_protected: bool,
    /// Synchronizations-are-Rare: the regularization (Eq. 3) and
    /// per-occurrence rarity penalty (Eq. 4).
    pub synchronizations_are_rare: bool,
    /// Acquisition-Time-Mostly-Varies: the duration-CV penalty (Eq. 5).
    pub acquisition_time_varies: bool,
    /// Mostly-Paired: the per-class and per-field pairing penalties
    /// (Eqs. 6–7).
    pub mostly_paired: bool,
    /// Read-Acquire & Write-Release: the hard role constraints (Eq. 1) plus
    /// the rule that one operation cannot be both an acquire and a release.
    pub read_acq_write_rel: bool,
    /// Single-Role: a library API serves one synchronization role
    /// (`begin(l)^rel + end(l)^acq ≤ 1`).
    pub single_role: bool,
}

impl Default for Hypotheses {
    fn default() -> Self {
        Hypotheses {
            mostly_protected: true,
            synchronizations_are_rare: true,
            acquisition_time_varies: true,
            mostly_paired: true,
            read_acq_write_rel: true,
            single_role: true,
        }
    }
}

impl Hypotheses {
    /// All hypotheses enabled except the named one (for Table 5 rows).
    pub fn without(name: &str) -> Self {
        let mut h = Hypotheses::default();
        match name {
            "mostly_protected" => h.mostly_protected = false,
            "synchronizations_are_rare" => h.synchronizations_are_rare = false,
            "acquisition_time_varies" => h.acquisition_time_varies = false,
            "mostly_paired" => h.mostly_paired = false,
            "read_acq_write_rel" => h.read_acq_write_rel = false,
            "single_role" => h.single_role = false,
            other => panic!("unknown hypothesis {other:?}"),
        }
        h
    }
}

/// Toggles for the Perturber and cross-run feedback (paper §4.3), used by
/// the Figure 4 study. All enabled by default.
#[derive(Clone, Copy, Debug)]
pub struct Feedback {
    /// Inject 100 ms delays before inferred releases after each round.
    pub inject_delays: bool,
    /// Accumulate constraints and observations across runs (vs. solving each
    /// run in isolation).
    pub accumulate: bool,
    /// Remove Mostly-Protected terms for window pairs observed to race.
    pub race_removal: bool,
}

impl Default for Feedback {
    fn default() -> Self {
        Feedback {
            inject_delays: true,
            accumulate: true,
            race_removal: true,
        }
    }
}

/// Full configuration of a SherLock inference session.
#[derive(Clone, Debug)]
pub struct SherLockConfig {
    /// Trade-off knob between the Mostly-Protected term and every other
    /// hypothesis in the objective (Eq. 8); 0.2 by default, swept in Table 6.
    pub lambda: f64,
    /// The physical-time window pairing conflicting accesses (§4.1); 1 s by
    /// default, swept in Table 7.
    pub near: Time,
    /// Windows allowed per static location pair (15 in the paper).
    pub cap_per_pair: usize,
    /// Delay injected before each inferred release (100 ms in the paper).
    pub delay: Time,
    /// Probability above which a variable counts as an inferred
    /// synchronization.
    pub threshold: f64,
    /// Coefficient of the rarity penalty (0.1 in Eq. 4).
    pub rare_coefficient: f64,
    /// Base seed; each (round, test) pair derives its own scheduling seed.
    pub base_seed: u64,
    /// Property/hypothesis ablation switches.
    pub hypotheses: Hypotheses,
    /// Perturber/feedback ablation switches.
    pub feedback: Feedback,
    /// Probability with which each dynamic release instance is delayed
    /// (1.0 = always, the paper's default; the paper's footnote 1 reports
    /// probabilistic injection made little difference).
    pub delay_probability: f64,
    /// Encode Single-Role as a soft penalty instead of a hard constraint —
    /// the extension §5.5 proposes to recover `UpgradeToWriterLock`-style
    /// double-role APIs.
    pub soft_single_role: bool,
    /// Observer instrumentation behaviour.
    pub instrument: InstrumentConfig,
}

impl Default for SherLockConfig {
    fn default() -> Self {
        SherLockConfig {
            lambda: 0.2,
            near: Time::from_secs(1),
            cap_per_pair: 15,
            delay: Time::from_millis(100),
            threshold: 0.9,
            rare_coefficient: 0.1,
            base_seed: 0x5eed,
            hypotheses: Hypotheses::default(),
            feedback: Feedback::default(),
            delay_probability: 1.0,
            soft_single_role: false,
            instrument: InstrumentConfig::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_paper() {
        let c = SherLockConfig::default();
        assert_eq!(c.lambda, 0.2);
        assert_eq!(c.near, Time::from_secs(1));
        assert_eq!(c.cap_per_pair, 15);
        assert_eq!(c.delay, Time::from_millis(100));
        assert_eq!(c.rare_coefficient, 0.1);
        assert!(c.hypotheses.mostly_protected);
        assert!(c.feedback.inject_delays);
    }

    #[test]
    fn without_flips_exactly_one() {
        let h = Hypotheses::without("mostly_paired");
        assert!(!h.mostly_paired);
        assert!(h.mostly_protected && h.synchronizations_are_rare);
        assert!(h.acquisition_time_varies && h.read_acq_write_rel && h.single_role);
    }

    #[test]
    #[should_panic(expected = "unknown hypothesis")]
    fn without_rejects_typos() {
        Hypotheses::without("mostly_protcted");
    }
}
