use std::fmt;
use std::sync::Arc;

use sherlock_sim::{RunReport, Sim, SimConfig};

/// A named unit test that can be executed repeatedly under the simulator.
///
/// SherLock "runs the unit tests a small number of times with feedback-based
/// delay injection" (paper abstract), so the body must be re-runnable — a
/// shared `Fn` rather than a `FnOnce`.
///
/// ```
/// use sherlock_core::TestCase;
/// use sherlock_sim::SimConfig;
///
/// let t = TestCase::new("trivial", || {});
/// let report = t.run(SimConfig::with_seed(1));
/// assert!(report.is_clean());
/// ```
#[derive(Clone)]
pub struct TestCase {
    name: String,
    body: Arc<dyn Fn() + Send + Sync + 'static>,
}

impl TestCase {
    /// Wraps a test body.
    pub fn new(name: impl Into<String>, body: impl Fn() + Send + Sync + 'static) -> Self {
        TestCase {
            name: name.into(),
            body: Arc::new(body),
        }
    }

    /// The test's name (stable across runs; used for seed derivation).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Executes the test once under the given simulator configuration.
    pub fn run(&self, config: SimConfig) -> RunReport {
        let body = Arc::clone(&self.body);
        Sim::new(config).run(move || body())
    }

    /// A shared handle to the test body, for harnesses that drive their own
    /// simulators (a schedule campaign fans one body across many kernels).
    pub fn body(&self) -> Arc<dyn Fn() + Send + Sync + 'static> {
        Arc::clone(&self.body)
    }
}

impl fmt::Debug for TestCase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TestCase")
            .field("name", &self.name)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    #[test]
    fn test_case_is_rerunnable() {
        let count = Arc::new(AtomicU32::new(0));
        let c = Arc::clone(&count);
        let t = TestCase::new("counter", move || {
            c.fetch_add(1, Ordering::SeqCst);
        });
        t.run(SimConfig::with_seed(1));
        t.run(SimConfig::with_seed(2));
        assert_eq!(count.load(Ordering::SeqCst), 2);
        assert_eq!(t.name(), "counter");
    }
}
