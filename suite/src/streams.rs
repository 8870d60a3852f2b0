//! Seeded inputs: mixing, the trace pools the serve workloads replay, and
//! their request streams. Everything here is a pure function of `--seed`,
//! so two runs with one seed send byte-identical requests.

use std::collections::HashSet;

use sherlock_fleet::{generate, GeneratedApp, GrammarConfig};
use sherlock_sim::rng::SplitMix64;
use sherlock_sim::SimConfig;
use sherlock_trace::{json as trace_json, Trace};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// Folds `bytes` into an FNV-1a 64-bit digest.
pub fn fnv1a(digest: u64, bytes: &[u8]) -> u64 {
    bytes.iter().fold(digest, |d, &b| {
        (d ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// A seed for one purpose (`salt`) derived from the run's seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    SplitMix64::new(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ salt).next_u64()
}

/// Uniform draw from `[0, 1)`.
fn unit(rng: &mut SplitMix64) -> f64 {
    (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64
}

/// Seed of the fixed app catalogue every workload draws from (the CI fleet
/// gate's base seed). The catalogue does not change with `--seed`, so runs
/// with different seeds exercise the same apps — their schedules, traces
/// and request order differ — and cost the same within noise.
pub const CATALOGUE: u64 = 0xf1ee7;

/// A seeded permutation of `0..n`.
pub fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut rng = SplitMix64::new(seed);
    let mut order: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        order.swap(i, rng.gen_index(i + 1));
    }
    order
}

/// One catalogue app's traces, each also rendered once as the JSON value a
/// request carries.
pub struct PoolApp {
    pub traces: Vec<Trace>,
    pub rendered: Vec<String>,
}

/// Up to `n` pairwise-distinct traces (distinct content, so a session's
/// window memo never hits) from runs of `app`'s tests under scheduling
/// seeds derived from `seed`.
fn distinct_traces(app: &GeneratedApp, seed: u64, n: usize) -> Vec<Trace> {
    let mut seen = HashSet::new();
    let mut kept = Vec::with_capacity(n);
    for attempt in 0..n as u64 * 8 {
        if kept.len() == n {
            break;
        }
        let test = &app.tests[attempt as usize % app.tests.len()];
        let trace = test
            .run(SimConfig::with_seed(mix(seed, app.seed ^ attempt)))
            .trace;
        if seen.insert(trace.stable_hash()) {
            kept.push(trace);
        }
    }
    kept
}

/// `apps` catalogue apps (salted per workload) with `traces` traces each,
/// drawn under `seed`. An app joins the catalogue when its tests yield that
/// many distinct traces under the catalogue's own seed; a run seed that
/// yields fewer (rare) cycles the ones it found.
pub fn pool(seed: u64, salt: u64, apps: usize, traces: usize) -> Vec<PoolApp> {
    let mut draw = SplitMix64::new(CATALOGUE ^ salt);
    let mut out = Vec::with_capacity(apps);
    while out.len() < apps {
        let app = generate(&GrammarConfig::default(), draw.next_u64());
        if distinct_traces(&app, CATALOGUE, traces).len() < traces {
            continue;
        }
        let found = distinct_traces(&app, seed, traces);
        let kept: Vec<Trace> = found.iter().cycle().take(traces).cloned().collect();
        let rendered = kept
            .iter()
            .map(|t| trace_json::to_value(t).render())
            .collect();
        out.push(PoolApp {
            traces: kept,
            rendered,
        });
    }
    out
}

/// What a request asks of its session; trace indices point into the
/// session's pool app.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    Absorb(usize),
    Solve,
    RaceCheck(usize),
}

/// One request of a stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Req {
    /// Session number; the session key and pool app derive from it.
    pub key: u64,
    pub op: Op,
    /// The session's first solve, which meets it cold: no warm-start
    /// basis, and after a restart no state in memory.
    pub cold: bool,
    /// A solve whose spec the run checks against a direct `Session`.
    pub check: bool,
}

/// The request line for `req`, with `traces` the rendered traces of the
/// session's pool app.
pub fn line(id: u64, session: &str, op: Op, traces: &[String]) -> String {
    match op {
        Op::Absorb(t) => format!(
            r#"{{"id":{id},"type":"absorb_trace","session":"{session}","trace":{}}}"#,
            traces[t]
        ),
        Op::Solve => format!(r#"{{"id":{id},"type":"solve","session":"{session}"}}"#),
        Op::RaceCheck(t) => format!(
            r#"{{"id":{id},"type":"race_check","session":"{session}","trace":{}}}"#,
            traces[t]
        ),
    }
}

/// Traces a `serve-ingest` session absorbs over its life.
pub const INGEST_TRACES: usize = 24;
/// Absorbs between solves.
pub const INGEST_SOLVE_EVERY: usize = 4;
/// Requests in one session's life: every absorb, a solve after every
/// fourth, and one race check at the end.
pub const INGEST_SCRIPT: usize = INGEST_TRACES + INGEST_TRACES / INGEST_SOLVE_EVERY + 1;

/// Step `s` of a `serve-ingest` session's life.
pub fn ingest_step(s: usize) -> Op {
    let block = INGEST_SOLVE_EVERY + 1;
    if s == INGEST_SCRIPT - 1 {
        Op::RaceCheck(0)
    } else if s % block == INGEST_SOLVE_EVERY {
        Op::Solve
    } else {
        Op::Absorb(s / block * INGEST_SOLVE_EVERY + s % block)
    }
}

/// `serve-ingest` traffic: `live` sessions served round-robin; a session
/// that finished its life is replaced by a fresh key. The warm-up brings
/// the sessions to evenly staggered ages, so retirements, and with them
/// the cost per request, are spread evenly over the timed window.
pub struct IngestStream {
    slots: Vec<(u64, usize)>,
    next_key: u64,
    cursor: usize,
}

impl IngestStream {
    /// The stream, and the warm-up requests that precede it.
    pub fn new(live: usize) -> (IngestStream, Vec<Req>) {
        let mut warmup = Vec::new();
        let mut slots = Vec::with_capacity(live);
        for s in 0..live {
            let key = s as u64;
            let age = s * INGEST_SCRIPT / live;
            warmup.extend((0..age).map(|step| Self::req(key, step)));
            slots.push((key, age));
        }
        let stream = IngestStream {
            slots,
            next_key: live as u64,
            cursor: 0,
        };
        (stream, warmup)
    }

    fn req(key: u64, step: usize) -> Req {
        Req {
            key,
            op: ingest_step(step),
            cold: step == INGEST_SOLVE_EVERY,
            check: step == INGEST_SCRIPT - 2,
        }
    }
}

impl Iterator for IngestStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let slot = self.cursor % self.slots.len();
        self.cursor += 1;
        let (key, step) = self.slots[slot];
        self.slots[slot] = if step + 1 == INGEST_SCRIPT {
            let fresh = self.next_key;
            self.next_key += 1;
            (fresh, 0)
        } else {
            (key, step + 1)
        };
        Some(Self::req(key, step))
    }
}

/// Traces each `serve-restart` session holds before the restart.
pub const RESTART_POPULATION: usize = 4;
/// Fresh traces per session for absorbs after the restart (cycled).
pub const RESTART_EXTRA: usize = 8;
/// Every this many requests, the first touch of a session.
pub const RESTART_FIRST_EVERY: u64 = 5;
/// Zipf exponent over the touched sessions.
pub const RESTART_ZIPF: f64 = 1.1;
/// Share of the other requests that are solves (the rest absorb).
pub const RESTART_SOLVE_SHARE: f64 = 0.8;

/// `serve-restart` traffic after the restart: every fifth request is a
/// solve on a session not touched yet, the rest pick a touched session by
/// Zipf rank in touch order and solve or absorb. Session `k` replays pool
/// app `k % apps`; first touches go round by round, each round a seeded
/// order of one session per app, so any stretch of first touches spreads
/// over the apps evenly whatever the seed.
pub struct RestartStream {
    order: Vec<u64>,
    touched: Vec<u64>,
    /// `cdf[k]`: Zipf weight of ranks `0..=k`.
    cdf: Vec<f64>,
    absorbed: Vec<usize>,
    rng: SplitMix64,
    n: u64,
}

impl RestartStream {
    pub fn new(sessions: usize, apps: usize, seed: u64) -> RestartStream {
        assert_eq!(sessions % apps, 0, "whole rounds of sessions per app");
        let order = (0..sessions / apps)
            .flat_map(|round| {
                permutation(apps, mix(seed, 0x2e57 + round as u64))
                    .into_iter()
                    .map(move |a| (round * apps + a) as u64)
            })
            .collect();
        let mut acc = 0.0;
        let cdf = (1..=sessions)
            .map(|r| {
                acc += (r as f64).powf(-RESTART_ZIPF);
                acc
            })
            .collect();
        RestartStream {
            order,
            touched: Vec::with_capacity(sessions),
            cdf,
            absorbed: vec![0; sessions],
            rng: SplitMix64::new(mix(seed, 0x21bf)),
            n: 0,
        }
    }

    fn zipf_rank(&mut self, n: usize) -> usize {
        let u = unit(&mut self.rng) * self.cdf[n - 1];
        self.cdf[..n].partition_point(|&c| c < u).min(n - 1)
    }
}

impl Iterator for RestartStream {
    type Item = Req;

    fn next(&mut self) -> Option<Req> {
        let n = self.n;
        self.n += 1;
        if n.is_multiple_of(RESTART_FIRST_EVERY) && self.touched.len() < self.order.len() {
            let key = self.order[self.touched.len()];
            self.touched.push(key);
            return Some(Req {
                key,
                op: Op::Solve,
                cold: true,
                check: true,
            });
        }
        let rank = self.zipf_rank(self.touched.len());
        let key = self.touched[rank];
        let op = if self.rng.gen_bool(RESTART_SOLVE_SHARE) {
            Op::Solve
        } else {
            let a = &mut self.absorbed[key as usize];
            *a += 1;
            Op::Absorb(RESTART_POPULATION + (*a - 1) % RESTART_EXTRA)
        };
        Some(Req {
            key,
            op,
            cold: false,
            check: false,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ingest_script_absorbs_every_trace_then_checks_and_races() {
        let ops: Vec<Op> = (0..INGEST_SCRIPT).map(ingest_step).collect();
        let absorbed: Vec<usize> = ops
            .iter()
            .filter_map(|op| match op {
                Op::Absorb(t) => Some(*t),
                _ => None,
            })
            .collect();
        assert_eq!(absorbed, (0..INGEST_TRACES).collect::<Vec<_>>());
        assert_eq!(ops.iter().filter(|op| **op == Op::Solve).count(), 6);
        assert_eq!(ops[INGEST_SCRIPT - 2], Op::Solve);
        assert_eq!(ops[INGEST_SCRIPT - 1], Op::RaceCheck(0));
    }

    #[test]
    fn ingest_sessions_live_full_scripts_in_order() {
        let (stream, warmup) = IngestStream::new(8);
        let mut steps: std::collections::BTreeMap<u64, Vec<Op>> = Default::default();
        for r in warmup.into_iter().chain(stream.take(8 * INGEST_SCRIPT * 2)) {
            steps.entry(r.key).or_default().push(r.op);
        }
        // Every retired session ran the whole script, step by step.
        let full: Vec<Op> = (0..INGEST_SCRIPT).map(ingest_step).collect();
        let retired = steps
            .values()
            .filter(|ops| ops.len() == INGEST_SCRIPT)
            .count();
        assert!(retired >= 8, "{retired}");
        for ops in steps.values() {
            assert_eq!(ops[..], full[..ops.len()]);
        }
    }

    fn restart_keys(seed: u64, n: usize) -> Vec<(u64, Op)> {
        RestartStream::new(64, 16, seed)
            .take(n)
            .map(|r| (r.key, r.op))
            .collect()
    }

    #[test]
    fn restart_stream_is_a_function_of_the_seed() {
        assert_eq!(restart_keys(1, 3000), restart_keys(1, 3000));
        assert_ne!(restart_keys(1, 3000), restart_keys(2, 3000));
    }

    #[test]
    fn restart_stream_touches_every_session_once_then_favours_low_ranks() {
        let reqs: Vec<Req> = RestartStream::new(64, 16, 9).take(64 * 5 + 2000).collect();
        let firsts: Vec<u64> = reqs.iter().filter(|r| r.cold).map(|r| r.key).collect();
        let mut sorted = firsts.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..64).collect::<Vec<_>>());
        // Each round of 16 first touches covers the 16 apps once.
        for round in firsts.chunks(16) {
            let mut apps: Vec<u64> = round.iter().map(|k| k % 16).collect();
            apps.sort_unstable();
            assert_eq!(apps, (0..16).collect::<Vec<_>>());
        }
        // Zipf over touch order: the first-touched session is the most
        // requested one.
        let mut hits = vec![0usize; 64];
        for r in reqs.iter().filter(|r| !r.cold) {
            hits[r.key as usize] += 1;
        }
        let top = firsts[0] as usize;
        assert!(hits.iter().all(|&h| h <= hits[top]), "{hits:?}");
    }

    fn rendered_stream(seed: u64) -> Vec<String> {
        let apps = pool(seed, 1, 2, 4);
        let (stream, warmup) = IngestStream::new(4);
        let restart = RestartStream::new(8, 2, seed);
        warmup
            .into_iter()
            .chain(stream.take(40))
            .map(|r| {
                let op = match r.op {
                    Op::Absorb(t) => Op::Absorb(t % 4),
                    Op::RaceCheck(t) => Op::RaceCheck(t % 4),
                    Op::Solve => Op::Solve,
                };
                (r.key, op)
            })
            .chain(restart.take(40).map(|r| {
                let op = match r.op {
                    Op::Absorb(t) => Op::Absorb(t % 4),
                    other => other,
                };
                (r.key, op)
            }))
            .enumerate()
            .map(|(id, (key, op))| {
                let app = &apps[key as usize % apps.len()];
                line(id as u64, &format!("s{key}"), op, &app.rendered)
            })
            .collect()
    }

    #[test]
    fn rendered_requests_are_byte_identical_per_seed() {
        let a = rendered_stream(3);
        assert_eq!(a, rendered_stream(3));
        assert_ne!(a, rendered_stream(4));
        assert!(a.iter().any(|l| l.contains("absorb_trace")));
    }

    #[test]
    fn pool_traces_are_distinct() {
        for app in pool(5, 2, 3, 6) {
            let hashes: HashSet<u64> = app.traces.iter().map(Trace::stable_hash).collect();
            assert_eq!(hashes.len(), 6);
        }
    }
}
