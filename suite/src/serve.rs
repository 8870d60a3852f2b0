//! `serve-ingest` and `serve-restart`: a child `sherlock serve` daemon
//! (`--workers 2`, durable) driven over one TCP connection. `serve-ingest`
//! runs open loop at a fixed rate for 70% of `--seconds` (latency, timed
//! from each request's due time), then closed loop with 16 requests
//! outstanding (capacity). `serve-restart` runs closed loop with one
//! request outstanding per worker for the whole window: clients coming
//! back after a crash, each waiting for its session before going on.

use std::collections::hash_map::{Entry, HashMap};
use std::io;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

use sherlock_obs::json::Json;

use crate::daemon::{Conn, Daemon};
use crate::direct::{self, Direct};
use crate::load::{drive, Pace, Phase, Stop};
use crate::report::Report;
use crate::spans::{solver_layers, Series};
use crate::stats::{self, mean, percentile, ratio};
use crate::streams::{
    self, line, IngestStream, Op, PoolApp, Req, RestartStream, INGEST_TRACES, RESTART_EXTRA,
    RESTART_POPULATION,
};

/// Daemon worker threads.
pub const WORKERS: usize = 2;
/// Requests outstanding in the capacity phase, the warm-up and the
/// population.
pub const OUTSTANDING: usize = 16;
/// Share of an open-loop window run at the fixed rate; the rest measures
/// capacity.
pub const OPEN_SHARE: f64 = 0.7;
/// Above this generator lateness p99 the run measured the generator, not
/// the daemon, and is invalid.
pub const MAX_LATE_P99_MS: f64 = 5.0;

/// `serve-ingest`: offered rate of the open-loop phase.
pub const INGEST_RATE: f64 = 600.0;
/// Sessions alive at once, served round-robin.
pub const INGEST_LIVE: usize = 48;
/// The daemon's `--max-sessions`.
pub const INGEST_MAX_SESSIONS: usize = 64;
/// The daemon's `--snapshot-every`: the default; a session's 24 absorbs
/// never reach it, so sessions snapshot only when spilled or persisted.
pub const INGEST_SNAPSHOT_EVERY: u64 = 256;
/// Generated apps whose traces the sessions absorb.
pub const INGEST_POOL: usize = 128;

/// `serve-restart`: requests outstanding, one per daemon worker.
pub const RESTART_OUTSTANDING: usize = WORKERS;
/// Sessions populated before the restart: more than a window's first
/// touches (every fifth request), so every request of the window sees the
/// same mix.
pub const RESTART_SESSIONS: usize = 1024;
/// The daemon's `--max-sessions`.
pub const RESTART_MAX_SESSIONS: usize = 64;
/// The daemon's `--snapshot-every`: below the population's 4 absorbs, so
/// the sessions still live at the kill hold a snapshot plus a log tail,
/// and every first touch parses a snapshot (and sometimes replays).
pub const RESTART_SNAPSHOT_EVERY: u64 = 3;
/// Generated apps whose traces the sessions absorb.
pub const RESTART_POOL: usize = 256;

/// Window requests a traced run replays in-process (twice: without and
/// with spans), per workload.
pub const INGEST_REPLAYED: usize = 4000;
pub const RESTART_REPLAYED: usize = 600;

/// The daemon binary and the directory a run keeps its files in.
pub struct Env {
    pub bin: PathBuf,
    pub work: PathBuf,
}

fn flags(dir: &Path, max_sessions: usize, snapshot_every: u64) -> Vec<String> {
    vec![
        "--workers".into(),
        WORKERS.to_string(),
        "--max-sessions".into(),
        max_sessions.to_string(),
        "--snapshot-every".into(),
        snapshot_every.to_string(),
        "--data-dir".into(),
        dir.display().to_string(),
    ]
}

/// Request lines for sessions named `<prefix>-<key>`, each absorbing the
/// traces of pool app `key % pool.len()`.
fn renderer<'a>(prefix: &'a str, pool: &'a [PoolApp]) -> impl Fn(u64, &Req) -> String + 'a {
    move |id, r| {
        let app = &pool[r.key as usize % pool.len()];
        line(id, &format!("{prefix}-{}", r.key), r.op, &app.rendered)
    }
}

/// How a timed window sends.
#[derive(Clone, Copy)]
enum Shape {
    /// Open loop at this rate, then the capacity phase.
    Open(f64),
    /// Closed loop with this many requests outstanding throughout.
    Closed(usize),
}

/// The timed window's phases plus the daemon's view of them.
struct Window {
    /// The phase latencies are measured on.
    latency: Phase,
    /// The open-loop window's capacity phase.
    capacity: Option<Phase>,
    stats_before: Json,
    stats_after: Json,
    metrics: Json,
    rss_mb: f64,
}

impl Window {
    fn phases(&self) -> Vec<&Phase> {
        std::iter::once(&self.latency)
            .chain(&self.capacity)
            .collect()
    }

    /// Requests answered per second by a closed loop.
    fn throughput(&self) -> f64 {
        self.capacity.as_ref().unwrap_or(&self.latency).throughput()
    }
}

fn timed_window(
    daemon: &Daemon,
    conn: &mut Conn,
    reqs: &mut dyn Iterator<Item = Req>,
    render: &dyn Fn(u64, &Req) -> String,
    shape: Shape,
    seconds: u64,
) -> io::Result<Window> {
    let window = Duration::from_secs(seconds);
    let stats_before = conn.stats()?;
    let (latency, capacity) = match shape {
        Shape::Open(rate) => {
            let open_for = window.mul_f64(OPEN_SHARE);
            let open = drive(
                conn,
                0,
                reqs,
                render,
                Pace::Rate(rate),
                Stop::After(open_for),
            )?;
            let capacity = drive(
                conn,
                open.sent.len() as u64,
                reqs,
                render,
                Pace::Outstanding(OUTSTANDING),
                Stop::After(window.saturating_sub(open_for)),
            )?;
            (open, Some(capacity))
        }
        Shape::Closed(n) => {
            let closed = drive(
                conn,
                0,
                reqs,
                render,
                Pace::Outstanding(n),
                Stop::After(window),
            )?;
            (closed, None)
        }
    };
    Ok(Window {
        latency,
        capacity,
        stats_before,
        stats_after: conn.stats()?,
        metrics: conn.metrics()?,
        rss_mb: daemon.peak_rss_mb(),
    })
}

/// Counts a phase's requests, refusals and failures.
fn tally(report: &mut Report, name: &str, phase: &Phase) {
    let (ok, busy, failed) = phase.tally();
    report.attempted += phase.sent.len() as u64;
    if busy + failed > 0 {
        let first = phase.received.iter().find_map(|r| r.error.clone());
        report.failed += (busy + failed) as u64;
        report.failures.push(format!(
            "{name}: {busy} busy, {failed} failed (first error: {first:?})"
        ));
    }
    report.note(format!(
        "{name}: sent {} ok {ok} busy {busy} failed {failed}",
        phase.sent.len()
    ));
}

/// Generator lateness p99 of an open-loop window's latency phase; 0 for a
/// closed loop, which has no schedule to keep.
fn late_p99(w: &Window) -> f64 {
    if w.capacity.is_none() {
        return 0.0;
    }
    let mut late = w.latency.lateness_ms();
    stats::sort(&mut late);
    percentile(&late, 0.99)
}

fn end_to_end(report: &mut Report, w: &Window, setups: &[f64]) {
    let mut latency = w.latency.latencies_ms(|_| true);
    stats::sort(&mut latency);
    let mut cold = w.latency.latencies_ms(|r| r.cold);
    stats::sort(&mut cold);
    let late = late_p99(w);
    if late > MAX_LATE_P99_MS {
        report.invalid = Some(format!(
            "generator lateness p99 {late:.2} ms exceeds {MAX_LATE_P99_MS} ms"
        ));
    }
    report.set("throughput_per_s", w.throughput());
    report.set_latency("requests", &latency);
    report.set_cold("first solves per session", &cold);
    report.set("setup_s", stats::median(setups));
    report.set("peak_rss_mb", w.rss_mb);
    report.note(format!("generator lateness p99 {late:.3} ms"));
}

/// Counts the window's requests, refusals and failures per phase.
fn tally_window(report: &mut Report, w: &Window) {
    match &w.capacity {
        Some(capacity) => {
            tally(report, "open", &w.latency);
            tally(report, "capacity", capacity);
        }
        None => tally(report, "closed", &w.latency),
    }
}

/// Checks each answered request `check` marks against the spec `want`
/// gives for its pool app.
fn check_specs(
    report: &mut Report,
    phases: &[&Phase],
    pool_len: usize,
    mut want: impl FnMut(usize) -> Result<String, String>,
) -> io::Result<()> {
    let mut expected: HashMap<usize, String> = HashMap::new();
    let mut checked = 0;
    for phase in phases {
        for (s, r) in phase.sent.iter().zip(&phase.received) {
            if !(s.req.check && r.ok) {
                continue;
            }
            let p = s.req.key as usize % pool_len;
            let spec = match expected.entry(p) {
                Entry::Occupied(e) => e.into_mut(),
                Entry::Vacant(e) => e.insert(want(p).map_err(io::Error::other)?),
            };
            report.check(r.spec.as_deref() == Some(spec.as_str()), || {
                format!(
                    "session {} answered a different spec than a direct Session",
                    s.req.key
                )
            });
            checked += 1;
        }
    }
    report.note(format!("{checked} solves checked against direct Sessions"));
    Ok(())
}

/// Set-ups run `crate::SETUPS` times; each returns what the window needs
/// and the set-up before it is shut down, untimed.
fn repeat_setup<T>(
    mut setup: impl FnMut(usize) -> io::Result<(Daemon, T)>,
) -> io::Result<(Daemon, T, Vec<f64>)> {
    let mut times = Vec::new();
    let mut live: Option<(Daemon, T)> = None;
    for k in 0..crate::SETUPS {
        if let Some((daemon, _)) = live.take() {
            daemon.shutdown()?;
        }
        let start = Instant::now();
        live = Some(setup(k)?);
        times.push(start.elapsed().as_secs_f64());
    }
    let (daemon, t) = live.expect("at least one set-up");
    Ok((daemon, t, times))
}

pub fn ingest(env: &Env, seed: u64, seconds: u64, traced: bool) -> io::Result<Report> {
    let mut report = Report::default();
    let (daemon, (mut conn, mut stream, pool, warmup), setups) = repeat_setup(|k| {
        let pool = streams::pool(seed, 0x1a, INGEST_POOL, INGEST_TRACES);
        let dir = env.work.join(format!("ingest-{k}"));
        let daemon = Daemon::spawn(
            &env.bin,
            &flags(&dir, INGEST_MAX_SESSIONS, INGEST_SNAPSHOT_EVERY),
        )?;
        let mut conn = daemon.connect()?;
        let (stream, warm) = IngestStream::new(INGEST_LIVE);
        let n = warm.len();
        let warmup = drive(
            &mut conn,
            0,
            &mut warm.into_iter(),
            &renderer("ingest", &pool),
            Pace::Outstanding(OUTSTANDING),
            Stop::Count(n),
        )?;
        Ok((daemon, (conn, stream, pool, warmup)))
    })?;
    let render = renderer("ingest", &pool);
    let w = timed_window(
        &daemon,
        &mut conn,
        &mut stream,
        &render,
        Shape::Open(INGEST_RATE),
        seconds,
    )?;
    drop(conn);
    daemon.shutdown()?;

    tally(&mut report, "warm-up", &warmup);
    tally_window(&mut report, &w);
    let phases: Vec<&Phase> = std::iter::once(&warmup).chain(w.phases()).collect();
    check_specs(&mut report, &phases, pool.len(), |p| {
        direct::ingest_spec(&pool[p])
    })?;
    end_to_end(&mut report, &w, &setups);

    if traced {
        // The warm-up and the window's first requests, replayed in-process.
        let lines: Vec<String> = warmup
            .sent
            .iter()
            .enumerate()
            .map(|(i, s)| render(i as u64, &s.req))
            .chain(
                w.latency
                    .sent
                    .iter()
                    .take(INGEST_REPLAYED)
                    .enumerate()
                    .map(|(i, s)| render(i as u64, &s.req)),
            )
            .collect();
        let replay = |name: &str, on: bool| -> io::Result<(Direct, Vec<Option<String>>)> {
            let mut d = Direct::open(
                &env.work.join(name),
                INGEST_MAX_SESSIONS,
                INGEST_SNAPSHOT_EVERY,
                on,
            )?;
            let specs = lines.iter().map(|l| d.serve(l)).collect::<Result<_, _>>();
            Ok((d, specs.map_err(io::Error::other)?))
        };
        let (plain, _) = replay("direct-plain", false)?;
        let base = sherlock_obs::snapshot();
        let (spanned, specs) = replay("direct-traced", true)?;
        let series = Series::since(&base);
        let wire = warmup.received.iter().chain(&w.latency.received);
        for (i, (direct_spec, r)) in specs.iter().zip(wire).enumerate() {
            if let (Some(d), Some(s)) = (direct_spec, &r.spec) {
                report.check(d == s, || {
                    format!("request {i}: wire spec differs from the direct drive")
                });
            }
        }
        serve_layers(
            &mut report,
            &w,
            &plain,
            &spanned,
            &series,
            warmup.sent.len(),
        );
    }
    Ok(report)
}

pub fn restart(env: &Env, seed: u64, seconds: u64, traced: bool) -> io::Result<Report> {
    let mut report = Report::default();
    // Populated from the last session down, so the sessions still live at
    // the kill (a snapshot plus a log tail to replay) are the lowest keys,
    // which the first round of first touches reaches.
    let population: Vec<Req> = (0..RESTART_SESSIONS as u64)
        .rev()
        .flat_map(|key| {
            (0..RESTART_POPULATION).map(move |t| Req {
                key,
                op: Op::Absorb(t),
                cold: false,
                check: false,
            })
        })
        .collect();
    let (daemon, (mut conn, pool, populated), setups) = repeat_setup(|k| {
        let pool = streams::pool(seed, 0x2b, RESTART_POOL, RESTART_POPULATION + RESTART_EXTRA);
        let dir = env.work.join(format!("restart-{k}"));
        let first = Daemon::spawn(
            &env.bin,
            &flags(&dir, RESTART_MAX_SESSIONS, RESTART_SNAPSHOT_EVERY),
        )?;
        let populated = drive(
            &mut first.connect()?,
            0,
            &mut population.iter().copied(),
            &renderer("restart", &pool),
            Pace::Outstanding(OUTSTANDING),
            Stop::Count(population.len()),
        )?;
        first.kill()?;
        let daemon = Daemon::spawn(
            &env.bin,
            &flags(&dir, RESTART_MAX_SESSIONS, RESTART_SNAPSHOT_EVERY),
        )?;
        let conn = daemon.connect()?;
        Ok((daemon, (conn, pool, populated)))
    })?;
    let render = renderer("restart", &pool);
    let mut stream = RestartStream::new(RESTART_SESSIONS, RESTART_POOL, seed);
    let w = timed_window(
        &daemon,
        &mut conn,
        &mut stream,
        &render,
        Shape::Closed(RESTART_OUTSTANDING),
        seconds,
    )?;
    drop(conn);
    daemon.shutdown()?;

    tally(&mut report, "population", &populated);
    tally_window(&mut report, &w);
    check_specs(&mut report, &w.phases(), pool.len(), |p| {
        direct::restart_spec(&pool[p], RESTART_POPULATION)
    })?;
    end_to_end(&mut report, &w, &setups);

    if traced {
        let population_lines: Vec<String> = population
            .iter()
            .enumerate()
            .map(|(i, r)| render(i as u64, r))
            .collect();
        let lines: Vec<String> = w
            .latency
            .sent
            .iter()
            .take(RESTART_REPLAYED)
            .enumerate()
            .map(|(i, s)| render(i as u64, &s.req))
            .collect();
        // Populate, drop the store unpersisted (what `kill -9` leaves on
        // disk), reopen and replay the window's first requests.
        let replay = |name: &str, on: bool| -> io::Result<(Direct, Series)> {
            let dir = env.work.join(name);
            let mut populate =
                Direct::open(&dir, RESTART_MAX_SESSIONS, RESTART_SNAPSHOT_EVERY, false)?;
            for l in &population_lines {
                populate.serve(l).map_err(io::Error::other)?;
            }
            drop(populate);
            let base = sherlock_obs::snapshot();
            let mut d = Direct::open(&dir, RESTART_MAX_SESSIONS, RESTART_SNAPSHOT_EVERY, on)?;
            for l in &lines {
                d.serve(l).map_err(io::Error::other)?;
            }
            Ok((d, Series::since(&base)))
        };
        let (plain, _) = replay("direct-plain", false)?;
        let (spanned, series) = replay("direct-traced", true)?;
        serve_layers(&mut report, &w, &plain, &spanned, &series, 0);
    }
    Ok(report)
}

/// A daemon counter's increase over the window.
fn daemon_delta(w: &Window, name: &str) -> f64 {
    let get = |doc: &Json| {
        doc.get("counters")
            .and_then(|c| c.get(name))
            .and_then(Json::as_f64)
            .unwrap_or(0.0)
    };
    get(&w.stats_after) - get(&w.stats_before)
}

/// A field of one of the daemon's histogram summaries.
fn daemon_hist(w: &Window, name: &str, field: &str) -> f64 {
    w.metrics
        .get("histograms")
        .and_then(|h| h.get(name))
        .and_then(|h| h.get(field))
        .and_then(Json::as_f64)
        .unwrap_or(0.0)
}

/// Per-layer metrics of a serve workload. `plain` and `traced` replayed
/// the same lines without and with spans: `skip` requests from before the
/// window, then the window's first requests.
fn serve_layers(
    report: &mut Report,
    w: &Window,
    plain: &Direct,
    traced: &Direct,
    series: &Series,
    skip: usize,
) {
    let spans = &traced.spans;
    let persist_ms = traced.persist();
    let requests = daemon_delta(w, "serve.requests");
    let mut service = traced.service_ms[skip..].to_vec();
    let wire: Vec<f64> = (0..service.len())
        .filter_map(|i| w.latency.latency_ms(i))
        .collect();
    stats::sort(&mut service);
    let attributed: f64 = [
        "trace.parse",
        "store.open",
        "core.absorb",
        "core.solve",
        "racer.check",
    ]
    .iter()
    .map(|n| spans.total_ms(n))
    .sum();
    let total = |d: &Direct| d.service_ms.iter().sum::<f64>();
    solver_layers(
        report,
        series,
        spans.count("core.absorb") as f64,
        (spans.count("core.solve") + spans.count("racer.check")) as f64,
    );
    for (name, v) in [
        (
            "trace.parse_ms_per_kb",
            ratio(
                spans.total_ms("trace.parse"),
                traced.line_bytes as f64 / 1024.0,
            ),
        ),
        ("core.absorb_ms", spans.mean_ms("core.absorb")),
        ("store.rehydrate_ms", mean(&traced.rehydrate_ms)),
        (
            "store.replayed_per_rehydrate",
            ratio(
                series.counter("store.replayed_records"),
                series.counter("store.rehydrations"),
            ),
        ),
        ("store.oplog_append_ms", spans.mean_ms("store.oplog_append")),
        (
            "store.oplog_bytes_per_record",
            ratio(
                traced.oplog_bytes as f64,
                spans.count("store.oplog_append") as f64,
            ),
        ),
        ("store.persist_ms_per_session", persist_ms),
        (
            "store.miss_ratio",
            ratio(daemon_delta(w, "store.rehydrations"), requests),
        ),
        ("store.evictions", daemon_delta(w, "store.sessions.evicted")),
        ("store.snapshots", daemon_delta(w, "store.snapshots")),
        (
            "serve.server_p50_ms",
            daemon_hist(w, "serve.request_ns", "p50") / 1e6,
        ),
        (
            "serve.server_p99_ms",
            daemon_hist(w, "serve.request_ns", "p99") / 1e6,
        ),
        ("serve.service_p50_ms", percentile(&service, 0.5)),
        ("serve.wait_ms", mean(&wire) - mean(&service)),
        (
            "serve.batch_mean",
            daemon_hist(w, "serve.batch.size", "mean"),
        ),
        (
            "serve.busy_ratio",
            ratio(daemon_delta(w, "serve.busy"), requests),
        ),
        ("racer.check_ms", spans.mean_ms("racer.check")),
        ("gen.late_p99_ms", late_p99(w)),
        ("attributed_pct", 100.0 * ratio(attributed, total(traced))),
        (
            "trace_overhead_pct",
            100.0 * (ratio(total(traced), total(plain)) - 1.0),
        ),
    ] {
        report.set(name, v);
    }
    report.zero_unreached();
}
