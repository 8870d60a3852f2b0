//! The serve workloads without the daemon: the same request lines handled
//! in-process on one thread through the calls a daemon worker makes
//! (`parse_request` → `SessionStore::with_session` → `SessionHandle`
//! absorb/solve → race detection). Its per-request times are service times;
//! a wire latency minus them is time spent waiting.

use std::io;
use std::path::Path;
use std::time::Instant;

use sherlock_core::{Session, SherLockConfig};
use sherlock_racer::{detect, SyncSpec};
use sherlock_serve::protocol::{parse_request, RequestBody};
use sherlock_store::{Oplog, SessionStore, StoreOptions};
use sherlock_trace::json as trace_json;

use crate::spans::Spans;
use crate::streams::{PoolApp, INGEST_SCRIPT};

/// An in-process store plus the benchmark's spans around each call.
pub struct Direct {
    store: SessionStore,
    pub spans: Spans,
    /// Wall time of each request, parse included.
    pub service_ms: Vec<f64>,
    /// Bytes of request lines parsed.
    pub line_bytes: usize,
    /// Time of each `with_session` that rebuilt a session from disk.
    pub rehydrate_ms: Vec<f64>,
    /// A scratch log receiving each absorbed trace as the store records it.
    scratch: Oplog,
    next_op: u64,
    pub oplog_bytes: u64,
}

impl Direct {
    /// A durable store under `dir` with the daemon's store options. An
    /// existing store there is reopened — after a dropped `Direct` that is
    /// the state a killed daemon leaves.
    pub fn open(
        dir: &Path,
        max_sessions: usize,
        snapshot_every: u64,
        traced: bool,
    ) -> io::Result<Direct> {
        let store = SessionStore::open(
            SherLockConfig::default(),
            StoreOptions {
                max_sessions,
                snapshot_every,
                data_dir: Some(dir.join("store")),
                ..StoreOptions::default()
            },
        )?;
        let scratch_path = dir.join("scratch-oplog.bin");
        let _ = std::fs::remove_file(&scratch_path);
        Ok(Direct {
            store,
            spans: Spans::new(traced),
            service_ms: Vec::new(),
            line_bytes: 0,
            rehydrate_ms: Vec::new(),
            scratch: Oplog::open(&scratch_path)?.0,
            next_op: 1,
            oplog_bytes: 0,
        })
    }

    /// Handles one request line; returns a solve's rendered spec.
    pub fn serve(&mut self, line: &str) -> Result<Option<String>, String> {
        let start = Instant::now();
        let request = self.spans.time("trace.parse", || parse_request(line))?;
        self.line_bytes += line.len();
        let rehydrations = self.store.rehydrations();
        let opened = Instant::now();
        self.spans.time("store.open", || {
            self.store.with_session(&request.session, |_| ())
        });
        if self.store.rehydrations() > rehydrations {
            self.rehydrate_ms.push(opened.elapsed().as_secs_f64() * 1e3);
        }
        let spans = &mut self.spans;
        let out = self
            .store
            .with_session(&request.session, |s| match &request.body {
                RequestBody::AbsorbTrace { trace } => {
                    spans.time("core.absorb", || s.absorb_trace(trace));
                    Ok(None)
                }
                RequestBody::Solve => spans.time("core.solve", || {
                    s.solve()
                        .map(|r| Some(r.render()))
                        .map_err(|e| format!("solver failed: {e:?}"))
                }),
                RequestBody::RaceCheck { trace, .. } => spans.time("racer.check", || {
                    let report = s.solve().map_err(|e| format!("solver failed: {e:?}"))?;
                    detect(trace, &SyncSpec::from_report(report));
                    Ok(None)
                }),
                other => Err(format!("unexpected {} request", other.type_name())),
            });
        self.service_ms.push(start.elapsed().as_secs_f64() * 1e3);

        if let RequestBody::AbsorbTrace { trace } = &request.body {
            let payload = format!(
                r#"{{"op":{},"trace":{}}}"#,
                self.next_op,
                trace_json::to_value(trace).render()
            );
            self.next_op += 1;
            let appended = Instant::now();
            let n = self
                .scratch
                .append(payload.as_bytes())
                .map_err(|e| format!("scratch oplog: {e}"))?;
            self.spans
                .add("store.oplog_append", appended.elapsed().as_secs_f64() * 1e3);
            self.oplog_bytes += n;
        }
        out
    }

    /// Snapshots every live session; returns milliseconds per session.
    pub fn persist(&self) -> f64 {
        let start = Instant::now();
        self.store.persist_all();
        crate::stats::ratio(start.elapsed().as_secs_f64() * 1e3, self.store.len() as f64)
    }
}

/// The spec a `serve-ingest` session reports at its checked solve: a
/// `Session` fed the same script (absorbs with a solve after every fourth).
pub fn ingest_spec(app: &PoolApp) -> Result<String, String> {
    let mut session = Session::new(SherLockConfig::default());
    let mut spec = String::new();
    for step in 0..INGEST_SCRIPT - 1 {
        match crate::streams::ingest_step(step) {
            crate::streams::Op::Absorb(t) => {
                session.absorb_trace(&app.traces[t]);
            }
            _ => {
                spec = session
                    .solve()
                    .map_err(|e| format!("solver failed: {e:?}"))?
                    .render();
            }
        }
    }
    Ok(spec)
}

/// The spec a `serve-restart` session reports on its first touch: a
/// `Session` fed the population traces, solved once.
pub fn restart_spec(app: &PoolApp, population: usize) -> Result<String, String> {
    let mut session = Session::new(SherLockConfig::default());
    for trace in &app.traces[..population] {
        session.absorb_trace(trace);
    }
    Ok(session
        .solve()
        .map_err(|e| format!("solver failed: {e:?}"))?
        .render())
}
