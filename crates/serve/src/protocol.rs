//! The `sherlock-serve` wire protocol: line-delimited JSON over TCP.
//!
//! Every request is one JSON object on one line; every request produces
//! exactly one response line, delivered in request order per connection
//! (the server reassembles out-of-order worker completions). Shared
//! request fields:
//!
//! ```json
//! {"id": 7, "type": "absorb_trace", "session": "App-3",
//!  "deadline_ms": 2000, ...}
//! ```
//!
//! * `id` — echoed verbatim in the response (any JSON value; `null` when
//!   omitted). Clients use it to correlate.
//! * `type` — one of `absorb_trace`, `solve`, `race_check`, `explore`,
//!   `stats`, `metrics`, `ping`, `shutdown`.
//! * `session` — the session-store key (accumulated observations live per
//!   key); defaults to `"default"`. Ignored by
//!   `stats`/`metrics`/`shutdown`.
//! * `deadline_ms` — optional queueing deadline: if the request waits
//!   longer than this before a worker picks it up, it fails with
//!   `"deadline exceeded"` instead of running.
//!
//! Responses are `{"id": ..., "ok": true, "type": ..., ...}` on success and
//! `{"id": ..., "ok": false, "error": "..."}` on failure. Backpressure is
//! explicit: when the server's bounded queue is full the response is
//! `{"id": ..., "ok": false, "error": "busy", "busy": true}` and the client
//! should retry. A malformed line yields a structured error response with
//! `"id": null` — it never kills the connection. The one exception is a
//! line longer than the store's 64 MiB record cap: it gets the same error
//! shape, and then the server closes that connection.

use sherlock_obs::json::Json;
use sherlock_trace::{json as trace_json, Trace};

/// The per-type payload of a request.
#[derive(Debug)]
pub enum RequestBody {
    /// Feed one trace into the session's observations.
    AbsorbTrace {
        /// The trace, in the `sherlock observe` file shape.
        trace: Trace,
    },
    /// Solve over the session's accumulated observations (memoized).
    Solve,
    /// FastTrack race detection over `trace` under the session's last
    /// solved spec; with `app` set, differential against that app's
    /// ground-truth spec.
    RaceCheck {
        /// The trace to check.
        trace: Trace,
        /// Optional bundled-app id (`App-1`..`App-8`) for differential mode.
        app: Option<String>,
    },
    /// Server-wide statistics.
    Stats,
    /// Live introspection: a full metric snapshot (global + per-session
    /// counters, histogram quantiles, worker-pool queue depths).
    Metrics,
    /// Run a novelty-guided schedule campaign server-side against a bundled
    /// app's workload (see `sherlock_sim::campaign`); optionally absorb the
    /// distinct discovered traces into the session and stream per-batch
    /// progress frames (`"progress": true` lines carrying the request id)
    /// before the final response.
    Explore {
        /// Bundled-app id (`App-1`..`App-8`) or name.
        app: String,
        /// Optional unit-test name within the app; omitted means one
        /// schedule runs the app's whole test suite sequentially.
        test: Option<String>,
        /// Total schedules to run.
        max_schedules: u64,
        /// Campaign base seed (run `r` uses `seed + r`).
        seed: u64,
        /// Campaign worker threads (server-side; default 1).
        jobs: usize,
        /// Runs per bandit batch.
        batch: u64,
        /// log2 of dedup-filter bits; omitted auto-sizes from
        /// `max_schedules`.
        filter_bits: Option<u32>,
        /// Stream per-batch progress frames.
        progress: bool,
        /// Absorb distinct traces into the session after the campaign.
        absorb: bool,
    },
    /// Liveness check; `delay_ms` occupies a worker for that long (load
    /// tests use it to saturate the pool deterministically).
    Ping {
        /// Worker busy-time in milliseconds.
        delay_ms: u64,
    },
    /// Begin graceful drain: stop accepting work, finish the queue, exit.
    Shutdown,
}

impl RequestBody {
    /// The wire name of this request type.
    pub fn type_name(&self) -> &'static str {
        match self {
            RequestBody::AbsorbTrace { .. } => "absorb_trace",
            RequestBody::Solve => "solve",
            RequestBody::RaceCheck { .. } => "race_check",
            RequestBody::Explore { .. } => "explore",
            RequestBody::Stats => "stats",
            RequestBody::Metrics => "metrics",
            RequestBody::Ping { .. } => "ping",
            RequestBody::Shutdown => "shutdown",
        }
    }
}

/// One parsed request.
#[derive(Debug)]
pub struct Request {
    /// Client correlation id, echoed verbatim.
    pub id: Json,
    /// Session-store key.
    pub session: String,
    /// Optional queueing deadline in milliseconds.
    pub deadline_ms: Option<u64>,
    /// The typed payload.
    pub body: RequestBody,
}

/// Session key used when a request omits `session`.
pub const DEFAULT_SESSION: &str = "default";

/// Longest accepted session key, in bytes. Keys become metric labels and
/// (with a data directory) on-disk names; unbounded keys would let one
/// client bloat both.
pub const MAX_SESSION_KEY_LEN: usize = 128;

/// Validates a client-supplied session key before it reaches the store.
///
/// The durable store escapes keys into filesystem-safe names on its own
/// (defense in depth), but hostile keys are rejected at the protocol edge
/// with a structured error so a confused client learns immediately instead
/// of silently writing under a mangled name: no path separators, no `..`,
/// no control bytes, bounded length.
///
/// # Errors
///
/// Returns a human-readable message naming the first violation.
pub fn validate_session_key(key: &str) -> Result<(), String> {
    if key.is_empty() {
        return Err("\"session\" must be a non-empty string".into());
    }
    if key.len() > MAX_SESSION_KEY_LEN {
        return Err(format!("\"session\" exceeds {MAX_SESSION_KEY_LEN} bytes"));
    }
    if key.contains('/') || key.contains('\\') {
        return Err("\"session\" must not contain path separators".into());
    }
    if key.contains("..") {
        return Err("\"session\" must not contain \"..\"".into());
    }
    if key.chars().any(|c| c.is_control()) {
        return Err("\"session\" must not contain control characters".into());
    }
    Ok(())
}

/// A protocol line that is not a valid request.
#[derive(Debug)]
pub struct BadRequest {
    /// The line's `id`, when it parsed as a JSON object carrying one
    /// (`null` otherwise), so the error response still correlates.
    pub id: Json,
    /// Human-readable message naming the first syntax or schema violation.
    pub message: String,
}

impl From<BadRequest> for String {
    fn from(e: BadRequest) -> String {
        e.message
    }
}

/// Parses one protocol line.
///
/// # Errors
///
/// Returns a [`BadRequest`] naming the first syntax or schema violation;
/// the server turns it into a structured error response.
pub fn parse_request(line: &str) -> Result<Request, BadRequest> {
    let doc = Json::parse(line).map_err(|e| BadRequest {
        id: Json::Null,
        message: format!("malformed JSON: {e}"),
    })?;
    request_from(&doc).map_err(|message| BadRequest {
        id: doc.get("id").cloned().unwrap_or(Json::Null),
        message,
    })
}

fn request_from(doc: &Json) -> Result<Request, String> {
    if doc.as_object().is_none() {
        return Err("request must be a JSON object".into());
    }
    let id = doc.get("id").cloned().unwrap_or(Json::Null);
    let session = match doc.get("session") {
        None => DEFAULT_SESSION.to_string(),
        Some(Json::Str(s)) => {
            validate_session_key(s).inspect_err(|_| {
                sherlock_obs::counter!("serve.bad_session_key").incr();
            })?;
            s.clone()
        }
        Some(_) => return Err("\"session\" must be a non-empty string".into()),
    };
    let deadline_ms = match doc.get("deadline_ms") {
        None => None,
        Some(v) => Some(
            v.as_u64()
                .ok_or("\"deadline_ms\" must be a nonnegative integer")?,
        ),
    };
    let typ = doc
        .get("type")
        .and_then(Json::as_str)
        .ok_or("missing string \"type\"")?;
    let trace_field = || {
        let v = doc.get("trace").ok_or("missing \"trace\" object")?;
        trace_json::from_value(v).map_err(|e| format!("bad trace: {e}"))
    };
    let body = match typ {
        "absorb_trace" => RequestBody::AbsorbTrace {
            trace: trace_field()?,
        },
        "solve" => RequestBody::Solve,
        "race_check" => RequestBody::RaceCheck {
            trace: trace_field()?,
            app: match doc.get("app") {
                None | Some(Json::Null) => None,
                Some(Json::Str(s)) => Some(s.clone()),
                Some(_) => return Err("\"app\" must be a string".into()),
            },
        },
        "explore" => {
            let opt_u64 = |key: &str, default: u64| -> Result<u64, String> {
                match doc.get(key) {
                    None | Some(Json::Null) => Ok(default),
                    Some(v) => v
                        .as_u64()
                        .ok_or_else(|| format!("{key:?} must be a nonnegative integer")),
                }
            };
            let opt_bool = |key: &str, default: bool| -> Result<bool, String> {
                match doc.get(key) {
                    None | Some(Json::Null) => Ok(default),
                    Some(Json::Bool(b)) => Ok(*b),
                    Some(_) => Err(format!("{key:?} must be a boolean")),
                }
            };
            RequestBody::Explore {
                app: doc
                    .get("app")
                    .and_then(Json::as_str)
                    .ok_or("missing string \"app\"")?
                    .to_string(),
                test: match doc.get("test") {
                    None | Some(Json::Null) => None,
                    Some(Json::Str(s)) => Some(s.clone()),
                    Some(_) => return Err("\"test\" must be a string".into()),
                },
                max_schedules: opt_u64("max_schedules", 1024)?,
                seed: opt_u64("seed", 0)?,
                jobs: opt_u64("jobs", 1)? as usize,
                batch: opt_u64("batch", 64)?,
                filter_bits: match doc.get("filter_bits") {
                    None | Some(Json::Null) => None,
                    Some(v) => Some(
                        v.as_u64()
                            .ok_or("\"filter_bits\" must be a nonnegative integer")?
                            as u32,
                    ),
                },
                progress: opt_bool("progress", false)?,
                absorb: opt_bool("absorb", true)?,
            }
        }
        "stats" => RequestBody::Stats,
        "metrics" => RequestBody::Metrics,
        "ping" => RequestBody::Ping {
            delay_ms: match doc.get("delay_ms") {
                None => 0,
                Some(v) => v.as_u64().ok_or("\"delay_ms\" must be an integer")?,
            },
        },
        "shutdown" => RequestBody::Shutdown,
        other => return Err(format!("unknown request type {other:?}")),
    };
    Ok(Request {
        id,
        session,
        deadline_ms,
        body,
    })
}

/// Builds a success response line (no trailing newline).
pub fn ok_response(id: &Json, typ: &str, mut fields: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
        ("type".to_string(), Json::from(typ)),
    ];
    members.append(&mut fields);
    Json::Obj(members).render()
}

/// Builds an incremental progress frame (no trailing newline): shaped like
/// a success response but carrying `"progress": true`, so clients that read
/// line-by-line can tell it apart from the request's final response. Frames
/// are written directly to the connection as they happen — they bypass the
/// per-connection response-ordering buffer, so a pipelined client may see
/// frames for one request interleaved between other requests' responses
/// (each frame is still one complete line carrying its request's id).
pub fn progress_frame(id: &Json, typ: &str, mut fields: Vec<(String, Json)>) -> String {
    let mut members = vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(true)),
        ("type".to_string(), Json::from(typ)),
        ("progress".to_string(), Json::Bool(true)),
    ];
    members.append(&mut fields);
    Json::Obj(members).render()
}

/// Builds a failure response line (no trailing newline).
pub fn error_response(id: &Json, error: &str) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from(error)),
    ])
    .render()
}

/// Builds the explicit-backpressure response line (no trailing newline).
pub fn busy_response(id: &Json) -> String {
    Json::Obj(vec![
        ("id".to_string(), id.clone()),
        ("ok".to_string(), Json::Bool(false)),
        ("error".to_string(), Json::from("busy")),
        ("busy".to_string(), Json::Bool(true)),
    ])
    .render()
}

/// Client-side view of one response line.
#[derive(Clone, Debug)]
pub struct ParsedResponse {
    /// The echoed correlation id.
    pub id: Json,
    /// Whether the request succeeded.
    pub ok: bool,
    /// Explicit-backpressure marker (`error == "busy"`).
    pub busy: bool,
    /// Incremental progress frame (not the request's final response).
    pub progress: bool,
    /// Error message when `ok` is false.
    pub error: Option<String>,
    /// The full response document.
    pub doc: Json,
}

/// Parses one response line (the client half of the protocol; the load
/// generator and tests use this).
///
/// # Errors
///
/// Returns a message when the line is not a JSON object with a boolean
/// `ok`.
pub fn parse_response(line: &str) -> Result<ParsedResponse, String> {
    let doc = Json::parse(line).map_err(|e| format!("malformed response: {e}"))?;
    let ok = match doc.get("ok") {
        Some(Json::Bool(b)) => *b,
        _ => return Err("response missing boolean \"ok\"".into()),
    };
    Ok(ParsedResponse {
        id: doc.get("id").cloned().unwrap_or(Json::Null),
        ok,
        busy: matches!(doc.get("busy"), Some(Json::Bool(true))),
        progress: matches!(doc.get("progress"), Some(Json::Bool(true))),
        error: doc.get("error").and_then(Json::as_str).map(str::to_string),
        doc,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_requests() {
        let r = parse_request(r#"{"type":"solve"}"#).unwrap();
        assert_eq!(r.session, DEFAULT_SESSION);
        assert_eq!(r.id, Json::Null);
        assert!(matches!(r.body, RequestBody::Solve));

        let r = parse_request(r#"{"id":3,"type":"ping","session":"s1","deadline_ms":50}"#).unwrap();
        assert_eq!(r.id, Json::Num(3.0));
        assert_eq!(r.session, "s1");
        assert_eq!(r.deadline_ms, Some(50));
        assert!(matches!(r.body, RequestBody::Ping { delay_ms: 0 }));
    }

    #[test]
    fn parses_absorb_with_embedded_trace() {
        let line = r#"{"id":"a","type":"absorb_trace","trace":{"events":[],"delays":[]}}"#;
        let r = parse_request(line).unwrap();
        match r.body {
            RequestBody::AbsorbTrace { trace } => assert_eq!(trace.len(), 0),
            other => panic!("wrong body: {other:?}"),
        }
    }

    #[test]
    fn rejects_malformed_lines_with_messages() {
        assert!(parse_request("not json").is_err());
        assert!(parse_request("[1,2]").is_err());
        assert!(parse_request(r#"{"type":"warp"}"#)
            .unwrap_err()
            .message
            .contains("unknown request type"));
        assert!(parse_request(r#"{"type":"absorb_trace"}"#)
            .unwrap_err()
            .message
            .contains("trace"));
        assert!(parse_request(r#"{"type":"solve","session":""}"#).is_err());
        // The id travels with the error once the line parses as JSON.
        assert_eq!(
            parse_request(r#"{"id":9,"type":"warp"}"#).unwrap_err().id,
            Json::from(9u64)
        );
        assert_eq!(parse_request("{\"id\":9").unwrap_err().id, Json::Null);
    }

    #[test]
    fn raw_control_characters_in_client_lines_are_rejected() {
        for line in [
            "{\"type\":\"solve\",\"session\":\"a\nb\"}",
            "{\"type\":\"solve\",\"session\":\"a\u{1}b\"}",
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(
                err.message.starts_with("malformed JSON") && err.message.contains("control"),
                "{line:?}: {}",
                err.message
            );
        }
    }

    #[test]
    fn hostile_session_keys_are_rejected_with_structured_errors() {
        let reject = |key: &str, needle: &str| {
            let line = format!(
                r#"{{"type":"solve","session":{}}}"#,
                Json::from(key).render()
            );
            let err = parse_request(&line).unwrap_err().message;
            assert!(err.contains(needle), "{key:?}: {err}");
        };
        reject("..", "..");
        reject("a..b", "..");
        reject("../other", "path separator");
        reject("a/b", "path separator");
        reject("a\\b", "path separator");
        reject("tab\there", "control");
        reject("nul\u{0}", "control");
        reject(&"x".repeat(MAX_SESSION_KEY_LEN + 1), "exceeds");
        // The counter tracks every rejection above.
        assert!(sherlock_obs::counter!("serve.bad_session_key").get() >= 6);

        // Ordinary keys — including dots that are not `..` — still pass.
        for key in ["default", "App-3", "my.app.v2", "x"] {
            assert!(validate_session_key(key).is_ok(), "{key:?}");
        }
        let r = parse_request(r#"{"type":"solve","session":"my.app.v2"}"#).unwrap();
        assert_eq!(r.session, "my.app.v2");
    }

    #[test]
    fn parses_explore_requests() {
        let r = parse_request(r#"{"id":1,"type":"explore","app":"App-3"}"#).unwrap();
        match r.body {
            RequestBody::Explore {
                app,
                test,
                max_schedules,
                seed,
                jobs,
                batch,
                filter_bits,
                progress,
                absorb,
            } => {
                assert_eq!(app, "App-3");
                assert_eq!(test, None);
                assert_eq!(max_schedules, 1024);
                assert_eq!(seed, 0);
                assert_eq!(jobs, 1);
                assert_eq!(batch, 64);
                assert_eq!(filter_bits, None);
                assert!(!progress);
                assert!(absorb, "absorb defaults on");
            }
            other => panic!("wrong body: {other:?}"),
        }

        let r = parse_request(
            r#"{"type":"explore","app":"App-1","test":"t1","max_schedules":200,
                "seed":7,"jobs":2,"batch":32,"filter_bits":18,"progress":true,
                "absorb":false}"#,
        )
        .unwrap();
        match r.body {
            RequestBody::Explore {
                test,
                max_schedules,
                filter_bits,
                progress,
                absorb,
                ..
            } => {
                assert_eq!(test.as_deref(), Some("t1"));
                assert_eq!(max_schedules, 200);
                assert_eq!(filter_bits, Some(18));
                assert!(progress && !absorb);
            }
            other => panic!("wrong body: {other:?}"),
        }

        assert!(parse_request(r#"{"type":"explore"}"#)
            .unwrap_err()
            .message
            .contains("app"));
        assert!(parse_request(r#"{"type":"explore","app":"App-1","batch":-1}"#).is_err());
    }

    #[test]
    fn progress_frames_are_distinguishable() {
        let frame = progress_frame(
            &Json::Num(4.0),
            "explore",
            vec![("runs".to_string(), Json::from(64u64))],
        );
        let p = parse_response(&frame).unwrap();
        assert!(p.ok && p.progress && !p.busy);
        assert_eq!(p.doc.get("runs").unwrap().as_u64(), Some(64));
        // Final responses never carry the marker.
        let done = parse_response(&ok_response(&Json::Num(4.0), "explore", vec![])).unwrap();
        assert!(done.ok && !done.progress);
    }

    #[test]
    fn response_round_trip() {
        let ok = ok_response(
            &Json::Num(9.0),
            "solve",
            vec![("windows".to_string(), Json::from(4u64))],
        );
        let p = parse_response(&ok).unwrap();
        assert!(p.ok && !p.busy);
        assert_eq!(p.id, Json::Num(9.0));
        assert_eq!(p.doc.get("windows").unwrap().as_u64(), Some(4));

        let busy = parse_response(&busy_response(&Json::Null)).unwrap();
        assert!(!busy.ok && busy.busy);

        let err = parse_response(&error_response(&Json::Null, "nope")).unwrap();
        assert!(!err.ok && !err.busy);
        assert_eq!(err.error.as_deref(), Some("nope"));
    }
}
