//! The load generator: one connection, this thread writing request lines
//! at their due times, one reader thread matching responses by id.

use std::io::{self, Write};
use std::sync::mpsc::sync_channel;
use std::time::{Duration, Instant};

use sherlock_obs::json::Json;

use crate::daemon::{read_response, Conn};
use crate::streams::Req;

/// When each request is due.
#[derive(Clone, Copy, Debug)]
pub enum Pace {
    /// Open loop: request `i` is due `i / rate` seconds into the phase,
    /// whether or not earlier ones were answered.
    Rate(f64),
    /// Closed loop: a request is due as soon as fewer than this many are
    /// outstanding.
    Outstanding(usize),
}

/// When a phase stops sending.
#[derive(Clone, Copy, Debug)]
pub enum Stop {
    After(Duration),
    Count(usize),
}

/// One request as sent.
pub struct Sent {
    pub req: Req,
    pub due: Instant,
    pub sent: Instant,
}

/// One response as received.
pub struct Received {
    pub at: Instant,
    pub ok: bool,
    pub busy: bool,
    pub error: Option<String>,
    /// A solve's rendered spec.
    pub spec: Option<String>,
}

/// A phase's requests and their responses, index for index.
pub struct Phase {
    pub sent: Vec<Sent>,
    pub received: Vec<Received>,
    pub start: Instant,
}

impl Phase {
    /// Milliseconds from each answered request's due time to its response,
    /// for the requests `keep` selects. Refused and failed requests are
    /// counted elsewhere and have no latency.
    pub fn latencies_ms(&self, keep: impl Fn(&Req) -> bool) -> Vec<f64> {
        (0..self.sent.len())
            .filter(|&i| keep(&self.sent[i].req))
            .filter_map(|i| self.latency_ms(i))
            .collect()
    }

    /// Request `i`'s latency in milliseconds, if it was answered.
    pub fn latency_ms(&self, i: usize) -> Option<f64> {
        let (s, r) = (self.sent.get(i)?, self.received.get(i)?);
        r.ok.then(|| r.at.duration_since(s.due).as_secs_f64() * 1e3)
    }

    /// How late each request left the generator, in milliseconds.
    pub fn lateness_ms(&self) -> Vec<f64> {
        self.sent
            .iter()
            .map(|s| s.sent.duration_since(s.due).as_secs_f64() * 1e3)
            .collect()
    }

    /// Responses per second, from the phase start to the last response.
    pub fn throughput(&self) -> f64 {
        let end = self.received.last().map_or(self.start, |r| r.at);
        self.received.len() as f64 / end.duration_since(self.start).as_secs_f64()
    }

    /// `(ok, busy, failed)` response counts.
    pub fn tally(&self) -> (usize, usize, usize) {
        let ok = self.received.iter().filter(|r| r.ok).count();
        let busy = self.received.iter().filter(|r| r.busy).count();
        (ok, busy, self.received.len() - ok - busy)
    }
}

/// Sends `reqs` over `conn` (ids from `first_id`, lines from `render`)
/// paced by `pace` until `stop`, and collects every response.
pub fn drive(
    conn: &mut Conn,
    first_id: u64,
    reqs: &mut dyn Iterator<Item = Req>,
    render: &dyn Fn(u64, &Req) -> String,
    pace: Pace,
    stop: Stop,
) -> io::Result<Phase> {
    let window = match pace {
        Pace::Outstanding(n) => n,
        Pace::Rate(_) => 0,
    };
    let (token_tx, token_rx) = sync_channel::<()>(window);
    for _ in 0..window {
        token_tx.send(()).expect("receiver alive");
    }
    let Conn { writer, reader } = conn;
    std::thread::scope(|scope| {
        let responses = scope.spawn(move || -> io::Result<Vec<Received>> {
            let mut out = Vec::new();
            loop {
                let (at, resp) = read_response(reader)?;
                if resp.id == Json::from("end") {
                    return Ok(out);
                }
                let expected = first_id + out.len() as u64;
                if resp.id.as_u64() != Some(expected) {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("response id {:?} where {expected} was due", resp.id),
                    ));
                }
                out.push(Received {
                    at,
                    ok: resp.ok,
                    busy: resp.busy,
                    spec: resp
                        .doc
                        .get("spec")
                        .and_then(Json::as_str)
                        .map(str::to_string),
                    error: resp.error,
                });
                if window > 0 {
                    let _ = token_tx.send(());
                }
            }
        });

        let start = Instant::now();
        let mut sent = Vec::new();
        let result = (|| -> io::Result<()> {
            loop {
                let i = sent.len();
                let due_in = match pace {
                    Pace::Rate(rate) => Some(Duration::from_secs_f64(i as f64 / rate)),
                    Pace::Outstanding(_) => None,
                };
                let more = match stop {
                    Stop::Count(n) => i < n,
                    Stop::After(d) => due_in.unwrap_or_else(|| start.elapsed()) < d,
                };
                if !more {
                    return Ok(());
                }
                let req = reqs.next().expect("request streams outlast every phase");
                let line = render(first_id + i as u64, &req) + "\n";
                let due = match due_in {
                    Some(offset) => {
                        let due = start + offset;
                        let now = Instant::now();
                        if due > now {
                            std::thread::sleep(due - now);
                        }
                        due
                    }
                    None => {
                        if token_rx.recv().is_err() {
                            return Ok(()); // the reader stopped; it reports why
                        }
                        Instant::now()
                    }
                };
                writer.write_all(line.as_bytes())?;
                sent.push(Sent {
                    req,
                    due,
                    sent: Instant::now(),
                });
            }
        })();
        let ended = result.and_then(|()| writer.write_all(b"{\"id\":\"end\",\"type\":\"ping\"}\n"));
        let received = responses.join().expect("reader thread panicked")?;
        ended?;
        Ok(Phase {
            sent,
            received,
            start,
        })
    })
}
