//! A child `sherlock serve` process and a protocol connection to it.

use std::io::{self, BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use sherlock_obs::json::Json;
use sherlock_serve::protocol::{parse_response, ParsedResponse};

/// How long a read on a daemon connection may block before the run fails.
const READ_TIMEOUT: Duration = Duration::from_secs(60);
/// How long a drain may take before the daemon is killed.
const DRAIN_TIMEOUT: Duration = Duration::from_secs(60);

/// A running daemon. Dropping it kills the process and waits for it.
pub struct Daemon {
    child: Child,
    /// The daemon's stdout, held open so its final `drained:` line never
    /// meets a closed pipe.
    stdout: BufReader<ChildStdout>,
    addr: SocketAddr,
}

impl Daemon {
    /// Starts `sherlock serve` on an ephemeral port with `flags`, and
    /// returns once it answers a `ping`.
    pub fn spawn(bin: &Path, flags: &[String]) -> io::Result<Daemon> {
        let mut child = Command::new(bin)
            .args(["serve", "--addr", "127.0.0.1:0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        let addr = stdout.read_line(&mut banner).ok().and_then(|_| {
            banner
                .trim()
                .strip_prefix("sherlock-serve listening on ")?
                .parse()
                .ok()
        });
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::new(
                io::ErrorKind::InvalidData,
                format!("unexpected daemon banner {banner:?}"),
            ));
        };
        let daemon = Daemon {
            child,
            stdout,
            addr,
        };
        let resp = daemon.connect()?.call(r#"{"id":"ping","type":"ping"}"#)?;
        if !resp.ok {
            return Err(io::Error::other("daemon refused the first ping"));
        }
        Ok(daemon)
    }

    /// Opens one protocol connection.
    pub fn connect(&self) -> io::Result<Conn> {
        let stream = TcpStream::connect(self.addr)?;
        stream.set_nodelay(true)?;
        stream.set_read_timeout(Some(READ_TIMEOUT))?;
        Ok(Conn {
            reader: BufReader::new(stream.try_clone()?),
            writer: stream,
        })
    }

    /// The daemon's peak resident set size in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        crate::report::peak_rss_mb(&self.child.id().to_string())
    }

    /// Graceful drain over the protocol; waits for the process to exit.
    pub fn shutdown(mut self) -> io::Result<()> {
        self.connect()?
            .call(r#"{"id":"shutdown","type":"shutdown"}"#)?;
        let deadline = Instant::now() + DRAIN_TIMEOUT;
        while self.child.try_wait()?.is_none() {
            if Instant::now() > deadline {
                return Err(io::Error::new(
                    io::ErrorKind::TimedOut,
                    "daemon did not drain",
                ));
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut rest = String::new();
        std::io::Read::read_to_string(&mut self.stdout, &mut rest)?;
        Ok(())
    }

    /// `kill -9`: the crash the restart workload recovers from.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait().map(drop)
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
    }
}

/// One connection: the write half and the buffered read half.
pub struct Conn {
    pub writer: TcpStream,
    pub reader: BufReader<TcpStream>,
}

impl Conn {
    /// Sends one request line and reads its response.
    pub fn call(&mut self, line: &str) -> io::Result<ParsedResponse> {
        self.writer.write_all(format!("{line}\n").as_bytes())?;
        Ok(read_response(&mut self.reader)?.1)
    }

    /// The `stats` document.
    pub fn stats(&mut self) -> io::Result<Json> {
        Ok(self.call(r#"{"id":"stats","type":"stats"}"#)?.doc)
    }

    /// The `metrics` document.
    pub fn metrics(&mut self) -> io::Result<Json> {
        Ok(self.call(r#"{"id":"metrics","type":"metrics"}"#)?.doc)
    }
}

/// Reads one response line, notes when it arrived, then parses it.
pub fn read_response(reader: &mut impl BufRead) -> io::Result<(Instant, ParsedResponse)> {
    let mut line = String::new();
    if reader.read_line(&mut line)? == 0 {
        return Err(io::Error::new(
            io::ErrorKind::UnexpectedEof,
            "daemon closed the connection",
        ));
    }
    let at = Instant::now();
    let resp =
        parse_response(line.trim()).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    Ok((at, resp))
}
