//! The real `harpd` as a child process, and a keep-alive connection that
//! sends exact request bytes and times each round trip.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::Path;
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Shutdown token handed to every daemon the benchmark starts.
const TOKEN: &str = "perfbench";

/// One response as the client saw it.
#[derive(Debug, Clone)]
pub struct Reply {
    /// HTTP status.
    pub status: u16,
    /// Body text.
    pub body: String,
    /// Bytes received, head included.
    pub wire_bytes: usize,
    /// Round trip, ns: first byte written to last byte read.
    pub ns: u64,
}

/// A keep-alive loopback connection. When the daemon answers with
/// `connection: close` (it does after every error status), the next
/// request reconnects, and its round trip includes the connect.
pub struct Conn {
    addr: SocketAddr,
    stream: Option<TcpStream>,
    buf: Vec<u8>,
    /// Connections opened after the first.
    pub reconnects: u64,
}

impl Conn {
    /// Connects to `addr`.
    ///
    /// # Errors
    ///
    /// The connect or socket-option failure.
    pub fn connect(addr: SocketAddr) -> std::io::Result<Self> {
        Ok(Self {
            addr,
            stream: Some(open(addr)?),
            buf: Vec::with_capacity(64 * 1024),
            reconnects: 0,
        })
    }

    /// Sends one request and reads its `content-length`-framed response.
    /// A kept-alive connection the daemon closed while idle (its read
    /// timeout) is replaced once: no response byte arrived, so the daemon
    /// never read the request.
    ///
    /// # Errors
    ///
    /// A transport failure or a malformed response.
    pub fn roundtrip(&mut self, request: &[u8]) -> std::io::Result<Reply> {
        let start = Instant::now();
        let reused = self.stream.is_some();
        match self.attempt(request, start) {
            Err(_) if reused && self.buf.is_empty() => self.attempt(request, start),
            result => result,
        }
    }

    fn attempt(&mut self, request: &[u8], start: Instant) -> std::io::Result<Reply> {
        self.buf.clear();
        let result = self.exchange(request, start);
        if result.is_err() {
            self.stream = None;
        }
        result
    }

    fn exchange(&mut self, request: &[u8], start: Instant) -> std::io::Result<Reply> {
        let stream = match &mut self.stream {
            Some(stream) => stream,
            None => {
                self.reconnects += 1;
                self.stream.insert(open(self.addr)?)
            }
        };
        stream.write_all(request)?;
        let mut chunk = [0u8; 16 * 1024];
        let (head_end, content_length) = loop {
            if let Some(pos) = self.buf.windows(4).position(|w| w == b"\r\n\r\n") {
                break (pos + 4, header(&self.buf[..pos], "content-length")?);
            }
            read_more(stream, &mut self.buf, &mut chunk)?;
        };
        while self.buf.len() < head_end + content_length {
            read_more(stream, &mut self.buf, &mut chunk)?;
        }
        let ns = u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let head =
            std::str::from_utf8(&self.buf[..head_end]).map_err(|_| invalid("non-UTF-8 head"))?;
        let status = head
            .split(' ')
            .nth(1)
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| invalid("bad status line"))?;
        if head.to_ascii_lowercase().contains("\r\nconnection: close") {
            self.stream = None;
        }
        Ok(Reply {
            status,
            body: String::from_utf8_lossy(&self.buf[head_end..head_end + content_length])
                .into_owned(),
            wire_bytes: head_end + content_length,
            ns,
        })
    }
}

fn open(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let stream = TcpStream::connect_timeout(&addr, Duration::from_secs(10))?;
    stream.set_nodelay(true)?;
    stream.set_read_timeout(Some(Duration::from_secs(120)))?;
    Ok(stream)
}

fn read_more(stream: &mut TcpStream, buf: &mut Vec<u8>, chunk: &mut [u8]) -> std::io::Result<()> {
    let n = stream.read(chunk)?;
    if n == 0 {
        return Err(invalid("daemon closed the connection mid-response"));
    }
    buf.extend_from_slice(&chunk[..n]);
    Ok(())
}

fn invalid(msg: &str) -> std::io::Error {
    std::io::Error::new(std::io::ErrorKind::InvalidData, msg.to_owned())
}

/// A numeric header of a response head.
fn header(head: &[u8], name: &str) -> std::io::Result<usize> {
    let head = std::str::from_utf8(head).map_err(|_| invalid("non-UTF-8 head"))?;
    head.split("\r\n")
        .find_map(|line| {
            let (key, value) = line.split_once(':')?;
            key.eq_ignore_ascii_case(name)
                .then(|| value.trim().parse().ok())?
        })
        .ok_or_else(|| invalid(&format!("response without {name}")))
}

/// What a drained daemon reported on its way out.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Exit {
    /// Networks still hosted at exit.
    pub networks: u64,
    /// The daemon's `harpd.requests_total` counter.
    pub requests_total: u64,
}

/// A running `harpd --workers 2` on an ephemeral loopback port. Dropping
/// it kills and reaps the process if [`Daemon::shutdown`] did not.
pub struct Daemon {
    child: Option<Child>,
    stdout: BufReader<ChildStdout>,
    /// Where it listens.
    pub addr: SocketAddr,
}

impl Daemon {
    /// Starts `bin` and waits for its "listening" line.
    ///
    /// # Errors
    ///
    /// Spawn failure, or the daemon exiting before it listens.
    pub fn spawn(bin: &Path, scenario_dir: &Path) -> std::io::Result<Self> {
        let mut child = Command::new(bin)
            .args([
                "--addr",
                "127.0.0.1",
                "--port",
                "0",
                "--workers",
                "2",
                "--token",
                TOKEN,
            ])
            .arg("--scenario-dir")
            .arg(scenario_dir)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let addr = line
            .trim()
            .strip_prefix("harpd listening on ")
            .and_then(|a| a.parse().ok());
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(invalid(&format!("harpd did not start: {line:?}")));
        };
        Ok(Self {
            child: Some(child),
            stdout,
            addr,
        })
    }

    /// `VmRSS` of the daemon, bytes.
    #[must_use]
    pub fn rss_bytes(&self) -> u64 {
        self.status_kb("VmRSS:") * 1024
    }

    /// `VmHWM` (peak resident set) of the daemon, bytes.
    #[must_use]
    pub fn peak_rss_bytes(&self) -> u64 {
        self.status_kb("VmHWM:") * 1024
    }

    fn status_kb(&self, key: &str) -> u64 {
        let pid = self.child.as_ref().map_or(0, Child::id);
        proc_status_kb(&format!("/proc/{pid}/status"), key)
    }

    /// Sends the token-guarded `/shutdown` on `conn` (every other
    /// connection must be closed first, or a worker idles on it until its
    /// read timeout) and waits for the drained daemon's final report.
    ///
    /// # Errors
    ///
    /// Transport failure, an unclean exit, or an unreadable report.
    pub fn shutdown(mut self, conn: &mut Conn) -> std::io::Result<Exit> {
        let reply = conn.roundtrip(&crate::seq::raw_request(
            "POST",
            &format!("/shutdown?token={TOKEN}"),
            "",
        ))?;
        if reply.status != 200 {
            return Err(invalid(&format!("shutdown refused: {}", reply.status)));
        }
        let mut report = String::new();
        self.stdout.read_to_string(&mut report)?;
        let status = self.child.take().expect("child is running").wait()?;
        if !status.success() {
            return Err(invalid(&format!("harpd exited uncleanly: {status}")));
        }
        let number_after = |needle: &str| -> Option<u64> {
            let rest = &report[report.find(needle)? + needle.len()..];
            rest.split(|c: char| !c.is_ascii_digit())
                .find(|t| !t.is_empty())?
                .parse()
                .ok()
        };
        match (
            number_after("drained with "),
            number_after("\nharpd_requests_total "),
        ) {
            (Some(networks), Some(requests_total)) => Ok(Exit {
                networks,
                requests_total,
            }),
            _ => Err(invalid("harpd's exit report lacks its counts")),
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Some(mut child) = self.child.take() {
            let _ = child.kill();
            let _ = child.wait();
        }
    }
}

/// A `kB` field of a `/proc/<pid>/status` file, 0 when unreadable.
#[must_use]
pub fn proc_status_kb(path: &str, key: &str) -> u64 {
    std::fs::read_to_string(path)
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(key))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}
