//! The `eqpd` daemon as a child process, and the benchmark's
//! connections to it.

use eqpd::json::{obj, Json};
use eqpd::proto::{read_frame, Frame};
use eqpd::Client;
use std::io::{self, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// The daemon settings a workload runs under (recorded in the output).
#[derive(Debug, Clone, Copy)]
pub struct DaemonConfig {
    pub workers: usize,
    pub chunk_steps: usize,
    pub max_resident: usize,
    pub max_in_flight: usize,
    pub max_per_tenant: usize,
}

/// A running `eqpd` process. Dropping it kills the process and waits
/// for it, so no daemon outlives the benchmark, even on a panic.
pub struct Daemon {
    child: Child,
    pub addr: String,
}

impl Daemon {
    /// Starts `bin` on a fresh journal in `dir` and waits until it
    /// answers a `stats` request. Returns the daemon and the time from
    /// spawn to ready.
    pub fn start(bin: &Path, dir: &Path, cfg: &DaemonConfig) -> io::Result<(Daemon, Duration)> {
        let _ = std::fs::remove_dir_all(dir);
        std::fs::create_dir_all(dir)?;
        let journal = dir.join("journal");
        let port_file = dir.join("port");
        let t0 = Instant::now();
        let child = Command::new(bin)
            .arg("--journal")
            .arg(&journal)
            .arg("--port-file")
            .arg(&port_file)
            .args(["--workers", &cfg.workers.to_string()])
            .args(["--chunk", &cfg.chunk_steps.to_string()])
            .args(["--max-resident", &cfg.max_resident.to_string()])
            .args(["--max-in-flight", &cfg.max_in_flight.to_string()])
            .args(["--max-per-tenant", &cfg.max_per_tenant.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .spawn()?;
        let mut daemon = Daemon {
            child,
            addr: String::new(),
        };
        loop {
            if let Some(status) = daemon.child.try_wait()? {
                return Err(io::Error::other(format!("eqpd exited early: {status}")));
            }
            if t0.elapsed() > Duration::from_secs(30) {
                return Err(io::Error::other("eqpd did not become ready in 30s"));
            }
            let port = std::fs::read_to_string(&port_file)
                .ok()
                .and_then(|t| t.trim().parse::<u16>().ok());
            if let Some(port) = port {
                daemon.addr = format!("127.0.0.1:{port}");
                let mut client = Client::connect(&daemon.addr)?;
                client
                    .call("stats", obj([]))?
                    .map_err(|e| io::Error::other(e.to_string()))?;
                return Ok((daemon, t0.elapsed()));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// One decoded line from the daemon and when it was read.
pub struct Arrival {
    pub at: Instant,
    pub doc: Json,
}

/// A tenant connection: the caller writes requests, a reader thread
/// timestamps every response and event as it arrives.
pub struct Tenant {
    writer: TcpStream,
    pub inbox: Receiver<Arrival>,
    reader: Option<JoinHandle<()>>,
}

impl Tenant {
    pub fn connect(addr: &str) -> io::Result<Tenant> {
        let writer = TcpStream::connect(addr)?;
        writer.set_nodelay(true)?;
        let mut reader = BufReader::new(writer.try_clone()?);
        let (tx, inbox) = mpsc::channel();
        let handle = std::thread::spawn(move || loop {
            match read_frame(&mut reader) {
                Ok(Frame::Line(line)) => {
                    let at = Instant::now();
                    if let Ok(doc) = Json::parse(&line) {
                        if tx.send(Arrival { at, doc }).is_err() {
                            return;
                        }
                    }
                }
                Ok(Frame::Oversized { .. }) => {}
                Ok(Frame::Eof) | Err(_) => return,
            }
        });
        Ok(Tenant {
            writer,
            inbox,
            reader: Some(handle),
        })
    }

    /// Sends one pre-rendered request line.
    pub fn send(&mut self, line: &str) -> io::Result<()> {
        self.writer.write_all(line.as_bytes())
    }
}

impl Drop for Tenant {
    fn drop(&mut self) {
        let _ = self.writer.shutdown(std::net::Shutdown::Both);
        if let Some(h) = self.reader.take() {
            let _ = h.join();
        }
    }
}

/// The working directory of one benchmark run inside the checkout.
pub fn run_dir(out: &Path, name: &str) -> PathBuf {
    out.join(format!("{name}-{}", std::process::id()))
}
