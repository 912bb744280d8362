//! The serving processes: release `htsat-serve` / `htsat-router` children
//! on ephemeral loopback ports, their `/proc` readings, and shutdown.

use crate::stats::{parse_cpu_ticks, parse_vmhwm_kib};
use htsat_serve::json::Json;
use htsat_serve::{Client, ConnectOptions};
use std::io::{BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a child may take to bind, register or exit.
const PROCESS_DEADLINE: Duration = Duration::from_secs(20);

/// Linux reports `/proc/<pid>/stat` CPU times in USER_HZ ticks, which the
/// kernel fixes at 100 per second for userspace on every architecture.
pub const MICROS_PER_TICK: f64 = 10_000.0;

/// Where the release binaries live.
#[derive(Debug, Clone)]
pub struct Bins {
    pub serve: PathBuf,
    pub router: PathBuf,
}

impl Bins {
    pub fn in_dir(dir: &Path) -> Result<Bins, String> {
        let bins = Bins {
            serve: dir.join("htsat-serve"),
            router: dir.join("htsat-router"),
        };
        for bin in [&bins.serve, &bins.router] {
            if !bin.is_file() {
                return Err(format!("missing release binary {}", bin.display()));
            }
        }
        Ok(bins)
    }
}

/// A daemon child process with its bound address. Dropping it kills the
/// process and waits for it; [`Daemon::stop`] asks it to shut down first.
pub struct Daemon {
    child: Child,
    addr: String,
    stderr_drain: Option<JoinHandle<()>>,
}

impl Daemon {
    /// Spawns `bin args…` and waits for its `listening on ADDR` log line.
    pub fn spawn(bin: &Path, args: &[&str]) -> Result<Daemon, String> {
        let mut child = Command::new(bin)
            .args(args)
            .env("HTSAT_LOG", "info")
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::piped())
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let stderr = child.stderr.take().expect("stderr was piped");
        let (tx, rx) = mpsc::channel();
        // Reads the whole log so the child never blocks on a full pipe; the
        // thread ends when the child closes stderr by exiting.
        let stderr_drain = std::thread::spawn(move || {
            for line in BufReader::new(stderr).lines() {
                let Ok(line) = line else { break };
                if let Some(rest) = line.split("listening on ").nth(1) {
                    let addr = rest.split_whitespace().next().unwrap_or("").to_string();
                    let _ = tx.send(addr);
                }
            }
        });
        let mut daemon = Daemon {
            child,
            addr: String::new(),
            stderr_drain: Some(stderr_drain),
        };
        match rx.recv_timeout(PROCESS_DEADLINE) {
            Ok(addr) if !addr.is_empty() => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("{} never reported its address", bin.display())),
        }
    }

    pub fn addr(&self) -> &str {
        &self.addr
    }

    /// A v2 client connected to this daemon.
    pub fn client(&self) -> Result<Client, String> {
        let options = ConnectOptions {
            refused_retries: 10,
            ..ConnectOptions::default()
        };
        let mut client = Client::connect_with(self.addr.as_str(), &options)
            .map_err(|e| format!("connect {}: {e}", self.addr))?;
        client
            .set_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        client
            .hello()
            .map_err(|e| format!("hello {}: {e}", self.addr))?;
        Ok(client)
    }

    /// `utime + stime` of the process (all its threads, live or exited).
    pub fn cpu_ticks(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/stat", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_cpu_ticks(&text).ok_or_else(|| format!("{path}: no utime/stime"))
    }

    /// Peak resident set (`VmHWM`) of the process, KiB.
    pub fn vmhwm_kib(&self) -> Result<u64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let text = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        parse_vmhwm_kib(&text).ok_or_else(|| format!("{path}: no VmHWM"))
    }

    /// Sends `SHUTDOWN` and waits for the process to exit (killing it if it
    /// does not).
    pub fn stop(mut self) {
        if let Ok(mut client) = Client::connect(self.addr.as_str()) {
            let _ = client.shutdown();
        }
        let deadline = Instant::now() + PROCESS_DEADLINE;
        while Instant::now() < deadline {
            if matches!(self.child.try_wait(), Ok(Some(_))) {
                break;
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        // Drop kills a process that is still running and reaps it.
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if !matches!(self.child.try_wait(), Ok(Some(_))) {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
        if let Some(drain) = self.stderr_drain.take() {
            let _ = drain.join();
        }
    }
}

/// One daemon serving clients directly.
pub fn spawn_direct(bins: &Bins) -> Result<Daemon, String> {
    Daemon::spawn(&bins.serve, &["--addr", "127.0.0.1:0", "--threads", "1"])
}

/// A router with two daemons that join it through `--register`.
pub struct RoutedTree {
    pub router: Daemon,
    pub backends: Vec<Daemon>,
}

impl RoutedTree {
    /// Spawns the router and both backends and waits until the router's
    /// discovery map lists both as live.
    pub fn spawn(bins: &Bins) -> Result<RoutedTree, String> {
        let router = Daemon::spawn(&bins.router, &["--addr", "127.0.0.1:0"])?;
        let mut backends = Vec::new();
        for _ in 0..2 {
            backends.push(Daemon::spawn(
                &bins.serve,
                &[
                    "--addr",
                    "127.0.0.1:0",
                    "--threads",
                    "1",
                    "--register",
                    router.addr(),
                ],
            )?);
        }
        let tree = RoutedTree { router, backends };
        let mut client = tree.router.client()?;
        let deadline = Instant::now() + PROCESS_DEADLINE;
        loop {
            let status = client.status().map_err(|e| format!("router status: {e}"))?;
            let live = status
                .get("backends")
                .and_then(Json::as_arr)
                .map_or(0, |backends| {
                    backends
                        .iter()
                        .filter(|b| b.get("live").and_then(Json::as_bool) == Some(true))
                        .count()
                });
            if live >= tree.backends.len() {
                return Ok(tree);
            }
            if Instant::now() > deadline {
                return Err(format!("only {live} backends registered with the router"));
            }
            std::thread::sleep(Duration::from_millis(2));
        }
    }

    /// The backend that holds `fingerprint` (the shard owner).
    pub fn owner(&self, fingerprint_hex: &str) -> Result<&Daemon, String> {
        for backend in &self.backends {
            let status = backend
                .client()?
                .status()
                .map_err(|e| format!("backend status: {e}"))?;
            let holds = status
                .get("entries")
                .and_then(Json::as_arr)
                .is_some_and(|entries| {
                    entries.iter().any(|entry| {
                        entry.get("fingerprint").and_then(Json::as_str) == Some(fingerprint_hex)
                    })
                });
            if holds {
                return Ok(backend);
            }
        }
        Err("no backend holds the loaded formula".to_string())
    }

    /// Stops the backends, then the router.
    pub fn stop(self) {
        for backend in self.backends {
            backend.stop();
        }
        self.router.stop();
    }
}
