//! The router process: accept loop, shared state, graceful shutdown.

use crate::discovery::DiscoveryMap;
use crate::proxy::session;
use htsat_runtime::StopToken;
use htsat_serve::conn;
use htsat_serve::ConnectOptions;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::AtomicU64;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Configuration of the router.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RouterConfig {
    /// Bind address; port `0` picks an ephemeral port (the bound address
    /// is reported by [`RouterHandle::local_addr`]).
    pub addr: String,
    /// Statically seeded backends (never expire). Most deployments leave
    /// this empty and let daemons announce themselves with `--register`.
    pub backends: Vec<String>,
    /// Allow client `LOAD` requests that name a *router-side* path: the
    /// router reads the file and forwards the DIMACS inline (backends
    /// never see the path). Disabled by default, like the daemon flag.
    pub allow_path_load: bool,
    /// How backend dials behave (connect timeout, refused retry/backoff).
    pub dial: ConnectOptions,
}

impl Default for RouterConfig {
    /// Loopback on an ephemeral port, no static backends, path loads
    /// disabled, quick dials (failover wants to move on fast).
    fn default() -> Self {
        RouterConfig {
            addr: "127.0.0.1:0".to_string(),
            backends: Vec::new(),
            allow_path_load: false,
            dial: ConnectOptions {
                connect_timeout: Some(Duration::from_secs(2)),
                refused_retries: 2,
                initial_backoff: Duration::from_millis(10),
                max_backoff: Duration::from_millis(100),
            },
        }
    }
}

/// Shared state every proxy session works against.
pub(crate) struct RouterState {
    pub(crate) config: RouterConfig,
    pub(crate) discovery: DiscoveryMap,
    pub(crate) stop: StopToken,
    pub(crate) started: Instant,
    pub(crate) connections_served: AtomicU64,
    /// Router-minted subscription ids, globally unique across sessions —
    /// two backends may both hand out `sub` 1, so clients see the
    /// router's numbering instead.
    pub(crate) next_sub: AtomicU64,
}

/// Handle of a running router.
pub struct RouterHandle {
    addr: SocketAddr,
    state: Arc<RouterState>,
    accept: Option<JoinHandle<()>>,
}

/// Starts the router described by `config` and returns its handle.
///
/// The accept loop and every session run on background threads; the call
/// returns as soon as the listener is bound, so callers can read the
/// ephemeral port from [`RouterHandle::local_addr`] immediately.
///
/// # Errors
///
/// Returns the bind error if the address is unusable.
pub fn route(config: RouterConfig) -> std::io::Result<RouterHandle> {
    let listener = TcpListener::bind(&config.addr)?;
    listener.set_nonblocking(true)?;
    let addr = listener.local_addr()?;
    let discovery = DiscoveryMap::new();
    for backend in &config.backends {
        discovery.seed_static(backend);
    }
    let state = Arc::new(RouterState {
        config,
        discovery,
        stop: StopToken::new(),
        started: Instant::now(),
        connections_served: AtomicU64::new(0),
        next_sub: AtomicU64::new(1),
    });
    htsat_obs::debug!("htsat-router bound on {addr}");
    let accept_state = state.clone();
    let accept = std::thread::Builder::new()
        .name("htsat-router-accept".to_string())
        .spawn(move || {
            let stop = accept_state.stop.clone();
            conn::accept_loop(&listener, &stop, "htsat-router-session", move |stream| {
                session(stream, &accept_state);
            });
        })
        .expect("spawn accept thread");
    Ok(RouterHandle {
        addr,
        state,
        accept: Some(accept),
    })
}

impl RouterHandle {
    /// The bound address (resolves ephemeral ports).
    #[must_use]
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The discovery map, for in-process inspection by tests.
    #[must_use]
    pub fn discovery(&self) -> &DiscoveryMap {
        &self.state.discovery
    }

    /// Whether the router has been told to stop.
    #[must_use]
    pub fn is_stopped(&self) -> bool {
        self.state.stop.is_stopped()
    }

    /// Blocks until the router stops (a `SHUTDOWN` request arrives or
    /// another thread calls [`RouterHandle::shutdown`]).
    pub fn wait(&mut self) {
        if let Some(accept) = self.accept.take() {
            let _ = accept.join();
        }
    }

    /// Stops the router gracefully: closes the accept loop and joins the
    /// session threads. Backends are *not* shut down — only the wire
    /// `SHUTDOWN` verb broadcasts to them.
    pub fn shutdown(&mut self) {
        self.state.stop.stop();
        self.wait();
    }
}

impl Drop for RouterHandle {
    fn drop(&mut self) {
        self.shutdown();
    }
}
