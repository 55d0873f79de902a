//! The service skeleton shared by `sim_server` and `sim_router`: bind,
//! accept, the per-connection keep-alive request loop, the in-flight
//! drain, the shutdown flags, and the binaries' signal epilogue.
//!
//! ```text
//!   TCP accept ──▶ one thread per connection:
//!   (blocking,       wait for a request's first byte (100 ms polls
//!    woken on join)  re-check terminate) ─▶ read the whole request
//!                    (10 s I/O timeout: 408 + close) ─▶ in-flight += 1
//!                    ─▶ Handler::handle ─▶ write reply ─▶ in-flight -= 1
//! ```
//!
//! A `Handler` supplies only what differs between the two services:
//! the route table, the metrics document, and a shutdown hook. Shutdown
//! has two flags. *Shutting down* is set by
//! [`ServiceHandle::begin_shutdown`] and is what handlers consult to
//! refuse new work; *terminate* is set by `Service::join` once every
//! in-flight request has been answered, and makes idle connections and
//! the accept loop exit.

use std::io::{self, BufRead, BufReader};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

use crate::http::{read_request, Request, Response};

/// How often a connection waiting for its next request re-checks the
/// terminate flag.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(100);

/// Deadline on every read of a request once its first byte arrived, and
/// on every read or write of a proxied backend exchange.
pub(crate) const IO_TIMEOUT: Duration = Duration::from_secs(10);

/// What one service answers; the skeleton owns everything else.
pub(crate) trait Handler: Send + Sync {
    /// Answers one request. `service` reports and triggers shutdown
    /// (for `503`s, `/healthz`, and `POST /shutdown`).
    fn handle(&self, request: &Request, service: &ServiceHandle) -> Response;

    /// The operational metrics document (same as `GET /metrics`).
    fn metrics_json(&self) -> String;

    /// Called on every [`ServiceHandle::begin_shutdown`], after the
    /// shutting-down flag is set.
    fn on_shutdown(&self, _abort: bool) {}
}

struct Inner {
    handler: Arc<dyn Handler>,
    local_addr: SocketAddr,
    /// New work refused; everything else still served.
    shutting_down: AtomicBool,
    /// Idle connections and the accept loop exit.
    terminate: AtomicBool,
    /// Requests read but not yet answered; the drain waits on zero.
    inflight: AtomicU64,
}

/// A cloneable handle on a running service that outlives its join
/// (`Server::join`, `Router::join`): signal handlers use it to trigger
/// (and escalate) shutdown, and the binaries use it to flush final
/// metrics after the drain.
#[derive(Clone)]
pub struct ServiceHandle {
    inner: Arc<Inner>,
}

impl ServiceHandle {
    /// Starts shutdown without blocking; idempotent, and a later call
    /// with `abort` escalates. What `abort` means is the handler's
    /// business: the job server cancels its backlog, the router (which
    /// holds no job state) ignores it.
    pub fn begin_shutdown(&self, abort: bool) {
        self.inner.shutting_down.store(true, Ordering::SeqCst);
        self.inner.handler.on_shutdown(abort);
    }

    /// `true` once shutdown has been requested.
    pub fn shutdown_requested(&self) -> bool {
        self.inner.shutting_down.load(Ordering::SeqCst)
    }

    /// The operational metrics document (same as `GET /metrics`).
    pub fn metrics_json(&self) -> String {
        self.inner.handler.metrics_json()
    }

    /// The bound address.
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.local_addr
    }

    /// `true` once `Service::join` has drained the in-flight requests;
    /// background loops of a handler stop on it.
    pub(crate) fn terminating(&self) -> bool {
        self.inner.terminate.load(Ordering::SeqCst)
    }
}

/// A listening service: the accept thread plus its handle.
pub(crate) struct Service {
    handle: ServiceHandle,
    accept: JoinHandle<()>,
}

impl Service {
    /// Binds `addr` and spawns the accept loop (`name` labels its
    /// threads); returns once the listener is live.
    pub(crate) fn start(addr: &str, name: &str, handler: Arc<dyn Handler>) -> io::Result<Service> {
        let listener = TcpListener::bind(addr)?;
        let handle = ServiceHandle {
            inner: Arc::new(Inner {
                handler,
                local_addr: listener.local_addr()?,
                shutting_down: AtomicBool::new(false),
                terminate: AtomicBool::new(false),
                inflight: AtomicU64::new(0),
            }),
        };
        let accept = {
            let handle = handle.clone();
            let conn_name = format!("{name}-conn");
            thread::Builder::new()
                .name(format!("{name}-accept"))
                .spawn(move || accept_loop(&listener, &handle, &conn_name))?
        };
        Ok(Service { handle, accept })
    }

    /// The service's handle.
    pub(crate) fn handle(&self) -> &ServiceHandle {
        &self.handle
    }

    /// Drains and stops: begins a graceful shutdown if none was
    /// requested, waits until every in-flight request has been
    /// answered, then stops the accept loop and idle connections.
    pub(crate) fn join(self) {
        let inner = &self.handle.inner;
        self.handle.begin_shutdown(false);
        while inner.inflight.load(Ordering::SeqCst) > 0 {
            thread::sleep(Duration::from_millis(5));
        }
        inner.terminate.store(true, Ordering::SeqCst);
        // The accept is blocking: wake it with a connection of our own,
        // repeated in case some other client's connection won the race.
        let mut wake = inner.local_addr;
        if wake.ip().is_unspecified() {
            wake.set_ip(match wake.ip() {
                IpAddr::V4(_) => IpAddr::V4(Ipv4Addr::LOCALHOST),
                IpAddr::V6(_) => IpAddr::V6(Ipv6Addr::LOCALHOST),
            });
        }
        while !self.accept.is_finished() {
            let _ = TcpStream::connect_timeout(&wake, POLL_INTERVAL);
            thread::sleep(Duration::from_millis(1));
        }
        let _ = self.accept.join();
    }
}

fn accept_loop(listener: &TcpListener, handle: &ServiceHandle, conn_name: &str) {
    loop {
        let accepted = listener.accept();
        if handle.terminating() {
            return;
        }
        match accepted {
            Ok((stream, _peer)) => {
                let handle = handle.clone();
                let _ = thread::Builder::new()
                    .name(conn_name.to_owned())
                    .spawn(move || serve_connection(stream, &handle));
            }
            // Out of descriptors or similar: back off instead of spinning.
            Err(_) => thread::sleep(POLL_INTERVAL),
        }
    }
}

/// The keep-alive request loop. Polling is confined to the wait for a
/// request's first byte; once it arrives the whole request is read
/// under [`IO_TIMEOUT`], so a client pausing mid-send is waited for,
/// never resynchronized mid-request.
fn serve_connection(stream: TcpStream, handle: &ServiceHandle) {
    let _ = stream.set_nodelay(true);
    let Ok(mut writer) = stream.try_clone() else { return };
    let mut reader = BufReader::new(stream);
    let inner = &handle.inner;
    loop {
        let _ = reader.get_ref().set_read_timeout(Some(POLL_INTERVAL));
        match reader.fill_buf() {
            Ok([]) => return,
            Ok(_) => {}
            Err(e) if is_timeout(&e) || e.kind() == io::ErrorKind::Interrupted => {
                if handle.terminating() {
                    return;
                }
                continue;
            }
            Err(_) => return,
        }
        let _ = reader.get_ref().set_read_timeout(Some(IO_TIMEOUT));
        let request = match read_request(&mut reader) {
            Ok(Some(request)) => request,
            Ok(None) => return,
            Err(e) => {
                let response = if is_timeout(&e) {
                    Response::error(408, "request stalled mid-send")
                } else if e.kind() == io::ErrorKind::InvalidData {
                    Response::error(400, &e.to_string())
                } else {
                    return;
                };
                let _ = response.write(&mut writer, true);
                return;
            }
        };
        let close = request.wants_close() || handle.terminating();
        // The in-flight window covers handling AND writing the reply, so
        // a drain never cuts a response mid-stream.
        inner.inflight.fetch_add(1, Ordering::SeqCst);
        let response = inner.handler.handle(&request, handle);
        let wrote = response.write(&mut writer, close);
        inner.inflight.fetch_sub(1, Ordering::SeqCst);
        if wrote.is_err() || close {
            return;
        }
    }
}

fn is_timeout(e: &io::Error) -> bool {
    matches!(e.kind(), io::ErrorKind::WouldBlock | io::ErrorKind::TimedOut)
}

/// Signals received so far; bumped from the (async-signal-safe) handler.
static SIGNALS: AtomicU32 = AtomicU32::new(0);

extern "C" fn on_signal(_signum: i32) {
    SIGNALS.fetch_add(1, Ordering::SeqCst);
}

fn install_signal_handlers() {
    // SIGINT = 2, SIGTERM = 15 on every platform this builds for. The
    // libc `signal` entry point is reached directly to keep the crate
    // zero-dependency.
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    // SAFETY: `on_signal` is an `extern "C" fn(i32)` that only bumps an
    // atomic, which is async-signal-safe, and it lives for the whole
    // process.
    unsafe {
        signal(2, on_signal as *const () as usize);
        signal(15, on_signal as *const () as usize);
    }
}

/// The binaries' run epilogue. Installs the SIGINT/SIGTERM handlers,
/// writes the bound address to `addr_file` (scripts wait on it, so it
/// appears only once signals are handled), and blocks until shutdown is
/// requested: a first signal drains, a second aborts, and
/// `POST /shutdown` works too. Then runs `join`, and writes the final
/// metrics document to `metrics_path`.
pub fn serve_until_signalled(
    name: &str,
    handle: &ServiceHandle,
    addr_file: Option<&str>,
    metrics_path: Option<&str>,
    join: impl FnOnce(),
) -> Result<(), String> {
    install_signal_handlers();
    if let Some(path) = addr_file {
        std::fs::write(path, format!("{}\n", handle.local_addr()))
            .map_err(|e| format!("cannot write {path}: {e}"))?;
    }
    // Escalation watcher; detached, it exits with the process.
    {
        let handle = handle.clone();
        thread::spawn(move || {
            let mut seen = 0;
            while seen < 2 {
                let signals = SIGNALS.load(Ordering::SeqCst);
                if signals > seen {
                    handle.begin_shutdown(signals >= 2);
                    seen = signals;
                }
                thread::sleep(Duration::from_millis(50));
            }
        });
    }
    while !handle.shutdown_requested() {
        thread::sleep(Duration::from_millis(50));
    }
    eprintln!("{name}: shutting down, draining in-flight work");
    join();
    // The handle outlives the join, so the document carries the final
    // post-drain counts.
    if let Some(path) = metrics_path {
        std::fs::write(path, handle.metrics_json())
            .map_err(|e| format!("cannot write {path}: {e}"))?;
        eprintln!("{name}: wrote final metrics to {path}");
    }
    eprintln!("{name}: drained and stopped");
    Ok(())
}
