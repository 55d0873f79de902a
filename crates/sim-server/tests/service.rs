//! Tests of the service skeleton both `sim_server` and `sim_router` run
//! on: the request-read rule, accept latency, and the binaries' signal
//! epilogue (drain on the first SIGTERM, abort on the second, final
//! `--metrics` written after the join).

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, ExitStatus, Stdio};
use std::time::{Duration, Instant};

use sim_server::{Connection, Router, RouterConfig, Server, ServerConfig};

fn start_backend(queue_depth: usize) -> Server {
    Server::start(ServerConfig { queue_depth, workers: 1, ..ServerConfig::default() }).unwrap()
}

fn start_router(backend: &Server) -> Router {
    Router::start(RouterConfig {
        backends: vec![backend.local_addr().to_string()],
        ..RouterConfig::default()
    })
    .unwrap()
}

fn scratch_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("sim-service-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

/// Reads a counter value out of a `/metrics` registry document.
fn metric_u64(doc: &str, name: &str) -> u64 {
    let needle = format!("\"name\":\"{name}\"");
    let at = doc.find(&needle).unwrap_or_else(|| panic!("no {name} in {doc}"));
    let rest = &doc[at + needle.len()..];
    let at = rest.find("\"value\":").unwrap_or_else(|| panic!("no value for {name}")) + 8;
    let rest = &rest[at..];
    let end = rest.find([',', '}']).unwrap_or(rest.len());
    rest[..end].trim().parse::<f64>().unwrap_or_else(|_| panic!("bad value for {name}")) as u64
}

/// A submission whose body arrives 300 ms after its head: the skeleton
/// waits for the rest of the request instead of dropping it.
fn submit_with_pause(addr: &str) -> u16 {
    let body = r#"{"workload": {"kind": "crypto", "seed": 31, "length": 2000}}"#;
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    write!(stream, "POST /jobs HTTP/1.1\r\ncontent-length: {}\r\n\r\n", body.len()).unwrap();
    stream.flush().unwrap();
    std::thread::sleep(Duration::from_millis(300));
    stream.write_all(body.as_bytes()).unwrap();
    let response = sim_server::http::read_response(&mut BufReader::new(stream))
        .unwrap_or_else(|e| panic!("no response from {addr} after a paused send: {e}"));
    response.status
}

#[test]
fn a_request_paused_mid_send_is_answered_by_server_and_router() {
    let backend = start_backend(8);
    let router = start_router(&backend);
    assert_eq!(submit_with_pause(&backend.local_addr().to_string()), 202, "server");
    assert_eq!(submit_with_pause(&router.local_addr().to_string()), 202, "router");
    router.join();
    backend.join();
}

/// A request whose body never arrives is answered `408` once a read has
/// stalled for the skeleton's 10 s I/O timeout, and the connection is
/// closed rather than resynchronized mid-request.
fn stalled_request_response(addr: &str) -> (u16, String) {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    stream.write_all(b"POST /jobs HTTP/1.1\r\ncontent-length: 10\r\n\r\n{").unwrap();
    let mut reader = BufReader::new(stream);
    let response = sim_server::http::read_response(&mut reader).unwrap();
    let mut rest = Vec::new();
    assert_eq!(reader.read_to_end(&mut rest).unwrap(), 0, "{addr}: connection left open");
    (response.status, response.text())
}

#[test]
fn a_stalled_request_gets_408_from_server_and_router() {
    let backend = start_backend(8);
    let router = start_router(&backend);
    let started = Instant::now();
    let clients: Vec<_> = [backend.local_addr(), router.local_addr()]
        .into_iter()
        .map(|addr| std::thread::spawn(move || stalled_request_response(&addr.to_string())))
        .collect();
    for client in clients {
        let (status, body) = client.join().unwrap();
        assert_eq!(status, 408, "{body}");
        assert!(body.contains("stalled"), "{body}");
    }
    assert!(started.elapsed() >= Duration::from_secs(10), "answered before the I/O timeout");
    router.join();
    backend.join();
}

/// 20 sequential round trips, each on a fresh connection; returns the
/// elapsed time.
fn fresh_connection_round_trips(addr: &str) -> Duration {
    let started = Instant::now();
    for _ in 0..20 {
        let mut conn = Connection::connect(addr).unwrap();
        assert_eq!(conn.send("GET", "/healthz", "").unwrap().status, 200);
    }
    started.elapsed()
}

#[test]
fn fresh_connections_are_accepted_without_delay_by_server_and_router() {
    let backend = start_backend(8);
    let router = start_router(&backend);
    for (name, addr) in [("server", backend.local_addr()), ("router", router.local_addr())] {
        let elapsed = fresh_connection_round_trips(&addr.to_string());
        assert!(elapsed < Duration::from_secs(1), "{name}: 20 fresh connections took {elapsed:?}");
    }
    router.join();
    backend.join();
}

/// A spawned service binary, killed if a test fails before it exits.
struct Spawned {
    child: Child,
    addr: String,
}

impl Spawned {
    fn start(binary: &str, args: &[&str], addr_file: &Path) -> Spawned {
        let mut spawned = Spawned {
            child: Command::new(binary)
                .args(args)
                .stdout(Stdio::null())
                .stderr(Stdio::null())
                .spawn()
                .unwrap(),
            addr: String::new(),
        };
        let deadline = Instant::now() + Duration::from_secs(20);
        while !spawned.addr.ends_with('\n') {
            assert!(Instant::now() < deadline, "{binary} never wrote its address");
            std::thread::sleep(Duration::from_millis(20));
            spawned.addr = std::fs::read_to_string(addr_file).unwrap_or_default();
        }
        spawned.addr.truncate(spawned.addr.len() - 1);
        spawned
    }

    fn sigterm(&self) {
        let status =
            Command::new("kill").args(["-TERM", &self.child.id().to_string()]).status().unwrap();
        assert!(status.success(), "kill -TERM failed");
    }

    fn wait_exit(&mut self, within: Duration) -> ExitStatus {
        let deadline = Instant::now() + within;
        loop {
            if let Some(status) = self.child.try_wait().unwrap() {
                return status;
            }
            assert!(Instant::now() < deadline, "process did not exit within {within:?}");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

#[test]
fn sim_router_drains_on_one_sigterm_and_writes_router_metrics() {
    let dir = scratch_dir("router-signal");
    let (addr_file, metrics_file) = (dir.join("addr.txt"), dir.join("metrics.json"));
    let backend = start_backend(8);
    let backend_addr = backend.local_addr().to_string();
    let mut router = Spawned::start(
        env!("CARGO_BIN_EXE_sim_router"),
        &[
            "--addr",
            "127.0.0.1:0",
            "--backend",
            &backend_addr,
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ],
        &addr_file,
    );
    let mut conn = Connection::connect(&router.addr).unwrap();
    let doc = conn
        .run(
            r#"{"workload": {"kind": "crypto", "seed": 32, "length": 2000}}"#,
            Duration::from_secs(60),
        )
        .unwrap();
    assert!(doc.contains("sim.ipc"));

    router.sigterm();
    let status = router.wait_exit(Duration::from_secs(30));
    assert!(status.success(), "sim_router exited with {status}");
    let metrics = std::fs::read_to_string(&metrics_file).unwrap();
    assert!(metrics.contains("\"tool\":\"sim-router\""), "{metrics}");
    assert_eq!(metric_u64(&metrics, "router.jobs.routed"), 1, "{metrics}");
    assert_eq!(metric_u64(&metrics, "router.fleet.jobs_completed"), 1, "{metrics}");
    backend.join();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sim_server_escalates_to_abort_on_a_second_sigterm() {
    let dir = scratch_dir("server-signal");
    let (addr_file, metrics_file) = (dir.join("addr.txt"), dir.join("metrics.json"));
    let mut server = Spawned::start(
        env!("CARGO_BIN_EXE_sim_server"),
        &[
            "--addr",
            "127.0.0.1:0",
            "--queue-depth",
            "1",
            "--workers",
            "1",
            "--addr-file",
            addr_file.to_str().unwrap(),
            "--metrics",
            metrics_file.to_str().unwrap(),
        ],
        &addr_file,
    );
    // Fill the single worker and the depth-1 queue with slow jobs
    // (distinct seeds, so nothing coalesces) until the server refuses.
    let mut conn = Connection::connect(&server.addr).unwrap();
    let mut accepted = 0u64;
    for seed in 100.. {
        assert!(seed < 150, "the server never filled up");
        let body = format!(
            "{{\"workload\": {{\"kind\": \"crypto\", \"seed\": {seed}, \"length\": 2000000}}}}"
        );
        match conn.send("POST", "/jobs", &body).unwrap().status {
            202 => accepted += 1,
            429 => break,
            other => panic!("unexpected submit status {other}"),
        }
    }
    assert!(accepted >= 2, "one job running and one queued");

    // First signal: a graceful drain that keeps the backlog.
    server.sigterm();
    let deadline = Instant::now() + Duration::from_secs(10);
    while !conn.send("GET", "/healthz", "").unwrap().text().contains("draining") {
        assert!(Instant::now() < deadline, "first SIGTERM never started the drain");
        std::thread::sleep(Duration::from_millis(20));
    }
    assert!(server.child.try_wait().unwrap().is_none(), "a drain waits for the backlog");

    // Second signal: abort, so the backlog ends cancelled and the
    // process exits cleanly with its final metrics.
    server.sigterm();
    let status = server.wait_exit(Duration::from_secs(60));
    assert!(status.success(), "sim_server exited with {status}");
    let metrics = std::fs::read_to_string(&metrics_file).unwrap();
    assert_eq!(metric_u64(&metrics, "server.jobs.accepted"), accepted, "{metrics}");
    let cancelled = metric_u64(&metrics, "server.jobs.cancelled");
    assert!(cancelled >= 1, "the queued job must end cancelled: {metrics}");
    assert_eq!(
        metric_u64(&metrics, "server.jobs.completed") + cancelled,
        accepted,
        "every accepted job is either finished or cancelled: {metrics}"
    );
    let _ = std::fs::remove_dir_all(&dir);
}
