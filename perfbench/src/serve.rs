//! `serve-mix`: closed-loop traffic against two in-process `sim_server`
//! backends with one worker each, fronted by an in-process
//! `sim_router`.
//!
//! The request mix (a shuffled deck, so every seed gets the same
//! proportions), one group at a time:
//! * unique workload jobs of varied length — generate, convert, set-up;
//! * 4-config fan-outs over one new source — the batch planner and
//!   `run_fused`;
//! * respelled resubmissions of earlier jobs — the canonical key and the
//!   result cache;
//! * a unique job with its respelled twin right behind it — coalescing;
//! * file-sourced jobs (`.champsimz`/`.cvpz`/`.etrace`) — the
//!   materializing load path.
//!
//! The load generator places each job on the backend the router's
//! consistent-hash ring picks for its source key, so every spelling of a
//! source meets the same caches, and talks to that backend directly (see
//! [`run_group`] for why). It submits a group, polls its jobs every
//! ~1 ms until all are done, then submits the next, starting groups at
//! most every [`GROUP_EVERY`]. One group at a time, so that a job's
//! latency is its own service time, not the queue behind another job
//! the host happened to slow: with an open-loop Poisson schedule, one
//! seed's p90 ranged from 51 to 63 ms between runs. After the window
//! every served document must be byte-identical to `JobSpec::execute`
//! of the same spec, and a sample of them, fetched again through the
//! router, must be relayed byte for byte.

use std::collections::BTreeMap;
use std::path::Path;
use std::time::{Duration, Instant};

use experiments::ArtifactCache;
use sim::CancelToken;
use sim_server::json::Value;
use sim_server::{Connection, HashRing, JobSpec, Router, RouterConfig, Server, ServerConfig};
use workloads::rng::Xoshiro256;
use workloads::{RvWorkloadKind, WorkloadKind};

use crate::bench::{Bench, Cfg, Layers, Op, Summary, Window};
use crate::convert::{cvp_spec, rv_spec, write_champsim, write_cvp, write_etrace, CVP_FAMILIES};
use crate::trace::{LayerTime, Tracer};
use crate::util::{fnv, median, mix, percentile, ratio};

/// How long a group's jobs may take before they count as timed out.
const JOB_WAIT: Duration = Duration::from_secs(30);
/// Groups start at most this often. The backends keep every generated
/// source in memory, so an unpaced loop would grow them by gigabytes.
const GROUP_EVERY: Duration = Duration::from_millis(100);
/// Poll cadence of the polling connection.
const POLL_EVERY: Duration = Duration::from_millis(1);
/// Unique workload job lengths, in records.
const LENGTHS: [u64; 4] = [10_000, 20_000, 40_000, 80_000];
const TINY_LENGTHS: [u64; 4] = [500, 1_000, 1_500, 2_000];
/// Records per file source.
const FILE_RECORDS: usize = 40_000;
const TINY_FILE_RECORDS: usize = 1_500;
/// Window segments; each runs on the next set-up's fleet.
const SEGMENTS: usize = 5;
/// Router `GET /jobs/<id>` samples behind `router.hop_us`.
const HOP_SAMPLES: usize = 100;
/// Served documents per segment fetched again through the router.
const ROUTED_CHECKS: usize = 4;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Unique,
    FanOut,
    /// A resubmission of an earlier, likely finished job.
    Respell,
    /// A unique job and, right behind it, its respelled twin, which
    /// arrives while the first is in flight and must coalesce onto it.
    Twin,
    File,
}

/// Ten draws per deck: 4 unique, 1 fan-out (4 requests), 2 respelled,
/// 1 unique-with-twin (2 requests), 2 file-sourced.
const DECK: [Class; 10] = [
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::Unique,
    Class::FanOut,
    Class::Respell,
    Class::Respell,
    Class::Twin,
    Class::File,
    Class::File,
];

/// One request to submit.
#[derive(Debug, Clone)]
pub struct Request {
    pub body: String,
    pub records: u64,
    /// The backend the router's ring places the request's source on.
    pub shard: usize,
}

struct Source {
    path: String,
    records: u64,
    /// `.cvpz`/`.etrace` sources convert under an improvement set.
    converts: bool,
}

/// What happened to one request.
#[derive(Debug, Clone, Default)]
struct Served {
    id: Option<String>,
    sent: Option<Instant>,
    acked: Option<Instant>,
    done: Option<Instant>,
    status: String,
    queue_ms: Option<f64>,
    run_ms: Option<f64>,
    document: Option<String>,
}

/// Fleet counters read from `/metrics`.
#[derive(Debug, Clone, Copy, Default)]
struct FleetCounters {
    batch_passes: f64,
    batch_jobs: f64,
    fused_jobs: f64,
    coalesced: f64,
    cache_hits: f64,
    cache_misses: f64,
}

impl FleetCounters {
    fn add(&mut self, o: &FleetCounters) {
        self.batch_passes += o.batch_passes;
        self.batch_jobs += o.batch_jobs;
        self.fused_jobs += o.fused_jobs;
        self.coalesced += o.coalesced;
        self.cache_hits += o.cache_hits;
        self.cache_misses += o.cache_misses;
    }

    fn delta(&self, before: &FleetCounters) -> FleetCounters {
        FleetCounters {
            batch_passes: self.batch_passes - before.batch_passes,
            batch_jobs: self.batch_jobs - before.batch_jobs,
            fused_jobs: self.fused_jobs - before.fused_jobs,
            coalesced: self.coalesced - before.coalesced,
            cache_hits: self.cache_hits - before.cache_hits,
            cache_misses: self.cache_misses - before.cache_misses,
        }
    }
}

/// Per-window detail kept for the traced run's layer numbers.
#[derive(Default)]
struct Detail {
    queue_ms: Vec<f64>,
    run_ms: Vec<f64>,
    ids: Vec<String>,
    fleet: FleetCounters,
}

/// Two backends and a router in front of them, all in this process.
struct Fleet {
    servers: Vec<Server>,
    backend_addrs: Vec<String>,
    /// The router's ring: where the router places each source.
    ring: HashRing,
    /// Started on first use, after the fleet's first traffic, not at
    /// set-up: its start-up probes wait on the backends' 100 ms accept
    /// loops for one or two periods, depending on a race, which made
    /// set-up time bimodal.
    router: Option<Router>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        if let Some(router) = self.router.take() {
            router.begin_shutdown();
            router.join();
        }
        for server in self.servers.drain(..) {
            server.begin_shutdown(true);
            server.join();
        }
    }
}

pub struct ServeMix {
    /// One fleet per set-up; the window's segments rotate over them,
    /// so each run samples several independently started fleets.
    fleets: Vec<Fleet>,
    sources: Vec<Source>,
    seed: u64,
    tiny: bool,
    detail: Detail,
    /// One request body per canonical key of the last window.
    bodies: BTreeMap<String, String>,
}

fn workload_body(kind: &str, seed: u64, length: u64, extra: &str) -> String {
    format!(
        "{{\"workload\":{{\"kind\":\"{kind}\",\"seed\":{seed},\"length\":{length}}},\"improvements\":\"All_imps\"{extra}}}"
    )
}

/// The same job spelled differently: keys reordered, whitespace, and
/// the defaults written out.
fn respelled(kind: &str, seed: u64, length: u64) -> String {
    format!(
        "{{ \"core\" : \"iiswc\", \"warmup\": 0,\n  \"improvements\": \"All_imps\",\n  \
         \"workload\": {{ \"length\": {length}, \"seed\": {seed}, \"kind\": \"{kind}\" }} }}"
    )
}

/// Draws from `items` in shuffled decks, so every window gets the same
/// proportions whatever the seed.
struct Deck<T: Copy> {
    items: Vec<T>,
    left: Vec<T>,
}

impl<T: Copy> Deck<T> {
    fn new(items: &[T]) -> Deck<T> {
        Deck { items: items.to_vec(), left: Vec::new() }
    }

    fn draw(&mut self, rng: &mut Xoshiro256) -> T {
        if self.left.is_empty() {
            self.left = self.items.clone();
            for i in (1..self.left.len()).rev() {
                self.left.swap(i, rng.below(i as u64 + 1) as usize);
            }
        }
        self.left.pop().expect("refilled above")
    }
}

/// The request mix of one segment, drawn group by group from shuffled
/// decks, so every seed gets the same proportions.
struct Mix<'a> {
    rng: Xoshiro256,
    lengths: Deck<u64>,
    respell_lengths: Deck<u64>,
    /// Fan-outs all use one length, so their 4x weight does not make
    /// the work depend on the seed.
    fan_out_length: u64,
    classes: Deck<Class>,
    kinds: Deck<WorkloadKind>,
    files: Deck<usize>,
    /// (kind, seed, length) of every unique job so far.
    uniques: Vec<(String, u64, u64)>,
    sources: &'a [Source],
}

impl<'a> Mix<'a> {
    fn new(seed: u64, pass: u64, tiny: bool, sources: &'a [Source]) -> Mix<'a> {
        let lengths = if tiny { TINY_LENGTHS } else { LENGTHS };
        Mix {
            rng: Xoshiro256::seed_from_u64(mix(seed, 700 + pass)),
            lengths: Deck::new(&lengths),
            respell_lengths: Deck::new(&lengths),
            fan_out_length: lengths[2],
            classes: Deck::new(&DECK),
            kinds: Deck::new(&CVP_FAMILIES),
            files: Deck::new(&(0..sources.len()).collect::<Vec<_>>()),
            uniques: Vec::new(),
            sources,
        }
    }

    /// The next group of requests, submitted together.
    fn next_group(&mut self) -> Vec<Request> {
        let rng = &mut self.rng;
        let mut class = self.classes.draw(rng);
        if class == Class::Respell && self.uniques.is_empty() {
            class = Class::Unique;
        }
        let request = |body: String, records: u64| Request { body, records, shard: 0 };
        match class {
            Class::Unique | Class::Twin => {
                let len = self.lengths.draw(rng);
                let (kind, s) = (self.kinds.draw(rng).to_string(), rng.next_u64() >> 16);
                let mut group = vec![request(workload_body(&kind, s, len, ""), len)];
                if class == Class::Twin {
                    group.push(request(respelled(&kind, s, len), len));
                }
                self.uniques.push((kind, s, len));
                group
            }
            Class::FanOut => {
                let len = self.fan_out_length;
                let (kind, s) = (self.kinds.draw(rng).to_string(), rng.next_u64() >> 16);
                [
                    ",\"core\":\"iiswc\"",
                    ",\"core\":\"ipc1\"",
                    ",\"core\":\"ipc1\",\"prefetcher\":\"next-line\"",
                    ",\"core\":\"iiswc\",\"warmup\":1000",
                ]
                .iter()
                .map(|extra| request(workload_body(&kind, s, len, extra), len))
                .collect()
            }
            Class::Respell => {
                // An earlier job of a length drawn from the deck, so
                // resubmissions keep the length mix too.
                let want = self.respell_lengths.draw(rng);
                let same: Vec<&(String, u64, u64)> =
                    self.uniques.iter().filter(|u| u.2 == want).collect();
                let (kind, s, len) = if same.is_empty() {
                    &self.uniques[rng.below(self.uniques.len() as u64) as usize]
                } else {
                    same[rng.below(same.len() as u64) as usize]
                };
                vec![request(respelled(kind, *s, *len), *len)]
            }
            Class::File => {
                let src = &self.sources[self.files.draw(rng)];
                let core = if rng.chance(0.5) { "iiswc" } else { "ipc1" };
                let warmup = rng.below(4_000);
                let imps = if src.converts { ",\"improvements\":\"All_imps\"" } else { "" };
                let body = format!(
                    "{{\"trace\":{},\"core\":\"{core}\",\"warmup\":{warmup}{imps}}}",
                    sim_server::json::escape(&src.path)
                );
                vec![request(body, src.records)]
            }
        }
    }
}

fn status_of(text: &str) -> (String, Option<f64>, Option<f64>) {
    let v = Value::parse(text).ok();
    let get = |k: &str| v.as_ref().and_then(|v| v.get(k)).and_then(Value::as_f64);
    let status = v
        .as_ref()
        .and_then(|v| v.get("status"))
        .and_then(Value::as_str)
        .unwrap_or("malformed")
        .to_owned();
    (status, get("queue_ms"), get("run_ms"))
}

/// (request index, send, receive) of one status poll.
type Poll = (usize, Instant, Instant);

fn sleep_until(at: Instant) {
    let now = Instant::now();
    if at > now {
        std::thread::sleep(at - now);
    }
}

/// Splits a router job id, `s<shard>-<local id>`, into the shard's
/// index in the router's backend list and the backend's own job id.
fn split_id(id: &str) -> Option<(usize, &str)> {
    let (shard, local) = id.strip_prefix('s')?.split_once('-')?;
    Some((shard.parse().ok()?, local))
}

/// Runs one group closed-loop over `conns`, one keep-alive connection
/// per backend: submits its requests back to back, each to the backend
/// of its `shard`, then polls every outstanding job on its backend,
/// sleeping [`POLL_EVERY`] between sweeps, until all are terminal.
/// Returns one record per request, with router-style job ids
/// (`s<shard>-<id>`); appends the (request, start, end) of every status
/// poll to `polls`, numbering requests from `first`.
///
/// The load generator talks to the backends directly, not through the
/// router, because the router opens a new backend connection per
/// proxied request and a backend accepts connections in a loop that
/// sleeps 100 ms when idle. Through the router every submission and
/// every poll waited up to 100 ms on that loop, which made whole runs'
/// latency fall on a fast or a slow 100 ms grid (p50 spread 0.35 to
/// 0.59 of the median over seeds). That wait is measured on its own,
/// as `router.hop_us`.
fn run_group(
    conns: &mut [Connection],
    group: &[Request],
    first: usize,
    polls: &mut Vec<Poll>,
) -> Result<Vec<Served>, String> {
    let mut served = vec![Served::default(); group.len()];
    let mut outstanding = Vec::new();
    for (i, (req, out)) in group.iter().zip(served.iter_mut()).enumerate() {
        let sent = Instant::now();
        let response = conns[req.shard]
            .send("POST", "/jobs", &req.body)
            .map_err(|e| format!("submit: {e}"))?;
        let acked = Instant::now();
        out.sent = Some(sent);
        out.acked = Some(acked);
        if response.status == 202 {
            let id = Value::parse(&response.text())
                .ok()
                .and_then(|v| v.get("id").and_then(Value::as_u64))
                .ok_or_else(|| format!("submit: no id in {}", response.text()))?;
            out.id = Some(format!("s{}-{id}", req.shard));
            outstanding.push((i, id));
        } else {
            out.status = format!("http-{}", response.status);
            out.done = Some(acked);
        }
    }
    let deadline = Instant::now() + JOB_WAIT;
    while !outstanding.is_empty() {
        if Instant::now() > deadline {
            for (i, _) in outstanding.drain(..) {
                served[i].status = "timeout".into();
            }
            break;
        }
        std::thread::sleep(POLL_EVERY);
        let mut k = 0;
        while k < outstanding.len() {
            let (i, id) = outstanding[k];
            let t0 = Instant::now();
            let response = conns[group[i].shard]
                .send("GET", &format!("/jobs/{id}"), "")
                .map_err(|e| format!("poll: {e}"))?;
            let t1 = Instant::now();
            polls.push((first + i, t0, t1));
            let (status, queue_ms, run_ms) = status_of(&response.text());
            if matches!(status.as_str(), "done" | "failed" | "cancelled") {
                let out = &mut served[i];
                out.done = Some(t1);
                out.status = status;
                out.queue_ms = queue_ms;
                out.run_ms = run_ms;
                outstanding.swap_remove(k);
            } else {
                k += 1;
            }
        }
    }
    Ok(served)
}

/// Sums the counters this benchmark reads from a `/metrics` document.
fn add_metrics(fleet: &mut FleetCounters, text: &str) {
    let Ok(doc) = Value::parse(text) else { return };
    let Some(Value::Array(metrics)) = doc.get("metrics") else { return };
    for m in metrics {
        let name = m.get("name").and_then(Value::as_str).unwrap_or("");
        let value = m.get("value");
        let scalar = value.and_then(Value::as_f64).unwrap_or(0.0);
        match name {
            "server.batch.passes" => fleet.batch_passes += scalar,
            "server.batch.size" => {
                let count =
                    value.and_then(|v| v.get("count")).and_then(Value::as_f64).unwrap_or(0.0);
                let mean = value.and_then(|v| v.get("mean")).and_then(Value::as_f64).unwrap_or(0.0);
                fleet.batch_jobs += count * mean;
            }
            "server.batch.fused_jobs" => fleet.fused_jobs += scalar,
            "server.jobs.coalesced" => fleet.coalesced += scalar,
            "server.result_cache.hits" => fleet.cache_hits += scalar,
            "server.result_cache.misses" => fleet.cache_misses += scalar,
            _ => {}
        }
    }
}

impl Fleet {
    fn start() -> Result<Fleet, String> {
        let mut servers = Vec::new();
        for _ in 0..2 {
            let config = ServerConfig {
                workers: 1,
                job_timeout: Duration::from_secs(60),
                ..ServerConfig::default()
            };
            servers.push(Server::start(config).map_err(|e| format!("sim_server: {e}"))?);
        }
        let backend_addrs: Vec<String> =
            servers.iter().map(|s| s.local_addr().to_string()).collect();
        let ring = HashRing::new(&backend_addrs, RouterConfig::default().vnodes);
        Ok(Fleet { servers, backend_addrs, ring, router: None })
    }

    /// The router's address, starting it first if need be.
    fn router_addr(&mut self) -> Result<String, String> {
        if self.router.is_none() {
            let config =
                RouterConfig { backends: self.backend_addrs.clone(), ..RouterConfig::default() };
            let router = Router::start(config).map_err(|e| format!("sim_router: {e}"))?;
            let ready = Instant::now() + Duration::from_secs(10);
            while router.healthy_backends() < self.backend_addrs.len() {
                if Instant::now() > ready {
                    return Err("router never saw both backends healthy".into());
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            self.router = Some(router);
        }
        Ok(self.router.as_ref().expect("started above").local_addr().to_string())
    }

    /// One keep-alive connection to each backend, each already accepted:
    /// a backend takes up to 100 ms to accept a connection, so one round
    /// trip is made on each before it is handed out.
    fn connect(&self) -> Result<Vec<Connection>, String> {
        self.backend_addrs
            .iter()
            .map(|a| {
                let mut conn = Connection::connect(a).map_err(|e| e.to_string())?;
                conn.send("GET", "/healthz", "").map_err(|e| e.to_string())?;
                Ok(conn)
            })
            .collect()
    }

    /// Backend counters, read over HTTP.
    fn counters(&self) -> Result<FleetCounters, String> {
        let mut fleet = FleetCounters::default();
        for addr in &self.backend_addrs {
            let mut conn = Connection::connect(addr).map_err(|e| e.to_string())?;
            let r = conn.send("GET", "/metrics", "").map_err(|e| e.to_string())?;
            add_metrics(&mut fleet, &r.text());
        }
        Ok(fleet)
    }

    /// Fetches every finished job's document from its backend, then a
    /// sample of them again through the router, which must relay them
    /// byte for byte; a job whose relayed document differs fails.
    fn fetch_documents(&mut self, served: &mut [Served]) -> Result<(), String> {
        let mut direct = self.connect()?;
        for s in served.iter_mut().filter(|s| s.status == "done") {
            let id = s.id.as_deref().expect("done jobs have ids");
            let (shard, local) = split_id(id).ok_or_else(|| format!("job id {id:?}"))?;
            let r = direct[shard]
                .send("GET", &format!("/jobs/{local}/result"), "")
                .map_err(|e| e.to_string())?;
            if r.status == 200 {
                s.document = Some(r.text());
            }
        }
        let fetched: Vec<usize> =
            (0..served.len()).filter(|&i| served[i].document.is_some()).collect();
        let checks = ROUTED_CHECKS.min(fetched.len());
        let mut routed = Connection::connect(&self.router_addr()?).map_err(|e| e.to_string())?;
        for k in 0..checks {
            let s = &mut served[fetched[k * fetched.len() / checks]];
            let id = s.id.as_deref().expect("fetched jobs have ids");
            let r =
                routed.send("GET", &format!("/jobs/{id}/result"), "").map_err(|e| e.to_string())?;
            if r.status != 200 || s.document.as_deref() != Some(r.text().as_str()) {
                s.status = "router-mismatch".into();
                s.document = None;
            }
        }
        Ok(())
    }

    /// Routed minus direct `GET /jobs/<id>` round trip, median, in µs.
    fn hop_us(&mut self, ids: &[String]) -> Result<f64, String> {
        let mut routed_conn =
            Connection::connect(&self.router_addr()?).map_err(|e| e.to_string())?;
        let mut direct = self.connect()?;
        let (mut routed, mut bare) = (Vec::new(), Vec::new());
        for id in ids.iter().cycle().take(HOP_SAMPLES) {
            let Some((shard, local)) = split_id(id) else { continue };
            let Some(conn) = direct.get_mut(shard) else { continue };
            let t = Instant::now();
            routed_conn.send("GET", &format!("/jobs/{id}"), "").map_err(|e| e.to_string())?;
            routed.push(t.elapsed().as_secs_f64() * 1e6);
            let t = Instant::now();
            conn.send("GET", &format!("/jobs/{local}"), "").map_err(|e| e.to_string())?;
            bare.push(t.elapsed().as_secs_f64() * 1e6);
        }
        Ok(crate::util::median(&routed) - crate::util::median(&bare))
    }
}

impl Bench for ServeMix {
    fn setup(cfg: &Cfg, dir: &Path, tracer: &Tracer) -> Result<ServeMix, String> {
        let len = if cfg.tiny { TINY_FILE_RECORDS } else { FILE_RECORDS };
        let setup = tracer.root("setup", 0);
        let mut sources = Vec::new();
        // Fixed families, so every seed loads the same mix of formats.
        for (salt, kind) in [(800, WorkloadKind::Server), (801, WorkloadKind::Streaming)] {
            let cvp = {
                let _g = setup.child("workloads.generate");
                cvp_spec(kind, cfg.seed, salt, len).generate()
            };
            let records =
                converter::Converter::new(converter::ImprovementSet::all()).convert_all(cvp.iter());
            let path = dir.join(format!("{kind}-{salt}.champsimz"));
            write_champsim(&path, &records)?;
            sources.push(Source {
                path: path.to_string_lossy().into_owned(),
                records: len as u64,
                converts: false,
            });
        }
        let kind = WorkloadKind::BranchyInt;
        let cvp = {
            let _g = setup.child("workloads.generate");
            cvp_spec(kind, cfg.seed, 802, len).generate()
        };
        let path = dir.join(format!("{kind}.cvpz"));
        write_cvp(&path, &cvp)?;
        sources.push(Source {
            path: path.to_string_lossy().into_owned(),
            records: len as u64,
            converts: true,
        });
        let rv = RvWorkloadKind::Dispatch;
        let path = dir.join(format!("{rv}.etrace"));
        let cvp = {
            let _g = setup.child("workloads.generate");
            write_etrace(&path, &rv_spec(rv, cfg.seed, 803, len))?
        };
        sources.push(Source {
            path: path.to_string_lossy().into_owned(),
            records: cvp.len() as u64,
            converts: true,
        });

        Ok(ServeMix {
            fleets: vec![Fleet::start()?],
            sources,
            seed: cfg.seed,
            tiny: cfg.tiny,
            detail: Detail::default(),
            bodies: BTreeMap::new(),
        })
    }

    fn absorb(&mut self, mut other: ServeMix) {
        self.fleets.append(&mut other.fleets);
    }

    fn window(&mut self, seconds: f64, pass: u64, tracer: &Tracer) -> Result<Window, String> {
        let counters = |fleets: &[Fleet]| -> Result<FleetCounters, String> {
            let mut sum = FleetCounters::default();
            for fleet in fleets {
                sum.add(&fleet.counters()?);
            }
            Ok(sum)
        };
        let before =
            if tracer.is_on() { counters(&self.fleets)? } else { FleetCounters::default() };
        let mut detail = Detail::default();
        let mut ops = Vec::new();
        let mut bodies = BTreeMap::new();
        let mut round_s = Vec::new();
        let segment_s = seconds / SEGMENTS as f64;
        for segment in 0..SEGMENTS {
            let n = self.fleets.len();
            let fleet = &mut self.fleets[segment % n];
            let mut mix = Mix::new(
                self.seed,
                pass * SEGMENTS as u64 + segment as u64,
                self.tiny,
                &self.sources,
            );
            let mut conns = fleet.connect()?;
            let (mut requests, mut served, mut polls) = (Vec::new(), Vec::new(), Vec::new());
            let start = Instant::now();
            let mut next = start;
            while requests.is_empty() || start.elapsed().as_secs_f64() < segment_s {
                sleep_until(next);
                next += GROUP_EVERY;
                let mut group = mix.next_group();
                for req in &mut group {
                    let spec =
                        JobSpec::parse(&req.body).map_err(|e| format!("{}: {e}", req.body))?;
                    req.shard = fleet.ring.route(&spec.source_key()).ok_or("the ring is empty")?;
                }
                served.extend(run_group(&mut conns, &group, requests.len(), &mut polls)?);
                requests.extend(group);
            }
            round_s.push(start.elapsed().as_secs_f64());
            fleet.fetch_documents(&mut served)?;

            let req_id = |i: usize| (pass << 40) | ((segment as u64) << 20) | i as u64;
            for (i, (req, s)) in requests.iter().zip(&served).enumerate() {
                let sent = s.sent.expect("every request is sent");
                let latency = s.done.map(|d| d.saturating_duration_since(sent).as_secs_f64() * 1e3);
                detail.queue_ms.extend(s.queue_ms);
                detail.run_ms.extend(s.run_ms);
                if segment % n == 0 {
                    detail.ids.extend(s.id.clone());
                }
                if tracer.is_on() {
                    let root = tracer.record(
                        "serve.request",
                        sent,
                        s.done.unwrap_or(sent),
                        None,
                        req_id(i),
                    );
                    if let Some(acked) = s.acked {
                        tracer.record("loadgen.submit", sent, acked, root, req_id(i));
                    }
                }
                let key = JobSpec::parse(&req.body)
                    .map(|spec| spec.canonical_key())
                    .unwrap_or_else(|_| req.body.clone());
                bodies.insert(key.clone(), req.body.clone());
                ops.push(Op {
                    key,
                    ms: latency.unwrap_or(f64::INFINITY),
                    records: req.records,
                    units: 1,
                    ok: s.status == "done" && s.document.is_some(),
                    digest: s.document.as_deref().map_or(0, |d| fnv(d.as_bytes())),
                    round: segment as u32,
                });
            }
            for (i, a, b) in polls {
                tracer.record("loadgen.poll", a, b, None, req_id(i));
            }
        }
        if tracer.is_on() {
            detail.fleet = counters(&self.fleets)?.delta(&before);
        }
        self.detail = detail;
        self.bodies = bodies;
        Ok(Window { ops, round_s })
    }

    /// Every served document must equal `JobSpec::execute` of its spec,
    /// computed after the window on two threads.
    fn check(&mut self, window: &mut Window) -> Result<(), String> {
        let keys: Vec<&String> = window
            .ops
            .iter()
            .filter(|o| o.ok)
            .map(|o| &o.key)
            .collect::<std::collections::BTreeSet<_>>()
            .into_iter()
            .collect();
        let bodies = &self.bodies;
        let reference: BTreeMap<String, u64> = std::thread::scope(|s| {
            let halves: Vec<_> = keys
                .chunks(keys.len().div_ceil(2).max(1))
                .map(|part| {
                    s.spawn(move || {
                        part.iter()
                            .map(|&key| {
                                let digest = JobSpec::parse(&bodies[key])
                                    .ok()
                                    .and_then(|spec| {
                                        spec.execute(&ArtifactCache::new(), &CancelToken::new())
                                            .ok()
                                    })
                                    .map_or(1, |doc| fnv(doc.as_bytes()));
                                (key.clone(), digest)
                            })
                            .collect::<Vec<_>>()
                    })
                })
                .collect();
            halves.into_iter().flat_map(|h| h.join().expect("reference thread")).collect()
        });
        for op in &mut window.ops {
            if op.ok {
                op.ok = reference.get(&op.key) == Some(&op.digest);
            }
        }
        Ok(())
    }

    /// Each segment's figures, then their median over segments, so that
    /// a few seconds of a slow host move one segment, not the figure
    /// (the batch workloads take medians over rounds for the same
    /// reason). Throughput and jobs per second count finished jobs per
    /// second of the segment's wall time.
    fn summarize(&self, window: &Window) -> Summary {
        let n = window.round_s.len();
        let (mut records, mut jobs, mut ms) = (vec![0u64; n], vec![0u64; n], vec![Vec::new(); n]);
        for o in &window.ops {
            let r = o.round as usize;
            if o.ok {
                records[r] += o.records;
                jobs[r] += 1;
            }
            ms[r].push(if o.ok { o.ms } else { f64::INFINITY });
        }
        let per_second = |counts: &[u64]| -> Vec<f64> {
            counts.iter().zip(&window.round_s).map(|(&c, &s)| ratio(c as f64, s)).collect()
        };
        let cap = |v: f64| if v.is_finite() { v } else { JOB_WAIT.as_secs_f64() * 1e3 };
        let latency =
            |q: f64| median(&ms.iter().map(|v| cap(percentile(v, q))).collect::<Vec<_>>());
        Summary {
            throughput_mrps: median(&per_second(&records)) / 1e6,
            ops_per_s: median(&per_second(&jobs)),
            latency_p50_ms: latency(0.5),
            latency_p90_ms: latency(0.9),
        }
    }

    fn layers(
        &mut self,
        _times: &BTreeMap<&'static str, LayerTime>,
        out: &mut Layers,
    ) -> Result<(), String> {
        let d = &self.detail;
        let f = d.fleet;
        out.insert("server.queue_ms_mean", ratio(d.queue_ms.iter().sum(), d.queue_ms.len() as f64));
        out.insert("server.queue_ms_p99", percentile(&d.queue_ms, 0.99));
        out.insert("server.run_ms_p50", percentile(&d.run_ms, 0.5));
        out.insert("server.run_ms_p99", percentile(&d.run_ms, 0.99));
        out.insert("server.batch_size_mean", ratio(f.batch_jobs, f.batch_passes));
        out.insert("server.fused_share", ratio(f.fused_jobs, f.batch_jobs));
        out.insert("server.coalesced", f.coalesced);
        out.insert(
            "server.result_cache_hit_ratio",
            ratio(f.cache_hits, f.cache_hits + f.cache_misses),
        );
        let ids = std::mem::take(&mut self.detail.ids);
        out.insert("router.hop_us", self.fleets[0].hop_us(&ids)?);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_document_is_caught() {
        let dir = crate::tests::scratch("serve-negative");
        let cfg = Cfg { dir: dir.clone(), seed: 6, seconds: 0.5, tiny: true };
        let off = Tracer::new(false);
        let mut bench = ServeMix::setup(&cfg, &dir, &off).unwrap();
        let mut window = bench.window(0.5, 0, &off).unwrap();
        bench.check(&mut window).unwrap();
        assert!(window.ops.iter().all(|o| o.ok), "served documents equal JobSpec::execute");

        // A served document that differs from the local execution.
        window.ops[0].digest ^= 1;
        bench.check(&mut window).unwrap();
        assert!(!window.ops[0].ok);
        drop(bench);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn every_seed_offers_the_same_mix() {
        let sources = [Source { path: "a.champsimz".into(), records: 10, converts: false }];
        let count = |seed| {
            let mut mix = Mix::new(seed, 0, false, &sources);
            (0..5 * DECK.len()).map(|_| mix.next_group().len()).sum::<usize>()
        };
        assert_eq!(count(1), count(2));
        assert_eq!(count(1), count(999));
    }
}
