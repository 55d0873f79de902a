//! The workload-independent harness: set-up repetitions, the measured
//! window, output checks, the end-to-end summary, and the traced run.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use crate::trace::{self_times, LayerTime, Span, Tracer};
use crate::util::{median, peak_heap_mb_since, percentile, ratio, reset_peak_heap};

/// Set-ups per untraced run; `setup_s` is their median.
pub const SETUP_REPS: usize = 3;

/// End-to-end metrics: every workload reports every one (name, unit).
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("peak_heap_mb", "MB"),
    ("throughput_mrps", "Mrec/s"),
    ("ops_per_s", "1/s"),
    ("latency_p50_ms", "ms"),
    ("latency_p90_ms", "ms"),
];

/// Per-layer metrics of the traced run (name, unit). A layer that a
/// workload does not exercise reports 0.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("trace_store.read_s", "s"),
    ("trace_store.read_mbps", "MB/s"),
    ("trace_store.write_s", "s"),
    ("trace_store.write_mbps", "MB/s"),
    ("trace_store.ratio", "x"),
    ("cvp_trace.read_s", "s"),
    ("etrace.decode_s", "s"),
    ("converter.convert_s", "s"),
    ("converter.ns_per_record", "ns"),
    ("converter.rewrites", "count"),
    ("sim.setup_us", "us"),
    ("sim.finish_us", "us"),
    ("sim.push_s", "s"),
    ("sim.ns_per_record", "ns"),
    ("bpred.ns_per_branch", "ns"),
    ("bpred.branches", "count"),
    ("bpred.mispredicts", "count"),
    ("memsys.ns_per_access", "ns"),
    ("memsys.accesses", "count"),
    ("memsys.l1d_misses", "count"),
    ("memsys.llc_misses", "count"),
    ("iprefetch.ns_per_fetch", "ns"),
    ("iprefetch.issued", "count"),
    ("iprefetch.l1i_prefetch_accuracy", "ratio"),
    ("telemetry.export_us", "us"),
    ("experiments.generate_s", "s"),
    ("experiments.convert_s", "s"),
    ("experiments.simulate_s", "s"),
    ("experiments.trace_hit_rate", "ratio"),
    ("experiments.idle_share", "ratio"),
    ("server.queue_ms_mean", "ms"),
    ("server.queue_ms_p99", "ms"),
    ("server.run_ms_p50", "ms"),
    ("server.run_ms_p99", "ms"),
    ("server.batch_size_mean", "count"),
    ("server.fused_share", "ratio"),
    ("server.coalesced", "count"),
    ("server.result_cache_hit_ratio", "ratio"),
    ("router.hop_us", "us"),
    ("workloads.generate_s", "s"),
    ("tracing.overhead_pct", "%"),
    ("tracing.spans", "count"),
];

/// One benchmark run's parameters.
pub struct Cfg {
    /// Scratch directory for generated inputs and outputs.
    pub dir: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// Tiny inputs for the benchmark's own tests.
    pub tiny: bool,
}

/// One timed operation and the digest of its output.
#[derive(Debug, Clone)]
pub struct Op {
    /// Identifies the input/config; equal keys must give equal digests.
    pub key: String,
    pub ms: f64,
    /// Trace records the operation pushed through its main layer.
    pub records: u64,
    /// Units of user work (files, runs, cells, jobs) it completed.
    pub units: u64,
    pub ok: bool,
    pub digest: u64,
    /// The round (pass over all inputs, or segment of traffic) the
    /// operation ran in.
    pub round: u32,
}

/// What one measured window did.
#[derive(Debug, Default)]
pub struct Window {
    pub ops: Vec<Op>,
    /// Wall seconds of each round, for work whose operations overlap
    /// (empty for batch work, whose operations run one at a time).
    pub round_s: Vec<f64>,
}

/// The workload-specific end-to-end figures of a window.
#[derive(Debug, Clone, Copy)]
pub struct Summary {
    pub throughput_mrps: f64,
    pub ops_per_s: f64,
    pub latency_p50_ms: f64,
    pub latency_p90_ms: f64,
}

/// Per-layer values keyed by [`PER_LAYER`] name.
pub type Layers = BTreeMap<&'static str, f64>;

/// Summary for batch workloads, robust to host noise that hits single
/// rounds: throughput and operations per second are the median over
/// rounds (each a whole pass over the inputs) of that round's work per
/// second of operation time; latency percentiles are taken across the
/// inputs, of each input's median time over the rounds.
pub fn busy_summary(window: &Window) -> Summary {
    let mut rounds: BTreeMap<u32, (f64, u64, u64)> = BTreeMap::new();
    let mut by_key: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
    for op in &window.ops {
        let r = rounds.entry(op.round).or_default();
        r.0 += op.ms / 1e3;
        r.1 += op.records;
        r.2 += op.units;
        by_key.entry(op.key.as_str()).or_default().push(op.ms);
    }
    let per_round =
        |f: fn(&(f64, u64, u64)) -> f64| median(&rounds.values().map(f).collect::<Vec<_>>());
    let rates: Vec<String> =
        rounds.values().map(|r| format!("{:.3}", ratio(r.1 as f64, r.0) / 1e6)).collect();
    eprintln!("perfbench: per-round Mrec/s: {}", rates.join(" "));
    let typical: Vec<f64> = by_key.values().map(|ms| median(ms)).collect();
    Summary {
        throughput_mrps: per_round(|r| ratio(r.1 as f64, r.0)) / 1e6,
        ops_per_s: per_round(|r| ratio(r.2 as f64, r.0)),
        latency_p50_ms: percentile(&typical, 0.5),
        latency_p90_ms: percentile(&typical, 0.9),
    }
}

/// A workload of the benchmark.
pub trait Bench: Sized {
    /// Generates inputs under `dir` and readies the program.
    fn setup(cfg: &Cfg, dir: &Path, tracer: &Tracer) -> Result<Self, String>;

    /// Folds in another set-up of the same run (the untraced run sets up
    /// [`SETUP_REPS`] times); the default discards it.
    fn absorb(&mut self, other: Self) {
        drop(other);
    }

    /// Runs the workload for about `seconds`; `pass` distinguishes the
    /// two windows of a traced run.
    fn window(&mut self, seconds: f64, pass: u64, tracer: &Tracer) -> Result<Window, String>;

    /// Post-window reference checks; clears `ok` on every operation
    /// whose output is wrong.
    fn check(&mut self, window: &mut Window) -> Result<(), String>;

    fn summarize(&self, window: &Window) -> Summary {
        busy_summary(window)
    }

    /// The figure whose change measures tracing overhead (higher is
    /// better).
    fn overhead_basis(summary: &Summary) -> f64 {
        summary.throughput_mrps
    }

    /// Work done only in the traced run, after its windows and before
    /// the span self times are taken: component and cell replays.
    fn replays(&mut self, _tracer: &Tracer, _out: &mut Layers) -> Result<(), String> {
        Ok(())
    }

    /// Per-layer numbers beyond the span self times: counts, ratios,
    /// server counters.
    fn layers(
        &mut self,
        times: &BTreeMap<&'static str, LayerTime>,
        out: &mut Layers,
    ) -> Result<(), String>;
}

/// A finished run, ready to print.
pub struct Outcome {
    pub attempted: u64,
    pub failed: u64,
    /// (name, value, unit) in catalogue order.
    pub metrics: Vec<(&'static str, f64, &'static str)>,
    pub spans: Vec<Span>,
    /// One line per failed check.
    pub errors: Vec<String>,
}

fn tally(windows: &[&Window]) -> (u64, u64) {
    let ops = windows.iter().flat_map(|w| w.ops.iter());
    let attempted = ops.clone().count() as u64;
    let failed = ops.filter(|o| !o.ok).count() as u64;
    (attempted, failed)
}

fn failures(window: &Window, errors: &mut Vec<String>) {
    for op in window.ops.iter().filter(|o| !o.ok) {
        errors.push(format!("output check failed: {}", op.key));
    }
}

/// Runs workload `B`: end-to-end metrics untraced, or per-layer
/// metrics from a traced run.
pub fn run<B: Bench>(cfg: &Cfg, trace: bool) -> Result<Outcome, String> {
    if trace {
        run_traced::<B>(cfg)
    } else {
        run_untraced::<B>(cfg)
    }
}

fn setup_dir(cfg: &Cfg, rep: usize) -> Result<PathBuf, String> {
    let dir = cfg.dir.join(format!("setup{rep}"));
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(dir)
}

fn run_untraced<B: Bench>(cfg: &Cfg) -> Result<Outcome, String> {
    let off = Tracer::new(false);
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut kept: Option<(B, PathBuf)> = None;
    for rep in 0..SETUP_REPS {
        let dir = setup_dir(cfg, rep)?;
        let start = Instant::now();
        let bench = B::setup(cfg, &dir, &off)?;
        setups.push(start.elapsed().as_secs_f64());
        match kept.as_mut() {
            None => kept = Some((bench, dir)),
            Some((first, _)) => {
                first.absorb(bench);
                let _ = std::fs::remove_dir_all(dir);
            }
        }
    }
    let (mut bench, _) = kept.expect("at least one set-up");
    // The peak covers the window only: not set-up, not the checks.
    let baseline = reset_peak_heap();
    let mut window = bench.window(cfg.seconds, 0, &off)?;
    let peak_heap_mb = peak_heap_mb_since(baseline);
    bench.check(&mut window)?;
    let s = bench.summarize(&window);
    let (attempted, failed) = tally(&[&window]);
    let mut errors = Vec::new();
    failures(&window, &mut errors);
    let values = [
        median(&setups),
        peak_heap_mb,
        s.throughput_mrps,
        s.ops_per_s,
        s.latency_p50_ms,
        s.latency_p90_ms,
    ];
    let metrics = END_TO_END.iter().zip(values).map(|(&(n, u), v)| (n, v, u)).collect();
    Ok(Outcome { attempted, failed, metrics, spans: Vec::new(), errors })
}

/// Direct span-derived layer times.
fn span_layers(times: &BTreeMap<&'static str, LayerTime>, out: &mut Layers) {
    let get = |name: &str| times.get(name).copied().unwrap_or_default();
    for (metric, span) in [
        ("trace_store.read_s", "trace_store.read"),
        ("trace_store.write_s", "trace_store.write"),
        ("cvp_trace.read_s", "cvp_trace.read"),
        ("etrace.decode_s", "etrace.decode"),
        ("converter.convert_s", "converter.convert"),
        ("sim.push_s", "sim.push"),
        ("workloads.generate_s", "workloads.generate"),
    ] {
        out.insert(metric, get(span).self_s());
    }
    out.insert("sim.setup_us", get("sim.setup").mean_us());
    out.insert("sim.finish_us", get("sim.finish").mean_us());
    out.insert("telemetry.export_us", get("telemetry.export").mean_us());
}

/// The traced run: one set-up, then an untraced and a traced window of
/// half the run each. Outputs of equal keys must agree across the two
/// windows (tracing must not change any simulated statistic), and the
/// throughput difference is the tracing overhead.
fn run_traced<B: Bench>(cfg: &Cfg) -> Result<Outcome, String> {
    let tracer = Tracer::new(true);
    let off = Tracer::new(false);
    let dir = setup_dir(cfg, 0)?;
    let mut bench = B::setup(cfg, &dir, &tracer)?;
    let half = cfg.seconds / 2.0;
    let mut plain = bench.window(half, 0, &off)?;
    bench.check(&mut plain)?;
    let mut traced = bench.window(half, 1, &tracer)?;
    bench.check(&mut traced)?;

    let mut errors = Vec::new();
    let reference: BTreeMap<&str, u64> =
        plain.ops.iter().filter(|o| o.ok).map(|o| (o.key.as_str(), o.digest)).collect();
    for op in traced.ops.iter_mut() {
        if let Some(&digest) = reference.get(op.key.as_str()) {
            if op.ok && digest != op.digest {
                op.ok = false;
                errors.push(format!("tracing changed the output of {}", op.key));
            }
        }
    }
    failures(&plain, &mut errors);
    failures(&traced, &mut errors);

    let mut layers = Layers::new();
    bench.replays(&tracer, &mut layers)?;
    let spans = tracer.snapshot();
    let times = self_times(&spans);
    span_layers(&times, &mut layers);
    bench.layers(&times, &mut layers)?;
    let base = B::overhead_basis(&bench.summarize(&plain));
    let with = B::overhead_basis(&bench.summarize(&traced));
    layers.insert("tracing.overhead_pct", 100.0 * (ratio(base, with) - 1.0));
    layers.insert("tracing.spans", spans.len() as f64);

    let (attempted, failed) = tally(&[&plain, &traced]);
    let metrics = PER_LAYER
        .iter()
        .map(|&(n, u)| (n, layers.get(n).copied().filter(|v| v.is_finite()).unwrap_or(0.0), u))
        .collect();
    Ok(Outcome { attempted, failed, metrics, spans, errors })
}
