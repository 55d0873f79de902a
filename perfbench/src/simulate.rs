//! `simulate-traces`: the `champsim-run` path. Pre-converted
//! `.champsimz` traces of every CVP and RISC-V family stream into
//! `SimSink` twice, on `iiswc_main` and on `ipc1` with an IPC-1
//! instruction prefetcher; the RISC-V families also run from `.etrace`
//! (decode and convert on the fly), which must equal the converted run.
//! Traces are long enough that engine set-up is under 1% of a run.
//!
//! Outputs are checked twice over: every run must equal a fused
//! in-memory reference of its trace, and fixed-seed canary traces of
//! every family and configuration, streamed the same way, must give the
//! documents pinned in [`CANARY_PINNED`]. The first catches a streaming
//! path that disagrees with the engine; the second catches an engine
//! whose statistics changed.

use std::collections::{BTreeMap, BTreeSet};
use std::path::{Path, PathBuf};
use std::time::Instant;

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use sim::{CoreConfig, RunOptions, SimReport, SimSink, Simulator};
use trace_store::{ChampsimTraceReader, CvpTraceReader};

use crate::bench::{Bench, Cfg, Layers, Op, Window};
use crate::convert::{
    cvp_spec, rv_spec, write_champsim, write_etrace, CHUNK, CVP_FAMILIES, RV_FAMILIES,
};
use crate::trace::{LayerTime, SpanGuard, Tracer};
use crate::util::{fnv, ratio};
use workloads::{RvWorkloadKind, WorkloadKind};

/// Records per trace: long enough that engine set-up stays under 1% of
/// a run (`SimSink::new` took 0.43 ms against 26 ms for a 100k-record
/// run on a 2-vCPU Xeon VM; 250k records bring it to about 0.7%).
const RECORDS: usize = 250_000;
const TINY_RECORDS: usize = 3_000;
/// Traces per family: content varies with the seed, so each family is
/// averaged over two.
const TRACES_PER_FAMILY: u64 = 2;

/// Seed and length of the canary traces: fixed, so that their documents
/// can be pinned.
const CANARY_SEED: u64 = 0x1157_ca9a;
const CANARY_RECORDS: usize = 20_000;

/// FNV-1a digests of the canary runs' `champsim-run --metrics`
/// documents, keyed `<family>/<config>[/etrace]`.
const CANARY_PINNED: [(&str, u64); 21] = [
    ("pointer-chase/iiswc", 0xbcad12aafb411877),
    ("pointer-chase/ipc1", 0xf0848266277912c3),
    ("streaming/iiswc", 0x178ff5a4ca01b2f1),
    ("streaming/ipc1", 0x1352d864899d8932),
    ("crypto/iiswc", 0x8409516bf1120627),
    ("crypto/ipc1", 0xc650248c9a6438f0),
    ("branchy-int/iiswc", 0xc73efecf3d24937d),
    ("branchy-int/ipc1", 0x402b072d26e7b856),
    ("server/iiswc", 0xfb864fa07d03693f),
    ("server/ipc1", 0x669d648a22ea81fa),
    ("fp-kernel/iiswc", 0x6a3e5c8c3470ea0e),
    ("fp-kernel/ipc1", 0xa4e245362e790b3b),
    ("rv-int/iiswc", 0x9f6b21fa83ebf5d),
    ("rv-int/ipc1", 0x1fe5e301b3afaade),
    ("rv-int/iiswc/etrace", 0x9f6b21fa83ebf5d),
    ("rv-stream/iiswc", 0x6635e17159959c28),
    ("rv-stream/ipc1", 0x4a5b82fe0066916a),
    ("rv-stream/iiswc/etrace", 0x6635e17159959c28),
    ("rv-dispatch/iiswc", 0x275a8861093a4eae),
    ("rv-dispatch/ipc1", 0x963f0c25a7b48b33),
    ("rv-dispatch/iiswc/etrace", 0x275a8861093a4eae),
];

/// The IPC-1 half's instruction prefetcher (the contest winner).
pub const PREFETCHER: &str = "fnl+mma";

/// The two simulated configurations: (name, core preset, prefetcher).
fn configs() -> [(&'static str, CoreConfig, Option<&'static str>); 2] {
    [("iiswc", CoreConfig::iiswc_main(), None), ("ipc1", CoreConfig::ipc1(), Some(PREFETCHER))]
}

fn options(prefetcher: Option<&str>) -> RunOptions {
    let options = RunOptions::default();
    match prefetcher {
        Some(name) => options.with_prefetcher(iprefetch::by_name(name).expect("known prefetcher")),
        None => options,
    }
}

/// The `champsim-run --metrics` document of one run, labelled with the
/// family so a `.etrace` run and its converted run compare equal.
pub fn document(report: &SimReport, core: &str, family: &str) -> String {
    cli::champsim_run_registry(report, core, family).to_json()
}

struct Trace {
    family: String,
    champsimz: PathBuf,
    /// RISC-V families also keep their `.etrace` form.
    etrace: Option<PathBuf>,
    bytes: u64,
}

/// The kinds of workload a trace can be generated from.
#[derive(Clone, Copy)]
enum Family {
    Cvp(WorkloadKind),
    Rv(RvWorkloadKind),
}

impl Family {
    fn name(self) -> String {
        match self {
            Family::Cvp(kind) => kind.to_string(),
            Family::Rv(kind) => kind.to_string(),
        }
    }
}

/// Every family, with the salt its inputs are generated under.
fn families() -> Vec<(Family, u64)> {
    let cvp = CVP_FAMILIES.iter().enumerate().map(|(i, &k)| (Family::Cvp(k), 300 + i as u64));
    let rv = RV_FAMILIES.iter().enumerate().map(|(i, &k)| (Family::Rv(k), 400 + i as u64));
    cvp.chain(rv).collect()
}

/// Generates one trace of `family` and writes it under `dir` as
/// `<name>.champsimz`, RISC-V families also as `<name>.etrace`.
fn write_trace(
    dir: &Path,
    name: String,
    family: Family,
    seed: u64,
    salt: u64,
    len: usize,
    setup: &SpanGuard<'_>,
) -> Result<Trace, String> {
    let mut etrace = None;
    let cvp = match family {
        Family::Cvp(kind) => {
            let _g = setup.child("workloads.generate");
            cvp_spec(kind, seed, salt, len).generate()
        }
        Family::Rv(kind) => {
            let path = dir.join(format!("{name}.etrace"));
            let cvp = {
                let _g = setup.child("workloads.generate");
                write_etrace(&path, &rv_spec(kind, seed, salt, len))?
            };
            etrace = Some(path);
            cvp
        }
    };
    let records = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
    let champsimz = dir.join(format!("{name}.champsimz"));
    let bytes = write_champsim(&champsimz, &records)?;
    Ok(Trace { family: name, champsimz, etrace, bytes })
}

/// One simulation run of a trace: (input, config name, core,
/// prefetcher, key suffix).
type Run<'a> = (&'a Path, &'static str, &'a CoreConfig, Option<&'static str>, &'static str);

/// The runs of one trace: every configuration from `.champsimz`, and
/// the first configuration again from `.etrace` where there is one.
fn runs<'a>(
    trace: &'a Trace,
    configs: &'a [(&'static str, CoreConfig, Option<&'static str>)],
) -> Vec<Run<'a>> {
    let mut runs: Vec<Run<'a>> = configs
        .iter()
        .map(|(name, core, pf)| (trace.champsimz.as_path(), *name, core, *pf, ""))
        .collect();
    if let Some(etrace) = &trace.etrace {
        let (name, core, pf) = &configs[0];
        runs.push((etrace.as_path(), name, core, *pf, "/etrace"));
    }
    runs
}

/// Streams the fixed-seed canary trace of every family through
/// [`simulate`], exactly like the measured runs, and returns the keys
/// of [`CANARY_PINNED`] whose document differs from the pinned digest.
fn canary_mismatches(dir: &Path) -> Result<BTreeSet<String>, String> {
    let dir = dir.join("canary");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let pinned: BTreeMap<&str, u64> = CANARY_PINNED.into_iter().collect();
    let configs = configs();
    let off = Tracer::new(false);
    let mut wrong = BTreeSet::new();
    for (family, salt) in families() {
        let root = off.root("canary", 0);
        let trace =
            write_trace(&dir, family.name(), family, CANARY_SEED, salt, CANARY_RECORDS, &root)?;
        for (path, config, core, pf, suffix) in runs(&trace, &configs) {
            let (report, _) = simulate(path, core, pf, &root)?;
            let key = format!("{}/{config}{suffix}", trace.family);
            let got = fnv(document(&report, config, &trace.family).as_bytes());
            if pinned.get(key.as_str()) != Some(&got) {
                eprintln!("perfbench: simulate-traces: canary {key} digests to {got:#x}");
                wrong.insert(key);
            }
        }
    }
    let _ = std::fs::remove_dir_all(&dir);
    Ok(wrong)
}

/// The canary key of a measured run's key: its family without the copy
/// number, `pointer-chase-2/ipc1` -> `pointer-chase/ipc1`.
fn canary_key(key: &str) -> String {
    let (family, rest) = key.split_once('/').unwrap_or((key, ""));
    let kind = family.rsplit_once('-').map_or(family, |(kind, _)| kind);
    format!("{kind}/{rest}")
}

#[derive(Default)]
struct Counters {
    pushed: u64,
    store_read_bytes: u64,
    useful_prefetches: u64,
    prefetch_fills: u64,
}

pub struct SimulateTraces {
    traces: Vec<Trace>,
    counters: Counters,
    /// Where the canary traces are written.
    dir: PathBuf,
    /// Canary keys whose documents differ from the pinned ones, once
    /// computed.
    canary_wrong: Option<BTreeSet<String>>,
}

/// Pushes `chunk` into `sink` keeping the one-record lookahead in
/// `pending`: a record is pushed once its successor's IP is known.
fn push_chunk(
    sink: &mut SimSink<'_>,
    pending: &mut Option<ChampsimRecord>,
    chunk: &[ChampsimRecord],
) {
    for rec in chunk {
        if let Some(prev) = pending.replace(*rec) {
            sink.push(&prev, Some(rec.ip()));
        }
    }
}

/// Streams one trace file through a fresh `SimSink`; returns the
/// report and the records pushed. `.etrace` inputs decode and convert
/// chunk by chunk under `All_imps`.
fn simulate(
    path: &Path,
    core: &CoreConfig,
    prefetcher: Option<&str>,
    op: &SpanGuard<'_>,
) -> Result<(SimReport, u64), String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut sink = {
        let _s = op.child("sim.setup");
        SimSink::new(core, options(prefetcher))
    };
    let mut pending: Option<ChampsimRecord> = None;
    let mut chunk: Vec<ChampsimRecord> = Vec::with_capacity(CHUNK);
    let mut n = 0u64;
    if trace_store::is_etrace_path(path) {
        let mut reader = CvpTraceReader::open(path).map_err(|e| err(&e))?;
        let mut converter = Converter::new(ImprovementSet::all());
        let mut cvp: Vec<CvpInstruction> = Vec::with_capacity(CHUNK);
        loop {
            cvp.clear();
            {
                let _s = op.child("etrace.decode");
                while cvp.len() < CHUNK {
                    match reader.read().map_err(|e| err(&e))? {
                        Some(insn) => cvp.push(insn),
                        None => break,
                    }
                }
            }
            if cvp.is_empty() {
                break;
            }
            chunk.clear();
            {
                let _s = op.child("converter.convert");
                converter.convert_into(cvp.iter(), &mut chunk);
            }
            let _s = op.child("sim.push");
            push_chunk(&mut sink, &mut pending, &chunk);
            n += chunk.len() as u64;
        }
    } else {
        let mut reader = ChampsimTraceReader::open(path).map_err(|e| err(&e))?;
        loop {
            chunk.clear();
            {
                let _s = op.child("trace_store.read");
                while chunk.len() < CHUNK {
                    match reader.read().map_err(|e| err(&e))? {
                        Some(rec) => chunk.push(rec),
                        None => break,
                    }
                }
            }
            if chunk.is_empty() {
                break;
            }
            let _s = op.child("sim.push");
            push_chunk(&mut sink, &mut pending, &chunk);
            n += chunk.len() as u64;
        }
    }
    if let Some(last) = pending {
        let _s = op.child("sim.push");
        sink.push(&last, None);
    }
    let _s = op.child("sim.finish");
    Ok((sink.finish(), n))
}

/// Reads a whole ChampSim trace into memory.
pub fn read_all(path: &Path) -> Result<Vec<ChampsimRecord>, String> {
    let mut reader =
        ChampsimTraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut records = Vec::new();
    while let Some(rec) = reader.read().map_err(|e| format!("{}: {e}", path.display()))? {
        records.push(rec);
    }
    Ok(records)
}

/// The reference documents of one trace: every configuration as a lane
/// of one fused in-memory pass (`Simulator::run_fused`), the path the
/// server uses.
pub fn reference_documents(path: &Path, family: &str) -> Result<Vec<(String, u64)>, String> {
    let records = read_all(path)?;
    let configs = configs();
    let lanes = configs.iter().map(|(_, core, pf)| (core, options(*pf)));
    let reports = Simulator::run_fused(lanes, records.iter().copied());
    Ok(configs
        .iter()
        .zip(reports)
        .map(|((name, _, _), report)| {
            (format!("{family}/{name}"), fnv(document(&report, name, family).as_bytes()))
        })
        .collect())
}

impl Bench for SimulateTraces {
    fn setup(cfg: &Cfg, dir: &Path, tracer: &Tracer) -> Result<SimulateTraces, String> {
        let len = if cfg.tiny { TINY_RECORDS } else { RECORDS };
        let setup = tracer.root("setup", 0);
        let mut traces = Vec::new();
        for copy in 0..TRACES_PER_FAMILY {
            for (family, salt) in families() {
                let name = format!("{}-{copy}", family.name());
                traces.push(write_trace(
                    dir,
                    name,
                    family,
                    cfg.seed,
                    salt + 10 * copy,
                    len,
                    &setup,
                )?);
            }
        }
        Ok(SimulateTraces {
            traces,
            counters: Counters::default(),
            dir: dir.to_path_buf(),
            canary_wrong: None,
        })
    }

    fn window(&mut self, seconds: f64, pass: u64, tracer: &Tracer) -> Result<Window, String> {
        self.counters = Counters::default();
        let configs = configs();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut round = 0u64;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            let mut req = (pass << 40) | (round << 16);
            for trace in &self.traces {
                for (path, name, core, pf, suffix) in runs(trace, &configs) {
                    req += 1;
                    let t = Instant::now();
                    let op = tracer.root("simulate-traces.op", req);
                    let (report, n) = simulate(path, core, pf, &op)?;
                    let doc = {
                        let _s = op.child("telemetry.export");
                        document(&report, name, &trace.family)
                    };
                    drop(op);
                    let ms = t.elapsed().as_secs_f64() * 1e3;
                    let c = &mut self.counters;
                    c.pushed += n;
                    if suffix.is_empty() {
                        c.store_read_bytes += trace.bytes;
                    }
                    if pf.is_some() {
                        c.useful_prefetches += report.l1i.useful_prefetches;
                        c.prefetch_fills += report.l1i.prefetch_fills;
                    }
                    ops.push(Op {
                        key: format!("{}/{name}{suffix}", trace.family),
                        ms,
                        records: n,
                        units: 1,
                        ok: true,
                        digest: fnv(doc.as_bytes()),
                        round: round as u32,
                    });
                }
            }
            round += 1;
        }
        Ok(Window { ops, round_s: Vec::new() })
    }

    /// Every run must match the fused in-memory reference of its trace
    /// and configuration, and `.etrace` runs must match the converted
    /// run. A run also fails when the canary of its family and
    /// configuration differs from the pinned document.
    fn check(&mut self, window: &mut Window) -> Result<(), String> {
        let mut reference: BTreeMap<String, u64> = BTreeMap::new();
        for trace in &self.traces {
            reference.extend(reference_documents(&trace.champsimz, &trace.family)?);
        }
        if self.canary_wrong.is_none() {
            self.canary_wrong = Some(canary_mismatches(&self.dir)?);
        }
        let canary_wrong = self.canary_wrong.as_ref().expect("computed above");
        for op in &mut window.ops {
            let key = op.key.strip_suffix("/etrace").unwrap_or(&op.key);
            op.ok = reference.get(key) == Some(&op.digest)
                && !canary_wrong.contains(&canary_key(&op.key));
        }
        Ok(())
    }

    /// Component replays of the workload's own streams.
    fn replays(&mut self, tracer: &Tracer, out: &mut Layers) -> Result<(), String> {
        let mut total = crate::replay::Replay::default();
        for (i, trace) in self.traces.iter().enumerate() {
            let records = read_all(&trace.champsimz)?;
            let root = tracer.root("replay", (1 << 48) | i as u64);
            total.add(&crate::replay::replay(&records, &root));
        }
        total.export(out);
        Ok(())
    }

    fn layers(
        &mut self,
        times: &BTreeMap<&'static str, LayerTime>,
        out: &mut Layers,
    ) -> Result<(), String> {
        let s = |name: &str| times.get(name).map_or(0.0, LayerTime::self_s);
        let c = &self.counters;
        out.insert(
            "trace_store.read_mbps",
            ratio(c.store_read_bytes as f64 / 1e6, s("trace_store.read")),
        );
        out.insert("sim.ns_per_record", ratio(s("sim.push") * 1e9, c.pushed as f64));
        out.insert(
            "iprefetch.l1i_prefetch_accuracy",
            ratio(c.useful_prefetches as f64, c.prefetch_fills as f64),
        );
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn canary_keys_drop_the_copy_number() {
        assert_eq!(canary_key("pointer-chase-1/ipc1"), "pointer-chase/ipc1");
        assert_eq!(canary_key("rv-int-0/iiswc/etrace"), "rv-int/iiswc/etrace");
        for (family, _) in families() {
            let name = family.name();
            let pinned = CANARY_PINNED.iter().filter(|(k, _)| k.starts_with(&format!("{name}/")));
            assert!(pinned.count() >= 2, "{name} has pinned canaries");
        }
    }

    #[test]
    fn corrupted_document_is_caught() {
        let dir = crate::tests::scratch("simulate-negative");
        let cvp = cvp_spec(workloads::WorkloadKind::BranchyInt, 5, 0, 3_000).generate();
        let records = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
        let path = dir.join("t.champsimz");
        write_champsim(&path, &records).unwrap();
        let reference: BTreeMap<String, u64> =
            reference_documents(&path, "t").unwrap().into_iter().collect();

        let mut bench = SimulateTraces {
            traces: vec![Trace {
                family: "t".into(),
                champsimz: path.clone(),
                etrace: None,
                bytes: 0,
            }],
            counters: Counters::default(),
            dir: dir.clone(),
            canary_wrong: None,
        };
        let mut window = bench.window(0.0, 0, &Tracer::new(false)).unwrap();
        bench.check(&mut window).unwrap();
        assert_eq!(
            bench.canary_wrong,
            Some(BTreeSet::new()),
            "canaries match the pinned documents"
        );
        assert!(window.ops.iter().all(|o| o.ok), "streamed runs match the fused reference");
        assert_eq!(window.ops[0].digest, reference["t/iiswc"]);

        // A canary that no longer matches its pin fails every run of its
        // family and configuration, and only those.
        bench.canary_wrong = Some(BTreeSet::from(["t/iiswc".to_string()]));
        bench.check(&mut window).unwrap();
        let failed: Vec<&str> =
            window.ops.iter().filter(|o| !o.ok).map(|o| o.key.as_str()).collect();
        assert_eq!(failed, ["t/iiswc"]);
        bench.canary_wrong = Some(BTreeSet::new());

        // A document with one statistic off must fail the check.
        let (report, _) =
            simulate(&path, &CoreConfig::iiswc_main(), None, &Tracer::new(false).root("t", 0))
                .unwrap();
        let mut wrong = report.clone();
        wrong.cycles += 1;
        window.ops[0].digest = fnv(document(&wrong, "iiswc", "t").as_bytes());
        bench.check(&mut window).unwrap();
        assert!(!window.ops[0].ok);
        let _ = std::fs::remove_dir_all(dir);
    }
}
