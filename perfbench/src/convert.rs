//! `convert-files`: the paper's own tool path, file to file, one
//! thread. Every CVP family as `.cvpz`, one flat `.cvp` and one RISC-V
//! `.etrace` are converted under `All_imps` and written as
//! `.champsimz`. Trace-store, cvp-trace, etrace and the converter do
//! the work; the simulator does none.

use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::time::Instant;

use champsim_trace::ChampsimRecord;
use converter::{Converter, Improvement, ImprovementSet};
use cvp_trace::CvpInstruction;
use etrace::EtraceWriter;
use trace_store::{
    rv_items_to_cvp, ChampsimTraceReader, ChampsimTraceWriter, CvpTraceReader, CvpTraceWriter,
};
use workloads::{RvTraceSpec, RvWorkloadKind, TraceSpec, WorkloadKind};

use crate::bench::{Bench, Cfg, Layers, Op, Window};
use crate::trace::{LayerTime, Tracer};
use crate::util::{fnv_extend, mix, ratio, FNV_EMPTY};

/// Records per input file (tiny runs use [`TINY_RECORDS`]).
const RECORDS: usize = 150_000;
const TINY_RECORDS: usize = 2_000;
/// Records per read/convert/write chunk: one span each.
pub const CHUNK: usize = 1 << 16;

pub const CVP_FAMILIES: [WorkloadKind; 6] = [
    WorkloadKind::PointerChase,
    WorkloadKind::Streaming,
    WorkloadKind::Crypto,
    WorkloadKind::BranchyInt,
    WorkloadKind::Server,
    WorkloadKind::FpKernel,
];

pub const RV_FAMILIES: [RvWorkloadKind; 3] =
    [RvWorkloadKind::IntLoop, RvWorkloadKind::StreamKernel, RvWorkloadKind::Dispatch];

/// How an input file is decoded, named by the layer that decodes it.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Decode {
    Store,
    Flat,
    Etrace,
}

impl Decode {
    fn span(self) -> &'static str {
        match self {
            Decode::Store => "trace_store.read",
            Decode::Flat => "cvp_trace.read",
            Decode::Etrace => "etrace.decode",
        }
    }
}

struct Input {
    name: String,
    path: PathBuf,
    decode: Decode,
    bytes: u64,
    /// Digest of the in-memory `Converter` output for this input.
    expected: u64,
}

#[derive(Default)]
struct Counters {
    records: u64,
    rewrites: u64,
    store_read_bytes: u64,
    written_bytes: u64,
    raw_bytes: u64,
    compressed_bytes: u64,
}

pub struct ConvertFiles {
    inputs: Vec<Input>,
    out_dir: PathBuf,
    counters: Counters,
}

/// Digest of a ChampSim record sequence.
pub fn records_digest<'a>(records: impl IntoIterator<Item = &'a ChampsimRecord>) -> u64 {
    records.into_iter().fold(FNV_EMPTY, |h, r| fnv_extend(h, &r.to_bytes()))
}

/// The reference: the in-memory converter output's digest.
pub fn expected_digest(cvp: &[CvpInstruction]) -> u64 {
    records_digest(&Converter::new(ImprovementSet::all()).convert_all(cvp.iter()))
}

/// Decodes a written `.champsimz`/`.champsimtrace` and digests it: the
/// output check of this workload.
pub fn decoded_digest(path: &Path) -> Result<u64, String> {
    let mut reader =
        ChampsimTraceReader::open(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let mut h = FNV_EMPTY;
    while let Some(rec) = reader.read().map_err(|e| format!("{}: {e}", path.display()))? {
        h = fnv_extend(h, &rec.to_bytes());
    }
    Ok(h)
}

pub fn write_cvp(path: &Path, cvp: &[CvpInstruction]) -> Result<u64, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut writer = CvpTraceWriter::create(path).map_err(|e| err(&e))?;
    for insn in cvp {
        writer.write(insn).map_err(|e| err(&e))?;
    }
    writer.finish().map_err(|e| err(&e))?;
    file_len(path)
}

pub fn write_champsim(path: &Path, records: &[ChampsimRecord]) -> Result<u64, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let mut writer = ChampsimTraceWriter::create(path).map_err(|e| err(&e))?;
    for rec in records {
        writer.write(rec).map_err(|e| err(&e))?;
    }
    writer.finish().map_err(|e| err(&e))?;
    file_len(path)
}

/// Writes a RISC-V workload as `.etrace`; returns its CVP records.
pub fn write_etrace(path: &Path, spec: &RvTraceSpec) -> Result<Vec<CvpInstruction>, String> {
    let err = |e: &dyn std::fmt::Display| format!("{}: {e}", path.display());
    let (program, items) = spec.generate();
    let file = std::fs::File::create(path).map_err(|e| err(&e))?;
    let mut writer = EtraceWriter::new(BufWriter::new(file), &program).map_err(|e| err(&e))?;
    for item in &items {
        writer.write(item).map_err(|e| err(&e))?;
    }
    let (mut sink, _) = writer.finish().map_err(|e| err(&e))?;
    sink.flush().map_err(|e| err(&e))?;
    Ok(rv_items_to_cvp(&program, &items))
}

pub fn file_len(path: &Path) -> Result<u64, String> {
    std::fs::metadata(path).map(|m| m.len()).map_err(|e| format!("{}: {e}", path.display()))
}

pub fn cvp_spec(kind: WorkloadKind, seed: u64, salt: u64, len: usize) -> TraceSpec {
    TraceSpec::new(kind.to_string(), kind, mix(seed, salt)).with_length(len)
}

pub fn rv_spec(kind: RvWorkloadKind, seed: u64, salt: u64, len: usize) -> RvTraceSpec {
    RvTraceSpec::new(kind.to_string(), kind, mix(seed, salt)).with_length(len)
}

impl ConvertFiles {
    /// Converts one input file to `.champsimz`; returns (ms, records).
    fn convert(
        &mut self,
        i: usize,
        out: &Path,
        tracer: &Tracer,
        req: u64,
    ) -> Result<(f64, u64), String> {
        let input = &self.inputs[i];
        let err = |e: &dyn std::fmt::Display| format!("{}: {e}", input.path.display());
        let start = Instant::now();
        let op = tracer.root("convert-files.op", req);
        let mut reader = CvpTraceReader::open(&input.path).map_err(|e| err(&e))?;
        let mut writer = ChampsimTraceWriter::create(out).map_err(|e| err(&e))?;
        let mut converter = Converter::new(ImprovementSet::all());
        let mut chunk: Vec<CvpInstruction> = Vec::with_capacity(CHUNK);
        let mut records: Vec<ChampsimRecord> = Vec::with_capacity(CHUNK);
        let mut n = 0u64;
        loop {
            chunk.clear();
            {
                let _read = op.child(input.decode.span());
                while chunk.len() < CHUNK {
                    match reader.read().map_err(|e| err(&e))? {
                        Some(insn) => chunk.push(insn),
                        None => break,
                    }
                }
            }
            if chunk.is_empty() {
                break;
            }
            records.clear();
            {
                let _convert = op.child("converter.convert");
                converter.convert_into(chunk.iter(), &mut records);
            }
            let _write = op.child("trace_store.write");
            for rec in &records {
                writer.write(rec).map_err(|e| err(&e))?;
            }
            n += chunk.len() as u64;
        }
        let stats = {
            let _write = op.child("trace_store.write");
            writer.finish().map_err(|e| err(&e))?
        };
        drop(op);
        let ms = start.elapsed().as_secs_f64() * 1e3;

        let c = &mut self.counters;
        c.records += n;
        c.rewrites +=
            Improvement::ALL.iter().map(|&imp| converter.stats().rewrites(imp)).sum::<u64>();
        if input.decode == Decode::Store {
            c.store_read_bytes += input.bytes;
        }
        c.written_bytes += file_len(out)?;
        if let Some(s) = stats {
            c.raw_bytes += s.bytes_raw;
            c.compressed_bytes += s.bytes_compressed;
        }
        Ok((ms, n))
    }
}

impl Bench for ConvertFiles {
    fn setup(cfg: &Cfg, dir: &Path, tracer: &Tracer) -> Result<ConvertFiles, String> {
        let len = if cfg.tiny { TINY_RECORDS } else { RECORDS };
        let setup = tracer.root("setup", 0);
        let mut inputs = Vec::new();
        let mut add = |name: String, path: PathBuf, decode, cvp: &[CvpInstruction]| {
            let bytes = file_len(&path)?;
            inputs.push(Input { name, path, decode, bytes, expected: expected_digest(cvp) });
            Ok::<(), String>(())
        };
        for (i, &kind) in CVP_FAMILIES.iter().enumerate() {
            let spec = cvp_spec(kind, cfg.seed, i as u64, len);
            let cvp = {
                let _g = setup.child("workloads.generate");
                spec.generate()
            };
            let path = dir.join(format!("{kind}.cvpz"));
            write_cvp(&path, &cvp)?;
            add(format!("{kind}.cvpz"), path, Decode::Store, &cvp)?;
        }
        // Fixed families, so every seed decodes the same mix of formats.
        let flat = WorkloadKind::Server;
        let cvp = {
            let _g = setup.child("workloads.generate");
            cvp_spec(flat, cfg.seed, 100, len).generate()
        };
        let path = dir.join(format!("{flat}.cvp"));
        write_cvp(&path, &cvp)?;
        add(format!("{flat}.cvp"), path, Decode::Flat, &cvp)?;

        let rv = RvWorkloadKind::Dispatch;
        let path = dir.join(format!("{rv}.etrace"));
        let cvp = {
            let _g = setup.child("workloads.generate");
            write_etrace(&path, &rv_spec(rv, cfg.seed, 200, len))?
        };
        add(format!("{rv}.etrace"), path, Decode::Etrace, &cvp)?;

        let out_dir = dir.join("out");
        std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;
        Ok(ConvertFiles { inputs, out_dir, counters: Counters::default() })
    }

    fn window(&mut self, seconds: f64, pass: u64, tracer: &Tracer) -> Result<Window, String> {
        self.counters = Counters::default();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut round = 0u64;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            for i in 0..self.inputs.len() {
                let out = self.out_dir.join(format!("{}.champsimz", self.inputs[i].name));
                let req = (pass << 40) | (round << 16) | i as u64;
                let (ms, records) = self.convert(i, &out, tracer, req)?;
                // The check: the written file decodes to exactly the
                // in-memory converter output.
                let digest = decoded_digest(&out).unwrap_or(0);
                let input = &self.inputs[i];
                ops.push(Op {
                    key: input.name.clone(),
                    ms,
                    records,
                    units: 1,
                    ok: digest == input.expected,
                    digest,
                    round: round as u32,
                });
            }
            round += 1;
        }
        Ok(Window { ops, round_s: Vec::new() })
    }

    fn check(&mut self, _window: &mut Window) -> Result<(), String> {
        Ok(())
    }

    fn layers(
        &mut self,
        times: &BTreeMap<&'static str, LayerTime>,
        out: &mut Layers,
    ) -> Result<(), String> {
        let c = &self.counters;
        let s = |name: &str| times.get(name).map_or(0.0, LayerTime::self_s);
        out.insert(
            "trace_store.read_mbps",
            ratio(c.store_read_bytes as f64 / 1e6, s("trace_store.read")),
        );
        out.insert(
            "trace_store.write_mbps",
            ratio(c.written_bytes as f64 / 1e6, s("trace_store.write")),
        );
        out.insert("trace_store.ratio", ratio(c.raw_bytes as f64, c.compressed_bytes as f64));
        out.insert(
            "converter.ns_per_record",
            ratio(s("converter.convert") * 1e9, c.records as f64),
        );
        out.insert("converter.rewrites", c.rewrites as f64);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_output_is_caught() {
        let dir = crate::tests::scratch("convert-negative");
        let cvp = cvp_spec(WorkloadKind::Server, 3, 0, 3_000).generate();
        let expected = expected_digest(&cvp);
        let good = Converter::new(ImprovementSet::all()).convert_all(cvp.iter());
        let path = dir.join("good.champsimz");
        write_champsim(&path, &good).unwrap();
        assert_eq!(decoded_digest(&path).unwrap(), expected);

        // A valid file with one record changed.
        let mut wrong = good.clone();
        let ip = wrong[100].ip();
        wrong[100].set_ip(ip ^ 4);
        let path = dir.join("wrong.champsimz");
        write_champsim(&path, &wrong).unwrap();
        assert_ne!(decoded_digest(&path).unwrap(), expected);

        // A damaged file: one flipped byte in a block payload.
        let mut bytes = std::fs::read(dir.join("good.champsimz")).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0x40;
        let path = dir.join("damaged.champsimz");
        std::fs::write(&path, bytes).unwrap();
        assert_ne!(decoded_digest(&path).unwrap_or(0), expected);
        let _ = std::fs::remove_dir_all(dir);
    }
}
