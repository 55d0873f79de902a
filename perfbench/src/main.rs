//! `perfbench`: the repository's layer-attributed benchmark.
//!
//! ```text
//! perfbench --workload <convert-files|simulate-traces|paper-grid|serve-mix>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each workload generates its inputs from `--seed`, sets up three
//! times (`setup_s` is the median), measures for `--seconds`, checks
//! every output, and prints one JSON object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, the
//! per-layer metrics of a traced run with `--trace 1`. A failed output
//! check makes the exit code 1. See `README.md` for the metric
//! catalogue.

mod bench;
mod convert;
mod grid;
mod replay;
mod serve;
mod simulate;
mod trace;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;

use bench::{Cfg, Outcome};

#[global_allocator]
static ALLOC: util::CountingAlloc = util::CountingAlloc;

/// Where inputs, outputs and span files go, relative to the directory
/// the benchmark runs in.
const WORK_DIR: &str = ".perfbench";

pub const WORKLOADS: [&str; 4] = ["convert-files", "simulate-traces", "paper-grid", "serve-mix"];

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?} (want one of {WORKLOADS:?})"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed {value:?}: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds {value:?}: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {value} out of range (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("missing --workload")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(10.0),
        trace: trace.unwrap_or(false),
    })
}

/// Runs one workload end to end.
pub fn run_workload(workload: &str, cfg: &Cfg, trace: bool) -> Result<Outcome, String> {
    match workload {
        "convert-files" => bench::run::<convert::ConvertFiles>(cfg, trace),
        "simulate-traces" => bench::run::<simulate::SimulateTraces>(cfg, trace),
        "paper-grid" => bench::run::<grid::PaperGrid>(cfg, trace),
        "serve-mix" => bench::run::<serve::ServeMix>(cfg, trace),
        other => Err(format!("unknown workload {other:?}")),
    }
}

/// Makes glibc keep freed memory for reuse instead of returning it to
/// the kernel. Used for `paper-grid` and `serve-mix` only, the two
/// workloads that allocate and free large buffers at a high rate: the
/// grid a whole engine per 5k-record cell, the servers the traces of
/// every job. With glibc's default, adaptive thresholds, the kernel
/// time spent faulting those pages back in varied from run to run on a
/// 2-vCPU VM: from 0.01 s to 0.95 s per 4-second grid round, and the
/// same seed's served p50 latency from 16 to 28 ms. With freed memory
/// kept, allocation cost is still measured, as the user time of zeroing
/// reused memory, and both sides of a comparison run the same allocator
/// settings.
#[cfg(all(target_os = "linux", target_env = "gnu"))]
fn keep_freed_memory() {
    // glibc `mallopt` parameters, from `malloc.h`.
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_THRESHOLD: i32 = -3;
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    // SAFETY: `mallopt` only changes allocator tuning; it is called
    // before this process starts any other thread.
    unsafe {
        mallopt(M_MMAP_THRESHOLD, 32 << 20);
        mallopt(M_TRIM_THRESHOLD, i32::MAX);
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
fn keep_freed_memory() {}

/// The last line of standard output.
pub fn result_json(outcome: &Outcome) -> String {
    let metrics: Vec<String> = outcome
        .metrics
        .iter()
        .map(|(name, value, unit)| format!("\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
        outcome.failed == 0 && outcome.errors.is_empty(),
        outcome.attempted,
        outcome.failed,
        metrics.join(",")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "paper-grid" || args.workload == "serve-mix" {
        keep_freed_memory();
    }
    let host = util::Host::probe();
    let header = host.to_json(&args.workload, args.seed, args.trace);
    let run_dir = PathBuf::from(WORK_DIR).join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ));
    let cfg = Cfg { dir: run_dir.clone(), seed: args.seed, seconds: args.seconds, tiny: false };
    let outcome = run_workload(&args.workload, &cfg, args.trace);
    let _ = std::fs::remove_dir_all(&run_dir);
    let outcome = match outcome {
        Ok(outcome) => outcome,
        Err(e) => {
            eprintln!("perfbench: {}: {e}", args.workload);
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = PathBuf::from(WORK_DIR)
            .join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        let body = format!("{header}\n{}", trace::spans_jsonl(&outcome.spans));
        match std::fs::write(&path, body) {
            Ok(()) => {
                eprintln!("perfbench: wrote {} spans to {}", outcome.spans.len(), path.display())
            }
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    }
    for error in &outcome.errors {
        eprintln!("perfbench: {}: {error}", args.workload);
    }
    println!("{header}");
    println!("{}", result_json(&outcome));
    if outcome.failed == 0 && outcome.errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

#[cfg(test)]
mod tests;
