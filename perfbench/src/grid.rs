//! `paper-grid`: the paper's improvement grid (Figures 1–5) and the
//! fused Tables 3/4 through the `experiments` library on [`THREADS`]:
//! thousands of short convert+simulate cells, the only workload that
//! drives the scheduler (`parallel_cells`/`SharedRunner`, fused lanes,
//! `ArtifactCache`) and the one where per-cell fixed cost dominates.
//!
//! The paper's suite is fixed; the seed permutes the grid's trace order
//! (which changes the scheduler's cell order and cache lifetimes, not
//! the values). Values are checked against digests pinned below for the
//! smoke scale the benchmark runs at; the committed `results/` CSVs are
//! the reference at paper scale only.

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::time::Instant;

use converter::{Converter, ImprovementSet};
use experiments::figures::{
    figure1, figure2, figure3, figure4, figure5, figure_configurations, Grid,
};
use experiments::runner::{set_threads, ExperimentScale, SchedulerReport};
use experiments::tables::{table3_with_report, table4_decoupled_with_report, Table3};
use experiments::CacheCounters;
use sim::{CoreConfig, RunOptions, SimReport, SimSink};
use workloads::{cvp1_public_suite, ipc1_suite, TraceSpec};

use crate::bench::{Bench, Cfg, Layers, Op, Window};
use crate::trace::{LayerTime, Tracer};
use crate::util::{fnv_extend, mix, ratio, FNV_EMPTY};

/// Scheduler threads. One, not two: on a 2-vCPU host two threads made
/// the grid's throughput swing by half from run to run.
pub const THREADS: usize = 1;

/// Cells replayed outside the scheduler in the traced run.
const REPLAY_CELLS: u64 = 12;

/// Pinned output digests per scale: (trace_length, warmup, inputs,
/// grid CSVs, table 3 CSV, table 4 CSV).
const PINNED: [(usize, u64, u64, u64, u64, u64); 2] = [
    (5_000, 1_000, 0x859ab111bf61c3e7, 0x610636d270afe251, 0xeba56784eee93e99, 0x82a5e01a63bebccd),
    (300, 100, 0xdd93e26807f16fd9, 0x7473c13cf285d017, 0x6bbe0e1bd42f4339, 0x36f946a4399db379),
];

fn scale(tiny: bool) -> ExperimentScale {
    if tiny {
        ExperimentScale { trace_length: 300, warmup: 100 }
    } else {
        ExperimentScale::smoke()
    }
}

fn pinned(scale: ExperimentScale) -> (u64, u64, u64, u64) {
    PINNED
        .iter()
        .find(|p| p.0 == scale.trace_length && p.1 == scale.warmup)
        .map(|p| (p.2, p.3, p.4, p.5))
        .expect("a pinned digest for every scale the benchmark runs")
}

pub struct PaperGrid {
    specs: Vec<TraceSpec>,
    /// `specs[i]` is the suite's trace `perm[i]`.
    perm: Vec<usize>,
    scale: ExperimentScale,
    out_dir: PathBuf,
    /// Scheduler reports of the last window.
    reports: Vec<SchedulerReport>,
    /// The last grid computed, for the traced run's cell replays.
    last_grid: Option<Grid>,
    seed: u64,
}

/// Digest of the files `write` puts in `dir`, in name order.
fn csv_digest(dir: &Path, write: impl FnOnce(&Path) -> std::io::Result<()>) -> Result<u64, String> {
    let _ = std::fs::remove_dir_all(dir);
    std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    write(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    let mut names: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    names.sort();
    let mut h = FNV_EMPTY;
    for path in names {
        h = fnv_extend(h, path.file_name().map_or(&[][..], |n| n.as_encoded_bytes()));
        h = fnv_extend(h, &std::fs::read(&path).map_err(|e| format!("{}: {e}", path.display()))?);
    }
    Ok(h)
}

/// Digest of Figures 1–5 as CSV.
pub fn grid_digest(grid: &Grid, dir: &Path) -> Result<u64, String> {
    use experiments::csv;
    csv_digest(dir, |d| {
        csv::figure1(d, &figure1(grid))?;
        csv::figure2(d, &figure2(grid))?;
        csv::figure3(d, &figure3(grid))?;
        csv::figure4(d, &figure4(grid))?;
        csv::figure5(d, &figure5(grid))
    })
}

pub fn table_digest(table: &Table3, dir: &Path) -> Result<u64, String> {
    csv_digest(dir, |d| experiments::csv::table3(d, table, "tab.csv"))
}

/// Digest of every suite trace at `scale`: the input check.
fn inputs_digest(scale: ExperimentScale, tracer: &Tracer) -> u64 {
    let setup = tracer.root("setup", 0);
    let mut h = FNV_EMPTY;
    for spec in cvp1_public_suite().iter().chain(ipc1_suite().iter()) {
        let cvp = {
            let _g = setup.child("workloads.generate");
            spec.clone().with_length(scale.trace_length).generate()
        };
        for insn in &cvp {
            h = fnv_extend(h, &insn.pc.to_le_bytes());
        }
    }
    h
}

/// Seeded permutation of `0..n` (Fisher–Yates).
fn permutation(n: usize, seed: u64) -> Vec<usize> {
    let mut p: Vec<usize> = (0..n).collect();
    for i in (1..n).rev() {
        let j = (mix(seed, i as u64) % (i as u64 + 1)) as usize;
        p.swap(i, j);
    }
    p
}

impl PaperGrid {
    /// Puts a grid computed over `specs` back into suite order.
    fn unpermute(&self, grid: Grid) -> Grid {
        let order = |outcomes: Vec<experiments::TraceOutcome>| {
            let mut slots: Vec<Option<experiments::TraceOutcome>> =
                (0..outcomes.len()).map(|_| None).collect();
            for (i, o) in outcomes.into_iter().enumerate() {
                slots[self.perm[i]] = Some(o);
            }
            slots.into_iter().map(|o| o.expect("a permutation fills every slot")).collect()
        };
        Grid {
            baseline: order(grid.baseline),
            runs: grid
                .runs
                .into_iter()
                .map(|(label, imps, outcomes)| (label, imps, order(outcomes)))
                .collect(),
        }
    }

    /// Replays sampled grid cells outside the scheduler: generate,
    /// convert, `SimSink::new/push/finish`, `SimReport::export`. Each
    /// replay must equal the scheduled cell.
    fn replay_cells(&self, tracer: &Tracer) -> Result<(), String> {
        let seed = self.seed;
        let grid = self.last_grid.as_ref().ok_or("no grid computed")?;
        let mut configs = vec![("No_imp".to_string(), ImprovementSet::none())];
        configs.extend(figure_configurations());
        let core = CoreConfig::iiswc_main();
        for k in 0..REPLAY_CELLS {
            let t = (mix(seed, 500 + k) % self.specs.len() as u64) as usize;
            let c = (mix(seed, 600 + k) % configs.len() as u64) as usize;
            let spec = &self.specs[t];
            let op = tracer.root("paper-grid.replay", (1 << 48) | k);
            let cvp = {
                let _s = op.child("workloads.generate");
                spec.clone().with_length(self.scale.trace_length).generate()
            };
            let records = {
                let _s = op.child("converter.convert");
                Converter::new(configs[c].1).convert_all(cvp.iter())
            };
            let mut sink = {
                let _s = op.child("sim.setup");
                SimSink::new(&core, RunOptions::default())
            };
            {
                let _s = op.child("sim.push");
                for (i, rec) in records.iter().enumerate() {
                    sink.push(rec, records.get(i + 1).map(|r| r.ip()));
                }
            }
            let report: SimReport = {
                let _s = op.child("sim.finish");
                sink.finish()
            };
            {
                let _s = op.child("telemetry.export");
                let mut registry = telemetry::Registry::new();
                report.export(&mut registry);
                std::hint::black_box(registry.to_json());
            }
            let canonical = self.perm[t];
            let scheduled =
                if c == 0 { &grid.baseline[canonical] } else { &grid.runs[c - 1].2[canonical] };
            if scheduled.report.cycles != report.cycles
                || scheduled.report.instructions != report.instructions
            {
                return Err(format!(
                    "replayed cell {} / {} differs from the scheduled one",
                    spec.name(),
                    configs[c].0
                ));
            }
        }
        Ok(())
    }
}

impl Bench for PaperGrid {
    fn setup(cfg: &Cfg, dir: &Path, tracer: &Tracer) -> Result<PaperGrid, String> {
        set_threads(THREADS);
        let scale = scale(cfg.tiny);
        let (inputs, ..) = pinned(scale);
        let got = inputs_digest(scale, tracer);
        if got != inputs {
            return Err(format!(
                "suite inputs at trace length {} digest to {got:#x}, pinned {inputs:#x}",
                scale.trace_length
            ));
        }
        let suite = cvp1_public_suite();
        let perm = permutation(suite.len(), cfg.seed);
        let specs = perm.iter().map(|&i| suite[i].clone()).collect();
        let out_dir = dir.join("csv");
        Ok(PaperGrid {
            specs,
            perm,
            scale,
            out_dir,
            reports: Vec::new(),
            last_grid: None,
            seed: cfg.seed,
        })
    }

    fn window(&mut self, seconds: f64, pass: u64, tracer: &Tracer) -> Result<Window, String> {
        self.reports.clear();
        let start = Instant::now();
        let mut ops = Vec::new();
        let mut round = 0u64;
        let cells = |r: &SchedulerReport| r.jobs as u64;
        while round == 0 || start.elapsed().as_secs_f64() < seconds {
            let req = (pass << 40) | (round << 16);
            let t = Instant::now();
            let (grid, report) = {
                let _s = tracer.root("experiments.grid", req);
                Grid::compute_on_specs(&self.specs, &CoreConfig::iiswc_main(), self.scale)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let grid = self.unpermute(grid);
            let digest = grid_digest(&grid, &self.out_dir)?;
            ops.push(Op {
                key: "grid".into(),
                ms,
                records: cells(&report) * self.scale.trace_length as u64,
                units: cells(&report),
                ok: true,
                digest,
                round: round as u32,
            });
            self.reports.push(report);
            self.last_grid = Some(grid);

            let t = Instant::now();
            let (table, report) = {
                let _s = tracer.root("experiments.table3", req + 1);
                table3_with_report(self.scale, &CoreConfig::ipc1())
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let digest = table_digest(&table, &self.out_dir)?;
            ops.push(Op {
                key: "table3".into(),
                ms,
                records: cells(&report) * self.scale.trace_length as u64,
                units: cells(&report),
                ok: true,
                digest,
                round: round as u32,
            });
            self.reports.push(report);

            let t = Instant::now();
            let (table, report) = {
                let _s = tracer.root("experiments.table4", req + 2);
                table4_decoupled_with_report(self.scale)
            };
            let ms = t.elapsed().as_secs_f64() * 1e3;
            let digest = table_digest(&table, &self.out_dir)?;
            ops.push(Op {
                key: "table4".into(),
                ms,
                records: cells(&report) * self.scale.trace_length as u64,
                units: cells(&report),
                ok: true,
                digest,
                round: round as u32,
            });
            self.reports.push(report);
            round += 1;
        }
        Ok(Window { ops, round_s: Vec::new() })
    }

    fn check(&mut self, window: &mut Window) -> Result<(), String> {
        let (_, grid, t3, t4) = pinned(self.scale);
        for op in &mut window.ops {
            let want = match op.key.as_str() {
                "grid" => grid,
                "table3" => t3,
                _ => t4,
            };
            op.ok = op.digest == want;
            if !op.ok {
                eprintln!(
                    "perfbench: paper-grid: {} digests to {:#x}, pinned {want:#x}",
                    op.key, op.digest
                );
            }
        }
        Ok(())
    }

    fn replays(&mut self, tracer: &Tracer, _out: &mut Layers) -> Result<(), String> {
        self.replay_cells(tracer)
    }

    fn layers(
        &mut self,
        times: &BTreeMap<&'static str, LayerTime>,
        out: &mut Layers,
    ) -> Result<(), String> {
        let mut c = CacheCounters::default();
        let mut threads = 0.0;
        for r in &self.reports {
            let k = &r.counters;
            c.trace_hits += k.trace_hits;
            c.trace_misses += k.trace_misses;
            c.convert_hits += k.convert_hits;
            c.convert_misses += k.convert_misses;
            c.generate_ns += k.generate_ns;
            c.convert_ns += k.convert_ns;
            c.simulate_ns += k.simulate_ns;
            threads += r.wall.as_secs_f64() * r.threads as f64;
        }
        let busy_s = (c.generate_ns + c.convert_ns + c.simulate_ns) as f64 / 1e9;
        out.insert("experiments.generate_s", c.generate_ns as f64 / 1e9);
        out.insert("experiments.convert_s", c.convert_ns as f64 / 1e9);
        out.insert("experiments.simulate_s", c.simulate_ns as f64 / 1e9);
        out.insert("experiments.trace_hit_rate", c.trace_hit_rate());
        // 1 - busy CPU / (wall x threads).
        out.insert("experiments.idle_share", 1.0 - ratio(busy_s, threads));
        let s = |name: &str| times.get(name).map_or(0.0, LayerTime::self_s);
        let replayed = (REPLAY_CELLS * self.scale.trace_length as u64) as f64;
        out.insert("converter.ns_per_record", ratio(s("converter.convert") * 1e9, replayed));
        out.insert("sim.ns_per_record", ratio(s("sim.push") * 1e9, replayed));
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corrupted_figures_are_caught() {
        let dir = crate::tests::scratch("grid-negative");
        let cfg = Cfg { dir: dir.clone(), seed: 4, seconds: 0.0, tiny: true };
        let off = Tracer::new(false);
        let mut bench = PaperGrid::setup(&cfg, &dir, &off).unwrap();
        let mut window = bench.window(0.0, 0, &off).unwrap();
        bench.check(&mut window).unwrap();
        assert!(window.ops.iter().all(|o| o.ok), "a permuted grid matches the pinned digests");

        // One baseline cell at half its IPC must change the figures.
        let mut grid = bench.last_grid.take().unwrap();
        grid.baseline[0].report.cycles *= 2;
        window.ops[0].digest = grid_digest(&grid, &dir.join("corrupt")).unwrap();
        bench.check(&mut window).unwrap();
        assert!(!window.ops[0].ok);
        let _ = std::fs::remove_dir_all(dir);
    }
}
