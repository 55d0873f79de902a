//! Component replays: the simulator's sub-layers driven directly
//! through their public APIs with the workload's own record stream, so
//! each gets a cost per event that the full core model hides.
//!
//! * bpred: every conditional branch through a 64KB TAGE
//!   (`DirectionPredictor::predict` then `update`);
//! * memsys: every fetch and data access through the `iiswc_main`
//!   hierarchy (`Hierarchy::access_instruction`/`access_data`);
//! * iprefetch: the fetch-block stream through the IPC-1 prefetcher's
//!   `on_fetch` (via the crate's block-cache harness).

use bpred::{DirectionPredictor, Tage, TageConfig};
use champsim_trace::{BranchRules, BranchType, ChampsimRecord};
use memsys::{Hierarchy, HierarchyConfig};

use crate::bench::Layers;
use crate::convert::CHUNK;
use crate::simulate::PREFETCHER;
use crate::trace::SpanGuard;
use crate::util::ratio;

/// L1I capacity, in 64-byte blocks, of the prefetcher harness.
const L1I_BLOCKS: usize = 512;

/// Counts and busy time of one or more replays.
#[derive(Debug, Default, Clone, Copy)]
pub struct Replay {
    pub branches: u64,
    pub mispredicts: u64,
    pub bpred_ns: u64,
    pub accesses: u64,
    pub l1d_misses: u64,
    pub llc_misses: u64,
    pub memsys_ns: u64,
    pub fetches: u64,
    pub issued: u64,
    pub iprefetch_ns: u64,
}

impl Replay {
    pub fn add(&mut self, o: &Replay) {
        self.branches += o.branches;
        self.mispredicts += o.mispredicts;
        self.bpred_ns += o.bpred_ns;
        self.accesses += o.accesses;
        self.l1d_misses += o.l1d_misses;
        self.llc_misses += o.llc_misses;
        self.memsys_ns += o.memsys_ns;
        self.fetches += o.fetches;
        self.issued += o.issued;
        self.iprefetch_ns += o.iprefetch_ns;
    }

    pub fn export(&self, out: &mut Layers) {
        out.insert("bpred.ns_per_branch", ratio(self.bpred_ns as f64, self.branches as f64));
        out.insert("bpred.branches", self.branches as f64);
        out.insert("bpred.mispredicts", self.mispredicts as f64);
        out.insert("memsys.ns_per_access", ratio(self.memsys_ns as f64, self.accesses as f64));
        out.insert("memsys.accesses", self.accesses as f64);
        out.insert("memsys.l1d_misses", self.l1d_misses as f64);
        out.insert("memsys.llc_misses", self.llc_misses as f64);
        out.insert("iprefetch.ns_per_fetch", ratio(self.iprefetch_ns as f64, self.fetches as f64));
        out.insert("iprefetch.issued", self.issued as f64);
    }
}

/// Times `f` under a child span of `parent`; returns nanoseconds.
fn timed(parent: &SpanGuard<'_>, name: &'static str, f: impl FnOnce()) -> u64 {
    let _span = parent.child(name);
    let start = std::time::Instant::now();
    f();
    start.elapsed().as_nanos() as u64
}

/// Replays `records` through each component, chunk by chunk.
pub fn replay(records: &[ChampsimRecord], parent: &SpanGuard<'_>) -> Replay {
    let mut r = Replay::default();

    let mut tage = Tage::new(TageConfig::storage_64kb());
    for chunk in records.chunks(CHUNK) {
        r.bpred_ns += timed(parent, "bpred.replay", || {
            for rec in chunk {
                if BranchRules::Patched.classify(rec) == BranchType::Conditional {
                    let taken = rec.branch_taken();
                    r.branches += 1;
                    if tage.predict(rec.ip()) != taken {
                        r.mispredicts += 1;
                    }
                    tage.update(rec.ip(), taken);
                }
            }
        });
    }

    let mut memory = Hierarchy::new(HierarchyConfig::iiswc_main());
    for chunk in records.chunks(CHUNK) {
        r.memsys_ns += timed(parent, "memsys.replay", || {
            for rec in chunk {
                memory.access_instruction(rec.ip());
                r.accesses += 1;
                for address in rec.source_memory() {
                    memory.access_data(rec.ip(), address, false);
                    r.accesses += 1;
                }
                for address in rec.destination_memory() {
                    memory.access_data(rec.ip(), address, true);
                    r.accesses += 1;
                }
            }
        });
    }
    r.l1d_misses = memory.l1d().stats().demand_misses;
    r.llc_misses = memory.llc().stats().demand_misses;

    let mut blocks: Vec<u64> = Vec::with_capacity(records.len() / 4);
    for rec in records {
        let block = rec.ip() >> 6;
        if blocks.last() != Some(&block) {
            blocks.push(block);
        }
    }
    let mut prefetcher = iprefetch::by_name(PREFETCHER).expect("known prefetcher");
    let mut issued = 0;
    r.iprefetch_ns += timed(parent, "iprefetch.replay", || {
        issued = iprefetch::harness::evaluate(&mut *prefetcher, &blocks, L1I_BLOCKS).issued;
    });
    r.fetches = blocks.len() as u64;
    r.issued = issued;
    r
}
