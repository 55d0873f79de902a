//! Seeded mutation loops over the store decoder.
//!
//! Each loop corrupts a small multi-block store 2,000 ways (a flipped
//! byte, a truncation, or a header field set to a random value) and
//! decodes it. Every mutant must yield a typed error or the original
//! records, never a panic. Records yielded before an error must be a
//! prefix of the original stream, since every block is verified before
//! any of its bytes are returned, and an error from inside the block
//! stream must name a block.

use std::fmt::Debug;
use std::io::Cursor;

use champsim_trace::{ChampsimRecord, ChampsimTraceError};
use converter::{Converter, ImprovementSet};
use cvp_trace::{CvpInstruction, TraceError};
use trace_store::{lz, ChampsimzReader, ChampsimzWriter, CvpzReader, CvpzWriter, StoreIndex};
use workloads::{TraceSpec, WorkloadKind};

const MUTANTS: usize = 2_000;
const RECORDS: usize = 1_200;
const BLOCK_RECORDS: u32 = 150;

/// xorshift64: the mutation schedule is fixed by the seed.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

fn instructions() -> Vec<CvpInstruction> {
    TraceSpec::new("mutate", WorkloadKind::BranchyInt, 0xF022).with_length(RECORDS).generate()
}

/// Returns a copy of `store` with one seeded mutation applied.
fn mutate(store: &[u8], index: &StoreIndex, rng: &mut Rng) -> Vec<u8> {
    let mut bad = store.to_vec();
    match rng.below(3) {
        0 => {
            let at = rng.below(bad.len());
            bad[at] ^= 1 + rng.below(255) as u8;
        }
        1 => bad.truncate(rng.below(bad.len())),
        _ => {
            // `(offset, width)` of a store-header field (magic, version,
            // stream kind, filter, reserved), or of one block's header
            // field (marker, flags, records, raw and stored length,
            // checksum).
            let (start, fields): (usize, &[(usize, usize)]) = if rng.below(4) == 0 {
                (0, &[(0, 4), (4, 1), (5, 1), (6, 1), (7, 1)])
            } else {
                let block = index.entries[rng.below(index.entries.len())].offset as usize;
                (block, &[(0, 1), (1, 1), (2, 4), (6, 4), (10, 4), (14, 8)])
            };
            let (at, len) = fields[rng.below(fields.len())];
            for b in &mut bad[start + at..start + at + len] {
                *b = rng.next() as u8;
            }
        }
    }
    bad
}

/// How one mutant decoded: `None` if the reader refused its header (a
/// typed `StoreError`), else the records read and, if an error stopped
/// the stream, the block that error named (`None` if it named none).
type Outcome<T> = Option<(Vec<T>, Option<Option<u64>>)>;

/// Decodes `MUTANTS` seeded mutants of `store` with `decode` and checks
/// each outcome against `original`.
fn run_mutants<T: PartialEq + Debug>(
    store: &[u8],
    index: &StoreIndex,
    original: &[T],
    seed: u64,
    decode: impl Fn(&[u8]) -> Outcome<T>,
) {
    let blocks = index.entries.len() as u64;
    let mut rng = Rng(seed);
    let mut rejected_at_open = 0;
    for mutant in 0..MUTANTS {
        let Some((decoded, failed_block)) = decode(&mutate(store, index, &mut rng)) else {
            rejected_at_open += 1;
            continue;
        };
        assert_eq!(decoded, &original[..decoded.len()], "mutant {mutant}: decoded a non-prefix");
        match failed_block {
            None => assert_eq!(decoded.len(), original.len(), "mutant {mutant}: silently short"),
            Some(Some(block)) => {
                assert!(block <= blocks, "mutant {mutant}: block {block} out of range")
            }
            Some(None) => {
                panic!("mutant {mutant}: an error inside the block stream named no block")
            }
        }
    }
    assert!(rejected_at_open > 0 && rejected_at_open < MUTANTS);
}

/// Drains `items`, stopping at the first error, which `block_of` maps
/// to the block it names.
fn drain<T, E>(
    items: impl Iterator<Item = Result<T, E>>,
    block_of: impl Fn(E) -> Option<u64>,
) -> (Vec<T>, Option<Option<u64>>) {
    let mut decoded = Vec::new();
    for item in items {
        match item {
            Ok(x) => decoded.push(x),
            Err(e) => return (decoded, Some(block_of(e))),
        }
    }
    (decoded, None)
}

#[test]
fn cvpz_mutants_fail_typed_or_decode_exactly() {
    let original = instructions();
    let mut w = CvpzWriter::with_block_records(Vec::new(), BLOCK_RECORDS).unwrap();
    for insn in &original {
        w.write(insn).unwrap();
    }
    let store = w.finish().unwrap().0;
    let index = CvpzReader::new(Cursor::new(&store)).unwrap().read_index().unwrap();
    assert_eq!(index.entries.len(), RECORDS / BLOCK_RECORDS as usize);
    run_mutants(&store, &index, &original, 0xC0FF_EE00_D15E_A5E5, |bad| {
        let reader = CvpzReader::new(bad).ok()?;
        Some(drain(reader, |e| match e {
            TraceError::CorruptedBlock { block } => Some(block),
            _ => None,
        }))
    });
}

#[test]
fn champsimz_mutants_fail_typed_or_decode_exactly() {
    let original: Vec<ChampsimRecord> =
        Converter::new(ImprovementSet::all()).convert_all(instructions().iter());
    let mut w = ChampsimzWriter::with_block_records(Vec::new(), BLOCK_RECORDS).unwrap();
    for rec in &original {
        w.write(rec).unwrap();
    }
    let store = w.finish().unwrap().0;
    let index = ChampsimzReader::new(Cursor::new(&store)).unwrap().read_index().unwrap();
    assert_eq!(index.entries.len(), RECORDS / BLOCK_RECORDS as usize);
    run_mutants(&store, &index, &original, 0x5EED_00FC_4A39_51D0, |bad| {
        let reader = ChampsimzReader::new(bad).ok()?;
        Some(drain(reader, |e| match e {
            ChampsimTraceError::CorruptedBlock { block } => Some(block),
            _ => None,
        }))
    });
}

#[test]
fn random_lz_streams_are_rejected_or_fill_the_output_exactly() {
    let mut rng = Rng(0x0DDB_1A5E_5BAD_5EED);
    let mut accepted = 0;
    for _ in 0..MUTANTS {
        let src: Vec<u8> = (0..rng.below(256)).map(|_| rng.next() as u8).collect();
        let mut out = vec![0u8; rng.below(2_048)];
        // `LzCorrupt` is the only failure; success fills `out` exactly,
        // which `decompress` itself checks.
        if lz::decompress(&src, &mut out).is_ok() {
            accepted += 1;
        }
    }
    assert!(accepted < MUTANTS);
}
