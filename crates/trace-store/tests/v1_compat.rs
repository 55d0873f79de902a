//! Version-1 stores (FNV-1a block checksums) stay readable.
//!
//! `fixtures/v1_server.cvpz` and `fixtures/v1_server.champsimz` were
//! written by the last version-1 build from
//! `tracegen --kind server --seed 11 --length 2000`, the latter through
//! `cvp2champsim -i All_imps`. Today's reader must decode both to the
//! records regenerated from that spec, still verify their checksums,
//! and today's writer must reproduce them except for the version byte
//! and the per-block checksum fields.

use std::io::{Cursor, Read};

use champsim_trace::ChampsimRecord;
use converter::{Converter, ImprovementSet};
use cvp_trace::CvpInstruction;
use trace_store::{
    BlockReader, ChampsimzReader, ChampsimzWriter, CvpzReader, CvpzWriter, StoreError,
    STREAM_CHAMPSIM, STREAM_CVP, VERSION,
};
use workloads::{TraceSpec, WorkloadKind};

const CVPZ: &[u8] = include_bytes!("fixtures/v1_server.cvpz");
const CHAMPSIMZ: &[u8] = include_bytes!("fixtures/v1_server.champsimz");

/// Byte offset of the checksum field inside a block header.
const CHECKSUM_AT: usize = 14;
/// Bytes in a block header.
const BLOCK_HEADER: usize = 22;

fn spec_instructions() -> Vec<CvpInstruction> {
    TraceSpec::new("custom", WorkloadKind::Server, 11).with_length(2_000).generate()
}

fn spec_records() -> Vec<ChampsimRecord> {
    Converter::new(ImprovementSet::all()).convert_all(spec_instructions().iter())
}

/// `(offset, comp_len)` of every block in a store.
fn blocks(store: &[u8], kind: u8) -> Vec<(usize, usize)> {
    let index = BlockReader::new(Cursor::new(store), kind).unwrap().read_index().unwrap();
    index
        .entries
        .iter()
        .map(|e| {
            let at = e.offset as usize;
            let comp = u32::from_le_bytes(store[at + 10..at + 14].try_into().unwrap());
            (at, comp as usize)
        })
        .collect()
}

/// Asserts `new` differs from `old` only in the header version byte and
/// the checksum fields of its blocks.
fn assert_differs_only_in_version_and_checksums(old: &[u8], new: &[u8], kind: u8) {
    assert_eq!(old.len(), new.len(), "store length changed");
    assert_eq!((old[4], new[4]), (1, VERSION));
    let checksum_fields: Vec<usize> = blocks(old, kind)
        .iter()
        .flat_map(|&(at, _)| at + CHECKSUM_AT..at + CHECKSUM_AT + 8)
        .collect();
    for (i, (a, b)) in old.iter().zip(new).enumerate() {
        if a != b {
            assert!(i == 4 || checksum_fields.contains(&i), "byte {i} changed: {a:#x} -> {b:#x}");
        }
    }
}

#[test]
fn v1_cvpz_fixture_decodes_to_the_regenerated_trace() {
    assert_eq!(CVPZ[4], 1, "fixture must stay a version-1 store");
    let decoded: Vec<CvpInstruction> =
        CvpzReader::new(CVPZ).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(decoded, spec_instructions());
}

#[test]
fn v1_champsimz_fixture_decodes_to_the_regenerated_conversion() {
    assert_eq!(CHAMPSIMZ[4], 1, "fixture must stay a version-1 store");
    let decoded: Vec<ChampsimRecord> =
        ChampsimzReader::new(CHAMPSIMZ).unwrap().collect::<Result<_, _>>().unwrap();
    assert_eq!(decoded, spec_records());
}

#[test]
fn rewritten_stores_differ_only_in_version_and_checksums() {
    let mut w = CvpzWriter::new(Vec::new()).unwrap();
    for insn in &spec_instructions() {
        w.write(insn).unwrap();
    }
    assert_differs_only_in_version_and_checksums(CVPZ, &w.finish().unwrap().0, STREAM_CVP);

    let mut w = ChampsimzWriter::new(Vec::new()).unwrap();
    for rec in &spec_records() {
        w.write(rec).unwrap();
    }
    assert_differs_only_in_version_and_checksums(
        CHAMPSIMZ,
        &w.finish().unwrap().0,
        STREAM_CHAMPSIM,
    );
}

/// Decodes `store` with the byte at `i` flipped.
fn decode_flipped(store: &[u8], kind: u8, i: usize) -> Result<Vec<u8>, StoreError> {
    let mut bad = store.to_vec();
    bad[i] ^= 0x5A;
    let mut out = Vec::new();
    BlockReader::new(bad.as_slice(), kind)?.read_to_end(&mut out)?;
    Ok(out)
}

/// Flips every payload byte of a one-block version-1 store in turn.
/// Each flip must be caught with an error naming the block, or decode
/// to the original bytes (a flipped offset can point at equal bytes).
/// Returns how many flips the checksum caught: those decoded and
/// un-filtered cleanly, so only the FNV-1a comparison stood in the way.
fn payload_flips_caught_by_checksum(store: &[u8], kind: u8) -> usize {
    let mut pristine = Vec::new();
    BlockReader::new(store, kind).unwrap().read_to_end(&mut pristine).unwrap();
    let (at, comp) = blocks(store, kind)[0];
    let mut mismatches = 0;
    for i in at + BLOCK_HEADER..at + BLOCK_HEADER + comp {
        match decode_flipped(store, kind, i) {
            Ok(out) => assert_eq!(out, pristine, "flip at {i} decoded to other bytes"),
            Err(StoreError::ChecksumMismatch { block: 0 }) => mismatches += 1,
            Err(StoreError::CorruptBlock { block: 0 }) => {}
            Err(other) => panic!("flip at {i}: unexpected {other:?}"),
        }
    }
    mismatches
}

#[test]
fn flipped_v1_payload_bytes_fail_the_fnv_checksum() {
    for (store, kind) in [(CVPZ, STREAM_CVP), (CHAMPSIMZ, STREAM_CHAMPSIM)] {
        let caught = payload_flips_caught_by_checksum(store, kind);
        assert!(caught > 0, "stream kind {kind}: no payload flip reached the checksum");
    }
}
