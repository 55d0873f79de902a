//! Pinned `lz::compress` output, one seeded block per workload family.
//!
//! The digests were recorded with the byte-at-a-time match finder. The
//! word-at-a-time one must emit exactly the same stream, so stores it
//! writes keep their bytes and their compression ratio.

use converter::{Converter, ImprovementSet};
use cvp_trace::encode_record;
use trace_store::filter::Filter;
use trace_store::lz;
use workloads::{TraceSpec, WorkloadKind};

/// `(family, compressed length, FNV-1a digest)` for the delta-filtered
/// `.cvpz` block and then the `.champsimz` block of each family.
const PINS: [(WorkloadKind, [(usize, u64); 2]); 6] = [
    (WorkloadKind::PointerChase, [(9913, 0x323464d0e1df42b9), (3925, 0x7108f8f9458017d1)]),
    (WorkloadKind::Streaming, [(42731, 0x78e62168a61640a0), (21662, 0x1723ffc06607f56f)]),
    (WorkloadKind::Crypto, [(52744, 0xc3c00a6cf82aac03), (2054, 0xa2223ff87ab66e2e)]),
    (WorkloadKind::BranchyInt, [(60444, 0xa3cacaa0a1d6ed7c), (7158, 0xd05dfe2a2adbd0b9)]),
    (WorkloadKind::Server, [(16768, 0xd7bc834036a054d5), (5250, 0x6da850a46e914c26)]),
    (WorkloadKind::FpKernel, [(58566, 0xe68d81b7b4f57f40), (11549, 0xa4197639ba0cd1f7)]),
];

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// The two filtered blocks a store would compress for `kind`.
fn blocks(kind: WorkloadKind) -> [Vec<u8>; 2] {
    let insns = TraceSpec::new("lz-pin", kind, 0x5EED).with_length(6_000).generate();
    let mut cvp = Vec::new();
    for insn in &insns {
        encode_record(insn, &mut cvp);
    }
    Filter::Cvp.apply(&mut cvp).unwrap();
    let mut champsim: Vec<u8> = Converter::new(ImprovementSet::all())
        .convert_all(insns.iter())
        .iter()
        .flat_map(|r| r.to_bytes())
        .collect();
    Filter::Champsim.apply(&mut champsim).unwrap();
    [cvp, champsim]
}

#[test]
fn compressed_streams_match_their_pins() {
    let mut got = Vec::new();
    for (kind, _) in PINS {
        let pair = blocks(kind).map(|block| {
            let mut packed = Vec::new();
            lz::compress(&block, &mut packed);
            let mut back = vec![0u8; block.len()];
            lz::decompress(&packed, &mut back).unwrap();
            assert_eq!(back, block, "{kind}: round trip");
            (packed.len(), fnv1a(&packed))
        });
        got.push((kind, pair));
    }
    let table: String = got
        .iter()
        .map(|(kind, [(n0, h0), (n1, h1)])| {
            format!("    (WorkloadKind::{kind:?}, [({n0}, {h0:#018x}), ({n1}, {h1:#018x})]),\n")
        })
        .collect();
    assert!(got == PINS, "lz::compress output moved; got\n{table}");
}
