//! In-tree LZ codec: greedy LZ77 over a 64 KiB match window.
//!
//! Same no-external-deps policy as the workspace's xoshiro PRNG — the
//! format is a small LZ4-style token stream, tuned for trace payloads
//! (long runs of near-identical records after delta filtering):
//!
//! ```text
//! sequence := token  [lit-ext*]  literal*  offset_u16le  [match-ext*]
//! token    := (lit_len_nibble << 4) | match_len_nibble
//! ```
//!
//! A nibble of 15 is followed by extension bytes (each adding 255, the
//! first non-255 byte terminating — a base-255 varint). Match lengths
//! are stored minus `MIN_MATCH` (4). The final sequence of a stream
//! carries only literals: the decoder stops when the source is
//! exhausted after a literal copy. Back-references never cross a block
//! boundary, so every block decompresses independently (the seekable
//! store depends on this).

/// Shortest match worth encoding (token + offset cost 3 bytes).
const MIN_MATCH: usize = 4;
/// Maximum back-reference distance (`u16` offset field).
const MAX_OFFSET: usize = 65_535;
/// Number of hash-table slots in the match finder.
const HASH_SLOTS: usize = 1 << 16;

/// Malformed compressed stream (the only decompression failure mode;
/// the block layer maps it to a typed per-block error).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LzCorrupt;

fn hash4(bytes: &[u8]) -> usize {
    let v = u32::from_le_bytes([bytes[0], bytes[1], bytes[2], bytes[3]]);
    // Fibonacci hashing spreads the low-entropy record bytes well.
    (v.wrapping_mul(0x9E37_79B1) >> 16) as usize & (HASH_SLOTS - 1)
}

fn push_len(out: &mut Vec<u8>, mut extra: usize) {
    while extra >= 255 {
        out.push(255);
        extra -= 255;
    }
    out.push(extra as u8);
}

/// Writes one sequence's token and literals. The offset and any
/// match-length extension follow the literals, appended by the caller
/// (the final literal-only sequence has neither).
fn emit(out: &mut Vec<u8>, literals: &[u8], match_len: usize) {
    let lit_nibble = literals.len().min(15) as u8;
    let match_nibble = match_len.saturating_sub(MIN_MATCH).min(15) as u8;
    out.push((lit_nibble << 4) | match_nibble);
    if literals.len() >= 15 {
        push_len(out, literals.len() - 15);
    }
    out.extend_from_slice(literals);
}

/// Compresses `src`, appending the encoded stream to `out`.
///
/// Returns the number of bytes appended. The output is self-terminating
/// given the original length (the decoder stops once it has produced
/// `src.len()` bytes).
pub fn compress(src: &[u8], out: &mut Vec<u8>) -> usize {
    let start = out.len();
    let mut table = vec![0u32; HASH_SLOTS]; // position + 1; 0 = empty
    let mut anchor = 0usize; // start of pending literals
    let mut i = 0usize;
    // Positions beyond this cannot start a match (hash needs 4 bytes).
    let hash_end = src.len().saturating_sub(MIN_MATCH);
    while i < hash_end {
        let h = hash4(&src[i..]);
        let candidate = table[h] as usize;
        table[h] = (i + 1) as u32;
        let found = candidate > 0 && {
            let c = candidate - 1;
            i - c <= MAX_OFFSET && src[c..c + MIN_MATCH] == src[i..i + MIN_MATCH]
        };
        if !found {
            i += 1;
            continue;
        }
        let c = candidate - 1;
        let mut len = MIN_MATCH;
        // Extend eight bytes at a time: the lowest differing byte of the
        // XORed words ends the match. The byte loop finishes the last
        // eight bytes of the block (or stops at once on a mismatch).
        while i + len + 8 <= src.len() {
            let diff = read_u64(&src[c + len..]) ^ read_u64(&src[i + len..]);
            if diff != 0 {
                len += (diff.trailing_zeros() / 8) as usize;
                break;
            }
            len += 8;
        }
        while i + len < src.len() && src[c + len] == src[i + len] {
            len += 1;
        }
        emit(out, &src[anchor..i], len);
        out.extend_from_slice(&((i - c) as u16).to_le_bytes());
        if len - MIN_MATCH >= 15 {
            push_len(out, len - MIN_MATCH - 15);
        }
        // Seed the table inside the match so adjacent records still find
        // each other (every other position keeps the encoder fast).
        let match_end = (i + len).min(hash_end);
        let mut p = i + 1;
        while p < match_end {
            table[hash4(&src[p..])] = (p + 1) as u32;
            p += 2;
        }
        i += len;
        anchor = i;
    }
    // Final literal-only sequence.
    emit(out, &src[anchor..], 0);
    out.len() - start
}

/// Decompresses `src` into `out`, which must be exactly the original
/// length.
///
/// # Errors
///
/// Returns [`LzCorrupt`] if the stream is malformed or does not produce
/// exactly `out.len()` bytes.
pub fn decompress(src: &[u8], out: &mut [u8]) -> Result<(), LzCorrupt> {
    let mut s = 0usize; // src cursor
    let mut d = 0usize; // out cursor
    loop {
        let token = *src.get(s).ok_or(LzCorrupt)?;
        s += 1;
        let mut lit_len = (token >> 4) as usize;
        if lit_len == 15 {
            lit_len += read_len(src, &mut s)?;
        }
        let lit_end = s.checked_add(lit_len).ok_or(LzCorrupt)?;
        if lit_end > src.len() || d + lit_len > out.len() {
            return Err(LzCorrupt);
        }
        out[d..d + lit_len].copy_from_slice(&src[s..lit_end]);
        s = lit_end;
        d += lit_len;
        if s == src.len() {
            // Literal-only tail: the stream is complete.
            return if d == out.len() { Ok(()) } else { Err(LzCorrupt) };
        }
        if s + 2 > src.len() {
            return Err(LzCorrupt);
        }
        let offset = u16::from_le_bytes([src[s], src[s + 1]]) as usize;
        s += 2;
        let mut match_len = (token & 0x0F) as usize;
        if match_len == 15 {
            match_len += read_len(src, &mut s)?;
        }
        match_len += MIN_MATCH;
        if offset == 0 || offset > d || d + match_len > out.len() {
            return Err(LzCorrupt);
        }
        copy_match(out, d, offset, match_len);
        d += match_len;
    }
}

/// Copies `len` bytes from `offset` bytes back to `out[d..]`, with the
/// semantics of a forward byte-by-byte copy. An overlapping match
/// (`offset < len`) replicates a run of period `offset`; each chunk
/// copies everything written since `from`, so the chunks double.
fn copy_match(out: &mut [u8], d: usize, offset: usize, len: usize) {
    let from = d - offset;
    let end = d + len;
    let mut p = d;
    while p < end {
        let chunk = (p - from).min(end - p);
        out.copy_within(from..from + chunk, p);
        p += chunk;
    }
}

/// The first eight bytes of `bytes` as a little-endian word.
pub(crate) fn read_u64(bytes: &[u8]) -> u64 {
    u64::from_le_bytes(bytes[..8].try_into().expect("8 bytes"))
}

fn read_len(src: &[u8], s: &mut usize) -> Result<usize, LzCorrupt> {
    let mut extra = 0usize;
    loop {
        let b = *src.get(*s).ok_or(LzCorrupt)?;
        *s += 1;
        extra += b as usize;
        if b != 255 {
            return Ok(extra);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(data: &[u8]) -> Vec<u8> {
        let mut packed = Vec::new();
        compress(data, &mut packed);
        let mut back = vec![0u8; data.len()];
        decompress(&packed, &mut back).expect("valid stream");
        back
    }

    #[test]
    fn empty_input_round_trips() {
        assert_eq!(round_trip(&[]), Vec::<u8>::new());
    }

    #[test]
    fn short_literal_only_input_round_trips() {
        for n in 1..20 {
            let data: Vec<u8> = (0..n).map(|i| i as u8).collect();
            assert_eq!(round_trip(&data), data, "length {n}");
        }
    }

    #[test]
    fn repetitive_input_compresses_and_round_trips() {
        let data: Vec<u8> = b"abcdefgh".iter().copied().cycle().take(10_000).collect();
        let mut packed = Vec::new();
        let n = compress(&data, &mut packed);
        assert_eq!(n, packed.len());
        assert!(packed.len() * 10 < data.len(), "{} vs {}", packed.len(), data.len());
        let mut back = vec![0u8; data.len()];
        decompress(&packed, &mut back).unwrap();
        assert_eq!(back, data);
    }

    #[test]
    fn overlapping_match_replicates_runs() {
        let data = vec![7u8; 4096];
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn long_literal_and_match_extensions_round_trip() {
        // >15 literals followed by a >15+MIN_MATCH match.
        let mut data: Vec<u8> = (0..800u32).flat_map(|i| i.to_le_bytes()).collect();
        let tail: Vec<u8> = data[..600].to_vec();
        data.extend_from_slice(&tail);
        assert_eq!(round_trip(&data), data);
    }

    #[test]
    fn pseudo_random_inputs_round_trip() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for len in [1, 7, 64, 1000, 65_537] {
            let data: Vec<u8> = (0..len).map(|_| (step() & 0xFF) as u8).collect();
            assert_eq!(round_trip(&data), data, "length {len}");
        }
    }

    #[test]
    fn truncated_stream_is_corrupt_not_panic() {
        let data: Vec<u8> = b"the quick brown fox the quick brown fox".repeat(40);
        let mut packed = Vec::new();
        compress(&data, &mut packed);
        let mut out = vec![0u8; data.len()];
        for cut in 0..packed.len() {
            assert_eq!(decompress(&packed[..cut], &mut out), Err(LzCorrupt), "cut {cut}");
        }
    }

    #[test]
    fn wrong_output_length_is_corrupt() {
        let data = b"hello world hello world hello world".to_vec();
        let mut packed = Vec::new();
        compress(&data, &mut packed);
        let mut short = vec![0u8; data.len() - 1];
        assert_eq!(decompress(&packed, &mut short), Err(LzCorrupt));
        let mut long = vec![0u8; data.len() + 1];
        assert_eq!(decompress(&packed, &mut long), Err(LzCorrupt));
    }

    #[test]
    fn match_copy_equals_byte_at_a_time_reference() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut step = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        for offset in 1..=130usize {
            for _ in 0..8 {
                let len = MIN_MATCH + (step() % 597) as usize;
                let d = offset + (step() % 64) as usize;
                let mut buf: Vec<u8> = (0..d + len + 16).map(|_| step() as u8).collect();
                let mut reference = buf.clone();
                for k in 0..len {
                    reference[d + k] = reference[d - offset + k];
                }
                copy_match(&mut buf, d, offset, len);
                assert_eq!(buf, reference, "offset {offset} len {len} at {d}");
            }
        }
    }

    #[test]
    fn bogus_offset_is_corrupt() {
        // token: 0 literals, match nibble 0 (match_len 4), offset 9 with
        // no prior output.
        let packed = [0x00u8, 9, 0, 0];
        let mut out = vec![0u8; 4];
        assert_eq!(decompress(&packed, &mut out), Err(LzCorrupt));
    }
}
