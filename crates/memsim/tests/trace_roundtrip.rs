//! Property-style round-trip tests for the `TVT2` trace codec: seeded
//! randomized record streams must encode/decode losslessly through
//! `TraceWriter`/`TraceReader`, and every malformed-input class must be
//! rejected with the byte offset of the defective chunk or record preserved
//! in `ParseTraceError`.
//!
//! Hermetic build: no proptest dependency, so the property is driven by a
//! seeded SplitMix64 generator — deterministic, reproducible, and wide
//! enough (hundreds of cases across the full field ranges) to serve the
//! same purpose.

use memsim::addr::{PhysAddr, NVM_BASE, PAGE};
use memsim::trace::{
    ParseTraceError, TraceErrorKind, TraceReadError, TraceReader, TraceRecord, TraceWriter,
    CHUNK_PAYLOAD_MAX,
};

/// SplitMix64 — the repo's standard seeded test generator.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// A random-but-valid record: every field exercises its full legal range.
fn random_record(state: &mut u64) -> TraceRecord {
    let r = splitmix64(state);
    let len = (splitmix64(state) % PAGE as u64) as u16 + 1; // 1..=PAGE
    TraceRecord {
        core: (r >> 8) as u8,
        write: r & 1 == 1,
        addr: PhysAddr(if r & 2 == 2 {
            NVM_BASE + (splitmix64(state) % (1 << 30))
        } else {
            splitmix64(state) % (1 << 30)
        }),
        len,
    }
}

/// Encode `records` into an in-memory `TVT2` stream.
fn encode(records: &[TraceRecord]) -> Vec<u8> {
    let mut w = TraceWriter::new(Vec::new()).unwrap();
    for r in records {
        w.push(*r).unwrap();
    }
    assert_eq!(w.records_written(), records.len() as u64);
    w.finish().unwrap()
}

/// Decode a whole in-memory stream, stopping at the first defect. A slice
/// reader cannot fail with a genuine I/O error.
fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, ParseTraceError> {
    let malformed = |e| match e {
        TraceReadError::Malformed(p) => p,
        TraceReadError::Io(e) => panic!("in-memory trace read cannot io-fail: {e}"),
    };
    TraceReader::new(bytes)
        .map_err(malformed)?
        .map(|r| r.map_err(malformed))
        .collect()
}

/// What a fixed-width encoding would spend per record: core (1) + flag (1)
/// + len (2) + addr (8). The varint/delta encoding must never do worse.
const FIXED_RECORD_BYTES: usize = 12;
/// Length of the stream magic.
const HEADER: usize = 4;
/// Chunk header: record count (u32le) + payload length (u32le) + CRC32C.
const CHUNK_HEADER: usize = 12;

#[test]
fn random_traces_roundtrip_losslessly() {
    let mut state = 0x5eed_0001u64;
    for case in 0..200 {
        let n = (splitmix64(&mut state) % 64) as usize;
        let t: Vec<TraceRecord> = (0..n).map(|_| random_record(&mut state)).collect();
        let bytes = encode(&t);
        assert!(
            bytes.len() <= HEADER + usize::from(n > 0) * CHUNK_HEADER + n * FIXED_RECORD_BYTES,
            "case {case}: chunked encoding must not exceed the fixed-width size"
        );
        let back =
            decode(&bytes).unwrap_or_else(|e| panic!("case {case}: valid trace rejected: {e}"));
        assert_eq!(t, back, "case {case}: round-trip must be lossless");
        // Serialization is canonical: re-serializing parses back to the
        // same bytes.
        assert_eq!(bytes, encode(&back), "case {case}: canonical bytes");
    }
}

#[test]
fn streaming_writer_reader_roundtrips_spanning_chunks() {
    // Wide random addresses encode ~11 bytes/record, so this spans several
    // 64 KiB chunks and exercises the per-chunk delta-base reset.
    let mut state = 0x5eed_0003u64;
    let records: Vec<TraceRecord> = (0..40_000).map(|_| random_record(&mut state)).collect();
    let bytes = encode(&records);
    assert!(bytes.len() > CHUNK_PAYLOAD_MAX, "must span multiple chunks");

    let mut r = TraceReader::new(&bytes[..]).unwrap();
    let mut n = 0usize;
    for rec in &mut r {
        assert_eq!(rec.unwrap(), records[n], "record {n}");
        n += 1;
    }
    assert_eq!(n, records.len());
    assert!(
        r.buffer_capacity() <= CHUNK_PAYLOAD_MAX,
        "reader memory stays O(chunk): {} bytes",
        r.buffer_capacity()
    );
}

#[test]
fn empty_trace_roundtrips() {
    let bytes = encode(&[]);
    assert_eq!(bytes, b"TVT2", "an empty trace is just the magic");
    assert_eq!(decode(&bytes).unwrap(), []);
}

#[test]
fn short_or_bad_magic_reports_offset_zero() {
    for bad in [&b""[..], &b"T"[..], &b"TVT"[..], &b"XXXX"[..], &b"tvt2"[..]] {
        let err = decode(bad).expect_err("must reject");
        assert_eq!(err.offset, 0, "input {bad:?}");
        assert_eq!(err.kind, TraceErrorKind::BadMagic, "input {bad:?}");
    }
}

#[test]
fn retired_fixed_width_format_is_rejected_as_bad_magic() {
    // A well-formed stream of the retired fixed-width format (one 64-byte
    // read of address 0 by core 0): there is one decode path, so its magic
    // is rejected like any other unknown one.
    let mut bytes = b"TVTR".to_vec();
    bytes.extend_from_slice(&[0, 0, 64, 0, 0, 0, 0, 0, 0, 0, 0, 0]);
    let err = decode(&bytes).expect_err("must reject");
    assert_eq!((err.offset, err.kind), (0, TraceErrorKind::BadMagic));
}

#[test]
fn truncated_chunk_reports_chunk_offset() {
    let mut state = 0xbad_c0deu64;
    let t: Vec<TraceRecord> = (0..5).map(|_| random_record(&mut state)).collect();
    let full = encode(&t);
    // One chunk: magic, then header + payload. Any cut inside the chunk —
    // header or payload — reports the chunk's start offset. (A cut at
    // exactly HEADER leaves a valid empty trace, so start past it.)
    for cut in HEADER + 1..full.len() - 1 {
        let err = decode(&full[..cut]).expect_err("truncated trace must be rejected");
        assert_eq!(err.offset, HEADER, "cut at byte {cut}");
        assert_eq!(err.kind, TraceErrorKind::Truncated, "cut at byte {cut}");
    }
}

#[test]
fn corrupt_crc_reports_chunk_offset() {
    let mut state = 0xc0c0_c0deu64;
    // Two chunks' worth of records so the second chunk's offset is nonzero.
    let records: Vec<TraceRecord> = (0..10_000).map(|_| random_record(&mut state)).collect();
    let good = encode(&records);
    // Locate the second chunk by walking the chunk headers.
    let len0 = u32::from_le_bytes(good[HEADER + 4..HEADER + 8].try_into().unwrap()) as usize;
    let chunk1 = HEADER + CHUNK_HEADER + len0;
    assert!(chunk1 + CHUNK_HEADER < good.len(), "need a second chunk");

    // Flip one payload byte in the second chunk: the reader must deliver
    // every first-chunk record, then fail at the second chunk's offset.
    let mut bytes = good.clone();
    bytes[chunk1 + CHUNK_HEADER] ^= 0x01;
    let mut r = TraceReader::new(&bytes[..]).unwrap();
    let mut delivered = 0usize;
    let err = loop {
        match r.next() {
            Some(Ok(rec)) => {
                assert_eq!(rec, records[delivered], "pre-corruption record");
                delivered += 1;
            }
            Some(Err(TraceReadError::Malformed(e))) => break e,
            Some(Err(e)) => panic!("unexpected io error: {e}"),
            None => panic!("corrupt chunk must not decode cleanly"),
        }
    };
    assert!(delivered > 0, "first chunk decodes before the bad one");
    assert_eq!(err.kind, TraceErrorKind::CrcMismatch);
    assert_eq!(err.offset, chunk1, "error names the corrupt chunk's offset");
}

#[test]
fn chunked_decode_rejects_out_of_range_len() {
    // Hand-craft a chunk whose record claims len 0 and one claiming
    // len > PAGE: `check_len` must fire on the decode path with the
    // record's offset, even though the CRC is valid.
    for bad_len in [0u64, PAGE as u64 + 1] {
        let mut payload = Vec::new();
        payload.push(0u8); // core
        // varint((len << 1) | write=0)
        let mut v = bad_len << 1;
        loop {
            let b = (v & 0x7f) as u8;
            v >>= 7;
            if v == 0 {
                payload.push(b);
                break;
            }
            payload.push(b | 0x80);
        }
        payload.push(0u8); // varint(zigzag(0)) — addr delta 0
        let crc = memsim::trace::chunk_crc32c(&payload);
        let mut bytes = b"TVT2".to_vec();
        bytes.extend_from_slice(&1u32.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc.to_le_bytes());
        bytes.extend_from_slice(&payload);
        let err = decode(&bytes).expect_err("len {bad_len} must be rejected");
        assert_eq!(err.kind, TraceErrorKind::BadLen, "len {bad_len}");
        assert_eq!(
            err.offset,
            HEADER + CHUNK_HEADER,
            "record offset for len {bad_len}"
        );
    }
}

#[test]
fn error_display_names_the_offset() {
    let err = decode(b"XXXX").unwrap_err();
    assert_eq!(err.to_string(), "malformed trace at byte 0: bad magic");
}
