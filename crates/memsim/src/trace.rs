//! Memory-access traces: a compact chunked binary format for recording the
//! access stream a campaign cell issued (`bench::capture`, the
//! `results/traces/*.tvt2` artefacts).
//!
//! # Streaming codec
//!
//! The on-disk format (`TVT2`) is **chunked** so encoding and decoding are
//! O(chunk) in memory, not O(trace): [`TraceWriter`] encodes records into a
//! bounded buffer and emits a self-describing chunk (record count, payload
//! length, CRC32C over the payload via the [`crate::crc`] dispatcher)
//! whenever the buffer fills; [`TraceReader`] reads one chunk at a time,
//! verifies its CRC, and decodes records on demand. A multi-hundred-
//! million-op stream flows through any `io::Write`/`io::Read` pair —
//! typically a file — without ever being resident.
//!
//! Inside a chunk, records are delta-encoded: addresses are stored as
//! zigzag LEB128 deltas from the previous record's address (reset per
//! chunk, so chunks decode independently) and the length/write-flag pair is
//! one LEB128 varint, so the dominant sequential/strided patterns take
//! ~4–5 bytes per record.
//!
//! ```text
//! file   := "TVT2" chunk*
//! chunk  := count:u32le len:u32le crc32c:u32le payload[len]
//! record := core:u8  varint(len << 1 | write)  varint(zigzag(addr - prev))
//! ```
//!
//! `TVT2` is the only format: any other magic is rejected.

use crate::addr::PhysAddr;
use std::fmt;
use std::io::{self, Read, Write};

/// One access in a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// Issuing core.
    pub core: u8,
    /// Whether the access is a store.
    pub write: bool,
    /// Physical byte address.
    pub addr: PhysAddr,
    /// Access size in bytes (1..=4096).
    pub len: u16,
}

/// What was wrong with a serialized trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceErrorKind {
    /// The stream does not start with the `TVT2` magic.
    BadMagic,
    /// The stream ended inside a chunk header or chunk payload.
    Truncated,
    /// A chunk header's CRC32C does not match its payload.
    CrcMismatch,
    /// A chunk header carries an impossible record count or payload length
    /// (zero, or beyond [`CHUNK_PAYLOAD_MAX`], or more records than the
    /// payload could encode).
    BadChunkHeader,
    /// A record's access length is outside `1..=4096`.
    BadLen,
    /// A LEB128 varint overruns 10 bytes or the chunk payload.
    BadVarint,
    /// A chunk payload was not fully consumed by its declared record count.
    TrailingBytes,
}

impl TraceErrorKind {
    fn as_str(self) -> &'static str {
        match self {
            TraceErrorKind::BadMagic => "bad magic",
            TraceErrorKind::Truncated => "truncated",
            TraceErrorKind::CrcMismatch => "chunk CRC mismatch",
            TraceErrorKind::BadChunkHeader => "bad chunk header",
            TraceErrorKind::BadLen => "access length out of range",
            TraceErrorKind::BadVarint => "bad varint",
            TraceErrorKind::TrailingBytes => "chunk payload not consumed",
        }
    }
}

/// Error parsing a serialized trace: the defect class plus the byte offset
/// (from the start of the stream) where the malformed chunk or record
/// begins.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ParseTraceError {
    /// Byte offset of the malformed chunk/record.
    pub offset: usize,
    /// What was wrong there.
    pub kind: TraceErrorKind,
}

impl fmt::Display for ParseTraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "malformed trace at byte {}: {}", self.offset, self.kind.as_str())
    }
}

impl std::error::Error for ParseTraceError {}

/// Error reading a streamed trace: either the underlying reader failed or
/// the bytes it produced are malformed.
#[derive(Debug)]
pub enum TraceReadError {
    /// The underlying `io::Read` failed.
    Io(io::Error),
    /// The stream's bytes are not a valid trace.
    Malformed(ParseTraceError),
}

impl fmt::Display for TraceReadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceReadError::Io(e) => write!(f, "trace read failed: {e}"),
            TraceReadError::Malformed(e) => e.fmt(f),
        }
    }
}

impl std::error::Error for TraceReadError {}

impl From<io::Error> for TraceReadError {
    fn from(e: io::Error) -> Self {
        TraceReadError::Io(e)
    }
}

impl From<ParseTraceError> for TraceReadError {
    fn from(e: ParseTraceError) -> Self {
        TraceReadError::Malformed(e)
    }
}

/// Stream magic.
const MAGIC: &[u8; 4] = b"TVT2";
/// Chunk header size: count (4) + payload len (4) + crc (4).
const CHUNK_HEADER: usize = 12;
/// Upper bound on one encoded record: core byte + len/flag varint (2) +
/// address-delta varint (10).
const MAX_RECORD_ENC: usize = 1 + 2 + 10;
/// Hard cap on a chunk payload, in bytes. [`TraceWriter`] flushes before a
/// record would cross it, so every well-formed chunk payload fits in this
/// bound — which is what makes [`TraceReader`]'s memory O(chunk): its one
/// payload buffer never grows beyond this, however long the stream.
pub const CHUNK_PAYLOAD_MAX: usize = 64 * 1024;
/// Maximum access length (one page).
const LEN_MAX: usize = crate::addr::PAGE;

/// iSCSI-convention CRC32C over a chunk payload (hardware-dispatched via
/// `crate::crc`). Public so tests and external tools can author or audit
/// chunks without reimplementing the convention.
pub fn chunk_crc32c(data: &[u8]) -> u32 {
    !crate::crc::update(u32::MAX, data)
}
use chunk_crc32c as crc32c;

/// Append `v` as LEB128 to `out`.
fn put_varint(out: &mut Vec<u8>, mut v: u64) {
    loop {
        let b = (v & 0x7f) as u8;
        v >>= 7;
        if v == 0 {
            out.push(b);
            return;
        }
        out.push(b | 0x80);
    }
}

/// Decode a LEB128 varint from `buf[*pos..]`, advancing `*pos`. `None` on
/// overrun (more than 10 bytes or past the buffer).
///
/// The single-byte case (values < 128) dominates decoded streams — the
/// len/write-flag pair of every small access and the address delta of every
/// sequential/strided pattern fit in one byte — so it is peeled out of the
/// loop entirely: one bounds check, one branch, no shift state.
#[inline]
fn get_varint(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let b0 = *buf.get(*pos)?;
    if b0 & 0x80 == 0 {
        *pos += 1;
        return Some(u64::from(b0));
    }
    get_varint_multi(buf, pos)
}

/// Multi-byte continuation of [`get_varint`], out of the hot path. The
/// iteration count is bounded up front (a u64 needs at most 10 LEB128
/// bytes), so the loop carries no separate overrun check.
#[cold]
fn get_varint_multi(buf: &[u8], pos: &mut usize) -> Option<u64> {
    let mut v = 0u64;
    let mut shift = 0u32;
    for _ in 0..10 {
        let b = *buf.get(*pos)?;
        *pos += 1;
        if shift == 63 && b > 1 {
            return None; // would overflow u64
        }
        v |= u64::from(b & 0x7f) << shift;
        if b & 0x80 == 0 {
            return Some(v);
        }
        shift += 7;
    }
    None
}

/// Zigzag-encode a signed delta.
fn zigzag(v: i64) -> u64 {
    ((v << 1) ^ (v >> 63)) as u64
}

/// Invert [`zigzag`] (branchless: the sign bit expands to a full mask via
/// `wrapping_neg`, then XOR undoes the interleave).
fn unzigzag(v: u64) -> i64 {
    ((v >> 1) ^ (v & 1).wrapping_neg()) as i64
}

/// Streaming chunked-trace encoder over any `io::Write`.
///
/// Records accumulate into a bounded payload buffer (delta/varint encoded);
/// when the next record would cross [`CHUNK_PAYLOAD_MAX`] the buffer is
/// emitted as one chunk (header + CRC32C + payload) and reused, so memory
/// stays O(chunk) no matter how many records flow through. Call
/// [`TraceWriter::finish`] to flush the final partial chunk — dropping the
/// writer without finishing loses buffered records.
pub struct TraceWriter<W: Write> {
    inner: W,
    payload: Vec<u8>,
    chunk_records: u32,
    prev_addr: u64,
    records: u64,
}

impl<W: Write> fmt::Debug for TraceWriter<W> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceWriter")
            .field("records", &self.records)
            .field("buffered", &self.payload.len())
            .finish_non_exhaustive()
    }
}

impl<W: Write> TraceWriter<W> {
    /// Wrap `inner`, writing the `TVT2` magic immediately.
    ///
    /// # Errors
    ///
    /// Propagates the magic write.
    pub fn new(mut inner: W) -> io::Result<Self> {
        inner.write_all(MAGIC)?;
        Ok(TraceWriter {
            inner,
            payload: Vec::with_capacity(CHUNK_PAYLOAD_MAX),
            chunk_records: 0,
            prev_addr: 0,
            records: 0,
        })
    }

    /// Append one record, emitting a chunk first if it would not fit.
    ///
    /// # Errors
    ///
    /// Propagates chunk writes to the underlying writer.
    ///
    /// # Panics
    ///
    /// Panics if `record.len` is zero or greater than a page — the same
    /// bound the decoder enforces with [`TraceErrorKind::BadLen`].
    pub fn push(&mut self, record: TraceRecord) -> io::Result<()> {
        assert!(
            record.len >= 1 && record.len as usize <= LEN_MAX,
            "access length {} out of range",
            record.len
        );
        if self.payload.len() + MAX_RECORD_ENC > CHUNK_PAYLOAD_MAX {
            self.flush_chunk()?;
        }
        self.payload.push(record.core);
        put_varint(
            &mut self.payload,
            (record.len as u64) << 1 | u64::from(record.write),
        );
        let delta = record.addr.0.wrapping_sub(self.prev_addr) as i64;
        put_varint(&mut self.payload, zigzag(delta));
        self.prev_addr = record.addr.0;
        self.chunk_records += 1;
        self.records += 1;
        Ok(())
    }

    /// Emit the buffered payload as one chunk and reset per-chunk state.
    fn flush_chunk(&mut self) -> io::Result<()> {
        if self.chunk_records == 0 {
            return Ok(());
        }
        let crc = crc32c(&self.payload);
        self.inner.write_all(&self.chunk_records.to_le_bytes())?;
        self.inner.write_all(&(self.payload.len() as u32).to_le_bytes())?;
        self.inner.write_all(&crc.to_le_bytes())?;
        self.inner.write_all(&self.payload)?;
        self.payload.clear();
        self.chunk_records = 0;
        self.prev_addr = 0; // deltas reset per chunk: chunks decode independently
        Ok(())
    }

    /// Records pushed so far.
    pub fn records_written(&self) -> u64 {
        self.records
    }

    /// Flush the final partial chunk and return the underlying writer.
    ///
    /// # Errors
    ///
    /// Propagates the final chunk write and flush.
    pub fn finish(mut self) -> io::Result<W> {
        self.flush_chunk()?;
        self.inner.flush()?;
        Ok(self.inner)
    }
}

/// Streaming `TVT2` decoder over any `io::Read`.
///
/// Memory use is O(chunk): one payload buffer bounded by
/// [`CHUNK_PAYLOAD_MAX`], regardless of stream length. Every chunk's CRC32C
/// is verified before any of its records are surfaced, and every error
/// carries the byte offset of the offending chunk or record.
pub struct TraceReader<R: Read> {
    inner: R,
    /// Current chunk payload.
    buf: Vec<u8>,
    /// Decode cursor within `buf`.
    cursor: usize,
    /// Records remaining in the current chunk.
    chunk_remaining: u32,
    /// Byte offset (in the stream) where the current chunk's payload starts.
    payload_offset: usize,
    /// Delta base for the current chunk.
    prev_addr: u64,
    /// Total bytes consumed from the underlying reader.
    pos: usize,
    /// Records decoded so far.
    records_read: u64,
}

impl<R: Read> fmt::Debug for TraceReader<R> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TraceReader")
            .field("pos", &self.pos)
            .field("records_read", &self.records_read)
            .finish_non_exhaustive()
    }
}

impl<R: Read> TraceReader<R> {
    /// Wrap `inner`, reading and validating the 4-byte magic.
    ///
    /// # Errors
    ///
    /// [`TraceReadError::Malformed`] with [`TraceErrorKind::BadMagic`] at
    /// offset 0 when the stream does not start with `TVT2`;
    /// [`TraceReadError::Io`] on reader failure.
    pub fn new(mut inner: R) -> Result<Self, TraceReadError> {
        let mut magic = [0u8; 4];
        let got = read_fully(&mut inner, &mut magic)?;
        if got < 4 || &magic != MAGIC {
            return Err(ParseTraceError {
                offset: 0,
                kind: TraceErrorKind::BadMagic,
            }
            .into());
        }
        Ok(TraceReader {
            inner,
            // Pre-sized to its ceiling so `resize` inside the chunk loop
            // never reallocates: capacity IS the memory bound that
            // `buffer_capacity` reports and the bounded-stream test asserts.
            buf: Vec::with_capacity(CHUNK_PAYLOAD_MAX),
            cursor: 0,
            chunk_remaining: 0,
            payload_offset: 4,
            prev_addr: 0,
            pos: 4,
            records_read: 0,
        })
    }

    /// Records decoded so far.
    pub fn records_read(&self) -> u64 {
        self.records_read
    }

    /// Capacity of the reader's internal payload buffer — the O(chunk)
    /// resident-memory bound the streaming codec guarantees (at most
    /// [`CHUNK_PAYLOAD_MAX`]).
    pub fn buffer_capacity(&self) -> usize {
        self.buf.capacity()
    }

    /// Decode the next record, or `None` at a clean end of stream (EOF at
    /// a chunk boundary).
    ///
    /// # Errors
    ///
    /// [`TraceReadError::Malformed`] on truncation, CRC mismatch, or any
    /// out-of-range field, with the offending chunk/record's byte offset;
    /// [`TraceReadError::Io`] on reader failure.
    pub fn next_record(&mut self) -> Result<Option<TraceRecord>, TraceReadError> {
        if self.chunk_remaining == 0 && !self.load_chunk()? {
            return Ok(None);
        }
        self.decode_one().map(Some)
    }

    /// Read the next chunk header + payload and verify its CRC. `false` at
    /// a clean EOF.
    fn load_chunk(&mut self) -> Result<bool, TraceReadError> {
        let chunk_start = self.pos;
        let mut header = [0u8; CHUNK_HEADER];
        let got = read_fully(&mut self.inner, &mut header)?;
        if got == 0 {
            return Ok(false);
        }
        self.pos += got;
        if got < CHUNK_HEADER {
            return Err(truncated(chunk_start));
        }
        let count = u32::from_le_bytes(header[0..4].try_into().unwrap());
        let len = u32::from_le_bytes(header[4..8].try_into().unwrap()) as usize;
        let crc = u32::from_le_bytes(header[8..12].try_into().unwrap());
        // A record encodes to at least 3 bytes (core + 2 one-byte varints),
        // so `count` beyond len/3 (or an empty/oversized payload) cannot be
        // well-formed — reject before reading the payload.
        if count == 0 || len == 0 || len > CHUNK_PAYLOAD_MAX || count as usize > len / 3 {
            return Err(ParseTraceError {
                offset: chunk_start,
                kind: TraceErrorKind::BadChunkHeader,
            }
            .into());
        }
        self.buf.resize(len, 0);
        let got = read_fully(&mut self.inner, &mut self.buf)?;
        self.pos += got;
        if got < len {
            return Err(truncated(chunk_start));
        }
        if crc32c(&self.buf) != crc {
            return Err(ParseTraceError {
                offset: chunk_start,
                kind: TraceErrorKind::CrcMismatch,
            }
            .into());
        }
        self.cursor = 0;
        self.chunk_remaining = count;
        self.payload_offset = chunk_start + CHUNK_HEADER;
        self.prev_addr = 0;
        Ok(true)
    }

    /// Decode one record from the loaded chunk payload.
    fn decode_one(&mut self) -> Result<TraceRecord, TraceReadError> {
        let rec_offset = self.payload_offset + self.cursor;
        let malformed = |kind| ParseTraceError {
            offset: rec_offset,
            kind,
        };
        let core = *self
            .buf
            .get(self.cursor)
            .ok_or_else(|| malformed(TraceErrorKind::BadVarint))?;
        self.cursor += 1;
        let lw = get_varint(&self.buf, &mut self.cursor)
            .ok_or_else(|| malformed(TraceErrorKind::BadVarint))?;
        let (len, write) = (lw >> 1, lw & 1 == 1);
        if len == 0 || len > LEN_MAX as u64 {
            return Err(malformed(TraceErrorKind::BadLen).into());
        }
        let delta = get_varint(&self.buf, &mut self.cursor)
            .ok_or_else(|| malformed(TraceErrorKind::BadVarint))?;
        let addr = self.prev_addr.wrapping_add(unzigzag(delta) as u64);
        self.prev_addr = addr;
        self.chunk_remaining -= 1;
        if self.chunk_remaining == 0 && self.cursor != self.buf.len() {
            return Err(ParseTraceError {
                offset: self.payload_offset + self.cursor,
                kind: TraceErrorKind::TrailingBytes,
            }
            .into());
        }
        self.records_read += 1;
        Ok(TraceRecord {
            core,
            write,
            addr: PhysAddr(addr),
            len: len as u16,
        })
    }
}

impl<R: Read> Iterator for TraceReader<R> {
    type Item = Result<TraceRecord, TraceReadError>;
    fn next(&mut self) -> Option<Self::Item> {
        self.next_record().transpose()
    }
}

/// A [`TraceErrorKind::Truncated`] error at `offset`.
fn truncated(offset: usize) -> TraceReadError {
    ParseTraceError {
        offset,
        kind: TraceErrorKind::Truncated,
    }
    .into()
}

/// Read into `buf` until full or EOF, returning the bytes read (a short
/// count means EOF). Retries on `Interrupted` like `read_exact`, but a
/// clean EOF is data, not an error — the caller decides what a short read
/// means at its offset.
fn read_fully<R: Read>(r: &mut R, buf: &mut [u8]) -> io::Result<usize> {
    let mut filled = 0;
    while filled < buf.len() {
        match r.read(&mut buf[filled..]) {
            Ok(0) => break,
            Ok(n) => filled += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
            Err(e) => return Err(e),
        }
    }
    Ok(filled)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::addr::NVM_BASE;

    fn encode(records: &[TraceRecord]) -> Vec<u8> {
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for r in records {
            w.push(*r).unwrap();
        }
        w.finish().unwrap()
    }

    /// Decode a whole in-memory stream; a slice reader cannot io-fail.
    fn decode(bytes: &[u8]) -> Result<Vec<TraceRecord>, ParseTraceError> {
        let malformed = |e| match e {
            TraceReadError::Malformed(p) => p,
            TraceReadError::Io(e) => panic!("slice read failed: {e}"),
        };
        TraceReader::new(bytes)
            .map_err(malformed)?
            .map(|r| r.map_err(malformed))
            .collect()
    }

    /// One hand-framed chunk claiming `count` records over `payload`.
    fn chunk(count: u32, payload: &[u8]) -> Vec<u8> {
        let mut bytes = MAGIC.to_vec();
        bytes.extend_from_slice(&count.to_le_bytes());
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32c(payload).to_le_bytes());
        bytes.extend_from_slice(payload);
        bytes
    }

    #[test]
    fn roundtrip_serialization() {
        let records = [
            TraceRecord {
                core: 1,
                write: true,
                addr: PhysAddr(NVM_BASE + 640),
                len: 64,
            },
            TraceRecord {
                core: 0,
                write: false,
                addr: PhysAddr(128),
                len: 8,
            },
        ];
        let bytes = encode(&records);
        assert_eq!(&bytes[..4], MAGIC);
        assert_eq!(decode(&bytes).unwrap(), records);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(decode(b"").is_err());
        assert!(decode(b"XXXX").is_err());
        let good = encode(&[TraceRecord {
            core: 0,
            write: false,
            addr: PhysAddr(0),
            len: 1,
        }]);
        let mut bytes = good.clone();
        bytes.pop(); // truncate the chunk payload
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::Truncated);
        assert_eq!(err.offset, 4, "truncation reports the chunk start");
        // Corrupt the CRC field (chunk header: count@4, len@8, crc@12).
        let mut bytes = good.clone();
        bytes[12] ^= 0xff;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::CrcMismatch);
        assert_eq!(err.offset, 4);
        // Corrupt a payload byte: also surfaces as a CRC mismatch.
        let mut bytes = good.clone();
        let last = bytes.len() - 1;
        bytes[last] ^= 0xff;
        let err = decode(&bytes).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::CrcMismatch);
        assert_eq!(err.offset, 4);
        // A minimal record (core 0, len 1 read, delta 0) is 3 bytes, so
        // 3 * count == len is the densest well-formed chunk.
        let payload = [0u8, 2, 0, 0, 2, 0, 0, 2];
        assert_eq!(decode(&chunk(2, &payload[..6])).unwrap().len(), 2);
        // 3 * count == len + 1 cannot be well-formed: the header is rejected
        // at the chunk offset before any payload decode (decoding first
        // would report a `BadVarint` inside the payload instead).
        let err = decode(&chunk(3, &payload)).unwrap_err();
        assert_eq!(err.kind, TraceErrorKind::BadChunkHeader);
        assert_eq!(err.offset, 4);
    }

    #[test]
    fn varint_roundtrips() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u64::MAX / 2, u64::MAX] {
            let mut buf = Vec::new();
            put_varint(&mut buf, v);
            let mut pos = 0;
            assert_eq!(get_varint(&buf, &mut pos), Some(v));
            assert_eq!(pos, buf.len());
        }
        for v in [0i64, 1, -1, 63, -64, i64::MAX, i64::MIN] {
            assert_eq!(unzigzag(zigzag(v)), v, "zigzag({v})");
        }
    }

    #[test]
    fn writer_reader_stream_across_chunks() {
        // Enough records to force multiple chunks (strided cache-line
        // accesses are ~4-5 bytes/record, so > CHUNK_PAYLOAD_MAX / 4 records).
        let n = (CHUNK_PAYLOAD_MAX * 3) as u64;
        let record = |i: u64| TraceRecord {
            core: (i / 16 % 4) as u8,
            write: i.is_multiple_of(4),
            addr: PhysAddr(NVM_BASE + (i * 0x9e37 % (1 << 20)) * 64),
            len: 64,
        };
        let mut w = TraceWriter::new(Vec::new()).unwrap();
        for i in 0..n {
            w.push(record(i)).unwrap();
        }
        assert_eq!(w.records_written(), n);
        let bytes = w.finish().unwrap();
        let mut r = TraceReader::new(&bytes[..]).unwrap();
        let mut count = 0u64;
        while let Some(rec) = r.next_record().unwrap() {
            assert_eq!(rec, record(count));
            count += 1;
        }
        assert_eq!(count, n);
        assert!(
            r.buffer_capacity() <= CHUNK_PAYLOAD_MAX,
            "reader buffer {} exceeds the chunk bound",
            r.buffer_capacity()
        );
    }
}
