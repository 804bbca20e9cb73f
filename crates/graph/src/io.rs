//! Binary serialization of CSR graphs, plus the transport's wire envelope.
//!
//! One versioned, self-describing little-endian graph format (no external
//! format crate), magic `FGTA`, version 2: a fixed 64-byte header with
//! explicit section positions, a *row-chunk directory* (cumulative edge
//! counts at every `chunk_rows` row boundary), then 8-byte-aligned offset /
//! index / weight sections. The directory lets a reader locate any row
//! chunk's offsets, indices, and weights with three positioned reads, so
//! the graph can be consumed tile-at-a-time ([`crate::store::ChunkedCsr`],
//! the one reader) with a resident set of O(tile) instead of O(graph).
//! [`CsrV2Writer`] streams rows in; [`write_csr_v2`] writes an in-memory
//! graph.

use crate::Csr;
use std::fs::File;
use std::io::{self, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

const MAGIC: &[u8; 4] = b"FGTA";
/// Version byte of the chunked out-of-core layout.
pub const VERSION_V2: u8 = 2;
/// Fixed v2 header size in bytes.
pub const V2_HEADER: u64 = 64;
/// Sanity ceiling on the v2 chunk count: bounds the directory allocation
/// for hostile headers (a real writer at 2¹⁶ rows per chunk needs ~153
/// chunks for 10⁷ nodes; 4Mi chunks covers `MAX_DECODE_NODES` at 1Ki rows
/// per chunk).
pub const MAX_DECODE_CHUNKS: u64 = 1 << 22;

/// Sanity ceiling on a header's node count: a node id must fit in the
/// `u32` column-index encoding anyway, so anything larger is a corrupt or
/// hostile length field, not a real graph.
pub const MAX_DECODE_NODES: u64 = 1 << 32;
/// Sanity ceiling on a header's edge count. Covers the 10⁸-edge scale the
/// roadmap targets with an order of magnitude to spare; a larger value
/// means the file is lying.
pub const MAX_DECODE_EDGES: u64 = 1 << 33;

/// Errors from graph (de)serialization.
#[derive(Debug)]
pub enum IoError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// Bad magic bytes — not a graph stream.
    BadMagic,
    /// Unsupported codec version.
    BadVersion(u8),
    /// Structural inconsistency in the decoded data.
    Corrupt(&'static str),
}

impl From<io::Error> for IoError {
    fn from(e: io::Error) -> Self {
        IoError::Io(e)
    }
}

impl std::fmt::Display for IoError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            IoError::Io(e) => write!(f, "i/o error: {e}"),
            IoError::BadMagic => write!(f, "bad magic: not a fedgta graph stream"),
            IoError::BadVersion(v) => write!(f, "unsupported codec version {v}"),
            IoError::Corrupt(m) => write!(f, "corrupt graph stream: {m}"),
        }
    }
}

impl std::error::Error for IoError {}

// ---------------------------------------------------------------------
// v2: the chunked out-of-core layout.
// ---------------------------------------------------------------------
//
// Byte layout (little-endian, all positions from file start):
//
//   0..4    magic "FGTA"
//   4       version (2)
//   5       has_weights (0/1)
//   6..8    reserved (0)
//   8..16   n: u64 (nodes)
//   16..24  m: u64 (stored directed edges)
//   24..32  chunk_rows: u64
//   32..40  dir_pos: u64      (== 64)
//   40..48  offsets_pos: u64
//   48..56  indices_pos: u64
//   56..64  weights_pos: u64  (0 when unweighted)
//
// Sections, each 8-byte aligned:
//   dir      (num_chunks+1) × u64   cumulative edge counts at chunk row
//                                   boundaries: dir[c] = offsets[c·chunk_rows]
//   offsets  (n+1) × u64
//   indices  m × u32
//   weights  m × f32 (only when has_weights)

/// Positioned write: `buf` at absolute offset `pos`, independent of any
/// seek cursor (unix `pwrite`; seek-based fallback elsewhere — the fallback
/// is only safe from one thread per `File` handle, which all callers obey
/// by giving each worker its own handle).
#[cfg(unix)]
pub(crate) fn pwrite_all(f: &File, pos: u64, buf: &[u8]) -> io::Result<()> {
    std::os::unix::fs::FileExt::write_all_at(f, buf, pos)
}

#[cfg(not(unix))]
pub(crate) fn pwrite_all(mut f: &File, pos: u64, buf: &[u8]) -> io::Result<()> {
    f.seek(SeekFrom::Start(pos))?;
    f.write_all(buf)
}

/// Positioned read of exactly `buf.len()` bytes at absolute offset `pos`.
#[cfg(unix)]
pub(crate) fn pread_exact(f: &File, pos: u64, buf: &mut [u8]) -> io::Result<()> {
    std::os::unix::fs::FileExt::read_exact_at(f, buf, pos)
}

#[cfg(not(unix))]
pub(crate) fn pread_exact(mut f: &File, pos: u64, buf: &mut [u8]) -> io::Result<()> {
    use std::io::Read;
    f.seek(SeekFrom::Start(pos))?;
    f.read_exact(buf)
}

#[inline]
fn align8(x: u64) -> u64 {
    (x + 7) & !7
}

/// Appends `xs` to `buf` as little-endian bytes, `N` to each: one resize
/// and one pass that compiles to a copy on a little-endian target.
fn put_le<T: Copy, const N: usize>(buf: &mut Vec<u8>, xs: &[T], le: impl Fn(T) -> [u8; N]) {
    let at = buf.len();
    buf.resize(at + N * xs.len(), 0);
    for (b, &x) in buf[at..].chunks_exact_mut(N).zip(xs) {
        b.copy_from_slice(&le(x));
    }
}

/// Parsed v2 header: counts plus section positions, sanity-checked.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct V2Meta {
    /// Node count.
    pub nodes: u64,
    /// Stored directed edge count.
    pub edges: u64,
    /// Rows per chunk.
    pub chunk_rows: u64,
    /// Whether a weights section is present.
    pub has_weights: bool,
    /// Absolute position of the chunk directory.
    pub dir_pos: u64,
    /// Absolute position of the offsets section.
    pub offsets_pos: u64,
    /// Absolute position of the indices section.
    pub indices_pos: u64,
    /// Absolute position of the weights section (0 when unweighted).
    pub weights_pos: u64,
}

impl V2Meta {
    /// Number of row chunks (`ceil(n / chunk_rows)`, 0 for an empty graph).
    pub fn num_chunks(&self) -> usize {
        (self.nodes as usize).div_ceil(self.chunk_rows as usize)
    }

    /// Section positions a conforming writer produces for these counts.
    fn expected_positions(
        nodes: u64,
        edges: u64,
        chunk_rows: u64,
        has_weights: bool,
    ) -> (u64, u64, u64, u64) {
        let nc = (nodes as usize).div_ceil(chunk_rows.max(1) as usize) as u64;
        let dir_pos = V2_HEADER;
        let offsets_pos = dir_pos + 8 * (nc + 1);
        let indices_pos = offsets_pos + 8 * (nodes + 1);
        let weights_pos = if has_weights { align8(indices_pos + 4 * edges) } else { 0 };
        (dir_pos, offsets_pos, indices_pos, weights_pos)
    }

    /// Validates counts and section positions against the sanity ceilings
    /// and the canonical layout. Hostile headers fail here, before any
    /// count-sized allocation.
    pub fn validate(&self) -> Result<(), IoError> {
        if self.nodes > MAX_DECODE_NODES || self.edges > MAX_DECODE_EDGES {
            return Err(IoError::Corrupt("node/edge count exceeds sanity limit"));
        }
        if self.chunk_rows == 0 {
            return Err(IoError::Corrupt("zero chunk_rows"));
        }
        let nc = (self.nodes as usize).div_ceil(self.chunk_rows as usize) as u64;
        if nc > MAX_DECODE_CHUNKS {
            return Err(IoError::Corrupt("chunk count exceeds sanity limit"));
        }
        let (dir, off, idx, wts) =
            Self::expected_positions(self.nodes, self.edges, self.chunk_rows, self.has_weights);
        if (self.dir_pos, self.offsets_pos, self.indices_pos, self.weights_pos)
            != (dir, off, idx, wts)
        {
            return Err(IoError::Corrupt("section positions inconsistent with counts"));
        }
        Ok(())
    }

    /// Bytes a conforming file with this header spans: the end of the
    /// weights section when weighted, else of the indices section.
    pub fn file_len(&self) -> u64 {
        if self.has_weights {
            self.weights_pos + 4 * self.edges
        } else {
            self.indices_pos + 4 * self.edges
        }
    }

    /// Reads and validates a v2 header from the start of `file`.
    pub fn read_from(file: &File) -> Result<V2Meta, IoError> {
        let mut h = [0u8; V2_HEADER as usize];
        pread_exact(file, 0, &mut h)?;
        if &h[0..4] != MAGIC {
            return Err(IoError::BadMagic);
        }
        if h[4] != VERSION_V2 {
            return Err(IoError::BadVersion(h[4]));
        }
        let has_weights = match h[5] {
            0 => false,
            1 => true,
            _ => return Err(IoError::Corrupt("bad has_weights flag")),
        };
        let u64_at = |o: usize| u64::from_le_bytes(h[o..o + 8].try_into().unwrap());
        let meta = V2Meta {
            nodes: u64_at(8),
            edges: u64_at(16),
            chunk_rows: u64_at(24),
            has_weights,
            dir_pos: u64_at(32),
            offsets_pos: u64_at(40),
            indices_pos: u64_at(48),
            weights_pos: u64_at(56),
        };
        meta.validate()?;
        Ok(meta)
    }

    fn header_bytes(&self) -> [u8; V2_HEADER as usize] {
        let mut h = [0u8; V2_HEADER as usize];
        h[0..4].copy_from_slice(MAGIC);
        h[4] = VERSION_V2;
        h[5] = u8::from(self.has_weights);
        h[8..16].copy_from_slice(&self.nodes.to_le_bytes());
        h[16..24].copy_from_slice(&self.edges.to_le_bytes());
        h[24..32].copy_from_slice(&self.chunk_rows.to_le_bytes());
        h[32..40].copy_from_slice(&self.dir_pos.to_le_bytes());
        h[40..48].copy_from_slice(&self.offsets_pos.to_le_bytes());
        h[48..56].copy_from_slice(&self.indices_pos.to_le_bytes());
        h[56..64].copy_from_slice(&self.weights_pos.to_le_bytes());
        h
    }
}

/// What a finished v2 write produced.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CsrV2Summary {
    /// Node count.
    pub nodes: u64,
    /// Stored directed edge count.
    pub edges: u64,
    /// Whether a weights section was written.
    pub has_weights: bool,
    /// Rows per chunk.
    pub chunk_rows: u64,
    /// The file the graph was written to.
    pub path: PathBuf,
}

/// Streaming row-at-a-time writer for the v2 layout.
///
/// Rows must be pushed in order (`0..n`, neighbor ids sorted is the
/// caller's contract, matching [`crate::EdgeList::to_csr`] output). The
/// writer holds O(buffer) memory: offsets and indices stream to their
/// (precomputable) file sections through small write buffers; weights go to
/// a temp side file because their section position depends on the final
/// edge count, and are spliced in at [`CsrV2Writer::finish`]. Rows pushed
/// with `None` weights count as all-1.0; if *every* weight ends up 1.0 the
/// weights section is dropped entirely — the same uniform rule
/// `EdgeList::to_csr` applies — unless [`CsrV2Writer::keep_weights`] was
/// called. A 1.0 is only written once a later weight, or `finish`, needs
/// the section: until then the side file holds the weights of the first
/// `w_edges` edges and every edge after them weighs 1.0.
pub struct CsrV2Writer {
    file: File,
    path: PathBuf,
    wfile: File,
    wpath: PathBuf,
    n: usize,
    chunk_rows: usize,
    rows: usize,
    edges: u64,
    dir: Vec<u64>,
    all_ones: bool,
    drop_uniform: bool,
    off_buf: Vec<u8>,
    off_pos: u64,
    idx_buf: Vec<u8>,
    idx_pos: u64,
    w_buf: Vec<u8>,
    w_edges: u64,
    indices_pos: u64,
    finished: bool,
}

/// Write-buffer flush threshold.
const V2_FLUSH: usize = 1 << 20;

impl CsrV2Writer {
    /// Creates `path` (truncating) for a graph over `n` nodes with the
    /// given chunk granularity.
    pub fn create(path: &Path, n: usize, chunk_rows: usize) -> Result<Self, IoError> {
        if chunk_rows == 0 {
            return Err(IoError::Corrupt("zero chunk_rows"));
        }
        if n as u64 > MAX_DECODE_NODES || (n.div_ceil(chunk_rows) as u64) > MAX_DECODE_CHUNKS {
            return Err(IoError::Corrupt("node/chunk count exceeds sanity limit"));
        }
        let nc = n.div_ceil(chunk_rows) as u64;
        let dir_pos = V2_HEADER;
        let offsets_pos = dir_pos + 8 * (nc + 1);
        let indices_pos = offsets_pos + 8 * (n as u64 + 1);
        let file = File::options().read(true).write(true).create(true).truncate(true).open(path)?;
        let mut wpath = path.as_os_str().to_os_string();
        wpath.push(".wtmp");
        let wpath = PathBuf::from(wpath);
        let wfile = File::options().write(true).create(true).truncate(true).open(&wpath)?;
        let mut off_buf = Vec::with_capacity(V2_FLUSH + 16);
        off_buf.extend_from_slice(&0u64.to_le_bytes());
        Ok(Self {
            file,
            path: path.to_path_buf(),
            wfile,
            wpath,
            n,
            chunk_rows,
            rows: 0,
            edges: 0,
            dir: vec![0],
            all_ones: true,
            drop_uniform: true,
            off_buf,
            off_pos: offsets_pos,
            idx_buf: Vec::with_capacity(V2_FLUSH + 16),
            idx_pos: indices_pos,
            w_buf: Vec::with_capacity(V2_FLUSH + 16),
            w_edges: 0,
            indices_pos,
            finished: false,
        })
    }

    /// Always writes a weights section, even when every weight is 1.0 —
    /// for sources whose in-memory form is explicitly weighted (e.g.
    /// normalized adjacencies), so round-trips preserve weighted-ness
    /// exactly.
    pub fn keep_weights(&mut self) {
        self.drop_uniform = false;
        self.all_ones = false;
    }

    /// Appends the next row's sorted neighbor ids (+ optional parallel
    /// weights; `None` = all 1.0).
    pub fn push_row(&mut self, cols: &[u32], weights: Option<&[f32]>) -> Result<(), IoError> {
        if self.rows >= self.n {
            return Err(IoError::Corrupt("more rows pushed than declared"));
        }
        if weights.is_some_and(|ws| ws.len() != cols.len()) {
            return Err(IoError::Corrupt("weight/index length mismatch"));
        }
        if cols.iter().fold(0, |m, &c| m.max(c)) as usize >= self.n {
            return Err(IoError::Corrupt("column index out of range"));
        }
        put_le(&mut self.idx_buf, cols, u32::to_le_bytes);
        if let Some(ws) = weights.filter(|ws| !self.all_ones || ws.iter().any(|&w| w != 1.0)) {
            self.all_ones = false;
            self.put_ones(self.edges)?;
            put_le(&mut self.w_buf, ws, f32::to_le_bytes);
            self.w_edges += ws.len() as u64;
        }
        self.edges += cols.len() as u64;
        self.rows += 1;
        self.off_buf.extend_from_slice(&self.edges.to_le_bytes());
        if self.rows.is_multiple_of(self.chunk_rows) {
            self.dir.push(self.edges);
        }
        if self.idx_buf.len() >= V2_FLUSH
            || self.off_buf.len() >= V2_FLUSH
            || self.w_buf.len() >= V2_FLUSH
        {
            self.flush_buffers()?;
        }
        Ok(())
    }

    /// Writes the 1.0 weights of the edges from `w_edges` up to `upto`.
    fn put_ones(&mut self, upto: u64) -> io::Result<()> {
        while self.w_edges < upto {
            let k = ((upto - self.w_edges) as usize).min(V2_FLUSH / 4);
            let at = self.w_buf.len();
            self.w_buf.resize(at + 4 * k, 0);
            for w in self.w_buf[at..].chunks_exact_mut(4) {
                w.copy_from_slice(&1.0f32.to_le_bytes());
            }
            self.w_edges += k as u64;
            if self.w_buf.len() >= V2_FLUSH {
                self.wfile.write_all(&self.w_buf)?;
                self.w_buf.clear();
            }
        }
        Ok(())
    }

    fn flush_buffers(&mut self) -> Result<(), IoError> {
        if !self.off_buf.is_empty() {
            pwrite_all(&self.file, self.off_pos, &self.off_buf)?;
            self.off_pos += self.off_buf.len() as u64;
            self.off_buf.clear();
        }
        if !self.idx_buf.is_empty() {
            pwrite_all(&self.file, self.idx_pos, &self.idx_buf)?;
            self.idx_pos += self.idx_buf.len() as u64;
            self.idx_buf.clear();
        }
        if !self.w_buf.is_empty() {
            self.wfile.write_all(&self.w_buf)?;
            self.w_buf.clear();
        }
        Ok(())
    }

    /// Finalizes the file: flushes buffers, splices the weights section in
    /// (unless uniformly 1.0), writes directory and header.
    pub fn finish(mut self) -> Result<CsrV2Summary, IoError> {
        if self.rows != self.n {
            return Err(IoError::Corrupt("fewer rows pushed than declared"));
        }
        if self.edges > MAX_DECODE_EDGES {
            return Err(IoError::Corrupt("node/edge count exceeds sanity limit"));
        }
        let has_weights = !(self.drop_uniform && self.all_ones);
        if has_weights {
            self.put_ones(self.edges)?;
        }
        self.flush_buffers()?;
        if !self.n.is_multiple_of(self.chunk_rows) {
            self.dir.push(self.edges);
        }
        let weights_pos = if has_weights { align8(self.indices_pos + 4 * self.edges) } else { 0 };
        if has_weights {
            // Splice the side file into the main file at its final home.
            let mut dst = &self.file;
            dst.seek(SeekFrom::Start(weights_pos))?;
            if io::copy(&mut File::open(&self.wpath)?, &mut dst)? != 4 * self.edges {
                return Err(IoError::Corrupt("weight side file length mismatch"));
            }
        }
        let mut dir_bytes = Vec::with_capacity(self.dir.len() * 8);
        for &d in &self.dir {
            dir_bytes.extend_from_slice(&d.to_le_bytes());
        }
        pwrite_all(&self.file, V2_HEADER, &dir_bytes)?;
        let meta = V2Meta {
            nodes: self.n as u64,
            edges: self.edges,
            chunk_rows: self.chunk_rows as u64,
            has_weights,
            dir_pos: V2_HEADER,
            offsets_pos: V2_HEADER + dir_bytes.len() as u64,
            indices_pos: self.indices_pos,
            weights_pos,
        };
        pwrite_all(&self.file, 0, &meta.header_bytes())?;
        self.finished = true;
        let _ = std::fs::remove_file(&self.wpath);
        Ok(CsrV2Summary {
            nodes: self.n as u64,
            edges: self.edges,
            has_weights,
            chunk_rows: self.chunk_rows as u64,
            path: self.path.clone(),
        })
    }
}

impl Drop for CsrV2Writer {
    fn drop(&mut self) {
        if !self.finished {
            let _ = std::fs::remove_file(&self.wpath);
        }
    }
}

/// Writes an in-memory CSR to `path` in the v2 layout. Weighted-ness is
/// preserved exactly (a source with an explicit all-1.0 weight vector keeps
/// its weights section), so `write_csr_v2` → [`crate::store::ChunkedCsr`]
/// → `to_csr` round-trips bitwise.
pub fn write_csr_v2(path: &Path, g: &Csr, chunk_rows: usize) -> Result<CsrV2Summary, IoError> {
    let mut w = CsrV2Writer::create(path, g.num_nodes(), chunk_rows)?;
    if g.weights().is_some() {
        w.keep_weights();
    }
    for u in 0..g.num_nodes() as u32 {
        w.push_row(g.neighbors(u), g.neighbor_weights(u))?;
    }
    w.finish()
}

// ---------------------------------------------------------------------
// Wire envelope: the framing every message on a fedgta transport uses.
// ---------------------------------------------------------------------

const ENVELOPE_MAGIC: &[u8; 4] = b"FGTM";
/// Wire-envelope codec version for frames without a trace context. Bump
/// on breaking layout changes.
pub const ENVELOPE_VERSION: u8 = 1;
/// Wire-envelope codec version for frames carrying a [`TraceContext`]
/// (16 extra header bytes between `seq` and `payload_len`). An additive
/// extension: version-1 frames remain byte-identical to before, and every
/// decoder accepts both versions.
pub const ENVELOPE_VERSION_TRACED: u8 = 2;
/// Sanity ceiling on a single envelope's payload length.
pub const MAX_ENVELOPE_PAYLOAD: u64 = 1 << 32;

/// Distributed-trace correlation carried inside a version-2 envelope so a
/// receiver can parent its spans under the sender's span *by id on the
/// wire* rather than through shared process memory — the prerequisite for
/// tracing across real sockets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceContext {
    /// Process-run correlation id (distinguishes traces when frames from
    /// different runs mix; opaque here).
    pub trace_id: u64,
    /// Span id on the sender the receiver's spans should parent under.
    pub parent_span: u64,
}

/// A versioned, CRC-checksummed message frame for client/server traffic —
/// the `FGTM` sibling of the `FGTA` graph codec above.
///
/// Layout (little-endian): magic `FGTM`, version byte, `kind` byte,
/// `round: u32`, `sender: u32`, `seq: u32`, *(version 2 only:
/// `trace_id: u64`, `parent_span: u64`)*, `payload_len: u64`, payload
/// bytes, then a CRC-32 (IEEE) over everything before it. Any mutation of
/// any byte — header or payload — fails [`Envelope::decode`], so a
/// receiver can reject corrupted traffic instead of aggregating garbage.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Envelope {
    /// Message kind discriminant (transport-level meaning; opaque here).
    pub kind: u8,
    /// Federated round the message belongs to (1-based).
    pub round: u32,
    /// Sender id (`u32::MAX` = server, else the client index).
    pub sender: u32,
    /// Delivery attempt sequence number (0 = first try).
    pub seq: u32,
    /// Optional trace correlation; `Some` selects the version-2 layout.
    pub trace: Option<TraceContext>,
    /// Opaque payload bytes.
    pub payload: Vec<u8>,
}

/// Envelope header bytes before the payload (version-1 layout).
const ENVELOPE_HEADER: usize = 4 + 1 + 1 + 4 + 4 + 4 + 8;
/// Extra header bytes the version-2 (traced) layout inserts before
/// `payload_len`.
const TRACE_CONTEXT_BYTES: usize = 8 + 8;

/// Bytes [`crc32`] consumes per step: one table per byte of the step.
const CRC_SLICES: usize = 16;

/// The slice-by-16 tables, built at compile time. `CRC_TABLES[0]` is the
/// classic byte-at-a-time table of the reflected polynomial `0xEDB88320`;
/// `CRC_TABLES[s][b]` is the CRC register after byte `b` is followed by
/// `s` zero bytes, so the 16 lookups of one step are independent and their
/// XOR is the register after all 16 bytes.
const CRC_TABLES: [[u32; 256]; CRC_SLICES] = {
    let mut t = [[0u32; 256]; CRC_SLICES];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 == 1 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            bit += 1;
        }
        t[0][i] = c;
        i += 1;
    }
    let mut s = 1;
    while s < CRC_SLICES {
        let mut i = 0;
        while i < 256 {
            let prev = t[s - 1][i];
            t[s][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        s += 1;
    }
    t
};

/// CRC-32 (IEEE 802.3, reflected polynomial `0xEDB88320`) of `bytes`.
///
/// Detects all single-bit and burst errors shorter than 32 bits — the
/// guarantee the envelope's corruption rejection rests on. Slice-by-16:
/// each step folds the register into the first four of 16 bytes and looks
/// all 16 up in [`CRC_TABLES`] at once; the last `len % 16` bytes go
/// byte at a time. The value is the byte-at-a-time CRC's, bit for bit.
pub fn crc32(bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !0u32;
    let mut steps = bytes.chunks_exact(CRC_SLICES);
    for b in &mut steps {
        let lo = crc ^ u32::from_le_bytes([b[0], b[1], b[2], b[3]]);
        crc = t[15][(lo & 0xFF) as usize]
            ^ t[14][((lo >> 8) & 0xFF) as usize]
            ^ t[13][((lo >> 16) & 0xFF) as usize]
            ^ t[12][(lo >> 24) as usize];
        for (s, &byte) in b[4..].iter().enumerate() {
            crc ^= t[11 - s][byte as usize];
        }
    }
    for &b in steps.remainder() {
        crc = t[0][((crc ^ b as u32) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

impl Envelope {
    /// Serializes the envelope to its wire bytes (header + payload + CRC).
    ///
    /// Frames without a trace context emit the version-1 layout — byte
    /// for byte what they emitted before the traced extension existed —
    /// so untraced runs stay bit-identical on the wire.
    pub fn encode(&self) -> Vec<u8> {
        let extra = if self.trace.is_some() { TRACE_CONTEXT_BYTES } else { 0 };
        let mut out = Vec::with_capacity(ENVELOPE_HEADER + extra + self.payload.len() + 4);
        out.extend_from_slice(ENVELOPE_MAGIC);
        out.push(if self.trace.is_some() { ENVELOPE_VERSION_TRACED } else { ENVELOPE_VERSION });
        out.push(self.kind);
        out.extend_from_slice(&self.round.to_le_bytes());
        out.extend_from_slice(&self.sender.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        if let Some(tc) = &self.trace {
            out.extend_from_slice(&tc.trace_id.to_le_bytes());
            out.extend_from_slice(&tc.parent_span.to_le_bytes());
        }
        out.extend_from_slice(&(self.payload.len() as u64).to_le_bytes());
        out.extend_from_slice(&self.payload);
        let crc = crc32(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses and verifies one envelope from `bytes`.
    ///
    /// Accepts both the version-1 and the version-2 (traced) layouts.
    /// Rejects bad magic, unknown versions, truncated or over-long
    /// frames, hostile length fields, and — via the trailing CRC-32 —
    /// any bit corruption anywhere in the frame.
    pub fn decode(bytes: &[u8]) -> Result<Envelope, IoError> {
        if bytes.len() < ENVELOPE_HEADER + 4 {
            return Err(IoError::Corrupt("envelope shorter than header"));
        }
        if &bytes[0..4] != ENVELOPE_MAGIC {
            return Err(IoError::BadMagic);
        }
        let (trace, header) = match bytes[4] {
            ENVELOPE_VERSION => (None, ENVELOPE_HEADER),
            ENVELOPE_VERSION_TRACED => {
                if bytes.len() < ENVELOPE_HEADER + TRACE_CONTEXT_BYTES + 4 {
                    return Err(IoError::Corrupt("traced envelope shorter than header"));
                }
                let trace_id = u64::from_le_bytes(bytes[18..26].try_into().unwrap());
                let parent_span = u64::from_le_bytes(bytes[26..34].try_into().unwrap());
                (
                    Some(TraceContext { trace_id, parent_span }),
                    ENVELOPE_HEADER + TRACE_CONTEXT_BYTES,
                )
            }
            v => return Err(IoError::BadVersion(v)),
        };
        let kind = bytes[5];
        let round = u32::from_le_bytes(bytes[6..10].try_into().unwrap());
        let sender = u32::from_le_bytes(bytes[10..14].try_into().unwrap());
        let seq = u32::from_le_bytes(bytes[14..18].try_into().unwrap());
        let len = u64::from_le_bytes(bytes[header - 8..header].try_into().unwrap());
        if len > MAX_ENVELOPE_PAYLOAD {
            return Err(IoError::Corrupt("payload length exceeds sanity limit"));
        }
        let len = len as usize;
        if bytes.len() != header + len + 4 {
            return Err(IoError::Corrupt("envelope length mismatch"));
        }
        let body = &bytes[..header + len];
        let want = u32::from_le_bytes(bytes[header + len..].try_into().unwrap());
        if crc32(body) != want {
            return Err(IoError::Corrupt("crc mismatch"));
        }
        Ok(Envelope {
            kind,
            round,
            sender,
            seq,
            trace,
            payload: bytes[header..header + len].to_vec(),
        })
    }
}

/// Parses a whitespace-separated edge-list text (`u v [w]` per line;
/// `#`-prefixed lines are comments) into an undirected graph over
/// `num_nodes` nodes. The format real benchmark dumps (SNAP, OGB edge
/// files) use.
pub fn parse_edge_list_text(text: &str, num_nodes: usize) -> Result<Csr, IoError> {
    let mut el = crate::EdgeList::new(num_nodes);
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut parts = line.split_whitespace();
        let (u, v) = match (parts.next(), parts.next()) {
            (Some(u), Some(v)) => (u, v),
            _ => return Err(IoError::Corrupt("edge line needs two endpoints")),
        };
        let u: u32 = u.parse().map_err(|_| IoError::Corrupt("bad source id"))?;
        let v: u32 = v.parse().map_err(|_| IoError::Corrupt("bad target id"))?;
        let w: Option<f32> = match parts.next() {
            Some(w) => {
                let w: f32 = w.parse().map_err(|_| IoError::Corrupt("bad weight"))?;
                if !w.is_finite() {
                    return Err(IoError::Corrupt("non-finite weight"));
                }
                Some(w)
            }
            None => None,
        };
        if parts.next().is_some() {
            return Err(IoError::Corrupt("trailing tokens on edge line"));
        }
        let push = |el: &mut crate::EdgeList, a: u32, b: u32| match w {
            Some(w) => el.push_weighted(a, b, w),
            None => el.push(a, b),
        };
        push(&mut el, u, v).map_err(|_| IoError::Corrupt("node id out of range"))?;
        if u != v {
            push(&mut el, v, u).map_err(|_| IoError::Corrupt("node id out of range"))?;
        }
    }
    Ok(el.to_csr())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::ChunkedCsr;
    use crate::EdgeList;

    fn sample() -> Csr {
        let mut el = EdgeList::new(5);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.push_weighted(3, 4, 2.5).unwrap();
        el.to_csr()
    }

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("fedgta-io-test-{}-{name}.fgta2", std::process::id()))
    }

    /// The bytes `write_csr_v2` produces for `g` at 2 rows per chunk.
    fn file_bytes(g: &Csr, name: &str) -> Vec<u8> {
        let path = tmp(name);
        write_csr_v2(&path, g, 2).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
        bytes
    }

    /// Decodes `bytes` through the one reader, from a temp file.
    fn decode(bytes: &[u8], name: &str) -> Result<Csr, IoError> {
        let path = tmp(name);
        std::fs::write(&path, bytes).unwrap();
        let got = ChunkedCsr::open(&path).and_then(|s| s.to_csr());
        std::fs::remove_file(&path).unwrap();
        got
    }

    #[test]
    fn text_edge_list_parses_comments_and_weights() {
        let text = "# a comment\n0 1\n1 2 0.5\n\n2 2\n";
        let g = parse_edge_list_text(text, 3).unwrap();
        assert!(g.has_edge(0, 1) && g.has_edge(1, 0));
        assert!(g.has_edge(2, 2));
        let k = g.neighbors(1).iter().position(|&v| v == 2).unwrap();
        assert_eq!(g.edge_weight_at(1, k), 0.5);
    }

    #[test]
    fn text_edge_list_rejects_garbage() {
        assert!(parse_edge_list_text("0", 2).is_err());
        assert!(parse_edge_list_text("0 x", 2).is_err());
        assert!(parse_edge_list_text("0 1 1.0 extra", 2).is_err());
        assert!(parse_edge_list_text("0 9", 2).is_err());
        for line in ["0 1 NaN", "0 1 inf", "0 1 -inf"] {
            assert!(
                matches!(parse_edge_list_text(line, 2), Err(IoError::Corrupt("non-finite weight"))),
                "{line:?} accepted"
            );
        }
    }

    #[test]
    fn roundtrip_weighted() {
        let g = sample();
        assert_eq!(decode(&file_bytes(&g, "rt-w"), "rt-w").unwrap(), g);
    }

    #[test]
    fn roundtrip_unweighted() {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 2).unwrap();
        let g = el.to_csr();
        let back = decode(&file_bytes(&g, "rt-u"), "rt-u").unwrap();
        assert_eq!(back, g);
        assert!(back.weights().is_none());
    }

    #[test]
    fn bad_magic_rejected() {
        let mut buf = file_bytes(&sample(), "magic");
        buf[0..4].copy_from_slice(b"NOPE");
        assert!(matches!(decode(&buf, "magic"), Err(IoError::BadMagic)));
    }

    #[test]
    fn bad_version_rejected() {
        // Version 1, the retired sequential layout, is as unknown as 99.
        let mut buf = file_bytes(&sample(), "version");
        for v in [1, 99] {
            buf[4] = v;
            assert!(matches!(decode(&buf, "version"), Err(IoError::BadVersion(x)) if x == v));
        }
    }

    #[test]
    fn truncated_stream_rejected() {
        let mut buf = file_bytes(&sample(), "trunc");
        buf.truncate(buf.len() / 2);
        assert!(decode(&buf, "trunc").is_err());
    }

    #[test]
    fn hostile_counts_rejected_before_allocation() {
        // A header claiming 2^60 nodes or edges must error out immediately
        // instead of attempting an exabyte-scale `Vec` reservation.
        let clean = file_bytes(&sample(), "hostile");
        for field in [8..16, 16..24] {
            let mut buf = clean.clone();
            buf[field].copy_from_slice(&(1u64 << 60).to_le_bytes());
            assert!(matches!(
                decode(&buf, "hostile"),
                Err(IoError::Corrupt("node/edge count exceeds sanity limit"))
            ));
        }
    }

    #[test]
    fn truncated_stream_with_large_claimed_counts_errors_cheaply() {
        // 80 bytes: a consistent header for 1 node and 2^33 edges (under
        // the sanity limit) plus its directory [0, 2^33], and no sections.
        // The file-length check must refuse it before anything sizes a
        // buffer by the claimed edge count.
        let meta = V2Meta {
            nodes: 1,
            edges: 1 << 33,
            chunk_rows: 1,
            has_weights: false,
            dir_pos: V2_HEADER,
            offsets_pos: V2_HEADER + 16,
            indices_pos: V2_HEADER + 32,
            weights_pos: 0,
        };
        meta.validate().unwrap();
        let mut buf = meta.header_bytes().to_vec();
        buf.extend_from_slice(&0u64.to_le_bytes());
        buf.extend_from_slice(&(1u64 << 33).to_le_bytes());
        assert_eq!(buf.len(), 80);
        assert!(matches!(
            decode(&buf, "short"),
            Err(IoError::Corrupt("file shorter than its header claims"))
        ));
    }

    #[test]
    fn corrupt_index_rejected() {
        let g = sample();
        let mut buf = file_bytes(&g, "index");
        // Overwrite the last column index with an out-of-range node id.
        let indices_pos = u64::from_le_bytes(buf[48..56].try_into().unwrap()) as usize;
        let last = indices_pos + 4 * (g.num_edges() - 1);
        buf[last..last + 4].copy_from_slice(&999u32.to_le_bytes());
        assert!(matches!(decode(&buf, "index"), Err(IoError::Corrupt(_))));
    }

    #[test]
    fn envelope_roundtrips() {
        let e = Envelope {
            kind: 2,
            round: 7,
            sender: 3,
            seq: 1,
            trace: None,
            payload: vec![1, 2, 3, 250, 0, 9],
        };
        let bytes = e.encode();
        assert_eq!(Envelope::decode(&bytes).unwrap(), e);
        // Empty payload too.
        let e =
            Envelope { kind: 1, round: 1, sender: u32::MAX, seq: 0, trace: None, payload: vec![] };
        assert_eq!(Envelope::decode(&e.encode()).unwrap(), e);
    }

    #[test]
    fn traced_envelope_roundtrips_and_marks_version_2() {
        let e = Envelope {
            kind: 2,
            round: 7,
            sender: 3,
            seq: 1,
            trace: Some(TraceContext { trace_id: 0xDEAD_BEEF_CAFE, parent_span: 42 }),
            payload: vec![1, 2, 3],
        };
        let bytes = e.encode();
        assert_eq!(bytes[4], ENVELOPE_VERSION_TRACED);
        assert_eq!(Envelope::decode(&bytes).unwrap(), e);
        // The traced frame is exactly TRACE_CONTEXT_BYTES longer than its
        // untraced sibling.
        let untraced = Envelope { trace: None, ..e.clone() };
        assert_eq!(bytes.len(), untraced.encode().len() + 16);
    }

    #[test]
    fn untraced_envelope_bytes_unchanged_by_trace_extension() {
        // The version-1 layout is a wire contract: a frame without a
        // trace context must be byte-identical to what pre-extension
        // encoders emitted. Reconstruct those bytes by hand.
        let e =
            Envelope { kind: 3, round: 9, sender: 2, seq: 4, trace: None, payload: vec![0xAB; 5] };
        let mut want = Vec::new();
        want.extend_from_slice(b"FGTM\x01\x03");
        want.extend_from_slice(&9u32.to_le_bytes());
        want.extend_from_slice(&2u32.to_le_bytes());
        want.extend_from_slice(&4u32.to_le_bytes());
        want.extend_from_slice(&5u64.to_le_bytes());
        want.extend_from_slice(&[0xAB; 5]);
        let crc = crc32(&want);
        want.extend_from_slice(&crc.to_le_bytes());
        assert_eq!(e.encode(), want);
    }

    #[test]
    fn traced_envelope_rejects_bit_flips_and_truncation() {
        let e = Envelope {
            kind: 1,
            round: 1,
            sender: 0,
            seq: 0,
            trace: Some(TraceContext { trace_id: 7, parent_span: 9 }),
            payload: vec![5; 8],
        };
        let clean = e.encode();
        for bit in 0..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Envelope::decode(&bad).is_err(), "bit flip at {bit} undetected");
        }
        assert!(Envelope::decode(&clean[..clean.len() - 1]).is_err());
        // A traced frame truncated to shorter than its extended header.
        assert!(Envelope::decode(&clean[..ENVELOPE_HEADER + 4]).is_err());
    }

    #[test]
    fn envelope_rejects_any_single_bit_flip() {
        let e = Envelope {
            kind: 2,
            round: 42,
            sender: 5,
            seq: 0,
            trace: None,
            payload: (0..32u8).collect(),
        };
        let clean = e.encode();
        for bit in 0..clean.len() * 8 {
            let mut bad = clean.clone();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(Envelope::decode(&bad).is_err(), "bit flip at {bit} went undetected");
        }
    }

    #[test]
    fn envelope_rejects_truncation_extension_and_hostile_length() {
        let e =
            Envelope { kind: 1, round: 1, sender: 0, seq: 0, trace: None, payload: vec![7; 16] };
        let clean = e.encode();
        assert!(Envelope::decode(&clean[..clean.len() - 1]).is_err());
        let mut long = clean.clone();
        long.push(0);
        assert!(Envelope::decode(&long).is_err());
        assert!(Envelope::decode(&clean[..8]).is_err());
        // Hostile payload-length field (CRC would fail anyway; the length
        // sanity check fires first and avoids slicing games).
        let mut hostile = clean;
        hostile[18..26].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(Envelope::decode(&hostile).is_err());
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE 802.3 check value for "123456789".
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    /// The CRC-32 the sliced one replaced, one bit at a time and sharing
    /// no table with it: the oracle.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc ^= b as u32;
            for _ in 0..8 {
                crc = if crc & 1 == 1 { 0xEDB8_8320 ^ (crc >> 1) } else { crc >> 1 };
            }
        }
        !crc
    }

    #[test]
    fn sliced_crc32_equals_the_bitwise_crc_at_every_length_and_offset() {
        let bytes: Vec<u8> =
            (0..600u32).map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8).collect();
        for start in 0..CRC_SLICES {
            for end in start..bytes.len() {
                let s = &bytes[start..end];
                assert_eq!(crc32(s), crc32_bitwise(s), "bytes {start}..{end}");
            }
        }
        for fill in [0x00u8, 0xFF] {
            let s = vec![fill; 77];
            assert_eq!(crc32(&s), crc32_bitwise(&s));
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(128))]

        #[test]
        fn sliced_crc32_equals_the_bitwise_crc_on_random_frames(
            bytes in proptest::collection::vec(proptest::prelude::any::<u8>(), 0..2048),
        ) {
            proptest::prop_assert_eq!(crc32(&bytes), crc32_bitwise(&bytes));
        }
    }
}
