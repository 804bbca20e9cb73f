//! Out-of-core graph storage: file-backed chunked CSR + tile iteration.
//!
//! [`ChunkedCsr`] reads the v2 `FGTA` layout ([`crate::io`]) one row chunk
//! at a time through positioned reads, so the resident set is O(tile)
//! regardless of graph size. Its SpMM ([`spmm_chunked_into_threads`])
//! shares the exact per-row kernel with the in-memory path
//! ([`crate::spmm::spmm_one_row`]), which makes out-of-core results
//! **bit-identical** to in-memory ones by construction — per-row
//! arithmetic never depends on which tile (or thread) a row lands in.
//!
//! Every tile buffer accounts its capacity against the
//! `graph.store.resident_bytes` gauge (peak semantics, like
//! `workspace.high_water_bytes`), so a scale run can *prove* its memory
//! ceiling rather than assert it.

use crate::csr::{push_hat_row, self_loop_slot};
use crate::io::{pread_exact, CsrV2Summary, CsrV2Writer, IoError, V2Meta};
use crate::par::{par_chunks_mut_at, resolve_threads};
use crate::spmm::spmm_one_row;
use crate::{Csr, NormKind};
use std::borrow::Cow;
use std::fs::File;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};

/// Currently-resident tile/directory bytes across all live store buffers.
static RESIDENT: AtomicU64 = AtomicU64::new(0);

/// Adjusts the resident accounting and raises the peak gauge.
fn resident_add(delta: i64) {
    let now = if delta >= 0 {
        RESIDENT.fetch_add(delta as u64, Ordering::Relaxed) + delta as u64
    } else {
        RESIDENT.fetch_sub((-delta) as u64, Ordering::Relaxed) - (-delta) as u64
    };
    static GAUGE: OnceLock<Arc<fedgta_obs::Gauge>> = OnceLock::new();
    GAUGE.get_or_init(|| fedgta_obs::global().gauge("graph.store.resident_bytes")).set_max(now);
}

/// Bytes of store buffers (tiles + chunk directories) resident right now.
pub fn resident_bytes() -> u64 {
    RESIDENT.load(Ordering::Relaxed)
}

/// Counts a tile read when metrics are armed.
#[inline]
fn record_tile_read(bytes: u64) {
    if !fedgta_obs::metrics_on() {
        return;
    }
    fedgta_obs::counter!("graph.store.tile_reads").inc();
    fedgta_obs::counter!("graph.store.bytes_read").add(bytes);
}

/// A file-backed CSR in the v2 chunked layout, readable tile-at-a-time.
///
/// Holds only the header and the chunk directory resident
/// (`num_chunks + 1` u64s); row data is fetched per chunk through
/// [`TileReader`]s, each of which owns its own file handle so tiles can be
/// read from parallel workers without shared cursors.
#[derive(Debug)]
pub struct ChunkedCsr {
    path: PathBuf,
    meta: V2Meta,
    /// Cumulative edge counts at chunk row boundaries (`num_chunks + 1`).
    dir: Vec<u64>,
}

impl ChunkedCsr {
    /// Opens and validates a v2 file: header sanity, a file long enough
    /// for every section the header claims, directory monotone with
    /// correct endpoints. Every later allocation is sized by counts the
    /// file length already bounds.
    pub fn open(path: &Path) -> Result<Self, IoError> {
        let file = File::open(path)?;
        let meta = V2Meta::read_from(&file)?;
        if file.metadata()?.len() < meta.file_len() {
            return Err(IoError::Corrupt("file shorter than its header claims"));
        }
        let nc = meta.num_chunks();
        let mut dir_bytes = vec![0u8; 8 * (nc + 1)];
        pread_exact(&file, meta.dir_pos, &mut dir_bytes)?;
        let dir: Vec<u64> =
            dir_bytes.chunks_exact(8).map(|c| u64::from_le_bytes(c.try_into().unwrap())).collect();
        if dir.first() != Some(&0) || dir.last() != Some(&meta.edges) {
            return Err(IoError::Corrupt("chunk directory endpoints"));
        }
        if dir.windows(2).any(|w| w[0] > w[1]) {
            return Err(IoError::Corrupt("chunk directory not monotone"));
        }
        resident_add((8 * (nc + 1)) as i64);
        Ok(Self { path: path.to_path_buf(), meta, dir })
    }

    /// Node count.
    pub fn num_nodes(&self) -> usize {
        self.meta.nodes as usize
    }

    /// Stored directed edge count.
    pub fn num_edges(&self) -> usize {
        self.meta.edges as usize
    }

    /// Rows per chunk.
    pub fn chunk_rows(&self) -> usize {
        self.meta.chunk_rows as usize
    }

    /// Number of row chunks.
    pub fn num_chunks(&self) -> usize {
        self.meta.num_chunks()
    }

    /// Whether edges carry explicit weights.
    pub fn has_weights(&self) -> bool {
        self.meta.has_weights
    }

    /// The file backing this store.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Global row range of chunk `c`.
    pub fn chunk_range(&self, c: usize) -> std::ops::Range<usize> {
        let lo = c * self.chunk_rows();
        let hi = ((c + 1) * self.chunk_rows()).min(self.num_nodes());
        lo..hi
    }

    /// Stored edges in chunk `c`.
    pub fn chunk_nnz(&self, c: usize) -> usize {
        (self.dir[c + 1] - self.dir[c]) as usize
    }

    /// A tile reader with its own file handle (safe to use from a worker
    /// thread).
    pub fn reader(&self) -> Result<TileReader<'_>, IoError> {
        Ok(TileReader { store: self, file: File::open(&self.path)? })
    }

    /// Fully materializes the graph in memory, for graphs small enough to
    /// hold whole.
    pub fn to_csr(&self) -> Result<Csr, IoError> {
        let mut reader = self.reader()?;
        let mut tile = TileBuf::new();
        let n = self.num_nodes();
        let m = self.num_edges();
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0usize);
        let mut indices = Vec::with_capacity(m);
        let mut weights = self.has_weights().then(|| Vec::with_capacity(m));
        for c in 0..self.num_chunks() {
            reader.read_tile(c, &mut tile)?;
            let base = indices.len();
            indices.extend_from_slice(&tile.indices);
            if let Some(w) = &mut weights {
                w.extend_from_slice(&tile.weights);
            }
            for r in 0..tile.rows.len() {
                indptr.push(base + tile.row_end(r));
            }
        }
        let g = Csr::from_raw_parts(indptr, indices, weights);
        g.validate().map_err(|_| IoError::Corrupt("column index out of range"))?;
        Ok(g)
    }

    /// nnz-balanced chunk-aligned row boundaries for `threads` workers:
    /// the out-of-core sibling of the prefix-sum split in
    /// [`crate::spmm::spmm_into_threads`], computed from the chunk
    /// directory instead of the full offsets array.
    fn balanced_bounds(&self, threads: usize, bounds: &mut Vec<usize>) {
        let n = self.num_nodes();
        let nnz = self.meta.edges;
        bounds.clear();
        bounds.push(0);
        for t in 1..threads {
            let target = nnz * t as u64 / threads as u64;
            let c = self.dir.partition_point(|&p| p < target).min(self.num_chunks());
            let row = (c * self.chunk_rows()).min(n);
            let prev = *bounds.last().unwrap();
            bounds.push(row.max(prev));
        }
        bounds.push(n);
    }
}

impl Drop for ChunkedCsr {
    fn drop(&mut self) {
        resident_add(-((8 * (self.dir.len())) as i64));
    }
}

/// Reusable buffer holding one decoded row chunk (a *tile*).
///
/// Buffer capacity is accounted against `graph.store.resident_bytes` and
/// released on drop.
#[derive(Debug, Default)]
pub struct TileBuf {
    /// Global row range this tile covers.
    pub rows: std::ops::Range<usize>,
    /// Local row offsets (`rows.len() + 1` entries, `offsets[0] == 0`).
    offsets: Vec<usize>,
    /// Column indices of the tile.
    indices: Vec<u32>,
    /// Edge weights (empty when the graph is unweighted).
    weights: Vec<f32>,
    /// Raw byte scratch for positioned reads.
    raw: Vec<u8>,
    accounted: usize,
}

impl TileBuf {
    /// An empty tile buffer.
    pub fn new() -> Self {
        Self::default()
    }

    fn capacity_bytes(&self) -> usize {
        self.offsets.capacity() * 8
            + self.indices.capacity() * 4
            + self.weights.capacity() * 4
            + self.raw.capacity()
    }

    fn reaccount(&mut self) {
        let now = self.capacity_bytes();
        if now != self.accounted {
            resident_add(now as i64 - self.accounted as i64);
            self.accounted = now;
        }
    }

    /// Local end offset of local row `r` (edges of rows `0..=r`).
    #[inline]
    fn row_end(&self, r: usize) -> usize {
        self.offsets[r + 1]
    }

    /// Neighbor ids of local row `r`.
    #[inline]
    pub fn row_neighbors(&self, r: usize) -> &[u32] {
        &self.indices[self.offsets[r]..self.offsets[r + 1]]
    }

    /// Neighbor weights of local row `r` (`None` when unweighted).
    #[inline]
    pub fn row_weights(&self, r: usize) -> Option<&[f32]> {
        if self.weights.is_empty() {
            None
        } else {
            Some(&self.weights[self.offsets[r]..self.offsets[r + 1]])
        }
    }

    /// Number of rows in the tile.
    pub fn num_rows(&self) -> usize {
        self.rows.len()
    }

    /// Stored edges in the tile.
    pub fn nnz(&self) -> usize {
        self.indices.len()
    }
}

impl Drop for TileBuf {
    fn drop(&mut self) {
        resident_add(-(self.accounted as i64));
    }
}

/// Reads tiles of one [`ChunkedCsr`] through an owned file handle.
pub struct TileReader<'a> {
    store: &'a ChunkedCsr,
    file: File,
}

impl TileReader<'_> {
    /// Reads chunk `c` into `tile` (reusing its buffers), validating the
    /// tile's offsets against the chunk directory.
    pub fn read_tile(&mut self, c: usize, tile: &mut TileBuf) -> Result<(), IoError> {
        let store = self.store;
        let meta = &store.meta;
        let range = store.chunk_range(c);
        let rows = range.len();
        let nnz = store.chunk_nnz(c);
        let base = store.dir[c];
        // Offsets: rows+1 u64s starting at the chunk's first row.
        let off_bytes = 8 * (rows + 1);
        tile.raw.clear();
        tile.raw.resize(off_bytes, 0);
        pread_exact(&self.file, meta.offsets_pos + 8 * range.start as u64, &mut tile.raw)?;
        tile.offsets.clear();
        tile.offsets.reserve(rows + 1);
        let mut prev = 0usize;
        for cbytes in tile.raw.chunks_exact(8) {
            let abs = u64::from_le_bytes(cbytes.try_into().unwrap());
            if abs < base || abs - base > nnz as u64 {
                return Err(IoError::Corrupt("tile offsets outside chunk directory span"));
            }
            let local = (abs - base) as usize;
            if local < prev {
                return Err(IoError::Corrupt("tile offsets not monotone"));
            }
            prev = local;
            tile.offsets.push(local);
        }
        if tile.offsets.first() != Some(&0) || tile.offsets.last() != Some(&nnz) {
            return Err(IoError::Corrupt("tile offsets inconsistent with chunk directory"));
        }
        // Indices.
        let idx_bytes = 4 * nnz;
        tile.raw.clear();
        tile.raw.resize(idx_bytes, 0);
        pread_exact(&self.file, meta.indices_pos + 4 * base, &mut tile.raw)?;
        get_le(&mut tile.indices, &tile.raw, u32::from_le_bytes);
        if tile.indices.iter().fold(0, |m, &v| m.max(v)) as usize >= store.num_nodes() {
            return Err(IoError::Corrupt("column index out of range"));
        }
        // Weights.
        tile.weights.clear();
        let mut total = off_bytes + idx_bytes;
        if meta.has_weights {
            let w_bytes = 4 * nnz;
            tile.raw.clear();
            tile.raw.resize(w_bytes, 0);
            pread_exact(&self.file, meta.weights_pos + 4 * base, &mut tile.raw)?;
            get_le(&mut tile.weights, &tile.raw, f32::from_le_bytes);
            total += w_bytes;
        }
        tile.rows = range;
        tile.reaccount();
        record_tile_read(total as u64);
        Ok(())
    }
}

/// Replaces `dst` by the little-endian values of `raw`, `N` bytes each: one
/// resize and one pass that compiles to a copy on a little-endian target.
fn get_le<T: Copy + Default, const N: usize>(
    dst: &mut Vec<T>,
    raw: &[u8],
    from: impl Fn([u8; N]) -> T,
) {
    dst.clear();
    dst.resize(raw.len() / N, T::default());
    for (d, b) in dst.iter_mut().zip(raw.chunks_exact(N)) {
        *d = from(b.try_into().unwrap());
    }
}

/// Out-of-core `Y = A · X` over a chunked store.
///
/// Workers take contiguous chunk groups with nnz-balanced boundaries from
/// the chunk directory; each worker streams its tiles through a private
/// [`TileBuf`] + file handle and runs the shared per-row kernel
/// ([`crate::spmm::spmm_one_row`]). Per-row arithmetic is independent of
/// tile and thread boundaries, so output is bit-identical to the in-memory
/// kernel at any thread count.
pub fn spmm_chunked_into_threads(
    a: &ChunkedCsr,
    x: &[f32],
    cols: usize,
    y: &mut [f32],
    threads: usize,
) -> Result<(), IoError> {
    let n = a.num_nodes();
    assert_eq!(x.len(), n * cols, "spmm dense operand size");
    assert_eq!(y.len(), n * cols, "spmm output size");
    crate::spmm::record_spmm(n, a.num_edges(), cols);
    let chunk_rows = a.chunk_rows();
    let err: Mutex<Option<IoError>> = Mutex::new(None);
    let body = |_: usize, chunk: &mut [f32], range: std::ops::Range<usize>| {
        debug_assert_eq!(range.start % chunk_rows, 0, "worker ranges are chunk-aligned");
        let mut run = || -> Result<(), IoError> {
            let mut reader = a.reader()?;
            let mut tile = TileBuf::new();
            for c in range.start / chunk_rows..range.end.div_ceil(chunk_rows) {
                reader.read_tile(c, &mut tile)?;
                for r in 0..tile.num_rows() {
                    let global = tile.rows.start + r;
                    let local = global - range.start;
                    let out = &mut chunk[local * cols..(local + 1) * cols];
                    spmm_one_row(tile.row_neighbors(r), tile.row_weights(r), x, cols, out);
                }
            }
            Ok(())
        };
        if let Err(e) = run() {
            *err.lock().unwrap() = Some(e);
        }
    };
    let threads =
        resolve_threads(Some(threads)).min(crate::spmm::MAX_CHUNKS).min(a.num_chunks().max(1));
    if threads <= 1 || n == 0 {
        if n > 0 {
            body(0, y, 0..n);
        }
    } else {
        let mut bounds = Vec::with_capacity(threads + 1);
        a.balanced_bounds(threads, &mut bounds);
        par_chunks_mut_at(y, cols, &bounds, body);
    }
    match err.into_inner().unwrap() {
        Some(e) => Err(e),
        None => Ok(()),
    }
}

// ---------------------------------------------------------------------
// Row sinks: one streaming-emission surface for generators/transforms.
// ---------------------------------------------------------------------

/// Receives CSR rows in order. Implemented by the v2 file writer (rows go
/// straight to disk) and by [`CsrBuilder`] (rows accumulate in memory), so
/// a streaming producer — the SBM generator, the streamed normalizer — is
/// written once and tested for bit-identity by swapping the sink.
pub trait RowSink {
    /// What [`RowSink::finish`] yields.
    type Output;
    /// Appends the next row (sorted neighbor ids; `None` weights = all 1.0).
    fn push_row(&mut self, cols: &[u32], weights: Option<&[f32]>) -> Result<(), IoError>;
    /// Says that about `edges` more edges are coming, so a sink that holds
    /// them can make room once instead of growing; streaming sinks ignore
    /// it.
    fn reserve(&mut self, _edges: usize) {}
    /// Finalizes the sink.
    fn finish(self) -> Result<Self::Output, IoError>;
}

impl RowSink for CsrV2Writer {
    type Output = CsrV2Summary;

    fn push_row(&mut self, cols: &[u32], weights: Option<&[f32]>) -> Result<(), IoError> {
        CsrV2Writer::push_row(self, cols, weights)
    }

    fn finish(self) -> Result<CsrV2Summary, IoError> {
        CsrV2Writer::finish(self)
    }
}

/// In-memory [`RowSink`]: accumulates rows into a [`Csr`], applying the
/// same uniform-weight rule as [`crate::EdgeList::to_csr`] (all-1.0 ⇒
/// unweighted) unless [`CsrBuilder::keep_weights`] is called.
pub struct CsrBuilder {
    n: usize,
    indptr: Vec<usize>,
    indices: Vec<u32>,
    /// The weights of the first `weights.len()` edges; every later edge
    /// weighs 1.0 until a row that is not all-1.0 writes them out.
    weights: Vec<f32>,
    all_ones: bool,
    drop_uniform: bool,
}

impl CsrBuilder {
    /// A builder over `n` nodes.
    pub fn new(n: usize) -> Self {
        let mut indptr = Vec::with_capacity(n + 1);
        indptr.push(0);
        Self {
            n,
            indptr,
            indices: Vec::new(),
            weights: Vec::new(),
            all_ones: true,
            drop_uniform: true,
        }
    }

    /// Always keeps the weight vector, even when uniformly 1.0.
    pub fn keep_weights(mut self) -> Self {
        self.drop_uniform = false;
        self.all_ones = false;
        self
    }
}

impl RowSink for CsrBuilder {
    type Output = Csr;

    fn push_row(&mut self, cols: &[u32], weights: Option<&[f32]>) -> Result<(), IoError> {
        if self.indptr.len() > self.n {
            return Err(IoError::Corrupt("more rows pushed than declared"));
        }
        if weights.is_some_and(|ws| ws.len() != cols.len()) {
            return Err(IoError::Corrupt("weight/index length mismatch"));
        }
        if let Some(ws) = weights.filter(|ws| !self.all_ones || ws.iter().any(|&w| w != 1.0)) {
            self.all_ones = false;
            self.weights.resize(self.indices.len(), 1.0);
            self.weights.extend_from_slice(ws);
        }
        self.indices.extend_from_slice(cols);
        self.indptr.push(self.indices.len());
        Ok(())
    }

    fn reserve(&mut self, edges: usize) {
        self.indices.reserve_exact(edges);
        if !self.drop_uniform {
            self.weights.reserve_exact(edges);
        }
    }

    fn finish(mut self) -> Result<Csr, IoError> {
        if self.indptr.len() != self.n + 1 {
            return Err(IoError::Corrupt("fewer rows pushed than declared"));
        }
        let weights = if self.drop_uniform && self.all_ones {
            None
        } else {
            self.weights.resize(self.indices.len(), 1.0);
            Some(self.weights)
        };
        let g = Csr::from_raw_parts(self.indptr, self.indices, weights);
        g.validate().map_err(|_| IoError::Corrupt("column index out of range"))?;
        Ok(g)
    }
}

// ---------------------------------------------------------------------
// Normalization: Ã = D̂^{r-1} Â D̂^{-r}, streamed from memory or from tiles.
// ---------------------------------------------------------------------

/// Yields a graph's rows in order — an in-memory [`Csr`] or a
/// [`ChunkedCsr`] tile by tile — so [`normalize_stream`] reads either
/// through one body.
pub trait RowSource {
    /// Calls `f(u, neighbors, weights)` for every row `u` in order (`None`
    /// weights: all 1.0) and stops at the first error.
    fn try_for_each_row(
        &self,
        f: impl FnMut(u32, &[u32], Option<&[f32]>) -> Result<(), IoError>,
    ) -> Result<(), IoError>;
}

impl RowSource for Csr {
    fn try_for_each_row(
        &self,
        mut f: impl FnMut(u32, &[u32], Option<&[f32]>) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        (0..self.num_nodes() as u32)
            .try_for_each(|u| f(u, self.neighbors(u), self.neighbor_weights(u)))
    }
}

impl RowSource for ChunkedCsr {
    fn try_for_each_row(
        &self,
        mut f: impl FnMut(u32, &[u32], Option<&[f32]>) -> Result<(), IoError>,
    ) -> Result<(), IoError> {
        let mut reader = self.reader()?;
        let mut tile = TileBuf::new();
        for c in 0..self.num_chunks() {
            reader.read_tile(c, &mut tile)?;
            for lr in 0..tile.num_rows() {
                f((tile.rows.start + lr) as u32, tile.row_neighbors(lr), tile.row_weights(lr))?;
            }
        }
        Ok(())
    }
}

/// Streams the normalized adjacency `D̂^{r-1} Â D̂^{-r}` of `src` into
/// `sink` and hands back `D̂`, the weighted degrees of `Â = A + I` — the
/// one normalization body: [`crate::normalized_adjacency`] is this over an
/// in-memory graph into a [`CsrBuilder`].
///
/// Two passes over the rows: one summing the weighted degrees of `Â` (an
/// O(n) f32 array — node *metadata* stays resident; only the O(m) edge
/// data streams), one emitting each normalized row of `Â`, built once per
/// row by `csr::push_hat_row`, with the per-edge expression
/// `d_u^{r-1} · w · d_v^{-r}`. Exactness is what makes out-of-core
/// *decoupled* precompute possible: propagation is a fixed linear
/// operator, so streaming it tile by tile changes nothing about the
/// result.
pub fn normalize_stream<R: RowSource, S: RowSink>(
    src: &R,
    kind: NormKind,
    mut sink: S,
) -> Result<(S::Output, Vec<f32>), IoError> {
    let r = kind.r();
    // Pass 1: weighted degrees of Â, each row's weights summed in order,
    // its loop's 1.0 at its slot. An unweighted row's degree is its count.
    let (mut deg, mut edges): (Vec<f32>, usize) = (Vec::new(), 0);
    src.try_for_each_row(|u, cols, ws| {
        let (at, looped) = self_loop_slot(u, cols);
        edges += cols.len() + usize::from(!looped);
        deg.push(match ws {
            Some(ws) => {
                let one = (!looped).then_some(&1.0);
                ws[..at].iter().chain(one).chain(&ws[at..]).sum()
            }
            None => (cols.len() + usize::from(!looped)) as f32,
        });
        Ok(())
    })?;
    // Scales d^{r-1} (left) and d^{-r} (right); one power serves both when
    // the exponents agree (`Symmetric`: r - 1 = -r).
    let left: Vec<f32> = deg.iter().map(|&d| d.powf(r - 1.0)).collect();
    let right: Cow<[f32]> = if r - 1.0 == -r {
        Cow::Borrowed(&left)
    } else {
        Cow::Owned(deg.iter().map(|&d| d.powf(-r)).collect())
    };
    // Pass 2: emit each normalized hat row.
    sink.reserve(edges);
    let (mut hcols, mut hws) = (Vec::new(), Vec::new());
    src.try_for_each_row(|u, cols, ws| {
        hcols.clear();
        hws.clear();
        push_hat_row(u, cols, ws, &mut hcols, Some(&mut hws));
        let lu = left[u as usize];
        for (w, &v) in hws.iter_mut().zip(&hcols) {
            *w = lu * *w * right[v as usize];
        }
        sink.push_row(&hcols, Some(&hws))
    })?;
    Ok((sink.finish()?, deg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_csr_v2;
    use crate::norm::normalized_adjacency_oracle;
    use crate::{normalized_adjacency, EdgeList};

    fn tmpdir() -> PathBuf {
        let d = std::env::temp_dir().join(format!(
            "fedgta-store-test-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn skewed_graph(n: u32, seed: u64) -> Csr {
        // Deterministic skewed multigraph: hubs, duplicates, self-loop-free.
        let mut el = EdgeList::new(n as usize);
        let mut s = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        let mut next = || {
            s ^= s << 13;
            s ^= s >> 7;
            s ^= s << 17;
            s
        };
        for u in 0..n {
            let d = 1 + (next() % 8) as u32 + if u % 17 == 0 { 24 } else { 0 };
            for _ in 0..d {
                let v = (next() % n as u64) as u32;
                if v != u {
                    el.push_undirected(u, v).unwrap();
                }
            }
        }
        el.to_csr()
    }

    #[test]
    fn v2_roundtrip_matches_in_memory() {
        let g = skewed_graph(300, 1);
        let path = tmpdir().join("roundtrip.fgta2");
        let sum = write_csr_v2(&path, &g, 64).unwrap();
        assert_eq!(sum.nodes, 300);
        assert_eq!(sum.edges as usize, g.num_edges());
        let store = ChunkedCsr::open(&path).unwrap();
        assert_eq!(store.num_nodes(), 300);
        assert_eq!(store.to_csr().unwrap(), g);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn v2_roundtrip_preserves_weightedness_exactly() {
        // All-1.0 explicit weights must stay a weights section.
        let mut el = EdgeList::new(4);
        el.push_weighted(0, 1, 1.0).unwrap();
        el.push_weighted(1, 2, 1.0).unwrap();
        el.push_weighted(2, 3, 0.5).unwrap();
        el.push_weighted(3, 0, 0.5).unwrap();
        let g = el.to_csr();
        assert!(g.weights().is_some());
        let path = tmpdir().join("weighted.fgta2");
        write_csr_v2(&path, &g, 2).unwrap();
        assert_eq!(ChunkedCsr::open(&path).unwrap().to_csr().unwrap(), g);
        // An unweighted source stays unweighted.
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 2).unwrap();
        let g = el.to_csr();
        write_csr_v2(&path, &g, 2).unwrap();
        let back = ChunkedCsr::open(&path).unwrap().to_csr().unwrap();
        assert!(back.weights().is_none());
        assert_eq!(back, g);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn chunked_spmm_matches_in_memory_bitwise() {
        for (n, seed, chunk_rows) in [(97u32, 2u64, 16usize), (300, 3, 64), (64, 4, 64)] {
            let g = normalized_adjacency(&skewed_graph(n, seed), NormKind::Symmetric);
            let path = tmpdir().join(format!("spmm-{n}-{seed}.fgta2"));
            write_csr_v2(&path, &g, chunk_rows).unwrap();
            let store = ChunkedCsr::open(&path).unwrap();
            for cols in [1usize, 7, 16, 33] {
                let x: Vec<f32> =
                    (0..n as usize * cols).map(|i| ((i * 31 % 17) as f32) * 0.21 - 1.0).collect();
                let mut mem = vec![0f32; x.len()];
                crate::spmm::spmm_into(&g, &x, cols, &mut mem);
                for threads in [1usize, 2, 4, 7] {
                    let mut disk = vec![5f32; x.len()];
                    spmm_chunked_into_threads(&store, &x, cols, &mut disk, threads).unwrap();
                    for (a, b) in disk.iter().zip(&mem) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} cols={cols} threads={threads}");
                    }
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn chunked_spmm_star_graph_matches() {
        // One hub chunk holding nearly all nnz: balanced bounds must stay
        // chunk-aligned and results identical.
        let n = 257u32;
        let mut el = EdgeList::new(n as usize);
        for v in 1..n {
            el.push_undirected(0, v).unwrap();
        }
        let g = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        let path = tmpdir().join("star.fgta2");
        write_csr_v2(&path, &g, 32).unwrap();
        let store = ChunkedCsr::open(&path).unwrap();
        let cols = 5usize;
        let x: Vec<f32> = (0..n as usize * cols).map(|i| (i as f32 * 0.37).sin()).collect();
        let mut mem = vec![0f32; x.len()];
        crate::spmm::spmm_into(&g, &x, cols, &mut mem);
        for threads in [1usize, 3, 8, 64] {
            let mut disk = vec![0f32; x.len()];
            spmm_chunked_into_threads(&store, &x, cols, &mut disk, threads).unwrap();
            assert_eq!(disk, mem, "threads={threads}");
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn normalize_stream_matches_in_memory_normalization() {
        // Self-loop-free rows, weighted rows and rows that carry their
        // loop already, streamed from a file and from memory, against the
        // materialize-`Â`-first oracle, bit for bit.
        for (seed, weighted, loops) in [(11u64, false, false), (12, true, false), (13, true, true)]
        {
            let mut raw = skewed_graph(150, seed);
            if loops {
                let mut el = EdgeList::new(150);
                for u in 0..150u32 {
                    raw.neighbors(u).iter().for_each(|&v| el.push(u, v).unwrap());
                    if u % 3 == 0 {
                        el.push(u, u).unwrap();
                    }
                }
                raw = el.to_csr();
            }
            if weighted {
                // Force an explicitly weighted raw graph.
                let ws: Vec<f32> =
                    (0..raw.num_edges()).map(|i| 0.5 + (i % 4) as f32 * 0.25).collect();
                raw = Csr::from_raw_parts(raw.indptr().to_vec(), raw.indices().to_vec(), Some(ws));
            }
            let hat = raw.with_self_loops();
            let want_deg: Vec<f32> = (0..150).map(|u| hat.weighted_degree(u)).collect();
            let path = tmpdir().join(format!("norm-{seed}.fgta2"));
            write_csr_v2(&path, &raw, 32).unwrap();
            let store = ChunkedCsr::open(&path).unwrap();
            for kind in [
                NormKind::Symmetric,
                NormKind::RowStochastic,
                NormKind::ColumnStochastic,
                NormKind::Kernel(0.3),
            ] {
                let want = normalized_adjacency_oracle(&raw, kind);
                let sink = || CsrBuilder::new(150).keep_weights();
                let (streamed, streamed_deg) = normalize_stream(&store, kind, sink()).unwrap();
                let (in_memory, in_memory_deg) = normalize_stream(&raw, kind, sink()).unwrap();
                for (got, deg) in [
                    (streamed, streamed_deg),
                    (in_memory, in_memory_deg),
                    (normalized_adjacency(&raw, kind), want_deg.clone()),
                ] {
                    assert_eq!(got.indptr(), want.indptr());
                    assert_eq!(got.indices(), want.indices());
                    let (gw, ww) = (got.weights().unwrap(), want.weights().unwrap());
                    for (a, b) in gw.iter().zip(ww).chain(deg.iter().zip(&want_deg)) {
                        assert_eq!(a.to_bits(), b.to_bits(), "seed={seed} kind={kind:?}");
                    }
                }
            }
            std::fs::remove_file(&path).unwrap();
        }
    }

    #[test]
    fn csr_builder_uniform_rule_matches_to_csr() {
        let mut b = CsrBuilder::new(3);
        b.push_row(&[1], None).unwrap();
        b.push_row(&[0, 2], Some(&[1.0, 1.0])).unwrap();
        b.push_row(&[], None).unwrap();
        let g = b.finish().unwrap();
        assert!(g.weights().is_none(), "all-ones collapses to unweighted");
        let mut b = CsrBuilder::new(1);
        b.push_row(&[0], Some(&[2.0])).unwrap();
        assert!(b.finish().unwrap().weights().is_some());
    }

    #[test]
    fn implicit_ones_are_written_where_a_later_weight_needs_them() {
        // Unweighted rows, an all-1.0 row, then a weighted one: both sinks
        // write the 1.0s the first rows left implicit, and the file's bytes
        // are those of its explicitly weighted twin.
        type Row = (&'static [u32], Option<&'static [f32]>);
        let rows: [Row; 5] = [
            (&[1, 2], None),
            (&[0], Some(&[1.0])),
            (&[], None),
            (&[0, 4], Some(&[2.5, 1.0])),
            (&[3], None),
        ];
        let want = Csr::from_raw_parts(
            vec![0, 2, 3, 3, 5, 6],
            vec![1, 2, 0, 0, 4, 3],
            Some(vec![1.0, 1.0, 1.0, 2.5, 1.0, 1.0]),
        );
        let dir = tmpdir();
        let (lazy, explicit) = (dir.join("lazy.fgta2"), dir.join("explicit.fgta2"));
        for keep in [false, true] {
            let mut b = CsrBuilder::new(5);
            let mut w = CsrV2Writer::create(&lazy, 5, 2).unwrap();
            if keep {
                b = b.keep_weights();
                w.keep_weights();
            }
            for (cols, ws) in rows {
                b.push_row(cols, ws).unwrap();
                w.push_row(cols, ws).unwrap();
            }
            assert_eq!(b.finish().unwrap(), want);
            w.finish().unwrap();
            write_csr_v2(&explicit, &want, 2).unwrap();
            assert_eq!(std::fs::read(&lazy).unwrap(), std::fs::read(&explicit).unwrap());
        }
        // Kept weights that never leave 1.0 are written in full at finish.
        let mut b = CsrBuilder::new(2).keep_weights();
        b.push_row(&[1], None).unwrap();
        b.push_row(&[0], None).unwrap();
        assert_eq!(b.finish().unwrap().weights(), Some(&[1.0, 1.0][..]));
        std::fs::remove_file(&lazy).unwrap();
        std::fs::remove_file(&explicit).unwrap();
    }

    #[test]
    fn truncated_and_hostile_v2_rejected() {
        let g = skewed_graph(100, 31);
        let dir = tmpdir();
        let path = dir.join("hostile.fgta2");
        write_csr_v2(&path, &g, 16).unwrap();
        let clean = std::fs::read(&path).unwrap();
        let bad_path = dir.join("hostile-bad.fgta2");
        let read = |bytes: &[u8]| {
            std::fs::write(&bad_path, bytes).unwrap();
            ChunkedCsr::open(&bad_path).and_then(|s| s.to_csr())
        };
        // Truncations at every section boundary and a few interior points.
        for cut in [5usize, 40, 64, 80, clean.len() / 2, clean.len() - 3] {
            assert!(read(&clean[..cut.min(clean.len() - 1)]).is_err(), "cut={cut}");
        }
        // Hostile chunk count: chunk_rows = 1 with a huge node count would
        // need a directory bigger than the sanity ceiling.
        let mut bad = clean.clone();
        bad[8..16].copy_from_slice(&crate::io::MAX_DECODE_NODES.to_le_bytes());
        bad[24..32].copy_from_slice(&1u64.to_le_bytes());
        assert!(read(&bad).is_err());
        // Directory tampering: bump an interior entry.
        let mut bad = clean.clone();
        let dirmid = 64 + 8 * 3;
        let v = u64::from_le_bytes(bad[dirmid..dirmid + 8].try_into().unwrap());
        bad[dirmid..dirmid + 8].copy_from_slice(&(v + 1).to_le_bytes());
        assert!(read(&bad).is_err(), "directory tamper undetected");
        assert_eq!(read(&clean).unwrap(), g);
        std::fs::remove_file(&path).unwrap();
        std::fs::remove_file(&bad_path).unwrap();
    }

    #[test]
    fn empty_graph_v2_roundtrip() {
        let g = Csr::empty(0);
        let path = tmpdir().join("empty.fgta2");
        write_csr_v2(&path, &g, 8).unwrap();
        let store = ChunkedCsr::open(&path).unwrap();
        assert_eq!(store.num_nodes(), 0);
        assert_eq!(store.to_csr().unwrap(), g);
        let g5 = Csr::empty(5);
        write_csr_v2(&path, &g5, 2).unwrap();
        assert_eq!(ChunkedCsr::open(&path).unwrap().to_csr().unwrap(), g5);
        std::fs::remove_file(&path).unwrap();
    }
}
