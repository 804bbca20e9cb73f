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

use crate::io::{pread_exact, CsrV2Summary, CsrV2Writer, IoError, V2Meta};
use crate::par::{par_chunks_mut_at, resolve_threads};
use crate::spmm::spmm_one_row;
use crate::{Csr, NormKind};
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
    GAUGE
        .get_or_init(|| fedgta_obs::global().gauge("graph.store.resident_bytes"))
        .set_max(now);
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
        let dir: Vec<u64> = dir_bytes
            .chunks_exact(8)
            .map(|c| u64::from_le_bytes(c.try_into().unwrap()))
            .collect();
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
        self.offsets.capacity() * 8 + self.indices.capacity() * 4 + self.weights.capacity() * 4 + self.raw.capacity()
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
        tile.indices.clear();
        tile.indices.reserve(nnz);
        let n = store.num_nodes() as u32;
        for cbytes in tile.raw.chunks_exact(4) {
            let v = u32::from_le_bytes(cbytes.try_into().unwrap());
            if v >= n {
                return Err(IoError::Corrupt("column index out of range"));
            }
            tile.indices.push(v);
        }
        // Weights.
        tile.weights.clear();
        let mut total = off_bytes + idx_bytes;
        if meta.has_weights {
            let w_bytes = 4 * nnz;
            tile.raw.clear();
            tile.raw.resize(w_bytes, 0);
            pread_exact(&self.file, meta.weights_pos + 4 * base, &mut tile.raw)?;
            tile.weights.reserve(nnz);
            for cbytes in tile.raw.chunks_exact(4) {
                tile.weights.push(f32::from_le_bytes(cbytes.try_into().unwrap()));
            }
            total += w_bytes;
        }
        tile.rows = range;
        tile.reaccount();
        record_tile_read(total as u64);
        Ok(())
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
    let threads = resolve_threads(Some(threads))
        .min(crate::spmm::MAX_CHUNKS)
        .min(a.num_chunks().max(1));
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
    weights: Vec<f32>,
    all_ones: bool,
    drop_uniform: bool,
}

impl CsrBuilder {
    /// A builder over `n` nodes.
    pub fn new(n: usize) -> Self {
        Self {
            n,
            indptr: vec![0],
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
        self.indices.extend_from_slice(cols);
        match weights {
            Some(ws) => {
                if ws.len() != cols.len() {
                    return Err(IoError::Corrupt("weight/index length mismatch"));
                }
                if ws.iter().any(|&w| w != 1.0) {
                    self.all_ones = false;
                }
                self.weights.extend_from_slice(ws);
            }
            None => self.weights.extend(std::iter::repeat_n(1.0f32, cols.len())),
        }
        self.indptr.push(self.indices.len());
        Ok(())
    }

    fn finish(self) -> Result<Csr, IoError> {
        if self.indptr.len() != self.n + 1 {
            return Err(IoError::Corrupt("fewer rows pushed than declared"));
        }
        let weights = if self.drop_uniform && self.all_ones { None } else { Some(self.weights) };
        let g = Csr::from_raw_parts(self.indptr, self.indices, weights);
        g.validate().map_err(|_| IoError::Corrupt("column index out of range"))?;
        Ok(g)
    }
}

// ---------------------------------------------------------------------
// Streamed normalization: Ã = D̂^{r-1} Â D̂^{-r} without materializing A.
// ---------------------------------------------------------------------

/// Builds the row `u` of `Â = A + I` from the raw row, replicating
/// [`Csr::with_self_loops`]: a weight-1.0 loop is inserted at its sorted
/// position when absent.
fn hat_row(u: u32, cols: &[u32], ws: Option<&[f32]>, out_cols: &mut Vec<u32>, out_ws: &mut Vec<f32>) {
    out_cols.clear();
    out_ws.clear();
    let mut inserted = false;
    for (k, &v) in cols.iter().enumerate() {
        if !inserted && v >= u {
            if v != u {
                out_cols.push(u);
                out_ws.push(1.0);
            }
            inserted = true;
        }
        out_cols.push(v);
        out_ws.push(ws.map_or(1.0, |w| w[k]));
    }
    if !inserted {
        out_cols.push(u);
        out_ws.push(1.0);
    }
}

/// Streams the normalized adjacency `D̂^{r-1} Â D̂^{-r}` of a chunked raw
/// graph into `sink`, bit-identical to
/// [`crate::normalized_adjacency`] on the materialized graph.
///
/// Two passes over the tiles: one accumulating the weighted degrees of
/// `Â` (an O(n) f32 array — node *metadata* stays resident; only the O(m)
/// edge data streams), one emitting each normalized row with the exact
/// per-edge expression `d_u^{r-1} · w · d_v^{-r}` the in-memory builder
/// uses. Exactness is what makes out-of-core *decoupled* precompute
/// possible: propagation is a fixed linear operator, so streaming it tile
/// by tile changes nothing about the result.
pub fn normalize_stream<S: RowSink>(src: &ChunkedCsr, kind: NormKind, mut sink: S) -> Result<S::Output, IoError> {
    let n = src.num_nodes();
    let r = kind.r();
    // Pass 1: weighted degrees of Â, summed in row order exactly like
    // `Csr::weighted_degree` on the self-looped graph. For an unweighted
    // source the hat graph is unweighted too and the degree is the count.
    let mut deg = vec![0f32; n];
    let mut reader = src.reader()?;
    let mut tile = TileBuf::new();
    let mut hcols: Vec<u32> = Vec::new();
    let mut hws: Vec<f32> = Vec::new();
    for c in 0..src.num_chunks() {
        reader.read_tile(c, &mut tile)?;
        for lr in 0..tile.num_rows() {
            let u = (tile.rows.start + lr) as u32;
            if src.has_weights() {
                hat_row(u, tile.row_neighbors(lr), tile.row_weights(lr), &mut hcols, &mut hws);
                deg[u as usize] = hws.iter().sum();
            } else {
                let has_loop = tile.row_neighbors(lr).binary_search(&u).is_ok();
                deg[u as usize] = (tile.row_neighbors(lr).len() + usize::from(!has_loop)) as f32;
            }
        }
    }
    let left: Vec<f32> = deg.iter().map(|&d| d.powf(r - 1.0)).collect();
    let right: Vec<f32> = deg.iter().map(|&d| d.powf(-r)).collect();
    drop(deg);
    // Pass 2: emit each normalized hat row.
    let mut out_ws: Vec<f32> = Vec::new();
    for c in 0..src.num_chunks() {
        reader.read_tile(c, &mut tile)?;
        for lr in 0..tile.num_rows() {
            let u = (tile.rows.start + lr) as u32;
            hat_row(u, tile.row_neighbors(lr), tile.row_weights(lr), &mut hcols, &mut hws);
            let lu = left[u as usize];
            out_ws.clear();
            out_ws.extend(hcols.iter().zip(&hws).map(|(&v, &w)| lu * w * right[v as usize]));
            sink.push_row(&hcols, Some(&out_ws))?;
        }
    }
    sink.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::write_csr_v2;
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
                let x: Vec<f32> = (0..n as usize * cols).map(|i| ((i * 31 % 17) as f32) * 0.21 - 1.0).collect();
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
        for (seed, weighted) in [(11u64, false), (12, true)] {
            let mut raw = skewed_graph(150, seed);
            if weighted {
                // Force an explicitly weighted raw graph.
                let ws: Vec<f32> = (0..raw.num_edges()).map(|i| 0.5 + (i % 4) as f32 * 0.25).collect();
                raw = Csr::from_raw_parts(raw.indptr().to_vec(), raw.indices().to_vec(), Some(ws));
            }
            let path = tmpdir().join(format!("norm-{seed}.fgta2"));
            write_csr_v2(&path, &raw, 32).unwrap();
            let store = ChunkedCsr::open(&path).unwrap();
            for kind in [NormKind::Symmetric, NormKind::RowStochastic, NormKind::ColumnStochastic] {
                let want = normalized_adjacency(&raw, kind);
                let got = normalize_stream(&store, kind, CsrBuilder::new(150).keep_weights()).unwrap();
                assert_eq!(got.indptr(), want.indptr());
                assert_eq!(got.indices(), want.indices());
                let (gw, ww) = (got.weights().unwrap(), want.weights().unwrap());
                for (a, b) in gw.iter().zip(ww) {
                    assert_eq!(a.to_bits(), b.to_bits(), "seed={seed} kind={kind:?}");
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
