//! Sparse × dense multiplication — the propagation kernel.
//!
//! `Y = A · X` where `A` is CSR (`n × n`) and `X` is a row-major dense
//! matrix (`n × f`). This single kernel powers every feature-propagation
//! step (SGC/SIGN/S²GC/GBP/GAMLP precompute, GCN forward/backward) and
//! FedGTA's non-parametric label propagation. [`spmm_into`] and
//! [`spmm_axpby_into`] run on the thread that calls them; rows of `Y` are
//! independent, so a caller that asks for threads
//! ([`spmm_into_threads`], `store::spmm_chunked_into_threads`) gets
//! contiguous nnz-balanced row chunks and the same bits at any count.
//!
//! Rows are visited in **degree order within 64-row tiles**: every
//! [`Csr`] carries a row schedule (one byte per row, built once by
//! `Csr::from_raw_parts`) listing each tile's rows in stable
//! ascending-degree order (degrees from 63 on share one key; a graph whose
//! tiles are in that order already holds none), and `spmm_rows` walks
//! the tiles in order and
//! each tile in its schedule's order. On a client graph of an `sbm1m`
//! federation (31 250 rows, ≈ 5.5 stored entries per row) a row is a
//! handful of neighbors, and what a step costs is mostly the mispredicted
//! exit of each row's neighbor loop, not its gathers: rows of equal
//! degree back to back make the exit predictable. On a 2-core Xeon
//! (AVX-512) host, eight such clients' five label-propagation steps take
//! 0.68–0.80× the row-order time with 64-row tiles; 512-row tiles read
//! 0.80×, 4096-row tiles 0.88×, one whole-array sort 1.79× (the output
//! rows no longer stay in L1 while they are written out of order), and
//! sorting inside the kernel on every call kept half the gain. A BFS
//! relabel (0.97–1.10×), 64-byte-aligned rows (1.0×) and two unsorted rows
//! in lockstep (1.2–1.5×) gained nothing. No bit can move: rows
//! are independent, each keeps its neighbor order, and a row's output
//! goes where it always went, so the thread-count contract holds too — a
//! worker whose boundary falls inside a tile walks that tile's schedule
//! and skips the rows of its neighbor. The chunked-store tile path in
//! [`crate::store`] keeps plain row order.
//!
//! The inner loop is **column-blocked**: each output row is produced in
//! blocks of [`SPMM_BLOCK`] columns held in a register accumulator while
//! the neighbor list streams past, instead of re-reading and re-writing
//! the output row once per neighbor. Per-element accumulation order
//! (neighbor order) is unchanged, so results are bit-identical to the
//! straightforward kernel — including across thread counts.
//!
//! There is **one** neighbor-scan loop, [`spmm_row_block`], written once
//! per weight kind (weighted / unweighted) and always at the compile-time
//! width [`SPMM_BLOCK`]. Its `FULL` const parameter only decides how many
//! lanes are *stored*: a ragged last block (`cols % SPMM_BLOCK` columns)
//! reads whole blocks too — the lanes past its width hold the next row's
//! values, are computed on and thrown away ([`block_at`]) — so a 7- or
//! 40-column operand runs vector code instead of a scalar loop of runtime
//! length (1.4× / 1.15× on 7 / 40 hot columns). The ragged instantiation
//! is kept out of line ([`spmm_row_tail`]): inlined next to the full-block
//! loop it cost that loop 6–15 % on 16- and 32-column operands.
//!
//! Every block ends in an **epilogue** applied to the register accumulator
//! before the store ([`Epilogue`]). [`spmm_into`] instantiates it with
//! [`Plain`], which does nothing; [`spmm_axpby_into`] with [`Axpby`],
//! `acc·β + α·z`, which turns label propagation's
//! `Ŷˡ = (1−α)·Ã·Ŷˡ⁻¹ + α·Ŷ⁰` into one pass that never writes the bare
//! product to memory. The epilogue is a generic parameter whose `apply`
//! is `#[inline(always)]`, as are the row and block functions it is
//! reached through — never a `dyn`, a function pointer or a closure left
//! to the inliner's judgement (a closure epilogue of more than a few lines
//! stayed out of line and was called once per block through memory: ten
//! clients' label propagation at 270 × 16 took 0.20 ms against the
//! two-pass form's 0.16, and takes 0.15 inlined). The `Plain` instantiation must compile to the loop with no
//! epilogue at all — GCN's and SGC's `spmm_into` pay nothing for label
//! propagation's restart term — and the `Axpby` one must see the block
//! width as a constant so it vectorizes like the accumulation it follows.

use crate::csr::SCHEDULE_TILE;
use crate::par::{par_chunks_mut_at, resolve_threads};
use crate::{Csr, GraphError, Result};

/// Column-block width: one output sub-row of this many columns lives in a
/// register accumulator for the whole neighbor scan. 16 f32 = one cache
/// line = two AVX2 / one AVX-512 vector.
const SPMM_BLOCK: usize = 16;

/// What a block's register accumulator goes through before it is stored.
/// A trait rather than a closure so that `apply` can be `#[inline(always)]`
/// (see the module header).
trait Epilogue: Copy + Sync {
    /// `acc[..w]` is the block that starts at flat offset `off` of `Y`.
    fn apply(self, off: usize, acc: &mut [f32; SPMM_BLOCK], w: usize);
}

/// `Y = A · X`: nothing to do.
#[derive(Clone, Copy)]
struct Plain;

impl Epilogue for Plain {
    #[inline(always)]
    fn apply(self, _: usize, _: &mut [f32; SPMM_BLOCK], _: usize) {}
}

/// The [`SPMM_BLOCK`] values of `src` from `r` on, of which the caller uses
/// the first `w`. Whenever that many lie in bounds — always for a `FULL`
/// block, and for a ragged last block everywhere but at the very end of
/// the matrix — the lanes past `w` are simply the next row's values, which
/// the kernel computes on and never stores; only at the end of `src` are
/// the `w` values copied into the zeroed `pad`. This is what lets a ragged
/// block run the same compile-time-width loop as a full one instead of a
/// scalar loop of runtime length.
#[inline(always)]
fn block_at<'a, const FULL: bool>(
    src: &'a [f32],
    r: usize,
    w: usize,
    pad: &'a mut [f32; SPMM_BLOCK],
) -> &'a [f32; SPMM_BLOCK] {
    if FULL || r + SPMM_BLOCK <= src.len() {
        src[r..r + SPMM_BLOCK].try_into().expect("sliced to SPMM_BLOCK")
    } else {
        pad[..w].copy_from_slice(&src[r..r + w]);
        pad
    }
}

/// Accumulates `acc (+)= wt · xj[v·cols..]` over one neighbor list (`xj` is
/// the dense operand from the block's first column on), applies
/// `epi(off, acc, w)` and stores the first `w` lanes into `out`. `FULL`
/// blocks have the compile-time width [`SPMM_BLOCK`]; the ragged last
/// block (`!FULL`) takes its width from `out`. Lanes are independent, so
/// what the unused ones hold (see [`block_at`]) cannot reach the stored
/// ones.
///
/// Operates on bare slices (one row's neighbor ids + optional weights) so
/// the in-memory [`Csr`] path and the out-of-core tile path in
/// [`crate::store`] share the exact same inner loop — which is what makes
/// their outputs bit-identical by construction.
#[inline(always)]
fn spmm_row_block<const FULL: bool, E: Epilogue>(
    neigh: &[u32],
    ws: Option<&[f32]>,
    xj: &[f32],
    cols: usize,
    off: usize,
    out: &mut [f32],
    epi: E,
) {
    let w = if FULL { SPMM_BLOCK } else { out.len() };
    let mut acc = [0f32; SPMM_BLOCK];
    let mut pad = [0f32; SPMM_BLOCK];
    match ws {
        Some(ws) => {
            for (&v, &wt) in neigh.iter().zip(ws) {
                let src = block_at::<FULL>(xj, v as usize * cols, w, &mut pad);
                for l in 0..SPMM_BLOCK {
                    acc[l] += wt * src[l];
                }
            }
        }
        None => {
            for &v in neigh {
                let src = block_at::<FULL>(xj, v as usize * cols, w, &mut pad);
                for l in 0..SPMM_BLOCK {
                    acc[l] += src[l];
                }
            }
        }
    }
    epi.apply(off, &mut acc, w);
    out.copy_from_slice(&acc[..w]);
}

/// Multiplies one row (given as its neighbor list + optional weights)
/// against the dense operand, writing the `cols`-wide output row that
/// starts at flat offset `base` of `Y`. The single row kernel behind the
/// in-memory, the threaded and the chunked-store SpMM.
#[inline(always)]
fn spmm_row<E: Epilogue>(
    neigh: &[u32],
    ws: Option<&[f32]>,
    x: &[f32],
    cols: usize,
    base: usize,
    out: &mut [f32],
    epi: E,
) {
    let full = cols / SPMM_BLOCK * SPMM_BLOCK;
    let mut jb = 0;
    while jb < full {
        spmm_row_block::<true, E>(
            neigh,
            ws,
            &x[jb..],
            cols,
            base + jb,
            &mut out[jb..jb + SPMM_BLOCK],
            epi,
        );
        jb += SPMM_BLOCK;
    }
    if jb < cols {
        spmm_row_tail(neigh, ws, &x[jb..], cols, base + jb, &mut out[jb..], epi);
    }
}

/// The ragged last block, out of line so that its registers and stack do
/// not weigh on the full-block loop of [`spmm_row`] (see the module header).
#[inline(never)]
fn spmm_row_tail<E: Epilogue>(
    neigh: &[u32],
    ws: Option<&[f32]>,
    xj: &[f32],
    cols: usize,
    off: usize,
    out: &mut [f32],
    epi: E,
) {
    spmm_row_block::<false, E>(neigh, ws, xj, cols, off, out, epi);
}

/// [`spmm_row`] with the empty epilogue: the plain product row, for the
/// tile path in [`crate::store`].
#[inline]
pub(crate) fn spmm_one_row(
    neigh: &[u32],
    ws: Option<&[f32]>,
    x: &[f32],
    cols: usize,
    out: &mut [f32],
) {
    spmm_row(neigh, ws, x, cols, 0, out, Plain);
}

/// Computes `Y = A · X` into a fresh buffer.
///
/// `x` is row-major with `cols` columns and `A.num_nodes()` rows.
pub fn spmm(a: &Csr, x: &[f32], cols: usize) -> Result<Vec<f32>> {
    let n = a.num_nodes();
    if x.len() != n * cols {
        return Err(GraphError::DimensionMismatch {
            expected: n * cols,
            found: x.len(),
            context: "spmm dense operand",
        });
    }
    let mut y = vec![0f32; n * cols];
    spmm_into(a, x, cols, &mut y);
    Ok(y)
}

/// Cached handles to the propagation-kernel counters, registered lazily in
/// the global [`fedgta_obs`] registry. One `OnceLock` load per kernel call
/// when metrics are on; skipped entirely when off.
#[inline]
pub(crate) fn record_spmm(rows: usize, nnz: usize, cols: usize) {
    if !fedgta_obs::metrics_on() {
        return;
    }
    fedgta_obs::counter!("spmm.rows").add(rows as u64);
    // One multiply-add per stored edge per dense column.
    fedgta_obs::counter!("spmm.flops").add(2 * nnz as u64 * cols as u64);
}

/// Computes `Y = A · X` into a caller-provided buffer (`y.len() == n*cols`),
/// on the calling thread.
///
/// Panics on size mismatch (internal hot path; the checked entry point is
/// [`spmm`]). Records `spmm.rows` / `spmm.flops` counters when metrics are
/// armed: [`spmm_into_threads`] at one thread.
pub fn spmm_into(a: &Csr, x: &[f32], cols: usize, y: &mut [f32]) {
    spmm_into_threads(a, x, cols, y, 1);
}

/// Computes `Y = β·(A · X) + α·Z` in one pass (`z.len() == y.len() ==
/// n*cols`): label propagation's step `Ŷˡ = (1−α)·Ã·Ŷˡ⁻¹ + α·Ŷ⁰` with the
/// restart term applied to each block's register accumulator, so the bare
/// product `A · X` is never written to memory or read back.
///
/// Each element is `acc·β + α·z` with `acc` the f32 row sum [`spmm_into`]
/// would have stored — the same expression, in the same order, as
/// `spmm_into` followed by a separate sweep — so the result is
/// bit-identical to that two-pass form (a row with no stored edges yields
/// `0·β + α·z`). Runs on the calling thread. Panics on size mismatch;
/// records the same `spmm.rows` / `spmm.flops` counters as [`spmm_into`]
/// (the epilogue is not counted).
pub fn spmm_axpby_into(
    a: &Csr,
    x: &[f32],
    cols: usize,
    beta: f32,
    alpha: f32,
    z: &[f32],
    y: &mut [f32],
) {
    assert_eq!(z.len(), y.len());
    record_spmm(a.num_nodes(), a.num_edges(), cols);
    spmm_rows(a, x, cols, y, 1, Axpby { beta, alpha, z });
}

/// The epilogue of [`spmm_axpby_into`]: `acc ← acc·β + α·z[off..]`. `z` is
/// indexed by `Y`'s flat offsets, so a worker reads exactly the rows it
/// writes; like the accumulation, it runs all lanes of a ragged block.
#[derive(Clone, Copy)]
struct Axpby<'a> {
    beta: f32,
    alpha: f32,
    z: &'a [f32],
}

impl Epilogue for Axpby<'_> {
    #[inline(always)]
    fn apply(self, off: usize, acc: &mut [f32; SPMM_BLOCK], w: usize) {
        let mut pad = [0f32; SPMM_BLOCK];
        let z = block_at::<false>(self.z, off, w, &mut pad);
        for l in 0..SPMM_BLOCK {
            acc[l] = acc[l] * self.beta + self.alpha * z[l];
        }
    }
}

/// Upper bound on worker chunks: the boundary array lives on the stack so
/// the kernel stays allocation-free at any thread count.
pub(crate) const MAX_CHUNKS: usize = 64;

/// [`spmm_into`] on `threads` workers (`0` = auto, see
/// [`resolve_threads`]): the entry for a caller that wants one large
/// product threaded. Records the same counters as [`spmm_into`].
#[inline]
pub fn spmm_into_threads(a: &Csr, x: &[f32], cols: usize, y: &mut [f32], threads: usize) {
    record_spmm(a.num_nodes(), a.num_edges(), cols);
    spmm_rows(a, x, cols, y, threads, Plain);
}

/// Runs the row kernel with epilogue `epi` over every row of `a`, on
/// `threads` workers (`0` = auto).
///
/// Row chunks are **nonzero-balanced**: boundaries are picked from the CSR
/// row-pointer prefix sums so each worker handles ~`nnz/threads` stored
/// edges rather than `rows/threads` rows. On power-law graphs this stops a
/// single hub row from serializing an equal-row-count chunk. Per-row
/// arithmetic (neighbor order, column blocking, epilogue) is untouched, so
/// results remain bit-identical to the single-threaded kernel for any
/// boundary placement.
fn spmm_rows<E: Epilogue>(a: &Csr, x: &[f32], cols: usize, y: &mut [f32], threads: usize, epi: E) {
    let n = a.num_nodes();
    assert_eq!(x.len(), n * cols);
    assert_eq!(y.len(), n * cols);
    // Every tile that meets `range`, each in its schedule's order; a
    // worker boundary inside a tile skips the rows on the other side.
    let body = |_: usize, chunk: &mut [f32], range: std::ops::Range<usize>| {
        let first = range.start / SCHEDULE_TILE * SCHEDULE_TILE;
        for t0 in (first..range.end).step_by(SCHEDULE_TILE) {
            for &o in a.tile_schedule(t0) {
                let row = t0 + o as usize;
                if !range.contains(&row) {
                    continue;
                }
                let local = row - range.start;
                let out = &mut chunk[local * cols..(local + 1) * cols];
                let u = row as u32;
                spmm_row(a.neighbors(u), a.neighbor_weights(u), x, cols, row * cols, out, epi);
            }
        }
    };
    let threads = resolve_threads(Some(threads)).min(MAX_CHUNKS).min(n.max(1));
    if threads <= 1 || n < 2 * threads {
        body(0, y, 0..n);
        return;
    }
    // nnz-balanced boundaries from the row-pointer prefix sums: chunk t
    // starts at the first row whose cumulative nnz reaches t·nnz/threads.
    // A stack array keeps this allocation-free (threads ≤ MAX_CHUNKS).
    let indptr = a.indptr();
    let nnz = a.num_edges();
    let mut bounds = [0usize; MAX_CHUNKS + 1];
    bounds[threads] = n;
    for (t, b) in bounds.iter_mut().enumerate().take(threads).skip(1) {
        let target = (nnz as u64 * t as u64 / threads as u64) as usize;
        // First row index whose prefix nnz is >= target (indptr[row] is
        // the nnz before `row`). partition_point over the sorted prefix.
        *b = indptr[..=n].partition_point(|&p| p < target).min(n);
    }
    // Monotonicity can break only if a single hub row spans several
    // targets; clamp so boundaries stay non-decreasing.
    for t in 1..threads {
        if bounds[t] < bounds[t - 1] {
            bounds[t] = bounds[t - 1];
        }
    }
    par_chunks_mut_at(y, cols, &bounds[..=threads], body);
}

/// Fills `hops` with the `k` *propagated* steps `[A·X, …, A^k·X]`, reusing
/// whatever buffers `hops` already holds (capacity permitting): the hops
/// SIGN/GAMLP-style models and FedGTA's feature moments need. The input
/// `X` is only borrowed — callers that need hop 0 keep their own
/// reference, and callers that never use it (FedGTA's feature-moment
/// sketch) skip the copy entirely.
pub fn propagate_steps_into(
    a: &Csr,
    x: &[f32],
    cols: usize,
    k: usize,
    hops: &mut Vec<Vec<f32>>,
) -> Result<()> {
    let n = a.num_nodes();
    if x.len() != n * cols {
        return Err(GraphError::DimensionMismatch {
            expected: n * cols,
            found: x.len(),
            context: "propagate_steps dense operand",
        });
    }
    hops.truncate(k);
    while hops.len() < k {
        hops.push(Vec::new());
    }
    for i in 0..k {
        let (done, rest) = hops.split_at_mut(i);
        let dst = &mut rest[0];
        dst.clear();
        dst.resize(x.len(), 0.0);
        let src: &[f32] = if i == 0 { x } else { &done[i - 1] };
        spmm_into(a, src, cols, dst);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{normalized_adjacency, EdgeList, NormKind};

    fn path3() -> Csr {
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        el.to_csr()
    }

    #[test]
    fn unweighted_spmm_sums_neighbors() {
        let g = path3();
        let x = vec![1.0, 10.0, 100.0]; // one column
        let y = spmm(&g, &x, 1).unwrap();
        assert_eq!(y, vec![10.0, 101.0, 10.0]);
    }

    #[test]
    fn weighted_spmm_scales() {
        let mut el = EdgeList::new(2);
        el.push_weighted(0, 1, 0.5).unwrap();
        let g = el.to_csr();
        let y = spmm(&g, &[3.0, 4.0, 5.0, 6.0], 2).unwrap();
        assert_eq!(y, vec![2.5, 3.0, 0.0, 0.0]);
    }

    #[test]
    fn column_blocking_covers_wide_and_ragged_widths() {
        // Widths straddling the block size: below, at, above, and ragged.
        let g = normalized_adjacency(&path3(), NormKind::Symmetric);
        for cols in [1usize, 3, 15, 16, 17, 33, 40] {
            let x: Vec<f32> = (0..3 * cols).map(|i| ((i * 37 % 19) as f32) * 0.25 - 2.0).collect();
            let blocked = spmm(&g, &x, cols).unwrap();
            // Reference: plain neighbor-outer accumulation.
            let mut want = vec![0f32; 3 * cols];
            for row in 0..3u32 {
                let out = &mut want[row as usize * cols..(row as usize + 1) * cols];
                let ws = g.neighbor_weights(row).unwrap();
                for (&v, &w) in g.neighbors(row).iter().zip(ws) {
                    for (o, &s) in
                        out.iter_mut().zip(&x[v as usize * cols..(v as usize + 1) * cols])
                    {
                        *o += w * s;
                    }
                }
            }
            for (a, b) in blocked.iter().zip(&want) {
                assert_eq!(a.to_bits(), b.to_bits(), "cols={cols}: {a} vs {b}");
            }
        }
    }

    /// The plain row-order kernel the scheduled one must equal: rows in
    /// index order, each accumulated neighbor by neighbor from `0.0`.
    fn row_order_reference(a: &Csr, x: &[f32], cols: usize) -> Vec<f32> {
        let mut y = vec![0f32; a.num_nodes() * cols];
        for (row, out) in y.chunks_exact_mut(cols).enumerate() {
            let u = row as u32;
            for (k, &v) in a.neighbors(u).iter().enumerate() {
                let src = &x[v as usize * cols..(v as usize + 1) * cols];
                for (o, &s) in out.iter_mut().zip(src) {
                    *o += match a.neighbor_weights(u) {
                        Some(ws) => ws[k] * s,
                        None => s,
                    };
                }
            }
        }
        y
    }

    /// Bits equal, or both NaN (Rust leaves an arithmetic NaN's sign and
    /// payload unspecified).
    fn assert_same_bits_or_nan(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert!(
                g.to_bits() == w.to_bits() || (g.is_nan() && w.is_nan()),
                "{what}: element {i}: {g} vs {w}"
            );
        }
    }

    #[test]
    fn degree_scheduled_rows_match_the_row_order_reference_bitwise() {
        // 320 rows (five tiles), degrees 0–40 in runs of three, rows with
        // no entries, and a hub linked to every row.
        let special = [f32::NAN, f32::INFINITY, f32::NEG_INFINITY, -0.0];
        for weighted in [false, true] {
            let g = crate::csr::skewed_rows(320, 40, 150, weighted);
            let n = g.num_nodes();
            assert_eq!(g.degree(150), n);
            assert!(
                (0..n as u32).any(|u| g.degree(u) == 0) && (0..n as u32).any(|u| g.degree(u) == 40)
            );
            for cols in [1usize, 7, 16, 17, 33, 40] {
                for salted in [false, true] {
                    let mut x: Vec<f32> =
                        (0..n * cols).map(|i| ((i * 37 % 19) as f32) * 0.25 - 2.0).collect();
                    let z: Vec<f32> =
                        (0..n * cols).map(|i| ((i * 13 % 11) as f32) * 0.5 - 1.5).collect();
                    if salted {
                        for (i, v) in x.iter_mut().enumerate().filter(|(i, _)| i % 11 == 0) {
                            *v = special[i / 11 % special.len()];
                        }
                    }
                    let what = format!("weighted={weighted} cols={cols} salted={salted}");
                    let want = row_order_reference(&g, &x, cols);
                    let want_axpby: Vec<f32> =
                        want.iter().zip(&z).map(|(&p, &zv)| p * 0.5 + -1.25 * zv).collect();
                    let mut got = vec![7f32; n * cols]; // garbage: fully overwritten
                    spmm_into(&g, &x, cols, &mut got);
                    assert_same_bits_or_nan(&got, &want, &what);
                    spmm_axpby_into(&g, &x, cols, 0.5, -1.25, &z, &mut got);
                    assert_same_bits_or_nan(&got, &want_axpby, &what);
                    for threads in [1usize, 2, 3, 7, 64] {
                        let what = format!("{what} threads={threads}");
                        got.fill(7.0);
                        spmm_into_threads(&g, &x, cols, &mut got, threads);
                        assert_same_bits_or_nan(&got, &want, &what);
                        got.fill(7.0);
                        spmm_rows(
                            &g,
                            &x,
                            cols,
                            &mut got,
                            threads,
                            Axpby { beta: 0.5, alpha: -1.25, z: &z },
                        );
                        assert_same_bits_or_nan(&got, &want_axpby, &what);
                    }
                }
            }
        }
    }

    #[test]
    fn nnz_balanced_threads_match_serial_on_star_graph() {
        // A hub node adjacent to everyone: equal-row-count chunking would
        // put all the work in the hub's chunk; nnz balancing must still
        // produce bit-identical output.
        let mut el = EdgeList::new(65);
        for v in 1..65 {
            el.push_undirected(0, v).unwrap();
        }
        let star = normalized_adjacency(&el.to_csr(), NormKind::Symmetric);
        // And rows of every degree 0–40 around a hub, in scheduled tiles.
        for g in [star, crate::csr::skewed_rows(320, 40, 150, true)] {
            let n = g.num_nodes();
            for cols in [1usize, 7, 16, 33] {
                let x: Vec<f32> =
                    (0..n * cols).map(|i| ((i * 29 % 23) as f32) * 0.125 - 1.0).collect();
                let mut serial = vec![0f32; x.len()];
                spmm_into_threads(&g, &x, cols, &mut serial, 1);
                for threads in [2usize, 3, 4, 7, 64] {
                    let mut par = vec![7f32; x.len()]; // garbage: fully overwritten
                    spmm_into_threads(&g, &x, cols, &mut par, threads);
                    for (a, b) in par.iter().zip(&serial) {
                        assert_eq!(a.to_bits(), b.to_bits(), "n={n} threads={threads} cols={cols}");
                    }
                }
            }
        }
    }

    #[test]
    fn nnz_balanced_threads_match_serial_on_skewed_degrees() {
        // Geometric-ish degree skew plus isolated vertices.
        let n = 48u32;
        let mut el = EdgeList::new(n as usize);
        for u in 0..8u32 {
            for v in (u + 1)..(u + 1 + (32 >> u)).min(n) {
                el.push_undirected(u, v).unwrap();
            }
        }
        let g = el.to_csr();
        let cols = 5usize;
        let x: Vec<f32> = (0..n as usize * cols).map(|i| (i as f32 * 0.31).sin()).collect();
        let mut serial = vec![0f32; x.len()];
        spmm_into_threads(&g, &x, cols, &mut serial, 1);
        for threads in [2usize, 4, 8, 16] {
            let mut par = vec![0f32; x.len()];
            spmm_into_threads(&g, &x, cols, &mut par, threads);
            assert_eq!(par, serial, "threads={threads}");
        }
    }

    /// The two-pass form `spmm_axpby_into` replaces: the plain kernel into
    /// a scratch, then the separate `p·β + α·z` sweep.
    fn axpby_two_pass(
        a: &Csr,
        x: &[f32],
        cols: usize,
        beta: f32,
        alpha: f32,
        z: &[f32],
    ) -> Vec<f32> {
        let mut prop = vec![f32::NAN; x.len()];
        spmm_into_threads(a, x, cols, &mut prop, 1);
        prop.iter().zip(z).map(|(&p, &zv)| p * beta + alpha * zv).collect()
    }

    fn assert_same_bits(got: &[f32], want: &[f32], what: &str) {
        assert_eq!(got.len(), want.len(), "{what}");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g.to_bits(), w.to_bits(), "{what}: element {i}: {g} vs {w}");
        }
    }

    #[test]
    fn axpby_epilogue_matches_two_pass_bitwise_at_every_width() {
        // Node 3 is isolated: its rows must come out as `0·β + α·z`.
        let mut el = EdgeList::new(4);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        let unweighted = el.to_csr();
        let mut el = EdgeList::new(4);
        for (u, v, w) in [(0, 1, 0.3), (1, 0, 0.7), (1, 2, -1.25), (2, 1, 0.1), (2, 2, 0.6)] {
            el.push_weighted(u, v, w).unwrap();
        }
        let weighted = el.to_csr();
        assert!(weighted.neighbors(3).is_empty() && weighted.neighbor_weights(3).is_some());
        for (g, kind) in [(&unweighted, "unweighted"), (&weighted, "weighted")] {
            for cols in [1usize, 3, 15, 16, 17, 33, 40] {
                let x: Vec<f32> =
                    (0..4 * cols).map(|i| ((i * 37 % 19) as f32) * 0.25 - 2.0).collect();
                let z: Vec<f32> =
                    (0..4 * cols).map(|i| ((i * 13 % 11) as f32) * 0.5 - 1.5).collect();
                for (beta, alpha) in [(0.5f32, 0.5f32), (1.0, 0.0), (0.0, 1.0), (0.3, -1.7)] {
                    let want = axpby_two_pass(g, &x, cols, beta, alpha, &z);
                    let mut got = vec![f32::NAN; x.len()]; // garbage: fully overwritten
                    spmm_axpby_into(g, &x, cols, beta, alpha, &z, &mut got);
                    assert_same_bits(
                        &got,
                        &want,
                        &format!("{kind} cols={cols} β={beta} α={alpha}"),
                    );
                    for (o, &zv) in got[3 * cols..].iter().zip(&z[3 * cols..]) {
                        assert_eq!(
                            o.to_bits(),
                            (0.0 * beta + alpha * zv).to_bits(),
                            "isolated row"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn axpby_epilogue_is_thread_count_invariant_on_star_and_skewed_graphs() {
        let star = {
            let n = 65u32;
            let mut el = EdgeList::new(n as usize);
            for v in 1..n {
                el.push_undirected(0, v).unwrap();
            }
            normalized_adjacency(&el.to_csr(), NormKind::Symmetric)
        };
        let skewed = {
            // Geometric-ish degree skew plus isolated vertices, unweighted.
            let n = 48u32;
            let mut el = EdgeList::new(n as usize);
            for u in 0..8u32 {
                for v in (u + 1)..(u + 1 + (32 >> u)).min(n) {
                    el.push_undirected(u, v).unwrap();
                }
            }
            el.to_csr()
        };
        let scheduled = crate::csr::skewed_rows(320, 40, 150, true);
        for (g, kind) in [(&star, "star"), (&skewed, "skewed"), (&scheduled, "scheduled")] {
            let n = g.num_nodes();
            for cols in [1usize, 7, 16, 33] {
                let x: Vec<f32> =
                    (0..n * cols).map(|i| ((i * 29 % 23) as f32) * 0.125 - 1.0).collect();
                let z: Vec<f32> = (0..n * cols).map(|i| (i as f32 * 0.31).sin()).collect();
                let want = axpby_two_pass(g, &x, cols, 0.5, 0.5, &z);
                for threads in [1usize, 2, 3, 4, 7, 64] {
                    let mut got = vec![7f32; x.len()];
                    spmm_rows(
                        g,
                        &x,
                        cols,
                        &mut got,
                        threads,
                        Axpby { beta: 0.5, alpha: 0.5, z: &z },
                    );
                    assert_same_bits(&got, &want, &format!("{kind} cols={cols} threads={threads}"));
                }
            }
        }
    }

    #[test]
    fn dimension_mismatch_rejected() {
        let g = path3();
        assert!(spmm(&g, &[1.0, 2.0], 1).is_err());
        let mut hops = Vec::new();
        assert!(propagate_steps_into(&g, &[1.0], 1, 2, &mut hops).is_err());
    }

    #[test]
    fn propagate_steps_into_reuses_buffers_and_skips_hop_zero() {
        let g = normalized_adjacency(&path3(), NormKind::Symmetric);
        let x = vec![1.0, 0.5, 0.25];
        // Pre-seed with stale oversized buffers: they must be reused.
        let mut hops = vec![vec![9.0f32; 8], vec![8.0f32; 2]];
        let caps: Vec<usize> = hops.iter().map(|h| h.capacity()).collect();
        propagate_steps_into(&g, &x, 1, 3, &mut hops).unwrap();
        assert_eq!(hops.len(), 3);
        // Hop l is one product of hop l − 1, hop 0 being X itself.
        assert_eq!(hops[0], spmm(&g, &x, 1).unwrap());
        assert_eq!(hops[1], spmm(&g, &hops[0], 1).unwrap());
        assert_eq!(hops[2], spmm(&g, &hops[1], 1).unwrap());
        assert!(hops[0].capacity() >= caps[0].min(8), "buffer was reused");
    }

    #[test]
    fn row_stochastic_propagation_preserves_mean_mass() {
        // Row-stochastic A keeps values in the convex hull of inputs.
        let g = normalized_adjacency(&path3(), NormKind::RowStochastic);
        let x = vec![0.0, 1.0, 0.5];
        let y = spmm(&g, &x, 1).unwrap();
        for &v in &y {
            assert!((0.0..=1.0).contains(&v));
        }
    }
}
