//! Dense compute kernels: register-blocked, allocation-free, and run on
//! the thread that calls them.
//!
//! All three transpose variants needed by MLP backprop are provided:
//! `C = A·B` (forward), `C = Aᵀ·B` (weight gradients), `C = A·Bᵀ`
//! (input gradients) — each in an allocating form (`matmul*`) and an
//! allocation-free `_into` form writing into a caller-provided buffer
//! (typically checked out of a [`crate::workspace::Workspace`]).
//!
//! ## Kernel design
//!
//! The inner loops are register-blocked so LLVM auto-vectorizes them:
//!
//! - [`matmul_into`] (and the fused bias variants) run an **8-row ×
//!   16-column register-tiled outer-product micro-kernel**
//!   ([`gemm_rows_tile`]): the `C` tile lives in registers across the
//!   entire `k` loop, each loaded `B` block serves eight output rows (8×
//!   less `B` traffic than a row-at-a-time axpy), and every output element
//!   is read and written exactly once. LLVM builds that portable tile from
//!   256-bit vectors even under `target-cpu=native` on an AVX-512 Xeon (it
//!   prefers 256-bit code there), so where the CPU reports `avx512f` every
//!   full 32-column block runs an explicit **8 × 32 tile of 16 `zmm`
//!   accumulators** instead ([`avx512_tile`]: multiply, then add, never
//!   fused). The CPU picks the tile once per kernel call; the two compute
//!   the same chain of IEEE operations per element, so no bit depends on
//!   the choice. [`gemm_tile`] names the one in use. A column tail
//!   (`n % 16`: cora's 7 classes, arxiv's 8 of 40) runs the portable
//!   tile, reading 16 lanes of each `B` row in place — the lanes past `n`
//!   are computed and never stored — and the last few rows, where that
//!   read would run past `B`, from a zero-padded copy ([`ColumnTail`]).
//!   Row tails fall back to [`gemm_row`], which processes
//!   **4 k-steps per iteration**, broadcasting four `A` scalars against
//!   four contiguous `B` rows through `chunks_exact` column blocks
//!   ([`axpy4`]) — the same element-wise accumulation order, so the two
//!   paths agree bit-for-bit.
//! - [`matmul_tn_into`] runs on the **same micro-kernel**: a band of 8
//!   rows of `C = Aᵀ·B` is `(8 × m panel of Aᵀ)·B`, so it transpose-packs
//!   8 columns of `A` into a stack panel ([`TN_PANEL`] outer steps at a
//!   time) and calls [`gemm_rows_tile`] / [`gemm_row`] on it. The tile
//!   loads its accumulators from `out`, so chunked accumulation keeps the
//!   strict increasing-`i` order. Two measured pitfalls: accumulating
//!   `acc[rr][l]` straight off the unpacked `A` rows makes LLVM vectorize
//!   across `rr` with stack gathers (16 → 5.2 GFLOP/s), and sharing
//!   [`gemm_rows_tile`] under plain `#[inline]` leaves it out of line and
//!   costs the *forward* kernel a third of its rate (65 → 44 GFLOP/s at
//!   cora shapes) — hence `#[inline(always)]`.
//! - [`matmul_nt_into`] computes each output element as a dot product over
//!   **8 independent accumulator lanes** ([`dot_lanes`]), breaking the
//!   add-latency chain that serializes a naive dot product. With fewer
//!   than 8 inner steps (a 7-class layer's input gradient) the lanes stay
//!   zero and the product is the sequential tail sum, which is the tile's
//!   chain: whole row bands then run the register tile on a packed `Bᵀ`.
//! - [`matmul_bias_relu_into`] fuses the hidden-layer epilogue: the output
//!   row is *initialized with the bias*, accumulated, and rectified in one
//!   pass — no separate `add_bias`/`relu_inplace` sweeps over the matrix.
//!
//! - [`softmax_rows_inplace`] (Eq. 3's soft labels, and the cross-entropy
//!   of every training step) calls **no libm**: per block of 64 rows it
//!   subtracts the row maximum, runs [`exp_nonpos_inplace`] — a
//!   branch-free `f32` `exp` for non-positive arguments in plain `*`/`+`
//!   that vectorizes 16 lanes wide, bits independent of the host's FMA
//!   support and libc, ≤ 1 ulp, flushing below `2⁻¹²⁶` to `+0`,
//!   NaN-propagating — over the block as one flat slice, then takes the
//!   row sum in column order and scales. DESIGN.md §10 records the
//!   deviations from the libm loop it replaced.
//!
//! The seed kernels skipped `A` zeros with a branch in the innermost loop
//! (`if av == 0.0 { continue }`); that branch defeated vectorization and
//! cost more than it saved even on post-ReLU activations (~50% zeros), so
//! the blocked kernels are branch-free. Sparse operands go through the
//! *sparse* kernel ([`spmm_csr`]) instead — that is the profiled fast path
//! for genuinely sparse operators.
//!
//! ## Determinism
//!
//! A dense kernel has no thread count: it never spawns and never reads
//! `FEDGTA_THREADS`, and every output element has one fixed accumulation
//! order — so its bits cannot depend on how many workers the *caller*
//! (a client-parallel round, evaluation, the Eq. 6/7 server rows) runs it
//! from. The *fixed order itself* differs from the pre-blocking kernels
//! (lane-split dot products, no zero-skip), which may shift floats against
//! old baselines.
//!
//! A straightforward scalar reference implementation is retained in
//! [`naive`] for property tests and as the "before" baseline of the kernel
//! microbenchmarks.

use crate::tensor::{MatView, Matrix};

/// Records `2·m·k·n` into the `kernel.matmul.flops` counter (all dense
/// kernel shapes reduce to one multiply-add per `(i,kk,j)` triple). The
/// handle is cached in a `OnceLock`, so the armed path is one lock-free
/// load plus one relaxed `fetch_add`; the disarmed path is a single
/// relaxed level load. Never allocates after the first armed call.
#[inline]
fn record_matmul_flops(m: usize, k: usize, n: usize) {
    if !fedgta_obs::metrics_on() {
        return;
    }
    fedgta_obs::counter!("kernel.matmul.flops").add(2 * (m as u64) * (k as u64) * (n as u64));
}

/// Column-block width shared by the auto-vectorized blocked kernels: 16
/// `f32` lanes, which LLVM emits as 256-bit vectors even where the CPU has
/// 512-bit ones. The per-element accumulation expression is
/// width-independent, so this constant can be retuned without changing
/// results bit-for-bit.
const COL_BLOCK: usize = 16;
/// Number of k/i-steps fused per blocked iteration.
const K_BLOCK: usize = 4;
/// Accumulator lanes for the dot-product kernel.
const LANES: usize = 8;

/// `out[j] += a0·b0[j] + a1·b1[j] + a2·b2[j] + a3·b3[j]` over the full row,
/// in `COL_BLOCK`-wide chunks (`chunks_exact` elides bounds checks so LLVM
/// vectorizes both the blocks and the remainder).
#[inline(always)]
fn axpy4(out: &mut [f32], a: [f32; K_BLOCK], b0: &[f32], b1: &[f32], b2: &[f32], b3: &[f32]) {
    let mut oc = out.chunks_exact_mut(COL_BLOCK);
    let bc = b0
        .chunks_exact(COL_BLOCK)
        .zip(b1.chunks_exact(COL_BLOCK))
        .zip(b2.chunks_exact(COL_BLOCK).zip(b3.chunks_exact(COL_BLOCK)));
    for (o, ((x0, x1), (x2, x3))) in (&mut oc).zip(bc) {
        for l in 0..COL_BLOCK {
            o[l] = o[l] + a[0] * x0[l] + a[1] * x1[l] + a[2] * x2[l] + a[3] * x3[l];
        }
    }
    let rem = oc.into_remainder();
    let j0 = b0.len() - rem.len();
    for (j, o) in rem.iter_mut().enumerate() {
        let j = j0 + j;
        *o = *o + a[0] * b0[j] + a[1] * b1[j] + a[2] * b2[j] + a[3] * b3[j];
    }
}

/// Single-step tail of [`axpy4`]: `out[j] += a · b[j]`.
#[inline(always)]
fn axpy1(out: &mut [f32], a: f32, b: &[f32]) {
    for (o, &bv) in out.iter_mut().zip(b) {
        *o += a * bv;
    }
}

/// Rows per register tile of the multi-row GEMM micro-kernel.
const ROW_BLOCK: usize = 8;
/// Columns per portable register tile ([`tile_into`]): 8 rows × 16
/// columns of `C` stay resident in registers across the entire `k` loop.
/// LLVM vectorizes it for the build's ISA, which under `target-cpu=native`
/// on an AVX-512 Xeon is still two 256-bit vectors per row: it prefers
/// 256-bit code there. Like [`COL_BLOCK`], the tile shape is retunable
/// without changing results: per-element accumulation order is
/// width-independent.
const TILE_COLS: usize = 16;

/// Columns per AVX-512 register tile ([`avx512_tile`]): two 512-bit
/// vectors per row, so an 8 × 32 block of `C` is 16 `zmm` accumulators.
#[cfg(target_arch = "x86_64")]
const WIDE_COLS: usize = 32;

/// Which register tile runs a band's full column blocks. The CPU picks it,
/// once per kernel call ([`Tile::host`]); both tiles give the same bits.
#[derive(Clone, Copy, Debug)]
enum Tile {
    /// [`tile_into`]'s 8 × 16, vectorized for whatever the build targets.
    Portable,
    /// [`avx512_tile`]'s 8 × 32 over every full 32-column block, then the
    /// portable tile for a remaining 16-column block.
    #[cfg(target_arch = "x86_64")]
    Avx512(Avx512F),
}

/// Proof that the CPU runs AVX-512F: only [`Tile::host`] makes one, after
/// `is_x86_feature_detected!` said so.
#[cfg(target_arch = "x86_64")]
#[derive(Clone, Copy, Debug)]
struct Avx512F(());

impl Tile {
    /// The widest tile this CPU runs.
    fn host() -> Self {
        #[cfg(target_arch = "x86_64")]
        if std::arch::is_x86_feature_detected!("avx512f") {
            return Tile::Avx512(Avx512F(()));
        }
        Tile::Portable
    }
}

/// The register tile the dense kernels run on this CPU: `avx512-8x32` or
/// `portable-8x16`. Kernel timings are only comparable under one tile.
pub fn gemm_tile() -> &'static str {
    match Tile::host() {
        Tile::Portable => "portable-8x16",
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512(_) => "avx512-8x32",
    }
}

/// The register tile itself: `out[r·n + j + l] += Σ_kk arows[r][kk] ·
/// b[kk·stride + off + l]` for the `ROW_BLOCK` rows and the first `w ≤
/// TILE_COLS` lanes, with the whole `8×16` accumulator block held in
/// registers across the `k` loop. Every `B` block read is `TILE_COLS`
/// wide: lanes `w..` accumulate against whatever `b` holds there (the next
/// row's first columns, or a padded copy's zeros) and are never stored.
/// Accumulation per element is strict increasing-`k` order.
#[allow(clippy::too_many_arguments)]
#[inline(always)]
fn tile_into(
    out: &mut [f32],
    n: usize,
    j: usize,
    w: usize,
    arows: &[&[f32]; ROW_BLOCK],
    b: &[f32],
    stride: usize,
    off: usize,
) {
    let mut acc = [[0f32; TILE_COLS]; ROW_BLOCK];
    for (r, a) in acc.iter_mut().enumerate() {
        a[..w].copy_from_slice(&out[r * n + j..r * n + j + w]);
    }
    for kk in 0..arows[0].len() {
        let b = &b[kk * stride + off..kk * stride + off + TILE_COLS];
        for (r, a) in acc.iter_mut().enumerate() {
            let av = arows[r][kk];
            for l in 0..TILE_COLS {
                a[l] += av * b[l];
            }
        }
    }
    for (r, a) in acc.iter().enumerate() {
        out[r * n + j..r * n + j + w].copy_from_slice(&a[..w]);
    }
}

/// A [`ROW_BLOCK`]-row band of `C = A·B` at once, over its full
/// [`TILE_COLS`]-wide column blocks: an outer-product micro-kernel holding
/// an `8×16` register tile of `C` across the whole `k` loop
/// ([`tile_into`]), so every loaded `B` block serves eight output rows (8×
/// less `B` traffic than a row-at-a-time axpy) and each output element is
/// read and written exactly once. The `n % TILE_COLS` column tail is
/// [`ColumnTail`]'s.
///
/// `out` is the band of contiguous output rows (length `ROW_BLOCK·n`),
/// pre-initialized (zeros, or the bias for the fused epilogue).
/// Accumulation per element is strict increasing-`k` order — the same
/// left-to-right chain of binary adds as [`gemm_row`], so the two paths
/// agree bit-for-bit and the `rows % ROW_BLOCK` tail can fall back to the
/// single-row kernel.
///
/// Under [`Tile::Avx512`] the full 32-column blocks run [`avx512_tile`]
/// first; a 16-column block left after them runs the portable tile. Each
/// element's chain is the same either way.
///
/// `#[inline(always)]`: forward and weight-gradient callers share this
/// body, and left out of line it loses a third of the forward rate (see
/// the module header).
#[inline(always)]
fn gemm_rows_tile(out: &mut [f32], arows: &[&[f32]; ROW_BLOCK], bd: &[f32], n: usize, tile: Tile) {
    debug_assert_eq!(out.len(), ROW_BLOCK * n);
    let nb = n / TILE_COLS * TILE_COLS;
    let mut j = match tile {
        Tile::Portable => 0,
        #[cfg(target_arch = "x86_64")]
        Tile::Avx512(cpu) => {
            let wb = n / WIDE_COLS * WIDE_COLS;
            if wb > 0 {
                avx512_tile(cpu, out, arows, bd, n, wb);
            }
            wb
        }
    };
    while j < nb {
        tile_into(out, n, j, TILE_COLS, arows, bd, n, j);
        j += TILE_COLS;
    }
}

/// The AVX-512 register tile: `out[r·n + j] += Σ_kk arows[r][kk] ·
/// bd[kk·n + j]` for the `ROW_BLOCK` rows and columns `0..wb`, one 8 × 32
/// block of `C` at a time, held in 16 `zmm` accumulators across the whole
/// `k` loop. Each step is `_mm512_mul_ps` then `_mm512_add_ps`, never a
/// fused multiply-add, in strict increasing-`k` order: every element sees
/// [`tile_into`]'s chain of IEEE operations, so the bits are the portable
/// tile's.
///
/// The only `unsafe` in the crate. The asserts below are the bounds its
/// inner loop relies on; the [`Avx512F`] token is the CPU check.
#[cfg(target_arch = "x86_64")]
#[allow(unsafe_code)]
fn avx512_tile(
    _cpu: Avx512F,
    out: &mut [f32],
    arows: &[&[f32]; ROW_BLOCK],
    bd: &[f32],
    n: usize,
    wb: usize,
) {
    use std::arch::x86_64::{
        __m512, _mm512_add_ps, _mm512_loadu_ps, _mm512_mul_ps, _mm512_set1_ps, _mm512_setzero_ps,
        _mm512_storeu_ps,
    };

    /// # Safety
    ///
    /// The CPU must run AVX-512F. `out` must hold `ROW_BLOCK` rows of
    /// stride `n`, `bd` `k` rows of stride `n` and each `a[r]` `k` floats;
    /// `wb ≤ n` must be a multiple of [`WIDE_COLS`].
    #[target_feature(enable = "avx512f")]
    unsafe fn band(
        out: *mut f32,
        a: [*const f32; ROW_BLOCK],
        bd: *const f32,
        k: usize,
        n: usize,
        wb: usize,
    ) {
        for j in (0..wb).step_by(WIDE_COLS) {
            let mut acc = [[_mm512_setzero_ps(); 2]; ROW_BLOCK];
            for (r, acc) in acc.iter_mut().enumerate() {
                // SAFETY: columns `j..j + 32 ≤ wb ≤ n` of row `r` of `out`.
                *acc = unsafe {
                    let o = out.add(r * n + j);
                    [_mm512_loadu_ps(o), _mm512_loadu_ps(o.add(16))]
                };
            }
            for kk in 0..k {
                // SAFETY: columns `j..j + 32 ≤ n` of row `kk < k` of `bd`.
                let (b0, b1): (__m512, __m512) = unsafe {
                    let b = bd.add(kk * n + j);
                    (_mm512_loadu_ps(b), _mm512_loadu_ps(b.add(16)))
                };
                for (acc, &ar) in acc.iter_mut().zip(&a) {
                    // SAFETY: `kk < k`, the length of every `a[r]`.
                    let av = _mm512_set1_ps(unsafe { *ar.add(kk) });
                    acc[0] = _mm512_add_ps(acc[0], _mm512_mul_ps(av, b0));
                    acc[1] = _mm512_add_ps(acc[1], _mm512_mul_ps(av, b1));
                }
            }
            for (r, acc) in acc.iter().enumerate() {
                // SAFETY: the same `out` columns the loads above read.
                unsafe {
                    let o = out.add(r * n + j);
                    _mm512_storeu_ps(o, acc[0]);
                    _mm512_storeu_ps(o.add(16), acc[1]);
                }
            }
        }
    }

    let k = arows[0].len();
    assert!(wb.is_multiple_of(WIDE_COLS) && wb <= n, "avx512 tile: {wb} of {n} columns");
    // `checked_mul`: a wrapped product would let a short slice through.
    assert_eq!(Some(out.len()), ROW_BLOCK.checked_mul(n), "avx512 tile: output band size");
    assert!(arows.iter().all(|a| a.len() == k), "avx512 tile: ragged A rows");
    assert!(
        k.checked_mul(n).is_some_and(|kn| bd.len() >= kn),
        "avx512 tile: B has fewer than {k} rows"
    );
    let a = std::array::from_fn(|r| arows[r].as_ptr());
    // SAFETY: `_cpu` exists only where AVX-512F was detected, and the four
    // asserts above are `band`'s bounds.
    unsafe { band(out.as_mut_ptr(), a, bd.as_ptr(), k, n, wb) }
}

/// The `n % TILE_COLS` column tail of `B` (`rows × n`), run through the
/// register tile. The tile reads 16 lanes from column `j0` of a `B` row;
/// lanes past `n` are the next row's first columns, computed and never
/// stored. Only the last rows, where that read would run past `B`, are read
/// from a zero-padded copy of their tail columns, packed once per call.
/// Each stored element sees the same strict increasing-`k` chain as the
/// scalar tail loop this replaces, so the bits are that loop's.
struct ColumnTail {
    /// First tail column.
    j0: usize,
    /// Rows `0..direct` are read from `B` in place.
    direct: usize,
    /// Rows `direct..`, `TILE_COLS` wide and zero-padded. A row is read in
    /// place when `row·n + j0 + 16 ≤ rows·n`, which fails for at most
    /// `⌈16 / n⌉ ≤ 16` rows.
    pad: [f32; TILE_COLS * TILE_COLS],
}

impl ColumnTail {
    /// `None` when `n` is a whole number of tiles.
    fn new(bd: &[f32], rows: usize, n: usize) -> Option<Self> {
        let j0 = n / TILE_COLS * TILE_COLS;
        if j0 == n {
            return None;
        }
        let direct = match (rows * n).checked_sub(j0 + TILE_COLS) {
            Some(room) => (room / n + 1).min(rows),
            None => 0,
        };
        let mut pad = [0f32; TILE_COLS * TILE_COLS];
        for (row, dst) in (direct..rows).zip(pad.chunks_exact_mut(TILE_COLS)) {
            dst[..n - j0].copy_from_slice(&bd[row * n + j0..(row + 1) * n]);
        }
        Some(Self { j0, direct, pad })
    }

    /// Adds `arows · B[r0..r0 + len, j0..n]` into the tail columns of the
    /// `ROW_BLOCK`-row `band`, for `len = arows[i].len()`: the rows before
    /// `direct` in place, the rest from the padded copy.
    #[inline(always)]
    fn run(&self, band: &mut [f32], n: usize, arows: &[&[f32]; ROW_BLOCK], bd: &[f32], r0: usize) {
        let (j0, w, len) = (self.j0, n - self.j0, arows[0].len());
        let split = self.direct.saturating_sub(r0).min(len);
        if split > 0 {
            let head: [&[f32]; ROW_BLOCK] = std::array::from_fn(|i| &arows[i][..split]);
            tile_into(band, n, j0, w, &head, &bd[r0 * n..], n, j0);
        }
        if split < len {
            let rest: [&[f32]; ROW_BLOCK] = std::array::from_fn(|i| &arows[i][split..]);
            let pad = &self.pad[(r0 + split - self.direct) * TILE_COLS..];
            tile_into(band, n, j0, w, &rest, pad, TILE_COLS, 0);
        }
    }
}

/// Runs the multi-row micro-kernel over the `m` pre-initialized rows of
/// `out` (`out.len() == m * n`) — full column blocks, then the column tail
/// ([`ColumnTail`]) — falling back to [`gemm_row`] for the
/// `m % ROW_BLOCK` tail. Bit-identical to calling [`gemm_row`] on every
/// row.
#[inline]
fn gemm_band(out: &mut [f32], m: usize, ad: &[f32], k: usize, bd: &[f32], n: usize, tile: Tile) {
    let rb = m / ROW_BLOCK * ROW_BLOCK;
    let tail = if rb > 0 { ColumnTail::new(bd, k, n) } else { None };
    let mut r = 0;
    while r < rb {
        let arows: [&[f32]; ROW_BLOCK] = std::array::from_fn(|i| &ad[(r + i) * k..(r + i + 1) * k]);
        let band = &mut out[r * n..(r + ROW_BLOCK) * n];
        gemm_rows_tile(band, &arows, bd, n, tile);
        if let Some(tail) = &tail {
            tail.run(band, n, &arows, bd, 0);
        }
        r += ROW_BLOCK;
    }
    while r < m {
        gemm_row(&mut out[r * n..(r + 1) * n], &ad[r * k..(r + 1) * k], bd, n);
        r += 1;
    }
}

/// One output row of `C = A·B`: `out += arow · B`, k-blocked by 4.
///
/// `out` must be pre-initialized (zero, or the bias for the fused
/// epilogue); accumulation order over `k` is fixed.
#[inline]
fn gemm_row(out: &mut [f32], arow: &[f32], bd: &[f32], n: usize) {
    let k = arow.len();
    let kb = k / K_BLOCK * K_BLOCK;
    let mut kk = 0;
    while kk < kb {
        let a = [arow[kk], arow[kk + 1], arow[kk + 2], arow[kk + 3]];
        let b0 = &bd[kk * n..(kk + 1) * n];
        let b1 = &bd[(kk + 1) * n..(kk + 2) * n];
        let b2 = &bd[(kk + 2) * n..(kk + 3) * n];
        let b3 = &bd[(kk + 3) * n..(kk + 4) * n];
        axpy4(out, a, b0, b1, b2, b3);
        kk += K_BLOCK;
    }
    while kk < k {
        axpy1(out, arow[kk], &bd[kk * n..(kk + 1) * n]);
        kk += 1;
    }
}

/// Lane-split dot product: 8 independent partial sums over
/// `chunks_exact(8)`, reduced pairwise, plus a scalar tail. The fixed
/// reduction tree keeps results deterministic while giving the CPU eight
/// concurrent FMA chains.
#[inline(always)]
fn dot_lanes(a: &[f32], b: &[f32]) -> f32 {
    let mut lanes = [0f32; LANES];
    let mut ac = a.chunks_exact(LANES);
    let mut bc = b.chunks_exact(LANES);
    for (x, y) in (&mut ac).zip(&mut bc) {
        for l in 0..LANES {
            lanes[l] += x[l] * y[l];
        }
    }
    let mut tail = 0f32;
    for (&x, &y) in ac.remainder().iter().zip(bc.remainder()) {
        tail += x * y;
    }
    let front = (lanes[0] + lanes[1]) + (lanes[2] + lanes[3]);
    let back = (lanes[4] + lanes[5]) + (lanes[6] + lanes[7]);
    (front + back) + tail
}

/// `C = A · B` with `A: m×k`, `B: k×n`, written into `out` (`m·n`,
/// fully overwritten). Allocation-free. Counts `kernel.matmul.flops` when
/// metrics are armed, then delegates to [`matmul_into_raw`].
pub fn matmul_into(a: MatView<'_>, b: MatView<'_>, out: &mut [f32]) {
    record_matmul_flops(a.rows(), a.cols(), b.cols());
    matmul_into_raw(a, b, out);
}

/// The uninstrumented [`matmul_into`] body — public so the kernel
/// microbenchmark can price the observability hook against it.
#[doc(hidden)]
pub fn matmul_into_raw(a: MatView<'_>, b: MatView<'_>, out: &mut [f32]) {
    dense_into(Tile::host(), a, b, None, out);
}

/// Fused hidden-layer epilogue: `out = relu(A·B + bias)` (`bias` is
/// broadcast over rows). The output row is seeded with the bias,
/// accumulated, then rectified while still hot.
pub fn matmul_bias_relu_into(a: MatView<'_>, b: MatView<'_>, bias: &[f32], out: &mut [f32]) {
    matmul_bias_into(a, b, bias, out);
    for v in out.iter_mut() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Linear-layer epilogue without activation: `out = A·B + bias`.
pub fn matmul_bias_into(a: MatView<'_>, b: MatView<'_>, bias: &[f32], out: &mut [f32]) {
    record_matmul_flops(a.rows(), a.cols(), b.cols());
    dense_into(Tile::host(), a, b, Some(bias), out);
}

/// `out = A·B`, or `A·B + bias` with the bias broadcast over rows, on
/// `tile`: every output row is seeded (zeros or the bias) and accumulated
/// by [`gemm_band`].
fn dense_into(tile: Tile, a: MatView<'_>, b: MatView<'_>, bias: Option<&[f32]>, out: &mut [f32]) {
    assert_eq!(a.cols(), b.rows(), "matmul inner dim mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(out.len(), m * n, "matmul output size mismatch");
    match bias {
        Some(bias) => {
            assert_eq!(bias.len(), n, "bias length mismatch");
            for orow in out.chunks_exact_mut(n) {
                orow.copy_from_slice(bias);
            }
        }
        None => out.fill(0.0),
    }
    gemm_band(out, m, a.as_slice(), k, b.as_slice(), n, tile);
}

/// Outer-dimension (`i`) steps per transpose-packed `A` panel in
/// [`matmul_tn_into`]: `ROW_BLOCK × TN_PANEL` floats (8 KiB) of stack.
/// Retunable without changing results — accumulation stays strict
/// increasing-`i` across panels.
const TN_PANEL: usize = 256;

/// `C = Aᵀ · B` with `A: m×k`, `B: m×n`, written into `out` (`k·n`,
/// fully overwritten). Allocation-free.
///
/// This is the weight-gradient kernel (`dW = Xᵀ · dY`); `out` may alias a
/// sub-slice of a flat gradient buffer, which is exactly how
/// [`crate::mlp::Mlp::backward_ws`] uses it. A band of [`ROW_BLOCK`]
/// output rows is `(8 × m panel of Aᵀ)·B`: 8 columns of `A` are
/// transpose-packed into a stack panel, [`TN_PANEL`] outer steps at a
/// time, and fed to the forward micro-kernel ([`gemm_rows_tile`], or
/// [`gemm_row`] per row of a short last band). Both accumulate onto
/// `out`, so accumulation per element is strict increasing-`i` order
/// whatever the panel length or band split.
pub fn matmul_tn_into(a: MatView<'_>, b: MatView<'_>, out: &mut [f32]) {
    record_matmul_flops(a.rows(), a.cols(), b.cols());
    tn_into(Tile::host(), a, b, out);
}

/// [`matmul_tn_into`]'s body, on `tile`.
fn tn_into(tile: Tile, a: MatView<'_>, b: MatView<'_>, out: &mut [f32]) {
    assert_eq!(a.rows(), b.rows(), "matmul_tn outer dim mismatch");
    let (m, k) = a.shape();
    let n = b.cols();
    assert_eq!(out.len(), k * n, "matmul_tn output size mismatch");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    out.fill(0.0);
    let mut panel = [[0f32; TN_PANEL]; ROW_BLOCK];
    let tail = if k >= ROW_BLOCK { ColumnTail::new(bd, m, n) } else { None };
    // Panels outermost: `B` and `A` stream through once, and the
    // `TN_PANEL × n` block of `B` stays cached across every band.
    for i0 in (0..m).step_by(TN_PANEL) {
        let len = TN_PANEL.min(m - i0);
        let bblk = &bd[i0 * n..(i0 + len) * n];
        let mut r = 0;
        while r < k {
            let rows = ROW_BLOCK.min(k - r);
            for ii in 0..len {
                let ablk = &ad[(i0 + ii) * k + r..][..rows];
                for (prow, &av) in panel.iter_mut().zip(ablk) {
                    prow[ii] = av;
                }
            }
            let band = &mut out[r * n..(r + rows) * n];
            if rows == ROW_BLOCK {
                let arows: [&[f32]; ROW_BLOCK] = std::array::from_fn(|rr| &panel[rr][..len]);
                gemm_rows_tile(band, &arows, bblk, n, tile);
                if let Some(tail) = &tail {
                    tail.run(band, n, &arows, bd, i0);
                }
            } else {
                for (rr, prow) in panel.iter().enumerate().take(rows) {
                    gemm_row(&mut band[rr * n..(rr + 1) * n], &prow[..len], bblk, n);
                }
            }
            r += rows;
        }
    }
}

/// `C = A · Bᵀ` with `A: m×k`, `B: n×k`, written into `out` (`m·n`,
/// fully overwritten). Allocation-free.
///
/// This is the input-gradient kernel (`dX = dY · Wᵀ`): each output element
/// is a dot product of two contiguous rows, computed with the lane-split
/// accumulator of [`dot_lanes`].
pub fn matmul_nt_into(a: MatView<'_>, b: MatView<'_>, out: &mut [f32]) {
    record_matmul_flops(a.rows(), a.cols(), b.rows());
    assert_eq!(a.cols(), b.cols(), "matmul_nt inner dim mismatch");
    let (m, k) = a.shape();
    let n = b.rows();
    assert_eq!(out.len(), m * n, "matmul_nt output size mismatch");
    let (ad, bd) = (a.as_slice(), b.as_slice());
    let first = if k < LANES { matmul_nt_short_into(ad, m, k, bd, n, out) } else { 0 };
    nt_dot_rows(ad, k, bd, n, first..m, out);
}

/// Rows `rows` of `C = A·Bᵀ` into `out` (all of `C`), one [`dot_lanes`]
/// product per element. Out of line: inlined after `matmul_nt_into`'s
/// `k < LANES` test, the `k ≥ 8` it implies made the compiler build a dot
/// product 3–4× slower.
#[inline(never)]
fn nt_dot_rows(
    ad: &[f32],
    k: usize,
    bd: &[f32],
    n: usize,
    rows: std::ops::Range<usize>,
    out: &mut [f32],
) {
    for row in rows {
        let arow = &ad[row * k..(row + 1) * k];
        let orow = &mut out[row * n..(row + 1) * n];
        for (j, o) in orow.iter_mut().enumerate() {
            *o = dot_lanes(arow, &bd[j * k..(j + 1) * k]);
        }
    }
}

/// [`matmul_nt_into`] with `k < LANES` inner steps (a 7-class layer's
/// input gradient). Every product is then `dot_lanes`' tail: its lanes
/// stay +0.0 and sum to +0.0, and `+0.0 + t` is `t` for the tail sum `t`
/// (which starts at +0.0, so it is never −0.0). The tail sum is the
/// register tile's strict increasing-`k` chain from a zeroed `out`, so
/// whole bands run the tile on `Bᵀ`, packed and zero-padded per
/// [`NT_COLS`] output columns. Returns the rows done: the `m % ROW_BLOCK`
/// left are [`nt_dot_rows`]'.
fn matmul_nt_short_into(
    ad: &[f32],
    m: usize,
    k: usize,
    bd: &[f32],
    n: usize,
    out: &mut [f32],
) -> usize {
    let rb = m / ROW_BLOCK * ROW_BLOCK;
    out[..rb * n].fill(0.0);
    let mut bt = [0f32; LANES * NT_COLS];
    for c0 in (0..n).step_by(NT_COLS) {
        let cols = NT_COLS.min(n - c0);
        let stride = cols.div_ceil(TILE_COLS) * TILE_COLS;
        for kk in 0..k {
            let dst = &mut bt[kk * stride..(kk + 1) * stride];
            for (jj, d) in dst.iter_mut().enumerate() {
                *d = if jj < cols { bd[(c0 + jj) * k + kk] } else { 0.0 };
            }
        }
        for r in (0..rb).step_by(ROW_BLOCK) {
            let arows: [&[f32]; ROW_BLOCK] =
                std::array::from_fn(|i| &ad[(r + i) * k..(r + i + 1) * k]);
            let band = &mut out[r * n..(r + ROW_BLOCK) * n];
            for jb in (0..cols).step_by(TILE_COLS) {
                let w = TILE_COLS.min(cols - jb);
                tile_into(band, n, c0 + jb, w, &arows, &bt, stride, jb);
            }
        }
    }
    rb
}

/// Output columns per packed `Bᵀ` block of [`matmul_nt_into`]'s short-`k`
/// path: `LANES × NT_COLS` floats (2 KiB) of stack.
const NT_COLS: usize = 64;

/// `C = A · B` into a fresh matrix (allocating wrapper of [`matmul_into`]).
pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.cols());
    matmul_into(a.view(), b.view(), c.as_mut_slice());
    c
}

/// `C = Aᵀ · B` into a fresh matrix (allocating wrapper of
/// [`matmul_tn_into`]).
pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.cols(), b.cols());
    matmul_tn_into(a.view(), b.view(), c.as_mut_slice());
    c
}

/// `C = A · Bᵀ` into a fresh matrix (allocating wrapper of
/// [`matmul_nt_into`]).
pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.rows(), b.rows());
    matmul_nt_into(a.view(), b.view(), c.as_mut_slice());
    c
}

/// Adds a row-broadcast bias: `X[i,·] += bias`.
pub fn add_bias(x: &mut Matrix, bias: &[f32]) {
    assert_eq!(x.cols(), bias.len(), "bias length mismatch");
    for i in 0..x.rows() {
        for (v, &b) in x.row_mut(i).iter_mut().zip(bias) {
            *v += b;
        }
    }
}

/// Column sums into a caller-provided buffer (`out.len() == x.cols()`,
/// fully overwritten). The bias gradient: `db = Σ_i dY[i,·]`.
pub fn col_sums_into(x: &Matrix, out: &mut [f32]) {
    assert_eq!(out.len(), x.cols(), "col_sums output size mismatch");
    out.fill(0.0);
    for i in 0..x.rows() {
        for (o, &v) in out.iter_mut().zip(x.row(i)) {
            *o += v;
        }
    }
}

/// In-place ReLU; returns nothing, the mask is recoverable from the output
/// (`y > 0`).
pub fn relu_inplace(x: &mut Matrix) {
    for v in x.as_mut_slice() {
        if *v < 0.0 {
            *v = 0.0;
        }
    }
}

/// Backward through ReLU: zeroes `grad` wherever the forward output was 0.
pub fn relu_backward_inplace(grad: &mut Matrix, forward_out: &Matrix) {
    assert_eq!(grad.shape(), forward_out.shape());
    for (g, &y) in grad.as_mut_slice().iter_mut().zip(forward_out.as_slice()) {
        if y <= 0.0 {
            *g = 0.0;
        }
    }
}

/// Row-wise softmax into a new matrix (numerically stable).
pub fn softmax_rows(x: &Matrix) -> Matrix {
    let mut out = x.clone();
    softmax_rows_inplace(&mut out);
    out
}

/// `eˣ` for one `x ≤ 0` (see [`exp_nonpos_inplace`]).
///
/// Cephes `expf`: `n = round(x·log₂e)`, `r = x − n·ln 2` in two steps
/// (Cody–Waite, `n·LN2_HI` is exact), a degree-5 polynomial for
/// `(e^r − 1 − r)/r²`, then `· 2ⁿ`. `n` is rounded by adding
/// `MAGIC = 1.5·2²³`, which leaves the integer in the low mantissa bits of
/// `t`: shifting them into the exponent field builds `2ⁿ` with no
/// float→int conversion. Inputs are clamped at −88 (`n = −127`, whose
/// exponent field is 0, i.e. a scale of `+0`); the band `n = −126` with
/// a polynomial below 1 would be subnormal and is flushed by the final
/// select. Every comparison is false on NaN, so NaN passes through.
#[inline(always)]
fn exp_nonpos(x: f32) -> f32 {
    const LOG2E: f32 = std::f32::consts::LOG2_E;
    const MAGIC: f32 = 12_582_912.0;
    const LN2_HI: f32 = 355.0 / 512.0;
    const LN2_LO: f32 = -2.121_944_4e-4;
    const P: [f32; 6] =
        [1.987_569_1e-4, 1.398_199_9e-3, 8.333_452e-3, 4.166_579_6e-2, 1.666_666_6e-1, 0.5];
    let xc = if x < -88.0 { -88.0 } else { x };
    let t = xc * LOG2E + MAGIC;
    let n = t - MAGIC;
    let r = xc - n * LN2_HI - n * LN2_LO;
    let p = ((((P[0] * r + P[1]) * r + P[2]) * r + P[3]) * r + P[4]) * r + P[5];
    let y = p * (r * r) + r + 1.0;
    let scale = f32::from_bits((t.to_bits() << 23).wrapping_add(0x3f80_0000));
    let e = y * scale;
    if e < f32::MIN_POSITIVE {
        0.0
    } else {
        e
    }
}

/// Elementwise `x ← eˣ` for **non-positive** `x` — the softmax numerator
/// after the row maximum is subtracted — without calling libm.
///
/// Written in plain `*`/`+` (no `mul_add`), so the result bits do not
/// depend on the host's FMA support or libc; within 1 ulp of the
/// correctly rounded `f32` result wherever that result is normal
/// (`x ≥ −87.336 54`). Results below [`f32::MIN_POSITIVE`] flush to `+0`
/// (`−∞` included), `±0 ↦ 1`, NaN propagates. Positive inputs are outside
/// the contract. The body is branch-free, so the loop vectorizes; vector
/// lanes and the scalar remainder execute the same IEEE operations and
/// agree bit for bit.
pub fn exp_nonpos_inplace(xs: &mut [f32]) {
    for x in xs.iter_mut() {
        *x = exp_nonpos(*x);
    }
}

/// Rows per [`softmax_block`] call: 64 rows of logits stay in L1 across
/// the three passes, and a full block's flat length is a multiple of any
/// vector width, so only the matrix's last block has a scalar remainder.
pub(crate) const SOFTMAX_ROWS: usize = 64;

/// The largest non-NaN entry of `row` (`−∞` if there is none). Full
/// [`LANES`]-wide chunks go through independent compare-selects, so the
/// chain is not one `maxss` latency per element; the remainder is a
/// scalar chain. A maximum does not depend on the order it is taken in,
/// and `v > m` is false on NaN, so this is `f32::max` folded over the row
/// — up to the sign of a zero, which cannot reach the softmax: `x − (±0)`
/// differs only for `x = ±0`, and `e^{±0} = 1`.
#[inline(always)]
fn row_max(row: &[f32]) -> f32 {
    let mut m = [f32::NEG_INFINITY; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for c in &mut chunks {
        for l in 0..LANES {
            if c[l] > m[l] {
                m[l] = c[l];
            }
        }
    }
    let mut max = f32::NEG_INFINITY;
    for &v in &m {
        if v > max {
            max = v;
        }
    }
    for &v in chunks.remainder() {
        if v > max {
            max = v;
        }
    }
    max
}

/// Softmax of every `cols`-wide row of the flat `block`, in three passes:
/// subtract the row maximum, exponentiate the block as one flat slice (an
/// elementwise pass needs no row boundaries), then the row sum in column
/// order and the scale.
pub(crate) fn softmax_block(block: &mut [f32], cols: usize) {
    for row in block.chunks_exact_mut(cols) {
        let max = row_max(row);
        for v in row.iter_mut() {
            *v -= max;
        }
    }
    exp_nonpos_inplace(block);
    for row in block.chunks_exact_mut(cols) {
        let mut sum = 0f32;
        for &v in row.iter() {
            sum += v;
        }
        let inv = 1.0 / sum;
        for v in row.iter_mut() {
            *v *= inv;
        }
    }
}

/// Row-wise softmax in place (numerically stable, libm-free: see
/// [`exp_nonpos_inplace`]). A row that is all `−∞`, or contains `+∞` or
/// NaN, comes out all NaN.
pub fn softmax_rows_inplace(x: &mut Matrix) {
    let cols = x.cols();
    if cols == 0 {
        return;
    }
    for block in x.as_mut_slice().chunks_mut(SOFTMAX_ROWS * cols) {
        softmax_block(block, cols);
    }
}

/// Records `2·members·plen` into the `aggregate.axpy_flops` counter (one
/// multiply-add per member per parameter). Same caching discipline as
/// [`record_matmul_flops`]: `OnceLock` handle, relaxed adds, nothing on
/// the disarmed path but one level load.
#[inline]
fn record_aggregate_axpy_flops(members: usize, plen: usize) {
    if !fedgta_obs::metrics_on() {
        return;
    }
    fedgta_obs::counter!("aggregate.axpy_flops").add(2 * (members as u64) * (plen as u64));
}

/// Blocked weighted row sum — the server's one aggregation kernel, one
/// row of `P′ = W·P`: `out[j] = Σ_m weights[m] · params[members[m]][j]`,
/// accumulated in `f64` and rounded once, overwriting `out` (no zero-fill
/// pass, no per-call `vec![0f64; plen]`). With a `divisor` `d` the store is
/// `(acc / d) as f32` instead of `acc as f32`: FedAvg's `Σw·p / Σw` divides
/// once, after the sum, while Eq. 7's weights arrive normalised.
///
/// The parameter axis is processed in [`COL_BLOCK`]-wide register
/// accumulators while the member list streams past — the dense-GEMM
/// blocking applied to the aggregation axpy. Each output element still
/// sees its additions in **member order**, so the result is bit-identical
/// to the scalar member-outer loop
/// (`for m { for j { agg[j] += w·p } }` with `f64` accumulators) that it
/// replaces, for any block width.
///
/// Every `params[members[m]]` row must have at least `out.len()` elements.
/// Records the `aggregate.axpy_flops` counter when metrics are armed.
pub fn weighted_sum_rows_into(
    params: &[&[f32]],
    members: &[usize],
    weights: &[f32],
    divisor: Option<f64>,
    out: &mut [f32],
) {
    assert_eq!(members.len(), weights.len(), "one weight per member");
    record_aggregate_axpy_flops(members.len(), out.len());
    // One monomorphized loop per store rule: no branch per element.
    match divisor {
        Some(d) => sum_rows_into(params, members, weights, out, |acc| (acc / d) as f32),
        None => sum_rows_into(params, members, weights, out, |acc| acc as f32),
    }
}

#[inline(always)]
fn sum_rows_into(
    params: &[&[f32]],
    members: &[usize],
    weights: &[f32],
    out: &mut [f32],
    store: impl Fn(f64) -> f32,
) {
    let plen = out.len();
    let full = plen / COL_BLOCK * COL_BLOCK;
    let mut jb = 0usize;
    while jb < full {
        let mut acc = [0f64; COL_BLOCK];
        for (&m, &w) in members.iter().zip(weights) {
            let src = &params[m][jb..jb + COL_BLOCK];
            let wd = w as f64;
            for l in 0..COL_BLOCK {
                acc[l] += wd * src[l] as f64;
            }
        }
        for l in 0..COL_BLOCK {
            out[jb + l] = store(acc[l]);
        }
        jb += COL_BLOCK;
    }
    if jb < plen {
        let w = plen - jb;
        let mut acc = [0f64; COL_BLOCK];
        for (&m, &wt) in members.iter().zip(weights) {
            let src = &params[m][jb..plen];
            let wd = wt as f64;
            for l in 0..w {
                acc[l] += wd * src[l] as f64;
            }
        }
        for (l, a) in acc.iter().enumerate().take(w) {
            out[jb + l] = store(*a);
        }
    }
    // Zero members leaves the register accumulators at 0.0, which the
    // store loops above have already written (divided, when a divisor is
    // set) — overwrite semantics hold even for an empty member set.
}

/// Sparse-dense product wrapper: `Y = A · X` for a CSR adjacency.
///
/// The output has `a.num_nodes()` rows (not `x.rows()` — the seed version
/// silently assumed a square product); the dense operand must have exactly
/// one row per adjacency node.
pub fn spmm_csr(a: &fedgta_graph::Csr, x: &Matrix) -> Matrix {
    let mut y = Matrix::zeros(a.num_nodes(), x.cols());
    spmm_csr_into(a, x, &mut y);
    y
}

/// Allocation-free [`spmm_csr`]: `Y = A · X` into a caller-provided matrix
/// of shape `(a.num_nodes(), x.cols())`.
pub fn spmm_csr_into(a: &fedgta_graph::Csr, x: &Matrix, y: &mut Matrix) {
    assert_eq!(
        x.rows(),
        a.num_nodes(),
        "spmm_csr: dense operand must have one row per adjacency node"
    );
    assert_eq!(y.shape(), (a.num_nodes(), x.cols()), "spmm_csr: output shape mismatch");
    fedgta_graph::spmm::spmm_into(a, x.as_slice(), x.cols(), y.as_mut_slice());
}

/// Scalar reference kernels — the seed implementations, retained verbatim
/// (branchy zero-skip and all) as the ground truth for property tests and
/// the "naive" baseline of the kernel microbenchmark suite. Not used on
/// any hot path.
pub mod naive {
    use crate::tensor::Matrix;

    /// Reference `C = A · B` (i-k-j ordering, zero-skip branch).
    pub fn matmul(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.rows(), "matmul inner dim mismatch");
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(m, n);
        let (ad, bd) = (a.as_slice(), b.as_slice());
        for row in 0..m {
            let arow = &ad[row * k..(row + 1) * k];
            for (kk, &av) in arow.iter().enumerate() {
                if av == 0.0 {
                    continue;
                }
                let brow = &bd[kk * n..(kk + 1) * n];
                let out = &mut c.as_mut_slice()[row * n..(row + 1) * n];
                for (o, &bv) in out.iter_mut().zip(brow) {
                    *o += av * bv;
                }
            }
        }
        c
    }

    /// Reference `C = Aᵀ · B`.
    pub fn matmul_tn(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.rows(), b.rows(), "matmul_tn outer dim mismatch");
        let (m, k) = a.shape();
        let n = b.cols();
        let mut c = Matrix::zeros(k, n);
        for i in 0..m {
            for kk in 0..k {
                let av = a.get(i, kk);
                if av == 0.0 {
                    continue;
                }
                for j in 0..n {
                    let v = c.get(kk, j) + av * b.get(i, j);
                    c.set(kk, j, v);
                }
            }
        }
        c
    }

    /// Reference `C = A · Bᵀ` (sequential single-accumulator dot).
    pub fn matmul_nt(a: &Matrix, b: &Matrix) -> Matrix {
        assert_eq!(a.cols(), b.cols(), "matmul_nt inner dim mismatch");
        let (m, k) = a.shape();
        let n = b.rows();
        let mut c = Matrix::zeros(m, n);
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0f32;
                for kk in 0..k {
                    acc += a.get(i, kk) * b.get(j, kk);
                }
                c.set(i, j, acc);
            }
        }
        c
    }

    /// Reference `Y = A · X` for CSR `A` (row-major dense `x`).
    pub fn spmm(a: &fedgta_graph::Csr, x: &[f32], cols: usize) -> Vec<f32> {
        let n = a.num_nodes();
        assert_eq!(x.len(), n * cols, "spmm operand size mismatch");
        let mut y = vec![0f32; n * cols];
        for row in 0..n {
            let out = &mut y[row * cols..(row + 1) * cols];
            let u = row as u32;
            let neigh = a.neighbors(u);
            match a.neighbor_weights(u) {
                Some(ws) => {
                    for (&v, &w) in neigh.iter().zip(ws) {
                        let src = &x[v as usize * cols..(v as usize + 1) * cols];
                        for (o, &s) in out.iter_mut().zip(src) {
                            *o += w * s;
                        }
                    }
                }
                None => {
                    for &v in neigh {
                        let src = &x[v as usize * cols..(v as usize + 1) * cols];
                        for (o, &s) in out.iter_mut().zip(src) {
                            *o += s;
                        }
                    }
                }
            }
        }
        y
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The kernels as they were before column tails and short dot
    /// products ran through the register tile: a scalar column tail per
    /// band and a lane-split dot product per element. The oracle the
    /// tiled paths must match bit for bit.
    mod oracle {
        use super::super::{dot_lanes, gemm_row, ROW_BLOCK, TILE_COLS, TN_PANEL};

        fn rows_tile(out: &mut [f32], arows: &[&[f32]; ROW_BLOCK], bd: &[f32], n: usize) {
            let k = arows[0].len();
            let nb = n / TILE_COLS * TILE_COLS;
            let mut j = 0;
            while j < nb {
                let mut acc = [[0f32; TILE_COLS]; ROW_BLOCK];
                for (r, a) in acc.iter_mut().enumerate() {
                    a.copy_from_slice(&out[r * n + j..r * n + j + TILE_COLS]);
                }
                for kk in 0..k {
                    let b = &bd[kk * n + j..kk * n + j + TILE_COLS];
                    for (r, a) in acc.iter_mut().enumerate() {
                        let av = arows[r][kk];
                        for l in 0..TILE_COLS {
                            a[l] += av * b[l];
                        }
                    }
                }
                for (r, a) in acc.iter().enumerate() {
                    out[r * n + j..r * n + j + TILE_COLS].copy_from_slice(a);
                }
                j += TILE_COLS;
            }
            // Column tail: scalar per column, same strict k order.
            while j < n {
                let mut s = [0f32; ROW_BLOCK];
                for (r, sv) in s.iter_mut().enumerate() {
                    *sv = out[r * n + j];
                }
                for kk in 0..k {
                    let bv = bd[kk * n + j];
                    for (r, sv) in s.iter_mut().enumerate() {
                        *sv += arows[r][kk] * bv;
                    }
                }
                for (r, &sv) in s.iter().enumerate() {
                    out[r * n + j] = sv;
                }
                j += 1;
            }
        }

        /// `out += A·B` over pre-initialized rows.
        pub fn band(out: &mut [f32], m: usize, ad: &[f32], k: usize, bd: &[f32], n: usize) {
            let rb = m / ROW_BLOCK * ROW_BLOCK;
            let mut r = 0;
            while r < rb {
                let arows: [&[f32]; ROW_BLOCK] =
                    std::array::from_fn(|i| &ad[(r + i) * k..(r + i + 1) * k]);
                rows_tile(&mut out[r * n..(r + ROW_BLOCK) * n], &arows, bd, n);
                r += ROW_BLOCK;
            }
            while r < m {
                gemm_row(&mut out[r * n..(r + 1) * n], &ad[r * k..(r + 1) * k], bd, n);
                r += 1;
            }
        }

        /// `Aᵀ·B` (`A: m×k`, `B: m×n`).
        pub fn tn(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize) -> Vec<f32> {
            let mut out = vec![0f32; k * n];
            let mut panel = [[0f32; TN_PANEL]; ROW_BLOCK];
            for i0 in (0..m).step_by(TN_PANEL) {
                let len = TN_PANEL.min(m - i0);
                let bblk = &bd[i0 * n..(i0 + len) * n];
                let mut r = 0;
                while r < k {
                    let rows = ROW_BLOCK.min(k - r);
                    for ii in 0..len {
                        let ablk = &ad[(i0 + ii) * k + r..][..rows];
                        for (prow, &av) in panel.iter_mut().zip(ablk) {
                            prow[ii] = av;
                        }
                    }
                    let band = &mut out[r * n..(r + rows) * n];
                    if rows == ROW_BLOCK {
                        let arows: [&[f32]; ROW_BLOCK] =
                            std::array::from_fn(|rr| &panel[rr][..len]);
                        rows_tile(band, &arows, bblk, n);
                    } else {
                        for (rr, prow) in panel.iter().enumerate().take(rows) {
                            gemm_row(&mut band[rr * n..(rr + 1) * n], &prow[..len], bblk, n);
                        }
                    }
                    r += rows;
                }
            }
            out
        }

        /// `A·Bᵀ` (`A: m×k`, `B: n×k`), one lane-split dot per element.
        pub fn nt(ad: &[f32], m: usize, k: usize, bd: &[f32], n: usize) -> Vec<f32> {
            let mut out = vec![0f32; m * n];
            for row in 0..m {
                for j in 0..n {
                    out[row * n + j] =
                        dot_lanes(&ad[row * k..(row + 1) * k], &bd[j * k..(j + 1) * k]);
                }
            }
            out
        }
    }

    /// Result bits, every NaN as the one canonical NaN: which NaN payload
    /// an add of two NaNs keeps is not fixed by Rust's float semantics
    /// (the compiler may commute the operands), so a NaN only has to stay
    /// a NaN. Every other value compares bit for bit, signed zeros and
    /// infinities included.
    fn bits(v: &[f32]) -> Vec<u32> {
        v.iter().map(|x| if x.is_nan() { f32::NAN.to_bits() } else { x.to_bits() }).collect()
    }

    /// Raw bit patterns from a seeded stream: ordinary values mostly, with
    /// NaN payloads of both signs, ±∞, ±0 and subnormals mixed in.
    fn hostile(len: usize, seed: u64) -> Vec<f32> {
        let mut x = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
        (0..len)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                match x % 151 {
                    0 => f32::from_bits(0x7fc0_0000 | (x >> 40) as u32 & 0xff),
                    1 => f32::from_bits(0xffc0_0001),
                    2 => f32::INFINITY,
                    3 => f32::NEG_INFINITY,
                    4..=14 => 0.0,
                    15..=25 => -0.0,
                    26..=30 => f32::from_bits((x >> 41) as u32 & 0x007f_ffff),
                    _ => ((x >> 40) as f32 / (1u64 << 23) as f32 - 1.0) * 3.0,
                }
            })
            .collect()
    }

    fn finite(len: usize, seed: u64) -> Vec<f32> {
        hostile(len, seed).into_iter().map(|v| if v.is_finite() { v } else { 0.5 }).collect()
    }

    /// `init[j] + Σ_kk a[i·k + kk] · b[kk·n + j]` for every `(i, j)`, one
    /// scalar chain per element in strict increasing-`kk` order: the
    /// contract of both register tiles. It is [`naive::matmul`] without
    /// its zero-skip, which on hostile inputs would drop `0·∞` and `0·NaN`.
    fn chain(init: &[f32], a: &[f32], m: usize, k: usize, b: &[f32], n: usize) -> Vec<f32> {
        let mut out = Vec::with_capacity(m * n);
        for i in 0..m {
            for (j, &c0) in init.iter().enumerate() {
                out.push((0..k).fold(c0, |c, kk| c + a[i * k + kk] * b[kk * n + j]));
            }
        }
        out
    }

    /// Both tiles, bit for bit against [`chain`]: the portable one through
    /// the kernels' private bodies, the host's (AVX-512 where the CPU has
    /// it) through them and through the public entry points. Widths on both
    /// sides of every 16- and 32-column block, `k` from empty to an
    /// `arxiv_sign_128c` input layer, row counts with and without a tail.
    #[test]
    fn both_register_tiles_equal_the_scalar_chain_bit_for_bit() {
        for n in [1, 7, 15, 16, 17, 31, 32, 33, 40, 48, 64, 65, 128] {
            for k in [0, 1, 7, 768] {
                for m in [8, 21] {
                    for gen in [finite, hostile] {
                        let seed = (n * 10_000 + k * 10 + m) as u64;
                        let (a, b, b2) =
                            (gen(m * k, seed), gen(k * n, seed + 1), gen(m * n, seed + 2));
                        let bias = gen(n, seed + 3);
                        let at: Vec<f32> = (0..k * m).map(|x| a[(x % m) * k + x / m]).collect();
                        let zero = vec![0f32; n];
                        let want = chain(&zero, &a, m, k, &b, n);
                        let want_bias = chain(&bias, &a, m, k, &b, n);
                        let want_relu: Vec<f32> =
                            want_bias.iter().map(|&v| if v < 0.0 { 0.0 } else { v }).collect();
                        let want_tn = chain(&zero, &at, k, m, &b2, n);
                        let (av, bv, b2v) = (
                            MatView::new(m, k, &a),
                            MatView::new(k, n, &b),
                            MatView::new(m, n, &b2),
                        );
                        let what = format!("{m}x{k}x{n}");
                        let mut got = vec![f32::NAN; m * n];
                        let mut got_tn = vec![f32::NAN; k * n];
                        for tile in [Tile::Portable, Tile::host()] {
                            dense_into(tile, av, bv, None, &mut got);
                            assert_eq!(bits(&got), bits(&want), "{tile:?} matmul {what}");
                            dense_into(tile, av, bv, Some(&bias), &mut got);
                            assert_eq!(bits(&got), bits(&want_bias), "{tile:?} matmul_bias {what}");
                            tn_into(tile, av, b2v, &mut got_tn);
                            assert_eq!(bits(&got_tn), bits(&want_tn), "{tile:?} matmul_tn {what}");
                        }
                        matmul_into(av, bv, &mut got);
                        assert_eq!(bits(&got), bits(&want), "matmul_into {what}");
                        matmul_bias_into(av, bv, &bias, &mut got);
                        assert_eq!(bits(&got), bits(&want_bias), "matmul_bias_into {what}");
                        matmul_bias_relu_into(av, bv, &bias, &mut got);
                        assert_eq!(bits(&got), bits(&want_relu), "matmul_bias_relu_into {what}");
                        matmul_tn_into(av, b2v, &mut got_tn);
                        assert_eq!(bits(&got_tn), bits(&want_tn), "matmul_tn_into {what}");
                    }
                }
            }
        }
    }

    /// Column tails of every width, `k` across the tail panel's boundary,
    /// row counts with and without a row tail.
    const TAIL_SHAPES: &[(usize, usize, usize)] = &[
        (8, 1, 1),
        (16, 32, 7),
        (270, 32, 7),
        (187, 128, 40),
        (9, 255, 3),
        (24, 256, 15),
        (17, 257, 17),
        (8, 513, 33),
        (3, 20, 5),
        (40, 0, 9),
    ];

    #[test]
    fn tiled_column_tails_equal_the_scalar_tail_bit_for_bit() {
        for (seed, &(m, k, n)) in TAIL_SHAPES.iter().enumerate() {
            for gen in [finite, hostile] {
                let (a, b) = (gen(m * k, 2 * seed as u64 + 1), gen(k * n, 2 * seed as u64 + 2));
                let bias = gen(n, seed as u64 + 99);
                let mut want = vec![0f32; m * n];
                oracle::band(&mut want, m, &a, k, &b, n);
                let mut got = vec![f32::NAN; m * n];
                matmul_into(MatView::new(m, k, &a), MatView::new(k, n, &b), &mut got);
                assert_eq!(bits(&got), bits(&want), "matmul {m}x{k}x{n}");
                let mut want: Vec<f32> = (0..m).flat_map(|_| bias.iter().copied()).collect();
                oracle::band(&mut want, m, &a, k, &b, n);
                matmul_bias_into(MatView::new(m, k, &a), MatView::new(k, n, &b), &bias, &mut got);
                assert_eq!(bits(&got), bits(&want), "matmul_bias {m}x{k}x{n}");
                for v in want.iter_mut() {
                    if *v < 0.0 {
                        *v = 0.0;
                    }
                }
                matmul_bias_relu_into(
                    MatView::new(m, k, &a),
                    MatView::new(k, n, &b),
                    &bias,
                    &mut got,
                );
                assert_eq!(bits(&got), bits(&want), "matmul_bias_relu {m}x{k}x{n}");
                // Aᵀ·B with A: m×k and B: m×n.
                let b2 = gen(m * n, seed as u64 + 7);
                let mut got = vec![f32::NAN; k * n];
                matmul_tn_into(MatView::new(m, k, &a), MatView::new(m, n, &b2), &mut got);
                assert_eq!(
                    bits(&got),
                    bits(&oracle::tn(&a, m, k, &b2, n)),
                    "matmul_tn {m}x{k}x{n}"
                );
            }
        }
    }

    #[test]
    fn short_dot_products_through_the_tile_equal_dot_lanes_bit_for_bit() {
        for k in 0..=9 {
            for &(m, n) in &[(8, 7), (270, 32), (19, 300), (1, 5), (16, 16), (23, 513)] {
                for gen in [finite, hostile] {
                    let (a, b) = (gen(m * k, (k * 31 + m) as u64), gen(n * k, (k * 17 + n) as u64));
                    let mut got = vec![f32::NAN; m * n];
                    matmul_nt_into(MatView::new(m, k, &a), MatView::new(n, k, &b), &mut got);
                    assert_eq!(
                        bits(&got),
                        bits(&oracle::nt(&a, m, k, &b, n)),
                        "matmul_nt {m}x{k}x{n}"
                    );
                }
            }
        }
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        #[test]
        fn tiled_kernels_equal_their_oracles_on_random_shapes(
            m in 0usize..40, k in 0usize..300, n in 0usize..50, seed in 0u64..1_000_000,
        ) {
            let (a, b) = (hostile(m * k, seed), hostile(k * n, seed + 1));
            let mut want = vec![0f32; m * n];
            oracle::band(&mut want, m, &a, k, &b, n);
            let mut got = vec![f32::NAN; m * n];
            matmul_into(MatView::new(m, k, &a), MatView::new(k, n, &b), &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&want));
            let b2 = hostile(m * n, seed + 2);
            let mut got = vec![f32::NAN; k * n];
            matmul_tn_into(MatView::new(m, k, &a), MatView::new(m, n, &b2), &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&oracle::tn(&a, m, k, &b2, n)));
            let ks = k % 9;
            let (a3, b3) = (hostile(m * ks, seed + 3), hostile(n * ks, seed + 4));
            let mut got = vec![f32::NAN; m * n];
            matmul_nt_into(MatView::new(m, ks, &a3), MatView::new(n, ks, &b3), &mut got);
            proptest::prop_assert_eq!(bits(&got), bits(&oracle::nt(&a3, m, ks, &b3, n)));
        }
    }

    fn assert_close(a: &Matrix, b: &Matrix) {
        assert_eq!(a.shape(), b.shape());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert!((x - y).abs() < 1e-4, "{x} vs {y}");
        }
    }

    fn gen(r: usize, c: usize, seed: u64) -> Matrix {
        Matrix::from_vec(
            r,
            c,
            (0..r * c)
                .map(|i| {
                    (((i as u64).wrapping_mul(2654435761).wrapping_add(seed) % 97) as f32 / 48.5)
                        - 1.0
                })
                .collect(),
        )
    }

    #[test]
    fn weighted_sum_rows_matches_scalar_reference_bitwise() {
        // Reference: the member-outer scalar loop with f64 accumulation
        // that personalized_aggregate used before the blocked kernel.
        for &plen in &[1usize, 7, 16, 17, 33, 130] {
            let rows: Vec<Matrix> = (0..5).map(|s| gen(1, plen, s as u64 * 11 + 1)).collect();
            let params: Vec<&[f32]> = rows.iter().map(|m| m.as_slice()).collect();
            let members = [3usize, 0, 4, 2];
            let weights = [0.37f32, 0.11, 0.42, 0.10];
            let mut agg = vec![0f64; plen];
            for (&m, &w) in members.iter().zip(&weights) {
                for (o, &p) in agg.iter_mut().zip(params[m]) {
                    *o += w as f64 * p as f64;
                }
            }
            // A divisor divides the f64 sum once, before the one rounding.
            for divisor in [None, Some(3.0f64)] {
                let want: Vec<f32> =
                    agg.iter().map(|&v| (v / divisor.unwrap_or(1.0)) as f32).collect();
                let mut got = vec![9f32; plen]; // garbage: must be overwritten
                weighted_sum_rows_into(&params, &members, &weights, divisor, &mut got);
                for (a, b) in got.iter().zip(&want) {
                    assert_eq!(a.to_bits(), b.to_bits(), "plen={plen}, divisor {divisor:?}");
                }
            }
        }
    }

    #[test]
    fn weighted_sum_rows_empty_members_zeroes_out() {
        let mut out = vec![5f32; 20];
        weighted_sum_rows_into(&[], &[], &[], None, &mut out);
        assert!(out.iter().all(|&v| v == 0.0));
    }

    #[test]
    fn matmul_small_known() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0, 6.0], &[7.0, 8.0]]);
        let c = matmul(&a, &b);
        assert_eq!(c.as_slice(), &[19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn blocked_kernels_match_naive_at_awkward_shapes() {
        // Shapes deliberately not multiples of the 4×4 block.
        for &(m, k, n) in &[(1, 1, 1), (3, 5, 7), (7, 9, 5), (4, 4, 4), (5, 13, 6), (2, 17, 3)] {
            let a = gen(m, k, 1);
            let b = gen(k, n, 2);
            assert_close(&matmul(&a, &b), &naive::matmul(&a, &b));
            let a2 = gen(m, k, 3);
            let b2 = gen(m, n, 4);
            assert_close(&matmul_tn(&a2, &b2), &naive::matmul_tn(&a2, &b2));
            let a3 = gen(m, k, 5);
            let b3 = gen(n, k, 6);
            assert_close(&matmul_nt(&a3, &b3), &naive::matmul_nt(&a3, &b3));
        }
    }

    #[test]
    fn blocked_kernels_handle_zeros_without_the_skip_branch() {
        // The seed kernels special-cased av == 0.0; the blocked kernels
        // must produce the same values (up to zero signs) without it.
        let mut a = gen(5, 9, 7);
        for (i, v) in a.as_mut_slice().iter_mut().enumerate() {
            if i % 3 == 0 {
                *v = 0.0;
            }
        }
        let b = gen(9, 6, 8);
        assert_close(&matmul(&a, &b), &naive::matmul(&a, &b));
        let b2 = gen(5, 6, 9);
        assert_close(&matmul_tn(&a, &b2), &naive::matmul_tn(&a, &b2));
    }

    #[test]
    fn into_variants_match_wrappers_and_overwrite_garbage() {
        let a = gen(6, 10, 11);
        let b = gen(10, 7, 12);
        let mut out = vec![f32::NAN; 6 * 7];
        matmul_into(a.view(), b.view(), &mut out);
        assert_eq!(out, matmul(&a, &b).into_vec());

        let bt = gen(6, 7, 13);
        let mut out_tn = vec![f32::NAN; 10 * 7];
        matmul_tn_into(a.view(), bt.view(), &mut out_tn);
        assert_eq!(out_tn, matmul_tn(&a, &bt).into_vec());

        let bn = gen(7, 10, 14);
        let mut out_nt = vec![f32::NAN; 6 * 7];
        matmul_nt_into(a.view(), bn.view(), &mut out_nt);
        assert_eq!(out_nt, matmul_nt(&a, &bn).into_vec());
    }

    #[test]
    fn fused_epilogue_matches_unfused_pipeline() {
        let a = gen(5, 6, 21);
        let b = gen(6, 9, 22);
        let bias: Vec<f32> = (0..9).map(|i| (i as f32 - 4.0) * 0.3).collect();
        let mut fused = vec![0f32; 5 * 9];
        matmul_bias_relu_into(a.view(), b.view(), &bias, &mut fused);
        let mut unfused = matmul(&a, &b);
        add_bias(&mut unfused, &bias);
        relu_inplace(&mut unfused);
        for (x, y) in fused.iter().zip(unfused.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
        assert!(fused.iter().all(|&v| v >= 0.0));

        let mut linear = vec![0f32; 5 * 9];
        matmul_bias_into(a.view(), b.view(), &bias, &mut linear);
        let mut expect = matmul(&a, &b);
        add_bias(&mut expect, &bias);
        for (x, y) in linear.iter().zip(expect.as_slice()) {
            assert!((x - y).abs() < 1e-5, "{x} vs {y}");
        }
    }

    #[test]
    fn transpose_variants_agree_with_explicit_transpose() {
        // Random-ish deterministic matrices.
        let a = Matrix::from_vec(4, 3, (0..12).map(|i| (i as f32 * 0.7).sin()).collect());
        let b = Matrix::from_vec(4, 5, (0..20).map(|i| (i as f32 * 0.3).cos()).collect());
        // Aᵀ·B via explicit transpose.
        let mut at = Matrix::zeros(3, 4);
        for i in 0..4 {
            for j in 0..3 {
                at.set(j, i, a.get(i, j));
            }
        }
        assert_close(&matmul_tn(&a, &b), &matmul(&at, &b));

        let c = Matrix::from_vec(5, 3, (0..15).map(|i| (i as f32 * 0.9).sin()).collect());
        let mut ct = Matrix::zeros(3, 5);
        for i in 0..5 {
            for j in 0..3 {
                ct.set(j, i, c.get(i, j));
            }
        }
        // A·Cᵀ  (A: 4×3, C: 5×3)
        assert_close(&matmul_nt(&a, &c), &matmul(&a, &ct));
    }

    #[test]
    fn bias_and_col_sums_are_adjoint() {
        let mut x = Matrix::zeros(3, 2);
        add_bias(&mut x, &[1.0, -2.0]);
        assert_eq!(x.row(2), &[1.0, -2.0]);
        let mut sums = [7.0; 2];
        col_sums_into(&x, &mut sums);
        assert_eq!(sums, [3.0, -6.0]);
    }

    #[test]
    fn relu_forward_backward() {
        let mut x = Matrix::from_rows(&[&[-1.0, 2.0], &[0.0, -3.0]]);
        relu_inplace(&mut x);
        assert_eq!(x.as_slice(), &[0.0, 2.0, 0.0, 0.0]);
        let mut g = Matrix::from_rows(&[&[5.0, 5.0], &[5.0, 5.0]]);
        relu_backward_inplace(&mut g, &x);
        assert_eq!(g.as_slice(), &[0.0, 5.0, 0.0, 0.0]);
    }

    #[test]
    fn softmax_rows_sum_to_one_and_order_preserved() {
        let x = Matrix::from_rows(&[&[1.0, 2.0, 3.0], &[1000.0, 1001.0, 999.0]]);
        let s = softmax_rows(&x);
        for i in 0..2 {
            let sum: f32 = s.row(i).iter().sum();
            assert!((sum - 1.0).abs() < 1e-5);
        }
        assert!(s.get(0, 2) > s.get(0, 1));
        assert!(s.get(1, 1) > s.get(1, 0)); // stable at large magnitudes
    }

    #[test]
    fn spmm_csr_matches_dense() {
        use fedgta_graph::EdgeList;
        let mut el = EdgeList::new(3);
        el.push_undirected(0, 1).unwrap();
        el.push_undirected(1, 2).unwrap();
        let g = el.to_csr();
        let x = Matrix::from_rows(&[&[1.0], &[2.0], &[4.0]]);
        let y = spmm_csr(&g, &x);
        assert_eq!(y.shape(), (g.num_nodes(), 1));
        assert_eq!(y.as_slice(), &[2.0, 5.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "one row per adjacency node")]
    fn spmm_csr_rejects_row_mismatch() {
        use fedgta_graph::EdgeList;
        let g = EdgeList::new(3).to_csr();
        let x = Matrix::zeros(4, 2); // 4 rows vs 3 nodes: must not be silently accepted
        spmm_csr(&g, &x);
    }
}
