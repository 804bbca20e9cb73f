//! Row-major `f32` dense matrices and borrowed views.

/// A dense row-major `f32` matrix.
///
/// Deliberately minimal: the NN stack needs construction, row access, and a
/// few elementwise combinators; heavy lifting lives in [`crate::ops`].
#[derive(Debug, Clone, PartialEq)]
pub struct Matrix {
    rows: usize,
    cols: usize,
    data: Vec<f32>,
}

/// A borrowed row-major matrix view (`rows × cols` over a `&[f32]`).
///
/// The compute kernels in [`crate::ops`] take `MatView` operands so callers
/// can feed sub-slices of flat parameter buffers (e.g. one layer's weight
/// block inside [`crate::mlp::Mlp`]'s packed storage) without materializing
/// an owning [`Matrix`] — one of the allocation sources the `_into` kernel
/// family exists to eliminate.
#[derive(Debug, Clone, Copy)]
pub struct MatView<'a> {
    rows: usize,
    cols: usize,
    data: &'a [f32],
}

impl<'a> MatView<'a> {
    /// Wraps a slice (`data.len()` must equal `rows * cols`).
    #[inline]
    pub fn new(rows: usize, cols: usize, data: &'a [f32]) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix view size mismatch");
        Self { rows, cols, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &'a [f32] {
        self.data
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &'a [f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }
}

impl<'a> From<&'a Matrix> for MatView<'a> {
    fn from(m: &'a Matrix) -> Self {
        m.view()
    }
}

impl Default for Matrix {
    /// The empty `0 × 0` matrix ([`Matrix::empty`]).
    fn default() -> Self {
        Matrix::empty()
    }
}

impl Matrix {
    /// A `rows × cols` matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Self { rows, cols, data: vec![0.0; rows * cols] }
    }

    /// Wraps an existing buffer (`data.len()` must equal `rows * cols`).
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f32>) -> Self {
        assert_eq!(data.len(), rows * cols, "matrix buffer size mismatch");
        Self { rows, cols, data }
    }

    /// Builds from a row-of-rows literal (for tests).
    pub fn from_rows(rows: &[&[f32]]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |x| x.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "ragged rows");
            data.extend_from_slice(row);
        }
        Self { rows: r, cols: c, data }
    }

    /// Number of rows.
    #[inline]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// Shape as `(rows, cols)`.
    #[inline]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// The underlying row-major buffer.
    #[inline]
    pub fn as_slice(&self) -> &[f32] {
        &self.data
    }

    /// Mutable access to the underlying buffer.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f32] {
        &mut self.data
    }

    /// Consumes self, returning the buffer.
    pub fn into_vec(self) -> Vec<f32> {
        self.data
    }

    /// The empty `0 × 0` matrix (no allocation) — the natural seed for
    /// buffers grown later via [`Matrix::resize_to`].
    pub fn empty() -> Self {
        Matrix { rows: 0, cols: 0, data: Vec::new() }
    }

    /// Reshapes in place to `rows × cols`, reusing the existing buffer
    /// (no allocation once capacity suffices). Contents are unspecified
    /// afterwards — callers overwrite every element.
    pub fn resize_to(&mut self, rows: usize, cols: usize) {
        self.data.resize(rows * cols, 0.0);
        self.rows = rows;
        self.cols = cols;
    }

    /// Elements the buffer holds without reallocating: what a retained
    /// matrix keeps resident whatever its current shape.
    pub fn capacity(&self) -> usize {
        self.data.capacity()
    }

    /// Row `i` as a slice.
    #[inline]
    pub fn row(&self, i: usize) -> &[f32] {
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Row `i` as a mutable slice.
    #[inline]
    pub fn row_mut(&mut self, i: usize) -> &mut [f32] {
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Element accessor.
    #[inline]
    pub fn get(&self, i: usize, j: usize) -> f32 {
        self.data[i * self.cols + j]
    }

    /// Element setter.
    #[inline]
    pub fn set(&mut self, i: usize, j: usize, v: f32) {
        self.data[i * self.cols + j] = v;
    }

    /// A borrowed view of the whole matrix.
    #[inline]
    pub fn view(&self) -> MatView<'_> {
        MatView { rows: self.rows, cols: self.cols, data: &self.data }
    }

    /// Copies `other`'s contents into `self` (shapes must match).
    pub fn copy_from(&mut self, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "copy_from shape mismatch");
        self.data.copy_from_slice(&other.data);
    }

    /// Gathers the given rows into a new matrix (used for mini-batching).
    pub fn gather_rows(&self, idx: &[u32]) -> Matrix {
        let mut out = Matrix::zeros(idx.len(), self.cols);
        self.gather_rows_into(idx, &mut out);
        out
    }

    /// Gathers the given rows into a caller-provided matrix
    /// (`out.shape() == (idx.len(), self.cols)`); the allocation-free
    /// mini-batch path.
    pub fn gather_rows_into(&self, idx: &[u32], out: &mut Matrix) {
        assert_eq!(out.shape(), (idx.len(), self.cols), "gather_rows_into shape mismatch");
        for (o, &i) in idx.iter().enumerate() {
            out.row_mut(o).copy_from_slice(self.row(i as usize));
        }
    }

    /// Horizontal concatenation `[self ‖ other]` (same row count).
    pub fn hcat(&self, other: &Matrix) -> Matrix {
        let mut out = Matrix::zeros(self.rows, self.cols + other.cols);
        self.hcat_into(other, &mut out);
        out
    }

    /// [`Self::hcat`] into a caller-provided `rows × (cols + other.cols)`
    /// matrix.
    pub fn hcat_into(&self, other: &Matrix, out: &mut Matrix) {
        assert_eq!(self.rows, other.rows, "hcat row mismatch");
        assert_eq!(out.shape(), (self.rows, self.cols + other.cols), "hcat_into shape mismatch");
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(other.row(i));
        }
    }

    /// Splits columns into caller-provided matrices at `left.cols()`:
    /// `left` gets the first `left.cols()` columns, `right` the rest.
    pub fn hsplit_into(&self, left: &mut Matrix, right: &mut Matrix) {
        let at = left.cols;
        assert_eq!(left.shape(), (self.rows, at), "hsplit_into left shape mismatch");
        assert_eq!(right.shape(), (self.rows, self.cols - at), "hsplit_into right shape mismatch");
        for i in 0..self.rows {
            left.row_mut(i).copy_from_slice(&self.row(i)[..at]);
            right.row_mut(i).copy_from_slice(&self.row(i)[at..]);
        }
    }

    /// `self += alpha * other` (same shape).
    pub fn axpy(&mut self, alpha: f32, other: &Matrix) {
        assert_eq!(self.shape(), other.shape(), "axpy shape mismatch");
        for (a, &b) in self.data.iter_mut().zip(&other.data) {
            *a += alpha * b;
        }
    }

    /// Scales every element by `alpha`.
    pub fn scale(&mut self, alpha: f32) {
        for a in &mut self.data {
            *a *= alpha;
        }
    }

    /// Frobenius norm.
    pub fn norm(&self) -> f64 {
        self.data.iter().map(|&x| (x as f64) * (x as f64)).sum::<f64>().sqrt()
    }

    /// Index of the maximum entry of row `i` (first on ties).
    pub fn argmax_row(&self, i: usize) -> usize {
        let row = self.row(i);
        let mut best = 0usize;
        for (j, &v) in row.iter().enumerate() {
            if v > row[best] {
                best = j;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constructors_and_accessors() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        assert_eq!(m.shape(), (2, 2));
        assert_eq!(m.get(1, 0), 3.0);
        assert_eq!(m.row(0), &[1.0, 2.0]);
    }

    #[test]
    #[should_panic(expected = "matrix buffer size mismatch")]
    fn from_vec_checks_size() {
        Matrix::from_vec(2, 2, vec![1.0; 3]);
    }

    #[test]
    fn gather_rows_copies_in_order() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let g = m.gather_rows(&[2, 0]);
        assert_eq!(g.as_slice(), &[3.0, 1.0]);
    }

    #[test]
    fn hcat_and_hsplit_roundtrip() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let b = Matrix::from_rows(&[&[5.0], &[6.0]]);
        let c = a.hcat(&b);
        assert_eq!(c.row(0), &[1.0, 2.0, 5.0]);
        let (mut l, mut r) = (Matrix::zeros(2, 2), Matrix::zeros(2, 1));
        c.hsplit_into(&mut l, &mut r);
        assert_eq!(l, a);
        assert_eq!(r, b);
    }

    #[test]
    fn axpy_scale_norm() {
        let mut a = Matrix::from_rows(&[&[1.0, 0.0]]);
        let b = Matrix::from_rows(&[&[0.0, 2.0]]);
        a.axpy(0.5, &b);
        assert_eq!(a.as_slice(), &[1.0, 1.0]);
        a.scale(3.0);
        assert_eq!(a.as_slice(), &[3.0, 3.0]);
        assert!((a.norm() - (18.0f64).sqrt()).abs() < 1e-9);
    }

    #[test]
    fn view_borrows_without_copy() {
        let m = Matrix::from_rows(&[&[1.0, 2.0], &[3.0, 4.0]]);
        let v = m.view();
        assert_eq!(v.shape(), (2, 2));
        assert_eq!(v.row(1), &[3.0, 4.0]);
        assert_eq!(v.as_slice().as_ptr(), m.as_slice().as_ptr());
        let w = MatView::new(1, 4, m.as_slice());
        assert_eq!(w.row(0), m.as_slice());
    }

    #[test]
    #[should_panic(expected = "matrix view size mismatch")]
    fn view_checks_size() {
        MatView::new(2, 3, &[0.0; 5]);
    }

    #[test]
    fn gather_rows_into_reuses_buffer() {
        let m = Matrix::from_rows(&[&[1.0], &[2.0], &[3.0]]);
        let mut out = Matrix::zeros(2, 1);
        m.gather_rows_into(&[2, 1], &mut out);
        assert_eq!(out.as_slice(), &[3.0, 2.0]);
    }
}
