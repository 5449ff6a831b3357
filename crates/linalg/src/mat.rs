//! Dense row-major real matrices.
//!
//! `Mat` is the workhorse container of the suite: snapshot matrices are stored
//! with one *sensor* per row and one *time point* per column, matching the
//! paper's `P × T` convention. Storage is row-major `Vec<f64>`; every dense
//! product (`matmul`, `t_matmul`, `matmul_nt`, `matvec`, `t_matvec`) routes
//! through the blocked, register-tiled kernel layer in [`mod@crate::gemm`], which
//! packs operands, keeps an `MR × NR` accumulator tile in registers, and
//! parallelises large products over row blocks (bitwise-deterministically)
//! with scoped threads (no dependency beyond `std`).

use crate::gemm::{gemm, gemv, Trans};
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of `f64`.
#[derive(Clone, Default, PartialEq)]
pub struct Mat {
    rows: usize,
    cols: usize,
    data: Vec<f64>,
}

impl Mat {
    /// Creates a matrix of zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        Mat {
            rows,
            cols,
            data: vec![0.0; rows * cols],
        }
    }

    /// Creates the `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        let mut m = Mat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        Mat { rows, cols, data }
    }

    /// Wraps an existing row-major buffer.
    ///
    /// # Panics
    /// Panics if `data.len() != rows * cols`.
    pub fn from_vec(rows: usize, cols: usize, data: Vec<f64>) -> Self {
        assert_eq!(
            data.len(),
            rows * cols,
            "buffer length must equal rows*cols"
        );
        Mat { rows, cols, data }
    }

    /// Builds a matrix from row slices.
    ///
    /// # Panics
    /// Panics if the rows have inconsistent lengths.
    pub fn from_rows(rows: &[Vec<f64>]) -> Self {
        let r = rows.len();
        let c = rows.first().map_or(0, |row| row.len());
        let mut data = Vec::with_capacity(r * c);
        for row in rows {
            assert_eq!(row.len(), c, "all rows must have equal length");
            data.extend_from_slice(row);
        }
        Mat {
            rows: r,
            cols: c,
            data,
        }
    }

    /// Number of rows.
    #[inline(always)]
    pub fn rows(&self) -> usize {
        self.rows
    }

    /// Number of columns.
    #[inline(always)]
    pub fn cols(&self) -> usize {
        self.cols
    }

    /// `(rows, cols)`.
    #[inline(always)]
    pub fn shape(&self) -> (usize, usize) {
        (self.rows, self.cols)
    }

    /// True if the matrix has no entries.
    pub fn is_empty(&self) -> bool {
        self.rows == 0 || self.cols == 0
    }

    /// The underlying row-major buffer.
    #[inline(always)]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    #[inline(always)]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Borrows row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[f64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [f64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<f64> {
        assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrites column `j` with `v`.
    ///
    /// # Panics
    /// Panics if `v.len() != rows`.
    pub fn set_col(&mut self, j: usize, v: &[f64]) {
        assert!(j < self.cols);
        assert_eq!(v.len(), self.rows);
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Returns a new matrix containing columns `j0..j1`.
    pub fn cols_range(&self, j0: usize, j1: usize) -> Mat {
        assert!(j0 <= j1 && j1 <= self.cols);
        let w = j1 - j0;
        let mut out = Mat::zeros(self.rows, w);
        for i in 0..self.rows {
            let src = &self.row(i)[j0..j1];
            out.row_mut(i).copy_from_slice(src);
        }
        out
    }

    /// Returns a new matrix containing rows `i0..i1`.
    pub fn rows_range(&self, i0: usize, i1: usize) -> Mat {
        assert!(i0 <= i1 && i1 <= self.rows);
        Mat {
            rows: i1 - i0,
            cols: self.cols,
            data: self.data[i0 * self.cols..i1 * self.cols].to_vec(),
        }
    }

    /// Returns a new matrix with the rows selected by `idx` (in order).
    pub fn select_rows(&self, idx: &[usize]) -> Mat {
        let mut out = Mat::zeros(idx.len(), self.cols);
        for (k, &i) in idx.iter().enumerate() {
            assert!(i < self.rows);
            out.row_mut(k).copy_from_slice(self.row(i));
        }
        out
    }

    /// Returns a new matrix keeping every `step`-th column starting at 0.
    ///
    /// This implements the multiresolution subsampling step: the mrDMD level
    /// solver decimates its window to roughly four times the Nyquist rate of
    /// the slowest modes it keeps.
    pub fn subsample_cols(&self, step: usize) -> Mat {
        assert!(step >= 1);
        if step == 1 {
            return self.clone();
        }
        let w = self.cols.div_ceil(step);
        let mut out = Mat::zeros(self.rows, w);
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (k, x) in dst.iter_mut().enumerate() {
                *x = src[k * step];
            }
        }
        out
    }

    /// Returns a new matrix keeping every `step`-th column of the range
    /// `[j0, j1)`, starting at `j0`. Equivalent to
    /// `self.cols_range(j0, j1).subsample_cols(step)` without the
    /// intermediate copy.
    pub fn subsample_cols_range(&self, j0: usize, j1: usize, step: usize) -> Mat {
        assert!(step >= 1);
        assert!(j0 <= j1 && j1 <= self.cols);
        let w = (j1 - j0).div_ceil(step);
        let mut out = Mat::zeros(self.rows, w);
        for i in 0..self.rows {
            let src = self.row(i);
            let dst = out.row_mut(i);
            for (k, x) in dst.iter_mut().enumerate() {
                *x = src[j0 + k * step];
            }
        }
        out
    }

    /// Appends the columns of `b` to the right of `self`.
    ///
    /// # Panics
    /// Panics if row counts differ.
    pub fn hstack(&self, b: &Mat) -> Mat {
        assert_eq!(self.rows, b.rows, "hstack requires equal row counts");
        let mut out = Mat::zeros(self.rows, self.cols + b.cols);
        for i in 0..self.rows {
            out.row_mut(i)[..self.cols].copy_from_slice(self.row(i));
            out.row_mut(i)[self.cols..].copy_from_slice(b.row(i));
        }
        out
    }

    /// Appends the rows of `b` below `self`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.cols, "vstack requires equal column counts");
        let mut data = Vec::with_capacity((self.rows + b.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&b.data);
        Mat {
            rows: self.rows + b.rows,
            cols: self.cols,
            data,
        }
    }

    /// Transposed copy.
    pub fn transpose(&self) -> Mat {
        let mut out = Mat::zeros(self.cols, self.rows);
        self.transpose_into(&mut out);
        out
    }

    /// Writes the transpose of `self` into `out` (which must be
    /// `cols × rows`), without allocating.
    ///
    /// # Panics
    /// Panics if `out` has the wrong shape.
    pub fn transpose_into(&self, out: &mut Mat) {
        assert_eq!(out.shape(), (self.cols, self.rows), "transpose shape");
        // Blocked transpose for cache friendliness on large matrices.
        const B: usize = 32;
        for ib in (0..self.rows).step_by(B) {
            for jb in (0..self.cols).step_by(B) {
                for i in ib..(ib + B).min(self.rows) {
                    for j in jb..(jb + B).min(self.cols) {
                        out.data[j * self.rows + i] = self.data[i * self.cols + j];
                    }
                }
            }
        }
    }

    /// Consumes the matrix, returning its backing row-major buffer (used by
    /// the scratch-workspace pool to recycle storage).
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }

    /// Matrix product `self * b`, threaded over row blocks when large.
    ///
    /// Routed through the blocked, register-tiled [`mod@crate::gemm`] kernel;
    /// bitwise-identical at any thread count.
    ///
    /// # Panics
    /// Panics if inner dimensions disagree.
    pub fn matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.rows, "matmul inner dimensions must agree");
        let mut out = Mat::zeros(self.rows, b.cols);
        gemm(1.0, self, Trans::No, b, Trans::No, 0.0, &mut out);
        out
    }

    /// `selfᵀ * b` without materialising the transpose (TN product).
    ///
    /// # Panics
    /// Panics if row counts disagree.
    pub fn t_matmul(&self, b: &Mat) -> Mat {
        assert_eq!(self.rows, b.rows, "t_matmul requires equal row counts");
        let mut out = Mat::zeros(self.cols, b.cols);
        gemm(1.0, self, Trans::Yes, b, Trans::No, 0.0, &mut out);
        out
    }

    /// `self * bᵀ` without materialising the transpose (NT product).
    ///
    /// # Panics
    /// Panics if column counts disagree.
    pub fn matmul_nt(&self, b: &Mat) -> Mat {
        assert_eq!(self.cols, b.cols, "matmul_nt requires equal column counts");
        let mut out = Mat::zeros(self.rows, b.rows);
        gemm(1.0, self, Trans::No, b, Trans::Yes, 0.0, &mut out);
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.rows];
        self.matvec_into(v, &mut out);
        out
    }

    /// Matrix–vector product `self * v` into a caller-provided buffer
    /// (no allocation — the hot-loop variant).
    ///
    /// # Panics
    /// Panics if `v` or `out` have the wrong length.
    pub fn matvec_into(&self, v: &[f64], out: &mut [f64]) {
        gemv(1.0, self, Trans::No, v, 0.0, out);
    }

    /// `selfᵀ * v` without materialising the transpose.
    pub fn t_matvec(&self, v: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.cols];
        self.t_matvec_into(v, &mut out);
        out
    }

    /// `selfᵀ * v` into a caller-provided buffer (no allocation).
    ///
    /// # Panics
    /// Panics if `v` or `out` have the wrong length.
    pub fn t_matvec_into(&self, v: &[f64], out: &mut [f64]) {
        gemv(1.0, self, Trans::Yes, v, 0.0, out);
    }

    /// Entry-wise sum `self + b`.
    pub fn add(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape());
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(&a, &b)| a + b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Entry-wise difference `self - b`.
    pub fn sub(&self, b: &Mat) -> Mat {
        assert_eq!(self.shape(), b.shape());
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(&a, &b)| a - b)
            .collect();
        Mat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|&x| x * x).sum::<f64>().sqrt()
    }

    /// Largest absolute entry.
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Frobenius norm of `self - b`; the paper's reconstruction-difference
    /// metric (Sec. V reports 3958.58 and 3423.85 for the case studies).
    pub fn fro_dist(&self, b: &Mat) -> f64 {
        assert_eq!(self.shape(), b.shape());
        self.data
            .iter()
            .zip(&b.data)
            .map(|(&a, &b)| {
                let d = a - b;
                d * d
            })
            .sum::<f64>()
            .sqrt()
    }

    /// Mean of all entries.
    pub fn mean(&self) -> f64 {
        if self.data.is_empty() {
            0.0
        } else {
            self.data.iter().sum::<f64>() / self.data.len() as f64
        }
    }
}

impl Serialize for Mat {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (self.rows, self.cols, &self.data).serialize(s)
    }
}

impl<'de> Deserialize<'de> for Mat {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (rows, cols, data) = <(usize, usize, Vec<f64>)>::deserialize(d)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(D::Error::custom(
                "matrix buffer length must equal rows*cols",
            ));
        }
        Ok(Mat { rows, cols, data })
    }
}

impl Index<(usize, usize)> for Mat {
    type Output = f64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for Mat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for Mat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Mat {}x{} [", self.rows, self.cols)?;
        let show_r = self.rows.min(6);
        let show_c = self.cols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>11.4} ", self[(i, j)])?;
            }
            if show_c < self.cols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.rows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_is_matmul_neutral() {
        let a = Mat::from_fn(3, 3, |i, j| (i * 3 + j) as f64);
        let i3 = Mat::identity(3);
        assert_eq!(a.matmul(&i3), a);
        assert_eq!(i3.matmul(&a), a);
    }

    #[test]
    fn matmul_known_product() {
        let a = Mat::from_rows(&[vec![1.0, 2.0], vec![3.0, 4.0]]);
        let b = Mat::from_rows(&[vec![5.0, 6.0], vec![7.0, 8.0]]);
        let c = a.matmul(&b);
        assert_eq!(c[(0, 0)], 19.0);
        assert_eq!(c[(0, 1)], 22.0);
        assert_eq!(c[(1, 0)], 43.0);
        assert_eq!(c[(1, 1)], 50.0);
    }

    #[test]
    fn parallel_matmul_matches_serial() {
        // Big enough to cross the kernel's flop threshold; integer-valued
        // entries keep every product exact, so the comparison is bitwise.
        let a = Mat::from_fn(150, 120, |i, j| ((i * 7 + j * 13) % 11) as f64 - 5.0);
        let b = Mat::from_fn(120, 140, |i, j| ((i * 5 + j * 3) % 9) as f64 - 4.0);
        let c = a.matmul(&b);
        let mut serial = Mat::zeros(150, 140);
        crate::gemm::gemm_threaded(
            1,
            1.0,
            &a,
            crate::gemm::Trans::No,
            &b,
            crate::gemm::Trans::No,
            0.0,
            &mut serial,
        );
        assert_eq!(c.as_slice(), serial.as_slice());
    }

    #[test]
    fn matmul_nt_matches_explicit_transpose() {
        let a = Mat::from_fn(7, 4, |i, j| (i as f64) - 2.0 * (j as f64));
        let b = Mat::from_fn(5, 4, |i, j| (i * j) as f64 * 0.5 - 1.0);
        let lhs = a.matmul_nt(&b);
        let rhs = a.matmul(&b.transpose());
        assert!(lhs.fro_dist(&rhs) < 1e-12);
    }

    #[test]
    fn t_matmul_matches_explicit_transpose() {
        let a = Mat::from_fn(7, 4, |i, j| (i as f64) - 2.0 * (j as f64));
        let b = Mat::from_fn(7, 5, |i, j| (i * j) as f64 * 0.5 - 1.0);
        let lhs = a.t_matmul(&b);
        let rhs = a.transpose().matmul(&b);
        assert!(lhs.fro_dist(&rhs) < 1e-12);
    }

    #[test]
    fn transpose_involution() {
        let a = Mat::from_fn(5, 9, |i, j| (i * 100 + j) as f64);
        assert_eq!(a.transpose().transpose(), a);
    }

    #[test]
    fn cols_range_and_hstack_roundtrip() {
        let a = Mat::from_fn(4, 6, |i, j| (i * 10 + j) as f64);
        let left = a.cols_range(0, 2);
        let right = a.cols_range(2, 6);
        assert_eq!(left.hstack(&right), a);
    }

    #[test]
    fn subsample_keeps_every_kth() {
        let a = Mat::from_fn(2, 10, |_, j| j as f64);
        let s = a.subsample_cols(3);
        assert_eq!(s.cols(), 4);
        assert_eq!(s.row(0), &[0.0, 3.0, 6.0, 9.0]);
    }

    #[test]
    fn fro_norm_hand_case() {
        let a = Mat::from_rows(&[vec![3.0, 0.0], vec![0.0, 4.0]]);
        assert!((a.fro_norm() - 5.0).abs() < 1e-15);
    }

    #[test]
    fn matvec_and_t_matvec() {
        let a = Mat::from_rows(&[vec![1.0, 2.0, 3.0], vec![4.0, 5.0, 6.0]]);
        assert_eq!(a.matvec(&[1.0, 0.0, -1.0]), vec![-2.0, -2.0]);
        assert_eq!(a.t_matvec(&[1.0, 1.0]), vec![5.0, 7.0, 9.0]);
    }

    #[test]
    fn select_rows_picks_in_order() {
        let a = Mat::from_fn(4, 2, |i, _| i as f64);
        let s = a.select_rows(&[3, 1]);
        assert_eq!(s.row(0), &[3.0, 3.0]);
        assert_eq!(s.row(1), &[1.0, 1.0]);
    }

    #[test]
    fn vstack_stacks_rows() {
        let a = Mat::from_rows(&[vec![1.0, 2.0]]);
        let b = Mat::from_rows(&[vec![3.0, 4.0], vec![5.0, 6.0]]);
        let v = a.vstack(&b);
        assert_eq!(v.shape(), (3, 2));
        assert_eq!(v.row(2), &[5.0, 6.0]);
        assert_eq!(v.rows_range(0, 1), a);
    }

    #[test]
    #[should_panic(expected = "equal column counts")]
    fn vstack_rejects_mismatched_cols() {
        let _ = Mat::zeros(1, 2).vstack(&Mat::zeros(1, 3));
    }

    #[test]
    fn subsample_cols_range_matches_two_step() {
        let a = Mat::from_fn(3, 20, |i, j| (i * 100 + j) as f64);
        let direct = a.subsample_cols_range(4, 17, 3);
        let two_step = a.cols_range(4, 17).subsample_cols(3);
        assert_eq!(direct, two_step);
        assert_eq!(direct.row(0), &[4.0, 7.0, 10.0, 13.0, 16.0]);
    }

    #[test]
    fn serde_roundtrip_preserves_matrix() {
        let a = Mat::from_fn(3, 4, |i, j| i as f64 - 0.5 * j as f64);
        let json = serde_json::to_string(&a).unwrap();
        let back: Mat = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
        // Corrupt length is rejected.
        assert!(serde_json::from_str::<Mat>("[2,2,[1.0,2.0,3.0]]").is_err());
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn matmul_dimension_mismatch_panics() {
        let a = Mat::zeros(2, 3);
        let b = Mat::zeros(4, 2);
        let _ = a.matmul(&b);
    }
}
