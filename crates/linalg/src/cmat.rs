//! Dense row-major complex matrices.
//!
//! DMD modes, eigenvector matrices, and time-dynamics factors are complex;
//! `CMat` provides the subset of operations the decomposition pipeline needs.
//! The layout mirrors [`crate::Mat`] (row-major) so mixed real/complex kernels
//! stream both operands contiguously.

use crate::complex::c64;
use crate::mat::Mat;
use serde::de::Error as _;
use serde::{Deserialize, Deserializer, Serialize, Serializer};
use std::fmt;
use std::ops::{Index, IndexMut};

/// A dense row-major matrix of [`c64`].
#[derive(Clone, PartialEq)]
pub struct CMat {
    rows: usize,
    cols: usize,
    data: Vec<c64>,
}

impl CMat {
    /// Creates a matrix of complex zeros.
    pub fn zeros(rows: usize, cols: usize) -> Self {
        CMat {
            rows,
            cols,
            data: vec![c64::ZERO; rows * cols],
        }
    }

    /// Creates the `n × n` complex identity.
    pub fn identity(n: usize) -> Self {
        let mut m = CMat::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = c64::ONE;
        }
        m
    }

    /// Builds a matrix by evaluating `f(row, col)` at every entry.
    pub fn from_fn(rows: usize, cols: usize, mut f: impl FnMut(usize, usize) -> c64) -> Self {
        let mut data = Vec::with_capacity(rows * cols);
        for i in 0..rows {
            for j in 0..cols {
                data.push(f(i, j));
            }
        }
        CMat { rows, cols, data }
    }

    /// Embeds a real matrix into the complex plane.
    pub fn from_real(m: &Mat) -> Self {
        CMat {
            rows: m.rows(),
            cols: m.cols(),
            data: m.as_slice().iter().map(|&x| c64::from_real(x)).collect(),
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

    /// Borrows row `i` as a contiguous slice.
    #[inline(always)]
    pub fn row(&self, i: usize) -> &[c64] {
        debug_assert!(i < self.rows);
        &self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Mutably borrows row `i`.
    #[inline(always)]
    pub fn row_mut(&mut self, i: usize) -> &mut [c64] {
        debug_assert!(i < self.rows);
        &mut self.data[i * self.cols..(i + 1) * self.cols]
    }

    /// Copies column `j` into a fresh vector.
    pub fn col(&self, j: usize) -> Vec<c64> {
        assert!(j < self.cols);
        (0..self.rows)
            .map(|i| self.data[i * self.cols + j])
            .collect()
    }

    /// Overwrites column `j` with `v`.
    pub fn set_col(&mut self, j: usize, v: &[c64]) {
        assert!(j < self.cols);
        assert_eq!(v.len(), self.rows);
        for (i, &x) in v.iter().enumerate() {
            self.data[i * self.cols + j] = x;
        }
    }

    /// Returns a new matrix containing columns `j0..j1`.
    pub fn cols_range(&self, j0: usize, j1: usize) -> CMat {
        assert!(j0 <= j1 && j1 <= self.cols);
        let mut out = CMat::zeros(self.rows, j1 - j0);
        for i in 0..self.rows {
            out.row_mut(i).copy_from_slice(&self.row(i)[j0..j1]);
        }
        out
    }

    /// Returns a new matrix with the columns selected by `idx` (in order).
    pub fn select_cols(&self, idx: &[usize]) -> CMat {
        let mut out = CMat::zeros(self.rows, idx.len());
        for (k, &j) in idx.iter().enumerate() {
            assert!(j < self.cols);
            for i in 0..self.rows {
                out[(i, k)] = self[(i, j)];
            }
        }
        out
    }

    /// Returns a new matrix containing rows `i0..i1`.
    pub fn rows_range(&self, i0: usize, i1: usize) -> CMat {
        assert!(i0 <= i1 && i1 <= self.rows);
        CMat {
            rows: i1 - i0,
            cols: self.cols,
            data: self.data[i0 * self.cols..i1 * self.cols].to_vec(),
        }
    }

    /// Appends the rows of `b` below `self`.
    ///
    /// # Panics
    /// Panics if column counts differ.
    pub fn vstack(&self, b: &CMat) -> CMat {
        assert_eq!(self.cols, b.cols, "vstack requires equal column counts");
        let mut data = Vec::with_capacity((self.rows + b.rows) * self.cols);
        data.extend_from_slice(&self.data);
        data.extend_from_slice(&b.data);
        CMat {
            rows: self.rows + b.rows,
            cols: self.cols,
            data,
        }
    }

    /// Conjugate transpose `Aᴴ`.
    pub fn conj_transpose(&self) -> CMat {
        let mut out = CMat::zeros(self.cols, self.rows);
        for i in 0..self.rows {
            for j in 0..self.cols {
                out.data[j * self.rows + i] = self.data[i * self.cols + j].conj();
            }
        }
        out
    }

    /// Complex matrix product `self * b`, via the blocked, register-tiled
    /// kernel layer in [`mod@crate::gemm`].
    pub fn matmul(&self, b: &CMat) -> CMat {
        assert_eq!(self.cols, b.rows, "matmul inner dimensions must agree");
        let mut out = CMat::zeros(self.rows, b.cols);
        crate::gemm::cgemm(self, b, &mut out);
        out
    }

    /// Matrix–vector product `self * v`.
    pub fn matvec(&self, v: &[c64]) -> Vec<c64> {
        assert_eq!(self.cols, v.len());
        (0..self.rows)
            .map(|i| {
                self.row(i)
                    .iter()
                    .zip(v)
                    .fold(c64::ZERO, |acc, (&a, &b)| acc.mul_add(a, b))
            })
            .collect()
    }

    /// Scales each column `j` by `d[j]` (right-multiplication by `diag(d)`).
    pub fn scale_cols(&self, d: &[c64]) -> CMat {
        assert_eq!(d.len(), self.cols);
        let mut out = self.clone();
        for i in 0..self.rows {
            for (x, &s) in out.row_mut(i).iter_mut().zip(d) {
                *x *= s;
            }
        }
        out
    }

    /// Entry-wise difference.
    pub fn sub(&self, b: &CMat) -> CMat {
        assert_eq!(self.shape(), b.shape());
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(&a, &b)| a - b)
            .collect();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Entry-wise sum.
    pub fn add(&self, b: &CMat) -> CMat {
        assert_eq!(self.shape(), b.shape());
        let data = self
            .data
            .iter()
            .zip(&b.data)
            .map(|(&a, &b)| a + b)
            .collect();
        CMat {
            rows: self.rows,
            cols: self.cols,
            data,
        }
    }

    /// Frobenius norm.
    pub fn fro_norm(&self) -> f64 {
        self.data.iter().map(|z| z.norm_sqr()).sum::<f64>().sqrt()
    }

    /// Real part as a real matrix.
    pub fn real(&self) -> Mat {
        Mat::from_vec(
            self.rows,
            self.cols,
            self.data.iter().map(|z| z.re).collect(),
        )
    }

    /// Squared 2-norm of column `j` — the paper's mode "power" `‖φ‖₂²` (Eq. 10).
    pub fn col_norm_sqr(&self, j: usize) -> f64 {
        assert!(j < self.cols);
        (0..self.rows).map(|i| self[(i, j)].norm_sqr()).sum()
    }

    /// The underlying row-major buffer.
    pub fn as_slice(&self) -> &[c64] {
        &self.data
    }

    /// Mutable access to the underlying row-major buffer.
    pub fn as_mut_slice(&mut self) -> &mut [c64] {
        &mut self.data
    }
}

impl Serialize for CMat {
    fn serialize<S: Serializer>(&self, s: S) -> Result<S::Ok, S::Error> {
        (self.rows, self.cols, &self.data).serialize(s)
    }
}

impl<'de> Deserialize<'de> for CMat {
    fn deserialize<D: Deserializer<'de>>(d: D) -> Result<Self, D::Error> {
        let (rows, cols, data) = <(usize, usize, Vec<c64>)>::deserialize(d)?;
        if rows.checked_mul(cols) != Some(data.len()) {
            return Err(D::Error::custom(
                "matrix buffer length must equal rows*cols",
            ));
        }
        Ok(CMat { rows, cols, data })
    }
}

impl Index<(usize, usize)> for CMat {
    type Output = c64;
    #[inline(always)]
    fn index(&self, (i, j): (usize, usize)) -> &c64 {
        debug_assert!(i < self.rows && j < self.cols);
        &self.data[i * self.cols + j]
    }
}

impl IndexMut<(usize, usize)> for CMat {
    #[inline(always)]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut c64 {
        debug_assert!(i < self.rows && j < self.cols);
        &mut self.data[i * self.cols + j]
    }
}

impl fmt::Debug for CMat {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "CMat {}x{} [", self.rows, self.cols)?;
        for i in 0..self.rows.min(5) {
            write!(f, "  ")?;
            for j in 0..self.cols.min(5) {
                write!(f, "{:>9.3}{:+.3}i ", self[(i, j)].re, self[(i, j)].im)?;
            }
            writeln!(f)?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identity_neutral() {
        let a = CMat::from_fn(3, 3, |i, j| c64::new(i as f64, j as f64));
        let id = CMat::identity(3);
        assert_eq!(a.matmul(&id), a);
    }

    #[test]
    fn conj_transpose_hand_case() {
        let a = CMat::from_fn(2, 2, |i, j| c64::new((i + j) as f64, 1.0));
        let h = a.conj_transpose();
        assert_eq!(h[(0, 1)], c64::new(1.0, -1.0));
        assert_eq!(h[(1, 0)], c64::new(1.0, -1.0));
    }

    #[test]
    fn power_is_col_norm_sqr() {
        let mut a = CMat::zeros(2, 1);
        a[(0, 0)] = c64::new(3.0, 0.0);
        a[(1, 0)] = c64::new(0.0, 4.0);
        assert!((a.col_norm_sqr(0) - 25.0).abs() < 1e-15);
    }

    #[test]
    fn i_squared_is_minus_one_via_matmul() {
        let mut a = CMat::zeros(1, 1);
        a[(0, 0)] = c64::I;
        let sq = a.matmul(&a);
        assert!((sq[(0, 0)] - c64::new(-1.0, 0.0)).abs() < 1e-15);
    }

    #[test]
    fn rows_range_and_vstack_roundtrip() {
        let a = CMat::from_fn(4, 3, |i, j| c64::new(i as f64, j as f64));
        let top = a.rows_range(0, 2);
        let bottom = a.rows_range(2, 4);
        assert_eq!(top.vstack(&bottom), a);
        assert_eq!(top.shape(), (2, 3));
    }

    #[test]
    fn serde_roundtrip_preserves_complex_matrix() {
        let a = CMat::from_fn(2, 3, |i, j| c64::new(i as f64 + 0.5, -(j as f64)));
        let json = serde_json::to_string(&a).unwrap();
        let back: CMat = serde_json::from_str(&json).unwrap();
        assert_eq!(back, a);
    }

    #[test]
    fn scale_cols_applies_diag() {
        let a = CMat::from_fn(2, 2, |_, _| c64::ONE);
        let d = [c64::new(2.0, 0.0), c64::new(0.0, 1.0)];
        let s = a.scale_cols(&d);
        assert_eq!(s[(0, 0)], c64::new(2.0, 0.0));
        assert_eq!(s[(1, 1)], c64::I);
    }
}
