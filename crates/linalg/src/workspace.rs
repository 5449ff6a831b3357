//! Reusable scratch workspaces for the dense kernel layer.
//!
//! The hot incremental paths — [`crate::IncrementalSvd`] updates, Jacobi
//! sweeps, Householder projections, and the packing buffers of the blocked
//! GEMM in [`mod@crate::gemm`] — all need short-lived `f64` (and [`c64`]) buffers
//! whose sizes repeat call after call. Allocating them fresh each time puts
//! the allocator on the critical path; this module keeps a small per-thread
//! free list instead, so steady-state kernel calls are allocation-free.
//!
//! Two tiers are provided:
//!
//! - [`take_vec`] / [`give_vec`]: raw recycled `Vec<f64>` buffers (zeroed on
//!   take), with the RAII wrapper [`ScratchVec`];
//! - [`pooled_zeros`] / [`pooled_copy`] / [`pooled_transpose`]: recycled
//!   buffers dressed up as a [`Mat`] via the RAII wrapper [`PooledMat`],
//!   which derefs to `Mat` so it drops into existing matrix code unchanged.
//!
//! The pool is strictly thread-local: scoped worker threads spawned by the
//! fork-join pool each see their own (initially empty) pool, so there is no
//! cross-thread synchronisation and no determinism hazard — the pool only
//! recycles storage, never values (buffers are zeroed on take).

use crate::complex::c64;
use crate::mat::Mat;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Maximum number of buffers the per-thread free list retains; beyond this,
/// returned buffers are simply dropped. Keeps worst-case retained memory
/// bounded to `MAX_POOLED` × largest-buffer.
const MAX_POOLED: usize = 24;

thread_local! {
    static POOL_F64: RefCell<Vec<Vec<f64>>> = const { RefCell::new(Vec::new()) };
    static POOL_C64: RefCell<Vec<Vec<c64>>> = const { RefCell::new(Vec::new()) };
}

/// Takes a zeroed `f64` buffer of exactly `len` from the per-thread pool
/// (allocating only if no pooled buffer has enough capacity).
pub fn take_vec(len: usize) -> Vec<f64> {
    POOL_F64.with(|p| {
        let mut pool = p.borrow_mut();
        // Best-fit: the smallest pooled buffer whose capacity suffices.
        let mut best: Option<(usize, usize)> = None;
        for (i, v) in pool.iter().enumerate() {
            if v.capacity() >= len && best.is_none_or(|(_, c)| v.capacity() < c) {
                best = Some((i, v.capacity()));
            }
        }
        match best {
            Some((i, _)) => {
                let mut v = pool.swap_remove(i);
                v.clear();
                v.resize(len, 0.0);
                v
            }
            None => vec![0.0; len],
        }
    })
}

/// Returns a buffer to the per-thread pool for reuse.
pub fn give_vec(v: Vec<f64>) {
    if v.capacity() == 0 {
        return;
    }
    POOL_F64.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(v);
        }
    })
}

/// Complex analogue of [`take_vec`].
pub fn take_cvec(len: usize) -> Vec<c64> {
    POOL_C64.with(|p| {
        let mut pool = p.borrow_mut();
        let mut best: Option<(usize, usize)> = None;
        for (i, v) in pool.iter().enumerate() {
            if v.capacity() >= len && best.is_none_or(|(_, c)| v.capacity() < c) {
                best = Some((i, v.capacity()));
            }
        }
        match best {
            Some((i, _)) => {
                let mut v = pool.swap_remove(i);
                v.clear();
                v.resize(len, c64::ZERO);
                v
            }
            None => vec![c64::ZERO; len],
        }
    })
}

/// Complex analogue of [`give_vec`].
pub fn give_cvec(v: Vec<c64>) {
    if v.capacity() == 0 {
        return;
    }
    POOL_C64.with(|p| {
        let mut pool = p.borrow_mut();
        if pool.len() < MAX_POOLED {
            pool.push(v);
        }
    })
}

/// RAII scratch buffer: derefs to `Vec<f64>` and returns its storage to the
/// per-thread pool on drop.
pub struct ScratchVec {
    buf: Vec<f64>,
}

impl ScratchVec {
    /// Takes a zeroed scratch buffer of `len` from the pool.
    pub fn zeros(len: usize) -> ScratchVec {
        ScratchVec { buf: take_vec(len) }
    }
}

impl Deref for ScratchVec {
    type Target = Vec<f64>;
    fn deref(&self) -> &Vec<f64> {
        &self.buf
    }
}

impl DerefMut for ScratchVec {
    fn deref_mut(&mut self) -> &mut Vec<f64> {
        &mut self.buf
    }
}

impl Drop for ScratchVec {
    fn drop(&mut self) {
        give_vec(std::mem::take(&mut self.buf));
    }
}

/// RAII scratch matrix: a [`Mat`] whose backing buffer came from (and
/// returns to) the per-thread pool. Derefs to `Mat`, so it can be passed
/// anywhere a `&Mat` / `&mut Mat` is expected.
pub struct PooledMat {
    mat: Mat,
}

/// A zeroed pooled `rows × cols` matrix.
pub fn pooled_zeros(rows: usize, cols: usize) -> PooledMat {
    let buf = take_vec(rows * cols);
    PooledMat {
        mat: Mat::from_vec(rows, cols, buf),
    }
}

/// A pooled copy of `src`.
pub fn pooled_copy(src: &Mat) -> PooledMat {
    let mut buf = take_vec(src.rows() * src.cols());
    buf.copy_from_slice(src.as_slice());
    PooledMat {
        mat: Mat::from_vec(src.rows(), src.cols(), buf),
    }
}

/// A pooled transposed copy of `src` (the only place the kernel layer still
/// materialises a transpose: the Jacobi SVD works column-major by design).
pub fn pooled_transpose(src: &Mat) -> PooledMat {
    let mut out = pooled_zeros(src.cols(), src.rows());
    src.transpose_into(&mut out.mat);
    out
}

impl Deref for PooledMat {
    type Target = Mat;
    fn deref(&self) -> &Mat {
        &self.mat
    }
}

impl DerefMut for PooledMat {
    fn deref_mut(&mut self) -> &mut Mat {
        &mut self.mat
    }
}

impl Drop for PooledMat {
    fn drop(&mut self) {
        let m = std::mem::take(&mut self.mat);
        give_vec(m.into_vec());
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_after_give() {
        let mut v = take_vec(16);
        v.iter_mut().for_each(|x| *x = 7.0);
        give_vec(v);
        let v2 = take_vec(8);
        assert!(v2.iter().all(|&x| x == 0.0));
        assert_eq!(v2.len(), 8);
    }

    #[test]
    fn pooled_mat_roundtrip() {
        let a = Mat::from_fn(3, 4, |i, j| (i * 4 + j) as f64);
        let p = pooled_copy(&a);
        assert_eq!(&*p, &a);
        let t = pooled_transpose(&a);
        assert_eq!(&*t, &a.transpose());
        drop(p);
        drop(t);
        // Storage was recycled: a fresh take reuses capacity.
        let v = take_vec(12);
        assert!(v.capacity() >= 12);
    }

    #[test]
    fn pool_is_bounded() {
        for _ in 0..100 {
            give_vec(vec![0.0; 32]);
        }
        POOL_F64.with(|p| assert!(p.borrow().len() <= MAX_POOLED));
    }
}
