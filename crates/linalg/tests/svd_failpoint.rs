//! The SVD fail point and metrics around the QR-preconditioned Jacobi path.
//!
//! Fail points are process-global, so this binary holds a single test: no
//! concurrent SVD can consume an armed failure.

use hpc_linalg::failpoint::{arm_svd_nonconvergence, disarm_all};
use hpc_linalg::obs::{GEMM_CALLS, QR_CALLS, SVD_CALLS, SVD_ESCALATIONS, SVD_FAILURES};
use hpc_linalg::{svd, try_svd, LinAlgError, Mat};

fn bits(m: &Mat) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

#[test]
fn armed_failpoint_and_metrics_behave_on_every_svd_shape() {
    let tall = Mat::from_fn(400, 12, |i, j| ((i * 7 + j * 3) % 23) as f64 - 11.0);
    let wide = tall.transpose();
    let square = Mat::from_fn(12, 9, |i, j| ((i * 5 + j) % 7) as f64 - 3.0);

    // A preconditioned solve reports as one SVD: its Householder passes and
    // the Q·U_R product record no QR or GEMM metrics of their own.
    let (qr0, gemm0, svd0) = (QR_CALLS.value(), GEMM_CALLS.value(), SVD_CALLS.value());
    let ok = try_svd(&tall).expect("healthy tall input converges");
    assert_eq!(QR_CALLS.value(), qr0);
    assert_eq!(GEMM_CALLS.value(), gemm0);
    assert_eq!(SVD_CALLS.value(), svd0 + 1);
    assert!(ok.reconstruct().fro_dist(&tall) < 1e-10 * tall.fro_norm());

    // Armed once: exactly the next call fails, counted as one escalation
    // and one failure, without doing any work.
    let (esc0, fail0) = (SVD_ESCALATIONS.value(), SVD_FAILURES.value());
    arm_svd_nonconvergence(1);
    match try_svd(&tall) {
        Err(LinAlgError::SvdNonConvergence {
            sweeps,
            off_diagonal,
        }) => {
            assert_eq!(sweeps, 0);
            assert!(off_diagonal.is_infinite());
        }
        other => panic!("armed fail point did not fire: {other:?}"),
    }
    assert_eq!(SVD_ESCALATIONS.value(), esc0 + 1);
    assert_eq!(SVD_FAILURES.value(), fail0 + 1);
    let again = try_svd(&tall).expect("the fail point is spent");
    assert_eq!(bits(&again.u), bits(&svd(&tall).u));

    // Sticky: every shape fails until disarmed.
    arm_svd_nonconvergence(usize::MAX);
    for a in [&tall, &wide, &square] {
        assert!(matches!(
            try_svd(a),
            Err(LinAlgError::SvdNonConvergence { .. })
        ));
    }
    disarm_all();
    for a in [&tall, &wide, &square] {
        let f = try_svd(a).expect("disarmed");
        let g = svd(a);
        assert_eq!(bits(&f.u), bits(&g.u));
        assert_eq!(bits(&f.v), bits(&g.v));
    }
}
