"""Helpers shared by several test suites: random complex inputs and the
dense oracles that fast kernels are checked against."""

import numpy as np

from ivastream.metrics import Decomposition


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _random_pd(rng, *shape):
    k = shape[-1]
    a = _cplx(rng, *shape)
    return a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(k)


def _dense_congruence(delta, v):
    """Oracle for the lifted covariance: ``Delta^H V Delta`` with the dense
    lift ``delta``, re-symmetrized."""
    out = np.conj(np.swapaxes(delta, -1, -2)) @ v @ delta
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _dense_decompose(est, refs, lags, target_index):
    """Brute-force oracle: explicit shifted-copy basis and lstsq projections."""
    n_refs, n_samples = refs.shape
    out_len = n_samples + lags - 1
    basis = np.zeros((out_len, n_refs * lags))
    for n in range(n_refs):
        for tau in range(lags):
            basis[tau : tau + n_samples, n * lags + tau] = refs[n]
    padded = np.zeros(out_len)
    padded[:n_samples] = est
    coef_all, *_ = np.linalg.lstsq(basis, padded, rcond=None)
    sub = basis[:, target_index * lags : (target_index + 1) * lags]
    coef_tgt, *_ = np.linalg.lstsq(sub, padded, rcond=None)
    proj_all = basis @ coef_all
    proj_tgt = sub @ coef_tgt
    return Decomposition(proj_tgt, proj_all - proj_tgt, padded - proj_all)
