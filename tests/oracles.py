"""Helpers shared by several test suites: random complex inputs and
frames, overiva's IP step from a fresh tracked inverse, and the reference
forms (dense, one-shot or unbuffered) that fast kernels are checked
against."""

import numpy as np

from ivastream import numerics, roomsim
from ivastream import separators as sep
from ivastream.metrics import Decomposition
from ivastream.stft import SpectralFrame, StftConfig


def _cplx(rng, *shape):
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


def _spectral_frames(rng, n_frames, n_bins, n_channels, cfg=None):
    cfg = cfg or StftConfig()
    return [
        SpectralFrame(bins=_cplx(rng, n_bins, n_channels), index=j, config=cfg)
        for j in range(n_frames)
    ]


def _tracked_ip_update(u, v, loading=0.0):
    """``ip_update`` as overiva runs it, from the inverse a refresh puts in
    the tracked ``P``; checks that no bin needed the exact fallback
    (which would have refreshed ``P`` in place)."""
    p = numerics.scaled_inverse(v, loading)
    p0 = p.copy()
    w = sep.ip_update(u, v, loading, p)
    np.testing.assert_array_equal(p, p0)
    return w


def _random_pd(rng, *shape):
    k = shape[-1]
    a = _cplx(rng, *shape)
    return a @ np.conj(np.swapaxes(a, -1, -2)) + 0.5 * np.eye(k)


def _dense_congruence(delta, v):
    """Oracle for the lifted covariance: ``Delta^H V Delta`` with the dense
    lift ``delta``, re-symmetrized."""
    out = np.conj(np.swapaxes(delta, -1, -2)) @ v @ delta
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _aux_objective(w_mat, v):
    """Auxiliary (majorizer) objective for frozen weighted covariances,
    ``sum_{n,i} w_{n,i}^H V_{n,i} w_{n,i} - 2 sum_i log|det W_i|`` with
    ``w_{n,i}`` the conjugate of row ``n`` of ``W_i``; IP sweeps never
    increase it."""
    rows = w_mat[:, : v.shape[0], :]  # (I, N, M); w_{n,i} = conj(rows[i, n])
    quad = np.einsum("inm,nimk,ink->", rows, v, rows.conj()).real
    _, logdet = np.linalg.slogdet(w_mat)
    return float(quad) - 2.0 * float(np.sum(logdet))


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


def _full_lattice(room, src, mic):
    """Oracle for ``roomsim._image_delays`` without its tail cut: delay in
    fractional samples and amplitude of every image up to
    ``max_image_order`` per axis, in the same lattice order."""
    dims = np.asarray(room.dimensions)
    beta = np.asarray(room.reflection).reshape(3, 2)
    order = room.max_image_order
    if order is None:
        order = roomsim.default_image_order(room, max(roomsim.t60_eyring(room), 1e-3))

    def on_grid(table, a):
        shape = [1] * 6
        shape[a], shape[a + 3] = table.shape
        return table.reshape(shape)

    r = np.arange(-order, order + 1)[:, None]
    p = np.arange(2)
    sq, lo, hi = [], [], []
    for a in range(3):
        offset = (1.0 - 2.0 * p) * (src[a] + 2.0 * r * dims[a]) - mic[a]
        sq.append(on_grid(offset * offset, a))
        lo.append(on_grid(beta[a, 0] ** np.abs(r + p), a))
        hi.append(on_grid(beta[a, 1] ** np.abs(r), a))
    dist = np.sqrt(sq[0] + sq[1] + sq[2]).ravel()
    amp = (lo[0] * lo[1] * lo[2] * (hi[0] * hi[1] * hi[2])).ravel()
    amp = amp / (4.0 * np.pi * dist)
    return dist / roomsim.SPEED_OF_SOUND * room.sample_rate, amp


def _allocating_rir(room, src, mic, block=1024):
    """Oracle for ``roomsim.image_source_rir``'s windowed-sinc loop at any
    block size: the same closed-form taps, with tap values, divisors and tap
    indices formed for every ``block`` images, a last block of one image
    joined to the block before it by its own rule, not ``roomsim._blocks``."""
    delay, amp = roomsim._image_delays(room, np.asarray(src, float), np.asarray(mic, float))
    half = roomsim._HALF
    n_samples = int(np.ceil(delay.max())) + half + 1
    nearest = np.rint(delay).astype(np.int64)
    reduced = delay - nearest
    g = -np.sin(np.pi * reduced) * amp / (2.0 * np.pi)
    whole = np.abs(reduced) <= np.spacing(delay)
    g[whole] = 0.0
    reduced[whole] = 0.5
    angle = roomsim._HANN_RATE * reduced
    coef = np.stack([g, g * np.cos(angle), g * np.sin(angle)], axis=-1)
    out = np.zeros(n_samples + half)
    offsets = np.arange(roomsim.SINC_TAPS)
    starts = list(range(0, delay.size, block))
    if len(starts) > 1 and delay.size - starts[-1] == 1:
        starts.pop()
    for lo, hi in zip(starts, starts[1:] + [delay.size]):
        rows = slice(lo, hi)
        vals = coef[rows] @ roomsim._TAP_TABLE
        vals /= roomsim._TAP_T - reduced[rows, None]
        taps = nearest[rows, None] + offsets
        np.add.at(out, taps.ravel(), vals.ravel())
    np.add.at(out, nearest[whole] + half, amp[whole])
    return out[half:]


def _one_shot_directional_t60(beta, dims, n_dirs=512):
    """Oracle for ``roomsim._directional_t60``: every decay-curve sample's
    exponentials in one (3000, n_dirs) array."""
    u = np.abs(roomsim._fibonacci_sphere(n_dirs))
    g = (u / np.asarray(dims, dtype=float)).sum(axis=-1)
    log_e = 2.0 * np.log(max(beta, 1e-12)) * roomsim.SPEED_OF_SOUND
    t_hi = 8.0 * -6.907755 / (log_e * float(g.mean()))
    t = np.linspace(0.0, t_hi, 3000)
    energy = np.exp(log_e * t[:, None] * g[None, :]).mean(axis=-1)
    edc = np.cumsum(energy[::-1])[::-1]
    db = 10.0 * np.log10(edc / edc[0])
    hi, lo = roomsim.T60_FIT_DB
    m = (db <= hi) & (db >= lo)
    slope, _ = np.polyfit(t[m], db[m], 1)
    return float(-60.0 / slope)
