"""Online separation engines: AuxIVA, OverIVA and bilinear OverIVA.

All three share the same recursive statistics: a contrast weight computed
once per source and frame from the previous frame's filters, exponentially
weighted covariances driving iterative-projection (IP) filter updates, and
(for the overdetermined engines) an orthogonal-constraint update of the
noise block.  The bilinear engine additionally factors each source
extraction filter of length ``M`` into a Kronecker product of two
sub-filters of lengths ``M1 * M2 == M`` and updates them alternately.

Every filter update starts from ``u = W^{-1} e_n``, solved once per source
and frame.  With more channels than sources the noise rows ``[J, -I]`` reduce
that solve, and projection back's, to an N x N system (:func:`_source_block`).
:func:`ip_update` solves ``V w = u`` and normalizes ``w^H V w``
to 1; :func:`bilinear_update` is the same IP step on the covariance and
on ``u`` lifted through the held sub-filter (``Delta^H V Delta`` and
``Delta^H u``), and both sub-filter updates read the same ``u``.  The
lifted covariance is contracted through the Kronecker structure of ``Delta`` (``V`` viewed as
M1 x M2 x M1 x M2): O(M^2) per bin and sub-filter, where the dense
product with the M x M1 lift costs O(M^2 M1).  OverIVA solves with the
inverse of ``V``, which :func:`update_inverse` tracks by rank-1 updates
(as in online AuxIVA, Taniguchi et al., HSCMA 2014); AuxIVA's systems are
N x N, and the bilinear engine's lifted covariance changes with the held
sub-filter every frame, so both solve exactly.

State layout per frequency bin ``i`` (states store all bins stacked):

* ``W[i]`` is the full demixing matrix; row ``n < N`` equals the conjugate
  transpose of source ``n``'s extraction filter, rows ``N..M`` form the
  noise block ``[J, -I]``
* ``V[n, i]`` and ``C[i]`` are the weighted and unweighted covariance
  recursions (``C`` only with a noise block, whose orthogonal constraint
  reads it); ``P[n, i]`` tracks the inverse of ``V[n, i]`` scaled to unit
  mean eigenvalue (OverIVA)
* separated spectra are ``y[n, i] = W[i, n, :] @ x[i]``

``process_frame`` mutates one state and must be serialized per state;
states for different streams are independent.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from . import numerics
from .numerics import SingularMatrixError
from .stft import SpectralFrame


class Algorithm(str, Enum):
    AUXIVA = "auxiva"
    OVERIVA = "overiva"
    BIIVA = "biiva"


_DEFAULT_FORGETTING = {
    Algorithm.AUXIVA: 0.96,
    Algorithm.OVERIVA: 0.99,
    Algorithm.BIIVA: 0.98,
}

WEIGHT_FLOOR = 1e-12

# frames between refreshes of the tracked inverse P from a checked solve.
# Rank-1 updates let P drift by rounding.  On a 30 s desk stream without
# refreshes, 206 of overiva's IP steps had bins whose solution from P
# failed the residual test; with a refresh every 16 to 128
# frames none did (P's backward error as an inverse stayed at 1.3e-12 or
# less).  At 128 frames P ended the stream 14x further from the checked
# inverse than at 16 to 64.
INVERSE_REFRESH = 32


@dataclass(frozen=True)
class SeparatorConfig:
    """Knobs of one separation stream.

    ``forgetting`` defaults per algorithm (0.96 AuxIVA, 0.99 OverIVA,
    0.98 bilinear).  Every frame runs one filter update per source, the
    one-update-per-frame schedule of online AuxIVA.
    """

    n_channels: int
    n_sources: int
    algorithm: Algorithm = Algorithm.OVERIVA
    sub_len_1: int | None = None
    sub_len_2: int | None = None
    forgetting: float | None = None
    loading: float = 1e-9

    def __post_init__(self):
        algo = Algorithm(self.algorithm)
        object.__setattr__(self, "algorithm", algo)
        if self.forgetting is None:
            object.__setattr__(self, "forgetting", _DEFAULT_FORGETTING[algo])
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if not 0.0 < self.forgetting < 1.0:
            raise ValueError("forgetting factor must be in (0, 1)")
        if not (np.isfinite(self.loading) and self.loading >= 0):
            raise ValueError(f"loading must be finite and >= 0, not {self.loading}")
        if algo is Algorithm.AUXIVA:
            if self.n_channels != self.n_sources:
                raise ValueError("auxiva is determined: n_channels must equal n_sources")
        else:
            if self.n_channels <= self.n_sources:
                raise ValueError(f"{algo.value} requires n_channels > n_sources")
        if algo is Algorithm.BIIVA:
            if self.sub_len_1 is None or self.sub_len_2 is None:
                raise ValueError("biiva requires sub_len_1 and sub_len_2")
            if self.sub_len_1 < 1 or self.sub_len_2 < 1:
                raise ValueError("sub-filter lengths must be >= 1")
            if self.sub_len_1 * self.sub_len_2 != self.n_channels:
                raise ValueError(
                    f"sub_len_1 * sub_len_2 = {self.sub_len_1 * self.sub_len_2} "
                    f"must equal n_channels = {self.n_channels}"
                )
        elif self.sub_len_1 is not None or self.sub_len_2 is not None:
            raise ValueError(f"sub_len_1 and sub_len_2 are for biiva only, not {algo.value}")


@dataclass
class SeparatorState:
    """All adaptive quantities of one stream; mutated by process_frame."""

    config: SeparatorConfig
    n_bins: int
    W: np.ndarray  # (I, M, M)
    V: np.ndarray  # (N, I, M, M)
    P: np.ndarray | None  # (N, I, M, M) tracked (V / (tr V / M))^{-1}; overiva only
    C: np.ndarray | None  # (I, M, M); None without a noise block (auxiva)
    w1: np.ndarray | None  # (N, I, M1)
    w2: np.ndarray | None  # (N, I, M2)
    frame_index: int = 0


@dataclass
class SourceEstimate:
    """Separated spectra of one frame: ``y[n, i]`` for source n, bin i."""

    y: np.ndarray  # (N, I) complex
    frame_index: int


def init_state(config: SeparatorConfig, n_bins: int) -> SeparatorState:
    """Fresh state: identity source rows (source ``n`` on channel ``n``),
    noise block ``[0, -I]``, identity covariances, and identity tracked
    inverses for overiva.  The spatial covariance ``C`` exists only with a
    noise block.  The bilinear engine's sub-filters are the unit vectors
    ``e_{n // M2}`` and ``e_{n % M2}``, whose Kronecker product is that same
    row ``e_n``."""
    if n_bins < 1:
        raise ValueError("n_bins must be >= 1")
    m, n_src = config.n_channels, config.n_sources
    w_mat = np.zeros((n_bins, m, m), dtype=np.complex128)
    w_mat[:, :n_src, :n_src] = np.eye(n_src)
    w1 = w2 = None
    if config.algorithm is Algorithm.BIIVA:
        m2 = config.sub_len_2
        w1 = np.zeros((n_src, n_bins, config.sub_len_1), dtype=np.complex128)
        w2 = np.zeros((n_src, n_bins, m2), dtype=np.complex128)
        for n in range(n_src):
            w1[n, :, n // m2] = 1.0
            w2[n, :, n % m2] = 1.0
    w_mat[:, n_src:, n_src:] = -np.eye(m - n_src)
    v = np.tile(np.eye(m, dtype=np.complex128), (n_src, n_bins, 1, 1))
    p = v.copy() if config.algorithm is Algorithm.OVERIVA else None
    c = np.tile(np.eye(m, dtype=np.complex128), (n_bins, 1, 1)) if n_src < m else None
    return SeparatorState(config=config, n_bins=n_bins, W=w_mat, V=v, P=p, C=c, w1=w1, w2=w2)


def _quadratic_form(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real part of ``w^H V w`` over leading batch axes.  A 2 x 2 ``V`` is
    read on its entries, ``t = V w`` then ``Re(w^H t)`` term by term in the
    order of the batched product below, at less than half its cost."""
    if v.shape[-1] == 2:
        w0, w1 = w[..., 0], w[..., 1]
        t0 = v[..., 0, 0] * w0 + v[..., 0, 1] * w1
        t1 = v[..., 1, 0] * w0 + v[..., 1, 1] * w1
        return (w0.real * t0.real + w1.real * t1.real) + (w0.imag * t0.imag + w1.imag * t1.imag)
    t = np.matmul(v, w[..., None])[..., 0]
    return np.einsum("...m,...m->...", w.real, t.real) + np.einsum(
        "...m,...m->...", w.imag, t.imag
    )


def contrast_weight(state: SeparatorState, x: np.ndarray, n: int) -> float:
    """Contrast weight of source ``n`` for the current frame.

    Reciprocal of the per-bin broadband output power of the carried-over
    filter -- the variance estimate of the time-varying Gaussian source
    model -- floored to stay finite on silent frames.  Without the bin-count
    normalization the per-bin unit-quadratic-form constraint is
    inconsistent with the weight's scale and the filters grow without
    bound, stalling online adaptation.
    """
    y = np.einsum("im,im->i", state.W[:, n, :], x)
    power = float(np.sum(np.abs(y) ** 2)) / state.n_bins
    return 1.0 / max(power, WEIGHT_FLOOR)


def update_weighted_cov(v: np.ndarray, xxh: np.ndarray, weight: float, alpha: float) -> None:
    """One in-place step of the covariance recursion
    ``V <- alpha V + (1 - alpha) weight x x^H`` (batched over bins); the
    spatial covariance ``C`` is the ``weight == 1`` case."""
    v *= alpha
    v += ((1.0 - alpha) * weight) * xxh


def update_inverse(p: np.ndarray, v: np.ndarray, x: np.ndarray, weight: float, alpha: float) -> None:
    """Keep ``P = (V / t)^{-1}``, ``t = tr(V) / M``, in step with
    ``update_weighted_cov(v, x x^H, weight, alpha)``, in place; call it
    after that update.  Scaling ``V`` to unit mean eigenvalue keeps ``P``
    within range whatever the scale the weights give ``V``.

    With ``t`` the new trace scale, the scaled recursion is ``V / t <-
    a (V / t) + b x x^H`` with ``b = (1 - alpha) weight / t`` and ``a = 1 -
    b |x|^2 / M``, so by Sherman-Morrison ``P <- (P - b z z^H / (a + b x^H
    z)) / a`` with ``z = P x``.  ``a`` and the denominator stay positive
    unless rounding breaks them; a bin where it does is left with a ``P``
    whose solution fails :func:`numerics.solve_with_inverse`'s residual
    test, so :func:`ip_update` re-solves that bin exactly and refreshes its
    ``P``.
    """
    m = v.shape[-1]
    x = np.ascontiguousarray(x)  # numerics.real_dot reads its float view
    b = ((1.0 - alpha) * weight * m) / np.einsum("...ii->...", v).real
    a = 1.0 - b * numerics.real_dot(x, x) / m
    z = np.matmul(p, x[..., None])[..., 0]
    den = a + b * numerics.real_dot(x, z)
    # P / a - (b / (a den)) z z^H; the real scaling runs on the float view
    z_scaled = z * (b / (a * den))[..., None]
    p.view(np.float64)[...] *= (1.0 / a)[..., None, None]
    p -= z_scaled[..., :, None] * z[..., None, :].conj()


def ip_update(
    u: np.ndarray, v: np.ndarray, loading: float = 0.0, p: np.ndarray | None = None
) -> np.ndarray:
    """Iterative-projection update of one extraction filter.

    Given ``u = W^{-1} e_n``, solves ``(V + d I) w = u`` with the loading
    ``d = loading tr(V) / M`` and normalizes so that ``w^H V w == 1``.
    Batched over leading axes.

    With ``p``, the tracked inverse of :func:`update_inverse`, the solve
    is :func:`numerics.solve_with_inverse`.  A bin whose solution it
    rejects (a failed residual test against ``V + d I``, or a near-singular
    ``V``), or whose ``w^H V w`` is not positive and finite, takes the exact
    loaded solve instead, and its ``p`` is refreshed in place.
    """
    if p is None:
        w = numerics.hermitian_solve(v, u, loading)
        q = _quadratic_form(w, v)
    else:
        w, vw, ok = numerics.solve_with_inverse(p, v, u, loading)
        q = numerics.real_dot(w, vw)
        bad = ~(ok & np.isfinite(q) & (q > 0.0))
        if np.any(bad):
            w[bad] = numerics.hermitian_solve(v[bad], u[bad], loading)
            q[bad] = _quadratic_form(w[bad], v[bad])
            p[bad] = numerics.scaled_inverse(v[bad], loading)
    if np.any(q <= 0.0) or not np.all(np.isfinite(q)):
        raise SingularMatrixError("ip_update: non-positive quadratic form")
    return w / np.sqrt(q)[..., None]


def oc_update(c: np.ndarray, w_src: np.ndarray, loading: float = 0.0) -> np.ndarray:
    """Orthogonal-constraint update of the noise-block coupling ``J``.

    Given the spatial covariance and the source extraction rows, returns the
    ``(M-N, N)`` block such that ``[J, -I] C W_src^H == 0``.
    """
    n_src = w_src.shape[-2]
    g = c @ np.conj(np.swapaxes(w_src, -1, -2))  # (..., M, N)
    gs = g[..., :n_src, :]
    gn = g[..., n_src:, :]
    # J gs = gn  <=>  gs^T J^T = gn^T
    jt = numerics.solve_general(
        np.swapaxes(gs, -1, -2), np.swapaxes(gn, -1, -2), loading, context="oc_update"
    )
    return np.swapaxes(jt, -1, -2)


def bilinear_update(
    u: np.ndarray, v: np.ndarray, held: np.ndarray, side: str, loading: float = 0.0
) -> np.ndarray:
    """Alternating IP update of one sub-filter, the other one ``held`` fixed:
    the IP step on ``V`` and ``u = W^{-1} e_n`` lifted through the ``side``
    lift of :func:`numerics.congruence`, ``Delta = I (x) w2`` (``"left"``,
    updating ``w1``) or ``w1 (x) I`` (``"right"``, updating ``w2``); the
    covariance by the structured congruence and ``Delta^H u`` through the
    lift."""
    lift = numerics.lift_left if side == "left" else numerics.lift_right
    delta = lift(held, v.shape[-1] // held.shape[-1])  # (..., M, M / len(held))
    rhs = np.einsum("...mk,...m->...k", delta.conj(), u)
    return ip_update(rhs, numerics.congruence(v, held, side), loading)


def _source_block(w: np.ndarray, n_src: int, loading: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """N x N system equivalent to the loaded demixing matrix.

    The solves load ``W`` as ``W_l = W + s I`` with
    ``s = numerics.frobenius_shift(W, loading)``.  With the noise rows at
    ``[J, -I]`` this is ``W_l = [[A + s I, B], [J, (s - 1) I]]``, and
    eliminating the noise block leaves ``S = A + s I + c B J`` with
    ``c = 1 / (1 - s)``: ``W_l^{-1} e_n = [u; c J u]`` for ``S u = e_n``
    (``n < N``), and the first N entries of row ``r`` of ``W_l^{-1}`` solve
    ``S^T x = e_r`` for ``r < N`` or ``S^T x = c J[r - N]`` for a noise
    channel.  ``det W_l = (s - 1)^{M - N} det S``, so ``S`` is singular
    exactly when ``W_l`` is (``s``, ``loading`` times the RMS row norm of
    ``W``, stays far below 1).  Without a noise block (M == N) the callers
    solve ``W_l`` itself.

    Everything is formed bins-last, from one copy of the source rows
    ``W_s = [A, B]`` and ``J`` in which each matrix entry is one contiguous
    row over the bins (the leading axes of ``w`` flattened into one).  The
    shift needs no pass over the M^2 entries of ``W``: the noise rows give
    ``||W||_F^2 = ||W_s||_F^2 + ||J||_F^2 + (M - N)``.  ``B J`` is a sum
    over the M - N axis of products of bins-last rows.  Returns ``(S, J, c)``: ``S`` (..., N, N) is the
    bins-first view of the bins-last (N, N, I) array, which
    ``numerics._small_solve`` copies back contiguously; ``J`` is the
    bins-last (M - N, N, I) copy and ``c`` has shape (I,).
    """
    batch, m = w.shape[:-2], w.shape[-1]
    w = w.reshape((-1, m, m))
    # bins-last rows of W_s and J, one block each
    rows = np.empty((m * n_src + (m - n_src) * n_src, w.shape[0]), dtype=np.complex128)
    w_s = rows[: m * n_src].reshape(n_src, m, -1)
    j = rows[m * n_src :].reshape(m - n_src, n_src, -1)
    w_s[...] = w[:, :n_src].transpose(1, 2, 0)
    j[...] = w[:, n_src:, :n_src].transpose(1, 2, 0)
    parts = np.einsum("kj,kj->j", rows.view(np.float64), rows.view(np.float64))
    sq = parts[0::2] + parts[1::2]  # squared real and imaginary parts of each bin
    s = loading * (np.sqrt(sq + (m - n_src)) / np.sqrt(m))
    c = 1.0 / (1.0 - s)
    # B J summed over the M - N axis; einsum rounds each entry as the
    # bins-first product did (numpy's complex multiply may not)
    s_mat = np.einsum("aki,kbi->abi", w_s[:, n_src:], j)
    s_mat *= c
    s_mat += w_s[:, :n_src]
    s_mat.reshape(n_src * n_src, -1)[:: n_src + 1] += s
    return np.moveaxis(s_mat, -1, 0).reshape(batch + (n_src, n_src)), j, c


def _inverse_column(w: np.ndarray, n: int, n_src: int, loading: float) -> np.ndarray:
    """Column ``n < N`` of the loaded ``W^{-1}``, as ``numerics.solve_column``
    gives it, through :func:`_source_block` when there is a noise block."""
    if n_src == w.shape[-1]:
        return numerics.solve_column(w, n, loading)
    s_mat, j, c = _source_block(w, n_src, loading)
    u = numerics.solve_column(s_mat, n)
    col = np.empty(w.shape[:-1], dtype=np.complex128)
    col[..., :n_src] = u
    col.reshape(-1, w.shape[-1])[:, n_src:] = ((j * u.reshape(-1, n_src).T).sum(axis=1) * c).T
    return col


def process_frame(state: SeparatorState, frame: SpectralFrame) -> SourceEstimate:
    """Advance one stream by one frame and return the separated spectra.

    Per source in ascending order: compute the contrast weight from the
    carried-over filter, refresh that source's weighted covariance and run
    the algorithm's filter update, writing the source's demixing row so
    later sources see it.  overiva's update first brings its tracked
    inverse in step (from a checked solve every ``INVERSE_REFRESH``
    frames); auxiva and biiva solve exactly.  Then, if there is a noise
    block, refresh the spatial covariance and the noise block from the
    orthogonal constraint.  Finally emit ``y = W x``.  Real, integer and
    single-precision bins are cast to complex128 first, so they stream as
    their complex128 values do.
    """
    cfg = state.config
    x = np.asarray(frame.bins, dtype=np.complex128)
    if x.shape != (state.n_bins, cfg.n_channels):
        raise ValueError(
            f"frame {frame.index}: got {x.shape}, state expects "
            f"({state.n_bins}, {cfg.n_channels})"
        )
    if not np.all(np.isfinite(x)):
        raise ValueError(f"frame {frame.index}: non-finite spectrum")

    alpha = cfg.forgetting
    n_src = cfg.n_sources
    xxh = x[:, :, None] * x[:, None, :].conj()

    for n in range(n_src):
        weight = contrast_weight(state, x, n)
        update_weighted_cov(state.V[n], xxh, weight, alpha)
        try:
            u = _inverse_column(state.W, n, n_src, cfg.loading)
            if cfg.algorithm is Algorithm.AUXIVA:
                state.W[:, n, :] = ip_update(u, state.V[n], cfg.loading).conj()
            elif cfg.algorithm is Algorithm.OVERIVA:
                if state.frame_index % INVERSE_REFRESH == 0:
                    state.P[n] = numerics.scaled_inverse(state.V[n], cfg.loading)
                else:
                    update_inverse(state.P[n], state.V[n], x, weight, alpha)
                state.W[:, n, :] = ip_update(u, state.V[n], cfg.loading, state.P[n]).conj()
            else:
                # both sub-updates read the same pre-update W, hence one u
                w1 = bilinear_update(u, state.V[n], state.w2[n], "left", cfg.loading)
                w2 = bilinear_update(u, state.V[n], w1, "right", cfg.loading)
                # move the scale into w2 so w1 stays unit-norm
                scale = np.linalg.norm(w1, axis=-1)[..., None]
                state.w1[n] = w1 / scale
                state.w2[n] = w2 * scale
                state.W[:, n, :] = numerics.kron(state.w1[n], state.w2[n]).conj()
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"frame {state.frame_index}, source {n}: {exc}"
            ) from exc

    if n_src < cfg.n_channels:
        update_weighted_cov(state.C, xxh, 1.0, alpha)
        try:
            state.W[:, n_src:, :n_src] = oc_update(state.C, state.W[:, :n_src, :], cfg.loading)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"frame {state.frame_index}, noise block: {exc}") from exc

    y = np.einsum("inm,im->ni", state.W[:, :n_src, :], x)
    estimate = SourceEstimate(y=y, frame_index=state.frame_index)
    state.frame_index += 1
    return estimate


def projection_back(
    state: SeparatorState, y: np.ndarray, reference_channel: int = 0
) -> np.ndarray:
    """Rescale separated spectra toward the source image at one microphone.

    Multiplies source ``n``'s spectrum in each bin by ``(W^{-1})[ref, n]``,
    resolving the per-bin scaling ambiguity of the demixing solution.
    """
    cfg = state.config
    n_src, ref = cfg.n_sources, reference_channel
    if not 0 <= ref < cfg.n_channels:
        raise ValueError(f"reference channel {ref} out of range")
    if n_src == cfg.n_channels:
        row = numerics.solve_column(np.swapaxes(state.W, -1, -2), ref, cfg.loading)
    else:
        s_mat, j, c = _source_block(state.W, n_src, cfg.loading)
        s_t = np.swapaxes(s_mat, -1, -2)
        if ref < n_src:
            row = numerics.solve_column(s_t, ref)
        else:
            rhs = (c * j[ref - n_src]).T[..., None]
            row = numerics.solve_general(s_t, rhs, context="projection_back")[..., 0]
    return y * row.T[: y.shape[0]]
