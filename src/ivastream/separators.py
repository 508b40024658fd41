"""Online separation engines: AuxIVA, OverIVA and bilinear OverIVA.

All three share the same recursive statistics: a contrast weight computed
once per source and frame from the previous frame's filters, exponentially
weighted covariances driving iterative-projection (IP) filter updates, and
(for the overdetermined engines) an orthogonal-constraint update of the
noise block.  The bilinear engine additionally factors each source
extraction filter of length ``M`` into a Kronecker product of two
sub-filters of lengths ``M1 * M2 == M`` and updates them alternately.

Every filter update starts from ``u = W^{-1} e_n``, solved once per source
and pass.  With more channels than sources the noise rows ``[J, -I]`` reduce
that solve, and projection back's, to an N x N system (:func:`_source_block`).
:func:`ip_update` solves ``V w = u`` and normalizes ``w^H V w``
to 1; the two bilinear updates are the same IP step on the covariance and
on ``u`` lifted through the held sub-filter (``Delta^H V Delta`` and
``Delta^H u``), and both read the same ``u``.  AuxIVA and OverIVA solve
with the inverse of ``V``, which :func:`update_inverse` tracks by rank-1 updates
(as in online AuxIVA, Taniguchi et al., HSCMA 2014); the bilinear engine's
lifted covariance changes with the held sub-filter every frame, so it
solves exactly.

State layout per frequency bin ``i`` (states store all bins stacked):

* ``W[i]`` is the full demixing matrix; row ``n < N`` equals the conjugate
  transpose of source ``n``'s extraction filter, rows ``N..M`` form the
  noise block ``[J, -I]``
* ``V[n, i]`` and ``C[i]`` are the weighted and unweighted covariance
  recursions; ``P[n, i]`` tracks the inverse of ``V[n, i]`` scaled to unit
  mean eigenvalue (AuxIVA and OverIVA)
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
# refreshes, 206 of overiva's and 1072 of auxiva's IP steps had bins whose
# solution from P failed the residual test; with a refresh every 16 to 128
# frames none did (P's backward error as an inverse stayed at 1.3e-12 or
# less).  At 128 frames P ended the stream 14x further from the checked
# inverse than at 16 to 64.
INVERSE_REFRESH = 32


@dataclass(frozen=True)
class SeparatorConfig:
    """Knobs of one separation stream.

    ``forgetting`` defaults per algorithm (0.96 AuxIVA, 0.99 OverIVA,
    0.98 bilinear).  ``inner_iters`` counts filter-update passes per source
    and frame; 0 disables filter and noise-block updates entirely (the
    statistics still run), which is useful as a pass-through debug mode.
    """

    n_channels: int
    n_sources: int
    algorithm: Algorithm = Algorithm.OVERIVA
    sub_len_1: int | None = None
    sub_len_2: int | None = None
    forgetting: float | None = None
    inner_iters: int = 1
    loading: float = 1e-9

    def __post_init__(self):
        algo = Algorithm(self.algorithm)
        object.__setattr__(self, "algorithm", algo)
        if self.forgetting is None:
            object.__setattr__(self, "forgetting", _DEFAULT_FORGETTING[algo])
        if self.n_sources < 1:
            raise ValueError("n_sources must be >= 1")
        if not 0.0 < self.forgetting <= 1.0:
            raise ValueError("forgetting factor must be in (0, 1]")
        if self.inner_iters < 0:
            raise ValueError("inner_iters must be >= 0")
        if self.loading < 0:
            raise ValueError("loading must be >= 0")
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


@dataclass
class SeparatorState:
    """All adaptive quantities of one stream; mutated by process_frame."""

    config: SeparatorConfig
    n_bins: int
    W: np.ndarray  # (I, M, M)
    V: np.ndarray  # (N, I, M, M)
    P: np.ndarray | None  # (N, I, M, M) tracked (V / (tr V / M))^{-1}; None for biiva
    C: np.ndarray  # (I, M, M)
    J: np.ndarray | None  # (I, M-N, N)
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
    noise block ``[0, -I]``, identity covariances and inverses.  The
    bilinear engine's sub-filters are the unit vectors ``e_{n // M2}`` and
    ``e_{n % M2}``, whose Kronecker product is that same row ``e_n``."""
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
    j = None
    if m > n_src:
        j = np.zeros((n_bins, m - n_src, n_src), dtype=np.complex128)
        w_mat[:, n_src:, n_src:] = -np.eye(m - n_src)
    v = np.tile(np.eye(m, dtype=np.complex128), (n_src, n_bins, 1, 1))
    p = None if config.algorithm is Algorithm.BIIVA else v.copy()
    c = np.tile(np.eye(m, dtype=np.complex128), (n_bins, 1, 1))
    return SeparatorState(config=config, n_bins=n_bins, W=w_mat, V=v, P=p, C=c, J=j, w1=w1, w2=w2)


def _quadratic_form(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Real part of ``w^H V w`` over leading batch axes."""
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


def update_inverse(
    p: np.ndarray, v: np.ndarray, x: np.ndarray, weight: float, alpha: float, loading: float
) -> None:
    """Keep ``P = (V / t)^{-1}``, ``t = tr(V) / M``, in step with
    ``update_weighted_cov(v, x x^H, weight, alpha)``, in place; call it
    after that update.  Scaling ``V`` to unit mean eigenvalue keeps ``P``
    within range whatever the scale the weights give ``V``.

    With ``t`` the new trace scale, the scaled recursion is ``V / t <-
    a (V / t) + b x x^H`` with ``b = (1 - alpha) weight / t`` and ``a = 1 -
    b |x|^2 / M``, so by Sherman-Morrison ``P <- (P - b z z^H / (a + b x^H
    z)) / a`` with ``z = P x``.  Bins where ``a`` or that denominator is not
    positive and finite take ``P`` from the updated ``V`` by
    :func:`numerics.scaled_inverse` instead.
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
    bad = ~((a > 0.0) & (den > 0.0) & np.isfinite(den))
    if np.any(bad):
        p[bad] = numerics.scaled_inverse(v[bad], loading)


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


def bilinear_update_1(
    u: np.ndarray, v: np.ndarray, w2: np.ndarray, loading: float = 0.0
) -> np.ndarray:
    """Alternating IP update of the first sub-filter, second one held fixed:
    the IP step on ``V`` and ``u = W^{-1} e_n`` lifted through
    ``Delta = I (x) w2``."""
    delta = numerics.lift_left(w2, v.shape[-1] // w2.shape[-1])  # (..., M, M1)
    rhs = np.einsum("...mk,...m->...k", delta.conj(), u)
    return ip_update(rhs, numerics.congruence(delta, v), loading)


def bilinear_update_2(
    u: np.ndarray, v: np.ndarray, w1: np.ndarray, loading: float = 0.0
) -> np.ndarray:
    """Mirror of bilinear_update_1 for the second sub-filter (first fixed),
    lifted through ``Delta = w1 (x) I``."""
    delta = numerics.lift_right(w1, v.shape[-1] // w1.shape[-1])  # (..., M, M2)
    rhs = np.einsum("...mk,...m->...k", delta.conj(), u)
    return ip_update(rhs, numerics.congruence(delta, v), loading)


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
    ``W``, stays far below 1).  Without a noise block (M == N) ``S`` is
    ``W_l`` itself.  Returns ``(S, J, c)``, ``c`` shaped (..., 1, 1).
    """
    s = numerics.frobenius_shift(w, loading)[..., None, None]
    c = 1.0 / (1.0 - s)
    j = w[..., n_src:, :n_src]
    bj = np.einsum("...ik,...kj->...ij", w[..., :n_src, n_src:], j)
    return w[..., :n_src, :n_src] + s * np.eye(n_src) + c * bj, j, c


def _inverse_column(w: np.ndarray, n: int, n_src: int, loading: float) -> np.ndarray:
    """Column ``n < N`` of the loaded ``W^{-1}``, as ``numerics.solve_column``
    gives it, through :func:`_source_block`."""
    s_mat, j, c = _source_block(w, n_src, loading)
    u = numerics.solve_column(s_mat, n)
    return np.concatenate([u, c[..., 0] * np.einsum("...ij,...j->...i", j, u)], axis=-1)


def process_frame(state: SeparatorState, frame: SpectralFrame) -> SourceEstimate:
    """Advance one stream by one frame and return the separated spectra.

    Per frame: refresh the spatial covariance once; then per source in
    ascending order compute the contrast weight from the carried-over
    filter, refresh that source's weighted covariance and its tracked
    inverse (from a checked solve every ``INVERSE_REFRESH`` frames), and run
    the algorithm's filter update (writing the source's demixing row so
    later sources see it); finally refresh the noise block from the
    orthogonal constraint and emit ``y = W x``.
    """
    cfg = state.config
    x = np.asarray(frame.bins)
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
    update_weighted_cov(state.C, xxh, 1.0, alpha)
    refresh = state.frame_index % INVERSE_REFRESH == 0

    for n in range(n_src):
        weight = contrast_weight(state, x, n)
        update_weighted_cov(state.V[n], xxh, weight, alpha)
        try:
            if state.P is not None:
                if refresh:
                    state.P[n] = numerics.scaled_inverse(state.V[n], cfg.loading)
                else:
                    update_inverse(state.P[n], state.V[n], x, weight, alpha, cfg.loading)
            for _ in range(cfg.inner_iters):
                u = _inverse_column(state.W, n, n_src, cfg.loading)
                if cfg.algorithm is Algorithm.BIIVA:
                    # both sub-updates read the same pre-update W, hence one u
                    w1 = bilinear_update_1(u, state.V[n], state.w2[n], cfg.loading)
                    w2 = bilinear_update_2(u, state.V[n], w1, cfg.loading)
                    # move the scale into w2 so w1 stays unit-norm
                    scale = np.linalg.norm(w1, axis=-1)[..., None]
                    state.w1[n] = w1 / scale
                    state.w2[n] = w2 * scale
                    state.W[:, n, :] = numerics.kron(state.w1[n], state.w2[n]).conj()
                else:
                    state.W[:, n, :] = ip_update(u, state.V[n], cfg.loading, state.P[n]).conj()
        except SingularMatrixError as exc:
            raise SingularMatrixError(
                f"frame {state.frame_index}, source {n}: {exc}"
            ) from exc

    if cfg.algorithm is not Algorithm.AUXIVA and cfg.inner_iters > 0:
        try:
            state.J = oc_update(state.C, state.W[:, :n_src, :], cfg.loading)
        except SingularMatrixError as exc:
            raise SingularMatrixError(f"frame {state.frame_index}, noise block: {exc}") from exc
        state.W[:, n_src:, :n_src] = state.J
        state.W[:, n_src:, n_src:] = -np.eye(cfg.n_channels - n_src)

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
    s_mat, j, c = _source_block(state.W, n_src, cfg.loading)
    s_t = np.swapaxes(s_mat, -1, -2)
    if ref < n_src:
        row = numerics.solve_column(s_t, ref)
    else:
        row = numerics.solve_general(s_t, c * j[..., ref - n_src, :, None],
                                     context="projection_back")[..., 0]
    return y * row.T[: y.shape[0]]


def aux_objective(w_mat: np.ndarray, v: np.ndarray) -> float:
    """Auxiliary (majorizer) objective for frozen weighted covariances.

    ``sum_{n,i} w_{n,i}^H V_{n,i} w_{n,i} - 2 sum_i log|det W_i|`` with
    ``w_{n,i}`` the conjugate of row ``n`` of ``W_i``.  Used to check that
    IP sweeps never increase the majorizer.
    """
    w_mat = np.asarray(w_mat)
    v = np.asarray(v)
    n_src = v.shape[0]
    total = 0.0
    for n in range(n_src):
        total += float(np.sum(_quadratic_form(w_mat[:, n, :].conj(), v[n])))
    _, logdet = np.linalg.slogdet(w_mat)
    return total - 2.0 * float(np.sum(logdet))


def separate_stream(
    frames: list[SpectralFrame],
    config: SeparatorConfig,
    reference_channel: int | None = None,
) -> np.ndarray:
    """Run a fresh state over a frame sequence.

    Returns the separated spectra as an (n_frames, N, I) array; when
    ``reference_channel`` is given, spectra are projection-back scaled to
    that microphone frame by frame (still strictly online).
    """
    if not frames:
        raise ValueError("no frames to separate")
    state = init_state(config, frames[0].bins.shape[0])
    out = np.empty((len(frames), config.n_sources, state.n_bins), dtype=np.complex128)
    for j, frame in enumerate(frames):
        est = process_frame(state, frame)
        if reference_channel is None:
            out[j] = est.y
        else:
            out[j] = projection_back(state, est.y, reference_channel)
    return out
