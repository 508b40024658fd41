"""Online separation engines: AuxIVA, OverIVA and bilinear OverIVA.

All three share the same recursive statistics: a contrast weight computed
once per source and frame from the previous frame's filters, exponentially
weighted covariances driving iterative-projection (IP) filter updates, and
(for the overdetermined engines) an orthogonal-constraint update of the
noise block.  The bilinear engine additionally factors each source
extraction filter of length ``M`` into a Kronecker product of two
sub-filters of lengths ``M1 * M2 == M`` and updates them alternately.

Every filter update starts from ``u = W^{-1} e_n``, solved once per source
and pass.  :func:`ip_update` solves ``V w = u`` and normalizes ``w^H V w``
to 1; the two bilinear updates are the same IP step on the covariance and
on ``u`` lifted through the held sub-filter (``Delta^H V Delta`` and
``Delta^H u``), and both read the same ``u``.

State layout per frequency bin ``i`` (states store all bins stacked):

* ``W[i]`` is the full demixing matrix; row ``n < N`` equals the conjugate
  transpose of source ``n``'s extraction filter, rows ``N..M`` form the
  noise block ``[J, -I]``
* ``V[n, i]`` and ``C[i]`` are the weighted and unweighted covariance
  recursions
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
    noise block ``[0, -I]``, identity covariances.  The bilinear engine's
    sub-filters are the unit vectors ``e_{n // M2}`` and ``e_{n % M2}``,
    whose Kronecker product is that same row ``e_n``."""
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
    c = np.tile(np.eye(m, dtype=np.complex128), (n_bins, 1, 1))
    return SeparatorState(config=config, n_bins=n_bins, W=w_mat, V=v, C=c, J=j, w1=w1, w2=w2)


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


def ip_update(u: np.ndarray, v: np.ndarray, loading: float = 0.0) -> np.ndarray:
    """Iterative-projection update of one extraction filter.

    Given ``u = W^{-1} e_n``, solves ``V w = u`` and normalizes so that
    ``w^H V w == 1``.  Batched over leading axes.
    """
    w = numerics.hermitian_solve(v, u, loading)
    q = _quadratic_form(w, v)
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


def process_frame(state: SeparatorState, frame: SpectralFrame) -> SourceEstimate:
    """Advance one stream by one frame and return the separated spectra.

    Per frame: refresh the spatial covariance once; then per source in
    ascending order compute the contrast weight from the carried-over
    filter, refresh that source's weighted covariances, and run the
    algorithm's filter update (writing the source's demixing row so later
    sources see it); finally refresh the noise block from the orthogonal
    constraint and emit ``y = W x``.
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

    for n in range(n_src):
        update_weighted_cov(state.V[n], xxh, contrast_weight(state, x, n), alpha)
        try:
            for _ in range(cfg.inner_iters):
                u = numerics.solve_column(state.W, n, cfg.loading)
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
                    state.W[:, n, :] = ip_update(u, state.V[n], cfg.loading).conj()
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
    if not 0 <= reference_channel < cfg.n_channels:
        raise ValueError(f"reference channel {reference_channel} out of range")
    # row `ref` of W^{-1} is column `ref` of (W^T)^{-1}
    row = numerics.solve_column(
        np.swapaxes(state.W, -1, -2), reference_channel, cfg.loading
    )  # (I, M)
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
