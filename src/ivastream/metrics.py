"""Segment-wise SIR/SDR evaluation against reference source images.

An estimate is split into target, interference, and artifact parts by
orthogonal projection onto the spans of time-shifted reference images
(shifts up to an allowed-distortion filter length).  Projections live on
the linear-convolution domain (length T + L - 1), so the Gram matrix is
exactly block-Toeplitz and the parts sum to the zero-padded estimate; the
decomposition is orthogonal, making the energy split exact up to solver
accuracy.  Ratios follow the usual conventions:

    SIR = 10 log10(||target||^2 / ||interference||^2)
    SDR = 10 log10(||target||^2 / ||interference + artifact||^2)

Curves are computed over non-overlapping segments, each projected
independently, with improvements reported against the unprocessed mixture
at the reference channel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import LinAlgError, cho_factor, cho_solve, toeplitz
from scipy.signal import fftconvolve

# value written to CSV in place of non-finite ratios, with clipped_flag set
CSV_SENTINEL_DB = 1e9

CSV_COLUMNS = (
    "segment_index",
    "t_start_s",
    "source",
    "sir_db",
    "sdr_db",
    "sir_improvement_db",
    "sdr_improvement_db",
    "clipped_flag",
)


@dataclass(frozen=True)
class EvalConfig:
    """Evaluation settings.

    ``segment_seconds`` is the non-overlapping window the curve is computed
    over; ``filter_length`` is the allowed-distortion span in taps (512 for
    reporting, 32 keeps CI fast); ``reference_channel`` indexes the
    microphone whose mixture and source images anchor the comparison.
    """

    segment_seconds: float = 2.0
    filter_length: int = 512
    reference_channel: int = 0

    def __post_init__(self):
        if self.segment_seconds <= 0:
            raise ValueError("segment_seconds must be positive")
        if self.filter_length < 1:
            raise ValueError("filter_length must be >= 1")
        if self.reference_channel < 0:
            raise ValueError("reference_channel must be >= 0")


@dataclass
class Decomposition:
    """Orthogonal split of one estimate on the convolution domain.

    All three parts have length ``n_samples + filter_length - 1`` and sum
    exactly to the zero-padded estimate.
    """

    target: np.ndarray
    interference: np.ndarray
    artifact: np.ndarray
    n_samples: int


def _lag_correlations(spec_a: np.ndarray, spec_b: np.ndarray, n_fft: int, n_lags: int):
    """Correlations sum_u a[u] b[u + d] for d in 0..n_lags-1 and their
    negative-lag mirror, via one inverse FFT."""
    cc = irfft(np.conj(spec_a) * spec_b, n_fft)
    pos = cc[:n_lags]
    neg = np.concatenate(([cc[0]], cc[n_fft - n_lags + 1 :][::-1]))
    return pos, neg


def decompose(
    estimate: np.ndarray,
    references: np.ndarray,
    filter_length: int,
    target_index: int = 0,
) -> Decomposition:
    """Project an estimate onto shifted-reference spans.

    ``references`` holds the true source images at the evaluation channel,
    one row per source.  The target part is the least-squares projection
    onto shifts (0..filter_length-1) of the row selected by
    ``target_index``; interference is the extra component captured by all
    rows together; the artifact is what no allowed filter can explain.
    """
    est = np.asarray(estimate, dtype=float).reshape(-1)
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    n_refs, n_samples = refs.shape
    if est.shape[0] != n_samples:
        raise ValueError(
            f"estimate length {est.shape[0]} != reference length {n_samples}"
        )
    if not 0 <= target_index < n_refs:
        raise ValueError(f"target_index {target_index} out of range for {n_refs} references")
    if filter_length < 1:
        raise ValueError("filter_length must be >= 1")
    energies = np.sum(refs**2, axis=1)
    if np.any(energies == 0):
        silent = int(np.nonzero(energies == 0)[0][0])
        raise ValueError(f"reference {silent} is silent over this segment")

    lags = filter_length
    out_len = n_samples + lags - 1
    n_fft = next_fast_len(n_samples + lags)
    ref_spec = rfft(refs, n_fft, axis=-1)
    est_spec = rfft(est, n_fft)

    # right-hand side: correlation of each reference against the estimate
    rhs = np.empty((n_refs, lags))
    for n in range(n_refs):
        rhs[n], _ = _lag_correlations(ref_spec[n], est_spec, n_fft, lags)

    # block-Toeplitz Gram of all shifted references
    gram = np.empty((n_refs * lags, n_refs * lags))
    for n in range(n_refs):
        for m in range(n, n_refs):
            pos, neg = _lag_correlations(ref_spec[n], ref_spec[m], n_fft, lags)
            block = toeplitz(pos, neg)
            gram[n * lags : (n + 1) * lags, m * lags : (m + 1) * lags] = block
            if m != n:
                gram[m * lags : (m + 1) * lags, n * lags : (n + 1) * lags] = block.T

    try:
        coef_all = cho_solve(cho_factor(gram), rhs.reshape(-1))
        t0 = target_index * lags
        sub = slice(t0, t0 + lags)
        coef_tgt = cho_solve(cho_factor(gram[sub, sub]), rhs[target_index])
    except LinAlgError as exc:
        raise ValueError(
            "references are rank deficient over the allowed-distortion span"
        ) from exc

    proj_all = np.zeros(out_len)
    for n in range(n_refs):
        proj_all += fftconvolve(refs[n], coef_all[n * lags : (n + 1) * lags])
    proj_tgt = fftconvolve(refs[target_index], coef_tgt)

    padded = np.zeros(out_len)
    padded[:n_samples] = est
    return Decomposition(
        target=proj_tgt,
        interference=proj_all - proj_tgt,
        artifact=padded - proj_all,
        n_samples=n_samples,
    )


def _ratio_db(num: float, den: float) -> float:
    if num == 0.0:
        return -np.inf
    if den == 0.0:
        return np.inf
    return float(10.0 * np.log10(num / den))


def sir_sdr(decomposition: Decomposition) -> tuple[float, float]:
    """Interference and distortion ratios of one decomposition, in dB.

    Zero target energy reports -inf; zero error energy reports +inf.  The
    sentinels stay as floats here and are clipped only at the CSV boundary.
    """
    e_target = float(np.sum(decomposition.target**2))
    e_interf = float(np.sum(decomposition.interference**2))
    e_error = float(np.sum((decomposition.interference + decomposition.artifact) ** 2))
    return _ratio_db(e_target, e_interf), _ratio_db(e_target, e_error)


@dataclass
class EvalReport:
    """Per-segment ratios plus run-level summaries.

    Arrays are (n_segments, n_sources); baselines are the same ratios
    computed on the unprocessed mixture at the reference channel, so
    improvement = value - baseline.  Converged values average the final
    quarter of the segments.
    """

    t_start_s: np.ndarray
    sir_db: np.ndarray
    sdr_db: np.ndarray
    sir_baseline_db: np.ndarray
    sdr_baseline_db: np.ndarray
    converged_sir_db: np.ndarray
    converged_sdr_db: np.ndarray
    converged_sir_improvement_db: np.ndarray
    converged_sdr_improvement_db: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.sir_db.shape[0]

    @property
    def n_sources(self) -> int:
        return self.sir_db.shape[1]

    @property
    def sir_improvement_db(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf - inf is a flagged NaN, not a bug
            return self.sir_db - self.sir_baseline_db

    @property
    def sdr_improvement_db(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.sdr_db - self.sdr_baseline_db

    def to_csv(self, path) -> None:
        """One row per (segment, source); non-finite ratios are clipped to
        +-1e9 and flagged so the file stays numeric."""
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_COLUMNS)
            for s in range(self.n_segments):
                for n in range(self.n_sources):
                    values = [
                        self.sir_db[s, n],
                        self.sdr_db[s, n],
                        self.sir_improvement_db[s, n],
                        self.sdr_improvement_db[s, n],
                    ]
                    clipped = any(not np.isfinite(v) for v in values)
                    cells = [_clip_db(v) for v in values]
                    writer.writerow(
                        [s, f"{self.t_start_s[s]:.6f}", n]
                        + [f"{v:.6f}" for v in cells]
                        + [int(clipped)]
                    )


def _clip_db(value: float) -> float:
    if np.isnan(value):
        return 0.0
    return float(np.clip(value, -CSV_SENTINEL_DB, CSV_SENTINEL_DB))


def convergence_curve(
    estimates: np.ndarray,
    references: np.ndarray,
    mixture: np.ndarray,
    config: EvalConfig,
    sample_rate: int,
) -> EvalReport:
    """Segment-wise ratios for aligned estimates, one row per segment.

    ``estimates`` and ``references`` are (n_sources, T) with matched source
    order; ``mixture`` is the unprocessed observation at the reference
    channel and anchors the improvement baselines.  Each segment is
    decomposed independently.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    mix = np.asarray(mixture, dtype=float).reshape(-1)
    if est.shape != refs.shape:
        raise ValueError(f"estimates {est.shape} and references {refs.shape} differ")
    if mix.shape[0] != est.shape[1]:
        raise ValueError("mixture length does not match the estimates")
    n_sources, n_samples = est.shape
    seg_len = int(round(config.segment_seconds * sample_rate))
    n_segments = n_samples // seg_len
    if n_segments < 1:
        raise ValueError("signal shorter than one evaluation segment")

    sir = np.empty((n_segments, n_sources))
    sdr = np.empty((n_segments, n_sources))
    sir0 = np.empty((n_segments, n_sources))
    sdr0 = np.empty((n_segments, n_sources))
    for s in range(n_segments):
        sl = slice(s * seg_len, (s + 1) * seg_len)
        ref_seg = refs[:, sl]
        for n in range(n_sources):
            sir[s, n], sdr[s, n] = sir_sdr(
                decompose(est[n, sl], ref_seg, config.filter_length, n)
            )
            sir0[s, n], sdr0[s, n] = sir_sdr(
                decompose(mix[sl], ref_seg, config.filter_length, n)
            )

    tail = max(1, n_segments // 4)
    t_start = np.arange(n_segments) * seg_len / float(sample_rate)

    with np.errstate(invalid="ignore"):  # inf - inf is a flagged NaN, not a bug
        conv_dsir = (sir[-tail:] - sir0[-tail:]).mean(axis=0)
        conv_dsdr = (sdr[-tail:] - sdr0[-tail:]).mean(axis=0)
    return EvalReport(
        t_start_s=t_start,
        sir_db=sir,
        sdr_db=sdr,
        sir_baseline_db=sir0,
        sdr_baseline_db=sdr0,
        converged_sir_db=sir[-tail:].mean(axis=0),
        converged_sdr_db=sdr[-tail:].mean(axis=0),
        converged_sir_improvement_db=conv_dsir,
        converged_sdr_improvement_db=conv_dsdr,
    )
