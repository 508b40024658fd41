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
at the reference channel.  Estimate sets stacked along leading axes (each
engine of one benchmark seed) are split together, so they share one
factorization per segment and target.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, replace

import numpy as np
from scipy.fft import irfft, next_fast_len, rfft
from scipy.linalg import LinAlgError, cho_factor, cho_solve

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
        if not (np.isfinite(self.segment_seconds) and self.segment_seconds > 0):
            raise ValueError(
                f"segment_seconds must be finite and positive, got {self.segment_seconds}"
            )
        if self.filter_length < 1:
            raise ValueError("filter_length must be >= 1")
        if self.reference_channel < 0:
            raise ValueError("reference_channel must be >= 0")


def segment_samples(config: EvalConfig, sample_rate: int) -> int:
    """Length of one evaluation segment in samples, ``segment_seconds``
    rounded at ``sample_rate``; a segment under one sample is a
    ``ValueError``."""
    seg = int(round(config.segment_seconds * sample_rate))
    if seg < 1:
        raise ValueError(
            f"segment of {config.segment_seconds} s is under one sample at {sample_rate} Hz"
        )
    return seg


@dataclass
class Decomposition:
    """Orthogonal split of an estimate, or of each stacked one, on the
    convolution domain.

    All three parts have the estimate's leading shape, are
    ``filter_length - 1`` samples longer than it, and sum exactly to the
    zero-padded estimate.
    """

    target: np.ndarray
    interference: np.ndarray
    artifact: np.ndarray


def decompose(
    estimate: np.ndarray,
    references: np.ndarray,
    filter_length: int,
    target_index: int = 0,
) -> Decomposition:
    """Project estimates onto shifted-reference spans.

    ``references`` holds the true source images at the evaluation channel,
    one row per source.  The target part is the least-squares projection
    onto shifts (0..filter_length-1) of the row selected by
    ``target_index``; interference is the extra component captured by all
    rows together; the artifact is what no allowed filter can explain.

    ``estimate`` may stack signals along leading axes; all of them share
    one Cholesky factorization of the block-Toeplitz Gram.  The target row
    is ordered first, so the leading L x L block of that factor is the
    factor of the target's own block.  Correlations and projections are
    products at one FFT size.
    """
    est = np.asarray(estimate, dtype=float)
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    n_refs, n_samples = refs.shape
    if est.shape[-1:] != (n_samples,):
        raise ValueError(
            f"estimate shape {est.shape} does not end in the reference length {n_samples}"
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
    sig = est.reshape(-1, n_samples)
    order = [target_index] + [n for n in range(n_refs) if n != target_index]
    ref_spec = rfft(refs[order], n_fft)

    def xcorr(spec):  # [k, n, d] = sum_u ref_n[u] x_k[u + d], x_k the signal of spec[k]
        return irfft(ref_spec.conj() * spec[:, None], n_fft)

    def project(coef):  # sum_n ref_n convolved with coef[k, n], for each k
        n = coef.shape[1]
        return irfft(np.sum(ref_spec[:n] * rfft(coef, n_fft), axis=1), n_fft)[:, :out_len]

    # Gram block (n, m) holds at (i, j) the correlation of ref_n with ref_m at lag i - j
    shift = np.subtract.outer(np.arange(lags), np.arange(lags)) % n_fft
    gram = xcorr(ref_spec)[:, :, shift].transpose(1, 2, 0, 3).reshape(n_refs * lags, -1)
    rhs = xcorr(rfft(sig, n_fft))[..., :lags]  # (signals, references, lags)
    try:
        factor = cho_factor(gram)
    except LinAlgError as exc:
        raise ValueError(
            "references are rank deficient over the allowed-distortion span"
        ) from exc
    coef_all = cho_solve(factor, rhs.reshape(len(sig), -1).T).T
    coef_tgt = cho_solve((factor[0][:lags, :lags], factor[1]), rhs[:, 0].T).T
    proj_all = project(coef_all.reshape(len(sig), n_refs, lags))
    proj_tgt = project(coef_tgt[:, None])

    padded = np.pad(sig, ((0, 0), (0, lags - 1)))
    shape = est.shape[:-1] + (out_len,)
    return Decomposition(
        target=proj_tgt.reshape(shape),
        interference=(proj_all - proj_tgt).reshape(shape),
        artifact=(padded - proj_all).reshape(shape),
    )


def _ratio_db(num, den):
    with np.errstate(divide="ignore", invalid="ignore"):
        db = 10.0 * np.log10(num / den)
    return np.where(num == 0.0, -np.inf, db)[()]


def sir_sdr(decomposition: Decomposition):
    """Interference and distortion ratios of a decomposition, in dB, one
    per stacked signal (scalars for a single signal).

    Zero target energy reports -inf; zero error energy reports +inf.  The
    sentinels stay as floats here and are clipped only at the CSV boundary.
    """
    e_target = np.sum(decomposition.target**2, axis=-1)
    e_interf = np.sum(decomposition.interference**2, axis=-1)
    e_error = np.sum((decomposition.interference + decomposition.artifact) ** 2, axis=-1)
    return _ratio_db(e_target, e_interf), _ratio_db(e_target, e_error)


@dataclass
class EvalReport:
    """Per-segment ratios and the run-level summaries derived from them.

    Arrays are (n_segments, n_sources), behind any leading axes of stacked
    estimate sets; baselines are the same ratios computed on the
    unprocessed mixture at the reference channel, so improvement = value -
    baseline.  Converged values average the final quarter of the segments,
    ``max(1, n_segments // 4)`` of them.  ``report[k]`` is the report of
    set ``k``.
    """

    t_start_s: np.ndarray
    sir_db: np.ndarray
    sdr_db: np.ndarray
    sir_baseline_db: np.ndarray
    sdr_baseline_db: np.ndarray

    @property
    def n_segments(self) -> int:
        return self.sir_db.shape[-2]

    @property
    def n_sources(self) -> int:
        return self.sir_db.shape[-1]

    def __getitem__(self, k) -> EvalReport:
        if self.sir_db.ndim < 3:
            raise TypeError("a report of one estimate set has no set axis to index")
        return replace(self, sir_db=self.sir_db[k], sdr_db=self.sdr_db[k])

    @property
    def sir_improvement_db(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):  # inf - inf is a flagged NaN, not a bug
            return self.sir_db - self.sir_baseline_db

    @property
    def sdr_improvement_db(self) -> np.ndarray:
        with np.errstate(invalid="ignore"):
            return self.sdr_db - self.sdr_baseline_db

    def _converged(self, per_segment: np.ndarray) -> np.ndarray:
        tail = max(1, self.n_segments // 4)
        with np.errstate(invalid="ignore"):  # a mean over inf and -inf is a NaN, as above
            return per_segment[..., -tail:, :].mean(axis=-2)

    @property
    def converged_sir_db(self) -> np.ndarray:
        return self._converged(self.sir_db)

    @property
    def converged_sdr_db(self) -> np.ndarray:
        return self._converged(self.sdr_db)

    @property
    def converged_sir_improvement_db(self) -> np.ndarray:
        return self._converged(self.sir_improvement_db)

    @property
    def converged_sdr_improvement_db(self) -> np.ndarray:
        return self._converged(self.sdr_improvement_db)

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

    ``estimates`` are (..., n_sources, T), one estimate set per leading
    index, and ``references`` (n_sources, T), with matched source order;
    ``mixture`` is the unprocessed observation at the reference channel and
    anchors the improvement baselines.  Each segment is decomposed
    independently, with every set's estimate of one target and the mixture
    split in one call.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    mix = np.asarray(mixture, dtype=float).reshape(-1)
    if est.shape[-2:] != refs.shape:
        raise ValueError(f"estimates {est.shape} and references {refs.shape} differ")
    if mix.shape[0] != est.shape[-1]:
        raise ValueError("mixture length does not match the estimates")
    n_sources, n_samples = refs.shape
    seg_len = segment_samples(config, sample_rate)
    n_segments = n_samples // seg_len
    if n_segments < 1:
        raise ValueError("signal shorter than one evaluation segment")

    sets = est.reshape(-1, n_sources, n_samples)
    # row k holds set k's ratios, the last row the mixture's
    sir = np.empty((len(sets) + 1, n_segments, n_sources))
    sdr = np.empty_like(sir)
    for s in range(n_segments):
        sl = slice(s * seg_len, (s + 1) * seg_len)
        for n in range(n_sources):
            signals = np.concatenate([sets[:, n, sl], mix[None, sl]])
            sir[:, s, n], sdr[:, s, n] = sir_sdr(
                decompose(signals, refs[:, sl], config.filter_length, n)
            )
    sir0, sdr0 = sir[-1], sdr[-1]
    sir = sir[:-1].reshape(est.shape[:-2] + sir0.shape)
    sdr = sdr[:-1].reshape(sir.shape)
    return EvalReport(
        t_start_s=np.arange(n_segments) * seg_len / float(sample_rate),
        sir_db=sir,
        sdr_db=sdr,
        sir_baseline_db=sir0,
        sdr_baseline_db=sdr0,
    )
