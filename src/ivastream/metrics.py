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
at the reference channel.  A ``ReferenceBases`` memo keeps the factored
basis of each (segment, target), so every estimate scored against the same
references (each engine of one benchmark seed) shares one factorization.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass

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
        if self.segment_seconds <= 0:
            raise ValueError("segment_seconds must be positive")
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

    All three parts have the estimate's leading shape and length
    ``n_samples + filter_length - 1``, and sum exactly to the zero-padded
    estimate.
    """

    target: np.ndarray
    interference: np.ndarray
    artifact: np.ndarray
    n_samples: int


@dataclass(frozen=True)
class ReferenceBasis:
    """The factored shifted-reference basis of one reference segment and
    target, which ``decompose`` splits estimates against.

    ``ref_spec`` holds the references' spectra at ``n_fft``, target row
    first; ``factor`` is the Cholesky factor of their block-Toeplitz Gram.
    """

    ref_spec: np.ndarray
    factor: tuple
    n_samples: int
    n_fft: int
    filter_length: int
    target_index: int


def reference_basis(
    references: np.ndarray, filter_length: int, target_index: int = 0
) -> ReferenceBasis:
    """Build and factor the basis of ``references`` (one row per source)
    for the target ``target_index``, with shifts 0..filter_length-1.

    A target out of range, a filter length under 1, a reference silent over
    the segment or references whose shifts are rank deficient are a
    ``ValueError``.
    """
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    n_refs, n_samples = refs.shape
    if not 0 <= target_index < n_refs:
        raise ValueError(f"target_index {target_index} out of range for {n_refs} references")
    if filter_length < 1:
        raise ValueError("filter_length must be >= 1")
    energies = np.sum(refs**2, axis=1)
    if np.any(energies == 0):
        silent = int(np.nonzero(energies == 0)[0][0])
        raise ValueError(f"reference {silent} is silent over this segment")

    lags = filter_length
    n_fft = next_fast_len(n_samples + lags)
    order = [target_index] + [n for n in range(n_refs) if n != target_index]
    ref_spec = rfft(refs[order], n_fft)
    # Gram block (n, m) holds at (i, j) the correlation of ref_n with ref_m at lag i - j
    shift = np.subtract.outer(np.arange(lags), np.arange(lags)) % n_fft
    xcorr = irfft(ref_spec.conj() * ref_spec[:, None], n_fft)
    gram = xcorr[:, :, shift].transpose(1, 2, 0, 3).reshape(n_refs * lags, -1)
    try:
        factor = cho_factor(gram)
    except LinAlgError as exc:
        raise ValueError(
            "references are rank deficient over the allowed-distortion span"
        ) from exc
    return ReferenceBasis(ref_spec, factor, n_samples, n_fft, filter_length, target_index)


class ReferenceBases:
    """The bases of one stream's references, each built the first time its
    (start, stop, target) is asked for and kept while the memo lives.

    One memo per stream lets every estimate scored against the same
    references share one factorization per segment and target.  A basis
    that fails to build is not kept: asking for it again raises again.
    """

    def __init__(self, references: np.ndarray, filter_length: int):
        self.references = np.atleast_2d(np.asarray(references, dtype=float))
        self.filter_length = filter_length
        self._bases: dict[tuple, ReferenceBasis] = {}

    @classmethod
    def of(
        cls, references, filter_length: int, bases: ReferenceBases | None = None
    ) -> ReferenceBases:
        """``bases`` if given, after checking that it holds these references
        at this filter length; else a new memo for them."""
        if bases is None:
            return cls(references, filter_length)
        if bases.filter_length != filter_length or not np.array_equal(
            bases.references, np.atleast_2d(references)
        ):
            raise ValueError("reference bases were built for other references or filter length")
        return bases

    def get(self, start: int, stop: int, target_index: int) -> ReferenceBasis:
        """The basis of ``references[:, start:stop]`` for ``target_index``."""
        key = (start, stop, target_index)
        if key not in self._bases:
            self._bases[key] = reference_basis(
                self.references[:, start:stop], self.filter_length, target_index
            )
        return self._bases[key]


def decompose(
    estimate: np.ndarray,
    references: np.ndarray,
    filter_length: int,
    target_index: int = 0,
    basis: ReferenceBasis | None = None,
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
    products at one FFT size.  ``basis``, the ``reference_basis`` of these
    references, filter length and target, skips building it again.
    """
    est = np.asarray(estimate, dtype=float)
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    n_refs, n_samples = refs.shape
    if est.shape[-1:] != (n_samples,):
        raise ValueError(
            f"estimate shape {est.shape} does not end in the reference length {n_samples}"
        )
    if basis is None:
        basis = reference_basis(refs, filter_length, target_index)
    elif (basis.ref_spec.shape[0], basis.n_samples, basis.filter_length,
          basis.target_index) != (n_refs, n_samples, filter_length, target_index):
        raise ValueError("basis was built for other references, filter length or target")

    lags = filter_length
    out_len = n_samples + lags - 1
    n_fft, ref_spec, factor = basis.n_fft, basis.ref_spec, basis.factor
    sig = est.reshape(-1, n_samples)

    def project(coef):  # sum_n ref_n convolved with coef[k, n], for each k
        n = coef.shape[1]
        return irfft(np.sum(ref_spec[:n] * rfft(coef, n_fft), axis=1), n_fft)[:, :out_len]

    # [k, n, d] = sum_u ref_n[u] sig_k[u + d]
    rhs = irfft(ref_spec.conj() * rfft(sig, n_fft)[:, None], n_fft)[..., :lags]
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
        n_samples=n_samples,
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
    *,
    bases: ReferenceBases | None = None,
) -> EvalReport:
    """Segment-wise ratios for aligned estimates, one row per segment.

    ``estimates`` and ``references`` are (n_sources, T) with matched source
    order; ``mixture`` is the unprocessed observation at the reference
    channel and anchors the improvement baselines.  Each segment is
    decomposed independently, with the estimate and the mixture of one
    target split in one call.  ``bases``, a memo over these references,
    shares each segment's factorization with other calls on them.
    """
    est = np.atleast_2d(np.asarray(estimates, dtype=float))
    refs = np.atleast_2d(np.asarray(references, dtype=float))
    mix = np.asarray(mixture, dtype=float).reshape(-1)
    if est.shape != refs.shape:
        raise ValueError(f"estimates {est.shape} and references {refs.shape} differ")
    if mix.shape[0] != est.shape[1]:
        raise ValueError("mixture length does not match the estimates")
    n_sources, n_samples = est.shape
    seg_len = segment_samples(config, sample_rate)
    n_segments = n_samples // seg_len
    if n_segments < 1:
        raise ValueError("signal shorter than one evaluation segment")
    bases = ReferenceBases.of(refs, config.filter_length, bases)

    sir = np.empty((n_segments, n_sources))
    sdr = np.empty((n_segments, n_sources))
    sir0 = np.empty((n_segments, n_sources))
    sdr0 = np.empty((n_segments, n_sources))
    for s in range(n_segments):
        sl = slice(s * seg_len, (s + 1) * seg_len)
        ref_seg = refs[:, sl]
        for n in range(n_sources):
            pair = np.stack([est[n, sl], mix[sl]])
            basis = bases.get(sl.start, sl.stop, n)
            (sir[s, n], sir0[s, n]), (sdr[s, n], sdr0[s, n]) = sir_sdr(
                decompose(pair, ref_seg, config.filter_length, n, basis)
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
