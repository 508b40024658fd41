"""Analysis/synthesis filter bank for multichannel signals.

Analysis applies a periodic Hann window and a one-sided FFT; synthesis is
weighted overlap-add with the numerically computed dual window, which makes
the round trip an identity (to float precision) wherever every overlapping
frame exists.  Only complete frames are emitted, so the last partial hop of
a signal is dropped; the synthesized signal is zero-filled there and the
first/last ``fft_size`` samples are outside the perfect-reconstruction
region.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class StftConfig:
    fft_size: int = 1024
    hop: int = 256
    sample_rate: int = 16000

    def __post_init__(self):
        if self.fft_size <= 0 or self.hop <= 0:
            raise ValueError("fft_size and hop must be positive")
        if self.fft_size % self.hop != 0:
            raise ValueError(f"hop {self.hop} must divide fft_size {self.fft_size}")
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")

    @property
    def n_bins(self) -> int:
        return self.fft_size // 2 + 1


@dataclass
class SpectralFrame:
    """One STFT time frame: ``bins[i, m]`` is bin ``i`` of channel ``m``."""

    bins: np.ndarray  # (n_bins, n_channels) complex128
    index: int
    config: StftConfig = field(repr=False, default=StftConfig())

    @property
    def n_channels(self) -> int:
        return self.bins.shape[1]


def analysis_window(cfg: StftConfig) -> np.ndarray:
    """Periodic Hann window of length ``fft_size``."""
    n = cfg.fft_size
    return 0.5 - 0.5 * np.cos(2.0 * np.pi * np.arange(n) / n)


def synthesis_window(cfg: StftConfig) -> np.ndarray:
    """Dual window for weighted overlap-add: ``w / sum_k w^2(t - k hop)``.

    The denominator is the hop-periodic squared-window sum, so the
    analysis/synthesis pair satisfies constant overlap-add exactly in the
    interior for any hop that divides the frame length.
    """
    w = analysis_window(cfg)
    overlap = cfg.fft_size // cfg.hop
    denom = w**2
    denom = denom.reshape(overlap, cfg.hop).sum(axis=0)
    return w / np.tile(denom, overlap)


def n_frames(n_samples: int, cfg: StftConfig) -> int:
    """Number of complete frames in a signal of the given length."""
    if n_samples < cfg.fft_size:
        raise ValueError(f"signal of {n_samples} samples shorter than one frame ({cfg.fft_size})")
    return (n_samples - cfg.fft_size) // cfg.hop + 1


def analyze(signal: np.ndarray, cfg: StftConfig) -> list[SpectralFrame]:
    """Transform a multichannel signal to a sequence of spectral frames.

    Parameters
    ----------
    signal : (n_channels, n_samples) or (n_samples,) real array
    cfg : StftConfig

    Returns
    -------
    list of SpectralFrame; frame ``j`` covers samples
    ``[j * hop, j * hop + fft_size)``.
    """
    signal = np.atleast_2d(np.asarray(signal, dtype=np.float64))
    n_ch, n_samples = signal.shape
    if n_ch == 0 or n_samples == 0:
        raise ValueError("analyze requires a non-empty signal")
    total = n_frames(n_samples, cfg)
    win = analysis_window(cfg)
    frames = []
    for j in range(total):
        seg = signal[:, j * cfg.hop : j * cfg.hop + cfg.fft_size]
        spec = np.fft.rfft(seg * win, axis=1).T  # (n_bins, n_channels)
        frames.append(SpectralFrame(bins=spec, index=j, config=cfg))
    return frames


def synthesize(frames: list[SpectralFrame], cfg: StftConfig, n_samples: int | None = None) -> np.ndarray:
    """Weighted overlap-add resynthesis of a frame sequence.

    ``n_samples`` trims or zero-pads the result to a target length (e.g. to
    match the analyzed signal); by default the natural length
    ``(n_frames - 1) * hop + fft_size`` is returned.

    Returns
    -------
    (n_channels, n_samples) float64 array
    """
    if not frames:
        raise ValueError("synthesize requires at least one frame")
    for f in frames:
        if f.config != cfg:
            raise ValueError(f"frame {f.index} was produced under a different StftConfig")
        if f.bins.shape[0] != cfg.n_bins:
            raise ValueError(f"frame {f.index} has {f.bins.shape[0]} bins, expected {cfg.n_bins}")
    n_ch = frames[0].n_channels
    natural = (len(frames) - 1) * cfg.hop + cfg.fft_size
    out = np.zeros((n_ch, natural))
    win = synthesis_window(cfg)
    for j, f in enumerate(frames):
        seg = np.fft.irfft(f.bins.T, n=cfg.fft_size, axis=1)
        out[:, j * cfg.hop : j * cfg.hop + cfg.fft_size] += seg * win
    if n_samples is None:
        return out
    if n_samples <= natural:
        return out[:, :n_samples]
    return np.pad(out, ((0, 0), (0, n_samples - natural)))
