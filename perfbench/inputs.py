"""Seeded inputs the workloads feed to ivastream.

* :func:`far_field_grid` builds the ``scale_m16`` scene directly in the STFT
  domain: a 4x4 planar grid whose far-field steering vectors are exactly
  ``kron(a_x, a_y)``, two non-stationary sources, three stationary point
  noises and a spherically diffuse floor.
* :func:`derived_manifest` writes the ``pipeline_desk`` manifest: the shipped
  desk manifest with two seeds taken from the command-line seed, a shortened
  duration and absolute config paths.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SPEED_OF_SOUND = 343.0
GRID = (4, 4)
SPACING = 0.06  # metres, as in the shipped desk array
# (azimuth, elevation) in degrees; the geometry is fixed, the seed draws signals
SOURCE_DIRECTIONS = ((30.0, 20.0), (150.0, 35.0))
NOISE_DIRECTIONS = ((80.0, 10.0), (215.0, 50.0), (300.0, 25.0))
ISNR_DB = 20.0  # summed sources over all noise, at microphone 0
DIFFUSE_DB = -15.0  # diffuse floor relative to the point noises
ENVELOPE_HZ = 4.0  # syllable-rate modulation of the sources


@dataclass
class GridScene:
    """STFT-domain mixture ``x[t, i] = A[i] s[:, t, i] + noise[t, i]``."""

    x: np.ndarray  # (T, I, M) observations
    steering: np.ndarray  # (I, M, N) source steering vectors
    sources: np.ndarray  # (N, T, I) source spectra as seen at microphone 0


def _axis_steering(freqs: np.ndarray, n: int, direction_cos: float) -> np.ndarray:
    """Plane-wave phases along one grid axis: (I, n)."""
    delay = np.arange(n) * SPACING * direction_cos / SPEED_OF_SOUND
    return np.exp(-2j * np.pi * freqs[:, None] * delay[None, :])


def grid_steering(freqs: np.ndarray, azimuth_deg: float, elevation_deg: float) -> np.ndarray:
    """Far-field steering of the 4x4 grid, channel ``p * 4 + q`` at grid
    position ``(p, q)``: exactly ``kron(a_x, a_y)`` per bin, (I, 16)."""
    az, el = np.radians(azimuth_deg), np.radians(elevation_deg)
    a_x = _axis_steering(freqs, GRID[0], np.cos(el) * np.cos(az))
    a_y = _axis_steering(freqs, GRID[1], np.cos(el) * np.sin(az))
    return (a_x[:, :, None] * a_y[:, None, :]).reshape(len(freqs), GRID[0] * GRID[1])


def _cn(rng: np.random.Generator, *shape) -> np.ndarray:
    """Unit-variance circular complex Gaussian samples."""
    return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2.0)


def _envelope(rng: np.random.Generator, n_frames: int, frame_rate: float) -> np.ndarray:
    """Slowly varying positive amplitude, as in the CLI's speech-like signals."""
    n_knots = max(int(round(n_frames / frame_rate * ENVELOPE_HZ)) + 1, 2)
    knots = rng.standard_normal(n_knots) ** 2 + 0.05
    return np.interp(np.linspace(0.0, n_knots - 1.0, n_frames), np.arange(n_knots), knots)


def far_field_grid(seed: int, n_frames: int, fft_size: int = 1024, hop: int = 256,
                   sample_rate: int = 16000) -> GridScene:
    """Seeded ``scale_m16`` scene of ``n_frames`` STFT frames."""
    rng = np.random.default_rng(seed)
    n_bins = fft_size // 2 + 1
    freqs = np.arange(n_bins) * sample_rate / fft_size
    tilt = 1.0 / np.sqrt(np.maximum(freqs, freqs[1]) / freqs[1])  # pink spectrum
    frame_rate = sample_rate / hop

    steering = np.stack([grid_steering(freqs, *d) for d in SOURCE_DIRECTIONS], axis=-1)
    env = np.stack([_envelope(rng, n_frames, frame_rate) for _ in SOURCE_DIRECTIONS])
    sources = env[:, :, None] * tilt[None, None, :] * _cn(rng, len(SOURCE_DIRECTIONS), n_frames, n_bins)
    # equal source power at microphone 0 (0 dB input SIR); steering has unit modulus
    sources /= np.sqrt(np.mean(np.abs(sources) ** 2, axis=(1, 2), keepdims=True))
    x = np.einsum("imn,nti->tim", steering, sources)

    point = np.zeros_like(x)
    for d in NOISE_DIRECTIONS:
        point += grid_steering(freqs, *d)[None, :, :] * (tilt[None, :] * _cn(rng, n_frames, n_bins))[..., None]
    # spherically diffuse field: coherence sinc(2 f r / c) between microphones
    pq = np.stack(np.meshgrid(np.arange(GRID[0]), np.arange(GRID[1]), indexing="ij"), -1)
    pos = pq.reshape(-1, 2) * SPACING
    dist = np.linalg.norm(pos[:, None, :] - pos[None, :, :], axis=-1)
    coherence = np.sinc(2.0 * freqs[:, None, None] * dist[None] / SPEED_OF_SOUND)
    chol = np.linalg.cholesky(coherence + 1e-6 * np.eye(pos.shape[0]))
    diffuse = np.einsum("imk,tik->tim", chol, tilt[None, :, None] * _cn(rng, n_frames, n_bins, pos.shape[0]))
    diffuse *= np.sqrt(np.mean(np.abs(point[..., 0]) ** 2) / np.mean(np.abs(diffuse[..., 0]) ** 2))
    noise = point + 10.0 ** (DIFFUSE_DB / 20.0) * diffuse
    gain = np.sqrt(np.mean(np.abs(x[..., 0]) ** 2) / np.mean(np.abs(noise[..., 0]) ** 2))
    x += 10.0 ** (-ISNR_DB / 20.0) * gain * noise
    return GridScene(x=x, steering=steering, sources=sources)


def derived_manifest(configs: Path, out_dir: Path, seed: int, duration: float,
                     scenario_path: Path | None = None) -> Path:
    """Write the desk manifest with seeds ``(2 seed, 2 seed + 1)``, the given
    duration and absolute config paths; return its path.  ``scenario_path``
    replaces the desk scenario (tests use a cheaper room)."""
    doc = json.loads((configs / "desk_manifest.json").read_text())
    doc["scenario"] = str(scenario_path or configs / doc["scenario"])
    doc["separators"] = {k: str(configs / v) for k, v in doc["separators"].items()}
    doc["seeds"] = [2 * seed, 2 * seed + 1]
    doc["duration_seconds"] = duration
    doc["output_dir"] = str(out_dir)
    path = out_dir / "manifest.json"
    path.write_text(json.dumps(doc, indent=2))
    return path
