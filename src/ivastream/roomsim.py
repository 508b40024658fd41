"""Image-source room simulation and scenario mixing.

Rigid-box image method: mirror images of a point source are enumerated on a
lattice, each contributing an attenuated, fractionally delayed impulse.
Image positions follow the sign/offset parametrization
``(1 - 2p) * (src + 2 r L)`` over ``p in {0,1}^3`` and integer ``r``, with
per-wall amplitude ``beta_lo^|r+p| * beta_hi^|r| / (4 pi d)``; the lattice
is separable, so both come from per-axis tables.  Fractional delays use an
81-tap Hann-windowed sinc at the Nyquist cutoff on the samples centred on
each image's nearest sample, evaluated in closed form: over those taps the
sine is a sign flip of ``sin(pi r)``, ``|r| <= 1/2`` the delay's offset
from that sample, and the Hann cosine follows by angle addition from a
fixed tap table.  Integer sample delays give a single nonzero tap.

Mixing calibrates interferer gains and the noise level against the first
microphone, and the returned bundle's observations are the sample-exact sum
of its parts.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

import numpy as np
from scipy.signal import fftconvolve

SPEED_OF_SOUND = 343.0
SINC_TAPS = 81  # fractional-delay kernel length (odd; half-width 40)
# images per windowed-sinc block: bounds the block's temporaries, its tap
# values, divisors and tap indices (512 x 81 8-byte numbers each)
_IMAGE_BLOCK = 512
_T60_ROWS = 128  # decay-curve samples per block of the directional T60 law
# images arriving after the image energy still to arrive falls to this share
# of the lattice's total (-80 dB) are dropped
_TAIL_ENERGY = 1e-8
_HALF = (SINC_TAPS - 1) // 2
_HANN_RATE = np.pi / (_HALF + 0.5)  # Hann window 0.5 (1 + cos(rate t)) at tap offset t
_TAP_T = np.arange(-_HALF, _HALF + 1.0)  # tap j's sample offset from rint(delay)
# (-1)^j [1, cos(rate (j - half)), sin(rate (j - half))] for tap j of the kernel
_TAP_TABLE = (-1.0) ** np.arange(SINC_TAPS) * np.stack(
    [np.ones(SINC_TAPS), np.cos(_HANN_RATE * _TAP_T), np.sin(_HANN_RATE * _TAP_T)]
)
T60_FIT_DB = (-5.0, -35.0)  # decay-curve levels the T60 line is fitted between

# noise placement: distance from every wall, minimum x-y distance from the
# room center, minimum angular spread around it, and the draw budget
NOISE_WALL_MARGIN = 0.5
NOISE_MIN_RADIUS = 3.0
NOISE_MIN_ANGLE_DEG = 20.0
NOISE_MAX_TRIES = 20000


def _as_dimensions(dims) -> tuple:
    out = tuple(float(v) for v in dims)
    if len(out) != 3 or not all(0.0 < v < np.inf for v in out):
        raise ValueError(f"room dimensions must be 3 positive finite lengths, got {dims}")
    return out


def _as_reflection(reflection) -> tuple:
    """Normalize to 6 per-wall values ordered (x_lo, x_hi, y_lo, y_hi, z_lo, z_hi)."""
    arr = np.atleast_1d(np.asarray(reflection, dtype=float))
    if arr.size == 1:
        arr = np.full(6, arr.item())
    if arr.size != 6:
        raise ValueError("reflection must be a scalar or 6 per-wall values")
    if not np.all((arr >= 0) & (arr < 1)):  # NaN fails both
        raise ValueError(f"reflection coefficients must satisfy 0 <= beta < 1, got {reflection}")
    return tuple(float(v) for v in arr)


@dataclass(frozen=True)
class Room:
    """Shoebox room: dimensions in meters, amplitude reflection per wall."""

    dimensions: tuple
    reflection: tuple
    sample_rate: int = 16000
    max_image_order: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "dimensions", _as_dimensions(self.dimensions))
        object.__setattr__(self, "reflection", _as_reflection(self.reflection))
        if self.sample_rate <= 0:
            raise ValueError("sample_rate must be positive")
        if self.max_image_order is not None and self.max_image_order < 0:
            raise ValueError("max_image_order must be >= 0")

    @classmethod
    def from_t60(cls, dimensions, t60: float, sample_rate: int = 16000) -> "Room":
        room = cls(dimensions, 0.5, sample_rate)
        beta = t60_to_reflection(t60, room)
        order = default_image_order(room, t60)
        return cls(dimensions, beta, sample_rate, order)

    def contains(self, point) -> bool:
        p = np.asarray(point, dtype=float)
        return bool(np.all(p >= 0.0) and np.all(p <= np.asarray(self.dimensions)))


@dataclass(frozen=True)
class ArrayGeometry:
    """Microphone positions, one 3D point per channel."""

    positions: np.ndarray  # (M, 3)

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        if pos.ndim != 2 or pos.shape[1] != 3 or pos.shape[0] < 1:
            raise ValueError("positions must be an (M, 3) array")
        object.__setattr__(self, "positions", pos)

    @classmethod
    def grid(cls, rows: int, cols: int, spacing: float, center_xy, z: float) -> "ArrayGeometry":
        """Planar horizontal grid, row-major channel order."""
        cx, cy = center_xy
        xs = (np.arange(cols) - (cols - 1) / 2.0) * spacing + cx
        ys = (np.arange(rows) - (rows - 1) / 2.0) * spacing + cy
        pts = [(x, y, z) for y in ys for x in xs]
        return cls(np.asarray(pts))

    @property
    def n_channels(self) -> int:
        return self.positions.shape[0]

    def validate_inside(self, room: Room) -> None:
        for i, p in enumerate(self.positions):
            if not room.contains(p):
                raise ValueError(f"microphone {i} at {tuple(p)} is outside the room")


@dataclass(frozen=True)
class Scenario:
    """Everything needed to synthesize one mixture deterministically."""

    room: Room
    array: ArrayGeometry
    source_positions: np.ndarray  # (N, 3)
    noise_positions: np.ndarray  # (K, 3), possibly empty
    isir_db: float = 0.0
    isnr_db: float | None = 20.0
    white_exponent: float = -0.75
    seed: int = 0

    def __post_init__(self):
        src = np.atleast_2d(np.asarray(self.source_positions, dtype=float))
        noise = np.asarray(self.noise_positions, dtype=float).reshape(-1, 3)
        if src.shape[0] < 1 or src.shape[1] != 3:
            raise ValueError("need at least one source position with 3 coordinates")
        for name in ("isir_db", "isnr_db", "white_exponent"):
            value = getattr(self, name)
            if value is not None and not np.isfinite(value):  # isnr_db None: no noise
                raise ValueError(f"{name} must be finite, got {value}")
        object.__setattr__(self, "source_positions", src)
        object.__setattr__(self, "noise_positions", noise)
        self.array.validate_inside(self.room)
        for name, pts in (("source", src), ("noise", noise)):
            for p in pts:
                if not self.room.contains(p):
                    raise ValueError(f"{name} position {tuple(p)} is outside the room")

    @property
    def n_sources(self) -> int:
        return self.source_positions.shape[0]


@dataclass
class MixtureBundle:
    """Synthesized scene: observations are exactly the sum of the parts."""

    observations: np.ndarray  # (M, T)
    source_images: np.ndarray  # (N, M, T) scaled per-source images
    noise_observation: np.ndarray  # (M, T)
    sample_rate: int
    gains: dict = field(default_factory=dict)


def _fibonacci_sphere(n: int) -> np.ndarray:
    i = np.arange(n) + 0.5
    phi = np.arccos(1.0 - 2.0 * i / n)
    theta = np.pi * (1.0 + np.sqrt(5.0)) * i
    return np.stack(
        [np.sin(phi) * np.cos(theta), np.sin(phi) * np.sin(theta), np.cos(phi)], axis=-1
    )


def _directional_t60(beta: float, dims, n_dirs: int = 512) -> float:
    """T60 of the image lattice's direction-resolved decay law.

    A ray along direction u reflects ``|u_i| / L_i`` times per meter off the
    walls of axis i, so the late field is a sphere average of per-direction
    exponentials rather than a single Eyring exponential; the decay curve is
    fitted over the same ``T60_FIT_DB`` window the measurement oracle uses.
    """
    u = np.abs(_fibonacci_sphere(n_dirs))
    g = (u / np.asarray(dims, dtype=float)).sum(axis=-1)
    log_e = 2.0 * np.log(max(beta, 1e-12)) * SPEED_OF_SOUND  # energy log-decay per second, per unit g
    t_hi = 8.0 * -6.907755 / (log_e * float(g.mean()))
    t = np.linspace(0.0, t_hi, 3000)
    # in row blocks: each row's exponentials and pairwise mean are the same,
    # and a block's temporaries stay in cache instead of faulting in 12 MB
    energy = np.empty_like(t)
    for i in range(0, t.size, _T60_ROWS):
        rows = slice(i, i + _T60_ROWS)
        energy[rows] = np.exp(log_e * t[rows, None] * g[None, :]).mean(axis=-1)
    edc = np.cumsum(energy[::-1])[::-1]
    db = 10.0 * np.log10(edc / edc[0])
    hi, lo = T60_FIT_DB
    m = (db <= hi) & (db >= lo)
    slope, _ = np.polyfit(t[m], db[m], 1)
    return float(-60.0 / slope)


# The discrete lattice's fitted decay runs ~15% slower than the continuum
# directional law across 0.15-0.5 s targets; fold that into the inversion.
_LATTICE_DECAY_CORRECTION = 1.15


def t60_to_reflection(t60: float, room: Room) -> float:
    """Uniform wall reflection hitting a target reverberation time.

    Inverts the directional decay law for the target (diffuse-field Sabine
    and Eyring inversions both land outside +-20% of the backward-integration
    measurement for parts of the 0.15-0.5 s range in desk-sized rooms).
    """
    if not 0.0 < t60 < np.inf:  # NaN fails both
        raise ValueError(f"T60 must be a positive finite time in seconds, got {t60}")
    target = t60 / _LATTICE_DECAY_CORRECTION
    # Scaling ln(beta) only rescales the decay curve in time, so one reference
    # evaluation fixes the whole family: t60(beta) = k / (-2 c ln beta).
    beta_ref = 0.6
    k = _directional_t60(beta_ref, room.dimensions) * (-2.0 * np.log(beta_ref) * SPEED_OF_SOUND)
    beta = float(np.exp(-k / (2.0 * SPEED_OF_SOUND * target)))
    if beta >= 0.999:
        raise ValueError(f"T60 = {t60} s is unreachable for this geometry")
    if beta < 1e-4:
        raise ValueError(f"T60 = {t60} s is too short for this geometry")
    return beta


def t60_eyring(room: Room) -> float:
    """Forward Eyring estimate of T60 from the mean wall reflection."""
    lx, ly, lz = room.dimensions
    volume = lx * ly * lz
    surface = 2.0 * (lx * ly + lx * lz + ly * lz)
    beta_sq = float(np.mean(np.square(room.reflection)))
    if beta_sq <= 0.0:
        return 0.0
    return 0.161 * volume / (surface * -np.log(beta_sq))


def default_image_order(room: Room, t60: float) -> int:
    """Lattice order whose omitted images arrive only after the energy has
    decayed 60 dB: covers propagation paths up to c * T60."""
    reach = SPEED_OF_SOUND * t60
    return int(np.ceil(reach / (2.0 * min(room.dimensions)))) + 1


def _image_delays(room: Room, src, mic) -> tuple[np.ndarray, np.ndarray]:
    """Delay in fractional samples and amplitude of every lattice image of
    ``src`` as heard at ``mic`` that arrives before the tail cut; images
    beyond ``max_image_order`` per axis are not formed.  The lattice is
    separable: per axis ``a``, the offsets ``(1 - 2p)(src_a + 2 r L_a) -
    mic_a`` and the wall factors are tables over ``(r, p)``, broadcast onto
    the ``(rx, ry, rz, px, py, pz)`` image grid, which is also the order of
    the returned images.

    The tail cut: with the image energy ``amp**2`` binned at ``rint(delay)``,
    every image after the last sample at which the energy still to arrive
    exceeds ``_TAIL_ENERGY`` of the lattice's total is dropped, so the
    dropped images carry at most that share of it (the image method's
    energy-decay bound, as in Lehmann and Johansson, JASA 2008)."""
    dims = np.asarray(room.dimensions)
    beta = np.asarray(room.reflection).reshape(3, 2)  # [axis, lo/hi]
    order = room.max_image_order
    if order is None:
        order = default_image_order(room, max(t60_eyring(room), 1e-3))

    def on_grid(table, a):  # axis a's (r, p) table onto the image grid
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
    delay = dist / SPEED_OF_SOUND * room.sample_rate

    nearest = np.rint(delay).astype(np.int64)
    to_arrive = np.cumsum(np.bincount(nearest, weights=amp * amp)[::-1])[::-1]
    last = np.flatnonzero(to_arrive > _TAIL_ENERGY * to_arrive[0])[-1]
    keep = nearest <= last
    return delay[keep], amp[keep]


def _blocks(n: int, size: int) -> list:
    """Bounds of consecutive blocks of ``size`` of ``n`` images, a last
    block of one image joined to the block before it."""
    bounds = list(range(0, n, size)) + [n]
    if len(bounds) > 2 and bounds[-1] - bounds[-2] == 1:
        del bounds[-2]
    return bounds


def image_source_rir(room: Room, src, mic) -> np.ndarray:
    """Room impulse response between one source and one microphone.

    Vectorized over the images that ``_image_delays`` keeps: the lattice up
    to ``max_image_order`` less its tail, the images that arrive after all
    but ``_TAIL_ENERGY`` (-80 dB) of the image energy.  Image ``i``
    puts ``amp_i sinc(t) (1 + cos(rate t)) / 2`` on the 81 samples
    ``rint(delay_i) + _TAP_T``, at ``t_ij = _TAP_T[j] - r_i`` with
    ``r_i = delay_i - rint(delay_i)``, ``|r_i| <= 1/2``: the support is
    centred on the delay.  As ``_TAP_T`` holds even-centred integers, the
    sine is ``sin(pi t_ij) = -(-1)^j sin(pi r_i)`` and angle addition splits
    the cosine, so the taps are ``g_i [1, cos(rate r_i), sin(rate r_i)] @
    _TAP_TABLE / (_TAP_T - r_i)`` with ``g_i = -amp_i sin(pi r_i) / (2 pi)``:
    three trig calls per image.  Each block of ``_IMAGE_BLOCK`` images
    forms its tap values by one rank-3 product, then their divisors and tap
    indices, and ``np.add.at`` sums them into the output in image order (a
    last block of one image joins the block before it, so the product never
    takes numpy's one-row matrix-vector path, which rounds differently).
    Reducing to the nearest integer keeps ``sin(pi r)`` accurate next to an
    integer delay, and the divisor subtracts the exact ``r_i`` from an exact
    integer, so it rounds once and the centre tap divides by exactly
    ``-r_i`` at any delay length.  A delay within one ulp of an integer
    takes that integer's single tap, which also avoids 0 / 0.
    Returns float64 samples at the room's rate, long enough to hold the
    last kept image's full interpolation kernel.
    """
    src = np.asarray(src, dtype=float)
    mic = np.asarray(mic, dtype=float)
    if not (room.contains(src) and room.contains(mic)):
        raise ValueError("source and microphone must lie inside the room")
    if np.allclose(src, mic):
        raise ValueError("source and microphone positions coincide")
    delay, amp = _image_delays(room, src, mic)

    n_samples = int(np.ceil(delay.max())) + _HALF + 1
    nearest = np.rint(delay).astype(np.int64)
    reduced = delay - nearest  # exact (Sterbenz), |r| <= 1/2
    g = -np.sin(np.pi * reduced) * amp / (2.0 * np.pi)
    # a delay one ulp off an integer is that integer: 3.43 m at 343 m/s and
    # 16 kHz lands one ulp below 160 samples
    whole = np.abs(reduced) <= np.spacing(delay)
    g[whole] = 0.0
    reduced[whole] = 0.5  # off the integer, so no tap divides 0 by 0
    angle = _HANN_RATE * reduced
    coef = np.stack([g, g * np.cos(angle), g * np.sin(angle)], axis=-1)
    # out[i] is sample i - half: bins 0..half-1 collect the taps before t = 0
    # and are dropped; add.at sums in input order, so a bin's value does not
    # depend on the blocking
    out = np.zeros(n_samples + _HALF)
    offsets = np.arange(SINC_TAPS)
    bounds = _blocks(delay.size, _IMAGE_BLOCK)
    for lo, hi in zip(bounds[:-1], bounds[1:]):
        vals = coef[lo:hi] @ _TAP_TABLE
        vals /= _TAP_T - reduced[lo:hi, None]
        taps = nearest[lo:hi, None] + offsets
        np.add.at(out, taps.ravel(), vals.ravel())  # 1-D: add.at's fast path
    np.add.at(out, nearest[whole] + _HALF, amp[whole])
    return out[_HALF:]


def measure_t60(h: np.ndarray, sample_rate: int) -> float:
    """Reverberation time from backward-integrated energy decay.

    Linear fit of the decay curve between the two dB levels of
    ``T60_FIT_DB``, extrapolated to -60 dB.
    """
    h = np.asarray(h, dtype=float)
    edc = np.cumsum(h[::-1] ** 2)[::-1]
    if edc[0] <= 0:
        raise ValueError("impulse response has no energy")
    db = 10.0 * np.log10(np.maximum(edc / edc[0], 1e-300))
    hi, lo = T60_FIT_DB
    mask = (db <= hi) & (db >= lo)
    if np.count_nonzero(mask) < 8:
        raise ValueError("decay range too short for a T60 fit")
    t = np.nonzero(mask)[0] / sample_rate
    slope, _ = np.polyfit(t, db[mask], 1)
    if slope >= 0:
        raise ValueError("energy decay is not decreasing")
    return float(-60.0 / slope)


def place_noise_sources(room: Room, count: int, seed: int) -> np.ndarray:
    """Random noise positions: off the walls, away from the room center in
    the x-y plane, and angularly spread (the ``NOISE_*`` constants).
    Deterministic given the seed."""
    if count < 0:
        raise ValueError("count must be >= 0")
    if count * NOISE_MIN_ANGLE_DEG > 360.0:
        raise RuntimeError(
            f"could not place {count} noise sources: {count} x {NOISE_MIN_ANGLE_DEG:g} "
            "degrees of angular spread exceed the full circle"
        )
    rng = np.random.default_rng(seed)
    dims = np.asarray(room.dimensions)
    lo = np.full(3, NOISE_WALL_MARGIN)
    hi = dims - NOISE_WALL_MARGIN
    if np.any(lo >= hi):
        raise ValueError("wall margin leaves no feasible region")
    center = dims[:2] / 2.0
    chosen: list[np.ndarray] = []
    angles: list[float] = []
    tries = 0
    while len(chosen) < count:
        if tries >= NOISE_MAX_TRIES:
            raise RuntimeError(
                f"could not place {count} noise sources after {NOISE_MAX_TRIES} draws; "
                "constraints too tight for this room"
            )
        tries += 1
        cand = rng.uniform(lo, hi)
        offset = cand[:2] - center
        if np.hypot(*offset) < NOISE_MIN_RADIUS:
            continue
        ang = np.degrees(np.arctan2(offset[1], offset[0]))
        sep = [min(abs(ang - a) % 360.0, 360.0 - abs(ang - a) % 360.0) for a in angles]
        if sep and min(sep) < NOISE_MIN_ANGLE_DEG:
            continue
        chosen.append(cand)
        angles.append(ang)
    return np.asarray(chosen).reshape(-1, 3)


def pink_noise(rng: np.random.Generator, n_samples: int) -> np.ndarray:
    """Unit-variance 1/f-spectrum noise."""
    if n_samples < 2:
        raise ValueError(f"pink noise needs at least 2 samples, got {n_samples}")
    spec = np.fft.rfft(rng.standard_normal(n_samples))
    f = np.fft.rfftfreq(n_samples)
    f[0] = f[1]
    x = np.fft.irfft(spec / np.sqrt(f), n_samples)
    return x / np.std(x)


def scenario_rirs(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """All source->mic and noise->mic impulse responses, equal lengths."""
    mics = scenario.array.positions
    groups = [
        [[image_source_rir(scenario.room, p, mic) for mic in mics] for p in pts]
        for pts in (scenario.source_positions, scenario.noise_positions)
    ]
    max_len = max(
        (len(h) for group in groups for per_mic in group for h in per_mic),
        default=1,
    )
    padded = [np.zeros((len(group), mics.shape[0], max_len)) for group in groups]
    for arr, group in zip(padded, groups):
        for i, per_mic in enumerate(group):
            for m, h in enumerate(per_mic):
                arr[i, m, : len(h)] = h
    return padded[0], padded[1]


def mix(scenario: Scenario, target_signals: np.ndarray, rirs=None) -> MixtureBundle:
    """Convolve, calibrate, and sum a scene into a MixtureBundle.

    The first source is the target reference: every other source is scaled
    so its image energy at microphone 0 sits ``isir_db`` below the target's.
    Point noises (pink clips drawn from the scenario seed) plus a white
    component ``10^white_exponent`` relative to them are scaled to hit
    ``isnr_db`` against the summed source images at microphone 0;
    ``isnr_db = None`` disables noise entirely.  ``rirs`` is the scenario's
    ``scenario_rirs`` pair, computed here when not given: callers mixing
    many seeds of one geometry compute it once.
    """
    targets = np.atleast_2d(np.asarray(target_signals, dtype=float))
    n_src = scenario.n_sources
    if targets.shape[0] != n_src:
        raise ValueError(f"expected {n_src} target signals, got {targets.shape[0]}")
    n_samples = targets.shape[1]
    for k, x in enumerate(targets):
        if not np.isfinite(x).all():
            raise ValueError(f"target signal {k} is not finite")
        if x @ x == 0:
            raise ValueError(f"target signal {k} has zero energy")

    src_rirs, noise_rirs = scenario_rirs(scenario) if rirs is None else rirs
    n_mics = scenario.array.n_channels

    def convolved(h, x):  # (M, L) RIRs against one signal, cut to its length
        return fftconvolve(h, x[None], axes=-1)[:, :n_samples]

    # one emitter at a time, so one untruncated convolution is held at once
    images = np.empty((n_src, n_mics, n_samples))
    for k, (h, x) in enumerate(zip(src_rirs, targets)):
        images[k] = convolved(h, x)
    # interferer gains against the target's image at mic 0
    e_img = np.sum(images[:, 0] ** 2, axis=1)
    if e_img[0] == 0:
        raise ValueError("target source has zero image energy at the reference mic")
    if np.any(e_img == 0):
        k = int(np.flatnonzero(e_img == 0)[0])
        raise ValueError(f"source {k} has zero image energy at the reference mic")
    gains = np.sqrt(e_img[0] * 10.0 ** (-scenario.isir_db / 10.0) / e_img)
    gains[0] = 1.0
    images *= gains[:, None, None]

    rng = np.random.default_rng(scenario.seed)
    sigma_v = 0.0
    white_scale = 0.0
    noise_obs = np.zeros((n_mics, n_samples))
    if scenario.isnr_db is not None:
        # pink clips drawn and summed in emitter order
        v_point = np.zeros((n_mics, n_samples))
        for h in noise_rirs:
            v_point += convolved(h, pink_noise(rng, n_samples))
        v_white = rng.standard_normal((n_mics, n_samples))
        e_point = float(np.sum(v_point[0] ** 2))
        e_white = float(np.sum(v_white[0] ** 2))
        if e_point > 0:
            white_scale = np.sqrt(e_point / e_white)
        else:
            white_scale = 1.0  # no point noise: white carries the budget alone
        v = v_point + 10.0**scenario.white_exponent * white_scale * v_white
        e_signal = float(np.sum(np.sum(images[:, 0, :], axis=0) ** 2))
        e_v = float(np.sum(v[0] ** 2))
        if e_v == 0:
            raise ValueError("noise observation has zero energy at the reference mic")
        sigma_v = np.sqrt(e_signal * 10.0 ** (-scenario.isnr_db / 10.0) / e_v)
        noise_obs = sigma_v * v

    observations = images.sum(axis=0) + noise_obs
    return MixtureBundle(
        observations=observations,
        source_images=images,
        noise_observation=noise_obs,
        sample_rate=scenario.room.sample_rate,
        gains={
            "source_gains": gains.tolist(),
            "sigma_v": float(sigma_v),
            "white_scale": float(white_scale),
        },
    )
