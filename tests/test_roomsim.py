"""Room simulator tests: geometry validation, image-method impulse responses
against closed-form single-path cases, reverberation-time calibration against
the backward-integration oracle, and mixture calibration exactness."""

from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal
from scipy.signal import fftconvolve

from ivastream.roomsim import (
    SINC_TAPS,
    SPEED_OF_SOUND,
    ArrayGeometry,
    Room,
    Scenario,
    default_image_order,
    image_source_rir,
    measure_t60,
    mix,
    pink_noise,
    place_noise_sources,
    scenario_rirs,
    t60_eyring,
    t60_to_reflection,
    _directional_t60,
    _image_delays,
)
from ivastream.io import ConfigError, load_scenario

from oracles import _allocating_rir, _one_shot_directional_t60


# ---------------------------------------------------------------------------
# geometry containers


def test_room_validates_dimensions():
    with pytest.raises(ValueError, match="positive"):
        Room((7.0, -1.0, 3.0), 0.5)
    with pytest.raises(ValueError, match="positive"):
        Room((7.0, 8.0), 0.5)


def test_room_reflection_scalar_broadcasts_to_six_walls():
    room = Room((7.0, 8.0, 3.5), 0.5)
    assert room.reflection == (0.5,) * 6
    room6 = Room((7.0, 8.0, 3.5), [0.1, 0.2, 0.3, 0.4, 0.5, 0.6])
    assert room6.reflection == (0.1, 0.2, 0.3, 0.4, 0.5, 0.6)


def test_room_reflection_bounds():
    with pytest.raises(ValueError, match="0 <= beta < 1"):
        Room((7.0, 8.0, 3.5), 1.0)
    with pytest.raises(ValueError, match="0 <= beta < 1"):
        Room((7.0, 8.0, 3.5), -0.1)
    with pytest.raises(ValueError, match="scalar or 6"):
        Room((7.0, 8.0, 3.5), [0.5, 0.5])


def test_room_contains_with_margin():
    room = Room((7.0, 8.0, 3.5), 0.5)
    assert room.contains((3.5, 4.0, 1.0))
    assert not room.contains((7.5, 4.0, 1.0))


def test_grid_array_is_row_major_and_centered():
    arr = ArrayGeometry.grid(3, 3, 0.06, center_xy=(3.5, 4.0), z=1.2)
    assert arr.n_channels == 9
    assert_allclose(arr.positions.mean(axis=0), [3.5, 4.0, 1.2], atol=1e-12)
    # row-major: x varies fastest
    assert_allclose(arr.positions[1] - arr.positions[0], [0.06, 0.0, 0.0], atol=1e-12)
    assert_allclose(arr.positions[3] - arr.positions[0], [0.0, 0.06, 0.0], atol=1e-12)
    # pairwise spacing along rows/cols exactly 6 cm
    assert_allclose(
        np.linalg.norm(arr.positions[4] - arr.positions[1]), 0.06, atol=1e-12
    )


def test_array_validate_inside():
    room = Room((2.0, 2.0, 2.0), 0.5)
    arr = ArrayGeometry(np.array([[1.0, 1.0, 1.0], [3.0, 1.0, 1.0]]))
    with pytest.raises(ValueError, match="microphone 1"):
        arr.validate_inside(room)


def test_scenario_rejects_outside_positions():
    room = Room((4.0, 4.0, 3.0), 0.5)
    arr = ArrayGeometry(np.array([[2.0, 2.0, 1.0]]))
    with pytest.raises(ValueError, match="source position"):
        Scenario(room, arr, np.array([[5.0, 1.0, 1.0]]), np.zeros((0, 3)))
    with pytest.raises(ValueError, match="noise position"):
        Scenario(room, arr, np.array([[1.0, 1.0, 1.0]]), np.array([[1.0, 9.0, 1.0]]))


@pytest.mark.parametrize("dims", [(7.0, np.nan, 3.5), (np.inf, 8.0, 3.5), (7.0, 8.0, -np.inf)])
def test_room_rejects_non_finite_dimensions(dims):
    with pytest.raises(ValueError, match="room dimensions must be 3 positive finite"):
        Room(dims, 0.5)


@pytest.mark.parametrize("reflection", [np.nan, [0.5] * 5 + [np.nan]])
def test_room_rejects_nan_reflection(reflection):
    with pytest.raises(ValueError, match="reflection coefficients must satisfy"):
        Room((7.0, 8.0, 3.5), reflection)


@pytest.mark.parametrize("t60", [np.nan, np.inf])
def test_t60_must_be_finite(t60):
    with pytest.raises(ValueError, match="T60 must be a positive finite"):
        Room.from_t60((7.0, 8.0, 3.5), t60)
    with pytest.raises(ValueError, match="T60 must be a positive finite"):
        t60_to_reflection(t60, Room((7.0, 8.0, 3.5), 0.5))


@pytest.mark.parametrize("name, value", [("isir_db", np.nan), ("isir_db", -np.inf),
                                         ("isnr_db", np.nan), ("white_exponent", np.inf)])
def test_scenario_rejects_non_finite_levels(name, value):
    room = Room((4.0, 4.0, 3.0), 0.5)
    arr = ArrayGeometry(np.array([[2.0, 2.0, 1.0]]))
    with pytest.raises(ValueError, match=f"{name} must be finite"):
        Scenario(room, arr, np.array([[1.0, 1.0, 1.0]]), np.zeros((0, 3)), **{name: value})


# ---------------------------------------------------------------------------
# impulse responses


def test_anechoic_direct_path_is_single_tap():
    # 3.43 m at 343 m/s and 16 kHz is exactly 160 samples; with zero
    # reflection every other image has zero amplitude, and an integer delay
    # collapses the windowed sinc to one tap.
    room = Room((10.0, 10.0, 10.0), 0.0)
    d = 3.43
    h = image_source_rir(room, (2.0, 5.0, 5.0), (2.0 + d, 5.0, 5.0))
    assert np.count_nonzero(h) == 1
    assert_allclose(h[160], 1.0 / (4.0 * np.pi * d), rtol=1e-12)


def test_fractional_delay_is_causal_and_concentrated():
    room = Room((10.0, 10.0, 10.0), 0.0)
    d = 3.43 + 0.5 * SPEED_OF_SOUND / room.sample_rate  # delay = 160.5 samples
    h = image_source_rir(room, (2.0, 5.0, 5.0), (2.0 + d, 5.0, 5.0))
    delay = d / SPEED_OF_SOUND * room.sample_rate
    peak = np.abs(h).max()
    # hard zero outside the kernel support, small sidelobes before the wavefront
    assert np.all(h[: int(np.ceil(delay - 40.5))] == 0.0)
    early = np.abs(h[: int(delay) - 8])
    assert early.max() <= 0.06 * peak
    assert np.sum(early**2) <= 0.02 * np.sum(h**2)
    # energy concentrated around the true arrival
    lo, hi = int(delay) - 8, int(delay) + 9
    assert np.sum(h[lo:hi] ** 2) >= 0.98 * np.sum(h**2)


def test_rir_is_reciprocal():
    room = Room((5.0, 4.0, 3.0), 0.6, max_image_order=8)
    a, b = (1.2, 1.1, 1.3), (3.7, 2.9, 1.8)
    h_ab = image_source_rir(room, a, b)
    h_ba = image_source_rir(room, b, a)
    assert_allclose(h_ab, h_ba, atol=1e-10 * np.abs(h_ab).max())


def test_rir_rejects_bad_positions():
    room = Room((5.0, 4.0, 3.0), 0.5)
    with pytest.raises(ValueError, match="inside the room"):
        image_source_rir(room, (6.0, 1.0, 1.0), (1.0, 1.0, 1.0))
    with pytest.raises(ValueError, match="coincide"):
        image_source_rir(room, (1.0, 1.0, 1.0), (1.0, 1.0, 1.0))


def _one_shot_rir(room, src, mic):
    """Reference kernel: ``np.sinc`` and the Hann cosine evaluated at every
    image's taps at once, on the 81 samples centred on ``rint(delay)``, the
    taps before t = 0 masked out and the rest summed by one bincount."""
    delay, amp = _image_delays(room, np.asarray(src, float), np.asarray(mic, float))
    half = (SINC_TAPS - 1) // 2
    n_samples = int(np.ceil(delay.max())) + half + 1
    first = np.rint(delay).astype(np.int64) - half
    taps = first[:, None] + np.arange(SINC_TAPS)[None, :]
    t = taps - delay[:, None]
    window = 0.5 * (1.0 + np.cos(np.pi * t / (half + 0.5)))
    vals = amp[:, None] * np.sinc(t) * window
    keep = (taps >= 0) & (taps < n_samples)
    return np.bincount(taps[keep], weights=vals[keep], minlength=n_samples)


_DESK = load_scenario(Path(__file__).resolve().parent.parent / "configs" / "desk_scenario.json")


def _anechoic_at(delay):
    """Anechoic room with the direct path ``delay`` samples long (to rounding)."""
    room = Room((10.0, 10.0, 10.0), 0.0)
    d = delay * SPEED_OF_SOUND / room.sample_rate
    return room, (2.0, 5.0, 5.0), (2.0 + d, 5.0, 5.0)


@pytest.mark.parametrize(
    "room, src, mic",
    [
        # order 9: 54,872 images, many blocks and a partial last one
        (_DESK.room, _DESK.source_positions[1], _DESK.array.positions[8]),
        # 0.5 m apart: the direct path's taps start before t = 0
        (Room((4.0, 5.0, 3.0), 0.7, max_image_order=3), (1.0, 1.0, 1.0), (1.5, 1.0, 1.0)),
        # anechoic, integer delay: a single nonzero tap
        (Room((10.0, 10.0, 10.0), 0.0), (2.0, 5.0, 5.0), (5.43, 5.0, 5.0)),
        # order 1: 216 images, less than one block
        (Room((3.0, 4.0, 2.5), 0.9, max_image_order=1), (1.0, 1.0, 1.0), (2.0, 3.0, 1.0)),
        # next to an integer delay, on either side: sin(pi r) must come from
        # the reduced delay, not from one near 1
        _anechoic_at(160 + 1e-13),
        _anechoic_at(160 - 1e-13),
        _anechoic_at(160 + 1e-10),
        _anechoic_at(160 - 1e-10),
        # half-way between taps: the largest reduced delay
        _anechoic_at(160.5),
        # fractional parts on either side of 1/2: the support is centred on
        # the nearest sample
        _anechoic_at(160.3),
        _anechoic_at(160.7),
        _anechoic_at(20.3),
        # short direct paths, where first - delay rounds: the tap divisor
        # must come from exact integers and the reduced delay
        _anechoic_at(20 + 1e-13),
        _anechoic_at(20 - 1e-13),
        _anechoic_at(20 + 1e-10),
        _anechoic_at(20 - 1e-10),
        _anechoic_at(20.5),
        _anechoic_at(5 - 1e-10),
        # lands 11 ulps above 5 samples, beyond the one-ulp integer cut
        _anechoic_at(5),
    ],
    ids=[
        "desk", "close-pair", "integer-delay", "sub-block",
        "160+1e-13", "160-1e-13", "160+1e-10", "160-1e-10", "160.5",
        "160.3", "160.7", "20.3",
        "20+1e-13", "20-1e-13", "20+1e-10", "20-1e-10", "20.5", "5-1e-10", "5",
    ],
)
def test_kernel_matches_one_shot_reference(room, src, mic):
    h = image_source_rir(room, src, mic)
    ref = _one_shot_rir(room, src, mic)
    assert h.shape == ref.shape
    assert np.abs(h - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.parametrize("block", [1024, 100])
@pytest.mark.parametrize(
    "room, src, mic",
    [
        (_DESK.room, _DESK.source_positions[1], _DESK.array.positions[8]),
        (Room.from_t60(_DESK.room.dimensions, 0.3), _DESK.source_positions[0],
         _DESK.array.positions[4]),
        (Room((3.0, 4.0, 2.5), 0.9, max_image_order=1), (1.0, 1.0, 1.0), (2.0, 3.0, 1.0)),
        (Room((4.0, 5.0, 3.0), 0.7, max_image_order=3), (1.0, 1.0, 1.0), (1.5, 1.0, 1.0)),
    ],
    ids=["desk", "desk-order-16", "sub-block", "order-3"],
)
def test_kernel_equals_the_per_block_allocating_loop(room, src, mic, block):
    # reused buffers and another block size change no bit: every tap is the
    # same product and quotient, and add.at sums each bin in image order
    h = image_source_rir(room, src, mic)
    assert h.tobytes() == _allocating_rir(room, src, mic, block).tobytes()


@pytest.mark.parametrize("dims", [(7.0, 8.0, 3.5), (4.0, 5.0, 3.0), (20.0, 15.0, 4.0),
                                  (0.5, 0.5, 0.5)])
@pytest.mark.parametrize("beta", [1e-13, 0.3, 0.6, 0.95])
def test_directional_t60_equals_the_one_shot_law(dims, beta):
    # row blocks give each decay-curve sample the same exponentials and mean
    assert _directional_t60(beta, dims) == _one_shot_directional_t60(beta, dims)


@pytest.mark.parametrize("delay", [160.3, 160.7, 20.3])
def test_fractional_delay_support_is_centred(delay):
    # 81 taps centred on the nearest sample: the Hann window is zero beyond
    # |t| = 40.5, so a support starting at ceil(delay - 40) would drop a tap
    # inside it and keep one outside it
    h = image_source_rir(*_anechoic_at(delay))
    centre = int(np.rint(delay))
    assert_array_equal(np.flatnonzero(h), np.arange(max(centre - 40, 0), centre + 41))


def test_default_image_order_covers_decay_path():
    room = Room((7.0, 8.0, 3.5), 0.5)
    assert default_image_order(room, 0.15) == int(np.ceil(343.0 * 0.15 / 7.0)) + 1


@pytest.mark.parametrize("beta", [0.3, 0.6, 0.85])
def test_unset_image_order_follows_eyring_and_truncates_below_60_db(beta):
    # a room given reflections but no order takes the default order of its
    # Eyring T60; three more orders add less than -60 dB of the RIR's energy
    src, mic = (1.5, 2.0, 1.2), (4.0, 3.0, 1.4)
    room = Room((6.0, 5.0, 3.0), beta)
    order = default_image_order(room, t60_eyring(room))
    h = image_source_rir(room, src, mic)
    assert h.tobytes() == image_source_rir(replace(room, max_image_order=order), src, mic).tobytes()
    longer = image_source_rir(replace(room, max_image_order=order + 3), src, mic)
    added = longer - np.pad(h, (0, len(longer) - len(h)))
    assert 10.0 * np.log10(np.sum(added**2) / np.sum(h**2)) < -60.0


# ---------------------------------------------------------------------------
# reverberation time


def test_t60_calibration_hits_measured_band():
    room = Room.from_t60((7.0, 8.0, 3.5), 0.2, sample_rate=16000)
    h = image_source_rir(room, (2.0, 2.5, 1.2), (5.0, 5.5, 1.4))
    measured = measure_t60(h, room.sample_rate)
    assert 0.16 <= measured <= 0.24


def test_t60_inversion_and_decay_law_are_monotone():
    room = Room((7.0, 8.0, 3.5), 0.5)
    assert t60_to_reflection(0.15, room) < t60_to_reflection(0.3, room)
    # larger rooms reflect less often, so the same wall decays slower
    assert _directional_t60(0.6, (4.0, 5.0, 3.0)) < _directional_t60(0.6, (8.0, 10.0, 6.0))


def test_t60_inversion_input_validation():
    room = Room((7.0, 8.0, 3.5), 0.5)
    with pytest.raises(ValueError, match="positive"):
        t60_to_reflection(0.0, room)
    with pytest.raises(ValueError, match="unreachable"):
        t60_to_reflection(50.0, Room((0.5, 0.5, 0.5), 0.5))


def test_measure_t60_error_paths():
    with pytest.raises(ValueError, match="no energy"):
        measure_t60(np.zeros(100), 16000)
    impulse = np.zeros(100)
    impulse[0] = 1.0
    with pytest.raises(ValueError, match="too short"):
        measure_t60(impulse, 16000)


# ---------------------------------------------------------------------------
# noise placement and noise signals


def test_noise_placement_respects_constraints():
    room = Room((7.0, 8.0, 3.5), 0.5)
    pts = place_noise_sources(room, 4, seed=7)
    assert pts.shape == (4, 3)
    dims = np.asarray(room.dimensions)
    assert np.all(pts >= 0.5) and np.all(pts <= dims - 0.5)
    offsets = pts[:, :2] - dims[:2] / 2.0
    assert np.all(np.hypot(offsets[:, 0], offsets[:, 1]) >= 3.0)
    angles = np.degrees(np.arctan2(offsets[:, 1], offsets[:, 0]))
    for i in range(len(angles)):
        for j in range(i + 1, len(angles)):
            sep = abs(angles[i] - angles[j]) % 360.0
            assert min(sep, 360.0 - sep) >= 20.0


def test_noise_placement_is_deterministic():
    room = Room((7.0, 8.0, 3.5), 0.5)
    assert_array_equal(place_noise_sources(room, 3, seed=1), place_noise_sources(room, 3, seed=1))
    assert not np.array_equal(
        place_noise_sources(room, 3, seed=1), place_noise_sources(room, 3, seed=2)
    )


def test_noise_placement_fails_when_room_too_small():
    # center offset can never reach the 3 m radius in a 4x4 room
    room = Room((4.0, 4.0, 3.0), 0.5)
    with pytest.raises(RuntimeError, match="could not place"):
        place_noise_sources(room, 1, seed=0)
    assert place_noise_sources(room, 0, seed=0).shape == (0, 3)


def test_noise_count_beyond_the_angular_spread_fails_before_drawing(monkeypatch):
    # 19 sources 20 degrees apart need 380 degrees: no draw can place them
    def no_draws(*args, **kwargs):
        raise AssertionError("made a generator to draw positions from")

    monkeypatch.setattr(np.random, "default_rng", no_draws)
    with pytest.raises(RuntimeError, match="could not place 19 noise sources"):
        place_noise_sources(_DESK.room, 19, seed=0)


@pytest.mark.parametrize("n_samples", [0, 1])
def test_pink_noise_needs_two_samples(n_samples):
    with pytest.raises(ValueError, match="at least 2 samples"):
        pink_noise(np.random.default_rng(3), n_samples)


def test_pink_noise_is_normalized_and_low_frequency_heavy():
    x = pink_noise(np.random.default_rng(3), 16000)
    assert_allclose(np.std(x), 1.0, rtol=1e-12)
    spec = np.abs(np.fft.rfft(x)) ** 2
    n = len(spec)
    assert spec[1 : n // 8].sum() > spec[-n // 8 :].sum()


# ---------------------------------------------------------------------------
# scene mixing


def _desk_scenario(isir_db=3.0, isnr_db=15.0, noise=True):
    room = Room((6.0, 5.0, 3.0), 0.0)  # anechoic keeps the images cheap and exact
    arr = ArrayGeometry(np.array([[2.0, 2.0, 1.2], [2.1, 2.0, 1.2], [2.0, 2.1, 1.2]]))
    noise_pos = np.array([[5.2, 4.1, 1.5]]) if noise else np.zeros((0, 3))
    return Scenario(
        room,
        arr,
        np.array([[1.0, 3.5, 1.4], [4.5, 1.0, 1.6]]),
        noise_pos,
        isir_db=isir_db,
        isnr_db=isnr_db,
        seed=11,
    )


def _test_signals(scenario, n_samples=8000):
    rng = np.random.default_rng(99)
    return np.stack([pink_noise(rng, n_samples) for _ in range(scenario.n_sources)])


def test_mix_hits_requested_interferer_ratio_exactly():
    scen = _desk_scenario(isir_db=3.0)
    bundle = mix(scen, _test_signals(scen))
    e_ref = np.sum(bundle.source_images[0, 0] ** 2)
    e_int = np.sum(bundle.source_images[1, 0] ** 2)
    assert abs(10.0 * np.log10(e_ref / e_int) - 3.0) < 1e-9


def test_mix_hits_requested_noise_ratio_exactly():
    scen = _desk_scenario(isnr_db=15.0)
    bundle = mix(scen, _test_signals(scen))
    e_sig = np.sum(bundle.source_images[:, 0, :].sum(axis=0) ** 2)
    e_noise = np.sum(bundle.noise_observation[0] ** 2)
    assert abs(10.0 * np.log10(e_sig / e_noise) - 15.0) < 1e-9


def test_mix_observations_are_exact_sum_of_parts():
    scen = _desk_scenario()
    bundle = mix(scen, _test_signals(scen))
    assert_array_equal(
        bundle.observations, bundle.source_images.sum(axis=0) + bundle.noise_observation
    )


def test_mix_white_component_sits_below_point_noise():
    scen = _desk_scenario()
    bundle = mix(scen, _test_signals(scen))
    assert bundle.gains["white_scale"] > 0
    assert bundle.gains["sigma_v"] > 0
    assert bundle.gains["source_gains"][0] == 1.0


def test_mix_without_point_noise_still_hits_noise_ratio():
    scen = _desk_scenario(noise=False)
    bundle = mix(scen, _test_signals(scen))
    assert bundle.gains["white_scale"] == 1.0
    e_sig = np.sum(bundle.source_images[:, 0, :].sum(axis=0) ** 2)
    e_noise = np.sum(bundle.noise_observation[0] ** 2)
    assert abs(10.0 * np.log10(e_sig / e_noise) - 15.0) < 1e-9


def test_mix_disables_noise_when_ratio_is_none():
    scen = _desk_scenario(isnr_db=None)
    bundle = mix(scen, _test_signals(scen))
    assert_array_equal(bundle.noise_observation, np.zeros_like(bundle.noise_observation))
    assert bundle.gains["sigma_v"] == 0.0
    assert_array_equal(bundle.observations, bundle.source_images.sum(axis=0))


def test_mix_is_deterministic_and_seed_sensitive():
    scen = _desk_scenario()
    sig = _test_signals(scen)
    b1 = mix(scen, sig)
    b2 = mix(scen, sig)
    assert_array_equal(b1.observations, b2.observations)
    b3 = mix(replace(scen, seed=123), sig)
    assert_array_equal(b1.source_images, b3.source_images)
    assert not np.array_equal(b1.noise_observation, b3.noise_observation)
    # RIRs passed in, as a multi-seed sweep does, give the same bundle
    b4 = mix(scen, sig, rirs=scenario_rirs(scen))
    for name in ("observations", "source_images", "noise_observation"):
        assert getattr(b4, name).tobytes() == getattr(b1, name).tobytes()
    assert b4.gains == b1.gains


def test_mix_matches_one_convolution_per_emitter():
    # one convolution per emitter written out, on three sources and two
    # point noises; the pink clips are drawn in emitter order
    base = _desk_scenario(isir_db=-2.0)
    scen = replace(
        base,
        source_positions=np.vstack([base.source_positions, [3.0, 4.5, 1.3]]),
        noise_positions=np.vstack([base.noise_positions, [0.5, 0.5, 2.0]]),
    )
    sig = _test_signals(scen)
    n = sig.shape[1]
    src_rirs, noise_rirs = scenario_rirs(scen)
    bundle = mix(scen, sig)
    images = np.stack([fftconvolve(h, x[None], axes=-1)[:, :n] for h, x in zip(src_rirs, sig)])
    e = [float(np.sum(img[0] ** 2)) for img in images]
    gains = [1.0] + [np.sqrt(e[0] * 10.0 ** (-scen.isir_db / 10.0) / e_k) for e_k in e[1:]]
    assert bundle.gains["source_gains"] == gains
    assert bundle.source_images.tobytes() == (images * np.array(gains)[:, None, None]).tobytes()
    rng = np.random.default_rng(scen.seed)
    v_point = np.sum(
        [fftconvolve(h, pink_noise(rng, n)[None], axes=-1)[:, :n] for h in noise_rirs], axis=0
    )
    v_white = rng.standard_normal((3, n))
    g = bundle.gains
    noise = g["sigma_v"] * (v_point + 10.0**scen.white_exponent * g["white_scale"] * v_white)
    assert bundle.noise_observation.tobytes() == noise.tobytes()


def test_mix_input_validation():
    scen = _desk_scenario()
    sig = _test_signals(scen)
    with pytest.raises(ValueError, match="expected 2 target signals"):
        mix(scen, sig[:1])
    bad = sig.copy()
    bad[1] = 0.0
    with pytest.raises(ValueError, match="zero-energy"):
        mix(scen, bad)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
def test_mix_rejects_a_non_finite_talker(value):
    scen = _desk_scenario()
    sig = _test_signals(scen)
    sig[1, 100] = value
    with pytest.raises(ValueError, match="target signal 1 is not finite"):
        mix(scen, sig)


def test_scenario_rirs_pads_to_equal_length():
    scen = _desk_scenario()
    src_rirs, noise_rirs = scenario_rirs(scen)
    assert src_rirs.shape[0] == 2 and noise_rirs.shape[0] == 1
    assert src_rirs.shape[1] == noise_rirs.shape[1] == 3
    assert src_rirs.shape[2] == noise_rirs.shape[2]
