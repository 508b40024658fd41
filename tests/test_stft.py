"""Analysis/synthesis filterbank: windows, framing, round trips."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ivastream.stft as stft
from ivastream.stft import SpectralFrame, StftConfig


def _cola_ripple(cfg):
    """Max deviation of the overlap-added analysis * synthesis window from 1."""
    prod = stft.analysis_window(cfg) * stft.synthesis_window(cfg)
    return float(np.abs(prod.reshape(cfg.fft_size // cfg.hop, cfg.hop).sum(axis=0) - 1.0).max())


def _stack_frames(frames):
    """(n_frames, n_bins, n_channels) array of a frame sequence."""
    return np.stack([f.bins for f in frames])


def test_analysis_window_closed_form():
    cfg = StftConfig(fft_size=8, hop=2)
    w = stft.analysis_window(cfg)
    k = np.arange(8)
    np.testing.assert_allclose(w, 0.5 - 0.5 * np.cos(2 * np.pi * k / 8), atol=1e-15)
    assert w[0] == 0.0
    # periodic, not symmetric: w[N/2] is the peak, w has no trailing zero
    assert w[4] == 1.0


def test_default_config():
    cfg = StftConfig()
    assert cfg.fft_size == 1024
    assert cfg.hop == 256
    assert cfg.sample_rate == 16000
    assert cfg.n_bins == 513


def test_hop_must_divide_fft_size():
    with pytest.raises(ValueError):
        StftConfig(fft_size=1024, hop=300)


def test_dual_window_overlap_add_is_exactly_one():
    for fft_size, hop in [(1024, 256), (512, 128), (256, 128), (64, 16)]:
        cfg = StftConfig(fft_size=fft_size, hop=hop)
        assert _cola_ripple(cfg) <= 1e-12


def test_n_frames_boundaries():
    cfg = StftConfig(fft_size=64, hop=16)
    assert stft.n_frames(64, cfg) == 1
    assert stft.n_frames(64 + 15, cfg) == 1
    assert stft.n_frames(64 + 16, cfg) == 2
    assert stft.n_frames(64 + 16 * 10, cfg) == 11
    with pytest.raises(ValueError):
        stft.n_frames(63, cfg)


def test_analyze_shapes_and_indices():
    rng = np.random.default_rng(0)
    cfg = StftConfig(fft_size=64, hop=16)
    sig = rng.standard_normal((3, 200))
    frames = stft.analyze(sig, cfg)
    assert len(frames) == stft.n_frames(200, cfg)
    for j, fr in enumerate(frames):
        assert fr.index == j
        assert fr.bins.shape == (33, 3)
        assert fr.bins.dtype == np.complex128
        assert fr.config == cfg


def test_analyze_single_channel_input():
    rng = np.random.default_rng(1)
    cfg = StftConfig(fft_size=64, hop=16)
    sig = rng.standard_normal(200)
    frames = stft.analyze(sig, cfg)
    assert frames[0].bins.shape == (33, 1)
    both = stft.analyze(sig[None, :], cfg)
    np.testing.assert_array_equal(frames[0].bins, both[0].bins)


def test_frame_content_matches_direct_rfft():
    rng = np.random.default_rng(2)
    cfg = StftConfig(fft_size=64, hop=16)
    sig = rng.standard_normal((2, 300))
    frames = stft.analyze(sig, cfg)
    w = stft.analysis_window(cfg)
    for j in [0, 3, len(frames) - 1]:
        seg = sig[:, j * 16 : j * 16 + 64]
        oracle = np.fft.rfft(seg * w, axis=-1).T
        np.testing.assert_array_equal(frames[j].bins, oracle)


def test_analysis_is_linear():
    rng = np.random.default_rng(3)
    cfg = StftConfig(fft_size=64, hop=16)
    a = rng.standard_normal((2, 400))
    b = rng.standard_normal((2, 400))
    fa = _stack_frames(stft.analyze(a, cfg))
    fb = _stack_frames(stft.analyze(b, cfg))
    fab = _stack_frames(stft.analyze(a + 2.0 * b, cfg))
    np.testing.assert_allclose(fab, fa + 2.0 * fb, rtol=1e-12, atol=1e-12)


def test_pure_tone_leakage_confined_to_neighbouring_bins():
    # bin-centered tone with the periodic raised-cosine window leaks into
    # exactly one bin on each side, with 4:1 center/side energy
    cfg = StftConfig(fft_size=256, hop=64)
    k0 = 24
    t = np.arange(256 + 64 * 4)
    sig = np.cos(2 * np.pi * k0 * t / 256)
    frames = stft.analyze(sig, cfg)
    mag2 = np.abs(frames[1].bins[:, 0]) ** 2
    total = mag2.sum()
    inside = mag2[k0 - 1 : k0 + 2].sum()
    assert inside / total >= 1.0 - 1e-10
    assert mag2[k0] / mag2[k0 - 1] == pytest.approx(4.0, rel=1e-6)
    assert mag2[k0] / mag2[k0 + 1] == pytest.approx(4.0, rel=1e-6)


def test_round_trip_interior_error():
    rng = np.random.default_rng(4)
    cfg = StftConfig()
    sig = rng.standard_normal((2, 16000))
    rec = stft.synthesize(stft.analyze(sig, cfg), cfg, n_samples=16000)
    assert rec.shape == sig.shape
    interior = slice(cfg.fft_size, 16000 - cfg.fft_size)
    assert np.max(np.abs(rec[:, interior] - sig[:, interior])) <= 1e-10


@given(
    st.sampled_from([(256, 64), (256, 128), (512, 128), (128, 32)]),
    st.integers(0, 2**31 - 1),
)
@settings(max_examples=25, deadline=None)
def test_round_trip_any_config(size_hop, seed):
    fft_size, hop = size_hop
    cfg = StftConfig(fft_size=fft_size, hop=hop)
    rng = np.random.default_rng(seed)
    n = fft_size + hop * int(rng.integers(8, 40))
    sig = rng.standard_normal((1, n))
    rec = stft.synthesize(stft.analyze(sig, cfg), cfg, n_samples=n)
    interior = slice(fft_size, n - fft_size)
    assert np.max(np.abs(rec[:, interior] - sig[:, interior])) <= 1e-10


def test_synthesize_natural_length_and_padding():
    rng = np.random.default_rng(5)
    cfg = StftConfig(fft_size=64, hop=16)
    sig = rng.standard_normal((1, 64 + 16 * 9))
    frames = stft.analyze(sig, cfg)
    rec = stft.synthesize(frames, cfg)
    assert rec.shape == (1, 64 + 16 * 9)
    longer = stft.synthesize(frames, cfg, n_samples=400)
    np.testing.assert_array_equal(longer[:, : rec.shape[1]], rec)
    np.testing.assert_array_equal(longer[:, rec.shape[1] :], 0.0)
    shorter = stft.synthesize(frames, cfg, n_samples=100)
    np.testing.assert_array_equal(shorter, rec[:, :100])


def test_synthesize_rejects_a_negative_length():
    # a negative length would slice from the end and drop samples silently
    cfg = StftConfig(fft_size=64, hop=16)
    frames = stft.analyze(np.random.default_rng(6).standard_normal((1, 4096)), cfg)
    with pytest.raises(ValueError, match="n_samples must be >= 0, got -100"):
        stft.synthesize(frames, cfg, -100)
    assert stft.synthesize(frames, cfg, 0).shape == (1, 0)


def test_synthesize_rejects_mismatched_frames():
    cfg = StftConfig(fft_size=64, hop=16)
    other = StftConfig(fft_size=128, hop=32)
    frame = SpectralFrame(bins=np.zeros((33, 1), dtype=complex), index=0, config=cfg)
    with pytest.raises(ValueError):
        stft.synthesize([frame], other)
    bad = SpectralFrame(bins=np.zeros((20, 1), dtype=complex), index=0, config=cfg)
    with pytest.raises(ValueError):
        stft.synthesize([bad], cfg)


def test_modified_spectrum_synthesis_is_linear_in_frames():
    rng = np.random.default_rng(6)
    cfg = StftConfig(fft_size=64, hop=16)
    sig = rng.standard_normal((1, 64 + 16 * 20))
    frames = stft.analyze(sig, cfg)
    halved = [SpectralFrame(bins=0.5 * f.bins, index=f.index, config=cfg) for f in frames]
    np.testing.assert_allclose(
        stft.synthesize(halved, cfg), 0.5 * stft.synthesize(frames, cfg), atol=1e-14
    )


def test_stack_frames_round_trip():
    rng = np.random.default_rng(7)
    cfg = StftConfig(fft_size=64, hop=16)
    frames = stft.analyze(rng.standard_normal((2, 256)), cfg)
    arr = _stack_frames(frames)
    assert arr.shape == (len(frames), 33, 2)
    for j, fr in enumerate(frames):
        np.testing.assert_array_equal(arr[j], fr.bins)
