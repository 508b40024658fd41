"""Metrics tests: the shifted-reference decomposition against closed-form
cases and a dense least-squares oracle, ratio sentinels, segment curves,
and the CSV boundary."""

import csv

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

from ivastream.metrics import (
    CSV_COLUMNS,
    CSV_SENTINEL_DB,
    Decomposition,
    EvalConfig,
    EvalReport,
    convergence_curve,
    decompose,
    sir_sdr,
)


def _refs(seed, n_sources=2, n_samples=4000, silent_tail=0):
    """Independent noise references; an optional silent tail keeps short
    filtered copies inside the shifted-reference span."""
    rng = np.random.default_rng(seed)
    refs = rng.standard_normal((n_sources, n_samples))
    if silent_tail:
        refs[:, -silent_tail:] = 0.0
    return refs


# ---------------------------------------------------------------------------
# decomposition


def test_config_validation():
    cfg = EvalConfig()
    assert cfg.segment_seconds == 2.0
    assert cfg.filter_length == 512
    assert cfg.reference_channel == 0
    with pytest.raises(ValueError):
        EvalConfig(segment_seconds=0.0)
    with pytest.raises(ValueError):
        EvalConfig(filter_length=0)
    with pytest.raises(ValueError):
        EvalConfig(reference_channel=-1)


def test_exact_reference_has_no_interference_or_artifact():
    refs = _refs(0)
    dec = decompose(refs[0], refs, 32, target_index=0)
    total = np.sum(refs[0] ** 2)
    assert np.sum(dec.interference**2) <= 1e-10 * total
    assert np.sum(dec.artifact**2) <= 1e-10 * total
    assert_allclose(dec.target[: refs.shape[1]], refs[0], atol=1e-8)


def test_wrong_reference_lands_in_interference():
    refs = _refs(1)
    dec = decompose(refs[1], refs, 32, target_index=0)
    total = np.sum(refs[1] ** 2)
    # independent noise: the target span explains only ~L/T of the energy
    assert np.sum(dec.target**2) <= 0.05 * total
    assert np.sum(dec.interference**2) >= 0.9 * total


def test_projection_subsumes_short_filters():
    refs = _refs(2, silent_tail=40)
    h = np.random.default_rng(3).standard_normal(16)
    est = np.convolve(refs[0], h)[: refs.shape[1]]  # silent tail => no truncation loss
    dec = decompose(est, refs, 32, target_index=0)
    assert np.sum(dec.artifact**2) <= 1e-8 * np.sum(est**2)
    assert np.sum(dec.interference**2) <= 1e-8 * np.sum(est**2)


def test_parts_sum_to_padded_estimate_and_conserve_energy():
    rng = np.random.default_rng(4)
    refs = _refs(5, n_sources=3)
    est = 0.8 * refs[0] + 0.3 * refs[1] + 0.1 * rng.standard_normal(refs.shape[1])
    dec = decompose(est, refs, 24, target_index=0)
    padded = np.zeros(refs.shape[1] + 23)
    padded[: refs.shape[1]] = est
    total = dec.target + dec.interference + dec.artifact
    assert_allclose(total, padded, atol=1e-10 * np.abs(est).max())
    energy = np.sum(est**2)
    parts = np.sum(dec.target**2) + np.sum(dec.interference**2) + np.sum(dec.artifact**2)
    assert abs(parts - energy) <= 1e-8 * energy


def test_parts_are_mutually_orthogonal():
    refs = _refs(6)
    est = refs.sum(axis=0) + 0.2 * np.random.default_rng(7).standard_normal(refs.shape[1])
    dec = decompose(est, refs, 16, target_index=1)
    scale = np.sum(est**2)
    assert abs(np.dot(dec.target, dec.interference)) <= 1e-8 * scale
    assert abs(np.dot(dec.target, dec.artifact)) <= 1e-8 * scale
    assert abs(np.dot(dec.interference, dec.artifact)) <= 1e-8 * scale


def test_decompose_input_validation():
    refs = _refs(8)
    with pytest.raises(ValueError, match="length"):
        decompose(refs[0][:100], refs, 8)
    with pytest.raises(ValueError, match="target_index"):
        decompose(refs[0], refs, 8, target_index=2)
    with pytest.raises(ValueError, match="filter_length"):
        decompose(refs[0], refs, 0)


def test_silent_reference_is_an_error():
    refs = _refs(9)
    refs[1] = 0.0
    with pytest.raises(ValueError, match="reference 1 is silent"):
        decompose(refs[0], refs, 8)


def test_duplicate_references_are_rank_deficient():
    refs = _refs(10)
    refs[1] = refs[0]
    with pytest.raises(ValueError, match="rank deficient"):
        decompose(refs[0], refs, 8)


def _dense_decompose(est, refs, lags, target_index):
    """Brute-force oracle: explicit shifted-copy basis and lstsq projections."""
    n_refs, n_samples = refs.shape
    out_len = n_samples + lags - 1
    basis = np.zeros((out_len, n_refs * lags))
    for n in range(n_refs):
        for tau in range(lags):
            basis[tau : tau + n_samples, n * lags + tau] = refs[n]
    padded = np.zeros(out_len)
    padded[:n_samples] = est
    coef_all, *_ = np.linalg.lstsq(basis, padded, rcond=None)
    sub = basis[:, target_index * lags : (target_index + 1) * lags]
    coef_tgt, *_ = np.linalg.lstsq(sub, padded, rcond=None)
    proj_all = basis @ coef_all
    proj_tgt = sub @ coef_tgt
    return Decomposition(proj_tgt, proj_all - proj_tgt, padded - proj_all, n_samples)


@pytest.mark.parametrize("target_index", [0, 1])
def test_matches_dense_least_squares_oracle(target_index):
    rng = np.random.default_rng(11)
    refs = _refs(12, n_samples=8000)
    mix = 1.0 * refs[0] + 0.5 * refs[1] + 0.05 * rng.standard_normal(8000)
    fast = sir_sdr(decompose(mix, refs, 32, target_index))
    slow = sir_sdr(_dense_decompose(mix, refs, 32, target_index))
    assert abs(fast[0] - slow[0]) < 0.01
    assert abs(fast[1] - slow[1]) < 0.01


# ---------------------------------------------------------------------------
# ratios


def test_clean_decomposition_reports_infinite_ratios():
    t = np.array([1.0, 2.0, 3.0])
    z = np.zeros(3)
    assert sir_sdr(Decomposition(t, z, z, 3)) == (np.inf, np.inf)


def test_ten_to_one_energy_is_ten_db():
    t = np.sqrt(10.0) * np.array([1.0, 0.0])
    i = np.array([0.0, 1.0])
    sir, sdr = sir_sdr(Decomposition(t, i, np.zeros(2), 2))
    assert_allclose([sir, sdr], [10.0, 10.0], atol=1e-12)


def test_zero_target_reports_negative_infinity():
    z = np.zeros(3)
    i = np.ones(3)
    sir, sdr = sir_sdr(Decomposition(z, i, z, 3))
    assert sir == -np.inf and sdr == -np.inf


@pytest.mark.parametrize("scale", [0.1, 3.0, -2.0])
def test_ratios_are_scale_invariant(scale):
    refs = _refs(13)
    est = refs[0] + 0.1 * refs[1]
    base = sir_sdr(decompose(est, refs, 16, 0))
    scaled = sir_sdr(decompose(scale * est, refs, 16, 0))
    assert_allclose(scaled, base, atol=1e-9)


def test_added_noise_never_helps_sdr():
    refs = _refs(14)
    est = refs[0] + 0.05 * refs[1]
    _, base_sdr = sir_sdr(decompose(est, refs, 16, 0))
    for seed in range(5):
        noisy = est + 0.3 * np.random.default_rng(seed).standard_normal(est.shape)
        _, sdr = sir_sdr(decompose(noisy, refs, 16, 0))
        assert sdr < base_sdr


# ---------------------------------------------------------------------------
# segment curves and report serialization


def test_identity_separator_has_zero_improvement_everywhere():
    refs = _refs(15, n_samples=6000)
    mix = refs.sum(axis=0)
    est = np.stack([mix, mix])
    cfg = EvalConfig(segment_seconds=1.0, filter_length=16)
    report = convergence_curve(est, refs, mix, cfg, sample_rate=1000)
    assert report.n_segments == 6
    assert_array_equal(report.sir_improvement_db, np.zeros((6, 2)))
    assert_array_equal(report.sdr_improvement_db, np.zeros((6, 2)))
    assert_allclose(report.converged_sir_improvement_db, 0.0, atol=0.0)


def test_segment_layout_matches_duration():
    refs = _refs(16, n_samples=30_000)
    mix = refs.sum(axis=0)
    cfg = EvalConfig(segment_seconds=2.0, filter_length=8)
    report = convergence_curve(refs, refs, mix, cfg, sample_rate=1000)
    assert report.n_segments == 15
    assert_allclose(report.t_start_s, np.arange(15) * 2.0, atol=1e-12)
    # oracle estimates separate perfectly: huge SIR every segment
    assert np.all(report.sir_db > 60.0)
    assert np.all(report.sir_improvement_db > 0.0)


def test_curve_input_validation():
    refs = _refs(20, n_samples=2000)
    mix = refs.sum(axis=0)
    cfg = EvalConfig(segment_seconds=1.0, filter_length=8)
    with pytest.raises(ValueError, match="differ"):
        convergence_curve(refs[:1], refs, mix, cfg, sample_rate=1000)
    with pytest.raises(ValueError, match="mixture length"):
        convergence_curve(refs, refs, mix[:-1], cfg, sample_rate=1000)
    with pytest.raises(ValueError, match="shorter than one"):
        convergence_curve(refs, refs, mix, cfg, sample_rate=100_000)


def _toy_report():
    sir = np.array([[5.0, np.inf], [7.0, -np.inf]])
    sdr = np.array([[4.0, np.nan], [6.0, 2.0]])
    zeros = np.zeros_like(sir)
    return EvalReport(
        t_start_s=np.array([0.0, 2.0]),
        sir_db=sir,
        sdr_db=sdr,
        sir_baseline_db=zeros,
        sdr_baseline_db=zeros,
        converged_sir_db=sir[-1],
        converged_sdr_db=sdr[-1],
        converged_sir_improvement_db=sir[-1],
        converged_sdr_improvement_db=sdr[-1],
    )


def test_csv_layout_and_sentinel_clipping(tmp_path):
    path = tmp_path / "report.csv"
    _toy_report().to_csv(path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == list(CSV_COLUMNS)
    assert len(rows) == 1 + 2 * 2
    # finite row passes through unclipped
    seg0_src0 = rows[1]
    assert seg0_src0[0] == "0" and seg0_src0[2] == "0"
    assert float(seg0_src0[3]) == 5.0 and seg0_src0[7] == "0"
    # +inf SIR clips to the sentinel and sets the flag
    seg0_src1 = rows[2]
    assert float(seg0_src1[3]) == CSV_SENTINEL_DB
    assert seg0_src1[7] == "1"
    # NaN SDR serializes as 0 with the flag
    assert float(seg0_src1[4]) == 0.0
    # -inf clips to the negative sentinel
    seg1_src1 = rows[4]
    assert float(seg1_src1[3]) == -CSV_SENTINEL_DB
    assert seg1_src1[7] == "1"


def test_csv_is_deterministic(tmp_path):
    refs = _refs(21, n_samples=3000)
    mix = refs.sum(axis=0)
    cfg = EvalConfig(segment_seconds=1.0, filter_length=8)
    report = convergence_curve(refs, refs, mix, cfg, sample_rate=1000)
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    report.to_csv(p1)
    report.to_csv(p2)
    assert p1.read_bytes() == p2.read_bytes()
