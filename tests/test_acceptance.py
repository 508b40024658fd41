"""Acceptance gate: one test per numbered release criterion.

The unit suites exercise the same contracts at small sizes; this file
re-runs them at the release scale, case counts, and tolerances, so each
criterion prints as a single pass/fail line under ``pytest -v``.  Criterion
09 runs the shipped desk benchmark manifest end to end and dominates the
runtime (a few minutes); everything else finishes in seconds.
"""

import json
import time
from pathlib import Path

import numpy as np
import pytest

from ivastream import cli, numerics, roomsim
from ivastream import separators as sep
from ivastream.metrics import decompose, sir_sdr
from ivastream.roomsim import ArrayGeometry, Room, Scenario
from ivastream.separators import SeparatorConfig
from ivastream.stft import StftConfig, analyze, synthesize

from oracles import (_aux_objective, _cplx, _dense_congruence, _dense_decompose, _random_pd,
                     _spectral_frames, _tracked_ip_update)

CONFIG_DIR = Path(__file__).resolve().parent.parent / "configs"


def _unit(rng, n):
    v = _cplx(rng, n)
    return v / np.linalg.norm(v)


def _quad(w, v):
    """Real quadratic form w^H V w over leading batch axes."""
    return np.einsum("...m,...mk,...k->...", np.conj(w), v, w).real


def test_criterion_01_kronecker_and_lifting_identities():
    # 1000 random factor-length pairs, product dimension <= 36, unit-norm
    # vectors so an absolute elementwise bound of 1e-15 is scale-free
    rng = np.random.default_rng(101)
    pairs = [(36, 1), (1, 36), (6, 6), (2, 18), (18, 2), (4, 9), (9, 4)]
    while len(pairs) < 1000:
        m1 = int(rng.integers(1, 37))
        m2 = int(rng.integers(1, 36 // m1 + 1))
        pairs.append((m1, m2))
    t0 = time.perf_counter()
    worst = 0.0
    for m1, m2 in pairs:
        a = _unit(rng, m1)
        b = _unit(rng, m2)
        k = numerics.kron(a, b)
        worst = max(worst, np.abs(k.reshape(m1, m2) - np.outer(a, b)).max())
        worst = max(worst, np.abs(numerics.lift_left(b, m1) @ a - k).max())
        worst = max(worst, np.abs(numerics.lift_right(a, m2) @ b - k).max())
    elapsed = time.perf_counter() - t0
    assert worst <= 1e-15
    assert elapsed < 5.0


def test_criterion_02_update_normalization_contracts():
    # after every filter update the quadratic form against the (lifted)
    # covariance equals 1: 1000 full-filter cases, each solved exactly and
    # from the tracked inverse, + 1000 sub-filter cases
    rng = np.random.default_rng(102)
    t0 = time.perf_counter()
    for m, n in ((6, 2), (9, 0)):
        w_mat = _cplx(rng, 500, m, m)
        v = _random_pd(rng, 500, m, m)
        u = numerics.solve_column(w_mat, n)
        for update in (sep.ip_update, _tracked_ip_update):
            w = update(u, v)
            assert np.abs(_quad(w, v) - 1.0).max() <= 1e-10
    for m1, m2 in ((2, 3), (3, 3)):
        m = m1 * m2
        w_mat = _cplx(rng, 250, m, m)
        v = _random_pd(rng, 250, m, m)
        w2 = _cplx(rng, 250, m2)
        w1n = sep.bilinear_update(numerics.solve_column(w_mat, 0), v, w2, "left")
        lifted1 = _dense_congruence(numerics.lift_left(w2, m1), v)
        assert np.abs(_quad(w1n, lifted1) - 1.0).max() <= 1e-10
        w1 = _cplx(rng, 250, m1)
        w2n = sep.bilinear_update(numerics.solve_column(w_mat, 1), v, w1, "right")
        lifted2 = _dense_congruence(numerics.lift_right(w1, m2), v)
        assert np.abs(_quad(w2n, lifted2) - 1.0).max() <= 1e-10
    assert time.perf_counter() - t0 < 10.0


def test_criterion_03_orthogonal_constraint_residual():
    # noise block after oc_update decorrelates source and noise subspaces:
    # ||[J, -I] C W_src^H||_F / (||C||_F ||W_src||_F) <= 1e-8, 1000 cases
    rng = np.random.default_rng(103)
    t0 = time.perf_counter()
    for n_src, m in ((2, 6), (3, 9)):
        c = _random_pd(rng, 500, m, m)
        w_src = _cplx(rng, 500, n_src, m)
        j = sep.oc_update(c, w_src)
        eye = np.broadcast_to(-np.eye(m - n_src), (500, m - n_src, m - n_src))
        block = np.concatenate([j, eye], axis=-1)
        resid = block @ c @ np.conj(np.swapaxes(w_src, -1, -2))
        num = np.linalg.norm(resid, axis=(-2, -1))
        den = np.linalg.norm(c, axis=(-2, -1)) * np.linalg.norm(w_src, axis=(-2, -1))
        assert (num / den).max() <= 1e-8
    assert time.perf_counter() - t0 < 10.0


def test_criterion_04_bilinear_stationarity_residual():
    # the unnormalized sub-filter solution satisfies the reduced stationarity
    # system (lifted covariance times solution equals the lifted demixing
    # column) to 1e-9 relative, with zero diagonal loading; 500 cases, and
    # the public update must point along the same solution
    rng = np.random.default_rng(104)
    for side, m1, m2, n in (("left", 3, 3, 0), ("right", 2, 3, 1)):
        m = m1 * m2
        w_mat = _cplx(rng, 250, m, m)
        v = _random_pd(rng, 250, m, m)
        if side == "left":
            fixed = _cplx(rng, 250, m2)
            delta = numerics.lift_left(fixed, m1)
        else:
            fixed = _cplx(rng, 250, m1)
            delta = numerics.lift_right(fixed, m2)
        u = numerics.solve_column(w_mat, n, 0.0)
        v_sub = _dense_congruence(delta, v)
        rhs = np.einsum("...mk,...m->...k", delta.conj(), u)
        w_un = numerics.hermitian_solve(v_sub, rhs, 0.0)
        resid = np.linalg.norm(np.matmul(v_sub, w_un[..., None])[..., 0] - rhs, axis=-1)
        assert (resid / np.linalg.norm(rhs, axis=-1)).max() <= 1e-9
        w_pub = sep.bilinear_update(u, v, fixed, side)
        scaled = w_pub * np.sqrt(_quad(w_un, v_sub))[..., None]
        rel = np.abs(scaled - w_un) / np.linalg.norm(w_un, axis=-1, keepdims=True)
        assert rel.max() <= 1e-9


def test_criterion_05_trivial_factorization_degeneracy():
    # a (M, 1) or (1, M) factorization strips the bilinear engine down to
    # the full-filter engine: per-bin output magnitudes agree to 1e-8
    # relative on an identical 100-frame stream, frame by frame
    rng = np.random.default_rng(105)
    frames = _spectral_frames(rng, 100, 32, 4)
    t0 = time.perf_counter()
    for m1, m2 in ((4, 1), (1, 4)):
        s_over = sep.init_state(SeparatorConfig(4, 2, "overiva", forgetting=0.97), 32)
        s_bi = sep.init_state(
            SeparatorConfig(4, 2, "biiva", m1, m2, forgetting=0.97), 32
        )
        for frame in frames:
            y_o = np.abs(sep.process_frame(s_over, frame).y)
            y_b = np.abs(sep.process_frame(s_bi, frame).y)
            rel = np.abs(y_b - y_o) / np.maximum(y_o, 1e-300)
            assert rel.max() <= 1e-8
    assert time.perf_counter() - t0 < 30.0


def test_criterion_06_batch_majorizer_monotonicity():
    # with frozen weighted covariances, repeated IP sweeps never increase
    # the auxiliary objective (50 instances x 20 sweeps, +1e-9 relative),
    # with the IP steps solved exactly and from the tracked inverse
    rng = np.random.default_rng(106)
    m, n_bins = 3, 8
    for _ in range(50):
        v = _random_pd(rng, m, n_bins, m, m)
        w0 = _cplx(rng, n_bins, m, m)
        for update in (sep.ip_update, _tracked_ip_update):
            w = w0.copy()
            prev = _aux_objective(w, v)
            for _sweep in range(20):
                for n in range(m):
                    w[:, n, :] = update(numerics.solve_column(w, n), v[n]).conj()
                cur = _aux_objective(w, v)
                assert cur <= prev + 1e-9 * abs(prev)
                prev = cur


def test_criterion_07_stft_round_trip():
    # analyze -> synthesize identity to 1e-10 relative over the interior of
    # a 3 s random signal with the default 1024/256 Hann pair
    rng = np.random.default_rng(107)
    cfg = StftConfig()
    x = rng.standard_normal((2, 3 * 16000))
    y = synthesize(analyze(x, cfg), cfg, x.shape[1])
    core = slice(cfg.fft_size, x.shape[1] - cfg.fft_size)
    err = np.linalg.norm(y[:, core] - x[:, core]) / np.linalg.norm(x[:, core])
    assert err <= 1e-10


def test_criterion_08_simulator_calibration():
    # energy-decay time within +-20% of a 200 ms target, and mixture levels
    # at microphone index 0 within 0.01 dB of the configured ratios
    room = Room.from_t60((6.0, 5.0, 3.0), 0.2)
    h = roomsim.image_source_rir(room, (1.5, 2.2, 1.4), (4.1, 3.3, 1.6))
    t60 = roomsim.measure_t60(h, room.sample_rate)
    assert 0.8 * 0.2 <= t60 <= 1.2 * 0.2

    scenario = Scenario(
        room=Room.from_t60((6.0, 5.0, 3.0), 0.1),
        array=ArrayGeometry.grid(1, 2, 0.06, (3.0, 2.5), 1.4),
        source_positions=[(1.5, 1.8, 1.5), (4.5, 3.4, 1.3)],
        noise_positions=[(4.8, 1.2, 2.2)],
        isir_db=0.0,
        isnr_db=20.0,
        seed=5,
    )
    fs = scenario.room.sample_rate
    sources = np.stack(
        [cli.speechlike_signal((5, k), 2 * fs, fs) for k in range(2)]
    )
    bundle = roomsim.mix(scenario, sources)
    e = np.sum(bundle.source_images[:, 0, :] ** 2, axis=1)
    isir = 10.0 * np.log10(e[0] / e[1])
    assert abs(isir - 0.0) <= 0.01
    e_targets = np.sum(bundle.source_images[:, 0, :].sum(axis=0) ** 2)
    e_noise = np.sum(bundle.noise_observation[0] ** 2)
    isnr = 10.0 * np.log10(e_targets / e_noise)
    assert abs(isnr - 20.0) <= 0.01


@pytest.mark.slow
def test_criterion_09_desk_benchmark_thresholds(tmp_path):
    # full 3-algorithm x 5-seed sweep on the shipped desk manifest: mean
    # converged SIR improvement >= 8 dB (overdetermined engines), >= 5 dB
    # (2-channel baseline), bilinear within 1 dB of full-filter, <= 15 min
    t0 = time.perf_counter()
    rc = cli.main(
        [
            "benchmark",
            str(CONFIG_DIR / "desk_manifest.json"),
            "--out",
            str(tmp_path / "bench"),
        ]
    )
    elapsed = time.perf_counter() - t0
    assert rc == 0
    means = {}
    for algo in ("auxiva", "overiva", "biiva"):
        vals = []
        for seed in (0, 1, 2, 3, 4):
            meta = json.loads(
                (tmp_path / "bench" / f"{algo}_seed{seed}" / "meta.json").read_text()
            )
            vals.extend(meta["converged_sir_improvement_db"])
        means[algo] = float(np.mean(vals))
    assert means["auxiva"] >= 5.0
    assert means["overiva"] >= 8.0
    assert means["biiva"] >= 8.0
    assert means["biiva"] >= means["overiva"] - 1.0
    assert elapsed <= 900.0


def test_criterion_10_online_prefix_causality():
    # output frame j depends only on frames 1..j: feeding the first half of
    # the stream reproduces the corresponding output prefix byte for byte
    rng = np.random.default_rng(110)
    x = rng.standard_normal((9, 24000))
    stft_cfg = StftConfig(fft_size=512, hop=128)
    frames_full = analyze(x, stft_cfg)
    frames_pair = analyze(x[:2], stft_cfg)
    cases = [
        (SeparatorConfig(2, 2, "auxiva"), frames_pair),
        (SeparatorConfig(9, 2, "overiva"), frames_full),
        (SeparatorConfig(9, 2, "biiva", 3, 3), frames_full),
    ]
    for config, frames in cases:
        half = len(frames) // 2
        full = cli.separate_stream(frames, config, reference_channel=0)[0]
        part = cli.separate_stream(frames[:half], config, reference_channel=0)[0]
        assert full[:half].tobytes() == part.tobytes()


def test_criterion_11_metrics_energy_and_oracle():
    # the shifted-reference decomposition conserves energy to 1e-8 relative
    # and its ratios match a dense least-squares oracle within 0.01 dB on
    # a 1-second clip with a 32-tap allowed-distortion span
    rng = np.random.default_rng(111)
    fs = 16000
    refs = rng.standard_normal((2, fs))
    h0 = rng.standard_normal(16) * 0.7 ** np.arange(16)
    h1 = rng.standard_normal(16) * 0.7 ** np.arange(16)
    est = (
        np.convolve(refs[0], h0)[:fs]
        + 0.4 * np.convolve(refs[1], h1)[:fs]
        + 0.03 * rng.standard_normal(fs)
    )
    for target_index in (0, 1):
        d = decompose(est, refs, 32, target_index)
        padded = np.zeros(fs + 31)
        padded[:fs] = est
        total = d.target + d.interference + d.artifact
        e_est = float(np.sum(padded**2))
        assert np.linalg.norm(total - padded) <= 1e-8 * np.sqrt(e_est)
        e_parts = float(
            np.sum(d.target**2) + np.sum(d.interference**2) + np.sum(d.artifact**2)
        )
        assert abs(e_parts - e_est) <= 1e-8 * e_est
        fast = sir_sdr(d)
        slow = sir_sdr(_dense_decompose(est, refs, 32, target_index))
        assert abs(fast[0] - slow[0]) < 0.01
        assert abs(fast[1] - slow[1]) < 0.01
