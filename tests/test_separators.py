"""Online engine tests: recursions, updates, invariants, smoke separation."""

import copy
import dataclasses
import math
import os
import re
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import ivastream.numerics as nx
import ivastream.separators as sep
import ivastream.stft as stft
from ivastream import cli
from ivastream.separators import Algorithm, SeparatorConfig
from ivastream.stft import SpectralFrame, StftConfig

from oracles import (_aux_objective, _cplx, _dense_congruence, _random_pd, _spectral_frames,
                     _tracked_ip_update)


def _assert_hermitian(a, rtol):
    """``A == A^H`` to within ``rtol`` of the largest entry."""
    dev = np.abs(a - np.conj(np.swapaxes(a, -1, -2))).max()
    assert dev <= rtol * np.abs(a).max()


def _reachable_w(rng, n_bins, m, n_src):
    """Random demixing matrices with the noise rows ``[J, -I]`` every
    overdetermined state keeps."""
    w = _cplx(rng, n_bins, m, m)
    w[:, n_src:, n_src:] = -np.eye(m - n_src)
    return w


def _speechlike(rng, n_samples, sample_rate):
    """Pink noise with a slow random on/off envelope: nonstationary enough
    for a time-varying-variance contrast to latch onto."""
    spec = np.fft.rfft(rng.standard_normal(n_samples))
    f = np.fft.rfftfreq(n_samples, 1.0 / sample_rate)
    f[0] = f[1]
    x = np.fft.irfft(spec / np.sqrt(f), n_samples)
    n_knots = max(4, int(round(4.0 * n_samples / sample_rate)))
    knots = np.abs(rng.standard_normal(n_knots)) ** 2
    env = np.interp(np.arange(n_samples), np.linspace(0, n_samples - 1, n_knots), knots)
    x = x * (0.05 + env)
    return x / np.std(x)


def _projection_sir(estimates, sources):
    """SIR of each estimate via least squares against the true source
    signals; valid for instantaneous mixtures. Returns the best pairing."""
    s = sources / np.linalg.norm(sources, axis=1, keepdims=True)
    sirs = []
    for y in estimates:
        c, *_ = np.linalg.lstsq(s.T, y, rcond=None)
        p = np.abs(c) ** 2
        k = int(np.argmax(p))
        sirs.append((k, 10 * np.log10(p[k] / max(p.sum() - p[k], 1e-300))))
    return sirs


class TestConfig:
    def test_per_algorithm_forgetting_defaults(self):
        assert SeparatorConfig(2, 2, "auxiva").forgetting == 0.96
        assert SeparatorConfig(4, 2, "overiva").forgetting == 0.99
        assert SeparatorConfig(4, 2, "biiva", 2, 2).forgetting == 0.98

    def test_explicit_forgetting_respected(self):
        assert SeparatorConfig(4, 2, "overiva", forgetting=0.5).forgetting == 0.5

    def test_auxiva_must_be_determined(self):
        with pytest.raises(ValueError):
            SeparatorConfig(4, 2, "auxiva")

    def test_overdetermined_algorithms_need_spare_channels(self):
        with pytest.raises(ValueError):
            SeparatorConfig(2, 2, "overiva")
        with pytest.raises(ValueError):
            SeparatorConfig(2, 2, "biiva", 2, 1)

    def test_biiva_factorization_must_match(self):
        with pytest.raises(ValueError):
            SeparatorConfig(6, 2, "biiva", 2, 2)
        with pytest.raises(ValueError):
            SeparatorConfig(6, 2, "biiva")
        SeparatorConfig(6, 2, "biiva", 3, 2)  # fine

    @pytest.mark.parametrize("m, algo, kwargs", [
        (9, "overiva", {"sub_len_1": 3, "sub_len_2": 5}),
        (9, "overiva", {"sub_len_1": 3, "sub_len_2": 3}),
        (2, "auxiva", {"sub_len_1": 7}),
        (2, "auxiva", {"sub_len_2": 1}),
    ])
    def test_sub_filter_lengths_only_for_biiva(self, m, algo, kwargs):
        with pytest.raises(ValueError, match="for biiva only"):
            SeparatorConfig(m, 2, algo, **kwargs)

    def test_forgetting_bounds(self):
        with pytest.raises(ValueError):
            SeparatorConfig(4, 2, "overiva", forgetting=0.0)
        with pytest.raises(ValueError):
            SeparatorConfig(4, 2, "overiva", forgetting=1.1)
        # alpha = 1 adds (1 - alpha) x x^H = 0: the statistics never move
        with pytest.raises(ValueError):
            SeparatorConfig(4, 2, "overiva", forgetting=1.0)

    def test_loading_is_not_a_field(self):
        # every engine solve loads with the module constant LOADING
        with pytest.raises(TypeError):
            SeparatorConfig(9, 2, "overiva", loading=1e-9)

    def test_algorithm_coerced_from_string(self):
        assert SeparatorConfig(4, 2, "overiva").algorithm is Algorithm.OVERIVA


class TestInitState:
    def test_identity_rows_and_noise_block(self):
        cfg = SeparatorConfig(5, 2, "overiva")
        st = sep.init_state(cfg, 7)
        assert st.W.shape == (7, 5, 5)
        np.testing.assert_array_equal(st.W[:, :2, :], np.tile(np.eye(5)[:2], (7, 1, 1)))
        np.testing.assert_array_equal(st.W[:, 2:, :2], 0.0)
        np.testing.assert_array_equal(st.W[:, 2:, 2:], np.tile(-np.eye(3), (7, 1, 1)))
        np.testing.assert_array_equal(st.V, np.tile(np.eye(5), (2, 7, 1, 1)))
        np.testing.assert_array_equal(st.C, np.tile(np.eye(5), (7, 1, 1)))

    def test_biiva_rows_are_kron_of_subfilters(self):
        cfg = SeparatorConfig(6, 3, "biiva", 3, 2)
        st = sep.init_state(cfg, 4)
        for n in range(3):
            np.testing.assert_array_equal(
                st.W[:, n, :], nx.kron(st.w1[n], st.w2[n]).conj()
            )
            # source n starts on channel n, as in the other engines
            np.testing.assert_array_equal(st.W[0, n, :], np.eye(6)[n])

    def test_auxiva_has_no_noise_block(self):
        st = sep.init_state(SeparatorConfig(3, 3, "auxiva"), 2)
        np.testing.assert_array_equal(st.W, np.tile(np.eye(3), (2, 1, 1)))
        # no tracked inverse, and no spatial covariance without a noise block
        assert st.P is None and st.C is None


class TestRecursions:
    def test_contrast_weight_identity_filters(self):
        cfg = SeparatorConfig(3, 3, "auxiva")
        st = sep.init_state(cfg, 4)
        rng = np.random.default_rng(0)
        x = _cplx(rng, 4, 3)
        for n in range(3):
            # reciprocal of the PER-BIN output power (4 bins here)
            expect = 1.0 / (np.sum(np.abs(x[:, n]) ** 2) / 4)
            assert sep.contrast_weight(st, x, n) == pytest.approx(expect, rel=1e-12)

    def test_contrast_weight_quarter_amplitude_scaling(self):
        # homogeneity: scaling the frame by 2 divides the weight by 4
        cfg = SeparatorConfig(3, 3, "auxiva")
        st = sep.init_state(cfg, 4)
        rng = np.random.default_rng(3)
        x = _cplx(rng, 4, 3)
        assert sep.contrast_weight(st, 2.0 * x, 1) == pytest.approx(
            sep.contrast_weight(st, x, 1) / 4.0, rel=1e-12
        )

    def test_contrast_weight_unit_magnitude_bins(self):
        # |w^H x| = 1 in every bin -> per-bin power 1 -> weight 1
        cfg = SeparatorConfig(2, 2, "auxiva")
        st = sep.init_state(cfg, 4)
        x = np.ones((4, 2), dtype=complex)
        assert sep.contrast_weight(st, x, 0) == pytest.approx(1.0, rel=1e-12)

    def test_contrast_weight_floor_on_silence(self):
        cfg = SeparatorConfig(3, 3, "auxiva")
        st = sep.init_state(cfg, 4)
        assert sep.contrast_weight(st, np.zeros((4, 3), complex), 0) == 1e-12**-1

    def test_weighted_cov_single_step(self):
        rng = np.random.default_rng(1)
        x = _cplx(rng, 5, 3)
        xxh = x[:, :, None] * x[:, None, :].conj()
        v0 = np.tile(np.eye(3, dtype=complex), (5, 1, 1))
        alpha = 0.9
        v = v0.copy()
        assert sep.update_weighted_cov(v, xxh, weight=2.5, alpha=alpha) is None
        expect = alpha * v0 + (1.0 - alpha) * 2.5 * xxh
        np.testing.assert_array_equal(v, expect)

    def test_recursion_preserves_hermitian_pd(self):
        rng = np.random.default_rng(3)
        cfg = SeparatorConfig(4, 2, "overiva")
        st = sep.init_state(cfg, 6)
        for frame in _spectral_frames(rng, 40, 6, 4):
            sep.process_frame(st, frame)
        for n in range(2):
            _assert_hermitian(st.V[n], rtol=1e-10)
            assert np.linalg.eigvalsh(st.V[n]).min() > 0
        _assert_hermitian(st.C, rtol=1e-10)
        assert np.linalg.eigvalsh(st.C).min() > 0


class TestIpUpdate:
    def test_normalization_contract(self):
        self._check_normalization(sep.ip_update)

    def test_normalization_contract_from_tracked_inverse(self):
        self._check_normalization(_tracked_ip_update)

    def test_identity_covariance_closed_form(self):
        self._check_identity_covariance(sep.ip_update)

    def test_identity_covariance_from_tracked_inverse(self):
        self._check_identity_covariance(_tracked_ip_update)

    @staticmethod
    def _check_normalization(update):
        rng = np.random.default_rng(4)
        w_mat = _cplx(rng, 30, 4, 4)
        v = _random_pd(rng, 30, 4, 4)
        for n in range(4):
            w = update(nx.solve_column(w_mat, n), v)
            q = np.einsum("...m,...mk,...k->...", w.conj(), v, w).real
            assert np.max(np.abs(q - 1.0)) <= 1e-10

    @staticmethod
    def _check_identity_covariance(update):
        rng = np.random.default_rng(5)
        w_mat = _cplx(rng, 10, 3, 3)
        v = np.tile(np.eye(3, dtype=complex), (10, 1, 1))
        w = update(nx.solve_column(w_mat, 1), v)
        u = np.linalg.inv(w_mat)[:, :, 1]
        np.testing.assert_allclose(w, u / np.linalg.norm(u, axis=-1, keepdims=True), rtol=1e-9, atol=1e-12)

    @pytest.mark.parametrize("cond", [10.0, 1e10], ids=["conditioned", "near_singular"])
    def test_exact_2x2_step_matches_dense_oracle(self, monkeypatch, cond):
        # auxiva's step: Cramer's rule and w^H V w on the 2 x 2 entries,
        # against LAPACK on the loaded V and the dense product.  Both sides
        # round to about eps * cond(V) along V's weak direction, so beyond
        # 1e-12 the bound is a few times that
        rng = np.random.default_rng(int(np.log10(cond)))
        q = np.linalg.qr(_cplx(rng, 513, 2, 2))[0]
        v = (q * np.array([1.0, 1.0 / cond])) @ np.conj(np.swapaxes(q, -1, -2))
        u = _cplx(rng, 513, 2)
        loading = 1e-9
        shift = loading * np.trace(v, axis1=-2, axis2=-1).real / 2
        ref = np.linalg.solve(v + shift[:, None, None] * np.eye(2), u[..., None])[..., 0]
        ref /= np.sqrt(np.einsum("...m,...mk,...k->...", ref.conj(), v, ref).real)[:, None]

        def fail(*args, **kwargs):
            raise AssertionError("a 2 x 2 IP step went to LAPACK")

        monkeypatch.setattr(nx, "_lapack_solve", fail)
        w = sep.ip_update(u, v, loading)
        err = np.linalg.norm(w - ref, axis=-1) / np.linalg.norm(ref, axis=-1)
        assert np.max(err) <= max(1e-12, 16.0 * np.finfo(float).eps * cond)

    @pytest.mark.parametrize("v_11", [-1.0, 0.0], ids=["indefinite", "semidefinite"])
    def test_non_positive_2x2_quadratic_form_raises(self, v_11):
        # u = e_1 puts w on V's second axis, where w^H V w is v_11 |w_1|^2
        v = np.tile(np.eye(2, dtype=complex), (5, 1, 1))
        v[3, 1, 1] = v_11
        u = np.tile(np.array([0.0, 1.0], dtype=complex), (5, 1))
        with pytest.raises(nx.SingularMatrixError, match="non-positive quadratic form"):
            sep.ip_update(u, v, 1e-3)

    def test_singular_demixing_raises(self):
        w_mat = np.ones((2, 3, 3), dtype=complex)
        v = np.tile(np.eye(3, dtype=complex), (2, 1, 1))
        with pytest.raises(nx.SingularMatrixError):
            sep.ip_update(nx.solve_column(w_mat, 0), v)

    @pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 8])
    def test_well_conditioned_exact_step_takes_no_checked_solve(self, monkeypatch, k):
        # auxiva's and biiva's step: solve_loaded alone, elementwise at every
        # K, a 2 x 8 split's sub-filter systems included
        rng = np.random.default_rng(40 + k)
        v = _random_pd(rng, 2, 64, k, k)
        u = _cplx(rng, 2, 64, k)

        def fail(*args, **kwargs):
            raise AssertionError("a well-conditioned exact IP step took a checked solve")

        monkeypatch.setattr(nx, "hermitian_solve", fail)
        monkeypatch.setattr(nx, "_lapack_solve", fail)
        w = sep.ip_update(u, v, sep.LOADING)
        q = np.einsum("...m,...mk,...k->...", w.conj(), v, w).real
        assert np.max(np.abs(q - 1.0)) <= 1e-12

    @pytest.mark.parametrize("tracked", [False, True], ids=["exact", "tracked"])
    def test_rejected_bins_alone_are_re_solved(self, monkeypatch, tracked):
        rng = np.random.default_rng(45)
        v = _random_pd(rng, 2, 16, 3, 3)
        u = _cplx(rng, 2, 16, 3)
        p = nx.scaled_inverse(v, sep.LOADING) if tracked else None
        w_ref = sep.ip_update(u, v, sep.LOADING, None if p is None else p.copy())
        name = "solve_with_inverse" if tracked else "solve_loaded"
        first, hermitian_solve, solved = getattr(nx, name), nx.hermitian_solve, []
        lapack, eliminate, lapack_sizes, eliminated = nx._lapack_solve, nx._eliminate, [], []

        def reject(*args):
            x, ax, ok = first(*args)
            ok[0, 2] = ok[1, 7] = False
            return x, ax, ok

        def logged(a, b, loading=0.0):
            if np.ndim(b) < np.ndim(a):  # not the refresh of P
                solved.append(a)
            return hermitian_solve(a, b, loading)

        def lapack_logged(a, b, context, index=None):
            lapack_sizes.append(len(a))
            return lapack(a, b, context, index)

        def eliminate_logged(g, k):
            eliminated.append(g.shape[-1])
            return eliminate(g, k)

        monkeypatch.setattr(nx, name, reject)
        monkeypatch.setattr(nx, "hermitian_solve", logged)
        monkeypatch.setattr(nx, "_lapack_solve", lapack_logged)
        monkeypatch.setattr(nx, "_eliminate", eliminate_logged)
        w = sep.ip_update(u, v, sep.LOADING, p)
        assert len(solved) == 1
        np.testing.assert_array_equal(solved[0], v[[0, 1], [2, 7]])
        # one LAPACK pass over the two rejected systems (and, tracked, one
        # more refreshing their P); the only elimination is the exact first
        # pass over all 2 x 16 systems
        assert lapack_sizes == ([2, 2] if tracked else [2])
        assert eliminated == ([] if tracked else [32])
        np.testing.assert_allclose(w, w_ref, rtol=1e-12)

    @pytest.mark.parametrize("batch, bin_", [((10,), (7,)), ((2, 10), (1, 7))], ids=["bins", "sources_bins"])
    @pytest.mark.parametrize("m", [3, 9])
    @pytest.mark.parametrize("tracked", [False, True], ids=["exact", "tracked"])
    def test_failed_repair_names_the_bin(self, batch, bin_, m, tracked):
        # a zero covariance: the first pass rejects it without a warning and
        # the checked re-solve of the rejected bins raises, naming its bin in
        # v rather than its place among them
        v = np.tile(np.eye(m, dtype=complex), batch + (1, 1))
        v[bin_] = 0.0
        u = np.ones(batch + (m,), dtype=complex)
        p = np.tile(np.eye(m, dtype=complex), batch + (1, 1)) if tracked else None
        where = re.escape(str(np.array(bin_)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(nx.SingularMatrixError, match=rf"hermitian_solve: .* batch index {where}$"):
                sep.ip_update(u, v, sep.LOADING, p)


class TestOcUpdate:
    def test_orthogonality_residual(self):
        rng = np.random.default_rng(6)
        c = _random_pd(rng, 50, 5, 5)
        w_src = _cplx(rng, 50, 2, 5)
        j = sep.oc_update(c, w_src)
        w_noise = np.concatenate([j, -np.tile(np.eye(3, dtype=complex), (50, 1, 1))], axis=-1)
        resid = w_noise @ c @ np.conj(np.swapaxes(w_src, -1, -2))
        scale = np.linalg.norm(c, axis=(-2, -1)) * np.linalg.norm(w_src, axis=(-2, -1)) * np.linalg.norm(w_noise, axis=(-2, -1))
        rel = np.linalg.norm(resid, axis=(-2, -1)) / scale
        assert rel.max() <= 1e-8

    def test_shape(self):
        rng = np.random.default_rng(7)
        c = _random_pd(rng, 4, 6, 6)
        j = sep.oc_update(c, _cplx(rng, 4, 2, 6))
        assert j.shape == (4, 4, 2)


class TestBilinearUpdates:
    def test_normalization_against_lifted_covariance(self):
        rng = np.random.default_rng(8)
        w_mat = _cplx(rng, 20, 6, 6)
        v = _random_pd(rng, 20, 6, 6)
        w2 = _cplx(rng, 20, 2)
        u = nx.solve_column(w_mat, 0)
        w1 = sep.bilinear_update(u, v, w2, "left")
        v1 = _dense_congruence(nx.lift_left(w2, 3), v)
        q1 = np.einsum("...m,...mk,...k->...", w1.conj(), v1, w1).real
        assert np.max(np.abs(q1 - 1.0)) <= 1e-10
        w2b = sep.bilinear_update(u, v, w1, "right")
        v2 = _dense_congruence(nx.lift_right(w1, 2), v)
        q2 = np.einsum("...m,...mk,...k->...", w2b.conj(), v2, w2b).real
        assert np.max(np.abs(q2 - 1.0)) <= 1e-10

    def test_equals_composition_of_public_ops(self):
        rng = np.random.default_rng(9)
        w_mat = _cplx(rng, 15, 4, 4)
        v = _random_pd(rng, 15, 4, 4)
        w2 = _cplx(rng, 15, 2)
        delta = nx.lift_left(w2, 2)
        v_sub = _dense_congruence(delta, v)
        u = nx.solve_column(w_mat, 1)
        rhs = np.einsum("...mk,...m->...k", delta.conj(), u)
        w1_raw = nx.hermitian_solve(v_sub, rhs)
        q = np.einsum("...m,...mk,...k->...", w1_raw.conj(), v_sub, w1_raw).real
        # normalization constant may differ by summation order, hence allclose
        np.testing.assert_allclose(
            sep.bilinear_update(u, v, w2, "left"),
            w1_raw / np.sqrt(q)[..., None],
            rtol=1e-13,
            atol=1e-300,
        )

    def test_trivial_second_filter_update(self):
        # V = I, W = I, first sub-filter a unit vector -> second stays e_1
        w_mat = np.eye(4, dtype=complex)[None]
        v = np.eye(4, dtype=complex)[None]
        w1 = np.zeros((1, 2), dtype=complex)
        w1[0, 0] = 1.0
        w2 = sep.bilinear_update(nx.solve_column(w_mat, 0), v, w1, "right")
        np.testing.assert_allclose(w2, [[1.0, 0.0]], atol=1e-14)

    def test_scalar_second_factor_matches_ip_direction(self):
        # M2 = 1 degeneracy at the single-update level: kron(w1, w2) after a
        # (1-dim) second update is colinear with the plain IP filter
        rng = np.random.default_rng(10)
        w_mat = _cplx(rng, 8, 4, 4)
        v = _random_pd(rng, 8, 4, 4)
        w2 = np.ones((8, 1), dtype=complex)
        u = nx.solve_column(w_mat, 2)
        w1 = sep.bilinear_update(u, v, w2, "left")
        w_ip = sep.ip_update(u, v)
        cos = np.abs(np.einsum("...m,...m->...", w1.conj(), w_ip)) / (
            np.linalg.norm(w1, axis=-1) * np.linalg.norm(w_ip, axis=-1)
        )
        np.testing.assert_allclose(cos, 1.0, atol=1e-10)


class TestProcessFrame:
    def test_zero_frame(self):
        cfg = SeparatorConfig(4, 2, "overiva", forgetting=0.9)
        st = sep.init_state(cfg, 5)
        frame = SpectralFrame(bins=np.zeros((5, 4), complex), index=0, config=StftConfig())
        est = sep.process_frame(st, frame)
        np.testing.assert_array_equal(est.y, 0.0)
        np.testing.assert_array_equal(st.V, 0.9 * np.tile(np.eye(4), (2, 5, 1, 1)))
        np.testing.assert_array_equal(st.C, 0.9 * np.tile(np.eye(4), (5, 1, 1)))

    def test_frame_dimension_mismatch(self):
        st = sep.init_state(SeparatorConfig(4, 2, "overiva"), 5)
        bad = SpectralFrame(bins=np.zeros((5, 3), complex), index=0, config=StftConfig())
        with pytest.raises(ValueError, match="frame 0"):
            sep.process_frame(st, bad)

    def test_nonfinite_frame_rejected(self):
        st = sep.init_state(SeparatorConfig(4, 2, "overiva"), 5)
        bins = np.zeros((5, 4), complex)
        bins[2, 1] = np.nan
        bad = SpectralFrame(bins=bins, index=0, config=StftConfig())
        with pytest.raises(ValueError, match="non-finite"):
            sep.process_frame(st, bad)

    def test_frame_index_advances(self):
        rng = np.random.default_rng(12)
        st = sep.init_state(SeparatorConfig(4, 2, "overiva"), 6)
        for j, frame in enumerate(_spectral_frames(rng, 4, 6, 4)):
            est = sep.process_frame(st, frame)
            assert est.frame_index == j
        assert st.frame_index == 4

    def test_normalization_holds_in_state(self):
        rng = np.random.default_rng(13)
        for algo, kwargs in [("overiva", {}), ("biiva", {"sub_len_1": 2, "sub_len_2": 2})]:
            cfg = SeparatorConfig(4, 2, algo, **kwargs)
            st = sep.init_state(cfg, 8)
            frames = _spectral_frames(rng, 15, 8, 4)
            for frame in frames:
                sep.process_frame(st, frame)
            if algo == "overiva":
                for n in range(2):
                    w = st.W[:, n, :].conj()
                    q = np.einsum("...m,...mk,...k->...", w.conj(), st.V[n], w).real
                    assert np.max(np.abs(q - 1.0)) <= 1e-10

    def test_biiva_rows_stay_exact_kron(self):
        rng = np.random.default_rng(14)
        cfg = SeparatorConfig(6, 2, "biiva", 3, 2)
        st = sep.init_state(cfg, 8)
        for frame in _spectral_frames(rng, 10, 8, 6):
            sep.process_frame(st, frame)
            for n in range(2):
                np.testing.assert_array_equal(
                    st.W[:, n, :], nx.kron(st.w1[n], st.w2[n]).conj()
                )
                assert np.linalg.norm(st.w1[n], axis=-1) == pytest.approx(1.0, abs=1e-12)

    def test_oc_invariant_after_each_frame(self):
        rng = np.random.default_rng(15)
        for algo, kwargs in [("overiva", {}), ("biiva", {"sub_len_1": 2, "sub_len_2": 2})]:
            cfg = SeparatorConfig(4, 2, algo, **kwargs)
            st = sep.init_state(cfg, 8)
            for frame in _spectral_frames(rng, 12, 8, 4):
                sep.process_frame(st, frame)
                resid = st.W[:, 2:, :] @ st.C @ np.conj(np.swapaxes(st.W[:, :2, :], -1, -2))
                scale = (
                    np.linalg.norm(st.C, axis=(-2, -1))
                    * np.linalg.norm(st.W[:, :2, :], axis=(-2, -1))
                    * np.linalg.norm(st.W[:, 2:, :], axis=(-2, -1))
                )
                assert (np.linalg.norm(resid, axis=(-2, -1)) / scale).max() <= 1e-8

    @pytest.mark.parametrize("algo, kwargs", [("overiva", {}), ("biiva", {"sub_len_1": 3, "sub_len_2": 2})])
    def test_noise_rows_stay_j_minus_identity(self, algo, kwargs):
        # the N x N solves of _source_block rely on noise rows [J, -I]
        rng = np.random.default_rng(23)
        cfg = SeparatorConfig(6, 2, algo, **kwargs)
        st = sep.init_state(cfg, 8)
        minus_eye = np.tile(-np.eye(4), (8, 1, 1))

        def check():
            np.testing.assert_array_equal(st.W[:, 2:, 2:], minus_eye)

        check()
        for frame in _spectral_frames(rng, 10, 8, 6):
            sep.process_frame(st, frame)
            check()

    def test_deterministic_byte_identical(self):
        rng = np.random.default_rng(16)
        frames = _spectral_frames(rng, 20, 8, 4)
        cfg = SeparatorConfig(4, 2, "biiva", 2, 2)
        a = cli.separate_stream(frames, cfg)[0]
        b = cli.separate_stream(frames, cfg)[0]
        assert a.tobytes() == b.tobytes()

    def test_auxiva_runs_no_overdetermined_machinery(self, monkeypatch):
        # auxiva solves its IP steps exactly and has no noise block: over a
        # refresh frame and the two after it, it neither keeps nor reads a
        # tracked inverse nor reduces to a source block.  overiva, under the
        # same spies, calls each of them
        spied = [(sep, "update_inverse"), (nx, "scaled_inverse"),
                 (nx, "solve_with_inverse"), (sep, "_source_block")]
        calls = []
        for module, name in spied:
            def spy(*args, _name=name, _fn=getattr(module, name), **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)

            monkeypatch.setattr(module, name, spy)
        rng = np.random.default_rng(27)
        for m, algo in [(2, "auxiva"), (4, "overiva")]:
            calls.clear()
            st = sep.init_state(SeparatorConfig(m, 2, algo), 6)
            for frame in _spectral_frames(rng, 3, 6, m):
                sep.process_frame(st, frame)
            assert set(calls) == (set() if algo == "auxiva" else {name for _, name in spied})

    def test_singular_error_carries_frame_and_source_context(self, monkeypatch):
        # loading off so the collapsed system is not quietly regularized
        monkeypatch.setattr(sep, "LOADING", 0.0)
        st = sep.init_state(SeparatorConfig(2, 2, "auxiva"), 3)
        st.W[:, 1, :] = st.W[:, 0, :]  # collapse two rows
        frame = SpectralFrame(bins=np.ones((3, 2), complex), index=0, config=StftConfig())
        with pytest.raises(nx.SingularMatrixError, match=r"frame 0, source 0"):
            sep.process_frame(st, frame)


def _degenerate_frames(case, n_channels):
    rng = np.random.default_rng(22)
    x = _cplx(rng, 1500 if case.endswith("_long") else 12, 9, n_channels)
    if case == "leading_silence":
        x[:4] = 0.0
    elif case == "all_zero":
        x[:] = 0.0
    elif case == "quiet":
        x *= 1e-6
    elif case == "duplicated_long":
        x[..., 1] = x[..., 0]
    elif case == "dead_mic_long":
        x[..., 1] = 0.0
    return [SpectralFrame(bins=x[t], index=t, config=StftConfig()) for t in range(len(x))]


_DEGENERATE_CONFIGS = {
    "auxiva": SeparatorConfig(2, 2, "auxiva"),
    "overiva": SeparatorConfig(9, 2, "overiva"),
    "biiva": SeparatorConfig(9, 2, "biiva", 3, 3),
}


def _stream(config, bins, reference_channel):
    """Outputs of a fresh ``config`` stream over (T, I, M) ``bins``."""
    frames = [SpectralFrame(bins=v, index=t, config=StftConfig()) for t, v in enumerate(bins)]
    return cli.separate_stream(frames, config, reference_channel)[0]


@pytest.mark.parametrize(
    "engine, case",
    [
        (engine, case)
        for engine in _DEGENERATE_CONFIGS
        for case in ("leading_silence", "all_zero", "quiet", "unloaded")
    ]
    # overiva's filters grow without bound on this stream until its solves
    # overflow (frame ~1416) and biiva raises earlier (ROADMAP item 2)
    + [("auxiva", "duplicated_long")]
    # auxiva and overiva raise on a dead microphone (frames ~526); biiva
    # streams through with its largest demixing entry near 1e133, so this
    # case guards the rounding of its updates
    + [("biiva", "dead_mic_long")],
)
def test_degenerate_input_gives_finite_output(engine, case, monkeypatch):
    # digital silence, a silent stream, very quiet input, zero diagonal
    # loading, a duplicated channel and a dead one must all stream through
    # from the initial state; at forgetting 0.5 the duplicated or dead
    # channel's covariance is singular but for the loading long before the
    # 1500th frame
    config = _DEGENERATE_CONFIGS[engine]
    if case == "unloaded":
        monkeypatch.setattr(sep, "LOADING", 0.0)
    elif case.endswith("_long"):
        config = dataclasses.replace(config, forgetting=0.5)
    frames = _degenerate_frames(case, config.n_channels)
    for reference_channel in (None, 0):
        y = cli.separate_stream(frames, config, reference_channel)[0]
        assert np.all(np.isfinite(y))


@pytest.mark.parametrize("dtype", [np.float64, np.int64, np.complex64])
@pytest.mark.parametrize("engine", list(_DEGENERATE_CONFIGS))
def test_bins_of_any_numeric_dtype_stream_as_complex128(engine, dtype):
    # small integers are exact in every dtype, so the streams see equal bins
    config = _DEGENERATE_CONFIGS[engine]
    rng = np.random.default_rng(24)
    x = rng.integers(-8, 9, size=(40, 9, config.n_channels))
    if np.issubdtype(dtype, np.complexfloating):
        x = x + 1j * rng.integers(-8, 9, size=x.shape)
    for reference_channel in (None, 0):
        expected = _stream(config, x.astype(np.complex128), reference_channel)
        got = _stream(config, x.astype(dtype), reference_channel)
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("engine", [
    "auxiva",
    # C starts at the identity, whose weight against the data scales with
    # the input level (ROADMAP item 1)
    pytest.param("overiva", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
    pytest.param("biiva", marks=pytest.mark.xfail(strict=True, reason="ROADMAP item 1")),
])
def test_outputs_follow_the_input_level(engine):
    # a power-of-two gain scales every product exactly, so a level-free
    # engine's outputs for g x are exactly g times those for x
    config = _DEGENERATE_CONFIGS[engine]
    rng = np.random.default_rng(26)
    shape = (60, 33, config.n_channels)
    levels = 10.0 ** rng.uniform(-2.0, 2.0, (60, 1, config.n_channels))
    x = levels * (rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
    for reference_channel in (None, 0):
        y = _stream(config, x, reference_channel)
        for gain in (2.0**-7, 2.0**7):
            np.testing.assert_array_equal(_stream(config, gain * x, reference_channel), gain * y)


class TestDegeneracy:
    def test_trivial_factor_matches_overiva(self):
        rng = np.random.default_rng(17)
        frames = _spectral_frames(rng, 40, 16, 4)
        y_over = cli.separate_stream(frames, SeparatorConfig(4, 2, "overiva", forgetting=0.97))[0]
        for m1, m2 in [(4, 1), (1, 4)]:
            y_bi = cli.separate_stream(
                frames, SeparatorConfig(4, 2, "biiva", m1, m2, forgetting=0.97)
            )[0]
            rel = np.abs(np.abs(y_bi) - np.abs(y_over)) / np.maximum(np.abs(y_over), 1e-300)
            assert rel.max() <= 1e-9


class TestMonotonicity:
    def test_ip_sweeps_never_increase_majorizer(self):
        self._check_sweeps(sep.ip_update)

    def test_tracked_ip_sweeps_never_increase_majorizer(self):
        self._check_sweeps(_tracked_ip_update)

    @staticmethod
    def _check_sweeps(update):
        rng = np.random.default_rng(18)
        m, n_bins = 3, 6
        for _ in range(10):
            v = _random_pd(rng, m, n_bins, m, m)
            w = _cplx(rng, n_bins, m, m)
            prev = _aux_objective(w, v)
            for _sweep in range(10):
                for n in range(m):
                    w[:, n, :] = update(nx.solve_column(w, n), v[n]).conj()
                cur = _aux_objective(w, v)
                assert cur <= prev + 1e-9 * abs(prev)
                prev = cur


def _mixture_frames(seed, n_frames, n_bins, m, near_singular_bin=None):
    """Two sources with a random level per frame through random per-bin
    mixing, plus sensor noise 26 dB down.  In ``near_singular_bin`` channel
    1 repeats channel 0, so only the initial identity, fading at the
    forgetting rate, keeps that bin's weighted covariance nonsingular."""
    rng = np.random.default_rng(seed)
    a = _cplx(rng, n_bins, m, 2)
    s = _cplx(rng, n_frames, n_bins, 2) * np.exp(rng.standard_normal((n_frames, 1, 2)))
    x = np.einsum("imn,tin->tim", a, s) + 0.05 * _cplx(rng, n_frames, n_bins, m)
    if near_singular_bin is not None:
        k = near_singular_bin
        x[:, k, 1] = x[:, k, 0]
    return [SpectralFrame(bins=x[t], index=t, config=StftConfig()) for t in range(n_frames)]


class _SolveLog:
    """Wraps ``numerics.hermitian_solve`` and records, per call, the frame
    index of ``state``, the number of systems and whether the right-hand
    side is a block (a refresh of the tracked inverse) or a vector (the
    exact IP solve a rejected bin falls back to)."""

    def __init__(self, monkeypatch):
        self.state = None
        self.calls = []
        solve = nx.hermitian_solve

        def logged(a, b, loading=0.0):
            block = np.ndim(b) == np.ndim(a)
            self.calls.append((self.state.frame_index, int(np.prod(np.shape(a)[:-2])), block))
            return solve(a, b, loading)

        monkeypatch.setattr(nx, "hermitian_solve", logged)

    def fallbacks(self):
        return [(t, rows) for t, rows, block in self.calls if not block]


def _exact_ip_update(monkeypatch):
    """Make overiva solve every IP step exactly, as auxiva and biiva do:
    ``ip_update`` without ``p``."""
    ip_update = sep.ip_update
    monkeypatch.setattr(sep, "ip_update", lambda u, v, loading=0.0, p=None: ip_update(u, v, loading))


_TRACKED = {"overiva": SeparatorConfig(4, 2, "overiva")}


@pytest.mark.parametrize("engine", _TRACKED)
class TestTrackedInverse:
    """overiva solves its IP steps with the tracked inverse of
    ``update_inverse``, refreshed every ``INVERSE_REFRESH`` frames and
    wherever ``ip_update`` rejects its solution."""

    def test_stays_at_checked_inverse_with_a_near_singular_bin(self, engine, monkeypatch):
        # after 2K frames, K - 1 rank-1 updates past the last refresh: the
        # near-singular bin falls back to the exact solve every frame, so its
        # P is the checked loaded inverse of the last frame; in every other
        # bin P is within 1e-6 (relative Frobenius) of the checked inverse.
        # Forgetting 0.6 lets the initial identity fade from the singular bin
        # within 2K frames; with a covariance that rests on a few frames the
        # rank-1 updates also lose accuracy faster than at the shipped
        # forgetting (1e-9 over 30 s in the drift test below)
        cfg, k = dataclasses.replace(_TRACKED[engine], forgetting=0.6), sep.INVERSE_REFRESH
        n_bins, near = 16, 5
        log = _SolveLog(monkeypatch)
        st = log.state = sep.init_state(cfg, n_bins)
        for frame in _mixture_frames(30, 2 * k, n_bins, cfg.n_channels, near_singular_bin=near):
            sep.process_frame(st, frame)
        refreshes = [(t, rows) for t, rows, block in log.calls if block and rows == n_bins]
        assert refreshes == [(0, n_bins)] * 2 + [(k, n_bins)] * 2
        fallbacks = log.fallbacks()
        assert {rows for _, rows in fallbacks} == {1}
        assert fallbacks[-1][0] == 2 * k - 1
        monkeypatch.undo()
        others = np.arange(n_bins) != near
        for n in range(2):
            p, v = st.P[n], st.V[n]
            ref = nx.scaled_inverse(v[others], 0.0)
            dev = np.linalg.norm(p[others] - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
            assert dev.max() <= 1e-6
            ref = nx.scaled_inverse(v[near], sep.LOADING)
            assert np.linalg.norm(p[near] - ref) <= 1e-12 * np.linalg.norm(ref)

    def test_corrupted_inverse_is_caught_and_solved_exactly(self, engine, monkeypatch):
        cfg = _TRACKED[engine]
        frames = _mixture_frames(31, 12, 16, cfg.n_channels)
        st = sep.init_state(cfg, 16)
        for frame in frames[:10]:
            sep.process_frame(st, frame)
        exact = copy.deepcopy(st)
        st.P *= 1.5
        log = _SolveLog(monkeypatch)
        log.state = st
        y = sep.process_frame(st, frames[10]).y
        # every bin of both sources failed the residual test
        assert log.fallbacks() == [(10, 16), (10, 16)]
        _exact_ip_update(monkeypatch)
        y_exact = sep.process_frame(exact, frames[10]).y
        assert np.abs(y - y_exact).max() <= 1e-12 * np.abs(y_exact).max()
        # and the refreshed P is trusted again on the next frame
        monkeypatch.undo()
        log = _SolveLog(monkeypatch)
        log.state = st
        sep.process_frame(st, frames[11])
        assert log.fallbacks() == []

    def test_drift_over_30_seconds_against_exact_solve(self, engine, monkeypatch):
        # 1875 frames (30 s at hop 256 and 16 kHz); bounds fixed before the
        # first run: outputs within 1e-8 of the exact-solve engine's in every
        # frame, relative to that frame's largest output, and P within 1e-9
        # of the inverse it tracks just before every refresh, taken from the
        # checked unloaded solve
        cfg, k = _TRACKED[engine], sep.INVERSE_REFRESH
        frames = _mixture_frames(32, 1875, 8, cfg.n_channels)
        with monkeypatch.context() as mp:
            _exact_ip_update(mp)
            y_exact = cli.separate_stream(frames, cfg)[0]
        log = _SolveLog(monkeypatch)
        st = log.state = sep.init_state(cfg, 8)
        worst_p = 0.0
        for t, frame in enumerate(frames):
            y = sep.process_frame(st, frame).y
            assert np.abs(y - y_exact[t]).max() <= 1e-8 * np.abs(y_exact[t]).max()
            if t % k == k - 1:
                for n in range(2):
                    ref = nx.scaled_inverse(st.V[n], 0.0)
                    dev = np.linalg.norm(st.P[n] - ref, axis=(-2, -1)) / np.linalg.norm(ref, axis=(-2, -1))
                    worst_p = max(worst_p, dev.max())
        assert worst_p <= 1e-9
        assert log.fallbacks() == []


def _pipelined_config(algo, m, n_src):
    side = math.isqrt(m)
    subs = {"sub_len_1": side, "sub_len_2": side} if algo == "biiva" else {}
    return SeparatorConfig(m, n_src, algo, **subs)


class TestStatisticsPass:
    """Each frame steps every ``V``, ``P`` and ``C`` in one pass over blocks
    of bins on the caller's thread."""

    @pytest.mark.parametrize("m, n_src", [(9, 2), (9, 3), (16, 2), (16, 3)])
    @pytest.mark.parametrize("algo", ["overiva", "biiva"])
    def test_blocked_pass_equals_one_block(self, algo, m, n_src, monkeypatch):
        # 70 frames: overiva refreshes P at frames 0, 32 and 64; and every IP
        # step rejects bin 3's solution, which ip_update re-solves (refreshing
        # that bin of overiva's P).  Blocks of 5 bins, the last one partial,
        # and of 1 bin must give the bytes of one block over all 12 bins
        cfg = _pipelined_config(algo, m, n_src)
        frames = _mixture_frames(33, 70, 12, m)
        repaired = []
        for name in ("solve_loaded", "solve_with_inverse"):
            def rejecting(*args, _solve=getattr(nx, name)):
                w, vw, ok = _solve(*args)
                ok[3] = False
                return w, vw, ok

            monkeypatch.setattr(nx, name, rejecting)
        hermitian_solve = nx.hermitian_solve
        monkeypatch.setattr(nx, "hermitian_solve",
                            lambda *args: repaired.append(1) or hermitian_solve(*args))
        update_cov = sep.update_weighted_cov
        runs = {}
        for block in (12, 5, 1):
            lengths = set()

            def logged(v, *args):
                lengths.add(len(v))
                update_cov(v, *args)

            monkeypatch.setattr(sep, "STATISTICS_BLOCK_BYTES", block * 16 * m * m)
            monkeypatch.setattr(sep, "update_weighted_cov", logged)
            st = sep.init_state(cfg, 12)
            y = np.array([sep.process_frame(st, frame).y for frame in frames])
            assert lengths == {12 % block or block, block}
            runs[block] = y, st
        assert len(repaired) >= 3 * 70 * n_src
        (y_one, st_one), *others = runs.values()
        for y, st in others:
            np.testing.assert_array_equal(y, y_one)
            for field in ("W", "V", "P", "C"):
                if getattr(st, field) is not None:
                    np.testing.assert_array_equal(getattr(st, field), getattr(st_one, field))

    @pytest.mark.parametrize("m, per_block", [(5, 513), (9, 202), (16, 64), (36, 12)])
    def test_blocks_hold_256_kib_of_one_stack(self, m, per_block, monkeypatch):
        # 513 bins (a 1024-point frame): one block up to M = 5, then full
        # blocks of per_block bins and a partial last one, each stepping
        # V_0, V_1 and C in turn
        blocks = [per_block] * (513 // per_block) + [513 % per_block] * (513 % per_block > 0)
        lengths = []
        update_cov = sep.update_weighted_cov

        def logged(v, *args):
            lengths.append(len(v))
            update_cov(v, *args)

        monkeypatch.setattr(sep, "update_weighted_cov", logged)
        st = sep.init_state(SeparatorConfig(m, 2, "overiva"), 513)
        sep.process_frame(st, _mixture_frames(34, 1, 513, m)[0])
        assert lengths == [b for b in blocks for _ in range(3)]

    def test_streaming_starts_no_thread(self):
        # in a fresh interpreter, where no earlier test started one
        script = """if True:
            import threading
            import numpy as np
            from ivastream import cli
            from ivastream.separators import SeparatorConfig
            from ivastream.stft import SpectralFrame, StftConfig
            threads = threading.active_count()
            rng = np.random.default_rng(34)
            for cfg in (SeparatorConfig(2, 2, "auxiva"), SeparatorConfig(9, 2, "overiva"),
                        SeparatorConfig(16, 2, "biiva", 4, 4)):
                x = rng.standard_normal((3, 8, cfg.n_channels, 2)) @ [1, 1j]
                cli.separate_stream([SpectralFrame(x[t], t, StftConfig()) for t in range(3)], cfg)
            print(threads, threading.active_count())
        """
        src = os.path.dirname(os.path.dirname(sep.__file__))
        out = subprocess.run([sys.executable, "-c", script], env={**os.environ, "PYTHONPATH": src},
                             capture_output=True, text=True, timeout=120, check=True).stdout
        assert out.split() == ["1", "1"]

    def test_states_streamed_from_three_threads_at_once_give_their_serial_outputs(self):
        # more streaming threads than the two CPUs, switching threads often
        cfgs = [SeparatorConfig(9, 2, "overiva"), SeparatorConfig(9, 3, "biiva", 3, 3),
                SeparatorConfig(4, 1, "overiva")]
        streams = [_mixture_frames(38 + k, 40, 16, cfg.n_channels) for k, cfg in enumerate(cfgs)]
        serial = [cli.separate_stream(frames, cfg)[0] for frames, cfg in zip(streams, cfgs)]
        got = [None] * len(cfgs)
        start = threading.Barrier(len(cfgs))

        def stream(k):
            st = sep.init_state(cfgs[k], 16)
            start.wait(timeout=60)
            got[k] = np.array([sep.process_frame(st, frame).y for frame in streams[k]])

        threads = [threading.Thread(target=stream, args=(k,)) for k in range(len(cfgs))]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        for k in range(len(cfgs)):
            assert got[k] is not None
            np.testing.assert_array_equal(got[k], serial[k])


# (M, N) of the source-block tests: N = 3 takes LAPACK's general path
_BLOCK_SIZES = [(4, 2), (9, 2), (9, 3), (16, 2)]


class TestSourceBlock:
    """The N x N solves against the loaded M x M demixing matrix."""

    @pytest.mark.parametrize("m, n_src", _BLOCK_SIZES)
    @pytest.mark.parametrize("loading", [0.0, 1e-9, 1e-3])
    def test_matches_the_dense_formula(self, m, n_src, loading):
        rng = np.random.default_rng(23)
        w = _reachable_w(rng, 16, m, n_src)
        s_mat, j, c = sep._source_block(w, n_src, loading)
        shift = nx.frobenius_shift(w, loading)
        c_ref = 1.0 / (1.0 - shift)
        a, b, j_ref = w[:, :n_src, :n_src], w[:, :n_src, n_src:], w[:, n_src:, :n_src]
        s_ref = a + shift[:, None, None] * np.eye(n_src) + c_ref[:, None, None] * (b @ j_ref)
        np.testing.assert_allclose(s_mat, s_ref, rtol=1e-13)
        np.testing.assert_array_equal(np.moveaxis(j, -1, 0), j_ref)
        np.testing.assert_allclose(c, c_ref, rtol=1e-13)

    def test_leading_axes_are_kept(self):
        rng = np.random.default_rng(27)
        w = _reachable_w(rng, 12, 9, 2)
        stacked = w.reshape(3, 4, 9, 9)
        s_mat = sep._source_block(stacked, 2, 1e-3)[0]
        assert s_mat.shape == (3, 4, 2, 2)
        np.testing.assert_array_equal(s_mat.reshape(12, 2, 2), sep._source_block(w, 2, 1e-3)[0])
        np.testing.assert_array_equal(sep._inverse_column(stacked, 1, 2, 1e-3).reshape(12, 9),
                                      sep._inverse_column(w, 1, 2, 1e-3))

    @pytest.mark.parametrize("loading", [0.0, 1e-3])
    def test_inverse_column_matches_full_solve(self, loading):
        rng = np.random.default_rng(24)
        for m, n_src in _BLOCK_SIZES:
            w = _reachable_w(rng, 16, m, n_src)
            for n in range(n_src):
                np.testing.assert_allclose(
                    sep._inverse_column(w, n, n_src, loading), nx.solve_column(w, n, loading),
                    rtol=1e-10,
                )

    @pytest.mark.parametrize("loading", [0.0, 1e-3])
    def test_projection_back_matches_loaded_inverse(self, loading, monkeypatch):
        monkeypatch.setattr(sep, "LOADING", loading)
        rng = np.random.default_rng(25)
        for m, n_src in _BLOCK_SIZES:
            st = sep.init_state(SeparatorConfig(m, n_src, "overiva"), 16)
            st.W = _reachable_w(rng, 16, m, n_src)
            y = _cplx(rng, n_src, 16)
            w_l = st.W + nx.frobenius_shift(st.W, loading)[:, None, None] * np.eye(m)
            winv = np.linalg.inv(w_l)
            for ref in range(m):
                out = sep.projection_back(st, y, reference_channel=ref)
                np.testing.assert_allclose(out, y * winv[:, ref, :n_src].T, rtol=1e-10)

    @pytest.mark.parametrize("loading", [0.0, 1e-3])
    def test_without_noise_block_is_the_full_solve(self, loading, monkeypatch):
        # auxiva (M == N) has no noise block to eliminate: the column is the
        # loaded full solve, bit for bit, and projection back reads the
        # loaded full inverse
        rng = np.random.default_rng(26)
        w = _cplx(rng, 16, 3, 3)
        for n in range(3):
            np.testing.assert_array_equal(
                sep._inverse_column(w, n, 3, loading), nx.solve_column(w, n, loading)
            )
        monkeypatch.setattr(sep, "LOADING", loading)
        st = sep.init_state(SeparatorConfig(3, 3, "auxiva"), 16)
        st.W = w
        y = _cplx(rng, 3, 16)
        winv = np.linalg.inv(w + nx.frobenius_shift(w, loading)[:, None, None] * np.eye(3))
        for ref in range(3):
            out = sep.projection_back(st, y, reference_channel=ref)
            np.testing.assert_allclose(out, y * winv[:, ref, :].T, rtol=1e-10)


class TestProjectionBack:
    def test_matches_explicit_inverse(self, monkeypatch):
        monkeypatch.setattr(sep, "LOADING", 0.0)
        rng = np.random.default_rng(19)
        cfg = SeparatorConfig(4, 2, "overiva")
        st = sep.init_state(cfg, 6)
        st.W = _reachable_w(rng, 6, 4, 2)
        y = _cplx(rng, 2, 6)
        winv = np.linalg.inv(st.W)
        for ref in range(4):
            out = sep.projection_back(st, y, reference_channel=ref)
            expect = y * np.stack([winv[:, ref, 0], winv[:, ref, 1]])
            np.testing.assert_allclose(out, expect, rtol=1e-8, atol=1e-10)

    def test_scaled_identity_halves(self):
        cfg = SeparatorConfig(2, 2, "auxiva")
        st = sep.init_state(cfg, 3)
        st.W = 2.0 * st.W
        y = np.ones((2, 3), dtype=complex)
        out = sep.projection_back(st, y, reference_channel=0)
        np.testing.assert_allclose(out[0], 0.5, atol=1e-14)

    def test_known_mixing_recovers_source_image(self, monkeypatch):
        monkeypatch.setattr(sep, "LOADING", 0.0)
        rng = np.random.default_rng(20)
        a = _cplx(rng, 6, 2, 2)
        s = _cplx(rng, 2, 6)
        x = np.einsum("inm,mi->ni", a, s)  # x_i = A_i s_i
        cfg = SeparatorConfig(2, 2, "auxiva")
        st = sep.init_state(cfg, 6)
        st.W = np.linalg.inv(a)
        y = np.einsum("inm,mi->ni", st.W, x)
        for ref in (0, 1):
            out = sep.projection_back(st, y, reference_channel=ref)
            image = a[:, ref, :].T * s  # source n's contribution at mic ref
            np.testing.assert_allclose(out, image, rtol=1e-9, atol=1e-12)

    def test_reference_out_of_range(self):
        st = sep.init_state(SeparatorConfig(4, 2, "overiva"), 3)
        with pytest.raises(ValueError):
            sep.projection_back(st, np.zeros((2, 3), complex), reference_channel=4)


def _instantaneous_scene(seed, seconds=5.0, noise_db=-30.0):
    """4-mic instantaneous mixture of two nonstationary sources.

    Mixing columns are Kronecker products of well-separated 2-vectors, so a
    (2, 2)-factored demixing row can cancel either source exactly, and the
    first two rows stay well conditioned for the 2-channel baseline.
    """
    rng = np.random.default_rng(seed)
    fs = 16000
    n = int(seconds * fs)
    sources = np.stack([_speechlike(rng, n, fs) for _ in range(2)])

    def ang(t):
        return np.array([np.cos(t), np.sin(t)])

    cols = [np.kron(ang(0.3), ang(-0.7)), np.kron(ang(1.2), ang(0.9))]
    mix_mat = np.stack(cols, axis=1)
    mix_mat /= np.abs(mix_mat[0])  # unit image gain at mic 0
    x = mix_mat @ sources
    x += 10 ** (noise_db / 20) * rng.standard_normal(x.shape)
    return sources, x, mix_mat


def _converged_estimates(x, config, stft_cfg, skip_seconds=2.0):
    frames = stft.analyze(x[: config.n_channels], stft_cfg)
    spectra = cli.separate_stream(frames, config, reference_channel=0)[0]
    out_frames = [
        SpectralFrame(bins=spectra[j].T, index=j, config=stft_cfg)
        for j in range(spectra.shape[0])
    ]
    y = stft.synthesize(out_frames, stft_cfg)
    return y[:, int(skip_seconds * stft_cfg.sample_rate) :]


class TestSmokeSeparation:
    @pytest.mark.parametrize(
        "config",
        [
            SeparatorConfig(4, 2, "overiva"),
            SeparatorConfig(4, 2, "biiva", 2, 2),
            SeparatorConfig(2, 2, "auxiva"),
        ],
        ids=["overiva", "biiva", "auxiva"],
    )
    def test_instantaneous_mixture_sir_improvement(self, config):
        # 6 s settling: the bilinear engine does one alternation per frame
        # and needs the longest of the three to converge
        sources, x, mix_mat = _instantaneous_scene(seed=123, seconds=10.0)
        stft_cfg = StftConfig(fft_size=256, hop=64)
        skip = 6.0
        y = _converged_estimates(x, config, stft_cfg, skip)
        tail = slice(int(skip * 16000), None)
        # input SIR per source: image energy ratio at mic 0 over the tail
        img = np.abs(mix_mat[0]) ** 2 * np.sum(sources[:, tail] ** 2, axis=1)
        in_sir = 10 * np.log10([img[0] / img[1], img[1] / img[0]])
        out_sirs = _projection_sir(y, sources[:, tail])
        assert {k for k, _ in out_sirs} == {0, 1}, "estimates must pair to distinct sources"
        improvement = min(s - in_sir[k] for k, s in out_sirs)
        assert improvement > 10.0

    def test_mic_permutation_leaves_converged_sir_unchanged(self):
        # permuting channels and permuting the initial demixing columns to
        # match is observably a no-op; the overdetermined engine needs the
        # permutation to keep source and spare channels in their blocks
        sources, x, _ = _instantaneous_scene(seed=321)
        stft_cfg = StftConfig(fft_size=256, hop=64)
        tail = slice(int(2.0 * 16000), None)

        def run(xx, config, perm=None):
            frames = stft.analyze(xx, stft_cfg)
            state = sep.init_state(config, frames[0].bins.shape[0])
            ref = 0
            if perm is not None:
                state.W = np.ascontiguousarray(state.W[:, :, perm])
                ref = perm.index(0)
            spectra = []
            for fr in frames:
                est = sep.process_frame(state, fr)
                spectra.append(sep.projection_back(state, est.y, ref))
            out = [
                SpectralFrame(bins=s.T, index=j, config=stft_cfg)
                for j, s in enumerate(spectra)
            ]
            return stft.synthesize(out, stft_cfg)[:, int(2.0 * 16000) :]

        for config, perm in [
            (SeparatorConfig(2, 2, "auxiva"), [1, 0]),
            (SeparatorConfig(4, 2, "overiva"), [1, 0, 3, 2]),
        ]:
            base = run(x[: config.n_channels], config)
            swapped = run(x[perm][: config.n_channels], config, perm=perm)
            sir_a = sorted(s for _, s in _projection_sir(base, sources[:, tail]))
            sir_b = sorted(s for _, s in _projection_sir(swapped, sources[:, tail]))
            np.testing.assert_allclose(sir_a, sir_b, atol=0.1)
