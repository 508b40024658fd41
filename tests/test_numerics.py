"""Batched complex linear algebra primitives."""

import re
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import ivastream.numerics as nx

from oracles import _cplx, _random_pd


def _unit(rng, m):
    v = _cplx(rng, m)
    return v / np.linalg.norm(v)


class TestKron:
    def test_matches_numpy_reference(self):
        rng = np.random.default_rng(11)
        for m1, m2 in [(1, 1), (2, 3), (4, 4), (6, 1), (1, 5)]:
            a = _cplx(rng, m1)
            b = _cplx(rng, m2)
            np.testing.assert_array_equal(nx.kron(a, b), np.kron(a, b))

    def test_batched_matches_loop(self):
        rng = np.random.default_rng(12)
        a = _cplx(rng, 7, 3)
        b = _cplx(rng, 7, 4)
        out = nx.kron(a, b)
        assert out.shape == (7, 12)
        for i in range(7):
            np.testing.assert_array_equal(out[i], np.kron(a[i], b[i]))

    @given(st.integers(1, 6), st.integers(1, 6), st.integers(0, 2**31 - 1))
    @settings(max_examples=50, deadline=None)
    def test_bilinear_and_norm_multiplicative(self, m1, m2, seed):
        rng = np.random.default_rng(seed)
        a, b = _cplx(rng, m1), _cplx(rng, m2)
        alpha = complex(rng.standard_normal(), rng.standard_normal())
        np.testing.assert_allclose(nx.kron(alpha * a, b), alpha * nx.kron(a, b), rtol=1e-12, atol=1e-12)
        assert np.linalg.norm(nx.kron(a, b)) == pytest.approx(
            np.linalg.norm(a) * np.linalg.norm(b), rel=1e-12
        )


class TestLifting:
    def test_lift_left_identity(self):
        # (I (x) b) @ a == kron(a, b); unit-norm factors keep the comparison
        # at ulp(1) scale regardless of dimension
        rng = np.random.default_rng(21)
        for m1, m2 in [(1, 4), (3, 2), (4, 1), (6, 6)]:
            a, b = _unit(rng, m1), _unit(rng, m2)
            lifted = nx.lift_left(b, m1)
            assert lifted.shape == (m1 * m2, m1)
            np.testing.assert_allclose(lifted @ a, nx.kron(a, b), rtol=0, atol=1e-15)

    def test_lift_right_identity(self):
        rng = np.random.default_rng(22)
        for m1, m2 in [(1, 4), (3, 2), (4, 1), (6, 6)]:
            a, b = _unit(rng, m1), _unit(rng, m2)
            lifted = nx.lift_right(a, m2)
            assert lifted.shape == (m1 * m2, m2)
            np.testing.assert_allclose(lifted @ b, nx.kron(a, b), rtol=0, atol=1e-15)

    def test_lift_left_structure(self):
        # block-diagonal: column p holds b in rows p*m2 .. (p+1)*m2
        b = np.array([1 + 1j, 2.0])
        lifted = nx.lift_left(b, 3)
        expect = np.kron(np.eye(3), b.reshape(2, 1))
        np.testing.assert_array_equal(lifted, expect)

    def test_lift_right_structure(self):
        a = np.array([1.0, 2j, 3.0])
        lifted = nx.lift_right(a, 2)
        expect = np.kron(a.reshape(3, 1), np.eye(2))
        np.testing.assert_array_equal(lifted, expect)

    def test_batched(self):
        rng = np.random.default_rng(23)
        b = _cplx(rng, 5, 3)
        out = nx.lift_left(b, 2)
        assert out.shape == (5, 6, 2)
        for i in range(5):
            np.testing.assert_array_equal(out[i], nx.lift_left(b[i], 2))
        out = nx.lift_right(b, 2)
        assert out.shape == (5, 6, 2)
        for i in range(5):
            np.testing.assert_array_equal(out[i], np.kron(b[i].reshape(3, 1), np.eye(2)))


def _dense_lift_oracle(v, held, side):
    """``Delta^H V Delta`` with the dense lift of ``held``, re-symmetrized."""
    m = v.shape[-1]
    lift = nx.lift_left if side == "left" else nx.lift_right
    delta = lift(held, m // held.shape[-1])
    out = np.conj(np.swapaxes(delta, -1, -2)) @ v @ delta
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


class TestCongruence:
    SIZES = [(3, 3), (4, 4), (6, 6), (2, 8), (8, 2), (9, 1), (1, 9)]

    def test_matches_dense_lift_oracle(self):
        # both sides, every factorization, two leading batch axes
        rng = np.random.default_rng(31)
        for m1, m2 in self.SIZES:
            v = _random_pd(rng, 2, 5, m1 * m2, m1 * m2)
            for side, k, other in (("left", m2, m1), ("right", m1, m2)):
                held = _cplx(rng, 2, 5, k)
                out = nx.congruence(v, held, side)
                oracle = _dense_lift_oracle(v, held, side)
                assert out.shape == (2, 5, other, other)
                scale = np.abs(oracle).max()
                np.testing.assert_allclose(out, oracle, rtol=0, atol=1e-14 * scale)

    def test_held_broadcasts_over_batch(self):
        rng = np.random.default_rng(34)
        v = _random_pd(rng, 4, 6, 6)
        held = _cplx(rng, 3)
        np.testing.assert_array_equal(
            nx.congruence(v, held, "left"),
            nx.congruence(v, np.broadcast_to(held, (4, 3)), "left"),
        )

    def test_output_is_hermitian(self):
        rng = np.random.default_rng(32)
        for m1, m2 in self.SIZES:
            v = _random_pd(rng, 4, m1 * m2, m1 * m2)
            for side, k in (("left", m2), ("right", m1)):
                out = nx.congruence(v, _cplx(rng, 4, k), side)
                np.testing.assert_array_equal(out, np.conj(np.swapaxes(out, -1, -2)))

    def test_preserves_positive_definiteness(self):
        # a nonzero held sub-filter makes the lift full column rank
        rng = np.random.default_rng(33)
        for m1, m2 in self.SIZES:
            v = _random_pd(rng, 6, m1 * m2, m1 * m2)
            for side, k in (("left", m2), ("right", m1)):
                out = nx.congruence(v, _cplx(rng, 6, k), side)
                assert np.linalg.eigvalsh(out).min() > 0

    def test_rejects_bad_shapes_and_side(self):
        v = np.eye(6, dtype=complex)
        with pytest.raises(ValueError):
            nx.congruence(v, np.ones(4, dtype=complex), "left")  # 4 does not divide 6
        with pytest.raises(ValueError):
            nx.congruence(v, np.ones(4, dtype=complex), "right")
        with pytest.raises(ValueError):
            nx.congruence(np.ones((6, 3), dtype=complex), np.ones(3, dtype=complex), "left")
        with pytest.raises(ValueError):
            nx.congruence(v, np.ones(3, dtype=complex), "middle")


class TestHermitianSolve:
    def test_solves_well_conditioned_system(self):
        rng = np.random.default_rng(41)
        a = _random_pd(rng, 20, 5, 5)
        b = _cplx(rng, 20, 5)
        x = nx.hermitian_solve(a, b)
        np.testing.assert_allclose(np.einsum("...ij,...j->...i", a, x), b, rtol=1e-9, atol=1e-9)

    def test_loading_is_trace_scaled(self):
        rng = np.random.default_rng(42)
        a = _random_pd(rng, 4, 4)
        b = _cplx(rng, 4)
        delta = 1e-3
        shift = delta * np.trace(a).real / 4 * np.eye(4)
        np.testing.assert_array_equal(
            nx.hermitian_solve(a, b, loading=delta),
            nx.hermitian_solve(a + shift, b),
        )

    def test_exactly_singular_raises_typed_error(self):
        a = np.zeros((3, 3), dtype=complex)
        with pytest.raises(nx.SingularMatrixError):
            nx.hermitian_solve(a, np.ones(3, dtype=complex))

    def test_loading_rescues_singular_system(self):
        a = np.zeros((3, 3), dtype=complex)
        a[0, 0] = 3.0  # trace 3 -> loading shift delta * I
        x = nx.hermitian_solve(a, np.ones(3, dtype=complex), loading=1e-6)
        assert np.all(np.isfinite(x))

    def test_residual_check_rejects_garbage(self):
        rng = np.random.default_rng(43)
        a = _random_pd(rng, 3, 3)
        b = _cplx(rng, 3)
        x_bad = nx.hermitian_solve(a, b) + 1.0
        with pytest.raises(nx.SingularMatrixError):
            nx._check_solution(a, x_bad[:, None], b[:, None], "unit test")


class TestSolveColumn:
    def test_returns_inverse_column(self):
        rng = np.random.default_rng(51)
        w = _cplx(rng, 12, 4, 4)
        for n in range(4):
            x = nx.solve_column(w, n)
            e = np.zeros(4, dtype=complex)
            e[n] = 1.0
            np.testing.assert_allclose(
                np.einsum("...ij,...j->...i", w, x), np.broadcast_to(e, (12, 4)), rtol=1e-9, atol=1e-9
            )

    def test_column_index_out_of_range(self):
        w = np.eye(3, dtype=complex)
        with pytest.raises(ValueError):
            nx.solve_column(w, 3)

    def test_loading_is_frobenius_scaled(self):
        rng = np.random.default_rng(52)
        w = _cplx(rng, 3, 3)
        delta = 1e-4
        shift = delta * np.linalg.norm(w) / np.sqrt(3) * np.eye(3)
        np.testing.assert_array_equal(
            nx.solve_column(w, 1, loading=delta),
            nx.solve_column(w + shift, 1),
        )

    def test_negative_loading_raises(self):
        with pytest.raises(ValueError, match="loading must be nonnegative"):
            nx.solve_column(np.eye(3, dtype=complex), 0, loading=-1.0)

    def test_singular_raises(self):
        w = np.ones((2, 2), dtype=complex)
        with pytest.raises(nx.SingularMatrixError):
            nx.solve_column(w, 0)


class TestSolveGeneral:
    def test_negative_loading_raises(self):
        eye = np.eye(3, dtype=complex)
        with pytest.raises(ValueError, match="loading must be nonnegative"):
            nx.solve_general(eye, eye, loading=-1.0)

    def test_matrix_rhs(self):
        rng = np.random.default_rng(61)
        a = _cplx(rng, 6, 3, 3)
        b = _cplx(rng, 6, 3, 2)
        x = nx.solve_general(a, b)
        np.testing.assert_allclose(a @ x, b, rtol=1e-9, atol=1e-9)

    def test_context_in_error_message(self):
        a = np.zeros((2, 2), dtype=complex)
        b = np.ones((2, 1), dtype=complex)
        with pytest.raises(nx.SingularMatrixError, match="noise block"):
            nx.solve_general(a, b, context="noise block")


_BINS = 513


def _conditioned(rng, k, cond, hermitian):
    """(_BINS, k, k) stack ``Q1 diag(s) Q2^H`` with random unitary ``Q1`` and
    ``Q2`` (``Q2 = Q1`` when ``hermitian``) and singular values ``s`` spread
    from 1 to ``1 / cond``."""
    q1 = np.linalg.qr(_cplx(rng, _BINS, k, k))[0]
    q2 = q1 if hermitian else np.linalg.qr(_cplx(rng, _BINS, k, k))[0]
    s = np.logspace(0.0, -np.log10(cond), k)
    return (q1 * s) @ np.conj(np.swapaxes(q2, -1, -2))


def _rel_err(x, ref):
    """Largest per-system ``||x - ref|| / ||ref||`` over the batch."""
    axes = tuple(range(1, x.ndim))
    return float(np.max(np.sqrt(np.sum(np.abs(x - ref) ** 2, axis=axes)
                                / np.sum(np.abs(ref) ** 2, axis=axes))))


def _backward_error(a, x, b):
    """Largest ``||A X - B|| / (||A||_F ||X|| + ||B||)`` over the batch."""
    resid = np.sqrt(nx._sq_sum(a @ x - b, 2))
    scale = np.sqrt(nx._sq_sum(a, 2) * nx._sq_sum(x, 2)) + np.sqrt(nx._sq_sum(b, 2))
    return float(np.max(resid / scale))


def _no_lapack(monkeypatch):
    def fail(*args, **kwargs):
        raise AssertionError("a small system went to LAPACK")
    monkeypatch.setattr(nx, "_lapack_solve", fail)


def _solve(hermitian, a, b):
    return nx.hermitian_solve(a, b) if hermitian else nx.solve_general(a, b)


def _elementwise_solve(hermitian, a, b):
    """``A X = B`` by the elementwise kernel for its kind: ``_solve_2x2``
    through ``solve_general``, or ``solve_loaded`` (unloaded, column by
    column, every system accepted) for Hermitian stacks."""
    if not hermitian:
        return nx.solve_general(a, b)
    cols = [nx.solve_loaded(a, b[..., j], 0.0) for j in range(b.shape[-1])]
    assert all(ok.all() for _, _, ok in cols)
    return np.stack([x for x, _, _ in cols], axis=-1)


_KINDS = pytest.mark.parametrize("hermitian", [False, True], ids=["general", "hermitian"])
_SMALL_KS = pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
# (hermitian, K) of the systems an elementwise kernel solves
_SMALL_CASES = pytest.mark.parametrize(
    "hermitian, k",
    [(False, 2)] + [(True, k) for k in (1, 2, 3, 4, 5, 6)],
    ids=lambda v: ("hermitian" if v else "general") if isinstance(v, bool) else str(v),
)


class TestSmallSystems:
    """2 x 2 systems are solved elementwise over the batch by
    ``_solve_2x2``, and loaded Hermitian ones at every K by
    ``solve_loaded``; ``hermitian_solve`` is LAPACK at every K."""

    @_SMALL_CASES
    def test_matches_lapack_on_well_conditioned_stacks(self, monkeypatch, hermitian, k):
        rng = np.random.default_rng(70 + k)
        a = _conditioned(rng, k, 10.0, hermitian)
        if not hermitian:
            # anti-diagonal matrices with a tiny diagonal
            a[: _BINS // 2] = 1e-9 * a[: _BINS // 2] + np.eye(k)[::-1]
        b = _cplx(rng, _BINS, k, 3)
        _no_lapack(monkeypatch)
        assert _rel_err(_elementwise_solve(hermitian, a, b), np.linalg.solve(a, b)) <= 1e-12

    @_SMALL_CASES
    def test_near_singular_stacks_have_lapack_level_residuals(self, monkeypatch, hermitian, k):
        # the acceptance bound screens out singular systems only; the kernel's
        # backward error must stay within a few ulps, as LAPACK's does
        rng = np.random.default_rng(80 + k)
        a = _conditioned(rng, k, 1e10, hermitian)
        b = _cplx(rng, _BINS, k, 2)
        _no_lapack(monkeypatch)
        x = _elementwise_solve(hermitian, a, b)
        nx._check_solution(a, x, b, "near-singular stack")
        assert _backward_error(a, x, b) <= 1e-15

    @_KINDS
    @_SMALL_KS
    def test_singular_system_raises_naming_its_batch_index(self, k, hermitian):
        rng = np.random.default_rng(90 + k)
        a = _conditioned(rng, k, 10.0, hermitian)
        a[300] = 0.0
        with pytest.raises(nx.SingularMatrixError, match=r"Singular matrix at batch index \[300\]"):
            _solve(hermitian, a, _cplx(rng, _BINS, k, 1))

    def test_singular_rank_one_column_names_its_batch_index(self):
        rng = np.random.default_rng(95)
        w = _cplx(rng, 4, _BINS, 2, 2)
        w[2, 17] = 1.0
        with pytest.raises(nx.SingularMatrixError, match=r"solve_column: .* batch index \[ 2 17\]"):
            nx.solve_column(w, 0)

    def test_unit_and_block_right_hand_sides_take_the_small_path(self, monkeypatch):
        rng = np.random.default_rng(96)
        w = _conditioned(rng, 2, 10.0, False)
        eye = np.broadcast_to(np.eye(2, dtype=complex), w.shape)
        _no_lapack(monkeypatch)
        for n in range(2):
            assert _rel_err(nx.solve_column(w, n), np.linalg.inv(w)[..., n]) <= 1e-12
        assert _rel_err(nx.solve_general(w, eye), np.linalg.inv(w)) <= 1e-12

    @pytest.mark.parametrize("k", [2, 3])
    def test_right_hand_sides_of_another_batch_are_refused(self, k):
        rng = np.random.default_rng(99)
        w = _conditioned(rng, k, 10.0, False)
        for b in (_cplx(rng, k, 1), _cplx(rng, 2, _BINS, k, 1)):
            message = re.escape(f"A of shape {w.shape} and B of shape {b.shape}")
            with pytest.raises(ValueError, match=message):
                nx.solve_general(w, b)

    def test_rejected_systems_alone_go_to_lapack_loaded(self, monkeypatch):
        rng = np.random.default_rng(97)
        small = nx._solve_2x2
        lapack = nx._lapack_solve
        sizes = []

        def reject_bin_7(a, b, shift):
            x, ok = small(a, b, shift)
            ok[7] = False
            return x, ok

        def counted(a, b, context, index=None):
            sizes.append(len(a))
            return lapack(a, b, context, index)

        monkeypatch.setattr(nx, "_solve_2x2", reject_bin_7)
        monkeypatch.setattr(nx, "_lapack_solve", counted)
        w = _cplx(rng, _BINS, 2, 2)
        loaded_w = w + nx.frobenius_shift(w, 1e-3)[:, None, None] * np.eye(2)
        x = nx.solve_column(w, 1, loading=1e-3)
        np.testing.assert_array_equal(x[7], np.linalg.solve(loaded_w[7], np.eye(2)[:, 1]))
        assert sizes == [1]

    @pytest.mark.parametrize("layout", ["transposed", "bins_last", "two_batch_axes", "broadcast"])
    @pytest.mark.parametrize(
        "solver, k",
        [("solve_column", 2)] + [("solve_loaded", k) for k in (1, 2, 3, 4, 5, 6)],
    )
    def test_non_contiguous_input_solves_as_its_contiguous_copy(self, monkeypatch, layout, solver, k):
        # projection back passes S^T as a swapped view, the source block is a
        # bins-first view of a bins-last array, biiva stacks sources ahead of
        # the bins and a shared system broadcasts with zero strides
        rng = np.random.default_rng(100 + k)
        a = _conditioned(rng, k, 10.0, solver == "solve_loaded")
        if layout == "transposed":
            a = np.swapaxes(a, -1, -2)
        elif layout == "bins_last":
            a = np.moveaxis(np.ascontiguousarray(np.moveaxis(a, 0, -1)), -1, 0)
        elif layout == "two_batch_axes":
            a = np.swapaxes(np.stack([a, a[::-1], 2.0 * a], axis=1), 0, 1)
        else:
            a = np.broadcast_to(a[0], a.shape)
        assert k == 1 or not a.flags.c_contiguous  # a 1 x 1 stack has one layout
        b = _cplx(rng, *a.shape[:-1])
        _no_lapack(monkeypatch)
        for loading in (0.0, 1e-3):
            if solver == "solve_column":
                got = [(nx.solve_column(x, 1, loading),) for x in (a, np.ascontiguousarray(a))]
            else:
                got = [nx.solve_loaded(x, b, loading) for x in (a, np.ascontiguousarray(a))]
            for strided, contiguous in zip(*got):
                np.testing.assert_array_equal(strided, contiguous)

    @pytest.mark.parametrize(
        "hermitian, k",
        [(False, 1), (False, 3), (False, 4)] + [(True, k) for k in (1, 2, 3, 4, 5, 6, 7)],
        ids=lambda v: ("hermitian" if v else "general") if isinstance(v, bool) else str(v),
    )
    def test_other_systems_keep_lapack(self, monkeypatch, hermitian, k):
        def fail(*args, **kwargs):
            raise AssertionError("a system went to an elementwise kernel")

        monkeypatch.setattr(nx, "_solve_2x2", fail)
        monkeypatch.setattr(nx, "_eliminate", fail)
        rng = np.random.default_rng(98)
        a = _conditioned(rng, k, 10.0, hermitian)
        b = _cplx(rng, _BINS, k, 2)
        np.testing.assert_array_equal(_solve(hermitian, a, b), np.linalg.solve(a, b))


# K of the loaded solves: auxiva's N x N, biiva's sub-filter systems (3 at
# the desk, 4 at M = 16, 6 at M = 36, 8 and 9 in 2 x 8 and 4 x 9 splits,
# 16 in the 16 x 1 control) and those near where LAPACK starts to win
_LOADED_KS = pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 12, 16])


class TestSolveLoaded:
    """``solve_loaded``, the exact counterpart of ``solve_with_inverse``:
    ``hermitian_solve``'s solution with the unloaded ``A x`` and a
    per-system acceptance, on stacks with source and bin axes (N, I)."""

    @staticmethod
    def _stack(rng, k, cond):
        a = np.stack([_conditioned(rng, k, cond, True) for _ in range(2)])
        return a, _cplx(rng, 2, _BINS, k)

    @_LOADED_KS
    @pytest.mark.parametrize("cond", [10.0, 1e10], ids=["conditioned", "near_singular"])
    @pytest.mark.parametrize("loading", [0.0, 1e-9, 1e-3])
    def test_solution_product_and_acceptance(self, monkeypatch, k, cond, loading):
        def fail(*args, **kwargs):
            raise AssertionError("a loaded system went to LAPACK")

        a, b = self._stack(np.random.default_rng(110 + k), k, cond)
        # elementwise at every K: no LAPACK call
        with monkeypatch.context() as patched:
            patched.setattr(np.linalg, "solve", fail)
            x, ax, ok = nx.solve_loaded(a, b, loading)
        assert x.shape == ax.shape == b.shape and ok.shape == b.shape[:-1]
        # every system here is solvable: all accepted, each with the
        # solution hermitian_solve gives it (whose trace, and so loading,
        # may round differently from K = 4 on)
        assert ok.all()
        if cond > 10.0 and loading < 1e-3:
            # the acceptance bound screens out singular systems only; while
            # A + d I stays near-singular its backward error must stay
            # within a few ulps, as LAPACK's does
            d = loading * np.trace(a, axis1=-2, axis2=-1).real / k
            loaded = a + d[..., None, None] * np.eye(k)
            assert _backward_error(loaded, x[..., None], b[..., None]) <= 1e-15
        bound = max(1e-13, 16.0 * np.finfo(float).eps * cond)
        assert _rel_err(x, nx.hermitian_solve(a, b, loading)) <= bound
        # A x of the unloaded A, to rounding
        ref = (a @ x[..., None])[..., 0]
        scale = np.sqrt(nx._sq_sum(a, 2) * nx._sq_sum(x[..., None], 2))
        assert np.max(np.linalg.norm(ax - ref, axis=-1) / scale) <= 4 * k * np.finfo(float).eps

    @_LOADED_KS
    def test_singular_system_is_rejected_without_a_warning(self, k):
        a, b = self._stack(np.random.default_rng(120 + k), k, 10.0)
        a[1, 7] = 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, ax, ok = nx.solve_loaded(a, b, 1e-9)
        assert not ok[1, 7]
        # elementwise: the other systems stand
        assert ok.sum() == ok.size - 1
        assert _rel_err(x[ok], nx.hermitian_solve(a[ok], b[ok], 1e-9)) <= 1e-13
