"""Complex linear-algebra primitives shared by all separation engines.

Everything here operates per frequency bin on small dense complex matrices
(at most a few dozen rows).  All functions accept arbitrary leading batch
dimensions so the engines can process every frequency bin in one call;
the math below is written for a single bin.

Conventions
-----------
* vectors are 1-d complex arrays, matrices 2-d, batched via leading axes
* Hermitian solves apply trace-scaled diagonal loading
  ``A + loading * (trace(A)/K) * I`` so the regularization is invariant to
  the overall scale of ``A``
* a solve that cannot produce a trustworthy solution raises
  :class:`SingularMatrixError`, never returns garbage
"""

from __future__ import annotations

import numpy as np

# residual acceptance for linear solves, relative to ||A||_F ||x|| + ||b||;
# LU backward error is ~1e-16, so this only trips on numerically singular input
_SOLVE_RTOL = 1e-8


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear system was singular (or numerically so) after loading."""


def kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product of two vectors, batched over leading axes.

    ``kron(a, b)[(p * M2) + q] == a[p] * b[q]`` for ``a`` of length ``M1``
    and ``b`` of length ``M2``.
    """
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape[-1] == 0 or b.shape[-1] == 0:
        raise ValueError("kron requires non-empty vectors")
    out = a[..., :, None] * b[..., None, :]
    return out.reshape(*out.shape[:-2], a.shape[-1] * b.shape[-1])


def lift_left(b: np.ndarray, m1: int) -> np.ndarray:
    """Lifting matrix ``I_{m1} (x) b`` of shape (m1*M2, m1).

    Left-multiplying a length-``m1`` vector by the result equals the
    Kronecker product with ``b`` on the right: ``lift_left(b, m1) @ a ==
    kron(a, b)``.
    """
    b = np.asarray(b)
    if m1 < 1:
        raise ValueError("m1 must be >= 1")
    m2 = b.shape[-1]
    out = np.zeros(b.shape[:-1] + (m1 * m2, m1), dtype=np.result_type(b, np.complex128))
    for p in range(m1):
        out[..., p * m2 : (p + 1) * m2, p] = b
    return out


def lift_right(a: np.ndarray, m2: int) -> np.ndarray:
    """Lifting matrix ``a (x) I_{m2}`` of shape (M1*m2, m2).

    ``lift_right(a, m2) @ b == kron(a, b)``.
    """
    a = np.asarray(a)
    if m2 < 1:
        raise ValueError("m2 must be >= 1")
    m1 = a.shape[-1]
    blocks = a[..., :, None, None] * np.eye(m2)
    return blocks.reshape(a.shape[:-1] + (m1 * m2, m2)).astype(
        np.result_type(a, np.complex128), copy=False
    )


def congruence(d: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Congruence transform ``D^H V D`` for Hermitian ``V``.

    The result is re-symmetrized so downstream code can rely on exact
    Hermitian structure.
    """
    d = np.asarray(d)
    v = np.asarray(v)
    if d.shape[-2] != v.shape[-1] or v.shape[-2] != v.shape[-1]:
        raise ValueError(
            f"congruence: D is {d.shape[-2]}x{d.shape[-1]}, V is "
            f"{v.shape[-2]}x{v.shape[-1]}; V must be square with D's row count"
        )
    dh = np.conj(np.swapaxes(d, -1, -2))
    out = dh @ v @ d
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _sq_sum(x: np.ndarray, n_axes: int) -> np.ndarray:
    """Squared 2-norm over the trailing ``n_axes`` axes; real/imag views
    avoid the temporaries ``np.linalg.norm`` allocates on complex input."""
    subs = "ij"[:n_axes]
    expr = f"...{subs},...{subs}->..."
    if np.iscomplexobj(x):
        return np.einsum(expr, x.real, x.real) + np.einsum(expr, x.imag, x.imag)
    return np.einsum(expr, x, x)


def _check_solution(a: np.ndarray, x: np.ndarray, b: np.ndarray, context: str) -> None:
    """Reject solves whose residual betrays a numerically singular system.

    ``a`` is (..., K, K); ``x`` and ``b`` are (..., K, R) right-hand sides.
    """
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(f"{context}: non-finite solution")
    resid_sq = _sq_sum(np.matmul(a, x) - b, 2)
    scale = np.sqrt(_sq_sum(a, 2) * _sq_sum(x, 2)) + np.sqrt(_sq_sum(b, 2))
    bad = resid_sq > (_SOLVE_RTOL * np.maximum(scale, np.finfo(float).tiny)) ** 2
    if np.any(bad):
        idx = np.argwhere(bad)
        raise SingularMatrixError(f"{context}: unreliable solution at batch index {idx[0]}")


def _checked_solve(a: np.ndarray, b: np.ndarray, context: str) -> np.ndarray:
    """LU solve of ``A X = B`` for (..., K, R) ``B``, residual-checked."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        raise SingularMatrixError(f"{context}: {exc}") from exc
    _check_solution(a, x, b, context)
    return x


def frobenius_shift(a: np.ndarray, loading: float) -> np.ndarray:
    """Diagonal shift ``loading * ||A||_F / sqrt(K)`` of each (..., K, K)
    matrix: the trace of a general complex matrix is not a usable scale, so
    the Frobenius norm stands in."""
    scale = np.linalg.norm(a, axis=(-2, -1)) / np.sqrt(a.shape[-1])
    return loading * scale


def _frobenius_load(a: np.ndarray, loading: float) -> np.ndarray:
    """``A + frobenius_shift(A, loading) * I``."""
    if loading <= 0:
        return a
    return a + frobenius_shift(a, loading)[..., None, None] * np.eye(a.shape[-1])


def hermitian_solve(a: np.ndarray, b: np.ndarray, loading: float = 0.0) -> np.ndarray:
    """Solve ``(A + loading * (trace(A)/K) * I) x = b`` for Hermitian ``A``.

    Parameters
    ----------
    a : (..., K, K) Hermitian matrix (stack)
    b : (..., K) right-hand side (stack)
    loading : nonnegative trace-relative diagonal loading

    Raises
    ------
    SingularMatrixError
        If the loaded system is singular or the solve residual is untrustworthy.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if loading < 0:
        raise ValueError("loading must be nonnegative")
    k = a.shape[-1]
    if a.shape[-2] != k or b.shape[-1] != k:
        raise ValueError(f"hermitian_solve: A is {a.shape[-2]}x{k}, b has length {b.shape[-1]}")
    if loading > 0:
        tr = np.trace(a, axis1=-2, axis2=-1).real
        a = a + (loading * tr / k)[..., None, None] * np.eye(k)
    return _checked_solve(a, b[..., None], "hermitian_solve")[..., 0]


def solve_column(w: np.ndarray, n: int, loading: float = 0.0) -> np.ndarray:
    """Column ``n`` (0-based) of ``W^{-1}`` via a linear solve, with
    Frobenius-scaled loading ``loading * (||W||_F / sqrt(M)) * I``."""
    w = np.asarray(w, dtype=np.complex128)
    m = w.shape[-1]
    if w.shape[-2] != m:
        raise ValueError("solve_column: W must be square")
    if not 0 <= n < m:
        raise ValueError(f"solve_column: column {n} out of range for {m}x{m} matrix")
    e = np.zeros((m, 1), dtype=np.complex128)
    e[n] = 1.0
    b = np.broadcast_to(e, w.shape[:-2] + (m, 1))
    return _checked_solve(_frobenius_load(w, loading), b, "solve_column")[..., 0]


def solve_general(a: np.ndarray, b: np.ndarray, loading: float = 0.0, context: str = "solve") -> np.ndarray:
    """Solve ``A X = B`` for general square ``A`` with Frobenius-scaled loading."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    return _checked_solve(_frobenius_load(a, loading), b, context)
