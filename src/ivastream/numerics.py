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
* two kernels solve elementwise over the batch, one numpy operation per
  step for all bins at once: :func:`_solve_2x2` the general 2 x 2 systems
  of :func:`solve_column` and :func:`solve_general`, and
  :func:`solve_loaded` the loaded Hermitian systems of the IP step's first
  pass, at every K.  Both copy the systems into bins-last rows, one
  contiguous row over the bins per matrix entry, with one strided copy of
  each stack with its batch axes flattened and moved last
  (``a.reshape(n, K, K).transpose(1, 2, 0)``): a straight copy when a
  caller's stack is itself a bins-first view of bins-last data, as the
  engines' N x N source block is.  A 2 x 2 system is solved on its four
  entries: Cramer's rule, the residual and its test, with a unit
  right-hand side ``e_n`` (:func:`solve_column`) never formed.  General
  systems with K != 2, and any 2 x 2 one that fails the residual test, go
  to LAPACK one matrix at a time, held to the same residual test, as do
  the checked :func:`hermitian_solve`, which re-solves the IP step's
  rejected systems, and :func:`scaled_inverse`, which refreshes ``P``
* a solve that cannot produce a trustworthy solution raises
  :class:`SingularMatrixError`, never returns garbage;
  :func:`solve_with_inverse`, which factors nothing, and its exact
  counterpart :func:`solve_loaded` instead report per system whether the
  solution passed the same residual test, beside the unloaded ``A x``
"""

from __future__ import annotations

import math

import numpy as np

# residual acceptance for linear solves, relative to ||A||_F ||x|| + ||b||;
# LU backward error is ~1e-16, so this only trips on numerically singular input
_SOLVE_RTOL = 1e-8

# largest loading * trace(P) at which solve_with_inverse's first-order loading
# term is used (the trace bounds ||P||_2 for positive definite P): its solution
# is then the exact one for a loading at most 1 / (1 - 0.1) times the set
# value along every eigenvector.  Beyond it, in near-singular systems, the
# expansion fails where the residual test cannot see it.  Tuned for the engines'
# separators.LOADING: at 0.01 the desk DC bin fell back in half of overiva's frames
_FIRST_ORDER_MAX = 0.1


class SingularMatrixError(np.linalg.LinAlgError):
    """A linear system was singular (or numerically so) after loading.

    ``index``, when the error names one system of a batch, is that
    system's batch index, which ends the message."""

    def __init__(self, reason: str, index: np.ndarray | None = None):
        super().__init__(reason if index is None else f"{reason} at batch index {index}")
        self.reason, self.index = reason, index


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
    out = np.zeros(a.shape[:-1] + (m1 * m2, m2), dtype=np.result_type(a, np.complex128))
    for q in range(m2):
        out[..., q::m2, q] = a
    return out


def congruence(v: np.ndarray, held: np.ndarray, side: str) -> np.ndarray:
    """Congruence transform ``Delta^H V Delta`` of Hermitian (..., M, M)
    ``V`` through the lift of a held sub-filter, without forming the lift.

    ``side`` names the lift: ``"left"`` for ``Delta = lift_left(held, M1) =
    I_{M1} (x) held`` (``held`` of length ``M2``, result M1 x M1),
    ``"right"`` for ``Delta = lift_right(held, M2) = held (x) I_{M2}``
    (``held`` of length ``M1``, result M2 x M2); ``M1 M2 == M`` and leading
    axes broadcast.  With ``V`` viewed as (..., M1, M2, M1, M2) the
    transform is ``sum conj(held) V held`` over both M2 axes (left) or both
    M1 axes (right), two batched matrix-vector products that never touch
    the zeros of ``Delta``.  The result is re-symmetrized so downstream
    code can rely on exact Hermitian structure.
    """
    v = np.asarray(v)
    held = np.asarray(held)
    batch, m, k = v.shape[:-2], v.shape[-1], held.shape[-1]
    if v.shape[-2] != m or k == 0 or m % k:
        raise ValueError(
            f"congruence: V is {v.shape[-2]}x{m}, held sub-filter has length {k}; "
            f"V must be square with the length dividing its order"
        )
    other = m // k
    if side == "left":
        # T[a, q, b] = sum_q' V[a, q, b, q'] held[q'], then conj(held) over q
        t = np.matmul(v.reshape(batch + (m * other, k)), held[..., None])
        second = held.conj()
    elif side == "right":
        # T[c, p', d] = sum_p conj(held[p]) V[p, c, p', d], then held over p'
        t = np.matmul(held.conj()[..., None, :], v.reshape(batch + (k, other * m)))
        second = held
    else:
        raise ValueError(f"congruence: side must be 'left' or 'right', not {side!r}")
    out = np.matmul(second[..., None, None, :], t.reshape(t.shape[:-2] + (other, k, other)))
    out = out.reshape(out.shape[:-3] + (other, other))
    return 0.5 * (out + np.conj(np.swapaxes(out, -1, -2)))


def _sq_sum(x: np.ndarray, n_axes: int) -> np.ndarray:
    """Squared 2-norm over the trailing ``n_axes`` axes of a complex array;
    real/imag views avoid the temporaries ``np.linalg.norm`` allocates."""
    subs = "ij"[:n_axes]
    expr = f"...{subs},...{subs}->..."
    return np.einsum(expr, x.real, x.real) + np.einsum(expr, x.imag, x.imag)


def real_dot(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """``Re(a^H b)`` over the last axis of complex (..., K) arrays whose last
    axis is contiguous: one real dot product of their float views."""
    return np.einsum("...k,...k->...", a.view(np.float64), b.view(np.float64))


def _accepted(resid_sq: np.ndarray, a_sq: np.ndarray, x_sq: np.ndarray, b_sq: np.ndarray) -> np.ndarray:
    """Per system, whether ``||A X - B|| <= _SOLVE_RTOL (||A||_F ||X|| + ||B||)``,
    from the squared norms of ``A X - B``, ``A``, ``X`` and ``B``.  A
    non-finite residual is never accepted."""
    scale = np.sqrt(a_sq * x_sq) + np.sqrt(b_sq)
    bound = (_SOLVE_RTOL * np.maximum(scale, np.finfo(float).tiny)) ** 2
    return np.isfinite(resid_sq) & (resid_sq <= bound)


def _check_solution(a: np.ndarray, x: np.ndarray, b: np.ndarray, context: str, index=None) -> None:
    """Reject solves whose residual betrays a numerically singular system.

    ``a`` is (..., K, K); ``x`` and ``b`` are (..., K, R) right-hand sides.
    ``index``, when given, holds each system's batch index for the message.
    """
    if not np.all(np.isfinite(x)):
        raise SingularMatrixError(f"{context}: non-finite solution")
    with np.errstate(all="ignore"):  # an overflowing residual is rejected, not warned of
        ok = _accepted(_sq_sum(np.matmul(a, x) - b, 2), _sq_sum(a, 2), _sq_sum(x, 2), _sq_sum(b, 2))
    if not np.all(ok):
        idx = np.argwhere(~ok)[0]
        if index is not None:
            idx = index[idx[0]]
        raise SingularMatrixError(f"{context}: unreliable solution", idx)


def _lapack_solve(a: np.ndarray, b: np.ndarray, context: str, index=None) -> np.ndarray:
    """LU solve of ``A X = B`` for (..., K, R) ``B``, residual-checked.
    ``index``, when given, holds the batch index of each of the (n, K, K)
    systems ``a`` in a larger batch, for the error message."""
    try:
        x = np.linalg.solve(a, b)
    except np.linalg.LinAlgError as exc:
        # name the first system LAPACK finds exactly singular
        for idx in np.ndindex(a.shape[:-2]):
            try:
                np.linalg.solve(a[idx], np.eye(a.shape[-1]))
            except np.linalg.LinAlgError:
                where = np.array(idx) if index is None else index[idx[0]]
                raise SingularMatrixError(f"{context}: {exc}", where) from exc
        raise SingularMatrixError(f"{context}: {exc}") from exc
    _check_solution(a, x, b, context, index)
    return x


def _eliminate(g: np.ndarray, k: int) -> np.ndarray:
    """``A^{-1} B`` by unrolled Gaussian elimination in place on the
    bins-last (K, K + R, n) rows ``g = [A | B]`` of Hermitian positive
    definite ``A``: the root-free Cholesky factorization ``A = L D L^H``
    (the eliminated rows are ``D L^H``), stable without pivots.  Returns
    the (K, R, n) view of ``g`` that holds ``X``."""
    for j in range(k):
        f = g[j + 1 :, j] / g[j, j]
        g[j + 1 :, j + 1 :] -= f[:, None] * g[j, j + 1 :]
    x = g[:, k:]
    for j in reversed(range(k)):  # back substitution
        x[j] /= g[j, j]
        x[:j] -= g[:j, j, None] * x[j]
    return x


def _inverse_det(e: np.ndarray) -> np.ndarray:
    """``1 / det A`` of 2 x 2 systems from the bins-last rows ``e`` of
    their entries ``a00, a01, a10, a11``."""
    # rows (a00, a01) times (a11, a10): the determinant's two products
    prod = e[:2] * e[3:1:-1]
    return 1.0 / (prod[0] - prod[1])


def _solve_2x2(
    a: np.ndarray, b: np.ndarray | int, shift: np.ndarray | None
) -> tuple[np.ndarray, np.ndarray]:
    """Solve each of the (..., 2, 2) systems ``(A + shift I) X = B``
    elementwise over the batch: Cramer's rule, the residual ``A X - B`` and
    its test on the four entries of each ``A + shift I``, each one
    contiguous row over the bins of a bins-last copy; any strides are
    accepted.  An integer ``b`` is the unit column ``e_b`` (R = 1), which
    is never formed: ``X`` is column ``b`` of the adjugate over the
    determinant and ``||B|| = 1``.  Returns ``X`` and, per system, whether
    it passed the residual test of :func:`_check_solution`.

    General systems, which would need pivots, are solved elementwise only
    here, in closed form: every general solve of the shipped configs is on
    the 2 x 2 source block.  Working on strided views of the entries
    instead of the row copy was slower (84 against 53 us for the
    unit-column kernel alone on 513 bins, 2-core Xeon)."""
    batch = a.shape[:-2]
    n = math.prod(batch)
    unit = isinstance(b, int)
    r = 1 if unit else b.shape[-1]
    n_b = 0 if unit else 2 * r
    # bins-last rows of the entries, B (unless unit), X and A X - B
    rows = np.empty((4 + n_b + 4 * r, n), dtype=np.complex128)
    rows[:4].reshape(2, 2, n)[...] = a.reshape(n, 2, 2).transpose(1, 2, 0)
    if shift is not None:
        rows[:4:3] += shift.reshape(n)
    xt, rt = rows[4 + n_b :].reshape(2, 2, r, n)
    with np.errstate(all="ignore"):
        inv_det = _inverse_det(rows[:4])
        if unit:
            # e_0 gives (a11, -a10) / det, e_1 gives (-a01, a00) / det
            np.multiply(rows[3:1:-1] if b == 0 else rows[1::-1], inv_det, out=xt[:, 0])
            np.negative(xt[1 - b], out=xt[1 - b])
        else:
            bt = rows[4 : 4 + n_b].reshape(2, r, n)
            bt[...] = b.reshape(n, 2, r).transpose(1, 2, 0)
            # (a11 b0, a00 b1) - (a01 b1, a10 b0)
            np.subtract(rows[3::-3, None] * bt, rows[1:3, None] * bt[::-1], out=xt)
            xt *= inv_det
        # (a00, a10) x0 + (a01, a11) x1
        np.add(rows[0:3:2, None] * xt[0], rows[1:4:2, None] * xt[1], out=rt)
        if unit:
            rt[b] -= 1.0
        else:
            rt -= bt
        sq = rows.real * rows.real
        sq += rows.imag * rows.imag
        sums = sq[4:].reshape(-1, 2 * r, n).sum(axis=1)
        b_sq, x_sq, r_sq = (1.0, *sums) if unit else sums
        ok = _accepted(r_sq, sq[:4].sum(axis=0), x_sq, b_sq)
    x = np.ascontiguousarray(xt.reshape(2 * r, n).T).reshape(batch + (2, r))
    return x, ok.reshape(batch)


def _checked_solve(
    a: np.ndarray, b: np.ndarray | int, context: str, shift: np.ndarray | None = None
) -> np.ndarray:
    """Residual-checked solve of ``(A + shift I) X = B`` for (..., K, K)
    ``A``, (..., K, R) ``B`` with the same batch axes and a per-system
    diagonal ``shift`` (None for none); an integer ``b`` is the unit column
    ``e_b``, which only LAPACK gets as an array.  2 x 2 systems go through
    :func:`_solve_2x2`, and only those it leaves unsolved through LAPACK;
    all others go through LAPACK."""
    k = a.shape[-1]
    unit = isinstance(b, int)
    rows = k if unit else b.shape[-2]
    if a.shape[-2] != k or rows != k:
        raise ValueError(f"{context}: A is {a.shape[-2]}x{k}, B has {rows} rows")
    if not unit and b.shape[:-2] != a.shape[:-2]:
        raise ValueError(f"{context}: A of shape {a.shape} and B of shape {b.shape} "
                         f"have different batch axes")
    if k != 2:
        b = _unit_columns(b, k, a.shape[:-2]) if unit else b
        return _lapack_solve(_shifted(a, shift), b, context)
    x, ok = _solve_2x2(a, b, shift)
    if not np.all(ok):
        bad = ~ok
        a_bad = _shifted(a[bad], None if shift is None else shift[bad])
        b_bad = _unit_columns(b, k, a_bad.shape[:-2]) if unit else b[bad]
        x[bad] = _lapack_solve(a_bad, b_bad, context, np.argwhere(bad))
    return x


def _unit_columns(col: int, k: int, batch: tuple) -> np.ndarray:
    """The unit column ``e_col`` of length ``k`` as a (*batch, k, 1) stack of
    right-hand sides, for LAPACK."""
    e = np.zeros((k, 1), dtype=np.complex128)
    e[col] = 1.0
    return np.broadcast_to(e, batch + (k, 1))


def _shifted(a: np.ndarray, shift: np.ndarray | None) -> np.ndarray:
    """``A + shift I`` for (..., K, K) ``a``; ``a`` itself for no shift."""
    if shift is None:
        return a
    return a + shift[..., None, None] * np.eye(a.shape[-1])


def frobenius_shift(a: np.ndarray, loading: float) -> np.ndarray:
    """Diagonal shift ``loading * ||A||_F / sqrt(K)`` of each (..., K, K)
    matrix: the trace of a general complex matrix is not a usable scale, so
    the Frobenius norm stands in."""
    scale = np.sqrt(_sq_sum(a, 2)) / np.sqrt(a.shape[-1])
    return loading * scale


def hermitian_solve(a: np.ndarray, b: np.ndarray, loading: float = 0.0) -> np.ndarray:
    """Solve ``(A + loading * (trace(A)/K) * I) x = b`` for Hermitian ``A``
    by LAPACK, one matrix at a time, residual-checked: the reference solve
    that re-solves the systems :func:`solve_loaded` and
    :func:`solve_with_inverse` reject.

    It stays on LAPACK at every K because LAPACK wins with K right-hand
    sides, as in overiva's refresh of its tracked inverse
    (:func:`scaled_inverse`): by far at K = 9 (2.33 vs 3.76 ms for 2 x 513
    systems against elimination over the batch), a tie at K = 4 (1.94 vs
    1.99 ms); only below M = 4, which no shipped config has, would an
    elementwise refresh pay (0.73 vs 1.26 ms at K = 2).

    Parameters
    ----------
    a : (..., K, K) Hermitian matrix (stack)
    b : (..., K) right-hand side (stack), or (..., K, R) blocks of ``R``
        right-hand sides when ``b`` has as many axes as ``a``
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
    block = b.ndim == a.ndim
    rows = b.shape[-2] if block else b.shape[-1]
    if a.shape[-2] != k or rows != k:
        raise ValueError(f"hermitian_solve: A is {a.shape[-2]}x{k}, b has {rows} rows")
    shift = loading * np.trace(a, axis1=-2, axis2=-1).real / k if loading > 0 else None
    x = _lapack_solve(_shifted(a, shift), b if block else b[..., None], "hermitian_solve")
    return x if block else x[..., 0]


def scaled_inverse(a: np.ndarray, loading: float) -> np.ndarray:
    """Inverse of each Hermitian (..., K, K) ``A`` scaled to unit mean
    eigenvalue, ``(A / t)^{-1}`` with ``t = trace(A) / K``, from the checked
    loaded solve ``X = (A / t + loading I)^{-1}`` of :func:`hermitian_solve`.

    ``(A / t)^{-1} = X (I + loading X + (loading X)^2 + ...)``; the first
    three terms leave an error of order ``(loading ||X||)^3``.  The result
    stays finite where only the loading keeps ``A`` nonsingular, and
    whatever the scale of ``A``.
    """
    t = np.trace(a, axis1=-2, axis2=-1).real / a.shape[-1]
    eye = np.broadcast_to(np.eye(a.shape[-1], dtype=np.complex128), a.shape)
    x = hermitian_solve(a / t[..., None, None], eye, loading)
    return x + loading * (x @ (x + loading * (x @ x)))


def solve_with_inverse(
    p: np.ndarray, a: np.ndarray, b: np.ndarray, loading: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loaded system of :func:`hermitian_solve` solved with a given
    ``P ~= (A / t)^{-1}``, ``t = trace(A) / K`` (as :func:`scaled_inverse`
    scales it), in place of a factorization.

    ``x = (P b - loading P P b) / t`` solves ``(A + d I) x = b``,
    ``d = loading trace(A) / K``, to first order in ``loading`` when ``P``
    is exact.  Each system's ``x`` is accepted when ``loading trace(P)`` is
    at most ``_FIRST_ORDER_MAX`` and ``x`` passes the residual test of a
    checked solve against ``A + d I``; nothing is raised, so the caller
    solves the rejected ones another way.  Returns ``x``, ``A x`` (unloaded)
    and the per-system acceptance, for (..., K, K) ``p``, ``a`` and (..., K)
    ``b``.
    """
    k = a.shape[-1]
    b = np.ascontiguousarray(b)
    tr = np.einsum("...ii->...", a).real
    d = loading * tr / k
    pb = np.matmul(p, b[..., None])
    x = ((pb - loading * np.matmul(p, pb)) * (k / tr)[..., None, None])[..., 0]
    ax = np.matmul(a, x[..., None])[..., 0]
    resid = ax + d[..., None] * x - b
    # ||A + dI||_F^2 without forming A + dI: one dot over A's K^2 entries
    a_flat = np.ascontiguousarray(a).reshape(a.shape[:-2] + (k * k,))
    a_sq = real_dot(a_flat, a_flat) + d * (2.0 * tr + k * d)
    ok = _accepted(real_dot(resid, resid), a_sq, real_dot(x, x), real_dot(b, b))
    ok &= loading * np.einsum("...ii->...", p).real <= _FIRST_ORDER_MAX
    return x, ax, ok


def solve_loaded(
    a: np.ndarray, b: np.ndarray, loading: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The loaded system ``(A + d I) x = b``, ``d = loading trace(A) / K``,
    of :func:`hermitian_solve`, solved exactly: the counterpart of
    :func:`solve_with_inverse`, with its returns.  Nothing is raised; each
    system's ``x`` is accepted when it passes the residual test of a
    checked solve against ``A + d I``, and the caller solves the rejected
    ones another way.  Returns ``x``, ``A x`` (unloaded) and the per-system
    acceptance, for Hermitian positive definite (..., K, K) ``a`` and
    (..., K) ``b``.

    The systems are solved elementwise over the batch, at every K, in one
    bins-last copy of ``A`` and ``b``: Cramer's rule on the entries at K =
    2, as in :func:`_solve_2x2`, and :func:`_eliminate` on ``[A + d I |
    b]`` otherwise.  ``A x`` is the product with the unshifted rows: ``b -
    d x`` would cancel along weak directions of ``A``, where ``d`` is far
    above the smallest eigenvalue.  Against LAPACK one matrix at a time
    with the same residual test, for 513 systems on one BLAS thread (two
    runs, 2-core Xeon), the elimination took 0.59-0.93 of its time at K =
    7-10, 0.82-1.14 at K = 12, 1.10-1.47 at 16 and 1.86-2.61 at 36; only a
    biiva sub-filter of 12 or more taps gets there, which no shipped config
    has.
    """
    a = np.asarray(a, dtype=np.complex128)
    b = np.ascontiguousarray(b, dtype=np.complex128)
    batch, k = a.shape[:-2], a.shape[-1]
    n = math.prod(batch)
    kk = k * k
    # bins-last rows of A, b, the residual, x and A x, one block each
    rows = np.empty((kk + 4 * k, n), dtype=np.complex128)
    at = rows[:kk].reshape(k, k, n)
    at[...] = a.reshape(n, k, k).transpose(1, 2, 0)
    bt, rt, xt, axt = rows[kk:].reshape(4, k, n)
    bt[...] = b.reshape(n, k).T
    tr = rows[0].real.copy()
    for j in range(1, k):
        tr += rows[j * (k + 1)].real
    d = loading * tr / k
    with np.errstate(all="ignore"):
        if k == 2:
            # _solve_2x2's Cramer's rule on the entries of A + d I
            e = rows[:4].copy()
            e[::3] += d
            np.subtract(e[3::-3] * bt, e[1:3] * bt[::-1], out=xt)
            xt *= _inverse_det(e)
        else:
            g = np.empty((k, k + 1, n), dtype=np.complex128)
            g[:, :k] = at
            g[:, k] = bt
            g.reshape(k * (k + 1), n)[:: k + 2] += d
            xt[...] = _eliminate(g, k)[:, 0]
        np.multiply(at[:, 0], xt[0], out=axt)
        for j in range(1, k):
            axt += at[:, j] * xt[j]
        np.subtract(axt + d * xt, bt, out=rt)
        sq = rows[: kk + 3 * k].real ** 2
        sq += rows[: kk + 3 * k].imag ** 2
        b_sq, r_sq, x_sq = sq[kk:].reshape(3, k, n).sum(axis=1)
        ok = _accepted(r_sq, sq[:kk].sum(axis=0) + d * (2.0 * tr + k * d), x_sq, b_sq)
    # x and A x, bins first, from one transposing copy
    out = np.ascontiguousarray(rows[kk + 2 * k :].reshape(2, k, n).transpose(0, 2, 1))
    return out[0].reshape(batch + (k,)), out[1].reshape(batch + (k,)), ok.reshape(batch)


def solve_column(w: np.ndarray, n: int, loading: float = 0.0) -> np.ndarray:
    """Column ``n`` (0-based) of ``W^{-1}`` via a linear solve, with
    Frobenius-scaled loading ``loading * (||W||_F / sqrt(M)) * I``."""
    w = np.asarray(w, dtype=np.complex128)
    if loading < 0:
        raise ValueError("loading must be nonnegative")
    m = w.shape[-1]
    if w.shape[-2] != m:
        raise ValueError("solve_column: W must be square")
    if not 0 <= n < m:
        raise ValueError(f"solve_column: column {n} out of range for {m}x{m} matrix")
    shift = frobenius_shift(w, loading) if loading > 0 else None
    return _checked_solve(w, int(n), "solve_column", shift)[..., 0]


def solve_general(a: np.ndarray, b: np.ndarray, loading: float = 0.0, context: str = "solve") -> np.ndarray:
    """Solve ``A X = B`` for general square ``A`` with Frobenius-scaled loading."""
    a = np.asarray(a, dtype=np.complex128)
    b = np.asarray(b, dtype=np.complex128)
    if loading < 0:
        raise ValueError("loading must be nonnegative")
    shift = frobenius_shift(a, loading) if loading > 0 else None
    return _checked_solve(a, b, context, shift)
