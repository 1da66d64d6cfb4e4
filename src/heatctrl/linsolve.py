"""Matrix-free Krylov solvers with matrix-vector product accounting.

``cg_solve`` solves A x = b by conjugate gradients, one right-hand side at a
time, in a loop on 1D vectors whose scalars are Python floats: every step of
the state and line-search sweeps is such a solve, and on a desk-sized field
its cost is numpy calls, not arithmetic.

``inverse_powers`` gives A^-s b for every s = 0..N from one Krylov space of A
and b, by one Lanczos pass: the adjoint sweep, which has no forcing, is
exactly these powers.  It copies each Lanczos vector on the nodes whose
every power it returns (the control patch), and whole only when the caller
keeps a power s > 0, so a patch-only sweep stores m x (patch nodes) floats
of its m Lanczos vectors, not m x n.

A ``CorrectionSpace`` carries what one column's consecutive CG solves with
one operator have learnt: the last few start corrections c = x - x0 and
their images A c, which the solves' own residual recursions give.  A solve
from a start x0 first adds the Galerkin correction over that space, at no
product, and then runs CG as before (augmented CG for a sequence of systems:
Erhel and Guyomarc'h, SIAM J. Matrix Anal. Appl. 21(4), 2000).  On the
benchmark's line-search sweeps, where each step's start misses its solution
by a correction close to the previous steps', this cuts a step from about
6.1 to 4.3 products on the 33 x 33 workload and from 16.5 to 13.8 on the
65 x 65 one.

Both solvers take a batch (k, n) of independent right-hand sides and solve
it column by column, so a column gets the bits and the product count of its
own 1D solve, and the operator only ever sees one field.  Both charge every
product to a ``MatvecCounter``, column by column.
"""

from __future__ import annotations

import math

import numpy as np


class MatvecCounter:
    """Counts discrete-Laplacian applications performed inside linear solves.

    ``count`` is the sequential tally, every product.  ``parallel`` is the
    parallel tally: the same, except that ``add_concurrent`` charges a batch
    of independent solves at its most expensive column, as if each column ran
    on its own processor.  A counter made with ``columns=b`` also keeps
    ``per_column``, the products of each column of a batch of b independent
    solves (the sub-problems of one step-2 batch, say).  Every batched solve
    charged to it has all b columns: one with nothing left to solve rides
    along with a zero right-hand side, which costs it no product.  Batches
    run in the calling thread, so no locking is needed.
    """

    __slots__ = ("count", "parallel", "per_column")

    def __init__(self, columns: int | None = None):
        self.count = self.parallel = 0
        self.per_column = None if columns is None else np.zeros(columns, dtype=np.int64)

    def add(self, n: np.ndarray) -> None:
        """Charge the products of one solve, one count per column of this
        counter's batch, to both tallies."""
        total = int(n.sum())
        self.count += total
        self.parallel += total
        if self.per_column is not None:
            self.per_column += n

    def add_concurrent(self, per_column: np.ndarray) -> None:
        """Charge independent solves, one count per column of this counter's
        batch: their sum to ``count``, their maximum to ``parallel``."""
        self.count += int(per_column.sum())
        self.parallel += int(per_column.max())
        if self.per_column is not None:
            self.per_column += per_column

    def __repr__(self) -> str:
        return f"MatvecCounter({self.count}, parallel={self.parallel})"


class CGError(RuntimeError):
    """A Krylov solve broke down, or CG did not converge within the iteration cap.

    ``column`` is the failing column of a batched solve, None for one field.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


class CorrectionSpace:
    """The last ``size`` start corrections of one column's CG solves with one
    operator A, as a Galerkin subspace for the next start.

    A correction is c = x - x0, a solution minus its start, built from the
    solve's own increments, and A c = r_start - r_end is the difference of
    the residuals of the same recursion, so no product is spent on it.
    The corrections C and their images AC sit in fixed (size, n) blocks,
    and a new correction overwrites the oldest.  ``project`` gives the
    Galerkin correction C^T a of a start with residual r, G a = C r for the
    Gram matrix G = C (AC)^T, from a Cholesky factor of G that ``record``
    computes once per correction.  The small algebra is done on Python
    floats: at size 4 a numpy call on a 4 x 4 array costs more than the
    arithmetic.
    """

    __slots__ = ("_c", "_ac", "_gram", "_kept", "_rows", "_newest", "_filled")

    def __init__(self, n: int, size: int):
        self._c, self._ac = np.zeros((size, n)), np.zeros((size, n))
        self._gram = [[0.0] * size for _ in range(size)]
        # the slots the factorization kept, newest first, and their rows of
        # L, each ending in its diagonal entry and that entry's reciprocal
        self._kept, self._rows = [], []
        self._newest = size - 1  # the slot of the newest correction
        self._filled = 0

    def project(self, r: np.ndarray) -> np.ndarray:
        """The correction C^T a with G a = C r, the Galerkin solution of
        A c = r over the space; subtracts A C^T a from ``r`` in place."""
        kept, rows = self._kept, self._rows
        if not kept:
            return np.zeros(len(r))
        q = self._c.dot(r).tolist()
        y = []  # L y = q on the kept slots
        for i, row in zip(kept, rows):
            value = q[i]
            for l_pm, y_m in zip(row, y):
                value -= l_pm * y_m
            y.append(value * row[-1])
        a = [0.0] * len(q)  # L^T a = y, zero off the kept slots
        for p in range(len(kept) - 1, -1, -1):
            value = y[p]
            for m in range(p + 1, len(kept)):
                value -= rows[m][p] * a[kept[m]]
            a[kept[p]] = value * rows[p][-1]
        a = np.array(a)
        r -= a.dot(self._ac)
        return a.dot(self._c)

    def record(self, c: np.ndarray, r_start: np.ndarray, r_end: np.ndarray) -> None:
        """Record a correction c whose image A c is r_start - r_end, and
        factor the new Gram matrix."""
        size, gram = len(self._gram), self._gram
        slot = self._newest = (self._newest + 1) % size
        self._c[slot] = c
        np.subtract(r_start, r_end, out=self._ac[slot])
        for other, value in enumerate(self._ac.dot(c).tolist()):  # c . A c_other
            gram[slot][other] = gram[other][slot] = value
        self._filled = min(self._filled + 1, size)
        # G = L L^T by Cholesky, newest correction first.  A correction whose
        # pivot falls to 1e-4 of its diagonal or below is left out, and its
        # coefficient is zero: it lies within about half a degree, in the
        # A-norm, of the span of newer ones, or it is zero.  The bound keeps
        # the coefficients a small.  Each stored A c carries the rounding of
        # the residuals it came from, a projection multiplies that error by
        # a, and a recorded correction passes it on to the next.  With a
        # bound of 1e-14, 2D sweeps at nu dt / h^2 = 100 ended with true
        # residuals of 2 tol at tol = 1e-10 and 230 tol at tol = 1e-12; with
        # 1e-4 every one stays below tol.
        kept, rows = [], []
        for age in range(self._filled):
            i = (slot - age) % size
            gram_i, row = gram[i], []
            for j, lj in zip(kept, rows):
                value = gram_i[j]
                for l_im, l_jm in zip(row, lj):
                    value -= l_im * l_jm
                row.append(value * lj[-1])
            pivot = gram_i[i]
            for l_im in row:
                pivot -= l_im * l_im
            if pivot > 1e-4 * gram_i[i]:
                diagonal = math.sqrt(pivot)
                row += [diagonal, 1.0 / diagonal]
                kept.append(i)
                rows.append(row)
        self._kept, self._rows = kept, rows


def cg_solve(
    apply_a,
    b: np.ndarray,
    tol: float,
    counter: MatvecCounter,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
    spaces=None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given as a callable.

    ``b`` is one right-hand side (n,) or a batch (k, n) of independent ones,
    solved one column after another by the same CG loop on 1D vectors, with
    its scalars as Python floats: a column of a batch gets exactly the x and
    the product count of its own 1D solve.  ``apply_a`` only ever sees 1D
    fields.

    A column starts from its row of ``x0`` (zero without one), unless that
    guess is worse than zero, ||b - A x0|| > ||b||: then it starts from
    x = 0, r = b, as a guess with a large residual would leave CG a floor of
    about eps * ||b - A x0|| that can lie above tol * ||b||.  A residual
    whose squared norm overflows counts as worse.  The product that tested
    the guess is charged all the same.

    ``spaces`` gives each column a ``CorrectionSpace`` (a sequence of k for
    a batch, of one for a 1D ``b``), or None for none.  A column whose
    accepted start x0 has not converged then starts CG from x0 plus the
    space's Galerkin correction, at no product, and its space records the
    solve's correction x - x0.  A column that starts from x = 0 records
    nothing.

    A column converges when ||b - A x|| <= tol * ||b||; a zero right-hand
    side has the zero solution and costs no product.  Raises ``CGError``
    when p.Ap is not a positive finite number (A is not positive definite,
    or the iterates are not finite), when ``b`` is not finite, or when the
    iteration cap is reached.  The error names the first failing column of
    a batch in column order (None for a 1D ``b``); the columns after it are
    not solved.  ``counter`` is charged, per column, exactly the products
    made, up to a failure too.

    ``b``, ``x0`` and the arrays ``apply_a`` returns are only read.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    rhs = b.reshape(-1, b.shape[-1])
    starts = [None] * len(rhs) if x0 is None else x0.reshape(rhs.shape)
    if spaces is None:
        spaces = [None] * len(rhs)
    counts = np.zeros(len(rhs), dtype=np.int64)
    if max_iter is None:
        max_iter = rhs.shape[1]
    x = []
    try:
        for col, (column, start, space) in enumerate(zip(rhs, starts, spaces, strict=True)):
            x.append(_cg_column(apply_a, column, tol, counts[col:], start, max_iter, space))
    except CGError as exc:
        exc.column = col if b.ndim > 1 else None
        raise
    finally:
        counter.add(counts)
    return x[0] if b.ndim == 1 else np.array(x)


def _cg_column(apply_a, b, tol, counts, x0, max_iter, space):
    """CG on one right-hand side (n,); ``counts[0]`` receives its products.

    With a ``space`` and a start x0 that is accepted but not converged, the
    iterate x is the correction to x0: it starts from the space's Galerkin
    correction, and x0 is added once CG has converged."""
    n = len(b)
    bb = float(b.dot(b))
    b_norm = math.sqrt(bb)
    if not math.isfinite(b_norm):
        raise CGError(f"right-hand side is not finite: ||b|| = {b_norm!r}")
    if not b_norm:  # a zero right-hand side has the zero solution
        return np.zeros(n)
    target = tol * b_norm
    start = 0 if x0 is None else 1
    offset = None  # the start x corrects, with a space
    if x0 is None:
        x, r, rs = np.zeros(n), b.copy(), bb
    else:
        counts[0] = 1
        r = b - apply_a(x0)
        # an r.r that overflows is inf, worse than any finite ||b||: no warning
        with np.errstate(over="ignore"):
            rs = float(r.dot(r))
        if math.sqrt(rs) > b_norm:  # a guess worse than zero restarts from x = 0, r = b
            x, r, rs = np.zeros(n), b.copy(), bb
        elif space is None or math.sqrt(rs) <= target:
            x = x0.copy()
        else:
            offset, r_start = x0, r.copy()
            x = space.project(r)
            rs = float(r.dot(r))

    it = 0
    if math.sqrt(rs) > target:
        p = r.copy()
        scratch = np.empty(n)
        for it in range(1, max_iter + 1):
            ap = apply_a(p)
            p_ap = float(p.dot(ap))
            if not 0.0 < p_ap < math.inf:
                counts[0] = start + it
                raise CGError(f"CG breakdown: p.Ap = {p_ap!r}")
            alpha = rs / p_ap
            x += np.multiply(alpha, p, out=scratch)
            r -= np.multiply(alpha, ap, out=scratch)
            rs_new = float(r.dot(r))
            if math.sqrt(rs_new) <= target:
                break
            p *= rs_new / rs
            p += r
            rs = rs_new
        else:
            counts[0] = start + max_iter
            raise CGError(f"CG did not reach relative residual {tol:g} in {max_iter} iterations")
    counts[0] = start + it
    if offset is not None:
        space.record(x, r_start, r)
        x += offset
    return x


# Lanczos iterations between two tests of the coefficients T^-s e1
CHECK = 16
# Lanczos vectors stored whole in one (BLOCK, n) block, when a kept power
# needs them: a kept power sums its blocks by matrix-vector products
BLOCK = 16


def inverse_powers(apply_a, b, count, tol, counter, rows, mask):
    """A^-s b for s = 0..count, for symmetric positive definite A given as a
    callable, from one Krylov space of A and b (one Lanczos pass).

    ``b`` is one field (n,) or a batch (k, n) of independent ones, solved
    one column after another.  Returns the pair (fields, patches):
    ``fields[r]`` is A^-s b for s = ``rows[r]``, shaped like ``b``, and
    ``patches[s]`` is A^-s b on the nodes ``mask`` for every s,
    (count+1,) + batch + (len(mask),).  Power 0 is ``b`` itself.  The patch
    nodes of a stored field are its patch row, so the two always agree bit
    for bit.

    Lanczos runs on A from v1 = b / beta0, beta0 = ||b||, building the
    tridiagonal T_m.  At m = 1 and every ``CHECK`` iterations it forms
    c_s = T_m^-s e1 for every s = 1..count, and it stops when every c_s has
    moved by at most tol * ||c_s|| since the last check (so at m = CHECK at
    the earliest), when beta = 0 (an invariant subspace: the result is
    exact) or when m = n.  It tests every power whatever ``rows`` asks for,
    so what a caller stores never changes the products or the bits.  Each
    v_i is copied on ``mask`` as it is made, and whole only when ``rows``
    asks for a power s > 0.  The results are then beta0 * sum_i c_s,i v_i,
    by matrix-vector products of the coefficients and the stored vectors:
    one for each power's patch, and one per ``BLOCK`` vectors for each kept
    power.  A column with m Lanczos vectors costs m products; a zero column
    has zero powers and costs no product.

    Raises ``CGError`` when ``b`` is not finite, when an alpha is not a
    positive finite number or a beta is not finite, or when T_m is not
    positive definite.  The error names the first failing column of a batch
    in column order (None for a 1D ``b``); the columns after it are not
    solved.  ``counter`` is charged, per column, exactly the products made,
    up to a failure too.  ``b`` and the arrays ``apply_a`` returns are only
    read.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    rhs = b.reshape(-1, b.shape[-1])
    counts = np.zeros(len(rhs), dtype=np.int64)
    fields = np.zeros((len(rows),) + rhs.shape)
    patches = np.zeros((count + 1, len(rhs), len(mask)))
    try:
        for col, column in enumerate(rhs):
            beta0 = math.sqrt(float(column.dot(column)))
            if not math.isfinite(beta0):
                raise CGError(f"right-hand side is not finite: ||b|| = {beta0!r}")
            if beta0:  # a zero column has zero powers
                c, on_patch, blocks = _lanczos(apply_a, column / beta0, count, tol,
                                               counts[col:], mask, any(rows))
                c *= beta0
                for s in range(count):
                    np.dot(c[s], on_patch, out=patches[s + 1, col])
                for field, s in zip(fields[:, col], rows):
                    if s:
                        for start, block in zip(range(0, c.shape[1], BLOCK), blocks):
                            block_c = c[s - 1, start : start + BLOCK]
                            field += np.dot(block_c, block[: len(block_c)])
    except CGError as exc:
        exc.column = col if b.ndim > 1 else None
        raise
    finally:
        counter.add(counts)
    patches[0] = rhs[:, mask]
    for field, s in zip(fields, rows):
        if s:
            field[:, mask] = patches[s]
        else:
            field[...] = rhs
    return (fields.reshape((len(rows),) + b.shape),
            patches.reshape((count + 1,) + b.shape[:-1] + (len(mask),)))


def _lanczos(apply_a, v, count, tol, counts, mask, whole):
    """Lanczos from the unit vector ``v``; ``counts[0]`` receives its
    products.

    Returns (coefficients, patch rows, blocks): the (count, m) array of
    T_m^-s e1, the (m, len(mask)) array of v_1..v_m on ``mask`` and, with
    ``whole``, v_1..v_m in (``BLOCK``, n) blocks (none without).
    """
    n = len(v)
    v_prev, w, scratch = np.zeros(n), np.empty(n), np.empty(n)
    beta = 0.0
    alphas, betas, last = [], [], None
    on_patch, blocks = [], []
    for m in range(1, n + 1):
        on_patch.append(v[mask])
        if whole:
            if (m - 1) % BLOCK == 0:
                blocks.append(np.empty((BLOCK, n)))
            blocks[-1][(m - 1) % BLOCK] = v
        av = apply_a(v)
        counts[0] += 1
        np.subtract(av, np.multiply(beta, v_prev, out=w), out=w)
        alpha = float(v.dot(w))
        w -= np.multiply(alpha, v, out=scratch)
        beta = math.sqrt(float(w.dot(w)))
        if not (0.0 < alpha < math.inf and math.isfinite(beta)):
            raise CGError(f"Lanczos breakdown: alpha = {alpha!r}, beta = {beta!r}")
        alphas.append(alpha)
        betas.append(beta)
        if beta == 0.0 or m == n or m % CHECK == 0 or m == 1:
            c = _tridiagonal_powers(alphas, betas, count)
            if beta == 0.0 or m == n or _settled(c, last, tol):
                return c, np.array(on_patch), blocks
            last = c
        # the next Lanczos vector goes where the last one was
        np.divide(w, beta, out=v_prev)
        v, v_prev = v_prev, v


def _settled(c, last, tol):
    """Whether every row of ``c`` is within tol of its norm from ``last``,
    the coefficients of the previous check (None at m = 1)."""
    if last is None:
        return False
    change = c.copy()
    change[:, : last.shape[1]] -= last
    return bool(np.all(np.sqrt(np.vecdot(change, change)) <= tol * np.sqrt(np.vecdot(c, c))))


def _tridiagonal_powers(diag, off, count):
    """(count, m) array whose row s-1 is T^-s e1, for the symmetric
    tridiagonal T with ``diag`` (m values) and ``off`` (at least m - 1).

    T^-1 is formed from T = L D L^T row by row, and the powers by repeated
    matrix-vector products; neither takes a dense factorization.
    """
    m = len(diag)
    pivots, ratios = [diag[0]], [0.0]
    for i in range(1, m):
        ratio = off[i - 1] / pivots[-1]
        ratios.append(ratio)
        pivots.append(diag[i] - ratio * off[i - 1])
    if not all(0.0 < d < math.inf for d in pivots):
        raise CGError("Lanczos breakdown: T is not positive definite")
    inverse = np.zeros((m, m))
    inverse[0, 0] = 1.0
    for i in range(1, m):  # L^-1, row by row
        np.multiply(inverse[i - 1], -ratios[i], out=inverse[i])
        inverse[i, i] = 1.0
    inverse /= np.array(pivots)[:, None]
    row = np.empty(m)
    for i in range(m - 2, -1, -1):  # L^-T D^-1 L^-1, row by row
        inverse[i] -= np.multiply(ratios[i + 1], inverse[i + 1], out=row)
    c = np.empty((count, m))
    c[0] = inverse[:, 0]
    for s in range(1, count):
        np.dot(inverse, c[s - 1], out=c[s])
    return c
