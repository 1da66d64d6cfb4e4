"""Matrix-free Krylov solvers with matrix-vector product accounting.

``cg_solve`` solves A x = b by conjugate gradients, in a loop on one field
whose scalars are Python floats: every step of
the state and line-search sweeps is such a solve, and on a desk-sized field
its cost is numpy calls, not arithmetic.

``inverse_powers`` gives A^-s b for every s = 0..N from one Krylov space of A
and b, by one Lanczos pass: the adjoint sweep, which has no forcing, is
exactly these powers.  It assumes A >= Id, as every step operator
K = Id + dt nu (-Lap) is, and stops the pass on a residual bound that this
makes an error bound (Saad, SIAM J. Numer. Anal. 29(1), 1992, for Krylov
approximations of matrix functions).  It returns the powers only on the
nodes the caller names (the control patch, for the adjoint) and copies each
Lanczos vector only there, so a pass stores m x (patch nodes) floats of its
m Lanczos vectors, not m x n.

A ``CorrectionSpace`` carries what consecutive CG solves with one operator
have learnt: the last few start corrections c = x - x0 and their images
A c, which the solves' own residual recursions give.  A solve from a start
x0 first adds the Galerkin correction over that space, at no product, takes
its one test product at the corrected start and runs CG from that start's
true residual (augmented CG for a sequence of systems: Erhel and
Guyomarc'h, SIAM J. Matrix Anal. Appl. 21(4), 2000).  A space can also
recall the corrections made at the same position of earlier cycles of a
sequence that repeats, and correct a start over those and its last
corrections jointly (recycling for sequences of systems: Parks, de Sturler,
Mackey, Johnson and Maiti, SIAM J. Sci. Comput. 28(5), 2006).  On the
benchmark's line-search sweeps, where each step's start misses its solution
by a correction close to the previous steps' and to those made at the same
step of the last windows, a step costs about 4.0 products on the 33 x 33
workload and 11.5 on the 65 x 65 one at seed 0, against 4.15 and 13.5
without the recall.

Both solvers take one field (n,) and charge every product to a
``MatvecCounter``.
"""

from __future__ import annotations

import math

import numpy as np


class MatvecCounter:
    """Counts discrete-Laplacian applications performed inside linear solves.

    ``count`` is the sequential tally, every product.  ``parallel`` is the
    parallel tally: the same, except that ``add_concurrent`` charges
    independent solves at the most expensive one, as if each ran on its own
    processor.  The sequential baseline's step 2 is one solve, so its two
    tallies agree.  Solves run in the calling thread, so no locking is
    needed.
    """

    __slots__ = ("count", "parallel")

    def __init__(self):
        self.count = self.parallel = 0

    def add(self, n: int) -> None:
        """Charge the n products of one solve to both tallies."""
        self.count += n
        self.parallel += n

    def add_concurrent(self, counts) -> None:
        """Charge independent solves, one count each: their sum to ``count``,
        their maximum to ``parallel``."""
        self.count += sum(counts)
        self.parallel += max(counts)

    def __repr__(self) -> str:
        return f"MatvecCounter({self.count}, parallel={self.parallel})"


class CGError(RuntimeError):
    """A Krylov solve broke down, or CG did not converge within the iteration cap."""


class _Ring:
    """The last ``size`` corrections c of consecutive solves with one operator
    A, their images A c, and their Gram matrix G_ij = c_i . A c_j.

    C and AC sit in fixed (size, n) blocks, a new correction overwrites the
    oldest, and G is kept in Python-float rows.
    """

    __slots__ = ("c", "ac", "gram", "newest", "filled")

    def __init__(self, n: int, size: int):
        self.c, self.ac = np.zeros((size, n)), np.zeros((size, n))
        self.gram = [[0.0] * size for _ in range(size)]
        self.newest = size - 1  # the slot of the newest correction
        self.filled = 0

    def add(self, c: np.ndarray, r_start: np.ndarray, r_end: np.ndarray) -> None:
        """Add a correction c whose image A c is r_start - r_end."""
        size, gram = len(self.gram), self.gram
        slot = self.newest = (self.newest + 1) % size
        self.c[slot] = c
        np.subtract(r_start, r_end, out=self.ac[slot])
        for other, value in enumerate(self.ac.dot(c).tolist()):  # c . A c_other
            gram[slot][other] = gram[other][slot] = value
        self.filled = min(self.filled + 1, size)

    def slots(self) -> list[int]:
        """The filled slots, newest first."""
        size = len(self.gram)
        return [(self.newest - age) % size for age in range(self.filled)]


def _galerkin(gram, order, q, threshold: float) -> list[float]:
    """The solution a of G a = q over the slots that a pivoted Cholesky
    factorization G = L L^T keeps, taking the slots ``order`` in that order,
    and zero on the others; ``gram[i][j]`` is G_ij and ``q[i]`` is q_i.

    A slot whose pivot falls to ``threshold`` of its diagonal or below is
    left out, and its coefficient is zero: in the norm G defines, its vector
    lies within an angle asin(sqrt(threshold)) of the span of the kept ones,
    or it is zero.  The bound limits how much each kept slot can multiply the
    coefficients a.  The forward solve L y = q runs along the factorization.
    """
    # each kept slot's row of L ends in the reciprocal of its diagonal entry
    kept, rows, y = [], [], []
    for i in order:
        gram_i, row = gram[i], []
        for j, lj in zip(kept, rows):
            value = gram_i[j]
            for l_im, l_jm in zip(row, lj):
                value -= l_im * l_jm
            row.append(value * lj[-1])
        pivot = gram_i[i]
        for l_im in row:
            pivot -= l_im * l_im
        if pivot > threshold * gram_i[i]:
            inverse = 1.0 / math.sqrt(pivot)
            value = q[i]
            for l_pm, y_m in zip(row, y):
                value -= l_pm * y_m
            y.append(value * inverse)
            row.append(inverse)
            kept.append(i)
            rows.append(row)
    a = [0.0] * len(q)  # L^T a = y
    for p in range(len(kept) - 1, -1, -1):
        value = y[p]
        for m in range(p + 1, len(kept)):
            value -= rows[m][p] * a[kept[m]]
        a[kept[p]] = value * rows[p][-1]
    return a


# a correction within about half a degree, in the A-norm, of the span of the
# kept ones adds nothing to a start's correction
CORRECTION_PIVOT = 1e-4


class CorrectionSpace:
    """The last ``size`` start corrections of consecutive CG solves with one
    operator A, as a Galerkin subspace for the next start, and a recall of
    earlier corrections by position.

    A correction is c = x - x0, a solution minus its start, built from the
    solve's own increments, and A c = r_start - r_end is the difference of
    the residuals of the same recursion, so no product is spent on it.
    ``correct`` gives the Galerkin correction C^T a of a start x0 of
    A x = b, G a = C (b - A x0) for the Gram matrix G = C (AC)^T, by a
    pivoted Cholesky factorization of G (``_galerkin``).  The small algebra
    is done on Python floats: at size 4 a numpy call on a 4 x 4 array costs
    more than the arithmetic.

    The recall serves a sequence that repeats, such as a sweep whose windows
    each begin with the same kind of jump in the forcing.  With
    ``positions`` and ``depth``, the caller sets ``position`` (an int below
    ``positions``, or None) before each solve.  A correction recorded at a
    position is also kept there, over the oldest of the last ``depth`` kept
    there, and ``correct`` spans those and the last ``size`` corrections
    jointly: the recalled ones come first in the factorization, newest
    first, then the recent ones, under the one pivot rule.  The depth x size
    Gram entries between the two sets come from one (size, n) x (n, depth)
    product per solve.  The recall holds 2 ``positions`` ``depth`` fields.
    In wall time a recall and the record that follows it cost about three
    quarters of a CG iteration more than a correction over the recent ones
    alone and its record, at size 4 and depth 2 on both benchmark grids
    (timed in isolation; more inside a sweep).  On the benchmark's line
    searches it saves about 2.7 products a recalled step on the 65 x 65
    grid, which pays, and about 0.35 on the 33 x 33 one, which does not.
    """

    __slots__ = ("position", "_recent", "_recall")

    def __init__(self, n: int, size: int, positions: int = 0, depth: int = 0):
        self.position = None
        self._recent = _Ring(n, size)
        self._recall = [_Ring(n, depth) for _ in range(positions)]

    def correct(self, b: np.ndarray, x0: np.ndarray) -> tuple[np.ndarray, np.ndarray] | None:
        """The Galerkin correction C^T a of the start x0 of A x = b over the
        corrections recalled at ``position``, if any, and the last ``size``
        ones, and its image A C^T a; None when the space is empty.

        The right-hand side C (b - A x0) is formed as C b - (AC) x0, without
        the product, so the solve can take its one product at x0 + C^T a:
        its residual is then the true one, whatever the rounding the stored
        images carry, and a large a cannot pass that rounding on to it.
        """
        recent = self._recent
        if not recent.filled:  # a correction recalled anywhere is recent too
            return None
        q = recent.c.dot(b) - recent.ac.dot(x0)
        recall = None if self.position is None else self._recall[self.position]
        if recall is None or not recall.filled:
            a = np.array(_galerkin(recent.gram, recent.slots(), q.tolist(), CORRECTION_PIVOT))
            return a.dot(recent.c), a.dot(recent.ac)
        depth = len(recall.gram)
        # the joint space numbers the recalled slots i first, then the
        # recent slots j as depth + j
        cross = recent.ac.dot(recall.c.T).tolist()  # A c_j . c_i
        gram = recall.gram + [cross_j + gram_j for cross_j, gram_j in zip(cross, recent.gram)]
        q = np.concatenate((recall.c.dot(b) - recall.ac.dot(x0), q))
        a = _galerkin(gram, recall.slots() + [depth + j for j in recent.slots()], q.tolist(),
                      CORRECTION_PIVOT)
        a_recall, a_recent = np.array(a[:depth]), np.array(a[depth:])
        correction = a_recall.dot(recall.c)
        correction += a_recent.dot(recent.c)
        image = a_recall.dot(recall.ac)
        image += a_recent.dot(recent.ac)
        return correction, image

    def record(self, c: np.ndarray, r_start: np.ndarray, r_end: np.ndarray) -> None:
        """Record a correction c whose image A c is r_start - r_end, also at
        ``position`` when it is set."""
        self._recent.add(c, r_start, r_end)
        if self.position is not None:
            self._recall[self.position].add(c, r_start, r_end)


def cg_solve(
    apply_a,
    b: np.ndarray,
    tol: float,
    counter: MatvecCounter,
    x0: np.ndarray | None = None,
    space: CorrectionSpace | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given as a callable,
    on one field (n,), by a CG loop whose scalars are Python floats.

    The solve starts from ``x0`` (zero without one), unless that guess is
    worse than zero, ||b - A x0|| > ||b||: then it starts from x = 0, r = b,
    as a guess with a large residual would leave CG a floor of about
    eps * ||b - A x0|| that can lie above tol * ||b||.  A residual whose
    squared norm overflows counts as worse.  The product that tested the
    guess is charged all the same.

    With a ``space``, the start is x0 plus the space's Galerkin correction
    (``CorrectionSpace.correct``), formed at no product: the product tests
    that corrected start, the acceptance and convergence tests apply to it,
    and CG starts from its true residual.  When the start is accepted and
    has not converged, the space records the solve's correction x - x0.  A
    solve that starts from x = 0 records nothing.

    The solve stops when the residual that CG updates by its recursion has
    ||r|| <= tol * ||b||.  That r is the true residual b - A x at the start
    and drifts from it by rounding as CG goes, so the true residual of the
    result can end slightly above tol * ||b||: up to 1.0072 tol in sweeps of
    63 unknowns at nu dt / h^2 = 100 and tol = 1e-12, where a solve takes
    about as many products as there are unknowns.  A zero right-hand side
    has the zero solution and costs no product.  Raises ``CGError`` when
    p.Ap is not a positive finite number (A is not positive definite, or
    the iterates are not finite), when ``b`` is not finite, or after n
    iterations for n unknowns.  ``counter`` is charged exactly the products
    made, up to a failure too.

    ``b``, ``x0`` and the arrays ``apply_a`` returns are only read.  With a
    space and an accepted start, the iterate x is the correction to x0: it
    starts from the space's Galerkin correction, and x0 is added once CG has
    converged.  A correction recorded as x - x0 from an iterate that began
    at x0 + C^T a would lose its digits to the subtraction.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    n = len(b)
    bb = float(b.dot(b))
    b_norm = math.sqrt(bb)
    if not math.isfinite(b_norm):
        raise CGError(f"right-hand side is not finite: ||b|| = {b_norm!r}")
    if not b_norm:  # a zero right-hand side has the zero solution
        return np.zeros(n)
    target = tol * b_norm
    start = it = 0
    offset = None  # the start x corrects, with a space
    try:
        if x0 is None:
            x, r, rs = np.zeros(n), b.copy(), bb
        else:
            start = 1
            corrected = None if space is None else space.correct(b, x0)
            guess = x0 if corrected is None else x0 + corrected[0]
            r = b - apply_a(guess)
            # an r.r that overflows is inf, worse than any finite ||b||: no warning
            with np.errstate(over="ignore"):
                rs = float(r.dot(r))
            if math.sqrt(rs) > b_norm:  # a guess worse than zero restarts from x = 0, r = b
                x, r, rs = np.zeros(n), b.copy(), bb
            elif space is None or math.sqrt(rs) <= target:
                x = guess.copy()
            else:  # r is the residual of x0 + C^T a, the start of the correction x
                x, image = corrected or (np.zeros(n), 0.0)
                offset, r_start = x0, r + image

        if math.sqrt(rs) > target:
            p = r.copy()
            scratch = np.empty(n)
            for it in range(1, n + 1):
                ap = apply_a(p)
                p_ap = float(p.dot(ap))
                if not 0.0 < p_ap < math.inf:
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
                raise CGError(f"CG did not reach relative residual {tol:g} in "
                              f"{n} iterations")
    finally:
        counter.add(start + it)
    if offset is not None:
        space.record(x, r_start, r)
        x += offset
    return x


# Lanczos iterations between two tests of the error bound, after the test at
# m = 1: each test forms T_m^-s e1 for every power anew
CHECK = 16


def inverse_powers(apply_a, b, count, tol, counter, mask):
    """A^-s b on the nodes ``mask`` for s = 0..count, for symmetric A >= Id
    given as a callable and one field ``b`` (n,), from one Krylov space of A
    and b (one Lanczos pass).

    Returns the (count+1, len(mask)) array whose row s is A^-s b on
    ``mask``.  Power 0 is ``b`` itself.  Every node as ``mask`` gives the
    whole fields.

    Lanczos runs on A from v1 = b / beta0, beta0 = ||b||, building the
    tridiagonal T_m and the next off-diagonal beta_m.  The power s is
    x_s = beta0 V_m c_s with c_s = T_m^-s e1, and the Lanczos relation
    A V_m = V_m T_m + beta_m v_{m+1} e_m^T gives
    A x_s - x_{s-1} = beta0 beta_m [c_s]_m v_{m+1}.  Since A >= Id,
    ||A^-1|| <= 1, so the error of x_s is at most the error of x_{s-1} plus
    beta0 beta_m |[c_s]_m|, and at most beta0 beta_m sum_{k<=s} |[c_k]_m| in
    all.  At m = 1 and every ``CHECK`` iterations the pass forms c_s for
    every s = 1..count, and it stops at the first check where that bound is
    at most tol * beta0 ||c_s|| = tol * ||x_s|| for every s, when beta = 0
    (an invariant subspace: the result is exact) or when m = n.  For a
    positive definite A with eigenvalues below 1 the bound does not hold,
    and the pass may stop early.  The test reads T_m and beta_m alone, so
    the nodes a caller asks for never change the products or the c_s.
    Each v_i is copied on ``mask`` as it is made, and each power is
    beta0 * sum_i c_s,i v_i on ``mask``, one matrix-vector product of the
    coefficients and the copies.  m Lanczos vectors cost m products; a zero
    ``b`` has zero powers and costs no product.

    Raises ``CGError`` when ``b`` is not finite, when an alpha is not a
    positive finite number or a beta is not finite, or when T_m is not
    positive definite.  ``counter`` is charged exactly the products made,
    up to a failure too.  ``b`` and the arrays ``apply_a`` returns are only
    read.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    powers = np.zeros((count + 1, len(mask)))
    beta0 = math.sqrt(float(b.dot(b)))
    if not math.isfinite(beta0):
        raise CGError(f"right-hand side is not finite: ||b|| = {beta0!r}")
    if beta0:  # a zero b has zero powers
        c, on_mask = _lanczos(apply_a, b / beta0, count, tol, counter, mask)
        c *= beta0
        for s in range(count):
            np.dot(c[s], on_mask, out=powers[s + 1])
    powers[0] = b[mask]
    return powers


def _lanczos(apply_a, v, count, tol, counter, mask):
    """Lanczos from the unit vector ``v``; ``counter`` is charged its
    products.

    Returns (coefficients, rows): the (count, m) array of T_m^-s e1 and the
    (m, len(mask)) array of v_1..v_m on ``mask``.
    """
    n = len(v)
    v_prev, w, scratch = np.zeros(n), np.empty(n), np.empty(n)
    beta = 0.0
    alphas, betas, on_mask = [], [], []
    products = 0
    try:
        for m in range(1, n + 1):
            on_mask.append(v[mask])
            av = apply_a(v)
            products = m
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
                if beta == 0.0 or m == n or _bounded(c, beta, tol):
                    return c, np.array(on_mask)
            # the next Lanczos vector goes where the last one was
            np.divide(w, beta, out=v_prev)
            v, v_prev = v_prev, v
    finally:
        counter.add(products)


def _bounded(c, beta, tol):
    """Whether beta sum_{k<=s} |[c_k]_m| <= tol ||c_s|| for every row c_s of
    ``c``: the bound on the error of every power, relative to it."""
    bound = beta * np.cumsum(np.abs(c[:, -1]))
    return bool(np.all(bound <= tol * np.sqrt(np.vecdot(c, c))))


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
