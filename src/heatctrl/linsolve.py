"""Matrix-free Krylov solvers with matrix-vector product accounting.

``cg_solve`` solves A x = b by conjugate gradients, in a loop on one field
whose scalars are Python floats: every step of a state sweep is such a
solve, and on a desk-sized field its cost is numpy calls, not arithmetic.

``inverse_powers`` gives A^-s b for every s = 0..N from one Krylov space of A
and b, by one Lanczos pass: the adjoint sweep, which has no forcing, is
exactly these powers.  It assumes A >= Id, as every step operator
K = Id + dt nu (-Lap) is, and stops the pass on a residual bound that this
makes an error bound (Saad, SIAM J. Numer. Anal. 29(1), 1992, for Krylov
approximations of matrix functions).  It returns the powers only on the
nodes the caller names (the control patch, for the adjoint) and copies each
Lanczos vector only there, so a pass stores m x (patch nodes) floats of its
m Lanczos vectors, not m x n.

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


def cg_solve(
    apply_a,
    b: np.ndarray,
    tol: float,
    counter: MatvecCounter,
    x0: np.ndarray | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given as a callable,
    on one field (n,), by a CG loop whose scalars are Python floats.

    The solve starts from ``x0`` (zero without one), unless that guess is
    worse than zero, ||b - A x0|| > ||b||: then it starts from x = 0, r = b,
    as a guess with a large residual would leave CG a floor of about
    eps * ||b - A x0|| that can lie above tol * ||b||.  A residual whose
    squared norm overflows counts as worse.  The product that tested the
    guess is charged all the same.

    CG updates its residual by a recursion, which is the true residual
    b - A x at the start and drifts from it by rounding as CG goes: on the
    line of 63 unknowns at nu dt / h^2 = 100 and tol = 1e-12, where a solve
    takes about as many products as there are unknowns, a solve that
    stopped on the recursion ended at up to 1.0082 tol.  So when the
    recursion first has ||r|| <= tol * ||b||, the solve tests b - A x, at
    one product, and stops if that meets tol too; otherwise CG goes on
    from the true residual, with n more iterations allowed, and stops on
    its recursion.  A start that meets tol as it is has its true residual
    already and takes no test.  A zero right-hand side has the zero
    solution and costs no product.  Raises ``CGError`` when p.Ap is not a
    positive finite number (A is not positive definite, or the iterates
    are not finite), when ``b`` is not finite, or after n iterations for n
    unknowns.  ``counter`` is charged exactly the products made, up to a
    failure too.  ``b``, ``x0`` and the arrays ``apply_a`` returns are only
    read.
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
    tests = it = 0  # the products that formed b - A x, and the CG iterations
    try:
        if x0 is None:
            x, r, rs = np.zeros(n), b.copy(), bb
        else:
            tests = 1
            r = b - apply_a(x0)
            # an r.r that overflows is inf, worse than any finite ||b||: no warning
            with np.errstate(over="ignore"):
                rs = float(r.dot(r))
            if math.sqrt(rs) > b_norm:  # a guess worse than zero restarts from x = 0, r = b
                x, r, rs = np.zeros(n), b.copy(), bb
            else:
                x = x0.copy()

        if math.sqrt(rs) > target:
            p = r.copy()
            scratch = np.empty(n)
            last, tested = n, False  # the last iteration allowed; whether b - A x was tested
            while True:
                if it == last:
                    raise CGError(f"CG did not reach relative residual {tol:g} in "
                                  f"{n} iterations")
                it += 1
                ap = apply_a(p)
                p_ap = float(p.dot(ap))
                if not 0.0 < p_ap < math.inf:
                    raise CGError(f"CG breakdown: p.Ap = {p_ap!r}")
                alpha = rs / p_ap
                x += np.multiply(alpha, p, out=scratch)
                r -= np.multiply(alpha, ap, out=scratch)
                rs_new = float(r.dot(r))
                if math.sqrt(rs_new) <= target:
                    if tested:
                        break
                    tests, tested = tests + 1, True
                    np.subtract(b, apply_a(x), out=r)
                    rs_new = float(r.dot(r))
                    if math.sqrt(rs_new) <= target:
                        break
                    np.copyto(p, r)  # CG from the true residual
                    last = it + n
                else:
                    p *= rs_new / rs
                    p += r
                rs = rs_new
    finally:
        counter.add(tests + it)
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
