"""Matrix-free Krylov solvers with matrix-vector product accounting.

``cg_solve`` solves A x = b by conjugate gradients.  One right-hand side (a
1D field or a batch of one) runs a one-column loop on 1D vectors whose
scalars are Python floats: every step of the state and line-search sweeps is
such a solve, and on a desk-sized field its cost is numpy calls, not
arithmetic.  A batch of k >= 2 runs the batched loop, column by column.  The
two loops perform the same IEEE operations in the same order, so a column
gets the same bits either way.

``inverse_powers`` gives A^-s b for every s = 0..N from one Krylov space of A
and b, by a two-pass Lanczos method: the adjoint sweep, which has no forcing,
is exactly these powers.  Both solvers charge every product to a
``MatvecCounter``, column by column.
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


def cg_solve(
    apply_a,
    b: np.ndarray,
    tol: float,
    counter: MatvecCounter,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given as a callable.

    ``b`` is one right-hand side (n,) or a batch (k, n) of independent ones.
    Every column runs its own CG: its own alpha, beta, convergence test and
    product count, with per-column dot products that equal the 1D ``r @ r``
    bit for bit, so a column of a batch gets exactly the x of its own 1D
    solve.  ``apply_a`` maps a block of rows row by row, the same operator
    for every row; for a 1D ``b`` it only ever sees 1D fields.

    One right-hand side, a 1D ``b`` or a batch of one, runs a one-column
    loop on 1D vectors with its scalars as Python floats: the serial state
    and line-search sweeps solve every step this way.  A batch of
    k >= 2 runs the batched loop, where a converged column leaves the batch.

    A column starts from its row of ``x0`` (zero without one), unless that
    guess is worse than zero, ||b - A x0|| > ||b||: then it starts from
    x = 0, r = b, as a guess with a large residual would leave CG a floor of
    about eps * ||b - A x0|| that can lie above tol * ||b||.  A residual
    whose squared norm overflows counts as worse.  The product that tested
    the guess is charged all the same.

    A column converges when ||b - A x|| <= tol * ||b||; a zero right-hand
    side has the zero solution and costs no product.  ``counter`` is
    charged every product, per column.  Raises ``CGError`` (with the column
    of a batch) when p.Ap is not a positive finite number (A is not positive
    definite, or the iterates are not finite), when ``b`` is not finite, or
    when the iteration cap is reached.

    ``b``, ``x0`` and the arrays ``apply_a`` returns are only read.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    rhs = b.reshape(-1, b.shape[-1])
    counts = np.zeros(len(rhs), dtype=np.int64)
    if max_iter is None:
        max_iter = rhs.shape[1]
    try:
        if len(rhs) == 1:
            x = _cg_column(apply_a, b, tol, counts, x0, max_iter)
        else:
            x = _cg(apply_a, rhs, tol, counts,
                    None if x0 is None else x0.reshape(rhs.shape), max_iter)
    except CGError as exc:
        if b.ndim == 1:
            exc.column = None
        raise
    finally:
        counter.add(counts)
    return x.reshape(b.shape)


def _cg_column(apply_a, b, tol, counts, x0, max_iter):
    """CG on one right-hand side; ``counts[0]`` receives its products.

    The loop runs on 1D vectors with r.r, p.Ap, alpha and beta as Python
    floats, each the same IEEE operation as in the batched loop.  The
    operator gets (n,) arrays, or (1, n) for a batch of one.
    """
    n = b.shape[-1]
    batch = b.ndim != 1
    b = b.reshape(n)
    bb = float(b @ b)
    b_norm = math.sqrt(bb)
    if not math.isfinite(b_norm):
        raise CGError(f"right-hand side is not finite: ||b|| = {b_norm!r}", 0)
    if not b_norm:  # a zero right-hand side has the zero solution
        return np.zeros(n)
    start = 0 if x0 is None else 1
    if x0 is None:
        x, r, rs = np.zeros(n), b.copy(), bb
    else:
        counts[0] = 1
        x = x0.reshape(n).copy()
        ax = apply_a(x.reshape(1, n) if batch else x)
        r = b - (ax[0] if batch else ax)
        # an r.r that overflows is inf, worse than any finite ||b||: no warning
        with np.errstate(over="ignore"):
            rs = float(r @ r)
        if math.sqrt(rs) > b_norm:  # a guess worse than zero restarts from x = 0, r = b
            x, r, rs = np.zeros(n), b.copy(), bb
    target = tol * b_norm
    if math.sqrt(rs) <= target:
        counts[0] = start
        return x

    p = r.copy()
    operand = p.reshape(1, n) if batch else p
    scratch = np.empty(n)
    for it in range(1, max_iter + 1):
        ap = apply_a(operand)
        if batch:
            ap = ap[0]
        p_ap = float(p @ ap)
        if not 0.0 < p_ap < math.inf:
            counts[0] = start + it
            raise CGError(f"CG breakdown: p.Ap = {p_ap!r}", 0)
        alpha = rs / p_ap
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=scratch)
        rs_new = float(r @ r)
        if math.sqrt(rs_new) <= target:
            counts[0] = start + it
            return x
        p *= rs_new / rs
        p += r
        rs = rs_new
    counts[0] = start + max_iter
    raise CGError(f"CG did not reach relative residual {tol:g} in {max_iter} iterations", 0)


def _cg(apply_a, rhs, tol, counts, x0, max_iter):
    """Column-wise CG on a (k, n) batch; ``counts`` receives each column's products."""
    b_norm = np.sqrt(np.vecdot(rhs, rhs))
    if not np.isfinite(b_norm).all():
        col = int(np.flatnonzero(~np.isfinite(b_norm))[0])
        raise CGError(f"right-hand side is not finite: ||b|| = {float(b_norm[col])!r}", col)
    x = np.zeros_like(rhs)
    active = np.flatnonzero(b_norm)  # a zero right-hand side has the zero solution
    if not active.size:
        return x
    start = 0 if x0 is None else 1
    if x0 is None:
        xa = np.zeros((active.size, rhs.shape[1]))
        r = rhs[active]
    else:
        xa = x0[active]
        counts[active] = 1
        r = rhs[active] - apply_a(xa)
    # an r.r that overflows is inf, worse than any finite ||b||: no warning
    with np.errstate(over="ignore"):
        rs = np.vecdot(r, r, keepdims=True)
    # a guess worse than zero restarts its column from x = 0, r = b (without
    # a guess r = b, so no column is worse)
    worse = np.sqrt(rs[:, 0]) > b_norm[active]
    if worse.any():
        xa[worse] = 0.0
        r[worse] = rhs[active[worse]]
        rs[worse] = np.vecdot(r[worse], r[worse], keepdims=True)
    # per-column scalars as Python floats: tests on them cost less than array calls
    targets = [tol * norm for norm in b_norm[active].tolist()]
    done = [math.sqrt(rr) <= t for rr, t in zip(rs.ravel().tolist(), targets)]

    p = r.copy()
    scratch = np.empty_like(r)
    it = 0
    while True:
        if any(done):
            done = np.array(done)
            x[active[done]] = xa[done]
            counts[active[done]] = start + it
            keep = ~done
            if not keep.any():
                return x
            active, xa, r, p, rs = active[keep], xa[keep], r[keep], p[keep], rs[keep]
            targets = [t for t, k in zip(targets, keep) if k]
            scratch = scratch[: active.size]
        if it == max_iter:
            counts[active] = start + it
            raise CGError(
                f"CG did not reach relative residual {tol:g} in {max_iter} iterations",
                int(active[0]),
            )
        it += 1
        ap = apply_a(p)
        p_ap = np.vecdot(p, ap, keepdims=True)
        for col, pap in enumerate(p_ap.ravel().tolist()):
            if not 0.0 < pap < math.inf:
                counts[active] = start + it
                raise CGError(f"CG breakdown: p.Ap = {pap!r}", int(active[col]))
        alpha = rs / p_ap
        xa += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=scratch)
        rs_new = np.vecdot(r, r, keepdims=True)
        done = [math.sqrt(rr) <= t for rr, t in zip(rs_new.ravel().tolist(), targets)]
        p *= rs_new / rs
        p += r
        rs = rs_new


# Lanczos iterations between two tests of the coefficients T^-s e1
CHECK = 16
# Lanczos vectors the second pass combines at a time: one (BLOCK, n) block
BLOCK = 16


def inverse_powers(apply_a, b, count, tol, counter, rows, mask):
    """A^-s b for s = 0..count, for symmetric positive definite A given as a
    callable, from one Krylov space of A and b (two-pass Lanczos).

    ``b`` is one field (n,) or a batch (k, n) of independent ones.  Returns
    the pair (fields, patches): ``fields[r]`` is A^-s b for s = ``rows[r]``,
    shaped like ``b``, and ``patches[s]`` is A^-s b on the nodes ``mask``
    for every s, (count+1,) + batch + (len(mask),).  Power 0 is ``b`` itself.
    The patch nodes of a stored field are its patch row, so the two always
    agree bit for bit.

    The first pass runs Lanczos on A from v1 = b / beta0, beta0 = ||b||,
    keeping only the tridiagonal T_m.  At m = 1 and every ``CHECK``
    iterations it forms c_s = T_m^-s e1 for every s = 1..count, and it stops
    when every c_s has moved by at most tol * ||c_s|| since the last check
    (so at m = CHECK at the earliest), when beta = 0 (an invariant subspace:
    the result is exact) or when m = n.  It tests every power whatever
    ``rows`` asks for, so what a caller stores never changes the products or
    the bits.  The second pass regenerates the same v_i with the same
    operations and the stored alpha and beta, and adds beta0 * sum_i c_s,i
    v_i into the results ``BLOCK`` vectors at a time, by matrix-vector
    products.  A column with m Lanczos vectors costs 2m - 1 products, all
    charged to ``counter``.

    Every column of a batch runs its own Lanczos (its own alpha, beta,
    stopping test, coefficients and count), and a finished column leaves the
    batch, so a column gets the bits of its own solve.  A zero column has
    zero powers and costs no product.  Raises ``CGError`` (with the column
    of a batch) when ``b`` is not finite, when an alpha is not a positive
    finite number or a beta is not finite, or when T_m is not positive
    definite.  ``b`` and the arrays ``apply_a`` returns are only read.
    """
    if not tol > 0:  # written so that NaN fails too
        raise ValueError("tol must be positive")
    rhs = b.reshape(-1, b.shape[-1])
    counts = np.zeros(len(rhs), dtype=np.int64)
    fields = np.zeros((len(rows),) + rhs.shape)
    patches = np.zeros((count + 1, len(rhs), len(mask)))
    try:
        beta0 = np.sqrt(np.vecdot(rhs, rhs))
        if not np.isfinite(beta0).all():
            col = int(np.flatnonzero(~np.isfinite(beta0))[0])
            raise CGError(f"right-hand side is not finite: ||b|| = {float(beta0[col])!r}", col)
        cols = np.flatnonzero(beta0)
        if cols.size:
            runs = _lanczos(apply_a, rhs[cols] / beta0[cols, None], cols, count, tol, counts)
            _combine(apply_a, rhs, beta0, cols, runs, rows, mask, counts, fields, patches)
    except CGError as exc:
        if b.ndim == 1:
            exc.column = None
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


def _lanczos(apply_a, v, cols, count, tol, counts):
    """The first pass, on the columns ``cols`` with starting vectors ``v``.

    Returns each column's (alphas, betas, coefficients): the diagonal and
    off-diagonal of its T_m and the (count, m) array of T_m^-s e1.
    """
    n = v.shape[1]
    v_prev, w, scratch = np.zeros_like(v), np.empty_like(v), np.empty_like(v)
    beta = np.zeros((len(cols), 1))
    alphas, betas = [[] for _ in cols], [[] for _ in cols]
    checked, runs = [None] * len(cols), [None] * len(cols)
    active = np.arange(len(cols))  # positions in cols
    m = 0
    while active.size:
        m += 1
        av = apply_a(v)
        counts[cols[active]] += 1
        np.subtract(av, np.multiply(beta, v_prev, out=w), out=w)
        alpha = np.vecdot(v, w, keepdims=True)
        w -= np.multiply(alpha, v, out=scratch)
        beta = np.sqrt(np.vecdot(w, w, keepdims=True))
        stop = []
        for pos, (a, bt) in enumerate(zip(alpha.ravel().tolist(), beta.ravel().tolist())):
            col = active[pos]
            if not (0.0 < a < math.inf and math.isfinite(bt)):
                raise CGError(f"Lanczos breakdown: alpha = {a!r}, beta = {bt!r}", int(cols[col]))
            alphas[col].append(a)
            betas[col].append(bt)
            if bt == 0.0 or m == n or m % CHECK == 0 or m == 1:
                c = _tridiagonal_powers(alphas[col], betas[col], count, int(cols[col]))
                last, checked[col] = checked[col], c
                if bt == 0.0 or m == n or _settled(c, last, tol):
                    runs[col] = (alphas[col], betas[col], c)
                    stop.append(pos)
        if stop:
            keep = np.ones(active.size, dtype=bool)
            keep[stop] = False
            active, v, v_prev, beta, w = (arr[keep] for arr in (active, v, v_prev, beta, w))
            scratch = scratch[: active.size]
        # the next Lanczos vector goes where the last one was
        np.divide(w, beta, out=v_prev)
        v, v_prev = v_prev, v
    return runs


def _settled(c, last, tol):
    """Whether every row of ``c`` is within tol of its norm from ``last``,
    the coefficients of the previous check (None at m = 1)."""
    if last is None:
        return False
    change = c.copy()
    change[:, : last.shape[1]] -= last
    return bool(np.all(np.sqrt(np.vecdot(change, change)) <= tol * np.sqrt(np.vecdot(c, c))))


def _tridiagonal_powers(diag, off, count, column):
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
        raise CGError("Lanczos breakdown: T is not positive definite", column)
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


def _combine(apply_a, rhs, beta0, cols, runs, rows, mask, counts, fields, patches):
    """The second pass: regenerate each column's Lanczos vectors and add
    beta0 * sum_i c_s,i v_i into ``fields`` (powers ``rows``) and ``patches``
    (every power), one block of ``BLOCK`` vectors at a time."""
    sizes = [len(alphas) for alphas, _, _ in runs]
    v = rhs[cols] / beta0[cols, None]
    v_prev, w, scratch = np.zeros_like(v), np.empty_like(v), np.empty_like(v)
    block = np.empty((len(cols), BLOCK, rhs.shape[1]))
    coefficients = [c for _, _, c in runs]
    for col, c in zip(cols.tolist(), coefficients):
        c *= beta0[col]
    patch_rows = np.empty((patches.shape[0] - 1, len(mask)))
    active = np.arange(len(cols))
    beta = np.zeros((len(cols), 1))
    i = 0  # v holds v_{i+1}
    while True:
        block[active, i % BLOCK] = v
        ending = [pos for pos in active.tolist() if sizes[pos] == i + 1]
        flush = active.tolist() if (i + 1) % BLOCK == 0 else ending
        start, length = i - i % BLOCK, i % BLOCK + 1
        for pos in flush:
            col, vectors = int(cols[pos]), block[pos, :length]
            c = coefficients[pos][:, start : start + length]
            for field, s in zip(fields, rows):
                if s:
                    field[col] += np.dot(c[s - 1], vectors)
            on_patch = vectors[:, mask]
            for s in range(len(patch_rows)):
                np.dot(c[s], on_patch, out=patch_rows[s])
            patches[1:, col] += patch_rows
        if ending:
            keep = np.array([sizes[pos] != i + 1 for pos in active.tolist()])
            active, v, v_prev, beta = active[keep], v[keep], v_prev[keep], beta[keep]
            w, scratch = w[: active.size], scratch[: active.size]
            if not active.size:
                return
        # v_{i+2} from v_{i+1} and v_i with the first pass's operations and scalars
        av = apply_a(v)
        counts[cols[active]] += 1
        np.subtract(av, np.multiply(beta, v_prev, out=w), out=w)
        alpha = np.array([[runs[pos][0][i]] for pos in active.tolist()])
        w -= np.multiply(alpha, v, out=scratch)
        beta = np.array([[runs[pos][1][i]] for pos in active.tolist()])
        np.divide(w, beta, out=v_prev)
        v, v_prev = v_prev, v
        i += 1
