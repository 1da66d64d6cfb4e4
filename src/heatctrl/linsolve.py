"""Matrix-free conjugate gradient with matrix-vector product accounting."""

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

    def __init__(self, count: int = 0, columns: int | None = None):
        self.count = self.parallel = int(count)
        self.per_column = None if columns is None else np.zeros(columns, dtype=np.int64)

    def add(self, n=1) -> None:
        """Charge n products to both tallies: an int, or one count per column
        of this counter's batch."""
        if np.ndim(n) == 0:
            self.count += n
            self.parallel += n
            return
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
    """Conjugate gradient broke down or did not converge within the iteration cap.

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
    solve.  A converged column leaves the batch.  ``apply_a`` maps a block of
    rows row by row, the same operator for every row; for a 1D ``b`` it only
    ever sees 1D fields.

    A column starts from its row of ``x0`` (zero without one), unless that
    guess is worse than zero, ||b - A x0|| > ||b||: then it starts from
    x = 0, r = b, as a guess with a large residual would leave CG a floor of
    about eps * ||b - A x0|| that can lie above tol * ||b||.  A residual
    whose squared norm overflows counts as worse.  The product that tested
    the guess is charged all the same.

    A column converges when ||b - A x|| <= tol * ||b||.  ``counter`` is
    charged every product, per column.  Raises ``CGError`` (with the column
    of a batch) when p.Ap is not a positive finite number (A is not positive
    definite, or the iterates are not finite), when ``b`` is not finite, or
    when the iteration cap is reached.

    ``b``, ``x0`` and the arrays ``apply_a`` returns are only read.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    rhs = b.reshape(-1, b.shape[-1])
    counts = np.zeros(len(rhs), dtype=np.int64)
    try:
        x = _cg(apply_a, rhs, tol, counts,
                None if x0 is None else x0.reshape(rhs.shape),
                rhs.shape[1] if max_iter is None else max_iter, b.ndim == 1)
    except CGError as exc:
        if b.ndim == 1:
            exc.column = None
        raise
    finally:
        counter.add(counts)
    return x.reshape(b.shape)


def _cg(apply_a, rhs, tol, counts, x0, max_iter, one):
    """Column-wise CG on a (k, n) batch; ``counts`` receives each column's products.

    With ``one`` (a batch of one 1D field), the operator gets 1D views.
    """
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
        r = rhs[active] - apply_a(xa[0] if one else xa)
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
    operand = p[0] if one else p
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
            operand = p
        if it == max_iter:
            counts[active] = start + it
            raise CGError(
                f"CG did not reach relative residual {tol:g} in {max_iter} iterations",
                int(active[0]),
            )
        it += 1
        ap = apply_a(operand)
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
