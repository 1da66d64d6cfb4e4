"""Matrix-free conjugate gradient with matrix-vector product accounting."""

from __future__ import annotations

import math
from contextlib import contextmanager

import numpy as np


class MatvecCounter:
    """Counts discrete-Laplacian applications performed inside linear solves.

    ``count`` is the total.  A counter made with ``columns=b`` also keeps
    ``per_column``, the products of each column of a batch of b independent
    solves (the sub-problems of step 2, say).  Batches run in the calling
    thread, so no locking is needed.
    """

    __slots__ = ("count", "per_column")

    def __init__(self, count: int = 0, columns: int | None = None):
        self.count = int(count)
        self.per_column = None if columns is None else np.zeros(columns, dtype=np.int64)

    def add(self, n=1, columns=None) -> None:
        """Charge n products: an int, or one count per column of a batch.

        ``columns`` (an index array or slice) names the columns of this
        counter that the counts in n belong to; by default, all of them.
        """
        if np.ndim(n) == 0:
            self.count += n
            return
        self.count += int(n.sum())
        if self.per_column is not None:
            if columns is None:
                self.per_column += n
            else:
                self.per_column[columns] += n

    @contextmanager
    def columns(self, index: np.ndarray):
        """A counter for the solves of columns ``index`` of this counter's batch.

        Without per-column counts, or when ``index`` is the whole batch, that
        is this counter; otherwise a fresh one whose counts are charged to
        those columns here when the block ends.
        """
        if self.per_column is None or len(index) == len(self.per_column):
            yield self
            return
        part = MatvecCounter(columns=len(index))
        try:
            yield part
        finally:
            self.add(part.per_column, columns=index)

    def __repr__(self) -> str:
        return f"MatvecCounter({self.count})"


class CGError(RuntimeError):
    """Conjugate gradient broke down or did not converge within the iteration cap.

    ``column`` is the failing column of a batched solve, None for one field.
    """

    def __init__(self, message: str, column: int | None = None):
        super().__init__(message)
        self.column = column


def _restricted(apply_a, index: np.ndarray):
    """The operator of the columns ``index`` of a batch."""
    columns = getattr(apply_a, "columns", None)
    return apply_a if columns is None else columns(index)


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
    rows row by row; an operator that differs by column provides
    ``columns(index)``, the operator of those columns of the batch.  For a
    1D ``b`` it only ever sees 1D fields.

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
    op = apply_a if active.size == len(rhs) else _restricted(apply_a, active)
    start = 0 if x0 is None else 1
    if x0 is None:
        xa = np.zeros((active.size, rhs.shape[1]))
        r = rhs[active]
    else:
        xa = x0[active]
        counts[active] = 1
        r = rhs[active] - op(xa[0] if one else xa)
    # per-column scalars as Python floats: tests on them cost less than array calls
    targets = [tol * norm for norm in b_norm[active].tolist()]
    done = [math.sqrt(rr) <= t for rr, t in zip(np.vecdot(r, r).tolist(), targets)]

    p = r.copy()
    operand = p[0] if one else p
    scratch = np.empty_like(r)
    rs = np.vecdot(r, r, keepdims=True)
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
            op = _restricted(apply_a, active)
        if it == max_iter:
            counts[active] = start + it
            raise CGError(
                f"CG did not reach relative residual {tol:g} in {max_iter} iterations",
                int(active[0]),
            )
        it += 1
        ap = op(operand)
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
