"""Matrix-free conjugate gradient with matrix-vector product accounting."""

from __future__ import annotations

import math

import numpy as np


class MatvecCounter:
    """Counts discrete-Laplacian applications performed inside linear solves.

    Workers running concurrently each own a private counter, so no locking is
    needed.
    """

    __slots__ = ("count",)

    def __init__(self, count: int = 0):
        self.count = int(count)

    def add(self, n: int = 1) -> None:
        self.count += n

    def __repr__(self) -> str:
        return f"MatvecCounter({self.count})"


class CGError(RuntimeError):
    """Conjugate gradient broke down or did not converge within the iteration cap."""


def cg_solve(
    apply_a,
    b: np.ndarray,
    tol: float,
    counter: MatvecCounter,
    x0: np.ndarray | None = None,
    max_iter: int | None = None,
) -> np.ndarray:
    """Solve A x = b for symmetric positive definite A given as a callable.

    Converges when ||b - A x|| <= tol * ||b||.  Every application of
    ``apply_a`` bumps ``counter`` by one.  Raises ``CGError`` when p.Ap is not
    a positive finite number (A is not positive definite, or the iterates
    are not finite), when ``b`` is not finite, or when the iteration cap is
    reached.

    ``b``, ``x0`` and the arrays ``apply_a`` returns are only read; the loop
    updates its own x, r and p in place.
    """
    if tol <= 0:
        raise ValueError("tol must be positive")
    b_norm = np.linalg.norm(b)
    if not math.isfinite(b_norm):
        raise CGError(f"right-hand side is not finite: ||b|| = {b_norm!r}")
    if b_norm == 0.0:
        return np.zeros_like(b)
    if max_iter is None:
        max_iter = b.size

    if x0 is None:
        x = np.zeros_like(b)
        r = b.copy()
    else:
        x = x0.copy()
        counter.add()
        r = b - apply_a(x)

    target = tol * b_norm
    if np.linalg.norm(r) <= target:
        return x

    p = r.copy()
    scratch = np.empty_like(r)
    rs = float(r @ r)
    for _ in range(max_iter):
        counter.add()
        ap = apply_a(p)
        p_ap = float(p @ ap)
        if not 0.0 < p_ap < math.inf:
            raise CGError(f"CG breakdown: p.Ap = {p_ap!r}")
        alpha = rs / p_ap
        x += np.multiply(alpha, p, out=scratch)
        r -= np.multiply(alpha, ap, out=scratch)
        rs_new = float(r @ r)
        if np.sqrt(rs_new) <= target:
            return x
        p *= rs_new / rs
        p += r
        rs = rs_new
    raise CGError(
        f"CG did not reach relative residual {tol:g} in {max_iter} iterations"
    )
