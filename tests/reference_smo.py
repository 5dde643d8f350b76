"""SMO as it was before its loop was rewritten, kept verbatim as the
reference that tests/test_learn.py compares srlcomb.learn._smo against:
on every problem both must take the same working sets and return the same
alpha, b, error cache, step count and KKT violation, bit for bit.  It shares
no code with srlcomb.
"""

from __future__ import annotations

from typing import Optional

import numpy as np


def _smo(row, diag: np.ndarray, y: np.ndarray, c: float, tol: float,
         max_steps: Optional[int] = None) -> tuple[np.ndarray, float, np.ndarray, int, float]:
    """Sequential minimal optimization of the soft-margin dual, one pair per step.

    ``row(i)`` returns kernel row i and ``diag`` is the kernel diagonal.
    Working-set rule of LIBSVM (Fan, Chen & Lin, JMLR 2005): with
    f = K @ (alpha*y) - y, i is the maximal violator (the argmax of -f over
    I_up) and j the violator in I_low with the largest second-order gain
    (f_j - f_i)^2 / eta_ij; stop once max(-f over I_up) - min(-f over I_low)
    < tol.  f is cached (Platt 1998; Keerthi et al. 2001): f starts at -y,
    each step adds two memoized kernel rows, so only the rows of points that
    enter a working set are ever computed.  b is the mean of -f over the free
    points, or the midpoint of the two set bounds if none is free.

    Returns (alpha, b, E = f + b, steps, violation), where violation is the
    largest KKT violation left; it exceeds `tol` only when the loop stopped
    at `max_steps` (default 100 n).
    """
    n = len(y)
    alpha = np.zeros(n)
    f = -y.astype(float)
    positive = y > 0
    cap = 100 * n if max_steps is None else max_steps
    above, below = alpha > 1e-12, alpha < c - 1e-12
    up = np.where(positive, below, above)
    low = np.where(positive, above, below)
    for steps in range(cap + 1):
        g = -f
        i = int(np.argmax(np.where(up, g, -np.inf)))
        top, bottom = float(g[i]), float(np.min(g[low]))
        if top - bottom < tol or steps == cap:
            break
        k_i = row(i)
        eta = np.maximum(diag[i] + diag - 2.0 * k_i, 1e-12)
        j = int(np.argmax(np.where(low & (g < top), (f - f[i]) ** 2 / eta, -1.0)))
        a_i, a_j = alpha[i], alpha[j]
        s = y[i] * y[j]
        if s < 0:
            lo, hi = max(0.0, a_j - a_i), min(c, c + a_j - a_i)
        else:
            lo, hi = max(0.0, a_i + a_j - c), min(c, a_i + a_j)
        new_j = min(max(a_j + y[j] * (f[i] - f[j]) / eta[j], lo), hi)
        new_i = a_i + s * (a_j - new_j)
        alpha[i], alpha[j] = new_i, new_j
        for t in (i, j):   # only alpha_i and alpha_j moved, so only they change sets
            above[t], below[t] = alpha[t] > 1e-12, alpha[t] < c - 1e-12
            up[t], low[t] = (below[t], above[t]) if positive[t] else (above[t], below[t])
        f += y[i] * (new_i - a_i) * k_i + y[j] * (new_j - a_j) * row(j)
    free = above & below
    b = float(np.mean(-f[free])) if free.any() else (top + bottom) / 2.0
    err = f + b
    r = y * err
    violation = np.maximum(np.where(below, -r, 0.0), np.where(above, r, 0.0))
    return alpha, b, err, steps, float(violation.max())
