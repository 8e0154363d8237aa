"""Green's function of the half-line problem and its weighted suprema.

The kernel converts ``x'' = g(t)`` with ``x(0) = A``, ``x'(+inf) = B`` into
an integral equation.  It is stateless and safe for concurrent use.
"""

import numpy as np

__all__ = ["green", "kernel_weight_sup", "boundary_weight_sup"]


def green(t, s):
    """Evaluate the kernel G(t, s) = -t for t <= s, -s for s <= t.

    Accepts scalars or broadcastable arrays.  Both arguments must be >= 0;
    negative or NaN inputs raise ``ValueError``.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if not (np.all(t >= 0.0) and np.all(s >= 0.0)):
        raise ValueError("green(t, s) requires t >= 0 and s >= 0")
    out = np.where(t <= s, -t, -s)
    if out.ndim == 0:
        return float(out)
    return out


def kernel_weight_sup(s):
    """sup over t >= 0 of |G(t, s)| / (1 + t), in closed form s / (1 + s).

    The supremum is attained at t = s: below s the ratio t/(1+t) increases,
    above s the ratio s/(1+t) decreases.  The result lies in [0, 1).
    """
    s = np.asarray(s, dtype=float)
    if not np.all(s >= 0.0):
        raise ValueError("kernel_weight_sup requires s >= 0")
    out = s / (1.0 + s)
    if out.ndim == 0:
        return float(out)
    return out


def boundary_weight_sup(a, b):
    """sup over t >= 0 of (|a| + |b| t) / (1 + t) = max(|a|, |b|).

    The ratio is monotone in t (sign of |b| - |a|), so the supremum sits at
    t = 0 or at the t -> inf limit.
    """
    return max(abs(float(a)), abs(float(b)))
