"""Independent term-by-term references that the tests compare the package against."""

import numpy as np

from raymoments.fields import poly_dtype
from raymoments.ray import apply_stencil, central_table


def poly_eval(p, pts):
    """The dict polynomial p at points (..., n), one monomial term at a time."""
    pts = np.asarray(pts)
    out = np.zeros(pts.shape[:-1], dtype=poly_dtype(p))
    for e, c in p.items():
        term = np.ones(pts.shape[:-1])
        for ax, k in enumerate(e):
            if k:
                term = term * pts[..., ax] ** k
        out = out + c * term
    return out


def mixed_central(fun, x, xi, x_axes, xi_axes, h):
    """Nested central differences d^r fun / dx^{x_axes} dxi^{xi_axes} at (x, xi)."""
    axes = (*x_axes, *(len(x) + a for a in xi_axes))
    return apply_stencil(fun, central_table(axes, 2 * len(x)), x, xi, h) / (2 * h) ** len(axes)
