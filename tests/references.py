"""Independent term-by-term references that the tests compare the package against."""

import numpy as np

from raymoments.fields import poly_dtype
from raymoments.ray import apply_stencil, central_table, householder_frame
from raymoments.symtensor import SymTensor, multi_indices, mult_weights, sym_mult


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


def slice_system_rows(n, m, k, y):
    """Rows and tags of the slice system at y, each row by its own sym_mult chain.

    Row mult(alpha) sigma(zeta-monomial (x) y^(x)l)_alpha: the zeta factors one
    at a time, then y^(x)l at once; moment blocks l = 0..k, then divergence
    blocks p = 1..m-k at l = k + p.
    """
    zeta = householder_frame(y)

    def row(ypow, mono):
        t = SymTensor(n, 0, np.ones(1))
        for j in mono:
            t = sym_mult(t, zeta[:, j], 1)
        return mult_weights(n, m) * sym_mult(t, y, ypow).coeffs

    rows, tags = [], []
    for ell in range(k + 1):
        for mono in multi_indices(n - 1, m - ell):
            rows.append(row(ell, mono))
            tags.append(("moment", ell, mono))
    for p in range(1, m - k + 1):
        for mono in multi_indices(n - 1, m - k - p):
            rows.append(row(k + p, mono))
            tags.append(("divergence", p, mono))
    return np.array(rows), tuple(tags)
