"""k-solenoidal / k-potential decomposition of symmetric tensor fields.

At a single nonzero frequency y, f = g + i_{y^(k)} v with j_{y^(k)} g = 0
(:func:`freq_project`); the same g also has an explicit projector product
form (:func:`projector_formula`), and the two constructions agreeing is a
uniqueness statement worth testing.  Globally, :func:`decompose_k` splits
the real-FFT half spectrum of a grid field into the k-solenoidal part g and
the k-potential generator v with f = g + d^k v.  Both peel f from the top
down (:func:`_peel`), with no solve: f = sum_j i_y^j h_j uniquely, with h_j
of rank m-j and j_y h_j = 0, and j_y^j i_y^j h_j = |y|^{2j} h_j / C(m, j)
(Sharafutdinov, *Integral Geometry of Tensor Fields*, 1994, ch. 2).  On the
grid each step is a symbol of :meth:`GridSpec.apply_symbol`, so the grid
decomposition is exact for the grid operators: at every bin f_hat = g_hat
+ i^k A(y) v_hat and i^k W^{-1} A(y)^T W g_hat = 0, A(y) = i_{y^(k)}.
:func:`verify_decomposition` measures exactly these two residuals on the
half spectra of f, g and v, by discrete Parseval, without an inverse
transform.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

import numpy as np

from .fields import GridField, d_symbol, delta_symbol
from .symtensor import SymTensor, sym_dim, sym_mult_operators, symmetrize

__all__ = [
    "FreqProjection",
    "freq_project",
    "projector_formula",
    "decompose_k",
    "verify_decomposition",
]

_SINGULAR_FREQ = 1e-14


@dataclass(frozen=True)
class FreqProjection:
    """Pointwise frequency splitting f_hat = g_hat + i_{y^(k)} v_hat."""

    y: np.ndarray
    k: int
    g_hat: SymTensor
    v_hat: SymTensor


def freq_project(f_hat: SymTensor, y: np.ndarray, k: int) -> FreqProjection:
    """Split f_hat at frequency y into j_{y^(k)} g_hat = 0 and i_{y^(k)} v_hat.

    The top-down peel of :func:`_peel` with j_y and i_y at this one y, for
    any 0 <= k <= m; each step's contraction and multiplication share one
    :func:`sym_mult_operators` pair.
    """
    y = np.asarray(y, dtype=float)
    ynorm = float(np.linalg.norm(y))
    if ynorm < _SINGULAR_FREQ:
        raise ValueError("frequency too close to zero for the splitting")
    n, m = f_hat.n, f_hat.m
    if k > m:
        raise ValueError("splitting order exceeds rank")
    ops = functools.cache(lambda lo, p: sym_mult_operators(n, lo, p, y))   # one A(y) each
    g, v = _peel(f_hat.coeffs * 1.0, m, k, ynorm ** -2,       # a float copy to peel
                 lambda r, j: ops(m - j, j)[1](r), lambda h, lo, p: ops(lo, p)[0](h))
    return FreqProjection(y, k, SymTensor(n, m, g), SymTensor(n, m - k, v))


def _peel(r: np.ndarray, m: int, k: int, inv_lap, delta, d):
    """Peel rank-m packed r into r = g + d^k v with delta^k g = 0, in place.

    For j = m down to k, h_j = C(m, j) lap^{-j} delta^j r, then r -= d^j h_j;
    r ends as g, and v = sum_j d^{j-k} h_j is summed by Horner's rule.
    delta(r, j) applies delta^j to rank m and d(h, lo, p) d^p to rank lo.
    inv_lap is the inverse symbol of the scalar Laplacian delta d: |y|^-2
    for j_y and i_y, -|y|^-2 on the grid, and zero where the symbol
    vanishes, so that those frequencies stay in g.
    """
    v = None
    for j in range(m, k - 1, -1):
        h = delta(r, j) * (math.comb(m, j) * inv_lap ** j)
        r -= d(h, m - j, j)
        if v is not None:
            h += d(v, m - j - 1, 1)
        v = h
    return r, v


def projector_formula(f_hat: SymTensor, y: np.ndarray, k: int) -> SymTensor:
    """The annihilated part g via an explicit frame-adapted construction.

    Rotate into an orthonormal frame whose last axis is y/|y|; a symmetric
    tensor is annihilated by the k-fold contraction with y exactly when every
    component carrying k or more last-axis indices vanishes, so zeroing those
    components and rotating back is an orthogonal projection onto that kernel.
    The complement consists of k-fold symmetric multiples of y, which makes
    this the same g as in :func:`freq_project` by uniqueness of the
    splitting.  For k = m it reduces to removing the rank-one piece
    sigma(y^(x)m) <f, y^m> / |y|^{2m}; for k = 1 it is the product of
    tangential projectors delta - y y / |y|^2 over all slots.
    """
    y = np.asarray(y, dtype=float)
    ynorm = float(np.linalg.norm(y))
    if ynorm == 0.0:
        raise ValueError("projector undefined at y = 0")
    n, m = f_hat.n, f_hat.m
    if k > m:
        raise ValueError("splitting order exceeds rank")
    from .ray import householder_frame

    u = y / ynorm
    R = np.column_stack([householder_frame(u), u])   # orthonormal, last col = u
    full = f_hat.to_full()
    for ax in range(m):
        full = np.moveaxis(np.tensordot(full, R, axes=([ax], [0])), -1, ax)
    # zero every component with k or more indices along u (last axis label)
    last = n - 1
    for idx in itertools.product(range(n), repeat=m):
        if sum(1 for i in idx if i == last) >= k:
            full[idx] = 0.0
    for ax in range(m):
        full = np.moveaxis(np.tensordot(full, R, axes=([ax], [1])), -1, ax)
    return symmetrize(full)


def decompose_k(f: GridField, k: int) -> tuple[GridField, GridField]:
    """Global decomposition f = g + d^k v with delta^k g = 0.

    Real-FFT half spectrum of f, :func:`_peel` with the grid symbols of
    delta^j and d^j, inverse real FFT.  The other half of the spectrum is
    the conjugate of this one, and so is its splitting, because the symbols
    are real polynomials in i y.  The frequencies are those of
    :meth:`GridSpec.half_wavenumbers`, whose Nyquist entry is zero on even
    grids, so odd and even grid counts are both supported and every bin is
    split with the symbol that d^k and delta^k apply; bins with y = 0 are
    assigned wholly to g.  f, g and v are real grid fields
    (:class:`GridField` rejects complex data).
    """
    n, m = f.n, f.m
    if not 1 <= k <= min(n - 1, m):
        raise ValueError(f"need 1 <= k <= min(n-1, m) = {min(n - 1, m)}, got {k}")
    scale = float(np.abs(f.data).max())
    if f.boundary_max() > 1e-10 * max(scale, 1e-300):
        import warnings
        warnings.warn("field does not decay at the grid boundary",
                      RuntimeWarning, stacklevel=2)
    spec = f.spec
    lap = sum(y * y for y in spec.half_wavenumbers())
    inv_lap = np.divide(-1.0, lap, out=np.zeros_like(lap), where=lap != 0.0)
    g_hat, v_hat = _peel(
        spec.rfftn(f.data), m, k, inv_lap,
        lambda r, j: spec.apply_symbol(r, sym_dim(n, m - j), delta_symbol(n, m, j)),
        lambda h, lo, p: spec.apply_symbol(h, sym_dim(n, lo + p), d_symbol(n, lo, p)))
    return (GridField(n, m, spec, spec.irfftn(g_hat)),
            GridField(n, m - k, spec, spec.irfftn(v_hat)))


def verify_decomposition(f: GridField, g: GridField, v: GridField, k: int) -> dict:
    """Residual report for a claimed decomposition f = g + d^k v.

    One real FFT each of f, g and v and no inverse transform: the
    reconstruction residual f_hat - g_hat - i^k A(y) v_hat, delta^k g and
    the scale d^k f are measured on the half spectrum by discrete Parseval
    (:meth:`GridSpec.half_norm`), with the symbols the grid operators apply.
    """
    f._check_like(g)
    if (v.n, v.m, v.spec) != (f.n, f.m - k, f.spec):
        raise ValueError("v grid not congruent with f")
    n, m, spec = f.n, f.m, f.spec
    f_hat, g_hat, v_hat = (spec.rfftn(u.data) for u in (f, g, v))
    recon = f_hat - g_hat - spec.apply_symbol(v_hat, sym_dim(n, m),
                                              d_symbol(n, m - k, k))
    d_f = spec.apply_symbol(f_hat, sym_dim(n, m + k), d_symbol(n, m, k))
    delta_g = spec.apply_symbol(g_hat, sym_dim(n, m - k), delta_symbol(n, m, k))
    fnorm = f.norm()
    dscale = spec.half_norm(d_f, m + k)
    return {
        "reconstruction_residual": spec.half_norm(recon, m) / max(fnorm, 1e-300),
        "solenoidal_residual": spec.half_norm(delta_g, m - k) / max(dscale, 1e-300),
        "boundary_decay_g": g.boundary_max() / max(fnorm, 1e-300),
        "boundary_decay_v": v.boundary_max() / max(fnorm, 1e-300),
    }
