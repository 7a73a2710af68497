"""k-solenoidal / k-potential decomposition of symmetric tensor fields.

At a single nonzero frequency y the splitting f = g + i_{y^(k)} v with
j_{y^(k)} g = 0 is a finite-dimensional least-squares problem
(:func:`freq_project`); the same g also has an explicit projector product
form (:func:`projector_formula`), and the two constructions agreeing is a
uniqueness statement worth testing.  Globally, :func:`decompose_k` applies
the pointwise splitting on the real-FFT half spectrum of a grid field and
synthesizes the k-solenoidal part g and the k-potential generator v with
f = g + d^k v.  Both solve with the packed symbol A(y) = i_{y^(k)} of
:func:`raymoments.symtensor.sym_mult_matrix`, the one symmetrization table
that the analytic and grid d^k and delta^k also read, so the grid
decomposition is exact for the grid operators: at every bin f_hat = g_hat
+ i^k A(y) v_hat and i^k W^{-1} A(y)^T W g_hat = 0.  :func:`verify_decomposition`
measures exactly these two residuals on the half spectra of f, g and v, by
discrete Parseval, without an inverse transform.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .fields import GridField, d_symbol, delta_symbol
from .symtensor import (
    SymTensor,
    mult_weights,
    sym_dim,
    sym_mult_matrix,
    symmetrize,
)

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
    """Split f_hat at frequency y by solving the normal equations.

    v_hat solves (j_{y^(k)} i_{y^(k)}) v = j_{y^(k)} f_hat; the Gram operator
    is symmetric positive definite for y != 0 because i_{y^(k)} is injective,
    so a direct dense solve is exact at these dimensions.
    """
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) < _SINGULAR_FREQ:
        raise ValueError("frequency too close to zero for the splitting")
    n, m = f_hat.n, f_hat.m
    if k > m:
        raise ValueError("splitting order exceeds rank")
    g, v = _split(f_hat.coeffs[:, None], sym_mult_matrix(n, m - k, k, y),
                  mult_weights(n, m))
    return FreqProjection(y, k, SymTensor(n, m, g[:, 0]), SymTensor(n, m - k, v[:, 0]))


def _split(F: np.ndarray, A: np.ndarray, W: np.ndarray):
    """G = F - A V with A^T W G = 0 for columns F, batched over leading axes.

    F (..., d_hi, c), A (..., d_hi, d_lo), W (d_hi,) -> (G, V).
    """
    AW = np.swapaxes(A, -1, -2) * W
    V = np.linalg.solve(AW @ A, AW @ F)
    return F - A @ V, V


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

    Real-FFT half spectrum of f, the pointwise splitting of
    :func:`freq_project` at every half-spectrum bin whose symbol frequency y
    is nonzero, inverse real FFT.  The other half of the spectrum is the
    conjugate of this one, and so is its splitting, because A(-y) =
    (-1)^k A(y) is real.  The frequencies are those of
    :meth:`GridSpec.half_wavenumbers`, whose Nyquist entry is zero on even
    grids, so odd and even grid counts are both supported and every bin is
    split with the symbol that d^k and delta^k apply.  The algebraic v_hat
    is divided by i^k so that the spectral symbol of the k-fold symmetrized
    derivative (fourier(d^k v) = i^k i_{y^(k)} v_hat) reproduces f_hat;
    bins with y = 0 are assigned wholly to g.  f, g and v are real grid
    fields (:class:`GridField` rejects complex data).
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
    hats = spec.rfftn(f.data)                          # (dim_m,) + half grid
    mesh = np.meshgrid(*spec.half_wavenumbers(), indexing="ij")
    ys = np.stack([g.ravel() for g in mesh], axis=-1)  # (B, n)
    fhat_flat = hats.reshape(hats.shape[0], -1).T      # (B, dim_m)
    nz = (ys != 0.0).any(axis=1)
    g_flat = fhat_flat.copy()
    v_flat = np.zeros((ys.shape[0], sym_dim(n, m - k)), dtype=complex)
    f_nz = fhat_flat[nz]
    # real and imaginary parts as two real columns: no complex matrix copies
    g_nz, v_nz = _split(f_nz.view(float).reshape(f_nz.shape + (2,)),
                        sym_mult_matrix(n, m - k, k, ys[nz]), mult_weights(n, m))
    g_flat[nz] = g_nz.view(complex)[..., 0]
    v_flat[nz] = v_nz.view(complex)[..., 0] / 1j ** k
    g_hat = g_flat.T.reshape((sym_dim(n, m),) + hats.shape[1:])
    v_hat = v_flat.T.reshape((sym_dim(n, m - k),) + hats.shape[1:])
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
