"""k-solenoidal / k-potential decomposition of symmetric tensor fields.

At a single nonzero frequency y, f = g + i_{y^(k)} v with j_{y^(k)} g = 0
(:func:`freq_project`, on packed coefficient arrays); the same g is also f
with every component along a symmetric product of the orthonormal frame
[zeta_1 .. zeta_{n-1}, y/|y|] that carries k or more factors of y removed
(:func:`projector_formula`), and the two constructions agreeing is a
uniqueness statement worth testing.  Globally, :func:`decompose_k` splits
the real-FFT half spectrum of a grid field into the k-solenoidal part g and
the k-potential generator v with f = g + d^k v.  Both peel f from the top
down (:func:`_peel`), with no solve: f = sum_j i_y^j h_j uniquely, with h_j
of rank m-j and j_y h_j = 0, and j_y^j i_y^j h_j = |y|^{2j} h_j / C(m, j)
(Sharafutdinov, *Integral Geometry of Tensor Fields*, 1994, ch. 2).  Each
step applies the symtensor tables d_symbol (i_{y^(r)}) and delta_symbol
(its adjoint j_{y^(r)}) through their one applier, symtensor.apply_symbol,
with d_a realized as y_a at one frequency and as i k_a on the grid, so the
grid decomposition is exact for the grid operators: at every bin f_hat =
g_hat + i^k A(k) v_hat and i^k W^{-1} A(k)^T W g_hat = 0, A(k) = i_{k^(k)}.
:func:`verify_decomposition` measures exactly these two residuals on the
half spectra of f, g and v, by discrete Parseval, without an inverse
transform.

Every bin is split on its own, so both grid functions run their per-bin
work one row slab of the half spectrum at a time (:func:`_row_slabs`, a
partition of its first grid axis that depends only on the grid and keeps a
slab's operands in cache), several slabs on one thread each
(:func:`_over_slabs`).  g and v do not depend on the partition or the core
count; the residuals are sums of slab powers, in slab order.
"""

from __future__ import annotations

import math
import os

import numpy as np

from .fields import GridField, GridSpec
from .ray import householder_frame
from .symtensor import apply_symbol, d_symbol, delta_symbol, multi_indices, multiplicity, \
    mult_weights, sym_dim, symmetric_products

__all__ = [
    "freq_project",
    "projector_formula",
    "decompose_k",
    "verify_decomposition",
]

_SINGULAR_FREQ = 1e-14


def _split_input(f_hat, y, m: int, k: int):
    """f_hat and the real y as arrays, for a splitting of rank m at order k.

    Packed input carries no shape of its own, so a wrong length, a y that is
    not a vector, a complex or non-finite y, an order outside 0..m or y near
    zero is a ValueError.
    """
    f_hat, y = np.asarray(f_hat), np.asarray(y)
    if y.ndim != 1:
        raise ValueError(f"frequency y must be 1-D, got shape {y.shape}")
    if np.iscomplexobj(y) or not np.isfinite(y).all():
        raise ValueError(f"frequency y must be real and finite, got {y}")
    y = y.astype(float)
    if f_hat.shape != (sym_dim(y.size, m),):
        raise ValueError(f"f_hat shape {f_hat.shape} does not match "
                         f"sym_dim({y.size}, {m}) = {sym_dim(y.size, m)}")
    if not 0 <= k <= m:
        raise ValueError(f"need 0 <= k <= m = {m}, got k={k}")
    if np.linalg.norm(y) < _SINGULAR_FREQ:
        raise ValueError("frequency too close to zero for the splitting")
    return f_hat, y


def freq_project(f_hat: np.ndarray, y: np.ndarray, m: int,
                 k: int) -> tuple[np.ndarray, np.ndarray]:
    """Split packed rank-m f_hat at y into (g_hat, v_hat), f_hat = g_hat + i_{y^(k)} v_hat.

    j_{y^(k)} g_hat = 0.  The top-down peel of :func:`decompose_k`
    (:func:`_peel`) at this one y, for any 0 <= k <= m: the symbols of d^j
    and delta^j at the real y are i_{y^(j)} and j_{y^(j)}.
    """
    f_hat, y = _split_input(f_hat, y, m, k)
    return _peel(f_hat * 1.0, m, k, y.tolist())       # a float copy to peel


def _peel(r: np.ndarray, m: int, k: int, ys) -> tuple[np.ndarray, np.ndarray]:
    """Peel rank-m packed r into r = g + d^k v with delta^k g = 0, in place.

    ys[a] is the symbol of d_a that :func:`apply_symbol` applies.  For
    j = m down to k, h_j = C(m, j) lap^-j delta^j r, then r -= d^j h_j; r
    ends as g, and v = sum_j d^{j-k} h_j is summed by Horner's rule.  lap =
    sum_a ys_a^2 is the symbol of the scalar Laplacian delta d, |y|^2 at one
    frequency and -|k|^2 on the grid, formed in real arithmetic; where it
    vanishes lap^-1 is zero, so that those frequencies stay in g.
    """
    n = len(ys)
    lap = sum((y * y).real for y in ys)
    inv_lap = np.divide(1.0, lap, out=np.zeros_like(lap), where=lap != 0.0)
    v = None
    for j in range(m, k - 1, -1):
        h = (apply_symbol(r, sym_dim(n, m - j), delta_symbol(n, m, j), ys)
             * (math.comb(m, j) * inv_lap ** j))
        r -= apply_symbol(h, sym_dim(n, m), d_symbol(n, m - j, j), ys)
        if v is not None:
            h += apply_symbol(v, sym_dim(n, m - j), d_symbol(n, m - j - 1, 1), ys)
        v = h
    return r, v


def projector_formula(f_hat: np.ndarray, y: np.ndarray, m: int, k: int) -> np.ndarray:
    """The annihilated part g of packed rank-m f_hat, expanded in an adapted frame.

    In the orthonormal frame U = [householder_frame(u), u], u = y/|y|, the
    symmetric products sigma(u_gamma) over multisets gamma (the
    :func:`symmetric_products` table that the slice systems read) are
    orthogonal under the multiplicity weights W, with <sigma(u_gamma),
    sigma(u_gamma)> = 1/mult(gamma).  A tensor is annihilated by j_{y^(k)}
    exactly when its components along every gamma with k or more factors of
    u vanish, so g = f - sum over those gamma of mult(gamma) <W f,
    sigma(u_gamma)> sigma(u_gamma), an orthogonal projection.  The removed
    part is a k-fold symmetric multiple of y, which makes this the same g
    as in :func:`freq_project` by uniqueness of the splitting; k = 0 gives
    g = 0 up to rounding.
    """
    f_hat, y = _split_input(f_hat, y, m, k)
    n = y.size
    u = y / np.linalg.norm(y)
    products = symmetric_products(n, m, np.column_stack([householder_frame(u), u]))
    along = [g for g in multi_indices(n, m) if g.count(n - 1) >= k]
    S = np.array([products[g] for g in along])
    coef = np.array([multiplicity(g) for g in along]) * (S @ (mult_weights(n, m) * f_hat))
    return f_hat - coef @ S


def decompose_k(f: GridField, k: int) -> tuple[GridField, GridField]:
    """Global decomposition f = g + d^k v with delta^k g = 0.

    Real-FFT half spectrum of f, :func:`_peel` with the grid symbols of
    delta^j and d^j on each row slab (:func:`_over_slabs`), inverse real
    FFT.  The other half of the spectrum is the conjugate of this one, and
    so is its splitting, because the symbols are real polynomials in i y.
    The frequencies are those of :meth:`GridSpec.half_wavenumbers`, whose
    Nyquist entry is zero on even grids, so odd and even grid counts are
    both supported and every bin is split with the symbol that d^k and
    delta^k apply; bins with y = 0 are assigned wholly to g.  f, g and v
    are real grid fields (:class:`GridField` rejects complex data); f with
    a non-finite value is a ValueError.
    """
    m = f.m
    _check_order(f, k)
    scale = float(np.abs(f.data).max())
    if not math.isfinite(scale):
        raise ValueError("grid field data must be finite")
    if f.boundary_max() > 1e-10 * max(scale, 1e-300):
        import warnings
        warnings.warn("field does not decay at the grid boundary",
                      RuntimeWarning, stacklevel=2)
    spec = f.spec
    ys = _grid_symbols(spec)
    f_hat = spec.rfftn(f.data)

    def peel(sl):
        # the slab's rows of f_hat become those of g_hat in place
        return _peel(f_hat[:, sl], m, k, [ys[0][sl], *ys[1:]])[1]

    vs = _over_slabs(spec, peel)
    v_hat = vs[0] if len(vs) == 1 else np.concatenate(vs, axis=1)  # one slab: no copy
    return GridField(m, spec, spec.irfftn(f_hat)), GridField(m - k, spec, spec.irfftn(v_hat))


def _check_order(f: GridField, k) -> None:
    """A ValueError unless k is an integer order 1 <= k <= min(n-1, m) of the grid split of f."""
    if isinstance(k, bool) or not isinstance(k, (int, np.integer)):
        raise ValueError(f"order k must be an integer, got {k!r}")
    if not 1 <= k <= min(f.n - 1, f.m):
        raise ValueError(f"need 1 <= k <= min(n-1, m) = {min(f.n - 1, f.m)}, got {k}")


def _grid_symbols(spec: GridSpec) -> list[np.ndarray]:
    """The symbol i k_a of d_a on the half spectrum, one broadcast array per axis."""
    return [1j * k for k in spec.half_wavenumbers()]


# bytes per component that a row slab holds at least: the peel's term
# passes over one slab stay in a core's cache
_SLAB_BYTES = 512 * 1024


def _row_slabs(spec: GridSpec) -> list[slice]:
    """The half spectrum's row slabs: consecutive slices of its first grid axis.

    As many slabs as hold _SLAB_BYTES per component each, at least one.
    The partition depends only on spec, so every result does too.  With
    n = 1 the first axis is the half axis, and it is one slab.
    """
    half = spec.count // 2 + 1
    if spec.n == 1:
        return [slice(0, half)]
    row_bytes = 16 * spec.count ** (spec.n - 2) * half
    slabs = max(1, spec.count // -(-_SLAB_BYTES // row_bytes))
    bounds = [i * spec.count // slabs for i in range(slabs + 1)]
    return [slice(lo, hi) for lo, hi in zip(bounds, bounds[1:])]


def _over_slabs(spec: GridSpec, work) -> list:
    """[work(sl) for sl in _row_slabs(spec)], in slab order.

    Every bin's splitting is its own, so the slabs are independent: several
    run on one thread each, up to one per core (the count of scipy.fft's
    workers=-1); a single slab runs inline.
    """
    slabs = _row_slabs(spec)
    if len(slabs) == 1:
        return [work(slabs[0])]
    # imported here: concurrent.futures adds about 6 ms to every import of
    # the package, and only half spectra of 1 MiB or more per component
    # have several slabs
    from concurrent.futures import ThreadPoolExecutor
    with ThreadPoolExecutor(min(len(slabs), os.cpu_count() or 1)) as pool:
        return list(pool.map(work, slabs))


def verify_decomposition(f: GridField, g: GridField, v: GridField, k: int) -> dict:
    """Residual report for a claimed decomposition f = g + d^k v.

    One real FFT each of f, g and v and no inverse transform: the
    reconstruction residual f_hat - g_hat - i^k A(y) v_hat, delta^k g and
    the scales f and d^k f are measured on the half spectrum by discrete
    Parseval, with the symbols that :func:`decompose_k` applies.  Each row
    slab reduces them to their powers (:meth:`GridSpec.half_power`), summed
    in slab order.  k is checked as in :func:`decompose_k`; non-finite data
    is a ValueError.
    """
    _check_order(f, k)
    if (g.m, g.spec) != (f.m, f.spec):
        raise ValueError("g grid not congruent with f")
    if (v.m, v.spec) != (f.m - k, f.spec):
        raise ValueError("v grid not congruent with f")
    n, m, spec = f.n, f.m, f.spec
    ys = _grid_symbols(spec)
    f_hat, g_hat, v_hat = (spec.rfftn(u.data) for u in (f, g, v))

    def powers(sl):
        # each operator result is reduced to its power before the next is
        # formed, and the slab's rows of f_hat become the reconstruction
        # residual in place
        ys_sl = [ys[0][sl], *ys[1:]]
        r = f_hat[:, sl]
        fpower = spec.half_power(r, m)
        dscale = spec.half_power(apply_symbol(r, sym_dim(n, m + k), d_symbol(n, m, k), ys_sl),
                                 m + k)
        solenoidal = spec.half_power(
            apply_symbol(g_hat[:, sl], sym_dim(n, m - k), delta_symbol(n, m, k), ys_sl), m - k)
        r -= g_hat[:, sl]
        r -= apply_symbol(v_hat[:, sl], sym_dim(n, m), d_symbol(n, m - k, k), ys_sl)
        return fpower, dscale, solenoidal, spec.half_power(r, m)

    fpower, dscale, solenoidal, residual = (sum(p) for p in zip(*_over_slabs(spec, powers)))
    if not all(map(math.isfinite, (fpower, dscale, solenoidal, residual))):
        raise ValueError("grid field data must be finite")
    fnorm = spec.power_norm(fpower)
    return {
        "reconstruction_residual": spec.power_norm(residual) / max(fnorm, 1e-300),
        "solenoidal_residual": spec.power_norm(solenoidal) / max(spec.power_norm(dscale), 1e-300),
        "boundary_decay_g": g.boundary_max() / max(fnorm, 1e-300),
        "boundary_decay_v": v.boundary_max() / max(fnorm, 1e-300),
    }
