"""Fourier-slice machinery and the injectivity / kernel structure of moments.

Three groups of checks live here:

* :func:`slice_check` compares the (n-1)-dimensional Fourier transform of
  moment data over xi-perp against the derivative identity
  F[I^q f](y, xi) = (2 pi)^{1/2} i^q <xi, d/dy>^q <fhat(y), xi^(x)m>.
* :func:`assemble_slice_system` builds, at a frequency point y, the linear
  conditions on the packed coefficients of fhat(y) that moment data plus the
  (k+1)-fold divergence constraint impose; :func:`rank_probe` measures their
  rank, which is the computational content of the injectivity statement.
* :func:`kernel_check` verifies that (k+1)-potential fields are annihilated
  by the moments I^0..I^k, with I^{k+1} as the generically nonzero control.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .fields import GaussPolyField
from .ray import _GEOM_TOL, _offset_grid, householder_frame, moment_oracle
from .symtensor import multi_indices, mult_weights, symmetric_products, xi_power_weights

__all__ = [
    "SliceSystem",
    "RankResult",
    "slice_check",
    "assemble_slice_system",
    "rank_probe",
    "kernel_check",
    "slice_row_count",
]

_RANK_THRESHOLD = 1e-10


def slice_check(f: GaussPolyField, xi: np.ndarray, y: np.ndarray, q: int,
                noffsets: int = 256, scale_floor: float = 1e-300) -> float:
    """Relative deviation between the two sides of the slice identity at y.

    The left side is a direct numeric Fourier sum over an offset grid in
    xi-perp of the transform values I^q f(x, xi), on [-R, R)^(n-1) with R
    the field's effective radius; the right side contracts
    p = <f, xi^(x)m> first (xi is constant, so F commutes with it) and
    evaluates (2 pi)^{1/2} i^q <d^q phat(y), xi^(x)q> in closed form.
    Requires y in xi-perp and |xi| = 1.  ``scale_floor`` guards the
    relative-deviation denominator for cases where both sides vanish.
    """
    if f.n < 2:
        raise ValueError(f"slice identity needs dimension n >= 2, got n={f.n}")
    xi = np.asarray(xi, dtype=float)
    y = np.asarray(y, dtype=float)
    if abs(np.linalg.norm(xi) - 1.0) > _GEOM_TOL:
        raise ValueError("direction must be a unit vector")
    if abs(y @ xi) > _GEOM_TOL:
        raise ValueError("frequency point must lie in the direction's orthocomplement")
    if noffsets < 2:
        raise ValueError(f"need at least two offsets per axis, got {noffsets}")
    n = f.n
    extent = f.effective_radius()
    frame = householder_frame(xi)                      # (n, n-1)
    ax = np.linspace(-extent, extent, noffsets, endpoint=False)
    ds = ax[1] - ax[0]
    s = _offset_grid(ax, n - 1)                        # (P, n-1)
    vals = moment_oracle(f, s @ frame.T, xi, q)
    yp = frame.T @ y                                   # y in frame coordinates
    phase = np.exp(-1j * (s @ yp))
    left = (2.0 * np.pi) ** (-(n - 1) / 2.0) * (phase * vals).sum() * ds ** (n - 1)

    p = GaussPolyField(n, 0, f.a, f.exps, (f.coef @ xi_power_weights(n, f.m, xi))[:, None])
    dq = p.fourier_analytic().inner_derivative(q)
    pairing = xi_power_weights(n, q, xi) @ dq.eval_packed(y)
    right = math.sqrt(2.0 * np.pi) * (1j ** q) * pairing

    scale = max(abs(left), abs(right), scale_floor)
    return float(abs(left - right) / scale)


# ---------------------------------------------------------------------------
# slice systems


def slice_row_count(n: int, m: int, k: int) -> int:
    """Closed-form row count of the slice system; equals sym_dim(n, m)."""
    moment = sum(math.comb(n + m - ell - 2, m - ell) for ell in range(k + 1))
    diverg = sum(math.comb(n + r - 2, r) for r in range(m - k))
    return moment + diverg


@dataclass(frozen=True)
class SliceSystem:
    """Linear conditions on the packed coefficients of fhat at one frequency.

    One row per pairing t -> <t, sigma(y^(x)l (x) zeta-monomial)>_sym; moment
    rows run over l = 0..k with tangential monomials of degree m-l, the
    divergence rows over y-powers k+1..m.  ``tags`` records the provenance of
    each row as ("moment", l, monomial) or ("divergence", p, monomial) with
    the monomial written as a non-decreasing tuple of zeta-basis labels.
    """

    zeta: np.ndarray
    rows: np.ndarray = field(repr=False)
    tags: tuple = field(repr=False)


def assemble_slice_system(n: int, m: int, k: int, y: np.ndarray) -> SliceSystem:
    """All moment and divergence conditions at the frequency point y.

    Moment rows: for l = 0..k and every tangential monomial of degree m - l,
    the pairing with sigma(y^(x)l (x) zeta-monomial).  Divergence rows: the
    pairings with sigma(y^(x)(k+p) (x) zeta-monomial of degree m - k - p)
    for p = 1..m-k.  Row order is deterministic: blocks in the order above,
    monomials colexicographic within a block.  Each row is one entry of the
    table of symmetric products of the adapted basis [zeta_1 .. zeta_{n-1}, y].
    """
    y = np.asarray(y, dtype=float)
    if np.linalg.norm(y) == 0.0:
        raise ValueError("slice system undefined at y = 0")
    if not 0 <= k < m:
        raise ValueError(f"need 0 <= k < m, got k={k}, m={m}")
    zeta = householder_frame(y)
    products = symmetric_products(n, m, np.column_stack([zeta, y]))
    rows, tags = [], []
    for ell in range(m + 1):
        for mono in multi_indices(n - 1, m - ell):
            rows.append(mult_weights(n, m) * products[mono + (n - 1,) * ell])
            tags.append(("moment", ell, mono) if ell <= k
                        else ("divergence", ell - k, mono))
    return SliceSystem(zeta, np.array(rows), tuple(tags))


@dataclass(frozen=True)
class RankResult:
    rank: int
    sigma_min: float
    sigma_max: float


def rank_probe(system: SliceSystem) -> RankResult:
    """Numerical rank of the assembled rows at relative threshold 1e-10."""
    sig = np.linalg.svd(system.rows, compute_uv=False)
    smax = float(sig[0])
    rank = int((sig > _RANK_THRESHOLD * smax).sum())
    return RankResult(rank, float(sig[-1]), smax)


# ---------------------------------------------------------------------------
# kernel structure


def kernel_check(v: GaussPolyField, k: int, lines, orders=None) -> float:
    """Max moment residual of the (k+1)-potential field built from v.

    Constructs f = d^(k+1) v analytically and returns the largest |I^l f|
    over the sampled lines and l in ``orders`` (default 0..k), relative to
    the field scale max |I^0 v| over the same lines.  Passing
    ``orders=[k+1]`` turns the same machinery into the negative control,
    since I^{k+1}(d^(k+1) v) = (-1)^{k+1} (k+1)! I^0 v is generically
    nonzero.  An empty ``orders`` checks nothing and is a ValueError.
    """
    if k < 0:
        raise ValueError(f"order k must be non-negative, got k={k}")
    if len(lines) == 0:
        raise ValueError("kernel check needs at least one line")
    orders = range(k + 1) if orders is None else list(orders)
    if len(orders) == 0:
        raise ValueError("kernel check needs at least one moment order")
    f = v.inner_derivative(k + 1)
    x = np.array([ln.x for ln in lines]).reshape(-1, v.n)
    xi = np.array([ln.xi for ln in lines]).reshape(-1, v.n)
    scale = max(np.abs(moment_oracle(v, x, xi, 0)).max(), 1e-300)
    worst = np.abs([moment_oracle(f, x, xi, ell) for ell in orders]).max()
    return float(worst / scale)
