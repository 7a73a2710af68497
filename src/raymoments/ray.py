"""Momentum ray transforms, their phase-space extensions and the analytic oracle.

The q-th moment transform of a rank-m field f along the line (x, xi) is

    I^q f(x, xi) = int t^q <f(x + t xi), xi^(x)m> dt,

defined for (x, xi) with |xi| = 1 and <x, xi> = 0.  Its extension J^q accepts
any xi != 0 and is what makes x- and xi-derivatives of moment data well
defined; the two are related by an explicit conversion sum implemented in
:func:`make_extend_J`.
"""

from __future__ import annotations

import itertools
import json
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import GaussPolyField, GridField
from .symtensor import xi_power_weights

__all__ = [
    "Line",
    "QuadratureRule",
    "MomentData",
    "householder_frame",
    "direction_grid",
    "random_line",
    "moment_numeric",
    "moment_oracle",
    "oracle_moment_callables",
    "make_extend_J",
    "interpolating_moment_callables",
    "batch_transform",
    "restricted_transform",
    "mixed_central",
    "symmetrized_mixed_sum",
]

_GEOM_TOL = 1e-12


def householder_frame(xi: np.ndarray) -> np.ndarray:
    """Deterministic orthonormal basis of xi-perp, columns of shape (n, n-1).

    Built from the Householder reflection mapping e_1 to -sign(xi_1) xi; the
    remaining reflected basis vectors span the orthogonal complement.
    """
    xi = np.asarray(xi, dtype=float)
    n = xi.size
    u = xi / np.linalg.norm(xi)
    sign = 1.0 if u[0] >= 0 else -1.0
    v = u.copy()
    v[0] += sign
    H = np.eye(n) - 2.0 * np.outer(v, v) / (v @ v)
    return H[:, 1:]


def _fibonacci_hemisphere(count: int) -> np.ndarray:
    """Spherical Fibonacci points on the upper hemisphere (z > 0)."""
    golden = (1.0 + math.sqrt(5.0)) / 2.0
    i = np.arange(count) + 0.5
    z = i / count               # (0, 1): strictly upper hemisphere
    phi = 2.0 * np.pi * i / golden
    r = np.sqrt(1.0 - z * z)
    return np.stack([r * np.cos(phi), r * np.sin(phi), z], axis=1)


def direction_grid(n: int, count: int = 64) -> tuple[np.ndarray, np.ndarray]:
    """Antipodally closed direction set with per-direction frames.

    Returns (directions (D, n), frames (D, n, n-1)).  Directions come in
    pairs (i, i + D/2) with directions[i + D/2] = -directions[i]; antipodal
    pairs share the same frame so that parity checks are exact grid
    symmetries.
    """
    if count % 2:
        raise ValueError("direction count must be even (antipodal closure)")
    half = count // 2
    if n == 2:
        theta = np.pi * np.arange(half) / half
        dirs = np.stack([np.cos(theta), np.sin(theta)], axis=1)
    elif n == 3:
        dirs = _fibonacci_hemisphere(half)
    else:
        raise ValueError("direction grids implemented for n in {2, 3}")
    frames = np.stack([householder_frame(d) for d in dirs])
    return np.vstack([dirs, -dirs]), np.vstack([frames, frames])


@dataclass(frozen=True)
class Line:
    """Oriented line (x, xi) with |xi| = 1 and x orthogonal to xi."""

    x: np.ndarray
    xi: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        xi = np.asarray(self.xi, dtype=float)
        if abs(np.linalg.norm(xi) - 1.0) > _GEOM_TOL:
            raise ValueError("direction must be a unit vector")
        if abs(x @ xi) > _GEOM_TOL:
            raise ValueError("base point must be orthogonal to the direction")
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "xi", xi)


def random_line(n: int, rng: np.random.Generator, radius: float = 2.0) -> Line:
    xi = rng.normal(size=n)
    xi /= np.linalg.norm(xi)
    x = rng.uniform(-radius, radius, size=n)
    x -= (x @ xi) * xi
    return Line(x, xi)


@lru_cache(maxsize=16)
def _leggauss_cached(count: int) -> tuple[np.ndarray, np.ndarray]:
    # node computation is an eigenvalue problem, far costlier than the
    # integrals it serves; rules are reused across many lines
    return np.polynomial.legendre.leggauss(count)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre quadrature for the line parameter t on [-radius, radius]."""

    count: int = 200
    radius: float = 8.0

    def __post_init__(self):
        if self.count < 8:
            raise ValueError("need at least 8 quadrature nodes")
        if self.radius <= 0:
            raise ValueError("truncation radius must be positive")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        t, w = _leggauss_cached(self.count)
        return t * self.radius, w * self.radius

    @classmethod
    def for_field(cls, f: GaussPolyField, count: int = 200) -> "QuadratureRule":
        return cls(count, f.effective_radius())


def moment_numeric(f, line: Line, q: int, rule: QuadratureRule) -> float:
    """Quadrature approximation of I^q f along ``line``.

    Analytic fields are evaluated exactly at the nodes; grid fields are
    interpolated with cubic splines.  Returns a plain float; a truncation
    warning is raised as a RuntimeWarning when the rule radius falls short of
    the field's effective support.
    """
    if q < 0:
        raise ValueError("moment order must be non-negative")
    t, w = rule.nodes()
    if isinstance(f, GaussPolyField):
        if rule.radius < f.effective_radius(1e-10):
            import warnings
            warnings.warn("quadrature radius below field effective support",
                          RuntimeWarning, stacklevel=2)
        vals = f.line_values(line.x, line.xi, t)
    elif isinstance(f, GridField):
        vals = _grid_line_values(f, line.x, line.xi, t)
    else:
        raise TypeError(f"unsupported field type {type(f)!r}")
    return float((w * t ** q * vals).sum()) if q else float((w * vals).sum())


def _grid_line_values(f: GridField, x, xi, ts) -> np.ndarray:
    from scipy.ndimage import map_coordinates

    pts = np.asarray(x)[None, :] + np.asarray(ts)[:, None] * np.asarray(xi)[None, :]
    coords = (pts.T + f.spec.extent) / f.spec.spacing
    packed = np.stack([
        map_coordinates(comp, coords, order=3, mode="grid-wrap") for comp in f.data])
    return xi_power_weights(f.n, f.m, xi) @ packed


# ---------------------------------------------------------------------------
# closed-form oracle


def _gauss_moments(rmax: int, alpha: float, beta: float) -> np.ndarray:
    """M_r = int t^r exp(-alpha t^2 - beta t) dt for r = 0..rmax."""
    c = beta / (2.0 * alpha)
    amp = math.exp(beta * beta / (4.0 * alpha))
    # raw centred moments G_j = int s^j exp(-alpha s^2) ds
    G = np.zeros(rmax + 1)
    G[0] = math.sqrt(math.pi / alpha)
    for p in range(1, rmax // 2 + 1):
        G[2 * p] = G[2 * p - 2] * (2 * p - 1) / (2.0 * alpha)
    M = np.zeros(rmax + 1)
    for r in range(rmax + 1):
        M[r] = amp * sum(math.comb(r, j) * (-c) ** (r - j) * G[j] for j in range(r + 1))
    return M


def _line_poly(poly, x, xi) -> np.ndarray:
    """Coefficients in t of p(x + t xi), lowest degree first."""
    out = np.zeros(1, dtype=complex if any(isinstance(c, complex) for c in poly.values()) else float)
    for e, c in poly.items():
        term = np.array([c])
        for ax, k in enumerate(e):
            if k:
                fac = np.array([math.comb(k, j) * x[ax] ** (k - j) * xi[ax] ** j
                                for j in range(k + 1)])
                term = np.convolve(term, fac)
        if term.size > out.size:
            out = np.pad(out, (0, term.size - out.size))
        out[: term.size] += term
    return out


def moment_oracle(f: GaussPolyField, x, xi, q: int) -> float:
    """Exact J^q f(x, xi) via closed-form one-dimensional Gaussian moments.

    The integrand restricted to the line is (polynomial in t) times
    exp(-a(|x|^2 + 2 t <x, xi> + t^2 |xi|^2)), so the integral reduces to
    shifted Gaussian moments.
    """
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    if np.linalg.norm(xi) == 0.0:
        raise ValueError("direction must be nonzero")
    weights = xi_power_weights(f.n, f.m, xi)
    tpoly = np.zeros(1)
    for p, wp in enumerate(weights):
        if wp == 0.0 or not f.comps[p]:
            continue
        term = _line_poly(f.comps[p], x, xi) * wp
        if term.size > tpoly.size:
            tpoly = np.pad(tpoly, (0, term.size - tpoly.size))
        tpoly[: term.size] += np.real(term)
    alpha = f.a * float(xi @ xi)
    beta = 2.0 * f.a * float(x @ xi)
    M = _gauss_moments(tpoly.size - 1 + q, alpha, beta)
    amp = math.exp(-f.a * float(x @ x))
    return amp * float(np.dot(tpoly, M[q: q + tpoly.size]))


def oracle_moment_callables(f: GaussPolyField, k: int):
    """[J^0 f, ..., J^k f] as plain (x, xi) callables (exact path)."""
    return [lambda x, xi, q=q: moment_oracle(f, x, xi, q) for q in range(k + 1)]


# ---------------------------------------------------------------------------
# I <-> J conversion


def make_extend_J(moments, m: int):
    """Return a callable (x, xi, q) evaluating J^q from I-data callables.

    ``moments`` is a sequence of callables; moments[l](x0, xi0) must return
    I^l at the line (x0, xi0) in the line space.  Implements the conversion

        J^q f(x, xi) = |xi|^{m-2q-1} sum_{l<=q} (-1)^{q-l} C(q,l) |xi|^l
                       <xi, x>^{q-l} I^l f(x - <x,xi> xi/|xi|^2, xi/|xi|)

    where m is the rank of the field behind the data.
    """

    def J(x, xi, q: int) -> float:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        norm = float(np.linalg.norm(xi))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        if q >= len(moments):
            raise ValueError(f"moment order {q} not available in the data")
        u = xi / norm
        dot = float(x @ xi)
        x0 = x - (dot / norm ** 2) * xi
        acc = 0.0
        for ell in range(q + 1):
            acc += ((-1) ** (q - ell) * math.comb(q, ell) * norm ** ell
                    * dot ** (q - ell) * moments[ell](x0, u))
        return norm ** (m - 2 * q - 1) * acc

    return J


# ---------------------------------------------------------------------------
# batch transforms on a discretized line space


@dataclass(frozen=True)
class MomentData:
    """Sampled moments phi^0..phi^k on a discretized line space.

    Lines are (x, xi) with xi from an antipodally closed direction grid and
    x = sum_j s_j e_j(xi) over the recorded orthonormal frame of xi-perp.
    ``values`` has shape (k+1, ndirs, noffsets) with offsets enumerated in
    row-major order over the (n-1)-fold tensor grid of ``offsets``.
    """

    n: int
    m: int
    k: int
    directions: np.ndarray
    frames: np.ndarray
    offsets: np.ndarray
    values: np.ndarray = field(repr=False)
    quadrature: QuadratureRule = QuadratureRule()

    def __post_init__(self):
        want = (self.k + 1, self.directions.shape[0], self.offsets.size ** (self.n - 1))
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")

    @property
    def ndirs(self) -> int:
        return self.directions.shape[0]

    def antipode(self, i: int) -> int:
        half = self.ndirs // 2
        return i + half if i < half else i - half

    def line(self, d: int, o: int) -> Line:
        s = np.unravel_index(o, (self.offsets.size,) * (self.n - 1))
        x = self.frames[d] @ self.offsets[list(s)]
        return Line(x, self.directions[d])

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "m": self.m, "k": self.k,
            "geometry": {
                "directions": self.directions.tolist(),
                "frames": self.frames.tolist(),
                "offsets": self.offsets.tolist(),
                "quadrature": {"scheme": "gauss-legendre",
                               "count": self.quadrature.count,
                               "radius": self.quadrature.radius},
            },
            "moments": [self.values[ell].ravel().tolist() for ell in range(self.k + 1)],
        })

    @classmethod
    def from_json(cls, text: str) -> "MomentData":
        d = json.loads(text)
        g = d["geometry"]
        dirs = np.asarray(g["directions"], dtype=float)
        offs = np.asarray(g["offsets"], dtype=float)
        n = d["n"]
        vals = np.asarray(d["moments"], dtype=float).reshape(
            d["k"] + 1, dirs.shape[0], offs.size ** (n - 1))
        quad = dict(g["quadrature"])
        scheme = quad.pop("scheme", None)
        if scheme != "gauss-legendre":
            raise ValueError(f"unsupported quadrature scheme {scheme!r}")
        rule = QuadratureRule(**quad)
        return cls(n, d["m"], d["k"], dirs, np.asarray(g["frames"], dtype=float),
                   offs, vals, rule)


def batch_transform(f: GaussPolyField, k: int, ndirs: int = 64,
                    noffsets: int = 32, extent: float | None = None,
                    rule: QuadratureRule | None = None) -> MomentData:
    """Moments I^0..I^k of f on a full line-space grid."""
    if k > f.m:
        raise ValueError("moment order exceeds field rank")
    if rule is None:
        rule = QuadratureRule.for_field(f)
    if extent is None:
        extent = f.effective_radius()
    dirs, frames = direction_grid(f.n, ndirs)
    offsets = np.linspace(-extent, extent, noffsets)
    t, w = rule.nodes()
    grids = np.meshgrid(*([offsets] * (f.n - 1)), indexing="ij")
    s = np.stack([g.ravel() for g in grids], axis=-1)      # (P, n-1)
    values = np.empty((k + 1, dirs.shape[0], s.shape[0]))
    weights = xi_power_weights(f.n, f.m, dirs)             # (D, sym_dim)
    for d in range(dirs.shape[0]):
        base = s @ frames[d].T                             # (P, n)
        pts = base[:, None, :] + t[None, :, None] * dirs[d][None, None, :]
        packed = f.eval_packed(pts)                        # (P, T, sym_dim)
        integrand = packed @ weights[d]                    # (P, T)
        for ell in range(k + 1):
            values[ell, d] = integrand @ (w * t ** ell)
    return MomentData(f.n, f.m, k, dirs, frames, offsets, values, rule)


def interpolating_moment_callables(data: MomentData):
    """I^l callables interpolated from sampled moment data (n = 2 only).

    Linear in the direction angle, cubic spline in the signed offset; the
    accuracy class is strictly below the oracle path, callers must widen
    tolerances accordingly.
    """
    if data.n != 2:
        raise NotImplementedError("moment-data interpolation implemented for n=2")
    from scipy.interpolate import CubicSpline

    half = data.ndirs // 2
    theta = np.pi * np.arange(half) / half
    splines = [[CubicSpline(data.offsets, data.values[ell, d])
                for d in range(data.ndirs)] for ell in range(data.k + 1)]

    def make(ell):
        def call(x0, xi0):
            ang = math.atan2(xi0[1], xi0[0]) % (2.0 * math.pi)
            flip = ang >= np.pi
            a = ang - np.pi if flip else ang
            step = np.pi / half
            j = int(a // step)
            frac = a / step - j
            j0, j1 = j % half, (j + 1) % half
            wrap1 = (j + 1) >= half        # crossing theta = pi flips orientation
            d0 = j0 + (half if flip else 0)
            d1 = j1 + (half if (flip != wrap1) else 0)
            s0 = float(data.frames[d0][:, 0] @ x0)
            s1 = float(data.frames[d1][:, 0] @ x0)
            return (1 - frac) * splines[ell][d0](s0) + frac * splines[ell][d1](s1)
        return call

    return [make(ell) for ell in range(data.k + 1)]


# ---------------------------------------------------------------------------
# finite differences in phase space


def mixed_central(fun, x, xi, x_axes: tuple[int, ...], xi_axes: tuple[int, ...],
                  h: float) -> float:
    """Nested central differences d^r fun / dx^{x_axes} dxi^{xi_axes}."""
    if h <= 0:
        raise ValueError("step size must be positive")
    if x_axes:
        ax, rest = x_axes[0], x_axes[1:]
        e = np.zeros_like(np.asarray(x, dtype=float))
        e[ax] = h
        return (mixed_central(fun, np.asarray(x) + e, xi, rest, xi_axes, h)
                - mixed_central(fun, np.asarray(x) - e, xi, rest, xi_axes, h)) / (2 * h)
    if xi_axes:
        ax, rest = xi_axes[0], xi_axes[1:]
        e = np.zeros_like(np.asarray(xi, dtype=float))
        e[ax] = h
        return (mixed_central(fun, x, np.asarray(xi) + e, (), rest, h)
                - mixed_central(fun, x, np.asarray(xi) - e, (), rest, h)) / (2 * h)
    return fun(x, xi)


def symmetrized_mixed_sum(callables, indices: tuple[int, ...], x, xi, h: float,
                          m: int) -> float:
    """((m-r)!/m!) sigma(indices) sum_p (-1)^p C(r,p) d^r callables[p] / dx..dxi..

    The shared stencil behind the moment-reduction identity and the
    symmetrized-derivative phase construction: the first p indices
    differentiate in x, the rest in xi, alternating sign over p, averaged
    over all permutations of ``indices``.
    """
    r = len(indices)
    perms = list(itertools.permutations(indices))
    acc = 0.0
    for perm in perms:
        for p in range(r + 1):
            acc += ((-1) ** p * math.comb(r, p)
                    * mixed_central(callables[p], x, xi, perm[:p], perm[p:], h))
    pref = math.factorial(m - r) / math.factorial(m)
    return pref * acc / len(perms)


def restricted_transform(J_callables, fixed_indices: tuple[int, ...], x, xi,
                         h: float = 1e-3, *, m: int) -> float:
    """J^0 of the field restricted to ``fixed_indices``, from J^0..J^r data.

    ``J_callables[p]`` evaluates J^p on a neighborhood in phase space; the
    fixed indices are the FIRST r slots of the rank-m field.  Central
    differences of step ``h`` realize the mixed derivatives, so the result
    carries an O(h^2) discretization error.  On psi^0..psi^r data (see
    :func:`raymoments.john.psi_from_phi`) this is the symmetrized
    construction Psi_{i_1..i_r} of the range theory.
    """
    r = len(fixed_indices)
    if r > m:
        raise ValueError("cannot fix more indices than the rank")
    if r == 0:
        return float(J_callables[0](x, xi))
    return float(symmetrized_mixed_sum(J_callables, fixed_indices, x, xi, h, m))
