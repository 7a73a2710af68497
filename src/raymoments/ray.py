"""Momentum ray transforms, their phase-space extensions and the analytic oracle.

The q-th moment transform of a rank-m field f along the line (x, xi) is

    I^q f(x, xi) = int t^q <f(x + t xi), xi^(x)m> dt,

defined for (x, xi) with |xi| = 1 and <x, xi> = 0.  Its extension J^q accepts
any xi != 0 and is what makes x- and xi-derivatives of moment data well
defined; the two are related by an explicit conversion sum, which
:func:`raymoments.john.psi_from_phi` implements on I-data callables.
"""

from __future__ import annotations

import itertools
import json
import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .fields import GaussPolyField
from .symtensor import json_keys, xi_power_weights

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
    "batch_transform",
    "restricted_transform",
    "central_table",
    "apply_stencil",
]

_GEOM_TOL = 1e-12
_QUADRATURE_NODES = 200


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
    if count < 2 or count % 2:
        raise ValueError("direction count must be a positive even number "
                         f"(antipodal closure), got {count}")
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


def random_line(n: int, rng: np.random.Generator) -> Line:
    """A random direction xi, and a point uniform in [-2, 2]^n projected onto xi-perp."""
    xi = rng.normal(size=n)
    xi /= np.linalg.norm(xi)
    x = rng.uniform(-2.0, 2.0, size=n)
    x -= (x @ xi) * xi
    return Line(x, xi)


@lru_cache(maxsize=32)
def _gauss_rule(nodes_weights, count: int) -> tuple[np.ndarray, np.ndarray]:
    # node computation is an eigenvalue problem, far costlier than the
    # integrals it serves; rules are reused across many lines
    return nodes_weights(count)


@dataclass(frozen=True)
class QuadratureRule:
    """Gauss-Legendre quadrature with _QUADRATURE_NODES nodes for t on [-radius, radius]."""

    radius: float = 8.0

    def __post_init__(self):
        if not 0 < self.radius < math.inf:
            raise ValueError(f"truncation radius must be positive and finite, got {self.radius}")

    def nodes(self) -> tuple[np.ndarray, np.ndarray]:
        t, w = _gauss_rule(np.polynomial.legendre.leggauss, _QUADRATURE_NODES)
        return t * self.radius, w * self.radius

    @classmethod
    def for_field(cls, f: GaussPolyField) -> "QuadratureRule":
        return cls(radius=f.effective_radius())


def moment_numeric(f: GaussPolyField, line: Line, q: int, rule: QuadratureRule) -> float:
    """Quadrature approximation of I^q f along ``line``.

    The analytic field is evaluated exactly at the nodes.  Returns a plain
    float; a truncation warning is raised as a RuntimeWarning when the rule
    radius falls short of the field's effective support.
    """
    if q < 0:
        raise ValueError("moment order must be non-negative")
    if not isinstance(f, GaussPolyField):
        raise TypeError(f"unsupported field type {type(f)!r}")
    t, w = rule.nodes()
    if rule.radius < f.effective_radius(1e-10):
        warnings.warn("quadrature radius below field effective support",
                      RuntimeWarning, stacklevel=2)
    pts = line.x + t[:, None] * line.xi
    vals = f.eval_packed(pts) @ xi_power_weights(f.n, f.m, line.xi)
    return float((w * t ** q * vals).sum()) if q else float((w * vals).sum())


# ---------------------------------------------------------------------------
# closed-form oracle


def _gauss_hermite(f: GaussPolyField, x, xi, k: int, count: int) -> np.ndarray:
    """J^0 f .. J^k f at the broadcast phase points (x, xi), shape (..., k+1).

    |x + t xi|^2 = |xi|^2 (t - t0)^2 + |x|^2 - <x,xi>^2/|xi|^2 with
    t0 = -<x,xi>/|xi|^2, so t = t0 + s / sqrt(a |xi|^2) turns the Gaussian
    along the line into exp(-s^2); the rest is a polynomial in s.  ``count``
    Hermite nodes serve every order at once: only the factor t^q differs.
    """
    weights = xi_power_weights(f.n, f.m, xi)[..., None, :]     # (..., 1, S)
    # extended precision where the platform has it: rounding the node points
    # to float64 costs about 1.5x in the median error on unit-direction lines
    x, xi = np.asarray(x, np.longdouble), np.asarray(xi, np.longdouble)
    dot = (x * xi).sum(axis=-1)
    nxi2 = (xi * xi).sum(axis=-1)
    if not (nxi2 > 0.0).all():
        raise ValueError("direction must be nonzero")
    s, w, orders = _hermite_rule(count, k)
    width = 1.0 / np.sqrt(f.a * nxi2)
    t = (-dot / nxi2)[..., None] + width[..., None] * s       # (..., N)
    pts = x[..., None, :] + t[..., None] * xi[..., None, :]   # (..., N, n)
    # `**`, not symtensor.monomials: on the 2-3 nodes of one phase point a table costs more
    monos = (pts[..., None, :] ** f.exps).prod(axis=-1)         # (..., N, T)
    line = ((monos @ f.coef) * weights).sum(axis=-1).real       # (..., N)
    amp = np.exp(-f.a * ((x * x).sum(axis=-1) - dot * dot / nxi2)) * width
    moments = (line[..., None, :] * t[..., None, :] ** orders) @ w   # (..., k+1)
    return (amp[..., None] * moments).astype(float)


@lru_cache(maxsize=32)
def _hermite_rule(count: int, k: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """``count`` Hermite nodes and weights in extended precision, and orders 0..k as a column.

    The casts are exact, so the pass rounds as it would with the float64
    rule; caching them saves a scalar call two conversions.
    """
    s, w = _gauss_rule(np.polynomial.hermite.hermgauss, count)
    return s.astype(np.longdouble), w.astype(np.longdouble), np.arange(k + 1)[:, None]


def moment_oracle(f: GaussPolyField, x, xi, q: int):
    """Exact J^q f(x, xi) by Gauss-Hermite quadrature along the line.

    Along the line the integrand is a polynomial of degree deg + q in t times
    a Gaussian, so floor((deg + q)/2) + 1 Hermite nodes centred at the
    Gaussian's peak integrate it exactly (Golub & Welsch, 1969).  ``x`` and
    ``xi`` broadcast over their leading axes; a single phase point returns a
    Python float.
    """
    if q < 0:
        raise ValueError("moment order must be non-negative")
    out = _gauss_hermite(f, x, xi, q, (f.degree + q) // 2 + 1)[..., q]
    return float(out) if out.ndim == 0 else out


def oracle_moment_callables(f: GaussPolyField, k: int):
    """[J^0 f, ..., J^k f] as plain (x, xi) callables (exact path).

    The k+1 callables share one Gauss-Hermite pass with the
    floor((deg + k)/2) + 1 nodes that are exact for every order, so asking
    each of them at one phase point, as psi^l does, integrates the line
    once.  The pass remembers its last phase point only, by the contents of
    ``x`` and ``xi``, not by identity: callers may change an array in place
    between calls.  A single phase point gives a Python float; (B, n) input
    broadcasts as in :func:`moment_oracle`.  Orders below k use more nodes
    than :func:`moment_oracle` and may differ from it by rounding.
    """
    count = (f.degree + k) // 2 + 1
    last: list = [None, None]              # [key, moments (..., k+1)]

    def all_orders(x, xi) -> np.ndarray:
        x, xi = np.asarray(x), np.asarray(xi)
        key = (x.dtype.str, x.shape, x.tobytes(), xi.dtype.str, xi.shape, xi.tobytes())
        if key != last[0]:
            last[:] = key, _gauss_hermite(f, x, xi, k, count)
        return last[1]

    def order(q: int):
        def J(x, xi):
            out = all_orders(x, xi)[..., q]
            return float(out) if out.ndim == 0 else out.copy()    # the pass stays intact
        return J

    return [order(q) for q in range(k + 1)]


# ---------------------------------------------------------------------------
# batch transforms on a discretized line space


@dataclass(frozen=True)
class MomentData:
    """Sampled moments phi^0..phi^k on a discretized line space.

    Lines are (x, xi) with xi from an antipodally closed direction grid and
    x = sum_j s_j e_j(xi) over the recorded orthonormal frame of xi-perp.
    ``values`` has shape (k+1, ndirs, noffsets) with offsets enumerated in
    row-major order over the (n-1)-fold tensor grid of ``offsets``.  n >= 2,
    directions (D, n), frames (D, n, n-1) and 1-D offsets, or a ValueError.
    """

    n: int
    m: int
    k: int
    directions: np.ndarray
    frames: np.ndarray
    offsets: np.ndarray
    values: np.ndarray = field(repr=False)

    def __post_init__(self):
        n, dirs = self.n, self.directions
        if n < 2:
            raise ValueError(f"moment data needs dimension n >= 2, got n={n}")
        if dirs.ndim != 2 or dirs.shape[1] != n:
            raise ValueError(f"directions shape {dirs.shape} is not (D, {n})")
        if self.frames.shape != (len(dirs), n, n - 1):
            raise ValueError(f"frames shape {self.frames.shape} != {(len(dirs), n, n - 1)}")
        if self.offsets.ndim != 1:
            raise ValueError(f"offsets must be 1-D, got shape {self.offsets.shape}")
        want = (self.k + 1, len(dirs), self.offsets.size ** (n - 1))
        if self.values.shape != want:
            raise ValueError(f"values shape {self.values.shape} != {want}")

    @property
    def ndirs(self) -> int:
        return self.directions.shape[0]

    def to_json(self) -> str:
        return json.dumps({
            "n": self.n, "m": self.m, "k": self.k,
            "geometry": {
                "directions": self.directions.tolist(),
                "frames": self.frames.tolist(),
                "offsets": self.offsets.tolist(),
            },
            "moments": [self.values[ell].ravel().tolist() for ell in range(self.k + 1)],
        })

    @classmethod
    def from_json(cls, text: str) -> "MomentData":
        n, m, k, g, moments = json_keys(json.loads(text), {
            "n": int, "m": int, "k": int, "geometry": dict, "moments": list}, "moment JSON")
        dirs, frames, offs = (np.asarray(a, dtype=float) for a in json_keys(
            g, dict.fromkeys(("directions", "frames", "offsets"), list), "moment JSON geometry"))
        vals = np.asarray(moments, dtype=float).reshape(k + 1, len(dirs), -1)
        return cls(n, m, k, dirs, frames, offs, vals)


def _offset_grid(axis: np.ndarray, dim: int) -> np.ndarray:
    """The tensor grid axis^dim as points, shape (len(axis)**dim, dim), first axis slowest."""
    grids = np.meshgrid(*([axis] * dim), indexing="ij")
    return np.stack([g.ravel() for g in grids], axis=-1)


def batch_transform(f: GaussPolyField, k: int, ndirs: int = 64,
                    noffsets: int = 32, extent: float | None = None) -> MomentData:
    """Moments I^0..I^k of f on a full line-space grid, from the exact oracle."""
    if k < 0:
        raise ValueError(f"moment order must be non-negative, got k={k}")
    if k > f.m:
        raise ValueError("moment order exceeds field rank")
    if noffsets < 2:
        raise ValueError(f"need at least two offsets per axis, got {noffsets}")
    if extent is None:
        extent = f.effective_radius()
    elif not 0 < extent < math.inf:
        raise ValueError(f"offset extent must be positive and finite, got {extent}")
    dirs, frames = direction_grid(f.n, ndirs)
    offsets = np.linspace(-extent, extent, noffsets)
    s = _offset_grid(offsets, f.n - 1)                     # (P, n-1)
    values = np.empty((k + 1, dirs.shape[0], s.shape[0]))
    count = (f.degree + k) // 2 + 1
    # one pass per direction for every order: a pass over the whole grid holds
    # every node point at once and peaks at about 5x the memory
    for d in range(dirs.shape[0]):
        values[:, d] = _gauss_hermite(f, s @ frames[d].T, dirs[d], k, count).T
    return MomentData(f.n, f.m, k, dirs, frames, offsets, values)


# ---------------------------------------------------------------------------
# finite differences in phase space
#
# A stencil table is a Laurent polynomial {integer offset: integer weight}:
# tables compose with poly_mul and poly_add, shared offsets merge and
# cancellations are exact.  Callers apply the step scale.


def poly_add(p: dict, q: dict, scale=1.0) -> dict:
    out = dict(p)
    for e, c in q.items():
        out[e] = out.get(e, 0.0) + scale * c
        if out[e] == 0:
            del out[e]
    return out


def poly_mul(p: dict, q: dict) -> dict:
    out: dict = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            e = tuple(a + b for a, b in zip(e1, e2))
            out[e] = out.get(e, 0.0) + c1 * c2
    return {e: c for e, c in out.items() if c != 0}


def central_table(axes, dim: int) -> dict:
    """(2h)^r times the nested central difference along ``axes`` of R^dim."""
    table = {(0,) * dim: 1}
    for ax in axes:
        e = tuple(int(a == ax) for a in range(dim))
        table = poly_mul(table, {e: 1, tuple(-c for c in e): -1})
    return table


def apply_stencil(fun, tables, x, xi, h: float, basis=None) -> list[float]:
    """[sum_o table[o] fun((x, xi) + h o @ basis) for table in tables].

    ``fun`` is called once per distinct offset o in the union of the tables,
    so tables that share offsets, such as the John tables of one phase
    point, share their evaluations.  The rows of ``basis`` are the
    phase-space directions (in R^n x R^n) of the offset coordinates, by
    default the 2n phase axes.  Each table's products are summed exactly
    (math.fsum), so a sum does not depend on which tables came with it.
    """
    if not 0 < h < math.inf:
        raise ValueError(f"step size must be positive and finite, got {h}")
    x = np.asarray(x, dtype=float)
    xi = np.asarray(xi, dtype=float)
    n = x.size
    basis = h * (np.eye(2 * n) if basis is None else np.asarray(basis))
    offsets = list(dict.fromkeys(o for table in tables for o in table))
    # each displacement from its own offset alone, not a matrix product over
    # the union, so that no sum depends on the tables that came with it
    disp = (np.array(offsets, dtype=float).reshape(len(offsets), len(basis), 1)
            * basis).sum(axis=1)
    values = {o: float(fun(x + d[:n], xi + d[n:])) for o, d in zip(offsets, disp)}
    return [math.fsum(w * values[o] for o, w in table.items()) for table in tables]


def restricted_transform(J_callables, fixed_indices: tuple[int, ...], x, xi,
                         h: float = 1e-3, *, m: int) -> float:
    """J^0 of the field restricted to ``fixed_indices``, from J^0..J^r data.

    ``J_callables[p]`` evaluates J^p on a neighborhood in phase space; the
    fixed indices are the FIRST r slots of the rank-m field.  The result is
    ((m-r)!/m!) sum_p (-1)^p C(r,p) d^r J^p, the first p indices
    differentiating in x and the rest in xi, averaged over all orderings of
    the indices.  Central differences of step ``h`` realize the mixed
    derivatives, so the result carries an O(h^2) discretization error.  On
    psi^0..psi^r data (see :func:`raymoments.john.psi_from_phi`) this is the
    symmetrized construction Psi_{i_1..i_r} of the range theory.
    """
    r = len(fixed_indices)
    if r > m:
        raise ValueError("cannot fix more indices than the rank")
    n = np.asarray(x).size
    perms = list(itertools.permutations(fixed_indices))
    acc = 0.0
    for p in range(r + 1):
        table: dict = {}
        for perm in perms:
            axes = (*perm[:p], *(n + a for a in perm[p:]))
            table = poly_add(table, central_table(axes, 2 * n))
        acc += ((-1) ** p * math.comb(r, p)
                * apply_stencil(J_callables[p], [table], x, xi, h)[0])
    pref = math.factorial(m - r) / math.factorial(m)
    return pref * acc / (len(perms) * (2 * h) ** r)
