"""Phase space: finite differences on (x, xi), Psi and the range characterization.

Every stencil table on R^n x R^n lives here with its step scaling: the
engine (:func:`central_table`, composed with ``poly_add``/``poly_mul`` and
evaluated by :func:`apply_stencil`), the John and transport operators, and
the symmetrized construction Psi (:func:`restricted_transform` on psi-data).

A family (phi^0, ..., phi^k) on the line space is in the range of the
stacked moment transform of a rank-m field exactly when (1) each phi^l has
parity (-1)^{m-l} under xi -> -xi and (2) the extension psi^k solves the
iterated John equations J_{i_1 j_1} ... J_{i_{m+1} j_{m+1}} psi^k = 0.  This
module provides the psi^l / chi^l constructions as plain (x, xi) -> float
callables and :func:`range_test`, which packages the residuals and
convergence verdicts into a :class:`RangeReport`.  ``range_test`` evaluates
John and transport on moment callables and reads only parity from sampled
data.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ray import MomentData, moment_oracle

__all__ = [
    "RangeReport",
    "homogeneity_residual",
    "psi_from_phi",
    "transport_identity_residual",
    "chi_build",
    "range_test",
    "restricted_transform",
]

# Step window bounded on both sides: iterated mixed stencils amplify
# evaluator noise like eps / h^{2(m+1)} below ~5e-3, while steps above ~5e-2
# sit in the preasymptotic regime of the sixth-order truncation terms.  The
# pass criterion is the convergence order between steps, not an absolute
# threshold.
_DEFAULT_STEPS = (0.025, 0.0125)
# accepted convergence orders of the second-order stencils, and the residual
# below which a row counts as converged into the noise floor
_ORDER_WINDOW = (1.5, 2.5)
_NOISE_FLOOR = 1e-10
# absolute tolerance of the antipodal parity of sampled data, an exact symmetry
_PARITY_TOL = 1e-12


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
    psi^0..psi^r data (see :func:`psi_from_phi`) this is the
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


def homogeneity_residual(fun, degree: float, x, xi) -> float:
    """Relative defect of fun(x, 2 xi) = 2^degree fun(x, xi)."""
    a = fun(x, np.asarray(xi, dtype=float) * 2.0)
    b = 2.0 ** degree * fun(x, xi)
    return float(abs(a - b) / max(abs(a), abs(b), 1e-300))


@lru_cache(maxsize=256)
def _john_table(pairs: tuple, n: int) -> dict:
    """J_{i_1 j_1} ... J_{i_r j_r} times (2h)^{2r}, one stencil table on R^n x R^n.

    J_ij = D_{x^i} D_{xi^j} - D_{x^j} D_{xi^i}; composing the factors merges
    the offsets they share, so each phase point is evaluated once.
    """
    table = {(0,) * (2 * n): 1}
    for i, j in pairs:
        factor = poly_add(central_table((i, n + j), 2 * n),
                          central_table((j, n + i), 2 * n), -1)
        table = poly_mul(table, factor)
    return table


def psi_from_phi(moments, m: int, ell: int):
    """The extension psi^l of I-data, as an (x, xi) -> float callable.

    ``moments[r](x0, xi0)`` must return phi^r = I^r at the line (x0, xi0) of
    the line space, and m is the rank of the field behind the data.  psi^l
    is the conversion of I-data into J^l values,

        psi^l(x, xi) = |xi|^{m-2l-1} sum_{r<=l} (-1)^{l-r} C(l, r) |xi|^r
                       <xi, x>^{l-r} phi^r(x - <x,xi> xi/|xi|^2, xi/|xi|),

    so for data generated by a rank-m field, psi^l equals J^l f.
    """
    if not 0 <= ell < len(moments):
        raise ValueError(f"moment order {ell} not available in the data")

    def psi(x, xi) -> float:
        x = np.asarray(x, dtype=float)
        xi = np.asarray(xi, dtype=float)
        norm = math.sqrt(float(xi @ xi))
        if norm == 0.0:
            raise ValueError("direction must be nonzero")
        u = xi / norm
        dot = float(x @ xi)
        x0 = x - (dot / norm ** 2) * xi
        acc = 0.0
        for r in range(ell + 1):
            acc += ((-1) ** (ell - r) * math.comb(ell, r) * norm ** r
                    * dot ** (ell - r) * moments[r](x0, u))
        return float(norm ** (m - 2 * ell - 1) * acc)

    return psi


def transport_identity_residual(psi_k, psi_lower, k: int,
                                ell: int, x, xi, h: float) -> float:
    """|<xi, d_x>^l psi^k - (-1)^l C(k,l) l! psi^{k-l}| at one phase point.

    ``psi_lower`` is psi^{k-l} (ignored when l > k, where the identity
    asserts plain annihilation).  The directional derivative is realized by
    iterated central differences of step h along xi.
    """
    along = np.concatenate([xi, np.zeros_like(xi)])[None, :]
    lhs = (apply_stencil(psi_k, [central_table((0,) * ell, 1)], x, xi, h, along)[0]
           / (2.0 * h) ** ell)
    if ell > k:
        rhs = 0.0
    else:
        rhs = (-1.0) ** ell * math.comb(k, ell) * math.factorial(ell) * psi_lower(x, xi)
    return abs(lhs - rhs)


def chi_build(psi_ell, gs, ell: int, m: int):
    """chi^l = ((-1)^l / l!) (psi^l - sum_{s<l} (-1)^s C(l,s) s! J^{l-s} g_s).

    ``gs`` holds the analytic correction fields g_0..g_{l-1} of ranks
    m, m-1, ..., m-l+1; their J^{l-s} values come from the closed-form
    oracle.  Returns an (x, xi) -> float callable.  For data generated by
    f = sum_s d^s g_s the result equals J^0 g_l, is invariant under
    x -> x + t xi, and is homogeneous of degree m - l - 1 in xi > 0 with the
    parity factor t^{m-l}/|t| for t < 0.
    """
    if len(gs) != ell:
        raise ValueError(f"need exactly {ell} correction fields, got {len(gs)}")
    for s, g in enumerate(gs):
        if g.m != m - s:
            raise ValueError(f"correction field g_{s} has rank {g.m}, want {m - s}")

    def chi(x, xi) -> float:
        acc = psi_ell(x, xi)
        for s, g in enumerate(gs):
            acc -= ((-1.0) ** s * math.comb(ell, s) * math.factorial(s)
                    * moment_oracle(g, x, xi, ell - s))
        return float((-1.0) ** ell / math.factorial(ell) * acc)

    return chi


# ---------------------------------------------------------------------------
# range testing


def _orders_pass(rows) -> bool:
    lo, hi = _ORDER_WINDOW
    return all(row["residuals"][-1] < _NOISE_FLOOR or lo <= row["order"] <= hi
               for row in rows)


@dataclass(frozen=True)
class RangeReport:
    """Residuals and verdicts for the range conditions on moment data.

    ``john`` rows: {"tuple": ((i,j), ...), "residuals": [per step], "order":
    log2 ratio}; ``transport`` rows also carry "ell" and "point".
    Convergence orders are the pass criterion for the finite-difference
    tests; parity is an exact grid symmetry and gets an absolute tolerance.
    ``parity`` is empty when no sampled data was given.
    """

    m: int
    k: int
    steps: tuple
    parity: dict = field(repr=False)
    john: list = field(repr=False)
    transport: list = field(repr=False)

    @property
    def parity_pass(self) -> bool:
        return all(r < _PARITY_TOL for r in self.parity.values())

    @property
    def john_pass(self) -> bool:
        return _orders_pass(self.john)

    @property
    def transport_pass(self) -> bool:
        return _orders_pass(self.transport)

    @property
    def passed(self) -> bool:
        return self.parity_pass and self.john_pass and self.transport_pass

    def max_john_residual(self) -> float:
        return max((row["residuals"][-1] for row in self.john), default=0.0)


def _parity_residuals(data: MomentData) -> dict:
    half = data.ndirs // 2
    out = {}
    for ell in range(data.k + 1):
        sign = (-1.0) ** (data.m - ell)
        diff = data.values[ell, half:] - sign * data.values[ell, :half]
        scale = max(float(np.abs(data.values[ell]).max()), 1e-300)
        out[ell] = float(np.abs(diff).max()) / scale
    return out


def _john_tuples(n: int, m: int, rng: np.random.Generator, count: int = 64):
    if n == 2:
        return [(((0, 1),) * (m + 1))]
    pairs = [(i, j) for i in range(n) for j in range(n) if i != j]
    out = []
    for _ in range(count):
        out.append(tuple(pairs[rng.integers(len(pairs))] for _ in range(m + 1)))
    return out


def _phase_point(n: int, rng: np.random.Generator):
    """A random (x, xi): x uniform in [-1, 1]^n, xi a random direction of length 0.8..1.2."""
    x = rng.uniform(-1.0, 1.0, size=n)
    xi = rng.normal(size=n)
    xi /= np.linalg.norm(xi)
    xi *= rng.uniform(0.8, 1.2)
    return x, xi


def range_test(data: MomentData | None, m: int, k: int,
               steps: tuple = _DEFAULT_STEPS, *,
               moment_callables,
               npoints: int = 2, ntuples: int = 64,
               seed: int = 0, n: int | None = None) -> RangeReport:
    """Evaluate the range conditions on moment data.

    Parity residuals come from the sampled values of ``data`` over its
    antipodal direction pairs; without data, ``parity`` is empty.  Data of
    another rank, order or (when n is given) dimension is a ValueError.  The
    iterated John equations and the transport identities are tested on
    psi^l built from ``moment_callables``, which are required, at every step
    in ``steps``, and judged by the measured convergence order between
    consecutive steps.
    """
    if len(steps) < 2:
        raise ValueError("need at least two step sizes for order estimates")
    if not all(0 < h < math.inf for h in steps) or len(set(steps)) != len(steps):
        raise ValueError(f"step sizes must be positive, finite and distinct, got {tuple(steps)}")
    if ntuples < 1:
        raise ValueError(f"need at least one John tuple, got ntuples={ntuples}")
    if npoints < 0:
        raise ValueError(f"npoints must be non-negative, got {npoints}")
    if not 0 <= k <= m:
        raise ValueError(f"moment order {k} outside 0..{m}")
    if data is not None:
        if (data.m, data.k) != (m, k):
            raise ValueError(f"data of (m, k) = {(data.m, data.k)} tested as (m, k) = {(m, k)}")
        if n is not None and n != data.n:
            raise ValueError(f"data of dimension n = {data.n} tested as n = {n}")
        n = data.n
    elif n is None:
        raise ValueError("spatial dimension cannot be inferred; pass n")
    rng = np.random.default_rng(seed)
    parity = _parity_residuals(data) if data is not None else {}
    psis = [psi_from_phi(moment_callables, m, ell) for ell in range(k + 1)]
    points = [_phase_point(n, rng) for _ in range(npoints)]

    # residuals aggregated over the phase points per tuple: a single point can
    # sit at an accidental zero of the leading truncation term, which would
    # make its individual order estimate meaningless.  The tables of all
    # tuples go to one apply_stencil call per (point, step), which evaluates
    # psi^k once per offset they share
    tuples = _john_tuples(n, m, rng, ntuples)
    tables = [_john_table(tup, n) for tup in tuples]
    sums = [[apply_stencil(psis[k], tables, x, xi, h) for x, xi in points] for h in steps]
    john_rows = []
    for t, tup in enumerate(tuples):
        residuals = [sum(abs(at_point[t]) for at_point in at_step) / (2 * h) ** (2 * m + 2)
                     for h, at_step in zip(steps, sums)]
        john_rows.append({"tuple": tup, "residuals": residuals,
                          "order": _order(residuals, steps)})

    transport_rows = []
    for ell in range(1, k + 2):
        lower = psis[k - ell] if ell <= k else None
        for x, xi in points:
            residuals = [transport_identity_residual(psis[k], lower, k, ell,
                                                     x, xi, h)
                         for h in steps]
            transport_rows.append({"ell": ell, "point": (tuple(x), tuple(xi)),
                                   "residuals": residuals,
                                   "order": _order(residuals, steps)})

    return RangeReport(m, k, tuple(steps), parity, john_rows, transport_rows)


def _order(residuals, steps) -> float:
    """log(r0 / r1) / log(h0 / h1); nan when a residual is exactly zero.

    A zero residual has no convergence order.  nan lies outside the order
    window, so such a row passes only in the noise floor.
    """
    r0, r1 = residuals[0], residuals[-1]
    if r0 <= 0 or r1 <= 0:
        return float("nan")
    return math.log(r0 / r1) / math.log(steps[0] / steps[-1])
