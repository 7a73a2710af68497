"""John-operator machinery and the range characterization of moment data.

A family (phi^0, ..., phi^k) on the line space is in the range of the
stacked moment transform of a rank-m field exactly when (1) each phi^l has
parity (-1)^{m-l} under xi -> -xi and (2) the extension psi^k solves the
iterated John equations J_{i_1 j_1} ... J_{i_{m+1} j_{m+1}} psi^k = 0.  This
module provides the psi^l / chi^l constructions as plain (x, xi) -> float
callables, finite-difference realizations of the John and transport
operators, and :func:`range_test`, which packages the residuals and
convergence verdicts into a :class:`RangeReport`.  ``range_test`` evaluates
John and transport on moment callables and reads only parity from sampled
data.  The symmetrized construction Psi is
:func:`raymoments.ray.restricted_transform` applied to psi-data.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache

import numpy as np

from .ray import MomentData, apply_stencil, central_table, moment_oracle, poly_add, poly_mul

__all__ = [
    "RangeReport",
    "homogeneity_residual",
    "psi_from_phi",
    "transport_identity_residual",
    "chi_build",
    "range_test",
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
               steps: tuple = _DEFAULT_STEPS,
               moment_callables=None,
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
    if moment_callables is None:
        raise ValueError("range_test needs moment callables; data supplies parity only")
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
