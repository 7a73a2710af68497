"""The paper's checkable claims, one function each, with their gates and controls.

Each claim takes its configuration and a generator (or a seed), draws in a
fixed order, and returns ``(header, rows, results, passed)``: a CSV table,
the report's results and the verdict.  The gates are defined only here.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import random_field
from .helmholtz import verify_decomposition
from .john import _DEFAULT_STEPS, _phase_point, chi_build, homogeneity_residual, psi_from_phi, \
    range_test
from .ray import QuadratureRule, batch_transform, moment_numeric, moment_oracle, \
    oracle_moment_callables, random_line
from .slices import assemble_slice_system, kernel_check, rank_probe, slice_check, \
    slice_row_count
from .symtensor import sym_dim

ORACLE_TOL = 1e-8          # relative error of quadrature against the oracle
DECOMPOSITION_TOL = 1e-6   # reconstruction and solenoidal residuals
KERNEL_TOL = 1e-8          # I^0..I^k of a (k+1)-potential field
CONTROL_MIN = 1e-3         # I^{k+1} of the same field, the kernel's control
SIGMA_RATIO_MIN = 1e-6     # sigma_min / sigma_max of every slice system
CHI_TOL = 1e-8             # chi^l identity, translation and homogeneity
SLICE_TOL = 1e-6           # Fourier-slice deviation
PLATEAU_MIN = 10.0         # corrupted over clean John residual, at n = 3


def _samples(count: int, name: str) -> range:
    """range(count) for a sampling loop; a verdict over no samples would pass vacuously."""
    if count < 1:
        raise ValueError(f"{name} must be at least 1, got {count}")
    return range(count)


def _relative(value, ref) -> float:
    return abs(value - ref) / max(abs(ref), 1e-300)


def ladder_field(n: int, m: int, depth: int, rng):
    """f = sum_s d^s g_s for s = 0..depth, with g_s random of rank m - s and degree 1."""
    gs = [random_field(n, m - s, rng, degree=1) for s in range(depth + 1)]
    f = gs[0]
    for s in range(1, depth + 1):
        f = f + gs[s].inner_derivative(s)
    return f, gs


def corrupted(moments):
    """The range claim's control data: I^0 times (1 + 0.1 x_0), the higher moments kept."""
    return [lambda x, xi, g=moments[0]: g(x, xi) * (1.0 + 0.1 * x[0]), *moments[1:]]


def oracle_equivalence(n: int, m: int, k: int, lines: int, rng):
    """Quadrature I^0..I^k of a random rank-m field against the oracle on random lines."""
    if k < 0:
        raise ValueError(f"moment order k must be non-negative, got k={k}")
    f = random_field(n, m, rng)
    rule = QuadratureRule.for_field(f)
    rows, worst = [], 0.0
    for i in _samples(lines, "lines"):
        ln = random_line(n, rng)
        for q in range(k + 1):
            rel = _relative(moment_numeric(f, ln, q, rule), moment_oracle(f, ln.x, ln.xi, q))
            worst = max(worst, rel)
            rows.append((i, q, rel))
    return (["line", "q", "rel_error"], rows,
            {"max_rel_error": worst, "lines": lines}, worst < ORACLE_TOL)


def decomposition(f, g, v, k: int):
    """f = g + d^k v with g k-solenoidal, from the residuals of verify_decomposition."""
    report = verify_decomposition(f, g, v, k)
    passed = (report["reconstruction_residual"] < DECOMPOSITION_TOL
              and report["solenoidal_residual"] < DECOMPOSITION_TOL)
    return ["quantity", "value"], sorted(report.items()), report, passed


def kernel(n: int, m: int, k: int, lines: int, rng):
    """I^0..I^k annihilate a random (k+1)-potential rank-m field; I^{k+1} is the control."""
    if k + 1 > m:
        raise ValueError(f"need k+1 <= m, got k={k}, m={m}")
    v = random_field(n, m - k - 1, rng, degree=1)
    drawn = [random_line(n, rng) for _ in range(lines)]
    residual, control = kernel_check(v, k, drawn), kernel_check(v, k, drawn, orders=[k + 1])
    results = {"kernel_residual": residual, "negative_control": control}
    return (["quantity", "value"], list(results.items()), results,
            residual < KERNEL_TOL and control > CONTROL_MIN)


def slice_rank(n: int, m: int, k: int, trials: int, rng):
    """Slice systems at random frequencies: the counted rows, full rank, bounded conditioning."""
    full = sym_dim(n, m)
    rows, passed, worst = [], True, math.inf
    for trial in _samples(trials, "trials"):
        y = rng.normal(size=n)
        system = assemble_slice_system(n, m, k, y)
        res = rank_probe(system)
        ratio = res.sigma_min / res.sigma_max
        worst = min(worst, ratio)
        passed = (passed and system.rows.shape[0] == slice_row_count(n, m, k)
                  and res.rank == full and ratio > SIGMA_RATIO_MIN)
        rows.append((trial, *[float(c) for c in y], res.rank, res.sigma_min))
    return (["trial"] + [f"y{i+1}" for i in range(n)] + ["rank", "sigma_min"], rows,
            {"full_rank": full, "trials": trials, "min_sigma_ratio": worst}, passed)


def chi_identities(n: int, m: int, ell: int, points: int, rng):
    """chi^l of a ladder field is I^0 g_l, translation invariant and homogeneous."""
    if not 0 <= ell <= m:
        raise ValueError(f"need 0 <= ell <= m, got ell={ell}, m={m}")
    f, gs = ladder_field(n, m, ell, rng)
    psi = psi_from_phi(oracle_moment_callables(f, ell), m, ell)
    chi = chi_build(psi, gs[:ell], ell, m)
    rows, worst = [], 0.0
    for i in _samples(points, "points"):
        x, xi = _phase_point(n, rng)
        got = chi(x, xi)
        identity = _relative(got, moment_oracle(gs[ell], x, xi, 0))
        t = rng.uniform(0.5, 1.5)
        translation = _relative(chi(x + t * xi, xi), got)
        homogeneity = homogeneity_residual(chi, m - ell - 1, x, xi)
        worst = max(worst, identity, translation, homogeneity)
        rows.append((i, identity, translation, homogeneity))
    return (["point", "identity", "translation", "homogeneity"], rows,
            {"max_residual": worst, "points": points}, worst < CHI_TOL)


def slice_identity(f, trials: int, offsets: int, rng):
    """The Fourier-slice identity of I^0..I^m of f along random (xi, y), y orthogonal to xi."""
    rows, worst = [], 0.0
    for trial in _samples(trials, "trials"):
        xi = rng.normal(size=f.n)
        xi /= np.linalg.norm(xi)
        y = rng.normal(size=f.n)
        y -= (y @ xi) * xi
        for q in range(f.m + 1):
            dev = slice_check(f, xi, y, q, noffsets=offsets)
            worst = max(worst, dev)
            rows.append((trial, q, dev))
    return (["trial", "q", "deviation"], rows,
            {"max_deviation": worst, "trials": trials}, worst < SLICE_TOL)


def _john_rows(test: str, rows):
    return [(test, "+".join(f"{i}{j}" for i, j in r["tuple"]), r["residuals"][0],
             r["residuals"][-1], r["order"]) for r in rows]


def range_conditions(f, k: int, dirs: int, offsets: int, ntuples: int, seed: int,
                     steps: tuple = _DEFAULT_STEPS):
    """Parity, John and transport on I^0..I^k of f; at n = 3 the corrupted control fails John."""
    data = batch_transform(f, k, ndirs=dirs, noffsets=offsets)
    moments = oracle_moment_callables(f, k)
    rep = range_test(data, f.m, k, steps=steps, moment_callables=moments,
                     ntuples=ntuples, seed=seed)
    rows = [("parity", str(ell), res, res, float("nan"))
            for ell, res in sorted(rep.parity.items())]
    rows += _john_rows("john", rep.john)
    rows += [("transport", str(r["ell"]), r["residuals"][0],
              r["residuals"][-1], r["order"]) for r in rep.transport]
    results = {"parity_pass": rep.parity_pass, "john_pass": rep.john_pass,
               "transport_pass": rep.transport_pass, "max_john_residual": rep.max_john_residual()}
    passed = rep.passed
    if f.n == 3:          # in R^2 the John condition is empty
        bad = range_test(None, f.m, k, steps=steps, moment_callables=corrupted(moments),
                         ntuples=ntuples, seed=seed, n=f.n)
        plateau = bad.max_john_residual() / max(rep.max_john_residual(), 1e-300)
        rows += _john_rows("control", bad.john)
        results.update(control_john_pass=bad.john_pass, control_plateau=plateau)
        passed = passed and not bad.john_pass and plateau >= PLATEAU_MIN
    return ["test", "id", "residual_coarse", "residual_fine", "order"], rows, results, passed
