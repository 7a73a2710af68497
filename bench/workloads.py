"""The benchmark's three workloads: inputs made from the seed, and the jobs.

A job runs one configuration's checks on freshly generated inputs and
returns the names of the checks that failed together with the worst relative
residual against an exact reference.  Every library call a job makes goes through ``rec.span``
so that a traced pass can attribute the time to a layer; an untraced pass
hands in a recorder whose spans cost nothing.

``warm=True`` runs the same calls on reduced inputs; set-up uses it to fill
the library's caches without paying for a full job.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass

import numpy as np

from raymoments.fields import GridField, GridSpec, random_field
from raymoments.helmholtz import decompose_k, verify_decomposition
from raymoments.john import chi_build, psi_from_phi, range_test
from raymoments.ray import (
    QuadratureRule,
    batch_transform,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
)
from raymoments.slices import (
    assemble_slice_system,
    kernel_check,
    rank_probe,
    slice_check,
    slice_row_count,
)
from raymoments.symtensor import sym_dim

# Verdict tolerances, the same as the acceptance criteria and CLI defaults.
PARITY_TOL = 1e-12        # range_test's parity tolerance for exact data
IDENTITY_TOL = 1e-8       # chi / psi identities (criterion 8), oracle diff
KERNEL_TOL = 1e-8         # kernel annihilation (criterion 4)
CONTROL_MIN = 1e-3        # kernel negative control must stay above this
SLICE_TOL = 1e-6          # slice-check CLI default
SIGMA_RATIO_MIN = 1e-6    # slice systems well conditioned (criterion 5)
DECOMP_TOL = 1e-6         # decompose/verify CLI default
GRID_EXTENT = 8.0         # criterion 2


@dataclass
class Verdict:
    failed: tuple         # names of the checks that failed, out of the
                          # workload's ``checks``; empty on a pass
    residual: float       # worst relative residual against an exact reference
    detail: str = ""


def _failed(**checks) -> tuple:
    return tuple(name for name, ok in checks.items() if not ok)


def _rng(seed: int, cycle: int, slot: int) -> np.random.Generator:
    return np.random.default_rng([seed, cycle, slot])


def _lines_in_grid(n: int, ndirs: int, noffsets: int) -> int:
    return ndirs * noffsets ** (n - 1)


def _parity_residual(values: np.ndarray, m: int) -> float:
    """Worst relative antipodal parity defect of batch_transform output."""
    half = values.shape[1] // 2
    worst = 0.0
    for ell in range(values.shape[0]):
        diff = values[ell, half:] - (-1.0) ** (m - ell) * values[ell, :half]
        scale = max(float(np.abs(values[ell]).max()), 1e-300)
        worst = max(worst, float(np.abs(diff).max()) / scale)
    return worst


def _scaled_residual(got: np.ndarray, want: np.ndarray) -> float:
    """Worst deviation relative to the largest reference value.

    Scaling by the largest value, as the parity and kernel checks do, keeps
    a reference that happens to be near zero from dominating the verdict.
    """
    return float(np.abs(got - want).max()) / max(float(np.abs(want).max()), 1e-300)


class Range:
    """Phase space: parity, John and transport conditions, chi/psi identities."""

    configs = [(2, 1, 1), (2, 2, 1), (3, 1, 1), (3, 2, 1), (2, 3, 1)]
    # (2, 3, 1), the known John false negative, runs once per run after the
    # timed loop: its verdict counts, but one 12-19 s job per run would set
    # the timing metrics alone and swing with the host's speed
    untimed = ((2, 3, 1),)
    # the control only runs at n = 3 and passes trivially at n = 2
    checks = ("parity", "john", "control", "identities")
    FULL = dict(ndirs=16, noffsets=8, npoints=2, chi_points=10)
    # npoints=0 makes range_test walk its code without stencil evaluations
    WARM = dict(ndirs=4, noffsets=2, npoints=0, chi_points=1)

    def inputs(self, seed: int, cycle: int):
        out = []
        for slot, (n, m, k) in enumerate(self.configs):
            rng = _rng(seed, cycle, slot)
            # f = sum_s d^s g_s, so chi^k has the exact reference J^0 g_k
            gs = [random_field(n, m - s, rng, degree=2 if s == 0 else 1)
                  for s in range(k + 1)]
            f = gs[0]
            for s in range(1, k + 1):
                f = f + gs[s].inner_derivative(s)
            points = []
            for _ in range(self.FULL["chi_points"]):
                x = rng.uniform(-1.0, 1.0, size=n)
                xi = rng.normal(size=n)
                xi *= rng.uniform(0.8, 1.2) / np.linalg.norm(xi)
                points.append((x, xi))
            out.append(((n, m, k), dict(f=f, gs=gs, points=points,
                                        seed=int(rng.integers(2 ** 31)))))
        return out

    def run(self, cfg, inp, rec, warm: bool = False) -> Verdict:
        n, m, k = cfg
        s = self.WARM if warm else self.FULL
        f, gs = inp["f"], inp["gs"]
        with rec.span("ray.batch_transform",
                      _lines_in_grid(n, s["ndirs"], s["noffsets"])):
            data = batch_transform(f, k, ndirs=s["ndirs"], noffsets=s["noffsets"])
        raw = oracle_moment_callables(f, k)
        clean = [rec.oracle(c) for c in raw]
        with rec.span("john.range_test"):
            good = range_test(data, m, k, moment_callables=clean,
                              npoints=s["npoints"], ntuples=1, seed=inp["seed"])
        control_ok = True
        detail = f"clean john residual {good.max_john_residual():.3e}"
        if n == 3:
            # criterion 7's corrupted-data control must fail John; at n = 2
            # one John tuple does not see this corruption
            corrupted = [rec.oracle(lambda x, xi, g=raw[0]: g(x, xi) * (1.0 + 0.1 * x[0]))]
            corrupted += clean[1:]
            with rec.span("john.range_test"):
                bad = range_test(None, m, k, moment_callables=corrupted,
                                 npoints=s["npoints"], ntuples=1,
                                 seed=inp["seed"], n=n)
            control_ok = not bad.john_pass
            detail += f", control passed John: {bad.john_pass}"

        psi = psi_from_phi(clean, m, k)
        chi = chi_build(psi, gs[:k], k, m)
        pairs = []           # (chi, J^0 g_k, psi^k, J^k f) at each point
        for x, xi in inp["points"][: s["chi_points"]]:
            with rec.span("john.chi"):
                chi_val = chi(x, xi)
            with rec.span("ray.moment_oracle"):
                chi_ref = moment_oracle(gs[k], x, xi, 0)
            psi_val = psi(x, xi)
            with rec.span("ray.moment_oracle"):
                psi_ref = moment_oracle(f, x, xi, k)
            pairs.append((chi_val, chi_ref, psi_val, psi_ref))
        pairs = np.array(pairs)
        worst = max(max(good.parity.values()),
                    _scaled_residual(pairs[:, 0], pairs[:, 1]),
                    _scaled_residual(pairs[:, 2], pairs[:, 3]))
        failed = _failed(parity=good.parity_pass,
                         john=good.john_pass and good.transport_pass,
                         control=control_ok, identities=worst < IDENTITY_TOL)
        return Verdict(failed, worst, detail)


class Grid:
    """Frequency space: sample, decompose, verify, dump/load round trip."""

    # (n, m, k, N): criterion 2's configurations, then two coarse CLI-valid
    # grids that reproduce the known Nyquist defects
    configs = [(2, 2, 1, 128), (2, 3, 1, 128), (3, 2, 1, 64), (3, 3, 2, 64),
               (3, 2, 1, 32), (2, 2, 1, 33)]
    checks = ("reconstruction", "solenoidal", "io")
    untimed = ()

    def __init__(self, io_dir: str):
        self.io_dir = io_dir

    def inputs(self, seed: int, cycle: int):
        return [(cfg, random_field(cfg[0], cfg[1], _rng(seed, cycle, slot)))
                for slot, cfg in enumerate(self.configs)]

    def run(self, cfg, f, rec, warm: bool = False) -> Verdict:
        n, m, k, count = cfg
        if warm:
            count = 8 + count % 2
        spec = GridSpec(n, count, GRID_EXTENT)
        bins = count ** n
        with rec.span("fields.sample", bins):
            field = f.sample(spec)
        with rec.span("helmholtz.decompose_k", bins):
            g, v = decompose_k(field, k)
        with rec.span("helmholtz.verify_decomposition", bins):
            rep = verify_decomposition(field, g, v, k)
        prefix = os.path.join(self.io_dir, "job")
        with rec.span("fields.grid_io"):
            g.dump(prefix + "_g")
            v.dump(prefix + "_v")
            g2 = GridField.load(prefix + "_g")
            v2 = GridField.load(prefix + "_v")
        io_ok = (g2.spec == g.spec and v2.spec == v.spec
                 and np.array_equal(g2.data, g.data)
                 and np.array_equal(v2.data, v.data))
        recon = rep["reconstruction_residual"]
        sol = rep["solenoidal_residual"]
        failed = _failed(reconstruction=recon < DECOMP_TOL,
                         solenoidal=sol < DECOMP_TOL, io=io_ok)
        return Verdict(failed, max(recon, sol),
                       f"reconstruction {recon:.3e}, solenoidal {sol:.3e}, io {io_ok}")


class Lines:
    """Line space: quadrature against the oracle, kernel, slices, slice systems."""

    configs = [(2, 2), (3, 2), (3, 3)]
    checks = ("parity", "oracle_diff", "kernel", "control", "slice", "systems")
    untimed = ()
    FULL = dict(ndirs=16, noffsets=8, lines=50, slice_offsets={2: 64, 3: 24},
                systems=20)
    WARM = dict(ndirs=4, noffsets=2, lines=2, slice_offsets={2: 4, 3: 4},
                systems=1)

    def inputs(self, seed: int, cycle: int):
        out = []
        for slot, (n, m) in enumerate(self.configs):
            rng = _rng(seed, cycle, slot)
            k = m - 1
            f = random_field(n, m, rng)
            v = random_field(n, m - k - 1, rng, degree=1)
            lines = [random_line(n, rng) for _ in range(self.FULL["lines"])]
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            # a unit frequency in xi-perp: the slice values, and with them
            # the relative deviation, stay of order one
            y = rng.normal(size=n)
            y -= (y @ xi) * xi
            y /= np.linalg.norm(y)
            freqs = rng.normal(size=(self.FULL["systems"], n))
            out.append(((n, m), dict(f=f, v=v, lines=lines, xi=xi, y=y,
                                     freqs=freqs)))
        return out

    def run(self, cfg, inp, rec, warm: bool = False) -> Verdict:
        n, m = cfg
        k = m - 1
        s = self.WARM if warm else self.FULL
        f, lines = inp["f"], inp["lines"][: s["lines"]]
        with rec.span("ray.batch_transform",
                      _lines_in_grid(n, s["ndirs"], s["noffsets"])):
            data = batch_transform(f, m, ndirs=s["ndirs"], noffsets=s["noffsets"])
        parity = _parity_residual(data.values, m)

        rule = QuadratureRule.for_field(f)
        num = np.empty((m + 1, len(lines)))
        exact = np.empty_like(num)
        for i, ln in enumerate(lines):
            for q in range(m + 1):
                with rec.span("ray.moment_numeric"):
                    num[q, i] = moment_numeric(f, ln, q, rule)
                with rec.span("ray.moment_oracle"):
                    exact[q, i] = moment_oracle(f, ln.x, ln.xi, q)
        oracle_diff = max(_scaled_residual(num[q], exact[q]) for q in range(m + 1))

        with rec.span("slices.kernel_check", len(lines)):
            kernel = kernel_check(inp["v"], k, lines)
        with rec.span("slices.kernel_check", len(lines)):
            control = kernel_check(inp["v"], k, lines, orders=[k + 1])

        noff = s["slice_offsets"][n]
        slice_dev = 0.0
        for q in range(m + 1):
            with rec.span("slices.slice_check", noff ** (n - 1)):
                dev = slice_check(f, inp["xi"], inp["y"], q, noffsets=noff)
            slice_dev = max(slice_dev, dev)

        systems_ok = True
        for y in inp["freqs"][: s["systems"]]:
            with rec.span("slices.rank_probe"):
                system = assemble_slice_system(n, m, k, y)
                res = rank_probe(system)
            systems_ok = systems_ok and (
                system.rows.shape[0] == slice_row_count(n, m, k)
                and res.rank == sym_dim(n, m)
                and res.sigma_min > SIGMA_RATIO_MIN * res.sigma_max)

        failed = _failed(parity=parity < PARITY_TOL,
                         oracle_diff=oracle_diff < IDENTITY_TOL,
                         kernel=kernel < KERNEL_TOL, control=control > CONTROL_MIN,
                         slice=slice_dev < SLICE_TOL, systems=systems_ok)
        detail = (f"parity {parity:.1e}, oracle diff {oracle_diff:.1e}, kernel "
                  f"{kernel:.1e}, control {control:.1e}, slice {slice_dev:.1e}, "
                  f"systems ok {systems_ok}")
        return Verdict(failed, max(oracle_diff, slice_dev, kernel), detail)


def make(name: str, io_dir: str):
    if name == "grid":
        return Grid(io_dir)
    return {"range": Range, "lines": Lines}[name]()


def accuracy_digits(residuals) -> float:
    """-log10 of the worst residual, floored at double-precision epsilon."""
    worst = max(residuals, default=1.0)
    return -math.log10(max(worst, np.finfo(float).eps))
