"""Acceptance suite: one test and one printed verdict line per criterion."""

import itertools
import math
import time

import numpy as np
import pytest

from raymoments.cli import main as cli_main
from raymoments.fields import GridSpec, random_field
from raymoments.helmholtz import decompose_k, freq_project, projector_formula, \
    verify_decomposition
from raymoments.john import chi_build, homogeneity_residual, psi_from_phi, range_test
from raymoments.ray import (
    QuadratureRule,
    batch_transform,
    moment_numeric,
    moment_oracle,
    oracle_moment_callables,
    random_line,
    restricted_transform,
)
from raymoments.slices import assemble_slice_system, kernel_check, rank_probe, \
    slice_row_count
from raymoments.symtensor import sym_dim

from references import component_field, mixed_central


def verdict(num, name, ok, detail):
    print(f"\ncriterion {num} [{name}]: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num} [{name}] failed: {detail}"


def test_criterion_1_oracle_equivalence():
    t0 = time.time()
    worst = 0.0
    for n in (2, 3):
        for m in (1, 2, 3):
            rng = np.random.default_rng(100 * n + m)
            f = random_field(n, m, rng)
            rule = QuadratureRule.for_field(f)
            for _ in range(1000):
                ln = random_line(n, rng)
                for q in range(m + 1):
                    num = moment_numeric(f, ln, q, rule)
                    exact = moment_oracle(f, ln.x, ln.xi, q)
                    worst = max(worst, abs(num - exact) / max(abs(exact), 1e-300))
    elapsed = time.time() - t0
    verdict(1, "oracle equivalence", worst < 1e-8 and elapsed < 30.0,
            f"max rel error {worst:.3e}, {elapsed:.1f}s")


CONFIGS_2 = [(2, 2, 1), (2, 3, 1), (3, 2, 1), (3, 2, 2), (3, 3, 2)]


def test_criterion_2_decomposition():
    worst_recon = worst_sol = worst_pot = 0.0
    for n, m, k in CONFIGS_2:
        spec = GridSpec(n, 128 if n == 2 else 64, 8.0)
        rng = np.random.default_rng(1000 + 100 * n + 10 * m + k)
        for _ in range(10):
            f = random_field(n, m, rng).sample(spec)
            g, v = decompose_k(f, k)
            rep = verify_decomposition(f, g, v, k)
            worst_recon = max(worst_recon, rep["reconstruction_residual"])
            worst_sol = max(worst_sol, rep["solenoidal_residual"])
        for _ in range(2):
            w = random_field(n, m - k, rng, degree=1)
            f = w.inner_derivative(k).sample(spec)
            g, _ = decompose_k(f, k)
            worst_pot = max(worst_pot, g.norm() / f.norm())
    ok = worst_recon < 1e-6 and worst_sol < 1e-6 and worst_pot < 1e-6
    verdict(2, "decomposition", ok,
            f"recon {worst_recon:.3e}, solenoidal {worst_sol:.3e}, "
            f"potential recovery {worst_pot:.3e}")


def test_criterion_3_projector_equality():
    worst = 0.0
    for n in (2, 3):
        for m in (1, 2, 3):
            for k in range(1, m + 1):
                rng = np.random.default_rng(2000 + 100 * n + 10 * m + k)
                for _ in range(1000):
                    f_hat = rng.normal(size=sym_dim(n, m))
                    y = rng.normal(size=n)
                    got = projector_formula(f_hat, y, m, k)
                    want, _ = freq_project(f_hat, y, m, k)
                    scale = max(float(np.abs(f_hat).max()), 1e-300)
                    worst = max(worst, float(np.abs(got - want).max()) / scale)
    verdict(3, "projector equality", worst < 1e-10, f"max rel dev {worst:.3e}")


def test_criterion_4_kernel():
    worst = 0.0
    weakest_control = math.inf
    for n, m, k in [(2, 2, 1), (3, 2, 1), (3, 3, 2)]:
        rng = np.random.default_rng(3000 + 100 * n + 10 * m + k)
        v = random_field(n, m - k - 1, rng, degree=1)
        lines = [random_line(n, rng) for _ in range(500)]
        worst = max(worst, kernel_check(v, k, lines))
        weakest_control = min(weakest_control,
                              kernel_check(v, k, lines, orders=[k + 1]))
    ok = worst < 1e-8 and weakest_control > 1e-3
    verdict(4, "kernel annihilation", ok,
            f"max residual {worst:.3e}, min control {weakest_control:.3e}")


def test_criterion_5_injectivity_counting():
    ok = True
    worst_ratio = math.inf
    for n, m, k in CONFIGS_2:
        k = min(k, m - 1)        # slice systems require k < m
        rng = np.random.default_rng(4000 + 100 * n + 10 * m + k)
        full = sym_dim(n, m)
        for _ in range(20):
            sysm = assemble_slice_system(n, m, k, rng.normal(size=n))
            if sysm.rows.shape[0] != slice_row_count(n, m, k):
                ok = False
            res = rank_probe(sysm)
            ratio = res.sigma_min / res.sigma_max
            worst_ratio = min(worst_ratio, ratio)
            if res.rank != full or ratio <= 1e-6:
                ok = False
    verdict(5, "injectivity counting", ok,
            f"all systems full rank, min sigma ratio {worst_ratio:.3e}")


def test_criterion_6_moment_reduction():
    n = 2
    worst_rel = 0.0
    worst_order = (math.inf, -math.inf)
    for m, r in [(1, 1), (2, 1), (2, 2), (3, 2)]:
        rng = np.random.default_rng(5000 + 10 * m + r)
        f = random_field(n, m, rng)
        J = oracle_moment_callables(f, r)
        for _ in range(5):
            x = rng.uniform(-1.0, 1.0, size=n)
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            idx = tuple(sorted(rng.integers(n, size=r)))
            want = moment_oracle(component_field(f, idx), x, xi, 0)
            scale = max(abs(want), 1e-3)
            got = restricted_transform(J, idx, x, xi, h=1e-3, m=m)
            worst_rel = max(worst_rel, abs(got - want) / scale)
            e_h = abs(restricted_transform(J, idx, x, xi, h=2e-2, m=m) - want)
            e_h2 = abs(restricted_transform(J, idx, x, xi, h=1e-2, m=m) - want)
            order = math.log(max(e_h, 1e-300) / max(e_h2, 1e-300)) / math.log(2.0)
            worst_order = (min(worst_order[0], order), max(worst_order[1], order))
    ok = worst_rel < 1e-4 and 1.5 <= worst_order[0] and worst_order[1] <= 2.5
    verdict(6, "moment reduction", ok,
            f"max rel {worst_rel:.3e}, orders in "
            f"[{worst_order[0]:.2f}, {worst_order[1]:.2f}]")


def test_criterion_7_range_necessity():
    n, m, k = 3, 2, 1
    rng = np.random.default_rng(6000)
    f = random_field(n, m, rng)
    data = batch_transform(f, k, ndirs=16, noffsets=8)
    clean = oracle_moment_callables(f, k)
    good = range_test(data, m, k, moment_callables=clean, npoints=2,
                      ntuples=8, seed=0)
    corrupted = [lambda x, xi, g=clean[0]: g(x, xi) * (1.0 + 0.1 * x[0]),
                 clean[1]]
    bad = range_test(None, m, k, moment_callables=corrupted, npoints=2,
                     ntuples=8, seed=0, n=n)
    plateau = bad.max_john_residual() / max(good.max_john_residual(), 1e-300)
    parity = max(good.parity.values())
    ok = (good.parity_pass and good.john_pass and good.transport_pass
          and not bad.john_pass and plateau >= 10.0)
    verdict(7, "range necessity", ok,
            f"parity {parity:.3e}, clean orders converge, corrupted plateau "
            f"{plateau:.1f}x clean")


def test_criterion_8_chi_psi_suite():
    n, m = 2, 2
    rng = np.random.default_rng(7000)
    gs = [random_field(n, m - s, rng, degree=1) for s in range(m + 1)]
    f = gs[0]
    for s in range(1, m + 1):
        f = f + gs[s].inner_derivative(s)
    moments = oracle_moment_callables(f, m)
    psis = [psi_from_phi(moments, m, ell) for ell in range(m + 1)]

    worst_chi = 0.0
    chis = {}
    for ell in (1, 2):
        chi = chi_build(psis[ell], gs[:ell], ell, m)
        chis[ell] = chi
        for _ in range(10):
            x = rng.uniform(-1.0, 1.0, size=n)
            xi = rng.normal(size=n)
            xi /= np.linalg.norm(xi)
            ref = moment_oracle(gs[ell], x, xi, 0)
            got = chi(x, xi)
            worst_chi = max(worst_chi, abs(got - ref) / max(abs(ref), 1e-300))
            t = rng.uniform(0.5, 1.5)
            worst_chi = max(worst_chi, abs(chi(x + t * xi, xi) - got)
                            / max(abs(got), 1e-300))
            worst_chi = max(worst_chi, homogeneity_residual(chi, m - ell - 1, x, xi))

    # the decomposition of Psi into chi and correction-field terms must hold
    # with second-order convergence of the finite-difference realization
    pts = [(rng.uniform(-1.0, 1.0, size=n),
            rng.normal(size=n) / 1.0) for _ in range(2)]
    steps = (0.05, 0.025)
    worst_order = (math.inf, -math.inf)
    for ell in (1, 2):
        binom = math.comb(m, ell)
        for idx in itertools.combinations_with_replacement(range(n), ell):
            residuals = []
            for h in steps:
                acc = 0.0
                for x, xi in pts:
                    lhs = restricted_transform(psis[:ell + 1], idx, x, xi, h=h, m=m)
                    rhs = mixed_central(chis[ell], x, xi, idx, (), h) / binom
                    perms = list(itertools.permutations(idx))
                    for pi in perms:
                        for s in range(ell):
                            comp = component_field(gs[s], tuple(sorted(pi[:ell - s])))
                            term = mixed_central(
                                lambda a, b, c=comp: moment_oracle(c, a, b, 0),
                                x, xi, pi[ell - s:], (), h)
                            rhs += (math.comb(m - s, ell - s) * term
                                    / (binom * len(perms)))
                    acc += abs(lhs - rhs)
                residuals.append(acc)
            order = math.log(residuals[0] / residuals[1]) / math.log(2.0)
            worst_order = (min(worst_order[0], order), max(worst_order[1], order))
    ok = (worst_chi < 1e-8 and 1.5 <= worst_order[0] and worst_order[1] <= 2.5)
    verdict(8, "chi/Psi construction", ok,
            f"max chi residual {worst_chi:.3e}, decomposition orders in "
            f"[{worst_order[0]:.2f}, {worst_order[1]:.2f}]")


def test_criterion_9_cli_determinism(tmp_path):
    f = random_field(2, 2, np.random.default_rng(0))
    field = tmp_path / "field.json"
    field.write_text(f.to_json())
    invocations = {
        "transform": ["transform", "--field", str(field), "--k", "1",
                      "--dirs", "8", "--offsets", "8",
                      "--out", str(tmp_path / "t.json")],
        "decompose": ["decompose", "--field", str(field), "--k", "1",
                      "--grid", "64", "--out-prefix", str(tmp_path / "dec")],
        "verify": ["verify", "--prefix", str(tmp_path / "dec"), "--k", "1"],
        "oracle-diff": ["oracle-diff", "--n", "2", "--m", "1", "--lines", "20",
                        "--seed", "3", "--out", str(tmp_path / "od.json")],
        "rank-probe": ["rank-probe", "--n", "3", "--m", "2", "--k", "1",
                       "--trials", "5", "--seed", "3",
                       "--out", str(tmp_path / "rp.csv")],
        "check-kernel": ["check-kernel", "--n", "2", "--m", "2", "--k", "1",
                         "--lines", "30", "--seed", "3",
                         "--out", str(tmp_path / "ck.json")],
        "check-range": ["check-range", "--n", "2", "--m", "1", "--k", "1",
                        "--dirs", "8", "--offsets", "8", "--ntuples", "1",
                        "--seed", "3", "--out", str(tmp_path / "cr.json")],
        "chi-verify": ["chi-verify", "--n", "2", "--m", "2", "--ell", "1",
                       "--points", "5", "--seed", "3",
                       "--out", str(tmp_path / "cv.json")],
        "slice-check": ["slice-check", "--n", "2", "--m", "1", "--trials", "1",
                        "--offsets", "64", "--seed", "3",
                        "--out", str(tmp_path / "sc.json")],
    }
    # run decompose before verify so its grid dumps exist for both passes
    ok = True
    detail = "all subcommands byte-identical"
    for name, args in invocations.items():
        a = tmp_path / f"{name}.run1.csv"
        b = tmp_path / f"{name}.run2.csv"
        code1 = cli_main(args + ["--csv", str(a)])
        code2 = cli_main(args + ["--csv", str(b)])
        if code1 != 0 or code2 != 0:
            ok, detail = False, f"{name} exited {code1}/{code2}"
            break
        if a.read_bytes() != b.read_bytes():
            ok, detail = False, f"{name} CSV differs between reruns"
            break
    verdict(9, "CLI determinism", ok, detail)
